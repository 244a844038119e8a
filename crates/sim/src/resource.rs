//! Occupancy-tracked hardware resources.
//!
//! The timing model in this workspace is a transaction-level pipeline model:
//! instead of a full discrete-event simulator we track, for each contended
//! hardware resource (DRAM data bus, DRAM banks, PS–PL port, RME fetch
//! units), the time at which it next becomes free. A request that needs a
//! resource starts at `max(request_ready, resource_free)` and occupies the
//! resource for its service time. This captures the first-order effects the
//! paper relies on — bandwidth saturation, bank-level parallelism and the
//! benefit of multiple outstanding transactions — while remaining fast
//! enough to sweep multi-gigabyte tables.

use crate::time::SimTime;

/// A single-server resource (e.g. a bus) that can serve one request at a
/// time.
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    next_free: SimTime,
    busy: SimTime,
    served: u64,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            served: 0,
        }
    }

    /// Name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Books the resource for `occupancy`, starting no earlier than `ready`.
    /// Returns `(start, end)` of the booking.
    pub fn acquire(&mut self, ready: SimTime, occupancy: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.next_free);
        let end = start + occupancy;
        self.next_free = end;
        self.busy += occupancy;
        self.served += 1;
        (start, end)
    }

    /// The earliest time a new request could start service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total time spent serving requests.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of bookings made.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Utilization in `[0, 1]` relative to a horizon (typically the final
    /// completion time of the workload).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.busy.as_picos() as f64 / horizon.as_picos() as f64
        }
    }

    /// Resets the resource to idle, clearing statistics.
    pub fn reset(&mut self) {
        self.next_free = SimTime::ZERO;
        self.busy = SimTime::ZERO;
        self.served = 0;
    }
}

/// A pool of `k` identical servers (e.g. DRAM banks or RME fetch units).
/// Each booking is served by the earliest-free server.
#[derive(Debug, Clone)]
pub struct MultiResource {
    name: &'static str,
    servers: Vec<SimTime>,
    busy: SimTime,
    served: u64,
}

impl MultiResource {
    /// Creates a pool of `servers` idle servers. `servers` must be ≥ 1.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers >= 1, "a resource pool needs at least one server");
        MultiResource {
            name,
            servers: vec![SimTime::ZERO; servers],
            busy: SimTime::ZERO,
            served: 0,
        }
    }

    /// Name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of servers in the pool.
    pub fn capacity(&self) -> usize {
        self.servers.len()
    }

    /// Books the earliest-available server. Returns `(server_index, start, end)`.
    pub fn acquire(&mut self, ready: SimTime, occupancy: SimTime) -> (usize, SimTime, SimTime) {
        let (idx, free) = self
            .servers
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("pool is non-empty");
        let start = ready.max(free);
        let end = start + occupancy;
        self.servers[idx] = end;
        self.busy += occupancy;
        self.served += 1;
        (idx, start, end)
    }

    /// Books a *specific* server (used when the request is bound to a
    /// particular bank or unit). Returns `(start, end)`.
    pub fn acquire_server(
        &mut self,
        server: usize,
        ready: SimTime,
        occupancy: SimTime,
    ) -> (SimTime, SimTime) {
        let free = self.servers[server];
        let start = ready.max(free);
        let end = start + occupancy;
        self.servers[server] = end;
        self.busy += occupancy;
        self.served += 1;
        (start, end)
    }

    /// The earliest time any server becomes free.
    pub fn earliest_free(&self) -> SimTime {
        self.servers.iter().copied().min().unwrap_or(SimTime::ZERO)
    }

    /// The time a specific server becomes free.
    pub fn server_free(&self, server: usize) -> SimTime {
        self.servers[server]
    }

    /// Total busy time summed across servers.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of bookings made.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Average per-server utilization relative to a horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.busy.as_picos() as f64
                / (horizon.as_picos() as f64 * self.servers.len() as f64)
        }
    }

    /// Resets all servers to idle, clearing statistics.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            *s = SimTime::ZERO;
        }
        self.busy = SimTime::ZERO;
        self.served = 0;
    }
}

/// A single-server resource with two FIFO admission classes: a *paced*
/// class that appends behind every existing booking (exactly like
/// [`Resource`]) and a *demand* class that is serialized only against its
/// own class.
///
/// [`Resource`] collapses the schedule to one free pointer, which makes a
/// reservation at a future ready time block every later request — even
/// though the server is idle until that reservation starts. In the HTAP
/// mix this turns the RME's paced descriptor bookings (anchored up to a
/// frame ahead of real time) into a wall that every CPU demand miss queues
/// behind. `PriorityResource` models what the platform actually does: the
/// PS–PL interconnect gives CPU (demand) traffic QoS priority over the PL
/// requestor, so a demand read is admitted as if the prefetcher's future
/// reservations were not there. The paced class's already-returned
/// completion times are left standing — the prefetcher absorbs the
/// preemption bubble out of its rate slack, which is conservative for it.
///
/// * [`acquire`](Self::acquire) — **paced** class: starts at
///   `max(ready, next_free)`, bit-identical to [`Resource::acquire`]. Used
///   for the RME's paced descriptor bookings and for every request when
///   demand priority is disabled.
/// * [`acquire_demand`](Self::acquire_demand) — **demand** class: starts at
///   `max(ready, demand_free)`, where `demand_free` tracks only previous
///   demand-class bookings. Demand requests stay FIFO among themselves, so
///   on a resource carrying only demand traffic this degenerates to
///   [`Resource::acquire`] bit for bit — the identity that keeps pure-CPU
///   request streams unchanged whether or not priority admission is on.
///   Likewise a resource carrying only paced traffic is bit-identical to a
///   plain [`Resource`], so the two classes only interact on genuinely
///   mixed (RME + CPU) runs.
#[derive(Debug, Clone)]
pub struct PriorityResource {
    name: &'static str,
    /// Latest booked end over *all* bookings — the paced-class append point.
    next_free: SimTime,
    /// Latest booked end over demand-class bookings only.
    demand_free: SimTime,
    busy: SimTime,
    served: u64,
}

impl PriorityResource {
    /// Creates an idle resource.
    pub fn new(name: &'static str) -> Self {
        PriorityResource {
            name,
            next_free: SimTime::ZERO,
            demand_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            served: 0,
        }
    }

    /// Name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Paced-class booking: starts no earlier than `ready` and after every
    /// existing booking of either class. Identical to [`Resource::acquire`].
    pub fn acquire(&mut self, ready: SimTime, occupancy: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.next_free);
        self.book(start, occupancy)
    }

    /// Demand-class booking: starts no earlier than `ready` and after every
    /// earlier *demand* booking, ignoring paced-class reservations (demand
    /// priority — see the type docs). May therefore overlap paced bookings;
    /// [`busy_time`](Self::busy_time) still accumulates both, so it can
    /// slightly overcount on mixed runs (bounded by the demand traffic
    /// volume).
    pub fn acquire_demand(&mut self, ready: SimTime, occupancy: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.demand_free);
        let (start, end) = self.book(start, occupancy);
        self.demand_free = end;
        (start, end)
    }

    fn book(&mut self, start: SimTime, occupancy: SimTime) -> (SimTime, SimTime) {
        let end = start + occupancy;
        self.busy += occupancy;
        self.served += 1;
        self.next_free = self.next_free.max(end);
        (start, end)
    }

    /// The earliest time a paced-class request could start service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total time spent serving requests (both classes; on mixed runs the
    /// demand class may overlap paced reservations, so this is an upper
    /// bound rather than an exact busy integral).
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of bookings made.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Resets the resource to idle, clearing statistics.
    pub fn reset(&mut self) {
        self.next_free = SimTime::ZERO;
        self.demand_free = SimTime::ZERO;
        self.busy = SimTime::ZERO;
        self.served = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn single_resource_serializes_requests() {
        let mut bus = Resource::new("bus");
        let (s1, e1) = bus.acquire(ns(0), ns(10));
        assert_eq!((s1, e1), (ns(0), ns(10)));
        // Second request is ready at t=2 but must wait for the bus.
        let (s2, e2) = bus.acquire(ns(2), ns(5));
        assert_eq!((s2, e2), (ns(10), ns(15)));
        // A request arriving after the bus is free starts immediately.
        let (s3, e3) = bus.acquire(ns(100), ns(1));
        assert_eq!((s3, e3), (ns(100), ns(101)));
        assert_eq!(bus.busy_time(), ns(16));
        assert_eq!(bus.served(), 3);
    }

    #[test]
    fn utilization_is_bounded() {
        let mut bus = Resource::new("bus");
        bus.acquire(ns(0), ns(50));
        assert!((bus.utilization(ns(100)) - 0.5).abs() < 1e-9);
        assert_eq!(bus.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn pool_overlaps_across_servers() {
        let mut banks = MultiResource::new("banks", 2);
        let (_, s1, e1) = banks.acquire(ns(0), ns(10));
        let (_, s2, e2) = banks.acquire(ns(0), ns(10));
        // Two servers: both start at 0.
        assert_eq!((s1, e1), (ns(0), ns(10)));
        assert_eq!((s2, e2), (ns(0), ns(10)));
        // Third must wait for one of them.
        let (_, s3, _) = banks.acquire(ns(0), ns(10));
        assert_eq!(s3, ns(10));
        assert_eq!(banks.served(), 3);
    }

    #[test]
    fn pool_specific_server_booking() {
        let mut banks = MultiResource::new("banks", 4);
        let (s1, e1) = banks.acquire_server(2, ns(0), ns(7));
        assert_eq!((s1, e1), (ns(0), ns(7)));
        let (s2, _) = banks.acquire_server(2, ns(1), ns(7));
        assert_eq!(s2, ns(7));
        // Other servers are still free.
        assert_eq!(banks.server_free(0), SimTime::ZERO);
        assert_eq!(banks.earliest_free(), SimTime::ZERO);
    }

    #[test]
    fn reset_clears_state() {
        let mut bus = Resource::new("bus");
        bus.acquire(ns(0), ns(10));
        bus.reset();
        assert_eq!(bus.next_free(), SimTime::ZERO);
        assert_eq!(bus.busy_time(), SimTime::ZERO);
        assert_eq!(bus.served(), 0);

        let mut pool = MultiResource::new("pool", 3);
        pool.acquire(ns(0), ns(10));
        pool.reset();
        assert_eq!(pool.earliest_free(), SimTime::ZERO);
        assert_eq!(pool.served(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = MultiResource::new("empty", 0);
    }

    #[test]
    fn priority_paced_class_matches_resource_bit_for_bit() {
        let mut res = Resource::new("bus");
        let mut pr = PriorityResource::new("bus");
        let reqs = [(0u64, 10u64), (2, 5), (100, 1), (90, 7), (100, 3)];
        for (ready, occ) in reqs {
            assert_eq!(res.acquire(ns(ready), ns(occ)), pr.acquire(ns(ready), ns(occ)));
        }
        assert_eq!(res.next_free(), pr.next_free());
        assert_eq!(res.busy_time(), pr.busy_time());
        assert_eq!(res.served(), pr.served());
    }

    #[test]
    fn priority_demand_only_traffic_matches_resource() {
        // With no paced reservations to preempt, the demand class is plain
        // FIFO occupancy — the identity that keeps pure-CPU request streams
        // unchanged by demand-priority admission.
        let mut res = Resource::new("bus");
        let mut pr = PriorityResource::new("bus");
        let reqs = [(0u64, 10u64), (2, 5), (100, 1), (90, 7), (100, 3)];
        for (ready, occ) in reqs {
            assert_eq!(
                res.acquire(ns(ready), ns(occ)),
                pr.acquire_demand(ns(ready), ns(occ))
            );
        }
        assert_eq!(res.busy_time(), pr.busy_time());
    }

    #[test]
    fn priority_demand_ignores_paced_future_reservations() {
        let mut pr = PriorityResource::new("bank");
        // Paced future reservations: [100,102], [200,202], [300,302].
        for k in 1..=3u64 {
            assert_eq!(
                pr.acquire(ns(100 * k), ns(2)),
                (ns(100 * k), ns(100 * k + 2))
            );
        }
        // A demand read ready at t=10 is served immediately: the paced
        // reservations do not queue it.
        assert_eq!(pr.acquire_demand(ns(10), ns(30)), (ns(10), ns(40)));
        // Demand stays FIFO within its class: ready at 20 but the previous
        // demand booking runs to 40.
        assert_eq!(pr.acquire_demand(ns(20), ns(5)), (ns(40), ns(45)));
        // Paced traffic still packs after everything booked (both classes).
        assert_eq!(pr.acquire(ns(0), ns(5)), (ns(302), ns(307)));
    }

    #[test]
    fn priority_demand_overlap_is_allowed_and_counted() {
        let mut pr = PriorityResource::new("bus");
        pr.acquire(ns(0), ns(100)); // paced transfer occupies [0, 100]
        // The demand read preempts: it starts at its ready time even though
        // the paced transfer is in flight, and busy time counts both.
        assert_eq!(pr.acquire_demand(ns(40), ns(10)), (ns(40), ns(50)));
        assert_eq!(pr.busy_time(), ns(110));
        assert_eq!(pr.next_free(), ns(100));
    }

    #[test]
    fn priority_reset_clears_state() {
        let mut pr = PriorityResource::new("bank");
        pr.acquire(ns(50), ns(10));
        pr.acquire_demand(ns(0), ns(5));
        pr.reset();
        assert_eq!(pr.next_free(), SimTime::ZERO);
        assert_eq!(pr.busy_time(), SimTime::ZERO);
        assert_eq!(pr.served(), 0);
        assert_eq!(pr.acquire_demand(ns(0), ns(5)), (SimTime::ZERO, ns(5)));
    }
}
