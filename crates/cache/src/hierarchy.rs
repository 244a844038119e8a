//! The L1 + L2 cache hierarchy over a pluggable memory backend.
//!
//! Every CPU memory reference in the query engine funnels through a
//! [`CoreFrontend`] — one core's private L1, stream prefetcher and
//! miss-status registers — backed by a [`SharedL2`] that all cores of the
//! cluster share. An access:
//!
//! * looks the line up in the core's L1, then the shared L2,
//! * on an L2 miss asks the [`MemoryBackend`] (DRAM controller for normal
//!   addresses, the RME for ephemeral addresses) to fill the line,
//! * trains the stream prefetcher on L1 misses and issues its prefetches to
//!   the same backend, so prefetched lines arrive early and demand misses on
//!   them only pay the residual latency,
//! * accumulates the per-level request/miss counters reported in Figure 8
//!   (per core; aggregate counters are the merge across cores).
//!
//! [`CacheHierarchy`] packages one frontend with its own shared L2 — the
//! single-core composition every pre-multi-core caller (and any experiment
//! that doesn't shard work) uses. Multi-core callers (`relmem-core`'s
//! `System`) own N frontends and one `SharedL2` directly, and pass the L2
//! into every access; lookups then contend on the L2's banks (see the
//! `shared_l2` module docs for the contention model and the single-core
//! bypass that keeps `cores == 1` timing bit-identical).
//!
//! # Line-resident fast path
//!
//! Row scans touch several fields of the same 64-byte line back to back, so
//! the overwhelmingly common case is "the line I touched an instant ago".
//! The hierarchy remembers the last line it made MRU in the L1; a repeat
//! touch of that line short-circuits the set walk, the prefetcher (only
//! trained on misses) and the pending-fill probe, charging the L1 hit
//! latency and bumping the same counters the full walk would. Because the
//! line is by construction still the MRU way of its set, skipping the LRU
//! update is state-identical too — the fast path cannot be observed in
//! timing or statistics, only in wall-clock speed. `set_fast_path(false)`
//! disables it; the equivalence tests in `relmem-core` and this crate run
//! both configurations against each other.
//!
//! # Hot-path data structures
//!
//! In-flight fill completions (the MSHR occupancy model) live in a
//! fixed-capacity `MissSlots` pool (private to this module) sized to the
//! core's miss-status-holding-register count — a handful of `SimTime`s
//! scanned in registers, instead of the seed's unbounded `Vec` with an
//! `O(n)` `retain` plus `min_by_key` per miss. Pending prefetch arrivals
//! live in a slot-indexed array parallel to the L2's way slots, addressed
//! by the same set walk that locates the line; a fill that recycles a way
//! clears the slot, so a later refill of the same line can never read a
//! stale arrival time (the seed implementation kept a line-address map and
//! let entries linger until a threshold purge, over-counting
//! `prefetch_hits`).

use relmem_sim::{PlatformConfig, SimTime, TraceEvent, TraceEventKind, Tracer, Track};

use crate::cache::Cache;
use crate::prefetch::StreamPrefetcher;
use crate::profile;
use crate::shared_l2::SharedL2;
use crate::stats::HierarchyStats;

/// Where a memory access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the shared L2.
    L2,
    /// Served by the memory backend (DRAM or RME).
    Memory,
}

/// Timing outcome of one CPU memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Time at which the data is available to the core.
    pub completion: SimTime,
    /// Deepest level that had to be consulted.
    pub level: HitLevel,
}

/// A source of cache-line fills behind the L2.
pub trait MemoryBackend {
    /// Requests the 64-byte line containing `line_addr` (already
    /// line-aligned), issued at `ready`. Returns the time the line arrives
    /// at the L2.
    fn fill_line(&mut self, line_addr: u64, ready: SimTime) -> SimTime;

    /// Whether the backend is willing to serve a *prefetch* of this line
    /// right now. Demand fills are always served; the Relational Memory
    /// Engine declines prefetches that run past the frame currently
    /// resident in its Reorganization Buffer, so the prefetcher cannot
    /// force a premature frame turnover.
    fn prefetchable(&self, _line_addr: u64) -> bool {
        true
    }

    /// Notifies the backend that a dirty line was evicted from the L2 at
    /// `ready` and owes main memory a write. Default: ignored — the
    /// occupancy DRAM model's timing is read/write-symmetric and its golden
    /// fixtures predate writeback traffic, so only backends that route to
    /// the cycle-accurate model turn this into a real DRAM write (where tWR/tWTR exist to observe it). Fire-and-forget by
    /// design: the evicting access never waits on the writeback, it
    /// contends with it at the DRAM.
    fn writeback_line(&mut self, _line_addr: u64, _ready: SimTime) {}
}

/// Blanket implementation so `&mut T` can be passed where a backend is
/// expected.
impl<T: MemoryBackend + ?Sized> MemoryBackend for &mut T {
    fn fill_line(&mut self, line_addr: u64, ready: SimTime) -> SimTime {
        (**self).fill_line(line_addr, ready)
    }

    fn prefetchable(&self, line_addr: u64) -> bool {
        (**self).prefetchable(line_addr)
    }

    fn writeback_line(&mut self, line_addr: u64, ready: SimTime) {
        (**self).writeback_line(line_addr, ready)
    }
}

/// Sentinel for "no MRU line cached" (never a valid line address).
const NO_LINE: u64 = u64::MAX;

/// Fixed-capacity pool of in-flight fill completion times (the MSHR
/// model). Capacity is the configured `max_outstanding_misses` — small on
/// every real core — so membership, expiry and earliest-slot queries are
/// plain unordered scans over a few machine words.
#[derive(Debug, Clone)]
struct MissSlots {
    completions: Vec<SimTime>,
    len: usize,
}

impl MissSlots {
    fn new(capacity: usize) -> Self {
        MissSlots {
            completions: vec![SimTime::ZERO; capacity],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Drops every completion at or before `now`.
    #[inline]
    fn expire(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.len {
            if self.completions[i] <= now {
                self.len -= 1;
                self.completions.swap(i, self.len);
            } else {
                i += 1;
            }
        }
    }

    /// Whether a new fill can issue without waiting.
    #[inline]
    fn has_free_slot(&self) -> bool {
        self.len < self.completions.len()
    }

    /// Removes and returns the earliest completion.
    #[inline]
    fn take_earliest(&mut self) -> SimTime {
        debug_assert!(self.len > 0);
        let mut idx = 0;
        let mut earliest = self.completions[0];
        for (i, &t) in self.completions[1..self.len].iter().enumerate() {
            if t < earliest {
                earliest = t;
                idx = i + 1;
            }
        }
        self.len -= 1;
        self.completions.swap(idx, self.len);
        earliest
    }

    /// Records a fill in flight until `completion`.
    #[inline]
    fn record(&mut self, completion: SimTime) {
        debug_assert!(self.len < self.completions.len());
        self.completions[self.len] = completion;
        self.len += 1;
    }
}

/// One core's private cache frontend: the L1 data cache, the stream
/// prefetcher and the miss-status registers, plus that core's counters.
///
/// The frontend does not own an L2 — every access is given the cluster's
/// [`SharedL2`], so N frontends over one `SharedL2` model an N-core cluster
/// whose lookups contend on the L2's banks.
///
/// ```
/// use relmem_cache::{CoreFrontend, FixedLatencyBackend, SharedL2};
/// use relmem_sim::{PlatformConfig, SimTime};
///
/// let cfg = PlatformConfig::zcu102();
/// let mut l2 = SharedL2::new(&cfg, 2);
/// let mut cores = [CoreFrontend::new(&cfg), CoreFrontend::new(&cfg)];
/// let mut mem = FixedLatencyBackend::new(SimTime::from_nanos(80));
/// // Both cores touch different lines at t=0; each keeps its own counters.
/// cores[0].access(0, 8, SimTime::ZERO, &mut l2, &mut mem);
/// cores[1].access(1 << 20, 8, SimTime::ZERO, &mut l2, &mut mem);
/// assert_eq!(cores[0].stats().l1.requests, 1);
/// assert_eq!(cores[1].stats().l1.requests, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoreFrontend {
    l1: Cache,
    prefetcher: StreamPrefetcher,
    /// Completion times of fills currently in flight. The pool's capacity
    /// is the core's miss-status-holding-register count, which is what
    /// limits how much DRAM bandwidth a single in-order core can extract —
    /// a first-order effect in the paper's comparison against the RME's
    /// sixteen outstanding PL-side transactions.
    inflight: MissSlots,
    l1_hit: SimTime,
    l2_hit: SimTime,
    line_bytes: u64,
    /// The last line made MRU in the L1, or [`NO_LINE`].
    mru_line: u64,
    /// Whether the line-resident fast path is enabled (it always is outside
    /// of equivalence tests).
    fast_path: bool,
    /// This core's index in the cluster — used to attribute its lookups in
    /// the shared L2's per-core breakdown.
    core: usize,
    stats: HierarchyStats,
    /// Observability hook (no-op unless recording; see `relmem_sim::trace`).
    tracer: Tracer,
}

impl CoreFrontend {
    /// Builds one core's frontend described by `cfg` (as core 0; multi-core
    /// owners use [`for_core`](Self::for_core)).
    pub fn new(cfg: &PlatformConfig) -> Self {
        CoreFrontend::for_core(cfg, 0)
    }

    /// Builds the frontend of core number `core` described by `cfg`.
    pub fn for_core(cfg: &PlatformConfig, core: usize) -> Self {
        let cpu = cfg.cpu_clock();
        CoreFrontend {
            l1: Cache::new(cfg.l1),
            prefetcher: StreamPrefetcher::new(
                cfg.line_bytes(),
                cfg.prefetch_streams,
                cfg.prefetch_degree,
            ),
            inflight: MissSlots::new(cfg.cpu.max_outstanding_misses.max(1)),
            l1_hit: cpu.cycles(cfg.l1.hit_latency_cycles),
            l2_hit: cpu.cycles(cfg.l2.hit_latency_cycles),
            line_bytes: cfg.line_bytes() as u64,
            mru_line: NO_LINE,
            fast_path: true,
            core,
            stats: HierarchyStats::default(),
            tracer: Tracer::new(),
        }
    }

    /// This core's index in the cluster.
    pub fn core(&self) -> usize {
        self.core
    }

    /// This core's trace hook (recording is controlled by the system).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// This core's accumulated counters (its own L1/L2 requests, backend
    /// fills, prefetches and the contention delay its lookups suffered).
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Resets this core's counters (keeps cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Enables or disables the line-resident fast path. Timing and
    /// statistics are identical either way (asserted by the cross-path
    /// equivalence tests); disabling exists so tests and benchmarks can
    /// compare against the full walk.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
        if !enabled {
            self.mru_line = NO_LINE;
        }
    }

    /// Flushes the private L1, forgets prefetch streams and in-flight
    /// fills. Does not touch the shared L2 — the owner flushes that once
    /// for the whole cluster.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.prefetcher.reset();
        self.inflight.clear();
        self.mru_line = NO_LINE;
    }

    /// Books a miss-status slot for a fill issued at `ready`: if every slot
    /// is occupied, the issue is delayed until the earliest in-flight fill
    /// returns. Returns the possibly delayed issue time.
    #[inline(always)]
    fn book_miss_slot(&mut self, ready: SimTime, now: SimTime) -> SimTime {
        // Lazy expiry: while a slot is free the already-returned fills
        // still pooled here don't need to be swept — expiry at a later
        // `now` drops a superset of what it would drop today, and
        // `take_earliest` only ever runs behind an up-to-date sweep, so
        // the issue times are identical to sweeping eagerly.
        if self.inflight.has_free_slot() {
            return ready;
        }
        self.inflight.expire(now);
        if self.inflight.has_free_slot() {
            return ready;
        }
        ready.max(self.inflight.take_earliest())
    }

    #[inline]
    fn record_inflight(&mut self, completion: SimTime) {
        self.inflight.record(completion);
    }

    /// Performs a CPU read of `bytes` bytes at `addr`, issued at `now`, and
    /// returns when the data is available. Accesses that straddle a line
    /// boundary touch both lines. Misses walk the given shared L2.
    #[inline]
    pub fn access<B: MemoryBackend>(
        &mut self,
        addr: u64,
        bytes: usize,
        now: SimTime,
        l2: &mut SharedL2,
        backend: &mut B,
    ) -> AccessOutcome {
        let first_line = addr & !(self.line_bytes - 1);
        let last_line = (addr + bytes.max(1) as u64 - 1) & !(self.line_bytes - 1);
        if first_line == last_line {
            return self.access_line(first_line, now, l2, backend);
        }
        let mut completion = now;
        let mut level = HitLevel::L1;
        let mut line = first_line;
        loop {
            let outcome = self.access_line(line, now, l2, backend);
            completion = completion.max(outcome.completion);
            level = level.max(outcome.level);
            if line == last_line {
                break;
            }
            line += self.line_bytes;
        }
        AccessOutcome { completion, level }
    }

    /// Performs `fields` back-to-back CPU reads that all land in the single
    /// cache line starting at `line_addr` (the caller guarantees no field
    /// straddles out of the line), issued at `now`, returning when the last
    /// field's data is available.
    ///
    /// This is the batched form of calling [`access`](Self::access) once
    /// per field: after the first touch the line is by construction the L1
    /// MRU line, so fields `2..=n` are exactly the line-resident fast path
    /// — an L1 request + hit and one L1-hit latency each. The batch replays
    /// that arithmetically (`SimTime` is integer picoseconds, so
    /// `l1_hit * (n-1)` equals the per-field chain bit for bit) instead of
    /// re-entering the hierarchy per field. With the fast path disabled
    /// ([`set_fast_path`](Self::set_fast_path)) the batch degenerates to
    /// the per-field loop, keeping the two configurations comparable the
    /// same way they are for `access`.
    #[inline]
    pub fn access_run<B: MemoryBackend>(
        &mut self,
        line_addr: u64,
        fields: u32,
        now: SimTime,
        l2: &mut SharedL2,
        backend: &mut B,
    ) -> AccessOutcome {
        debug_assert!(fields >= 1);
        debug_assert_eq!(line_addr & (self.line_bytes - 1), 0);
        if !self.fast_path {
            // Reference behavior: the fast path is off, so every field
            // walks the full hierarchy (fields 2..n hit in L1).
            let mut out = self.access_line(line_addr, now, l2, backend);
            for _ in 1..fields {
                out = self.access_line(line_addr, out.completion, l2, backend);
            }
            return out;
        }
        let extra = u64::from(fields) - 1;
        if line_addr == self.mru_line {
            self.stats.l1.requests += extra + 1;
            self.stats.l1.hits += extra + 1;
            return AccessOutcome {
                completion: now + self.l1_hit * (extra + 1),
                level: HitLevel::L1,
            };
        }
        let first = self.access_line(line_addr, now, l2, backend);
        // access_line made the line MRU (fast path is on), so fields 2..n
        // are MRU fast-path hits: replay their counters and latency.
        self.stats.l1.requests += extra;
        self.stats.l1.hits += extra;
        AccessOutcome {
            completion: first.completion + self.l1_hit * extra,
            level: first.level,
        }
    }

    /// Performs a CPU write; with a write-allocate, write-back cache the
    /// timing model is identical to a read, plus the touched L2 lines are
    /// marked dirty so their eventual eviction owes the backend a
    /// writeback. Marking never alters LRU order or timing — with a
    /// backend that ignores [`MemoryBackend::writeback_line`] (the
    /// default) a write remains observationally identical to a read.
    pub fn write<B: MemoryBackend>(
        &mut self,
        addr: u64,
        bytes: usize,
        now: SimTime,
        l2: &mut SharedL2,
        backend: &mut B,
    ) -> AccessOutcome {
        let outcome = self.access(addr, bytes, now, l2, backend);
        let first_line = addr & !(self.line_bytes - 1);
        let last_line = (addr + bytes.max(1) as u64 - 1) & !(self.line_bytes - 1);
        let mut line = first_line;
        loop {
            l2.mark_dirty(line);
            if line == last_line {
                break;
            }
            line += self.line_bytes;
        }
        outcome
    }

    /// Monomorphization dispatcher for [`access_line_impl`]: the hot loop
    /// pays one profiling-enabled check per line here instead of one
    /// atomic load per guard site inside the walk.
    #[inline]
    fn access_line<B: MemoryBackend>(
        &mut self,
        line: u64,
        now: SimTime,
        l2: &mut SharedL2,
        backend: &mut B,
    ) -> AccessOutcome {
        if profile::enabled() {
            self.access_line_impl::<B, true>(line, now, l2, backend)
        } else {
            self.access_line_impl::<B, false>(line, now, l2, backend)
        }
    }

    #[inline]
    fn access_line_impl<B: MemoryBackend, const PROF: bool>(
        &mut self,
        line: u64,
        now: SimTime,
        l2: &mut SharedL2,
        backend: &mut B,
    ) -> AccessOutcome {
        // Fast path: a repeat touch of the line most recently made MRU in
        // the L1. It is guaranteed resident and already rank-0 in its set,
        // so the full walk would change no cache state; count the same L1
        // request + hit and charge the same latency.
        if line == self.mru_line {
            self.stats.l1.requests += 1;
            self.stats.l1.hits += 1;
            return AccessOutcome {
                completion: now + self.l1_hit,
                level: HitLevel::L1,
            };
        }

        // L1 lookup, fused with the (inevitable on a miss) MRU fill into a
        // single set walk. Nothing between the demand lookup and the fill
        // can touch the L1 — prefetches only go to the L2 — so installing
        // the line up front is state-equivalent to the seed's
        // lookup-then-fill ordering.
        self.stats.l1.requests += 1;
        let l1_missed = {
            let _p = PROF.then(|| profile::phase(profile::Phase::L1Walk));
            self.l1.probe_else_fill(line).is_some()
        };
        if !l1_missed {
            self.stats.l1.hits += 1;
            self.note_mru(line);
            return AccessOutcome {
                completion: now + self.l1_hit,
                level: HitLevel::L1,
            };
        }
        self.stats.l1.misses += 1;
        self.note_mru(line);

        // Train the prefetcher on the L1 miss stream and issue its requests.
        let decision = {
            let _p = PROF.then(|| profile::phase(profile::Phase::PrefetchTrain));
            self.prefetcher.train(line)
        };
        for pline in decision.lines() {
            self.issue_prefetch::<B, PROF>(pline, now, l2, backend);
        }

        // L2 lookup, same single-walk fusion (the backend fill between the
        // seed's lookup and fill never reads the L2). The lookup reaches
        // the L2 after the L1 latency and may first wait for its bank
        // (identity when the contention model is off, i.e. one core).
        let _p = PROF.then(|| profile::phase(profile::Phase::L2Walk));
        self.stats.l2.requests += 1;
        let (lookup_start, waited) = l2.book_bank(self.core, line, now + self.l1_hit);
        self.note_l2_wait(waited);
        let l2_lookup_done = lookup_start + self.l2_hit;
        let (slot, filled) = l2.walk(line);
        match filled {
            None => {
                self.stats.l2.hits += 1;
                // The line may still be in flight if it was prefetched
                // recently.
                let arrival = l2.pending_take(slot);
                if !arrival.is_zero() {
                    self.stats.prefetch_hits += 1;
                }
                AccessOutcome {
                    completion: l2_lookup_done.max(arrival),
                    level: HitLevel::L2,
                }
            }
            Some((evicted, evicted_dirty)) => {
                self.stats.l2.misses += 1;
                // Any pending arrival at this slot belonged to the way's
                // previous occupant — clear it with the eviction.
                l2.pending_take(slot);
                if let Some(evicted) = evicted {
                    if evicted_dirty {
                        let _p = PROF.then(|| profile::phase(profile::Phase::BackendFill));
                        backend.writeback_line(evicted, l2_lookup_done);
                        let core = self.core as u32;
                        self.tracer.emit(|| {
                            TraceEvent::instant(
                                Track::Core(core),
                                TraceEventKind::Writeback,
                                l2_lookup_done,
                                evicted,
                                0,
                            )
                        });
                    }
                }
                // Demand fill from the backend, subject to the
                // outstanding-miss cap.
                self.stats.backend_fills += 1;
                let issue = self.book_miss_slot(l2_lookup_done, now);
                let arrival = {
                    let _p = PROF.then(|| profile::phase(profile::Phase::BackendFill));
                    backend.fill_line(line, issue)
                };
                self.record_inflight(arrival);
                // Demand fills only: prefetch fills overlap demand windows
                // freely, so tracing them as sync spans would break the
                // per-track nesting invariant. Their DRAM-side activity is
                // on the bank tracks either way.
                let core = self.core as u32;
                self.tracer.emit(|| {
                    TraceEvent::span(
                        Track::Core(core),
                        TraceEventKind::LineFill,
                        issue,
                        arrival,
                        line,
                        0,
                    )
                });
                AccessOutcome {
                    completion: arrival.max(l2_lookup_done),
                    level: HitLevel::Memory,
                }
            }
        }
    }

    #[inline]
    fn note_mru(&mut self, line: u64) {
        if self.fast_path {
            self.mru_line = line;
        }
    }

    /// Records a bank wait reported by [`SharedL2::book_bank`] in this
    /// core's counters.
    #[inline]
    fn note_l2_wait(&mut self, waited: SimTime) {
        if !waited.is_zero() {
            self.stats.l2_contended_lookups += 1;
            self.stats.l2_contention_delay += waited;
        }
    }

    fn issue_prefetch<B: MemoryBackend, const PROF: bool>(
        &mut self,
        line: u64,
        now: SimTime,
        l2: &mut SharedL2,
        backend: &mut B,
    ) {
        if !backend.prefetchable(line) {
            return;
        }
        let _p = PROF.then(|| profile::phase(profile::Phase::PrefetchIssue));
        // Prefetches that would hit in L2 are dropped (they count as L2
        // lookups, which is what inflates the L2 request counts in Fig. 8).
        // Like demand lookups they occupy the line's bank when the
        // contention model is on.
        self.stats.l2.requests += 1;
        let (lookup_start, waited) = l2.book_bank(self.core, line, now);
        self.note_l2_wait(waited);
        let (slot, filled) = l2.walk(line);
        let (evicted, evicted_dirty) = match filled {
            None => {
                self.stats.l2.hits += 1;
                return;
            }
            Some(evicted) => evicted,
        };
        self.stats.l2.misses += 1;
        // The recycled way's previous pending entry (if any) dies with it.
        l2.pending_take(slot);
        if let Some(evicted) = evicted {
            if evicted_dirty {
                let _p = PROF.then(|| profile::phase(profile::Phase::BackendFill));
                backend.writeback_line(evicted, lookup_start);
                let core = self.core as u32;
                self.tracer.emit(|| {
                    TraceEvent::instant(
                        Track::Core(core),
                        TraceEventKind::Writeback,
                        lookup_start,
                        evicted,
                        0,
                    )
                });
            }
        }
        self.stats.prefetches_issued += 1;
        self.stats.backend_fills += 1;
        let issue = self.book_miss_slot(lookup_start, now);
        let arrival = {
            let _p = PROF.then(|| profile::phase(profile::Phase::BackendFill));
            backend.fill_line(line, issue)
        };
        self.record_inflight(arrival);
        l2.pending_set(slot, arrival);
    }
}

/// The modelled two-level cache hierarchy of one core: a [`CoreFrontend`]
/// packaged with its own (uncontended) [`SharedL2`]. This is the
/// composition every single-core caller uses; its timing is bit-identical
/// to the pre-multi-core hierarchy.
///
/// ```
/// use relmem_cache::{CacheHierarchy, FixedLatencyBackend, HitLevel};
/// use relmem_sim::{PlatformConfig, SimTime};
///
/// let mut h = CacheHierarchy::new(&PlatformConfig::zcu102());
/// let mut mem = FixedLatencyBackend::new(SimTime::from_nanos(100));
/// let cold = h.access(0, 8, SimTime::ZERO, &mut mem);
/// assert_eq!(cold.level, HitLevel::Memory);
/// let warm = h.access(8, 8, cold.completion, &mut mem);
/// assert_eq!(warm.level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    front: CoreFrontend,
    l2: SharedL2,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &PlatformConfig) -> Self {
        CacheHierarchy {
            front: CoreFrontend::new(cfg),
            l2: SharedL2::new(cfg, 1),
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.front.line_bytes()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        self.front.stats()
    }

    /// Resets statistics (keeps cache contents).
    pub fn reset_stats(&mut self) {
        self.front.reset_stats();
        self.l2.reset_stats();
    }

    /// Enables or disables the line-resident fast path (see
    /// [`CoreFrontend::set_fast_path`]).
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.front.set_fast_path(enabled);
    }

    /// Number of pending (in-flight prefetch) fills currently tracked.
    pub fn pending_fills(&self) -> usize {
        self.l2.pending_fills()
    }

    /// Flushes both cache levels, forgets prefetch streams and in-flight
    /// fills. Used to make "cold" measurements.
    pub fn flush(&mut self) {
        self.front.flush();
        self.l2.flush();
    }

    /// Performs a CPU read of `bytes` bytes at `addr`, issued at `now`, and
    /// returns when the data is available. Accesses that straddle a line
    /// boundary touch both lines.
    #[inline]
    pub fn access<B: MemoryBackend>(
        &mut self,
        addr: u64,
        bytes: usize,
        now: SimTime,
        backend: &mut B,
    ) -> AccessOutcome {
        self.front.access(addr, bytes, now, &mut self.l2, backend)
    }

    /// Performs a CPU write; with a write-allocate, write-back cache the
    /// timing model is identical to a read, and the touched L2 lines are
    /// marked dirty (see [`CoreFrontend::write`]).
    pub fn write<B: MemoryBackend>(
        &mut self,
        addr: u64,
        bytes: usize,
        now: SimTime,
        backend: &mut B,
    ) -> AccessOutcome {
        self.front.write(addr, bytes, now, &mut self.l2, backend)
    }
}

/// A trivially simple backend with a fixed fill latency, used by unit tests
/// in this crate and by the CPU cost-model calibration tests in
/// `relmem-core`.
#[derive(Debug, Clone)]
pub struct FixedLatencyBackend {
    /// Latency charged per fill.
    pub latency: SimTime,
    /// Number of fills served.
    pub fills: u64,
    /// Dirty-eviction writebacks notified (never charged any time).
    pub writebacks: u64,
}

impl FixedLatencyBackend {
    /// Creates a backend with the given fill latency.
    pub fn new(latency: SimTime) -> Self {
        FixedLatencyBackend {
            latency,
            fills: 0,
            writebacks: 0,
        }
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn fill_line(&mut self, _line_addr: u64, ready: SimTime) -> SimTime {
        self.fills += 1;
        ready + self.latency
    }

    fn writeback_line(&mut self, _line_addr: u64, _ready: SimTime) {
        self.writebacks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> PlatformConfig {
        PlatformConfig::tiny_for_tests()
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn l1_hit_after_fill_is_cheap() {
        let mut h = CacheHierarchy::new(&cfg());
        let mut mem = FixedLatencyBackend::new(ns(100));
        let first = h.access(0, 8, SimTime::ZERO, &mut mem);
        assert_eq!(first.level, HitLevel::Memory);
        assert!(first.completion >= ns(100));
        let second = h.access(8, 8, first.completion, &mut mem);
        assert_eq!(second.level, HitLevel::L1);
        assert!(second.completion.saturating_sub(first.completion) < ns(5));
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = CacheHierarchy::new(&cfg());
        let mut mem = FixedLatencyBackend::new(ns(100));
        let out = h.access(60, 8, SimTime::ZERO, &mut mem);
        assert_eq!(out.level, HitLevel::Memory);
        // Both lines (0 and 64) are filled; the prefetcher may fill more.
        assert!(mem.fills >= 2);
        assert_eq!(h.stats().l1.requests, 2);
        // Both halves now hit in L1.
        assert_eq!(h.access(60, 8, out.completion, &mut mem).level, HitLevel::L1);
    }

    #[test]
    fn l2_serves_lines_evicted_from_l1() {
        let cfg = cfg(); // 1 KB L1 (16 lines), 8 KB L2 (128 lines)
        let mut h = CacheHierarchy::new(&cfg);
        let mut mem = FixedLatencyBackend::new(ns(100));
        let mut now = SimTime::ZERO;
        // Touch 64 distinct lines: far more than L1 holds, fits in L2.
        // Use a 3-line stride so the accesses are neither sequential (which
        // would engage the prefetcher) nor aliased to a single L2 set.
        for i in 0..64u64 {
            now = h.access(i * 192, 4, now, &mut mem).completion;
        }
        let fills_after_first_pass = mem.fills;
        assert_eq!(fills_after_first_pass, 64);
        // Second pass: L1 cannot hold them all, so we must see L2 hits and
        // no new backend fills.
        let mut saw_l2 = false;
        for i in 0..64u64 {
            let out = h.access(i * 192, 4, now, &mut mem);
            now = out.completion;
            if out.level == HitLevel::L2 {
                saw_l2 = true;
            }
            assert_ne!(out.level, HitLevel::Memory, "line {i} should be cached");
        }
        assert!(saw_l2);
        assert_eq!(mem.fills, fills_after_first_pass);
    }

    #[test]
    fn sequential_scan_benefits_from_prefetching() {
        let cfg = PlatformConfig::zcu102();
        let lines = 512u64;

        // With prefetching.
        let mut h = CacheHierarchy::new(&cfg);
        let mut mem = FixedLatencyBackend::new(ns(100));
        let mut now = SimTime::ZERO;
        for i in 0..lines {
            now = h.access(i * 64, 8, now, &mut mem).completion;
        }
        let with_pf = now;
        assert!(h.stats().prefetches_issued > 0);
        assert!(h.stats().prefetch_hits > 0);

        // Without prefetching.
        let mut cfg_no = cfg.clone();
        cfg_no.prefetch_streams = 0;
        let mut h2 = CacheHierarchy::new(&cfg_no);
        let mut mem2 = FixedLatencyBackend::new(ns(100));
        let mut now2 = SimTime::ZERO;
        for i in 0..lines {
            now2 = h2.access(i * 64, 8, now2, &mut mem2).completion;
        }
        let without_pf = now2;
        assert!(
            with_pf.as_nanos_f64() < 0.6 * without_pf.as_nanos_f64(),
            "prefetching should hide most of the fixed fill latency: {with_pf} vs {without_pf}"
        );
    }

    #[test]
    fn flush_makes_accesses_cold_again() {
        let mut h = CacheHierarchy::new(&cfg());
        let mut mem = FixedLatencyBackend::new(ns(50));
        h.access(0, 8, SimTime::ZERO, &mut mem);
        assert_eq!(h.access(0, 8, ns(1_000), &mut mem).level, HitLevel::L1);
        h.flush();
        assert_eq!(h.access(0, 8, ns(2_000), &mut mem).level, HitLevel::Memory);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut h = CacheHierarchy::new(&cfg());
        let mut mem = FixedLatencyBackend::new(ns(50));
        for i in 0..16u64 {
            h.access(i * 64, 4, SimTime::ZERO, &mut mem);
        }
        let s = h.stats();
        assert_eq!(s.l1.requests, 16);
        assert!(s.l1.misses > 0);
        assert!(s.backend_fills > 0);
        h.reset_stats();
        assert_eq!(h.stats().l1.requests, 0);
    }

    #[test]
    fn repeat_touches_use_the_fast_path_with_identical_outcome() {
        let mut fast = CacheHierarchy::new(&cfg());
        let mut full = CacheHierarchy::new(&cfg());
        full.set_fast_path(false);
        let mut mem_a = FixedLatencyBackend::new(ns(80));
        let mut mem_b = FixedLatencyBackend::new(ns(80));
        let mut now_a = SimTime::ZERO;
        let mut now_b = SimTime::ZERO;
        // Field-by-field row scan: 4 touches per 64-byte line.
        for field in 0..4_000u64 {
            let addr = field * 16;
            let a = fast.access(addr, 8, now_a, &mut mem_a);
            let b = full.access(addr, 8, now_b, &mut mem_b);
            assert_eq!(a, b, "outcome diverged at field {field}");
            now_a = a.completion;
            now_b = b.completion;
        }
        assert_eq!(fast.stats(), full.stats());
        assert_eq!(mem_a.fills, mem_b.fills);
    }

    /// A write is observationally identical to a read in timing, levels
    /// and statistics; only the dirty marks (and hence later writeback
    /// notifications) differ.
    #[test]
    fn writes_time_like_reads_and_mark_dirty() {
        let mut reads = CacheHierarchy::new(&cfg());
        let mut writes = CacheHierarchy::new(&cfg());
        let mut mem_r = FixedLatencyBackend::new(ns(80));
        let mut mem_w = FixedLatencyBackend::new(ns(80));
        let mut now_r = SimTime::ZERO;
        let mut now_w = SimTime::ZERO;
        for i in 0..64u64 {
            let addr = i * 192;
            let a = reads.access(addr, 8, now_r, &mut mem_r);
            let b = writes.write(addr, 8, now_w, &mut mem_w);
            assert_eq!(a, b);
            now_r = a.completion;
            now_w = b.completion;
        }
        assert_eq!(reads.stats(), writes.stats());
        assert_eq!(mem_r.fills, mem_w.fills);
        assert_eq!(mem_r.writebacks, 0, "no evictions yet in either run");
        assert!(writes.l2.cache().is_dirty(0), "written lines are dirty");
        assert!(!reads.l2.cache().is_dirty(0), "read lines stay clean");
    }

    /// Dirty L2 victims notify the backend exactly once, at eviction.
    #[test]
    fn dirty_evictions_notify_the_backend() {
        let cfg = cfg(); // L2: 8 KB, 16-way, 8 sets
        let mut h = CacheHierarchy::new(&cfg);
        let mut mem = FixedLatencyBackend::new(ns(100));
        let mut now = SimTime::ZERO;
        // Dirty one line, then flood its L2 set with 17 distinct clean
        // lines (stride = sets × line so they alias; large stride keeps
        // the prefetcher out of the picture).
        now = h.write(0, 8, now, &mut mem).completion;
        let set_stride = 8 * 64u64;
        for i in 1..=17u64 {
            now = h.access(i * set_stride, 8, now, &mut mem).completion;
            now += ns(1);
        }
        assert_eq!(mem.writebacks, 1, "exactly the dirty victim wrote back");
        // Re-filling and cleanly evicting it again adds nothing.
        now = h.access(0, 8, now, &mut mem).completion;
        for i in 1..=17u64 {
            now = h.access(i * set_stride, 8, now, &mut mem).completion;
            now += ns(1);
        }
        assert_eq!(mem.writebacks, 1, "clean evictions never write back");
    }

    /// Regression test for the stale pending-fill leak: a prefetched line
    /// that is evicted from the L2 and later refilled must not report a
    /// phantom prefetch hit from its old arrival entry.
    #[test]
    fn evicted_prefetch_entries_cannot_go_stale() {
        let cfg = cfg(); // L2: 8 KB, 16-way, 8 sets
        let mut h = CacheHierarchy::new(&cfg);
        let mut mem = FixedLatencyBackend::new(ns(100));
        let mut now = SimTime::ZERO;

        // Establish a sequential stream so lines ahead get prefetched into
        // the L2 with pending arrival entries.
        for i in 0..4u64 {
            now = h.access(i * 64, 8, now, &mut mem).completion;
        }
        assert!(h.pending_fills() > 0, "prefetches should be pending");
        // Pick a prefetched-but-never-demanded line.
        let victim = 6 * 64u64;

        // Evict it from the L2: flood its set (stride = sets * line) with
        // 16+ distinct lines. Large stride ⇒ no new prefetcher streams.
        let set_stride = 8 * 64u64;
        for i in 1..=17u64 {
            now = h.access(victim + i * set_stride, 8, now, &mut mem).completion;
            now += ns(1);
        }

        // The victim's pending entry must have died with its L2 residency.
        // Re-access it: a clean L2/memory path with no phantom prefetch hit.
        let out = h.access(victim, 8, now, &mut mem);
        assert_eq!(out.level, HitLevel::Memory, "victim was evicted from L2");
        // …and a subsequent L1 eviction + L2 hit must not see a stale time.
        let mut now = out.completion;
        let l1_set_stride = 4 * 64u64; // L1: 1 KB, 4-way, 4 sets
        for i in 1..=5u64 {
            now = h.access(victim + i * l1_set_stride, 8, now, &mut mem).completion;
        }
        let before = h.stats().prefetch_hits;
        let again = h.access(victim, 8, now, &mut mem);
        assert_eq!(again.level, HitLevel::L2);
        assert_eq!(
            h.stats().prefetch_hits,
            before,
            "stale pending entry produced a phantom prefetch hit"
        );
        assert_eq!(again.completion, now + h.front.l1_hit + h.front.l2_hit);
    }

    proptest! {
        /// The fast path must be unobservable: arbitrary access sequences
        /// (with heavy same-line repetition) produce identical timing,
        /// levels, statistics and backend traffic with and without it.
        #[test]
        fn fast_path_is_timing_and_stats_identical(
            ops in proptest::collection::vec((0u64..2_000, 1usize..=16, any::<bool>()), 1..800),
        ) {
            let mut fast = CacheHierarchy::new(&cfg());
            let mut full = CacheHierarchy::new(&cfg());
            full.set_fast_path(false);
            let mut mem_a = FixedLatencyBackend::new(ns(90));
            let mut mem_b = FixedLatencyBackend::new(ns(90));
            let mut now_a = SimTime::ZERO;
            let mut now_b = SimTime::ZERO;
            let mut last = 0u64;
            for (addr, bytes, repeat) in ops {
                // Half the ops re-touch the previous address: the scan
                // pattern the fast path exists for.
                let addr = if repeat { last } else { addr };
                last = addr;
                let a = fast.access(addr, bytes, now_a, &mut mem_a);
                let b = full.access(addr, bytes, now_b, &mut mem_b);
                prop_assert_eq!(a, b);
                now_a = a.completion;
                now_b = b.completion;
            }
            prop_assert_eq!(fast.stats(), full.stats());
            prop_assert_eq!(mem_a.fills, mem_b.fills);
        }
    }
}
