//! The composed Relational Memory Engine.
//!
//! [`RmeEngine`] ties the Trapper, Monitor Bypass, Requestor, Fetch Units
//! and Reorganization Buffer together and exposes the two operations the
//! rest of the system needs:
//!
//! * [`RmeEngine::serve_line`] — the timing path: a CPU cache-line request
//!   for an ephemeral address enters through the Trapper, is looked up in
//!   the Reorganization Buffer, possibly triggers a frame fetch, and leaves
//!   as an AXI response. The returned time is when the line reaches the L2.
//! * [`RmeEngine::read_packed`] — the functional path: the actual packed
//!   bytes of the projection, produced by really extracting them from the
//!   row-major image in physical memory.
//!
//! Tables whose packed projection exceeds the Data SPM are processed in
//! *frames*: the SPM holds one frame at a time and moving to the next frame
//! uses the single-cycle epoch reset (Section 5, "RME Scales with Data
//! Size" / Figure 13).

use relmem_dram::{DramModel, PhysicalMemory};
use relmem_sim::{
    CdcConfig, ClockDomain, RmeHwConfig, SimTime, TraceEvent, TraceEventKind, Tracer, Track,
};

use crate::config_port::ConfigPort;
use crate::fetch_unit::FetchUnit;
use crate::geometry::TableGeometry;
use crate::monitor::{Lookup, MonitorBypass};
use crate::requestor::{DispatchedDescriptor, Requestor};
use crate::revision::HwRevision;
use crate::stats::RmeStats;
use crate::trapper::Trapper;

/// The Relational Memory Engine.
#[derive(Debug, Clone)]
pub struct RmeEngine {
    hw: RmeHwConfig,
    pl: ClockDomain,
    bus_bytes: usize,
    revision: HwRevision,
    port: ConfigPort,
    trapper: Trapper,
    requestor: Requestor,
    fetch_units: Vec<FetchUnit>,
    monitor: MonitorBypass,
    programmed: Option<Programmed>,
    line_bytes: usize,
    /// Booking cursor of the activated frame. A frame turnover generates
    /// the whole descriptor stream but books each descriptor's DRAM traffic
    /// lazily, as the demand cursor reaches it, so fetch overlaps compute
    /// line by line: descriptors `[next..]` have been generated — with
    /// their dispatch anchors frozen at activation — but not yet presented
    /// to the fetch units.
    progress: Option<FrameProgress>,
    stats: RmeStats,
    /// Line requests served per CPU core (indexed by core, grown on
    /// demand). The engine is a shared device: requests from all cores
    /// funnel through the one Trapper, whose outstanding-transaction limit
    /// is what arbitrates concurrent CPU-side traffic.
    per_core_requests: Vec<u64>,
    /// Total service time (request ready → line delivered) attributed per
    /// CPU core. Per-stream cost attribution for HTAP workloads: each core
    /// runs one query stream, so this is how long each *stream* spent
    /// waiting on the engine — including any frame turnovers its requests
    /// triggered.
    per_core_service: Vec<SimTime>,
    /// Trace hook for frame activations and fetch windows. A no-op unless
    /// the system enables recording; timing is never affected.
    tracer: Tracer,
}

#[derive(Debug, Clone)]
struct Programmed {
    geometry: TableGeometry,
    /// Visible source rows in order (None ⇒ every row is visible).
    visible_rows: Option<Vec<u64>>,
    /// Rows per frame (how many packed rows fit in the Data SPM).
    rows_per_frame: u64,
}

/// Lazy-booking state of the most recently activated frame. The full
/// descriptor stream exists from activation (the hardware Requestor emits
/// one descriptor per PL cycle regardless of demand); what is deferred is
/// presenting descriptors to the Fetch Units — i.e. booking their DRAM
/// traffic — which happens in stream order as the demand cursor advances,
/// and is completed wholesale on frame turnover or at
/// [`RmeEngine::finish_pending_fetch`], so every activated frame books its
/// whole descriptor stream exactly once whatever the demand.
#[derive(Debug, Clone)]
struct FrameProgress {
    frame: u64,
    descriptors: Vec<DispatchedDescriptor>,
    /// Index of the first descriptor not yet booked.
    next: usize,
    /// Latest buffer-write completion among booked descriptors (the time
    /// the frame's partial tail line is force-completed).
    latest: SimTime,
    packed_row: usize,
    rows_in_frame: usize,
    /// When the frame was activated (the fetch window's trace anchor).
    activated: SimTime,
}

impl Programmed {
    fn visible_count(&self) -> u64 {
        self.visible_rows
            .as_ref()
            .map(|v| v.len() as u64)
            .unwrap_or(self.geometry.row_count)
    }

    fn packed_row_bytes(&self) -> usize {
        self.geometry.packed_row_bytes()
    }

    /// Packed bytes covered by one full frame.
    fn frame_bytes(&self) -> u64 {
        self.rows_per_frame * self.packed_row_bytes() as u64
    }

    /// Total packed bytes of the projection.
    fn packed_total(&self) -> u64 {
        self.visible_count() * self.packed_row_bytes() as u64
    }

    /// The frame an ephemeral byte offset falls into.
    fn frame_of(&self, offset: u64) -> u64 {
        offset / self.frame_bytes()
    }

    /// Source rows (and their packed indices) belonging to a frame.
    fn frame_rows(&self, frame: u64) -> Vec<u64> {
        let start = frame * self.rows_per_frame;
        let end = (start + self.rows_per_frame).min(self.visible_count());
        if start >= end {
            return Vec::new();
        }
        match &self.visible_rows {
            Some(v) => v[start as usize..end as usize].to_vec(),
            None => (start..end).collect(),
        }
    }
}

impl RmeEngine {
    /// Builds an engine.
    ///
    /// * `hw` — structural parameters (SPM sizes, fetch units, limits),
    /// * `cdc` — PS↔PL boundary parameters,
    /// * `revision` — BSL / PCK / MLP,
    /// * `bus_bytes` — main-memory bus width (16 B on the target platform),
    /// * `line_bytes` — CPU cache line size (64 B).
    pub fn new(
        hw: RmeHwConfig,
        cdc: CdcConfig,
        revision: HwRevision,
        bus_bytes: usize,
        line_bytes: usize,
    ) -> Self {
        let pl = cdc.pl_clock();
        let fetch_units = (0..hw.fetch_units.max(1))
            .map(|_| FetchUnit::new(hw, revision, pl, bus_bytes, cdc.pl_dram_read_latency))
            .collect();
        RmeEngine {
            monitor: MonitorBypass::new(hw.data_spm_bytes, line_bytes),
            requestor: Requestor::new(bus_bytes, pl.cycles(hw.descriptor_cycles)),
            trapper: Trapper::new(cdc),
            fetch_units,
            port: ConfigPort::new(),
            pl,
            bus_bytes,
            revision,
            hw,
            programmed: None,
            line_bytes,
            progress: None,
            stats: RmeStats::default(),
            per_core_requests: Vec::new(),
            per_core_service: Vec::new(),
            tracer: Tracer::new(),
        }
    }

    /// The engine's trace hook (recording is controlled by the system;
    /// the hook is a no-op by default).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The hardware revision this engine models.
    pub fn revision(&self) -> HwRevision {
        self.revision
    }

    /// The structural configuration.
    pub fn hw_config(&self) -> &RmeHwConfig {
        &self.hw
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RmeStats {
        let mut s = self.stats;
        s.descriptors = self.requestor.generated();
        s.epoch_resets = self.monitor.buffer().resets();
        s
    }

    /// The configuration port (for register-level programming and tests).
    pub fn config_port_mut(&mut self) -> &mut ConfigPort {
        &mut self.port
    }

    /// Programs the engine for a projection described by `geometry`,
    /// optionally restricted to `visible_rows` (MVCC snapshot filtering).
    /// This is what `register_var(...)` — registering an ephemeral variable —
    /// does under the hood: a handful of configuration-port writes followed
    /// by a software reset.
    pub fn configure(
        &mut self,
        geometry: TableGeometry,
        visible_rows: Option<Vec<u64>>,
    ) -> Result<(), relmem_storage::StorageError> {
        geometry.validate(self.hw.max_columns, self.hw.max_column_width)?;
        self.port.program(&geometry);
        self.port.write(crate::config_port::regs::SW_RESET, 1);
        self.port.take_reset();
        let packed_row = geometry.packed_row_bytes().max(1);
        // Frames must end on a cache-line boundary of the packed projection,
        // otherwise a single line would straddle two frames. Round the rows
        // per frame down to a multiple of the smallest row count whose
        // packed size is line-aligned.
        let step = (self.line_bytes / gcd(packed_row, self.line_bytes)).max(1);
        let raw = (self.hw.data_spm_bytes / packed_row).max(1);
        let rows_per_frame = ((raw / step) * step).max(step) as u64;
        self.monitor.software_reset();
        self.progress = None;
        self.programmed = Some(Programmed {
            geometry,
            visible_rows,
            rows_per_frame,
        });
        Ok(())
    }

    /// The currently programmed geometry.
    pub fn geometry(&self) -> Option<&TableGeometry> {
        self.programmed.as_ref().map(|p| &p.geometry)
    }

    /// Total bytes of the packed projection currently programmed.
    pub fn packed_total_bytes(&self) -> u64 {
        self.programmed
            .as_ref()
            .map(|p| p.packed_total())
            .unwrap_or(0)
    }

    /// Whether `addr` falls inside the programmed ephemeral range.
    pub fn owns_address(&self, addr: u64) -> bool {
        match &self.programmed {
            Some(p) => {
                addr >= p.geometry.ephemeral_base
                    && addr < p.geometry.ephemeral_base + p.packed_total().max(1)
            }
            None => false,
        }
    }

    /// Whether a line can be served without disturbing the resident frame —
    /// used to filter CPU-side prefetches that run past a frame boundary.
    pub fn line_is_prefetchable(&self, addr: u64) -> bool {
        let Some(p) = &self.programmed else {
            return false;
        };
        if !self.owns_address(addr) {
            return false;
        }
        let offset = addr - p.geometry.ephemeral_base;
        self.monitor.resident_frame() == Some(p.frame_of(offset))
    }

    /// Serves a CPU cache-line request for ephemeral address `addr`, issued
    /// at `ready`. Returns the time the line's data arrives at the CPU side.
    ///
    /// # Panics
    /// Panics if the engine has not been configured or the address is
    /// outside the programmed ephemeral range.
    pub fn serve_line(
        &mut self,
        addr: u64,
        ready: SimTime,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) -> SimTime {
        self.serve_line_from(0, addr, ready, mem, dram)
    }

    /// [`serve_line`](Self::serve_line) with the requesting CPU core made
    /// explicit, so multi-core callers can attribute engine traffic. The
    /// engine itself is core-agnostic: all cores share one Trapper (whose
    /// `max_outstanding` limit arbitrates concurrent requests), one
    /// Reorganization Buffer and one resident frame, so cores scanning
    /// different frames of the same variable will contend for the buffer.
    pub fn serve_line_from(
        &mut self,
        core: usize,
        addr: u64,
        ready: SimTime,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) -> SimTime {
        if self.per_core_requests.len() <= core {
            self.per_core_requests.resize(core + 1, 0);
            self.per_core_service.resize(core + 1, SimTime::ZERO);
        }
        self.per_core_requests[core] += 1;
        assert!(
            self.owns_address(addr),
            "address 0x{addr:x} is not part of the programmed ephemeral range"
        );
        let (frame, line_in_frame) = {
            let p = self.programmed.as_ref().expect("engine configured");
            let offset = addr - p.geometry.ephemeral_base;
            (p.frame_of(offset), ((offset % p.frame_bytes()) / self.line_bytes as u64) as usize)
        };

        let (axi, at_pl) = self.trapper.accept(addr, ready);

        // Bring the booking cursor up to the demanded line of the resident
        // frame *before* the lookup classifies it: a line of the resident
        // frame is a hit whose data may still be in flight, never a miss,
        // so hit/miss accounting does not depend on how far ahead of the
        // demand the cursor happens to be.
        if self.monitor.resident_frame() == Some(frame) {
            self.book_pending(Some(line_in_frame), mem, dram);
        }

        let data_ready_pl = match self.monitor.lookup(frame, line_in_frame) {
            Lookup::Hit(completed_at) => {
                self.stats.buffer_hits += 1;
                completed_at.max(at_pl) + self.pl.cycles(self.hw.spm_access_cycles)
            }
            Lookup::Miss => {
                self.stats.buffer_misses += 1;
                // Frame turnover (or an empty-tail miss, where all of this
                // is a no-op): settle the outgoing frame's unbooked
                // descriptors before the epoch reset discards them, then
                // activate the new frame and book up to the demand.
                self.finish_pending_fetch(mem, dram);
                if self.monitor.frame_miss(frame) {
                    self.activate_frame(frame, at_pl, mem, dram);
                }
                self.book_pending(Some(line_in_frame), mem, dram);
                let completed_at = match self.monitor.lookup(frame, line_in_frame) {
                    Lookup::Hit(t) => t,
                    Lookup::Miss => at_pl, // an empty frame tail; nothing to wait for
                };
                self.monitor.buffer_mut().stall(line_in_frame, axi.id);
                self.monitor.buffer_mut().take_stalled(line_in_frame);
                completed_at.max(at_pl) + self.pl.cycles(self.hw.spm_access_cycles)
            }
        };

        let finish = self
            .trapper
            .respond(axi.id, data_ready_pl, self.line_bytes)
            .data_ready;
        self.per_core_service[core] += finish.saturating_sub(ready);
        finish
    }

    /// Reads `len` packed bytes at ephemeral-range offset `addr`. Falls back
    /// to packing straight from physical memory when the containing frame is
    /// not resident (e.g. the caches still hold lines of an already evicted
    /// frame).
    pub fn read_packed(&self, addr: u64, len: usize, mem: &PhysicalMemory) -> Vec<u8> {
        let p = self.programmed.as_ref().expect("engine configured");
        let offset = addr - p.geometry.ephemeral_base;
        let frame = p.frame_of(offset);
        if self.monitor.resident_frame() == Some(frame) {
            let in_frame = (offset - frame * p.frame_bytes()) as usize;
            if in_frame + len <= self.monitor.buffer().capacity_bytes()
                && self.lines_complete(frame, in_frame, len)
            {
                return self.monitor.buffer().read_bytes(in_frame, len).to_vec();
            }
        }
        self.pack_from_memory(offset, len, mem)
    }

    /// Whether every buffer line covering `len` bytes at frame-local offset
    /// `in_frame` has completed. A line the booking cursor has not reached
    /// yet is still incomplete, and functional reads must fall back to
    /// packing from memory rather than return its half-written bytes.
    fn lines_complete(&self, frame: u64, in_frame: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let first = in_frame / self.line_bytes;
        let last = (in_frame + len - 1) / self.line_bytes;
        (first..=last).all(|line| matches!(self.monitor.lookup(frame, line), Lookup::Hit(_)))
    }

    /// Reads up to 8 packed bytes at ephemeral address `addr` as a
    /// little-endian unsigned integer, without allocating. This is the hot
    /// functional read used by the query engine's scan loops.
    pub fn read_packed_u64(&self, addr: u64, width: usize, mem: &PhysicalMemory) -> u64 {
        let width = width.min(8);
        let p = self.programmed.as_ref().expect("engine configured");
        let offset = addr - p.geometry.ephemeral_base;
        let frame = p.frame_of(offset);
        let mut buf = [0u8; 8];
        if self.monitor.resident_frame() == Some(frame) {
            let in_frame = (offset - frame * p.frame_bytes()) as usize;
            if in_frame + width <= self.monitor.buffer().capacity_bytes()
                && self.lines_complete(frame, in_frame, width)
            {
                buf[..width].copy_from_slice(self.monitor.buffer().read_bytes(in_frame, width));
                return u64::from_le_bytes(buf);
            }
        }
        let bytes = self.pack_from_memory(offset, width, mem);
        buf[..width].copy_from_slice(&bytes);
        u64::from_le_bytes(buf)
    }

    /// Pre-packs `frame` into the Reorganization Buffer with zero timing
    /// cost — the "RME Hot" starting state of the paper's experiments.
    pub fn prewarm_frame(&mut self, frame: u64, mem: &PhysicalMemory) {
        let Some(p) = self.programmed.as_ref() else {
            return;
        };
        let rows = p.frame_rows(frame);
        let geometry = p.geometry.clone();
        let packed_row = geometry.packed_row_bytes();
        self.progress = None; // prewarm materializes everything at once
        self.monitor.frame_miss(frame);
        for (packed_idx, &row) in rows.iter().enumerate() {
            for j in 0..geometry.num_columns() {
                let src = geometry.p(row, j);
                let width = geometry.column_width(j);
                let waddr = packed_idx * packed_row + geometry.packed_column_offset(j);
                let bytes = mem.read(src, width).to_vec();
                self.monitor
                    .buffer_mut()
                    .write_chunk(waddr, &bytes, SimTime::ZERO);
            }
        }
        self.finish_partial_tail(rows.len(), packed_row, SimTime::ZERO);
    }

    /// Clears all timing state (resource occupancy, counters) while keeping
    /// the configuration and any resident frame data.
    pub fn reset_timing(&mut self) {
        self.trapper.reset();
        for fu in &mut self.fetch_units {
            fu.reset();
        }
        self.stats = RmeStats::default();
        self.per_core_requests.clear();
        self.per_core_service.clear();
    }

    /// Line requests served per CPU core since the last timing reset
    /// (indexed by core; empty if no requests were served).
    pub fn per_core_requests(&self) -> &[u64] {
        &self.per_core_requests
    }

    /// Total engine service time (request ready → line delivered)
    /// attributed per CPU core since the last timing reset. With one query
    /// stream per core this is per-*stream* attribution of engine cost.
    pub fn per_core_service_time(&self) -> &[SimTime] {
        &self.per_core_service
    }

    /// The frame currently resident in the Reorganization Buffer, if any.
    /// Multi-core schedulers use this to keep cores working inside the
    /// resident frame instead of forcing a frame turnover on every access.
    pub fn resident_frame(&self) -> Option<u64> {
        self.monitor.resident_frame()
    }

    /// Full software reset: timing state *and* buffer residency.
    pub fn software_reset(&mut self) {
        self.reset_timing();
        self.monitor.software_reset();
        self.progress = None;
    }

    /// MVCC visibility filtering must inspect the version header of every
    /// source row in the frame's span, including the rows it ends up
    /// skipping. Charged eagerly at frame activation: header inspection is
    /// what *determines* the frame's rows, so it is not demand-elidable.
    fn charge_mvcc_headers(
        &mut self,
        geometry: &TableGeometry,
        rows: &[u64],
        start_pl: SimTime,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) {
        if !geometry.needs_visibility_filter() {
            return;
        }
        if let (Some(&first), Some(&last)) = (rows.first(), rows.last()) {
            let span = last - first + 1;
            self.stats.rows_filtered += span - rows.len() as u64;
            for (k, row) in (first..=last).enumerate() {
                let header = crate::descriptor::Descriptor {
                    row,
                    column: 0,
                    raddr: geometry.source_base + row * geometry.row_bytes as u64,
                    rburst: geometry.mvcc_header_bytes.div_ceil(self.bus_bytes),
                    waddr: 0,
                    es: 0,
                    len: 0,
                };
                let unit = k % self.fetch_units.len();
                let chunk = self.fetch_units[unit].process(&header, start_pl, mem, dram);
                self.stats.dram_beats += chunk.beats as u64;
            }
        }
    }

    /// Presents one descriptor to a fetch unit and lands its data in the
    /// Reorganization Buffer. Returns the buffer-write completion time.
    fn book_descriptor(
        &mut self,
        d: &DispatchedDescriptor,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) -> SimTime {
        // Round-robin would ignore load imbalance from variable bursts;
        // picking the unit whose reader frees first mirrors the
        // "any idle Fetch Unit" dispatch of the paper.
        let unit = self
            .fetch_units
            .iter()
            .enumerate()
            .min_by_key(|(_, fu)| fu.earliest_slot())
            .map(|(i, _)| i)
            .expect("at least one fetch unit");
        let chunk = self.fetch_units[unit].process(&d.descriptor, d.dispatch_at, mem, dram);
        self.stats.dram_beats += chunk.beats as u64;
        self.stats.useful_bytes += chunk.data.len() as u64;
        self.monitor.buffer_mut().write_chunk(
            d.descriptor.waddr as usize,
            &chunk.data,
            chunk.written_at,
        );
        chunk.written_at
    }

    /// Activates `frame` for fetching: charges the eager MVCC header
    /// traffic, generates the full descriptor stream with dispatch anchors
    /// frozen at `start_pl`, and books *nothing* — booking follows the
    /// demand cursor through [`book_pending`](Self::book_pending).
    fn activate_frame(
        &mut self,
        frame: u64,
        start_pl: SimTime,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) {
        let p = self.programmed.as_ref().expect("engine configured");
        let rows = p.frame_rows(frame);
        let geometry = p.geometry.clone();
        let packed_row = geometry.packed_row_bytes();
        self.stats.frames_fetched += 1;
        self.charge_mvcc_headers(&geometry, &rows, start_pl, mem, dram);
        let descriptors = self.requestor.generate_frame(&geometry, &rows, start_pl);
        self.tracer.emit(|| {
            TraceEvent::instant(Track::Rme, TraceEventKind::FrameActivate, start_pl, frame, 0)
        });
        self.progress = Some(FrameProgress {
            frame,
            descriptors,
            next: 0,
            latest: start_pl,
            packed_row,
            rows_in_frame: rows.len(),
            activated: start_pl,
        });
    }

    /// Books descriptors of the activated frame, in stream order at their
    /// frozen anchors, until line `until` of it completes — or all of them
    /// when `until` is `None` (the frame is being evicted, or the run is
    /// ending), so the frame's total DRAM traffic does not depend on how
    /// much of it was demanded. Prefix-monotone: any demand order books the
    /// descriptors in the same stream order, so while the engine is the
    /// only DRAM requestor each one's timing does not depend on when the
    /// demand reached it. Exhausting the stream
    /// force-completes the partial tail line and drops the progress state,
    /// closing the frame's fetch window in the trace.
    fn book_pending(&mut self, until: Option<usize>, mem: &PhysicalMemory, dram: &mut DramModel) {
        let Some(mut progress) = self.progress.take() else {
            return;
        };
        debug_assert_eq!(
            Some(progress.frame),
            self.monitor.resident_frame(),
            "booking progress belongs to the resident frame"
        );
        while progress.next < progress.descriptors.len()
            && until.is_none_or(|line| {
                matches!(self.monitor.lookup(progress.frame, line), Lookup::Miss)
            })
        {
            let written = self.book_descriptor(&progress.descriptors[progress.next], mem, dram);
            progress.latest = progress.latest.max(written);
            progress.next += 1;
        }
        if progress.next < progress.descriptors.len() {
            self.progress = Some(progress);
            return;
        }
        self.finish_partial_tail(progress.rows_in_frame, progress.packed_row, progress.latest);
        self.emit_frame_fetch(&progress);
    }

    /// Emits the fetch window of a fully booked frame: activation → latest
    /// buffer-write completion.
    fn emit_frame_fetch(&mut self, progress: &FrameProgress) {
        let lines = (progress.rows_in_frame * progress.packed_row).div_ceil(self.line_bytes) as u64;
        let (frame, activated, latest) = (progress.frame, progress.activated, progress.latest);
        self.tracer.emit(|| {
            TraceEvent::span(Track::Rme, TraceEventKind::FrameFetch, activated, latest, frame, lines)
        });
    }

    /// Settles any frame fetch still in flight by booking every remaining
    /// descriptor, so a run's DRAM traffic totals include the whole frame
    /// even when the run ends mid-frame. Call at the end of a measured run
    /// (and before any timing reset); a no-op when the resident frame is
    /// fully booked.
    pub fn finish_pending_fetch(&mut self, mem: &PhysicalMemory, dram: &mut DramModel) {
        self.book_pending(None, mem, dram);
    }

    /// Marks the trailing, partially filled cache line of a frame complete
    /// (it has no more data coming, so a request for it must not stall
    /// forever).
    fn finish_partial_tail(&mut self, rows_in_frame: usize, packed_row: usize, when: SimTime) {
        let frame_packed = rows_in_frame * packed_row;
        if frame_packed == 0 {
            return;
        }
        if !frame_packed.is_multiple_of(self.line_bytes) {
            let tail_line = frame_packed / self.line_bytes;
            self.monitor.buffer_mut().force_complete(tail_line, when);
        }
    }

    /// Largest frame the Reorganization Buffer can currently hold, in
    /// packed rows.
    pub fn rows_per_frame(&self) -> Option<u64> {
        self.programmed.as_ref().map(|p| p.rows_per_frame)
    }

    fn pack_from_memory(&self, offset: u64, len: usize, mem: &PhysicalMemory) -> Vec<u8> {
        let p = self.programmed.as_ref().expect("engine configured");
        let geometry = &p.geometry;
        let packed_row = geometry.packed_row_bytes() as u64;
        let mut out = Vec::with_capacity(len);
        let mut cursor = offset;
        let end = offset + len as u64;
        while cursor < end {
            let packed_idx = cursor / packed_row;
            if packed_idx >= p.visible_count() {
                out.push(0);
                cursor += 1;
                continue;
            }
            let source_row = match &p.visible_rows {
                Some(v) => v[packed_idx as usize],
                None => packed_idx,
            };
            let within = (cursor % packed_row) as usize;
            // Find which column of interest the byte belongs to.
            let mut acc = 0usize;
            let mut byte = 0u8;
            for j in 0..geometry.num_columns() {
                let w = geometry.column_width(j);
                if within < acc + w {
                    let src = geometry.p(source_row, j) + (within - acc) as u64;
                    byte = mem.read(src, 1)[0];
                    break;
                }
                acc += w;
            }
            out.push(byte);
            cursor += 1;
        }
        out
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmem_sim::PlatformConfig;
    use relmem_storage::{ColumnGroup, DataGen, MvccConfig, RowTable, Schema, Snapshot};

    struct Fixture {
        mem: PhysicalMemory,
        dram: DramModel,
        table: RowTable,
        engine: RmeEngine,
        ephemeral_base: u64,
    }

    fn fixture(rows: u64, revision: HwRevision, mvcc: MvccConfig) -> Fixture {
        let cfg = PlatformConfig::zcu102();
        let mut mem = PhysicalMemory::new(32 << 20);
        let schema = Schema::benchmark(8, 4, 64);
        let mut table = RowTable::create(&mut mem, schema, rows, mvcc).unwrap();
        DataGen::new(11).fill_table(&mut mem, &mut table, rows).unwrap();
        let dram = DramModel::new(cfg.dram);
        let engine = RmeEngine::new(cfg.rme, cfg.cdc, revision, cfg.dram.bus_bytes, 64);
        let ephemeral_base = 16 << 20;
        Fixture {
            mem,
            dram,
            table,
            engine,
            ephemeral_base,
        }
    }

    fn configure(f: &mut Fixture, cols: Vec<usize>, snapshot: Option<Snapshot>) {
        let group = ColumnGroup::new(cols).unwrap();
        let visible = snapshot.map(|snap| {
            (0..f.table.num_rows())
                .filter(|&r| f.table.visible(&f.mem, r, snap).unwrap())
                .collect::<Vec<_>>()
        });
        let geometry = TableGeometry::from_schema(
            f.table.schema(),
            &group,
            f.table.base_addr(),
            f.ephemeral_base,
            f.table.num_rows(),
            f.table.mvcc(),
            snapshot,
        )
        .unwrap();
        f.engine.configure(geometry, visible).unwrap();
    }

    /// Reference projection computed in software, for comparison.
    fn reference_packed(f: &Fixture, cols: &[usize], snapshot: Option<Snapshot>) -> Vec<u8> {
        let group = ColumnGroup::new(cols.to_vec()).unwrap();
        let mut out = Vec::new();
        for row in 0..f.table.num_rows() {
            if let Some(snap) = snapshot {
                if !f.table.visible(&f.mem, row, snap).unwrap() {
                    continue;
                }
            }
            let row_bytes = f
                .mem
                .read(f.table.row_data_addr(row), f.table.schema().row_bytes())
                .to_vec();
            out.extend(group.pack_row(f.table.schema(), &row_bytes).unwrap());
        }
        out
    }

    #[test]
    fn packed_data_matches_software_projection() {
        let mut f = fixture(300, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![1, 3, 6], None);
        // Drive the timing path so the frame gets fetched, then read back.
        let total = f.engine.packed_total_bytes();
        let mut now = SimTime::ZERO;
        let mut line = 0;
        while line < total {
            now = f
                .engine
                .serve_line(f.ephemeral_base + line, now, &f.mem, &mut f.dram);
            line += 64;
        }
        let packed = f.engine.read_packed(f.ephemeral_base, total as usize, &f.mem);
        assert_eq!(packed, reference_packed(&f, &[1, 3, 6], None));
        let stats = f.engine.stats();
        assert_eq!(stats.frames_fetched, 1);
        assert!(stats.useful_bytes >= total);
        assert!(stats.buffer_hits + stats.buffer_misses >= total / 64);
    }

    #[test]
    fn hot_requests_are_served_faster_than_cold() {
        let mut f = fixture(2_000, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![0], None);
        let total = f.engine.packed_total_bytes();

        // Cold pass.
        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        while addr < f.ephemeral_base + total {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            addr += 64;
        }
        let cold = now;

        // Hot pass: prewarmed buffer, fresh timing state.
        let mut f2 = fixture(2_000, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f2, vec![0], None);
        f2.engine.prewarm_frame(0, &f2.mem);
        f2.engine.reset_timing();
        let mut now = SimTime::ZERO;
        let mut addr = f2.ephemeral_base;
        while addr < f2.ephemeral_base + total {
            now = f2.engine.serve_line(addr, now, &f2.mem, &mut f2.dram);
            addr += 64;
        }
        let hot = now;
        assert!(hot < cold, "hot ({hot}) must be faster than cold ({cold})");
        assert_eq!(f2.engine.stats().buffer_misses, 0);
    }

    #[test]
    fn mlp_fetches_a_frame_faster_than_bsl() {
        let run = |rev: HwRevision| {
            let mut f = fixture(4_000, rev, MvccConfig::Disabled);
            configure(&mut f, vec![0], None);
            let total = f.engine.packed_total_bytes();
            let mut now = SimTime::ZERO;
            let mut addr = f.ephemeral_base;
            while addr < f.ephemeral_base + total {
                now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
                addr += 64;
            }
            now
        };
        let bsl = run(HwRevision::Bsl);
        let pck = run(HwRevision::Pck);
        let mlp = run(HwRevision::Mlp);
        assert!(pck < bsl);
        assert!(mlp.as_nanos_f64() < 0.3 * bsl.as_nanos_f64(), "mlp {mlp} vs bsl {bsl}");
    }

    #[test]
    fn multi_frame_tables_reset_the_epoch_between_frames() {
        let mut f = fixture(3_000, HwRevision::Mlp, MvccConfig::Disabled);
        // Shrink the SPM so a frame holds only 1024 packed rows (4 KiB).
        let mut hw = *f.engine.hw_config();
        hw.data_spm_bytes = 4 * 1024;
        let cfg = PlatformConfig::zcu102();
        f.engine = RmeEngine::new(hw, cfg.cdc, HwRevision::Mlp, cfg.dram.bus_bytes, 64);
        configure(&mut f, vec![0], None);

        let total = f.engine.packed_total_bytes();
        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        let mut packed = Vec::new();
        while addr < f.ephemeral_base + total {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            let len = 64.min((f.ephemeral_base + total - addr) as usize);
            packed.extend(f.engine.read_packed(addr, len, &f.mem));
            addr += 64;
        }
        assert_eq!(packed, reference_packed(&f, &[0], None));
        let stats = f.engine.stats();
        assert_eq!(stats.frames_fetched, 3); // 3000 rows / 1024 rows per frame
        // Two frame turnovers, plus the reset performed at configuration.
        assert_eq!(stats.epoch_resets, 3);
    }

    #[test]
    fn mvcc_snapshot_filters_rows_during_packing() {
        let mut f = fixture(200, HwRevision::Mlp, MvccConfig::Enabled);
        // Delete every third row at ts 5; snapshot at ts 10 must skip them.
        for row in (0..200).step_by(3) {
            f.table.mark_deleted(&mut f.mem, row, 5).unwrap();
        }
        let snapshot = Some(Snapshot::at(10));
        configure(&mut f, vec![1, 2], snapshot);
        let total = f.engine.packed_total_bytes();
        assert_eq!(total, (200 - 67) * 8); // 67 rows deleted, 2×4-byte columns

        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        while addr < f.ephemeral_base + total {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            addr += 64;
        }
        let packed = f.engine.read_packed(f.ephemeral_base, total as usize, &f.mem);
        assert_eq!(packed, reference_packed(&f, &[1, 2], snapshot));
        assert!(f.engine.stats().rows_filtered > 0);

        // An earlier snapshot (before the deletes) sees every row.
        let old_snapshot = Some(Snapshot::at(4));
        configure(&mut f, vec![1, 2], old_snapshot);
        assert_eq!(f.engine.packed_total_bytes(), 200 * 8);
    }

    #[test]
    fn prefetchability_is_limited_to_the_resident_frame() {
        let mut f = fixture(100, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![0], None);
        assert!(!f.engine.line_is_prefetchable(f.ephemeral_base));
        let _ = f
            .engine
            .serve_line(f.ephemeral_base, SimTime::ZERO, &f.mem, &mut f.dram);
        assert!(f.engine.line_is_prefetchable(f.ephemeral_base + 64));
        assert!(!f.engine.line_is_prefetchable(0xDEAD_0000));
    }

    #[test]
    fn configuration_rejects_geometry_beyond_engine_limits() {
        let mut f = fixture(10, HwRevision::Mlp, MvccConfig::Disabled);
        let schema = Schema::benchmark(12, 4, 64);
        let group = ColumnGroup::all(&schema);
        let geometry = TableGeometry::from_schema(
            &schema,
            &group,
            f.table.base_addr(),
            f.ephemeral_base,
            10,
            MvccConfig::Disabled,
            None,
        )
        .unwrap();
        // 13 columns (12 data + filler) exceed the 11-column limit.
        assert!(f.engine.configure(geometry, None).is_err());
    }

    /// What a scan observed, next to the software projection it must match.
    struct ScanOutcome {
        /// Packed bytes read back line by line during the scan.
        packed: Vec<u8>,
        /// The whole packed projection read back after the fetch settled.
        settled: Vec<u8>,
        reference: Vec<u8>,
        /// DRAM accesses booked before the in-flight fetch was settled.
        booked_early: u64,
        stats: RmeStats,
        dram: relmem_dram::DramStats,
    }

    /// Scans the first `1/fraction` of the packed projection of columns 0
    /// and 2 line by line (with per-line functional reads), then settles
    /// the fetch still in flight.
    fn scan(rows: u64, spm_bytes: Option<usize>, mvcc: MvccConfig, fraction: u64) -> ScanOutcome {
        let mut f = fixture(rows, HwRevision::Mlp, mvcc);
        if let Some(spm) = spm_bytes {
            let mut hw = *f.engine.hw_config();
            hw.data_spm_bytes = spm;
            let cfg = PlatformConfig::zcu102();
            f.engine = RmeEngine::new(hw, cfg.cdc, HwRevision::Mlp, cfg.dram.bus_bytes, 64);
        }
        let snapshot = match mvcc {
            MvccConfig::Enabled => Some(Snapshot::at(10)),
            MvccConfig::Disabled => None,
        };
        configure(&mut f, vec![0, 2], snapshot);
        let total = f.engine.packed_total_bytes();
        let end = f.ephemeral_base + total / fraction;
        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        let mut packed = Vec::new();
        while addr < end {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            let len = 64.min((f.ephemeral_base + total - addr) as usize);
            packed.extend(f.engine.read_packed(addr, len, &f.mem));
            addr += 64;
        }
        let booked_early = f.dram.stats().accesses;
        f.engine.finish_pending_fetch(&f.mem, &mut f.dram);
        ScanOutcome {
            packed,
            settled: f
                .engine
                .read_packed(f.ephemeral_base, total as usize, &f.mem),
            reference: reference_packed(&f, &[0, 2], snapshot),
            booked_early,
            stats: f.engine.stats(),
            dram: f.dram.stats().clone(),
        }
    }

    /// A multi-frame scan reads back exactly the software projection, one
    /// fetched frame per Reorganization Buffer load.
    #[test]
    fn multi_frame_scan_packs_the_software_projection() {
        let out = scan(3_000, Some(4 * 1024), MvccConfig::Disabled, 1);
        assert_eq!(out.packed, out.reference, "per-line reads must match");
        assert_eq!(out.settled, out.reference);
        // 8-byte packed rows: 512 per 4 KiB frame, so 3000 rows take 6.
        assert_eq!(out.stats.frames_fetched, 6);
    }

    /// Same with MVCC filtering active: header-inspection traffic is
    /// charged eagerly at activation and the packed rows stay correct.
    #[test]
    fn mvcc_scan_packs_the_visible_projection() {
        let out = scan(3_000, None, MvccConfig::Enabled, 1);
        assert_eq!(out.packed, out.reference);
        assert_eq!(out.settled, out.reference);
        assert_eq!(out.stats.frames_fetched, 1);
    }

    /// A scan abandoned mid-frame books less traffic up front, but
    /// `finish_pending_fetch` settles the remainder so the frame's traffic
    /// equals that of a full scan — the invariant whole-system runs rely
    /// on at measurement end.
    #[test]
    fn abandoned_fetch_settles_to_the_full_scan_traffic() {
        let full = scan(2_000, None, MvccConfig::Disabled, 1);
        let cut = scan(2_000, None, MvccConfig::Disabled, 4);
        assert!(
            cut.booked_early < full.booked_early,
            "an abandoned fetch must defer traffic ({} vs {})",
            cut.booked_early,
            full.booked_early
        );
        assert_eq!(cut.dram, full.dram, "settled DRAM stats must match");
        let fetch_totals = |s: RmeStats| {
            (
                s.frames_fetched,
                s.descriptors,
                s.dram_beats,
                s.useful_bytes,
            )
        };
        assert_eq!(fetch_totals(cut.stats), fetch_totals(full.stats));
        assert_eq!(cut.settled, full.reference);
    }

    /// Functional reads never observe a half-fetched line: bytes the demand
    /// cursor has not reached come from the memory-packing fallback and are
    /// still correct.
    #[test]
    fn reads_ahead_of_the_booking_cursor_stay_correct() {
        let mut f = fixture(500, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![1, 3], None);
        let total = f.engine.packed_total_bytes();
        // Demand exactly one line, leaving the rest of the frame unbooked.
        let _ = f
            .engine
            .serve_line(f.ephemeral_base, SimTime::ZERO, &f.mem, &mut f.dram);
        let packed = f.engine.read_packed(f.ephemeral_base, total as usize, &f.mem);
        assert_eq!(packed, reference_packed(&f, &[1, 3], None));
    }

    #[test]
    #[should_panic(expected = "not part of the programmed ephemeral range")]
    fn serving_an_unowned_address_panics() {
        let mut f = fixture(10, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![0], None);
        let _ = f.engine.serve_line(0x10, SimTime::ZERO, &f.mem, &mut f.dram);
    }
}
