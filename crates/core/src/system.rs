//! The simulated platform, wired together.
//!
//! [`System`] owns the physical memory, the DRAM timing model (the
//! occupancy-tracked default or the command-level cycle-accurate model,
//! selected by `DramConfig::model`), N cores' cache frontends over one
//! shared L2, and the Relational Memory Engine, and
//! exposes the operations the query layer needs: creating tables,
//! materialising the columnar baseline, registering ephemeral variables
//! (= programming the RME), and running measured scans over any
//! [`ScanSource`].
//!
//! All timing flows through the cache hierarchy: a scan performs one cache
//! access per touched field, misses are filled either by the DRAM
//! controller (normal addresses) or by the RME (ephemeral addresses), and
//! CPU work between accesses is charged from the [`CpuCostModel`].
//!
//! # Multi-core scans
//!
//! A system built with [`SystemConfig`] `{ cores: N }` owns N private L1
//! frontends in front of one shared, banked L2 ([`relmem_cache::SharedL2`]).
//! [`System::scan_sharded`] splits a scan's row range into N contiguous
//! shards and steps the cores deterministically: at every step the core
//! with the smallest local clock (ties broken by core index) processes its
//! next *row*, so the whole run is reproducible bit for bit. The
//! interleaving is conservative at row granularity: a row's whole access
//! chain is simulated before the next core is stepped, so shared-resource
//! bookings from one row may land ahead of a slightly earlier-in-time
//! request of another core's next row — an approximation that is exact at
//! row boundaries and standard for transaction-level models. With
//! `cores == 1` the contention model is bypassed and every timestamp and
//! counter is identical to [`System::scan`] — the cross-path equivalence
//! tests assert this.
//!
//! ```
//! use relmem_core::system::{RowEffect, ScanSource, SystemConfig};
//! use relmem_core::System;
//! use relmem_sim::SimTime;
//! use relmem_storage::{DataGen, MvccConfig, Schema};
//!
//! let mut sys = System::with_config(SystemConfig { cores: 4, ..SystemConfig::default() });
//! let schema = Schema::benchmark(4, 4, 64);
//! let mut table = sys.create_table(schema, 10_000, MvccConfig::Disabled).unwrap();
//! DataGen::new(1).fill_table(sys.mem_mut(), &mut table, 10_000).unwrap();
//!
//! let src = ScanSource::Rows { table: &table, columns: &[0, 1], snapshot: None };
//! let run = sys.scan_sharded(&src, SimTime::ZERO, |_core, _row, _values| RowEffect::default());
//! assert_eq!(run.rows, 10_000);
//! assert_eq!(run.per_core.len(), 4);
//! assert!(run.end > SimTime::ZERO);
//! ```

use relmem_cache::{CoreFrontend, HierarchyStats, MemoryBackend, SharedL2, SharedL2Stats};
use relmem_dram::{DramModel, MemRequest, PhysicalMemory, Requestor};
use relmem_rme::{HwRevision, RmeEngine, TableGeometry};
use relmem_sim::{PlatformConfig, SimTime, Trace, Tracer};
use relmem_storage::{
    ColumnGroup, ColumnarTable, MvccConfig, RowTable, Schema, Snapshot, StorageError,
};

use crate::access_path::AccessPath;
use crate::cost::CpuCostModel;
use crate::ephemeral::EphemeralVariable;
use crate::measure::QueryMeasurement;
use crate::stepper::ScanJob;
use crate::txn::TxnRuntime;

/// Base of the (never materialised) ephemeral address region. It is far
/// above any physical allocation so aliases can never collide with real
/// data.
const EPHEMERAL_REGION_BASE: u64 = 1 << 40;

/// What a measured scan iterates over. The variants hold only shared
/// references and copyable metadata, so sources are `Copy` — the workload
/// layer clones them to override MVCC snapshots mid-stream.
#[derive(Clone, Copy)]
pub enum ScanSource<'a> {
    /// The row-major base table; only the named columns are touched.
    Rows {
        /// The table.
        table: &'a RowTable,
        /// Column indices to read, in ascending order.
        columns: &'a [usize],
        /// Snapshot for MVCC visibility filtering (requires an MVCC table).
        snapshot: Option<Snapshot>,
    },
    /// The materialised column-store copy.
    Columnar {
        /// The columnar table.
        table: &'a ColumnarTable,
        /// Column indices to read.
        columns: &'a [usize],
    },
    /// An ephemeral variable served by the RME.
    Ephemeral {
        /// The registered variable.
        var: &'a EphemeralVariable,
    },
}

impl ScanSource<'_> {
    /// Number of values produced per row.
    pub fn num_columns(&self) -> usize {
        match self {
            ScanSource::Rows { columns, .. } | ScanSource::Columnar { columns, .. } => {
                columns.len()
            }
            ScanSource::Ephemeral { var } => var.num_columns(),
        }
    }
}

/// Additional work a row's processing performs, reported by the per-row
/// closure of [`System::scan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RowEffect {
    /// Extra CPU time (predicates, aggregation, hashing...).
    pub cpu: SimTime,
    /// An extra memory touch (address, bytes) — e.g. a hash-table bucket.
    /// Always served by the normal DRAM path.
    pub touch: Option<(u64, usize)>,
}

/// Everything needed to build a [`System`], including how many cores it
/// simulates.
///
/// ```
/// use relmem_core::system::SystemConfig;
///
/// // The default is the paper's setup: one active core on a ZCU102.
/// assert_eq!(SystemConfig::default().cores, 1);
/// // Scale out to the full A53 cluster for sharded scans.
/// let quad = SystemConfig { cores: 4, ..SystemConfig::default() };
/// assert_eq!(quad.cores, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Platform (caches, DRAM, PS–PL boundary, RME structure).
    pub platform: PlatformConfig,
    /// RME hardware revision (BSL / PCK / MLP).
    pub revision: HwRevision,
    /// Physical memory size in bytes.
    pub mem_bytes: usize,
    /// Number of simulated cores. `1` reproduces the paper's single-threaded
    /// experiments bit for bit; `> 1` enables the shared-L2 contention model
    /// and [`System::scan_sharded`].
    pub cores: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            platform: PlatformConfig::zcu102(),
            revision: HwRevision::Mlp,
            mem_bytes: 64 << 20,
            cores: 1,
        }
    }
}

/// The simulated platform.
///
/// Fields are `pub(crate)` so the sibling `stepper`/`workload` modules can
/// split-borrow the platform the way the scan loops in this module do.
pub struct System {
    pub(crate) cfg: PlatformConfig,
    pub(crate) cost: CpuCostModel,
    pub(crate) mem: PhysicalMemory,
    pub(crate) dram: DramModel,
    /// Per-core private cache frontends (L1 + prefetcher + MSHRs).
    pub(crate) cores: Vec<CoreFrontend>,
    /// The L2 every core shares (banked; contended when `cores.len() > 1`).
    pub(crate) l2: SharedL2,
    pub(crate) engine: RmeEngine,
    /// Run-scoped transaction machinery (intent table, id/commit-ts
    /// allocators, [`TxnStats`](relmem_sim::TxnStats)); reset by
    /// `run_workload` / `run_open_loop`.
    pub(crate) txn_rt: TxnRuntime,
    ephemeral_cursor: u64,
    /// System-side trace hook: op lifecycle and txn events (core tracks)
    /// plus degradation transitions (system track). A no-op unless
    /// [`Self::set_tracing`] enables recording; timing is never affected.
    pub(crate) tracer: Tracer,
    /// Whether scans step whole-line runs of fields (on by default; see
    /// [`Self::set_batched_stepping`]).
    pub(crate) batched_stepping: bool,
}

impl System {
    /// Builds a single-core platform with `mem_bytes` of physical memory
    /// and an RME of the given hardware revision.
    pub fn new(cfg: PlatformConfig, revision: HwRevision, mem_bytes: usize) -> Self {
        System::with_config(SystemConfig {
            platform: cfg,
            revision,
            mem_bytes,
            cores: 1,
        })
    }

    /// Builds a platform from a full [`SystemConfig`].
    ///
    /// `config.cores` is the single source of truth for the core count:
    /// it is written back into the platform's `cpu.cores`, so the
    /// resulting [`PlatformConfig`] always describes the cluster actually
    /// simulated (a `cores: 8` system is an 8-core variant of the given
    /// platform, not a ZCU102 with a stale 4-core label).
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    pub fn with_config(config: SystemConfig) -> Self {
        assert!(config.cores >= 1, "a system needs at least one core");
        let mut cfg = config.platform;
        cfg.cpu.cores = config.cores;
        let engine = RmeEngine::new(
            cfg.rme,
            cfg.cdc,
            config.revision,
            cfg.dram.bus_bytes,
            cfg.line_bytes(),
        );
        System {
            mem: PhysicalMemory::new(config.mem_bytes),
            dram: DramModel::new(cfg.dram),
            cores: (0..config.cores)
                .map(|i| CoreFrontend::for_core(&cfg, i))
                .collect(),
            l2: SharedL2::new(&cfg, config.cores),
            engine,
            cost: CpuCostModel::default(),
            cfg,
            txn_rt: TxnRuntime::default(),
            ephemeral_cursor: EPHEMERAL_REGION_BASE,
            tracer: Tracer::new(),
            batched_stepping: true,
        }
    }

    /// Convenience constructor: default single-core ZCU102 platform.
    pub fn with_revision(revision: HwRevision, mem_bytes: usize) -> Self {
        System::new(PlatformConfig::zcu102(), revision, mem_bytes)
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// One core's cache counters (its private L1 plus its own share of the
    /// L2 traffic and contention delay).
    ///
    /// # Panics
    /// Panics if `core >= num_cores()`.
    pub fn core_stats(&self, core: usize) -> &HierarchyStats {
        self.cores[core].stats()
    }

    /// Aggregate contention counters of the shared L2 (all cores).
    pub fn l2_stats(&self) -> &SharedL2Stats {
        self.l2.stats()
    }

    /// Per-core attribution of the shared-L2 bank traffic. With one query
    /// stream per core (the workload layer's model) this is per-*stream*
    /// attribution: which stream drove the banks, and which stream paid
    /// the waiting.
    pub fn l2_shares(&self) -> &[relmem_cache::CoreL2Share] {
        self.l2.core_shares()
    }

    /// The DRAM controller's accumulated counters (also part of
    /// [`finish_measurement`](Self::finish_measurement); exposed directly
    /// for the golden-trace suite and ad-hoc inspection).
    pub fn dram_stats(&self) -> &relmem_dram::DramStats {
        self.dram.stats()
    }

    /// Enables or disables trace recording across every component. Off by
    /// default: the hooks compile to one predictable branch per site and
    /// never allocate or borrow timing state, so the untraced hot path is
    /// unchanged. Enabling clears any previously buffered events.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
        for core in &mut self.cores {
            core.tracer_mut().set_enabled(on);
        }
        self.l2.tracer_mut().set_enabled(on);
        self.dram.tracer_mut().set_enabled(on);
        self.engine.tracer_mut().set_enabled(on);
    }

    /// Whether trace recording is currently on.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains every component's recorded events into one time-sorted
    /// [`Trace`]. Recording stays in whatever state it was; the buffers are
    /// left empty, so consecutive calls partition the run.
    pub fn take_trace(&mut self) -> Trace {
        let mut buffers = Vec::with_capacity(self.cores.len() + 4);
        buffers.push(self.tracer.take());
        for core in &mut self.cores {
            buffers.push(core.tracer_mut().take());
        }
        buffers.push(self.l2.tracer_mut().take());
        buffers.push(self.dram.tracer_mut().take());
        buffers.push(self.engine.tracer_mut().take());
        Trace::merge(buffers)
    }

    /// Which DRAM timing model this system runs
    /// (`SystemConfig.platform.dram.model`): the fast occupancy model —
    /// the default, and the one every golden fixture pins — or the
    /// command-level cycle-accurate model. Scans, sharded scans, HTAP
    /// workloads and the RME fetch path all run unchanged on either.
    pub fn memory_model(&self) -> relmem_sim::MemoryModel {
        self.dram.kind()
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The CPU cost model in use.
    pub fn cost_model(&self) -> &CpuCostModel {
        &self.cost
    }

    /// Replaces the CPU cost model (for ablations).
    pub fn set_cost_model(&mut self, cost: CpuCostModel) {
        self.cost = cost;
    }

    /// Physical memory (read access).
    pub fn mem(&self) -> &PhysicalMemory {
        &self.mem
    }

    /// Physical memory (write access, e.g. for data generation).
    pub fn mem_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.mem
    }

    /// The Relational Memory Engine.
    pub fn engine(&self) -> &RmeEngine {
        &self.engine
    }

    /// Creates a row table in this system's memory.
    pub fn create_table(
        &mut self,
        schema: Schema,
        capacity_rows: u64,
        mvcc: MvccConfig,
    ) -> Result<RowTable, StorageError> {
        RowTable::create(&mut self.mem, schema, capacity_rows, mvcc)
    }

    /// Materialises the column-store baseline copy of a table.
    pub fn materialize_columnar(
        &mut self,
        table: &RowTable,
    ) -> Result<ColumnarTable, StorageError> {
        ColumnarTable::materialize(&mut self.mem, table)
    }

    /// Allocates a scratch region (e.g. for a hash table) in physical
    /// memory and returns its base address.
    pub fn alloc_scratch(&mut self, bytes: u64) -> u64 {
        self.mem.alloc(bytes as usize, 64)
    }

    /// Registers an ephemeral variable over `table` for the given column
    /// group: programs the RME configuration port and returns the handle.
    /// The engine holds a single configuration, so registering a new
    /// variable supersedes the previous one (as reconfiguring the port does
    /// in the prototype).
    pub fn register_ephemeral(
        &mut self,
        table: &RowTable,
        group: ColumnGroup,
        snapshot: Option<Snapshot>,
    ) -> Result<EphemeralVariable, StorageError> {
        group.validate(
            table.schema(),
            self.cfg.rme.max_columns,
            self.cfg.rme.max_column_width,
        )?;
        let visible = EphemeralVariable::visible_rows(table, &self.mem, snapshot)?;
        let visible_count = visible
            .as_ref()
            .map(|v| v.len() as u64)
            .unwrap_or(table.num_rows());
        let packed_row = group.packed_row_bytes(table.schema())? as u64;
        let base = self.ephemeral_cursor;
        let span = (packed_row * visible_count).max(1).div_ceil(4096) * 4096 + 4096;
        self.ephemeral_cursor += span;

        let geometry = TableGeometry::from_schema(
            table.schema(),
            &group,
            table.base_addr(),
            base,
            table.num_rows(),
            table.mvcc(),
            snapshot,
        )?;
        self.engine.configure(geometry, visible)?;
        EphemeralVariable::describe(table.schema(), group, base, visible_count, snapshot)
    }

    /// Prepares a measured run: flushes the caches, resets DRAM and RME
    /// timing state and clears counters. For [`AccessPath::RmeHot`] the
    /// first frame of the currently registered ephemeral variable is
    /// pre-packed into the Reorganization Buffer.
    pub fn begin_measurement(&mut self, path: AccessPath) {
        // Book any frame fetch still in flight *before* the DRAM reset, so
        // its traffic lands in the epoch that caused it and the measured
        // run starts from a settled memory system.
        self.settle_memory();
        for core in &mut self.cores {
            core.flush();
            core.reset_stats();
        }
        self.l2.flush();
        self.l2.reset_stats();
        self.dram.reset();
        match path {
            AccessPath::RmeHot => {
                self.engine.software_reset();
                self.engine.prewarm_frame(0, &self.mem);
                self.engine.reset_timing();
            }
            AccessPath::RmeCold => {
                self.engine.software_reset();
            }
            _ => {
                self.engine.reset_timing();
            }
        }
    }

    /// Settles all outstanding memory events: books any frame fetch still
    /// in flight and drains every issued DRAM completion, flushing the
    /// cycle-accurate model's buffered writes. Every scheduler loop ends
    /// with this (and every measurement begins with it), so run totals
    /// always include traffic the memory path deferred.
    pub fn settle_memory(&mut self) {
        self.engine.finish_pending_fetch(&self.mem, &mut self.dram);
        self.dram.drain_all();
    }

    /// Collects the counters accumulated since the last
    /// [`begin_measurement`](Self::begin_measurement) into a measurement.
    pub fn finish_measurement(
        &self,
        elapsed: SimTime,
        cpu_time: SimTime,
        path: AccessPath,
    ) -> QueryMeasurement {
        let mut cache = HierarchyStats::default();
        for core in &self.cores {
            cache.merge(core.stats());
        }
        QueryMeasurement {
            elapsed,
            cpu_time,
            cache,
            dram: self.dram.stats().clone(),
            rme: if path.uses_rme() {
                self.engine.stats()
            } else {
                relmem_rme::RmeStats::default()
            },
        }
    }

    /// Enables or disables the cache hierarchy's line-resident fast path
    /// (on by default). Timing and statistics are identical either way —
    /// the switch exists so equivalence tests and benchmarks can compare
    /// the optimized scan against the full cache walk.
    pub fn set_cache_fast_path(&mut self, enabled: bool) {
        for core in &mut self.cores {
            core.set_fast_path(enabled);
        }
    }

    /// Enables or disables batched line-granular scan stepping (on by
    /// default). When on, scans precompute per-alignment line plans and
    /// step whole-line runs of fields through one hierarchy walk each,
    /// replaying the per-field cost arithmetically; when off every field
    /// steps individually. Timing and statistics are identical either way
    /// — the switch exists so the equivalence suite can hold the
    /// per-field path up as the oracle.
    pub fn set_batched_stepping(&mut self, enabled: bool) {
        self.batched_stepping = enabled;
    }

    /// Runs a measured scan over `source`, invoking `per_row` for every
    /// (visible) row with the projected values, and returns
    /// `(end_time, cpu_time, rows_scanned)`.
    ///
    /// The closure receives the values of the requested columns (numeric
    /// view) and returns the extra work the row caused.
    ///
    /// The scan runs single-threaded on core 0. On a multi-core system the
    /// shared-L2 bank model stays engaged, so core 0's own prefetches can
    /// collide with its demand lookups (self-contention, a few percent) —
    /// timing there is *not* identical to a `cores = 1` system, which
    /// bypasses bank occupancy entirely for fidelity to the paper's
    /// single-threaded setup. Use `cores = 1` for paper-faithful
    /// single-threaded measurements; `multicore.rs` pins this distinction.
    ///
    /// This is the simulator's hot path, the same per-row stepper the
    /// multi-core schedulers use (`ScanJob::step_row`): per-column
    /// cursors, the per-row CPU charge and — for row layouts — the
    /// line-granular step plans are computed once per scan, and each row
    /// then advances whole-line runs of fields through one hierarchy walk
    /// each (see `crates/core/src/stepper.rs`).
    /// [`scan_naive`](Self::scan_naive) keeps the original per-field-lookup
    /// loop; `tests/cross_path_equivalence.rs` asserts both produce
    /// bit-identical timing, statistics and values.
    pub fn scan<F>(
        &mut self,
        source: &ScanSource<'_>,
        start: SimTime,
        mut per_row: F,
    ) -> (SimTime, SimTime, u64)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let job = ScanJob::new(
            source,
            &self.cost,
            &self.engine,
            self.cfg.l1.line_bytes,
            self.batched_stepping,
        );
        let mut values = vec![0u64; job.num_columns()];
        if job.fast_rows_shape() {
            // The common single-plan row-table shape: run the whole scan
            // through the stepper's hoisted loop (identical per-row work,
            // invariants lifted out of the loop — see `run_rows_fast`).
            let (now, cpu_total, rows_scanned) =
                job.run_rows_fast(self.parts(), 0, start, &mut values, &mut per_row);
            self.settle_memory();
            return (now, cpu_total, rows_scanned);
        }
        let mut now = start;
        let mut cpu_total = SimTime::ZERO;
        let mut rows_scanned = 0u64;
        for row in 0..job.rows() {
            let step = job.step_row(self.parts(), 0, row, now, &mut values, &mut per_row);
            now = step.now;
            cpu_total += step.cpu;
            rows_scanned += step.scanned as u64;
        }
        self.settle_memory();
        (now, cpu_total, rows_scanned)
    }

    /// The pre-optimization reference scan: one `field_addr()` /
    /// `schema().width()` lookup and one freshly constructed backend per
    /// field access, exactly as the seed implementation did. Kept (not
    /// cfg(test)-gated) so the equivalence suite and the `scan_throughput`
    /// benchmark can prove the optimized [`scan`](Self::scan) is
    /// bit-identical in timing/statistics and measure its speedup.
    pub fn scan_naive<F>(
        &mut self,
        source: &ScanSource<'_>,
        start: SimTime,
        mut per_row: F,
    ) -> (SimTime, SimTime, u64)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let mut now = start;
        let mut cpu_total = SimTime::ZERO;
        let mut values: Vec<u64> = vec![0; source.num_columns()];
        let mut rows_scanned = 0u64;

        let System {
            cores,
            l2,
            dram,
            mem,
            engine,
            cfg,
            cost,
            ..
        } = self;
        let front = &mut cores[0];
        let line_bytes = cfg.l1.line_bytes;

        match source {
            ScanSource::Rows {
                table,
                columns,
                snapshot,
            } => {
                let rows = table.num_rows();
                for row in 0..rows {
                    // MVCC: read the version header and check visibility.
                    if let Some(snap) = snapshot {
                        if table.mvcc().is_enabled() {
                            let header_addr = table.row_addr(row);
                            let out = front.access(
                                header_addr,
                                16,
                                now,
                                l2,
                                &mut DramBackend {
                                    dram: &mut *dram,
                                    line_bytes,
                                    core: 0,
                                },
                            );
                            now = out.completion + cost.visibility();
                            cpu_total += cost.visibility();
                            if !table.visible(mem, row, *snap).unwrap_or(false) {
                                continue;
                            }
                        }
                    }
                    for (slot, &col) in columns.iter().enumerate() {
                        let addr = table.field_addr(row, col).expect("valid column");
                        let width = table.schema().width(col).expect("valid column");
                        let out = front.access(
                            addr,
                            width,
                            now,
                            l2,
                            &mut DramBackend {
                                dram: &mut *dram,
                                line_bytes,
                                core: 0,
                            },
                        );
                        now = out.completion;
                        values[slot] = mem.read_uint(addr, width.min(8));
                    }
                    let cpu = cost.row_loop() + cost.fields(columns.len());
                    let (n2, c2) =
                        finish_row_naive(front, l2, dram, line_bytes, row, &values, cpu, now, &mut per_row);
                    now = n2;
                    cpu_total += c2;
                    rows_scanned += 1;
                }
            }
            ScanSource::Columnar { table, columns } => {
                let rows = table.num_rows();
                for row in 0..rows {
                    for (slot, &col) in columns.iter().enumerate() {
                        let addr = table.field_addr(row, col).expect("valid column");
                        let width = table.schema().width(col).expect("valid column");
                        let out = front.access(
                            addr,
                            width,
                            now,
                            l2,
                            &mut DramBackend {
                                dram: &mut *dram,
                                line_bytes,
                                core: 0,
                            },
                        );
                        now = out.completion;
                        values[slot] = mem.read_uint(addr, width.min(8));
                    }
                    let cpu = cost.row_loop()
                        + cost.fields(columns.len())
                        + cost.tuple_reconstruction(columns.len());
                    let (n2, c2) =
                        finish_row_naive(front, l2, dram, line_bytes, row, &values, cpu, now, &mut per_row);
                    now = n2;
                    cpu_total += c2;
                    rows_scanned += 1;
                }
            }
            ScanSource::Ephemeral { var } => {
                let rows = var.rows();
                for row in 0..rows {
                    #[allow(clippy::needless_range_loop)] // kept in the seed's shape
                    for j in 0..var.num_columns() {
                        let addr = var.field_addr(row, j);
                        let width = var.width(j);
                        let out = front.access(
                            addr,
                            width,
                            now,
                            l2,
                            &mut RmeBackend {
                                engine: &mut *engine,
                                dram: &mut *dram,
                                mem,
                                line_bytes,
                                core: 0,
                            },
                        );
                        now = out.completion;
                        values[j] = engine.read_packed_u64(addr, width, mem);
                    }
                    let cpu = cost.row_loop() + cost.fields(var.num_columns());
                    let (n2, c2) =
                        finish_row_naive(front, l2, dram, line_bytes, row, &values, cpu, now, &mut per_row);
                    now = n2;
                    cpu_total += c2;
                    rows_scanned += 1;
                }
            }
        }
        engine.finish_pending_fetch(mem, dram);
        dram.drain_all();
        (now, cpu_total, rows_scanned)
    }
}

/// Charges the per-row CPU work, runs the closure and applies its effect.
/// Returns the advanced `(now, cpu_spent_this_row)`. Only used by
/// [`System::scan_naive`]; the optimized scans inline this with the
/// per-scan backend.
#[allow(clippy::too_many_arguments)] // mirrors the seed's finish_row shape
fn finish_row_naive<F>(
    front: &mut CoreFrontend,
    l2: &mut SharedL2,
    dram: &mut DramModel,
    line_bytes: usize,
    row: u64,
    values: &[u64],
    base_cpu: SimTime,
    now: SimTime,
    per_row: &mut F,
) -> (SimTime, SimTime)
where
    F: FnMut(u64, &[u64]) -> RowEffect,
{
    let effect = per_row(row, values);
    let cpu = base_cpu + effect.cpu;
    let mut now = now + cpu;
    if let Some((addr, bytes)) = effect.touch {
        let out = front.access(
            addr,
            bytes,
            now,
            l2,
            &mut DramBackend {
                dram,
                line_bytes,
                core: 0,
            },
        );
        now = out.completion;
    }
    (now, cpu)
}

/// Normal-route backend: L2 misses go straight to the DRAM controller,
/// attributed to the issuing core.
pub(crate) struct DramBackend<'a> {
    pub(crate) dram: &'a mut DramModel,
    pub(crate) line_bytes: usize,
    pub(crate) core: usize,
}

impl MemoryBackend for DramBackend<'_> {
    fn fill_line(&mut self, line_addr: u64, ready: SimTime) -> SimTime {
        self.dram
            .access(
                MemRequest::new(line_addr, self.line_bytes, ready)
                    .with_requestor(Requestor::Core(self.core)),
            )
            .finish
    }

    fn writeback_line(&mut self, line_addr: u64, ready: SimTime) {
        if self.dram.writebacks_active() {
            self.dram.issue(
                MemRequest::new(line_addr, self.line_bytes, ready)
                    .with_requestor(Requestor::Core(self.core))
                    .as_write(),
            );
        }
    }
}

/// Ephemeral-route backend: L2 misses are served by the RME, attributed to
/// the issuing core.
pub(crate) struct RmeBackend<'a> {
    pub(crate) engine: &'a mut RmeEngine,
    pub(crate) dram: &'a mut DramModel,
    pub(crate) mem: &'a PhysicalMemory,
    pub(crate) line_bytes: usize,
    pub(crate) core: usize,
}

impl MemoryBackend for RmeBackend<'_> {
    fn fill_line(&mut self, line_addr: u64, ready: SimTime) -> SimTime {
        self.engine
            .serve_line_from(self.core, line_addr, ready, self.mem, self.dram)
    }

    fn writeback_line(&mut self, line_addr: u64, ready: SimTime) {
        if self.dram.writebacks_active() {
            self.dram.issue(
                MemRequest::new(line_addr, self.line_bytes, ready)
                    .with_requestor(Requestor::Core(self.core))
                    .as_write(),
            );
        }
    }

    fn prefetchable(&self, line_addr: u64) -> bool {
        self.engine.line_is_prefetchable(line_addr)
    }
}

// ---------------------------------------------------------------------------
// Sharded multi-core scans
// ---------------------------------------------------------------------------

/// One core's outcome of a [`System::scan_sharded`] run.
#[derive(Debug, Clone)]
pub struct CoreScan {
    /// Core index.
    pub core: usize,
    /// First row of this core's shard.
    pub first_row: u64,
    /// Rows of the shard (before MVCC visibility filtering).
    pub shard_rows: u64,
    /// Rows actually scanned (visible rows processed by the closure).
    pub rows: u64,
    /// This core's local completion time.
    pub end: SimTime,
    /// CPU time this core charged.
    pub cpu: SimTime,
    /// This core's cache counters for the whole measurement window —
    /// including its `l2_contention_delay`, which is where shared-L2
    /// contention becomes visible per core.
    pub cache: HierarchyStats,
}

/// Outcome of a [`System::scan_sharded`] run: the aggregate plus one
/// [`CoreScan`] per core.
#[derive(Debug, Clone)]
pub struct ShardedScan {
    /// Completion of the slowest core (the scan's makespan).
    pub end: SimTime,
    /// Total CPU time across cores.
    pub cpu: SimTime,
    /// Total rows scanned across cores.
    pub rows: u64,
    /// Per-core results, indexed by core.
    pub per_core: Vec<CoreScan>,
}

/// Splits `rows` into `cores` contiguous shards, the first `rows % cores`
/// of them one row larger — every row lands in exactly one shard even when
/// the core count does not divide the row count.
fn shard_ranges(rows: u64, cores: usize) -> Vec<(u64, u64)> {
    let n = cores as u64;
    let base = rows / n;
    let extra = rows % n;
    let mut ranges = Vec::with_capacity(cores);
    let mut lo = 0u64;
    for i in 0..n {
        let len = base + u64::from(i < extra);
        ranges.push((lo, lo + len));
        lo += len;
    }
    ranges
}

/// Per-core cursor of an in-progress sharded scan.
struct ShardState {
    next: u64,
    end: u64,
    now: SimTime,
    cpu: SimTime,
    rows: u64,
    values: Vec<u64>,
}

impl ShardState {
    fn new(range: (u64, u64), start: SimTime, columns: usize) -> Self {
        ShardState {
            next: range.0,
            end: range.1,
            now: start,
            cpu: SimTime::ZERO,
            rows: 0,
            values: vec![0; columns],
        }
    }
}

/// The unfinished core with the smallest local clock among those matching
/// `filter` (ties broken by lowest index), or `None`. The single pick rule
/// shared by every sharded-scan scheduler — change tie-breaking here and
/// nowhere else.
fn pick_min_clock(
    states: &[ShardState],
    filter: impl Fn(&ShardState) -> bool,
) -> Option<usize> {
    let mut pick: Option<usize> = None;
    for (i, st) in states.iter().enumerate() {
        if st.next < st.end
            && filter(st)
            && pick.is_none_or(|p| st.now < states[p].now)
        {
            pick = Some(i);
        }
    }
    pick
}

impl System {
    /// Runs a measured scan over `source` sharded across every simulated
    /// core: the row range is split into `num_cores()` contiguous shards
    /// and the cores are stepped deterministically in smallest-local-clock
    /// order (see the module docs). `per_row` is invoked as
    /// `(core, row, values)` for every visible row.
    ///
    /// With one core this is exactly [`scan`](Self::scan) — same
    /// timestamps, counters and values — which the cross-path equivalence
    /// tests assert. With several cores the scans proceed concurrently in
    /// simulated time and contend on the shared L2 banks, the DRAM
    /// controller and (for ephemeral sources) the RME.
    /// The per-row bodies live in the crate-private `stepper::ScanJob`,
    /// shared with the workload scheduler and deliberately mirroring the single-core
    /// `scan_*` loops line for line — a timing-model change there must be
    /// mirrored in the stepper (and in `scan_naive`). The
    /// `sharded_one_core_scan_is_bit_identical_to_scan` proptest pins the
    /// correspondence at `cores = 1`.
    ///
    /// For ephemeral sources the scheduler is *frame-aware*: the cores
    /// share one Reorganization Buffer holding a single resident frame, so
    /// each step picks the smallest-clock core whose next row lies in the
    /// resident frame and only falls back to the global minimum-clock core
    /// (forcing a frame turnover) when no core has work left there. This
    /// bounds frame fetches at O(cores × frames); naive min-clock stepping
    /// would re-fetch a frame on nearly every access once shards span
    /// frame boundaries. With one core the schedule degenerates to plain
    /// row order.
    pub fn scan_sharded<F>(
        &mut self,
        source: &ScanSource<'_>,
        start: SimTime,
        mut per_row: F,
    ) -> ShardedScan
    where
        F: FnMut(usize, u64, &[u64]) -> RowEffect,
    {
        let job = ScanJob::new(
            source,
            &self.cost,
            &self.engine,
            self.cfg.l1.line_bytes,
            self.batched_stepping,
        );
        let ranges = shard_ranges(job.rows(), self.cores.len());
        let mut states: Vec<ShardState> = ranges
            .iter()
            .map(|&r| ShardState::new(r, start, job.num_columns()))
            .collect();

        loop {
            // Prefer the min-clock core working in the resident frame
            // (ephemeral sources only); fall back to the global min-clock
            // core (frame turnover).
            let pick = match job.frame_rows() {
                Some(frame_rows) => {
                    let resident = self.engine.resident_frame();
                    pick_min_clock(&states, |st| resident == Some(st.next / frame_rows))
                        .or_else(|| pick_min_clock(&states, |_| true))
                }
                None => pick_min_clock(&states, |_| true),
            };
            let Some(core) = pick else {
                break;
            };
            let st = &mut states[core];
            let row = st.next;
            st.next += 1;
            let step = job.step_row(
                self.parts(),
                core,
                row,
                st.now,
                &mut st.values,
                &mut |r, v| per_row(core, r, v),
            );
            st.now = step.now;
            st.cpu += step.cpu;
            if step.scanned {
                st.rows += 1;
            }
            // The stepped core's clock is the interleaver's event horizon:
            // everything the memory system finished before it is now
            // observable, so retire it from the completion queue.
            let horizon = st.now;
            self.dram.drain_completions(horizon);
        }

        self.settle_memory();
        self.collect_sharded(states, &ranges)
    }

    /// Collects per-core results after the interleaved loop finished.
    fn collect_sharded(&self, states: Vec<ShardState>, ranges: &[(u64, u64)]) -> ShardedScan {
        let mut per_core = Vec::with_capacity(states.len());
        let mut end = SimTime::ZERO;
        let mut cpu = SimTime::ZERO;
        let mut rows = 0u64;
        for (core, st) in states.into_iter().enumerate() {
            end = end.max(st.now);
            cpu += st.cpu;
            rows += st.rows;
            per_core.push(CoreScan {
                core,
                first_row: ranges[core].0,
                shard_rows: ranges[core].1 - ranges[core].0,
                rows: st.rows,
                end: st.now,
                cpu: st.cpu,
                cache: *self.cores[core].stats(),
            });
        }
        ShardedScan {
            end,
            cpu,
            rows,
            per_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmem_storage::DataGen;

    fn build_system(rows: u64) -> (System, RowTable) {
        let mut sys = System::with_revision(HwRevision::Mlp, 64 << 20);
        let schema = Schema::benchmark(8, 4, 64);
        let mut table = sys.create_table(schema, rows, MvccConfig::Disabled).unwrap();
        DataGen::new(1).fill_table(sys.mem_mut(), &mut table, rows).unwrap();
        (sys, table)
    }

    fn sum_column(
        sys: &mut System,
        source: &ScanSource<'_>,
        path: AccessPath,
    ) -> (u64, SimTime) {
        sys.begin_measurement(path);
        let mut sum = 0u64;
        let (end, _cpu, _) = sys.scan(source, SimTime::ZERO, |_, values| {
            sum = sum.wrapping_add(values[0]);
            RowEffect {
                cpu: sys_cost_aggregate(),
                touch: None,
            }
        });
        (sum, end)
    }

    fn sys_cost_aggregate() -> SimTime {
        CpuCostModel::default().aggregate()
    }

    #[test]
    fn all_paths_compute_the_same_sum() {
        let (mut sys, table) = build_system(2_000);
        let columns = [0usize];

        let rows_src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        let (sum_rows, t_rows) = sum_column(&mut sys, &rows_src, AccessPath::DirectRowWise);

        let columnar = sys.materialize_columnar(&table).unwrap();
        let col_src = ScanSource::Columnar {
            table: &columnar,
            columns: &columns,
        };
        let (sum_cols, _) = sum_column(&mut sys, &col_src, AccessPath::DirectColumnar);

        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
            .unwrap();
        let eph_src = ScanSource::Ephemeral { var: &var };
        let (sum_cold, t_cold) = sum_column(&mut sys, &eph_src, AccessPath::RmeCold);
        let (sum_hot, t_hot) = sum_column(&mut sys, &eph_src, AccessPath::RmeHot);

        assert_eq!(sum_rows, sum_cols);
        assert_eq!(sum_rows, sum_cold);
        assert_eq!(sum_rows, sum_hot);
        assert!(t_hot <= t_cold, "hot ({t_hot}) should not exceed cold ({t_cold})");
        assert!(t_rows > SimTime::ZERO && t_cold > SimTime::ZERO);
    }

    #[test]
    fn rme_cold_beats_direct_row_wise_for_a_narrow_projection() {
        // The headline claim of the paper: accessing one 4-byte column of a
        // 64-byte-row table through the (MLP) RME is faster than scanning
        // the rows directly, even when the Reorganization Buffer is cold.
        let (mut sys, table) = build_system(20_000);
        let columns = [0usize];
        let rows_src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        let (_, t_rows) = sum_column(&mut sys, &rows_src, AccessPath::DirectRowWise);

        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
            .unwrap();
        let eph_src = ScanSource::Ephemeral { var: &var };
        let (_, t_cold) = sum_column(&mut sys, &eph_src, AccessPath::RmeCold);

        assert!(
            t_cold < t_rows,
            "RME cold ({t_cold}) should beat direct row-wise ({t_rows})"
        );
    }

    #[test]
    fn mvcc_scan_skips_invisible_rows() {
        let mut sys = System::with_revision(HwRevision::Mlp, 16 << 20);
        let schema = Schema::benchmark(4, 8, 64);
        let mut table = sys.create_table(schema, 100, MvccConfig::Enabled).unwrap();
        DataGen::new(2).fill_table(sys.mem_mut(), &mut table, 100).unwrap();
        for row in 0..50 {
            table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
        }
        let columns = [0usize];
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: Some(Snapshot::at(10)),
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let (_, _, rows) = sys.scan(&src, SimTime::ZERO, |_, _| RowEffect::default());
        assert_eq!(rows, 50);

        // And through the RME, with the same snapshot.
        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), Some(Snapshot::at(10)))
            .unwrap();
        assert_eq!(var.rows(), 50);
        let eph = ScanSource::Ephemeral { var: &var };
        sys.begin_measurement(AccessPath::RmeCold);
        let (_, _, rme_rows) = sys.scan(&eph, SimTime::ZERO, |_, _| RowEffect::default());
        assert_eq!(rme_rows, 50);
    }

    #[test]
    fn measurements_capture_counters() {
        let (mut sys, table) = build_system(500);
        let columns = [0usize, 3];
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let (end, cpu, _) = sys.scan(&src, SimTime::ZERO, |_, _| RowEffect::default());
        let m = sys.finish_measurement(end, cpu, AccessPath::DirectRowWise);
        assert!(m.cache.l1.requests >= 1_000);
        assert!(m.dram.accesses > 0);
        assert!(m.cpu_time > SimTime::ZERO);
        assert!(m.data_time() > SimTime::ZERO);
        assert_eq!(m.rme, relmem_rme::RmeStats::default());
    }
}
