//! Relational Memory — native in-memory accesses on rows and columns.
//!
//! A from-scratch Rust reproduction of *Relational Memory: Native In-Memory
//! Accesses on Rows and Columns* (EDBT 2023). The paper's FPGA-based
//! Relational Memory Engine (RME) is rebuilt as a functionally exact,
//! timing-modelled simulator; this facade crate re-exports the workspace's
//! public API so downstream users need a single dependency.
//!
//! * [`sim`] — timebase, clock domains, platform configuration, reporting.
//! * [`dram`] — byte-accurate physical memory + DRAM controller model.
//! * [`cache`] — L1/L2 cache hierarchy with a stream prefetcher.
//! * [`storage`] — schemas, row tables, column-store baseline, MVCC,
//!   data generation.
//! * [`rme`] — the Relational Memory Engine itself (configuration port,
//!   requestor, fetch units, reorganization buffer, BSL/PCK/MLP revisions,
//!   area model).
//! * [`core`] — ephemeral variables, access paths, the query engine and the
//!   Relational Memory Benchmark (Q0–Q5).
//!
//! # Quickstart
//!
//! ```
//! use relational_memory::core::{AccessPath, Benchmark, BenchmarkParams, Query};
//!
//! // Build the paper's default benchmark relation (scaled down here) and
//! // compare a projection query across access paths.
//! let params = BenchmarkParams { rows: 2_000, ..BenchmarkParams::default() };
//! let mut bench = Benchmark::new(params);
//! let direct = bench.run(Query::Q1 { projectivity: 3 }, AccessPath::DirectRowWise);
//! let rme = bench.run(Query::Q1 { projectivity: 3 }, AccessPath::RmeCold);
//! assert_eq!(direct.output, rme.output);           // identical results
//! assert!(rme.measurement.elapsed < direct.measurement.elapsed); // and faster
//! ```

pub use relmem_cache as cache;
pub use relmem_core as core;
pub use relmem_dram as dram;
pub use relmem_rme as rme;
pub use relmem_sim as sim;
pub use relmem_storage as storage;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use relmem_core::{
        AccessPath, AdmissionConfig, Benchmark, BenchmarkParams, CoreScan, CpuCostModel,
        DegradePolicy, EphemeralVariable, OpenLoopOp, OpenLoopRun, OpenLoopStream,
        OpenLoopWorkload, Query, QueryMeasurement, QueryOutput, ShardedScan, System,
        SystemConfig, WorkloadError,
    };
    pub use relmem_rme::{HwRevision, RmeEngine, TableGeometry};
    pub use relmem_sim::{PlatformConfig, SimTime};
    pub use relmem_storage::{
        ColumnGroup, ColumnType, DataGen, MvccConfig, Row, RowTable, Schema, Snapshot, Value,
    };
}
