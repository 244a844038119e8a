//! Multi-row transactions through the timing model.
//!
//! [`WorkloadOp::Txn`](crate::workload::WorkloadOp::Txn) groups point
//! reads, in-place updates, appends and deletes — over one or more tables
//! — into an atomic unit with MVCC first-updater-wins conflict detection.
//! Transactions run *inside* the simulated platform: every header probe,
//! intent check, commit stamp and published row is charged as real cache
//! and DRAM traffic on the issuing core, contending with concurrent OLAP
//! scans exactly like the flat point ops of
//! [`run_workload`](crate::System::run_workload).
//!
//! # Execution model
//!
//! A [`TxnSpec`] executes in three phases, each phase advancing the
//! stream's clock through the normal min-clock interleaver:
//!
//! 1. **Begin** (zero time, like [`WorkloadOp::TakeSnapshot`](crate::workload::WorkloadOp::TakeSnapshot)): the
//!    transaction receives an id and becomes the stream's active
//!    transaction.
//! 2. **Execute**, one [`TxnOp`] per scheduler unit. [`TxnOp::Read`] runs
//!    the exact point-lookup data path (optionally under the spec's
//!    [`read_ts`](TxnSpec::read_ts) snapshot). Write ops buffer a *write
//!    intent*: [`TxnOp::Update`] and [`TxnOp::Delete`] claim their
//!    `(table, row)` key in a global intent table — on an MVCC table the
//!    claim pays one 16-byte header access plus the visibility-check CPU
//!    cost — and [`TxnOp::Insert`] just buffers (the row does not exist
//!    yet, so there is nothing to claim). Intents are not visible to the
//!    transaction's own reads (no read-your-own-writes).
//! 3. **Commit**, one final unit: inserts are capacity-checked (a full
//!    table aborts the transaction as *shed*, publishing nothing), then
//!    every intent is applied — updates run the exact in-place
//!    point-update body, deletes end the version at the commit timestamp,
//!    inserts append and publish whole rows (touching fresh lines, so
//!    they exhibit cold-miss behaviour). On MVCC tables each commit stamp
//!    and each published row additionally issues an **explicit DRAM
//!    write** ([`ReqKind::Write`](relmem_dram::ReqKind::Write)) forcing
//!    the version header to memory. Commit durability is deliberately
//!    *synchronous* — a commit is not observable until its write is
//!    ordered — so these writes bypass the cycle-accurate model's write
//!    buffer and always exercise its tWR/tWTR constraints. (Dirty-eviction
//!    writebacks are the other CPU-side write source, emitted
//!    asynchronously on the cycle-accurate model only.)
//!
//! # Conflicts
//!
//! The intent table implements **first-updater-wins**: the first live
//! transaction to claim a `(table, row)` key holds it until commit or
//! abort; a later transaction claiming the same key aborts itself
//! deterministically ([`OpKind::TxnAbortConflict`]), releasing its own
//! claims. Charges already paid stay paid — a wasted attempt costs real
//! simulated time, which is the point. Closed-loop streams re-run an
//! aborted transaction in place up to [`TxnSpec::retries`] times (each
//! attempt counts in [`TxnStats::begun`]); open-loop traffic instead
//! reschedules the aborted submission through the admission queue with
//! the same exponential backoff as client timeouts, up to
//! [`AdmissionConfig::max_retries`](crate::AdmissionConfig::max_retries).
//!
//! MVCC updates restamp the row's header to begin at the commit
//! timestamp. This models the version handoff without allocating a new
//! row: the pre-commit version is no longer reachable (the simulator
//! keeps one version per slot), which is the same approximation the flat
//! [`WorkloadOp::PointUpdate`](crate::workload::WorkloadOp::PointUpdate)
//! makes.
//!
//! # Accounting
//!
//! [`TxnStats`] satisfies, at the end of every run:
//!
//! ```text
//! begun == committed + aborted_conflict + aborted_shed
//! ```
//!
//! Open-loop submissions that never reach execution (rejected at a full
//! queue, shed past the delay budget, or abandoned by their final
//! timeout) count as `begun` *and* `aborted_shed`, so the identity holds
//! across both drivers. A timed-out attempt with retries remaining is
//! not accounted — its retry will be.

use std::collections::HashMap;

use relmem_dram::{MemRequest, Requestor};
use relmem_sim::{SimTime, TraceEvent, TraceEventKind, Track, TxnStats};
use relmem_storage::mvcc::encode_header;
use relmem_storage::{ColumnarTable, Row, RowTable, Snapshot, Timestamp, Value};

use crate::system::{DramBackend, RowEffect, System};
use crate::workload::{OpKind, OpOutcome, StreamState};

/// First commit timestamp a run hands out. Far above any timestamp the
/// workloads use for data generation or snapshots, so commit-stamped
/// versions are ordered after all pre-existing ones.
pub const TXN_TS_BASE: Timestamp = 1 << 32;

/// One operation inside a transaction.
///
/// Like [`WorkloadOp`](crate::workload::WorkloadOp), ops hold only shared
/// references and copyable payloads, so they are `Copy`.
#[derive(Clone, Copy)]
pub enum TxnOp<'a> {
    /// A point read of the named columns of one row, on the exact
    /// point-lookup data path (MVCC visibility under the spec's
    /// [`read_ts`](TxnSpec::read_ts), or the stream's current snapshot).
    Read {
        /// The row-major base table.
        table: &'a RowTable,
        /// Column indices to read.
        columns: &'a [usize],
        /// Row to read.
        row: u64,
    },
    /// An in-place update intent on one `UInt` field, applied at commit.
    Update {
        /// The row-major base table.
        table: &'a RowTable,
        /// Row to update.
        row: u64,
        /// Column to overwrite (must be a `UInt` column).
        column: usize,
        /// New value (masked to the column width).
        value: u64,
    },
    /// An append intent: one value per column of the table's schema,
    /// published (and made visible from the commit timestamp) at commit.
    Insert {
        /// The row-major base table to extend.
        table: &'a RowTable,
        /// A materialised columnar copy to extend in the same commit
        /// (must have append headroom — see
        /// [`ColumnarTable::materialize_with_capacity`]).
        columnar: Option<&'a ColumnarTable>,
        /// One value per schema column, in schema order.
        values: &'a [u64],
    },
    /// A delete intent: ends the row's version at the commit timestamp
    /// (requires an MVCC table).
    Delete {
        /// The row-major base table.
        table: &'a RowTable,
        /// Row to delete.
        row: u64,
    },
}

/// A transaction template: ops executed in order, write intents applied
/// atomically at commit.
pub struct TxnSpec<'a> {
    /// The ops, executed front to back (reads immediately, writes as
    /// buffered intents).
    pub ops: Vec<TxnOp<'a>>,
    /// Snapshot timestamp the transaction's reads run under. `None`
    /// reads under the stream's current snapshot, exactly like a flat
    /// [`WorkloadOp::PointLookup`](crate::workload::WorkloadOp::PointLookup).
    pub read_ts: Option<Timestamp>,
    /// In-place re-runs after a conflict abort (closed-loop driver only;
    /// open-loop traffic retries through the admission queue instead).
    pub retries: u32,
}

impl<'a> TxnSpec<'a> {
    /// A transaction over `ops` with no snapshot override and no retries.
    pub fn new(ops: Vec<TxnOp<'a>>) -> Self {
        TxnSpec {
            ops,
            read_ts: None,
            retries: 0,
        }
    }

    /// Reads run under a snapshot at `ts` (builder style).
    pub fn with_read_ts(mut self, ts: Timestamp) -> Self {
        self.read_ts = Some(ts);
        self
    }

    /// Re-run up to `retries` times after a conflict abort (builder
    /// style, closed-loop driver only).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

/// One recorded abort victim, for deterministic-replay assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnAbort {
    /// Core the victim ran on.
    pub core: usize,
    /// Op index (closed loop) or template index (open loop) of the
    /// transaction in its stream.
    pub op: usize,
    /// Which attempt aborted (0 = first submission).
    pub attempt: u32,
    /// Local time of the abort.
    pub at: SimTime,
}

/// Run-scoped transaction machinery owned by the [`System`]: the global
/// intent table, id/commit-timestamp allocators and the run's
/// [`TxnStats`]. Reset at the start of every workload / open-loop run.
#[derive(Debug)]
pub(crate) struct TxnRuntime {
    /// Live write-intent claims: `(table base address, row)` → txn id.
    claims: HashMap<(u64, u64), u64>,
    next_id: u64,
    next_commit_ts: Timestamp,
    /// Open-loop runs disable the closed-loop in-place retry (the
    /// admission queue owns rescheduling there).
    pub(crate) open_loop: bool,
    pub(crate) stats: TxnStats,
    pub(crate) aborts: Vec<TxnAbort>,
}

impl Default for TxnRuntime {
    fn default() -> Self {
        TxnRuntime {
            claims: HashMap::new(),
            next_id: 0,
            next_commit_ts: TXN_TS_BASE,
            open_loop: false,
            stats: TxnStats::default(),
            aborts: Vec::new(),
        }
    }
}

impl TxnRuntime {
    /// Clears all run-scoped state for a fresh run.
    pub(crate) fn reset(&mut self, open_loop: bool) {
        self.claims.clear();
        self.next_id = 0;
        self.next_commit_ts = TXN_TS_BASE;
        self.open_loop = open_loop;
        self.stats = TxnStats::default();
        self.aborts.clear();
    }
}

/// A stream's in-progress transaction.
pub(crate) struct ActiveTxn<'a> {
    spec: &'a TxnSpec<'a>,
    /// Op-index label for outcomes (template index under open loop).
    op_idx: usize,
    id: u64,
    attempt: u32,
    /// Next spec op to execute; `spec.ops.len()` means commit next.
    next: usize,
    /// Buffered write intents, in execution order.
    intents: Vec<TxnOp<'a>>,
    /// Intent-table keys this transaction holds.
    claimed: Vec<(u64, u64)>,
    start: SimTime,
    rows: u64,
}

impl System {
    /// Begins `spec` on a stream (zero simulated time — acquiring a
    /// transaction id is a counter increment): the transaction becomes
    /// the stream's active transaction and subsequent scheduler units
    /// execute one [`TxnOp`] (or the commit) each.
    pub(crate) fn begin_txn<'a>(
        &mut self,
        core: usize,
        st: &mut StreamState<'a, '_>,
        op_idx: usize,
        spec: &'a TxnSpec<'a>,
    ) {
        self.txn_rt.stats.begun += 1;
        let id = self.txn_rt.next_id;
        self.txn_rt.next_id += 1;
        let at = st.now;
        self.tracer.emit(|| {
            TraceEvent::instant(Track::Core(core as u32), TraceEventKind::TxnBegin, at, id, 0)
        });
        st.active_txn = Some(ActiveTxn {
            spec,
            op_idx,
            id,
            attempt: 0,
            next: 0,
            intents: Vec::new(),
            claimed: Vec::new(),
            start: st.now,
            rows: 0,
        });
    }

    /// Advances the stream's active transaction by one unit — one
    /// [`TxnOp`], or the commit once every op has executed. Returns
    /// `false` — and does nothing — if no transaction is active.
    pub(crate) fn step_txn_unit<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        observer: &mut F,
    ) -> bool
    where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        // Take the transaction out so the point-op helpers can borrow the
        // stream state freely; put it back unless it finished.
        let Some(mut txn) = st.active_txn.take() else {
            return false;
        };
        if txn.next < txn.spec.ops.len() {
            let op = txn.spec.ops[txn.next];
            txn.next += 1;
            if self.execute_txn_op(core, st, &mut txn, op, observer) {
                st.active_txn = Some(txn);
            } else {
                self.abort_conflict(core, st, txn);
            }
        } else {
            self.commit_txn(core, st, txn, observer);
        }
        true
    }

    /// Executes one [`TxnOp`]: reads run immediately, writes claim and
    /// buffer their intent. Returns `false` on a write-write conflict
    /// (the caller aborts the transaction).
    fn execute_txn_op<'a, F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'a, '_>,
        txn: &mut ActiveTxn<'a>,
        op: TxnOp<'a>,
        observer: &mut F,
    ) -> bool
    where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        match op {
            TxnOp::Read {
                table,
                columns,
                row,
            } => {
                let saved = st.snapshot;
                if let Some(ts) = txn.spec.read_ts {
                    st.snapshot = Some(Snapshot::at(ts));
                }
                let out = self.point_lookup(core, st, txn.op_idx, table, columns, row, observer);
                if txn.spec.read_ts.is_some() {
                    st.snapshot = saved;
                }
                txn.rows += out.rows;
                true
            }
            TxnOp::Update { table, row, .. } | TxnOp::Delete { table, row } => {
                if table.mvcc().is_enabled() {
                    // The intent check reads the row's version header.
                    let front = &mut self.cores[core];
                    let mut backend = DramBackend {
                        dram: &mut self.dram,
                        line_bytes: self.cfg.l1.line_bytes,
                        core,
                    };
                    let out =
                        front.access(table.row_addr(row), 16, st.now, &mut self.l2, &mut backend);
                    st.now = out.completion + self.cost.visibility();
                    st.cpu += self.cost.visibility();
                }
                let key = (table.base_addr(), row);
                match self.txn_rt.claims.get(&key) {
                    Some(&holder) if holder != txn.id => return false,
                    Some(_) => {}
                    None => {
                        self.txn_rt.claims.insert(key, txn.id);
                        txn.claimed.push(key);
                    }
                }
                txn.intents.push(op);
                true
            }
            TxnOp::Insert { .. } => {
                // Nothing to claim: the row does not exist until commit.
                txn.intents.push(op);
                true
            }
        }
    }

    /// Aborts a transaction on a write-write conflict, releasing its
    /// claims. Closed-loop streams with retry budget re-run in place as a
    /// fresh attempt.
    fn abort_conflict<'a>(
        &mut self,
        core: usize,
        st: &mut StreamState<'a, '_>,
        mut txn: ActiveTxn<'a>,
    ) {
        for key in txn.claimed.drain(..) {
            self.txn_rt.claims.remove(&key);
        }
        self.txn_rt.stats.aborted_conflict += 1;
        self.txn_rt.aborts.push(TxnAbort {
            core,
            op: txn.op_idx,
            attempt: txn.attempt,
            at: st.now,
        });
        let (id, at) = (txn.id, st.now);
        self.tracer.emit(|| {
            TraceEvent::instant(Track::Core(core as u32), TraceEventKind::TxnAbort, at, id, 0)
        });
        let outcome = OpOutcome {
            op: txn.op_idx,
            kind: OpKind::TxnAbortConflict,
            start: txn.start,
            end: st.now,
            rows: txn.rows,
        };
        self.emit_op_span(core, &outcome);
        st.outcomes.push(outcome);
        if !self.txn_rt.open_loop && txn.attempt < txn.spec.retries {
            // In-place retry: the stream immediately re-runs the
            // transaction from its first op as a fresh attempt. Charges
            // the aborted attempt paid stay paid.
            self.txn_rt.stats.begun += 1;
            txn.attempt += 1;
            txn.id = self.txn_rt.next_id;
            self.txn_rt.next_id += 1;
            txn.next = 0;
            txn.intents.clear();
            txn.start = st.now;
            txn.rows = 0;
            let (id, attempt, at) = (txn.id, u64::from(txn.attempt), st.now);
            self.tracer.emit(|| {
                TraceEvent::instant(
                    Track::Core(core as u32),
                    TraceEventKind::TxnBegin,
                    at,
                    id,
                    attempt,
                )
            });
            st.active_txn = Some(txn);
        }
    }

    /// Commits a transaction: capacity-checks every insert (a full table
    /// sheds the whole transaction, publishing nothing), then applies
    /// every intent and releases the claims.
    fn commit_txn<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        mut txn: ActiveTxn<'_>,
        observer: &mut F,
    ) where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        // Capacity pre-check so the commit is all-or-nothing: project the
        // row count of every appended-to table (and columnar copy)
        // across *this* transaction's inserts.
        let mut projected: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut shed = false;
        for intent in &txn.intents {
            if let TxnOp::Insert {
                table, columnar, ..
            } = *intent
            {
                let e = projected
                    .entry(table.base_addr())
                    .or_insert((table.num_rows(), table.capacity_rows()));
                e.0 += 1;
                shed |= e.0 > e.1;
                if let Some(ct) = columnar {
                    let key = ct.column_base(0).expect("schemas have at least one column");
                    let e = projected
                        .entry(key)
                        .or_insert((ct.num_rows(), ct.capacity_rows()));
                    e.0 += 1;
                    shed |= e.0 > e.1;
                }
            }
        }
        if shed {
            for key in txn.claimed.drain(..) {
                self.txn_rt.claims.remove(&key);
            }
            self.txn_rt.stats.aborted_shed += 1;
            self.txn_rt.aborts.push(TxnAbort {
                core,
                op: txn.op_idx,
                attempt: txn.attempt,
                at: st.now,
            });
            let (id, at) = (txn.id, st.now);
            self.tracer.emit(|| {
                TraceEvent::instant(Track::Core(core as u32), TraceEventKind::TxnAbort, at, id, 1)
            });
            let outcome = OpOutcome {
                op: txn.op_idx,
                kind: OpKind::TxnAbortShed,
                start: txn.start,
                end: st.now,
                rows: txn.rows,
            };
            self.emit_op_span(core, &outcome);
            st.outcomes.push(outcome);
            return;
        }

        let cts = self.txn_rt.next_commit_ts;
        self.txn_rt.next_commit_ts += 1;
        let intents = std::mem::take(&mut txn.intents);
        let num_intents = intents.len() as u64;
        for intent in intents {
            match intent {
                TxnOp::Update {
                    table,
                    row,
                    column,
                    value,
                } => {
                    // The exact in-place point-update body, charged at
                    // commit time...
                    let out =
                        self.point_update(core, st, txn.op_idx, table, row, column, value, observer);
                    txn.rows += out.rows;
                    // ...plus, on MVCC tables, the version handoff: the
                    // header is restamped to begin at the commit
                    // timestamp and forced to DRAM.
                    if table.mvcc().is_enabled() {
                        self.mem
                            .write(table.row_addr(row), &encode_header(cts, 0));
                        self.commit_stamp(core, st, table.row_addr(row));
                    }
                }
                TxnOp::Delete { table, row } => {
                    // The exact point-delete body (ending the version at
                    // the commit timestamp), plus the durability write.
                    let out = self.point_delete(core, st, txn.op_idx, table, row, cts);
                    txn.rows += out.rows;
                    self.commit_stamp(core, st, table.row_addr(row));
                }
                TxnOp::Insert {
                    table,
                    columnar,
                    values,
                } => {
                    self.publish_insert(core, st, table, columnar, values, cts);
                    self.txn_rt.stats.rows_inserted += 1;
                    txn.rows += 1;
                    st.rows += 1;
                }
                TxnOp::Read { .. } => unreachable!("reads are never buffered as intents"),
            }
        }
        for key in txn.claimed.drain(..) {
            self.txn_rt.claims.remove(&key);
        }
        self.txn_rt.stats.committed += 1;
        let (id, at) = (txn.id, st.now);
        self.tracer.emit(|| {
            TraceEvent::instant(
                Track::Core(core as u32),
                TraceEventKind::TxnCommit,
                at,
                id,
                num_intents,
            )
        });
        let outcome = OpOutcome {
            op: txn.op_idx,
            kind: OpKind::TxnCommit,
            start: txn.start,
            end: st.now,
            rows: txn.rows,
        };
        self.emit_op_span(core, &outcome);
        st.outcomes.push(outcome);
    }

    /// Forces 16 bytes at `addr` (a version header) to DRAM: one cache
    /// write for the stamp itself plus an explicit, *synchronous* DRAM
    /// write request — durability means the commit is not observable
    /// before its write is ordered, so this never goes through the
    /// cycle-accurate model's write buffer and its tWR/tWTR constraints
    /// always bite on commits. (Dirty-eviction writebacks are the
    /// asynchronous counterpart, emitted only on the cycle-accurate
    /// model.)
    fn commit_stamp(&mut self, core: usize, st: &mut StreamState<'_, '_>, addr: u64) {
        let front = &mut self.cores[core];
        let mut backend = DramBackend {
            dram: &mut self.dram,
            line_bytes: self.cfg.l1.line_bytes,
            core,
        };
        let out = front.write(addr, 16, st.now, &mut self.l2, &mut backend);
        st.now = out.completion;
        let done = self.dram.access(
            MemRequest::new(addr, 16, st.now)
                .with_requestor(Requestor::Core(core))
                .as_write(),
        );
        st.now = done.finish;
    }

    /// Publishes one inserted row: appends to the row table (visible from
    /// the commit timestamp), writes the fresh physical bytes through the
    /// cache (cold lines — nothing has ever touched them) and forces them
    /// to DRAM, then does the same per column of the optional columnar
    /// copy.
    fn publish_insert(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        table: &RowTable,
        columnar: Option<&ColumnarTable>,
        values: &[u64],
        cts: Timestamp,
    ) {
        let idx = table
            .append(&mut self.mem, &Row::from_u64s(values), cts)
            .expect("capacity pre-checked at commit");
        let addr = table.row_addr(idx);
        let bytes = table.physical_row_bytes();
        {
            let front = &mut self.cores[core];
            let mut backend = DramBackend {
                dram: &mut self.dram,
                line_bytes: self.cfg.l1.line_bytes,
                core,
            };
            let out = front.write(addr, bytes, st.now, &mut self.l2, &mut backend);
            st.now = out.completion;
        }
        let done = self.dram.access(
            MemRequest::new(addr, bytes, st.now)
                .with_requestor(Requestor::Core(core))
                .as_write(),
        );
        st.now = done.finish;
        let cpu = self.cost.fields(values.len());
        st.now += cpu;
        st.cpu += cpu;

        if let Some(ct) = columnar {
            let vals: Vec<Value> = values.iter().map(|&v| Value::UInt(v)).collect();
            let cidx = ct
                .append(&mut self.mem, &vals)
                .expect("capacity pre-checked at commit");
            for col in 0..ct.schema().num_columns() {
                let width = ct.schema().width(col).expect("valid column");
                let addr = ct.column_base(col).expect("valid column") + cidx * width as u64;
                {
                    let front = &mut self.cores[core];
                    let mut backend = DramBackend {
                        dram: &mut self.dram,
                        line_bytes: self.cfg.l1.line_bytes,
                        core,
                    };
                    let out = front.write(addr, width, st.now, &mut self.l2, &mut backend);
                    st.now = out.completion;
                }
                let done = self.dram.access(
                    MemRequest::new(addr, width, st.now)
                        .with_requestor(Requestor::Core(core))
                        .as_write(),
                );
                st.now = done.finish;
            }
        }
    }
}
