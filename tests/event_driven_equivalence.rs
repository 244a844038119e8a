//! Writeback behaviour of the event-driven memory path.
//!
//! The memory path is event-driven: the cache hierarchy notifies every
//! dirty L2 eviction to its backend, which issues it asynchronously
//! through the DRAM completion queue. Those writebacks become real DRAM
//! writes only under the cycle-accurate model, where tWR/tWTR exist to
//! observe them; the occupancy model (and every golden fixture built on
//! it) never sees them.
//!
//! The reference for both tests is the same point stream with its updates
//! replaced by lookups of the same rows: it fills exactly the same lines
//! but dirties none, so any difference between the two runs is the cost
//! of the writebacks. The `update_heavy_ca_event` golden fixture locks the
//! cycle-accurate counters of this stream.

use relational_memory::core::system::{RowEffect, SystemConfig};
use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
use relational_memory::dram::DramStats;
use relational_memory::prelude::*;
use relmem_sim::{MemoryModel, SimTime};

/// One run of the point stream.
struct UpdateRun {
    end: SimTime,
    /// Order-sensitive checksum of every value the lookups read back.
    checksum: u64,
    dram: DramStats,
}

/// A point stream sized to overflow the L2: with `updates`, every second
/// op is an update, so dirty lines are evicted while the stream is still
/// running; without, those ops are lookups of the same rows.
fn run_update_heavy(model: MemoryModel, updates: bool) -> UpdateRun {
    // Touch more distinct lines than the L2 holds, so dirty lines are
    // evicted while the stream is still running.
    let rows: u64 = 40_000;
    let mut config = SystemConfig {
        cores: 1,
        mem_bytes: 32 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = model;
    let mut sys = System::with_config(config);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(3)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    let columns = [1usize];
    let ops: Vec<WorkloadOp> = (0..40_000u64)
        .map(|i| {
            let row = i.wrapping_mul(2654435761) % rows;
            if updates && i % 2 == 0 {
                WorkloadOp::PointUpdate {
                    table: &table,
                    row,
                    column: 1,
                    value: i,
                }
            } else {
                WorkloadOp::PointLookup {
                    table: &table,
                    columns: &columns,
                    row,
                }
            }
        })
        .collect();
    let workload = Workload::new(vec![QueryStream::new(ops)]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let mut checksum = 0u64;
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, vals| {
            checksum = vals
                .iter()
                .fold(checksum, |a, &v| a.wrapping_mul(31).wrapping_add(v));
            RowEffect::default()
        })
        .expect("valid workload");
    UpdateRun {
        end: run.end,
        checksum,
        dram: sys.dram_stats().clone(),
    }
}

/// Under the cycle-accurate model, the dirty-eviction-heavy update stream
/// must produce real DRAM write traffic (writes and writebacks both
/// nonzero) and that traffic must cost time: tWR/tWTR turnaround penalties
/// push the makespan past the lookup-only run of the same rows, which
/// dirties nothing and so never sees a writeback.
#[test]
fn ca_event_mode_charges_writeback_traffic() {
    let clean = run_update_heavy(MemoryModel::CycleAccurate, false);
    let dirty = run_update_heavy(MemoryModel::CycleAccurate, true);
    assert_eq!(
        clean.dram.writebacks, 0,
        "a stream that dirties nothing never emits writebacks"
    );
    assert!(
        dirty.dram.writebacks > 0,
        "dirty evictions must surface as writebacks: {:?}",
        dirty.dram
    );
    assert_eq!(
        dirty.dram.writes,
        clean.dram.writes + dirty.dram.writebacks
    );
    assert!(
        dirty.end > clean.end,
        "writeback traffic must cost tWR/tWTR time: clean {:?}, dirty {:?}",
        clean.end,
        dirty.end
    );
    // The writebacks change timing only: the data read back is the
    // occupancy model's.
    let occ = run_update_heavy(MemoryModel::Occupancy, true);
    assert_eq!(occ.checksum, dirty.checksum, "the timing model changed the data");
}

/// The same stream under the occupancy model: writebacks stay gated off,
/// so the update stream is bit-identical in timing and DRAM counters to
/// the lookup-only run of the same rows — the behavioural change is
/// confined to the cycle-accurate model.
#[test]
fn occupancy_update_stream_is_unchanged_by_event_mode() {
    let clean = run_update_heavy(MemoryModel::Occupancy, false);
    let dirty = run_update_heavy(MemoryModel::Occupancy, true);
    assert_eq!(clean.dram.writebacks, 0);
    assert_eq!(dirty.dram.writebacks, 0, "occupancy never emits writebacks");
    assert_eq!(clean.dram, dirty.dram);
    assert_eq!(clean.end, dirty.end);
}
