//! HTAP isolation: concurrent per-core query streams (beyond the paper's
//! single-threaded evaluation).
//!
//! The paper's central promise is that ephemeral variables let analytics
//! run *beside* transactional row-wise traffic. This experiment measures
//! exactly that with the workload-stream subsystem: core 0 runs an OLTP
//! stream of point lookups and in-place updates against the row table
//! while every other core runs an analytical single-column scan — either
//! reading the rows directly (the baseline that trashes the memory system
//! with full 64-byte-row traffic) or through the RME (which moves the
//! column as densely packed frames fetched by the engine).
//!
//! Reported per core count (1 = interference-free OLTP baseline, 2/4/8 =
//! one, three and seven concurrent scan streams — 8 being a hypothetical
//! doubled cluster beyond the ZCU102's four A53s): aggregate OLAP scan
//! throughput,
//! OLTP p50/p99/max latency, and the p99 degradation factor against the
//! baseline. The headline number is the degradation — OLTP tail latency
//! degrades less when the scans go through the engine, because the packed
//! projection issues ~row_bytes/column_width fewer cache lines per logical
//! row, polluting neither the shared L2 banks nor the DRAM bus the point
//! queries depend on. `tests/workload.rs` gates the ordering; this harness
//! quantifies it. The RME path is measured both cold (first access
//! triggers the frame fetch) and hot (Reorganization Buffer prewarmed —
//! the steady-state case).
//!
//! **The max column on the cold path:** the engine books a frame's DRAM
//! traffic line by line as the scans demand it rather than as one
//! monolithic reservation, and CPU point traffic is admitted with demand
//! priority over the engine's paced prefetch stream, mirroring the
//! ZCU102's PS–PL interconnect QoS. So no single OLTP op absorbs a whole
//! frame fetch: the cold-path max stays on the scale of the percentiles.

use relmem_core::system::{RowEffect, ScanSource, SystemConfig};
use relmem_core::workload::{QueryStream, Workload, WorkloadOp};
use relmem_core::{
    AccessPath, AdmissionConfig, DegradePolicy, OpenLoopOp, OpenLoopStream, OpenLoopWorkload,
    System,
};
use relmem_sim::report::{series_table, Series};
use relmem_sim::{OverloadStats, SimTime, Trace};
use relmem_storage::{ColumnGroup, DataGen, MvccConfig, RowTable, Schema};

use super::Experiment;

/// Which path the analytical streams take.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OlapPath {
    Direct,
    RmeCold,
    RmeHot,
}

/// One (path, cores) measurement.
struct HtapPoint {
    olap_mfields_s: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

const SCAN_COLUMNS: [usize; 1] = [0];
const OLTP_COLUMNS: [usize; 2] = [1, 2];

fn run_htap(rows: u64, oltp_ops: u64, cores: usize, path: OlapPath) -> HtapPoint {
    let mut sys = System::with_config(SystemConfig {
        cores,
        mem_bytes: ((rows * 64) as usize + (64 << 20)).next_power_of_two(),
        ..SystemConfig::default()
    });
    let schema = Schema::benchmark(4, 4, 64);
    let mut table: RowTable = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .expect("table fits");
    DataGen::new(1)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .expect("fill");

    let var;
    let scan_source = match path {
        OlapPath::RmeCold | OlapPath::RmeHot => {
            var = sys
                .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
                .expect("ephemeral registers");
            ScanSource::Ephemeral { var: &var }
        }
        OlapPath::Direct => ScanSource::Rows {
            table: &table,
            columns: &SCAN_COLUMNS,
            snapshot: None,
        },
    };

    // Core 0: deterministic point traffic — four lookups then one update,
    // rows spread by a Knuth-style multiplicative hash.
    let oltp: Vec<WorkloadOp> = (0..oltp_ops)
        .map(|i| {
            let row = i.wrapping_mul(2654435761) % rows;
            if i % 5 == 4 {
                WorkloadOp::PointUpdate {
                    table: &table,
                    row,
                    column: 1,
                    value: i,
                }
            } else {
                WorkloadOp::PointLookup {
                    table: &table,
                    columns: &OLTP_COLUMNS,
                    row,
                }
            }
        })
        .collect();
    let mut streams = vec![QueryStream::new(oltp)];
    for _ in 1..cores {
        streams.push(QueryStream::new(vec![WorkloadOp::olap(scan_source)]));
    }
    let workload = Workload::new(streams);

    sys.begin_measurement(match path {
        OlapPath::RmeCold => AccessPath::RmeCold,
        OlapPath::RmeHot => AccessPath::RmeHot,
        OlapPath::Direct => AccessPath::DirectRowWise,
    });
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    assert_eq!(run.olap_rows(), (cores as u64 - 1) * rows);

    let mut lat = run.oltp_latencies();
    let olap_end = run
        .streams
        .iter()
        .skip(1)
        .map(|s| s.end)
        .fold(SimTime::ZERO, SimTime::max);
    HtapPoint {
        olap_mfields_s: if olap_end.is_zero() {
            0.0
        } else {
            run.olap_rows() as f64 / olap_end.as_nanos_f64() * 1e9 / 1e6
        },
        p50_us: lat.p50().as_micros_f64(),
        p99_us: lat.p99().as_micros_f64(),
        max_us: lat.max().as_micros_f64(),
    }
}

/// Runs the HTAP mixed-stream sweep: 1/2/4 cores, direct vs. RME scans.
pub fn fig_htap(quick: bool) -> Experiment {
    let rows: u64 = if quick { 30_000 } else { 150_000 };
    let oltp_ops: u64 = if quick { 500 } else { 2_000 };

    // Interference-free OLTP baseline: one stream, one core, no scans.
    let baseline = run_htap(rows, oltp_ops, 1, OlapPath::Direct);

    const PATHS: [(OlapPath, &str); 3] = [
        (OlapPath::Direct, "direct"),
        (OlapPath::RmeCold, "RME cold"),
        (OlapPath::RmeHot, "RME hot"),
    ];
    let mut olap: Vec<Series> = PATHS
        .iter()
        .map(|(_, n)| Series::new(format!("OLAP Mrows/s ({n})")))
        .collect();
    let mut p50: Vec<Series> = PATHS
        .iter()
        .map(|(_, n)| Series::new(format!("p50 us ({n})")))
        .collect();
    let mut p99: Vec<Series> = PATHS
        .iter()
        .map(|(_, n)| Series::new(format!("p99 us ({n})")))
        .collect();
    let mut max: Vec<Series> = PATHS
        .iter()
        .map(|(_, n)| Series::new(format!("max us ({n})")))
        .collect();
    let mut deg: Vec<Series> = PATHS
        .iter()
        .map(|(_, n)| Series::new(format!("p99 degradation x ({n})")))
        .collect();

    let one = "1 core (baseline)".to_string();
    for i in 0..PATHS.len() {
        olap[i].push(one.clone(), 0.0);
        p50[i].push(one.clone(), baseline.p50_us);
        p99[i].push(one.clone(), baseline.p99_us);
        max[i].push(one.clone(), baseline.max_us);
        deg[i].push(one.clone(), 1.0);
    }

    for cores in [2usize, 4, 8] {
        let label = format!("{cores} cores ({} scan streams)", cores - 1);
        for (i, (path, _)) in PATHS.iter().enumerate() {
            let point = run_htap(rows, oltp_ops, cores, *path);
            olap[i].push(label.clone(), point.olap_mfields_s);
            p50[i].push(label.clone(), point.p50_us);
            p99[i].push(label.clone(), point.p99_us);
            max[i].push(label.clone(), point.max_us);
            deg[i].push(label.clone(), point.p99_us / baseline.p99_us);
        }
    }

    let tables = vec![
        series_table(
            "HTAP: aggregate OLAP scan throughput beside an OLTP stream",
            "Streams",
            &olap,
        ),
        series_table(
            "HTAP: OLTP point-query latency under concurrent scans",
            "Streams",
            &[p50, p99, max].concat(),
        ),
        series_table(
            "HTAP: OLTP p99 degradation vs. interference-free baseline",
            "Streams",
            &deg,
        ),
    ];
    Experiment {
        id: "fig_htap",
        description: "Concurrent per-core HTAP streams: OLTP point queries on core 0 while the \
                      remaining cores scan one column — tail latency degrades less when the \
                      scans go through the RME than when they read the rows directly"
            .to_string(),
        tables,
    }
}

/// Arrival-rate factors swept relative to the calibrated OLTP service rate.
/// The knee sits at the first factor whose shed rate becomes material.
const RATE_FACTORS: [f64; 5] = [0.2, 0.5, 1.0, 2.0, 4.0];

/// One arrival-rate measurement of the open-loop sweep.
struct OverloadPoint {
    stats: OverloadStats,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    max_us: f64,
    queue_p99_us: f64,
}

/// Closed-loop calibration run (4 cores, direct scans — the worst-case
/// interference the open-loop sweep then pushes past saturation): returns
/// the mean contended OLTP latency in nanoseconds and the duration of one
/// full analytical scan.
fn calibrate(rows: u64, oltp_ops: u64) -> (f64, SimTime) {
    let mut sys = System::with_config(SystemConfig {
        cores: 4,
        mem_bytes: ((rows * 64) as usize + (64 << 20)).next_power_of_two(),
        ..SystemConfig::default()
    });
    let schema = Schema::benchmark(4, 4, 64);
    let mut table: RowTable = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .expect("table fits");
    DataGen::new(1)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .expect("fill");

    let oltp: Vec<WorkloadOp> = (0..oltp_ops)
        .map(|i| oltp_op(&table, i, rows))
        .collect();
    let scan = ScanSource::Rows {
        table: &table,
        columns: &SCAN_COLUMNS,
        snapshot: None,
    };
    let mut streams = vec![QueryStream::new(oltp)];
    for _ in 1..4 {
        streams.push(QueryStream::new(vec![WorkloadOp::olap(scan)]));
    }
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(
            &Workload::new(streams),
            SimTime::ZERO,
            |_, _, _, _| RowEffect::default(),
        )
        .expect("valid workload");
    let mean_ns = run.oltp_latencies().mean_nanos().max(1.0);
    let scan_dur = run.streams[1].ops[0].latency().max(SimTime::from_nanos(1));
    (mean_ns, scan_dur)
}

/// The deterministic OLTP op mix shared by calibration and the open-loop
/// template: four lookups then one update, rows spread by a Knuth-style
/// multiplicative hash.
fn oltp_op(table: &RowTable, i: u64, rows: u64) -> WorkloadOp<'_> {
    let row = i.wrapping_mul(2654435761) % rows;
    if i % 5 == 4 {
        WorkloadOp::PointUpdate {
            table,
            row,
            column: 1,
            value: i,
        }
    } else {
        WorkloadOp::PointLookup {
            table,
            columns: &OLTP_COLUMNS,
            row,
        }
    }
}

/// One open-loop run at a given OLTP arrival rate: core 0 takes the
/// point-query traffic, cores 1–3 take quasi-continuous analytical scans
/// that degrade from the direct path to the RME path under pressure.
#[allow(clippy::too_many_arguments)] // private sweep helper
fn run_htap_open_loop(
    rows: u64,
    oltp_rate: f64,
    oltp_arrivals: u64,
    scan_rate: f64,
    scan_arrivals: u64,
    scan_dur: SimTime,
    mean_ns: f64,
    trace: bool,
) -> (OverloadPoint, Option<Trace>) {
    let mut sys = System::with_config(SystemConfig {
        cores: 4,
        mem_bytes: ((rows * 64) as usize + (64 << 20)).next_power_of_two(),
        ..SystemConfig::default()
    });
    let schema = Schema::benchmark(4, 4, 64);
    let mut table: RowTable = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .expect("table fits");
    DataGen::new(1)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .expect("fill");
    let var = sys
        .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
        .expect("ephemeral registers");

    let oltp_template: Vec<OpenLoopOp> = (0..100)
        .map(|i| OpenLoopOp::new(oltp_op(&table, i, rows)))
        .collect();
    let scan_template = vec![OpenLoopOp::with_degraded(
        WorkloadOp::olap(ScanSource::Rows {
            table: &table,
            columns: &SCAN_COLUMNS,
            snapshot: None,
        }),
        WorkloadOp::olap(ScanSource::Ephemeral { var: &var }),
    )];

    let mut streams = vec![OpenLoopStream::new(oltp_template, oltp_rate, oltp_arrivals)];
    for _ in 1..4 {
        streams.push(OpenLoopStream::new(
            scan_template.clone(),
            scan_rate,
            scan_arrivals,
        ));
    }
    let workload = OpenLoopWorkload::new(streams);

    let cfg = AdmissionConfig {
        seed: 42,
        queue_capacity: 32,
        // The budget and timeout are sized in scan units: far above any
        // wait a point query sees below saturation, above the typical
        // wait of a queued scan — so sheds past the knee come from the
        // bounded queue, not from a hair-trigger deadline.
        delay_budget: Some(scan_dur.scaled(8)),
        timeout: Some(scan_dur.scaled(16)),
        max_retries: 2,
        retry_backoff: SimTime::from_nanos(mean_ns as u64 + 1),
        degrade: Some(DegradePolicy {
            high_watermark: 24,
            low_watermark: 4,
            trigger_after: 8,
            clear_after: 16,
        }),
    };

    sys.begin_measurement(AccessPath::DirectRowWise);
    // Trace only the measured run: tracing goes on after the tables are
    // built and filled, so setup traffic never reaches the buffers.
    sys.set_tracing(trace);
    let run = sys
        .run_open_loop(&workload, &cfg, SimTime::ZERO, |_, _, _, _| {
            RowEffect::default()
        })
        .expect("valid open-loop workload");
    let captured = trace.then(|| sys.take_trace());
    let mut lat = run.oltp_latencies();
    let mut queue = run.queue_delays();
    let point = OverloadPoint {
        p50_us: lat.p50().as_micros_f64(),
        p99_us: lat.p99().as_micros_f64(),
        p999_us: lat.p999().as_micros_f64(),
        max_us: lat.max().as_micros_f64(),
        queue_p99_us: queue.p99().as_micros_f64(),
        stats: run.overload,
    };
    (point, captured)
}

/// Runs the open-loop arrival-rate sweep: OLTP arrivals from 0.2× to 4×
/// the calibrated contended service rate, reporting the saturation knee
/// and how shedding plus graceful degradation behave past it.
pub fn fig_htap_open_loop(quick: bool) -> Experiment {
    fig_htap_open_loop_traced(quick, false).0
}

/// [`fig_htap_open_loop`], optionally recording a trace of the headline
/// overload point — the 4× arrival-rate run, where shedding, retries and
/// graceful degradation are all active.
pub fn fig_htap_open_loop_traced(quick: bool, trace: bool) -> (Experiment, Option<Trace>) {
    let rows: u64 = if quick { 10_000 } else { 40_000 };
    let cal_ops: u64 = if quick { 400 } else { 1_000 };
    let oltp_arrivals: u64 = if quick { 400 } else { 1_200 };
    let scan_arrivals: u64 = if quick { 6 } else { 10 };

    let (mean_ns, scan_dur) = calibrate(rows, cal_ops);
    // At 1.0× the OLTP stream arrives exactly as fast as the contended
    // closed-loop system served it; past that the queue must grow.
    let base_rate = 1e9 / mean_ns;
    // Scans re-arrive a little slower than they complete: the analytical
    // side stays busy without being the overloaded resource.
    let scan_rate = 1e9 / (1.5 * scan_dur.as_nanos_f64());

    let accounting_names = [
        "arrivals",
        "retries",
        "admitted",
        "shed (queue full)",
        "shed (deadline)",
        "timed out",
        "completed",
        "degraded ops",
        "degrade transitions",
        "max queue depth",
    ];
    let mut accounting: Vec<Series> = accounting_names
        .iter()
        .map(|n| Series::new((*n).to_string()))
        .collect();
    let latency_names = [
        "OLTP p50 us",
        "OLTP p99 us",
        "OLTP p99.9 us",
        "OLTP max us",
        "queue-delay p99 us",
    ];
    let mut latency: Vec<Series> = latency_names
        .iter()
        .map(|n| Series::new((*n).to_string()))
        .collect();

    let mut points: Vec<OverloadPoint> = Vec::new();
    let mut captured: Option<Trace> = None;
    let last_factor = RATE_FACTORS[RATE_FACTORS.len() - 1];
    for factor in RATE_FACTORS {
        let (point, run_trace) = run_htap_open_loop(
            rows,
            base_rate * factor,
            oltp_arrivals,
            scan_rate,
            scan_arrivals,
            scan_dur,
            mean_ns,
            trace && factor == last_factor,
        );
        if run_trace.is_some() {
            captured = run_trace;
        }
        let label = format!("{factor}x");
        let s = &point.stats;
        for (series, value) in accounting.iter_mut().zip([
            s.arrivals as f64,
            s.retries as f64,
            s.admitted as f64,
            s.shed_queue_full as f64,
            s.shed_deadline as f64,
            s.timed_out as f64,
            s.completed as f64,
            s.degraded_ops as f64,
            s.transitions.len() as f64,
            s.max_queue_depth as f64,
        ]) {
            series.push(label.clone(), value);
        }
        for (series, value) in latency.iter_mut().zip([
            point.p50_us,
            point.p99_us,
            point.p999_us,
            point.max_us,
            point.queue_p99_us,
        ]) {
            series.push(label.clone(), value);
        }
        points.push(point);
    }

    let knee = RATE_FACTORS
        .iter()
        .zip(&points)
        .find(|(_, p)| p.stats.shed_rate() > 0.01)
        .map(|(f, _)| *f);

    // The CI smoke run leans on these: well below the knee nothing is
    // shed; past it the bounded queue must reject.
    let first = points.first().expect("sweep is non-empty");
    let last = points.last().expect("sweep is non-empty");
    assert_eq!(
        first.stats.shed(),
        0,
        "no sheds at {}x the calibrated service rate",
        RATE_FACTORS[0]
    );
    assert!(
        last.stats.shed() > 0,
        "the bounded queue must shed at {}x the calibrated service rate",
        RATE_FACTORS[RATE_FACTORS.len() - 1]
    );

    let tables = vec![
        series_table(
            "Open-loop HTAP: admission accounting vs. OLTP arrival rate \
             (factors of the calibrated contended service rate)",
            "Arrival rate",
            &accounting,
        ),
        series_table(
            "Open-loop HTAP: admitted-op OLTP latency vs. arrival rate",
            "Arrival rate",
            &latency,
        ),
    ];
    let experiment = Experiment {
        id: "fig_htap_openloop",
        description: format!(
            "Open-loop arrival-rate sweep of the HTAP mix (calibrated contended OLTP service \
             time {:.0} ns): the saturation knee sits at {} the calibrated rate; past it the \
             bounded admission queue sheds, timed-out ops retry with backoff, and sustained \
             pressure downgrades the concurrent scans from the direct path to the RME path",
            mean_ns,
            match knee {
                Some(f) => format!("{f}x"),
                None => "beyond 4x".to_string(),
            }
        ),
        tables,
    };
    (experiment, captured)
}
