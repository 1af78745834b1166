//! Figure 10: conflict-aware parallel intra-partition execution.
//!
//! Sweeps worker-pool width × workload conflict rate on a single-partition
//! Chirper deployment where execution — not ordering — is the bottleneck:
//! the per-command service time is raised to 1 ms and 64 closed-loop
//! clients keep the execution queue deep (ordering stays at the unbatched
//! default, which never binds here). The conflict rate
//! is dialed with the Zipf user-selection skew: at high skew most commands
//! touch the same hot users, so a post's write set keeps intersecting the
//! window and the scheduler degrades toward serial; at low skew the
//! 90%-read mix parallelizes almost perfectly.
//!
//! Simulated completions are deterministic per point (no wall-clock in the
//! numbers), so the committed `results/BENCH_exec.json` doubles as a
//! schedule pin: `--check-against` gates each cell's commands/sim-s
//! against the same (workers, theta) cell there.

use std::sync::Arc;

use dynastar_bench::harness::{Args, Opt, Record, Row, Spec, CHECK_AGAINST, OUT};
use dynastar_bench::report::print_table;
use dynastar_bench::setup::{chirper_cluster, run_parallel, ChirperSetup, Placement};
use dynastar_core::metric_names as mn;
use dynastar_core::{ExecConfig, Mode};
use dynastar_runtime::SimDuration;
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};

/// ≥90%-read mix (the acceptance workload): timelines dominate, posts
/// supply the conflicting writes.
const MIX: ChirperMix = ChirperMix { timeline: 90, post: 10, follow: 0, unfollow: 0 };

/// Closed-loop clients; far more than the widest pool so queue depth, not
/// offered load, limits parallelism.
const CLIENTS: usize = 64;

/// One sweep cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    workers: u32,
    /// Zipf skew of user selection — the conflict-rate knob.
    theta: f64,
    sim_secs: u64,
}

/// One cell's measurements.
#[derive(Debug, Clone)]
struct Point {
    cell: Cell,
    completed: u64,
    cmds_per_sim_sec: f64,
    exec_parallel: u64,
    exec_serialized: u64,
    exec_window_stall: u64,
}

fn run_point(cell: Cell) -> Point {
    let mut setup = ChirperSetup::new(1, Mode::Dynastar);
    // Pure execution-scaling experiment: one partition, no repartitioning.
    setup.placement = Placement::Aligned;
    setup.cluster.repartition_threshold = u64::MAX;
    setup.cluster.exec = ExecConfig::pool(cell.workers, SimDuration::from_millis(1));
    let (mut cluster, graph) = chirper_cluster(&setup);
    for _ in 0..CLIENTS {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), cell.theta, MIX));
    }
    cluster.run_for(SimDuration::from_secs(cell.sim_secs));
    let m = cluster.metrics();
    let completed = m.counter(mn::CMD_COMPLETED);
    Point {
        cell,
        completed,
        cmds_per_sim_sec: completed as f64 / cell.sim_secs as f64,
        exec_parallel: m.counter(mn::EXEC_PARALLEL),
        exec_serialized: m.counter(mn::EXEC_SERIALIZED),
        exec_window_stall: m.counter(mn::EXEC_WINDOW_STALL),
    }
}

/// Serial (workers = 1) throughput for `theta` within `points`, if swept.
fn serial_baseline(points: &[Point], theta: f64) -> Option<f64> {
    points.iter().find(|p| p.cell.workers == 1 && p.cell.theta == theta).map(|p| p.cmds_per_sim_sec)
}

static SPEC: Spec = Spec {
    program: "fig10_parallel_execution",
    positionals: &[],
    opts: &[
        Opt::Switch("smoke", "only {1, 8} workers at the middle conflict rate (CI gate)"),
        OUT,
        CHECK_AGAINST,
    ],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let smoke = args.has("smoke");

    let (workers, thetas, sim_secs): (&[u32], &[f64], u64) =
        if smoke { (&[1, 8], &[0.90], 3) } else { (&[1, 2, 4, 8], &[0.20, 0.90, 0.99], 5) };
    println!(
        "Figure 10 — conflict-aware parallel execution ({}% reads, {CLIENTS} clients, 1 ms \
         service, single partition)\n",
        MIX.timeline
    );

    let cells: Vec<Cell> = thetas
        .iter()
        .flat_map(|&theta| workers.iter().map(move |&w| Cell { workers: w, theta, sim_secs }))
        .collect();
    let points = run_parallel(cells, 0, run_point);

    let mut rows = Vec::new();
    for p in &points {
        let speedup = serial_baseline(&points, p.cell.theta)
            .map(|s| format!("{:.2}x", p.cmds_per_sim_sec / s))
            .unwrap_or_else(|| "-".into());
        rows.push(vec![
            format!("{:.2}", p.cell.theta),
            format!("{}", p.cell.workers),
            format!("{}", p.completed),
            format!("{:.0}", p.cmds_per_sim_sec),
            speedup,
            format!("{}", p.exec_parallel),
            format!("{}", p.exec_serialized),
            format!("{}", p.exec_window_stall),
        ]);
    }
    print_table(
        &[
            "theta",
            "workers",
            "completed",
            "cmds/sim-s",
            "speedup",
            "parallel",
            "serialized",
            "stalls",
        ],
        &rows,
    );
    println!("\nexpected shape: near-linear speedup at low skew under a >=90% read mix;");
    println!("rising skew funnels writes onto hot users, serialized admissions climb");
    println!("and the speedup erodes while the schedule stays deterministic.");

    // `speedup_vs_serial` is left out of cells whose sweep lacks the
    // matching workers = 1 point.
    let mut record = Record::new(SPEC.program, &["workers", "theta"]);
    for p in &points {
        let mut row = Row::new()
            .num("workers", p.cell.workers)
            .float("theta", p.cell.theta, 2)
            .num("sim_secs", p.cell.sim_secs)
            .num("completed", p.completed)
            .float("cmds_per_sim_sec", p.cmds_per_sim_sec, 1);
        if let Some(serial) = serial_baseline(&points, p.cell.theta) {
            row = row.float("speedup_vs_serial", p.cmds_per_sim_sec / serial, 2);
        }
        record.rows.push(
            row.num("exec_parallel", p.exec_parallel)
                .num("exec_serialized", p.exec_serialized)
                .num("exec_window_stall", p.exec_window_stall),
        );
    }
    record.write_out(&args);
    // The numbers are deterministic, so a drop means the schedule itself
    // changed.
    record.gate(&args, "cmds_per_sim_sec", true);
}
