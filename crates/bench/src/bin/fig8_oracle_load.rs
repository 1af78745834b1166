//! Figure 8: throughput at the oracle — cache dynamics and shard scaling.
//!
//! Two experiments share this binary:
//!
//! **Timeline** (the paper's fig8 shape, with measurement windows): clients
//! start with *cold* location caches, so the opening seconds drive every
//! command through the oracle (the cold window); caches fill and queries
//! decay toward zero (the steady window); a repartitioning mid-run
//! invalidates cached entries and queries spike again. The table reports
//! oracle queries/s, completed commands/s and the cache-miss rate
//! (queries per completed command) per second, and the summary pins the
//! cold-window and steady-window means — the old version of this figure
//! only showed the decay to ~0 and measured nothing.
//!
//! **Shard sweep** (the scaling claim): with client caching disabled every
//! command queries the oracle first — a permanent flash crowd — and the
//! ordering pipeline pinned to one in-flight consensus instance per
//! leader makes each group's leader a genuine serialization point (the
//! regime the paper's fig8 discussion points at). Sweeping the oracle
//! across 1, 2 and 4 hash-sliced shard groups shows query throughput
//! scaling with the shard count while plan quality (edge cut) stays put.
//!
//! `--check-against` gates each shard count's queries/s against the same
//! shard count in the committed `results/BENCH_oracle.json`; rates are
//! simulated-time, so the `--smoke` windows land within a few percent of
//! the full-window baseline.

use std::sync::Arc;

use dynastar_bench::harness::{Args, Opt, Record, Row, Spec, CHECK_AGAINST, OUT};
use dynastar_bench::report::print_table;
use dynastar_bench::setup::{chirper_cluster, ChirperSetup, Placement};
use dynastar_core::metric_names as mn;
use dynastar_core::{BatchConfig, Mode};
use dynastar_runtime::SimDuration;
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};

/// Shard counts the sweep visits (the scaling claim compares last vs
/// first).
const SHARDS: [u32; 3] = [1, 2, 4];
/// Sweep partitions: enough that partition-side ordering (8 groups at one
/// instance per leader) never binds before the oracle side (at most 4).
const SWEEP_PARTITIONS: u32 = 8;
const SWEEP_CLIENTS: usize = 64;

/// One sweep point's measurements.
struct SweepPoint {
    shards: u32,
    queries_per_sec: f64,
    cmds_per_sec: f64,
    /// Mean normalized edge cut (cut / total edge weight) of the
    /// published plans — the shard-count-independent quality measure.
    cut_frac: f64,
    plans: u64,
}

/// Timeline summary (cold-start caches, one mid-run repartitioning).
struct Timeline {
    rows: Vec<Vec<String>>,
    cold_qps: f64,
    steady_qps: f64,
    cold_miss: f64,
    steady_miss: f64,
    plans: u64,
}

/// Runs the flash-crowd sweep point at `shards` oracle shards: caching
/// off, so every command resolves through the oracle, and ordering
/// pinned to one in-flight instance per leader, so the oracle groups are
/// the serialization points being scaled.
fn run_sweep_point(shards: u32, warmup: u64, measure: u64) -> SweepPoint {
    let mut setup = ChirperSetup::new(SWEEP_PARTITIONS, Mode::Dynastar);
    setup.cluster.oracle_shards = shards;
    setup.cluster.client_location_cache = false;
    setup.cluster.warm_client_caches = false;
    // Oracle leaders pinned to one in-flight instance (the serialization
    // point under test); partition ordering keeps the unbounded default
    // so it never binds first.
    setup.cluster.oracle_batch =
        Some(BatchConfig { max_batch: 1, max_batch_delay_ticks: 0, window: 1 });
    setup.cluster.min_plan_interval = SimDuration::from_secs(warmup.max(2));
    let (mut cluster, graph) = chirper_cluster(&setup);
    for _ in 0..SWEEP_CLIENTS {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX));
    }
    cluster.run_for(SimDuration::from_secs(warmup));
    let q0 = cluster.metrics().counter(mn::ORACLE_QUERIES);
    let c0 = cluster.metrics().counter(mn::CMD_COMPLETED);
    cluster.run_for(SimDuration::from_secs(measure));
    let m = cluster.metrics();
    let cut = m
        .series(mn::PLAN_EDGE_CUT)
        .map(|s| {
            // Mean normalized cut over the published plans: bucket sums
            // divided by the plan count folds the series without assuming
            // spacing.
            let total: f64 = s.bucket_sums().iter().sum();
            total / m.counter(mn::PLANS_PUBLISHED).max(1) as f64
        })
        .unwrap_or(0.0);
    SweepPoint {
        shards,
        queries_per_sec: (m.counter(mn::ORACLE_QUERIES) - q0) as f64 / measure as f64,
        cmds_per_sec: (m.counter(mn::CMD_COMPLETED) - c0) as f64 / measure as f64,
        cut_frac: cut,
        plans: m.counter(mn::PLANS_PUBLISHED),
    }
}

/// Runs the cache-dynamics timeline: cold caches, caching *on*, a single
/// repartitioning mid-run. `secs` is split into a cold window (first
/// [`COLD_SECS`]) and a steady window (last third).
const COLD_SECS: usize = 5;

fn run_timeline(secs: u64) -> Timeline {
    let mut setup = ChirperSetup::new(4, Mode::Dynastar);
    // Cold clients + a random start that the mid-run repartitioning will
    // fix: the plan is what invalidates the refilled caches.
    setup.placement = Placement::Random;
    setup.cluster.warm_client_caches = false;
    setup.cluster.repartition_threshold = 10_000;
    setup.cluster.min_plan_interval = SimDuration::from_secs(secs * 4 / 9);
    let (mut cluster, graph) = chirper_cluster(&setup);
    for _ in 0..6 {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX));
    }
    cluster.run_for(SimDuration::from_secs(secs));

    let m = cluster.metrics();
    let queries = m.series(mn::ORACLE_QUERIES).map(|s| s.rates_per_sec()).unwrap_or_default();
    let cmds = m.series(mn::CMD_COMPLETED).map(|s| s.rates_per_sec()).unwrap_or_default();
    let moves = m.series(mn::PLAN_MOVES).map(|s| s.bucket_sums().to_vec()).unwrap_or_default();

    let mut rows = Vec::new();
    for t in 0..secs as usize {
        let q = queries.get(t).copied().unwrap_or(0.0);
        let c = cmds.get(t).copied().unwrap_or(0.0);
        let miss = if c > 0.0 { q / c } else { 0.0 };
        let mv = moves.get(t).copied().unwrap_or(0.0);
        let marker = if mv > 0.0 { format!("<= plan ({mv:.0} keys moved)") } else { String::new() };
        rows.push(vec![
            format!("{t}"),
            format!("{q:.0}"),
            format!("{c:.0}"),
            format!("{miss:.2}"),
            marker,
        ]);
    }
    let window = |range: std::ops::Range<usize>, series: &[f64]| -> f64 {
        let vals: Vec<f64> = range.filter_map(|t| series.get(t).copied()).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let cold = 0..COLD_SECS.min(secs as usize);
    let steady = (secs as usize).saturating_sub(secs as usize / 3)..secs as usize;
    let (cold_q, cold_c) = (window(cold.clone(), &queries), window(cold, &cmds));
    let (steady_q, steady_c) = (window(steady.clone(), &queries), window(steady, &cmds));
    Timeline {
        rows,
        cold_qps: cold_q,
        steady_qps: steady_q,
        cold_miss: if cold_c > 0.0 { cold_q / cold_c } else { 0.0 },
        steady_miss: if steady_c > 0.0 { steady_q / steady_c } else { 0.0 },
        plans: m.counter(mn::PLANS_PUBLISHED),
    }
}

static SPEC: Spec = Spec {
    program: "fig8_oracle_load",
    positionals: &[],
    opts: &[Opt::Switch("smoke", "shortened windows (CI gate workload)"), OUT, CHECK_AGAINST],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let smoke = args.has("smoke");
    let (warmup, measure, tl_secs) = if smoke { (2, 4, 18) } else { (5, 10, 90) };

    println!("Figure 8 — oracle query throughput (social network)\n");

    // Shard sweep: every point is an independent deterministic simulation.
    let points = dynastar_bench::run_parallel(SHARDS.to_vec(), 0, |o| {
        eprintln!("fig8 [sweep]: {o} oracle shard(s), cold caches...");
        run_sweep_point(o, warmup, measure)
    });
    println!("== shard sweep (cold caches, {SWEEP_CLIENTS} clients, {SWEEP_PARTITIONS} partitions, window 1) ==");
    let base_qps = points[0].queries_per_sec;
    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            format!("{}", p.shards),
            format!("{:.0}", p.queries_per_sec),
            format!("{:.2}x", p.queries_per_sec / base_qps.max(1.0)),
            format!("{:.0}", p.cmds_per_sec),
            format!("{:.3}", p.cut_frac),
            format!("{}", p.plans),
        ]);
    }
    print_table(
        &["oracle shards", "queries/s", "speedup", "cmds/s", "plan cut frac", "plans"],
        &rows,
    );
    let speedup = points.last().unwrap().queries_per_sec / base_qps.max(1.0);
    println!(
        "\n1 -> {} shards scales oracle query throughput {speedup:.2}x \
         (paper target: >= 3x at 4 shards);",
        SHARDS[SHARDS.len() - 1]
    );
    println!("normalized plan cut stays flat across shard counts (partitions send");
    println!("every hint to planner shard 0, whatever the shard count).\n");

    // Timeline: cache dynamics at one shard.
    eprintln!("fig8 [timeline]: {tl_secs}s cold-start run...");
    let tl = run_timeline(tl_secs);
    println!("== timeline (caches on, cold start, 4 partitions, 1 shard) ==");
    println!("plans published: {}\n", tl.plans);
    print_table(&["t(s)", "oracle queries/s", "cmds/s", "miss rate", ""], &tl.rows);
    println!(
        "\ncold window (first {COLD_SECS}s):  {:.0} queries/s, miss rate {:.2}",
        tl.cold_qps, tl.cold_miss
    );
    println!(
        "steady window (last third): {:.0} queries/s, miss rate {:.2}",
        tl.steady_qps, tl.steady_miss
    );
    println!("\npaper shape: a cold spike while caches fill, decay toward zero,");
    println!("a second spike right after the repartitioning invalidates entries.");

    // Sweep rows carry the gated `queries_per_sec`; the timeline summary
    // is one more row under its own experiment name.
    let mut record = Record::new(SPEC.program, &["experiment", "shards"]);
    for p in &points {
        record.rows.push(
            Row::new()
                .text("experiment", "sweep")
                .num("shards", p.shards)
                .float("queries_per_sec", p.queries_per_sec, 0)
                .float("cmds_per_sec", p.cmds_per_sec, 0)
                .float("cut_frac", p.cut_frac, 4)
                .num("plans", p.plans),
        );
    }
    record.rows.push(
        Row::new()
            .text("experiment", "timeline")
            .num("shards", 1)
            .float("cold_qps", tl.cold_qps, 0)
            .float("steady_qps", tl.steady_qps, 0)
            .float("cold_miss_rate", tl.cold_miss, 2)
            .float("steady_miss_rate", tl.steady_miss, 2)
            .num("plans", tl.plans),
    );
    record.write_out(&args);
    record.gate(&args, "queries_per_sec", true);
}
