//! Figure 4: social-network throughput and latency vs partition count.
//!
//! Peak throughput (saturating clients) and latency at ~75% of peak
//! (fewer clients), for the timeline-only and the mix (85% timeline / 15%
//! post) workloads, DynaStar vs S-SMR\*. Partitions sweep 1 to 16.
//!
//! The paper's shape: timeline-only scales near-linearly for both; the
//! mix scales up to 8 partitions then flattens as edge cuts grow; DynaStar
//! and S-SMR\* stay comparable.
//!
//! The defaults (2000 users, attachment degree 6, 4 partitions) are the
//! CI-sized profile; `--full` is the committed paper profile: the
//! 456k-user graph (the Higgs dataset's size) swept to 16 partitions. At
//! 100k+ users BA hubs have thousands of followers, so every post in the
//! mix is a huge multi-key command (all-pairs hint recording is quadratic
//! in fan-out); paper-scale sweeps use `--workload timeline`.

use std::sync::Arc;

use dynastar_bench::harness::{Args, Opt, Record, Row, Spec, OUT};
use dynastar_bench::report::print_table;
use dynastar_bench::setup::{chirper_cluster, ChirperSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::{BatchConfig, Mode};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};

/// Saturating client count grows with the partition count so wide sweeps
/// stay saturated; at the classic 1–4-partition trim this is the
/// historical 12.
fn saturating_clients(partitions: u32) -> usize {
    (partitions as usize * 3).max(12)
}

struct Point {
    tput: f64,
    avg_ms: f64,
    p95_ms: f64,
}

struct Sizing {
    users: usize,
    attach: usize,
    warmup: u64,
    measure: u64,
}

fn run_batched(
    partitions: u32,
    mode: Mode,
    mix: ChirperMix,
    clients: usize,
    batch: BatchConfig,
    sz: &Sizing,
) -> Point {
    let mut setup = ChirperSetup::new(partitions, mode);
    setup.users = sz.users;
    setup.follows_per_user = sz.attach;
    setup.cluster.batch = batch;
    let (mut cluster, graph) = chirper_cluster(&setup);
    for _ in 0..clients {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, mix));
    }
    cluster.run_until(SimTime::from_secs(sz.warmup));
    cluster.metrics_mut().reset();
    cluster.run_for(SimDuration::from_secs(sz.measure));
    let m = cluster.metrics();
    let tput = m.counter(mn::CMD_COMPLETED) as f64 / sz.measure as f64;
    let (avg_ms, p95_ms) = m
        .histogram(mn::CMD_LATENCY)
        .map(|h| (h.mean().as_millis_f64(), h.quantile(0.95).as_millis_f64()))
        .unwrap_or((0.0, 0.0));
    Point { tput, avg_ms, p95_ms }
}

fn run(partitions: u32, mode: Mode, mix: ChirperMix, clients: usize, sz: &Sizing) -> Point {
    run_batched(partitions, mode, mix, clients, BatchConfig::UNBATCHED, sz)
}

static SPEC: Spec = Spec {
    program: "fig4_social_throughput",
    positionals: &[],
    opts: &[
        Opt::Value("users", "N", "social graph size                     [2000]"),
        Opt::Value("attach", "M", "Barabási–Albert attachment degree     [6]"),
        Opt::Value("max-parts", "N", "sweep partitions 1,2,4,8,16 up to N   [4]"),
        Opt::Switch("full", "paper profile: 456000 users, 16 partitions"),
        Opt::Value("workload", "W", "timeline | mix | both                 [both]"),
        Opt::Switch("smoke", "shortened windows, peak throughput only"),
        OUT,
        Opt::Switch("batch-sweep", "append the ordering-batch-size sweep"),
    ],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let (smoke, full) = (args.has("smoke"), args.has("full"));
    let mut users: usize = args.num_or("users", 2_000).unwrap_or_else(|e| args.fail(&e));
    let attach: usize = args.num_or("attach", 6).unwrap_or_else(|e| args.fail(&e));
    let mut max_parts: u32 = args.num_or("max-parts", 4).unwrap_or_else(|e| args.fail(&e));
    if full {
        users = 456_000;
        max_parts = max_parts.max(16);
    }
    let sz = Sizing {
        users,
        attach,
        warmup: if smoke { 1 } else { 3 },
        measure: if smoke { 2 } else { 6 },
    };
    let sweep: Vec<u32> = [1u32, 2, 4, 8, 16].into_iter().filter(|&k| k <= max_parts).collect();

    println!("Figure 4 — Chirper throughput and latency vs partitions ({users} users)\n");
    let mut record = Record::new(SPEC.program, &["workload", "partitions", "users"]);
    let workloads: Vec<(&str, &str, ChirperMix)> = match args.get("workload").unwrap_or("both") {
        "timeline" => vec![("timeline-only", "timeline", ChirperMix::TIMELINE_ONLY)],
        "mix" => vec![("mix 85/15", "mix", ChirperMix::MIX)],
        "both" => vec![
            ("timeline-only", "timeline", ChirperMix::TIMELINE_ONLY),
            ("mix 85/15", "mix", ChirperMix::MIX),
        ],
        other => args.fail(&format!("unknown workload {other:?}")),
    };
    for (label, slug, mix) in workloads {
        println!("== workload: {label} ==");
        // Each (partitions, mode) point is an independent deterministic
        // simulation; fan out across cores, reassemble in input order.
        let points: Vec<(u32, Mode)> =
            sweep.iter().flat_map(|&k| [(k, Mode::Dynastar), (k, Mode::SSmr)]).collect();
        let peaks = dynastar_bench::run_parallel(points.clone(), 0, |(k, mode)| {
            eprintln!("fig4 [{label}]: {k} partition(s), {mode:?} peak...");
            run(k, mode, mix, saturating_clients(k), &sz)
        });
        // ~75% of peak load for the latency measurement (skipped in smoke).
        let lats: Vec<Option<Point>> = if smoke {
            points.iter().map(|_| None).collect()
        } else {
            dynastar_bench::run_parallel(points, 0, |(k, mode)| {
                eprintln!("fig4 [{label}]: {k} partition(s), {mode:?} latency...");
                Some(run(k, mode, mix, (saturating_clients(k) * 3 / 4).max(1), &sz))
            })
        };
        let mut rows = Vec::new();
        for (i, &k) in sweep.iter().enumerate() {
            let (peak_dyn, peak_ssmr) = (&peaks[2 * i], &peaks[2 * i + 1]);
            let fmt_lat = |p: &Option<Point>| match p {
                Some(p) => format!("{:.1}/{:.1}", p.avg_ms, p.p95_ms),
                None => "-".into(),
            };
            rows.push(vec![
                format!("{k}"),
                format!("{:.0}", peak_dyn.tput),
                format!("{:.0}", peak_ssmr.tput),
                fmt_lat(&lats[2 * i]),
                fmt_lat(&lats[2 * i + 1]),
            ]);
            record.rows.push(
                Row::new()
                    .text("workload", slug)
                    .num("partitions", k)
                    .num("users", users)
                    .float("dynastar_cps", peak_dyn.tput, 0)
                    .float("ssmr_cps", peak_ssmr.tput, 0),
            );
        }
        print_table(
            &[
                "partitions",
                "DynaStar cps",
                "S-SMR* cps",
                "DynaStar ms avg/p95",
                "S-SMR* ms avg/p95",
            ],
            &rows,
        );
        println!();
    }
    println!("paper shape: timeline-only scales for both; mix flattens at high partition counts.");
    record.write_out(&args);

    // Optional extra: ordering-batch-size sweep (pass --batch-sweep).
    // Window pinned to one in-flight instance per leader so `max_batch` is
    // the only variable; see `probe_batching` for the asserted version.
    if args.has("batch-sweep") {
        println!("\n== batch-size sweep (DynaStar, mix 85/15, 4 partitions, window 1) ==");
        let mut rows = Vec::new();
        for &mb in &[1usize, 4, 8, 16] {
            eprintln!("fig4 [batch sweep]: max_batch = {mb}...");
            let batch = BatchConfig { max_batch: mb, max_batch_delay_ticks: 0, window: 1 };
            let p = run_batched(4, Mode::Dynastar, ChirperMix::MIX, 12, batch, &sz);
            rows.push(vec![
                format!("{mb}"),
                format!("{:.0}", p.tput),
                format!("{:.1}/{:.1}", p.avg_ms, p.p95_ms),
            ]);
        }
        print_table(&["max_batch", "cps", "ms avg/p95"], &rows);
    }
}
