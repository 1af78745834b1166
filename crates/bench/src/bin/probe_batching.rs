//! Probe: ordering-batch size sweep on the Figure 4 social workload.
//!
//! Holds the pipelining window fixed (one in-flight consensus instance per
//! leader) and sweeps `max_batch`. With the window pinned, the consensus
//! round-trip is the bottleneck and throughput tracks commands-per-slot:
//! unbatched leaders order one command per round trip, batched leaders
//! drain their whole queue into one instance. The probe asserts a ≥1.5×
//! throughput gain at `max_batch = 8` and that every configuration is
//! seed-deterministic (two runs with one seed produce identical metrics).

use std::sync::Arc;

use dynastar_bench::report::print_table;
use dynastar_bench::setup::{chirper_cluster, ChirperSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::{BatchConfig, Mode};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};

const WARMUP_SECS: u64 = 3;
const MEASURE_SECS: u64 = 6;
const SATURATING_CLIENTS: usize = 12;
const PARTITIONS: u32 = 4;
/// In-flight consensus instances per leader, held constant across the
/// sweep so `max_batch` is the only variable.
const WINDOW: usize = 1;

#[derive(Debug, PartialEq)]
struct Point {
    completed: u64,
    retries: u64,
    mean_latency_us: u64,
    batches: u64,
    batched_cmds: u64,
    flush_full: u64,
    flush_delay: u64,
}

impl Point {
    fn tput(&self) -> f64 {
        self.completed as f64 / MEASURE_SECS as f64
    }

    fn mean_batch(&self) -> f64 {
        self.batched_cmds as f64 / self.batches.max(1) as f64
    }
}

fn run(max_batch: usize) -> Point {
    let mut setup = ChirperSetup::new(PARTITIONS, Mode::Dynastar);
    setup.cluster.batch = BatchConfig { max_batch, max_batch_delay_ticks: 0, window: WINDOW };
    let (mut cluster, graph) = chirper_cluster(&setup);
    for _ in 0..SATURATING_CLIENTS {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX));
    }
    cluster.run_until(SimTime::from_secs(WARMUP_SECS));
    cluster.metrics_mut().reset();
    cluster.run_for(SimDuration::from_secs(MEASURE_SECS));
    let m = cluster.metrics();
    Point {
        completed: m.counter(mn::CMD_COMPLETED),
        retries: m.counter(mn::CMD_RETRY),
        mean_latency_us: m.histogram(mn::CMD_LATENCY).map(|h| h.mean().as_micros()).unwrap_or(0),
        batches: m.counter(mn::BATCH_FLUSH_FULL) + m.counter(mn::BATCH_FLUSH_DELAY),
        batched_cmds: m.counter(mn::BATCH_COMMANDS),
        flush_full: m.counter(mn::BATCH_FLUSH_FULL),
        flush_delay: m.counter(mn::BATCH_FLUSH_DELAY),
    }
}

fn main() {
    println!(
        "Batching probe — Chirper mix 85/15, {PARTITIONS} partitions, \
         {SATURATING_CLIENTS} clients, window {WINDOW}\n"
    );
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    let mut speedup_at_8 = 0.0f64;
    let mut deterministic = true;
    for &max_batch in &[1usize, 2, 4, 8, 16] {
        eprintln!("probe_batching: max_batch = {max_batch}...");
        let a = run(max_batch);
        let b = run(max_batch);
        if a != b {
            deterministic = false;
            eprintln!(
                "probe_batching: NON-DETERMINISTIC at max_batch = {max_batch}: {a:?} vs {b:?}"
            );
        }
        if max_batch == 1 {
            baseline = a.tput();
        }
        let speedup = a.tput() / baseline.max(1.0);
        if max_batch == 8 {
            speedup_at_8 = speedup;
        }
        rows.push(vec![
            format!("{max_batch}"),
            format!("{:.0}", a.tput()),
            format!("{speedup:.2}x"),
            format!("{:.1}", a.mean_latency_us as f64 / 1000.0),
            format!("{:.2}", a.mean_batch()),
            format!("{}/{}", a.flush_full, a.flush_delay),
            format!("{}", a.retries),
        ]);
    }
    print_table(
        &["max_batch", "cps", "speedup", "lat ms", "mean batch", "full/delay", "retries"],
        &rows,
    );
    println!();
    println!("seed-determinism : {}", if deterministic { "PASS" } else { "FAIL" });
    println!(
        "speedup @ batch 8: {speedup_at_8:.2}x (target >= 1.5x) — {}",
        if speedup_at_8 >= 1.5 { "PASS" } else { "FAIL" }
    );
    if !deterministic || speedup_at_8 < 1.5 {
        std::process::exit(1);
    }
}
