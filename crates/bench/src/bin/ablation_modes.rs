//! Ablation: the three replication schemes on one workload.
//!
//! Backs the paper's §8 claims: when the state cannot be perfectly
//! partitioned, DynaStar largely outperforms DS-SMR (naive migration
//! thrashes state back and forth), and approaches the idealized S-SMR\*
//! while needing no a-priori knowledge. Also quantifies the knobs:
//! multi-partition rate, objects moved, retries, oracle load.

use std::sync::Arc;

use dynastar_bench::report::print_table;
use dynastar_bench::setup::{chirper_cluster, ChirperSetup, Placement};
use dynastar_core::metric_names as mn;
use dynastar_core::Mode;
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};

const WARMUP_SECS: u64 = 30; // long enough for DynaStar's first plan
const MEASURE_SECS: u64 = 10;
const CLIENTS: usize = 6;
const PARTITIONS: u32 = 4;

struct Outcome {
    tput: f64,
    multi_pct: f64,
    objects_per_sec: f64,
    retries: u64,
    oracle_queries: u64,
    plans: u64,
}

fn run(mode: Mode) -> Outcome {
    let mut setup = ChirperSetup::new(PARTITIONS, mode);
    // Everyone starts from the same random placement except S-SMR*, whose
    // whole point is the precomputed optimized map.
    if mode != Mode::SSmr {
        setup.placement = Placement::Random;
    }
    if mode == Mode::Dynastar {
        setup.cluster.repartition_threshold = 4_000;
        setup.cluster.min_plan_interval = SimDuration::from_secs(12);
    }
    let (mut cluster, graph) = chirper_cluster(&setup);
    for _ in 0..CLIENTS {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX));
    }
    cluster.run_until(SimTime::from_secs(WARMUP_SECS));
    cluster.metrics_mut().reset();
    cluster.run_for(SimDuration::from_secs(MEASURE_SECS));
    let m = cluster.metrics();
    let multi = m.counter(mn::CMD_MULTI) as f64;
    let single = m.counter(mn::CMD_SINGLE) as f64;
    Outcome {
        tput: m.counter(mn::CMD_COMPLETED) as f64 / MEASURE_SECS as f64,
        multi_pct: 100.0 * multi / (multi + single).max(1.0),
        objects_per_sec: m.counter(mn::OBJECTS_EXCHANGED) as f64 / MEASURE_SECS as f64,
        retries: m.counter(mn::CMD_RETRY),
        oracle_queries: m.counter(mn::ORACLE_QUERIES),
        plans: m.counter(mn::PLANS_PUBLISHED),
    }
}

fn main() {
    println!("Ablation — replication schemes on the Chirper mix workload");
    println!(
        "({PARTITIONS} partitions, {CLIENTS} clients, measured after {WARMUP_SECS}s warm-up)\n"
    );
    let mut rows = Vec::new();
    for mode in [Mode::Dynastar, Mode::SSmr, Mode::DsSmr] {
        eprintln!("ablation: running {mode}...");
        let o = run(mode);
        rows.push(vec![
            mode.to_string(),
            format!("{:.0}", o.tput),
            format!("{:.1}", o.multi_pct),
            format!("{:.0}", o.objects_per_sec),
            format!("{}", o.retries),
            format!("{}", o.oracle_queries),
            format!("{}", o.plans),
        ]);
    }
    print_table(
        &["scheme", "cmd/s", "%multi", "objects/s", "retries", "oracle queries", "plans"],
        &rows,
    );
    println!("\npaper shape: DynaStar ≈ S-SMR* throughput with no prior knowledge;");
    println!("DS-SMR trails with far more object movement and oracle traffic.");
}
