//! `dynastar` — run DynaStar simulation scenarios from the command line.
//!
//! ```text
//! dynastar chirper  --partitions 4 --mode dynastar --users 2000 --clients 8 --secs 60
//! dynastar tpcc     --partitions 4 --mode ssmr     --clients 8 --secs 60
//! dynastar scenario --name flash_crowd --staged on --secs 30
//! ```
//!
//! Modes: `dynastar` (default), `ssmr` (S-SMR\* with optimized static
//! placement), `dssmr`. All runs are deterministic in `--seed`.

#![forbid(unsafe_code)]

use std::sync::Arc;

use dynastar_bench::harness::{Args, Opt, Spec};
use dynastar_bench::scenarios::{self, Params};
use dynastar_bench::setup::{
    chirper_cluster, parse_mode, tpcc_cluster, ChirperSetup, Placement, TpccSetup,
};
use dynastar_core::metric_names as mn;
use dynastar_core::{BatchConfig, ClusterConfig, Mode};
use dynastar_runtime::{Metrics, SimDuration};
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};
use dynastar_workloads::tpcc::{self, TpccWorkload};

static SPEC: Spec = Spec {
    program: "dynastar",
    positionals: &["<chirper|tpcc|scenario>"],
    opts: &[
        Opt::Section("common flags:"),
        Opt::Value("mode", "<dynastar|ssmr|dssmr>", "replication scheme [dynastar]"),
        Opt::Value("partitions", "<k>", "number of partitions [4; scenario 2]"),
        Opt::Value("clients", "<n>", "closed-loop clients [8; scenario 3]"),
        Opt::Value("secs", "<s>", "simulated seconds to run [60; scenario 24]"),
        Opt::Value("seed", "<n>", "master seed [1; scenario 9]"),
        Opt::Value("max-batch", "<n>", "commands per ordering batch [1]"),
        Opt::Value("batch-delay", "<ms>", "max wait to fill a batch [0]"),
        Opt::Value("window", "<n>", "in-flight consensus instances per leader, 0 = unbounded [0]"),
        Opt::Value("warm-plans", "<on|off>", "oracle warm-start (incremental) repartitioning [on]"),
        Opt::Value("warm-ratio", "<f>", "accept a warm plan within f x the last full cut [1.1]"),
        Opt::Value("exec-workers", "<n>", "conflict-aware execution workers per replica [1]"),
        Opt::Section("chirper flags:"),
        Opt::Value("users", "<n>", "social graph size [2000; scenario flash_crowd/churn 400]"),
        Opt::Value("attach", "<m>", "Barabási–Albert attachment degree (follows per user) [6]"),
        Opt::Value("posts", "<pct>", "post percentage (rest timeline) [15]"),
        Opt::Value("oracle-shards", "<o>", "hash-sliced oracle shard groups (DESIGN.md §7) [1]"),
        Opt::Value("cache", "<on|off>", "client location caching; off asks the oracle first [on]"),
        Opt::Section("tpcc flags:"),
        Opt::Value("warehouses", "<n>", "warehouses [= partitions]"),
        Opt::Section("scenario flags (adversarial robustness suite; always mode dynastar):"),
        Opt::Value("name", "<s>", "flash_crowd|diurnal|zipf_ramp|churn|chained_move|all [all]"),
        Opt::Value("staged", "<on|off>", "chunked rate-limited state migration [on]"),
        Opt::Value("domain", "<n>", "counters keyspace (diurnal/zipf_ramp/chained_move) [200]"),
        Opt::Value("waves", "<n>", "churn crash-restart waves [2]"),
        Opt::Value("inflight-cap", "<n>", "staged transfers in flight per link, 0 = no cap [4]"),
    ],
};

/// Parses an `on|off` flag (every one of them defaults to on).
fn on_off(a: &Args, name: &str) -> Result<bool, String> {
    match a.get(name).unwrap_or("on") {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("--{name} {other:?}: expected on|off")),
    }
}

/// Parses the shared batching flags. The cluster tick is 1 ms, so
/// `--batch-delay` in milliseconds maps 1:1 onto delay ticks.
fn parse_batch(a: &Args) -> Result<BatchConfig, String> {
    let max_batch: usize = a.num_or("max-batch", 1)?;
    if max_batch == 0 {
        return Err("--max-batch must be at least 1".into());
    }
    Ok(BatchConfig {
        max_batch,
        max_batch_delay_ticks: a.num_or("batch-delay", 0)?,
        window: a.num_or("window", 0)?,
    })
}

/// Applies the flags every cluster run shares: seed, batching, oracle
/// warm-start and the execution pool.
fn apply_common(a: &Args, cluster: &mut ClusterConfig) -> Result<(), String> {
    cluster.seed = a.num_or("seed", 1)?;
    cluster.batch = parse_batch(a)?;
    cluster.warm_plans = on_off(a, "warm-plans")?;
    cluster.warm_quality_ratio = a.num_or("warm-ratio", 1.1)?;
    if cluster.warm_quality_ratio < 1.0 {
        return Err("--warm-ratio must be >= 1.0".into());
    }
    cluster.exec.workers = a.num_or("exec-workers", 1u32)?.max(1);
    Ok(())
}

fn print_summary(metrics: &Metrics, secs: u64) {
    let done = metrics.counter(mn::CMD_COMPLETED);
    let multi = metrics.counter(mn::CMD_MULTI);
    let single = metrics.counter(mn::CMD_SINGLE);
    println!("commands completed : {done} ({:.0}/s)", done as f64 / secs as f64);
    println!(
        "multi-partition    : {multi} ({:.1}%)",
        100.0 * multi as f64 / (multi + single).max(1) as f64
    );
    println!("objects exchanged  : {}", metrics.counter(mn::OBJECTS_EXCHANGED));
    println!("client retries     : {}", metrics.counter(mn::CMD_RETRY));
    println!("oracle queries     : {}", metrics.counter(mn::ORACLE_QUERIES));
    let plans = metrics.counter(mn::PLANS_PUBLISHED);
    println!("repartitionings    : {plans}");
    if plans > 0 {
        println!("  warm-start plans : {}", metrics.counter(mn::PLANS_WARM));
    }
    let batches = metrics.counter(mn::BATCH_FLUSH_FULL) + metrics.counter(mn::BATCH_FLUSH_DELAY);
    if batches > 0 {
        println!(
            "ordering batches   : {batches} (mean {:.1} cmds/batch)",
            metrics.counter(mn::BATCH_COMMANDS) as f64 / batches as f64
        );
    }
    if let Some(h) = metrics.histogram(mn::CMD_LATENCY) {
        println!(
            "latency            : mean {}  p50 {}  p95 {}  p99 {}",
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99)
        );
    }
}

fn run_chirper(a: &Args) -> Result<(), String> {
    let mode = parse_mode(a.get("mode").unwrap_or("dynastar"))?;
    let partitions: u32 = a.num_or("partitions", 4)?;
    let clients: usize = a.num_or("clients", 8)?;
    let secs: u64 = a.num_or("secs", 60)?;
    let users: usize = a.num_or("users", 2000)?;
    let posts: u32 = a.num_or("posts", 15)?;
    if posts > 100 {
        return Err("--posts must be <= 100".into());
    }

    let mut setup = ChirperSetup::new(partitions, mode);
    setup.users = users;
    setup.follows_per_user = a.num_or("attach", 6)?;
    apply_common(a, &mut setup.cluster)?;
    setup.cluster.oracle_shards = a.num_or("oracle-shards", 1)?;
    if setup.cluster.oracle_shards == 0 {
        return Err("--oracle-shards must be at least 1".into());
    }
    setup.cluster.client_location_cache = on_off(a, "cache")?;
    let (mut cluster, graph) = chirper_cluster(&setup);
    let mix = ChirperMix { timeline: 100 - posts, post: posts, follow: 0, unfollow: 0 };
    for _ in 0..clients {
        cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, mix));
    }
    eprintln!(
        "chirper: {users} users, {partitions} partitions, mode {mode}, {clients} clients, {secs}s..."
    );
    cluster.run_for(SimDuration::from_secs(secs));
    print_summary(cluster.metrics(), secs);
    Ok(())
}

fn run_tpcc(a: &Args) -> Result<(), String> {
    let mode = parse_mode(a.get("mode").unwrap_or("dynastar"))?;
    let partitions: u32 = a.num_or("partitions", 4)?;
    let clients: usize = a.num_or("clients", 8)?;
    let secs: u64 = a.num_or("secs", 60)?;

    let mut setup = TpccSetup::new(partitions, mode);
    setup.scale.warehouses = a.num_or("warehouses", partitions)?;
    apply_common(a, &mut setup.cluster)?;
    if mode == Mode::Dynastar && a.has("warehouses") {
        setup.placement = Placement::Random; // interesting starting point
    }
    let mut cluster = tpcc_cluster(&setup);
    let tracker = tpcc::order_tracker();
    for i in 0..clients {
        let w = (i as u32) % setup.scale.warehouses;
        cluster.add_client(TpccWorkload::new(setup.scale, w, Arc::clone(&tracker)));
    }
    eprintln!(
        "tpcc: {} warehouses, {partitions} partitions, mode {mode}, {clients} clients, {secs}s...",
        setup.scale.warehouses
    );
    cluster.run_for(SimDuration::from_secs(secs));
    print_summary(cluster.metrics(), secs);
    Ok(())
}

fn print_scenario_summary(name: &str, m: &Metrics, p: &Params) {
    println!("--- {name} ({}) ---", if p.staged { "staged" } else { "stall" });
    print_summary(m, p.secs);
    println!("client errors      : {}", m.counter(mn::CMD_FAILED));
    println!("retry backoffs     : {}", m.counter(mn::CMD_RETRY_BACKOFF));
    if p.staged {
        println!(
            "staged migration   : {} keys, {} chunks sent by replica 0 ({} retried), {} \
             duplicates received, {} reverts",
            m.counter(mn::MIGRATION_KEYS_STAGED),
            m.counter(mn::MIGRATION_CHUNKS_SENT),
            m.counter(mn::MIGRATION_CHUNK_RETRIES),
            m.counter(mn::MIGRATION_CHUNK_DUPS),
            m.counter(mn::MIGRATION_REVERTS),
        );
        println!(
            "link scheduler     : {} deferred, {} released, {} pulled first ({} pulls)",
            m.counter(mn::MIGRATION_DEFERRED),
            m.counter(mn::MIGRATION_RELEASED),
            m.counter(mn::MIGRATION_PULL_PROMOTIONS),
            m.counter(mn::MIGRATION_PULLS),
        );
    }
}

fn run_scenario(a: &Args) -> Result<(), String> {
    let secs: u64 = a.num_or("secs", 24)?;
    let p = Params {
        partitions: a.num_or("partitions", 2)?,
        users: a.num_or("users", 400)?,
        domain: a.num_or("domain", 200)?,
        clients: a.num_or("clients", 3)?,
        secs,
        seed: a.num_or("seed", 9)?,
        chirper_threshold: 1_500,
        counters_threshold: 800,
        plan_interval: SimDuration::from_secs((secs / 5).max(1)),
        waves: a.num_or("waves", 2)?,
        staged: on_off(a, "staged")?,
        inflight_cap: a.num_or("inflight-cap", 4)?,
    };
    let selected: Vec<&str> = match a.get("name").unwrap_or("all") {
        "all" => scenarios::NAMES.to_vec(),
        one if scenarios::NAMES.contains(&one) => vec![one],
        other => {
            return Err(format!(
                "unknown scenario {other:?} \
                 (flash_crowd|diurnal|zipf_ramp|churn|chained_move|all)"
            ))
        }
    };
    for s in selected {
        // `chained_move` needs a partition outside the browned-out pair.
        let parts = if s == "chained_move" { p.partitions.max(3) } else { p.partitions };
        eprintln!(
            "scenario {s}: {} partitions, {} clients, {}s, staged={}...",
            parts, p.clients, p.secs, p.staged
        );
        print_scenario_summary(s, &scenarios::run(s, &p), &p);
    }
    Ok(())
}

fn main() {
    let args = Args::from_env(&SPEC);
    let result = match args.positional(0) {
        Some("chirper") => run_chirper(&args),
        Some("tpcc") => run_tpcc(&args),
        Some("scenario") => run_scenario(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".to_string()),
    };
    if let Err(e) = result {
        args.fail(&e);
    }
}
