//! Figure 9 (robustness suite): migration interference under adversarial
//! workloads.
//!
//! Every scenario runs twice in the same process with identical seeds:
//!
//! * **staged** — chunked, rate-limited migration with per-chunk ack
//!   timeouts and exponential backoff, plus client retry backpressure;
//! * **stall** — the classic single-shipment path under the *same*
//!   bandwidth model, so a plan's whole transfer charges the source
//!   replica's CPU/NIC at once (the unthrottled baseline).
//!
//! The interesting number is the foreground-throughput **dip**: how far the
//! worst post-warmup second falls below the run's median. Staged migration
//! should bound the dip; the stall baseline pays it all at once. The
//! scenarios themselves live in [`dynastar_bench::scenarios`], shared with
//! `dynastar scenario`.
//!
//! `--gate-errors` exits 1 if any run saw a client-visible command error
//! (`cmd.failed` — stale routing must retry, never surface).

use dynastar_bench::harness::{Args, Opt, Record, Row, Spec, CHECK_AGAINST, OUT};
use dynastar_bench::report::print_table;
use dynastar_bench::scenarios::{self, Params};
use dynastar_bench::setup::run_parallel;
use dynastar_core::metric_names as mn;
use dynastar_runtime::SimDuration;

/// Scenario dimensions (full vs `--smoke`); `staged` is set per run. The
/// per-link cap of 4 is the cluster-wide scheduler under test: the
/// oracle's hot-first move order decides who goes first and deferred keys
/// are released as slots free.
fn params(smoke: bool) -> Params {
    let base = Params {
        partitions: 4,
        users: 2_000,
        domain: 800,
        clients: 6,
        secs: 120,
        seed: 9,
        chirper_threshold: 6_000,
        counters_threshold: 3_000,
        plan_interval: SimDuration::from_secs(20),
        waves: 3,
        staged: true,
        inflight_cap: 4,
    };
    if smoke {
        Params {
            partitions: 2,
            users: 400,
            domain: 200,
            clients: 3,
            secs: 24,
            chirper_threshold: 1_500,
            counters_threshold: 800,
            plan_interval: SimDuration::from_secs(5),
            waves: 2,
            ..base
        }
    } else {
        base
    }
}

/// One (scenario, policy) run's measurements.
struct RunResult {
    scenario: &'static str,
    policy: &'static str,
    completed: u64,
    errors: u64,
    retries: u64,
    backoffs: u64,
    plans: u64,
    keys_staged: u64,
    chunks_sent: u64,
    chunk_retries: u64,
    chunk_dups: u64,
    reverts: u64,
    deferred: u64,
    released: u64,
    pulls: u64,
    pull_promotions: u64,
    median_tput: f64,
    worst_tput: f64,
    dip_pct: f64,
}

/// Runs one scenario under one policy and summarizes its metrics: the
/// per-second completed series gives the dip (worst post-warmup second vs
/// the median), and the counters tell the migration story. `warmup`
/// seconds are excluded from the dip window at the start of the run
/// (random initial placement; the first repartition is startup, not
/// interference).
fn run_one(scenario: &'static str, p: &Params, warmup: usize) -> RunResult {
    let m = scenarios::run(scenario, p);
    let series = m.series(mn::CMD_COMPLETED).map(|s| s.rates_per_sec()).unwrap_or_default();
    // Drop the trailing (possibly partial) second and the warmup.
    let end = series.len().saturating_sub(1);
    let window: &[f64] = if end > warmup { &series[warmup..end] } else { &series[..end] };
    let mut sorted = window.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    let worst = sorted.first().copied().unwrap_or(0.0);
    let dip_pct = if median > 0.0 { (100.0 * (1.0 - worst / median)).max(0.0) } else { 0.0 };
    RunResult {
        scenario,
        policy: if p.staged { "staged" } else { "stall" },
        completed: m.counter(mn::CMD_COMPLETED),
        errors: m.counter(mn::CMD_FAILED),
        retries: m.counter(mn::CMD_RETRY),
        backoffs: m.counter(mn::CMD_RETRY_BACKOFF),
        plans: m.counter(mn::PLANS_PUBLISHED),
        keys_staged: m.counter(mn::MIGRATION_KEYS_STAGED),
        chunks_sent: m.counter(mn::MIGRATION_CHUNKS_SENT),
        chunk_retries: m.counter(mn::MIGRATION_CHUNK_RETRIES),
        chunk_dups: m.counter(mn::MIGRATION_CHUNK_DUPS),
        reverts: m.counter(mn::MIGRATION_REVERTS),
        deferred: m.counter(mn::MIGRATION_DEFERRED),
        released: m.counter(mn::MIGRATION_RELEASED),
        pulls: m.counter(mn::MIGRATION_PULLS),
        pull_promotions: m.counter(mn::MIGRATION_PULL_PROMOTIONS),
        median_tput: median,
        worst_tput: worst,
        dip_pct,
    }
}

static SPEC: Spec = Spec {
    program: "fig9_migration_interference",
    positionals: &[],
    opts: &[
        Opt::Switch("smoke", "small sizes / short runs (CI gate workload)"),
        Opt::Value(
            "scenario",
            "NAME",
            "one of flash_crowd|diurnal|zipf_ramp|churn|chained_move (default: all)",
        ),
        OUT,
        CHECK_AGAINST,
        Opt::Switch("gate-errors", "exit 1 if any run surfaced a client-visible command error"),
    ],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let smoke = args.has("smoke");
    let scenarios: Vec<&'static str> = match args.get("scenario") {
        None => scenarios::NAMES.to_vec(),
        Some(name) => match scenarios::NAMES.iter().find(|s| **s == name) {
            Some(s) => vec![*s],
            None => args.fail(&format!("unknown scenario {name:?}")),
        },
    };

    let p = params(smoke);
    let warmup = if smoke { 6 } else { 15 };
    eprintln!(
        "fig9: {} scenario(s) x {{staged, stall}}, {}s each{}...",
        scenarios.len(),
        p.secs,
        if smoke { " (smoke)" } else { "" }
    );
    let jobs: Vec<(&'static str, bool)> =
        scenarios.iter().flat_map(|s| [(*s, true), (*s, false)]).collect();
    let results = run_parallel(jobs, 0, |(s, staged)| run_one(s, &Params { staged, ..p }, warmup));

    println!("\nFigure 9 — migration interference under adversarial scenarios");
    println!("(dip = how far the worst post-warmup second falls below the median)\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.policy.to_string(),
                format!("{}", r.completed),
                format!("{:.0}", r.median_tput),
                format!("{:.0}", r.worst_tput),
                format!("{:.1}", r.dip_pct),
                format!("{}", r.errors),
                format!("{}", r.retries),
                format!("{}", r.keys_staged),
                format!("{}", r.chunk_retries),
                format!("{}", r.reverts),
                format!("{}", r.deferred),
                format!("{}", r.plans),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario",
            "policy",
            "done",
            "med/s",
            "worst/s",
            "dip%",
            "errors",
            "retries",
            "staged",
            "chunk-rtx",
            "reverts",
            "defer",
            "plans",
        ],
        &rows,
    );
    for s in &scenarios {
        let staged = results.iter().find(|r| r.scenario == *s && r.policy == "staged");
        let stall = results.iter().find(|r| r.scenario == *s && r.policy == "stall");
        if let (Some(a), Some(b)) = (staged, stall) {
            println!("{:<12} staged dip {:>5.1}%  vs  stall dip {:>5.1}%", s, a.dip_pct, b.dip_pct);
        }
    }

    let mut record = Record::new(SPEC.program, &["scenario", "policy"]);
    for r in &results {
        record.rows.push(
            Row::new()
                .text("scenario", r.scenario)
                .text("policy", r.policy)
                .num("completed", r.completed)
                .num("errors", r.errors)
                .num("retries", r.retries)
                .num("backoffs", r.backoffs)
                .num("plans", r.plans)
                .num("keys_staged", r.keys_staged)
                .num("chunks_sent", r.chunks_sent)
                .num("chunk_retries", r.chunk_retries)
                .num("chunk_dups", r.chunk_dups)
                .num("reverts", r.reverts)
                .num("deferred", r.deferred)
                .num("released", r.released)
                .num("pulls", r.pulls)
                .num("pull_promotions", r.pull_promotions)
                .float("median_tput", r.median_tput, 1)
                .float("worst_tput", r.worst_tput, 1)
                .float("dip_pct", r.dip_pct, 1),
        );
    }
    record.write_out(&args);
    record.gate(&args, "completed", true);
    // The worst second: churn's falls to 0 when a crashed leader's group
    // stalls for more than one election timeout.
    record.gate(&args, "worst_tput", true);
    // Replica 0's sends: about a third of `keys_staged` while the source's
    // replicas stripe a plan between them, most of it if they stop (the
    // stall rows send no chunk: 0 against 0 passes).
    record.gate(&args, "chunks_sent", false);
    if args.has("gate-errors") {
        let errors: f64 = record.rows.iter().filter_map(|r| r.f64("errors")).sum();
        if errors > 0.0 {
            eprintln!("migration gate FAILED: {errors} client-visible command error(s)");
            std::process::exit(1);
        }
        println!("migration gate passed: zero client-visible errors");
    }
}
