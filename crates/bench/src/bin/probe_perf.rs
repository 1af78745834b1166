//! Simulator throughput probe and perf-regression harness.
//!
//! Runs the standard TPC-C configuration (the hottest realistic workload:
//! deep object graphs, multi-partition transactions, saturating clients)
//! and, beside it, the Chirper 85/15 mix on the same cluster shape — hub
//! posts that write hundreds of follower timelines, and timeline reads,
//! which the TPC-C row cannot see. These two rows pin the repartition
//! threshold, so neither sends workload hints; a third runs the same
//! Chirper mix with repartitioning on, so partitions ship hint batches,
//! the planner logs and folds them, and a plan is computed and migrated
//! inside the window. Reports raw scheduler throughput — events per
//! wall-second, wall seconds per simulated second, heap traffic and peak
//! RSS. Two jobs:
//!
//! 1. **Optimization probe** (default): one run, human-readable output,
//!    with an allocation-counting global allocator whose numbers are
//!    deterministic even when wall-clock jitters.
//! 2. **Regression harness** (`--out` / `--check-against`): the
//!    machine-readable `results/BENCH_perf.json` (and, from
//!    `--sim-secs 40`, `results/BENCH_perf_long.json`), and a gate that
//!    fails when a configuration's run allocates more than 30% more often,
//!    or more bytes, than the same configuration (simulated window
//!    included) in a baseline record — the perf numbers here that mean the
//!    same on every machine — or when the process's peak RSS is more than
//!    30% higher, which catches state that grows with the run. Peak RSS,
//!    unlike the allocation numbers, is machine-dependent (allocator
//!    version, transparent huge pages, binary size); the committed values
//!    were recorded on a 2-vCPU Linux container.
//!
//! `--matrix` sweeps seeds × modes in parallel (each point is its own
//! deterministic simulation) and reports the per-config medians.
//!
//! Determinism invariant: `events` and `completed` depend only on
//! (mode, partitions, sim-secs, seed, clients) — never on wall-clock,
//! thread scheduling or build profile. The golden values in
//! `tests/determinism.rs` pin the same property; this probe surfaces it
//! next to the throughput numbers so a perf change that silently alters
//! the schedule is caught immediately.

#![expect(
    unsafe_code,
    reason = "the one sanctioned unsafe block in the workspace: counting heap traffic means implementing GlobalAlloc, an unsafe trait"
)]
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the probe measures the host: wall-clock time, peak RSS from /proc and an opt-in stack-sampling env gate"
)]

use dynastar_bench::harness::{Args, Opt, Record, Row, Spec, CHECK_AGAINST, OUT};
use dynastar_bench::setup::{
    chirper_cluster, parse_mode, run_parallel, tpcc_cluster, ChirperSetup, Placement, TpccSetup,
};
use dynastar_core::metric_names as mn;
use dynastar_core::{Application, Cluster, ClusterConfig, ExecConfig, Mode};
use dynastar_runtime::SimDuration;
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};
use dynastar_workloads::tpcc::{self, TpccWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts heap traffic: a deterministic optimization signal on machines
/// where wall-clock jitters.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static SIZE_BUCKETS: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

thread_local! {
    static IN_SAMPLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let n = ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let b = (64 - (layout.size().max(1) as u64).leading_zeros() as usize).min(15);
        SIZE_BUCKETS[b].fetch_add(1, Ordering::Relaxed);
        static SAMPLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if (128..=1024).contains(&layout.size())
            && n.is_multiple_of(500_000)
            && *SAMPLE.get_or_init(|| std::env::var_os("PROBE_SAMPLE_STACKS").is_some())
        {
            IN_SAMPLE.with(|f| {
                if !f.get() {
                    f.set(true);
                    eprintln!(
                        "--- alloc sample ({} B) ---\n{}",
                        layout.size(),
                        std::backtrace::Backtrace::force_capture()
                    );
                    f.set(false);
                }
            });
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// What the probed cluster serves.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// TPC-C, one warehouse per partition.
    Tpcc,
    /// Chirper's 85 % timeline / 15 % post mix over the default social graph.
    Chirper,
    /// The same mix, repartitioning: hints flow and a plan lands.
    ChirperRepartition,
}

impl Load {
    fn name(self) -> &'static str {
        match self {
            Load::Tpcc => "tpcc",
            Load::Chirper => "chirper",
            Load::ChirperRepartition => "chirper_repartition",
        }
    }
}

/// The Chirper rows' social graph and window, sized so a row takes about
/// as long as the TPC-C row does.
const CHIRPER_USERS: usize = 1_000;
const CHIRPER_SIM_SECS: u64 = 3;
/// The repartitioning Chirper row's plan gate: the first plan is proposed
/// once a simulated second has passed, well inside the window.
const CHIRPER_PLAN_INTERVAL: SimDuration = SimDuration::from_secs(1);
const CHIRPER_PLAN_THRESHOLD: u64 = 2_000;

/// One probe configuration (a matrix cell).
#[derive(Debug, Clone, Copy)]
struct ProbeConfig {
    workload: Load,
    mode: Mode,
    partitions: u32,
    sim_secs: u64,
    seed: u64,
    clients_per_warehouse: u32,
    exec_workers: u32,
}

/// One probe run's measurements.
#[derive(Debug, Clone)]
struct ProbeResult {
    config: ProbeConfig,
    events: u64,
    completed: u64,
    /// Plans the oracle published (0 unless the row repartitions).
    plans: u64,
    wall_secs: f64,
    events_per_sec: f64,
    wall_per_sim_sec: f64,
    /// Heap allocations (count, bytes) during the simulated window; this
    /// run's own only when no other probe runs beside it (not `--matrix`).
    allocs: (u64, u64),
    /// The process's peak resident set once this run's window is over:
    /// the high-water mark of this run and of every run before it.
    peak_rss_kb: Option<u64>,
}

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Dynastar => "dynastar",
        Mode::SSmr => "ssmr",
        Mode::DsSmr => "dssmr",
    }
}

/// The probe's overrides on a preset cluster.
fn probe_cluster(cluster: &mut ClusterConfig, cfg: ProbeConfig) {
    cluster.seed = cfg.seed;
    cluster.exec = ExecConfig::pool(cfg.exec_workers, cluster.exec.service_time);
    if let Load::ChirperRepartition = cfg.workload {
        cluster.repartition_threshold = CHIRPER_PLAN_THRESHOLD;
        cluster.min_plan_interval = CHIRPER_PLAN_INTERVAL;
    } else {
        // Throughput probe, not a repartitioning experiment: pinning the
        // threshold keeps the schedule identical across modes being
        // compared.
        cluster.repartition_threshold = u64::MAX;
    }
}

fn run_probe(cfg: ProbeConfig) -> ProbeResult {
    match cfg.workload {
        Load::Tpcc => {
            let mut setup = TpccSetup::new(cfg.partitions, cfg.mode);
            setup.placement = Placement::Random;
            probe_cluster(&mut setup.cluster, cfg);
            let mut cluster = tpcc_cluster(&setup);
            let tracker = tpcc::order_tracker();
            for w in 0..setup.scale.warehouses {
                for _ in 0..cfg.clients_per_warehouse {
                    cluster.add_client(TpccWorkload::new(setup.scale, w, Arc::clone(&tracker)));
                }
            }
            measure(cfg, cluster)
        }
        Load::Chirper | Load::ChirperRepartition => {
            let mut setup = ChirperSetup::new(cfg.partitions, cfg.mode);
            setup.users = CHIRPER_USERS;
            probe_cluster(&mut setup.cluster, cfg);
            let (mut cluster, graph) = chirper_cluster(&setup);
            for _ in 0..cfg.partitions * cfg.clients_per_warehouse {
                cluster.add_client(ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX));
            }
            measure(cfg, cluster)
        }
    }
}

fn measure<A: Application>(cfg: ProbeConfig, mut cluster: Cluster<A>) -> ProbeResult {
    let heap = || (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    let heap0 = heap();
    let t0 = std::time::Instant::now();
    cluster.run_for(SimDuration::from_secs(cfg.sim_secs));
    let wall = t0.elapsed().as_secs_f64();
    let heap1 = heap();
    let events = cluster.sim.events_processed();
    ProbeResult {
        config: cfg,
        events,
        completed: cluster.metrics().counter(mn::CMD_COMPLETED),
        plans: cluster.metrics().counter(mn::PLANS_PUBLISHED),
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        wall_per_sim_sec: wall / cfg.sim_secs as f64,
        allocs: (heap1.0 - heap0.0, heap1.1 - heap0.1),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Peak resident set (VmHWM) in kilobytes, if the kernel exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

static SPEC: Spec = Spec {
    program: "probe_perf",
    positionals: &[],
    opts: &[
        Opt::Value("mode", "dynastar|ssmr|dssmr", "replication scheme            [dynastar]"),
        Opt::Value("partitions", "N", "partitions = warehouses       [4]"),
        Opt::Value("sim-secs", "N", "simulated seconds (Chirper rows: at most 3) [10]"),
        Opt::Value("seed", "N", "master seed                   [1]"),
        Opt::Value("clients", "N", "clients per partition         [6]"),
        Opt::Value("exec-workers", "N", "execution workers per replica [1]"),
        Opt::Switch("matrix", "sweep seeds 1..=3 x modes in parallel, report all points"),
        OUT,
        CHECK_AGAINST,
    ],
};

fn parse_config(args: &Args) -> Result<ProbeConfig, String> {
    Ok(ProbeConfig {
        workload: Load::Tpcc,
        mode: parse_mode(args.get("mode").unwrap_or("dynastar"))?,
        partitions: args.num_or("partitions", 4)?,
        sim_secs: args.num_or("sim-secs", 10)?,
        seed: args.num_or("seed", 1)?,
        clients_per_warehouse: args.num_or("clients", 6)?,
        exec_workers: args.num_or("exec-workers", 1)?,
    })
}

fn main() {
    let args = Args::from_env(&SPEC);
    let cfg = parse_config(&args).unwrap_or_else(|e| args.fail(&e));
    let matrix = args.has("matrix");

    let results = if matrix {
        let points: Vec<ProbeConfig> = [Mode::Dynastar, Mode::SSmr]
            .iter()
            .flat_map(|&mode| (1u64..=3).map(move |seed| ProbeConfig { mode, seed, ..cfg }))
            .collect();
        run_parallel(points, 0, run_probe)
    } else {
        let sim_secs = cfg.sim_secs.min(CHIRPER_SIM_SECS);
        let chirper = |workload| run_probe(ProbeConfig { workload, sim_secs, ..cfg });
        vec![run_probe(cfg), chirper(Load::Chirper), chirper(Load::ChirperRepartition)]
    };

    for r in &results {
        let c = &r.config;
        println!(
            "{}: {} sim-s took {:.1} wall-s; events={} ({:.0}/s); completed={}; plans={}",
            c.workload.name(),
            c.sim_secs,
            r.wall_secs,
            r.events,
            r.events_per_sec,
            r.completed,
            r.plans
        );
        if matrix {
            println!(
                "  config: mode={} partitions={} seed={}",
                mode_name(c.mode),
                c.partitions,
                c.seed
            );
        }
    }
    let peak_rss = peak_rss_kb();
    if let Some(kb) = peak_rss {
        println!("peak RSS: {} MB", kb / 1024);
    }
    println!(
        "allocs={} ({} MB)",
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed) / (1 << 20)
    );
    for (i, b) in SIZE_BUCKETS.iter().enumerate() {
        let n = b.load(Ordering::Relaxed);
        if n > 0 {
            println!("  <= {:>6} B: {n}", 1u64 << i);
        }
    }

    // `peak_rss_kb` is the process's high-water mark after a row's run.
    // Rows run one after another, so the TPC-C row, which runs first,
    // reads its own peak and a later row the highest of its own and the
    // earlier rows'; under `--matrix` they run side by side and every row
    // carries the process's final value.
    let mut record = Record::new(
        SPEC.program,
        &[
            "workload",
            "mode",
            "partitions",
            "sim_secs",
            "seed",
            "clients_per_warehouse",
            "exec_workers",
        ],
    );
    for r in &results {
        let c = &r.config;
        let mut row = Row::new()
            .text("workload", c.workload.name())
            .text("mode", mode_name(c.mode))
            .num("partitions", c.partitions)
            .num("sim_secs", c.sim_secs)
            .num("seed", c.seed)
            .num("clients_per_warehouse", c.clients_per_warehouse)
            .num("exec_workers", c.exec_workers)
            .num("events", r.events)
            .num("completed", r.completed)
            .num("plans", r.plans)
            .float("wall_secs", r.wall_secs, 3)
            .float("events_per_sec", r.events_per_sec, 0)
            .float("wall_per_sim_sec", r.wall_per_sim_sec, 4);
        if let Some(kb) = if matrix { peak_rss } else { r.peak_rss_kb } {
            row = row.num("peak_rss_kb", kb);
        }
        if !matrix {
            // Same seed, same counts: the schedule decides every allocation.
            let (count, bytes) = r.allocs;
            row = row.num("allocs", count).float("alloc_mb", bytes as f64 / (1 << 20) as f64, 1);
        }
        record.rows.push(row);
    }
    record.write_out(&args);
    record.gate(&args, "allocs", false);
    // A payload copied once more per replica barely moves the count; it
    // multiplies the bytes.
    record.gate(&args, "alloc_mb", false);
    // Memory that grows with the run: a table kept per command shows here
    // long before it shows in a 10 s window (`--sim-secs 40`).
    record.gate(&args, "peak_rss_kb", false);
}
