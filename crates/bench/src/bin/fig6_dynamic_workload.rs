//! Figure 6: adaptation to a dynamic workload.
//!
//! Chirper runs from t = 0; a celebrity appears at t = 200 s (users rush
//! to follow them, and the celebrity posts a lot). Two systems:
//!
//! * (a) DynaStar, starting from a *random* placement — its first
//!   repartitioning fixes the initial scatter, a later one adapts to the
//!   celebrity;
//! * (b) S-SMR\* with the pre-optimized static placement — initially great,
//!   but it cannot adapt once the workload shifts.
//!
//! Prints throughput, % multi-partition and objects-exchanged series for
//! both systems.

use std::sync::Arc;

use dynastar_bench::harness::{Args, Opt, Spec};
use dynastar_bench::report::print_table;
use dynastar_bench::setup::{chirper_cluster, ChirperSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::{BatchConfig, Mode};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{ChirperMix, ChirperWorkload};

const RUN_SECS: u64 = 120;
const CELEBRITY_AT: u64 = 60;
const CLIENTS: usize = 6;
const PARTITIONS: u32 = 4;

struct SeriesSet {
    tput: Vec<f64>,
    multi_pct: Vec<f64>,
    objects: Vec<f64>,
    plans: u64,
}

fn run(mode: Mode) -> SeriesSet {
    run_batched(mode, BatchConfig::UNBATCHED)
}

fn run_batched(mode: Mode, batch: BatchConfig) -> SeriesSet {
    let mut setup = ChirperSetup::new(PARTITIONS, mode);
    setup.cluster.batch = batch;
    if mode == Mode::Dynastar {
        // Repartition when enough workload change accumulates, at most
        // every 50 s (first fix ~50 s, celebrity adaptation ~250 s).
        setup.cluster.repartition_threshold = 6_000;
        setup.cluster.min_plan_interval = SimDuration::from_secs(25);
    }
    let (mut cluster, graph) = chirper_cluster(&setup);
    // The "new celebrity": an existing, unremarkable user who suddenly
    // becomes popular (the id with the *fewest* followers at t=0).
    let celebrity = {
        let g = graph.lock().unwrap();
        (0..g.users() as u64).min_by_key(|&u| g.followers_of(u).len()).unwrap_or(0)
    };
    for _ in 0..CLIENTS {
        cluster.add_client(
            ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX)
                .with_celebrity(celebrity, 40)
                .with_celebrity_after(SimTime::from_secs(CELEBRITY_AT)),
        );
    }
    cluster.run_for(SimDuration::from_secs(RUN_SECS));
    let m = cluster.metrics();
    let take =
        |name: &str| -> Vec<f64> { m.series(name).map(|s| s.rates_per_sec()).unwrap_or_default() };
    let tput = take(mn::CMD_COMPLETED);
    let multi = take(mn::CMD_MULTI);
    let single = take(mn::CMD_SINGLE);
    // Objects-exchanged is recorded per partition; sum the series.
    let mut objects: Vec<f64> = Vec::new();
    for p in 0..PARTITIONS {
        if let Some(s) = m.series(&mn::partition_objects(p)) {
            for (i, v) in s.rates_per_sec().into_iter().enumerate() {
                if objects.len() <= i {
                    objects.resize(i + 1, 0.0);
                }
                objects[i] += v;
            }
        }
    }
    let multi_pct: Vec<f64> = (0..RUN_SECS as usize)
        .map(|t| {
            let mu = multi.get(t).copied().unwrap_or(0.0);
            let si = single.get(t).copied().unwrap_or(0.0);
            if mu + si > 0.0 {
                100.0 * mu / (mu + si)
            } else {
                0.0
            }
        })
        .collect();
    SeriesSet { tput, multi_pct, objects, plans: m.counter(mn::PLANS_PUBLISHED) }
}

static SPEC: Spec = Spec {
    program: "fig6_dynamic_workload",
    positionals: &[],
    opts: &[Opt::Switch("batch-sweep", "append the batched-ordering rerun of the scenario")],
};

fn main() {
    let args = Args::from_env(&SPEC);
    eprintln!(
        "fig6: running DynaStar (random start) for {RUN_SECS}s, celebrity at {CELEBRITY_AT}s..."
    );
    let dynastar = run(Mode::Dynastar);
    eprintln!("fig6: running S-SMR* (optimized static) ...");
    let ssmr = run(Mode::SSmr);

    println!("\nFigure 6 — dynamic workload (celebrity at t={CELEBRITY_AT}s)");
    println!("DynaStar plans published: {}   S-SMR plans: {}\n", dynastar.plans, ssmr.plans);
    // 10-second aggregate rows keep the table readable.
    let mut rows = Vec::new();
    let window = 10usize;
    let avg = |v: &[f64], t: usize| -> f64 {
        let s: f64 = v.iter().skip(t).take(window).sum();
        s / window as f64
    };
    let mut t = 0usize;
    while t < RUN_SECS as usize {
        rows.push(vec![
            format!("{t}"),
            format!("{:.0}", avg(&dynastar.tput, t)),
            format!("{:.1}", avg(&dynastar.multi_pct, t)),
            format!("{:.0}", avg(&dynastar.objects, t)),
            format!("{:.0}", avg(&ssmr.tput, t)),
            format!("{:.1}", avg(&ssmr.multi_pct, t)),
            format!("{:.0}", avg(&ssmr.objects, t)),
        ]);
        t += window;
    }
    print_table(
        &["t(s)", "DS tput", "DS %multi", "DS obj/s", "S* tput", "S* %multi", "S* obj/s"],
        &rows,
    );
    println!("\npaper shape: DynaStar starts below S-SMR*, overtakes after its first repartition,");
    println!("dips when the celebrity appears, recovers after the next repartition; S-SMR* cannot adapt.");

    // Optional extra: does the adaptation story survive a batched ordering
    // pipeline? (pass --batch-sweep). Reports whole-run totals per batch
    // size; the five-phase shape is unchanged, only absolute rates move.
    if args.has("batch-sweep") {
        println!("\n== batch-size sweep (DynaStar, dynamic workload, window 1) ==");
        let mut rows = Vec::new();
        for &mb in &[1usize, 8] {
            eprintln!("fig6 [batch sweep]: max_batch = {mb}...");
            let batch = BatchConfig { max_batch: mb, max_batch_delay_ticks: 2, window: 1 };
            let s = run_batched(Mode::Dynastar, batch);
            let total: f64 = s.tput.iter().sum();
            rows.push(vec![
                format!("{mb}"),
                format!("{:.0}", total / RUN_SECS as f64),
                format!("{}", s.plans),
            ]);
        }
        print_table(&["max_batch", "mean cps", "plans"], &rows);
    }
}
