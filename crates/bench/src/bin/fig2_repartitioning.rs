//! Figure 2: the impact of graph repartitioning on TPC-C.
//!
//! 4 warehouses on 4 partitions, all districts/warehouses *randomly*
//! scattered at t = 0 (so almost every transaction is multi-partition).
//! Mid-run the oracle's hint threshold triggers a repartitioning; the
//! paper's plot shows throughput jumping, object exchanges spiking during
//! migration then dropping, and the multi-partition percentage collapsing.
//!
//! Prints three per-second series: transactions/s, objects exchanged/s,
//! and % multi-partition commands.

use std::sync::Arc;

use dynastar_bench::report::print_table;
use dynastar_bench::setup::{tpcc_cluster, Placement, TpccSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::Mode;
use dynastar_runtime::SimDuration;
use dynastar_workloads::tpcc::{self, TpccWorkload};

fn main() {
    let mut setup = TpccSetup::new(4, Mode::Dynastar);
    setup.placement = Placement::Random;
    setup.cluster.repartition_threshold = 6_000;
    // The paper's first repartitioning lands around t = 50 s; we scale the
    // run to 80 s with the plan gate at 30 s so the committed binary runs
    // in minutes (the phases and shapes are unchanged).
    setup.cluster.min_plan_interval = SimDuration::from_secs(30);
    let mut cluster = tpcc_cluster(&setup);

    let tracker = tpcc::order_tracker();
    // Enough closed-loop terminals to keep the partitions busy.
    for w in 0..setup.scale.warehouses {
        for _ in 0..3 {
            cluster.add_client(TpccWorkload::new(setup.scale, w, Arc::clone(&tracker)));
        }
    }

    const RUN_SECS: u64 = 80;
    eprintln!("fig2: running {RUN_SECS}s of simulated time (4 warehouses / 4 partitions, random initial placement)...");
    cluster.run_for(SimDuration::from_secs(RUN_SECS));

    let m = cluster.metrics();
    let tput = m.series(mn::CMD_COMPLETED).map(|s| s.rates_per_sec()).unwrap_or_default();
    // Objects-exchanged is recorded per partition; sum the series.
    let mut objects: Vec<f64> = Vec::new();
    for p in 0..4u32 {
        if let Some(s) = m.series(&mn::partition_objects(p)) {
            for (i, v) in s.rates_per_sec().into_iter().enumerate() {
                if objects.len() <= i {
                    objects.resize(i + 1, 0.0);
                }
                objects[i] += v;
            }
        }
    }
    let multi = m.series(mn::CMD_MULTI).map(|s| s.rates_per_sec()).unwrap_or_default();
    let single = m.series(mn::CMD_SINGLE).map(|s| s.rates_per_sec()).unwrap_or_default();

    println!("\nFigure 2 — TPC-C repartitioning impact (DynaStar, 4 partitions)");
    println!(
        "plans published: {}   total retries: {}\n",
        m.counter(mn::PLANS_PUBLISHED),
        m.counter(mn::CMD_RETRY)
    );
    let rows: Vec<Vec<String>> = (0..RUN_SECS as usize)
        .map(|t| {
            let tp = tput.get(t).copied().unwrap_or(0.0);
            let ob = objects.get(t).copied().unwrap_or(0.0);
            let mu = multi.get(t).copied().unwrap_or(0.0);
            let si = single.get(t).copied().unwrap_or(0.0);
            let pct = if mu + si > 0.0 { 100.0 * mu / (mu + si) } else { 0.0 };
            vec![format!("{t}"), format!("{tp:.0}"), format!("{ob:.0}"), format!("{pct:.1}")]
        })
        .collect();
    print_table(&["t(s)", "txn/s", "objects/s", "%multi-partition"], &rows);

    // Headline shape check mirrored in EXPERIMENTS.md: early vs late.
    let early: f64 = tput.iter().take(20).sum::<f64>() / 20.0;
    let late: f64 = tput.iter().skip(tput.len().saturating_sub(20)).sum::<f64>() / 20.0;
    println!(
        "\nmean txn/s first 20s: {early:.0}   last 20s: {late:.0}   speedup: {:.1}x",
        late / early.max(1.0)
    );
}
