//! Figure 3: TPC-C performance scalability.
//!
//! Peak throughput of DynaStar vs S-SMR\* as partitions grow (1 to 16),
//! with the state growing alongside (one warehouse per partition), exactly
//! as in §6.3. S-SMR\* gets the warehouse-aligned static placement;
//! DynaStar starts aligned too but keeps its dynamic machinery (hints,
//! oracle) running.
//!
//! The paper's shape: both scale with partitions; DynaStar tracks the
//! idealized S-SMR\* closely.
//!
//! `--max-parts` defaults to 4, the quick sweep; 16 is the paper scale.

use std::sync::Arc;

use dynastar_bench::harness::{Args, Opt, Record, Row, Spec, OUT};
use dynastar_bench::report::print_table;
use dynastar_bench::setup::{tpcc_cluster, TpccSetup};
use dynastar_core::metric_names as mn;
use dynastar_core::Mode;
use dynastar_runtime::SimDuration;
use dynastar_workloads::tpcc::{self, TpccWorkload};

const CLIENTS_PER_WAREHOUSE: u32 = 3;

fn peak_tput(partitions: u32, mode: Mode, warmup: u64, measure: u64) -> f64 {
    let setup = TpccSetup::new(partitions, mode);
    let mut cluster = tpcc_cluster(&setup);
    let tracker = tpcc::order_tracker();
    for w in 0..setup.scale.warehouses {
        for _ in 0..CLIENTS_PER_WAREHOUSE {
            cluster.add_client(TpccWorkload::new(setup.scale, w, Arc::clone(&tracker)));
        }
    }
    cluster.run_for(SimDuration::from_secs(warmup));
    cluster.metrics_mut().reset();
    cluster.run_for(SimDuration::from_secs(measure));
    cluster.metrics().counter(mn::CMD_COMPLETED) as f64 / measure as f64
}

static SPEC: Spec = Spec {
    program: "fig3_tpcc_scalability",
    positionals: &[],
    opts: &[
        Opt::Value("max-parts", "N", "sweep partitions 1,2,4,8,16 up to N   [4]"),
        Opt::Switch("smoke", "shortened warmup/measure windows"),
        OUT,
    ],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let smoke = args.has("smoke");
    let max_parts: u32 = args.num_or("max-parts", 4).unwrap_or_else(|e| args.fail(&e));
    let (warmup, measure) = if smoke { (1, 2) } else { (3, 6) };
    let sweep: Vec<u32> = [1u32, 2, 4, 8, 16].into_iter().filter(|&k| k <= max_parts).collect();

    println!("Figure 3 — TPC-C scalability (one warehouse per partition, saturating clients)\n");
    // Every (partitions, mode) point is an independent deterministic
    // simulation; fan the whole matrix out across cores and reassemble
    // rows in input order.
    let points: Vec<(u32, Mode)> =
        sweep.iter().flat_map(|&k| [(k, Mode::Dynastar), (k, Mode::SSmr)]).collect();
    let tputs = dynastar_bench::run_parallel(points, 0, |(k, mode)| {
        eprintln!("fig3: running {k} partition(s), {mode:?}...");
        peak_tput(k, mode, warmup, measure)
    });
    let mut rows = Vec::new();
    let mut record = Record::new(SPEC.program, &["partitions"]);
    for (i, &k) in sweep.iter().enumerate() {
        let (dynastar, ssmr) = (tputs[2 * i], tputs[2 * i + 1]);
        rows.push(vec![
            format!("{k}"),
            format!("{dynastar:.0}"),
            format!("{ssmr:.0}"),
            format!("{:.2}", dynastar / ssmr.max(1.0)),
        ]);
        record.rows.push(
            Row::new()
                .num("partitions", k)
                .float("dynastar_tps", dynastar, 0)
                .float("ssmr_tps", ssmr, 0),
        );
    }
    print_table(&["partitions", "DynaStar txn/s", "S-SMR* txn/s", "ratio"], &rows);
    println!("\npaper shape: throughput grows with partitions for both; DynaStar ≈ S-SMR*.");
    record.write_out(&args);
}
