//! Every committed `results/BENCH_*.json` parses with the one reader and
//! holds the rows its CI gate (or its documentation) looks up.

use dynastar_bench::harness::Record;

fn load(name: &str) -> Record {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    Record::load(&path).unwrap_or_else(|e| panic!("{e}"))
}

/// Asserts `record` has the row `key` and that it carries a positive `metric`.
fn assert_gated(record: &Record, key: &[(&str, &str)], metric: &str) {
    let row = record.find(key).unwrap_or_else(|| panic!("{}: no row {key:?}", record.bench));
    assert!(row.f64(metric).is_some_and(|v| v > 0.0), "{}: {key:?} lacks {metric}", record.bench);
}

#[test]
fn every_committed_record_parses() {
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("results/ exists") {
        let name = entry.expect("readable dir entry").file_name().into_string().expect("utf-8");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let record = load(&name);
            assert!(!record.rows.is_empty(), "{name} has no rows");
            for row in &record.rows {
                for k in &record.key {
                    assert!(row.get(k).is_some(), "{name}: a row lacks key field {k}");
                }
            }
            seen += 1;
        }
    }
    assert_eq!(seen, 8, "results/ holds eight BENCH records");
}

#[test]
fn gated_rows_are_present() {
    // fig7 --smoke sweeps the 100k-vertex graph only.
    assert_gated(&load("BENCH_partitioner.json"), &[("vertices", "100000")], "elements_per_sec");
    // fig8 --smoke sweeps every shard count.
    let oracle = load("BENCH_oracle.json");
    for shards in ["1", "2", "4"] {
        assert_gated(&oracle, &[("experiment", "sweep"), ("shards", shards)], "queries_per_sec");
    }
    // fig10 --smoke runs {1, 8} workers at theta 0.90.
    let exec = load("BENCH_exec.json");
    for workers in ["1", "8"] {
        assert_gated(&exec, &[("workers", workers), ("theta", "0.90")], "cmds_per_sim_sec");
    }
    // fig9 --smoke runs every scenario under both policies; the staged
    // rows are the feature-on path and must have staged something.
    let migration = load("BENCH_migration.json");
    for scenario in dynastar_bench::scenarios::NAMES {
        for policy in ["staged", "stall"] {
            assert_gated(&migration, &[("scenario", scenario), ("policy", policy)], "completed");
        }
        let staged = [("scenario", scenario), ("policy", "staged")];
        assert_gated(&migration, &staged, "keys_staged");
        // The second gate: replica 0's share of a plan striped over three
        // source replicas. The record itself must show the striping (under
        // `chained_move`'s brownout retransmits are part of the count).
        assert_gated(&migration, &staged, "chunks_sent");
        let row = migration.find(&staged).expect("asserted above");
        let (sent, keys) = (row.f64("chunks_sent").unwrap(), row.f64("keys_staged").unwrap());
        let share = if scenario == "chained_move" { 0.7 } else { 0.5 };
        assert!(sent <= share * keys, "{scenario}: {sent} chunks sent for {keys} keys");
    }
}

#[test]
fn perf_records_pin_the_standard_schedules() {
    // (record, workload, simulated seconds, events, completed, plans):
    // schedules repeat exactly, so a perf change that moves them is not
    // only a perf change. The `tpcc` and `chirper` rows pin
    // `repartition_threshold = u64::MAX`, so their partitions collect and
    // send no hints; `chirper_repartition` runs the hint path, and its
    // plans land inside the window. `events` counts popped events; a
    // cancelled or replaced timer is removed from the queue and never
    // pops. The long record (`--sim-secs 40`) runs the Chirper rows at
    // their 3 s cap too.
    for (record, workload, sim_secs, events, completed, plans) in [
        ("BENCH_perf.json", "tpcc", "10", "2143440", "27558", "0"),
        ("BENCH_perf.json", "chirper", "3", "884391", "15921", "0"),
        ("BENCH_perf.json", "chirper_repartition", "3", "911414", "15277", "2"),
        ("BENCH_perf_long.json", "tpcc", "40", "8576635", "110937", "0"),
        ("BENCH_perf_long.json", "chirper", "3", "884391", "15921", "0"),
        ("BENCH_perf_long.json", "chirper_repartition", "3", "911414", "15277", "2"),
    ] {
        let perf = load(record);
        let standard = [
            ("workload", workload),
            ("mode", "dynastar"),
            ("partitions", "4"),
            ("sim_secs", sim_secs),
            ("seed", "1"),
            ("clients_per_warehouse", "6"),
            ("exec_workers", "1"),
        ];
        let row = perf.find(&standard).expect("standard probe_perf configuration");
        assert_eq!(row.get("events"), Some(events), "{record} {workload}");
        assert_eq!(row.get("completed"), Some(completed), "{record} {workload}");
        assert_eq!(row.get("plans"), Some(plans), "{record} {workload}");
        // The CI gate compares the run's allocation count and bytes, and
        // the process's peak RSS.
        assert!(perf.key.iter().any(|k| k == "sim_secs"), "{record}: a key without the window");
        for metric in ["allocs", "alloc_mb", "peak_rss_kb"] {
            assert_gated(&perf, &standard, metric);
        }
    }
}
