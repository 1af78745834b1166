//! The metric names, units, directions and regression bounds — the same
//! table `BENCHMARK.json` carries (a test keeps the two in step).

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name in every output.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Def {
    Def { name, unit, lower_is_better: lower, bound }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Def {
    Def { name, unit, lower_is_better: lower, bound: 0.0 }
}

/// What a user of the system sees; reported for every workload.
///
/// Bounds are the issue's where the spread across seeds allows, and at
/// least three times the widest spread seen over ten seeds elsewhere (see
/// README, "Steadiness").
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("cmds_per_sim_s", "1/s", false, 0.08),
    e2e("lat_p50_sim_ms", "ms", true, 0.2),
    e2e("lat_p99_sim_ms", "ms", true, 0.2),
    e2e("max_stall_sim_ms", "ms", true, 0.25),
    e2e("wall_us_per_cmd", "us", true, 0.25),
    e2e("allocs_per_cmd", "count", true, 0.2),
    e2e("alloc_kb_per_cmd", "KiB", true, 0.2),
    e2e("peak_rss_mb", "MiB", true, 0.25),
];

/// Single layers, from the traced run, the program's own counters and the
/// isolated drives.
pub const PER_LAYER: [Def; 75] = [
    // runtime (simulator)
    layer("runtime.events_per_cmd", "count", true),
    layer("runtime.deliveries_per_cmd", "count", true),
    layer("runtime.timers_per_cmd", "count", true),
    layer("runtime.events_per_wall_s", "1/s", false),
    layer("runtime.sim_raw_ns_per_event", "ns", true),
    layer("runtime.sim_floor_share", "ratio", true),
    // core::cluster transport
    layer("net.retx_per_kcmd", "count", true),
    layer("net.fifo_drops", "count", true),
    layer("net.frames_abandoned", "count", true),
    layer("net.stream_resets", "count", true),
    layer("net.dropped_sends", "count", true),
    // paxos
    layer("paxos.elections", "count", true),
    layer("recovery.completions", "count", true),
    layer("recovery.snapshot_elements", "count", true),
    layer("paxos.batch_size_mean", "count", false),
    layer("paxos.batch_flush_full_share", "ratio", false),
    layer("paxos.drive_ns_per_decide", "ns", true),
    layer("paxos.drive_msgs_per_decide", "count", true),
    layer("paxos.drive_ns_per_decide_b32", "ns", true),
    layer("paxos.drive_msgs_per_decide_b32", "count", true),
    // amcast
    layer("amcast.multi_share", "ratio", true),
    layer("amcast.drive_ns_per_deliver_1g", "ns", true),
    layer("amcast.drive_ns_per_deliver_2g", "ns", true),
    layer("amcast.drive_msgs_per_deliver_2g", "count", true),
    // partitioner
    layer("partitioner.full_ms", "ms", true),
    layer("partitioner.warm_ms", "ms", true),
    layer("partitioner.cut_frac", "ratio", true),
    layer("partitioner.balance", "ratio", true),
    // core::client
    layer("client.retry_per_kcmd", "count", true),
    layer("client.timeout_per_kcmd", "count", true),
    layer("client.backoff_per_kcmd", "count", true),
    layer("client.oracle_query_share", "ratio", true),
    layer("lat.op.new_order.p50_sim_ms", "ms", true),
    layer("lat.op.payment.p50_sim_ms", "ms", true),
    layer("lat.op.order_status.p50_sim_ms", "ms", true),
    layer("lat.op.delivery.p50_sim_ms", "ms", true),
    layer("lat.op.stock_level.p50_sim_ms", "ms", true),
    layer("lat.op.timeline.p50_sim_ms", "ms", true),
    layer("lat.op.post.p50_sim_ms", "ms", true),
    layer("gen.late_p99_sim_ms", "ms", true),
    // core::oracle
    layer("oracle.queries_per_sim_s", "1/s", false),
    layer("oracle.plans", "count", true),
    layer("oracle.plans_warm", "count", false),
    layer("oracle.plan_moves", "count", true),
    layer("oracle.plan_edge_cut", "ratio", true),
    layer("oracle.plan_compute_sim_ms", "ms", true),
    layer("oracle.graph_evictions", "count", true),
    layer("oracle.drive_ns_per_query", "ns", true),
    layer("oracle.drive_ns_per_hint", "ns", true),
    // core::server
    layer("server.objects_exchanged_per_cmd", "count", true),
    layer("server.part_load_imbalance", "ratio", true),
    layer("phase.pre_plan.cmds_per_sim_s", "1/s", false),
    layer("phase.post_plan.cmds_per_sim_s", "1/s", false),
    layer("exec.parallel_share", "ratio", false),
    layer("exec.serialized_share", "ratio", true),
    layer("exec.window_stall_share", "ratio", true),
    layer("exec.worker_busy_share", "ratio", false),
    layer("migration.keys_staged", "count", true),
    layer("migration.chunks_sent", "count", true),
    layer("migration.chunk_retries", "count", true),
    layer("migration.reverts", "count", true),
    layer("migration.deferred", "count", true),
    layer("server.drive_ns_per_access", "ns", true),
    // workloads (application + generator)
    layer("app.execute_calls_per_cmd", "count", true),
    layer("app.execute_ns_per_call", "ns", true),
    layer("app.execute_wall_share", "ratio", true),
    layer("app.classify_wall_share", "ratio", true),
    layer("app.vars_per_cmd_mean", "count", true),
    layer("app.vars_per_cmd_p99", "count", true),
    layer("workload.gen_ns_per_cmd", "ns", true),
    layer("workload.gen_wall_share", "ratio", true),
    // budget
    layer("budget.protocol_wall_share", "ratio", true),
    layer("trace.overhead_share", "ratio", true),
    // the run the per-layer numbers came from
    layer("trace.events", "count", true),
    layer("trace.completed", "count", false),
];

/// The declaration of the metric named `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;
    use crate::json::Json;

    /// `BENCHMARK.json` is written by hand; this is what keeps it honest.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let listed = |key: &str| doc.get(key).and_then(Json::arr).expect(key).to_vec();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::str).expect(k).to_owned();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(w, "name"), spec.name);
            assert_eq!(field(w, "why"), spec.why);
            assert!(spec.why.len() <= 200, "{}: why too long", spec.name);
        }
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let entries = listed(key);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (e, d) in entries.iter().zip(table) {
                assert_eq!(field(e, "name"), d.name);
                assert_eq!(field(e, "unit"), d.unit, "{}", d.name);
                let better = if d.lower_is_better { "lower" } else { "higher" };
                assert_eq!(field(e, "better"), better, "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(e.get("bound").and_then(Json::num), Some(d.bound), "{}", d.name);
                }
            }
        }
        let seconds = doc.get("run_seconds").and_then(Json::num).expect("run_seconds");
        assert_eq!(seconds, crate::RUN_SECONDS as f64);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.map(|w| w.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
