//! Turns repetitions into named metrics.

use dynastar_core::metric_names as mn;

use crate::config::Spec;
use crate::recorder::KINDS;
use crate::run::{self, Rep};
use crate::stats;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `metrics::END_TO_END` / `metrics::PER_LAYER`.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// The per-repetition values behind a wall-clock median (empty for
    /// metrics that repeat exactly).
    pub samples: Vec<f64>,
}

fn metric(name: &str, value: f64) -> Metric {
    Metric { name: name.to_owned(), value, samples: Vec::new() }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Peak resident set of this process so far, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced invocation.
///
/// `sub_runs` holds the first repetition of each program seed: simulated
/// and allocation metrics repeat exactly per seed, so they are the mean
/// over those. `walls` is the wall µs per command of every repetition (the
/// sub-runs and any repeats) and `setups` every set-up timed; both report
/// their median.
pub fn end_to_end(spec: &Spec, sub_runs: &[Rep], walls: &[f64], setups: &[f64]) -> Vec<Metric> {
    // Set-up samples are not kept: the first few of a process run cold and
    // always spread wider than any bound; the median is what is bounded.
    let mut out = vec![metric("setup_s", stats::median(setups))];
    let per_run: Vec<Vec<(&str, f64)>> = sub_runs.iter().map(|r| run::simulated(spec, r)).collect();
    for (i, (name, _)) in per_run[0].iter().enumerate() {
        out.push(metric(name, mean(per_run.iter().map(|m| m[i].1))));
    }
    out.push(Metric {
        name: "wall_us_per_cmd".into(),
        value: stats::median(walls),
        samples: walls.to_vec(),
    });
    let per_cmd = |f: fn(&Rep) -> u64, scale: f64| {
        mean(sub_runs.iter().map(|r| f(r) as f64 / scale / r.completed(spec) as f64))
    };
    out.push(metric("allocs_per_cmd", per_cmd(|r| r.allocs, 1.0)));
    out.push(metric("alloc_kb_per_cmd", per_cmd(|r| r.alloc_bytes, 1024.0)));
    out.push(metric("peak_rss_mb", peak_rss_mb()));
    out
}

/// The per-layer metrics of a traced invocation: the traced repetition
/// `t`, the median wall seconds of untraced repetitions at the same seed,
/// and the isolated drives' results.
pub fn per_layer(
    spec: &Spec,
    t: &Rep,
    untraced_wall_s: f64,
    drives: &[(&'static str, f64)],
) -> Vec<Metric> {
    let done = t.completed(spec) as f64;
    let run_s = spec.sim_ms as f64 / 1_000.0;
    let c = |name: &str| t.counter(name) as f64;
    let per_k = |name: &str| c(name) * 1_000.0 / done;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let drive = |name: &str| drives.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
    let hist = |name: &str| t.histograms.get(name).copied().unwrap_or((0.0, 0));
    let series = |name: &str| t.series.get(name).copied().unwrap_or(0.0);
    let wall_ns = untraced_wall_s * 1e9;
    let sum = |spans: &[(u64, u64)]| {
        spans.iter().fold((0.0, 0.0), |a, s| (a.0 + s.0 as f64, a.1 + s.1 as f64))
    };

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64| out.push(metric(name, value));

    // runtime
    push("runtime.events_per_cmd", t.events as f64 / done);
    push("runtime.deliveries_per_cmd", t.events_by_kind[0] as f64 / done);
    push("runtime.timers_per_cmd", t.events_by_kind[1] as f64 / done);
    push("runtime.events_per_wall_s", t.events as f64 / untraced_wall_s);
    let raw_ns = drive("runtime.sim_raw_ns_per_event");
    let sim_floor = t.events as f64 * raw_ns / wall_ns;
    push("runtime.sim_raw_ns_per_event", raw_ns);
    push("runtime.sim_floor_share", sim_floor);

    // transport
    push("net.retx_per_kcmd", per_k(mn::NET_RETRANSMISSIONS));
    push("net.fifo_drops", c(mn::NET_FIFO_DROPS));
    push("net.frames_abandoned", c(mn::NET_FRAMES_ABANDONED));
    push("net.stream_resets", c(mn::NET_STREAM_RESETS));
    push("net.dropped_sends", c(mn::NET_DROPPED_SENDS));

    // paxos
    push("paxos.elections", c(mn::LEADER_ELECTIONS));
    push("recovery.completions", c(mn::RECOVERY_COMPLETIONS));
    push("recovery.snapshot_elements", c(mn::RECOVERY_SNAPSHOT_ELEMENTS));
    push("paxos.batch_size_mean", hist(mn::BATCH_SIZE).0);
    let (full, delay) = (c(mn::BATCH_FLUSH_FULL), c(mn::BATCH_FLUSH_DELAY));
    push("paxos.batch_flush_full_share", ratio(full, full + delay));
    for name in [
        "paxos.drive_ns_per_decide",
        "paxos.drive_msgs_per_decide",
        "paxos.drive_ns_per_decide_b32",
        "paxos.drive_msgs_per_decide_b32",
    ] {
        push(name, drive(name));
    }

    // amcast
    let (multi, single) = (c(mn::CMD_MULTI), c(mn::CMD_SINGLE));
    push("amcast.multi_share", ratio(multi, multi + single));
    for name in [
        "amcast.drive_ns_per_deliver_1g",
        "amcast.drive_ns_per_deliver_2g",
        "amcast.drive_msgs_per_deliver_2g",
        "partitioner.full_ms",
        "partitioner.warm_ms",
        "partitioner.cut_frac",
        "partitioner.balance",
    ] {
        push(name, drive(name));
    }

    // client
    push("client.retry_per_kcmd", per_k(mn::CMD_RETRY));
    push("client.timeout_per_kcmd", per_k(mn::CMD_TIMEOUT));
    push("client.backoff_per_kcmd", per_k(mn::CMD_RETRY_BACKOFF));
    push("client.oracle_query_share", c(mn::ORACLE_QUERIES) / done);
    let (classes, late_p99) = run::by_class(spec, t);
    for (name, p50) in &classes {
        push(name, *p50);
    }
    push("gen.late_p99_sim_ms", late_p99);

    // oracle
    let plans = c(mn::PLANS_PUBLISHED);
    push("oracle.queries_per_sim_s", c(mn::ORACLE_QUERIES) / run_s);
    push("oracle.plans", plans);
    push("oracle.plans_warm", c(mn::PLANS_WARM));
    push("oracle.plan_moves", series(mn::PLAN_MOVES));
    push("oracle.plan_edge_cut", ratio(series(mn::PLAN_EDGE_CUT), plans));
    push("oracle.plan_compute_sim_ms", hist(mn::PLAN_COMPUTE_TIME).0 / 1_000.0);
    push("oracle.graph_evictions", c(mn::ORACLE_GRAPH_EVICTIONS));
    push("oracle.drive_ns_per_query", drive("oracle.drive_ns_per_query"));
    push("oracle.drive_ns_per_hint", drive("oracle.drive_ns_per_hint"));

    // server
    push("server.objects_exchanged_per_cmd", c(mn::OBJECTS_EXCHANGED) / done);
    let loads: Vec<f64> =
        (0..spec.partitions).map(|p| series(&mn::partition_executed(p))).collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len() as f64;
    push("server.part_load_imbalance", ratio(loads.iter().copied().fold(0.0, f64::max), mean_load));
    let (pre, post) = phase_throughput(spec, t);
    push("phase.pre_plan.cmds_per_sim_s", pre);
    push("phase.post_plan.cmds_per_sim_s", post);
    push("exec.parallel_share", c(mn::EXEC_PARALLEL) / done);
    push("exec.serialized_share", c(mn::EXEC_SERIALIZED) / done);
    push("exec.window_stall_share", c(mn::EXEC_WINDOW_STALL) / done);
    // Busy time over capacity; only replica 0 of each partition records.
    let workers: Vec<(f64, u64)> = t
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("exec.worker."))
        .map(|(_, v)| *v)
        .collect();
    let busy_us: f64 = workers.iter().map(|&(mean_us, n)| mean_us * n as f64).sum();
    let capacity_us = workers.len() as f64 * spec.partitions as f64 * run_s * 1e6;
    push("exec.worker_busy_share", ratio(busy_us, capacity_us));
    push("migration.keys_staged", c(mn::MIGRATION_KEYS_STAGED));
    push("migration.chunks_sent", c(mn::MIGRATION_CHUNKS_SENT));
    push("migration.chunk_retries", c(mn::MIGRATION_CHUNK_RETRIES));
    push("migration.reverts", c(mn::MIGRATION_REVERTS));
    push("migration.deferred", c(mn::MIGRATION_DEFERRED));
    push("server.drive_ns_per_access", drive("server.drive_ns_per_access"));

    // application and generator (spans of the traced run; shares are of the
    // untraced run's wall time, which the spans do not inflate)
    let (exec_calls, exec_ns) = sum(&t.execute);
    let (_, classify_ns) = sum(&t.classify);
    let gen_ns: f64 = t.log.iter().map(|r| f64::from(r.gen_ns)).sum();
    let mut vars: Vec<u64> = t.log.iter().map(|r| u64::from(r.vars)).collect();
    vars.sort_unstable();
    push("app.execute_calls_per_cmd", exec_calls / done);
    push("app.execute_ns_per_call", ratio(exec_ns, exec_calls));
    push("app.execute_wall_share", exec_ns / wall_ns);
    push("app.classify_wall_share", classify_ns / wall_ns);
    push("app.vars_per_cmd_mean", vars.iter().sum::<u64>() as f64 / vars.len() as f64);
    push("app.vars_per_cmd_p99", stats::p99(&vars).unwrap_or(0) as f64);
    push("workload.gen_ns_per_cmd", gen_ns / t.log.len() as f64);
    push("workload.gen_wall_share", gen_ns / wall_ns);

    // what is left for paxos + amcast + cores + transport
    let named = (exec_ns + classify_ns + gen_ns) / wall_ns + sim_floor;
    push("budget.protocol_wall_share", 1.0 - named);
    push("trace.overhead_share", t.wall_s / untraced_wall_s - 1.0);
    push("trace.events", t.events as f64);
    push("trace.completed", done);
    out
}

/// Throughput before the first plan and after the last, over the window.
/// Without a plan the whole window counts as "before".
fn phase_throughput(spec: &Spec, rep: &Rep) -> (f64, f64) {
    let (from, to) = run::window(spec);
    let rate = |a: u64, b: u64| {
        if b <= a {
            return 0.0;
        }
        rep.answered(a, b).count() as f64 * 1e6 / (b - a) as f64
    };
    match (rep.plan_times.first(), rep.plan_times.last()) {
        // A plan is dated to the end of the step it appeared in.
        (Some(&first), Some(&last)) => {
            (rate(from, first.saturating_sub(run::STEP.as_micros())), rate(last.max(from), to))
        }
        _ => (rate(from, to), 0.0),
    }
}

/// One line per command and per application span, for
/// `benchmark/out/trace_<workload>.jsonl`.
pub fn trace_lines(rep: &Rep) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in &rep.log {
        let complete = if r.complete == crate::recorder::PENDING {
            "null".into()
        } else {
            r.complete.to_string()
        };
        writeln!(
            out,
            "{{\"span\": \"command\", \"client\": {}, \"kind\": \"{}\", \"vars\": {}, \"due_us\": {}, \
             \"submit_us\": {}, \"complete_us\": {complete}, \"ok\": {}, \"gen_ns\": {}}}",
            r.client, KINDS[r.kind as usize], r.vars, r.due, r.submit, r.ok, r.gen_ns
        )
        .expect("String write");
    }
    for (span, totals) in [("execute", &rep.execute), ("classify", &rep.classify)] {
        for (k, &(calls, ns)) in totals.iter().enumerate().filter(|(_, s)| s.0 > 0) {
            writeln!(
                out,
                "{{\"span\": \"{span}\", \"kind\": \"{}\", \"calls\": {calls}, \"wall_ns\": {ns}}}",
                KINDS[k]
            )
            .expect("String write");
        }
    }
    out
}
