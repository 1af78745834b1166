//! Crash-recovery under randomized fault injection.
//!
//! The seed tests cover crash-stop (a crashed replica stays down); these
//! cover the crash-recovery extensions: restarted replicas rebuild from a
//! quorum of peer snapshots, transport streams resynchronize across
//! incarnation epochs, abandoned frames heal with explicit gaps, and a
//! seeded nemesis run — crashes, restarts, disconnects, reconnects — keeps
//! every client history linearizable and is bit-for-bit reproducible.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynastar_core::linearizability::{check, OpRecord, Spec};
use dynastar_core::{
    metric_names, Application, BatchConfig, ClusterBuilder, ClusterConfig, Command, CommandKind,
    LocKey, Mode, PartitionId, VarId, Workload,
};
use dynastar_runtime::nemesis::{NemesisConfig, NemesisPlan};
use dynastar_runtime::{NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Add-and-report counters (same app as the seed linearizability tests).
struct Counters;

impl Application for Counters {
    type Op = i64;
    type Value = i64;
    type Reply = Vec<(VarId, i64)>;

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }

    fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> Self::Reply {
        vars.iter_mut()
            .map(|(&v, val)| {
                let next = val.unwrap_or(0) + op;
                *val = Some(next);
                (v, next)
            })
            .collect()
    }
}

/// Sequential specification for the checker.
struct CounterSpec;

impl Spec for CounterSpec {
    type State = BTreeMap<u64, i64>;
    type Op = Vec<u64>; // vars incremented by 1
    type Ret = Vec<(u64, i64)>;

    fn apply(state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        let mut next = state.clone();
        let mut ret = Vec::new();
        let mut sorted = op.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for v in sorted {
            let val = next.get(&v).copied().unwrap_or(0) + 1;
            next.insert(v, val);
            ret.push((v, val));
        }
        (next, ret)
    }
}

type Records = Vec<OpRecord<Vec<u64>, Vec<(u64, i64)>>>;
type History = Arc<Mutex<Records>>;

/// Random increments over a small var set, recording an op history.
struct Recorder {
    vars: u64,
    remaining: u32,
    multi_pct: u32,
    history: History,
    issued_at: SimTime,
}

impl Workload<Counters> for Recorder {
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Counters>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.issued_at = now;
        let a = rng.gen_range(0..self.vars);
        let mut vars = vec![VarId(a)];
        if rng.gen_range(0..100u32) < self.multi_pct {
            let b = rng.gen_range(0..self.vars);
            if b != a {
                vars.push(VarId(b));
            }
        }
        Some(CommandKind::Access { op: 1, vars })
    }

    fn on_completed(
        &mut self,
        now: SimTime,
        cmd: &Command<Counters>,
        reply: Option<&Vec<(VarId, i64)>>,
    ) {
        let Some(reply) = reply else { return };
        let CommandKind::Access { vars, .. } = &cmd.kind else { return };
        self.history.lock().unwrap().push(OpRecord {
            invoke: self.issued_at,
            response: now,
            op: vars.iter().map(|v| v.0).collect(),
            ret: reply.iter().map(|&(v, n)| (v.0, n)).collect(),
        });
    }
}

const VARS: u64 = 6;

/// `service_ms` sets the modelled per-command CPU time — the knob that
/// stretches a bounded op count (the checker caps at 64) across the fault
/// windows, so commands are genuinely in flight when faults land.
fn build_cluster(
    seed: u64,
    repartition: bool,
    service_ms: u64,
) -> dynastar_core::Cluster<Counters> {
    build_cluster_batched(seed, repartition, service_ms, BatchConfig::UNBATCHED)
}

fn build_cluster_batched(
    seed: u64,
    repartition: bool,
    service_ms: u64,
    batch: BatchConfig,
) -> dynastar_core::Cluster<Counters> {
    let config = ClusterConfig {
        batch,
        partitions: 2,
        replicas: 3,
        mode: Mode::Dynastar,
        seed,
        repartition_threshold: if repartition { 20 } else { u64::MAX },
        min_plan_interval: SimDuration::from_secs(1),
        server: dynastar_core::server::ServerConfig { hint_batch: 4, ..Default::default() },
        exec: dynastar_core::ExecConfig::serial(SimDuration::from_millis(service_ms)),
        warm_client_caches: true,
        client_timeout: SimDuration::from_secs(3),
        ..ClusterConfig::default()
    };
    let mut b = ClusterBuilder::new(config);
    for v in 0..VARS {
        b.place(LocKey(v), PartitionId((v % 2) as u32));
        b.with_var(VarId(v), 0);
    }
    b.build()
}

fn add_recorders(
    cluster: &mut dynastar_core::Cluster<Counters>,
    clients: usize,
    cmds_per_client: u32,
    multi_pct: u32,
) -> History {
    let history: History = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..clients {
        cluster.add_client(Recorder {
            vars: VARS,
            remaining: cmds_per_client,
            multi_pct,
            history: Arc::clone(&history),
            issued_at: SimTime::ZERO,
        });
    }
    history
}

/// A crashed replica restarts, rebuilds from a quorum of peer snapshots,
/// and the cluster keeps serving a linearizable history throughout.
#[test]
fn restarted_replica_rejoins_via_peer_snapshots() {
    let mut cluster = build_cluster(71, false, 50);
    // 60 ops at ~50 ms modelled service each: traffic spans the
    // crash/restart window.
    let history = add_recorders(&mut cluster, 3, 20, 40);
    // Node 0 = partition 0, replica 0: its group's initial leader.
    let victim = NodeId::from_raw(0);
    cluster.sim.schedule_crash(SimTime::from_millis(200), victim);
    cluster.sim.schedule_restart(SimTime::from_millis(900), victim);
    cluster.run_for(SimDuration::from_secs(120));

    assert_eq!(cluster.sim.incarnation(victim), 1);
    let m = cluster.metrics();
    assert!(
        m.counter(metric_names::RECOVERY_COMPLETIONS) >= 1,
        "restarted replica never completed recovery"
    );
    // A quorum (2 of its 2 peers) donated snapshots.
    assert!(m.counter(metric_names::RECOVERY_SNAPSHOTS) >= 2);
    // Streams to/from the restarted incarnation were resynchronized.
    assert!(m.counter(metric_names::NET_STREAM_RESETS) > 0);

    let recorded = history.lock().unwrap().clone();
    assert_eq!(recorded.len(), 3 * 20, "not all commands completed");
    assert!(check::<CounterSpec>(&recorded, BTreeMap::new()), "history not linearizable");
}

/// Replicas disconnected across a repartitioning rejoin cleanly and the
/// history stays linearizable (migration tolerates a faulty minority).
#[test]
fn disconnect_during_migration_is_linearizable() {
    for seed in [81u64, 82] {
        let mut cluster = build_cluster(seed, true, 20);
        // Enough multi-partition traffic to cross the repartition
        // threshold of 20 graph changes.
        let history = add_recorders(&mut cluster, 3, 20, 50);
        // One partition replica and one oracle replica drop out across the
        // window where the low threshold forces repartitioning plans.
        let part_victim = NodeId::from_raw(1); // partition 0, replica 1
        let oracle_victim = cluster.groups().last().unwrap()[2];
        cluster.sim.schedule_disconnect(SimTime::from_millis(600), part_victim);
        cluster.sim.schedule_reconnect(SimTime::from_secs(6), part_victim);
        cluster.sim.schedule_disconnect(SimTime::from_secs(2), oracle_victim);
        cluster.sim.schedule_reconnect(SimTime::from_secs(8), oracle_victim);
        cluster.run_for(SimDuration::from_secs(120));

        let m = cluster.metrics();
        assert!(m.counter(metric_names::PLANS_PUBLISHED) >= 1, "no repartitioning happened");
        let recorded = history.lock().unwrap().clone();
        assert_eq!(recorded.len(), 3 * 20, "not all commands completed (seed {seed})");
        assert!(check::<CounterSpec>(&recorded, BTreeMap::new()), "seed {seed} not linearizable");
    }
}

/// A disconnection longer than the transport's retransmission give-up
/// (30 s) abandons frames; the explicit jump announcement heals the
/// stream when the peer returns instead of stalling it forever, and the
/// loss is visible in the abandonment counter.
#[test]
fn long_disconnect_heals_with_explicit_stream_gap() {
    let mut cluster = build_cluster(91, false, 0);
    // Ops spread over the run so traffic exists both before and after the
    // outage window.
    let history = add_recorders(&mut cluster, 2, 10, 30);
    let victim = NodeId::from_raw(4); // partition 1, replica 1
    cluster.sim.schedule_disconnect(SimTime::from_secs(2), victim);
    cluster.sim.schedule_reconnect(SimTime::from_secs(40), victim);
    cluster.run_for(SimDuration::from_secs(150));

    let m = cluster.metrics();
    assert!(
        m.counter(metric_names::NET_FRAMES_ABANDONED) > 0,
        "a 38s outage must outlive the 30s retransmission give-up"
    );
    let recorded = history.lock().unwrap().clone();
    assert_eq!(recorded.len(), 2 * 10, "not all commands completed");
    assert!(check::<CounterSpec>(&recorded, BTreeMap::new()), "history not linearizable");
}

/// One full nemesis run: seeded random crashes/restarts and
/// disconnects/reconnects (at most one faulty replica per group at a
/// time). Returns the recorded history plus the counters the assertions
/// need.
fn nemesis_run(cluster_seed: u64, nemesis_seed: u64) -> (Records, u64, u64) {
    nemesis_run_batched(cluster_seed, nemesis_seed, BatchConfig::UNBATCHED)
}

fn nemesis_run_batched(
    cluster_seed: u64,
    nemesis_seed: u64,
    batch: BatchConfig,
) -> (Records, u64, u64) {
    // ~400 ms modelled service keeps 63 ops (just under the checker's
    // 64-op cap) in flight deep into the 2–30 s fault window.
    let mut cluster = build_cluster_batched(cluster_seed, false, 400, batch);
    let history = add_recorders(&mut cluster, 3, 21, 40);
    let cfg = NemesisConfig {
        seed: nemesis_seed,
        start: SimTime::from_secs(2),
        end: SimTime::from_secs(30),
        mean_interval: SimDuration::from_secs(6),
        min_downtime: SimDuration::from_millis(400),
        max_downtime: SimDuration::from_secs(3),
        grace: SimDuration::from_secs(3),
        crash_pct: 50,
        ..NemesisConfig::default()
    };
    let plan = NemesisPlan::generate(&cfg, cluster.groups());
    assert!(plan.crash_count() >= 1, "schedule exercises no restarts");
    assert!(plan.disconnect_count() >= 1, "schedule exercises no disconnects");
    plan.apply(&mut cluster.sim);
    cluster.sim.metrics_mut().incr_counter(metric_names::FAULT_CRASHES, plan.crash_count());
    cluster.sim.metrics_mut().incr_counter(metric_names::FAULT_RESTARTS, plan.crash_count());
    cluster
        .sim
        .metrics_mut()
        .incr_counter(metric_names::FAULT_DISCONNECTS, plan.disconnect_count());
    cluster.sim.metrics_mut().incr_counter(metric_names::FAULT_RECONNECTS, plan.disconnect_count());
    cluster.run_for(SimDuration::from_secs(150));

    let recoveries = cluster.metrics().counter(metric_names::RECOVERY_COMPLETIONS);
    let crashes = plan.crash_count();
    let recorded = history.lock().unwrap().clone();
    (recorded, recoveries, crashes)
}

/// The tentpole acceptance check: under a full randomized fault schedule
/// every client op completes, the history is linearizable, every crashed
/// replica recovered via snapshots, and the whole run is deterministic —
/// two runs from the same seeds produce identical histories.
#[test]
fn randomized_nemesis_run_is_linearizable_and_deterministic() {
    let (h1, recoveries, crashes) = nemesis_run(7, 7);
    assert_eq!(h1.len(), 3 * 21, "not all commands completed under faults");
    assert!(check::<CounterSpec>(&h1, BTreeMap::new()), "nemesis history not linearizable");
    assert!(
        recoveries >= crashes,
        "every crash must recover via snapshot install ({recoveries} recoveries, {crashes} crashes)"
    );

    let (h2, recoveries2, _) = nemesis_run(7, 7);
    assert_eq!(recoveries, recoveries2, "recovery count differs between same-seed runs");
    let key = |h: &Records| {
        h.iter().map(|r| (r.invoke, r.response, r.op.clone(), r.ret.clone())).collect::<Vec<_>>()
    };
    assert_eq!(key(&h1), key(&h2), "same-seed nemesis runs diverged");
}

/// The batched ordering pipeline under the same randomized fault schedule:
/// batches flush, leaders change mid-batch, buffered commands are
/// forwarded — and the histories stay exactly as linearizable and
/// seed-deterministic as the unbatched pipeline's (the unbatched
/// configuration is covered by
/// [`randomized_nemesis_run_is_linearizable_and_deterministic`]).
#[test]
fn batched_nemesis_run_is_linearizable_and_deterministic() {
    let batch = BatchConfig { max_batch: 8, max_batch_delay_ticks: 2, window: 2 };
    let (h1, recoveries, crashes) = nemesis_run_batched(7, 7, batch);
    assert_eq!(h1.len(), 3 * 21, "not all commands completed under faults (batched)");
    assert!(check::<CounterSpec>(&h1, BTreeMap::new()), "batched nemesis history not linearizable");
    assert!(
        recoveries >= crashes,
        "every crash must recover via snapshot install ({recoveries} recoveries, {crashes} crashes)"
    );

    let (h2, recoveries2, _) = nemesis_run_batched(7, 7, batch);
    assert_eq!(recoveries, recoveries2, "recovery count differs between same-seed batched runs");
    let key = |h: &Records| {
        h.iter().map(|r| (r.invoke, r.response, r.op.clone(), r.ret.clone())).collect::<Vec<_>>()
    };
    assert_eq!(key(&h1), key(&h2), "same-seed batched nemesis runs diverged");
}

/// A synchronized crash wave plus a degraded link, landing while the low
/// repartition threshold keeps staged migrations in flight: every wave
/// crash rebuilds from peer snapshots, all commands complete, and the
/// history stays linearizable — recovery converges even when the faults
/// overlap chunked state transfer.
#[test]
fn crash_wave_mid_migration_converges() {
    let config = ClusterConfig {
        partitions: 2,
        replicas: 3,
        mode: Mode::Dynastar,
        seed: 17,
        repartition_threshold: 20,
        min_plan_interval: SimDuration::from_secs(1),
        server: dynastar_core::server::ServerConfig {
            hint_batch: 4,
            staged_migration: true,
            migration_chunk_vars: 2,
            migration_var_bytes: 8 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(100),
            migration_max_retries: 6,
            ..Default::default()
        },
        exec: dynastar_core::ExecConfig::serial(SimDuration::from_millis(100)),
        warm_client_caches: true,
        client_timeout: SimDuration::from_secs(3),
        client_retry_backoff: SimDuration::from_millis(2),
        ..ClusterConfig::default()
    };
    let mut b = ClusterBuilder::new(config);
    for v in 0..VARS {
        b.place(LocKey(v), PartitionId((v % 2) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    // 60 multi-heavy ops at ~100 ms modelled service each: traffic (and
    // the migrations it triggers) spans the wave window.
    let history = add_recorders(&mut cluster, 3, 20, 50);
    let cfg = NemesisConfig {
        seed: 5,
        start: SimTime::from_secs(2),
        end: SimTime::from_secs(14),
        // A quiet random schedule: the synchronized wave and the degraded
        // link are the whole event.
        mean_interval: SimDuration::from_secs(3600),
        crash_waves: 1,
        wave_downtime: SimDuration::from_secs(2),
        link_faults: 1,
        link_extra_delay: SimDuration::from_millis(5),
        link_loss_pm: 100_000,
        ..NemesisConfig::default()
    };
    let plan = NemesisPlan::generate(&cfg, cluster.groups());
    let wave_crashes = plan.crash_count();
    assert_eq!(wave_crashes, 3, "one wave must crash a replica in every group");
    plan.apply(&mut cluster.sim);
    cluster.run_for(SimDuration::from_secs(120));

    let m = cluster.metrics();
    assert!(m.counter(metric_names::PLANS_PUBLISHED) >= 1, "no repartitioning happened");
    assert!(
        m.counter(metric_names::RECOVERY_COMPLETIONS) >= wave_crashes,
        "every wave crash must recover via peer snapshots ({} recoveries, {} crashes)",
        m.counter(metric_names::RECOVERY_COMPLETIONS),
        wave_crashes
    );
    let recorded = history.lock().unwrap().clone();
    assert_eq!(recorded.len(), 3 * 20, "not all commands completed");
    assert!(check::<CounterSpec>(&recorded, BTreeMap::new()), "history not linearizable");
}

/// A source replica crashes in the middle of its stripe of a staged plan
/// and comes back while the plan is still moving. Its peers' links carry
/// on, its own stripe waits to be stolen or resumed, and nothing a client
/// can see depends on which: every command completes, the history is
/// linearizable, no transfer gives up.
#[test]
fn source_replica_crash_mid_stripe_costs_time_not_completion() {
    const KEYS: u64 = 48;
    let config = ClusterConfig {
        partitions: 2,
        replicas: 3,
        mode: Mode::Dynastar,
        seed: 23,
        repartition_threshold: 20,
        min_plan_interval: SimDuration::from_secs(1),
        server: dynastar_core::server::ServerConfig {
            hint_batch: 4,
            staged_migration: true,
            // A quarter of a second per key on the wire: a plan of a dozen
            // keys keeps three links busy across the crash and the restart.
            migration_var_bytes: 256 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: 8,
            ..Default::default()
        },
        exec: dynastar_core::ExecConfig::serial(SimDuration::from_millis(60)),
        warm_client_caches: true,
        client_timeout: SimDuration::from_secs(3),
        client_retry_backoff: SimDuration::from_millis(2),
        ..ClusterConfig::default()
    };
    let mut b = ClusterBuilder::new(config);
    for v in 0..KEYS {
        b.place(LocKey(v), PartitionId((v % 2) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let history: History = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..3 {
        cluster.add_client(Recorder {
            vars: KEYS,
            remaining: 21,
            multi_pct: 80,
            history: Arc::clone(&history),
            issued_at: SimTime::ZERO,
        });
    }

    let counter = |c: &dynastar_core::Cluster<Counters>, name| c.metrics().counter(name);
    while counter(&cluster, metric_names::MIGRATION_KEYS_STAGED) == 0 {
        cluster.run_for(SimDuration::from_millis(10));
        assert!(cluster.sim.now() < SimTime::from_secs(30), "no plan staged a key");
    }
    cluster.run_for(SimDuration::from_millis(300));
    let victims = [cluster.groups()[0][1], cluster.groups()[1][2]];
    let sent_before = counter(&cluster, metric_names::MIGRATION_CHUNKS_SENT);
    for v in victims {
        cluster.sim.crash_now(v);
    }
    cluster.run_for(SimDuration::from_millis(400));
    for v in victims {
        cluster.sim.restart_now(v);
    }
    cluster.run_for(SimDuration::from_secs(120));

    let m = cluster.metrics();
    assert!(
        m.counter(metric_names::MIGRATION_CHUNKS_SENT) > sent_before,
        "the crash fell inside the plan's transfers"
    );
    assert_eq!(m.counter(metric_names::RECOVERY_COMPLETIONS), 2);
    assert_eq!(m.counter(metric_names::MIGRATION_REVERTS), 0);
    assert_eq!(m.counter(metric_names::CMD_FAILED), 0);
    let recorded = history.lock().unwrap().clone();
    assert_eq!(recorded.len(), 3 * 21, "not all commands completed");
    assert!(check::<CounterSpec>(&recorded, BTreeMap::new()), "history not linearizable");
    for group in cluster.location_views() {
        assert!(group.iter().all(|v| v.is_some() && v == &group[0]), "replicas agree");
    }
}

/// Fixed seed, no faults: every batch size yields a complete linearizable
/// history and two runs of the same configuration are identical — batching
/// changes scheduling, never determinism or safety.
#[test]
fn fault_free_histories_deterministic_across_batch_sizes() {
    let run = |batch: BatchConfig| {
        let mut cluster = build_cluster_batched(11, false, 20, batch);
        let history = add_recorders(&mut cluster, 3, 15, 40);
        cluster.run_for(SimDuration::from_secs(60));
        let recorded = history.lock().unwrap().clone();
        recorded
    };
    for batch in
        [BatchConfig::UNBATCHED, BatchConfig { max_batch: 8, max_batch_delay_ticks: 2, window: 1 }]
    {
        let h1 = run(batch);
        assert_eq!(h1.len(), 3 * 15, "not all commands completed (max_batch {})", batch.max_batch);
        assert!(
            check::<CounterSpec>(&h1, BTreeMap::new()),
            "history not linearizable (max_batch {})",
            batch.max_batch
        );
        let h2 = run(batch);
        let key = |h: &Records| {
            h.iter()
                .map(|r| (r.invoke, r.response, r.op.clone(), r.ret.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&h1), key(&h2), "same-seed runs diverged (max_batch {})", batch.max_batch);
    }
}
