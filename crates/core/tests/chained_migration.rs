//! Chained migration under a mid-run link brownout: moves A→B→C where the
//! A→B transfer gives up and reverts while a later plan has already
//! chained the key onward — the plan-history replay path end to end.
//!
//! The scenario mirrors `fig9_migration_interference --scenario
//! chained_move` at test scale: three partitions with contiguous key
//! blocks, a hot spot that rotates between blocks every plan interval
//! (single-key commands, so the foreground never crosses the degraded
//! mesh), and a pure-delay brownout of every link between the
//! partition-0 and partition-1 replica groups, slower round trip than
//! the chunk retry ladder tolerates. Transfers crossing 0 ↔ 1 inside
//! the window exhaust their retries and revert even though their chunks
//! eventually land, so `MigrationDone` and `MigrationRevert` race in
//! the total order; plans keep landing meanwhile and chain the same hot
//! keys onward.
//!
//! Assertions: every replica of every group converges to a byte-identical
//! key→partition view, the union of the partition views equals the
//! oracle's map, no client-visible command error surfaces, and the whole
//! execution is deterministic (same seed → same delivered-command hash).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynastar_core::linearizability::{check, OpRecord, Spec};
use dynastar_core::metric_names as mn;
use dynastar_core::server::ServerConfig;
use dynastar_core::{
    Application, ClusterBuilder, ClusterConfig, Command, CommandKind, LocKey, LocationView, Mode,
    PartitionId, VarId, Workload,
};
use dynastar_runtime::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Add-and-report counters, one variable per locality key.
struct Counters;

impl Application for Counters {
    type Op = i64;
    type Value = i64;
    type Reply = i64;

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }

    fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> i64 {
        let mut last = 0;
        for v in vars.values_mut() {
            last = v.unwrap_or(0) + op;
            *v = Some(last);
        }
        last
    }
}

const DOMAIN: u64 = 60;
const PARTITIONS: u32 = 3;
/// The hot block advances one partition-sized stride per period, so each
/// plan finds the keys the previous plan just placed hot somewhere else.
const ROT_PERIOD: SimDuration = SimDuration::from_secs(2);
const STRIDE: u64 = DOMAIN / PARTITIONS as u64;

/// Single-key commands against a rotating hot block: at any instant all
/// traffic lands on `STRIDE` consecutive keys, and the window slides by
/// `STRIDE` every [`ROT_PERIOD`]. Single keys keep every command
/// single-partition, so the blackout never blocks the foreground.
struct RotatingHot;

impl Workload<Counters> for RotatingHot {
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Counters>> {
        let offset = (now.as_micros() / ROT_PERIOD.as_micros()) * STRIDE % DOMAIN;
        let rank = (offset + rng.gen_range(0..STRIDE)) % DOMAIN;
        Some(CommandKind::Access { op: 1, vars: vec![VarId(rank)] })
    }
}

struct RunOutcome {
    views: Vec<Vec<Option<LocationView>>>,
    completed: u64,
    failed: u64,
    reverts: u64,
    chunk_retries: u64,
}

fn run_chained(seed: u64, secs: u64, trace: bool) -> RunOutcome {
    run_chained_sharded(seed, secs, trace, 1)
}

fn run_chained_sharded(seed: u64, secs: u64, trace: bool, shards: u32) -> RunOutcome {
    let config = ClusterConfig {
        partitions: PARTITIONS,
        replicas: 3,
        mode: Mode::Dynastar,
        seed,
        repartition_threshold: 60,
        min_plan_interval: ROT_PERIOD,
        warm_client_caches: true,
        oracle_shards: shards,
        server: ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 4,
            migration_var_bytes: 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(100),
            migration_max_retries: 3,
            migration_max_inflight_per_link: 2,
            hint_batch: 4,
            ..ServerConfig::default()
        },
        client_retry_backoff: SimDuration::from_millis(2),
        ..ClusterConfig::default()
    };
    let mut b = ClusterBuilder::new(config);
    for v in 0..DOMAIN {
        b.place(LocKey(v), PartitionId((v / STRIDE) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    for _ in 0..3 {
        cluster.add_client(RotatingHot);
    }
    // Brownout of the partition-0 ↔ partition-1 mesh from 4 s to 12 s:
    // pure delay, zero loss. The 2 s one-way penalty means a chunk's ack
    // returns ~4 s after the send — far past the give-up point of the
    // retry ladder (~1.5 s at 100 ms timeout × 3 retries) — so sources
    // crossing the mesh mid-window exhaust their retries and multicast
    // `MigrationRevert`, while the destination (which still receives
    // every chunk, late but never lost) completes staging and multicasts
    // `MigrationDone`. Both race in the total order and the plan-history
    // replay settles whichever lands second as stale. Zero loss keeps
    // the atomic-multicast timestamp exchange (and thus both groups'
    // delivery pipelines) alive, merely slowed.
    let (ga, gb) = {
        let groups = cluster.groups();
        (groups[0].clone(), groups[1].clone())
    };
    let (brown_start, brown_end) = (SimTime::from_secs(4), SimTime::from_secs(12));
    for &x in &ga {
        for &y in &gb {
            for (from, to) in [(x, y), (y, x)] {
                cluster.sim.schedule_link_degrade(
                    brown_start,
                    from,
                    to,
                    SimDuration::from_secs(2),
                    0,
                );
                cluster.sim.schedule_link_repair(brown_end, from, to);
            }
        }
    }
    if trace {
        for s in 1..=secs {
            cluster.run_for(SimDuration::from_secs(1));
            let m = cluster.metrics();
            eprintln!(
                "t={s:>2}s plans={} staged={} sent={} rtx={} reverts={} done={} failed={}",
                m.counter(mn::PLANS_PUBLISHED),
                m.counter(mn::MIGRATION_KEYS_STAGED),
                m.counter(mn::MIGRATION_CHUNKS_SENT),
                m.counter(mn::MIGRATION_CHUNK_RETRIES),
                m.counter(mn::MIGRATION_REVERTS),
                m.counter(mn::CMD_COMPLETED),
                m.counter(mn::CMD_FAILED),
            );
        }
    } else {
        cluster.run_for(SimDuration::from_secs(secs));
    }
    let m = cluster.metrics();
    RunOutcome {
        completed: m.counter(mn::CMD_COMPLETED),
        failed: m.counter(mn::CMD_FAILED),
        reverts: m.counter(mn::MIGRATION_REVERTS),
        chunk_retries: m.counter(mn::MIGRATION_CHUNK_RETRIES),
        views: cluster.location_views(),
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "CHAINED_TRACE opts into printing the run's trace; it changes no state"
)]
fn chained_moves_with_giveup_reverts_converge() {
    let out = run_chained(7, 20, std::env::var("CHAINED_TRACE").is_ok());
    assert!(out.completed > 0, "workload must make progress");
    assert_eq!(out.failed, 0, "blackout must never surface client-visible errors");
    assert!(out.chunk_retries > 0, "blackout must force chunk retries");
    assert!(out.reverts > 0, "blackout must force give-up reverts");

    // Group convergence: within each group every live replica reports the
    // same key→partition view, byte for byte.
    let mut partition_union: BTreeMap<u64, u32> = BTreeMap::new();
    let oracle_group = out.views.len() - 1;
    for (gi, group) in out.views.iter().enumerate() {
        let views: Vec<&Vec<(u64, u32)>> = group.iter().filter_map(|v| v.as_ref()).collect();
        assert!(!views.is_empty(), "group {gi}: no live replica reported a view");
        for v in &views[1..] {
            assert_eq!(*v, views[0], "group {gi}: replicas diverge");
        }
        if gi != oracle_group {
            for &(k, p) in views[0] {
                assert_eq!(p, gi as u32, "group {gi} claims key {k} it does not own");
                let prev = partition_union.insert(k, p);
                assert_eq!(prev, None, "key {k} owned by two partitions");
            }
        }
    }
    // The union of what the partitions own is exactly the oracle's map.
    let oracle: BTreeMap<u64, u32> =
        out.views[oracle_group][0].as_ref().unwrap().iter().copied().collect();
    assert_eq!(partition_union, oracle, "partition ownership diverges from the oracle map");
}

/// The convergence invariant at four oracle shards, after plans and
/// racing migrations: every shard group converges internally, each shard
/// reports only keys its hash slice owns, the shard views are pairwise
/// disjoint, and their union is exactly the union of the partition views
/// — the sliced map is still the one authoritative map.
#[test]
fn sharded_views_union_to_authoritative_map() {
    const SHARDS: u32 = 4;
    let out = run_chained_sharded(7, 20, false, SHARDS);
    assert!(out.completed > 0, "workload must make progress");
    assert_eq!(out.failed, 0, "sharding must never surface client-visible errors");
    assert!(out.reverts > 0, "blackout must still force give-up reverts");

    let k = PARTITIONS as usize;
    assert_eq!(out.views.len(), k + SHARDS as usize, "one group per partition and per shard");

    let mut partition_union: BTreeMap<u64, u32> = BTreeMap::new();
    for (gi, group) in out.views[..k].iter().enumerate() {
        let views: Vec<&Vec<(u64, u32)>> = group.iter().filter_map(|v| v.as_ref()).collect();
        assert!(!views.is_empty(), "partition {gi}: no live replica reported a view");
        for v in &views[1..] {
            assert_eq!(*v, views[0], "partition {gi}: replicas diverge");
        }
        for &(key, p) in views[0] {
            assert_eq!(p, gi as u32, "partition {gi} claims key {key} it does not own");
            assert_eq!(partition_union.insert(key, p), None, "key {key} owned by two partitions");
        }
    }

    let mut shard_union: BTreeMap<u64, u32> = BTreeMap::new();
    for (si, group) in out.views[k..].iter().enumerate() {
        let views: Vec<&Vec<(u64, u32)>> = group.iter().filter_map(|v| v.as_ref()).collect();
        assert!(!views.is_empty(), "shard {si}: no live replica reported a view");
        for v in &views[1..] {
            assert_eq!(*v, views[0], "shard {si}: replicas diverge");
        }
        for &(key, p) in views[0] {
            assert_eq!(
                dynastar_core::shard_of(LocKey(key), SHARDS),
                si as u32,
                "key {key} reported by a shard that does not own its hash slice"
            );
            assert_eq!(shard_union.insert(key, p), None, "key {key} reported by two shards");
        }
    }
    assert_eq!(
        partition_union, shard_union,
        "union of shard slices diverges from partition ownership"
    );
}

#[test]
fn chained_runs_are_deterministic() {
    let a = run_chained(7, 20, false);
    let b = run_chained(7, 20, false);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.reverts, b.reverts);
    assert_eq!(a.chunk_retries, b.chunk_retries);
    assert_eq!(a.views, b.views);
}

// ---------------------------------------------------------------------------
// Linearizability across the brownout (Wing–Gong over a paced history).
// ---------------------------------------------------------------------------

/// Sequential specification: each op increments one counter by 1 and
/// returns its new value.
struct ChainedSpec;

impl Spec for ChainedSpec {
    type State = BTreeMap<u64, i64>;
    type Op = u64;
    type Ret = i64;

    fn apply(state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        let mut next = state.clone();
        let val = next.get(op).copied().unwrap_or(0) + 1;
        next.insert(*op, val);
        (next, val)
    }
}

type Records = Vec<OpRecord<u64, i64>>;
type History = Arc<Mutex<Records>>;

/// [`RotatingHot`] paced by think time, recording an op history: the
/// bounded command budget stretches across the whole run (and thus the
/// brownout window) instead of draining in the first milliseconds of a
/// closed loop.
struct PacedRecorder {
    remaining: u32,
    history: History,
    issued_at: SimTime,
}

impl Workload<Counters> for PacedRecorder {
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Counters>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.issued_at = now;
        RotatingHot.next_command(now, rng)
    }

    fn on_completed(&mut self, now: SimTime, cmd: &Command<Counters>, reply: Option<&i64>) {
        let Some(&reply) = reply else { return };
        let CommandKind::Access { vars, .. } = &cmd.kind else { return };
        self.history.lock().unwrap().push(OpRecord {
            invoke: self.issued_at,
            response: now,
            op: vars[0].0,
            ret: reply,
        });
    }

    fn think_time(&mut self, _now: SimTime, rng: &mut StdRng) -> SimDuration {
        if self.remaining == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis(300 + rng.gen_range(0..300u64))
        }
    }
}

#[test]
fn chained_histories_across_brownout_are_linearizable() {
    // 3 × 20 = 60 ops keeps the history under the checker's 64-op cap.
    const CLIENTS: usize = 3;
    const OPS: u32 = 20;
    let config = ClusterConfig {
        partitions: PARTITIONS,
        replicas: 3,
        mode: Mode::Dynastar,
        seed: 11,
        // The paced history is the only load (~6 ops/s), so the plan
        // trigger must be far more sensitive than in the throughput runs.
        repartition_threshold: 12,
        min_plan_interval: ROT_PERIOD,
        warm_client_caches: true,
        server: ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 4,
            migration_var_bytes: 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(100),
            migration_max_retries: 3,
            migration_max_inflight_per_link: 2,
            hint_batch: 1,
            ..ServerConfig::default()
        },
        client_timeout: SimDuration::from_secs(3),
        client_retry_backoff: SimDuration::from_millis(2),
        ..ClusterConfig::default()
    };
    let mut b = ClusterBuilder::new(config);
    for v in 0..DOMAIN {
        b.place(LocKey(v), PartitionId((v / STRIDE) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let history: History = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..CLIENTS {
        cluster.add_client(PacedRecorder {
            remaining: OPS,
            history: Arc::clone(&history),
            issued_at: SimTime::ZERO,
        });
    }
    // Same brownout topology as the throughput run, shifted to cover the
    // middle of the slower paced timeline.
    let (ga, gb) = {
        let groups = cluster.groups();
        (groups[0].clone(), groups[1].clone())
    };
    for &x in &ga {
        for &y in &gb {
            for (from, to) in [(x, y), (y, x)] {
                cluster.sim.schedule_link_degrade(
                    SimTime::from_secs(4),
                    from,
                    to,
                    SimDuration::from_secs(2),
                    0,
                );
                cluster.sim.schedule_link_repair(SimTime::from_secs(12), from, to);
            }
        }
    }
    cluster.run_for(SimDuration::from_secs(60));
    assert!(
        cluster.metrics().counter(mn::PLANS_PUBLISHED) > 1,
        "the paced load must still trigger repartitioning"
    );
    assert_eq!(cluster.metrics().counter(mn::CMD_FAILED), 0);
    let recorded = history.lock().unwrap().clone();
    assert_eq!(recorded.len(), CLIENTS * OPS as usize, "every paced command must complete");
    assert!(check::<ChainedSpec>(&recorded, BTreeMap::new()), "history is not linearizable");
}
