//! The real-thread deployment takes the same `ClusterConfig` through the
//! same hosts as the simulated one, so what the cores ask of their driver
//! — the wake timer above all — is honoured on threads too. Each test
//! here sets a knob whose feature cannot work without that: a service
//! time, staged migration, a client backoff, a second oracle shard.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dynastar_amcast::MsgId;
use dynastar_core::linearizability::{check, OpRecord, Spec};
use dynastar_core::metric_names as mn;
use dynastar_core::server::{ExecConfig, ServerConfig};
use dynastar_core::threaded::{ThreadedClient, ThreadedCluster};
use dynastar_core::{
    exec_shard, Application, ClusterConfig, Command, CommandKind, LocKey, PartitionId, VarId,
};
use dynastar_runtime::{NodeId, SimDuration, SimTime};

/// Ten counters to a key; a command adds `op` to the variables it names
/// and reports their new values.
struct Counters;

impl Application for Counters {
    type Op = i64;
    type Value = i64;
    type Reply = Vec<(VarId, i64)>;

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0 / 10)
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

const KEYS: u64 = 8;
/// Longer than anything here takes unless something is stuck.
const PATIENCE: Duration = Duration::from_secs(10);

/// Two partitions, keys alternating between them, every variable zero.
fn start(config: ClusterConfig) -> ThreadedCluster<Counters> {
    let placement = (0..KEYS).map(|k| (LocKey(k), PartitionId((k % 2) as u32))).collect();
    let vars = (0..KEYS * 10).map(|v| (VarId(v), 0)).collect();
    ThreadedCluster::start(ClusterConfig { partitions: 2, ..config }, placement, vars)
}

/// A deployment whose oracle plans early: a handful of hinted commands
/// after the first 300 ms, 10 ms of modelled compute.
fn planning(server: ServerConfig) -> ClusterConfig {
    ClusterConfig {
        repartition_threshold: 8,
        min_plan_interval: SimDuration::from_millis(300),
        compute_base: SimDuration::from_millis(10),
        server: ServerConfig { hint_batch: 4, ..server },
        ..ClusterConfig::default()
    }
}

fn access(op: i64, vars: &[u64]) -> CommandKind<Counters> {
    CommandKind::Access { op, vars: vars.iter().map(|&v| VarId(v)).collect() }
}

fn add(client: &mut ThreadedClient<Counters>, op: i64, vars: &[u64]) -> Vec<i64> {
    let reply = client.execute(access(op, vars), PATIENCE).expect("a reply in time").expect("ok");
    reply.into_iter().map(|(_, value)| value).collect()
}

fn counter(cluster: &ThreadedCluster<Counters>, name: &str) -> u64 {
    cluster.metrics().lock().counter(name)
}

/// Bumps the first variable of every even key together with its odd
/// neighbour's — which lives on the other partition — until the oracle
/// has published a plan that brings neighbours together. Returns how
/// often each pair was bumped.
fn drive_to_a_plan(
    cluster: &ThreadedCluster<Counters>,
    client: &mut ThreadedClient<Counters>,
) -> i64 {
    let begun = Instant::now();
    let mut rounds = 0;
    while counter(cluster, mn::PLANS_PUBLISHED) == 0 {
        assert!(begun.elapsed() < PATIENCE, "no plan after {rounds} rounds");
        rounds += 1;
        for k in (0..KEYS).step_by(2) {
            assert_eq!(add(client, 1, &[k * 10, k * 10 + 10]), [rounds, rounds]);
        }
    }
    let moves = cluster.metrics().lock().series(mn::PLAN_MOVES).map_or(0.0, |s| s.total());
    assert!(moves >= 1.0, "the plan moves nothing");
    rounds
}

/// With the wake-up dropped, the second command sits behind the busy
/// executor until some unrelated message arrives — there is none.
#[test]
fn a_busy_executor_wakes_itself_up() {
    let busy = SimDuration::from_millis(1);
    let mut cluster = start(ClusterConfig {
        exec: ExecConfig::serial(busy),
        warm_client_caches: true,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client();
    let begun = Instant::now();
    for n in 1..=20 {
        assert_eq!(add(&mut client, 1, &[0]), [n]);
    }
    // Each waited out its predecessor's service time.
    assert!(begun.elapsed() >= Duration::from_millis(19), "{:?}", begun.elapsed());
    cluster.shutdown();
}

/// A staged transfer is paced by the link clock and by ack deadlines:
/// both are wake-ups. Nothing else pumps it once the clients are silent.
/// A caller that stops waiting leaves a client it can use again: the
/// command it gave up on is a failure, not a command still in flight.
#[test]
fn a_client_whose_command_timed_out_executes_the_next() {
    let mut cluster = start(ClusterConfig {
        exec: ExecConfig::serial(SimDuration::from_millis(50)),
        warm_client_caches: true,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client();
    // Occupies the executor for 50 ms; the next waits behind it for longer
    // than its caller does.
    assert_eq!(add(&mut client, 1, &[0]), [1]);
    assert!(client.execute(access(1, &[0]), Duration::from_millis(5)).is_none());
    // The abandoned command was delivered, so it still executes — ahead of
    // this one, whose reply the client now takes.
    assert_eq!(add(&mut client, 1, &[0]), [3]);
    assert_eq!(counter(&cluster, mn::CMD_FAILED), 1);
    cluster.shutdown();
}

#[test]
fn a_staged_plan_completes_with_the_clients_silent() {
    // Ten variables a key, two a chunk, 16 ms of link time a chunk.
    let mut cluster = start(ClusterConfig {
        replicas: 1,
        ..planning(ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 2,
            migration_var_bytes: 8 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_secs(2),
            ..ServerConfig::default()
        })
    });
    let mut client = cluster.client();
    let rounds = drive_to_a_plan(&cluster, &mut client);

    // A lone replica per group sends every chunk itself, and counts it.
    let chunks = |cluster: &ThreadedCluster<Counters>| {
        let staged = counter(cluster, mn::MIGRATION_KEYS_STAGED);
        (counter(cluster, mn::MIGRATION_CHUNKS_SENT), staged * 5)
    };
    let begun = Instant::now();
    loop {
        let (sent, due) = chunks(&cluster);
        if due > 0 && sent >= due {
            break;
        }
        assert!(begun.elapsed() < PATIENCE, "stuck at {sent} of {due} chunks");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(counter(&cluster, mn::MIGRATION_CHUNK_RETRIES), 0);
    assert_eq!(counter(&cluster, mn::MIGRATION_REVERTS), 0);

    // Every key is where the oracle says it is, with what it had.
    let mut fresh = cluster.client();
    for k in 0..KEYS {
        assert_eq!(add(&mut fresh, 0, &[k * 10, k * 10 + 9]), [rounds, 0], "key {k}");
    }
    cluster.shutdown();
}

/// A client told its routing is stale backs off before asking again; the
/// end of the backoff is a wake-up inside `execute`'s receive loop.
#[test]
fn a_stale_client_retries_after_its_backoff() {
    let mut cluster = start(ClusterConfig {
        client_retry_backoff: SimDuration::from_millis(5),
        warm_client_caches: true,
        ..planning(ServerConfig::default())
    });
    let mut client = cluster.client();
    let rounds = drive_to_a_plan(&cluster, &mut client);
    // This one has never heard of the plan: for a key that moved, its
    // cache names the old owner, who turns it away.
    let mut stale = cluster.client();
    for k in 0..KEYS {
        assert_eq!(add(&mut stale, 0, &[k * 10]), [rounds], "key {k}");
    }
    assert!(counter(&cluster, mn::CMD_RETRY_BACKOFF) >= 1, "nobody was turned away");
    cluster.shutdown();
}

/// Queries go to the shard `exec_shard` names, plans to every shard: a
/// cold client asking either shard about any key is sent to the right
/// partition the first time.
#[test]
fn two_oracle_shards_serve_queries_and_both_hear_of_the_plan() {
    let mut cluster =
        start(ClusterConfig { oracle_shards: 2, ..planning(ServerConfig::default()) });
    let mut client = cluster.client();
    let rounds = drive_to_a_plan(&cluster, &mut client);
    std::thread::sleep(Duration::from_millis(200)); // let the moves land
    let retries = counter(&cluster, mn::CMD_RETRY);

    let mut asked = [false; 2];
    let mut cold = cluster.client();
    for k in 0..KEYS {
        let kind = access(0, &[k * 10]);
        let cmd = Command { id: MsgId::new(0, 0), client: NodeId::from_raw(0), kind };
        asked[exec_shard(&cmd, 0, 2) as usize] = true;
        assert_eq!(add(&mut cold, 0, &[k * 10]), [rounds], "key {k}");
    }
    assert_eq!(asked, [true; 2], "the keys do not cover both shards");
    assert_eq!(counter(&cluster, mn::CMD_RETRY), retries, "a shard answered from a stale map");
    assert_eq!(cluster.dropped_sends(), 0);
    cluster.shutdown();
}

/// Sequential specification of [`Counters`] under `op = 1`.
struct CounterSpec;

impl Spec for CounterSpec {
    type State = BTreeMap<u64, i64>;
    type Op = Vec<u64>;
    type Ret = Vec<i64>;

    fn apply(state: &Self::State, vars: &Vec<u64>) -> (Self::State, Vec<i64>) {
        let mut next = state.clone();
        let ret = vars.iter().map(|&v| {
            let value = next.entry(v).or_insert(0);
            *value += 1;
            *value
        });
        let ret = ret.collect();
        (next, ret)
    }
}

/// Two clients on two OS threads, overlapping keys, every third command
/// spanning both partitions: the history they saw is linearizable.
#[test]
fn concurrent_threaded_clients_see_a_linearizable_history() {
    let mut cluster = start(ClusterConfig::default());
    let origin = Instant::now();
    let stamp = move || SimTime::from_micros(origin.elapsed().as_micros() as u64);
    let run = |mut client: ThreadedClient<Counters>, offset: u64| {
        std::thread::spawn(move || {
            let mut history = Vec::new();
            for i in 0..30u64 {
                let a = (i + offset) % 3 * 10;
                let mut vars = if i % 3 == 0 { vec![a, (a + 10) % 30] } else { vec![a] };
                vars.sort_unstable();
                let invoke = stamp();
                let ret = add(&mut client, 1, &vars);
                history.push(OpRecord { invoke, response: stamp(), op: vars, ret });
            }
            history
        })
    };
    let threads = [run(cluster.client(), 0), run(cluster.client(), 1)];
    let history: Vec<_> = threads.into_iter().flat_map(|t| t.join().expect("client")).collect();
    assert_eq!(history.len(), 60);
    assert!(check::<CounterSpec>(&history, BTreeMap::new()), "not linearizable: {history:?}");
    cluster.shutdown();
}
