//! Isolated drives: one layer's public API at a time, fed with inputs made
//! from the same workload and seed as the full run, single-threaded.
//!
//! These are per-call costs with nothing else on the machine's caches, so
//! they are a floor under what the layer costs inside a full run, not its
//! share of it. Message counts per operation repeat exactly; times are
//! the fastest of three repetitions.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use dynastar_amcast::{GroupId, McastMember, McastWire, MemberId, MsgId, Topology};
use dynastar_core::oracle::{OracleConfig, OracleCore};
use dynastar_core::server::{ServerConfig, ServerCore};
use dynastar_core::{
    compute_route, Application, BatchConfig, Command, LocKey, Mode, PartitionId, Payload, VarId,
    Workload,
};
use dynastar_partitioner::{partition, partition_from, GraphBuilder, PartitionConfig};
use dynastar_paxos::{GroupConfig, PaxosMsg, PaxosReplica};
use dynastar_runtime::prelude::*;
use dynastar_workloads::chirper::Chirper;
use dynastar_workloads::tpcc::Tpcc;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{self, Inputs, Spec};

/// Wall time every drive spends per repetition, at least.
const REP_TIME: Duration = Duration::from_millis(170);
/// Repetitions per drive; the fastest is reported.
const REPS: usize = 3;
/// Commands drawn from the workload's generators to feed the drives.
const STREAM: usize = 4_000;

/// Runs `chunk` (which times its own measured part and returns that time
/// and the operations it did) until [`REP_TIME`] of measured time has
/// passed, [`REPS`] times; returns the lowest nanoseconds per operation.
fn fastest(mut chunk: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (mut spent, mut ops) = (Duration::ZERO, 0);
        while spent < REP_TIME {
            let (t, n) = chunk();
            spent += t;
            ops += n;
        }
        best = best.min(spent.as_nanos() as f64 / ops as f64);
    }
    best
}

/// The simulator with actors that do nothing but bounce a counter: the
/// cost of one event through the queue, the network model and dispatch.
fn sim_raw_ns_per_event() -> f64 {
    struct Echo;
    impl Actor<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, hops: u64) {
            if hops > 0 {
                ctx.send(from, hops - 1);
            }
        }
    }
    struct Starter(NodeId);
    impl Actor<u64> for Starter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for _ in 0..100 {
                ctx.send(self.0, 2_000);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, hops: u64) {
            if hops > 0 {
                ctx.send(from, hops - 1);
            }
        }
    }
    fastest(|| {
        let mut sim = Simulation::new(SimConfig::default().seed(1));
        let echo = sim.add_node("echo", Echo);
        sim.add_node("starter", Starter(echo));
        let started = Instant::now();
        sim.run_until_quiescent();
        (started.elapsed(), sim.events_processed())
    })
}

/// A three-replica Paxos group driven message by message: `(ns, messages)`
/// per decided command. `burst` commands are proposed back to back before
/// the network drains; with `burst > 1` the leader batches them into one
/// slot (a tick that would flush a partial batch never comes).
fn paxos_per_decide(burst: usize) -> (f64, f64) {
    let batch = if burst == 1 {
        BatchConfig::UNBATCHED
    } else {
        BatchConfig { max_batch: burst, max_batch_delay_ticks: 1, window: 0 }
    };
    let mut msgs_per_decide = 0.0;
    let ns = fastest(|| {
        let cfg = GroupConfig::new(3).with_batching(batch);
        let mut replicas: Vec<PaxosReplica<u64>> =
            (0..3).map(|i| PaxosReplica::new(i, cfg.clone())).collect();
        let mut queue: VecDeque<(usize, usize, PaxosMsg<u64>)> = VecDeque::new();
        let (mut decided, mut msgs) = (0u64, 0u64);
        let started = Instant::now();
        for round in 0..(2_048 / burst) as u64 {
            for i in 0..burst as u64 {
                let out = replicas[0].propose(round * burst as u64 + i);
                decided += out.decided.len() as u64;
                queue.extend(out.outgoing.into_iter().map(|(to, m)| (0, to, m)));
            }
            while let Some((from, to, m)) = queue.pop_front() {
                msgs += 1;
                let out = replicas[to].on_message(from, m);
                if to == 0 {
                    decided += out.decided.len() as u64;
                }
                queue.extend(out.outgoing.into_iter().map(|(t, m)| (to, t, m)));
            }
        }
        let spent = started.elapsed();
        assert_eq!(decided, 2_048, "paxos drive lost commands");
        msgs_per_decide = msgs as f64 / decided as f64;
        (spent, decided)
    });
    (ns, msgs_per_decide)
}

/// Atomic multicast to `groups` groups of three: `(ns, messages)` per
/// message delivered at the sender.
fn amcast_per_deliver(groups: u32) -> (f64, f64) {
    let mut msgs_per_deliver = 0.0;
    let ns = fastest(|| {
        let topo = Topology::uniform(groups as usize, 3);
        let mut members: BTreeMap<MemberId, McastMember<u64>> = topo
            .groups()
            .flat_map(|g| topo.members_of(g).collect::<Vec<_>>())
            .map(|m| (m, McastMember::new(m, topo.clone())))
            .collect();
        let sender = MemberId::new(GroupId(0), 0);
        let dests: Vec<GroupId> = (0..groups).map(GroupId).collect();
        let mut queue: VecDeque<(MemberId, McastWire<u64>)> = VecDeque::new();
        let mut msgs = 0u64;
        let started = Instant::now();
        for i in 0..1_000u32 {
            let member = members.get_mut(&sender).expect("sender is a member");
            queue.extend(member.submit(MsgId::new(1, i), dests.clone(), u64::from(i)).outgoing);
            while let Some((to, wire)) = queue.pop_front() {
                msgs += 1;
                let member = members.get_mut(&to).expect("wire addressed to a member");
                queue.extend(member.on_message(wire).outgoing);
            }
        }
        let spent = started.elapsed();
        let delivered = members[&sender].delivered_count();
        assert_eq!(delivered, 1_000, "amcast drive lost messages");
        msgs_per_deliver = msgs as f64 / delivered as f64;
        (spent, delivered)
    });
    (ns, msgs_per_deliver)
}

/// Draws [`STREAM`] commands from the generators, round-robin, the way
/// clients would have issued them had every reply been instant.
fn command_stream<A: Application, G: Workload<A>>(
    generators: &mut [G],
    seed: u64,
) -> Vec<Command<A>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E25);
    let clients = generators.len();
    (0..STREAM)
        .filter_map(|i| {
            let kind = generators[i % clients].next_command(SimTime::ZERO, &mut rng)?;
            let client = NodeId::from_raw(1_000 + (i % clients) as u32);
            Some(Command { id: MsgId::new(u64::from(client.as_raw()), i as u32), client, kind })
        })
        .collect()
}

/// The partitioner on the stream's co-access graph (a vertex per key
/// weighted by accesses, a clique per command — what the servers' hints
/// build at the oracle): `[full ms, warm ms, cut fraction, balance]`.
fn partitioner<A: Application>(stream: &[Command<A>], k: u32, seed: u64) -> [f64; 4] {
    let mut index: BTreeMap<LocKey, u32> = BTreeMap::new();
    let mut weights: Vec<u64> = Vec::new();
    let mut edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for cmd in stream {
        let vs: Vec<u32> = cmd
            .keys()
            .into_iter()
            .map(|key| {
                let next = index.len() as u32;
                let v = *index.entry(key).or_insert(next);
                if v == next {
                    weights.push(0);
                }
                weights[v as usize] += 1;
                v
            })
            .collect();
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                *edges.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
    }
    let mut b = GraphBuilder::new();
    for (v, &w) in weights.iter().enumerate() {
        b.add_vertex(v as u32).set_vertex_weight(v as u32, w);
    }
    for (&(u, v), &w) in &edges {
        b.add_edge(u, v, w);
    }
    let g = b.build();
    let cfg = PartitionConfig::default().seed(seed);
    let full = partition(&g, k, &cfg);
    let full_ns = fastest(|| {
        let started = Instant::now();
        black_box(partition(black_box(&g), k, &cfg));
        (started.elapsed(), 1)
    });
    let warm_ns = fastest(|| {
        let started = Instant::now();
        black_box(partition_from(black_box(&g), k, full.assignment(), &cfg));
        (started.elapsed(), 1)
    });
    let cut = full.edge_cut(&g) as f64 / g.total_edge_weight().max(1) as f64;
    [full_ns / 1e6, warm_ns / 1e6, cut, full.balance(&g)]
}

/// Delivers `payloads` one simulated µs apart through `deliver` (a core's
/// `on_deliver`), timing only the deliveries: `(time, payloads fed)`.
fn feed<P, E>(
    payloads: Vec<P>,
    mut deliver: impl FnMut(P, SimTime, &mut Metrics) -> E,
) -> (Duration, u64) {
    let fed = payloads.len() as u64;
    let mut metrics = Metrics::new();
    let started = Instant::now();
    for (i, payload) in payloads.into_iter().enumerate() {
        black_box(deliver(payload, SimTime::from_micros(i as u64), &mut metrics));
    }
    (started.elapsed(), fed)
}

/// `ServerCore::on_deliver` on a partition that owns every key, so each
/// command is single-partition and executes at once: ns per access.
fn server_ns_per_access<A: Application>(
    stream: &[Command<A>],
    placement: &[(LocKey, PartitionId)],
    vars: &[(VarId, A::Value)],
) -> f64 {
    let home = PartitionId(0);
    fastest(|| {
        let mut core = ServerCore::<A>::new(home, Mode::Dynastar, ServerConfig::default());
        core.preload(placement.iter().map(|&(k, _)| k), vars.iter().cloned());
        let payloads: Vec<Payload<A>> = stream
            .iter()
            .map(|cmd| {
                let route = compute_route(cmd, |_| Some(home)).expect("every key has a home");
                Payload::Access {
                    cmd: cmd.clone(),
                    attempt: 0,
                    expected: route.expected,
                    target: route.target,
                    keep: false,
                }
            })
            .collect();
        feed(payloads, |payload, now, metrics| core.on_deliver(payload, now, metrics))
    })
}

fn oracle_core<A: Application>(k: u32, placement: &[(LocKey, PartitionId)]) -> OracleCore<A> {
    let mut core = OracleCore::<A>::new(OracleConfig {
        partitions: k,
        mode: Mode::Dynastar,
        // Never plan: the drives time the query and hint paths alone.
        repartition_threshold: u64::MAX,
        compute_base: SimDuration::from_millis(100),
        compute_per_element: SimDuration::from_micros(1),
        balance_factor: 1.2,
        decay_hints: true,
        min_plan_interval: SimDuration::from_secs(3_600),
        record_metrics: true,
        max_graph_vertices: 1 << 18,
        max_graph_edges: 1 << 20,
        warm_start: true,
        warm_quality_ratio: 1.1,
        warm_churn_limit: 0.25,
        shards: 1,
        shard: 0,
        digest_threshold: 256,
        digest_interval: SimDuration::from_millis(500),
    });
    core.preload_map(placement.iter().copied());
    core
}

/// `OracleCore::on_deliver` fed the stream as location queries
/// (`Payload::Exec`): ns per query.
fn oracle_ns_per_query<A: Application>(
    stream: &[Command<A>],
    k: u32,
    placement: &[(LocKey, PartitionId)],
) -> f64 {
    fastest(|| {
        let mut core = oracle_core::<A>(k, placement);
        let payloads: Vec<Payload<A>> =
            stream.iter().map(|cmd| Payload::Exec { cmd: cmd.clone(), attempt: 0 }).collect();
        feed(payloads, |payload, now, metrics| core.on_deliver(payload, now, metrics))
    })
}

/// `OracleCore::on_deliver` fed the stream as workload-graph hints, in the
/// batches of 64 commands a partition server sends: ns per hint message.
fn oracle_ns_per_hint<A: Application>(
    stream: &[Command<A>],
    k: u32,
    placement: &[(LocKey, PartitionId)],
) -> f64 {
    /// A hint's `(key, accesses)` vertices and `(a, b, weight)` edges.
    type Hint = (Vec<(LocKey, u64)>, Vec<(LocKey, LocKey, u64)>);
    let hints: Vec<Hint> = stream
        .chunks(ServerConfig::default().hint_batch as usize)
        .map(|batch| {
            let mut vertices: BTreeMap<LocKey, u64> = BTreeMap::new();
            let mut edges: BTreeMap<(LocKey, LocKey), u64> = BTreeMap::new();
            for cmd in batch {
                let keys = cmd.keys();
                for (i, &a) in keys.iter().enumerate() {
                    *vertices.entry(a).or_insert(0) += 1;
                    for &b in &keys[i + 1..] {
                        *edges.entry((a, b)).or_insert(0) += 1;
                    }
                }
            }
            (
                vertices.into_iter().collect(),
                edges.into_iter().map(|((a, b), w)| (a, b, w)).collect(),
            )
        })
        .collect();
    fastest(|| {
        let mut core = oracle_core::<A>(k, placement);
        let payloads: Vec<Payload<A>> = hints
            .iter()
            .map(|(v, e)| Payload::Hint { vertices: v.clone(), edges: e.clone() })
            .collect();
        feed(payloads, |payload, now, metrics| core.on_deliver(payload, now, metrics))
    })
}

fn workload_drives<A: Application, G: Workload<A>>(
    spec: &Spec,
    seed: u64,
    mut inputs: Inputs<A::Value, G>,
    out: &mut Vec<(&'static str, f64)>,
) {
    let stream = command_stream::<A, G>(&mut inputs.generators, seed);
    let [full_ms, warm_ms, cut_frac, balance] = partitioner(&stream, spec.partitions, seed);
    out.push(("partitioner.full_ms", full_ms));
    out.push(("partitioner.warm_ms", warm_ms));
    out.push(("partitioner.cut_frac", cut_frac));
    out.push(("partitioner.balance", balance));
    out.push((
        "oracle.drive_ns_per_query",
        oracle_ns_per_query(&stream, spec.partitions, &inputs.placement),
    ));
    out.push((
        "oracle.drive_ns_per_hint",
        oracle_ns_per_hint(&stream, spec.partitions, &inputs.placement),
    ));
    out.push((
        "server.drive_ns_per_access",
        server_ns_per_access(&stream, &inputs.placement, &inputs.vars),
    ));
}

/// Every isolated drive for `spec` at `seed`, as `(metric name, value)`.
pub fn drives(spec: &Spec, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = vec![("runtime.sim_raw_ns_per_event", sim_raw_ns_per_event())];
    let (ns, msgs) = paxos_per_decide(1);
    out.push(("paxos.drive_ns_per_decide", ns));
    out.push(("paxos.drive_msgs_per_decide", msgs));
    let (ns, msgs) = paxos_per_decide(32);
    out.push(("paxos.drive_ns_per_decide_b32", ns));
    out.push(("paxos.drive_msgs_per_decide_b32", msgs));
    out.push(("amcast.drive_ns_per_deliver_1g", amcast_per_deliver(1).0));
    let (ns, msgs) = amcast_per_deliver(2);
    out.push(("amcast.drive_ns_per_deliver_2g", ns));
    out.push(("amcast.drive_msgs_per_deliver_2g", msgs));
    if spec.id.is_tpcc() {
        workload_drives::<Tpcc, _>(spec, seed, config::tpcc_inputs(spec), &mut out);
    } else {
        workload_drives::<Chirper, _>(spec, seed, config::chirper_inputs(spec), &mut out);
    }
    out
}
