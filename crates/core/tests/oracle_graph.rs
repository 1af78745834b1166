//! The oracle's workload-graph store against a flat reference map.
//!
//! `OracleCore` logs hint batches as they come and folds them into
//! adjacency rows when something reads the edges; the reference below
//! merges every batch at once into one ordered map keyed by the pair, and
//! spells the cap, decay and plan rules out on it. Both are driven through
//! the same random sequence of hint batches — expanded (sorted, shuffled,
//! endpoints swapped) or as the key sets a partition sends — key
//! deletions, plan rounds and snapshots (the oracle replaced by its clone,
//! as a recovering replica installs it), and must agree on the graph's
//! content, on the change count, on what the caps evicted, and on every
//! plan. Three cap regimes: tight (almost every batch folds at once),
//! binding only sometimes, and never binding (batches wait in the log
//! across deletes, snapshots and plans).

use std::collections::BTreeMap;

use dynastar_amcast::MsgId;
use dynastar_core::metric_names as mn;
use dynastar_core::oracle::{OracleConfig, OracleCore};
use dynastar_core::payload::Effect;
use dynastar_core::{Application, Command, CommandKind, LocKey, PartitionId, Payload, VarId};
use dynastar_partitioner::{align_labels, partition, GraphBuilder, PartitionConfig, Partitioning};
use dynastar_runtime::{Metrics, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug)]
struct App;

impl Application for App {
    type Op = ();
    type Value = u64;
    type Reply = ();

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }

    fn execute(_: &(), _: &mut BTreeMap<VarId, Option<u64>>) {}
}

const PARTITIONS: u32 = 3;
const BALANCE: f64 = 1.2;

/// The key space and the graph's caps.
#[derive(Debug, Clone, Copy)]
struct Regime {
    keys: u64,
    max_vertices: usize,
    max_edges: usize,
}

/// Almost every batch passes a cap.
const TIGHT: Regime = Regime { keys: 12, max_vertices: 7, max_edges: 9 };
/// The caps bind now and then.
const SOMETIMES: Regime = Regime { keys: 16, max_vertices: 14, max_edges: 60 };
/// The caps never bind: 40 keys make at most 820 edges.
const LOOSE: Regime = Regime { keys: 40, max_vertices: 1 << 20, max_edges: 1 << 20 };
/// The edge cap is what 12 keys can fill, self-loops included: rows and
/// logged pairs pass it all the time, and only the key count shows that
/// it cannot bind.
const KEYED: Regime = Regime { keys: 12, max_vertices: 1 << 20, max_edges: 78 };

type Vertices = Vec<(LocKey, u64)>;
type Edges = Vec<(LocKey, LocKey, u64)>;
type Moves = Vec<(LocKey, PartitionId, PartitionId)>;

/// One step of a run.
#[derive(Debug, Clone)]
enum Step {
    /// A hint batch as generated: any order, either endpoint first,
    /// repeats allowed.
    Batch { sorted: bool, vertices: Vec<(u64, u64)>, edges: Vec<(u64, u64, u64)> },
    /// A hint batch as a partition sends it: the key sets of its commands.
    Sets { commands: Vec<Vec<u64>> },
    /// `DeleteKey` of a key, addressed where the key lives or elsewhere.
    Delete { key: u64, stale: bool },
    /// Recompute marker, plan timer, plan delivery.
    Plan,
    /// The oracle is replaced by its clone.
    Snapshot,
}

/// Steps whose batches come as key sets: up to seven commands of up to
/// five keys each, so repeated sets are common.
fn set_step(keys: u64) -> impl Strategy<Value = Step> {
    let command = prop::collection::vec(0..keys, 0..6);
    prop_oneof![
        10 => prop::collection::vec(command, 0..8).prop_map(|commands| Step::Sets { commands }),
        2 => (0..keys, 0u8..4).prop_map(|(key, stale)| Step::Delete { key, stale: stale == 0 }),
        2 => Just(Step::Plan),
        1 => Just(Step::Snapshot),
    ]
}

/// The hint a partition sends for `commands` — the keys with the commands
/// that touched each, and every distinct set of two or more keys once, as
/// ranks into them, with the commands that declared it — and, expanded
/// the obvious way, what it stands for.
fn hint_sets(commands: &[Vec<u64>]) -> (Payload<App>, Vertices, Edges) {
    let mut vertices = BTreeMap::new();
    let mut edges = BTreeMap::new();
    let mut sets = BTreeMap::new();
    for keys in commands {
        let mut keys = keys.clone();
        keys.sort_unstable();
        keys.dedup();
        for (i, &a) in keys.iter().enumerate() {
            *vertices.entry(LocKey(a)).or_insert(0) += 1;
            for &b in &keys[i + 1..] {
                *edges.entry((LocKey(a), LocKey(b))).or_insert(0) += 1;
            }
        }
        if keys.len() > 1 {
            *sets.entry(keys).or_insert(0) += 1;
        }
    }
    let vertices: Vertices = vertices.into_iter().collect();
    let rank = |k: u64| vertices.binary_search_by_key(&LocKey(k), |v| v.0).unwrap() as u32;
    let ranks = sets.keys().flatten().map(|&k| rank(k)).collect();
    let sets = sets.iter().map(|(keys, &times)| (keys.len() as u32, times)).collect();
    let edges = edges.into_iter().map(|((a, b), w)| (a, b, w)).collect();
    (Payload::HintSets { vertices: vertices.clone(), ranks, sets }, vertices, edges)
}

fn step(keys: u64) -> impl Strategy<Value = Step> {
    let weight = 0u64..6;
    let vertices = prop::collection::vec((0..keys, weight.clone()), 0..6);
    let edges = prop::collection::vec((0..keys, 0..keys, weight), 0..14);
    prop_oneof![
        10 => (0u8..2, vertices, edges).prop_map(|(sorted, vertices, edges)| {
            Step::Batch { sorted: sorted == 1, vertices, edges }
        }),
        2 => (0..keys, 0u8..4).prop_map(|(key, stale)| Step::Delete { key, stale: stale == 0 }),
        2 => Just(Step::Plan),
        1 => Just(Step::Snapshot),
    ]
}

/// Batches of either form, mixed in one run.
fn mixed_step(keys: u64) -> impl Strategy<Value = Step> {
    prop_oneof![step(keys), set_step(keys)]
}

/// The flat pair map and the rules, written out.
struct Reference {
    regime: Regime,
    map: BTreeMap<LocKey, PartitionId>,
    vertices: BTreeMap<LocKey, u64>,
    edges: BTreeMap<(LocKey, LocKey), u64>,
    plan_version: u64,
    evicted: u64,
    /// Vertices plus distinct pairs of every set batch, or plus every
    /// entry of an edge list, since the last plan was applied.
    changes: u64,
}

/// Over the cap: halve every weight, drop what reaches zero, then evict the
/// excess lowest-(weight, key) entries.
fn shrink<K: Ord + Copy>(map: &mut BTreeMap<K, u64>, cap: usize) -> u64 {
    if map.len() <= cap {
        return 0;
    }
    let before = map.len();
    halve(map);
    if map.len() > cap {
        let mut by_weight: Vec<(u64, K)> = map.iter().map(|(&k, &w)| (w, k)).collect();
        by_weight.sort_unstable();
        for (_, k) in &by_weight[..map.len() - cap] {
            map.remove(k);
        }
    }
    (before - map.len()) as u64
}

fn halve<K: Ord>(map: &mut BTreeMap<K, u64>) {
    map.retain(|_, w| {
        *w /= 2;
        *w > 0
    });
}

impl Reference {
    fn merge(&mut self, vertices: &Vertices, edges: &Edges) {
        self.changes += (vertices.len() + edges.len()) as u64;
        for &(k, w) in vertices {
            *self.vertices.entry(k).or_insert(0) += w;
        }
        for &(a, b, w) in edges {
            *self.edges.entry((a.min(b), a.max(b))).or_insert(0) += w;
        }
        let Regime { max_vertices, max_edges, .. } = self.regime;
        self.evicted +=
            shrink(&mut self.vertices, max_vertices) + shrink(&mut self.edges, max_edges);
    }

    fn content(&self) -> (Vertices, Edges) {
        let vertices = self.vertices.iter().map(|(&k, &w)| (k, w)).collect();
        (vertices, self.edges.iter().map(|(&(a, b), &w)| (a, b, w)).collect())
    }

    fn delete(&mut self, key: LocKey, dest: PartitionId) {
        if self.map.get(&key) == Some(&dest) {
            self.map.remove(&key);
            self.vertices.remove(&key);
        }
    }

    /// The full (cold) planning path, then the post-plan decay.
    fn plan(&mut self) -> (u64, Moves) {
        let keys: Vec<LocKey> = self.map.keys().copied().collect();
        let index = |k: &LocKey| keys.binary_search(k).ok().map(|i| i as u32);
        let weight = |k: &LocKey| self.vertices.get(k).copied().unwrap_or(0);
        let mut b = GraphBuilder::new();
        b.add_vertex(keys.len() as u32 - 1);
        for (i, k) in keys.iter().enumerate() {
            b.set_vertex_weight(i as u32, 1 + weight(k));
        }
        for (&(x, y), &w) in &self.edges {
            if let (Some(ix), Some(iy), true) = (index(&x), index(&y), w > 0) {
                b.add_edge(ix, iy, w);
            }
        }
        let g = b.build();
        let version = self.plan_version + 1;
        let cfg = PartitionConfig::default().seed(version).balance_factor(BALANCE);
        let prev = Partitioning::new(PARTITIONS, keys.iter().map(|k| self.map[k].0).collect());
        let aligned = align_labels(&prev, &partition(&g, PARTITIONS, &cfg));
        let mut moves: Moves = (0..keys.len())
            .filter(|&i| prev.part_of(i as u32) != aligned.part_of(i as u32))
            .map(|i| {
                let (from, to) = (prev.part_of(i as u32), aligned.part_of(i as u32));
                (keys[i], PartitionId(from), PartitionId(to))
            })
            .collect();
        moves.sort_by(|x, y| weight(&y.0).cmp(&weight(&x.0)).then(x.0.cmp(&y.0)));
        halve(&mut self.vertices);
        halve(&mut self.edges);
        for &(key, _, to) in &moves {
            self.map.insert(key, to);
        }
        self.plan_version = version;
        self.changes = 0;
        (version, moves)
    }
}

fn run(regime: Regime, steps: &[Step]) {
    let placement =
        || (0..regime.keys).map(|k| (LocKey(k), PartitionId((k % PARTITIONS as u64) as u32)));
    let mut oracle = OracleCore::<App>::new(OracleConfig {
        partitions: PARTITIONS,
        // Plans are asked for by the steps, never by the change count.
        repartition_threshold: u64::MAX,
        balance_factor: BALANCE,
        decay_hints: true,
        max_graph_vertices: regime.max_vertices,
        max_graph_edges: regime.max_edges,
        warm_start: false,
        ..OracleConfig::default()
    });
    oracle.preload_map(placement());
    let mut reference = Reference {
        regime,
        map: placement().collect(),
        vertices: BTreeMap::new(),
        edges: BTreeMap::new(),
        plan_version: 0,
        evicted: 0,
        changes: 0,
    };
    let mut m = Metrics::new();
    let mut now = SimTime::ZERO;
    for (i, step) in steps.iter().enumerate() {
        now += SimDuration::from_millis(1);
        match step {
            Step::Batch { sorted, vertices, edges } => {
                let vertices: Vertices = vertices.iter().map(|&(k, w)| (LocKey(k), w)).collect();
                let mut edges: Edges =
                    edges.iter().map(|&(a, b, w)| (LocKey(a), LocKey(b), w)).collect();
                if *sorted {
                    // What a partition ships: lower key first, in (a, b)
                    // order.
                    for e in &mut edges {
                        (e.0, e.1) = (e.0.min(e.1), e.0.max(e.1));
                    }
                    edges.sort_unstable();
                }
                reference.merge(&vertices, &edges);
                let eff = oracle.on_deliver(Payload::Hint { vertices, edges }, now, &mut m);
                assert!(eff.is_empty(), "the change count must never ask for a plan");
            }
            Step::Sets { commands } => {
                // The expansion holds each distinct pair once, so its
                // entries count what the set batch must count.
                let (hint, vertices, edges) = hint_sets(commands);
                reference.merge(&vertices, &edges);
                let eff = oracle.on_deliver(hint, now, &mut m);
                assert!(eff.is_empty(), "the change count must never ask for a plan");
            }
            Step::Delete { key, stale } => {
                let key = LocKey(*key);
                let home = reference.map.get(&key).copied().unwrap_or(PartitionId(0));
                let dest = if *stale { PartitionId((home.0 + 1) % PARTITIONS) } else { home };
                reference.delete(key, dest);
                let cmd = Command {
                    id: MsgId::new(7, i as u32),
                    client: NodeId::from_raw(9),
                    kind: CommandKind::DeleteKey { key },
                };
                let _ = oracle.on_deliver(Payload::DeleteKey { cmd, dest }, now, &mut m);
            }
            Step::Plan => {
                if reference.map.is_empty() {
                    continue;
                }
                let (version, want) = reference.plan();
                let eff = oracle.on_deliver(Payload::Recompute { version }, now, &mut m);
                assert!(matches!(eff[..], [Effect::SchedulePlan { .. }]), "got {eff:?}");
                let eff = oracle.on_plan_timer(now, &mut m);
                let [Effect::Multicast { payload, .. }] = &eff[..] else {
                    panic!("the plan timer publishes one plan, got {eff:?}");
                };
                let Payload::Plan { version: got_version, moves } = payload else {
                    panic!("the plan timer publishes a plan, got {payload:?}");
                };
                assert_eq!((*got_version, moves), (version, &want), "plan {version} differs");
                let _ = oracle.on_deliver(payload.clone(), now, &mut m);
                assert_eq!(oracle.plan_version(), version);
            }
            Step::Snapshot => oracle = oracle.clone(),
        }
        assert_eq!(oracle.graph_view(), reference.content(), "graph after step {i}: {step:?}");
        assert_eq!(oracle.graph_edges(), reference.edges.len(), "edges after step {i}: {step:?}");
        assert_eq!(oracle.graph_vertices(), reference.vertices.len(), "vertices after step {i}");
        assert_eq!(m.counter(mn::ORACLE_GRAPH_EVICTIONS), reference.evicted, "evicted by step {i}");
        assert_eq!(oracle.graph_changes(), reference.changes, "changes after step {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rows_and_flat_map_agree(steps in prop::collection::vec(step(TIGHT.keys), 1..60)) {
        run(TIGHT, &steps);
    }

    /// The same, with every batch sent as key sets and folded by the
    /// oracle: the caps evict after the fold, as they did after an
    /// expanded batch.
    #[test]
    fn set_batches_and_flat_map_agree(steps in prop::collection::vec(set_step(TIGHT.keys), 1..60)) {
        run(TIGHT, &steps);
    }

    /// Caps that bind now and then: a batch is folded when the rows and
    /// the log might pass the edge cap, and waits in the log otherwise.
    #[test]
    fn the_log_and_flat_map_agree_when_caps_bind_sometimes(
        steps in prop::collection::vec(mixed_step(SOMETIMES.keys), 1..80),
    ) {
        run(SOMETIMES, &steps);
    }

    /// Caps that never bind: batches of both forms wait in the log across
    /// deletes and snapshots until a plan, or the log's memory bound,
    /// folds them.
    #[test]
    fn the_log_and_flat_map_agree_when_caps_never_bind(
        steps in prop::collection::vec(mixed_step(LOOSE.keys), 1..80),
    ) {
        run(LOOSE, &steps);
    }

    /// Caps that cannot bind, though the logged pairs alone would pass
    /// them.
    #[test]
    fn the_log_and_flat_map_agree_when_the_key_count_bounds_the_edges(
        steps in prop::collection::vec(mixed_step(KEYED.keys), 1..80),
    ) {
        run(KEYED, &steps);
    }
}

/// The shapes the random runs may miss on a given day: a batch that only
/// repeats one edge under both spellings, a self-loop, and a cap hit by
/// weight-zero edges alone.
#[test]
fn rows_and_flat_map_agree_on_the_corners() {
    let batch = |sorted, edges: &[(u64, u64, u64)]| Step::Batch {
        sorted,
        vertices: vec![(3, 2), (3, 1)],
        edges: edges.to_vec(),
    };
    let keys = TIGHT.keys;
    let corners = [
        batch(false, &[(5, 2, 1), (2, 5, 1), (2, 5, 3), (4, 4, 2)]),
        Step::Plan,
        batch(true, &(0..keys - 1).map(|k| (k, k + 1, 0)).collect::<Vec<_>>()),
        batch(true, &(0..keys - 1).map(|k| (k, k + 1, 3)).collect::<Vec<_>>()),
        Step::Delete { key: 2, stale: false },
        Step::Snapshot,
        Step::Plan,
        batch(false, &[(11, 0, 5), (0, 11, 5), (7, 1, 1)]),
        Step::Plan,
    ];
    for regime in [TIGHT, SOMETIMES, LOOSE, KEYED] {
        run(regime, &corners);
    }
}
