//! The per-command path of `ServerCore`: what it tells the oracle (hint
//! batches) and what it does to the store (gather → execute → write back).
//!
//! The hint arena's key sets must expand to exactly what accumulating every
//! command's key clique into ordered maps would, and the planner oracle's
//! graph must sum exactly those expansions; the reference below is that
//! accumulation, kept here only to compare against. The write-back
//! must mean the same on every execution path, and must not copy values.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use dynastar_amcast::MsgId;
use dynastar_core::oracle::{OracleConfig, OracleCore};
use dynastar_core::payload::{Destination, Effect};
use dynastar_core::server::{ServerCore, PARTITION_ORIGIN_BASE};
use dynastar_core::{
    Application, Command, CommandKind, Direct, LocKey, Mode, OracleDest, PartitionId, Payload,
    ServerConfig, VarId,
};
use dynastar_runtime::{Metrics, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NOW: SimTime = SimTime::from_millis(5);

fn access<A: Application>(
    seq: u32,
    op: A::Op,
    expected: &[(u64, u32)],
    target: u32,
    keep: bool,
) -> Payload<A> {
    Payload::Access {
        cmd: Command {
            id: MsgId::new(42, seq),
            client: NodeId::from_raw(99),
            kind: CommandKind::Access {
                op,
                vars: expected.iter().map(|&(v, _)| VarId(v)).collect(),
            },
        },
        attempt: 0,
        expected: expected.iter().map(|&(v, p)| (VarId(v), PartitionId(p))).collect(),
        target: PartitionId(target),
        keep,
    }
}

// ---- (a) hint equivalence ---------------------------------------------------

/// One variable per key; commands change nothing.
#[derive(Debug)]
struct Keys;

impl Application for Keys {
    type Op = ();
    type Value = i64;
    type Reply = ();

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }

    fn execute(_: &(), _: &mut BTreeMap<VarId, Option<i64>>) {}
}

/// A hint batch expanded: `(key, accesses)` vertices and `(a, b, weight)`
/// edges, `a < b`, both in key order.
type Batch = (Vec<(LocKey, u64)>, Vec<(LocKey, LocKey, u64)>);

/// A hint multicast as the wire sees it: its id and its body.
type Hint = (MsgId, Payload<Keys>);

fn hints_of(eff: Vec<Effect<Keys>>) -> Vec<Hint> {
    eff.into_iter()
        .filter_map(|e| match e {
            Effect::Multicast {
                mid,
                partitions,
                oracle,
                payload: payload @ Payload::HintSets { .. },
            } => {
                assert!(partitions.is_empty(), "hints go to the oracle only");
                assert_eq!(oracle, OracleDest::Shard(0), "hints go to the planner shard whole");
                let Payload::HintSets { vertices, ranks, sets } = &payload else { unreachable!() };
                // Hint lists are retained as allocated (Paxos log, ARQ
                // buffers): not a byte of slack.
                assert_eq!(vertices.capacity(), vertices.len(), "vertex list has slack");
                assert_eq!(ranks.capacity(), ranks.len(), "rank list has slack");
                assert_eq!(sets.capacity(), sets.len(), "set list has slack");
                Some((mid, payload))
            }
            Effect::Multicast { payload: Payload::Hint { .. }, .. } => {
                panic!("partitions send hints as key sets")
            }
            _ => None,
        })
        .collect()
}

/// Expands a hint's sets the obvious way — every pair of every set into an
/// ordered map — after checking their shape: each set two or more
/// ascending ranks, sent once with its multiplicity, the lengths covering
/// the rank list.
fn expand(hint: &Payload<Keys>) -> Batch {
    let Payload::HintSets { vertices, ranks, sets } = hint else { panic!("not a hint: {hint:?}") };
    assert!(vertices.windows(2).all(|w| w[0].0 < w[1].0), "vertices ascend");
    let mut edges = BTreeMap::new();
    let mut distinct = BTreeSet::new();
    let mut rest = &ranks[..];
    for &(len, times) in sets {
        let (set, tail) = rest.split_at(len as usize);
        rest = tail;
        assert!(set.len() > 1 && set.windows(2).all(|w| w[0] < w[1]), "set {set:?}");
        assert!(distinct.insert(set), "set {set:?} sent twice");
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                let pair = (vertices[a as usize].0, vertices[b as usize].0);
                *edges.entry(pair).or_insert(0) += u64::from(times);
            }
        }
    }
    assert!(rest.is_empty(), "set lengths must cover the rank list");
    (vertices.clone(), edges.into_iter().map(|((a, b), w)| (a, b, w)).collect())
}

/// The clique accumulator the arena replaced: per command, every key and
/// every key pair into ordered maps, emptied into one batch per
/// `batch` commands.
struct CliqueReference {
    partition: u32,
    batch: u32,
    vertices: BTreeMap<LocKey, u64>,
    edges: BTreeMap<(LocKey, LocKey), u64>,
    execs: u32,
    seq: u32,
}

impl CliqueReference {
    fn record(&mut self, keys: &[LocKey]) -> Option<(MsgId, Batch)> {
        for (i, &a) in keys.iter().enumerate() {
            *self.vertices.entry(a).or_insert(0) += 1;
            for &b in &keys[i + 1..] {
                *self.edges.entry((a, b)).or_insert(0) += 1;
            }
        }
        self.execs += 1;
        if self.execs < self.batch {
            return None;
        }
        self.execs = 0;
        if self.vertices.is_empty() {
            return None;
        }
        let vertices = std::mem::take(&mut self.vertices).into_iter().collect();
        let edges = std::mem::take(&mut self.edges).into_iter().map(|((a, b), w)| (a, b, w));
        let mid = MsgId::new(PARTITION_ORIGIN_BASE + u64::from(self.partition), self.seq);
        self.seq += 1;
        Some((mid, (vertices, edges.collect())))
    }
}

/// Batches summed the way the oracle's graph sums them, with the change
/// count each adds: one per vertex and one per distinct pair.
#[derive(Default)]
struct GraphReference {
    vertices: BTreeMap<LocKey, u64>,
    edges: BTreeMap<(LocKey, LocKey), u64>,
    changes: u64,
}

impl GraphReference {
    fn merge(&mut self, (vertices, edges): &Batch) {
        self.changes += (vertices.len() + edges.len()) as u64;
        for &(k, w) in vertices {
            *self.vertices.entry(k).or_insert(0) += w;
        }
        for &(a, b, w) in edges {
            *self.edges.entry((a, b)).or_insert(0) += w;
        }
    }

    fn content(&self) -> Batch {
        let vertices = self.vertices.iter().map(|(&k, &w)| (k, w)).collect();
        (vertices, self.edges.iter().map(|(&(a, b), &w)| (a, b, w)).collect())
    }
}

/// A planner oracle that never plans and never evicts: its graph is every
/// hint it was sent, summed.
fn planner() -> OracleCore<Keys> {
    OracleCore::new(OracleConfig {
        partitions: 4,
        repartition_threshold: u64::MAX,
        max_graph_vertices: usize::MAX,
        max_graph_edges: usize::MAX,
        ..OracleConfig::default()
    })
}

fn merge_into(oracle: &mut OracleCore<Keys>, hint: &Payload<Keys>) {
    let eff = oracle.on_deliver(hint.clone(), NOW, &mut Metrics::new());
    assert!(eff.is_empty(), "a hint alone must not ask for a plan: {eff:?}");
}

/// The shape of a command stream: how many commands, drawing keys from
/// how large a pool, and which share of them (in tenths) are hubs of
/// 100–300 keys, small sets of 2–20 keys, or — the rest — single keys.
#[derive(Clone, Copy)]
struct Stream {
    commands: usize,
    batch: u32,
    pool: u64,
    hubs: u32,
    small: u32,
}

/// The stream the arena was first checked against: 1–300 keys out of 320,
/// most sets small, some hubs.
const MIXED: Stream = Stream { commands: 200, batch: 16, pool: 320, hubs: 1, small: 3 };

/// A seeded stream of overlapping key sets; a quarter of the commands
/// repeat an earlier set (the hot author posting again), and one in twenty
/// declares no variable at all.
fn key_sets(seed: u64, stream: Stream) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets: Vec<Vec<u64>> = Vec::new();
    for _ in 0..stream.commands {
        if !sets.is_empty() && rng.gen_range(0..4) == 0 {
            let again = sets[rng.gen_range(0..sets.len())].clone();
            sets.push(again);
            continue;
        }
        if rng.gen_range(0..20) == 0 {
            sets.push(Vec::new());
            continue;
        }
        let size = match rng.gen_range(0..10u32) {
            kind if kind < stream.hubs => rng.gen_range(100..=300usize),
            kind if kind < stream.hubs + stream.small => rng.gen_range(2..=20usize),
            _ => 1,
        };
        // Declared in random order, possibly with repeats: the command's
        // key set is the sorted distinct keys.
        sets.push((0..size).map(|_| rng.gen_range(0..stream.pool)).collect());
    }
    sets
}

/// Drives `stream` through a core and the clique reference, and every
/// hint the core sends through a planner oracle; checks the hints, and
/// the oracle's graph and change count after each one, against the
/// reference. Returns the hints and the batches they expand to.
fn hint_streams_match(stream: Stream) -> Vec<(Hint, Batch)> {
    let Stream { commands, batch, pool, .. } = stream;
    let config = ServerConfig { hint_batch: batch, ..Default::default() };
    let mut core = ServerCore::<Keys>::new(PartitionId(3), Mode::Dynastar, config);
    core.preload((0..pool).map(LocKey), (0..pool).map(|v| (VarId(v), 0)));
    let mut reference = CliqueReference {
        partition: 3,
        batch,
        vertices: BTreeMap::new(),
        edges: BTreeMap::new(),
        execs: 0,
        seq: 0,
    };
    let mut oracle = planner();
    let mut graph = GraphReference::default();
    let mut metrics = Metrics::new();
    let mut got = Vec::new();
    for (i, set) in key_sets(0xA11CF, stream).into_iter().enumerate() {
        if i == commands / 2 + 5 {
            // A recovering replica installs a peer's clone mid-batch: the
            // half-filled arena must travel with it.
            assert_ne!(i as u32 % batch, 0, "the snapshot must fall inside a batch");
            core = core.clone();
        }
        let expected: Vec<(u64, u32)> = set.iter().map(|&v| (v, 3)).collect();
        let payload = access::<Keys>(i as u32, (), &expected, 3, false);
        let Payload::Access { cmd, .. } = &payload else { unreachable!() };
        let want = reference.record(&cmd.keys());
        let hints = hints_of(core.on_deliver(payload, NOW, &mut metrics));
        assert_eq!(hints.len(), usize::from(want.is_some()), "command {i}");
        let (Some(want), Some(hint)) = (want, hints.into_iter().next()) else { continue };
        let expanded = expand(&hint.1);
        assert_eq!((hint.0, &expanded), (want.0, &want.1), "arena and clique accumulator disagree");
        merge_into(&mut oracle, &hint.1);
        graph.merge(&expanded);
        assert_eq!(oracle.graph_view(), graph.content(), "graph after command {i}");
        assert_eq!(oracle.graph_changes(), graph.changes, "changes after command {i}");
        got.push((hint, expanded));
    }
    assert_eq!(got.len(), commands / batch as usize);
    got
}

/// The most distinct keys any one batch of `hints` held.
fn widest_batch(hints: &[(Hint, Batch)]) -> usize {
    hints.iter().map(|(_, (vertices, _))| vertices.len()).max().unwrap_or(0)
}

#[test]
fn hint_arena_matches_clique_accumulation_unsharded() {
    let hints = hint_streams_match(MIXED);
    let edges: usize = hints.iter().map(|(_, (_, edges))| edges.len()).sum();
    assert!(edges > 20_000 * hints.len() / 4, "the stream must contain hub cliques, got {edges}");
    // What the set form saves: each distinct set once, as ranks, against
    // every pair as a triple.
    let ranks: usize = hints
        .iter()
        .map(|((_, h), _)| match h {
            Payload::HintSets { ranks, .. } => ranks.len(),
            _ => unreachable!(),
        })
        .sum();
    assert!(ranks * 20 < edges, "{ranks} ranks for {edges} pairs");
}

/// The accumulator marks touched keys in 64-bit words: batches within one
/// word, across a few, and past 4 096 distinct keys (64 words), with the
/// single keys, empty sets and repeated sets of every stream.
#[test]
fn hint_arena_matches_clique_accumulation_across_bitset_words() {
    let narrow = Stream { commands: 96, batch: 16, pool: 48, hubs: 0, small: 6 };
    let wide = Stream { commands: 96, batch: 48, pool: 6_000, hubs: 9, small: 1 };
    let hints = hint_streams_match(narrow);
    assert!(widest_batch(&hints) <= 64, "the narrow stream must fit one word");
    assert!(hints.iter().any(|(_, (_, edges))| !edges.is_empty()));
    let hints = hint_streams_match(wide);
    assert!(widest_batch(&hints) > 4_096, "got {}", widest_batch(&hints));
    assert!(widest_batch(&hint_streams_match(MIXED)) > 64);
}

/// A batch of single keys carries no set, and a batch of key-less commands
/// sends nothing; the oracle takes the first as vertices alone.
#[test]
fn hints_without_pairs() {
    let config = ServerConfig { hint_batch: 2, ..Default::default() };
    let mut core = ServerCore::<Keys>::new(PartitionId(0), Mode::Dynastar, config);
    core.preload((0..4).map(LocKey), (0..4).map(|v| (VarId(v), 0)));
    let mut m = Metrics::new();
    let mut run = |seq: u32, vars: &[u64]| {
        let expected: Vec<(u64, u32)> = vars.iter().map(|&v| (v, 0)).collect();
        hints_of(core.on_deliver(access::<Keys>(seq, (), &expected, 0, false), NOW, &mut m))
    };
    assert!(run(0, &[]).is_empty() && run(1, &[]).is_empty(), "key-less commands send nothing");
    assert!(run(2, &[2]).is_empty());
    let [(_, hint)] = &run(3, &[2])[..] else { panic!("one hint per two commands") };
    assert_eq!(expand(hint), (vec![(LocKey(2), 2)], vec![]));
    let mut oracle = planner();
    merge_into(&mut oracle, hint);
    assert_eq!((oracle.graph_view(), oracle.graph_changes()), ((vec![(LocKey(2), 2)], vec![]), 1));
}

/// A recovering oracle replica installs a peer's clone, which leaves the
/// expansion scratch behind: the next hints land in the same graph on both.
#[test]
fn a_cloned_oracle_merges_the_next_hint_like_the_original() {
    let hints = hint_streams_match(MIXED);
    let (before, after) = hints.split_at(hints.len() / 2);
    let mut original = planner();
    for ((_, hint), _) in before {
        merge_into(&mut original, hint);
    }
    let mut clone = original.clone();
    for ((_, hint), _) in after {
        merge_into(&mut original, hint);
        merge_into(&mut clone, hint);
        assert_eq!(clone.graph_view(), original.graph_view());
        assert_eq!(clone.graph_changes(), original.graph_changes());
    }
    assert!(clone.graph_edges() > 0);
}

// ---- (b) write-back semantics ----------------------------------------------

/// What the scripted application does to one variable of its map.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Writes `Some(value + 1)` (creating the variable from 0).
    Bump,
    /// Writes `None`: deletes the variable.
    WriteNone,
    /// Removes the map entry altogether: also a delete.
    DropEntry,
    /// Inserts an entry for a variable the command never declared.
    Smuggle,
}

#[derive(Debug)]
struct Scripted;

impl Application for Scripted {
    type Op = Vec<(VarId, Step)>;
    type Value = i64;
    type Reply = usize;

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0 / 10)
    }

    fn execute(op: &Self::Op, vars: &mut BTreeMap<VarId, Option<i64>>) -> usize {
        let seen = vars.len();
        for &(v, step) in op {
            match step {
                Step::Bump => {
                    let slot = vars.get_mut(&v).expect("declared variables are in the map");
                    *slot = Some(slot.unwrap_or(0) + 1);
                }
                Step::WriteNone => *vars.get_mut(&v).expect("declared") = None,
                Step::DropEntry => {
                    vars.remove(&v);
                }
                Step::Smuggle => {
                    vars.insert(v, Some(99));
                }
            }
        }
        seen
    }
}

/// Declared variables: 0–3 (key 0) and 10–13 (key 1); 7 and 17 are never
/// declared. Variable 3 and 13 do not exist beforehand.
const DECLARED: [u64; 8] = [0, 1, 2, 3, 10, 11, 12, 13];

fn script() -> Vec<(VarId, Step)> {
    [
        (0, Step::Bump),
        (1, Step::WriteNone),
        (2, Step::DropEntry),
        (3, Step::Bump),
        (10, Step::Bump),
        (11, Step::WriteNone),
        (12, Step::DropEntry),
        (13, Step::Bump),
        (7, Step::Smuggle),
        (17, Step::Smuggle),
    ]
    .into_iter()
    .map(|(v, s)| (VarId(v), s))
    .collect()
}

/// The state the script must leave behind, wherever its variables live.
fn scripted_outcome() -> BTreeMap<u64, i64> {
    BTreeMap::from([(0, 101), (3, 1), (10, 111), (13, 1)])
}

fn scripted_core(p: u32, mode: Mode, keys: &[u64], vars: &[u64]) -> ServerCore<Scripted> {
    let mut core = ServerCore::new(PartitionId(p), mode, ServerConfig::default());
    core.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&v| (VarId(v), 100 + v as i64)));
    core
}

/// Every value the cores hold for the variables the scenario can touch.
fn union_store(cores: &[&ServerCore<Scripted>]) -> BTreeMap<u64, i64> {
    let mut all = BTreeMap::new();
    for core in cores {
        for v in DECLARED.into_iter().chain([7, 17]) {
            if let Some(&val) = core.value_of(VarId(v)) {
                assert!(all.insert(v, val).is_none(), "v{v} is stored at two partitions");
            }
        }
    }
    all
}

fn direct_to(eff: &[Effect<Scripted>], p: u32) -> Vec<Direct<Scripted>> {
    eff.iter()
        .filter_map(|e| match e {
            Effect::Send { to: Destination::Partition(to), msg } if *to == PartitionId(p) => {
                Some(msg.clone())
            }
            _ => None,
        })
        .collect()
}

fn replied(eff: &[Effect<Scripted>]) -> Option<usize> {
    eff.iter().find_map(|e| match e {
        Effect::Send { msg: Direct::Reply { reply, .. }, .. } => Some(*reply),
        _ => None,
    })
}

#[test]
fn write_back_single_partition() {
    let mut core = scripted_core(0, Mode::Dynastar, &[0, 1], &[0, 1, 2, 10, 11, 12]);
    let expected: Vec<(u64, u32)> = DECLARED.iter().map(|&v| (v, 0)).collect();
    let mut m = Metrics::new();
    let eff = core.on_deliver(access::<Scripted>(0, script(), &expected, 0, false), NOW, &mut m);
    assert_eq!(replied(&eff), Some(DECLARED.len()), "exactly the declared variables are offered");
    assert_eq!(union_store(&[&core]), scripted_outcome());
}

/// Key 0 lives at the target (partition 0), key 1 at the lender.
fn borrow_and_execute(mode: Mode, keep: bool) -> (ServerCore<Scripted>, ServerCore<Scripted>) {
    let mut target = scripted_core(0, mode, &[0], &[0, 1, 2]);
    let mut lender = scripted_core(1, mode, &[1], &[10, 11, 12]);
    let expected: Vec<(u64, u32)> = DECLARED.iter().map(|&v| (v, (v / 10) as u32)).collect();
    let payload = access::<Scripted>(0, script(), &expected, 0, keep);
    let mut m = Metrics::new();
    let shipped = direct_to(&lender.on_deliver(payload.clone(), NOW, &mut m), 0);
    assert_eq!(shipped.len(), 1, "the lender ships its share once");
    assert!(target.on_deliver(payload, NOW, &mut m).is_empty(), "the target waits for the share");
    let eff = target.on_direct(shipped[0].clone(), NOW, &mut m);
    assert_eq!(replied(&eff), Some(DECLARED.len()));
    let returned = direct_to(&eff, 1);
    if keep {
        assert!(returned.is_empty(), "DS-SMR keeps what it borrowed");
        assert!(target.owns(LocKey(1)) && !lender.owns(LocKey(1)));
    } else {
        let [Direct::VarsReturn { vars, .. }] = &returned[..] else {
            panic!("one return shipment expected, got {returned:?}");
        };
        // Every borrowed variable comes home, deleted ones as `None`.
        assert_eq!(
            vars,
            &[(VarId(10), Some(111)), (VarId(11), None), (VarId(12), None), (VarId(13), Some(1))]
        );
        let _ = lender.on_direct(returned[0].clone(), NOW, &mut m);
        assert_eq!(lender.queue_len(), 0, "the lender unblocks on the return");
    }
    (target, lender)
}

#[test]
fn write_back_at_the_target_returns_borrowed_values() {
    let (target, lender) = borrow_and_execute(Mode::Dynastar, false);
    assert_eq!(union_store(&[&target, &lender]), scripted_outcome());
    assert_eq!(lender.value_of(VarId(10)), Some(&111), "borrowed values live at the lender again");
    assert_eq!(target.value_of(VarId(10)), None);
}

#[test]
fn write_back_at_the_target_keeps_borrowed_values_under_dssmr() {
    let (target, lender) = borrow_and_execute(Mode::DsSmr, true);
    assert_eq!(union_store(&[&target, &lender]), scripted_outcome());
    assert_eq!(target.value_of(VarId(10)), Some(&111), "borrowed values stay at the target");
}

#[test]
fn write_back_under_ssmr_applies_own_variables_only() {
    let mut a = scripted_core(0, Mode::SSmr, &[0], &[0, 1, 2]);
    let mut b = scripted_core(1, Mode::SSmr, &[1], &[10, 11, 12]);
    let expected: Vec<(u64, u32)> = DECLARED.iter().map(|&v| (v, (v / 10) as u32)).collect();
    let payload = access::<Scripted>(0, script(), &expected, 0, false);
    let mut m = Metrics::new();
    let from_a = direct_to(&a.on_deliver(payload.clone(), NOW, &mut m), 1);
    let from_b = direct_to(&b.on_deliver(payload, NOW, &mut m), 0);
    let eff_a = a.on_direct(from_b[0].clone(), NOW, &mut m);
    let eff_b = b.on_direct(from_a[0].clone(), NOW, &mut m);
    assert_eq!(replied(&eff_a), Some(DECLARED.len()), "the lowest partition replies");
    assert_eq!(replied(&eff_b), None);
    assert_eq!(union_store(&[&a, &b]), scripted_outcome());
}

// ---- (c) no value copies ----------------------------------------------------

thread_local! {
    /// Clones of [`Counted`] made on this test's thread.
    static CLONES: Cell<usize> = const { Cell::new(0) };
}

#[derive(Debug)]
struct Counted(i64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.set(CLONES.get() + 1);
        Counted(self.0)
    }
}

struct Counting;

impl Application for Counting {
    type Op = i64;
    type Value = Counted;
    type Reply = i64;

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0 / 10)
    }

    fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<Counted>>) -> i64 {
        let mut sum = 0;
        for val in vars.values_mut() {
            let next = val.take().map_or(0, |c| c.0) + op;
            *val = Some(Counted(next));
            sum += next;
        }
        sum
    }
}

#[test]
fn single_partition_execution_clones_no_value() {
    let mut core = ServerCore::<Counting>::new(PartitionId(0), Mode::Dynastar, Default::default());
    let vars = (0..20).filter(|&v| v != 15).map(|v| (VarId(v), Counted(v as i64)));
    core.preload([LocKey(0), LocKey(1)], vars);
    let mut m = Metrics::new();
    CLONES.set(0);
    // 3 is declared twice and 15 does not exist yet.
    let expected: Vec<(u64, u32)> = [3, 7, 3, 12, 15].into_iter().map(|v| (v, 0)).collect();
    for seq in 0..3 {
        let eff = core.on_deliver(access::<Counting>(seq, 1, &expected, 0, false), NOW, &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::Send { msg: Direct::Reply { .. }, .. })));
    }
    assert_eq!(CLONES.get(), 0, "values must be moved through execution, never cloned");
    let stored = |v| core.value_of(VarId(v)).map(|c| c.0);
    assert_eq!(
        (stored(3), stored(7), stored(12), stored(15)),
        (Some(6), Some(10), Some(15), Some(3))
    );
    assert_eq!(stored(4), Some(4), "undeclared neighbours are untouched");
}

/// Every replica of a lending partition ships the same variables, and the
/// transport hands each shipment over shared with the sender's
/// retransmission buffer: the first is copied out, a repeat is dropped on
/// its dedup key without copying a value.
#[test]
fn repeated_borrowed_shipment_clones_no_value() {
    let mut target =
        ServerCore::<Counting>::new(PartitionId(0), Mode::Dynastar, Default::default());
    target.preload([LocKey(0)], [(VarId(1), Counted(1))]);
    let mut m = Metrics::new();
    let expected = [(1, 0), (10, 1), (11, 1)];
    assert!(target
        .on_deliver(access::<Counting>(0, 1, &expected, 0, false), NOW, &mut m)
        .is_empty());
    let shipment = || Direct::<Counting>::VarsForCmd {
        cmd: MsgId::new(42, 0),
        attempt: 0,
        from: PartitionId(1),
        vars: vec![(VarId(10), Some(Counted(10))), (VarId(11), Some(Counted(11)))],
    };
    let shared = shipment();
    CLONES.set(0);
    let eff = target.on_direct(&shared, NOW, &mut m);
    assert!(eff.iter().any(|e| matches!(e, Effect::Send { msg: Direct::Reply { .. }, .. })));
    assert_eq!(CLONES.get(), 2, "a shared shipment is copied once, when it is first seen");
    for _ in 0..2 {
        assert!(target.on_direct(&shared, NOW, &mut m).is_empty(), "a repeat does nothing");
    }
    assert_eq!(CLONES.get(), 2, "a repeat must be dropped before it is copied");

    // Handed over for good, a shipment is moved, not copied.
    let mut owner = ServerCore::<Counting>::new(PartitionId(0), Mode::Dynastar, Default::default());
    owner.preload([LocKey(0)], [(VarId(1), Counted(1))]);
    let _ = owner.on_deliver(access::<Counting>(0, 1, &expected, 0, false), NOW, &mut m);
    CLONES.set(0);
    let eff = owner.on_direct(shipment(), NOW, &mut m);
    assert!(eff.iter().any(|e| matches!(e, Effect::Send { msg: Direct::Reply { .. }, .. })));
    assert_eq!(CLONES.get(), 0);
}
