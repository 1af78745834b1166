//! The per-command path of `ServerCore`: what it tells the oracle (hint
//! batches) and what it does to the store (gather → execute → write back).
//!
//! The hint arena must emit, byte for byte, what accumulating every
//! command's key clique into ordered maps would; the reference below is
//! that accumulation, kept here only to compare against. The write-back
//! must mean the same on every execution path, and must not copy values.

use std::cell::Cell;
use std::collections::BTreeMap;

use dynastar_amcast::MsgId;
use dynastar_core::payload::{Destination, Effect};
use dynastar_core::server::{ServerCore, PARTITION_ORIGIN_BASE};
use dynastar_core::{
    shard_of, Application, Command, CommandKind, Direct, LocKey, Mode, OracleDest, PartitionId,
    Payload, ServerConfig, VarId,
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

/// A hint multicast as the wire sees it: id, shard, vertices, edges.
type Hint = (MsgId, u32, Vec<(LocKey, u64)>, Vec<(LocKey, LocKey, u64)>);

fn hints_of(eff: Vec<Effect<Keys>>) -> Vec<Hint> {
    eff.into_iter()
        .filter_map(|e| match e {
            Effect::Multicast {
                mid,
                partitions,
                oracle: OracleDest::Shard(s),
                payload: Payload::Hint { vertices, edges },
            } => {
                assert!(partitions.is_empty(), "hints go to the oracle only");
                Some((mid, s, vertices, edges))
            }
            _ => None,
        })
        .collect()
}

/// The clique accumulator the arena replaced: per command, every key and
/// every key pair into ordered maps; per batch, the maps split by shard.
struct CliqueReference {
    partition: u32,
    batch: u32,
    shards: u32,
    vertices: BTreeMap<LocKey, u64>,
    edges: BTreeMap<(LocKey, LocKey), u64>,
    execs: u32,
    seq: u32,
}

impl CliqueReference {
    fn record(&mut self, keys: &[LocKey]) -> Vec<Hint> {
        for (i, &a) in keys.iter().enumerate() {
            *self.vertices.entry(a).or_insert(0) += 1;
            for &b in &keys[i + 1..] {
                *self.edges.entry((a, b)).or_insert(0) += 1;
            }
        }
        self.execs += 1;
        if self.execs < self.batch {
            return Vec::new();
        }
        self.execs = 0;
        let mut slices = vec![(Vec::new(), Vec::new()); self.shards as usize];
        for (&k, &w) in &self.vertices {
            slices[shard_of(k, self.shards) as usize].0.push((k, w));
        }
        for (&(a, b), &w) in &self.edges {
            slices[shard_of(a, self.shards) as usize].1.push((a, b, w));
        }
        self.vertices.clear();
        self.edges.clear();
        let mut out = Vec::new();
        for (s, (vertices, edges)) in slices.into_iter().enumerate() {
            if vertices.is_empty() && edges.is_empty() {
                continue;
            }
            let mid = MsgId::new(PARTITION_ORIGIN_BASE + u64::from(self.partition), self.seq);
            self.seq += 1;
            out.push((mid, s as u32, vertices, edges));
        }
        out
    }
}

/// A seeded stream of overlapping key sets of 1–300 keys out of 320; a
/// quarter of the commands repeat an earlier set (the hot author posting
/// again), most are small, some are hubs.
fn key_sets(seed: u64, commands: usize) -> Vec<Vec<u64>> {
    const POOL: u64 = 320;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets: Vec<Vec<u64>> = Vec::new();
    for _ in 0..commands {
        if !sets.is_empty() && rng.gen_range(0..4) == 0 {
            let again = sets[rng.gen_range(0..sets.len())].clone();
            sets.push(again);
            continue;
        }
        let size = match rng.gen_range(0..10) {
            0 => rng.gen_range(100..=300usize),
            1..=3 => rng.gen_range(2..=20usize),
            _ => 1,
        };
        // Declared in random order, possibly with repeats: the command's
        // key set is the sorted distinct keys.
        sets.push((0..size).map(|_| rng.gen_range(0..POOL)).collect());
    }
    sets
}

fn hint_streams_match(shards: u32) {
    const BATCH: u32 = 16;
    const COMMANDS: usize = 200;
    let config = ServerConfig { hint_batch: BATCH, oracle_shards: shards, ..Default::default() };
    let mut core = ServerCore::<Keys>::new(PartitionId(3), Mode::Dynastar, config);
    core.preload((0..320).map(LocKey), (0..320).map(|v| (VarId(v), 0)));
    let mut reference = CliqueReference {
        partition: 3,
        batch: BATCH,
        shards,
        vertices: BTreeMap::new(),
        edges: BTreeMap::new(),
        execs: 0,
        seq: 0,
    };
    let mut metrics = Metrics::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (i, set) in key_sets(0xA11CE + u64::from(shards), COMMANDS).into_iter().enumerate() {
        if i == COMMANDS / 2 + 5 {
            // A recovering replica installs a peer's clone mid-batch: the
            // half-filled arena must travel with it.
            assert_ne!(i as u32 % BATCH, 0, "the snapshot must fall inside a batch");
            core = core.clone();
        }
        let expected: Vec<(u64, u32)> = set.iter().map(|&v| (v, 3)).collect();
        let payload = access::<Keys>(i as u32, (), &expected, 3, false);
        let Payload::Access { cmd, .. } = &payload else { unreachable!() };
        want.extend(reference.record(&cmd.keys()));
        got.extend(hints_of(core.on_deliver(payload, NOW, &mut metrics)));
    }
    let batches = COMMANDS / BATCH as usize;
    assert!(want.len() >= batches && (shards > 1 || want.len() == batches));
    let edges: usize = want.iter().map(|h| h.3.len()).sum();
    assert!(edges > 20_000 * batches / 4, "the stream must contain hub cliques, got {edges}");
    assert_eq!(got, want, "arena and clique accumulator disagree at {shards} shard(s)");
}

#[test]
fn hint_arena_matches_clique_accumulation_unsharded() {
    hint_streams_match(1);
}

#[test]
fn hint_arena_matches_clique_accumulation_over_four_shards() {
    hint_streams_match(4);
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
