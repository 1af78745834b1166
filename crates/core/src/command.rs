//! The application model: variables, locality keys, commands.

use std::collections::BTreeMap;
use std::fmt;

use dynastar_amcast::MsgId;
use dynastar_runtime::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of one state variable (the unit of storage and of on-demand
/// movement — a TPC-C row, a Chirper user record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub u64);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a locality key (the unit of *location*: a vertex of the
/// oracle's workload graph — a TPC-C district or warehouse, a Chirper
/// user). Every variable belongs to exactly one key via
/// [`Application::locality`]; all variables of a key live in the same
/// partition and migrate together on repartitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LocKey(pub u64);

impl fmt::Display for LocKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Identifier of a state partition (a replicated server group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PartitionId(pub u32);

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A replicated application: deterministic command execution over declared
/// variables.
///
/// Implementations are pure — `execute` must be a deterministic function of
/// its inputs, because every replica of a partition executes the same
/// commands independently (the state-machine-replication contract).
///
/// # Example
///
/// ```
/// use std::collections::BTreeMap;
/// use dynastar_core::{Application, LocKey, VarId};
///
/// /// A bank of counters: one counter per variable, one key per variable.
/// struct Counters;
/// impl Application for Counters {
///     type Op = i64; // add this amount to every declared variable
///     type Value = i64;
///     type Reply = i64; // sum after the update
///
///     fn locality(var: VarId) -> LocKey {
///         LocKey(var.0)
///     }
///
///     fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> i64 {
///         let mut sum = 0;
///         for v in vars.values_mut() {
///             let cur = v.unwrap_or(0) + op;
///             *v = Some(cur);
///             sum += cur;
///         }
///         sum
///     }
/// }
/// ```
pub trait Application: Sized + Send + Sync + 'static {
    /// Operation descriptor carried by [`CommandKind::Access`].
    type Op: Clone + fmt::Debug + Send + Sync + 'static;
    /// The value of one variable.
    type Value: Clone + fmt::Debug + Send + Sync + 'static;
    /// The reply returned to the client.
    type Reply: Clone + fmt::Debug + Send + Sync + 'static;

    /// The locality key of a variable. Must be a pure function: every
    /// process derives locations from it.
    fn locality(var: VarId) -> LocKey;

    /// Executes `op` over exactly the declared variables.
    ///
    /// Entries are `None` when the variable does not currently exist;
    /// writing `Some` creates or updates it, writing `None` deletes it.
    /// Must be deterministic.
    fn execute(op: &Self::Op, vars: &mut BTreeMap<VarId, Option<Self::Value>>) -> Self::Reply;

    /// Splits an operation's declared variables into read and write sets
    /// for the parallel execution scheduler (P-SMR / CBASE-style
    /// dependency tracking).
    ///
    /// The default declares every variable a write, which serializes the
    /// command against every overlapping predecessor — always safe, never
    /// wrong, just pessimistic. Override for read-mostly operations so
    /// non-conflicting commands can occupy parallel workers.
    ///
    /// Classification only shapes the *timing model*: state application
    /// itself stays in delivery order on every replica, so an inaccurate
    /// classification can cost or gain modelled time but can never change
    /// replies or state.
    fn classify(op: &Self::Op, vars: &[VarId]) -> AccessSets {
        let _ = op;
        AccessSets { reads: Vec::new(), writes: vars.to_vec() }
    }
}

/// The read and write sets of one operation, as declared by
/// [`Application::classify`].
///
/// Two commands conflict iff one's write set intersects the other's
/// read∪write set; read-read overlap never conflicts.
#[derive(Debug, Clone, Default)]
pub struct AccessSets {
    /// Variables the operation only reads.
    pub reads: Vec<VarId>,
    /// Variables the operation may write.
    pub writes: Vec<VarId>,
}

impl AccessSets {
    /// A set that reads everything and writes nothing.
    pub fn read_only(vars: &[VarId]) -> Self {
        AccessSets { reads: vars.to_vec(), writes: Vec::new() }
    }

    /// A set that writes everything (the pessimistic default).
    pub fn write_all(vars: &[VarId]) -> Self {
        AccessSets { reads: Vec::new(), writes: vars.to_vec() }
    }

    /// Both sets sorted and free of duplicates — the form
    /// [`AccessSets::conflicts_with`] takes on either side.
    pub fn normalized(mut self) -> Self {
        for set in [&mut self.reads, &mut self.writes] {
            set.sort_unstable();
            set.dedup();
        }
        self
    }

    /// Whether `self` (the later command) must wait for `earlier`; both
    /// must be [`normalized`](AccessSets::normalized).
    ///
    /// Symmetric CBASE rule: conflict iff self.writes ∩ (earlier.reads ∪
    /// earlier.writes) ≠ ∅ or self.reads ∩ earlier.writes ≠ ∅. Each
    /// intersection is one merge pass over the two sorted sets.
    pub fn conflicts_with(&self, earlier: &AccessSets) -> bool {
        fn hits(a: &[VarId], b: &[VarId]) -> bool {
            debug_assert!(a.is_sorted() && b.is_sorted(), "access sets must be normalized");
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return true,
                }
            }
            false
        }
        hits(&self.writes, &earlier.writes)
            || hits(&self.writes, &earlier.reads)
            || hits(&self.reads, &earlier.writes)
    }
}

/// What a command does.
#[derive(Debug)]
pub enum CommandKind<A: Application> {
    /// Creates a new locality key (a new workload-graph vertex) with
    /// initial variables. Routed through the oracle, which picks the
    /// partition (paper: `create(v)`).
    CreateKey {
        /// The new key.
        key: LocKey,
        /// Initial variables (all must belong to `key`).
        vars: Vec<(VarId, A::Value)>,
    },
    /// Reads and/or writes existing variables (paper: `access(ω)`).
    Access {
        /// The operation to execute.
        op: A::Op,
        /// Every variable the operation may touch.
        vars: Vec<VarId>,
    },
    /// Removes a locality key and all its variables (paper: `delete(v)`).
    DeleteKey {
        /// The key to remove.
        key: LocKey,
    },
}

/// A client command: identity, reply address and payload.
#[derive(Debug)]
pub struct Command<A: Application> {
    /// Globally unique command id (`origin` = client id, `tag` = 0).
    pub id: MsgId,
    /// Where to send the reply.
    pub client: NodeId,
    /// The command body.
    pub kind: CommandKind<A>,
}

impl<A: Application> Clone for CommandKind<A> {
    fn clone(&self) -> Self {
        match self {
            CommandKind::CreateKey { key, vars } => {
                CommandKind::CreateKey { key: *key, vars: vars.clone() }
            }
            CommandKind::Access { op, vars } => {
                CommandKind::Access { op: op.clone(), vars: vars.clone() }
            }
            CommandKind::DeleteKey { key } => CommandKind::DeleteKey { key: *key },
        }
    }
}

impl<A: Application> Clone for Command<A> {
    fn clone(&self) -> Self {
        Command { id: self.id, client: self.client, kind: self.kind.clone() }
    }
}

impl<A: Application> Command<A> {
    /// The variables this command accesses.
    pub fn vars(&self) -> Vec<VarId> {
        self.iter_vars().collect()
    }

    /// [`Self::vars`], read in place.
    pub fn iter_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let (access, create): (&[VarId], &[(VarId, A::Value)]) = match &self.kind {
            CommandKind::Access { vars, .. } => (vars, &[]),
            CommandKind::CreateKey { vars, .. } => (&[], vars),
            CommandKind::DeleteKey { .. } => (&[], &[]),
        };
        access.iter().copied().chain(create.iter().map(|&(v, _)| v))
    }

    /// The distinct locality keys this command touches, sorted.
    pub fn keys(&self) -> Vec<LocKey> {
        let mut keys = Vec::new();
        self.append_keys(&mut keys);
        keys
    }

    /// Appends [`Self::keys`] to `out` without a vector of their own.
    pub fn append_keys(&self, out: &mut Vec<LocKey>) {
        match &self.kind {
            CommandKind::CreateKey { key, .. } | CommandKind::DeleteKey { key } => out.push(*key),
            CommandKind::Access { vars, .. } => {
                let start = out.len();
                out.extend(vars.iter().map(|&v| A::locality(v)));
                out[start..].sort_unstable();
                // `Vec::dedup`, confined to the appended tail.
                let mut kept = start;
                for i in start..out.len() {
                    if kept == start || out[i] != out[kept - 1] {
                        out[kept] = out[i];
                        kept += 1;
                    }
                }
                out.truncate(kept);
            }
        }
    }
}

/// The replication scheme a cluster runs (see the paper's §5.5, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// DynaStar: dynamic partitioning, borrow-execute-return multi-partition
    /// commands, oracle-driven graph repartitioning.
    Dynastar,
    /// S-SMR (Bezerra et al.): static partitioning; multi-partition commands
    /// execute at *every* involved partition after a state exchange. With a
    /// partitioner-optimized initial placement this is the paper's S-SMR\*.
    SSmr,
    /// DS-SMR (Le et al., DSN'16): dynamic but naive — variables migrate
    /// permanently to wherever they were last used, no workload-graph
    /// optimization.
    DsSmr,
}

impl Mode {
    /// Whether multi-partition commands move state to the target (DynaStar
    /// and DS-SMR) or exchange-and-execute-everywhere (S-SMR).
    pub fn moves_state(self) -> bool {
        !matches!(self, Mode::SSmr)
    }

    /// Whether moved variables stay at the target (DS-SMR) instead of
    /// returning home (DynaStar).
    pub fn keeps_moved_state(self) -> bool {
        matches!(self, Mode::DsSmr)
    }

    /// Whether the oracle runs graph-partitioning optimization.
    pub fn optimizes(self) -> bool {
        matches!(self, Mode::Dynastar)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Dynastar => write!(f, "DynaStar"),
            Mode::SSmr => write!(f, "S-SMR"),
            Mode::DsSmr => write!(f, "DS-SMR"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestApp;
    impl Application for TestApp {
        type Op = ();
        type Value = u64;
        type Reply = ();
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0 / 10)
        }
        fn execute(_: &(), _: &mut BTreeMap<VarId, Option<u64>>) {}
    }

    fn cmd(kind: CommandKind<TestApp>) -> Command<TestApp> {
        Command { id: MsgId::new(1, 0), client: NodeId::from_raw(0), kind }
    }

    #[test]
    fn access_keys_are_sorted_and_deduped() {
        let c = cmd(CommandKind::Access { op: (), vars: vec![VarId(25), VarId(3), VarId(21)] });
        assert_eq!(c.keys(), vec![LocKey(0), LocKey(2)]);
        assert_eq!(c.vars(), vec![VarId(25), VarId(3), VarId(21)]);
    }

    #[test]
    fn append_keys_leaves_what_was_there() {
        let mut arena = vec![LocKey(9), LocKey(0), LocKey(9)];
        let c = cmd(CommandKind::Access { op: (), vars: vec![VarId(25), VarId(3), VarId(21)] });
        c.append_keys(&mut arena);
        cmd(CommandKind::DeleteKey { key: LocKey(4) }).append_keys(&mut arena);
        let expected = [9, 0, 9, 0, 2, 4].map(LocKey);
        assert_eq!(arena, expected, "only the appended run is sorted and deduplicated");
    }

    #[test]
    fn create_and_delete_have_one_key() {
        let c = cmd(CommandKind::CreateKey { key: LocKey(4), vars: vec![(VarId(40), 1)] });
        assert_eq!(c.keys(), vec![LocKey(4)]);
        assert_eq!(c.vars(), vec![VarId(40)]);
        let d = cmd(CommandKind::DeleteKey { key: LocKey(4) });
        assert_eq!(d.keys(), vec![LocKey(4)]);
        assert!(d.vars().is_empty());
    }

    #[test]
    fn default_classify_is_all_writes() {
        let sets = TestApp::classify(&(), &[VarId(1), VarId(2)]);
        assert!(sets.reads.is_empty());
        assert_eq!(sets.writes, vec![VarId(1), VarId(2)]);
    }

    #[test]
    fn conflict_rule_is_cbase_symmetric() {
        let r =
            |vs: &[u64]| AccessSets::read_only(&vs.iter().map(|&v| VarId(v)).collect::<Vec<_>>());
        let w =
            |vs: &[u64]| AccessSets::write_all(&vs.iter().map(|&v| VarId(v)).collect::<Vec<_>>());
        // read-read never conflicts
        assert!(!r(&[1, 2]).conflicts_with(&r(&[1, 2])));
        // write-write on the same var conflicts
        assert!(w(&[1]).conflicts_with(&w(&[1])));
        // read-after-write and write-after-read both conflict
        assert!(r(&[1]).conflicts_with(&w(&[1])));
        assert!(w(&[1]).conflicts_with(&r(&[1])));
        // disjoint sets never conflict
        assert!(!w(&[1]).conflicts_with(&w(&[2])));
        assert!(!r(&[1]).conflicts_with(&w(&[2])));
    }

    #[test]
    fn normalized_sets_conflict_exactly_when_the_quadratic_rule_says() {
        let quadratic = |later: &AccessSets, earlier: &AccessSets| {
            let hits = |a: &[VarId], b: &[VarId]| a.iter().any(|v| b.contains(v));
            hits(&later.writes, &earlier.writes)
                || hits(&later.writes, &earlier.reads)
                || hits(&later.reads, &earlier.writes)
        };
        // A tiny deterministic generator: unsorted sets with repeats.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut set = |max_len: u64| -> Vec<VarId> {
            let len = next(max_len + 1);
            (0..len).map(|_| VarId(next(24))).collect()
        };
        let (mut conflicts, mut clear) = (0, 0);
        for _ in 0..500 {
            let later = AccessSets { reads: set(6), writes: set(3) };
            let earlier = AccessSets { reads: set(6), writes: set(3) };
            let want = quadratic(&later, &earlier);
            let (later, earlier) = (later.normalized(), earlier.normalized());
            assert!(later.writes.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
            assert_eq!(later.conflicts_with(&earlier), want, "{later:?} after {earlier:?}");
            if want {
                conflicts += 1;
            } else {
                clear += 1;
            }
        }
        assert!(conflicts > 50 && clear > 50, "both outcomes must be exercised");
    }

    #[test]
    fn mode_flags() {
        assert!(Mode::Dynastar.moves_state());
        assert!(!Mode::Dynastar.keeps_moved_state());
        assert!(Mode::Dynastar.optimizes());
        assert!(!Mode::SSmr.moves_state());
        assert!(Mode::DsSmr.moves_state());
        assert!(Mode::DsSmr.keeps_moved_state());
        assert!(!Mode::DsSmr.optimizes());
        assert_eq!(Mode::Dynastar.to_string(), "DynaStar");
    }
}
