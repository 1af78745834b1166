//! Routing decisions: which partitions a command involves and which one
//! executes it.
//!
//! The same pure function runs at the oracle (authoritative map) and at
//! clients (cached map) so that both derive identical routes from identical
//! location facts — the determinism Algorithm 2/3's `target()` requires.

use dynastar_amcast::MsgId;

use crate::command::{Application, Command, CommandKind, LocKey, PartitionId, VarId};

/// The oracle shard whose slice of the location map owns `key`.
///
/// Every process derives slice ownership from this pure function — shard
/// cores to report their owned slice, clients to route create/delete
/// queries — so a deterministic spread
/// matters: the multiply-shift mix decorrelates slice ownership from the
/// dense low-id keys the workloads use (a plain modulus would alias slice
/// stripes with round-robin placement stripes).
pub fn shard_of(key: LocKey, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    let h = key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) % shards as u64) as u32
}

/// The oracle shard a client's `Exec` query for `cmd` goes to on the
/// given dispatch attempt.
///
/// Create/delete queries always go to the owner shard of their key — it
/// is the single authority for the exists/absent decision. Access queries
/// can be answered by *any* shard (all shards replicate the full map, see
/// DESIGN.md §7), so they spread by an order-independent mix over the
/// command's keys; the attempt rotates the choice so retries — including
/// `Retry` referrals from a shard that cannot authoritatively reject a
/// missing key outside its slice — reach the owner within `shards`
/// attempts.
pub fn exec_shard<A: Application>(cmd: &Command<A>, attempt: u32, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    match &cmd.kind {
        CommandKind::CreateKey { key, .. } | CommandKind::DeleteKey { key } => {
            shard_of(*key, shards)
        }
        CommandKind::Access { .. } => {
            let mut mix = 0u64;
            for k in cmd.keys() {
                mix ^= k.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            (((mix >> 32).wrapping_add(attempt as u64)) % shards as u64) as u32
        }
    }
}

/// Attempts below this keep the compact tags `base + attempt`; ids break
/// timestamp ties in the multicast order, so these never change.
const COMPACT_ATTEMPTS: u32 = 90;

/// The derivation tag ([`MsgId::derived`]) of a command's `attempt`-th
/// multicast of one kind. The kinds' tags never meet — the compact ranges
/// are `[10, 100)` and `[100, 190)`, create is 200, delete 210, and later
/// attempts continue in the quarter of the tag space `band` (1 or 2) names
/// — because a group can see two kinds of one command (a DS-SMR `keep`
/// dispatch and the oracle query; create/delete coordination) and the
/// multicast layer drops a repeated id as a duplicate.
fn attempt_tag(base: u32, band: u32, attempt: u32) -> u32 {
    if attempt < COMPACT_ATTEMPTS {
        base + attempt
    } else {
        (band << 30) | (attempt & ((1 << 30) - 1))
    }
}

/// Id of the `attempt`-th dispatch of command `cmd` to its partitions.
pub(crate) fn dispatch_mid(cmd: MsgId, attempt: u32) -> MsgId {
    cmd.derived(attempt_tag(10, 1, attempt))
}

/// Id of the `attempt`-th oracle query (`Payload::Exec`) for command `cmd`.
pub(crate) fn query_mid(cmd: MsgId, attempt: u32) -> MsgId {
    cmd.derived(attempt_tag(100, 2, attempt))
}

/// Derivation tag of a command's create-coordination multicast.
pub(crate) const CREATE_TAG: u32 = 200;
/// Derivation tag of a command's delete-coordination multicast.
pub(crate) const DELETE_TAG: u32 = 210;

/// A fully resolved routing decision for an access command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// For every accessed variable, the partition expected to hold it.
    pub expected: Vec<(VarId, PartitionId)>,
    /// The distinct involved partitions, sorted.
    pub dests: Vec<PartitionId>,
    /// The partition chosen to execute the command: the one holding the
    /// most accessed variables, ties broken by the lowest partition id
    /// (the paper's deterministic `target()`).
    pub target: PartitionId,
}

impl Route {
    /// Whether the command involves more than one partition.
    pub fn is_multi_partition(&self) -> bool {
        self.dests.len() > 1
    }
}

/// Computes the route of `cmd` under the location facts in `lookup`.
///
/// Returns `None` if any accessed key has no known location (the caller
/// must consult the oracle / report `nok`).
pub fn compute_route<A: Application>(
    cmd: &Command<A>,
    mut lookup: impl FnMut(LocKey) -> Option<PartitionId>,
) -> Option<Route> {
    let vars = cmd.iter_vars();
    let mut expected = Vec::with_capacity(vars.size_hint().0);
    for v in vars {
        expected.push((v, lookup(A::locality(v))?));
    }
    let mut dests: Vec<PartitionId> = expected.iter().map(|&(_, p)| p).collect();
    dests.sort_unstable();
    // Most variables wins: one run of equal ids per partition, ascending,
    // so the strict `>` makes the lowest id win ties.
    let mut target = None;
    let mut most = 0;
    for run in dests.chunk_by(|a, b| a == b) {
        if run.len() > most {
            (most, target) = (run.len(), Some(run[0]));
        }
    }
    dests.dedup();
    Some(Route { expected, dests, target: target? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynastar_runtime::NodeId;

    struct App;
    impl Application for App {
        type Op = ();
        type Value = u64;
        type Reply = ();
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0)
        }
        fn execute(_: &(), _: &mut std::collections::BTreeMap<VarId, Option<u64>>) {}
    }

    fn access(vars: Vec<u64>) -> Command<App> {
        Command {
            id: MsgId::new(1, 0),
            client: NodeId::from_raw(0),
            kind: crate::command::CommandKind::Access {
                op: (),
                vars: vars.into_iter().map(VarId).collect(),
            },
        }
    }

    /// Locations: var v lives in partition v % 3.
    fn mod3(key: LocKey) -> Option<PartitionId> {
        Some(PartitionId((key.0 % 3) as u32))
    }

    #[test]
    fn a_commands_multicast_ids_never_meet() {
        use std::collections::BTreeSet;
        let cmd = MsgId::new(1, 0);
        // Past 2^30 attempts a kind reuses its own ids, never another's.
        let attempts = || (0..1_000).chain([(1 << 30) + 5, (1 << 31) + 95, u32::MAX]);
        let dispatches: BTreeSet<MsgId> = attempts().map(|a| dispatch_mid(cmd, a)).collect();
        let queries: BTreeSet<MsgId> = attempts().map(|a| query_mid(cmd, a)).collect();
        assert!(dispatches.len() >= 1_000 && queries.len() >= 1_000);
        assert!(dispatches.is_disjoint(&queries));
        for fixed in [cmd.derived(CREATE_TAG), cmd.derived(DELETE_TAG)] {
            assert!(!dispatches.contains(&fixed) && !queries.contains(&fixed));
        }
        // The ids of early attempts break ties in the multicast order.
        assert_eq!(dispatch_mid(cmd, 89), cmd.derived(99));
        assert_eq!(query_mid(cmd, 89), cmd.derived(189));
    }

    #[test]
    fn single_partition_route() {
        let r = compute_route(&access(vec![0, 3, 6]), mod3).unwrap();
        assert_eq!(r.dests, vec![PartitionId(0)]);
        assert_eq!(r.target, PartitionId(0));
        assert!(!r.is_multi_partition());
    }

    #[test]
    fn target_is_partition_with_most_vars() {
        let r = compute_route(&access(vec![0, 3, 1]), mod3).unwrap();
        assert_eq!(r.dests, vec![PartitionId(0), PartitionId(1)]);
        assert_eq!(r.target, PartitionId(0));
        assert!(r.is_multi_partition());
    }

    #[test]
    fn ties_break_to_lowest_partition_id() {
        let r = compute_route(&access(vec![1, 2]), mod3).unwrap();
        assert_eq!(r.target, PartitionId(1));
        let r = compute_route(&access(vec![2, 1]), mod3).unwrap();
        assert_eq!(r.target, PartitionId(1), "order of vars must not matter");
    }

    #[test]
    fn a_repeated_variable_counts_once_per_mention() {
        // Var 4 (partition 1) three times, var 2 (partition 2) twice.
        let r = compute_route(&access(vec![4, 2, 4, 0, 4, 2]), mod3).unwrap();
        assert_eq!(r.dests, [0, 1, 2].map(PartitionId));
        assert_eq!(r.target, PartitionId(1));
        assert_eq!(r.expected.len(), 6);
        // Twice var 1 ties once each vars 0 and 3: the lower id wins.
        let r = compute_route(&access(vec![1, 1, 0, 3]), mod3).unwrap();
        assert_eq!(r.dests, [0, 1].map(PartitionId));
        assert_eq!(r.target, PartitionId(0));
    }

    #[test]
    fn a_three_way_tie_breaks_to_the_lowest_partition_id() {
        for vars in [vec![2, 1, 0], vec![2, 5, 1, 4, 0, 3], vec![5, 4, 3, 2, 1, 0]] {
            let r = compute_route(&access(vars.clone()), mod3).unwrap();
            assert_eq!(r.dests, [0, 1, 2].map(PartitionId), "{vars:?}");
            assert_eq!(r.target, PartitionId(0), "{vars:?}");
        }
        // With partition 0 a vote behind, the tie is between 1 and 2.
        let r = compute_route(&access(vec![2, 5, 1, 4, 3]), mod3).unwrap();
        assert_eq!(r.target, PartitionId(1));
    }

    #[test]
    fn unknown_key_yields_none() {
        let r = compute_route(&access(vec![0, 5]), |k| if k.0 == 5 { None } else { mod3(k) });
        assert!(r.is_none());
    }

    #[test]
    fn expected_lists_every_var() {
        let r = compute_route(&access(vec![4, 2, 4]), mod3).unwrap();
        assert_eq!(
            r.expected,
            vec![
                (VarId(4), PartitionId(1)),
                (VarId(2), PartitionId(2)),
                (VarId(4), PartitionId(1)),
            ]
        );
    }
}
