//! Plan-history replay for migration settling.
//!
//! Which of `MigrationDone` / `MigrationRevert` settles a `(version, key)`
//! move cannot be first-decision-wins with the revert restoring the key's
//! *previous* location: plans chain. If plan v moves a key A→B and plan v+1
//! re-routes it B→C while the v-transfer is still in flight, a give-up
//! revert of v must *not* put the key back at A — the cluster has already
//! agreed (in total order) that it belongs at C. Nor may a decision be
//! forgotten under churn, or a late duplicate revert would re-settle as
//! "first" and silently flip ownership.
//!
//! Per key, [`PlanHistory`] keeps a bounded, version-ordered log of move
//! records `(version, from, to, outcome)` plus a monotone *floor*: the
//! highest version folded out of the log. Settling a decision marks the
//! record and **replays** the whole history to compute the current owner:
//!
//! * start from the base location (the destination of the last folded move,
//!   if any),
//! * walk records in version order: a `Reverted` move is skipped (annulled),
//!   any other move sets the location to its destination.
//!
//! The final location is the destination of the last non-reverted move — so
//! a revert of v with a chained move at v+1 leaves the owner at v+1's
//! destination, and a revert of the *last* move falls back to where the key
//! stood before it.
//!
//! Duplicates and stragglers are **default-deny**: a decision at or below the
//! floor, or for an already-decided record, returns [`Settle::Stale`] and
//! changes nothing. Unknown means decided, never first, which is what makes
//! the bound safe: forgetting a decided move can only cause a late duplicate
//! to be *ignored*, never replayed.
//!
//! All state lives in `BTreeMap`s / `VecDeque`s and every operation is a pure
//! function of delivery order, so replicas driving this from the same total
//! order stay byte-identical.

use std::collections::{BTreeMap, VecDeque};

use dynastar_amcast::MsgId;

use crate::command::{LocKey, PartitionId};

/// Origin space for migration-control multicasts
/// ([`Payload::MigrationDone`](crate::Payload::MigrationDone) /
/// [`Payload::MigrationRevert`](crate::Payload::MigrationRevert)): every
/// replica at either end of a migration derives the same id from
/// `(key, version)`, so the multicast layer delivers one copy. Disjoint from
/// client origins (node ids), partition hint origins
/// ([`PARTITION_ORIGIN_BASE`](crate::server::PARTITION_ORIGIN_BASE)) and the
/// oracle's plan origin (`u64::MAX - 1`).
const MIGRATION_ORIGIN_BASE: u64 = 1 << 62;
/// Derivation tag of `MigrationDone` ids.
pub(crate) const TAG_MIGRATION_DONE: u32 = 400;
/// Derivation tag of `MigrationRevert` ids.
pub(crate) const TAG_MIGRATION_REVERT: u32 = 401;

/// The shared id of a migration-control multicast for `(key, version)`.
pub(crate) fn migration_mid(key: LocKey, version: u64, tag: u32) -> MsgId {
    MsgId { origin: MIGRATION_ORIGIN_BASE | key.0, seq: version as u32, tag }
}

/// Live records kept per key before the oldest fold into the floor. Decided
/// records fold eagerly, so the cap only bites when a key has this many
/// *undecided* chained moves — far beyond any real plan cadence.
pub const PLAN_HISTORY_PER_KEY: usize = 16;

/// Outcome of one planned move of one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOutcome {
    /// Plan delivered, transfer not yet decided.
    Pending,
    /// `MigrationDone` delivered in total order.
    Done,
    /// `MigrationRevert` delivered in total order (source gave up).
    Reverted,
}

/// One planned move of one key, as recorded at plan delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRecord {
    /// Plan version that scheduled the move.
    pub version: u64,
    /// Partition the key was leaving.
    pub from: PartitionId,
    /// Partition the key was moving to.
    pub to: PartitionId,
    /// Current outcome.
    pub outcome: MoveOutcome,
}

/// Result of [`PlanHistory::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// First decision for this `(version, key)`; `owner` is the replayed
    /// current owner of the key after applying it.
    Applied { owner: PartitionId },
    /// Duplicate, or below the compaction floor — ignored.
    Stale,
}

/// Bounded per-key history of plan decisions.
#[derive(Debug, Clone, Default)]
struct KeyHistory {
    /// Highest move version folded out of `records`. Decisions at or below
    /// the floor are stale by definition.
    floor: u64,
    /// Owner implied by the folded prefix (destination of the last folded
    /// non-reverted move), if any move was ever folded.
    base: Option<PartitionId>,
    /// Version-ordered live records (floor-exclusive).
    records: VecDeque<MoveRecord>,
}

impl KeyHistory {
    /// Replay: base location, then every non-reverted move in version order.
    fn replay(&self) -> Option<PartitionId> {
        self.replay_versioned().map(|(loc, _)| loc)
    }

    /// Replay, also yielding the version of the move that set the final
    /// location (the floor for the folded base).
    fn replay_versioned(&self) -> Option<(PartitionId, u64)> {
        let mut loc = self.base.map(|b| (b, self.floor));
        for r in &self.records {
            if r.outcome != MoveOutcome::Reverted {
                loc = Some((r.to, r.version));
            }
        }
        loc
    }

    /// Fold fully-decided records off the front into `floor`/`base`, and
    /// enforce the per-key cap by folding oldest records even if pending
    /// (a pending move folded out counts as applied — same polarity as
    /// replay, and its eventual decision will land below the floor and be
    /// dropped as stale).
    fn compact(&mut self, cap: usize) {
        while let Some(front) = self.records.front() {
            let decided = front.outcome != MoveOutcome::Pending;
            if !decided && self.records.len() <= cap {
                break;
            }
            let r = self.records.pop_front().expect("front checked");
            self.floor = self.floor.max(r.version);
            if r.outcome != MoveOutcome::Reverted {
                self.base = Some(r.to);
            }
        }
    }
}

/// Bounded per-key log of plan decisions with settle-by-replay.
///
/// One instance lives in each [`ServerCore`](crate::server::ServerCore) and
/// [`OracleCore`](crate::oracle::OracleCore); both are driven purely from
/// totally-ordered deliveries, so all replicas hold identical histories.
#[derive(Debug, Clone)]
pub struct PlanHistory {
    keys: BTreeMap<LocKey, KeyHistory>,
    /// Max live records per key before oldest are folded into the floor.
    cap: usize,
}

impl PlanHistory {
    pub fn new(cap: usize) -> Self {
        Self { keys: BTreeMap::new(), cap: cap.max(1) }
    }

    /// Record a planned move at plan delivery. Idempotent per
    /// `(version, key)`; out-of-order versions are ignored (plans are
    /// delivered in total order, so versions only grow).
    pub fn record_move(&mut self, key: LocKey, version: u64, from: PartitionId, to: PartitionId) {
        let h = self.keys.entry(key).or_default();
        if version <= h.floor {
            return;
        }
        if let Some(back) = h.records.back() {
            if version <= back.version {
                return;
            }
        }
        h.records.push_back(MoveRecord { version, from, to, outcome: MoveOutcome::Pending });
        h.compact(self.cap);
    }

    /// Settle a `MigrationDone` / `MigrationRevert` decision and replay the
    /// key's history. If the record is missing but the version is above the
    /// floor (possible only if the record was capped out — deliveries are
    /// totally ordered so the plan always precedes its decision), the record
    /// is recreated from the message's own `(from, to)`, which every
    /// decision payload carries.
    pub fn settle(
        &mut self,
        key: LocKey,
        version: u64,
        from: PartitionId,
        to: PartitionId,
        outcome: MoveOutcome,
    ) -> Settle {
        debug_assert!(outcome != MoveOutcome::Pending, "settle with a decision");
        let cap = self.cap;
        let h = self.keys.entry(key).or_default();
        if version <= h.floor {
            return Settle::Stale;
        }
        match h.records.iter_mut().find(|r| r.version == version) {
            Some(r) => {
                if r.outcome != MoveOutcome::Pending {
                    return Settle::Stale;
                }
                r.outcome = outcome;
            }
            None => {
                let idx = h.records.partition_point(|r| r.version < version);
                h.records.insert(idx, MoveRecord { version, from, to, outcome });
            }
        }
        h.compact(cap);
        let owner = h.replay();
        match owner {
            Some(owner) => Settle::Applied { owner },
            // Every path that reaches here inserted at least a base.
            None => {
                Settle::Applied { owner: if outcome == MoveOutcome::Reverted { from } else { to } }
            }
        }
    }

    /// Has `(version, key)` been decided (done or reverted)? Versions at or
    /// below the floor count as decided — default-deny for stragglers.
    pub fn decided(&self, version: u64, key: LocKey) -> bool {
        match self.keys.get(&key) {
            None => false,
            Some(h) => {
                version <= h.floor
                    || h.records
                        .iter()
                        .any(|r| r.version == version && r.outcome != MoveOutcome::Pending)
            }
        }
    }

    /// Current owner of `key` implied by replaying its history, if the key
    /// has any history at all.
    pub fn resolved_owner(&self, key: LocKey) -> Option<PartitionId> {
        self.keys.get(&key).and_then(KeyHistory::replay)
    }

    /// [`Self::resolved_owner`] plus the version of the move that made it
    /// owner — the version a primary shipment to that owner must carry so
    /// the receiver's plan-version buffering resolves it correctly.
    pub fn resolved_owner_versioned(&self, key: LocKey) -> Option<(PartitionId, u64)> {
        self.keys.get(&key).and_then(KeyHistory::replay_versioned)
    }

    /// Was this specific move decided `Reverted`? Below-floor versions
    /// answer `false` — the outcome is forgotten, and callers use this only
    /// to skip taking ownership for a freshly delivered (hence above-floor)
    /// plan move.
    pub fn reverted(&self, version: u64, key: LocKey) -> bool {
        self.keys.get(&key).is_some_and(|h| {
            h.records.iter().any(|r| r.version == version && r.outcome == MoveOutcome::Reverted)
        })
    }

    /// Number of keys with live history (for tests / introspection).
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: LocKey = LocKey(7);
    const A: PartitionId = PartitionId(0);
    const B: PartitionId = PartitionId(1);
    const C: PartitionId = PartitionId(2);

    #[test]
    fn done_settles_at_destination() {
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Applied { owner: B });
        assert_eq!(h.resolved_owner(K), Some(B));
        assert!(h.decided(1, K));
    }

    #[test]
    fn revert_of_sole_move_restores_source() {
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Applied { owner: A });
        // With no surviving move the history cannot name the key's home —
        // settle's fallback (the revert's own `from`) supplied it above,
        // and callers of resolved_owner treat None as "stays put".
        assert_eq!(h.resolved_owner(K), None);
    }

    #[test]
    fn revert_composes_with_chained_move() {
        // Plan 1: A→B in flight; plan 2 re-routes B→C; then the v1 transfer
        // gives up. The revert must NOT bounce the key back to A: replay
        // skips the annulled v1 move and keeps v2's destination.
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        h.record_move(K, 2, B, C);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Applied { owner: C });
        assert_eq!(h.settle(K, 2, B, C, MoveOutcome::Done), Settle::Applied { owner: C });
        assert_eq!(h.resolved_owner(K), Some(C));
    }

    #[test]
    fn revert_of_chained_move_falls_back() {
        // v1 done, v2 reverted → key stands where v1 put it.
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        h.record_move(K, 2, B, C);
        assert_eq!(h.settle(K, 2, B, C, MoveOutcome::Reverted), Settle::Applied { owner: B });
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Applied { owner: B });
    }

    #[test]
    fn duplicate_decisions_are_stale() {
        let mut h = PlanHistory::new(64);
        h.record_move(K, 1, A, B);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Applied { owner: B });
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Stale);
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Done), Settle::Stale);
        assert_eq!(h.resolved_owner(K), Some(B));
    }

    #[test]
    fn late_duplicate_below_floor_is_stale_even_after_churn() {
        // Regression for a bounded table's amnesia: after the bounded log
        // folds a decision out, a late duplicate revert must stay ignored —
        // never re-apply as "first".
        let mut h = PlanHistory::new(4);
        let mut at = A;
        for v in 1..=64u64 {
            let to = if at == A { B } else { A };
            h.record_move(K, v, at, to);
            assert!(matches!(h.settle(K, v, at, to, MoveOutcome::Done), Settle::Applied { .. }));
            at = to;
        }
        let owner = h.resolved_owner(K).unwrap();
        // Version 1 is long folded out; the duplicate revert is dropped.
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Stale);
        assert_eq!(h.resolved_owner(K), Some(owner));
        assert!(h.decided(1, K), "below-floor counts as decided (default-deny)");
    }

    #[test]
    fn missing_record_recreated_from_message() {
        // Decision for a version we never recorded (capped out) but above
        // the floor: recreate from the payload's own from/to.
        let mut h = PlanHistory::new(64);
        assert_eq!(h.settle(K, 3, B, C, MoveOutcome::Done), Settle::Applied { owner: C });
        assert_eq!(h.resolved_owner(K), Some(C));
    }

    #[test]
    fn pending_cap_raises_floor() {
        let mut h = PlanHistory::new(2);
        h.record_move(K, 1, A, B);
        h.record_move(K, 2, B, C);
        h.record_move(K, 3, C, A); // folds v1 out even though pending
        assert!(h.decided(1, K), "folded pending move is below the floor");
        assert_eq!(h.settle(K, 1, A, B, MoveOutcome::Reverted), Settle::Stale);
        assert_eq!(h.settle(K, 3, C, A, MoveOutcome::Done), Settle::Applied { owner: A });
    }

    #[test]
    fn replay_is_order_independent_of_decision_arrival() {
        // Decisions for v1 and v2 can be delivered in either order (they
        // come from different source partitions); replay must converge.
        let mk = || {
            let mut h = PlanHistory::new(64);
            h.record_move(K, 1, A, B);
            h.record_move(K, 2, B, C);
            h
        };
        let mut h1 = mk();
        h1.settle(K, 1, A, B, MoveOutcome::Reverted);
        h1.settle(K, 2, B, C, MoveOutcome::Done);
        let mut h2 = mk();
        h2.settle(K, 2, B, C, MoveOutcome::Done);
        h2.settle(K, 1, A, B, MoveOutcome::Reverted);
        assert_eq!(h1.resolved_owner(K), h2.resolved_owner(K));
        assert_eq!(h1.resolved_owner(K), Some(C));
    }
}
