//! What a replica holds: the values physically present, and the records of
//! keys on their way in.

use std::collections::BTreeMap;

use super::sender::Shipment;
use crate::command::{PartitionId, VarId};

/// Moves `v`'s value out of an executed variable map (absent, `None` and
/// already-taken all read as `None`).
pub(super) fn take_value<V>(vars: &mut BTreeMap<VarId, Option<V>>, v: VarId) -> Option<V> {
    vars.get_mut(&v).and_then(Option::take)
}

/// The values physically present at one replica.
///
/// Slots hold an `Option` so that an execution can *move* a value out and
/// back without unlinking its tree node: [`Store::take`] leaves the emptied
/// slot in place and the [`Store::put`] that follows refills it (or, when
/// the command deleted the variable, removes it). An emptied slot never
/// outlives `ServerCore::run_op`, and every reader treats one as absent.
#[derive(Debug, Clone)]
pub(super) struct Store<V>(BTreeMap<VarId, Option<V>>);

impl<V> Default for Store<V> {
    fn default() -> Self {
        Store(BTreeMap::new())
    }
}

impl<V> Store<V> {
    /// Number of slots.
    pub(super) fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds (or overwrites) every given variable; a later duplicate wins.
    /// The input is bulk built (one sort, then a tree filled in order) and
    /// appended, which into an empty store is a swap.
    pub(super) fn extend(&mut self, vars: impl IntoIterator<Item = (VarId, V)>) {
        self.0.append(&mut vars.into_iter().map(|(v, val)| (v, Some(val))).collect());
    }

    pub(super) fn get(&self, v: VarId) -> Option<&V> {
        self.0.get(&v).and_then(Option::as_ref)
    }

    /// Moves `v`'s value out, keeping its slot for the `put` that follows.
    pub(super) fn take(&mut self, v: VarId) -> Option<V> {
        take_value(&mut self.0, v)
    }

    /// Stores `val` (in place when `v` has a slot); `None` deletes `v`.
    pub(super) fn put(&mut self, v: VarId, val: Option<V>) {
        match val {
            Some(val) => {
                self.0.insert(v, Some(val));
            }
            None => {
                self.0.remove(&v);
            }
        }
    }

    /// Moves out every variable `selected` picks, in id order.
    pub(super) fn extract(&mut self, mut selected: impl FnMut(VarId) -> bool) -> Vec<(VarId, V)> {
        self.0
            .extract_if(.., |&v, _| selected(v))
            .filter_map(|(v, val)| val.map(|val| (v, val)))
            .collect()
    }
}

/// Destination-side buffer of one staged key migration. Chunks accumulate
/// here (idempotently — retransmits overwrite with identical data) and are
/// installed only once the matching `Payload::MigrationDone` has been
/// delivered in total order.
#[derive(Debug, Clone)]
pub(super) struct StagedKey<V> {
    /// The old owner.
    pub(super) from: PartitionId,
    /// Total chunk count, learned from the first chunk to arrive (a
    /// `MigrationDone` can be delivered before any chunk reaches this
    /// particular replica).
    pub(super) total: Option<u32>,
    /// Received chunks by index.
    pub(super) chunks: BTreeMap<u32, Shipment<V>>,
    /// The `MigrationDone` for this migration has been delivered.
    pub(super) done: bool,
    /// This replica already submitted the `MigrationDone` multicast.
    pub(super) done_requested: bool,
}

impl<V> StagedKey<V> {
    pub(super) fn new(from: PartitionId, done_requested: bool) -> Self {
        StagedKey { from, total: None, chunks: BTreeMap::new(), done: false, done_requested }
    }
}

/// Destination-side marker of a key whose primary shipment is in flight.
#[derive(Debug, Clone, Copy)]
pub(super) struct Awaited {
    /// The old owner (per the plan that moved the key here).
    pub(super) from: PartitionId,
    /// This replica already sent the old owner a `Direct::PlanVarsPull`
    /// for the key. Lives and dies with the marker, so a re-planned key
    /// can be pulled again.
    pub(super) pulled: bool,
}
