//! What a replica holds: the values physically present, and the records of
//! keys on their way in.

use std::collections::BTreeMap;

use dynastar_runtime::FastHashMap;

use super::sender::Shipment;
use crate::command::{PartitionId, VarId};

/// Moves `v`'s value out of an executed variable map (absent, `None` and
/// already-taken all read as `None`).
pub(super) fn take_value<V>(vars: &mut BTreeMap<VarId, Option<V>>, v: VarId) -> Option<V> {
    vars.get_mut(&v).and_then(Option::take)
}

/// The values physically present at one replica.
///
/// A hash table: the command path probes it once per declared variable,
/// and nothing reads it in order except [`Store::extract`], which sorts.
/// Slots hold an `Option` so that an execution can *move* a value out and
/// back without removing and re-inserting its entry (no tombstone, no
/// growth): [`Store::take`] leaves the emptied slot in place and the [`Store::put`] that follows refills it (or, when
/// the command deleted the variable, removes it). An emptied slot never
/// outlives `ServerCore::run_op`, and every reader treats one as absent.
#[derive(Debug, Clone)]
pub(super) struct Store<V>(FastHashMap<VarId, Option<V>>);

impl<V> Default for Store<V> {
    fn default() -> Self {
        Store(FastHashMap::default())
    }
}

impl<V> Store<V> {
    /// Number of slots.
    pub(super) fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds (or overwrites) every given variable; a later duplicate wins.
    pub(super) fn extend(&mut self, vars: impl IntoIterator<Item = (VarId, V)>) {
        self.0.extend(vars.into_iter().map(|(v, val)| (v, Some(val))));
    }

    pub(super) fn get(&self, v: VarId) -> Option<&V> {
        self.0.get(&v).and_then(Option::as_ref)
    }

    /// Moves `v`'s value out, keeping its slot for the `put` that follows.
    pub(super) fn take(&mut self, v: VarId) -> Option<V> {
        self.0.get_mut(&v).and_then(Option::take)
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
        let mut out: Vec<_> = self
            .0
            .extract_if(|&v, _| selected(v))
            .filter_map(|(v, val)| val.map(|val| (v, val)))
            .collect();
        out.sort_unstable_by_key(|&(v, _)| v);
        out
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random preloads, takes, puts, reads and extractions: the store
        /// answers as an ordered map of slots does, and `extract` hands
        /// its variables out in id order.
        #[test]
        fn the_store_matches_an_ordered_map_of_slots(
            preload in proptest::collection::vec((0u64..64, 0u32..100), 0..48),
            steps in proptest::collection::vec((0u8..6, 0u64..64, 0u32..100), 1..300),
        ) {
            let mut store = Store::default();
            let mut model: BTreeMap<VarId, Option<u32>> = BTreeMap::new();
            store.extend(preload.iter().map(|&(v, x)| (VarId(v), x)));
            model.extend(preload.iter().map(|&(v, x)| (VarId(v), Some(x))));
            for (op, v, x) in steps {
                let v = VarId(v);
                match op {
                    0 => proptest::prop_assert_eq!(
                        store.get(v),
                        model.get(&v).and_then(Option::as_ref)
                    ),
                    1 => proptest::prop_assert_eq!(
                        store.take(v),
                        model.get_mut(&v).and_then(Option::take)
                    ),
                    2 => {
                        store.put(v, Some(x));
                        model.insert(v, Some(x));
                    }
                    3 => {
                        store.put(v, None);
                        model.remove(&v);
                    }
                    _ => {
                        // Every variable of one residue class, as a key's.
                        let class = |w: VarId| w.0 % 8 == u64::from(x % 8);
                        let want: Vec<(VarId, u32)> = model
                            .extract_if(.., |&w, _| class(w))
                            .filter_map(|(w, val)| val.map(|val| (w, val)))
                            .collect();
                        proptest::prop_assert_eq!(store.extract(class), want);
                    }
                }
                proptest::prop_assert_eq!(store.len(), model.len());
            }
        }
    }
}
