//! An exact deduplication set for sequence-numbered ids.
//!
//! [`SeqSet`] remembers every `(stream, seq)` pair ever inserted, where a
//! stream is whatever part of an id stays fixed while its `u32` sequence
//! number counts up: a multicast origin and derivation tag, a client
//! command's direct-message kind and attempt. It keeps one 64-bit word per
//! block of 64 consecutive seqs of a stream, bit `seq % 64` of the word of
//! block `seq / 64` set once that seq is inserted. The set never forgets,
//! so a repeat is recognised however late it comes — a duplicate cannot be
//! taken for new and processed twice. It is not a per-stream watermark
//! either: a seq below the highest one seen that was never inserted still
//! reads as absent. It grows by one word (plus the hash entry's key) for
//! each 64-seq block of a stream that holds an id, so ids that count up
//! densely within their stream cost a few bytes each.
//!
//! Its users are receiver-side filters whose copies of one id arrive from
//! several senders: a partition's direct-message filter and a multicast
//! member's tables of ids it has ordered.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::hash::Hash;

use crate::hash::FastHashMap;

/// Seqs per block: the bits of one word.
const BLOCK: u32 = u64::BITS;

/// The exact set of `(stream, seq)` pairs inserted so far; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct SeqSet<S> {
    /// `(stream, seq / 64)` → the block's membership bits.
    blocks: FastHashMap<(S, u32), u64>,
}

impl<S> Default for SeqSet<S> {
    fn default() -> Self {
        SeqSet { blocks: FastHashMap::default() }
    }
}

impl<S: Eq + Hash> SeqSet<S> {
    /// Inserts `seq` of `stream`; returns `true` if it was not already
    /// present.
    pub fn insert(&mut self, stream: S, seq: u32) -> bool {
        let bit = 1u64 << (seq % BLOCK);
        let word = self.blocks.entry((stream, seq / BLOCK)).or_insert(0);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether `seq` of `stream` has been inserted.
    pub fn contains(&self, stream: S, seq: u32) -> bool {
        self.blocks
            .get(&(stream, seq / BLOCK))
            .is_some_and(|word| word & (1u64 << (seq % BLOCK)) != 0)
    }

    /// Number of 64-seq blocks holding at least one id: the set's size,
    /// one word and its key each.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::{prop_assert, prop_assert_eq};

    use super::*;

    #[test]
    fn block_edges_are_distinct_ids() {
        let mut s = SeqSet::default();
        for seq in [0, 63, 64, u32::MAX] {
            assert!(!s.contains(1u8, seq));
            assert!(s.insert(1u8, seq), "{seq}");
            assert!(!s.insert(1u8, seq), "{seq}");
        }
        for seq in [1, 62, 65, 127, u32::MAX - 1] {
            assert!(!s.contains(1u8, seq), "{seq}");
        }
        assert!(!s.contains(2u8, 0), "streams are independent");
        assert_eq!(s.blocks(), 3, "0 and 63 share a block; 64 and u32::MAX open one each");
    }

    #[test]
    fn nothing_is_forgotten() {
        let mut s = SeqSet::default();
        assert!(s.insert(7u64, 0));
        // More inserts, over 16 streams, than two rotating generations of
        // 2^16 entries remember.
        let later = (1u32 << 17) + 1;
        for i in 0..later {
            assert!(s.insert(u64::from(i % 16), i / 16 + 1));
        }
        assert!(!s.insert(7u64, 0), "the first id is still known");
        // Each stream holds seqs 1..=8192 (stream 0 also 8193): blocks 0..=128.
        assert_eq!(s.blocks(), 16 * 129);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random inserts and lookups over interleaved streams, in and out
        /// of order, with gaps and the block-edge and `u32::MAX` seqs:
        /// the set answers exactly as an ordered set of pairs does.
        #[test]
        fn the_set_matches_an_ordered_set_of_pairs(
            steps in proptest::collection::vec((0u8..4, 0u8..4, 0u32..300, 0u8..8), 1..400),
        ) {
            let mut set = SeqSet::default();
            let mut model: BTreeSet<(u8, u32)> = BTreeSet::new();
            for (op, stream, near, pick) in steps {
                // Mostly a dense seq near the start, sometimes one at a
                // block edge or near the top of the range.
                let seq = match pick {
                    0 => 0,
                    1 => 63,
                    2 => 64,
                    3 => u32::MAX - near % 3,
                    _ => near,
                };
                if op == 0 {
                    prop_assert_eq!(set.contains(stream, seq), model.contains(&(stream, seq)));
                } else {
                    prop_assert_eq!(set.insert(stream, seq), model.insert((stream, seq)));
                }
            }
            let blocks: BTreeSet<(u8, u32)> = model.iter().map(|&(s, q)| (s, q / 64)).collect();
            prop_assert_eq!(set.blocks(), blocks.len());
            for &(stream, seq) in &model {
                prop_assert!(set.contains(stream, seq));
            }
        }
    }
}
