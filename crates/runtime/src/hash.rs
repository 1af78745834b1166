//! Deterministic fast hashing for hot-path maps.
//!
//! `std::collections::HashMap`'s default SipHash is keyed per process for
//! HashDoS resistance, which the simulator neither needs (all keys are
//! internal ids) nor wants: the random key makes iteration order vary
//! between runs, and the per-lookup cost shows up on every delivered frame
//! (FIFO sequencing, dedup, ARQ buffers all key by small integer ids).
//! [`FxHasher`] is the rustc multiply-xor hash: a handful of cycles per
//! word, and — having no random state — the same across runs, so map
//! iteration order is at least process-stable. Code on effect-emitting
//! paths must still sort before iterating (insertion order differs per
//! instance), but a forgotten sort becomes a reproducible bug instead of a
//! once-in-n-runs heisenbug.
//!
//! Not collision-resistant against adversarial keys; use only for maps
//! keyed by trusted internal values.

#![expect(
    clippy::disallowed_types,
    reason = "the one place std's hash containers are named: the aliases below pin a deterministic hasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`]. Drop-in for hot-path maps with small
/// trusted keys (node ids, sequence numbers, message ids).
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The odd constant from FxHash (rustc's internal hasher): close to
/// 2^64 / φ, so consecutive small integers spread across the table.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-xor hasher; see module docs for the trade-offs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" and "ab\0" hash differently.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // No random state: two independently built hashers agree, which is
        // what makes map iteration order process-stable.
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"peer-7"), hash_of(&"peer-7"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let h: Vec<u64> = (0u64..64).map(|i| hash_of(&i)).collect();
        let distinct: std::collections::BTreeSet<u64> = h.iter().copied().collect();
        assert_eq!(distinct.len(), h.len(), "consecutive ids must not collide");
    }

    #[test]
    fn byte_slices_fold_in_length() {
        assert_ne!(hash_of(&b"ab".as_slice()), hash_of(&b"ab\0".as_slice()));
        assert_ne!(hash_of(&b"".as_slice()), hash_of(&b"\0".as_slice()));
    }

    #[test]
    fn fast_map_roundtrip() {
        let mut m: FastHashMap<u32, &str> = FastHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
    }
}
