//! A bounded-memory deduplication set.
//!
//! [`RotatingSet`] keeps the most recent ~`2 × capacity` entries using the
//! classic two-generation rotation: inserts go to the young generation;
//! when it fills, the old generation is dropped and the generations swap.
//! An entry is therefore remembered for at least `capacity` subsequent
//! inserts. A duplicate that lags further than that is taken for new, so
//! its users are receiver-side filters of message ids whose copies arrive
//! close together: a partition's direct-message filter and a multicast
//! member's tables of ids it has ordered. Exactly-once command execution
//! does not use it: a partition replica keeps one exact session per
//! client instead (`dynastar_core`'s `server::session`).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::hash::Hash;

use crate::hash::FastHashSet;

/// A set that remembers at least the last `capacity` inserted elements.
#[derive(Debug, Clone)]
pub struct RotatingSet<T> {
    young: FastHashSet<T>,
    old: FastHashSet<T>,
    capacity: usize,
}

impl<T: Eq + Hash> RotatingSet<T> {
    /// Creates a set that retains at least `capacity` recent elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RotatingSet { young: FastHashSet::default(), old: FastHashSet::default(), capacity }
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        if self.old.contains(&value) || self.young.contains(&value) {
            return false;
        }
        if self.young.len() >= self.capacity {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(value)
    }

    /// Whether `value` is remembered.
    pub fn contains(&self, value: &T) -> bool {
        self.young.contains(value) || self.old.contains(value)
    }

    /// Number of remembered elements.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.young.is_empty() && self.old.is_empty()
    }

    /// Removes `value` from both generations, returning whether it was
    /// present.
    pub fn remove(&mut self, value: &T) -> bool {
        let a = self.young.remove(value);
        let b = self.old.remove(value);
        a || b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_dedups_recent_elements() {
        let mut s = RotatingSet::new(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert!(!s.contains(&2));
    }

    #[test]
    fn set_retains_at_least_capacity() {
        let mut s = RotatingSet::new(10);
        for i in 0..15 {
            s.insert(i);
        }
        // The latest 10 inserts are guaranteed remembered.
        for i in 5..15 {
            assert!(s.contains(&i), "{i} forgotten too early");
        }
        assert!(s.len() <= 20);
    }

    #[test]
    fn set_eventually_forgets() {
        let mut s = RotatingSet::new(4);
        for i in 0..100 {
            s.insert(i);
        }
        assert!(!s.contains(&0));
        assert!(s.len() <= 8);
    }

    #[test]
    fn set_remove_works_across_generations() {
        let mut s = RotatingSet::new(2);
        s.insert(1);
        s.insert(2);
        s.insert(3); // rotates {1,2} to old
        assert!(s.remove(&1));
        assert!(!s.contains(&1));
        assert!(s.remove(&3));
        assert!(!s.remove(&99));
    }

    #[test]
    fn set_empty_flags() {
        let s: RotatingSet<u32> = RotatingSet::new(1);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
