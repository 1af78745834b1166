//! Core Paxos vocabulary: ballots, slots, group configuration, messages.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A ballot number: a `(round, replica)` pair, totally ordered
/// lexicographically so that every replica can generate ballots that are
/// distinct from every other replica's.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ballot {
    /// Monotone round counter.
    pub round: u64,
    /// Index (within the group) of the replica that owns the ballot.
    pub owner: usize,
}

impl Ballot {
    /// The ballot the group implicitly starts in: round 0, owned by
    /// replica 0, which therefore begins as leader without running phase 1.
    pub const INITIAL: Ballot = Ballot { round: 0, owner: 0 };

    /// The smallest ballot owned by `owner` that is strictly greater than
    /// `self`.
    pub fn next_for(self, owner: usize) -> Ballot {
        if owner > self.owner {
            Ballot { round: self.round, owner }
        } else {
            Ballot { round: self.round + 1, owner }
        }
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.owner)
    }
}

/// A position in the replicated log. Slots start at 0 and are dense.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Slot(pub u64);

impl Slot {
    /// The slot after this one.
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Batching and pipelining knobs for a group's leader.
///
/// The leader accumulates proposals into a buffer and flushes them into a
/// single log slot as an [`Entry::Batch`], amortizing one consensus
/// instance over many commands. A flush happens when the buffer reaches
/// [`BatchConfig::max_batch`] commands (a *full* flush) or when the oldest
/// buffered command has waited [`BatchConfig::max_batch_delay_ticks`]
/// clock ticks (a *delay* flush). Independently, the number of undecided
/// slots the leader keeps in flight is capped by [`BatchConfig::window`]:
/// while the window is full, new proposals wait in the buffer (and so
/// batch up under load).
///
/// The default — `max_batch = 1`, no delay, unbounded window — reproduces
/// the unbatched protocol exactly: every proposal becomes its own
/// [`Entry::Cmd`] slot immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Maximum commands per batch (per log slot). Must be ≥ 1; 1 disables
    /// batching.
    pub max_batch: usize,
    /// Ticks a partial batch may wait for more commands before it is
    /// flushed anyway. 0 flushes on the next opportunity (no added delay).
    pub max_batch_delay_ticks: u32,
    /// Maximum undecided slots the leader keeps in flight. 0 = unbounded
    /// (the historical behaviour).
    pub window: usize,
}

impl BatchConfig {
    /// No batching, no pipelining bound — the historical behaviour.
    pub const UNBATCHED: BatchConfig =
        BatchConfig { max_batch: 1, max_batch_delay_ticks: 0, window: 0 };

    /// Whether `slots_in_flight` leaves room to start another instance.
    pub fn window_open(&self, slots_in_flight: usize) -> bool {
        self.window == 0 || slots_in_flight < self.window
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::UNBATCHED
    }
}

/// Largest supported group: a leader tallies each slot's acceptances in
/// one `u64` bitmask, a bit per replica index.
pub const MAX_GROUP_SIZE: usize = 64;

/// A set of replica indices within one group, one bit per index (groups
/// have at most [`MAX_GROUP_SIZE`] replicas): the recipients of one
/// outgoing message. Iteration is in ascending index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Peers(pub u64);

impl Peers {
    /// Replica `idx` alone; empty if `idx` cannot be in any group.
    pub fn one(idx: usize) -> Peers {
        Peers(if idx < MAX_GROUP_SIZE { 1 << idx } else { 0 })
    }

    /// Every replica of a group of `size`.
    pub fn all(size: usize) -> Peers {
        Peers(if size >= MAX_GROUP_SIZE { u64::MAX } else { (1 << size) - 1 })
    }

    /// This set without replica `idx`.
    pub fn without(self, idx: usize) -> Peers {
        Peers(self.0 & !Peers::one(idx).0)
    }

    /// Whether replica `idx` is in the set.
    pub fn contains(self, idx: usize) -> bool {
        self.0 & Peers::one(idx).0 != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The indices in the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let idx = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (idx < MAX_GROUP_SIZE).then_some(idx)
        })
    }
}

/// Static configuration of one Paxos group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupConfig {
    /// Number of replicas in the group.
    pub size: usize,
    /// Ticks of leader silence before the first follower starts an
    /// election. Followers campaign in rank order: rank `r` waits
    /// `election_timeout_ticks + r * election_stagger_ticks()`. A
    /// follower's rank is its ring distance behind the leader it last
    /// heard from, so the dead leader's successor has rank 0; with no
    /// known leader it is the follower's own index. The stagger lets the
    /// first candidate win before the next one wakes.
    pub election_timeout_ticks: u32,
    /// Ticks between leader heartbeats.
    pub heartbeat_interval_ticks: u32,
    /// Leader-side batching and pipelining knobs.
    pub batch: BatchConfig,
}

impl GroupConfig {
    /// A group of `size` replicas with default timing (heartbeat every 2
    /// ticks, election after 10 quiet ticks). This fast timing suits
    /// tests driving replicas tick-by-tick; deployments over lossy
    /// transports should use [`GroupConfig::deployment`], whose election
    /// timeout sits well above the transport's retransmission delay, or
    /// leadership thrashes whenever a heartbeat is delayed.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or above [`MAX_GROUP_SIZE`].
    pub fn new(size: usize) -> Self {
        Self::with_timing(size, 10, 2)
    }

    /// A group of `size` replicas with deployment timing: heartbeat every
    /// 2 ticks, election after 600 quiet ticks (≈ 0.6 s at a 1 ms tick),
    /// well above the transport's retransmission delay so message loss
    /// does not depose healthy leaders.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or above [`MAX_GROUP_SIZE`].
    pub fn deployment(size: usize) -> Self {
        Self::with_timing(size, 600, 2)
    }

    /// A group of `size` replicas with explicit timing (in ticks).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or above [`MAX_GROUP_SIZE`], or
    /// `election_timeout_ticks` is zero.
    pub fn with_timing(
        size: usize,
        election_timeout_ticks: u32,
        heartbeat_interval_ticks: u32,
    ) -> Self {
        assert!(size > 0, "a Paxos group needs at least one replica");
        assert!(size <= MAX_GROUP_SIZE, "a Paxos group has at most {MAX_GROUP_SIZE} replicas");
        assert!(election_timeout_ticks > 0, "election timeout must be positive");
        GroupConfig {
            size,
            election_timeout_ticks,
            heartbeat_interval_ticks,
            batch: BatchConfig::UNBATCHED,
        }
    }

    /// Builder-style setter for the batching/pipelining knobs.
    ///
    /// # Panics
    ///
    /// Panics if `batch.max_batch` is zero.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        assert!(batch.max_batch > 0, "max_batch must be at least 1");
        self.batch = batch;
        self
    }

    /// Extra ticks each election rank waits behind the one before it: an
    /// eighth of the election timeout (at least one tick). At deployment
    /// timing that is 75 ticks, far longer than a Prepare round trip.
    pub fn election_stagger_ticks(&self) -> u32 {
        (self.election_timeout_ticks / 8).max(1)
    }

    /// The quorum size: a strict majority of the group.
    pub fn quorum(&self) -> usize {
        self.size / 2 + 1
    }
}

/// A log entry as stored/transferred by the protocol. Gap-filling no-ops
/// are internal to Paxos and never delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Entry<V> {
    /// An application command.
    Cmd(V),
    /// Several application commands ordered together in one consensus
    /// instance. Learners deliver the commands in vector order, so a batch
    /// is equivalent to the same commands occupying consecutive slots.
    Batch(Vec<V>),
    /// A no-op used by a new leader to fill holes in the log.
    Noop,
}

impl<V> Entry<V> {
    /// Number of application commands this entry delivers.
    pub fn command_count(&self) -> usize {
        match self {
            Entry::Cmd(_) => 1,
            Entry::Batch(vs) => vs.len(),
            Entry::Noop => 0,
        }
    }
}

/// The wire protocol between replicas of one group.
///
/// `from` fields are implicit: transports know the sender. All indices are
/// replica indices within the group (`0..size`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PaxosMsg<V> {
    /// Phase 1a: a candidate asks acceptors to promise ballot `ballot`.
    Prepare {
        /// The ballot being prepared.
        ballot: Ballot,
    },
    /// Phase 1b: an acceptor promises `ballot` and reports every value it
    /// has accepted in an undecided slot, plus how much of the log it knows
    /// to be decided.
    Promise {
        /// The promised ballot.
        ballot: Ballot,
        /// `(slot, ballot the value was accepted at, value)` for undecided slots.
        accepted: Vec<(Slot, Ballot, Entry<V>)>,
        /// First slot the acceptor does not know to be decided.
        decided_up_to: Slot,
    },
    /// Phase 2a: the leader asks acceptors to accept `value` in `slot`.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// The slot being filled.
        slot: Slot,
        /// The proposed entry.
        value: Entry<V>,
    },
    /// Phase 2b: an acceptor reports that it accepted `slot` at `ballot`.
    Accepted {
        /// The ballot at which the acceptor accepted.
        ballot: Ballot,
        /// The accepted slot.
        slot: Slot,
    },
    /// Commit notification: `slot` was chosen with `value`.
    Decide {
        /// The decided slot.
        slot: Slot,
        /// The chosen entry.
        value: Entry<V>,
    },
    /// Leader liveness beacon; also advertises the decided log frontier so
    /// lagging replicas can ask for retransmission.
    Heartbeat {
        /// The leader's ballot.
        ballot: Ballot,
        /// First slot the leader has not decided.
        decided_up_to: Slot,
    },
    /// Request retransmission of decided slots in `[from_slot, to_slot)`.
    CatchUpRequest {
        /// First slot requested.
        from_slot: Slot,
        /// One past the last slot requested.
        to_slot: Slot,
    },
    /// A non-leader replica forwarding a client proposal to the leader.
    Forward {
        /// The forwarded command.
        value: V,
    },
    /// A ballot-too-low rejection, informing the sender of the higher ballot.
    Nack {
        /// The higher ballot the receiver has promised.
        ballot: Ballot,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peers_are_a_bitmask_iterated_in_index_order() {
        let five = Peers::all(5).without(2);
        assert_eq!(five, Peers(0b11011));
        assert_eq!(five.iter().collect::<Vec<_>>(), [0, 1, 3, 4]);
        assert_eq!((five.contains(2), five.contains(4)), (false, true));
        assert_eq!(Peers::all(MAX_GROUP_SIZE).iter().count(), MAX_GROUP_SIZE);
        assert_eq!(Peers::all(MAX_GROUP_SIZE).without(63).iter().last(), Some(62));
        assert_eq!(Peers::one(63).iter().collect::<Vec<_>>(), [63]);
        // An index no group can have addresses nobody.
        assert!(Peers::one(MAX_GROUP_SIZE).is_empty() && Peers::one(usize::MAX).is_empty());
        assert_eq!(Peers::all(3).without(70), Peers::all(3));
        assert!(Peers::all(1).without(0).is_empty());
        assert_eq!(Peers::default().iter().next(), None);
    }
}
