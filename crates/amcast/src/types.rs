//! Identifiers, topology and wire messages of the atomic multicast layer.

use std::fmt;
use std::sync::Arc;

use dynastar_paxos::PaxosMsg;
use serde::{Deserialize, Serialize};

/// Identifier of a replica group (a partition, or the oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Address of one replica: a group and an index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemberId {
    /// The group the replica belongs to.
    pub group: GroupId,
    /// The replica's index within its group (`0..group size`).
    pub index: usize,
}

impl MemberId {
    /// Creates a member address.
    pub fn new(group: GroupId, index: usize) -> Self {
        MemberId { group, index }
    }
}

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.group, self.index)
    }
}

/// Globally unique identifier of a multicast message.
///
/// Ids are structured rather than random so that replicated senders can
/// *deterministically* derive the same id for the same logical message:
/// every replica of the oracle deriving the id of a follow-up multicast
/// from the triggering command's id produces identical ids, and destination
/// leaders deduplicate the copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    /// The originating process (e.g. a client id).
    pub origin: u64,
    /// Per-origin sequence number.
    pub seq: u32,
    /// Derivation tag: 0 for the original message, `n` for the n-th message
    /// deterministically derived from it.
    pub tag: u32,
}

impl MsgId {
    /// Id of the `seq`-th original message of `origin`.
    pub fn new(origin: u64, seq: u32) -> Self {
        MsgId { origin, seq, tag: 0 }
    }

    /// Id of the `tag`-th message derived from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is zero (reserved for original messages).
    pub fn derived(self, tag: u32) -> Self {
        assert!(tag != 0, "derivation tag 0 is reserved for original messages");
        MsgId { origin: self.origin, seq: self.seq, tag }
    }

    /// The part of the id that stays fixed while `seq` counts up: an
    /// origin's messages of one derivation tag. Exact dedup tables
    /// ([`dynastar_runtime::dedup::SeqSet`]) keep their seq blocks by it.
    pub(crate) fn stream(self) -> MsgStream {
        (self.origin, self.tag)
    }
}

/// A [`MsgId`] without its seq: `(origin, tag)`, see [`MsgId::stream`].
pub(crate) type MsgStream = (u64, u32);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}.{}", self.origin, self.seq, self.tag)
    }
}

/// The destination groups of one multicast message: sorted, distinct, and
/// shared. Every log entry, wire message, delivery and bookkeeping row of
/// the message holds the same allocation, so copying one costs a refcount.
pub type Dests = Arc<[GroupId]>;

/// Static description of all groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    sizes: Vec<usize>,
}

impl Topology {
    /// Creates a topology from per-group replica counts.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups or any group is empty.
    pub fn new(sizes: Vec<usize>) -> Self {
        assert!(!sizes.is_empty(), "topology needs at least one group");
        assert!(sizes.iter().all(|&s| s > 0), "every group needs at least one replica");
        Topology { sizes }
    }

    /// Creates a topology of `groups` groups with `replicas` replicas each.
    pub fn uniform(groups: usize, replicas: usize) -> Self {
        Topology::new(vec![replicas; groups])
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.sizes.len()
    }

    /// Number of replicas in `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` does not exist.
    pub fn size_of(&self, group: GroupId) -> usize {
        self.sizes[group.0 as usize]
    }

    /// All group ids.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.sizes.len()).map(|i| GroupId(i as u32))
    }

    /// All member addresses of `group`.
    pub fn members_of(&self, group: GroupId) -> impl Iterator<Item = MemberId> + '_ {
        (0..self.size_of(group)).map(move |i| MemberId::new(group, i))
    }
}

/// An entry in a group's Paxos log.
///
/// Replaying the log deterministically reconstructs the group's multicast
/// state (logical clock, per-message timestamps), so every replica of the
/// group agrees on timestamps without extra coordination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogEntry<V> {
    /// Order message `mid` in this group and assign it the next local
    /// timestamp.
    Assign {
        /// The message id.
        mid: MsgId,
        /// All destination groups of the message.
        dests: Dests,
        /// The application payload.
        payload: V,
    },
    /// Record that destination group `from_group` assigned `ts` to `mid`.
    Remote {
        /// The message id.
        mid: MsgId,
        /// The group reporting its timestamp.
        from_group: GroupId,
        /// The reported local timestamp.
        ts: u64,
    },
}

/// Wire messages of the multicast layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum McastWire<V> {
    /// A sender (client or replica) submits `mid` for ordering.
    Submit {
        /// The message id (deduplicated at destination leaders).
        mid: MsgId,
        /// Destination groups.
        dests: Dests,
        /// Application payload.
        payload: V,
    },
    /// A destination group's locally assigned timestamp for `mid`.
    ///
    /// Carries the destinations and payload too, so a destination group
    /// that never saw the original `Submit` (all copies lost) can still
    /// order the message — without this, one lost submit could block the
    /// whole multicast.
    GroupTs {
        /// The message id.
        mid: MsgId,
        /// The group that assigned `ts`.
        from_group: GroupId,
        /// The assigned local timestamp.
        ts: u64,
        /// Destination groups of the message.
        dests: Dests,
        /// Application payload.
        payload: V,
    },
    /// Acknowledgement that `from_group`'s timestamp for `mid` was ordered
    /// by the acknowledging group (stops retransmission).
    TsAck {
        /// The message id.
        mid: MsgId,
        /// The group whose timestamp is acknowledged.
        from_group: GroupId,
        /// The acknowledging group.
        by_group: GroupId,
    },
    /// Intra-group consensus traffic.
    Paxos {
        /// Index (within the group) of the sending replica.
        from_index: usize,
        /// The consensus message.
        msg: PaxosMsg<LogEntry<V>>,
    },
}

/// A message delivered by the multicast layer, in final-timestamp order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delivery<V> {
    /// The message id.
    pub mid: MsgId,
    /// The final (global) timestamp that positioned the message.
    pub final_ts: u64,
    /// All destination groups.
    pub dests: Dests,
    /// The application payload.
    pub payload: V,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_ids_are_ordered_and_derivable() {
        let a = MsgId::new(1, 0);
        let b = MsgId::new(1, 1);
        assert!(a < b);
        let d = a.derived(2);
        assert_eq!(d.origin, 1);
        assert_eq!(d.tag, 2);
        assert_ne!(a, d);
        assert_eq!(a.to_string(), "m1.0.0");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn derived_rejects_tag_zero() {
        let _ = MsgId::new(1, 0).derived(0);
    }

    #[test]
    fn topology_enumerates_members() {
        let t = Topology::new(vec![2, 3]);
        assert_eq!(t.group_count(), 2);
        assert_eq!(t.size_of(GroupId(1)), 3);
        let members: Vec<MemberId> = t.members_of(GroupId(1)).collect();
        assert_eq!(members.len(), 3);
        assert_eq!(members[2], MemberId::new(GroupId(1), 2));
        assert_eq!(t.groups().count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn topology_rejects_empty_group() {
        let _ = Topology::new(vec![1, 0]);
    }

    #[test]
    fn uniform_topology() {
        let t = Topology::uniform(4, 3);
        assert_eq!(t.group_count(), 4);
        assert!(t.groups().all(|g| t.size_of(g) == 3));
    }
}
