//! # dynastar-amcast
//!
//! A genuine atomic multicast built from per-group Multi-Paxos instances,
//! in the style of BaseCast/FastCast (Coelho, Schiper, Pedone — DSN'17),
//! which the DynaStar paper uses as its ordering substrate.
//!
//! ## Protocol
//!
//! Processes are organised into disjoint *groups*, each running one
//! [`dynastar_paxos`] instance. To atomically multicast a message `m` to a
//! set of destination groups γ:
//!
//! 1. The sender submits `m` to (the replicas of) every group in γ.
//! 2. Each group `g ∈ γ` orders an `Assign(m)` entry in its Paxos log.
//!    Replaying the log, every replica of `g` deterministically assigns the
//!    group's logical timestamp `ts_g(m)` (a per-group Lamport clock).
//! 3. Groups in γ exchange their timestamps; each received timestamp is
//!    itself ordered in the receiving group's log (a `Remote` entry), so all
//!    replicas of a group observe the identical interleaving.
//! 4. The final timestamp is `max` over γ. Message delivery follows the
//!    total order of `(final_ts, msg id)`; a message is delivered once no
//!    undecided message could obtain a smaller final timestamp.
//!
//! Only the sender and the destination groups exchange messages — the
//! multicast is *genuine* — and a single-group multicast costs exactly one
//! consensus instance (the atomic broadcast fast path).
//!
//! The implementation is sans-io, mirroring `dynastar-paxos`:
//! [`McastMember`] consumes wire messages and ticks, and produces outgoing
//! wire messages, each addressed to a set of replicas of one group, plus
//! ordered deliveries.
//!
//! # Example
//!
//! ```
//! use dynastar_amcast::{GroupId, McastMember, McastOutput, MemberId, MsgId, Topology};
//!
//! // Two groups of one replica each.
//! let topo = Topology::new(vec![1, 1]);
//! let mut members: Vec<McastMember<&'static str>> =
//!     topo.groups().map(|g| McastMember::new(MemberId::new(g, 0), topo.clone())).collect();
//!
//! // Multicast to both groups, shuttling wire messages by hand. Each
//! // outgoing wire names one group and a set of its replicas, so a message
//! // to a whole group is one message.
//! let mut out = McastOutput::default();
//! let mut at = MemberId::new(GroupId(0), 0);
//! members[0].submit_into(MsgId::new(7, 0), vec![GroupId(0), GroupId(1)].into(), "hello", &mut out);
//! let (mut queue, mut delivered) = (Vec::new(), Vec::new());
//! loop {
//!     delivered.extend(out.delivered.drain(..).map(|d| (at, d.payload)));
//!     for ((group, peers), wire) in out.outgoing.drain(..) {
//!         queue.extend(peers.iter().map(|i| (MemberId::new(group, i), wire.clone())));
//!     }
//!     let Some((to, wire)) = queue.pop() else { break };
//!     members[to.group.0 as usize].on_message_into(wire, &mut out);
//!     at = to;
//! }
//! assert!(delivered.contains(&(MemberId::new(GroupId(0), 0), "hello")));
//! assert!(delivered.contains(&(MemberId::new(GroupId(1), 0), "hello")));
//! ```

#![forbid(unsafe_code)]
// Protocol crate: no panic on delivery paths. Tests assert freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod member;
mod types;

pub use member::{McastMember, McastOutput, MemberSnapshot};
pub use types::{Delivery, Dests, GroupId, LogEntry, McastWire, MemberId, MsgId, Topology};
