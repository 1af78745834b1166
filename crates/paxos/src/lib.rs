//! # dynastar-paxos
//!
//! A from-scratch Multi-Paxos implementation, written *sans-io*: the
//! [`PaxosReplica`] state machine consumes messages and clock ticks and
//! produces outgoing messages and decided log entries, without knowing
//! anything about transports or threads. The DynaStar stack drives replicas
//! from [`dynastar_runtime`] actors; tests drive them directly.
//!
//! Each replica group in DynaStar (the oracle and every partition) runs one
//! instance of this protocol, mirroring the paper's libpaxos3-based groups:
//! a stable leader orders commands in a slot-indexed log, acceptors
//! guarantee that a value chosen in a slot is never changed, and learners
//! deliver the log in slot order.
//!
//! # Example
//!
//! ```
//! use dynastar_paxos::{GroupConfig, Output, PaxosReplica};
//!
//! // A three-replica group; replica 0 is the initial leader.
//! let cfg = GroupConfig::new(3);
//! let mut replicas: Vec<PaxosReplica<String>> =
//!     (0..3).map(|i| PaxosReplica::new(i, cfg.clone())).collect();
//!
//! // Propose a command at the leader and shuttle messages until quiescent.
//! // Each outgoing message names a set of recipients (`Peers`), so a
//! // broadcast to the group is one message.
//! let mut out = Output::default();
//! replicas[0].propose_into("cmd".to_string(), &mut out);
//! let (mut at, mut inflight, mut delivered) = (0, Vec::new(), Vec::new());
//! loop {
//!     delivered.extend(out.decided.drain(..).map(|(_, v)| v));
//!     for (to, msg) in out.outgoing.drain(..) {
//!         inflight.extend(to.iter().map(|t| (at, t, msg.clone())));
//!     }
//!     let Some((from, to, msg)) = inflight.pop() else { break };
//!     replicas[to].on_message_into(from, msg, &mut out);
//!     at = to;
//! }
//! assert!(delivered.contains(&"cmd".to_string()));
//! ```

#![forbid(unsafe_code)]
// Protocol crate: no panic on delivery paths. Tests assert freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod replica;
mod types;

pub use replica::{BatchStats, Output, PaxosReplica, RecoveryReport};
pub use types::{Ballot, BatchConfig, Entry, GroupConfig, PaxosMsg, Peers, Slot, MAX_GROUP_SIZE};
