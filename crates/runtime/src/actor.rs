//! The actor abstraction protocol code is written against.

use std::fmt;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated node (process).
///
/// Node ids are dense small integers assigned by
/// [`Simulation::add_node`](crate::sim::Simulation::add_node) in creation
/// order; protocol crates treat them as opaque addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// The address used as the `from` of externally injected messages
    /// (see [`Simulation::send_external`](crate::sim::Simulation::send_external)).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// Creates a node id from its raw index.
    ///
    /// Mostly useful in tests; real ids come from `Simulation::add_node`.
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index of this id.
    pub fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "n(ext)")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Side effects an actor can request during a callback.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send { to: NodeId, msg: M },
    SetTimer { delay: SimDuration, tag: u64 },
    CancelTimer { tag: u64 },
}

/// The execution context handed to every actor callback.
///
/// Through the context an actor reads the simulated clock, sends messages,
/// manages timers, draws deterministic randomness and records metrics.
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) stable: &'a mut Vec<u8>,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
}

impl<'a, M> Ctx<'a, M> {
    /// The id of the actor being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. Delivery latency is sampled from the network
    /// model; the message may be lost if the model has a loss probability.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every node in `to`, cloning as needed.
    pub fn send_all<I>(&mut self, to: I, msg: M)
    where
        I: IntoIterator<Item = NodeId>,
        M: Clone,
    {
        for dest in to {
            self.send(dest, msg.clone());
        }
    }

    /// Arms (or re-arms) the timer identified by `tag` to fire after
    /// `delay`. Re-arming supersedes any earlier pending firing of the same
    /// tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.effects.push(Effect::SetTimer { delay, tag });
    }

    /// Cancels the timer identified by `tag` if pending.
    pub fn cancel_timer(&mut self, tag: u64) {
        self.effects.push(Effect::CancelTimer { tag });
    }

    /// The node's private deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The node's stable-storage blob as last persisted (empty if never
    /// written). Unlike actor fields, the blob survives a crash and is
    /// handed back to [`Actor::on_restart`] when the node comes back up.
    pub fn stable(&self) -> &[u8] {
        self.stable
    }

    /// Atomically replaces the node's stable-storage blob.
    ///
    /// The write is durable from the moment this returns: a crash at any
    /// later point leaves exactly this blob for recovery. Partial writes
    /// are not modeled — persistence is whole-blob replace, mirroring a
    /// write-to-temp-then-rename on a real disk.
    pub fn persist(&mut self, data: &[u8]) {
        self.stable.clear();
        self.stable.extend_from_slice(data);
    }

    /// Read access to the simulation-wide metrics registry.
    pub fn metrics(&self) -> &Metrics {
        self.metrics
    }

    /// Write access to the simulation-wide metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        self.metrics
    }
}

/// A simulated process.
///
/// Implementations react to three stimuli: simulation start, message
/// delivery and timer expiry. All state must live inside the actor; the
/// only way to affect the world is through the [`Ctx`].
///
/// Callbacks run atomically with respect to each other (the simulation is
/// single-threaded), so no internal synchronization is needed.
pub trait Actor<M>: 'static {
    /// Called once when the simulation first runs, before any message.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
        let _ = (ctx, from, msg);
    }

    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called when the node restarts after a crash (crash-recovery model).
    ///
    /// `stable` is the stable-storage blob as last written with
    /// [`Ctx::persist`] before the crash (empty if never persisted).
    /// Implementations MUST treat all of their in-memory fields as lost:
    /// reset every volatile field and rebuild only from `stable`. The
    /// runtime has already removed all pending timers and reseeded the
    /// node's RNG for the new incarnation.
    ///
    /// The default implementation models a process with no recovery logic:
    /// it ignores `stable` and runs [`Actor::on_start`] as if booting
    /// fresh. Stateful actors should override it.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>, stable: &[u8]) {
        let _ = stable;
        self.on_start(ctx);
    }

    /// Read-only introspection: this node's view of a key→partition
    /// location map, as `(key, partition)` pairs, if it maintains one.
    ///
    /// Purely diagnostic — the simulation never calls it on its own; test
    /// harnesses use it (via
    /// [`Simulation::location_view`](crate::sim::Simulation::location_view))
    /// to assert that replicas converged to identical maps. Actors without
    /// a location map keep the default `None`.
    fn location_view(&self) -> Option<Vec<(u64, u32)>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_display() {
        let id = NodeId::from_raw(3);
        assert_eq!(id.as_raw(), 3);
        assert_eq!(id.to_string(), "n3");
        assert_eq!(NodeId::EXTERNAL.to_string(), "n(ext)");
    }

    #[test]
    fn node_ids_order_by_raw() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
        assert!(NodeId::EXTERNAL > NodeId::from_raw(1_000_000));
    }
}
