//! The deterministic simulation scheduler.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Ctx, Effect, NodeId};
use crate::event::{Control, EventKind, EventQueue, Handle};
use crate::hash::FastHashMap;
use crate::metrics::Metrics;
use crate::net::NetConfig;
use crate::time::{SimDuration, SimTime};

/// Configuration for a [`Simulation`].
///
/// # Example
///
/// ```
/// use dynastar_runtime::prelude::*;
///
/// let cfg = SimConfig::default().seed(7).net(NetConfig::default());
/// let sim: Simulation<u32> = Simulation::new(cfg);
/// assert_eq!(sim.now(), SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every per-node RNG and the network RNG derive from it.
    pub seed: u64,
    /// Network latency/loss model.
    pub net: NetConfig,
    /// Bucket width for implicitly created metric time series.
    pub metrics_bucket: SimDuration,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0, net: NetConfig::default(), metrics_bucket: SimDuration::from_secs(1) }
    }
}

impl SimConfig {
    /// Builder-style setter for the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Builder-style setter for the metrics time-series bucket width.
    pub fn metrics_bucket(mut self, bucket: SimDuration) -> Self {
        self.metrics_bucket = bucket;
        self
    }
}

struct NodeState<M> {
    name: String,
    actor: Box<dyn Actor<M>>,
    rng: StdRng,
    /// Seed of incarnation 0; restarts derive the next incarnation's RNG
    /// from it so recovery is deterministic but decorrelated.
    base_seed: u64,
    started: bool,
    crashed: bool,
    connected: bool,
    /// Bumped on every restart; 0 for the initial boot.
    incarnation: u64,
    /// Simulated stable storage: survives crash/restart, lost never.
    stable: Vec<u8>,
    /// Queue handle of each timer tag armed since the node last lost its
    /// timers. An entry may be stale (its timer fired);
    /// [`EventQueue::remove_timer`] checks the handle before removing.
    timers: FastHashMap<u64, Handle>,
}

/// An active [`Control::DegradeLink`] override on one directed link.
#[derive(Debug, Clone, Copy)]
struct LinkOverride {
    extra_delay: SimDuration,
    loss_pm: u32,
}

/// A deterministic discrete-event simulation of message-passing nodes.
///
/// Identical configuration and identical sequences of calls produce
/// identical executions; all randomness flows from [`SimConfig::seed`].
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulation<M> {
    config: SimConfig,
    now: SimTime,
    queue: EventQueue<M>,
    nodes: Vec<NodeState<M>>,
    /// Nodes whose `on_start` has not fired yet (a node crashed before its
    /// first event stays counted until it restarts), so the per-event
    /// [`Simulation::start_pending_nodes`] is a compare once all are up.
    unstarted: usize,
    metrics: Metrics,
    net_rng: StdRng,
    events_processed: u64,
    /// Events processed by kind: [deliveries, timers, control].
    events_by_kind: [u64; 3],
    /// Recycled effect buffer for [`Simulation::invoke`]; avoids a heap
    /// allocation per delivered event on the hot path.
    scratch_effects: Vec<Effect<M>>,
    /// Per-directed-link degradations (extra delay + loss). Consulted on
    /// every send only when non-empty; the extra loss draw happens only
    /// for overridden links, so runs without link faults consume exactly
    /// the same RNG stream as before the feature existed.
    link_overrides: BTreeMap<(NodeId, NodeId), LinkOverride>,
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation.
    pub fn new(config: SimConfig) -> Self {
        let net_rng =
            StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        let mut metrics = Metrics::new();
        metrics.set_default_bucket(config.metrics_bucket);
        Simulation {
            config,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            unstarted: 0,
            metrics,
            net_rng,
            events_processed: 0,
            events_by_kind: [0; 3],
            scratch_effects: Vec::new(),
            link_overrides: BTreeMap::new(),
        }
    }

    /// Adds a node running `actor` and returns its id.
    ///
    /// `on_start` fires (at the current simulated time) before the node's
    /// first message once the simulation runs.
    pub fn add_node(&mut self, name: impl Into<String>, actor: impl Actor<M>) -> NodeId {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        let seed = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(2 + id.as_raw() as u64);
        self.nodes.push(NodeState {
            name: name.into(),
            actor: Box::new(actor),
            rng: StdRng::seed_from_u64(seed),
            base_seed: seed,
            started: false,
            crashed: false,
            connected: true,
            incarnation: 0,
            stable: Vec::new(),
            timers: FastHashMap::default(),
        });
        self.unstarted += 1;
        id
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The name a node was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this simulation.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.as_raw() as usize].name
    }

    /// The node's view of the key→partition location map, if its actor
    /// maintains one (see [`Actor::location_view`]). Diagnostic only.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this simulation.
    pub fn location_view(&self, id: NodeId) -> Option<Vec<(u64, u32)>> {
        self.nodes[id.as_raw() as usize].actor.location_view()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events processed so far, split as `[deliveries, timers, control]` —
    /// the breakdown perf probes report alongside the total.
    pub fn events_by_kind(&self) -> [u64; 3] {
        self.events_by_kind
    }

    /// Read access to collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Write access to collected metrics (e.g. to reset after warm-up).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Injects a message to `to` from the pseudo-node
    /// [`NodeId::EXTERNAL`], delivered after the usual network latency.
    ///
    /// Useful for driving protocols from tests without a client actor.
    pub fn send_external(&mut self, to: NodeId, msg: M) {
        if let Some(lat) = self.sample_link(NodeId::EXTERNAL, to) {
            self.queue.push(self.now + lat, EventKind::Deliver { to, from: NodeId::EXTERNAL, msg });
        } else {
            self.metrics.incr_counter("net.dropped_sends", 1);
        }
    }

    /// Samples a one-way delivery latency for `from → to`, applying any
    /// active [`Control::DegradeLink`] override on top of the base network
    /// model. `None` means the message is lost.
    fn sample_link(&mut self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        let mut lat = self.config.net.sample_delivery(from, to, &mut self.net_rng)?;
        if !self.link_overrides.is_empty() {
            if let Some(o) = self.link_overrides.get(&(from, to)).copied() {
                if o.loss_pm > 0 && self.net_rng.gen_range(0..1_000_000u32) < o.loss_pm {
                    return None;
                }
                lat += o.extra_delay;
            }
        }
        Some(lat)
    }

    /// Schedules a crash of `node` at absolute time `at`. The crash is
    /// permanent unless a later [`Simulation::schedule_restart`] brings the
    /// node back.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.queue.push(at, EventKind::Control(Control::Crash(node)));
    }

    /// Schedules a disconnection of `node` at absolute time `at`.
    pub fn schedule_disconnect(&mut self, at: SimTime, node: NodeId) {
        self.queue.push(at, EventKind::Control(Control::Disconnect(node)));
    }

    /// Schedules a reconnection of `node` at absolute time `at`.
    pub fn schedule_reconnect(&mut self, at: SimTime, node: NodeId) {
        self.queue.push(at, EventKind::Control(Control::Reconnect(node)));
    }

    /// Schedules a restart of `node` at absolute time `at` (crash-recovery
    /// model; see [`Control::Restart`]).
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId) {
        self.queue.push(at, EventKind::Control(Control::Restart(node)));
    }

    /// Schedules a degradation of the directed link `from → to` at `at`:
    /// extra one-way latency plus extra loss in parts per million, layered
    /// on the base network model (see [`Control::DegradeLink`]).
    pub fn schedule_link_degrade(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        extra_delay: SimDuration,
        loss_pm: u32,
    ) {
        self.queue.push(
            at,
            EventKind::Control(Control::DegradeLink {
                from,
                to,
                extra_delay_us: extra_delay.as_micros(),
                loss_pm,
            }),
        );
    }

    /// Schedules removal of the `from → to` link override at `at`.
    pub fn schedule_link_repair(&mut self, at: SimTime, from: NodeId, to: NodeId) {
        self.queue.push(at, EventKind::Control(Control::RepairLink { from, to }));
    }

    /// Number of directed links currently degraded (test/debug aid).
    pub fn degraded_link_count(&self) -> usize {
        self.link_overrides.len()
    }

    /// Crashes `node` immediately.
    pub fn crash_now(&mut self, node: NodeId) {
        self.apply_control(Control::Crash(node));
    }

    /// Restarts `node` immediately (see [`Control::Restart`]).
    pub fn restart_now(&mut self, node: NodeId) {
        self.apply_control(Control::Restart(node));
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.as_raw() as usize].crashed
    }

    /// Whether `node` is currently connected to the network.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.nodes[node.as_raw() as usize].connected
    }

    /// How many times `node` has restarted (0 = initial incarnation).
    pub fn incarnation(&self, node: NodeId) -> u64 {
        self.nodes[node.as_raw() as usize].incarnation
    }

    fn apply_control(&mut self, c: Control) {
        match c {
            Control::Crash(n) => {
                let node = &mut self.nodes[n.as_raw() as usize];
                if !node.crashed {
                    node.crashed = true;
                    self.metrics.incr_counter("sim.crashes", 1);
                    self.drop_timers(n);
                }
            }
            Control::Restart(n) => self.perform_restart(n),
            Control::Disconnect(n) => {
                let node = &mut self.nodes[n.as_raw() as usize];
                if node.connected {
                    node.connected = false;
                    self.metrics.incr_counter("sim.disconnects", 1);
                }
            }
            Control::Reconnect(n) => {
                let node = &mut self.nodes[n.as_raw() as usize];
                if !node.connected {
                    node.connected = true;
                    self.metrics.incr_counter("sim.reconnects", 1);
                }
            }
            Control::DegradeLink { from, to, extra_delay_us, loss_pm } => {
                let o = LinkOverride {
                    extra_delay: SimDuration::from_micros(extra_delay_us),
                    loss_pm: loss_pm.min(1_000_000),
                };
                if self.link_overrides.insert((from, to), o).is_none() {
                    self.metrics.incr_counter("sim.link_degrades", 1);
                }
            }
            Control::RepairLink { from, to } => {
                if self.link_overrides.remove(&(from, to)).is_some() {
                    self.metrics.incr_counter("sim.link_repairs", 1);
                }
            }
        }
    }

    /// Brings a crashed node back up as a fresh incarnation: volatile
    /// state (pending timers, RNG stream) is discarded, the stable-storage
    /// blob survives, and the actor re-initializes in
    /// [`Actor::on_restart`]. Restarting a live node models a reboot and
    /// follows the same path.
    fn perform_restart(&mut self, n: NodeId) {
        let idx = n.as_raw() as usize;
        {
            let node = &mut self.nodes[idx];
            node.crashed = false;
            node.connected = true;
            if !node.started {
                node.started = true;
                self.unstarted -= 1;
            }
            node.incarnation += 1;
            let seed =
                node.base_seed.wrapping_add(node.incarnation.wrapping_mul(0xA076_1D64_78BD_642F));
            node.rng = StdRng::seed_from_u64(seed);
        }
        // No timer armed by the previous incarnation may fire.
        self.drop_timers(n);
        self.metrics.incr_counter("sim.restarts", 1);
        let blob = self.nodes[idx].stable.clone();
        self.invoke(idx, move |actor, ctx| actor.on_restart(ctx, &blob));
    }

    /// Removes every pending timer of `n` from the queue. The order of
    /// removal is not observable: it moves no other event's `(time, seq)`.
    #[expect(
        clippy::iter_over_hash_type,
        reason = "removal order is unobservable: it moves no other event's (time, seq)"
    )]
    fn drop_timers(&mut self, n: NodeId) {
        for (tag, handle) in self.nodes[n.as_raw() as usize].timers.drain() {
            self.queue.remove_timer(handle, n, tag);
        }
    }

    fn start_pending_nodes(&mut self) {
        if self.unstarted == 0 {
            return;
        }
        for idx in 0..self.nodes.len() {
            if !self.nodes[idx].started && !self.nodes[idx].crashed {
                self.nodes[idx].started = true;
                self.unstarted -= 1;
                self.invoke(idx, |actor, ctx| actor.on_start(ctx));
            }
        }
    }

    /// Runs one node callback and applies its effects.
    fn invoke(&mut self, idx: usize, f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>)) {
        // Re-entrancy (e.g. restart inside a callback) just sees an empty
        // scratch buffer and allocates; the common path recycles capacity.
        let mut effects: Vec<Effect<M>> = std::mem::take(&mut self.scratch_effects);
        {
            let node = &mut self.nodes[idx];
            let mut ctx = Ctx {
                node: NodeId::from_raw(idx as u32),
                now: self.now,
                rng: &mut node.rng,
                stable: &mut node.stable,
                metrics: &mut self.metrics,
                effects: &mut effects,
            };
            f(node.actor.as_mut(), &mut ctx);
        }
        let from = NodeId::from_raw(idx as u32);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    debug_assert!(
                        (to.as_raw() as usize) < self.nodes.len(),
                        "send to unknown node {to}"
                    );
                    let sender_connected = self.nodes[idx].connected;
                    let dest_connected =
                        self.nodes.get(to.as_raw() as usize).map(|n| n.connected).unwrap_or(false);
                    if !sender_connected || !dest_connected {
                        self.metrics.incr_counter("net.dropped_sends", 1);
                        continue;
                    }
                    if let Some(lat) = self.sample_link(from, to) {
                        self.queue.push(self.now + lat, EventKind::Deliver { to, from, msg });
                    } else {
                        self.metrics.incr_counter("net.dropped_sends", 1);
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    // Remove the replaced firing, then queue the new one:
                    // it takes the next seq like any push, so no other
                    // event's seq moves.
                    let timer = EventKind::Timer { node: from, tag };
                    match self.nodes[idx].timers.entry(tag) {
                        Entry::Occupied(mut armed) => {
                            self.queue.remove_timer(*armed.get(), from, tag);
                            armed.insert(self.queue.push(self.now + delay, timer));
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(self.queue.push(self.now + delay, timer));
                        }
                    }
                }
                Effect::CancelTimer { tag } => {
                    if let Some(handle) = self.nodes[idx].timers.remove(&tag) {
                        self.queue.remove_timer(handle, from, tag);
                    }
                }
            }
        }
        self.scratch_effects = effects;
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_pending_nodes();
        let Some(ev) = self.queue.pop() else { return false };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.events_processed += 1;
        match ev.kind {
            EventKind::Deliver { to, from, msg } => {
                self.events_by_kind[0] += 1;
                let idx = to.as_raw() as usize;
                if idx >= self.nodes.len() {
                    return true; // message to unknown node: drop
                }
                let node = &self.nodes[idx];
                if node.crashed || !node.connected {
                    return true;
                }
                self.invoke(idx, move |actor, ctx| actor.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, tag } => {
                self.events_by_kind[1] += 1;
                let idx = node.as_raw() as usize;
                debug_assert!(!self.nodes[idx].crashed, "a crash removes the node's timers");
                self.invoke(idx, move |actor, ctx| actor.on_timer(ctx, tag));
            }
            EventKind::Control(c) => {
                self.events_by_kind[2] += 1;
                self.apply_control(c);
            }
        }
        true
    }

    /// Runs until no events remain.
    ///
    /// # Panics
    ///
    /// Panics after 500 million events as a runaway-loop backstop (protocols
    /// with periodic timers never quiesce — use [`Simulation::run_until`]).
    pub fn run_until_quiescent(&mut self) {
        let mut processed: u64 = 0;
        while self.step() {
            processed += 1;
            assert!(processed < 500_000_000, "simulation did not quiesce");
        }
    }

    /// Runs until simulated time reaches `t` (events at exactly `t` are
    /// processed). Afterwards `now() == t` even if the queue drained early.
    pub fn run_until(&mut self, t: SimTime) {
        self.start_pending_nodes();
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Draws from the simulation-level RNG (for experiment harnesses that
    /// need randomness outside any node, e.g. choosing crash victims).
    pub fn harness_rng(&mut self) -> &mut StdRng {
        &mut self.net_rng
    }

    /// Deterministically derives a fresh seed for auxiliary generators.
    pub fn derive_seed(&mut self, stream: u64) -> u64 {
        self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ self.net_rng.gen::<u64>()
    }
}

impl<M: 'static> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LatencyModel;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    /// Echoes pings back as pongs.
    struct Echo;
    impl Actor<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    /// Sends `count` pings, one per pong received.
    struct Pinger {
        target: NodeId,
        count: u32,
        sent: u32,
    }
    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.sent = 1;
            ctx.send(self.target, Msg::Ping(1));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(n) = msg {
                let now = ctx.now();
                ctx.metrics_mut().incr_counter("pongs", 1);
                ctx.metrics_mut().record_series("pongs", now, 1.0);
                if n < self.count {
                    self.sent += 1;
                    ctx.send(self.target, Msg::Ping(n + 1));
                }
            }
        }
    }

    fn ping_pong_sim(seed: u64) -> Simulation<Msg> {
        let mut sim = Simulation::new(SimConfig::default().seed(seed));
        let echo = sim.add_node("echo", Echo);
        sim.add_node("pinger", Pinger { target: echo, count: 10, sent: 0 });
        sim
    }

    #[test]
    fn ping_pong_completes() {
        let mut sim = ping_pong_sim(1);
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("pongs"), 10);
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = ping_pong_sim(42);
        let mut b = ping_pong_sim(42);
        a.run_until_quiescent();
        b.run_until_quiescent();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ping_pong_sim(1);
        let mut b = ping_pong_sim(2);
        a.run_until_quiescent();
        b.run_until_quiescent();
        // Latencies are sampled, so total elapsed time should differ.
        assert_ne!(a.now(), b.now());
    }

    #[test]
    fn run_until_stops_at_target() {
        let mut sim = ping_pong_sim(1);
        let t = SimTime::from_micros(1_200);
        sim.run_until(t);
        assert_eq!(sim.now(), t);
        // Some but not all pongs have arrived with ~0.5ms RTT legs.
        let pongs = sim.metrics().counter("pongs");
        assert!(pongs < 10, "pongs = {pongs}");
    }

    #[test]
    fn late_and_crashed_before_start_nodes_are_still_started() {
        // The per-event start scan is skipped once every node is up; a
        // node added mid-run, or brought up by a restart instead of
        // `on_start`, must keep that count right.
        let mut sim = ping_pong_sim(1);
        let echo = NodeId::from_raw(0);
        sim.run_until(SimTime::from_micros(1_200));
        assert_eq!(sim.unstarted, 0);
        sim.add_node("late pinger", Pinger { target: echo, count: 10, sent: 0 });
        let stillborn = sim.add_node("stillborn", Echo);
        sim.crash_now(stillborn);
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("pongs"), 20, "the late node ran its on_start");
        assert_eq!(sim.unstarted, 1, "a crashed node waits for its restart");
        sim.restart_now(stillborn);
        assert_eq!(sim.unstarted, 0);
    }

    #[test]
    fn crashed_node_stops_responding() {
        let mut sim = ping_pong_sim(1);
        let echo = NodeId::from_raw(0);
        sim.schedule_crash(SimTime::from_micros(3_000), echo);
        sim.run_until_quiescent();
        assert!(sim.is_crashed(echo));
        assert!(sim.metrics().counter("pongs") < 10);
    }

    #[test]
    fn disconnect_then_reconnect_drops_only_in_between() {
        struct Beacon {
            peer: NodeId,
        }
        impl Actor<Msg> for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        struct Sink;
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
                ctx.metrics_mut().incr_counter("rx", 1);
            }
        }
        let mut sim =
            Simulation::new(SimConfig::default().seed(9).net(
                NetConfig::default().latency(LatencyModel::Fixed(SimDuration::from_micros(100))),
            ));
        let sink = sim.add_node("sink", Sink);
        sim.add_node("beacon", Beacon { peer: sink });
        sim.schedule_disconnect(SimTime::from_millis(10), sink);
        sim.schedule_reconnect(SimTime::from_millis(20), sink);
        sim.run_until(SimTime::from_millis(30));
        let rx = sim.metrics().counter("rx");
        // ~10 beacons before the gap, ~10 after, ~10 lost.
        assert!((15..=25).contains(&rx), "rx = {rx}");
    }

    #[test]
    fn timer_rearm_supersedes_pending_firing() {
        struct Rearm;
        impl Actor<Msg> for Rearm {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.set_timer(SimDuration::from_millis(5), 7); // supersedes
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
                assert_eq!(tag, 7);
                assert_eq!(ctx.now(), SimTime::from_millis(5));
                ctx.metrics_mut().incr_counter("fired", 1);
            }
        }
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_node("rearm", Rearm);
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("fired"), 1);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Cancel;
        impl Actor<Msg> for Cancel {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 3);
                ctx.cancel_timer(3);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.metrics_mut().incr_counter("fired", 1);
            }
        }
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_node("cancel", Cancel);
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("fired"), 0);
    }

    /// Ticks every millisecond, persisting the tick count to stable
    /// storage. Also tracks a deliberately volatile counter that is NOT
    /// persisted, to observe volatile-state loss across restarts.
    struct TickLogger {
        ticks: u32,
        volatile_ticks: u32,
    }
    impl TickLogger {
        fn arm(ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    impl Actor<Msg> for TickLogger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            Self::arm(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
            self.ticks += 1;
            self.volatile_ticks += 1;
            ctx.persist(&self.ticks.to_le_bytes());
            ctx.metrics_mut().incr_counter("ticks", 1);
            Self::arm(ctx);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>, stable: &[u8]) {
            self.ticks = match stable.try_into() {
                Ok(bytes) => u32::from_le_bytes(bytes),
                Err(_) => 0,
            };
            self.volatile_ticks = 0;
            ctx.metrics_mut().incr_counter("recovered_from", self.ticks as u64);
            Self::arm(ctx);
        }
    }

    #[test]
    fn restart_recovers_stable_state_and_loses_volatile_state() {
        let mut sim = Simulation::new(SimConfig::default().seed(3));
        let node = sim.add_node("ticker", TickLogger { ticks: 0, volatile_ticks: 0 });
        sim.schedule_crash(SimTime::from_millis(5) + SimDuration::from_micros(500), node);
        sim.schedule_restart(SimTime::from_millis(10), node);
        sim.run_until(SimTime::from_millis(20) + SimDuration::from_micros(500));
        assert!(!sim.is_crashed(node));
        assert_eq!(sim.incarnation(node), 1);
        // 5 ticks before the crash, none while down, ~10 after restart.
        assert_eq!(sim.metrics().counter("recovered_from"), 5);
        assert_eq!(sim.metrics().counter("ticks"), 15);
        assert_eq!(sim.metrics().counter("sim.crashes"), 1);
        assert_eq!(sim.metrics().counter("sim.restarts"), 1);
    }

    #[test]
    fn restart_invalidates_timers_from_previous_incarnation() {
        // A timer armed before the crash that would fire after the restart
        // must NOT fire: it belongs to the dead incarnation.
        struct OneShot;
        impl Actor<Msg> for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.metrics_mut().incr_counter("fired", 1);
            }
            fn on_restart(&mut self, _ctx: &mut Ctx<'_, Msg>, _stable: &[u8]) {
                // Recovery arms nothing, so the only way "fired" increments
                // is a leaked pre-crash timer.
            }
        }
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("oneshot", OneShot);
        sim.schedule_crash(SimTime::from_millis(2), node);
        sim.schedule_restart(SimTime::from_millis(5), node);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.metrics().counter("fired"), 0);
    }

    #[test]
    fn restart_runs_are_deterministic() {
        let run = || {
            let mut sim = Simulation::new(SimConfig::default().seed(11));
            let node = sim.add_node("ticker", TickLogger { ticks: 0, volatile_ticks: 0 });
            sim.schedule_crash(SimTime::from_millis(3), node);
            sim.schedule_restart(SimTime::from_millis(6), node);
            sim.run_until(SimTime::from_millis(15));
            (sim.events_processed(), sim.metrics().counter("ticks"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degraded_link_drops_and_delays_until_repair() {
        struct Beacon {
            peer: NodeId,
        }
        impl Actor<Msg> for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        struct Sink;
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
                ctx.metrics_mut().incr_counter("rx", 1);
            }
        }
        let mut sim =
            Simulation::new(SimConfig::default().seed(4).net(
                NetConfig::default().latency(LatencyModel::Fixed(SimDuration::from_micros(100))),
            ));
        let sink = sim.add_node("sink", Sink);
        let beacon = sim.add_node("beacon", Beacon { peer: sink });
        // Total loss on beacon → sink for 10 ms out of 30 ms.
        sim.schedule_link_degrade(
            SimTime::from_millis(10),
            beacon,
            sink,
            SimDuration::from_millis(2),
            1_000_000,
        );
        sim.schedule_link_repair(SimTime::from_millis(20), beacon, sink);
        sim.run_until(SimTime::from_millis(30));
        let rx = sim.metrics().counter("rx");
        assert!((15..=25).contains(&rx), "rx = {rx}");
        assert!(sim.metrics().counter("net.dropped_sends") >= 5);
        assert_eq!(sim.metrics().counter("sim.link_degrades"), 1);
        assert_eq!(sim.metrics().counter("sim.link_repairs"), 1);
        assert_eq!(sim.degraded_link_count(), 0);
    }

    #[test]
    fn link_override_is_asymmetric() {
        struct Echo2;
        impl Actor<Msg> for Echo2 {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
                if let Msg::Ping(n) = msg {
                    ctx.metrics_mut().incr_counter("echo_rx", 1);
                    ctx.send(from, Msg::Pong(n));
                }
            }
        }
        struct Caller {
            peer: NodeId,
        }
        impl Actor<Msg> for Caller {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
                if let Msg::Pong(_) = msg {
                    ctx.metrics_mut().incr_counter("caller_rx", 1);
                }
            }
        }
        let mut sim =
            Simulation::new(SimConfig::default().seed(5).net(
                NetConfig::default().latency(LatencyModel::Fixed(SimDuration::from_micros(100))),
            ));
        let echo = sim.add_node("echo", Echo2);
        sim.add_node("caller", Caller { peer: echo });
        // Kill only the echo → caller direction: pings still arrive,
        // pongs never do.
        let caller = NodeId::from_raw(1);
        sim.schedule_link_degrade(SimTime::ZERO, echo, caller, SimDuration::ZERO, 1_000_000);
        sim.run_until(SimTime::from_millis(20));
        assert!(sim.metrics().counter("echo_rx") >= 15);
        assert_eq!(sim.metrics().counter("caller_rx"), 0);
    }

    #[test]
    fn external_messages_reach_nodes() {
        struct Sink;
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, _msg: Msg) {
                assert_eq!(from, NodeId::EXTERNAL);
                ctx.metrics_mut().incr_counter("rx", 1);
            }
        }
        let mut sim = Simulation::new(SimConfig::default());
        let sink = sim.add_node("sink", Sink);
        sim.send_external(sink, Msg::Ping(0));
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("rx"), 1);
    }

    #[test]
    fn lossy_network_drops_messages() {
        let mut sim: Simulation<Msg> =
            Simulation::new(SimConfig::default().net(NetConfig::default().loss_probability(1.0)));
        struct Sink;
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
                ctx.metrics_mut().incr_counter("rx", 1);
            }
        }
        let sink = sim.add_node("sink", Sink);
        sim.send_external(sink, Msg::Ping(0));
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("rx"), 0);
    }

    #[test]
    fn rearming_a_far_timer_keeps_one_entry_and_a_cancel_leaves_none() {
        struct Rearm;
        impl Actor<Msg> for Rearm {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                for i in 0..100_000 {
                    ctx.set_timer(SimDuration::from_secs(10) + SimDuration::from_micros(i), 1);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
                ctx.cancel_timer(1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                ctx.metrics_mut().incr_counter("fired", 1);
            }
        }
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("rearm", Rearm);
        sim.start_pending_nodes();
        assert_eq!(sim.queue.len(), 1);
        sim.send_external(node, Msg::Ping(0));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.queue.len(), 0);
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("fired"), 0);
    }

    /// What a scripted node asks for in one callback.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Arm { tag: u64, delay_us: u64 },
        Cancel { tag: u64 },
        Send { to: u32, id: u32 },
    }

    const SCRIPT_NODES: u32 = 4;
    const SCRIPT_LATENCY_US: u64 = 100;

    /// A node's script: a xorshift stream per node, so the reference below
    /// can replay exactly what the actor asks for, in the same order.
    #[derive(Debug, Clone)]
    struct Script {
        node: u32,
        state: u64,
        sent: u32,
    }

    impl Script {
        fn new(node: u32, seed: u64) -> Self {
            let state = (seed << 8 | node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            Script { node, state, sent: 0 }
        }

        fn draw(&mut self) -> u64 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            self.state
        }

        fn arm(&mut self) -> Op {
            // Near (the wheel), a few wheel spans out, and far (the heap).
            let delay_us = match self.draw() % 3 {
                0 => self.draw() % 50,
                1 => self.draw() % 3_000,
                _ => 5_000 + self.draw() % 20_000,
            };
            Op::Arm { tag: self.draw() % 4, delay_us }
        }

        /// Up to two random ops, then an arm, so a live node always has a
        /// timer pending.
        fn ops(&mut self) -> Vec<Op> {
            let mut ops: Vec<Op> = (0..self.draw() % 3)
                .map(|_| match self.draw() % 6 {
                    0 | 1 => self.arm(),
                    2 | 3 => Op::Cancel { tag: self.draw() % 4 },
                    _ => {
                        let to = (self.node + 1 + (self.draw() % 3) as u32) % SCRIPT_NODES;
                        self.sent += 1;
                        Op::Send { to, id: self.node << 24 | self.sent }
                    }
                })
                .collect();
            ops.push(self.arm());
            ops
        }
    }

    /// What a callback ran for: `Ok(tag)` for a timer, `Err((from, id))`
    /// for a delivery.
    type Cause = Result<u64, (u32, u32)>;

    /// A callback a node ran: `(time, seq, node, cause)`.
    type Fired = (u64, u64, u32, Cause);

    struct Scripted {
        script: Script,
        log: std::rc::Rc<std::cell::RefCell<Vec<(u32, Cause)>>>,
    }

    impl Scripted {
        fn act(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for op in self.script.ops() {
                match op {
                    Op::Arm { tag, delay_us } => {
                        ctx.set_timer(SimDuration::from_micros(delay_us), tag)
                    }
                    Op::Cancel { tag } => ctx.cancel_timer(tag),
                    Op::Send { to, id } => ctx.send(NodeId::from_raw(to), Msg::Ping(id)),
                }
            }
        }
    }

    impl Actor<Msg> for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.act(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            let Msg::Ping(id) = msg else { return };
            self.log.borrow_mut().push((self.script.node, Err((from.as_raw(), id))));
            self.act(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.log.borrow_mut().push((self.script.node, Ok(tag)));
            self.act(ctx);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>, _stable: &[u8]) {
            self.act(ctx);
        }
    }

    /// The scheduler as it was before timers could be removed: one heap
    /// ordered by `(time, seq)`, a generation per `(node, tag)` bumped by
    /// every re-arm, cancel and restart, and stale or crashed firings
    /// popped and skipped.
    #[derive(Debug, Clone, Copy)]
    enum RefKind {
        Deliver { from: u32, to: u32, id: u32 },
        Timer { node: u32, tag: u64, gen: u64 },
        Crash(u32),
        Restart(u32),
    }

    struct Reference {
        queue: BTreeMap<(u64, u64), RefKind>,
        next_seq: u64,
        gens: Vec<BTreeMap<u64, u64>>,
        crashed: Vec<bool>,
        scripts: Vec<Script>,
        now: u64,
        /// Timers popped and skipped: the entries the new queue removes.
        skipped: usize,
    }

    impl Reference {
        fn push(&mut self, at: u64, kind: RefKind) {
            self.queue.insert((at, self.next_seq), kind);
            self.next_seq += 1;
        }

        fn act(&mut self, node: u32) {
            for op in self.scripts[node as usize].ops() {
                let gens = &mut self.gens[node as usize];
                match op {
                    Op::Arm { tag, delay_us } => {
                        let gen = *gens.entry(tag).and_modify(|g| *g += 1).or_insert(0);
                        self.push(self.now + delay_us, RefKind::Timer { node, tag, gen });
                    }
                    Op::Cancel { tag } => {
                        gens.entry(tag).and_modify(|g| *g += 1).or_insert(0);
                    }
                    Op::Send { to, id } => self.push(
                        self.now + SCRIPT_LATENCY_US,
                        RefKind::Deliver { from: node, to, id },
                    ),
                }
            }
        }

        /// Events that will still run: no stale timer, no crashed node's.
        fn live(&self) -> usize {
            let current = |&(_, kind): &(&(u64, u64), &RefKind)| match *kind {
                RefKind::Timer { node, tag, gen } => {
                    !self.crashed[node as usize] && self.gens[node as usize].get(&tag) == Some(&gen)
                }
                _ => true,
            };
            self.queue.iter().filter(current).count()
        }

        /// Pops until something fires or `end` passes.
        fn next(&mut self, end: u64) -> Option<Fired> {
            while let Some(((t, seq), kind)) = self.queue.pop_first() {
                if t > end {
                    return None;
                }
                self.now = t;
                match kind {
                    RefKind::Deliver { from, to, id } if !self.crashed[to as usize] => {
                        self.act(to);
                        return Some((t, seq, to, Err((from, id))));
                    }
                    RefKind::Timer { node, tag, gen }
                        if !self.crashed[node as usize]
                            && self.gens[node as usize].get(&tag) == Some(&gen) =>
                    {
                        self.act(node);
                        return Some((t, seq, node, Ok(tag)));
                    }
                    RefKind::Crash(n) => self.crashed[n as usize] = true,
                    RefKind::Restart(n) => {
                        self.crashed[n as usize] = false;
                        self.gens[n as usize].values_mut().for_each(|g| *g += 1);
                        self.act(n);
                    }
                    RefKind::Timer { .. } => self.skipped += 1,
                    RefKind::Deliver { .. } => {}
                }
            }
            None
        }
    }

    /// Random arm, re-arm, cancel, crash and restart against the
    /// generation-tombstone reference: the same `(time, seq, node, tag)`
    /// firings, the same deliveries, and no entry in the queue the
    /// reference would skip.
    #[test]
    fn removable_timers_fire_as_generation_tombstones_did() {
        const END_US: u64 = 500_000;
        for seed in 0..16 {
            let net = NetConfig::default()
                .latency(LatencyModel::Fixed(SimDuration::from_micros(SCRIPT_LATENCY_US)));
            let mut sim = Simulation::new(SimConfig::default().seed(seed).net(net));
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut reference = Reference {
                queue: BTreeMap::new(),
                next_seq: 0,
                gens: vec![BTreeMap::new(); SCRIPT_NODES as usize],
                crashed: vec![false; SCRIPT_NODES as usize],
                scripts: (0..SCRIPT_NODES).map(|n| Script::new(n, seed)).collect(),
                now: 0,
                skipped: 0,
            };
            for n in 0..SCRIPT_NODES {
                let script = Script::new(n, seed);
                sim.add_node(format!("s{n}"), Scripted { script, log: std::rc::Rc::clone(&log) });
            }
            // Crash-restart waves; some restart a live node (a reboot).
            let mut faults = Script::new(SCRIPT_NODES, seed);
            for _ in 0..6 {
                let node = (faults.draw() % SCRIPT_NODES as u64) as u32;
                let at = faults.draw() % END_US;
                let back = at + faults.draw() % 20_000;
                if !faults.draw().is_multiple_of(3) {
                    sim.schedule_crash(SimTime::from_micros(at), NodeId::from_raw(node));
                    reference.push(at, RefKind::Crash(node));
                }
                sim.schedule_restart(SimTime::from_micros(back), NodeId::from_raw(node));
                reference.push(back, RefKind::Restart(node));
            }
            sim.start_pending_nodes();
            for n in 0..SCRIPT_NODES {
                reference.act(n);
            }
            let mut fired = 0;
            while let Some((t, seq)) = sim.queue.peek_key() {
                if t.as_micros() > END_US {
                    break;
                }
                let before = log.borrow().len();
                sim.step();
                let ran: Vec<_> = log.borrow()[before..].to_vec();
                assert!(ran.len() <= 1);
                if let Some(&(node, what)) = ran.first() {
                    let got = (t.as_micros(), seq, node, what);
                    assert_eq!(Some(got), reference.next(END_US), "seed {seed}, firing {fired}");
                    fired += 1;
                    assert_eq!(sim.queue.len(), reference.live(), "seed {seed}, firing {fired}");
                }
            }
            assert_eq!(reference.next(END_US), None, "seed {seed}: the reference fired more");
            assert!(fired > 1_000, "seed {seed}: only {fired} firings");
            assert!(reference.skipped > 100, "seed {seed}: {} tombstones", reference.skipped);
            assert!(sim.metrics().counter("sim.restarts") > 0);
        }
    }
}
