//! The simulated deployment: actors that put the sans-io state machines
//! on the simulation runtime — the FIFO/ARQ transport (`transport.rs`),
//! the timers and the stable-storage blob around a `ReplicaHost`
//! (`host.rs`); the workload loop around a `ClientCore` (`client.rs`),
//! which arms its own response timeout — and the builder and handle for a
//! complete cluster.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use dynastar_paxos::Ballot;
use dynastar_runtime::{Actor, Ctx, Metrics, NodeId, SimConfig, SimDuration, SimTime, Simulation};

use crate::client::{ClientCore, LocationCache, Workload};
use crate::command::{Application, LocKey, PartitionId, VarId};
use crate::deploy::{build_hosts, client_cache};
use crate::host::{unwrap_released, Port, ReplicaHost, RouteTable, TICK};
use crate::transport::Wiring;

pub use crate::deploy::ClusterConfig;
pub use crate::host::{Inner, LocationView, RecoveryMsg, RecoveryPayload};
pub use crate::transport::{Frame, Holes, Msg};

/// Timer tags used by the actors.
mod timer {
    /// Periodic multicast/consensus tick.
    pub const TICK: u64 = 1;
    /// Oracle plan-compute completion.
    pub const PLAN: u64 = 2;
    /// Client response timeout (a client's retry timer).
    pub const TIMEOUT: u64 = 3;
    /// Client initial-issue stagger.
    pub const START: u64 = 4;
    /// Partition modelled-CPU wake-up.
    pub const WAKE: u64 = 5;
    /// Transport retransmission check (clients; servers piggyback on TICK).
    pub const RETX: u64 = 6;
    /// Recovery snapshot-request retry (restarted/lagging replicas; a
    /// replica's retry timer).
    pub const RECOVER: u64 = 7;
    /// Client retry-backoff wake-up (deferred stale-routing retry; a
    /// client's wake timer).
    pub const BACKOFF: u64 = 8;
    /// Client think-time wake-up (paced workloads; see
    /// [`crate::Workload::think_time`]).
    pub const THINK: u64 = 9;
}

/// The simulator's [`Port`]: bodies leave through the node's [`Wiring`],
/// timers are simulation timers, the clock, registry and stable storage
/// are the `Ctx`'s.
struct SimPort<'a, 'c, A: Application> {
    wiring: &'a mut Wiring<A>,
    ctx: &'a mut Ctx<'c, Msg<A>>,
    /// The tag of the wake timer: [`timer::WAKE`] at replicas,
    /// [`timer::BACKOFF`] at clients.
    wake: u64,
    /// The tag of the retry timer: [`timer::RECOVER`] at replicas,
    /// [`timer::TIMEOUT`] at clients.
    retry: u64,
    /// The incarnation a persisted promise is stored with (clients never
    /// persist).
    epoch: u64,
}

impl<A: Application> Port<A> for SimPort<'_, '_, A> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.ctx.metrics_mut()
    }

    fn send(&mut self, to: NodeId, body: Arc<Inner<A>>) {
        self.wiring.send(self.ctx, to, body);
    }

    fn arm_plan(&mut self, after: SimDuration) {
        self.ctx.set_timer(after, timer::PLAN);
    }

    fn arm_wake(&mut self, at: SimTime) {
        let delay = at.saturating_duration_since(self.ctx.now());
        self.ctx.set_timer(delay, self.wake);
    }

    fn arm_retry(&mut self, after: Option<SimDuration>) {
        match after {
            Some(after) => self.ctx.set_timer(after, self.retry),
            None => self.ctx.cancel_timer(self.retry),
        }
    }

    fn persist(&mut self, promised: Ballot) {
        self.ctx.persist(&encode_stable(promised, self.epoch));
    }
}

/// Encodes the consensus-critical stable-storage blob: the promised ballot
/// (Paxos safety requires it to survive crashes) and the incarnation epoch
/// (transport stream identity). 24 bytes little-endian:
/// `[promised.round][promised.owner][epoch]`.
fn encode_stable(promised: Ballot, epoch: u64) -> [u8; 24] {
    let mut b = [0u8; 24];
    b[0..8].copy_from_slice(&promised.round.to_le_bytes());
    b[8..16].copy_from_slice(&(promised.owner as u64).to_le_bytes());
    b[16..24].copy_from_slice(&epoch.to_le_bytes());
    b
}

/// Decodes [`encode_stable`]'s blob; an empty/foreign blob reads as a
/// first boot (initial ballot, epoch 0).
fn decode_stable(blob: &[u8]) -> (Ballot, u64) {
    if blob.len() != 24 {
        return (Ballot::INITIAL, 0);
    }
    let mut words = blob.chunks_exact(8).map(|c| {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        u64::from_le_bytes(w)
    });
    match (words.next(), words.next(), words.next()) {
        (Some(round), Some(owner), Some(epoch)) => (Ballot { round, owner: owner as usize }, epoch),
        // Unreachable given the length guard above, but a garbled blob
        // must read as first boot, never panic the replica.
        _ => (Ballot::INITIAL, 0),
    }
}

/// A replica actor: a `ReplicaHost` (which runs crash recovery; see its
/// docs) on the simulated transport, with its timers and the incarnation
/// epoch that goes to stable storage next to the host's promise.
pub(crate) struct ServerActor<A: Application> {
    host: ReplicaHost<A>,
    wiring: Wiring<A>,
    /// Incarnation epoch (0 at first boot, +1 per restart; persisted).
    epoch: u64,
    /// Released frame bodies of the message being handled (reused buffer).
    inbox: Vec<Arc<Inner<A>>>,
}

impl<A: Application> ServerActor<A> {
    fn new(host: ReplicaHost<A>) -> Self {
        ServerActor { host, wiring: Wiring::new(0), epoch: 0, inbox: Vec::new() }
    }

    /// Runs one host call with this node's port.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, Msg<A>>,
        call: impl FnOnce(&mut ReplicaHost<A>, &mut SimPort<'_, '_, A>),
    ) {
        let (wiring, epoch) = (&mut self.wiring, self.epoch);
        let port = &mut SimPort { wiring, ctx, wake: timer::WAKE, retry: timer::RECOVER, epoch };
        call(&mut self.host, port);
    }
}

impl<A: Application> Actor<Msg<A>> for ServerActor<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        ctx.set_timer(TICK, timer::TICK);
        self.drive(ctx, |host, port| host.on_start(port));
    }

    /// Diagnostic convergence probe: partitions report their owned keys,
    /// oracle replicas their key→partition map, a recovering replica
    /// `None`.
    fn location_view(&self) -> Option<LocationView> {
        self.host.location_view()
    }

    /// Crash-recovery boot: the transport streams are re-created empty
    /// under a bumped incarnation epoch, and the host recovers over the
    /// consensus floor read back from stable storage.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg<A>>, stable: &[u8]) {
        let (floor, old_epoch) = decode_stable(stable);
        self.epoch = old_epoch + 1;
        self.wiring = Wiring::new(self.epoch);
        ctx.set_timer(TICK, timer::TICK);
        self.drive(ctx, |host, port| host.on_restart(floor, port));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<A>>, from: NodeId, msg: Msg<A>) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.wiring.receive(ctx, from, msg, &mut inbox);
        self.drive(ctx, |host, port| host.on_bodies(from, inbox.drain(..), port));
        self.inbox = inbox;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<A>>, tag: u64) {
        match tag {
            timer::TICK => {
                self.drive(ctx, |host, port| host.on_tick(port));
                self.wiring.maintain(ctx);
                ctx.set_timer(TICK, timer::TICK);
            }
            timer::RECOVER => self.drive(ctx, |host, port| host.on_retry(port)),
            timer::PLAN => self.drive(ctx, |host, port| host.on_plan_timer(port)),
            timer::WAKE => self.drive(ctx, |host, port| host.on_wake(port)),
            _ => {}
        }
    }
}

/// A closed-loop client actor: a `ClientCore` (`client.rs`) on the simulated
/// transport, driving a [`Workload`].
pub struct ClientActor<A: Application, W: Workload<A>> {
    client: ClientCore<A>,
    workload: W,
    wiring: Wiring<A>,
    /// Uniform random delay before the first command, to de-synchronize
    /// client start-up.
    start_jitter: SimDuration,
    /// Set when the workload returns `None`.
    done: bool,
    /// Released frame bodies of the message being handled (reused buffer).
    inbox: Vec<Arc<Inner<A>>>,
}

impl<A: Application, W: Workload<A>> ClientActor<A, W> {
    /// Runs one client call with this node's port.
    fn drive<R>(
        &mut self,
        ctx: &mut Ctx<'_, Msg<A>>,
        call: impl FnOnce(&mut ClientCore<A>, &mut SimPort<'_, '_, A>) -> R,
    ) -> R {
        let wiring = &mut self.wiring;
        let port =
            &mut SimPort { wiring, ctx, wake: timer::BACKOFF, retry: timer::TIMEOUT, epoch: 0 };
        call(&mut self.client, port)
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        if self.done || self.client.is_busy() {
            return;
        }
        match self.workload.next_command(ctx.now(), ctx.rng()) {
            Some(kind) => self.drive(ctx, |client, port| client.issue(kind, port)),
            None => self.done = true,
        }
    }
}

impl<A: Application, W: Workload<A>> Actor<Msg<A>> for ClientActor<A, W> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        ctx.set_timer(self.start_jitter, timer::START);
        ctx.set_timer(SimDuration::from_millis(100), timer::RETX);
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<A>>, from: NodeId, msg: Msg<A>) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.wiring.receive(ctx, from, msg, &mut inbox);
        for body in inbox.drain(..) {
            let Inner::Direct(d) = unwrap_released(body) else { continue };
            let Some(done) = self.drive(ctx, |client, port| client.on_direct(d, port)) else {
                continue;
            };
            let now = ctx.now();
            let reply = if done.ok { done.reply.as_ref() } else { None };
            self.workload.on_completed(now, &done.cmd, reply);
            let think = self.workload.think_time(now, ctx.rng());
            if think == SimDuration::ZERO {
                self.issue_next(ctx);
            } else {
                ctx.set_timer(think, timer::THINK);
            }
        }
        self.inbox = inbox;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<A>>, tag: u64) {
        match tag {
            timer::START | timer::THINK => self.issue_next(ctx),
            timer::TIMEOUT => self.drive(ctx, |client, port| client.on_timeout(port)),
            timer::BACKOFF => self.drive(ctx, |client, port| client.on_backoff(port)),
            timer::RETX => {
                self.wiring.maintain(ctx);
                ctx.set_timer(SimDuration::from_millis(100), timer::RETX);
            }
            _ => {}
        }
    }
}

/// Builder for a complete simulated deployment.
///
/// # Example
///
/// See `examples/quickstart.rs`, or the crate-level docs.
pub struct ClusterBuilder<A: Application> {
    config: ClusterConfig,
    placement: BTreeMap<LocKey, PartitionId>,
    initial_vars: Vec<(VarId, A::Value)>,
}

impl<A: Application> ClusterBuilder<A> {
    /// Starts a builder from a config.
    pub fn new(config: ClusterConfig) -> Self {
        ClusterBuilder { config, placement: BTreeMap::new(), initial_vars: Vec::new() }
    }

    /// Places `key` on `partition` at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn place(&mut self, key: LocKey, partition: PartitionId) -> &mut Self {
        assert!(partition.0 < self.config.partitions, "partition {partition} out of range");
        self.placement.insert(key, partition);
        self
    }

    /// Adds an initial variable (its key must have been [placed](Self::place)).
    pub fn with_var(&mut self, var: VarId, value: A::Value) -> &mut Self {
        self.initial_vars.push((var, value));
        self
    }

    /// Bulk variant of [`Self::with_var`].
    pub fn with_vars(&mut self, vars: impl IntoIterator<Item = (VarId, A::Value)>) -> &mut Self {
        self.initial_vars.extend(vars);
        self
    }

    /// Assembles the cluster: spawns oracle and partition replicas,
    /// preloads state, and returns the handle clients are added to.
    ///
    /// # Panics
    ///
    /// Panics if an initial variable's key has no placement.
    pub fn build(&mut self) -> Cluster<A> {
        let cfg = self.config.clone();
        let mut sim: Simulation<Msg<A>> =
            Simulation::new(SimConfig::default().seed(cfg.seed).net(cfg.net.clone()));
        let vars = std::mem::take(&mut self.initial_vars);
        let (routes, hosts) = build_hosts(&cfg, &self.placement, vars);
        for host in hosts {
            let (me, r) = (host.me(), host.me().index);
            // The single-shard name stays `oracle-r{r}`: node names feed
            // nothing deterministic, but diffable traces are nice.
            let name = match me.group.0.checked_sub(cfg.partitions) {
                None => format!("p{}r{r}", me.group.0),
                Some(_) if cfg.oracle_shards == 1 => format!("oracle-r{r}"),
                Some(s) => format!("oracle-s{s}r{r}"),
            };
            let id = sim.add_node(name, ServerActor::new(host));
            debug_assert_eq!(id, routes.node_of(me));
        }
        let client_cache = client_cache(&cfg, &self.placement);
        Cluster { sim, routes, config: cfg, client_cache, clients: Vec::new() }
    }
}

/// A running simulated deployment: the simulation, its replicas, and the
/// clients added so far.
pub struct Cluster<A: Application> {
    /// The underlying simulation (exposed for metrics and time control).
    pub sim: Simulation<Msg<A>>,
    routes: Arc<RouteTable>,
    /// The configuration the cluster was built with.
    pub config: ClusterConfig,
    /// What each new client's location cache starts as.
    client_cache: LocationCache,
    clients: Vec<NodeId>,
}

impl<A: Application> Cluster<A> {
    /// Starts a builder.
    pub fn builder(config: ClusterConfig) -> ClusterBuilder<A> {
        ClusterBuilder::new(config)
    }

    /// Adds a closed-loop client driving `workload`. Returns its node id.
    pub fn add_client(&mut self, workload: impl Workload<A>) -> NodeId {
        let idx = self.clients.len();
        // Pre-compute the id the simulation will assign.
        let id = NodeId::from_raw(self.sim.node_count() as u32);
        let jitter_us = 1 + (idx as u64 * 137) % 5_000;
        let routes = Arc::clone(&self.routes);
        let actor = ClientActor {
            client: ClientCore::new(id, &self.config, &self.client_cache, routes),
            workload,
            wiring: Wiring::new(0),
            start_jitter: SimDuration::from_micros(jitter_us),
            done: false,
            inbox: Vec::new(),
        };
        let assigned = self.sim.add_node(format!("client{idx}"), actor);
        debug_assert_eq!(assigned, id);
        self.clients.push(assigned);
        assigned
    }

    /// Node ids of all clients.
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// Node ids of every replica group: partitions `0..k`, then the
    /// oracle shard groups in shard order. Fault-injection harnesses use
    /// these as fault domains (at most a minority of each group may be
    /// down at once).
    pub fn groups(&self) -> &[Vec<NodeId>] {
        self.routes.groups()
    }

    /// Runs the simulation for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Runs the simulation until absolute time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Every replica's view of the key→partition location map, grouped as
    /// the cluster's groups (partitions `0..k`, then the oracle shard
    /// groups): one `Option<Vec<(key, partition)>>` per replica, `None`
    /// for a replica still recovering. Partitions report the keys they
    /// own; an oracle replica reports its shard's owned slice (the full
    /// map with one shard). Convergence tests assert that all replicas of
    /// a group agree and that the union of the partition views equals the
    /// union of the shard views.
    pub fn location_views(&self) -> Vec<Vec<Option<LocationView>>> {
        self.groups()
            .iter()
            .map(|group| group.iter().map(|&n| self.sim.location_view(n)).collect())
            .collect()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Mutable metrics (e.g. reset after warm-up).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        self.sim.metrics_mut()
    }
}

impl<A: Application> std::fmt::Debug for Cluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("partitions", &self.config.partitions)
            .field("replicas", &self.config.replicas)
            .field("mode", &self.config.mode)
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandKind;
    use crate::metric_names;
    use crate::oracle::PLANNER_VERTICES;
    use crate::payload::PAYLOAD_CLONES;
    use crate::server::ServerConfig;
    use crate::server::{CHUNK_SENDS, HINTS_SENT};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Counters keyed ten to a locality key; an access bumps what it names.
    struct Bank;

    impl Application for Bank {
        type Op = ();
        type Value = u64;
        type Reply = ();

        fn locality(var: VarId) -> LocKey {
            LocKey(var.0 / 10)
        }

        fn execute(_: &(), vars: &mut BTreeMap<VarId, Option<u64>>) {
            for val in vars.values_mut() {
                *val = Some(val.unwrap_or(0) + 1);
            }
        }
    }

    /// Pairs of neighbouring keys, so the workload graph has edges to cut.
    struct Pairs;

    impl Workload<Bank> for Pairs {
        fn next_command(&mut self, _: SimTime, rng: &mut StdRng) -> Option<CommandKind<Bank>> {
            let key = rng.gen_range(0..8u64) & !1;
            Some(CommandKind::Access { op: (), vars: vec![VarId(key * 10), VarId(key * 10 + 10)] })
        }
    }

    #[test]
    fn the_stable_blob_round_trips_and_any_other_length_is_a_first_boot() {
        let (promised, epoch) = (Ballot { round: u64::MAX - 1, owner: usize::MAX - 2 }, u64::MAX);
        let blob = encode_stable(promised, epoch);
        assert_eq!(decode_stable(&blob), (promised, epoch));
        let small = encode_stable(Ballot { round: 1, owner: 2 }, 3);
        assert_eq!((small[0], small[8], small[16]), (1, 2, 3), "little-endian words in order");
        let long = [blob.as_slice(), &[0]].concat();
        for other in [&[][..], &blob[..23], &long] {
            assert_eq!(decode_stable(other), (Ballot::INITIAL, 0), "{} bytes", other.len());
        }
    }

    /// Hints, the plan they trigger and the migrations it causes reach
    /// three replicas of three groups each — and nobody copies a payload:
    /// every replica reads the one the multicast layer holds.
    #[test]
    fn delivery_never_copies_a_payload() {
        let mut config = ClusterConfig {
            partitions: 2,
            replicas: 3,
            repartition_threshold: 40,
            min_plan_interval: SimDuration::from_millis(200),
            ..ClusterConfig::default()
        };
        config.server.hint_batch = 8;
        let mut builder = ClusterBuilder::<Bank>::new(config);
        for key in 0..8 {
            // Neighbours start apart: every command is multi-partition.
            builder.place(LocKey(key), PartitionId((key / 2 % 2) as u32));
        }
        builder.with_vars((0..80).map(|v| (VarId(v), 0)));
        let mut cluster = builder.build();
        for _ in 0..4 {
            cluster.add_client(Pairs);
        }
        PAYLOAD_CLONES.set(0);
        cluster.run_for(SimDuration::from_secs(2));
        let metrics = cluster.metrics();
        assert!(metrics.counter(metric_names::PLANS_PUBLISHED) >= 1, "no plan: nothing was hinted");
        assert!(metrics.counter(metric_names::CMD_COMPLETED) > 100);
        assert_eq!(PAYLOAD_CLONES.get(), 0, "a delivered payload was deep-copied");
    }

    /// Hints feed the plan and nothing else. A deployment that can never
    /// plan — one partition, or a threshold of `u64::MAX` — multicasts no
    /// hint and its planner's graph stays empty; with a reachable
    /// threshold on two partitions they flow to the planner, however many
    /// oracle shards serve queries.
    #[test]
    fn only_a_deployment_that_can_plan_collects_hints() {
        let run = |partitions: u32, repartition_threshold, oracle_shards| {
            let mut config = ClusterConfig {
                partitions,
                replicas: 3,
                repartition_threshold,
                oracle_shards,
                min_plan_interval: SimDuration::from_millis(200),
                ..ClusterConfig::default()
            };
            config.server.hint_batch = 8;
            let mut builder = ClusterBuilder::<Bank>::new(config);
            for key in 0..8 {
                builder.place(LocKey(key), PartitionId((key / 2) as u32 % partitions));
            }
            builder.with_vars((0..80).map(|v| (VarId(v), 0)));
            let mut cluster = builder.build();
            for _ in 0..4 {
                cluster.add_client(Pairs);
            }
            HINTS_SENT.set(0);
            PLANNER_VERTICES.set(0);
            cluster.run_for(SimDuration::from_secs(1));
            assert!(cluster.metrics().counter(metric_names::CMD_COMPLETED) > 100);
            (HINTS_SENT.get(), PLANNER_VERTICES.get())
        };
        assert_eq!(run(1, 40, 1), (0, 0), "one partition");
        assert_eq!(run(2, u64::MAX, 1), (0, 0), "an unreachable threshold");
        for shards in [1, 4] {
            let (sent, vertices) = run(2, 40, shards);
            assert!(sent > 0 && vertices > 0, "{shards} shards: {sent} hints, {vertices} vertices");
        }
    }

    /// Every even key with its odd neighbour, which starts on the other
    /// partition: the first plan moves one key of most pairs.
    struct Neighbours(u64);

    impl Workload<Bank> for Neighbours {
        fn next_command(&mut self, _: SimTime, rng: &mut StdRng) -> Option<CommandKind<Bank>> {
            let key = rng.gen_range(0..self.0) & !1;
            Some(CommandKind::Access { op: (), vars: vec![VarId(key * 10), VarId(key * 10 + 10)] })
        }
    }

    /// A recovering replica installs a *donor's* core. What is the
    /// replica's own — here its stripe of the migration send order — must
    /// not come along, or two replicas push one stripe and nobody the
    /// third until it is stolen.
    #[test]
    fn a_recovered_source_replica_resumes_its_own_stripe() {
        const KEYS: u64 = 240;
        let mut config = ClusterConfig {
            partitions: 2,
            replicas: 3,
            repartition_threshold: 400,
            min_plan_interval: SimDuration::from_secs(2),
            warm_client_caches: true,
            ..ClusterConfig::default()
        };
        config.server = ServerConfig {
            hint_batch: 8,
            staged_migration: true,
            // 62 ms a key: the plan keeps every source link busy for over
            // a second, the crash and the recovery fall well inside it.
            migration_var_bytes: 64 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: 8,
            ..ServerConfig::default()
        };
        let mut builder = ClusterBuilder::<Bank>::new(config);
        for key in 0..KEYS {
            builder.place(LocKey(key), PartitionId((key % 2) as u32));
        }
        builder.with_vars((0..KEYS).map(|key| (VarId(key * 10), 0)));
        let mut cluster = builder.build();
        for _ in 0..4 {
            cluster.add_client(Neighbours(KEYS));
        }
        let sends = || CHUNK_SENDS.with_borrow(|log| log.clone());
        CHUNK_SENDS.take();
        while sends().is_empty() {
            cluster.run_for(SimDuration::from_millis(1));
            assert!(cluster.sim.now() < SimTime::from_secs(20), "no plan staged a key");
        }
        // Replica 1 of the first partition to send goes down mid-stripe.
        let source = sends()[0].0;
        let victim = cluster.groups()[source.0 as usize][1];
        cluster.run_for(SimDuration::from_millis(100));
        cluster.sim.crash_now(victim);
        cluster.run_for(SimDuration::from_millis(100));
        let before = sends().len();
        cluster.sim.restart_now(victim);
        cluster.run_for(SimDuration::from_millis(400));
        assert_eq!(cluster.metrics().counter(metric_names::RECOVERY_COMPLETIONS), 1);

        // What replica 1 of the source sent since it came back: with the
        // donor's identity there is nothing under its own index. Keys of
        // other stripes in between are pulled ones — demand goes first on
        // every replica.
        let resumed: Vec<LocKey> =
            sends()[before..].iter().filter(|s| (s.0, s.1) == (source, 1)).map(|s| s.2).collect();
        let own = resumed.iter().filter(|&&k| crate::routing::shard_of(k, 3) == 1).count();
        assert!(own >= 3 && own * 2 > resumed.len(), "replica 1 resumes its stripe: {resumed:?}");
        assert_eq!(crate::routing::shard_of(resumed[0], 3), 1, "{resumed:?}");

        cluster.run_for(SimDuration::from_secs(5));
        let m = cluster.metrics();
        assert_eq!(m.counter(metric_names::CMD_FAILED), 0);
        assert_eq!(m.counter(metric_names::MIGRATION_REVERTS), 0);
        let views = cluster.location_views();
        for group in &views {
            assert!(group.iter().all(|v| v.is_some() && v == &group[0]), "replicas agree");
        }
    }
}
