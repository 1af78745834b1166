//! The sans-io host of a protocol core: everything between "a message
//! body arrived / a timer fired" and "these bodies go out, these timers
//! are armed", written once for any driver.
//!
//! A [`ReplicaHost`] is the paper's process model — multicast member →
//! deliver → execute → emit — around either core ([`Role`]). The client
//! (`client.rs`) calls the same [`Port`] itself. Neither knows a
//! transport, a clock or a thread: the driver hands in a [`Port`] and the
//! host calls it in place, in effect order, so the simulated schedule is a
//! function of the cores alone. `cluster.rs` drives hosts and clients from
//! the simulator; the tests below (and the client's) drive them from a
//! recording port.
//!
//! Topology convention: partitions `0..k` are multicast groups `0..k`; the
//! `O` oracle shards are groups `k..k+O` (shard `s` is group `k+s`; the
//! default `O = 1` reproduces the single-oracle deployment exactly). Every
//! group has the same replica count (the paper gives the oracle the same
//! resources as every partition), and replica nodes are numbered
//! group-major from 0.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dynastar_amcast::{
    Delivery, Dests, GroupId, McastMember, McastOutput, McastWire, MemberId, MemberSnapshot,
    Topology,
};
use dynastar_paxos::{Ballot, GroupConfig, Peers};
use dynastar_runtime::{Metrics, NodeId, SimDuration, SimTime};

use crate::command::{Application, PartitionId};
use crate::metric_names;
use crate::oracle::OracleCore;
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::server::ServerCore;

/// How often a driver calls [`ReplicaHost::on_tick`]. Consensus timeouts
/// and batching delays are counted in these ticks.
pub(crate) const TICK: SimDuration = SimDuration::from_millis(1);

/// How often a recovering replica re-requests missing peer snapshots.
const RECOVERY_RETRY: SimDuration = SimDuration::from_millis(500);

/// One replica's key→partition location map as sorted `(key, partition)`
/// pairs: a partition replica reports the keys it owns, an oracle replica
/// its shard's slice of the map. See [`crate::Cluster::location_views`].
pub type LocationView = Vec<(u64, u32)>;

/// What hosts say to each other, before any transport framing.
#[derive(Debug)]
pub enum Inner<A: Application> {
    /// Atomic multicast traffic. Payloads travel behind an `Arc` so the
    /// many per-replica copies share one allocation.
    Wire(McastWire<Arc<Payload<A>>>),
    /// Direct protocol messages.
    Direct(Direct<A>),
    /// Crash-recovery state transfer between replicas of one group.
    Recovery(RecoveryMsg<A>),
}

impl<A: Application> Clone for Inner<A> {
    fn clone(&self) -> Self {
        match self {
            Inner::Wire(w) => Inner::Wire(w.clone()),
            Inner::Direct(d) => Inner::Direct(d.clone()),
            Inner::Recovery(r) => Inner::Recovery(r.clone()),
        }
    }
}

/// Unwraps a received body for consumption: sole owner → move, otherwise
/// one deep clone. Sharing is the normal case: every recipient of a
/// fan-out holds the same body, and the sender's retransmission buffer
/// holds it until acknowledged. The clone is shallow where it matters,
/// since payloads and destination lists sit behind their own `Arc`s.
/// Replicas read direct messages in place instead (see
/// [`ReplicaHost::on_bodies`]).
pub(crate) fn unwrap_released<A: Application>(body: Arc<Inner<A>>) -> Inner<A> {
    Arc::try_unwrap(body).unwrap_or_else(|shared| (*shared).clone())
}

/// Recovery protocol between the replicas of one group: a restarted (or
/// irrecoverably lagging) replica asks its peers for state; each live peer
/// answers with its consensus/multicast snapshot plus a clone of its
/// protocol core. The requester installs once it holds a quorum of
/// snapshots (consensus safety needs the quorum — see
/// [`dynastar_paxos::RecoveryReport`]); the core comes from the snapshot
/// the multicast layer picks as its bookkeeping donor, keeping replica
/// state and log position consistent.
pub enum RecoveryMsg<A: Application> {
    /// "Send me your state" — from a recovering replica to its group peers.
    Request,
    /// A live peer's state donation (boxed: it dwarfs regular traffic).
    Response(Box<RecoveryPayload<A>>),
}

impl<A: Application> Clone for RecoveryMsg<A> {
    fn clone(&self) -> Self {
        match self {
            RecoveryMsg::Request => RecoveryMsg::Request,
            RecoveryMsg::Response(p) => RecoveryMsg::Response(p.clone()),
        }
    }
}

impl<A: Application> std::fmt::Debug for RecoveryMsg<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryMsg::Request => f.write_str("RecoveryMsg::Request"),
            RecoveryMsg::Response(_) => f.write_str("RecoveryMsg::Response(..)"),
        }
    }
}

/// One peer's full state donation: multicast/consensus snapshot + core.
pub struct RecoveryPayload<A: Application> {
    snapshot: MemberSnapshot<Arc<Payload<A>>>,
    core: Role<A>,
}

impl<A: Application> Clone for RecoveryPayload<A> {
    fn clone(&self) -> Self {
        RecoveryPayload { snapshot: self.snapshot.clone(), core: self.core.snapshot() }
    }
}

/// Node addressing shared by every host of a deployment.
#[derive(Debug)]
pub(crate) struct RouteTable {
    /// `groups[g][replica]` = node id.
    groups: Vec<Vec<NodeId>>,
    /// First oracle shard's group (shard `s` is `oracle_base + s`).
    oracle_base: GroupId,
    /// Number of oracle shard groups.
    oracle_shards: u32,
}

impl RouteTable {
    /// The table of `partitions + oracle_shards` groups of `replicas`
    /// nodes each (see the module docs for the numbering).
    pub(crate) fn new(partitions: u32, oracle_shards: u32, replicas: usize) -> Self {
        assert!(oracle_shards > 0, "cluster needs at least one oracle shard");
        let node = |g: u32, r: usize| NodeId::from_raw(g * replicas as u32 + r as u32);
        let groups =
            (0..partitions + oracle_shards).map(|g| (0..replicas).map(|r| node(g, r)).collect());
        RouteTable { groups: groups.collect(), oracle_base: GroupId(partitions), oracle_shards }
    }

    /// Number of oracle shard groups.
    pub(crate) fn oracle_shards(&self) -> u32 {
        self.oracle_shards
    }

    /// Node ids of every group: partitions `0..k`, then the oracle shards.
    pub(crate) fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// The multicast topology these groups form.
    pub(crate) fn topology(&self) -> Topology {
        Topology::new(self.groups.iter().map(Vec::len).collect())
    }

    /// The node hosting multicast member `m`.
    pub(crate) fn node_of(&self, m: MemberId) -> NodeId {
        self.groups[m.group.0 as usize][m.index]
    }

    /// The nodes replicating group `g`.
    pub(crate) fn group_nodes(&self, g: GroupId) -> &[NodeId] {
        &self.groups[g.0 as usize]
    }

    fn oracle_group(&self, shard: u32) -> GroupId {
        debug_assert!(shard < self.oracle_shards);
        GroupId(self.oracle_base.0 + shard)
    }

    /// Resolves a core's multicast destinations into the sorted, distinct
    /// group list every copy of the message shares. `partitions` is sorted
    /// in place; the list is the one allocation.
    pub(crate) fn mcast_groups(
        &self,
        mut partitions: Vec<PartitionId>,
        oracle: OracleDest,
    ) -> Dests {
        partitions.sort_unstable();
        partitions.dedup();
        // Oracle groups follow every partition group, so appending them
        // keeps the list sorted.
        debug_assert!(partitions.last().is_none_or(|p| p.0 < self.oracle_base.0));
        let oracle = match oracle {
            OracleDest::None => 0..0,
            OracleDest::All => self.oracle_base.0..self.oracle_base.0 + self.oracle_shards,
            OracleDest::Shard(s) => {
                let g = self.oracle_group(s).0;
                g..g + 1
            }
        };
        partitions.iter().map(|p| GroupId(p.0)).chain(oracle.map(GroupId)).collect()
    }
}

/// What a driver lends a host or a client for the length of one call: a
/// clock, the metrics registry, a way out for message bodies, the three
/// timers either can ask for (plan, wake, retry) and stable storage. The
/// callee calls it in effect order and buffers nothing, so what a driver
/// sees is exactly what the protocol decided.
pub(crate) trait Port<A: Application> {
    /// The current time (constant during one simulated handler).
    fn now(&self) -> SimTime;
    /// The registry cores record into.
    fn metrics(&mut self) -> &mut Metrics;
    /// Puts `body` on the transport to `to`. Every fan-out, wire or
    /// direct, passes clones of one `Arc` per recipient set, so its
    /// recipients share a single allocation.
    fn send(&mut self, to: NodeId, body: Arc<Inner<A>>);
    /// Arms the one plan timer: [`ReplicaHost::on_plan_timer`] is due
    /// `after` from now ([`Effect::SchedulePlan`]).
    fn arm_plan(&mut self, after: SimDuration);
    /// Arms the one wake timer: [`ReplicaHost::on_wake`] ([`Effect::Wake`])
    /// or a client's deferred retry,
    /// [`crate::client::ClientCore::on_backoff`], is due at `at`.
    fn arm_wake(&mut self, at: SimTime);
    /// Arms the one retry timer `after` from now; `None` cancels it. A
    /// recovering replica's is the snapshot-request retry
    /// ([`ReplicaHost::on_retry`]), a client's its response timeout
    /// ([`crate::client::ClientCore::on_timeout`]).
    fn arm_retry(&mut self, after: Option<SimDuration>);
    /// Writes `promised` to stable storage: the consensus floor a
    /// restarted replica hands back to [`ReplicaHost::on_restart`].
    fn persist(&mut self, promised: Ballot);
}

/// What a hosted member sends and delivers: each wire addressed to
/// replicas of one group.
type MemberOut<A> = McastOutput<Arc<Payload<A>>, (GroupId, Peers)>;

/// A member's outgoing wires.
type Wires<A> = Vec<((GroupId, Peers), McastWire<Arc<Payload<A>>>)>;

/// Puts a member's outgoing wires on the transport, draining `wires`: one
/// body per recipient set, to the set's nodes by ascending replica index.
fn send_wires<A: Application>(routes: &RouteTable, wires: &mut Wires<A>, port: &mut impl Port<A>) {
    for ((group, peers), wire) in wires.drain(..) {
        let (nodes, body) = (routes.group_nodes(group), Arc::new(Inner::Wire(wire)));
        for idx in peers.iter() {
            port.send(nodes[idx], Arc::clone(&body));
        }
    }
}

/// The protocol core a replica hosts. Nothing outside this impl matches on
/// the variant: the oracle is "itself a replicated partition" to its host.
#[expect(clippy::large_enum_variant, reason = "one per replica, never collected in bulk")]
pub(crate) enum Role<A: Application> {
    /// A partition server.
    Partition(ServerCore<A>),
    /// A location-oracle shard.
    Oracle(OracleCore<A>),
}

/// Each call appends the core's effects to `eff`. The partition core
/// writes into it directly; the oracle core still returns a `Vec`, which
/// is moved over.
impl<A: Application> Role<A> {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_deliver(
        &mut self,
        payload: Arc<Payload<A>>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        match self {
            Role::Partition(c) => c.on_deliver_into(payload, now, metrics, eff),
            Role::Oracle(c) => eff.append(&mut c.on_deliver(payload, now, metrics)),
        }
    }

    /// No direct message is addressed to an oracle replica.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_direct(
        &mut self,
        msg: &Direct<A>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        match self {
            Role::Partition(c) => c.on_direct_into(msg, now, metrics, eff),
            Role::Oracle(_) => {}
        }
    }

    fn on_tick(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        match self {
            Role::Partition(_) => {}
            Role::Oracle(c) => eff.append(&mut c.on_tick(now, metrics)),
        }
    }

    fn on_plan_timer(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        match self {
            Role::Partition(_) => {}
            Role::Oracle(c) => eff.append(&mut c.on_plan_timer(now, metrics)),
        }
    }

    fn on_wake(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        match self {
            Role::Partition(c) => c.on_wake_into(now, metrics, eff),
            Role::Oracle(_) => {}
        }
    }

    /// Rough size of the core in elements, for transfer accounting.
    fn approx_elements(&self) -> u64 {
        match self {
            Role::Partition(c) => c.approx_elements(),
            Role::Oracle(c) => c.approx_elements(),
        }
    }

    fn location_view(&self) -> LocationView {
        match self {
            Role::Partition(c) => c.location_view(),
            Role::Oracle(c) => c.location_view(),
        }
    }

    /// A copy of the core for a recovering peer to [adopt](Self::adopt).
    pub(crate) fn snapshot(&self) -> Self {
        match self {
            Role::Partition(c) => Role::Partition(c.clone()),
            Role::Oracle(c) => Role::Oracle(c.clone()),
        }
    }

    /// Stamps on the core everything that is this replica's own and not
    /// its group's: a core is built from a shared config and, after a
    /// recovery, cloned from a *donor*, whose identity would otherwise come
    /// along. Every per-replica field goes through here, so a new one
    /// cannot be forgotten at one of the sites. Replica 0 records the
    /// group-level metrics, so per-group series are not multiplied by the
    /// replication factor.
    fn adopt(&mut self, me: MemberId, group_size: usize) {
        match self {
            Role::Partition(c) => {
                c.set_record_metrics(me.index == 0);
                c.set_replica(me.index as u32, group_size as u32);
            }
            Role::Oracle(c) => c.set_record_metrics(me.index == 0),
        }
    }
}

/// Total-order deliveries waiting to be fed to the hosted core.
type Deliveries<A> = VecDeque<Delivery<Arc<Payload<A>>>>;

/// One replica, sans io: a multicast member plus the core it feeds.
///
/// The host owns the buffers every message passes through and lends them
/// to the calls it makes: the member and the core append, the host drains.
/// Each is empty between calls.
///
/// It also runs the crash-recovery fault model: the promised ballot lives
/// in stable storage ([`Port::persist`]); everything else is volatile.
/// After [`Self::on_restart`] the host is *recovering*: it feeds its core
/// no protocol traffic, asks its group peers for state, and installs once
/// a quorum of [`RecoveryMsg::Response`]s arrived (consensus safety needs
/// the quorum; see [`dynastar_paxos::RecoveryReport`]). A replica that
/// falls farther behind than peers retain log for takes the same
/// state-transfer path without restarting. Groups need ≥ 3 replicas for
/// recovery to terminate: smaller groups cannot assemble a quorum of
/// *peer* snapshots.
pub(crate) struct ReplicaHost<A: Application> {
    me: MemberId,
    routes: Arc<RouteTable>,
    group_cfg: GroupConfig,
    member: McastMember<Arc<Payload<A>>>,
    role: Role<A>,
    /// What the member's last call sent and delivered.
    mcast_out: MemberOut<A>,
    /// What the core's last call decided.
    effects: Vec<Effect<A>>,
    /// Deliveries not yet fed to the core (see [`Self::drain`]).
    pending: Deliveries<A>,
    /// The promise last written through [`Port::persist`].
    persisted: Ballot,
    /// Peer donations collected while recovering; `None` while live.
    recovery: Option<BTreeMap<NodeId, RecoveryPayload<A>>>,
    /// Leadership at the last look, for the rising-edge election count.
    was_leader: bool,
}

impl<A: Application> ReplicaHost<A> {
    /// Hosts `role` as member `me` of its group.
    pub(crate) fn new(
        me: MemberId,
        routes: Arc<RouteTable>,
        group_cfg: GroupConfig,
        mut role: Role<A>,
    ) -> Self {
        role.adopt(me, group_cfg.size);
        let member = McastMember::with_group_config(me, routes.topology(), group_cfg.clone());
        ReplicaHost {
            me,
            routes,
            group_cfg,
            member,
            role,
            mcast_out: McastOutput::default(),
            effects: Vec::new(),
            pending: Deliveries::new(),
            // No promise equals it: the first look persists.
            persisted: Ballot { round: u64::MAX, owner: usize::MAX },
            recovery: None,
            was_leader: false,
        }
    }

    /// This replica's multicast address.
    pub(crate) fn me(&self) -> MemberId {
        self.me
    }

    /// The core's view of the key→partition map; `None` while recovering,
    /// when the core is a placeholder and not authoritative.
    pub(crate) fn location_view(&self) -> Option<LocationView> {
        self.recovery.is_none().then(|| self.role.location_view())
    }

    /// First boot: the initial promise goes to stable storage.
    pub(crate) fn on_start(&mut self, port: &mut impl Port<A>) {
        self.persist(port);
    }

    /// Crash-recovery boot over `floor`, the promise persisted before the
    /// crash (written again at once, with the driver's new incarnation).
    /// The member loses its volatile state; the core stays a placeholder
    /// until a quorum of donations replaces both (the t0 preload cannot be
    /// replayed, so a restarted replica always takes the snapshot path).
    pub(crate) fn on_restart(&mut self, floor: Ballot, port: &mut impl Port<A>) {
        self.persisted = floor;
        port.persist(floor);
        self.member =
            McastMember::with_group_config(self.me, self.routes.topology(), self.group_cfg.clone());
        self.begin_recovery(port);
    }

    /// Handles the bodies one received message released, in order, from
    /// node `from`; a live replica then settles (see [`Self::settle`]).
    pub(crate) fn on_bodies(
        &mut self,
        from: NodeId,
        bodies: impl IntoIterator<Item = Arc<Inner<A>>>,
        port: &mut impl Port<A>,
    ) {
        for body in bodies {
            self.on_body(from, body, port);
        }
        if self.recovery.is_none() {
            self.settle(port);
        }
    }

    /// Handles one received body. A direct message is read in place — it
    /// is shared with the sender's retransmission buffer, and more often
    /// than not a repeat: the core copies it if it is new. While
    /// recovering, protocol traffic is dropped (the group tolerates it:
    /// this replica is the faulty minority) and replaced by the snapshot.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_body(&mut self, from: NodeId, body: Arc<Inner<A>>, port: &mut impl Port<A>) {
        match &*body {
            Inner::Recovery(_) => {
                if let Inner::Recovery(msg) = unwrap_released(body) {
                    self.on_recovery(from, msg, port);
                }
            }
            Inner::Direct(_) | Inner::Wire(_) if self.recovery.is_some() => {}
            Inner::Direct(msg) => {
                self.step(port, |role, now, metrics, eff| role.on_direct(msg, now, metrics, eff));
            }
            Inner::Wire(_) => {
                if let Inner::Wire(wire) = unwrap_released(body) {
                    self.member.on_message_into(wire, &mut self.mcast_out);
                    self.route_mcast_out(port);
                }
            }
        }
    }

    /// The periodic multicast/consensus tick (every [`TICK`]). A replica
    /// that finds it fell farther behind than peers retain log for (e.g.
    /// after a long partition) starts recovering: only a snapshot can
    /// catch it up.
    pub(crate) fn on_tick(&mut self, port: &mut impl Port<A>) {
        if self.recovery.is_some() {
            return;
        }
        self.member.tick_into(&mut self.mcast_out);
        self.route_mcast_out(port);
        self.publish_batch_stats(port.metrics());
        self.step(port, Role::on_tick);
        if self.member.needs_state_transfer() {
            self.begin_recovery(port);
        } else {
            self.settle(port);
        }
    }

    /// The plan timer armed through [`Port::arm_plan`] fired.
    pub(crate) fn on_plan_timer(&mut self, port: &mut impl Port<A>) {
        if self.recovery.is_none() {
            self.step(port, Role::on_plan_timer);
        }
    }

    /// The wake timer armed through [`Port::arm_wake`] fired.
    pub(crate) fn on_wake(&mut self, port: &mut impl Port<A>) {
        if self.recovery.is_none() {
            self.step(port, Role::on_wake);
        }
    }

    /// The retry timer armed through [`Port::arm_retry`] fired: ask again
    /// every peer that has not donated yet.
    pub(crate) fn on_retry(&mut self, port: &mut impl Port<A>) {
        self.request_snapshots(port);
    }

    /// Ends a handler on a live replica: counts a rising edge of local
    /// leadership and persists the promise if it changed. Handlers run
    /// atomically with respect to crashes, so persisting at the end of one
    /// is equivalent to persisting before the promise left the node.
    fn settle(&mut self, port: &mut impl Port<A>) {
        let lead = self.member.is_leader();
        if lead && !self.was_leader {
            port.metrics().incr_counter(metric_names::LEADER_ELECTIONS, 1);
        }
        self.was_leader = lead;
        self.persist(port);
    }

    /// Writes the promise to stable storage if it changed.
    fn persist(&mut self, port: &mut impl Port<A>) {
        let promised = self.member.promised();
        if promised != self.persisted {
            self.persisted = promised;
            port.persist(promised);
        }
    }

    /// Enters the recovering state and solicits peer snapshots.
    fn begin_recovery(&mut self, port: &mut impl Port<A>) {
        self.recovery = Some(BTreeMap::new());
        self.was_leader = false;
        self.request_snapshots(port);
    }

    /// While recovering, asks every group peer that has not donated yet
    /// for its state, and arms the retry.
    fn request_snapshots(&self, port: &mut impl Port<A>) {
        let Some(donations) = &self.recovery else { return };
        let mine = self.routes.node_of(self.me);
        for &peer in self.routes.group_nodes(self.me.group) {
            if peer != mine && !donations.contains_key(&peer) {
                port.send(peer, Arc::new(Inner::Recovery(RecoveryMsg::Request)));
            }
        }
        port.arm_retry(Some(RECOVERY_RETRY));
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn on_recovery(&mut self, from: NodeId, msg: RecoveryMsg<A>, port: &mut impl Port<A>) {
        match msg {
            RecoveryMsg::Request => {
                // Only group peers are answered, and only with coherent
                // state: a replica mid-recovery has none to give.
                if self.recovery.is_some()
                    || !self.routes.group_nodes(self.me.group).contains(&from)
                {
                    return;
                }
                let donation = RecoveryPayload {
                    snapshot: self.member.snapshot(),
                    core: self.role.snapshot(),
                };
                let m = port.metrics();
                m.incr_counter(metric_names::RECOVERY_SNAPSHOTS, 1);
                let core = donation.core.approx_elements();
                let elements = donation.snapshot.approx_elements() + core;
                m.incr_counter(metric_names::RECOVERY_SNAPSHOT_ELEMENTS, elements);
                m.incr_counter(metric_names::RECOVERY_SNAPSHOT_CORE_ELEMENTS, core);
                let response = RecoveryMsg::Response(Box::new(donation));
                port.send(from, Arc::new(Inner::Recovery(response)));
            }
            RecoveryMsg::Response(payload) => {
                // A late donation (already installed) is dropped; a second
                // one from the same peer replaces its first.
                let Some(donations) = &mut self.recovery else { return };
                donations.insert(from, *payload);
                self.try_install(port);
            }
        }
    }

    /// Installs the donations over the persisted floor once a quorum is
    /// held. The core comes from the donor the multicast layer took its
    /// bookkeeping from, or replica state and log position diverge; should
    /// that donor be missing, the host stays in recovery and asks again.
    fn try_install(&mut self, port: &mut impl Port<A>) {
        let Some(donations) = &self.recovery else { return };
        if donations.len() < self.group_cfg.quorum() {
            return;
        }
        let snaps: Vec<_> = donations.values().map(|d| d.snapshot.clone()).collect();
        let (topology, cfg) = (self.routes.topology(), self.group_cfg.clone());
        let (member, out, donor) =
            McastMember::recover(self.me, topology, cfg, self.persisted, &snaps);
        self.member = member;
        let Some(donor) = donations.values().nth(donor) else { return };
        self.role = donor.core.snapshot();
        self.role.adopt(self.me, self.group_cfg.size);
        self.recovery = None;
        port.arm_retry(None);
        port.metrics().incr_counter(metric_names::RECOVERY_COMPLETIONS, 1);
        self.absorb(out, port);
        self.settle(port);
    }

    /// Routes a multicast-layer output: sends the wires, then feeds the
    /// deliveries to the core.
    fn absorb(&mut self, out: MemberOut<A>, port: &mut impl Port<A>) {
        self.mcast_out.outgoing.extend(out.outgoing);
        self.mcast_out.delivered.extend(out.delivered);
        self.route_mcast_out(port);
    }

    /// [`Self::absorb`] of what the member's last call appended to
    /// [`Self::mcast_out`], draining it before any delivery is fed: the
    /// core's multicasts submit through the same buffer.
    fn route_mcast_out(&mut self, port: &mut impl Port<A>) {
        send_wires(&self.routes, &mut self.mcast_out.outgoing, port);
        self.pending.extend(self.mcast_out.delivered.drain(..));
        self.drain(port);
    }

    /// One core call, its effects, and whatever they caused to be delivered.
    fn step<P: Port<A>>(
        &mut self,
        port: &mut P,
        call: impl FnOnce(&mut Role<A>, SimTime, &mut Metrics, &mut Vec<Effect<A>>),
    ) {
        let now = port.now();
        let mut effects = std::mem::take(&mut self.effects);
        call(&mut self.role, now, port.metrics(), &mut effects);
        self.apply(&mut effects, port);
        self.effects = effects;
        self.drain(port);
    }

    /// The delivery loop: feeds the pending deliveries to the core in
    /// total order, emitting each one's effects before the next is fed; a
    /// multicast among them that delivers to this very member queues up
    /// behind what is already pending.
    fn drain(&mut self, port: &mut impl Port<A>) {
        let mut effects = std::mem::take(&mut self.effects);
        while let Some(d) = self.pending.pop_front() {
            let now = port.now();
            self.role.on_deliver(d.payload, now, port.metrics(), &mut effects);
            self.apply(&mut effects, port);
        }
        self.effects = effects;
    }

    /// Turns the core's effects into port calls, in order — the one place
    /// an [`Effect`] becomes IO — draining `effects`. A multicast is
    /// submitted through the member; what it delivers here joins
    /// [`Self::pending`].
    fn apply(&mut self, effects: &mut Vec<Effect<A>>, port: &mut impl Port<A>) {
        let routes = &*self.routes;
        for eff in effects.drain(..) {
            match eff {
                Effect::Multicast { mid, partitions, oracle, payload } => {
                    let dests = routes.mcast_groups(partitions, oracle);
                    let out = &mut self.mcast_out;
                    self.member.submit_into(mid, dests, Arc::new(payload), out);
                    send_wires(routes, &mut out.outgoing, port);
                    self.pending.extend(out.delivered.drain(..));
                }
                Effect::Send { to, msg } => {
                    let body = Arc::new(Inner::Direct(msg));
                    match to {
                        Destination::Partition(p) => {
                            for &node in routes.group_nodes(GroupId(p.0)) {
                                port.send(node, Arc::clone(&body));
                            }
                        }
                        Destination::Client(node) => port.send(node, body),
                    }
                }
                Effect::SchedulePlan { after } => port.arm_plan(after),
                Effect::Wake { at } => port.arm_wake(at),
            }
        }
    }

    /// Drains leader-side batching statistics from the consensus layer.
    /// Every replica drains (the per-flush samples are bounded but must
    /// not accumulate forever); only the designated metrics replica
    /// publishes them. Batch sizes and window occupancies are counts,
    /// recorded into duration histograms in µs units.
    fn publish_batch_stats(&mut self, m: &mut Metrics) {
        let publishes = self.me.index == 0;
        self.member.drain_batch_stats(|stats| {
            if !publishes || stats.batches == 0 {
                return;
            }
            m.incr_counter(metric_names::BATCH_FLUSH_FULL, stats.flush_full);
            m.incr_counter(metric_names::BATCH_FLUSH_DELAY, stats.flush_delay);
            m.incr_counter(metric_names::BATCH_COMMANDS, stats.batched_cmds);
            for &(size, occupancy) in &stats.samples {
                m.record_histogram(metric_names::BATCH_SIZE, SimDuration::from_micros(size as u64));
                m.record_histogram(
                    metric_names::BATCH_OCCUPANCY,
                    SimDuration::from_micros(occupancy as u64),
                );
            }
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    use dynastar_paxos::PaxosMsg;

    use super::*;
    use crate::client::ClientCore;
    use dynastar_amcast::MsgId;

    use crate::command::{Command, CommandKind, LocKey, VarId};
    use crate::deploy::{build_hosts, ClusterConfig};
    use crate::server::{ExecConfig, ServerConfig, CHUNK_SENDS};

    /// Counters, one variable to a key; an access bumps what it names.
    #[derive(Debug)]
    pub(crate) struct App;

    impl Application for App {
        type Op = ();
        type Value = u64;
        type Reply = ();

        fn locality(var: VarId) -> LocKey {
            LocKey(var.0)
        }

        fn execute(_: &(), vars: &mut BTreeMap<VarId, Option<u64>>) {
            for val in vars.values_mut() {
                *val = Some(val.unwrap_or(0) + 1);
            }
        }
    }

    /// What a host or a client did to its port, in order.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Seen {
        /// Read the clock: once per core call, so once per delivery fed.
        Clock,
        /// Sent a body (named by its payload or direct variant) to a node.
        Send(u32, String),
        Plan(SimDuration),
        Wake(SimTime),
        Retry(Option<SimDuration>),
        Persist(Ballot),
    }

    /// A port that records instead of acting.
    pub(crate) struct Recorder {
        log: RefCell<Vec<Seen>>,
        pub(crate) metrics: Metrics,
        pub(crate) now: SimTime,
        /// Every body sent, with its recipient.
        pub(crate) sent: Vec<(u32, Arc<Inner<App>>)>,
    }

    impl Recorder {
        pub(crate) fn at(now: SimTime) -> Self {
            let log = RefCell::new(Vec::new());
            Recorder { log, metrics: Metrics::new(), now, sent: Vec::new() }
        }

        pub(crate) fn take(&mut self) -> Vec<Seen> {
            self.log.take()
        }
    }

    impl Port<App> for Recorder {
        fn now(&self) -> SimTime {
            self.log.borrow_mut().push(Seen::Clock);
            self.now
        }

        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }

        fn send(&mut self, to: NodeId, body: Arc<Inner<App>>) {
            let text = match &*body {
                Inner::Wire(McastWire::Submit { payload, .. }) => format!("{payload:?}"),
                Inner::Direct(msg) => format!("{msg:?}"),
                Inner::Recovery(msg) => format!("{msg:?}"),
                other => format!("{other:?}"),
            };
            let name = text.split([' ', '(']).next().unwrap_or_default().to_string();
            self.log.get_mut().push(Seen::Send(to.as_raw(), name));
            self.sent.push((to.as_raw(), body));
        }

        fn arm_plan(&mut self, after: SimDuration) {
            self.log.get_mut().push(Seen::Plan(after));
        }

        fn arm_wake(&mut self, at: SimTime) {
            self.log.get_mut().push(Seen::Wake(at));
        }

        fn arm_retry(&mut self, after: Option<SimDuration>) {
            self.log.get_mut().push(Seen::Retry(after));
        }

        fn persist(&mut self, promised: Ballot) {
            self.log.get_mut().push(Seen::Persist(promised));
        }
    }

    pub(crate) const CLIENT: u32 = 99;

    pub(crate) fn access(seq: u32, vars: &[u64]) -> Command<App> {
        let vars = vars.iter().map(|&v| VarId(v)).collect();
        Command {
            id: MsgId::new(CLIENT as u64, seq),
            client: NodeId::from_raw(CLIENT),
            kind: CommandKind::Access { op: (), vars },
        }
    }

    fn delivered(payloads: Vec<Payload<App>>) -> MemberOut<App> {
        let delivered = payloads.into_iter().enumerate().map(|(i, p)| Delivery {
            mid: MsgId::new(7, i as u32),
            final_ts: i as u64,
            dests: Vec::new().into(),
            payload: Arc::new(p),
        });
        McastOutput { outgoing: Vec::new(), delivered: delivered.collect() }
    }

    /// Keys 0..8 alternate over two partitions; every group has `replicas`
    /// members. Hosts come back in node order.
    fn hosts(replicas: usize, config: ClusterConfig) -> Vec<ReplicaHost<App>> {
        let config = ClusterConfig { partitions: 2, replicas, ..config };
        let placement: BTreeMap<_, _> =
            (0..8).map(|k| (LocKey(k), PartitionId((k % 2) as u32))).collect();
        build_hosts(&config, &placement, (0..8).map(|v| (VarId(v), 0)).collect()).1
    }

    pub(crate) fn send(to: u32, name: &str) -> Seen {
        Seen::Send(to, name.to_string())
    }

    /// One replica per group: node 0 and 1 are the partitions, node 2 is
    /// the oracle, alone in its group and its leader — so what it
    /// multicasts to its own group alone is ordered and delivered inside
    /// the submit.
    fn lone_oracle() -> ReplicaHost<App> {
        let config = ClusterConfig {
            repartition_threshold: 1,
            min_plan_interval: SimDuration::ZERO,
            compute_base: SimDuration::from_millis(7),
            ..ClusterConfig::default()
        };
        hosts(1, config).pop().expect("the oracle is the last host")
    }

    #[test]
    fn each_delivery_is_fed_after_the_previous_one_has_spoken() {
        let mut oracle = lone_oracle();
        let mut port = Recorder::at(SimTime::from_secs(1));
        let queries =
            [access(0, &[0]), access(1, &[1])].map(|cmd| Payload::Exec { cmd, attempt: 0 });
        oracle.absorb(delivered(queries.into()), &mut port);
        // Per query: the prophecy to the client, the command to the
        // partition that owns the key — then, and only then, the next.
        let expected = [
            Seen::Clock,
            send(CLIENT, "Prophecy"),
            send(0, "Access"),
            Seen::Clock,
            send(CLIENT, "Prophecy"),
            send(1, "Access"),
        ];
        assert_eq!(port.take(), expected);
    }

    #[test]
    fn a_self_delivering_multicast_queues_behind_what_is_pending() {
        let mut oracle = lone_oracle();
        let mut port = Recorder::at(SimTime::from_secs(1));
        // The hint crosses the threshold: the oracle multicasts a
        // `Recompute` marker to its own group, which delivers it on the
        // spot. The query delivered behind the hint still goes first; the
        // marker's effect — the plan timer — comes last.
        let hint = Payload::HintSets {
            vertices: vec![(LocKey(0), 1), (LocKey(1), 1)],
            ranks: vec![0, 1],
            sets: vec![(2, 1)],
        };
        let query = Payload::Exec { cmd: access(0, &[0]), attempt: 0 };
        oracle.absorb(delivered(vec![hint, query]), &mut port);
        let log = port.take();
        let expected = [
            Seen::Clock, // hint: the submit has no peer to send to
            Seen::Clock, // query
            send(CLIENT, "Prophecy"),
            send(0, "Access"),
            Seen::Clock, // marker
        ];
        assert_eq!(log[..5], expected);
        assert!(matches!(log[5..], [Seen::Plan(after)] if after >= SimDuration::from_millis(7)));

        // The plan timer publishes to every group: the partitions hear of
        // it by wire, the oracle's own copy is ordered on the spot again.
        oracle.on_plan_timer(&mut port);
        let log = port.take();
        assert_eq!(log[..3], [Seen::Clock, send(0, "Plan"), send(1, "Plan")]);
    }

    #[test]
    fn a_gated_head_asks_for_the_wake_timer_and_runs_when_it_fires() {
        let busy = SimDuration::from_millis(1);
        let config = ClusterConfig { exec: ExecConfig::serial(busy), ..ClusterConfig::default() };
        let mut partition = hosts(1, config).swap_remove(0);
        let t0 = SimTime::from_secs(1);
        let mut port = Recorder::at(t0);
        let commands = [access(0, &[0]), access(1, &[0])].map(|cmd| Payload::Access {
            cmd,
            attempt: 0,
            expected: vec![(VarId(0), PartitionId(0))],
            target: PartitionId(0),
            keep: false,
        });
        partition.absorb(delivered(commands.into()), &mut port);
        // The first command occupies the executor for its service time;
        // the second waits for it behind the wake timer.
        let reply = send(CLIENT, "Reply");
        assert_eq!(port.take(), [Seen::Clock, reply, Seen::Clock, Seen::Wake(t0 + busy)]);

        port.now = t0 + busy;
        partition.on_wake(&mut port);
        assert_eq!(port.take()[..2], [Seen::Clock, send(CLIENT, "Reply")]);
    }

    #[test]
    fn destinations_resolve_through_the_one_route_table() {
        let (p0, p1) = (PartitionId(0), PartitionId(1));
        let one = RouteTable::new(2, 1, 3);
        assert_eq!(one.mcast_groups(vec![p1, p0, p1], OracleDest::None)[..], [0, 1].map(GroupId));
        assert_eq!(one.mcast_groups(vec![], OracleDest::Shard(0))[..], [GroupId(2)]);
        assert_eq!(one.mcast_groups(vec![p1], OracleDest::All)[..], [1, 2].map(GroupId));
        let four = RouteTable::new(2, 4, 3);
        assert_eq!(four.mcast_groups(vec![p0], OracleDest::None)[..], [GroupId(0)]);
        assert_eq!(four.mcast_groups(vec![], OracleDest::Shard(2))[..], [GroupId(4)]);
        let all = four.mcast_groups(vec![p1, p1], OracleDest::All);
        assert_eq!(all[..], [1, 2, 3, 4, 5].map(GroupId));
        assert_eq!(four.group_nodes(GroupId(4)), [12, 13, 14].map(NodeId::from_raw));
        assert_eq!(four.node_of(MemberId::new(GroupId(5), 2)), NodeId::from_raw(17));

        // A cold client's query goes to every replica of the one shard
        // `exec_shard` picks, and nowhere else.
        let config = ClusterConfig { partitions: 2, oracle_shards: 4, ..ClusterConfig::default() };
        let mut client = ClientCore::<App>::new(
            NodeId::from_raw(CLIENT),
            &config,
            &Default::default(),
            four.into(),
        );
        let mut port = Recorder::at(SimTime::ZERO);
        let cmd = access(0, &[5]);
        let shard = crate::routing::exec_shard(&cmd, 0, 4);
        client.issue(cmd.kind, &mut port);
        let nodes = (6 + 3 * shard..9 + 3 * shard).map(|n| send(n, "Exec"));
        let timeout = Seen::Retry(Some(config.client_timeout));
        let expected: Vec<_> = [Seen::Clock].into_iter().chain(nodes).chain([timeout]).collect();
        assert_eq!(port.take(), expected);
    }

    /// A port that keeps every body it is handed, with its sender.
    struct Keeper {
        /// The node whose host is being called.
        at: u32,
        metrics: Metrics,
        sent: Vec<(u32, u32, Arc<Inner<App>>)>,
    }

    impl Port<App> for Keeper {
        fn now(&self) -> SimTime {
            SimTime::from_secs(1)
        }

        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }

        fn send(&mut self, to: NodeId, body: Arc<Inner<App>>) {
            self.sent.push((self.at, to.as_raw(), body));
        }

        fn arm_plan(&mut self, _: SimDuration) {}

        fn arm_wake(&mut self, _: SimTime) {}

        fn arm_retry(&mut self, _: Option<SimDuration>) {}

        fn persist(&mut self, _: Ballot) {}
    }

    #[test]
    fn a_fan_out_is_one_body_to_its_recipients_in_index_order() {
        // Two partitions and the oracle, three replicas each (nodes 0..9):
        // a cold client's two-partition command goes through the oracle,
        // whose replicas multicast it to both partitions.
        let config = ClusterConfig { partitions: 2, replicas: 3, ..ClusterConfig::default() };
        let mut group = hosts(3, config.clone());
        let routes = Arc::clone(&group[0].routes);
        let mut client = ClientCore::<App>::new(
            NodeId::from_raw(CLIENT),
            &config,
            &Default::default(),
            Arc::clone(&routes),
        );
        let mut port = Keeper { at: CLIENT, metrics: Metrics::new(), sent: Vec::new() };
        client.issue(access(0, &[0, 1]).kind, &mut port);
        let mut next = 0;
        for _ in 0..4 {
            while let Some((from, to, body)) = port.sent.get(next).cloned() {
                next += 1;
                port.at = to;
                if to != CLIENT {
                    let from = NodeId::from_raw(from);
                    group[to as usize].on_bodies(from, [body], &mut port);
                } else if let Inner::Direct(msg) = &*body {
                    client.on_direct(msg.clone(), &mut port);
                }
            }
            for (node, host) in group.iter_mut().enumerate() {
                port.at = node as u32;
                host.on_tick(&mut port);
            }
        }
        assert!(!client.is_busy(), "the command completed");

        // Each run of one sender handing the port one body, by recipients.
        let nodes = |g: GroupId| routes.group_nodes(g).iter().map(|n| n.as_raw()).collect();
        let group_of = |node: u32| GroupId(node / 3);
        let mut fan_outs: BTreeMap<&str, usize> = BTreeMap::new();
        let mut submits = Vec::new();
        for run in port.sent.chunk_by(|a, b| a.0 == b.0 && Arc::ptr_eq(&a.2, &b.2)) {
            let (from, to, body) = &run[0];
            let recipients: Vec<u32> = run.iter().map(|&(_, to, _)| to).collect();
            let others = |g| -> Vec<u32> {
                let all: Vec<u32> = nodes(g);
                all.into_iter().filter(|n| n != from).collect()
            };
            let Inner::Wire(wire) = &**body else { continue };
            let (kind, expected) = match wire {
                McastWire::Paxos { msg, .. } => match msg {
                    PaxosMsg::Accept { .. } => ("Accept", others(group_of(*from))),
                    PaxosMsg::Decide { .. } => ("Decide", others(group_of(*from))),
                    PaxosMsg::Heartbeat { .. } => ("Heartbeat", others(group_of(*from))),
                    _ => ("unicast", vec![*to]),
                },
                McastWire::Submit { .. } if *from == CLIENT => continue,
                McastWire::Submit { mid, dests, .. } => {
                    submits.push((*from, *mid, group_of(*to), Arc::clone(dests)));
                    ("Submit", others(group_of(*to)))
                }
                McastWire::GroupTs { .. } => ("GroupTs", nodes(group_of(*to))),
                McastWire::TsAck { from_group, .. } => ("TsAck", nodes(*from_group)),
            };
            assert_eq!(recipients, expected, "{kind} from node {from}");
            *fan_outs.entry(kind).or_default() += 1;
        }
        for kind in ["Accept", "Decide", "Heartbeat", "Submit", "GroupTs", "TsAck"] {
            assert!(fan_outs.get(kind).is_some_and(|&n| n > 0), "no {kind} in {fan_outs:?}");
        }
        // A replica's submit goes to its destination groups in order.
        assert_eq!(submits.len(), 3 * 2, "each oracle replica submits to both partitions");
        for one in submits.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let groups: Vec<GroupId> = one.iter().map(|s| s.2).collect();
            assert_eq!(groups, one[0].3[..]);
        }
    }

    #[test]
    fn an_installed_core_is_restamped_with_the_replica_it_now_is() {
        let server = ServerConfig {
            staged_migration: true,
            migration_link_bytes_per_sec: 1024 * 1024,
            ..ServerConfig::default()
        };
        let mut port = Recorder::at(SimTime::from_secs(1));
        let mut group =
            partition_0(ClusterConfig { server, ..ClusterConfig::default() }, &mut port);
        let answers = restart(&mut group, 1, &mut port);
        for (peer, answer) in [0, 2].into_iter().zip(answers) {
            group[1].on_bodies(node(peer), [answer], &mut port);
        }
        assert_eq!(port.metrics.counter(metric_names::RECOVERY_COMPLETIONS), 1);

        // A plan moves key 0 away and a command touches key 2. Replica 1
        // now runs a donor's core: it must put replica 1's name on what it
        // sends, and record nothing, where the donor would say "0" or "2"
        // and replica 0 would count the command.
        let work = || {
            let command = Payload::Access {
                cmd: access(0, &[2]),
                attempt: 0,
                expected: vec![(VarId(2), PartitionId(0))],
                target: PartitionId(0),
                keep: false,
            };
            let moves = vec![(LocKey(0), PartitionId(0), PartitionId(1))];
            delivered(vec![Payload::Plan { version: 1, moves }, command])
        };
        CHUNK_SENDS.take();
        group[1].absorb(work(), &mut port);
        assert_eq!(CHUNK_SENDS.take(), [(PartitionId(0), 1, LocKey(0))]);
        assert_eq!(port.metrics.counter(metric_names::CMD_SINGLE), 0);
        group[0].absorb(work(), &mut port);
        assert_eq!(CHUNK_SENDS.take(), [(PartitionId(0), 0, LocKey(0))]);
        assert_eq!(port.metrics.counter(metric_names::CMD_SINGLE), 1);
    }

    /// Partition 0's three replicas (nodes 0..3), booted.
    fn partition_0(config: ClusterConfig, port: &mut Recorder) -> Vec<ReplicaHost<App>> {
        let mut group = hosts(3, config);
        group.truncate(3);
        for host in &mut group {
            host.on_start(port);
        }
        port.take();
        group
    }

    fn node(n: u32) -> NodeId {
        NodeId::from_raw(n)
    }

    fn request() -> Arc<Inner<App>> {
        Arc::new(Inner::Recovery(RecoveryMsg::Request))
    }

    /// Restarts replica `victim` of `group` and returns its peers'
    /// answers to its requests, in replica order, as the port carried them.
    fn restart(
        group: &mut [ReplicaHost<App>],
        victim: u32,
        port: &mut Recorder,
    ) -> Vec<Arc<Inner<App>>> {
        let peers: Vec<u32> = (0..3).filter(|&n| n != victim).collect();
        let floor = group[victim as usize].member.promised();
        group[victim as usize].on_restart(floor, port);
        let asked = peers.iter().map(|&n| send(n, "RecoveryMsg::Request"));
        let expected: Vec<Seen> = [Seen::Persist(floor)]
            .into_iter()
            .chain(asked)
            .chain([Seen::Retry(Some(RECOVERY_RETRY))])
            .collect();
        assert_eq!(port.take(), expected);
        for (to, body) in std::mem::take(&mut port.sent) {
            group[to as usize].on_bodies(node(victim), [body], port);
        }
        let answers =
            [send(victim, "RecoveryMsg::Response"), send(victim, "RecoveryMsg::Response")];
        assert_eq!(port.take(), answers);
        port.sent.drain(..).map(|(_, body)| body).collect()
    }

    #[test]
    fn a_restarted_replica_installs_its_peers_state_and_serves_again() {
        let mut port = Recorder::at(SimTime::from_secs(1));
        let mut group = partition_0(ClusterConfig::default(), &mut port);
        let before = group[1].location_view();
        // While replica 1 is down its peers deliver a plan that moves key
        // 0 away: what it comes back to is their state, not its own.
        let plan = || {
            let moves = vec![(LocKey(0), PartitionId(0), PartitionId(1))];
            delivered(vec![Payload::Plan { version: 1, moves }])
        };
        group[0].absorb(plan(), &mut port);
        group[2].absorb(plan(), &mut port);
        port.take();
        port.sent.clear();
        let donated = group[0].location_view();
        assert_ne!(donated, before);

        let answers = restart(&mut group, 1, &mut port);
        assert_eq!(group[1].location_view(), None, "recovering");
        group[1].on_bodies(node(0), [Arc::clone(&answers[0])], &mut port);
        assert_eq!(port.take(), [], "one donation is not a quorum");
        assert_eq!(group[1].location_view(), None);
        group[1].on_bodies(node(2), [Arc::clone(&answers[1])], &mut port);
        assert_eq!(port.take()[..1], [Seen::Retry(None)]);
        assert_eq!(port.metrics.counter(metric_names::RECOVERY_COMPLETIONS), 1);
        assert_eq!(group[1].location_view(), donated);

        // Deliveries reach the installed core again: a command on key 2
        // is answered.
        let command = Payload::Access {
            cmd: access(0, &[2]),
            attempt: 0,
            expected: vec![(VarId(2), PartitionId(0))],
            target: PartitionId(0),
            keep: false,
        };
        group[1].absorb(delivered(vec![command]), &mut port);
        assert_eq!(port.take(), [Seen::Clock, send(CLIENT, "Reply")]);
    }

    #[test]
    fn a_recovering_replica_drops_protocol_traffic_and_donates_nothing() {
        let mut port = Recorder::at(SimTime::from_secs(1));
        let mut group = partition_0(ClusterConfig::default(), &mut port);
        let direct =
            || Arc::new(Inner::Direct(Direct::Retry { cmd: MsgId::new(7, 0), attempt: 0 }));
        let wire = || {
            let payload = Arc::new(Payload::Exec { cmd: access(0, &[0]), attempt: 0 });
            let submit = McastWire::Submit {
                mid: MsgId::new(7, 1),
                dests: vec![GroupId(0)].into(),
                payload,
            };
            Arc::new(Inner::Wire(submit))
        };
        // Live, the leader reads the clock for a direct message and
        // proposes a submitted one to its followers.
        group[0].on_bodies(node(CLIENT), [direct(), wire()], &mut port);
        assert_eq!(port.take(), [Seen::Clock, send(1, "Wire"), send(2, "Wire")]);
        port.sent.clear();

        restart(&mut group, 0, &mut port);
        group[0].on_bodies(node(CLIENT), [direct(), wire()], &mut port);
        group[0].on_bodies(node(1), [request()], &mut port);
        assert_eq!(port.take(), [], "no core call, no proposal, no settle, no donation");
        assert_eq!(port.metrics.counter(metric_names::RECOVERY_SNAPSHOTS), 2, "replicas 0 and 2");
    }

    #[test]
    fn a_live_replica_donates_to_its_group_alone() {
        let mut port = Recorder::at(SimTime::from_secs(1));
        let mut group = partition_0(ClusterConfig::default(), &mut port);
        // Node 3 is partition 1's first replica.
        group[0].on_bodies(node(3), [request()], &mut port);
        assert_eq!(port.take(), []);
        group[0].on_bodies(node(2), [request()], &mut port);
        assert_eq!(port.take(), [send(2, "RecoveryMsg::Response")]);
        assert_eq!(port.metrics.counter(metric_names::RECOVERY_SNAPSHOTS), 1);
        // The count is the whole donation: the member's half and the
        // core's, which holds partition 0's 4 stored variables and their 4
        // keys.
        let core = port.metrics.counter(metric_names::RECOVERY_SNAPSHOT_CORE_ELEMENTS);
        assert_eq!(core, group[0].role.approx_elements());
        assert_eq!(core, 8);
        let member = group[0].member.snapshot().approx_elements();
        assert_eq!(port.metrics.counter(metric_names::RECOVERY_SNAPSHOT_ELEMENTS), member + core);
    }

    #[test]
    fn a_second_donation_from_one_peer_is_not_a_quorum() {
        let mut port = Recorder::at(SimTime::from_secs(1));
        let mut group = partition_0(ClusterConfig::default(), &mut port);
        let answers = restart(&mut group, 1, &mut port);
        let from_0 = || Arc::clone(&answers[0]);
        group[1].on_bodies(node(0), [from_0(), from_0()], &mut port);
        group[1].on_bodies(node(0), [from_0()], &mut port);
        assert_eq!(port.take(), []);
        assert_eq!(group[1].location_view(), None);
        // The retry asks the one peer that has not answered.
        group[1].on_retry(&mut port);
        assert_eq!(
            port.take(),
            [send(2, "RecoveryMsg::Request"), Seen::Retry(Some(RECOVERY_RETRY))]
        );
        group[1].on_bodies(node(2), [Arc::clone(&answers[1])], &mut port);
        assert_eq!(port.metrics.counter(metric_names::RECOVERY_COMPLETIONS), 1);
        assert!(group[1].location_view().is_some());
    }
}
