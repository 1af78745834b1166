//! Cluster assembly: actors that wire the protocol cores to the
//! simulation runtime, and a builder for complete deployments.
//!
//! Topology convention: partitions `0..k` are multicast groups `0..k`; the
//! `O` oracle shards are groups `k..k+O` (shard `s` is group `k+s`; the
//! default `O = 1` reproduces the single-oracle deployment exactly). Every
//! group has the same replica count (the paper gives the oracle the same
//! resources as every partition).

use std::collections::BTreeMap;
use std::sync::Arc;

use dynastar_amcast::{
    GroupId, McastMember, McastOutput, McastWire, MemberId, MemberSnapshot, MsgId, Topology,
};
use dynastar_paxos::{Ballot, BatchConfig, GroupConfig};
use dynastar_runtime::fifo::{FifoLinks, Frame};
use dynastar_runtime::{
    Actor, Ctx, FastHashMap, Metrics, NetConfig, NodeId, SimConfig, SimDuration, SimTime,
    Simulation,
};

use crate::client::{ClientCore, ClientEvent, Workload};
use crate::command::{Application, LocKey, Mode, PartitionId, VarId};
use crate::metric_names;
use crate::oracle::{OracleConfig, OracleCore};
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::server::{ExecConfig, ServerConfig, ServerCore};

/// Timer tags used by the actors.
mod timer {
    /// Periodic multicast/consensus tick.
    pub const TICK: u64 = 1;
    /// Oracle plan-compute completion.
    pub const PLAN: u64 = 2;
    /// Client response timeout.
    pub const TIMEOUT: u64 = 3;
    /// Client initial-issue stagger.
    pub const START: u64 = 4;
    /// Partition modelled-CPU wake-up.
    pub const WAKE: u64 = 5;
    /// Transport retransmission check (clients; servers piggyback on TICK).
    pub const RETX: u64 = 6;
    /// Recovery snapshot-request retry (restarted/lagging replicas).
    pub const RECOVER: u64 = 7;
    /// Client retry-backoff wake-up (deferred stale-routing retry).
    pub const BACKOFF: u64 = 8;
    /// Client think-time wake-up (paced workloads; see
    /// [`crate::Workload::think_time`]).
    pub const THINK: u64 = 9;
}

/// Everything that travels between nodes: FIFO-framed wire messages plus
/// transport-level cumulative acks (the ARQ layer that makes links
/// reliable under message loss, as the paper's §2.1 channel model
/// assumes).
///
/// Every stream-carrying message is stamped with the *incarnation epochs*
/// of both endpoints. A node that restarts loses its volatile sequencing
/// state and comes back under a higher epoch (persisted across the crash),
/// so both sides can tell a fresh stream from a stale one and resynchronize
/// instead of misinterpreting renumbered frames as duplicates — the
/// crash-recovery analogue of TCP connection teardown + re-establishment.
#[derive(Debug)]
pub enum Msg<A: Application> {
    /// A sequenced protocol frame. The body travels behind an `Arc` so a
    /// fan-out to N peers, the per-peer retransmission buffers, and the
    /// receivers' reorder buffers all share one allocation — the frame
    /// itself is two words plus a sequence number, so queue moves and
    /// retransmission clones never copy payload bytes.
    Frame {
        /// Sender's incarnation epoch.
        src_epoch: u64,
        /// The receiver epoch the sender believes is current.
        dst_epoch: u64,
        /// The sequenced payload.
        frame: Frame<Arc<Inner<A>>>,
    },
    /// Selective ack: every frame with `seq < up_to` was received, and the
    /// listed later frames are missing (retransmit them now).
    Ack {
        /// Sender's incarnation epoch.
        src_epoch: u64,
        /// The receiver epoch the sender believes is current.
        dst_epoch: u64,
        /// The receiver's next expected sequence number.
        up_to: u64,
        /// Holes above `up_to` the receiver is waiting for.
        missing: Vec<u64>,
    },
    /// The sender permanently abandoned every frame below `from_seq`
    /// (retransmission gave up while the peer was unreachable); the
    /// receiver must advance its expectation past the gap or the stream
    /// stalls forever. Upper layers re-send semantically.
    Jump {
        /// Sender's incarnation epoch.
        src_epoch: u64,
        /// The receiver epoch the sender believes is current.
        dst_epoch: u64,
        /// First sequence number still obtainable from the sender.
        from_seq: u64,
    },
    /// "Your view of my epoch is stale — I am at `epoch` now." Sent
    /// (rate-limited) in response to traffic addressed to a previous
    /// incarnation, so peers resynchronize their streams promptly instead
    /// of waiting to hear a fresh frame.
    EpochNotice {
        /// The sender's current incarnation epoch.
        epoch: u64,
    },
}

impl<A: Application> Clone for Msg<A> {
    fn clone(&self) -> Self {
        match self {
            Msg::Frame { src_epoch, dst_epoch, frame } => Msg::Frame {
                src_epoch: *src_epoch,
                dst_epoch: *dst_epoch,
                frame: Frame { seq: frame.seq, inner: frame.inner.clone() },
            },
            Msg::Ack { src_epoch, dst_epoch, up_to, missing } => Msg::Ack {
                src_epoch: *src_epoch,
                dst_epoch: *dst_epoch,
                up_to: *up_to,
                missing: missing.clone(),
            },
            Msg::Jump { src_epoch, dst_epoch, from_seq } => {
                Msg::Jump { src_epoch: *src_epoch, dst_epoch: *dst_epoch, from_seq: *from_seq }
            }
            Msg::EpochNotice { epoch } => Msg::EpochNotice { epoch: *epoch },
        }
    }
}

/// The unframed message body.
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
    core: CoreSnapshot<A>,
}

impl<A: Application> Clone for RecoveryPayload<A> {
    fn clone(&self) -> Self {
        RecoveryPayload { snapshot: self.snapshot.clone(), core: self.core.clone() }
    }
}

/// A cloned protocol core travelling inside a [`RecoveryPayload`].
// One per actor (never collected in bulk), so variant size skew is moot.
#[allow(clippy::large_enum_variant)]
enum CoreSnapshot<A: Application> {
    Partition(ServerCore<A>),
    Oracle(OracleCore<A>),
}

impl<A: Application> Clone for CoreSnapshot<A> {
    fn clone(&self) -> Self {
        match self {
            CoreSnapshot::Partition(c) => CoreSnapshot::Partition(c.clone()),
            CoreSnapshot::Oracle(c) => CoreSnapshot::Oracle(c.clone()),
        }
    }
}

/// Node addressing shared by every actor.
#[derive(Debug)]
struct RouteTable {
    /// `groups[g][replica]` = node id.
    groups: Vec<Vec<NodeId>>,
    /// First oracle shard's group (shard `s` is `oracle_base + s`).
    oracle_base: GroupId,
    /// Number of oracle shard groups.
    oracle_shards: u32,
}

impl RouteTable {
    fn node_of(&self, m: MemberId) -> NodeId {
        self.groups[m.group.0 as usize][m.index]
    }

    fn group_nodes(&self, g: GroupId) -> &[NodeId] {
        &self.groups[g.0 as usize]
    }

    fn partition_group(&self, p: PartitionId) -> GroupId {
        GroupId(p.0)
    }

    fn oracle_group(&self, shard: u32) -> GroupId {
        debug_assert!(shard < self.oracle_shards);
        GroupId(self.oracle_base.0 + shard)
    }

    /// All oracle shard groups, in shard order.
    fn oracle_groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.oracle_shards).map(|s| GroupId(self.oracle_base.0 + s))
    }
}

/// Whether `DYNASTAR_TRACE_ARQ` diagnostics are enabled. Sampled once per
/// process: the check sits on the per-frame receive path, and an
/// `env::var_os` there (a linear scan of the environment plus an
/// allocation) costs more than the rest of the ARQ bookkeeping combined.
fn trace_arq() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    // detlint::allow(D003): opt-in diagnostic gate only — the flag toggles eprintln tracing and never feeds protocol or simulation state
    *ON.get_or_init(|| std::env::var_os("DYNASTAR_TRACE_ARQ").is_some())
}

/// Retransmission timeout for unacknowledged frames.
const RETX_AFTER: SimDuration = SimDuration::from_millis(300);
/// Give up on a peer's unacked frames after this long (crashed peer).
const RETX_GIVE_UP: SimDuration = SimDuration::from_secs(30);
/// Ack after this many unacknowledged received frames (or lazily on the
/// periodic ack flush) — batching keeps ack traffic a small fraction of
/// data traffic.
const ACK_EVERY: u64 = 64;
/// Retransmit at most this many frames per peer per timeout-driven scan.
/// Timeout retransmission is only the fallback for stream *tails* (frames
/// with nothing after them); holes inside the stream are healed precisely
/// by the selective-repeat NACKs in [`Msg::Ack`].
const RETX_WINDOW: usize = 32;
/// Maximum holes reported per ack.
const NACK_LIMIT: usize = 64;
/// Minimum spacing of lazy ack flushes.
const ACK_FLUSH_EVERY: SimDuration = SimDuration::from_millis(100);

/// Minimum spacing of epoch notices / jump announcements per peer.
const SIGNAL_EVERY: SimDuration = SimDuration::from_millis(100);

/// One peer's outstanding frames: seq → (frame, first send, latest send).
/// Frames share their body with the in-flight copy via `Arc`, so buffering
/// for retransmission costs a refcount, not a deep clone.
type SendBuf<A> = std::collections::BTreeMap<u64, (Frame<Arc<Inner<A>>>, SimTime, SimTime)>;

/// Shared actor plumbing: FIFO links + a simple ARQ (cumulative acks,
/// timeout retransmission) + message fan-out, epoch-aware so streams
/// resynchronize after either endpoint restarts (see [`Msg`]).
struct Wiring<A: Application> {
    routes: Arc<RouteTable>,
    fifo: FifoLinks<NodeId, Arc<Inner<A>>>,
    /// Reorder-buffer cap handed to [`FifoLinks`]; kept so a restarted
    /// actor can rebuild its wiring with the same bound.
    fifo_cap: usize,
    /// FIFO drops already surfaced to the metrics registry (the fifo layer
    /// keeps a monotone total; this remembers how much was reported).
    reported_fifo_drops: u64,
    /// Sent frames not yet acknowledged: per peer, seq → (frame, first
    /// send, latest (re)send). Retransmission backs off from the latest
    /// send; the give-up clock runs from the first, so resending a frame
    /// does not keep it alive forever against an unreachable peer.
    unacked: FastHashMap<NodeId, SendBuf<A>>,
    /// Last cumulative ack value sent to each peer.
    acked_to_peer: FastHashMap<NodeId, u64>,
    /// Last time lazy acks were flushed.
    last_ack_flush: SimTime,
    /// This node's incarnation epoch (0 at first boot, +1 per restart).
    my_epoch: u64,
    /// Highest incarnation epoch observed per peer (absent = 0).
    peer_epochs: FastHashMap<NodeId, u64>,
    /// Last time an epoch notice or jump was sent to each peer.
    last_signal: FastHashMap<NodeId, SimTime>,
}

impl<A: Application> Wiring<A> {
    fn new(routes: Arc<RouteTable>, fifo_cap: usize) -> Self {
        Self::with_epoch(routes, fifo_cap, 0)
    }

    fn with_epoch(routes: Arc<RouteTable>, fifo_cap: usize, my_epoch: u64) -> Self {
        Wiring {
            routes,
            fifo: FifoLinks::with_buffer_cap(fifo_cap),
            fifo_cap,
            reported_fifo_drops: 0,
            unacked: FastHashMap::default(),
            acked_to_peer: FastHashMap::default(),
            last_ack_flush: SimTime::ZERO,
            my_epoch,
            peer_epochs: FastHashMap::default(),
            last_signal: FastHashMap::default(),
        }
    }

    fn peer_epoch(&self, peer: NodeId) -> u64 {
        self.peer_epochs.get(&peer).copied().unwrap_or(0)
    }

    /// Sends one framed body to `to`. Fan-out callers wrap the body in an
    /// `Arc` once and pass clones, so every recipient (and every
    /// retransmission buffer entry) shares a single allocation.
    fn send(&mut self, ctx: &mut Ctx<'_, Msg<A>>, to: NodeId, inner: Arc<Inner<A>>) {
        let frame = self.fifo.wrap(to, inner);
        let now = ctx.now();
        self.unacked.entry(to).or_default().insert(frame.seq, (frame.clone(), now, now));
        let dst_epoch = self.peer_epoch(to);
        ctx.send(to, Msg::Frame { src_epoch: self.my_epoch, dst_epoch, frame });
    }

    /// Reconciles the epoch stamps on an incoming message. Returns `false`
    /// if the message belongs to a stale stream and must be dropped.
    fn sync_epochs(
        &mut self,
        ctx: &mut Ctx<'_, Msg<A>>,
        from: NodeId,
        src_epoch: u64,
        dst_epoch: u64,
    ) -> bool {
        if src_epoch < self.peer_epoch(from) {
            return false; // a previous incarnation of the peer
        }
        if src_epoch > self.peer_epoch(from) {
            self.note_peer_epoch(ctx, from, src_epoch);
        }
        if dst_epoch != self.my_epoch {
            // Addressed to a previous incarnation of this node: its
            // sequence numbers mean nothing to our fresh stream state.
            // Tell the peer so it resynchronizes.
            self.announce_epoch(ctx, from);
            return false;
        }
        true
    }

    /// Adopts a higher epoch for `peer`: both directions of the stream are
    /// reset (the peer's restart wiped its volatile sequencing state), and
    /// our unacknowledged frames are renumbered from 0 — in their original
    /// order — and retransmitted, so nothing already handed to [`Self::send`]
    /// is lost by the restart.
    fn note_peer_epoch(&mut self, ctx: &mut Ctx<'_, Msg<A>>, peer: NodeId, epoch: u64) {
        if epoch <= self.peer_epoch(peer) {
            return;
        }
        self.peer_epochs.insert(peer, epoch);
        ctx.metrics_mut().incr_counter(metric_names::NET_STREAM_RESETS, 1);
        self.fifo.reset_receive(&peer);
        self.acked_to_peer.remove(&peer);
        self.fifo.reset_send(&peer);
        if let Some(buf) = self.unacked.remove(&peer) {
            let now = ctx.now();
            let mut renumbered = std::collections::BTreeMap::new();
            for (_old_seq, (frame, first_sent, _last_sent)) in buf {
                let f = self.fifo.wrap(peer, frame.inner);
                // The give-up clock keeps running from the original send.
                renumbered.insert(f.seq, (f, first_sent, now));
            }
            ctx.metrics_mut()
                .incr_counter(metric_names::NET_RETRANSMISSIONS, renumbered.len() as u64);
            for (f, _, _) in renumbered.values() {
                ctx.send(
                    peer,
                    Msg::Frame { src_epoch: self.my_epoch, dst_epoch: epoch, frame: f.clone() },
                );
            }
            self.unacked.insert(peer, renumbered);
        }
    }

    /// Rate-limited "I am at epoch E now" notice.
    fn announce_epoch(&mut self, ctx: &mut Ctx<'_, Msg<A>>, peer: NodeId) {
        if !self.signal_due(ctx.now(), peer) {
            return;
        }
        ctx.send(peer, Msg::EpochNotice { epoch: self.my_epoch });
    }

    /// Rate-limited jump announcement: tells `peer` to skip past frames we
    /// no longer hold, up to the first one we can still deliver.
    fn send_jump(&mut self, ctx: &mut Ctx<'_, Msg<A>>, peer: NodeId) {
        if !self.signal_due(ctx.now(), peer) {
            return;
        }
        let from_seq = self
            .unacked
            .get(&peer)
            .and_then(|buf| buf.keys().next().copied())
            .unwrap_or_else(|| self.fifo.next_seq_to(&peer));
        let dst_epoch = self.peer_epoch(peer);
        ctx.send(peer, Msg::Jump { src_epoch: self.my_epoch, dst_epoch, from_seq });
    }

    fn signal_due(&mut self, now: SimTime, peer: NodeId) -> bool {
        if let Some(&last) = self.last_signal.get(&peer) {
            if now.saturating_duration_since(last) < SIGNAL_EVERY {
                return false;
            }
        }
        self.last_signal.insert(peer, now);
        true
    }

    /// Unwraps a released frame body for consumption: sole owner → move,
    /// otherwise (sender still buffering for retransmission, or a fan-out
    /// sibling in flight) one deep clone. Servers read direct messages in
    /// place instead (see [`ServerActor::on_message`]).
    fn unwrap_released(body: Arc<Inner<A>>) -> Inner<A> {
        Arc::try_unwrap(body).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Accepts an incoming message; appends the in-order released bodies to
    /// `ready` (nothing for acks/out-of-order frames) — the hosting actor's
    /// reusable buffer, which it drains through [`Self::unwrap_released`].
    fn receive(
        &mut self,
        ctx: &mut Ctx<'_, Msg<A>>,
        from: NodeId,
        msg: Msg<A>,
        ready: &mut Vec<Arc<Inner<A>>>,
    ) {
        match msg {
            Msg::Frame { src_epoch, dst_epoch, frame } => {
                if !self.sync_epochs(ctx, from, src_epoch, dst_epoch) {
                    return;
                }
                let gaps = self.fifo.accept(from, frame, ready);
                let drops = self.fifo.dropped_count();
                if drops > self.reported_fifo_drops {
                    ctx.metrics_mut().incr_counter(
                        metric_names::NET_FIFO_DROPS,
                        drops - self.reported_fifo_drops,
                    );
                    self.reported_fifo_drops = drops;
                }
                if trace_arq() {
                    let buffered = self.fifo.buffered_count();
                    if buffered > 200 && buffered.is_multiple_of(100) {
                        eprintln!(
                            "[arq] t={} node has {buffered} frames buffered behind gaps (from {from})",
                            ctx.now()
                        );
                    }
                }
                // Ack in batches: promptly once enough progress piles up,
                // otherwise lazily from the periodic flush. This keeps ack
                // traffic a small fraction of data traffic while bounding
                // the sender's retransmission buffer.
                let expected = self.fifo.expected_from(&from);
                let acked = self.acked_to_peer.get(&from).copied().unwrap_or(0);
                let missing =
                    if gaps { self.fifo.missing_from(&from, NACK_LIMIT) } else { Vec::new() };
                if expected >= acked + ACK_EVERY || !missing.is_empty() {
                    self.acked_to_peer.insert(from, expected);
                    self.send_ack(ctx, from, expected, missing);
                }
            }
            Msg::Ack { src_epoch, dst_epoch, up_to, missing } => {
                if !self.sync_epochs(ctx, from, src_epoch, dst_epoch) {
                    return;
                }
                let now = ctx.now();
                let mut resends = Vec::new();
                // Set when the receiver waits on a frame we abandoned: it
                // can only make progress if told to jump the gap.
                let mut unsatisfiable_hole = false;
                match self.unacked.get_mut(&from) {
                    Some(buf) => {
                        // Drop cumulatively-acked frames in place; a
                        // `split_off` here would rebuild the whole tree on
                        // every ack.
                        while buf.first_key_value().map(|(&s, _)| s < up_to).unwrap_or(false) {
                            buf.pop_first();
                        }
                        // Selective repeat: resend exactly the reported holes.
                        for seq in missing {
                            if let Some((frame, _first_sent, last_sent)) = buf.get_mut(&seq) {
                                // Rate-limit per frame: a hole may be reported
                                // by several acks before the resend lands.
                                if now.saturating_duration_since(*last_sent)
                                    >= SimDuration::from_millis(20)
                                {
                                    *last_sent = now;
                                    resends.push(frame.clone());
                                }
                            } else if seq >= up_to {
                                // Frames leave the buffer only via cumulative
                                // ack or give-up; an unheld hole was given up.
                                unsatisfiable_hole = true;
                            }
                        }
                        if buf.is_empty() {
                            self.unacked.remove(&from);
                        }
                    }
                    None => {
                        if !missing.is_empty() {
                            unsatisfiable_hole = true;
                        }
                    }
                }
                if !resends.is_empty() {
                    ctx.metrics_mut()
                        .incr_counter(metric_names::NET_RETRANSMISSIONS, resends.len() as u64);
                }
                let dst_epoch = self.peer_epoch(from);
                for frame in resends {
                    ctx.send(from, Msg::Frame { src_epoch: self.my_epoch, dst_epoch, frame });
                }
                if unsatisfiable_hole {
                    self.send_jump(ctx, from);
                }
            }
            Msg::Jump { src_epoch, dst_epoch, from_seq } => {
                if !self.sync_epochs(ctx, from, src_epoch, dst_epoch) {
                    return;
                }
                // The sender abandoned everything below `from_seq`; release
                // whatever buffered frames become deliverable past the gap.
                self.fifo.force_advance(&from, from_seq, ready);
            }
            Msg::EpochNotice { epoch } => self.note_peer_epoch(ctx, from, epoch),
        }
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_, Msg<A>>, to: NodeId, up_to: u64, missing: Vec<u64>) {
        let dst_epoch = self.peer_epoch(to);
        ctx.send(to, Msg::Ack { src_epoch: self.my_epoch, dst_epoch, up_to, missing });
    }

    /// Transport maintenance: lazy ack flush + retransmission scan, rate
    /// limited to once per [`ACK_FLUSH_EVERY`] regardless of how often the
    /// hosting actor ticks.
    fn maintain(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let now = ctx.now();
        if now.saturating_duration_since(self.last_ack_flush) < ACK_FLUSH_EVERY {
            return;
        }
        self.last_ack_flush = now;
        // Sample the reorder-buffer depth (count encoded in µs units) so
        // experiments can see how close links run to `fifo_cap`.
        ctx.metrics_mut().record_histogram(
            metric_names::NET_FIFO_BUFFERED,
            SimDuration::from_micros(self.fifo.buffered_count() as u64),
        );
        self.flush_acks(ctx);
        self.retransmit_due(ctx);
    }

    /// Flushes lazy acks for peers with unacknowledged receive progress.
    fn flush_acks(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let mut peers: Vec<NodeId> = self.fifo.receive_peers().copied().collect();
        // Fixed send order: hash-map iteration order varies per instance,
        // and send order feeds the deterministic event schedule.
        peers.sort_unstable();
        for peer in peers {
            let expected = self.fifo.expected_from(&peer);
            let acked = self.acked_to_peer.get(&peer).copied().unwrap_or(0);
            let missing = self.fifo.missing_from(&peer, NACK_LIMIT);
            if expected > acked || !missing.is_empty() {
                self.acked_to_peer.insert(peer, expected);
                self.send_ack(ctx, peer, expected, missing);
            }
        }
    }

    /// Retransmits frames unacknowledged past the timeout. Frames
    /// unacknowledged for [`RETX_GIVE_UP`] (the peer crashed, or was
    /// partitioned away for longer than we buffer) are abandoned — counted,
    /// and announced to the peer with a [`Msg::Jump`] so its stream heals
    /// with an explicit gap instead of stalling forever once it returns.
    fn retransmit_due(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let now = ctx.now();
        let mut dead_peers = Vec::new();
        let mut all_resends: Vec<(NodeId, Frame<Arc<Inner<A>>>)> = Vec::new();
        // Fixed scan order (see flush_acks): resend order must not depend
        // on hash-map iteration order or same-seed runs diverge.
        let mut scan: Vec<NodeId> = self.unacked.keys().copied().collect();
        scan.sort_unstable();
        for peer in scan {
            let Some(buf) = self.unacked.get_mut(&peer) else { continue };
            let mut resends = Vec::new();
            let mut expired = false;
            for (frame, first_sent, last_sent) in buf.values_mut() {
                // Give-up measures from the *first* send: a peer that has
                // acked nothing for this long is crashed or partitioned
                // away, and resending cannot keep the frame alive.
                if now.saturating_duration_since(*first_sent) >= RETX_GIVE_UP {
                    expired = true;
                    break;
                }
                let age = now.saturating_duration_since(*last_sent);
                if age >= RETX_AFTER {
                    *last_sent = now;
                    resends.push(frame.clone());
                    if resends.len() >= RETX_WINDOW {
                        // Pace the recovery: the receiver's cumulative ack
                        // will advance once the head of the stream heals,
                        // releasing the rest without retransmission.
                        break;
                    }
                } else {
                    // Frames are buffered in send order, so once one is
                    // too young the rest (sent later) are too. A refreshed
                    // prefix can hide an older suffix for at most one scan
                    // interval — an acceptable retransmission delay.
                    break;
                }
            }
            if expired {
                if trace_arq() {
                    eprintln!(
                        "[arq] t={} giving up on peer {peer}: dropping {} unacked frames",
                        now,
                        buf.len()
                    );
                }
                ctx.metrics_mut()
                    .incr_counter(metric_names::NET_FRAMES_ABANDONED, buf.len() as u64);
                dead_peers.push(peer);
                continue;
            }
            all_resends.extend(resends.into_iter().map(|f| (peer, f)));
        }
        if !all_resends.is_empty() {
            ctx.metrics_mut()
                .incr_counter(metric_names::NET_RETRANSMISSIONS, all_resends.len() as u64);
        }
        for (peer, frame) in all_resends {
            let dst_epoch = self.peer_epoch(peer);
            ctx.send(peer, Msg::Frame { src_epoch: self.my_epoch, dst_epoch, frame });
        }
        for peer in dead_peers {
            self.unacked.remove(&peer);
            // Announce the gap so the stream resumes when the peer returns.
            self.send_jump(ctx, peer);
        }
    }

    fn send_direct_to(&mut self, ctx: &mut Ctx<'_, Msg<A>>, dest: Destination, msg: Direct<A>) {
        match dest {
            Destination::Partition(p) => {
                let g = self.routes.partition_group(p);
                let inner = Arc::new(Inner::Direct(msg));
                // Clone the routes handle (refcount bump), not the node
                // list: `send` needs `&mut self` while we iterate.
                let routes = Arc::clone(&self.routes);
                for &node in routes.group_nodes(g) {
                    self.send(ctx, node, Arc::clone(&inner));
                }
            }
            Destination::Oracle => {
                // Every replica of every oracle shard group, in shard
                // order: the sender cannot know which shard cares, and
                // receiver-side dedup makes the extra copies harmless.
                let inner = Arc::new(Inner::Direct(msg));
                let routes = Arc::clone(&self.routes);
                for g in routes.oracle_groups() {
                    for &node in routes.group_nodes(g) {
                        self.send(ctx, node, Arc::clone(&inner));
                    }
                }
            }
            Destination::Client(node) => {
                self.send(ctx, node, Arc::new(Inner::Direct(msg)));
            }
        }
    }

    /// Resolves a core's multicast effect into destination group ids.
    fn mcast_groups(&self, partitions: &[PartitionId], oracle: OracleDest) -> Vec<GroupId> {
        let mut gs: Vec<GroupId> =
            partitions.iter().map(|&p| self.routes.partition_group(p)).collect();
        match oracle {
            OracleDest::None => {}
            OracleDest::All => gs.extend(self.routes.oracle_groups()),
            OracleDest::Shard(s) => gs.push(self.routes.oracle_group(s)),
        }
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// Client-side multicast: clients are not group members, they submit
    /// directly to every replica of every destination group.
    fn submit_as_client(
        &mut self,
        ctx: &mut Ctx<'_, Msg<A>>,
        mid: MsgId,
        groups: Vec<GroupId>,
        payload: Payload<A>,
    ) {
        // One allocation for the whole fan-out: every destination replica
        // receives a clone of the same `Arc`'d submit message.
        let inner = Arc::new(Inner::Wire(McastWire::Submit {
            mid,
            dests: groups.clone(),
            payload: Arc::new(payload),
        }));
        let routes = Arc::clone(&self.routes);
        for &g in &groups {
            for &node in routes.group_nodes(g) {
                self.send(ctx, node, Arc::clone(&inner));
            }
        }
    }
}

/// The protocol core a server actor hosts.
// One per actor (never collected in bulk), so variant size skew is moot.
#[allow(clippy::large_enum_variant)]
enum Role<A: Application> {
    Partition(ServerCore<A>),
    Oracle(OracleCore<A>),
}

impl<A: Application> Role<A> {
    fn snapshot(&self) -> CoreSnapshot<A> {
        match self {
            Role::Partition(c) => CoreSnapshot::Partition(c.clone()),
            Role::Oracle(c) => CoreSnapshot::Oracle(c.clone()),
        }
    }

    /// Stamps on the hosted core everything that is this replica's own and
    /// not its group's: a core is built from a shared config and, after a
    /// recovery, cloned from a *donor*, whose identity would otherwise come
    /// along. Every per-replica field goes through here, so a new one
    /// cannot be forgotten at one of the sites.
    fn adopt(&mut self, me: MemberId, group_size: usize, record_metrics: bool) {
        match self {
            Role::Partition(c) => {
                c.set_record_metrics(record_metrics);
                c.set_replica(me.index as u32, group_size as u32);
            }
            Role::Oracle(c) => c.set_record_metrics(record_metrics),
        }
    }
}

/// How often a recovering replica re-requests missing peer snapshots.
const RECOVERY_RETRY: SimDuration = SimDuration::from_millis(500);

/// Total-order deliveries waiting to be fed to the hosted core.
type Deliveries<A> = std::collections::VecDeque<dynastar_amcast::Delivery<Arc<Payload<A>>>>;

/// One peer's donated state: its multicast snapshot + protocol core.
type Donation<A> = (MemberSnapshot<Arc<Payload<A>>>, CoreSnapshot<A>);

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

/// A replica actor: one multicast member plus a partition or oracle core.
///
/// Implements the crash-recovery fault model: the promised ballot and the
/// incarnation epoch live in simulated stable storage; everything else is
/// volatile. After a restart the actor comes back `recovering` — it
/// ignores protocol traffic, asks its group peers for state, and installs
/// once a quorum of [`RecoveryMsg::Response`]s arrived (consensus safety
/// needs the quorum; see [`dynastar_paxos::RecoveryReport`]). A replica
/// that falls farther behind than peers retain log for takes the same
/// state-transfer path without restarting. Groups need ≥ 3 replicas for
/// recovery to terminate — smaller groups cannot assemble a quorum of
/// *peer* snapshots.
pub struct ServerActor<A: Application> {
    member: McastMember<Arc<Payload<A>>>,
    role: Role<A>,
    wiring: Wiring<A>,
    tick: SimDuration,
    /// This replica's multicast address (kept for reconstruction).
    me: MemberId,
    topo: Topology,
    group_cfg: GroupConfig,
    /// Whether this replica records group-level metrics (replica 0 only,
    /// so per-group series are not multiplied by the replication factor).
    record_metrics: bool,
    /// Incarnation epoch (0 at first boot, +1 per restart; persisted).
    epoch: u64,
    /// Last `(promised, epoch)` written to stable storage.
    persisted: (Ballot, u64),
    /// Set between a restart (or far-lag detection) and snapshot install.
    recovering: bool,
    /// Peer state donations collected while recovering.
    recovery_snaps: BTreeMap<NodeId, Donation<A>>,
    /// Previous `is_leader()` observation, for the election counter.
    was_leader: bool,
    /// Released frame bodies of the message being handled (reused buffer).
    inbox: Vec<Arc<Inner<A>>>,
}

impl<A: Application> ServerActor<A> {
    /// A value `persisted` can never legitimately hold, forcing the first
    /// [`Self::persist_consensus`] to write.
    const NEVER_PERSISTED: (Ballot, u64) =
        (Ballot { round: u64::MAX, owner: usize::MAX }, u64::MAX);

    #[allow(clippy::too_many_arguments)]
    fn new(
        member: McastMember<Arc<Payload<A>>>,
        mut role: Role<A>,
        wiring: Wiring<A>,
        tick: SimDuration,
        me: MemberId,
        topo: Topology,
        group_cfg: GroupConfig,
        record_metrics: bool,
    ) -> Self {
        role.adopt(me, group_cfg.size, record_metrics);
        ServerActor {
            member,
            role,
            wiring,
            tick,
            me,
            topo,
            group_cfg,
            record_metrics,
            epoch: 0,
            persisted: Self::NEVER_PERSISTED,
            recovering: false,
            recovery_snaps: BTreeMap::new(),
            was_leader: false,
            inbox: Vec::new(),
        }
    }

    /// Node ids of this replica's group peers (everyone but itself).
    fn group_peers(&self) -> Vec<NodeId> {
        let mine = self.wiring.routes.node_of(self.me);
        self.wiring
            .routes
            .group_nodes(self.me.group)
            .iter()
            .copied()
            .filter(|&n| n != mine)
            .collect()
    }

    /// Writes the consensus-critical blob to stable storage when it
    /// changed. Handlers run atomically with respect to crash events, so
    /// persisting at the end of a handler is equivalent to persisting
    /// before the promise left the node.
    fn persist_consensus(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let promised = self.member.promised();
        if (promised, self.epoch) != self.persisted {
            self.persisted = (promised, self.epoch);
            ctx.persist(&encode_stable(promised, self.epoch));
        }
    }

    /// Drains leader-side batching statistics from the consensus layer.
    /// Every replica drains (the per-flush samples are bounded but must
    /// not accumulate forever); only the designated metrics replica
    /// publishes them. Batch sizes and window occupancies are counts,
    /// recorded into duration histograms in µs units.
    fn drain_batch_stats(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let stats = self.member.take_batch_stats();
        if !self.record_metrics || stats.batches == 0 {
            return;
        }
        let m = ctx.metrics_mut();
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
    }

    /// Counts rising edges of local leadership.
    fn note_leadership(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let lead = self.member.is_leader();
        if lead && !self.was_leader {
            ctx.metrics_mut().incr_counter(metric_names::LEADER_ELECTIONS, 1);
        }
        self.was_leader = lead;
    }

    /// Enters the recovering state and solicits peer snapshots.
    fn begin_recovery(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        self.recovering = true;
        self.recovery_snaps.clear();
        self.was_leader = false;
        self.request_snapshots(ctx);
        ctx.set_timer(RECOVERY_RETRY, timer::RECOVER);
    }

    fn request_snapshots(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        for peer in self.group_peers() {
            if !self.recovery_snaps.contains_key(&peer) {
                self.wiring.send(ctx, peer, Arc::new(Inner::Recovery(RecoveryMsg::Request)));
            }
        }
    }

    fn handle_recovery(&mut self, ctx: &mut Ctx<'_, Msg<A>>, from: NodeId, msg: RecoveryMsg<A>) {
        match msg {
            RecoveryMsg::Request => {
                // Only group peers are answered, and only with coherent
                // state — a replica mid-recovery has none to give.
                if self.recovering || !self.wiring.routes.group_nodes(self.me.group).contains(&from)
                {
                    return;
                }
                let snapshot = self.member.snapshot();
                let elements = snapshot.approx_elements();
                let core = self.role.snapshot();
                let m = ctx.metrics_mut();
                m.incr_counter(metric_names::RECOVERY_SNAPSHOTS, 1);
                m.incr_counter(metric_names::RECOVERY_SNAPSHOT_ELEMENTS, elements);
                self.wiring.send(
                    ctx,
                    from,
                    Arc::new(Inner::Recovery(RecoveryMsg::Response(Box::new(RecoveryPayload {
                        snapshot,
                        core,
                    })))),
                );
            }
            RecoveryMsg::Response(payload) => {
                if !self.recovering {
                    return; // late or duplicate donation
                }
                self.recovery_snaps.insert(from, (payload.snapshot, payload.core));
                self.try_install(ctx);
            }
        }
    }

    /// Installs the donated state once a quorum of snapshots is held.
    fn try_install(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        if self.recovery_snaps.len() < self.group_cfg.quorum() {
            return;
        }
        let floor = self.persisted.0;
        let snaps: Vec<MemberSnapshot<Arc<Payload<A>>>> =
            self.recovery_snaps.values().map(|(s, _)| s.clone()).collect();
        let (member, out, donor) =
            McastMember::recover(self.me, self.topo.clone(), self.group_cfg.clone(), floor, &snaps);
        self.member = member;
        // The core must come from the same donor the multicast layer took
        // its bookkeeping from, or replica state and log position diverge.
        // `donor` indexes the same snapshot list we just passed to
        // recover(); if it is somehow out of range, stay in recovery and
        // let the retry timer re-request snapshots instead of panicking.
        let Some(donor_core) = self.recovery_snaps.values().nth(donor).map(|d| d.1.clone()) else {
            return;
        };
        self.role = match donor_core {
            CoreSnapshot::Partition(c) => Role::Partition(c),
            CoreSnapshot::Oracle(c) => Role::Oracle(c),
        };
        self.role.adopt(self.me, self.group_cfg.size, self.record_metrics);
        self.recovering = false;
        self.recovery_snaps.clear();
        ctx.cancel_timer(timer::RECOVER);
        ctx.metrics_mut().incr_counter(metric_names::RECOVERY_COMPLETIONS, 1);
        self.absorb(ctx, out);
        self.note_leadership(ctx);
        self.persist_consensus(ctx);
    }

    /// Routes a multicast-layer output: sends wires, feeds deliveries to
    /// the core, and recursively handles the effects.
    fn absorb(&mut self, ctx: &mut Ctx<'_, Msg<A>>, out: McastOutput<Arc<Payload<A>>>) {
        for (to, wire) in out.outgoing {
            let node = self.wiring.routes.node_of(to);
            self.wiring.send(ctx, node, Arc::new(Inner::Wire(wire)));
        }
        self.drain_deliveries(ctx, out.delivered.into());
    }

    /// Applies a core's effects, then whatever they caused to be delivered.
    fn run_effects(&mut self, ctx: &mut Ctx<'_, Msg<A>>, effects: Vec<Effect<A>>) {
        let mut deliveries = Deliveries::new();
        self.apply_effects(ctx, effects, &mut deliveries);
        self.drain_deliveries(ctx, deliveries);
    }

    /// Feeds deliveries to the core in total order (FIFO); the effects of
    /// one may append further deliveries, which are drained in turn.
    fn drain_deliveries(&mut self, ctx: &mut Ctx<'_, Msg<A>>, mut deliveries: Deliveries<A>) {
        while let Some(d) = deliveries.pop_front() {
            let now = ctx.now();
            let effects = {
                let metrics = ctx.metrics_mut();
                match &mut self.role {
                    Role::Partition(core) => core.on_deliver(d.payload, now, metrics),
                    Role::Oracle(core) => core.on_deliver(d.payload, now, metrics),
                }
            };
            self.apply_effects(ctx, effects, &mut deliveries);
        }
    }

    fn apply_effects(
        &mut self,
        ctx: &mut Ctx<'_, Msg<A>>,
        effects: Vec<Effect<A>>,
        deliveries: &mut Deliveries<A>,
    ) {
        for eff in effects {
            match eff {
                Effect::Multicast { mid, partitions, oracle, payload } => {
                    let groups = self.wiring.mcast_groups(&partitions, oracle);
                    let out = self.member.submit(mid, groups, Arc::new(payload));
                    for (to, wire) in out.outgoing {
                        let node = self.wiring.routes.node_of(to);
                        self.wiring.send(ctx, node, Arc::new(Inner::Wire(wire)));
                    }
                    deliveries.extend(out.delivered);
                }
                Effect::Send { to, msg } => self.wiring.send_direct_to(ctx, to, msg),
                Effect::SchedulePlan { after } => ctx.set_timer(after, timer::PLAN),
                Effect::Wake { at } => {
                    let delay = at.saturating_duration_since(ctx.now());
                    ctx.set_timer(delay, timer::WAKE);
                }
            }
        }
    }

    fn handle_direct(&mut self, ctx: &mut Ctx<'_, Msg<A>>, msg: &Direct<A>) {
        let now = ctx.now();
        let effects = {
            let metrics = ctx.metrics_mut();
            match &mut self.role {
                Role::Partition(core) => core.on_direct(msg, now, metrics),
                Role::Oracle(core) => core.on_direct(msg, now, metrics),
            }
        };
        self.run_effects(ctx, effects);
    }
}

impl<A: Application> Actor<Msg<A>> for ServerActor<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        ctx.set_timer(self.tick, timer::TICK);
        self.persist_consensus(ctx);
    }

    /// Diagnostic convergence probe: partitions report their owned keys,
    /// oracle replicas their key→partition map. A recovering replica
    /// reports `None` — its placeholder core is not authoritative.
    fn location_view(&self) -> Option<Vec<(u64, u32)>> {
        if self.recovering {
            return None;
        }
        match &self.role {
            Role::Partition(core) => Some(core.location_view()),
            Role::Oracle(core) => Some(core.location_view()),
        }
    }

    /// Crash-recovery boot: volatile state (multicast member, protocol
    /// core, transport streams) is re-created empty under a bumped
    /// incarnation epoch, the consensus floor is read back from stable
    /// storage, and the actor enters recovery to rebuild from a quorum of
    /// peer snapshots.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg<A>>, stable: &[u8]) {
        let (floor, old_epoch) = decode_stable(stable);
        self.epoch = old_epoch + 1;
        // Persist immediately: a crash during recovery must still bump.
        self.persisted = (floor, self.epoch);
        ctx.persist(&encode_stable(floor, self.epoch));
        let routes = Arc::clone(&self.wiring.routes);
        self.wiring = Wiring::with_epoch(routes, self.wiring.fifo_cap, self.epoch);
        // Placeholder member/core: gated behind `recovering`, replaced
        // wholesale at install (the t0 preload cannot be replayed, so a
        // restarted replica always takes the snapshot path).
        self.member =
            McastMember::with_group_config(self.me, self.topo.clone(), self.group_cfg.clone());
        self.was_leader = false;
        ctx.set_timer(self.tick, timer::TICK);
        self.begin_recovery(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<A>>, from: NodeId, msg: Msg<A>) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.wiring.receive(ctx, from, msg, &mut inbox);
        for body in inbox.drain(..) {
            // While recovering the member/core hold placeholder state:
            // protocol traffic is dropped (the group tolerates it — we
            // are the faulty minority) and replaced by the snapshot.
            if let Inner::Direct(d) = &*body {
                // Shared with the sender's retransmission buffer, and more
                // often than not a repeat: the core copies it if it is new.
                if !self.recovering {
                    self.handle_direct(ctx, d);
                }
                continue;
            }
            match Wiring::unwrap_released(body) {
                Inner::Wire(wire) => {
                    if self.recovering {
                        continue;
                    }
                    let out = self.member.on_message(wire);
                    self.absorb(ctx, out);
                }
                Inner::Recovery(r) => self.handle_recovery(ctx, from, r),
                Inner::Direct(_) => {} // read in place above
            }
        }
        self.inbox = inbox;
        if !self.recovering {
            self.note_leadership(ctx);
            self.persist_consensus(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<A>>, tag: u64) {
        match tag {
            timer::TICK => {
                if !self.recovering {
                    let out = self.member.tick();
                    self.absorb(ctx, out);
                    self.drain_batch_stats(ctx);
                    let now = ctx.now();
                    let effects = {
                        let metrics = ctx.metrics_mut();
                        match &mut self.role {
                            Role::Oracle(core) => core.on_tick(now, metrics),
                            Role::Partition(_) => Vec::new(),
                        }
                    };
                    self.run_effects(ctx, effects);
                    if self.member.needs_state_transfer() {
                        // Fell farther behind than peers retain log for
                        // (e.g. a long partition): only a snapshot can
                        // catch this replica up.
                        self.begin_recovery(ctx);
                    } else {
                        self.note_leadership(ctx);
                        self.persist_consensus(ctx);
                    }
                }
                self.wiring.maintain(ctx);
                ctx.set_timer(self.tick, timer::TICK);
            }
            timer::RECOVER if self.recovering => {
                self.request_snapshots(ctx);
                ctx.set_timer(RECOVERY_RETRY, timer::RECOVER);
            }
            timer::PLAN => {
                if self.recovering {
                    return;
                }
                let now = ctx.now();
                let effects = {
                    let metrics = ctx.metrics_mut();
                    match &mut self.role {
                        Role::Oracle(core) => core.on_plan_timer(now, metrics),
                        Role::Partition(_) => Vec::new(),
                    }
                };
                self.run_effects(ctx, effects);
            }
            timer::WAKE => {
                if self.recovering {
                    return;
                }
                let now = ctx.now();
                let effects = {
                    let metrics = ctx.metrics_mut();
                    match &mut self.role {
                        Role::Partition(core) => core.on_wake(now, metrics),
                        Role::Oracle(_) => Vec::new(),
                    }
                };
                self.run_effects(ctx, effects);
            }
            _ => {}
        }
    }
}

/// A closed-loop client actor driving a [`Workload`].
pub struct ClientActor<A: Application, W: Workload<A>> {
    core: ClientCore<A>,
    workload: W,
    wiring: Wiring<A>,
    timeout: SimDuration,
    /// Uniform random delay before the first command, to de-synchronize
    /// client start-up.
    start_jitter: SimDuration,
    /// Set when the workload returns `None`.
    done: bool,
    /// Released frame bodies of the message being handled (reused buffer).
    inbox: Vec<Arc<Inner<A>>>,
}

impl<A: Application, W: Workload<A>> ClientActor<A, W> {
    fn apply_effects(&mut self, ctx: &mut Ctx<'_, Msg<A>>, effects: Vec<Effect<A>>) {
        for eff in effects {
            match eff {
                Effect::Multicast { mid, partitions, oracle, payload } => {
                    let groups = self.wiring.mcast_groups(&partitions, oracle);
                    self.wiring.submit_as_client(ctx, mid, groups, payload);
                }
                Effect::Send { to, msg } => self.wiring.send_direct_to(ctx, to, msg),
                Effect::Wake { at } => {
                    let delay = at.saturating_duration_since(ctx.now());
                    ctx.set_timer(delay, timer::BACKOFF);
                }
                Effect::SchedulePlan { .. } => {}
            }
        }
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        if self.done || self.core.is_busy() {
            return;
        }
        let now = ctx.now();
        match self.workload.next_command(now, ctx.rng()) {
            Some(kind) => {
                let now = ctx.now();
                let effects = self.core.issue(kind, now);
                self.apply_effects(ctx, effects);
                ctx.set_timer(self.timeout, timer::TIMEOUT);
            }
            None => {
                self.done = true;
                ctx.cancel_timer(timer::TIMEOUT);
            }
        }
    }
}

impl<A: Application, W: Workload<A>> Actor<Msg<A>> for ClientActor<A, W> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        ctx.set_timer(self.start_jitter, timer::START);
        ctx.set_timer(SimDuration::from_millis(100), timer::RETX);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<A>>, from: NodeId, msg: Msg<A>) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.wiring.receive(ctx, from, msg, &mut inbox);
        for body in inbox.drain(..) {
            let Inner::Direct(d) = Wiring::unwrap_released(body) else { continue };
            let now = ctx.now();
            let (effects, event) = {
                let metrics = ctx.metrics_mut();
                self.core.on_direct(d, now, metrics)
            };
            self.apply_effects(ctx, effects);
            if let Some(ClientEvent::Completed { cmd, reply, ok, .. }) = event {
                ctx.cancel_timer(timer::TIMEOUT);
                let now = ctx.now();
                self.workload.on_completed(now, &cmd, if ok { reply.as_ref() } else { None });
                let think = self.workload.think_time(now, ctx.rng());
                if think == SimDuration::ZERO {
                    self.issue_next(ctx);
                } else {
                    ctx.set_timer(think, timer::THINK);
                }
            } else if self.core.is_busy() {
                // Retry dispatched: refresh the response timeout.
                ctx.set_timer(self.timeout, timer::TIMEOUT);
            }
        }
        self.inbox = inbox;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<A>>, tag: u64) {
        match tag {
            timer::START | timer::THINK => self.issue_next(ctx),
            timer::TIMEOUT if self.core.is_busy() => {
                let now = ctx.now();
                let effects = {
                    let metrics = ctx.metrics_mut();
                    self.core.on_timeout(now, metrics)
                };
                self.apply_effects(ctx, effects);
                ctx.set_timer(self.timeout, timer::TIMEOUT);
            }
            timer::RETX => {
                self.wiring.maintain(ctx);
                ctx.set_timer(SimDuration::from_millis(100), timer::RETX);
            }
            timer::BACKOFF => {
                let now = ctx.now();
                let effects = self.core.on_backoff(now);
                self.apply_effects(ctx, effects);
                if self.core.is_busy() {
                    // The deferred retry is on the wire: arm the response
                    // timeout afresh so the backoff window doesn't eat it.
                    ctx.set_timer(self.timeout, timer::TIMEOUT);
                }
            }
            _ => {}
        }
    }
}

/// Deployment parameters for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of state partitions.
    pub partitions: u32,
    /// Replicas per group (partitions and oracle alike).
    pub replicas: usize,
    /// Execution mode (DynaStar / S-SMR / DS-SMR).
    pub mode: Mode,
    /// Master seed for the simulation.
    pub seed: u64,
    /// Network model.
    pub net: NetConfig,
    /// Multicast/consensus tick interval.
    pub tick: SimDuration,
    /// Partition server tunables.
    pub server: ServerConfig,
    /// Workload-graph change count that triggers repartitioning.
    pub repartition_threshold: u64,
    /// Minimum time between repartitionings.
    pub min_plan_interval: SimDuration,
    /// Modelled partitioner latency: base + per-element.
    pub compute_base: SimDuration,
    /// Modelled partitioner latency per graph element.
    pub compute_per_element: SimDuration,
    /// Modelled execution engine at partition replicas: worker count,
    /// per-command CPU time and dependency-window size. The default
    /// (serial, zero service time) models infinite-speed servers; set a
    /// service time to get saturation behaviour and raise `workers` for
    /// conflict-aware parallel execution (see [`ExecConfig`]).
    pub exec: ExecConfig,
    /// Client response timeout before re-dispatch through the oracle.
    pub client_timeout: SimDuration,
    /// Base delay clients wait before re-dispatching after a stale-routing
    /// `Retry` (exponential per attempt). Zero retries immediately — the
    /// historical behaviour; set it to absorb migration-induced retry
    /// storms as backpressure instead of load.
    pub client_retry_backoff: SimDuration,
    /// Seed client caches with the initial placement (always done for
    /// S-SMR, whose map is static).
    pub warm_client_caches: bool,
    /// Metrics time-series bucket.
    pub metrics_bucket: SimDuration,
    /// Leader-side command batching / instance pipelining, applied to
    /// every consensus group (partitions and oracle alike, unless
    /// [`ClusterConfig::oracle_batch`] overrides the oracle's). The
    /// default ([`BatchConfig::UNBATCHED`]) reproduces the unbatched
    /// pipeline.
    pub batch: BatchConfig,
    /// Maximum out-of-order frames buffered per peer in the transport's
    /// FIFO reorder buffers. Frames past the cap are dropped (and counted);
    /// the ARQ layer retransmits them, so the bound trades memory for
    /// recovery latency only.
    pub fifo_buffer_cap: usize,
    /// Oracle workload-graph vertex cap (decay-based eviction beyond it).
    pub max_graph_vertices: usize,
    /// Oracle workload-graph edge cap.
    pub max_graph_edges: usize,
    /// Oracle warm-start repartitioning (incremental `partition_from`
    /// seeded from the current plan; see `OracleConfig::warm_start`).
    pub warm_plans: bool,
    /// Warm-plan quality gate: accepted while the warm cut stays within
    /// this ratio of the last full multilevel run's.
    pub warm_quality_ratio: f64,
    /// Warm-plan churn gate: full recompute when keys created + deleted
    /// since the last plan exceed this fraction of the keyspace.
    pub warm_churn_limit: f64,
    /// Number of oracle shard groups (DESIGN.md §7). Shard `s` owns the
    /// [`crate::routing::shard_of`] slice of the key→partition map and is
    /// multicast group `partitions + s`; shard 0 is the planner. The
    /// default `1` reproduces the unsharded oracle byte-for-byte.
    pub oracle_shards: u32,
    /// Non-planner shards ship their accumulated hint delta to the planner
    /// once this many graph changes pile up (see
    /// [`OracleConfig::digest_threshold`]).
    pub oracle_digest_threshold: u64,
    /// Trickle-flush interval for sub-threshold digest deltas (see
    /// [`OracleConfig::digest_interval`]).
    pub oracle_digest_interval: SimDuration,
    /// Client-side location caching. Disabling it forces every command
    /// through an oracle `Exec` query — the cold-cache flash-crowd load
    /// the fig8 oracle benchmark measures shard scaling under.
    pub client_location_cache: bool,
    /// Ordering batch / pipelining config for the oracle shard groups
    /// alone (`None` = share [`ClusterConfig::batch`]). fig8's shard
    /// sweep pins the oracle window to one in-flight instance per leader
    /// — making each shard's leader a genuine serialization point —
    /// while the partition groups keep the unbounded default.
    pub oracle_batch: Option<BatchConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions: 2,
            replicas: 3,
            mode: Mode::Dynastar,
            seed: 1,
            net: NetConfig::default(),
            tick: SimDuration::from_millis(1),
            server: ServerConfig::default(),
            repartition_threshold: 2_000,
            min_plan_interval: SimDuration::from_secs(30),
            compute_base: SimDuration::from_millis(50),
            compute_per_element: SimDuration::from_micros(1),
            exec: ExecConfig::default(),
            client_timeout: SimDuration::from_secs(10),
            client_retry_backoff: SimDuration::ZERO,
            warm_client_caches: false,
            metrics_bucket: SimDuration::from_secs(1),
            batch: BatchConfig::UNBATCHED,
            fifo_buffer_cap: 4_096,
            max_graph_vertices: 1 << 18,
            max_graph_edges: 1 << 20,
            warm_plans: true,
            warm_quality_ratio: 1.1,
            warm_churn_limit: 0.25,
            oracle_shards: 1,
            oracle_digest_threshold: 256,
            oracle_digest_interval: SimDuration::from_millis(500),
            client_location_cache: true,
            oracle_batch: None,
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
        let k = cfg.partitions as usize;
        assert!(cfg.oracle_shards > 0, "cluster needs at least one oracle shard");
        let o = cfg.oracle_shards as usize;
        let sim_cfg = SimConfig::default()
            .seed(cfg.seed)
            .net(cfg.net.clone())
            .metrics_bucket(cfg.metrics_bucket);
        let mut sim: Simulation<Msg<A>> = Simulation::new(sim_cfg);

        let topo = Topology::uniform(k + o, cfg.replicas);
        let oracle_base = GroupId(k as u32);
        // One shared consensus config (timing + batching) for every group;
        // also stored per actor so restarted replicas reconstruct identically.
        // Oracle shard groups may pin their own batching (fig8's leader
        // serialization model) without touching the partitions'.
        let group_cfg = GroupConfig::with_timing(cfg.replicas, 600, 2).with_batching(cfg.batch);
        let oracle_group_cfg = GroupConfig::with_timing(cfg.replicas, 600, 2)
            .with_batching(cfg.oracle_batch.unwrap_or(cfg.batch));

        // Reserve node ids first so the route table is complete before any
        // actor is constructed.
        let mut groups: Vec<Vec<NodeId>> = Vec::with_capacity(k + o);
        // Node ids are assigned sequentially by add_node; precompute them.
        let mut next = 0u32;
        for _ in 0..k + o {
            let mut g = Vec::with_capacity(cfg.replicas);
            for _ in 0..cfg.replicas {
                g.push(NodeId::from_raw(next));
                next += 1;
            }
            groups.push(g);
        }
        let routes = Arc::new(RouteTable { groups, oracle_base, oracle_shards: cfg.oracle_shards });

        // Group initial variables by partition.
        let mut vars_by_part: Vec<Vec<(VarId, A::Value)>> = vec![Vec::new(); k];
        for (v, val) in self.initial_vars.drain(..) {
            let key = A::locality(v);
            let p = *self
                .placement
                .get(&key)
                // detlint::allow(P003): ClusterBuilder::build runs at test/bench setup, before any replica exists; a mis-specified fixture should fail fast
                .unwrap_or_else(|| panic!("initial var {v} has unplaced key {key}"));
            vars_by_part[p.0 as usize].push((v, val));
        }
        let mut keys_by_part: Vec<Vec<LocKey>> = vec![Vec::new(); k];
        for (&key, &p) in &self.placement {
            keys_by_part[p.0 as usize].push(key);
        }

        // Partition replicas.
        for p in 0..k {
            for r in 0..cfg.replicas {
                let mut core = ServerCore::<A>::new(
                    PartitionId(p as u32),
                    cfg.mode,
                    ServerConfig {
                        collect_hints: cfg.mode.optimizes() && cfg.server.collect_hints,
                        exec: cfg.exec,
                        ..cfg.server.clone()
                    },
                );
                core.preload(keys_by_part[p].iter().copied(), vars_by_part[p].iter().cloned());
                let me = MemberId::new(GroupId(p as u32), r);
                let actor = ServerActor::new(
                    McastMember::with_group_config(me, topo.clone(), group_cfg.clone()),
                    Role::Partition(core),
                    Wiring::new(Arc::clone(&routes), cfg.fifo_buffer_cap),
                    cfg.tick,
                    me,
                    topo.clone(),
                    group_cfg.clone(),
                    r == 0,
                );
                let id = sim.add_node(format!("p{p}r{r}"), actor);
                debug_assert_eq!(id, routes.groups[p][r]);
            }
        }
        // Oracle shard replicas. Every shard replicates the full map;
        // slice ownership (nok authority, location_view) comes from the
        // per-core shard index.
        for s in 0..cfg.oracle_shards {
            for r in 0..cfg.replicas {
                let mut core = OracleCore::<A>::new(OracleConfig {
                    partitions: cfg.partitions,
                    mode: cfg.mode,
                    repartition_threshold: cfg.repartition_threshold,
                    compute_base: cfg.compute_base,
                    compute_per_element: cfg.compute_per_element,
                    balance_factor: 1.2,
                    decay_hints: true,
                    min_plan_interval: cfg.min_plan_interval,
                    // Per-replica; `ServerActor::new` stamps it.
                    record_metrics: true,
                    max_graph_vertices: cfg.max_graph_vertices,
                    max_graph_edges: cfg.max_graph_edges,
                    warm_start: cfg.warm_plans,
                    warm_quality_ratio: cfg.warm_quality_ratio,
                    warm_churn_limit: cfg.warm_churn_limit,
                    shards: cfg.oracle_shards,
                    shard: s,
                    digest_threshold: cfg.oracle_digest_threshold,
                    digest_interval: cfg.oracle_digest_interval,
                });
                core.preload_map(self.placement.iter().map(|(&kk, &p)| (kk, p)));
                let me = MemberId::new(GroupId(k as u32 + s), r);
                let actor = ServerActor::new(
                    McastMember::with_group_config(me, topo.clone(), oracle_group_cfg.clone()),
                    Role::Oracle(core),
                    Wiring::new(Arc::clone(&routes), cfg.fifo_buffer_cap),
                    cfg.tick,
                    me,
                    topo.clone(),
                    oracle_group_cfg.clone(),
                    r == 0,
                );
                // The single-shard name stays `oracle-r{r}`: node names feed
                // nothing deterministic, but diffable traces are nice.
                let name = if cfg.oracle_shards == 1 {
                    format!("oracle-r{r}")
                } else {
                    format!("oracle-s{s}r{r}")
                };
                let id = sim.add_node(name, actor);
                debug_assert_eq!(id, routes.groups[k + s as usize][r]);
            }
        }

        Cluster { sim, routes, config: cfg, placement: self.placement.clone(), clients: Vec::new() }
    }
}

/// One replica's key→partition location map as sorted `(key, partition)`
/// pairs: a partition replica reports the keys it owns, an oracle replica
/// the full map. See [`Cluster::location_views`].
pub type LocationView = Vec<(u64, u32)>;

/// A running simulated deployment: the simulation, its replicas, and the
/// clients added so far.
pub struct Cluster<A: Application> {
    /// The underlying simulation (exposed for metrics and time control).
    pub sim: Simulation<Msg<A>>,
    routes: Arc<RouteTable>,
    /// The configuration the cluster was built with.
    pub config: ClusterConfig,
    placement: BTreeMap<LocKey, PartitionId>,
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
        let mut core = ClientCore::new(id, self.config.mode);
        core.set_retry_backoff(self.config.client_retry_backoff);
        core.set_oracle_shards(self.config.oracle_shards);
        // S-SMR has no oracle fallback: its static map must stay cached
        // regardless of the cache knob.
        if !self.config.client_location_cache && self.config.mode != Mode::SSmr {
            core.set_location_cache(false);
        } else if self.config.warm_client_caches || self.config.mode == Mode::SSmr {
            core.preload_cache(self.placement.iter().map(|(&k, &p)| (k, p)));
        }
        let jitter_us = 1 + (idx as u64 * 137) % 5_000;
        let actor = ClientActor {
            core,
            workload,
            wiring: Wiring::new(Arc::clone(&self.routes), self.config.fifo_buffer_cap),
            timeout: self.config.client_timeout,
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
        &self.routes.groups
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
    use crate::payload::PAYLOAD_CLONES;
    use crate::server::CHUNK_SENDS;
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
