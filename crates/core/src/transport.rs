//! The simulated deployment's transport: per-link FIFO framing plus a
//! simple ARQ (cumulative and selective acks, timeout retransmission,
//! give-up with an announced gap), epoch-aware so streams resynchronize
//! after either endpoint restarts. It moves opaque [`Inner`] bodies
//! between nodes and knows nothing of groups, cores or routing — that is
//! the [host](crate::host)'s side of the seam.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::VecDeque;
use std::sync::Arc;

use dynastar_runtime::fifo::{FifoLinks, Frame};
use dynastar_runtime::{Ctx, FastHashMap, NodeId, SimDuration, SimTime};

use crate::command::Application;
use crate::host::Inner;
use crate::metric_names;

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

/// Whether `DYNASTAR_TRACE_ARQ` diagnostics are enabled. Sampled once per
/// process: the check sits on the per-frame receive path, and an
/// `env::var_os` there (a linear scan of the environment plus an
/// allocation) costs more than the rest of the ARQ bookkeeping combined.
#[expect(
    clippy::disallowed_methods,
    reason = "opt-in diagnostic gate only: the flag toggles eprintln tracing and never feeds protocol or simulation state"
)]
fn trace_arq() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
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
/// Minimum spacing of NACK-driven resends of one frame: a hole may be
/// reported by several acks before the resend lands.
const NACK_RESEND_EVERY: SimDuration = SimDuration::from_millis(20);
/// Maximum out-of-order frames buffered per peer in the FIFO reorder
/// buffers. Frames past the cap are dropped (and counted); the ARQ
/// retransmits them, so the bound trades memory for recovery latency only.
const FIFO_BUFFER_CAP: usize = 4_096;

/// One peer's outstanding frames in send order: (frame, first send, latest
/// send). Sequence numbers to a peer are contiguous and frames leave only
/// from the front (cumulative ack) or all at once (give-up), so the frame
/// with sequence number `seq` sits at index `seq - front.seq`. Frames share
/// their body with the in-flight copy via `Arc`, so buffering for
/// retransmission costs a refcount, not a deep clone.
type SendBuf<A> = VecDeque<(Frame<Arc<Inner<A>>>, SimTime, SimTime)>;

/// One node's end of every link: FIFO framing + a simple ARQ (cumulative
/// acks, timeout retransmission), epoch-aware so streams resynchronize
/// after either endpoint restarts (see [`Msg`]).
pub(crate) struct Wiring<A: Application> {
    fifo: FifoLinks<NodeId, Arc<Inner<A>>>,
    /// FIFO drops already surfaced to the metrics registry (the fifo layer
    /// keeps a monotone total; this remembers how much was reported).
    reported_fifo_drops: u64,
    /// Sent frames not yet acknowledged: per peer, (frame, first send,
    /// latest (re)send) in sequence order. Retransmission backs off from
    /// the latest send; the give-up clock runs from the first, so resending
    /// a frame does not keep it alive forever against an unreachable peer.
    /// A buffer the acks empty stays in the map, keeping its capacity.
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
    /// Fresh streams to every peer, under incarnation epoch `my_epoch`
    /// (0 at first boot; a restarted node passes its bumped epoch).
    pub(crate) fn new(my_epoch: u64) -> Self {
        Wiring {
            fifo: FifoLinks::with_buffer_cap(FIFO_BUFFER_CAP),
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

    /// Sends one framed body to `to`. The body is usually shared: a
    /// fan-out, wire or direct, hands every recipient a clone of one `Arc`,
    /// and the retransmission buffer entry holds another, so a body is
    /// allocated once per recipient set, not once per peer.
    pub(crate) fn send(&mut self, ctx: &mut Ctx<'_, Msg<A>>, to: NodeId, inner: Arc<Inner<A>>) {
        let frame = self.fifo.wrap(to, inner);
        let now = ctx.now();
        let buf = self.unacked.entry(to).or_default();
        debug_assert!(buf.back().is_none_or(|(last, _, _)| last.seq + 1 == frame.seq));
        buf.push_back((frame.clone(), now, now));
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
        if let Some(buf) = self.unacked.get_mut(&peer).filter(|buf| !buf.is_empty()) {
            let now = ctx.now();
            for (frame, _first_sent, last_sent) in buf.iter_mut() {
                *frame = self.fifo.wrap(peer, Arc::clone(&frame.inner));
                // The give-up clock keeps running from the original send.
                *last_sent = now;
            }
            ctx.metrics_mut().incr_counter(metric_names::NET_RETRANSMISSIONS, buf.len() as u64);
            for (f, _, _) in buf.iter() {
                ctx.send(
                    peer,
                    Msg::Frame { src_epoch: self.my_epoch, dst_epoch: epoch, frame: f.clone() },
                );
            }
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
            .and_then(|buf| buf.front().map(|(frame, _, _)| frame.seq))
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

    /// Accepts an incoming message; appends the in-order released bodies to
    /// `ready` (nothing for acks/out-of-order frames) — the hosting actor's
    /// reusable buffer.
    pub(crate) fn receive(
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
                        // Drop cumulatively-acked frames from the front.
                        while buf.front().is_some_and(|(frame, _, _)| frame.seq < up_to) {
                            buf.pop_front();
                        }
                        // Selective repeat: resend exactly the reported holes.
                        let front = buf.front().map_or(0, |(frame, _, _)| frame.seq);
                        for seq in missing {
                            let held = seq.checked_sub(front).and_then(|i| buf.get_mut(i as usize));
                            if let Some((frame, _first_sent, last_sent)) = held {
                                debug_assert_eq!(frame.seq, seq);
                                if now.saturating_duration_since(*last_sent) >= NACK_RESEND_EVERY {
                                    *last_sent = now;
                                    resends.push(frame.clone());
                                }
                            } else if seq >= up_to {
                                // Frames leave the buffer only via cumulative
                                // ack or give-up; an unheld hole was given up.
                                unsatisfiable_hole = true;
                            }
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
    pub(crate) fn maintain(&mut self, ctx: &mut Ctx<'_, Msg<A>>) {
        let now = ctx.now();
        if now.saturating_duration_since(self.last_ack_flush) < ACK_FLUSH_EVERY {
            return;
        }
        self.last_ack_flush = now;
        // Sample the reorder-buffer depth (count encoded in µs units) so
        // experiments can see how close links run to [`FIFO_BUFFER_CAP`].
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
            for (frame, first_sent, last_sent) in buf.iter_mut() {
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
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use dynastar_amcast::MsgId;
    use dynastar_runtime::{Actor, LatencyModel, NetConfig, SimConfig, Simulation};

    use super::*;
    use crate::host::tests::App;
    use crate::payload::Direct;

    const MAINTAIN: u64 = u64::MAX;
    /// The sending and the receiving end.
    fn ends() -> (NodeId, NodeId) {
        (NodeId::from_raw(0), NodeId::from_raw(1))
    }

    /// One end of a link: sends numbered bodies to `peer` in scripted
    /// bursts and logs the numbers its own wiring releases.
    struct End {
        wiring: Wiring<App>,
        peer: NodeId,
        /// `(at ms, how many)`.
        script: Vec<(u64, u32)>,
        sent: u32,
        got: Rc<RefCell<Vec<u32>>>,
    }

    impl Actor<Msg<App>> for End {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<App>>) {
            ctx.set_timer(SimDuration::from_millis(10), MAINTAIN);
            for (burst, &(at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(at), burst as u64);
            }
        }

        /// Comes back with fresh streams under the next epoch.
        fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg<App>>, stable: &[u8]) {
            let epoch = stable.first().map_or(1, |e| e + 1);
            ctx.persist(&[epoch]);
            self.wiring = Wiring::new(epoch.into());
            ctx.set_timer(SimDuration::from_millis(10), MAINTAIN);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<App>>, tag: u64) {
            if tag == MAINTAIN {
                self.wiring.maintain(ctx);
                ctx.set_timer(SimDuration::from_millis(10), MAINTAIN);
                return;
            }
            for _ in 0..self.script[tag as usize].1 {
                let body = Inner::Direct(Direct::Ack { cmd: MsgId::new(0, self.sent) });
                self.wiring.send(ctx, self.peer, Arc::new(body));
                self.sent += 1;
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<App>>, from: NodeId, msg: Msg<App>) {
            let mut ready = Vec::new();
            self.wiring.receive(ctx, from, msg, &mut ready);
            for body in ready {
                if let Inner::Direct(Direct::Ack { cmd }) = &*body {
                    self.got.borrow_mut().push(cmd.seq);
                }
            }
        }
    }

    /// `A` sends `script` to `B` over 1 ms links; returns what `B` got.
    fn link(
        script: &[(u64, u32)],
        b: Wiring<App>,
    ) -> (Simulation<Msg<App>>, Rc<RefCell<Vec<u32>>>) {
        let net = NetConfig::default().latency(LatencyModel::Fixed(SimDuration::from_millis(1)));
        let mut sim = Simulation::new(SimConfig::default().net(net));
        let got = Rc::new(RefCell::new(Vec::new()));
        let end = |wiring, peer, script: &[(u64, u32)], got| End {
            wiring,
            peer,
            script: script.to_vec(),
            sent: 0,
            got,
        };
        let (a_id, b_id) = ends();
        sim.add_node("a", end(Wiring::new(0), b_id, script, Rc::default()));
        sim.add_node("b", end(b, a_id, &[], Rc::clone(&got)));
        (sim, got)
    }

    /// Everything `A` sends `B` from `from_ms` to `to_ms` is lost.
    fn lose(sim: &mut Simulation<Msg<App>>, from_ms: u64, to_ms: u64) {
        let (a, b) = ends();
        sim.schedule_link_degrade(
            SimTime::from_millis(from_ms),
            a,
            b,
            SimDuration::ZERO,
            1_000_000,
        );
        sim.schedule_link_repair(SimTime::from_millis(to_ms), a, b);
    }

    fn numbers(range: std::ops::Range<u32>) -> Vec<u32> {
        range.collect()
    }

    #[test]
    fn a_hole_heals_by_selective_nack_long_before_the_timeout() {
        let (mut sim, got) = link(&[(10, 1), (50, 1), (90, 1)], Wiring::new(0));
        lose(&mut sim, 45, 55);
        // Frame 2 arrives behind the hole at 91 ms; the NACK is back at
        // 92 ms and the resend lands at 93 ms.
        sim.run_until(SimTime::from_millis(95));
        assert!(SimDuration::from_millis(95) < RETX_AFTER);
        assert_eq!(*got.borrow(), numbers(0..3));
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), 1);
    }

    #[test]
    fn a_nack_behind_an_acked_prefix_resends_exactly_the_missing_frames() {
        let script = [(10, 5), (110, 1), (120, 1), (130, 1), (155, 1)];
        let (mut sim, got) = link(&script, Wiring::new(0));
        // `B`'s first lazy flush (100 ms) acks frames 0..5, so `A`'s
        // buffer starts at frame 5 from 101 ms on. Frames 5 and 7 are lost.
        lose(&mut sim, 105, 115);
        lose(&mut sim, 125, 135);
        // Frame 6 reports hole 5 at 122 ms, too soon after its send to
        // resend it. Frame 8 reports holes 5 and 7 at 157 ms: the buffer
        // holds 5..9, and the resends must be its first and third frames,
        // both landing at 158 ms. Healing one hole per round trip would
        // take until 160 ms.
        sim.run_until(SimTime::from_millis(159));
        assert_eq!(*got.borrow(), numbers(0..9));
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), 2);
    }

    #[test]
    fn a_lost_tail_heals_by_the_timeout_scan_one_window_at_a_time() {
        let (mut sim, got) = link(&[(10, 40)], Wiring::new(0));
        lose(&mut sim, 5, 15);
        // Nothing follows the burst, so nobody can report a hole: the
        // first scan to find the frames older than `RETX_AFTER` (400 ms)
        // resends a window's worth, and no more.
        sim.run_until(SimTime::from_millis(390));
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), 0);
        sim.run_until(SimTime::from_millis(450));
        assert_eq!(*got.borrow(), numbers(0..RETX_WINDOW as u32));
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), RETX_WINDOW as u64);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*got.borrow(), numbers(0..40));
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), 40);
    }

    #[test]
    fn a_restarted_peer_gets_the_unacked_frames_renumbered_from_zero() {
        let (mut sim, got) = link(&[(10, 5), (210, 3), (260, 1)], Wiring::new(0));
        // Five frames arrive and are acked; three are sent to a dead peer.
        sim.schedule_crash(SimTime::from_millis(200), ends().1);
        sim.schedule_restart(SimTime::from_millis(250), ends().1);
        sim.run_until(SimTime::from_millis(255));
        assert_eq!(*got.borrow(), numbers(0..5));
        // The ninth is addressed to the incarnation that is gone; the new
        // one says so, and `A` restarts the stream: sequence numbers 5..9
        // mean nothing to a peer waiting for 0.
        sim.run_until(SimTime::from_millis(270));
        assert_eq!(*got.borrow(), numbers(0..9));
        assert_eq!(sim.metrics().counter(metric_names::NET_STREAM_RESETS), 1);
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), 4);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*got.borrow(), numbers(0..9), "each once");
    }

    #[test]
    fn giving_up_announces_a_jump_that_releases_what_waits_behind_the_gap() {
        let (mut sim, got) = link(&[(10, 3), (31_000, 2)], Wiring::new(0));
        // The link is dead for longer than `RETX_GIVE_UP`: `A` abandons
        // the three frames, and its first announcement is lost as well.
        lose(&mut sim, 5, 30_500);
        sim.run_until(SimTime::from_millis(30_900));
        assert_eq!(sim.metrics().counter(metric_names::NET_FRAMES_ABANDONED), 3);
        assert!(got.borrow().is_empty());
        // Frames 3 and 4 arrive behind a hole nobody can fill any more.
        // `B` asks for 0..3, `A` answers with the jump, `B` moves on.
        sim.run_until(SimTime::from_millis(31_010));
        assert_eq!(*got.borrow(), numbers(3..5));
    }

    #[test]
    fn frames_past_the_reorder_cap_are_dropped_counted_and_recovered() {
        let small = Wiring { fifo: FifoLinks::with_buffer_cap(4), ..Wiring::new(0) };
        let (mut sim, got) = link(&[(10, 1), (50, 8)], small);
        lose(&mut sim, 5, 15);
        // Eight frames behind the hole, room for four. The NACK heals the
        // hole and releases those; the other four were never buffered, so
        // they are a lost tail like any other.
        sim.run_until(SimTime::from_millis(60));
        assert_eq!(*got.borrow(), numbers(0..5));
        assert_eq!(sim.metrics().counter(metric_names::NET_FIFO_DROPS), 4);
        sim.run_until(SimTime::from_millis(450));
        assert_eq!(*got.borrow(), numbers(0..9));
        assert_eq!(sim.metrics().counter(metric_names::NET_RETRANSMISSIONS), 5);
    }
}
