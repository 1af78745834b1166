//! The simulated deployment's transport: per-link FIFO framing plus a
//! simple ARQ (cumulative and selective acks, timeout retransmission,
//! give-up with an announced gap), epoch-aware so streams resynchronize
//! after either endpoint restarts. It moves opaque [`Inner`] bodies
//! between nodes and knows nothing of groups, cores or routing — that is
//! the [host](crate::host)'s side of the seam.
//!
//! The simulated network delivers messages with independently sampled
//! latencies, so two messages on one link can be reordered; each end
//! keeps one [`Link`] record per peer that restores send order, the same
//! service TCP gives a real deployment.
//!
//! When a peer restarts, its end renumbers the frames it still holds
//! unacked from 0 and retransmits them at most [`DRAIN_WINDOW`] ahead of
//! the restarted peer's cumulative ack, each ack that advances releasing
//! more; frames sent meanwhile queue behind that backlog. The restarted
//! peer's reorder buffer then never holds more than the window. The peer
//! does not ack a duplicate, so when the window's acks are lost and its
//! front times out, the timeout scan puts one held frame past the window:
//! it draws a fresh ack, and the drain resumes.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::VecDeque;
use std::sync::Arc;

use dynastar_runtime::{Metrics, NodeId, SimDuration, SimTime};

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
/// The peer of a restarted node keeps what it had not seen acked,
/// renumbered from 0, and paces it to the acks of the fresh stream.
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
        missing: Holes,
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

/// A sequenced frame travelling over one link.
#[derive(Debug, Clone)]
pub struct Frame<M> {
    /// Position of this frame in the sender→receiver stream (from 0).
    pub seq: u64,
    /// The wrapped message.
    pub inner: M,
}

/// The holes an [`Msg::Ack`] reports, ascending, stored as offsets from
/// the ack's `up_to`. Nearly every list is short or close to `up_to`, so
/// it sits inline: up to 8 offsets below 2^16, up to 4 below 2^32, or any
/// number below 128 as a bitmap. A longer list with a farther hole
/// spills into one boxed slice. The inline forms keep the whole value at
/// three words, so [`Msg`] stays as small as it was with a `Vec`.
#[derive(Debug, Clone)]
pub struct Holes(HoleList);

/// Most holes an ack carries inline as 16-bit offsets.
const NARROW: usize = 8;
/// Most holes an ack carries inline as 32-bit offsets.
const WIDE: usize = 4;
/// Offsets below this travel inline as a bitmap, however many there are.
const NEAR: u64 = 128;

#[derive(Debug, Clone)]
enum HoleList {
    Narrow(u8, [u16; NARROW]),
    Wide(u8, [u32; WIDE]),
    /// Bit `i % 64` of word `i / 64` is set if offset `i` is a hole.
    Near([u64; 2]),
    Spilled(Box<[u64]>),
}

impl Default for Holes {
    fn default() -> Self {
        Holes(HoleList::Narrow(0, [0; NARROW]))
    }
}

impl Holes {
    /// Encodes `seqs` (ascending, none below `up_to`) relative to `up_to`.
    pub(crate) fn new(up_to: u64, seqs: &[u64]) -> Self {
        debug_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "holes ascend");
        debug_assert!(seqs.first().is_none_or(|&first| first >= up_to), "holes lie above up_to");
        // Offsets wrap rather than panic; `iter` wraps them back.
        let offsets = seqs.iter().map(|&seq| seq.wrapping_sub(up_to));
        let farthest = seqs.last().map_or(0, |&last| last.wrapping_sub(up_to));
        let len = seqs.len();
        if len <= NARROW && farthest <= u64::from(u16::MAX) {
            let mut inline = [0; NARROW];
            for (slot, offset) in inline.iter_mut().zip(offsets) {
                *slot = offset as u16;
            }
            Holes(HoleList::Narrow(len as u8, inline))
        } else if len <= WIDE && farthest <= u64::from(u32::MAX) {
            let mut inline = [0; WIDE];
            for (slot, offset) in inline.iter_mut().zip(offsets) {
                *slot = offset as u32;
            }
            Holes(HoleList::Wide(len as u8, inline))
        } else if farthest < NEAR {
            let mut bits = [0; 2];
            for offset in offsets {
                bits[(offset / 64) as usize] |= 1 << (offset % 64);
            }
            Holes(HoleList::Near(bits))
        } else {
            Holes(HoleList::Spilled(offsets.collect()))
        }
    }

    /// The missing sequence numbers, ascending, for an ack at `up_to`.
    pub fn iter(&self, up_to: u64) -> impl Iterator<Item = u64> + '_ {
        let (narrow, wide, spilled): (&[u16], &[u32], &[u64]) = match &self.0 {
            HoleList::Narrow(len, inline) => (&inline[..usize::from(*len)], &[], &[]),
            HoleList::Wide(len, inline) => (&[], &inline[..usize::from(*len)], &[]),
            HoleList::Near(_) => (&[], &[], &[]),
            HoleList::Spilled(offsets) => (&[], &[], offsets),
        };
        let bits = match self.0 {
            HoleList::Near(bits) => bits,
            _ => [0; 2],
        };
        let near = (0..).zip(bits).flat_map(|(word, mut rest): (u64, u64)| {
            std::iter::from_fn(move || {
                let bit = u64::from(rest.trailing_zeros());
                rest &= rest.checked_sub(1)?;
                Some(word * 64 + bit)
            })
        });
        let narrow = narrow.iter().map(|&offset| u64::from(offset));
        let wide = wide.iter().map(|&offset| u64::from(offset));
        narrow
            .chain(wide)
            .chain(near)
            .chain(spilled.iter().copied())
            .map(move |offset| up_to.wrapping_add(offset))
    }

    /// Whether the receiver reported no hole.
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            HoleList::Narrow(len, _) | HoleList::Wide(len, _) => *len == 0,
            HoleList::Near(bits) => *bits == [0; 2],
            HoleList::Spilled(offsets) => offsets.is_empty(),
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
/// Most frames of a restarted peer's backlog on the wire ahead of its
/// cumulative ack. The peer acks every [`ACK_EVERY`] in-order frames, so
/// two batches keep one in flight while the ack of the other returns, and
/// the peer's reorder buffer never holds more than the window. Each
/// timeout of the window's front lets one more frame out, past it.
const DRAIN_WINDOW: usize = 2 * ACK_EVERY as usize;
/// Maximum out-of-order frames buffered per peer in the reorder buffers.
/// Frames past the cap are dropped (and counted); the ARQ retransmits
/// them, so the bound trades memory for recovery latency only.
const FIFO_BUFFER_CAP: usize = 4_096;

/// One node's end of the link to one peer, both directions. `M` is the
/// frame body ([`Wiring`] carries `Arc<Inner<A>>`).
struct Link<M> {
    /// Sequence number of the next frame sent to the peer.
    next_send: u64,
    /// Sequence number expected next from the peer: every frame below it
    /// was released in order (the cumulative ack this end advertises).
    next_recv: u64,
    /// Frames from the peer that arrived early, all numbered above
    /// `next_recv` (every release drains the run that follows it).
    reorder: Early<M>,
    /// Sent frames not yet acknowledged: (frame, first send, latest
    /// (re)send) in sequence order. Sequence numbers to a peer are
    /// contiguous and frames leave only from the front (cumulative ack)
    /// or all at once (give-up), so the frame with sequence number `seq`
    /// sits at index `seq - front.seq`. Retransmission backs off from the
    /// latest send; the give-up clock runs from the first, so resending a
    /// frame does not keep it alive forever against an unreachable peer.
    unacked: VecDeque<(Frame<M>, SimTime, SimTime)>,
    /// How many frames at the back of `unacked` are not on the wire yet.
    /// After a reset the renumbered backlog drains [`DRAIN_WINDOW`] frames
    /// ahead of the peer's cumulative ack, and a frame sent meanwhile
    /// queues behind it; 0 on a link whose peer never restarted.
    held: usize,
    /// How many of the held frames, the front ones, were on the wire
    /// before a reset: putting one there again is a retransmission.
    replays: usize,
    /// Last cumulative ack value sent to the peer.
    acked: u64,
    /// Highest incarnation epoch observed for the peer (0 until heard).
    epoch: u64,
    /// Last time an epoch notice or jump went to the peer.
    last_signal: Option<SimTime>,
    /// Scratch the hole list is gathered in before it is encoded.
    holes: Vec<u64>,
}

/// A link's reorder buffer: slot `i` holds the frame numbered `i` past
/// the expected one, if it arrived early. Slot 0 is always empty (the
/// expected frame is released, never buffered) and the last slot always
/// full, so the empty slots are exactly the holes below the highest early
/// frame. The slots outlive the frames in them: a restarted peer's backlog
/// fills and empties the buffer once per drain window, and that reuses
/// them instead of allocating each time.
struct Early<M> {
    slots: VecDeque<Option<M>>,
    /// How many slots hold a frame.
    len: usize,
}

/// Most slots an emptied reorder buffer keeps for its next use: two drain
/// windows. A wider buffer, after a long outage, gives its storage back.
const EARLY_KEEP: usize = 2 * DRAIN_WINDOW;

impl<M> Default for Early<M> {
    fn default() -> Self {
        Early { slots: VecDeque::new(), len: 0 }
    }
}

impl<M> Early<M> {
    /// How many early frames are buffered.
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Buffers the frame `offset > 0` past the expected one. Returns `false`
    /// (and drops it) if it is new and `cap` frames are already buffered.
    fn insert(&mut self, offset: u64, inner: M, cap: usize) -> bool {
        let offset = offset as usize;
        if self.slots.get(offset).is_some_and(Option::is_some) {
            return true; // a buffered duplicate
        }
        if self.len >= cap {
            return false;
        }
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, || None);
        }
        self.slots[offset] = Some(inner);
        self.len += 1;
        true
    }

    /// Takes the frame in slot 0, if it is there, and moves every slot
    /// down one: the expected frame advanced past it.
    fn pop_front(&mut self) -> Option<M> {
        let inner = self.slots.front_mut()?.take()?;
        self.slots.pop_front();
        self.len -= 1;
        self.trim();
        Some(inner)
    }

    /// Drops the first `count` slots and what they hold: the expected
    /// frame advanced `count` past them.
    fn skip(&mut self, count: u64) {
        let count = usize::try_from(count).unwrap_or(usize::MAX).min(self.slots.len());
        self.len -= self.slots.drain(..count).filter(Option::is_some).count();
        self.trim();
    }

    /// The offsets of the empty slots, ascending.
    fn gaps(&self) -> impl Iterator<Item = u64> + '_ {
        (0..).zip(&self.slots).filter(|(_, slot)| slot.is_none()).map(|(offset, _)| offset)
    }

    /// Gives back the storage of an emptied buffer wider than [`EARLY_KEEP`].
    fn trim(&mut self) {
        if self.slots.is_empty() && self.slots.capacity() > EARLY_KEEP {
            self.slots = VecDeque::new();
        }
    }
}

impl<M> Default for Link<M> {
    fn default() -> Self {
        Link {
            next_send: 0,
            next_recv: 0,
            reorder: Early::default(),
            unacked: VecDeque::new(),
            held: 0,
            replays: 0,
            acked: 0,
            epoch: 0,
            last_signal: None,
            holes: Vec::new(),
        }
    }
}

impl<M: Clone> Link<M> {
    /// Stamps `inner` with the next sequence number and keeps a copy for
    /// retransmission; returns the frame to put on the wire, or `None`
    /// while a backlog drains (the frame queues behind it).
    fn send(&mut self, inner: M, now: SimTime) -> Option<Frame<M>> {
        let frame = Frame { seq: self.next_send, inner };
        self.next_send += 1;
        if self.held > 0 {
            self.held += 1;
            self.unacked.push_back((frame, now, now));
            return None;
        }
        self.unacked.push_back((frame.clone(), now, now));
        Some(frame)
    }

    /// How many of the unacked frames are on the wire (the front ones).
    fn on_wire(&self) -> usize {
        self.unacked.len() - self.held
    }

    /// Puts held frames on the wire in order, through `put`, while fewer
    /// than `window` await the peer's ack, stamping each as sent at `now`.
    /// Returns how many of them were retransmissions.
    fn drain(&mut self, window: usize, now: SimTime, mut put: impl FnMut(&Frame<M>)) -> u64 {
        let mut replayed = 0;
        while self.held > 0 && self.on_wire() < window {
            let next = self.on_wire();
            let (frame, _first_sent, last_sent) = &mut self.unacked[next];
            *last_sent = now;
            put(frame);
            self.held -= 1;
            if self.replays > 0 {
                self.replays -= 1;
                replayed += 1;
            }
        }
        replayed
    }

    /// Accepts a frame from the peer, appending every body now deliverable
    /// in order to `ready` — the caller's buffer, so the common in-order
    /// frame costs no allocation (nothing is appended if the frame is
    /// early, or a duplicate of an already-released sequence number).
    ///
    /// Returns `true` if the frame was early and the reorder buffer already
    /// held `cap` frames: it is dropped, and the ARQ retransmits it later.
    /// The expected frame always passes, so a bounded buffer never
    /// deadlocks the stream.
    fn accept(&mut self, frame: Frame<M>, cap: usize, ready: &mut Vec<M>) -> bool {
        if frame.seq < self.next_recv {
            return false; // duplicate
        }
        if frame.seq > self.next_recv {
            return !self.reorder.insert(frame.seq - self.next_recv, frame.inner, cap);
        }
        // The expected frame releases without a trip through the buffer.
        self.next_recv += 1;
        ready.push(frame.inner);
        self.reorder.skip(1);
        self.release(ready);
        false
    }

    /// Releases the buffered run that starts at `next_recv`.
    fn release(&mut self, ready: &mut Vec<M>) {
        while let Some(inner) = self.reorder.pop_front() {
            ready.push(inner);
            self.next_recv += 1;
        }
    }

    /// Declares every frame below `from_seq` permanently lost (the sender
    /// gave up on them and announced the jump) and releases what becomes
    /// deliverable past the gap. A `from_seq` at or below the current
    /// expectation is a stale announcement and changes nothing.
    fn force_advance(&mut self, from_seq: u64, ready: &mut Vec<M>) {
        if from_seq <= self.next_recv {
            return;
        }
        // Frames below the new expectation can never be delivered.
        self.reorder.skip(from_seq - self.next_recv);
        self.next_recv = from_seq;
        self.release(ready);
    }

    /// The sequence numbers missing below the highest buffered frame, at
    /// most `limit` of them — what a selective-repeat ack reports so the
    /// sender retransmits exactly the lost frames.
    fn holes(&mut self, limit: usize) -> Holes {
        if self.reorder.is_empty() {
            return Holes::default();
        }
        self.holes.clear();
        let gaps = self.reorder.gaps().map(|offset| self.next_recv + offset);
        self.holes.extend(gaps.take(limit));
        Holes::new(self.next_recv, &self.holes)
    }

    /// Adopts the peer's new incarnation `epoch`: its restart wiped its
    /// volatile sequencing state, so both directions start over, and the
    /// unacked frames are renumbered from 0 in their original order and
    /// held, to [`Self::drain`] a window at a time (the give-up clock keeps
    /// running from each original send).
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.next_recv = 0;
        self.reorder.clear();
        self.acked = 0;
        for (seq, (frame, _, _)) in (0..).zip(self.unacked.iter_mut()) {
            frame.seq = seq;
        }
        self.next_send = self.unacked.len() as u64;
        // The frames on the wire join those that were before an earlier
        // reset and have not gone out again: together they lead the queue.
        self.replays += self.on_wire();
        self.held = self.unacked.len();
    }

    /// The first sequence number this end can still deliver to the peer.
    fn jump_target(&self) -> u64 {
        self.unacked.front().map_or(self.next_send, |(frame, _, _)| frame.seq)
    }

    /// Whether the oldest unacked frame was first sent [`RETX_GIVE_UP`]
    /// ago. Frames are buffered in send order, so no later one is older.
    fn expired(&self, now: SimTime) -> bool {
        self.unacked.front().is_some_and(|(_, first_sent, _)| {
            now.saturating_duration_since(*first_sent) >= RETX_GIVE_UP
        })
    }

    /// Rate limit for epoch notices and jump announcements: `true` (and
    /// the clock restarts) if none went to the peer in [`SIGNAL_EVERY`].
    fn signal_due(&mut self, now: SimTime) -> bool {
        if self.last_signal.is_some_and(|last| now.saturating_duration_since(last) < SIGNAL_EVERY) {
            return false;
        }
        self.last_signal = Some(now);
        true
    }
}

/// What [`Wiring`] needs of its driver: the clock, the metrics registry,
/// and a way to put a message on the wire. The simulator's `Ctx` is one
/// (`cluster.rs`); a test can be another and order deliveries by hand.
pub(crate) trait LinkPort<A: Application> {
    /// The current time.
    fn now(&self) -> SimTime;
    /// The registry transport counters go to.
    fn metrics(&mut self) -> &mut Metrics;
    /// Puts `msg` on the wire to `to`.
    fn send(&mut self, to: NodeId, msg: Msg<A>);
}

/// One node's end of every link: FIFO framing + a simple ARQ (cumulative
/// acks, timeout retransmission), epoch-aware so streams resynchronize
/// after either endpoint restarts (see [`Msg`]).
pub(crate) struct Wiring<A: Application> {
    /// One record per peer, indexed by the peer's [`NodeId`]. Node ids are
    /// dense, so the table grows to the highest id this node talks to, on
    /// first contact, and walking it visits peers in ascending id order —
    /// the fixed send order the deterministic event schedule needs.
    links: Vec<Link<Arc<Inner<A>>>>,
    /// Most early frames one link buffers.
    reorder_cap: usize,
    /// Last time lazy acks were flushed.
    last_ack_flush: SimTime,
    /// This node's incarnation epoch (0 at first boot, +1 per restart).
    my_epoch: u64,
}

impl<A: Application> Wiring<A> {
    /// Fresh streams to every peer, under incarnation epoch `my_epoch`
    /// (0 at first boot; a restarted node passes its bumped epoch).
    pub(crate) fn new(my_epoch: u64) -> Self {
        Wiring {
            links: Vec::new(),
            reorder_cap: FIFO_BUFFER_CAP,
            last_ack_flush: SimTime::ZERO,
            my_epoch,
        }
    }

    /// The link to `peer`, created on first contact.
    fn link(&mut self, peer: NodeId) -> &mut Link<Arc<Inner<A>>> {
        let index = peer.as_raw() as usize;
        if index >= self.links.len() {
            self.links.resize_with(index + 1, Link::default);
        }
        &mut self.links[index]
    }

    /// Every link with its peer, in ascending peer order.
    fn links(&mut self) -> impl Iterator<Item = (NodeId, &mut Link<Arc<Inner<A>>>)> {
        (0..).map(NodeId::from_raw).zip(self.links.iter_mut())
    }

    /// Out-of-order frames buffered across all links.
    fn buffered(&self) -> usize {
        self.links.iter().map(|link| link.reorder.len()).sum()
    }

    /// Sends one framed body to `to`. The body is usually shared: a
    /// fan-out, wire or direct, hands every recipient a clone of one `Arc`,
    /// and the retransmission buffer entry holds another, so a body is
    /// allocated once per recipient set, not once per peer.
    pub(crate) fn send(&mut self, port: &mut impl LinkPort<A>, to: NodeId, inner: Arc<Inner<A>>) {
        let src_epoch = self.my_epoch;
        let link = self.link(to);
        if let Some(frame) = link.send(inner, port.now()) {
            port.send(to, Msg::Frame { src_epoch, dst_epoch: link.epoch, frame });
        }
    }

    /// Reconciles the epoch stamps on an incoming message. Returns `false`
    /// if the message belongs to a stale stream and must be dropped.
    fn sync_epochs(
        &mut self,
        port: &mut impl LinkPort<A>,
        from: NodeId,
        src_epoch: u64,
        dst_epoch: u64,
    ) -> bool {
        let known = self.link(from).epoch;
        if src_epoch < known {
            return false; // a previous incarnation of the peer
        }
        if src_epoch > known {
            self.note_peer_epoch(port, from, src_epoch);
        }
        if dst_epoch != self.my_epoch {
            // Addressed to a previous incarnation of this node: its
            // sequence numbers mean nothing to our fresh stream state.
            // Tell the peer so it resynchronizes.
            self.announce_epoch(port, from);
            return false;
        }
        true
    }

    /// Adopts a higher epoch for `peer` ([`Link::reset`]) and starts
    /// retransmitting the renumbered unacked frames, so nothing already
    /// handed to [`Self::send`] is lost by the peer's restart.
    fn note_peer_epoch(&mut self, port: &mut impl LinkPort<A>, peer: NodeId, epoch: u64) {
        let link = self.link(peer);
        if epoch <= link.epoch {
            return;
        }
        port.metrics().incr_counter(metric_names::NET_STREAM_RESETS, 1);
        link.reset(epoch);
        self.drain(port, peer);
    }

    /// Puts what the drain window allows of `peer`'s held frames on the
    /// wire ([`Link::drain`]); each one sent before the reset counts as a
    /// retransmission.
    fn drain(&mut self, port: &mut impl LinkPort<A>, peer: NodeId) {
        let src_epoch = self.my_epoch;
        let now = port.now();
        let link = self.link(peer);
        let dst_epoch = link.epoch;
        let replays = link.drain(DRAIN_WINDOW, now, |frame| {
            port.send(peer, Msg::Frame { src_epoch, dst_epoch, frame: frame.clone() });
        });
        if replays > 0 {
            port.metrics().incr_counter(metric_names::NET_RETRANSMISSIONS, replays);
        }
    }

    /// Rate-limited "I am at epoch E now" notice.
    fn announce_epoch(&mut self, port: &mut impl LinkPort<A>, peer: NodeId) {
        let epoch = self.my_epoch;
        if self.link(peer).signal_due(port.now()) {
            port.send(peer, Msg::EpochNotice { epoch });
        }
    }

    /// Rate-limited jump announcement: tells `peer` to skip past frames we
    /// no longer hold, up to the first one we can still deliver.
    fn send_jump(&mut self, port: &mut impl LinkPort<A>, peer: NodeId) {
        let src_epoch = self.my_epoch;
        let link = self.link(peer);
        if !link.signal_due(port.now()) {
            return;
        }
        port.metrics().incr_counter(metric_names::NET_JUMPS, 1);
        let jump = Msg::Jump { src_epoch, dst_epoch: link.epoch, from_seq: link.jump_target() };
        port.send(peer, jump);
    }

    /// Accepts an incoming message; appends the in-order released bodies to
    /// `ready` (nothing for acks/out-of-order frames) — the driver's reusable
    /// buffer.
    pub(crate) fn receive(
        &mut self,
        port: &mut impl LinkPort<A>,
        from: NodeId,
        msg: Msg<A>,
        ready: &mut Vec<Arc<Inner<A>>>,
    ) {
        match msg {
            Msg::Frame { src_epoch, dst_epoch, frame } => {
                if !self.sync_epochs(port, from, src_epoch, dst_epoch) {
                    return;
                }
                let (my_epoch, cap) = (self.my_epoch, self.reorder_cap);
                let link = self.link(from);
                if link.accept(frame, cap, ready) {
                    port.metrics().incr_counter(metric_names::NET_FIFO_DROPS, 1);
                }
                // Ack in batches: promptly once enough progress piles up,
                // otherwise lazily from the periodic flush. This keeps ack
                // traffic a small fraction of data traffic while bounding
                // the sender's retransmission buffer.
                let expected = link.next_recv;
                let missing = link.holes(NACK_LIMIT);
                if expected >= link.acked + ACK_EVERY || !missing.is_empty() {
                    link.acked = expected;
                    let ack = Msg::Ack {
                        src_epoch: my_epoch,
                        dst_epoch: link.epoch,
                        up_to: expected,
                        missing,
                    };
                    port.send(from, ack);
                }
                if trace_arq() {
                    let buffered = self.buffered();
                    if buffered > 200 && buffered.is_multiple_of(100) {
                        eprintln!(
                            "[arq] t={} node has {buffered} frames buffered behind gaps (from {from})",
                            port.now()
                        );
                    }
                }
            }
            Msg::Ack { src_epoch, dst_epoch, up_to, missing } => {
                if !self.sync_epochs(port, from, src_epoch, dst_epoch) {
                    return;
                }
                let now = port.now();
                let my_epoch = self.my_epoch;
                let Link { unacked, held, epoch, .. } = self.link(from);
                // Drop cumulatively-acked frames from the front. The peer
                // acks only what reached it, never a held frame.
                while unacked.front().is_some_and(|(frame, _, _)| frame.seq < up_to) {
                    unacked.pop_front();
                }
                debug_assert!(*held <= unacked.len(), "an ack covered a held frame");
                let on_wire = (unacked.len() - *held) as u64;
                // Selective repeat: resend exactly the reported holes.
                let front = unacked.front().map_or(0, |(frame, _, _)| frame.seq);
                let mut resent = 0;
                // Set when the receiver waits on a frame we abandoned: it
                // can only make progress if told to jump the gap.
                let mut unsatisfiable_hole = false;
                for seq in missing.iter(up_to) {
                    let kept = seq
                        .checked_sub(front)
                        .filter(|&i| i < on_wire)
                        .and_then(|i| unacked.get_mut(i as usize));
                    if let Some((frame, _first_sent, last_sent)) = kept {
                        debug_assert_eq!(frame.seq, seq);
                        if now.saturating_duration_since(*last_sent) >= NACK_RESEND_EVERY {
                            *last_sent = now;
                            resent += 1;
                            let frame = frame.clone();
                            port.send(
                                from,
                                Msg::Frame { src_epoch: my_epoch, dst_epoch: *epoch, frame },
                            );
                        }
                    } else if seq >= up_to {
                        // Frames leave the buffer only via cumulative ack
                        // or give-up; an unheld hole was given up.
                        unsatisfiable_hole = true;
                    }
                }
                if resent > 0 {
                    port.metrics().incr_counter(metric_names::NET_RETRANSMISSIONS, resent);
                }
                if unsatisfiable_hole {
                    self.send_jump(port, from);
                }
                // The cumulative ack may have opened the drain window.
                self.drain(port, from);
            }
            Msg::Jump { src_epoch, dst_epoch, from_seq } => {
                if !self.sync_epochs(port, from, src_epoch, dst_epoch) {
                    return;
                }
                // The sender abandoned everything below `from_seq`; release
                // whatever buffered frames become deliverable past the gap.
                self.link(from).force_advance(from_seq, ready);
            }
            Msg::EpochNotice { epoch } => self.note_peer_epoch(port, from, epoch),
        }
    }

    /// Transport maintenance: lazy ack flush + retransmission scan, rate
    /// limited to once per [`ACK_FLUSH_EVERY`] regardless of how often the
    /// driver calls it.
    pub(crate) fn maintain(&mut self, port: &mut impl LinkPort<A>) {
        let now = port.now();
        if now.saturating_duration_since(self.last_ack_flush) < ACK_FLUSH_EVERY {
            return;
        }
        self.last_ack_flush = now;
        // Sample the reorder-buffer depth (count encoded in µs units) so
        // experiments can see how close links run to [`FIFO_BUFFER_CAP`].
        port.metrics().record_histogram(
            metric_names::NET_FIFO_BUFFERED,
            SimDuration::from_micros(self.buffered() as u64),
        );
        self.flush_acks(port);
        self.retransmit_due(port);
    }

    /// Flushes lazy acks for peers with unacknowledged receive progress.
    fn flush_acks(&mut self, port: &mut impl LinkPort<A>) {
        let src_epoch = self.my_epoch;
        for (peer, link) in self.links() {
            let up_to = link.next_recv;
            let missing = link.holes(NACK_LIMIT);
            if up_to > link.acked || !missing.is_empty() {
                link.acked = up_to;
                port.send(peer, Msg::Ack { src_epoch, dst_epoch: link.epoch, up_to, missing });
            }
        }
    }

    /// Retransmits frames unacknowledged past the timeout. Frames
    /// unacknowledged for [`RETX_GIVE_UP`] (the peer crashed, or was
    /// partitioned away for longer than we buffer) are abandoned — counted,
    /// and announced to the peer with a [`Msg::Jump`] so its stream heals
    /// with an explicit gap instead of stalling forever once it returns.
    fn retransmit_due(&mut self, port: &mut impl LinkPort<A>) {
        let now = port.now();
        let src_epoch = self.my_epoch;
        let mut resent = 0;
        for (peer, link) in self.links() {
            if link.expired(now) {
                continue; // abandoned below, after every resend
            }
            let on_wire = link.on_wire();
            let Link { unacked, epoch, .. } = &mut *link;
            // Frames are buffered in send order, so once one is too young
            // the rest (sent later) are too. A refreshed prefix can hide an
            // older suffix for at most one scan interval — an acceptable
            // retransmission delay. The window paces the recovery: the
            // receiver's cumulative ack advances once the head of the
            // stream heals, releasing the rest without retransmission.
            // Held frames are the drain's to send.
            let due = unacked
                .iter_mut()
                .take(on_wire)
                .take_while(|(_, _, last_sent)| {
                    now.saturating_duration_since(*last_sent) >= RETX_AFTER
                })
                .take(RETX_WINDOW);
            let mut due_here = 0;
            for (frame, _first_sent, last_sent) in due {
                *last_sent = now;
                due_here += 1;
                port.send(peer, Msg::Frame { src_epoch, dst_epoch: *epoch, frame: frame.clone() });
            }
            resent += due_here;
            // A draining backlog whose front timed out may have lost the
            // peer's acks, not the frames, and the peer does not ack a
            // duplicate: one held frame past the window draws a fresh ack.
            if due_here > 0 {
                let dst_epoch = link.epoch;
                resent += link.drain(on_wire + 1, now, |frame| {
                    port.send(peer, Msg::Frame { src_epoch, dst_epoch, frame: frame.clone() });
                });
            }
        }
        if resent > 0 {
            port.metrics().incr_counter(metric_names::NET_RETRANSMISSIONS, resent);
        }
        for index in 0..self.links.len() {
            let peer = NodeId::from_raw(index as u32);
            let link = &mut self.links[index];
            if !link.expired(now) {
                continue;
            }
            // Give-up measures from the *first* send: a peer that has
            // acked nothing for this long is crashed or partitioned away,
            // and resending cannot keep the frame alive.
            if trace_arq() {
                eprintln!(
                    "[arq] t={now} giving up on peer {peer}: dropping {} unacked frames",
                    link.unacked.len()
                );
            }
            port.metrics()
                .incr_counter(metric_names::NET_FRAMES_ABANDONED, link.unacked.len() as u64);
            link.unacked.clear();
            (link.held, link.replays) = (0, 0);
            // Announce the gap so the stream resumes when the peer returns.
            self.send_jump(port, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use dynastar_amcast::MsgId;
    use dynastar_runtime::{Actor, Ctx, LatencyModel, NetConfig, SimConfig, Simulation};

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
        // The lost give-up announcement and the answer to the NACK.
        assert_eq!(sim.metrics().counter(metric_names::NET_JUMPS), 2);
    }

    #[test]
    fn frames_past_the_reorder_cap_are_dropped_counted_and_recovered() {
        let small = Wiring { reorder_cap: 4, ..Wiring::new(0) };
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

    /// A link port driven by hand: a clock the test sets, a registry of its
    /// own, and the messages put on the wire, in order.
    #[derive(Default)]
    struct HandPort {
        now: SimTime,
        metrics: Metrics,
        out: Vec<(NodeId, Msg<App>)>,
    }

    impl LinkPort<App> for HandPort {
        fn now(&self) -> SimTime {
            self.now
        }

        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }

        fn send(&mut self, to: NodeId, msg: Msg<App>) {
            self.out.push((to, msg));
        }
    }

    /// One end of a link whose deliveries the test orders itself.
    struct HandEnd {
        wiring: Wiring<App>,
        port: HandPort,
    }

    impl HandEnd {
        fn new(epoch: u64) -> Self {
            HandEnd { wiring: Wiring::new(epoch), port: HandPort::default() }
        }

        /// Sends the bodies numbered `range` to `to`.
        fn send(&mut self, to: NodeId, range: std::ops::Range<u32>) {
            for n in range {
                let body = Inner::Direct(Direct::Ack { cmd: MsgId::new(0, n) });
                self.wiring.send(&mut self.port, to, Arc::new(body));
            }
        }

        /// What this end put on the wire since the last call.
        fn sent(&mut self) -> Vec<Msg<App>> {
            self.port.out.drain(..).map(|(_, msg)| msg).collect()
        }

        /// Hands `msg` from `from` to this end; the numbers it releases.
        fn deliver(&mut self, from: NodeId, msg: Msg<App>) -> Vec<u32> {
            let mut ready = Vec::new();
            self.wiring.receive(&mut self.port, from, msg, &mut ready);
            let number = |body: &Arc<Inner<App>>| match &**body {
                Inner::Direct(Direct::Ack { cmd }) => cmd.seq,
                _ => panic!("only numbered bodies travel"),
            };
            ready.iter().map(number).collect()
        }
    }

    #[test]
    fn a_stale_nack_after_the_cumulative_ack_draws_one_jump_that_the_peer_ignores() {
        let (a_id, b_id) = ends();
        let (mut a, mut b) = (HandEnd::new(0), HandEnd::new(0));
        a.send(b_id, 0..70);
        let mut frames = a.sent();
        let late = frames.remove(1);
        let mut got = Vec::new();
        for frame in frames.into_iter().chain([late]) {
            got.extend(b.deliver(a_id, frame));
        }
        assert_eq!(got, numbers(0..70), "each frame once, in order");
        // Frames 2..70 each NACK frame 1; frame 1 then acks the lot.
        let acks = b.sent();
        assert_eq!(acks.len(), 69);
        for ack in acks.into_iter().rev() {
            assert!(a.deliver(b_id, ack).is_empty());
        }
        // The newest ack emptied `A`'s buffer, so every older NACK names
        // a frame `A` no longer holds and reads as one that was given up.
        // ROADMAP item 5's stale-ack fix takes this count to 0.
        assert_eq!(a.port.metrics.counter(metric_names::NET_JUMPS), 1);
        let jump = a.sent();
        assert!(matches!(jump[..], [Msg::Jump { from_seq: 70, .. }]));
        for msg in jump {
            assert!(b.deliver(a_id, msg).is_empty());
        }
        assert!(b.sent().is_empty(), "the jump lands at `B`'s expectation");
        assert_eq!(b.wiring.link(a_id).next_recv, 70);
    }

    #[test]
    fn a_duplicated_frame_releases_nothing() {
        let (a_id, b_id) = ends();
        let (mut a, mut b) = (HandEnd::new(0), HandEnd::new(0));
        a.send(b_id, 0..1);
        // Unacked past the timeout, the frame goes out again.
        a.port.now = SimTime::ZERO + RETX_AFTER;
        a.wiring.maintain(&mut a.port);
        let [first, copy]: [Msg<App>; 2] = a.sent().try_into().unwrap();
        assert_eq!(b.deliver(a_id, first), [0]);
        assert!(b.deliver(a_id, copy).is_empty());
        assert!(b.sent().is_empty(), "no hole to report, no ack due");
    }

    #[test]
    fn a_frame_for_the_previous_incarnation_releases_nothing_and_draws_one_notice() {
        let (a_id, b_id) = ends();
        // `B` restarted into epoch 1 before hearing from `A`.
        let (mut a, mut b) = (HandEnd::new(0), HandEnd::new(1));
        a.send(b_id, 0..1);
        let [frame]: [Msg<App>; 1] = a.sent().try_into().unwrap();
        assert!(matches!(frame, Msg::Frame { dst_epoch: 0, .. }));
        assert!(b.deliver(a_id, frame).is_empty());
        let [notice]: [Msg<App>; 1] = b.sent().try_into().unwrap();
        assert!(matches!(notice, Msg::EpochNotice { epoch: 1 }));
        // `A` adopts the epoch and resends the frame on the fresh stream.
        assert!(a.deliver(b_id, notice).is_empty());
        let [resent]: [Msg<App>; 1] = a.sent().try_into().unwrap();
        assert_eq!(b.deliver(a_id, resent), [0]);
    }

    #[test]
    fn a_second_reset_mid_drain_replays_each_frame_that_was_on_the_wire_once() {
        let mut link = Link::default();
        for body in 0..200 {
            assert!(link.send(body, SimTime::ZERO).is_some());
        }
        let mut put = Vec::new();
        let mut drain =
            |link: &mut Link<u64>| link.drain(DRAIN_WINDOW, SimTime::ZERO, |f| put.push(f.inner));
        link.reset(1);
        assert_eq!(drain(&mut link), DRAIN_WINDOW as u64);
        assert!(link.send(200, SimTime::ZERO).is_none(), "queued behind the backlog");
        // The first ten are acked.
        link.unacked.drain(..10);
        // The peer restarts again: the 118 frames on the wire and the 72
        // that have not gone out again are one backlog; 200 never went out.
        link.reset(2);
        assert_eq!(drain(&mut link), DRAIN_WINDOW as u64);
        link.unacked.drain(..DRAIN_WINDOW);
        assert_eq!(drain(&mut link), 62);
        assert_eq!(link.held, 0);
        let again: Vec<u64> = put.split_off(DRAIN_WINDOW);
        assert_eq!(again, (10..201).collect::<Vec<_>>());
    }

    /// Shuffles `items` in place with a fixed xorshift stream.
    fn shuffle<T>(items: &mut [T], state: &mut u64) {
        for i in (1..items.len()).rev() {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            items.swap(i, (*state % (i as u64 + 1)) as usize);
        }
    }

    #[test]
    fn a_restarted_peer_gets_the_backlog_a_window_at_a_time_then_what_was_sent_meanwhile() {
        let (a_id, b_id) = ends();
        // More than `B`'s reorder buffer holds: replayed at once and
        // reordered, much of it would be dropped.
        let backlog = FIFO_BUFFER_CAP as u32 + 1_000;
        let mut a = HandEnd::new(0);
        a.send(b_id, 0..backlog);
        drop(a.sent()); // `B` crashed before any of it arrived
        let mut b = HandEnd::new(1);
        assert!(a.deliver(b_id, Msg::EpochNotice { epoch: 1 }).is_empty());
        // `A`'s clock stands still, so nothing is resent on a NACK or a
        // timeout: every frame on the wire is the drain's. `B`'s clock moves
        // only to flush a lazy ack when the stream goes quiet.
        let (mut got, mut acked, mut ahead) = (Vec::new(), 0, 0);
        let mut rng = 0x9e37_79b9_7f4a_7c15;
        loop {
            let mut frames = a.sent();
            if frames.is_empty() {
                b.port.now += ACK_FLUSH_EVERY;
                b.wiring.maintain(&mut b.port);
                if b.port.out.is_empty() {
                    break;
                }
            }
            for msg in &frames {
                let Msg::Frame { frame, .. } = msg else { panic!("only frames go to `B`") };
                ahead = ahead.max(frame.seq + 1 - acked);
            }
            shuffle(&mut frames, &mut rng);
            for msg in frames {
                got.extend(b.deliver(a_id, msg));
            }
            if got.len() == DRAIN_WINDOW {
                a.send(b_id, backlog..backlog + 1);
                assert!(a.sent().is_empty(), "a new frame queues behind the backlog");
            }
            for ack in b.sent() {
                let Msg::Ack { up_to, .. } = ack else { panic!("only acks go to `A`") };
                acked = acked.max(up_to);
                assert!(a.deliver(b_id, ack).is_empty());
            }
        }
        assert_eq!(ahead, DRAIN_WINDOW as u64, "never more than a window ahead of the ack");
        assert_eq!(got, numbers(0..backlog + 1), "each frame once, in order, the new one last");
        assert_eq!(b.port.metrics.counter(metric_names::NET_FIFO_DROPS), 0);
        let retransmissions = a.port.metrics.counter(metric_names::NET_RETRANSMISSIONS);
        assert_eq!(retransmissions, u64::from(backlog), "the backlog, each frame once");
    }

    #[test]
    fn a_drain_whose_window_acks_are_all_lost_probes_past_the_window_and_resumes() {
        let (a_id, b_id) = ends();
        let backlog = 3 * DRAIN_WINDOW as u32;
        let mut a = HandEnd::new(0);
        a.send(b_id, 0..backlog);
        drop(a.sent());
        let mut b = HandEnd::new(1);
        assert!(a.deliver(b_id, Msg::EpochNotice { epoch: 1 }).is_empty());
        // One more frame queues behind the backlog.
        a.send(b_id, backlog..backlog + 1);
        // Every frame arrives, in order; every ack `B` sends while the
        // first window is all it has released is lost. When nothing is in
        // flight `B` flushes its lazy ack, and if that is silent too `A`'s
        // retransmission timer fires.
        let mut got = Vec::new();
        loop {
            let frames = a.sent();
            let quiet = frames.is_empty();
            for msg in frames {
                got.extend(b.deliver(a_id, msg));
            }
            let mut acks = b.sent();
            if quiet && acks.is_empty() {
                b.port.now += ACK_FLUSH_EVERY;
                b.wiring.maintain(&mut b.port);
                acks = b.sent();
                if acks.is_empty() {
                    a.port.now += RETX_AFTER;
                    a.wiring.maintain(&mut a.port);
                    if a.port.out.is_empty() {
                        break;
                    }
                }
            }
            if got.len() <= DRAIN_WINDOW {
                continue; // lost
            }
            for ack in acks {
                assert!(a.deliver(b_id, ack).is_empty());
            }
        }
        assert_eq!(got, numbers(0..backlog + 1), "each frame once, in order, the new one last");
        assert_eq!(a.port.metrics.counter(metric_names::NET_FRAMES_ABANDONED), 0);
        assert_eq!(a.port.metrics.counter(metric_names::NET_JUMPS), 0);
        // One timeout resent the front of the window and probed; the next
        // found the link quiet. Without the probe the drain would wait for
        // the give-up and skip the rest.
        assert_eq!(a.port.now, SimTime::ZERO + RETX_AFTER + RETX_AFTER);
        let retransmissions = a.port.metrics.counter(metric_names::NET_RETRANSMISSIONS);
        assert_eq!(retransmissions, u64::from(backlog) + RETX_WINDOW as u64);
    }

    #[test]
    fn a_message_stays_six_words() {
        assert_eq!(std::mem::size_of::<Holes>(), 24);
        assert_eq!(std::mem::size_of::<Msg<App>>(), 48);
    }

    /// `holes` encoded at `up_to` and read back.
    fn round_trip(up_to: u64, holes: &[u64]) -> Holes {
        let encoded = Holes::new(up_to, holes);
        assert_eq!(encoded.iter(up_to).collect::<Vec<_>>(), holes);
        assert_eq!(encoded.is_empty(), holes.is_empty());
        encoded
    }

    fn spilled(holes: &Holes) -> bool {
        matches!(holes.0, HoleList::Spilled(_))
    }

    #[test]
    fn short_hole_lists_round_trip_inline() {
        let up_to = 1 << 40;
        for n in [0, 1, 4, 5, 8] {
            let holes: Vec<u64> = (0..n).map(|i| up_to + 3 * i).collect();
            assert!(!spilled(&round_trip(up_to, &holes)), "{n} holes");
        }
        assert!(Holes::default().is_empty());
    }

    #[test]
    fn long_hole_lists_spill_and_round_trip() {
        // More than eight holes travel as a bitmap while the farthest lies
        // below `NEAR`, and spill once it reaches it.
        for n in [9, 64] {
            let mut holes: Vec<u64> = (0..n).map(|i| 100 + 2 * i).collect();
            *holes.last_mut().unwrap() = 100 + NEAR - 1;
            assert!(matches!(round_trip(100, &holes).0, HoleList::Near(_)), "{n} holes");
            *holes.last_mut().unwrap() = 100 + NEAR;
            assert!(spilled(&round_trip(100, &holes)), "{n} holes");
        }
        // Offsets are relative, so the top of the sequence space is fine.
        let top: Vec<u64> = (0..9).map(|i| u64::MAX - 8 + i).collect();
        round_trip(u64::MAX - (NEAR - 1), &top);
    }

    #[test]
    fn far_holes_widen_then_spill() {
        let up_to = 5;
        let past_u16 = up_to + u64::from(u16::MAX) + 1;
        let wide = round_trip(up_to, &[up_to, past_u16]);
        assert!(matches!(wide.0, HoleList::Wide(2, _)));
        // Five holes do not fit the wide form.
        let five: Vec<u64> = (0..5).map(|i| past_u16 + i).collect();
        assert!(spilled(&round_trip(up_to, &five)));
        // Nor does an offset past 32 bits.
        let past_u32 = up_to + u64::from(u32::MAX) + 1;
        assert!(spilled(&round_trip(up_to, &[up_to + 1, past_u32])));
        // Offsets are relative, so the top of the sequence space is fine.
        round_trip(u64::MAX - 3, &[u64::MAX - 2, u64::MAX]);
    }

    /// A link record that only receives, with room for 8 early frames.
    #[derive(Default)]
    struct Rx {
        link: Link<u64>,
    }

    impl Rx {
        /// Frame `seq` (its body is its number) arrives; the released bodies.
        fn arrive(&mut self, seq: u64) -> Vec<u64> {
            let mut ready = Vec::new();
            self.link.accept(Frame { seq, inner: seq }, 8, &mut ready);
            ready
        }

        fn jump(&mut self, from_seq: u64) -> Vec<u64> {
            let mut ready = Vec::new();
            self.link.force_advance(from_seq, &mut ready);
            ready
        }

        fn holes(&mut self, limit: usize) -> Vec<u64> {
            let up_to = self.link.next_recv;
            self.link.holes(limit).iter(up_to).collect()
        }
    }

    #[test]
    fn a_link_releases_in_order_frames_at_once() {
        let mut rx = Rx::default();
        for seq in 0..5 {
            assert_eq!(rx.arrive(seq), [seq]);
        }
        assert!(rx.link.reorder.is_empty());
    }

    #[test]
    fn a_link_buffers_early_frames_until_the_gap_closes() {
        let mut rx = Rx::default();
        assert!(rx.arrive(2).is_empty());
        assert!(rx.arrive(1).is_empty());
        assert_eq!(rx.link.reorder.len(), 2);
        assert_eq!(rx.holes(8), [0]);
        assert_eq!(rx.arrive(0), [0, 1, 2]);
        assert!(rx.link.reorder.is_empty());
        assert!(rx.link.holes(8).is_empty());
    }

    #[test]
    fn a_link_drops_duplicates() {
        let mut rx = Rx::default();
        assert_eq!(rx.arrive(0), [0]);
        assert!(rx.arrive(0).is_empty());
        assert!(rx.arrive(3).is_empty());
        assert!(rx.arrive(3).is_empty(), "a buffered duplicate");
        assert_eq!(rx.link.reorder.len(), 1);
    }

    #[test]
    fn a_link_reports_every_hole_below_its_highest_frame_up_to_the_limit() {
        let mut rx = Rx::default();
        for seq in [3, 4, 7, 9] {
            rx.arrive(seq);
        }
        assert_eq!(rx.holes(64), [0, 1, 2, 5, 6, 8]);
        assert_eq!(rx.holes(4), [0, 1, 2, 5]);
        assert_eq!(rx.holes(3), [0, 1, 2]);
        assert_eq!(rx.arrive(0), [0]);
        assert_eq!(rx.holes(64), [1, 2, 5, 6, 8]);
    }

    #[test]
    fn a_full_reorder_buffer_drops_early_frames_but_never_the_expected_one() {
        let mut link = Link::default();
        let mut ready = Vec::new();
        let mut accept = |seq| link.accept(Frame { seq, inner: seq }, 2, &mut ready);
        assert!(!accept(1));
        assert!(!accept(2));
        assert!(accept(3), "past the cap");
        assert!(!accept(1), "a buffered duplicate is no new drop");
        assert!(!accept(0), "the expected frame always passes");
        assert!(!accept(3), "retransmitted");
        assert_eq!(ready, [0, 1, 2, 3]);
    }

    #[test]
    fn force_advance_drops_what_it_skips_and_releases_the_rest() {
        let mut rx = Rx::default();
        rx.arrive(1); // below the jump: never delivered
        rx.arrive(3);
        rx.arrive(4);
        assert_eq!(rx.jump(3), [3, 4]);
        assert_eq!(rx.link.next_recv, 5);
        assert!(rx.link.reorder.is_empty());
        // A stale announcement changes nothing.
        assert!(rx.jump(2).is_empty());
        assert_eq!(rx.link.next_recv, 5);
    }

    #[test]
    fn a_reset_restarts_both_directions_and_renumbers_the_unacked_frames() {
        let mut link = Link::default();
        let sent = |link: &mut Link<u64>, body| link.send(body, SimTime::ZERO).map(|f| f.seq);
        let first = [sent(&mut link, 10), sent(&mut link, 11), sent(&mut link, 12)];
        assert_eq!(first, [Some(0), Some(1), Some(2)]);
        link.unacked.pop_front(); // frame 0 acked
        let mut ready = Vec::new();
        link.accept(Frame { seq: 0, inner: 50 }, 8, &mut ready);
        link.accept(Frame { seq: 2, inner: 52 }, 8, &mut ready);
        link.acked = 1;
        link.reset(3);
        assert_eq!(link.epoch, 3);
        assert_eq!((link.next_recv, link.acked), (0, 0));
        assert!(link.reorder.is_empty());
        let unacked: Vec<_> = link.unacked.iter().map(|(f, _, _)| (f.seq, f.inner)).collect();
        assert_eq!(unacked, [(0, 11), (1, 12)]);
        // Nothing goes out until the drain: a new frame queues behind the
        // backlog, numbered after it.
        assert_eq!(sent(&mut link, 13), None);
        let now = SimTime::from_millis(7);
        let mut put = Vec::new();
        let replays = link.drain(DRAIN_WINDOW, now, |frame| put.push((frame.seq, frame.inner)));
        assert_eq!(put, [(0, 11), (1, 12), (2, 13)]);
        assert_eq!(replays, 2, "13 had never been on the wire");
        assert!(link.unacked.iter().all(|&(_, _, last_sent)| last_sent == now));
        assert_eq!(sent(&mut link, 14), Some(3), "drained: frames go out again");
        // The fresh incoming stream starts at 0 again.
        ready.clear();
        link.accept(Frame { seq: 0, inner: 60 }, 8, &mut ready);
        assert_eq!(ready, [60]);
    }

    /// The receive half of the per-peer FIFO layer the link record
    /// replaced — three maps keyed by peer — kept as the oracle for the
    /// differential property below.
    #[derive(Default)]
    struct Reference {
        next_recv: BTreeMap<u32, u64>,
        buffered: BTreeMap<u32, BTreeMap<u64, u64>>,
        dropped: u64,
    }

    impl Reference {
        fn accept(&mut self, peer: u32, seq: u64, cap: usize, ready: &mut Vec<u64>) {
            let next = self.next_recv.entry(peer).or_insert(0);
            if seq < *next {
                return;
            }
            if seq == *next {
                *next += 1;
                ready.push(seq);
                let Some(buf) = self.buffered.get_mut(&peer) else { return };
                while let Some(msg) = buf.remove(next) {
                    ready.push(msg);
                    *next += 1;
                }
                return;
            }
            let buf = self.buffered.entry(peer).or_default();
            if buf.len() >= cap && !buf.contains_key(&seq) {
                self.dropped += 1;
            } else {
                buf.insert(seq, seq);
            }
        }

        fn force_advance(&mut self, peer: u32, from_seq: u64, ready: &mut Vec<u64>) {
            let next = self.next_recv.entry(peer).or_insert(0);
            if from_seq <= *next {
                return;
            }
            *next = from_seq;
            let Some(buf) = self.buffered.get_mut(&peer) else { return };
            while buf.first_key_value().is_some_and(|(&s, _)| s < from_seq) {
                buf.pop_first();
            }
            while let Some(msg) = buf.remove(next) {
                ready.push(msg);
                *next += 1;
            }
        }

        fn reset(&mut self, peer: u32) {
            self.next_recv.remove(&peer);
            self.buffered.remove(&peer);
        }

        fn expected_from(&self, peer: u32) -> u64 {
            self.next_recv.get(&peer).copied().unwrap_or(0)
        }

        fn missing_from(&self, peer: u32, limit: usize) -> Vec<u64> {
            let Some(buf) = self.buffered.get(&peer) else { return Vec::new() };
            let mut missing = Vec::new();
            let mut cursor = self.expected_from(peer);
            for &present in buf.keys() {
                while cursor < present && missing.len() < limit {
                    missing.push(cursor);
                    cursor += 1;
                }
                cursor = present + 1;
                if missing.len() >= limit {
                    break;
                }
            }
            missing
        }
    }

    const PEERS: u32 = 3;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random arrivals on three links — in order, early, duplicated,
        /// past a small reorder cap — mixed with jumps and resets. After
        /// every step the link records and the reference agree on what was
        /// released, what was dropped, where each stream stands and every
        /// hole list, at the transport's limit and at a small one.
        #[test]
        fn link_records_match_the_per_peer_maps(
            cap in 1usize..12,
            limit in 1usize..10,
            steps in proptest::collection::vec((0u8..16, 0u32..PEERS, 0u64..40), 1..200),
        ) {
            let mut links: Vec<Link<u64>> = (0..PEERS).map(|_| Link::default()).collect();
            let mut reference = Reference::default();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut dropped = 0;
            for (kind, peer, delta) in steps {
                let link = &mut links[peer as usize];
                // Sequence numbers near the head of the stream, so frames
                // are duplicates, in order or early about equally often.
                let seq = (link.next_recv + delta).saturating_sub(8);
                match kind {
                    0 => {
                        link.force_advance(seq, &mut got);
                        reference.force_advance(peer, seq, &mut want);
                    }
                    1 => {
                        link.reset(link.epoch + 1);
                        reference.reset(peer);
                    }
                    _ => {
                        dropped += u64::from(link.accept(Frame { seq, inner: seq }, cap, &mut got));
                        reference.accept(peer, seq, cap, &mut want);
                    }
                }
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(dropped, reference.dropped);
                proptest::prop_assert_eq!(link.next_recv, reference.expected_from(peer));
                let up_to = link.next_recv;
                for limit in [limit, NACK_LIMIT] {
                    let holes: Vec<u64> = link.holes(limit).iter(up_to).collect();
                    proptest::prop_assert_eq!(holes, reference.missing_from(peer, limit));
                }
            }
        }
    }
}
