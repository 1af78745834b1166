//! FIFO link layer.
//!
//! The simulated network delivers messages with independently sampled
//! latencies, so two messages on the same link can be reordered. Protocols
//! that need per-link FIFO delivery (atomic multicast's FIFO property, for
//! one) wrap their traffic in a [`FifoLinks`] endpoint on each side: the
//! sender stamps a per-destination sequence number, the receiver buffers
//! out-of-order arrivals and releases messages in sequence — the same
//! service TCP provides on a real deployment.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::BTreeMap;
use std::hash::Hash;

use crate::hash::FastHashMap;

/// A sequenced frame travelling over a FIFO link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<M> {
    /// Position of this frame in the sender→receiver stream (from 0).
    pub seq: u64,
    /// The wrapped message.
    pub inner: M,
}

/// Per-peer FIFO sequencing state for one endpoint.
///
/// `P` identifies peers (any hashable id).
///
/// # Example
///
/// ```
/// use dynastar_runtime::fifo::FifoLinks;
///
/// let mut alice: FifoLinks<&'static str, &'static str> = FifoLinks::new();
/// let mut bob: FifoLinks<&'static str, &'static str> = FifoLinks::new();
///
/// let f1 = alice.wrap("bob", "first");
/// let f2 = alice.wrap("bob", "second");
/// // Frames arrive out of order; bob releases them in order.
/// let mut ready = Vec::new();
/// assert!(bob.accept("alice", f2, &mut ready), "held back behind the gap");
/// assert!(ready.is_empty());
/// assert!(!bob.accept("alice", f1, &mut ready));
/// assert_eq!(ready, vec!["first", "second"]);
/// ```
#[derive(Debug, Clone)]
pub struct FifoLinks<P, M> {
    next_send: FastHashMap<P, u64>,
    next_recv: FastHashMap<P, u64>,
    buffered: FastHashMap<P, BTreeMap<u64, M>>,
    /// Max out-of-order frames buffered per peer; overflow frames are
    /// dropped (and counted) instead of buffered.
    buffer_cap: usize,
    /// Out-of-order frames dropped because a peer's buffer was full.
    dropped: u64,
}

impl<P: Eq + Hash + Clone, M> FifoLinks<P, M> {
    /// Creates an endpoint with no history and an unbounded reorder buffer.
    pub fn new() -> Self {
        Self::with_buffer_cap(usize::MAX)
    }

    /// Creates an endpoint whose per-peer reorder buffer holds at most
    /// `cap` out-of-order frames. Frames arriving beyond the cap are
    /// dropped and counted ([`FifoLinks::dropped_count`]); an ARQ layer's
    /// retransmission recovers them later, so a bounded buffer trades a
    /// retransmit round-trip for bounded memory under pathological
    /// reordering or a stalled stream.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (the in-order frame must always pass).
    pub fn with_buffer_cap(cap: usize) -> Self {
        assert!(cap > 0, "reorder buffer cap must be positive");
        FifoLinks {
            next_send: FastHashMap::default(),
            next_recv: FastHashMap::default(),
            buffered: FastHashMap::default(),
            buffer_cap: cap,
            dropped: 0,
        }
    }

    /// Stamps `msg` with the next sequence number for `peer`.
    pub fn wrap(&mut self, peer: P, msg: M) -> Frame<M> {
        let seq = self.next_send.entry(peer).or_insert(0);
        let frame = Frame { seq: *seq, inner: msg };
        *seq += 1;
        frame
    }

    /// Accepts a frame from `peer`, appending every message that is now
    /// deliverable in order to `ready` — the caller's buffer, so the common
    /// in-order frame costs no allocation (nothing is appended if the frame
    /// is early, or a duplicate of an already-released sequence number).
    /// Returns whether frames from `peer` are still held back behind a gap,
    /// i.e. whether [`Self::missing_from`] has anything to report.
    ///
    /// An out-of-order frame that would push the peer's buffer past the
    /// configured cap is dropped and counted instead — the expected
    /// in-order frame (`seq == next`) is always admitted, so a bounded
    /// buffer never deadlocks the stream.
    pub fn accept(&mut self, peer: P, frame: Frame<M>, ready: &mut Vec<M>) -> bool {
        let next = self.next_recv.entry(peer.clone()).or_insert(0);
        if frame.seq < *next {
            // Duplicate.
            return self.buffered.get(&peer).is_some_and(|buf| !buf.is_empty());
        }
        if frame.seq == *next {
            // Fast path: the expected frame releases immediately without
            // round-tripping through the reorder buffer — buffered keys are
            // always strictly above `next` (the drain below restores this
            // after every advance), so an insert-then-remove here would
            // only churn tree-node allocations.
            *next += 1;
            ready.push(frame.inner);
            let Some(buf) = self.buffered.get_mut(&peer) else { return false };
            while let Some(msg) = buf.remove(next) {
                ready.push(msg);
                *next += 1;
            }
            return !buf.is_empty();
        }
        // Out-of-order: buffer (nothing can become deliverable, since the
        // expected frame has not arrived).
        let buf = self.buffered.entry(peer).or_default();
        if buf.len() >= self.buffer_cap && !buf.contains_key(&frame.seq) {
            self.dropped += 1; // buffer full; ARQ retransmission recovers
        } else {
            buf.insert(frame.seq, frame.inner);
        }
        true
    }

    /// Number of frames buffered waiting for earlier sequence numbers.
    pub fn buffered_count(&self) -> usize {
        self.buffered.values().map(|b| b.len()).sum()
    }

    /// Total out-of-order frames dropped because a peer's reorder buffer
    /// was at its cap.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// The next sequence number expected from `peer` — i.e. everything
    /// below it has been released in order (the cumulative-ack value an
    /// ARQ layer advertises).
    pub fn expected_from(&self, peer: &P) -> u64 {
        self.next_recv.get(peer).copied().unwrap_or(0)
    }

    /// Every peer frames have been received from.
    pub fn receive_peers(&self) -> impl Iterator<Item = &P> {
        self.next_recv.keys()
    }

    /// The sequence number the next frame wrapped for `peer` will carry.
    pub fn next_seq_to(&self, peer: &P) -> u64 {
        self.next_send.get(peer).copied().unwrap_or(0)
    }

    /// Forgets all send-side state for `peer`: the next frame wrapped for
    /// it starts again at sequence 0. Used when (re)starting a stream after
    /// a crash or an epoch change — the receiver must reset its receive
    /// state for this endpoint in the same handshake or it will treat the
    /// renumbered frames as stale duplicates.
    pub fn reset_send(&mut self, peer: &P) {
        self.next_send.remove(peer);
    }

    /// Forgets all receive-side state for `peer`: buffered out-of-order
    /// frames are dropped and the next expected sequence number returns to
    /// 0. The counterpart of [`Self::reset_send`] on the other endpoint.
    pub fn reset_receive(&mut self, peer: &P) {
        self.next_recv.remove(peer);
        self.buffered.remove(peer);
    }

    /// Declares every frame from `peer` below `from_seq` permanently lost
    /// and releases, in order, any buffered frames that become deliverable
    /// from the new expectation point. Used when the sender gave up
    /// retransmitting a prefix and announced the jump: the stream heals
    /// with an explicit, counted gap instead of stalling forever.
    ///
    /// The released messages are appended to `ready`. A `from_seq` at or
    /// below the current expectation is a no-op (stale jump announcement).
    pub fn force_advance(&mut self, peer: &P, from_seq: u64, ready: &mut Vec<M>) {
        let next = self.next_recv.entry(peer.clone()).or_insert(0);
        if from_seq <= *next {
            return;
        }
        *next = from_seq;
        let Some(buf) = self.buffered.get_mut(peer) else { return };
        // Frames below the new expectation can never be delivered.
        while buf.first_key_value().map(|(&s, _)| s < from_seq).unwrap_or(false) {
            buf.pop_first();
        }
        while let Some(msg) = buf.remove(next) {
            ready.push(msg);
            *next += 1;
        }
    }

    /// The sequence numbers missing from `peer`'s stream (holes below the
    /// highest buffered frame), up to `limit` — what a selective-repeat
    /// ARQ reports back so the sender retransmits exactly the lost frames.
    pub fn missing_from(&self, peer: &P, limit: usize) -> Vec<u64> {
        let expected = self.expected_from(peer);
        let Some(buf) = self.buffered.get(peer) else { return Vec::new() };
        let mut missing = Vec::new();
        let mut cursor = expected;
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

impl<P: Eq + Hash + Clone, M> Default for FifoLinks<P, M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `accept` into a fresh buffer: the messages that frame released.
    fn accept<P: Eq + Hash + Clone, M>(rx: &mut FifoLinks<P, M>, peer: P, f: Frame<M>) -> Vec<M> {
        let mut ready = Vec::new();
        rx.accept(peer, f, &mut ready);
        ready
    }

    fn force_advance(rx: &mut FifoLinks<u32, u32>, peer: u32, from_seq: u64) -> Vec<u32> {
        let mut ready = Vec::new();
        rx.force_advance(&peer, from_seq, &mut ready);
        ready
    }

    #[test]
    fn in_order_frames_release_immediately() {
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        for i in 0..5 {
            let f = tx.wrap(1, i);
            assert_eq!(accept(&mut rx, 9, f), vec![i]);
        }
    }

    #[test]
    fn reordered_frames_are_buffered_then_released() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let f0 = tx.wrap(1, 10);
        let f1 = tx.wrap(1, 11);
        let f2 = tx.wrap(1, 12);
        assert!(accept(&mut rx, 0, f2).is_empty());
        assert!(accept(&mut rx, 0, f1).is_empty());
        assert_eq!(rx.buffered_count(), 2);
        assert_eq!(accept(&mut rx, 0, f0), vec![10, 11, 12]);
        assert_eq!(rx.buffered_count(), 0);
    }

    #[test]
    fn accept_reports_frames_held_behind_a_gap() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let frames: Vec<_> = (10..14).map(|m| tx.wrap(1, m)).collect();
        let mut ready = Vec::new();
        assert!(!rx.accept(0, frames[0].clone(), &mut ready), "in order: nothing held");
        assert!(rx.accept(0, frames[3].clone(), &mut ready), "early frame is held");
        assert!(rx.accept(0, frames[0].clone(), &mut ready), "duplicate: 13 still held");
        assert!(rx.accept(0, frames[1].clone(), &mut ready), "11 releases, 13 still held");
        assert_eq!(rx.missing_from(&0, 8), vec![2]);
        assert!(!rx.accept(0, frames[2].clone(), &mut ready), "gap closed");
        // One buffer took every release, in order, across the calls.
        assert_eq!(ready, vec![10, 11, 12, 13]);
        assert!(rx.missing_from(&0, 8).is_empty());
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let f0 = tx.wrap(1, 10);
        assert_eq!(accept(&mut rx, 0, f0.clone()), vec![10]);
        assert!(accept(&mut rx, 0, f0).is_empty());
    }

    #[test]
    fn reset_send_restarts_sequence_numbers() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        assert_eq!(tx.wrap(1, 10).seq, 0);
        assert_eq!(tx.wrap(1, 11).seq, 1);
        tx.reset_send(&1);
        assert_eq!(tx.wrap(1, 12).seq, 0);
        // Other peers are unaffected.
        assert_eq!(tx.wrap(2, 20).seq, 0);
    }

    #[test]
    fn reset_receive_accepts_a_fresh_stream() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let f0 = tx.wrap(1, 10);
        let _f1 = tx.wrap(1, 11);
        assert_eq!(accept(&mut rx, 0, f0), vec![10]);
        // Sender restarts from seq 0; without a reset the frame is a dup.
        tx.reset_send(&1);
        let g0 = tx.wrap(1, 50);
        assert!(accept(&mut rx, 0, g0.clone()).is_empty());
        rx.reset_receive(&0);
        assert_eq!(accept(&mut rx, 0, g0), vec![50]);
    }

    #[test]
    fn force_advance_releases_buffered_suffix() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let _f0 = tx.wrap(1, 10); // lost forever
        let _f1 = tx.wrap(1, 11); // lost forever
        let f2 = tx.wrap(1, 12);
        let f3 = tx.wrap(1, 13);
        assert!(accept(&mut rx, 0, f2).is_empty());
        assert!(accept(&mut rx, 0, f3).is_empty());
        assert_eq!(rx.buffered_count(), 2);
        assert_eq!(force_advance(&mut rx, 0, 2), vec![12, 13]);
        assert_eq!(rx.expected_from(&0), 4);
        assert_eq!(rx.buffered_count(), 0);
        // A stale (already-passed) jump is a no-op.
        assert!(force_advance(&mut rx, 0, 1).is_empty());
        assert_eq!(rx.expected_from(&0), 4);
    }

    #[test]
    fn force_advance_drops_undeliverable_prefix() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::new();
        let _f0 = tx.wrap(1, 10);
        let f1 = tx.wrap(1, 11);
        let _f2 = tx.wrap(1, 12);
        let f3 = tx.wrap(1, 13);
        assert!(accept(&mut rx, 0, f1).is_empty()); // buffered below the jump
        assert!(accept(&mut rx, 0, f3).is_empty());
        // Jump past 0..3: frame 1's buffered copy is dropped, 3 released.
        assert_eq!(force_advance(&mut rx, 0, 3), vec![13]);
        assert_eq!(rx.expected_from(&0), 4);
    }

    #[test]
    fn buffer_cap_drops_and_counts_overflow_frames() {
        let mut tx: FifoLinks<u32, u32> = FifoLinks::new();
        let mut rx: FifoLinks<u32, u32> = FifoLinks::with_buffer_cap(2);
        let f0 = tx.wrap(1, 10);
        let f1 = tx.wrap(1, 11);
        let f2 = tx.wrap(1, 12);
        let f3 = tx.wrap(1, 13);
        // f1 and f2 buffer; f3 overflows the cap and is dropped.
        assert!(accept(&mut rx, 0, f1.clone()).is_empty());
        assert!(accept(&mut rx, 0, f2).is_empty());
        assert!(accept(&mut rx, 0, f3.clone()).is_empty());
        assert_eq!(rx.buffered_count(), 2);
        assert_eq!(rx.dropped_count(), 1);
        // A duplicate of an already-buffered seq is not a new drop.
        assert!(accept(&mut rx, 0, f1).is_empty());
        assert_eq!(rx.dropped_count(), 1);
        // The in-order frame always passes even at the cap, and releases
        // the buffered run; the dropped frame arrives via retransmission.
        assert_eq!(accept(&mut rx, 0, f0), vec![10, 11, 12]);
        assert_eq!(accept(&mut rx, 0, f3), vec![13]);
        assert_eq!(rx.dropped_count(), 1);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_buffer_cap_is_rejected() {
        let _: FifoLinks<u32, u32> = FifoLinks::with_buffer_cap(0);
    }

    #[test]
    fn links_are_independent_per_peer() {
        let mut rx: FifoLinks<&'static str, u32> = FifoLinks::new();
        let mut a: FifoLinks<&'static str, u32> = FifoLinks::new();
        let mut b: FifoLinks<&'static str, u32> = FifoLinks::new();
        let fa = a.wrap("rx", 1);
        let fb = b.wrap("rx", 2);
        assert_eq!(accept(&mut rx, "a", fa), vec![1]);
        assert_eq!(accept(&mut rx, "b", fb), vec![2]);
    }
}
