//! The event queue driving the simulation.
//!
//! Implemented as a hierarchical timing wheel: near-future events (within
//! [`WHEEL_SPAN`] microseconds of the queue's time floor) live in
//! fixed-size per-microsecond buckets, far-future events (timeouts,
//! retransmission timers) in a small overflow heap. Pops pick the global
//! minimum of both structures, so the delivered order — strictly
//! `(time, insertion seq)` — is identical to the plain binary heap this
//! replaced, and runs stay bit-for-bit deterministic across the swap.
//! The win is constant-factor: the common case (a message delivery a few
//! hundred microseconds out) is a `VecDeque` push/pop instead of an
//! `O(log n)` sift that moves whole `Event` values around the heap.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::actor::NodeId;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a message to a node.
    Deliver { to: NodeId, from: NodeId, msg: M },
    /// Fire a timer on a node if its generation is still current.
    Timer { node: NodeId, tag: u64, gen: u64 },
    /// Scheduled control action (fault injection).
    Control(Control),
}

/// Fault-injection actions that can be scheduled at a future time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Crash a node: it receives no further messages or timers. The crash
    /// is permanent (crash-stop) unless a later [`Control::Restart`] brings
    /// the node back (crash-recovery).
    Crash(NodeId),
    /// Restart a crashed node. All volatile state is lost: pending timers
    /// are invalidated and the actor must re-initialize itself in
    /// [`Actor::on_restart`](crate::actor::Actor::on_restart) from the
    /// node's stable-storage blob, which survives the crash.
    Restart(NodeId),
    /// Disconnect a node: in-flight and future messages to/from it are
    /// dropped, timers still fire (the process is up but unreachable).
    Disconnect(NodeId),
    /// Reconnect a previously disconnected node.
    Reconnect(NodeId),
    /// Degrade the directed link `from → to`: every message on it gains
    /// `extra_delay_us` of latency and is dropped with probability
    /// `loss_pm / 1_000_000` (on top of the base network model). The
    /// override is asymmetric — the reverse direction is untouched unless
    /// degraded separately.
    DegradeLink {
        /// Sending endpoint of the degraded direction.
        from: NodeId,
        /// Receiving endpoint of the degraded direction.
        to: NodeId,
        /// Additional one-way latency, in microseconds.
        extra_delay_us: u64,
        /// Additional loss probability, in parts per million.
        loss_pm: u32,
    },
    /// Remove the [`Control::DegradeLink`] override on `from → to`.
    RepairLink {
        /// Sending endpoint of the repaired direction.
        from: NodeId,
        /// Receiving endpoint of the repaired direction.
        to: NodeId,
    },
}

#[derive(Debug)]
pub(crate) struct Event<M> {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> Ord for Event<M> {
    // Reversed so that BinaryHeap (a max-heap) pops the earliest event;
    // ties break by insertion sequence for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Width of the timing wheel in microseconds (= number of 1 µs slots).
///
/// Sized to cover one-way network latencies and the consensus tick with
/// slack; anything further out (client timeouts, retransmission checks,
/// plan-compute completions) takes the overflow heap, which sees a small
/// fraction of total traffic.
const WHEEL_SPAN: u64 = 4096;

/// A deterministic min-queue of events: timing wheel + overflow heap.
///
/// # Invariants
///
/// * `cursor` is the time (µs) of the last popped event; no pending event
///   is earlier (pushes into the past are a caller bug, debug-asserted).
/// * Every wheel-resident event has `time ∈ [cursor, cursor + WHEEL_SPAN)`.
///   Combined with the pop-in-order guarantee this means all events in one
///   slot share the *exact* same time, so a slot is FIFO by insertion
///   sequence — precisely the `(time, seq)` tie-break order.
/// * `scan_from ≤` the time of the earliest wheel event (lower bound used
///   to avoid rescanning empty slots).
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    slots: Vec<VecDeque<Event<M>>>,
    wheel_len: usize,
    cursor: u64,
    scan_from: u64,
    overflow: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            slots: (0..WHEEL_SPAN).map(|_| VecDeque::new()).collect(),
            wheel_len: 0,
            cursor: 0,
            scan_from: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.as_micros();
        debug_assert!(t >= self.cursor, "event scheduled in the past ({t} < {})", self.cursor);
        let ev = Event { time, seq, kind };
        if t < self.cursor.saturating_add(WHEEL_SPAN) {
            self.slots[(t % WHEEL_SPAN) as usize].push_back(ev);
            self.wheel_len += 1;
            if self.wheel_len == 1 || t < self.scan_from {
                self.scan_from = t;
            }
        } else {
            self.overflow.push(ev);
        }
    }

    /// Time and insertion seq of the earliest wheel event, if any.
    fn wheel_head(&mut self) -> Option<(u64, u64)> {
        if self.wheel_len == 0 {
            return None;
        }
        let mut t = self.scan_from.max(self.cursor);
        loop {
            if let Some(ev) = self.slots[(t % WHEEL_SPAN) as usize].front() {
                self.scan_from = t;
                return Some((t, ev.seq));
            }
            t += 1;
            debug_assert!(
                t < self.cursor + 2 * WHEEL_SPAN,
                "wheel_len > 0 but no event found in the window"
            );
        }
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        let wheel = self.wheel_head();
        let take_overflow = match (wheel, self.overflow.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            // `Event: Ord` is reversed for the max-heap, so compare keys
            // directly: the overflow head wins only if strictly earlier.
            (Some((wt, wseq)), Some(o)) => (o.time.as_micros(), o.seq) < (wt, wseq),
        };
        let ev = if take_overflow {
            self.overflow.pop().expect("peeked overflow event")
        } else {
            let (wt, _) = wheel.expect("wheel head checked");
            self.wheel_len -= 1;
            self.slots[(wt % WHEEL_SPAN) as usize].pop_front().expect("scanned slot non-empty")
        };
        self.cursor = ev.time.as_micros();
        self.scan_from = self.scan_from.max(self.cursor);
        Some(ev)
    }

    pub fn peek_time(&mut self) -> Option<SimTime> {
        let wheel = self.wheel_head().map(|(t, _)| t);
        let overflow = self.overflow.peek().map(|e| e.time.as_micros());
        match (wheel, overflow) {
            (None, None) => None,
            (Some(t), None) | (None, Some(t)) => Some(SimTime::from_micros(t)),
            (Some(w), Some(o)) => Some(SimTime::from_micros(w.min(o))),
        }
    }

    #[cfg_attr(not(test), expect(dead_code, reason = "only the tests ask; sim uses peek_time"))]
    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.overflow.is_empty()
    }

    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue the wheel replaced: one global binary heap. Kept as the
    /// ordering reference for the determinism-equivalence tests below.
    struct BaselineHeapQueue<M> {
        heap: BinaryHeap<Event<M>>,
        next_seq: u64,
    }

    impl<M> BaselineHeapQueue<M> {
        fn new() -> Self {
            BaselineHeapQueue { heap: BinaryHeap::new(), next_seq: 0 }
        }

        fn push(&mut self, time: SimTime, kind: EventKind<M>) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event { time, seq, kind });
        }

        fn pop(&mut self) -> Option<Event<M>> {
            self.heap.pop()
        }
    }

    fn deliver(to: u32) -> EventKind<&'static str> {
        EventKind::Deliver { to: NodeId::from_raw(to), from: NodeId::EXTERNAL, msg: "m" }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), deliver(0));
        q.push(SimTime::from_micros(10), deliver(1));
        q.push(SimTime::from_micros(20), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.as_micros()).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        q.push(t, deliver(0));
        q.push(t, deliver(1));
        q.push(t, deliver(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deliver { to, .. } => to.as_raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_time_tracks_head() {
        let mut q = EventQueue::<&'static str>::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(7), deliver(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_take_the_overflow_heap_and_still_order() {
        let mut q = EventQueue::new();
        // Far beyond the wheel span.
        q.push(SimTime::from_secs(30), deliver(0));
        q.push(SimTime::from_micros(100), deliver(1));
        q.push(SimTime::from_millis(500), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.as_micros()).collect();
        assert_eq!(order, vec![100, 500_000, 30_000_000]);
    }

    #[test]
    fn overflow_and_wheel_ties_break_by_seq() {
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(10_000);
        q.push(far, deliver(0)); // seq 0, overflow at push time
                                 // Drain a nearer event so the cursor advances and `far` would now
                                 // be wheel-eligible for new pushes.
        q.push(SimTime::from_micros(9_000), deliver(9));
        assert_eq!(q.pop().unwrap().time.as_micros(), 9_000);
        q.push(far, deliver(1)); // seq 2, lands in the wheel
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deliver { to, .. } => to.as_raw(),
                _ => unreachable!(),
            })
            .collect();
        // Overflow copy (seq 0) must come before the wheel copy (seq 2).
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn same_slot_across_spans_cannot_collide() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), deliver(0));
        // 100 + WHEEL_SPAN maps to the same slot index but must go to the
        // overflow heap (outside the current window) and pop second.
        q.push(SimTime::from_micros(100 + WHEEL_SPAN), deliver(1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.as_micros()).collect();
        assert_eq!(order, vec![100, 100 + WHEEL_SPAN]);
    }

    /// Drives the wheel and the baseline heap through an identical
    /// deterministic pseudo-random push/pop schedule and asserts the pop
    /// sequences agree exactly — the scheduler-swap determinism guarantee.
    #[test]
    fn wheel_matches_baseline_heap_order() {
        let mut wheel = EventQueue::new();
        let mut heap = BaselineHeapQueue::new();
        let mut state: u64 = 0x9E37_79B9;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now: u64 = 0;
        let mut popped = 0u32;
        let mut pushed = 0u32;
        while popped < 2_000 {
            let burst = 1 + (rng() % 4);
            for _ in 0..burst {
                if pushed >= 2_000 {
                    break;
                }
                // Mix of near (wheel) and far (overflow) schedule points,
                // including exact ties.
                let delta = match rng() % 5 {
                    0 => 0,
                    1 => rng() % 50,
                    2 => rng() % 1_000,
                    3 => rng() % (WHEEL_SPAN * 2),
                    _ => 5_000 + rng() % 100_000,
                };
                let t = SimTime::from_micros(now + delta);
                wheel.push(t, deliver(pushed));
                heap.push(t, deliver(pushed));
                pushed += 1;
            }
            let (a, b) = (wheel.pop(), heap.pop());
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq), (y.time, y.seq), "divergence at pop {popped}");
                    now = x.time.as_micros();
                }
                (None, None) => {
                    if pushed >= 2_000 {
                        break;
                    }
                }
                (x, y) => panic!(
                    "one queue drained early: wheel={:?} heap={:?}",
                    x.map(|e| e.seq),
                    y.map(|e| e.seq)
                ),
            }
            popped += 1;
        }
    }
}
