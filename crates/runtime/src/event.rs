//! The event queue driving the simulation.
//!
//! Implemented as a hierarchical timing wheel: near-future events (within
//! `WHEEL_SPAN` (4096) microseconds of the queue's time floor) live in
//! per-microsecond FIFO slots, far-future events (timeouts,
//! retransmission timers) in a small indexed heap. Pops pick the global
//! minimum of both structures, so the delivered order — strictly
//! `(time, insertion seq)` — is identical to the plain binary heap this
//! replaced, and runs stay bit-for-bit deterministic across the swap.
//!
//! Every queued event is one entry of a single slab: a wheel slot is a
//! doubly linked list threaded through it, the far heap holds only
//! `(time, seq, entry)` keys, and popped or removed entries go on a free
//! list. The slab therefore retains memory for the peak number of *live*
//! events, not for the sum of each slot's peak. `EventQueue::push`
//! returns the entry's `Handle`, and `EventQueue::remove_timer` takes
//! a cancelled or re-armed timer out in place — O(1) in the wheel,
//! O(log n) in the far heap — so the queue never holds a timer that will
//! not fire.

use crate::actor::NodeId;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a message to a node.
    Deliver { to: NodeId, from: NodeId, msg: M },
    /// Fire a node's timer. Cancelling or re-arming it removes the event,
    /// so a queued timer is always current.
    Timer { node: NodeId, tag: u64 },
    /// Scheduled control action (fault injection).
    Control(Control),
}

/// Fault-injection actions that can be scheduled at a future time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Crash a node: it receives no further messages, and its pending
    /// timers are removed. The crash is permanent (crash-stop) unless a
    /// later [`Control::Restart`] brings the node back (crash-recovery).
    Crash(NodeId),
    /// Restart a crashed node. All volatile state is lost: pending timers
    /// are removed and the actor must re-initialize itself in
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

/// Width of the timing wheel in microseconds (= number of 1 µs slots).
///
/// Sized to cover one-way network latencies and the consensus tick with
/// slack; anything further out (client timeouts, retransmission checks,
/// plan-compute completions) takes the far heap, which sees a small
/// fraction of total traffic.
const WHEEL_SPAN: u64 = 4096;

/// End of a wheel slot's list, and of the free list.
const NIL: u32 = u32::MAX;

/// [`Entry::next`] of an entry that sits in the far heap.
const FAR: u32 = u32::MAX - 1;

/// A queued event's place in the queue, returned by [`EventQueue::push`].
///
/// A handle outlives its event: once the event pops (or is removed) the
/// entry is reused, so [`EventQueue::remove_timer`] checks what the entry
/// holds before it removes anything.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handle(u32);

/// One slab entry: a queued event, or a link of the free list.
#[derive(Debug)]
struct Entry<M> {
    /// `None` while the entry is on the free list.
    ev: Option<Event<M>>,
    /// Wheel: the previous entry of the slot's list ([`NIL`] at its head).
    /// Far heap: the entry's position in [`EventQueue::far`].
    prev: u32,
    /// Wheel: the next entry of the slot's list ([`NIL`] at its tail).
    /// Far heap: [`FAR`]. Free list: the next free entry.
    next: u32,
}

/// A far-heap key: the event's `(time, seq)` and its slab entry.
#[derive(Debug, Clone, Copy)]
struct FarKey {
    time: u64,
    seq: u64,
    idx: u32,
}

impl FarKey {
    fn key(self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic min-queue of events: timing wheel + far heap, both
/// over one slab of entries.
///
/// # Invariants
///
/// * `cursor` is the time (µs) of the last popped event; no pending event
///   is earlier (pushes into the past are a caller bug, debug-asserted).
/// * Every wheel-resident event has `time ∈ [cursor, cursor + WHEEL_SPAN)`.
///   Combined with the pop-in-order guarantee this means all events in one
///   slot share the *exact* same time, so a slot is FIFO by insertion
///   sequence — precisely the `(time, seq)` tie-break order. Removing an
///   entry from the middle of a slot keeps the rest in that order.
/// * `scan_from ≤` the time of the earliest wheel event (lower bound used
///   to avoid rescanning empty slots).
/// * `far` is a binary min-heap on `(time, seq)`, and each far entry's
///   `prev` is its key's position in `far`.
/// * Every slab entry is either queued (exactly once, in a wheel slot or
///   the far heap) or on the free list.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    slab: Vec<Entry<M>>,
    /// Head of the free list.
    free: u32,
    /// `(head, tail)` entry of each wheel slot's list.
    slots: Box<[(u32, u32)]>,
    wheel_len: usize,
    cursor: u64,
    scan_from: u64,
    far: Vec<FarKey>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            slots: vec![(NIL, NIL); WHEEL_SPAN as usize].into_boxed_slice(),
            wheel_len: 0,
            cursor: 0,
            scan_from: 0,
            far: Vec::new(),
            next_seq: 0,
        }
    }

    /// Queues `kind` at `time` behind every event queued before it.
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) -> Handle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.as_micros();
        debug_assert!(t >= self.cursor, "event scheduled in the past ({t} < {})", self.cursor);
        let ev = Event { time, seq, kind };
        if t < self.cursor.saturating_add(WHEEL_SPAN) {
            let s = (t % WHEEL_SPAN) as usize;
            let tail = self.slots[s].1;
            let i = self.alloc(ev, tail, NIL);
            match tail {
                NIL => self.slots[s].0 = i,
                _ => self.slab[tail as usize].next = i,
            }
            self.slots[s].1 = i;
            self.wheel_len += 1;
            if self.wheel_len == 1 || t < self.scan_from {
                self.scan_from = t;
            }
            Handle(i)
        } else {
            let pos = self.far.len();
            let i = self.alloc(ev, pos as u32, FAR);
            self.far.push(FarKey { time: t, seq, idx: i });
            self.sift_up(pos);
            Handle(i)
        }
    }

    /// Removes the timer `(node, tag)` if `handle` still holds it; a handle
    /// whose event already popped (its entry free or reused) removes
    /// nothing. Returns whether the timer was removed.
    pub fn remove_timer(&mut self, handle: Handle, node: NodeId, tag: u64) -> bool {
        let held = self.slab.get(handle.0 as usize).and_then(|e| e.ev.as_ref()).map(|e| &e.kind);
        if !matches!(held, Some(&EventKind::Timer { node: n, tag: t }) if n == node && t == tag) {
            return false;
        }
        self.remove(handle.0);
        true
    }

    /// Takes a free entry (or grows the slab) for `ev`.
    fn alloc(&mut self, ev: Event<M>, prev: u32, next: u32) -> u32 {
        let entry = Entry { ev: Some(ev), prev, next };
        if self.free != NIL {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = entry;
            i
        } else {
            let i = self.slab.len();
            assert!(i < FAR as usize, "event queue holds {i} events");
            self.slab.push(entry);
            i as u32
        }
    }

    /// Unlinks queued entry `i` from its wheel slot or the far heap and
    /// puts it on the free list.
    fn remove(&mut self, i: u32) -> Event<M> {
        let entry = &mut self.slab[i as usize];
        let (prev, next) = (entry.prev, entry.next);
        let ev = entry.ev.take().expect("a queued entry holds its event");
        entry.next = self.free;
        self.free = i;
        if next == FAR {
            self.far_remove(prev as usize);
        } else {
            let s = (ev.time.as_micros() % WHEEL_SPAN) as usize;
            match prev {
                NIL => self.slots[s].0 = next,
                _ => self.slab[prev as usize].next = next,
            }
            match next {
                NIL => self.slots[s].1 = prev,
                _ => self.slab[next as usize].prev = prev,
            }
            self.wheel_len -= 1;
        }
        ev
    }

    /// Writes `k` at heap position `pos` and records the position in its
    /// entry.
    fn place(&mut self, pos: usize, k: FarKey) {
        self.far[pos] = k;
        self.slab[k.idx as usize].prev = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let k = self.far[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.far[parent].key() < k.key() {
                break;
            }
            self.place(pos, self.far[parent]);
            pos = parent;
        }
        self.place(pos, k);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let k = self.far[pos];
        let n = self.far.len();
        loop {
            let left = 2 * pos + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.far[right].key() < self.far[left].key() {
                right
            } else {
                left
            };
            if k.key() < self.far[child].key() {
                break;
            }
            self.place(pos, self.far[child]);
            pos = child;
        }
        self.place(pos, k);
    }

    /// Removes the far-heap key at `pos`.
    fn far_remove(&mut self, pos: usize) {
        let last = self.far.pop().expect("a far entry has a heap key");
        if pos < self.far.len() {
            self.far[pos] = last;
            if pos > 0 && last.key() < self.far[(pos - 1) / 2].key() {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
    }

    /// `(time, seq)` and entry of the earliest wheel event, if any.
    fn wheel_head(&mut self) -> Option<((u64, u64), u32)> {
        if self.wheel_len == 0 {
            return None;
        }
        let mut t = self.scan_from.max(self.cursor);
        loop {
            let head = self.slots[(t % WHEEL_SPAN) as usize].0;
            if head != NIL {
                self.scan_from = t;
                let seq = self.slab[head as usize]
                    .ev
                    .as_ref()
                    .expect("a queued entry holds its event")
                    .seq;
                return Some(((t, seq), head));
            }
            t += 1;
            debug_assert!(
                t < self.cursor + 2 * WHEEL_SPAN,
                "wheel_len > 0 but no event found in the window"
            );
        }
    }

    /// `(time, seq)` and entry of the event [`EventQueue::pop`] returns
    /// next. Keys are unique, so the far head wins exactly when it is
    /// earlier.
    fn head(&mut self) -> Option<((u64, u64), u32)> {
        let wheel = self.wheel_head();
        let far = self.far.first().map(|k| (k.key(), k.idx));
        match (wheel, far) {
            (Some(w), Some(f)) => Some(if f.0 < w.0 { f } else { w }),
            (w, f) => w.or(f),
        }
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        let (_, i) = self.head()?;
        let ev = self.remove(i);
        self.cursor = ev.time.as_micros();
        self.scan_from = self.scan_from.max(self.cursor);
        Some(ev)
    }

    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(|((t, _), _)| SimTime::from_micros(t))
    }

    /// `(time, seq)` of the event [`EventQueue::pop`] returns next.
    #[cfg(test)]
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.head().map(|((t, seq), _)| (SimTime::from_micros(t), seq))
    }

    #[cfg_attr(not(test), expect(dead_code, reason = "only the tests ask; sim uses peek_time"))]
    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.far.is_empty()
    }

    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BinaryHeap};

    use super::*;

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

    fn timer(node: u32, tag: u64) -> EventKind<&'static str> {
        EventKind::Timer { node: NodeId::from_raw(node), tag }
    }

    /// Pushes, removals and pops drawn at random agree with an ordered map
    /// of the live events, entry by entry, in the wheel and the far heap.
    #[test]
    fn removals_match_an_ordered_reference() {
        let mut q = EventQueue::new();
        let mut live: BTreeMap<(u64, u64), (Handle, u64)> = BTreeMap::new();
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut now, mut pushed) = (0, 0);
        for step in 0..20_000u64 {
            match rng() % 8 {
                0..=3 => {
                    let delta = match rng() % 3 {
                        0 => rng() % 20,
                        1 => rng() % WHEEL_SPAN,
                        _ => rng() % (WHEEL_SPAN * 8),
                    };
                    let h = q.push(SimTime::from_micros(now + delta), timer(0, step));
                    live.insert((now + delta, pushed), (h, step));
                    pushed += 1;
                }
                4 | 5 => {
                    let Some(&key) = live.keys().nth((rng() % (live.len() as u64 + 1)) as usize)
                    else {
                        continue;
                    };
                    let (h, tag) = live.remove(&key).unwrap();
                    assert!(!q.remove_timer(h, NodeId::from_raw(1), tag), "another node's tag");
                    assert!(!q.remove_timer(h, NodeId::from_raw(0), tag + 1), "another tag");
                    assert!(q.remove_timer(h, NodeId::from_raw(0), tag));
                    assert!(!q.remove_timer(h, NodeId::from_raw(0), tag), "removed twice");
                }
                _ => {
                    let expected = live.pop_first();
                    let got = q.pop();
                    assert_eq!(
                        got.as_ref().map(|e| (e.time.as_micros(), e.seq)),
                        expected.map(|e| e.0)
                    );
                    if let Some(e) = got {
                        now = e.time.as_micros();
                    }
                }
            }
            assert_eq!(q.len(), live.len());
        }
    }

    #[test]
    fn a_second_burst_of_the_same_size_reuses_the_slab() {
        let mut q = EventQueue::new();
        let mut retained = None;
        for _ in 0..3 {
            let base = q.cursor;
            for i in 0..10_000 {
                // Near events fill a few wheel slots deep; every 7th goes far.
                let delta = if i % 7 == 0 { WHEEL_SPAN + i as u64 } else { (i % 64) as u64 };
                q.push(SimTime::from_micros(base + delta), deliver(i));
            }
            let now = (q.slab.len(), q.slab.capacity(), q.far.capacity());
            assert_eq!(now.0, 10_000);
            assert_eq!(*retained.get_or_insert(now), now, "the burst grew the queue");
            while q.pop().is_some() {}
            assert!(q.is_empty());
        }
    }
}
