//! The Multi-Paxos replica state machine.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::types::{Ballot, Entry, GroupConfig, PaxosMsg, Peers, Slot, MAX_GROUP_SIZE};

/// Ballot marker for values that are known chosen. It compares greater than
/// any real ballot, so a new leader's value selection always keeps chosen
/// values — required for safety when acceptors report decided slots.
const DECIDED_BALLOT: Ballot = Ballot { round: u64::MAX, owner: usize::MAX };

/// Batch cap for catch-up retransmissions.
const CATCH_UP_BATCH: u64 = 512;

/// Delivered log entries retained for catch-up retransmission. Entries
/// older than this behind the delivery frontier are pruned (a real system
/// would snapshot; a replica lagging further than this window cannot be
/// caught up and would need a state transfer).
const LOG_RETENTION: u64 = 1024;

/// The acceptor log: one `(ballot, entry)` per slot from `base` on, `None`
/// for a slot nothing was stored in. A slot is decided exactly when its
/// ballot is [`DECIDED_BALLOT`]. Memory is O(highest stored slot − `base`):
/// the front is pruned at the retention mark, and an insert below `base`
/// is dropped.
#[derive(Debug)]
struct Log<V> {
    /// Slot of `slots[0]`.
    base: Slot,
    slots: VecDeque<Option<(Ballot, Entry<V>)>>,
}

impl<V> Log<V> {
    fn new(base: Slot) -> Self {
        Log { base, slots: VecDeque::new() }
    }

    /// Index of `slot` in `slots`; `None` below `base`.
    fn index(&self, slot: Slot) -> Option<usize> {
        slot.0.checked_sub(self.base.0).and_then(|i| usize::try_from(i).ok())
    }

    /// The chosen entry of `slot`, if it is decided.
    fn decided(&self, slot: Slot) -> Option<&Entry<V>> {
        match self.slots.get(self.index(slot)?)? {
            Some((b, v)) if *b == DECIDED_BALLOT => Some(v),
            _ => None,
        }
    }

    /// Stores `value` in `ballot` at `slot`, growing the log to reach it.
    /// A decided slot keeps its first chosen value, and a slot below
    /// `base` stores nothing.
    fn store(&mut self, slot: Slot, ballot: Ballot, value: Entry<V>) {
        let Some(i) = self.index(slot) else { return };
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        match &mut self.slots[i] {
            Some((b, _)) if *b == DECIDED_BALLOT => {}
            cell => *cell = Some((ballot, value)),
        }
    }

    /// Marks the value stored at `slot` chosen, in place, and returns it;
    /// `None` when nothing is stored there.
    fn mark_decided(&mut self, slot: Slot) -> Option<&Entry<V>> {
        let (b, v) = self.slots.get_mut(self.index(slot)?)?.as_mut()?;
        *b = DECIDED_BALLOT;
        Some(v)
    }

    /// Every stored `(slot, ballot, entry)` at or above `from`, ascending.
    fn iter_from(&self, from: Slot) -> impl Iterator<Item = (Slot, Ballot, &Entry<V>)> {
        let first = self.index(from).unwrap_or(0).min(self.slots.len());
        let base = self.base.0;
        self.slots
            .range(first..)
            .zip(first as u64..)
            .filter_map(move |(cell, i)| cell.as_ref().map(|(b, v)| (Slot(base + i), *b, v)))
    }

    /// Drops every slot below `cutoff`.
    fn prune_below(&mut self, cutoff: Slot) {
        let Some(n) = self.index(cutoff) else { return };
        self.slots.drain(..n.min(self.slots.len()));
        self.base = cutoff;
    }
}

/// The effects of feeding one input to a [`PaxosReplica`].
///
/// The `_into` entry points ([`PaxosReplica::propose_into`],
/// [`PaxosReplica::on_message_into`], [`PaxosReplica::tick_into`]) append
/// to a caller-owned `Output<V, Peers>` and never clear it, so a
/// long-lived caller drains one buffer per call instead of allocating a
/// fresh pair of vectors. Each of its messages names a recipient set, so a
/// message to the whole group is one message, not one per peer. The
/// by-value methods return `Output<V>`, the same messages expanded to one
/// per recipient ([`Output::expand`]).
#[derive(Debug, Clone)]
pub struct Output<V, To = usize> {
    /// Messages to send, as `(recipients, message)` pairs: a replica index
    /// in `Output<V>`, a [`Peers`] set in `Output<V, Peers>`.
    pub outgoing: Vec<(To, PaxosMsg<V>)>,
    /// Commands newly decided *and* in slot order, ready for the
    /// application. No-op gap fillers are filtered out; a decided
    /// [`Entry::Batch`] is flattened into one element per command (all
    /// carrying the batch's slot, in batch order).
    pub decided: Vec<(Slot, V)>,
}

impl<V, To> Default for Output<V, To> {
    fn default() -> Self {
        Output { outgoing: Vec::new(), decided: Vec::new() }
    }
}

impl<V, To> Output<V, To> {
    /// True when nothing needs to be sent or delivered.
    pub fn is_empty(&self) -> bool {
        self.outgoing.is_empty() && self.decided.is_empty()
    }
}

impl<V> Output<V, Peers> {
    /// Queues `msg` for the replicas in `to`; an empty set sends nothing.
    fn send(&mut self, to: Peers, msg: PaxosMsg<V>) {
        if !to.is_empty() {
            self.outgoing.push((to, msg));
        }
    }
}

impl<V: Clone> Output<V, Peers> {
    /// One `(index, message)` pair per recipient, in set order then
    /// ascending index: the shape the by-value methods return.
    pub fn expand(self) -> Output<V> {
        let mut outgoing = Vec::with_capacity(self.outgoing.len());
        for (to, msg) in self.outgoing {
            outgoing.extend(to.iter().map(|idx| (idx, msg.clone())));
        }
        Output { outgoing, decided: self.decided }
    }
}

/// Cap on per-flush samples retained between [`PaxosReplica::drain_batch_stats`]
/// drains, so an undrained replica cannot grow without bound.
const BATCH_SAMPLE_CAP: usize = 1024;

/// Leader-side batching counters, accumulated since the last
/// [`PaxosReplica::drain_batch_stats`] drain.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Batches flushed because they reached `max_batch` commands.
    pub flush_full: u64,
    /// Batches flushed because the delay bound expired (includes the
    /// zero-delay "flush immediately" case for partial batches).
    pub flush_delay: u64,
    /// Total batches flushed (each occupies one log slot).
    pub batches: u64,
    /// Total commands across those batches.
    pub batched_cmds: u64,
    /// Per-flush `(batch size, slots in flight after the flush)` samples,
    /// capped at [`BATCH_SAMPLE_CAP`] per drain interval.
    pub samples: Vec<(u32, u32)>,
}

impl BatchStats {
    /// Zeroes every counter, keeping the sample buffer's capacity.
    fn reset(&mut self) {
        let BatchStats { flush_full, flush_delay, batches, batched_cmds, samples } = self;
        (*flush_full, *flush_delay, *batches, *batched_cmds) = (0, 0, 0, 0);
        samples.clear();
    }

    fn record(&mut self, size: usize, full: bool, occupancy: usize) {
        if full {
            self.flush_full += 1;
        } else {
            self.flush_delay += 1;
        }
        self.batches += 1;
        self.batched_cmds += size as u64;
        if self.samples.len() < BATCH_SAMPLE_CAP {
            self.samples.push((size as u32, occupancy as u32));
        }
    }
}

/// One live replica's view of the log, exported for a recovering peer.
///
/// Crash-recovery with amnesia is unsafe in Paxos: a replica that forgets
/// an accepted value can let a later leader decide a different value for
/// the same slot. A restarting replica therefore rebuilds its acceptor
/// state from a *quorum* of these reports (Viewstamped-Replication-style
/// recovery): any value accepted by a quorum appears in at least one
/// report of any quorum of live peers, so merging the reported tails
/// restores every possibly-chosen value.
#[derive(Debug, Clone)]
pub struct RecoveryReport<V> {
    /// The reporter's promised ballot.
    pub promised: Ballot,
    /// The reporter's decided frontier (first slot not known decided).
    pub frontier: Slot,
    /// Commands the reporter has delivered (excluding no-ops) up to its
    /// frontier.
    pub delivered: u64,
    /// `(slot, ballot, value)` for every slot at or above the reporter's
    /// frontier it has accepted or decided (decided slots carry the
    /// chosen-value sentinel ballot).
    pub accepted: Vec<(Slot, Ballot, Entry<V>)>,
}

#[derive(Debug)]
enum Role<V> {
    Follower,
    Candidate {
        ballot: Ballot,
        /// Replicas that promised, with their reported accepted entries.
        promises: BTreeSet<usize>,
        /// Best (highest-ballot) reported value per slot.
        values: BTreeMap<Slot, (Ballot, Entry<V>)>,
        /// Highest slot reported by any promiser.
        max_slot: Option<Slot>,
    },
    Leader {
        ballot: Ballot,
        /// Next free slot.
        next_slot: Slot,
        /// Acceptances gathered per in-flight slot (includes self), one
        /// bit per replica index (groups have at most [`MAX_GROUP_SIZE`]
        /// replicas).
        in_flight: BTreeMap<Slot, u64>,
        ticks_since_heartbeat: u32,
    },
}

/// A full Multi-Paxos replica: proposer, acceptor and learner in one state
/// machine.
///
/// Drive it with [`PaxosReplica::on_message_into`],
/// [`PaxosReplica::tick_into`] and [`PaxosReplica::propose_into`]; each
/// appends to a caller's [`Output`] the messages to transmit, one per
/// recipient set, and the commands to deliver (the by-value forms return
/// the same with one message per recipient). Replica 0 starts as leader of
/// ballot `(0, 0)` so a freshly booted group makes progress without an
/// election.
#[derive(Debug)]
pub struct PaxosReplica<V> {
    idx: usize,
    cfg: GroupConfig,
    /// Highest ballot promised (acceptor state).
    promised: Ballot,
    /// Accepted and chosen values per slot. Chosen slots carry
    /// [`DECIDED_BALLOT`] so promises always carry them.
    log: Log<V>,
    /// First slot not yet known decided (end of the log's dense decided
    /// prefix). Every slot below it has been delivered through
    /// [`Output::decided`].
    decided_frontier: Slot,
    role: Role<V>,
    /// Replica currently believed to be leader.
    leader_hint: Option<usize>,
    ticks_since_leader: u32,
    /// Proposals waiting for a known leader.
    pending: VecDeque<V>,
    /// Leader-only: proposals accumulating into the next batch. Drained
    /// into `pending` on loss of leadership so nothing is stranded.
    batch_buffer: Vec<V>,
    /// Ticks the oldest buffered proposal has waited (drives delay flush).
    buffer_wait_ticks: u32,
    /// Batching counters since the last [`PaxosReplica::drain_batch_stats`].
    batch_stats: BatchStats,
    /// Commands delivered so far (no-ops excluded); survives log pruning.
    delivered_cmds: u64,
    /// Highest decided frontier any peer has advertised (via heartbeats or
    /// promises). When it runs away from our own frontier by more than the
    /// retention window, ordinary catch-up can no longer help: peers have
    /// pruned the slots we need and a state transfer is required.
    max_seen_frontier: Slot,
}

impl<V: Clone> PaxosReplica<V> {
    /// Creates replica `idx` of a group described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the group, or the group has more
    /// than [`MAX_GROUP_SIZE`] replicas.
    pub fn new(idx: usize, cfg: GroupConfig) -> Self {
        assert!(idx < cfg.size, "replica index {idx} out of range for group of {}", cfg.size);
        assert!(cfg.size <= MAX_GROUP_SIZE, "a Paxos group has at most {MAX_GROUP_SIZE} replicas");
        let role = if idx == 0 {
            Role::Leader {
                ballot: Ballot::INITIAL,
                next_slot: Slot(0),
                in_flight: BTreeMap::new(),
                ticks_since_heartbeat: 0,
            }
        } else {
            Role::Follower
        };
        PaxosReplica {
            idx,
            cfg,
            promised: Ballot::INITIAL,
            log: Log::new(Slot(0)),
            decided_frontier: Slot(0),
            role,
            leader_hint: Some(0),
            ticks_since_leader: 0,
            pending: VecDeque::new(),
            batch_buffer: Vec::new(),
            buffer_wait_ticks: 0,
            batch_stats: BatchStats::default(),
            delivered_cmds: 0,
            max_seen_frontier: Slot(0),
        }
    }

    /// This replica's index within its group.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Every other replica of the group: the recipients of a broadcast.
    fn others(&self) -> Peers {
        Peers::all(self.cfg.size).without(self.idx)
    }

    /// Highest ballot this replica has promised (acceptor state). This is
    /// the one piece of state that must survive a crash (persist it before
    /// acting on a promise) — everything else is rebuilt from peers.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Exports this replica's log view for a recovering peer.
    pub fn recovery_report(&self) -> RecoveryReport<V> {
        RecoveryReport {
            promised: self.promised,
            frontier: self.decided_frontier,
            delivered: self.delivered_cmds,
            accepted: self.log_from_frontier(),
        }
    }

    /// Rebuilds a replica from a quorum of peer [`RecoveryReport`]s after a
    /// crash (the caller must supply at least `cfg.quorum()` reports — see
    /// the safety argument on [`RecoveryReport`]).
    ///
    /// `promised_floor` is the promised ballot recovered from this
    /// replica's own stable storage; the rebuilt promise never drops below
    /// it, so promises made before the crash stay honoured even if every
    /// reporting peer is behind them.
    ///
    /// The replica comes back as a follower with no leader hint (an
    /// ex-leader thus steps down cleanly; the group re-elects around it).
    /// Its log is fast-forwarded to the highest reported frontier — the
    /// application state up to that frontier must be installed separately
    /// by the caller (snapshot transfer); slots already decided above the
    /// frontier are returned through the accompanying [`Output`] exactly as
    /// live decisions would be.
    ///
    /// # Panics
    ///
    /// Panics if `reports` holds fewer than `cfg.quorum()` reports, or the
    /// group has more than [`MAX_GROUP_SIZE`] replicas.
    pub fn recover_from(
        idx: usize,
        cfg: GroupConfig,
        promised_floor: Ballot,
        reports: &[RecoveryReport<V>],
    ) -> (Self, Output<V, Peers>) {
        assert!(cfg.size <= MAX_GROUP_SIZE, "a Paxos group has at most {MAX_GROUP_SIZE} replicas");
        assert!(
            reports.len() >= cfg.quorum(),
            "recovery needs a quorum of reports ({} < {})",
            reports.len(),
            cfg.quorum()
        );
        let frontier = reports.iter().map(|r| r.frontier).max().unwrap_or(Slot(0));
        let delivered = reports
            .iter()
            .filter(|r| r.frontier == frontier)
            .map(|r| r.delivered)
            .max()
            .unwrap_or(0);
        let mut promised = promised_floor;
        let mut merged: BTreeMap<Slot, (Ballot, Entry<V>)> = BTreeMap::new();
        for r in reports {
            promised = promised.max(r.promised);
            for (slot, ballot, value) in &r.accepted {
                if *slot < frontier {
                    continue;
                }
                match merged.get(slot) {
                    Some(&(existing, _)) if existing >= *ballot => {}
                    _ => {
                        merged.insert(*slot, (*ballot, value.clone()));
                    }
                }
            }
        }
        let mut log = Log::new(frontier);
        for (slot, (ballot, value)) in merged {
            log.store(slot, ballot, value);
        }
        let mut replica = PaxosReplica {
            idx,
            cfg,
            promised,
            log,
            decided_frontier: frontier,
            role: Role::Follower,
            leader_hint: None,
            ticks_since_leader: 0,
            pending: VecDeque::new(),
            batch_buffer: Vec::new(),
            buffer_wait_ticks: 0,
            batch_stats: BatchStats::default(),
            delivered_cmds: delivered,
            max_seen_frontier: frontier,
        };
        // Slots already chosen above the frontier re-deliver through the
        // normal path so the caller's application observes them once.
        let mut out = Output::default();
        replica.advance(&mut out);
        (replica, out)
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        matches!(self.role, Role::Leader { .. })
    }

    /// The replica currently believed to be leader, if any.
    pub fn leader_hint(&self) -> Option<usize> {
        self.leader_hint
    }

    /// First slot not yet known decided.
    pub fn decided_frontier(&self) -> Slot {
        self.decided_frontier
    }

    /// Number of commands (excluding no-ops) this replica has delivered.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_cmds
    }

    /// True when this replica has fallen further behind the group's decided
    /// frontier than the log-retention window. Slot-by-slot catch-up cannot
    /// close such a gap (peers have pruned the needed slots); the caller
    /// must run a state transfer — rebuild via [`PaxosReplica::recover_from`]
    /// plus an application snapshot, exactly as after a crash.
    pub fn needs_state_transfer(&self) -> bool {
        self.max_seen_frontier.0 > self.decided_frontier.0.saturating_add(LOG_RETENTION)
    }

    /// Submits a command for total ordering.
    ///
    /// At the leader the command enters the batch buffer and (with the
    /// default [`crate::BatchConfig`]) starts phase 2 immediately;
    /// elsewhere the command is forwarded to the believed leader or
    /// buffered until one is known.
    pub fn propose(&mut self, value: V) -> Output<V> {
        let mut out = Output::default();
        self.propose_into(value, &mut out);
        out.expand()
    }

    /// [`Self::propose`], appending its effects to `out`.
    pub fn propose_into(&mut self, value: V, out: &mut Output<V, Peers>) {
        if self.is_leader() {
            self.batch_buffer.push(value);
            self.maybe_flush_batch(out);
        } else if let Some(leader) = self.leader_hint {
            out.send(Peers::one(leader), PaxosMsg::Forward { value });
        } else {
            self.pending.push_back(value);
        }
    }

    /// Leader-only: flushes the batch buffer into log slots as long as a
    /// flush condition holds (buffer full, or delay expired) and the
    /// pipelining window has room. See [`crate::BatchConfig`].
    fn maybe_flush_batch(&mut self, out: &mut Output<V, Peers>) {
        loop {
            let Role::Leader { in_flight, .. } = &self.role else { return };
            if self.batch_buffer.is_empty() {
                self.buffer_wait_ticks = 0;
                return;
            }
            if !self.cfg.batch.window_open(in_flight.len()) {
                return;
            }
            let full = self.batch_buffer.len() >= self.cfg.batch.max_batch;
            if !full && self.buffer_wait_ticks < self.cfg.batch.max_batch_delay_ticks {
                return;
            }
            let take = self.batch_buffer.len().min(self.cfg.batch.max_batch);
            // A singleton rides as Cmd (no Vec framing on the wire). It is
            // the *oldest* buffered command: the buffer may hold more.
            let entry = if take == 1 {
                Entry::Cmd(self.batch_buffer.remove(0))
            } else {
                Entry::Batch(self.batch_buffer.drain(..take).collect())
            };
            self.lead_value(entry, out);
            let occupancy = match &self.role {
                Role::Leader { in_flight, .. } => in_flight.len(),
                _ => 0,
            };
            self.batch_stats.record(take, full, occupancy);
        }
    }

    /// Hands the leader-side batching counters to `read`, then resets them
    /// in place, so the per-flush sample buffer keeps its capacity.
    /// Replicas that never lead report all-zero stats.
    pub fn drain_batch_stats(&mut self, read: impl FnOnce(&BatchStats)) {
        read(&self.batch_stats);
        self.batch_stats.reset();
    }

    /// Number of undecided slots this leader currently has in flight
    /// (0 on non-leaders).
    pub fn slots_in_flight(&self) -> usize {
        match &self.role {
            Role::Leader { in_flight, .. } => in_flight.len(),
            _ => 0,
        }
    }

    /// Number of proposals waiting in the leader's batch buffer.
    pub fn batch_buffered(&self) -> usize {
        self.batch_buffer.len()
    }

    /// Leader-only: assign the next slot to `entry` and issue Accepts.
    fn lead_value(&mut self, entry: Entry<V>, out: &mut Output<V, Peers>) {
        #[expect(
            clippy::unreachable,
            reason = "every caller checks Role::Leader first; silently dropping `entry` here would lose a proposal, so a loud local-invariant failure is safer"
        )]
        let Role::Leader { ballot, next_slot, in_flight, .. } = &mut self.role
        else {
            unreachable!("lead_value called on non-leader");
        };
        let slot = *next_slot;
        *next_slot = next_slot.next();
        let ballot = *ballot;
        *in_flight.entry(slot).or_default() |= 1 << self.idx;
        // Leader self-accepts.
        self.log.store(slot, ballot, entry.clone());
        out.send(self.others(), PaxosMsg::Accept { ballot, slot, value: entry });
        // Single-replica group: quorum is 1, decide immediately.
        self.try_decide(slot, out);
    }

    /// Checks whether `slot` has a quorum of acceptances and decides it.
    fn try_decide(&mut self, slot: Slot, out: &mut Output<V, Peers>) {
        let quorum = self.cfg.quorum();
        let Role::Leader { in_flight, .. } = &mut self.role else { return };
        let Some(votes) = in_flight.get(&slot) else { return };
        if (votes.count_ones() as usize) < quorum {
            return;
        }
        in_flight.remove(&slot);
        // A quorum for a slot we never accepted means ballot bookkeeping
        // went wrong locally; drop the decision rather than crash — a
        // ballot change re-proposes the slot.
        let Some(value) = self.log.mark_decided(slot).cloned() else { return };
        self.advance(out);
        out.send(self.others(), PaxosMsg::Decide { slot, value });
    }

    /// Delivers every decided slot from the frontier on, in order, then
    /// prunes the log [`LOG_RETENTION`] slots behind the new frontier.
    fn advance(&mut self, out: &mut Output<V, Peers>) {
        while let Some(entry) = self.log.decided(self.decided_frontier) {
            let slot = self.decided_frontier;
            match entry {
                Entry::Cmd(v) => {
                    out.decided.push((slot, v.clone()));
                    self.delivered_cmds += 1;
                }
                Entry::Batch(vs) => {
                    out.decided.extend(vs.iter().map(|v| (slot, v.clone())));
                    self.delivered_cmds += vs.len() as u64;
                }
                Entry::Noop => {}
            }
            self.decided_frontier = slot.next();
        }
        if let Some(cutoff) = self.decided_frontier.0.checked_sub(LOG_RETENTION) {
            self.log.prune_below(Slot(cutoff));
        }
    }

    /// Every stored slot at or above the decided frontier, as reported in a
    /// Promise or a [`RecoveryReport`].
    fn log_from_frontier(&self) -> Vec<(Slot, Ballot, Entry<V>)> {
        self.log.iter_from(self.decided_frontier).map(|(s, b, v)| (s, b, v.clone())).collect()
    }

    /// Advances the replica's clock by one tick.
    ///
    /// Leaders emit heartbeats; followers count leader silence and start an
    /// election when their rank-staggered timeout expires (see
    /// [`GroupConfig::election_timeout_ticks`]).
    pub fn tick(&mut self) -> Output<V> {
        let mut out = Output::default();
        self.tick_into(&mut out);
        out.expand()
    }

    /// [`Self::tick`], appending its effects to `out`.
    pub fn tick_into(&mut self, out: &mut Output<V, Peers>) {
        match &mut self.role {
            Role::Leader { ballot, ticks_since_heartbeat, .. } => {
                *ticks_since_heartbeat += 1;
                if *ticks_since_heartbeat >= self.cfg.heartbeat_interval_ticks {
                    *ticks_since_heartbeat = 0;
                    let hb = PaxosMsg::Heartbeat {
                        ballot: *ballot,
                        decided_up_to: self.decided_frontier,
                    };
                    out.send(self.others(), hb);
                }
                if !self.batch_buffer.is_empty() {
                    self.buffer_wait_ticks += 1;
                    self.maybe_flush_batch(out);
                }
            }
            Role::Follower | Role::Candidate { .. } => {
                self.ticks_since_leader += 1;
                if self.ticks_since_leader >= self.election_timeout() {
                    self.ticks_since_leader = 0;
                    self.start_election(out);
                }
            }
        }
    }

    /// Leader silence after which this replica campaigns: the base timeout
    /// plus one stagger step per rank. The rank is the ring distance behind
    /// the believed leader, so its successor goes first and a deposed
    /// leader last; with no hint, or one outside the group (it arrives on
    /// the wire as a ballot owner), the rank is this replica's index.
    fn election_timeout(&self) -> u32 {
        let n = self.cfg.size;
        let rank = match self.leader_hint {
            Some(leader) if leader < n => (self.idx + n - leader - 1) % n,
            _ => self.idx,
        };
        self.cfg.election_timeout_ticks + rank as u32 * self.cfg.election_stagger_ticks()
    }

    fn start_election(&mut self, out: &mut Output<V, Peers>) {
        let ballot = self.promised.next_for(self.idx);
        self.promised = ballot;
        self.leader_hint = None;
        let mut values = BTreeMap::new();
        let mut max_slot = None;
        // Self-promise: contribute our own accepted entries.
        for (slot, b, v) in self.log.iter_from(self.decided_frontier) {
            values.insert(slot, (b, v.clone()));
            max_slot = Some(slot);
        }
        let mut promises = BTreeSet::new();
        promises.insert(self.idx);
        self.role = Role::Candidate { ballot, promises, values, max_slot };
        out.send(self.others(), PaxosMsg::Prepare { ballot });
        // Single-replica group elects itself instantly.
        self.try_become_leader(out);
    }

    fn try_become_leader(&mut self, out: &mut Output<V, Peers>) {
        let quorum = self.cfg.quorum();
        let Role::Candidate { ballot, promises, values, max_slot } = &mut self.role else { return };
        if promises.len() < quorum {
            return;
        }
        let ballot = *ballot;
        let values = std::mem::take(values);
        let max_slot = *max_slot;
        // Re-propose every undecided slot up to the highest reported one,
        // filling true gaps with no-ops, then open the log for new commands.
        let mut next_slot = self.decided_frontier;
        self.role = Role::Leader {
            ballot,
            next_slot,
            in_flight: BTreeMap::new(),
            ticks_since_heartbeat: 0,
        };
        self.leader_hint = Some(self.idx);
        if let Some(max_slot) = max_slot {
            while next_slot <= max_slot {
                let slot = next_slot;
                next_slot = next_slot.next();
                if self.log.decided(slot).is_some() {
                    continue;
                }
                let entry = values.get(&slot).map(|(_, v)| v.clone()).unwrap_or(Entry::Noop);
                self.relead_slot(slot, entry, ballot, out);
            }
            if let Role::Leader { next_slot: ns, .. } = &mut self.role {
                *ns = next_slot;
            }
        }
        // Flush proposals buffered while leaderless through the batcher.
        self.batch_buffer.extend(self.pending.drain(..));
        self.maybe_flush_batch(out);
    }

    /// Phase 2 for a specific recovered slot (leader takeover path).
    fn relead_slot(
        &mut self,
        slot: Slot,
        entry: Entry<V>,
        ballot: Ballot,
        out: &mut Output<V, Peers>,
    ) {
        // Only reached from become_leader, which just installed Role::Leader;
        // a non-leader here cannot make progress, so degrade quietly.
        let Role::Leader { in_flight, .. } = &mut self.role else { return };
        *in_flight.entry(slot).or_default() |= 1 << self.idx;
        self.log.store(slot, ballot, entry.clone());
        out.send(self.others(), PaxosMsg::Accept { ballot, slot, value: entry });
        self.try_decide(slot, out);
    }

    /// Steps down if `ballot` proves a higher-ballot leader exists.
    fn maybe_step_down(&mut self, ballot: Ballot) {
        let our = match &self.role {
            Role::Leader { ballot, .. } | Role::Candidate { ballot, .. } => Some(*ballot),
            Role::Follower => None,
        };
        if let Some(our) = our {
            if ballot > our {
                self.role = Role::Follower;
                // Un-flushed batched proposals go back to `pending` (ahead
                // of anything buffered there) so they are forwarded to the
                // new leader instead of being lost.
                for v in self.batch_buffer.drain(..).rev() {
                    self.pending.push_front(v);
                }
                self.buffer_wait_ticks = 0;
            }
        }
    }

    /// Feeds one protocol message from replica `from` into the state
    /// machine.
    pub fn on_message(&mut self, from: usize, msg: PaxosMsg<V>) -> Output<V> {
        let mut out = Output::default();
        self.on_message_into(from, msg, &mut out);
        out.expand()
    }

    /// [`Self::on_message`], appending its effects to `out`.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn on_message_into(&mut self, from: usize, msg: PaxosMsg<V>, out: &mut Output<V, Peers>) {
        match msg {
            PaxosMsg::Prepare { ballot } => {
                if ballot > self.promised {
                    self.promised = ballot;
                    self.maybe_step_down(ballot);
                    self.ticks_since_leader = 0;
                    let accepted = self.log_from_frontier();
                    out.send(
                        Peers::one(from),
                        PaxosMsg::Promise {
                            ballot,
                            accepted,
                            decided_up_to: self.decided_frontier,
                        },
                    );
                } else {
                    out.send(Peers::one(from), PaxosMsg::Nack { ballot: self.promised });
                }
            }
            PaxosMsg::Promise { ballot, accepted, decided_up_to } => {
                self.max_seen_frontier = self.max_seen_frontier.max(decided_up_to);
                // A promiser that is ahead on decisions implies slots we can
                // fetch; remember to catch up from it.
                if decided_up_to > self.decided_frontier {
                    out.send(
                        Peers::one(from),
                        PaxosMsg::CatchUpRequest {
                            from_slot: self.decided_frontier,
                            to_slot: decided_up_to,
                        },
                    );
                }
                if let Role::Candidate { ballot: our, promises, values, max_slot } = &mut self.role
                {
                    if ballot == *our {
                        promises.insert(from);
                        for (slot, b, v) in accepted {
                            *max_slot = Some(max_slot.map_or(slot, |m: Slot| m.max(slot)));
                            match values.get(&slot) {
                                Some(&(existing, _)) if existing >= b => {}
                                _ => {
                                    values.insert(slot, (b, v));
                                }
                            }
                        }
                        self.try_become_leader(out);
                    }
                }
            }
            PaxosMsg::Accept { ballot, slot, value } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.maybe_step_down(ballot);
                    self.leader_hint = Some(ballot.owner);
                    self.ticks_since_leader = 0;
                    // A chosen value is never overwritten, and a slot below
                    // the log's base is dropped; either way the Accepted
                    // goes out.
                    self.log.store(slot, ballot, value);
                    out.send(Peers::one(from), PaxosMsg::Accepted { ballot, slot });
                    self.flush_pending(out);
                } else {
                    out.send(Peers::one(from), PaxosMsg::Nack { ballot: self.promised });
                }
            }
            PaxosMsg::Accepted { ballot, slot } => {
                if let Role::Leader { ballot: our, in_flight, .. } = &mut self.role {
                    if ballot == *our {
                        // An index outside the group casts no vote.
                        if let (Some(votes), true) =
                            (in_flight.get_mut(&slot), from < self.cfg.size)
                        {
                            *votes |= 1 << from;
                            self.try_decide(slot, out);
                            // A decision may have opened the window.
                            self.maybe_flush_batch(out);
                        }
                    }
                }
            }
            PaxosMsg::Decide { slot, value } => {
                self.ticks_since_leader = 0;
                // A slot already decided keeps its first chosen value.
                self.log.store(slot, DECIDED_BALLOT, value);
                self.advance(out);
            }
            PaxosMsg::Heartbeat { ballot, decided_up_to } => {
                self.max_seen_frontier = self.max_seen_frontier.max(decided_up_to);
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.maybe_step_down(ballot);
                    self.leader_hint = Some(ballot.owner);
                    self.ticks_since_leader = 0;
                    if decided_up_to > self.decided_frontier {
                        out.send(
                            Peers::one(from),
                            PaxosMsg::CatchUpRequest {
                                from_slot: self.decided_frontier,
                                to_slot: decided_up_to,
                            },
                        );
                    }
                    self.flush_pending(out);
                }
            }
            PaxosMsg::CatchUpRequest { from_slot, to_slot } => {
                let to_slot = Slot(to_slot.0.min(from_slot.0.saturating_add(CATCH_UP_BATCH)));
                for (slot, b, v) in self.log.iter_from(from_slot) {
                    if slot >= to_slot {
                        break;
                    }
                    if b == DECIDED_BALLOT {
                        let value = v.clone();
                        out.send(Peers::one(from), PaxosMsg::Decide { slot, value });
                    }
                }
            }
            PaxosMsg::Forward { value } => {
                self.propose_into(value, out);
            }
            PaxosMsg::Nack { ballot } => {
                if ballot > self.promised {
                    self.promised = ballot;
                }
                self.maybe_step_down(ballot);
            }
        }
    }

    /// Forwards buffered proposals once a leader is known.
    fn flush_pending(&mut self, out: &mut Output<V, Peers>) {
        if self.pending.is_empty() {
            return;
        }
        if self.is_leader() {
            self.batch_buffer.extend(self.pending.drain(..));
            self.maybe_flush_batch(out);
        } else if let Some(leader) = self.leader_hint {
            while let Some(v) = self.pending.pop_front() {
                out.send(Peers::one(leader), PaxosMsg::Forward { value: v });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BatchConfig;

    /// A toy in-memory network for driving replicas directly.
    struct Net {
        replicas: Vec<PaxosReplica<u64>>,
        queue: VecDeque<(usize, usize, PaxosMsg<u64>)>,
        delivered: Vec<Vec<(Slot, u64)>>,
        /// Every message any replica emitted, in emission order.
        sent: Vec<(usize, usize, PaxosMsg<u64>)>,
        /// Crashed replicas drop all traffic.
        down: BTreeSet<usize>,
        /// `Some`: drive replicas through the `_into` forms, all appending
        /// to this one buffer; `None`: through the by-value API.
        reuse: Option<Output<u64, Peers>>,
    }

    /// One input to a replica.
    enum Input {
        Propose(u64),
        Tick,
        Message(usize, PaxosMsg<u64>),
    }

    impl Net {
        fn new(n: usize) -> Self {
            Self::with_cfg(GroupConfig::new(n))
        }

        fn with_cfg(cfg: GroupConfig) -> Self {
            let n = cfg.size;
            Net {
                replicas: (0..n).map(|i| PaxosReplica::new(i, cfg.clone())).collect(),
                queue: VecDeque::new(),
                delivered: vec![Vec::new(); n],
                sent: Vec::new(),
                down: BTreeSet::new(),
                reuse: None,
            }
        }

        /// The same net, driven through the `_into` forms with one buffer.
        fn reusing_one_output(self) -> Self {
            Net { reuse: Some(Output::default()), ..self }
        }

        fn absorb(&mut self, from: usize, out: Output<u64>) {
            for (to, msg) in out.outgoing {
                self.sent.push((from, to, msg.clone()));
                self.queue.push_back((from, to, msg));
            }
            self.delivered[from].extend(out.decided);
        }

        /// Drains a set-addressed output, one message per recipient in
        /// ascending index order (spelled out here, not through
        /// [`Output::expand`], so the two can be compared).
        fn drain_output(&mut self, from: usize, out: &mut Output<u64, Peers>) {
            for (to, msg) in out.outgoing.drain(..) {
                for idx in (0..MAX_GROUP_SIZE).filter(|&i| to.contains(i)) {
                    self.sent.push((from, idx, msg.clone()));
                    self.queue.push_back((from, idx, msg.clone()));
                }
            }
            self.delivered[from].append(&mut out.decided);
        }

        fn feed(&mut self, idx: usize, input: Input) {
            let r = &mut self.replicas[idx];
            match self.reuse.take() {
                None => {
                    let out = match input {
                        Input::Propose(v) => r.propose(v),
                        Input::Tick => r.tick(),
                        Input::Message(from, msg) => r.on_message(from, msg),
                    };
                    self.absorb(idx, out);
                }
                Some(mut out) => {
                    match input {
                        Input::Propose(v) => r.propose_into(v, &mut out),
                        Input::Tick => r.tick_into(&mut out),
                        Input::Message(from, msg) => r.on_message_into(from, msg, &mut out),
                    }
                    self.drain_output(idx, &mut out);
                    self.reuse = Some(out);
                }
            }
        }

        fn propose_at(&mut self, idx: usize, v: u64) {
            self.feed(idx, Input::Propose(v));
        }

        fn tick_all(&mut self) {
            for i in 0..self.replicas.len() {
                if self.down.contains(&i) {
                    continue;
                }
                self.feed(i, Input::Tick);
            }
        }

        fn drain(&mut self) {
            let mut steps = 0;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 1_000_000, "message storm");
                if self.down.contains(&to) || self.down.contains(&from) {
                    continue;
                }
                self.feed(to, Input::Message(from, msg));
            }
        }

        fn run(&mut self, ticks: usize) {
            for _ in 0..ticks {
                self.tick_all();
                self.drain();
            }
        }
    }

    #[test]
    fn three_replicas_decide_a_command() {
        let mut net = Net::new(3);
        net.propose_at(0, 7);
        net.drain();
        for d in &net.delivered {
            assert_eq!(d, &[(Slot(0), 7)]);
        }
    }

    #[test]
    fn single_replica_group_decides_alone() {
        let mut net = Net::new(1);
        net.propose_at(0, 1);
        net.propose_at(0, 2);
        net.drain();
        assert_eq!(net.delivered[0], vec![(Slot(0), 1), (Slot(1), 2)]);
    }

    #[test]
    fn commands_deliver_in_proposal_order_at_leader() {
        let mut net = Net::new(3);
        for v in 0..50 {
            net.propose_at(0, v);
        }
        net.drain();
        let expect: Vec<(Slot, u64)> = (0..50).map(|v| (Slot(v), v)).collect();
        for d in &net.delivered {
            assert_eq!(d, &expect);
        }
    }

    #[test]
    fn follower_forwards_to_leader() {
        let mut net = Net::new(3);
        net.propose_at(2, 99);
        net.drain();
        for d in &net.delivered {
            assert_eq!(d, &[(Slot(0), 99)]);
        }
    }

    #[test]
    fn all_replicas_agree_on_identical_logs() {
        let mut net = Net::new(5);
        for v in 0..20 {
            net.propose_at((v % 5) as usize, v);
            net.drain();
        }
        net.run(5);
        let reference = &net.delivered[0];
        assert_eq!(reference.len(), 20);
        for d in &net.delivered {
            assert_eq!(d, reference);
        }
    }

    #[test]
    fn leader_crash_elects_new_leader_and_preserves_log() {
        let mut net = Net::new(3);
        for v in 0..5 {
            net.propose_at(0, v);
        }
        net.drain();
        net.down.insert(0);
        // Run enough ticks for replica 1 to elect itself.
        net.run(30);
        assert!(net.replicas[1].is_leader() || net.replicas[2].is_leader());
        let new_leader = if net.replicas[1].is_leader() { 1 } else { 2 };
        net.propose_at(new_leader, 100);
        net.run(5);
        // Both surviving replicas deliver the old prefix then the new command.
        for &i in &[1usize, 2] {
            let vals: Vec<u64> = net.delivered[i].iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, vec![0, 1, 2, 3, 4, 100], "replica {i}");
        }
    }

    /// Deployment-timed group of `n` led by `leader`, whose heartbeat has
    /// just reached every follower (so each has counted zero quiet ticks).
    fn led_by(n: usize, leader: usize) -> Net {
        let mut net = Net::with_cfg(GroupConfig::deployment(n));
        if leader != 0 {
            let mut out = Output::default();
            net.replicas[leader].start_election(&mut out);
            net.drain_output(leader, &mut out);
            net.drain();
        }
        net.run(net.replicas[leader].cfg.heartbeat_interval_ticks as usize);
        assert!(net.replicas[leader].is_leader());
        for r in &net.replicas {
            assert_eq!((r.leader_hint(), r.ticks_since_leader), (Some(leader), 0));
        }
        net
    }

    /// Ticks `net` one tick at a time for `ticks` ticks and returns every
    /// `(tick, candidate, ballot)` whose Prepare went out.
    fn prepares(net: &mut Net, ticks: u32) -> Vec<(u32, usize, Ballot)> {
        let mut seen = Vec::new();
        for t in 1..=ticks {
            net.tick_all();
            for &(from, _, ref msg) in &net.queue {
                if let PaxosMsg::Prepare { ballot } = *msg {
                    if !seen.iter().any(|&(_, _, b)| b == ballot) {
                        seen.push((t, from, ballot));
                    }
                }
            }
            net.drain();
        }
        seen
    }

    #[test]
    fn dead_leaders_ring_successor_campaigns_first_and_alone() {
        for n in [3, 5] {
            let cfg = GroupConfig::deployment(n);
            let (base, step) = (cfg.election_timeout_ticks, cfg.election_stagger_ticks());
            // Long enough for the last rank to fire had nobody won.
            let horizon = base + n as u32 * step;
            for leader in 0..n {
                let successor = (leader + 1) % n;
                let mut net = led_by(n, leader);
                net.down.insert(leader);
                let elections = prepares(&mut net, horizon);
                assert_eq!(elections.len(), 1, "n={n} leader={leader}: {elections:?}");
                assert_eq!(elections[0].0, base, "n={n} leader={leader}: first Prepare tick");
                assert_eq!(elections[0].1, successor, "n={n} leader={leader}: candidate");
                assert!(net.replicas[successor].is_leader());

                // Were the successor dead too, the next rank would wait
                // exactly one stagger step longer.
                let mut net = led_by(n, leader);
                net.down.extend([leader, successor]);
                let elections = prepares(&mut net, base + step);
                assert_eq!(
                    elections.first().map(|&(t, from, _)| (t, from)),
                    Some((base + step, (leader + 2) % n)),
                    "n={n} leader={leader}: next rank"
                );

                // A hint outside the group (a ballot owner off the wire)
                // falls back to index order, without panicking.
                let mut net = led_by(n, leader);
                let bogus = Ballot { round: 5, owner: n + 3 };
                for i in (0..n).filter(|&i| i != leader) {
                    let hb = PaxosMsg::Heartbeat { ballot: bogus, decided_up_to: Slot(0) };
                    let _ = net.replicas[i].on_message(leader, hb);
                    assert_eq!(net.replicas[i].leader_hint(), Some(n + 3));
                }
                net.down.insert(leader);
                let first_live = usize::from(leader == 0);
                let elections = prepares(&mut net, horizon);
                assert_eq!(
                    elections.first().map(|&(t, from, _)| (t, from)),
                    Some((base + first_live as u32 * step, first_live)),
                    "n={n} leader={leader}: index fallback"
                );
            }
        }
    }

    #[test]
    fn minority_crash_does_not_block_progress() {
        let mut net = Net::new(5);
        net.down.insert(3);
        net.down.insert(4);
        for v in 0..10 {
            net.propose_at(0, v);
        }
        net.run(5);
        let vals: Vec<u64> = net.delivered[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn new_leader_recovers_partially_accepted_values() {
        // Leader gets value accepted at a quorum but crashes before anyone
        // learns the decision; the next leader must re-decide the same value.
        let cfg = GroupConfig::new(3);
        let mut r0: PaxosReplica<u64> = PaxosReplica::new(0, cfg.clone());
        let mut r1: PaxosReplica<u64> = PaxosReplica::new(1, cfg.clone());
        let mut r2: PaxosReplica<u64> = PaxosReplica::new(2, cfg.clone());

        let out = r0.propose(42);
        // Deliver the Accept only to replica 1, then crash replica 0.
        let accept = out
            .outgoing
            .iter()
            .find_map(|(to, m)| (*to == 1).then(|| m.clone()))
            .expect("accept for r1");
        let _ = r1.on_message(0, accept);

        // Force replica 1 to run an election with replica 2.
        let mut out = Output::default();
        r1.start_election(&mut out);
        let prepare = out
            .outgoing
            .iter()
            .find_map(|(to, m)| to.contains(2).then(|| m.clone()))
            .expect("prepare for r2");
        let out2 = r2.on_message(1, prepare);
        let promise = out2
            .outgoing
            .into_iter()
            .find_map(|(to, m)| (to == 1).then_some(m))
            .expect("promise from r2");
        let out3 = r1.on_message(2, promise);
        assert!(r1.is_leader());
        // The recovered Accept for slot 0 must carry 42 again.
        let reaccept = out3.outgoing.iter().any(|(_, m)| {
            matches!(m, PaxosMsg::Accept { slot: Slot(0), value: Entry::Cmd(42), .. })
        });
        assert!(reaccept, "new leader must re-propose the possibly-chosen value");
    }

    #[test]
    fn ballots_total_order_and_next_for() {
        let b = Ballot { round: 3, owner: 1 };
        assert!(b.next_for(2) > b);
        assert!(b.next_for(0) > b);
        assert_eq!(b.next_for(2), Ballot { round: 3, owner: 2 });
        assert_eq!(b.next_for(1), Ballot { round: 4, owner: 1 });
        assert!(DECIDED_BALLOT > b.next_for(usize::MAX - 1));
    }

    #[test]
    fn catch_up_fills_lagging_replica() {
        let mut net = Net::new(3);
        for v in 0..5 {
            net.propose_at(0, v);
        }
        net.drain();
        // Replica 2 "lost" its deliveries — simulate a fresh learner joining.
        let cfg = GroupConfig::new(3);
        net.replicas[2] = PaxosReplica::new(2, cfg);
        net.delivered[2].clear();
        // Heartbeats advertise the frontier and trigger catch-up.
        net.run(10);
        let vals: Vec<u64> = net.delivered[2].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recovery_from_quorum_matches_decided_log() {
        let mut net = Net::new(3);
        for v in 0..8 {
            net.propose_at(0, v);
        }
        net.drain();
        // Replica 2 crashes and loses everything; rebuild from peers 0+1.
        let reports = vec![net.replicas[0].recovery_report(), net.replicas[1].recovery_report()];
        let cfg = GroupConfig::new(3);
        let (rebuilt, out) = PaxosReplica::recover_from(2, cfg, Ballot::INITIAL, &reports);
        net.replicas[2] = rebuilt;
        net.delivered[2].clear();
        // The recovered replica is fast-forwarded: nothing re-delivers (the
        // application state arrives by snapshot), and its frontier matches.
        assert!(out.decided.is_empty());
        assert_eq!(net.replicas[2].decided_frontier(), net.replicas[0].decided_frontier());
        assert_eq!(net.replicas[2].delivered_count(), net.replicas[0].delivered_count());
        assert!(!net.replicas[2].is_leader());
        // And it participates normally afterwards.
        net.propose_at(0, 100);
        net.run(5);
        let vals: Vec<u64> = net.delivered[2].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![100]);
    }

    #[test]
    fn recovery_preserves_possibly_chosen_value() {
        // r1 accepts 42 for slot 0 (quorum {r0, r1}), then crashes and
        // recovers from {r0, r2}. r0's report carries the accepted value, so
        // a later election must still decide 42 — amnesia would lose it.
        let cfg = GroupConfig::new(3);
        let mut r0: PaxosReplica<u64> = PaxosReplica::new(0, cfg.clone());
        let mut r1: PaxosReplica<u64> = PaxosReplica::new(1, cfg.clone());
        let mut r2: PaxosReplica<u64> = PaxosReplica::new(2, cfg.clone());
        let out = r0.propose(42);
        let accept = out
            .outgoing
            .iter()
            .find_map(|(to, m)| (*to == 1).then(|| m.clone()))
            .expect("accept for r1");
        let _ = r1.on_message(0, accept);

        let floor = r1.promised();
        let reports = vec![r0.recovery_report(), r2.recovery_report()];
        let (r1, _) = PaxosReplica::recover_from(1, cfg.clone(), floor, &reports);
        let mut r1 = r1;

        // r0 crashes; r1 runs an election with r2 and must re-propose 42.
        let mut out = Output::default();
        r1.start_election(&mut out);
        let prepare = out
            .outgoing
            .iter()
            .find_map(|(to, m)| to.contains(2).then(|| m.clone()))
            .expect("prepare for r2");
        let out2 = r2.on_message(1, prepare);
        let promise = out2
            .outgoing
            .into_iter()
            .find_map(|(to, m)| (to == 1).then_some(m))
            .expect("promise from r2");
        let out3 = r1.on_message(2, promise);
        assert!(r1.is_leader());
        let reaccept = out3.outgoing.iter().any(|(_, m)| {
            matches!(m, PaxosMsg::Accept { slot: Slot(0), value: Entry::Cmd(42), .. })
        });
        assert!(reaccept, "recovered replica must re-propose the possibly-chosen value");
    }

    #[test]
    fn recovered_ex_leader_rejoins_as_follower() {
        let mut net = Net::new(3);
        for v in 0..3 {
            net.propose_at(0, v);
        }
        net.drain();
        assert!(net.replicas[0].is_leader());
        let floor = net.replicas[0].promised();
        let reports = vec![net.replicas[1].recovery_report(), net.replicas[2].recovery_report()];
        let cfg = GroupConfig::new(3);
        let (rebuilt, _) = PaxosReplica::recover_from(0, cfg, floor, &reports);
        net.replicas[0] = rebuilt;
        net.delivered[0].clear();
        assert!(!net.replicas[0].is_leader());
        assert_eq!(net.replicas[0].leader_hint(), None);
        // The group notices the silent ex-leader and elects a new one;
        // afterwards everyone (including the recovered node) makes progress.
        net.run(40);
        // A proper election restores a leader. The recovered node has no
        // hint, so it ranks by index level with replica 1 (its ring
        // successor); ballots settle the duel.
        assert!(net.replicas.iter().any(|r| r.is_leader()));
        let leader = net.replicas.iter().position(|r| r.is_leader()).unwrap();
        net.propose_at(leader, 7);
        net.run(5);
        let vals: Vec<u64> = net.delivered[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![7]);
    }

    #[test]
    fn recovery_promised_floor_is_honoured() {
        let cfg = GroupConfig::new(3);
        let floor = Ballot { round: 9, owner: 1 };
        let reports: Vec<RecoveryReport<u64>> = vec![
            RecoveryReport {
                promised: Ballot::INITIAL,
                frontier: Slot(0),
                delivered: 0,
                accepted: Vec::new(),
            },
            RecoveryReport {
                promised: Ballot::INITIAL,
                frontier: Slot(0),
                delivered: 0,
                accepted: Vec::new(),
            },
        ];
        let (r, _) = PaxosReplica::recover_from(1, cfg, floor, &reports);
        assert_eq!(r.promised(), floor);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn recovery_rejects_sub_quorum_reports() {
        let cfg = GroupConfig::new(3);
        let reports: Vec<RecoveryReport<u64>> = vec![RecoveryReport {
            promised: Ballot::INITIAL,
            frontier: Slot(0),
            delivered: 0,
            accepted: Vec::new(),
        }];
        let _ = PaxosReplica::recover_from(1, cfg, Ballot::INITIAL, &reports);
    }

    #[test]
    fn delivered_count_counts_only_commands() {
        let mut net = Net::new(3);
        net.propose_at(0, 5);
        net.drain();
        assert_eq!(net.replicas[0].delivered_count(), 1);
        assert_eq!(net.replicas[1].delivered_count(), 1);
    }

    fn batched(max_batch: usize, max_batch_delay_ticks: u32, window: usize) -> GroupConfig {
        GroupConfig::new(3).with_batching(BatchConfig { max_batch, max_batch_delay_ticks, window })
    }

    #[test]
    fn full_batch_flushes_without_waiting_for_delay() {
        let mut net = Net::with_cfg(batched(4, 1_000, 0));
        for v in 0..4 {
            net.propose_at(0, v);
        }
        net.drain();
        // All four commands share one slot, in proposal order.
        let expect: Vec<(Slot, u64)> = (0..4).map(|v| (Slot(0), v)).collect();
        for d in &net.delivered {
            assert_eq!(d, &expect);
        }
        let stats = &net.replicas[0].batch_stats;
        assert_eq!(stats.flush_full, 1);
        assert_eq!(stats.flush_delay, 0);
        assert_eq!(stats.batched_cmds, 4);
    }

    #[test]
    fn partial_batch_flushes_only_after_delay() {
        let mut net = Net::with_cfg(batched(8, 3, 0));
        net.propose_at(0, 1);
        net.propose_at(0, 2);
        net.drain();
        assert!(net.delivered[0].is_empty(), "partial batch must wait for the delay");
        assert_eq!(net.replicas[0].batch_buffered(), 2);
        net.run(2);
        assert!(net.delivered[0].is_empty(), "delay has not expired yet");
        net.run(1);
        let vals: Vec<u64> = net.delivered[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1, 2]);
        let stats = &net.replicas[0].batch_stats;
        assert_eq!(stats.flush_full, 0);
        assert_eq!(stats.flush_delay, 1);
    }

    #[test]
    fn single_command_flush_uses_plain_cmd_entry() {
        // A batch of one must stay wire-compatible with the unbatched
        // protocol (`Entry::Cmd`), so mixed-version groups interoperate.
        let cfg = batched(8, 0, 0);
        let mut r0: PaxosReplica<u64> = PaxosReplica::new(0, cfg);
        let out = r0.propose(42);
        assert!(out
            .outgoing
            .iter()
            .any(|(_, m)| { matches!(m, PaxosMsg::Accept { value: Entry::Cmd(42), .. }) }));
    }

    #[test]
    fn window_gates_inflight_and_commands_batch_under_backpressure() {
        let mut net = Net::with_cfg(batched(8, 0, 1));
        for v in 0..16 {
            net.propose_at(0, v);
        }
        // Only one slot may be in flight before any acknowledgement.
        assert_eq!(net.replicas[0].slots_in_flight(), 1);
        assert_eq!(net.replicas[0].batch_buffered(), 15);
        net.drain();
        let vals: Vec<u64> = net.delivered[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, (0..16).collect::<Vec<_>>());
        for d in &net.delivered {
            let vals: Vec<u64> = d.iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, (0..16).collect::<Vec<_>>());
        }
        // 16 commands fit in 3 slots: 1 (initial) + 8 (full batch) + 7.
        let slots: BTreeSet<Slot> = net.delivered[0].iter().map(|&(s, _)| s).collect();
        assert_eq!(slots.len(), 3);
        let stats = &net.replicas[0].batch_stats;
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.flush_full, 1);
        assert_eq!(stats.batched_cmds, 16);
    }

    #[test]
    fn leader_change_mid_batch_preserves_buffered_commands() {
        let mut net = Net::with_cfg(batched(8, 5, 0));
        for v in 0..3 {
            net.propose_at(0, v);
        }
        net.drain();
        // The partial batch is still buffered at the old leader.
        assert_eq!(net.replicas[0].batch_buffered(), 3);
        assert!(net.delivered[0].is_empty());
        // Replica 1 usurps leadership with a higher ballot; replica 0's
        // buffered commands must survive the step-down and reach the new
        // leader via forwarding.
        let mut out = Output::default();
        net.replicas[1].start_election(&mut out);
        net.drain_output(1, &mut out);
        net.run(20);
        assert!(net.replicas[1].is_leader());
        assert!(!net.replicas[0].is_leader());
        assert_eq!(net.replicas[0].batch_buffered(), 0);
        for (i, d) in net.delivered.iter().enumerate() {
            let vals: Vec<u64> = d.iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, vec![0, 1, 2], "replica {i}");
        }
    }

    #[test]
    fn batched_delivery_order_matches_unbatched() {
        // The same proposal sequence must produce the same delivered
        // command sequence whatever the batch size (slots differ). With
        // `max_batch = 1` behind a one-slot window the buffer holds many
        // commands while each flush takes one: it must be the oldest.
        for cfg in [batched(8, 0, 1), batched(1, 0, 1)] {
            let max_batch = cfg.batch.max_batch;
            let mut plain = Net::new(3);
            let mut batchy = Net::with_cfg(cfg);
            for v in 0..50 {
                plain.propose_at(0, v);
                batchy.propose_at(0, v);
                if v % 7 == 0 {
                    plain.drain();
                    batchy.drain();
                }
            }
            plain.run(5);
            batchy.run(5);
            let plain_vals: Vec<u64> = plain.delivered[0].iter().map(|&(_, v)| v).collect();
            let batchy_vals: Vec<u64> = batchy.delivered[0].iter().map(|&(_, v)| v).collect();
            assert_eq!(plain_vals, batchy_vals, "max_batch {max_batch}");
            assert_eq!(plain_vals, (0..50).collect::<Vec<_>>());
            let plain_slots: BTreeSet<Slot> = plain.delivered[0].iter().map(|&(s, _)| s).collect();
            let batchy_slots: BTreeSet<Slot> =
                batchy.delivered[0].iter().map(|&(s, _)| s).collect();
            if max_batch > 1 {
                // Batching used strictly fewer consensus instances.
                assert!(batchy_slots.len() < plain_slots.len());
            } else {
                assert_eq!(batchy_slots.len(), plain_slots.len());
            }
        }
    }

    /// Batching, forwarding from followers, a crashed leader, an election
    /// and the new leader's recovery of the old one's slots.
    fn failover_schedule(net: &mut Net) {
        for v in 0..20 {
            net.propose_at(v as usize % 3, v);
            if v % 5 == 0 {
                net.drain();
            }
        }
        net.run(3);
        net.down.insert(0);
        net.run(40);
        for v in 20..30 {
            net.propose_at(1 + v as usize % 2, v);
        }
        net.run(5);
    }

    /// FNV-1a over the debug rendering of every message sent.
    fn digest(sent: &[(usize, usize, PaxosMsg<u64>)]) -> u64 {
        format!("{sent:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn the_into_forms_with_one_reused_buffer_match_the_by_value_api() {
        let mut by_value = Net::with_cfg(batched(4, 2, 2));
        let mut into = Net::with_cfg(batched(4, 2, 2)).reusing_one_output();
        failover_schedule(&mut by_value);
        failover_schedule(&mut into);
        assert!(by_value.sent.iter().any(|(_, _, m)| matches!(m, PaxosMsg::Prepare { .. })));
        let vals: BTreeSet<u64> = by_value.delivered[1].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, (0..30).collect(), "every command survives the failover");
        assert_eq!(into.sent, by_value.sent);
        assert_eq!(into.delivered, by_value.delivered);
        assert!(into.reuse.is_some_and(|out| out.is_empty()), "the caller drained it");
    }

    #[test]
    fn the_by_value_output_is_the_per_recipient_sequence_replicas_always_sent() {
        // Pinned from the replica that addressed every message to one
        // index: a recipient set must expand to the same messages, to the
        // same peers, in the same order.
        let mut net = Net::with_cfg(batched(4, 2, 2));
        failover_schedule(&mut net);
        assert_eq!((net.sent.len(), digest(&net.sent)), (104, 0xb0c6_72ee_c3f2_7dcc));
    }

    #[test]
    fn a_broadcast_is_one_message_to_every_other_replica() {
        let mut leader: PaxosReplica<u64> = PaxosReplica::new(0, GroupConfig::new(5));
        let mut out = Output::default();
        leader.propose_into(7, &mut out);
        let accept =
            PaxosMsg::Accept { ballot: Ballot::INITIAL, slot: Slot(0), value: Entry::Cmd(7) };
        assert_eq!(out.outgoing, [(Peers(0b11110), accept)]);

        // A candidate in the middle of the group skips itself alone; the
        // promise comes back to the candidate alone.
        let mut candidate: PaxosReplica<u64> = PaxosReplica::new(2, GroupConfig::new(5));
        let mut out = Output::default();
        candidate.start_election(&mut out);
        let ballot = Ballot { round: 0, owner: 2 };
        assert_eq!(out.outgoing, [(Peers(0b11011), PaxosMsg::Prepare { ballot })]);
        let mut out = Output::default();
        leader.on_message_into(2, PaxosMsg::Prepare { ballot }, &mut out);
        assert!(matches!(out.outgoing[..], [(Peers(0b100), PaxosMsg::Promise { .. })]));

        // A group of one has nobody to tell.
        let mut alone: PaxosReplica<u64> = PaxosReplica::new(0, GroupConfig::new(1));
        let mut out = Output::default();
        alone.propose_into(7, &mut out);
        alone.tick_into(&mut out);
        alone.tick_into(&mut out);
        assert!(out.outgoing.is_empty());
        assert_eq!(out.decided, [(Slot(0), 7)]);
    }

    #[test]
    fn the_into_forms_append_to_what_the_buffer_already_holds() {
        let mut replica: PaxosReplica<u64> = PaxosReplica::new(0, GroupConfig::new(3));
        let mut twin: PaxosReplica<u64> = PaxosReplica::new(0, GroupConfig::new(3));
        let nack = PaxosMsg::Nack { ballot: Ballot::INITIAL };
        let mut out =
            Output { outgoing: vec![(Peers::one(2), nack.clone())], decided: vec![(Slot(9), 9)] };
        let accepted = || PaxosMsg::Accepted { ballot: Ballot::INITIAL, slot: Slot(0) };
        replica.propose_into(7, &mut out);
        replica.on_message_into(1, accepted(), &mut out);
        replica.tick_into(&mut out);
        replica.tick_into(&mut out);
        let mut expect = Output { outgoing: vec![(2, nack)], decided: vec![(Slot(9), 9)] };
        for step in [twin.propose(7), twin.on_message(1, accepted()), twin.tick(), twin.tick()] {
            expect.outgoing.extend(step.outgoing);
            expect.decided.extend(step.decided);
        }
        // The Accept, the decision and its Decide, then the heartbeat:
        // each one message to both peers.
        assert_eq!(out.outgoing.len(), 1 + 1 + 1 + 1);
        assert_eq!(expect.outgoing.len(), 1 + 2 + 2 + 2);
        assert_eq!(expect.decided, [(Slot(9), 9), (Slot(0), 7)]);
        let out = out.expand();
        assert_eq!(out.outgoing, expect.outgoing);
        assert_eq!(out.decided, expect.decided);
    }

    /// A group of three whose leader has decided slots `0..n`, command
    /// `v` in slot `v`.
    fn decided_through(n: u64) -> Net {
        let mut net = Net::new(3);
        for v in 0..n {
            net.propose_at(0, v);
        }
        net.drain();
        assert!(net.replicas.iter().all(|r| r.decided_frontier() == Slot(n)));
        net
    }

    /// Feeds one message to `r` and returns what it sent and delivered.
    fn step(r: &mut PaxosReplica<u64>, from: usize, msg: PaxosMsg<u64>) -> Output<u64, Peers> {
        let mut out = Output::default();
        r.on_message_into(from, msg, &mut out);
        out
    }

    fn decide(slot: u64, v: u64) -> PaxosMsg<u64> {
        PaxosMsg::Decide { slot: Slot(slot), value: Entry::Cmd(v) }
    }

    #[test]
    fn catch_up_serves_no_pruned_slot_and_every_retained_one_in_order() {
        let n = LOG_RETENTION + 600;
        let mut net = decided_through(n);
        let leader = &mut net.replicas[0];
        assert_eq!(leader.log.base, Slot(n - LOG_RETENTION));
        assert_eq!(leader.log.slots.len() as u64, LOG_RETENTION);
        let decides = |out: Output<u64, Peers>| -> Vec<(u64, u64)> {
            out.outgoing
                .into_iter()
                .map(|(to, m)| match m {
                    PaxosMsg::Decide { slot, value: Entry::Cmd(v) } if to == Peers::one(2) => {
                        (slot.0, v)
                    }
                    other => panic!("unexpected {other:?} to {to:?}"),
                })
                .collect()
        };
        let request =
            |from, to| PaxosMsg::CatchUpRequest { from_slot: Slot(from), to_slot: Slot(to) };
        // Every slot of the first batch was pruned.
        assert_eq!(decides(step(leader, 2, request(0, n))), []);
        // A batch straddling the base starts at the base.
        let straddling: Vec<_> = (600..500 + CATCH_UP_BATCH).map(|s| (s, s)).collect();
        assert_eq!(decides(step(leader, 2, request(500, n))), straddling);
        // A batch of retained slots gets them all, up to the frontier.
        let tail: Vec<_> = (n - 300..n).map(|s| (s, s)).collect();
        assert_eq!(decides(step(leader, 2, request(n - 300, n + 50))), tail);
    }

    #[test]
    fn a_stale_accept_below_the_base_is_answered_and_changes_nothing() {
        let mut net = decided_through(LOG_RETENTION + 10);
        let follower = &mut net.replicas[1];
        let before =
            (format!("{:?}", follower.log), follower.decided_frontier(), follower.promised());
        let ballot = Ballot::INITIAL;
        let out =
            step(follower, 0, PaxosMsg::Accept { ballot, slot: Slot(3), value: Entry::Cmd(99) });
        assert_eq!(out.outgoing, [(Peers::one(0), PaxosMsg::Accepted { ballot, slot: Slot(3) })]);
        assert!(out.decided.is_empty());
        let after =
            (format!("{:?}", follower.log), follower.decided_frontier(), follower.promised());
        assert_eq!(after, before);
        // A stale Decide below the base is dropped too.
        assert!(step(follower, 0, decide(3, 99)).is_empty());
        assert_eq!(format!("{:?}", follower.log), before.0);

        // A recovered replica's base is its frontier, and the slot there
        // is still open: nothing from below may land in it.
        let empty = || RecoveryReport {
            promised: ballot,
            frontier: Slot(3),
            delivered: 3,
            accepted: Vec::new(),
        };
        let (mut r, _) =
            PaxosReplica::recover_from(1, GroupConfig::new(3), ballot, &[empty(), empty()]);
        let _ = step(&mut r, 0, PaxosMsg::Accept { ballot, slot: Slot(1), value: Entry::Cmd(1) });
        let _ = step(&mut r, 0, decide(2, 2));
        assert_eq!((r.log.base, r.log.slots.len()), (Slot(3), 0));
        assert!(r.recovery_report().accepted.is_empty());
    }

    #[test]
    fn a_gap_above_the_frontier_fills_in_order_and_the_log_shrinks_back() {
        let mut r: PaxosReplica<u64> = PaxosReplica::new(1, GroupConfig::new(3));
        let far = 2 * LOG_RETENTION;
        let ballot = Ballot::INITIAL;
        let accept = PaxosMsg::Accept { ballot, slot: Slot(far), value: Entry::Cmd(far) };
        assert_eq!(step(&mut r, 0, accept).decided, []);
        assert_eq!(r.log.slots.len() as u64, far + 1, "the gap is stored as empty slots");
        // Decisions above the hole at slot 0 deliver nothing yet.
        for s in (1..=far).rev() {
            assert_eq!(step(&mut r, 0, decide(s, s)).decided, [], "slot {s}");
        }
        assert_eq!(r.decided_frontier(), Slot(0));
        let out = step(&mut r, 0, decide(0, 0));
        let expect: Vec<(Slot, u64)> = (0..=far).map(|s| (Slot(s), s)).collect();
        assert_eq!(out.decided, expect, "each slot once, in order");
        assert_eq!(r.delivered_count(), far + 1);
        // A repeated decision delivers nothing again.
        assert_eq!(step(&mut r, 0, decide(far, far)).decided, []);
        assert_eq!(r.log.base, Slot(far + 1 - LOG_RETENTION));
        assert_eq!(r.log.slots.len() as u64, LOG_RETENTION, "the lagging log shrank back");
    }

    #[test]
    fn recovery_re_delivers_each_chosen_slot_above_the_frontier_once() {
        let b = Ballot { round: 1, owner: 0 };
        let chosen = |s: u64| (Slot(s), DECIDED_BALLOT, Entry::Cmd(s * 10));
        let report =
            |accepted| RecoveryReport { promised: b, frontier: Slot(3), delivered: 3, accepted };
        let reports = vec![
            report(vec![chosen(3), chosen(4), (Slot(5), b, Entry::Cmd(50)), chosen(6)]),
            report(vec![chosen(3), chosen(4), chosen(6), (Slot(7), b, Entry::Cmd(70))]),
        ];
        let (mut r, out) = PaxosReplica::recover_from(2, GroupConfig::new(3), b, &reports);
        assert_eq!(out.decided, [(Slot(3), 30), (Slot(4), 40)]);
        assert_eq!((r.decided_frontier(), r.delivered_count()), (Slot(5), 5));
        // Filling the hole at slot 5 releases slot 6; slot 7 is only accepted.
        assert_eq!(step(&mut r, 0, decide(5, 50)).decided, [(Slot(5), 50), (Slot(6), 60)]);
        assert_eq!(step(&mut r, 0, decide(4, 40)).decided, []);
        assert_eq!(step(&mut r, 0, decide(6, 60)).decided, []);
        assert_eq!(r.decided_frontier(), Slot(7));
        let report = r.recovery_report();
        assert_eq!(report.accepted, [(Slot(7), b, Entry::Cmd(70))]);
    }

    #[test]
    fn a_decided_slot_is_never_overwritten() {
        let mut r: PaxosReplica<u64> = PaxosReplica::new(1, GroupConfig::new(3));
        // Slot 1 is decided above a hole at slot 0.
        let _ = step(&mut r, 0, decide(1, 7));
        let ballot = Ballot { round: 4, owner: 2 };
        let accept = PaxosMsg::Accept { ballot, slot: Slot(1), value: Entry::Cmd(8) };
        let out = step(&mut r, 2, accept);
        assert_eq!(out.outgoing, [(Peers::one(2), PaxosMsg::Accepted { ballot, slot: Slot(1) })]);
        // A second decision keeps the first chosen value.
        let _ = step(&mut r, 2, decide(1, 9));
        let promise = step(&mut r, 2, PaxosMsg::Prepare { ballot: ballot.next_for(2) });
        let reported = match &promise.outgoing[..] {
            [(_, PaxosMsg::Promise { accepted, .. })] => accepted.clone(),
            other => panic!("expected one Promise, got {other:?}"),
        };
        assert_eq!(reported, [(Slot(1), DECIDED_BALLOT, Entry::Cmd(7))]);
        let out = step(&mut r, 2, decide(0, 6));
        assert_eq!(out.decided, [(Slot(0), 6), (Slot(1), 7)]);
    }

    #[test]
    fn delivered_count_includes_batched_commands() {
        let mut net = Net::with_cfg(batched(4, 1_000, 0));
        for v in 0..4 {
            net.propose_at(0, v);
        }
        net.drain();
        for r in &net.replicas {
            assert_eq!(r.delivered_count(), 4);
        }
    }
}
