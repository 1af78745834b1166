//! The per-replica atomic multicast state machine.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynastar_paxos::{
    Ballot, BatchStats, GroupConfig, Output, PaxosReplica, Peers, RecoveryReport,
};
use dynastar_runtime::dedup::SeqSet;

use crate::types::{
    Delivery, Dests, GroupId, LogEntry, McastWire, MemberId, MsgId, MsgStream, Topology,
};

/// Ticks between retransmissions of unacknowledged protocol steps.
const RETRY_TICKS: u64 = 8;

/// Effects of feeding one input to a [`McastMember`].
///
/// The `_into` entry points ([`McastMember::submit_into`],
/// [`McastMember::on_message_into`], [`McastMember::tick_into`]) append to
/// a caller-owned `McastOutput<V, (GroupId, Peers)>` and never clear it;
/// the caller drains it. Each of its wire messages names a recipient set,
/// replicas of one group, so a fan-out to a group is one message. The
/// by-value methods return `McastOutput<V>`, the same messages expanded to
/// one per recipient ([`McastOutput::expand`]).
#[derive(Debug, Clone)]
pub struct McastOutput<V, To = MemberId> {
    /// Wire messages to transmit, as `(recipients, message)` pairs.
    pub outgoing: Vec<(To, McastWire<V>)>,
    /// Messages newly delivered, in final-timestamp order.
    pub delivered: Vec<Delivery<V>>,
}

impl<V, To> Default for McastOutput<V, To> {
    fn default() -> Self {
        McastOutput { outgoing: Vec::new(), delivered: Vec::new() }
    }
}

impl<V, To> McastOutput<V, To> {
    /// True when nothing needs to be sent or delivered.
    pub fn is_empty(&self) -> bool {
        self.outgoing.is_empty() && self.delivered.is_empty()
    }
}

impl<V> McastOutput<V, (GroupId, Peers)> {
    /// Queues `wire` for the replicas `peers` of `group`; an empty set
    /// sends nothing.
    fn send(&mut self, group: GroupId, peers: Peers, wire: McastWire<V>) {
        if !peers.is_empty() {
            self.outgoing.push(((group, peers), wire));
        }
    }
}

impl<V: Clone> McastOutput<V, (GroupId, Peers)> {
    /// One `(member, message)` pair per recipient, in set order then
    /// ascending index: the shape the by-value methods return.
    pub fn expand(self) -> McastOutput<V> {
        let mut outgoing = Vec::with_capacity(self.outgoing.len());
        for ((group, peers), wire) in self.outgoing {
            outgoing.extend(peers.iter().map(|idx| (MemberId::new(group, idx), wire.clone())));
        }
        McastOutput { outgoing, delivered: self.delivered }
    }
}

/// Multicast bookkeeping for one message not yet delivered locally.
#[derive(Debug, Clone)]
struct Pending<V> {
    /// Destinations and payload, set together by the local `Assign`; a
    /// `Remote` ordered before it finds `None` here.
    payload: Option<(Dests, V)>,
    local_ts: Option<u64>,
    remote: BTreeMap<GroupId, u64>,
    final_ts: Option<u64>,
}

impl<V> Pending<V> {
    fn empty() -> Self {
        Pending { payload: None, local_ts: None, remote: BTreeMap::new(), final_ts: None }
    }
}

/// One live replica's exported state, answering a crashed peer's recovery
/// request.
///
/// Combines the consensus-level [`RecoveryReport`] (needed from a *quorum*
/// of peers for Paxos safety) with a full copy of the reporter's multicast
/// bookkeeping at its log frontier (needed from the single most advanced
/// reporter, as the application snapshot). Multicast bookkeeping is
/// deterministic from the log, so any replica's copy at frontier `F` equals
/// what the crashed replica would have had at `F`.
#[derive(Debug)]
pub struct MemberSnapshot<V> {
    report: RecoveryReport<LogEntry<V>>,
    clock: u64,
    pending: BTreeMap<MsgId, Pending<V>>,
    assigned: SeqSet<MsgStream>,
    remote_seen: SeqSet<(MsgStream, GroupId)>,
    seen_submits: BTreeMap<MsgId, (Dests, V)>,
    seen_remote_ts: BTreeMap<(MsgId, GroupId), u64>,
    ts_out: BTreeMap<(MsgId, GroupId), (u64, u64)>,
    delivered_payloads: BTreeMap<MsgId, (Dests, V)>,
    ticks: u64,
    delivered_count: u64,
}

impl<V> MemberSnapshot<V> {
    /// The snapshot's log frontier (first slot not known decided).
    pub fn frontier(&self) -> dynastar_paxos::Slot {
        self.report.frontier
    }

    /// Rough size of the snapshot in transferred elements (log entries,
    /// bookkeeping rows, and one per block of the two dedup sets), for
    /// transfer accounting.
    pub fn approx_elements(&self) -> u64 {
        (self.report.accepted.len()
            + self.pending.len()
            + self.assigned.blocks()
            + self.remote_seen.blocks()
            + self.seen_submits.len()
            + self.seen_remote_ts.len()
            + self.ts_out.len()
            + self.delivered_payloads.len()) as u64
    }
}

impl<V: Clone> Clone for MemberSnapshot<V> {
    fn clone(&self) -> Self {
        MemberSnapshot {
            report: self.report.clone(),
            clock: self.clock,
            pending: self.pending.clone(),
            assigned: self.assigned.clone(),
            remote_seen: self.remote_seen.clone(),
            seen_submits: self.seen_submits.clone(),
            seen_remote_ts: self.seen_remote_ts.clone(),
            ts_out: self.ts_out.clone(),
            delivered_payloads: self.delivered_payloads.clone(),
            ticks: self.ticks,
            delivered_count: self.delivered_count,
        }
    }
}

/// One replica's view of the atomic multicast protocol.
///
/// A member owns its group's [`PaxosReplica`] and replays its log to build
/// deterministic multicast state. Drive it with
/// [`McastMember::on_message_into`], [`McastMember::tick_into`] and
/// [`McastMember::submit_into`], which append to a caller's
/// [`McastOutput`] one wire per recipient set (the by-value forms return
/// one per recipient); see the [crate docs](crate) for the protocol.
#[derive(Debug)]
pub struct McastMember<V> {
    me: MemberId,
    topo: Topology,
    paxos: PaxosReplica<LogEntry<V>>,
    /// The group's logical clock (deterministic from the log).
    clock: u64,
    pending: BTreeMap<MsgId, Pending<V>>,
    /// Messages whose `Assign` entry has been applied, exactly: every
    /// id ever assigned, by its origin's stream (one word per 64 seqs),
    /// so a duplicate `Assign`, `Submit` or `GroupTs` is never ordered
    /// again however late it arrives, while a lower seq never assigned
    /// still is (see [`SeqSet`]).
    assigned: SeqSet<MsgStream>,
    /// `(mid, group)` pairs whose `Remote` entry has been applied, kept
    /// the same way.
    remote_seen: SeqSet<(MsgStream, GroupId)>,
    /// Submits seen but not yet assigned, kept so a replica that becomes
    /// leader can (re-)propose them.
    seen_submits: BTreeMap<MsgId, (Dests, V)>,
    /// Remote timestamps seen but not yet ordered in our log.
    seen_remote_ts: BTreeMap<(MsgId, GroupId), u64>,
    /// `(tick, ballot)` of our last `Assign` proposal for a message. Under
    /// an unchanged leader ballot a proposal cannot be lost (it is queued
    /// in the consensus layer's batch buffer or already in flight, and
    /// links are reliable), so retries fire only after a ballot change —
    /// re-proposing on a timer alone would flood a batching leader with
    /// duplicates faster than bounded-window slots drain them.
    proposed_assign: BTreeMap<MsgId, (u64, Ballot)>,
    /// `(tick, ballot)` of our last `Remote` entry proposal.
    proposed_remote: BTreeMap<(MsgId, GroupId), (u64, Ballot)>,
    /// Our group's timestamps that other groups still need: value is
    /// `(ts, last retransmission tick)`.
    ts_out: BTreeMap<(MsgId, GroupId), (u64, u64)>,
    /// Payloads of locally delivered messages whose timestamps other
    /// groups have not yet acknowledged (needed for retransmission).
    delivered_payloads: BTreeMap<MsgId, (Dests, V)>,
    ticks: u64,
    delivered_count: u64,
    /// The consensus layer's output buffer, lent to every call into
    /// `paxos` and drained by [`Self::absorb_paxos`] (see
    /// [`Self::with_paxos`]). Holds nothing between calls.
    paxos_out: Output<LogEntry<V>, Peers>,
    /// Scratch for [`Self::flush_ts_out`]'s due timestamps, empty between
    /// calls.
    ts_due: Vec<(MsgId, GroupId, u64)>,
    /// Scratch for [`Self::tick_into`]'s outstanding submits, empty
    /// between calls.
    submit_due: Vec<MsgId>,
    /// Scratch for [`Self::tick_into`]'s outstanding remote timestamps,
    /// empty between calls.
    remote_due: Vec<(MsgId, GroupId)>,
}

impl<V: Clone> McastMember<V> {
    /// Creates the member `me` of `topo` with deployment timing
    /// ([`GroupConfig::deployment`]).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not an address within `topo`.
    pub fn new(me: MemberId, topo: Topology) -> Self {
        let size = topo.size_of(me.group);
        Self::with_group_config(me, topo, GroupConfig::deployment(size))
    }

    /// Creates the member with an explicit consensus timing configuration
    /// (tests drive ticks directly and want fast elections).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not an address within `topo` or the config size
    /// does not match the group.
    pub fn with_group_config(me: MemberId, topo: Topology, cfg: GroupConfig) -> Self {
        assert!(
            (me.group.0 as usize) < topo.group_count() && me.index < topo.size_of(me.group),
            "member {me} is not part of the topology"
        );
        assert_eq!(cfg.size, topo.size_of(me.group), "group config size mismatch");
        McastMember {
            me,
            topo,
            paxos: PaxosReplica::new(me.index, cfg),
            clock: 0,
            pending: BTreeMap::new(),
            assigned: SeqSet::default(),
            remote_seen: SeqSet::default(),
            seen_submits: BTreeMap::new(),
            seen_remote_ts: BTreeMap::new(),
            proposed_assign: BTreeMap::new(),
            proposed_remote: BTreeMap::new(),
            ts_out: BTreeMap::new(),
            delivered_payloads: BTreeMap::new(),
            ticks: 0,
            delivered_count: 0,
            paxos_out: Output::default(),
            ts_due: Vec::new(),
            submit_due: Vec::new(),
            remote_due: Vec::new(),
        }
    }

    /// This member's address.
    pub fn member_id(&self) -> MemberId {
        self.me
    }

    /// Whether this member currently leads its group's consensus.
    pub fn is_leader(&self) -> bool {
        self.paxos.is_leader()
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// The group's current logical clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Hands the underlying consensus leader's batching counters to `read`
    /// (all-zero on members that never led) and resets them in place.
    /// Hosts poll this periodically to publish batch-size / flush-reason /
    /// pipeline-occupancy metrics.
    pub fn drain_batch_stats(&mut self, read: impl FnOnce(&BatchStats)) {
        self.paxos.drain_batch_stats(read);
    }

    /// Number of undecided consensus slots currently in flight at this
    /// member (0 unless it leads its group).
    pub fn slots_in_flight(&self) -> usize {
        self.paxos.slots_in_flight()
    }

    /// The highest consensus ballot this member has promised. Persist it to
    /// stable storage whenever it grows: it is the only state that must
    /// survive a crash (see [`McastMember::recover`]).
    pub fn promised(&self) -> Ballot {
        self.paxos.promised()
    }

    /// True when this member has fallen behind its group's decided log by
    /// more than the retention window; slot catch-up can no longer close
    /// the gap and the hosting process should run the same state-transfer
    /// path as a restarted replica (see [`McastMember::recover`]).
    pub fn needs_state_transfer(&self) -> bool {
        self.paxos.needs_state_transfer()
    }

    /// Exports this member's state for a recovering peer of its group.
    pub fn snapshot(&self) -> MemberSnapshot<V> {
        MemberSnapshot {
            report: self.paxos.recovery_report(),
            clock: self.clock,
            pending: self.pending.clone(),
            assigned: self.assigned.clone(),
            remote_seen: self.remote_seen.clone(),
            seen_submits: self.seen_submits.clone(),
            seen_remote_ts: self.seen_remote_ts.clone(),
            ts_out: self.ts_out.clone(),
            delivered_payloads: self.delivered_payloads.clone(),
            ticks: self.ticks,
            delivered_count: self.delivered_count,
        }
    }

    /// Rebuilds member `me` from a quorum of peer [`MemberSnapshot`]s after
    /// a crash (or after falling irrecoverably far behind).
    ///
    /// Consensus state merges *all* reports (Paxos safety requires a quorum
    /// — see [`RecoveryReport`]); multicast bookkeeping installs from the
    /// single most advanced snapshot, whose frontier the rebuilt log is
    /// fast-forwarded to. `promised_floor` is the promised ballot read back
    /// from this replica's own stable storage.
    ///
    /// Returns the member, the output of applying any log entries decided
    /// above the installed frontier — the caller must process its
    /// deliveries exactly like live traffic — and the index (into
    /// `snapshots`) of the bookkeeping donor, so callers shipping extra
    /// state alongside each snapshot can install the matching pieces.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `cfg.quorum()` snapshots are supplied, or the
    /// address/config don't match the topology.
    pub fn recover(
        me: MemberId,
        topo: Topology,
        cfg: GroupConfig,
        promised_floor: Ballot,
        snapshots: &[MemberSnapshot<V>],
    ) -> (Self, McastOutput<V, (GroupId, Peers)>, usize) {
        assert!(
            (me.group.0 as usize) < topo.group_count() && me.index < topo.size_of(me.group),
            "member {me} is not part of the topology"
        );
        assert_eq!(cfg.size, topo.size_of(me.group), "group config size mismatch");
        let reports: Vec<RecoveryReport<LogEntry<V>>> =
            snapshots.iter().map(|s| s.report.clone()).collect();
        let (paxos, mut pout) = PaxosReplica::recover_from(me.index, cfg, promised_floor, &reports);
        #[expect(
            clippy::expect_used,
            reason = "recovery constructor with a documented panic contract (see the asserts above); recover_from has already rejected an empty quorum"
        )]
        let (donor_idx, donor) = snapshots
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.report.frontier)
            .expect("recover_from enforces a non-empty quorum");
        let mut member = McastMember {
            me,
            topo,
            paxos,
            clock: donor.clock,
            pending: donor.pending.clone(),
            assigned: donor.assigned.clone(),
            remote_seen: donor.remote_seen.clone(),
            seen_submits: donor.seen_submits.clone(),
            seen_remote_ts: donor.seen_remote_ts.clone(),
            proposed_assign: BTreeMap::new(),
            proposed_remote: BTreeMap::new(),
            ts_out: donor.ts_out.clone(),
            delivered_payloads: donor.delivered_payloads.clone(),
            ticks: donor.ticks,
            delivered_count: donor.delivered_count,
            paxos_out: Output::default(),
            ts_due: Vec::new(),
            submit_due: Vec::new(),
            remote_due: Vec::new(),
        };
        let mut out = McastOutput::default();
        member.absorb_paxos(&mut pout, &mut out);
        (member, out, donor_idx)
    }

    /// Atomically multicasts `payload` to `dests` from this member.
    ///
    /// The id must be globally unique (or deterministically equal across
    /// replicas of a replicated sender, in which case duplicates merge).
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty.
    pub fn submit(&mut self, mid: MsgId, mut dests: Vec<GroupId>, payload: V) -> McastOutput<V> {
        dests.sort_unstable();
        dests.dedup();
        let mut out = McastOutput::default();
        self.submit_into(mid, dests.into(), payload, &mut out);
        out.expand()
    }

    /// [`Self::submit`] to `dests`, which must be sorted and distinct (as
    /// every [`Dests`] is), appending its effects to `out`. Every copy of
    /// the message shares the caller's destination list.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty.
    pub fn submit_into(
        &mut self,
        mid: MsgId,
        dests: Dests,
        payload: V,
        out: &mut McastOutput<V, (GroupId, Peers)>,
    ) {
        assert!(!dests.is_empty(), "a multicast needs at least one destination group");
        debug_assert!(dests.windows(2).all(|w| w[0] < w[1]), "dests must be sorted and distinct");
        // Fan the submit out to every replica of every destination group
        // (including our own group, so every replica's `seen_submits` can
        // back up the leader), one message per group.
        for &g in dests.iter() {
            let mut peers = Peers::all(self.topo.size_of(g));
            if g == self.me.group {
                peers = peers.without(self.me.index);
            }
            let submit =
                McastWire::Submit { mid, dests: Arc::clone(&dests), payload: payload.clone() };
            out.send(g, peers, submit);
        }
        if dests.contains(&self.me.group) {
            self.note_submit(mid, dests, payload, out);
        }
    }

    /// Records a submit addressed to our group and proposes it if leading.
    fn note_submit(
        &mut self,
        mid: MsgId,
        dests: Dests,
        payload: V,
        out: &mut McastOutput<V, (GroupId, Peers)>,
    ) {
        if self.assigned.contains(mid.stream(), mid.seq) {
            return;
        }
        self.seen_submits.entry(mid).or_insert((dests, payload));
        self.maybe_propose_assign(mid, out);
    }

    fn maybe_propose_assign(&mut self, mid: MsgId, out: &mut McastOutput<V, (GroupId, Peers)>) {
        if !self.paxos.is_leader() || self.assigned.contains(mid.stream(), mid.seq) {
            return;
        }
        let ballot = self.paxos.promised();
        let stale = match self.proposed_assign.get(&mid) {
            None => true,
            Some(&(t, b)) => b != ballot && self.ticks.saturating_sub(t) >= RETRY_TICKS,
        };
        if !stale {
            return;
        }
        if let Some((dests, payload)) = self.seen_submits.get(&mid) {
            self.proposed_assign.insert(mid, (self.ticks, ballot));
            let entry =
                LogEntry::Assign { mid, dests: Arc::clone(dests), payload: payload.clone() };
            self.with_paxos(out, |paxos, pout| paxos.propose_into(entry, pout));
        }
    }

    fn maybe_propose_remote(
        &mut self,
        mid: MsgId,
        from_group: GroupId,
        out: &mut McastOutput<V, (GroupId, Peers)>,
    ) {
        if !self.paxos.is_leader() || self.remote_seen.contains((mid.stream(), from_group), mid.seq)
        {
            return;
        }
        let key = (mid, from_group);
        let ballot = self.paxos.promised();
        let stale = match self.proposed_remote.get(&key) {
            None => true,
            Some(&(t, b)) => b != ballot && self.ticks.saturating_sub(t) >= RETRY_TICKS,
        };
        if !stale {
            return;
        }
        if let Some(&ts) = self.seen_remote_ts.get(&key) {
            self.proposed_remote.insert(key, (self.ticks, ballot));
            let entry = LogEntry::Remote { mid, from_group, ts };
            self.with_paxos(out, |paxos, pout| paxos.propose_into(entry, pout));
        }
    }

    /// One call into the consensus layer, its output absorbed into `out`.
    /// The call writes into [`Self::paxos_out`], which is taken for its
    /// duration and put back empty: a nested call would find an empty
    /// buffer of its own, so it stays correct (and only allocates).
    fn with_paxos(
        &mut self,
        out: &mut McastOutput<V, (GroupId, Peers)>,
        call: impl FnOnce(&mut PaxosReplica<LogEntry<V>>, &mut Output<LogEntry<V>, Peers>),
    ) {
        let mut pout = std::mem::take(&mut self.paxos_out);
        call(&mut self.paxos, &mut pout);
        self.absorb_paxos(&mut pout, out);
        self.paxos_out = pout;
    }

    /// Routes a Paxos output's messages and applies its decided entries,
    /// draining it.
    fn absorb_paxos(
        &mut self,
        pout: &mut Output<LogEntry<V>, Peers>,
        out: &mut McastOutput<V, (GroupId, Peers)>,
    ) {
        for (to, msg) in pout.outgoing.drain(..) {
            out.send(self.me.group, to, McastWire::Paxos { from_index: self.me.index, msg });
        }
        for (_slot, entry) in pout.decided.drain(..) {
            self.apply(entry, out);
        }
    }

    /// Applies one decided log entry (deterministic across the group).
    fn apply(&mut self, entry: LogEntry<V>, out: &mut McastOutput<V, (GroupId, Peers)>) {
        match entry {
            LogEntry::Assign { mid, dests, payload } => {
                if !self.assigned.insert(mid.stream(), mid.seq) {
                    return; // duplicate Assign from leader churn
                }
                self.seen_submits.remove(&mid);
                self.proposed_assign.remove(&mid);
                self.clock += 1;
                let ts = self.clock;
                // Other destination groups need our timestamp.
                for &g in dests.iter().filter(|&&g| g != self.me.group) {
                    self.ts_out.insert((mid, g), (ts, 0));
                }
                let p = self.pending.entry(mid).or_insert_with(Pending::empty);
                p.payload = Some((dests, payload));
                p.local_ts = Some(ts);
                self.refresh_final(mid);
                self.flush_ts_out(out);
                self.try_deliver(out);
            }
            LogEntry::Remote { mid, from_group, ts } => {
                if !self.remote_seen.insert((mid.stream(), from_group), mid.seq) {
                    return;
                }
                self.seen_remote_ts.remove(&(mid, from_group));
                self.proposed_remote.remove(&(mid, from_group));
                // Acknowledge so the sending group stops retransmitting.
                if self.paxos.is_leader() {
                    self.send_ts_ack(mid, from_group, out);
                }
                let p = self.pending.entry(mid).or_insert_with(Pending::empty);
                p.remote.insert(from_group, ts);
                self.refresh_final(mid);
                self.try_deliver(out);
            }
        }
    }

    /// Recomputes the final timestamp of `mid` if all inputs are present.
    fn refresh_final(&mut self, mid: MsgId) {
        let me = self.me.group;
        let Some(p) = self.pending.get_mut(&mid) else { return };
        if p.final_ts.is_some() {
            return;
        }
        // A local timestamp is only ever set together with the payload.
        let (Some(mut final_ts), Some((dests, _))) = (p.local_ts, &p.payload) else { return };
        for g in dests.iter().filter(|&&g| g != me) {
            match p.remote.get(g) {
                Some(&ts) => final_ts = final_ts.max(ts),
                None => return, // still waiting for a group
            }
        }
        p.final_ts = Some(final_ts);
        // Skeen clock rule: never assign a new local timestamp at or below
        // a known final timestamp.
        self.clock = self.clock.max(final_ts);
    }

    /// Delivers every message whose final timestamp can no longer be
    /// preceded by an undecided message.
    fn try_deliver(&mut self, out: &mut McastOutput<V, (GroupId, Peers)>) {
        loop {
            // Smallest undecided key: a message with an assigned local
            // timestamp could still end up anywhere at or above it.
            let blocker: Option<(u64, MsgId)> = self
                .pending
                .iter()
                .filter(|(_, p)| p.final_ts.is_none())
                .filter_map(|(&mid, p)| p.local_ts.map(|ts| (ts, mid)))
                .min();
            // Smallest decided key.
            let candidate: Option<(u64, MsgId)> =
                self.pending.iter().filter_map(|(&mid, p)| p.final_ts.map(|ts| (ts, mid))).min();
            let Some((fts, mid)) = candidate else { return };
            if let Some(blk) = blocker {
                if blk < (fts, mid) {
                    return;
                }
            }
            let Some(p) = self.pending.remove(&mid) else {
                // The candidate came from iterating `pending` above, so a
                // miss can only mean a local bookkeeping bug; stop
                // delivering rather than crash the replica.
                return;
            };
            let Some((dests, payload)) = p.payload else {
                // A final timestamp requires a local timestamp, which is
                // only assigned alongside the payload; a finalized entry
                // without one is a local logic bug, not wire input. Skip
                // it rather than crash — later messages stay deliverable.
                continue;
            };
            self.delivered_count += 1;
            // Keep the payload around while other groups still need our
            // timestamp retransmitted.
            if self.ts_out_pending(mid) {
                self.delivered_payloads.insert(mid, (Arc::clone(&dests), payload.clone()));
            }
            out.delivered.push(Delivery { mid, final_ts: fts, dests, payload });
        }
    }

    /// Whether some group still needs our timestamp for `mid`: a range
    /// over the `(mid, _)` key prefix, not a scan of the whole table.
    fn ts_out_pending(&self, mid: MsgId) -> bool {
        self.ts_out.range((mid, GroupId(0))..=(mid, GroupId(u32::MAX))).next().is_some()
    }

    /// Tells every replica of `from_group` that our group ordered its
    /// timestamp for `mid`.
    fn send_ts_ack(
        &self,
        mid: MsgId,
        from_group: GroupId,
        out: &mut McastOutput<V, (GroupId, Peers)>,
    ) {
        let ack = McastWire::TsAck { mid, from_group, by_group: self.me.group };
        out.send(from_group, Peers::all(self.topo.size_of(from_group)), ack);
    }

    /// Sends (or re-sends) our group's timestamps to groups that have not
    /// acknowledged them. Only the leader transmits, to bound traffic.
    fn flush_ts_out(&mut self, out: &mut McastOutput<V, (GroupId, Peers)>) {
        if !self.paxos.is_leader() {
            return;
        }
        let ticks = self.ticks;
        let mut due = std::mem::take(&mut self.ts_due);
        for (&(mid, to_group), &mut (ts, ref mut last)) in self.ts_out.iter_mut() {
            if *last == 0 || ticks.saturating_sub(*last) >= RETRY_TICKS {
                *last = ticks.max(1);
                due.push((mid, to_group, ts));
            }
        }
        for (mid, to_group, ts) in due.drain(..) {
            // Destinations and payload travel with the timestamp so the
            // destination can order the message even if it never saw the
            // Submit. They come from the pending entry until local
            // delivery, from `delivered_payloads` after it.
            let shared = match self.pending.get(&mid) {
                Some(p) => p.payload.as_ref(),
                None => self.delivered_payloads.get(&mid),
            };
            let Some((dests, payload)) = shared else { continue };
            let group_ts = McastWire::GroupTs {
                mid,
                from_group: self.me.group,
                ts,
                dests: Arc::clone(dests),
                payload: payload.clone(),
            };
            out.send(to_group, Peers::all(self.topo.size_of(to_group)), group_ts);
        }
        self.ts_due = due;
    }

    /// Feeds one wire message into the member.
    pub fn on_message(&mut self, wire: McastWire<V>) -> McastOutput<V> {
        let mut out = McastOutput::default();
        self.on_message_into(wire, &mut out);
        out.expand()
    }

    /// [`Self::on_message`], appending its effects to `out`.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn on_message_into(
        &mut self,
        wire: McastWire<V>,
        out: &mut McastOutput<V, (GroupId, Peers)>,
    ) {
        match wire {
            McastWire::Submit { mid, dests, payload } => {
                if dests.contains(&self.me.group) {
                    self.note_submit(mid, dests, payload, out);
                }
            }
            McastWire::GroupTs { mid, from_group, ts, dests, payload } => {
                if !dests.contains(&self.me.group) {
                    return;
                }
                // The timestamp doubles as a submit (see wire docs).
                self.note_submit(mid, dests, payload, out);
                if self.remote_seen.contains((mid.stream(), from_group), mid.seq) {
                    // Already ordered: the ack may have been lost, resend it.
                    if self.paxos.is_leader() {
                        self.send_ts_ack(mid, from_group, out);
                    }
                } else {
                    self.seen_remote_ts.insert((mid, from_group), ts);
                    self.maybe_propose_remote(mid, from_group, out);
                }
            }
            McastWire::TsAck { mid, from_group, by_group } => {
                if from_group == self.me.group {
                    self.ts_out.remove(&(mid, by_group));
                    if !self.ts_out_pending(mid) {
                        self.delivered_payloads.remove(&mid);
                    }
                }
            }
            McastWire::Paxos { from_index, msg } => {
                self.with_paxos(out, |paxos, pout| paxos.on_message_into(from_index, msg, pout));
            }
        }
    }

    /// Advances time: drives the consensus clock and retransmissions.
    pub fn tick(&mut self) -> McastOutput<V> {
        let mut out = McastOutput::default();
        self.tick_into(&mut out);
        out.expand()
    }

    /// [`Self::tick`], appending its effects to `out`.
    pub fn tick_into(&mut self, out: &mut McastOutput<V, (GroupId, Peers)>) {
        self.ticks += 1;
        self.with_paxos(out, PaxosReplica::tick_into);
        if self.paxos.is_leader() {
            // A replica that just became leader adopts outstanding work.
            let mut submits = std::mem::take(&mut self.submit_due);
            submits.extend(self.seen_submits.keys());
            for mid in submits.drain(..) {
                self.maybe_propose_assign(mid, out);
            }
            self.submit_due = submits;
            let mut remotes = std::mem::take(&mut self.remote_due);
            remotes.extend(self.seen_remote_ts.keys());
            for (mid, g) in remotes.drain(..) {
                self.maybe_propose_remote(mid, g, out);
            }
            self.remote_due = remotes;
            self.flush_ts_out(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use dynastar_paxos::{PaxosMsg, Slot};

    use super::*;

    fn member(group: u32) -> McastMember<u64> {
        McastMember::new(MemberId::new(GroupId(group), 0), Topology::new(vec![1, 1]))
    }

    #[test]
    fn every_copy_of_a_multicast_shares_one_destination_list() {
        let mut members = [member(0), member(1)];
        let mid = MsgId::new(7, 0);
        let mut queue =
            members[0].submit(mid, vec![GroupId(1), GroupId(0), GroupId(1)], 42).outgoing;
        let mut copies: Vec<Dests> = Vec::new();
        let mut group_ts = 0;
        let mut delivered = Vec::new();
        while let Some((to, wire)) = queue.pop() {
            match wire.clone() {
                McastWire::Submit { dests, .. } => copies.push(dests),
                McastWire::GroupTs { dests, .. } => {
                    copies.push(dests);
                    group_ts += 1;
                }
                McastWire::TsAck { .. } | McastWire::Paxos { .. } => {}
            }
            let out = members[to.group.0 as usize].on_message(wire);
            queue.extend(out.outgoing);
            delivered.extend(out.delivered);
        }
        assert_eq!(group_ts, 2, "each group sends the other its timestamp");
        assert_eq!(delivered.len(), 2);
        copies.extend(delivered.iter().map(|d| d.clone().dests));
        let first = &copies[0];
        assert_eq!(&first[..], &[GroupId(0), GroupId(1)], "sorted and distinct");
        assert!(copies.iter().all(|d| Arc::ptr_eq(d, first)), "a copy allocated its own list");

        let entry = LogEntry::Assign { mid, dests: Arc::clone(first), payload: 42 };
        let LogEntry::Assign { dests, .. } = entry.clone() else { unreachable!() };
        assert!(Arc::ptr_eq(&dests, first));
    }

    /// A recovering peer copies the dedup sets too: the snapshot's size
    /// counts one element per 64-seq block of each.
    #[test]
    fn a_snapshot_counts_the_blocks_of_its_dedup_sets() {
        let mut members = [member(0), member(1)];
        // Seqs 0..130 of one origin span three blocks; a second origin
        // opens a fourth.
        let mids = (0..130).map(|seq| MsgId::new(7, seq)).chain([MsgId::new(8, 0)]);
        for mid in mids {
            let mut queue = members[0].submit(mid, vec![GroupId(0), GroupId(1)], 1).outgoing;
            while let Some((to, wire)) = queue.pop() {
                queue.extend(members[to.group.0 as usize].on_message(wire).outgoing);
            }
        }
        let snap = members[0].snapshot();
        // Group 0 assigned every id and saw group 1's timestamp for each.
        assert_eq!((snap.assigned.blocks(), snap.remote_seen.blocks()), (4, 4));
        let rows = snap.report.accepted.len()
            + snap.pending.len()
            + snap.seen_submits.len()
            + snap.seen_remote_ts.len()
            + snap.ts_out.len()
            + snap.delivered_payloads.len();
        assert_eq!(snap.approx_elements(), rows as u64 + 8);
    }

    #[test]
    fn the_into_forms_append_to_what_the_buffer_already_holds() {
        let (mut m, mut twin) = (member(0), member(0));
        let mid = MsgId::new(7, 0);
        let dests = || vec![GroupId(0), GroupId(1)];
        let remote_ts = || McastWire::GroupTs {
            mid,
            from_group: GroupId(1),
            ts: 5,
            dests: dests().into(),
            payload: 42,
        };
        let ack = McastWire::TsAck {
            mid: MsgId::new(1, 1),
            from_group: GroupId(0),
            by_group: GroupId(1),
        };
        let early =
            Delivery { mid: MsgId::new(1, 1), final_ts: 1, dests: dests().into(), payload: 1 };
        let mut out = McastOutput {
            outgoing: vec![((GroupId(1), Peers::one(0)), ack.clone())],
            delivered: vec![early.clone()],
        };
        m.submit_into(mid, dests().into(), 42, &mut out);
        m.tick_into(&mut out);
        m.on_message_into(remote_ts(), &mut out);
        let held = (MemberId::new(GroupId(1), 0), ack);
        let mut expect = McastOutput { outgoing: vec![held], delivered: vec![early] };
        for step in [twin.submit(mid, dests(), 42), twin.tick(), twin.on_message(remote_ts())] {
            expect.outgoing.extend(step.outgoing);
            expect.delivered.extend(step.delivered);
        }
        assert_eq!(expect.delivered.len(), 2, "group 1's timestamp completes the message");
        let out = out.expand();
        assert_eq!(out.outgoing, expect.outgoing);
        assert_eq!(out.delivered, expect.delivered);
    }

    #[test]
    fn every_fan_out_is_one_message_to_a_recipient_set() {
        // The leader of group 0, in two groups of three.
        let topo = Topology::uniform(2, 3);
        let me = MemberId::new(GroupId(0), 0);
        let mut m: McastMember<u64> = McastMember::with_group_config(me, topo, GroupConfig::new(3));
        let (g0, g1) = (GroupId(0), GroupId(1));
        let sets = |out: &mut McastOutput<u64, (GroupId, Peers)>| {
            let sets = out.outgoing.drain(..).map(|(to, wire)| {
                let kind = match wire {
                    McastWire::Submit { .. } => "Submit",
                    McastWire::GroupTs { .. } => "GroupTs",
                    McastWire::TsAck { .. } => "TsAck",
                    McastWire::Paxos { msg: PaxosMsg::Accept { .. }, .. } => "Accept",
                    McastWire::Paxos { msg: PaxosMsg::Decide { .. }, .. } => "Decide",
                    McastWire::Paxos { .. } => "Paxos",
                };
                (to, kind)
            });
            sets.collect::<Vec<_>>()
        };
        let (others, all) = (Peers(0b110), Peers(0b111));
        let mid = MsgId::new(7, 0);
        let mut out = McastOutput::default();
        m.submit_into(mid, vec![g0, g1].into(), 42, &mut out);
        let submits = [((g0, others), "Submit"), ((g1, all), "Submit"), ((g0, others), "Accept")];
        assert_eq!(sets(&mut out), submits);

        let accepted = |slot| McastWire::Paxos {
            from_index: 1,
            msg: PaxosMsg::Accepted { ballot: Ballot::INITIAL, slot: Slot(slot) },
        };
        m.on_message_into(accepted(0), &mut out);
        assert_eq!(sets(&mut out), [((g0, others), "Decide"), ((g1, all), "GroupTs")]);

        let ts = McastWire::GroupTs {
            mid,
            from_group: g1,
            ts: 3,
            dests: vec![g0, g1].into(),
            payload: 42,
        };
        m.on_message_into(ts, &mut out);
        assert_eq!(sets(&mut out), [((g0, others), "Accept")]);
        m.on_message_into(accepted(1), &mut out);
        assert_eq!(sets(&mut out), [((g0, others), "Decide"), ((g1, all), "TsAck")]);
        assert_eq!(out.delivered.len(), 1);
    }

    #[test]
    fn a_remote_ordered_before_its_assign_still_delivers() {
        let mut m = member(0);
        let mid = MsgId::new(7, 0);
        let dests: Dests = vec![GroupId(0), GroupId(1)].into();
        let mut out = McastOutput::default();
        m.apply(LogEntry::Remote { mid, from_group: GroupId(1), ts: 5 }, &mut out);
        assert!(out.delivered.is_empty(), "no local timestamp yet");
        m.apply(LogEntry::Assign { mid, dests: Arc::clone(&dests), payload: 42 }, &mut out);
        assert_eq!(out.delivered.len(), 1);
        let d = &out.delivered[0];
        assert_eq!((d.mid, d.final_ts, d.payload), (mid, 5, 42));
        assert!(Arc::ptr_eq(&d.dests, &dests));
    }

    /// Orders `mid` for groups 0 and 1 at member `m` of group 0: its
    /// `Assign`, group 1's `Remote` and group 1's ack of our timestamp.
    /// Returns how many messages that delivered.
    fn order_both(
        m: &mut McastMember<u64>,
        mid: MsgId,
        out: &mut McastOutput<u64, (GroupId, Peers)>,
    ) -> usize {
        let before = out.delivered.len();
        let dests: Dests = vec![GroupId(0), GroupId(1)].into();
        m.apply(LogEntry::Assign { mid, dests, payload: 1 }, out);
        m.apply(LogEntry::Remote { mid, from_group: GroupId(1), ts: 1 }, out);
        let ack = McastWire::TsAck { mid, from_group: GroupId(0), by_group: GroupId(1) };
        m.on_message_into(ack, out);
        out.outgoing.clear();
        out.delivered.len() - before
    }

    #[test]
    fn a_duplicate_long_after_its_delivery_is_not_delivered_again() {
        let mut m = member(0);
        let mut out = McastOutput::default();
        let (g0, g1) = (GroupId(0), GroupId(1));
        // Two messages for group 0 alone, one for both groups; each is
        // repeated once below, through a different input.
        let (by_assign, by_submit, by_ts) = (MsgId::new(7, 0), MsgId::new(7, 1), MsgId::new(7, 2));
        for mid in [by_assign, by_submit] {
            m.submit_into(mid, vec![g0].into(), 42, &mut out);
        }
        assert_eq!(out.delivered.len(), 2, "a one-replica group orders at once");
        assert_eq!(order_both(&mut m, by_ts, &mut out), 1);
        // More messages, from 16 other origins, than two rotating
        // generations of 2^16 ids remember.
        for i in 0..(1u32 << 17) + 1 {
            let mid = MsgId::new(100 + u64::from(i % 16), i / 16);
            assert_eq!(order_both(&mut m, mid, &mut out), 1);
        }
        out.delivered.clear();

        let solo = |mid| (mid, vec![g0].into(), 42);
        let (mid, dests, payload) = solo(by_assign);
        m.apply(LogEntry::Assign { mid, dests, payload }, &mut out);
        assert!(out.delivered.is_empty(), "a decided duplicate Assign delivered again");
        let (mid, dests, payload) = solo(by_submit);
        m.on_message_into(McastWire::Submit { mid, dests, payload }, &mut out);
        m.tick_into(&mut out);
        assert!(out.delivered.is_empty(), "a late Submit delivered again");
        let dests = vec![g0, g1].into();
        let late_ts = McastWire::GroupTs { mid: by_ts, from_group: g1, ts: 9, dests, payload: 1 };
        m.on_message_into(late_ts, &mut out);
        m.tick_into(&mut out);
        assert!(out.delivered.is_empty(), "a late GroupTs delivered again");
        let proposals = out.outgoing.iter().filter(|(_, w)| matches!(w, McastWire::Paxos { .. }));
        assert_eq!(proposals.count(), 0, "a known id is not proposed again");
        assert!(m.pending.is_empty() && m.seen_submits.is_empty() && m.seen_remote_ts.is_empty());
    }

    #[test]
    fn a_late_submit_below_an_origins_newest_assigned_seq_is_still_ordered() {
        // The watermark trap: seqs 5..=10 of origin 9 are ordered first;
        // seq 3, never assigned, must not read as a duplicate.
        let mut m = member(0);
        let mut out = McastOutput::default();
        let dests = || -> Dests { vec![GroupId(0)].into() };
        for seq in 5..=10 {
            m.apply(
                LogEntry::Assign { mid: MsgId::new(9, seq), dests: dests(), payload: 0 },
                &mut out,
            );
        }
        assert_eq!(out.delivered.len(), 6);
        out.delivered.clear();
        let late = MsgId::new(9, 3);
        m.on_message_into(McastWire::Submit { mid: late, dests: dests(), payload: 3 }, &mut out);
        let d: Vec<(MsgId, u64)> = out.delivered.iter().map(|d| (d.mid, d.payload)).collect();
        assert_eq!(d, [(late, 3)]);
    }
}
