//! The source side of staged migration: the transfers a plan staged at this
//! replica, which of them hold a link slot, and which chunk goes on the
//! migration link next.
//!
//! The server calls [`Sender::stage`] when a plan moves a key away,
//! [`Sender::on_ack`] and [`Sender::on_pull`] for the destination's
//! answers, [`Sender::retire`] when the move settles (done or reverted)
//! and [`Sender::pump`] at the end of every batch of work. Ownership, the
//! store and where a key has gone stay with the server; everything here is
//! chunk data retained until the move settles, and send order.

use std::collections::{BTreeMap, VecDeque};

use dynastar_runtime::{SimDuration, SimTime};

use super::ServerConfig;
use crate::command::{Application, LocKey, PartitionId, VarId};
use crate::migration::{migration_mid, TAG_MIGRATION_REVERT};
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::routing::shard_of;

/// Variables shipped between partitions: `(var, value-or-absent)` pairs.
pub(super) type Shipment<V> = Vec<(VarId, Option<V>)>;

/// Names one staged transfer at its source: `(key, plan version)`. Key
/// first, so the transfers of one key are neighbours in the outbox and a
/// pull finds the newest without walking the rest.
pub(super) type TransferId = (LocKey, u64);

/// Modelled wire time of shipping `vars` variables over the migration link.
pub(super) fn transfer_time(cfg: &ServerConfig, vars: usize) -> SimDuration {
    if cfg.migration_link_bytes_per_sec == 0 {
        return SimDuration::ZERO;
    }
    let bytes = (vars as u64).saturating_mul(cfg.migration_var_bytes);
    SimDuration::from_micros(bytes.saturating_mul(1_000_000) / cfg.migration_link_bytes_per_sec)
}

#[cfg(test)]
thread_local! {
    /// `(partition, replica index, key)` of every staged chunk a sender on
    /// this thread put on its link — who sent what, which a cluster test
    /// cannot see through the simulator.
    pub(crate) static CHUNK_SENDS: std::cell::RefCell<Vec<(PartitionId, u32, LocKey)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The chunk of `key`'s transfer that replica `r` of `n` puts on its link
/// next. Chunk `i` belongs to replica `(shard_of(key, n) + i) % n`: on its
/// own walk a replica takes its lowest unacked chunk, on the stealing walk
/// the highest unacked chunk of a peer.
fn next_chunk(acked: &[bool], key: LocKey, (r, n): (u32, u32), steal: bool) -> Option<usize> {
    let first = shard_of(key, n) as usize;
    let mine = |i: usize| (first + i) % n as usize == r as usize;
    let mut chunks = acked.iter().enumerate();
    if steal {
        chunks.rposition(|(i, &done)| !done && !mine(i))
    } else {
        chunks.position(|(i, &done)| !done && mine(i))
    }
}

/// One staged key migration ([`TransferId`] keyed). All chunk data is
/// retained until the migration settles, so a revert can reinstall the key
/// and a retransmit can resend any chunk.
#[derive(Debug, Clone)]
struct OutboxEntry<V> {
    /// Destination partition.
    to: PartitionId,
    /// The key's variables, pre-split into chunks.
    chunks: Vec<Shipment<V>>,
    /// Per-chunk ack state.
    acked: Vec<bool>,
    /// Index of the chunk currently awaiting its ack, if any.
    in_flight: Option<usize>,
    /// Consecutive timeouts of the in-flight chunk.
    attempts: u32,
    /// Current (exponentially growing, capped) retransmit backoff.
    backoff: SimDuration,
    /// When the in-flight chunk times out.
    deadline: SimTime,
    /// Retries exhausted; a revert has been requested.
    gave_up: bool,
    /// Waiting for a per-link in-flight slot; the entry is outside
    /// [`Sender::active`] until [`Sender::release_link_slot`] or a pull
    /// promotes it.
    deferred: bool,
    /// The destination asked for this key ([`Direct::PlanVarsPull`]): the
    /// entry sits in the demand-first prefix of [`Sender::active`].
    pulled: bool,
}

/// A settled transfer, handed back by [`Sender::retire`].
#[derive(Debug)]
pub(super) struct Retired<V> {
    /// Where it was going.
    pub to: PartitionId,
    /// The retained chunk data (a revert reinstalls or re-ships it).
    pub chunks: Vec<Shipment<V>>,
    /// Deferred transfers its link slot was passed on to
    /// (`migration.released`).
    pub released: u64,
}

/// What one [`Sender::pump`] did — the counters the server records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Pumped {
    /// The earliest future instant at which the pump needs to run again
    /// (always `> now`: past-due work was just handled).
    pub next_due: Option<SimTime>,
    /// Chunks put on the link (`migration.chunks_sent`)…
    pub chunks_sent: u64,
    /// …of which resends after a missed ack (`migration.chunk_retries`).
    pub chunk_retries: u64,
    /// Deferred transfers promoted into slots that give-ups freed
    /// (`migration.released`).
    pub released: u64,
}

/// Staged migrations one replica is the source of. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub(super) struct Sender<V> {
    /// The partition this replica serves (the `from` of every chunk).
    me: PartitionId,
    /// This replica's index in its partition's group and the group's size:
    /// which stripe of the send order is its own (see [`Sender::pump`]).
    /// The replica's own, not protocol state: the host re-stamps it on a
    /// clone it installs.
    replica: (u32, u32),
    outbox: BTreeMap<TransferId, OutboxEntry<V>>,
    /// The send order: every outbox entry that holds a link slot (not
    /// deferred, not given up). Pulled entries form a prefix in pull order
    /// — the demand FIFO — followed by the rest in plan/promotion
    /// (hottest-first) order; the pump looks at nothing else.
    active: Vec<TransferId>,
    /// Per-destination count of staged transfers holding an in-flight slot
    /// (only maintained when `migration_max_inflight_per_link > 0`).
    link_active: BTreeMap<PartitionId, u32>,
    /// Deferred outbox entries per destination, in plan (hottest-first)
    /// order, promoted as slots free up.
    link_waiting: BTreeMap<PartitionId, VecDeque<TransferId>>,
    /// When the modelled migration link (one per source replica) has
    /// finished putting the last chunk on the wire. Chunks serialize on
    /// this clock, not on the execution workers'.
    link_free: SimTime,
}

impl<V: Clone> Sender<V> {
    /// A lone sender (replica 0 of 1) for partition `me`.
    pub(super) fn new(me: PartitionId) -> Self {
        Sender {
            me,
            replica: (0, 1),
            outbox: BTreeMap::new(),
            active: Vec::new(),
            link_active: BTreeMap::new(),
            link_waiting: BTreeMap::new(),
            link_free: SimTime::ZERO,
        }
    }

    /// This sender is replica `r` of the `n` that replicate its partition.
    pub(super) fn set_replica(&mut self, r: u32, n: u32) {
        debug_assert!(r < n.max(1), "replica {r} of {n}");
        self.replica = (r, n.max(1));
    }

    /// Stages `vars` as transfer `k` toward `to`, pre-split into chunks.
    /// Moves arrive hottest-first (the oracle orders a plan by access
    /// weight), so when the link to `to` is at its in-flight cap this
    /// colder move parks in FIFO order until a freed slot promotes it:
    /// returns whether it was so deferred.
    pub(super) fn stage(
        &mut self,
        cfg: &ServerConfig,
        k: TransferId,
        to: PartitionId,
        vars: Shipment<V>,
    ) -> bool {
        let per = cfg.migration_chunk_vars.max(1) as usize;
        let mut chunks: Vec<Shipment<V>> = vars.chunks(per).map(|c| c.to_vec()).collect();
        if chunks.is_empty() {
            // Keyless-data moves still stage one empty chunk so the
            // destination reaches `total` and commits.
            chunks.push(Vec::new());
        }
        let cap = cfg.migration_max_inflight_per_link;
        let deferred = cap > 0 && self.link_active.get(&to).copied().unwrap_or(0) >= cap;
        if deferred {
            self.link_waiting.entry(to).or_default().push_back(k);
        } else {
            self.active.push(k);
            if cap > 0 {
                *self.link_active.entry(to).or_insert(0) += 1;
            }
        }
        self.outbox.insert(
            k,
            OutboxEntry {
                to,
                acked: vec![false; chunks.len()],
                chunks,
                in_flight: None,
                attempts: 0,
                backoff: cfg.migration_chunk_timeout,
                deadline: SimTime::ZERO,
                gave_up: false,
                deferred,
                pulled: false,
            },
        );
        deferred
    }

    /// The destination acknowledged `chunk` of transfer `k`. Progress —
    /// even a late ack of a chunk already queued for resend — restarts the
    /// retry ladder.
    pub(super) fn on_ack(&mut self, cfg: &ServerConfig, k: TransferId, chunk: u32) {
        let Some(e) = self.outbox.get_mut(&k) else { return };
        let i = chunk as usize;
        if i < e.acked.len() && !e.acked[i] {
            e.acked[i] = true;
            e.attempts = 0;
            e.backoff = cfg.migration_chunk_timeout;
            if e.in_flight == Some(i) {
                e.in_flight = None;
            }
        }
    }

    /// Demand-first transfer: the staged transfer of `key` toward `to`
    /// joins the end of the pulled prefix of the send order, taking a link
    /// slot even past the per-link cap. Only a priority hint: a repeat, or
    /// a pull for a key with no staged transfer here (classic shipment,
    /// settled, given up, chained elsewhere), changes nothing and returns
    /// `false`.
    pub(super) fn on_pull(&mut self, key: LocKey, to: PartitionId) -> bool {
        // Newest plan first: an older entry for the key is a superseded move.
        let Some((&k, e)) = self
            .outbox
            .range_mut((key, 0)..=(key, u64::MAX))
            .rev()
            .find(|(_, e)| e.to == to && !e.pulled && !e.gave_up)
        else {
            return false;
        };
        e.pulled = true;
        if e.deferred {
            // Its `link_waiting` ticket goes stale and is skipped there.
            e.deferred = false;
            *self.link_active.entry(to).or_insert(0) += 1;
        } else {
            self.active.retain(|&a| a != k);
        }
        self.active.insert(self.pulled_len(), k);
        true
    }

    /// Length of the pulled prefix of the send order.
    fn pulled_len(&self) -> usize {
        let pulled = |k| self.outbox.get(k).is_some_and(|e| e.pulled);
        self.active.iter().position(|k| !pulled(k)).unwrap_or(self.active.len())
    }

    /// Takes transfer `k` (toward `to`) out of the send order, frees its
    /// in-flight slot on that link and promotes waiting deferred transfers
    /// (oldest = hottest first) into free slots, at the end of the send
    /// order; returns how many. Without a per-link cap there are no slots
    /// to pass on.
    fn release_link_slot(&mut self, cfg: &ServerConfig, k: TransferId, to: PartitionId) -> u64 {
        self.active.retain(|&a| a != k);
        let cap = cfg.migration_max_inflight_per_link;
        if cap == 0 {
            return 0;
        }
        if let Some(n) = self.link_active.get_mut(&to) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.link_active.remove(&to);
            }
        }
        let mut released = 0;
        while self.link_active.get(&to).copied().unwrap_or(0) < cap {
            let Some(k) = self.link_waiting.get_mut(&to).and_then(VecDeque::pop_front) else {
                self.link_waiting.remove(&to);
                break;
            };
            match self.outbox.get_mut(&k) {
                Some(e) if e.deferred && !e.gave_up => {
                    e.deferred = false;
                    self.active.push(k);
                    *self.link_active.entry(to).or_insert(0) += 1;
                    released += 1;
                }
                // Stale waiter (dismantled or pulled meanwhile): keep popping.
                _ => {}
            }
        }
        released
    }

    /// Dismantles a settled transfer: the entry leaves the outbox and,
    /// unless it never held a link slot or gave it up earlier, the send
    /// order. `None` when it was already dismantled.
    pub(super) fn retire(&mut self, cfg: &ServerConfig, k: TransferId) -> Option<Retired<V>> {
        let e = self.outbox.remove(&k)?;
        let held_slot = !e.deferred && !e.gave_up;
        let released = if held_slot { self.release_link_slot(cfg, k, e.to) } else { 0 };
        Some(Retired { to: e.to, chunks: e.chunks, released })
    }

    /// Drives the staged transfers from the send order alone: times out
    /// unacked chunks (exponential backoff; once retries are exhausted,
    /// give up and multicast the revert — which frees the link slot for a
    /// deferred transfer), then puts chunks on the migration link, one at a
    /// time. A timed-out chunk is resent through the same link. The link
    /// clock is this pump's own: no chunk ever occupies an execution
    /// worker.
    ///
    /// Which chunk goes next is *striped* over the partition's replicas,
    /// whose links would otherwise all carry the same chunks. A chunk's
    /// stripe is a function of its key and index ([`next_chunk`]), never of
    /// its position: pulls arrive outside the total order, so the pulled
    /// prefix is ordered differently at each replica. A replica walks its
    /// own stripe front to back, then *steals* from its peers' stripes back
    /// to front — first over the pulled prefix (demand never waits for
    /// "its" replica), then over the background. Nothing coordinates the
    /// walkers but the acks, which every destination replica sends to every
    /// source replica: a peer that is down or slow costs time, not
    /// completion, and two walkers send the same chunk only where they meet.
    pub(super) fn pump<A: Application<Value = V>>(
        &mut self,
        cfg: &ServerConfig,
        now: SimTime,
        eff: &mut Vec<Effect<A>>,
    ) -> Pumped {
        let mut out = Pumped::default();
        if self.active.is_empty() {
            return out;
        }
        let me = self.me;
        let backoff_cap = cfg.migration_chunk_timeout.saturating_mul(64);
        let due = |slot: &mut Option<SimTime>, at: SimTime| {
            *slot = Some(slot.map_or(at, |cur| cur.min(at)));
        };

        let mut gave_up: Vec<(TransferId, PartitionId)> = Vec::new();
        for &k in &self.active {
            let Some(e) = self.outbox.get_mut(&k) else { continue };
            if e.in_flight.is_none() {
                continue;
            }
            if now < e.deadline {
                due(&mut out.next_due, e.deadline);
                continue;
            }
            // Ack deadline missed: queue the chunk for resend, or give up.
            e.in_flight = None;
            e.attempts += 1;
            if e.attempts > cfg.migration_max_retries {
                e.gave_up = true;
                gave_up.push((k, e.to));
            } else {
                e.backoff = e.backoff.saturating_mul(2).min(backoff_cap);
            }
        }
        for (k, to) in gave_up {
            out.released += self.release_link_slot(cfg, k, to);
            let (key, version) = k;
            eff.push(Effect::Multicast {
                mid: migration_mid(key, version, TAG_MIGRATION_REVERT),
                partitions: vec![me, to],
                oracle: OracleDest::All,
                payload: Payload::MigrationRevert { version, key, from: me, to },
            });
        }

        // The pulled prefix, then the background; within each, this
        // replica's stripe front to back, then its peers' back to front.
        let (r, n) = self.replica;
        let pulled = self.pulled_len();
        'link: for class in [0..pulled, pulled..self.active.len()] {
            for steal in [false, true] {
                if steal && n == 1 {
                    continue; // a lone sender has no peer to steal from
                }
                for j in 0..class.len() {
                    let at = if steal { class.end - 1 - j } else { class.start + j };
                    let (key, version) = self.active[at];
                    let Some(e) = self.outbox.get_mut(&(key, version)) else { continue };
                    if e.in_flight.is_some() {
                        continue;
                    }
                    let Some(i) = next_chunk(&e.acked, key, (r, n), steal) else {
                        continue; // nothing left here for this walk
                    };
                    if now < self.link_free {
                        due(&mut out.next_due, self.link_free);
                        break 'link;
                    }
                    #[cfg(test)]
                    CHUNK_SENDS.with_borrow_mut(|log| log.push((me, r, key)));
                    let transfer = transfer_time(cfg, e.chunks[i].len());
                    self.link_free = now + transfer;
                    e.in_flight = Some(i);
                    e.deadline = now + transfer + e.backoff;
                    eff.push(Effect::Send {
                        to: Destination::Partition(e.to),
                        msg: Direct::PlanVarsChunk {
                            version,
                            key,
                            from: me,
                            chunk: i as u32,
                            total: e.chunks.len() as u32,
                            vars: e.chunks[i].clone(),
                        },
                    });
                    out.chunks_sent += 1;
                    out.chunk_retries += u64::from(e.attempts > 0);
                    due(&mut out.next_due, e.deadline);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten variables to a key; never executed here.
    #[derive(Debug)]
    struct App;
    impl Application for App {
        type Op = ();
        type Value = u8;
        type Reply = ();
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0 / 10)
        }
        fn execute(_: &(), _: &mut BTreeMap<VarId, Option<u8>>) {}
    }

    const DEST: PartitionId = PartitionId(1);
    const VERSION: u64 = 1;
    /// Wire time of one chunk under [`config`]'s `linked` bandwidth.
    const CHUNK_WIRE: SimDuration = SimDuration::from_millis(1);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// One variable per chunk, a 200 ms ack timeout; `linked` prices a
    /// chunk at [`CHUNK_WIRE`], otherwise the link is free.
    fn config(cap: u32, max_retries: u32, linked: bool) -> ServerConfig {
        ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 1,
            migration_var_bytes: 1_000,
            migration_link_bytes_per_sec: if linked { 1_000_000 } else { 0 },
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: max_retries,
            migration_max_inflight_per_link: cap,
            ..ServerConfig::default()
        }
    }

    /// A sender for partition 0 with `keys` staged toward [`DEST`] in
    /// order, `chunks` chunks each; returns which of them were deferred.
    fn staged(cfg: &ServerConfig, keys: &[u64], chunks: u64) -> (Sender<u8>, Vec<bool>) {
        let mut s = Sender::new(PartitionId(0));
        let deferred = keys
            .iter()
            .map(|&k| {
                let vars = (0..chunks).map(|i| (VarId(k * 10 + i), Some(0))).collect();
                s.stage(cfg, (LocKey(k), VERSION), DEST, vars)
            })
            .collect();
        (s, deferred)
    }

    /// Pumps at `now`; returns the outcome and the `(key, chunk)` of every
    /// chunk put on the link, in order, plus the keys whose revert went out.
    fn pump(
        s: &mut Sender<u8>,
        cfg: &ServerConfig,
        now: SimTime,
    ) -> (Pumped, Vec<(u64, u32)>, Vec<u64>) {
        let mut eff: Vec<Effect<App>> = Vec::new();
        let pumped = s.pump(cfg, now, &mut eff);
        let mut chunks = Vec::new();
        let mut reverts = Vec::new();
        for e in eff {
            match e {
                Effect::Send { to, msg: Direct::PlanVarsChunk { key, chunk, total, .. } } => {
                    assert_eq!(to, Destination::Partition(DEST));
                    assert!(chunk < total);
                    chunks.push((key.0, chunk));
                }
                Effect::Multicast { payload: Payload::MigrationRevert { key, .. }, .. } => {
                    assert!(chunks.is_empty(), "reverts precede this pump's chunks");
                    reverts.push(key.0);
                }
                other => panic!("unexpected effect {other:?}"),
            }
        }
        (pumped, chunks, reverts)
    }

    /// The chunk of a three-chunk key that belongs to replica `r` of 3.
    fn own_chunk(key: u64, r: u32) -> u32 {
        (r + 3 - shard_of(LocKey(key), 3)) % 3
    }

    #[test]
    fn own_stripe_front_to_back_then_steal_back_to_front_pulled_prefix_first() {
        let cfg = config(0, 5, false);
        for r in 0..3 {
            let (mut s, _) = staged(&cfg, &[0, 1, 2, 3, 4], 3);
            s.set_replica(r, 3);
            assert!(s.on_pull(LocKey(3), DEST));
            // Every key has exactly one chunk in this replica's stripe:
            // the pulled key's goes first, the background follows in plan
            // order. One chunk per transfer is in flight at a time.
            let (_, sent, _) = pump(&mut s, &cfg, at(0));
            let own: Vec<(u64, u32)> = [3, 0, 1, 2, 4].map(|k| (k, own_chunk(k, r))).to_vec();
            assert_eq!(sent, own, "replica {r}");
            for &(k, chunk) in &own {
                s.on_ack(&cfg, (LocKey(k), VERSION), chunk);
            }
            // Its stripe is done; it helps its peers from the far end —
            // their highest chunk, the background walked back to front.
            let (_, sent, _) = pump(&mut s, &cfg, at(1));
            let highest_of_a_peer = |k| if own_chunk(k, r) == 2 { 1 } else { 2 };
            let stolen: Vec<(u64, u32)> =
                [3, 4, 2, 1, 0].map(|k| (k, highest_of_a_peer(k))).to_vec();
            assert_eq!(sent, stolen, "replica {r}");
        }
    }

    #[test]
    fn one_chunk_per_link_clock_interval() {
        let cfg = config(0, 5, true);
        let (mut s, _) = staged(&cfg, &[0, 1], 2);
        let ack_due = |sent_at: u64| at(sent_at) + CHUNK_WIRE + cfg.migration_chunk_timeout;
        // The first chunk occupies the link; the second key waits for it.
        let (pumped, sent, _) = pump(&mut s, &cfg, at(0));
        assert_eq!(sent, [(0, 0)]);
        assert_eq!(pumped, Pumped { next_due: Some(at(1)), chunks_sent: 1, ..Pumped::default() });
        // Pumping before the link frees up sends nothing.
        let (pumped, sent, _) = pump(&mut s, &cfg, at(0));
        assert_eq!((pumped.chunks_sent, sent.len()), (0, 0));
        // Once it has, the second key's chunk goes; with both keys awaiting
        // an ack the earlier deadline is what the pump waits for.
        let (pumped, sent, _) = pump(&mut s, &cfg, at(1));
        assert_eq!(sent, [(1, 0)]);
        assert_eq!(pumped.next_due, Some(ack_due(0)));
        // An ack makes the first key's next chunk ready, not the link.
        s.on_ack(&cfg, (LocKey(0), VERSION), 0);
        let (pumped, sent, _) = pump(&mut s, &cfg, at(1));
        assert!(sent.is_empty());
        assert_eq!(pumped.next_due, Some(at(2)));
        let (_, sent, _) = pump(&mut s, &cfg, at(2));
        assert_eq!(sent, [(0, 1)]);
    }

    #[test]
    fn a_pull_promotes_a_deferred_transfer_past_the_cap() {
        let cfg = config(1, 5, false);
        let (mut s, deferred) = staged(&cfg, &[0, 1, 2], 1);
        assert_eq!(deferred, [false, true, true]);
        assert!(s.on_pull(LocKey(2), DEST));
        // A repeat, another destination, an unknown key: nothing changes.
        assert!(!s.on_pull(LocKey(2), DEST));
        assert!(!s.on_pull(LocKey(1), PartitionId(7)));
        assert!(!s.on_pull(LocKey(9), DEST));
        // Demand first, then the slot holder; key 1 still waits.
        let (_, sent, _) = pump(&mut s, &cfg, at(0));
        assert_eq!(sent, [(2, 0), (0, 0)]);
        // Two transfers hold the one slot's worth: the first to settle
        // passes nothing on, the second frees the slot for key 1 (key 2's
        // own ticket in the waiting line is stale and skipped).
        assert_eq!(s.retire(&cfg, (LocKey(0), VERSION)).map(|r| r.released), Some(0));
        assert_eq!(s.retire(&cfg, (LocKey(2), VERSION)).map(|r| r.released), Some(1));
        let (_, sent, _) = pump(&mut s, &cfg, at(1));
        assert_eq!(sent, [(1, 0)]);
        assert!(s.retire(&cfg, (LocKey(2), VERSION)).is_none());
    }

    #[test]
    fn an_ack_resets_the_retry_ladder() {
        let cfg = config(0, 5, false);
        let (mut s, _) = staged(&cfg, &[0], 2);
        let (pumped, _, _) = pump(&mut s, &cfg, at(0));
        assert_eq!(pumped.next_due, Some(at(200)));
        // The ack deadline passes: the chunk goes again, with the timeout doubled.
        let (pumped, sent, _) = pump(&mut s, &cfg, at(200));
        assert_eq!(sent, [(0, 0)]);
        assert_eq!(
            pumped,
            Pumped { next_due: Some(at(600)), chunks_sent: 1, chunk_retries: 1, released: 0 }
        );
        // Progress: the next chunk is a first send on the base timeout.
        s.on_ack(&cfg, (LocKey(0), VERSION), 0);
        let (pumped, sent, _) = pump(&mut s, &cfg, at(300));
        assert_eq!(sent, [(0, 1)]);
        assert_eq!(
            pumped,
            Pumped { next_due: Some(at(500)), chunks_sent: 1, chunk_retries: 0, released: 0 }
        );
    }

    #[test]
    fn giving_up_frees_the_slot_for_the_oldest_waiter() {
        let cfg = config(1, 0, false);
        let (mut s, deferred) = staged(&cfg, &[0, 1, 2], 1);
        assert_eq!(deferred, [false, true, true]);
        let (_, sent, reverts) = pump(&mut s, &cfg, at(0));
        assert_eq!((sent, reverts), (vec![(0, 0)], vec![]));
        // No retries allowed: the missed ack reverts key 0, and key 1 —
        // deferred first — takes its slot within the same pump.
        let (pumped, sent, reverts) = pump(&mut s, &cfg, at(200));
        assert_eq!((sent, reverts), (vec![(1, 0)], vec![0]));
        assert_eq!(pumped.released, 1);
        // The given-up transfer keeps its data for the revert to reinstall,
        // and holds no slot to pass on when it is dismantled.
        let retired = s.retire(&cfg, (LocKey(0), VERSION)).expect("still in the outbox");
        assert_eq!((retired.to, retired.released), (DEST, 0));
        assert_eq!(retired.chunks, [vec![(VarId(0), Some(0))]]);
    }
}
