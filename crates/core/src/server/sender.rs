//! The source side of staged migration: the transfers a plan staged at this
//! replica and which chunk goes on the migration link next.
//!
//! The server calls [`Sender::stage`] when a plan moves a key away,
//! [`Sender::on_ack`] and [`Sender::on_pull`] for the destination's
//! answers, [`Sender::retire`] when the move settles (done or reverted)
//! and [`Sender::pump`] at the end of every batch of work. Ownership, the
//! store and where a key has gone stay with the server; everything here is
//! chunk data retained until the move settles, and send order.

use std::collections::BTreeMap;

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

/// `to`'s count in a per-destination `window`, from zero if it has none.
fn window_of(window: &mut Vec<(PartitionId, u32)>, to: PartitionId) -> &mut u32 {
    let i = window.iter().position(|&(p, _)| p == to).unwrap_or_else(|| {
        window.push((to, 0));
        window.len() - 1
    });
    &mut window[i].1
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
    /// The send order: every outbox entry that has not given up. Pulled
    /// entries form a prefix in pull order — the demand FIFO — followed by
    /// the rest in plan (hottest-first) order; the pump looks at nothing
    /// else.
    active: Vec<TransferId>,
    /// The pump's scratch: chunks awaiting their ack per destination,
    /// recounted on every pump and kept between pumps only so that the
    /// count allocates nothing.
    window: Vec<(PartitionId, u32)>,
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
            window: Vec::new(),
            link_free: SimTime::ZERO,
        }
    }

    /// This sender is replica `r` of the `n` that replicate its partition.
    pub(super) fn set_replica(&mut self, r: u32, n: u32) {
        debug_assert!(r < n.max(1), "replica {r} of {n}");
        self.replica = (r, n.max(1));
    }

    /// Stages `vars` as transfer `k` toward `to`, pre-split into chunks, at
    /// the end of the send order. Moves arrive hottest-first (the oracle
    /// orders a plan by access weight), and so the send order is too.
    pub(super) fn stage(
        &mut self,
        cfg: &ServerConfig,
        k: TransferId,
        to: PartitionId,
        vars: Shipment<V>,
    ) {
        let per = cfg.migration_chunk_vars.max(1) as usize;
        let mut chunks: Vec<Shipment<V>> = vars.chunks(per).map(|c| c.to_vec()).collect();
        if chunks.is_empty() {
            // Keyless-data moves still stage one empty chunk so the
            // destination reaches `total` and commits.
            chunks.push(Vec::new());
        }
        self.active.push(k);
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
                pulled: false,
            },
        );
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
    /// moves to the end of the pulled prefix of the send order. Only a
    /// priority hint: a repeat, or a pull for a key with no staged transfer
    /// here (classic shipment, settled, given up, chained elsewhere),
    /// changes nothing and returns `false`.
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
        self.active.retain(|&a| a != k);
        self.active.insert(self.pulled_len(), k);
        true
    }

    /// Length of the pulled prefix of the send order.
    fn pulled_len(&self) -> usize {
        let pulled = |k| self.outbox.get(k).is_some_and(|e| e.pulled);
        self.active.iter().position(|k| !pulled(k)).unwrap_or(self.active.len())
    }

    /// Dismantles a settled transfer: the entry leaves the outbox and the
    /// send order. `None` when it was already dismantled.
    pub(super) fn retire(&mut self, k: TransferId) -> Option<Retired<V>> {
        let e = self.outbox.remove(&k)?;
        self.active.retain(|&a| a != k);
        Some(Retired { to: e.to, chunks: e.chunks })
    }

    /// Drives the staged transfers from the send order alone: times out
    /// unacked chunks (exponential backoff; once retries are exhausted,
    /// give up and multicast the revert), then puts chunks on the migration
    /// link, one at a time. A timed-out chunk is resent through the same
    /// link. The link clock is this pump's own: no chunk ever occupies an
    /// execution worker.
    ///
    /// Each destination has a *window* of `migration_max_inflight_per_link`
    /// chunks awaiting their ack (0 = unbounded). The timeout pass counts
    /// what each window holds, and a chunk toward a full one waits for an
    /// ack, a timeout or a give-up to free a place: a resend takes the
    /// place its timed-out chunk left. While acks return before the link
    /// frees, the window never binds.
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
        let cap = cfg.migration_max_inflight_per_link;
        let backoff_cap = cfg.migration_chunk_timeout.saturating_mul(64);
        let due = |slot: &mut Option<SimTime>, at: SimTime| {
            *slot = Some(slot.map_or(at, |cur| cur.min(at)));
        };

        self.window.clear();
        let mut gave_up: Vec<(TransferId, PartitionId)> = Vec::new();
        for &k in &self.active {
            let Some(e) = self.outbox.get_mut(&k) else { continue };
            if e.in_flight.is_none() {
                continue;
            }
            if now < e.deadline {
                due(&mut out.next_due, e.deadline);
                if cap > 0 {
                    *window_of(&mut self.window, e.to) += 1;
                }
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
            self.active.retain(|&a| a != k);
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
                    if cap > 0 && *window_of(&mut self.window, e.to) >= cap {
                        continue; // the destination's window is full
                    }
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
                    if cap > 0 {
                        *window_of(&mut self.window, e.to) += 1;
                    }
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
    fn config(window: u32, max_retries: u32, linked: bool) -> ServerConfig {
        ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 1,
            migration_var_bytes: 1_000,
            migration_link_bytes_per_sec: if linked { 1_000_000 } else { 0 },
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: max_retries,
            migration_max_inflight_per_link: window,
            ..ServerConfig::default()
        }
    }

    /// A sender for partition 0 with `keys` staged toward [`DEST`] in
    /// order, `chunks` chunks each.
    fn staged(cfg: &ServerConfig, keys: &[u64], chunks: u64) -> Sender<u8> {
        let mut s = Sender::new(PartitionId(0));
        for &k in keys {
            let vars = (0..chunks).map(|i| (VarId(k * 10 + i), Some(0))).collect();
            s.stage(cfg, (LocKey(k), VERSION), DEST, vars);
        }
        s
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
            let mut s = staged(&cfg, &[0, 1, 2, 3, 4], 3);
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
        let mut s = staged(&cfg, &[0, 1], 2);
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
    fn an_ack_resets_the_retry_ladder() {
        let cfg = config(0, 5, false);
        let mut s = staged(&cfg, &[0], 2);
        let (pumped, _, _) = pump(&mut s, &cfg, at(0));
        assert_eq!(pumped.next_due, Some(at(200)));
        // The ack deadline passes: the chunk goes again, with the timeout doubled.
        let (pumped, sent, _) = pump(&mut s, &cfg, at(200));
        assert_eq!(sent, [(0, 0)]);
        assert_eq!(pumped, Pumped { next_due: Some(at(600)), chunks_sent: 1, chunk_retries: 1 });
        // Progress: the next chunk is a first send on the base timeout.
        s.on_ack(&cfg, (LocKey(0), VERSION), 0);
        let (pumped, sent, _) = pump(&mut s, &cfg, at(300));
        assert_eq!(sent, [(0, 1)]);
        assert_eq!(pumped, Pumped { next_due: Some(at(500)), chunks_sent: 1, chunk_retries: 0 });
    }

    /// One step of a [`Case`]'s script.
    enum Step {
        /// Pump at this many ms: the `(key, chunk)`s put on the link, in
        /// order, and the keys whose revert went out.
        Pump(u64, &'static [(u64, u32)], &'static [u64]),
        /// The destination acks `(key, chunk)`.
        Ack(u64, u32),
        /// The partition named pulls `key`: whether the sender honours it.
        Pull(u64, PartitionId, bool),
        /// Go on with a clone, as a recovering replica that installs this
        /// replica's state does.
        Fork,
        /// `key`'s move settles: whether it was still in the outbox. What
        /// comes back is its data, given up or not.
        Retire(u64, bool),
    }
    use Step::*;

    /// One-chunk keys staged toward [`DEST`] in order, a linked sender with
    /// this window and retry budget, and a script.
    struct Case {
        name: &'static str,
        window: u32,
        max_retries: u32,
        keys: &'static [u64],
        script: &'static [Step],
    }

    const CASES: &[Case] = &[
        Case {
            name: "an ack, not the Done, frees a place in the window",
            window: 1,
            max_retries: 5,
            keys: &[0, 1, 2],
            script: &[
                Pump(0, &[(0, 0)], &[]),
                Pump(1, &[], &[]),
                Ack(0, 0),
                Pump(1, &[(1, 0)], &[]),
                Pump(2, &[], &[]),
            ],
        },
        Case {
            name: "without acks, a resend takes its timed-out chunk's place",
            window: 2,
            max_retries: 5,
            keys: &[0, 1, 2],
            script: &[
                Pump(0, &[(0, 0)], &[]),
                Pump(1, &[(1, 0)], &[]),
                Pump(2, &[], &[]),
                Pump(100, &[], &[]),
                // Key 0's ack was due at 0 + wire + 200 ms.
                Pump(201, &[(0, 0)], &[]),
                Pump(202, &[(1, 0)], &[]),
                Pump(203, &[], &[]),
            ],
        },
        Case {
            name: "window 0 is unbounded",
            window: 0,
            max_retries: 5,
            keys: &[0, 1, 2],
            script: &[Pump(0, &[(0, 0)], &[]), Pump(1, &[(1, 0)], &[]), Pump(2, &[(2, 0)], &[])],
        },
        Case {
            name: "a pulled key goes first, and a clone carries the pull",
            window: 1,
            max_retries: 5,
            keys: &[0, 1, 2],
            script: &[
                Pull(2, DEST, true),
                // A repeat, another destination, an unknown key: no-ops.
                Pull(2, DEST, false),
                Pull(1, PartitionId(7), false),
                Pull(9, DEST, false),
                Fork,
                Pump(0, &[(2, 0)], &[]),
                Ack(2, 0),
                Pump(1, &[(0, 0)], &[]),
                // A settled move leaves the window and ignores a pull.
                Retire(0, true),
                Pull(0, DEST, false),
                Pump(2, &[(1, 0)], &[]),
                Retire(0, false),
            ],
        },
        Case {
            name: "giving up reverts, frees the place and keeps the data",
            window: 1,
            max_retries: 0,
            keys: &[0, 1],
            script: &[
                Pump(0, &[(0, 0)], &[]),
                Pump(201, &[(1, 0)], &[0]),
                Pull(0, DEST, false),
                Retire(0, true),
                Retire(0, false),
            ],
        },
    ];

    #[test]
    fn window_pull_and_give_up_cases() {
        for case in CASES {
            let cfg = config(case.window, case.max_retries, true);
            let mut s = staged(&cfg, case.keys, 1);
            for (n, step) in case.script.iter().enumerate() {
                match *step {
                    Pump(ms, sent, reverts) => {
                        let (_, got, got_reverts) = pump(&mut s, &cfg, at(ms));
                        assert_eq!(
                            (&got[..], &got_reverts[..]),
                            (sent, reverts),
                            "{}: {n}",
                            case.name
                        );
                    }
                    Ack(k, chunk) => s.on_ack(&cfg, (LocKey(k), VERSION), chunk),
                    Pull(k, to, honoured) => {
                        assert_eq!(s.on_pull(LocKey(k), to), honoured, "{}: {n}", case.name);
                    }
                    Fork => s = s.clone(),
                    Retire(k, present) => {
                        let retired = s.retire((LocKey(k), VERSION)).map(|r| (r.to, r.chunks));
                        let data = (DEST, vec![vec![(VarId(k * 10), Some(0))]]);
                        assert_eq!(retired, present.then_some(data), "{}: {n}", case.name);
                    }
                }
            }
        }
    }
}
