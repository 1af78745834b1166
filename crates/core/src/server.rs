//! The partition server state machine (paper Algorithm 3, plus the S-SMR
//! and DS-SMR baseline behaviours).
//!
//! A `ServerCore` is driven by two inputs — atomic multicast deliveries
//! ([`ServerCore::on_deliver`]) and direct messages
//! ([`ServerCore::on_direct`]) — and produces [`Effect`]s. Every replica of
//! a partition runs an identical core; effects that would duplicate
//! (replies, variable shipments) carry dedup keys and are dropped by
//! receivers.
//!
//! Commands execute strictly in delivery order: the head of the queue may
//! *wait* (for borrowed variables, for migrating keys, for a create/delete
//! rendezvous) but nothing overtakes it. Atomic multicast's pairwise
//! consistent delivery order across partitions makes this deadlock-free.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dynastar_amcast::MsgId;
use dynastar_runtime::dedup::{RotatingMap, RotatingSet};
use dynastar_runtime::{CounterId, HistogramId, Metrics, SeriesId, SimTime};

use crate::command::{
    AccessSets, Application, Command, CommandKind, LocKey, Mode, PartitionId, VarId,
};
use crate::hints::HintArena;
use crate::metric_names as mn;
use crate::migration::{MoveOutcome, PlanHistory, Settle, PLAN_HISTORY_PER_KEY};
use crate::payload::{DedupKey, Destination, Direct, Effect, OracleDest, Payload};
use crate::routing::shard_of;

/// Emits protocol-stall diagnostics to stderr when the
/// `DYNASTAR_TRACE_BLOCKED` environment variable is set.
fn trace_blocked(args: std::fmt::Arguments<'_>) {
    // Sampled once per process: this sits on executed-command paths, and
    // `env::var_os` is far too slow to re-check per call.
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    // detlint::allow(D003): opt-in diagnostic gate only — the flag toggles eprintln tracing and never feeds protocol or simulation state
    if *ON.get_or_init(|| std::env::var_os("DYNASTAR_TRACE_BLOCKED").is_some()) {
        eprintln!("{args}");
    }
}

/// Message-id origin space for partition-originated multicasts (hints);
/// clients use their node id as origin, which stays far below this.
pub const PARTITION_ORIGIN_BASE: u64 = 1_000_000_000;

/// The modelled parallel-execution engine of one replica: a P-SMR /
/// CBASE-style worker pool over the delivered command stream.
///
/// Commands still *apply* strictly in delivery order on every replica —
/// parallelism is purely a timing model deciding *when* the queue head is
/// admitted, so replicas stay bit-identical regardless of `workers` and an
/// inaccurate [`Application::classify`] can only skew modelled time, never
/// state. With `workers = 1` the schedule is exactly the classic serial
/// executor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Modelled parallel execution workers per replica. `1` reproduces
    /// the serial executor bit-for-bit (all golden hashes unchanged).
    pub workers: u32,
    /// Modelled CPU time per command execution. A worker is busy for this
    /// long after executing; queued commands wait for a free,
    /// non-conflicting slot. Zero disables the model entirely (commands
    /// execute instantaneously). This is what bounds a partition's
    /// throughput and produces saturation behaviour.
    pub service_time: dynastar_runtime::SimDuration,
    /// Sliding dependency-window capacity: how many admitted-but-
    /// unfinished commands are tracked for conflict decisions. When the
    /// window is full, admission stalls until the earliest in-flight
    /// command finishes (counted as `exec.window_stall`).
    pub window: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { workers: 1, service_time: dynastar_runtime::SimDuration::ZERO, window: 64 }
    }
}

impl ExecConfig {
    /// The classic serial executor with the given per-command cost.
    pub fn serial(service_time: dynastar_runtime::SimDuration) -> Self {
        ExecConfig { service_time, ..Self::default() }
    }

    /// A pool of `workers` with the given per-command cost.
    pub fn pool(workers: u32, service_time: dynastar_runtime::SimDuration) -> Self {
        ExecConfig { workers: workers.max(1), service_time, ..Self::default() }
    }

    /// Whether admission depends on commands' read/write sets: only a pool
    /// of several workers with a non-zero cost keeps a dependency window.
    fn tracks_conflicts(&self) -> bool {
        self.workers > 1 && !self.service_time.is_zero()
    }
}

/// Tunables for a partition server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executed commands per workload-hint batch sent to the oracle.
    pub hint_batch: u32,
    /// Whether to collect hints at all (DynaStar mode only).
    pub collect_hints: bool,
    /// Whether this replica records server-side metrics. Every replica of
    /// a partition executes every command, so exactly one replica (index
    /// 0) records, or counters would multiply by the replication factor.
    pub record_metrics: bool,
    /// The modelled execution engine: worker count, per-command cost and
    /// dependency-window size (see [`ExecConfig`]).
    pub exec: ExecConfig,
    /// Staged migration: plan-triggered key moves ship their variables in
    /// rate-limited, individually acknowledged chunks instead of one
    /// unbounded shipment. Off by default (classic single-shipment path).
    pub staged_migration: bool,
    /// Variables per staged chunk (≥ 1).
    pub migration_chunk_vars: u32,
    /// Modelled serialized size of one variable, bytes (bandwidth model).
    pub migration_var_bytes: u64,
    /// Modelled migration link bandwidth in bytes/second. `0` means
    /// unconstrained: transfers are free and charge no CPU/NIC time.
    pub migration_link_bytes_per_sec: u64,
    /// Base per-chunk ack timeout; also the starting backoff.
    pub migration_chunk_timeout: dynastar_runtime::SimDuration,
    /// Chunk retransmissions before the source gives up and reverts the
    /// key's move (falling back to the previous plan).
    pub migration_max_retries: u32,
    /// Cluster-wide migration scheduling: max staged key transfers
    /// concurrently in flight per source→destination link. Plans list
    /// moves hottest-first (oracle orders by workload-graph weight), so
    /// the cap ships the traffic-carrying keys immediately and defers the
    /// tail, releasing deferred moves as transfers settle. `0` disables
    /// the cap (every move ships at once, PR 6 behaviour).
    pub migration_max_inflight_per_link: u32,
    /// Number of oracle shard groups in the deployment. Hint batches are
    /// split by slice ownership ([`crate::routing::shard_of`]) and each
    /// slice multicast to its owner shard; `1` emits the single classic
    /// hint multicast.
    pub oracle_shards: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            hint_batch: 64,
            collect_hints: true,
            record_metrics: true,
            exec: ExecConfig::default(),
            staged_migration: false,
            migration_chunk_vars: 8,
            migration_var_bytes: 512,
            migration_link_bytes_per_sec: 0,
            migration_chunk_timeout: dynastar_runtime::SimDuration::from_millis(200),
            migration_max_retries: 5,
            migration_max_inflight_per_link: 0,
            oracle_shards: 1,
        }
    }
}

/// A command queued for in-order execution.
#[derive(Debug)]
struct Queued<A: Application> {
    cmd: Command<A>,
    attempt: u32,
    body: QueuedBody,
}

#[derive(Debug)]
enum QueuedBody {
    Access {
        expected: Vec<(VarId, PartitionId)>,
        target: PartitionId,
        keep: bool,
        /// Multi-partition non-target: we shipped our vars and await return.
        sent_vars: bool,
        /// S-SMR: we broadcast our exchange share.
        sent_exchange: bool,
        /// The command's read/write sets, classified once at delivery and
        /// normalized for [`AccessSets::conflicts_with`]; `None` when the
        /// execution engine tracks no conflicts
        /// ([`ExecConfig::tracks_conflicts`]).
        sets: Option<AccessSets>,
    },
    Create {
        key: LocKey,
        signalled: bool,
    },
    Delete {
        key: LocKey,
        signalled: bool,
    },
    Plan {
        version: u64,
        moves: Vec<(LocKey, PartitionId, PartitionId)>,
    },
    /// Source-side rollback of a gave-up staged migration. Queued (not
    /// applied at delivery) because re-owning the key must serialize with
    /// command execution: a command delivered before the revert must see
    /// the same ownership state on every replica regardless of local pump
    /// timing.
    MigrationRevert {
        version: u64,
        key: LocKey,
    },
}

// Manual Clone impls (here and below): deriving would bound `A: Clone`,
// but only `A`'s associated types need to be cloneable.
impl<A: Application> Clone for Queued<A> {
    fn clone(&self) -> Self {
        Queued { cmd: self.cmd.clone(), attempt: self.attempt, body: self.body.clone() }
    }
}

impl Clone for QueuedBody {
    fn clone(&self) -> Self {
        match self {
            QueuedBody::Access { expected, target, keep, sent_vars, sent_exchange, sets } => {
                QueuedBody::Access {
                    expected: expected.clone(),
                    target: *target,
                    keep: *keep,
                    sent_vars: *sent_vars,
                    sent_exchange: *sent_exchange,
                    sets: sets.clone(),
                }
            }
            QueuedBody::Create { key, signalled } => {
                QueuedBody::Create { key: *key, signalled: *signalled }
            }
            QueuedBody::Delete { key, signalled } => {
                QueuedBody::Delete { key: *key, signalled: *signalled }
            }
            QueuedBody::Plan { version, moves } => {
                QueuedBody::Plan { version: *version, moves: moves.clone() }
            }
            QueuedBody::MigrationRevert { version, key } => {
                QueuedBody::MigrationRevert { version: *version, key: *key }
            }
        }
    }
}

/// Variables shipped between partitions: `(var, value-or-absent)` pairs.
type VarShipment<A> = Vec<(VarId, Option<<A as Application>::Value>)>;
/// Shipments collected per source partition.
type ShipmentsBySource<A> = BTreeMap<PartitionId, VarShipment<A>>;

/// Origin space for migration-control multicasts ([`Payload::MigrationDone`]
/// / [`Payload::MigrationRevert`]): every replica at either end of a
/// migration derives the same id from `(key, version)`, so the multicast
/// layer delivers one copy. Disjoint from client origins (node ids),
/// partition hint origins ([`PARTITION_ORIGIN_BASE`]) and the oracle's
/// plan origin (`u64::MAX - 1`).
const MIGRATION_ORIGIN_BASE: u64 = 1 << 62;
/// Derivation tag of [`Payload::MigrationDone`] ids.
const TAG_MIGRATION_DONE: u32 = 400;
/// Derivation tag of [`Payload::MigrationRevert`] ids.
const TAG_MIGRATION_REVERT: u32 = 401;

/// The shared id of a migration-control multicast for `(key, version)`.
fn migration_mid(key: LocKey, version: u64, tag: u32) -> MsgId {
    MsgId { origin: MIGRATION_ORIGIN_BASE | key.0, seq: version as u32, tag }
}

/// Clamps a busy clock forward to `now` and charges `cost` on top — the
/// single accounting primitive shared by command execution and
/// migration-transfer time, so the two models can't drift apart.
fn advance_busy(clock: &mut SimTime, now: SimTime, cost: dynastar_runtime::SimDuration) {
    if *clock < now {
        *clock = now;
    }
    *clock += cost;
}

/// The earliest-free worker; ties break to the lowest index so assignment
/// is a pure function of the clock vector (replica-deterministic).
fn earliest_free_worker(clocks: &[SimTime]) -> usize {
    let mut best = 0;
    for (i, &c) in clocks.iter().enumerate().skip(1) {
        if c < clocks[best] {
            best = i;
        }
    }
    best
}

/// One admitted-but-unfinished command in the dependency window.
#[derive(Debug, Clone)]
struct WindowEntry {
    /// Its declared read/write sets (from [`Application::classify`]).
    sets: AccessSets,
    /// When its assigned worker finishes it.
    finish: SimTime,
}

/// Marks the queue head as stalled by the scheduler so the stall is
/// counted once per `(cmd, attempt)` at admission, not once per pump.
#[derive(Debug, Clone, Copy)]
struct PendingStall {
    id: MsgId,
    attempt: u32,
    /// Gate was raised by a read/write conflict with an in-flight command.
    conflicted: bool,
    /// Gate was raised because the dependency window was at capacity.
    window_full: bool,
}

/// Modelled parallel-execution state: per-worker busy clocks plus the
/// sliding dependency window of admitted, unfinished commands.
///
/// With one worker the window stays empty and `clocks[0]` behaves exactly
/// like the old single `busy_until` field.
#[derive(Debug, Clone)]
struct ExecScheduler {
    /// One modelled busy-until clock per worker.
    clocks: Vec<SimTime>,
    /// Admitted commands whose modelled execution has not finished.
    window: VecDeque<WindowEntry>,
    /// Stall attribution for the current queue head, if any.
    pending: Option<PendingStall>,
}

impl ExecScheduler {
    fn new(workers: u32) -> Self {
        ExecScheduler {
            clocks: vec![SimTime::ZERO; workers.max(1) as usize],
            window: VecDeque::new(),
            pending: None,
        }
    }

    /// Drops window entries whose modelled execution has finished.
    fn prune(&mut self, now: SimTime) {
        self.window.retain(|e| e.finish > now);
    }

    /// Records (or merges) stall attribution for the queue head.
    fn note_stall(&mut self, stall: PendingStall) {
        match &mut self.pending {
            Some(p) if p.id == stall.id && p.attempt == stall.attempt => {
                p.conflicted |= stall.conflicted;
                p.window_full |= stall.window_full;
            }
            slot => *slot = Some(stall),
        }
    }
}

/// Modelled wire time of shipping `vars` variables over the migration link.
fn transfer_time(cfg: &ServerConfig, vars: usize) -> dynastar_runtime::SimDuration {
    if cfg.migration_link_bytes_per_sec == 0 {
        return dynastar_runtime::SimDuration::ZERO;
    }
    let bytes = (vars as u64).saturating_mul(cfg.migration_var_bytes);
    dynastar_runtime::SimDuration::from_micros(
        bytes.saturating_mul(1_000_000) / cfg.migration_link_bytes_per_sec,
    )
}

/// Names one staged transfer at its source: `(key, plan version)`. Key
/// first, so the transfers of one key are neighbours in the outbox and a
/// pull finds the newest without walking the rest.
type TransferId = (LocKey, u64);

#[cfg(test)]
thread_local! {
    /// `(partition, replica index, key)` of every staged chunk a core on
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

/// Source-side state of one staged key migration ([`TransferId`] keyed).
/// All chunk data is retained until the migration settles, so a revert can
/// reinstall the key and a retransmit can resend any chunk.
struct OutboxEntry<A: Application> {
    /// Destination partition.
    to: PartitionId,
    /// The key's variables, pre-split into chunks.
    chunks: Vec<VarShipment<A>>,
    /// Per-chunk ack state.
    acked: Vec<bool>,
    /// Index of the chunk currently awaiting its ack, if any.
    in_flight: Option<usize>,
    /// Consecutive timeouts of the in-flight chunk.
    attempts: u32,
    /// Current (exponentially growing, capped) retransmit backoff.
    backoff: dynastar_runtime::SimDuration,
    /// When the in-flight chunk times out.
    deadline: SimTime,
    /// Retries exhausted; a revert has been requested.
    gave_up: bool,
    /// Waiting for a per-link in-flight slot; the entry is outside
    /// [`ServerCore::active`] until [`ServerCore::release_link_slot`] or a
    /// pull promotes it.
    deferred: bool,
    /// The destination asked for this key ([`Direct::PlanVarsPull`]): the
    /// entry sits in the demand-first prefix of [`ServerCore::active`].
    pulled: bool,
}

impl<A: Application> Clone for OutboxEntry<A> {
    fn clone(&self) -> Self {
        OutboxEntry {
            to: self.to,
            chunks: self.chunks.clone(),
            acked: self.acked.clone(),
            in_flight: self.in_flight,
            attempts: self.attempts,
            backoff: self.backoff,
            deadline: self.deadline,
            gave_up: self.gave_up,
            deferred: self.deferred,
            pulled: self.pulled,
        }
    }
}

impl<A: Application> std::fmt::Debug for OutboxEntry<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutboxEntry")
            .field("to", &self.to)
            .field("chunks", &self.chunks.len())
            .field("acked", &self.acked.iter().filter(|&&a| a).count())
            .field("in_flight", &self.in_flight)
            .field("attempts", &self.attempts)
            .field("gave_up", &self.gave_up)
            .field("deferred", &self.deferred)
            .field("pulled", &self.pulled)
            .finish()
    }
}

/// Destination-side buffer of one staged key migration. Chunks accumulate
/// here (idempotently — retransmits overwrite with identical data) and are
/// installed only once the matching [`Payload::MigrationDone`] has been
/// delivered in total order.
struct StagedKey<A: Application> {
    /// The old owner.
    from: PartitionId,
    /// Total chunk count, learned from the first chunk to arrive (a
    /// `MigrationDone` can be delivered before any chunk reaches this
    /// particular replica).
    total: Option<u32>,
    /// Received chunks by index.
    chunks: BTreeMap<u32, VarShipment<A>>,
    /// The `MigrationDone` for this migration has been delivered.
    done: bool,
    /// This replica already submitted the `MigrationDone` multicast.
    done_requested: bool,
}

impl<A: Application> Clone for StagedKey<A> {
    fn clone(&self) -> Self {
        StagedKey {
            from: self.from,
            total: self.total,
            chunks: self.chunks.clone(),
            done: self.done,
            done_requested: self.done_requested,
        }
    }
}

impl<A: Application> std::fmt::Debug for StagedKey<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedKey")
            .field("from", &self.from)
            .field("total", &self.total)
            .field("chunks", &self.chunks.len())
            .field("done", &self.done)
            .finish()
    }
}

/// Destination-side marker of a key whose primary shipment is in flight.
#[derive(Debug, Clone, Copy)]
struct Awaited {
    /// The old owner (per the plan that moved the key here).
    from: PartitionId,
    /// This replica already sent the old owner a [`Direct::PlanVarsPull`]
    /// for the key. Lives and dies with the marker, so a re-planned key
    /// can be pulled again.
    pulled: bool,
}

/// Moves `v`'s value out of an executed variable map (absent, `None` and
/// already-taken all read as `None`).
fn take_value<V>(vars: &mut BTreeMap<VarId, Option<V>>, v: VarId) -> Option<V> {
    vars.get_mut(&v).and_then(Option::take)
}

/// The values physically present at one replica.
///
/// Slots hold an `Option` so that an execution can *move* a value out and
/// back without unlinking its tree node: [`Store::take`] leaves the emptied
/// slot in place and the [`Store::put`] that follows refills it (or, when
/// the command deleted the variable, removes it). An emptied slot never
/// outlives [`ServerCore::run_op`], and every reader treats one as absent.
#[derive(Debug, Clone)]
struct Store<V>(BTreeMap<VarId, Option<V>>);

impl<V> Store<V> {
    fn get(&self, v: VarId) -> Option<&V> {
        self.0.get(&v).and_then(Option::as_ref)
    }

    /// Moves `v`'s value out, keeping its slot for the `put` that follows.
    fn take(&mut self, v: VarId) -> Option<V> {
        take_value(&mut self.0, v)
    }

    /// Stores `val` (in place when `v` has a slot); `None` deletes `v`.
    fn put(&mut self, v: VarId, val: Option<V>) {
        match val {
            Some(val) => {
                self.0.insert(v, Some(val));
            }
            None => {
                self.0.remove(&v);
            }
        }
    }

    /// Moves out every variable `selected` picks, in id order.
    fn extract(&mut self, mut selected: impl FnMut(VarId) -> bool) -> Vec<(VarId, V)> {
        self.0
            .extract_if(.., |&v, _| selected(v))
            .filter_map(|(v, val)| val.map(|val| (v, val)))
            .collect()
    }
}

/// The partition server protocol core. See the [module docs](self).
pub struct ServerCore<A: Application> {
    partition: PartitionId,
    mode: Mode,
    config: ServerConfig,
    /// Locality keys this partition owns.
    owned: BTreeSet<LocKey>,
    /// Values physically present.
    store: Store<A::Value>,
    queue: VecDeque<Queued<A>>,
    /// Receiver-side dedup of direct messages (bounded memory).
    seen: RotatingSet<DedupKey>,
    /// Borrowed variables received per (cmd, attempt), per source partition.
    vars_in: BTreeMap<(MsgId, u32), ShipmentsBySource<A>>,
    /// Returns received for (cmd, attempt).
    returns_in: BTreeMap<(MsgId, u32), VarShipment<A>>,
    /// Commands known aborted (stale routing at some partition).
    aborted: RotatingSet<(MsgId, u32)>,
    /// S-SMR exchange shares received.
    ssmr_in: BTreeMap<(MsgId, u32), ShipmentsBySource<A>>,
    /// Create/delete rendezvous signals received from the oracle.
    oracle_signals: dynastar_runtime::FastHashSet<MsgId>,
    /// Current plan version.
    plan_version: u64,
    /// Keys owned whose primary shipment has not arrived.
    awaiting_keys: BTreeMap<LocKey, Awaited>,
    /// Individual variables still in flight (lent out during migration).
    awaiting_vars: BTreeSet<VarId>,
    /// Where keys this partition used to own have gone.
    outmigrated: BTreeMap<LocKey, PartitionId>,
    /// Variables currently lent to a target: var → (cmd, attempt).
    lent: BTreeMap<VarId, (MsgId, u32)>,
    /// Reply cache: executed commands and their replies (exactly-once
    /// within the rotation window).
    executed: RotatingMap<MsgId, A::Reply>,
    /// Key sets of the commands executed since the last hint batch.
    hints: HintArena,
    hint_seq: u32,
    /// Key-migration shipments that arrived before the plan they belong
    /// to was processed here: `(version, key, from, vars, pending, primary)`.
    #[allow(clippy::type_complexity)]
    planvars_buffer:
        Vec<(u64, LocKey, PartitionId, Vec<(VarId, Option<A::Value>)>, Vec<VarId>, bool)>,
    /// Staged migrations this partition is the source of.
    outbox: BTreeMap<TransferId, OutboxEntry<A>>,
    /// Staged migrations this partition is the destination of.
    staging: BTreeMap<(u64, LocKey), StagedKey<A>>,
    /// Bounded per-key log of plan decisions: `MigrationDone` /
    /// `MigrationRevert` settle by replaying the key's history (a revert of
    /// move v composes with a chained move at v+1), stray chunks for
    /// decided migrations are acked and dropped, and duplicates or
    /// below-floor stragglers are ignored (default-deny).
    history: PlanHistory,
    /// Per-destination count of staged transfers holding an in-flight slot
    /// (only maintained when `migration_max_inflight_per_link > 0`).
    link_active: BTreeMap<PartitionId, u32>,
    /// Deferred outbox entries per destination, in plan (hottest-first)
    /// order, promoted as slots free up.
    link_waiting: BTreeMap<PartitionId, VecDeque<TransferId>>,
    /// The send order of the migration pump: every outbox entry that holds
    /// a link slot (not deferred, not given up). Pulled entries form a
    /// prefix in pull order — the demand FIFO — followed by the rest in
    /// plan/promotion (hottest-first) order; the pump looks at nothing else.
    active: Vec<TransferId>,
    /// When the modelled migration link (one per source replica) has
    /// finished putting the last chunk on the wire. Chunks serialize on
    /// this clock, not on the execution workers'.
    link_free: SimTime,
    /// This replica's index in its partition's group and the group's size:
    /// which stripe of the send order is its own (see
    /// [`ServerCore::pump_migration`]). Like `config.record_metrics` it is
    /// the replica's own: the host re-stamps both on a clone it installs.
    replica: (u32, u32),
    /// The modelled execution engine: per-worker busy clocks and the
    /// sliding dependency window (see [`ExecConfig`]).
    exec: ExecScheduler,
    /// Pre-rendered per-partition metric names (hot path).
    name_executed: String,
    name_multi: String,
    name_objects: String,
    /// Pre-rendered per-worker busy-histogram names.
    name_worker_busy: Vec<String>,
    /// Lazily interned per-worker histogram ids, tagged with the
    /// resolving registry's id (same contract as `mids`).
    worker_busy_ids: Option<(u64, Vec<HistogramId>)>,
    /// Interned metric handles, resolved lazily against the simulation's
    /// registry on first record and tagged with that registry's id so a
    /// core handed a different `Metrics` instance re-interns instead of
    /// indexing into the wrong registry (see [`ServerCore::mids`]).
    mids: Option<(u64, ServerMetricIds)>,
}

/// Dense metric ids for everything the core records per executed command —
/// index-based lookups on the delivery path instead of string-keyed ones.
#[derive(Debug, Clone, Copy)]
struct ServerMetricIds {
    objects_exchanged: CounterId,
    cmd_retry: CounterId,
    cmd_multi: CounterId,
    cmd_single: CounterId,
    migration_chunks_sent: CounterId,
    migration_chunk_retries: CounterId,
    migration_reverts: CounterId,
    migration_keys_staged: CounterId,
    migration_deferred: CounterId,
    migration_released: CounterId,
    exec_parallel: CounterId,
    exec_serialized: CounterId,
    exec_window_stall: CounterId,
    s_cmd_multi: SeriesId,
    s_cmd_single: SeriesId,
    s_executed: SeriesId,
    s_multi: SeriesId,
    s_objects: SeriesId,
}

/// Cloning a core snapshots its full protocol state — every replica of a
/// partition holds identical state at the same log position, so a peer's
/// clone is exactly what a recovering replica must install.
impl<A: Application> Clone for ServerCore<A> {
    fn clone(&self) -> Self {
        ServerCore {
            partition: self.partition,
            mode: self.mode,
            config: self.config.clone(),
            owned: self.owned.clone(),
            store: self.store.clone(),
            queue: self.queue.clone(),
            seen: self.seen.clone(),
            vars_in: self.vars_in.clone(),
            returns_in: self.returns_in.clone(),
            aborted: self.aborted.clone(),
            ssmr_in: self.ssmr_in.clone(),
            oracle_signals: self.oracle_signals.clone(),
            plan_version: self.plan_version,
            awaiting_keys: self.awaiting_keys.clone(),
            awaiting_vars: self.awaiting_vars.clone(),
            outmigrated: self.outmigrated.clone(),
            lent: self.lent.clone(),
            executed: self.executed.clone(),
            hints: self.hints.clone(),
            hint_seq: self.hint_seq,
            planvars_buffer: self.planvars_buffer.clone(),
            outbox: self.outbox.clone(),
            staging: self.staging.clone(),
            history: self.history.clone(),
            link_active: self.link_active.clone(),
            link_waiting: self.link_waiting.clone(),
            active: self.active.clone(),
            link_free: self.link_free,
            replica: self.replica,
            exec: self.exec.clone(),
            name_executed: self.name_executed.clone(),
            name_multi: self.name_multi.clone(),
            name_objects: self.name_objects.clone(),
            name_worker_busy: self.name_worker_busy.clone(),
            worker_busy_ids: self.worker_busy_ids.clone(),
            // Ids carry their registry tag, so a clone installed on
            // another replica of the same simulation can keep them.
            mids: self.mids,
        }
    }
}

impl<A: Application> ServerCore<A> {
    /// Creates the core of one replica of `partition`.
    pub fn new(partition: PartitionId, mode: Mode, config: ServerConfig) -> Self {
        let workers = config.exec.workers.max(1);
        ServerCore {
            partition,
            mode,
            config,
            owned: BTreeSet::new(),
            store: Store(BTreeMap::new()),
            queue: VecDeque::new(),
            seen: RotatingSet::new(1 << 16),
            vars_in: BTreeMap::new(),
            returns_in: BTreeMap::new(),
            aborted: RotatingSet::new(1 << 14),
            ssmr_in: BTreeMap::new(),
            oracle_signals: Default::default(),
            plan_version: 0,
            awaiting_keys: BTreeMap::new(),
            awaiting_vars: BTreeSet::new(),
            outmigrated: BTreeMap::new(),
            lent: BTreeMap::new(),
            executed: RotatingMap::new(1 << 15),
            hints: HintArena::default(),
            hint_seq: 0,
            planvars_buffer: Vec::new(),
            outbox: BTreeMap::new(),
            staging: BTreeMap::new(),
            history: PlanHistory::new(PLAN_HISTORY_PER_KEY),
            link_active: BTreeMap::new(),
            link_waiting: BTreeMap::new(),
            active: Vec::new(),
            link_free: SimTime::ZERO,
            replica: (0, 1),
            exec: ExecScheduler::new(workers),
            name_executed: mn::partition_executed(partition.0),
            name_multi: mn::partition_multi(partition.0),
            name_objects: mn::partition_objects(partition.0),
            name_worker_busy: (0..workers).map(mn::exec_worker_busy).collect(),
            worker_busy_ids: None,
            mids: None,
        }
    }

    /// The interned metric ids, resolving them on first use (and again
    /// whenever a different registry shows up).
    fn mids(&mut self, metrics: &mut Metrics) -> ServerMetricIds {
        if let Some((reg, ids)) = self.mids {
            if reg == metrics.registry_id() {
                return ids;
            }
        }
        let ids = ServerMetricIds {
            objects_exchanged: metrics.counter_id(mn::OBJECTS_EXCHANGED),
            cmd_retry: metrics.counter_id(mn::CMD_RETRY),
            cmd_multi: metrics.counter_id(mn::CMD_MULTI),
            cmd_single: metrics.counter_id(mn::CMD_SINGLE),
            migration_chunks_sent: metrics.counter_id(mn::MIGRATION_CHUNKS_SENT),
            migration_chunk_retries: metrics.counter_id(mn::MIGRATION_CHUNK_RETRIES),
            migration_reverts: metrics.counter_id(mn::MIGRATION_REVERTS),
            migration_keys_staged: metrics.counter_id(mn::MIGRATION_KEYS_STAGED),
            migration_deferred: metrics.counter_id(mn::MIGRATION_DEFERRED),
            migration_released: metrics.counter_id(mn::MIGRATION_RELEASED),
            exec_parallel: metrics.counter_id(mn::EXEC_PARALLEL),
            exec_serialized: metrics.counter_id(mn::EXEC_SERIALIZED),
            exec_window_stall: metrics.counter_id(mn::EXEC_WINDOW_STALL),
            s_cmd_multi: metrics.series_id(mn::CMD_MULTI),
            s_cmd_single: metrics.series_id(mn::CMD_SINGLE),
            s_executed: metrics.series_id(&self.name_executed),
            s_multi: metrics.series_id(&self.name_multi),
            s_objects: metrics.series_id(&self.name_objects),
        };
        self.mids = Some((metrics.registry_id(), ids));
        ids
    }

    /// The interned per-worker busy-histogram id for worker `w`, resolved
    /// lazily against the current registry (same contract as [`Self::mids`]).
    fn worker_hist(&mut self, metrics: &mut Metrics, w: usize) -> HistogramId {
        if let Some((reg, ids)) = &self.worker_busy_ids {
            if *reg == metrics.registry_id() {
                return ids[w];
            }
        }
        let ids: Vec<HistogramId> =
            self.name_worker_busy.iter().map(|n| metrics.histogram_id(n)).collect();
        let id = ids[w];
        self.worker_busy_ids = Some((metrics.registry_id(), ids));
        id
    }

    /// Re-enables or disables metric recording — used after installing a
    /// peer's state clone, which carries the *donor's* recording flag.
    pub fn set_record_metrics(&mut self, on: bool) {
        self.config.record_metrics = on;
    }

    /// Tells this core it is replica `r` of the `n` that replicate its
    /// partition, so the `n` migration links split a plan's transfers
    /// between them instead of each pushing all of it. The default,
    /// `(0, 1)`, is a lone sender. Like the recording flag this is the
    /// replica's own, not protocol state: re-stamp it after installing a
    /// peer's clone.
    pub fn set_replica(&mut self, r: u32, n: u32) {
        debug_assert!(r < n.max(1), "replica {r} of {n}");
        self.replica = (r, n.max(1));
    }

    /// Seeds initial state before the simulation starts (avoids issuing
    /// millions of create commands for benchmark datasets).
    pub fn preload(
        &mut self,
        keys: impl IntoIterator<Item = LocKey>,
        vars: impl IntoIterator<Item = (VarId, A::Value)>,
    ) {
        self.owned.extend(keys);
        self.store.0.extend(vars.into_iter().map(|(v, val)| (v, Some(val))));
    }

    /// Diagnostic: the keys this partition owns, as `(key, partition)`
    /// pairs in key order. The union across partitions is the cluster's
    /// server-side location map; convergence tests compare it (and every
    /// replica's copy) against the oracle's map.
    pub fn location_view(&self) -> Vec<(u64, u32)> {
        self.owned.iter().map(|k| (k.0, self.partition.0)).collect()
    }

    /// This partition's id.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Number of locality keys currently owned.
    pub fn owned_keys(&self) -> usize {
        self.owned.len()
    }

    /// Whether `key` is currently owned here.
    pub fn owns(&self, key: LocKey) -> bool {
        self.owned.contains(&key)
    }

    /// Read access to a stored variable (test/debug aid).
    pub fn value_of(&self, var: VarId) -> Option<&A::Value> {
        self.store.get(var)
    }

    /// Depth of the execution queue (test/debug aid).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Handles an atomic multicast delivery addressed to this partition.
    ///
    /// The payload is read in place — every replica of every destination
    /// group is handed the same one — and only what the core keeps (a
    /// queued command, a plan's moves) is copied out of it.
    pub fn on_deliver(
        &mut self,
        payload: impl Borrow<Payload<A>>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        match payload.borrow() {
            Payload::Access { cmd, attempt, expected, target, keep } => {
                let (cmd, attempt, expected) = (cmd.clone(), *attempt, expected.clone());
                let (target, keep) = (*target, *keep);
                self.pull_awaited(&expected, metrics, &mut eff);
                let sets = self.config.exec.tracks_conflicts().then(|| {
                    match &cmd.kind {
                        CommandKind::Access { op, vars } => A::classify(op, vars),
                        _ => AccessSets::write_all(&cmd.vars()),
                    }
                    .normalized()
                });
                self.queue.push_back(Queued {
                    cmd,
                    attempt,
                    body: QueuedBody::Access {
                        expected,
                        target,
                        keep,
                        sent_vars: false,
                        sent_exchange: false,
                        sets,
                    },
                });
            }
            Payload::CreateKey { cmd, dest } => {
                if *dest == self.partition {
                    let key = match &cmd.kind {
                        CommandKind::CreateKey { key, .. } => *key,
                        // detlint::allow(P003): constructor pairs CreateKey payloads with CreateKey commands; a mismatch is a local logic bug, not wire input
                        _ => unreachable!("CreateKey payload without CreateKey command"),
                    };
                    self.queue.push_back(Queued {
                        cmd: cmd.clone(),
                        attempt: 0,
                        body: QueuedBody::Create { key, signalled: false },
                    });
                }
            }
            Payload::DeleteKey { cmd, dest } => {
                if *dest == self.partition {
                    let key = match &cmd.kind {
                        CommandKind::DeleteKey { key } => *key,
                        // detlint::allow(P003): constructor pairs DeleteKey payloads with DeleteKey commands; a mismatch is a local logic bug, not wire input
                        _ => unreachable!("DeleteKey payload without DeleteKey command"),
                    };
                    self.queue.push_back(Queued {
                        cmd: cmd.clone(),
                        attempt: 0,
                        body: QueuedBody::Delete { key, signalled: false },
                    });
                }
            }
            Payload::Plan { version, moves } => {
                let version = *version;
                // Record every move at *delivery* (the plan itself applies
                // later, through the queue): a Done/Revert delivered after
                // this plan but before its pump must already see the chain
                // when it replays the key's history.
                for &(key, from, to) in moves {
                    self.history.record_move(key, version, from, to);
                }
                // Dummy command for queue uniformity.
                self.queue.push_back(Queued {
                    cmd: Command {
                        id: MsgId::new(u64::MAX, 0),
                        client: dynastar_runtime::NodeId::EXTERNAL,
                        kind: CommandKind::DeleteKey { key: LocKey(u64::MAX) },
                    },
                    attempt: 0,
                    body: QueuedBody::Plan { version, moves: moves.clone() },
                });
            }
            &Payload::MigrationDone { version, key, from, to } => {
                // Safe to apply at delivery (not queued): at the
                // destination this only converts a head-of-queue *wait*
                // into an execution with the staged values, which are
                // identical on every replica; ownership itself changed at
                // the (queued) plan. Settling replays the key's plan
                // history: a duplicate or below-floor straggler is Stale
                // and a no-op (the staging entry it would create could
                // never resolve).
                let settle = self.history.settle(key, version, from, to, MoveOutcome::Done);
                if from == self.partition {
                    self.retire_transfer((key, version), metrics);
                }
                if matches!(settle, Settle::Applied { .. }) && to == self.partition {
                    let e = self.staging.entry((version, key)).or_insert_with(|| StagedKey {
                        from,
                        total: None,
                        chunks: BTreeMap::new(),
                        done: false,
                        done_requested: true,
                    });
                    e.done = true;
                    self.try_install_staged(version, key, metrics, &mut eff);
                }
            }
            &Payload::MigrationRevert { version, key, from, to } => {
                // Settle-by-replay: the revert annuls move v, and the
                // replayed `owner` is wherever the surviving history puts
                // the key — `from` in the simple case, a chained move's
                // destination otherwise. Duplicates and below-floor
                // stragglers are Stale no-ops (a late revert can never
                // flip ownership again, however long it straggles).
                if let Settle::Applied { owner } =
                    self.history.settle(key, version, from, to, MoveOutcome::Reverted)
                {
                    if to == self.partition {
                        // Destination side applies at delivery: during
                        // staging every command touching the key *waits*,
                        // so un-owning here deterministically turns those
                        // waits (and all later-delivered commands) into
                        // client retries on every replica. With a chained
                        // move back into this partition the replayed owner
                        // is us — keep ownership, the data holder ships to
                        // us via its own revert pump.
                        self.staging.remove(&(version, key));
                        if owner != self.partition && self.owned.contains(&key) {
                            self.awaiting_keys.remove(&key);
                            self.owned.remove(&key);
                            self.outmigrated.insert(key, owner);
                        }
                    }
                    if from == self.partition {
                        // Source side re-owns (or re-ships) through the
                        // queue: a command delivered before the revert must
                        // resolve against the pre-revert ownership on every
                        // replica, no matter how far its local pump has
                        // progressed.
                        self.queue.push_back(Queued {
                            cmd: Command {
                                id: MsgId::new(u64::MAX, 0),
                                client: dynastar_runtime::NodeId::EXTERNAL,
                                kind: CommandKind::DeleteKey { key: LocKey(u64::MAX) },
                            },
                            attempt: 0,
                            body: QueuedBody::MigrationRevert { version, key },
                        });
                    }
                }
            }
            Payload::Exec { .. }
            | Payload::Hint { .. }
            | Payload::Recompute { .. }
            | Payload::GraphDigest { .. }
            | Payload::DigestFlush { .. } => {
                // Oracle-only payloads; partitions are never destinations.
            }
        }
        self.pump(now, metrics, &mut eff);
        self.finalize_wakes(now, metrics, &mut eff);
        eff
    }

    /// Called by the hosting actor when the modelled CPU frees up.
    pub fn on_wake(&mut self, now: SimTime, metrics: &mut Metrics) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        self.pump(now, metrics, &mut eff);
        self.finalize_wakes(now, metrics, &mut eff);
        eff
    }

    /// Handles a direct message, owned or shared (`&Direct`). Every
    /// replica of the sending group sends a copy, so most arrivals are
    /// repeats: a shared message is copied only once it has passed the
    /// dedup check, a repeat costs the set lookup.
    pub fn on_direct<'a>(
        &mut self,
        msg: impl Into<Cow<'a, Direct<A>>>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> Vec<Effect<A>> {
        let msg = msg.into();
        let mut eff = Vec::new();
        if let Some(key) = msg.dedup_key() {
            if !self.seen.insert(key) {
                return eff;
            }
        }
        match msg.into_owned() {
            Direct::VarsForCmd { cmd, attempt, from, vars } => {
                if self.aborted.contains(&(cmd, attempt)) || self.executed.contains_key(&cmd) {
                    // Command will not execute here (aborted or duplicate):
                    // bounce the variables straight back unchanged.
                    eff.push(Effect::Send {
                        to: Destination::Partition(from),
                        msg: Direct::VarsReturn { cmd, attempt, vars },
                    });
                } else {
                    self.vars_in.entry((cmd, attempt)).or_default().insert(from, vars);
                }
            }
            Direct::VarsReturn { cmd, attempt, vars } => {
                self.returns_in.insert((cmd, attempt), vars);
            }
            Direct::Abort { cmd, attempt, .. } => {
                self.aborted.insert((cmd, attempt));
                // Bounce anything already received for it.
                if let Some(received) = self.vars_in.remove(&(cmd, attempt)) {
                    for (from, vars) in received {
                        eff.push(Effect::Send {
                            to: Destination::Partition(from),
                            msg: Direct::VarsReturn { cmd, attempt, vars },
                        });
                    }
                }
            }
            Direct::Signal { cmd, from_partition } => {
                if from_partition.is_none() {
                    self.oracle_signals.insert(cmd);
                }
            }
            Direct::PlanVars { version, key, from, vars, pending, primary } => {
                self.on_plan_vars(version, key, from, vars, pending, primary, metrics, &mut eff);
            }
            Direct::PlanVarsChunk { version, key, from, chunk, total, vars } => {
                // Ack unconditionally — even duplicates and post-settle
                // strays — so a lost ack can never wedge the sender.
                eff.push(Effect::Send {
                    to: Destination::Partition(from),
                    msg: Direct::PlanVarsAck { version, key, chunk },
                });
                let k = (version, key);
                // Only buffer chunks for migrations not yet decided, or
                // with a staging entry still present (Done delivered
                // before all chunks arrived). Once decided *and*
                // dismantled the chunk is ack-only: `decided` answers true
                // for below-floor stragglers too (default-deny), so a
                // stray can never resurrect a staging entry — the
                // unconditional ack above is what terminates the sender's
                // retransmit loop. So is a copy of a chunk already held: a
                // retransmit, or a peer replica of the source sent it too.
                let dup = match self.staging.get(&k) {
                    Some(e) => e.chunks.contains_key(&chunk),
                    None => self.history.decided(version, key),
                };
                if dup {
                    if self.config.record_metrics {
                        metrics.incr_counter(mn::MIGRATION_CHUNK_DUPS, 1);
                    }
                } else {
                    let e = self.staging.entry(k).or_insert_with(|| StagedKey {
                        from,
                        total: None,
                        chunks: BTreeMap::new(),
                        done: false,
                        done_requested: false,
                    });
                    if e.total.is_none() {
                        e.total = Some(total);
                    }
                    e.chunks.insert(chunk, vars);
                    if e.chunks.len() as u32 >= total && !e.done_requested {
                        e.done_requested = true;
                        let to = self.partition;
                        eff.push(Effect::Multicast {
                            mid: migration_mid(key, version, TAG_MIGRATION_DONE),
                            partitions: vec![from, to],
                            // Every shard's map replica settles the move.
                            oracle: OracleDest::All,
                            payload: Payload::MigrationDone { version, key, from, to },
                        });
                    }
                    // A late chunk may complete a migration whose Done was
                    // already delivered.
                    self.try_install_staged(version, key, metrics, &mut eff);
                }
            }
            Direct::PlanVarsAck { version, key, chunk } => {
                if let Some(e) = self.outbox.get_mut(&(key, version)) {
                    let i = chunk as usize;
                    if i < e.acked.len() && !e.acked[i] {
                        // Progress (even a late ack of a chunk already
                        // queued for resend) restarts the retry ladder.
                        e.acked[i] = true;
                        e.attempts = 0;
                        e.backoff = self.config.migration_chunk_timeout;
                        if e.in_flight == Some(i) {
                            e.in_flight = None;
                        }
                    }
                }
            }
            Direct::PlanVarsPull { key, to } => self.on_pull(key, to, metrics),
            Direct::SsmrExchange { cmd, attempt, from, vars } => {
                self.ssmr_in.entry((cmd, attempt)).or_default().insert(from, vars);
            }
            Direct::Prophecy { .. }
            | Direct::Reply { .. }
            | Direct::Retry { .. }
            | Direct::Ack { .. } => {
                // Client-addressed; a server never receives these.
            }
        }
        self.pump(now, metrics, &mut eff);
        self.finalize_wakes(now, metrics, &mut eff);
        eff
    }

    /// Installs (or forwards) a staged migration's variables once both the
    /// `MigrationDone` has been delivered and every chunk has arrived at
    /// this replica. Any replica may reach this point later than its peers
    /// (chunks travel outside the total order); the installed values are
    /// identical regardless.
    fn try_install_staged(
        &mut self,
        version: u64,
        key: LocKey,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        let ready = match self.staging.get(&(version, key)) {
            Some(e) => e.done && e.total.is_some_and(|t| e.chunks.len() as u32 >= t),
            None => return,
        };
        if !ready {
            return;
        }
        if !self.owned.contains(&key) && !self.outmigrated.contains_key(&key) {
            // The Done multicast outran the (queued) plan that makes this
            // replica the owner. Keep the staged entry; pump_plan re-runs
            // the install once that plan has been applied. Dropping the
            // vars here would leave the key owned-but-empty forever.
            return;
        }
        let e = match self.staging.remove(&(version, key)) {
            Some(e) => e,
            None => return,
        };
        let vars: Vec<(VarId, Option<A::Value>)> = e.chunks.into_values().flatten().collect();
        let count = vars.len() as u64;
        if self.owned.contains(&key) {
            for (v, val) in vars {
                self.store.put(v, val);
                self.awaiting_vars.remove(&v);
            }
            self.awaiting_keys.remove(&key);
            if self.config.record_metrics {
                let ids = self.mids(metrics);
                metrics.incr(ids.objects_exchanged, count);
            }
        } else if let Some(&next) = self.outmigrated.get(&key) {
            // The key was moved away again before staging completed:
            // forward the state as a classic primary shipment along the
            // migration chain (the next owner awaits exactly this).
            eff.push(Effect::Send {
                to: Destination::Partition(next),
                msg: Direct::PlanVars {
                    version,
                    key,
                    from: e.from,
                    vars,
                    pending: Vec::new(),
                    primary: true,
                },
            });
        }
    }

    /// Applies a (primary or supplement) key migration shipment.
    ///
    /// Shipments can arrive while this partition has not yet processed the
    /// plan that makes it the owner (buffer until then), or after a later
    /// plan moved the key away again (forward along the migration chain).
    /// The carried plan version disambiguates the two, which keeps the
    /// forwarding chain loop-free: forwards only follow plans this replica
    /// has already applied.
    #[allow(clippy::too_many_arguments)]
    fn on_plan_vars(
        &mut self,
        version: u64,
        key: LocKey,
        from: PartitionId,
        vars: Vec<(VarId, Option<A::Value>)>,
        pending: Vec<VarId>,
        primary: bool,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        if !self.owned.contains(&key) && !self.awaiting_keys.contains_key(&key) {
            if version > self.plan_version {
                // We have not applied the plan that concerns this shipment
                // yet; hold it until pump_plan catches up.
                self.planvars_buffer.push((version, key, from, vars, pending, primary));
            } else if let Some(&next) = self.outmigrated.get(&key) {
                // The key has already moved on; forward toward its current
                // home. `from` is preserved so the receiver's dedup key
                // still identifies the original shipment.
                eff.push(Effect::Send {
                    to: Destination::Partition(next),
                    msg: Direct::PlanVars { version, key, from, vars, pending, primary },
                });
            }
            return;
        }
        let received = vars.len() as u64;
        for (v, val) in vars {
            self.store.put(v, val);
            self.awaiting_vars.remove(&v);
        }
        if primary {
            self.awaiting_keys.remove(&key);
            self.awaiting_vars.extend(pending);
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.incr(ids.objects_exchanged, received);
        }
    }

    // ------------------------------------------------------------------
    // Queue processing
    // ------------------------------------------------------------------

    /// Processes the queue head for as long as it can make progress. The
    /// head is popped while being worked on and pushed back if it must
    /// wait, keeping borrows of `self` free for the handlers.
    ///
    /// Commands still *apply* strictly in delivery order: the scheduler
    /// only decides when the head is admitted — once a worker is free and
    /// every conflicting in-flight predecessor has finished. With
    /// `workers = 1` the gate collapses to the single busy clock, i.e. the
    /// pre-parallel serial executor.
    fn pump(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        loop {
            self.exec.prune(now);
            let gate = match self.queue.front() {
                None => return,
                Some(head) => {
                    let (gate, stall) = self.gate_for(head, now);
                    if let Some(stall) = stall {
                        self.exec.note_stall(stall);
                    }
                    gate
                }
            };
            if now < gate {
                // The modelled engine cannot admit the head yet: ask the
                // hosting actor to wake us when it can.
                eff.push(Effect::Wake { at: gate });
                return;
            }
            let Some(mut entry) = self.queue.pop_front() else { return };
            let done = match &entry.body {
                QueuedBody::Access { .. } => self.pump_access(&mut entry, now, metrics, eff),
                QueuedBody::Create { .. } => self.pump_create(&mut entry, now, metrics, eff),
                QueuedBody::Delete { .. } => self.pump_delete(&mut entry, now, metrics, eff),
                QueuedBody::Plan { .. } => self.pump_plan(&mut entry, now, metrics, eff),
                QueuedBody::MigrationRevert { .. } => {
                    self.pump_revert(&mut entry, now, metrics, eff)
                }
            };
            if !done {
                self.queue.push_front(entry);
                return;
            }
        }
    }

    /// When the modelled engine can admit the queue head, and — if that is
    /// in the future because of a conflict or a full window — stall
    /// attribution for the metrics.
    ///
    /// An `Access` head must find a free worker and wait out every
    /// in-flight command its read/write sets conflict with (CBASE rule:
    /// conflict iff one's writes intersect the other's reads∪writes).
    /// Everything else (creates, deletes, plans, reverts) is a full
    /// barrier — it waits for all workers to drain.
    fn gate_for(&self, head: &Queued<A>, now: SimTime) -> (SimTime, Option<PendingStall>) {
        let cfg = &self.config.exec;
        let clocks = &self.exec.clocks;
        if cfg.workers <= 1 {
            // Serial fast path: one clock (also charged by single-shipment
            // migration transfers), no classification, no window — exactly
            // the pre-parallel `busy_until` gate.
            return (clocks[0], None);
        }
        let QueuedBody::Access { sets, .. } = &head.body else {
            // Full barrier. Worker clocks only ever grow past window
            // finish times, so max(clocks) covers every in-flight command.
            let drained = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
            return (drained, None);
        };
        let Some(sets) = sets else {
            // Execution itself is free (the window stays empty); only
            // single-shipment migration charges occupy the clocks.
            let free = clocks.iter().copied().min().unwrap_or(SimTime::ZERO);
            return (free, None);
        };
        // A worker must be free…
        let mut gate = clocks.iter().copied().min().unwrap_or(SimTime::ZERO);
        // …every conflicting predecessor must have finished…
        let mut conflicted = false;
        for e in &self.exec.window {
            if sets.conflicts_with(&e.sets) {
                conflicted = true;
                gate = gate.max(e.finish);
            }
        }
        // …and the window must have room to track the admission.
        let mut window_full = false;
        if self.exec.window.len() >= cfg.window.max(1) as usize {
            window_full = true;
            if let Some(first_out) = self.exec.window.iter().map(|e| e.finish).min() {
                gate = gate.max(first_out);
            }
        }
        let stall = (now < gate && (conflicted || window_full)).then_some(PendingStall {
            id: head.cmd.id,
            attempt: head.attempt,
            conflicted,
            window_full,
        });
        (gate, stall)
    }

    /// Whether every variable this partition must provide is resolvable:
    /// `Err(())` = stale routing, `Ok(false)` = wait, `Ok(true)` = ready.
    fn my_vars_ready(&self, expected: &[(VarId, PartitionId)]) -> Result<bool, ()> {
        for &(v, p) in expected {
            if p != self.partition {
                continue;
            }
            let key = A::locality(v);
            if !self.owned.contains(&key) {
                return Err(()); // routing was stale
            }
            if self.awaiting_keys.contains_key(&key) || self.awaiting_vars.contains(&v) {
                return Ok(false); // migration in flight
            }
        }
        Ok(true)
    }

    /// Collects this partition's (authoritative) values for its expected
    /// variables.
    fn my_var_values(&self, expected: &[(VarId, PartitionId)]) -> Vec<(VarId, Option<A::Value>)> {
        expected
            .iter()
            .filter(|&&(_, p)| p == self.partition)
            .map(|&(v, _)| (v, self.store.get(v).cloned()))
            .collect()
    }

    fn pump_access(
        &mut self,
        entry: &mut Queued<A>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        let (cmd_id, attempt, client) = (entry.cmd.id, entry.attempt, entry.cmd.client);
        // The entry is off the queue while it is worked on, so the command
        // and its routing are borrowed from it, never copied.
        let cmd = &entry.cmd;
        let QueuedBody::Access { expected, target, keep, sent_vars, sent_exchange, sets } =
            &mut entry.body
        else {
            // detlint::allow(P003): pump_queue dispatches to this pump by matching QueuedBody::Access; other variants cannot reach here
            unreachable!("pump_access on non-access queue entry")
        };
        let CommandKind::Access { op, .. } = &cmd.kind else {
            // An `Access` payload always carries an `Access` command; on the
            // delivery path a violated invariant must not take the replica
            // down (P00x), so drop the command instead.
            debug_assert!(false, "access payload without access command");
            return true;
        };
        let expected: &[(VarId, PartitionId)] = expected;
        let target = *target;
        let keep = *keep;
        let multi = expected.windows(2).any(|w| w[0].1 != w[1].1);

        // Duplicate dispatch of an already-executed command: answer from
        // the reply cache, bounce any borrowed vars.
        if let Some(reply) = self.executed.get(&cmd_id) {
            if target == self.partition {
                eff.push(Effect::Send {
                    to: Destination::Client(client),
                    msg: Direct::Reply { cmd: cmd_id, attempt, reply: reply.clone() },
                });
                if let Some(received) = self.vars_in.remove(&(cmd_id, attempt)) {
                    for (from, vars) in received {
                        eff.push(Effect::Send {
                            to: Destination::Partition(from),
                            msg: Direct::VarsReturn { cmd: cmd_id, attempt, vars },
                        });
                    }
                }
            }
            return true;
        }

        // Known aborted: nothing to do (vars already bounced on arrival).
        if self.aborted.contains(&(cmd_id, attempt)) {
            if let Some(received) = self.vars_in.remove(&(cmd_id, attempt)) {
                for (from, vars) in received {
                    eff.push(Effect::Send {
                        to: Destination::Partition(from),
                        msg: Direct::VarsReturn { cmd: cmd_id, attempt, vars },
                    });
                }
            }
            return true;
        }

        // Staleness check for the variables expected of us.
        match self.my_vars_ready(expected) {
            Err(()) => {
                trace_blocked(format_args!(
                    "[{}] t={} cmd={} att={} stale routing: expected={:?}",
                    self.partition, now, cmd_id, attempt, expected,
                ));
                // Tell the client to retry via the oracle; tell the target
                // to abandon the command.
                eff.push(Effect::Send {
                    to: Destination::Client(client),
                    msg: Direct::Retry { cmd: cmd_id, attempt },
                });
                if target != self.partition {
                    eff.push(Effect::Send {
                        to: Destination::Partition(target),
                        msg: Direct::Abort { cmd: cmd_id, attempt, missing_at: self.partition },
                    });
                } else if let Some(received) = self.vars_in.remove(&(cmd_id, attempt)) {
                    // We are the target: lenders that already shipped their
                    // variables block until they come back — bounce them.
                    for (from, vars) in received {
                        eff.push(Effect::Send {
                            to: Destination::Partition(from),
                            msg: Direct::VarsReturn { cmd: cmd_id, attempt, vars },
                        });
                    }
                }
                self.aborted.insert((cmd_id, attempt));
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(ids.cmd_retry, 1);
                }
                return true;
            }
            Ok(false) => {
                trace_blocked(format_args!(
                    "[{}] t={} cmd={} att={} waits for in-flight migration: keys={:?} vars={:?}",
                    self.partition, now, cmd_id, attempt, self.awaiting_keys, self.awaiting_vars
                ));
                return false; // wait for in-flight migration
            }
            Ok(true) => {}
        }

        if !multi {
            // Single-partition fast path (Algorithm 3 Task 1a).
            let reply = self.run_op(op, expected, &mut BTreeMap::new());
            self.finish_execution(cmd, attempt, sets.take(), reply, false, now, metrics, eff);
            return true;
        }
        let mut dests: Vec<PartitionId> = expected.iter().map(|&(_, p)| p).collect();
        dests.sort_unstable();
        dests.dedup();

        if self.mode == Mode::SSmr {
            // S-SMR: exchange shares, then everyone executes.
            if !*sent_exchange {
                *sent_exchange = true;
                let mine = self.my_var_values(expected);
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(
                        ids.objects_exchanged,
                        mine.iter().filter(|(_, v)| v.is_some()).count() as u64,
                    );
                }
                for &p in dests.iter().filter(|&&p| p != self.partition) {
                    eff.push(Effect::Send {
                        to: Destination::Partition(p),
                        msg: Direct::SsmrExchange {
                            cmd: cmd_id,
                            attempt,
                            from: self.partition,
                            vars: mine.clone(),
                        },
                    });
                }
            }
            let have = self.ssmr_in.get(&(cmd_id, attempt)).map(|m| m.len()).unwrap_or(0);
            if have + 1 < dests.len() {
                return false; // waiting for other partitions' shares
            }
            // Assemble the full variable map and execute everywhere; only
            // our own variables are written back.
            let shares = self.ssmr_in.remove(&(cmd_id, attempt)).unwrap_or_default();
            let mut vars: BTreeMap<VarId, Option<A::Value>> =
                shares.into_values().flatten().collect();
            let reply = self.run_op(op, expected, &mut vars);
            if self.config.record_metrics {
                let ids = self.mids(metrics);
                metrics.record_at(ids.s_multi, now, 1.0);
            }
            if self.partition == dests[0] {
                // The lowest-id partition is the designated replier.
                self.finish_execution(cmd, attempt, sets.take(), reply, true, now, metrics, eff);
            } else {
                // Record execution without replying (dedup for retries).
                self.admit_execution(cmd_id, attempt, sets.take(), now, metrics);
                self.executed.insert(cmd_id, reply);
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.record_at(ids.s_executed, now, 1.0);
                }
            }
            return true;
        }

        // DynaStar / DS-SMR path.
        if target == self.partition {
            // Target: wait until every other involved partition shipped.
            let have = self.vars_in.get(&(cmd_id, attempt)).map(|m| m.len()).unwrap_or(0);
            if have + 1 < dests.len() {
                trace_blocked(format_args!(
                    "[{}] t={} target cmd={} att={} waits for vars: {have}/{} received",
                    self.partition,
                    now,
                    cmd_id,
                    attempt,
                    dests.len() - 1
                ));
                return false;
            }
            let shipments = self.vars_in.remove(&(cmd_id, attempt)).unwrap_or_default();
            let mut borrowed: BTreeMap<VarId, Option<A::Value>> = BTreeMap::new();
            let mut sources: BTreeMap<VarId, PartitionId> = BTreeMap::new();
            for (from, vars) in shipments {
                for (v, val) in vars {
                    sources.insert(v, from);
                    borrowed.insert(v, val);
                }
            }
            let reply = self.run_op(op, expected, &mut borrowed);
            self.settle_borrowed(cmd_id, attempt, borrowed, sources, keep, now, metrics, eff);
            self.finish_execution(cmd, attempt, sets.take(), reply, true, now, metrics, eff);
            true
        } else {
            // Non-target: ship our variables, then (DynaStar) await return.
            if !*sent_vars {
                *sent_vars = true;
                let mine = self.my_var_values(expected);
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    let shipped = mine.iter().filter(|(_, v)| v.is_some()).count();
                    metrics.incr(ids.objects_exchanged, shipped as u64);
                    metrics.record_at(ids.s_objects, now, shipped as f64);
                    metrics.record_at(ids.s_multi, now, 1.0);
                }
                for (v, _) in &mine {
                    self.lent.insert(*v, (cmd_id, attempt));
                }
                // Values leave this partition while borrowed.
                for &(v, _) in &mine {
                    self.store.put(v, None);
                }
                eff.push(Effect::Send {
                    to: Destination::Partition(target),
                    msg: Direct::VarsForCmd {
                        cmd: cmd_id,
                        attempt,
                        from: self.partition,
                        vars: mine,
                    },
                });
                if keep {
                    // DS-SMR: ownership transfers; nothing comes back.
                    let my_keys: Vec<LocKey> = expected
                        .iter()
                        .filter(|&&(_, p)| p == self.partition)
                        .map(|&(v, _)| A::locality(v))
                        .collect();
                    for key in my_keys {
                        if self.owned.remove(&key) {
                            self.outmigrated.insert(key, target);
                        }
                    }
                    // Lent entries are moot: clear them.
                    self.lent.retain(|_, &mut (c, a)| !(c == cmd_id && a == attempt));
                    return true;
                }
            }
            // DynaStar: block until the variables come home (line 17).
            let Some(returned) = self.returns_in.remove(&(cmd_id, attempt)) else {
                trace_blocked(format_args!(
                    "[{}] t={} lender cmd={} att={} waits for return from {}",
                    self.partition, now, cmd_id, attempt, target
                ));
                return false;
            };
            for (v, val) in returned {
                self.lent.remove(&v);
                self.apply_returned_var(v, val, eff);
            }
            true
        }
    }

    /// Stores or forwards one returned variable, depending on whether its
    /// key still lives here.
    fn apply_returned_var(&mut self, v: VarId, val: Option<A::Value>, eff: &mut Vec<Effect<A>>) {
        let key = A::locality(v);
        if self.owned.contains(&key) {
            self.store.put(v, val);
        } else if let Some(&next) = self.outmigrated.get(&key) {
            // The key migrated while the variable was lent: forward it as a
            // supplement so the new owner can clear its pending marker.
            eff.push(Effect::Send {
                to: Destination::Partition(next),
                msg: Direct::PlanVars {
                    version: self.plan_version,
                    key,
                    from: self.partition,
                    vars: vec![(v, val)],
                    pending: Vec::new(),
                    primary: false,
                },
            });
        }
    }

    /// Gather → execute → write back, shared by every execution path.
    ///
    /// This partition's share of `expected` is *moved* out of the store
    /// into `vars` (next to whatever borrowed values the caller put there),
    /// `op` runs over the map, and the local share is moved back — declared
    /// variables only: `None` (or a removed entry) deletes the variable, an
    /// entry the application added on its own is ignored. No value is
    /// cloned, so an `Arc`-backed value reaches the application uniquely
    /// owned and is updated in place. Borrowed entries stay in `vars` for
    /// the caller to return or absorb.
    fn run_op(
        &mut self,
        op: &A::Op,
        expected: &[(VarId, PartitionId)],
        vars: &mut BTreeMap<VarId, Option<A::Value>>,
    ) -> A::Reply {
        // Distinct (a command may declare a variable twice — the second
        // take would find the slot empty) and in store order.
        let mut mine: Vec<VarId> =
            expected.iter().filter(|&&(_, p)| p == self.partition).map(|&(v, _)| v).collect();
        mine.sort_unstable();
        mine.dedup();
        for &v in &mine {
            vars.insert(v, self.store.take(v));
        }
        let reply = A::execute(op, vars);
        for &v in &mine {
            self.store.put(v, take_value(vars, v));
        }
        reply
    }

    /// After a multi-partition execution at the target: the borrowed
    /// variables go home (DynaStar) or are absorbed with their keys
    /// (DS-SMR `keep`), moved out of the executed map either way.
    #[allow(clippy::too_many_arguments)]
    fn settle_borrowed(
        &mut self,
        cmd: MsgId,
        attempt: u32,
        mut borrowed: BTreeMap<VarId, Option<A::Value>>,
        sources: BTreeMap<VarId, PartitionId>,
        keep: bool,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        if keep {
            for &v in sources.keys() {
                self.owned.insert(A::locality(v));
                self.store.put(v, take_value(&mut borrowed, v));
            }
            return;
        }
        let mut by_source: ShipmentsBySource<A> = BTreeMap::new();
        for (&v, &from) in &sources {
            by_source.entry(from).or_default().push((v, take_value(&mut borrowed, v)));
        }
        let mut returned_objects = 0u64;
        for (from, vars) in by_source {
            returned_objects += vars.iter().filter(|(_, v)| v.is_some()).count() as u64;
            eff.push(Effect::Send {
                to: Destination::Partition(from),
                msg: Direct::VarsReturn { cmd, attempt, vars },
            });
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.incr(ids.objects_exchanged, returned_objects);
            metrics.record_at(ids.s_objects, now, returned_objects as f64);
        }
    }

    /// Accounts the modelled CPU cost of one execution: assigns the
    /// command to the earliest-free (lowest-index on ties) worker, charges
    /// the service time, and registers its read/write sets (`sets`, cached
    /// in the queue entry at delivery) in the dependency window so
    /// successors conflict-check against it.
    ///
    /// Only called once the [`Self::gate_for`] gate has passed, so the
    /// chosen worker's clock is at or before `now`.
    fn admit_execution(
        &mut self,
        id: MsgId,
        attempt: u32,
        sets: Option<AccessSets>,
        now: SimTime,
        metrics: &mut Metrics,
    ) {
        let cfg = self.config.exec;
        if cfg.service_time.is_zero() {
            return;
        }
        let Some(sets) = sets else {
            // Serial fast path: exactly the old single-busy_until model.
            advance_busy(&mut self.exec.clocks[0], now, cfg.service_time);
            return;
        };
        let w = earliest_free_worker(&self.exec.clocks);
        advance_busy(&mut self.exec.clocks[w], now, cfg.service_time);
        let finish = self.exec.clocks[w];
        let stall = self.exec.pending.take();
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            if !self.exec.window.is_empty() {
                metrics.incr(ids.exec_parallel, 1);
            }
            if let Some(s) = stall {
                if s.id == id && s.attempt == attempt {
                    if s.conflicted {
                        metrics.incr(ids.exec_serialized, 1);
                    }
                    if s.window_full {
                        metrics.incr(ids.exec_window_stall, 1);
                    }
                }
            }
            let h = self.worker_hist(metrics, w);
            metrics.observe(h, cfg.service_time);
        }
        self.exec.window.push_back(WindowEntry { sets, finish });
    }

    /// Reply, reply-cache, metrics and hint bookkeeping after execution.
    #[allow(clippy::too_many_arguments)]
    fn finish_execution(
        &mut self,
        cmd: &Command<A>,
        attempt: u32,
        sets: Option<AccessSets>,
        reply: A::Reply,
        multi: bool,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        self.admit_execution(cmd.id, attempt, sets, now, metrics);
        eff.push(Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Reply { cmd: cmd.id, attempt, reply: reply.clone() },
        });
        self.executed.insert(cmd.id, reply);
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.record_at(ids.s_executed, now, 1.0);
            if multi {
                metrics.incr(ids.cmd_multi, 1);
                metrics.record_at(ids.s_cmd_multi, now, 1.0);
                metrics.record_at(ids.s_multi, now, 1.0);
            } else {
                metrics.incr(ids.cmd_single, 1);
                metrics.record_at(ids.s_cmd_single, now, 1.0);
            }
        }
        if self.config.collect_hints && self.mode.optimizes() {
            self.record_hint(cmd, eff);
        }
    }

    /// Notes an executed command's key set for the workload graph and
    /// multicasts a hint batch when due (Algorithm 2 Task 4, partition
    /// side): one multicast per oracle shard that is owed a slice, in shard
    /// order, each consuming a hint sequence number. With one shard this is
    /// exactly the single classic hint multicast.
    fn record_hint(&mut self, cmd: &Command<A>, eff: &mut Vec<Effect<A>>) {
        if self.hints.record(cmd) < self.config.hint_batch as usize {
            return;
        }
        let origin = PARTITION_ORIGIN_BASE + self.partition.0 as u64;
        let seq = &mut self.hint_seq;
        self.hints.flush(self.config.oracle_shards, |shard, vertices, edges| {
            eff.push(Effect::Multicast {
                mid: MsgId::new(origin, *seq),
                partitions: Vec::new(),
                oracle: OracleDest::Shard(shard),
                payload: Payload::Hint { vertices, edges },
            });
            *seq += 1;
        });
    }

    fn pump_create(
        &mut self,
        entry: &mut Queued<A>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        let (cmd_id, client) = (entry.cmd.id, entry.cmd.client);
        let QueuedBody::Create { key, signalled } = &mut entry.body else {
            // detlint::allow(P003): pump_queue dispatches to this pump by matching QueuedBody::Create; other variants cannot reach here
            unreachable!("pump_create on non-create queue entry")
        };
        let key = *key;
        if !*signalled {
            *signalled = true;
            eff.push(Effect::Send {
                to: Destination::Oracle,
                msg: Direct::Signal { cmd: cmd_id, from_partition: Some(self.partition) },
            });
        }
        // Rendezvous: wait for the oracle's signal (Algorithm 3 Task 2).
        if !self.oracle_signals.contains(&cmd_id) {
            return false;
        }
        if let CommandKind::CreateKey { vars, .. } = &entry.cmd.kind {
            self.owned.insert(key);
            for (v, val) in vars {
                self.store.put(*v, Some(val.clone()));
            }
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.record_at(ids.s_executed, now, 1.0);
        }
        eff.push(Effect::Send {
            to: Destination::Client(client),
            msg: Direct::Ack { cmd: cmd_id },
        });
        true
    }

    fn pump_delete(
        &mut self,
        entry: &mut Queued<A>,
        _now: SimTime,
        _metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        let (cmd_id, client) = (entry.cmd.id, entry.cmd.client);
        let QueuedBody::Delete { key, signalled } = &mut entry.body else {
            // detlint::allow(P003): pump_queue dispatches to this pump by matching QueuedBody::Delete; other variants cannot reach here
            unreachable!("pump_delete on non-delete queue entry")
        };
        let key = *key;
        if self.awaiting_keys.contains_key(&key) {
            return false; // migration inbound; wait for the state first
        }
        if !self.owned.contains(&key) {
            // Stale: the key moved away after the oracle routed the delete.
            eff.push(Effect::Send {
                to: Destination::Client(client),
                msg: Direct::Retry { cmd: cmd_id, attempt: 0 },
            });
            return true;
        }
        if !*signalled {
            *signalled = true;
            eff.push(Effect::Send {
                to: Destination::Oracle,
                msg: Direct::Signal { cmd: cmd_id, from_partition: Some(self.partition) },
            });
        }
        if !self.oracle_signals.contains(&cmd_id) {
            return false;
        }
        self.owned.remove(&key);
        drop(self.store.extract(|v| A::locality(v) == key));
        eff.push(Effect::Send {
            to: Destination::Client(client),
            msg: Direct::Ack { cmd: cmd_id },
        });
        true
    }

    fn pump_plan(
        &mut self,
        entry: &mut Queued<A>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        let QueuedBody::Plan { version, moves } = &mut entry.body else {
            // detlint::allow(P003): pump_queue dispatches to this pump by matching QueuedBody::Plan; other variants cannot reach here
            unreachable!("pump_plan on non-plan queue entry")
        };
        // The plan applies in one go and its entry is dropped afterwards.
        let (version, moves) = (*version, std::mem::take(moves));
        self.plan_version = version;
        for (key, from, to) in moves {
            // Outbound: nominally `from == self.partition`, but a revert
            // that already pumped here can have re-owned a key whose next
            // move the oracle planned from the *reverted* destination
            // (`from` is stale). The actual holder must ship it — the
            // nominal source no longer owns the key and skips below, so
            // exactly one partition ships.
            let outbound =
                to != self.partition && (from == self.partition || self.owned.contains(&key));
            if outbound {
                // Chained migration: the key may still be in flight toward
                // us from an earlier plan. We then ship what we have as a
                // supplement and let the in-flight primary be forwarded
                // through us (see on_plan_vars) once it lands.
                let was_awaiting = self.awaiting_keys.remove(&key).is_some();
                if !self.owned.remove(&key) {
                    continue; // already gone (e.g. DS-SMR moved it earlier)
                }
                self.outmigrated.insert(key, to);
                let vars: Vec<(VarId, Option<A::Value>)> = self
                    .store
                    .extract(|v| A::locality(v) == key)
                    .into_iter()
                    .map(|(v, val)| (v, Some(val)))
                    .collect();
                // Stale in-flight markers move with the key.
                self.awaiting_vars.retain(|&v| A::locality(v) != key);
                let pending: Vec<VarId> =
                    self.lent.keys().copied().filter(|&v| A::locality(v) == key).collect();
                if self.config.record_metrics {
                    let ids = self.mids(metrics);
                    metrics.incr(ids.objects_exchanged, vars.len() as u64);
                    metrics.record_at(ids.s_objects, now, vars.len() as f64);
                }
                // Staged path: only for keys fully at rest here — owned
                // outright (not still awaiting an earlier migration) with
                // no variables lent out. Anything else keeps the classic
                // immediate shipment, so no supplement or returned loan
                // can ever land mid-staging.
                if self.config.staged_migration && !was_awaiting && pending.is_empty() {
                    let per = self.config.migration_chunk_vars.max(1) as usize;
                    let mut chunks: Vec<VarShipment<A>> =
                        vars.chunks(per).map(|c| c.to_vec()).collect();
                    if chunks.is_empty() {
                        // Keyless-data moves still stage one empty chunk so
                        // the destination reaches `total` and commits.
                        chunks.push(Vec::new());
                    }
                    let n = chunks.len();
                    // Per-link scheduling: moves arrive hottest-first (the
                    // oracle orders them by access weight), so when the
                    // link to `to` is at its in-flight cap this colder move
                    // parks in FIFO order and a freed slot promotes it.
                    let cap = self.config.migration_max_inflight_per_link;
                    let deferred =
                        cap > 0 && self.link_active.get(&to).copied().unwrap_or(0) >= cap;
                    if deferred {
                        self.link_waiting.entry(to).or_default().push_back((key, version));
                    } else {
                        self.active.push((key, version));
                        if cap > 0 {
                            *self.link_active.entry(to).or_insert(0) += 1;
                        }
                    }
                    self.outbox.insert(
                        (key, version),
                        OutboxEntry {
                            to,
                            chunks,
                            acked: vec![false; n],
                            in_flight: None,
                            attempts: 0,
                            backoff: self.config.migration_chunk_timeout,
                            deadline: SimTime::ZERO,
                            gave_up: false,
                            deferred,
                            pulled: false,
                        },
                    );
                    if self.config.record_metrics {
                        let ids = self.mids(metrics);
                        metrics.incr(ids.migration_keys_staged, 1);
                        if deferred {
                            metrics.incr(ids.migration_deferred, 1);
                        }
                    }
                    continue; // chunks ship from the migration pump
                }
                // Unthrottled path under a configured bandwidth model: the
                // whole transfer charges the link at once — this is the
                // stall baseline staged migration is measured against.
                if self.config.migration_link_bytes_per_sec > 0 {
                    let t = transfer_time(&self.config, vars.len());
                    let w = earliest_free_worker(&self.exec.clocks);
                    advance_busy(&mut self.exec.clocks[w], now, t);
                }
                if was_awaiting {
                    // Not authoritative yet: send only what we hold.
                    if !vars.is_empty() {
                        eff.push(Effect::Send {
                            to: Destination::Partition(to),
                            msg: Direct::PlanVars {
                                version,
                                key,
                                from: self.partition,
                                vars,
                                pending,
                                primary: false,
                            },
                        });
                    }
                } else {
                    eff.push(Effect::Send {
                        to: Destination::Partition(to),
                        msg: Direct::PlanVars {
                            version,
                            key,
                            from: self.partition,
                            vars,
                            pending,
                            primary: true,
                        },
                    });
                }
            } else if to == self.partition && from != self.partition {
                if self.history.reverted(version, key) {
                    // The move was annulled before this plan reached the
                    // queue head. Taking ownership would wedge the key
                    // (the source will never ship); if a later surviving
                    // move re-routes it here, that plan entry takes
                    // ownership when it pumps.
                    continue;
                }
                self.owned.insert(key);
                self.outmigrated.remove(&key);
                self.awaiting_keys.insert(key, Awaited { from, pulled: false });
            }
        }
        // Commands already queued behind this plan will block on the keys
        // it brings in: ask for those first, in queue order.
        let queue = std::mem::take(&mut self.queue);
        for q in &queue {
            if let QueuedBody::Access { expected, .. } = &q.body {
                self.pull_awaited(expected, metrics, eff);
            }
        }
        self.queue = queue;
        // Staged shipments whose Done outran this plan in the queue can
        // resolve now that the ownership it decides is in place.
        let mut staged_done: Vec<(u64, LocKey)> =
            self.staging.iter().filter(|(_, e)| e.done).map(|(&k, _)| k).collect();
        staged_done.sort_unstable();
        for (v, key) in staged_done {
            self.try_install_staged(v, key, metrics, eff);
        }
        // Re-process shipments that arrived before this plan.
        let ready: Vec<_> = {
            let (ready, later): (Vec<_>, Vec<_>) =
                self.planvars_buffer.drain(..).partition(|&(v, ..)| v <= version);
            self.planvars_buffer = later;
            ready
        };
        for (v, key, from, vars, pending, primary) in ready {
            self.on_plan_vars(v, key, from, vars, pending, primary, metrics, eff);
        }
        true
    }

    /// Queue-ordered source-side resolution of a gave-up staged migration.
    /// Replaying the key's plan history decides where it now belongs: with
    /// no surviving later move the key comes home (re-own + reinstall the
    /// retained chunk data); with a chained move past the reverted one the
    /// cluster has already agreed the key lives at the chain's end — this
    /// partition holds the only authoritative copy, so it ships the
    /// retained state there as the primary shipment the owner awaits.
    fn pump_revert(
        &mut self,
        entry: &mut Queued<A>,
        _now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> bool {
        let QueuedBody::MigrationRevert { version, key } = &entry.body else {
            // detlint::allow(P003): pump dispatches to this handler by matching QueuedBody::MigrationRevert; other variants cannot reach here
            unreachable!("pump_revert on non-revert queue entry")
        };
        let (version, key) = (*version, *key);
        let Some(e) = self.retire_transfer((key, version), metrics) else {
            return true; // already dismantled (e.g. by a racing Done)
        };
        let owner = self.history.resolved_owner_versioned(key);
        match owner {
            Some((owner, owner_version)) if owner != self.partition => {
                if self.outmigrated.get(&key) == Some(&e.to) {
                    self.outmigrated.insert(key, owner);
                }
                if !self.owned.contains(&key) {
                    let vars: Vec<(VarId, Option<A::Value>)> =
                        e.chunks.into_iter().flatten().collect();
                    // Carry the version of the move that made `owner` the
                    // owner, so its plan-version buffering resolves the
                    // shipment against the right plan.
                    eff.push(Effect::Send {
                        to: Destination::Partition(owner),
                        msg: Direct::PlanVars {
                            version: owner_version,
                            key,
                            from: self.partition,
                            vars,
                            pending: Vec::new(),
                            primary: true,
                        },
                    });
                }
            }
            _ => {
                // Replay says the key belongs here (owner is us, or no
                // non-reverted move survives): classic rollback.
                if self.outmigrated.get(&key) == Some(&e.to) && !self.owned.contains(&key) {
                    self.outmigrated.remove(&key);
                    self.owned.insert(key);
                    for chunk in e.chunks {
                        for (v, val) in chunk {
                            self.store.put(v, val);
                        }
                    }
                }
            }
        }
        if self.config.record_metrics {
            let ids = self.mids(metrics);
            metrics.incr(ids.migration_reverts, 1);
        }
        true
    }

    /// Takes transfer `k` (toward `to`) out of the send order, frees its
    /// in-flight slot on that link and promotes waiting deferred transfers
    /// (oldest = hottest first) into free slots, at the end of the send
    /// order. Without a per-link cap there are no slots to pass on.
    fn release_link_slot(&mut self, k: TransferId, to: PartitionId, metrics: &mut Metrics) {
        self.active.retain(|&a| a != k);
        let cap = self.config.migration_max_inflight_per_link;
        if cap == 0 {
            return;
        }
        if let Some(n) = self.link_active.get_mut(&to) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.link_active.remove(&to);
            }
        }
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
                    if self.config.record_metrics {
                        let ids = self.mids(metrics);
                        metrics.incr(ids.migration_released, 1);
                    }
                }
                // Stale waiter (dismantled or pulled meanwhile): keep popping.
                _ => {}
            }
        }
    }

    /// Dismantles a settled staged transfer: the entry leaves the outbox
    /// and, unless it never held a link slot or gave it up earlier, the
    /// send order.
    fn retire_transfer(&mut self, k: TransferId, metrics: &mut Metrics) -> Option<OutboxEntry<A>> {
        let e = self.outbox.remove(&k)?;
        if !e.deferred && !e.gave_up {
            self.release_link_slot(k, e.to, metrics);
        }
        Some(e)
    }

    /// Destination side of demand-first transfer: asks the old owner, once
    /// per key, to ship first every still-awaited key that a delivered
    /// command's routing expects here.
    fn pull_awaited(
        &mut self,
        expected: &[(VarId, PartitionId)],
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) {
        if !self.config.staged_migration || self.awaiting_keys.is_empty() {
            return;
        }
        let mut sent = 0;
        for &(v, p) in expected {
            if p != self.partition {
                continue;
            }
            let key = A::locality(v);
            match self.awaiting_keys.get_mut(&key) {
                Some(a) if !a.pulled => {
                    a.pulled = true;
                    sent += 1;
                    eff.push(Effect::Send {
                        to: Destination::Partition(a.from),
                        msg: Direct::PlanVarsPull { key, to: self.partition },
                    });
                }
                _ => {}
            }
        }
        // Once per key and plan: not worth an interned id, which every run
        // that never migrates would pay a registry entry for.
        if sent > 0 && self.config.record_metrics {
            metrics.incr_counter(mn::MIGRATION_PULLS, sent);
        }
    }

    /// Source side of demand-first transfer: the staged transfer of `key`
    /// toward `to` joins the end of the pulled prefix of the send order,
    /// taking a link slot even past the per-link cap. Only a priority
    /// hint: a repeat, or a pull for a key with no staged transfer here
    /// (classic shipment, settled, given up, chained elsewhere), changes
    /// nothing.
    fn on_pull(&mut self, key: LocKey, to: PartitionId, metrics: &mut Metrics) {
        // Newest plan first: an older entry for the key is a superseded move.
        let Some((&k, e)) = self
            .outbox
            .range_mut((key, 0)..=(key, u64::MAX))
            .rev()
            .find(|(_, e)| e.to == to && !e.pulled && !e.gave_up)
        else {
            return;
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
        if self.config.record_metrics {
            metrics.incr_counter(mn::MIGRATION_PULL_PROMOTIONS, 1);
        }
    }

    /// Length of the pulled prefix of the send order.
    fn pulled_len(&self) -> usize {
        let pulled = |k| self.outbox.get(k).is_some_and(|e| e.pulled);
        self.active.iter().position(|k| !pulled(k)).unwrap_or(self.active.len())
    }

    /// Drives the staged migrations this partition is the source of, from
    /// the send order alone: times out unacked chunks (exponential
    /// backoff, give-up and revert once retries are exhausted — which
    /// frees the link slot for a deferred transfer), then puts chunks on
    /// the migration link, one at a time. A timed-out chunk is resent
    /// through the same link. The link clock is this pump's own: no chunk
    /// ever occupies an execution worker.
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
    /// Returns the earliest future instant at which the pump needs to run
    /// again (always `> now`: past-due work was just handled).
    fn pump_migration(
        &mut self,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        let ids = if self.config.record_metrics { Some(self.mids(metrics)) } else { None };
        let me = self.partition;
        let backoff_cap = self.config.migration_chunk_timeout.saturating_mul(64);
        let mut next_due: Option<SimTime> = None;
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
                due(&mut next_due, e.deadline);
                continue;
            }
            // Ack deadline missed: queue the chunk for resend, or give up.
            e.in_flight = None;
            e.attempts += 1;
            if e.attempts > self.config.migration_max_retries {
                e.gave_up = true;
                gave_up.push((k, e.to));
            } else {
                e.backoff = e.backoff.saturating_mul(2).min(backoff_cap);
            }
        }
        for (k, to) in gave_up {
            self.release_link_slot(k, to, metrics);
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
                        due(&mut next_due, self.link_free);
                        break 'link;
                    }
                    #[cfg(test)]
                    CHUNK_SENDS.with_borrow_mut(|log| log.push((me, r, key)));
                    let transfer = transfer_time(&self.config, e.chunks[i].len());
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
                    if let Some(ids) = ids {
                        metrics.incr(ids.migration_chunks_sent, 1);
                        if e.attempts > 0 {
                            metrics.incr(ids.migration_chunk_retries, 1);
                        }
                    }
                    due(&mut next_due, e.deadline);
                }
            }
        }
        next_due
    }

    /// Runs the migration pump and collapses this batch's `Wake` requests
    /// into the single earliest one. The hosting actor keeps one timer
    /// slot for wake-ups, so a later `Wake` would supersede an earlier
    /// one — the merged minimum must always include the migration pump's
    /// next instant (an ack deadline, or the link freeing up with chunks
    /// still to send) or a retransmit or the rest of a plan could be lost. A batch with neither
    /// wakes nor migration work leaves any previously armed timer intact.
    fn finalize_wakes(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        let mut min_wake = self.pump_migration(now, metrics, eff);
        eff.retain(|e| match e {
            Effect::Wake { at } => {
                min_wake = Some(min_wake.map_or(*at, |cur| cur.min(*at)));
                false
            }
            _ => true,
        });
        if let Some(at) = min_wake {
            eff.push(Effect::Wake { at });
        }
    }
}

impl<A: Application> std::fmt::Debug for ServerCore<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("partition", &self.partition)
            .field("mode", &self.mode)
            .field("owned_keys", &self.owned.len())
            .field("stored_vars", &self.store.0.len())
            .field("queue", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandKind;
    use dynastar_runtime::{NodeId, SimDuration};

    struct App;
    impl Application for App {
        type Op = i64; // op >= 0: add to every declared var; op < 0: pure read
        type Value = i64;
        type Reply = Vec<(VarId, i64)>;
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0 / 10)
        }
        fn classify(op: &i64, vars: &[VarId]) -> AccessSets {
            if *op < 0 {
                AccessSets::read_only(vars)
            } else {
                AccessSets::write_all(vars)
            }
        }
        fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> Self::Reply {
            if *op < 0 {
                return vars.iter().map(|(&v, val)| (v, val.unwrap_or(0))).collect();
            }
            vars.iter_mut()
                .map(|(&v, val)| {
                    let next = val.unwrap_or(0) + op;
                    *val = Some(next);
                    (v, next)
                })
                .collect()
        }
    }

    fn server(p: u32, keys: &[u64], vars: &[(u64, i64)]) -> ServerCore<App> {
        let mut s = ServerCore::new(PartitionId(p), Mode::Dynastar, ServerConfig::default());
        s.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&(v, x)| (VarId(v), x)));
        s
    }

    fn access_payload(seq: u32, vars: &[(u64, u32)], target: u32, attempt: u32) -> Payload<App> {
        let expected: Vec<(VarId, PartitionId)> =
            vars.iter().map(|&(v, p)| (VarId(v), PartitionId(p))).collect();
        Payload::Access {
            cmd: Command {
                id: MsgId::new(42, seq),
                client: NodeId::from_raw(99),
                kind: CommandKind::Access {
                    op: 1,
                    vars: vars.iter().map(|&(v, _)| VarId(v)).collect(),
                },
            },
            attempt,
            expected,
            target: PartitionId(target),
            keep: false,
        }
    }

    fn now() -> SimTime {
        SimTime::from_millis(5)
    }

    /// Extracts the Reply effect, if any.
    fn reply_of(eff: &[Effect<App>]) -> Option<Vec<(VarId, i64)>> {
        eff.iter().find_map(|e| match e {
            Effect::Send { msg: Direct::Reply { reply, .. }, .. } => Some(reply.clone()),
            _ => None,
        })
    }

    #[test]
    fn single_partition_access_executes_immediately() {
        let mut s = server(0, &[0], &[(0, 10)]);
        let mut m = Metrics::new();
        let eff = s.on_deliver(access_payload(0, &[(0, 0)], 0, 0), now(), &mut m);
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 11)]));
        assert_eq!(s.value_of(VarId(0)), Some(&11));
        assert_eq!(m.counter(mn::CMD_SINGLE), 1);
    }

    #[test]
    fn borrow_execute_return_roundtrip() {
        // Partition 0 is target and owns var 0; partition 1 lends var 10.
        let mut target = server(0, &[0], &[(0, 100)]);
        let mut lender = server(1, &[1], &[(10, 200)]);
        let mut m = Metrics::new();
        let payload = access_payload(0, &[(0, 0), (10, 1)], 0, 0);

        // Target delivers first: it must wait for the lender's vars.
        let eff_t = target.on_deliver(payload.clone(), now(), &mut m);
        assert!(reply_of(&eff_t).is_none());
        assert_eq!(target.queue_len(), 1);

        // Lender delivers: ships its vars and blocks awaiting return.
        let eff_l = lender.on_deliver(payload, now(), &mut m);
        let ship = eff_l
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: Destination::Partition(p),
                    msg: m2 @ Direct::VarsForCmd { .. },
                } => Some((*p, m2.clone())),
                _ => None,
            })
            .expect("lender ships vars");
        assert_eq!(ship.0, PartitionId(0));
        assert_eq!(lender.value_of(VarId(10)), None, "value left the lender");
        assert_eq!(lender.queue_len(), 1, "lender blocks until return");

        // Target receives the vars → executes → replies and returns.
        let eff_t = target.on_direct(ship.1, now(), &mut m);
        assert_eq!(reply_of(&eff_t), Some(vec![(VarId(0), 101), (VarId(10), 201)]));
        let ret = eff_t
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: Destination::Partition(p),
                    msg: m2 @ Direct::VarsReturn { .. },
                } => Some((*p, m2.clone())),
                _ => None,
            })
            .expect("vars returned");
        assert_eq!(ret.0, PartitionId(1));
        assert_eq!(target.value_of(VarId(10)), None, "borrowed value not kept");

        // Lender stores the updated value and unblocks.
        let _ = lender.on_direct(ret.1, now(), &mut m);
        assert_eq!(lender.value_of(VarId(10)), Some(&201));
        assert_eq!(lender.queue_len(), 0);
    }

    #[test]
    fn stale_routing_at_non_target_aborts_and_retries() {
        // Partition 1 no longer owns key 1 (expected var 10): Retry+Abort.
        let mut s = server(1, &[], &[]);
        let mut m = Metrics::new();
        let eff = s.on_deliver(access_payload(0, &[(0, 0), (10, 1)], 0, 0), now(), &mut m);
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Client(_), msg: Direct::Retry { .. } }
        )));
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Partition(PartitionId(0)), msg: Direct::Abort { .. } }
        )));
        assert_eq!(s.queue_len(), 0, "stale command must not block the queue");
    }

    #[test]
    fn stale_routing_at_target_bounces_received_vars() {
        // Target does not own its expected key; a lender already shipped.
        let mut s = server(0, &[], &[]);
        let mut m = Metrics::new();
        let _ = s.on_direct(
            Direct::VarsForCmd {
                cmd: MsgId::new(42, 0),
                attempt: 0,
                from: PartitionId(1),
                vars: vec![(VarId(10), Some(5))],
            },
            now(),
            &mut m,
        );
        let eff = s.on_deliver(access_payload(0, &[(0, 0), (10, 1)], 0, 0), now(), &mut m);
        let bounced = eff.iter().any(|e| {
            matches!(
                e,
                Effect::Send {
                    to: Destination::Partition(PartitionId(1)),
                    msg: Direct::VarsReturn { .. }
                }
            )
        });
        assert!(bounced, "lender's vars must bounce back on target-side abort");
    }

    #[test]
    fn duplicate_dispatch_answers_from_reply_cache() {
        let mut s = server(0, &[0], &[(0, 0)]);
        let mut m = Metrics::new();
        let eff1 = s.on_deliver(access_payload(3, &[(0, 0)], 0, 0), now(), &mut m);
        assert_eq!(reply_of(&eff1), Some(vec![(VarId(0), 1)]));
        // Same command id re-dispatched (attempt 1): no re-execution.
        let eff2 = s.on_deliver(access_payload(3, &[(0, 0)], 0, 1), now(), &mut m);
        assert_eq!(reply_of(&eff2), Some(vec![(VarId(0), 1)]), "cached reply");
        assert_eq!(s.value_of(VarId(0)), Some(&1), "no double execution");
    }

    #[test]
    fn plan_migrates_key_out_and_in() {
        let mut from = server(0, &[0], &[(0, 7), (1, 8)]);
        let mut to = server(1, &[], &[]);
        let mut m = Metrics::new();
        let plan =
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] };
        let eff = from.on_deliver(plan.clone(), now(), &mut m);
        assert!(!from.owns(LocKey(0)));
        assert_eq!(from.value_of(VarId(0)), None);
        let ship = eff
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::PlanVars { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("primary shipment");
        let _ = to.on_deliver(plan, now(), &mut m);
        assert!(to.owns(LocKey(0)));
        let _ = to.on_direct(ship, now(), &mut m);
        assert_eq!(to.value_of(VarId(0)), Some(&7));
        assert_eq!(to.value_of(VarId(1)), Some(&8));
    }

    #[test]
    fn early_planvars_is_buffered_until_plan_applies() {
        let mut to = server(1, &[], &[]);
        let mut m = Metrics::new();
        // Shipment for plan v1 arrives before the plan itself.
        let _ = to.on_direct(
            Direct::PlanVars {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                vars: vec![(VarId(0), Some(7))],
                pending: vec![],
                primary: true,
            },
            now(),
            &mut m,
        );
        assert_eq!(to.value_of(VarId(0)), None, "must not apply before ownership");
        let _ = to.on_deliver(
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        assert_eq!(to.value_of(VarId(0)), Some(&7), "buffered shipment applied");
        assert!(to.owns(LocKey(0)));
    }

    #[test]
    fn command_waits_for_inflight_migration() {
        let mut s = server(1, &[], &[]);
        let mut m = Metrics::new();
        // Plan makes us owner of key 0; data still in flight.
        let _ = s.on_deliver(
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        let eff = s.on_deliver(access_payload(0, &[(0, 1)], 1, 0), now(), &mut m);
        assert!(reply_of(&eff).is_none(), "must wait for PlanVars");
        assert_eq!(s.queue_len(), 1);
        // Data arrives → the queued command executes.
        let eff = s.on_direct(
            Direct::PlanVars {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                vars: vec![(VarId(0), Some(5))],
                pending: vec![],
                primary: true,
            },
            now(),
            &mut m,
        );
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 6)]));
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn create_waits_for_oracle_signal() {
        let mut s = server(0, &[], &[]);
        let mut m = Metrics::new();
        let cmd = Command::<App> {
            id: MsgId::new(5, 0),
            client: NodeId::from_raw(9),
            kind: CommandKind::CreateKey { key: LocKey(4), vars: vec![(VarId(40), 1)] },
        };
        let eff = s.on_deliver(
            Payload::CreateKey { cmd: cmd.clone(), dest: PartitionId(0) },
            now(),
            &mut m,
        );
        // Signals the oracle, but does not install yet.
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Oracle, msg: Direct::Signal { .. } }
        )));
        assert!(!s.owns(LocKey(4)));
        // Oracle's signal arrives → install + ack.
        let eff = s.on_direct(Direct::Signal { cmd: cmd.id, from_partition: None }, now(), &mut m);
        assert!(s.owns(LocKey(4)));
        assert_eq!(s.value_of(VarId(40)), Some(&1));
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Client(_), msg: Direct::Ack { .. } }
        )));
    }

    #[test]
    fn dssmr_keep_transfers_ownership() {
        let mut lender =
            ServerCore::<App>::new(PartitionId(1), Mode::DsSmr, ServerConfig::default());
        lender.preload([LocKey(1)], [(VarId(10), 50)]);
        let mut target =
            ServerCore::<App>::new(PartitionId(0), Mode::DsSmr, ServerConfig::default());
        target.preload([LocKey(0)], [(VarId(0), 1)]);
        let mut m = Metrics::new();
        let payload = Payload::Access {
            cmd: Command {
                id: MsgId::new(8, 0),
                client: NodeId::from_raw(9),
                kind: CommandKind::Access { op: 1, vars: vec![VarId(0), VarId(10)] },
            },
            attempt: 0,
            expected: vec![(VarId(0), PartitionId(0)), (VarId(10), PartitionId(1))],
            target: PartitionId(0),
            keep: true,
        };
        let eff_l = lender.on_deliver(payload.clone(), now(), &mut m);
        assert_eq!(lender.queue_len(), 0, "keep-mode lender does not block");
        assert!(!lender.owns(LocKey(1)), "ownership transferred away");
        let ship = eff_l
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::VarsForCmd { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("vars shipped");
        let _ = target.on_deliver(payload, now(), &mut m);
        let eff_t = target.on_direct(ship, now(), &mut m);
        assert!(reply_of(&eff_t).is_some());
        assert!(target.owns(LocKey(1)), "target keeps the key");
        assert_eq!(target.value_of(VarId(10)), Some(&51));
    }

    #[test]
    fn ssmr_exchange_and_execute_everywhere() {
        let mk = |p: u32, keys: &[u64], vars: &[(u64, i64)]| {
            let mut s = ServerCore::<App>::new(PartitionId(p), Mode::SSmr, ServerConfig::default());
            s.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&(v, x)| (VarId(v), x)));
            s
        };
        let mut a = mk(0, &[0], &[(0, 1)]);
        let mut b = mk(1, &[1], &[(10, 2)]);
        let mut m = Metrics::new();
        let payload = access_payload(0, &[(0, 0), (10, 1)], 0, 0);
        let eff_a = a.on_deliver(payload.clone(), now(), &mut m);
        let eff_b = b.on_deliver(payload, now(), &mut m);
        let ex_a = eff_a
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::SsmrExchange { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("a exchanges");
        let ex_b = eff_b
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg: m2 @ Direct::SsmrExchange { .. }, .. } => Some(m2.clone()),
                _ => None,
            })
            .expect("b exchanges");
        // Feed each the other's share: both execute; only partition 0
        // (lowest id) replies.
        let eff_a = a.on_direct(ex_b, now(), &mut m);
        let eff_b = b.on_direct(ex_a, now(), &mut m);
        assert!(reply_of(&eff_a).is_some(), "lowest-id partition replies");
        assert!(reply_of(&eff_b).is_none());
        // Each kept only its own variable's update.
        assert_eq!(a.value_of(VarId(0)), Some(&2));
        assert_eq!(a.value_of(VarId(10)), None);
        assert_eq!(b.value_of(VarId(10)), Some(&3));
    }

    // ---- staged migration -------------------------------------------------

    fn staged_config(max_retries: u32) -> ServerConfig {
        ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 1,
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: max_retries,
            record_metrics: true,
            ..ServerConfig::default()
        }
    }

    fn staged_server(
        p: u32,
        keys: &[u64],
        vars: &[(u64, i64)],
        cfg: ServerConfig,
    ) -> ServerCore<App> {
        let mut s = ServerCore::new(PartitionId(p), Mode::Dynastar, cfg);
        s.preload(keys.iter().map(|&k| LocKey(k)), vars.iter().map(|&(v, x)| (VarId(v), x)));
        s
    }

    fn chunk_of(eff: &[Effect<App>]) -> Option<Direct<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Send { msg: m2 @ Direct::PlanVarsChunk { .. }, .. } => Some(m2.clone()),
            _ => None,
        })
    }

    fn ack_of(eff: &[Effect<App>]) -> Option<Direct<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Send { msg: m2 @ Direct::PlanVarsAck { .. }, .. } => Some(m2.clone()),
            _ => None,
        })
    }

    fn done_of(eff: &[Effect<App>]) -> Option<Payload<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Multicast { payload: p @ Payload::MigrationDone { .. }, .. } => Some(p.clone()),
            _ => None,
        })
    }

    fn revert_of(eff: &[Effect<App>]) -> Option<Payload<App>> {
        eff.iter().find_map(|e| match e {
            Effect::Multicast { payload: p @ Payload::MigrationRevert { .. }, .. } => {
                Some(p.clone())
            }
            _ => None,
        })
    }

    const PLAN_V1: u64 = 1;

    fn move_plan() -> Payload<App> {
        Payload::Plan { version: PLAN_V1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] }
    }

    #[test]
    fn staged_migration_chunked_roundtrip_installs_at_done() {
        let mut src = staged_server(0, &[0], &[(0, 7), (1, 8), (2, 9)], staged_config(5));
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();

        let eff = src.on_deliver(move_plan(), now(), &mut m);
        assert!(!src.owns(LocKey(0)));
        assert_eq!(src.value_of(VarId(0)), None, "staged vars leave the source store");
        let mut chunk = chunk_of(&eff).expect("first chunk ships from the migration pump");
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        assert!(dst.owns(LocKey(0)));

        // A command for the moving key queues behind the staged transfer.
        let eff = dst.on_deliver(access_payload(0, &[(0, 1)], 1, 0), now(), &mut m);
        assert!(reply_of(&eff).is_none());
        assert_eq!(dst.queue_len(), 1);

        // One chunk in flight at a time: ack each to release the next.
        let mut done = None;
        for round in 0..3 {
            let eff_d = dst.on_direct(chunk.clone(), now(), &mut m);
            let ack = ack_of(&eff_d).expect("destination acks every chunk");
            if let Some(d) = done_of(&eff_d) {
                done = Some(d);
            }
            let eff_s = src.on_direct(ack, now(), &mut m);
            match chunk_of(&eff_s) {
                Some(next) => chunk = next,
                None => assert_eq!(round, 2, "a next chunk ships until all three are acked"),
            }
        }
        let done = done.expect("destination requests commit once chunks are complete");

        // Nothing installs before the totally-ordered Done delivery.
        assert_eq!(dst.value_of(VarId(0)), None);
        let eff = dst.on_deliver(done.clone(), now(), &mut m);
        // The install lands and the queued command executes on top of it in
        // the same delivery: 7 + 1.
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 8)]));
        assert_eq!(dst.value_of(VarId(0)), Some(&8));
        assert_eq!(dst.value_of(VarId(1)), Some(&8));
        assert_eq!(dst.value_of(VarId(2)), Some(&9));
        assert_eq!(dst.queue_len(), 0);

        // The source dismantles its outbox: no further pump activity.
        let _ = src.on_deliver(done, now(), &mut m);
        let eff = src.on_wake(SimTime::from_secs(10), &mut m);
        assert!(chunk_of(&eff).is_none() && revert_of(&eff).is_none());
        assert_eq!(m.counter(mn::MIGRATION_KEYS_STAGED), 1);
        assert!(m.counter(mn::MIGRATION_CHUNKS_SENT) >= 3);
    }

    #[test]
    fn staged_migration_retransmits_unacked_chunk() {
        let mut src = staged_server(0, &[0], &[(0, 7), (1, 8)], staged_config(5));
        let mut m = Metrics::new();
        let eff = src.on_deliver(move_plan(), now(), &mut m);
        assert!(chunk_of(&eff).is_some());

        // No ack by the deadline (now + 200 ms backoff): retransmit.
        let eff = src.on_wake(now() + SimDuration::from_millis(300), &mut m);
        assert!(chunk_of(&eff).is_some(), "timed-out chunk is resent");
        assert_eq!(m.counter(mn::MIGRATION_CHUNK_RETRIES), 1);

        // The ack lands late: accepted, and the next chunk ships.
        let eff = src.on_direct(
            Direct::PlanVarsAck { version: PLAN_V1, key: LocKey(0), chunk: 0 },
            now() + SimDuration::from_millis(400),
            &mut m,
        );
        let next = chunk_of(&eff).expect("next chunk after late ack");
        let Direct::PlanVarsChunk { chunk, total, .. } = next else { unreachable!() };
        assert_eq!((chunk, total), (1, 2));
    }

    #[test]
    fn staged_migration_reverts_after_exhausted_retries() {
        let mut src = staged_server(0, &[0], &[(0, 7)], staged_config(1));
        let mut dst = staged_server(1, &[], &[], staged_config(1));
        let mut m = Metrics::new();
        let eff = src.on_deliver(move_plan(), now(), &mut m);
        let chunk = chunk_of(&eff).expect("chunk ships");
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        // The chunk reaches the destination, but every ack is "lost".
        let _ = dst.on_direct(chunk, now(), &mut m);

        // First deadline miss: one retry (max_retries = 1).
        let t1 = now() + SimDuration::from_millis(300);
        let eff = src.on_wake(t1, &mut m);
        assert!(chunk_of(&eff).is_some());
        assert!(revert_of(&eff).is_none());
        // Second miss: retries exhausted → give up and request the revert.
        let t2 = t1 + SimDuration::from_secs(2);
        let eff = src.on_wake(t2, &mut m);
        let revert = revert_of(&eff).expect("revert multicast after giving up");

        // Totally-ordered revert delivery restores the source...
        let _ = src.on_deliver(revert.clone(), t2, &mut m);
        assert!(src.owns(LocKey(0)), "source reclaims the key");
        assert_eq!(src.value_of(VarId(0)), Some(&7), "retained chunk data reinstalled");
        assert_eq!(m.counter(mn::MIGRATION_REVERTS), 1);

        // ...and un-owns the destination, so queued commands turn into
        // stale-routing retries instead of waiting forever.
        let _ = dst.on_deliver(revert, t2, &mut m);
        assert!(!dst.owns(LocKey(0)));
        let eff = dst.on_deliver(access_payload(0, &[(0, 1)], 1, 0), t2, &mut m);
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send { to: Destination::Client(_), msg: Direct::Retry { .. } }
        )));

        // A Done for the same migration arriving after the revert settled
        // must not resurrect it at the destination.
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = dst.on_deliver(done, t2, &mut m);
        assert_eq!(dst.value_of(VarId(0)), None);
    }

    #[test]
    fn staged_migration_of_empty_key_still_commits() {
        let mut src = staged_server(0, &[0], &[], staged_config(5));
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();
        let eff = src.on_deliver(move_plan(), now(), &mut m);
        let chunk = chunk_of(&eff).expect("an empty chunk still ships");
        let Direct::PlanVarsChunk { total, ref vars, .. } = chunk else { unreachable!() };
        assert_eq!((total, vars.len()), (1, 0));
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        let eff_d = dst.on_direct(chunk, now(), &mut m);
        assert!(ack_of(&eff_d).is_some());
        let done = done_of(&eff_d).expect("empty transfer reaches total and commits");
        let _ = dst.on_deliver(done, now(), &mut m);
        // The destination is authoritative: commands execute (creating the
        // variable on first write).
        let eff = dst.on_deliver(access_payload(0, &[(0, 1)], 1, 0), now(), &mut m);
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 1)]));
    }

    #[test]
    fn duplicate_chunks_are_reacked_but_not_restaged() {
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();
        let _ = dst.on_deliver(move_plan(), now(), &mut m);
        let chunk = Direct::PlanVarsChunk {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            chunk: 0,
            total: 2,
            vars: vec![(VarId(0), Some(7))],
        };
        let eff1 = dst.on_direct(chunk.clone(), now(), &mut m);
        assert!(ack_of(&eff1).is_some());
        assert!(done_of(&eff1).is_none(), "1 of 2 chunks is not complete");
        // A retransmitted duplicate is acked again (the first ack may have
        // been lost) without double-counting toward completion.
        let eff2 = dst.on_direct(chunk, now(), &mut m);
        assert!(ack_of(&eff2).is_some());
        assert!(done_of(&eff2).is_none());
    }

    #[test]
    fn done_outrunning_queued_plan_retains_staged_vars() {
        // Regression: a busy destination CPU leaves the plan sitting in
        // the command queue while the (later-ordered) Done applies at
        // delivery. The staged vars must survive until the plan pump
        // makes this replica the owner — dropping them would leave the
        // key owned-but-empty, with every command for it waiting forever.
        let cfg = ServerConfig {
            exec: ExecConfig::serial(SimDuration::from_millis(10)),
            ..staged_config(5)
        };
        let mut dst = staged_server(1, &[1], &[(10, 0)], cfg);
        let mut m = Metrics::new();
        let t0 = now();
        // An unrelated command occupies the modelled CPU...
        let eff = dst.on_deliver(access_payload(0, &[(10, 1)], 1, 0), t0, &mut m);
        assert!(reply_of(&eff).is_some());
        // ...so the move plan delivered next stays queued, unpumped.
        let _ = dst.on_deliver(move_plan(), t0, &mut m);
        assert!(!dst.owns(LocKey(0)));
        // The staged transfer still completes around it: chunks travel
        // outside the total order, and the Done applies at delivery.
        let chunk = Direct::PlanVarsChunk {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            chunk: 0,
            total: 1,
            vars: vec![(VarId(0), Some(7))],
        };
        let _ = dst.on_direct(chunk, t0, &mut m);
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = dst.on_deliver(done, t0, &mut m);
        // Nothing installs while the plan is still queued.
        assert_eq!(dst.value_of(VarId(0)), None);
        // The CPU frees up: the plan pumps and the retained staging
        // entry resolves in the same wake.
        let _ = dst.on_wake(t0 + SimDuration::from_millis(10), &mut m);
        assert!(dst.owns(LocKey(0)));
        assert_eq!(dst.value_of(VarId(0)), Some(&7), "staged vars install once the plan lands");
        // The key is fully authoritative: commands execute immediately.
        let eff = dst.on_deliver(
            access_payload(1, &[(0, 1)], 1, 0),
            t0 + SimDuration::from_millis(20),
            &mut m,
        );
        assert_eq!(reply_of(&eff), Some(vec![(VarId(0), 8)]));
    }

    /// Runs one full staged migration of key 0 between `src` and `dst` at
    /// `version` (plan → chunk → ack → totally-ordered Done on both).
    fn migrate_key0(
        version: u64,
        src: &mut ServerCore<App>,
        dst: &mut ServerCore<App>,
        m: &mut Metrics,
    ) {
        let plan =
            Payload::Plan { version, moves: vec![(LocKey(0), src.partition(), dst.partition())] };
        let eff = src.on_deliver(plan.clone(), now(), m);
        let chunk = chunk_of(&eff).expect("chunk ships");
        let _ = dst.on_deliver(plan, now(), m);
        let eff_d = dst.on_direct(chunk, now(), m);
        let ack = ack_of(&eff_d).expect("destination acks");
        let done = done_of(&eff_d).expect("single-chunk transfer completes");
        let _ = src.on_direct(ack, now(), m);
        let _ = src.on_deliver(done.clone(), now(), m);
        let _ = dst.on_deliver(done, now(), m);
    }

    #[test]
    fn straggling_revert_never_flips_ownership_however_late() {
        // Regression for the bounded-memory amnesia bug: the old
        // first-decision-wins set forgot a migration's Done once enough
        // later decisions rotated it out, so a duplicate MigrationRevert
        // straggling in long after (a give-up retransmission that lost
        // its race) was mistaken for a fresh decision and flipped
        // ownership back. The plan history's monotone floor answers
        // default-deny for any version at or below it, no matter how
        // many records have been folded away since.
        let mut a = staged_server(0, &[0], &[(0, 7)], staged_config(5));
        let mut b = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();

        // v1 moves key 0 from partition 0 to partition 1 and commits.
        migrate_key0(1, &mut a, &mut b, &mut m);
        assert!(!a.owns(LocKey(0)) && b.owns(LocKey(0)));

        // Bounce the key back and forth through far more committed
        // decisions than the per-key history retains verbatim.
        for v in 2..=24u64 {
            if v % 2 == 0 {
                migrate_key0(v, &mut b, &mut a, &mut m);
            } else {
                migrate_key0(v, &mut a, &mut b, &mut m);
            }
        }
        assert!(a.owns(LocKey(0)) && !b.owns(LocKey(0)), "v24 parked the key at partition 0");
        assert_eq!(a.value_of(VarId(0)), Some(&7), "value survives the round trips");

        // The straggler: a duplicate revert of the long-settled v1.
        let revert = Payload::MigrationRevert {
            version: 1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = a.on_deliver(revert.clone(), now(), &mut m);
        let _ = b.on_deliver(revert, now(), &mut m);
        assert!(a.owns(LocKey(0)) && !b.owns(LocKey(0)), "stale revert must not flip ownership");
        assert_eq!(a.value_of(VarId(0)), Some(&7));
        assert_eq!(m.counter(mn::MIGRATION_REVERTS), 0, "no revert was ever applied");
    }

    #[test]
    fn done_outrunning_every_chunk_still_installs_and_acks_strays() {
        // A MigrationDone (submitted by a faster peer replica of the
        // destination group) can be delivered before any chunk reaches
        // this replica over the direct channel. The staging entry must
        // wait for the late chunk, install on its arrival, and from then
        // on treat retransmitted duplicates as ack-only strays — the ack
        // is what terminates the sender's retransmit loop, and a stray
        // must never resurrect a dismantled staging entry.
        let mut src = staged_server(0, &[0], &[(0, 7)], staged_config(5));
        let mut dst = staged_server(1, &[], &[], staged_config(5));
        let mut m = Metrics::new();

        let eff = src.on_deliver(move_plan(), now(), &mut m);
        let chunk = chunk_of(&eff).expect("chunk ships");
        let _ = dst.on_deliver(move_plan(), now(), &mut m);

        // The Done lands first; nothing can install yet.
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = dst.on_deliver(done.clone(), now(), &mut m);
        assert_eq!(dst.value_of(VarId(0)), None, "no chunk, nothing to install");

        // The source's Done delivery dismantles its outbox even though no
        // ack ever arrived: the retransmit ladder must fall silent.
        let _ = src.on_deliver(done, now(), &mut m);
        let eff = src.on_wake(now() + SimDuration::from_secs(30), &mut m);
        assert!(
            chunk_of(&eff).is_none() && revert_of(&eff).is_none(),
            "no retransmission or give-up after the Done settled"
        );

        // The chunk finally arrives: acked, and the staged value installs.
        let eff = dst.on_direct(chunk.clone(), now(), &mut m);
        assert!(ack_of(&eff).is_some());
        assert_eq!(dst.value_of(VarId(0)), Some(&7), "late chunk completes the install");

        // A retransmitted duplicate is now a stray: ack it (the sender
        // may still be waiting) but change nothing.
        let eff = dst.on_direct(chunk, now(), &mut m);
        assert!(ack_of(&eff).is_some(), "strays are re-acked to stop the sender");
        assert!(done_of(&eff).is_none(), "a stray must not re-request the commit");
        assert_eq!(dst.value_of(VarId(0)), Some(&7));

        // The stray's ack reaching a dismantled outbox is a no-op.
        let eff = src.on_direct(
            Direct::PlanVarsAck { version: PLAN_V1, key: LocKey(0), chunk: 0 },
            now(),
            &mut m,
        );
        assert!(chunk_of(&eff).is_none());
    }

    // ---- link clock and demand-first transfer ------------------------------

    /// fig9's link model at test scale: one variable per key and per chunk,
    /// 8 KiB over 1 MiB/s = 7 812 us on the wire.
    fn linked_config(cap: u32) -> ServerConfig {
        ServerConfig {
            migration_var_bytes: 8 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_max_inflight_per_link: cap,
            ..staged_config(5)
        }
    }

    const CHUNK_WIRE_TIME: SimDuration = SimDuration::from_micros(7_812);

    /// A server at partition `p` owning `keys`, one variable (`10 * key`,
    /// holding `key`) each.
    fn keyed_server(p: u32, keys: std::ops::Range<u64>, cfg: ServerConfig) -> ServerCore<App> {
        let mut s = ServerCore::new(PartitionId(p), Mode::Dynastar, cfg);
        s.preload(keys.clone().map(LocKey), keys.map(|k| (VarId(k * 10), k as i64)));
        s
    }

    /// A plan moving `keys` from partition 0 to partition 1, in that
    /// (hottest-first) order.
    fn plan_moving(keys: std::ops::Range<u64>) -> Payload<App> {
        let moves = keys.map(|k| (LocKey(k), PartitionId(0), PartitionId(1))).collect();
        Payload::Plan { version: PLAN_V1, moves }
    }

    fn wake_of(eff: &[Effect<App>]) -> Option<SimTime> {
        eff.iter().find_map(|e| match e {
            Effect::Wake { at } => Some(*at),
            _ => None,
        })
    }

    /// The keys of the chunks `eff` puts on the wire, in order.
    fn chunk_keys(eff: &[Effect<App>]) -> Vec<u64> {
        eff.iter()
            .filter_map(|e| match e {
                Effect::Send { msg: Direct::PlanVarsChunk { key, .. }, .. } => Some(key.0),
                _ => None,
            })
            .collect()
    }

    /// The `(key, addressee)` of the pulls in `eff`, in order.
    fn pulls_of(eff: &[Effect<App>]) -> Vec<(u64, u32)> {
        eff.iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to: Destination::Partition(p),
                    msg: Direct::PlanVarsPull { key, to },
                } => {
                    assert_eq!(*to, PartitionId(1), "a pull names the puller");
                    Some((key.0, p.0))
                }
                _ => None,
            })
            .collect()
    }

    fn pull(key: u64, to: u32) -> Direct<App> {
        Direct::PlanVarsPull { key: LocKey(key), to: PartitionId(to) }
    }

    #[test]
    fn staged_chunks_ride_the_link_clock_and_leave_the_executor_free() {
        // Twelve keys leave, eight stay. Neither the serial executor nor
        // any worker of a pool is charged a single chunk: commands on keys
        // that are present execute at the instant the plan applied, while
        // the chunks go out back to back on the link clock.
        let engines = [
            (ExecConfig::serial(SimDuration::from_micros(150)), 1),
            (ExecConfig::pool(8, SimDuration::from_millis(1)), 8),
        ];
        for (exec, free_slots) in engines {
            let mut src = keyed_server(0, 0..20, ServerConfig { exec, ..linked_config(0) });
            let mut m = Metrics::new();
            let eff = src.on_deliver(plan_moving(0..12), now(), &mut m);
            let mut sent = vec![(now(), chunk_keys(&eff))];
            let mut wake = wake_of(&eff);

            for i in 0..free_slots {
                let var = (12 + u64::from(i)) * 10;
                let eff = src.on_deliver(access_payload(i, &[(var, 0)], 0, 0), now(), &mut m);
                assert!(reply_of(&eff).is_some(), "{exec:?}: command {i} executes at `now`");
                wake = wake_of(&eff).or(wake);
            }

            while sent.len() < 12 {
                let at = wake.expect("the pump asks to run when the link frees");
                let eff = src.on_wake(at, &mut m);
                sent.push((at, chunk_keys(&eff)));
                wake = wake_of(&eff);
            }
            for (i, (at, keys)) in sent.iter().enumerate() {
                assert_eq!(*at, now() + CHUNK_WIRE_TIME.saturating_mul(i as u64));
                assert_eq!(keys, &[i as u64], "one chunk on the wire at a time, in plan order");
            }
            assert_eq!(m.counter(mn::MIGRATION_CHUNK_RETRIES), 0);
        }
    }

    #[test]
    fn pull_promotes_a_deferred_key_past_hotter_waiters_and_the_cap() {
        // Cap 1: key 0 (hottest) holds the link's only slot, 1–3 wait.
        let mut src = keyed_server(0, 0..4, linked_config(1));
        let mut m = Metrics::new();
        let eff = src.on_deliver(plan_moving(0..4), now(), &mut m);
        assert_eq!(chunk_keys(&eff), [0]);
        assert_eq!(m.counter(mn::MIGRATION_DEFERRED), 3);

        // The destination is waiting for the coldest key.
        let eff = src.on_direct(pull(3, 1), now(), &mut m);
        assert!(chunk_keys(&eff).is_empty(), "key 0's chunk still occupies the link");
        let link_free = now() + CHUNK_WIRE_TIME;
        assert_eq!(wake_of(&eff), Some(link_free));
        // Twice is once.
        let _ = src.on_direct(pull(3, 1), now(), &mut m);
        assert_eq!(m.counter(mn::MIGRATION_PULL_PROMOTIONS), 1);

        // The promotion is part of the protocol state a recovering replica
        // installs: the rest of the scenario runs on a clone.
        let mut src = src.clone();
        let eff = src.on_wake(link_free, &mut m);
        assert_eq!(chunk_keys(&eff), [3], "ahead of keys 1 and 2, past the cap");
        let eff = src.on_wake(link_free + CHUNK_WIRE_TIME, &mut m);
        assert!(chunk_keys(&eff).is_empty(), "keys 1 and 2 keep waiting for a slot");
        assert_eq!(m.counter(mn::MIGRATION_RELEASED), 0);

        // No-ops: a key that is not moving, another destination's pull, a
        // settled transfer, and a source that shipped the classic way.
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = src.on_deliver(done, link_free + CHUNK_WIRE_TIME, &mut m);
        for stray in [pull(99, 1), pull(1, 2), pull(0, 1)] {
            let eff = src.on_direct(stray, link_free + CHUNK_WIRE_TIME, &mut m);
            assert!(chunk_keys(&eff).is_empty());
        }
        let mut classic = server(0, &[0], &[(0, 7)]);
        let eff = classic.on_deliver(move_plan(), now(), &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::Send { msg: Direct::PlanVars { .. }, .. })));
        assert!(classic.on_direct(pull(0, 1), now(), &mut m).is_empty());
        assert_eq!(m.counter(mn::MIGRATION_PULL_PROMOTIONS), 1);

        // Key 0's slot went to nobody (key 3 holds one past the cap); key
        // 3's Done frees it for the hottest waiter.
        let done = Payload::MigrationDone {
            version: PLAN_V1,
            key: LocKey(3),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let eff = src.on_deliver(done, link_free + CHUNK_WIRE_TIME, &mut m);
        assert_eq!(chunk_keys(&eff), [1]);
        assert_eq!(m.counter(mn::MIGRATION_RELEASED), 1);
    }

    #[test]
    fn destination_pulls_once_per_awaited_key_and_a_lost_pull_only_loses_priority() {
        let mut src = keyed_server(0, 0..2, staged_config(5));
        let busy = ExecConfig::serial(SimDuration::from_millis(10));
        let mut dst = keyed_server(1, 5..6, ServerConfig { exec: busy, ..staged_config(5) });
        let mut m = Metrics::new();
        let t0 = now();

        // A command keeps the destination's CPU busy, so the plan and a
        // command for key 1 behind it stay queued: nothing is awaited yet.
        let _ = dst.on_deliver(access_payload(0, &[(50, 1)], 1, 0), t0, &mut m);
        let eff = dst.on_deliver(plan_moving(0..2), t0, &mut m);
        assert!(pulls_of(&eff).is_empty());
        let eff = dst.on_deliver(access_payload(1, &[(10, 1)], 1, 0), t0, &mut m);
        assert!(pulls_of(&eff).is_empty());
        // The plan pumps: the command found queued behind it names key 1.
        let t1 = t0 + SimDuration::from_millis(10);
        let eff = dst.on_wake(t1, &mut m);
        assert_eq!(pulls_of(&eff), [(1, 0)]);

        // The pulled marker travels with a state clone.
        let mut dst = dst.clone();
        // Delivered from now on: one pull per key, at delivery.
        let eff = dst.on_deliver(access_payload(2, &[(0, 1), (10, 1)], 1, 0), t1, &mut m);
        assert_eq!(pulls_of(&eff), [(0, 0)]);
        let eff = dst.on_deliver(access_payload(3, &[(0, 1)], 1, 0), t1, &mut m);
        assert!(pulls_of(&eff).is_empty());
        assert_eq!(m.counter(mn::MIGRATION_PULLS), 2);

        // Every pull is lost. The background order moves both keys anyway
        // and the three waiting commands execute.
        let eff = src.on_deliver(plan_moving(0..2), t0, &mut m);
        let mut replies = 0;
        let mut wake = None;
        for e in eff {
            let Effect::Send { msg: chunk @ Direct::PlanVarsChunk { .. }, .. } = e else {
                continue;
            };
            let eff = dst.on_direct(chunk, t1, &mut m);
            let done = done_of(&eff).expect("single-chunk transfer completes");
            let _ = src.on_direct(ack_of(&eff).expect("chunk is acked"), t1, &mut m);
            let _ = src.on_deliver(done.clone(), t1, &mut m);
            let eff = dst.on_deliver(done, t1, &mut m);
            replies += usize::from(reply_of(&eff).is_some());
            wake = wake_of(&eff).or(wake);
        }
        while let Some(at) = wake {
            let eff = dst.on_wake(at, &mut m);
            replies += usize::from(reply_of(&eff).is_some());
            wake = wake_of(&eff);
        }
        assert_eq!((replies, dst.queue_len()), (3, 0));
        assert_eq!(m.counter(mn::MIGRATION_PULL_PROMOTIONS), 0);
        assert!(src.on_wake(SimTime::from_secs(10), &mut m).is_empty(), "outbox dismantled");
    }

    // ---- striping a transfer over the source's replicas ---------------------

    /// The three replicas of source partition 0 and one replica of
    /// destination partition 1, wired by hand: a chunk any source puts on
    /// the wire reaches the destination, whose ack reaches every *live*
    /// source and whose `MigrationDone` is delivered everywhere.
    struct Striped {
        src: Vec<ServerCore<App>>,
        dst: ServerCore<App>,
        m: Metrics,
        /// Replicas that pump and hear acks; the others are down.
        live: Vec<usize>,
        /// Whether chunks reach the destination (and so get acked).
        wire_up: bool,
        /// `(key, chunk)` of every send, per source replica, in order.
        sent: Vec<Vec<(u64, u32)>>,
    }

    impl Striped {
        /// Source replicas owning `keys` with `vars_per_key` variables
        /// each, one variable per chunk, on fig9's link.
        fn new(keys: std::ops::Range<u64>, vars_per_key: u64) -> Self {
            let core = |p: u32| {
                let mut s = ServerCore::new(PartitionId(p), Mode::Dynastar, linked_config(0));
                if p == 0 {
                    let vars =
                        keys.clone().flat_map(|k| (0..vars_per_key).map(move |v| k * 10 + v));
                    s.preload(keys.clone().map(LocKey), vars.map(|v| (VarId(v), v as i64)));
                }
                s
            };
            let src = (0..3)
                .map(|r| {
                    let mut s = core(0);
                    s.set_replica(r, 3);
                    s
                })
                .collect();
            Striped {
                src,
                dst: core(1),
                m: Metrics::new(),
                live: vec![0, 1, 2],
                wire_up: true,
                sent: vec![Vec::new(); 3],
            }
        }

        /// Runs `step` on every live source replica — all of them before
        /// any ack of this round is back, as replicas running side by side
        /// do — then carries what they sent.
        fn sources(
            &mut self,
            at: SimTime,
            step: impl Fn(&mut ServerCore<App>, &mut Metrics) -> Vec<Effect<App>>,
        ) {
            let effs =
                self.live.iter().map(|&r| (r, step(&mut self.src[r], &mut self.m))).collect();
            self.carry(effs, at);
        }

        /// Applies `plan` everywhere at `now()`.
        fn apply(&mut self, plan: Payload<App>) {
            let _ = self.dst.on_deliver(plan.clone(), now(), &mut self.m);
            self.sources(now(), |s, m| s.on_deliver(plan.clone(), now(), m));
        }

        /// Delivers `msg` to every live source replica.
        fn tell_sources(&mut self, msg: Direct<App>, at: SimTime) {
            self.sources(at, |s, m| s.on_direct(msg.clone(), at, m));
        }

        /// Every live source pumps at `at`.
        fn round(&mut self, at: SimTime) {
            self.sources(at, |s, m| s.on_wake(at, m));
        }

        /// Rounds one chunk wire time apart, from `first`.
        fn rounds(&mut self, first: u64, count: u64) {
            for i in first..first + count {
                self.round(now() + CHUNK_WIRE_TIME.saturating_mul(i));
            }
        }

        fn carry(&mut self, mut effs: Vec<(usize, Vec<Effect<App>>)>, at: SimTime) {
            while let Some((r, eff)) = effs.pop() {
                for e in eff {
                    let Effect::Send { msg: msg @ Direct::PlanVarsChunk { .. }, .. } = e else {
                        continue;
                    };
                    if let Direct::PlanVarsChunk { key, chunk, .. } = &msg {
                        self.sent[r].push((key.0, *chunk));
                    }
                    if !self.wire_up {
                        continue;
                    }
                    let eff = self.dst.on_direct(msg, at, &mut self.m);
                    let ack = ack_of(&eff).expect("every chunk is acked");
                    let done = done_of(&eff);
                    for &r in &self.live.clone() {
                        effs.push((r, self.src[r].on_direct(ack.clone(), at, &mut self.m)));
                        if let Some(done) = &done {
                            effs.push((r, self.src[r].on_deliver(done.clone(), at, &mut self.m)));
                        }
                    }
                    if let Some(done) = done {
                        let _ = self.dst.on_deliver(done, at, &mut self.m);
                    }
                }
            }
        }

        /// Every key's send count, over all replicas.
        fn sends_per_chunk(&self) -> BTreeMap<(u64, u32), usize> {
            let mut n = BTreeMap::new();
            for &c in self.sent.iter().flatten() {
                *n.entry(c).or_insert(0) += 1;
            }
            n
        }
    }

    /// The stripe (= replica) that owns chunk 0 of `key` in a group of 3.
    fn stripe(key: u64) -> usize {
        shard_of(LocKey(key), 3) as usize
    }

    #[test]
    fn three_replicas_split_a_plan_and_every_chunk_crosses_once() {
        let mut t = Striped::new(0..30, 1);
        t.wire_up = false;
        t.apply(plan_moving(0..30));
        // First round, no ack seen yet: each replica opened its own stripe
        // at that stripe's hottest key, so the three sends are disjoint.
        for r in 0..3 {
            let first = (0..30).find(|&k| stripe(k) == r).expect("30 keys hit every stripe");
            assert_eq!(t.sent[r], [(first, 0)], "replica {r}");
        }
        // With acks flowing, a third of the rounds a lone link would need
        // move everything and no chunk crosses twice: the replica with the
        // shortest stripe spends its last round on the tail of the longest.
        let mut t = Striped::new(0..30, 1);
        t.apply(plan_moving(0..30));
        t.rounds(1, 9);
        let sends = t.sends_per_chunk();
        assert_eq!(sends.len(), 30);
        assert!(sends.values().all(|&n| n == 1), "{sends:?}");
        for (r, sent) in t.sent.iter().enumerate() {
            assert_eq!(sent.len(), 10, "replica {r} carried a third");
            let own = sent.iter().take_while(|&&(k, _)| stripe(k) == r).count();
            assert!(sent[..own].windows(2).all(|w| w[0] < w[1]), "replica {r}: hottest first");
            let stolen: Vec<u64> = sent[own..].iter().map(|&(k, _)| k).collect();
            let coldest_first = stolen.windows(2).all(|w| w[0] > w[1]);
            assert!(stolen.iter().all(|&k| stripe(k) != r) && coldest_first, "replica {r}");
        }
        assert_eq!(t.sent[1].last(), Some(&(29, 0)), "stolen from the tail");
        assert_eq!(t.m.counter(mn::MIGRATION_CHUNK_DUPS), 0);
        assert!((0..30).all(|k| t.dst.owns(LocKey(k)) && t.dst.value_of(VarId(k * 10)).is_some()));
        t.round(SimTime::from_secs(10));
        assert_eq!(t.sends_per_chunk().len(), 30, "every outbox is dismantled");
    }

    #[test]
    fn a_pulled_key_precedes_the_background_on_every_replica() {
        // The acks are lost, so each replica shows its whole order. The
        // pulled key is on one replica's stripe and is everyone's second
        // send (the first left with the plan, before the pull).
        let mut t = Striped::new(0..30, 1);
        t.wire_up = false;
        t.apply(plan_moving(0..30));
        let wanted = 29; // the coldest key
        t.tell_sources(pull(wanted, 1), now());
        t.rounds(1, 3);
        for (r, sent) in t.sent.iter().enumerate() {
            assert_eq!(sent[1], (wanted, 0), "replica {r}: {sent:?}");
            // Then the background: the rest of its own stripe, in order.
            assert!(sent[2..].iter().all(|&(k, _)| stripe(k) == r), "replica {r}: {sent:?}");
        }
    }

    #[test]
    fn two_replicas_finish_a_plan_when_the_third_never_sends() {
        let mut t = Striped::new(0..30, 1);
        let down = stripe(0);
        t.live.retain(|&r| r != down);
        t.apply(plan_moving(0..30));
        t.rounds(1, 29);
        let orphans: Vec<u64> = (0..30).filter(|&k| stripe(k) == down).collect();
        assert!(t.sent[down].is_empty());
        assert!((0..30).all(|k| t.dst.value_of(VarId(k * 10)).is_some()), "every key arrived");
        // The survivors took the orphaned stripe from its tail, after
        // their own. Pumping side by side they can both pick the same
        // orphan; that is the only redundancy.
        for &r in &t.live {
            let stolen: Vec<u64> =
                t.sent[r].iter().map(|&(k, _)| k).filter(|&k| stripe(k) != r).collect();
            assert!(stolen.iter().all(|k| orphans.contains(k)), "replica {r} stole {stolen:?}");
            assert!(stolen.windows(2).all(|w| w[0] > w[1]), "coldest first: {stolen:?}");
            let own = t.sent[r].iter().take_while(|&&(k, _)| stripe(k) == r).count();
            assert_eq!(own + stolen.len(), t.sent[r].len(), "own stripe first");
        }
        let dups = t.m.counter(mn::MIGRATION_CHUNK_DUPS);
        assert!(dups <= orphans.len() as u64, "{dups} duplicates for {} orphans", orphans.len());
        assert_eq!(t.m.counter(mn::MIGRATION_CHUNKS_SENT), 30 + dups);
        assert_eq!(t.m.counter(mn::MIGRATION_CHUNK_RETRIES), 0);
    }

    #[test]
    fn the_chunks_of_one_big_key_spread_over_the_three_links() {
        // Nine chunks (the test application keeps ten variables to a key).
        let mut t = Striped::new(0..1, 9);
        t.apply(plan_moving(0..1));
        t.rounds(1, 2);
        let first = stripe(0);
        for (r, sent) in t.sent.iter().enumerate() {
            let lowest = ((r + 3 - first) % 3) as u32;
            assert_eq!(sent, &[(0, lowest), (0, lowest + 3), (0, lowest + 6)], "replica {r}");
        }
        assert_eq!(t.m.counter(mn::MIGRATION_CHUNK_DUPS), 0);
        assert_eq!(t.dst.value_of(VarId(8)), Some(&8));
    }

    #[test]
    fn a_clone_keeps_the_stripe_until_it_is_restamped() {
        let mut t = Striped::new(0..12, 1);
        t.wire_up = false;
        t.apply(plan_moving(0..12));
        let at = now() + CHUNK_WIRE_TIME;
        let mut m = Metrics::new();
        // What a recovering replica 2 installs from donor 0 …
        let mut installed = t.src[0].clone();
        let as_donor = chunk_keys(&installed.clone().on_wake(at, &mut m));
        assert_eq!(as_donor, chunk_keys(&t.src[0].clone().on_wake(at, &mut m)));
        // … sends replica 2's stripe once the host has said who it is
        // (replica 2's own first chunk is unacked: it goes again later).
        installed.set_replica(2, 3);
        let own = chunk_keys(&installed.on_wake(at, &mut m));
        assert!(own.iter().all(|&k| stripe(k) == 2) && own != as_donor, "{own:?} vs {as_donor:?}");
    }

    #[test]
    fn a_lone_replica_sends_in_the_send_order_lowest_chunk_first() {
        // No stripe, nothing to steal: pulled prefix, then plan order, each
        // transfer's lowest unacked chunk — with or without `set_replica`.
        let run = |stamp: bool| {
            let mut src = ServerCore::<App>::new(PartitionId(0), Mode::Dynastar, linked_config(0));
            src.preload(
                (0..4).map(LocKey),
                (0..4).flat_map(|k| [k * 10, k * 10 + 1]).map(|v| (VarId(v), 0)),
            );
            if stamp {
                src.set_replica(0, 1);
            }
            let mut m = Metrics::new();
            let mut sent = Vec::new();
            let mut log = |eff: Vec<Effect<App>>| {
                for e in eff {
                    if let Effect::Send { msg: Direct::PlanVarsChunk { key, chunk, .. }, .. } = e {
                        sent.push((key.0, chunk));
                    }
                }
            };
            log(src.on_deliver(plan_moving(0..4), now(), &mut m));
            log(src.on_direct(pull(2, 1), now(), &mut m));
            for i in 1..4 {
                log(src.on_wake(now() + CHUNK_WIRE_TIME.saturating_mul(i), &mut m));
            }
            let at = now() + CHUNK_WIRE_TIME.saturating_mul(4);
            for key in 0..4 {
                let ack = Direct::PlanVarsAck { version: PLAN_V1, key: LocKey(key), chunk: 0 };
                log(src.on_direct(ack, at, &mut m));
            }
            for i in 5..8 {
                log(src.on_wake(now() + CHUNK_WIRE_TIME.saturating_mul(i), &mut m));
            }
            sent
        };
        let expected = [(0, 0), (2, 0), (1, 0), (3, 0), (0, 1), (2, 1), (1, 1), (3, 1)];
        assert_eq!(run(false), expected);
        assert_eq!(run(true), expected);
    }

    /// Drives one `ServerCore` through a fixed delivered sequence of mixed
    /// read/write commands, processing `Wake` effects at their due times.
    /// Returns `(replies in emission order, final store)` — the two things
    /// the worker-pool width must never change.
    type MixedOutcome = (Vec<(u32, Vec<(VarId, i64)>)>, Vec<(u64, i64)>);

    fn run_mixed_stream(workers: u32) -> MixedOutcome {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        const VARS: u64 = 40;
        const CMDS: u32 = 400;

        let mut s = ServerCore::new(
            PartitionId(0),
            Mode::Dynastar,
            ServerConfig {
                exec: ExecConfig::pool(workers, SimDuration::from_micros(100)),
                ..ServerConfig::default()
            },
        );
        s.preload((0..4).map(LocKey), (0..VARS).map(|v| (VarId(v), 0i64)));
        let mut m = Metrics::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15C);
        let mut wakes: BTreeSet<SimTime> = BTreeSet::new();
        let mut replies: Vec<(u32, Vec<(VarId, i64)>)> = Vec::new();

        fn collect(
            eff: Vec<Effect<App>>,
            wakes: &mut BTreeSet<SimTime>,
            replies: &mut Vec<(u32, Vec<(VarId, i64)>)>,
        ) {
            for e in eff {
                match e {
                    Effect::Wake { at } => {
                        wakes.insert(at);
                    }
                    Effect::Send { msg: Direct::Reply { cmd, reply, .. }, .. } => {
                        replies.push((cmd.seq, reply));
                    }
                    _ => {}
                }
            }
        }

        for seq in 0..CMDS {
            // Deliveries outpace the 100 us service time, so the queue
            // stays deep enough for wide pools to matter.
            let now = SimTime::from_micros(u64::from(seq) * 37);
            while let Some(&at) = wakes.iter().next() {
                if at > now {
                    break;
                }
                wakes.remove(&at);
                collect(s.on_wake(at, &mut m), &mut wakes, &mut replies);
            }
            // ~30% reads; writes add a small random amount. Var sets of
            // 1-3 random vars give a mix of conflicting and independent
            // commands.
            let op: i64 = if rng.gen_range(0..100) < 30 { -1 } else { rng.gen_range(1..5) };
            let n = rng.gen_range(1..=3usize);
            let mut vars: Vec<VarId> = Vec::new();
            while vars.len() < n {
                let v = VarId(rng.gen_range(0..VARS));
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let expected: Vec<(VarId, PartitionId)> =
                vars.iter().map(|&v| (v, PartitionId(0))).collect();
            let payload = Payload::Access {
                cmd: Command {
                    id: MsgId::new(42, seq),
                    client: NodeId::from_raw(99),
                    kind: CommandKind::Access { op, vars },
                },
                attempt: 0,
                expected,
                target: PartitionId(0),
                keep: false,
            };
            collect(s.on_deliver(payload, now, &mut m), &mut wakes, &mut replies);
        }
        while let Some(&at) = wakes.iter().next() {
            wakes.remove(&at);
            collect(s.on_wake(at, &mut m), &mut wakes, &mut replies);
        }
        let store: Vec<(u64, i64)> =
            (0..VARS).map(|v| (v, *s.value_of(VarId(v)).expect("var present"))).collect();
        assert_eq!(replies.len(), CMDS as usize, "every delivered command must reply");
        if workers > 1 {
            assert!(
                m.counter(mn::EXEC_PARALLEL) > 0,
                "wide pools must actually overlap some commands"
            );
        }
        (replies, store)
    }

    /// The tentpole invariant: the worker pool is a *timing* model layered
    /// on a FIFO execution queue, so pool width must change neither one
    /// reply nor one stored value — only completion times. A seeded random
    /// stream of mixed reads/writes over overlapping var sets must come
    /// out bit-identical at every width.
    #[test]
    fn parallel_scheduler_preserves_replies_and_state_at_any_width() {
        let serial = run_mixed_stream(1);
        for workers in [2, 4, 8] {
            let wide = run_mixed_stream(workers);
            assert_eq!(
                serial.0, wide.0,
                "replies diverged between serial and {workers}-worker execution"
            );
            assert_eq!(
                serial.1, wide.1,
                "final state diverged between serial and {workers}-worker execution"
            );
        }
    }
}
