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
//!
//! The module is cut along what can own its state. This file applies what
//! is delivered — the queue, the access/borrow pump, plan application and
//! the destination side of migration — because all of that reads and
//! writes `owned`, `store` and `outmigrated`. `exec` decides *when* the
//! queue head may run and owns every modelled clock; `sender` owns the
//! staged transfers this replica is the source of and their send order.
//! Both keep their state private and hand back small outcome values that
//! the core records. `queue`, `store`, `meter` and `config` declare
//! what the core is built from.

mod config;
mod exec;
mod meter;
mod queue;
mod sender;
mod store;

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dynastar_amcast::MsgId;
use dynastar_runtime::dedup::{RotatingMap, RotatingSet};
use dynastar_runtime::{CounterId, Metrics, SimTime};

use crate::command::{
    AccessSets, Application, Command, CommandKind, LocKey, Mode, PartitionId, VarId,
};
use crate::hints::HintArena;
use crate::metric_names as mn;
use crate::migration::{
    migration_mid, MoveOutcome, PlanHistory, Settle, PLAN_HISTORY_PER_KEY, TAG_MIGRATION_DONE,
};
use crate::payload::{DedupKey, Destination, Direct, Effect, OracleDest, Payload};

pub use config::ServerConfig;
pub use exec::ExecConfig;
use exec::ExecScheduler;
use meter::{Meter, ServerMetricIds};
use queue::{trace_blocked, GateReason, Queued, Step};
#[cfg(test)]
pub(crate) use sender::CHUNK_SENDS;
use sender::{transfer_time, Sender, Shipment};
use store::{take_value, Awaited, StagedKey, Store};

/// Message-id origin space for partition-originated multicasts (hints);
/// clients use their node id as origin, which stays far below this.
pub const PARTITION_ORIGIN_BASE: u64 = 1_000_000_000;

#[cfg(test)]
thread_local! {
    /// Hint sequence numbers the partition cores on this thread consumed —
    /// one per hint multicast, which a cluster test cannot count through
    /// the simulator.
    pub(crate) static HINTS_SENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Variables shipped between partitions: `(var, value-or-absent)` pairs.
type VarShipment<A> = Shipment<<A as Application>::Value>;
/// Shipments collected per source partition.
type ShipmentsBySource<A> = BTreeMap<PartitionId, VarShipment<A>>;

/// The partition server protocol core. See the [module docs](self).
pub struct ServerCore<A: Application> {
    partition: PartitionId,
    mode: Mode,
    config: ServerConfig,
    /// Locality keys this partition owns.
    owned: BTreeSet<LocKey>,
    /// Values physically present.
    store: Store<A::Value>,
    queue: VecDeque<Queued<Command<A>>>,
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
    planvars_buffer: Vec<(u64, LocKey, PartitionId, VarShipment<A>, Vec<VarId>, bool)>,
    /// Staged migrations this partition is the source of.
    sender: Sender<A::Value>,
    /// Staged migrations this partition is the destination of.
    staging: BTreeMap<(u64, LocKey), StagedKey<A::Value>>,
    /// Bounded per-key log of plan decisions: `MigrationDone` /
    /// `MigrationRevert` settle by replaying the key's history (a revert of
    /// move v composes with a chained move at v+1), stray chunks for
    /// decided migrations are acked and dropped, and duplicates or
    /// below-floor stragglers are ignored (default-deny).
    history: PlanHistory,
    /// The modelled execution engine (see [`ExecConfig`]).
    exec: ExecScheduler,
    /// The interned handles of what this replica records.
    meter: Meter,
}

/// Cloning a core snapshots its full protocol state — every replica of a
/// partition holds identical state at the same log position, so a peer's
/// clone is exactly what a recovering replica must install. Written out
/// because deriving would bound `A: Clone`, and only `A`'s associated
/// types need to be cloneable.
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
            sender: self.sender.clone(),
            staging: self.staging.clone(),
            history: self.history.clone(),
            exec: self.exec.clone(),
            meter: self.meter.clone(),
        }
    }
}

impl<A: Application> ServerCore<A> {
    /// Creates the core of one replica of `partition`.
    pub fn new(partition: PartitionId, mode: Mode, config: ServerConfig) -> Self {
        ServerCore {
            partition,
            mode,
            owned: BTreeSet::new(),
            store: Store::default(),
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
            sender: Sender::new(partition),
            staging: BTreeMap::new(),
            history: PlanHistory::new(PLAN_HISTORY_PER_KEY),
            exec: ExecScheduler::new(config.exec),
            meter: Meter::new(partition),
            config,
        }
    }

    /// Adds `n` to the interned counter `pick` names, if this replica is
    /// the one that records.
    fn count(&mut self, metrics: &mut Metrics, pick: fn(&ServerMetricIds) -> CounterId, n: u64) {
        if n > 0 && self.config.record_metrics {
            let ids = self.meter.ids(metrics);
            metrics.incr(pick(&ids), n);
        }
    }

    /// One diagnostic line about this replica's queue (see [`trace_blocked`]).
    fn trace(&self, now: SimTime, what: fmt::Arguments<'_>) {
        trace_blocked(format_args!("[{}] t={} {}", self.partition, now, what));
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
        self.sender.set_replica(r, n);
    }

    /// Seeds initial state before the simulation starts (avoids issuing
    /// millions of create commands for benchmark datasets).
    pub fn preload(
        &mut self,
        keys: impl IntoIterator<Item = LocKey>,
        vars: impl IntoIterator<Item = (VarId, A::Value)>,
    ) {
        self.owned.extend(keys);
        self.store.extend(vars);
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
                let (cmd, expected) = (cmd.clone(), expected.clone());
                self.pull_awaited(&expected, metrics, &mut eff);
                let sets = self.exec.classify(&cmd);
                self.queue.push_back(Queued::Access {
                    cmd,
                    attempt: *attempt,
                    expected,
                    target: *target,
                    keep: *keep,
                    sent_vars: false,
                    sent_exchange: false,
                    sets,
                });
            }
            // A create or delete payload always carries a command of its
            // own kind; on the delivery path a violated invariant must not
            // take the replica down, so a mismatch is dropped.
            Payload::CreateKey { cmd, dest } => {
                if *dest == self.partition {
                    if let CommandKind::CreateKey { key, .. } = &cmd.kind {
                        let (cmd, key) = (cmd.clone(), *key);
                        self.queue.push_back(Queued::Create { cmd, key });
                    } else {
                        debug_assert!(false, "CreateKey payload without CreateKey command");
                    }
                }
            }
            Payload::DeleteKey { cmd, dest } => {
                if *dest == self.partition {
                    if let CommandKind::DeleteKey { key } = &cmd.kind {
                        let (cmd, key) = (cmd.clone(), *key);
                        self.queue.push_back(Queued::Delete { cmd, key });
                    } else {
                        debug_assert!(false, "DeleteKey payload without DeleteKey command");
                    }
                }
            }
            Payload::Plan { version, moves } => {
                // Record every move at *delivery* (the plan itself applies
                // later, through the queue): a Done/Revert delivered after
                // this plan but before its pump must already see the chain
                // when it replays the key's history.
                for &(key, from, to) in moves {
                    self.history.record_move(key, *version, from, to);
                }
                self.queue.push_back(Queued::Plan { version: *version, moves: moves.clone() });
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
                    self.sender.retire((key, version));
                }
                if matches!(settle, Settle::Applied { .. }) && to == self.partition {
                    let e =
                        self.staging.entry((version, key)).or_insert(StagedKey::new(from, true));
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
                        self.queue.push_back(Queued::Revert { version, key });
                    }
                }
            }
            Payload::Exec { .. } | Payload::Hint { .. } | Payload::Recompute { .. } => {
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

    /// Sends every shipment of borrowed variables received for
    /// `(cmd, attempt)` straight back to its lender, unchanged: the command
    /// will not execute here, and a lender blocks until its variables come
    /// home.
    fn bounce_vars_in(&mut self, cmd: MsgId, attempt: u32, eff: &mut Vec<Effect<A>>) {
        for (from, vars) in self.vars_in.remove(&(cmd, attempt)).into_iter().flatten() {
            eff.push(Effect::Send {
                to: Destination::Partition(from),
                msg: Direct::VarsReturn { cmd, attempt, vars },
            });
        }
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
                self.bounce_vars_in(cmd, attempt, &mut eff);
            }
            Direct::Signal { cmd } => {
                self.oracle_signals.insert(cmd);
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
                    let e = self.staging.entry(k).or_insert(StagedKey::new(from, false));
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
                self.sender.on_ack(&self.config, (key, version), chunk);
            }
            Direct::PlanVarsPull { key, to } => {
                if self.sender.on_pull(key, to) && self.config.record_metrics {
                    metrics.incr_counter(mn::MIGRATION_PULL_PROMOTIONS, 1);
                }
            }
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
        let vars: VarShipment<A> = e.chunks.into_values().flatten().collect();
        let count = vars.len() as u64;
        if self.owned.contains(&key) {
            for (v, val) in vars {
                self.store.put(v, val);
                self.awaiting_vars.remove(&v);
            }
            self.awaiting_keys.remove(&key);
            self.count(metrics, |ids| ids.objects_exchanged, count);
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
        vars: VarShipment<A>,
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
        self.count(metrics, |ids| ids.objects_exchanged, received);
    }

    // ------------------------------------------------------------------
    // Queue processing
    // ------------------------------------------------------------------

    /// Processes the queue head for as long as it can make progress. The
    /// head is popped while being worked on and pushed back if it must
    /// wait, keeping borrows of `self` free for the handlers.
    ///
    /// Commands *apply* strictly in delivery order: the execution engine
    /// only decides when the head is admitted ([`ExecScheduler::gate`]).
    /// This is also the one place that says why a head does not run.
    fn pump(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        loop {
            let Some(head) = self.queue.front() else { return };
            let gate = self.exec.gate(head.head(), now);
            let why = if now < gate {
                // The modelled engine cannot admit the head yet: ask the
                // hosting actor to wake us when it can.
                eff.push(Effect::Wake { at: gate });
                GateReason::ExecGate { until: gate }
            } else {
                let Some(mut entry) = self.queue.pop_front() else { return };
                let step = match &mut entry {
                    Queued::Access {
                        cmd,
                        attempt,
                        expected,
                        target,
                        keep,
                        sent_vars,
                        sent_exchange,
                        sets,
                    } => self.pump_access(
                        cmd,
                        *attempt,
                        expected,
                        *target,
                        *keep,
                        sent_vars,
                        sent_exchange,
                        sets,
                        now,
                        metrics,
                        eff,
                    ),
                    Queued::Create { cmd, key } => self.pump_create(cmd, *key, now, metrics, eff),
                    Queued::Delete { cmd, key } => self.pump_delete(cmd, *key, eff),
                    // The plan applies in one go and its entry is dropped.
                    Queued::Plan { version, moves } => {
                        self.pump_plan(*version, std::mem::take(moves), now, metrics, eff)
                    }
                    Queued::Revert { version, key } => {
                        self.pump_revert(*version, *key, metrics, eff)
                    }
                };
                match step {
                    Step::Done => continue,
                    Step::Wait(why) => {
                        self.queue.push_front(entry);
                        why
                    }
                }
            };
            // Gated or put back: the head is on the queue either way.
            let who = self.queue.front().and_then(Queued::who);
            self.trace(now, format_args!("head {who:?} waits: {why:?}"));
            return;
        }
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
    fn my_var_values(&self, expected: &[(VarId, PartitionId)]) -> VarShipment<A> {
        expected
            .iter()
            .filter(|&&(_, p)| p == self.partition)
            .map(|&(v, _)| (v, self.store.get(v).cloned()))
            .collect()
    }

    /// The head is a command: borrow, execute, return (Algorithm 3 Task 1).
    /// The entry is off the queue while it is worked on, so the command and
    /// its routing are borrowed from it, never copied.
    #[allow(clippy::too_many_arguments)]
    fn pump_access(
        &mut self,
        cmd: &Command<A>,
        attempt: u32,
        expected: &[(VarId, PartitionId)],
        target: PartitionId,
        keep: bool,
        sent_vars: &mut bool,
        sent_exchange: &mut bool,
        sets: &mut Option<AccessSets>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> Step {
        let (cmd_id, client) = (cmd.id, cmd.client);
        let CommandKind::Access { op, .. } = &cmd.kind else {
            // An `Access` payload always carries an `Access` command; on the
            // delivery path a violated invariant must not take the replica
            // down (P00x), so drop the command instead.
            debug_assert!(false, "access payload without access command");
            return Step::Done;
        };
        let multi = expected.windows(2).any(|w| w[0].1 != w[1].1);

        // Duplicate dispatch of an already-executed command: answer from
        // the reply cache, bounce any borrowed vars.
        if let Some(reply) = self.executed.get(&cmd_id) {
            if target == self.partition {
                eff.push(Effect::Send {
                    to: Destination::Client(client),
                    msg: Direct::Reply { cmd: cmd_id, attempt, reply: reply.clone() },
                });
                self.bounce_vars_in(cmd_id, attempt, eff);
            }
            return Step::Done;
        }

        // Known aborted: nothing to do but bounce what arrived since.
        if self.aborted.contains(&(cmd_id, attempt)) {
            self.bounce_vars_in(cmd_id, attempt, eff);
            return Step::Done;
        }

        // Staleness check for the variables expected of us.
        match self.my_vars_ready(expected) {
            Err(()) => {
                self.trace(
                    now,
                    format_args!("cmd={cmd_id} att={attempt} stale routing: {expected:?}"),
                );
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
                } else {
                    // We are the target: lenders that already shipped their
                    // variables block until they come back.
                    self.bounce_vars_in(cmd_id, attempt, eff);
                }
                self.aborted.insert((cmd_id, attempt));
                self.count(metrics, |ids| ids.cmd_retry, 1);
                return Step::Done;
            }
            Ok(false) => return Step::Wait(GateReason::AwaitingMigration),
            Ok(true) => {}
        }

        if !multi {
            // Single-partition fast path (Algorithm 3 Task 1a).
            let reply = self.run_op(op, expected, &mut BTreeMap::new());
            self.finish_execution(cmd, attempt, sets.take(), reply, false, now, metrics, eff);
            return Step::Done;
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
                    let ids = self.meter.ids(metrics);
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
                // Waiting for other partitions' shares.
                return Step::Wait(GateReason::BorrowedVars { have, need: dests.len() - 1 });
            }
            // Assemble the full variable map and execute everywhere; only
            // our own variables are written back.
            let shares = self.ssmr_in.remove(&(cmd_id, attempt)).unwrap_or_default();
            let mut vars: BTreeMap<VarId, Option<A::Value>> =
                shares.into_values().flatten().collect();
            let reply = self.run_op(op, expected, &mut vars);
            if self.config.record_metrics {
                let ids = self.meter.ids(metrics);
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
                    let ids = self.meter.ids(metrics);
                    metrics.record_at(ids.s_executed, now, 1.0);
                }
            }
            return Step::Done;
        }

        // DynaStar / DS-SMR path.
        if target == self.partition {
            // Target: wait until every other involved partition shipped.
            let have = self.vars_in.get(&(cmd_id, attempt)).map(|m| m.len()).unwrap_or(0);
            if have + 1 < dests.len() {
                return Step::Wait(GateReason::BorrowedVars { have, need: dests.len() - 1 });
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
            Step::Done
        } else {
            // Non-target: ship our variables, then (DynaStar) await return.
            if !*sent_vars {
                *sent_vars = true;
                let mine = self.my_var_values(expected);
                if self.config.record_metrics {
                    let ids = self.meter.ids(metrics);
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
                    return Step::Done;
                }
            }
            // DynaStar: block until the variables come home (line 17).
            let Some(returned) = self.returns_in.remove(&(cmd_id, attempt)) else {
                return Step::Wait(GateReason::Return { target });
            };
            for (v, val) in returned {
                self.lent.remove(&v);
                self.apply_returned_var(v, val, eff);
            }
            Step::Done
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
            let ids = self.meter.ids(metrics);
            metrics.incr(ids.objects_exchanged, returned_objects);
            metrics.record_at(ids.s_objects, now, returned_objects as f64);
        }
    }

    /// Occupies a modelled worker for the execution that just happened
    /// (`sets` are the command's, cached in its queue entry at delivery)
    /// and records what the scheduler reports about the admission.
    fn admit_execution(
        &mut self,
        id: MsgId,
        attempt: u32,
        sets: Option<AccessSets>,
        now: SimTime,
        metrics: &mut Metrics,
    ) {
        let Some(admitted) = self.exec.admit(id, attempt, sets, now) else { return };
        if self.config.record_metrics {
            let ids = self.meter.ids(metrics);
            metrics.incr(ids.exec_parallel, u64::from(admitted.parallel));
            metrics.incr(ids.exec_serialized, u64::from(admitted.serialized));
            metrics.incr(ids.exec_window_stall, u64::from(admitted.window_stall));
            let h = self.exec.worker_hist(metrics, admitted.worker);
            metrics.observe(h, self.config.exec.service_time);
        }
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
            let ids = self.meter.ids(metrics);
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

    /// Notes an executed command's key set for the workload graph and,
    /// when a batch is due, multicasts it whole to the planner shard
    /// (Algorithm 2 Task 4, partition side). Each hint consumes a hint
    /// sequence number; a batch of key-less commands sends nothing.
    fn record_hint(&mut self, cmd: &Command<A>, eff: &mut Vec<Effect<A>>) {
        if self.hints.record(cmd) < self.config.hint_batch as usize {
            return;
        }
        let (vertices, edges) = self.hints.flush();
        if vertices.is_empty() {
            return;
        }
        eff.push(Effect::Multicast {
            mid: MsgId::new(PARTITION_ORIGIN_BASE + self.partition.0 as u64, self.hint_seq),
            partitions: Vec::new(),
            oracle: OracleDest::Shard(0),
            payload: Payload::Hint { vertices, edges },
        });
        self.hint_seq += 1;
        #[cfg(test)]
        HINTS_SENT.set(HINTS_SENT.get() + 1);
    }

    /// Installs a created key once the oracle's rendezvous signal has
    /// arrived (Algorithm 3 Task 2).
    fn pump_create(
        &mut self,
        cmd: &Command<A>,
        key: LocKey,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> Step {
        if !self.oracle_signals.contains(&cmd.id) {
            return Step::Wait(GateReason::OracleSignal);
        }
        if let CommandKind::CreateKey { vars, .. } = &cmd.kind {
            self.owned.insert(key);
            for (v, val) in vars {
                self.store.put(*v, Some(val.clone()));
            }
        }
        if self.config.record_metrics {
            let ids = self.meter.ids(metrics);
            metrics.record_at(ids.s_executed, now, 1.0);
        }
        eff.push(Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Ack { cmd: cmd.id },
        });
        Step::Done
    }

    fn pump_delete(&mut self, cmd: &Command<A>, key: LocKey, eff: &mut Vec<Effect<A>>) -> Step {
        if self.awaiting_keys.contains_key(&key) {
            // Migration inbound; wait for the state first.
            return Step::Wait(GateReason::AwaitingMigration);
        }
        if !self.owned.contains(&key) {
            // Stale: the key moved away after the oracle routed the delete.
            eff.push(Effect::Send {
                to: Destination::Client(cmd.client),
                msg: Direct::Retry { cmd: cmd.id, attempt: 0 },
            });
            return Step::Done;
        }
        if !self.oracle_signals.contains(&cmd.id) {
            return Step::Wait(GateReason::OracleSignal);
        }
        self.owned.remove(&key);
        drop(self.store.extract(|v| A::locality(v) == key));
        eff.push(Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Ack { cmd: cmd.id },
        });
        Step::Done
    }

    /// Applies a plan: ownership of every moved key changes here, in queue
    /// order; the variables follow (staged through [`Sender`], or as one
    /// `PlanVars` shipment).
    fn pump_plan(
        &mut self,
        version: u64,
        moves: Vec<(LocKey, PartitionId, PartitionId)>,
        now: SimTime,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> Step {
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
                let vars: VarShipment<A> = self
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
                    let ids = self.meter.ids(metrics);
                    metrics.incr(ids.objects_exchanged, vars.len() as u64);
                    metrics.record_at(ids.s_objects, now, vars.len() as f64);
                }
                // Staged path: only for keys fully at rest here — owned
                // outright (not still awaiting an earlier migration) with
                // no variables lent out. Anything else keeps the classic
                // immediate shipment, so no supplement or returned loan
                // can ever land mid-staging.
                if self.config.staged_migration && !was_awaiting && pending.is_empty() {
                    self.sender.stage(&self.config, (key, version), to, vars);
                    self.count(metrics, |ids| ids.migration_keys_staged, 1);
                    continue; // chunks ship from the migration pump
                }
                // Unthrottled path under a configured bandwidth model: the
                // whole transfer charges the link at once — this is the
                // stall baseline staged migration is measured against.
                if self.config.migration_link_bytes_per_sec > 0 {
                    self.exec.charge(now, transfer_time(&self.config, vars.len()));
                }
                // Still awaiting the key ourselves, we are not
                // authoritative yet: send only what we hold, as a
                // supplement.
                if !was_awaiting || !vars.is_empty() {
                    eff.push(Effect::Send {
                        to: Destination::Partition(to),
                        msg: Direct::PlanVars {
                            version,
                            key,
                            from: self.partition,
                            vars,
                            pending,
                            primary: !was_awaiting,
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
            if let Queued::Access { expected, .. } = q {
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
        Step::Done
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
        version: u64,
        key: LocKey,
        metrics: &mut Metrics,
        eff: &mut Vec<Effect<A>>,
    ) -> Step {
        let Some(e) = self.sender.retire((key, version)) else {
            return Step::Done; // already dismantled (e.g. by a racing Done)
        };
        let owner = self.history.resolved_owner_versioned(key);
        match owner {
            Some((owner, owner_version)) if owner != self.partition => {
                if self.outmigrated.get(&key) == Some(&e.to) {
                    self.outmigrated.insert(key, owner);
                }
                if !self.owned.contains(&key) {
                    let vars: VarShipment<A> = e.chunks.into_iter().flatten().collect();
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
        self.count(metrics, |ids| ids.migration_reverts, 1);
        Step::Done
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

    /// Runs the migration pump and collapses this batch's `Wake` requests
    /// into the single earliest one. The hosting actor keeps one timer
    /// slot for wake-ups, so a later `Wake` would supersede an earlier
    /// one — the merged minimum must always include the migration pump's
    /// next instant (an ack deadline, or the link freeing up with chunks
    /// still to send) or a retransmit or the rest of a plan could be lost.
    /// A batch with neither wakes nor migration work leaves any previously
    /// armed timer intact.
    fn finalize_wakes(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        let pumped = self.sender.pump(&self.config, now, eff);
        self.count(metrics, |ids| ids.migration_chunks_sent, pumped.chunks_sent);
        self.count(metrics, |ids| ids.migration_chunk_retries, pumped.chunk_retries);
        let mut min_wake = pumped.next_due;
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

impl<A: Application> fmt::Debug for ServerCore<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerCore")
            .field("partition", &self.partition)
            .field("mode", &self.mode)
            .field("owned_keys", &self.owned.len())
            .field("stored_vars", &self.store.len())
            .field("queue", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::shard_of;
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
        // Waits silently: nothing is sent, nothing installed.
        assert!(!eff.iter().any(|e| matches!(e, Effect::Send { .. })));
        assert!(!s.owns(LocKey(4)));
        // Oracle's signal arrives → install + ack.
        let eff = s.on_direct(Direct::Signal { cmd: cmd.id }, now(), &mut m);
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
    fn linked_config() -> ServerConfig {
        ServerConfig {
            migration_var_bytes: 8 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
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
            let mut src = keyed_server(0, 0..20, ServerConfig { exec, ..linked_config() });
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
                let mut s = ServerCore::new(PartitionId(p), Mode::Dynastar, linked_config());
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
            let mut src = ServerCore::<App>::new(PartitionId(0), Mode::Dynastar, linked_config());
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
