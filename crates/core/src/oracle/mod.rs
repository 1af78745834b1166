//! The location oracle state machine (paper Algorithm 2 and §5.2).
//!
//! The oracle is a replicated partition: every replica runs an identical
//! `OracleCore` fed by the same atomic multicast deliveries, so replicas
//! stay in lock-step without extra coordination. Duplicate effects
//! (prophecies, follow-up multicasts) are deduplicated downstream —
//! multicasts by deterministic message ids, direct messages by receiver-
//! side dedup keys or client-side outstanding-command state.
//!
//! Responsibilities, and where each lives:
//!
//! * answer `Exec` requests with a *prophecy* and dispatch the command to
//!   the involved partitions (Task 1), and coordinate create/delete of
//!   locality keys (Tasks 2–3) — this file, which owns the location map;
//! * accumulate the workload graph from hints (Task 4) — `graph.rs`;
//! * past a change threshold, compute an optimized repartitioning with the
//!   multilevel partitioner and multicast the plan (Task 5) — `planner.rs`.
//!   Computation cost is modelled as a configurable delay so the simulated
//!   oracle "computes concurrently" as in §5.2 while replicas stay
//!   deterministic.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod config;
mod edge_rows;
mod graph;
mod planner;

use std::borrow::Borrow;
use std::collections::hash_map::Entry;

use dynastar_amcast::MsgId;
use dynastar_runtime::hash::FastHashMap;
use dynastar_runtime::{CounterId, Interned, Metrics, SeriesId, SimTime};

pub use self::config::OracleConfig;
use self::graph::WorkloadGraph;
use self::planner::Planner;
use crate::command::{Application, Command, CommandKind, LocKey, PartitionId};
use crate::metric_names as mn;
use crate::migration::{MoveOutcome, PlanHistory, Settle, PLAN_HISTORY_PER_KEY};
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::routing::{compute_route, dispatch_mid, shard_of, CREATE_TAG, DELETE_TAG};

/// Tags of the multicasts the oracle originates under its own origins (the
/// ids derived from a command are [`dispatch_mid`] and its neighbours).
mod tag {
    /// Plan publication.
    pub const PLAN: u32 = 300;
    /// Recompute-proposal marker ([`super::Payload::Recompute`]).
    pub const RECOMPUTE: u32 = 310;
}

/// Origin of plan and recompute-marker ids, whose `seq` is the version.
const PLANNER_ORIGIN: u64 = u64::MAX - 1;

/// A workload graph's `(key, weight)` vertices and `(a, b, weight)` edges,
/// `a < b`, in key order.
pub type GraphContent = (Vec<(LocKey, u64)>, Vec<(LocKey, LocKey, u64)>);

#[cfg(test)]
thread_local! {
    /// The most vertices a planner's workload graph on this thread held
    /// after merging a hint — what a cluster test cannot read through the
    /// simulator.
    pub(crate) static PLANNER_VERTICES: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// One oracle replica's protocol core. See the [module docs](self).
pub struct OracleCore<A: Application> {
    config: OracleConfig,
    /// The key → partition map. Every shard replicates the *full* map
    /// (all map-updating multicasts target every shard group, in the same
    /// pairwise-consistent total order), but only the
    /// [`shard_of`]-owned slice is authoritative for "this key does not
    /// exist" answers and for [`OracleCore::location_view`].
    map: FastHashMap<LocKey, PartitionId>,
    /// Bounded per-key log of plan decisions. `MigrationDone` /
    /// `MigrationRevert` are resolved by replaying the key's history, so a
    /// revert of move v composes with a chained move at v+1, and decisions
    /// below the compaction floor are ignored (default-deny).
    history: PlanHistory,
    /// Version of the last *applied* plan.
    plan_version: u64,
    /// The workload graph and its changes since the last plan. Only the
    /// planner shard (shard 0) is sent hints, so on any other it stays
    /// empty.
    graph: WorkloadGraph,
    planner: Planner,
    /// Interned (counter, series) ids for [`mn::ORACLE_QUERIES`] — the
    /// oracle's per-delivery hot path.
    query_ids: Interned<(CounterId, SeriesId)>,
    _marker: std::marker::PhantomData<A>,
}

/// Manual impl: deriving would bound `A: Clone`. A clone is the full
/// protocol state — what a recovering oracle replica installs from a live
/// peer.
impl<A: Application> Clone for OracleCore<A> {
    fn clone(&self) -> Self {
        OracleCore {
            config: self.config.clone(),
            map: self.map.clone(),
            history: self.history.clone(),
            plan_version: self.plan_version,
            graph: self.graph.clone(),
            planner: self.planner.clone(),
            query_ids: self.query_ids.clone(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<A: Application> OracleCore<A> {
    /// Creates an oracle replica core.
    ///
    /// # Panics
    ///
    /// Panics if `config.partitions` or `config.shards` is zero, or if
    /// `config.shard` is out of range.
    pub fn new(config: OracleConfig) -> Self {
        assert!(config.partitions > 0, "oracle needs at least one partition");
        assert!(config.shards > 0, "oracle needs at least one shard");
        assert!(config.shard < config.shards, "shard index out of range");
        OracleCore {
            config,
            map: FastHashMap::default(),
            history: PlanHistory::new(PLAN_HISTORY_PER_KEY),
            plan_version: 0,
            graph: WorkloadGraph::default(),
            planner: Planner::default(),
            query_ids: Interned::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Whether this core is the planner shard (shard 0).
    fn is_planner(&self) -> bool {
        self.config.shard == 0
    }

    /// Re-enables or disables metric recording — used after installing a
    /// peer's state clone, which carries the *donor's* recording flag.
    pub fn set_record_metrics(&mut self, on: bool) {
        self.config.record_metrics = on;
    }

    /// Seeds the location map before the simulation starts.
    pub fn preload_map(&mut self, entries: impl IntoIterator<Item = (LocKey, PartitionId)>) {
        self.map.extend(entries);
    }

    /// Current location of a key (test/debug aid).
    pub fn location_of(&self, key: LocKey) -> Option<PartitionId> {
        self.map.get(&key).copied()
    }

    /// Diagnostic: this shard's *owned slice* of the key→partition map as
    /// `(key, partition)` pairs in key order. Shard views are disjoint and
    /// union to the authoritative map, so convergence checks against the
    /// servers' views merge the slices. With one shard this is the full
    /// map, as before sharding.
    pub fn location_view(&self) -> Vec<(u64, u32)> {
        let mut view: Vec<(u64, u32)> = self
            .map
            .iter()
            .filter(|&(&k, _)| shard_of(k, self.config.shards) == self.config.shard)
            .map(|(k, p)| (k.0, p.0))
            .collect();
        view.sort_unstable();
        view
    }

    /// Number of keys tracked.
    pub fn tracked_keys(&self) -> usize {
        self.map.len()
    }

    /// Version of the last applied plan.
    pub fn plan_version(&self) -> u64 {
        self.plan_version
    }

    /// Number of vertices currently in the workload graph (0 off the
    /// planner shard).
    pub fn graph_vertices(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges currently in the workload graph (0 off the planner
    /// shard).
    pub fn graph_edges(&self) -> usize {
        self.graph.edge_count()
    }

    /// Diagnostic: the workload graph's content (empty off the planner
    /// shard).
    pub fn graph_view(&self) -> GraphContent {
        self.graph.content()
    }

    /// Changes merged into the workload graph since the last plan was
    /// applied — what the repartition threshold is compared with.
    pub fn graph_changes(&self) -> u64 {
        self.graph.changes()
    }

    /// Handles an atomic multicast delivery addressed to the oracle.
    ///
    /// The payload is read in place — every replica of every destination
    /// group is handed the same one; hint and plan bodies are never
    /// copied.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn on_deliver(
        &mut self,
        payload: impl Borrow<Payload<A>>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        match payload.borrow() {
            Payload::Exec { cmd, attempt } => {
                if self.config.record_metrics {
                    let &(c, s) = self.query_ids.get(metrics, |m| {
                        (m.counter_id(mn::ORACLE_QUERIES), m.series_id(mn::ORACLE_QUERIES))
                    });
                    metrics.incr(c, 1);
                    metrics.record_at(s, now, 1.0);
                }
                self.handle_exec(cmd, *attempt, &mut eff);
            }
            &Payload::CreateKey { ref cmd, dest } => {
                // A create payload always carries a create command; on the
                // delivery path a violated invariant must not take the
                // replica down, so a mismatch is dropped (the partition
                // drops it too).
                let CommandKind::CreateKey { key, .. } = cmd.kind else {
                    debug_assert!(false, "CreateKey payload without CreateKey command");
                    return eff;
                };
                // A late duplicate leaves the map alone: its client got
                // `nok` from its Exec and the partition installs nothing.
                if let Entry::Vacant(slot) = self.map.entry(key) {
                    slot.insert(dest);
                    self.planner.note_churn();
                }
                // Rendezvous signal towards the partition (Task 2).
                eff.push(Effect::Send {
                    to: Destination::Partition(dest),
                    msg: Direct::Signal { cmd: cmd.id },
                });
            }
            &Payload::DeleteKey { ref cmd, dest } => {
                let CommandKind::DeleteKey { key } = cmd.kind else {
                    debug_assert!(false, "DeleteKey payload without DeleteKey command");
                    return eff;
                };
                // Only delete if the key still lives where we routed the
                // delete; both oracle and partition observe the same order,
                // so their decisions agree.
                if self.map.get(&key) == Some(&dest) {
                    self.map.remove(&key);
                    self.graph.forget(key);
                    self.planner.note_churn();
                }
                eff.push(Effect::Send {
                    to: Destination::Partition(dest),
                    msg: Direct::Signal { cmd: cmd.id },
                });
            }
            Payload::HintSets { vertices, ranks, sets } if self.is_planner() => {
                // A partition's sets ascend within its vertex list; a batch
                // that does not is dropped whole rather than trusted.
                if self.graph.merge_sets(vertices, ranks, sets) {
                    self.after_merge(now, metrics, &mut eff);
                } else {
                    debug_assert!(false, "hint sets out of shape");
                }
            }
            Payload::Hint { vertices, edges } if self.is_planner() => {
                self.graph.merge(vertices, edges);
                self.after_merge(now, metrics, &mut eff);
            }
            // Partitions address hints to the planner alone.
            Payload::HintSets { .. } | Payload::Hint { .. } => {}
            &Payload::Recompute { version } => {
                // Compute at the marker's delivery position so every
                // replica snapshots the same graph.
                if self.planner.on_marker(&self.config, version, self.plan_version, self.map.len())
                {
                    self.start_recompute(now, &mut eff, metrics);
                }
            }
            Payload::Plan { version, moves } => {
                let version = *version;
                for &(key, from, to) in moves {
                    self.map.insert(key, to);
                    self.history.record_move(key, version, from, to);
                }
                self.plan_version = version;
                self.planner.on_plan_applied(now);
                // Every shard applies the plan to its map replica; only
                // the planner records it, or the counters would multiply
                // by the shard count.
                if self.is_planner() {
                    self.graph.reset_changes();
                    if self.config.record_metrics {
                        metrics.incr_counter(mn::PLANS_PUBLISHED, 1);
                        metrics.record_series(mn::PLAN_MOVES, now, moves.len() as f64);
                    }
                }
            }
            &Payload::MigrationDone { version, key, from, to } => {
                // Replay the key's plan history with this move marked done:
                // the map lands on the destination of the last non-reverted
                // move, which a chained plan may have shifted past `to`.
                if let Settle::Applied { owner } =
                    self.history.settle(key, version, from, to, MoveOutcome::Done)
                {
                    self.map.insert(key, owner);
                }
            }
            &Payload::MigrationRevert { version, key, from, to } => {
                // Replay with this move annulled: a revert of v composes
                // with a chained move at v+1 (owner stays at v+1's
                // destination) instead of bouncing the key back to `from`.
                // Duplicates and below-floor stragglers are Stale no-ops.
                if let Settle::Applied { owner } =
                    self.history.settle(key, version, from, to, MoveOutcome::Reverted)
                {
                    self.map.insert(key, owner);
                }
            }
            Payload::Access { cmd, target, expected, .. } => {
                // DS-SMR: the oracle co-delivers multi-partition accesses
                // and moves the touched keys to the target in its map.
                if self.config.mode.keeps_moved_state() {
                    let keys = cmd.keys();
                    let multi = {
                        let mut ps: Vec<PartitionId> = expected.iter().map(|&(_, p)| p).collect();
                        ps.sort_unstable();
                        ps.dedup();
                        ps.len() > 1
                    };
                    if multi {
                        for key in keys {
                            self.map.insert(key, *target);
                        }
                    }
                }
            }
        }
        eff
    }

    /// Periodic check (driven by the hosting actor's tick): the planner
    /// proposes a recompute if the change threshold was crossed while the
    /// minimum-interval gate was still closed.
    pub fn on_tick(&mut self, now: SimTime, _metrics: &mut Metrics) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        self.maybe_propose_recompute(now, &mut eff);
        eff
    }

    /// A query's answer, stamped with the plan version it holds under.
    fn prophecy(
        &self,
        cmd: &Command<A>,
        ok: bool,
        locations: Vec<(LocKey, PartitionId)>,
    ) -> Effect<A> {
        Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Prophecy { cmd: cmd.id, ok, locations, version: self.plan_version },
        }
    }

    /// Sends the client on to another shard: its retry's attempt rotation
    /// reaches the owner of the key's slice within `shards` attempts.
    fn refer_back(cmd: &Command<A>, attempt: u32) -> Effect<A> {
        Effect::Send {
            to: Destination::Client(cmd.client),
            msg: Direct::Retry { cmd: cmd.id, attempt },
        }
    }

    /// Whether this shard is the authority for `key` existing or not.
    fn owns(&self, key: LocKey) -> bool {
        shard_of(key, self.config.shards) == self.config.shard
    }

    /// Task 1: route a command, reply with a prophecy, dispatch.
    fn handle_exec(&mut self, cmd: &Command<A>, attempt: u32, eff: &mut Vec<Effect<A>>) {
        match &cmd.kind {
            // Clients route create and delete queries to the key's owner
            // shard; a misdirected one is referred back rather than
            // answered from a possibly-lagging foreign-slice replica.
            CommandKind::CreateKey { key, .. } | CommandKind::DeleteKey { key }
                if !self.owns(*key) =>
            {
                eff.push(Self::refer_back(cmd, attempt));
            }
            &CommandKind::CreateKey { key, .. } => {
                if let Some(&at) = self.map.get(&key) {
                    eff.push(self.prophecy(cmd, false, vec![(key, at)]));
                    return;
                }
                // Deterministic "random" partition pick: every oracle
                // replica derives the same choice from the command id.
                let dest = PartitionId(
                    ((cmd.id.origin.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cmd.id.seq as u64)
                        % self.config.partitions as u64) as u32,
                );
                eff.push(self.prophecy(cmd, true, vec![(key, dest)]));
                eff.push(Effect::Multicast {
                    mid: cmd.id.derived(CREATE_TAG),
                    partitions: vec![dest],
                    // Every shard's map replica must observe the insert.
                    oracle: OracleDest::All,
                    payload: Payload::CreateKey { cmd: cmd.clone(), dest },
                });
            }
            &CommandKind::DeleteKey { key } => {
                let Some(&dest) = self.map.get(&key) else {
                    eff.push(self.prophecy(cmd, false, Vec::new()));
                    return;
                };
                eff.push(self.prophecy(cmd, true, vec![(key, dest)]));
                eff.push(Effect::Multicast {
                    mid: cmd.id.derived(DELETE_TAG),
                    partitions: vec![dest],
                    oracle: OracleDest::All,
                    payload: Payload::DeleteKey { cmd: cmd.clone(), dest },
                });
            }
            CommandKind::Access { .. } => {
                let route = compute_route(cmd, |k| self.map.get(&k).copied());
                let Some(route) = route else {
                    // A key is missing. Only the shard *owning* a missing
                    // key's slice may answer `nok` — a foreign-slice
                    // replica could merely be behind on that slice's
                    // create. If none of the missing keys is ours, refer
                    // the client back.
                    let authoritative = self.config.shards == 1
                        || cmd.keys().iter().any(|&k| !self.map.contains_key(&k) && self.owns(k));
                    eff.push(if authoritative {
                        self.prophecy(cmd, false, Vec::new())
                    } else {
                        Self::refer_back(cmd, attempt)
                    });
                    return;
                };
                let locations: Vec<(LocKey, PartitionId)> = cmd
                    .keys()
                    .into_iter()
                    .filter_map(|k| self.map.get(&k).map(|&p| (k, p)))
                    .collect();
                eff.push(self.prophecy(cmd, true, locations));
                let keep = self.config.mode.keeps_moved_state() && route.is_multi_partition();
                eff.push(Effect::Multicast {
                    mid: dispatch_mid(cmd.id, attempt),
                    partitions: route.dests.clone(),
                    // DS-SMR keep moves keys in every shard's map replica.
                    oracle: if keep { OracleDest::All } else { OracleDest::None },
                    payload: Payload::Access {
                        cmd: cmd.clone(),
                        attempt,
                        expected: route.expected,
                        target: route.target,
                        keep,
                    },
                });
            }
        }
    }

    /// Proposes a recompute marker when the planner's local gates pass;
    /// the compute itself runs at the marker's *delivery* (see
    /// [`Payload::Recompute`]).
    fn maybe_propose_recompute(&mut self, now: SimTime, eff: &mut Vec<Effect<A>>) {
        let due =
            self.planner.due(now, &self.config, &self.graph, self.plan_version, self.map.len());
        if let Some(version) = due {
            eff.push(Effect::Multicast {
                mid: MsgId { origin: PLANNER_ORIGIN, seq: version as u32, tag: tag::RECOMPUTE },
                partitions: Vec::new(),
                // Only the planner computes; the marker stays on its group.
                oracle: OracleDest::Shard(0),
                payload: Payload::Recompute { version },
            });
        }
    }

    /// Brings the graph back under its caps after a hint batch, and
    /// proposes a recompute if the batch made one due.
    fn after_merge(&mut self, now: SimTime, metrics: &mut Metrics, eff: &mut Vec<Effect<A>>) {
        #[cfg(test)]
        PLANNER_VERTICES.set(PLANNER_VERTICES.get().max(self.graph_vertices()));
        let (max_v, max_e) = (self.config.max_graph_vertices, self.config.max_graph_edges);
        let evicted = self.graph.enforce_caps(max_v, max_e);
        if evicted > 0 && self.config.record_metrics {
            metrics.incr_counter(mn::ORACLE_GRAPH_EVICTIONS, evicted);
        }
        self.maybe_propose_recompute(now, eff);
    }

    /// Computes a plan from the current map and graph and schedules its
    /// publication after the modelled compute time.
    fn start_recompute(&mut self, now: SimTime, eff: &mut Vec<Effect<A>>, metrics: &mut Metrics) {
        let mut keys: Vec<(LocKey, PartitionId)> = self.map.iter().map(|(&k, &p)| (k, p)).collect();
        keys.sort_unstable();
        let version = self.plan_version + 1;
        let started = self.planner.start_compute(now, &self.graph, &keys, &self.config, version);
        if self.config.record_metrics {
            if started.warm {
                metrics.incr_counter(mn::PLANS_WARM, 1);
            }
            metrics.record_series(mn::PLAN_EDGE_CUT, now, started.cut_frac);
        }
        eff.push(Effect::SchedulePlan { after: started.after });
        // The plan saw the weights as they were; only then do they decay.
        if self.config.decay_hints {
            self.graph.decay();
        }
    }

    /// Fires when the modelled compute time elapses: publish the pending
    /// plan to every partition and the oracle itself. A spurious firing
    /// with no plan pending doubles as a periodic re-evaluation point —
    /// if the change threshold was crossed while the timer was armed for
    /// other reasons, the recompute starts here instead of waiting for
    /// the next hint or tick.
    pub fn on_plan_timer(&mut self, now: SimTime, metrics: &mut Metrics) -> Vec<Effect<A>> {
        let Some((version, moves, took)) = self.planner.take_pending(now) else {
            let mut eff = Vec::new();
            self.maybe_propose_recompute(now, &mut eff);
            return eff;
        };
        if self.config.record_metrics {
            metrics.record_histogram(mn::PLAN_COMPUTE_TIME, took);
        }
        vec![Effect::Multicast {
            mid: MsgId { origin: PLANNER_ORIGIN, seq: version as u32, tag: tag::PLAN },
            partitions: (0..self.config.partitions).map(PartitionId).collect(),
            // Every shard applies the plan to its full-map replica.
            oracle: OracleDest::All,
            payload: Payload::Plan { version, moves },
        }]
    }
}

impl<A: Application> std::fmt::Debug for OracleCore<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleCore")
            .field("keys", &self.map.len())
            .field("graph_vertices", &self.graph.vertex_count())
            .field("graph_edges", &self.graph.edge_count())
            .field("changes", &self.graph.changes())
            .field("plan_version", &self.plan_version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandKind, Mode};
    use dynastar_runtime::{NodeId, SimDuration};
    use std::collections::BTreeMap as Map;

    struct App;
    impl Application for App {
        type Op = ();
        type Value = u64;
        type Reply = ();
        fn locality(var: crate::command::VarId) -> LocKey {
            LocKey(var.0 / 10)
        }
        fn execute(_: &(), _: &mut Map<crate::command::VarId, Option<u64>>) {}
    }

    fn oracle(partitions: u32) -> OracleCore<App> {
        let mut o = OracleCore::new(OracleConfig {
            partitions,
            repartition_threshold: 5,
            min_plan_interval: SimDuration::from_millis(1),
            ..OracleConfig::default()
        });
        o.preload_map((0..4).map(|k| (LocKey(k), PartitionId((k % partitions as u64) as u32))));
        o
    }

    fn cmd(kind: CommandKind<App>) -> Command<App> {
        Command { id: MsgId::new(7, 0), client: NodeId::from_raw(9), kind }
    }

    fn access(vars: Vec<u64>) -> Command<App> {
        cmd(CommandKind::Access {
            op: (),
            vars: vars.into_iter().map(crate::command::VarId).collect(),
        })
    }

    fn now() -> SimTime {
        SimTime::from_secs(10)
    }

    /// Completes the recompute agreement round: pulls the proposed
    /// [`Payload::Recompute`] marker out of `eff` and delivers it back,
    /// returning the delivery's effects (which carry the `SchedulePlan`).
    fn deliver_marker(
        o: &mut OracleCore<App>,
        eff: &[Effect<App>],
        at: SimTime,
        m: &mut Metrics,
    ) -> Vec<Effect<App>> {
        let marker = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast { payload: p @ Payload::Recompute { .. }, .. } => Some(p.clone()),
                _ => None,
            })
            .expect("recompute marker proposed");
        o.on_deliver(marker, at, m)
    }

    #[test]
    fn exec_routes_single_partition_access() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let eff =
            o.on_deliver(Payload::Exec { cmd: access(vec![0, 5]), attempt: 0 }, now(), &mut m);
        // Prophecy to the client + an Access multicast to partition 0.
        let has_prophecy = eff.iter().any(|e| {
            matches!(
                e,
                Effect::Send { to: Destination::Client(_), msg: Direct::Prophecy { ok: true, .. } }
            )
        });
        assert!(has_prophecy);
        let mcast = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast {
                    partitions,
                    oracle,
                    payload: Payload::Access { target, .. },
                    ..
                } => Some((partitions.clone(), *oracle, *target)),
                _ => None,
            })
            .expect("access dispatched");
        assert_eq!(mcast.0, vec![PartitionId(0)]);
        assert_eq!(mcast.1, OracleDest::None, "oracle not a destination in DynaStar mode");
        assert_eq!(mcast.2, PartitionId(0));
        assert_eq!(m.counter(crate::metric_names::ORACLE_QUERIES), 1);
    }

    #[test]
    fn exec_unknown_key_is_nok() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let eff = o.on_deliver(Payload::Exec { cmd: access(vec![999]), attempt: 0 }, now(), &mut m);
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Send { msg: Direct::Prophecy { ok: false, .. }, .. })));
        assert!(!eff.iter().any(|e| matches!(e, Effect::Multicast { .. })));
    }

    #[test]
    fn create_picks_partition_and_coordinates() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let c = cmd(CommandKind::CreateKey { key: LocKey(77), vars: vec![] });
        let eff = o.on_deliver(Payload::Exec { cmd: c.clone(), attempt: 0 }, now(), &mut m);
        let dest = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast {
                    oracle: OracleDest::All,
                    payload: Payload::CreateKey { dest, .. },
                    ..
                } => Some(*dest),
                _ => None,
            })
            .expect("create coordinated");
        // Map updates at CreateKey *delivery*, not dispatch.
        assert_eq!(o.location_of(LocKey(77)), None);
        let _ = o.on_deliver(Payload::CreateKey { cmd: c, dest }, now(), &mut m);
        assert_eq!(o.location_of(LocKey(77)), Some(dest));
    }

    #[test]
    fn duplicate_create_is_nok() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let c = cmd(CommandKind::CreateKey { key: LocKey(0), vars: vec![] });
        let eff = o.on_deliver(Payload::Exec { cmd: c, attempt: 0 }, now(), &mut m);
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Send { msg: Direct::Prophecy { ok: false, .. }, .. })));
    }

    #[test]
    fn delete_applies_only_if_location_unchanged() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let c = cmd(CommandKind::DeleteKey { key: LocKey(0) });
        // Stale delete routed to the wrong (old) partition is ignored.
        let _ = o.on_deliver(
            Payload::DeleteKey { cmd: c.clone(), dest: PartitionId(1) },
            now(),
            &mut m,
        );
        assert!(o.location_of(LocKey(0)).is_some());
        let _ = o.on_deliver(Payload::DeleteKey { cmd: c, dest: PartitionId(0) }, now(), &mut m);
        assert_eq!(o.location_of(LocKey(0)), None);
    }

    #[test]
    fn hints_trigger_plan_after_threshold_and_interval() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        // Below threshold: nothing.
        let eff = o.on_deliver(
            Payload::Hint { vertices: vec![(LocKey(0), 1)], edges: vec![] },
            SimTime::from_millis(0),
            &mut m,
        );
        assert!(eff.is_empty());
        // Past threshold and interval: a recompute marker is proposed; the
        // compute itself starts only at the marker's delivery (the agreed
        // log position every replica snapshots the graph at).
        let eff = o.on_deliver(
            Payload::Hint {
                vertices: (0..4).map(|k| (LocKey(k), 5)).collect(),
                edges: vec![(LocKey(0), LocKey(1), 20), (LocKey(2), LocKey(3), 20)],
            },
            SimTime::from_millis(2),
            &mut m,
        );
        assert!(
            !eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. })),
            "compute must wait for the marker's delivery"
        );
        let eff = deliver_marker(&mut o, &eff, SimTime::from_millis(3), &mut m);
        let schedule = eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. }));
        assert!(schedule, "plan compute should be scheduled at marker delivery");
        // The timer fires → the plan is multicast to all partitions + self.
        let eff = o.on_plan_timer(SimTime::from_millis(200), &mut m);
        let plan = eff.iter().find_map(|e| match e {
            Effect::Multicast {
                partitions,
                oracle: OracleDest::All,
                payload: Payload::Plan { version, .. },
                ..
            } => Some((partitions.len(), *version)),
            _ => None,
        });
        let (nparts, version) = plan.expect("plan published");
        assert_eq!(nparts, 2);
        assert_eq!(version, 1);
    }

    #[test]
    fn recompute_marker_is_proposed_once_per_version() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let hint = || Payload::Hint {
            vertices: (0..4).map(|k| (LocKey(k), 5)).collect(),
            edges: vec![(LocKey(0), LocKey(1), 20)],
        };
        let proposals = |eff: &[Effect<App>]| {
            eff.iter()
                .filter(|e| {
                    matches!(e, Effect::Multicast { payload: Payload::Recompute { .. }, .. })
                })
                .count()
        };
        let eff = o.on_deliver(hint(), SimTime::from_millis(2), &mut m);
        assert_eq!(proposals(&eff), 1, "gates open: the marker is proposed");
        // Gates still open before the marker delivers: no duplicate — the
        // proposal for this version is already in flight.
        let eff = o.on_deliver(hint(), SimTime::from_millis(4), &mut m);
        assert_eq!(proposals(&eff), 0);
        assert_eq!(proposals(&o.on_tick(SimTime::from_millis(5), &mut m)), 0);

        // A marker raced by an already-installed newer plan is dropped
        // (no compute) but must not wedge future proposals.
        let mut o2 = oracle(2);
        let _ = o2.on_deliver(Payload::Plan { version: 1, moves: vec![] }, SimTime::ZERO, &mut m);
        let eff = o2.on_deliver(Payload::Recompute { version: 1 }, SimTime::from_millis(1), &mut m);
        assert!(eff.is_empty(), "stale marker must not start a compute");
        let eff = o2.on_deliver(hint(), SimTime::from_millis(10), &mut m);
        assert_eq!(proposals(&eff), 1, "replica can still propose the next version");
    }

    #[test]
    fn skewed_replicas_publish_identical_plans_via_marker() {
        // Regression for a split-brain wedge: the minimum-interval
        // recompute gate mixes replica-local delivery time, so two oracle
        // replicas delivering the same hint log can pass it at different
        // hints. Acting on the gate directly, each would snapshot a
        // different workload graph and publish divergent plans under the
        // same deterministic plan id — receivers keep whichever copy
        // arrives first, and key ownership splits. The marker pins the
        // compute to one log position, so payloads must match exactly.
        let mut a = oracle(2);
        let mut b = oracle(2);
        let mut m = Metrics::new();
        let h1 = || Payload::Hint {
            vertices: (0..4).map(|k| (LocKey(k), 5)).collect(),
            edges: vec![(LocKey(0), LocKey(1), 100), (LocKey(2), LocKey(3), 100)],
        };
        let h2 = || Payload::Hint {
            vertices: (0..4).map(|k| (LocKey(k), 5)).collect(),
            edges: vec![(LocKey(0), LocKey(3), 1000), (LocKey(1), LocKey(2), 1000)],
        };
        // Replica A's local clock has the interval gate open at the first
        // hint; replica B's opens only at the second. Without the marker,
        // A would compute from {h1} and B from {h1, h2}.
        let eff_a = a.on_deliver(h1(), SimTime::from_millis(2), &mut m);
        let marker = eff_a
            .iter()
            .find_map(|e| match e {
                Effect::Multicast { payload: p @ Payload::Recompute { .. }, .. } => Some(p.clone()),
                _ => None,
            })
            .expect("replica A proposes at the first hint");
        let _ = b.on_deliver(h1(), SimTime::from_micros(500), &mut m);
        let _ = a.on_deliver(h2(), SimTime::from_millis(3), &mut m);
        let _ = b.on_deliver(h2(), SimTime::from_micros(1600), &mut m);
        // The marker occupies the same log position on both replicas (B's
        // own proposal, if any, is deduplicated into it by message id).
        let _ = a.on_deliver(marker.clone(), SimTime::from_millis(4), &mut m);
        let _ = b.on_deliver(marker, SimTime::from_millis(2), &mut m);
        let plan_of = |eff: &[Effect<App>]| {
            eff.iter().find_map(|e| match e {
                Effect::Multicast { payload: Payload::Plan { version, moves }, .. } => {
                    Some((*version, moves.clone()))
                }
                _ => None,
            })
        };
        let pa = plan_of(&a.on_plan_timer(SimTime::from_millis(100), &mut m))
            .expect("replica A publishes");
        let pb = plan_of(&b.on_plan_timer(SimTime::from_millis(90), &mut m))
            .expect("replica B publishes");
        assert_eq!(pa, pb, "same log must yield byte-identical plans on every replica");
    }

    #[test]
    fn second_recompute_takes_the_warm_start_path() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let hint = || Payload::Hint {
            vertices: (0..4).map(|k| (LocKey(k), 50)).collect(),
            edges: vec![(LocKey(0), LocKey(1), 100), (LocKey(2), LocKey(3), 100)],
        };
        // First recompute: no reference cut yet -> full multilevel.
        let eff = o.on_deliver(hint(), SimTime::from_millis(2), &mut m);
        let eff = deliver_marker(&mut o, &eff, SimTime::from_millis(3), &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. })));
        assert_eq!(m.counter(crate::metric_names::PLANS_WARM), 0, "first plan must run full");
        let eff = o.on_plan_timer(SimTime::from_millis(100), &mut m);
        let plan = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast { payload: p @ Payload::Plan { .. }, .. } => Some(p.clone()),
                _ => None,
            })
            .expect("first plan published");
        let _ = o.on_deliver(plan, SimTime::from_millis(100), &mut m);
        assert_eq!(o.plan_version(), 1);
        // Second recompute over a stable keyspace: warm start.
        let eff = o.on_deliver(hint(), SimTime::from_millis(200), &mut m);
        let eff = deliver_marker(&mut o, &eff, SimTime::from_millis(201), &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. })));
        assert_eq!(m.counter(crate::metric_names::PLANS_WARM), 1, "second plan should warm-start");
    }

    #[test]
    fn churned_keyspace_disables_warm_start() {
        let mut o = OracleCore::<App>::new(OracleConfig {
            partitions: 2,
            repartition_threshold: 5,
            min_plan_interval: SimDuration::from_millis(1),
            warm_churn_limit: 0.25,
            ..OracleConfig::default()
        });
        o.preload_map((0..4).map(|k| (LocKey(k), PartitionId((k % 2) as u32))));
        let mut m = Metrics::new();
        let hint = || Payload::Hint {
            vertices: (0..4).map(|k| (LocKey(k), 50)).collect(),
            edges: vec![(LocKey(0), LocKey(1), 100), (LocKey(2), LocKey(3), 100)],
        };
        let eff = o.on_deliver(hint(), SimTime::from_millis(2), &mut m);
        let _ = deliver_marker(&mut o, &eff, SimTime::from_millis(3), &mut m);
        let eff = o.on_plan_timer(SimTime::from_millis(100), &mut m);
        let plan = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast { payload: p @ Payload::Plan { .. }, .. } => Some(p.clone()),
                _ => None,
            })
            .expect("first plan published");
        let _ = o.on_deliver(plan, SimTime::from_millis(100), &mut m);
        // Churn past the 25% limit: create 3 fresh keys (3/7 > 0.25).
        for k in 10..13u64 {
            let c = cmd(CommandKind::CreateKey { key: LocKey(k), vars: vec![] });
            let _ = o.on_deliver(
                Payload::CreateKey { cmd: c, dest: PartitionId(0) },
                SimTime::from_millis(150),
                &mut m,
            );
        }
        let eff = o.on_deliver(hint(), SimTime::from_millis(200), &mut m);
        let _ = deliver_marker(&mut o, &eff, SimTime::from_millis(201), &mut m);
        assert_eq!(
            m.counter(crate::metric_names::PLANS_WARM),
            0,
            "churned keyspace must fall back to the full pipeline"
        );
    }

    #[test]
    fn plan_delivery_updates_map_and_version() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let _ = o.on_deliver(
            Payload::Plan { version: 3, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        assert_eq!(o.location_of(LocKey(0)), Some(PartitionId(1)));
        assert_eq!(o.plan_version(), 3);
    }

    #[test]
    fn graph_cap_evicts_lowest_weight_entries() {
        let mut o: OracleCore<App> = OracleCore::new(OracleConfig {
            partitions: 2,
            repartition_threshold: u64::MAX, // never recompute in this test
            decay_hints: false,
            max_graph_vertices: 8,
            max_graph_edges: 4,
            ..OracleConfig::default()
        });
        let mut m = Metrics::new();
        // A churning keyspace: 100 distinct keys, most seen once, a few hot.
        for k in 0..100u64 {
            let w = if k < 4 { 1_000 } else { 1 };
            let _ = o.on_deliver(
                Payload::Hint {
                    vertices: vec![(LocKey(k), w)],
                    edges: vec![(LocKey(k), LocKey(k + 1), w)],
                },
                now(),
                &mut m,
            );
        }
        assert!(o.graph_vertices() <= 8, "vertices capped, got {}", o.graph_vertices());
        assert!(o.graph_edges() <= 4, "edges capped, got {}", o.graph_edges());
        assert!(m.counter(crate::metric_names::ORACLE_GRAPH_EVICTIONS) > 0);
    }

    #[test]
    fn recompute_decay_drops_zero_weight_vertices() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        // Weight-1 vertices decay to zero at the recompute and must be
        // dropped, not retained forever.
        let eff = o.on_deliver(
            Payload::Hint {
                vertices: (0..4).map(|k| (LocKey(k), 1)).collect(),
                edges: vec![(LocKey(0), LocKey(1), 20)],
            },
            SimTime::from_millis(2),
            &mut m,
        );
        let eff = deliver_marker(&mut o, &eff, SimTime::from_millis(3), &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. })));
        assert_eq!(o.graph_vertices(), 0, "decayed-to-zero vertices linger");
    }

    #[test]
    fn dssmr_access_migrates_keys_in_map() {
        let mut o: OracleCore<App> = OracleCore::new(OracleConfig {
            partitions: 2,
            mode: Mode::DsSmr,
            ..OracleConfig::default()
        });
        o.preload_map([(LocKey(0), PartitionId(0)), (LocKey(1), PartitionId(1))]);
        let mut m = Metrics::new();
        let c = access(vec![0, 10]); // keys 0 and 1
        let _ = o.on_deliver(
            Payload::Access {
                cmd: c,
                attempt: 0,
                expected: vec![
                    (crate::command::VarId(0), PartitionId(0)),
                    (crate::command::VarId(10), PartitionId(1)),
                ],
                target: PartitionId(1),
                keep: true,
            },
            now(),
            &mut m,
        );
        assert_eq!(o.location_of(LocKey(0)), Some(PartitionId(1)), "key migrated to target");
        assert_eq!(o.location_of(LocKey(1)), Some(PartitionId(1)));
    }

    /// A plan-timer firing with no plan pending doubles as a periodic
    /// re-evaluation point: if the change threshold was crossed while the
    /// timer was armed, the recompute starts right there.
    #[test]
    fn spurious_plan_timer_starts_overdue_recompute() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        // Nothing pending, nothing overdue: a spurious firing is a no-op.
        assert!(o.on_plan_timer(SimTime::from_millis(1), &mut m).is_empty());
        // Cross the change threshold *below* the min interval so the hint
        // itself cannot start the recompute (delivered at t=0 with a 1 ms
        // interval floor measured from t=0... use t=0 for the hint).
        let eff = o.on_deliver(
            Payload::Hint {
                vertices: (0..4).map(|k| (LocKey(k), 5)).collect(),
                edges: vec![(LocKey(0), LocKey(1), 20), (LocKey(2), LocKey(3), 20)],
            },
            SimTime::from_millis(0),
            &mut m,
        );
        assert!(
            !eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. })),
            "hint within the min interval must not start the recompute"
        );
        // The timer fires later with no pending plan: the overdue recompute
        // is proposed here instead of waiting for the next hint, and starts
        // at the marker's delivery.
        let eff = o.on_plan_timer(SimTime::from_millis(50), &mut m);
        assert!(
            eff.iter()
                .any(|e| matches!(e, Effect::Multicast { payload: Payload::Recompute { .. }, .. })),
            "spurious timer must propose the overdue recompute"
        );
        let eff = deliver_marker(&mut o, &eff, SimTime::from_millis(51), &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::SchedulePlan { .. })));
        // And its completion publishes as usual, recording compute time.
        let eff = o.on_plan_timer(SimTime::from_millis(150), &mut m);
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Multicast { payload: Payload::Plan { version: 1, .. }, .. }
        )));
        let h = m.histogram(crate::metric_names::PLAN_COMPUTE_TIME).expect("compute time recorded");
        assert_eq!(h.count(), 1);
    }

    /// `MigrationRevert` restores a key's pre-plan location (first decision
    /// for the migration wins), so later prophecies route clients to the
    /// partition that actually holds the data.
    #[test]
    fn migration_revert_rolls_back_map_entry() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let _ = o.on_deliver(
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        assert_eq!(o.location_of(LocKey(0)), Some(PartitionId(1)));
        let revert = Payload::MigrationRevert {
            version: 1,
            key: LocKey(0),
            from: PartitionId(0),
            to: PartitionId(1),
        };
        let _ = o.on_deliver(revert.clone(), now(), &mut m);
        assert_eq!(o.location_of(LocKey(0)), Some(PartitionId(0)), "revert rolls the map back");
        // A racing Done delivered after the revert settled must not flip
        // the entry again, and a duplicate revert is idempotent.
        let _ = o.on_deliver(
            Payload::MigrationDone {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                to: PartitionId(1),
            },
            now(),
            &mut m,
        );
        let _ = o.on_deliver(revert, now(), &mut m);
        assert_eq!(o.location_of(LocKey(0)), Some(PartitionId(0)));
    }

    /// `MigrationDone` settles the migration first-wins: a stray revert
    /// arriving after it must leave the committed location alone.
    #[test]
    fn migration_done_blocks_later_revert() {
        let mut o = oracle(2);
        let mut m = Metrics::new();
        let _ = o.on_deliver(
            Payload::Plan { version: 1, moves: vec![(LocKey(0), PartitionId(0), PartitionId(1))] },
            now(),
            &mut m,
        );
        let _ = o.on_deliver(
            Payload::MigrationDone {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                to: PartitionId(1),
            },
            now(),
            &mut m,
        );
        let _ = o.on_deliver(
            Payload::MigrationRevert {
                version: 1,
                key: LocKey(0),
                from: PartitionId(0),
                to: PartitionId(1),
            },
            now(),
            &mut m,
        );
        assert_eq!(o.location_of(LocKey(0)), Some(PartitionId(1)), "done settled first");
    }

    // --- oracle sharding -------------------------------------------------

    fn sharded(shards: u32, shard: u32) -> OracleCore<App> {
        let mut o = OracleCore::new(OracleConfig {
            partitions: 2,
            repartition_threshold: 5,
            min_plan_interval: SimDuration::from_millis(1),
            shards,
            shard,
            ..OracleConfig::default()
        });
        o.preload_map((0..4).map(|k| (LocKey(k), PartitionId((k % 2) as u32))));
        o
    }

    #[test]
    fn location_view_reports_only_owned_slice() {
        let shards = 4u32;
        let full: Vec<(u64, u32)> = (0..4).map(|k| (k, (k % 2) as u32)).collect();
        let mut union: Vec<(u64, u32)> = Vec::new();
        for s in 0..shards {
            let o = sharded(shards, s);
            let view = o.location_view();
            for &(k, _) in &view {
                assert_eq!(shard_of(LocKey(k), shards), s, "key {k} outside shard {s}'s slice");
            }
            union.extend(view);
        }
        union.sort_unstable();
        assert_eq!(union, full, "shard views must partition the full map");
    }

    /// Hints are addressed to the planner shard alone; one that reaches
    /// another shard is dropped, however many changes it brings (600 here)
    /// and however long it sits (a tick a second later).
    #[test]
    fn a_non_planner_shard_ignores_hints() {
        let mut o = sharded(4, 1);
        let mut m = Metrics::new();
        for k in 0..300u64 {
            let eff = o.on_deliver(
                Payload::Hint {
                    vertices: vec![(LocKey(k), 5)],
                    edges: vec![(LocKey(k), LocKey(k + 1), 9)],
                },
                SimTime::from_millis(1),
                &mut m,
            );
            assert!(eff.is_empty(), "hint {k} had an effect");
        }
        assert!(o.on_tick(SimTime::from_millis(1_001), &mut m).is_empty());
        assert_eq!((o.graph_vertices(), o.graph_edges()), (0, 0));
    }

    #[test]
    fn missing_foreign_key_refers_client_back() {
        // Find a key absent from the map whose slice belongs to shard 1,
        // and query shard 0 (which cannot authoritatively reject it).
        let shards = 4u32;
        let missing = (100..).find(|&k| shard_of(LocKey(k), shards) == 1).unwrap();
        let mut m = Metrics::new();
        let mut non_owner = sharded(shards, 0);
        let eff = non_owner.on_deliver(
            Payload::Exec { cmd: access(vec![missing * 10]), attempt: 0 },
            now(),
            &mut m,
        );
        assert!(
            eff.iter().any(|e| matches!(e, Effect::Send { msg: Direct::Retry { .. }, .. })),
            "non-owner shard must refer, not reject"
        );
        assert!(!eff
            .iter()
            .any(|e| matches!(e, Effect::Send { msg: Direct::Prophecy { .. }, .. })));
        // The owner shard answers nok authoritatively.
        let mut owner = sharded(shards, 1);
        let eff = owner.on_deliver(
            Payload::Exec { cmd: access(vec![missing * 10]), attempt: 0 },
            now(),
            &mut m,
        );
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Send { msg: Direct::Prophecy { ok: false, .. }, .. })));
    }

    #[test]
    fn create_at_non_owner_shard_refers_client_back() {
        let shards = 4u32;
        let key = (100..).find(|&k| shard_of(LocKey(k), shards) == 3).unwrap();
        let mut o = sharded(shards, 0);
        let mut m = Metrics::new();
        let c = cmd(CommandKind::CreateKey { key: LocKey(key), vars: vec![] });
        let eff = o.on_deliver(Payload::Exec { cmd: c, attempt: 0 }, now(), &mut m);
        assert!(eff.iter().any(|e| matches!(e, Effect::Send { msg: Direct::Retry { .. }, .. })));
        assert!(!eff.iter().any(|e| matches!(e, Effect::Multicast { .. })));
    }
}
