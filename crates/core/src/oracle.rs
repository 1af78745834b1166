//! The location oracle state machine (paper Algorithm 2 and §5.2).
//!
//! The oracle is a replicated partition: every replica runs an identical
//! `OracleCore` fed by the same atomic multicast deliveries, so replicas
//! stay in lock-step without extra coordination. Duplicate effects
//! (prophecies, follow-up multicasts) are deduplicated downstream —
//! multicasts by deterministic message ids, direct messages by receiver-
//! side dedup keys or client-side outstanding-command state.
//!
//! Responsibilities:
//!
//! * answer `Exec` requests with a *prophecy* and dispatch the command to
//!   the involved partitions (Task 1);
//! * coordinate create/delete of locality keys (Tasks 2–3);
//! * accumulate the workload graph from hints and, past a change
//!   threshold, compute an optimized repartitioning with the multilevel
//!   partitioner and multicast the plan (Tasks 4–5). Computation cost is
//!   modelled as a configurable delay so the simulated oracle "computes
//!   concurrently" as in §5.2 while replicas stay deterministic.

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;

use dynastar_amcast::MsgId;
use dynastar_partitioner::{
    align_labels, partition as ml_partition, partition_from, GraphBuilder, PartitionConfig,
    Partitioning,
};
use dynastar_runtime::hash::FastHashMap;
use dynastar_runtime::{Metrics, SimDuration, SimTime};

use crate::command::{Application, Command, CommandKind, LocKey, Mode, PartitionId};
use crate::edge_rows::EdgeRows;
use crate::metric_names as mn;
use crate::migration::{MoveOutcome, PlanHistory, Settle, PLAN_HISTORY_PER_KEY};
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::routing::{compute_route, shard_of};

/// Derivation tags for oracle-originated multicasts (see
/// [`MsgId::derived`]).
mod tag {
    /// Access dispatch for attempt `a` uses `ACCESS_BASE + a`.
    pub const ACCESS_BASE: u32 = 10;
    /// Create coordination multicast.
    pub const CREATE: u32 = 200;
    /// Delete coordination multicast.
    pub const DELETE: u32 = 210;
    /// Plan publication (derived from the triggering hint).
    pub const PLAN: u32 = 300;
    /// Recompute-proposal marker ([`super::Payload::Recompute`]).
    pub const RECOMPUTE: u32 = 310;
    /// Per-shard workload-graph digest ([`super::Payload::GraphDigest`]).
    pub const DIGEST: u32 = 320;
    /// Digest-flush marker ([`super::Payload::DigestFlush`]).
    pub const FLUSH: u32 = 330;
}

/// Origin of shard-`shard`-originated deterministic message ids (digests
/// and flush markers). The planner's plan/recompute markers use
/// `u64::MAX - 1`; shard `s` gets `u64::MAX - 2 - s`, a band far above
/// client and partition origins.
fn shard_origin(shard: u32) -> u64 {
    u64::MAX - 2 - shard as u64
}

/// Tunables for the oracle.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Number of state partitions.
    pub partitions: u32,
    /// Execution mode (drives routing-side behaviour differences).
    pub mode: Mode,
    /// Workload-graph change count that triggers a repartitioning.
    pub repartition_threshold: u64,
    /// Modelled partitioner base latency.
    pub compute_base: SimDuration,
    /// Modelled additional latency per graph element (vertex or edge).
    pub compute_per_element: SimDuration,
    /// Allowed partition imbalance (paper: 1.2).
    pub balance_factor: f64,
    /// Halve hint weights at every recompute so the graph tracks the
    /// *recent* workload (needed for the paper's dynamic experiment).
    pub decay_hints: bool,
    /// Hard cap on workload-graph vertices. Without a cap the graph grows
    /// without limit under a churning keyspace (keys accessed once are
    /// remembered forever, and with `decay_hints` off nothing ever shrinks
    /// it). When the cap is exceeded the oracle runs a decay pass and then
    /// evicts the lowest-weight vertices — the entries that influence the
    /// next plan least.
    pub max_graph_vertices: usize,
    /// Hard cap on workload-graph edges; enforced like
    /// [`OracleConfig::max_graph_vertices`].
    pub max_graph_edges: usize,
    /// Minimum time between repartitionings. Even past the change
    /// threshold, the oracle waits this long after the previous plan —
    /// repartitioning is rare and deliberate in the paper (§4.3: "it is
    /// expected to happen rarely").
    pub min_plan_interval: SimDuration,
    /// Whether this replica records oracle-side metrics (only one replica
    /// per oracle group should, or counters multiply by the replication
    /// factor).
    pub record_metrics: bool,
    /// Warm-start repartitioning: seed the partitioner's boundary
    /// refinement from the current location map (the surviving keys of
    /// the last published plan) instead of re-running the full multilevel
    /// pipeline. Falls back to a full run when the warm cut or keyspace
    /// churn disqualify it — see [`OracleConfig::warm_quality_ratio`] and
    /// [`OracleConfig::warm_churn_limit`].
    pub warm_start: bool,
    /// Accept a warm-started plan only while its normalized edge cut
    /// (cut / total edge weight) stays within this ratio of the last
    /// *full* multilevel run's. Past it, the incremental path has drifted
    /// too far from optimal and a full run recalibrates.
    pub warm_quality_ratio: f64,
    /// Fall back to a full run when keys created + deleted since the last
    /// plan compute exceed this fraction of the tracked keyspace — a
    /// churned keyspace leaves too little of the previous assignment to
    /// warm-start from.
    pub warm_churn_limit: f64,
    /// Number of oracle shard groups the cluster runs (DESIGN.md §7).
    /// `1` reproduces the unsharded oracle exactly.
    pub shards: u32,
    /// This core's shard index, `0..shards`. Shard 0 is the planner: it
    /// owns the workload graph and the recompute/plan machinery; other
    /// shards forward their hint slices to it as [`Payload::GraphDigest`]s.
    pub shard: u32,
    /// A non-planner shard ships its pending graph delta to the planner
    /// once this many changes accumulate (count gate — evaluated at
    /// delivery positions, so it is identical on every replica).
    pub digest_threshold: u64,
    /// Trickle flush: a shard replica whose sub-threshold delta has sat
    /// unshipped this long proposes a [`Payload::DigestFlush`] marker.
    pub digest_interval: SimDuration,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            partitions: 1,
            mode: Mode::Dynastar,
            repartition_threshold: 2_000,
            compute_base: SimDuration::from_millis(50),
            compute_per_element: SimDuration::from_micros(1),
            balance_factor: 1.2,
            decay_hints: true,
            max_graph_vertices: 1 << 18,
            max_graph_edges: 1 << 20,
            min_plan_interval: SimDuration::from_secs(30),
            record_metrics: true,
            warm_start: true,
            warm_quality_ratio: 1.1,
            warm_churn_limit: 0.25,
            shards: 1,
            shard: 0,
            digest_threshold: 256,
            digest_interval: SimDuration::from_millis(500),
        }
    }
}

/// Shrinks a weighted graph component to `cap` entries: first a decay pass
/// (halve every weight, dropping entries that reach zero), then, if still
/// over, eviction of the `excess` lowest-(weight, key) entries — an exact
/// selection, so the evicted set is a function of map *content* alone
/// (hash-map iteration order never shows through). `scratch` is reused
/// across passes instead of allocating a fresh buffer each time. Returns
/// how many entries were removed.
fn shrink_weighted<K: Ord + Copy + std::hash::Hash>(
    map: &mut FastHashMap<K, u64>,
    cap: usize,
    scratch: &mut Vec<(u64, K)>,
) -> u64 {
    if map.len() <= cap {
        return 0;
    }
    let before = map.len();
    map.retain(|_, w| {
        *w /= 2;
        *w > 0
    });
    if map.len() > cap {
        let excess = map.len() - cap;
        scratch.clear();
        scratch.extend(map.iter().map(|(&k, &w)| (w, k)));
        scratch.select_nth_unstable(excess - 1);
        for &(_, k) in &scratch[..excess] {
            map.remove(&k);
        }
    }
    (before - map.len()) as u64
}

/// The first index at or after `from` of ascending `keys` that holds `key`
/// or more. Gallops, so a walk that keeps seeking on from its last hit
/// costs the log of each advance, whether its steps are short or long.
fn seek(keys: &[LocKey], from: usize, key: LocKey) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < keys.len() && keys[hi] < key {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    lo + keys[lo..hi.min(keys.len())].partition_point(|&k| k < key)
}

/// Pending workload-graph delta a non-planner oracle shard accumulates
/// between digests. Both components are ordered by key, so the digest
/// bytes are a function of delta *content* alone.
#[derive(Clone, Default)]
struct DigestDelta {
    vertices: BTreeMap<LocKey, u64>,
    edges: EdgeRows,
    changes: u64,
}

impl DigestDelta {
    fn add(&mut self, vertices: &[(LocKey, u64)], edges: &[(LocKey, LocKey, u64)]) {
        for &(k, w) in vertices {
            *self.vertices.entry(k).or_insert(0) += w;
        }
        self.edges.add_all(edges);
        self.changes += vertices.len() as u64 + edges.len() as u64;
    }

    fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Drains the delta into canonical (key-sorted) vertex and edge
    /// increment lists, resetting it to empty.
    #[allow(clippy::type_complexity)]
    fn drain(&mut self) -> (Vec<(LocKey, u64)>, Vec<(LocKey, LocKey, u64)>) {
        let vertices = std::mem::take(&mut self.vertices).into_iter().filter(|&(_, w)| w > 0);
        let mut edges = Vec::with_capacity(self.edges.len());
        self.edges.for_each_row(|a, row| {
            edges.extend(row.iter().map(|&(b, w)| (a, b, w)));
        });
        self.edges.clear();
        self.changes = 0;
        (vertices.collect(), edges)
    }
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
    /// Workload graph: vertex access counts and co-access edge weights
    /// (planner shard only; other shards accumulate into `delta`).
    vertices: FastHashMap<LocKey, u64>,
    edges: EdgeRows,
    /// Changes accumulated since the last plan.
    changes: u64,
    /// A plan is being "computed" (timer pending).
    computing: bool,
    /// The computed plan awaiting its publication timer.
    pending_plan: Option<(MsgId, Payload<A>)>,
    /// Version of the last *applied* plan.
    plan_version: u64,
    /// When the last plan was applied (gates the next recompute).
    last_plan_at: SimTime,
    /// When the in-flight recompute started (plan-compute-time metric).
    compute_started_at: SimTime,
    /// Highest plan version this replica has proposed a recompute marker
    /// for. A local flood guard only — the marker itself is deduplicated
    /// across replicas by its message id.
    proposed_recompute: u64,
    /// Bounded per-key log of plan decisions. `MigrationDone` /
    /// `MigrationRevert` are resolved by replaying the key's history, so a
    /// revert of move v composes with a chained move at v+1, and decisions
    /// below the compaction floor are ignored (default-deny).
    history: PlanHistory,
    /// Normalized edge cut (cut / total edge weight) of the last *full*
    /// multilevel run — the warm-start quality reference.
    last_full_cut_frac: Option<f64>,
    /// Keys created or deleted since the last plan compute (warm-start
    /// churn gate).
    churn_since_plan: u64,
    /// Interned (counter, series) ids for [`mn::ORACLE_QUERIES`] — the
    /// oracle's per-delivery hot path — resolved lazily.
    query_ids: Option<(u64, dynastar_runtime::CounterId, dynastar_runtime::SeriesId)>,
    /// Pending graph delta not yet shipped to the planner (non-planner
    /// shards only).
    delta: DigestDelta,
    /// Sequence number of the next digest this shard ships.
    digest_seq: u32,
    /// Lowest digest seq this replica has *not* proposed a flush marker
    /// for — a local flood guard; the marker itself dedups by message id.
    proposed_flush: u32,
    /// When this shard last shipped a digest (replica-local; only gates
    /// flush-marker proposals, like the recompute interval gate).
    last_digest_at: SimTime,
    /// Reusable eviction scratch for [`shrink_weighted`] over vertices.
    shrink_vertices: Vec<(u64, LocKey)>,
    /// Reusable eviction scratch for [`EdgeRows::shrink_to`].
    shrink_edges: Vec<(u64, (LocKey, LocKey))>,
    _marker: std::marker::PhantomData<A>,
}

/// Manual impl: deriving would bound `A: Clone`, but only `A`'s associated
/// types need cloning. A clone is the full protocol state — what a
/// recovering oracle replica installs from a live peer.
impl<A: Application> Clone for OracleCore<A> {
    fn clone(&self) -> Self {
        OracleCore {
            config: self.config.clone(),
            map: self.map.clone(),
            vertices: self.vertices.clone(),
            edges: self.edges.clone(),
            changes: self.changes,
            computing: self.computing,
            pending_plan: self.pending_plan.clone(),
            plan_version: self.plan_version,
            last_plan_at: self.last_plan_at,
            compute_started_at: self.compute_started_at,
            proposed_recompute: self.proposed_recompute,
            history: self.history.clone(),
            last_full_cut_frac: self.last_full_cut_frac,
            churn_since_plan: self.churn_since_plan,
            query_ids: self.query_ids,
            delta: self.delta.clone(),
            digest_seq: self.digest_seq,
            proposed_flush: self.proposed_flush,
            last_digest_at: self.last_digest_at,
            // Scratch buffers carry no protocol state; a recovering
            // replica starts with fresh (empty) ones.
            shrink_vertices: Vec::new(),
            shrink_edges: Vec::new(),
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
            vertices: FastHashMap::default(),
            edges: EdgeRows::default(),
            changes: 0,
            computing: false,
            pending_plan: None,
            plan_version: 0,
            last_plan_at: SimTime::ZERO,
            compute_started_at: SimTime::ZERO,
            proposed_recompute: 0,
            history: PlanHistory::new(PLAN_HISTORY_PER_KEY),
            last_full_cut_frac: None,
            churn_since_plan: 0,
            query_ids: None,
            delta: DigestDelta::default(),
            digest_seq: 0,
            proposed_flush: 0,
            last_digest_at: SimTime::ZERO,
            shrink_vertices: Vec::new(),
            shrink_edges: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Whether this core is the planner shard (shard 0): the one that
    /// owns the workload graph and the recompute/plan machinery.
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

    /// Number of vertices currently in the workload graph.
    pub fn graph_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges currently in the workload graph.
    pub fn graph_edges(&self) -> usize {
        self.edges.len()
    }

    /// Handles an atomic multicast delivery addressed to the oracle.
    ///
    /// The payload is read in place — every replica of every destination
    /// group is handed the same one; hint, digest and plan bodies are
    /// never copied.
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
                    let (c, s) = match self.query_ids {
                        Some((reg, c, s)) if reg == metrics.registry_id() => (c, s),
                        _ => {
                            let c = metrics.counter_id(mn::ORACLE_QUERIES);
                            let s = metrics.series_id(mn::ORACLE_QUERIES);
                            self.query_ids = Some((metrics.registry_id(), c, s));
                            (c, s)
                        }
                    };
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
                let ok = !self.map.contains_key(&key);
                if ok {
                    self.map.insert(key, dest);
                    self.churn_since_plan += 1;
                }
                // Rendezvous signal towards the partition (Task 2); `ok`
                // is encoded in `from_partition: None` + the separate nok
                // channel below.
                eff.push(Effect::Send {
                    to: Destination::Partition(dest),
                    msg: Direct::Signal { cmd: cmd.id, from_partition: None },
                });
                if !ok {
                    // Late duplicate: the partition will install nothing
                    // because the client already got `nok` from Exec of the
                    // loser; nothing more to do (map unchanged).
                }
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
                    self.vertices.remove(&key);
                    self.churn_since_plan += 1;
                }
                eff.push(Effect::Send {
                    to: Destination::Partition(dest),
                    msg: Direct::Signal { cmd: cmd.id, from_partition: None },
                });
            }
            Payload::Hint { vertices, edges } => {
                if self.is_planner() {
                    self.merge_graph(vertices, edges, metrics);
                    self.maybe_propose_recompute(now, &mut eff);
                } else {
                    // Non-planner shard: accumulate into the pending delta
                    // and ship a digest to the planner once the count gate
                    // opens. The gate reads only delivered state, so every
                    // replica of the shard drains the same delta at the
                    // same position and the digests dedup by message id.
                    self.delta.add(vertices, edges);
                    if self.delta.changes >= self.config.digest_threshold {
                        self.emit_digest(now, &mut eff);
                    }
                }
            }
            Payload::GraphDigest { vertices, edges, .. } => {
                // Planner only (digests are multicast to shard 0 alone,
                // but the handler stays total for wire hygiene): merge the
                // shard's delta exactly like a hint batch.
                if self.is_planner() {
                    self.merge_graph(vertices, edges, metrics);
                    self.maybe_propose_recompute(now, &mut eff);
                }
            }
            &Payload::DigestFlush { shard, seq } => {
                // Drain a lingering delta at the marker's delivery
                // position. A stale marker (the delta already shipped via
                // the count gate, bumping `digest_seq` past `seq`) no-ops.
                if shard == self.config.shard && seq == self.digest_seq && !self.delta.is_empty() {
                    self.emit_digest(now, &mut eff);
                }
            }
            &Payload::Recompute { version } => {
                // Compute at the marker's delivery position so every
                // replica snapshots the same graph. Only log-deterministic
                // state is re-checked here (no local time): a marker that
                // raced a newer plan or an emptied keyspace is dropped.
                // Markers target the planner shard alone; a misdirected
                // one elsewhere is dropped by the planner check.
                if self.is_planner()
                    && version == self.plan_version + 1
                    && !self.computing
                    && !self.map.is_empty()
                {
                    self.start_recompute(now, &mut eff, metrics);
                } else if self.proposed_recompute < version {
                    // Keep the local guard monotone so a dropped marker
                    // does not block this replica from proposing again.
                    self.proposed_recompute = version;
                }
            }
            Payload::Plan { version, moves } => {
                let version = *version;
                for &(key, from, to) in moves {
                    self.map.insert(key, to);
                    self.history.record_move(key, version, from, to);
                }
                self.plan_version = version;
                self.computing = false;
                self.changes = 0;
                self.last_plan_at = now;
                // Every shard applies the plan to its map replica, but
                // only the planner records it — or the counters would
                // multiply by the shard count.
                if self.config.record_metrics && self.is_planner() {
                    metrics.incr_counter(mn::PLANS_PUBLISHED, 1);
                    metrics.record_series(mn::PLAN_MOVES, now, moves.len() as f64);
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

    /// Handles direct messages (partition rendezvous signals — the oracle
    /// does not block on them, so they are consumed silently).
    pub fn on_direct<'a>(
        &mut self,
        _msg: impl Into<Cow<'a, Direct<A>>>,
        _now: SimTime,
        _metrics: &mut Metrics,
    ) -> Vec<Effect<A>> {
        Vec::new()
    }

    /// Periodic check (driven by the hosting actor's tick): the planner
    /// proposes a recompute if the change threshold was crossed while the
    /// minimum-interval gate was still closed; other shards propose a
    /// digest flush for a lingering sub-threshold delta.
    pub fn on_tick(&mut self, now: SimTime, _metrics: &mut Metrics) -> Vec<Effect<A>> {
        let mut eff = Vec::new();
        self.maybe_propose_recompute(now, &mut eff);
        self.maybe_propose_flush(now, &mut eff);
        eff
    }

    /// Merges a hint or digest batch into the planner's workload graph,
    /// enforcing the graph caps.
    fn merge_graph(
        &mut self,
        vertices: &[(LocKey, u64)],
        edges: &[(LocKey, LocKey, u64)],
        metrics: &mut Metrics,
    ) {
        self.changes += vertices.len() as u64 + edges.len() as u64;
        for &(k, w) in vertices {
            *self.vertices.entry(k).or_insert(0) += w;
        }
        self.edges.add_all(edges);
        let evicted = shrink_weighted(
            &mut self.vertices,
            self.config.max_graph_vertices,
            &mut self.shrink_vertices,
        ) + self.edges.shrink_to(self.config.max_graph_edges, &mut self.shrink_edges);
        if evicted > 0 && self.config.record_metrics {
            metrics.incr_counter(mn::ORACLE_GRAPH_EVICTIONS, evicted);
        }
    }

    /// Drains the pending delta into a [`Payload::GraphDigest`] multicast
    /// to the planner shard. Every replica of this shard reaches this at
    /// the same delivery position with the same delta, so the digest's
    /// deterministic id dedups the copies.
    fn emit_digest(&mut self, now: SimTime, eff: &mut Vec<Effect<A>>) {
        let (vertices, edges) = self.delta.drain();
        if vertices.is_empty() && edges.is_empty() {
            return;
        }
        let shard = self.config.shard;
        let seq = self.digest_seq;
        self.digest_seq += 1;
        self.last_digest_at = now;
        eff.push(Effect::Multicast {
            mid: MsgId { origin: shard_origin(shard), seq, tag: tag::DIGEST },
            partitions: Vec::new(),
            oracle: OracleDest::Shard(0),
            payload: Payload::GraphDigest { shard, seq, vertices, edges },
        });
    }

    /// Proposes a [`Payload::DigestFlush`] marker when a non-planner
    /// shard's delta has idled past the digest interval — the trickle
    /// tail the count gate alone would strand. Mirrors the recompute
    /// marker: the interval reads replica-local time, so the *drain*
    /// happens at the marker's delivery position, identical everywhere.
    fn maybe_propose_flush(&mut self, now: SimTime, eff: &mut Vec<Effect<A>>) {
        if self.is_planner()
            || self.delta.is_empty()
            || now.saturating_duration_since(self.last_digest_at) < self.config.digest_interval
            || self.proposed_flush > self.digest_seq
        {
            return;
        }
        let shard = self.config.shard;
        let seq = self.digest_seq;
        self.proposed_flush = seq + 1;
        eff.push(Effect::Multicast {
            mid: MsgId { origin: shard_origin(shard), seq, tag: tag::FLUSH },
            partitions: Vec::new(),
            oracle: OracleDest::Shard(shard),
            payload: Payload::DigestFlush { shard, seq },
        });
    }

    /// Task 1: route a command, reply with a prophecy, dispatch.
    fn handle_exec(&mut self, cmd: &Command<A>, attempt: u32, eff: &mut Vec<Effect<A>>) {
        let client = cmd.client;
        match &cmd.kind {
            CommandKind::CreateKey { key, .. } => {
                let key = *key;
                // The owner shard of the key's slice is the single
                // authority for the exists/absent decision. Clients route
                // create queries there; a misdirected one is referred
                // back rather than answered from a possibly-lagging
                // foreign-slice replica.
                if shard_of(key, self.config.shards) != self.config.shard {
                    eff.push(Effect::Send {
                        to: Destination::Client(client),
                        msg: Direct::Retry { cmd: cmd.id, attempt },
                    });
                    return;
                }
                if self.map.contains_key(&key) {
                    eff.push(Effect::Send {
                        to: Destination::Client(client),
                        msg: Direct::Prophecy {
                            cmd: cmd.id,
                            ok: false,
                            locations: vec![(key, self.map[&key])],
                            version: self.plan_version,
                        },
                    });
                    return;
                }
                // Deterministic "random" partition pick: every oracle
                // replica derives the same choice from the command id.
                let dest = PartitionId(
                    ((cmd.id.origin.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cmd.id.seq as u64)
                        % self.config.partitions as u64) as u32,
                );
                eff.push(Effect::Send {
                    to: Destination::Client(client),
                    msg: Direct::Prophecy {
                        cmd: cmd.id,
                        ok: true,
                        locations: vec![(key, dest)],
                        version: self.plan_version,
                    },
                });
                eff.push(Effect::Multicast {
                    mid: cmd.id.derived(tag::CREATE),
                    partitions: vec![dest],
                    // Every shard's map replica must observe the insert.
                    oracle: OracleDest::All,
                    payload: Payload::CreateKey { cmd: cmd.clone(), dest },
                });
            }
            CommandKind::DeleteKey { key } => {
                let key = *key;
                if shard_of(key, self.config.shards) != self.config.shard {
                    eff.push(Effect::Send {
                        to: Destination::Client(client),
                        msg: Direct::Retry { cmd: cmd.id, attempt },
                    });
                    return;
                }
                match self.map.get(&key).copied() {
                    None => eff.push(Effect::Send {
                        to: Destination::Client(client),
                        msg: Direct::Prophecy {
                            cmd: cmd.id,
                            ok: false,
                            locations: Vec::new(),
                            version: self.plan_version,
                        },
                    }),
                    Some(dest) => {
                        eff.push(Effect::Send {
                            to: Destination::Client(client),
                            msg: Direct::Prophecy {
                                cmd: cmd.id,
                                ok: true,
                                locations: vec![(key, dest)],
                                version: self.plan_version,
                            },
                        });
                        eff.push(Effect::Multicast {
                            mid: cmd.id.derived(tag::DELETE),
                            partitions: vec![dest],
                            oracle: OracleDest::All,
                            payload: Payload::DeleteKey { cmd: cmd.clone(), dest },
                        });
                    }
                }
            }
            CommandKind::Access { .. } => {
                let route = compute_route(cmd, |k| self.map.get(&k).copied());
                let Some(route) = route else {
                    // A key is missing. Only the shard *owning* a missing
                    // key's slice may answer `nok` — a foreign-slice
                    // replica could merely be behind on that slice's
                    // create. If none of the missing keys is ours, refer
                    // the client back: the retry's attempt rotation
                    // reaches the owner within `shards` attempts.
                    let authoritative = self.config.shards == 1 || {
                        let keys = cmd.keys();
                        let missing_mine = keys.iter().any(|&k| {
                            !self.map.contains_key(&k)
                                && shard_of(k, self.config.shards) == self.config.shard
                        });
                        missing_mine || keys.iter().all(|k| self.map.contains_key(k))
                    };
                    if authoritative {
                        eff.push(Effect::Send {
                            to: Destination::Client(client),
                            msg: Direct::Prophecy {
                                cmd: cmd.id,
                                ok: false,
                                locations: Vec::new(),
                                version: self.plan_version,
                            },
                        });
                    } else {
                        eff.push(Effect::Send {
                            to: Destination::Client(client),
                            msg: Direct::Retry { cmd: cmd.id, attempt },
                        });
                    }
                    return;
                };
                let locations: Vec<(LocKey, PartitionId)> = cmd
                    .keys()
                    .into_iter()
                    .filter_map(|k| self.map.get(&k).map(|&p| (k, p)))
                    .collect();
                eff.push(Effect::Send {
                    to: Destination::Client(client),
                    msg: Direct::Prophecy {
                        cmd: cmd.id,
                        ok: true,
                        locations,
                        version: self.plan_version,
                    },
                });
                let keep = self.config.mode.keeps_moved_state() && route.is_multi_partition();
                eff.push(Effect::Multicast {
                    mid: cmd.id.derived(tag::ACCESS_BASE + attempt),
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

    /// Proposes a recompute marker when the local gates pass. The compute
    /// itself runs at the marker's *delivery* (see [`Payload::Recompute`]):
    /// the interval gate reads replica-local delivery time, so acting on it
    /// directly would let replicas snapshot the workload graph at different
    /// log positions and publish divergent plans under one id.
    fn maybe_propose_recompute(&mut self, now: SimTime, eff: &mut Vec<Effect<A>>) {
        if !self.should_recompute(now) {
            return;
        }
        let version = self.plan_version + 1;
        if self.proposed_recompute >= version {
            return; // this version's marker is already in flight
        }
        self.proposed_recompute = version;
        eff.push(Effect::Multicast {
            mid: MsgId { origin: u64::MAX - 1, seq: version as u32, tag: tag::RECOMPUTE },
            partitions: Vec::new(),
            // Only the planner computes; the marker stays on its group.
            oracle: OracleDest::Shard(0),
            payload: Payload::Recompute { version },
        });
    }

    fn should_recompute(&self, now: SimTime) -> bool {
        self.config.mode.optimizes()
            && self.is_planner()
            && !self.computing
            && self.config.partitions > 1
            && self.changes >= self.config.repartition_threshold
            && !self.map.is_empty()
            && now.saturating_duration_since(self.last_plan_at) >= self.config.min_plan_interval
    }

    /// Computes a plan from the current graph snapshot and schedules its
    /// publication after the modelled compute time (§5.2's concurrent
    /// repartitioning).
    fn start_recompute(&mut self, now: SimTime, eff: &mut Vec<Effect<A>>, metrics: &mut Metrics) {
        self.computing = true;
        self.compute_started_at = now;
        let (plan_mid, payload, elements, warm, cut) = self.compute_plan();
        if self.config.record_metrics {
            if warm {
                metrics.incr_counter(mn::PLANS_WARM, 1);
            }
            metrics.record_series(mn::PLAN_EDGE_CUT, now, cut);
        }
        let after = self.config.compute_base
            + self.config.compute_per_element.saturating_mul(elements as u64);
        self.pending_plan = Some((plan_mid, payload));
        eff.push(Effect::SchedulePlan { after });
        if self.config.decay_hints {
            // Entries decayed to zero are dropped on both components —
            // leaving zero-weight vertices in place would leak memory under
            // a churning keyspace.
            self.vertices.retain(|_, w| {
                *w /= 2;
                *w > 0
            });
            self.edges.halve();
        }
    }

    /// Builds the dense graph, runs the partitioner — the incremental
    /// warm-start path when eligible, the full multilevel pipeline
    /// otherwise — aligns labels with the current map and produces the
    /// Plan payload. Returns `(plan id, payload, modelled elements,
    /// warm-start used, normalized edge cut)`.
    ///
    /// Warm start seeds `partition_from`'s boundary refinement with the
    /// current location map (the surviving keys of the last published
    /// plan, mapped through the key index). It is taken only when (a) at
    /// least one full run has recorded a reference cut, (b) keyspace
    /// churn since the last plan stays under
    /// [`OracleConfig::warm_churn_limit`], and (c) the warm cut lands
    /// within [`OracleConfig::warm_quality_ratio`] of the reference;
    /// otherwise the full pipeline runs and re-records the reference.
    fn compute_plan(&mut self) -> (MsgId, Payload<A>, usize, bool, f64) {
        let keys: Vec<LocKey> = {
            let mut ks: Vec<LocKey> = self.map.keys().copied().collect();
            ks.sort_unstable();
            ks
        };
        let mut b = GraphBuilder::new();
        if !keys.is_empty() {
            b.add_vertex(keys.len() as u32 - 1);
        }
        for (i, k) in keys.iter().enumerate() {
            let w = 1 + self.vertices.get(k).copied().unwrap_or(0);
            b.set_vertex_weight(i as u32, w);
        }
        // Rows, their (sorted) entries and `keys` all ascend by key: one
        // merge walk finds every endpoint's index, and every replica (and
        // build profile) feeds the builder the same edges in the same
        // order. An edge with an endpoint no longer in the map is skipped.
        let mut ia = 0;
        self.edges.for_each_row(|a, row| {
            ia = seek(&keys, ia, a);
            if keys.get(ia) != Some(&a) {
                return;
            }
            let mut ib = ia;
            for &(bk, w) in row {
                ib = seek(&keys, ib, bk);
                if w > 0 && keys.get(ib) == Some(&bk) {
                    b.add_edge(ia as u32, ib as u32, w);
                }
            }
        });
        let g = b.build();
        let k = self.config.partitions;
        let cfg = PartitionConfig::default()
            .seed(self.plan_version + 1)
            .balance_factor(self.config.balance_factor);
        let prev = Partitioning::new(k, keys.iter().map(|kk| self.map[kk].0).collect());
        let total_ew = g.total_edge_weight();
        let cut_frac = |cut: u64| if total_ew == 0 { 0.0 } else { cut as f64 / total_ew as f64 };
        let churn_ok = (self.churn_since_plan as f64)
            <= self.config.warm_churn_limit * self.map.len().max(1) as f64;
        let mut warm_used = false;
        let mut plan: Option<Partitioning> = None;
        if self.config.warm_start && self.plan_version > 0 && churn_ok {
            if let Some(full_frac) = self.last_full_cut_frac {
                let warm = partition_from(&g, k, prev.assignment(), &cfg);
                let ok_cut = cut_frac(warm.edge_cut(&g))
                    <= self.config.warm_quality_ratio * full_frac + 1e-12;
                if ok_cut {
                    // `partition_from` refines in place under prev's
                    // labels, so the result needs no re-alignment.
                    warm_used = true;
                    plan = Some(warm);
                }
            }
        }
        let aligned = match plan {
            Some(warm) => warm,
            None => {
                let fresh = ml_partition(&g, k, &cfg);
                self.last_full_cut_frac = Some(cut_frac(fresh.edge_cut(&g)));
                align_labels(&prev, &fresh)
            }
        };
        self.churn_since_plan = 0;
        let mut moves: Vec<(LocKey, PartitionId, PartitionId)> = keys
            .iter()
            .enumerate()
            .filter_map(|(i, &key)| {
                let from = prev.part_of(i as u32);
                let to = aligned.part_of(i as u32);
                (from != to).then_some((key, PartitionId(from), PartitionId(to)))
            })
            .collect();
        // Hot keys first: the plan's move order is the cluster-wide
        // migration schedule (servers ship outbox entries in plan order and
        // the per-link in-flight cap defers the tail), so sorting by
        // workload-graph access weight moves the traffic-carrying keys while
        // link budget is still uncontended. Weight snapshot is pre-decay
        // (compute_plan runs before decay_hints) and the key tie-break keeps
        // the order deterministic across replicas.
        moves.sort_by(|a, b| {
            let wa = self.vertices.get(&a.0).copied().unwrap_or(0);
            let wb = self.vertices.get(&b.0).copied().unwrap_or(0);
            wb.cmp(&wa).then_with(|| a.0.cmp(&b.0))
        });
        let version = self.plan_version + 1;
        // Deterministic plan id: every oracle replica derives the same.
        let mid = MsgId { origin: u64::MAX - 1, seq: version as u32, tag: tag::PLAN };
        // Modelled compute cost: the warm path's measured wall-clock runs
        // an order of magnitude below the full pipeline's on the same
        // graph (results/BENCH_partitioner.json), so its modelled element
        // count scales down the same way.
        let elements = {
            let full = g.vertex_count() + g.edge_count();
            if warm_used {
                full / 10
            } else {
                full
            }
        };
        // Normalized cut: raw cut grows with accumulated hint weight, so
        // only the fraction is comparable across runs and shard counts.
        let cut = cut_frac(aligned.edge_cut(&g));
        (mid, Payload::Plan { version, moves }, elements, warm_used, cut)
    }

    /// Fires when the modelled compute time elapses: publish the pending
    /// plan to every partition and the oracle itself. A spurious firing
    /// with no plan pending doubles as a periodic re-evaluation point —
    /// if the change threshold was crossed while the timer was armed for
    /// other reasons, the recompute starts here instead of waiting for
    /// the next hint or tick.
    pub fn on_plan_timer(&mut self, now: SimTime, metrics: &mut Metrics) -> Vec<Effect<A>> {
        let Some((mid, payload)) = self.pending_plan.take() else {
            let mut eff = Vec::new();
            self.maybe_propose_recompute(now, &mut eff);
            return eff;
        };
        if self.config.record_metrics {
            metrics.record_histogram(
                mn::PLAN_COMPUTE_TIME,
                now.saturating_duration_since(self.compute_started_at),
            );
        }
        vec![Effect::Multicast {
            mid,
            partitions: (0..self.config.partitions).map(PartitionId).collect(),
            // Every shard applies the plan to its full-map replica.
            oracle: OracleDest::All,
            payload,
        }]
    }
}

impl<A: Application> std::fmt::Debug for OracleCore<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleCore")
            .field("keys", &self.map.len())
            .field("graph_vertices", &self.vertices.len())
            .field("graph_edges", &self.edges.len())
            .field("changes", &self.changes)
            .field("plan_version", &self.plan_version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandKind};
    use dynastar_runtime::NodeId;
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

    // --- shrink_weighted edge cases -------------------------------------

    #[test]
    fn shrink_cap_zero_empties_map() {
        let mut map: FastHashMap<u64, u64> = (0..8u64).map(|k| (k, 10 + k)).collect();
        let mut scratch = Vec::new();
        let removed = shrink_weighted(&mut map, 0, &mut scratch);
        assert_eq!(removed, 8);
        assert!(map.is_empty());
    }

    #[test]
    fn shrink_all_equal_weights_is_content_deterministic() {
        // All-equal weights: the (weight, key) selection must fall back to
        // key order, independent of hash-map iteration order.
        let run = |insert_order: &[u64]| -> Vec<u64> {
            let mut map: FastHashMap<u64, u64> = FastHashMap::default();
            for &k in insert_order {
                map.insert(k, 8); // halves to 4, nothing decays away
            }
            let mut scratch = Vec::new();
            shrink_weighted(&mut map, 3, &mut scratch);
            let mut left: Vec<u64> = map.keys().copied().collect();
            left.sort_unstable();
            left
        };
        let a = run(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let b = run(&[7, 3, 5, 1, 6, 0, 2, 4]);
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "survivors must not depend on insertion order");
        assert_eq!(a, vec![5, 6, 7], "ties evict the lowest keys");
    }

    #[test]
    fn shrink_exactly_at_cap_is_noop() {
        let mut map: FastHashMap<u64, u64> = (0..5u64).map(|k| (k, 1)).collect();
        let mut scratch = Vec::new();
        // len == cap: no decay pass, no eviction, weights untouched.
        assert_eq!(shrink_weighted(&mut map, 5, &mut scratch), 0);
        assert_eq!(map.len(), 5);
        assert!(map.values().all(|&w| w == 1), "at-cap map must not decay");
    }

    #[test]
    fn shrink_reuses_scratch_buffer() {
        let mut scratch = Vec::new();
        let mut map: FastHashMap<u64, u64> = (0..100u64).map(|k| (k, 100 + k)).collect();
        shrink_weighted(&mut map, 10, &mut scratch);
        let cap_after_first = scratch.capacity();
        assert!(cap_after_first >= 90);
        let mut map2: FastHashMap<u64, u64> = (0..50u64).map(|k| (k, 100 + k)).collect();
        shrink_weighted(&mut map2, 10, &mut scratch);
        assert_eq!(scratch.capacity(), cap_after_first, "second pass must reuse the buffer");
    }

    // --- oracle sharding -------------------------------------------------

    fn sharded(shards: u32, shard: u32) -> OracleCore<App> {
        let mut o = OracleCore::new(OracleConfig {
            partitions: 2,
            repartition_threshold: 5,
            min_plan_interval: SimDuration::from_millis(1),
            shards,
            shard,
            digest_threshold: 4,
            digest_interval: SimDuration::from_millis(10),
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

    #[test]
    fn non_planner_ships_digest_at_threshold() {
        let mut o = sharded(4, 1);
        let mut m = Metrics::new();
        // 3 changes: below the threshold of 4 — nothing ships.
        let eff = o.on_deliver(
            Payload::Hint {
                vertices: vec![(LocKey(0), 5), (LocKey(1), 5)],
                edges: vec![(LocKey(0), LocKey(1), 9)],
            },
            SimTime::from_millis(1),
            &mut m,
        );
        assert!(eff.is_empty(), "sub-threshold delta must not ship");
        assert_eq!(o.graph_vertices(), 0, "non-planner must not grow its own graph");
        // One more change crosses the gate: a digest ships to the planner.
        let eff = o.on_deliver(
            Payload::Hint { vertices: vec![(LocKey(2), 7)], edges: vec![] },
            SimTime::from_millis(2),
            &mut m,
        );
        let digest = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast {
                    mid,
                    oracle: OracleDest::Shard(0),
                    payload: Payload::GraphDigest { shard, seq, vertices, edges },
                    ..
                } => Some((*mid, *shard, *seq, vertices.clone(), edges.clone())),
                _ => None,
            })
            .expect("digest shipped at threshold");
        assert_eq!(digest.0, MsgId { origin: shard_origin(1), seq: 0, tag: tag::DIGEST });
        assert_eq!(digest.1, 1);
        assert_eq!(digest.2, 0);
        // Canonical key order, weights accumulated across hints.
        assert_eq!(digest.3, vec![(LocKey(0), 5), (LocKey(1), 5), (LocKey(2), 7)]);
        assert_eq!(digest.4, vec![(LocKey(0), LocKey(1), 9)]);
    }

    #[test]
    fn planner_merges_digest_like_hints() {
        let mut o = sharded(1, 0);
        let mut m = Metrics::new();
        let eff = o.on_deliver(
            Payload::GraphDigest {
                shard: 2,
                seq: 0,
                vertices: (0..4).map(|k| (LocKey(k), 5)).collect(),
                edges: vec![(LocKey(0), LocKey(1), 20), (LocKey(2), LocKey(3), 20)],
            },
            SimTime::from_millis(2),
            &mut m,
        );
        assert_eq!(o.graph_vertices(), 4);
        assert_eq!(o.graph_edges(), 2);
        // 6 changes >= threshold 5: the digest triggers the recompute
        // proposal exactly as a hint batch would.
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Multicast { payload: Payload::Recompute { .. }, .. })));
    }

    #[test]
    fn flush_marker_drains_lingering_delta() {
        let mut o = sharded(4, 2);
        let mut m = Metrics::new();
        let _ = o.on_deliver(
            Payload::Hint { vertices: vec![(LocKey(0), 3)], edges: vec![] },
            SimTime::from_millis(1),
            &mut m,
        );
        // Before the interval elapses a tick proposes nothing.
        assert!(o.on_tick(SimTime::from_millis(5), &mut m).is_empty());
        let eff = o.on_tick(SimTime::from_millis(20), &mut m);
        let (shard, seq) = eff
            .iter()
            .find_map(|e| match e {
                Effect::Multicast {
                    oracle: OracleDest::Shard(s),
                    payload: Payload::DigestFlush { shard, seq },
                    ..
                } => {
                    assert_eq!(*s, *shard, "flush marker targets its own shard group");
                    Some((*shard, *seq))
                }
                _ => None,
            })
            .expect("idle delta proposes a flush");
        assert_eq!((shard, seq), (2, 0));
        // A duplicate tick must not re-propose the same flush.
        assert!(o.on_tick(SimTime::from_millis(40), &mut m).is_empty());
        // Delivery of the marker drains the delta into a digest.
        let eff =
            o.on_deliver(Payload::DigestFlush { shard, seq }, SimTime::from_millis(41), &mut m);
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Multicast { payload: Payload::GraphDigest { .. }, .. })));
        // A stale (already-drained) marker no-ops.
        let eff =
            o.on_deliver(Payload::DigestFlush { shard, seq }, SimTime::from_millis(42), &mut m);
        assert!(eff.is_empty(), "stale flush marker must no-op");
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
