//! When the oracle repartitions, and what the plan is (Algorithm 2 Task 5).
//!
//! A replica *proposes* a recompute when its local gates open but computes
//! at the proposal marker's *delivery*: the interval gate reads local time,
//! and acting on it directly would let replicas snapshot the workload graph
//! at different log positions and publish divergent plans under one id. The
//! plan then waits out the modelled compute time (§5.2) before publication.

use dynastar_partitioner::{
    align_labels, partition as ml_partition, partition_from, Graph, PartitionConfig, Partitioning,
};
use dynastar_runtime::{SimDuration, SimTime};

use super::edge_rows::seek;
use super::graph::WorkloadGraph;
use super::OracleConfig;
use crate::command::{LocKey, PartitionId};

/// A plan's `(key, from, to)` moves.
pub(super) type Moves = Vec<(LocKey, PartitionId, PartitionId)>;

/// What one plan computation produced.
#[derive(Debug, PartialEq)]
pub(super) struct Computed {
    /// Keys whose partition changes, hottest first.
    pub moves: Moves,
    /// Graph elements the modelled compute time is charged for.
    pub elements: usize,
    /// The warm-start path produced the plan.
    pub warm: bool,
    /// Edge cut over total edge weight: raw cut grows with accumulated
    /// hint weight, so only the fraction compares across runs.
    pub cut_frac: f64,
}

/// The partitioner's view of `graph`: vertex `i` is `keys[i]` (ascending),
/// weighted one more than its accesses.
fn plan_graph(keys: &[(LocKey, PartitionId)], graph: &mut WorkloadGraph) -> Graph {
    let vwgt = keys.iter().map(|&(key, _)| 1 + graph.weight(key)).collect();
    // Rows, their entries and `keys` all ascend by key: one merge walk
    // finds every endpoint's index, and the edges come out in ascending
    // `(a, b)` order without repeats — what the CSR is filled from, with
    // no edge list between. An edge with an endpoint no longer in the
    // map, a self-loop and an edge of weight zero are skipped.
    let rows = graph.rows();
    let at = |i: usize, key: LocKey| keys.get(i).is_some_and(|&(k, _)| k == key);
    Graph::from_ascending_edges(vwgt, |sink| {
        let mut ia = 0;
        for (a, row) in rows.clone() {
            ia = seek(keys, ia, a, |&(k, _)| k);
            if !at(ia, a) {
                continue;
            }
            let mut ib = ia;
            for &(bk, w) in row {
                ib = seek(keys, ib, bk, |&(k, _)| k);
                if w > 0 && ib != ia && at(ib, bk) {
                    sink(ia as u32, ib as u32, w);
                }
            }
        }
    })
}

/// Partitions the tracked `keys` (ascending, each with its current owner)
/// by the workload `graph` and diffs the result against the owners.
///
/// With a `warm_reference` — the last full run's [`Computed::cut_frac`] —
/// the partitioner first refines boundaries from the current owners; that
/// plan is taken if its cut lands within
/// [`OracleConfig::warm_quality_ratio`] of the reference. Otherwise the
/// full multilevel pipeline runs and its labels are aligned with the owners
/// so only real moves show.
pub(super) fn compute_plan(
    keys: &[(LocKey, PartitionId)],
    graph: &mut WorkloadGraph,
    cfg: &OracleConfig,
    version: u64,
    warm_reference: Option<f64>,
) -> Computed {
    let g = plan_graph(keys, graph);
    let k = cfg.partitions;
    let pcfg = PartitionConfig::default().seed(version).balance_factor(cfg.balance_factor);
    let prev = Partitioning::new(k, keys.iter().map(|&(_, p)| p.0).collect());
    let total_ew = g.total_edge_weight();
    let cut_frac = |p: &Partitioning| {
        if total_ew == 0 {
            0.0
        } else {
            p.edge_cut(&g) as f64 / total_ew as f64
        }
    };
    // `partition_from` refines in place under prev's labels, so a warm
    // result needs no re-alignment.
    let warm = warm_reference.and_then(|full_frac| {
        let warm = partition_from(&g, k, prev.assignment(), &pcfg);
        (cut_frac(&warm) <= cfg.warm_quality_ratio * full_frac + 1e-12).then_some(warm)
    });
    let warm_used = warm.is_some();
    let aligned = warm.unwrap_or_else(|| align_labels(&prev, &ml_partition(&g, k, &pcfg)));
    let mut moves: Moves = keys
        .iter()
        .enumerate()
        .filter_map(|(i, &(key, from))| {
            let to = PartitionId(aligned.part_of(i as u32));
            (from != to).then_some((key, from, to))
        })
        .collect();
    // Hot keys first: the plan's move order is the cluster-wide migration
    // schedule (servers ship in plan order and the per-link in-flight cap
    // defers the tail), so the traffic-carrying keys move while link budget
    // is uncontended. The key tie-break makes replicas agree.
    moves.sort_by(|a, b| graph.weight(b.0).cmp(&graph.weight(a.0)).then_with(|| a.0.cmp(&b.0)));
    // The warm path measures an order of magnitude below the full pipeline
    // on the same graph (results/BENCH_partitioner.json); its modelled
    // element count scales down the same way.
    let full = g.vertex_count() + g.edge_count();
    let elements = if warm_used { full / 10 } else { full };
    Computed { moves, elements, warm: warm_used, cut_frac: cut_frac(&aligned) }
}

/// What [`Planner::start_compute`] tells the oracle about the compute it started.
#[derive(Debug)]
pub(super) struct Started {
    /// Modelled compute time: when the plan timer should fire.
    pub after: SimDuration,
    /// See [`Computed::warm`].
    pub warm: bool,
    /// See [`Computed::cut_frac`].
    pub cut_frac: f64,
}

/// The recompute gates and the plan between computation and publication.
/// Inert off the planner shard, whose group alone is sent markers.
#[derive(Debug, Clone, Default)]
pub(super) struct Planner {
    /// A plan is being "computed" (timer pending) or awaits application.
    computing: bool,
    /// The computed plan awaiting its publication timer.
    pending: Option<(u64, Moves)>,
    /// When the in-flight recompute started.
    compute_started_at: SimTime,
    /// Highest plan version this replica has proposed a recompute marker
    /// for. A local flood guard only — the marker itself is deduplicated
    /// across replicas by its message id.
    proposed_recompute: u64,
    /// When the last plan was applied (gates the next recompute).
    last_plan_at: SimTime,
    /// Normalized edge cut of the last *full* multilevel run — the
    /// warm-start quality reference.
    last_full_cut_frac: Option<f64>,
    /// Keys created or deleted since the last plan compute (warm-start
    /// churn gate).
    churn_since_plan: u64,
}

impl Planner {
    /// The version to propose a recompute marker for, if this replica's
    /// local gates are open and it has not proposed that version yet.
    pub(super) fn due(
        &mut self,
        now: SimTime,
        cfg: &OracleConfig,
        graph: &WorkloadGraph,
        plan_version: u64,
        tracked_keys: usize,
    ) -> Option<u64> {
        let open = cfg.can_plan()
            && cfg.shard == 0
            && !self.computing
            && graph.changes() >= cfg.repartition_threshold
            && tracked_keys > 0
            && now.saturating_duration_since(self.last_plan_at) >= cfg.min_plan_interval;
        let version = plan_version + 1;
        if !open || self.proposed_recompute >= version {
            return None;
        }
        self.proposed_recompute = version;
        Some(version)
    }

    /// A recompute marker was delivered: whether to compute now. Checks
    /// log-deterministic state only (no local time): a marker that raced a
    /// newer plan or an emptied keyspace, or is misdirected, is dropped.
    pub(super) fn on_marker(
        &mut self,
        cfg: &OracleConfig,
        version: u64,
        plan_version: u64,
        tracked_keys: usize,
    ) -> bool {
        let start =
            cfg.shard == 0 && version == plan_version + 1 && !self.computing && tracked_keys > 0;
        if !start && self.proposed_recompute < version {
            // Keep the local guard monotone so a dropped marker does not
            // block this replica from proposing again.
            self.proposed_recompute = version;
        }
        start
    }

    /// Computes plan `version` and holds it for [`Planner::take_pending`].
    /// Warm start needs a previous plan, a full run's reference cut, and
    /// churn since the last compute within
    /// [`OracleConfig::warm_churn_limit`] of the tracked keys.
    pub(super) fn start_compute(
        &mut self,
        now: SimTime,
        graph: &mut WorkloadGraph,
        keys: &[(LocKey, PartitionId)],
        cfg: &OracleConfig,
        version: u64,
    ) -> Started {
        self.computing = true;
        self.compute_started_at = now;
        let churn_ok =
            self.churn_since_plan as f64 <= cfg.warm_churn_limit * keys.len().max(1) as f64;
        let reference =
            self.last_full_cut_frac.filter(|_| cfg.warm_start && version > 1 && churn_ok);
        let plan = compute_plan(keys, graph, cfg, version, reference);
        if !plan.warm {
            // Aligning labels moves no vertex between groups: the plan's
            // cut is the full run's.
            self.last_full_cut_frac = Some(plan.cut_frac);
        }
        self.churn_since_plan = 0;
        self.pending = Some((version, plan.moves));
        Started {
            after: cfg.compute_base + cfg.compute_per_element.saturating_mul(plan.elements as u64),
            warm: plan.warm,
            cut_frac: plan.cut_frac,
        }
    }

    /// The pending plan, if any, as the plan timer fires: version, moves,
    /// and the time since its compute started.
    pub(super) fn take_pending(&mut self, now: SimTime) -> Option<(u64, Moves, SimDuration)> {
        let (version, moves) = self.pending.take()?;
        Some((version, moves, now.saturating_duration_since(self.compute_started_at)))
    }

    /// A plan was delivered and applied to the map.
    pub(super) fn on_plan_applied(&mut self, now: SimTime) {
        self.computing = false;
        self.last_plan_at = now;
    }

    /// A key was created or deleted.
    pub(super) fn note_churn(&mut self) {
        self.churn_since_plan += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn cfg() -> OracleConfig {
        OracleConfig {
            partitions: 2,
            repartition_threshold: 10,
            min_plan_interval: SimDuration::from_millis(5),
            compute_base: SimDuration::from_millis(1),
            compute_per_element: SimDuration::from_micros(1),
            ..OracleConfig::default()
        }
    }

    /// Eight keys, owners alternating, and two 4-cliques {0..3}, {4..7}
    /// joined by one light edge. Key `i` has been accessed `10 + i` times,
    /// except that keys 1 and 6 tie at 30.
    fn two_cliques() -> (Vec<(LocKey, PartitionId)>, WorkloadGraph) {
        let keys = (0..8).map(|i| (LocKey(i), PartitionId((i % 2) as u32))).collect();
        let weight = |i: u64| if i == 1 || i == 6 { 30 } else { 10 + i };
        let vertices: Vec<(LocKey, u64)> = (0..8).map(|i| (LocKey(i), weight(i))).collect();
        let mut edges = vec![(LocKey(3), LocKey(4), 1)];
        for base in [0, 4] {
            for a in base..base + 4 {
                edges.extend((a + 1..base + 4).map(|b| (LocKey(a), LocKey(b), 50)));
            }
        }
        let mut graph = WorkloadGraph::default();
        graph.merge_edges(&vertices, &edges);
        (keys, graph)
    }

    fn apply(keys: &mut [(LocKey, PartitionId)], moves: &Moves) {
        for &(key, from, to) in moves {
            let entry = keys.iter_mut().find(|e| e.0 == key).expect("a move names a tracked key");
            assert_eq!(entry.1, from);
            entry.1 = to;
        }
    }

    #[test]
    fn first_plan_is_full_and_moves_hottest_first() {
        let (mut keys, mut graph) = two_cliques();
        let plan = compute_plan(&keys, &mut graph, &cfg(), 1, None);
        assert!(!plan.warm);
        assert_eq!(plan.elements, 8 + 13);
        // Each clique ends up whole on one side: only the light edge is cut.
        assert_eq!(plan.cut_frac, 1.0 / 601.0);
        assert_eq!(plan.moves.len(), 4);
        let weights: Vec<u64> = plan.moves.iter().map(|m| graph.weight(m.0)).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]), "hottest first: {weights:?}");
        for pair in plan.moves.windows(2) {
            if graph.weight(pair[0].0) == graph.weight(pair[1].0) {
                assert!(pair[0].0 < pair[1].0, "ties by key");
            }
        }
        apply(&mut keys, &plan.moves);
        for clique in keys.chunks(4) {
            assert!(clique.iter().all(|e| e.1 == clique[0].1), "clique split: {keys:?}");
        }
        // The same inputs give the same plan.
        let (keys, mut graph) = two_cliques();
        assert_eq!(compute_plan(&keys, &mut graph, &cfg(), 1, None), plan);
    }

    #[test]
    fn tied_weights_order_moves_by_key() {
        // Keys 1 and 6 tie at weight 30 and both sit on the wrong side of
        // a placement that splits each clique 3 to 1.
        let (mut keys, mut graph) = two_cliques();
        for (i, e) in keys.iter_mut().enumerate() {
            let home = u32::from(i >= 4);
            e.1 = PartitionId(if i == 1 || i == 6 { 1 - home } else { home });
        }
        let plan = compute_plan(&keys, &mut graph, &cfg(), 1, None);
        let moved: Vec<LocKey> = plan.moves.iter().map(|m| m.0).collect();
        assert_eq!(moved, vec![LocKey(1), LocKey(6)]);
    }

    #[test]
    fn warm_start_is_taken_within_the_quality_ratio() {
        let (mut keys, mut graph) = two_cliques();
        let full = compute_plan(&keys, &mut graph, &cfg(), 1, None);
        apply(&mut keys, &full.moves);
        // From the settled placement the warm refinement finds the same
        // cut: accepted, nothing moves, a tenth of the elements charged.
        let warm = compute_plan(&keys, &mut graph, &cfg(), 2, Some(full.cut_frac));
        assert!(warm.warm);
        assert_eq!((warm.moves.len(), warm.elements), (0, 2));
        assert_eq!(warm.cut_frac, full.cut_frac);
        // A reference the warm cut cannot come within the ratio of sends
        // the computation down the full pipeline.
        let strict = compute_plan(&keys, &mut graph, &cfg(), 2, Some(full.cut_frac / 2.0));
        assert!(!strict.warm);
        assert_eq!(strict.elements, 21);
    }

    #[test]
    fn edges_to_keys_that_left_the_map_are_skipped() {
        let (mut keys, mut graph) = two_cliques();
        keys.remove(5);
        keys.remove(2);
        let plan = compute_plan(&keys, &mut graph, &cfg(), 1, None);
        // 6 vertices; the cliques keep 3 edges each, plus the light edge.
        assert_eq!(plan.elements, 6 + 7);
        assert_eq!(plan.cut_frac, 1.0 / 301.0);
        assert!(plan.moves.iter().all(|m| m.0 != LocKey(2) && m.0 != LocKey(5)));
    }

    #[test]
    fn planner_gates_the_recompute_and_holds_the_plan() {
        let cfg = cfg();
        let (mut keys, mut graph) = two_cliques();
        let mut p = Planner::default();
        // Interval gate closed, then open; one proposal per version.
        assert_eq!(p.due(ms(1), &cfg, &graph, 0, 8), None);
        assert_eq!(p.due(ms(5), &cfg, &graph, 0, 8), Some(1));
        assert_eq!(p.due(ms(6), &cfg, &graph, 0, 8), None);
        // A marker a newer plan raced, or with nothing tracked, is dropped.
        assert!(!p.on_marker(&cfg, 1, 1, 8));
        assert!(!p.on_marker(&cfg, 1, 0, 0));
        assert!(p.on_marker(&cfg, 1, 0, 8));
        assert_eq!(p.take_pending(ms(7)), None);
        let started = p.start_compute(ms(7), &mut graph, &keys, &cfg, 1);
        assert!(!started.warm, "no reference cut yet");
        assert_eq!(started.after, SimDuration::from_micros(1_021));
        assert_eq!(started.cut_frac, 1.0 / 601.0);
        // While computing, nothing is due and a second marker is dropped.
        assert_eq!(p.due(ms(20), &cfg, &graph, 0, 8), None);
        assert!(!p.on_marker(&cfg, 1, 0, 8));
        let (version, moves, took) = p.take_pending(ms(9)).expect("the computed plan is pending");
        assert_eq!((version, took), (1, SimDuration::from_millis(2)));
        assert_eq!(p.take_pending(ms(9)), None);
        apply(&mut keys, &moves);
        p.on_plan_applied(ms(10));
        graph.reset_changes();
        // Below the change threshold nothing is due; past it, the interval
        // counts from the plan's application.
        assert_eq!(p.due(ms(30), &cfg, &graph, 1, 8), None);
        graph.merge_edges(&[(LocKey(0), 1); 10], &[]);
        assert_eq!(p.due(ms(14), &cfg, &graph, 1, 8), None);
        assert_eq!(p.due(ms(15), &cfg, &graph, 1, 8), Some(2));
        // Churn within the limit (2 of 8 ≤ 25%): the second plan is warm.
        p.note_churn();
        p.note_churn();
        let mut within = p.clone();
        let started = within.start_compute(ms(16), &mut graph, &keys, &cfg, 2);
        assert!(started.warm);
        assert_eq!(started.after, SimDuration::from_micros(1_002));
        // One more and it runs full, which also resets the churn count.
        p.note_churn();
        assert!(!p.start_compute(ms(16), &mut graph, &keys, &cfg, 2).warm);
        p.on_plan_applied(ms(17));
        assert!(p.start_compute(ms(18), &mut graph, &keys, &cfg, 3).warm);
        // Another shard than the planner neither proposes nor computes.
        let shard1 = OracleConfig { shards: 2, shard: 1, ..cfg };
        let mut q = Planner::default();
        assert_eq!(q.due(ms(50), &shard1, &graph, 0, 8), None);
        assert!(!q.on_marker(&shard1, 1, 0, 8));
    }
}
