//! The multilevel k-way partitioning algorithm.
//!
//! # Hot-path design
//!
//! Every phase runs on flat arrays so the cost per level is linear in the
//! level's size (the classic METIS complexity argument):
//!
//! * **Coarsening** contracts CSR→CSR directly: parallel coarse edges are
//!   merged through a dense `position + 1` scratch map indexed by coarse
//!   id, never through `GraphBuilder`'s sort-and-merge of an edge list
//!   (a coarse row's neighbours come out in no useful order). Matching
//!   and scratch buffers are reused across levels via [`Scratch`], and the
//!   first level borrows the caller's graph instead of cloning it.
//! * **Initial partitioning** grows regions off a lazy-deletion binary
//!   heap keyed by `(connection weight, Reverse(id))`: stale entries are
//!   skipped on pop, so each frontier update is `O(log n)` instead of the
//!   old `O(|frontier|)` full scan per pop.
//! * **Refinement** is FM-style over a *boundary worklist*: a pass visits
//!   only vertices that were boundary at the start of the pass (plus, on
//!   later passes, the neighbourhood of every vertex moved last pass), in
//!   ascending id order. Per-vertex part connectivity lives in a reusable
//!   dense `k`-sized buffer with a touched-part list, scanned in ascending
//!   part id so tie-breaks match the old `BTreeMap` iteration order.
//!
//! All of it is deterministic: the only randomness is the seeded
//! `StdRng`, every scan order is fixed (ascending ids), and every
//! comparison totally ordered.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::Graph;
use crate::partitioning::Partitioning;

/// Tuning knobs for [`partition`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Maximum allowed `heaviest part / ideal part` ratio. The paper
    /// configures METIS with 20% unbalance, i.e. 1.2.
    pub balance_factor: f64,
    /// Seed for the (deterministic) randomized matching and seeding.
    pub seed: u64,
    /// Stop coarsening when the graph has at most `coarsen_until * k`
    /// vertices.
    pub coarsen_until: usize,
    /// Maximum refinement passes per level.
    pub refine_passes: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { balance_factor: 1.2, seed: 1, coarsen_until: 30, refine_passes: 8 }
    }
}

impl PartitionConfig {
    /// Builder-style setter for the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the balance factor.
    ///
    /// # Panics
    ///
    /// Panics if `f < 1.0`.
    pub fn balance_factor(mut self, f: f64) -> Self {
        assert!(f >= 1.0, "balance factor must be >= 1.0");
        self.balance_factor = f;
        self
    }
}

const UNMATCHED: u32 = u32::MAX;
const FREE: u32 = u32::MAX;

/// Reusable working memory shared by every level of one `partition` run.
/// Allocated once and resized down as the hierarchy shrinks, so the
/// per-level cost is traversal, not allocation.
#[derive(Default)]
struct Scratch {
    /// Matching partner per fine vertex (contract).
    mate: Vec<u32>,
    /// Shuffled visit order (contract / grow seeds).
    order: Vec<u32>,
    /// Coarse members: `(representative, partner-or-UNMATCHED)` (contract).
    members: Vec<(u32, u32)>,
    /// Dense `coarse id -> position + 1` row-merge map; 0 = absent
    /// (contract). All-zero between calls.
    pos: Vec<u32>,
    /// Per-part connection weight of the current vertex (refine). Zeroed
    /// between vertices via `touched`.
    conn: Vec<u64>,
    /// Part ids with non-zero `conn` for the current vertex (refine).
    touched: Vec<u32>,
    /// Membership flag for the next pass's worklist (refine).
    queued: Vec<bool>,
    /// Current and next boundary worklists (refine).
    worklist: Vec<u32>,
    next_worklist: Vec<u32>,
}

/// Computes a k-way partitioning of `g` minimizing edge cut under the
/// configured balance constraint, using multilevel coarsening with
/// heavy-edge matching, greedy initial growing and boundary FM refinement.
///
/// The result is deterministic for a given `(graph, k, config)`.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn partition(g: &Graph, k: u32, cfg: &PartitionConfig) -> Partitioning {
    assert!(k > 0, "cannot partition into zero parts");
    let n = g.vertex_count();
    if k == 1 || n == 0 {
        return Partitioning::new(k.max(1), vec![0; n]);
    }
    if n <= k as usize {
        return Partitioning::new(k, (0..n as u32).map(|v| v % k).collect());
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scratch = Scratch::default();

    // Phase 1: coarsen. `graphs[i]` is the result of `i + 1` contractions;
    // `maps[i]` maps level-`i` fine ids to `graphs[i]` coarse ids (level 0
    // borrows the caller's graph — no clone).
    let mut graphs: Vec<Graph> = Vec::new();
    let mut maps: Vec<Vec<u32>> = Vec::new();
    let stop_at = (cfg.coarsen_until * k as usize).max(64);
    loop {
        let current = graphs.last().unwrap_or(g);
        if current.vertex_count() <= stop_at {
            break;
        }
        let (coarse, map) = contract(current, &mut rng, &mut scratch);
        if coarse.vertex_count() as f64 > current.vertex_count() as f64 * 0.95 {
            break; // matching stalled (e.g. star graphs)
        }
        // Every level costs a traversal of its *edges*, so coarsening only
        // pays while edges actually collapse. On power-law graphs heavy-edge
        // matching halves the vertices but leaves hub edges intact; without
        // this stall check the hierarchy is O(log n) levels of O(E) each.
        // Stopping early is fine — grow_initial and refine handle a large
        // coarsest graph, they are just slower than on a fully coarsened
        // one (METIS stops on the same condition).
        let edges_stalled = coarse.edge_count() as f64 > current.edge_count() as f64 * 0.92;
        maps.push(map);
        graphs.push(coarse);
        if edges_stalled {
            break;
        }
    }

    // Phase 2: initial partition of the coarsest graph.
    let coarsest = graphs.last().unwrap_or(g);
    let mut assignment = grow_initial(coarsest, k, &mut rng);
    refine(coarsest, k, &mut assignment, cfg, &mut scratch);

    // Phase 3: uncoarsen and refine.
    for lvl in (0..maps.len()).rev() {
        let finer = if lvl == 0 { g } else { &graphs[lvl - 1] };
        let map = &maps[lvl];
        let mut fine_assignment = vec![0u32; finer.vertex_count()];
        for v in 0..finer.vertex_count() {
            fine_assignment[v] = assignment[map[v] as usize];
        }
        assignment = fine_assignment;
        refine(finer, k, &mut assignment, cfg, &mut scratch);
    }
    debug_assert_eq!(assignment.len(), g.vertex_count());
    Partitioning::new(k, assignment)
}

/// Warm-starts refinement from a previous assignment instead of running
/// the full multilevel pipeline — the incremental repartitioning path: on
/// a graph that drifted modestly since `prev` was computed, boundary
/// refinement recovers a near-optimal cut in a fraction of the full cost,
/// and because it starts from `prev`'s labels the result needs no
/// label re-alignment before diffing.
///
/// `prev` entries `>= k` are clamped into range (a shrunk part count
/// folds tail parts onto `k - 1`). The result is deterministic for a
/// given `(graph, k, prev, config)` — this path uses no randomness at
/// all.
///
/// # Panics
///
/// Panics if `k` is zero or `prev.len() != g.vertex_count()`.
pub fn partition_from(g: &Graph, k: u32, prev: &[u32], cfg: &PartitionConfig) -> Partitioning {
    assert!(k > 0, "cannot partition into zero parts");
    assert_eq!(prev.len(), g.vertex_count(), "previous assignment does not cover the graph");
    let n = g.vertex_count();
    if k == 1 || n == 0 {
        return Partitioning::new(k.max(1), vec![0; n]);
    }
    let mut assignment: Vec<u32> = prev.iter().map(|&p| p.min(k - 1)).collect();
    let mut scratch = Scratch::default();
    refine(g, k, &mut assignment, cfg, &mut scratch);
    Partitioning::new(k, assignment)
}

/// One coarsening step: heavy-edge matching followed by direct CSR→CSR
/// contraction. Returns the coarse graph and the fine→coarse vertex map.
fn contract(g: &Graph, rng: &mut StdRng, s: &mut Scratch) -> (Graph, Vec<u32>) {
    let n = g.vertex_count();
    s.mate.clear();
    s.mate.resize(n, UNMATCHED);
    s.order.clear();
    s.order.extend(0..n as u32);
    s.order.shuffle(rng);
    for &v in &s.order {
        if s.mate[v as usize] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbour; ties broken by smaller id for
        // determinism given the shuffle.
        let mut best: Option<(u64, u32)> = None;
        for &(u, w) in g.neighbors(v) {
            if s.mate[u as usize] == UNMATCHED && u != v {
                let cand = (w, u);
                best = Some(match best {
                    None => cand,
                    Some(b) => {
                        if (cand.0, Reverse(cand.1)) > (b.0, Reverse(b.1)) {
                            cand
                        } else {
                            b
                        }
                    }
                });
            }
        }
        match best {
            Some((_, u)) => {
                s.mate[v as usize] = u;
                s.mate[u as usize] = v;
            }
            None => s.mate[v as usize] = v, // singleton
        }
    }
    // Assign coarse ids (pair representative = smaller endpoint) and
    // record each coarse vertex's one or two members.
    let mut map = vec![UNMATCHED; n];
    s.members.clear();
    for v in 0..n as u32 {
        if map[v as usize] != UNMATCHED {
            continue;
        }
        let m = s.mate[v as usize];
        let c = s.members.len() as u32;
        map[v as usize] = c;
        if m != v {
            map[m as usize] = c;
            s.members.push((v, m));
        } else {
            s.members.push((v, UNMATCHED));
        }
    }
    // Build the coarse CSR row by row. Parallel edges between the same
    // coarse pair merge through `pos` (dense coarse id -> row position + 1
    // map, reset after each row by walking the row just built).
    let cn = s.members.len();
    s.pos.clear();
    s.pos.resize(cn, 0);
    let mut xadj = vec![0usize; cn + 1];
    // Each coarse edge stems from a fine one, and a coarse row holds each
    // other coarse vertex at most once: on a dense graph the second bound
    // is the tighter.
    let mut adj: Vec<(u32, u64)> =
        Vec::with_capacity((g.edge_count() * 2).min(cn * cn.saturating_sub(1)));
    let mut vwgt = vec![0u64; cn];
    for c in 0..cn {
        let row_start = adj.len();
        let (a, b) = s.members[c];
        for fv in [a, b] {
            if fv == UNMATCHED {
                continue;
            }
            vwgt[c] += g.vertex_weight(fv);
            for &(u, w) in g.neighbors(fv) {
                let cu = map[u as usize];
                if cu == c as u32 {
                    continue; // internal edge collapses
                }
                match s.pos[cu as usize] {
                    0 => {
                        adj.push((cu, w));
                        s.pos[cu as usize] = (adj.len() - row_start) as u32;
                    }
                    p => adj[row_start + p as usize - 1].1 += w,
                }
            }
        }
        for &(cu, _) in &adj[row_start..] {
            s.pos[cu as usize] = 0;
        }
        xadj[c + 1] = adj.len();
    }
    (Graph::from_csr(xadj, adj, vwgt), map)
}

/// Greedy region growing: grow each part from a random seed, preferring
/// frontier vertices strongly connected to the region, until it reaches the
/// ideal weight; leftovers go to the last part.
///
/// The frontier is a lazy-deletion max-heap on `(connection weight,
/// Reverse(id))`: growing a region pushes an entry per connection-weight
/// increase and pops skip entries whose recorded weight is stale or whose
/// vertex was already assigned. Weights only ever increase, so the first
/// up-to-date entry popped is the true maximum — the same vertex the old
/// full frontier scan selected, at `O(log n)` per update.
fn grow_initial(g: &Graph, k: u32, rng: &mut StdRng) -> Vec<u32> {
    let n = g.vertex_count();
    let mut assignment = vec![FREE; n];
    let target = g.total_vertex_weight() / k as u64;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut cursor = 0usize;

    // Current frontier connection weight per vertex, reset between parts
    // via `touched` (only vertices the frontier actually reached).
    let mut conn = vec![0u64; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();

    for part in 0..k.saturating_sub(1) {
        // Find an unassigned seed.
        while cursor < n && assignment[order[cursor] as usize] != FREE {
            cursor += 1;
        }
        if cursor >= n {
            break;
        }
        let seed = order[cursor];
        let mut weight = 0u64;
        heap.clear();
        heap.push((0, Reverse(seed)));
        touched.push(seed);
        while weight < target.max(1) {
            // Best-connected frontier vertex (ties by id for determinism).
            let Some((w, Reverse(v))) = heap.pop() else {
                break;
            };
            if assignment[v as usize] != FREE || w != conn[v as usize] {
                continue; // already grabbed, or a stale (superseded) entry
            }
            assignment[v as usize] = part;
            weight += g.vertex_weight(v);
            for &(u, w) in g.neighbors(v) {
                if assignment[u as usize] == FREE {
                    if conn[u as usize] == 0 {
                        touched.push(u);
                    }
                    conn[u as usize] += w;
                    heap.push((conn[u as usize], Reverse(u)));
                }
            }
        }
        for &v in &touched {
            conn[v as usize] = 0;
        }
        touched.clear();
    }
    // Everything left joins the last part.
    for a in assignment.iter_mut() {
        if *a == FREE {
            *a = k - 1;
        }
    }
    assignment
}

/// Boundary FM-style refinement: greedily move boundary vertices with
/// positive gain (or zero gain improving balance) under the balance cap,
/// plus an explicit rebalancing sweep for overweight parts.
///
/// Passes walk a worklist instead of all `n` vertices: the first pass
/// visits the initial boundary (every vertex with an off-part neighbour),
/// later passes visit only vertices whose neighbourhood changed — each
/// moved vertex and its neighbours. Worklists are processed in ascending
/// vertex id, so the schedule is deterministic and matches the old full
/// sweep's order on the vertices both visit.
fn refine(g: &Graph, k: u32, assignment: &mut [u32], cfg: &PartitionConfig, s: &mut Scratch) {
    let n = g.vertex_count();
    let ideal = g.total_vertex_weight() as f64 / k as f64;
    let cap = (ideal * cfg.balance_factor).ceil() as u64;
    let mut weights = vec![0u64; k as usize];
    for v in 0..n {
        weights[assignment[v] as usize] += g.vertex_weight(v as u32);
    }

    s.conn.clear();
    s.conn.resize(k as usize, 0);
    s.touched.clear();
    s.queued.clear();
    s.queued.resize(n, false);
    s.worklist.clear();
    s.next_worklist.clear();
    // Initial worklist: the boundary, in ascending id order.
    for v in 0..n as u32 {
        let own = assignment[v as usize];
        if g.neighbors(v).iter().any(|&(u, _)| assignment[u as usize] != own) {
            s.worklist.push(v);
        }
    }

    for _pass in 0..cfg.refine_passes {
        if s.worklist.is_empty() {
            break;
        }
        let mut moves = 0usize;
        for i in 0..s.worklist.len() {
            let v = s.worklist[i];
            let own = assignment[v as usize];
            // Connection weight to each adjacent part, accumulated in the
            // dense k-sized buffer. The best-target scan below visits
            // touched parts in ascending part id — the same order (and so
            // the same equal-gain tie-break) as the old BTreeMap walk;
            // iterating in hash order would pick a different part per
            // process and diverge replica plans.
            let mut own_conn = 0u64;
            for &(u, w) in g.neighbors(v) {
                let pu = assignment[u as usize];
                if pu == own {
                    own_conn += w;
                } else {
                    if s.conn[pu as usize] == 0 {
                        s.touched.push(pu);
                    }
                    s.conn[pu as usize] += w;
                }
            }
            if s.touched.is_empty() {
                continue; // interior vertex
            }
            s.touched.sort_unstable();
            let vw = g.vertex_weight(v);
            // Best target by (gain, lighter part, lower id): strictly
            // higher gain wins; equal gain prefers the lighter target
            // part; full ties resolve to the lower part id via the
            // ascending scan.
            let mut best: Option<(i64, u64, u32)> = None;
            for &p in &s.touched {
                let w_to = s.conn[p as usize];
                s.conn[p as usize] = 0;
                if weights[p as usize] + vw > cap {
                    continue;
                }
                let gain = w_to as i64 - own_conn as i64;
                let better_balance = weights[p as usize] + vw < weights[own as usize];
                if gain > 0 || (gain == 0 && better_balance) {
                    let cand = (gain, weights[p as usize], p);
                    best = Some(match best {
                        None => cand,
                        Some(b) if cand.0 > b.0 || (cand.0 == b.0 && cand.1 < b.1) => cand,
                        Some(b) => b,
                    });
                }
            }
            s.touched.clear();
            if let Some((_, _, p)) = best {
                weights[own as usize] -= vw;
                weights[p as usize] += vw;
                assignment[v as usize] = p;
                moves += 1;
                // The move changed the neighbourhood: revisit v and its
                // neighbours next pass.
                if !s.queued[v as usize] {
                    s.queued[v as usize] = true;
                    s.next_worklist.push(v);
                }
                for &(u, _) in g.neighbors(v) {
                    if !s.queued[u as usize] {
                        s.queued[u as usize] = true;
                        s.next_worklist.push(u);
                    }
                }
            }
        }
        if moves == 0 {
            break;
        }
        std::mem::swap(&mut s.worklist, &mut s.next_worklist);
        s.next_worklist.clear();
        s.worklist.sort_unstable();
        for &v in &s.worklist {
            s.queued[v as usize] = false;
        }
    }

    // Rebalance: for each overweight part, move its least-attached
    // vertices to the lightest parts until it fits under the cap. One
    // sorted sweep per part keeps this O(n log n) rather than O(n²).
    for over in 0..k {
        if weights[over as usize] <= cap {
            continue;
        }
        // Candidates sorted by how much cut weight the move would cost.
        let mut candidates: Vec<(i64, u32)> = (0..n as u32)
            .filter(|&v| assignment[v as usize] == over)
            .map(|v| {
                let own_conn: i64 = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&(u, _)| assignment[u as usize] == over)
                    .map(|&(_, w)| w as i64)
                    .sum();
                (own_conn, v)
            })
            .collect();
        candidates.sort_unstable();
        for (_, v) in candidates {
            if weights[over as usize] <= cap {
                break;
            }
            let vw = g.vertex_weight(v);
            let target = (0..k)
                .filter(|&p| p != over)
                .min_by_key(|&p| weights[p as usize])
                .expect("k >= 2 when rebalancing");
            if weights[target as usize] + vw >= weights[over as usize] {
                continue; // move would not improve balance
            }
            weights[over as usize] -= vw;
            weights[target as usize] += vw;
            assignment[v as usize] = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::partitioning::Partitioning;

    /// `blocks` cliques of `size` vertices, ring-connected by light edges.
    fn clustered(blocks: u32, size: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for c in 0..blocks {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    b.add_edge(base + i, base + j, 100);
                }
            }
            let next = ((c + 1) % blocks) * size;
            b.add_edge(base, next, 1);
        }
        b.build()
    }

    #[test]
    fn finds_natural_clusters() {
        let g = clustered(4, 8);
        let p = partition(&g, 4, &PartitionConfig::default());
        // The 4 rings of cliques should be split exactly on the light ring
        // edges: cut = 4 (one light edge per adjacent block pair).
        assert_eq!(p.edge_cut(&g), 4);
        assert!(p.balance(&g) <= 1.2 + 1e-9);
        // Each clique is monochromatic.
        for c in 0..4u32 {
            let part = p.part_of(c * 8);
            for i in 0..8 {
                assert_eq!(p.part_of(c * 8 + i), part, "clique {c} split");
            }
        }
    }

    #[test]
    fn respects_balance_on_uniform_graph() {
        // A 2D grid, k=3.
        let mut b = GraphBuilder::new();
        let side = 12u32;
        for x in 0..side {
            for y in 0..side {
                let v = x * side + y;
                if x + 1 < side {
                    b.add_edge(v, (x + 1) * side + y, 1);
                }
                if y + 1 < side {
                    b.add_edge(v, x * side + y + 1, 1);
                }
            }
        }
        let g = b.build();
        let p = partition(&g, 3, &PartitionConfig::default());
        assert!(p.balance(&g) <= 1.2 + 1e-9, "balance = {}", p.balance(&g));
        // A reasonable cut: far below the total edge weight.
        assert!(p.edge_cut(&g) < g.total_edge_weight() / 4);
    }

    #[test]
    fn k_equals_one_puts_everything_together() {
        let g = clustered(2, 4);
        let p = partition(&g, 1, &PartitionConfig::default());
        assert!(p.assignment().iter().all(|&x| x == 0));
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn tiny_graph_smaller_than_k() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1);
        let g = b.build();
        let p = partition(&g, 4, &PartitionConfig::default());
        assert_eq!(p.assignment().len(), 2);
        assert!(p.assignment().iter().all(|&x| x < 4));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = clustered(3, 10);
        let cfg = PartitionConfig::default().seed(7);
        let a = partition(&g, 3, &cfg);
        let b = partition(&g, 3, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // Two heavy vertices and many light ones: the heavies should end
        // up in different parts.
        let mut b = GraphBuilder::new();
        for v in 2..20u32 {
            b.add_edge(0, v, 1);
            b.add_edge(1, v, 1);
        }
        b.set_vertex_weight(0, 100);
        b.set_vertex_weight(1, 100);
        let g = b.build();
        let p = partition(&g, 2, &PartitionConfig::default());
        assert_ne!(p.part_of(0), p.part_of(1), "heavy vertices must split");
        assert!(p.balance(&g) <= 1.25, "balance = {}", p.balance(&g));
    }

    #[test]
    fn empty_graph_partitions_trivially() {
        let g = GraphBuilder::new().build();
        let p = partition(&g, 4, &PartitionConfig::default());
        assert!(p.assignment().is_empty());
    }

    #[test]
    fn improves_over_random_assignment() {
        use crate::baseline::random_partition;
        let g = clustered(4, 12);
        let optimized = partition(&g, 4, &PartitionConfig::default());
        let random = random_partition(g.vertex_count(), 4, 99);
        assert!(
            optimized.edge_cut(&g) * 10 < random.edge_cut(&g),
            "multilevel ({}) should beat random ({}) by >10x on clustered graphs",
            optimized.edge_cut(&g),
            random.edge_cut(&g)
        );
        let _ = Partitioning::new(4, optimized.assignment().to_vec());
    }

    #[test]
    fn equal_gain_moves_prefer_the_lighter_part() {
        // Vertex 0 sits between part 1 and part 2 with identical
        // connection weight (gain +5 to either), while heavy internal
        // edges pin every anchor vertex in place. Part 2 is lighter, so
        // the (gain, lighter part, id) order must send vertex 0 there —
        // the first-wins ascending scan alone would pick part 1.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 5); // toward part 1
        b.add_edge(0, 3, 5); // toward part 2
        b.add_edge(1, 2, 100); // part 1 anchor pair
        b.add_edge(3, 4, 100); // part 2 anchor pair
        b.add_edge(5, 6, 100); // extra part 1 ballast
        b.set_vertex_weight(0, 1);
        for v in [1u32, 2, 5, 6] {
            b.set_vertex_weight(v, 4); // part 1 weighs 16
        }
        for v in [3u32, 4] {
            b.set_vertex_weight(v, 2); // part 2 weighs 4
        }
        let g = b.build();
        let prev = vec![0u32, 1, 1, 2, 2, 1, 1];
        let cfg = PartitionConfig { balance_factor: 3.0, ..PartitionConfig::default() };
        let p = partition_from(&g, 3, &prev, &cfg);
        assert_eq!(p.part_of(0), 2, "equal gain must break toward the lighter part");
    }

    #[test]
    fn partition_from_is_deterministic_and_preserves_balance() {
        let g = clustered(4, 8);
        let full = partition(&g, 4, &PartitionConfig::default());
        // Perturb: push the first clique's vertices to the wrong parts.
        let mut prev = full.assignment().to_vec();
        for (slot, p) in prev.iter_mut().take(6).zip([1u32, 2, 3, 1, 2, 3]) {
            *slot = p;
        }
        let cfg = PartitionConfig::default();
        let a = partition_from(&g, 4, &prev, &cfg);
        let b = partition_from(&g, 4, &prev, &cfg);
        assert_eq!(a, b, "warm start must be deterministic");
        assert!(a.balance(&g) <= 1.2 + 1e-9, "balance = {}", a.balance(&g));
    }

    #[test]
    fn warm_start_tracks_full_quality_on_a_mutated_graph() {
        // Partition the clustered graph, then mutate it the way a workload
        // shifts: strengthen one inter-block seam and add fresh intra-block
        // edges. The warm-started cut must stay within 1.1x of a fresh
        // full multilevel run.
        let g = clustered(4, 8);
        let before = partition(&g, 4, &PartitionConfig::default());
        let mut b = GraphBuilder::new();
        for c in 0..4u32 {
            let base = c * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_edge(base + i, base + j, 100);
                }
            }
            b.add_edge(base, ((c + 1) % 4) * 8, 1);
        }
        b.add_edge(3, 11, 3); // the seam that shifted
        b.add_edge(17, 29, 2);
        let mutated = b.build();
        let cfg = PartitionConfig::default();
        let warm = partition_from(&mutated, 4, before.assignment(), &cfg);
        let full = partition(&mutated, 4, &cfg);
        assert!(
            warm.edge_cut(&mutated) as f64 <= 1.1 * full.edge_cut(&mutated) as f64,
            "warm cut {} vs full cut {}",
            warm.edge_cut(&mutated),
            full.edge_cut(&mutated)
        );
        assert!(warm.balance(&mutated) <= 1.2 + 1e-9);
    }

    #[test]
    fn partition_from_clamps_out_of_range_parts() {
        let g = clustered(2, 4);
        let prev = vec![7u32; g.vertex_count()]; // all out of range for k=2
        let p = partition_from(&g, 2, &prev, &PartitionConfig::default());
        assert!(p.assignment().iter().all(|&x| x < 2));
    }

    #[test]
    fn partition_from_on_empty_and_k1() {
        let g = GraphBuilder::new().build();
        let p = partition_from(&g, 3, &[], &PartitionConfig::default());
        assert!(p.assignment().is_empty());
        let g = clustered(2, 4);
        let prev = vec![1u32; g.vertex_count()];
        let p = partition_from(&g, 1, &prev, &PartitionConfig::default());
        assert!(p.assignment().iter().all(|&x| x == 0));
    }
}
