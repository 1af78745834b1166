//! Undirected weighted graphs in compressed adjacency form.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// An undirected graph with vertex and edge weights, stored in CSR
/// (compressed sparse row) form for cache-friendly traversal.
///
/// Build one with [`GraphBuilder`]; see the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    /// `xadj[v]..xadj[v+1]` indexes `adj` for vertex `v`'s neighbours.
    xadj: Vec<usize>,
    /// `(neighbour, edge weight)` pairs.
    adj: Vec<(u32, u64)>,
    /// Vertex weights.
    vwgt: Vec<u64>,
    total_vwgt: u64,
    total_ewgt: u64,
}

impl Graph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Weight of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn vertex_weight(&self, v: u32) -> u64 {
        self.vwgt[v as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.total_vwgt
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.total_ewgt
    }

    /// The `(neighbour, edge weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[(u32, u64)] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = u32> {
        0..self.vertex_count() as u32
    }

    /// Assembles a graph directly from pre-built CSR arrays, bypassing
    /// [`GraphBuilder`]'s edge accumulator. The coarsening hot loop uses
    /// this: it merges parallel edges itself with a dense scratch map, so
    /// pushing every coarse edge through the builder's sort-and-merge
    /// again would only re-do (and slow down) work already done.
    ///
    /// Invariants the caller must uphold (checked in debug builds): every
    /// undirected edge appears exactly twice (once per endpoint row), rows
    /// contain no self-loops and no duplicate neighbours, and
    /// `xadj.len() == vwgt.len() + 1` with `xadj[n] == adj.len()`.
    pub(crate) fn from_csr(xadj: Vec<usize>, adj: Vec<(u32, u64)>, vwgt: Vec<u64>) -> Graph {
        debug_assert_eq!(xadj.len(), vwgt.len() + 1);
        debug_assert_eq!(*xadj.last().unwrap_or(&0), adj.len());
        debug_assert!(adj.len().is_multiple_of(2), "every undirected edge must appear twice");
        let total_ewgt = adj.iter().map(|&(_, w)| w).sum::<u64>() / 2;
        Graph { xadj, total_vwgt: vwgt.iter().sum(), vwgt, adj, total_ewgt }
    }
}

impl Graph {
    /// Builds the CSR form straight from an edge feed: `feed` passes every
    /// edge `(u, v, weight)` to its sink once, `u < v < vwgt.len()`, in
    /// ascending `(u, v)` order. It is the graph a [`GraphBuilder`] builds
    /// from the same edges and vertex weights, without the builder's edge
    /// list. `feed` is called twice — to count degrees, then to fill the
    /// rows — and must pass the same edges both times.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a vertex outside `vwgt`.
    pub fn from_ascending_edges(
        vwgt: Vec<u64>,
        feed: impl Fn(&mut dyn FnMut(u32, u32, u64)),
    ) -> Graph {
        let n = vwgt.len();
        let mut xadj = vec![0usize; n + 1];
        let mut last = None;
        feed(&mut |u, v, _| {
            debug_assert!(u < v && last < Some((u, v)), "edges must ascend, lower end first");
            last = Some((u, v));
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        });
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let mut adj = vec![(0u32, 0u64); xadj[n]];
        let mut cursor = xadj[..n].to_vec();
        let mut total_ewgt = 0;
        // Edges in ascending endpoint order: each row fills in ascending
        // neighbour order, its lower neighbours first.
        feed(&mut |u, v, w| {
            adj[cursor[u as usize]] = (v, w);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = (u, w);
            cursor[v as usize] += 1;
            total_ewgt += w;
        });
        Graph { xadj, adj, total_vwgt: vwgt.iter().sum(), vwgt, total_ewgt }
    }
}

/// Incremental builder for [`Graph`].
///
/// Vertices are created implicitly by mentioning them; duplicate edges are
/// merged by summing their weights; self-loops are ignored (they never
/// affect a partition's cut).
///
/// Edges fed in ascending `(min, max)` order without duplicates cost an
/// append each and a linear [`build`](Self::build); a caller that walks an
/// ordered adjacency can skip the builder's edge list altogether with
/// [`Graph::from_ascending_edges`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    /// `(min, max, weight)` in insertion order. [`build`](Self::build)
    /// sorts a copy stably by endpoints (a run-detecting sort: one pass
    /// when the feed is already ordered) and sums equal neighbours, so
    /// CSR rows fill in ascending `(min, max)` order whatever the feed.
    edges: Vec<(u32, u32, u64)>,
    vwgt: Vec<u64>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures vertex `v` exists (with default weight 1) and returns the
    /// builder for chaining.
    pub fn add_vertex(&mut self, v: u32) -> &mut Self {
        if self.vwgt.len() <= v as usize {
            self.vwgt.resize(v as usize + 1, 1);
        }
        self
    }

    /// Sets the weight of vertex `v`, creating it if needed.
    pub fn set_vertex_weight(&mut self, v: u32, w: u64) -> &mut Self {
        self.add_vertex(v);
        self.vwgt[v as usize] = w;
        self
    }

    /// Adds weight `w` to the undirected edge `{u, v}` (creating vertices
    /// as needed). Self-loops are ignored.
    pub fn add_edge(&mut self, u: u32, v: u32, w: u64) -> &mut Self {
        self.add_vertex(u);
        self.add_vertex(v);
        if u != v {
            self.edges.push((u.min(v), u.max(v), w));
        }
        self
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vwgt.len()
    }

    /// Finalizes into CSR form.
    pub fn build(&self) -> Graph {
        let ends = |&(u, v, _): &(u32, u32, u64)| (u, v);
        let sorted = if self.edges.is_sorted_by_key(ends) {
            Cow::Borrowed(&self.edges[..])
        } else {
            let mut copy = self.edges.clone();
            copy.sort_by_key(ends);
            Cow::Owned(copy)
        };
        // One edge per run of equal endpoints, weights summed.
        let merged = || {
            sorted.chunk_by(|a, b| ends(a) == ends(b)).map(|run| {
                let (u, v, _) = run[0];
                (u, v, run.iter().map(|&(_, _, w)| w).sum::<u64>())
            })
        };
        Graph::from_ascending_edges(self.vwgt.clone(), |sink| {
            for (u, v, w) in merged() {
                sink(u, v, w);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1).add_edge(1, 2, 2).add_edge(0, 2, 3);
        b.build()
    }

    #[test]
    fn builds_csr_correctly() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.total_edge_weight(), 6);
        assert_eq!(g.degree(0), 2);
        let mut n0: Vec<(u32, u64)> = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![(1, 1), (2, 3)]);
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1).add_edge(1, 0, 4);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[(1, 5)]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 9).add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_edge_weight(), 1);
    }

    #[test]
    fn isolated_vertices_survive() {
        let mut b = GraphBuilder::new();
        b.add_vertex(5);
        let g = b.build();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.total_vertex_weight(), 6);
    }

    #[test]
    fn vertex_weights_apply() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1);
        b.set_vertex_weight(0, 10);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 10);
        assert_eq!(g.vertex_weight(1), 1);
        assert_eq!(g.total_vertex_weight(), 11);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    /// The CSR a `BTreeMap<(min, max), weight>` accumulator builds from
    /// `edges` over `n` vertices of weight `1 + v`: rows filled in key
    /// order, parallel edges summed, self-loops dropped.
    fn reference(n: u32, edges: &[(u32, u32, u64)]) -> Graph {
        let mut merged = std::collections::BTreeMap::new();
        for &(u, v, w) in edges.iter().filter(|e| e.0 != e.1) {
            *merged.entry((u.min(v), u.max(v))).or_insert(0) += w;
        }
        let mut rows = vec![Vec::new(); n as usize];
        for (&(u, v), &w) in &merged {
            rows[u as usize].push((v, w));
            rows[v as usize].push((u, w));
        }
        let mut xadj = vec![0];
        for row in &rows {
            xadj.push(xadj.last().unwrap() + row.len());
        }
        let vwgt: Vec<u64> = (0..u64::from(n)).map(|v| 1 + v).collect();
        Graph::from_csr(xadj, rows.concat(), vwgt)
    }

    /// `edges` fed to a builder that knows `n` vertices of weight `1 + v`.
    fn built(n: u32, edges: &[(u32, u32, u64)]) -> Graph {
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.set_vertex_weight(v, 1 + u64::from(v));
        }
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// `edges` fed straight into the CSR, merged and ordered beforehand.
    fn fed(n: u32, edges: &[(u32, u32, u64)]) -> Graph {
        let mut merged = std::collections::BTreeMap::new();
        for &(u, v, w) in edges.iter().filter(|e| e.0 != e.1) {
            *merged.entry((u.min(v), u.max(v))).or_insert(0) += w;
        }
        let vwgt = (0..u64::from(n)).map(|v| 1 + v).collect();
        Graph::from_ascending_edges(vwgt, |sink| {
            for (&(u, v), &w) in &merged {
                sink(u, v, w);
            }
        })
    }

    fn assert_same_csr(got: &Graph, want: &Graph) {
        assert_eq!(got.xadj, want.xadj);
        assert_eq!(got.adj, want.adj);
        assert_eq!(got.vwgt, want.vwgt);
        assert_eq!(got.total_vwgt, want.total_vwgt);
        assert_eq!(got.total_ewgt, want.total_ewgt);
    }

    #[test]
    fn any_feed_order_builds_the_ordered_map_csr() {
        // Ascending `(min, max)` without repeats: the append-only feed.
        let sorted = [(0, 1, 3), (0, 4, 1), (1, 2, 5), (2, 4, 0), (3, 4, 7)];
        assert_same_csr(&built(6, &sorted), &reference(6, &sorted));
        // Reversed, endpoints swapped, repeated, with self-loops; vertex 5
        // stays isolated throughout.
        let mut messy: Vec<_> = sorted.iter().rev().map(|&(u, v, w)| (v, u, w)).collect();
        messy.extend([(1, 0, 2), (4, 4, 9), (0, 1, 1), (2, 2, 1), (4, 0, 6)]);
        let g = built(6, &messy);
        assert_same_csr(&g, &reference(6, &messy));
        assert_eq!(g.neighbors(0), &[(1, 6), (4, 7)]);
        assert_eq!(g.degree(5), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random edge lists — parallel edges, both endpoint orders,
        /// self-loops, untouched vertices — fed as drawn and fed sorted.
        #[test]
        fn builder_matches_the_ordered_map_reference(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40, 0u64..20), 0..300),
        ) {
            let mut edges: Vec<_> = raw.iter().map(|&(u, v, w)| (u % n, v % n, w)).collect();
            let want = reference(n, &edges);
            assert_same_csr(&built(n, &edges), &want);
            assert_same_csr(&fed(n, &edges), &want);
            edges.sort_unstable_by_key(|&(u, v, _)| (u.min(v), u.max(v)));
            assert_same_csr(&built(n, &edges), &want);
        }
    }
}
