//! The workload graph (Algorithm 2 Task 4): per-key access counts and
//! co-access edge weights, accumulated from hint batches on the planner
//! shard, capped as it grows, decayed at each recompute and read by the
//! plan computation.

use std::sync::Arc;

use dynastar_runtime::hash::FastHashMap;

use super::edge_rows::{EdgeRows, Hint, HintBatch};
use super::GraphContent;
use crate::command::{Application, LocKey};
use crate::payload::Payload;

/// Halves every weight and drops the entries that reach zero — leaving
/// them would leak memory under a churning keyspace.
fn halve<K>(map: &mut FastHashMap<K, u64>) {
    map.retain(|_, w| {
        *w /= 2;
        *w > 0
    });
}

/// Shrinks a weighted graph component to `cap` entries: first a decay pass,
/// then, if still over, eviction of the `excess` lowest-(weight, key)
/// entries — an exact selection, so the evicted set is a function of map
/// *content* alone (hash-map iteration order never shows through).
/// `scratch` is reused across passes and left empty. Returns how many
/// entries were removed.
fn shrink_weighted<K: Ord + Copy + std::hash::Hash>(
    map: &mut FastHashMap<K, u64>,
    cap: usize,
    scratch: &mut Vec<(u64, K)>,
) -> u64 {
    if map.len() <= cap {
        return 0;
    }
    let before = map.len();
    halve(map);
    if map.len() > cap {
        let excess = map.len() - cap;
        scratch.extend(map.iter().map(|(&k, &w)| (w, k)));
        scratch.select_nth_unstable(excess - 1);
        for &(_, k) in &scratch[..excess] {
            map.remove(&k);
        }
        scratch.clear();
    }
    (before - map.len()) as u64
}

/// Vertex and edge weights, and how many changes were merged since the
/// count was reset, with the scratch of the vertices' eviction pass.
#[derive(Default)]
pub(super) struct WorkloadGraph {
    vertices: FastHashMap<LocKey, u64>,
    edges: EdgeRows,
    changes: u64,
    shrink_vertices: Vec<(u64, LocKey)>,
}

/// A snapshot carries the content, the edge log included; a recovering
/// replica grows scratch of its own.
impl Clone for WorkloadGraph {
    fn clone(&self) -> Self {
        WorkloadGraph {
            vertices: self.vertices.clone(),
            edges: self.edges.clone(),
            changes: self.changes,
            shrink_vertices: Vec::new(),
        }
    }
}

/// A delivered hint payload is logged as it came.
impl<A: Application> HintBatch for Payload<A> {
    fn hint(&self) -> Option<Hint<'_>> {
        match self {
            Payload::HintSets { vertices, ranks, sets } => {
                Some(Hint::Sets { vertices, ranks, sets })
            }
            Payload::Hint { vertices, edges } => Some(Hint::Edges { vertices, edges }),
            _ => None,
        }
    }
}

impl WorkloadGraph {
    /// Merges a hint batch: its vertex weights at once, its edges into the
    /// log (see [`EdgeRows::log`]). Every vertex counts as one change, and
    /// so does every distinct key pair of a batch of sets or every entry
    /// of an edge list — what each entry of the expanded batch counted. A
    /// batch of sets out of shape, or a payload that is no hint, is dropped
    /// whole; returns whether the batch was merged.
    pub(super) fn merge(&mut self, batch: Arc<dyn HintBatch>) -> bool {
        let Some(hint) = batch.hint() else { return false };
        let Some(pairs) = self.edges.pairs_of(&hint) else { return false };
        let vertices = hint.vertices();
        self.changes += vertices.len() as u64 + pairs;
        for &(k, w) in vertices {
            *self.vertices.entry(k).or_insert(0) += w;
        }
        if pairs > 0 {
            self.edges.log(batch, pairs);
        }
        true
    }

    /// Brings each component that is over its cap back under it (see
    /// [`shrink_weighted`] and [`EdgeRows::shrink_to`]); the other is not
    /// touched. Returns how many entries went.
    pub(super) fn enforce_caps(&mut self, max_vertices: usize, max_edges: usize) -> u64 {
        shrink_weighted(&mut self.vertices, max_vertices, &mut self.shrink_vertices)
            + self.edges.shrink_to(max_edges)
    }

    /// Halves every weight so the graph tracks the *recent* workload.
    pub(super) fn decay(&mut self) {
        halve(&mut self.vertices);
        self.edges.halve();
    }

    /// Drops a deleted key's vertex. Its edges stay until they decay; the
    /// plan computation skips an edge whose endpoint left the map.
    pub(super) fn forget(&mut self, key: LocKey) {
        self.vertices.remove(&key);
    }

    /// Accumulated accesses of `key`.
    pub(super) fn weight(&self, key: LocKey) -> u64 {
        self.vertices.get(&key).copied().unwrap_or(0)
    }

    pub(super) fn changes(&self) -> u64 {
        self.changes
    }

    pub(super) fn reset_changes(&mut self) {
        self.changes = 0;
    }

    pub(super) fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// What the graph holds, counted in stored elements: vertices, edges
    /// in the rows and the logged batches' elements.
    pub(super) fn elements(&self) -> usize {
        self.vertices.len() + self.edges.folded_len() + self.edges.log_elements()
    }

    /// Edges folded into the rows; batches still logged are not counted.
    pub(super) fn folded_edges(&self) -> usize {
        self.edges.folded_len()
    }

    /// Edges in the graph, as a fold would leave it; the log itself stays
    /// as it is.
    pub(super) fn edge_count(&self) -> usize {
        let mut edges = self.edges.clone();
        edges.fold();
        edges.folded_len()
    }

    /// Merges a hint batch in the legacy expanded form.
    #[cfg(test)]
    pub(super) fn merge_edges(
        &mut self,
        vertices: &[(LocKey, u64)],
        edges: &[(LocKey, LocKey, u64)],
    ) {
        assert!(self.merge(Arc::new((vertices.to_vec(), edges.to_vec()))));
    }

    /// Every edge row in key order, with the log folded in: the edges'
    /// lower key and their `(upper key, weight)` entries, sorted by key.
    pub(super) fn rows(&mut self) -> impl Iterator<Item = (LocKey, &[(LocKey, u64)])> + Clone + '_ {
        self.edges.rows()
    }

    /// Every vertex and every edge with its weight, in key order, as a fold
    /// would leave them; the log itself stays as it is.
    pub(super) fn content(&self) -> GraphContent {
        let mut vertices: Vec<_> = self.vertices.iter().map(|(&k, &w)| (k, w)).collect();
        vertices.sort_unstable();
        let mut edges = self.edges.clone();
        let edges = edges.rows().flat_map(|(a, row)| row.iter().map(move |&(b, w)| (a, b, w)));
        (vertices, edges.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(key: u64) -> LocKey {
        LocKey(key)
    }

    #[test]
    fn merge_accepts_any_order() {
        let vertices = [(k(1), 2), (k(2), 3), (k(5), 1)];
        let edges = [(k(1), k(2), 4), (k(1), k(5), 1), (k(2), k(5), 7)];
        let mut sorted = WorkloadGraph::default();
        sorted.merge_edges(&vertices, &edges);
        let mut shuffled = WorkloadGraph::default();
        // Reversed, and two edges with their endpoints swapped.
        shuffled.merge_edges(
            &[(k(5), 1), (k(2), 3), (k(1), 2)],
            &[(k(5), k(2), 7), (k(1), k(5), 1), (k(2), k(1), 4)],
        );
        assert_eq!(sorted.content(), shuffled.content());
        assert_eq!(sorted.content(), (vertices.to_vec(), edges.to_vec()));
        assert_eq!((sorted.changes(), shuffled.changes()), (6, 6));
        // A second batch adds to the weights it finds.
        sorted.merge_edges(&[(k(1), 10)], &[(k(2), k(1), 10)]);
        assert_eq!(sorted.weight(k(1)), 12);
        assert_eq!(sorted.content().1[0], (k(1), k(2), 14));
        assert_eq!((sorted.vertex_count(), sorted.edge_count(), sorted.changes()), (3, 3, 8));
    }

    #[test]
    fn caps_halve_then_evict_only_the_component_that_is_over() {
        let mut g = WorkloadGraph::default();
        let vertices: Vec<(LocKey, u64)> = (0..6).map(|i| (k(i), 10 + 2 * i)).collect();
        let edges: Vec<(LocKey, LocKey, u64)> = (0..3).map(|i| (k(i), k(i + 1), 8)).collect();
        g.merge_edges(&vertices, &edges);
        // Vertices are over their cap of 4, edges at theirs: the vertices
        // are halved and the two lowest (weight, key) go; no edge moves.
        assert_eq!(g.enforce_caps(4, 3), 2);
        let (vs, es) = g.content();
        assert_eq!(vs, vec![(k(2), 7), (k(3), 8), (k(4), 9), (k(5), 10)]);
        assert_eq!(es, edges);
        // Now the edges alone: halved to 4 each, the tie evicts by key.
        assert_eq!(g.enforce_caps(4, 1), 2);
        assert_eq!(g.content(), (vs, vec![(k(2), k(3), 4)]));
        // Under both caps nothing decays.
        assert_eq!(g.enforce_caps(4, 1), 0);
        assert_eq!(g.weight(k(5)), 10);
        // Halving alone can bring a component under its cap: weight-1
        // entries decay away and count as evicted.
        g.merge_edges(&[(k(7), 1), (k(8), 1)], &[]);
        assert_eq!(g.enforce_caps(5, 1), 2);
        assert_eq!(g.content().0, vec![(k(2), 3), (k(3), 4), (k(4), 4), (k(5), 5)]);
    }

    #[test]
    fn forget_drops_the_vertex_and_keeps_its_edges() {
        let mut g = WorkloadGraph::default();
        g.merge_edges(&[(k(1), 5), (k(2), 5)], &[(k(1), k(2), 3)]);
        g.forget(k(1));
        assert_eq!((g.weight(k(1)), g.weight(k(2))), (0, 5));
        assert_eq!((g.vertex_count(), g.edge_count()), (1, 1));
        let rows: Vec<_> = g.rows().map(|(a, row)| (a, row.to_vec())).collect();
        assert_eq!(rows, vec![(k(1), vec![(k(2), 3)])]);
        // Decay halves both components and drops what reaches zero.
        g.decay();
        assert_eq!(g.content(), (vec![(k(2), 2)], vec![(k(1), k(2), 1)]));
        g.decay();
        g.decay();
        assert_eq!((g.vertex_count(), g.edge_count()), (0, 0));
    }

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
}
