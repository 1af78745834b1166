//! The workload graph's co-access edge store: adjacency rows keyed by an
//! edge's lower key.
//!
//! Hint batches arrive sorted by `(a, b)`, so a batch is a few
//! hundred runs that share their lower key: one row lookup per run, then
//! increments inside one small table — where a flat pair-keyed map probes
//! a table the size of the whole graph for every edge. Rows are kept in key
//! order; a reader that needs edges in `(a, b)` order (the planner's graph
//! build) sorts one row at a time.

use std::collections::BTreeMap;

use dynastar_runtime::hash::FastHashMap;

use crate::command::LocKey;

/// Undirected weighted edges; `(a, b)` and `(b, a)` are the same edge.
#[derive(Debug, Clone, Default)]
pub(super) struct EdgeRows {
    /// `rows[a][b]` is the weight of edge `(a, b)`, `a <= b`. No row is
    /// empty.
    rows: BTreeMap<LocKey, FastHashMap<LocKey, u64>>,
    /// Edges stored, over all rows.
    len: usize,
}

impl EdgeRows {
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Adds each `(a, b, weight)` to its edge, creating the edge if need
    /// be (also at weight 0). Any order is accepted; a batch sorted by
    /// lower key looks each row up once.
    pub(super) fn add_all(&mut self, edges: &[(LocKey, LocKey, u64)]) {
        let mut rest = edges;
        while let Some(&(a, b, _)) = rest.first() {
            let lower = a.min(b);
            let run = rest.iter().take_while(|&&(a, b, _)| a.min(b) == lower).count();
            let row = self.rows.entry(lower).or_default();
            let before = row.len();
            for &(a, b, weight) in &rest[..run] {
                *row.entry(a.max(b)).or_insert(0) += weight;
            }
            self.len += row.len() - before;
            rest = &rest[run..];
        }
    }

    /// Halves every weight and drops the edges that reach zero.
    pub(super) fn halve(&mut self) {
        self.rows.retain(|_, row| {
            row.retain(|_, w| {
                *w /= 2;
                *w > 0
            });
            !row.is_empty()
        });
        self.len = self.rows.values().map(FastHashMap::len).sum();
    }

    /// Shrinks the store to `cap` edges by the rule the graph's vertices
    /// follow: a decay pass, then eviction of the excess
    /// lowest-`(weight, (a, b))` edges — an exact selection, so what goes
    /// is a function of content alone. `scratch` is left empty. Returns
    /// how many went.
    pub(super) fn shrink_to(
        &mut self,
        cap: usize,
        scratch: &mut Vec<(u64, (LocKey, LocKey))>,
    ) -> u64 {
        if self.len <= cap {
            return 0;
        }
        let before = self.len;
        self.halve();
        if self.len > cap {
            let excess = self.len - cap;
            for (&a, row) in &self.rows {
                scratch.extend(row.iter().map(|(&b, &w)| (w, (a, b))));
            }
            scratch.select_nth_unstable(excess - 1);
            for &(_, (a, b)) in &scratch[..excess] {
                self.remove(a, b);
            }
            scratch.clear();
        }
        (before - self.len) as u64
    }

    fn remove(&mut self, a: LocKey, b: LocKey) {
        let Some(row) = self.rows.get_mut(&a) else { return };
        if row.remove(&b).is_some() {
            self.len -= 1;
            if row.is_empty() {
                self.rows.remove(&a);
            }
        }
    }

    /// Calls `visit` with every row in key order: the edges' lower key and
    /// their `(upper key, weight)` entries, sorted by key.
    pub(super) fn for_each_row(&self, mut visit: impl FnMut(LocKey, &[(LocKey, u64)])) {
        let mut sorted = Vec::new();
        for (&a, row) in &self.rows {
            sorted.clear();
            sorted.extend(row.iter().map(|(&b, &w)| (b, w)));
            sorted.sort_unstable();
            visit(a, &sorted);
        }
    }
}
