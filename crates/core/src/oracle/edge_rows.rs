//! The workload graph's co-access edge store: adjacency rows keyed by an
//! edge's lower key.
//!
//! A hint batch arrives as key sets (see [`EdgeRows::add_sets`]), and its
//! pairs are written row by row in key order: one row lookup per lower key,
//! then increments inside one small table — where a flat pair-keyed map
//! probes a table the size of the whole graph for every edge. Rows are kept
//! in key order; a reader that needs edges in `(a, b)` order (the planner's
//! graph build) sorts one row at a time.

use std::collections::BTreeMap;

use dynastar_runtime::hash::FastHashMap;

use crate::command::LocKey;

/// Buffers [`EdgeRows::add_sets`] reuses from batch to batch. Between
/// batches only their capacity matters, except that `acc` and `bits` are
/// all zero.
#[derive(Debug, Default)]
pub(super) struct Expansion {
    /// `members[starts[r]..starts[r + 1]]`: for every set that holds rank
    /// `r` before its last position, the span in the batch's rank list of
    /// the members after `r`, and the set's multiplicity.
    starts: Vec<u32>,
    members: Vec<(u32, u32, u32)>,
    /// Dense accumulator: the weight gathered for each rank…
    acc: Vec<u64>,
    /// …and one bit per rank that has gathered any.
    bits: Vec<u64>,
}

impl Expansion {
    /// Inverts the batch's sets by one counting sort: fills `starts` and
    /// `members`. Returns false, and fills nothing, unless the keys ascend,
    /// every set holds two or more ranks that ascend among them, and the
    /// set lengths add up to the rank list.
    fn invert(&mut self, vertices: &[(LocKey, u64)], ranks: &[u32], sets: &[(u32, u32)]) -> bool {
        let distinct = vertices.len();
        // `(start, end, multiplicity)` of each set in `ranks`.
        let spans = || {
            sets.iter().scan(0, |end, &(len, times)| {
                let start = *end;
                *end += len as usize;
                Some((start, *end, times))
            })
        };
        let ascending = |set: &[u32]| {
            set.len() > 1
                && set.windows(2).all(|w| w[0] < w[1])
                && set.last().is_some_and(|&r| (r as usize) < distinct)
        };
        let covered: usize = sets.iter().map(|&(len, _)| len as usize).sum();
        if covered != ranks.len()
            || !vertices.windows(2).all(|w| w[0].0 < w[1].0)
            || !spans().all(|(start, end, _)| ascending(&ranks[start..end]))
        {
            return false;
        }
        self.starts.clear();
        self.starts.resize(distinct + 1, 0);
        // A set's last member has nobody after it.
        for (start, end, _) in spans() {
            for &r in &ranks[start..end - 1] {
                self.starts[r as usize] += 1;
            }
        }
        let mut total = 0;
        for start in &mut self.starts {
            total += *start;
            *start = total;
        }
        // `starts[r]` is now where rank r's entries end; filling backwards
        // leaves it where they begin, which is where rank r − 1's end.
        self.members.clear();
        self.members.resize(total as usize, (0, 0, 0));
        for (start, end, times) in spans() {
            for (at, &r) in (start..).zip(&ranks[start..end - 1]) {
                let slot = &mut self.starts[r as usize];
                *slot -= 1;
                self.members[*slot as usize] = (at as u32 + 1, end as u32, times);
            }
        }
        self.acc.resize(distinct, 0);
        self.bits.resize(distinct.div_ceil(64), 0);
        true
    }
}

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
    /// be (also at weight 0): the expanded hint form. Any order is
    /// accepted; a batch sorted by lower key looks each row up once.
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

    /// Adds every key pair of every set in a hint batch, weighing the
    /// set's multiplicity, as if the pairs had come expanded and sorted by
    /// `(a, b)`: `vertices` are the batch's keys in ascending order, and
    /// `ranks` holds each set as ascending indices into them, back to
    /// back, with `sets` giving each one's `(length, multiplicity)`.
    /// Returns how many distinct pairs the batch held, or `None`, adding
    /// nothing, if the batch is not of that shape.
    ///
    /// Row `a` of the batch's co-access product is built for `a` ascending:
    /// every member after `a` in every set that holds it adds the set's
    /// multiplicity into a dense per-rank accumulator and marks a bit, and
    /// the marked bits, read back in order, are the row — sorted and
    /// coalesced by construction (Gustavson's row-wise sparse accumulator).
    /// A key in one set only skips the accumulator: its row is that set's
    /// tail.
    pub(super) fn add_sets(
        &mut self,
        vertices: &[(LocKey, u64)],
        ranks: &[u32],
        sets: &[(u32, u32)],
        scratch: &mut Expansion,
    ) -> Option<u64> {
        if !scratch.invert(vertices, ranks, sets) {
            return None;
        }
        let Expansion { starts, members, acc, bits } = scratch;
        let mut pairs = 0;
        for (a, &(key, _)) in vertices.iter().enumerate() {
            let sets = &members[starts[a] as usize..starts[a + 1] as usize];
            if sets.is_empty() {
                continue;
            }
            let row = self.rows.entry(key).or_default();
            let before = row.len();
            if let [(from, to, times)] = *sets {
                let tail = &ranks[from as usize..to as usize];
                for &b in tail {
                    *row.entry(vertices[b as usize].0).or_insert(0) += u64::from(times);
                }
                pairs += tail.len() as u64;
            } else {
                for &(from, to, times) in sets {
                    for &b in &ranks[from as usize..to as usize] {
                        acc[b as usize] += u64::from(times);
                        bits[b as usize / 64] |= 1 << (b % 64);
                    }
                }
                // Everything marked ranks above `a`.
                for (w, word) in bits.iter_mut().enumerate().skip(a / 64) {
                    let mut marked = std::mem::take(word);
                    while marked != 0 {
                        let b = w * 64 + marked.trailing_zeros() as usize;
                        marked &= marked - 1;
                        *row.entry(vertices[b].0).or_insert(0) += std::mem::take(&mut acc[b]);
                        pairs += 1;
                    }
                }
            }
            self.len += row.len() - before;
        }
        Some(pairs)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn content(rows: &EdgeRows) -> Vec<(u64, u64, u64)> {
        let mut edges = Vec::new();
        rows.for_each_row(|a, row| edges.extend(row.iter().map(|&(b, w)| (a.0, b.0, w))));
        edges
    }

    #[test]
    fn sets_add_their_pairs_with_their_multiplicity() {
        let vertices: Vec<(LocKey, u64)> = [2, 4, 6, 8].map(|k| (LocKey(k), 1)).to_vec();
        // {2, 4, 8} twice, {4, 6, 8} once, {2, 4} once.
        let (ranks, sets) = (vec![0, 1, 3, 1, 2, 3, 0, 1], vec![(3, 2), (3, 1), (2, 1)]);
        let mut rows = EdgeRows::default();
        let mut scratch = Expansion::default();
        assert_eq!(rows.add_sets(&vertices, &ranks, &sets, &mut scratch), Some(5));
        let want = vec![(2, 4, 3), (2, 8, 2), (4, 6, 1), (4, 8, 3), (6, 8, 1)];
        assert_eq!((content(&rows), rows.len()), (want, 5));
        // The scratch is left zeroed: a second batch adds to what it finds.
        assert_eq!(rows.add_sets(&vertices[2..], &[0, 1], &[(2, 4)], &mut scratch), Some(1));
        assert_eq!(content(&rows)[4], (6, 8, 5));
        assert!(scratch.acc.iter().all(|&w| w == 0) && scratch.bits.iter().all(|&w| w == 0));
    }

    /// A batch out of shape would write an edge under the wrong lower key,
    /// or index past the vertex list: it is refused whole.
    #[test]
    fn sets_out_of_shape_add_nothing() {
        let mut rows = EdgeRows::default();
        let mut refused = |vertices: &[(LocKey, u64)], ranks: &[u32], sets: &[(u32, u32)]| {
            assert_eq!(rows.add_sets(vertices, ranks, sets, &mut Expansion::default()), None);
            assert_eq!(rows.len(), 0);
        };
        let vertices: Vec<(LocKey, u64)> = [1, 2, 3].map(|k| (LocKey(k), 1)).to_vec();
        refused(&vertices, &[1, 0], &[(2, 1)]);
        refused(&vertices, &[0, 0], &[(2, 1)]);
        refused(&vertices, &[0, 3], &[(2, 1)]);
        refused(&vertices, &[0, 1, 2], &[(2, 1)]);
        refused(&vertices, &[0], &[(1, 1)]);
        refused(&[(LocKey(2), 1), (LocKey(1), 1)], &[0, 1], &[(2, 1)]);
    }
}
