//! The workload graph's co-access edge store: a log of hint batches as they
//! came, and adjacency rows keyed by an edge's lower key that the log is
//! folded into when something reads the edges.
//!
//! A batch arrives as key sets (or, in the legacy form, as an edge list).
//! Arrival only counts the batch's distinct pairs and appends it to the
//! log ([`EdgeRows::log`]); the pairs are written when a plan, a decay, a
//! cap check that might bind or the log's memory bound reads the edges
//! ([`EdgeRows::fold`]). A fold is one Gustavson pass over the whole log:
//! every logged set is mapped into the log's key universe (a set logged
//! more than once, once), the sets are inverted by member, and each row's
//! sum is gathered in a dense accumulator, read back in key order and
//! merged linearly into the row it extends; logged edge lists are sorted
//! into one and merged row by row the same way. Rows are key-sorted
//! vectors, so a reader gets the edges in `(a, b)` order with no sort.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::command::LocKey;

/// A logged batch, read in place.
pub(super) enum Hint<'a> {
    /// Every distinct key set of the batch's commands: `vertices` ascend by
    /// key, `ranks` holds each set as ascending indices into them, back to
    /// back, and `sets` gives each one's `(length, multiplicity)`.
    Sets { vertices: &'a [(LocKey, u64)], ranks: &'a [u32], sets: &'a [(u32, u32)] },
    /// The legacy expanded form: `(a, b, weight)` edges in any order, either
    /// endpoint first.
    Edges { vertices: &'a [(LocKey, u64)], edges: &'a [(LocKey, LocKey, u64)] },
}

impl Hint<'_> {
    /// The batch's `(key, accesses)` vertex increments.
    pub(super) fn vertices(&self) -> &[(LocKey, u64)] {
        match *self {
            Hint::Sets { vertices, .. } | Hint::Edges { vertices, .. } => vertices,
        }
    }

    /// What the batch holds, counted in stored elements.
    fn elements(&self) -> usize {
        match *self {
            Hint::Sets { vertices, ranks, sets } => vertices.len() + ranks.len() + sets.len(),
            Hint::Edges { vertices, edges } => vertices.len() + edges.len(),
        }
    }
}

/// A delivered hint batch the log keeps whole: the payload every replica
/// of the planner shard is handed, shared rather than copied.
pub(super) trait HintBatch: Send + Sync {
    /// The batch, or `None` if the payload is not a hint.
    fn hint(&self) -> Option<Hint<'_>>;
}

/// A batch's sets inverted by member: for every rank `r`, the sets that
/// hold `r` before their last position, each as the span of its members
/// after `r` and its multiplicity.
#[derive(Debug, Default)]
struct Inverse {
    /// `members[starts[r]..starts[r + 1]]` are rank `r`'s entries.
    starts: Vec<u32>,
    /// `(from, to, multiplicity)`: the members after `r` are
    /// `ranks[from..to]`.
    members: Vec<(u32, u32, u32)>,
}

impl Inverse {
    /// Inverts `sets` over `distinct` ranks by one counting sort. Returns
    /// false, and fills nothing, unless every set holds two or more ranks
    /// that ascend, all below `distinct`, and the set lengths add up to
    /// the rank list.
    fn build(&mut self, distinct: usize, ranks: &[u32], sets: &[(u32, u32)]) -> bool {
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
        if covered != ranks.len() || !spans().all(|(start, end, _)| ascending(&ranks[start..end])) {
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
        true
    }

    /// Rank `r`'s entries.
    fn of(&self, r: usize) -> &[(u32, u32, u32)] {
        &self.members[self.starts[r] as usize..self.starts[r + 1] as usize]
    }
}

/// Buffers the arrival count and the fold reuse. Between uses only their
/// capacity matters, except that `acc` and `bits` are all zero.
#[derive(Debug, Default)]
pub(super) struct Expansion {
    inverse: Inverse,
    /// Dense accumulator: the weight gathered for each rank…
    acc: Vec<u64>,
    /// …and one bit per rank that has gathered any.
    bits: Vec<u64>,
    /// The fold's key universe, ascending: every key of the log's sets.
    universe: Vec<LocKey>,
    /// The log's distinct sets as ranks into `universe`, back to back, and
    /// their `(length, multiplicity)`.
    ranks: Vec<u32>,
    sets: Vec<(u32, u32)>,
    /// One batch's rank → universe rank.
    global: Vec<u32>,
    /// Every logged set as ranks into `universe`, back to back, and its
    /// `(start, length, multiplicity)` there.
    mapped: Vec<u32>,
    spans: Vec<(u32, u32, u32)>,
    /// The log's legacy edges as `(lower key, upper key, weight)`, sorted.
    direct: Vec<(LocKey, LocKey, u64)>,
    /// One row's sum, `(upper key, weight)` ascending.
    fresh: Vec<(LocKey, u64)>,
}

impl Expansion {
    /// How many distinct key pairs a batch of sets holds, or `None` if the
    /// batch is not of the shape [`Hint::Sets`] describes. Marks bits
    /// only: nothing is accumulated or written.
    fn distinct_pairs(
        &mut self,
        vertices: &[(LocKey, u64)],
        ranks: &[u32],
        sets: &[(u32, u32)],
    ) -> Option<u64> {
        if !vertices.windows(2).all(|w| w[0].0 < w[1].0)
            || !self.inverse.build(vertices.len(), ranks, sets)
        {
            return None;
        }
        self.bits.resize(vertices.len().div_ceil(64), 0);
        let mut pairs = 0;
        for a in 0..vertices.len() {
            match *self.inverse.of(a) {
                [] => {}
                // A key in one set only: its pairs are that set's tail.
                [(from, to, _)] => pairs += u64::from(to - from),
                ref many => {
                    let top = mark(&mut self.bits, ranks, many, |_, _| {});
                    for word in &mut self.bits[a / 64..=top] {
                        pairs += u64::from(std::mem::take(word).count_ones());
                    }
                }
            }
        }
        Some(pairs)
    }

    /// Lays `log` out as one batch of sets over its key universe — the
    /// universe and every distinct set mapped into it — and its legacy
    /// edges as one list sorted by `(lower, upper)` key. A set logged more
    /// than once — a hub's post reaches the same followers batch after
    /// batch — is laid out once, with the multiplicities summed, so its
    /// pairs are visited once.
    fn gather(&mut self, log: &[Arc<dyn HintBatch>]) {
        let Expansion { universe, ranks, sets, global, mapped, spans, direct, .. } = self;
        universe.clear();
        for hint in log.iter().filter_map(|batch| batch.hint()) {
            if let Hint::Sets { vertices, .. } = hint {
                universe.extend(vertices.iter().map(|v| v.0));
            }
        }
        universe.sort_unstable();
        universe.dedup();
        mapped.clear();
        spans.clear();
        direct.clear();
        for hint in log.iter().filter_map(|batch| batch.hint()) {
            match hint {
                Hint::Sets { vertices, ranks: local, sets: local_sets } => {
                    // The batch's keys ascend, so its ranks map through one
                    // forward walk, and each set still ascends.
                    global.clear();
                    let mut at = 0;
                    for &(key, _) in vertices {
                        at += universe[at..].partition_point(|&k| k < key);
                        global.push(at as u32);
                    }
                    let mut from = 0;
                    for &(len, times) in local_sets {
                        let set = &local[from..from + len as usize];
                        from += len as usize;
                        spans.push((mapped.len() as u32, len, times));
                        mapped.extend(set.iter().map(|&r| global[r as usize]));
                    }
                }
                Hint::Edges { edges, .. } => {
                    direct.extend(edges.iter().map(|&(a, b, w)| (a.min(b), a.max(b), w)));
                }
            }
        }
        // A stable sort merges runs: each logged list, normalised, is
        // usually one already.
        direct.sort_by_key(|&(a, b, _)| (a, b));
        let set_of = |&(start, len, _): &(u32, u32, u32)| &mapped[start as usize..][..len as usize];
        spans.sort_unstable_by(|x, y| set_of(x).cmp(set_of(y)));
        ranks.clear();
        sets.clear();
        for run in spans.chunk_by(|x, y| set_of(x) == set_of(y)) {
            let set = set_of(&run[0]);
            let mut times: u64 = run.iter().map(|&(_, _, times)| u64::from(times)).sum();
            // A multiplicity is a u32: a sum past it is laid out in parts.
            loop {
                let part = times.min(u64::from(u32::MAX));
                ranks.extend_from_slice(set);
                sets.push((set.len() as u32, part as u32));
                times -= part;
                if times == 0 {
                    break;
                }
            }
        }
    }
}

/// Adds every member after `r` of the sets in `entries` into the bits
/// (and, through `add`, anywhere else), weighing each set's multiplicity;
/// returns the highest bit word touched.
fn mark(
    bits: &mut [u64],
    ranks: &[u32],
    entries: &[(u32, u32, u32)],
    mut add: impl FnMut(usize, u64),
) -> usize {
    let mut top = 0;
    for &(from, to, times) in entries {
        for &b in &ranks[from as usize..to as usize] {
            bits[b as usize / 64] |= 1 << (b % 64);
            add(b as usize, u64::from(times));
        }
        top = top.max(ranks[to as usize - 1] as usize / 64);
    }
    top
}

/// The first index at or after `from` of `items`, ascending by `key_of`,
/// whose key is `key` or more. Gallops, so a walk that keeps seeking on
/// from its last hit costs the log of each advance, whether its steps are
/// short or long.
pub(super) fn seek<T>(
    items: &[T],
    from: usize,
    key: LocKey,
    key_of: impl Fn(&T) -> LocKey,
) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < items.len() && key_of(&items[hi]) < key {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    lo + items[lo..hi.min(items.len())].partition_point(|item| key_of(item) < key)
}

/// Adds `fresh` (ascending, distinct keys) into `row` (the same), keeping
/// it sorted; returns how many entries are new. Existing entries are
/// summed in one forward walk; new ones go in by one backward merge.
fn merge_row(row: &mut Vec<(LocKey, u64)>, fresh: &[(LocKey, u64)]) -> usize {
    let mut new = 0;
    let mut i = 0;
    for &(b, w) in fresh {
        while row.get(i).is_some_and(|&(k, _)| k < b) {
            i += 1;
        }
        match row.get_mut(i) {
            Some((k, sum)) if *k == b => *sum += w,
            _ => new += 1,
        }
    }
    if new == 0 {
        return 0;
    }
    let old = row.len();
    // A fold is rare: growing by what it adds, not by doubling, wastes
    // neither the copy nor the room.
    row.reserve_exact(new);
    row.resize(old + new, (LocKey(0), 0));
    // Fill from the back: the larger of the next old entry and the next
    // fresh one that was not summed in.
    let (mut r, mut out) = (old, old + new);
    for &(b, w) in fresh.iter().rev() {
        while r > 0 && row[r - 1].0 > b {
            out -= 1;
            r -= 1;
            row[out] = row[r];
        }
        if r > 0 && row[r - 1].0 == b {
            continue;
        }
        out -= 1;
        row[out] = (b, w);
    }
    new
}

/// Adds a row's sum into row `a` of `rows`, creating it if need be; returns
/// how many edges are new.
fn merge_into(
    rows: &mut BTreeMap<LocKey, Vec<(LocKey, u64)>>,
    a: LocKey,
    fresh: &[(LocKey, u64)],
) -> usize {
    let row = rows.entry(a).or_default();
    #[cfg(test)]
    tests::ENTRIES_MERGED.set(tests::ENTRIES_MERGED.get() + row.len());
    merge_row(row, fresh)
}

/// Logged elements below which the log is not folded for its memory
/// bound: a small graph's rows would otherwise be refolded every few
/// batches, each fold paying a universe sort and a row lookup per touched
/// row whatever the rows hold.
const FOLD_FLOOR: usize = 4_096;

/// Undirected weighted edges; `(a, b)` and `(b, a)` are the same edge.
/// What the rows and the log hold together is the graph.
#[derive(Default)]
pub(super) struct EdgeRows {
    /// `rows[a]` holds `(b, weight)` for each edge `(a, b)`, `a <= b`,
    /// sorted by `b`. No row is empty.
    rows: BTreeMap<LocKey, Vec<(LocKey, u64)>>,
    /// Edges stored in the rows.
    len: usize,
    /// Batches not folded into the rows yet, in delivery order.
    log: Vec<Arc<dyn HintBatch>>,
    /// The logged batches' distinct pairs, summed: at most how many edges
    /// folding them adds.
    log_pairs: usize,
    /// The logged batches' stored elements.
    log_elements: usize,
    /// Every key a logged batch has held, ascending: a superset of the keys
    /// of the edges in the rows and the log. With K keys there are at most
    /// K(K+1)/2 edges (self-loops included), so a cap at or above that is
    /// never passed whatever the log holds. The set only grows; once the
    /// bound is past a cap it is checked against, or an edge list is
    /// logged, the keys are no longer kept (`keys_dropped`), which also
    /// bounds their memory.
    keys: Vec<LocKey>,
    keys_dropped: bool,
    scratch: Expansion,
    evict: Vec<(u64, (LocKey, LocKey))>,
    /// The union of two key lists.
    union: Vec<LocKey>,
}

/// A snapshot carries the rows and the log (the batches are shared); a
/// recovering replica grows scratch of its own.
impl Clone for EdgeRows {
    fn clone(&self) -> Self {
        EdgeRows {
            rows: self.rows.clone(),
            len: self.len,
            log: self.log.clone(),
            log_pairs: self.log_pairs,
            log_elements: self.log_elements,
            keys: self.keys.clone(),
            keys_dropped: self.keys_dropped,
            ..EdgeRows::default()
        }
    }
}

impl EdgeRows {
    /// Edges stored in the rows; batches still in the log are not counted.
    pub(super) fn folded_len(&self) -> usize {
        self.len
    }

    /// Elements the logged batches store.
    pub(super) fn log_elements(&self) -> usize {
        self.log_elements
    }

    /// How many distinct key pairs `hint` adds at most, or `None` if it is
    /// out of shape and must be dropped whole: for a batch of sets, the
    /// exact count of its distinct pairs; for an edge list, its length.
    pub(super) fn pairs_of(&mut self, hint: &Hint<'_>) -> Option<u64> {
        match *hint {
            Hint::Sets { vertices, ranks, sets } => {
                self.scratch.distinct_pairs(vertices, ranks, sets)
            }
            Hint::Edges { edges, .. } => Some(edges.len() as u64),
        }
    }

    /// Appends a batch whose pairs [`EdgeRows::pairs_of`] counted, and
    /// folds the log once it stores more elements than the rows hold
    /// edges and [`FOLD_FLOOR`], which bounds its memory by theirs.
    pub(super) fn log(&mut self, batch: Arc<dyn HintBatch>, pairs: u64) {
        let Some(hint) = batch.hint() else { return };
        self.log_elements += hint.elements();
        self.log_pairs += pairs as usize;
        match hint {
            Hint::Sets { vertices, .. } if !self.keys_dropped => self.add_keys(vertices),
            Hint::Sets { .. } => {}
            // Ranking an edge list's endpoints would cost a sort of the
            // whole list; only tests and the legacy drive send one.
            Hint::Edges { .. } => (self.keys, self.keys_dropped) = (Vec::new(), true),
        }
        self.log.push(batch);
        if self.log_elements > self.len.max(FOLD_FLOOR) {
            self.fold();
        }
    }

    /// Adds a batch's keys (ascending) to `keys`; a batch of known keys
    /// only, the usual case once the workload has been seen, changes
    /// nothing.
    fn add_keys(&mut self, vertices: &[(LocKey, u64)]) {
        let mut at = 0;
        let known = vertices.iter().all(|&(key, _)| {
            at = seek(&self.keys, at, key, |&k| k);
            self.keys.get(at) == Some(&key)
        });
        if !known {
            self.union.clear();
            self.union.extend_from_slice(&self.keys);
            self.union.extend(vertices.iter().map(|v| v.0));
            self.union.sort_unstable();
            self.union.dedup();
            std::mem::swap(&mut self.keys, &mut self.union);
        }
    }

    /// Whether the rows and the log together might hold more than `cap`
    /// edges: more than `cap` counting each logged batch's distinct pairs
    /// as new, and more than `cap` pairs of the keys they hold.
    fn may_pass(&mut self, cap: usize) -> bool {
        if self.len + self.log_pairs <= cap {
            return false;
        }
        if self.keys_dropped {
            return true;
        }
        let k = self.keys.len() as u128;
        if k * (k + 1) / 2 <= cap as u128 {
            return false;
        }
        (self.keys, self.keys_dropped) = (Vec::new(), true);
        true
    }

    /// Writes every logged batch into the rows and empties the log.
    pub(super) fn fold(&mut self) {
        if self.log.is_empty() {
            return;
        }
        #[cfg(test)]
        tests::FOLDS.set(tests::FOLDS.get() + 1);
        let mut log = std::mem::take(&mut self.log);
        self.scratch.gather(&log);
        log.clear();
        self.log = log;
        (self.log_pairs, self.log_elements) = (0, 0);
        let s = &mut self.scratch;
        let inverted = s.inverse.build(s.universe.len(), &s.ranks, &s.sets);
        debug_assert!(inverted, "logged sets were checked on arrival");
        let set_rows = if inverted { s.universe.len() } else { 0 };
        s.acc.resize(s.universe.len(), 0);
        s.bits.resize(s.universe.len().div_ceil(64), 0);
        for a in 0..set_rows {
            s.fresh.clear();
            match *s.inverse.of(a) {
                [] => continue,
                // One set alone: the row's sum is its tail.
                [(from, to, times)] => s.fresh.extend(
                    s.ranks[from as usize..to as usize]
                        .iter()
                        .map(|&b| (s.universe[b as usize], u64::from(times))),
                ),
                ref tails => {
                    let acc = &mut s.acc;
                    let top = mark(&mut s.bits, &s.ranks, tails, |b, w| acc[b] += w);
                    // Everything marked ranks above `a`.
                    for w in a / 64..=top {
                        let mut marked = std::mem::take(&mut s.bits[w]);
                        while marked != 0 {
                            let b = w * 64 + marked.trailing_zeros() as usize;
                            marked &= marked - 1;
                            s.fresh.push((s.universe[b], std::mem::take(&mut acc[b])));
                        }
                    }
                }
            }
            self.len += merge_into(&mut self.rows, s.universe[a], &s.fresh);
        }
        // The legacy edges, sorted: each run of one lower key is a row's
        // sum once equal edges are summed.
        for run in s.direct.chunk_by(|x, y| x.0 == y.0) {
            s.fresh.clear();
            for same in run.chunk_by(|x, y| x.1 == y.1) {
                s.fresh.push((same[0].1, same.iter().map(|&(_, _, w)| w).sum()));
            }
            self.len += merge_into(&mut self.rows, run[0].0, &s.fresh);
        }
    }

    /// Halves every weight and drops the edges that reach zero.
    pub(super) fn halve(&mut self) {
        self.fold();
        self.rows.retain(|_, row| {
            row.retain_mut(|(_, w)| {
                *w /= 2;
                *w > 0
            });
            !row.is_empty()
        });
        self.len = self.rows.values().map(Vec::len).sum();
    }

    /// Shrinks the store to `cap` edges by the rule the graph's vertices
    /// follow: a decay pass, then eviction of the excess
    /// lowest-`(weight, (a, b))` edges — an exact selection, so what goes
    /// is a function of content alone. Returns how many went.
    ///
    /// The log is folded only if the rows and the log together might pass
    /// `cap` (see [`EdgeRows::may_pass`]): under that bound no edge would
    /// go.
    pub(super) fn shrink_to(&mut self, cap: usize) -> u64 {
        if !self.may_pass(cap) {
            return 0;
        }
        self.fold();
        if self.len <= cap {
            return 0;
        }
        let before = self.len;
        self.halve();
        if self.len > cap {
            let excess = self.len - cap;
            for (&a, row) in &self.rows {
                self.evict.extend(row.iter().map(|&(b, w)| (w, (a, b))));
            }
            let (_, &mut last, _) = self.evict.select_nth_unstable(excess - 1);
            // Keys are distinct, so the excess are exactly the edges at or
            // below the selected one.
            self.rows.retain(|&a, row| {
                row.retain(|&(b, w)| (w, (a, b)) > last);
                !row.is_empty()
            });
            self.len = cap;
            self.evict.clear();
        }
        (before - self.len) as u64
    }

    /// Every row in key order, with the log folded in: the edges' lower key
    /// and their `(upper key, weight)` entries, sorted by key.
    pub(super) fn rows(&mut self) -> impl Iterator<Item = (LocKey, &[(LocKey, u64)])> + Clone + '_ {
        self.fold();
        self.rows.iter().map(|(&a, row)| (a, &row[..]))
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::oracle::GraphContent;

    thread_local! {
        /// Row entries the folds on this thread merged a row's sum into:
        /// the part of a fold's cost that depends on the rows.
        pub(super) static ENTRIES_MERGED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// Folds of a non-empty log on this thread.
        pub(super) static FOLDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A batch of sets, built by hand.
    pub(in crate::oracle) struct Sets(pub Vec<(LocKey, u64)>, pub Vec<u32>, pub Vec<(u32, u32)>);

    impl HintBatch for Sets {
        fn hint(&self) -> Option<Hint<'_>> {
            Some(Hint::Sets { vertices: &self.0, ranks: &self.1, sets: &self.2 })
        }
    }

    /// A legacy batch: vertices and expanded edges.
    impl HintBatch for GraphContent {
        fn hint(&self) -> Option<Hint<'_>> {
            Some(Hint::Edges { vertices: &self.0, edges: &self.1 })
        }
    }

    fn content(rows: &mut EdgeRows) -> Vec<(u64, u64, u64)> {
        rows.rows().flat_map(|(a, row)| row.iter().map(move |&(b, w)| (a.0, b.0, w))).collect()
    }

    fn keys(keys: &[u64]) -> Vec<(LocKey, u64)> {
        keys.iter().map(|&k| (LocKey(k), 1)).collect()
    }

    /// Counts and logs a batch as the graph does.
    fn add(rows: &mut EdgeRows, batch: impl HintBatch + 'static) -> Option<u64> {
        let pairs = rows.pairs_of(&batch.hint()?)?;
        rows.log(Arc::new(batch), pairs);
        Some(pairs)
    }

    #[test]
    fn sets_add_their_pairs_with_their_multiplicity() {
        // {2, 4, 8} twice, {4, 6, 8} once, {2, 4} once.
        let batch =
            Sets(keys(&[2, 4, 6, 8]), vec![0, 1, 3, 1, 2, 3, 0, 1], vec![(3, 2), (3, 1), (2, 1)]);
        let mut rows = EdgeRows::default();
        assert_eq!(add(&mut rows, batch), Some(5));
        let want = vec![(2, 4, 3), (2, 8, 2), (4, 6, 1), (4, 8, 3), (6, 8, 1)];
        assert_eq!((content(&mut rows), rows.folded_len()), (want, 5));
        // The scratch is left zeroed: a second batch adds to what it finds.
        assert_eq!(add(&mut rows, Sets(keys(&[6, 8]), vec![0, 1], vec![(2, 4)])), Some(1));
        assert_eq!(content(&mut rows)[4], (6, 8, 5));
        let s = &rows.scratch;
        assert!(s.acc.iter().all(|&w| w == 0) && s.bits.iter().all(|&w| w == 0));
    }

    /// A batch out of shape would write an edge under the wrong lower key,
    /// or index past the vertex list: it is refused whole.
    #[test]
    fn sets_out_of_shape_add_nothing() {
        let mut rows = EdgeRows::default();
        let mut refused = |vertices: Vec<(LocKey, u64)>, ranks: Vec<u32>, sets: Vec<(u32, u32)>| {
            assert_eq!(add(&mut rows, Sets(vertices, ranks, sets)), None);
            assert_eq!((rows.folded_len(), rows.log.len()), (0, 0));
        };
        let three = || keys(&[1, 2, 3]);
        refused(three(), vec![1, 0], vec![(2, 1)]);
        refused(three(), vec![0, 0], vec![(2, 1)]);
        refused(three(), vec![0, 3], vec![(2, 1)]);
        refused(three(), vec![0, 1, 2], vec![(2, 1)]);
        refused(three(), vec![0], vec![(1, 1)]);
        refused(keys(&[2, 1]), vec![0, 1], vec![(2, 1)]);
    }

    /// Overlapping sets, a set repeated across batches and legacy edge
    /// lists (unordered, swapped, repeated, a self-loop, weight zero) in
    /// one log: one fold sums them as a flat pair map does.
    #[test]
    fn a_fold_mixes_overlapping_sets_repeats_and_edge_lists() {
        let mut rows = EdgeRows::default();
        // Rows first, folded, so the fold below merges into them.
        let seed: GraphContent =
            (vec![], (0..40).map(|k| (LocKey(100 + k), LocKey(200), 1)).collect());
        assert_eq!(add(&mut rows, seed), Some(40));
        rows.fold();
        assert_eq!((rows.folded_len(), rows.log.len()), (40, 0));
        // {1, 3, 5} and {3, 5, 9}; then {1, 3, 5} again, three times; then
        // an edge list.
        let overlapping = Sets(keys(&[1, 3, 5, 9]), vec![0, 1, 2, 1, 2, 3], vec![(3, 1), (3, 1)]);
        assert_eq!(add(&mut rows, overlapping), Some(5));
        assert_eq!(add(&mut rows, Sets(keys(&[1, 3, 5]), vec![0, 1, 2], vec![(3, 3)])), Some(3));
        let edges = [(5, 1, 2), (1, 5, 1), (9, 9, 4), (3, 9, 0), (100, 200, 7)];
        let edges = edges.map(|(a, b, w)| (LocKey(a), LocKey(b), w)).to_vec();
        assert_eq!(add(&mut rows, (vec![], edges)), Some(5));
        assert_eq!(rows.log.len(), 3, "the batches wait in the log");
        let mut want: BTreeMap<(u64, u64), u64> = (0..40).map(|k| ((100 + k, 200), 1)).collect();
        for (a, b, w) in
            [(1, 3, 4), (1, 5, 7), (3, 5, 5), (3, 9, 1), (5, 9, 1), (9, 9, 4), (100, 200, 7)]
        {
            *want.entry((a, b)).or_insert(0) += w;
        }
        let want: Vec<_> = want.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        assert_eq!(content(&mut rows), want);
        assert_eq!((rows.folded_len(), rows.log.len(), rows.log_pairs), (want.len(), 0, 0));
    }

    /// `rows` rows of `width` edges each, `(r, r + 1..=width)` shifted past
    /// every other row's keys, folded.
    fn wide(rows: u64, width: u64) -> EdgeRows {
        let mut edges = EdgeRows::default();
        let keys = |r: u64| (0..=width).map(move |i| LocKey(r * 1_000 + i));
        let sets: GraphContent = (
            vec![],
            (0..rows)
                .flat_map(|r| keys(r).skip(1).map(move |b| (LocKey(r * 1_000), b, 2)))
                .collect(),
        );
        add(&mut edges, sets);
        edges.fold();
        edges
    }

    /// Past the pairs bound, the key count still shows that the cap
    /// cannot be passed: the batch stays in the log.
    #[test]
    fn the_key_count_keeps_the_log_under_a_cap_it_cannot_pass() {
        let mut edges = EdgeRows::default();
        let eight = || Sets(keys(&[1, 2, 3, 4, 5, 6, 7, 8]), (0..8).collect(), vec![(8, 1)]);
        assert_eq!(add(&mut edges, eight()), Some(28));
        edges.fold();
        assert_eq!((edges.folded_len(), edges.log.len()), (28, 0));
        assert_eq!(add(&mut edges, eight()), Some(28));
        // 56 pairs, but 8 keys make at most 36 edges, self-loops included.
        assert_eq!(edges.shrink_to(36), 0);
        assert_eq!((edges.log.len(), edges.log_pairs), (1, 28));
        assert!(edges.clone().may_pass(35));
        // A ninth key makes 45 edges possible: the check folds and looks.
        assert_eq!(add(&mut edges, Sets(keys(&[8, 9]), vec![0, 1], vec![(2, 1)])), Some(1));
        assert_eq!(edges.log.len(), 2);
        assert_eq!(edges.shrink_to(36), 0);
        assert_eq!((edges.folded_len(), edges.log.len(), edges.keys_dropped), (29, 0, true));
        // An edge list's keys are not ranked: it drops the key count.
        let mut legacy = EdgeRows::default();
        add(&mut legacy, (vec![], vec![(LocKey(1), LocKey(2), 1)]));
        assert!(legacy.keys_dropped);
    }

    /// At the cap every batch folds, and the fold merges into the rows the
    /// batch touches, not into the whole graph: here 3 rows of 10 edges in
    /// a graph of 2 000 rows.
    #[test]
    fn a_fold_at_the_cap_costs_what_its_rows_hold() {
        let mut edges = wide(2_000, 10);
        assert_eq!(edges.folded_len(), 20_000);
        // {0, 1 000, 2 000, 2 001}: rows 0, 1 000 and 2 000 exist.
        let batch = Sets(keys(&[0, 1_000, 2_000, 2_001]), vec![0, 1, 2, 3], vec![(4, 1)]);
        assert_eq!(add(&mut edges, batch), Some(6));
        assert_eq!(edges.log.len(), 1);
        ENTRIES_MERGED.set(0);
        // Five of the six pairs are new, each of weight 1: over the cap, a
        // decay pass alone brings the graph back under it.
        assert_eq!(edges.shrink_to(20_000), 5);
        assert_eq!(ENTRIES_MERGED.get(), 30);
        assert_eq!((edges.folded_len(), edges.log.len()), (20_000, 0));
    }

    /// A graph smaller than the floor folds for its memory bound once per
    /// `FOLD_FLOOR` logged elements, not every few batches, and the rows
    /// it then reads are those of folding each batch on arrival.
    #[test]
    fn a_small_graph_folds_once_per_floor_of_logged_elements() {
        // 40 keys, so at most 820 edges: a three-key set per batch, 7
        // stored elements each.
        let batch = |i: u64| {
            let mut ks = [i % 40, (i + 1) % 40, (i + 5) % 40];
            ks.sort_unstable();
            Sets(keys(&ks), vec![0, 1, 2], vec![(3, 1)])
        };
        let batches = 2_000;
        let (mut lazy, mut eager) = (EdgeRows::default(), EdgeRows::default());
        FOLDS.set(0);
        for i in 0..batches {
            add(&mut lazy, batch(i));
        }
        let folds = FOLDS.get();
        assert!(folds >= 1, "the memory bound still folds");
        assert!(folds <= 7 * batches as usize / FOLD_FLOOR, "{folds} folds");
        assert!(lazy.log_elements <= FOLD_FLOOR);
        for i in 0..batches {
            add(&mut eager, batch(i));
            eager.fold();
        }
        assert_eq!(content(&mut lazy), content(&mut eager));
        assert_eq!(lazy.folded_len(), eager.folded_len());
    }

    #[test]
    fn merge_row_sums_and_inserts_in_order() {
        let row = |ks: &[(u64, u64)]| ks.iter().map(|&(k, w)| (LocKey(k), w)).collect::<Vec<_>>();
        let mut r = row(&[(2, 1), (5, 1), (9, 1)]);
        assert_eq!(merge_row(&mut r, &row(&[(1, 3), (5, 2), (7, 4), (10, 1)])), 3);
        assert_eq!(r, row(&[(1, 3), (2, 1), (5, 3), (7, 4), (9, 1), (10, 1)]));
        assert_eq!(merge_row(&mut r, &row(&[(2, 1), (10, 1)])), 0);
        assert_eq!(r, row(&[(1, 3), (2, 2), (5, 3), (7, 4), (9, 1), (10, 2)]));
        let mut empty = Vec::new();
        assert_eq!(merge_row(&mut empty, &row(&[(4, 1)])), 1);
        assert_eq!(empty, row(&[(4, 1)]));
    }
}
