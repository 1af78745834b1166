//! Workload-hint collection at a partition (Algorithm 2 Task 4, partition
//! side): which keys the executed commands touched, and which they touched
//! together.
//!
//! Per command the arena only appends the command's sorted key set. A flush
//! turns the batch into the oracle's wire format — `(key, accesses)`
//! vertices and `(a, b, weight)` edges, `a < b`, both in key order — without
//! ever materialising the k·(k−1)/2 pairs of a k-key command: the batch is a
//! sparse key × set incidence matrix, and row `a` of its co-access product
//! is built in a dense accumulator and read back in key order (Gustavson's
//! row-wise sparse accumulator). Output order and weights are those of
//! accumulating every command's key clique into ordered maps.

use crate::command::{Application, Command, LocKey};

/// A hint's `(key, accesses)` vertex list.
pub(crate) type Vertices = Vec<(LocKey, u64)>;
/// A hint's `(a, b, weight)` co-access edge list.
pub(crate) type Edges = Vec<(LocKey, LocKey, u64)>;

/// The key sets of the commands executed since the last flush.
#[derive(Default)]
pub(crate) struct HintArena {
    /// The sorted, distinct key sets, back to back…
    keys: Vec<LocKey>,
    /// …and the length of each set, one entry per executed command.
    lens: Vec<u32>,
    scratch: Scratch,
}

/// Buffers [`HintArena::flush`] reuses from batch to batch. Between flushes
/// only their capacity matters, except that `acc` and `bits` are all zero.
#[derive(Default)]
struct Scratch {
    /// The arena's keys, sorted.
    sorted: Vec<LocKey>,
    /// The batch's distinct keys in ascending order — a key's index is its
    /// *rank* — with the number of commands that touched each.
    vertices: Vertices,
    /// Arena span `(start, end)` of every set that has a pair in it.
    spans: Vec<(u32, u32)>,
    /// The distinct sets as rank lists, back to back.
    ranks: Vec<u32>,
    /// Span in `ranks` of each distinct set, and how often the set occurred.
    sets: Vec<(u32, u32, u64)>,
    /// `members[starts[r]..starts[r + 1]]`: for every distinct set that
    /// holds rank `r` before its last position, the span in `ranks` of the
    /// members after `r`, and the set's multiplicity.
    starts: Vec<u32>,
    members: Vec<(u32, u32, u64)>,
    /// Dense accumulator: the weight gathered for each rank…
    acc: Vec<u64>,
    /// …and one bit per rank that has gathered any.
    bits: Vec<u64>,
}

/// A snapshot carries the half-filled batch; a recovering replica grows
/// scratch of its own.
impl Clone for HintArena {
    fn clone(&self) -> Self {
        HintArena { keys: self.keys.clone(), lens: self.lens.clone(), scratch: Scratch::default() }
    }
}

impl HintArena {
    /// Notes an executed command's key set — linear in its keys. Returns
    /// how many commands the batch now holds.
    pub(crate) fn record<A: Application>(&mut self, cmd: &Command<A>) -> usize {
        let start = self.keys.len();
        cmd.append_keys(&mut self.keys);
        self.lens.push((self.keys.len() - start) as u32);
        self.lens.len()
    }

    /// Expands the batch and empties the arena: a vertex weighs the
    /// commands that touched its key, an edge the commands that touched
    /// both of its keys. Both lists are empty for a batch of key-less
    /// commands. Lists are allocated at their exact size: they travel, and
    /// are retained, as allocated.
    pub(crate) fn flush(&mut self) -> (Vertices, Edges) {
        let Self { keys, lens, scratch: s } = self;
        s.rank(keys);
        s.group_sets(keys, lens);
        s.invert();
        keys.clear();
        lens.clear();

        let vertices = s.vertices.to_vec();
        let pairs = (0..vertices.len()).map(|a| s.row_len(a)).sum();
        let mut edges = Vec::with_capacity(pairs);
        for a in 0..vertices.len() {
            s.row_into(a, &mut edges);
        }
        (vertices, edges)
    }
}

impl Scratch {
    /// Ranks the batch's keys: fills `vertices`.
    fn rank(&mut self, keys: &[LocKey]) {
        self.sorted.clear();
        self.sorted.extend_from_slice(keys);
        self.sorted.sort_unstable();
        self.vertices.clear();
        // Keys are distinct within a command, so equal neighbours count
        // commands.
        self.vertices
            .extend(self.sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)));
    }

    /// Groups identical key sets — a hot author recurs within a batch with
    /// the same follower set, which halves the pairs of the social
    /// workload — and turns each distinct set into a rank list: fills
    /// `ranks` and `sets`.
    fn group_sets(&mut self, keys: &[LocKey], lens: &[u32]) {
        self.spans.clear();
        let mut start = 0;
        for &len in lens {
            if len > 1 {
                self.spans.push((start, start + len));
            }
            start += len;
        }
        let set = |&(start, end): &(u32, u32)| &keys[start as usize..end as usize];
        self.spans.sort_unstable_by(|x, y| set(x).cmp(set(y)));
        self.ranks.clear();
        self.sets.clear();
        for same in self.spans.chunk_by(|x, y| set(x) == set(y)) {
            let first = self.ranks.len() as u32;
            // A set ascends, and so do its ranks: search on from the last.
            let mut rank = 0;
            for key in set(&same[0]) {
                rank += self.vertices[rank..].partition_point(|(k, _)| k < key);
                self.ranks.push(rank as u32);
            }
            self.sets.push((first, self.ranks.len() as u32, same.len() as u64));
        }
    }

    /// Inverts `sets` by one counting sort: fills `starts` and `members`.
    fn invert(&mut self) {
        let distinct = self.vertices.len();
        self.starts.clear();
        self.starts.resize(distinct + 1, 0);
        // A set's last member has nobody after it.
        let with_successors = |&(first, end, _): &(u32, u32, u64)| first as usize..end as usize - 1;
        for set in &self.sets {
            for &r in &self.ranks[with_successors(set)] {
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
        for set in &self.sets {
            for at in with_successors(set) {
                let slot = &mut self.starts[self.ranks[at] as usize];
                *slot -= 1;
                self.members[*slot as usize] = (at as u32 + 1, set.1, set.2);
            }
        }
        self.acc.resize(distinct, 0);
        self.bits.resize(distinct.div_ceil(64), 0);
    }

    /// How many distinct keys share a command with rank `a` and rank above it.
    fn row_len(&mut self, a: usize) -> usize {
        let Self { starts, members, ranks, bits, .. } = self;
        match members[starts[a] as usize..starts[a + 1] as usize] {
            [] => 0,
            [(from, to, _)] => (to - from) as usize,
            ref sets => {
                for &(from, to, _) in sets {
                    for &b in &ranks[from as usize..to as usize] {
                        bits[b as usize / 64] |= 1 << (b % 64);
                    }
                }
                // Everything marked ranks above `a`.
                let marked = bits[a / 64..].iter_mut().map(|w| std::mem::take(w).count_ones());
                marked.sum::<u32>() as usize
            }
        }
    }

    /// Appends row `a` of the co-access matrix — one edge per distinct key
    /// ranking above `a` that shares a command with it, in key order, the
    /// sharing commands counted — to `edges`.
    fn row_into(&mut self, a: usize, edges: &mut Edges) {
        let Self { vertices, starts, members, ranks, acc, bits, .. } = self;
        let key = vertices[a].0;
        let sets = &members[starts[a] as usize..starts[a + 1] as usize];
        if let [(from, to, times)] = *sets {
            // One set only: its tail is the row, sorted and coalesced.
            let tail = &ranks[from as usize..to as usize];
            edges.extend(tail.iter().map(|&b| (key, vertices[b as usize].0, times)));
            return;
        }
        for &(from, to, times) in sets {
            for &b in &ranks[from as usize..to as usize] {
                acc[b as usize] += times;
                bits[b as usize / 64] |= 1 << (b % 64);
            }
        }
        for (w, word) in bits.iter_mut().enumerate().skip(a / 64) {
            let mut marked = std::mem::take(word);
            while marked != 0 {
                let b = w * 64 + marked.trailing_zeros() as usize;
                marked &= marked - 1;
                edges.push((key, vertices[b].0, std::mem::take(&mut acc[b])));
            }
        }
    }
}
