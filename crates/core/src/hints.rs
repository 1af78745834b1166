//! Workload-hint collection at a partition (Algorithm 2 Task 4, partition
//! side): which keys the executed commands touched, and which they touched
//! together.
//!
//! Per command the arena only appends the command's sorted key set. A flush
//! turns the batch into the oracle's wire format — `(key, accesses)`
//! vertices in key order, and every distinct set of two or more keys once,
//! as ascending indices (*ranks*) into that vertex list, with the number of
//! commands that declared it. The k·(k−1)/2 pairs of a k-key set are never
//! formed here: the planner oracle expands the sets into its edge store
//! (`oracle::edge_rows`).

use crate::command::{Application, Command, LocKey};

/// A hint's `(key, accesses)` vertex list.
pub(crate) type Vertices = Vec<(LocKey, u64)>;

/// One hint batch as it travels: the vertex list, the distinct multi-key
/// sets as rank lists back to back, and each set's `(length, multiplicity)`.
pub(crate) type HintBatch = (Vertices, Vec<u32>, Vec<(u32, u32)>);

/// The key sets of the commands executed since the last flush.
#[derive(Default)]
pub(crate) struct HintArena {
    /// The sorted, distinct key sets, back to back…
    keys: Vec<LocKey>,
    /// …and the length of each set, one entry per executed command.
    lens: Vec<u32>,
    scratch: Scratch,
}

/// Buffers [`HintArena::flush`] reuses from batch to batch; between flushes
/// only their capacity matters.
#[derive(Default)]
struct Scratch {
    /// The arena's keys, sorted.
    sorted: Vec<LocKey>,
    /// The batch's distinct keys in ascending order — a key's index is its
    /// *rank* — with the number of commands that touched each.
    vertices: Vertices,
    /// Arena span `(start, end)` of every set that has a pair in it.
    spans: Vec<(u32, u32)>,
    /// The distinct sets as rank lists, back to back…
    ranks: Vec<u32>,
    /// …and the length and multiplicity of each.
    sets: Vec<(u32, u32)>,
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

    /// Ranks and groups the batch and empties the arena: a vertex weighs
    /// the commands that touched its key, a set the commands that declared
    /// exactly it. All lists are empty for a batch of key-less commands.
    /// Lists are allocated at their exact length: they travel, and are
    /// retained, as allocated.
    pub(crate) fn flush(&mut self) -> HintBatch {
        let Self { keys, lens, scratch: s } = self;
        s.rank(keys);
        s.group_sets(keys, lens);
        keys.clear();
        lens.clear();
        (s.vertices.to_vec(), s.ranks.to_vec(), s.sets.to_vec())
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
            let members = set(&same[0]);
            // A set ascends, and so do its ranks: search on from the last.
            let mut rank = 0;
            for key in members {
                rank += self.vertices[rank..].partition_point(|(k, _)| k < key);
                self.ranks.push(rank as u32);
            }
            self.sets.push((members.len() as u32, same.len() as u32));
        }
    }
}
