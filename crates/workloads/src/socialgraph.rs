//! Synthetic social graphs.
//!
//! The paper evaluates Chirper on the Higgs Twitter dataset (456k users,
//! 14M follow edges) — a heavy-tailed directed graph we cannot redistribute
//! offline. [`SocialGraph::barabasi_albert`] generates a preferential-
//! attachment graph with the same qualitative property that drives the
//! paper's results: a power-law follower distribution where a few
//! "celebrities" have enormous follower counts, making their posts
//! multi-partition commands.

use std::io::BufRead;

use rand::rngs::StdRng;
use rand::Rng;

use crate::zipf::Zipf;

/// A directed follow graph: `follows[u]` is whom `u` follows,
/// `followers[u]` who follows `u`.
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    follows: Vec<Vec<u64>>,
    followers: Vec<Vec<u64>>,
    /// The last user sampler [`Self::user_zipf`] built, so the clients
    /// that share this graph pay its normalisation once.
    zipf: Option<Zipf>,
}

impl SocialGraph {
    /// Creates an empty graph with `n` users and no edges.
    pub fn new(n: usize) -> Self {
        SocialGraph { follows: vec![Vec::new(); n], followers: vec![Vec::new(); n], zipf: None }
    }

    /// Generates a Barabási–Albert preferential-attachment graph: users
    /// join one at a time and follow `m` existing users chosen
    /// proportionally to their current follower counts (plus one), giving
    /// a power-law follower distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `m == 0`.
    pub fn barabasi_albert(n: usize, m: usize, rng: &mut StdRng) -> Self {
        assert!(n >= 2, "need at least two users");
        assert!(m >= 1, "each user must follow someone");
        let mut g = SocialGraph::new(n);
        // Repeated-endpoint list: every follower edge adds its followee
        // once, approximating preferential attachment in O(1) per draw.
        let mut endpoints: Vec<u64> = vec![0];
        g.add_follow(1, 0);
        endpoints.push(1); // keep early users drawable
        for u in 2..n as u64 {
            let picks = m.min(u as usize);
            let mut chosen: Vec<u64> = Vec::with_capacity(picks);
            let mut guard = 0;
            while chosen.len() < picks && guard < 100 * picks {
                guard += 1;
                // Mix preferential attachment with uniform choice so new
                // users are reachable too.
                let v = if rng.gen_bool(0.8) {
                    endpoints[rng.gen_range(0..endpoints.len())]
                } else {
                    rng.gen_range(0..u)
                };
                if v != u && !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            for v in chosen {
                g.add_follow(u, v);
                endpoints.push(v);
            }
            endpoints.push(u);
        }
        g
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.follows.len()
    }

    /// A Zipf sampler over the users with skew `theta`: built on the
    /// first call for a user count and `theta`, a copy of that one after.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no users or `theta` is outside `(0, 1)`.
    pub fn user_zipf(&mut self, theta: f64) -> Zipf {
        let n = self.users() as u64;
        match &self.zipf {
            Some(z) if z.domain() == n && z.theta().to_bits() == theta.to_bits() => z.clone(),
            _ => self.zipf.insert(Zipf::new(n, theta)).clone(),
        }
    }

    /// Total number of follow edges.
    pub fn edges(&self) -> usize {
        self.follows.iter().map(|f| f.len()).sum()
    }

    /// Adds user ids up to `user` if absent, then the follow edge
    /// `follower → followee`. Duplicate edges are ignored.
    pub fn add_follow(&mut self, follower: u64, followee: u64) {
        let needed = (follower.max(followee) + 1) as usize;
        if self.follows.len() < needed {
            self.follows.resize(needed, Vec::new());
            self.followers.resize(needed, Vec::new());
        }
        if follower != followee && !self.follows[follower as usize].contains(&followee) {
            self.follows[follower as usize].push(followee);
            self.followers[followee as usize].push(follower);
        }
    }

    /// Removes the follow edge if present.
    pub fn remove_follow(&mut self, follower: u64, followee: u64) {
        if let Some(f) = self.follows.get_mut(follower as usize) {
            f.retain(|&v| v != followee);
        }
        if let Some(f) = self.followers.get_mut(followee as usize) {
            f.retain(|&v| v != follower);
        }
    }

    /// Whom `user` follows.
    pub fn follows_of(&self, user: u64) -> &[u64] {
        &self.follows[user as usize]
    }

    /// Who follows `user`.
    pub fn followers_of(&self, user: u64) -> &[u64] {
        &self.followers[user as usize]
    }

    /// Adds a brand-new user and returns their id.
    pub fn add_user(&mut self) -> u64 {
        self.follows.push(Vec::new());
        self.followers.push(Vec::new());
        (self.follows.len() - 1) as u64
    }

    /// The co-access edges a workload over this graph induces (user ↔ each
    /// follower), for offline partitioner-optimized placement (S-SMR\*).
    pub fn coaccess_edges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.follows.iter().enumerate().flat_map(|(u, fs)| fs.iter().map(move |&v| (u as u64, v)))
    }

    /// The user with the most followers (the natural "celebrity").
    pub fn most_followed(&self) -> Option<u64> {
        (0..self.users() as u64).max_by_key(|&u| self.followers_of(u).len())
    }

    /// Parses a SNAP-style edge list (`follower followee` per line, `#`
    /// comments ignored) — the format of the paper's Higgs Twitter
    /// dataset. Node ids are compacted to a dense `0..n` range in first-
    /// appearance order.
    ///
    /// # Errors
    ///
    /// Returns an error if a line is malformed or ids fail to parse.
    pub fn from_edge_list<R: BufRead>(reader: R) -> Result<Self, String> {
        let mut g = SocialGraph::default();
        let mut ids: dynastar_runtime::hash::FastHashMap<u64, u64> = Default::default();
        let mut intern = |raw: u64, g: &mut SocialGraph| -> u64 {
            *ids.entry(raw).or_insert_with(|| g.add_user())
        };
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("read error at line {}: {e}", lineno + 1))?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (a, b) = match (it.next(), it.next()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("line {}: expected two node ids", lineno + 1)),
            };
            let a: u64 =
                a.parse().map_err(|e| format!("line {}: bad id {a:?}: {e}", lineno + 1))?;
            let b: u64 =
                b.parse().map_err(|e| format!("line {}: bad id {b:?}: {e}", lineno + 1))?;
            let (fa, fb) = (intern(a, &mut g), intern(b, &mut g));
            g.add_follow(fa, fb);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn the_shared_user_sampler_is_the_one_each_client_built() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = SocialGraph::barabasi_albert(300, 3, &mut rng);
        // `Debug` prints every float's shortest round-trip form, so equal
        // strings are bit-equal fields.
        let fresh = |n, theta| format!("{:?}", Zipf::new(n, theta));
        for theta in [0.95, 0.95, 0.5, 0.95] {
            assert_eq!(format!("{:?}", g.user_zipf(theta)), fresh(300, theta));
        }
        g.add_follow(400, 0);
        assert_eq!(format!("{:?}", g.user_zipf(0.95)), fresh(401, 0.95), "a grown graph");
    }

    #[test]
    fn ba_graph_has_expected_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = SocialGraph::barabasi_albert(1000, 5, &mut rng);
        assert_eq!(g.users(), 1000);
        // Roughly m edges per user after the first few.
        assert!(g.edges() > 4_000, "edges = {}", g.edges());
        assert!(g.edges() < 5_100, "edges = {}", g.edges());
    }

    #[test]
    fn ba_graph_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = SocialGraph::barabasi_albert(2000, 4, &mut rng);
        let mut counts: Vec<usize> =
            (0..g.users() as u64).map(|u| g.followers_of(u).len()).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top1pct: usize = counts.iter().take(g.users() / 100).sum();
        // The top 1% of users should hold a disproportionate share (>10%)
        // of all follower edges — the "celebrity" effect.
        assert!(top1pct * 10 > total, "top1% = {top1pct} of {total}");
    }

    #[test]
    fn follow_unfollow_roundtrip() {
        let mut g = SocialGraph::new(3);
        g.add_follow(0, 1);
        g.add_follow(2, 1);
        assert_eq!(g.followers_of(1), &[0, 2]);
        assert_eq!(g.follows_of(0), &[1]);
        g.remove_follow(0, 1);
        assert_eq!(g.followers_of(1), &[2]);
    }

    #[test]
    fn duplicate_and_self_follows_ignored() {
        let mut g = SocialGraph::new(2);
        g.add_follow(0, 1);
        g.add_follow(0, 1);
        g.add_follow(0, 0);
        assert_eq!(g.edges(), 1);
    }

    #[test]
    fn add_user_extends_graph() {
        let mut g = SocialGraph::new(2);
        let u = g.add_user();
        assert_eq!(u, 2);
        g.add_follow(u, 0);
        assert_eq!(g.followers_of(0), &[2]);
    }

    #[test]
    fn most_followed_finds_celebrity() {
        let mut g = SocialGraph::new(5);
        for u in 1..5 {
            g.add_follow(u, 0);
        }
        assert_eq!(g.most_followed(), Some(0));
    }

    #[test]
    fn edge_list_parses_snap_format() {
        let input = "# the Higgs dataset uses this format\n1 2\n3 1\n\n2 3\n";
        let g = SocialGraph::from_edge_list(std::io::Cursor::new(input)).unwrap();
        assert_eq!(g.users(), 3);
        assert_eq!(g.edges(), 3);
        // raw 1 -> dense 0, raw 2 -> dense 1, raw 3 -> dense 2.
        assert_eq!(g.follows_of(0), &[1]);
        assert_eq!(g.followers_of(0), &[2]);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(SocialGraph::from_edge_list(std::io::Cursor::new("1\n")).is_err());
        assert!(SocialGraph::from_edge_list(std::io::Cursor::new("a b\n")).is_err());
    }

    #[test]
    fn coaccess_edges_cover_follow_edges() {
        let mut g = SocialGraph::new(3);
        g.add_follow(0, 1);
        g.add_follow(2, 0);
        let edges: Vec<(u64, u64)> = g.coaccess_edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(2, 0)));
    }
}
