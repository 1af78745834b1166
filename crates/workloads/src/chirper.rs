//! Chirper: the paper's Twitter-like social network service (§5.4).
//!
//! Every user is one DynaStar variable *and* one locality key (workload-
//! graph vertex), exactly as in the paper. Users post 140-character
//! messages; a post is written to the timeline of every follower, so posts
//! by well-followed users are multi-partition commands. Reading one's own
//! timeline touches only one's own variable and is always single-partition.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use dynastar_core::{AccessSets, Application, Command, CommandKind, LocKey, VarId, Workload};
use dynastar_runtime::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

use crate::socialgraph::SocialGraph;
use crate::zipf::Zipf;

/// Maximum posts retained per timeline.
pub const TIMELINE_CAP: usize = 50;

/// Maximum characters per post (like the original Twitter limit the paper
/// cites).
pub const POST_CAP: usize = 140;

/// One post: author and (truncated) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Post {
    /// The author's user id.
    pub author: u64,
    /// The message (≤ 140 chars). Shared: one post lands in every
    /// follower's timeline, and copying a timeline on write must not copy
    /// its texts.
    pub text: Arc<str>,
}

/// A user's replicated state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChirperUser {
    /// Posts from people this user follows (newest last), capped at
    /// [`TIMELINE_CAP`].
    pub timeline: Timeline,
    /// Whom this user follows.
    pub follows: Vec<u64>,
    /// Who follows this user.
    pub followers: Vec<u64>,
}

/// Posts per timeline chunk.
const CHUNK: usize = 8;

/// Chunks a timeline can hold: it keeps at most `TIMELINE_CAP + CHUNK - 1`
/// posts, because a chunk is let go once all its posts are out of view.
const SPINE: usize = (TIMELINE_CAP + CHUNK - 1).div_ceil(CHUNK);

/// One chunk of posts. Every chunk of a timeline is full except the
/// newest, whose filled slots are a prefix.
struct Chunk([Option<Post>; CHUNK]);

#[cfg(test)]
thread_local! {
    /// Chunks made on this thread, new or copied: every allocation a
    /// timeline makes.
    static CHUNKS_MADE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Chunk {
    /// A new, empty chunk.
    fn fresh() -> Arc<Chunk> {
        #[cfg(test)]
        CHUNKS_MADE.set(CHUNKS_MADE.get() + 1);
        Arc::new(Chunk(Default::default()))
    }
}

impl Clone for Chunk {
    fn clone(&self) -> Self {
        #[cfg(test)]
        CHUNKS_MADE.set(CHUNKS_MADE.get() + 1);
        Chunk(self.0.clone())
    }
}

/// The newest [`TIMELINE_CAP`] posts a user received, oldest first.
///
/// The posts live in shared chunks, so a clone copies no post: it bumps
/// one refcount per chunk. A push writes into the newest chunk in place
/// while nothing else holds it and copies only that chunk when it is
/// shared. A chunk whose posts all fell out of view is kept as a spare
/// for the next chunk the timeline needs, provided nothing else holds it,
/// so an unshared timeline stops allocating once it is full.
#[derive(Default)]
pub struct Timeline {
    /// `chunks[..used]` hold the posts, oldest chunk first; the rest are
    /// `None`.
    chunks: [Option<Arc<Chunk>>; SPINE],
    used: usize,
    /// Filled slots of the newest chunk: `1..=CHUNK` while `used > 0`.
    head: usize,
    /// An emptied chunk only this timeline holds, ready for reuse.
    spare: Option<Arc<Chunk>>,
}

impl Timeline {
    /// The number of visible posts (at most [`TIMELINE_CAP`]).
    pub fn len(&self) -> usize {
        self.stored().min(TIMELINE_CAP)
    }

    /// Whether the timeline holds no post.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// The visible posts, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Post> + ExactSizeIterator {
        self.visible().map(|at| self.at(at))
    }

    /// The visible posts, oldest first, in one allocation: a mapped range
    /// has a trusted length, so `Arc<[Post]>` is sized up front.
    pub fn to_shared(&self) -> Arc<[Post]> {
        self.visible().map(|at| self.at(at).clone()).collect()
    }

    /// Appends `post` as the newest; the oldest visible post drops out of
    /// view once the timeline is full.
    pub fn push(&mut self, post: Post) {
        if self.used == 0 || self.head == CHUNK {
            self.chunks[self.used] = Some(self.spare.take().unwrap_or_else(Chunk::fresh));
            self.used += 1;
            self.head = 0;
        }
        let newest = self.chunks[self.used - 1].as_mut().expect("chunks below `used` are set");
        Arc::make_mut(newest).0[self.head] = Some(post);
        self.head += 1;
        // A full timeline drops its oldest chunk every `CHUNK` pushes and
        // starts a new one in between, so the spare slot is free here.
        if self.stored() >= TIMELINE_CAP + CHUNK {
            let mut oldest = self.chunks[0].take();
            self.chunks[..self.used].rotate_left(1);
            self.used -= 1;
            if let Some(chunk) = oldest.as_mut().and_then(Arc::get_mut) {
                chunk.0 = Default::default();
                self.spare = oldest;
            }
        }
    }

    /// Posts held, visible or not.
    fn stored(&self) -> usize {
        match self.used {
            0 => 0,
            used => (used - 1) * CHUNK + self.head,
        }
    }

    /// The positions of the visible posts among those held.
    fn visible(&self) -> Range<usize> {
        self.stored() - self.len()..self.stored()
    }

    /// The post held at position `at`, counted from the oldest held.
    fn at(&self, at: usize) -> &Post {
        self.chunks[at / CHUNK]
            .as_ref()
            .and_then(|chunk| chunk.0[at % CHUNK].as_ref())
            .expect("a visible post is stored")
    }
}

impl Clone for Timeline {
    /// Shares every chunk. The spare stays behind: it is reused in place,
    /// which needs it unshared.
    fn clone(&self) -> Self {
        Timeline { chunks: self.chunks.clone(), used: self.used, head: self.head, spare: None }
    }
}

impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Timeline {}

impl fmt::Debug for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Chirper operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChirperOp {
    /// Read own timeline (single-partition).
    GetTimeline {
        /// The reading user.
        user: u64,
    },
    /// Post to all followers' timelines (multi-partition when followers
    /// are spread out). The declared vars are the author plus the
    /// followers the *client* believes exist; the authoritative follower
    /// list at the author's variable is intersected with them.
    Post {
        /// The author.
        user: u64,
        /// The message (truncated to [`POST_CAP`]).
        text: String,
    },
    /// `follower` starts following `followee` (≤ 2 partitions).
    Follow {
        /// The follower.
        follower: u64,
        /// The followee.
        followee: u64,
    },
    /// `follower` stops following `followee`.
    Unfollow {
        /// The follower.
        follower: u64,
        /// The followee.
        followee: u64,
    },
}

/// Chirper replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChirperReply {
    /// The requested timeline (newest last). Shared: the client's session
    /// at each replica keeps the same posts the client is sent.
    Timeline(Arc<[Post]>),
    /// Number of follower timelines the post reached.
    Posted(usize),
    /// Follow/unfollow acknowledged.
    FollowOk,
    /// The referenced user does not exist.
    NoSuchUser,
}

/// The Chirper application (implements [`Application`]).
#[derive(Debug, Clone, Copy)]
pub struct Chirper;

impl Chirper {
    /// The variable holding `user`'s state.
    pub fn var(user: u64) -> VarId {
        VarId(user)
    }

    /// The locality key of `user` (1:1 with the variable, as in the paper
    /// where each user is a graph vertex).
    pub fn key(user: u64) -> LocKey {
        LocKey(user)
    }
}

impl Application for Chirper {
    type Op = ChirperOp;
    /// `Arc`-wrapped so borrowing a user (shipping them to the target
    /// partition and back) is a refcount bump; mutation is copy-on-write.
    type Value = Arc<ChirperUser>;
    type Reply = ChirperReply;

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }

    fn classify(op: &ChirperOp, vars: &[VarId]) -> AccessSets {
        match op {
            // Timelines are read in place: two reads never conflict, so
            // the dominant command in the paper's mixes parallelizes.
            ChirperOp::GetTimeline { .. } => AccessSets::read_only(vars),
            // A post reads the author's follower list and writes the
            // declared follower timelines. Timing misclassification is
            // harmless (state application stays FIFO), so we keep the
            // author read-only even though a self-follower would also be
            // written through the follower path.
            ChirperOp::Post { user, .. } => {
                let author = Chirper::var(*user);
                AccessSets {
                    reads: vec![author],
                    writes: vars.iter().copied().filter(|v| *v != author).collect(),
                }
            }
            // Follow/unfollow mutate both endpoints.
            ChirperOp::Follow { .. } | ChirperOp::Unfollow { .. } => AccessSets::write_all(vars),
        }
    }

    fn execute(
        op: &ChirperOp,
        vars: &mut std::collections::BTreeMap<VarId, Option<Arc<ChirperUser>>>,
    ) -> ChirperReply {
        match op {
            ChirperOp::GetTimeline { user } => match vars.get(&Chirper::var(*user)) {
                Some(Some(u)) => ChirperReply::Timeline(u.timeline.to_shared()),
                _ => ChirperReply::NoSuchUser,
            },
            ChirperOp::Post { user, text } => {
                let kept = text.char_indices().nth(POST_CAP).map_or(text.len(), |(at, _)| at);
                let post = Post { author: *user, text: Arc::from(&text[..kept]) };
                // Authoritative follower list lives at the author; a
                // refcounted handle reads it in place while the followers
                // are written.
                let author = match vars.get(&Chirper::var(*user)) {
                    Some(Some(u)) => Arc::clone(u),
                    _ => return ChirperReply::NoSuchUser,
                };
                let mut reached = 0;
                for f in &author.followers {
                    // Only followers the client declared are writable.
                    if let Some(Some(fu)) = vars.get_mut(&Chirper::var(*f)) {
                        Arc::make_mut(fu).timeline.push(post.clone());
                        reached += 1;
                    }
                }
                ChirperReply::Posted(reached)
            }
            ChirperOp::Follow { follower, followee } => {
                // Update both sides if both exist.
                let ok = matches!(vars.get(&Chirper::var(*follower)), Some(Some(_)))
                    && matches!(vars.get(&Chirper::var(*followee)), Some(Some(_)));
                if !ok {
                    return ChirperReply::NoSuchUser;
                }
                if let Some(Some(u)) = vars.get_mut(&Chirper::var(*follower)) {
                    let u = Arc::make_mut(u);
                    if !u.follows.contains(followee) {
                        u.follows.push(*followee);
                    }
                }
                if let Some(Some(u)) = vars.get_mut(&Chirper::var(*followee)) {
                    let u = Arc::make_mut(u);
                    if !u.followers.contains(follower) {
                        u.followers.push(*follower);
                    }
                }
                ChirperReply::FollowOk
            }
            ChirperOp::Unfollow { follower, followee } => {
                if let Some(Some(u)) = vars.get_mut(&Chirper::var(*follower)) {
                    Arc::make_mut(u).follows.retain(|v| v != followee);
                }
                if let Some(Some(u)) = vars.get_mut(&Chirper::var(*followee)) {
                    Arc::make_mut(u).followers.retain(|v| v != follower);
                }
                ChirperReply::FollowOk
            }
        }
    }
}

/// Command-mix weights for [`ChirperWorkload`], in percent.
#[derive(Debug, Clone, Copy)]
pub struct ChirperMix {
    /// Percentage of `GetTimeline` commands.
    pub timeline: u32,
    /// Percentage of `Post` commands.
    pub post: u32,
    /// Percentage of `Follow` commands.
    pub follow: u32,
    /// Percentage of `Unfollow` commands.
    pub unfollow: u32,
}

impl ChirperMix {
    /// The paper's "timeline only" workload.
    pub const TIMELINE_ONLY: ChirperMix =
        ChirperMix { timeline: 100, post: 0, follow: 0, unfollow: 0 };

    /// The paper's "mix" workload: 85% timeline, 15% post.
    pub const MIX: ChirperMix = ChirperMix { timeline: 85, post: 15, follow: 0, unfollow: 0 };

    fn total(&self) -> u32 {
        self.timeline + self.post + self.follow + self.unfollow
    }
}

/// A closed-loop Chirper client workload: picks an active user with a
/// Zipfian distribution and issues commands at the configured mix.
///
/// The follow graph is shared across all clients (wrapped in a mutex) so
/// that follower lists used to declare a post's variables stay coherent;
/// this mirrors a real client reading its social graph from the service.
pub struct ChirperWorkload {
    graph: Arc<Mutex<SocialGraph>>,
    zipf: Zipf,
    mix: ChirperMix,
    /// Optional command budget (`None` = unbounded).
    remaining: Option<u64>,
    /// Celebrity bias: with this probability (percent), a post/follow is
    /// redirected to the celebrity user (Figure 6's dynamic workload).
    celebrity: Option<(u64, u32)>,
    /// The celebrity only becomes active at this time.
    celebrity_after: Option<SimTime>,
    next_post_id: u64,
}

impl ChirperWorkload {
    /// Creates a workload over `graph` with the given user-selection skew
    /// and command mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix percentages do not sum to 100.
    pub fn new(graph: Arc<Mutex<SocialGraph>>, theta: f64, mix: ChirperMix) -> Self {
        assert_eq!(mix.total(), 100, "mix must sum to 100");
        let zipf = graph.lock().unwrap().user_zipf(theta);
        ChirperWorkload {
            graph,
            zipf,
            mix,
            remaining: None,
            celebrity: None,
            celebrity_after: None,
            next_post_id: 0,
        }
    }

    /// Caps the number of commands issued.
    pub fn with_budget(mut self, commands: u64) -> Self {
        self.remaining = Some(commands);
        self
    }

    /// Redirects `percent`% of post/follow activity to `user` — the
    /// "new celebrity" phase of the paper's dynamic experiment.
    pub fn with_celebrity(mut self, user: u64, percent: u32) -> Self {
        self.celebrity = Some((user, percent));
        self
    }

    /// Delays the celebrity phase until simulated time `at` (Figure 6
    /// introduces the celebrity at t = 200 s).
    pub fn with_celebrity_after(mut self, at: SimTime) -> Self {
        self.celebrity_after = Some(at);
        self
    }

    fn pick_user(&self, rng: &mut StdRng) -> u64 {
        self.zipf.sample(rng)
    }
}

impl Workload<Chirper> for ChirperWorkload {
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Chirper>> {
        if let Some(rem) = self.remaining.as_mut() {
            if *rem == 0 {
                return None;
            }
            *rem -= 1;
        }
        let celebrity_active = match (self.celebrity, self.celebrity_after) {
            (Some(_), Some(at)) => now >= at,
            (Some(_), None) => true,
            _ => false,
        };
        let roll = rng.gen_range(0..100u32);
        let user = self.pick_user(rng);
        let mut mix = self.mix;
        if celebrity_active {
            // The celebrity phase adds follow traffic: users rush to
            // follow the new star (paper §6.4, dynamic workload).
            let follow_boost = mix.timeline.min(10);
            mix.timeline -= follow_boost;
            mix.follow += follow_boost;
        }
        if roll < mix.timeline {
            return Some(CommandKind::Access {
                op: ChirperOp::GetTimeline { user },
                vars: vec![Chirper::var(user)],
            });
        }
        if roll < mix.timeline + mix.post {
            // Celebrity redirection for the dynamic experiment.
            let author = match self.celebrity {
                Some((celeb, pct)) if celebrity_active && rng.gen_range(0..100u32) < pct => celeb,
                _ => user,
            };
            let graph = self.graph.lock().unwrap();
            let mut vars: Vec<VarId> = vec![Chirper::var(author)];
            vars.extend(graph.followers_of(author).iter().map(|&f| Chirper::var(f)));
            drop(graph);
            self.next_post_id += 1;
            return Some(CommandKind::Access {
                op: ChirperOp::Post { user: author, text: format!("post #{}", self.next_post_id) },
                vars,
            });
        }
        if roll < mix.timeline + mix.post + mix.follow {
            let mut graph = self.graph.lock().unwrap();
            let followee = match self.celebrity {
                Some((celeb, pct)) if celebrity_active && rng.gen_range(0..100u32) < pct => celeb,
                _ => {
                    let mut f = self.pick_user(rng);
                    if f == user {
                        f = (f + 1) % graph.users() as u64;
                    }
                    f
                }
            };
            // Keep the client-side graph coherent with the command we issue.
            graph.add_follow(user, followee);
            drop(graph);
            return Some(CommandKind::Access {
                op: ChirperOp::Follow { follower: user, followee },
                vars: vec![Chirper::var(user), Chirper::var(followee)],
            });
        }
        // Unfollow someone we follow (or no-op follow of ourselves → skip
        // to timeline if we follow nobody).
        let mut graph = self.graph.lock().unwrap();
        let follows = graph.follows_of(user).to_vec();
        if follows.is_empty() {
            drop(graph);
            return Some(CommandKind::Access {
                op: ChirperOp::GetTimeline { user },
                vars: vec![Chirper::var(user)],
            });
        }
        let followee = follows[rng.gen_range(0..follows.len())];
        graph.remove_follow(user, followee);
        drop(graph);
        Some(CommandKind::Access {
            op: ChirperOp::Unfollow { follower: user, followee },
            vars: vec![Chirper::var(user), Chirper::var(followee)],
        })
    }

    fn on_completed(
        &mut self,
        _now: SimTime,
        _cmd: &Command<Chirper>,
        _reply: Option<&ChirperReply>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, VecDeque};

    fn state(users: &[u64]) -> BTreeMap<VarId, Option<Arc<ChirperUser>>> {
        users.iter().map(|&u| (Chirper::var(u), Some(Arc::new(ChirperUser::default())))).collect()
    }

    /// Test helper: mutable access to a user in the var map.
    fn user_mut(vars: &mut BTreeMap<VarId, Option<Arc<ChirperUser>>>, u: u64) -> &mut ChirperUser {
        Arc::make_mut(vars.get_mut(&Chirper::var(u)).unwrap().as_mut().unwrap())
    }

    /// The text of every visible post, oldest first.
    fn texts(t: &Timeline) -> Vec<&str> {
        t.iter().map(|p| &*p.text).collect()
    }

    fn post(i: usize) -> Post {
        Post { author: 0, text: Arc::from(i.to_string()) }
    }

    /// Posts held in `t`'s chunks and spare, visible or not.
    fn stored_posts(t: &Timeline) -> usize {
        t.chunks.iter().chain([&t.spare]).flatten().map(|c| c.0.iter().flatten().count()).sum()
    }

    /// The chunks `t` holds, spare included.
    fn chunks(t: &Timeline) -> Vec<&Arc<Chunk>> {
        t.chunks.iter().chain([&t.spare]).flatten().collect()
    }

    /// How many of `t`'s chunks `other` does not hold.
    fn own_chunks(t: &Timeline, other: &Timeline) -> usize {
        let theirs = chunks(other);
        chunks(t).into_iter().filter(|c| !theirs.iter().any(|o| Arc::ptr_eq(c, o))).count()
    }

    fn chunks_made() -> u64 {
        CHUNKS_MADE.get()
    }

    #[test]
    fn post_reaches_declared_followers() {
        let mut vars = state(&[0, 1, 2]);
        // User 0 has followers 1 and 2.
        user_mut(&mut vars, 0).followers = vec![1, 2];
        let reply = Chirper::execute(&ChirperOp::Post { user: 0, text: "hi".into() }, &mut vars);
        assert_eq!(reply, ChirperReply::Posted(2));
        let t1 = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(t1.len(), 1);
        assert_eq!(t1.iter().next().unwrap().author, 0);
    }

    #[test]
    fn post_truncates_to_140_chars() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        let long = "x".repeat(500);
        Chirper::execute(&ChirperOp::Post { user: 0, text: long }, &mut vars);
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(texts(t)[0].len(), POST_CAP);
        // The cap counts characters of the op's text, not bytes.
        let wide = "é".repeat(POST_CAP + 1);
        Chirper::execute(&ChirperOp::Post { user: 0, text: wide }, &mut vars);
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(texts(t)[1].chars().count(), POST_CAP);
    }

    #[test]
    fn timeline_caps_at_limit() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        for i in 0..(TIMELINE_CAP + 10) {
            Chirper::execute(&ChirperOp::Post { user: 0, text: format!("{i}") }, &mut vars);
        }
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(t.len(), TIMELINE_CAP);
        assert_eq!(texts(t).first(), Some(&"10"));
        assert_eq!(texts(t).last(), Some(&format!("{}", TIMELINE_CAP + 9).as_str()));
    }

    #[test]
    fn copied_timelines_keep_the_same_posts() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        user_mut(&mut vars, 1).follows = vec![0];
        // The posts a timeline always held: evict at the cap, append.
        let mut reference = VecDeque::new();
        for i in 0..(3 * TIMELINE_CAP) {
            let text = format!("{i}");
            // Every other post finds the follower shared and copies it.
            let shared = (i % 2 == 0).then(|| vars[&Chirper::var(1)].clone().unwrap());
            let before: Vec<Post> = reference.iter().cloned().collect();
            let made = chunks_made();
            Chirper::execute(&ChirperOp::Post { user: 0, text: text.clone() }, &mut vars);
            assert!(chunks_made() - made <= 1, "post {i} made {} chunks", chunks_made() - made);
            if reference.len() >= TIMELINE_CAP {
                reference.pop_front();
            }
            reference.push_back(Post { author: 0, text: Arc::from(text) });

            let user = vars[&Chirper::var(1)].as_ref().unwrap();
            assert!(user.timeline.iter().eq(reference.iter()), "post {i}");
            assert_eq!(user.follows, vec![0]);
            if let Some(shared) = shared {
                assert!(shared.timeline.iter().eq(&before), "the other owner is untouched");
                assert!(own_chunks(&user.timeline, &shared.timeline) <= 1, "post {i}");
            }
        }
    }

    /// A step of the timeline proptest: which handle it acts on, and what
    /// it does to it.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Push(usize),
        Clone(usize),
        Drop(usize),
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Up to four handles, pushed, cloned and dropped at random, each
        /// checked against a `VecDeque` reference after every step: the
        /// content oldest first, the visible and stored bounds, a clone's
        /// shared chunks and that a push shows through no other handle.
        #[test]
        fn timelines_match_a_deque_reference(
            steps in proptest::collection::vec((0u8..10, 0usize..4), 1..400),
        ) {
            let mut handles: Vec<(Timeline, VecDeque<Post>)> =
                vec![(Timeline::default(), VecDeque::new())];
            for (n, (kind, at)) in steps.into_iter().enumerate() {
                let at = at % handles.len();
                let step = match kind {
                    0 if handles.len() < 4 => Step::Clone(at),
                    1 if handles.len() > 1 => Step::Drop(at),
                    _ => Step::Push(at),
                };
                match step {
                    Step::Push(at) => {
                        let made = chunks_made();
                        let (t, reference) = &mut handles[at];
                        t.push(post(n));
                        if reference.len() >= TIMELINE_CAP {
                            reference.pop_front();
                        }
                        reference.push_back(post(n));
                        proptest::prop_assert!(chunks_made() - made <= 1, "{step:?}");
                    }
                    Step::Clone(at) => {
                        let copy = handles[at].clone();
                        for (mine, theirs) in copy.0.chunks.iter().zip(&handles[at].0.chunks) {
                            let shared = match (mine, theirs) {
                                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                                (a, b) => a.is_none() && b.is_none(),
                            };
                            proptest::prop_assert!(shared, "a clone shares every chunk");
                        }
                        proptest::prop_assert!(copy.0.spare.is_none());
                        handles.push(copy);
                    }
                    Step::Drop(at) => {
                        handles.swap_remove(at);
                    }
                }
                for (i, (t, reference)) in handles.iter().enumerate() {
                    let same = t.iter().eq(reference.iter());
                    proptest::prop_assert!(same, "handle {i} after {step:?}");
                    proptest::prop_assert!(t.iter().rev().eq(reference.iter().rev()));
                    proptest::prop_assert!(t.to_shared().iter().eq(reference.iter()));
                    proptest::prop_assert_eq!(t.len(), reference.len());
                    proptest::prop_assert!(t.len() <= TIMELINE_CAP);
                    proptest::prop_assert!(stored_posts(t) < TIMELINE_CAP + CHUNK);
                }
            }
        }

        /// An unshared timeline allocates no chunk once it has filled its
        /// spine and freed its first chunk, however far it is pushed.
        #[test]
        fn an_unshared_timeline_recycles_after_warm_up(
            clones in proptest::collection::vec(0usize..(3 * TIMELINE_CAP), 0..3),
            extra in 0usize..(4 * TIMELINE_CAP),
        ) {
            let mut t = Timeline::default();
            // Clones taken and dropped during warm-up may keep chunks
            // shared for a while; once they are gone, the timeline is
            // unshared again.
            let mut n = 0;
            for at in clones {
                while n < at {
                    t.push(post(n));
                    n += 1;
                }
                let copy = t.clone();
                t.push(post(n));
                n += 1;
                drop(copy);
            }
            for _ in 0..(TIMELINE_CAP + 2 * CHUNK) {
                t.push(post(n));
                n += 1;
            }
            let made = chunks_made();
            for _ in 0..extra {
                t.push(post(n));
                n += 1;
            }
            proptest::prop_assert_eq!(chunks_made(), made);
        }
    }

    #[test]
    fn follow_updates_both_sides() {
        let mut vars = state(&[0, 1]);
        let reply = Chirper::execute(&ChirperOp::Follow { follower: 0, followee: 1 }, &mut vars);
        assert_eq!(reply, ChirperReply::FollowOk);
        assert_eq!(vars[&Chirper::var(0)].as_ref().unwrap().follows, vec![1]);
        assert_eq!(vars[&Chirper::var(1)].as_ref().unwrap().followers, vec![0]);
        Chirper::execute(&ChirperOp::Unfollow { follower: 0, followee: 1 }, &mut vars);
        assert!(vars[&Chirper::var(1)].as_ref().unwrap().followers.is_empty());
    }

    #[test]
    fn timeline_reply_holds_the_posts_in_order_and_clones_shallow() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        for i in 0..(TIMELINE_CAP + 3) {
            Chirper::execute(&ChirperOp::Post { user: 0, text: format!("{i}") }, &mut vars);
        }
        let reply = Chirper::execute(&ChirperOp::GetTimeline { user: 1 }, &mut vars);
        let ChirperReply::Timeline(posts) = &reply else { panic!("got {reply:?}") };
        let timeline = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert!(posts.iter().eq(timeline.iter()), "the same posts, oldest first");
        assert_eq!(&*posts[0].text, "3");
        // A cached copy of the reply is the same allocation.
        let ChirperReply::Timeline(cached) = reply.clone() else { unreachable!() };
        assert!(Arc::ptr_eq(posts, &cached));
    }

    #[test]
    fn missing_user_is_reported() {
        let mut vars = state(&[0]);
        vars.insert(Chirper::var(9), None);
        let reply = Chirper::execute(&ChirperOp::GetTimeline { user: 9 }, &mut vars);
        assert_eq!(reply, ChirperReply::NoSuchUser);
        let reply = Chirper::execute(&ChirperOp::Follow { follower: 0, followee: 9 }, &mut vars);
        assert_eq!(reply, ChirperReply::NoSuchUser);
    }

    #[test]
    fn workload_generates_valid_mixes() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = Arc::new(Mutex::new(SocialGraph::barabasi_albert(200, 3, &mut rng)));
        let mut w =
            ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX).with_budget(500);
        let mut timeline = 0;
        let mut posts = 0;
        while let Some(cmd) = w.next_command(SimTime::ZERO, &mut rng) {
            match cmd {
                CommandKind::Access { op: ChirperOp::GetTimeline { .. }, vars } => {
                    timeline += 1;
                    assert_eq!(vars.len(), 1);
                }
                CommandKind::Access { op: ChirperOp::Post { user, .. }, vars } => {
                    posts += 1;
                    // Declared vars = author + followers.
                    let g = graph.lock().unwrap();
                    assert_eq!(vars.len(), 1 + g.followers_of(user).len());
                }
                _ => {}
            }
        }
        assert_eq!(timeline + posts, 500);
        // Rough mix check (85/15 ± noise).
        assert!(posts > 40 && posts < 120, "posts = {posts}");
    }

    #[test]
    fn workload_budget_exhausts() {
        let mut rng = StdRng::seed_from_u64(6);
        let graph = Arc::new(Mutex::new(SocialGraph::barabasi_albert(50, 2, &mut rng)));
        let mut w = ChirperWorkload::new(graph, 0.5, ChirperMix::TIMELINE_ONLY).with_budget(3);
        assert!(w.next_command(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next_command(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next_command(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next_command(SimTime::ZERO, &mut rng).is_none());
    }
}
