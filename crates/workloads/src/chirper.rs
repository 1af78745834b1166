//! Chirper: the paper's Twitter-like social network service (§5.4).
//!
//! Every user is one DynaStar variable *and* one locality key (workload-
//! graph vertex), exactly as in the paper. Users post 140-character
//! messages; a post is written to the timeline of every follower, so posts
//! by well-followed users are multi-partition commands. Reading one's own
//! timeline touches only one's own variable and is always single-partition.

use std::collections::VecDeque;
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
    pub timeline: VecDeque<Post>,
    /// Whom this user follows.
    pub follows: Vec<u64>,
    /// Who follows this user.
    pub followers: Vec<u64>,
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
    /// The requested timeline (newest last). Shared: the reply cache keeps
    /// the same posts the client is sent.
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
                Some(Some(u)) => ChirperReply::Timeline(u.timeline.iter().cloned().collect()),
                _ => ChirperReply::NoSuchUser,
            },
            ChirperOp::Post { user, text } => {
                let kept = text.char_indices().nth(POST_CAP).map_or(text.len(), |(at, _)| at);
                let post = Post { author: *user, text: Arc::from(&text[..kept]) };
                // Authoritative follower list lives at the author.
                let followers: Vec<u64> = match vars.get(&Chirper::var(*user)) {
                    Some(Some(u)) => u.followers.clone(),
                    _ => return ChirperReply::NoSuchUser,
                };
                let mut reached = 0;
                for f in followers {
                    // Only followers the client declared are writable.
                    if let Some(Some(fu)) = vars.get_mut(&Chirper::var(f)) {
                        let fu = make_mut_with_room(fu);
                        // Evict before appending: a full timeline has no
                        // room, and pushing first would reallocate it to
                        // twice the cap.
                        if fu.timeline.len() >= TIMELINE_CAP {
                            fu.timeline.pop_front();
                        }
                        fu.timeline.push_back(post.clone());
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

/// [`Arc::make_mut`] for a post: a shared user is copied with room for one
/// more post. `make_mut` would clone the timeline at its exact length, and
/// the push that follows would reallocate it to twice that.
fn make_mut_with_room(user: &mut Arc<ChirperUser>) -> &mut ChirperUser {
    if Arc::get_mut(user).is_none() {
        let ChirperUser { timeline, follows, followers } = &**user;
        let mut copy = VecDeque::with_capacity((timeline.len() + 1).clamp(4, TIMELINE_CAP));
        copy.extend(timeline.iter().cloned());
        let copy =
            ChirperUser { timeline: copy, follows: follows.clone(), followers: followers.clone() };
        *user = Arc::new(copy);
    }
    Arc::make_mut(user)
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
        let users = graph.lock().unwrap().users() as u64;
        ChirperWorkload {
            graph,
            zipf: Zipf::new(users, theta),
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
    use std::collections::BTreeMap;

    fn state(users: &[u64]) -> BTreeMap<VarId, Option<Arc<ChirperUser>>> {
        users.iter().map(|&u| (Chirper::var(u), Some(Arc::new(ChirperUser::default())))).collect()
    }

    /// Test helper: mutable access to a user in the var map.
    fn user_mut(vars: &mut BTreeMap<VarId, Option<Arc<ChirperUser>>>, u: u64) -> &mut ChirperUser {
        Arc::make_mut(vars.get_mut(&Chirper::var(u)).unwrap().as_mut().unwrap())
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
        assert_eq!(t1[0].author, 0);
    }

    #[test]
    fn post_truncates_to_140_chars() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        let long = "x".repeat(500);
        Chirper::execute(&ChirperOp::Post { user: 0, text: long }, &mut vars);
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(t[0].text.len(), POST_CAP);
        // The cap counts characters of the op's text, not bytes.
        let wide = "é".repeat(POST_CAP + 1);
        Chirper::execute(&ChirperOp::Post { user: 0, text: wide }, &mut vars);
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(t[1].text.chars().count(), POST_CAP);
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
        assert_eq!(&*t.back().unwrap().text, format!("{}", TIMELINE_CAP + 9));
    }

    #[test]
    fn post_to_a_full_copied_timeline_does_not_reallocate() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        user_mut(&mut vars, 1).timeline = (0..TIMELINE_CAP as u64)
            .map(|i| Post { author: 0, text: Arc::from(format!("{i}")) })
            .collect();
        // A second owner makes the post's write copy the follower.
        let shared = vars[&Chirper::var(1)].clone();
        Chirper::execute(&ChirperOp::Post { user: 0, text: "new".into() }, &mut vars);
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(t.len(), TIMELINE_CAP);
        assert_eq!(&*t.front().unwrap().text, "1", "the oldest post is dropped");
        assert_eq!(&*t.back().unwrap().text, "new", "the newest post is last");
        assert!(t.capacity() < 2 * TIMELINE_CAP, "capacity {}", t.capacity());
        assert_eq!(shared.unwrap().timeline.len(), TIMELINE_CAP, "the other owner is untouched");
    }

    #[test]
    fn copied_timelines_keep_the_same_posts_and_room_for_one_more() {
        let mut vars = state(&[0, 1]);
        user_mut(&mut vars, 0).followers = vec![1];
        user_mut(&mut vars, 1).follows = vec![0];
        // The user a post always produced: evict at the cap, append.
        let mut reference = ChirperUser { follows: vec![0], ..ChirperUser::default() };
        for i in 0..(TIMELINE_CAP + 5) {
            let text = format!("{i}");
            // Every other post finds the follower shared and copies it.
            let shared = (i % 2 == 0).then(|| vars[&Chirper::var(1)].clone());
            let before = vars[&Chirper::var(1)].as_ref().unwrap().timeline.len();
            Chirper::execute(&ChirperOp::Post { user: 0, text: text.clone() }, &mut vars);
            if reference.timeline.len() >= TIMELINE_CAP {
                reference.timeline.pop_front();
            }
            reference.timeline.push_back(Post { author: 0, text: Arc::from(text) });

            let user = vars[&Chirper::var(1)].as_ref().unwrap();
            assert_eq!(**user, reference, "post {i}");
            if let Some(shared) = shared {
                assert_eq!(shared.unwrap().timeline.len(), before, "the other owner is untouched");
                let room = (before + 1).clamp(4, TIMELINE_CAP);
                assert_eq!(user.timeline.capacity(), room, "post {i} copied with room");
            }
        }
        let t = &vars[&Chirper::var(1)].as_ref().unwrap().timeline;
        assert_eq!(t.len(), TIMELINE_CAP);
        assert_eq!(&*t.front().unwrap().text, "5", "the five oldest posts were evicted");
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
