//! Repartitioning while serving: one plan moves most of a paced Chirper
//! deployment's keys through staged migration (fig9's policy: 8 KiB per
//! variable over a 1 MiB/s link, four per link in flight), and the
//! foreground must keep completing commands throughout.
//!
//! The bound is stated against the transfer itself. Each source needs
//! `moved keys ÷ partitions × 8 KiB ÷ 1 MiB/s` of link time; while chunk
//! wire time was charged to the execution clock, and destinations waited
//! for keys in hottest-first rather than demand order, the longest gap
//! between two completions anywhere in the cluster was 75–95 % of that.
//! With the link on its own clock and pulled keys sent first it is the
//! time a hub post waits for its followers' keys — bandwidth, not
//! scheduling — and with the send order striped over a source's replicas
//! that bandwidth is three links', not one link's three times over.

use std::sync::{Arc, Mutex};

use dynastar_core::metric_names as mn;
use dynastar_core::server::{ExecConfig, ServerConfig};
use dynastar_core::{Cluster, ClusterBuilder, ClusterConfig, Command, CommandKind, Mode, Workload};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{Chirper, ChirperMix, ChirperUser, ChirperWorkload};
use dynastar_workloads::placement;
use dynastar_workloads::socialgraph::SocialGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTITIONS: u32 = 4;
const USERS: usize = 600;
const CLIENTS: u64 = 16;
/// Offered load, commands per simulated second over all clients.
const RATE: u64 = 800;
const VAR_BYTES: u64 = 8 * 1024;
const LINK_BYTES_PER_SEC: u64 = 1024 * 1024;

/// An open-loop client: due every `CLIENTS / RATE` seconds whatever the
/// previous command took, and a log of when commands completed.
struct Paced {
    inner: ChirperWorkload,
    next_due: SimTime,
    completions: Arc<Mutex<Vec<SimTime>>>,
}

impl Workload<Chirper> for Paced {
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Chirper>> {
        self.inner.next_command(now, rng)
    }

    fn on_completed(
        &mut self,
        now: SimTime,
        _cmd: &Command<Chirper>,
        _reply: Option<&<Chirper as dynastar_core::Application>::Reply>,
    ) {
        self.completions.lock().expect("completion log").push(now);
    }

    fn think_time(&mut self, now: SimTime, _rng: &mut StdRng) -> SimDuration {
        self.next_due += SimDuration::from_micros(CLIENTS * 1_000_000 / RATE);
        self.next_due.saturating_duration_since(now)
    }
}

fn cluster(seed: u64) -> (Cluster<Chirper>, Arc<Mutex<Vec<SimTime>>>) {
    let config = ClusterConfig {
        partitions: PARTITIONS,
        replicas: 3,
        mode: Mode::Dynastar,
        seed,
        warm_client_caches: true,
        compute_base: SimDuration::from_millis(100),
        exec: ExecConfig::serial(SimDuration::from_micros(150)),
        repartition_threshold: 1_500,
        // The first plan may not start before 2 s, the second not before
        // 4 s: exactly one falls in the run.
        min_plan_interval: SimDuration::from_secs(2),
        server: ServerConfig {
            staged_migration: true,
            migration_chunk_vars: 4,
            migration_var_bytes: VAR_BYTES,
            migration_link_bytes_per_sec: LINK_BYTES_PER_SEC,
            migration_chunk_timeout: SimDuration::from_millis(100),
            migration_max_retries: 6,
            migration_max_inflight_per_link: 4,
            ..ServerConfig::default()
        },
        client_retry_backoff: SimDuration::from_millis(2),
        ..ClusterConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x5AFE);
    let graph = SocialGraph::barabasi_albert(USERS, 6, &mut rng);
    let users = 0..graph.users() as u64;
    let mut b = ClusterBuilder::<Chirper>::new(config);
    for (key, p) in placement::random(users.clone().map(Chirper::key), PARTITIONS, &mut rng) {
        b.place(key, p);
    }
    b.with_vars(users.map(|u| {
        let user = ChirperUser {
            timeline: Default::default(),
            follows: graph.follows_of(u).to_vec(),
            followers: graph.followers_of(u).to_vec(),
        };
        (Chirper::var(u), Arc::new(user))
    }));
    let mut cluster = b.build();
    let graph = Arc::new(Mutex::new(graph));
    let completions = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..CLIENTS {
        cluster.add_client(Paced {
            inner: ChirperWorkload::new(Arc::clone(&graph), 0.95, ChirperMix::MIX),
            next_due: SimTime::ZERO,
            completions: Arc::clone(&completions),
        });
    }
    (cluster, completions)
}

/// Runs the deployment across its one plan — with replica `1 + p % 2` of
/// every partition `p` crashed a second before it when `one_down` — and
/// returns the longest stretch without a completion anywhere and the link
/// time one source needs for its share of the moved keys. Asserts what
/// both variants must keep: nothing fails, nothing reverts, and the move
/// completes on every live replica.
fn longest_gap_across_the_plan(one_down: bool) -> (SimDuration, SimDuration) {
    let (mut cluster, completions) = cluster(11);
    let down: Vec<_> = (0..PARTITIONS as usize)
        .filter(|_| one_down)
        .map(|p| cluster.groups()[p][1 + p % 2])
        .collect();
    for &node in &down {
        cluster.sim.schedule_crash(SimTime::from_secs(1), node);
    }
    cluster.run_for(SimDuration::from_millis(3_900));

    let m = cluster.metrics();
    assert_eq!(m.counter(mn::PLANS_PUBLISHED), 1, "exactly one plan falls in the run");
    let moved = m.counter(mn::MIGRATION_KEYS_STAGED);
    assert!(moved * 2 >= USERS as u64, "the plan moves at least half the keys: {moved}");
    assert_eq!(m.counter(mn::MIGRATION_REVERTS), 0);
    assert_eq!(m.counter(mn::MIGRATION_CHUNK_RETRIES), 0);
    assert_eq!(m.counter(mn::CMD_FAILED), 0, "stale routing retries, never surfaces");
    // A client whose cache names a key's old owner is turned away and
    // waits out its backoff before asking again.
    assert!(m.counter(mn::CMD_RETRY_BACKOFF) >= 1, "no stale client backed off");
    assert!(m.counter(mn::MIGRATION_PULL_PROMOTIONS) > 0, "waiting commands pulled their keys");

    // Longest stretch without a completion anywhere, warm-up excluded.
    let mut done = completions.lock().expect("completion log").clone();
    done.sort_unstable();
    let longest_gap = done
        .windows(2)
        .filter(|w| w[0] >= SimTime::from_secs(1))
        .map(|w| w[1].saturating_duration_since(w[0]))
        .max()
        .expect("commands completed");
    let link_time_per_source = SimDuration::from_micros(
        moved / u64::from(PARTITIONS) * VAR_BYTES * 1_000_000 / LINK_BYTES_PER_SEC,
    );

    // The move itself completed: every live replica of a group reports the
    // same view, and the partitions' union is the oracle's map.
    let views = cluster.location_views();
    let (oracle, partitions) = views.split_last().expect("oracle group is last");
    let mut union: Vec<(u64, u32)> = Vec::new();
    for (p, group) in partitions.iter().enumerate() {
        let first = group[0].as_ref().expect("no replica is recovering");
        let live = cluster.groups()[p].iter().zip(group).filter(|(n, _)| !down.contains(n));
        assert!(live.clone().count() >= 2, "a quorum of partition {p} is up");
        assert!(live.clone().all(|(_, v)| v.as_ref() == Some(first)), "partition {p} agrees");
        assert!(first.iter().all(|&(_, at)| at == p as u32));
        union.extend(first);
    }
    union.sort_unstable();
    assert_eq!(Some(&union), oracle[0].as_ref(), "partition union == oracle map");
    (longest_gap, link_time_per_source)
}

/// `gap` as a percentage of `link_time`.
fn percent(gap: SimDuration, link_time: SimDuration) -> u64 {
    gap.as_micros() * 100 / link_time.as_micros()
}

#[test]
fn a_plan_moving_most_keys_does_not_stop_the_foreground() {
    // Measured 54 ms of 844 ms (6 %); 141 ms (17 %) while the three
    // replicas of a source all pushed the same chunks in the same order.
    let (gap, link_time) = longest_gap_across_the_plan(false);
    assert!(
        percent(gap, link_time) < 10,
        "longest completion gap {gap:?} vs {link_time:?} of link time per source"
    );
}

#[test]
fn with_a_replica_of_every_source_down_the_other_two_carry_its_stripe() {
    // Measured 132 ms of 836 ms (16 %): two links instead of three, and
    // the orphaned stripe waits until a survivor has finished its own.
    // Still under the bound the healthy cluster had before striping.
    let (gap, link_time) = longest_gap_across_the_plan(true);
    assert!(
        percent(gap, link_time) < 40,
        "longest completion gap {gap:?} vs {link_time:?} of link time per source"
    );
}
