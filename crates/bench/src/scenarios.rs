//! The adversarial migration scenarios, run by both
//! `fig9_migration_interference` and `dynastar scenario`:
//!
//! * `flash_crowd` — a celebrity post yanks the hot spot onto one user;
//! * `diurnal`    — the hot quarter of the keyspace rotates on a period;
//! * `zipf_ramp`  — the skew parameter sharpens mid-run (0.2 → 0.95);
//! * `churn`      — flash crowd plus crash-restart waves and degraded
//!   links timed to overlap the migrations they trigger;
//! * `chained_move` — the hot half of the keyspace rotates once per plan
//!   interval while a mid-run brownout degrades every link between two
//!   partitions, so transfers give up and revert while later plans have
//!   already chained the same keys onward (the plan-history replay path).

use std::sync::Arc;

use dynastar_core::{
    ClusterBuilder, ClusterConfig, CommandKind, ExecConfig, LocKey, Mode, PartitionId,
    ServerConfig, VarId,
};
use dynastar_runtime::nemesis::NemesisPlan;
use dynastar_runtime::{Metrics, SimDuration, SimTime};
use dynastar_workloads::chirper::ChirperMix;
use dynastar_workloads::counters::Counters;
use dynastar_workloads::scenarios::{
    churn_nemesis, flash_crowd, migration_brownout, DiurnalRotation, ScenarioWorkload, ZipfRamp,
};
use rand::rngs::StdRng;

use crate::setup::{chirper_cluster, ChirperSetup};

/// Every scenario, in suite order.
pub const NAMES: [&str; 5] = ["flash_crowd", "diurnal", "zipf_ramp", "churn", "chained_move"];

/// What the two callers set differently.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Partitions (`chained_move` raises this to at least 3).
    pub partitions: u32,
    /// Social graph size (`flash_crowd`, `churn`).
    pub users: usize,
    /// Counters keyspace (`diurnal`, `zipf_ramp`, `chained_move`).
    pub domain: u64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Simulated seconds.
    pub secs: u64,
    /// Master seed.
    pub seed: u64,
    /// Repartitioning threshold of the social-network scenarios.
    pub chirper_threshold: u64,
    /// Repartitioning threshold of the counters scenarios.
    pub counters_threshold: u64,
    /// Minimum time between plans.
    pub plan_interval: SimDuration,
    /// `churn` crash-restart waves.
    pub waves: u32,
    /// Staged (chunked, rate-limited, acked, with client retry backoff)
    /// migration, or the single-shipment stall baseline.
    pub staged: bool,
    /// Staged transfers in flight per source→destination link (0 = no
    /// cap; ignored by the stall baseline, which never stages).
    pub inflight_cap: u32,
}

impl Params {
    /// Both policies share the bandwidth model (8 KiB/var over a 1 MiB/s
    /// migration link — 8 ms per variable), so the comparison isolates
    /// *how* the transfer cost is paid, not how large it is: a plan moving
    /// a few hundred keys costs the stall baseline a multi-second outage
    /// paid upfront, while staged migration paces the same bytes.
    fn server(&self) -> ServerConfig {
        ServerConfig {
            staged_migration: self.staged,
            migration_chunk_vars: 4,
            migration_var_bytes: 8 * 1024,
            migration_link_bytes_per_sec: 1024 * 1024,
            migration_chunk_timeout: SimDuration::from_millis(100),
            migration_max_retries: 6,
            migration_max_inflight_per_link: self.inflight_cap,
            ..ServerConfig::default()
        }
    }

    fn client_backoff(&self) -> SimDuration {
        if self.staged {
            SimDuration::from_millis(2)
        } else {
            SimDuration::ZERO
        }
    }

    /// The counters scenarios' cluster.
    fn counters_config(&self, partitions: u32, server: ServerConfig) -> ClusterConfig {
        ClusterConfig {
            partitions,
            mode: Mode::Dynastar,
            seed: self.seed,
            repartition_threshold: self.counters_threshold,
            min_plan_interval: self.plan_interval,
            warm_client_caches: true,
            compute_base: SimDuration::from_millis(50),
            exec: ExecConfig::serial(SimDuration::from_micros(150)),
            server,
            client_retry_backoff: self.client_backoff(),
            ..ClusterConfig::default()
        }
    }
}

/// Runs scenario `name` to completion and returns the cluster's metrics.
///
/// # Panics
///
/// Panics if `name` is not one of [`NAMES`].
pub fn run(name: &str, p: &Params) -> Metrics {
    match name {
        "flash_crowd" => run_chirper(name, false, p),
        "churn" => run_chirper(name, true, p),
        "diurnal" => run_counters(false, p),
        "zipf_ramp" => run_counters(true, p),
        "chained_move" => run_chained(name, p),
        other => panic!("unknown scenario {other}"),
    }
}

/// Flash-crowd and churn scenarios: the social network under a celebrity
/// post, optionally with crash waves + degraded links overlapping the
/// migrations the crowd triggers.
fn run_chirper(name: &str, churn: bool, p: &Params) -> Metrics {
    let mut setup = ChirperSetup::new(p.partitions, Mode::Dynastar);
    setup.users = p.users;
    setup.cluster.seed = p.seed;
    setup.cluster.min_plan_interval = p.plan_interval;
    setup.cluster.repartition_threshold = p.chirper_threshold;
    setup.cluster.server = p.server();
    setup.cluster.client_retry_backoff = p.client_backoff();
    let (mut cluster, graph) = chirper_cluster(&setup);
    // The celebrity is an existing unremarkable user (fewest followers at
    // t=0), as in fig6.
    let celebrity = {
        let g = graph.lock().unwrap();
        (0..g.users() as u64).min_by_key(|&u| g.followers_of(u).len()).unwrap_or(0)
    };
    let at = SimTime::from_secs(p.secs / 3);
    for _ in 0..p.clients {
        cluster.add_client(flash_crowd(
            Arc::clone(&graph),
            0.95,
            ChirperMix::MIX,
            celebrity,
            40,
            at,
        ));
    }
    if churn {
        let cfg = churn_nemesis(
            p.seed ^ 0xC0FFEE,
            SimTime::from_secs(p.secs / 4),
            SimTime::from_secs(p.secs * 3 / 4),
            p.waves,
        );
        let plan = NemesisPlan::generate(&cfg, cluster.groups());
        eprintln!(
            "{name}: nemesis schedules {} crash(es), {} degraded link(s)",
            plan.crash_count(),
            plan.link_fault_count()
        );
        plan.apply(&mut cluster.sim);
    }
    cluster.run_for(SimDuration::from_secs(p.secs));
    std::mem::take(cluster.metrics_mut())
}

/// Diurnal-rotation and Zipf-ramp scenarios: a counters keyspace whose
/// access pattern drifts under the partitioner's feet. Commands pair each
/// drawn rank with its successor so the co-access graph chases the drift.
fn run_counters(ramp: bool, p: &Params) -> Metrics {
    let mut b = ClusterBuilder::new(p.counters_config(p.partitions, p.server()));
    for v in 0..p.domain {
        b.place(LocKey(v), PartitionId((v % p.partitions as u64) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let domain = p.domain;
    let make = move |rank: u64, _rng: &mut StdRng| CommandKind::<Counters>::Access {
        op: 1,
        vars: vec![VarId(rank), VarId((rank + 1) % domain)],
    };
    for _ in 0..p.clients {
        if ramp {
            let pattern = ZipfRamp::new(
                domain,
                0.2,
                0.95,
                SimTime::from_secs(p.secs / 6),
                SimTime::from_secs(p.secs * 2 / 3),
            );
            cluster.add_client(ScenarioWorkload::new(pattern, make));
        } else {
            let pattern = DiurnalRotation::new(
                domain,
                0.95,
                SimDuration::from_secs((p.secs / 6).max(1)),
                domain / 4,
            );
            cluster.add_client(ScenarioWorkload::new(pattern, make));
        }
    }
    cluster.run_for(SimDuration::from_secs(p.secs));
    std::mem::take(cluster.metrics_mut())
}

/// Chained-migration scenario: the hot half of a counters keyspace rotates
/// once per plan interval, so consecutive plans keep re-routing the same
/// keys while the previous transfer may still be in flight (a move A→B
/// chained onward to B→C). Mid-run, a [`migration_brownout`] degrades
/// every link between partitions 0 and 1 long enough for chunk retries to
/// exhaust and give up, so their reverts must compose with the chained
/// moves via plan-history replay. Correctness shows up in the error gate:
/// all the routing confusion must surface as retries, never failures.
///
/// Unlike the other counters scenarios, commands touch a *single* key and
/// keys start out in contiguous blocks: single-partition commands never
/// cross the browned-out inter-group mesh, so the foreground keeps
/// running, the hint stream keeps feeding the oracle, and plans keep
/// landing *during* the brownout — which is what pushes transfers into
/// it. Migration pressure comes from vertex-weight imbalance alone: every
/// rotation parks the Zipf head on one contiguous block and the
/// partitioner must spread it again.
fn run_chained(name: &str, p: &Params) -> Metrics {
    // At least three partitions: the brownout only degrades the 0 ↔ 1
    // mesh, so partition 2+ keeps absorbing traffic and the oracle keeps
    // planning, while moves can still chain onward to a healthy partition.
    let partitions = p.partitions.max(3);
    // Shorter retry ladder (~1.5 s at 100 ms timeout × 3 retries) so the
    // 2 s one-way brownout delay below outlasts it and forces give-ups.
    let mut server = p.server();
    server.migration_max_retries = 3;
    let mut b = ClusterBuilder::new(p.counters_config(partitions, server));
    for v in 0..p.domain {
        b.place(LocKey(v), PartitionId((v * partitions as u64 / p.domain) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let make = move |rank: u64, _rng: &mut StdRng| CommandKind::<Counters>::Access {
        op: 1,
        vars: vec![VarId(rank)],
    };
    for _ in 0..p.clients {
        // Rotating by half the domain every plan interval means each plan
        // finds the keys it just placed hot somewhere else again — the
        // chained-move generator.
        let pattern = DiurnalRotation::new(p.domain, 0.95, p.plan_interval, p.domain / 2);
        cluster.add_client(ScenarioWorkload::new(pattern, make));
    }
    // Brown out the partition-0 ↔ partition-1 mesh for half the run with
    // pure delay, zero loss. Partial loss is laundered away by the 3×3
    // chunk/ack fan-out, and total loss stalls the atomic-multicast
    // timestamp exchange (freezing both groups' delivery pipelines). A
    // 2 s one-way delay instead puts a chunk's ack ~4 s behind its send:
    // sources exhaust the shortened retry ladder and revert while the
    // destination — which still receives every chunk, late but never
    // lost — completes staging and submits its `MigrationDone`. The two
    // race in the total order and plan-history replay settles the loser
    // as stale.
    let (ga, gb) = {
        let groups = cluster.groups();
        (groups[0].clone(), groups[1].clone())
    };
    let plan = migration_brownout(
        &ga,
        &gb,
        SimTime::from_secs(p.secs / 4),
        SimTime::from_secs(p.secs * 3 / 4),
        SimDuration::from_secs(2),
        0,
    );
    eprintln!("{name}: brownout degrades {} directed link(s)", plan.link_fault_count());
    plan.apply(&mut cluster.sim);
    cluster.run_for(SimDuration::from_secs(p.secs));
    std::mem::take(cluster.metrics_mut())
}
