//! What a deployment is made of, whichever driver runs it: the
//! [`ClusterConfig`], the per-core configs derived from it, and the one
//! function that builds every replica's core and host.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynastar_amcast::{GroupId, MemberId};
use dynastar_paxos::{BatchConfig, GroupConfig};
use dynastar_runtime::{NetConfig, SimDuration};

use crate::client::{warm_cache, LocationCache};
use crate::command::{Application, LocKey, Mode, PartitionId, VarId};
use crate::host::{ReplicaHost, Role, RouteTable};
use crate::oracle::{OracleConfig, OracleCore};
use crate::server::{ExecConfig, ServerConfig, ServerCore};

/// Deployment parameters of a simulated [`crate::Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of state partitions.
    pub partitions: u32,
    /// Replicas per group (partitions and oracle alike).
    pub replicas: usize,
    /// Execution mode (DynaStar / S-SMR / DS-SMR).
    pub mode: Mode,
    /// Master seed for the simulation.
    pub seed: u64,
    /// Network model.
    pub net: NetConfig,
    /// Partition server tunables.
    pub server: ServerConfig,
    /// Workload-graph change count that triggers repartitioning.
    /// `u64::MAX` never repartitions — and then, as with one partition or
    /// a mode that does not repartition, partitions collect no hints: the
    /// per-partition config this one derives clears `collect_hints` (see
    /// [`OracleConfig::can_plan`]).
    pub repartition_threshold: u64,
    /// Minimum time between repartitionings.
    pub min_plan_interval: SimDuration,
    /// Modelled partitioner base latency (the per-element part is
    /// [`OracleConfig`]'s default).
    pub compute_base: SimDuration,
    /// Modelled execution engine at partition replicas: worker count,
    /// per-command CPU time and dependency-window size. The default
    /// (serial, zero service time) models infinite-speed servers; set a
    /// service time to get saturation behaviour and raise `workers` for
    /// conflict-aware parallel execution (see [`ExecConfig`]). This is the
    /// field that counts: it overrides `server.exec`.
    pub exec: ExecConfig,
    /// Client response timeout before re-dispatch through the oracle.
    pub client_timeout: SimDuration,
    /// Base delay clients wait before re-dispatching after a stale-routing
    /// `Retry` (exponential per attempt). Zero retries immediately — the
    /// historical behaviour; set it to absorb migration-induced retry
    /// storms as backpressure instead of load.
    pub client_retry_backoff: SimDuration,
    /// Seed client caches with the initial placement (always done for
    /// S-SMR, whose map is static).
    pub warm_client_caches: bool,
    /// Leader-side command batching / instance pipelining, applied to
    /// every consensus group (partitions and oracle alike, unless
    /// [`ClusterConfig::oracle_batch`] overrides the oracle's). The
    /// default ([`BatchConfig::UNBATCHED`]) reproduces the unbatched
    /// pipeline.
    pub batch: BatchConfig,
    /// Oracle warm-start repartitioning (incremental `partition_from`
    /// seeded from the current plan; see `OracleConfig::warm_start`).
    pub warm_plans: bool,
    /// Warm-plan quality gate: accepted while the warm cut stays within
    /// this ratio of the last full multilevel run's.
    pub warm_quality_ratio: f64,
    /// Number of oracle shard groups (DESIGN.md §7). Shard `s` owns the
    /// [`crate::routing::shard_of`] slice of the key→partition map and is
    /// multicast group `partitions + s`; shard 0 is the planner. The
    /// default `1` reproduces the unsharded oracle byte-for-byte.
    pub oracle_shards: u32,
    /// Client-side location caching. Disabling it forces every command
    /// through an oracle `Exec` query — the cold-cache flash-crowd load
    /// the fig8 oracle benchmark measures shard scaling under.
    pub client_location_cache: bool,
    /// Ordering batch / pipelining config for the oracle shard groups
    /// alone (`None` = share [`ClusterConfig::batch`]). fig8's shard
    /// sweep pins the oracle window to one in-flight instance per leader
    /// — making each shard's leader a genuine serialization point —
    /// while the partition groups keep the unbounded default.
    pub oracle_batch: Option<BatchConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions: 2,
            replicas: 3,
            mode: Mode::Dynastar,
            seed: 1,
            net: NetConfig::default(),
            server: ServerConfig::default(),
            repartition_threshold: 2_000,
            min_plan_interval: SimDuration::from_secs(30),
            compute_base: SimDuration::from_millis(50),
            exec: ExecConfig::default(),
            client_timeout: SimDuration::from_secs(10),
            client_retry_backoff: SimDuration::ZERO,
            warm_client_caches: false,
            batch: BatchConfig::UNBATCHED,
            warm_plans: true,
            warm_quality_ratio: 1.1,
            oracle_shards: 1,
            client_location_cache: true,
            oracle_batch: None,
        }
    }
}

impl ClusterConfig {
    /// The config of every partition replica. Per-replica identity (the
    /// recording flag, the replica index) is stamped by the host.
    pub(crate) fn server_config(&self) -> ServerConfig {
        ServerConfig {
            // Hints feed the plan and nothing else: a deployment whose
            // oracle can never plan does not pay to collect them.
            collect_hints: self.server.collect_hints && self.oracle_config(0).can_plan(),
            exec: self.exec,
            ..self.server.clone()
        }
    }

    /// The config of oracle shard `shard`'s replicas. Every shard
    /// replicates the full map; slice ownership (nok authority,
    /// location view) comes from the shard index.
    pub(crate) fn oracle_config(&self, shard: u32) -> OracleConfig {
        OracleConfig {
            partitions: self.partitions,
            mode: self.mode,
            repartition_threshold: self.repartition_threshold,
            compute_base: self.compute_base,
            min_plan_interval: self.min_plan_interval,
            warm_start: self.warm_plans,
            warm_quality_ratio: self.warm_quality_ratio,
            shards: self.oracle_shards,
            shard,
            ..OracleConfig::default()
        }
    }

    /// One consensus config (timing + batching) per kind of group. Oracle
    /// shard groups may pin their own batching (fig8's leader
    /// serialization model) without touching the partitions'.
    fn group_config(&self, oracle: bool) -> GroupConfig {
        let batch = if oracle { self.oracle_batch.unwrap_or(self.batch) } else { self.batch };
        GroupConfig::deployment(self.replicas).with_batching(batch)
    }
}

/// Builds every replica of a deployment — core preloaded, hosted, not yet
/// driven — in node-id order: the partitions' replicas group by group,
/// then the oracle shards'.
///
/// # Panics
///
/// Panics if an initial variable's key has no placement.
pub(crate) fn build_hosts<A: Application>(
    cfg: &ClusterConfig,
    placement: &BTreeMap<LocKey, PartitionId>,
    initial_vars: Vec<(VarId, A::Value)>,
) -> (Arc<RouteTable>, Vec<ReplicaHost<A>>) {
    let k = cfg.partitions as usize;
    let routes = Arc::new(RouteTable::new(cfg.partitions, cfg.oracle_shards, cfg.replicas));

    // Group initial variables and keys by partition.
    let mut vars_by_part: Vec<Vec<(VarId, A::Value)>> = vec![Vec::new(); k];
    for (v, val) in initial_vars {
        let key = A::locality(v);
        let p = *placement
            .get(&key)
            .unwrap_or_else(|| panic!("initial var {v} has unplaced key {key}"));
        vars_by_part[p.0 as usize].push((v, val));
    }
    let mut keys_by_part: Vec<Vec<LocKey>> = vec![Vec::new(); k];
    for (&key, &p) in placement {
        keys_by_part[p.0 as usize].push(key);
    }

    let mut hosts = Vec::with_capacity(routes.groups().len() * cfg.replicas);
    for g in 0..cfg.partitions + cfg.oracle_shards {
        let shard = g.checked_sub(cfg.partitions);
        let group_cfg = cfg.group_config(shard.is_some());
        // One core per group: every replica starts from the same protocol
        // state, so all but the last get a clone of it (the host stamps
        // each replica's own identity on its copy).
        let role = match shard {
            None => {
                let mut core = ServerCore::<A>::new(PartitionId(g), cfg.mode, cfg.server_config());
                let p = g as usize;
                core.preload(keys_by_part[p].iter().copied(), vars_by_part[p].iter().cloned());
                Role::Partition(core)
            }
            Some(s) => {
                let mut core = OracleCore::<A>::new(cfg.oracle_config(s));
                core.preload_map(placement.iter().map(|(&key, &p)| (key, p)));
                Role::Oracle(core)
            }
        };
        let me = |r| MemberId::new(GroupId(g), r);
        let Some(last) = cfg.replicas.checked_sub(1) else { continue };
        for r in 0..last {
            let copy = role.snapshot();
            hosts.push(ReplicaHost::new(me(r), Arc::clone(&routes), group_cfg.clone(), copy));
        }
        hosts.push(ReplicaHost::new(me(last), Arc::clone(&routes), group_cfg, role));
    }
    (routes, hosts)
}

/// What every client of a deployment knows of the placement when it
/// starts: all of it if client caches are warm (always for S-SMR, whose
/// map is static), nothing otherwise. Built once; each
/// [`crate::client::ClientCore`] starts from a copy.
pub(crate) fn client_cache(
    cfg: &ClusterConfig,
    placement: &BTreeMap<LocKey, PartitionId>,
) -> LocationCache {
    let warm = cfg.mode == Mode::SSmr || (cfg.client_location_cache && cfg.warm_client_caches);
    if warm {
        warm_cache(placement.iter().map(|(&k, &p)| (k, p)))
    } else {
        LocationCache::default()
    }
}
