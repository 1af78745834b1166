//! The five workloads: what each deploys and how it is loaded.
//!
//! This is the only file that names the program's feature fields, so a
//! change to `ClusterConfig`/`ServerConfig` touches the benchmark here and
//! nowhere else. Cluster construction is copied from
//! `dynastar_bench::setup` rather than imported: that module is due for a
//! rewrite and the benchmark must not move with it.

use std::sync::{Arc, Mutex};

use dynastar_core::server::{ExecConfig, ServerConfig};
use dynastar_core::{
    Application, BatchConfig, Cluster, ClusterBuilder, ClusterConfig, LocKey, Mode, PartitionId,
    VarId,
};
use dynastar_runtime::nemesis::NemesisPlan;
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{Chirper, ChirperMix, ChirperUser, ChirperWorkload};
use dynastar_workloads::placement;
use dynastar_workloads::scenarios::churn_nemesis;
use dynastar_workloads::socialgraph::SocialGraph;
use dynastar_workloads::tpcc::{self, schema, TpccScale, TpccValue, TpccWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How clients are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Each client issues its next command when the previous completes.
    Closed,
    /// Open-loop schedule at `rate` commands per simulated second over all
    /// clients (see [`crate::recorder::Paced`]).
    Paced {
        /// Offered commands per simulated second.
        rate: u64,
    },
}

/// Which workload a [`Spec`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    /// TPC-C from a random placement through the oracle's first plans.
    TpccRepartition,
    /// Chirper at the paper's mix with staged migration, paced.
    ChirperMix,
    /// Chirper with client caches off and a sharded oracle.
    OracleCold,
    /// Chirper on one partition with an eight-worker execution pool.
    ExecHot,
    /// TPC-C under crash-restart waves, paced.
    TpccCrash,
}

impl Id {
    /// Whether the workload runs TPC-C (else Chirper).
    pub fn is_tpcc(self) -> bool {
        matches!(self, Id::TpccRepartition | Id::TpccCrash)
    }
}

/// One workload's fixed shape. The seed is the only thing that varies.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub id: Id,
    /// Its name on the command line and in the result files.
    pub name: &'static str,
    /// Why it exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Number of partitions.
    pub partitions: u32,
    /// Number of client actors.
    pub clients: u32,
    /// Closed loop or paced.
    pub load: Load,
    /// Independent runs per invocation, each with its own program seed
    /// derived from `--seed`; the simulated metrics are their mean. More
    /// runs steady the metrics across seeds; the dearer workloads get two.
    pub sub_runs: u32,
    /// Simulated milliseconds of the measured run, warm-up included.
    pub sim_ms: u64,
    /// Simulated milliseconds at the start excluded from the simulated
    /// metrics.
    pub warmup_ms: u64,
}

/// Simulated seconds the cluster runs on after the measured run with the
/// generators stopped, so a slow command can be told from a lost one.
pub const DRAIN_SECS: u64 = 3;

/// Every workload, in the order the suite runs them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        id: Id::TpccRepartition,
        name: "tpcc_repartition",
        why: "TPC-C, random placement, oracle repartitions mid-run: ordering and server queueing do the work on the default config path",
        partitions: 4,
        clients: 24,
        load: Load::Closed,
        sub_runs: 3,
        sim_ms: 12_000,
        warmup_ms: 1_000,
    },
    Spec {
        id: Id::ChirperMix,
        name: "chirper_mix",
        why: "Chirper 85/15 paced at 1000/s, one plan, staged migration: oracle, partitioner, migration and hub posts do the work; pacing exposes the stall",
        partitions: 4,
        clients: 32,
        load: Load::Paced { rate: 1_000 },
        sub_runs: 2,
        sim_ms: 8_000,
        warmup_ms: 1_000,
    },
    Spec {
        id: Id::OracleCold,
        name: "oracle_cold",
        why: "Chirper with client caches off and 4 oracle shards: every command pays an oracle round, so the oracle query path is the bottleneck",
        partitions: 8,
        clients: 64,
        load: Load::Closed,
        sub_runs: 3,
        sim_ms: 1_500,
        warmup_ms: 500,
    },
    Spec {
        id: Id::ExecHot,
        name: "exec_hot",
        why: "Chirper on one partition, 8 exec workers at 1 ms, batch 32: execution scheduling bounds throughput; oracle, partitioner, migration idle",
        partitions: 1,
        clients: 64,
        load: Load::Closed,
        sub_runs: 3,
        sim_ms: 1_500,
        warmup_ms: 500,
    },
    Spec {
        id: Id::TpccCrash,
        name: "tpcc_crash",
        why: "TPC-C aligned, paced at 6000/s under crash-restart waves and lossy links: failover, catch-up and the ARQ transport do the work",
        partitions: 4,
        clients: 64,
        load: Load::Paced { rate: 6_000 },
        sub_runs: 2,
        sim_ms: 20_000,
        warmup_ms: 1_000,
    },
];

/// Seeds everything that describes the deployment rather than the traffic:
/// the social graph, the initial placement and the fault schedule. These
/// are part of a workload's definition, like the dataset of a database
/// benchmark, and do not change with `--seed`; the seed drives the
/// simulation (network delays, client start-up) and through it every
/// command the generators draw. Varying the deployment too made the
/// simulated metrics swing by 10–35 % between seeds (one placement in ten
/// halves the stall, one fault schedule in ten spares every leader), which
/// no regression bound survives.
const DEPLOYMENT_SEED: u64 = 1;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// TPC-C scale shared by both TPC-C workloads: one warehouse per partition.
pub const TPCC_SCALE: TpccScale =
    TpccScale { warehouses: 4, customers_per_district: 30, items: 200 };

/// Chirper social-graph size and attachment degree shared by the three
/// Chirper workloads.
pub const CHIRPER_USERS: usize = 1_000;
const CHIRPER_FOLLOWS: usize = 6;

/// The deployment each workload runs on. Fields not named keep the
/// program's defaults: unbatched ordering, serial execution, one oracle
/// shard, single-shipment migration.
fn cluster_config(spec: &Spec, seed: u64) -> ClusterConfig {
    let base = ClusterConfig {
        partitions: spec.partitions,
        replicas: 3,
        mode: Mode::Dynastar,
        seed,
        warm_client_caches: true,
        compute_base: SimDuration::from_millis(100),
        exec: ExecConfig::serial(SimDuration::from_micros(150)),
        ..ClusterConfig::default()
    };
    match spec.id {
        Id::TpccRepartition => ClusterConfig {
            repartition_threshold: 3_000,
            min_plan_interval: SimDuration::from_secs(3),
            ..base
        },
        Id::ChirperMix => ClusterConfig {
            repartition_threshold: 2_000,
            min_plan_interval: SimDuration::from_secs(4),
            // fig9's staged policy: 8 KiB per variable over a 1 MiB/s
            // migration link, four variables per acknowledged chunk.
            server: ServerConfig {
                staged_migration: true,
                migration_chunk_vars: 4,
                migration_var_bytes: 8 * 1024,
                migration_link_bytes_per_sec: 1024 * 1024,
                migration_chunk_timeout: SimDuration::from_millis(100),
                migration_max_retries: 6,
                migration_max_inflight_per_link: 4,
                ..ServerConfig::default()
            },
            client_retry_backoff: SimDuration::from_millis(2),
            ..base
        },
        Id::OracleCold => ClusterConfig {
            // fig8's permanent flash crowd: no client ever caches a
            // location, and each oracle leader orders one query at a time.
            oracle_shards: 4,
            client_location_cache: false,
            warm_client_caches: false,
            oracle_batch: Some(BatchConfig { max_batch: 1, max_batch_delay_ticks: 0, window: 1 }),
            repartition_threshold: 4_000,
            min_plan_interval: SimDuration::from_secs(2),
            ..base
        },
        Id::ExecHot => ClusterConfig {
            // fig10's cell: execution, not ordering, is the bottleneck.
            repartition_threshold: u64::MAX,
            exec: ExecConfig::pool(8, SimDuration::from_millis(1)),
            batch: BatchConfig { max_batch: 32, max_batch_delay_ticks: 0, window: 0 },
            ..base
        },
        Id::TpccCrash => ClusterConfig { repartition_threshold: u64::MAX, ..base },
    }
}

/// The TPC-C warehouse a key belongs to (warehouse keys sit above 2^40).
fn tpcc_home(key: LocKey) -> u32 {
    if key.0 >= (1 << 40) {
        (key.0 - (1 << 40)) as u32
    } else {
        (key.0 / u64::from(schema::DISTRICTS_PER_WAREHOUSE)) as u32
    }
}

/// What a workload is made of before any cluster exists: where every key
/// starts, the initial state, and one command generator per client. The
/// runs deploy it with [`cluster`]; the isolated layer drives feed the
/// same placement, state and command stream to one core at a time.
pub struct Inputs<V, G> {
    /// Initial `key → partition` placement.
    pub placement: Vec<(LocKey, PartitionId)>,
    /// Initial variables.
    pub vars: Vec<(VarId, V)>,
    /// One generator per client, in client order.
    pub generators: Vec<G>,
}

/// A TPC-C workload's inputs: random placement for `tpcc_repartition`,
/// warehouse-aligned otherwise; clients spread evenly over the warehouses.
pub fn tpcc_inputs(spec: &Spec) -> Inputs<Arc<TpccValue>, TpccWorkload> {
    let keys = tpcc::keys(&TPCC_SCALE);
    let placement = if spec.id == Id::TpccRepartition {
        let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED ^ 0xBEEF);
        placement::random(keys, spec.partitions, &mut rng).into_iter().collect()
    } else {
        keys.into_iter().map(|k| (k, PartitionId(tpcc_home(k) % spec.partitions))).collect()
    };
    let tracker = tpcc::order_tracker();
    let per_warehouse = spec.clients / TPCC_SCALE.warehouses;
    let generators = (0..spec.clients)
        .map(|c| TpccWorkload::new(TPCC_SCALE, c / per_warehouse, Arc::clone(&tracker)))
        .collect();
    Inputs { placement, vars: tpcc::rows(&TPCC_SCALE), generators }
}

/// A Chirper workload's inputs: a Barabási–Albert follow graph, users
/// placed round-robin for `exec_hot` and at random otherwise, and one
/// generator per client over the shared graph.
pub fn chirper_inputs(spec: &Spec) -> Inputs<Arc<ChirperUser>, ChirperWorkload> {
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED ^ 0x5AFE);
    let graph = SocialGraph::barabasi_albert(CHIRPER_USERS, CHIRPER_FOLLOWS, &mut rng);
    let users = 0..graph.users() as u64;
    let keys = users.clone().map(Chirper::key);
    let placement = if spec.id == Id::ExecHot {
        placement::round_robin(keys, spec.partitions)
    } else {
        placement::random(keys, spec.partitions, &mut rng)
    };
    let vars = users
        .map(|u| {
            let user = ChirperUser {
                timeline: Default::default(),
                follows: graph.follows_of(u).to_vec(),
                followers: graph.followers_of(u).to_vec(),
            };
            (Chirper::var(u), Arc::new(user))
        })
        .collect();
    let (theta, mix) = if spec.id == Id::ExecHot {
        (0.90, ChirperMix { timeline: 90, post: 10, follow: 0, unfollow: 0 })
    } else {
        (0.95, ChirperMix::MIX)
    };
    let graph = Arc::new(Mutex::new(graph));
    let generators =
        (0..spec.clients).map(|_| ChirperWorkload::new(Arc::clone(&graph), theta, mix)).collect();
    Inputs { placement: placement.into_iter().collect(), vars, generators }
}

/// Deploys a workload: replicas built and preloaded, faults scheduled, no
/// clients yet. Generic in the application so the traced run can swap in
/// [`crate::traced::Traced`].
pub fn cluster<A: Application>(
    spec: &Spec,
    seed: u64,
    placement: &[(LocKey, PartitionId)],
    vars: Vec<(VarId, A::Value)>,
) -> Cluster<A> {
    let mut b = ClusterBuilder::<A>::new(cluster_config(spec, seed));
    for &(k, p) in placement {
        b.place(k, p);
    }
    b.with_vars(vars);
    let mut cluster = b.build();
    if spec.id == Id::TpccCrash {
        // Two synchronised crash-restart waves (one replica of every group,
        // down 2 s) plus lossy-link windows, all repaired 5 s before the
        // run ends so it converges.
        let nemesis = churn_nemesis(
            DEPLOYMENT_SEED ^ 0xC0FFEE,
            SimTime::from_secs(5),
            SimTime::from_millis(spec.sim_ms - 5_000),
            2,
        );
        NemesisPlan::generate(&nemesis, cluster.groups()).apply(&mut cluster.sim);
    }
    cluster
}
