//! Cluster construction shared by the experiment binaries.

use std::sync::{Arc, Mutex};

use dynastar_core::{Cluster, ClusterBuilder, ClusterConfig, ExecConfig, Mode, PartitionId};
use dynastar_runtime::SimDuration;
use dynastar_workloads::chirper::{Chirper, ChirperUser};
use dynastar_workloads::placement;
use dynastar_workloads::socialgraph::SocialGraph;
use dynastar_workloads::tpcc::{self, schema, Tpcc, TpccScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How benchmark state is initially placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uniformly random (DynaStar's t=0 in Figures 2 and 6).
    Random,
    /// Warehouse-aligned (TPC-C's natural static placement; what S-SMR\*
    /// uses for Figure 3).
    Aligned,
    /// Partitioner-optimized from the co-access graph (S-SMR\* for the
    /// social network).
    Optimized,
}

/// Parses a `--mode` flag value.
///
/// # Errors
///
/// Returns an error naming the accepted values for anything else.
pub fn parse_mode(s: &str) -> Result<Mode, String> {
    match s {
        "dynastar" => Ok(Mode::Dynastar),
        "ssmr" => Ok(Mode::SSmr),
        "dssmr" => Ok(Mode::DsSmr),
        other => Err(format!("unknown mode {other:?} (dynastar|ssmr|dssmr)")),
    }
}

/// The presets every experiment shares: warm client caches, a 100 ms
/// plan-compute base, a serial 150 µs executor, repartitioning at most
/// every 40 s and only in DynaStar mode.
fn preset(partitions: u32, mode: Mode, repartition_threshold: u64) -> ClusterConfig {
    ClusterConfig {
        partitions,
        mode,
        repartition_threshold: if mode == Mode::Dynastar {
            repartition_threshold
        } else {
            u64::MAX
        },
        min_plan_interval: SimDuration::from_secs(40),
        warm_client_caches: true,
        compute_base: SimDuration::from_millis(100),
        exec: ExecConfig::serial(SimDuration::from_micros(150)),
        ..ClusterConfig::default()
    }
}

/// Parameters for a TPC-C deployment.
#[derive(Debug, Clone)]
pub struct TpccSetup {
    /// The cluster itself: partitions, mode, seed, batching, execution
    /// pool, repartitioning policy. `cluster.seed` also seeds the random
    /// placement.
    pub cluster: ClusterConfig,
    /// Scale (warehouses, customers, items).
    pub scale: TpccScale,
    /// Initial placement of districts/warehouses.
    pub placement: Placement,
}

impl TpccSetup {
    /// A default setup: `partitions` partitions, one warehouse each.
    pub fn new(partitions: u32, mode: Mode) -> Self {
        TpccSetup {
            cluster: preset(partitions, mode, 3_000),
            scale: TpccScale { warehouses: partitions, customers_per_district: 30, items: 200 },
            placement: Placement::Aligned,
        }
    }
}

/// Builds a TPC-C cluster per `setup` (state preloaded, no clients yet).
pub fn tpcc_cluster(setup: &TpccSetup) -> Cluster<Tpcc> {
    let partitions = setup.cluster.partitions;
    let keys = tpcc::keys(&setup.scale);
    let map: Vec<(dynastar_core::LocKey, PartitionId)> = match setup.placement {
        Placement::Random => {
            let mut rng = StdRng::seed_from_u64(setup.cluster.seed ^ 0xBEEF);
            placement::random(keys, partitions, &mut rng).into_iter().collect()
        }
        Placement::Aligned | Placement::Optimized => keys
            .into_iter()
            .map(|k| {
                let w = if k.0 >= (1 << 40) {
                    (k.0 - (1 << 40)) as u32
                } else {
                    (k.0 / schema::DISTRICTS_PER_WAREHOUSE as u64) as u32
                };
                (k, PartitionId(w % partitions))
            })
            .collect(),
    };
    let mut b = ClusterBuilder::new(setup.cluster.clone());
    for (k, p) in map {
        b.place(k, p);
    }
    b.with_vars(tpcc::rows(&setup.scale));
    b.build()
}

/// Parameters for a Chirper deployment.
#[derive(Debug, Clone)]
pub struct ChirperSetup {
    /// The cluster itself: partitions, mode, seed, batching, execution
    /// pool, oracle sharding, client caching, migration policy.
    /// `cluster.seed` also seeds the social graph and the placement.
    pub cluster: ClusterConfig,
    /// Number of users in the synthetic social graph.
    pub users: usize,
    /// Follows per user in the Barabási–Albert generator.
    pub follows_per_user: usize,
    /// Initial placement of users.
    pub placement: Placement,
}

impl ChirperSetup {
    /// A default setup scaled for simulation speed (the Higgs dataset's
    /// qualitative shape at 1/100 size; see DESIGN.md).
    pub fn new(partitions: u32, mode: Mode) -> Self {
        ChirperSetup {
            cluster: preset(partitions, mode, 4_000),
            users: 2_000,
            follows_per_user: 6,
            placement: if mode == Mode::Dynastar {
                Placement::Random
            } else {
                Placement::Optimized
            },
        }
    }
}

/// Builds a Chirper cluster and its shared social graph (state preloaded,
/// no clients yet). The returned graph handle feeds the workload
/// generators so declared variable sets stay coherent.
pub fn chirper_cluster(setup: &ChirperSetup) -> (Cluster<Chirper>, Arc<Mutex<SocialGraph>>) {
    let (partitions, seed) = (setup.cluster.partitions, setup.cluster.seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    let graph = SocialGraph::barabasi_albert(setup.users, setup.follows_per_user, &mut rng);
    let keys = (0..graph.users() as u64).map(Chirper::key);
    let map: Vec<(dynastar_core::LocKey, PartitionId)> = match setup.placement {
        Placement::Random => placement::random(keys, partitions, &mut rng).into_iter().collect(),
        Placement::Aligned => placement::round_robin(keys, partitions).into_iter().collect(),
        Placement::Optimized => placement::optimized(
            keys,
            graph.coaccess_edges().map(|(a, b)| (Chirper::key(a), Chirper::key(b), 1)),
            partitions,
            seed,
        )
        .into_iter()
        .collect(),
    };
    let mut b = ClusterBuilder::new(setup.cluster.clone());
    for (k, p) in map {
        b.place(k, p);
    }
    b.with_vars((0..graph.users() as u64).map(|u| {
        let user = ChirperUser {
            timeline: Default::default(),
            follows: graph.follows_of(u).to_vec(),
            followers: graph.followers_of(u).to_vec(),
        };
        (Chirper::var(u), std::sync::Arc::new(user))
    }));
    (b.build(), Arc::new(Mutex::new(graph)))
}

/// Runs every job in `inputs` through `run` on a pool of scoped worker
/// threads, returning results **in input order**.
///
/// Each simulation is single-threaded and deterministic from its seed, so a
/// sweep over seeds or configurations is embarrassingly parallel: the
/// figure binaries spend minutes running points sequentially that fan out
/// across cores with identical output. Workers claim jobs from a shared
/// atomic cursor (no per-thread chunking, so one slow point — e.g. the
/// 8-partition row next to the 1-partition row — does not idle the rest of
/// the pool), and results land in a slot table indexed by input position,
/// keeping output order independent of scheduling.
///
/// `threads` caps the pool; `0` means one per available core. The pool
/// never exceeds the number of jobs. A panic inside `run` is contained
/// to its own job: the rest of the sweep still completes, and
/// `run_parallel` then reports every failed job — index and panic
/// message — in a single error on the calling thread, instead of an
/// opaque worker-thread panic tearing down the pool mid-sweep.
pub fn run_parallel<C, R, F>(inputs: Vec<C>, threads: usize, run: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n = inputs.len();
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let pool = if threads == 0 { cores } else { threads }.min(n).max(1);

    // Jobs move into slots the workers drain; results fill a parallel
    // slot table so position i of the output is input i's result. A
    // slot holds Err(panic message) when its job blew up.
    let jobs: Vec<Mutex<Option<C>>> = inputs.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let results: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..pool {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A poisoned slot only means some thread panicked while
                // holding the lock; the payload underneath is still
                // intact, so recover it rather than cascading the panic.
                let Some(job) = jobs[i].lock().unwrap_or_else(|p| p.into_inner()).take() else {
                    // The atomic cursor hands out each index once, so the
                    // slot can't already be drained — but an empty slot is
                    // a job to skip, not a reason to kill the pool.
                    continue;
                };
                let out = catch_unwind(AssertUnwindSafe(|| run(job)))
                    .map_err(|payload| panic_message(&*payload));
                *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for (i, slot) in results.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(Ok(r)) => out.push(r),
            Some(Err(msg)) => failures.push(format!("  job {i}: {msg}")),
            None => failures.push(format!("  job {i}: no result (worker never stored one)")),
        }
    }
    if !failures.is_empty() {
        panic!("run_parallel: {} of {n} job(s) failed:\n{}", failures.len(), failures.join("\n"));
    }
    out
}

/// Best-effort extraction of a panic payload's message; `panic!` with a
/// string literal or a formatted message covers essentially every panic
/// the sweep jobs can raise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcc_setup_builds() {
        let mut setup = TpccSetup::new(2, Mode::Dynastar);
        setup.scale = TpccScale { warehouses: 2, customers_per_district: 5, items: 20 };
        let cluster = tpcc_cluster(&setup);
        assert_eq!(cluster.config.partitions, 2);
    }

    #[test]
    fn run_parallel_preserves_input_order() {
        let inputs: Vec<u64> = (0..37).collect();
        let out = run_parallel(inputs.clone(), 4, |x| x * x);
        assert_eq!(out, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_reports_failed_jobs_instead_of_worker_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Job 3 panics; the other jobs must still complete, and the
        // error reported on the calling thread must name the failed job
        // and carry its panic message.
        let completed = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_parallel((0..8u64).collect(), 4, |x| {
                if x == 3 {
                    panic!("point {x} diverged");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }))
        .expect_err("a failed job must surface as an error");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("aggregated failure report is a formatted string");
        assert!(msg.contains("1 of 8 job(s) failed"), "unexpected report: {msg}");
        assert!(msg.contains("job 3: point 3 diverged"), "unexpected report: {msg}");
        assert_eq!(completed.load(Ordering::Relaxed), 7, "healthy jobs must all finish");
    }

    #[test]
    fn run_parallel_handles_more_threads_than_jobs() {
        assert_eq!(run_parallel(vec![7u32], 16, |x| x + 1), vec![8]);
        assert_eq!(run_parallel(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
    }

    #[test]
    fn run_parallel_zero_threads_uses_all_cores() {
        let out = run_parallel((0..8u32).collect(), 0, |x| x);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_matches_sequential_simulation() {
        // The property the figure binaries rely on: a simulation run on a
        // worker thread produces bit-identical results to one run inline.
        let run_point = |seed: u64| {
            let mut setup = TpccSetup::new(1, Mode::Dynastar);
            setup.scale = TpccScale { warehouses: 1, customers_per_district: 5, items: 20 };
            setup.cluster.seed = seed;
            let mut cluster = tpcc_cluster(&setup);
            let tracker = tpcc::order_tracker();
            cluster.add_client(dynastar_workloads::tpcc::TpccWorkload::new(
                setup.scale,
                0,
                Arc::clone(&tracker),
            ));
            cluster.run_for(SimDuration::from_millis(500));
            cluster.sim.events_processed()
        };
        let seeds = vec![1u64, 2, 3];
        let sequential: Vec<u64> = seeds.iter().map(|&s| run_point(s)).collect();
        let parallel = run_parallel(seeds, 3, run_point);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn chirper_setup_builds_both_placements() {
        for mode in [Mode::Dynastar, Mode::SSmr] {
            let mut setup = ChirperSetup::new(2, mode);
            setup.users = 100;
            let (cluster, graph) = chirper_cluster(&setup);
            assert_eq!(cluster.config.partitions, 2);
            assert_eq!(graph.lock().unwrap().users(), 100);
        }
    }
}
