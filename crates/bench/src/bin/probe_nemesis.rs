//! Diagnostic probe for the crash-recovery nemesis (not a paper
//! experiment): runs a seeded randomized fault schedule — crashes,
//! restarts, disconnects, reconnects, at most one faulty replica per
//! group at a time — against a Dynastar cluster and reports the fault,
//! recovery and transport counters. The schedule and the run are fully
//! deterministic: `probe_nemesis [cluster_seed] [nemesis_seed]` prints
//! identical output on every invocation with the same seeds.
use std::sync::{Arc, Mutex};

use dynastar_bench::harness::{Args, Spec};
use dynastar_core::metric_names as mn;
use dynastar_core::{ClusterBuilder, ClusterConfig, LocKey, Mode, PartitionId, VarId};
use dynastar_runtime::nemesis::{FaultKind, NemesisConfig, NemesisPlan};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::counters::{Counters, UniformLoad};

static SPEC: Spec = Spec {
    program: "probe_nemesis",
    positionals: &["[cluster_seed]", "[nemesis_seed]"],
    opts: &[],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let seed = |i: usize| match args.positional(i) {
        None => 7,
        Some(s) => s.parse().unwrap_or_else(|_| args.fail(&format!("seed {s:?} is not a u64"))),
    };
    let (cluster_seed, nemesis_seed) = (seed(0), seed(1));

    let config = ClusterConfig {
        partitions: 2,
        replicas: 3,
        mode: Mode::Dynastar,
        seed: cluster_seed,
        repartition_threshold: u64::MAX,
        // Modelled per-command CPU keeps traffic in flight while the
        // fault schedule runs, so faults land on a busy cluster.
        exec: dynastar_core::ExecConfig::serial(SimDuration::from_millis(200)),
        warm_client_caches: true,
        client_timeout: SimDuration::from_secs(3),
        ..ClusterConfig::default()
    };
    let mut b = ClusterBuilder::<Counters>::new(config);
    for v in 0..20u64 {
        b.place(LocKey(v), PartitionId((v % 2) as u32));
        b.with_var(VarId(v), 0);
    }
    let mut cluster = b.build();
    let completed = Arc::new(Mutex::new(0));
    for _ in 0..4 {
        cluster.add_client(UniformLoad {
            vars: 20,
            remaining: 60,
            multi_pct: 30,
            completed: Arc::clone(&completed),
        });
    }

    let cfg = NemesisConfig {
        seed: nemesis_seed,
        start: SimTime::from_secs(2),
        end: SimTime::from_secs(45),
        mean_interval: SimDuration::from_secs(6),
        min_downtime: SimDuration::from_millis(400),
        max_downtime: SimDuration::from_secs(3),
        grace: SimDuration::from_secs(3),
        crash_pct: 50,
        ..NemesisConfig::default()
    };
    let plan = NemesisPlan::generate(&cfg, cluster.groups());
    println!(
        "nemesis schedule: seed={} faults={} ({} crash/restart, {} disconnect/reconnect)",
        nemesis_seed,
        plan.events.len(),
        plan.crash_count(),
        plan.disconnect_count(),
    );
    for e in &plan.events {
        let kind = match e.kind {
            FaultKind::Crash => "crash     ",
            FaultKind::Disconnect => "disconnect",
        };
        println!(
            "  {:>7.3}s {} node {:?} (repair at {:>7.3}s)",
            e.at.as_micros() as f64 / 1e6,
            kind,
            e.node,
            e.repair_at.as_micros() as f64 / 1e6,
        );
    }
    plan.apply(&mut cluster.sim);
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_CRASHES, plan.crash_count());
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_RESTARTS, plan.crash_count());
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_DISCONNECTS, plan.disconnect_count());
    cluster.sim.metrics_mut().incr_counter(mn::FAULT_RECONNECTS, plan.disconnect_count());

    for slice in 0..10 {
        cluster.run_for(SimDuration::from_secs(10));
        let m = cluster.metrics();
        println!(
            "t={:>3}s done={:>3} retries={} timeouts={} recoveries={} elections={} retx={} resets={} abandoned={} jumps={}",
            (slice + 1) * 10,
            *completed.lock().unwrap(),
            m.counter(mn::CMD_RETRY),
            m.counter(mn::CMD_TIMEOUT),
            m.counter(mn::RECOVERY_COMPLETIONS),
            m.counter(mn::LEADER_ELECTIONS),
            m.counter(mn::NET_RETRANSMISSIONS),
            m.counter(mn::NET_STREAM_RESETS),
            m.counter(mn::NET_FRAMES_ABANDONED),
            m.counter(mn::NET_JUMPS),
        );
    }

    let m = cluster.metrics();
    println!("\nfault/recovery report");
    println!(
        "  faults injected:    {} crashes, {} disconnects",
        m.counter(mn::FAULT_CRASHES),
        m.counter(mn::FAULT_DISCONNECTS)
    );
    println!(
        "  repairs scheduled:  {} restarts, {} reconnects",
        m.counter(mn::FAULT_RESTARTS),
        m.counter(mn::FAULT_RECONNECTS)
    );
    println!(
        "  recoveries:         {} completed from {} donated snapshots ({} member + {} core elements)",
        m.counter(mn::RECOVERY_COMPLETIONS),
        m.counter(mn::RECOVERY_SNAPSHOTS),
        m.counter(mn::RECOVERY_SNAPSHOT_ELEMENTS) - m.counter(mn::RECOVERY_SNAPSHOT_CORE_ELEMENTS),
        m.counter(mn::RECOVERY_SNAPSHOT_CORE_ELEMENTS)
    );
    println!("  leader elections:   {}", m.counter(mn::LEADER_ELECTIONS));
    println!("  obsolete commands:  {}", m.counter(mn::SERVER_OBSOLETE_CMDS));
    println!(
        "  transport:          {} retransmissions, {} stream resets, {} frames abandoned, {} jumps",
        m.counter(mn::NET_RETRANSMISSIONS),
        m.counter(mn::NET_STREAM_RESETS),
        m.counter(mn::NET_FRAMES_ABANDONED),
        m.counter(mn::NET_JUMPS)
    );
    println!("  commands completed: {}", *completed.lock().unwrap());
}
