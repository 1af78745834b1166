//! One repetition of one workload: build, run, drain, check, and read the
//! program's own counters — all through public functions.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use dynastar_core::metric_names as mn;
use dynastar_core::{Application, Cluster, Workload};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::Chirper;
use dynastar_workloads::tpcc::Tpcc;

use crate::config::{self, Load, Spec, DRAIN_SECS};
use crate::recorder::{shared_log, Kinded, Paced, Record, Recorder, ReplyCheck, KINDS, PENDING};
use crate::stats;
use crate::traced::{Retag, Traced, CLASSIFY, EXECUTE};
use crate::{ALLOCS, ALLOC_BYTES};

/// Simulated length of the steps the run advances by; after each the
/// oracle's plan counter is read, which dates every plan to within a step.
pub const STEP: SimDuration = SimDuration::from_millis(100);

/// Everything one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds from entry to the start of the measured run.
    pub setup_s: f64,
    /// Wall seconds of the measured run (`[0, T)` simulated).
    pub wall_s: f64,
    /// Heap allocations during the measured run.
    pub allocs: u64,
    /// Bytes allocated during the measured run.
    pub alloc_bytes: u64,
    /// Simulator events processed in the measured run.
    pub events: u64,
    /// Those events as `[deliveries, timers, control]`.
    pub events_by_kind: [u64; 3],
    /// Every command issued, with completions up to the end of the drain.
    pub log: Vec<Record>,
    /// The program's counters at the end of the measured run.
    pub counters: BTreeMap<String, u64>,
    /// `(mean µs, count)` of the program's histograms at the same point.
    pub histograms: BTreeMap<String, (f64, u64)>,
    /// Totals of the program's time series at the same point.
    pub series: BTreeMap<String, f64>,
    /// Simulated µs (end of the step) at which each plan was published.
    pub plan_times: Vec<u64>,
    /// `(calls, ns)` inside `Application::execute` per command class
    /// (traced runs).
    pub execute: Vec<(u64, u64)>,
    /// `(calls, ns)` inside `Application::classify` per command class
    /// (traced runs).
    pub classify: Vec<(u64, u64)>,
    /// Output checks that failed (empty = all passed).
    pub violations: Vec<String>,
}

impl Rep {
    /// Commands whose reply arrived inside the measured run.
    pub fn completed(&self, spec: &Spec) -> u64 {
        let end = spec.sim_ms * 1_000;
        self.log.iter().filter(|r| r.complete < end).count() as u64
    }

    /// Commands that failed: answered without a usable reply, or still
    /// unanswered when the drain ended.
    pub fn failed(&self) -> u64 {
        self.log.iter().filter(|r| r.complete == PENDING || !r.ok).count() as u64
    }

    /// A counter of the program, zero when it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Commands answered with a usable reply at a simulated µs in
    /// `[from, to)`.
    pub fn answered(&self, from: u64, to: u64) -> impl Iterator<Item = &Record> + Clone {
        self.log.iter().filter(move |r| r.ok && r.complete >= from && r.complete < to)
    }

    /// Whether `other` ran the same schedule: events processed, every
    /// command's times, every counter of the program. Repetitions of one
    /// program seed must — determinism is the cheapest correctness oracle
    /// the repository has. The generator's wall-clock span is left out: it
    /// is all a traced run differs in.
    pub fn same_schedule(&self, other: &Rep) -> bool {
        let timeless = |r: &Record| Record { gen_ns: 0, ..*r };
        self.events == other.events
            && self.counters == other.counters
            && self.log.iter().map(timeless).eq(other.log.iter().map(timeless))
    }
}

/// What [`rep`] should do after building the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run untraced.
    Plain,
    /// Run with the timing wrappers around the application and generators.
    Traced,
    /// Stop once set-up is done: only `setup_s` of the result is filled.
    SetupOnly,
}

/// One repetition of `spec` with the program seeded by `seed`.
pub fn rep(spec: &Spec, seed: u64, mode: Mode) -> Rep {
    let traced = mode == Mode::Traced;
    let entered = Instant::now();
    if spec.id.is_tpcc() {
        let inp = config::tpcc_inputs(spec);
        if traced {
            let cluster = config::cluster::<Traced<Tpcc>>(spec, seed, &inp.placement, inp.vars);
            drive(spec, cluster, inp.generators, Retag::new, mode, entered)
        } else {
            let cluster = config::cluster::<Tpcc>(spec, seed, &inp.placement, inp.vars);
            drive(spec, cluster, inp.generators, |g| g, mode, entered)
        }
    } else {
        let inp = config::chirper_inputs(spec);
        if traced {
            let cluster = config::cluster::<Traced<Chirper>>(spec, seed, &inp.placement, inp.vars);
            drive(spec, cluster, inp.generators, Retag::new, mode, entered)
        } else {
            let cluster = config::cluster::<Chirper>(spec, seed, &inp.placement, inp.vars);
            drive(spec, cluster, inp.generators, |g| g, mode, entered)
        }
    }
}

fn drive<A, G, W>(
    spec: &Spec,
    mut cluster: Cluster<A>,
    generators: Vec<G>,
    adapt: impl Fn(G) -> W,
    mode: Mode,
    entered: Instant,
) -> Rep
where
    A: Application,
    A::Op: Kinded,
    A::Reply: ReplyCheck,
    W: Workload<A>,
{
    // Room for four times the offered load of a paced run or ~20k
    // commands per simulated second of a closed one, so the log never
    // grows (allocates) inside the measured run.
    let log = shared_log(spec.sim_ms as usize * 25);
    for (i, g) in generators.into_iter().enumerate() {
        let pace = match spec.load {
            Load::Closed => None,
            Load::Paced { rate } => Some(Paced::new(i as u32, spec.clients, rate)),
        };
        let timed = mode == Mode::Traced;
        cluster.add_client(Recorder::new(adapt(g), i as u32, log.clone(), pace, timed));
    }
    EXECUTE.reset();
    CLASSIFY.reset();
    let setup_s = entered.elapsed().as_secs_f64();
    if mode == Mode::SetupOnly {
        return Rep { setup_s, ..Rep::default() };
    }

    let end = SimTime::from_millis(spec.sim_ms);
    let mut plan_times = Vec::new();
    let (allocs0, bytes0) = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let started = Instant::now();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + STEP).min(end);
        cluster.run_until(t);
        let plans = cluster.metrics().counter(mn::PLANS_PUBLISHED) as usize;
        plan_times.resize(plans, t.as_micros());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    let alloc_bytes = ALLOC_BYTES.load(Relaxed) - bytes0;

    let events = cluster.sim.events_processed();
    let events_by_kind = cluster.sim.events_by_kind();
    let m = cluster.metrics();
    let counters = m.counters().map(|(k, v)| (k.to_owned(), v)).collect();
    let mut histograms = BTreeMap::new();
    let mut hist_names = vec![mn::BATCH_SIZE.to_owned(), mn::PLAN_COMPUTE_TIME.to_owned()];
    hist_names.extend((0..cluster.config.exec.workers).map(mn::exec_worker_busy));
    for name in hist_names {
        if let Some(h) = m.histogram(&name) {
            let mean = h.mean().as_micros() as f64;
            histograms.insert(name, (mean, h.count()));
        }
    }
    let mut series = BTreeMap::new();
    let mut series_names = vec![mn::PLAN_MOVES.to_owned(), mn::PLAN_EDGE_CUT.to_owned()];
    series_names.extend((0..spec.partitions).map(mn::partition_executed));
    for name in series_names {
        if let Some(s) = m.series(&name) {
            series.insert(name, s.total());
        }
    }

    // Drain: generators stop, in-flight commands get time to finish.
    log.borrow_mut().stopped = true;
    cluster.run_for(SimDuration::from_secs(DRAIN_SECS));
    let violations = check_views(&cluster);
    let log = std::mem::take(&mut log.borrow_mut().records);

    Rep {
        setup_s,
        wall_s,
        allocs,
        alloc_bytes,
        events,
        events_by_kind,
        log,
        counters,
        histograms,
        series,
        plan_times,
        execute: (0..KINDS.len()).map(|k| EXECUTE.of(k)).collect(),
        classify: (0..KINDS.len()).map(|k| CLASSIFY.of(k)).collect(),
        violations,
    }
}

/// The location-map checks: replicas of a group agree, and the partitions'
/// keys are exactly the oracle's map.
fn check_views<A: Application>(cluster: &Cluster<A>) -> Vec<String> {
    let mut violations = Vec::new();
    let k = cluster.config.partitions as usize;
    let views = cluster.location_views();
    let mut partition_union = Vec::new();
    let mut oracle_union = Vec::new();
    for (g, group) in views.iter().enumerate() {
        let Some(first) = group[0].as_ref() else {
            violations.push(format!("group {g}: replica 0 still recovering after the drain"));
            continue;
        };
        for (r, view) in group.iter().enumerate().skip(1) {
            if view.as_ref() != Some(first) {
                violations.push(format!("group {g}: replica {r} disagrees with replica 0"));
            }
        }
        if g < k {
            partition_union.extend(first.iter().copied());
        } else {
            oracle_union.extend(first.iter().copied());
        }
    }
    partition_union.sort_unstable();
    oracle_union.sort_unstable();
    if partition_union != oracle_union {
        violations.push(format!(
            "partitions own {} keys, the oracle maps {}: the two views differ",
            partition_union.len(),
            oracle_union.len()
        ));
    }
    violations
}

/// The window the simulated metrics cover, in simulated µs.
pub fn window(spec: &Spec) -> (u64, u64) {
    (spec.warmup_ms * 1_000, spec.sim_ms * 1_000)
}

/// The simulated end-to-end metrics of one repetition, in reporting order.
pub fn simulated(spec: &Spec, rep: &Rep) -> Vec<(&'static str, f64)> {
    let (from, to) = window(spec);
    let mut latencies: Vec<u64> = rep.answered(from, to).filter_map(Record::latency).collect();
    latencies.sort_unstable();
    let mut completions: Vec<u64> = rep.answered(from, to).map(|r| r.complete).collect();
    completions.sort_unstable();
    let ms = |us: Option<u64>| us.map_or(f64::NAN, |us| us as f64 / 1_000.0);
    vec![
        ("cmds_per_sim_s", completions.len() as f64 * 1e6 / (to - from) as f64),
        ("lat_p50_sim_ms", ms(stats::percentile(&latencies, 50.0))),
        ("lat_p99_sim_ms", ms(stats::p99(&latencies))),
        ("max_stall_sim_ms", stats::max_stall(&completions, from, to) as f64 / 1_000.0),
    ]
}

/// Per-class p50 latency (ms) over the window, `0` for classes the
/// workload never issues; and the p99 lateness of the generator.
pub fn by_class(spec: &Spec, rep: &Rep) -> (Vec<(String, f64)>, f64) {
    let (from, to) = window(spec);
    let mut out = Vec::new();
    for (k, name) in KINDS.iter().enumerate().take(KINDS.len() - 1) {
        let mut lat: Vec<u64> = rep
            .answered(from, to)
            .filter(|r| r.kind as usize == k)
            .filter_map(Record::latency)
            .collect();
        lat.sort_unstable();
        let p50 = stats::percentile(&lat, 50.0).map_or(0.0, |us| us as f64 / 1_000.0);
        out.push((format!("lat.op.{name}.p50_sim_ms"), p50));
    }
    let mut late: Vec<u64> = rep.answered(from, to).map(|r| r.submit - r.due).collect();
    late.sort_unstable();
    let late_p99 = stats::p99(&late).map_or(0.0, |us| us as f64 / 1_000.0);
    (out, late_p99)
}
