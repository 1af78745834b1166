//! Whole-stack benchmark for the DynaStar reproduction. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--detail FILE]
//! benchmark [--seed N] [--seconds S] [--out FILE]      every workload, both ways
//! benchmark layers --workload NAME [--seed N]          the isolated drives only
//! benchmark compare A.json B.json
//! ```

mod config;
mod json;
mod layers;
mod metrics;
mod recorder;
mod report;
mod result;
mod run;
mod stats;
mod traced;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use config::Spec;
use report::Metric;
use result::{Outcome, Suite, Verdict};
use run::{Mode, Rep};

/// Counts heap traffic of the whole process, as `probe_perf` does: the
/// counts repeat (nearly) exactly between runs of one build, which wall
/// time on a shared machine does not.
struct CountingAlloc;

pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the two counters are plain
// statistics and guard no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// How long one invocation measures unless told otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Set-ups timed per invocation, at least: set-up takes milliseconds, so
/// it is repeated until its median is steady.
const SETUP_SAMPLES: usize = 51;

/// Where traces, per-invocation details and the suite's result file go,
/// relative to the repository root (`run.sh` starts the binary there).
const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    detail: Option<String>,
    out: Option<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { seed: 1, seconds: RUN_SECONDS as f64, ..Args::default() };
    let mut it = args;
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            parsed.positional.push(arg);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = |what: &str| format!("{arg} {value}: expected {what}");
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("0 to 600"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--detail" => parsed.detail = Some(value),
            "--out" => parsed.out = Some(value),
            _ => return Err(format!("unknown option {arg}")),
        }
    }
    Ok(parsed)
}

fn spec_named(name: Option<&str>) -> Result<&'static Spec, String> {
    let names: Vec<&str> = config::WORKLOADS.iter().map(|s| s.name).collect();
    let name =
        name.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    config::spec(name)
        .ok_or_else(|| format!("unknown workload {name} (one of {})", names.join(", ")))
}

/// The program seed of sub-run `i` of an invocation at `seed`.
fn program_seed(spec: &Spec, seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(u64::from(spec.sub_runs)).wrapping_add(i as u64)
}

/// Whether another repetition of about `mean_rep_s` is worth starting
/// `elapsed_s` into a budget of `seconds`: only if half of it still fits.
fn budget_left(elapsed_s: f64, mean_rep_s: f64, seconds: f64) -> bool {
    elapsed_s + mean_rep_s / 2.0 < seconds
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let unit = metrics::def(&m.name).map_or("", |d| d.unit);
        println!("  {:<36} {:>16.6} {unit}", m.name, m.value);
    }
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn measure_end_to_end(spec: &Spec, args: &Args) -> Outcome {
    let began = Instant::now();
    let k = spec.sub_runs as usize;
    // The first run of each program seed is kept whole; a repeat is only
    // checked against it and adds a wall-time and a set-up sample.
    let mut sub_runs: Vec<Rep> = Vec::new();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut violations = Vec::new();
    loop {
        let i = walls.len();
        let rep = run::rep(spec, program_seed(spec, args.seed, i % k), Mode::Plain);
        violations.extend(rep.violations.iter().map(|v| format!("rep {i}: {v}")));
        walls.push(rep.wall_s * 1e6 / rep.completed(spec) as f64);
        setups.push(rep.setup_s);
        if i < k {
            sub_runs.push(rep);
        } else if !rep.same_schedule(&sub_runs[i % k]) {
            violations.push(format!(
                "rep {i} did not reproduce rep {}: same seed, other schedule",
                i % k
            ));
        }
        let elapsed = began.elapsed().as_secs_f64();
        if walls.len() >= k && !budget_left(elapsed, elapsed / walls.len() as f64, args.seconds) {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(run::rep(spec, args.seed, Mode::SetupOnly).setup_s);
    }
    let metrics = report::end_to_end(spec, &sub_runs, &walls, &setups);
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        violations.push(format!("{} has no value (too few samples?)", m.name));
    }
    println!("{}: {}", spec.name, spec.why);
    println!("seed {} untraced: {} repetitions over {k} program seeds", args.seed, walls.len());
    for v in &violations {
        println!("  CHECK FAILED: {v}");
    }
    Outcome {
        correct: violations.is_empty(),
        attempted: sub_runs.iter().map(|r| r.log.len() as u64).sum(),
        failed: sub_runs.iter().map(|r| r.failed()).sum(),
        metrics,
    }
}

/// `--trace 1`: the per-layer metrics of one workload — a traced run, the
/// isolated drives, and untraced runs of the same program seed to check
/// the traced one against and to size the tracing overhead.
fn measure_per_layer(spec: &Spec, args: &Args) -> Outcome {
    let began = Instant::now();
    let seed = program_seed(spec, args.seed, 0);
    let traced = run::rep(spec, seed, Mode::Traced);
    let mut violations: Vec<String> =
        traced.violations.iter().map(|v| format!("traced: {v}")).collect();
    let drives = layers::drives(spec, args.seed);
    let mut walls = Vec::new();
    loop {
        let rep = run::rep(spec, seed, Mode::Plain);
        if !rep.same_schedule(&traced) {
            violations.push("the traced run did not reproduce the untraced schedule".into());
        }
        walls.push(rep.wall_s);
        let elapsed = began.elapsed().as_secs_f64();
        if !budget_left(elapsed, stats::median(&walls), args.seconds) {
            break;
        }
    }
    let metrics = report::per_layer(spec, &traced, stats::median(&walls), &drives);
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        violations.push(format!("{} has no value", m.name));
    }
    let path = format!("{OUT_DIR}/trace_{}.jsonl", spec.name);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, report::trace_lines(&traced)));
    if let Err(e) = written {
        violations.push(format!("cannot write {path}: {e}"));
    }
    println!("{}: {}", spec.name, spec.why);
    println!(
        "seed {} traced: program seed {seed}, {} untraced repetitions, spans in {path}",
        args.seed,
        walls.len()
    );
    for v in &violations {
        println!("  CHECK FAILED: {v}");
    }
    Outcome {
        correct: violations.is_empty(),
        attempted: traced.log.len() as u64,
        failed: traced.failed(),
        metrics,
    }
}

/// One workload, one way: prints every metric, then the contract's line.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let spec = spec_named(args.workload.as_deref())?;
    let outcome =
        if args.trace { measure_per_layer(spec, args) } else { measure_end_to_end(spec, args) };
    if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        // No spelling in JSON, and nothing a reader could use: no result.
        return Err("a metric has no finite value; see CHECK FAILED above".into());
    }
    print_metrics(&outcome.metrics);
    if let Some(path) = &args.detail {
        std::fs::write(path, outcome.to_json(true).render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload as its own sequential child process, untraced then
/// traced; writes the result file and fails if any check did.
fn cmd_suite(args: &Args) -> Result<ExitCode, String> {
    let began = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let mut suite = Suite { seed: args.seed, ..Suite::default() };
    let mut sound = true;
    for spec in &config::WORKLOADS {
        let mut both = Vec::new();
        for trace in ["0", "1"] {
            let detail = format!("{OUT_DIR}/{}.trace{trace}.json", spec.name);
            let status = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace, "--detail", &detail])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} --trace {trace} exited with {status}", spec.name));
            }
            let text = std::fs::read_to_string(&detail).map_err(|e| format!("{detail}: {e}"))?;
            let outcome = Outcome::from_json(&json::Json::parse(&text)?)?;
            sound &= outcome.correct && outcome.failed == 0;
            both.push(outcome);
        }
        let layers = both.pop().expect("two outcomes per workload");
        let e2e = both.pop().expect("two outcomes per workload");
        suite.workloads.insert(spec.name.to_owned(), (e2e, layers));
    }
    let out = args.out.clone().unwrap_or_else(|| format!("{OUT_DIR}/result.json"));
    std::fs::write(&out, suite.render()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} after {:.0} s", began.elapsed().as_secs_f64());
    if !sound {
        return Err("an output check failed or a command did; see CHECK FAILED above".into());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_layers(args: &Args) -> Result<ExitCode, String> {
    let spec = spec_named(args.workload.as_deref())?;
    let drives = layers::drives(spec, args.seed);
    let metrics: Vec<Metric> = drives
        .iter()
        .map(|&(name, value)| Metric { name: name.to_owned(), value, samples: Vec::new() })
        .collect();
    println!("{} seed {} isolated drives", spec.name, args.seed);
    print_metrics(&metrics);
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Suite::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = result::compare(&read(a)?, &read(b)?);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} cells: {} ok, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Worse) == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        match (args.positional.first().map(String::as_str), &args.workload) {
            (Some("compare"), _) => cmd_compare(&args),
            (Some("layers"), _) => cmd_layers(&args),
            (Some(other), _) => Err(format!("unknown command {other}")),
            (None, Some(_)) => cmd_run(&args),
            (None, None) => cmd_suite(&args),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_line_parses_the_contract_form() {
        let line = "--workload exec_hot --seed 7 --seconds 10 --trace 1";
        let args = parse_args(line.split(' ').map(String::from)).unwrap();
        assert_eq!(args.workload.as_deref(), Some("exec_hot"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse_args(["--trace".into(), "2".into()].into_iter()).is_err());
        assert!(parse_args(["--seed".into()].into_iter()).is_err());
        assert!(parse_args(["--frobnicate".into(), "1".into()].into_iter()).is_err());
        assert!(spec_named(Some("nope")).is_err());
    }

    #[test]
    fn another_repetition_starts_only_if_half_of_it_fits() {
        assert!(budget_left(9.0, 5.0, 15.0));
        assert!(!budget_left(13.0, 5.0, 15.0));
        assert!(!budget_left(16.0, 5.0, 15.0));
    }

    #[test]
    fn program_seeds_do_not_collide_between_neighbouring_seeds() {
        let spec = &config::WORKLOADS[0];
        let mut seen: Vec<u64> = (1..=10)
            .flat_map(|s| (0..spec.sub_runs as usize).map(move |i| program_seed(spec, s, i)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10 * spec.sub_runs as usize);
    }
}
