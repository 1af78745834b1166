//! Result files — what one invocation writes with `--detail`, what the
//! suite assembles from them — and the comparison of two suites.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics;
use crate::report::Metric;

/// What one invocation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// All output checks passed.
    pub correct: bool,
    /// Commands issued.
    pub attempted: u64,
    /// Commands that failed or never completed.
    pub failed: u64,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The object the contract wants as the last line of standard output:
    /// exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        self.to_json(false).render()
    }

    /// As JSON; `detail` adds each metric's per-repetition samples.
    pub fn to_json(&self, detail: bool) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(metrics::def(&m.name).map_or("", |d| d.unit).to_owned())),
            ];
            if detail && !m.samples.is_empty() {
                fields.push((
                    "samples",
                    Json::Arr(m.samples.iter().map(|&s| Json::Num(s)).collect()),
                ));
            }
            (m.name.clone(), Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Reads back what [`Outcome::to_json`] wrote (metrics come back in
    /// name order).
    pub fn from_json(doc: &Json) -> Result<Outcome, String> {
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing `{k}`"));
        let whole =
            |k: &str| field(k)?.num().map(|n| n as u64).ok_or(format!("`{k}` not a number"));
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.members().ok_or("`metrics` not an object")? {
            let value = m.get("value").and_then(Json::num).ok_or(format!("{name}: no value"))?;
            let samples = m
                .get("samples")
                .and_then(Json::arr)
                .map(|a| a.iter().filter_map(Json::num).collect())
                .unwrap_or_default();
            metrics.push(Metric { name: name.clone(), value, samples });
        }
        Ok(Outcome {
            correct: matches!(field("correct")?, Json::Bool(true)),
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }
}

/// A whole suite: per workload, the untraced and the traced outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Suite {
    /// The `--seed` every invocation ran at.
    pub seed: u64,
    /// Workload name → `(end-to-end outcome, per-layer outcome)`.
    pub workloads: BTreeMap<String, (Outcome, Outcome)>,
}

impl Suite {
    /// The result file's content (pretty enough to diff: one workload
    /// section per line pair).
    pub fn render(&self) -> String {
        let mut out = format!("{{\"schema\": 1, \"seed\": {}, \"workloads\": {{\n", self.seed);
        for (i, (name, (e2e, layers))) in self.workloads.iter().enumerate() {
            let body =
                Json::obj([("end_to_end", e2e.to_json(true)), ("per_layer", layers.to_json(true))]);
            let comma = if i + 1 < self.workloads.len() { "," } else { "" };
            out.push_str(&format!(
                "{}: {}{comma}\n",
                Json::Str(name.clone()).render(),
                body.render()
            ));
        }
        out.push_str("}}\n");
        out
    }

    /// Reads a result file.
    pub fn parse(text: &str) -> Result<Suite, String> {
        let doc = Json::parse(text)?;
        let seed = doc.get("seed").and_then(Json::num).ok_or("missing `seed`")? as u64;
        let mut workloads = BTreeMap::new();
        let members = doc.get("workloads").and_then(Json::members).ok_or("missing `workloads`")?;
        for (name, w) in members {
            let part = |k: &str| {
                Outcome::from_json(w.get(k).ok_or(format!("{name}: missing `{k}`"))?)
                    .map_err(|e| format!("{name}.{k}: {e}"))
            };
            workloads.insert(name.clone(), (part("end_to_end")?, part("per_layer")?));
        }
        Ok(Suite { seed, workloads })
    }
}

/// How one (metric × workload) cell compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The repetitions behind A or B spread wider than the bound, so the
    /// two cannot be told apart at this bound.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Value in A.
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// By what share of A's value B is worse (negative = better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// `(max − min) / |median|` of the repetitions behind a value.
fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (lo, hi) = samples.iter().fold((f64::MAX, f64::MIN), |a, &s| (a.0.min(s), a.1.max(s)));
    let median = crate::stats::median(samples);
    if median == 0.0 {
        0.0
    } else {
        (hi - lo) / median.abs()
    }
}

/// Compares every end-to-end metric of every workload present in both.
pub fn compare(a: &Suite, b: &Suite) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, (ea, _)) in &a.workloads {
        let Some((eb, _)) = b.workloads.get(workload) else { continue };
        for def in &metrics::END_TO_END {
            let find = |o: &Outcome| o.metrics.iter().find(|m| m.name == def.name).cloned();
            let (Some(ma), Some(mb)) = (find(ea), find(eb)) else { continue };
            let change = if ma.value == 0.0 { 0.0 } else { (mb.value - ma.value) / ma.value.abs() };
            let worse_by = if def.lower_is_better { change } else { -change };
            let noise = spread(&ma.samples).max(spread(&mb.samples));
            let verdict = if noise > def.bound {
                Verdict::Unresolved
            } else if worse_by > def.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: ma.value,
                b: mb.value,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(wall: f64, samples: &[f64]) -> Outcome {
        Outcome {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: vec![
                Metric { name: "cmds_per_sim_s".into(), value: 6540.363636363636, samples: vec![] },
                Metric { name: "wall_us_per_cmd".into(), value: wall, samples: samples.to_vec() },
            ],
        }
    }

    fn suite(wall: f64, samples: &[f64]) -> Suite {
        let layers = Outcome {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: vec![Metric { name: "oracle.plans".into(), value: 3.0, samples: vec![] }],
        };
        let mut s = Suite { seed: 7, workloads: BTreeMap::new() };
        s.workloads.insert("tpcc_repartition".into(), (outcome(wall, samples), layers));
        s
    }

    #[test]
    fn result_file_round_trips() {
        let s = suite(79.4, &[78.9, 79.4, 83.0]);
        let text = s.render();
        assert_eq!(Suite::parse(&text).unwrap(), s);
        // The contract line carries no samples and exactly four keys.
        let line = s.workloads["tpcc_repartition"].0.contract_line();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(
            doc.members().unwrap().keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert!(!line.contains("samples"));
        assert!(
            line.contains("\"wall_us_per_cmd\": {\"unit\": \"us\", \"value\": 79.4}"),
            "{line}"
        );
    }

    /// The workloads separate the layers as designed — read off the
    /// committed baseline, so a re-recorded baseline that loses the
    /// separation fails here.
    #[test]
    fn committed_baseline_separates_the_layers() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
        let text = std::fs::read_to_string(path).expect("benchmark/baseline.json");
        let suite = Suite::parse(&text).expect("baseline parses");
        let value = |workload: &str, metric: &str| {
            let (e2e, layers) = &suite.workloads[workload];
            let found = e2e.metrics.iter().chain(&layers.metrics).find(|m| m.name == metric);
            found.unwrap_or_else(|| panic!("{workload} has no {metric}")).value
        };
        let names: Vec<&str> = crate::config::WORKLOADS.iter().map(|s| s.name).collect();
        for w in &names {
            let (e2e, layers) = &suite.workloads[*w];
            assert!(e2e.correct && layers.correct, "{w}: an output check failed");
            assert_eq!((e2e.failed, layers.failed), (0, 0), "{w}: commands failed");
            assert_eq!(e2e.metrics.len(), metrics::END_TO_END.len(), "{w}");
            assert_eq!(layers.metrics.len(), metrics::PER_LAYER.len(), "{w}");
        }
        // The paper's headline: the plan more than doubles throughput.
        assert!(
            value("tpcc_repartition", "phase.post_plan.cmds_per_sim_s")
                >= 2.0 * value("tpcc_repartition", "phase.pre_plan.cmds_per_sim_s")
        );
        // Only oracle_cold lives on the oracle's query path; exec_hot never sees it.
        assert!(value("oracle_cold", "client.oracle_query_share") >= 0.95);
        assert_eq!(value("exec_hot", "oracle.queries_per_sim_s"), 0.0);
        // The paced loop sees the migration stall the closed loop hides.
        assert!(
            value("chirper_mix", "lat_p99_sim_ms") >= 20.0 * value("chirper_mix", "lat_p50_sim_ms")
        );
        assert!(value("tpcc_crash", "recovery.completions") > 0.0);
        assert!(value("tpcc_crash", "max_stall_sim_ms") >= 200.0);
        for w in &names {
            // Parallel execution only where there is a pool, staged
            // migration only where it is switched on, faults only where
            // they are injected.
            let only_on = |metric: &str, home: &str, floor: f64| {
                if *w == home {
                    assert!(value(w, metric) > floor, "{w} {metric}");
                } else {
                    assert_eq!(value(w, metric), 0.0, "{w} {metric}");
                }
            };
            only_on("exec.parallel_share", "exec_hot", 0.5);
            only_on("migration.keys_staged", "chirper_mix", 0.0);
            only_on("net.stream_resets", "tpcc_crash", 0.0);
        }
    }

    #[test]
    fn compare_tells_ok_worse_and_unresolved_apart() {
        let base = suite(80.0, &[79.0, 80.0, 81.0]);
        let verdict = |b: &Suite, metric: &str| {
            compare(&base, b).into_iter().find(|r| r.metric == metric).unwrap()
        };
        // Half the bound worse: within it. Twice the bound worse: beyond it.
        let bound = metrics::END_TO_END.iter().find(|d| d.name == "wall_us_per_cmd").unwrap().bound;
        let at = |worse_by: f64| {
            let v = 80.0 * (1.0 + worse_by);
            suite(v, &[v - 1.0, v, v + 1.0])
        };
        assert_eq!(verdict(&at(bound / 2.0), "wall_us_per_cmd").verdict, Verdict::Ok);
        let worse = verdict(&at(2.0 * bound), "wall_us_per_cmd");
        assert_eq!(worse.verdict, Verdict::Worse);
        assert!((worse.worse_by - 2.0 * bound).abs() < 1e-12);
        // Better is never worse.
        assert_eq!(verdict(&at(-0.5), "wall_us_per_cmd").verdict, Verdict::Ok);
        // Repetitions spread wider than the bound: no call.
        let noisy = verdict(&suite(100.0, &[80.0, 100.0, 130.0]), "wall_us_per_cmd");
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        // Higher-is-better metrics flip the sign; identical values are ok.
        let same = verdict(&suite(80.0, &[80.0]), "cmds_per_sim_s");
        assert_eq!((same.verdict, same.worse_by), (Verdict::Ok, 0.0));
    }
}
