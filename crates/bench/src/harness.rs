//! The one experiment harness: declared command-line arguments, the
//! machine-readable result [`Record`], and the regression gate every
//! `--check-against` goes through.
//!
//! A record is one JSON object, one row per line:
//!
//! ```text
//! {
//!   "bench": "fig10_parallel_execution",
//!   "key": ["workers", "theta"],
//!   "rows": [
//!     {"workers": 1, "theta": 0.90, "sim_secs": 3, "cmds_per_sim_sec": 999.7},
//!     {"workers": 8, "theta": 0.90, "sim_secs": 3, "cmds_per_sim_sec": 6570.3}
//!   ]
//! }
//! ```
//!
//! `key` names the fields that identify a row (its configuration); the
//! gate compares a run's row with the baseline row whose key fields are
//! equal. There is no revision field: a committed record's revision is the
//! commit that contains it.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// One declared command-line option.
#[derive(Debug, Clone, Copy)]
pub enum Opt {
    /// `--name`: a boolean switch (name, help).
    Switch(&'static str, &'static str),
    /// `--name VALUE`: a flag taking a value (name, placeholder, help).
    Value(&'static str, &'static str, &'static str),
    /// A heading line in the usage text.
    Section(&'static str),
}

/// `--out FILE`, handled by [`Record::write_out`].
pub const OUT: Opt = Opt::Value("out", "FILE", "write the machine-readable record");
/// `--check-against FILE`, handled by [`Record::gate`].
pub const CHECK_AGAINST: Opt = Opt::Value(
    "check-against",
    "FILE",
    "exit 1 if the gated metric is >30% worse than the same-key row of FILE",
);

/// A program's declared command line: what [`Args`] accepts and what the
/// usage text lists.
#[derive(Debug)]
pub struct Spec {
    /// Program name, as printed in the usage line and stored in records.
    pub program: &'static str,
    /// Placeholders of the positional arguments, in order, as they should
    /// appear in the usage line (`"<cmd>"`, `"[seed]"`).
    pub positionals: &'static [&'static str],
    /// The flags, in usage order.
    pub opts: &'static [Opt],
}

impl Spec {
    /// The usage text: one synopsis line, then one aligned line per flag.
    pub fn usage(&self) -> String {
        let heads: Vec<String> = self
            .opts
            .iter()
            .map(|o| match o {
                Opt::Switch(name, _) => format!("--{name}"),
                Opt::Value(name, value, _) => format!("--{name} {value}"),
                Opt::Section(_) => String::new(),
            })
            .collect();
        let width = heads.iter().map(String::len).max().unwrap_or(0);
        let mut out = format!("usage: {}", self.program);
        for p in self.positionals {
            let _ = write!(out, " {p}");
        }
        out.push_str(if self.opts.is_empty() { "\n" } else { " [flags]\n" });
        for (opt, head) in self.opts.iter().zip(&heads) {
            match opt {
                Opt::Section(title) => {
                    let _ = write!(out, "\n{title}\n");
                }
                Opt::Switch(_, help) | Opt::Value(_, _, help) => {
                    let _ = writeln!(out, "  {head:width$}  {help}");
                }
            }
        }
        out
    }

    /// Whether `name` is declared, and if so whether it takes a value.
    fn takes_value(&self, name: &str) -> Option<bool> {
        self.opts.iter().find_map(|o| match o {
            Opt::Switch(n, _) if *n == name => Some(false),
            Opt::Value(n, _, _) if *n == name => Some(true),
            _ => None,
        })
    }
}

/// A command line parsed against a [`Spec`].
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    positionals: Vec<String>,
    /// Flag name → value (empty for a switch).
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process's command line; on a malformed one prints the
    /// error and the usage text to stderr and exits with status 2.
    pub fn from_env(spec: &'static Spec) -> Args {
        Args::parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| fail(spec, &e))
    }

    /// Parses a raw argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error for an undeclared flag, a value flag with no
    /// value, or more positionals than the spec declares.
    pub fn parse<I: IntoIterator<Item = String>>(
        spec: &'static Spec,
        tokens: I,
    ) -> Result<Args, String> {
        let mut out = Args { spec, positionals: Vec::new(), flags: BTreeMap::new() };
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = match spec.takes_value(name) {
                    None => return Err(format!("unknown flag --{name}")),
                    Some(false) => String::new(),
                    Some(true) => {
                        it.next().ok_or_else(|| format!("flag --{name} needs a value"))?
                    }
                };
                out.flags.insert(name.to_string(), value);
            } else if out.positionals.len() < spec.positionals.len() {
                out.positionals.push(tok);
            } else {
                return Err(format!("unexpected positional argument {tok:?}"));
            }
        }
        Ok(out)
    }

    /// Prints `msg` and the usage text to stderr and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        fail(self.spec, msg)
    }

    /// The `i`-th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether a switch or value flag was supplied.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A value flag's value (empty for a switch), if supplied.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not declare `name`: such a flag could never
    /// be supplied, so asking for it is a bug in the caller, not "absent".
    pub fn get(&self, name: &str) -> Option<&str> {
        assert!(self.spec.takes_value(name).is_some(), "flag --{name} is not declared");
        self.flags.get(name).map(String::as_str)
    }

    /// A numeric flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }
}

fn fail(spec: &Spec, msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", spec.usage());
    std::process::exit(2)
}

/// One result row: ordered `(field, JSON token)` pairs. Tokens are stored
/// exactly as written to the file (text fields keep their quotes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends an integer (or any value whose `Display` is a JSON number).
    pub fn num(mut self, name: &str, v: impl Display) -> Row {
        self.0.push((name.to_string(), v.to_string()));
        self
    }

    /// Appends a float rendered with `decimals` fractional digits.
    pub fn float(mut self, name: &str, v: f64, decimals: usize) -> Row {
        self.0.push((name.to_string(), format!("{v:.decimals$}")));
        self
    }

    /// Appends a text field.
    ///
    /// # Panics
    ///
    /// Panics on a quote, backslash or control character: the record
    /// format has no escapes, and every text field is an identifier the
    /// binaries choose themselves.
    pub fn text(mut self, name: &str, v: &str) -> Row {
        assert!(
            !v.contains(['"', '\\']) && !v.chars().any(char::is_control),
            "text field {name}={v:?} needs escaping"
        );
        self.0.push((name.to_string(), format!("\"{v}\"")));
        self
    }

    /// The raw token of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// `name` as a number, if present and numeric.
    pub fn f64(&self, name: &str) -> Option<f64> {
        self.get(name)?.parse().ok()
    }

    /// Parses one `{"name": token, ...}` line.
    fn parse(line: &str) -> Option<Row> {
        let body = line.trim_end_matches(',').strip_prefix('{')?.strip_suffix('}')?;
        let mut fields = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let (name, after) = rest.strip_prefix('"')?.split_once('"')?;
            let after = after.trim_start().strip_prefix(':')?.trim_start();
            let end = match after.strip_prefix('"') {
                Some(text) => text.find('"')? + 2,
                None => after.find(',').unwrap_or(after.len()),
            };
            let (token, tail) = after.split_at(end);
            fields.push((name.to_string(), token.trim().to_string()));
            let tail = tail.trim_start();
            rest = tail.strip_prefix(',').unwrap_or(tail).trim_start();
        }
        Some(Row(fields))
    }
}

/// The outcome of gating one row against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within 30% of the baseline.
    Ok,
    /// More than 30% worse than the baseline.
    Failed,
    /// The baseline has no row with this key.
    Skipped,
}

/// One binary's machine-readable result.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The binary that produced it.
    pub bench: String,
    /// The fields that identify a row.
    pub key: Vec<String>,
    /// One row per measured configuration.
    pub rows: Vec<Row>,
}

impl Record {
    /// An empty record for `bench` whose rows are identified by `key`.
    pub fn new(bench: &str, key: &[&str]) -> Record {
        Record {
            bench: bench.to_string(),
            key: key.iter().map(|k| k.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Renders the record (the one writer).
    pub fn to_json(&self) -> String {
        let key: Vec<String> = self.key.iter().map(|k| format!("\"{k}\"")).collect();
        let mut out = format!("{{\n  \"bench\": \"{}\",\n", self.bench);
        let _ = writeln!(out, "  \"key\": [{}],\n  \"rows\": [", key.join(", "));
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = row.0.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {{{}}}{comma}", fields.join(", "));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a record written by [`Record::to_json`] (the one reader;
    /// line-oriented, not a general JSON parser).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first malformed line, or a missing
    /// `bench` / `key` header.
    pub fn from_json(json: &str) -> Result<Record, String> {
        let (mut bench, mut key, mut rows) = (None, None, Vec::new());
        for (n, line) in json.lines().enumerate() {
            let line = line.trim();
            let bad = || format!("line {}: malformed record line {line:?}", n + 1);
            if let Some(v) = line.strip_prefix("\"bench\":") {
                bench = Some(v.trim().trim_end_matches(',').trim_matches('"').to_string());
            } else if let Some(v) = line.strip_prefix("\"key\":") {
                let list = v.trim().trim_end_matches(',');
                let inner = list.strip_prefix('[').and_then(|l| l.strip_suffix(']'));
                let inner = inner.ok_or_else(bad)?;
                key = Some(
                    inner
                        .split(',')
                        .map(|k| k.trim().trim_matches('"').to_string())
                        .filter(|k| !k.is_empty())
                        .collect(),
                );
            } else if line.starts_with("{\"") {
                rows.push(Row::parse(line).ok_or_else(bad)?);
            }
        }
        Ok(Record {
            bench: bench.ok_or("record has no \"bench\" line")?,
            key: key.ok_or("record has no \"key\" line")?,
            rows,
        })
    }

    /// Reads and parses the record at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse error, prefixed with the path.
    pub fn load(path: &str) -> Result<Record, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Record::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }

    /// The row whose fields equal every `(name, value)` pair in `key`.
    pub fn find(&self, key: &[(&str, &str)]) -> Option<&Row> {
        self.rows
            .iter()
            .find(|row| key.iter().all(|(n, v)| row.get(n).is_some_and(|t| token_eq(t, v))))
    }

    /// The one regression gate: every row of `self` that carries `metric`
    /// is compared with the `baseline` row of the same key and fails when
    /// it is more than 30% worse (below 70% of the baseline when higher is
    /// better, above 130% otherwise). Prints one line per row.
    pub fn check_against(
        &self,
        baseline: &Record,
        metric: &str,
        higher_is_better: bool,
    ) -> Vec<Verdict> {
        let mut verdicts = Vec::new();
        for row in &self.rows {
            let Some(now) = row.f64(metric) else { continue };
            let key: Vec<(&str, &str)> =
                self.key.iter().filter_map(|k| Some((k.as_str(), row.get(k)?))).collect();
            let label: Vec<String> = key.iter().map(|(n, v)| format!("{n}={v}")).collect();
            let label = label.join(" ");
            let Some(base) = baseline.find(&key).and_then(|b| b.f64(metric)) else {
                println!("{} gate {label}: no baseline row, skipped", self.bench);
                verdicts.push(Verdict::Skipped);
                continue;
            };
            let (bound, limit) =
                if higher_is_better { ("floor", base * 0.70) } else { ("ceiling", base * 1.30) };
            let ok = if higher_is_better { now >= limit } else { now <= limit };
            println!(
                "{} gate {label}: current {now} {metric} vs baseline {base} ({bound} {limit:.1}) {}",
                self.bench,
                if ok { "ok" } else { "FAILED" }
            );
            verdicts.push(if ok { Verdict::Ok } else { Verdict::Failed });
        }
        verdicts
    }

    /// Handles `--out FILE`: writes the record there.
    pub fn write_out(&self, args: &Args) {
        if let Some(path) = args.get("out") {
            std::fs::write(path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
    }

    /// Handles `--check-against FILE`: exits 1 if [`Record::check_against`]
    /// fails any row, 2 if the baseline cannot be read.
    pub fn gate(&self, args: &Args, metric: &str, higher_is_better: bool) {
        let Some(path) = args.get("check-against") else { return };
        let baseline = Record::load(path).unwrap_or_else(|e| {
            eprintln!("error: baseline {e}");
            std::process::exit(2)
        });
        if self.check_against(&baseline, metric, higher_is_better).contains(&Verdict::Failed) {
            eprintln!("{} gate FAILED: {metric} more than 30% worse than {path}", self.bench);
            std::process::exit(1);
        }
        println!("{} gate passed", self.bench);
    }
}

/// Token equality for key matching: the same text (quoted or not), or the
/// same number (`0.9` matches `0.90`).
fn token_eq(a: &str, b: &str) -> bool {
    a.trim_matches('"') == b.trim_matches('"')
        || matches!((a.parse::<f64>(), b.parse::<f64>()), (Ok(x), Ok(y)) if x == y)
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: Spec = Spec {
        program: "dynastar",
        positionals: &["<chirper|tpcc>"],
        opts: &[
            Opt::Section("common flags:"),
            Opt::Value("partitions", "<k>", "number of partitions [4]"),
            Opt::Value("mode", "<m>", "replication scheme"),
            Opt::Value("seed", "<n>", "master seed [1]"),
            Opt::Switch("smoke", "short run"),
        ],
    };

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(&SPEC, tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = parse(&["chirper", "--partitions", "4", "--mode", "ssmr"]).unwrap();
        assert_eq!(a.positional(0), Some("chirper"));
        assert_eq!(a.num_or("partitions", 1u32).unwrap(), 4);
        assert_eq!(a.get("mode"), Some("ssmr"));
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        assert!(a.has("mode"));
        assert!(!a.has("seed"));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(parse(&["tpcc", "--partitions"]).is_err());
    }

    #[test]
    fn rejects_extra_positional() {
        assert!(parse(&["tpcc", "extra"]).is_err());
    }

    #[test]
    fn reports_bad_numbers() {
        let a = parse(&["tpcc", "--partitions", "many"]).unwrap();
        assert!(a.num_or("partitions", 1u32).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["--smoke", "tpcc"]).unwrap();
        assert!(a.has("smoke"));
        assert_eq!(a.positional(0), Some("tpcc"), "a switch must not swallow the next token");
        assert!(!parse(&["tpcc"]).unwrap().has("smoke"));
    }

    #[test]
    fn rejects_unknown_flag() {
        assert_eq!(parse(&["tpcc", "--bogus", "1"]).unwrap_err(), "unknown flag --bogus");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn asking_for_an_undeclared_flag_is_a_bug() {
        parse(&["tpcc"]).unwrap().has("bogus");
    }

    #[test]
    fn usage_is_generated_from_the_declaration() {
        assert_eq!(
            SPEC.usage(),
            "usage: dynastar <chirper|tpcc> [flags]\n\
             \n\
             common flags:\n\
             \x20 --partitions <k>  number of partitions [4]\n\
             \x20 --mode <m>        replication scheme\n\
             \x20 --seed <n>        master seed [1]\n\
             \x20 --smoke           short run\n"
        );
    }

    fn sample() -> Record {
        let mut rec = Record::new("fig10_parallel_execution", &["workers", "theta"]);
        for (workers, cps) in [(1u32, 1000.0), (8, 6500.0)] {
            rec.rows.push(
                Row::new()
                    .num("workers", workers)
                    .float("theta", 0.9, 2)
                    .text("note", "a, b (c)")
                    .float("cmds_per_sim_sec", cps, 1),
            );
        }
        rec
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample();
        let json = rec.to_json();
        assert_eq!(json.lines().filter(|l| l.trim_start().starts_with("{\"")).count(), 2);
        assert_eq!(Record::from_json(&json).unwrap(), rec);
        let empty = Record::new("probe", &[]);
        assert_eq!(Record::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn reader_rejects_malformed_input() {
        assert!(Record::from_json("{\n  \"rows\": [\n  ]\n}\n").is_err(), "no bench line");
        let broken = sample().to_json().replace("\"theta\": 0.90", "\"theta\" 0.90");
        assert!(Record::from_json(&broken).unwrap_err().contains("line 5"));
    }

    #[test]
    fn find_matches_numbers_by_value() {
        let rec = sample();
        let row = rec.find(&[("workers", "8"), ("theta", "0.9")]).unwrap();
        assert_eq!(row.f64("cmds_per_sim_sec"), Some(6500.0));
        assert!(rec.find(&[("workers", "2")]).is_none());
    }

    /// A current run of one `(workers, theta = 0.9)` cell at `cps`.
    fn run_with(workers: u32, cps: f64) -> Record {
        let mut rec = Record::new("fig10_parallel_execution", &["workers", "theta"]);
        let cell = Row::new().num("workers", workers).float("theta", 0.9, 2);
        rec.rows.push(cell.float("cmds_per_sim_sec", cps, 1));
        rec
    }

    #[test]
    fn gate_verdicts() {
        let base = sample();
        let gate = |run: Record, higher| run.check_against(&base, "cmds_per_sim_sec", higher);
        // Higher is better: 25% below passes, 40% below fails, any gain passes.
        assert_eq!(gate(run_with(8, 6500.0 * 0.75), true), [Verdict::Ok]);
        assert_eq!(gate(run_with(8, 6500.0 * 0.60), true), [Verdict::Failed]);
        assert_eq!(gate(run_with(8, 6500.0 * 2.0), true), [Verdict::Ok]);
        // A configuration the baseline never ran is skipped, not failed.
        assert_eq!(gate(run_with(4, 1.0), true), [Verdict::Skipped]);
        // Lower is better: the same numbers flip.
        assert_eq!(gate(run_with(8, 6500.0 * 0.60), false), [Verdict::Ok]);
        assert_eq!(gate(run_with(8, 6500.0 * 1.25), false), [Verdict::Ok]);
        assert_eq!(gate(run_with(8, 6500.0 * 1.40), false), [Verdict::Failed]);
        // Rows without the metric are not gated at all.
        assert_eq!(run_with(8, 1.0).check_against(&base, "absent", true), []);
    }
}
