//! The rule engine: per-file token rules plus suppression bookkeeping.
//!
//! Every rule except wire totality (T) looks at one file's tokens and
//! nothing else, scoped by one config key ([`Config::role`]): D over
//! `sim`, P over `protocol`, X over `scheduler_scope`. A file is
//! analysed in three stages:
//!
//! 1. **Test spans** ([`crate::parser::test_spans`]). Items under
//!    `#[test]` / `#[cfg(test)]` are excluded wholesale — test-only
//!    nondeterminism cannot perturb a replica, and test assertions
//!    legitimately panic.
//! 2. **Raw findings** ([`raw_findings`]). At most one finding per
//!    token and family.
//! 3. **Finalize** ([`finalize`]). The whole-workspace scan merges the
//!    file's T findings in first; then `// detlint::allow(RULE): why`
//!    directives are parsed (malformed ones become S001/S003 findings),
//!    applied (line directives cover their own line when trailing, else
//!    the next code line; `allow-file` covers the whole file), and
//!    audited — every directive must justify itself *and* be used, or
//!    it is itself a finding (S001/S002).
//!
//! [`analyze`] composes the stages for one file on its own — what
//! `--paths` / `--changed-only` and the fixtures run. It reports exactly
//! what the whole-workspace scan reports for that file, except that it
//! cannot run T and so leaves T directives unjudged.

use crate::config::{Config, FileRole};
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::parser::{self, ident_at, is_punct, Span};
use crate::{rules, sched};

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    pub hint: &'static str,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed findings, in line order (includes S findings).
    pub findings: Vec<Finding>,
    /// How many findings valid directives suppressed.
    pub suppressed: usize,
    /// How many well-formed directives the file carries.
    pub directives: usize,
}

/// One parsed, well-formed suppression directive.
#[derive(Debug)]
struct Directive {
    line: u32,
    /// Rules this directive may suppress.
    ids: Vec<&'static str>,
    /// Whole-file scope (`detlint::allow-file`).
    file_scope: bool,
    /// Line findings must be on for line-scoped directives.
    target_line: u32,
    /// Per-id usage, parallel to `ids`.
    used: Vec<bool>,
}

/// Analyzes one file's source on its own. `path` is workspace-relative
/// with `/` separators; it selects the rule families via `config` and
/// prefixes every finding.
pub fn analyze(path: &str, src: &str, config: &Config) -> FileReport {
    let lexed = lex(src);
    let test_spans = parser::test_spans(&lexed.tokens);
    let raw = raw_findings(path, &lexed, config.role(path), config, &test_spans);
    finalize(path, &lexed, &test_spans, raw, false)
}

/// Stage 2: the per-file token rules (D/P/X), unsuppressed.
pub(crate) fn raw_findings(
    path: &str,
    lexed: &Lexed,
    role: FileRole,
    config: &Config,
    test_spans: &[Span],
) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let decode_spans = if role.protocol { decode_fn_spans(tokens, config) } else { Vec::new() };
    let mut raw = Vec::new();
    // The `use` item `i` may be inside: the index of its `;`, and
    // whether it names `std`.
    let mut use_end = 0;
    let mut use_std = false;
    for i in 0..tokens.len() {
        if ident_at(tokens, i) == Some("use") {
            use_end = (i..tokens.len()).find(|&j| is_punct(tokens, j, ";")).unwrap_or(i);
            use_std = (i..use_end).any(|j| ident_at(tokens, j) == Some("std"));
        }
        let line = tokens[i].line;
        if test_spans.iter().any(|s| s.contains(line)) {
            continue;
        }
        let in_use = (i < use_end).then_some(use_std);
        let in_decode = || decode_spans.iter().any(|s| s.contains(line));
        let hits = [
            role.sim.then(|| determinism(tokens, i, in_use)).flatten(),
            role.protocol.then(|| protocol(tokens, i, in_decode)).flatten(),
            role.sched.then(|| sched::finding(tokens, i)).flatten(),
        ];
        for (rule, message) in hits.into_iter().flatten() {
            push(&mut raw, path, line, rule, message);
        }
    }
    raw
}

/// Stage 3: suppression resolution over the merged finding set. Only a
/// scan that ran T (`judge_t`) may call a T directive unused.
pub(crate) fn finalize(
    path: &str,
    lexed: &Lexed,
    test_spans: &[Span],
    mut raw: Vec<Finding>,
    judge_t: bool,
) -> FileReport {
    let in_test = |line: u32| test_spans.iter().any(|s| s.contains(line));
    // Two path prefixes can both flag e.g. `std::env::var` (once as
    // `std::env`, once as `env::var`): collapse to one per (rule, line).
    raw.sort_by_key(|f: &Finding| (f.line, f.rule));
    raw.dedup_by_key(|f| (f.line, f.rule));

    let mut report = FileReport::default();
    let mut directives = parse_directives(path, lexed, &in_test, &mut report.findings);
    report.directives = directives.len();

    // Apply suppressions: prefer a precise line directive, fall back to
    // file scope.
    for f in raw {
        let mut hit = false;
        for d in directives.iter_mut() {
            let scope_ok = d.file_scope || d.target_line == f.line || d.line == f.line;
            if !scope_ok {
                continue;
            }
            if let Some(i) = d.ids.iter().position(|id| *id == f.rule) {
                d.used[i] = true;
                hit = true;
                break;
            }
        }
        if hit {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }

    // Unused directives are findings themselves.
    for d in &directives {
        for (i, id) in d.ids.iter().enumerate() {
            if d.used[i] || (!judge_t && id.starts_with('T')) {
                continue;
            }
            let message = format!("directive allows {id} but suppresses nothing");
            push(&mut report.findings, path, d.line, "S002", message);
        }
    }

    report.findings.sort_by_key(|f| (f.line, f.rule));
    report
}

/// Appends a `rule` finding carrying the catalog's hint; every rule
/// family reports through this.
pub(crate) fn push(
    out: &mut Vec<Finding>,
    path: &str,
    line: u32,
    rule: &'static str,
    message: String,
) {
    let info = rules::rule(rule).expect("known rule id");
    out.push(Finding { file: path.to_string(), line, rule: info.id, message, hint: info.hint });
}

// ---------------------------------------------------------------------------
// Token rules.
// ---------------------------------------------------------------------------

/// The D finding at token `i`, if any. `in_use` is `Some(names std)`
/// while `i` is inside a `use` item. The first matching arm wins, so a
/// token is reported once.
fn determinism(tokens: &[Token], i: usize, in_use: Option<bool>) -> Option<(&'static str, String)> {
    let id = ident_at(tokens, i)?;
    let next = if is_punct(tokens, i + 1, "::") { ident_at(tokens, i + 2) } else { None };
    let call = is_punct(tokens, i + 1, "(");
    Some(match (id, next) {
        ("Instant" | "SystemTime", _) => ("D001", format!("`{id}` is wall-clock time")),
        ("thread_rng" | "OsRng" | "from_entropy" | "getrandom", _) => {
            ("D002", format!("`{id}` draws OS entropy"))
        }
        ("std", Some("env")) => ("D003", "`std::env` read".to_string()),
        ("env", Some("var" | "var_os" | "vars" | "vars_os" | "args" | "args_os")) => {
            ("D003", "`env::*` read".to_string())
        }
        ("thread", Some("sleep")) => ("D004", "`thread::sleep` blocks on wall time".to_string()),
        ("HashMap" | "HashSet", _) if !randomstate_exempt(tokens, i) => (
            "D005",
            format!("`{id}` with default `RandomState` (iteration order varies per process)"),
        ),
        ("TcpStream" | "TcpListener" | "UdpSocket", _) => {
            ("D006", format!("`{id}` is a host socket"))
        }
        ("thread", Some(m @ ("spawn" | "Builder"))) => {
            ("D006", format!("`thread::{m}` starts an OS thread"))
        }
        ("fs" | "process" | "mpsc", Some(_)) => ("D006", format!("`{id}::*` reaches the host")),
        ("unbounded" | "bounded", _) if call => ("D006", format!("`{id}()` builds a channel")),
        ("spawn", _) if call && i > 0 && is_punct(tokens, i - 1, ".") => {
            ("D006", "`.spawn()` starts a task off the simulator".to_string())
        }
        ("net" | "fs" | "process" | "thread", _) if in_use == Some(true) => {
            ("D007", format!("`std::{id}` import"))
        }
        ("mpsc" | "crossbeam", _) if in_use.is_some() => ("D007", format!("`{id}` import")),
        _ => return None,
    })
}

/// The P finding at token `i`, if any; `in_decode` says whether `i` is
/// inside a decode-marker function (P004).
fn protocol(
    tokens: &[Token],
    i: usize,
    in_decode: impl Fn() -> bool,
) -> Option<(&'static str, String)> {
    if is_punct(tokens, i, ".") && is_punct(tokens, i + 2, "(") {
        return match ident_at(tokens, i + 1)? {
            "unwrap" => Some(("P001", "`.unwrap()` can panic a replica".to_string())),
            "expect" => Some(("P002", "`.expect()` can panic a replica".to_string())),
            _ => None,
        };
    }
    if let Some(id @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ident_at(tokens, i) {
        return is_punct(tokens, i + 1, "!")
            .then(|| ("P003", format!("`{id}!` aborts the replica")));
    }
    // Index expression: `[` directly preceded by a value-ish token.
    // (`vec![…]` and `#[…]` are not index expressions: their `[`
    // follows `!` / `#`.)
    let prev_is_value = i > 0
        && match &tokens[i - 1].kind {
            TokKind::Ident(_) => true,
            TokKind::Punct(p) => p == ")" || p == "]",
            _ => false,
        };
    (is_punct(tokens, i, "[") && prev_is_value && in_decode())
        .then(|| ("P004", "indexing in a decode fn panics on short/garbled input".to_string()))
}

/// True when a `HashMap`/`HashSet` mention at `i` explicitly names a
/// hasher: a `<…>` with a third (map) / second (set) generic argument,
/// or a `with_hasher`-family constructor.
fn randomstate_exempt(tokens: &[Token], i: usize) -> bool {
    let is_set = ident_at(tokens, i) == Some("HashSet");
    // `HashMap::with_hasher(…)` / `with_capacity_and_hasher`.
    if is_punct(tokens, i + 1, "::") {
        if let Some(name) = ident_at(tokens, i + 2) {
            if name.contains("hasher") {
                return true;
            }
        }
    }
    // `HashMap<K, V, S>` / turbofish `HashMap::<K, V, S>`: count
    // top-level commas in the angle list.
    let angle_open = if is_punct(tokens, i + 1, "<") {
        i + 2
    } else if is_punct(tokens, i + 1, "::") && is_punct(tokens, i + 2, "<") {
        i + 3
    } else {
        return false;
    };
    let mut depth = 1i32;
    let mut commas = 0usize;
    let mut j = angle_open;
    let mut guard = 0usize;
    while j < tokens.len() && depth > 0 && guard < 256 {
        if let TokKind::Punct(p) = &tokens[j].kind {
            match p.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "(" | "[" => depth += 1, // tuples/arrays nest commas too
                ")" | "]" => depth -= 1,
                "," if depth == 1 => commas += 1,
                ";" => return false, // statement boundary: not a generic list
                _ => {}
            }
        }
        j += 1;
        guard += 1;
    }
    commas >= if is_set { 1 } else { 2 }
}

/// Line spans of functions whose name marks them as on-wire decoders.
fn decode_fn_spans(tokens: &[Token], config: &Config) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if ident_at(tokens, i) == Some("fn") {
            if let Some(name) = ident_at(tokens, i + 1) {
                if config.is_decode_fn(name) {
                    let start = tokens[i].line;
                    let end = parser::skip_item(tokens, i + 2);
                    let end_line =
                        tokens.get(end.saturating_sub(1)).map(|t| t.line).unwrap_or(u32::MAX);
                    spans.push(Span { start, end: end_line });
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    spans
}

// ---------------------------------------------------------------------------
// Directives.
// ---------------------------------------------------------------------------

/// Parses every `detlint::allow` directive in the file's comments.
/// Malformed directives become S001/S003 findings immediately;
/// well-formed ones are returned for the suppression pass.
fn parse_directives(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // A directive must *lead* its comment (after doc-comment `/`/`!`
        // markers), so prose that merely mentions the syntax is inert.
        let body = c.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = body.strip_prefix("detlint::allow") else { continue };
        // Directives inside test spans govern nothing (the rules skip
        // test code), so ignore them entirely rather than calling them
        // unused.
        if in_test(c.line) {
            continue;
        }
        let (file_scope, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let Some(open) = rest.find('(') else {
            push(findings, path, c.line, "S001", "directive is missing `(RULE, …)`".to_string());
            continue;
        };
        let Some(close) = rest[open..].find(')').map(|k| open + k) else {
            push(findings, path, c.line, "S001", "directive has an unclosed rule list".to_string());
            continue;
        };
        if rest[..open].trim() != "" {
            push(
                findings,
                path,
                c.line,
                "S001",
                "unexpected text before the rule list".to_string(),
            );
            continue;
        }
        let mut ids = Vec::new();
        let mut bad = false;
        for id in rest[open + 1..close].split(',') {
            let id = id.trim();
            match rules::rule(id) {
                Some(info) if rules::suppressible(info.id) => ids.push(info.id),
                Some(_) => {
                    push(
                        findings,
                        path,
                        c.line,
                        "S003",
                        format!("S rules cannot be suppressed ({id})"),
                    );
                    bad = true;
                }
                None => {
                    push(findings, path, c.line, "S003", format!("unknown rule id {id:?}"));
                    bad = true;
                }
            }
        }
        if bad {
            continue;
        }
        if ids.is_empty() {
            push(findings, path, c.line, "S001", "empty rule list".to_string());
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justification = match after.strip_prefix(':') {
            Some(j) => j.trim(),
            None => {
                push(
                    findings,
                    path,
                    c.line,
                    "S001",
                    "missing `: <justification>` after the rule list".to_string(),
                );
                continue;
            }
        };
        if justification.is_empty() {
            push(findings, path, c.line, "S001", "empty justification".to_string());
            continue;
        }
        let target_line = if c.trailing { c.line } else { next_code_line(&lexed.tokens, c.line) };
        let used = vec![false; ids.len()];
        out.push(Directive { line: c.line, ids, file_scope, target_line, used });
    }
    out
}

/// The first line after `line` that carries a code token.
fn next_code_line(tokens: &[Token], line: u32) -> u32 {
    tokens.iter().map(|t| t.line).find(|&l| l > line).unwrap_or(u32::MAX)
}
