//! The rule engine: token-sequence matching plus suppression
//! bookkeeping for a single file.
//!
//! Per-file analysis is staged so the cross-file pipeline in
//! [`crate::scan_sources`] can interleave:
//!
//! 1. **Test spans** ([`crate::parser::test_spans`]). Items under
//!    `#[test]` / `#[cfg(test)]` are excluded wholesale — test-only
//!    nondeterminism cannot perturb a replica, and test assertions
//!    legitimately panic.
//! 2. **Raw findings** ([`raw_findings`]). D rules run when the file
//!    is simulation-facing, P rules when it is on a protocol path
//!    (per [`Config::role`]).
//! 3. **Finalize** ([`finalize`]). Cross-file findings (W/T/X, and
//!    reachability-filtered P) are merged in by the caller, then
//!    `// detlint::allow(RULE): why` directives are parsed (malformed
//!    ones become S001/S003 findings), applied (line directives cover
//!    their own line when trailing, else the next code line;
//!    `allow-file` covers the whole file), and audited — every
//!    directive must justify itself *and* be used, or it is itself a
//!    finding (S001/S002).
//!
//! [`analyze`] composes the stages for a standalone single-file scan
//! (no symbol table, so P rules fire everywhere and W/T/X not at
//! all) — the mode fixtures and `--paths` pre-commit runs use.

use crate::config::{Config, FileRole};
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::parser::{self, ident_at, is_punct, Span};
use crate::rules;

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

/// Hooks the cross-file pipeline threads into [`finalize`].
pub(crate) struct FinalizeOpts<'a> {
    /// Whether an *unused* directive for this rule id should fire
    /// S002. Partial scans (`--paths`) cannot judge families they did
    /// not run, so they pass a narrower predicate.
    pub s002_check: &'a dyn Fn(&str) -> bool,
    /// Extra explanation appended to an S002 message, given the
    /// directive's target line and the unused rule id (the pipeline
    /// notes e.g. that a P rule cannot fire in an unreachable fn).
    pub s002_note: &'a dyn Fn(u32, &str) -> Option<String>,
}

pub(crate) const FULL_OPTS: FinalizeOpts<'static> =
    FinalizeOpts { s002_check: &|_| true, s002_note: &|_, _| None };

/// Analyzes one file's source standalone. `path` is
/// workspace-relative with `/` separators; it selects the rule
/// families via `config` and prefixes every finding.
pub fn analyze(path: &str, src: &str, config: &Config) -> FileReport {
    let lexed = lex(src);
    let test_spans = parser::test_spans(&lexed.tokens);
    let raw = raw_findings(path, &lexed, config.role(path), config, &test_spans);
    finalize(path, &lexed, &test_spans, raw, &FULL_OPTS)
}

/// Analyzes one file in fast pre-commit mode (`--paths` /
/// `--changed-only`): D rules and directive governance only. P rules
/// are reachability-filtered in full scans, so flagging them per-file
/// here would contradict CI; W/T/X need the symbol table outright.
/// S002 accordingly stays quiet about directives those families own.
pub fn analyze_partial(path: &str, src: &str, config: &Config) -> FileReport {
    let lexed = lex(src);
    let test_spans = parser::test_spans(&lexed.tokens);
    let role = FileRole { sim: config.role(path).sim, protocol: false };
    let raw = raw_findings(path, &lexed, role, config, &test_spans);
    let opts =
        FinalizeOpts { s002_check: &|id: &str| id.starts_with('D'), s002_note: &|_, _| None };
    finalize(path, &lexed, &test_spans, raw, &opts)
}

/// Stage 2: the per-file token rules (D/P), unsuppressed.
pub(crate) fn raw_findings(
    path: &str,
    lexed: &Lexed,
    role: FileRole,
    config: &Config,
    test_spans: &[Span],
) -> Vec<Finding> {
    let in_test = |line: u32| test_spans.iter().any(|s| s.contains(line));
    let mut raw = Vec::new();
    if role.sim || role.protocol {
        scan_rules(path, lexed, role, config, &in_test, &mut raw);
    }
    raw
}

/// Stage 3: suppression resolution over the merged finding set.
pub(crate) fn finalize(
    path: &str,
    lexed: &Lexed,
    test_spans: &[Span],
    mut raw: Vec<Finding>,
    opts: &FinalizeOpts<'_>,
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
            if d.used[i] || !(opts.s002_check)(id) {
                continue;
            }
            let target = if d.file_scope { d.line } else { d.target_line };
            let mut message = format!("directive allows {id} but suppresses nothing");
            if let Some(note) = (opts.s002_note)(target, id) {
                message.push_str(&format!(" ({note})"));
            }
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
// Rule scanning.
// ---------------------------------------------------------------------------

fn scan_rules(
    path: &str,
    lexed: &Lexed,
    role: FileRole,
    config: &Config,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let tokens = &lexed.tokens;
    let decode_spans = if role.protocol { decode_fn_spans(tokens, config) } else { Vec::new() };

    for i in 0..tokens.len() {
        let line = tokens[i].line;
        if in_test(line) {
            continue;
        }
        if role.sim {
            if let Some(id) = ident_at(tokens, i) {
                match id {
                    "Instant" | "SystemTime" => {
                        push(out, path, line, "D001", format!("`{id}` is wall-clock time"));
                    }
                    "thread_rng" | "OsRng" | "from_entropy" | "getrandom" => {
                        push(out, path, line, "D002", format!("`{id}` draws OS entropy"));
                    }
                    "std"
                        if is_punct(tokens, i + 1, "::")
                            && ident_at(tokens, i + 2) == Some("env") =>
                    {
                        push(out, path, line, "D003", "`std::env` read".to_string());
                    }
                    "env"
                        if is_punct(tokens, i + 1, "::")
                            && matches!(
                                ident_at(tokens, i + 2),
                                Some("var" | "var_os" | "vars" | "vars_os" | "args" | "args_os")
                            ) =>
                    {
                        push(out, path, line, "D003", "`env::*` read".to_string());
                    }
                    "thread"
                        if is_punct(tokens, i + 1, "::")
                            && ident_at(tokens, i + 2) == Some("sleep") =>
                    {
                        push(
                            out,
                            path,
                            line,
                            "D004",
                            "`thread::sleep` blocks on wall time".to_string(),
                        );
                    }
                    "HashMap" | "HashSet" if !randomstate_exempt(tokens, i) => {
                        push(
                            out,
                            path,
                            line,
                            "D005",
                            format!("`{id}` with default `RandomState` (iteration order varies per process)"),
                        );
                    }
                    _ => {}
                }
            }
        }
        if role.protocol {
            if is_punct(tokens, i, ".") && is_punct(tokens, i + 2, "(") {
                match ident_at(tokens, i + 1) {
                    Some("unwrap") => {
                        push(
                            out,
                            path,
                            line,
                            "P001",
                            "`.unwrap()` can panic a replica".to_string(),
                        );
                    }
                    Some("expect") => {
                        push(
                            out,
                            path,
                            line,
                            "P002",
                            "`.expect()` can panic a replica".to_string(),
                        );
                    }
                    _ => {}
                }
            }
            if let Some(id @ ("panic" | "unreachable" | "todo" | "unimplemented")) =
                ident_at(tokens, i)
            {
                if is_punct(tokens, i + 1, "!") {
                    push(out, path, line, "P003", format!("`{id}!` aborts the replica"));
                }
            }
            // Index expression: `[` directly preceded by a value-ish
            // token, inside a decode fn. (`vec![…]` and `#[…]` are not
            // index expressions: their `[` follows `!` / `#`.)
            let prev_is_value = i > 0
                && match &tokens[i - 1].kind {
                    TokKind::Ident(_) => true,
                    TokKind::Punct(p) => p == ")" || p == "]",
                    _ => false,
                };
            if is_punct(tokens, i, "[")
                && prev_is_value
                && decode_spans.iter().any(|s| s.contains(line))
            {
                push(
                    out,
                    path,
                    line,
                    "P004",
                    "indexing in a decode fn panics on short/garbled input".to_string(),
                );
            }
        }
    }
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
