//! Scan configuration: which paths get which rule families.
//!
//! `detlint.toml` at the workspace root is the single source of truth:
//! it is what a run reads, and — embedded at build time — what
//! [`Config::default`] is, so no list of this repository's files exists
//! in the linter's source. A config passed to [`parse_config`] *replaces*
//! the lists it names. The parser is a deliberately tiny subset of
//! TOML — `key = "str"` and `key = [ "a", "b" ]` (arrays may span
//! lines), `#` comments — because the vendored-deps policy rules out
//! a real TOML crate and the config needs nothing more.

use std::fmt;

/// Path-glob driven scan configuration. All globs are matched against
/// `/`-separated paths relative to the workspace root.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files subject to determinism (D) rules: the simulation-facing
    /// crates whose behaviour must be a pure function of the seed.
    pub sim: Vec<String>,
    /// Files subject to protocol-hygiene (P) rules: message-delivery
    /// and on-wire decode paths.
    pub protocol: Vec<String>,
    /// Substrings of function names treated as on-wire decode
    /// functions (P004 applies inside them).
    pub decode_markers: Vec<String>,
    /// Files never scanned at all.
    pub skip: Vec<String>,
    /// Names of the designated wire enums (T rules). Empty disables
    /// the family.
    pub wire_enums: Vec<String>,
    /// Exact names of handler functions whose wire-enum matches must
    /// be wildcard-free (T002).
    pub handler_fns: Vec<String>,
    /// Files subject to exec-scheduler determinism (X) rules.
    pub scheduler_scope: Vec<String>,
    /// Files that are wholly test code (integration-test trees) —
    /// exempt from D/P/X, and counted as coverage for T003.
    pub test_globs: Vec<String>,
    /// Line of each key in the `detlint.toml` that set it, so a finding
    /// about a list can point at it.
    pub key_lines: std::collections::BTreeMap<String, u32>,
}

impl Default for Config {
    /// The workspace's own `detlint.toml`, compiled in: the scope exists
    /// once, and a run without the file (or a test) sees what CI sees.
    fn default() -> Self {
        let empty = Config {
            sim: Vec::new(),
            protocol: Vec::new(),
            decode_markers: Vec::new(),
            skip: Vec::new(),
            wire_enums: Vec::new(),
            handler_fns: Vec::new(),
            scheduler_scope: Vec::new(),
            test_globs: Vec::new(),
            key_lines: Default::default(),
        };
        parse_config(include_str!("../../../detlint.toml"), empty)
            .expect("the checked-in detlint.toml parses")
    }
}

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileRole {
    pub sim: bool,
    pub protocol: bool,
    pub sched: bool,
}

impl Config {
    /// Role of the file at workspace-relative `path`.
    pub fn role(&self, path: &str) -> FileRole {
        FileRole {
            sim: self.sim.iter().any(|g| glob_match(g, path)),
            protocol: self.protocol.iter().any(|g| glob_match(g, path)),
            sched: self.scheduler_scope.iter().any(|g| glob_match(g, path)),
        }
    }

    /// True when `path` must not be scanned.
    pub fn skipped(&self, path: &str) -> bool {
        self.skip.iter().any(|g| glob_match(g, path))
    }

    /// True when `fn_name` marks an on-wire decode function.
    pub fn is_decode_fn(&self, fn_name: &str) -> bool {
        self.decode_markers.iter().any(|m| fn_name.contains(m))
    }

    /// True when `path` is wholly test code.
    pub fn is_test_file(&self, path: &str) -> bool {
        self.test_globs.iter().any(|g| glob_match(g, path))
    }
}

/// A config-file problem, reported with its line.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "detlint.toml:{}: {}", self.line, self.message)
    }
}

/// Parses `detlint.toml` content, overriding `base` list-by-list.
pub fn parse_config(text: &str, base: Config) -> Result<Config, ConfigError> {
    let mut cfg = base;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError {
                line: n + 1,
                message: format!("expected `key = value`, got {line:?}"),
            });
        };
        let key = key.trim();
        let mut value = value.trim().to_string();
        // Arrays may span lines: keep consuming until the `]`.
        if value.starts_with('[') && !value.ends_with(']') {
            for (_, cont) in lines.by_ref() {
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
                if value.ends_with(']') {
                    break;
                }
            }
        }
        let items = parse_value(&value).map_err(|message| ConfigError { line: n + 1, message })?;
        cfg.key_lines.insert(key.to_string(), n as u32 + 1);
        match key {
            "sim" => cfg.sim = items,
            "protocol" => cfg.protocol = items,
            "decode_markers" => cfg.decode_markers = items,
            "skip" => cfg.skip = items,
            "wire_enums" => cfg.wire_enums = items,
            "handler_fns" => cfg.handler_fns = items,
            "scheduler_scope" => cfg.scheduler_scope = items,
            "test_globs" => cfg.test_globs = items,
            other => {
                return Err(ConfigError {
                    line: n + 1,
                    message: format!(
                        "unknown key {other:?} (expected sim, protocol, decode_markers, skip, \
                         wire_enums, handler_fns, scheduler_scope, test_globs)"
                    ),
                })
            }
        }
    }
    Ok(cfg)
}

/// Strips a `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"str"` or `[ "a", "b" ]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_string(part)?);
        }
        Ok(items)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

fn parse_string(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|v| v.to_string())
        .ok_or_else(|| format!("expected a double-quoted string, got {s:?}"))
}

/// Glob matching over `/`-separated paths. `**` spans any number of
/// path segments (including zero); `*` and `?` match within one
/// segment.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            match_segments(&pat[1..], segs) || (!segs.is_empty() && match_segments(pat, &segs[1..]))
        }
        Some(p) => {
            !segs.is_empty() && match_one(p, segs[0]) && match_segments(&pat[1..], &segs[1..])
        }
    }
}

/// `*`/`?` matching within one segment.
fn match_one(pat: &str, text: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    let t: Vec<char> = text.chars().collect();
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('*') => rec(&p[1..], t) || (!t.is_empty() && rec(p, &t[1..])),
            Some('?') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(c) => !t.is_empty() && t[0] == *c && rec(&p[1..], &t[1..]),
        }
    }
    rec(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_basics() {
        assert!(glob_match("crates/core/src/**", "crates/core/src/server/mod.rs"));
        assert!(glob_match("crates/core/src/**", "crates/core/src/tpcc/ops.rs"));
        assert!(!glob_match("crates/core/src/**", "crates/core/tests/x.rs"));
        assert!(glob_match("crates/*/src/*.rs", "crates/paxos/src/lib.rs"));
        assert!(!glob_match("crates/*/src/*.rs", "crates/paxos/src/a/b.rs"));
        assert!(glob_match("**/fixtures/**", "crates/detlint/fixtures/bad/a.rs"));
        assert!(glob_match("target/**", "target/debug/foo"));
        assert!(glob_match("a/**", "a"));
    }

    #[test]
    fn parse_minimal_toml() {
        let text = r#"
# comment
sim = ["crates/a/src/**", "crates/b/src/**"]
protocol = [
    "crates/a/src/wire.rs",  # trailing comment
]
decode_markers = "decode"
"#;
        let cfg = parse_config(text, Config::default()).unwrap();
        assert_eq!(cfg.sim, vec!["crates/a/src/**", "crates/b/src/**"]);
        assert_eq!(cfg.protocol, vec!["crates/a/src/wire.rs"]);
        assert_eq!(cfg.decode_markers, vec!["decode"]);
        // Untouched key keeps the default.
        assert!(cfg.skip.iter().any(|g| g == "vendor/**"));
    }

    #[test]
    fn bad_config_reports_line() {
        let err = parse_config("sim = [\"a\"]\nnot a kv line", Config::default()).unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_config("mystery = \"x\"", Config::default()).unwrap_err();
        assert!(err.message.contains("unknown key"));
    }

    #[test]
    fn roles_resolve() {
        let cfg = Config::default();
        let r = cfg.role("crates/core/src/server/mod.rs");
        assert!(r.sim && r.protocol && !r.sched);
        assert!(cfg.role("crates/core/src/server/exec.rs").sched);
        let r = cfg.role("crates/core/src/command.rs");
        assert!(r.sim && !r.protocol);
        let r = cfg.role("crates/bench/src/lib.rs");
        assert!(!r.sim && !r.protocol);
        assert!(cfg.skipped("vendor/rand/src/lib.rs"));
        assert!(cfg.skipped("crates/detlint/fixtures/bad/x.rs"));
    }
}
