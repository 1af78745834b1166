//! # detlint
//!
//! A workspace determinism & protocol-hygiene static analyzer for the
//! DynaStar reproduction — see DESIGN.md §6 for the full rationale and
//! rule catalog, and `detlint.toml` at the workspace root for the
//! scan scope.
//!
//! The analyzer is a hand-rolled lexer ([`lexer`]), an item-level
//! parser ([`parser`]) and a rule engine ([`engine`]) — no syn, no
//! regex, no dependencies — so it builds in well under a second and runs
//! first in CI. Every rule family but one is a per-file token rule
//! scoped by one config key, so a file gets the same verdict whether the
//! whole workspace or only that file is scanned ([`rules`]): **D**
//! determinism and host-IO hazards in simulation-facing crates (`sim`),
//! **P** panic hazards in protocol files (`protocol`), **X**
//! exec-scheduler determinism ([`sched`], `scheduler_scope`). **T**
//! wire-enum totality ([`totality`]) is the one cross-file family. **S**
//! governs `// detlint::allow(RULE): why` directives, and the handler
//! names `detlint.toml` designates (one that matches nothing is a
//! finding).
//!
//! ```
//! use detlint::{analyze, Config};
//!
//! let cfg = Config::default();
//! let report = analyze(
//!     "crates/core/src/server/mod.rs",
//!     "use std::time::Instant; // clock\n",
//!     &cfg,
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "D001");
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sched;
pub mod totality;

use std::path::{Path, PathBuf};

pub use config::{parse_config, Config};
pub use engine::{analyze, FileReport, Finding};
pub use report::Stats;

use config::FileRole;
use lexer::{lex, Lexed};
use parser::{ParsedFile, Span};

/// A whole-workspace scan result.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All unsuppressed findings, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    pub stats: Stats,
}

impl ScanReport {
    /// A scan is clean when nothing needs attention — the CI gate.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Recursively collects the workspace-relative paths of every `.rs`
/// file under `root`, honoring the config's skip globs. Entries are
/// sorted so the scan itself is deterministic regardless of how the
/// OS orders directories.
pub fn collect_files(root: &Path, config: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for path in entries {
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if config.skipped(&rel) || rel.starts_with('.') {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// One loaded source file, parsed and role-tagged.
pub(crate) struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    pub lexed: Lexed,
    pub parsed: ParsedFile,
    pub test_spans: Vec<Span>,
    pub role: FileRole,
    /// Whole file is test code (integration-test trees).
    pub is_test_file: bool,
}

impl SourceFile {
    fn load(path: &str, src: &str, config: &Config) -> SourceFile {
        let lexed = lex(src);
        SourceFile {
            path: path.to_string(),
            role: config.role(path),
            is_test_file: config.is_test_file(path),
            test_spans: parser::test_spans(&lexed.tokens),
            parsed: parser::parse(&lexed),
            lexed,
        }
    }

    /// True when `line` is inside test code (a `#[test]`/`#[cfg(test)]`
    /// span, or anywhere in a test-tree file).
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file || self.test_spans.iter().any(|s| s.contains(line))
    }
}

/// The whole-workspace pipeline over an in-memory `(path, source)` set:
/// the cross-file T family over every file, then each file's own D/P/X
/// token rules, with suppressions resolved per file so a directive can
/// govern any family's finding.
pub fn scan_sources(sources: &[(String, String)], config: &Config) -> ScanReport {
    let files: Vec<SourceFile> =
        sources.iter().map(|(p, s)| SourceFile::load(p, s, config)).collect();
    let mut cross = Vec::new();
    if !config.wire_enums.is_empty() {
        totality::run(&files, config, &mut cross);
    }
    let mut report = ScanReport::default();
    for file in &files {
        let (mine, rest): (Vec<Finding>, Vec<Finding>) =
            cross.into_iter().partition(|f| f.file == file.path);
        cross = rest;
        let mut raw =
            engine::raw_findings(&file.path, &file.lexed, file.role, config, &file.test_spans);
        raw.extend(mine);
        let fr = engine::finalize(&file.path, &file.lexed, &file.test_spans, raw, true);
        report.stats.files_scanned += 1;
        report.stats.suppressed += fr.suppressed;
        report.stats.directives += fr.directives;
        report.findings.extend(fr.findings);
    }
    // What no scanned file claims is about `detlint.toml` (S004), which
    // no directive can govern.
    report.findings.extend(cross);
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Scans the workspace rooted at `root` with `config`.
pub fn scan_workspace(root: &Path, config: &Config) -> std::io::Result<ScanReport> {
    let mut sources = Vec::new();
    for rel in collect_files(root, config)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources, config))
}

/// Loads `detlint.toml` from `root` when present, otherwise the
/// built-in defaults.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("detlint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => parse_config(&text, Config::default()).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Walks upward from `start` to the first directory whose
/// `Cargo.toml` declares `[workspace]` — how the CLI finds the scan
/// root without being told.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
