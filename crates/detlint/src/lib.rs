//! # detlint
//!
//! A workspace determinism & protocol-hygiene static analyzer for the
//! DynaStar reproduction — see DESIGN.md §6 for the full rationale and
//! rule catalog, and `detlint.toml` at the workspace root for the
//! scan scope.
//!
//! The analyzer is a hand-rolled lexer ([`lexer`]), an item-level
//! parser ([`parser`]), a workspace symbol table ([`symbols`]) with a
//! call graph ([`callgraph`]), and a rule engine ([`engine`]) — no
//! syn, no regex, no dependencies — so it builds in well under a
//! second and runs first in CI. Six rule families ([`rules`]):
//! **D** determinism hazards in simulation-facing crates, **P** panic
//! hazards on protocol message paths (reachability-filtered to
//! protocol entry points in full scans), **W** IO-weld boundary
//! violations ([`weld`]), **T** wire-enum totality ([`totality`]), **X** exec-scheduler
//! determinism ([`sched`]), and **S** governance: of
//! `// detlint::allow(RULE): why` directives, and of the function names
//! `detlint.toml` designates (one that matches nothing is a finding).
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

pub mod callgraph;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sched;
pub mod symbols;
pub mod totality;
pub mod weld;

use std::path::{Path, PathBuf};

pub use config::{parse_config, Config};
pub use engine::{analyze, FileReport, Finding};
pub use report::Stats;

use symbols::{SourceFile, SymbolTable};

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

/// The cross-file pipeline over an in-memory `(path, source)` set:
/// parse everything, build the symbol table and call graph, run the
/// per-file D/P rules (P filtered to protocol-entry reachability when
/// `protocol_entries` is configured), run the cross-file W/T/X
/// families, then resolve suppressions per file so a directive can
/// govern any family's finding.
pub fn scan_sources(sources: &[(String, String)], config: &Config) -> ScanReport {
    let files: Vec<SourceFile> =
        sources.iter().map(|(p, s)| SourceFile::load(p, s, config)).collect();
    let syms = SymbolTable::build(&files);
    let graph = callgraph::CallGraph::build(&files, &syms);

    // Protocol-entry reachability for the P family.
    let p_reach = if config.protocol_entries.is_empty() {
        None
    } else {
        let mut roots = Vec::new();
        for (id, f) in syms.fns.iter().enumerate() {
            if !files[f.file].role.protocol || f.item.is_test {
                continue;
            }
            if config.protocol_entries.iter().any(|e| e == &f.item.name)
                || config.is_decode_fn(&f.item.name)
            {
                roots.push(id);
            }
        }
        Some(callgraph::reachable(&graph, &roots))
    };

    // Per-file raw findings, P-filtered.
    let mut per_file: Vec<Vec<Finding>> = Vec::with_capacity(files.len());
    for (fi, file) in files.iter().enumerate() {
        let mut raw =
            engine::raw_findings(&file.path, &file.lexed, file.role, config, &file.test_spans);
        if let Some(reach) = &p_reach {
            raw.retain(|f| {
                if !f.rule.starts_with('P') {
                    return true;
                }
                match syms.fn_at(fi, f.line) {
                    Some(fid) => reach[fid],
                    None => true, // outside any fn: keep
                }
            });
        }
        per_file.push(raw);
    }

    // Cross-file families.
    let mut cross = Vec::new();
    if !config.weld_scope.is_empty() {
        weld::run(&files, &syms, &graph, config, &mut cross);
    }
    if !config.wire_enums.is_empty() {
        totality::run(&files, &syms, config, &mut cross);
    }
    if !config.scheduler_roots.is_empty() {
        sched::run(&files, &syms, &graph, config, &mut cross);
    }
    let index_of: std::collections::BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();
    for f in cross {
        if let Some(&fi) = index_of.get(f.file.as_str()) {
            per_file[fi].push(f);
        }
    }

    // Finalize each file: suppression + governance, with reachability
    // notes on stale P directives.
    let mut report = ScanReport::default();
    for (fi, file) in files.iter().enumerate() {
        let note = |target_line: u32, rule: &str| -> Option<String> {
            if !rule.starts_with('P') || p_reach.is_none() {
                return None;
            }
            let fid = syms.fn_at(fi, target_line)?;
            if p_reach.as_ref().is_some_and(|r| !r[fid]) {
                let name = &syms.fns[fid].item.name;
                Some(format!(
                    "fn `{name}` is not reachable from any protocol entry point, so P rules cannot fire here"
                ))
            } else {
                None
            }
        };
        let opts = engine::FinalizeOpts { s002_check: &|_| true, s002_note: &note };
        let fr = engine::finalize(
            &file.path,
            &file.lexed,
            &file.test_spans,
            std::mem::take(&mut per_file[fi]),
            &opts,
        );
        report.stats.files_scanned += 1;
        report.stats.suppressed += fr.suppressed;
        report.stats.directives += fr.directives;
        report.findings.extend(fr.findings);
    }
    report.findings.extend(unresolved_names(&files, &syms, config));
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// S004: every function a name list of the config designates must exist
/// where its family looks for it — a root that a rename left behind
/// would otherwise shrink the X cone, the P entry cone or the T handler
/// set without a word. A family that is switched off (no scheduler roots,
/// no protocol file, no wire enum) is not judged.
fn unresolved_names(files: &[SourceFile], syms: &SymbolTable, config: &Config) -> Vec<Finding> {
    let live = |name: &str, in_file: &dyn Fn(&SourceFile) -> bool| {
        syms.by_name.get(name).is_some_and(|ids| {
            ids.iter().any(|&id| !syms.fns[id].item.is_test && in_file(&files[syms.fns[id].file]))
        })
    };
    let mut missing: Vec<(&str, &String)> = Vec::new();
    for spec in &config.scheduler_roots {
        let found = syms
            .resolve_spec(spec)
            .iter()
            .any(|&id| config.in_scheduler_scope(&files[syms.fns[id].file].path));
        if !found {
            missing.push(("scheduler_roots", spec));
        }
    }
    if files.iter().any(|f| f.role.protocol) {
        let absent = |name: &&String| !live(name, &|f| f.role.protocol);
        missing
            .extend(config.protocol_entries.iter().filter(absent).map(|n| ("protocol_entries", n)));
    }
    if !config.wire_enums.is_empty() {
        let absent = |name: &&String| !live(name, &|_| true);
        missing.extend(config.handler_fns.iter().filter(absent).map(|n| ("handler_fns", n)));
    }
    let info = rules::rule("S004").expect("known rule id");
    missing
        .into_iter()
        .map(|(key, name)| Finding {
            file: "detlint.toml".to_string(),
            line: config.key_lines.get(key).copied().unwrap_or(0),
            rule: info.id,
            message: format!("`{key}` entry {name:?} matches no function"),
            hint: info.hint,
        })
        .collect()
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
