//! detlint CLI.
//!
//! ```text
//! cargo run -p detlint                   # full cross-file scan, exit 1 on findings
//! cargo run -p detlint -- --format json  # machine-readable, for CI
//! cargo run -p detlint -- --paths crates/core/src/oracle.rs   # fast per-file scan
//! cargo run -p detlint -- --changed-only                      # fast scan of git-dirty files
//! cargo run -p detlint -- --weld-map weld_map_ci.json         # write the weld map, with lines
//! cargo run -p detlint -- --weld-baseline results/weld_map.json  # write its committed form
//! cargo run -p detlint -- --ratchet results/weld_map.json     # enforce the weld ceiling
//! cargo run -p detlint -- --list-rules
//! ```
//!
//! `--paths`/`--changed-only` run the *per-file* engine only: D rules
//! and directive governance, in milliseconds, without re-lexing the
//! workspace. Cross-file families (P reachability, W/T/X) need the
//! whole symbol table, so partial scans skip them and keep S002 quiet
//! about directives those families own — the full CI scan is the
//! authority.
//!
//! Exit codes: 0 clean, 1 diagnostics reported (or ratchet exceeded),
//! 2 usage/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{
    collect_files, config::glob_match, engine::analyze_partial, find_workspace_root, load_config,
    parse_config, report, rules, scan_sources, Stats,
};

const USAGE: &str = "\
detlint — workspace determinism & protocol-hygiene analyzer

USAGE:
    detlint [--root <dir>] [--config <file>] [--format human|json]
            [--paths <glob>[,<glob>…]] [--changed-only]
            [--weld-map <out.json>] [--weld-baseline <out.json>]
            [--ratchet <baseline.json>] [--list-rules]

OPTIONS:
    --root <dir>        workspace root (default: nearest ancestor with [workspace])
    --config <file>     detlint config (default: <root>/detlint.toml if present)
    --format <fmt>      output format: human (default) or json
    --paths <globs>     fast per-file scan of matching files only (D + governance;
                        repeatable, comma-separated; cross-file families skipped)
    --changed-only      fast per-file scan of files reported dirty by git
    --weld-map <out>    write the weld-map JSON after a full scan (CI artifact)
    --weld-baseline <out>
                        write the weld map without line numbers — the form
                        committed as results/weld_map.json
    --ratchet <file>    fail (exit 1) when the scan's weld count exceeds the
                        committed baseline's `count`
    --list-rules        print the rule catalog and exit
    --help              this text
";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("detlint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut format = "human".to_string();
    let mut paths: Vec<String> = Vec::new();
    let mut changed_only = false;
    let mut weld_map_out: Option<PathBuf> = None;
    let mut weld_baseline_out: Option<PathBuf> = None;
    let mut ratchet: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(next_value(&mut args, "--root")?.into()),
            "--config" => config_path = Some(next_value(&mut args, "--config")?.into()),
            "--format" => format = next_value(&mut args, "--format")?,
            "--paths" => paths.extend(
                next_value(&mut args, "--paths")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty()),
            ),
            "--changed-only" => changed_only = true,
            "--weld-map" => weld_map_out = Some(next_value(&mut args, "--weld-map")?.into()),
            "--weld-baseline" => {
                weld_baseline_out = Some(next_value(&mut args, "--weld-baseline")?.into())
            }
            "--ratchet" => ratchet = Some(next_value(&mut args, "--ratchet")?.into()),
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{}  {}\n      fix: {}", r.id, r.title, r.hint);
                }
                return Ok(true);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if format != "human" && format != "json" {
        return Err(format!("--format must be human or json, got {format:?}"));
    }
    let partial = changed_only || !paths.is_empty();
    if partial && (weld_map_out.is_some() || weld_baseline_out.is_some() || ratchet.is_some()) {
        return Err(
            "--weld-map/--weld-baseline/--ratchet need a full scan, not --paths/--changed-only"
                .into(),
        );
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd).ok_or_else(|| {
                "no [workspace] Cargo.toml above the current directory; pass --root".to_string()
            })?
        }
    };

    let config = match config_path {
        Some(p) => {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_config(&text, detlint::Config::default()).map_err(|e| e.to_string())?
        }
        None => load_config(&root)?,
    };

    if changed_only {
        paths.extend(git_dirty_files(&root)?);
        if paths.is_empty() {
            println!("detlint: clean — no changed .rs files");
            return Ok(true);
        }
    }

    let (findings, stats, clean) = if partial {
        let mut findings = Vec::new();
        let mut stats = Stats::default();
        for rel in collect_files(&root, &config).map_err(|e| e.to_string())? {
            if !paths.iter().any(|p| glob_match(p, &rel) || rel.starts_with(p.as_str())) {
                continue;
            }
            let src = std::fs::read_to_string(root.join(&rel)).map_err(|e| e.to_string())?;
            let fr = analyze_partial(&rel, &src, &config);
            stats.files_scanned += 1;
            stats.suppressed += fr.suppressed;
            stats.directives += fr.directives;
            findings.extend(fr.findings);
        }
        let clean = findings.is_empty();
        (findings, stats, clean)
    } else {
        let mut sources = Vec::new();
        for rel in collect_files(&root, &config).map_err(|e| e.to_string())? {
            let src = std::fs::read_to_string(root.join(&rel)).map_err(|e| e.to_string())?;
            sources.push((rel, src));
        }
        let scan = scan_sources(&sources, &config);
        let write_map = |out: &Option<PathBuf>, render: fn(&[detlint::Weld]) -> String| {
            let Some(out) = out else { return Ok(()) };
            std::fs::write(out, render(&scan.welds)).map_err(|e| format!("{}: {e}", out.display()))
        };
        write_map(&weld_map_out, report::render_weld_map)?;
        write_map(&weld_baseline_out, report::render_weld_baseline)?;
        let mut clean = scan.clean();
        if let Some(baseline) = &ratchet {
            let text = std::fs::read_to_string(baseline)
                .map_err(|e| format!("{}: {e}", baseline.display()))?;
            let ceiling = report::weld_map_count(&text)
                .ok_or_else(|| format!("{}: no \"count\" field", baseline.display()))?;
            if scan.welds.len() > ceiling {
                eprintln!(
                    "detlint: weld ratchet FAILED — {} welds exceed the committed ceiling of {} \
                     (regenerate {} only when a weld is deliberately added)",
                    scan.welds.len(),
                    ceiling,
                    baseline.display(),
                );
                clean = false;
            } else {
                println!(
                    "detlint: weld ratchet ok — {} weld(s) within ceiling {}",
                    scan.welds.len(),
                    ceiling
                );
            }
        }
        (scan.findings, scan.stats, clean)
    };

    let rendered = match format.as_str() {
        "json" => report::render_json(&findings, stats),
        _ => report::render_human(&findings, stats),
    };
    print!("{rendered}");
    Ok(clean)
}

/// `.rs` files git reports as dirty (staged or not) relative to HEAD.
fn git_dirty_files(root: &std::path::Path) -> Result<Vec<String>, String> {
    let out = std::process::Command::new("git")
        .args(["diff", "--name-only", "HEAD"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git diff --name-only HEAD failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.ends_with(".rs"))
        .map(|l| l.trim().to_string())
        .collect())
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}
