//! detlint CLI.
//!
//! ```text
//! cargo run -p detlint                   # whole-workspace scan, exit 1 on findings
//! cargo run -p detlint -- --format json  # machine-readable, for CI
//! cargo run -p detlint -- --paths crates/core/src/oracle   # scan the matching files only
//! cargo run -p detlint -- --changed-only                   # scan the git-dirty files only
//! cargo run -p detlint -- --list-rules
//! ```
//!
//! `--paths`/`--changed-only` scan only the named files, in
//! milliseconds. D, P and X are per-file rules, so a partial scan
//! reports exactly what the full scan reports for those files. Only
//! wire totality (T) needs every file: a partial scan skips it and
//! leaves T directives unjudged.
//!
//! Exit codes: 0 clean, 1 diagnostics reported, 2 usage/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{
    analyze, collect_files, config::glob_match, find_workspace_root, load_config, parse_config,
    report, rules, scan_workspace, Stats,
};

const USAGE: &str = "\
detlint — workspace determinism & protocol-hygiene analyzer

USAGE:
    detlint [--root <dir>] [--config <file>] [--format human|json]
            [--paths <glob>[,<glob>…]] [--changed-only] [--list-rules]

OPTIONS:
    --root <dir>        workspace root (default: nearest ancestor with [workspace])
    --config <file>     detlint config (default: <root>/detlint.toml if present)
    --format <fmt>      output format: human (default) or json
    --paths <globs>     scan matching files only (repeatable, comma-separated):
                        D, P, X and governance as in a full scan; T skipped
    --changed-only      the same, over the files git reports dirty
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

    let (findings, stats) = if partial {
        let mut findings = Vec::new();
        let mut stats = Stats::default();
        for rel in collect_files(&root, &config).map_err(|e| e.to_string())? {
            if !paths.iter().any(|p| glob_match(p, &rel) || rel.starts_with(p.as_str())) {
                continue;
            }
            let src = std::fs::read_to_string(root.join(&rel)).map_err(|e| e.to_string())?;
            let fr = analyze(&rel, &src, &config);
            stats.files_scanned += 1;
            stats.suppressed += fr.suppressed;
            stats.directives += fr.directives;
            findings.extend(fr.findings);
        }
        (findings, stats)
    } else {
        let scan = scan_workspace(&root, &config).map_err(|e| e.to_string())?;
        (scan.findings, scan.stats)
    };

    let rendered = match format.as_str() {
        "json" => report::render_json(&findings, stats),
        _ => report::render_human(&findings, stats),
    };
    print!("{rendered}");
    Ok(findings.is_empty())
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
