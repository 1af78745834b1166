//! T rules — protocol totality over the designated wire enums.
//!
//! A wire variant nobody constructs is dead protocol surface; a
//! handler match with a wildcard arm silently swallows variants added
//! later; a variant no test ever mentions has an uncovered decode
//! path. Across the scanned file set these become checkable:
//!
//! * **T001** — a declared variant of a designated wire enum has no
//!   qualified `Enum::Variant` mention anywhere in non-test code.
//! * **T002** — a match over a designated enum inside a designated
//!   handler function has a catch-all arm (`_` or a lowercase binding)
//!   — new variants would vanish into it instead of failing the
//!   build. Justified wildcards carry a governed suppression.
//! * **T003** — a declared variant has no mention anywhere in test
//!   code (`#[test]`/`#[cfg(test)]` spans or test-tree files).
//!
//! Mentions are counted as qualified paths only (`Payload::Exec`);
//! glob-imported bare variant names are invisible, which this
//! workspace's style (no enum glob imports on protocol paths) makes
//! acceptable.
//!
//! T is the one cross-file family, so it also owns the one config check
//! that needs the whole file set: a `handler_fns` entry that names no
//! non-test function anywhere is **S004** — a rename would otherwise
//! shrink the T002 handler set silently.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::engine::{push, Finding};
use crate::lexer::Token;
use crate::parser::{ident_at, is_punct, match_braces};
use crate::SourceFile;

pub(crate) fn run(files: &[SourceFile], config: &Config, out: &mut Vec<Finding>) {
    let live_fns = || {
        files.iter().flat_map(|file| {
            file.parsed.fns.iter().filter(|f| !file.in_test(f.line)).map(move |f| (file, f))
        })
    };
    for name in &config.handler_fns {
        if !live_fns().any(|(_, f)| &f.name == name) {
            let line = config.key_lines.get("handler_fns").copied().unwrap_or(0);
            let message = format!("`handler_fns` entry {name:?} matches no function");
            push(out, "detlint.toml", line, "S004", message);
        }
    }

    // Designated enums: name → (file, line-per-variant).
    let mut variants: BTreeMap<&str, BTreeMap<&str, (usize, u32)>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for e in &file.parsed.enums {
            if file.in_test(e.line) || !config.wire_enums.contains(&e.name) {
                continue;
            }
            let entry = variants.entry(e.name.as_str()).or_default();
            for v in &e.variants {
                entry.entry(v.name.as_str()).or_insert((fi, v.line));
            }
        }
    }
    if variants.is_empty() {
        return;
    }

    // Count qualified `Enum::Variant` mentions, split live/test.
    let mut live: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut test: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for file in files {
        let tokens = &file.lexed.tokens;
        for i in 0..tokens.len() {
            let Some((e, v)) = qualified_variant(tokens, i, &variants) else { continue };
            let bucket = if file.in_test(tokens[i].line) { &mut test } else { &mut live };
            *bucket.entry((e, v)).or_insert(0) += 1;
        }
    }

    for (enum_name, vs) in &variants {
        for (variant, &(fi, line)) in vs {
            let path = &files[fi].path;
            if live.get(&(enum_name, variant)).copied().unwrap_or(0) == 0 {
                push(
                    out,
                    path,
                    line,
                    "T001",
                    format!("wire variant `{enum_name}::{variant}` is never constructed or matched outside tests"),
                );
            }
            if test.get(&(enum_name, variant)).copied().unwrap_or(0) == 0 {
                push(
                    out,
                    path,
                    line,
                    "T003",
                    format!("wire variant `{enum_name}::{variant}` has no test coverage (decode/roundtrip path untested)"),
                );
            }
        }
    }

    // T002: wildcard arms in designated-handler matches over these enums.
    for (file, f) in live_fns().filter(|(_, f)| config.handler_fns.contains(&f.name)) {
        scan_handler_matches(
            &file.lexed.tokens,
            f.body.clone(),
            &variants,
            &file.path,
            &f.name,
            out,
        );
    }
}

/// `Enum::Variant` at token `i` when `Enum` is designated and
/// `Variant` is one of its declared variants.
fn qualified_variant<'a>(
    tokens: &[Token],
    i: usize,
    variants: &BTreeMap<&'a str, BTreeMap<&'a str, (usize, u32)>>,
) -> Option<(&'a str, &'a str)> {
    let e = ident_at(tokens, i)?;
    let (&ename, vs) = variants.get_key_value(e)?;
    if !is_punct(tokens, i + 1, "::") {
        return None;
    }
    // Skip turbofish generics: `Entry::<u64>::Noop` names the same
    // variant as `Entry::Noop`.
    let mut j = i + 2;
    if is_punct(tokens, j, "<") {
        let mut depth = 1usize;
        j += 1;
        while depth > 0 {
            if is_punct(tokens, j, "<") {
                depth += 1;
            } else if is_punct(tokens, j, ">") {
                depth -= 1;
            } else if j >= tokens.len() {
                return None;
            }
            j += 1;
        }
        if !is_punct(tokens, j, "::") {
            return None;
        }
        j += 1;
    }
    let v = ident_at(tokens, j)?;
    let (&vname, _) = vs.get_key_value(v)?;
    Some((ename, vname))
}

/// Finds every `match` in `body`; when any arm pattern names a
/// designated variant, catch-all arms in that match are T002 findings.
fn scan_handler_matches(
    tokens: &[Token],
    body: std::ops::Range<usize>,
    variants: &BTreeMap<&str, BTreeMap<&str, (usize, u32)>>,
    path: &str,
    handler: &str,
    out: &mut Vec<Finding>,
) {
    for i in body.clone() {
        if ident_at(tokens, i) != Some("match") {
            continue;
        }
        // Find the match-body `{` past the scrutinee (tracking only
        // (), [] — a bare struct literal cannot appear here). A `;`
        // first means this wasn't a match expression after all.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut opened = false;
        while j < body.end {
            if let crate::lexer::TokKind::Punct(p) = &tokens[j].kind {
                match p.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        opened = true;
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if !opened || j >= body.end {
            continue;
        }
        let end = match_braces(tokens, j).saturating_sub(1).min(body.end);
        let arms = parse_arms(tokens, j + 1, end);
        let designated = arms
            .iter()
            .any(|a| a.clone().any(|k| qualified_variant(tokens, k, variants).is_some()));
        if !designated {
            continue;
        }
        for arm in &arms {
            let Some(line) = wildcard_arm(tokens, arm.clone()) else { continue };
            push(
                out,
                path,
                line,
                "T002",
                format!("catch-all arm in a wire-enum match inside handler `{handler}`"),
            );
        }
    }
}

/// Splits a match body token range into arm-pattern ranges.
fn parse_arms(tokens: &[Token], start: usize, end: usize) -> Vec<std::ops::Range<usize>> {
    let mut arms = Vec::new();
    let mut i = start;
    while i < end {
        // Pattern: up to `=>` at depth 0.
        let pat_start = i;
        let mut depth = 0i32;
        let mut found = false;
        while i < end {
            if let crate::lexer::TokKind::Punct(p) = &tokens[i].kind {
                match p.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0 && is_punct(tokens, i + 1, ">") => {
                        found = true;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if !found {
            break;
        }
        arms.push(pat_start..i);
        i += 2;
        // Arm body: a block (then optional comma) or an expression up
        // to a depth-0 comma.
        if is_punct(tokens, i, "{") {
            i = match_braces(tokens, i);
            if is_punct(tokens, i, ",") {
                i += 1;
            }
        } else {
            let mut depth = 0i32;
            while i < end {
                if let crate::lexer::TokKind::Punct(p) = &tokens[i].kind {
                    match p.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
        }
    }
    arms
}

/// When the arm pattern is a catch-all (`_`, or a bare lowercase
/// binding — Rust's convention separates `Noop` variants from `other`
/// bindings by case), the line to report; `None` otherwise.
fn wildcard_arm(tokens: &[Token], pat: std::ops::Range<usize>) -> Option<u32> {
    let idx: Vec<usize> = pat.collect();
    // Allow `mut other` as well as `other` / `_`.
    let names: Vec<&str> = idx.iter().filter_map(|&k| ident_at(tokens, k)).collect();
    if names.len() != idx.len() {
        return None; // pattern has structure (paths, tuples, literals)
    }
    let names: Vec<&str> = names.into_iter().filter(|n| *n != "mut" && *n != "ref").collect();
    if names.len() != 1 {
        return None;
    }
    let n = names[0];
    let catch_all = n == "_" || n.chars().next().is_some_and(|c| c.is_lowercase());
    if catch_all {
        Some(tokens[idx[0]].line)
    } else {
        None
    }
}
