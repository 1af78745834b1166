//! W rules — the IO-weld boundary.
//!
//! The sans-IO refactor (ROADMAP) requires the protocol crates to
//! reach wall clocks, sockets, threads, channels, and entropy only
//! through the `runtime` facade. These rules flag every place that
//! contract is broken; a weld fails the scan like any other finding:
//!
//! * **W001** — a function in the weld scope touches an IO primitive
//!   directly (clock types, entropy sources, thread spawning/sleeping,
//!   sockets, filesystem/process access, channel construction).
//! * **W002** — a function in the weld scope transitively reaches a
//!   welded function through the call graph (propagated to a
//!   fixpoint; calls into the facade crates never propagate).
//! * **W003** — a weld-scope file imports an IO module wholesale
//!   (`std::{net,fs,process,thread}`, `mpsc`, `crossbeam`, or
//!   `std::time::{Instant,SystemTime}`).

use std::collections::VecDeque;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::engine::{push, Finding};
use crate::parser::{ident_at, is_punct};
use crate::symbols::{SourceFile, SymbolTable};

/// Runs W001/W002/W003, appending their findings to `out` for the
/// suppression pipeline.
pub fn run(
    files: &[SourceFile],
    syms: &SymbolTable,
    graph: &CallGraph,
    config: &Config,
    out: &mut Vec<Finding>,
) {
    let in_scope = |fid: usize| {
        let path = files[syms.fns[fid].file].path.as_str();
        config.in_weld_scope(path) && !config.is_weld_facade(path) && !syms.fns[fid].item.is_test
    };

    // W001: direct primitive touches, per function.
    let mut direct = vec![false; syms.fns.len()];
    for (fid, d) in direct.iter_mut().enumerate() {
        if !in_scope(fid) {
            continue;
        }
        let f = &syms.fns[fid];
        let file = &files[f.file];
        let hits = primitives_in(&file.lexed.tokens, f.item.body.clone());
        if hits.is_empty() {
            continue;
        }
        *d = true;
        let line = hits[0].1;
        let mut names: Vec<String> = Vec::new();
        for (n, _) in &hits {
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        let qualified = qualified_name(&f.item.owner, &f.item.name);
        let message =
            format!("fn `{qualified}` touches IO primitives directly ({})", names.join(", "));
        push(out, &file.path, line, "W001", message);
    }

    // W002: transitive reach, propagated caller-ward to a fixpoint
    // along *confident* edges only — an ambiguous shared name must
    // not smear a weld onto an unrelated function. `via[f]` records
    // the callee that welded f, for the message.
    let mut welded = direct.clone();
    let mut via: Vec<Option<usize>> = vec![None; syms.fns.len()];
    let mut queue: VecDeque<usize> = (0..syms.fns.len()).filter(|&f| direct[f]).collect();
    while let Some(f) = queue.pop_front() {
        for &caller in &graph.callers_sure[f] {
            if !welded[caller] && in_scope(caller) {
                welded[caller] = true;
                via[caller] = Some(f);
                queue.push_back(caller);
            }
        }
    }
    for (v, f) in via.iter().zip(&syms.fns) {
        let Some(callee) = *v else { continue };
        let file = &files[f.file];
        let qualified = qualified_name(&f.item.owner, &f.item.name);
        let callee_name = qualified_name(&syms.fns[callee].item.owner, &syms.fns[callee].item.name);
        let message = format!("fn `{qualified}` reaches an IO weld via `{callee_name}`");
        push(out, &file.path, f.item.line, "W002", message);
    }

    // W003: IO-module imports, per use item.
    for file in files {
        if !config.in_weld_scope(&file.path) || config.is_weld_facade(&file.path) {
            continue;
        }
        for u in &file.parsed.uses {
            if file.in_test(u.line) {
                continue;
            }
            let Some(module) = io_import(&u.idents) else { continue };
            let message = format!("IO-module import (`{module}`) in weld scope");
            push(out, &file.path, u.line, "W003", message);
        }
    }
}

fn qualified_name(owner: &Option<String>, name: &str) -> String {
    match owner {
        Some(o) => format!("{o}::{name}"),
        None => name.to_string(),
    }
}

/// IO primitives mentioned in a body token range, as `(name, line)`,
/// in token order.
fn primitives_in(
    tokens: &[crate::lexer::Token],
    body: std::ops::Range<usize>,
) -> Vec<(String, u32)> {
    let mut hits = Vec::new();
    for i in body {
        let Some(id) = ident_at(tokens, i) else { continue };
        let line = tokens[i].line;
        match id {
            "Instant" | "SystemTime" | "TcpStream" | "TcpListener" | "UdpSocket" | "thread_rng"
            | "OsRng" | "from_entropy" | "getrandom" => {
                hits.push((id.to_string(), line));
            }
            "thread" if is_punct(tokens, i + 1, "::") => {
                if let Some(m @ ("spawn" | "sleep" | "Builder")) = ident_at(tokens, i + 2) {
                    hits.push((format!("thread::{m}"), line));
                }
            }
            "fs" | "process" | "mpsc" if is_punct(tokens, i + 1, "::") => {
                hits.push((format!("{id}::*"), line));
            }
            "unbounded" | "bounded" if is_punct(tokens, i + 1, "(") => {
                hits.push((format!("{id}() channel"), line));
            }
            "spawn" if i > 0 && is_punct(tokens, i - 1, ".") && is_punct(tokens, i + 1, "(") => {
                hits.push((".spawn()".to_string(), line));
            }
            _ => {}
        }
    }
    hits
}

/// When a flattened `use` ident list names an IO module, the module it
/// names (for the message); `None` otherwise.
fn io_import(idents: &[String]) -> Option<String> {
    let has = |n: &str| idents.iter().any(|i| i == n);
    if has("std") {
        for m in ["net", "fs", "process", "thread"] {
            if has(m) {
                return Some(format!("std::{m}"));
            }
        }
        if has("time") && (has("Instant") || has("SystemTime")) {
            return Some("std::time::Instant".to_string());
        }
    }
    if has("mpsc") {
        return Some("mpsc".to_string());
    }
    if has("crossbeam") {
        return Some("crossbeam".to_string());
    }
    None
}
