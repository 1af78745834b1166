//! X rules — exec-scheduler determinism.
//!
//! The PR 8 worker-pool scheduler must produce bit-identical
//! schedules on every replica: its decisions feed the golden
//! delivered-command hashes. Helpers reachable from the scheduler
//! roots (see `scheduler_roots` in detlint.toml) therefore must not:
//!
//! * **X001** — name an unordered hash container
//!   (`HashMap`/`HashSet`/`FastHashMap`/`FastHashSet`). Even the
//!   deterministic-hasher variants order their iteration by hash, so
//!   a scheduler decision derived from iteration order couples the
//!   schedule to incidental key history; ordered structures
//!   (`Vec`/`VecDeque`/`BTreeMap`) keep the coupling visible.
//! * **X002** — use shared-mutability primitives (`RefCell`, `Cell`,
//!   `Mutex`, `RwLock`, `UnsafeCell`, atomics, `static mut`,
//!   `thread_local`). Scheduler state must flow through `&mut self`
//!   so the simulator's single-threaded replay and a future threaded
//!   backend execute the same decision sequence.

use crate::callgraph::{self, CallGraph};
use crate::config::Config;
use crate::engine::{push, Finding};
use crate::parser::ident_at;
use crate::symbols::{SourceFile, SymbolTable};

pub fn run(
    files: &[SourceFile],
    syms: &SymbolTable,
    graph: &CallGraph,
    config: &Config,
    out: &mut Vec<Finding>,
) {
    // Roots: scheduler_roots specs resolved within scheduler_scope.
    let mut roots = Vec::new();
    for spec in &config.scheduler_roots {
        for id in syms.resolve_spec(spec) {
            let path = files[syms.fns[id].file].path.as_str();
            if config.in_scheduler_scope(path) {
                roots.push(id);
            }
        }
    }
    if roots.is_empty() {
        return;
    }
    let seen = callgraph::reachable(graph, &roots);

    for (f, _) in syms.fns.iter().zip(&seen).filter(|&(f, &s)| s && !f.item.is_test) {
        let file = &files[f.file];
        let tokens = &file.lexed.tokens;
        for i in f.item.body.clone() {
            let Some(id) = ident_at(tokens, i) else { continue };
            let line = tokens[i].line;
            match id {
                "HashMap" | "HashSet" | "FastHashMap" | "FastHashSet" => {
                    push(
                        out,
                        &file.path,
                        line,
                        "X001",
                        format!(
                            "unordered container `{id}` in scheduler-reachable fn `{}`",
                            f.item.name
                        ),
                    );
                }
                "RefCell" | "Cell" | "Mutex" | "RwLock" | "UnsafeCell" | "thread_local" => {
                    push(
                        out,
                        &file.path,
                        line,
                        "X002",
                        format!(
                            "shared-mutability primitive `{id}` in scheduler-reachable fn `{}`",
                            f.item.name
                        ),
                    );
                }
                _ if id.starts_with("Atomic") => {
                    push(
                        out,
                        &file.path,
                        line,
                        "X002",
                        format!("atomic `{id}` in scheduler-reachable fn `{}`", f.item.name),
                    );
                }
                "static" if ident_at(tokens, i + 1) == Some("mut") => {
                    push(
                        out,
                        &file.path,
                        line,
                        "X002",
                        format!("`static mut` in scheduler-reachable fn `{}`", f.item.name),
                    );
                }
                _ => {}
            }
        }
    }
}
