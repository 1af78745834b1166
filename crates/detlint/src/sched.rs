//! X rules — exec-scheduler determinism.
//!
//! The worker-pool scheduler must produce bit-identical schedules on
//! every replica: its decisions feed the golden delivered-command
//! hashes. The non-test code of the `scheduler_scope` files therefore
//! must not:
//!
//! * **X001** — name an unordered hash container
//!   (`HashMap`/`HashSet`/`FastHashMap`/`FastHashSet`). Even the
//!   deterministic-hasher variants order their iteration by hash, so
//!   a scheduler decision derived from iteration order couples the
//!   schedule to incidental key history; ordered structures
//!   (`Vec`/`VecDeque`/`BTreeMap`) keep the coupling visible.
//! * **X002** — use shared-mutability primitives (`RefCell`, `Cell`,
//!   `Mutex`, `RwLock`, `UnsafeCell`, atomics, `static mut`,
//!   `thread_local`). Scheduler state flows through `&mut self`, so the
//!   schedule is a function of the delivered command sequence alone.

use crate::lexer::Token;
use crate::parser::ident_at;

/// The X finding at token `i`, if any.
pub(crate) fn finding(tokens: &[Token], i: usize) -> Option<(&'static str, String)> {
    let id = ident_at(tokens, i)?;
    Some(match id {
        "HashMap" | "HashSet" | "FastHashMap" | "FastHashSet" => {
            ("X001", format!("unordered container `{id}` in scheduler code"))
        }
        "RefCell" | "Cell" | "Mutex" | "RwLock" | "UnsafeCell" | "thread_local" => {
            ("X002", format!("shared-mutability primitive `{id}` in scheduler code"))
        }
        _ if id.starts_with("Atomic") => ("X002", format!("atomic `{id}` in scheduler code")),
        "static" if ident_at(tokens, i + 1) == Some("mut") => {
            ("X002", "`static mut` in scheduler code".to_string())
        }
        _ => return None,
    })
}
