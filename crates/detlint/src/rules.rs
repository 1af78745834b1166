//! The rule catalog: ids, one-line titles, and fix hints.
//!
//! Five families (DESIGN.md §6 carries the long-form rationale):
//!
//! * **D — determinism hazards.** The simulation's correctness story
//!   (linearizability checks, the golden FNV-1a delivered-command
//!   hash, bit-identical parallel sweeps) requires every replica-side
//!   computation to be a pure function of the seed. Wall clocks, OS
//!   entropy, environment reads, randomly-keyed hash containers and
//!   host IO (sockets, threads, channels, files) all smuggle
//!   per-process state into that function.
//! * **P — protocol-handler hygiene.** Message-delivery and on-wire
//!   decode paths run against peer-controlled input under the nemesis
//!   (crashes, replays, reordering). A `panic!` there takes down a
//!   replica; the protocol is designed to degrade by dropping and
//!   counting instead.
//! * **X — exec-scheduler determinism** ([`crate::sched`]) and **T —
//!   wire-enum totality** ([`crate::totality`]).
//! * **S — suppression governance.** Findings are silenced only by an
//!   inline `// detlint::allow(<rule>): <justification>` directive;
//!   the justification is mandatory and unused directives are errors,
//!   so suppressions cannot rot. Neither can the config: a function name
//!   in `detlint.toml` that matches nothing is an error too (S004).

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub title: &'static str,
    pub hint: &'static str,
}

/// Every rule detlint knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        title: "wall-clock time (`Instant`/`SystemTime`) in simulation-facing code",
        hint: "use the simulated clock (`SimTime` via `Ctx`/`now`) so runs replay from the seed",
    },
    RuleInfo {
        id: "D002",
        title: "OS entropy (`thread_rng`/`OsRng`/`from_entropy`/`getrandom`) in simulation-facing code",
        hint: "derive randomness from the run seed (`StdRng::seed_from_u64`) threaded through config",
    },
    RuleInfo {
        id: "D003",
        title: "`std::env` read in simulation-facing code",
        hint: "route configuration through SimConfig/ClusterConfig so a run is fully described by its inputs",
    },
    RuleInfo {
        id: "D004",
        title: "`thread::sleep` in simulation-facing code",
        hint: "schedule a timer on the simulated clock instead of blocking the OS thread",
    },
    RuleInfo {
        id: "D005",
        title: "default-`RandomState` `HashMap`/`HashSet` in simulation-facing code",
        hint: "use `runtime::hash::{FastHashMap,FastHashSet}` or a `BTreeMap`, and sort before any effect-emitting iteration",
    },
    RuleInfo {
        id: "D006",
        title: "host IO (sockets, `thread::spawn`/`Builder`, `fs::`/`process::`/`mpsc::`, channel constructors, `.spawn()`) in simulation-facing code",
        hint: "model it as a simulated message, timer or actor; the simulator is the only thing that runs the hosts",
    },
    RuleInfo {
        id: "D007",
        title: "host-IO module import (`std::{net,fs,process,thread}`, `mpsc`, `crossbeam`) in simulation-facing code",
        hint: "drop the import; simulation-facing code reaches the host only through the simulator",
    },
    RuleInfo {
        id: "P001",
        title: "`.unwrap()` on a protocol message-delivery/decode path",
        hint: "degrade gracefully: drop the message, bump a counter, and let retransmission recover",
    },
    RuleInfo {
        id: "P002",
        title: "`.expect()` on a protocol message-delivery/decode path",
        hint: "degrade gracefully: drop the message, bump a counter, and let retransmission recover",
    },
    RuleInfo {
        id: "P003",
        title: "panic-family macro (`panic!`/`unreachable!`/`todo!`/`unimplemented!`) on a protocol path",
        hint: "return an error or drop-and-count; a replica must survive malformed or replayed input",
    },
    RuleInfo {
        id: "P004",
        title: "slice/array indexing inside an on-wire decode function",
        hint: "use `get(..)`/`split_at_checked`/`try_into` with an error path; wire input controls these offsets",
    },
    RuleInfo {
        id: "T001",
        title: "wire-enum variant never constructed or matched in non-test code",
        hint: "dead protocol surface: remove the variant or wire up its send path",
    },
    RuleInfo {
        id: "T002",
        title: "catch-all arm in a wire-enum match inside a designated handler",
        hint: "enumerate the remaining variants (drop-and-count each explicitly) so adding a variant fails the build instead of vanishing",
    },
    RuleInfo {
        id: "T003",
        title: "wire-enum variant with no test coverage",
        hint: "mention the variant in a test (decode/roundtrip or handler-path) so its wire path cannot silently rot",
    },
    RuleInfo {
        id: "X001",
        title: "unordered hash container in exec-scheduler code",
        hint: "scheduler decisions must not depend on hash-iteration order; use Vec/VecDeque/BTreeMap",
    },
    RuleInfo {
        id: "X002",
        title: "shared-mutability primitive in exec-scheduler code",
        hint: "thread scheduler state through &mut self; shared mutable state breaks replica bit-identity",
    },
    RuleInfo {
        id: "S001",
        title: "malformed `detlint::allow` directive or missing justification",
        hint: "write `// detlint::allow(RULE): why this occurrence is sound`",
    },
    RuleInfo {
        id: "S002",
        title: "unused `detlint::allow` directive",
        hint: "delete the directive; it no longer suppresses anything",
    },
    RuleInfo {
        id: "S003",
        title: "unknown rule id in `detlint::allow` directive",
        hint: "use an id from `detlint --list-rules`",
    },
    RuleInfo {
        id: "S004",
        title: "`detlint.toml` names a handler function that does not exist",
        hint: "fix or delete the entry: a handler name that resolves to nothing silently shrinks what T002 checks",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// True if `id` names a suppressible rule (S rules are about the
/// directives themselves and cannot be suppressed by one).
pub fn suppressible(id: &str) -> bool {
    rule(id).is_some() && !id.starts_with('S')
}
