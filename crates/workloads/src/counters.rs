//! The toy counters application the probes and keyspace scenarios share:
//! one integer variable per locality key; a command adds its operand to
//! every variable it names and replies with the last sum.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynastar_core::{Application, Command, CommandKind, LocKey, VarId, Workload};
use dynastar_runtime::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// One variable per locality key; commands add to every named variable.
pub struct Counters;

impl Application for Counters {
    type Op = i64;
    type Value = i64;
    type Reply = i64;
    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }
    fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> i64 {
        let mut last = 0;
        for v in vars.values_mut() {
            last = v.unwrap_or(0) + op;
            *v = Some(last);
        }
        last
    }
}

/// A closed-loop client issuing `remaining` increments over variables
/// `0..vars`, chosen uniformly; `multi_pct`% of them name a second,
/// distinct variable. `completed` counts commands that got a reply.
pub struct UniformLoad {
    /// Size of the variable domain.
    pub vars: u64,
    /// Commands still to issue.
    pub remaining: u32,
    /// Percentage of two-variable commands.
    pub multi_pct: u32,
    /// Commands completed with a reply, shared across clients.
    pub completed: Arc<Mutex<u32>>,
}

impl Workload<Counters> for UniformLoad {
    fn next_command(&mut self, _now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Counters>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let a = rng.gen_range(0..self.vars);
        let mut vars = vec![VarId(a)];
        if rng.gen_range(0..100u32) < self.multi_pct {
            let b = (a + 1 + rng.gen_range(0..self.vars - 1)) % self.vars;
            vars.push(VarId(b));
        }
        Some(CommandKind::Access { op: 1, vars })
    }

    fn on_completed(&mut self, _now: SimTime, _cmd: &Command<Counters>, reply: Option<&i64>) {
        if reply.is_some() {
            *self.completed.lock().expect("completed counter poisoned") += 1;
        }
    }
}
