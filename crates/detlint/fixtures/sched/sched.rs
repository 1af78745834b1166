//! X-family fixture: no code of an exec-scheduler file may name an
//! unordered map or shared mutable state, whoever calls it.

use std::cell::RefCell;
use std::collections::HashMap;

pub struct Sched {
    busy: Vec<u64>,
}

impl Sched {
    pub fn run(&self) -> u64 {
        self.pick() + self.tally() + self.sanctioned()
    }

    fn pick(&self) -> u64 {
        let m: HashMap<u32, u64> = HashMap::new();
        m.values().sum::<u64>()
    }

    fn tally(&self) -> u64 {
        let c = RefCell::new(self.busy.len() as u64);
        let v = *c.borrow();
        v
    }

    fn sanctioned(&self) -> u64 {
        // detlint::allow(X001): fixture shows a justified unordered map (drained, never iterated)
        let m: HashMap<u32, u64> = HashMap::new();
        m.len() as u64
    }
}

pub fn unreachable_helper() -> usize {
    let m: HashMap<u32, u64> = HashMap::new();
    m.len()
}
