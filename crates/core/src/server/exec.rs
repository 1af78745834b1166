//! The modelled execution engine of one replica: *when* the queue head may
//! run — a P-SMR / CBASE-style worker pool over the delivered command
//! stream.
//!
//! Commands still *apply* strictly in delivery order on every replica —
//! parallelism is purely a timing model deciding when the queue head is
//! admitted, so replicas stay bit-identical regardless of `workers` and an
//! inaccurate [`Application::classify`] can only skew modelled time, never
//! state. The server asks three things of it: [`ExecScheduler::gate`] (when
//! may the head run), [`ExecScheduler::admit`] (the head ran: occupy a
//! worker) and [`ExecScheduler::charge`] (a single-shipment migration
//! transfer occupies one too). The clocks never leave this module.

use std::collections::VecDeque;

use dynastar_amcast::MsgId;
use dynastar_runtime::{HistogramId, Interned, Metrics, SimDuration, SimTime};

use crate::command::{AccessSets, Application, Command, CommandKind};
use crate::metric_names as mn;

/// The execution engine's tunables. With `workers = 1` the schedule is
/// exactly a serial executor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Modelled parallel execution workers per replica. `1` is the serial
    /// executor (all golden hashes are pinned on it).
    pub workers: u32,
    /// Modelled CPU time per command execution. A worker is busy for this
    /// long after executing; queued commands wait for a free,
    /// non-conflicting slot. Zero disables the model entirely (commands
    /// execute instantaneously). This is what bounds a partition's
    /// throughput and produces saturation behaviour.
    pub service_time: SimDuration,
    /// Sliding dependency-window capacity: how many admitted-but-
    /// unfinished commands are tracked for conflict decisions. When the
    /// window is full, admission stalls until the earliest in-flight
    /// command finishes (counted as `exec.window_stall`).
    pub window: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { workers: 1, service_time: SimDuration::ZERO, window: 64 }
    }
}

impl ExecConfig {
    /// The classic serial executor with the given per-command cost.
    pub fn serial(service_time: SimDuration) -> Self {
        ExecConfig { service_time, ..Self::default() }
    }

    /// A pool of `workers` with the given per-command cost.
    pub fn pool(workers: u32, service_time: SimDuration) -> Self {
        ExecConfig { workers: workers.max(1), service_time, ..Self::default() }
    }
}

/// What the scheduler looks at in the queue head.
#[derive(Debug, Clone, Copy)]
pub(super) enum Head<'a> {
    /// Creates, deletes, plans, reverts: a full barrier, admitted once
    /// every worker has drained.
    Barrier,
    /// A command, with the sets [`ExecScheduler::classify`] gave it.
    Access { id: MsgId, attempt: u32, sets: Option<&'a AccessSets> },
}

/// What the dependency window saw when it admitted a command — the
/// counters the server records for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Admitted {
    /// The worker the command occupies (its busy histogram observes the
    /// service time).
    pub worker: usize,
    /// Another command was still executing (`exec.parallel`).
    pub parallel: bool,
    /// It had waited out a conflicting predecessor (`exec.serialized`).
    pub serialized: bool,
    /// It had waited for room in the window (`exec.window_stall`).
    pub window_stall: bool,
}

/// Clamps a busy clock forward to `now` and charges `cost` on top — the
/// one accounting primitive under command execution and single-shipment
/// transfer time, so the two models can't drift apart.
fn advance_busy(clock: &mut SimTime, now: SimTime, cost: SimDuration) {
    if *clock < now {
        *clock = now;
    }
    *clock += cost;
}

/// One admitted-but-unfinished command in the dependency window.
#[derive(Debug, Clone)]
struct WindowEntry {
    /// Its declared read/write sets (from [`Application::classify`]).
    sets: AccessSets,
    /// When its assigned worker finishes it.
    finish: SimTime,
}

/// Marks the queue head as stalled by the scheduler so the stall is
/// counted once per `(cmd, attempt)` at admission, not once per gate.
#[derive(Debug, Clone, Copy)]
struct PendingStall {
    id: MsgId,
    attempt: u32,
    /// Gate was raised by a read/write conflict with an in-flight command.
    conflicted: bool,
    /// Gate was raised because the dependency window was at capacity.
    window_full: bool,
}

/// Per-worker busy clocks plus the sliding dependency window of admitted,
/// unfinished commands. With one worker the window stays empty and
/// `clocks[0]` is the one busy clock of a serial executor.
#[derive(Debug, Clone)]
pub(super) struct ExecScheduler {
    cfg: ExecConfig,
    /// One modelled busy-until clock per worker.
    clocks: Vec<SimTime>,
    /// Admitted commands whose modelled execution has not finished.
    window: VecDeque<WindowEntry>,
    /// Stall attribution for the current queue head, if any.
    pending: Option<PendingStall>,
    /// Pre-rendered per-worker busy-histogram names.
    name_worker_busy: Vec<String>,
    /// Their interned ids.
    worker_busy_ids: Interned<Vec<HistogramId>>,
}

impl ExecScheduler {
    pub(super) fn new(cfg: ExecConfig) -> Self {
        let workers = cfg.workers.max(1);
        ExecScheduler {
            cfg,
            clocks: vec![SimTime::ZERO; workers as usize],
            window: VecDeque::new(),
            pending: None,
            name_worker_busy: (0..workers).map(mn::exec_worker_busy).collect(),
            worker_busy_ids: Interned::default(),
        }
    }

    /// The command's read/write sets, normalized for
    /// [`AccessSets::conflicts_with`] — classified once, at delivery.
    /// `None` when admission does not depend on them: only a pool of
    /// several workers with a non-zero cost keeps a dependency window.
    pub(super) fn classify<A: Application>(&self, cmd: &Command<A>) -> Option<AccessSets> {
        (self.cfg.workers > 1 && !self.cfg.service_time.is_zero()).then(|| {
            match &cmd.kind {
                CommandKind::Access { op, vars } => A::classify(op, vars),
                _ => AccessSets::write_all(&cmd.vars()),
            }
            .normalized()
        })
    }

    /// The earliest-free worker; ties break to the lowest index so
    /// assignment is a pure function of the clock vector
    /// (replica-deterministic).
    fn earliest_free_worker(&self) -> usize {
        let mut best = 0;
        for (i, &c) in self.clocks.iter().enumerate().skip(1) {
            if c < self.clocks[best] {
                best = i;
            }
        }
        best
    }

    /// Records (or merges) stall attribution for the queue head.
    fn note_stall(&mut self, stall: PendingStall) {
        match &mut self.pending {
            Some(p) if p.id == stall.id && p.attempt == stall.attempt => {
                p.conflicted |= stall.conflicted;
                p.window_full |= stall.window_full;
            }
            slot => *slot = Some(stall),
        }
    }

    /// When the engine can admit `head`; a gate past `now` raised by a
    /// conflict or a full window is remembered as stall attribution for
    /// [`Self::admit`].
    ///
    /// An `Access` head must find a free worker and wait out every
    /// in-flight command its read/write sets conflict with (CBASE rule:
    /// conflict iff one's writes intersect the other's reads∪writes).
    /// Everything else is a full barrier.
    ///
    /// `#[inline]`, like [`Self::admit`]: both sit on the per-command path
    /// of the generic `ServerCore<A>`, which is compiled in the crate that
    /// names `A`; without it these are calls across the crate boundary.
    #[inline]
    pub(super) fn gate(&mut self, head: Head<'_>, now: SimTime) -> SimTime {
        self.window.retain(|e| e.finish > now);
        let Head::Access { id, attempt, sets } = head else {
            // Worker clocks only ever grow past window finish times, so
            // max(clocks) covers every in-flight command.
            return self.clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
        };
        // A worker must be free…
        let mut gate = self.clocks.iter().copied().min().unwrap_or(SimTime::ZERO);
        let Some(sets) = sets else {
            // Execution itself is free (the window stays empty); only
            // single-shipment migration charges occupy the clocks.
            return gate;
        };
        // …every conflicting predecessor must have finished…
        let mut conflicted = false;
        for e in &self.window {
            if sets.conflicts_with(&e.sets) {
                conflicted = true;
                gate = gate.max(e.finish);
            }
        }
        // …and the window must have room to track the admission.
        let window_full = self.window.len() >= self.cfg.window.max(1) as usize;
        if window_full {
            if let Some(first_out) = self.window.iter().map(|e| e.finish).min() {
                gate = gate.max(first_out);
            }
        }
        if now < gate && (conflicted || window_full) {
            self.note_stall(PendingStall { id, attempt, conflicted, window_full });
        }
        gate
    }

    /// Accounts the modelled CPU cost of one execution: assigns the
    /// command to the earliest-free worker, charges the service time, and
    /// registers its `sets` in the dependency window so successors
    /// conflict-check against it. `None` when there is no window to report
    /// on (zero cost, or the one clock of a serial executor).
    ///
    /// Only called once [`Self::gate`] has passed, so the chosen worker's
    /// clock is at or before `now`.
    #[inline]
    pub(super) fn admit(
        &mut self,
        id: MsgId,
        attempt: u32,
        sets: Option<AccessSets>,
        now: SimTime,
    ) -> Option<Admitted> {
        let cost = self.cfg.service_time;
        if cost.is_zero() {
            return None;
        }
        let Some(sets) = sets else {
            advance_busy(&mut self.clocks[0], now, cost);
            return None;
        };
        let worker = self.earliest_free_worker();
        advance_busy(&mut self.clocks[worker], now, cost);
        let stall = self.pending.take().filter(|s| s.id == id && s.attempt == attempt);
        let admitted = Admitted {
            worker,
            parallel: !self.window.is_empty(),
            serialized: stall.is_some_and(|s| s.conflicted),
            window_stall: stall.is_some_and(|s| s.window_full),
        };
        self.window.push_back(WindowEntry { sets, finish: self.clocks[worker] });
        Some(admitted)
    }

    /// Occupies the earliest-free worker for `cost` — the whole-key wire
    /// time of a single-shipment migration transfer.
    pub(super) fn charge(&mut self, now: SimTime, cost: SimDuration) {
        let w = self.earliest_free_worker();
        advance_busy(&mut self.clocks[w], now, cost);
    }

    /// The interned busy-histogram id of worker `w`.
    pub(super) fn worker_hist(&mut self, metrics: &mut Metrics, w: usize) -> HistogramId {
        let names = &self.name_worker_busy;
        self.worker_busy_ids.get(metrics, |m| names.iter().map(|n| m.histogram_id(n)).collect())[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::VarId;

    const COST: SimDuration = SimDuration::from_millis(10);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sets(reads: &[u64], writes: &[u64]) -> AccessSets {
        let vars = |xs: &[u64]| xs.iter().map(|&v| VarId(v)).collect();
        AccessSets { reads: vars(reads), writes: vars(writes) }.normalized()
    }

    fn pool(workers: u32, window: u32) -> ExecScheduler {
        ExecScheduler::new(ExecConfig { workers, service_time: COST, window })
    }

    fn gate(s: &mut ExecScheduler, seq: u32, sets: &AccessSets, now: SimTime) -> SimTime {
        s.gate(Head::Access { id: MsgId::new(1, seq), attempt: 0, sets: Some(sets) }, now)
    }

    /// Command `seq` finds its gate open at `now` and is admitted.
    fn run(s: &mut ExecScheduler, seq: u32, sets: &AccessSets, now: SimTime) -> Admitted {
        assert!(gate(s, seq, sets, now) <= now, "command {seq} is gated at {now}");
        s.admit(MsgId::new(1, seq), 0, Some(sets.clone()), now).expect("a pool reports")
    }

    #[test]
    fn a_barrier_gates_on_the_latest_clock() {
        let mut s = pool(2, 64);
        run(&mut s, 0, &sets(&[], &[1]), at(0));
        run(&mut s, 1, &sets(&[], &[2]), at(2));
        // Worker 0 is busy until 10, worker 1 until 12: a command may take
        // the first to free up, a barrier waits for both.
        assert_eq!(gate(&mut s, 2, &sets(&[], &[3]), at(3)), at(10));
        assert_eq!(s.gate(Head::Barrier, at(3)), at(12));
    }

    #[test]
    fn two_reads_admit_in_parallel_and_ties_go_to_the_lowest_worker() {
        let mut s = pool(3, 64);
        let read = sets(&[7], &[]);
        let first = run(&mut s, 0, &read, at(0));
        let second = run(&mut s, 1, &read, at(0));
        assert_eq!(
            first,
            Admitted { worker: 0, parallel: false, serialized: false, window_stall: false }
        );
        // Workers 1 and 2 are equally free: the lower index wins.
        assert_eq!(
            second,
            Admitted { worker: 1, parallel: true, serialized: false, window_stall: false }
        );
    }

    #[test]
    fn a_write_waits_for_the_conflicting_finish() {
        let mut s = pool(2, 64);
        run(&mut s, 0, &sets(&[], &[7]), at(0));
        let read = sets(&[7], &[]);
        // A worker is free, the variable is not.
        assert_eq!(gate(&mut s, 1, &read, at(1)), at(10));
        let admitted = run(&mut s, 1, &read, at(10));
        assert!(admitted.serialized && !admitted.window_stall);
        // Its predecessor had finished by then: nothing ran beside it.
        assert!(!admitted.parallel);
    }

    #[test]
    fn a_full_window_gates_on_the_earliest_finish_and_is_attributed_once() {
        let mut s = pool(4, 2);
        run(&mut s, 0, &sets(&[], &[1]), at(0));
        run(&mut s, 1, &sets(&[], &[2]), at(1));
        // Two workers are free and nothing conflicts, but the window
        // tracks two commands: the third waits for the first to leave it.
        let third = sets(&[], &[3]);
        assert_eq!(gate(&mut s, 2, &third, at(2)), at(10));
        assert_eq!(gate(&mut s, 2, &third, at(5)), at(10));
        let admitted = run(&mut s, 2, &third, at(10));
        assert!(admitted.window_stall && !admitted.serialized && admitted.parallel);
        // The stall was the third command's: the next one, which finds
        // room at once, carries none of it.
        let fourth = run(&mut s, 3, &sets(&[], &[4]), at(11));
        assert!(!fourth.window_stall && !fourth.serialized);
    }

    #[test]
    fn a_stall_is_not_attributed_to_another_attempt() {
        let mut s = pool(2, 64);
        run(&mut s, 0, &sets(&[], &[7]), at(0));
        let write = sets(&[], &[7]);
        assert_eq!(gate(&mut s, 1, &write, at(1)), at(10));
        // The stalled attempt never runs here; attempt 1 of the command does.
        let id = MsgId::new(1, 1);
        assert_eq!(s.gate(Head::Access { id, attempt: 1, sets: Some(&write) }, at(10)), at(0));
        let admitted = s.admit(id, 1, Some(write), at(10)).expect("a pool reports");
        assert!(!admitted.serialized);
    }

    #[test]
    fn one_worker_is_one_busy_clock() {
        let mut s = ExecScheduler::new(ExecConfig::serial(COST));
        let id = MsgId::new(1, 0);
        let head = Head::Access { id, attempt: 0, sets: None };
        assert_eq!(s.gate(head, at(0)), at(0));
        // Nothing to report: there is no window.
        assert_eq!(s.admit(id, 0, None, at(0)), None);
        // Commands and barriers alike wait for the one clock…
        assert_eq!(s.gate(head, at(1)), at(10));
        assert_eq!(s.gate(Head::Barrier, at(1)), at(10));
        // …which an idle gap does not shorten.
        assert_eq!(s.admit(id, 0, None, at(25)), None);
        assert_eq!(s.gate(head, at(26)), at(35));
    }

    #[test]
    fn a_free_engine_never_gates() {
        let mut s = ExecScheduler::new(ExecConfig::pool(4, SimDuration::ZERO));
        let id = MsgId::new(1, 0);
        assert_eq!(s.admit(id, 0, None, at(3)), None);
        assert_eq!(s.gate(Head::Access { id, attempt: 0, sets: None }, at(3)), at(0));
        assert_eq!(s.gate(Head::Barrier, at(3)), at(0));
    }

    #[test]
    fn a_charge_delays_the_next_gate() {
        let mut serial = ExecScheduler::new(ExecConfig::serial(COST));
        serial.charge(at(5), SimDuration::from_millis(30));
        assert_eq!(serial.gate(Head::Barrier, at(6)), at(35));

        // A pool charges its earliest-free worker: commands still find the
        // other, a barrier waits the transfer out.
        let mut s = pool(2, 64);
        s.charge(at(0), SimDuration::from_millis(30));
        assert_eq!(gate(&mut s, 0, &sets(&[], &[1]), at(1)), at(0));
        assert_eq!(s.gate(Head::Barrier, at(1)), at(30));
        s.charge(at(1), SimDuration::from_millis(4));
        assert_eq!(gate(&mut s, 0, &sets(&[], &[1]), at(2)), at(5));
    }
}
