//! The benchmark's side of the `Application` trait: a wrapper that times
//! the two calls the program makes into the application.
//!
//! `Application` has no `self` and carries no command id, so spans are
//! aggregated per command class in process-wide counters and cannot be
//! linked to one command. Every replica of a partition executes every
//! command, so one command shows up as several `execute` spans.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use dynastar_core::{AccessSets, Application, Command, CommandKind, LocKey, VarId, Workload};
use dynastar_runtime::{SimDuration, SimTime};
use rand::rngs::StdRng;

use crate::recorder::{Kinded, KINDS};

/// Calls and wall nanoseconds of one traced entry point, per command class.
pub struct SpanTotals {
    calls: [AtomicU64; KINDS.len()],
    nanos: [AtomicU64; KINDS.len()],
}

impl SpanTotals {
    const fn new() -> Self {
        SpanTotals {
            calls: [const { AtomicU64::new(0) }; KINDS.len()],
            nanos: [const { AtomicU64::new(0) }; KINDS.len()],
        }
    }

    fn add(&self, kind: u8, started: Instant) {
        // Statistics only: nothing is published through these counters.
        self.calls[kind as usize].fetch_add(1, Relaxed);
        self.nanos[kind as usize].fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
    }

    /// `(calls, nanoseconds)` for command class `kind`.
    pub fn of(&self, kind: usize) -> (u64, u64) {
        (self.calls[kind].load(Relaxed), self.nanos[kind].load(Relaxed))
    }

    /// Zeroes the totals (before a traced run).
    pub fn reset(&self) {
        for k in 0..KINDS.len() {
            self.calls[k].store(0, Relaxed);
            self.nanos[k].store(0, Relaxed);
        }
    }
}

/// Spans around `Application::execute`.
pub static EXECUTE: SpanTotals = SpanTotals::new();
/// Spans around `Application::classify`.
pub static CLASSIFY: SpanTotals = SpanTotals::new();

/// `A` with a wall-clock span around each call the program makes into it.
/// Same operations, values and replies, so the simulated schedule is the
/// untraced one exactly.
pub struct Traced<A>(PhantomData<fn() -> A>);

impl<A> Application for Traced<A>
where
    A: Application,
    A::Op: Kinded,
{
    type Op = A::Op;
    type Value = A::Value;
    type Reply = A::Reply;

    fn locality(var: VarId) -> LocKey {
        A::locality(var)
    }

    fn execute(op: &A::Op, vars: &mut BTreeMap<VarId, Option<A::Value>>) -> A::Reply {
        let started = Instant::now();
        let reply = A::execute(op, vars);
        EXECUTE.add(op.kind(), started);
        reply
    }

    fn classify(op: &A::Op, vars: &[VarId]) -> AccessSets {
        let started = Instant::now();
        let sets = A::classify(op, vars);
        CLASSIFY.add(op.kind(), started);
        sets
    }
}

fn retag<A, B>(kind: CommandKind<A>) -> CommandKind<B>
where
    A: Application,
    B: Application<Op = A::Op, Value = A::Value>,
{
    match kind {
        CommandKind::CreateKey { key, vars } => CommandKind::CreateKey { key, vars },
        CommandKind::Access { op, vars } => CommandKind::Access { op, vars },
        CommandKind::DeleteKey { key } => CommandKind::DeleteKey { key },
    }
}

/// Lets a generator written for `A` drive a cluster of [`Traced<A>`].
pub struct Retag<A, W>(W, PhantomData<fn() -> A>);

impl<A, W> Retag<A, W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Retag(inner, PhantomData)
    }
}

impl<A, W> Workload<Traced<A>> for Retag<A, W>
where
    A: Application,
    A::Op: Kinded,
    W: Workload<A>,
{
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<Traced<A>>> {
        self.0.next_command(now, rng).map(retag)
    }

    fn on_completed(&mut self, now: SimTime, cmd: &Command<Traced<A>>, reply: Option<&A::Reply>) {
        // The one copy tracing adds; it shows up in `trace.overhead_share`.
        let cmd = Command::<A> { id: cmd.id, client: cmd.client, kind: retag(cmd.kind.clone()) };
        self.0.on_completed(now, &cmd, reply);
    }

    fn think_time(&mut self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        self.0.think_time(now, rng)
    }
}
