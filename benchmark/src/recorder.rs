//! The benchmark's side of the `Workload` trait: a wrapper that paces a
//! generator from outside and records one line per command.
//!
//! The program calls a workload at exactly three points — for the next
//! command, on its completion, and for the think time before the next —
//! so wrapping the generator observes every command's submit and
//! completion time without touching the program.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::time::Instant;

use dynastar_core::{Application, Command, CommandKind, Workload};
use dynastar_runtime::{SimDuration, SimTime};
use dynastar_workloads::chirper::{ChirperOp, ChirperReply};
use dynastar_workloads::tpcc::{TpccOp, TpccReply};
use rand::rngs::StdRng;

/// Command classes the per-class latency metrics are split by.
pub const KINDS: [&str; 8] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
    "timeline",
    "post",
    "other",
];

/// Index in [`KINDS`] of everything no per-class metric is split out for.
const OTHER: u8 = 7;

/// Maps an operation to its index in [`KINDS`].
pub trait Kinded {
    /// Index into [`KINDS`].
    fn kind(&self) -> u8;
}

impl Kinded for TpccOp {
    fn kind(&self) -> u8 {
        match self {
            TpccOp::NewOrder { .. } => 0,
            TpccOp::Payment { .. } => 1,
            TpccOp::OrderStatus { .. } => 2,
            TpccOp::Delivery { .. } => 3,
            TpccOp::StockLevel { .. } => 4,
        }
    }
}

impl Kinded for ChirperOp {
    fn kind(&self) -> u8 {
        match self {
            ChirperOp::GetTimeline { .. } => 5,
            ChirperOp::Post { .. } => 6,
            ChirperOp::Follow { .. } | ChirperOp::Unfollow { .. } => OTHER,
        }
    }
}

/// Whether a reply reports that the application could not do the work.
pub trait ReplyCheck {
    /// `true` for replies no workload of this benchmark may ever see.
    fn is_error(&self) -> bool;
}

impl ReplyCheck for TpccReply {
    fn is_error(&self) -> bool {
        matches!(self, TpccReply::MissingRow)
    }
}

impl ReplyCheck for ChirperReply {
    fn is_error(&self) -> bool {
        matches!(self, ChirperReply::NoSuchUser)
    }
}

/// Completion time of a command that has not completed.
pub const PENDING: u64 = u64::MAX;

/// One command as the recorder saw it. Times are simulated microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Index of the issuing client.
    pub client: u32,
    /// Index into [`KINDS`].
    pub kind: u8,
    /// Number of variables the command declared.
    pub vars: u32,
    /// When the command was due: its schedule slot on a paced workload
    /// (never later than `submit`), its submit time on a closed one.
    pub due: u64,
    /// When the generator handed it to the client.
    pub submit: u64,
    /// When the reply arrived, or [`PENDING`].
    pub complete: u64,
    /// Whether it completed with a reply the application meant.
    pub ok: bool,
    /// Wall nanoseconds spent generating it (traced runs only, else 0).
    pub gen_ns: u32,
}

impl Record {
    /// Latency from the due time to the reply.
    pub fn latency(&self) -> Option<u64> {
        (self.complete != PENDING).then(|| self.complete - self.due)
    }
}

/// The command log all recorders of one run share.
#[derive(Debug, Default)]
pub struct Log {
    /// Every command issued, in issue order.
    pub records: Vec<Record>,
    /// Set at the end of the measured run: recorders stop issuing so the
    /// drain can tell a slow command from a lost one.
    pub stopped: bool,
}

/// Shared handle to a run's [`Log`]. The simulation is single-threaded and
/// workloads need not be `Send`, so a `RefCell` suffices.
pub type SharedLog = Rc<RefCell<Log>>;

/// A log with room for `capacity` records, so recording does not allocate
/// inside the measured run.
pub fn shared_log(capacity: usize) -> SharedLog {
    Rc::new(RefCell::new(Log { records: Vec::with_capacity(capacity), stopped: false }))
}

/// An open-loop schedule for one client, kept outside the program: the
/// `k`-th command is due at `offset + k · period`.
///
/// A client has one command in flight, so when a reply takes longer than a
/// period the client falls behind its schedule; it then issues back to
/// back until it has caught up, and every command is timed from its slot,
/// not from when it was sent. The wait a stall imposes on later commands
/// is therefore counted (no coordinated omission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    offset: u64,
    period: u64,
    /// Slot of the next command to issue.
    next: u64,
}

impl Paced {
    /// The schedule of client `index` of `clients` at a total of `rate`
    /// commands per second: slots `clients / rate` apart, clients
    /// staggered evenly across one period.
    pub fn new(index: u32, clients: u32, rate: u64) -> Self {
        Paced {
            offset: u64::from(index) * 1_000_000 / rate,
            period: u64::from(clients) * 1_000_000 / rate,
            next: 0,
        }
    }

    /// Takes the next slot for a command submitted at `now` and returns its
    /// due time. A command submitted before its slot (only the first can
    /// be: the program starts clients on its own jitter) is due when sent.
    pub fn take_slot(&mut self, now: u64) -> u64 {
        let due = self.offset + self.next * self.period;
        self.next += 1;
        due.min(now)
    }

    /// How long to wait at `now` before the next slot (zero when behind).
    pub fn wait(&self, now: u64) -> u64 {
        (self.offset + self.next * self.period).saturating_sub(now)
    }
}

/// Wraps a generator: records every command and, when given a schedule,
/// paces the client through [`Workload::think_time`].
pub struct Recorder<A, W> {
    inner: W,
    client: u32,
    log: SharedLog,
    pace: Option<Paced>,
    /// Time the generator with the wall clock (traced runs).
    timed: bool,
    /// Index in the log of the command in flight.
    in_flight: Option<usize>,
    _app: PhantomData<fn() -> A>,
}

impl<A, W> Recorder<A, W> {
    /// Wraps `inner` as client number `client`.
    pub fn new(inner: W, client: u32, log: SharedLog, pace: Option<Paced>, timed: bool) -> Self {
        Recorder { inner, client, log, pace, timed, in_flight: None, _app: PhantomData }
    }
}

impl<A, W> Workload<A> for Recorder<A, W>
where
    A: Application,
    A::Op: Kinded,
    A::Reply: ReplyCheck,
    W: Workload<A>,
{
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<A>> {
        if self.log.borrow().stopped {
            return None;
        }
        let started = self.timed.then(Instant::now);
        let cmd = self.inner.next_command(now, rng)?;
        let gen_ns =
            started.map_or(0, |t| u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
        let (kind, vars) = match &cmd {
            CommandKind::Access { op, vars } => (op.kind(), vars.len() as u32),
            CommandKind::CreateKey { .. } | CommandKind::DeleteKey { .. } => (OTHER, 0),
        };
        let submit = now.as_micros();
        let due = self.pace.as_mut().map_or(submit, |p| p.take_slot(submit));
        let mut log = self.log.borrow_mut();
        self.in_flight = Some(log.records.len());
        log.records.push(Record {
            client: self.client,
            kind,
            vars,
            due,
            submit,
            complete: PENDING,
            ok: false,
            gen_ns,
        });
        Some(cmd)
    }

    fn on_completed(&mut self, now: SimTime, cmd: &Command<A>, reply: Option<&A::Reply>) {
        if let Some(i) = self.in_flight.take() {
            let mut log = self.log.borrow_mut();
            let r = &mut log.records[i];
            r.complete = now.as_micros();
            r.ok = reply.is_some_and(|r| !r.is_error());
        }
        self.inner.on_completed(now, cmd, reply);
    }

    fn think_time(&mut self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        match &self.pace {
            Some(p) => SimDuration::from_micros(p.wait(now.as_micros())),
            None => self.inner.think_time(now, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_are_staggered_across_one_period() {
        // 4 clients at 1000/s: a slot every 4 ms per client, 1 ms apart.
        let slots: Vec<u64> = (0..4).map(|i| Paced::new(i, 4, 1_000).take_slot(u64::MAX)).collect();
        assert_eq!(slots, vec![0, 1_000, 2_000, 3_000]);
        let mut p = Paced::new(1, 4, 1_000);
        assert_eq!(p.take_slot(u64::MAX), 1_000);
        assert_eq!(p.take_slot(u64::MAX), 5_000);
        assert_eq!(p.take_slot(u64::MAX), 9_000);
    }

    #[test]
    fn on_time_client_waits_for_its_next_slot() {
        let mut p = Paced::new(0, 2, 1_000); // period 2 ms
        assert_eq!(p.take_slot(0), 0);
        // Reply after 0.5 ms: wait out the rest of the period.
        assert_eq!(p.wait(500), 1_500);
        assert_eq!(p.take_slot(2_000), 2_000);
    }

    #[test]
    fn first_command_sent_before_its_slot_is_due_when_sent() {
        // The program starts client 3 at its own jitter, before slot 3 ms.
        let mut p = Paced::new(3, 4, 1_000);
        assert_eq!(p.take_slot(138), 138);
        // From the second command on the schedule holds.
        assert_eq!(p.wait(600), 7_000 - 600);
    }

    #[test]
    fn stalled_client_catches_up_and_is_timed_from_its_slots() {
        let mut p = Paced::new(0, 1, 1_000); // period 1 ms
        assert_eq!(p.take_slot(0), 0);
        // The reply arrives 3.5 ms late: slots 1, 2 and 3 have passed.
        let now = 3_500;
        assert_eq!(p.wait(now), 0);
        let due1 = p.take_slot(now);
        assert_eq!((due1, now - due1), (1_000, 2_500)); // 2.5 ms late
        assert_eq!(p.wait(now + 100), 0);
        let due2 = p.take_slot(now + 100);
        assert_eq!((due2, now + 100 - due2), (2_000, 1_600));
        assert_eq!(p.wait(now + 200), 0);
        assert_eq!(p.take_slot(now + 200), 3_000);
        // Caught up: the next slot (4 ms) is ahead again.
        assert_eq!(p.wait(now + 300), 200);
    }
}
