//! What waits in a replica's in-order execution queue, and why its head is
//! not running.

use std::sync::Arc;

use dynastar_amcast::MsgId;
use dynastar_runtime::SimTime;

use super::exec::Head;
use crate::command::{AccessSets, Application, Command, LocKey, PartitionId, VarId};
use crate::payload::Payload;

/// One entry of the in-order execution queue. Generic over the command
/// and payload types (`C` is always [`Command<A>`], `P` always
/// `Arc<Payload<A>>`) so that `Clone` can be derived without bounding
/// `A: Clone`.
#[derive(Debug, Clone)]
pub(super) enum Queued<C, P> {
    Access {
        /// The delivered [`Payload::Access`], shared with the multicast
        /// layer: the command and its routing are read in place through
        /// [`delivered_access`], never copied.
        payload: P,
        /// Multi-partition non-target: we shipped our vars and await return.
        sent_vars: bool,
        /// S-SMR: we broadcast our exchange share.
        sent_exchange: bool,
        /// Known aborted (stale routing at some partition): it will not
        /// run, whatever arrives for it.
        aborted: bool,
        /// The command's read/write sets, classified once at delivery
        /// (`ExecScheduler::classify`).
        sets: Option<AccessSets>,
    },
    Create {
        cmd: C,
        key: LocKey,
    },
    Delete {
        cmd: C,
        key: LocKey,
    },
    Plan {
        version: u64,
        moves: Vec<(LocKey, PartitionId, PartitionId)>,
    },
    /// Source-side rollback of a gave-up staged migration. Queued (not
    /// applied at delivery) because re-owning the key must serialize with
    /// command execution: a command delivered before the revert must see
    /// the same ownership state on every replica regardless of local pump
    /// timing.
    Revert {
        version: u64,
        key: LocKey,
    },
}

/// The command and routing of a delivered [`Payload::Access`], borrowed
/// from the payload a queue entry shares.
pub(super) struct AccessRef<'a, A: Application> {
    pub(super) cmd: &'a Command<A>,
    pub(super) attempt: u32,
    pub(super) expected: &'a [(VarId, PartitionId)],
    pub(super) target: PartitionId,
    pub(super) keep: bool,
}

/// Reads a queued access payload. Only [`Payload::Access`] is ever queued
/// as [`Queued::Access`]; any other variant reads as `None`, which callers
/// treat as a barrier or drop rather than take the replica down.
pub(super) fn delivered_access<A: Application>(payload: &Payload<A>) -> Option<AccessRef<'_, A>> {
    match payload {
        Payload::Access { cmd, attempt, expected, target, keep } => {
            Some(AccessRef { cmd, attempt: *attempt, expected, target: *target, keep: *keep })
        }
        _ => None,
    }
}

impl<A: Application> Queued<Command<A>, Arc<Payload<A>>> {
    /// What the execution engine looks at: everything but a command is a
    /// barrier.
    pub(super) fn head(&self) -> Head<'_> {
        match self {
            Queued::Access { payload, sets, .. } => match delivered_access(payload) {
                Some(a) => Head::Access { id: a.cmd.id, attempt: a.attempt, sets: sets.as_ref() },
                None => Head::Barrier,
            },
            _ => Head::Barrier,
        }
    }

    /// Whether this is the entry for attempt `attempt` of `cmd`, not known
    /// aborted.
    pub(super) fn awaits(&self, cmd: MsgId, attempt: u32) -> bool {
        matches!(self, Queued::Access { payload, aborted: false, .. }
            if delivered_access(payload).is_some_and(|a| a.cmd.id == cmd && a.attempt == attempt))
    }

    /// Marks this entry aborted if it is the one for attempt `attempt` of
    /// `cmd`.
    pub(super) fn abort(&mut self, cmd: MsgId, attempt: u32) {
        if let Queued::Access { payload, aborted, .. } = self {
            if delivered_access(payload).is_some_and(|a| a.cmd.id == cmd && a.attempt == attempt) {
                *aborted = true;
            }
        }
    }

    /// The command and attempt this entry carries, for diagnostics.
    pub(super) fn who(&self) -> Option<(MsgId, u32)> {
        match self {
            Queued::Access { payload, .. } => {
                delivered_access(payload).map(|a| (a.cmd.id, a.attempt))
            }
            Queued::Create { cmd, .. } | Queued::Delete { cmd, .. } => Some((cmd.id, 0)),
            Queued::Plan { .. } | Queued::Revert { .. } => None,
        }
    }
}

/// Why the queue head is not running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum GateReason {
    /// A key (or lent variable) it touches is still migrating in.
    AwaitingMigration,
    /// `have` of the `need` shipments of borrowed variables have arrived
    /// (at the target; under S-SMR, at every involved partition).
    BorrowedVars { have: usize, need: usize },
    /// A lender waits for its variables to come home from `target`.
    Return { target: PartitionId },
    /// A create or delete waits for the oracle's rendezvous signal.
    OracleSignal,
    /// The modelled execution engine admits it at `until`.
    ExecGate { until: SimTime },
}

/// What a queue handler made of the head: finished with it, or put it
/// back to wait.
pub(super) enum Step {
    Done,
    Wait(GateReason),
}

/// Emits protocol-stall diagnostics to stderr when the
/// `DYNASTAR_TRACE_BLOCKED` environment variable is set.
#[expect(
    clippy::disallowed_methods,
    reason = "opt-in diagnostic gate only: the flag toggles eprintln tracing and never feeds protocol or simulation state"
)]
pub(super) fn trace_blocked(args: std::fmt::Arguments<'_>) {
    // Sampled once per process: this sits on executed-command paths, and
    // `env::var_os` is far too slow to re-check per call.
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *ON.get_or_init(|| std::env::var_os("DYNASTAR_TRACE_BLOCKED").is_some()) {
        eprintln!("{args}");
    }
}
