//! Wire payloads: atomically multicast messages and direct (unordered)
//! messages.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::borrow::Cow;

use dynastar_amcast::MsgId;
use dynastar_runtime::NodeId;

use crate::command::{Application, Command, LocKey, PartitionId, VarId};

/// Payloads carried by the atomic multicast layer (everything whose
/// relative order matters).
#[derive(Debug)]
pub enum Payload<A: Application> {
    /// Client → oracle: request routing (and dispatch) of a command
    /// (Algorithm 1 line 2).
    Exec {
        /// The command.
        cmd: Command<A>,
        /// Dispatch attempt number (0 = first try); bumped on retries so
        /// every dispatch multicast has a fresh message id.
        attempt: u32,
    },
    /// Oracle or cached client → involved partitions: execute an access
    /// command. Carries the sender's routing decision so all destinations
    /// agree without consulting their own (possibly differing) maps.
    Access {
        /// The command.
        cmd: Command<A>,
        /// Dispatch attempt number.
        attempt: u32,
        /// For every accessed variable, the partition expected to hold it.
        expected: Vec<(VarId, PartitionId)>,
        /// The partition chosen to execute (most variables, ties by id).
        target: PartitionId,
        /// DS-SMR mode: borrowed keys stay at the target (permanent
        /// migration) instead of returning.
        keep: bool,
    },
    /// Oracle → {oracle, partition}: coordinate creation of a new key
    /// (Algorithm 2 Task 1 / Algorithm 3 Task 2).
    CreateKey {
        /// The create command.
        cmd: Command<A>,
        /// The partition chosen for the new key.
        dest: PartitionId,
    },
    /// Oracle → {oracle, partition}: coordinate removal of a key.
    DeleteKey {
        /// The delete command.
        cmd: Command<A>,
        /// The partition currently owning the key.
        dest: PartitionId,
    },
    /// Partition → planner oracle shard: a batch of workload-graph hints
    /// as key sets (Algorithm 2 Task 4). The planner expands every set into
    /// its key pairs, each pair weighing the set's multiplicity.
    HintSets {
        /// `(key, access count)` vertex increments, in key order.
        vertices: Vec<(LocKey, u64)>,
        /// Every distinct set of two or more keys, as ascending indices
        /// into `vertices`, back to back.
        ranks: Vec<u32>,
        /// `(length, multiplicity)` of each set in `ranks`, in order.
        sets: Vec<(u32, u32)>,
    },
    /// Partition → planner oracle shard: workload-graph hints as expanded
    /// `(a, b, weight)` edges. No partition sends it; the planner merges
    /// it like [`Payload::HintSets`].
    Hint {
        /// `(key, access count)` vertex increments.
        vertices: Vec<(LocKey, u64)>,
        /// `(key a, key b, weight)` co-access edge increments.
        edges: Vec<(LocKey, LocKey, u64)>,
    },
    /// Oracle → all partitions + oracle: a new partitioning plan
    /// (Algorithm 2 Task 5 / Algorithm 3 Task 3).
    Plan {
        /// Monotone plan version.
        version: u64,
        /// Key movements: `(key, from, to)`.
        moves: Vec<(LocKey, PartitionId, PartitionId)>,
    },
    /// Oracle replicas → oracle: agree on the log position from which the
    /// next repartitioning computes. The recompute gates mix replica-local
    /// delivery time (the minimum-interval check), so replicas can pass
    /// them at *different* hints; acting on the gates directly would have
    /// each replica snapshot a different workload graph and publish
    /// divergent plans under the same deterministic plan id — receivers
    /// then keep whichever copy arrives first and the cluster's view of
    /// the plan splits. Instead a replica whose local gates pass proposes
    /// this marker (same id on every replica, delivered once), and the
    /// compute snapshots the graph at the marker's delivery position —
    /// identical everywhere.
    Recompute {
        /// The plan version this proposal would produce.
        version: u64,
    },
    /// Destination replicas → {source, destination, oracle}: a *staged*
    /// migration's chunks are all buffered at the destination; delivery
    /// in total order is the commit point at which the destination
    /// installs them and takes over. Every destination replica submits
    /// the same deterministic message id, so the multicast layer delivers
    /// it once. See DESIGN.md "Staged migration".
    MigrationDone {
        /// The plan version that started the migration.
        version: u64,
        /// The migrated key.
        key: LocKey,
        /// The old owner.
        from: PartitionId,
        /// The new owner.
        to: PartitionId,
    },
    /// Source replicas → {source, destination, oracle}: chunk delivery to
    /// the destination group exhausted its retries; cancel the staged
    /// migration and fall back to the previous plan for this key.
    /// Delivery in total order decides the race against
    /// [`Payload::MigrationDone`]: whichever lands first wins, the other
    /// is ignored.
    MigrationRevert {
        /// The plan version that started the migration.
        version: u64,
        /// The key whose move is cancelled.
        key: LocKey,
        /// The old owner (ownership returns here).
        from: PartitionId,
        /// The destination that never finished receiving.
        to: PartitionId,
    },
}

/// Direct point-to-point messages (reliable, unordered across sources;
/// made per-link FIFO by the transport). Sent replica→replica or
/// replica→client; receivers deduplicate since every replica of a group
/// sends a copy.
#[derive(Debug)]
pub enum Direct<A: Application> {
    /// Oracle → client: the prophecy (Algorithm 1 line 3).
    Prophecy {
        /// The command this answers.
        cmd: MsgId,
        /// `false` when the command cannot execute (unknown/duplicate key).
        ok: bool,
        /// Fresh `key → partition` facts for the client's cache.
        locations: Vec<(LocKey, PartitionId)>,
        /// The oracle's current plan version (cache stamping).
        version: u64,
    },
    /// Executing partition → client: the command's result.
    Reply {
        /// The command this answers.
        cmd: MsgId,
        /// Attempt being answered.
        attempt: u32,
        /// The application-level reply.
        reply: A::Reply,
    },
    /// Partition → client: routing was stale; re-resolve via the oracle
    /// (§4.3).
    Retry {
        /// The command to retry.
        cmd: MsgId,
        /// Attempt that failed.
        attempt: u32,
    },
    /// Partition → client: a create/delete completed ("ok", Algorithm 3
    /// line 22).
    Ack {
        /// The completed command.
        cmd: MsgId,
    },
    /// Non-target partition → target: the variables the target borrows
    /// (Algorithm 3 line 16). `None` values mean "the variable does not
    /// exist here" — still an authoritative answer.
    VarsForCmd {
        /// The command being served.
        cmd: MsgId,
        /// Attempt being served.
        attempt: u32,
        /// The sending partition.
        from: PartitionId,
        /// The borrowed variables.
        vars: Vec<(VarId, Option<A::Value>)>,
    },
    /// Target → non-target partitions: borrowed variables going home with
    /// their post-execution values (Algorithm 3 line 13).
    VarsReturn {
        /// The command that borrowed.
        cmd: MsgId,
        /// Attempt that borrowed.
        attempt: u32,
        /// The returned variables (post-execution).
        vars: Vec<(VarId, Option<A::Value>)>,
    },
    /// Any involved partition → target: the command cannot execute here
    /// (stale routing); abandon it.
    Abort {
        /// The doomed command.
        cmd: MsgId,
        /// Attempt that failed.
        attempt: u32,
        /// Partition that detected the mismatch.
        missing_at: PartitionId,
    },
    /// Oracle → partition: the oracle's half of the create/delete
    /// rendezvous (Algorithm 2 Task 2/3, Algorithm 3 Task 2). Only the
    /// partition waits: both sides apply the same ordered `CreateKey` /
    /// `DeleteKey` payload by the same rule, so the oracle has nothing to
    /// learn from the partition's half.
    Signal {
        /// The create/delete command.
        cmd: MsgId,
    },
    /// Old owner → new owner: a migrating key's variables (plan
    /// application, Algorithm 3 Task 3).
    PlanVars {
        /// The plan version that triggered the migration.
        version: u64,
        /// The migrating key.
        key: LocKey,
        /// The sending (old owner) partition.
        from: PartitionId,
        /// The key's variables present at the old owner (`None` entries in
        /// supplements mean the variable was deleted while lent).
        vars: Vec<(VarId, Option<A::Value>)>,
        /// Variables of the key currently lent out; they follow in a
        /// supplement once returned. Commands touching them must wait.
        pending: Vec<VarId>,
        /// `false` for supplements delivering previously-pending variables.
        primary: bool,
    },
    /// Old owner → new owner: one rate-limited chunk of a *staged*
    /// migration's variables. No dedup key: chunks are resent on timeout
    /// and receivers handle them idempotently (buffering overwrites with
    /// identical data) and *always* answer with a
    /// [`Direct::PlanVarsAck`], even for duplicates, so a lost ack does
    /// not wedge the sender.
    PlanVarsChunk {
        /// The plan version that triggered the migration.
        version: u64,
        /// The migrating key.
        key: LocKey,
        /// The sending (old owner) partition.
        from: PartitionId,
        /// Chunk index, `0..total`.
        chunk: u32,
        /// Total number of chunks for this key.
        total: u32,
        /// The chunk's variables.
        vars: Vec<(VarId, Option<A::Value>)>,
    },
    /// New owner → old owner: acknowledges receipt of one staged chunk.
    /// No dedup key: acks are idempotent at the sender (a stale ack for
    /// an already-acked chunk is ignored).
    PlanVarsAck {
        /// The plan version of the migration.
        version: u64,
        /// The migrating key.
        key: LocKey,
        /// The acknowledged chunk index.
        chunk: u32,
    },
    /// New owner → old owner: a delivered command is waiting for `key`, so
    /// ship its staged transfer ahead of the hottest-first background
    /// order. Purely a scheduling hint outside the total order — ownership
    /// and installation are decided by the plan and
    /// [`Payload::MigrationDone`] exactly as without it — so it needs no
    /// dedup key (a repeated pull is a no-op at the source) and losing it
    /// only loses the priority.
    PlanVarsPull {
        /// The awaited key.
        key: LocKey,
        /// The pulling (new owner) partition.
        to: PartitionId,
    },
    /// S-SMR state exchange: each involved partition sends its variables to
    /// every other involved partition, then all execute.
    SsmrExchange {
        /// The command being exchanged for.
        cmd: MsgId,
        /// Attempt number.
        attempt: u32,
        /// The sending partition.
        from: PartitionId,
        /// Its variables (authoritative `None` = absent).
        vars: Vec<(VarId, Option<A::Value>)>,
    },
}

/// A receiver takes a direct message owned, or shared with the sender's
/// retransmission buffer (copied only if it turns out to be wanted).
impl<A: Application> From<Direct<A>> for Cow<'_, Direct<A>> {
    fn from(msg: Direct<A>) -> Self {
        Cow::Owned(msg)
    }
}

impl<'a, A: Application> From<&'a Direct<A>> for Cow<'a, Direct<A>> {
    fn from(msg: &'a Direct<A>) -> Self {
        Cow::Borrowed(msg)
    }
}

/// The stream half of a direct message's dedup id: every replica of a
/// group sends its own copy of group-originated messages, so receivers
/// drop all but the first. The seq half is the command's [`MsgId::seq`]
/// (the low 32 bits of a plan version for [`Direct::PlanVars`]), so a
/// receiver's exact [`SeqSet`](dynastar_runtime::dedup::SeqSet) keeps one
/// word per 64 commands of a stream. Fields are flat, not a [`MsgId`]
/// minus its seq, so that a key packs into 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DedupKey {
    /// Key for [`Direct::VarsForCmd`].
    VarsForCmd { origin: u64, tag: u32, attempt: u32, from: PartitionId },
    /// Key for [`Direct::VarsReturn`].
    VarsReturn { origin: u64, tag: u32, attempt: u32 },
    /// Key for [`Direct::Abort`].
    Abort { origin: u64, tag: u32, attempt: u32, missing_at: PartitionId },
    /// Key for [`Direct::Signal`].
    Signal { origin: u64, tag: u32 },
    /// Key for [`Direct::PlanVars`]: the version's high 32 bits.
    PlanVars { version_hi: u32, key: LocKey, from: PartitionId, primary: bool },
    /// Key for [`Direct::SsmrExchange`].
    SsmrExchange { origin: u64, tag: u32, attempt: u32, from: PartitionId },
}

const _: () = assert!(std::mem::size_of::<DedupKey>() == 24, "a dedup stream packs into 24 bytes");

impl<A: Application> Direct<A> {
    /// The receiver-side dedup id as `(stream, seq)`, when the message
    /// type needs one. Client-addressed messages return `None`: clients
    /// dedup against their single outstanding command instead.
    pub fn dedup_key(&self) -> Option<(DedupKey, u32)> {
        match *self {
            Direct::Prophecy { .. }
            | Direct::Reply { .. }
            | Direct::Retry { .. }
            | Direct::Ack { .. } => None,
            // Deliberately no dedup: retransmitted chunks/acks must reach
            // the idempotent handlers (a deduped resend would never be
            // re-acked and the transfer would stall forever).
            Direct::PlanVarsChunk { .. }
            | Direct::PlanVarsAck { .. }
            | Direct::PlanVarsPull { .. } => None,
            Direct::VarsForCmd { cmd: MsgId { origin, seq, tag }, attempt, from, .. } => {
                Some((DedupKey::VarsForCmd { origin, tag, attempt, from }, seq))
            }
            Direct::VarsReturn { cmd: MsgId { origin, seq, tag }, attempt, .. } => {
                Some((DedupKey::VarsReturn { origin, tag, attempt }, seq))
            }
            Direct::Abort { cmd: MsgId { origin, seq, tag }, attempt, missing_at } => {
                Some((DedupKey::Abort { origin, tag, attempt, missing_at }, seq))
            }
            Direct::Signal { cmd: MsgId { origin, seq, tag } } => {
                Some((DedupKey::Signal { origin, tag }, seq))
            }
            Direct::PlanVars { version, key, from, primary, .. } => {
                let version_hi = (version >> 32) as u32;
                Some((DedupKey::PlanVars { version_hi, key, from, primary }, version as u32))
            }
            Direct::SsmrExchange { cmd: MsgId { origin, seq, tag }, attempt, from, .. } => {
                Some((DedupKey::SsmrExchange { origin, tag, attempt, from }, seq))
            }
        }
    }
}

/// Where a core wants a direct message sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Every replica of a partition group.
    Partition(PartitionId),
    /// A single client process.
    Client(NodeId),
}

/// Which oracle shard groups a multicast also targets (beyond its
/// partition groups). The oracle is sharded into `O` independent
/// replicated groups (DESIGN.md §7); `O = 1` collapses every variant to
/// the single oracle group, reproducing the unsharded wire traffic
/// byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleDest {
    /// No oracle shard is a destination.
    None,
    /// Every oracle shard group — map-updating traffic (create/delete
    /// coordination, plans, migration settling) that all slices must
    /// observe in the same total order.
    All,
    /// One oracle shard group by shard index.
    Shard(u32),
}

/// An effect requested by a protocol core (oracle/server/client logic),
/// turned into actual I/O by the hosting actor.
#[derive(Debug)]
pub enum Effect<A: Application> {
    /// Atomically multicast `payload` to `groups` with message id `mid`.
    /// Group ids follow the cluster convention: partition `i` = group `i`,
    /// oracle shard `s` = group `k + s` for `k` partitions.
    Multicast {
        /// Unique (or deterministically shared) message id.
        mid: MsgId,
        /// Destination partition groups.
        partitions: Vec<PartitionId>,
        /// Oracle shard groups that are also destinations.
        oracle: OracleDest,
        /// The payload.
        payload: Payload<A>,
    },
    /// Send a direct message.
    Send {
        /// The destination.
        to: Destination,
        /// The message.
        msg: Direct<A>,
    },
    /// Oracle only: schedule plan publication after the modelled
    /// partitioner compute time.
    SchedulePlan {
        /// Modelled compute duration.
        after: dynastar_runtime::SimDuration,
    },
    /// Partition only: wake the core at the given time (modelled CPU
    /// becomes free).
    Wake {
        /// Absolute wake-up time.
        at: dynastar_runtime::SimTime,
    },
}

#[cfg(test)]
thread_local! {
    /// Deep copies of a [`Payload`] made on this thread: delivery hands one
    /// shared payload to every replica and must make none.
    pub(crate) static PAYLOAD_CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<A: Application> Clone for Payload<A> {
    fn clone(&self) -> Self {
        #[cfg(test)]
        PAYLOAD_CLONES.set(PAYLOAD_CLONES.get() + 1);
        match self {
            Payload::Exec { cmd, attempt } => Payload::Exec { cmd: cmd.clone(), attempt: *attempt },
            Payload::Access { cmd, attempt, expected, target, keep } => Payload::Access {
                cmd: cmd.clone(),
                attempt: *attempt,
                expected: expected.clone(),
                target: *target,
                keep: *keep,
            },
            Payload::CreateKey { cmd, dest } => {
                Payload::CreateKey { cmd: cmd.clone(), dest: *dest }
            }
            Payload::DeleteKey { cmd, dest } => {
                Payload::DeleteKey { cmd: cmd.clone(), dest: *dest }
            }
            Payload::HintSets { vertices, ranks, sets } => Payload::HintSets {
                vertices: vertices.clone(),
                ranks: ranks.clone(),
                sets: sets.clone(),
            },
            Payload::Hint { vertices, edges } => {
                Payload::Hint { vertices: vertices.clone(), edges: edges.clone() }
            }
            Payload::Plan { version, moves } => {
                Payload::Plan { version: *version, moves: moves.clone() }
            }
            Payload::Recompute { version } => Payload::Recompute { version: *version },
            Payload::MigrationDone { version, key, from, to } => {
                Payload::MigrationDone { version: *version, key: *key, from: *from, to: *to }
            }
            Payload::MigrationRevert { version, key, from, to } => {
                Payload::MigrationRevert { version: *version, key: *key, from: *from, to: *to }
            }
        }
    }
}

impl<A: Application> Clone for Direct<A> {
    fn clone(&self) -> Self {
        match self {
            Direct::Prophecy { cmd, ok, locations, version } => Direct::Prophecy {
                cmd: *cmd,
                ok: *ok,
                locations: locations.clone(),
                version: *version,
            },
            Direct::Reply { cmd, attempt, reply } => {
                Direct::Reply { cmd: *cmd, attempt: *attempt, reply: reply.clone() }
            }
            Direct::Retry { cmd, attempt } => Direct::Retry { cmd: *cmd, attempt: *attempt },
            Direct::Ack { cmd } => Direct::Ack { cmd: *cmd },
            Direct::VarsForCmd { cmd, attempt, from, vars } => {
                Direct::VarsForCmd { cmd: *cmd, attempt: *attempt, from: *from, vars: vars.clone() }
            }
            Direct::VarsReturn { cmd, attempt, vars } => {
                Direct::VarsReturn { cmd: *cmd, attempt: *attempt, vars: vars.clone() }
            }
            Direct::Abort { cmd, attempt, missing_at } => {
                Direct::Abort { cmd: *cmd, attempt: *attempt, missing_at: *missing_at }
            }
            Direct::Signal { cmd } => Direct::Signal { cmd: *cmd },
            Direct::PlanVars { version, key, from, vars, pending, primary } => Direct::PlanVars {
                version: *version,
                key: *key,
                from: *from,
                vars: vars.clone(),
                pending: pending.clone(),
                primary: *primary,
            },
            Direct::PlanVarsChunk { version, key, from, chunk, total, vars } => {
                Direct::PlanVarsChunk {
                    version: *version,
                    key: *key,
                    from: *from,
                    chunk: *chunk,
                    total: *total,
                    vars: vars.clone(),
                }
            }
            Direct::PlanVarsAck { version, key, chunk } => {
                Direct::PlanVarsAck { version: *version, key: *key, chunk: *chunk }
            }
            Direct::PlanVarsPull { key, to } => Direct::PlanVarsPull { key: *key, to: *to },
            Direct::SsmrExchange { cmd, attempt, from, vars } => Direct::SsmrExchange {
                cmd: *cmd,
                attempt: *attempt,
                from: *from,
                vars: vars.clone(),
            },
        }
    }
}
