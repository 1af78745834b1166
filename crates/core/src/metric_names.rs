//! Canonical metric names recorded by the protocol cores.
//!
//! Experiment binaries read these from the simulation's
//! [`Metrics`](dynastar_runtime::Metrics) registry; keeping the names in
//! one place keeps the cores and the harness in sync.

/// Counter + per-second series: commands completed (client side).
pub const CMD_COMPLETED: &str = "cmd.completed";
/// Histogram: end-to-end command latency (client side).
pub const CMD_LATENCY: &str = "cmd.latency";
/// Counter + series: commands that involved multiple partitions.
pub const CMD_MULTI: &str = "cmd.multi_partition";
/// Counter + series: single-partition commands.
pub const CMD_SINGLE: &str = "cmd.single_partition";
/// Counter + series: client retries caused by stale routing.
pub const CMD_RETRY: &str = "cmd.retry";
/// Counter: client response timeouts (re-dispatch through the oracle).
pub const CMD_TIMEOUT: &str = "cmd.timeout";
/// Counter: commands that completed unsuccessfully at the client (oracle
/// NOK: unknown variable or duplicate create). Stale routing never lands
/// here — it is retried — so under migration churn this must stay zero.
pub const CMD_FAILED: &str = "cmd.failed";
/// Counter: commands a partition replica skipped as obsolete — delivered
/// after a newer command of the same client, so the client has moved on
/// (`server::session`). Recorded only on the path that skips one.
pub const SERVER_OBSOLETE_CMDS: &str = "server.obsolete_cmds";
/// Counter: retries the client deliberately delayed because the cluster
/// signalled stale routing while a migration was in flight (backpressure;
/// see `ClusterConfig::client_retry_backoff`).
pub const CMD_RETRY_BACKOFF: &str = "cmd.retry_backoff";
/// Counter + series: variables shipped between partitions (borrows,
/// returns and migrations) — the paper's "objects exchanged".
pub const OBJECTS_EXCHANGED: &str = "objects.exchanged";
/// Counter + series: queries answered by the oracle (`Exec` deliveries).
pub const ORACLE_QUERIES: &str = "oracle.queries";
/// Counter: repartitioning plans published.
pub const PLANS_PUBLISHED: &str = "oracle.plans";
/// Series: locality keys moved by plans.
pub const PLAN_MOVES: &str = "oracle.plan_moves";
/// Series: normalized edge cut (cut / total edge weight) of each computed
/// plan — plan-quality tracking; fig8's shard sweep shows the fraction is
/// independent of the oracle shard count.
pub const PLAN_EDGE_CUT: &str = "oracle.plan_edge_cut";
/// Counter: workload-graph entries (vertices + edges) evicted to honour
/// the oracle's graph caps.
pub const ORACLE_GRAPH_EVICTIONS: &str = "oracle.graph_evictions";
/// Counter: plans computed via the warm-start incremental partitioner
/// path (`partition_from`) instead of a full multilevel run.
pub const PLANS_WARM: &str = "oracle.plans_warm";
/// Histogram: modelled wall time between a plan recompute starting and its
/// publication (oracle side).
pub const PLAN_COMPUTE_TIME: &str = "oracle.plan_compute_time";

/// Counter: staged-migration chunks shipped by source partitions
/// (including retransmissions).
pub const MIGRATION_CHUNKS_SENT: &str = "migration.chunks_sent";
/// Counter: staged-migration chunk retransmissions after an ack timeout.
pub const MIGRATION_CHUNK_RETRIES: &str = "migration.chunk_retries";
/// Counter: staged migrations abandoned after exhausting chunk retries;
/// the key's move is rolled back to the previous plan.
pub const MIGRATION_REVERTS: &str = "migration.reverts";
/// Counter: key moves that took the staged (chunked, rate-limited)
/// migration path instead of the classic single shipment.
pub const MIGRATION_KEYS_STAGED: &str = "migration.keys_staged";
/// No longer recorded: every staged move joins the send order at once, so
/// none is deferred and this counter reads 0. Kept only because the
/// benchmark's report still names it.
pub const MIGRATION_DEFERRED: &str = "migration.deferred";
/// Counter: [`crate::payload::Direct::PlanVarsPull`]s sent by destination
/// partitions — one per awaited key a delivered command names.
pub const MIGRATION_PULLS: &str = "migration.pulls";
/// Counter: pulls a source honoured by moving the key's staged transfer
/// onto the demand-first part of its send order (repeats, and pulls for
/// keys with no staged transfer there, are not counted).
pub const MIGRATION_PULL_PROMOTIONS: &str = "migration.pull_promotions";
/// Counter: staged chunks a destination acknowledged without buffering —
/// a copy of one it already holds (a second replica of the source sent it
/// too, or a retransmit), or a stray for a move already settled. The
/// redundancy striping the send order leaves behind.
pub const MIGRATION_CHUNK_DUPS: &str = "migration.chunk_dups";

/// Counter: commands admitted to a worker while at least one other command
/// was still executing (modelled intra-partition parallelism realized).
pub const EXEC_PARALLEL: &str = "exec.parallel";
/// Counter: commands whose admission waited on a read/write conflict with
/// an in-flight predecessor (counted once per command attempt).
pub const EXEC_SERIALIZED: &str = "exec.serialized";
/// Counter: commands whose admission waited because the dependency window
/// was at capacity (counted once per command attempt).
pub const EXEC_WINDOW_STALL: &str = "exec.window_stall";

/// Histogram: commands per flushed ordering batch (leader side). Counts
/// are encoded in µs units (the histogram type stores durations).
pub const BATCH_SIZE: &str = "batch.size";
/// Histogram: consensus slots in flight right after each batch flush (how
/// full the pipelining window runs). Counts encoded in µs units.
pub const BATCH_OCCUPANCY: &str = "batch.occupancy";
/// Counter: batches flushed because they reached `max_batch` commands.
pub const BATCH_FLUSH_FULL: &str = "batch.flush_full";
/// Counter: batches flushed by the delay bound (partial batches).
pub const BATCH_FLUSH_DELAY: &str = "batch.flush_delay";
/// Counter: commands ordered through batches (sums batch sizes).
pub const BATCH_COMMANDS: &str = "batch.commands";

/// Counter: nodes crashed by fault injection (recorded by the harness).
pub const FAULT_CRASHES: &str = "fault.crashes";
/// Counter: crashed nodes restarted (crash-recovery model).
pub const FAULT_RESTARTS: &str = "fault.restarts";
/// Counter: nodes disconnected by fault injection.
pub const FAULT_DISCONNECTS: &str = "fault.disconnects";
/// Counter: disconnected nodes reconnected.
pub const FAULT_RECONNECTS: &str = "fault.reconnects";
/// Counter: transport frames retransmitted (timeout or NACK driven).
pub const NET_RETRANSMISSIONS: &str = "net.retransmissions";
/// Counter: per-peer stream resets after an epoch change (peer restarted).
pub const NET_STREAM_RESETS: &str = "net.stream_resets";
/// Counter: frames declared lost after retransmission gave up (the
/// receiver is told to jump past them; upper layers re-send semantically).
pub const NET_FRAMES_ABANDONED: &str = "net.frames_abandoned";
/// Counter: jump announcements sent (a peer is told to skip past frames
/// this node no longer holds, after a give-up or an ack listing a hole the
/// sender's buffer no longer holds).
pub const NET_JUMPS: &str = "net.jumps";
/// Histogram: out-of-order frames buffered in FIFO reorder buffers,
/// sampled at each transport maintenance round (counts in µs units).
pub const NET_FIFO_BUFFERED: &str = "net.fifo_buffered";
/// Counter: out-of-order frames dropped because a peer's reorder buffer
/// hit its cap (recovered later by retransmission).
pub const NET_FIFO_DROPS: &str = "net.fifo_drops";
/// Counter: sends dropped by the network model (random loss, link-fault
/// loss, or destination disconnected). Recorded by the simulator.
pub const NET_DROPPED_SENDS: &str = "net.dropped_sends";
/// Counter: recovery state snapshots served to restarted/lagging replicas.
pub const RECOVERY_SNAPSHOTS: &str = "recovery.snapshots";
/// Counter: approximate elements shipped in recovery snapshots: the
/// multicast member's (log entries, bookkeeping rows) and the core's (see
/// `ServerCore::approx_elements`, `OracleCore::approx_elements`).
pub const RECOVERY_SNAPSHOT_ELEMENTS: &str = "recovery.snapshot_elements";
/// Counter: the core's share of [`RECOVERY_SNAPSHOT_ELEMENTS`].
pub const RECOVERY_SNAPSHOT_CORE_ELEMENTS: &str = "recovery.snapshot_core_elements";
/// Counter: recoveries completed (quorum of snapshots installed).
pub const RECOVERY_COMPLETIONS: &str = "recovery.completions";
/// Counter: leader changes observed at replicas (rising edges of
/// local leadership).
pub const LEADER_ELECTIONS: &str = "leader.elections";

/// Per-partition series: commands executed by partition `p`.
pub fn partition_executed(p: u32) -> String {
    format!("part.{p}.executed")
}

/// Per-partition series: multi-partition commands executed by partition `p`
/// (as target or contributor).
pub fn partition_multi(p: u32) -> String {
    format!("part.{p}.multi_partition")
}

/// Per-partition series: objects sent or received by partition `p`.
pub fn partition_objects(p: u32) -> String {
    format!("part.{p}.objects_exchanged")
}

/// Per-worker histogram: modelled busy time charged to execution worker
/// `w` (one observation per admitted command; the count is the worker's
/// share of the load).
pub fn exec_worker_busy(w: u32) -> String {
    format!("exec.worker.{w}.busy")
}
