//! The partition server's tunables.

use dynastar_runtime::SimDuration;

use super::ExecConfig;

/// Tunables for a partition server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executed commands per workload-hint batch sent to the oracle.
    pub hint_batch: u32,
    /// Whether to collect hints at all (DynaStar mode only). In a cluster
    /// this is the setting ANDed with whether the oracle can ever plan
    /// (`OracleConfig::can_plan`: DynaStar mode, more than one partition
    /// and a finite `repartition_threshold`) — `ClusterConfig::server_config`
    /// derives the bit, so a deployment that never repartitions sends no
    /// hint.
    pub collect_hints: bool,
    /// Whether this replica records server-side metrics. Every replica of
    /// a partition executes every command, so exactly one replica (index
    /// 0) records, or counters would multiply by the replication factor.
    pub record_metrics: bool,
    /// The modelled execution engine: worker count, per-command cost and
    /// dependency-window size (see [`ExecConfig`]).
    pub exec: ExecConfig,
    /// Staged migration: plan-triggered key moves ship their variables in
    /// rate-limited, individually acknowledged chunks instead of one
    /// unbounded shipment. Off by default (classic single-shipment path).
    pub staged_migration: bool,
    /// Variables per staged chunk (≥ 1).
    pub migration_chunk_vars: u32,
    /// Modelled serialized size of one variable, bytes (bandwidth model).
    pub migration_var_bytes: u64,
    /// Modelled migration link bandwidth in bytes/second. `0` means
    /// unconstrained: transfers are free and charge no CPU/NIC time.
    pub migration_link_bytes_per_sec: u64,
    /// Base per-chunk ack timeout; also the starting backoff.
    pub migration_chunk_timeout: SimDuration,
    /// Chunk retransmissions before the source gives up and reverts the
    /// key's move (falling back to the previous plan).
    pub migration_max_retries: u32,
    /// The window of a source→destination link: max staged chunks put on
    /// it that still await their ack. A chunk toward a full window waits
    /// for an ack, a timeout or a give-up to free a place. While acks
    /// return before the link frees the window never binds; under a delay
    /// brownout it bounds how many chunks time out. `0` = unbounded.
    pub migration_max_inflight_per_link: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            hint_batch: 64,
            collect_hints: true,
            record_metrics: true,
            exec: ExecConfig::default(),
            staged_migration: false,
            migration_chunk_vars: 8,
            migration_var_bytes: 512,
            migration_link_bytes_per_sec: 0,
            migration_chunk_timeout: SimDuration::from_millis(200),
            migration_max_retries: 5,
            migration_max_inflight_per_link: 0,
        }
    }
}
