//! The metric handles of one replica, interned once per registry.

use dynastar_runtime::{CounterId, Interned, Metrics, SeriesId};

use crate::command::PartitionId;
use crate::metric_names as mn;

/// Dense metric ids for everything the core records per executed command —
/// index-based lookups on the delivery path instead of string-keyed ones.
#[derive(Debug, Clone, Copy)]
pub(super) struct ServerMetricIds {
    pub objects_exchanged: CounterId,
    pub cmd_retry: CounterId,
    pub cmd_multi: CounterId,
    pub cmd_single: CounterId,
    pub migration_chunks_sent: CounterId,
    pub migration_chunk_retries: CounterId,
    pub migration_reverts: CounterId,
    pub migration_keys_staged: CounterId,
    pub exec_parallel: CounterId,
    pub exec_serialized: CounterId,
    pub exec_window_stall: CounterId,
    pub s_cmd_multi: SeriesId,
    pub s_cmd_single: SeriesId,
    pub s_executed: SeriesId,
    pub s_multi: SeriesId,
    pub s_objects: SeriesId,
}

/// Resolves [`ServerMetricIds`] against the registry on first record.
#[derive(Debug, Clone)]
pub(super) struct Meter {
    /// Pre-rendered per-partition series names (hot path).
    name_executed: String,
    name_multi: String,
    name_objects: String,
    ids: Interned<ServerMetricIds>,
}

impl Meter {
    pub(super) fn new(partition: PartitionId) -> Self {
        Meter {
            name_executed: mn::partition_executed(partition.0),
            name_multi: mn::partition_multi(partition.0),
            name_objects: mn::partition_objects(partition.0),
            ids: Interned::default(),
        }
    }

    /// The interned metric ids.
    #[inline]
    pub(super) fn ids(&mut self, metrics: &mut Metrics) -> ServerMetricIds {
        let Meter { name_executed, name_multi, name_objects, ids } = self;
        *ids.get(metrics, |m| ServerMetricIds {
            objects_exchanged: m.counter_id(mn::OBJECTS_EXCHANGED),
            cmd_retry: m.counter_id(mn::CMD_RETRY),
            cmd_multi: m.counter_id(mn::CMD_MULTI),
            cmd_single: m.counter_id(mn::CMD_SINGLE),
            migration_chunks_sent: m.counter_id(mn::MIGRATION_CHUNKS_SENT),
            migration_chunk_retries: m.counter_id(mn::MIGRATION_CHUNK_RETRIES),
            migration_reverts: m.counter_id(mn::MIGRATION_REVERTS),
            migration_keys_staged: m.counter_id(mn::MIGRATION_KEYS_STAGED),
            exec_parallel: m.counter_id(mn::EXEC_PARALLEL),
            exec_serialized: m.counter_id(mn::EXEC_SERIALIZED),
            exec_window_stall: m.counter_id(mn::EXEC_WINDOW_STALL),
            s_cmd_multi: m.series_id(mn::CMD_MULTI),
            s_cmd_single: m.series_id(mn::CMD_SINGLE),
            s_executed: m.series_id(name_executed),
            s_multi: m.series_id(name_multi),
            s_objects: m.series_id(name_objects),
        })
    }
}
