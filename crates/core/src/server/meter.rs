//! The metric handles of one replica, interned once per registry.

use dynastar_runtime::{CounterId, Metrics, SeriesId};

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
    pub migration_deferred: CounterId,
    pub migration_released: CounterId,
    pub exec_parallel: CounterId,
    pub exec_serialized: CounterId,
    pub exec_window_stall: CounterId,
    pub s_cmd_multi: SeriesId,
    pub s_cmd_single: SeriesId,
    pub s_executed: SeriesId,
    pub s_multi: SeriesId,
    pub s_objects: SeriesId,
}

/// Resolves [`ServerMetricIds`] lazily against the simulation's registry
/// on first record, tagged with that registry's id so a core handed a
/// different `Metrics` instance re-interns instead of indexing into the
/// wrong registry. Ids carry their tag, so a clone installed on another
/// replica of the same simulation can keep them.
#[derive(Debug, Clone)]
pub(super) struct Meter {
    /// Pre-rendered per-partition series names (hot path).
    name_executed: String,
    name_multi: String,
    name_objects: String,
    ids: Option<(u64, ServerMetricIds)>,
}

impl Meter {
    pub(super) fn new(partition: PartitionId) -> Self {
        Meter {
            name_executed: mn::partition_executed(partition.0),
            name_multi: mn::partition_multi(partition.0),
            name_objects: mn::partition_objects(partition.0),
            ids: None,
        }
    }

    /// The interned metric ids, resolving them on first use (and again
    /// whenever a different registry shows up).
    #[inline]
    pub(super) fn ids(&mut self, metrics: &mut Metrics) -> ServerMetricIds {
        if let Some((reg, ids)) = self.ids {
            if reg == metrics.registry_id() {
                return ids;
            }
        }
        let ids = ServerMetricIds {
            objects_exchanged: metrics.counter_id(mn::OBJECTS_EXCHANGED),
            cmd_retry: metrics.counter_id(mn::CMD_RETRY),
            cmd_multi: metrics.counter_id(mn::CMD_MULTI),
            cmd_single: metrics.counter_id(mn::CMD_SINGLE),
            migration_chunks_sent: metrics.counter_id(mn::MIGRATION_CHUNKS_SENT),
            migration_chunk_retries: metrics.counter_id(mn::MIGRATION_CHUNK_RETRIES),
            migration_reverts: metrics.counter_id(mn::MIGRATION_REVERTS),
            migration_keys_staged: metrics.counter_id(mn::MIGRATION_KEYS_STAGED),
            migration_deferred: metrics.counter_id(mn::MIGRATION_DEFERRED),
            migration_released: metrics.counter_id(mn::MIGRATION_RELEASED),
            exec_parallel: metrics.counter_id(mn::EXEC_PARALLEL),
            exec_serialized: metrics.counter_id(mn::EXEC_SERIALIZED),
            exec_window_stall: metrics.counter_id(mn::EXEC_WINDOW_STALL),
            s_cmd_multi: metrics.series_id(mn::CMD_MULTI),
            s_cmd_single: metrics.series_id(mn::CMD_SINGLE),
            s_executed: metrics.series_id(&self.name_executed),
            s_multi: metrics.series_id(&self.name_multi),
            s_objects: metrics.series_id(&self.name_objects),
        };
        self.ids = Some((metrics.registry_id(), ids));
        ids
    }
}
