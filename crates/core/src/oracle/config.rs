//! The oracle's tunables.

use dynastar_runtime::SimDuration;

use crate::command::Mode;

/// Tunables for the oracle.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Number of state partitions.
    pub partitions: u32,
    /// Execution mode (drives routing-side behaviour differences).
    pub mode: Mode,
    /// Workload-graph change count that triggers a repartitioning.
    /// `u64::MAX` never does (see [`OracleConfig::can_plan`]).
    pub repartition_threshold: u64,
    /// Modelled partitioner base latency.
    pub compute_base: SimDuration,
    /// Modelled additional latency per graph element (vertex or edge).
    pub compute_per_element: SimDuration,
    /// Allowed partition imbalance (paper: 1.2).
    pub balance_factor: f64,
    /// Halve hint weights at every recompute so the graph tracks the
    /// *recent* workload (needed for the paper's dynamic experiment).
    pub decay_hints: bool,
    /// Hard cap on workload-graph vertices. Without a cap the graph grows
    /// without limit under a churning keyspace (keys accessed once are
    /// remembered forever, and with `decay_hints` off nothing ever shrinks
    /// it). When the cap is exceeded the oracle runs a decay pass and then
    /// evicts the lowest-weight vertices — the entries that influence the
    /// next plan least.
    pub max_graph_vertices: usize,
    /// Hard cap on workload-graph edges; enforced like
    /// [`OracleConfig::max_graph_vertices`].
    pub max_graph_edges: usize,
    /// Minimum time between repartitionings. Even past the change
    /// threshold, the oracle waits this long after the previous plan —
    /// repartitioning is rare and deliberate in the paper (§4.3: "it is
    /// expected to happen rarely").
    pub min_plan_interval: SimDuration,
    /// Whether this replica records oracle-side metrics (only one replica
    /// per oracle group should, or counters multiply by the replication
    /// factor).
    pub record_metrics: bool,
    /// Warm-start repartitioning: seed the partitioner's boundary
    /// refinement from the current location map (the surviving keys of
    /// the last published plan) instead of re-running the full multilevel
    /// pipeline. Falls back to a full run when the warm cut or keyspace
    /// churn disqualify it — see [`OracleConfig::warm_quality_ratio`] and
    /// [`OracleConfig::warm_churn_limit`].
    pub warm_start: bool,
    /// Accept a warm-started plan only while its normalized edge cut
    /// (cut / total edge weight) stays within this ratio of the last
    /// *full* multilevel run's. Past it, the incremental path has drifted
    /// too far from optimal and a full run recalibrates.
    pub warm_quality_ratio: f64,
    /// Fall back to a full run when keys created + deleted since the last
    /// plan compute exceed this fraction of the tracked keyspace — a
    /// churned keyspace leaves too little of the previous assignment to
    /// warm-start from.
    pub warm_churn_limit: f64,
    /// Number of oracle shard groups the cluster runs (DESIGN.md §7).
    /// `1` reproduces the unsharded oracle exactly.
    pub shards: u32,
    /// This core's shard index, `0..shards`. Shard 0 is the planner: it
    /// owns the workload graph and the recompute/plan machinery, and
    /// partitions send their hints to it whole.
    pub shard: u32,
    /// Has no effect: no shard ships a graph digest any more. Kept only
    /// because the benchmark names it in a full struct literal; the
    /// benchmark-only change removes it.
    pub digest_threshold: u64,
    /// Has no effect, like [`OracleConfig::digest_threshold`], and goes
    /// with it.
    pub digest_interval: SimDuration,
}

impl OracleConfig {
    /// Whether this deployment can ever compute a plan: the mode
    /// repartitions, there is more than one partition to repartition over,
    /// and the change threshold is reachable. When it cannot, nobody needs
    /// the workload graph — partitions are not asked to collect hints.
    pub fn can_plan(&self) -> bool {
        self.mode.optimizes() && self.partitions > 1 && self.repartition_threshold != u64::MAX
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            partitions: 1,
            mode: Mode::Dynastar,
            repartition_threshold: 2_000,
            compute_base: SimDuration::from_millis(50),
            compute_per_element: SimDuration::from_micros(1),
            balance_factor: 1.2,
            decay_hints: true,
            max_graph_vertices: 1 << 18,
            max_graph_edges: 1 << 20,
            min_plan_interval: SimDuration::from_secs(30),
            record_metrics: true,
            warm_start: true,
            warm_quality_ratio: 1.1,
            warm_churn_limit: 0.25,
            shards: 1,
            shard: 0,
            digest_threshold: 256,
            digest_interval: SimDuration::from_millis(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_dynastar_over_several_partitions_with_a_reachable_threshold_can_plan() {
        const NEVER: u64 = u64::MAX;
        let table = [
            (Mode::Dynastar, 2, 2_000, true),
            (Mode::Dynastar, 8, 0, true),
            (Mode::Dynastar, 2, NEVER - 1, true),
            (Mode::Dynastar, 2, NEVER, false),
            (Mode::Dynastar, 1, 2_000, false),
            (Mode::Dynastar, 1, NEVER, false),
            (Mode::SSmr, 2, 2_000, false),
            (Mode::SSmr, 1, NEVER, false),
            (Mode::DsSmr, 8, 2_000, false),
            (Mode::DsSmr, 2, NEVER, false),
        ];
        for (mode, partitions, repartition_threshold, can) in table {
            let cfg =
                OracleConfig { mode, partitions, repartition_threshold, ..OracleConfig::default() };
            assert_eq!(
                cfg.can_plan(),
                can,
                "{mode:?}, {partitions} partitions, {repartition_threshold}"
            );
        }
    }
}
