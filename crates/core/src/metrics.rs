//! Optimization reports: the metrics the paper's evaluation plots
//! (optimization time, memory, Pareto-plan counts, iterations, timeouts),
//! plus the per-iteration convergence trace of the randomized optimizer.

use std::time::Duration;

use moqo_cost::CostVector;

use crate::dp::DpStats;
use crate::pareto::PruneMode;

/// One sampled point of an anytime optimizer's convergence trace: the state
/// of the incumbent Pareto front after `iteration` samples.
#[derive(Debug, Clone, Default)]
pub struct ConvergencePoint {
    /// Number of candidate plans sampled so far.
    pub iteration: u64,
    /// Size of the incumbent Pareto front.
    pub front_size: usize,
    /// Weighted cost of the best incumbent under the run's preference
    /// (bound-respecting plans first, per `SelectBest`).
    pub best_weighted: f64,
    /// Snapshot of the incumbent front's cost vectors; populated only when
    /// the run records fronts (`RmqConfig::record_fronts`), otherwise empty.
    pub front: Vec<CostVector>,
}

/// Metrics for optimizing one query block.
#[derive(Debug, Clone, Default)]
pub struct BlockReport {
    /// Wall-clock optimization time for the block.
    pub elapsed: Duration,
    /// Whether the block's optimization hit the deadline.
    pub timed_out: bool,
    /// Peak deterministic memory: peak stored plans ×
    /// [`DpStats::bytes_per_stored_plan`].
    pub peak_memory_bytes: usize,
    /// Plans stored for the last table set treated completely.
    pub pareto_last_complete: usize,
    /// Maximum plan-set size over all (table set, order) groups.
    pub max_group_size: usize,
    /// Plans constructed and offered to `Prune`.
    pub considered_plans: u64,
    /// Always 0: plan sets keep no grid index. The field stays because
    /// load drivers read it and [`BlockReport::trace_digest`] folds it, so
    /// replay checksums stay byte-stable.
    pub frontier_grid_hits: u64,
    /// Every frontier `would_reject` probe of the block's plan sets.
    pub frontier_scan_probes: u64,
    /// IRA iterations executed (1 for EXA/RTA, sampled candidates for RMQ).
    pub iterations: u32,
    /// Final per-iteration precision used (IRA), or the configured internal
    /// precision (RTA), or 1.0 (EXA), or NaN (RMQ — no guarantee).
    pub alpha_final: f64,
    /// Dominance relation every pruning site of the run discarded plans
    /// under (see [`PruneMode::auto`]). A guarantee — and with it any
    /// α-certificate derived from the block's front — is only meaningful
    /// together with the mode that produced it: a cost-only front computed
    /// while sampling leaks cardinality past the cost vector covers less
    /// than its α claims.
    pub prune_mode: PruneMode,
}

impl BlockReport {
    /// A deterministic FNV-1a digest over the report's *reproducible*
    /// fields — everything except `elapsed`, which is wall-clock noise.
    /// Two runs of the same block under the same algorithm, seed and
    /// pruning mode produce the same digest, so a serving layer can embed
    /// it in replay-checksummed trace events as a compact `DpStats`
    /// summary.
    #[must_use]
    pub fn trace_digest(&self) -> u64 {
        let mut acc = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |value: u64| {
            for byte in value.to_le_bytes() {
                acc ^= u64::from(byte);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        fold(u64::from(self.timed_out));
        fold(self.peak_memory_bytes as u64);
        fold(self.pareto_last_complete as u64);
        fold(self.max_group_size as u64);
        fold(self.considered_plans);
        fold(self.frontier_grid_hits);
        fold(self.frontier_scan_probes);
        fold(u64::from(self.iterations));
        fold(self.alpha_final.to_bits());
        fold(match self.prune_mode {
            PruneMode::CostOnly => 0,
            PruneMode::PropsAware => 1,
        });
        acc
    }

    /// Builds a report from DP statistics plus timing.
    #[must_use]
    pub fn from_stats(
        stats: &DpStats,
        elapsed: Duration,
        iterations: u32,
        alpha: f64,
        prune_mode: PruneMode,
    ) -> Self {
        BlockReport {
            elapsed,
            timed_out: stats.timed_out,
            peak_memory_bytes: stats.peak_memory_bytes,
            pareto_last_complete: stats.pareto_last_complete,
            max_group_size: stats.max_group_size,
            considered_plans: stats.considered_plans,
            frontier_grid_hits: 0,
            frontier_scan_probes: stats.frontier_scan_probes,
            iterations,
            alpha_final: alpha,
            prune_mode,
        }
    }
}

/// Aggregated metrics over all blocks of one query.
#[derive(Debug, Clone, Default)]
pub struct OptimizationReport {
    /// Per-block reports in block order.
    pub blocks: Vec<BlockReport>,
}

impl OptimizationReport {
    /// Total optimization time across blocks.
    #[must_use]
    pub fn total_elapsed(&self) -> Duration {
        self.blocks.iter().map(|b| b.elapsed).sum()
    }

    /// Whether any block timed out.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.blocks.iter().any(|b| b.timed_out)
    }

    /// Sum of per-block peak memory (blocks are optimized sequentially but
    /// their results all stay resident, mirroring the paper's "allocated
    /// memory during optimization").
    #[must_use]
    pub fn peak_memory_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.peak_memory_bytes).sum()
    }

    /// Largest "Pareto plans for the last completely treated table set"
    /// value over the blocks (the figure metric for multi-block queries).
    #[must_use]
    pub fn pareto_last_complete(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.pareto_last_complete)
            .max()
            .unwrap_or(0)
    }

    /// Maximum iteration count over blocks (IRA).
    #[must_use]
    pub fn iterations(&self) -> u32 {
        self.blocks.iter().map(|b| b.iterations).max().unwrap_or(0)
    }

    /// Total number of considered plans over blocks.
    #[must_use]
    pub fn considered_plans(&self) -> u64 {
        self.blocks.iter().map(|b| b.considered_plans).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(ms: u64, mem: usize, pareto: usize, iters: u32, timed_out: bool) -> BlockReport {
        BlockReport {
            elapsed: Duration::from_millis(ms),
            timed_out,
            peak_memory_bytes: mem,
            pareto_last_complete: pareto,
            max_group_size: pareto,
            considered_plans: 10,
            frontier_grid_hits: 0,
            frontier_scan_probes: 10,
            iterations: iters,
            alpha_final: 1.0,
            prune_mode: PruneMode::CostOnly,
        }
    }

    #[test]
    fn aggregates_over_blocks() {
        let report = OptimizationReport {
            blocks: vec![block(5, 100, 3, 1, false), block(7, 200, 8, 4, true)],
        };
        assert_eq!(report.total_elapsed(), Duration::from_millis(12));
        assert!(report.timed_out());
        assert_eq!(report.peak_memory_bytes(), 300);
        assert_eq!(report.pareto_last_complete(), 8);
        assert_eq!(report.iterations(), 4);
        assert_eq!(report.considered_plans(), 20);
    }

    #[test]
    fn trace_digest_ignores_elapsed_only() {
        let a = block(5, 100, 3, 1, false);
        let slower = BlockReport {
            elapsed: Duration::from_secs(9),
            ..a.clone()
        };
        assert_eq!(a.trace_digest(), slower.trace_digest());
        let different = BlockReport {
            considered_plans: 11,
            ..a.clone()
        };
        assert_ne!(a.trace_digest(), different.trace_digest());
        let timed_out = BlockReport {
            timed_out: true,
            ..a
        };
        assert_ne!(a.trace_digest(), timed_out.trace_digest());
    }

    #[test]
    fn empty_report_defaults() {
        let report = OptimizationReport::default();
        assert_eq!(report.total_elapsed(), Duration::ZERO);
        assert!(!report.timed_out());
        assert_eq!(report.pareto_last_complete(), 0);
    }
}
