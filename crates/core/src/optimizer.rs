//! User-facing optimizer facade over multi-block queries.
//!
//! The paper keeps the Postgres heuristic of optimizing different subqueries
//! of the same query separately (§4). [`Optimizer::optimize`] therefore runs
//! the selected algorithm once per [`moqo_catalog::JoinGraph`] block and
//! combines the per-block costs into a query-level cost vector.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moqo_catalog::{Catalog, JoinGraph, Query};
use moqo_cost::{CostVector, Objective, Preference};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_plan::{JoinTree, PlanArena, PlanId};

use crate::budget::Deadline;
use crate::exa_rta::{exa, rta};
use crate::ira::ira;
use crate::metrics::{BlockReport, OptimizationReport};
use crate::pareto::{PlanEntry, PruneMode};
use crate::rmq::{rmq_warm, RmqConfig};
use crate::select::select_best;

/// The optimization algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// The exact algorithm (Ganguly et al.); optimal but expensive.
    Exhaustive,
    /// The representative-tradeoffs approximation scheme for weighted MOQO.
    Rta {
        /// User precision `α_U ≥ 1`.
        alpha: f64,
    },
    /// The iterative-refinement approximation scheme for bounded-weighted
    /// MOQO.
    Ira {
        /// User precision `α_U ≥ 1`.
        alpha: f64,
    },
    /// The anytime randomized optimizer: no formal guarantee, but scales to
    /// join graphs far beyond the dynamic-programming schemes. Fully
    /// deterministic per seed. The per-block iteration budget combines with
    /// [`Optimizer::with_timeout`] (whichever stops first).
    Rmq {
        /// Iteration budget (sampled candidate plans) per query block.
        samples: u64,
        /// RNG seed.
        seed: u64,
        /// Ignored: RMQ runs on the calling thread. The field stays only
        /// because `benchmark/` still sets it, and goes with that crate's
        /// next change.
        threads: usize,
    },
}

/// The chosen plan for one query block, together with the (approximate)
/// Pareto frontier produced as a by-product ("All implemented MOQO
/// algorithms produce an (approximate) Pareto frontier as byproduct of
/// optimization", §4).
#[derive(Debug)]
pub struct BlockPlan {
    /// Arena owning the block's plans.
    pub arena: PlanArena,
    /// The selected plan.
    pub root: PlanId,
    /// Cost vector of the selected plan.
    pub cost: CostVector,
    /// The (approximate) Pareto frontier for the block: full entries whose
    /// plan ids resolve in [`BlockPlan::arena`], so callers (plan caches,
    /// alternative-plan UIs) can extract every frontier plan, not just its
    /// cost vector.
    pub frontier: Vec<PlanEntry>,
}

impl BlockPlan {
    /// The frontier's cost vectors, in frontier order.
    #[must_use]
    pub fn frontier_costs(&self) -> Vec<CostVector> {
        self.frontier.iter().map(|e| e.cost).collect()
    }

    /// Extracts the frontier's plans as owned join trees, in frontier order
    /// — the by-value form a cache or another thread can hold without
    /// keeping this block's arena alive.
    #[must_use]
    pub fn frontier_trees(&self) -> Vec<JoinTree> {
        self.frontier
            .iter()
            .map(|e| self.arena.extract_tree(e.plan))
            .collect()
    }
}

/// The result of optimizing a (possibly multi-block) query.
#[derive(Debug)]
pub struct OptimizationResult {
    /// Per-block plans, in query block order.
    pub block_plans: Vec<BlockPlan>,
    /// Combined cost vector over all blocks (see [`combine_block_costs`]).
    pub total_cost: CostVector,
    /// Weighted cost of [`OptimizationResult::total_cost`].
    pub weighted_cost: f64,
    /// Whether the combined cost respects the preference's bounds.
    pub respects_bounds: bool,
    /// Metrics per block plus aggregates.
    pub report: OptimizationReport,
}

/// Combines per-block cost vectors into a query-level vector. Blocks execute
/// sequentially, so additive objectives sum; the cores footprint is the
/// maximum over blocks; tuple loss composes like a join of the block
/// results.
#[must_use]
pub fn combine_block_costs(blocks: &[CostVector]) -> CostVector {
    let mut total = CostVector::zero();
    let mut survival = 1.0f64;
    for c in blocks {
        for o in Objective::ALL {
            match o {
                Objective::UsedCores => {
                    total.set(o, total.get(o).max(c.get(o)));
                }
                Objective::TupleLoss => {
                    survival *= 1.0 - c.get(o).clamp(0.0, 1.0);
                }
                _ => total.set(o, total.get(o) + c.get(o)),
            }
        }
    }
    total.set(Objective::TupleLoss, (1.0 - survival).clamp(0.0, 1.0));
    total
}

/// The optimizer facade: binds a catalog, cost-model parameters, an
/// optional per-block timeout and an optional cancel flag.
#[derive(Debug, Clone)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    params: CostModelParams,
    timeout: Option<Duration>,
    cancel: Option<Arc<AtomicBool>>,
}

impl<'a> Optimizer<'a> {
    /// An optimizer over `catalog` with default cost-model parameters, no
    /// timeout and no cancel flag.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        Optimizer {
            catalog,
            params: CostModelParams::default(),
            timeout: None,
            cancel: None,
        }
    }

    /// Replaces the cost-model parameters (builder style).
    #[must_use]
    pub fn with_params(mut self, params: CostModelParams) -> Self {
        self.params = params;
        self
    }

    /// Sets a per-block optimization timeout (builder style). On expiry the
    /// dynamic programming finishes quickly with a single plan per
    /// remaining table set (§5.1).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Ties every block run to a shared cancel flag (builder style). Once
    /// the flag is set, a running block stops as on a timeout (see
    /// [`Deadline`]) and reports `timed_out`; a block started afterwards
    /// stops at its first check.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Access to the configured cost-model parameters.
    #[must_use]
    pub fn params(&self) -> &CostModelParams {
        &self.params
    }

    /// Optimizes `query` under `preference` with `algorithm`.
    ///
    /// # Panics
    ///
    /// Panics if the query has no blocks, a block is empty, or the
    /// preference fails [`Preference::validate`].
    #[must_use]
    pub fn optimize(
        &self,
        query: &Query,
        preference: &Preference,
        algorithm: Algorithm,
    ) -> OptimizationResult {
        assert!(
            !query.blocks.is_empty(),
            "query must have at least one block"
        );

        let mut block_plans = Vec::with_capacity(query.blocks.len());
        let mut reports = Vec::with_capacity(query.blocks.len());
        let mut block_costs = Vec::with_capacity(query.blocks.len());

        for graph in &query.blocks {
            let (block, report) = self.optimize_block(graph, preference, algorithm);
            block_costs.push(block.cost);
            block_plans.push(block);
            reports.push(report);
        }

        let total_cost = combine_block_costs(&block_costs);
        OptimizationResult {
            weighted_cost: preference.weighted_cost(&total_cost),
            respects_bounds: preference.respects_bounds(&total_cost),
            block_plans,
            total_cost,
            report: OptimizationReport { blocks: reports },
        }
    }

    /// Optimizes a single query block — the per-block entry point a serving
    /// layer schedules and caches on ([`Optimizer::optimize`] is this in a
    /// loop plus [`combine_block_costs`]).
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or the preference fails
    /// [`Preference::validate`].
    #[must_use]
    pub fn optimize_block(
        &self,
        graph: &JoinGraph,
        preference: &Preference,
        algorithm: Algorithm,
    ) -> (BlockPlan, BlockReport) {
        self.optimize_block_warm(graph, preference, algorithm, &[])
    }

    /// [`Optimizer::optimize_block`] with warm-start plans: for
    /// [`Algorithm::Rmq`] the trees seed the walker population (see
    /// [`rmq_warm`]); the dynamic-programming schemes enumerate
    /// exhaustively by construction and ignore them.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or the preference fails
    /// [`Preference::validate`].
    #[must_use]
    pub fn optimize_block_warm(
        &self,
        graph: &JoinGraph,
        preference: &Preference,
        algorithm: Algorithm,
        warm_start: &[JoinTree],
    ) -> (BlockPlan, BlockReport) {
        if let Err(reason) = preference.validate() {
            panic!("invalid preference: {reason}");
        }
        let model = CostModel::new(&self.params, self.catalog, graph);
        let deadline = Deadline::cancellable(self.timeout, self.cancel.clone());
        // The mode every algorithm's pruning sites run under — recorded in
        // the report so serving layers can refuse to mix fronts certified
        // under different modes. The inner algorithms derive the same value
        // through the same function; this is the single selection rule.
        let prune_mode = PruneMode::auto(self.params.enable_sampling, preference.objectives);
        #[expect(clippy::disallowed_methods, reason = "`BlockReport::elapsed` clock")]
        let started = Instant::now();
        let (arena, final_plans, stats, iterations, alpha_final) = match algorithm {
            Algorithm::Exhaustive => {
                let result = exa(&model, preference, &deadline);
                (result.arena, result.final_plans, result.stats, 1, 1.0)
            }
            Algorithm::Rta { alpha } => {
                let result = rta(&model, preference, alpha, &deadline);
                (result.arena, result.final_plans, result.stats, 1, alpha)
            }
            Algorithm::Ira { alpha } => {
                let out = ira(&model, preference, alpha, &deadline);
                (
                    out.result.arena,
                    out.result.final_plans,
                    out.result.stats,
                    out.iterations,
                    out.alpha_last,
                )
            }
            Algorithm::Rmq { samples, seed, .. } => {
                let out = rmq_warm(
                    &model,
                    preference,
                    &RmqConfig::new(samples, seed),
                    &deadline,
                    warm_start,
                );
                (
                    out.arena,
                    out.final_plans,
                    out.stats,
                    u32::try_from(out.iterations).unwrap_or(u32::MAX),
                    // Randomized search carries no precision guarantee.
                    f64::NAN,
                )
            }
        };
        let best: PlanEntry =
            select_best(&final_plans, preference).expect("optimizers return at least one plan");
        let report = BlockReport::from_stats(
            &stats,
            started.elapsed(),
            iterations,
            alpha_final,
            prune_mode,
        );
        (
            BlockPlan {
                arena,
                root: best.plan,
                cost: best.cost,
                frontier: final_plans,
            },
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{ColumnStats, JoinGraphBuilder, TableStats};
    use moqo_cost::ObjectiveSet;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("orders", 20_000.0, 121.0)
                .with_column(ColumnStats::new("o_orderkey", 20_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("lineitem", 80_000.0, 129.0)
                .with_column(ColumnStats::new("l_orderkey", 20_000.0).indexed()),
        );
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let block = JoinGraphBuilder::new(cat)
            .rel("orders", 1.0)
            .rel("lineitem", 0.5)
            .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
            .build();
        Query::single_block("test", block)
    }

    fn pref() -> Preference {
        Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::TupleLoss,
        ]))
        .weight(Objective::TotalTime, 1.0)
        .bound(Objective::TupleLoss, 0.0)
    }

    #[test]
    fn all_algorithms_produce_plans() {
        let cat = catalog();
        let q = query(&cat);
        let p = pref();
        let optimizer = Optimizer::new(&cat);
        for algo in [
            Algorithm::Exhaustive,
            Algorithm::Rta { alpha: 1.5 },
            Algorithm::Ira { alpha: 1.5 },
            Algorithm::Rmq {
                samples: 200,
                seed: 11,
                threads: 1,
            },
        ] {
            let result = optimizer.optimize(&q, &p, algo);
            assert_eq!(result.block_plans.len(), 1);
            assert!(result.weighted_cost > 0.0);
            assert!(result.respects_bounds, "tuple-loss-0 plans exist");
            assert!(!result.block_plans[0].frontier.is_empty());
            assert!(result.report.total_elapsed() > Duration::ZERO);
        }
    }

    #[test]
    fn rta_within_alpha_of_exhaustive() {
        let cat = catalog();
        let q = query(&cat);
        let p = pref();
        let optimizer = Optimizer::new(&cat);
        let exact = optimizer.optimize(&q, &p, Algorithm::Exhaustive);
        let approx = optimizer.optimize(&q, &p, Algorithm::Rta { alpha: 2.0 });
        assert!(approx.weighted_cost <= 2.0 * exact.weighted_cost + 1e-9);
    }

    #[test]
    fn multi_block_queries_combine_costs() {
        let cat = catalog();
        let block = JoinGraphBuilder::new(&cat)
            .rel("orders", 1.0)
            .rel("lineitem", 0.5)
            .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
            .build();
        let q = Query {
            name: "two-block".into(),
            blocks: vec![block.clone(), block],
        };
        let p = pref();
        let optimizer = Optimizer::new(&cat);
        let result = optimizer.optimize(&q, &p, Algorithm::Rta { alpha: 1.5 });
        assert_eq!(result.block_plans.len(), 2);
        assert_eq!(result.report.blocks.len(), 2);
        // Additive objective: total time is the sum of the block times.
        let sum: f64 = result
            .block_plans
            .iter()
            .map(|b| b.cost.get(Objective::TotalTime))
            .sum();
        assert!((result.total_cost.get(Objective::TotalTime) - sum).abs() < 1e-9);
    }

    #[test]
    fn combine_block_costs_rules() {
        let a = CostVector::from_pairs(&[
            (Objective::TotalTime, 10.0),
            (Objective::UsedCores, 2.0),
            (Objective::TupleLoss, 0.5),
        ]);
        let b = CostVector::from_pairs(&[
            (Objective::TotalTime, 5.0),
            (Objective::UsedCores, 4.0),
            (Objective::TupleLoss, 0.5),
        ]);
        let c = combine_block_costs(&[a, b]);
        assert_eq!(c.get(Objective::TotalTime), 15.0);
        assert_eq!(c.get(Objective::UsedCores), 4.0);
        assert!((c.get(Objective::TupleLoss) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timeout_is_reported() {
        let cat = catalog();
        let q = query(&cat);
        let p = pref();
        let optimizer = Optimizer::new(&cat).with_timeout(Duration::ZERO);
        let result = optimizer.optimize(&q, &p, Algorithm::Exhaustive);
        assert!(result.report.timed_out());
        assert_eq!(result.block_plans.len(), 1);
    }

    #[test]
    fn a_set_cancel_flag_stops_every_algorithm_like_a_timeout() {
        let cat = catalog();
        let q = query(&cat);
        let p = pref();
        let cancel = Arc::new(std::sync::atomic::AtomicBool::new(true));
        // The minute-long timeout only bounds the test should the flag be
        // missed; a cancelled run returns at once.
        let optimizer = Optimizer::new(&cat)
            .with_timeout(Duration::from_secs(60))
            .with_cancel(cancel);
        for algorithm in [
            Algorithm::Exhaustive,
            Algorithm::Rta { alpha: 1.5 },
            Algorithm::Ira { alpha: 1.5 },
            Algorithm::Rmq {
                samples: u64::MAX,
                seed: 3,
                threads: 1,
            },
        ] {
            let result = optimizer.optimize(&q, &p, algorithm);
            assert!(result.report.timed_out(), "{algorithm:?}");
            assert!(result.report.total_elapsed() < Duration::from_secs(10));
            assert!(!result.block_plans[0].frontier.is_empty());
        }
    }
}
