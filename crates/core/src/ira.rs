//! The iterative-refinement algorithm (IRA, Algorithm 3) for
//! bounded-weighted MOQO on one query block.
//!
//! An approximate Pareto set does not necessarily contain a near-optimal
//! plan once bounds are involved (paper Figure 8): two cost vectors can be
//! arbitrarily similar while only one respects the bounds. The IRA therefore
//! iterates the RTA's `FindParetoPlans` with geometrically refined precision
//! and stops as soon as a certificate proves the currently best plan
//! `α_U`-approximate (Theorem 6):
//!
//! > terminate once `¬∃ p ∈ P : c(p) ⪯ α·B ∧ C_W(c(p))/α < C_W(c(popt))/α_U`
//!
//! The precision schedule `α(i) = α_U^(2^(−i/(3l−3)))` is derived from
//! Theorem 7: it makes the worst-case time of iteration `i` grow like `2^i`
//! (§7.2). That bounds how fast the worst case grows from one iteration to
//! the next; it does not make the final iteration dominate the actual work.
//! On small blocks, such as the ones of at most three relations that the
//! `benchmark/` `tpch_dp` workload bounds, the iterations cost about the
//! same: the TPC-H Q14 case of `ira_block_counts_the_work_of_every_iteration`
//! (two relations, six objectives, α_U = 1.5) runs 10 iterations that each
//! consider 294 plans, so the last one does a tenth of the 2,940. That is
//! why [`IraResult`] reports the work of every iteration, not only the last
//! one's.

use moqo_cost::Preference;
use moqo_costmodel::CostModel;

use crate::budget::Deadline;
use crate::dp::{DpResult, DpStats};
use crate::exa_rta::{rta_internal_precision, run};
use crate::pareto::PlanEntry;
use crate::select::select_best;

/// Precision used by IRA iteration `i` (1-based) for `l` objectives:
/// `α_U^(2^(−i/(3l−3)))`. For `l = 1` the denominator degenerates; we clamp
/// it to 1, which makes the schedule converge in a single refinement step
/// (bounded single-objective optimization needs no Pareto tradeoffs).
#[must_use]
pub fn ira_precision_schedule(alpha_u: f64, objectives: usize, iteration: u32) -> f64 {
    debug_assert!(alpha_u >= 1.0 && objectives >= 1 && iteration >= 1);
    let denom = (3 * objectives).saturating_sub(3).max(1) as f64;
    alpha_u.powf(2f64.powf(-f64::from(iteration) / denom))
}

/// Below this distance from 1 the iteration precision is snapped to exactly
/// 1 (an exact iteration), guaranteeing termination despite floating point.
const ALPHA_EXACT_THRESHOLD: f64 = 1.0 + 1e-6;

/// Hard cap on iterations before forcing an exact final iteration. The
/// paper's Figure 10 observes up to ≈100 iterations; the cap only matters
/// when floating-point noise stalls the certificate.
const MAX_ITERATIONS: u32 = 128;

/// Result of one IRA run.
#[derive(Debug)]
pub struct IraResult {
    /// The last iteration's plan set (an `α_last`-approximate Pareto set).
    /// Its work counters (`considered_plans`, `frontier_scan_probes`,
    /// `frontier_scan_steps`, `costed_candidates`, `bound_decisions` and
    /// `bound_rejections`) are summed over all iterations; the other
    /// statistics are the last iteration's.
    pub result: DpResult,
    /// The selected plan `popt` — an `α_U`-approximate solution on
    /// termination without timeout.
    pub best: PlanEntry,
    /// Number of `FindParetoPlans` iterations executed.
    pub iterations: u32,
    /// Precision `α` of the last iteration.
    pub alpha_last: f64,
}

/// Runs the IRA on one query block.
///
/// # Panics
///
/// Panics if `alpha_u < 1` or the preference has no objectives.
#[must_use]
pub fn ira(
    model: &CostModel<'_>,
    preference: &Preference,
    alpha_u: f64,
    deadline: &Deadline,
) -> IraResult {
    assert!(alpha_u >= 1.0, "the user precision must satisfy α_U ≥ 1");
    let l = preference.objectives.len();
    assert!(l >= 1, "preference must select at least one objective");
    let n = model.graph.n_rels();

    let mut work = DpStats::default();
    let mut iteration = 0u32;
    loop {
        iteration += 1;
        let mut alpha = ira_precision_schedule(alpha_u, l, iteration);
        let exact_round = alpha < ALPHA_EXACT_THRESHOLD || iteration >= MAX_ITERATIONS;
        if exact_round {
            alpha = 1.0;
        }
        let alpha_internal = rta_internal_precision(alpha, n);
        let mut result = run(model, preference, alpha_internal, deadline);
        work.considered_plans += result.stats.considered_plans;
        work.frontier_scan_probes += result.stats.frontier_scan_probes;
        work.frontier_scan_steps += result.stats.frontier_scan_steps;
        work.costed_candidates += result.stats.costed_candidates;
        work.bound_decisions += result.stats.bound_decisions;
        work.bound_rejections += result.stats.bound_rejections;
        let best = select_best(&result.final_plans, preference)
            .expect("FindParetoPlans returns at least one plan");

        let timed_out = result.stats.timed_out;
        let certified = exact_round
            || stopping_condition_holds(&result.final_plans, preference, alpha, alpha_u, &best);
        if certified || timed_out {
            result.stats.considered_plans = work.considered_plans;
            result.stats.frontier_scan_probes = work.frontier_scan_probes;
            result.stats.frontier_scan_steps = work.frontier_scan_steps;
            result.stats.costed_candidates = work.costed_candidates;
            result.stats.bound_decisions = work.bound_decisions;
            result.stats.bound_rejections = work.bound_rejections;
            return IraResult {
                result,
                best,
                iterations: iteration,
                alpha_last: alpha,
            };
        }
    }
}

/// Algorithm 3's termination test: there must be **no** plan `p` in the set
/// with `c(p) ⪯ α·B` and `C_W(c(p))/α < C_W(c(popt))/α_U`. Such a plan
/// would witness that a feasible plan with substantially lower weighted
/// cost might exist just beyond the current approximation precision.
///
/// When `popt` itself violates the bounds (the set contains no feasible plan
/// yet), its weighted cost is taken as `+∞`: the loop must keep refining as
/// long as *any* plan respects the relaxed bounds, because a feasible plan
/// `p*` would be shadowed by a relaxed-feasible representative (Theorem 6's
/// argument). Only when not even the relaxed bounds are attainable can no
/// feasible plan exist at all, and the weighted fallback of `SelectBest` is
/// the correct answer (Definition 2).
fn stopping_condition_holds(
    plans: &[PlanEntry],
    preference: &Preference,
    alpha: f64,
    alpha_u: f64,
    best: &PlanEntry,
) -> bool {
    let best_weighted = if preference.respects_bounds(&best.cost) {
        preference.weighted_cost(&best.cost)
    } else {
        f64::INFINITY
    };
    !plans.iter().any(|p| {
        preference
            .bounds
            .relaxed_respected_by(&p.cost, alpha, preference.objectives)
            && preference.weighted_cost(&p.cost) / alpha < best_weighted / alpha_u
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exa_rta::exa;
    use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
    use moqo_cost::{Objective, ObjectiveSet};
    use moqo_costmodel::CostModelParams;

    fn setup() -> (CostModelParams, Catalog, JoinGraph) {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("orders", 30_000.0, 121.0)
                .with_column(ColumnStats::new("o_orderkey", 30_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("lineitem", 120_000.0, 129.0)
                .with_column(ColumnStats::new("l_orderkey", 30_000.0).indexed()),
        );
        let graph = JoinGraphBuilder::new(&cat)
            .rel("orders", 1.0)
            .rel("lineitem", 0.5)
            .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
            .build();
        (params, cat, graph)
    }

    #[test]
    fn schedule_is_strictly_decreasing_towards_one() {
        let alpha_u = 2.0;
        let mut prev = f64::INFINITY;
        for i in 1..=50 {
            let a = ira_precision_schedule(alpha_u, 9, i);
            assert!(a < prev, "schedule must strictly decrease");
            assert!(a > 1.0);
            assert!(a <= alpha_u);
            prev = a;
        }
        // Converges towards 1.
        assert!(ira_precision_schedule(alpha_u, 9, 500) < 1.001);
    }

    #[test]
    fn schedule_first_iteration_is_near_alpha_u() {
        // 2^(−1/24) ≈ 0.9715 for l = 9 — the first iteration is coarse.
        let a1 = ira_precision_schedule(2.0, 9, 1);
        assert!(a1 > 1.9 && a1 < 2.0, "got {a1}");
    }

    #[test]
    fn single_objective_schedule_degenerates_gracefully() {
        let a1 = ira_precision_schedule(2.0, 1, 1);
        assert!((1.0..=2.0).contains(&a1));
    }

    #[test]
    fn ira_respects_feasible_bounds() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        // Find the exact time optimum among loss-free plans, so the bound
        // pair (time ≤ 1.5×min, loss ≤ 0) is guaranteed feasible. (The
        // unconstrained time optimum samples, which would make the bounds
        // jointly infeasible.)
        let probe_pref = Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::TupleLoss,
        ]))
        .weight(Objective::TotalTime, 1.0);
        let exact = exa(&model, &probe_pref, &Deadline::unlimited());
        let min_time = exact
            .final_plans
            .iter()
            .filter(|e| e.cost.get(Objective::TupleLoss) == 0.0)
            .map(|e| e.cost.get(Objective::TotalTime))
            .fold(f64::INFINITY, f64::min);
        assert!(min_time.is_finite());

        let preference = Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::BufferFootprint,
            Objective::TupleLoss,
        ]))
        .weight(Objective::BufferFootprint, 1.0)
        .weight(Objective::TupleLoss, 1e7)
        .bound(Objective::TotalTime, min_time * 1.5)
        .bound(Objective::TupleLoss, 0.0);

        let out = ira(&model, &preference, 1.5, &Deadline::unlimited());
        assert!(
            preference.respects_bounds(&out.best.cost),
            "a feasible plan exists, so the IRA must return one"
        );
        assert!(out.iterations >= 1);
        assert!(out.alpha_last >= 1.0);
    }

    #[test]
    fn ira_matches_exa_quality_within_alpha() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let preference = Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::BufferFootprint,
            Objective::TupleLoss,
        ]))
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::TupleLoss, 1e6)
        .bound(Objective::TupleLoss, 0.0);

        let exact = exa(&model, &preference, &Deadline::unlimited());
        let opt = select_best(&exact.final_plans, &preference).unwrap();
        assert!(preference.respects_bounds(&opt.cost));

        for alpha_u in [1.15, 1.5, 2.0] {
            let out = ira(&model, &preference, alpha_u, &Deadline::unlimited());
            assert!(
                preference.respects_bounds(&out.best.cost),
                "α_U = {alpha_u}"
            );
            let rho =
                preference.weighted_cost(&out.best.cost) / preference.weighted_cost(&opt.cost);
            assert!(
                rho <= alpha_u + 1e-9,
                "α_U = {alpha_u}: relative cost {rho} exceeds guarantee"
            );
        }
    }

    #[test]
    fn ira_with_infeasible_bounds_returns_weighted_best() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let preference = Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::BufferFootprint,
        ]))
        .weight(Objective::TotalTime, 1.0)
        .bound(Objective::BufferFootprint, 0.001); // unattainable

        let out = ira(&model, &preference, 1.5, &Deadline::unlimited());
        // No plan can respect the bound; result minimizes weighted cost.
        assert!(!preference.respects_bounds(&out.best.cost));
        let exact = exa(&model, &preference, &Deadline::unlimited());
        let opt = select_best(&exact.final_plans, &preference).unwrap();
        let rho = preference.weighted_cost(&out.best.cost) / preference.weighted_cost(&opt.cost);
        assert!(rho <= 1.5 + 1e-9, "got {rho}");
    }

    #[test]
    fn ira_terminates_under_timeout() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let preference = Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::TupleLoss,
        ]))
        .weight(Objective::TotalTime, 1.0)
        .bound(Objective::TupleLoss, 0.5);
        let deadline = Deadline::new(Some(std::time::Duration::ZERO));
        let out = ira(&model, &preference, 1.2, &deadline);
        assert!(out.result.stats.timed_out);
        assert!(out.iterations >= 1);
    }
}
