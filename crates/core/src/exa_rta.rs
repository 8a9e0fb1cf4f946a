//! The exact algorithm (EXA, Algorithm 1) and the representative-tradeoffs
//! algorithm (RTA, Algorithm 2) for one query block.
//!
//! Both share `FindParetoPlans` ([`crate::dp`]); they differ only in the
//! pruning precision: EXA prunes with exact dominance, the RTA with
//! approximate dominance at internal precision `α_i = α_U^(1/|Q|)`, chosen
//! so that the recursive error accumulation over at most `|Q|` combination
//! levels stays within `α_U` (Theorem 3's induction).
//!
//! Both entry points derive their [`PruneMode`] through [`PruneMode::auto`]:
//! props-aware pruning exactly when sampling scans are enabled and
//! `TupleLoss` is unselected — the regime in which plan cardinality leaks
//! past the cost vector and cost-only pruning would void Lemma 2 /
//! Theorem 3 — and the paper's cost-only rule everywhere else.

use moqo_cost::Preference;
use moqo_costmodel::CostModel;

use crate::budget::Deadline;
use crate::dp::{find_pareto_plans, DpResult};
use crate::pareto::{PruneMode, PruneStrategy};

/// The internal pruning precision the RTA derives from the user precision:
/// `α_i = α_U^(1/n)` for a block of `n` tables (Algorithm 2,
/// `FindParetoPlans`).
///
/// # Panics
///
/// Debug-asserts `α_U ≥ 1` and `n ≥ 1`.
#[must_use]
pub fn rta_internal_precision(alpha_u: f64, n_tables: usize) -> f64 {
    debug_assert!(alpha_u >= 1.0 && n_tables >= 1);
    alpha_u.powf(1.0 / n_tables as f64)
}

/// Runs the exact algorithm on one query block, returning the full Pareto
/// plan set for the block (select a plan with
/// [`crate::select_best`]).
#[must_use]
pub fn exa(model: &CostModel<'_>, preference: &Preference, deadline: &Deadline) -> DpResult {
    run(model, preference, 1.0, deadline)
}

/// Runs the representative-tradeoffs algorithm with user precision
/// `alpha_u ≥ 1` on one query block, returning an `α_U`-approximate Pareto
/// plan set (Theorem 3).
///
/// # Panics
///
/// Panics if `alpha_u < 1`.
#[must_use]
pub fn rta(
    model: &CostModel<'_>,
    preference: &Preference,
    alpha_u: f64,
    deadline: &Deadline,
) -> DpResult {
    assert!(alpha_u >= 1.0, "the user precision must satisfy α_U ≥ 1");
    let alpha_i = rta_internal_precision(alpha_u, model.graph.n_rels());
    run(model, preference, alpha_i, deadline)
}

/// Shared driver: `FindParetoPlans` over the preference's objectives with
/// a given internal precision and the auto-selected pruning mode.
pub(crate) fn run(
    model: &CostModel<'_>,
    preference: &Preference,
    alpha_internal: f64,
    deadline: &Deadline,
) -> DpResult {
    let objectives = preference.objectives;
    let strategy = PruneStrategy::approximate(alpha_internal)
        .with_mode(PruneMode::auto(model.params.enable_sampling, objectives));
    find_pareto_plans(model, objectives, &strategy, &preference.weights, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_best;
    use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
    use moqo_cost::{Objective, Preference};
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

    fn pref() -> Preference {
        Preference::over(moqo_cost::ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::BufferFootprint,
            Objective::TupleLoss,
        ]))
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
        .weight(Objective::TupleLoss, 100.0)
    }

    #[test]
    fn internal_precision_is_nth_root() {
        assert!((rta_internal_precision(2.0, 1) - 2.0).abs() < 1e-12);
        let a = rta_internal_precision(2.0, 4);
        assert!((a.powi(4) - 2.0).abs() < 1e-9);
        assert_eq!(rta_internal_precision(1.0, 7), 1.0);
    }

    #[test]
    fn rta_weighted_cost_within_alpha_of_exa() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let preference = pref();
        let deadline = Deadline::unlimited();
        let exact = exa(&model, &preference, &deadline);
        let opt = select_best(&exact.final_plans, &preference).unwrap();
        for alpha_u in [1.05, 1.5, 2.0, 4.0] {
            let approx = rta(&model, &preference, alpha_u, &Deadline::unlimited());
            let best = select_best(&approx.final_plans, &preference).unwrap();
            let rho = preference.weighted_cost(&best.cost) / preference.weighted_cost(&opt.cost);
            assert!(
                rho <= alpha_u + 1e-9,
                "α_U = {alpha_u}: relative cost {rho} exceeds the guarantee"
            );
        }
    }

    #[test]
    fn rta_produces_approximate_pareto_set() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let preference = pref();
        let alpha_u = 1.5;
        let exact = exa(&model, &preference, &Deadline::unlimited());
        let approx = rta(&model, &preference, alpha_u, &Deadline::unlimited());
        let exact_vectors: Vec<_> = exact.final_plans.iter().map(|e| e.cost).collect();
        let approx_vectors: Vec<_> = approx.final_plans.iter().map(|e| e.cost).collect();
        assert!(
            moqo_cost::pareto_front::is_approx_pareto_set(
                &approx_vectors,
                &exact_vectors,
                alpha_u + 1e-9,
                preference.objectives
            ),
            "RTA set must α_U-cover the exact frontier"
        );
    }

    #[test]
    fn exa_equals_rta_with_alpha_one() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let preference = pref();
        let exact = exa(&model, &preference, &Deadline::unlimited());
        let rta1 = rta(&model, &preference, 1.0, &Deadline::unlimited());
        assert_eq!(exact.final_plans.len(), rta1.final_plans.len());
    }

    #[test]
    #[should_panic(expected = "α_U ≥ 1")]
    fn alpha_below_one_rejected() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let _ = rta(&model, &pref(), 0.5, &Deadline::unlimited());
    }
}
