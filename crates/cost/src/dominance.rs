//! The three dominance relations of the paper's formal model (§3).
//!
//! * `c1 ⪯ c2` — [`dominates`]: `c1` has lower-or-equal cost in *every*
//!   selected objective.
//! * `c1 ≺ c2` — [`strictly_dominates`]: `c1 ⪯ c2` and the vectors are not
//!   equivalent on the selected objectives.
//! * `c1 ⪯_α c2` — [`approx_dominates`]: the cost of `c1` is higher than the
//!   one of `c2` by at most factor `α` in every selected objective, i.e.
//!   `∀o: c1^o ≤ c2^o · α`.
//!
//! Note the direction of approximate dominance: `c1` may be *worse* than `c2`
//! by up to factor `α` and still approximately dominate it — with `α = 1` the
//! relation coincides with plain dominance.
//!
//! ## One lane-wise kernel
//!
//! [`approx_dominates`] is the one kernel behind both `⪯` and `⪯_α`:
//! [`dominates`] calls it at `α = 1`, where `1 · c2^o` is `c2^o` exactly
//! in floating point (zeros and `+∞` included). The kernel compares all
//! nine lanes without an early exit and lets an unselected lane pass,
//! `ok &= (lane unselected) | (c1^o ≤ α · c2^o)`, so the loop compiles
//! to packed compares instead of a per-objective iterator with a branch
//! per lane. The answer is the per-objective `∀o` of the definition; the
//! property tests in `tests/properties.rs` hold the kernel to that
//! reference on every one of the 512 objective subsets.
//!
//! ## Props-aware dominance
//!
//! The plain relations compare *cost vectors* only. That is sound exactly
//! when the selected cost components determine every downstream cost — the
//! principle of near-optimality (§6.1) treats cardinality-derived
//! quantities as constants per table set. Sampling scans break that
//! assumption: plan cardinality then varies *within* a table set, feeds
//! every parent operator's cost formula, and — when `TupleLoss` is not a
//! selected objective — is invisible to the cost vector. A plan that is
//! cost-dominated but produces fewer rows may still lead to the cheapest
//! complete plan, so discarding it loses frontier points.
//!
//! [`dominates_with_props`] and [`approx_dominates_with_props`] close the
//! leak: they additionally require the dominator's physical properties
//! ([`PropsKey`]) to *cover* the dominated plan's, i.e. be at least as good
//! for every possible parent operator.

use crate::objective::ObjectiveSet;
use crate::vector::CostVector;

/// The physical plan properties that can influence downstream operator
/// costs beyond the cost vector itself: output cardinality, plus an opaque
/// *interest* tag for order-like properties a parent operator might
/// exploit. Cost-layer code never interprets the tag; producers (the plan
/// layer) encode their sort orders into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropsKey {
    /// Estimated output row count; fewer rows never cost a parent more.
    pub rows: f64,
    /// Opaque interest tag. [`PropsKey::NO_INTEREST`] marks a plan with no
    /// exploitable property; any tag covers it. Distinct non-trivial tags
    /// are mutually incomparable (neither covers the other).
    pub interest: u64,
}

impl PropsKey {
    /// The interest tag of a plan with no exploitable physical property
    /// (e.g. an unsorted output). Every tag covers it.
    pub const NO_INTEREST: u64 = 0;

    /// Relative tolerance of the row comparison in [`PropsKey::covers`].
    /// Cardinality estimates for the same table set agree only up to
    /// floating-point association noise (different join orders multiply
    /// the same selectivities in different orders, wobbling the last few
    /// ulps), which is many orders of magnitude below any real cardinality
    /// distinction; without the tolerance, props-aware pruning would
    /// partition identical-cardinality plans into spurious classes and
    /// diverge from cost-only pruning even where no sampling is involved.
    pub const ROWS_RELATIVE_TOLERANCE: f64 = 1e-9;

    /// A key with `rows` and no interesting property.
    #[must_use]
    pub fn rows_only(rows: f64) -> Self {
        PropsKey {
            rows,
            interest: Self::NO_INTEREST,
        }
    }

    /// Whether `self` is at least as good as `other` for every possible
    /// parent operator: no more rows (up to
    /// [`PropsKey::ROWS_RELATIVE_TOLERANCE`]), and an interest tag that is
    /// equal or subsumes a trivial one. This is the side condition of
    /// [`dominates_with_props`].
    #[must_use]
    pub fn covers(&self, other: &PropsKey) -> bool {
        self.rows <= other.rows * (1.0 + Self::ROWS_RELATIVE_TOLERANCE)
            && (self.interest == other.interest || other.interest == Self::NO_INTEREST)
    }
}

/// `c1 ⪯ c2` *and* `k1` covers `k2`: the props-aware dominance relation
/// behind the optimizer's `PruneMode::PropsAware`. Sound even when plan
/// cardinality varies within a table set (sampling scans) and is not
/// reflected in the selected objectives.
#[inline]
#[must_use]
pub fn dominates_with_props(
    c1: &CostVector,
    k1: &PropsKey,
    c2: &CostVector,
    k2: &PropsKey,
    objectives: ObjectiveSet,
) -> bool {
    k1.covers(k2) && dominates(c1, c2, objectives)
}

/// `c1 ⪯_α c2` *and* `k1` covers `k2` — the approximate counterpart of
/// [`dominates_with_props`]. Note the props side condition is exact: α
/// slack applies to costs only, never to cardinality, because parent costs
/// can grow without bound in child rows.
#[inline]
#[must_use]
pub fn approx_dominates_with_props(
    c1: &CostVector,
    k1: &PropsKey,
    c2: &CostVector,
    k2: &PropsKey,
    alpha: f64,
    objectives: ObjectiveSet,
) -> bool {
    k1.covers(k2) && approx_dominates(c1, c2, alpha, objectives)
}

/// `c1 ⪯ c2`: `c1` has lower or equivalent cost than `c2` in every selected
/// objective.
#[inline]
#[must_use]
pub fn dominates(c1: &CostVector, c2: &CostVector, objectives: ObjectiveSet) -> bool {
    approx_dominates(c1, c2, 1.0, objectives)
}

/// `c1 ≺ c2`: `c1 ⪯ c2` and the two vectors differ on at least one selected
/// objective.
#[inline]
#[must_use]
pub fn strictly_dominates(c1: &CostVector, c2: &CostVector, objectives: ObjectiveSet) -> bool {
    let mut strictly_better = false;
    for o in objectives.iter() {
        let (a, b) = (c1.get(o), c2.get(o));
        if a > b {
            return false;
        }
        if a < b {
            strictly_better = true;
        }
    }
    strictly_better
}

/// `c1 ⪯_α c2`: `c1^o ≤ α · c2^o` for every selected objective `o`.
///
/// # Panics
///
/// Debug-asserts `α ≥ 1` (the paper only defines approximate dominance for
/// `α ≥ 1`).
#[inline]
#[must_use]
pub fn approx_dominates(
    c1: &CostVector,
    c2: &CostVector,
    alpha: f64,
    objectives: ObjectiveSet,
) -> bool {
    debug_assert!(alpha >= 1.0, "approximate dominance requires α ≥ 1");
    let bits = objectives.bits();
    let mut ok = true;
    for (i, (a, b)) in c1.as_array().iter().zip(c2.as_array()).enumerate() {
        ok &= ((bits >> i) & 1 == 0) | (*a <= alpha * *b);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;

    fn objs2() -> ObjectiveSet {
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint])
    }

    fn v(t: f64, b: f64) -> CostVector {
        CostVector::from_pairs(&[(Objective::TotalTime, t), (Objective::BufferFootprint, b)])
    }

    #[test]
    fn dominance_is_reflexive() {
        let a = v(1.0, 2.0);
        assert!(dominates(&a, &a, objs2()));
        assert!(!strictly_dominates(&a, &a, objs2()));
    }

    #[test]
    fn dominance_requires_all_dimensions() {
        assert!(dominates(&v(1.0, 2.0), &v(1.0, 3.0), objs2()));
        assert!(!dominates(&v(1.0, 4.0), &v(1.0, 3.0), objs2()));
        assert!(!dominates(&v(2.0, 2.0), &v(1.0, 3.0), objs2()));
    }

    #[test]
    fn strict_dominance_needs_one_strict_dimension() {
        assert!(strictly_dominates(&v(1.0, 2.0), &v(1.0, 3.0), objs2()));
        assert!(!strictly_dominates(&v(1.0, 3.0), &v(1.0, 3.0), objs2()));
    }

    #[test]
    fn approx_dominance_with_alpha_one_is_dominance() {
        let a = v(1.0, 3.0);
        let b = v(1.0, 2.9);
        assert_eq!(
            approx_dominates(&a, &b, 1.0, objs2()),
            dominates(&a, &b, objs2())
        );
        assert!(approx_dominates(&b, &a, 1.0, objs2()));
    }

    #[test]
    fn approx_dominance_allows_alpha_slack() {
        // 1.5-approximate dominance: c1 may be up to 50% worse per dimension.
        assert!(approx_dominates(&v(1.4, 2.8), &v(1.0, 2.0), 1.5, objs2()));
        assert!(!approx_dominates(&v(1.6, 2.0), &v(1.0, 2.0), 1.5, objs2()));
    }

    #[test]
    fn unselected_dimensions_are_ignored() {
        let only_time = ObjectiveSet::single(Objective::TotalTime);
        // Worse buffer cost is irrelevant when only time is selected.
        assert!(dominates(&v(1.0, 99.0), &v(2.0, 1.0), only_time));
    }

    #[test]
    fn zero_cost_edge_case() {
        // c2 with a zero component: only a zero component of c1 can
        // approximately dominate it.
        let z = v(0.0, 1.0);
        assert!(approx_dominates(&v(0.0, 1.0), &z, 2.0, objs2()));
        assert!(!approx_dominates(&v(0.1, 1.0), &z, 2.0, objs2()));
    }

    #[test]
    fn empty_objective_set_everything_dominates() {
        let none = ObjectiveSet::empty();
        assert!(dominates(&v(9.0, 9.0), &v(1.0, 1.0), none));
        assert!(!strictly_dominates(&v(9.0, 9.0), &v(1.0, 1.0), none));
    }

    #[test]
    fn props_key_covers_is_a_partial_order() {
        let small = PropsKey::rows_only(10.0);
        let big = PropsKey::rows_only(100.0);
        assert!(small.covers(&big));
        assert!(!big.covers(&small));
        assert!(small.covers(&small), "reflexive");
        // A non-trivial interest tag covers the trivial one at equal rows…
        let sorted = PropsKey {
            rows: 10.0,
            interest: 7,
        };
        assert!(sorted.covers(&small));
        // …but not the reverse, and distinct tags are incomparable.
        assert!(!small.covers(&sorted));
        let other_sorted = PropsKey {
            rows: 1.0,
            interest: 8,
        };
        assert!(!other_sorted.covers(&sorted));
        assert!(!sorted.covers(&other_sorted));
    }

    #[test]
    fn props_aware_dominance_needs_both_sides() {
        let better_cost = v(1.0, 1.0);
        let worse_cost = v(2.0, 2.0);
        let few = PropsKey::rows_only(5.0);
        let many = PropsKey::rows_only(50.0);
        // Cost dominance alone is not enough when the dominated plan has
        // fewer rows — exactly the sampling leak.
        assert!(dominates(&better_cost, &worse_cost, objs2()));
        assert!(!dominates_with_props(
            &better_cost,
            &many,
            &worse_cost,
            &few,
            objs2()
        ));
        assert!(dominates_with_props(
            &better_cost,
            &few,
            &worse_cost,
            &many,
            objs2()
        ));
        // Props coverage alone is not enough either.
        assert!(!dominates_with_props(
            &worse_cost,
            &few,
            &better_cost,
            &many,
            objs2()
        ));
    }

    #[test]
    fn approx_props_dominance_relaxes_cost_not_rows() {
        let a = v(1.4, 2.8);
        let b = v(1.0, 2.0);
        let few = PropsKey::rows_only(5.0);
        let many = PropsKey::rows_only(50.0);
        assert!(approx_dominates_with_props(
            &a,
            &few,
            &b,
            &many,
            1.5,
            objs2()
        ));
        // α never excuses a cardinality regression.
        assert!(!approx_dominates_with_props(
            &a,
            &many,
            &b,
            &few,
            1.5,
            objs2()
        ));
    }
}
