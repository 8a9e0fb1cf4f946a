//! Cost-vector algebra for many-objective query optimization (MOQO).
//!
//! This crate implements the formal model of Section 3 of
//! *Trummer & Koch, "Approximation Schemes for Many-Objective Query
//! Optimization", SIGMOD 2014*:
//!
//! * the nine cost [`Objective`]s of the extended Postgres cost model (§4),
//! * multi-dimensional [`CostVector`]s with the three dominance relations —
//!   dominance `⪯`, strict dominance `≺` and approximate dominance `⪯_α`
//!   (Definition of §3),
//! * user preferences: non-negative [`Weights`] and per-objective
//!   [`Bounds`], combined into a [`Preference`],
//! * the weighted cost `C_W(c) = Σ_o c^o · W_o` and the relative cost `ρ`.
//!
//! The crate is deliberately free of any optimizer or plan logic so that the
//! algebra can be property-tested in isolation (partial-order laws, the
//! relationship between the three dominance relations, and the principle of
//! near-optimality for the {sum, max, min, ×const} formula combinators).
//!
//! # Example
//!
//! Example 1 of the paper: a weighted sum over (time, energy) does **not**
//! satisfy the single-objective principle of optimality.
//!
//! ```
//! use moqo_cost::{CostVector, Objective, ObjectiveSet, Weights};
//!
//! let objs = ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::Energy]);
//! // Weight 1 for time, 2 for energy.
//! let mut w = Weights::zero();
//! w.set(Objective::TotalTime, 1.0);
//! w.set(Objective::Energy, 2.0);
//!
//! let p1 = CostVector::from_pairs(&[(Objective::TotalTime, 7.0), (Objective::Energy, 1.0)]);
//! let p1_alt = CostVector::from_pairs(&[(Objective::TotalTime, 1.0), (Objective::Energy, 3.0)]);
//! // p1_alt has *better* weighted cost than p1 ...
//! assert!(w.weighted_cost(&p1_alt) < w.weighted_cost(&p1));
//!
//! let p2 = CostVector::from_pairs(&[(Objective::TotalTime, 6.0), (Objective::Energy, 2.0)]);
//! // ... but combining in parallel (time = max, energy = sum) the full plan
//! // gets *worse*: (7,3) -> weighted 13 versus (6,5) -> weighted 16.
//! let combine = |a: &CostVector, b: &CostVector| {
//!     let mut c = CostVector::zero();
//!     c.set(Objective::TotalTime,
//!           a.get(Objective::TotalTime).max(b.get(Objective::TotalTime)));
//!     c.set(Objective::Energy, a.get(Objective::Energy) + b.get(Objective::Energy));
//!     c
//! };
//! let plan = combine(&p1, &p2);
//! let plan_alt = combine(&p1_alt, &p2);
//! assert_eq!(w.weighted_cost(&plan), 13.0);
//! assert_eq!(w.weighted_cost(&plan_alt), 16.0);
//! # let _ = objs;
//! ```

#![warn(missing_docs)]

mod objective;
mod preference;
mod signature;
mod vector;

pub mod dominance;
pub mod pareto_front;
pub mod running_example;

// Convenience re-exports: `moqo_cost::dominance` is the canonical home of
// the relations; the flat paths below are aliases for it.
pub use dominance::{
    approx_dominates, approx_dominates_with_props, dominates, dominates_with_props,
    strictly_dominates, PropsKey,
};
pub use objective::{Objective, ObjectiveSet, NUM_OBJECTIVES};
pub use preference::{Bounds, Preference, Weights};
pub use signature::PreferenceSignature;
pub use vector::CostVector;

/// Relative cost `ρ_I(p)` of a plan with weighted cost `cost` against the
/// optimal weighted cost `opt` (Definition 3).
///
/// Both costs must already be the *weighted* costs `C_W(c(p))`. When the
/// optimum is zero the relative cost is defined as 1 if the plan cost is also
/// zero and `+∞` otherwise (the paper's cost domain is non-negative, so a
/// zero optimum can only be matched by a zero plan cost).
#[must_use]
pub fn relative_cost(cost: f64, opt: f64) -> f64 {
    debug_assert!(cost >= 0.0 && opt >= 0.0, "costs must be non-negative");
    if opt == 0.0 {
        if cost == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cost / opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_cost_of_optimum_is_one() {
        assert_eq!(relative_cost(10.0, 10.0), 1.0);
    }

    #[test]
    fn relative_cost_zero_optimum() {
        assert_eq!(relative_cost(0.0, 0.0), 1.0);
        assert_eq!(relative_cost(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn relative_cost_ratio() {
        assert!((relative_cost(15.0, 10.0) - 1.5).abs() < 1e-12);
    }
}
