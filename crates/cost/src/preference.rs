//! User preferences: weights, bounds, and their combination (paper §3).

use std::fmt;

use crate::objective::{Objective, ObjectiveSet, NUM_OBJECTIVES};
use crate::vector::CostVector;

/// A vector `W` of non-negative weights, one per objective. The higher the
/// weight on an objective, the higher its relative importance (paper §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    values: [f64; NUM_OBJECTIVES],
}

impl Weights {
    /// All-zero weights.
    #[must_use]
    pub fn zero() -> Self {
        Weights {
            values: [0.0; NUM_OBJECTIVES],
        }
    }

    /// Weight 1 on a single objective, 0 elsewhere — classical
    /// single-objective optimization.
    #[must_use]
    pub fn single(objective: Objective) -> Self {
        let mut w = Weights::zero();
        w.set(objective, 1.0);
        w
    }

    /// Builds weights from `(objective, weight)` pairs; unspecified weights
    /// are zero.
    #[must_use]
    pub fn from_pairs(pairs: &[(Objective, f64)]) -> Self {
        let mut w = Weights::zero();
        for &(o, value) in pairs {
            w.set(o, value);
        }
        w
    }

    /// Sets the weight for one objective. Any value is stored: a weight
    /// that is NaN, negative or infinite is caught by
    /// [`Preference::validate`], where a preference enters an optimizer or a
    /// service.
    pub fn set(&mut self, objective: Objective, weight: f64) {
        self.values[objective.index()] = weight;
    }

    /// The weight for one objective.
    #[inline]
    #[must_use]
    pub fn get(&self, objective: Objective) -> f64 {
        self.values[objective.index()]
    }

    /// The weighted cost `C_W(c) = Σ_o c^o · W_o` over all objectives with a
    /// non-zero weight.
    #[inline]
    #[must_use]
    pub fn weighted_cost(&self, cost: &CostVector) -> f64 {
        let mut sum = 0.0;
        for (i, w) in self.values.iter().enumerate() {
            if *w > 0.0 {
                sum += w * cost.as_array()[i];
            }
        }
        sum
    }

    /// Objectives with non-zero weight.
    #[must_use]
    pub fn support(&self) -> ObjectiveSet {
        Objective::ALL
            .into_iter()
            .filter(|o| self.get(*o) > 0.0)
            .collect()
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::zero()
    }
}

/// A vector `B` of non-negative bounds; `B_o = +∞` means no bound on
/// objective `o`. A cost vector *exceeds* the bounds if it is above the bound
/// in at least one objective and *respects* them otherwise (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    values: [f64; NUM_OBJECTIVES],
}

impl Bounds {
    /// No bounds on any objective (all `+∞`).
    #[must_use]
    pub fn unbounded() -> Self {
        Bounds {
            values: [f64::INFINITY; NUM_OBJECTIVES],
        }
    }

    /// Builds bounds from `(objective, bound)` pairs; unspecified objectives
    /// stay unbounded.
    #[must_use]
    pub fn from_pairs(pairs: &[(Objective, f64)]) -> Self {
        let mut b = Bounds::unbounded();
        for &(o, value) in pairs {
            b.set(o, value);
        }
        b
    }

    /// Sets the bound for one objective. Any value is stored: a bound that
    /// is NaN or negative is caught by [`Preference::validate`].
    pub fn set(&mut self, objective: Objective, bound: f64) {
        self.values[objective.index()] = bound;
    }

    /// The bound for one objective (`+∞` when unbounded).
    #[inline]
    #[must_use]
    pub fn get(&self, objective: Objective) -> f64 {
        self.values[objective.index()]
    }

    /// Whether `cost` respects the bounds on the selected objectives
    /// (`c ⪯ B` restricted to `objectives`).
    #[inline]
    #[must_use]
    pub fn respected_by(&self, cost: &CostVector, objectives: ObjectiveSet) -> bool {
        objectives.iter().all(|o| cost.get(o) <= self.get(o))
    }

    /// Whether `cost` respects the bounds *relaxed by factor `α`*
    /// (`c ⪯ α·B`), as used by the IRA's stopping condition (Algorithm 3).
    #[inline]
    #[must_use]
    pub fn relaxed_respected_by(
        &self,
        cost: &CostVector,
        alpha: f64,
        objectives: ObjectiveSet,
    ) -> bool {
        debug_assert!(alpha >= 1.0);
        objectives
            .iter()
            .all(|o| cost.get(o) <= alpha * self.get(o))
    }

    /// Objectives with a finite bound.
    #[must_use]
    pub fn bounded_objectives(&self) -> ObjectiveSet {
        Objective::ALL
            .into_iter()
            .filter(|o| self.get(*o).is_finite())
            .collect()
    }
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds::unbounded()
    }
}

/// A full user preference: the objectives considered by the optimizer, the
/// weights, and the bounds. This is the `⟨W, B⟩` part of a bounded-weighted
/// MOQO instance `I = ⟨Q, W, B⟩` (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preference {
    /// Objectives the optimizer considers (the instance's `O`).
    pub objectives: ObjectiveSet,
    /// Relative importance per objective.
    pub weights: Weights,
    /// Hard cost limits per objective (`+∞` = unbounded).
    pub bounds: Bounds,
}

impl Preference {
    /// Preference over an explicit objective set with zero weights and no
    /// bounds; use [`Preference::weight`]/[`Preference::bound`] to refine.
    #[must_use]
    pub fn over(objectives: ObjectiveSet) -> Self {
        Preference {
            objectives,
            weights: Weights::zero(),
            bounds: Bounds::unbounded(),
        }
    }

    /// Classical single-objective preference: minimize one objective.
    #[must_use]
    pub fn minimize(objective: Objective) -> Self {
        Preference {
            objectives: ObjectiveSet::single(objective),
            weights: Weights::single(objective),
            bounds: Bounds::unbounded(),
        }
    }

    /// Sets a weight (builder style); the objective is added to the
    /// considered set if missing.
    #[must_use]
    pub fn weight(mut self, objective: Objective, weight: f64) -> Self {
        self.objectives.insert(objective);
        self.weights.set(objective, weight);
        self
    }

    /// Sets a bound (builder style); the objective is added to the considered
    /// set if missing.
    #[must_use]
    pub fn bound(mut self, objective: Objective, bound: f64) -> Self {
        self.objectives.insert(objective);
        self.bounds.set(objective, bound);
        self
    }

    /// The weighted cost of `cost` under these weights.
    #[inline]
    #[must_use]
    pub fn weighted_cost(&self, cost: &CostVector) -> f64 {
        self.weights.weighted_cost(cost)
    }

    /// Whether `cost` respects the bounds on the considered objectives.
    #[inline]
    #[must_use]
    pub fn respects_bounds(&self, cost: &CostVector) -> bool {
        self.bounds.respected_by(cost, self.objectives)
    }

    /// Whether any bound is set on a considered objective (i.e. the instance
    /// is bounded-weighted rather than plain weighted MOQO).
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.objectives
            .iter()
            .any(|o| self.bounds.get(o).is_finite())
    }

    /// Checks what the paper's definitions assume of a preference (§3): at
    /// least one considered objective, every weight finite and
    /// non-negative, and every bound non-negative (`+∞` = unbounded). The
    /// builders store any value, so a preference from outside the process
    /// is checked here, once, before it is optimized.
    ///
    /// # Errors
    ///
    /// What is wrong, naming the first offending objective and value.
    pub fn validate(&self) -> Result<(), String> {
        if self.objectives.is_empty() {
            return Err("the preference selects no objective".to_owned());
        }
        for o in Objective::ALL {
            let weight = self.weights.get(o);
            if !weight.is_finite() || weight < 0.0 {
                return Err(format!(
                    "weight {weight} on {o} is not a finite non-negative number"
                ));
            }
            let bound = self.bounds.get(o);
            if bound.is_nan() || bound < 0.0 {
                return Err(format!("bound {bound} on {o} is not a non-negative number"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Preference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "objectives={} weights=[", self.objectives)?;
        let mut first = true;
        for o in self.objectives.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}={:.3}", o.name(), self.weights.get(o))?;
        }
        write!(f, "] bounds=[")?;
        first = true;
        for o in self.objectives.iter() {
            let b = self.bounds.get(o);
            if b.is_finite() {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{}≤{b:.3}", o.name())?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_cost_is_dot_product() {
        let w = Weights::from_pairs(&[(Objective::TotalTime, 1.0), (Objective::Energy, 2.0)]);
        let c = CostVector::from_pairs(&[(Objective::TotalTime, 7.0), (Objective::Energy, 3.0)]);
        assert_eq!(w.weighted_cost(&c), 13.0);
    }

    #[test]
    fn zero_weights_give_zero_cost() {
        let c = CostVector::from_pairs(&[(Objective::TotalTime, 7.0)]);
        assert_eq!(Weights::zero().weighted_cost(&c), 0.0);
    }

    #[test]
    fn support_lists_nonzero_weights() {
        let w = Weights::from_pairs(&[(Objective::IoLoad, 0.5)]);
        assert_eq!(w.support(), ObjectiveSet::single(Objective::IoLoad));
    }

    #[test]
    fn bounds_respected() {
        let objs = ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::TupleLoss]);
        let b = Bounds::from_pairs(&[(Objective::TupleLoss, 0.0)]);
        let no_loss = CostVector::from_pairs(&[(Objective::TotalTime, 5.0)]);
        let loss =
            CostVector::from_pairs(&[(Objective::TotalTime, 1.0), (Objective::TupleLoss, 0.01)]);
        assert!(b.respected_by(&no_loss, objs));
        assert!(!b.respected_by(&loss, objs));
    }

    #[test]
    fn relaxed_bounds_allow_alpha_violation() {
        let objs = ObjectiveSet::single(Objective::TotalTime);
        let b = Bounds::from_pairs(&[(Objective::TotalTime, 10.0)]);
        let c = CostVector::from_pairs(&[(Objective::TotalTime, 14.0)]);
        assert!(!b.respected_by(&c, objs));
        assert!(b.relaxed_respected_by(&c, 1.5, objs));
        assert!(!b.relaxed_respected_by(&c, 1.2, objs));
    }

    #[test]
    fn unbounded_bounds_respect_everything() {
        let b = Bounds::unbounded();
        assert!(b.bounded_objectives().is_empty());
        let huge = CostVector::from_pairs(&[(Objective::TotalTime, 1e300)]);
        assert!(b.respected_by(&huge, ObjectiveSet::all()));
    }

    #[test]
    fn preference_builder() {
        let p = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, 1.0)
            .bound(Objective::TupleLoss, 0.0);
        assert!(p.objectives.contains(Objective::TotalTime));
        assert!(p.objectives.contains(Objective::TupleLoss));
        assert!(p.is_bounded());
        let q = Preference::minimize(Objective::TotalTime);
        assert!(!q.is_bounded());
        assert_eq!(q.weights.get(Objective::TotalTime), 1.0);
    }

    #[test]
    fn validate_rejects_what_the_paper_excludes() {
        let good = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, 1.0)
            .bound(Objective::TupleLoss, 0.0);
        assert_eq!(good.validate(), Ok(()));
        let unbounded_weightless = good.weight(Objective::Energy, 0.0);
        assert_eq!(unbounded_weightless.validate(), Ok(()));
        for bad_weight in [f64::NAN, -1.0, f64::INFINITY] {
            let bad = good.weight(Objective::Energy, bad_weight);
            let reason = bad.validate().unwrap_err();
            assert!(reason.contains("weight"), "{reason}");
        }
        for bad_bound in [f64::NAN, -0.5] {
            let bad = good.bound(Objective::Energy, bad_bound);
            let reason = bad.validate().unwrap_err();
            assert!(reason.contains("bound"), "{reason}");
        }
        let none = Preference::over(ObjectiveSet::empty());
        assert!(none.validate().unwrap_err().contains("no objective"));
    }

    #[test]
    fn preference_display_mentions_bounds() {
        let p = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, 1.0)
            .bound(Objective::StartupTime, 3.0);
        let s = p.to_string();
        assert!(s.contains("startup_time≤3.000"), "{s}");
    }
}
