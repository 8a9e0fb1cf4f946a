//! Multi-dimensional cost vectors (`c(p)` in the paper's notation).

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::objective::{Objective, ObjectiveSet, NUM_OBJECTIVES};

/// The multi-dimensional cost of a query plan.
///
/// A cost vector always carries all nine dimensions of the extended cost
/// model; algorithms evaluate dominance and weighted cost on a selected
/// [`ObjectiveSet`] only. Cost values are non-negative reals (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostVector {
    values: [f64; NUM_OBJECTIVES],
}

impl CostVector {
    /// The all-zero cost vector.
    #[must_use]
    pub fn zero() -> Self {
        CostVector {
            values: [0.0; NUM_OBJECTIVES],
        }
    }

    /// Builds a vector from explicit `(objective, value)` pairs; unspecified
    /// dimensions are zero.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if a value is negative or NaN.
    #[must_use]
    pub fn from_pairs(pairs: &[(Objective, f64)]) -> Self {
        let mut v = CostVector::zero();
        for &(o, value) in pairs {
            v.set(o, value);
        }
        v
    }

    /// Builds a vector from a full array of nine values in objective order.
    #[must_use]
    pub fn from_array(values: [f64; NUM_OBJECTIVES]) -> Self {
        debug_assert!(
            values.iter().all(|v| *v >= 0.0 && !v.is_nan()),
            "cost values must be non-negative reals"
        );
        CostVector { values }
    }

    /// The cost for a given objective (`c^o`).
    #[inline]
    #[must_use]
    pub fn get(&self, objective: Objective) -> f64 {
        self.values[objective.index()]
    }

    /// Sets the cost for a given objective.
    #[inline]
    pub fn set(&mut self, objective: Objective, value: f64) {
        debug_assert!(
            value >= 0.0 && !value.is_nan(),
            "cost values must be non-negative reals; got {value} for {objective}"
        );
        self.values[objective.index()] = value;
    }

    /// Raw access to the nine values in objective order.
    #[must_use]
    pub fn as_array(&self) -> &[f64; NUM_OBJECTIVES] {
        &self.values
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn component_min(&self, other: &CostVector) -> CostVector {
        let mut out = [0.0; NUM_OBJECTIVES];
        for ((o, a), b) in out.iter_mut().zip(self.values).zip(other.values) {
            *o = a.min(b);
        }
        CostVector { values: out }
    }

    /// Multiplies every component by a non-negative scalar.
    #[must_use]
    pub fn scale(&self, factor: f64) -> CostVector {
        debug_assert!(factor >= 0.0 && !factor.is_nan());
        let mut out = self.values;
        for v in &mut out {
            *v *= factor;
        }
        CostVector { values: out }
    }

    /// Whether every selected component is finite.
    #[must_use]
    pub fn is_finite(&self, objectives: ObjectiveSet) -> bool {
        objectives.iter().all(|o| self.get(o).is_finite())
    }
}

impl Default for CostVector {
    fn default() -> Self {
        CostVector::zero()
    }
}

impl Add for CostVector {
    type Output = CostVector;

    fn add(self, rhs: CostVector) -> CostVector {
        let mut out = self.values;
        for (a, b) in out.iter_mut().zip(rhs.values.iter()) {
            *a += *b;
        }
        CostVector { values: out }
    }
}

impl AddAssign for CostVector {
    fn add_assign(&mut self, rhs: CostVector) {
        for (a, b) in self.values.iter_mut().zip(rhs.values.iter()) {
            *a += *b;
        }
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2(t: f64, e: f64) -> CostVector {
        CostVector::from_pairs(&[(Objective::TotalTime, t), (Objective::Energy, e)])
    }

    #[test]
    fn zero_is_all_zero() {
        let z = CostVector::zero();
        for o in Objective::ALL {
            assert_eq!(z.get(o), 0.0);
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = CostVector::zero();
        v.set(Objective::BufferFootprint, 42.5);
        assert_eq!(v.get(Objective::BufferFootprint), 42.5);
        assert_eq!(v.get(Objective::TotalTime), 0.0);
    }

    #[test]
    fn add_is_componentwise() {
        let a = v2(1.0, 2.0);
        let b = v2(3.0, 4.0);
        let c = a + b;
        assert_eq!(c.get(Objective::TotalTime), 4.0);
        assert_eq!(c.get(Objective::Energy), 6.0);
    }

    #[test]
    fn add_assign_matches_add() {
        let a = v2(1.0, 2.0);
        let b = v2(3.0, 4.0);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn component_min_takes_the_smaller_of_each() {
        let a = v2(1.0, 5.0);
        let b = v2(3.0, 4.0);
        let mn = a.component_min(&b);
        assert_eq!(mn.get(Objective::TotalTime), 1.0);
        assert_eq!(mn.get(Objective::Energy), 4.0);
    }

    #[test]
    fn scale_multiplies_components() {
        let a = v2(2.0, 3.0).scale(1.5);
        assert_eq!(a.get(Objective::TotalTime), 3.0);
        assert_eq!(a.get(Objective::Energy), 4.5);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_cost_panics_in_debug() {
        let mut v = CostVector::zero();
        v.set(Objective::TotalTime, -1.0);
    }
}
