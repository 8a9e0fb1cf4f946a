//! Canonical preference signatures.
//!
//! Two [`Preference`]s describe the same optimization problem when they
//! select the same objectives, impose the same bounds, and weight the
//! objectives in the same *proportions* — scaling every weight by a common
//! positive factor rescales all weighted costs uniformly and therefore
//! changes neither the Pareto front nor which front member is best.
//! [`Preference::signature`] hashes exactly that equivalence class: the
//! selected objective set, the bounds, and the weights normalized to sum 1
//! and quantized to a 2⁻³² grid (so the one-ulp wobble of `w/Σw` under
//! different scalings collapses to the same value).
//!
//! No plan cache keys on it: a front depends on the objectives but not on
//! the weights or the bounds, so the serving layer keys on the block and
//! the [`ObjectiveSet`](crate::ObjectiveSet) alone. Its callers are tests
//! and the repository benchmark, which folds it into its input digest and
//! times it as `catalog.signature_us`.

use crate::objective::Objective;
use crate::preference::Preference;

/// A 64-bit canonical fingerprint of one [`Preference`]; see the module
/// docs for the equivalence it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PreferenceSignature(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(value: u64, seed: u64) -> u64 {
    let mut h = seed;
    for &b in &value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Weight quantization grid: normalized weights live in `[0, 1]`, so 32
/// fractional bits keep ~9 significant decimal digits — far below any
/// meaningful preference distinction, far above normalization rounding.
const WEIGHT_GRID: f64 = 4_294_967_296.0; // 2^32

impl Preference {
    /// The canonical signature of this preference: selected objectives,
    /// bounds, and scale-normalized weights. Proportional weight vectors
    /// produce equal signatures; any difference in objectives or bounds
    /// produces (modulo hashing) different ones.
    #[must_use]
    pub fn signature(&self) -> PreferenceSignature {
        let mut h = fnv_u64(u64::from(self.objectives.bits()), FNV_OFFSET);
        let total: f64 = self.objectives.iter().map(|o| self.weights.get(o)).sum();
        for o in Objective::ALL {
            if !self.objectives.contains(o) {
                continue;
            }
            let normalized = if total > 0.0 {
                self.weights.get(o) / total
            } else {
                0.0
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let quantized = (normalized * WEIGHT_GRID).round() as u64;
            h = fnv_u64(quantized, h);
            h = fnv_u64(self.bounds.get(o).to_bits(), h);
        }
        PreferenceSignature(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveSet;

    fn base() -> Preference {
        Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, 1.0)
            .weight(Objective::Energy, 0.3)
            .bound(Objective::TupleLoss, 0.0)
    }

    #[test]
    fn signature_is_deterministic() {
        assert_eq!(base().signature(), base().signature());
    }

    #[test]
    fn signature_is_scale_invariant() {
        for scale in [2.0, 3.7, 0.125, 1e6, 1e-6] {
            let mut scaled = base();
            for o in scaled.objectives.iter() {
                scaled.weights.set(o, base().weights.get(o) * scale);
            }
            assert_eq!(base().signature(), scaled.signature(), "scale {scale}");
        }
    }

    #[test]
    fn signature_distinguishes_weight_proportions() {
        let other = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, 1.0)
            .weight(Objective::Energy, 0.6)
            .bound(Objective::TupleLoss, 0.0);
        assert_ne!(base().signature(), other.signature());
    }

    #[test]
    fn signature_distinguishes_objectives_and_bounds() {
        let more_objs = base().weight(Objective::IoLoad, 0.0);
        assert_ne!(base().signature(), more_objs.signature());
        let tighter = base().bound(Objective::TotalTime, 100.0);
        assert_ne!(base().signature(), tighter.signature());
        let different_bound = base().bound(Objective::TupleLoss, 0.5);
        assert_ne!(base().signature(), different_bound.signature());
    }

    #[test]
    fn zero_weights_share_a_signature_regardless_of_scale() {
        let a = Preference::over(ObjectiveSet::single(Objective::TotalTime));
        let b = Preference::over(ObjectiveSet::single(Objective::TotalTime));
        assert_eq!(a.signature(), b.signature());
    }
}
