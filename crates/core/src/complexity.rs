//! Asymptotic complexity formulas (paper §5.2, §6.3, Figure 7).
//!
//! Everything is computed in log10 space: the quantities explode (the EXA's
//! plan counts exceed 10^50 for ten tables, exactly as Figure 7 shows), so
//! the figure regeneration works with exponents.

/// `ln(n!)` by direct summation (n is small in all uses).
fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// log10 of the number of bushy plans for joining `n` tables with `j`
/// scan/join operators: `N_bushy(j, n) = j^(2n−1) · (2(n−1))!/(n−1)!`
/// (paper §5.2).
///
/// # Panics
///
/// Panics if `n == 0` or `j == 0`.
#[must_use]
pub fn log10_n_bushy(j: u64, n: u64) -> f64 {
    assert!(n >= 1 && j >= 1);
    let ln = (2 * n - 1) as f64 * (j as f64).ln() + ln_factorial(2 * (n - 1)) - ln_factorial(n - 1);
    ln / std::f64::consts::LN_10
}

/// log10 of the EXA's worst-case time `O(N_bushy(j, n)²)` (Theorem 2).
#[must_use]
pub fn log10_exa_time(j: u64, n: u64) -> f64 {
    2.0 * log10_n_bushy(j, n)
}

/// log10 of the RTA's per-table-set storage bound
/// `N_stored(m, n) = (n·log_{α_i}(m))^(l−1)` (Lemma 2), with the internal
/// precision `α_i = α^(1/n)`, so `log_{α_i} m = n·ln m / ln α`.
///
/// # Panics
///
/// Panics if `alpha <= 1` (the bound degenerates for exact pruning).
#[must_use]
pub fn log10_n_stored(m: f64, n: u64, l: u64, alpha: f64) -> f64 {
    assert!(alpha > 1.0, "N_stored requires α > 1");
    assert!(m > 1.0 && n >= 1 && l >= 1);
    let log_alpha_i_m = (n as f64) * m.ln() / alpha.ln();
    ((n as f64) * log_alpha_i_m).ln() * ((l - 1) as f64) / std::f64::consts::LN_10
}

/// log10 of the RTA's worst-case time `O(j·3^n·N_stored³)` (Theorem 5).
#[must_use]
pub fn log10_rta_time(j: u64, n: u64, l: u64, m: f64, alpha: f64) -> f64 {
    (j as f64).log10() + (n as f64) * 3f64.log10() + 3.0 * log10_n_stored(m, n, l, alpha)
}

/// log10 of the bushy Selinger algorithm's time `O(j·3^n)` (§6.3).
#[must_use]
pub fn log10_selinger_time(j: u64, n: u64) -> f64 {
    (j as f64).log10() + (n as f64) * 3f64.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bushy_count_small_cases() {
        // n = 1: j^1 · 0!/0! = j.
        assert!((log10_n_bushy(6, 1) - 6f64.log10()).abs() < 1e-9);
        // n = 2: j^3 · 2!/1! = 2·j³ = 432 for j = 6.
        assert!((log10_n_bushy(6, 2) - 432f64.log10()).abs() < 1e-9);
        // n = 3: j^5 · 4!/2! = 12·j^5.
        let expect = (12.0 * 6f64.powi(5)).log10();
        assert!((log10_n_bushy(6, 3) - expect).abs() < 1e-9);
    }

    #[test]
    fn figure7_ordering_holds() {
        // Figure 7 (j = 6, l = 3, m = 1e5): the RTA bounds always sit between
        // Selinger and the fine-precision variant, and the factorial EXA
        // eventually crosses above both RTA curves (by n = 10 in the figure).
        for n in 2..=10 {
            let rta_fine = log10_rta_time(6, n, 3, 1e5, 1.05);
            let rta_coarse = log10_rta_time(6, n, 3, 1e5, 1.5);
            let sel = log10_selinger_time(6, n);
            assert!(rta_fine > rta_coarse, "n = {n}");
            assert!(rta_coarse > sel, "n = {n}");
        }
        let exa10 = log10_exa_time(6, 10);
        assert!(exa10 > log10_rta_time(6, 10, 3, 1e5, 1.05));
        assert!(exa10 > log10_rta_time(6, 10, 3, 1e5, 1.5));
        // The crossover exists: for small n the fine RTA bound exceeds EXA.
        assert!(log10_rta_time(6, 2, 3, 1e5, 1.05) > log10_exa_time(6, 2));
    }

    #[test]
    fn exa_explodes_beyond_1e50() {
        // The paper's Figure 7 y-axis reaches 10^53 at n = 10.
        assert!(log10_exa_time(6, 10) > 45.0);
    }

    #[test]
    fn rta_gap_to_selinger_is_polynomial() {
        // Theorem 5 remark: RTA differs from Selinger only by N_stored³.
        for n in 2..=10 {
            let gap = log10_rta_time(6, n, 3, 1e5, 1.5) - log10_selinger_time(6, n);
            assert!((gap - 3.0 * log10_n_stored(1e5, n, 3, 1.5)).abs() < 1e-9);
        }
    }
}
