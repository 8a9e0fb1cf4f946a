//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one figure of the paper's
//! evaluation. The harness provides the common machinery: environment-tuned
//! run configuration, per-test-case measurement, aggregation, and aligned
//! table output.
//!
//! ## Scaling knobs (environment variables)
//!
//! The paper ran on a 12-core server with a *two-hour* timeout and 20 test
//! cases per configuration; the defaults here are laptop-scale. The shapes
//! of all figures are timeout-scale invariant:
//!
//! | variable | default | paper | meaning |
//! |----------|---------|-------|---------|
//! | `MOQO_SF` | 1.0 | 1.0 | TPC-H scale factor |
//! | `MOQO_CASES` | 3 | 20 | test cases per configuration |
//! | `MOQO_TIMEOUT_MS` | 2000 | 7 200 000 | per-run optimization timeout |
//! | `MOQO_SEED` | 42 | — | base RNG seed |
//! | `MOQO_QUERIES` | all | all | comma-separated query subset |

#![warn(missing_docs)]

use std::time::Duration;

pub mod experiments;
pub mod report;

pub use experiments::{bounded_rank_cost, run_case, CaseResult};
pub use report::{fmt_duration_ms, fmt_memory_kb, Aggregate, Table};

/// Run configuration shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// TPC-H scale factor.
    pub scale_factor: f64,
    /// Test cases per (query, configuration) cell.
    pub cases: usize,
    /// Per-run optimization timeout.
    pub timeout: Duration,
    /// Base RNG seed; case `i` of query `q` uses `seed + 1000·q + i`.
    pub seed: u64,
    /// Queries to run (TPC-H numbers in figure order).
    pub queries: Vec<u8>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale_factor: 1.0,
            cases: 3,
            timeout: Duration::from_millis(2000),
            seed: 42,
            queries: moqo_tpch::FIGURE_ORDER.to_vec(),
        }
    }
}

impl HarnessConfig {
    /// Reads the configuration from the environment (see module docs).
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = HarnessConfig::default();
        if let Some(sf) = env_f64("MOQO_SF") {
            cfg.scale_factor = sf;
        }
        if let Some(cases) = env_f64("MOQO_CASES") {
            cfg.cases = cases as usize;
        }
        if let Some(ms) = env_f64("MOQO_TIMEOUT_MS") {
            cfg.timeout = Duration::from_millis(ms as u64);
        }
        if let Some(seed) = env_f64("MOQO_SEED") {
            cfg.seed = seed as u64;
        }
        if let Ok(qs) = std::env::var("MOQO_QUERIES") {
            let parsed: Vec<u8> = qs
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|q| (1..=22).contains(q))
                .collect();
            if !parsed.is_empty() {
                cfg.queries = parsed;
            }
        }
        cfg
    }

    /// Deterministic per-case seed.
    #[must_use]
    pub fn case_seed(&self, query_no: u8, case: usize, salt: u64) -> u64 {
        self.seed
            .wrapping_add(1000 * u64::from(query_no))
            .wrapping_add(case as u64)
            .wrapping_add(salt.wrapping_mul(1_000_003))
    }

    /// One-line description for figure headers.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "SF={} cases={} timeout={:?} seed={} queries={}",
            self.scale_factor,
            self.cases,
            self.timeout,
            self.seed,
            self.queries.len()
        )
    }
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_queries_in_figure_order() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.queries, moqo_tpch::FIGURE_ORDER.to_vec());
        assert_eq!(cfg.cases, 3);
    }

    #[test]
    fn case_seeds_are_distinct() {
        let cfg = HarnessConfig::default();
        let a = cfg.case_seed(3, 0, 0);
        let b = cfg.case_seed(3, 1, 0);
        let c = cfg.case_seed(4, 0, 0);
        let d = cfg.case_seed(3, 0, 1);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn describe_mentions_config() {
        let s = HarnessConfig::default().describe();
        assert!(s.contains("SF=1"));
        assert!(s.contains("cases=3"));
    }
}
