//! RMQ convergence: anytime behaviour of the randomized optimizer on
//! TPC-H-style chain join graphs of 8–20 tables — the workload class the
//! dynamic-programming schemes cannot reach (Figure 7 puts the EXA beyond
//! 10⁴⁵ operations at n = 10).
//!
//! Per graph size the binary traces the incumbent Pareto front over the
//! iteration budget: front size, best weighted cost, and — for the sizes
//! where the exact algorithm still terminates — coverage of the exact
//! Pareto frontier (fraction of exact-frontier vectors 1.05-dominated by an
//! incumbent) plus the achieved approximation factor α. Each trace point
//! re-runs RMQ at the point's budget: its walkers share nothing, and a
//! walker's front after `k` iterations does not depend on its budget, so
//! the run returns exactly the front the full-budget run held there.
//!
//! Environment knobs: the shared harness variables `MOQO_SF` (TPC-H scale
//! factor), `MOQO_SEED` and `MOQO_TIMEOUT_MS` (EXA reference timeout)
//! apply, plus:
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MOQO_RMQ_SAMPLES` | 4000 | RMQ iteration budget per graph |
//! | `MOQO_RMQ_TABLES` | 8,12,16,20 | comma-separated chain sizes |
//! | `MOQO_RMQ_EXA_LIMIT` | 8 | largest size the EXA reference runs at |

#![allow(clippy::disallowed_methods, reason = "this binary times what it runs")]

use std::time::Instant;

use moqo_bench::{HarnessConfig, Table};
use moqo_core::{exa, rmq, select_best, Deadline, RmqConfig};
use moqo_cost::{pareto_front, CostVector, Objective, ObjectiveSet, Preference};
use moqo_costmodel::{CostModel, CostModelParams};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn env_sizes() -> Vec<usize> {
    std::env::var("MOQO_RMQ_TABLES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|n| (2..=24).contains(n))
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![8, 12, 16, 20])
}

fn main() {
    let harness = HarnessConfig::from_env();
    let samples = env_u64("MOQO_RMQ_SAMPLES", 4000);
    let seed = harness.seed;
    let exa_limit = env_u64("MOQO_RMQ_EXA_LIMIT", 8) as usize;
    let exa_timeout = harness.timeout;
    let sizes = env_sizes();

    let catalog = moqo_tpch::catalog(harness.scale_factor);
    // Sampling stays enabled: with TupleLoss unselected, `PruneMode::auto`
    // runs both the EXA reference and RMQ props-aware, which keeps the
    // exact front a sound coverage oracle over the full plan space —
    // sampling scans included. (This binary used to disable sampling as a
    // workaround for the cost-only pruning leak the props-aware mode
    // fixed.) Note the sampled plan space is ~3× larger than the old
    // sampling-off workload, so per-budget coverage numbers are NOT
    // comparable with pre-PR-5 runs: at the default 4k samples the walk
    // covers little of the sampled frontier extremes; raise
    // MOQO_RMQ_SAMPLES (~40k reaches >90% on a 4-table chain) to watch
    // coverage converge.
    let params = CostModelParams::default();
    let preference = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6);

    println!(
        "RMQ convergence on chain join graphs [SF={} samples={samples} seed={seed} \
         sizes={sizes:?} EXA reference ≤ {exa_limit} tables, timeout {:?}]",
        harness.scale_factor, exa_timeout
    );
    println!();

    for &n in &sizes {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);

        // Exact reference front, where feasible.
        let exact_front: Option<Vec<CostVector>> = if n <= exa_limit {
            let started = Instant::now();
            let result = exa(&model, &preference, &Deadline::new(Some(exa_timeout)));
            let vectors: Vec<CostVector> = result.final_plans.iter().map(|e| e.cost).collect();
            let frontier = pareto_front::pareto_frontier(&vectors, preference.objectives);
            println!(
                "chain of {n}: EXA reference front has {} vectors \
                 ({} stored plans peak, {:.0} ms{})",
                frontier.len(),
                result.stats.peak_stored_plans,
                started.elapsed().as_secs_f64() * 1e3,
                if result.stats.timed_out {
                    ", TIMED OUT — coverage is vs the partial front"
                } else {
                    ""
                }
            );
            Some(frontier)
        } else {
            println!("chain of {n}: EXA reference skipped (beyond {exa_limit} tables)");
            None
        };

        // Sixteen points, plus the full budget when the stride misses it.
        let stride = (samples / 16).max(1);
        let mut budgets: Vec<u64> = (1..=samples / stride).map(|j| j * stride).collect();
        if budgets.last() != Some(&samples) {
            budgets.push(samples);
        }
        let mut table = Table::new(&[
            "iteration",
            "front_size",
            "best_weighted",
            "coverage_pct",
            "achieved_alpha",
        ]);
        let mut prev = f64::INFINITY;
        let mut full_run = None;
        for budget in budgets {
            let started = Instant::now();
            let out = rmq(
                &model,
                &preference,
                &RmqConfig::new(budget, seed),
                &Deadline::unlimited(),
            );
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            let front: Vec<CostVector> = out.final_plans.iter().map(|e| e.cost).collect();
            let best_weighted = select_best(&out.final_plans, &preference)
                .map_or(f64::INFINITY, |e| preference.weighted_cost(&e.cost));
            let (coverage, alpha) = match &exact_front {
                Some(frontier) if !frontier.is_empty() => {
                    let covered = frontier
                        .iter()
                        .filter(|c_star| {
                            front.iter().any(|c| {
                                moqo_cost::dominance::approx_dominates(
                                    c,
                                    c_star,
                                    1.05,
                                    preference.objectives,
                                )
                            })
                        })
                        .count();
                    let alpha =
                        pareto_front::approximation_factor(&front, frontier, preference.objectives)
                            .unwrap_or(f64::INFINITY);
                    (
                        format!("{:.1}", 100.0 * covered as f64 / frontier.len() as f64),
                        if alpha.is_finite() {
                            format!("{alpha:.4}")
                        } else {
                            "inf".to_owned()
                        },
                    )
                }
                _ => ("-".to_owned(), "-".to_owned()),
            };
            table.row(vec![
                budget.to_string(),
                front.len().to_string(),
                format!("{best_weighted:.3}"),
                coverage,
                alpha,
            ]);
            // Anytime sanity: the best weighted cost never worsens along
            // the trace.
            assert!(
                best_weighted <= prev + 1e-9,
                "incumbent quality must be monotone, {prev} then {best_weighted}"
            );
            prev = best_weighted;
            full_run = Some((out, elapsed_ms));
        }
        let (out, elapsed_ms) = full_run.expect("the trace ends at the full budget");
        println!(
            "chain of {n}: {} candidates sampled in {elapsed_ms:.0} ms, \
             final front {} plans",
            out.stats.considered_plans,
            out.final_plans.len()
        );
        println!("{}", table.render());
        println!("CSV:");
        println!("{}", table.render_csv());
    }
}
