//! End-to-end integration: all 22 TPC-H queries through the optimizer
//! facade, with timeouts, multi-block handling and report sanity.

use std::time::Duration;

use moqo::prelude::*;
use moqo::tpch;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_22_queries_optimize_with_rta() {
    let catalog = tpch::catalog(0.05);
    let optimizer = Optimizer::new(&catalog).with_timeout(Duration::from_secs(2));
    for qno in 1..=22u8 {
        let query = tpch::query(&catalog, qno);
        let mut rng = StdRng::seed_from_u64(u64::from(qno));
        let case = tpch::weighted_test_case(&mut rng, qno, 9);
        let result = optimizer.optimize(&query, &case.preference, Algorithm::Rta { alpha: 2.0 });
        assert_eq!(result.block_plans.len(), query.blocks.len(), "Q{qno}");
        assert!(result.weighted_cost.is_finite(), "Q{qno}");
        assert!(result.total_cost.get(Objective::TotalTime) > 0.0, "Q{qno}");
        // Every block plan covers exactly its block's relations.
        for (plan, graph) in result.block_plans.iter().zip(&query.blocks) {
            assert_eq!(plan.arena.leaf_count(plan.root), graph.n_rels(), "Q{qno}");
            assert!(!plan.frontier.is_empty(), "Q{qno}");
        }
        assert_eq!(result.report.blocks.len(), query.blocks.len(), "Q{qno}");
    }
}

#[test]
fn results_are_deterministic_given_the_seed() {
    let catalog = tpch::catalog(0.05);
    let optimizer = Optimizer::new(&catalog);
    let query = tpch::query(&catalog, 5);
    let case = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        tpch::weighted_test_case(&mut rng, 5, 6)
    };
    let a = optimizer.optimize(&query, &case(7).preference, Algorithm::Rta { alpha: 1.5 });
    let b = optimizer.optimize(&query, &case(7).preference, Algorithm::Rta { alpha: 1.5 });
    assert_eq!(a.weighted_cost, b.weighted_cost);
    assert_eq!(a.total_cost, b.total_cost);
}

#[test]
fn tuple_loss_zero_bound_eliminates_sampling() {
    let catalog = tpch::catalog(0.05);
    let optimizer = Optimizer::new(&catalog);
    let query = tpch::query(&catalog, 3);
    let pref = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .bound(Objective::TupleLoss, 0.0);
    let result = optimizer.optimize(&query, &pref, Algorithm::Ira { alpha: 1.5 });
    assert!(result.respects_bounds);
    for plan in &result.block_plans {
        assert!(
            !plan.arena.uses_sampling(plan.root),
            "a zero tuple-loss bound forbids sampling scans"
        );
        assert_eq!(plan.cost.get(Objective::TupleLoss), 0.0);
    }
}

#[test]
fn sampling_appears_when_loss_is_cheap() {
    // With overwhelming weight on time and a permissive loss budget, the
    // optimizer exploits sampling scans (the paper's Cloud scenario).
    let catalog = tpch::catalog(1.0);
    let optimizer = Optimizer::new(&catalog);
    let query = tpch::query(&catalog, 6); // single big lineitem scan
    let pref = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::TupleLoss, 1e-9);
    let result = optimizer.optimize(&query, &pref, Algorithm::Exhaustive);
    let plan = &result.block_plans[0];
    assert!(
        plan.arena.uses_sampling(plan.root),
        "cheap loss should buy a sampling scan"
    );
    assert!(result.total_cost.get(Objective::TupleLoss) > 0.0);
}

#[test]
fn timeout_degrades_gracefully_on_the_largest_query() {
    let catalog = tpch::catalog(1.0);
    let optimizer = Optimizer::new(&catalog).with_timeout(Duration::from_millis(50));
    let query = tpch::query(&catalog, 8);
    let mut rng = StdRng::seed_from_u64(8);
    let case = tpch::weighted_test_case(&mut rng, 8, 9);
    let result = optimizer.optimize(&query, &case.preference, Algorithm::Exhaustive);
    assert!(result.report.timed_out());
    assert!(result.weighted_cost.is_finite());
    assert_eq!(
        result.block_plans[0]
            .arena
            .leaf_count(result.block_plans[0].root),
        8,
        "the quick-finish path must still deliver a full 8-way plan"
    );
}

#[test]
fn frontier_is_byproduct_of_optimization() {
    // §4: all MOQO algorithms produce an (approximate) Pareto frontier as a
    // byproduct; its vectors must be mutually non-dominating per objective
    // subset and contain the chosen plan's cost.
    let catalog = tpch::catalog(0.05);
    let optimizer = Optimizer::new(&catalog);
    let query = tpch::query(&catalog, 10);
    let mut rng = StdRng::seed_from_u64(10);
    let case = tpch::weighted_test_case(&mut rng, 10, 3);
    let result = optimizer.optimize(&query, &case.preference, Algorithm::Exhaustive);
    let frontier = &result.block_plans[0].frontier;
    let chosen = result.block_plans[0].cost;
    assert!(frontier.iter().any(|e| e.cost == chosen));
}

#[test]
fn reports_track_paper_metrics() {
    let catalog = tpch::catalog(0.05);
    let optimizer = Optimizer::new(&catalog);
    let query = tpch::query(&catalog, 12);
    let mut rng = StdRng::seed_from_u64(12);
    let case = tpch::weighted_test_case(&mut rng, 12, 6);
    for algo in [
        Algorithm::Exhaustive,
        Algorithm::Rta { alpha: 1.5 },
        Algorithm::Ira { alpha: 1.5 },
    ] {
        let result = optimizer.optimize(&query, &case.preference, algo);
        let report = &result.report;
        assert!(report.total_elapsed() > Duration::ZERO);
        assert!(report.peak_memory_bytes() > 0);
        assert!(report.pareto_last_complete() > 0);
        assert!(report.considered_plans() > 0);
        assert!(report.iterations() >= 1);
        assert!(!report.timed_out());
    }
}

/// An IRA block reports the work of every `FindParetoPlans` iteration, not
/// only the last one's: its counters equal the sums over re-runs of each
/// iteration's DP at the precision the schedule gave it.
#[test]
fn ira_block_counts_the_work_of_every_iteration() {
    use moqo::core::{
        find_pareto_plans, ira, ira_precision_schedule, rta_internal_precision, PruneMode,
        PruneStrategy,
    };

    let catalog = tpch::catalog(1.0);
    let params = CostModelParams::default();
    let query = tpch::query(&catalog, 14);
    let mut rng = StdRng::seed_from_u64(3);
    let preference =
        tpch::bounded_test_case(&mut rng, &catalog, &params, &query, 14, 6, 2).preference;
    let alpha_u = 1.5;
    let [graph] = query.blocks.as_slice() else {
        panic!("TPC-H Q14 is one block");
    };
    let model = CostModel::new(&params, &catalog, graph);

    let out = ira(&model, &preference, alpha_u, &Deadline::unlimited());
    assert!(!out.result.stats.timed_out);
    assert!(
        out.iterations >= 5,
        "the case must refine several times, took {}",
        out.iterations
    );
    let l = preference.objectives.len();
    assert_eq!(
        out.alpha_last,
        ira_precision_schedule(alpha_u, l, out.iterations)
    );

    let strategy = |alpha: f64| {
        PruneStrategy::approximate(rta_internal_precision(alpha, graph.n_rels())).with_mode(
            PruneMode::auto(params.enable_sampling, preference.objectives),
        )
    };
    let (mut considered, mut probes, mut steps) = (0, 0, 0);
    let (mut costed, mut decisions, mut rejections) = (0, 0, 0);
    for i in 1..=out.iterations {
        let alpha = ira_precision_schedule(alpha_u, l, i);
        let stats = find_pareto_plans(
            &model,
            preference.objectives,
            &strategy(alpha),
            &preference.weights,
            &Deadline::unlimited(),
        )
        .stats;
        considered += stats.considered_plans;
        probes += stats.frontier_scan_probes;
        steps += stats.frontier_scan_steps;
        costed += stats.costed_candidates;
        decisions += stats.bound_decisions;
        rejections += stats.bound_rejections;
    }
    assert_eq!(out.result.stats.considered_plans, considered);
    assert_eq!(out.result.stats.frontier_scan_probes, probes);
    assert_eq!(out.result.stats.frontier_scan_steps, steps);
    assert_eq!(out.result.stats.costed_candidates, costed);
    assert_eq!(out.result.stats.bound_decisions, decisions);
    assert_eq!(out.result.stats.bound_rejections, rejections);
    // Each costed candidate is probed once, and each bound decision at
    // most once.
    assert!(costed <= probes && probes <= costed + decisions);
    assert!(rejections <= decisions && costed <= considered);

    // The optimizer's block report carries the same sums.
    let (_, report) = Optimizer::new(&catalog).optimize_block(
        graph,
        &preference,
        Algorithm::Ira { alpha: alpha_u },
    );
    assert_eq!(report.iterations, out.iterations);
    assert_eq!(report.considered_plans, considered);
    assert_eq!(report.frontier_scan_probes, probes);
}
