//! Equivalence guards for the PR-3 hot-path rework.
//!
//! The DP inner loop was restructured (rejection probe before arena
//! allocation, borrow-splitting instead of per-split entry clones, streamed
//! Gosper mask enumeration, precomputed join keys). It is not allowed to
//! alter *results*:
//!
//! * `find_pareto_plans` must produce exactly the seed behaviour — same
//!   final front, same `considered_plans` — which the straightforward
//!   allocate-then-prune `test_support::reference_dp` pins down;
//! * the per-block split index must reproduce the join graph's reference
//!   split — key, crossing selectivity and width, bit for bit — and its
//!   connectivity test.

use moqo::core::test_support::{check_split_index, reference_dp};
use moqo::core::{find_pareto_plans, DpConfig, PruneMode};
use moqo::prelude::*;

/// Total order over cost vectors: compare fronts as multisets, so the test
/// does not also pin down the (deterministic but incidental) group
/// flattening order.
fn sort_vectors(mut v: Vec<CostVector>) -> Vec<CostVector> {
    v.sort_by(|a, b| {
        for o in Objective::ALL {
            match a.get(o).partial_cmp(&b.get(o)) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(ord) => return ord,
            }
        }
        std::cmp::Ordering::Equal
    });
    v
}

fn assert_dp_matches_reference(
    model: &CostModel<'_>,
    objectives: ObjectiveSet,
    alpha_internal: f64,
    label: &str,
) {
    let config = DpConfig::approximate(alpha_internal);
    let result = find_pareto_plans(
        model,
        objectives,
        &config,
        &Weights::single(Objective::TotalTime),
        &Deadline::unlimited(),
    );
    let (ref_front, ref_considered) =
        reference_dp(model, objectives, alpha_internal, PruneMode::CostOnly);

    assert_eq!(
        result.stats.considered_plans, ref_considered,
        "{label}: the probe-before-alloc loop must consider exactly the \
         seed's candidate stream"
    );
    let got = sort_vectors(result.final_plans.iter().map(|e| e.cost).collect());
    let want = sort_vectors(ref_front);
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: final front sizes must match"
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{label}: final fronts must be bit-identical");
    }
}

#[test]
fn dp_rework_is_equivalent_on_three_tables() {
    let catalog = moqo::tpch::catalog(0.01);
    let query = moqo::tpch::query(&catalog, 3);
    let params = CostModelParams::default();
    let objectives =
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint]);
    for graph in &query.blocks {
        let model = CostModel::new(&params, &catalog, graph);
        // Exact pruning and an approximate precision both go through the
        // reworked probe; both must reproduce the seed.
        assert_dp_matches_reference(&model, objectives, 1.0, "q3 exact");
        assert_dp_matches_reference(&model, objectives, 1.25, "q3 alpha=1.25");
    }
}

#[test]
fn dp_rework_is_equivalent_on_eight_table_chain() {
    let catalog = moqo::tpch::catalog(0.01);
    let graph = moqo::tpch::large_join_graph(&catalog, 8);
    // Sampling off keeps the 8-table candidate stream testable in debug
    // builds; the 3-table fixture covers the sampling-scan paths.
    let params = CostModelParams {
        enable_sampling: false,
        ..CostModelParams::default()
    };
    let model = CostModel::new(&params, &catalog, &graph);
    let objectives =
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint]);
    assert_dp_matches_reference(&model, objectives, 1.0, "chain8 exact");
}

/// The allocation-free property itself: arena growth is bounded by accepted
/// plans, not by the candidate stream. The seed allocated one node per
/// considered plan (5.75M on this workload); the probe-before-alloc loop
/// allocates ~62k. Guard with a generous factor so cost-model tweaks don't
/// flake the bound.
#[test]
fn dp_arena_growth_is_bounded_by_accepted_plans() {
    let catalog = moqo::tpch::catalog(0.01);
    let graph = moqo::tpch::large_join_graph(&catalog, 8);
    let params = CostModelParams {
        enable_sampling: false,
        ..CostModelParams::default()
    };
    let model = CostModel::new(&params, &catalog, &graph);
    let objectives =
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint]);
    let result = find_pareto_plans(
        &model,
        objectives,
        &DpConfig::exact(),
        &Weights::single(Objective::TotalTime),
        &Deadline::unlimited(),
    );
    let considered = usize::try_from(result.stats.considered_plans).unwrap();
    assert!(
        result.arena.len() * 10 < considered,
        "arena holds {} nodes for {} considered plans — the rejection probe \
         must keep doomed candidates out of the arena",
        result.arena.len(),
        considered
    );
}

/// The split index against the reference definitions: every ordered pair
/// of disjoint relation sets of every TPC-H block (Q9 joins one pair of
/// relations on two edges), and 2000 sampled pairs of each 12–20-relation
/// clique (up to 190 edges).
#[test]
fn split_index_matches_reference_definitions() {
    let catalog = moqo::tpch::catalog(0.01);
    let params = CostModelParams::default();
    let mut blocks: Vec<JoinGraph> = moqo::tpch::all_queries(&catalog)
        .into_iter()
        .flat_map(|q| q.blocks)
        .collect();
    blocks.extend(
        (12..=20)
            .map(|n| moqo::tpch::large_join_graph_with(&catalog, n, moqo::tpch::Topology::Clique)),
    );
    for (i, graph) in blocks.iter().enumerate() {
        let model = CostModel::new(&params, &catalog, graph);
        let checked = check_split_index(&model, 2000, i as u64);
        let n = graph.n_rels() as u32;
        if n <= 10 {
            assert_eq!(checked, (3usize.pow(n) + 1) - (1 << (n + 1)));
        }
    }
}
