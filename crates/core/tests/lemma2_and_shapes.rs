//! Integration tests for **Lemma 2's grid invariant**: the RTA never
//! stores two plans whose cost vectors map to the same `δ` cell (the
//! discretization argument bounding plan-set cardinality by
//! `O((n·log_{α_i} m)^{l−1})`).

use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
use moqo_core::{find_pareto_plans, Deadline, PruneStrategy};
use moqo_cost::{approx_dominates, CostVector, Objective, ObjectiveSet, Weights, NUM_OBJECTIVES};
use moqo_costmodel::{CostModel, CostModelParams};

/// The discretization `δ` from the proof of Lemma 2:
/// `δ^o(c) = ⌊log_{α_i}(c^o)⌋` on each selected objective, 0 on the others.
/// A zero cost gets the sentinel `i32::MIN` (the paper treats zero costs
/// separately, Observation 3).
fn delta_cell(cost: &CostVector, alpha_i: f64, objectives: ObjectiveSet) -> [i32; NUM_OBJECTIVES] {
    assert!(alpha_i > 1.0, "the δ grid requires α_i > 1");
    let ln_alpha = alpha_i.ln();
    let mut coords = [0i32; NUM_OBJECTIVES];
    for o in objectives.iter() {
        let v = cost.get(o);
        coords[o.index()] = if v <= 0.0 {
            i32::MIN
        } else {
            (v.ln() / ln_alpha).floor() as i32
        };
    }
    coords
}

/// Whether two cost vectors share a `δ` cell, in which case they mutually
/// approximately dominate each other with precision `α_i`.
fn same_cell(a: &CostVector, b: &CostVector, alpha_i: f64, objectives: ObjectiveSet) -> bool {
    delta_cell(a, alpha_i, objectives) == delta_cell(b, alpha_i, objectives)
}

fn setup4() -> (CostModelParams, Catalog, JoinGraph) {
    let params = CostModelParams::default();
    let mut cat = Catalog::new();
    cat.add_table(
        TableStats::new("customer", 15_000.0, 179.0)
            .with_column(ColumnStats::new("c_custkey", 15_000.0).indexed()),
    );
    cat.add_table(
        TableStats::new("orders", 150_000.0, 121.0)
            .with_column(ColumnStats::new("o_orderkey", 150_000.0).indexed())
            .with_column(ColumnStats::new("o_custkey", 15_000.0).indexed()),
    );
    cat.add_table(
        TableStats::new("lineitem", 600_000.0, 129.0)
            .with_column(ColumnStats::new("l_orderkey", 150_000.0).indexed())
            .with_column(ColumnStats::new("l_partkey", 20_000.0).indexed()),
    );
    cat.add_table(
        TableStats::new("part", 20_000.0, 155.0)
            .with_column(ColumnStats::new("p_partkey", 20_000.0).indexed()),
    );
    let graph = JoinGraphBuilder::new(&cat)
        .rel("customer", 0.25)
        .rel("orders", 0.5)
        .rel("lineitem", 0.75)
        .rel("part", 1.0)
        .join(("customer", "c_custkey"), ("orders", "o_custkey"))
        .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
        .join(("lineitem", "l_partkey"), ("part", "p_partkey"))
        .build();
    (params, cat, graph)
}

fn objs() -> ObjectiveSet {
    ObjectiveSet::from_objectives(&[
        Objective::TotalTime,
        Objective::BufferFootprint,
        Objective::Energy,
    ])
}

#[test]
fn rta_never_stores_two_plans_in_the_same_delta_cell() {
    let (params, cat, graph) = setup4();
    let model = CostModel::new(&params, &cat, &graph);
    for alpha_u in [1.5f64, 2.0, 4.0] {
        let alpha_i = alpha_u.powf(1.0 / graph.n_rels() as f64);
        let result = find_pareto_plans(
            &model,
            objs(),
            &PruneStrategy::approximate(alpha_i),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        // Lemma 2's invariant, checked per (order, zero-pattern) group on
        // the final plan set: two stored plans of the same group never share
        // a δ cell.
        let entries = &result.final_plans;
        for (i, a) in entries.iter().enumerate() {
            for b in entries.iter().skip(i + 1) {
                if a.props.order != b.props.order {
                    continue; // different Postgres path-key groups
                }
                assert!(
                    !same_cell(&a.cost, &b.cost, alpha_i, objs()),
                    "α_i = {alpha_i}: two stored plans share a δ cell:\n{:?}\n{:?}",
                    a.cost,
                    b.cost
                );
            }
        }
    }
}

fn time_and_buffer() -> ObjectiveSet {
    ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint])
}

fn v(t: f64, b: f64) -> CostVector {
    CostVector::from_pairs(&[(Objective::TotalTime, t), (Objective::BufferFootprint, b)])
}

#[test]
fn same_cell_implies_mutual_approx_dominance() {
    // Lemma 2: if δ(c1) = δ(c2) then c1 ⪯_α c2 and c2 ⪯_α c1.
    let alpha = 1.5;
    let objs = time_and_buffer();
    let cases = [
        (v(10.0, 100.0), v(12.0, 110.0)),
        (v(1.0, 1.0), v(1.2, 1.3)),
        (v(1e6, 3.0), v(1.4e6, 3.5)),
    ];
    for (a, b) in cases {
        if same_cell(&a, &b, alpha, objs) {
            assert!(approx_dominates(&a, &b, alpha, objs));
            assert!(approx_dominates(&b, &a, alpha, objs));
        }
    }
    // A pair constructed to share cells: within one α-band per dim.
    let a = v(2.0, 8.0);
    let b = v(2.2, 8.8);
    assert!(same_cell(&a, &b, 1.5, objs));
    assert!(approx_dominates(&a, &b, 1.5, objs));
    assert!(approx_dominates(&b, &a, 1.5, objs));
}

#[test]
fn distant_vectors_are_in_different_cells() {
    assert!(!same_cell(
        &v(1.0, 1.0),
        &v(100.0, 1.0),
        1.5,
        time_and_buffer()
    ));
}

#[test]
fn zero_cost_gets_sentinel_cell() {
    let zero_t = v(0.0, 5.0);
    let tiny_t = v(1e-12, 5.0);
    assert!(!same_cell(&zero_t, &tiny_t, 1.5, time_and_buffer()));
    assert!(same_cell(&zero_t, &v(0.0, 5.0), 1.5, time_and_buffer()));
}

#[test]
fn unselected_dimensions_are_ignored() {
    let only_time = ObjectiveSet::single(Objective::TotalTime);
    assert!(same_cell(&v(5.0, 1.0), &v(5.0, 9999.0), 1.5, only_time));
}

#[test]
#[should_panic(expected = "α_i > 1")]
fn exact_precision_rejected() {
    let _ = delta_cell(&v(1.0, 1.0), 1.0, time_and_buffer());
}

#[test]
fn finer_alpha_means_more_cells() {
    // Count distinct cells of a geometric chain under two precisions.
    let chain: Vec<CostVector> = (0..40).map(|i| v(1.1f64.powi(i), 1.0)).collect();
    let count = |alpha: f64| {
        let mut cells: Vec<_> = chain
            .iter()
            .map(|c| delta_cell(c, alpha, time_and_buffer()))
            .collect();
        cells.dedup();
        cells.len()
    };
    assert!(count(1.05) > count(1.5));
    assert!(count(1.5) > count(4.0));
}
