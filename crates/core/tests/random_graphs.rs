//! Property tests of the optimizer algorithms over *random* catalogs and
//! join graphs — not just TPC-H. The guarantee properties disable sampling
//! scans so that plan cardinalities are deterministic per table set; in
//! this plan space the RTA/IRA guarantees are exact theorems, and we check
//! them verbatim. The equivalence property keeps sampling on.

use moqo_catalog::{Catalog, ColumnStats, JoinEdge, JoinGraph, TableStats};
use moqo_core::test_support::reference_dp;
use moqo_core::{
    exa, find_pareto_plans, ira, rta, select_best, Deadline, PruneMode, PruneStrategy,
};
use moqo_cost::{dominates, Objective, ObjectiveSet, Preference, Weights};
use moqo_costmodel::{CostModel, CostModelParams};
use proptest::prelude::*;

/// Random catalog with `n` tables of random cardinality and width, and a
/// random connected join graph: a spanning tree plus up to `n` extra
/// edges, which close cycles or add a second edge between a pair.
#[derive(Debug, Clone)]
struct RandomInstance {
    catalog: Catalog,
    graph: JoinGraph,
    objectives: ObjectiveSet,
    weights: Vec<(Objective, f64)>,
}

fn arb_instance(max_rels: usize) -> impl Strategy<Value = RandomInstance> {
    (
        2..=max_rels,
        prop::collection::vec(100.0f64..200_000.0, max_rels),
        prop::collection::vec(any::<bool>(), max_rels),
        prop::collection::vec(0.05f64..1.0, max_rels),
        prop::collection::vec(0usize..usize::MAX, max_rels),
        prop::collection::vec(0.0f64..1.0, 9),
        2u16..((1 << 9) - 1),
        prop::collection::vec(8.0f64..400.0, max_rels),
        prop::collection::vec(
            (0usize..usize::MAX, 0usize..usize::MAX, 0.5f64..2.0),
            0..=max_rels,
        ),
    )
        .prop_map(
            |(n, cards, indexed, filters, parents, weight_vals, obj_bits, widths, extras)| {
                let mut catalog = Catalog::new();
                let mut rels = Vec::new();
                for i in 0..n {
                    let mut col = ColumnStats::new("k", cards[i].max(2.0));
                    if indexed[i] {
                        col = col.indexed();
                    }
                    catalog.add_table(
                        TableStats::new(format!("t{i}"), cards[i], widths[i]).with_column(col),
                    );
                    rels.push(moqo_catalog::BaseRel {
                        table: moqo_catalog::TableId(i as u32),
                        alias: format!("t{i}"),
                        filter_selectivity: filters[i],
                    });
                }
                // Spanning tree: node i > 0 connects to a random earlier node.
                let key_selectivity = |a: usize, b: usize| 1.0 / cards[a].max(cards[b]).max(2.0);
                let mut edges = Vec::new();
                for (i, draw) in parents.iter().enumerate().take(n).skip(1) {
                    let parent = draw % i;
                    edges.push(JoinEdge {
                        left_rel: parent,
                        left_col: 0,
                        right_rel: i,
                        right_col: 0,
                        selectivity: key_selectivity(parent, i),
                    });
                }
                // Extra edges between two distinct relations: a pair the
                // tree leaves apart closes a cycle, a pair it joins gets a
                // second predicate.
                for (a, b, scale) in extras {
                    let left = a % n;
                    let right = (left + 1 + b % (n - 1)) % n;
                    edges.push(JoinEdge {
                        left_rel: left,
                        left_col: 0,
                        right_rel: right,
                        right_col: 0,
                        selectivity: (key_selectivity(left, right) * scale).min(1.0),
                    });
                }
                let graph = JoinGraph { rels, edges };
                assert_eq!(graph.validate(&catalog), Ok(()));
                // Random non-empty objective subset with random weights.
                let mut objectives = ObjectiveSet::empty();
                let mut weights = Vec::new();
                for o in Objective::ALL {
                    if obj_bits & (1 << o.index()) != 0 {
                        objectives.insert(o);
                        weights.push((o, weight_vals[o.index()]));
                    }
                }
                RandomInstance {
                    catalog,
                    graph,
                    objectives,
                    weights,
                }
            },
        )
}

fn sampling_free_params() -> CostModelParams {
    CostModelParams {
        enable_sampling: false,
        ..CostModelParams::default()
    }
}

/// 3–9 objectives: those of the eight besides `TupleLoss` whose bit is set
/// in `bits`, topped up in declaration order to three, plus `TupleLoss`
/// when `with_loss`.
fn objectives_of(bits: u8, with_loss: bool) -> ObjectiveSet {
    let others = Objective::ALL
        .into_iter()
        .filter(|&o| o != Objective::TupleLoss);
    let mut out: ObjectiveSet = others
        .clone()
        .enumerate()
        .filter(|&(i, _)| bits & (1 << i) != 0)
        .map(|(_, o)| o)
        .collect();
    let floor = 3 - usize::from(with_loss);
    for o in others {
        if out.len() >= floor {
            break;
        }
        out.insert(o);
    }
    if with_loss {
        out.insert(Objective::TupleLoss);
    }
    out
}

fn preference(inst: &RandomInstance) -> Preference {
    let mut pref = Preference::over(inst.objectives);
    for &(o, w) in &inst.weights {
        pref.weights.set(o, w);
    }
    pref
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corollary 1, exact form: on a sampling-free plan space the RTA's
    /// weighted cost is within α_U of the exact optimum — always.
    #[test]
    fn rta_guarantee_is_exact_without_sampling(
        inst in arb_instance(4),
        alpha in 1.0f64..3.0,
    ) {
        let params = sampling_free_params();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let pref = preference(&inst);
        let deadline = Deadline::unlimited();
        let exact = exa(&model, &pref, &deadline);
        let opt = select_best(&exact.final_plans, &pref).unwrap();
        let approx = rta(&model, &pref, alpha, &deadline);
        let best = select_best(&approx.final_plans, &pref).unwrap();
        let (got, want) = (pref.weighted_cost(&best.cost), pref.weighted_cost(&opt.cost));
        prop_assert!(
            got <= alpha * want + 1e-6,
            "ρ = {} exceeds α = {alpha}",
            got / want.max(1e-12)
        );
    }

    /// Theorem 3, exact form: the RTA's final plan set α_U-covers the exact
    /// Pareto frontier.
    #[test]
    fn rta_frontier_coverage_without_sampling(
        inst in arb_instance(3),
        alpha in 1.0f64..2.5,
    ) {
        let params = sampling_free_params();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let pref = preference(&inst);
        let deadline = Deadline::unlimited();
        let exact = exa(&model, &pref, &deadline);
        let approx = rta(&model, &pref, alpha, &deadline);
        let exact_vectors: Vec<_> = exact.final_plans.iter().map(|e| e.cost).collect();
        let approx_vectors: Vec<_> = approx.final_plans.iter().map(|e| e.cost).collect();
        prop_assert!(moqo_cost::pareto_front::is_approx_pareto_set(
            &approx_vectors,
            &exact_vectors,
            alpha + 1e-9,
            inst.objectives,
        ));
    }

    /// The EXA's final plan set never contains a plan strictly dominated by
    /// another plan of the same output order (per-group antichain).
    #[test]
    fn exa_final_plans_are_per_order_antichains(inst in arb_instance(4)) {
        let params = sampling_free_params();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let pref = preference(&inst);
        let exact = exa(&model, &pref, &Deadline::unlimited());
        for a in &exact.final_plans {
            for b in &exact.final_plans {
                if a.plan != b.plan && a.props.order == b.props.order {
                    prop_assert!(
                        !moqo_cost::strictly_dominates(&a.cost, &b.cost, inst.objectives),
                        "stored plan strictly dominated within its order group"
                    );
                }
            }
        }
    }

    /// Theorem 6, exact form: on bounded instances with a feasible plan the
    /// IRA returns a feasible plan within α_U of the bounded optimum.
    #[test]
    fn ira_guarantee_without_sampling(
        inst in arb_instance(3),
        alpha in 1.05f64..2.5,
        bound_slack in 1.05f64..3.0,
    ) {
        let params = sampling_free_params();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let mut pref = preference(&inst);
        // Bound the first selected objective at slack × its minimum: always
        // feasible by construction.
        let bounded_obj = inst.objectives.iter().next().unwrap();
        let min = moqo_core::min_cost_for_objective(&model, bounded_obj, &Deadline::unlimited());
        pref.bounds.set(bounded_obj, min * bound_slack + 1e-9);

        let deadline = Deadline::unlimited();
        let exact = exa(&model, &pref, &deadline);
        let opt = select_best(&exact.final_plans, &pref).unwrap();
        prop_assert!(pref.respects_bounds(&opt.cost), "instance must be feasible");

        let out = ira(&model, &pref, alpha, &deadline);
        prop_assert!(
            pref.respects_bounds(&out.best.cost),
            "IRA must return a feasible plan when one exists"
        );
        let (got, want) = (
            pref.weighted_cost(&out.best.cost),
            pref.weighted_cost(&opt.cost),
        );
        prop_assert!(got <= alpha * want + 1e-6, "ρ = {}", got / want.max(1e-12));
    }

    /// The split index reproduces the join graph's reference split (key,
    /// selectivity and width by bits) and connectivity test on every
    /// ordered pair of disjoint relation sets.
    #[test]
    fn split_index_matches_reference_definitions(inst in arb_instance(10)) {
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let n = inst.graph.n_rels() as u32;
        let checked = moqo_core::test_support::check_split_index(&model, 0, 0);
        prop_assert_eq!(checked, (3usize.pow(n) + 1) - (1 << (n + 1)));
    }

    /// Every plan dominated on *all nine* objectives is also dominated on
    /// any subset — so optimizing over subsets never invents new plans
    /// (consistency of the projection).
    #[test]
    fn full_frontier_projects_onto_subset_frontiers(inst in arb_instance(3)) {
        let params = sampling_free_params();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let all = Preference::over(ObjectiveSet::all()).weight(Objective::TotalTime, 1.0);
        let sub = preference(&inst);
        let deadline = Deadline::unlimited();
        let full = exa(&model, &all, &deadline);
        let subset = exa(&model, &sub, &deadline);
        // Every subset-frontier cost vector is matched (dominated-or-equal
        // on the subset) by some member of the full nine-dimensional set.
        for e in &subset.final_plans {
            prop_assert!(
                full.final_plans
                    .iter()
                    .any(|f| dominates(&f.cost, &e.cost, inst.objectives)),
                "subset frontier must be covered by the full frontier"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DP's candidate loop, chunk-bound skips included, is exact: with
    /// sampling scans on, at α_i ∈ {1, 1.25, 1.5} and in both prune modes,
    /// its final front (cost bits, in order) and considered-plan count
    /// equal those of the plain reference DP, which costs and probes every
    /// candidate.
    #[test]
    fn dp_matches_the_reference_dp_bit_for_bit(
        inst in arb_instance(3),
        alpha_pick in 0usize..3,
        objective_bits in 0u8..=u8::MAX,
        with_loss in any::<bool>(),
        props_aware in any::<bool>(),
    ) {
        let params = CostModelParams::default();
        prop_assert!(params.enable_sampling);
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let alpha = [1.0, 1.25, 1.5][alpha_pick];
        let objectives = objectives_of(objective_bits, with_loss);
        let mode = if props_aware { PruneMode::PropsAware } else { PruneMode::CostOnly };
        let result = find_pareto_plans(
            &model,
            objectives,
            &PruneStrategy::approximate(alpha).with_mode(mode),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        let (front, considered) = reference_dp(&model, objectives, alpha, mode);
        prop_assert_eq!(result.stats.considered_plans, considered);
        let got: Vec<_> = result
            .final_plans
            .iter()
            .map(|e| e.cost.as_array().map(f64::to_bits))
            .collect();
        let want: Vec<_> = front.iter().map(|c| c.as_array().map(f64::to_bits)).collect();
        prop_assert_eq!(got, want);
    }

    /// A front depends on the block, the objectives, α and the prune mode,
    /// not on the weights or the bounds, which only select from it: two
    /// preferences over the same objectives get bit-identical EXA and RTA
    /// fronts (costs and properties, in order) for equal work, and IRA,
    /// whose bounds decide when it stops, ends on the front of RTA at its
    /// last precision. Sampling is on, so `TupleLoss` picks the mode:
    /// cost-only with it, props-aware without.
    #[test]
    fn fronts_depend_on_the_objectives_not_on_weights_or_bounds(
        inst in arb_instance(3),
        objective_bits in 0u8..=u8::MAX,
        with_loss in any::<bool>(),
        weights in prop::array::uniform9(0.0f64..10.0),
        bound_slack in 1.0f64..3.0,
    ) {
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &inst.catalog, &inst.graph);
        let objectives = objectives_of(objective_bits, with_loss);
        let mode = PruneMode::auto(params.enable_sampling, objectives);
        prop_assert_eq!(mode == PruneMode::CostOnly, with_loss);
        let mut first = Preference::over(objectives);
        for &(o, w) in &inst.weights {
            first.weights.set(o, w);
        }
        // Other weights, and a bound on the first selected objective.
        let mut second = Preference::over(objectives);
        for (o, w) in Objective::ALL.into_iter().zip(weights) {
            second.weights.set(o, w);
        }
        let deadline = Deadline::unlimited();
        let bounded = objectives.iter().next().unwrap();
        let least = moqo_core::min_cost_for_objective(&model, bounded, &deadline);
        second.bounds.set(bounded, least * bound_slack);
        prop_assert!(second.is_bounded() && !first.is_bounded());

        let front = |plans: &[moqo_core::PlanEntry]| {
            plans
                .iter()
                .map(|e| {
                    let p = e.props;
                    let props = (p.rels, p.rows.to_bits(), p.width.to_bits(), p.order);
                    (e.cost.as_array().map(f64::to_bits), props, p.sampling_factor.to_bits())
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (exa(&model, &first, &deadline), exa(&model, &second, &deadline));
        prop_assert_eq!(a.stats.considered_plans, b.stats.considered_plans);
        prop_assert_eq!(front(&a.final_plans), front(&b.final_plans));
        for alpha in [1.25, 1.5, 2.0] {
            let a = rta(&model, &first, alpha, &deadline);
            let b = rta(&model, &second, alpha, &deadline);
            prop_assert_eq!(a.stats.considered_plans, b.stats.considered_plans);
            prop_assert_eq!(front(&a.final_plans), front(&b.final_plans));
            let iterated = ira(&model, &second, alpha, &deadline);
            let last = rta(&model, &first, iterated.alpha_last, &deadline);
            prop_assert_eq!(front(&iterated.result.final_plans), front(&last.final_plans));
        }
    }
}
