//! Property tests for the serving layer's correctness core:
//!
//! * a front cached at factor α serves every request tolerating `α′ ≥ α`
//!   with a valid certificate, and the served front genuinely `α′`-covers
//!   the exact Pareto frontier (Theorem 3 carried across requests);
//! * canonical signatures are invariant under relation/edge permutation,
//!   edge flips, and weight rescaling.

use moqo_catalog::{BaseRel, JoinEdge, JoinGraph};
use moqo_core::rmq::WALKERS;
use moqo_core::{exa, rta, Deadline, PlanEntry};
use moqo_cost::{pareto_front, CostVector, Objective, ObjectiveSet, Preference};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_service::{CacheKey, CacheLookup, PlanCache};
use proptest::prelude::*;

/// Random blocks are 2–4 relations of a chain/star/cycle/clique over the
/// TPC-H catalog, so every generated graph admits real join predicates;
/// the strategies yield the size offset and the topology index.
fn arb_n_off() -> impl Strategy<Value = usize> {
    0usize..3
}

fn arb_topo() -> impl Strategy<Value = usize> {
    0usize..4
}

fn arb_alpha() -> impl Strategy<Value = f64> {
    (0u32..=20).prop_map(|i| 1.0 + f64::from(i) * 0.1)
}

fn arb_extra() -> impl Strategy<Value = f64> {
    (0u32..=20).prop_map(|i| f64::from(i) * 0.1)
}

fn costs(entries: &[PlanEntry]) -> Vec<CostVector> {
    entries.iter().map(|e| e.cost).collect()
}

fn preference() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

proptest! {
    /// The α-serving rule end to end: compute a front at α with RTA, cache
    /// it, and probe with α′ = α + extra. The probe must be a direct hit
    /// whose front α′-covers the exact frontier of the same block.
    #[test]
    fn cached_alpha_front_serves_looser_requests_with_coverage(
        n_off in arb_n_off(),
        topo in arb_topo(),
        alpha in arb_alpha(),
        extra in arb_extra(),
    ) {
        let catalog = moqo_tpch::catalog(0.01);
        let graph = moqo_tpch::large_join_graph_with(
            &catalog,
            2 + n_off,
            moqo_tpch::Topology::ALL[topo],
        );
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &catalog, &graph);
        let pref = preference();

        let approx = rta(&model, &pref, alpha, &Deadline::unlimited());
        let cache = PlanCache::new(4, 1);
        let key = CacheKey {
            graph: graph.signature(),
            objectives: pref.objectives,
        };
        cache.insert(key, &graph, &approx.final_plans, &approx.arena, alpha);

        let requested = alpha + extra;
        match cache.lookup(&key, &graph, requested, false) {
            CacheLookup::Hit { frontier, alpha: cached, arena } => {
                prop_assert!(cached <= requested);
                // The adopted front must reproduce the cached cost vectors
                // and re-root every tree into the fresh arena.
                prop_assert_eq!(costs(&frontier), costs(&approx.final_plans));
                for e in &frontier {
                    prop_assert!((e.plan.0 as usize) < arena.len());
                }
                // Genuine α′-coverage of the exact frontier.
                let exact = exa(&model, &pref, &Deadline::unlimited());
                prop_assert!(pareto_front::is_approx_pareto_set(
                    &costs(&frontier),
                    &costs(&exact.final_plans),
                    requested,
                    pref.objectives,
                ));
            }
            _ => prop_assert!(false, "α′ ≥ α must serve directly"),
        }
    }

    /// The converse rule: a strictly tighter request must NOT be served
    /// directly — it gets warm-start trees instead, one per cached front
    /// member.
    #[test]
    fn cached_front_never_serves_tighter_requests(
        n_off in arb_n_off(),
        topo in arb_topo(),
        extra in arb_extra(),
    ) {
        let catalog = moqo_tpch::catalog(0.01);
        let graph = moqo_tpch::large_join_graph_with(
            &catalog,
            2 + n_off,
            moqo_tpch::Topology::ALL[topo],
        );
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &catalog, &graph);
        let pref = preference();
        let alpha = 1.5 + extra; // cached guarantee
        let requested = 1.0 + extra * 0.5; // strictly tighter

        let approx = rta(&model, &pref, alpha, &Deadline::unlimited());
        let cache = PlanCache::new(4, 1);
        let key = CacheKey {
            graph: graph.signature(),
            objectives: pref.objectives,
        };
        cache.insert(key, &graph, &approx.final_plans, &approx.arena, alpha);
        match cache.lookup(&key, &graph, requested, false) {
            CacheLookup::NotServable { alpha: cached, .. } => {
                prop_assert_eq!(cached, alpha);
                let (trees, warm_alpha) =
                    cache.warm_trees(&key, &graph).expect("entry is resident");
                prop_assert_eq!(warm_alpha, alpha);
                prop_assert_eq!(trees.len(), approx.final_plans.len().min(WALKERS));
            }
            CacheLookup::Hit { .. } => {
                prop_assert!(false, "α′ < α must not be served directly")
            }
            CacheLookup::Miss => prop_assert!(false, "the entry is resident"),
        }
    }

    /// Bounded requests are only served by exact fronts (Figure 8): an
    /// approximate entry must fall back to warm start for them.
    #[test]
    fn bounded_requests_need_exact_fronts(n_off in arb_n_off(), topo in arb_topo(), extra in arb_extra()) {
        let catalog = moqo_tpch::catalog(0.01);
        let graph = moqo_tpch::large_join_graph_with(
            &catalog,
            2 + n_off,
            moqo_tpch::Topology::ALL[topo],
        );
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &catalog, &graph);
        let pref = preference();
        let alpha = 1.2 + extra;
        let approx = rta(&model, &pref, alpha, &Deadline::unlimited());
        let cache = PlanCache::new(4, 1);
        let key = CacheKey {
            graph: graph.signature(),
            objectives: pref.objectives,
        };
        cache.insert(key, &graph, &approx.final_plans, &approx.arena, alpha);
        prop_assert!(matches!(
            cache.lookup(&key, &graph, alpha + 1.0, true),
            CacheLookup::NotServable { .. }
        ));

        // An exact entry serves bounded requests at any tolerance.
        let exact = exa(&model, &pref, &Deadline::unlimited());
        cache.insert(key, &graph, &exact.final_plans, &exact.arena, 1.0);
        prop_assert!(matches!(
            cache.lookup(&key, &graph, 1.0 + extra, true),
            CacheLookup::Hit { .. }
        ));
    }
}

/// Applies a relation relabelling `perm[old] = new` to a graph.
fn permute_graph(g: &JoinGraph, perm: &[usize]) -> JoinGraph {
    let mut rels: Vec<BaseRel> = g.rels.clone();
    for (old, r) in g.rels.iter().enumerate() {
        rels[perm[old]] = r.clone();
    }
    let edges = g
        .edges
        .iter()
        .map(|e| JoinEdge {
            left_rel: perm[e.left_rel],
            right_rel: perm[e.right_rel],
            ..e.clone()
        })
        .collect();
    JoinGraph { rels, edges }
}

proptest! {
    /// Graph signatures are invariant under relation permutation, edge
    /// reordering, and edge orientation flips.
    #[test]
    fn graph_signature_permutation_invariant(
        n_off in 0usize..5,
        topo in arb_topo(),
        perm_seed in 0u64..1000,
        flip_bits in 0u32..256,
    ) {
        let catalog = moqo_tpch::catalog(0.01);
        let n = 2 + n_off;
        let graph = moqo_tpch::large_join_graph_with(
            &catalog,
            n,
            moqo_tpch::Topology::ALL[topo],
        );
        // A deterministic permutation from the seed (Fisher–Yates with a
        // splitmix-style step).
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = perm_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut permuted = permute_graph(&graph, &perm);
        // Also reorder and flip edges.
        let n_edges = permuted.edges.len().max(1);
        permuted.edges.rotate_left(flip_bits as usize % n_edges);
        for (i, e) in permuted.edges.iter_mut().enumerate() {
            if flip_bits & (1 << (i % 32)) != 0 {
                std::mem::swap(&mut e.left_rel, &mut e.right_rel);
                std::mem::swap(&mut e.left_col, &mut e.right_col);
            }
        }
        prop_assert_eq!(graph.signature(), permuted.signature());
    }

    /// Preference signatures are invariant under positive weight rescaling
    /// and sensitive to proportion changes.
    #[test]
    fn preference_signature_scale_invariant(
        w1 in 1u32..1000,
        w2 in 1u32..1000,
        scale_exp in -6i32..7,
    ) {
        let scale = 10f64.powi(scale_exp);
        let (w1, w2) = (f64::from(w1), f64::from(w2));
        let base = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, w1)
            .weight(Objective::Energy, w2);
        let scaled = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, w1 * scale)
            .weight(Objective::Energy, w2 * scale);
        prop_assert_eq!(base.signature(), scaled.signature());
        // Perturbing the proportion beyond the quantization grid changes
        // the signature.
        let skewed = Preference::over(ObjectiveSet::empty())
            .weight(Objective::TotalTime, w1 * 1.01)
            .weight(Objective::Energy, w2);
        prop_assert_ne!(base.signature(), skewed.signature());
    }
}
