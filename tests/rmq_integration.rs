//! End-to-end tests for the anytime randomized optimizer (RMQ): seed
//! determinism through the `Optimizer` facade, soundness of the sampled
//! front against the exact algorithm on small queries, and the large-query
//! acceptance scenario (20-table chain under a wall-clock budget).

use std::time::Duration;

use moqo::cost::pareto_front;
use moqo::prelude::*;

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

#[test]
fn same_seed_yields_identical_front() {
    let catalog = moqo::tpch::catalog(0.01);
    let query = moqo::tpch::query(&catalog, 3);
    let p = weighted_pref();
    let optimizer = Optimizer::new(&catalog);
    let algo = Algorithm::Rmq {
        samples: 400,
        seed: 99,
        threads: 1,
    };
    let a = optimizer.optimize(&query, &p, algo);
    let b = optimizer.optimize(&query, &p, algo);
    assert_eq!(a.weighted_cost, b.weighted_cost);
    assert_eq!(a.total_cost, b.total_cost);
    assert_eq!(a.block_plans.len(), b.block_plans.len());
    for (ba, bb) in a.block_plans.iter().zip(&b.block_plans) {
        assert_eq!(ba.frontier, bb.frontier, "fronts must be bit-identical");
        assert_eq!(ba.cost, bb.cost);
    }
    // A different seed is a different run (the chosen plan may coincide,
    // but the sampled-candidate count trace must still be reproducible).
    let c = optimizer.optimize(
        &query,
        &p,
        Algorithm::Rmq {
            samples: 400,
            seed: 100,
            threads: 1,
        },
    );
    assert_eq!(c.block_plans.len(), a.block_plans.len());
}

/// On every tested query with ≤ 8 tables per block, the exact Pareto set
/// must cover the RMQ front at α = 1: each sampled front vector is a
/// genuine plan cost, so it is weakly dominated by an exact Pareto vector.
/// The achieved approximation factor of the RMQ front against the exact
/// frontier (the "α derived from the run") must conversely certify the RMQ
/// front as an α-approximate Pareto set.
///
/// Sampling scans stay **enabled**: with `TupleLoss` unselected they used
/// to make this oracle unsound (cost-vector pruning dropped plans whose
/// lower row counts made descendants cheaper, so the test had to disable
/// sampling as a workaround). `PruneMode::auto` now runs both EXA and RMQ
/// props-aware in exactly that regime, which restores Lemma 2 and makes
/// exact coverage a sound oracle over the *full* plan space, sampling
/// included (`tests/props_pruning.rs` pins the regression itself).
#[test]
fn exa_front_covers_rmq_front_on_small_queries() {
    let catalog = moqo::tpch::catalog(0.01);
    let params = CostModelParams::default();
    let p = weighted_pref();
    let deadline = Deadline::unlimited();

    // TPC-H Q3 (3 tables), Q7 (6 tables) and the 8-table chain.
    let mut blocks = Vec::new();
    blocks.extend(moqo::tpch::query(&catalog, 3).blocks);
    blocks.extend(moqo::tpch::query(&catalog, 7).blocks);
    blocks.push(moqo::tpch::large_join_graph(&catalog, 8));

    for (i, graph) in blocks.iter().enumerate() {
        assert!(graph.n_rels() <= 8);
        let model = CostModel::new(&params, &catalog, graph);
        let exact = exa(&model, &p, &deadline);
        let out = rmq(&model, &p, &RmqConfig::new(600, 17 + i as u64), &deadline);

        let exact_vectors: Vec<CostVector> = exact.final_plans.iter().map(|e| e.cost).collect();
        let rmq_vectors: Vec<CostVector> = out.final_plans.iter().map(|e| e.cost).collect();
        assert!(!rmq_vectors.is_empty());

        // Soundness: the exact Pareto set 1-covers every RMQ front vector.
        assert!(
            pareto_front::is_approx_pareto_set(
                &exact_vectors,
                &rmq_vectors,
                1.0 + 1e-9,
                p.objectives
            ),
            "block {i}: an RMQ vector beats the exact frontier — impossible \
             for genuine plan costs"
        );

        // The run-derived α certifies the RMQ front against the exact
        // frontier.
        let alpha = pareto_front::approximation_factor(&rmq_vectors, &exact_vectors, p.objectives)
            .expect("exact frontier is non-empty");
        assert!(alpha >= 1.0, "block {i}: factor {alpha}");
        assert!(
            alpha.is_finite(),
            "block {i}: RMQ front must cover the exact frontier at some finite α"
        );
        assert!(
            pareto_front::is_approx_pareto_set(
                &rmq_vectors,
                &exact_vectors,
                alpha + 1e-9,
                p.objectives
            ),
            "block {i}: RMQ front must be an α-approximate Pareto set for \
             its own achieved α = {alpha}"
        );
    }
}

/// The acceptance scenario: a 20-table TPC-H-style chain, far beyond the
/// dynamic-programming schemes, optimized within a generous wall-clock
/// budget — non-empty, deterministic front.
#[test]
fn rmq_handles_twenty_table_chain_within_budget() {
    let catalog = moqo::tpch::catalog(0.01);
    let query = moqo::tpch::large_query(&catalog, 20);
    let p = weighted_pref();
    let optimizer = Optimizer::new(&catalog).with_timeout(Duration::from_secs(60));
    let algo = Algorithm::Rmq {
        samples: 400,
        seed: 7,
        threads: 1,
    };

    let a = optimizer.optimize(&query, &p, algo);
    assert!(!a.report.timed_out(), "400 samples fit the budget easily");
    assert_eq!(a.block_plans.len(), 1);
    assert!(!a.block_plans[0].frontier.is_empty());
    assert!(a.weighted_cost.is_finite() && a.weighted_cost > 0.0);
    // Every front plan covers all 20 relations.
    let block = &a.block_plans[0];
    assert_eq!(block.arena.leaf_count(block.root), 20);
    assert_eq!(a.report.blocks[0].iterations, 400);

    let b = optimizer.optimize(&query, &p, algo);
    assert_eq!(a.block_plans[0].frontier, b.block_plans[0].frontier);
    assert_eq!(a.weighted_cost, b.weighted_cost);
}

/// RMQ also honours bounds through `SelectBest`: with a tuple-loss bound of
/// zero the chosen plan must not sample.
#[test]
fn rmq_respects_bounds_when_feasible() {
    let catalog = moqo::tpch::catalog(0.01);
    let query = moqo::tpch::query(&catalog, 3);
    let p = weighted_pref().bound(Objective::TupleLoss, 0.0);
    let optimizer = Optimizer::new(&catalog);
    let result = optimizer.optimize(
        &query,
        &p,
        Algorithm::Rmq {
            samples: 800,
            seed: 5,
            threads: 1,
        },
    );
    assert!(
        result.respects_bounds,
        "loss-free plans exist and 800 samples find one"
    );
    let block = &result.block_plans[0];
    assert!(!block.arena.uses_sampling(block.root));
}

/// FNV-1a over one 64-bit word.
fn fnv(acc: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of a run's outputs: every cost bit of the final front, in front
/// order, then the sampled-candidate count.
fn front_digest(out: &RmqResult) -> u64 {
    let acc = out
        .final_plans
        .iter()
        .flat_map(|e| e.cost.as_array().iter())
        .fold(0xCBF2_9CE4_8422_2325, |acc, v| fnv(acc, v.to_bits()));
    fnv(acc, out.stats.considered_plans)
}

/// Pins RMQ's outputs on a 16-relation clique and a 20-relation chain, cold
/// and warm-started from the cold front: any change to the RNG draw order,
/// the candidate stream or the float arithmetic of costing moves a digest.
#[test]
fn rmq_fronts_are_pinned() {
    let catalog = moqo::tpch::catalog(0.01);
    let params = CostModelParams::default();
    let p = weighted_pref();
    let deadline = Deadline::unlimited();
    let cases = [
        (
            16,
            moqo::tpch::Topology::Clique,
            [3359874119630960177, 14909173096141705399],
        ),
        (
            20,
            moqo::tpch::Topology::Chain,
            [1204643506265274990, 6450847936744327640],
        ),
    ];
    for (n, topology, [cold_pin, warm_pin]) in cases {
        let query = moqo::tpch::large_query_with(&catalog, n, topology);
        let model = CostModel::new(&params, &catalog, &query.blocks[0]);
        let cold = rmq(&model, &p, &RmqConfig::new(1500, 11), &deadline);
        let warm_trees: Vec<JoinTree> = cold
            .final_plans
            .iter()
            .map(|e| cold.arena.extract_tree(e.plan))
            .collect();
        let warm = moqo::core::rmq_warm(
            &model,
            &p,
            &RmqConfig::new(1500, 12),
            &deadline,
            &warm_trees,
        );
        assert_eq!(
            front_digest(&cold),
            cold_pin,
            "{n}-relation {topology:?}, cold"
        );
        assert_eq!(
            front_digest(&warm),
            warm_pin,
            "{n}-relation {topology:?}, warm"
        );
    }
}
