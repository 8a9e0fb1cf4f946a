//! Request-level properties of the whole service. Random well-formed
//! requests — any TPC-H query, multi-block ones included; a paper test
//! case's objectives and weights (§8), a third of them with a tuple-loss
//! bound; α′ in
//! [1, 3]; half the time an algorithm hint; always a deadline of at most
//! 100 ms — are each submitted twice at once to a two-worker service:
//!
//! * `submit` rejects for the deadline exactly when it is below
//!   `DeadlineAwarePolicy::MIN_BUDGET`;
//! * every ticket answers with a plan or a timeout: never `Rejected` after
//!   submit, never `Internal` or `WorkerLost`;
//! * a plan has one outcome per block, and a block cut short by its
//!   deadline claims no guarantee (`achieved_alpha = ∞`).

use std::time::Duration;

use moqo_core::Algorithm;
use moqo_cost::Objective;
use moqo_service::{DeadlineAwarePolicy, OptimizationRequest, OptimizationService, ServiceError};
use moqo_tpch::testgen::weighted_test_case;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A quarter of the deadlines fall within 400 µs, so both sides of the
/// 200 µs admission minimum come up; the rest anywhere up to 100 ms.
fn arb_deadline() -> impl Strategy<Value = Duration> {
    (0u8..4, 0u64..400, 0u64..=100_000).prop_map(|(pick, short_us, long_us)| {
        Duration::from_micros(if pick == 0 { short_us } else { long_us })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_request_is_answered_within_the_admission_contract(
        query_no in 1u8..=22,
        n_objectives in 1usize..=9,
        bounded in 0u8..3,
        seed in 0u64..u64::MAX,
        alpha in 1.0f64..=3.0,
        hint in 0usize..8,
        samples in 10u64..=200,
        deadline in arb_deadline(),
    ) {
        let catalog = moqo_tpch::catalog(0.01);
        let query = moqo_tpch::query(&catalog, query_no);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut preference = weighted_test_case(&mut rng, query_no, n_objectives).preference;
        if bounded == 0 {
            // §8 draws the bound of an objective with a bounded domain
            // uniformly from that domain.
            preference = preference.bound(Objective::TupleLoss, rng.gen_range(0.0..=1.0));
        }
        let blocks = query.blocks.len();
        let mut request =
            OptimizationRequest::new(query, preference, alpha).with_deadline(deadline);
        let threads = 1;
        let hints = [
            Algorithm::Exhaustive,
            Algorithm::Rta { alpha },
            Algorithm::Ira { alpha },
            Algorithm::Rmq { samples, seed, threads },
        ];
        request.hint = hints.get(hint).copied();

        let service = OptimizationService::builder(catalog).workers(2).build();
        let hopeless = deadline < DeadlineAwarePolicy::MIN_BUDGET;
        let mut tickets = Vec::new();
        for _ in 0..2 {
            match service.submit(request.clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(ServiceError::Rejected(_)) if hopeless => {}
                Err(other) => panic!("{deadline:?} at submit: {other:?}"),
            }
        }
        prop_assert_eq!(tickets.is_empty(), hopeless, "{:?}", deadline);
        for ticket in tickets {
            match ticket.wait() {
                Ok(response) => {
                    prop_assert_eq!(response.blocks.len(), blocks);
                    for block in response.blocks.iter().filter(|b| b.report.timed_out) {
                        prop_assert!(block.achieved_alpha.is_infinite(), "{:?}", block.source);
                    }
                }
                Err(ServiceError::DeadlineExceeded) => {}
                Err(other) => panic!("a ticket answered {other:?}"),
            }
        }
        let metrics = service.shutdown();
        prop_assert_eq!(metrics.completed + metrics.errors_total(), 2);
        prop_assert_eq!(metrics.rejected, if hopeless { 2 } else { 0 });
    }
}
