//! Internal calibration probe: times each algorithm on representative
//! queries so the harness defaults can be sanity-checked. Not a figure.

#![allow(clippy::disallowed_methods, reason = "this binary times what it runs")]

use std::time::{Duration, Instant};

use moqo_core::{exa, ira, rta, select_best, Deadline};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_tpch::{catalog, query, weighted_test_case};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cat = catalog(1.0);
    let params = CostModelParams::default();
    let timeout = Duration::from_millis(3000);

    for qno in [3u8, 10, 2, 5, 8] {
        let q = query(&cat, qno);
        for n_objs in [3usize, 6, 9] {
            let mut rng = StdRng::seed_from_u64(7);
            let case = weighted_test_case(&mut rng, qno, n_objs);
            let graph = &q.blocks[0];
            let model = CostModel::new(&params, &cat, graph);

            let t0 = Instant::now();
            let r_exa = exa(&model, &case.preference, &Deadline::new(Some(timeout)));
            let exa_time = t0.elapsed();
            let exa_best = select_best(&r_exa.final_plans, &case.preference).unwrap();

            let t0 = Instant::now();
            let r_rta = rta(
                &model,
                &case.preference,
                1.15,
                &Deadline::new(Some(timeout)),
            );
            let rta_time = t0.elapsed();
            let rta_best = select_best(&r_rta.final_plans, &case.preference).unwrap();

            let t0 = Instant::now();
            let r_ira = ira(&model, &case.preference, 1.5, &Deadline::new(Some(timeout)));
            let ira_time = t0.elapsed();

            println!(
                "Q{qno} l={n_objs}: EXA {:>9.1?} (pareto {:>5}, t/o {}) | RTA(1.15) {:>9.1?} (pareto {:>4}) ρ={:.4} | IRA {:>9.1?} iters={}",
                exa_time,
                r_exa.stats.pareto_last_complete,
                r_exa.stats.timed_out,
                rta_time,
                r_rta.stats.pareto_last_complete,
                case.preference.weighted_cost(&rta_best.cost)
                    / case.preference.weighted_cost(&exa_best.cost).max(1e-12),
                ira_time,
                r_ira.iterations,
            );
        }
    }
}
