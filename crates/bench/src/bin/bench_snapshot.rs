//! Perf-trajectory snapshot: runs a fixed workload matrix and writes median
//! wall-times to a JSON file (`BENCH_pr<N>.json` by default, `N` being
//! `LEDGER_ENTRY`), so successive PRs can track the optimizer hot paths
//! with one committed artifact per snapshot, which `bench_diff` compares
//! against a baseline. Each cell is the median of 5 repetitions (1 under
//! `MOQO_SMOKE`).
//!
//! The matrix covers the hot paths this repository optimizes:
//!
//! * **RMQ** — 1k and 10k samples on 8- and 20-table chains, on the
//!   calling thread like every RMQ run, each row followed by a zero-time
//!   `rmq_chain_costings` cell whose checksum is the run's cost-model
//!   evaluations (`RmqResult::costings`); these rows run first, so no
//!   earlier row's allocations precede their timings,
//! * **DP insert stream** — 2000 random cost vectors through
//!   `PlanSet::prune_insert` at 2/6/9 objectives, exact (EXA's `Prune`)
//!   and at α = 1.5 (RTA's: approximate rejection, exact deletion),
//! * **DP work counters** — how many dominance probes each EXA and RTA
//!   row ran (one per costed candidate and at most one per chunk-bound
//!   decision, see `moqo_core::dp`), how many stored plans those probes
//!   compared (`DpStats::frontier_scan_steps`: each probe tests its set's
//!   last rejector, then the sorted-prefix cutoff scan), how many
//!   candidates it costed, and how many chunk-bound decisions it made and
//!   how many of them rejected, as zero-time cells whose checksum is the
//!   counter value; if the DP stops skipping dominated candidate chunks,
//!   the probes and the costed candidates move, and if a probe stops
//!   testing the last rejector first or scans further, the steps do,
//! * **EXA** — the exact DP on 6- and 8-table chain join graphs
//!   (sampling off),
//! * **EXA, props-aware** — the same chains with sampling scans enabled,
//!   where `PruneMode::auto` switches every pruning site to props-aware
//!   dominance; the checksum gates the sound mode's fronts,
//! * **RTA on TPC-H** — α = 1.5 over all nine objectives on Q5 and Q9
//!   at scale factor 1, the six-relation blocks that dominate the
//!   `benchmark/` `tpch_dp` workload's optimizer time,
//! * **Metrics snapshot** — 64 `ServiceMetrics::snapshot` calls after 10k
//!   and 1M completions; the binary asserts the cost does not grow with
//!   the count.
//!
//! Environment knobs:
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MOQO_SMOKE` | unset | `1`: single rep, budgets ÷10 (CI smoke mode) |
//! | `MOQO_BENCH_OUT` | `BENCH_pr<N>.json` | output path |

#![allow(clippy::disallowed_methods, reason = "this binary times what it runs")]

use std::time::Instant;

use moqo_core::pareto::{PlanEntry, PlanSet, PruneStrategy};
use moqo_core::{exa, rmq, rta, Deadline, DpStats, RmqConfig};
use moqo_cost::{CostVector, Objective, ObjectiveSet, Preference, NUM_OBJECTIVES};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_plan::{PlanId, PlanProps, SortOrder};
use moqo_tpch::weighted_test_case;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ledger entry a full snapshot is committed as: the `"pr"` stamp and
/// the `N` of the default output `BENCH_pr<N>.json`.
const LEDGER_ENTRY: u32 = 32;

struct Cell {
    name: String,
    params: Vec<(&'static str, String)>,
    median_ms: f64,
    /// Workload-specific integrity value (front/set size) proving the
    /// measured runs did equivalent work across snapshots.
    checksum: usize,
}

fn median_ms(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut checksum = 0;
    for _ in 0..reps {
        let started = Instant::now();
        checksum = f();
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    (times[times.len() / 2], checksum)
}

fn random_entries(n: usize, objectives: usize, seed: u64) -> Vec<PlanEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut a = [0.0; NUM_OBJECTIVES];
            for v in a.iter_mut().take(objectives) {
                *v = rng.gen_range(1.0..1000.0);
            }
            PlanEntry {
                cost: CostVector::from_array(a),
                props: PlanProps {
                    rels: 1,
                    rows: 1.0,
                    width: 1.0,
                    order: SortOrder::None,
                    sampling_factor: 1.0,
                },
                plan: PlanId(i as u32),
            }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Emits the work counters of the DP cell just pushed as zero-time rows
/// with that cell's parameters: `<row>_probes`, `<row>_steps`, then
/// `<row>_costed_candidates`, `<row>_bound_decisions` and
/// `<row>_bound_rejections`. The checksum IS the counter, so snapshot
/// diffs surface any change in how many dominance probes the run made,
/// how many stored plans they compared, how many candidates it costed and
/// how many chunk-bound decisions it made and rejected. Every counter is
/// deterministic per workload; the probe cell's `outcome` parameter keeps
/// the cell key the committed baselines use.
fn push_work_cells(cells: &mut Vec<Cell>, stats: &DpStats) {
    let timed = cells.last().expect("work cells follow their DP cell");
    let row = timed.name.clone();
    let params = timed.params.clone();
    let mut probe_params = params.clone();
    probe_params.push(("outcome", "\"scan\"".to_owned()));
    for (suffix, params, count) in [
        ("probes", probe_params, stats.frontier_scan_probes),
        ("steps", params.clone(), stats.frontier_scan_steps),
        ("costed_candidates", params.clone(), stats.costed_candidates),
        ("bound_decisions", params.clone(), stats.bound_decisions),
        ("bound_rejections", params, stats.bound_rejections),
    ] {
        let name = format!("{row}_{suffix}");
        let shown: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{name} {}: {count}", shown.join(" "));
        cells.push(Cell {
            name,
            params,
            median_ms: 0.0,
            checksum: usize::try_from(count).expect("work counters fit usize"),
        });
    }
}

fn main() {
    let smoke = std::env::var("MOQO_SMOKE").is_ok_and(|v| v != "0");
    let reps: usize = if smoke { 1 } else { 5 };
    let budget_div: u64 = if smoke { 10 } else { 1 };
    let out_path =
        std::env::var("MOQO_BENCH_OUT").unwrap_or_else(|_| format!("BENCH_pr{LEDGER_ENTRY}.json"));

    let preference = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6);
    let params = CostModelParams {
        enable_sampling: false,
        ..CostModelParams::default()
    };
    let catalog = moqo_tpch::catalog(0.01);
    let mut cells: Vec<Cell> = Vec::new();

    // RMQ: samples × tables, ahead of the DP rows, so no DP row's
    // allocations precede them. Each row is followed by its cost-model
    // evaluations as an exact zero-time cell.
    for &n in &[8usize, 20] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);
        for &samples in &[1_000u64, 10_000] {
            let samples = (samples / budget_div).max(1);
            let config = RmqConfig::new(samples, 42);
            let mut costings = 0;
            let (ms, front) = median_ms(reps, || {
                let result = rmq(&model, &preference, &config, &Deadline::unlimited());
                costings = result.costings;
                result.final_plans.len()
            });
            let params = vec![("tables", n.to_string()), ("samples", samples.to_string())];
            println!("rmq_chain tables={n} samples={samples}: {ms:.3} ms (front {front})");
            println!("rmq_chain_costings tables={n} samples={samples}: {costings}");
            cells.push(Cell {
                name: "rmq_chain".into(),
                params: params.clone(),
                median_ms: ms,
                checksum: front,
            });
            cells.push(Cell {
                name: "rmq_chain_costings".into(),
                params,
                median_ms: 0.0,
                checksum: usize::try_from(costings).expect("counters fit usize"),
            });
        }
    }

    // DP insert stream: the Prune hot loop in isolation, exact first, then
    // approximate. Exact rows omit `alpha` to keep the cell keys the
    // committed baselines use.
    for strategy in [PruneStrategy::exact(), PruneStrategy::approximate(1.5)] {
        let alpha = strategy.alpha_internal;
        for &n_objs in &[2usize, 6, 9] {
            let objs: ObjectiveSet = Objective::ALL.into_iter().take(n_objs).collect();
            let entries = random_entries(2000, n_objs, 99);
            let (ms, front) = median_ms(reps, || {
                let mut set = PlanSet::new();
                for e in &entries {
                    set.prune_insert(*e, &strategy, objs);
                }
                set.len()
            });
            let mut cell_params = vec![
                ("objectives", n_objs.to_string()),
                ("vectors", "2000".into()),
            ];
            if alpha > 1.0 {
                cell_params.push(("alpha", alpha.to_string()));
            }
            cells.push(Cell {
                name: "dp_insert_stream".into(),
                params: cell_params,
                median_ms: ms,
                checksum: front,
            });
            println!(
                "dp_insert_stream objectives={n_objs} alpha={alpha}: {ms:.3} ms (set {front})"
            );
        }
    }

    // EXA on chain graphs: the full DP inner loop.
    for &n in &[6usize, 8] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);
        let mut stats = DpStats::default();
        let (ms, front) = median_ms(reps, || {
            let result = exa(&model, &preference, &Deadline::unlimited());
            stats = result.stats;
            result.final_plans.len()
        });
        cells.push(Cell {
            name: "exa_chain".into(),
            params: vec![("tables", n.to_string())],
            median_ms: ms,
            checksum: front,
        });
        println!("exa_chain tables={n}: {ms:.3} ms (front {front})");
        push_work_cells(&mut cells, &stats);
    }

    // EXA with sampling scans enabled: the leaking regime, where the
    // entry points auto-select props-aware pruning. The front sizes gate
    // the sound mode's behaviour the same way the cost-only rows gate the
    // paper baseline.
    let sampled_params = CostModelParams::default();
    debug_assert!(sampled_params.enable_sampling);
    for &n in &[6usize, 8] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&sampled_params, &catalog, &graph);
        let mut stats = DpStats::default();
        let (ms, front) = median_ms(reps, || {
            let result = exa(&model, &preference, &Deadline::unlimited());
            stats = result.stats;
            result.final_plans.len()
        });
        cells.push(Cell {
            name: "exa_chain_props".into(),
            params: vec![("tables", n.to_string())],
            median_ms: ms,
            checksum: front,
        });
        println!("exa_chain_props tables={n}: {ms:.3} ms (front {front})");
        push_work_cells(&mut cells, &stats);
    }

    // RTA on the benchmark's six-relation TPC-H queries at its scale
    // factor: α = 1.5, all nine objectives (so `TupleLoss` is selected and
    // pruning is cost-only, with sampling scans on), weights drawn from a
    // fixed seed. These are the blocks that take most of `tpch_dp`'s
    // optimizer time.
    let sf1 = moqo_tpch::catalog(1.0);
    let mut rng = StdRng::seed_from_u64(25);
    for query_no in [5u8, 9] {
        let query = moqo_tpch::query(&sf1, query_no);
        let [graph] = query.blocks.as_slice() else {
            panic!("TPC-H Q{query_no} is one block");
        };
        let preference = weighted_test_case(&mut rng, query_no, NUM_OBJECTIVES).preference;
        let model = CostModel::new(&sampled_params, &sf1, graph);
        let mut stats = DpStats::default();
        let (ms, front) = median_ms(reps, || {
            let result = rta(&model, &preference, 1.5, &Deadline::unlimited());
            stats = result.stats;
            result.final_plans.len()
        });
        cells.push(Cell {
            name: "rta_tpch".into(),
            params: vec![
                ("query", query_no.to_string()),
                ("objectives", NUM_OBJECTIVES.to_string()),
                ("alpha", "1.5".into()),
            ],
            median_ms: ms,
            checksum: front,
        });
        println!("rta_tpch query={query_no}: {ms:.3} ms (front {front})");
        push_work_cells(&mut cells, &stats);
    }

    // Service metrics snapshot cost: the seed cloned and sorted the full
    // latency history under a lock on every snapshot, so cost grew with
    // uptime. A snapshot now sums a fixed table of event counts; these
    // cells pin that — the 100× column must not cost 100× (the binary
    // asserts a generous 20× ceiling to stay robust on noisy CI machines).
    {
        use moqo_service::{EventKind, PlanCache, ServiceMetrics};
        let cache = PlanCache::new(8, 1);
        let mut medians: Vec<f64> = Vec::new();
        for &completions in &[10_000u64, 1_000_000] {
            let metrics = ServiceMetrics::default();
            for i in 0..completions {
                metrics.on_event(EventKind::Enqueued, 0);
                metrics.on_event(EventKind::Completed, 500 + i % 20_000);
            }
            // 64 snapshots per rep so the per-call cost is measurable.
            let (ms, count) = median_ms(reps.max(3), || {
                let mut completed = 0u64;
                for _ in 0..64 {
                    completed = metrics.snapshot(cache.snapshot()).completed;
                }
                usize::try_from(completed).expect("counts fit usize")
            });
            medians.push(ms);
            cells.push(Cell {
                name: "metrics_snapshot_cost".into(),
                params: vec![("completions", completions.to_string())],
                median_ms: ms,
                checksum: count,
            });
            println!("metrics_snapshot_cost completions={completions}: {ms:.3} ms / 64 snapshots");
        }
        assert!(
            medians[1] < medians[0] * 20.0 + 2.0,
            "snapshot cost must be independent of completed-request count: \
             {:.3} ms at 10k vs {:.3} ms at 1M",
            medians[0],
            medians[1]
        );
    }

    // Hand-rolled JSON: the workspace is dependency-free by design.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"moqo-bench-snapshot/v1\",\n");
    json.push_str(&format!("  \"pr\": {LEDGER_ENTRY},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let params: Vec<String> = c
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v))
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", {}, \"median_ms\": {:.4}, \"checksum\": {}}}{}\n",
            json_escape(&c.name),
            params.join(", "),
            c.median_ms,
            c.checksum,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("snapshot file must be writable");
    println!("\nwrote {} cells to {out_path}", cells.len());
}
