//! Golden-output smoke tests for the figure-reproduction binaries: each
//! binary runs with a pinned seed and a small, fast configuration, and the
//! key summary lines are asserted, so bench drift (changed headers, broken
//! guarantee audits, lost CSV output) is caught by `cargo test` instead of
//! surfacing the first time someone regenerates a figure.
//!
//! The binaries are located through the `CARGO_BIN_EXE_<name>` variables
//! Cargo sets for integration tests of the package that defines them.

use std::process::{Command, Output};

/// Runs a fig binary with the pinned environment and captures its output.
fn run_pinned(exe: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    cmd.env("MOQO_SEED", "42")
        .env("MOQO_CASES", "1")
        .env("MOQO_TIMEOUT_MS", "2000");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("figure binary must spawn")
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "binary failed with {:?}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn fig3_plan_evolution_golden() {
    // fig3 is fully deterministic (no test-case sampling): EXA on Q3 under
    // three preference variants, with the plan-shape assertions built into
    // the binary itself.
    let out = run_pinned(env!("CARGO_BIN_EXE_fig3_plan_evolution"), &[]);
    let stdout = stdout_of(&out);
    assert!(stdout.contains("Figure 3: optimal TPC-H Q3 plan under changing preferences"));
    assert!(stdout.contains("(a) time-optimal, tuple loss ≤ 0:"));
    assert!(stdout.contains("(b) + weight on buffer footprint:"));
    assert!(stdout.contains("(c) + bound on startup time"));
    assert!(stdout.contains("buffer footprints:"));
    assert!(stdout.contains("startup times:"));
    // The three plans render as operator trees.
    assert!(stdout.contains("HashJ"), "plan (a) uses hash joins");
    assert!(stdout.contains("IdxNL"), "plan (c) is an IdxNL pipeline");
}

#[test]
fn fig7_complexity_golden() {
    let out = run_pinned(env!("CARGO_BIN_EXE_fig7_complexity"), &[]);
    let stdout = stdout_of(&out);
    assert!(stdout.contains("Figure 7: log10 worst-case time (j = 6, l = 3, m = 1e5)"));
    // The formulas are pure math: pin one cell of the CSV exactly.
    let exa10 = moqo_core::complexity::log10_exa_time(6, 10);
    let selinger10 = moqo_core::complexity::log10_selinger_time(6, 10);
    let expected_row_prefix = format!("10,{exa10:.2},");
    assert!(
        stdout.contains(&expected_row_prefix),
        "CSV must contain the n = 10 EXA cell {expected_row_prefix}"
    );
    assert!(stdout.contains(&format!("{selinger10:.2}")));
    assert!(stdout.contains("CSV:"));
}

#[test]
fn fig9_weighted_golden() {
    // Single-table queries keep the pinned run fast; with one block and no
    // timeouts the RTA equals the EXA, so the guarantee audit must be
    // clean and every wcost_pct cell reads 100.00.
    let out = run_pinned(
        env!("CARGO_BIN_EXE_fig9_weighted"),
        &[("MOQO_QUERIES", "1,4,6")],
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains("Figure 9: weighted MOQO — EXA vs RTA"));
    assert!(stdout.contains(
        "query,objectives,algorithm,timeouts_pct,time_ms,memory_kb,pareto_plans,wcost_pct"
    ));
    assert!(
        stdout.contains("guarantee audit: no α_U violations observed."),
        "single-block single-table queries cannot violate the RTA guarantee"
    );
    for algo in ["EXA", "RTA(1.15)", "RTA(1.5)", "RTA(2)"] {
        assert!(stdout.contains(algo), "{algo} row missing");
    }
    assert!(stdout.contains(",100.00"), "wcost_pct of the best plan");
}

#[test]
fn fig10_bounded_golden() {
    let out = run_pinned(
        env!("CARGO_BIN_EXE_fig10_bounded"),
        &[("MOQO_QUERIES", "1,6")],
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains("Figure 10: bounded MOQO — EXA vs IRA"));
    assert!(stdout.contains("all nine objectives; bounds vary over {3, 6, 9}"));
    assert!(stdout
        .contains("query,bounds,algorithm,timeouts_pct,time_ms,memory_kb,iterations,wcost_pct"));
    assert!(stdout.contains("paper reference:"));
    for algo in ["EXA", "IRA(1.15)", "IRA(1.5)", "IRA(2)"] {
        assert!(stdout.contains(algo), "{algo} row missing");
    }
}

#[test]
fn fig_rmq_convergence_golden() {
    // The one caller that asks RMQ for a convergence trace. The binary
    // itself asserts that the incumbent's weighted cost never worsens and
    // that the final trace point matches the returned front.
    let out = run_pinned(
        env!("CARGO_BIN_EXE_fig_rmq_convergence"),
        &[
            ("MOQO_RMQ_SAMPLES", "400"),
            ("MOQO_RMQ_TABLES", "6"),
            ("MOQO_RMQ_EXA_LIMIT", "6"),
        ],
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains(
        "RMQ convergence on chain join graphs [SF=1 samples=400 seed=42 sizes=[6] \
         EXA reference ≤ 6 tables"
    ));
    assert!(stdout.contains("chain of 6: EXA reference front has"));
    // One trace point per stride of 400 / 16 samples.
    let csv = stdout
        .split("CSV:\n")
        .nth(1)
        .expect("the trace is printed as CSV");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("iteration,front_size,best_weighted,coverage_pct,achieved_alpha")
    );
    let iterations: Vec<&str> = lines
        .take_while(|l| !l.is_empty())
        .map(|l| l.split(',').next().unwrap_or_default())
        .collect();
    let expected: Vec<String> = (1..=16).map(|i| (25 * i).to_string()).collect();
    assert_eq!(iterations, expected);
}
