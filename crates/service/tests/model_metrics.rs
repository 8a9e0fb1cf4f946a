//! Model-checked invariants of the lock-free metrics spine: the
//! log-bucket histogram, the pressure-gauge EWMA CAS loop, and the
//! learned block-time estimator (run with `RUSTFLAGS="--cfg moqo_model"
//! cargo test -p moqo_service --test model_metrics --release`).
#![cfg(moqo_model)]

use std::time::Duration;

use moqo_service::{LearnedBlockTimes, LogHistogram, PressureGauge};
use moqo_sync::model::{self, Config};
use moqo_sync::thread;
use moqo_sync::Arc;

/// Concurrent `record_us` never loses a sample: count, exact sum and the
/// bucket totals all conserve under every interleaving of two recorders —
/// the histogram's wait-free `fetch_add`s need nothing stronger than
/// Relaxed.
#[test]
fn histogram_conserves_concurrent_samples() {
    let report = model::check("histogram_conserves_samples", &Config::smoke(), || {
        let h = Arc::new(LogHistogram::new());
        let other = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                h.record_us(5);
                h.record_us(1_000);
            })
        };
        h.record_us(70);
        other.join().expect("recorder");
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3, "no sample may be lost");
        assert_eq!(snap.sum_us(), 1_075, "the exact sum series conserves");
        let (_, cumulative_total) = snap.cumulative_buckets().last().expect("buckets");
        assert_eq!(cumulative_total, 3, "bucket totals agree with count");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// The pressure gauge's CAS loop folds both racing samples in one of the
/// two serialization orders — the final EWMA is always from the
/// enumerable set, never a corrupted mix (the monotonic-CAS invariant:
/// a lost race retries against the winner's value, it never overwrites
/// it).
#[test]
fn pressure_gauge_cas_serializes_racing_samples() {
    let report = model::check("pressure_gauge_cas", &Config::smoke(), || {
        let gauge = Arc::new(PressureGauge::default());
        let other = {
            let gauge = Arc::clone(&gauge);
            thread::spawn(move || gauge.record(Duration::from_millis(20)))
        };
        gauge.record(Duration::from_millis(10));
        other.join().expect("recorder");
        let final_us = gauge.current().expect("two samples recorded").as_secs_f64() * 1e6;
        // 10ms then 20ms: 0.2·20 + 0.8·10 = 12ms; the other order: 18ms.
        let acceptable = [12_000.0, 18_000.0];
        assert!(
            acceptable.iter().any(|v| (final_us - v).abs() < 1e-6),
            "EWMA {final_us}µs is not a valid serialization of the two samples"
        );
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// Same CAS-serialization invariant for the deadline policy's learned
/// per-block-size wall-time EWMA ([`LearnedBlockTimes`]).
#[test]
fn learned_block_times_cas_serializes_racing_samples() {
    let report = model::check("learned_block_times_cas", &Config::smoke(), || {
        let times = Arc::new(LearnedBlockTimes::new());
        let other = {
            let times = Arc::clone(&times);
            thread::spawn(move || times.record(3, Duration::from_millis(20)))
        };
        times.record(3, Duration::from_millis(10));
        other.join().expect("recorder");
        let final_us = times
            .estimate(3)
            .expect("two samples recorded")
            .as_secs_f64()
            * 1e6;
        let acceptable = [12_000.0, 18_000.0];
        assert!(
            acceptable.iter().any(|v| (final_us - v).abs() < 1e-6),
            "estimate {final_us}µs is not a valid serialization of the two samples"
        );
        assert_eq!(times.estimate(4), None, "untouched sizes stay empty");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}
