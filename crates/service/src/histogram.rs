//! A lock-free log-bucket latency histogram.
//!
//! The seed's `ServiceMetrics` kept every completion latency in a
//! `Mutex<Vec<u64>>`: memory grew without bound for the life of the
//! process, and `snapshot()` cloned and sorted the entire completion
//! history under the lock — an O(n log n) stall that worsened every second
//! of uptime. This histogram replaces it with a fixed array of atomic
//! counters: recording is one `fetch_add` on a bucket (wait-free, no lock,
//! no allocation), memory is O(buckets) forever, and quantile queries walk
//! the constant-size bucket array.
//!
//! # Bucket scheme and error bound
//!
//! Values are microseconds. The bucket layout is log-linear, HDR-style:
//!
//! * values `0..8` get one exact bucket each (the linear region);
//! * every power-of-two octave `[2^e, 2^(e+1))` for `e ≥ 3` is split into
//!   8 equal sub-buckets (the top [`SUB_BITS`] + 1 significant bits of the
//!   value select the bucket).
//!
//! That is `8 + 61·8 = 496` buckets ([`BUCKETS`]) covering the whole `u64`
//! range — 3.9 KiB per histogram, independent of how many values were
//! recorded.
//!
//! A bucket spans at most 1/8 of its lower bound, so for any recorded
//! value `v` the bucket holding it satisfies `lo ≤ v ≤ lo·(1 + 1/8)`.
//! Quantile queries return the *lower bound* of the bucket containing the
//! requested order statistic, which yields the documented guarantee:
//!
//! > `quantile(p) ≤ exact_p ≤ quantile(p) · 9/8` (exact below 8 µs),
//!
//! i.e. reported percentiles never exceed the true value and undershoot it
//! by at most 12.5% — one log-bucket. `proptest` coverage pins this bound
//! against the exact sorted-vector answer on random latency streams
//! (`tests/histogram_properties.rs`).

use moqo_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: one per value below `SUB`, then `SUB` per octave
/// for exponents `SUB_BITS..64`.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-size histogram of `u64` microsecond values; every operation is
/// lock-free and the memory footprint is O([`BUCKETS`]), never O(samples).
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Exact sum of every recorded value (µs): a true mean and true
    /// totals even though the buckets are lossy.
    sum_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: identity in the linear region, top
/// `SUB_BITS + 1` significant bits otherwise.
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let e = 63 - value.leading_zeros();
    let sub = (value >> (e - SUB_BITS)) as usize & (SUB - 1);
    // The linear region occupies indices `0..SUB`; octave `e = SUB_BITS`
    // continues contiguously at index `SUB` (its sub-buckets are exactly
    // the values `SUB..2·SUB`, width 1, so the mapping stays gap-free).
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

/// Inclusive value range `[lo, hi]` covered by bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, index as u64);
    }
    let e = ((index - SUB) / SUB) as u32 + SUB_BITS;
    let sub = ((index - SUB) % SUB) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (1u64 << e) + sub * width;
    // `lo + (width - 1)`, not `lo + width - 1`: the top bucket's exclusive
    // end is 2^64, which overflows before the subtraction.
    (lo, lo + (width - 1))
}

impl LogHistogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration (saturating at `u64::MAX` microseconds).
    /// Wait-free: three relaxed `fetch_add`s, no lock, no allocation.
    pub fn record(&self, value: Duration) {
        self.record_us(u64::try_from(value.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one raw microsecond value.
    #[moqo::hot_path]
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counters, for repeated quantile
    /// queries over one consistent view. Cost is O([`BUCKETS`]) regardless
    /// of how many values were recorded.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }

    /// The inclusive `[lo, hi]` bounds of the bucket a value falls into —
    /// the resolution at which this histogram remembers it. Exposed so
    /// tests and docs can state the error bound exactly.
    #[must_use]
    pub fn bucket_bounds(us: u64) -> (u64, u64) {
        bucket_range(bucket_index(us))
    }
}

/// An owned copy of the bucket counters (see [`LogHistogram::snapshot`]).
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum_us: u64,
}

impl HistogramSnapshot {
    /// Total recorded values in this snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact sum of every recorded value, in microseconds.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The `p`-quantile (`0.0 ≤ p ≤ 1.0`) as the lower bound of the bucket
    /// containing the order statistic of rank `round(p · (n − 1))` — the
    /// same rank convention the seed's exact sorted-vector percentile
    /// used. Returns 0 µs on an empty snapshot.
    ///
    /// Guarantee: `quantile(p) ≤ exact ≤ quantile(p) + width`, where
    /// `width ≤ quantile(p) / 8` (0 below 8 µs) — see the module docs.
    #[must_use]
    pub fn quantile_us(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = (p.clamp(0.0, 1.0) * (n - 1) as f64).round() as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return bucket_range(i).0;
            }
        }
        // Unreachable while counts are consistent; the top bucket's lower
        // bound is the safe answer.
        bucket_range(BUCKETS - 1).0
    }

    /// [`HistogramSnapshot::quantile_us`] as a [`Duration`].
    #[must_use]
    pub fn quantile(&self, p: f64) -> Duration {
        Duration::from_micros(self.quantile_us(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_range(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_partition_the_value_range() {
        // Every bucket's range starts where the previous one ended.
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, expected_lo, "gap or overlap before bucket {i}");
            assert!(hi >= lo);
            expected_lo = hi.wrapping_add(1);
        }
        // The last bucket tops out at u64::MAX.
        assert_eq!(bucket_range(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn every_value_maps_into_its_bucket_range() {
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            255,
            256,
            1_000,
            1_023,
            1_024,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let (lo, hi) = LogHistogram::bucket_bounds(v);
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            // Error bound: bucket width ≤ lo / 8 in the log region.
            if v >= SUB as u64 {
                assert!(hi - lo < lo.div_ceil(8), "bucket at {v} too wide");
            }
        }
    }

    #[test]
    fn quantiles_track_known_streams() {
        let h = LogHistogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        for (p, exact_ms) in [(0.50, 51u64), (0.95, 95), (0.99, 99)] {
            let got = snap.quantile_us(p);
            let exact = exact_ms * 1000;
            let (lo, hi) = LogHistogram::bucket_bounds(exact);
            assert!(
                got >= lo && got <= hi && got <= exact,
                "p{p}: got {got}, exact {exact} in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.snapshot().quantile(0.99), Duration::ZERO);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().sum_us(), 0);
    }

    #[test]
    fn sum_is_exact() {
        let h = LogHistogram::new();
        for us in [3u64, 9, 1_000, 1_000_000] {
            h.record_us(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.sum_us(), 3 + 9 + 1_000 + 1_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LogHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_us(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 40_000);
        let sum: u64 = (0..4u64)
            .flat_map(|t| (0..10_000u64).map(move |i| t * 1_000 + i))
            .sum();
        assert_eq!(snap.sum_us(), sum, "the exact sum loses nothing either");
    }
}
