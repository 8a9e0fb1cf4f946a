//! Small numeric helpers: percentiles, medians, FNV
//! hashing, and the `/proc` readers behind the CPU and memory metrics.

/// Nearest-rank percentile of `n` ascending samples: the index of the
/// smallest sample with at least `p · n` samples at or below it, and how
/// many samples lie strictly beyond it. A percentile is only reported with
/// confidence when at least ten samples lie beyond it.
pub fn percentile_rank(n: usize, p: f64) -> Option<(usize, usize)> {
    if n == 0 {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((rank - 1, n - rank))
}

/// [`percentile_rank`] read off an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    percentile_rank(sorted.len(), p).map(|(i, beyond)| (sorted[i], beyond))
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// FNV-1a over the little-endian bytes of `value`, folded into `acc`.
pub fn fnv(mut acc: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        acc ^= u64::from(byte);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads) from the
/// text of `/proc/self/stat`. The command name may contain spaces and
/// parentheses, so fields are counted after its closing parenthesis.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of proc(5); field 3 is index 0 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    #[allow(clippy::cast_precision_loss)]
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB from the text of
/// `/proc/self/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Process CPU seconds so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status is readable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_sorted_ground_truth() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some((500.0, 500)));
        // p99 of 1000 samples: rank 990, exactly ten samples beyond it.
        assert_eq!(percentile(&sorted, 0.99), Some((990.0, 10)));
        // 999 samples leave only nine beyond p99 — too few to report it
        // with confidence.
        let (value, beyond) = percentile(&sorted[..999], 0.99).unwrap();
        assert_eq!(value, 990.0);
        assert!(beyond < 10);
        assert_eq!(percentile(&[7.0], 0.99), Some((7.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
        // Against a brute-force definition on an uneven sample.
        let uneven = [0.5, 1.0, 1.0, 2.0, 8.0, 9.5, 30.0];
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let (value, _) = percentile(&uneven, p).unwrap();
            #[allow(clippy::cast_precision_loss)]
            let at_or_below = uneven.iter().filter(|&&v| v <= value).count() as f64;
            assert!(at_or_below >= p * uneven.len() as f64, "p{p}");
            let below = uneven.iter().filter(|&&v| v < value).count();
            #[allow(clippy::cast_precision_loss)]
            let short = (below as f64) < p * uneven.len() as f64;
            assert!(short, "p{p} is the smallest such sample");
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_parsers_read_fixture_strings() {
        // A command name with spaces and a parenthesis must not shift the
        // fields; utime = 250 and stime = 50 ticks.
        let stat = "4242 (moqo (bench) x) S 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    250 50 0 0 20 0 5 0 12345 100000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        let status = "Name:\tmoqo\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
        // The live readers work on this machine.
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
