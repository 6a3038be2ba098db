//! Small measurement helpers: a seeded generator, exact percentiles,
//! medians, the fast-end quantile of repeated timings, and the
//! process's peak resident memory.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for sub-stream `k` of `seed` (one per lap, tenant, …).
    pub fn derive(seed: u64, k: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_add(k.wrapping_mul(0xd1b5_4a32_d192_ed03)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Share of repeated samples the end-to-end figures are read at: the
/// fast decile. On a shared virtual machine the CPU's speed drifts by
/// up to ~50% in spells of seconds to minutes (other tenants' load;
/// on-CPU time tracks wall time, so it is not steal), while the
/// program's own cost does not; the fast end of many short samples of
/// the same work reads the program's cost with the least of that drift
/// in it.
pub const FAST: f64 = 0.1;

/// Nearest-rank `q`-quantile of a non-empty list of samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fast decile of repeated timings (lower is faster).
pub fn fastest_time(values: &[f64]) -> f64 {
    quantile(values, FAST)
}

/// The fast decile of repeated rates (higher is faster).
pub fn fastest_rate(values: &[f64]) -> f64 {
    quantile(values, 1.0 - FAST)
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn fast_decile_of_times_and_rates() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fastest_time(&v), 2.0);
        assert_eq!(fastest_rate(&v), 18.0);
        // Under ten samples the fast decile is the extreme one.
        assert_eq!(fastest_time(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest_rate(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
    }
}
