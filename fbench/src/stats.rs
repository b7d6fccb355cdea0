//! Order statistics and the seeded generator behind every workload input.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Splits `(time_ns, value)` samples into consecutive windows of
/// `window_ns` from time 0, takes the `q`-quantile of each full window, and
/// returns the median of those quantiles with the number of windows. A
/// stall that hits one or two windows moves the result far less than it
/// moves the quantile of the pooled samples. A trailing window with less
/// than half the samples of a typical window is dropped.
pub fn windowed_quantile(samples: &[(u64, f64)], window_ns: u64, q: f64) -> (f64, usize) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(time, value) in samples {
        let index = (time / window_ns) as usize;
        if windows.len() <= index {
            windows.resize(index + 1, Vec::new());
        }
        windows[index].push(value);
    }
    let typical = median(&windows.iter().map(|w| w.len() as f64).collect::<Vec<_>>());
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty() && w.len() as f64 >= typical / 2.0)
        .map(|w| quantile(w, q))
        .collect();
    (median(&per_window), per_window.len())
}

/// SplitMix64: a tiny, fully specified generator, so a workload seed
/// names the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_quantiles_shrug_off_one_bad_window() {
        // three windows of 1..=100, one of them hit by a stall
        let mut samples: Vec<(u64, f64)> = Vec::new();
        for window in 0..3u64 {
            for i in 0..100u64 {
                let stall = if window == 1 && i > 90 { 1000.0 } else { 0.0 };
                samples.push((window * 1000 + i, (i + 1) as f64 + stall));
            }
        }
        samples.push((3000, 5.0)); // a stub window, dropped
        let (p99, windows) = windowed_quantile(&samples, 1000, 0.99);
        assert_eq!(windows, 3);
        assert!((p99 - quantile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 0.99)).abs() < 1e-9);
    }

    #[test]
    fn generator_is_reproducible() {
        let a: Vec<u64> = {
            let mut rng = SplitMix64::new(5);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let mut rng = SplitMix64::new(5);
        assert!(a.iter().all(|&v| v == rng.next_u64()));
        assert!((0..100).all(|_| rng.next_f64() < 1.0));
    }
}
