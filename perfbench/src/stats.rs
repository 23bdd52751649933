//! Order statistics over host-time samples, and the seed mixer.

use std::collections::BinaryHeap;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by nearest rank; 0 when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The nearest-rank `q`-quantile of a stream of integer samples, as
/// [`quantile`] gives it, in fixed memory: only the `keep` smallest are
/// kept, which hold the quantile exactly while `ceil(q * count) <= keep`.
/// A run's memory then does not grow with how many samples the host's
/// speed allowed, which `peak_rss_mb` would show.
#[derive(Debug, Clone)]
pub struct LowQuantile {
    q: f64,
    keep: usize,
    count: usize,
    smallest: BinaryHeap<u64>,
}

impl LowQuantile {
    /// An empty stream whose `q`-quantile is kept exactly for up to
    /// `keep / q` samples.
    pub fn new(q: f64, keep: usize) -> Self {
        LowQuantile {
            q,
            keep,
            count: 0,
            smallest: BinaryHeap::with_capacity(keep + 1),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.smallest.push(v);
        if self.smallest.len() > self.keep {
            self.smallest.pop();
        }
    }

    /// Samples pushed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The quantile; 0 when there are no samples.  Past `keep / q` samples
    /// it reads the `keep`-th smallest, below the true quantile.
    pub fn value(&self) -> u64 {
        let sorted = self.smallest.clone().into_sorted_vec();
        let rank = (self.q * self.count as f64).ceil() as usize;
        sorted
            .get(rank.clamp(1, sorted.len().max(1)) - 1)
            .copied()
            .unwrap_or(0)
    }
}

/// The median of `samples` (lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0 (a layer absent from the workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// splitmix64: one well-mixed 64-bit value per input, for deriving a
/// workload's free inputs from its seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn low_quantile_matches_quantile_while_it_keeps_enough() {
        let samples: Vec<u64> = (0..5000u64).map(|i| mix(i) % 100_000).collect();
        let mut low = LowQuantile::new(0.01, 64);
        for (n, &v) in samples.iter().enumerate() {
            low.push(v);
            let seen: Vec<f64> = samples[..=n].iter().map(|&v| v as f64).collect();
            if n % 97 == 0 || n + 1 == samples.len() {
                assert_eq!(low.value() as f64, quantile(&seen, 0.01), "after {}", n + 1);
            }
        }
        assert_eq!(low.count(), 5000);
        assert_eq!(LowQuantile::new(0.01, 8).value(), 0);
    }
}
