//! Order statistics for latency samples.

/// Nearest-rank percentile of `samples` (any order): the smallest value
/// that at least `q` of the samples do not exceed. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(rank(sorted.len(), q)?.saturating_sub(1))
        .copied()
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

/// How many samples lie strictly above the nearest-rank `q` percentile's
/// position: the tail a reported percentile rests on.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// Median (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// A latency distribution as reported: median, p99, and the sample count
/// behind both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            p50: percentile(samples, 0.5)?,
            p99: percentile(samples, 0.99)?,
            n: samples.len(),
        })
    }

    /// True when the p99 has at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        samples_beyond(self.n, 0.99) >= 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond() {
        // Samples 1..=1000 shuffled by a fixed stride: order must not matter.
        let samples: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000 + 1) as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples.iter().filter(|&&v| v > s.p99).count(), 10);
        assert!(s.p99_supported());
    }

    #[test]
    fn too_few_samples_do_not_support_a_p99() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!s.p99_supported());
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 1.0), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }
}
