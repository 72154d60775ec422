//! Deterministic sampling helpers built on `rand` only (no `rand_distr`
//! dependency): weighted choice, Zipf rank weights, log-uniform and
//! exponential draws.

use rand::Rng;

/// A discrete distribution over `0..n` given arbitrary non-negative
/// weights, sampled by binary search over the cumulative table.
#[derive(Debug, Clone)]
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    /// Builds from weights. At least one weight must be positive.
    ///
    /// # Panics
    /// Panics on empty or all-zero/negative weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Weighted: empty weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "Weighted: bad weight {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "Weighted: all weights zero");
        Weighted { cumulative }
    }

    /// Samples an index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        sample_cumulative(rng, &self.cumulative)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (construction requires at least one weight).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The index [`Weighted::sample`] draws from `cumulative`, the running
/// sums of the weights: one draw scaled by their total, and the first
/// index whose running sum exceeds it (the last if none does).
///
/// # Panics
/// On an empty `cumulative`.
pub(crate) fn sample_cumulative<R: Rng>(rng: &mut R, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("Weighted: empty weights");
    let x = rng.gen::<f64>() * total;
    cumulative.partition_point(|&c| c <= x).min(cumulative.len() - 1)
}

/// The pick `Weighted::new(&weights).sample(rng)` makes, where `weights`
/// are the weights of `candidates` in order, without collecting either: the
/// same running sums, one draw scaled by their total, and the first
/// candidate whose running sum exceeds it (the last if none does). So
/// the pick and the RNG stream are the same. Returns the pick and the
/// number of candidates; `None`, drawing nothing, when there are none.
///
/// # Panics
/// On the weights [`Weighted::new`] rejects: a negative or non-finite
/// weight, or an all-zero set.
pub(crate) fn pick_weighted<R: Rng>(
    rng: &mut R,
    candidates: impl Iterator<Item = (usize, f64)> + Clone,
) -> Option<(usize, usize)> {
    let (mut total, mut count) = (0.0, 0usize);
    for (_, w) in candidates.clone() {
        assert!(w >= 0.0 && w.is_finite(), "Weighted: bad weight {w}");
        total += w;
        count += 1;
    }
    if count == 0 {
        return None;
    }
    assert!(total > 0.0, "Weighted: all weights zero");
    let x = rng.gen::<f64>() * total;
    let (mut acc, mut last) = (0.0, None);
    for (c, w) in candidates {
        acc += w;
        if acc > x {
            return Some((c, count));
        }
        last = Some(c);
    }
    last.map(|c| (c, count))
}

/// Zipf rank weights: `w_i = 1 / (i+1)^s` for `i = 0..n`. The standard
/// model for "few accounts dominate" concentration (operator profits,
/// affiliate traffic — §6.2/§6.3).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Standard normal draw (Box–Muller).
pub fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal weights `exp(sigma · z_i)` — the affiliate-traffic model:
/// a long tail of tiny promoters and a few who reach thousands of
/// victims (§6.3). The scale factor is irrelevant after normalisation.
pub fn lognormal_weights<R: Rng>(rng: &mut R, n: usize, sigma: f64) -> Vec<f64> {
    (0..n).map(|_| (sigma * normal(rng)).exp()).collect()
}

/// Log-uniform draw from `[lo, hi)`: uniform in log-space, the standard
/// heavy-ish within-bucket model for monetary amounts.
pub fn log_uniform<R: Rng>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi > lo, "log_uniform: bad range [{lo}, {hi})");
    let u = rng.gen::<f64>();
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

/// Exponential draw with the given mean, via inverse CDF.
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential: non-positive mean");
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() * mean
}

/// Uniform integer timestamp in `[lo, hi]`.
pub fn uniform_time<R: Rng>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    assert!(lo <= hi, "uniform_time: inverted range");
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// Bernoulli draw.
pub fn chance<R: Rng>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn weighted_respects_weights() {
        let w = Weighted::new(&[1.0, 0.0, 3.0]);
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[w.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_single_category() {
        let w = Weighted::new(&[0.5]);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(w.sample(&mut r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn weighted_rejects_zero() {
        let _ = Weighted::new(&[0.0, 0.0]);
    }

    /// The allocation-free pick equals `Weighted`'s from the same RNG
    /// state and leaves the stream where `Weighted` leaves it, on
    /// seeded weight vectors of length 1 to 40 with zero weights mixed
    /// in.
    #[test]
    fn pick_weighted_matches_weighted_sample() {
        let mut cases = StdRng::seed_from_u64(11);
        for case in 0..10_000u64 {
            let len = if case % 10 == 0 { 1 } else { cases.gen_range(1..40) };
            let mut weights: Vec<f64> = (0..len)
                .map(|_| match cases.gen_range(0..4) {
                    0 => 0.0,
                    1 => cases.gen::<f64>(),
                    2 => log_uniform(&mut cases, 0.5, 5.0),
                    _ => cases.gen_range(1..1_000) as f64,
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                weights[cases.gen_range(0..len)] = 300.0;
            }
            let start = StdRng::seed_from_u64(case);
            let (mut expected_rng, mut rng) = (start.clone(), start);
            let expected = Weighted::new(&weights).sample(&mut expected_rng);
            let got = pick_weighted(&mut rng, weights.iter().copied().enumerate());
            assert_eq!(got, Some((expected, len)), "case {case}: {weights:?}");
            assert_eq!(rng.gen::<u64>(), expected_rng.gen::<u64>(), "case {case}: stream moved");
        }
        let (mut picked, mut untouched) = (rng(), rng());
        assert_eq!(pick_weighted(&mut picked, std::iter::empty()), None);
        assert_eq!(picked.gen::<u64>(), untouched.gen::<u64>(), "an empty pick draws nothing");
    }

    #[test]
    fn zipf_shape() {
        let w = zipf_weights(4, 1.0);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!((w[3] - 0.25).abs() < 1e-12);
        // s = 0 degenerates to uniform.
        assert!(zipf_weights(3, 0.0).iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn log_uniform_in_range_and_log_spread() {
        let mut r = rng();
        let mut below_mid = 0;
        for _ in 0..10_000 {
            let x = log_uniform(&mut r, 10.0, 1_000.0);
            assert!((10.0..1_000.0).contains(&x));
            if x < 100.0 {
                below_mid += 1;
            }
        }
        // Median of a log-uniform on [10, 1000] is 100.
        assert!((below_mid as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let mean: f64 = (0..20_000).map(|_| exponential(&mut r, 7.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 7.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_weights_positive_and_skewed() {
        let mut r = rng();
        let w = lognormal_weights(&mut r, 10_000, 1.9);
        assert!(w.iter().all(|&x| x > 0.0));
        let total: f64 = w.iter().sum();
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top1pct: f64 = sorted.iter().take(100).sum();
        // At sigma 1.9, the top 1% hold a large share.
        assert!(top1pct / total > 0.25, "top1% share {}", top1pct / total);
    }

    #[test]
    fn uniform_time_degenerate() {
        let mut r = rng();
        assert_eq!(uniform_time(&mut r, 5, 5), 5);
        for _ in 0..100 {
            let t = uniform_time(&mut r, 10, 20);
            assert!((10..=20).contains(&t));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let w = Weighted::new(&[1.0, 2.0, 3.0]);
        let seq1: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..32).map(|_| w.sample(&mut r)).collect()
        };
        let seq2: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..32).map(|_| w.sample(&mut r)).collect()
        };
        assert_eq!(seq1, seq2);
    }
}
