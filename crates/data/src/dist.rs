//! Probability distributions implemented from scratch on top of `rand`.
//!
//! The approved dependency set excludes `rand_distr`, so the samplers the
//! generators need — normal, gamma, Dirichlet, Zipf, and weighted
//! categorical — live here, each with statistical tests pinning their
//! moments.

use rand::Rng;

/// Standard normal via Box–Muller (the polar-free form; two uniforms → one
/// normal, the second is discarded for simplicity).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0,1] to avoid ln(0)
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gamma(shape, scale=1) via Marsaglia–Tsang squeeze (2000), with the
/// standard boosting trick for `shape < 1`.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(
        shape > 0.0 && shape.is_finite(),
        "gamma shape must be positive"
    );
    if shape < 1.0 {
        // boost: G(a) = G(a+1) · U^{1/a}
        let g = gamma(rng, shape + 1.0);
        let u: f64 = 1.0 - rng.random::<f64>(); // (0,1]
        return g * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = 1.0 - rng.random::<f64>();
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// A Dirichlet(α) draw: a random point on the simplex. Symmetric when
/// `alpha` has equal entries; `alpha < 1` concentrates mass on few
/// coordinates (the topic-sparsity regime real networks exhibit).
pub fn dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: &[f64]) -> Vec<f64> {
    assert!(
        !alpha.is_empty(),
        "dirichlet needs at least one concentration"
    );
    let mut draws: Vec<f64> = alpha.iter().map(|&a| gamma(rng, a)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // pathological underflow (all-tiny alphas): fall back to a corner
        let i = rng.random_range(0..alpha.len());
        draws.iter_mut().for_each(|d| *d = 0.0);
        draws[i] = 1.0;
        return draws;
    }
    draws.iter_mut().for_each(|d| *d /= sum);
    draws
}

/// Zipf probability table over ranks `1..=n` with exponent `s`:
/// `p(r) ∝ r^{-s}`. Returned normalized, rank 0 being the most likely.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf needs at least one rank");
    let mut w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let sum: f64 = w.iter().sum();
    w.iter_mut().for_each(|x| *x /= sum);
    w
}

/// Weighted categorical sampler using the cumulative-distribution table
/// (binary search per draw: `O(log n)`).
#[derive(Debug, Clone)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Build from non-negative weights (need not be normalized).
    ///
    /// # Panics
    /// Panics when the weights are empty, contain negatives/NaN, or all sum
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "categorical needs at least one weight");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weights must be non-negative and finite"
            );
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // force the last entry to exactly 1 so sampling can't fall off the end
        *cdf.last_mut().expect("non-empty") = 1.0;
        Categorical { cdf }
    }

    /// Draw a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random::<f64>();
        // first index with cdf[i] > u
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in cdf"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i,
        }
    }

    /// Draw `k` *distinct* categories (rejection; `k` must not exceed the
    /// number of categories with positive mass).
    pub fn sample_distinct<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        let mut guard = 0usize;
        while out.len() < k {
            let c = self.sample(rng);
            if !out.contains(&c) {
                out.push(c);
            }
            guard += 1;
            assert!(
                guard < 10_000 * (k + 1),
                "sample_distinct failed to find {k} distinct categories"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xDECAF)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut r = rng();
        let shape = 3.5;
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| gamma(&mut r, shape)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - shape).abs() < 0.1, "mean {mean}");
        assert!((var - shape).abs() < 0.25, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut r = rng();
        let shape = 0.3;
        let n = 80_000;
        let mean = (0..n).map(|_| gamma(&mut r, shape)).sum::<f64>() / n as f64;
        assert!((mean - shape).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_rejects_nonpositive_shape() {
        let _ = gamma(&mut rng(), 0.0);
    }

    #[test]
    fn dirichlet_is_simplex_and_mean_matches() {
        let mut r = rng();
        let alpha = [2.0, 1.0, 1.0];
        let n = 20_000;
        let mut mean = [0.0f64; 3];
        for _ in 0..n {
            let d = dirichlet(&mut r, &alpha);
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            for (m, x) in mean.iter_mut().zip(&d) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        // E[x_i] = α_i / Σα = [0.5, 0.25, 0.25]
        assert!((mean[0] - 0.5).abs() < 0.01, "{mean:?}");
        assert!((mean[1] - 0.25).abs() < 0.01, "{mean:?}");
    }

    #[test]
    fn sparse_dirichlet_concentrates() {
        let mut r = rng();
        // alpha << 1 → most draws have a dominant coordinate
        let mut dominated = 0;
        let n = 2000;
        for _ in 0..n {
            let d = dirichlet(&mut r, &[0.1; 5]);
            if d.iter().any(|&x| x > 0.8) {
                dominated += 1;
            }
        }
        assert!(
            dominated as f64 / n as f64 > 0.5,
            "only {dominated}/{n} concentrated"
        );
    }

    #[test]
    fn zipf_is_normalized_and_decreasing() {
        let w = zipf_weights(100, 1.1);
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(
            w[0] / w[9] > 9.0,
            "head must dominate: {} vs {}",
            w[0],
            w[9]
        );
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let mut r = rng();
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[c.sample(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn categorical_zero_weight_never_sampled() {
        let mut r = rng();
        let c = Categorical::new(&[0.0, 1.0, 0.0]);
        for _ in 0..1000 {
            assert_eq!(c.sample(&mut r), 1);
        }
    }

    #[test]
    fn categorical_distinct_sampling() {
        let mut r = rng();
        let c = Categorical::new(&[1.0, 1.0, 1.0, 1.0]);
        let picks = c.sample_distinct(&mut r, 4);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn categorical_rejects_negative() {
        let _ = Categorical::new(&[0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn categorical_rejects_all_zero() {
        let _ = Categorical::new(&[0.0, 0.0]);
    }
}
