//! Validated topic distributions (`γ` vectors on the `Z`-simplex).

use crate::error::TopicError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::ops::{Deref, Index};

/// A point on the probability simplex over `Z` topics — the paper's item
/// distribution `γ = {γ₁ … γ_Z}` (§II-B).
///
/// Invariants enforced at construction: every entry is finite and
/// non-negative, and entries sum to 1 within `1e-6` (after which the vector
/// is renormalized exactly). `TopicDistribution` derefs to `[f64]` so it can
/// be passed straight to [`octopus_graph::TopicGraph::edge_prob`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicDistribution(Vec<f64>);

impl TopicDistribution {
    /// Build from a vector that must already be (approximately) normalized.
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(TopicError::NotADistribution {
                reason: "empty vector".into(),
            });
        }
        let mut sum = 0.0;
        for &p in &probs {
            if !p.is_finite() || p < 0.0 {
                return Err(TopicError::NotADistribution {
                    reason: format!("entry {p} is negative or non-finite"),
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(TopicError::NotADistribution {
                reason: format!("entries sum to {sum}, expected 1"),
            });
        }
        let mut d = TopicDistribution(probs);
        d.renormalize(sum);
        Ok(d)
    }

    /// Build from arbitrary non-negative weights by normalizing them.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(TopicError::NotADistribution {
                reason: "empty vector".into(),
            });
        }
        let mut sum = 0.0;
        for &w in &weights {
            if !w.is_finite() || w < 0.0 {
                return Err(TopicError::NotADistribution {
                    reason: format!("weight {w} is negative or non-finite"),
                });
            }
            sum += w;
        }
        if sum <= 0.0 {
            return Err(TopicError::NotADistribution {
                reason: "all weights are zero".into(),
            });
        }
        let mut d = TopicDistribution(weights);
        d.renormalize(sum);
        Ok(d)
    }

    /// Build from entries that are **already exactly normalized** — the
    /// codec path. Validates like [`TopicDistribution::new`] but skips the
    /// final renormalization division, so values decoded from a binary
    /// payload reconstruct **bit-identically** (renormalizing a stored
    /// vector whose sum is 1±1ulp would drift every entry by an ulp and
    /// break artifact-cache determinism).
    pub fn from_normalized(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(TopicError::NotADistribution {
                reason: "empty vector".into(),
            });
        }
        let mut sum = 0.0;
        for &p in &probs {
            if !p.is_finite() || p < 0.0 {
                return Err(TopicError::NotADistribution {
                    reason: format!("entry {p} is negative or non-finite"),
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(TopicError::NotADistribution {
                reason: format!("entries sum to {sum}, expected 1"),
            });
        }
        Ok(TopicDistribution(probs))
    }

    fn renormalize(&mut self, sum: f64) {
        for p in &mut self.0 {
            *p /= sum;
        }
    }

    /// The uniform distribution over `z` topics.
    pub fn uniform(z: usize) -> Self {
        assert!(z > 0, "need at least one topic");
        TopicDistribution(vec![1.0 / z as f64; z])
    }

    /// The pure (corner) distribution with all mass on `topic`.
    pub fn pure(z: usize, topic: usize) -> Self {
        assert!(topic < z, "topic out of range");
        let mut v = vec![0.0; z];
        v[topic] = 1.0;
        TopicDistribution(v)
    }

    /// Number of topics.
    #[inline]
    pub fn num_topics(&self) -> usize {
        self.0.len()
    }

    /// Underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Consume into the underlying vector.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.0
    }

    /// The topic with the largest mass (ties → lowest id).
    pub fn dominant_topic(&self) -> usize {
        let mut best = 0;
        for (i, &p) in self.0.iter().enumerate() {
            if p > self.0[best] {
                best = i;
            }
        }
        best
    }

    /// Shannon entropy in nats. Zero for pure distributions; `ln Z` for the
    /// uniform one. Used as the topic-consistency measure of keyword sets.
    pub fn entropy(&self) -> f64 {
        self.0
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.ln())
            .sum()
    }

    /// L1 distance to another distribution of the same dimension.
    ///
    /// This is the metric the topic-sample KIM algorithm uses to find the
    /// nearest precomputed sample (spread is Lipschitz in `γ` under L1).
    pub fn l1_distance(&self, other: &TopicDistribution) -> f64 {
        assert_eq!(self.num_topics(), other.num_topics(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Cosine similarity to another distribution (1 for identical rays).
    pub fn cosine(&self, other: &TopicDistribution) -> f64 {
        assert_eq!(self.num_topics(), other.num_topics(), "dimension mismatch");
        let dot: f64 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        let na: f64 = self.0.iter().map(|a| a * a).sum::<f64>().sqrt();
        let nb: f64 = other.0.iter().map(|b| b * b).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Convex mixture `a·self + (1-a)·other` — stays on the simplex.
    pub fn mix(&self, other: &TopicDistribution, a: f64) -> TopicDistribution {
        assert_eq!(self.num_topics(), other.num_topics(), "dimension mismatch");
        assert!((0.0..=1.0).contains(&a), "mixing weight must be in [0,1]");
        TopicDistribution(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(x, y)| a * x + (1.0 - a) * y)
                .collect(),
        )
    }
}

impl Deref for TopicDistribution {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl Index<usize> for TopicDistribution {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl AsRef<[f64]> for TopicDistribution {
    #[inline]
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(TopicDistribution::new(vec![]).is_err());
        assert!(TopicDistribution::new(vec![0.5, 0.6]).is_err());
        assert!(TopicDistribution::new(vec![-0.1, 1.1]).is_err());
        assert!(TopicDistribution::new(vec![f64::NAN, 1.0]).is_err());
        assert!(TopicDistribution::new(vec![0.25, 0.75]).is_ok());
    }

    #[test]
    fn from_weights_normalizes() {
        let d = TopicDistribution::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        assert!(TopicDistribution::from_weights(vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn uniform_and_pure() {
        let u = TopicDistribution::uniform(4);
        assert!((u[2] - 0.25).abs() < 1e-12);
        let p = TopicDistribution::pure(3, 1);
        assert_eq!(p.as_slice(), &[0.0, 1.0, 0.0]);
        assert_eq!(p.dominant_topic(), 1);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(TopicDistribution::pure(5, 0).entropy(), 0.0);
        let u = TopicDistribution::uniform(8);
        assert!((u.entropy() - (8f64).ln()).abs() < 1e-12);
        // entropy is maximized by uniform
        let d = TopicDistribution::new(vec![0.7, 0.1, 0.1, 0.1]).unwrap();
        assert!(d.entropy() < TopicDistribution::uniform(4).entropy());
    }

    #[test]
    fn distances() {
        let a = TopicDistribution::pure(2, 0);
        let b = TopicDistribution::pure(2, 1);
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-12);
        assert!(a.cosine(&b).abs() < 1e-12);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    fn mix_stays_on_simplex() {
        let a = TopicDistribution::pure(3, 0);
        let b = TopicDistribution::uniform(3);
        let m = a.mix(&b, 0.5);
        let s: f64 = m.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((m[0] - (0.5 + 0.5 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn near_normalized_inputs_are_snapped() {
        let d = TopicDistribution::new(vec![0.5000001, 0.4999999]).unwrap();
        let s: f64 = d.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn l1_dimension_mismatch_panics() {
        let a = TopicDistribution::uniform(2);
        let b = TopicDistribution::uniform(3);
        let _ = a.l1_distance(&b);
    }
}
