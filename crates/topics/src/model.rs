//! The word–topic model: `p(w|z)` distributions, topic priors, and the
//! Bayesian keyword→topic inference of OCTOPUS §II-B.

use crate::dist::TopicDistribution;
use crate::error::TopicError;
use crate::vocab::{KeywordId, Vocabulary};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Probability floor used when a keyword has zero mass under a topic, so a
/// single out-of-topic keyword cannot annihilate a whole topic's posterior.
/// This mirrors the Laplace smoothing applied during EM learning.
const SMOOTHING_FLOOR: f64 = 1e-9;

/// A learned topic model: keyword distributions `p(w|z)` per topic plus topic
/// priors `p(z)`.
///
/// Given a keyword set `W`, [`TopicModel::infer`] computes the topic
/// distribution captured by `W` using the Bayes rule
///
/// ```text
/// γ_z(W)  ∝  p(z) · Π_{w ∈ W} p(w|z)
/// ```
///
/// (the "Bayesian formula (see \[6\])" of §II-B), evaluated in log-space for
/// numerical stability. The resulting `γ` feeds the topic-aware IC model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicModel {
    vocab: Vocabulary,
    num_topics: usize,
    /// Row-major `p(w|z)`: entry for topic `z`, word `w` is `pwz[z * V + w]`.
    pwz: Vec<f64>,
    /// Topic priors `p(z)`.
    prior: Vec<f64>,
    /// Optional human-readable topic labels (for the radar diagram axes).
    labels: Vec<String>,
}

impl TopicModel {
    /// Build from per-topic keyword-probability rows.
    ///
    /// `rows[z][w]` is (proportional to) `p(w|z)`; rows are normalized here.
    /// `prior` is normalized too, so counts may be passed directly.
    pub fn from_rows(vocab: Vocabulary, rows: Vec<Vec<f64>>, prior: Vec<f64>) -> Result<Self> {
        let z = rows.len();
        if z == 0 {
            return Err(TopicError::ShapeMismatch {
                what: "p(w|z) rows",
                expected: 1,
                got: 0,
            });
        }
        if prior.len() != z {
            return Err(TopicError::ShapeMismatch {
                what: "p(z) prior",
                expected: z,
                got: prior.len(),
            });
        }
        let v = vocab.len();
        let mut pwz = Vec::with_capacity(z * v);
        for row in &rows {
            if row.len() != v {
                return Err(TopicError::ShapeMismatch {
                    what: "p(w|z) row width",
                    expected: v,
                    got: row.len(),
                });
            }
            let mut sum = 0.0;
            for &p in row {
                if !p.is_finite() || p < 0.0 {
                    return Err(TopicError::NotADistribution {
                        reason: format!("p(w|z) entry {p} is negative or non-finite"),
                    });
                }
                sum += p;
            }
            if sum <= 0.0 {
                return Err(TopicError::NotADistribution {
                    reason: "a p(w|z) row is all zeros".into(),
                });
            }
            for &p in row {
                pwz.push(p / sum);
            }
        }
        let prior = TopicDistribution::from_weights(prior)?.into_vec();
        Ok(TopicModel {
            vocab,
            num_topics: z,
            pwz,
            prior,
            labels: Vec::new(),
        })
    }

    /// Attach human-readable topic labels (radar axes). Length must be `Z`.
    pub fn with_labels(mut self, labels: Vec<String>) -> Result<Self> {
        if labels.len() != self.num_topics {
            return Err(TopicError::ShapeMismatch {
                what: "topic labels",
                expected: self.num_topics,
                got: labels.len(),
            });
        }
        self.labels = labels;
        Ok(self)
    }

    /// Number of topics `Z`.
    #[inline]
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// The vocabulary this model is defined over.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Topic label, or a generated `"topic-z"` fallback.
    pub fn label(&self, z: usize) -> String {
        self.labels
            .get(z)
            .cloned()
            .unwrap_or_else(|| format!("topic-{z}"))
    }

    /// `p(w|z)`.
    #[inline]
    pub fn p_word_given_topic(&self, w: KeywordId, z: usize) -> f64 {
        self.pwz[z * self.vocab.len() + w.index()]
    }

    /// Topic prior `p(z)`.
    #[inline]
    pub fn topic_prior(&self, z: usize) -> f64 {
        self.prior[z]
    }

    /// Bayesian inference of the topic distribution captured by keyword set
    /// `W` (order-insensitive): `γ_z ∝ p(z)·Π_{w∈W} p(w|z)`.
    ///
    /// Zero `p(w|z)` entries are floored at a tiny smoothing constant so an
    /// out-of-vocabulary-for-topic word dampens rather than annihilates a
    /// topic.
    pub fn infer(&self, keywords: &[KeywordId]) -> Result<TopicDistribution> {
        if keywords.is_empty() {
            return Err(TopicError::EmptyKeywordSet);
        }
        for &w in keywords {
            if w.index() >= self.vocab.len() {
                return Err(TopicError::UnknownKeyword(w.0));
            }
        }
        let mut log_post = vec![0.0f64; self.num_topics];
        for (z, lp) in log_post.iter_mut().enumerate() {
            *lp = self.prior[z].max(SMOOTHING_FLOOR).ln();
            for &w in keywords {
                *lp += self.p_word_given_topic(w, z).max(SMOOTHING_FLOOR).ln();
            }
        }
        // Softmax in log-space.
        let max = log_post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = log_post.iter().map(|&lp| (lp - max).exp()).collect();
        TopicDistribution::from_weights(weights)
    }

    /// Convenience: infer from a whitespace-separated keyword string.
    /// Unknown words are ignored; errors if none resolve.
    pub fn infer_str(&self, query: &str) -> Result<TopicDistribution> {
        let (ids, _unknown) = self.vocab.resolve_query(query);
        self.infer(&ids)
    }

    /// Posterior topic distribution of a single keyword, `p(z|w) ∝
    /// p(w|z)p(z)` — the radar-diagram vector of Scenario 2.
    pub fn keyword_topics(&self, w: KeywordId) -> Result<TopicDistribution> {
        self.infer(&[w])
    }

    /// The `n` highest-probability keywords of topic `z`.
    pub fn top_keywords(&self, z: usize, n: usize) -> Vec<(KeywordId, f64)> {
        let v = self.vocab.len();
        let row = &self.pwz[z * v..(z + 1) * v];
        let mut idx: Vec<(KeywordId, f64)> = row
            .iter()
            .enumerate()
            .map(|(w, &p)| (KeywordId(w as u32), p))
            .collect();
        idx.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        idx.truncate(n);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> TopicModel {
        let mut v = Vocabulary::new();
        v.intern("database"); // w0
        v.intern("index"); // w1
        v.intern("neural"); // w2
        v.intern("learning"); // w3
        v.intern("generic"); // w4 (shared)
        TopicModel::from_rows(
            v,
            vec![
                vec![0.4, 0.35, 0.0, 0.05, 0.2], // topic 0: databases
                vec![0.0, 0.05, 0.4, 0.35, 0.2], // topic 1: ML
            ],
            vec![0.5, 0.5],
        )
        .unwrap()
    }

    #[test]
    fn shape_validation() {
        let mut v = Vocabulary::new();
        v.intern("a");
        assert!(TopicModel::from_rows(v.clone(), vec![], vec![]).is_err());
        assert!(TopicModel::from_rows(v.clone(), vec![vec![1.0, 2.0]], vec![1.0]).is_err());
        assert!(TopicModel::from_rows(v.clone(), vec![vec![1.0]], vec![1.0, 2.0]).is_err());
        assert!(TopicModel::from_rows(v.clone(), vec![vec![0.0]], vec![1.0]).is_err());
        assert!(TopicModel::from_rows(v, vec![vec![2.0]], vec![1.0]).is_ok()); // normalized
    }

    #[test]
    fn rows_are_normalized() {
        let m = small_model();
        for z in 0..2 {
            let sum: f64 = (0..5).map(|w| m.p_word_given_topic(KeywordId(w), z)).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inference_matches_hand_computation() {
        let m = small_model();
        let db = m.vocab().get("database").unwrap();
        let gamma = m.infer(&[db]).unwrap();
        // p(z0|db) = 0.5*0.4 / (0.5*0.4 + 0.5*~0) ≈ 1
        assert!(gamma[0] > 0.99);

        let generic = m.vocab().get("generic").unwrap();
        let gamma = m.infer(&[generic]).unwrap();
        assert!((gamma[0] - 0.5).abs() < 1e-9, "shared word splits evenly");
    }

    #[test]
    fn multi_keyword_inference_sharpens() {
        let m = small_model();
        let idx = m.vocab().get("index").unwrap();
        let db = m.vocab().get("database").unwrap();
        let single = m.infer(&[idx]).unwrap();
        let double = m.infer(&[idx, db]).unwrap();
        assert!(double[0] > single[0], "two db words sharper than one");
        assert!(double.entropy() < single.entropy());
    }

    #[test]
    fn inference_is_order_insensitive() {
        let m = small_model();
        let a = m.vocab().get("index").unwrap();
        let b = m.vocab().get("learning").unwrap();
        let g1 = m.infer(&[a, b]).unwrap();
        let g2 = m.infer(&[b, a]).unwrap();
        for z in 0..2 {
            assert!((g1[z] - g2[z]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_prob_word_dampens_but_not_annihilates() {
        let m = small_model();
        let neural = m.vocab().get("neural").unwrap();
        let db = m.vocab().get("database").unwrap();
        // "neural" has p=0 under topic 0, "database" p=0 under topic 1:
        // smoothing keeps the posterior finite.
        let gamma = m.infer(&[neural, db]).unwrap();
        assert!(gamma[0].is_finite() && gamma[1].is_finite());
        let s: f64 = gamma.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_unknown_keywords_error() {
        let m = small_model();
        assert!(matches!(m.infer(&[]), Err(TopicError::EmptyKeywordSet)));
        assert!(matches!(
            m.infer(&[KeywordId(99)]),
            Err(TopicError::UnknownKeyword(99))
        ));
    }

    #[test]
    fn infer_str_ignores_unknown_words() {
        let m = small_model();
        let g = m.infer_str("database qwerty").unwrap();
        assert!(g[0] > 0.99);
        assert!(m.infer_str("qwerty asdf").is_err());
    }

    #[test]
    fn top_keywords_ranked() {
        let m = small_model();
        let top = m.top_keywords(0, 2);
        assert_eq!(m.vocab().word(top[0].0).unwrap(), "database");
        assert_eq!(m.vocab().word(top[1].0).unwrap(), "index");
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn labels() {
        let m = small_model()
            .with_labels(vec!["DB".into(), "ML".into()])
            .unwrap();
        assert_eq!(m.label(0), "DB");
        assert_eq!(m.label(5), "topic-5");
        assert!(small_model().with_labels(vec!["x".into()]).is_err());
    }

    #[test]
    fn skewed_prior_shifts_posterior() {
        let mut v = Vocabulary::new();
        v.intern("shared");
        let m = TopicModel::from_rows(v, vec![vec![1.0], vec![1.0]], vec![0.9, 0.1]).unwrap();
        let g = m.infer(&[KeywordId(0)]).unwrap();
        assert!((g[0] - 0.9).abs() < 1e-9);
    }
}
