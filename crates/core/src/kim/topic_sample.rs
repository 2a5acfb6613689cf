//! The topic-sample algorithm (§II-C): "pre-computes seed sets for some
//! offline-sampled topic distributions. Then, we use the samples to better
//! estimate upper and lower bounds for pruning instead of directly answering
//! the query."
//!
//! Offline, the engine materializes seed sets for the `Z` simplex corners
//! plus `extra` Dirichlet-sampled distributions. Online, the nearest sample
//! under L1 distance either answers the query directly (distance `≤
//! direct_eps` — spread is Lipschitz in `γ`, so a close sample's seeds are
//! near-optimal) or warm-starts the best-effort engine: the sample's seeds
//! are exactly evaluated first, which plants a strong lower bound in the
//! CELF queue and lets the upper bounds prune far more aggressively than a
//! cold start.

use super::{KimResult, KimStats};
use octopus_graph::NodeId;
use octopus_topics::TopicDistribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One precomputed sample: a topic distribution and its seed set.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicSample {
    /// The sampled distribution.
    pub gamma: TopicDistribution,
    /// Seeds precomputed for it (length = offline `k_max`).
    pub seeds: Vec<NodeId>,
    /// The engine's spread estimate of the full seed set.
    pub spread: f64,
}

/// The sampled distributions: the `Z` simplex corners, then `extra`
/// Dirichlet(`alpha`) draws (sparse draws, `alpha < 1`, mirror real query
/// distributions, which concentrate on a few topics).
pub(crate) fn sample_gammas(
    num_topics: usize,
    extra: usize,
    alpha: f64,
    seed: u64,
) -> Vec<TopicDistribution> {
    let mut gammas: Vec<TopicDistribution> = (0..num_topics)
        .map(|z| TopicDistribution::pure(num_topics, z))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..extra {
        let draws: Vec<f64> = (0..num_topics)
            .map(|_| {
                let u: f64 = 1.0 - rng.random::<f64>();
                u.powf(1.0 / alpha)
            })
            .collect();
        if let Ok(g) = TopicDistribution::from_weights(draws) {
            gammas.push(g);
        }
    }
    gammas
}

/// Index and L1 distance of the sample nearest to `gamma` (`None` for an
/// empty slice); the engine borrows the offline samples.
pub(crate) fn nearest_sample(
    samples: &[TopicSample],
    gamma: &TopicDistribution,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in samples.iter().enumerate() {
        let d = s.gamma.l1_distance(gamma);
        if best.map(|(_, bd)| d < bd).unwrap_or(true) {
            best = Some((i, d));
        }
    }
    best
}

/// The direct-answer rule: if the nearest sample (`idx`) is within
/// `direct_eps` and holds at least `k` seeds, answer from it — `k`-prefix
/// seeds, full-sample spread, `answered_from_sample` set.
pub(crate) fn direct_answer(
    samples: &[TopicSample],
    idx: usize,
    dist: f64,
    direct_eps: f64,
    k: usize,
) -> Option<KimResult> {
    let sample = &samples[idx];
    (dist <= direct_eps && sample.seeds.len() >= k).then(|| KimResult {
        seeds: sample.seeds[..k].to_vec(),
        spread: sample.spread,
        stats: KimStats {
            answered_from_sample: true,
            ..KimStats::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KimEngineChoice, Octopus, OctopusConfig};
    use crate::kim::testutil::two_topic_hubs;
    use crate::kim::BoundKind;
    use octopus_topics::{TopicModel, Vocabulary};

    /// The engine's topic-sample path over the two-hub fixture: `extra`
    /// Dirichlet samples beyond the corners, direct radius `eps`, no query
    /// cache (every query reaches the samples).
    fn engine(extra: usize, eps: f64) -> Octopus {
        let mut vocab = Vocabulary::new();
        vocab.intern("databases");
        vocab.intern("learning");
        let rows = vec![vec![0.9, 0.1], vec![0.1, 0.9]];
        let model = TopicModel::from_rows(vocab, rows, vec![0.5, 0.5]).unwrap();
        let config = OctopusConfig {
            kim: KimEngineChoice::TopicSample {
                bound: BoundKind::Neighborhood,
                extra_samples: extra,
                direct_eps: eps,
            },
            k_max: 3,
            mis_rr_per_topic: 64,
            piks_index_size: 16,
            cache_capacity: 0,
            ..Default::default()
        };
        Octopus::new(two_topic_hubs(), model, config).unwrap()
    }

    #[test]
    fn corner_queries_answered_directly() {
        let ts = engine(0, 0.05);
        let res = ts
            .find_influencers_gamma(&TopicDistribution::pure(2, 0), 1)
            .unwrap();
        assert!(res.stats.answered_from_sample);
        assert_eq!(res.seeds, vec![NodeId(0)]);
        assert_eq!(res.stats.exact_evaluations, 0, "no online work at all");
    }

    #[test]
    fn near_corner_queries_reuse_samples() {
        let ts = engine(0, 0.1);
        let near = TopicDistribution::new(vec![0.96, 0.04]).unwrap();
        let res = ts.find_influencers_gamma(&near, 1).unwrap();
        assert!(
            res.stats.answered_from_sample,
            "L1 distance 0.08 < 0.1 ⇒ direct"
        );
        assert_eq!(res.seeds, vec![NodeId(0)]);
    }

    #[test]
    fn far_queries_fall_back_to_warm_started_exact() {
        let ts = engine(0, 0.05);
        let mid = TopicDistribution::uniform(2);
        let res = ts.find_influencers_gamma(&mid, 2).unwrap();
        assert!(!res.stats.answered_from_sample);
        let mut s = res.seeds.clone();
        s.sort();
        assert_eq!(s, vec![NodeId(0), NodeId(1)]);
        assert!(res.stats.exact_evaluations > 0);
    }

    #[test]
    fn more_samples_cover_more_queries_directly() {
        let few = engine(0, 0.15);
        let many = engine(64, 0.15);
        let queries: Vec<TopicDistribution> = (0..=10)
            .map(|i| TopicDistribution::new(vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0]).unwrap())
            .collect();
        let direct = |ts: &Octopus| {
            queries
                .iter()
                .filter(|q| {
                    let res = ts.find_influencers_gamma(q, 1).unwrap();
                    res.stats.answered_from_sample
                })
                .count()
        };
        assert!(
            direct(&many) > direct(&few),
            "denser samples must hit more often"
        );
    }

    #[test]
    fn nearest_sample_distance_is_zero_on_corners() {
        let samples: Vec<TopicSample> = sample_gammas(2, 4, 0.3, 99)
            .into_iter()
            .map(|gamma| TopicSample {
                gamma,
                seeds: Vec::new(),
                spread: 0.0,
            })
            .collect();
        let (_, d) = nearest_sample(&samples, &TopicDistribution::pure(2, 1)).unwrap();
        assert!(d < 1e-12);
        assert_eq!(nearest_sample(&[], &TopicDistribution::pure(2, 1)), None);
    }
}
