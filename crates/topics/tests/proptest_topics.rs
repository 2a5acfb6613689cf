//! Property tests for the topic layer: simplex invariants, Bayes-rule laws,
//! and consistency-score bounds.

use octopus_topics::{consistency, dist::TopicDistribution, KeywordId, TopicModel, Vocabulary};
use proptest::prelude::*;

/// Strategy: a random topic model with V words and Z topics.
fn arb_model() -> impl Strategy<Value = TopicModel> {
    (2usize..6, 2usize..8).prop_flat_map(|(z, v)| {
        let rows = proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, v), z);
        let prior = proptest::collection::vec(0.01f64..1.0, z);
        (rows, prior).prop_map(move |(rows, prior)| {
            let mut vocab = Vocabulary::new();
            for i in 0..v {
                vocab.intern(&format!("word{i}"));
            }
            TopicModel::from_rows(vocab, rows, prior).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inference always yields a valid simplex point.
    #[test]
    fn inference_on_simplex(model in arb_model(), picks in proptest::collection::vec(0usize..6, 1..4)) {
        let ws: Vec<KeywordId> = picks
            .iter()
            .map(|&i| KeywordId((i % model.vocab_size()) as u32))
            .collect();
        let gamma = model.infer(&ws).unwrap();
        let s: f64 = gamma.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(gamma.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Single-keyword inference is exactly `p(z|w) ∝ p(w|z)p(z)`.
    #[test]
    fn single_keyword_bayes_rule(model in arb_model(), wi in 0usize..6) {
        let w = KeywordId((wi % model.vocab_size()) as u32);
        let gamma = model.infer(&[w]).unwrap();
        let z_count = model.num_topics();
        let mut expect: Vec<f64> =
            (0..z_count).map(|z| model.p_word_given_topic(w, z) * model.topic_prior(z)).collect();
        let s: f64 = expect.iter().sum();
        for e in expect.iter_mut() { *e /= s; }
        for z in 0..z_count {
            prop_assert!((gamma[z] - expect[z]).abs() < 1e-6,
                "z={z}: got {}, expected {}", gamma[z], expect[z]);
        }
    }

    /// Repeating a keyword monotonically shifts posterior mass toward the
    /// topic(s) maximizing `p(w|z)` (entropy itself is *not* monotone when
    /// the prior disagrees with the likelihood, so we assert the correct
    /// law: mass on the argmax topic never decreases with repetitions).
    #[test]
    fn repetition_concentrates_on_likelihood_argmax(
        model in arb_model(), wi in 0usize..6, k in 1usize..4,
    ) {
        let w = KeywordId((wi % model.vocab_size()) as u32);
        let zstar = (0..model.num_topics())
            .max_by(|&a, &b| {
                model.p_word_given_topic(w, a)
                    .partial_cmp(&model.p_word_given_topic(w, b))
                    .unwrap()
            })
            .unwrap();
        let once = model.infer(&vec![w; k]).unwrap();
        let more = model.infer(&vec![w; k + 1]).unwrap();
        prop_assert!(more[zstar] >= once[zstar] - 1e-9);
    }

    /// Consistency scores stay in [0, 1].
    #[test]
    fn consistency_bounds(model in arb_model(), picks in proptest::collection::vec(0usize..6, 1..5)) {
        let ws: Vec<KeywordId> = picks
            .iter()
            .map(|&i| KeywordId((i % model.vocab_size()) as u32))
            .collect();
        let pc = consistency::posterior_consistency(&model, &ws).unwrap();
        let pw = consistency::pairwise_consistency(&model, &ws).unwrap();
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&pc), "posterior {pc}");
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&pw), "pairwise {pw}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// TopicDistribution::from_weights always normalizes; mix stays on the
    /// simplex; l1/cosine satisfy metric-ish sanity bounds.
    #[test]
    fn distribution_ops(
        w1 in proptest::collection::vec(0.001f64..10.0, 2..8),
        a in 0.0f64..=1.0,
    ) {
        let z = w1.len();
        let d1 = TopicDistribution::from_weights(w1).unwrap();
        let d2 = TopicDistribution::uniform(z);
        let m = d1.mix(&d2, a);
        let s: f64 = m.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        let l1 = d1.l1_distance(&d2);
        prop_assert!((0.0..=2.0 + 1e-9).contains(&l1));
        let cos = d1.cosine(&d2);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&cos));
        prop_assert!(d1.entropy() <= (z as f64).ln() + 1e-9);
        // mixing toward d2 never increases l1 distance to d2
        prop_assert!(m.l1_distance(&d2) <= l1 + 1e-9);
    }
}
