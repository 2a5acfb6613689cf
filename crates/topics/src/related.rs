//! Related-keyword discovery.
//!
//! The OCTOPUS UI suggests keywords as the user types (Scenario 2 shows a
//! pool of suggestions per researcher). Beyond per-user pools, the natural
//! model-level notion is *topical relatedness*: two keywords are related
//! when their topic posteriors `p(z|w)` point the same way. This module
//! ranks neighbors by posterior cosine, weighted by salience (`p(w|z)` mass)
//! so that rare-but-on-topic words do not dominate.

use crate::model::TopicModel;
use crate::vocab::KeywordId;
use crate::Result;

/// One related keyword with its relatedness score.
#[derive(Debug, Clone, PartialEq)]
pub struct Related {
    /// The related keyword.
    pub keyword: KeywordId,
    /// Cosine of the topic posteriors, damped by salience (`∈ [0, 1]`).
    pub score: f64,
}

/// The `k` keywords most related to `w` (excluding `w` itself).
///
/// `score(w') = cos(p(z|w), p(z|w')) · salience(w')` where salience is
/// `p(w'|ẑ)` normalized by the topic's top keyword — so generic low-mass
/// words rank below the topic's signature terms.
pub fn related_keywords(model: &TopicModel, w: KeywordId, k: usize) -> Result<Vec<Related>> {
    let anchor = model.keyword_topics(w)?;
    let zstar = anchor.dominant_topic();
    let top_mass = model
        .top_keywords(zstar, 1)
        .first()
        .map(|&(_, p)| p)
        .unwrap_or(1.0)
        .max(1e-12);
    let mut out: Vec<Related> = Vec::new();
    for (cand, _) in model.vocab().iter() {
        if cand == w {
            continue;
        }
        let post = model.keyword_topics(cand)?;
        let cos = anchor.cosine(&post);
        let salience = (model.p_word_given_topic(cand, zstar) / top_mass).min(1.0);
        out.push(Related {
            keyword: cand,
            score: cos * salience,
        });
    }
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then(a.keyword.cmp(&b.keyword))
    });
    out.truncate(k);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocabulary;

    fn model() -> TopicModel {
        let mut v = Vocabulary::new();
        v.intern("sql"); // w0: db signature
        v.intern("btree"); // w1: db
        v.intern("join"); // w2: db, lower mass
        v.intern("neuron"); // w3: ml
        v.intern("tensor"); // w4: ml
        TopicModel::from_rows(
            v,
            vec![vec![0.5, 0.3, 0.2, 0.0, 0.0], vec![0.0, 0.0, 0.0, 0.6, 0.4]],
            vec![0.5, 0.5],
        )
        .unwrap()
    }

    fn word(m: &TopicModel, id: KeywordId) -> String {
        m.vocab().word(id).unwrap().to_string()
    }

    #[test]
    fn related_stays_in_topic() {
        let m = model();
        let sql = m.vocab().get("sql").unwrap();
        let rel = related_keywords(&m, sql, 2).unwrap();
        let names: Vec<String> = rel.iter().map(|r| word(&m, r.keyword)).collect();
        assert_eq!(names, vec!["btree", "join"], "db words relate to db words");
        assert!(
            rel[0].score > rel[1].score,
            "higher-mass neighbor ranks first"
        );
    }

    #[test]
    fn cross_topic_words_score_near_zero() {
        let m = model();
        let sql = m.vocab().get("sql").unwrap();
        let rel = related_keywords(&m, sql, 10).unwrap();
        let neuron_score = rel
            .iter()
            .find(|r| word(&m, r.keyword) == "neuron")
            .map(|r| r.score)
            .unwrap();
        assert!(
            neuron_score < 1e-6,
            "orthogonal topics ⇒ ~0 score, got {neuron_score}"
        );
    }

    #[test]
    fn unknown_keyword_errors() {
        let m = model();
        assert!(related_keywords(&m, KeywordId(99), 3).is_err());
    }

    #[test]
    fn k_zero_is_empty() {
        let m = model();
        let sql = m.vocab().get("sql").unwrap();
        assert!(related_keywords(&m, sql, 0).unwrap().is_empty());
    }
}
