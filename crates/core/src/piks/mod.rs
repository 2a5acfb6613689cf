//! Personalized influential keywords suggestion (§II-D).
//!
//! "Given a target user, suggest a `k`-sized keyword set that maximizes the
//! target user's influence." Every candidate set `W` induces a topic
//! distribution `γ(W)` (Bayes), so its value is `σ_{γ(W)}({u})` — and the
//! optimization is NP-hard (and NP-hard to approximate within any constant:
//! the keyword→distribution map destroys submodularity), hence the
//! sampling-based framework:
//!
//! * spreads are estimated on the serialized [`index::InfluencerIndex`]
//!   through a [`PiksWorldsView`] (shared-coin worlds, lazy
//!   materialization — no online sampling from scratch);
//! * [`GreedyPiks`] grows the set one keyword at a time with upper-bound
//!   pruning on candidate scans;
//! * [`ExhaustivePiks`] enumerates all `k`-subsets — the quality oracle the
//!   experiments compare against;
//! * suggested sets must be *topic-consistent*
//!   ([`octopus_topics::consistency`]), mirroring "our model can also make
//!   sure that the suggested keywords are consistent in topics".

pub mod index;

pub use index::{
    footprint_hash, recorded_shifts, InfluencerIndex, PiksReuse, PiksSession, PiksWorldView,
    PiksWorldsView,
};

use crate::error::CoreError;
use crate::Result;
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::{consistency, KeywordId, TopicDistribution, TopicModel};

/// Work counters for one suggestion query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PiksStats {
    /// Candidate keyword-set evaluations (spread estimations) performed.
    pub evaluations: usize,
    /// Candidate sets skipped by pruning or the consistency filter.
    pub skipped: usize,
    /// Worlds materialized in the index session.
    pub worlds_materialized: usize,
}

/// Result of a keyword-suggestion query.
#[derive(Debug, Clone, PartialEq)]
pub struct PiksResult {
    /// The suggested keyword set (selection order for greedy).
    pub keywords: Vec<KeywordId>,
    /// The topic distribution the set induces.
    pub gamma: TopicDistribution,
    /// Estimated influence spread of the target under that distribution.
    pub spread: f64,
    /// Posterior topic-consistency of the set (see
    /// [`octopus_topics::consistency::posterior_consistency`]).
    pub consistency: f64,
    /// Work counters.
    pub stats: PiksStats,
}

/// Configuration shared by the suggestion engines.
#[derive(Debug, Clone)]
pub struct PiksConfig {
    /// Minimum posterior consistency of a suggested set.
    pub min_posterior_consistency: f64,
    /// Minimum pairwise consistency of a suggested set.
    pub min_pairwise_consistency: f64,
}

impl Default for PiksConfig {
    fn default() -> Self {
        PiksConfig {
            min_posterior_consistency: 0.3,
            min_pairwise_consistency: 0.5,
        }
    }
}

/// Greedy keyword suggestion with single-keyword upper-bound pruning.
pub struct GreedyPiks<'a> {
    graph: &'a TopicGraph,
    model: &'a TopicModel,
    index: PiksWorldsView<'a>,
    config: PiksConfig,
}

impl<'a> GreedyPiks<'a> {
    /// Create the engine over a serialized index.
    pub fn new(
        graph: &'a TopicGraph,
        model: &'a TopicModel,
        index: PiksWorldsView<'a>,
        config: PiksConfig,
    ) -> Self {
        GreedyPiks {
            graph,
            model,
            index,
            config,
        }
    }

    /// Suggest a `k`-keyword set for `target` out of `candidates`.
    ///
    /// Greedy with pruning: candidates are scanned in descending order of
    /// their single-keyword spread (computed once in round 1); in later
    /// rounds a candidate whose single-keyword spread is far below the
    /// current round's best extension cannot win and is skipped — single
    /// scores are not a sound bound on set scores (the problem is
    /// inapproximable), so the margin `slack` keeps pruning conservative;
    /// the skip count is reported in [`PiksStats`].
    ///
    /// The anchor (first keyword) is re-tried in descending singleton order:
    /// the globally strongest singleton may admit *no* topically consistent
    /// extension (e.g. it is the lone keyword of its topic in the candidate
    /// pool), and committing to it would dead-end below `k` even though a
    /// full consistent set exists among the remaining candidates.
    pub fn suggest(
        &self,
        target: NodeId,
        candidates: &[KeywordId],
        k: usize,
    ) -> Result<PiksResult> {
        if k == 0 {
            return Err(CoreError::ZeroK);
        }
        if candidates.is_empty() {
            return Err(CoreError::NoCandidates {
                user: self
                    .graph
                    .name(target)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("{target:?}")),
            });
        }
        let mut stats = PiksStats::default();

        // Round 1: score all singletons (also the pruning order).
        let mut singles: Vec<(KeywordId, f64)> = Vec::with_capacity(candidates.len());
        for &w in candidates {
            let gamma = self.model.infer(&[w])?;
            let mut session = self.index.session(self.graph, &gamma);
            let s = session.spread_of(target);
            stats.evaluations += 1;
            stats.worlds_materialized += session.materialized_worlds();
            singles.push((w, s));
        }
        singles.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite spreads")
                .then(a.0.cmp(&b.0))
        });

        // Cap re-anchoring: `suggest` sits on the online path, and when NO
        // full-k consistent set exists every anchor dead-ends — without a
        // cap that degenerates into |candidates| full greedy passes. The
        // strongest few singletons are the only anchors worth trying.
        const MAX_ANCHOR_ATTEMPTS: usize = 8;
        let want = k.min(candidates.len());
        let mut fallback: Option<(Vec<KeywordId>, f64)> = None;
        for anchor in 0..singles.len().min(MAX_ANCHOR_ATTEMPTS) {
            let (chosen, spread) = self.grow(target, &singles, anchor, want, &mut stats)?;
            if chosen.len() == want {
                return self.finish(chosen, spread, stats);
            }
            let better = match &fallback {
                Some((c, s)) => chosen.len() > c.len() || (chosen.len() == c.len() && spread > *s),
                None => true,
            };
            if better {
                fallback = Some((chosen, spread));
            }
        }
        let (chosen, spread) = fallback.expect("non-empty candidates yield at least a singleton");
        self.finish(chosen, spread, stats)
    }

    /// One greedy run anchored on `singles[anchor]`, extended with pruning
    /// until `want` keywords are chosen or no consistent extension exists.
    fn grow(
        &self,
        target: NodeId,
        singles: &[(KeywordId, f64)],
        anchor: usize,
        want: usize,
        stats: &mut PiksStats,
    ) -> Result<(Vec<KeywordId>, f64)> {
        let mut chosen: Vec<KeywordId> = vec![singles[anchor].0];
        let mut best_spread = singles[anchor].1;
        let slack = 0.5; // conservative margin: see doc comment on `suggest`
        while chosen.len() < want {
            let mut round_best: Option<(KeywordId, f64, TopicDistribution)> = None;
            for &(w, single) in singles {
                if chosen.contains(&w) {
                    continue;
                }
                if let Some((_, best, _)) = &round_best {
                    // prune: a keyword whose singleton value is far below the
                    // current best extension rarely lifts the mixture
                    if single < best * slack {
                        stats.skipped += 1;
                        continue;
                    }
                }
                let mut with = chosen.clone();
                with.push(w);
                // consistency filter first (cheap)
                if !consistency::is_consistent(
                    self.model,
                    &with,
                    self.config.min_posterior_consistency,
                    self.config.min_pairwise_consistency,
                )? {
                    stats.skipped += 1;
                    continue;
                }
                let gamma = self.model.infer(&with)?;
                let mut session = self.index.session(self.graph, &gamma);
                let s = session.spread_of(target);
                stats.evaluations += 1;
                stats.worlds_materialized += session.materialized_worlds();
                let better = round_best.as_ref().map(|(_, b, _)| s > *b).unwrap_or(true);
                if better {
                    round_best = Some((w, s, gamma));
                }
            }
            match round_best {
                Some((w, s, _gamma)) => {
                    chosen.push(w);
                    best_spread = s;
                }
                None => break, // no consistent extension exists
            }
        }
        Ok((chosen, best_spread))
    }

    fn finish(&self, chosen: Vec<KeywordId>, spread: f64, stats: PiksStats) -> Result<PiksResult> {
        let gamma = self.model.infer(&chosen)?;
        let consistency = consistency::posterior_consistency(self.model, &chosen)?;
        Ok(PiksResult {
            keywords: chosen,
            gamma,
            spread,
            consistency,
            stats,
        })
    }
}

/// Exhaustive `k`-subset enumeration — exponential, the test/quality oracle.
pub struct ExhaustivePiks<'a> {
    graph: &'a TopicGraph,
    model: &'a TopicModel,
    index: PiksWorldsView<'a>,
    config: PiksConfig,
}

impl<'a> ExhaustivePiks<'a> {
    /// Create the oracle engine over a serialized index.
    pub fn new(
        graph: &'a TopicGraph,
        model: &'a TopicModel,
        index: PiksWorldsView<'a>,
        config: PiksConfig,
    ) -> Self {
        ExhaustivePiks {
            graph,
            model,
            index,
            config,
        }
    }

    /// Evaluate every consistent `k`-subset of `candidates`.
    pub fn suggest(
        &self,
        target: NodeId,
        candidates: &[KeywordId],
        k: usize,
    ) -> Result<PiksResult> {
        if k == 0 {
            return Err(CoreError::ZeroK);
        }
        if candidates.is_empty() || candidates.len() < k {
            return Err(CoreError::NoCandidates {
                user: self
                    .graph
                    .name(target)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("{target:?}")),
            });
        }
        let mut stats = PiksStats::default();
        let mut best: Option<(Vec<KeywordId>, f64)> = None;
        let mut subset: Vec<usize> = (0..k).collect();
        loop {
            let ws: Vec<KeywordId> = subset.iter().map(|&i| candidates[i]).collect();
            let ok = consistency::is_consistent(
                self.model,
                &ws,
                self.config.min_posterior_consistency,
                self.config.min_pairwise_consistency,
            )?;
            if ok {
                let gamma = self.model.infer(&ws)?;
                let mut session = self.index.session(self.graph, &gamma);
                let s = session.spread_of(target);
                stats.evaluations += 1;
                stats.worlds_materialized += session.materialized_worlds();
                if best.as_ref().map(|(_, b)| s > *b).unwrap_or(true) {
                    best = Some((ws, s));
                }
            } else {
                stats.skipped += 1;
            }
            if !next_combination(&mut subset, candidates.len()) {
                break;
            }
        }
        let (ws, s) = best.ok_or(CoreError::NoCandidates {
            user: format!("{target:?} (no consistent {k}-subset)"),
        })?;
        let gamma = self.model.infer(&ws)?;
        let consistency = consistency::posterior_consistency(self.model, &ws)?;
        Ok(PiksResult {
            keywords: ws,
            gamma,
            spread: s,
            consistency,
            stats,
        })
    }
}

/// Advance `subset` (strictly increasing indices) to the next `k`-combination
/// of `0..n` in lexicographic order; `false` when exhausted.
fn next_combination(subset: &mut [usize], n: usize) -> bool {
    let k = subset.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if subset[i] != i + n - k {
            subset[i] += 1;
            for j in i + 1..k {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_graph::GraphBuilder;
    use octopus_topics::Vocabulary;

    /// Target 0 is strong on topic 0 (edges to 1..=6 at .7) and weak on
    /// topic 1 (edges to 7..=8 at .15). Keywords: two db words (topic 0),
    /// two ml words (topic 1), one shared.
    fn fixture() -> (TopicGraph, TopicModel, Vec<u8>) {
        let mut b = GraphBuilder::new(2);
        let _ = b.add_nodes(9);
        for v in 1..=6u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.7)]).unwrap();
        }
        for v in 7..=8u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(1, 0.15)]).unwrap();
        }
        let g = b.build().unwrap();
        let mut vocab = Vocabulary::new();
        vocab.intern("indexing"); // w0 t0
        vocab.intern("transactions"); // w1 t0
        vocab.intern("neural"); // w2 t1
        vocab.intern("gradients"); // w3 t1
        vocab.intern("data"); // w4 shared
        let model = TopicModel::from_rows(
            vocab,
            vec![vec![0.4, 0.4, 0.0, 0.0, 0.2], vec![0.0, 0.0, 0.4, 0.4, 0.2]],
            vec![0.5, 0.5],
        )
        .unwrap();
        let index = InfluencerIndex::build(&g, 4000, 23).to_bytes();
        (g, model, index)
    }

    fn all_keywords(m: &TopicModel) -> Vec<KeywordId> {
        (0..m.vocab_size()).map(|i| KeywordId(i as u32)).collect()
    }

    #[test]
    fn greedy_suggests_strong_topic_keywords() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let engine = GreedyPiks::new(&g, &m, idx, PiksConfig::default());
        let res = engine.suggest(NodeId(0), &all_keywords(&m), 2).unwrap();
        let words: Vec<&str> = res
            .keywords
            .iter()
            .map(|&w| m.vocab().word(w).unwrap())
            .collect();
        assert!(
            words.contains(&"indexing") || words.contains(&"transactions"),
            "selling points must be db keywords, got {words:?}"
        );
        assert!(
            !words.contains(&"neural") && !words.contains(&"gradients"),
            "weak-topic keywords must not be suggested: {words:?}"
        );
        assert_eq!(res.gamma.dominant_topic(), 0);
        assert!(
            res.spread > 3.0,
            "db-topic spread should be large: {}",
            res.spread
        );
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_pool() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let cfg = PiksConfig::default();
        let greedy = GreedyPiks::new(&g, &m, idx, cfg.clone());
        let exact = ExhaustivePiks::new(&g, &m, idx, cfg);
        let gr = greedy.suggest(NodeId(0), &all_keywords(&m), 2).unwrap();
        let ex = exact.suggest(NodeId(0), &all_keywords(&m), 2).unwrap();
        // same spread (sets may differ by symmetric keywords)
        assert!(
            (gr.spread - ex.spread).abs() < 0.3,
            "greedy {} vs exhaustive {}",
            gr.spread,
            ex.spread
        );
        assert!(gr.stats.evaluations <= ex.stats.evaluations + 5);
    }

    #[test]
    fn consistency_filter_blocks_cross_topic_sets() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let strict = PiksConfig {
            min_posterior_consistency: 0.3,
            min_pairwise_consistency: 0.9,
        };
        let engine = GreedyPiks::new(&g, &m, idx, strict);
        let res = engine.suggest(NodeId(0), &all_keywords(&m), 3).unwrap();
        // every suggested pair must be same-topic under the strict filter
        let pc = octopus_topics::consistency::pairwise_consistency(&m, &res.keywords).unwrap();
        assert!(pc >= 0.9 - 1e-9, "pairwise consistency {pc}");
    }

    #[test]
    fn errors_on_empty_candidates_and_zero_k() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let engine = GreedyPiks::new(&g, &m, idx, PiksConfig::default());
        assert!(matches!(
            engine.suggest(NodeId(0), &[], 2),
            Err(CoreError::NoCandidates { .. })
        ));
        assert!(matches!(
            engine.suggest(NodeId(0), &all_keywords(&m), 0),
            Err(CoreError::ZeroK)
        ));
    }

    #[test]
    fn weak_user_gets_low_spread() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let engine = GreedyPiks::new(&g, &m, idx, PiksConfig::default());
        let hub = engine.suggest(NodeId(0), &all_keywords(&m), 1).unwrap();
        let leaf = engine.suggest(NodeId(3), &all_keywords(&m), 1).unwrap();
        assert!(
            hub.spread > leaf.spread + 1.0,
            "hub {} leaf {}",
            hub.spread,
            leaf.spread
        );
    }

    #[test]
    fn stats_reflect_pruning() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let engine = GreedyPiks::new(&g, &m, idx, PiksConfig::default());
        let res = engine.suggest(NodeId(0), &all_keywords(&m), 2).unwrap();
        assert!(res.stats.evaluations > 0);
        assert!(res.stats.worlds_materialized > 0);
    }

    #[test]
    fn combination_iterator_is_exhaustive_and_ordered() {
        let mut subset = vec![0usize, 1];
        let mut seen = vec![subset.clone()];
        while next_combination(&mut subset, 4) {
            seen.push(subset.clone());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn exhaustive_requires_enough_candidates() {
        let (g, m, raw) = fixture();
        let idx = PiksWorldsView::parse(&raw).unwrap();
        let exact = ExhaustivePiks::new(&g, &m, idx, PiksConfig::default());
        assert!(matches!(
            exact.suggest(NodeId(0), &all_keywords(&m)[..1], 2),
            Err(CoreError::NoCandidates { .. })
        ));
    }
}
