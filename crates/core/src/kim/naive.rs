//! The naive per-query baseline (§II-C): "compute `pp_{u,v}` for each edge
//! given the query and then employ the traditional IM algorithms. Obviously,
//! this solution would be very expensive, and cannot be used for answering
//! online keyword queries." — implemented faithfully so the online engines
//! have something to beat.

use super::{KimAlgorithm, KimResult, KimStats};
use octopus_cascade::{opim_select, OpimOptions};
use octopus_graph::TopicGraph;
use octopus_topics::TopicDistribution;

/// Naive engine: materialize the query graph, run OPIM (RR-sampling greedy
/// with a `(1−1/e−ε)` certificate) from scratch.
#[derive(Debug, Clone)]
pub struct NaiveKim<'g> {
    graph: &'g TopicGraph,
}

impl<'g> NaiveKim<'g> {
    /// Create the baseline with default OPIM parameters.
    pub fn new(graph: &'g TopicGraph) -> Self {
        NaiveKim { graph }
    }
}

impl KimAlgorithm for NaiveKim<'_> {
    fn select(&self, gamma: &TopicDistribution, k: usize) -> KimResult {
        let probs = self
            .graph
            .materialize(gamma.as_slice())
            .expect("gamma dimension validated at facade entry");
        let opts = OpimOptions {
            k,
            ..OpimOptions::default()
        };
        let res = opim_select(self.graph, &probs, &opts);
        KimResult {
            seeds: res.seeds,
            spread: res.spread,
            stats: KimStats {
                // every RR set is "exact work" the online engines avoid
                exact_evaluations: res.rr_sets,
                ..KimStats::default()
            },
        }
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

/// The *classical* naive engine: CELF greedy with Monte-Carlo spread
/// estimation (Kempe et al., KDD'03 — what "the traditional IM algorithms"
/// meant when the topic-aware line of work began). Kept alongside
/// `NaiveKim` so the harness can show both generations of baseline:
/// MC-greedy is the one that is "extremely expensive" online.
#[derive(Debug, Clone)]
pub struct McGreedyKim<'g> {
    graph: &'g TopicGraph,
    /// Simulations per spread evaluation.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl<'g> McGreedyKim<'g> {
    /// Create the MC-greedy baseline (`runs` simulations per evaluation).
    pub fn new(graph: &'g TopicGraph, runs: usize, seed: u64) -> Self {
        McGreedyKim { graph, runs, seed }
    }
}

impl KimAlgorithm for McGreedyKim<'_> {
    fn select(&self, gamma: &TopicDistribution, k: usize) -> KimResult {
        let probs = self
            .graph
            .materialize(gamma.as_slice())
            .expect("gamma dimension validated at facade entry");
        let mut oracle = octopus_cascade::McOracle::new(self.graph, &probs, self.runs, self.seed);
        let res = octopus_cascade::celf_select(&mut oracle, k);
        KimResult {
            seeds: res.seeds,
            spread: res.spread,
            stats: KimStats {
                exact_evaluations: res.evaluations,
                ..KimStats::default()
            },
        }
    }

    fn name(&self) -> &'static str {
        "mc-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kim::testutil::two_topic_hubs;
    use octopus_graph::NodeId;

    #[test]
    fn finds_topic_specific_hub() {
        let g = two_topic_hubs();
        let engine = NaiveKim::new(&g);
        let t0 = TopicDistribution::pure(2, 0);
        let res = engine.select(&t0, 1);
        assert_eq!(res.seeds, vec![NodeId(0)], "topic-0 query must pick hub 0");
        let t1 = TopicDistribution::pure(2, 1);
        let res = engine.select(&t1, 1);
        assert_eq!(res.seeds, vec![NodeId(1)], "topic-1 query must pick hub 1");
    }

    #[test]
    fn mc_greedy_finds_hubs_too() {
        let g = two_topic_hubs();
        let engine = McGreedyKim::new(&g, 300, 5);
        let res = engine.select(&TopicDistribution::uniform(2), 2);
        let mut seeds = res.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, vec![NodeId(0), NodeId(1)]);
        assert!(res.stats.exact_evaluations >= g.node_count());
    }

    #[test]
    fn mixed_query_selects_both_hubs() {
        let g = two_topic_hubs();
        let engine = NaiveKim::new(&g);
        let mix = TopicDistribution::uniform(2);
        let res = engine.select(&mix, 2);
        let mut seeds = res.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, vec![NodeId(0), NodeId(1)]);
        assert!(res.spread > 2.0);
        assert!(res.stats.exact_evaluations > 0);
    }
}
