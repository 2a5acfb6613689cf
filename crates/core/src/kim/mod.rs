//! Keyword-based influence maximization (§II-C).
//!
//! "Given a set `W` of keywords that describes some topic, find the seed
//! users with the maximum influence spread in that topic." The challenge is
//! that *every query induces a different probabilistic graph*, so classical
//! IM precomputation does not apply directly. This module contains the
//! paper's algorithm family:
//!
//! | engine | offline work | online work | section |
//! |---|---|---|---|
//! | `NaiveKim` | none | full IM per query (RR sampling + greedy) | the "very expensive" baseline |
//! | `MisKim` | per-topic CELF | weighted gain aggregation | precomputation-heavy heuristic |
//! | [`BestEffortKim`] | bound tables | bound-pruned exact evaluations | the best-effort framework |
//! | topic sample | seed sets for sampled `γ`s | nearest-sample reuse + pruned refinement | the topic-sample algorithm |
//!
//! The engine facade picks one per [`KimEngineChoice`](crate::engine::KimEngineChoice);
//! the topic-sample algorithm runs there, over the samples the offline
//! phase stored. The standalone engines implement [`KimAlgorithm`] so the
//! experiment harness can sweep them uniformly, and all report
//! [`KimStats`] — the evaluation counters behind the pruning-effectiveness
//! experiment (E4).

mod best_effort;
pub mod bounds;
pub(crate) mod mis;
mod naive;
mod targeted;
pub(crate) mod topic_sample;

pub use best_effort::BestEffortKim;
pub use bounds::{BoundEstimator, BoundKind, NeighborhoodBound, PrecompBound, TrivialBound};
pub(crate) use mis::MisKim;
pub use naive::McGreedyKim;
pub(crate) use naive::NaiveKim;
pub use targeted::{Audience, TargetedKim};

use octopus_graph::NodeId;
use octopus_topics::TopicDistribution;

/// Work counters for one KIM query — the pruning-effectiveness metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KimStats {
    /// Exact (expensive) spread/marginal evaluations performed.
    pub exact_evaluations: usize,
    /// Cheap bound evaluations performed.
    pub bound_evaluations: usize,
    /// Candidates pruned without any exact evaluation.
    pub pruned_candidates: usize,
    /// Whether a precomputed topic sample answered the query directly.
    pub answered_from_sample: bool,
    /// Whether the online query cache answered the query.
    pub answered_from_cache: bool,
}

/// Result of a keyword-based IM query.
#[derive(Debug, Clone, PartialEq)]
pub struct KimResult {
    /// Selected seeds, in selection order.
    pub seeds: Vec<NodeId>,
    /// The engine's own spread estimate for the seed set (engines use
    /// different estimators; cross-engine quality comparisons should re-
    /// score seeds with a common referee, as the harness does).
    pub spread: f64,
    /// Work counters.
    pub stats: KimStats,
}

/// A keyword-based influence maximization engine.
///
/// The query is already resolved to a topic distribution `γ` (the engine
/// facade handles keywords → `γ` via the topic model).
pub trait KimAlgorithm {
    /// Select up to `k` seeds maximizing spread under `gamma`.
    fn select(&self, gamma: &TopicDistribution, k: usize) -> KimResult;

    /// Engine name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod testutil {
    use octopus_graph::{GraphBuilder, NodeId, TopicGraph};

    /// Two-topic fixture with topic-disjoint hubs:
    /// hub 0 dominates topic 0 (star over 2..=6), hub 1 dominates topic 1
    /// (star over 7..=11); node 12 is a minor dual-topic player.
    pub fn two_topic_hubs() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        let _ = b.add_nodes(13);
        for v in 2..=6u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.8)]).unwrap();
        }
        for v in 7..=11u32 {
            b.add_edge(NodeId(1), NodeId(v), &[(1, 0.8)]).unwrap();
        }
        b.add_edge(NodeId(12), NodeId(2), &[(0, 0.3), (1, 0.3)])
            .unwrap();
        b.add_edge(NodeId(12), NodeId(7), &[(0, 0.3), (1, 0.3)])
            .unwrap();
        b.build().unwrap()
    }
}
