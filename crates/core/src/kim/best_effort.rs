//! The best-effort framework (§II-C): "estimates an upper bound of the
//! influence spread for each user and then preferentially computes the exact
//! influence spread for the users with larger upper bounds, so as to prune
//! insignificant users."
//!
//! The engine runs a three-level lazy CELF: every candidate enters the
//! priority queue with a cheap *bound*; a candidate only pays for an exact
//! singleton evaluation when its bound reaches the top; and only pays for
//! marginal-gain re-evaluation when its singleton value reaches the top
//! again. With a discriminative bound the vast majority of users never get
//! an exact evaluation at all — the pruning ratio experiment E4 reports.
//!
//! "Exact" influence here is the deterministic MIA spread \[4\] with
//! threshold `θ` (the same model the path-visualization service uses),
//! giving fully reproducible selections.

use super::bounds::BoundEstimator;
use super::{KimAlgorithm, KimResult, KimStats};
use octopus_graph::{NodeId, TopicGraph};
use octopus_mia::mia_spread_set;
use octopus_topics::TopicDistribution;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Priority-queue state of a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Value is an upper bound.
    Bound,
    /// Value is an exact marginal gain computed when the seed set had the
    /// given size (0 = singleton spread −, valid for an empty seed set).
    Exact(usize),
}

struct Entry {
    value: f64,
    node: NodeId,
    state: State,
}

impl PartialEq for Entry {
    fn eq(&self, o: &Self) -> bool {
        self.value == o.value && self.node == o.node
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Entry {
    fn cmp(&self, o: &Self) -> Ordering {
        self.value
            .partial_cmp(&o.value)
            .unwrap_or(Ordering::Equal)
            // On equal values prefer exact entries (no further work needed),
            // then lower node id for determinism.
            .then_with(|| match (self.state, o.state) {
                (State::Exact(_), State::Bound) => Ordering::Greater,
                (State::Bound, State::Exact(_)) => Ordering::Less,
                _ => Ordering::Equal,
            })
            .then_with(|| o.node.cmp(&self.node))
    }
}

/// The best-effort keyword IM engine, generic over the bound estimator.
pub struct BestEffortKim<'g, B: BoundEstimator> {
    graph: &'g TopicGraph,
    bound: B,
    /// MIA threshold for exact spread computations.
    theta: f64,
}

impl<'g, B: BoundEstimator> BestEffortKim<'g, B> {
    /// Create the engine. `theta` is the MIA pruning threshold of the exact
    /// evaluator (1/320 is the classic PMIA default).
    pub fn new(graph: &'g TopicGraph, bound: B, theta: f64) -> Self {
        BestEffortKim {
            graph,
            bound,
            theta,
        }
    }

    /// The bound estimator in use.
    pub fn bound(&self) -> &B {
        &self.bound
    }

    /// Run the selection with an optional warm-start candidate list whose
    /// members are exactly evaluated up front (used by the topic-sample
    /// engine to inject a strong lower bound before any pruning decisions).
    pub(crate) fn select_warm(
        &self,
        gamma: &TopicDistribution,
        k: usize,
        warm: &[NodeId],
    ) -> KimResult {
        let probs = self
            .graph
            .materialize(gamma.as_slice())
            .expect("gamma dimension validated at facade entry");
        let n = self.graph.node_count();
        let mut stats = KimStats::default();
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n + warm.len());
        let mut exactly_evaluated = vec![false; n];

        // warm-start: exact singleton spreads for the injected candidates
        for &u in warm {
            let s = mia_spread_set(self.graph, &probs, &[u], self.theta);
            stats.exact_evaluations += 1;
            exactly_evaluated[u.index()] = true;
            heap.push(Entry {
                value: s,
                node: u,
                state: State::Exact(0),
            });
        }
        // everyone else enters with a bound
        for u in self.graph.nodes() {
            if exactly_evaluated[u.index()] {
                continue;
            }
            let b = self.bound.upper_bound(u, gamma);
            stats.bound_evaluations += 1;
            heap.push(Entry {
                value: b,
                node: u,
                state: State::Bound,
            });
        }

        let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
        let mut chosen = vec![false; n];
        let mut current_spread = 0.0f64;
        while seeds.len() < k {
            let Some(top) = heap.pop() else { break };
            if chosen[top.node.index()] {
                continue;
            }
            match top.state {
                State::Bound => {
                    // pay for the exact singleton (== marginal at round 0);
                    // for later rounds it is still an upper bound on the
                    // marginal gain by submodularity.
                    let s = mia_spread_set(self.graph, &probs, &[top.node], self.theta);
                    stats.exact_evaluations += 1;
                    exactly_evaluated[top.node.index()] = true;
                    heap.push(Entry {
                        value: s,
                        node: top.node,
                        state: State::Exact(0),
                    });
                }
                State::Exact(round) if round == seeds.len() => {
                    seeds.push(top.node);
                    chosen[top.node.index()] = true;
                    current_spread += top.value;
                }
                State::Exact(_) => {
                    // stale marginal: recompute against the current seed set
                    let mut with: Vec<NodeId> = seeds.clone();
                    with.push(top.node);
                    let s = mia_spread_set(self.graph, &probs, &with, self.theta);
                    stats.exact_evaluations += 1;
                    let gain = (s - current_spread).max(0.0);
                    heap.push(Entry {
                        value: gain,
                        node: top.node,
                        state: State::Exact(seeds.len()),
                    });
                }
            }
        }
        stats.pruned_candidates = n - exactly_evaluated.iter().filter(|&&b| b).count();
        let spread = if seeds.is_empty() {
            0.0
        } else {
            mia_spread_set(self.graph, &probs, &seeds, self.theta)
        };
        KimResult {
            seeds,
            spread,
            stats,
        }
    }
}

impl<B: BoundEstimator> KimAlgorithm for BestEffortKim<'_, B> {
    fn select(&self, gamma: &TopicDistribution, k: usize) -> KimResult {
        self.select_warm(gamma, k, &[])
    }

    fn name(&self) -> &'static str {
        "best-effort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kim::bounds::{global_spread_cap, LocalGraphBound, NeighborhoodBound, PrecompBound};
    use crate::kim::testutil::two_topic_hubs;

    const THETA: f64 = 1.0 / 320.0;

    #[test]
    fn selects_topic_hubs_like_the_naive_engine() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let engine = BestEffortKim::new(&g, NeighborhoodBound::new(&g, cap), THETA);
        let res = engine.select(&TopicDistribution::pure(2, 0), 1);
        assert_eq!(res.seeds, vec![NodeId(0)]);
        let res = engine.select(&TopicDistribution::uniform(2), 2);
        let mut s = res.seeds.clone();
        s.sort();
        assert_eq!(s, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn prunes_most_candidates() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let engine = BestEffortKim::new(&g, NeighborhoodBound::new(&g, cap), THETA);
        let res = engine.select(&TopicDistribution::pure(2, 0), 1);
        assert!(
            res.stats.pruned_candidates > 0,
            "expected pruning on a 13-node graph: {:?}",
            res.stats
        );
        assert!(res.stats.exact_evaluations < g.node_count());
        assert_eq!(res.stats.bound_evaluations, g.node_count());
    }

    #[test]
    fn all_three_bounds_agree_on_selection() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let gamma = TopicDistribution::uniform(2);
        let nb = BestEffortKim::new(&g, NeighborhoodBound::new(&g, cap), THETA).select(&gamma, 2);
        let pb =
            BestEffortKim::new(&g, PrecompBound::build(&g, THETA, 1.2), THETA).select(&gamma, 2);
        let lg =
            BestEffortKim::new(&g, LocalGraphBound::new(&g, 2, cap, 1.1), THETA).select(&gamma, 2);
        assert_eq!(nb.seeds, pb.seeds);
        assert_eq!(nb.seeds, lg.seeds);
        assert!((nb.spread - pb.spread).abs() < 1e-9);
    }

    #[test]
    fn warm_start_reduces_exact_evaluations() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let gamma = TopicDistribution::pure(2, 1);
        let engine = BestEffortKim::new(&g, NeighborhoodBound::new(&g, cap), THETA);
        let cold = engine.select(&gamma, 1);
        let warm = engine.select_warm(&gamma, 1, &[NodeId(1)]);
        assert_eq!(cold.seeds, warm.seeds);
        assert!(warm.stats.exact_evaluations <= cold.stats.exact_evaluations);
    }

    #[test]
    fn zero_k_and_oversized_k() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let engine = BestEffortKim::new(&g, NeighborhoodBound::new(&g, cap), THETA);
        let res = engine.select(&TopicDistribution::uniform(2), 0);
        assert!(res.seeds.is_empty());
        assert_eq!(res.spread, 0.0);
        let res = engine.select(&TopicDistribution::uniform(2), 100);
        assert_eq!(res.seeds.len(), 13, "k capped at node count");
    }

    #[test]
    fn marginal_gains_reflect_overlap() {
        // selecting hub 0 twice-over is useless; second seed must be hub 1
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let engine = BestEffortKim::new(&g, NeighborhoodBound::new(&g, cap), THETA);
        let res = engine.select(&TopicDistribution::uniform(2), 3);
        assert_eq!(res.seeds[0].0.min(res.seeds[1].0), 0);
        assert_eq!(res.seeds[0].0.max(res.seeds[1].0), 1);
        // third seed is the dual-topic node 12 (feeds both stars)
        assert_eq!(res.seeds[2], NodeId(12));
    }
}
