//! The common quality referee: every engine's seed sets are re-scored with
//! the same Monte-Carlo estimator so cross-engine spread comparisons are
//! apples-to-apples (engines' internal estimators differ by design).

use octopus_cascade::estimate_spread_parallel;
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::TopicDistribution;

/// Monte-Carlo referee bound to one graph.
pub struct Referee<'g> {
    graph: &'g TopicGraph,
    runs: usize,
    seed: u64,
    threads: usize,
}

impl<'g> Referee<'g> {
    /// Referee with the default budget (4000 runs, 4 threads).
    pub fn new(graph: &'g TopicGraph) -> Self {
        Referee {
            graph,
            runs: 4000,
            seed: 0x5EED,
            threads: 4,
        }
    }

    /// Override the simulation budget.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Ground-truth-ish spread of `seeds` under `gamma`.
    pub fn score(&self, gamma: &TopicDistribution, seeds: &[NodeId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let probs = self
            .graph
            .materialize(gamma.as_slice())
            .expect("validated gamma");
        estimate_spread_parallel(
            self.graph,
            &probs,
            seeds,
            self.runs,
            self.seed,
            self.threads,
        )
    }

    /// Quality ratio of `seeds` relative to `baseline_seeds` (1.0 = equal).
    pub fn ratio(
        &self,
        gamma: &TopicDistribution,
        seeds: &[NodeId],
        baseline_seeds: &[NodeId],
    ) -> f64 {
        let s = self.score(gamma, seeds);
        let b = self.score(gamma, baseline_seeds);
        if b <= 0.0 {
            1.0
        } else {
            s / b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::citation_sized;

    #[test]
    fn referee_scores_are_stable_and_ordered() {
        let net = citation_sized(300, 800);
        let referee = Referee::new(&net.graph).with_runs(1500);
        let gamma = net.model.infer_str("data mining").unwrap();
        let hub = octopus_graph::stats::top_out_degree(&net.graph, 1)[0].0;
        let s1 = referee.score(&gamma, &[hub]);
        let s2 = referee.score(&gamma, &[hub]);
        assert_eq!(s1, s2, "fixed seed ⇒ deterministic referee");
        let weak = octopus_graph::stats::top_out_degree(&net.graph, net.graph.node_count())
            .last()
            .unwrap()
            .0;
        let sw = referee.score(&gamma, &[weak]);
        assert!(s1 > sw, "hub {s1} must outscore weakest {sw}");
        assert_eq!(referee.score(&gamma, &[]), 0.0);
    }
}
