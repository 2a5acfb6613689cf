//! Greedy and CELF (lazy-greedy) influence maximization over an abstract
//! spread oracle.
//!
//! Both algorithms exploit the monotone submodularity of IC spread and carry
//! the classic `(1 − 1/e)` guarantee relative to the optimal seed set (up to
//! oracle estimation error). CELF (Leskovec et al., KDD'07) returns the same
//! seeds as plain greedy — verified by our property tests — while skipping
//! most marginal-gain evaluations via lazy bounds, which is also the germ of
//! OCTOPUS's best-effort pruning (§II-C).

use octopus_graph::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Anything that can estimate the influence spread `σ(S)` of a seed set.
///
/// Implementations must be *deterministic per instance* (two calls with the
/// same seed set return the same value) so that greedy comparisons are
/// stable; the Monte-Carlo and RR oracles achieve this by replaying fixed
/// RNG streams.
pub trait SpreadOracle {
    /// Estimated spread of `seeds`.
    fn spread(&mut self, seeds: &[NodeId]) -> f64;

    /// Number of nodes in the underlying graph (candidate universe).
    fn node_count(&self) -> usize;

    /// Marginal gain of adding `candidate` to `base` (whose spread is
    /// `base_spread`). Default recomputes from scratch; oracles with
    /// incremental structure (RR coverage) override this.
    fn marginal_gain(&mut self, base: &[NodeId], base_spread: f64, candidate: NodeId) -> f64 {
        let mut with: Vec<NodeId> = Vec::with_capacity(base.len() + 1);
        with.extend_from_slice(base);
        with.push(candidate);
        self.spread(&with) - base_spread
    }
}

/// Result of a greedy/CELF seed selection.
#[derive(Debug, Clone, PartialEq)]
pub struct CelfResult {
    /// Selected seeds, in selection order.
    pub seeds: Vec<NodeId>,
    /// Estimated spread of the full seed set.
    pub spread: f64,
    /// Marginal gain recorded when each seed was selected.
    pub gains: Vec<f64>,
    /// Number of marginal-gain evaluations performed (pruning metric).
    pub evaluations: usize,
}

/// Max-heap entry ordered by cached gain.
struct HeapEntry {
    gain: f64,
    node: NodeId,
    /// Round in which `gain` was computed (CELF staleness marker).
    round: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total order on f64 gains (NaN never produced by oracles); ties by
        // node id for determinism.
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// CELF lazy-greedy selection of `k` seeds from an explicit candidate pool.
fn celf_select_from(oracle: &mut dyn SpreadOracle, k: usize, candidates: &[NodeId]) -> CelfResult {
    let mut evaluations = 0usize;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(candidates.len());

    // Round 0: exact singleton spreads.
    for &u in candidates {
        let gain = oracle.spread(&[u]);
        evaluations += 1;
        heap.push(HeapEntry {
            gain,
            node: u,
            round: 0,
        });
    }

    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    let mut gains: Vec<f64> = Vec::with_capacity(k);
    let mut current_spread = 0.0f64;

    while seeds.len() < k {
        let Some(top) = heap.pop() else { break };
        if top.round == seeds.len() {
            // Fresh for this round: select it.
            current_spread += top.gain;
            seeds.push(top.node);
            gains.push(top.gain);
        } else {
            // Stale: recompute and re-insert. Submodularity guarantees the
            // refreshed gain can only shrink, so the heap order stays valid.
            let gain = oracle.marginal_gain(&seeds, current_spread, top.node);
            evaluations += 1;
            heap.push(HeapEntry {
                gain,
                node: top.node,
                round: seeds.len(),
            });
        }
    }

    // Recompute the final spread exactly once for reporting (avoids drift
    // from accumulated marginal estimates when the oracle is stochastic).
    let spread = if seeds.is_empty() {
        0.0
    } else {
        oracle.spread(&seeds)
    };
    CelfResult {
        seeds,
        spread,
        gains,
        evaluations,
    }
}

/// CELF over the whole node universe.
pub fn celf_select(oracle: &mut dyn SpreadOracle, k: usize) -> CelfResult {
    let candidates: Vec<NodeId> = (0..oracle.node_count() as u32).map(NodeId).collect();
    celf_select_from(oracle, k, &candidates)
}

/// Plain greedy (re-evaluates every candidate each round). `O(n·k)` oracle
/// calls — the textbook algorithm, kept as the equivalence oracle for CELF.
pub fn greedy_select(oracle: &mut dyn SpreadOracle, k: usize) -> CelfResult {
    let candidates: Vec<NodeId> = (0..oracle.node_count() as u32).map(NodeId).collect();
    greedy_select_from(oracle, k, &candidates)
}

/// Plain greedy from an explicit candidate pool.
fn greedy_select_from(
    oracle: &mut dyn SpreadOracle,
    k: usize,
    candidates: &[NodeId],
) -> CelfResult {
    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    let mut gains: Vec<f64> = Vec::with_capacity(k);
    let mut current = 0.0f64;
    let mut evaluations = 0usize;
    let mut remaining: Vec<NodeId> = candidates.to_vec();
    while seeds.len() < k && !remaining.is_empty() {
        let mut best_idx = 0usize;
        let mut best_gain = f64::NEG_INFINITY;
        let mut best_node = NodeId(u32::MAX);
        for (i, &u) in remaining.iter().enumerate() {
            let gain = oracle.marginal_gain(&seeds, current, u);
            evaluations += 1;
            // strict improvement, or a tie broken by lower node id (matching
            // the CELF heap order so the two algorithms agree exactly)
            let improves = gain > best_gain || (gain == best_gain && u < best_node);
            if improves {
                best_idx = i;
                best_gain = gain;
                best_node = u;
            }
        }
        current += best_gain;
        seeds.push(remaining.swap_remove(best_idx));
        gains.push(best_gain);
    }
    let spread = if seeds.is_empty() {
        0.0
    } else {
        oracle.spread(&seeds)
    };
    CelfResult {
        seeds,
        spread,
        gains,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::McOracle;
    use octopus_graph::{EdgeProbs, GraphBuilder, TopicGraph};

    /// Two disjoint stars: hub 0 → {2,3,4}, hub 1 → {5,6}; all prob 1.
    fn two_stars() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(7);
        for v in [2u32, 3, 4] {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 1.0)]).unwrap();
        }
        for v in [5u32, 6] {
            b.add_edge(NodeId(1), NodeId(v), &[(0, 1.0)]).unwrap();
        }
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

    #[test]
    fn celf_picks_both_hubs() {
        let (g, p) = two_stars();
        let mut oracle = McOracle::new(&g, &p, 1, 1); // deterministic graph: 1 run is exact
        let res = celf_select(&mut oracle, 2);
        assert_eq!(res.seeds, vec![NodeId(0), NodeId(1)]);
        assert_eq!(res.spread, 7.0);
        assert_eq!(res.gains, vec![4.0, 3.0]);
    }

    #[test]
    fn greedy_matches_celf_on_deterministic_graph() {
        let (g, p) = two_stars();
        let mut o1 = McOracle::new(&g, &p, 1, 1);
        let mut o2 = McOracle::new(&g, &p, 1, 1);
        let a = celf_select(&mut o1, 3);
        let b = greedy_select(&mut o2, 3);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.spread, b.spread);
    }

    #[test]
    fn celf_does_fewer_evaluations_than_greedy() {
        let (g, p) = two_stars();
        let mut o1 = McOracle::new(&g, &p, 1, 1);
        let mut o2 = McOracle::new(&g, &p, 1, 1);
        let a = celf_select(&mut o1, 3);
        let b = greedy_select(&mut o2, 3);
        assert!(
            a.evaluations < b.evaluations,
            "celf {} vs greedy {}",
            a.evaluations,
            b.evaluations
        );
    }

    #[test]
    fn k_larger_than_candidates_selects_all() {
        let (g, p) = two_stars();
        let mut oracle = McOracle::new(&g, &p, 1, 1);
        let res = celf_select_from(&mut oracle, 10, &[NodeId(0), NodeId(1)]);
        assert_eq!(res.seeds.len(), 2);
    }

    #[test]
    fn k_zero_is_empty() {
        let (g, p) = two_stars();
        let mut oracle = McOracle::new(&g, &p, 1, 1);
        let res = celf_select(&mut oracle, 0);
        assert!(res.seeds.is_empty());
        assert_eq!(res.spread, 0.0);
    }

    #[test]
    fn selection_gains_are_non_increasing() {
        let (g, p) = two_stars();
        let mut oracle = McOracle::new(&g, &p, 1, 1);
        let res = celf_select(&mut oracle, 5);
        for w in res.gains.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "gains must decrease: {:?}", res.gains);
        }
    }

    #[test]
    fn restricted_candidates_respected() {
        let (g, p) = two_stars();
        let mut oracle = McOracle::new(&g, &p, 1, 1);
        let res = celf_select_from(&mut oracle, 1, &[NodeId(1), NodeId(5)]);
        assert_eq!(res.seeds, vec![NodeId(1)]);
    }
}
