//! Reverse-reachable (RR) set sampling \[Borgs et al.; Tang et al., 8\].
//!
//! An RR set is sampled by picking a uniform root `v` and collecting every
//! node that reaches `v` in one random live-edge possible world (reverse BFS
//! with per-edge coin flips). The classic identity
//!
//! ```text
//! σ(S) = n · Pr[ S ∩ RR ≠ ∅ ]
//! ```
//!
//! turns set coverage into an unbiased spread estimator, and greedy
//! max-coverage over a collection of RR sets into near-optimal influence
//! maximization. This module provides the collection, the estimators, and
//! the exact greedy coverage selection used by every IM engine in the
//! repository.

use crate::celf::SpreadOracle;
use crate::coins::stream_seed;
use octopus_graph::{EdgeProbs, NodeId, TopicGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Per-thread epoch-stamped visited buffer for [`sample_rr_set`]:
    /// `(buffer, last stamp handed out)`. Pool worker threads persist
    /// across parallel operations, so the buffer amortizes across every
    /// RR batch a thread ever samples instead of being reallocated per
    /// chunk.
    static VISITED: RefCell<(Vec<u64>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Run `f` with this thread's visited buffer sized for `n` nodes and a
/// fresh stamp. Stamps increase monotonically per thread and reset only
/// when the buffer is resized (which also zeroes it), so a stamp never
/// collides with a mark left by an earlier set — even one sampled from a
/// different collection or graph of the same size.
fn with_visited<R>(n: usize, f: impl FnOnce(&mut [u64], u64) -> R) -> R {
    VISITED.with(|tl| {
        let mut tl = tl.borrow_mut();
        let (buf, stamp) = &mut *tl;
        if buf.len() != n {
            buf.clear();
            buf.resize(n, 0);
            *stamp = 0;
        }
        *stamp += 1;
        f(buf, *stamp)
    })
}

/// A collection of RR sets with an inverted node→sets index.
///
/// Set `i` (counted across the collection's whole lifetime, including
/// `RrCollection::extend` calls) is sampled from its own RNG stream
/// derived via [`stream_seed`]`(seed, i)`, so generation parallelizes
/// across sets while staying bit-identical to a sequential build — and
/// `generate(n)` followed by `extend(m)` equals `generate(n + m)`.
#[derive(Debug, Clone)]
pub struct RrCollection {
    n: usize,
    /// Each RR set as a vector of member node ids.
    sets: Vec<Vec<u32>>,
    /// Inverted index: for each node, the RR sets containing it.
    node_to_sets: Vec<Vec<u32>>,
    /// Total number of edges examined during generation (work metric,
    /// reported by the sampling-efficiency experiments).
    edges_examined: usize,
    /// Master seed; set `i` samples from `stream_seed(seed, i)`.
    seed: u64,
}

/// Sample one RR set: reverse BFS from a uniform root over live-edge coin
/// flips, all randomness drawn from the set's own `rng`.
///
/// `visited` is a caller-owned epoch buffer (`node_count` entries);
/// membership in *this* set is `visited[u] == stamp`, so the buffer is
/// reused across sets without clearing — per-set work stays proportional
/// to the set, not to the graph.
fn sample_rr_set(
    g: &TopicGraph,
    probs: &EdgeProbs,
    mut rng: SmallRng,
    visited: &mut [u64],
    stamp: u64,
) -> (Vec<u32>, usize) {
    debug_assert_eq!(visited.len(), g.node_count());
    let root = rng.random_range(0..g.node_count() as u32);
    let mut queue: Vec<u32> = vec![root];
    visited[root as usize] = stamp;
    let mut edges_examined = 0usize;
    let mut head = 0usize;
    while head < queue.len() {
        let v = NodeId(queue[head]);
        head += 1;
        for (u, e) in g.in_edges(v) {
            edges_examined += 1;
            if visited[u.index()] != stamp {
                let p = probs.get(e);
                if p > 0.0 && rng.random::<f32>() < p {
                    visited[u.index()] = stamp;
                    queue.push(u.0);
                }
            }
        }
    }
    (queue, edges_examined)
}

impl RrCollection {
    /// Generate `count` RR sets for the IC model `(g, probs)`.
    pub fn generate(g: &TopicGraph, probs: &EdgeProbs, count: usize, seed: u64) -> Self {
        let mut c = RrCollection {
            n: g.node_count(),
            sets: Vec::with_capacity(count),
            node_to_sets: vec![Vec::new(); g.node_count()],
            edges_examined: 0,
            seed,
        };
        c.extend(g, probs, count);
        c
    }

    /// Add `additional` RR sets (used by the OPIM doubling loop).
    ///
    /// Sets are sampled one per work unit on the shared claiming executor
    /// (each set from its index-derived stream, each participating thread
    /// reusing its own epoch-stamped visited buffer), so skewed per-set
    /// costs load-balance without any chunk-size heuristic here; the
    /// inverted index is then merged sequentially in set order, so the
    /// collection is independent of the thread count. Small batches stay
    /// on the calling thread — `extend` also sits on the online query
    /// path (naive/OPIM engines), where even one pool handoff is overhead.
    pub(crate) fn extend(&mut self, g: &TopicGraph, probs: &EdgeProbs, additional: usize) {
        assert_eq!(g.node_count(), self.n, "graph changed under the collection");
        if self.n == 0 || additional == 0 {
            return;
        }
        /// Below this many sets, posting to the pool only buys overhead.
        const MIN_PAR_SETS: usize = 64;
        let n = self.n;
        let seed = self.seed;
        let first = self.sets.len() as u64;
        let sample_one = |i: usize| {
            let rng = SmallRng::seed_from_u64(stream_seed(seed, first + i as u64));
            with_visited(n, |visited, stamp| {
                sample_rr_set(g, probs, rng, visited, stamp)
            })
        };
        let sampled: Vec<(Vec<u32>, usize)> = if additional < MIN_PAR_SETS {
            (0..additional).map(sample_one).collect()
        } else {
            (0..additional).into_par_iter().map(sample_one).collect()
        };
        for (members, edges) in sampled.into_iter() {
            let set_id = self.sets.len() as u32;
            self.edges_examined += edges;
            for &u in &members {
                self.node_to_sets[u as usize].push(set_id);
            }
            self.sets.push(members);
        }
    }

    /// Number of RR sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Node count of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Total edges examined while sampling (lazy-sampling work metric).
    pub fn edges_examined(&self) -> usize {
        self.edges_examined
    }

    /// RR sets containing node `u`.
    fn sets_containing(&self, u: NodeId) -> &[u32] {
        &self.node_to_sets[u.index()]
    }

    /// Number of RR sets hit by `seeds`.
    pub fn coverage(&self, seeds: &[NodeId]) -> usize {
        let mut covered = vec![false; self.sets.len()];
        let mut count = 0usize;
        for &s in seeds {
            for &j in &self.node_to_sets[s.index()] {
                if !covered[j as usize] {
                    covered[j as usize] = true;
                    count += 1;
                }
            }
        }
        count
    }

    /// Unbiased spread estimate `n · coverage / R`.
    pub fn estimate_spread(&self, seeds: &[NodeId]) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        self.n as f64 * self.coverage(seeds) as f64 / self.sets.len() as f64
    }

    /// Exact greedy max-coverage selection of `k` seeds.
    ///
    /// Returns the seeds (selection order) and the number of RR sets they
    /// cover. Linear total work in `Σ|RR|` via coverage-count decrements.
    pub fn select_seeds(&self, k: usize) -> (Vec<NodeId>, usize) {
        let (seeds, total, _) = self.select_seeds_with_gains(k);
        (seeds, total)
    }

    /// [`select_seeds`](Self::select_seeds) plus each seed's marginal
    /// coverage gain converted to spread units (`n · Δcov / R`) — the
    /// per-seed scores a scatter-gather merge ranks by.
    pub(crate) fn select_seeds_with_gains(&self, k: usize) -> (Vec<NodeId>, usize, Vec<f64>) {
        let mut cov_count: Vec<usize> = self.node_to_sets.iter().map(Vec::len).collect();
        let mut covered = vec![false; self.sets.len()];
        let mut chosen = vec![false; self.n];
        let mut seeds = Vec::with_capacity(k);
        let mut gains = Vec::with_capacity(k);
        let scale = if self.sets.is_empty() {
            0.0
        } else {
            self.n as f64 / self.sets.len() as f64
        };
        let mut total = 0usize;
        for _ in 0..k.min(self.n) {
            // argmax coverage count, ties by lower id
            let mut best = usize::MAX;
            let mut best_count = 0usize;
            for (u, &c) in cov_count.iter().enumerate() {
                if !chosen[u] && c > best_count {
                    best = u;
                    best_count = c;
                }
            }
            if best == usize::MAX {
                // remaining nodes cover nothing new; pick lowest-id unchosen
                if let Some(u) = (0..self.n).find(|&u| !chosen[u]) {
                    chosen[u] = true;
                    seeds.push(NodeId(u as u32));
                    gains.push(0.0);
                    continue;
                }
                break;
            }
            chosen[best] = true;
            seeds.push(NodeId(best as u32));
            gains.push(best_count as f64 * scale);
            total += best_count;
            for &j in &self.node_to_sets[best] {
                if !covered[j as usize] {
                    covered[j as usize] = true;
                    for &u in &self.sets[j as usize] {
                        cov_count[u as usize] = cov_count[u as usize].saturating_sub(1);
                    }
                }
            }
        }
        (seeds, total, gains)
    }
}

/// A [`SpreadOracle`] backed by a fixed RR collection.
///
/// Deterministic (the collection is frozen at construction), so CELF and
/// greedy agree exactly. `marginal_gain` is overridden with incremental
/// coverage for speed.
#[derive(Debug, Clone)]
pub struct RrOracle {
    rr: RrCollection,
}

impl RrOracle {
    /// Build an oracle over `count` freshly sampled RR sets.
    pub fn new(g: &TopicGraph, probs: &EdgeProbs, count: usize, seed: u64) -> Self {
        RrOracle {
            rr: RrCollection::generate(g, probs, count, seed),
        }
    }

    /// Wrap an existing collection.
    pub fn from_collection(rr: RrCollection) -> Self {
        RrOracle { rr }
    }

    /// Access the underlying collection.
    pub fn collection(&self) -> &RrCollection {
        &self.rr
    }
}

impl SpreadOracle for RrOracle {
    fn spread(&mut self, seeds: &[NodeId]) -> f64 {
        self.rr.estimate_spread(seeds)
    }

    fn node_count(&self) -> usize {
        self.rr.node_count()
    }

    fn marginal_gain(&mut self, base: &[NodeId], _base_spread: f64, candidate: NodeId) -> f64 {
        if self.rr.is_empty() {
            return 0.0;
        }
        // sets covered by base
        let mut covered = vec![false; self.rr.len()];
        for &s in base {
            for &j in self.rr.sets_containing(s) {
                covered[j as usize] = true;
            }
        }
        let newly = self
            .rr
            .sets_containing(candidate)
            .iter()
            .filter(|&&j| !covered[j as usize])
            .count();
        self.rr.node_count() as f64 * newly as f64 / self.rr.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celf::{celf_select, greedy_select};
    use octopus_graph::GraphBuilder;

    fn star_half() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(11);
        for v in 1..=10 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.5)]).unwrap();
        }
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

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
    fn rr_estimate_is_unbiased_on_star() {
        let (g, p) = star_half();
        let rr = RrCollection::generate(&g, &p, 50_000, 42);
        let est = rr.estimate_spread(&[NodeId(0)]);
        // true spread = 6
        assert!((est - 6.0).abs() < 0.2, "estimated {est}");
    }

    #[test]
    fn rr_estimate_of_leaf_is_one() {
        let (g, p) = star_half();
        let rr = RrCollection::generate(&g, &p, 50_000, 7);
        let est = rr.estimate_spread(&[NodeId(3)]);
        assert!((est - 1.0).abs() < 0.15, "estimated {est}");
    }

    #[test]
    fn coverage_of_all_nodes_is_everything() {
        let (g, p) = star_half();
        let rr = RrCollection::generate(&g, &p, 1000, 3);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(rr.coverage(&all), rr.len());
    }

    #[test]
    fn greedy_coverage_finds_both_hubs() {
        let (g, p) = two_stars();
        let rr = RrCollection::generate(&g, &p, 5000, 11);
        let (seeds, _) = rr.select_seeds(2);
        assert_eq!(seeds, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn select_more_seeds_than_useful_still_returns_k() {
        let (g, p) = two_stars();
        let rr = RrCollection::generate(&g, &p, 500, 11);
        let (seeds, _) = rr.select_seeds(7);
        assert_eq!(seeds.len(), 7);
        // no duplicates
        let mut s = seeds.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn oracle_celf_equals_greedy() {
        let (g, p) = two_stars();
        let rr = RrCollection::generate(&g, &p, 2000, 5);
        let mut o1 = RrOracle::from_collection(rr.clone());
        let mut o2 = RrOracle::from_collection(rr);
        let a = celf_select(&mut o1, 3);
        let b = greedy_select(&mut o2, 3);
        assert_eq!(a.seeds, b.seeds);
        assert!((a.spread - b.spread).abs() < 1e-9);
    }

    #[test]
    fn oracle_marginal_gain_consistent_with_spread() {
        let (g, p) = two_stars();
        let mut o = RrOracle::new(&g, &p, 2000, 9);
        let base = vec![NodeId(0)];
        let s_base = o.spread(&base);
        let mg = o.marginal_gain(&base, s_base, NodeId(1));
        let s_both = o.spread(&[NodeId(0), NodeId(1)]);
        assert!((s_base + mg - s_both).abs() < 1e-9);
    }

    #[test]
    fn extend_grows_collection() {
        let (g, p) = star_half();
        let mut rr = RrCollection::generate(&g, &p, 100, 1);
        let before = rr.edges_examined();
        rr.extend(&g, &p, 100);
        assert_eq!(rr.len(), 200);
        assert!(rr.edges_examined() >= before);
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = GraphBuilder::new(1).build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        let rr = RrCollection::generate(&g, &p, 10, 1);
        assert_eq!(rr.len(), 0);
        assert_eq!(rr.estimate_spread(&[]), 0.0);
        let (seeds, cov) = rr.select_seeds(3);
        assert!(seeds.is_empty());
        assert_eq!(cov, 0);
    }

    #[test]
    fn generation_is_independent_of_thread_count() {
        let (g, p) = star_half();
        let seq = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let par = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        let a = seq.install(|| RrCollection::generate(&g, &p, 500, 42));
        let b = par.install(|| RrCollection::generate(&g, &p, 500, 42));
        assert_eq!(a.sets, b.sets);
        assert_eq!(a.node_to_sets, b.node_to_sets);
        assert_eq!(a.edges_examined(), b.edges_examined());
    }

    #[test]
    fn extend_equals_one_shot_generation() {
        let (g, p) = star_half();
        let mut grown = RrCollection::generate(&g, &p, 120, 9);
        grown.extend(&g, &p, 80);
        let oneshot = RrCollection::generate(&g, &p, 200, 9);
        assert_eq!(grown.sets, oneshot.sets);
        assert_eq!(grown.edges_examined(), oneshot.edges_examined());
    }

    #[test]
    fn zero_prob_graph_rr_sets_are_singletons() {
        let (g, _) = star_half();
        let p = EdgeProbs::from_vec(vec![0.0; g.edge_count()]);
        let rr = RrCollection::generate(&g, &p, 100, 2);
        let members: usize = g.nodes().map(|u| rr.sets_containing(u).len()).sum();
        assert_eq!(members, rr.len(), "every set holds its root alone");
    }
}
