//! MIA-model influence spread estimation.
//!
//! Under the MIA model, influence only travels along maximum-probability
//! paths, which makes spread computation *exact and deterministic* given the
//! trees — the reason Chen et al. \[4\] proposed it as a scalable stand-in
//! for Monte-Carlo estimation, and the reason OCTOPUS can size nodes in the
//! path visualization without sampling.

use crate::arborescence::{ArbDirection, Arborescence};
use octopus_graph::{EdgeProbs, NodeId, TopicGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Single-seed MIA spread: `σ_MIA(u) = Σ_{v ∈ MIOA(u,θ)} pp(path u→v)`.
///
/// Includes the root itself (probability 1), matching `σ(S) ≥ |S|`. A
/// one-root call of [`mioa_spreads`]' walk.
///
/// # Panics
/// Panics if `theta` is not in `(0, 1]`.
pub fn mioa_spread(g: &TopicGraph, probs: &EdgeProbs, u: NodeId, theta: f64) -> f64 {
    MioaWalk::new(g, probs, theta).spread(u)
}

/// Every node's singleton MIA spread: `out[u] = σ_MIA(u)` — the row kernel
/// of the offline PB tables and of the global spread cap.
///
/// One dense scratch serves every root, and the walk runs over a positive
/// out-adjacency built once per call. Each σ is the f64
/// `Arborescence::build(g, probs, u, theta, Out).total_influence()`
/// returns, bit for bit: the relaxations are the same, nodes settle in the
/// same order (probability descending, then node id ascending), and each
/// path probability joins the sum as its node settles.
///
/// # Panics
/// Panics if `theta` is not in `(0, 1]`.
pub fn mioa_spreads(g: &TopicGraph, probs: &EdgeProbs, theta: f64) -> Vec<f64> {
    let mut walk = MioaWalk::new(g, probs, theta);
    g.nodes().map(|u| walk.spread(u)).collect()
}

/// Dense scratch for θ-pruned MIOA walks over one probability table.
struct MioaWalk {
    theta: f64,
    /// Positive out-adjacency: the edges of `u` with `p > 0`, in edge-id
    /// order, are `targets[offsets[u]..offsets[u + 1]]` with `probs` alongside.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    probs: Vec<f64>,
    /// Best path probability seen per node (0 = unreached).
    best: Vec<f64>,
    settled: Vec<bool>,
    /// Nodes whose `best` is non-zero: what the next root must reset.
    touched: Vec<u32>,
    heap: BinaryHeap<Reach>,
}

/// Max-heap entry ordered like the arborescence builder's frontier.
struct Reach {
    prob: f64,
    node: u32,
}

impl PartialEq for Reach {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Reach {}
impl PartialOrd for Reach {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Reach {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prob
            .partial_cmp(&other.prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl MioaWalk {
    fn new(g: &TopicGraph, probs: &EdgeProbs, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "theta must be in (0, 1], got {theta}"
        );
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let (mut targets, mut out_probs) = (Vec::new(), Vec::new());
        offsets.push(0);
        for u in g.nodes() {
            for (v, e) in g.out_edges(u) {
                let p = probs.get(e) as f64;
                if p > 0.0 {
                    targets.push(v.0);
                    out_probs.push(p);
                }
            }
            offsets.push(targets.len() as u32);
        }
        MioaWalk {
            theta,
            offsets,
            targets,
            probs: out_probs,
            best: vec![0.0; n],
            settled: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn spread(&mut self, root: NodeId) -> f64 {
        for &v in &self.touched {
            self.best[v as usize] = 0.0;
            self.settled[v as usize] = false;
        }
        self.touched.clear();
        self.best[root.index()] = 1.0;
        self.touched.push(root.0);
        self.heap.push(Reach {
            prob: 1.0,
            node: root.0,
        });
        let mut total = 0.0f64;
        while let Some(Reach { prob, node }) = self.heap.pop() {
            let u = node as usize;
            if self.settled[u] {
                continue; // already settled via a better path
            }
            self.settled[u] = true;
            total += prob;
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for (&nb, &ep) in self.targets[lo..hi].iter().zip(&self.probs[lo..hi]) {
                let v = nb as usize;
                if self.settled[v] {
                    continue;
                }
                let np = prob * ep;
                if np < self.theta {
                    continue;
                }
                let best = &mut self.best[v];
                if np > *best {
                    if *best == 0.0 {
                        self.touched.push(nb);
                    }
                    *best = np;
                    self.heap.push(Reach { prob: np, node: nb });
                }
            }
        }
        total
    }
}

/// Seed-set MIA spread: for every node `v` in any seed's MIOA, the
/// activation probability `ap(v | S)` is computed on `v`'s MIIA by the
/// standard bottom-up recursion
///
/// ```text
/// ap(x) = 1                                  if x ∈ S
/// ap(x) = 1 − Π_{w ∈ children(x)} (1 − ap(w) · pp(w → x))   otherwise
/// ```
///
/// and `σ_MIA(S) = Σ_v ap(v | S)`.
pub fn mia_spread_set(g: &TopicGraph, probs: &EdgeProbs, seeds: &[NodeId], theta: f64) -> f64 {
    if seeds.is_empty() {
        return 0.0;
    }
    // candidate targets: union of seed MIOAs
    let mut candidate = vec![false; g.node_count()];
    for &s in seeds {
        let arb = Arborescence::build(g, probs, s, theta, ArbDirection::Out);
        for n in arb.nodes() {
            candidate[n.node.index()] = true;
        }
    }
    let mut is_seed = vec![false; g.node_count()];
    for &s in seeds {
        is_seed[s.index()] = true;
    }

    let mut total = 0.0f64;
    for v in g.nodes().filter(|v| candidate[v.index()]) {
        if is_seed[v.index()] {
            total += 1.0;
            continue;
        }
        total += activation_probability(g, probs, v, &is_seed, theta);
    }
    total
}

/// `ap(v | S)` on `v`'s MIIA (bottom-up tree DP).
pub fn activation_probability(
    g: &TopicGraph,
    probs: &EdgeProbs,
    v: NodeId,
    is_seed: &[bool],
    theta: f64,
) -> f64 {
    let arb = Arborescence::build(g, probs, v, theta, ArbDirection::In);
    let nodes = arb.nodes();
    let mut ap = vec![0.0f64; nodes.len()];
    // settle order has parents before children, so a reverse scan is a
    // valid bottom-up order.
    for i in (0..nodes.len()).rev() {
        let n = &nodes[i];
        if is_seed[n.node.index()] {
            ap[i] = 1.0;
            continue;
        }
        if n.children.is_empty() {
            ap[i] = 0.0;
            continue;
        }
        let mut none_activates = 1.0f64;
        for &c in &n.children {
            let child = &nodes[c as usize];
            none_activates *= 1.0 - ap[c as usize] * child.parent_edge_prob;
        }
        ap[i] = 1.0 - none_activates;
    }
    ap[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_cascade::estimate_spread;
    use octopus_graph::GraphBuilder;

    /// 0 →.5 1, 0 →.5 2, 1 →.5 3, 2 →.5 3 (diamond).
    fn diamond() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5)]).unwrap();
        b.add_edge(NodeId(0), NodeId(2), &[(0, 0.5)]).unwrap();
        b.add_edge(NodeId(1), NodeId(3), &[(0, 0.5)]).unwrap();
        b.add_edge(NodeId(2), NodeId(3), &[(0, 0.5)]).unwrap();
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

    #[test]
    fn single_seed_spread_on_chain_is_geometric() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(4);
        for i in 0..3u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), &[(0, 0.5)]).unwrap();
        }
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        // chain has unique paths → MIA is exact: 1 + .5 + .25 + .125
        let s = mioa_spread(&g, &p, NodeId(0), 0.01);
        assert!((s - 1.875).abs() < 1e-6);
        // and equals MC on trees
        let mc = estimate_spread(&g, &p, &[NodeId(0)], 60_000, 3);
        assert!((s - mc).abs() < 0.05, "mia {s} vs mc {mc}");
    }

    #[test]
    fn mia_underestimates_on_diamond() {
        // MIA keeps only ONE path to node 3, so it undercounts vs MC
        let (g, p) = diamond();
        let mia = mioa_spread(&g, &p, NodeId(0), 0.01);
        let mc = estimate_spread(&g, &p, &[NodeId(0)], 60_000, 4);
        assert!(mia < mc, "mia {mia} must undercount mc {mc} on a diamond");
        // exact MIA: 1 + .5 + .5 + .25 = 2.25 (single best path to node 3)
        assert!((mia - 2.25).abs() < 1e-6);
    }

    #[test]
    fn set_spread_accounts_for_multiple_seeds() {
        let (g, p) = diamond();
        let single = mia_spread_set(&g, &p, &[NodeId(1)], 0.01);
        let both = mia_spread_set(&g, &p, &[NodeId(1), NodeId(2)], 0.01);
        // ap(3 | {1,2}) = 1 − (1−.5)(1−.5) = .75; total = 2 + .75
        assert!((both - 2.75).abs() < 1e-6, "both = {both}");
        assert!(both > single);
        // seeds count as 1 each
        assert!((single - 1.5).abs() < 1e-6);
    }

    #[test]
    fn set_spread_is_monotone_and_subadditive() {
        let (g, p) = diamond();
        let a = mia_spread_set(&g, &p, &[NodeId(0)], 0.01);
        let ab = mia_spread_set(&g, &p, &[NodeId(0), NodeId(3)], 0.01);
        let b_alone = mia_spread_set(&g, &p, &[NodeId(3)], 0.01);
        assert!(ab >= a - 1e-12);
        assert!(ab <= a + b_alone + 1e-12);
    }

    #[test]
    fn empty_seed_set_is_zero() {
        let (g, p) = diamond();
        assert_eq!(mia_spread_set(&g, &p, &[], 0.1), 0.0);
    }

    #[test]
    fn tighter_theta_never_increases_spread() {
        let (g, p) = diamond();
        let loose = mia_spread_set(&g, &p, &[NodeId(0)], 0.01);
        let tight = mia_spread_set(&g, &p, &[NodeId(0)], 0.3);
        assert!(tight <= loose + 1e-12, "tight {tight} loose {loose}");
    }

    #[test]
    fn activation_probability_of_seed_is_one() {
        let (g, p) = diamond();
        let mut is_seed = vec![false; 4];
        is_seed[3] = true;
        assert_eq!(
            activation_probability(&g, &p, NodeId(3), &is_seed, 0.01),
            1.0
        );
    }
}
