//! Maximum-influence arborescence construction (Dijkstra on `−ln p`).

use octopus_graph::{EdgeProbs, NodeId, TopicGraph};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Which side of the root the arborescence covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbDirection {
    /// MIOA: best paths *from* the root (whom the root influences).
    Out,
    /// MIIA: best paths *to* the root (who influences the root).
    In,
}

/// One node of an arborescence.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbNode {
    /// The graph node.
    pub node: NodeId,
    /// Index of the parent within the arborescence (`None` for the root).
    /// The parent is the next hop **toward the root**.
    pub parent: Option<u32>,
    /// Indices of children (nodes whose best path goes through this one).
    pub children: Vec<u32>,
    /// Probability of the edge connecting this node with its parent
    /// (1.0 for the root). For [`ArbDirection::Out`] this is the edge
    /// `parent → node`; for [`ArbDirection::In`], `node → parent`.
    pub parent_edge_prob: f64,
    /// Probability of the whole best path between root and this node.
    pub path_prob: f64,
    /// Hop distance from the root.
    pub depth: u32,
}

/// A maximum-influence arborescence rooted at some node, pruned at `θ`.
///
/// Nodes are stored in the order Dijkstra settled them (root first), so
/// `path_prob` is non-increasing along the node list — a property the tests
/// pin down.
#[derive(Debug, Clone, PartialEq)]
pub struct Arborescence {
    root: NodeId,
    direction: ArbDirection,
    theta: f64,
    nodes: Vec<ArbNode>,
    index: HashMap<NodeId, u32>,
}

/// Max-heap entry for Dijkstra over path probabilities.
struct Frontier {
    prob: f64,
    node: NodeId,
    parent: u32,
    edge_prob: f64,
    depth: u32,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.prob == other.prob && self.node == other.node
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prob
            .partial_cmp(&other.prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl Arborescence {
    /// Build the arborescence of `root` under materialized probabilities
    /// `probs`, keeping only nodes whose best-path probability is `≥ theta`.
    ///
    /// # Panics
    /// Panics if `theta` is not in `(0, 1]` — a zero threshold would admit
    /// the entire reachable component and defeat the model's purpose.
    pub fn build(
        g: &TopicGraph,
        probs: &EdgeProbs,
        root: NodeId,
        theta: f64,
        direction: ArbDirection,
    ) -> Self {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "theta must be in (0, 1], got {theta}"
        );
        let mut nodes: Vec<ArbNode> = Vec::new();
        let mut index: HashMap<NodeId, u32> = HashMap::new();
        let mut best: HashMap<NodeId, f64> = HashMap::new();
        let mut heap: BinaryHeap<Frontier> = BinaryHeap::new();

        heap.push(Frontier {
            prob: 1.0,
            node: root,
            parent: u32::MAX,
            edge_prob: 1.0,
            depth: 0,
        });
        best.insert(root, 1.0);

        while let Some(f) = heap.pop() {
            if index.contains_key(&f.node) {
                continue; // already settled via a better path
            }
            let my_idx = nodes.len() as u32;
            index.insert(f.node, my_idx);
            let parent = if f.parent == u32::MAX {
                None
            } else {
                Some(f.parent)
            };
            if let Some(p) = parent {
                nodes[p as usize].children.push(my_idx);
            }
            nodes.push(ArbNode {
                node: f.node,
                parent,
                children: Vec::new(),
                parent_edge_prob: f.edge_prob,
                path_prob: f.prob,
                depth: f.depth,
            });

            // expand
            let neighbors: Box<dyn Iterator<Item = (NodeId, octopus_graph::EdgeId)>> =
                match direction {
                    ArbDirection::Out => Box::new(g.out_edges(f.node)),
                    ArbDirection::In => Box::new(g.in_edges(f.node)),
                };
            for (nb, e) in neighbors {
                if index.contains_key(&nb) {
                    continue;
                }
                let ep = probs.get(e) as f64;
                if ep <= 0.0 {
                    continue;
                }
                let np = f.prob * ep;
                if np < theta {
                    continue;
                }
                let entry = best.entry(nb).or_insert(0.0);
                if np > *entry {
                    *entry = np;
                    heap.push(Frontier {
                        prob: np,
                        node: nb,
                        parent: my_idx,
                        edge_prob: ep,
                        depth: f.depth + 1,
                    });
                }
            }
        }

        Arborescence {
            root,
            direction,
            theta,
            nodes,
            index,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Direction the tree was built in.
    pub fn direction(&self) -> ArbDirection {
        self.direction
    }

    /// The pruning threshold.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of nodes (≥ 1: the root is always present).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// An arborescence is never empty (root is always there).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All nodes in settle order (root first, `path_prob` non-increasing).
    pub fn nodes(&self) -> &[ArbNode] {
        &self.nodes
    }

    /// Whether `u` made it into the tree.
    pub fn contains(&self, u: NodeId) -> bool {
        self.index.contains_key(&u)
    }

    /// The tree entry for `u`, if present.
    pub fn get(&self, u: NodeId) -> Option<&ArbNode> {
        self.index.get(&u).map(|&i| &self.nodes[i as usize])
    }

    /// Best-path probability between root and `u` (0 when pruned/absent).
    pub fn path_prob(&self, u: NodeId) -> f64 {
        self.get(u).map_or(0.0, |n| n.path_prob)
    }

    /// The best path between the root and `u`, always listed **from the
    /// root outward** (for [`ArbDirection::In`] the actual influence flows
    /// along the reversed list).
    pub(crate) fn path_to(&self, u: NodeId) -> Option<Vec<NodeId>> {
        let mut idx = *self.index.get(&u)?;
        let mut path = vec![self.nodes[idx as usize].node];
        while let Some(p) = self.nodes[idx as usize].parent {
            idx = p;
            path.push(self.nodes[idx as usize].node);
        }
        path.reverse();
        Some(path)
    }

    /// Sum of `path_prob` over all nodes — the MIA estimate of the root's
    /// influence (σ_MIA includes the root itself with probability 1).
    pub fn total_influence(&self) -> f64 {
        self.nodes.iter().map(|n| n.path_prob).sum()
    }

    /// Rebuild the arborescence with every node id passed through `f`,
    /// preserving structure, probabilities, depths and settle order.
    ///
    /// Sharded serving computes explorations on shard-local subgraphs and
    /// lifts them back into global coordinates with this; `f` must be
    /// injective over the tree's nodes or the index will silently collapse
    /// duplicates.
    pub fn remap(&self, mut f: impl FnMut(NodeId) -> NodeId) -> Arborescence {
        let nodes: Vec<ArbNode> = self
            .nodes
            .iter()
            .map(|n| ArbNode {
                node: f(n.node),
                ..n.clone()
            })
            .collect();
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.node, i as u32))
            .collect();
        Arborescence {
            root: nodes[0].node,
            direction: self.direction,
            theta: self.theta,
            nodes,
            index,
        }
    }

    /// Sum of `path_prob` over the subtree of `u`.
    pub(crate) fn subtree_mass(&self, u: NodeId) -> f64 {
        let Some(&start) = self.index.get(&u) else {
            return 0.0;
        };
        let mut stack = vec![start];
        let mut mass = 0.0f64;
        while let Some(i) = stack.pop() {
            mass += self.nodes[i as usize].path_prob;
            stack.extend(self.nodes[i as usize].children.iter().copied());
        }
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_graph::GraphBuilder;

    /// 0 →.8 1 →.8 2 →.8 3 ; 0 →.3 3 ; 2 →.9 4
    fn sample() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(5);
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.8)]).unwrap();
        b.add_edge(NodeId(1), NodeId(2), &[(0, 0.8)]).unwrap();
        b.add_edge(NodeId(2), NodeId(3), &[(0, 0.8)]).unwrap();
        b.add_edge(NodeId(0), NodeId(3), &[(0, 0.3)]).unwrap();
        b.add_edge(NodeId(2), NodeId(4), &[(0, 0.9)]).unwrap();
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

    #[test]
    fn mioa_prefers_max_probability_path() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        // path to 3: direct 0.3 vs chain 0.8³ = 0.512 → chain wins
        assert!((arb.path_prob(NodeId(3)) - 0.512).abs() < 1e-6);
        assert_eq!(
            arb.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn theta_prunes_weak_paths() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.7, ArbDirection::Out);
        // only root (1.0) and node 1 (0.8) survive θ=0.7 — the 0.64 chain is pruned
        assert_eq!(arb.len(), 2);
        assert!(arb.contains(NodeId(1)));
        assert!(!arb.contains(NodeId(2)));
        assert_eq!(arb.path_prob(NodeId(2)), 0.0);
    }

    #[test]
    fn miia_follows_reverse_edges() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(3), 0.01, ArbDirection::In);
        assert!(arb.contains(NodeId(0)));
        // who influences 3 best: 2 directly (0.8); 0 via chain (0.512)
        assert!((arb.path_prob(NodeId(2)) - 0.8).abs() < 1e-6);
        assert!((arb.path_prob(NodeId(0)) - 0.512).abs() < 1e-6);
        // the path is reported root-outward: 3 ← 2 ← 1 ← 0
        assert_eq!(
            arb.path_to(NodeId(0)).unwrap(),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn settle_order_is_non_increasing_in_probability() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        let probs: Vec<f64> = arb.nodes().iter().map(|n| n.path_prob).collect();
        for w in probs.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "settle order violated: {probs:?}");
        }
    }

    #[test]
    fn parent_child_links_are_consistent() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        for (i, n) in arb.nodes().iter().enumerate() {
            if let Some(pi) = n.parent {
                assert!(arb.nodes()[pi as usize].children.contains(&(i as u32)));
                // path prob = parent path prob × edge prob
                let expect = arb.nodes()[pi as usize].path_prob * n.parent_edge_prob;
                assert!((n.path_prob - expect).abs() < 1e-12);
            } else {
                assert_eq!(n.node, NodeId(0));
                assert_eq!(n.path_prob, 1.0);
            }
        }
    }

    #[test]
    fn total_influence_and_subtrees() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        // 1 + .8 + .64 + .512 + .576 (node 4 via 2: .64*.9)
        assert!((arb.total_influence() - (1.0 + 0.8 + 0.64 + 0.512 + 0.576)).abs() < 1e-6);
        assert!((arb.subtree_mass(NodeId(2)) - (0.64 + 0.512 + 0.576)).abs() < 1e-6);
    }

    #[test]
    fn isolated_root_is_singleton_tree() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(2);
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5)]).unwrap();
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        let arb = Arborescence::build(&g, &p, NodeId(1), 0.1, ArbDirection::Out);
        assert_eq!(arb.len(), 1);
        assert_eq!(arb.total_influence(), 1.0);
        assert_eq!(arb.path_to(NodeId(0)), None);
    }

    #[test]
    fn remap_preserves_structure_under_id_translation() {
        let (g, p) = sample();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        let shift = |u: NodeId| NodeId(u.0 + 100);
        let lifted = arb.remap(shift);
        assert_eq!(lifted.root(), NodeId(100));
        assert_eq!(lifted.len(), arb.len());
        assert_eq!(lifted.theta(), arb.theta());
        for (a, b) in arb.nodes().iter().zip(lifted.nodes()) {
            assert_eq!(shift(a.node), b.node);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.children, b.children);
            assert_eq!(a.path_prob, b.path_prob);
            assert_eq!(a.depth, b.depth);
        }
        // lookups work in the new coordinate space
        assert_eq!(lifted.path_prob(NodeId(103)), arb.path_prob(NodeId(3)));
        assert_eq!(
            lifted.path_to(NodeId(103)).unwrap(),
            vec![NodeId(100), NodeId(101), NodeId(102), NodeId(103)]
        );
        assert!(!lifted.contains(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn zero_theta_rejected() {
        let (g, p) = sample();
        let _ = Arborescence::build(&g, &p, NodeId(0), 0.0, ArbDirection::Out);
    }
}
