//! Influential-path exploration services (Scenario 3).
//!
//! The OCTOPUS UI visualizes a researcher's MIOA, sizes nodes by influence
//! effect, highlights the paths through a clicked node, and lets the user
//! spot "clusters" — the distinct communities the root influences. This
//! module computes all of that from an [`Arborescence`].

use crate::arborescence::Arborescence;
use octopus_graph::NodeId;

/// One influential path with its MIA probability.
#[derive(Debug, Clone, PartialEq)]
pub struct InfluencePath {
    /// Path nodes, starting at the arborescence root.
    pub nodes: Vec<NodeId>,
    /// Product of edge probabilities along the path.
    pub prob: f64,
}

/// A cluster of influenced users: one subtree hanging off the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The root's child heading this subtree.
    pub head: NodeId,
    /// Number of users in the subtree.
    pub size: usize,
    /// Total influence mass (Σ path probabilities) of the subtree.
    pub mass: f64,
    /// All subtree members (head first, BFS order).
    pub members: Vec<NodeId>,
}

/// Exploration facade over an arborescence.
#[derive(Debug, Clone)]
pub struct PathExplorer<'a> {
    arb: &'a Arborescence,
}

impl<'a> PathExplorer<'a> {
    /// Wrap an arborescence.
    pub fn new(arb: &'a Arborescence) -> Self {
        PathExplorer { arb }
    }

    /// The `k` most probable influence paths (to distinct endpoints,
    /// root excluded), strongest first.
    pub fn top_paths(&self, k: usize) -> Vec<InfluencePath> {
        // settle order is already sorted by descending path_prob
        self.arb
            .nodes()
            .iter()
            .skip(1)
            .take(k)
            .map(|n| InfluencePath {
                nodes: self.arb.path_to(n.node).expect("tree member has a path"),
                prob: n.path_prob,
            })
            .collect()
    }

    /// All maximal paths passing through `via` (the click-to-highlight
    /// interaction): the root→via prefix extended to every leaf below
    /// `via`. Returns just the root→via path when `via` is a leaf; empty
    /// when `via` is absent from the tree.
    pub fn paths_through(&self, via: NodeId) -> Vec<InfluencePath> {
        let Some(via_node) = self.arb.get(via) else {
            return Vec::new();
        };
        if via_node.children.is_empty() {
            return vec![InfluencePath {
                nodes: self.arb.path_to(via).expect("member"),
                prob: via_node.path_prob,
            }];
        }
        // collect leaves under `via`
        let nodes = self.arb.nodes();
        let via_idx = nodes
            .iter()
            .position(|n| n.node == via)
            .expect("checked membership above") as u32;
        let mut leaves = Vec::new();
        let mut stack = vec![via_idx];
        while let Some(i) = stack.pop() {
            let n = &nodes[i as usize];
            if n.children.is_empty() {
                leaves.push(i);
            } else {
                stack.extend(n.children.iter().copied());
            }
        }
        let mut out: Vec<InfluencePath> = leaves
            .into_iter()
            .map(|leaf| {
                let n = &nodes[leaf as usize];
                InfluencePath {
                    nodes: self.arb.path_to(n.node).expect("member"),
                    prob: n.path_prob,
                }
            })
            .collect();
        out.sort_by(|a, b| b.prob.partial_cmp(&a.prob).expect("finite probs"));
        out
    }

    /// The influence clusters: one per root child, sorted by descending
    /// mass. "The influenced users roughly form some clusters, which may
    /// represent different groups influenced by [the root]."
    pub fn clusters(&self) -> Vec<Cluster> {
        let nodes = self.arb.nodes();
        let root = &nodes[0];
        let mut out = Vec::with_capacity(root.children.len());
        for &c in &root.children {
            let head = nodes[c as usize].node;
            let mut members = Vec::new();
            let mut queue = std::collections::VecDeque::from([c]);
            let mut mass = 0.0;
            while let Some(i) = queue.pop_front() {
                let n = &nodes[i as usize];
                members.push(n.node);
                mass += n.path_prob;
                queue.extend(n.children.iter().copied());
            }
            out.push(Cluster {
                head,
                size: members.len(),
                mass,
                members,
            });
        }
        out.sort_by(|a, b| b.mass.partial_cmp(&a.mass).expect("finite mass"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arborescence::ArbDirection;
    use octopus_graph::{EdgeProbs, GraphBuilder, TopicGraph};

    /// root 0 with two "communities": {1,2,3} via 1, {4,5} via 4.
    fn two_communities() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(6);
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.9)]).unwrap();
        b.add_edge(NodeId(1), NodeId(2), &[(0, 0.8)]).unwrap();
        b.add_edge(NodeId(1), NodeId(3), &[(0, 0.7)]).unwrap();
        b.add_edge(NodeId(0), NodeId(4), &[(0, 0.6)]).unwrap();
        b.add_edge(NodeId(4), NodeId(5), &[(0, 0.5)]).unwrap();
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

    fn arb() -> Arborescence {
        let (g, p) = two_communities();
        Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out)
    }

    #[test]
    fn top_paths_sorted_by_probability() {
        let a = arb();
        let ex = PathExplorer::new(&a);
        let paths = ex.top_paths(3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes, vec![NodeId(0), NodeId(1)]);
        assert!((paths[0].prob - 0.9).abs() < 1e-6);
        for w in paths.windows(2) {
            assert!(w[0].prob >= w[1].prob);
        }
    }

    #[test]
    fn paths_through_interior_node_reach_all_leaves() {
        let a = arb();
        let ex = PathExplorer::new(&a);
        let through1 = ex.paths_through(NodeId(1));
        assert_eq!(through1.len(), 2); // to 2 and to 3
        assert!(through1.iter().all(|p| p.nodes.contains(&NodeId(1))));
        // strongest first: 0→1→2 (0.72) over 0→1→3 (0.63)
        assert_eq!(*through1[0].nodes.last().unwrap(), NodeId(2));
    }

    #[test]
    fn paths_through_leaf_is_single_path() {
        let a = arb();
        let ex = PathExplorer::new(&a);
        let through5 = ex.paths_through(NodeId(5));
        assert_eq!(through5.len(), 1);
        assert_eq!(through5[0].nodes, vec![NodeId(0), NodeId(4), NodeId(5)]);
        assert!((through5[0].prob - 0.3).abs() < 1e-6);
    }

    #[test]
    fn paths_through_absent_node_is_empty() {
        let a = arb();
        let ex = PathExplorer::new(&a);
        // rebuild with tight theta so node 5 is pruned
        let (g, p) = two_communities();
        let tight = Arborescence::build(&g, &p, NodeId(0), 0.5, ArbDirection::Out);
        assert!(PathExplorer::new(&tight)
            .paths_through(NodeId(5))
            .is_empty());
        assert!(!ex.paths_through(NodeId(5)).is_empty());
    }

    #[test]
    fn clusters_split_by_root_children() {
        let a = arb();
        let ex = PathExplorer::new(&a);
        let clusters = ex.clusters();
        assert_eq!(clusters.len(), 2);
        // community via 1 has more mass (.9 + .72 + .63) than via 4 (.6 + .3)
        assert_eq!(clusters[0].head, NodeId(1));
        assert_eq!(clusters[0].size, 3);
        assert_eq!(clusters[1].head, NodeId(4));
        assert!((clusters[0].mass - 2.25).abs() < 1e-6);
        assert!(clusters[0].members.contains(&NodeId(3)));
    }
}
