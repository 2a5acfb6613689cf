//! Induced subgraph extraction.
//!
//! Analysis services frequently work on a neighborhood rather than the whole
//! network: the LG bound estimator explores a ball, the path UI zooms into a
//! cluster, and offline jobs shard the graph. [`induced`] materializes the
//! subgraph spanned by a node set while preserving all per-topic edge
//! probabilities, returning the id mapping in both directions.

use crate::builder::GraphBuilder;
use crate::csr::TopicGraph;
use crate::ids::NodeId;
use crate::Result;
use std::collections::{HashMap, VecDeque};

/// A materialized induced subgraph with id mappings.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The subgraph itself (nodes renumbered densely, names preserved).
    pub graph: TopicGraph,
    /// `to_sub[original] = sub id` for members.
    pub to_sub: HashMap<NodeId, NodeId>,
    /// `to_original[sub.index()] = original id`.
    pub to_original: Vec<NodeId>,
}

impl Subgraph {
    /// Map a subgraph node id back to the original graph.
    pub fn lift(&self, u: NodeId) -> NodeId {
        self.to_original[u.index()]
    }
}

/// Build the subgraph induced by `members` (duplicates ignored; order
/// defines the new ids). Edges whose endpoints are both members are copied
/// with their full sparse topic-probability vectors.
pub fn induced(g: &TopicGraph, members: &[NodeId]) -> Result<Subgraph> {
    let mut to_sub: HashMap<NodeId, NodeId> = HashMap::with_capacity(members.len());
    let mut to_original: Vec<NodeId> = Vec::with_capacity(members.len());
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(members.len(), members.len() * 4);
    for &u in members {
        g.check_node(u)?;
        if to_sub.contains_key(&u) {
            continue;
        }
        let sub_id = b.add_node(g.name(u).unwrap_or("").to_string());
        to_sub.insert(u, sub_id);
        to_original.push(u);
    }
    for (&orig, &sub_u) in &to_sub {
        for (v, e) in g.out_edges(orig) {
            if let Some(&sub_v) = to_sub.get(&v) {
                let probs: Vec<(usize, f64)> = g
                    .edge_topic_probs(e)
                    .map(|(z, p)| (z.index(), p as f64))
                    .collect();
                b.add_edge(sub_u, sub_v, &probs)?;
            }
        }
    }
    Ok(Subgraph {
        graph: b.build()?,
        to_sub,
        to_original,
    })
}

/// A locality-based K-way split of a graph into induced subgraphs.
///
/// Produced by [`partition`]. Every node belongs to exactly one shard;
/// `owner[u.index()]` names it. Shards never split a weakly connected
/// component, so influence computation (which cannot cross components)
/// is exact per shard.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The shard subgraphs, each with its id mappings. May be fewer than
    /// the requested `k` when the graph has fewer components.
    pub shards: Vec<Subgraph>,
    /// `owner[original.index()] = shard index` into `shards`.
    pub owner: Vec<u32>,
}

impl Partition {
    /// Number of shards actually produced.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the partition holds no shards (empty input graph).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning original node `u`, if in range.
    pub fn owner_of(&self, u: NodeId) -> Option<usize> {
        self.owner.get(u.index()).map(|&s| s as usize)
    }
}

/// Partition `g` into at most `k` locality-based shards.
///
/// Whole weakly connected components are assigned to shards — influence
/// never crosses a component boundary, so per-shard analysis stays exact
/// and no edge is ever cut. Assignment is a deterministic greedy bin-pack:
/// components ordered by (size desc, min node id asc) go to the currently
/// lightest shard (ties broken by lowest shard index). Each shard's member
/// list is sorted ascending by original id, so subgraph ids preserve the
/// original relative order within a shard and renumbering-sensitive
/// tie-breaks (lowest-id-wins selections, summation order) agree with the
/// whole graph.
///
/// Returns fewer than `k` shards when the graph has fewer components than
/// `k`; empty shards are never produced. `k = 0` is treated as `k = 1`.
pub fn partition(g: &TopicGraph, k: usize) -> Result<Partition> {
    let k = k.max(1);
    let n = g.node_count();
    if n == 0 {
        return Ok(Partition {
            shards: Vec::new(),
            owner: Vec::new(),
        });
    }
    let (comp, num_comps) = weakly_connected_components(g);
    // component -> (size, min node id)
    let mut size = vec![0usize; num_comps];
    let mut min_id = vec![u32::MAX; num_comps];
    for (u, &c) in comp.iter().enumerate() {
        size[c as usize] += 1;
        min_id[c as usize] = min_id[c as usize].min(u as u32);
    }
    let mut order: Vec<u32> = (0..num_comps as u32).collect();
    order.sort_by(|&a, &b| {
        size[b as usize]
            .cmp(&size[a as usize])
            .then(min_id[a as usize].cmp(&min_id[b as usize]))
    });
    let num_shards = k.min(num_comps);
    let mut load = vec![0usize; num_shards];
    let mut comp_shard = vec![0u32; num_comps];
    for &c in &order {
        let lightest = (0..num_shards)
            .min_by_key(|&s| (load[s], s))
            .expect("at least one shard");
        comp_shard[c as usize] = lightest as u32;
        load[lightest] += size[c as usize];
    }
    // members per shard in ascending original-id order (single pass over
    // 0..n preserves it)
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
    let mut owner = vec![0u32; n];
    for (u, &c) in comp.iter().enumerate() {
        let s = comp_shard[c as usize];
        owner[u] = s;
        members[s as usize].push(NodeId(u as u32));
    }
    let shards = members
        .iter()
        .map(|m| induced(g, m))
        .collect::<Result<Vec<_>>>()?;
    Ok(Partition { shards, owner })
}

/// Weakly connected components; returns a component id per node and the
/// number of components.
fn weakly_connected_components(g: &TopicGraph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut comp = vec![u32::MAX; n];
    let mut next_comp = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next_comp;
        queue.push_back(NodeId(s as u32));
        while let Some(u) = queue.pop_front() {
            for (v, _) in g.out_edges(u).chain(g.in_edges(u)) {
                if comp[v.index()] == u32::MAX {
                    comp[v.index()] = next_comp;
                    queue.push_back(v);
                }
            }
        }
        next_comp += 1;
    }
    (comp, next_comp as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        for i in 0..6 {
            b.add_node(format!("u{i}"));
        }
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (1, 0.2)])
            .unwrap();
        b.add_edge(NodeId(1), NodeId(2), &[(0, 0.4)]).unwrap();
        b.add_edge(NodeId(2), NodeId(3), &[(1, 0.3)]).unwrap();
        b.add_edge(NodeId(3), NodeId(4), &[(0, 0.9)]).unwrap();
        b.add_edge(NodeId(0), NodeId(5), &[(0, 0.1)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = sample();
        let sub = induced(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(sub.graph.node_count(), 3);
        assert_eq!(sub.graph.edge_count(), 2); // 0→1, 1→2; 2→3 and 0→5 cross the boundary
                                               // names preserved
        assert_eq!(sub.graph.name(sub.to_sub[&NodeId(1)]), Some("u1"));
    }

    #[test]
    fn probabilities_survive_projection() {
        let g = sample();
        let sub = induced(&g, &[NodeId(0), NodeId(1)]).unwrap();
        let su = sub.to_sub[&NodeId(0)];
        let sv = sub.to_sub[&NodeId(1)];
        let e = sub.graph.find_edge(su, sv).unwrap();
        assert_eq!(sub.graph.edge_prob_topic(e, crate::TopicId(0)), 0.5);
        assert_eq!(sub.graph.edge_prob_topic(e, crate::TopicId(1)), 0.2);
    }

    #[test]
    fn mapping_round_trips() {
        let g = sample();
        let members = [NodeId(4), NodeId(2), NodeId(0)];
        let sub = induced(&g, &members).unwrap();
        for &m in &members {
            let s = sub.to_sub[&m];
            assert_eq!(sub.lift(s), m);
        }
        assert_eq!(sub.to_sub.get(&NodeId(5)), None);
    }

    #[test]
    fn duplicates_are_ignored() {
        let g = sample();
        let sub = induced(&g, &[NodeId(1), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(sub.graph.node_count(), 2);
    }

    #[test]
    fn out_of_bounds_member_errors() {
        let g = sample();
        assert!(induced(&g, &[NodeId(99)]).is_err());
    }

    /// 0→1→2 (comp A, 3 nodes), 3→4 (comp B, 2 nodes), 5 isolated (comp C).
    fn three_components() -> TopicGraph {
        let mut b = GraphBuilder::new(1);
        for i in 0..6 {
            b.add_node(format!("u{i}"));
        }
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            b.add_edge(NodeId(u), NodeId(v), &[(0, 0.5)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn partition_never_splits_a_component() {
        let g = three_components();
        for k in 1..=4 {
            let p = partition(&g, k).unwrap();
            // endpoints of every original edge share a shard
            for e in g.edges() {
                let (u, v) = g.edge_endpoints(e).unwrap();
                assert_eq!(p.owner[u.index()], p.owner[v.index()]);
            }
            // every node appears in exactly one shard, total coverage
            let total: usize = p.shards.iter().map(|s| s.graph.node_count()).sum();
            assert_eq!(total, g.node_count());
            assert_eq!(g.edge_count(), {
                let edges: usize = p.shards.iter().map(|s| s.graph.edge_count()).sum();
                edges
            });
        }
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        let g = three_components();
        let p = partition(&g, 2).unwrap();
        assert_eq!(p.len(), 2);
        // biggest component (0,1,2) to shard 0, then (3,4) to shard 1,
        // then singleton 5 to the lighter shard 1
        assert_eq!(p.owner, vec![0, 0, 0, 1, 1, 1]);
        let p2 = partition(&g, 2).unwrap();
        assert_eq!(p.owner, p2.owner);
    }

    #[test]
    fn partition_caps_at_component_count() {
        let g = three_components();
        let p = partition(&g, 8).unwrap();
        assert_eq!(p.len(), 3); // only 3 components; no empty shards
        assert!(p.shards.iter().all(|s| s.graph.node_count() > 0));
    }

    #[test]
    fn partition_members_keep_ascending_original_order() {
        let g = three_components();
        let p = partition(&g, 2).unwrap();
        for sub in &p.shards {
            let mut sorted = sub.to_original.clone();
            sorted.sort();
            assert_eq!(sub.to_original, sorted);
        }
        // lift/project round-trip through the owner map
        for u in 0..g.node_count() {
            let u = NodeId(u as u32);
            let s = p.owner_of(u).unwrap();
            let sub = &p.shards[s];
            assert_eq!(sub.lift(sub.to_sub[&u]), u);
        }
    }

    #[test]
    fn partition_of_empty_graph_is_empty() {
        let g = GraphBuilder::new(1).build().unwrap();
        let p = partition(&g, 4).unwrap();
        assert!(p.is_empty());
        assert!(p.owner.is_empty());
    }

    #[test]
    fn ball_subgraph_matches_local_structure() {
        // the LG-bound use case: subgraph of the radius-2 forward ball
        // around node 0
        let g = sample();
        let members = [0, 1, 5, 2].map(NodeId);
        let sub = induced(&g, &members).unwrap();
        assert!(sub.graph.node_count() >= 4); // 0,1,2,5 at least
                                              // every subgraph edge exists in the original with equal max prob
        for e in sub.graph.edges() {
            let (su, sv) = sub.graph.edge_endpoints(e).unwrap();
            let (u, v) = (sub.lift(su), sub.lift(sv));
            let orig = g.find_edge(u, v).expect("edge must exist in original");
            assert_eq!(g.edge_prob_max(orig), sub.graph.edge_prob_max(e));
        }
    }

    #[test]
    fn wcc_counts_components() {
        // 0→1→2, 3→4
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(5);
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            b.add_edge(NodeId(u), NodeId(v), &[(0, 0.5)]).unwrap();
        }
        let g = b.build().unwrap();
        let (comp, k) = weakly_connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }
}
