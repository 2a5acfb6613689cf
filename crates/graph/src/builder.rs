//! Incremental construction of [`TopicGraph`]s.

use crate::csr::TopicGraph;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// One edge's sparse `(topic, prob)` pairs, topic-sorted, no zero entry.
pub(crate) type Row = Vec<(u16, f32)>;

/// One staged edge record: `(source, target, sparse (topic, prob) pairs)`.
pub(crate) type EdgeRecord = (u32, u32, Row);

/// Builder for [`TopicGraph`].
///
/// Collects nodes and edges in any order, then [`GraphBuilder::build`] sorts
/// them into CSR form. Parallel edges are merged by **keeping the
/// maximum probability per topic** (the standard treatment when several
/// action-log estimates exist for one edge); self-loops are rejected because
/// they are meaningless under the IC model.
///
/// ```
/// use octopus_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(1);
/// let u = b.add_node("u");
/// let v = b.add_node("v");
/// b.add_edge(u, v, &[(0, 0.25)]).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_topics: usize,
    pub(crate) names: Vec<String>,
    pub(crate) named: bool,
    pub(crate) name_index: HashMap<String, NodeId>,
    /// (src, dst, sparse probs sorted by topic)
    pub(crate) edges: Vec<EdgeRecord>,
}

impl GraphBuilder {
    /// Create a builder for a graph over `num_topics` topics.
    ///
    /// # Panics
    /// Panics if `num_topics == 0` or exceeds `u16::MAX`.
    pub fn new(num_topics: usize) -> Self {
        assert!(num_topics > 0, "a topic graph needs at least one topic");
        assert!(
            num_topics <= u16::MAX as usize,
            "too many topics for u16 ids"
        );
        GraphBuilder {
            num_topics,
            names: Vec::new(),
            named: false,
            name_index: HashMap::new(),
            edges: Vec::new(),
        }
    }

    /// Pre-size internal buffers (builder-pattern hint, no semantic effect).
    pub fn with_capacity(mut self, nodes: usize, edges: usize) -> Self {
        self.names.reserve(nodes);
        self.edges.reserve(edges);
        self
    }

    /// Number of topics the builder was created with.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of edge records added so far (before dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a named node; returns its dense id. Names must be unique — use
    /// [`GraphBuilder::add_anonymous_node`] (or empty names) otherwise.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        let id = NodeId(self.names.len() as u32);
        if !name.is_empty() {
            self.named = true;
            self.name_index.insert(name.clone(), id);
        }
        self.names.push(name);
        id
    }

    /// Add a node with a unique name, failing on duplicates.
    pub fn try_add_node(&mut self, name: impl Into<String>) -> Result<NodeId> {
        let name = name.into();
        if !name.is_empty() && self.name_index.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        Ok(self.add_node(name))
    }

    /// Add an unnamed node.
    pub fn add_anonymous_node(&mut self) -> NodeId {
        self.add_node(String::new())
    }

    /// Add `n` unnamed nodes, returning the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.names.len() as u32);
        for _ in 0..n {
            self.add_anonymous_node();
        }
        first
    }

    /// Add a directed edge `u → v` with sparse per-topic probabilities.
    ///
    /// `probs` is a list of `(topic, probability)` pairs; order does not
    /// matter, duplicates within one call keep the max. Zero-probability
    /// entries are dropped. An edge whose entries are all zero is dropped
    /// entirely at [`GraphBuilder::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, probs: &[(usize, f64)]) -> Result<()> {
        self.check_endpoints(u, v)?;
        let row = sparse_row(self.num_topics, probs)?;
        self.edges.push((u.0, v.0, row));
        Ok(())
    }

    /// Both endpoints in range and distinct.
    pub(crate) fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<()> {
        for w in [u, v] {
            if w.index() >= self.names.len() {
                return Err(GraphError::NodeOutOfBounds {
                    node: w.0,
                    len: self.names.len(),
                });
            }
        }
        if u == v {
            // Self-influence is a no-op under IC; reject loudly so data bugs
            // surface early.
            return Err(GraphError::NoSuchEdge { from: u.0, to: v.0 });
        }
        Ok(())
    }

    /// Finalize into CSR form.
    pub fn build(mut self) -> Result<TopicGraph> {
        let n = self.names.len();
        // Sort edges by (src, dst) and merge parallels (max per topic).
        self.edges.sort_unstable_by_key(|e| (e.0, e.1));
        let mut merged: Vec<EdgeRecord> = Vec::with_capacity(self.edges.len());
        for (u, v, probs) in self.edges.drain(..) {
            match merged.last_mut() {
                Some((lu, lv, lp)) if *lu == u && *lv == v => *lp = merge_max(lp, &probs),
                _ => merged.push((u, v, probs)),
            }
        }
        // Drop all-zero edges.
        merged.retain(|(_, _, p)| !p.is_empty());

        let m = merged.len();
        let mut fwd_offsets = vec![0u32; n + 1];
        let mut fwd_targets = Vec::with_capacity(m);
        let mut prob_offsets = Vec::with_capacity(m + 1);
        let mut prob_topics = Vec::new();
        let mut prob_values = Vec::new();
        prob_offsets.push(0u32);

        for (u, v, probs) in &merged {
            fwd_offsets[*u as usize + 1] += 1;
            fwd_targets.push(*v);
            for &(z, p) in probs {
                prob_topics.push(z);
                prob_values.push(p);
            }
            prob_offsets.push(prob_topics.len() as u32);
        }
        for i in 0..n {
            fwd_offsets[i + 1] += fwd_offsets[i];
        }

        // Reverse CSR.
        let mut rev_offsets = vec![0u32; n + 1];
        for (_, v, _) in &merged {
            rev_offsets[*v as usize + 1] += 1;
        }
        for i in 0..n {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut rev_sources = vec![0u32; m];
        let mut rev_edge_ids = vec![0u32; m];
        let mut cursor = rev_offsets.clone();
        for (e, (u, v, _)) in merged.iter().enumerate() {
            let slot = cursor[*v as usize] as usize;
            rev_sources[slot] = *u;
            rev_edge_ids[slot] = e as u32;
            cursor[*v as usize] += 1;
        }

        let names = if self.named {
            self.names
        } else {
            vec![String::new(); n]
        };
        Ok(TopicGraph {
            num_topics: self.num_topics,
            names: names.into(),
            name_index: Arc::new(self.name_index),
            fwd_offsets: fwd_offsets.into(),
            fwd_targets: fwd_targets.into(),
            rev_offsets: rev_offsets.into(),
            rev_sources: rev_sources.into(),
            rev_edge_ids: rev_edge_ids.into(),
            prob_offsets,
            prob_topics,
            prob_values,
        })
    }
}

/// Validate `probs` into a stored row: topics in range, probabilities
/// finite in `[0, 1]`; zero entries dropped, topic-sorted, duplicates
/// merged by max.
pub(crate) fn sparse_row(num_topics: usize, probs: &[(usize, f64)]) -> Result<Row> {
    let mut sparse: Row = Vec::with_capacity(probs.len());
    for &(z, p) in probs {
        if z >= num_topics {
            return Err(GraphError::TopicOutOfBounds {
                topic: z,
                num_topics,
            });
        }
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(GraphError::InvalidProbability(p));
        }
        if p > 0.0 {
            sparse.push((z as u16, p as f32));
        }
    }
    sparse.sort_unstable_by_key(|&(z, _)| z);
    sparse.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 = b.1.max(a.1);
            true
        } else {
            false
        }
    });
    Ok(sparse)
}

/// The union of two rows, keeping the maximum probability per topic — how
/// parallel edges merge.
pub(crate) fn merge_max(a: &[(u16, f32)], b: &[(u16, f32)]) -> Row {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1.max(b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TopicId;

    #[test]
    fn rejects_bad_inputs() {
        let mut b = GraphBuilder::new(2);
        let u = b.add_node("u");
        let v = b.add_node("v");
        assert!(b.add_edge(u, NodeId(9), &[(0, 0.5)]).is_err());
        assert!(b.add_edge(u, v, &[(5, 0.5)]).is_err());
        assert!(b.add_edge(u, v, &[(0, 1.5)]).is_err());
        assert!(b.add_edge(u, v, &[(0, f64::NAN)]).is_err());
        assert!(
            b.add_edge(u, u, &[(0, 0.2)]).is_err(),
            "self loops rejected"
        );
    }

    #[test]
    fn duplicate_names_detected_by_try_add() {
        let mut b = GraphBuilder::new(1);
        b.try_add_node("x").unwrap();
        assert!(matches!(
            b.try_add_node("x"),
            Err(GraphError::DuplicateName(_))
        ));
        // anonymous duplicates fine
        b.add_anonymous_node();
        b.add_anonymous_node();
        assert_eq!(b.node_count(), 3);
    }

    #[test]
    fn parallel_edges_merge_with_max() {
        let mut b = GraphBuilder::new(2);
        let u = b.add_node("u");
        let v = b.add_node("v");
        b.add_edge(u, v, &[(0, 0.3), (1, 0.1)]).unwrap();
        b.add_edge(u, v, &[(0, 0.6)]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        let e = g.find_edge(u, v).unwrap();
        assert_eq!(g.edge_prob_topic(e, TopicId(0)), 0.6);
        assert_eq!(g.edge_prob_topic(e, TopicId(1)), 0.1);
    }

    #[test]
    fn duplicate_topics_within_one_call_keep_max() {
        let mut b = GraphBuilder::new(2);
        let u = b.add_node("u");
        let v = b.add_node("v");
        b.add_edge(u, v, &[(1, 0.2), (1, 0.5), (0, 0.1)]).unwrap();
        let g = b.build().unwrap();
        let e = g.find_edge(u, v).unwrap();
        assert_eq!(g.edge_prob_topic(e, TopicId(1)), 0.5);
        assert_eq!(g.edge_nnz(e), 2);
    }

    #[test]
    fn zero_prob_entries_dropped_and_empty_edges_removed() {
        let mut b = GraphBuilder::new(2);
        let u = b.add_node("u");
        let v = b.add_node("v");
        b.add_edge(u, v, &[(0, 0.0), (1, 0.0)]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.num_topics(), 4);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(5);
        b.add_edge(NodeId(1), NodeId(3), &[(0, 0.9)]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.out_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(4)), 0);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.in_degree(NodeId(3)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_panics() {
        let _ = GraphBuilder::new(0);
    }

    #[test]
    fn edge_ids_sorted_by_source_then_target() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(4);
        // inserted out of order on purpose
        b.add_edge(NodeId(2), NodeId(0), &[(0, 0.1)]).unwrap();
        b.add_edge(NodeId(0), NodeId(3), &[(0, 0.2)]).unwrap();
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.3)]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            g.edge_endpoints(crate::EdgeId(0)).unwrap(),
            (NodeId(0), NodeId(1))
        );
        assert_eq!(
            g.edge_endpoints(crate::EdgeId(1)).unwrap(),
            (NodeId(0), NodeId(3))
        );
        assert_eq!(
            g.edge_endpoints(crate::EdgeId(2)).unwrap(),
            (NodeId(2), NodeId(0))
        );
    }
}
