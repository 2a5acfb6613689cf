//! Compressed sparse-row topic graph: the core substrate type.

use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId, TopicId};
use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// A directed social graph with per-edge, per-topic activation probabilities
/// (the topic-aware IC model of OCTOPUS §II-B).
///
/// Representation: forward and reverse CSR adjacency plus a third CSR-like
/// arena holding each edge's *sparse* topic-probability vector. Edge `e`'s
/// probabilities live in
/// `prob_topics[prob_offsets[e] .. prob_offsets[e+1]]` (sorted by topic) and
/// `prob_values[..]` in parallel. Sparse storage matters: in real
/// topic-aware networks the probability mass of an edge concentrates on a
/// handful of topics (observed by Chen et al., PVLDB'15), so dense `Z`-vectors
/// would waste an order of magnitude of memory.
///
/// [`EdgeId`]s are assigned in forward-CSR order (sorted by source, then
/// target), so any `Vec` indexed by `EdgeId` is a valid per-edge side table.
///
/// The topology (both CSRs) and the names sit behind [`Arc`]s, and only the
/// weight arena is owned: a batch that moves weights only
/// ([`crate::delta::apply_all`]) shares the topology of the graph it
/// applies to and copies just the three weight arrays. An `Arc<[u32]>` is a
/// pointer and a length like a `Vec<u32>`, so reading it costs the kernels
/// the same loads.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicGraph {
    pub(crate) num_topics: usize,
    /// Node display names; all empty when the graph is anonymous.
    pub(crate) names: Arc<[String]>,
    /// Name → node lookup (present only when names are).
    pub(crate) name_index: Arc<HashMap<String, NodeId>>,

    // Forward CSR: out-edges of u are fwd_targets[fwd_offsets[u]..fwd_offsets[u+1]].
    pub(crate) fwd_offsets: Arc<[u32]>,
    pub(crate) fwd_targets: Arc<[u32]>,

    // Reverse CSR: in-edges of v are rev_sources[rev_offsets[v]..rev_offsets[v+1]],
    // with rev_edge_ids mapping each slot back to the forward EdgeId.
    pub(crate) rev_offsets: Arc<[u32]>,
    pub(crate) rev_sources: Arc<[u32]>,
    pub(crate) rev_edge_ids: Arc<[u32]>,

    // Sparse per-edge topic probabilities.
    pub(crate) prob_offsets: Vec<u32>,
    pub(crate) prob_topics: Vec<u16>,
    pub(crate) prob_values: Vec<f32>,
}

impl TopicGraph {
    /// Number of nodes.
    #[inline(always)]
    pub fn node_count(&self) -> usize {
        self.fwd_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline(always)]
    pub fn edge_count(&self) -> usize {
        self.fwd_targets.len()
    }

    /// Number of topics `Z` the model was built with.
    #[inline(always)]
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// Validate a node id.
    #[inline]
    pub fn check_node(&self, u: NodeId) -> Result<()> {
        if u.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node: u.0,
                len: self.node_count(),
            })
        }
    }

    /// Validate an edge id.
    #[inline]
    pub fn check_edge(&self, e: EdgeId) -> Result<()> {
        if e.index() < self.edge_count() {
            Ok(())
        } else {
            Err(GraphError::EdgeOutOfBounds {
                edge: e.0,
                len: self.edge_count(),
            })
        }
    }

    /// Validate a `γ` slice against `Z`.
    #[inline]
    pub fn check_gamma(&self, gamma: &[f64]) -> Result<()> {
        if gamma.len() == self.num_topics {
            Ok(())
        } else {
            Err(GraphError::DimensionMismatch {
                expected: self.num_topics,
                got: gamma.len(),
            })
        }
    }

    /// Display name of `u`, if the graph carries names.
    pub fn name(&self, u: NodeId) -> Option<&str> {
        self.names
            .get(u.index())
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// Look a node up by its exact display name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// All node names (aligned with node ids); empty if anonymous.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let i = u.index();
        (self.fwd_offsets[i + 1] - self.fwd_offsets[i]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.rev_offsets[i + 1] - self.rev_offsets[i]) as usize
    }

    /// Out-neighbors of `u` with the connecting edge id.
    ///
    /// Edge ids of out-edges are contiguous: `fwd_offsets[u] .. fwd_offsets[u+1]`.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let i = u.index();
        let lo = self.fwd_offsets[i] as usize;
        let hi = self.fwd_offsets[i + 1] as usize;
        self.fwd_targets[lo..hi]
            .iter()
            .zip(lo as u32..hi as u32)
            .map(|(&t, e)| (NodeId(t), EdgeId(e)))
    }

    /// In-neighbors of `v` with the connecting edge id.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let i = v.index();
        let lo = self.rev_offsets[i] as usize;
        let hi = self.rev_offsets[i + 1] as usize;
        self.rev_sources[lo..hi]
            .iter()
            .zip(self.rev_edge_ids[lo..hi].iter())
            .map(|(&s, &e)| (NodeId(s), EdgeId(e)))
    }

    /// Source and target of edge `e`.
    pub fn edge_endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId)> {
        self.check_edge(e)?;
        let v = NodeId(self.fwd_targets[e.index()]);
        // Binary search the source in fwd_offsets: the source u is the node
        // whose slot range contains e.
        let u = match self.fwd_offsets.binary_search(&e.0) {
            // offsets may contain repeated values for empty nodes; take the
            // *last* node whose offset equals e.0
            Ok(mut i) => {
                while i + 1 < self.fwd_offsets.len() && self.fwd_offsets[i + 1] == e.0 {
                    i += 1;
                }
                NodeId(i as u32)
            }
            Err(i) => NodeId((i - 1) as u32),
        };
        Ok((u, v))
    }

    /// Find the edge id from `u` to `v`, if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.check_node(u).ok()?;
        self.check_node(v).ok()?;
        let i = u.index();
        let lo = self.fwd_offsets[i] as usize;
        let hi = self.fwd_offsets[i + 1] as usize;
        // targets within a source are sorted by the builder.
        let slice = &self.fwd_targets[lo..hi];
        slice
            .binary_search(&v.0)
            .ok()
            .map(|off| EdgeId((lo + off) as u32))
    }

    /// Sparse topic probabilities of edge `e`: `(topic, pp^z)` pairs sorted
    /// by topic.
    #[inline]
    pub fn edge_topic_probs(&self, e: EdgeId) -> impl Iterator<Item = (TopicId, f32)> + '_ {
        let lo = self.prob_offsets[e.index()] as usize;
        let hi = self.prob_offsets[e.index() + 1] as usize;
        self.prob_topics[lo..hi]
            .iter()
            .zip(self.prob_values[lo..hi].iter())
            .map(|(&z, &p)| (TopicId(z), p))
    }

    /// Effective activation probability `pp_e(γ) = Σ_z pp^z_e γ_z`.
    ///
    /// `gamma` must have length [`Self::num_topics`]; this is *not* checked
    /// here (hot path) — use [`Self::check_gamma`] at query entry.
    #[inline]
    pub fn edge_prob(&self, e: EdgeId, gamma: &[f64]) -> f64 {
        debug_assert_eq!(gamma.len(), self.num_topics);
        let lo = self.prob_offsets[e.index()] as usize;
        let hi = self.prob_offsets[e.index() + 1] as usize;
        let mut acc = 0.0f64;
        for (z, p) in self.prob_topics[lo..hi]
            .iter()
            .zip(self.prob_values[lo..hi].iter())
        {
            acc += (*p as f64) * gamma[*z as usize];
        }
        // Guard against fp drift beyond 1.0 (convex combination can't exceed
        // the max entry, but accumulated f32→f64 noise can nudge past it).
        acc.min(1.0)
    }

    /// Effective activation probability of the edge `(u, v)` under `γ`.
    pub fn edge_prob_uv(&self, u: NodeId, v: NodeId, gamma: &[f64]) -> Result<f64> {
        self.check_gamma(gamma)?;
        let e = self
            .find_edge(u, v)
            .ok_or(GraphError::NoSuchEdge { from: u.0, to: v.0 })?;
        Ok(self.edge_prob(e, gamma))
    }

    /// Probability of `e` under the *pure* topic `z` (a corner of the
    /// simplex) — `pp^z_e`, or `0` if the edge has no mass on `z`.
    #[inline]
    pub fn edge_prob_topic(&self, e: EdgeId, z: TopicId) -> f32 {
        let lo = self.prob_offsets[e.index()] as usize;
        let hi = self.prob_offsets[e.index() + 1] as usize;
        match self.prob_topics[lo..hi].binary_search(&z.0) {
            Ok(i) => self.prob_values[lo + i],
            Err(_) => 0.0,
        }
    }

    /// Maximum per-topic probability of `e`: a query-independent upper bound
    /// on `pp_e(γ)` for any distribution `γ` (used by bound estimators and
    /// MIA pruning).
    #[inline]
    pub fn edge_prob_max(&self, e: EdgeId) -> f32 {
        let lo = self.prob_offsets[e.index()] as usize;
        let hi = self.prob_offsets[e.index() + 1] as usize;
        self.prob_values[lo..hi].iter().copied().fold(0.0, f32::max)
    }

    /// Number of non-zero topic entries on edge `e`.
    #[inline]
    pub fn edge_nnz(&self, e: EdgeId) -> usize {
        (self.prob_offsets[e.index() + 1] - self.prob_offsets[e.index()]) as usize
    }

    /// Materialize dense per-edge probabilities for a fixed `γ`.
    ///
    /// This is exactly the per-query work the paper calls "a naive solution
    /// \[that\] computes `pp_{u,v}` for each edge given the query" (§II-C); the
    /// result feeds the classical IM algorithms in `octopus-cascade`.
    pub fn materialize(&self, gamma: &[f64]) -> Result<EdgeProbs> {
        self.check_gamma(gamma)?;
        let mut probs = Vec::with_capacity(self.edge_count());
        for e in 0..self.edge_count() as u32 {
            probs.push(self.edge_prob(EdgeId(e), gamma) as f32);
        }
        Ok(EdgeProbs { probs })
    }

    /// Total number of stored (edge, topic) probability entries.
    pub fn prob_entries(&self) -> usize {
        self.prob_topics.len()
    }

    /// Whether `self` and `other` share one topology and one name table in
    /// memory (not merely equal ones): true of a graph and the result of a
    /// weight-only batch applied to it.
    pub fn shares_topology(&self, other: &TopicGraph) -> bool {
        Arc::ptr_eq(&self.fwd_offsets, &other.fwd_offsets)
            && Arc::ptr_eq(&self.fwd_targets, &other.fwd_targets)
            && Arc::ptr_eq(&self.rev_offsets, &other.rev_offsets)
            && Arc::ptr_eq(&self.rev_sources, &other.rev_sources)
            && Arc::ptr_eq(&self.rev_edge_ids, &other.rev_edge_ids)
            && Arc::ptr_eq(&self.names, &other.names)
            && Arc::ptr_eq(&self.name_index, &other.name_index)
    }
}

/// Dense per-edge activation probabilities for one fixed topic distribution.
///
/// Indexed by [`EdgeId`]; produced by [`TopicGraph::materialize`].
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeProbs {
    pub(crate) probs: Vec<f32>,
}

impl EdgeProbs {
    /// Probability of edge `e`.
    #[inline(always)]
    pub fn get(&self, e: EdgeId) -> f32 {
        self.probs[e.index()]
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Raw slice, indexed by edge id.
    pub fn as_slice(&self) -> &[f32] {
        &self.probs
    }

    /// Build directly from a per-edge probability vector (for tests and
    /// synthetic single-topic workloads).
    pub fn from_vec(probs: Vec<f32>) -> Self {
        EdgeProbs { probs }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::{NodeId, TopicId};

    /// Small fixture: 0→1, 0→2, 1→2, 2→0 over 3 topics.
    fn diamond() -> crate::TopicGraph {
        let mut b = GraphBuilder::new(3);
        for i in 0..3 {
            b.add_node(format!("u{i}"));
        }
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (1, 0.2)])
            .unwrap();
        b.add_edge(NodeId(0), NodeId(2), &[(2, 0.9)]).unwrap();
        b.add_edge(NodeId(1), NodeId(2), &[(0, 0.3)]).unwrap();
        b.add_edge(NodeId(2), NodeId(0), &[(1, 0.1), (2, 0.4)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.num_topics(), 3);
        assert_eq!(g.prob_entries(), 6);
    }

    #[test]
    fn adjacency_forward() {
        let g = diamond();
        let out: Vec<_> = g.out_edges(NodeId(0)).map(|(v, _)| v.0).collect();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(1)), 1);
    }

    #[test]
    fn adjacency_reverse_matches_forward() {
        let g = diamond();
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e).unwrap();
            assert!(g.in_edges(v).any(|(s, ie)| s == u && ie == e));
        }
        assert_eq!(g.in_degree(NodeId(2)), 2);
    }

    #[test]
    fn find_edge_and_endpoints() {
        let g = diamond();
        let e = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g.edge_endpoints(e).unwrap(), (NodeId(1), NodeId(2)));
        assert!(g.find_edge(NodeId(1), NodeId(0)).is_none());
    }

    #[test]
    fn edge_prob_mixes_topics() {
        let g = diamond();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let p = g.edge_prob(e, &[0.0, 1.0, 0.0]);
        assert!((p - 0.2).abs() < 1e-6);
        let p = g.edge_prob(e, &[0.5, 0.5, 0.0]);
        assert!((p - 0.35).abs() < 1e-6);
        // topic with no mass on this edge
        let p = g.edge_prob(e, &[0.0, 0.0, 1.0]);
        assert!(p.abs() < 1e-6);
    }

    #[test]
    fn pure_topic_and_max_prob() {
        let g = diamond();
        let e = g.find_edge(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(g.edge_prob_topic(e, TopicId(1)), 0.1);
        assert_eq!(g.edge_prob_topic(e, TopicId(0)), 0.0);
        assert_eq!(g.edge_prob_max(e), 0.4);
        assert_eq!(g.edge_nnz(e), 2);
    }

    #[test]
    fn materialize_matches_edge_prob() {
        let g = diamond();
        let gamma = [0.2, 0.3, 0.5];
        let dense = g.materialize(&gamma).unwrap();
        assert_eq!(dense.len(), g.edge_count());
        for e in g.edges() {
            assert!((dense.get(e) as f64 - g.edge_prob(e, &gamma)).abs() < 1e-6);
        }
    }

    #[test]
    fn names_round_trip() {
        let g = diamond();
        assert_eq!(g.name(NodeId(1)), Some("u1"));
        assert_eq!(g.node_by_name("u2"), Some(NodeId(2)));
        assert_eq!(g.node_by_name("nobody"), None);
    }

    #[test]
    fn gamma_dimension_checked_at_entry() {
        let g = diamond();
        assert!(g.materialize(&[1.0]).is_err());
        assert!(g.edge_prob_uv(NodeId(0), NodeId(1), &[1.0, 0.0]).is_err());
    }

    #[test]
    fn out_edge_ids_are_contiguous() {
        let g = diamond();
        let ids: Vec<_> = g.out_edges(NodeId(0)).map(|(_, e)| e.0).collect();
        assert_eq!(ids, vec![0, 1]);
        let ids: Vec<_> = g.out_edges(NodeId(2)).map(|(_, e)| e.0).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn edge_prob_clamped_to_one() {
        let mut b = GraphBuilder::new(2);
        let u = b.add_node("a");
        let v = b.add_node("b");
        b.add_edge(u, v, &[(0, 1.0), (1, 1.0)]).unwrap();
        let g = b.build().unwrap();
        let e = g.find_edge(u, v).unwrap();
        assert!(g.edge_prob(e, &[0.6, 0.4]) <= 1.0);
    }
}
