//! Upper-bound estimators for the best-effort framework (§II-C): "for
//! effective bound estimation, we devise precomputation based, local graph
//! based, and neighborhood based methods."
//!
//! All three bound the **MIA spread** `σ_MIA({u})` that [`super::BestEffortKim`]
//! uses as its exact influence computation:
//!
//! * [`NeighborhoodBound`] (NB) — provable under the MIA model:
//!   `σ(u) ≤ 1 + Σ_v pp_{u,v}(γ)·(1 + Σ_w pp_{v,w}(γ)·C)` where `C` is the
//!   precomputed global spread cap on the max-probability graph (spread is
//!   monotone in edge probabilities, and `pp_e(γ) ≤ max_z pp^z_e`).
//! * [`PrecompBound`] (PB) — `safety · Σ_z γ_z·σ̂_z(u)` from per-topic
//!   offline MIA spreads. Exact when edges are topic-disjoint (the regime
//!   real networks approximate); the safety factor absorbs mixed edges, and
//!   experiment E4 measures the residual violation rate.
//! * [`LocalGraphBound`] (LG) — depth-`d` truncated Dijkstra around `u`
//!   under the query `γ`, plus a `C`-capped tail for frontier mass; also
//!   calibrated with a safety factor (long detour paths can re-enter the
//!   ball with higher probability than any short path).

use octopus_graph::{NodeId, TopicGraph};
use octopus_mia::mioa_spreads;
use octopus_topics::TopicDistribution;
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which bound estimator an engine uses (for reports and sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Precomputation-based (per-topic offline spreads).
    Precomputation,
    /// Local-graph-based (truncated query-time Dijkstra).
    LocalGraph,
    /// Neighborhood-based (two-hop probability expansion).
    Neighborhood,
    /// No information (ablation: degenerates best-effort into plain CELF).
    Trivial,
}

impl BoundKind {
    /// Short name for tables.
    pub fn label(self) -> &'static str {
        match self {
            BoundKind::Precomputation => "PB",
            BoundKind::LocalGraph => "LG",
            BoundKind::Neighborhood => "NB",
            BoundKind::Trivial => "∅",
        }
    }
}

/// An upper-bound estimator on the singleton MIA spread `σ_MIA({u} | γ)`.
pub trait BoundEstimator {
    /// Upper bound for user `u` under query `gamma`.
    fn upper_bound(&self, u: NodeId, gamma: &TopicDistribution) -> f64;

    /// Which estimator this is.
    fn kind(&self) -> BoundKind;
}

impl<B: BoundEstimator + ?Sized> BoundEstimator for &B {
    fn upper_bound(&self, u: NodeId, gamma: &TopicDistribution) -> f64 {
        (**self).upper_bound(u, gamma)
    }

    fn kind(&self) -> BoundKind {
        (**self).kind()
    }
}

/// The incremental-rebuild cache key of one **topic's** `spread-cap` unit.
///
/// [`topic_arrival_cap`] reads exactly the topic-`z` probability slice —
/// the `(src, dst, p_z)` edge triples plus the node universe, all captured
/// by a [`GraphKeys::topics`](octopus_graph::codec::GraphKeys::topics) entry —
/// and nothing else: no names, no seed, no `theta` (the arrival cap is
/// threshold-free), no other topics. A nudge confined to topic `z` moves
/// only topic `z`'s key; a rename or reseed moves none.
pub fn spread_cap_topic_key(weights_topic: u64) -> u64 {
    let mut h = octopus_graph::wire::Fnv64::new();
    h.write(b"octa:spread-cap-topic");
    h.write_u64(weights_topic);
    h.finish()
}

/// Per-topic unit of the global spread cap: `cap_z = 1 + Σ_v t_z(v)` where
/// `t_z(v)` is the largest topic-`z` probability over `v`'s in-edges (0 for
/// a node with none).
///
/// **Soundness.** Under MIA on the max-probability graph, every maximum
/// path probability `pp_max(u, v)` is at most its final edge's probability,
/// which is at most `max_z t_z(v)`; summing over destinations,
/// `σ_maxgraph(u) ≤ 1 + Σ_v max_z t_z(v) ≤ 1 + Σ_z (cap_z − 1)` — so the
/// per-topic units combine ([`combine_topic_caps`]) into a valid global cap
/// `C ≥ max_u σ_MIA(u)` at any `theta`. It is looser than the exact
/// [`global_spread_cap`] (NB/LG prune a little less), but each unit is a
/// pure function of one topic's edge triples: a foreign-topic delta leaves
/// `cap_z` bit-identical, which is what makes the `spread-cap` stage
/// reusable per topic.
pub fn topic_arrival_cap(graph: &TopicGraph, z: usize) -> f64 {
    let zt = octopus_graph::TopicId(z as u16);
    let mut total = 0.0f64;
    for v in graph.nodes() {
        let mut best = 0.0f32;
        for (_, e) in graph.in_edges(v) {
            let p = graph.edge_prob_topic(e, zt);
            if p > best {
                best = p;
            }
        }
        total += best as f64;
    }
    1.0 + total
}

/// Combine per-topic cap units into the global spread cap the NB/LG
/// estimators consume: `C = 1 + Σ_z (cap_z − 1)`, summed in ascending
/// topic order so the result is bit-identical no matter which topics were
/// rebuilt and which were reused.
pub fn combine_topic_caps(caps: &[f64]) -> f64 {
    let mut c = 1.0f64;
    for &cz in caps {
        c += cz - 1.0;
    }
    c.max(1.0)
}

/// Compute the exact global spread cap `C = max_u σ_MIA(u)` on the
/// max-probability graph — the tight reference constant the per-topic
/// arrival caps ([`topic_arrival_cap`]) over-approximate. The offline
/// pipeline builds the per-topic units (reusable under topic-confined
/// deltas); this monolithic form remains the oracle the cap tests compare
/// against.
pub fn global_spread_cap(graph: &TopicGraph, theta: f64) -> f64 {
    // materialize the per-edge maxima as a fake single-query table
    let max_probs =
        octopus_graph::EdgeProbs::from_vec(graph.edges().map(|e| graph.edge_prob_max(e)).collect());
    mioa_spreads(graph, &max_probs, theta)
        .into_iter()
        .fold(1.0f64, f64::max)
}

// ---------------------------------------------------------------------------
// Trivial bound (ablation)
// ---------------------------------------------------------------------------

/// The no-information bound: every user is bounded by the node count.
///
/// Plugging this into [`super::BestEffortKim`] degenerates it into plain
/// CELF over the MIA spread (every candidate pays one exact evaluation) —
/// the ablation that isolates how much the real bound estimators save.
#[derive(Debug, Clone)]
pub struct TrivialBound {
    n: f64,
}

impl TrivialBound {
    /// Bound every user by `node_count`.
    pub fn new(node_count: usize) -> Self {
        TrivialBound {
            n: node_count as f64,
        }
    }
}

impl BoundEstimator for TrivialBound {
    fn upper_bound(&self, _u: NodeId, _gamma: &TopicDistribution) -> f64 {
        self.n
    }

    fn kind(&self) -> BoundKind {
        BoundKind::Trivial
    }
}

// ---------------------------------------------------------------------------
// Neighborhood bound
// ---------------------------------------------------------------------------

/// Two-hop neighborhood expansion bound (cheap, query-dependent, provable
/// w.r.t. the MIA spread).
#[derive(Debug, Clone)]
pub struct NeighborhoodBound<'g> {
    graph: &'g TopicGraph,
    cap: f64,
}

impl<'g> NeighborhoodBound<'g> {
    /// Build with a precomputed global cap (see [`global_spread_cap`]).
    pub fn new(graph: &'g TopicGraph, cap: f64) -> Self {
        NeighborhoodBound {
            graph,
            cap: cap.max(1.0),
        }
    }
}

impl BoundEstimator for NeighborhoodBound<'_> {
    fn upper_bound(&self, u: NodeId, gamma: &TopicDistribution) -> f64 {
        let g = self.graph;
        let mut total = 1.0f64;
        for (v, e) in g.out_edges(u) {
            let p_uv = g.edge_prob(e, gamma.as_slice());
            if p_uv <= 0.0 {
                continue;
            }
            let mut inner = 1.0f64;
            for (_, e2) in g.out_edges(v) {
                inner += g.edge_prob(e2, gamma.as_slice()) * self.cap;
            }
            total += p_uv * inner;
        }
        total
    }

    fn kind(&self) -> BoundKind {
        BoundKind::Neighborhood
    }
}

// ---------------------------------------------------------------------------
// Precomputation bound
// ---------------------------------------------------------------------------

/// Per-topic offline spread tables: `bound(u|γ) = safety · Σ_z γ_z σ̂_z(u)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecompBound {
    /// `sigma[z][u]` = MIA spread of `u` under pure topic `z`.
    sigma: Vec<Vec<f64>>,
    safety: f64,
}

impl PrecompBound {
    /// Precompute per-topic MIA spreads for every node.
    ///
    /// `theta` is the MIA pruning threshold for the offline builds; `safety`
    /// inflates the aggregated bound to absorb mixed-topic edges (1.2 is a
    /// good default — see experiment E4 for the measured violation rate).
    ///
    /// The per-topic tables are deterministic MIA computations and build in
    /// parallel across topics.
    pub fn build(graph: &TopicGraph, theta: f64, safety: f64) -> Self {
        let z_count = graph.num_topics();
        let sigma: Vec<Vec<f64>> = (0..z_count)
            .into_par_iter()
            .map(|z| Self::build_topic(graph, z, theta))
            .collect();
        PrecompBound { sigma, safety }
    }

    /// Build one topic's σ̂ row — the per-topic rebuild unit of the
    /// `pb-bound` stage, one [`mioa_spreads`] walk. Pure-topic MIA touches
    /// only edges carrying a topic-`z` probability (zero-probability edges
    /// never enter the walk), so the row is bit-identical across any
    /// foreign-topic delta, and a partial rebuild assembling reused and
    /// fresh rows equals a monolithic [`PrecompBound::build`] exactly.
    pub fn build_topic(graph: &TopicGraph, z: usize, theta: f64) -> Vec<f64> {
        let gamma = TopicDistribution::pure(graph.num_topics(), z);
        let probs = graph.materialize(gamma.as_slice()).expect("valid corner");
        mioa_spreads(graph, &probs, theta)
    }

    /// The stored pure-topic spread `σ̂_z(u)`.
    pub fn topic_spread(&self, u: NodeId, z: usize) -> f64 {
        self.sigma[z][u.index()]
    }

    /// The incremental-rebuild cache key of one **topic's** `pb-bound` unit.
    ///
    /// [`PrecompBound::build_topic`] is a deterministic pure-topic MIA
    /// computation: it reads exactly the topic-`z` probability slice
    /// (`weights_topic` =
    /// a [`GraphKeys::topics`](octopus_graph::codec::GraphKeys::topics) entry,
    /// which also pins the node universe) under `(theta, safety)` — no
    /// seed, no names, no other topics. `enabled` records whether the
    /// configured engine needs the tables at all: a unit persisted as
    /// "absent" must never satisfy a config that requires the tables, and
    /// vice versa.
    pub fn input_key_topic(weights_topic: u64, theta: f64, safety: f64, enabled: bool) -> u64 {
        let mut h = octopus_graph::wire::Fnv64::new();
        h.write(b"octa:pb-topic");
        h.write_u8(enabled as u8);
        if enabled {
            h.write_u64(weights_topic);
            h.write_f64(theta);
            h.write_f64(safety);
        }
        h.finish()
    }
}

impl BoundEstimator for PrecompBound {
    fn upper_bound(&self, u: NodeId, gamma: &TopicDistribution) -> f64 {
        let agg: f64 = (0..self.sigma.len())
            .map(|z| gamma[z] * self.sigma[z][u.index()])
            .sum();
        // every spread includes the node itself (mass 1); the convex part is
        // the remainder, so keep the "+1" exact and scale only the rest
        (1.0 + self.safety * (agg - 1.0)).max(1.0)
    }

    fn kind(&self) -> BoundKind {
        BoundKind::Precomputation
    }
}

// ---------------------------------------------------------------------------
// per-topic flat layout of the pb-bound units of an OCTA v8 container,
// unchanged since v6 (zero-copy mapped read path)
// ---------------------------------------------------------------------------

/// Encode one topic's `pb-bound` OCTA v8 unit: `present u64` (0 or 1),
/// then — when present — `safety f64 | n u64 | row n × f64` with `σ̂_z(u)`
/// at byte `24 + u·8`. Every field is 8-aligned relative to the (8-aligned)
/// section start, so a mapped reader serves `upper_bound` straight off the
/// file bytes. Each topic is its own container section with its own key and
/// checksum; `safety` is repeated per unit and must agree bitwise across
/// the assembled table.
pub fn encode_pb_topic_section(row: Option<&[f64]>, safety: f64) -> Vec<u8> {
    use bytes::BufMut;
    let Some(row) = row else {
        return 0u64.to_le_bytes().to_vec();
    };
    let mut buf = Vec::with_capacity(24 + row.len() * 8);
    buf.put_u64_le(1);
    buf.put_f64_le(safety);
    buf.put_u64_le(row.len() as u64);
    for &s in row {
        buf.put_f64_le(s);
    }
    buf
}

/// A zero-copy view of the persisted per-topic `pb-bound` units: answers
/// [`BoundEstimator::upper_bound`] directly off the mapped section bytes,
/// bit-identically to the owned [`PrecompBound`] (same summation order,
/// same float ops).
#[derive(Debug, Clone)]
pub struct PbTableView<'a> {
    /// Per-topic f64 row areas (one value per node), indexed by topic.
    rows: Vec<&'a [u8]>,
    safety: f64,
}

impl<'a> PbTableView<'a> {
    /// Parse and structurally validate one topic's `pb-bound` payload of an
    /// OCTA v8 container (the unit layout has not changed since v6) into
    /// `Ok(None)` (persisted absent) or `Ok(Some((safety, row_bytes)))`.
    /// Validation is O(1): the row length must match the graph exactly,
    /// after which every read is in bounds by construction.
    pub fn parse_topic(
        raw: &'a [u8],
        node_count: usize,
    ) -> Result<Option<(f64, &'a [u8])>, octopus_graph::wire::WireError> {
        use octopus_graph::wire::WireError;
        if raw.len() < 8 {
            return Err(WireError(
                "pb topic unit shorter than its present flag".into(),
            ));
        }
        let word = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
        match word(0) {
            0 => {
                if raw.len() != 8 {
                    return Err(WireError("absent pb topic unit has trailing bytes".into()));
                }
                Ok(None)
            }
            1 => {
                if raw.len() < 24 {
                    return Err(WireError("pb topic unit header truncated".into()));
                }
                let safety = f64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
                let n = word(16) as usize;
                if n != node_count {
                    return Err(WireError(format!(
                        "pb row has {n} nodes, graph has {node_count}"
                    )));
                }
                let want = 24 + n * 8;
                if raw.len() != want {
                    return Err(WireError(format!(
                        "pb topic unit length {} does not match row (want {want})",
                        raw.len()
                    )));
                }
                Ok(Some((safety, &raw[24..])))
            }
            other => Err(WireError(format!("invalid pb present flag {other}"))),
        }
    }

    /// Assemble the view from every topic's OCTA v8 unit payload (canonical
    /// ascending topic order). Returns `Ok(None)` when all units are
    /// persisted-absent; mixed presence or a bitwise `safety` disagreement
    /// across units fails closed — a valid writer never produces either.
    pub fn parse(
        slices: &[&'a [u8]],
        node_count: usize,
    ) -> Result<Option<Self>, octopus_graph::wire::WireError> {
        use octopus_graph::wire::WireError;
        let mut rows = Vec::with_capacity(slices.len());
        let mut safety: Option<f64> = None;
        for (z, raw) in slices.iter().enumerate() {
            match (Self::parse_topic(raw, node_count)?, z) {
                (None, 0) => return Self::expect_all_absent(slices, node_count),
                (None, _) => return Err(WireError(format!("pb unit {z} absent amid present"))),
                (Some((s, row)), _) => {
                    if let Some(prev) = safety {
                        if prev.to_bits() != s.to_bits() {
                            return Err(WireError(format!(
                                "pb unit {z} safety {s} disagrees with {prev}"
                            )));
                        }
                    }
                    safety = Some(s);
                    rows.push(row);
                }
            }
        }
        Ok(safety.map(|safety| PbTableView { rows, safety }))
    }

    fn expect_all_absent(
        slices: &[&'a [u8]],
        node_count: usize,
    ) -> Result<Option<Self>, octopus_graph::wire::WireError> {
        use octopus_graph::wire::WireError;
        for (z, raw) in slices.iter().enumerate() {
            if Self::parse_topic(raw, node_count)?.is_some() {
                return Err(WireError(format!("pb unit {z} present amid absent")));
            }
        }
        Ok(None)
    }

    /// The stored pure-topic spread `σ̂_z(u)`.
    #[inline]
    pub fn topic_spread(&self, u: NodeId, z: usize) -> f64 {
        let at = u.index() * 8;
        f64::from_le_bytes(self.rows[z][at..at + 8].try_into().expect("validated len"))
    }
}

impl BoundEstimator for PbTableView<'_> {
    fn upper_bound(&self, u: NodeId, gamma: &TopicDistribution) -> f64 {
        let agg: f64 = (0..self.rows.len())
            .map(|z| gamma[z] * self.topic_spread(u, z))
            .sum();
        // identical expression to PrecompBound::upper_bound — the
        // topic-samples stage bounds with the tables it just built, queries
        // with this view, and both must agree bit for bit
        (1.0 + self.safety * (agg - 1.0)).max(1.0)
    }

    fn kind(&self) -> BoundKind {
        BoundKind::Precomputation
    }
}

// ---------------------------------------------------------------------------
// Local-graph bound
// ---------------------------------------------------------------------------

/// Depth-limited query-time Dijkstra plus capped frontier tail.
#[derive(Debug, Clone)]
pub struct LocalGraphBound<'g> {
    graph: &'g TopicGraph,
    depth: u32,
    cap: f64,
    safety: f64,
}

struct Hop {
    prob: f64,
    node: NodeId,
    depth: u32,
}
impl PartialEq for Hop {
    fn eq(&self, o: &Self) -> bool {
        self.prob == o.prob && self.node == o.node
    }
}
impl Eq for Hop {}
impl PartialOrd for Hop {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Hop {
    fn cmp(&self, o: &Self) -> Ordering {
        self.prob.partial_cmp(&o.prob).unwrap_or(Ordering::Equal)
    }
}

impl<'g> LocalGraphBound<'g> {
    /// Build with exploration `depth`, global `cap` and `safety` factor.
    pub fn new(graph: &'g TopicGraph, depth: u32, cap: f64, safety: f64) -> Self {
        assert!(depth >= 1, "local graph needs at least one hop");
        LocalGraphBound {
            graph,
            depth,
            cap: cap.max(1.0),
            safety,
        }
    }
}

impl BoundEstimator for LocalGraphBound<'_> {
    fn upper_bound(&self, u: NodeId, gamma: &TopicDistribution) -> f64 {
        let g = self.graph;
        // depth-limited max-prob Dijkstra from u; the sums accumulate in
        // settle order, so the bound is bit-reproducible
        let mut best: std::collections::HashMap<NodeId, f64> = std::collections::HashMap::new();
        let mut settled = std::collections::HashSet::new();
        let mut interior = 0.0f64;
        let mut frontier_tail = 0.0f64;
        let mut heap = BinaryHeap::new();
        heap.push(Hop {
            prob: 1.0,
            node: u,
            depth: 0,
        });
        best.insert(u, 1.0);
        while let Some(h) = heap.pop() {
            if !settled.insert(h.node) {
                continue;
            }
            interior += h.prob;
            if h.depth == self.depth {
                frontier_tail += h.prob * (self.cap - 1.0);
                continue;
            }
            for (v, e) in g.out_edges(h.node) {
                if settled.contains(&v) {
                    continue;
                }
                let p = h.prob * g.edge_prob(e, gamma.as_slice());
                if p <= 1e-9 {
                    continue;
                }
                let entry = best.entry(v).or_insert(0.0);
                if p > *entry {
                    *entry = p;
                    heap.push(Hop {
                        prob: p,
                        node: v,
                        depth: h.depth + 1,
                    });
                }
            }
        }
        (1.0 + self.safety * (interior - 1.0 + frontier_tail)).max(1.0)
    }

    fn kind(&self) -> BoundKind {
        BoundKind::LocalGraph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kim::testutil::two_topic_hubs;
    use octopus_mia::mia_spread_set;

    const THETA: f64 = 1.0 / 320.0;

    fn exact(g: &TopicGraph, u: NodeId, gamma: &TopicDistribution) -> f64 {
        let probs = g.materialize(gamma.as_slice()).unwrap();
        mia_spread_set(g, &probs, &[u], THETA)
    }

    #[test]
    fn nb_bounds_every_node_on_fixture() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let nb = NeighborhoodBound::new(&g, cap);
        for gamma in [
            TopicDistribution::pure(2, 0),
            TopicDistribution::pure(2, 1),
            TopicDistribution::uniform(2),
        ] {
            for u in g.nodes() {
                let b = nb.upper_bound(u, &gamma);
                let s = exact(&g, u, &gamma);
                assert!(
                    b >= s - 1e-9,
                    "NB violated at {u:?}: bound {b} < spread {s}"
                );
            }
        }
    }

    #[test]
    fn pb_bounds_on_topic_disjoint_fixture() {
        // the fixture's hub edges are topic-disjoint, so PB should hold even
        // with a modest safety factor
        let g = two_topic_hubs();
        let pb = PrecompBound::build(&g, THETA, 1.2);
        for gamma in [TopicDistribution::uniform(2), TopicDistribution::pure(2, 0)] {
            for u in g.nodes() {
                let b = pb.upper_bound(u, &gamma);
                let s = exact(&g, u, &gamma);
                assert!(
                    b >= s - 1e-9,
                    "PB violated at {u:?}: bound {b} < spread {s}"
                );
            }
        }
    }

    #[test]
    fn lg_bounds_on_fixture() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let lg = LocalGraphBound::new(&g, 2, cap, 1.1);
        let gamma = TopicDistribution::uniform(2);
        for u in g.nodes() {
            let b = lg.upper_bound(u, &gamma);
            let s = exact(&g, u, &gamma);
            assert!(
                b >= s - 1e-9,
                "LG violated at {u:?}: bound {b} < spread {s}"
            );
        }
    }

    #[test]
    fn lg_bound_is_bit_reproducible() {
        // 1 root, 12 children, 24 grandchildren: 37 nodes settle at depth 2,
        // with non-dyadic probabilities so the summation order shows in the
        // last bits
        let mut b = octopus_graph::GraphBuilder::new(2);
        let _ = b.add_nodes(37);
        for i in 1..=12u32 {
            let p = 0.1 + 0.037 * i as f64;
            b.add_edge(NodeId(0), NodeId(i), &[(0, p), (1, 0.9 - p)])
                .unwrap();
            for c in 0..2u32 {
                let child = 13 + 2 * (i - 1) + c;
                let q = 0.2 + 0.013 * child as f64;
                b.add_edge(NodeId(i), NodeId(child), &[(0, q)]).unwrap();
            }
        }
        let g = b.build().unwrap();
        let lg = LocalGraphBound::new(&g, 2, 50.0, 1.1);
        let gamma = TopicDistribution::uniform(2);
        let first = lg.upper_bound(NodeId(0), &gamma).to_bits();
        for _ in 0..200 {
            assert_eq!(lg.upper_bound(NodeId(0), &gamma).to_bits(), first);
        }
    }

    #[test]
    fn bounds_are_discriminative_not_vacuous() {
        // bounds must separate hubs from leaves, else pruning is useless
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        let nb = NeighborhoodBound::new(&g, cap);
        let gamma = TopicDistribution::pure(2, 0);
        let hub = nb.upper_bound(NodeId(0), &gamma);
        let leaf = nb.upper_bound(NodeId(3), &gamma);
        assert!(hub > 2.0 * leaf, "hub bound {hub} vs leaf bound {leaf}");
    }

    #[test]
    fn pb_aggregates_linearly() {
        let g = two_topic_hubs();
        let pb = PrecompBound::build(&g, THETA, 1.0);
        let u = NodeId(0);
        let b0 = pb.upper_bound(u, &TopicDistribution::pure(2, 0));
        let b1 = pb.upper_bound(u, &TopicDistribution::pure(2, 1));
        let mix = pb.upper_bound(u, &TopicDistribution::uniform(2));
        assert!((mix - 0.5 * (b0 + b1)).abs() < 1e-9);
        assert!(
            (pb.topic_spread(u, 0) - b0).abs() < 1e-9,
            "safety=1 corner equals table"
        );
    }

    #[test]
    fn global_cap_dominates_every_pure_topic_spread() {
        let g = two_topic_hubs();
        let cap = global_spread_cap(&g, THETA);
        for z in 0..2 {
            let gamma = TopicDistribution::pure(2, z);
            for u in g.nodes() {
                assert!(cap >= exact(&g, u, &gamma) - 1e-9);
            }
        }
    }

    #[test]
    fn trivial_bound_is_vacuous_but_valid() {
        let g = two_topic_hubs();
        let b = TrivialBound::new(g.node_count());
        let gamma = TopicDistribution::uniform(2);
        for u in g.nodes() {
            let bound = b.upper_bound(u, &gamma);
            assert_eq!(bound, 13.0);
            assert!(bound >= exact(&g, u, &gamma));
        }
        assert_eq!(b.kind(), BoundKind::Trivial);
    }

    #[test]
    fn kinds_and_labels() {
        assert_eq!(BoundKind::Precomputation.label(), "PB");
        assert_eq!(BoundKind::LocalGraph.label(), "LG");
        assert_eq!(BoundKind::Neighborhood.label(), "NB");
    }

    #[test]
    fn pb_view_round_trips_and_answers_bit_identically() {
        let g = two_topic_hubs();
        let (pb, safety) = (PrecompBound::build(&g, THETA, 1.2), 1.2);
        let sigma: Vec<Vec<f64>> = (0..g.num_topics())
            .map(|z| PrecompBound::build_topic(&g, z, THETA))
            .collect();
        let units: Vec<Vec<u8>> = sigma
            .iter()
            .map(|row| encode_pb_topic_section(Some(row), safety))
            .collect();
        let slices: Vec<&[u8]> = units.iter().map(|u| &u[..]).collect();
        let view = PbTableView::parse(&slices, g.node_count())
            .unwrap()
            .expect("present");
        for gamma in [
            TopicDistribution::pure(2, 0),
            TopicDistribution::pure(2, 1),
            TopicDistribution::uniform(2),
        ] {
            for u in g.nodes() {
                assert_eq!(
                    view.upper_bound(u, &gamma).to_bits(),
                    pb.upper_bound(u, &gamma).to_bits(),
                    "mapped and owned bounds must be bit-identical at {u:?}"
                );
            }
        }
        for (z, row) in sigma.iter().enumerate() {
            for u in g.nodes() {
                assert_eq!(view.topic_spread(u, z).to_bits(), row[u.index()].to_bits());
            }
        }
        assert_eq!(view.clone().kind(), BoundKind::Precomputation);

        // per-topic rebuild units match the monolithic build exactly
        for (z, row) in sigma.iter().enumerate() {
            for u in g.nodes() {
                assert_eq!(pb.topic_spread(u, z).to_bits(), row[u.index()].to_bits());
            }
        }

        // persisted-absent units parse to None
        let absent = encode_pb_topic_section(None, safety);
        assert_eq!(absent.len(), 8);
        let absent_slices: Vec<&[u8]> = vec![&absent, &absent];
        assert!(PbTableView::parse(&absent_slices, g.node_count())
            .unwrap()
            .is_none());

        // truncation, dimension mismatches, and mixed presence fail closed
        let s0 = slices[0];
        assert!(PbTableView::parse_topic(&s0[..s0.len() - 1], g.node_count()).is_err());
        assert!(PbTableView::parse_topic(s0, g.node_count() + 1).is_err());
        assert!(PbTableView::parse_topic(&s0[..4], g.node_count()).is_err());
        assert!(PbTableView::parse(&[s0, &absent], g.node_count()).is_err());
        assert!(PbTableView::parse(&[&absent, s0], g.node_count()).is_err());
        // bitwise safety disagreement across units fails closed
        let other = encode_pb_topic_section(Some(&sigma[1]), safety + 0.1);
        assert!(PbTableView::parse(&[s0, &other], g.node_count()).is_err());
    }

    #[test]
    fn topic_caps_combine_soundly() {
        let g = two_topic_hubs();
        let caps: Vec<f64> = (0..g.num_topics())
            .map(|z| topic_arrival_cap(&g, z))
            .collect();
        let combined = combine_topic_caps(&caps);
        // the combined arrival cap dominates the exact reference cap, hence
        // every MIA spread NB/LG compare against
        assert!(combined >= global_spread_cap(&g, THETA) - 1e-12);
        for z in 0..2 {
            let gamma = TopicDistribution::pure(2, z);
            for u in g.nodes() {
                assert!(combined >= exact(&g, u, &gamma) - 1e-9);
            }
        }
        // each unit is at least the empty-spread floor
        assert!(caps.iter().all(|&c| c >= 1.0));
        assert_eq!(combine_topic_caps(&[]), 1.0);
    }

    #[test]
    fn topic_caps_ignore_foreign_topic_deltas() {
        use octopus_graph::GraphBuilder;
        let g = two_topic_hubs();
        // re-build the fixture with one extra pure-topic-1 edge
        let mut b = GraphBuilder::new(2);
        for u in g.nodes() {
            b.add_node(g.name(u).unwrap_or(""));
        }
        for u in g.nodes() {
            for (v, e) in g.out_edges(u) {
                let probs: Vec<(usize, f64)> = g
                    .edge_topic_probs(e)
                    .map(|(z, p)| (z.index(), p as f64))
                    .collect();
                b.add_edge(u, v, &probs).unwrap();
            }
        }
        // target node 3, which has no topic-1 in-edge in the fixture, so
        // the insert raises its topic-1 arrival mass from zero
        b.add_edge(NodeId(9), NodeId(3), &[(1, 0.4)]).unwrap();
        let g2 = b.build().unwrap();
        // topic 0's arrival cap is bit-identical; topic 1's moved
        assert_eq!(
            topic_arrival_cap(&g, 0).to_bits(),
            topic_arrival_cap(&g2, 0).to_bits()
        );
        assert!(topic_arrival_cap(&g2, 1) > topic_arrival_cap(&g, 1));
        // and NB stays sound under the combined arrival cap
        let caps: Vec<f64> = (0..2).map(|z| topic_arrival_cap(&g2, z)).collect();
        let nb = NeighborhoodBound::new(&g2, combine_topic_caps(&caps));
        let gamma = TopicDistribution::uniform(2);
        for u in g2.nodes() {
            let probs = g2.materialize(gamma.as_slice()).unwrap();
            let s = mia_spread_set(&g2, &probs, &[u], THETA);
            assert!(nb.upper_bound(u, &gamma) >= s - 1e-9);
        }
    }
}
