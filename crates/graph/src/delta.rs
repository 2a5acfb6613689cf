//! Small-delta edits on an immutable [`TopicGraph`].
//!
//! OCTOPUS's online story assumes the network keeps changing under it — new
//! follows appear, influence-probability estimates drift as the action log
//! grows (`octopus-data::learn::fit_warm`), users rename themselves. The
//! CSR graph is deliberately immutable, so a batch of [`GraphDelta`]s
//! produces a *new* graph, and [`apply_all`] is the one way it does, in
//! one pass over the batch in submission order. A batch that moves
//! weights only edits the rows it names and shares the graph's topology;
//! any other batch copies the graph into a [`GraphBuilder`] once, edits
//! its CSR-ordered edge list, and builds once. The free helpers
//! ([`nudge_weights`], [`set_weights`], [`insert_edge`], [`remove_edge`],
//! [`rename_node`]) and [`GraphDelta::apply`] are one-delta calls of it.
//!
//! Node ids never change. Edge ids are dense in CSR order, so an insert, a
//! remove, or a nudge or row replacement that leaves a row all zero (the
//! edge is dropped) shifts the id of every edge after the change — a
//! consumer holding per-edge state must treat shifted edges as changed,
//! and the per-stage artifact fingerprints do exactly that.

use crate::builder::{sparse_row, GraphBuilder, Row};
use crate::csr::TopicGraph;
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId, TopicId};
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Copy `g` into a fresh [`GraphBuilder`] (same nodes, names, and edges).
///
/// The builder's edge list comes out in CSR order — record `e` is
/// `EdgeId(e)` — and the round trip is exact: `builder_from(&g).build() ==
/// g`, pinned by the `rebuild_is_identity` test.
pub fn builder_from(g: &TopicGraph) -> GraphBuilder {
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        b.add_node(g.name(u).unwrap_or(""));
    }
    for u in g.nodes() {
        for (v, e) in g.out_edges(u) {
            let row = g.edge_topic_probs(e).map(|(z, p)| (z.0, p)).collect();
            b.edges.push((u.0, v.0, row));
        }
    }
    b
}

/// `g` with the topic probabilities of each edge in `edges` perturbed:
/// every sparse entry `p` becomes `p + delta` (reflected off the `(0, 1]`
/// boundary so the value always actually moves). Listing an edge twice
/// nudges it once.
pub fn nudge_weights(g: &TopicGraph, edges: &[EdgeId], delta: f64) -> Result<TopicGraph> {
    let edges = edges.to_vec();
    apply_all(g, &[GraphDelta::NudgeWeights { edges, delta }])
}

/// `g` with edge `edge`'s sparse probability row replaced wholesale by
/// `probs` — exact values, support changes included. This is the delta
/// shape a warm EM refit's weight diff produces: the learner emits complete
/// per-topic rows, which a [`nudge_weights`] (one additive delta over every
/// *existing* entry) cannot express. An all-zero row drops its edge,
/// shifting every later edge id.
pub fn set_weights(g: &TopicGraph, edge: EdgeId, probs: &[(usize, f64)]) -> Result<TopicGraph> {
    set_weights_multi(g, &[(edge, probs.to_vec())])
}

/// [`set_weights`] for each `(edge, row)` in order, each id read against
/// the graph the earlier rows left (only an emptied row moves a later id).
pub fn set_weights_multi(
    g: &TopicGraph,
    rows: &[(EdgeId, Vec<(usize, f64)>)],
) -> Result<TopicGraph> {
    let deltas: Vec<GraphDelta> = rows
        .iter()
        .map(|(edge, probs)| GraphDelta::SetWeights {
            edge: *edge,
            probs: probs.clone(),
        })
        .collect();
    apply_all(g, &deltas)
}

/// `g` with one more edge `u → v`.
///
/// Fails like [`GraphBuilder::add_edge`] (bad endpoints, self loop, invalid
/// probability); if the edge already exists the probabilities merge by
/// per-topic max, exactly as the builder does for parallel edges.
pub fn insert_edge(
    g: &TopicGraph,
    u: NodeId,
    v: NodeId,
    probs: &[(usize, f64)],
) -> Result<TopicGraph> {
    let probs = probs.to_vec();
    apply_all(
        g,
        &[GraphDelta::InsertEdge {
            src: u,
            dst: v,
            probs,
        }],
    )
}

/// `g` without edge `edge`. Every edge with a larger id shifts down by one
/// (ids stay dense in CSR order).
pub fn remove_edge(g: &TopicGraph, edge: EdgeId) -> Result<TopicGraph> {
    apply_all(g, &[GraphDelta::RemoveEdge { edge }])
}

/// `g` with node `node` renamed to `name`. Topology, weights, and all ids
/// are unchanged; renaming onto another node's name is an error.
pub fn rename_node(g: &TopicGraph, node: NodeId, name: &str) -> Result<TopicGraph> {
    let name = name.to_string();
    apply_all(g, &[GraphDelta::RenameNode { node, name }])
}

/// One graph mutation as a first-class value — the submission format of the
/// serving layer (`octopus_core::serve`), which queues deltas from writer
/// threads and applies a pending batch with one [`apply_all`].
///
/// Each variant corresponds to one of the free helpers in this module and
/// applies with identical semantics. Id caveat: [`EdgeId`]s inside a delta
/// refer to the graph the delta is applied *to* — in a batch that is the
/// output of the previous delta, so a batch that inserts, removes, or
/// empties a row must account for the id shifts those cause.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphDelta {
    /// Perturb the topic probabilities of `edges` by `delta` (reflected off
    /// the `(0, 1]` boundary) — a synthetic drift shape.
    NudgeWeights {
        /// Edges whose probability rows move.
        edges: Vec<EdgeId>,
        /// Additive perturbation per sparse entry.
        delta: f64,
    },
    /// Replace one edge's whole sparse probability row — the shape a warm
    /// EM refit's weight diff produces: exact learned values, support
    /// changes included (a [`GraphDelta::NudgeWeights`] can only shift
    /// every existing entry by one shared additive delta). An all-zero row
    /// drops the edge, like [`set_weights`].
    SetWeights {
        /// The edge whose row is replaced.
        edge: EdgeId,
        /// The complete new sparse `(topic index, probability)` row.
        probs: Vec<(usize, f64)>,
    },
    /// Add one influence edge `src → dst` — a new follow.
    InsertEdge {
        /// Influencing endpoint.
        src: NodeId,
        /// Influenced endpoint.
        dst: NodeId,
        /// Sparse `(topic index, probability)` rows of the new edge.
        probs: Vec<(usize, f64)>,
    },
    /// Drop one influence edge — an unfollow.
    RemoveEdge {
        /// The edge to drop (later ids shift down by one).
        edge: EdgeId,
    },
    /// Rename one user. Topology, weights, and all ids are unchanged.
    RenameNode {
        /// The user to rename.
        node: NodeId,
        /// The new display name.
        name: String,
    },
}

impl GraphDelta {
    /// Apply this mutation to `g`, producing a new graph (see the matching
    /// free helper for each variant's exact semantics and failure modes).
    pub fn apply(&self, g: &TopicGraph) -> Result<TopicGraph> {
        apply_all(g, std::slice::from_ref(self))
    }

    /// The set of topics whose per-topic weight slice this delta can move
    /// when applied to `g` — the footprint the per-topic offline stages
    /// (cap/PB/MIS sub-sections of the OCTA container) key invalidation on.
    ///
    /// `Some(set)` is exact: every topic outside `set` keeps a bit-identical
    /// slice key ([`crate::codec::GraphKeys::topics`]). A rename touches no topic; a
    /// nudge touches the topics with sparse entries on its edges; a row
    /// replacement touches only the topics whose entry actually *changes* —
    /// appears, vanishes, or moves at the stored `f32` precision
    /// (re-stating an entry bitwise leaves that topic's slice alone, which
    /// is what keeps a thresholded learner's dense rows topic-sparse); an
    /// insert touches the topics in its probability payload (a merge with
    /// an existing edge maxes per topic, so other topics still hold); a
    /// remove touches the victim's entries. `None` means the footprint
    /// cannot be determined (an edge id in the delta is not valid on `g`)
    /// and callers must assume **all** topics — never that the delta is
    /// cheap.
    pub fn touched_topics(&self, g: &TopicGraph) -> Option<BTreeSet<usize>> {
        match self {
            GraphDelta::RenameNode { .. } => Some(BTreeSet::new()),
            GraphDelta::NudgeWeights { edges, .. } => {
                let mut out = BTreeSet::new();
                for &e in edges {
                    if g.check_edge(e).is_err() {
                        return None;
                    }
                    for (z, _) in g.edge_topic_probs(e) {
                        out.insert(z.index());
                    }
                }
                Some(out)
            }
            GraphDelta::SetWeights { edge, probs } => {
                if g.check_edge(*edge).is_err() {
                    return None;
                }
                let old: std::collections::BTreeMap<usize, f32> = g
                    .edge_topic_probs(*edge)
                    .map(|(z, p)| (z.index(), p))
                    .collect();
                let mut out = BTreeSet::new();
                for &(z, p) in probs {
                    match old.get(&z) {
                        Some(op) if op.to_bits() == (p as f32).to_bits() => {}
                        _ => {
                            out.insert(z);
                        }
                    }
                }
                for z in old.keys() {
                    if !probs.iter().any(|&(nz, _)| nz == *z) {
                        out.insert(*z);
                    }
                }
                Some(out)
            }
            GraphDelta::InsertEdge { probs, .. } => Some(probs.iter().map(|&(z, _)| z).collect()),
            GraphDelta::RemoveEdge { edge } => {
                if g.check_edge(*edge).is_err() {
                    return None;
                }
                Some(g.edge_topic_probs(*edge).map(|(z, _)| z.index()).collect())
            }
        }
    }
}

/// An edge whose maximum topic probability ([`TopicGraph::edge_prob_max`])
/// differs between two graphs that share every edge id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxShift {
    /// The edge, the same id in both graphs.
    pub edge: EdgeId,
    /// Its target: the node whose in-edge list holds it.
    pub target: NodeId,
    /// The maximum on the old graph.
    pub old: f32,
    /// The maximum on the new graph.
    pub new: f32,
}

/// Every edge whose maximum topic probability moved from `old` to `new`, in
/// id order. `None` unless `new` keeps every id of `old`: the same node
/// count and the same endpoints for every [`EdgeId`], hence the same
/// in-edge lists. Nudges, row replacements and renames keep ids, unless one
/// empties a row. The comparison is `O(N + E)`.
pub fn max_shifts(old: &TopicGraph, new: &TopicGraph) -> Option<Vec<MaxShift>> {
    if old.fwd_offsets != new.fwd_offsets || old.fwd_targets != new.fwd_targets {
        return None;
    }
    Some(shifts_from_maxima(
        old.edges().map(|e| old.edge_prob_max(e)),
        new,
    ))
}

/// Every edge of `new` whose maximum topic probability differs, bit for bit,
/// from `maxima`: the per-edge maxima, in id order, of a graph that shares
/// every edge id of `new`. The caller vouches for the shared ids —
/// [`max_shifts`] compares the graphs, and a PIKS index that recorded its
/// graph's maxima compares its recorded topology key and edge count.
/// `O(E)`.
pub fn shifts_from_maxima(
    maxima: impl IntoIterator<Item = f32>,
    new: &TopicGraph,
) -> Vec<MaxShift> {
    let edges = maxima.into_iter().zip(new.edges());
    edges
        .filter_map(|(was, edge)| {
            let now = new.edge_prob_max(edge);
            (was.to_bits() != now.to_bits()).then(|| MaxShift {
                edge,
                target: NodeId(new.fwd_targets[edge.index()]),
                old: was,
                new: now,
            })
        })
        .collect()
}

/// What one apply pass ([`apply_all_visiting`]) produced: the graph, and
/// what the pass learned about how it differs from the graph it started
/// from, so a consumer holding per-edge or per-entry state pays for the
/// batch rather than for the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// The graph after the batch.
    pub graph: TopicGraph,
    /// [`max_shifts`] of the old graph and [`Applied::graph`]: `Some` when
    /// the batch kept every edge id.
    pub shifts: Option<Vec<MaxShift>>,
    /// `Some` when the batch moved weights only — no insert, remove,
    /// emptied row or rename — so [`Applied::graph`] shares the old
    /// graph's topology and names ([`TopicGraph::shares_topology`]): every
    /// `(edge, topic)` entry whose stored value changed, in edge and then
    /// topic order. [`crate::codec::GraphKeys::patched`] re-keys from it.
    pub moved: Option<Vec<MovedEntry>>,
}

impl Applied {
    /// The report of a pass that rebuilt `old` into `graph` (or of any
    /// other way of getting from one to the other): the shifts come from
    /// comparing the two graphs, `O(N + E)`, and no moved entries.
    pub fn compared(old: &TopicGraph, graph: TopicGraph) -> Applied {
        Applied {
            shifts: max_shifts(old, &graph),
            moved: None,
            graph,
        }
    }
}

/// One sparse weight entry a weight-only batch changed. `None` is an
/// entry absent on that side (stored entries are never dropped to a
/// placeholder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovedEntry {
    /// The edge, the same id before and after.
    pub edge: EdgeId,
    /// The topic of the entry.
    pub topic: TopicId,
    /// The stored value before the batch.
    pub old: Option<f32>,
    /// The stored value after the batch.
    pub new: Option<f32>,
}

/// Apply `deltas` in submission order, each on the output of the one
/// before, in one pass. A nudge rewrites its rows in place (an edge listed
/// twice in one nudge moves once; two nudges on one edge compound), a row
/// replacement swaps the row, an insert merges into an existing
/// `(src, dst)` by per-topic max or takes its sorted slot, a remove
/// deletes the record, and a rename keeps the name index current. Rows a
/// delta leaves empty are dropped before the next delta reads its ids,
/// exactly as a rebuild after every delta would drop them; rows are
/// validated by the builder's own row check, so the result — graph or
/// error — is the one one-at-a-time rebuilds give (pinned by
/// `proptest_graph::apply_all_equals_rebuild_per_delta`). The first
/// failing delta aborts the batch; an empty batch returns a copy of `g`.
///
/// A batch of nudges and row replacements edits only the rows it names,
/// over `g`, and the result shares `g`'s topology and names, copying just
/// the weight arrays. A batch that inserts, removes or renames copies `g`
/// into a [`GraphBuilder`] ([`builder_from`]), edits its CSR-ordered edge
/// list, and builds once; so does the rest of a weight batch once one of
/// its deltas empties a row.
pub fn apply_all(g: &TopicGraph, deltas: &[GraphDelta]) -> Result<TopicGraph> {
    apply_all_visiting(g, deltas, |_, _| {}).map(|applied| applied.graph)
}

/// [`apply_all`], reporting what the pass learned ([`Applied`]) and
/// calling `visit(delta, endpoints)` for each delta once its ids resolve
/// on the graph it applies to, before its rows or name are checked. The
/// endpoints are the source and target of every edge it names (a nudge's
/// edges deduplicated, in id order), the two endpoints of an insert, or
/// the renamed node. The sharded router routes a batch by them; a flush
/// re-keys and screens by the report.
pub fn apply_all_visiting(
    g: &TopicGraph,
    deltas: &[GraphDelta],
    mut visit: impl FnMut(&GraphDelta, &[NodeId]),
) -> Result<Applied> {
    let weights_only = deltas.iter().all(|d| {
        matches!(
            d,
            GraphDelta::NudgeWeights { .. } | GraphDelta::SetWeights { .. }
        )
    });
    let (mut b, rest) = if weights_only {
        let mut patch = Patch {
            g,
            rows: BTreeMap::new(),
        };
        let mut rest = deltas.iter();
        loop {
            let Some(d) = rest.next() else {
                return Ok(patch.finish());
            };
            if edit_weights(&mut patch, d, &mut visit)? {
                // the row's edge drops, and every later id with it
                break (patch.into_builder(), rest);
            }
        }
    } else {
        (builder_from(g), deltas.iter())
    };
    for d in rest {
        b.apply_delta(d, &mut visit)?;
    }
    Ok(Applied::compared(g, b.build()?))
}

/// The edge rows a weight delta reads and rewrites: a builder copy of a
/// graph, or a [`Patch`] over one.
trait Rows {
    fn num_topics(&self) -> usize;
    fn edge_len(&self) -> usize;
    fn endpoints(&self, e: EdgeId) -> [NodeId; 2];
    /// Edge `e`'s current row.
    fn row(&self, e: EdgeId) -> Row;
    fn set(&mut self, e: EdgeId, row: Row);

    fn check_edge(&self, e: EdgeId) -> Result<()> {
        if e.index() < self.edge_len() {
            Ok(())
        } else {
            Err(GraphError::EdgeOutOfBounds {
                edge: e.0,
                len: self.edge_len(),
            })
        }
    }
}

/// Apply a nudge or a row replacement to `rows` (no other variant reaches
/// here); whether some row came out empty.
fn edit_weights(
    rows: &mut impl Rows,
    d: &GraphDelta,
    visit: &mut impl FnMut(&GraphDelta, &[NodeId]),
) -> Result<bool> {
    let mut emptied = false;
    match d {
        GraphDelta::NudgeWeights { edges, delta } => {
            for &e in edges {
                rows.check_edge(e)?;
            }
            let mut edges = edges.clone();
            edges.sort_unstable();
            edges.dedup();
            let ends: Vec<NodeId> = edges.iter().flat_map(|&e| rows.endpoints(e)).collect();
            visit(d, &ends);
            for e in edges {
                let row: Vec<(usize, f64)> = rows
                    .row(e)
                    .iter()
                    .map(|&(z, p)| {
                        let p = p as f64;
                        let moved = p + delta;
                        let p = if moved <= 1.0 && moved > 0.0 {
                            moved
                        } else {
                            p - delta
                        };
                        (z as usize, p)
                    })
                    .collect();
                let row = sparse_row(rows.num_topics(), &row)?;
                emptied |= row.is_empty();
                rows.set(e, row);
            }
        }
        GraphDelta::SetWeights { edge, probs } => {
            rows.check_edge(*edge)?;
            visit(d, &rows.endpoints(*edge));
            let row = sparse_row(rows.num_topics(), probs)?;
            emptied = row.is_empty();
            rows.set(*edge, row);
        }
        _ => unreachable!("only weight deltas edit rows in place"),
    }
    Ok(emptied)
}

impl Rows for GraphBuilder {
    fn num_topics(&self) -> usize {
        GraphBuilder::num_topics(self)
    }

    fn edge_len(&self) -> usize {
        self.edges.len()
    }

    fn endpoints(&self, e: EdgeId) -> [NodeId; 2] {
        let (u, v, _) = self.edges[e.index()];
        [NodeId(u), NodeId(v)]
    }

    fn row(&self, e: EdgeId) -> Row {
        self.edges[e.index()].2.clone()
    }

    fn set(&mut self, e: EdgeId, row: Row) {
        self.edges[e.index()].2 = row;
    }
}

/// A weight batch's edits over `g`: the rows it rewrote, by edge id. Every
/// other row, and all of the topology, stays `g`'s.
struct Patch<'g> {
    g: &'g TopicGraph,
    rows: BTreeMap<EdgeId, Row>,
}

impl Rows for Patch<'_> {
    fn num_topics(&self) -> usize {
        self.g.num_topics()
    }

    fn edge_len(&self) -> usize {
        self.g.edge_count()
    }

    fn endpoints(&self, e: EdgeId) -> [NodeId; 2] {
        let (u, v) = self.g.edge_endpoints(e).expect("a checked edge");
        [u, v]
    }

    fn row(&self, e: EdgeId) -> Row {
        match self.rows.get(&e) {
            Some(row) => row.clone(),
            None => self.g.edge_topic_probs(e).map(|(z, p)| (z.0, p)).collect(),
        }
    }

    fn set(&mut self, e: EdgeId, row: Row) {
        self.rows.insert(e, row);
    }
}

impl Patch<'_> {
    /// The builder copy of `g` with the patched rows in place and emptied
    /// ones dropped: where a batch goes on once a row empties.
    fn into_builder(self) -> GraphBuilder {
        let mut b = builder_from(self.g);
        for (e, row) in self.rows {
            b.edges[e.index()].2 = row;
        }
        b.edges.retain(|r| !r.2.is_empty());
        b
    }

    /// The patched graph — `g`'s topology and names shared, the weight
    /// arrays copied with the rewritten rows spliced in — and its report.
    fn finish(self) -> Applied {
        let g = self.g;
        let mut moved = Vec::new();
        let mut shifts = Vec::new();
        for (&edge, row) in &self.rows {
            let old: Row = g.edge_topic_probs(edge).map(|(z, p)| (z.0, p)).collect();
            diff_rows(edge, &old, row, &mut moved);
            let was = g.edge_prob_max(edge);
            let now = row.iter().map(|&(_, p)| p).fold(0.0, f32::max);
            if was.to_bits() != now.to_bits() {
                let target = NodeId(g.fwd_targets[edge.index()]);
                shifts.push(MaxShift {
                    edge,
                    target,
                    old: was,
                    new: now,
                });
            }
        }
        let (prob_offsets, prob_topics, prob_values) = self.weights();
        let graph = TopicGraph {
            num_topics: g.num_topics,
            names: Arc::clone(&g.names),
            name_index: Arc::clone(&g.name_index),
            fwd_offsets: Arc::clone(&g.fwd_offsets),
            fwd_targets: Arc::clone(&g.fwd_targets),
            rev_offsets: Arc::clone(&g.rev_offsets),
            rev_sources: Arc::clone(&g.rev_sources),
            rev_edge_ids: Arc::clone(&g.rev_edge_ids),
            prob_offsets,
            prob_topics,
            prob_values,
        };
        Applied {
            graph,
            shifts: Some(shifts),
            moved: Some(moved),
        }
    }

    /// `g`'s weight arrays with the patched rows spliced in between bulk
    /// copies of the untouched runs.
    fn weights(&self) -> (Vec<u32>, Vec<u16>, Vec<f32>) {
        let g = self.g;
        let m = g.edge_count();
        let extra: usize = self.rows.values().map(Vec::len).sum();
        let mut out = (
            Vec::with_capacity(m + 1),
            Vec::with_capacity(g.prob_topics.len() + extra),
            Vec::with_capacity(g.prob_values.len() + extra),
        );
        out.0.push(0u32);
        let mut next = 0;
        for (&e, row) in &self.rows {
            copy_rows(g, next..e.index(), &mut out);
            out.1.extend(row.iter().map(|&(z, _)| z));
            out.2.extend(row.iter().map(|&(_, p)| p));
            out.0.push(out.1.len() as u32);
            next = e.index() + 1;
        }
        copy_rows(g, next..m, &mut out);
        out
    }
}

/// Append `g`'s rows of the edges in `edges` to the weight arrays `out`,
/// their offsets re-based onto the arrays' current end.
fn copy_rows(
    g: &TopicGraph,
    edges: std::ops::Range<usize>,
    (offsets, topics, values): &mut (Vec<u32>, Vec<u16>, Vec<f32>),
) {
    let (lo, hi) = (g.prob_offsets[edges.start], g.prob_offsets[edges.end]);
    let base = topics.len() as u32;
    topics.extend_from_slice(&g.prob_topics[lo as usize..hi as usize]);
    values.extend_from_slice(&g.prob_values[lo as usize..hi as usize]);
    let ends = &g.prob_offsets[edges.start + 1..=edges.end];
    offsets.extend(ends.iter().map(|&o| o - lo + base));
}

/// Push every entry that differs between `old` and `new`, two rows of one
/// edge (each topic-sorted), onto `out`.
fn diff_rows(edge: EdgeId, old: &[(u16, f32)], new: &[(u16, f32)], out: &mut Vec<MovedEntry>) {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let (mut i, mut j) = (0, 0);
    loop {
        let (topic, was, now) = match (old.get(i), new.get(j)) {
            (None, None) => break,
            (Some(&(z, p)), None) => (z, Some(p), None),
            (None, Some(&(z, p))) => (z, None, Some(p)),
            (Some(&(za, pa)), Some(&(zb, pb))) => match za.cmp(&zb) {
                Less => (za, Some(pa), None),
                Greater => (zb, None, Some(pb)),
                Equal => (za, Some(pa), Some(pb)),
            },
        };
        i += was.is_some() as usize;
        j += now.is_some() as usize;
        if was.map(f32::to_bits) != now.map(f32::to_bits) {
            out.push(MovedEntry {
                edge,
                topic: TopicId(topic),
                old: was,
                new: now,
            });
        }
    }
}

impl GraphBuilder {
    /// Apply one delta to a builder whose edge list is in CSR order
    /// ([`builder_from`]), keeping it in CSR order with no empty row.
    fn apply_delta(
        &mut self,
        d: &GraphDelta,
        visit: &mut impl FnMut(&GraphDelta, &[NodeId]),
    ) -> Result<()> {
        let mut emptied = false;
        match d {
            GraphDelta::NudgeWeights { .. } | GraphDelta::SetWeights { .. } => {
                emptied = edit_weights(self, d, visit)?;
            }
            GraphDelta::InsertEdge { src, dst, probs } => {
                self.check_endpoints(*src, *dst)?;
                visit(d, &[*src, *dst]);
                let row = sparse_row(self.num_topics(), probs)?;
                let key = (src.0, dst.0);
                match self.edges.binary_search_by_key(&key, |r| (r.0, r.1)) {
                    Ok(i) => self.edges[i].2 = crate::builder::merge_max(&self.edges[i].2, &row),
                    Err(i) if !row.is_empty() => self.edges.insert(i, (src.0, dst.0, row)),
                    Err(_) => {}
                }
            }
            GraphDelta::RemoveEdge { edge } => {
                self.check_edge(*edge)?;
                visit(d, &self.endpoints(*edge));
                self.edges.remove(edge.index());
            }
            GraphDelta::RenameNode { node, name } => {
                if node.index() >= self.names.len() {
                    return Err(GraphError::NodeOutOfBounds {
                        node: node.0,
                        len: self.names.len(),
                    });
                }
                visit(d, &[*node]);
                if !name.is_empty() && self.name_index.get(name).is_some_and(|u| u != node) {
                    return Err(GraphError::DuplicateName(name.clone()));
                }
                self.rename(*node, name);
            }
        }
        if emptied {
            self.edges.retain(|r| !r.2.is_empty());
        }
        Ok(())
    }

    /// Rename `node`, keeping the name index what re-adding every node in
    /// id order would make it (the last node holding a name owns it).
    fn rename(&mut self, node: NodeId, name: &str) {
        let old = std::mem::replace(&mut self.names[node.index()], name.to_string());
        if self.name_index.get(&old) == Some(&node) {
            self.name_index.remove(&old);
            if let Some(u) = self.names.iter().rposition(|n| *n == old) {
                self.name_index.insert(old, NodeId(u as u32));
            }
        }
        if !name.is_empty() {
            self.named = true;
            self.name_index.insert(name.to_string(), node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::ids::TopicId;

    fn fixture() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        b.add_node("ada");
        b.add_node("grace");
        b.add_node("edsger");
        b.add_node("barbara");
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (1, 0.25)])
            .unwrap();
        b.add_edge(NodeId(1), NodeId(2), &[(1, 0.75)]).unwrap();
        b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rebuild_is_identity() {
        let g = fixture();
        assert_eq!(builder_from(&g).build().unwrap(), g);
        // anonymous graphs too
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(3);
        b.add_edge(NodeId(0), NodeId(2), &[(0, 0.5)]).unwrap();
        let anon = b.build().unwrap();
        assert_eq!(builder_from(&anon).build().unwrap(), anon);
    }

    #[test]
    fn nudge_changes_only_the_weight_slice() {
        let g = fixture();
        let e = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        let nudged = nudge_weights(&g, &[e], 0.1).unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topology,
            codec::GraphKeys::of(&nudged).topology
        );
        assert_eq!(
            codec::GraphKeys::of(&g).names,
            codec::GraphKeys::of(&nudged).names
        );
        assert_ne!(
            codec::GraphKeys::of(&g).weights,
            codec::GraphKeys::of(&nudged).weights
        );
        assert!((nudged.edge_prob_topic(e, TopicId(1)) - 0.85).abs() < 1e-6);
        // untouched edges keep bit-identical probabilities
        let other = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            g.edge_prob_topic(other, TopicId(0)),
            nudged.edge_prob_topic(other, TopicId(0))
        );
    }

    #[test]
    fn nudge_reflects_at_the_boundary() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(2);
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.98)]).unwrap();
        let g = b.build().unwrap();
        let e = EdgeId(0);
        let nudged = nudge_weights(&g, &[e], 0.1).unwrap();
        let p = nudged.edge_prob_topic(e, TopicId(0));
        assert!((p - 0.88).abs() < 1e-6, "0.98 + 0.1 reflects to 0.88");
        assert!(nudge_weights(&g, &[EdgeId(7)], 0.1).is_err());
    }

    #[test]
    fn insert_and_remove_shift_ids() {
        let g = fixture();
        let bigger = insert_edge(&g, NodeId(0), NodeId(3), &[(1, 0.4)]).unwrap();
        assert_eq!(bigger.edge_count(), g.edge_count() + 1);
        // inserted edge sorts between (0,1) and (1,2): later ids shift up
        assert_eq!(
            bigger.edge_endpoints(EdgeId(1)).unwrap(),
            (NodeId(0), NodeId(3))
        );
        assert_eq!(
            bigger.edge_endpoints(EdgeId(2)).unwrap(),
            (NodeId(1), NodeId(2))
        );
        let back = remove_edge(&bigger, EdgeId(1)).unwrap();
        assert_eq!(back, g, "insert then remove restores the original");
        assert!(insert_edge(&g, NodeId(0), NodeId(0), &[(0, 0.5)]).is_err());
    }

    #[test]
    fn max_shifts_name_moved_maxima_on_id_stable_graphs_only() {
        let g = fixture();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        // a rename and a row rewrite that keeps the maximum shift nothing
        let renamed = rename_node(&g, NodeId(3), "liskov").unwrap();
        assert_eq!(max_shifts(&g, &renamed), Some(Vec::new()));
        let same_max = set_weights(&g, e, &[(0, 0.5), (1, 0.375)]).unwrap();
        assert_eq!(max_shifts(&g, &same_max), Some(Vec::new()));
        // a nudge moves the row's maximum
        let nudged = nudge_weights(&g, &[e], 0.125).unwrap();
        let shift = MaxShift {
            edge: e,
            target: NodeId(1),
            old: 0.5,
            new: 0.625,
        };
        assert_eq!(max_shifts(&g, &nudged), Some(vec![shift]));
        // an insert, a remove, or an emptied row shifts ids
        let bigger = insert_edge(&g, NodeId(0), NodeId(3), &[(1, 0.4)]).unwrap();
        assert_eq!(max_shifts(&g, &bigger), None);
        assert_eq!(max_shifts(&g, &remove_edge(&g, e).unwrap()), None);
        assert_eq!(
            max_shifts(&g, &set_weights(&g, e, &[(0, 0.0)]).unwrap()),
            None
        );
    }

    #[test]
    fn graph_delta_variants_match_the_free_helpers() {
        let g = fixture();
        let e = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(
            GraphDelta::NudgeWeights {
                edges: vec![e],
                delta: 0.1
            }
            .apply(&g)
            .unwrap(),
            nudge_weights(&g, &[e], 0.1).unwrap()
        );
        assert_eq!(
            GraphDelta::InsertEdge {
                src: NodeId(0),
                dst: NodeId(3),
                probs: vec![(1, 0.4)]
            }
            .apply(&g)
            .unwrap(),
            insert_edge(&g, NodeId(0), NodeId(3), &[(1, 0.4)]).unwrap()
        );
        assert_eq!(
            GraphDelta::RemoveEdge { edge: e }.apply(&g).unwrap(),
            remove_edge(&g, e).unwrap()
        );
        assert_eq!(
            GraphDelta::RenameNode {
                node: NodeId(1),
                name: "grace hopper".into()
            }
            .apply(&g)
            .unwrap(),
            rename_node(&g, NodeId(1), "grace hopper").unwrap()
        );
        // failures propagate
        assert!(GraphDelta::RemoveEdge { edge: EdgeId(99) }
            .apply(&g)
            .is_err());
    }

    #[test]
    fn coalesced_batch_matches_sequential_application() {
        let g = fixture();
        let batch = vec![
            GraphDelta::NudgeWeights {
                edges: vec![EdgeId(0)],
                delta: 0.05,
            },
            GraphDelta::RenameNode {
                node: NodeId(2),
                name: "edsger dijkstra".into(),
            },
            GraphDelta::InsertEdge {
                src: NodeId(3),
                dst: NodeId(0),
                probs: vec![(0, 0.2)],
            },
        ];
        let coalesced = apply_all(&g, &batch).unwrap();
        let mut sequential = g.clone();
        for d in &batch {
            sequential = d.apply(&sequential).unwrap();
        }
        assert_eq!(coalesced, sequential);
        // empty batch is the identity
        assert_eq!(apply_all(&g, &[]).unwrap(), g);
        // a failing delta mid-batch aborts the whole batch
        let bad = vec![
            GraphDelta::RenameNode {
                node: NodeId(0),
                name: "renamed".into(),
            },
            GraphDelta::RemoveEdge { edge: EdgeId(99) },
        ];
        assert!(apply_all(&g, &bad).is_err());
    }

    #[test]
    fn nudge_runs_fold_without_changing_semantics() {
        let g = fixture();
        let nudge = |edges: Vec<u32>, delta: f64| GraphDelta::NudgeWeights {
            edges: edges.into_iter().map(EdgeId).collect(),
            delta,
        };
        let sequential = |batch: &[GraphDelta]| {
            let mut cur = g.clone();
            for d in batch {
                cur = d.apply(&cur).unwrap();
            }
            cur
        };
        // disjoint same-δ run (the serving-churn shape): one pass, same
        // graph as one-at-a-time
        let run = vec![
            nudge(vec![0], 0.05),
            nudge(vec![1], 0.05),
            nudge(vec![2], 0.05),
        ];
        assert_eq!(apply_all(&g, &run).unwrap(), sequential(&run));
        // repeated edge: the second nudge must compound, not be absorbed
        let repeat = vec![nudge(vec![0], 0.05), nudge(vec![0], 0.05)];
        assert_eq!(apply_all(&g, &repeat).unwrap(), sequential(&repeat));
        assert_ne!(
            apply_all(&g, &repeat).unwrap(),
            apply_all(&g, &[nudge(vec![0], 0.05)]).unwrap()
        );
        // mixed perturbations: still equivalent
        let mixed = vec![nudge(vec![0], 0.05), nudge(vec![1], 0.07)];
        assert_eq!(apply_all(&g, &mixed).unwrap(), sequential(&mixed));
        // a run interrupted by another variant: still equivalent
        let interrupted = vec![
            nudge(vec![0], 0.05),
            GraphDelta::RenameNode {
                node: NodeId(3),
                name: "barbara liskov".into(),
            },
            nudge(vec![1], 0.05),
        ];
        assert_eq!(
            apply_all(&g, &interrupted).unwrap(),
            sequential(&interrupted)
        );
        // an invalid edge anywhere in a run aborts the batch
        assert!(apply_all(&g, &[nudge(vec![0], 0.05), nudge(vec![99], 0.05)]).is_err());
    }

    /// Two topic-1-only edges plus one topic-0-only edge, for exercising
    /// same-topic mixed-δ runs.
    fn topic_confined_fixture() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        let _ = b.add_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), &[(1, 0.5)]).unwrap();
        b.add_edge(NodeId(1), NodeId(2), &[(1, 0.25)]).unwrap();
        b.add_edge(NodeId(2), NodeId(3), &[(0, 0.75)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn same_topic_mixed_delta_runs_fold_without_changing_semantics() {
        let g = topic_confined_fixture();
        let nudge = |edges: Vec<u32>, delta: f64| GraphDelta::NudgeWeights {
            edges: edges.into_iter().map(EdgeId).collect(),
            delta,
        };
        let sequential = |batch: &[GraphDelta]| {
            let mut cur = g.clone();
            for d in batch {
                cur = d.apply(&cur).unwrap();
            }
            cur
        };
        // disjoint edges, different δ, same single topic: same graph as
        // one-at-a-time, and the run's topic footprint stays exactly {1}
        let run = vec![nudge(vec![0], 0.05), nudge(vec![1], 0.07)];
        let folded = apply_all(&g, &run).unwrap();
        assert_eq!(folded, sequential(&run));
        assert_eq!(
            codec::GraphKeys::of(&g).topics[0],
            codec::GraphKeys::of(&folded).topics[0],
            "a topic-1-confined run must leave topic 0's weight slice alone"
        );
        assert_ne!(
            codec::GraphKeys::of(&g).topics[1],
            codec::GraphKeys::of(&folded).topics[1]
        );
        // different δ across *different* topics: still equivalent
        let cross = vec![nudge(vec![0], 0.05), nudge(vec![2], 0.07)];
        assert_eq!(apply_all(&g, &cross).unwrap(), sequential(&cross));
        // repeated edge inside a same-topic run must still compound
        let repeat = vec![nudge(vec![0], 0.05), nudge(vec![0], 0.07)];
        assert_eq!(apply_all(&g, &repeat).unwrap(), sequential(&repeat));
    }

    #[test]
    fn touched_topics_matches_the_per_topic_weight_hashes() {
        let g = fixture();
        let set = |zs: &[usize]| zs.iter().copied().collect::<BTreeSet<usize>>();
        // rename: no topic moves
        let rename = GraphDelta::RenameNode {
            node: NodeId(1),
            name: "grace hopper".into(),
        };
        assert_eq!(rename.touched_topics(&g), Some(set(&[])));
        // nudge: union of sparse entries on the listed edges
        let nudge0 = GraphDelta::NudgeWeights {
            edges: vec![EdgeId(0)],
            delta: 0.05,
        };
        assert_eq!(nudge0.touched_topics(&g), Some(set(&[0, 1])));
        let nudge1 = GraphDelta::NudgeWeights {
            edges: vec![EdgeId(1)],
            delta: 0.05,
        };
        assert_eq!(nudge1.touched_topics(&g), Some(set(&[1])));
        // the footprint is exact: topics outside it keep their hash,
        // topics inside it move
        let nudged = nudge1.apply(&g).unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topics[0],
            codec::GraphKeys::of(&nudged).topics[0]
        );
        assert_ne!(
            codec::GraphKeys::of(&g).topics[1],
            codec::GraphKeys::of(&nudged).topics[1]
        );
        // insert: the topics in the payload
        let insert = GraphDelta::InsertEdge {
            src: NodeId(0),
            dst: NodeId(3),
            probs: vec![(1, 0.4)],
        };
        assert_eq!(insert.touched_topics(&g), Some(set(&[1])));
        let inserted = insert.apply(&g).unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topics[0],
            codec::GraphKeys::of(&inserted).topics[0]
        );
        // remove: the victim's sparse entries
        let remove = GraphDelta::RemoveEdge { edge: EdgeId(2) };
        assert_eq!(remove.touched_topics(&g), Some(set(&[0])));
        // invalid edge ids: footprint unknown → None (assume all topics)
        let bad_nudge = GraphDelta::NudgeWeights {
            edges: vec![EdgeId(99)],
            delta: 0.05,
        };
        assert_eq!(bad_nudge.touched_topics(&g), None);
        assert_eq!(
            GraphDelta::RemoveEdge { edge: EdgeId(99) }.touched_topics(&g),
            None
        );
    }

    #[test]
    fn set_weights_replaces_the_whole_row() {
        let g = fixture();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap(); // row {0: 0.5, 1: 0.25}
                                                            // support change: topic 1 vanishes, topic 0 moves
        let set = set_weights(&g, e, &[(0, 0.9)]).unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topology,
            codec::GraphKeys::of(&set).topology
        );
        assert_eq!(
            codec::GraphKeys::of(&g).names,
            codec::GraphKeys::of(&set).names
        );
        assert!((set.edge_prob_topic(e, TopicId(0)) - 0.9).abs() < 1e-6);
        assert_eq!(set.edge_prob_topic(e, TopicId(1)), 0.0, "entry dropped");
        // untouched edges keep bit-identical probabilities
        let other = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(
            g.edge_prob_topic(other, TopicId(1)),
            set.edge_prob_topic(other, TopicId(1))
        );
        // the delta variant matches the free helper
        assert_eq!(
            GraphDelta::SetWeights {
                edge: e,
                probs: vec![(0, 0.9)]
            }
            .apply(&g)
            .unwrap(),
            set
        );
        // setting a row to itself is the identity
        let row: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(z, p)| (z.index(), p as f64))
            .collect();
        assert_eq!(set_weights(&g, e, &row).unwrap(), g);
        // invalid ids and invalid probabilities are rejected
        assert!(set_weights(&g, EdgeId(99), &[(0, 0.5)]).is_err());
        assert!(set_weights(&g, e, &[(0, 1.5)]).is_err());
    }

    #[test]
    fn set_weights_touched_topics_is_the_changed_entries() {
        let g = fixture();
        let set = |zs: &[usize]| zs.iter().copied().collect::<BTreeSet<usize>>();
        let e = g.find_edge(NodeId(1), NodeId(2)).unwrap(); // row {1: 0.75}
        let d = GraphDelta::SetWeights {
            edge: e,
            probs: vec![(0, 0.3)],
        };
        // old entry on topic 1 vanishes, a new one appears on topic 0
        assert_eq!(d.touched_topics(&g), Some(set(&[0, 1])));
        let applied = d.apply(&g).unwrap();
        assert_ne!(
            codec::GraphKeys::of(&g).topics[0],
            codec::GraphKeys::of(&applied).topics[0]
        );
        assert_ne!(
            codec::GraphKeys::of(&g).topics[1],
            codec::GraphKeys::of(&applied).topics[1]
        );
        // a same-topic replacement keeps the footprint confined
        let confined = GraphDelta::SetWeights {
            edge: e,
            probs: vec![(1, 0.6)],
        };
        assert_eq!(confined.touched_topics(&g), Some(set(&[1])));
        let applied = confined.apply(&g).unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topics[0],
            codec::GraphKeys::of(&applied).topics[0],
            "topic-1-confined replacement must leave topic 0's slice alone"
        );
        // a dense row that re-states entries bitwise only touches the
        // entries that move — this is what keeps a thresholded learner's
        // row replacements topic-sparse for the ingest batcher
        let e01 = g.find_edge(NodeId(0), NodeId(1)).unwrap(); // row {0: 0.5, 1: 0.25}
        let partial = GraphDelta::SetWeights {
            edge: e01,
            probs: vec![(0, 0.5), (1, 0.9)],
        };
        assert_eq!(partial.touched_topics(&g), Some(set(&[1])));
        let applied = partial.apply(&g).unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topics[0],
            codec::GraphKeys::of(&applied).topics[0],
            "the re-stated topic-0 entry is bitwise unchanged"
        );
        assert_ne!(
            codec::GraphKeys::of(&g).topics[1],
            codec::GraphKeys::of(&applied).topics[1]
        );
        // re-stating the whole row bitwise touches nothing at all
        let row: Vec<(usize, f64)> = g
            .edge_topic_probs(e01)
            .map(|(z, p)| (z.index(), p as f64))
            .collect();
        let identity = GraphDelta::SetWeights {
            edge: e01,
            probs: row,
        };
        assert_eq!(identity.touched_topics(&g), Some(set(&[])));
        // unknown edge: footprint unknown
        assert_eq!(
            GraphDelta::SetWeights {
                edge: EdgeId(99),
                probs: vec![(0, 0.5)]
            }
            .touched_topics(&g),
            None
        );
    }

    #[test]
    fn set_weights_runs_fold_without_changing_semantics() {
        let g = fixture();
        let set = |edge: u32, probs: Vec<(usize, f64)>| GraphDelta::SetWeights {
            edge: EdgeId(edge),
            probs,
        };
        let sequential = |batch: &[GraphDelta]| {
            let mut cur = g.clone();
            for d in batch {
                cur = d.apply(&cur).unwrap();
            }
            cur
        };
        // disjoint edges: one rebuild, same graph as one-at-a-time
        let run = vec![
            set(0, vec![(0, 0.6), (1, 0.3)]),
            set(1, vec![(0, 0.2)]),
            set(2, vec![(1, 0.45)]),
        ];
        assert_eq!(apply_all(&g, &run).unwrap(), sequential(&run));
        // repeated edge: the last row wins, exactly like sequential
        let repeat = vec![set(0, vec![(0, 0.6)]), set(0, vec![(1, 0.8)])];
        assert_eq!(apply_all(&g, &repeat).unwrap(), sequential(&repeat));
        assert_eq!(
            apply_all(&g, &repeat).unwrap(),
            apply_all(&g, &[set(0, vec![(1, 0.8)])]).unwrap()
        );
        // an emptied row drops its edge before the next row reads its id
        let shifted = vec![set(0, vec![(0, 0.0)]), set(0, vec![(1, 0.8)])];
        assert_eq!(apply_all(&g, &shifted).unwrap(), sequential(&shifted));
        assert_eq!(apply_all(&g, &shifted).unwrap().edge_count(), 2);
        // a run interrupted by another variant: still equivalent
        let interrupted = vec![
            set(0, vec![(0, 0.6)]),
            GraphDelta::RenameNode {
                node: NodeId(3),
                name: "barbara liskov".into(),
            },
            set(1, vec![(1, 0.35)]),
        ];
        assert_eq!(
            apply_all(&g, &interrupted).unwrap(),
            sequential(&interrupted)
        );
        // an invalid edge anywhere in a run aborts the batch
        assert!(apply_all(&g, &[set(0, vec![(0, 0.6)]), set(99, vec![(0, 0.5)])]).is_err());
    }

    #[test]
    fn rename_preserves_everything_else() {
        let g = fixture();
        let renamed = rename_node(&g, NodeId(1), "grace hopper").unwrap();
        assert_eq!(
            codec::GraphKeys::of(&g).topology,
            codec::GraphKeys::of(&renamed).topology
        );
        assert_eq!(
            codec::GraphKeys::of(&g).weights,
            codec::GraphKeys::of(&renamed).weights
        );
        assert_ne!(
            codec::GraphKeys::of(&g).names,
            codec::GraphKeys::of(&renamed).names
        );
        assert_eq!(renamed.node_by_name("grace hopper"), Some(NodeId(1)));
        assert_eq!(renamed.node_by_name("grace"), None);
        // renaming onto an existing other node is rejected
        assert!(rename_node(&g, NodeId(1), "ada").is_err());
        // renaming a node onto its own name is a no-op, not an error
        assert_eq!(rename_node(&g, NodeId(1), "grace").unwrap(), g);
    }
}
