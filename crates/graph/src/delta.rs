//! Small-delta edits on an immutable [`TopicGraph`].
//!
//! OCTOPUS's online story assumes the network keeps changing under it — new
//! follows appear, influence-probability estimates drift as the action log
//! grows (`octopus-data::learn::fit_warm`), users rename themselves. The
//! CSR graph is deliberately immutable, so a delta produces a *new* graph
//! by rebuilding through [`GraphBuilder`]; these helpers express the three
//! delta shapes the incremental offline-rebuild machinery distinguishes
//! (weight nudge / edge insert / rename) in one call each.
//!
//! All helpers preserve node ids. Edge ids are preserved **except** by
//! [`insert_edge`] / [`remove_edge`] (and a nudge or row replacement that
//! leaves a row all zero: the builder drops that edge), which shift the ids
//! of every edge at or after the change (ids are dense in CSR order) — a
//! consumer holding per-edge state must treat shifted edges as changed,
//! and the per-stage artifact fingerprints do exactly that.

use crate::builder::GraphBuilder;
use crate::csr::TopicGraph;
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use crate::Result;
use std::collections::BTreeSet;

/// Copy `g` into a fresh [`GraphBuilder`] (same nodes, names, and edges).
///
/// The round trip is exact: `builder_from(&g).build() == g` — pinned by the
/// `rebuild_is_identity` test — so callers can apply an edit on top of the
/// copy and get a graph that differs from `g` in exactly that edit.
pub fn builder_from(g: &TopicGraph) -> GraphBuilder {
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        b.add_node(g.name(u).unwrap_or(""));
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e).expect("iterated edge is valid");
        let probs: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(z, p)| (z.index(), p as f64))
            .collect();
        b.add_edge(u, v, &probs).expect("copied edge is valid");
    }
    b
}

/// Rebuild `g` with the topic probabilities of each edge in `edges`
/// perturbed: every sparse entry `p` becomes `p + delta` (reflected off the
/// `(0, 1]` boundary so the value always actually moves). Node and edge ids
/// are unchanged; only the probability table differs.
pub fn nudge_weights(g: &TopicGraph, edges: &[EdgeId], delta: f64) -> Result<TopicGraph> {
    let pairs: Vec<(EdgeId, f64)> = edges.iter().map(|&e| (e, delta)).collect();
    nudge_weights_multi(g, &pairs)
}

/// Like [`nudge_weights`], but each edge carries its own perturbation —
/// the shape [`apply_all`] folds a run of same-topic nudges into. All
/// pairs apply simultaneously to `g`; listing an edge more than once does
/// not compound (the last pair for an edge wins, and listing the same
/// `(edge, delta)` twice equals listing it once, matching the
/// `edges.contains` semantics [`nudge_weights`] always had).
pub fn nudge_weights_multi(g: &TopicGraph, pairs: &[(EdgeId, f64)]) -> Result<TopicGraph> {
    for &(e, _) in pairs {
        g.check_edge(e)?;
    }
    let mut per_edge: Vec<Option<f64>> = vec![None; g.edge_count()];
    for &(e, d) in pairs {
        per_edge[e.index()] = Some(d);
    }
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        b.add_node(g.name(u).unwrap_or(""));
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e).expect("iterated edge is valid");
        let nudge = per_edge[e.index()];
        let probs: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(z, p)| {
                let p = p as f64;
                let p = match nudge {
                    Some(delta) => {
                        if p + delta <= 1.0 && p + delta > 0.0 {
                            p + delta
                        } else {
                            p - delta
                        }
                    }
                    None => p,
                };
                (z.index(), p)
            })
            .collect();
        b.add_edge(u, v, &probs)?;
    }
    b.build()
}

/// Rebuild `g` with edge `edge`'s sparse probability row replaced
/// wholesale by `probs` — exact values, support changes included. This is
/// the delta shape a warm EM refit's weight diff produces: the learner
/// emits complete per-topic rows, which a [`nudge_weights`] (one additive
/// delta over every *existing* entry) cannot express. Node ids are kept;
/// an all-zero row drops its edge, shifting every later edge id.
pub fn set_weights(g: &TopicGraph, edge: EdgeId, probs: &[(usize, f64)]) -> Result<TopicGraph> {
    set_weights_multi(g, &[(edge, probs.to_vec())])
}

/// Like [`set_weights`] over several edges at once — the shape
/// [`apply_all`] folds a run of row replacements into. Listing an edge
/// more than once keeps the *last* row (a later replacement overwrites an
/// earlier one completely, exactly the sequential semantics).
pub fn set_weights_multi(
    g: &TopicGraph,
    rows: &[(EdgeId, Vec<(usize, f64)>)],
) -> Result<TopicGraph> {
    for (e, _) in rows {
        g.check_edge(*e)?;
    }
    let mut per_edge: Vec<Option<&[(usize, f64)]>> = vec![None; g.edge_count()];
    for (e, probs) in rows {
        per_edge[e.index()] = Some(probs);
    }
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        b.add_node(g.name(u).unwrap_or(""));
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e).expect("iterated edge is valid");
        match per_edge[e.index()] {
            Some(row) => b.add_edge(u, v, row)?,
            None => {
                let probs: Vec<(usize, f64)> = g
                    .edge_topic_probs(e)
                    .map(|(z, p)| (z.index(), p as f64))
                    .collect();
                b.add_edge(u, v, &probs)?
            }
        };
    }
    b.build()
}

/// Rebuild `g` with a single additional edge `u → v`.
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
    let mut b = builder_from(g);
    b.add_edge(u, v, probs)?;
    b.build()
}

/// Rebuild `g` without edge `e`. Every edge with a larger id shifts down by
/// one (ids stay dense in CSR order).
pub fn remove_edge(g: &TopicGraph, victim: EdgeId) -> Result<TopicGraph> {
    g.check_edge(victim)?;
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        b.add_node(g.name(u).unwrap_or(""));
    }
    for e in g.edges() {
        if e == victim {
            continue;
        }
        let (u, v) = g.edge_endpoints(e).expect("iterated edge is valid");
        let probs: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(z, p)| (z.index(), p as f64))
            .collect();
        b.add_edge(u, v, &probs)?;
    }
    b.build()
}

/// One graph mutation as a first-class value — the submission format of the
/// serving layer (`octopus_core::serve`), which queues deltas from writer
/// threads and coalesces a pending batch into a single rebuild.
///
/// Each variant corresponds to one of the free helpers in this module and
/// applies with identical semantics; [`GraphDelta::apply`] is the bridge.
/// Id caveat: [`EdgeId`]s inside a delta refer to the graph the delta is
/// applied *to* — in a coalesced batch ([`apply_all`]) that is the output
/// of the previous delta, so a batch containing `InsertEdge`/`RemoveEdge`
/// must account for the id shifts those cause.
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
        match self {
            GraphDelta::NudgeWeights { edges, delta } => nudge_weights(g, edges, *delta),
            GraphDelta::SetWeights { edge, probs } => set_weights(g, *edge, probs),
            GraphDelta::InsertEdge { src, dst, probs } => insert_edge(g, *src, *dst, probs),
            GraphDelta::RemoveEdge { edge } => remove_edge(g, *edge),
            GraphDelta::RenameNode { node, name } => rename_node(g, *node, name),
        }
    }

    /// The set of topics whose per-topic weight slice this delta can move
    /// when applied to `g` — the footprint the per-topic offline stages
    /// (cap/PB/MIS sub-sections of the OCTA container) key invalidation on.
    ///
    /// `Some(set)` is exact: every topic outside `set` keeps a bit-identical
    /// [`crate::codec::hash_weights_topic`]. A rename touches no topic; a
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

/// Whether `batch` only rewrites weights and names: no edge insert or
/// remove. Such a batch names edges of the graph it starts from throughout,
/// unless a row it empties drops that edge and shifts every later id.
pub fn reweights_only(batch: &[GraphDelta]) -> bool {
    !batch.iter().any(|d| {
        matches!(
            d,
            GraphDelta::InsertEdge { .. } | GraphDelta::RemoveEdge { .. }
        )
    })
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
    let shifts = old.edges().filter_map(|edge| {
        let (was, now) = (old.edge_prob_max(edge), new.edge_prob_max(edge));
        (was.to_bits() != now.to_bits()).then(|| MaxShift {
            edge,
            target: NodeId(new.fwd_targets[edge.index()]),
            old: was,
            new: now,
        })
    });
    Some(shifts.collect())
}

/// Apply `deltas` in order, each on the output of the previous one —
/// exactly what a coalesced serving batch does. Applying a batch in one
/// call is equivalent, graph-for-graph, to applying its deltas one at a
/// time (pinned by `coalesced_batch_matches_sequential_application`); an
/// empty batch returns a clone of `g`. The first failing delta aborts the
/// whole batch.
///
/// Each delta rebuilds the graph through a [`GraphBuilder`] pass, so a
/// naive fold is `O(k·|G|)` for a `k`-delta batch. The dominant batch
/// shapes under serving churn fold into a **single** rebuild instead:
///
/// * a run of weight nudges with the same perturbation over *distinct*
///   edges (the stream a warm EM refit emits), and
/// * a run of weight nudges over distinct edges whose sparse entries all
///   sit on the **same single topic** — perturbations may differ per
///   nudge; the fold goes through [`nudge_weights_multi`] and keeps the
///   run's topic footprint (`touched_topics`) at exactly that one topic,
///   so a topic-confined refit stream coalesces without widening the
///   per-topic cap/PB/MIS invalidation it triggers.
///
/// Both folds are equivalent to sequential application because nudges are
/// simultaneous over disjoint edges and leave every id stable. Runs
/// touching an edge twice (a double nudge must compound, and reflection
/// is not additive) are *not* merged and keep sequential semantics, as
/// are mixed-perturbation runs spanning more than one topic.
///
/// A run of [`GraphDelta::SetWeights`] row replacements (the ingestion
/// loop's learned-weight stream) *always* folds into one
/// [`set_weights_multi`] rebuild: replacements are absolute, so even a
/// repeated edge keeps sequential semantics (the last row wins).
pub fn apply_all(g: &TopicGraph, deltas: &[GraphDelta]) -> Result<TopicGraph> {
    let mut current: Option<TopicGraph> = None;
    let mut i = 0;
    while i < deltas.len() {
        let base = current.as_ref().unwrap_or(g);
        let mut end = i + 1;
        let next = if let GraphDelta::NudgeWeights { edges, delta } = &deltas[i] {
            let mut pairs: Vec<(EdgeId, f64)> = edges.iter().map(|&e| (e, *delta)).collect();
            let mut seen = edges.clone();
            // Footprints are read off `base`: later nudges in the run see
            // intermediate graphs, but nudging never adds or drops sparse
            // entries (probabilities stay in (0, 1]), so the footprint of
            // every edge is the same on `base` and on the intermediates.
            let run_topic = single_topic_footprint(base, edges);
            while let Some(GraphDelta::NudgeWeights {
                edges: more,
                delta: d,
            }) = deltas.get(end)
            {
                if more.iter().any(|e| seen.contains(e)) {
                    break;
                }
                let same_delta = d.to_bits() == delta.to_bits();
                let same_topic =
                    run_topic.is_some() && single_topic_footprint(base, more) == run_topic;
                if !same_delta && !same_topic {
                    break;
                }
                pairs.extend(more.iter().map(|&e| (e, *d)));
                seen.extend_from_slice(more);
                end += 1;
            }
            nudge_weights_multi(base, &pairs)?
        } else if let GraphDelta::SetWeights { edge, probs } = &deltas[i] {
            let mut rows: Vec<(EdgeId, Vec<(usize, f64)>)> = vec![(*edge, probs.clone())];
            while let Some(GraphDelta::SetWeights {
                edge: next_edge,
                probs: next_probs,
            }) = deltas.get(end)
            {
                // later rows overwrite earlier ones per edge inside
                // set_weights_multi — exactly the sequential semantics
                rows.push((*next_edge, next_probs.clone()));
                end += 1;
            }
            set_weights_multi(base, &rows)?
        } else {
            deltas[i].apply(base)?
        };
        current = Some(next);
        i = end;
    }
    Ok(current.unwrap_or_else(|| g.clone()))
}

/// `Some(z)` iff every sparse probability entry across `edges` sits on the
/// single topic `z` (and there is at least one entry). `None` for an empty
/// or multi-topic footprint, or for any invalid edge id — invalid ids
/// refuse the fold here and surface their error from the nudge itself.
fn single_topic_footprint(g: &TopicGraph, edges: &[EdgeId]) -> Option<usize> {
    let mut topic: Option<usize> = None;
    for &e in edges {
        g.check_edge(e).ok()?;
        for (z, _) in g.edge_topic_probs(e) {
            match topic {
                None => topic = Some(z.index()),
                Some(t) if t == z.index() => {}
                Some(_) => return None,
            }
        }
    }
    topic
}

/// Rebuild `g` with node `u` renamed to `name`. Topology, weights, and all
/// ids are unchanged; only the name slice differs.
pub fn rename_node(g: &TopicGraph, target: NodeId, name: &str) -> Result<TopicGraph> {
    g.check_node(target)?;
    if !name.is_empty()
        && g.node_by_name(name)
            .is_some_and(|existing| existing != target)
    {
        return Err(GraphError::DuplicateName(name.to_string()));
    }
    let mut b = GraphBuilder::new(g.num_topics()).with_capacity(g.node_count(), g.edge_count());
    for u in g.nodes() {
        if u == target {
            b.add_node(name);
        } else {
            b.add_node(g.name(u).unwrap_or(""));
        }
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e).expect("iterated edge is valid");
        let probs: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(z, p)| (z.index(), p as f64))
            .collect();
        b.add_edge(u, v, &probs)?;
    }
    b.build()
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
        assert_eq!(codec::hash_topology(&g), codec::hash_topology(&nudged));
        assert_eq!(codec::hash_names(&g), codec::hash_names(&nudged));
        assert_ne!(codec::hash_weights(&g), codec::hash_weights(&nudged));
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
        assert!(!reweights_only(&[GraphDelta::RemoveEdge { edge: e }]));
        assert!(reweights_only(&[GraphDelta::SetWeights {
            edge: e,
            probs: vec![(0, 0.0)],
        }]));
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
        // disjoint same-δ run (the serving-churn shape): folds into one
        // rebuild, same graph as one-at-a-time
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
        // mixed perturbations: not merged, still equivalent
        let mixed = vec![nudge(vec![0], 0.05), nudge(vec![1], 0.07)];
        assert_eq!(apply_all(&g, &mixed).unwrap(), sequential(&mixed));
        // a run interrupted by another variant stays sequential around it
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
        // an invalid edge anywhere in a foldable run still aborts
        assert!(apply_all(&g, &[nudge(vec![0], 0.05), nudge(vec![99], 0.05)]).is_err());
    }

    /// Two topic-1-only edges plus one topic-0-only edge, for exercising
    /// the same-topic mixed-δ fold.
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
        // disjoint edges, different δ, same single topic: folds into one
        // multi-δ rebuild, same graph as one-at-a-time — and the fold
        // keeps the run's topic footprint at exactly {1}
        let run = vec![nudge(vec![0], 0.05), nudge(vec![1], 0.07)];
        let folded = apply_all(&g, &run).unwrap();
        assert_eq!(folded, sequential(&run));
        assert_eq!(
            codec::hash_weights_topic(&g, 0),
            codec::hash_weights_topic(&folded, 0),
            "topic-1-confined fold must leave topic 0's weight slice alone"
        );
        assert_ne!(
            codec::hash_weights_topic(&g, 1),
            codec::hash_weights_topic(&folded, 1)
        );
        // different δ across *different* topics: not merged, still equivalent
        let cross = vec![nudge(vec![0], 0.05), nudge(vec![2], 0.07)];
        assert_eq!(apply_all(&g, &cross).unwrap(), sequential(&cross));
        // repeated edge inside a same-topic run must still compound
        let repeat = vec![nudge(vec![0], 0.05), nudge(vec![0], 0.07)];
        assert_eq!(apply_all(&g, &repeat).unwrap(), sequential(&repeat));
    }

    #[test]
    fn multi_nudge_matches_sequential_single_nudges() {
        let g = fixture();
        // edge 1's topic-1 entry (0.75 + 0.3 > 1) exercises the boundary
        // reflection; the others move plainly
        let pairs = vec![(EdgeId(0), 0.05), (EdgeId(1), 0.3), (EdgeId(2), 0.09)];
        let multi = nudge_weights_multi(&g, &pairs).unwrap();
        let mut seq = g.clone();
        for &(e, d) in &pairs {
            seq = nudge_weights(&seq, &[e], d).unwrap();
        }
        assert_eq!(multi, seq, "disjoint per-edge deltas apply simultaneously");
        // uniform pairs reproduce nudge_weights exactly
        assert_eq!(
            nudge_weights_multi(&g, &[(EdgeId(0), 0.05), (EdgeId(1), 0.05)]).unwrap(),
            nudge_weights(&g, &[EdgeId(0), EdgeId(1)], 0.05).unwrap()
        );
        // a repeated edge nudges once (last pair wins), like the
        // `contains`-based membership always did for duplicate ids
        assert_eq!(
            nudge_weights_multi(&g, &[(EdgeId(0), 0.05), (EdgeId(0), 0.05)]).unwrap(),
            nudge_weights(&g, &[EdgeId(0)], 0.05).unwrap()
        );
        assert!(nudge_weights_multi(&g, &[(EdgeId(99), 0.05)]).is_err());
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
            codec::hash_weights_topic(&g, 0),
            codec::hash_weights_topic(&nudged, 0)
        );
        assert_ne!(
            codec::hash_weights_topic(&g, 1),
            codec::hash_weights_topic(&nudged, 1)
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
            codec::hash_weights_topic(&g, 0),
            codec::hash_weights_topic(&inserted, 0)
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
        assert_eq!(codec::hash_topology(&g), codec::hash_topology(&set));
        assert_eq!(codec::hash_names(&g), codec::hash_names(&set));
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
            codec::hash_weights_topic(&g, 0),
            codec::hash_weights_topic(&applied, 0)
        );
        assert_ne!(
            codec::hash_weights_topic(&g, 1),
            codec::hash_weights_topic(&applied, 1)
        );
        // a same-topic replacement keeps the footprint confined
        let confined = GraphDelta::SetWeights {
            edge: e,
            probs: vec![(1, 0.6)],
        };
        assert_eq!(confined.touched_topics(&g), Some(set(&[1])));
        let applied = confined.apply(&g).unwrap();
        assert_eq!(
            codec::hash_weights_topic(&g, 0),
            codec::hash_weights_topic(&applied, 0),
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
            codec::hash_weights_topic(&g, 0),
            codec::hash_weights_topic(&applied, 0),
            "the re-stated topic-0 entry is bitwise unchanged"
        );
        assert_ne!(
            codec::hash_weights_topic(&g, 1),
            codec::hash_weights_topic(&applied, 1)
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
        // a run interrupted by another variant stays sequential around it
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
        // an invalid edge anywhere in a foldable run still aborts
        assert!(apply_all(&g, &[set(0, vec![(0, 0.6)]), set(99, vec![(0, 0.5)])]).is_err());
    }

    #[test]
    fn rename_preserves_everything_else() {
        let g = fixture();
        let renamed = rename_node(&g, NodeId(1), "grace hopper").unwrap();
        assert_eq!(codec::hash_topology(&g), codec::hash_topology(&renamed));
        assert_eq!(codec::hash_weights(&g), codec::hash_weights(&renamed));
        assert_ne!(codec::hash_names(&g), codec::hash_names(&renamed));
        assert_eq!(renamed.node_by_name("grace hopper"), Some(NodeId(1)));
        assert_eq!(renamed.node_by_name("grace"), None);
        // renaming onto an existing other node is rejected
        assert!(rename_node(&g, NodeId(1), "ada").is_err());
        // renaming a node onto its own name is a no-op, not an error
        assert_eq!(rename_node(&g, NodeId(1), "grace").unwrap(), g);
    }
}
