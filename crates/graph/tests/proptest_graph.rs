//! Property-based tests for the graph substrate: CSR invariants, codec
//! round-trips, probability-evaluation laws that every upper layer relies
//! on, and the delta apply pass against a rebuild-per-delta oracle.

use octopus_graph::delta::{apply_all, apply_all_visiting, max_shifts, GraphDelta};
use octopus_graph::{codec, wire, EdgeId, GraphBuilder, GraphError, NodeId, TopicGraph};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const MAX_NODES: usize = 24;
const MAX_TOPICS: usize = 6;

/// `(source, target, sparse (topic, prob) pairs)` — one generated edge.
type EdgeSpec = (u32, u32, Vec<(usize, f64)>);

/// Strategy: an arbitrary small topic graph as (n, Z, edge list).
fn arb_graph_parts() -> impl Strategy<Value = (usize, usize, Vec<EdgeSpec>)> {
    (2..MAX_NODES, 1..MAX_TOPICS).prop_flat_map(|(n, z)| {
        let edge = (
            0..n as u32,
            0..n as u32,
            proptest::collection::vec((0..z, 0.0f64..=1.0f64), 1..4),
        );
        (Just(n), Just(z), proptest::collection::vec(edge, 0..n * 3))
    })
}

fn build(n: usize, z: usize, edges: &[EdgeSpec]) -> TopicGraph {
    let mut b = GraphBuilder::new(z);
    let _ = b.add_nodes(n);
    for (u, v, probs) in edges {
        if u != v {
            b.add_edge(NodeId(*u), NodeId(*v), probs).unwrap();
        }
    }
    b.build().unwrap()
}

fn arb_gamma(z: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0f64, z).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        if s == 0.0 {
            v[0] = 1.0;
        } else {
            for x in v.iter_mut() {
                *x /= s;
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every edge visible in forward adjacency is visible in reverse
    /// adjacency with the same edge id, and vice versa.
    #[test]
    fn forward_reverse_consistency((n, z, edges) in arb_graph_parts()) {
        let g = build(n, z, &edges);
        let mut fwd: Vec<(u32, u32, u32)> = Vec::new();
        for u in g.nodes() {
            for (v, e) in g.out_edges(u) {
                fwd.push((u.0, v.0, e.0));
            }
        }
        let mut rev: Vec<(u32, u32, u32)> = Vec::new();
        for v in g.nodes() {
            for (u, e) in g.in_edges(v) {
                rev.push((u.0, v.0, e.0));
            }
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }

    /// Degrees sum to the edge count on both sides.
    #[test]
    fn degree_sums((n, z, edges) in arb_graph_parts()) {
        let g = build(n, z, &edges);
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    /// `edge_endpoints` inverts `find_edge` for every edge.
    #[test]
    fn endpoints_invert_find((n, z, edges) in arb_graph_parts()) {
        let g = build(n, z, &edges);
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e).unwrap();
            prop_assert_eq!(g.find_edge(u, v), Some(e));
        }
    }

    /// `pp_e(γ)` is a convex combination: bounded by `[0, max_z pp^z_e]`,
    /// and exactly `pp^z_e` at simplex corners.
    #[test]
    fn edge_prob_convexity(
        (n, z, edges) in arb_graph_parts(),
        seed in 0u64..1000,
    ) {
        let g = build(n, z, &edges);
        // Deterministic pseudo-gamma from the seed to avoid a dependent
        // strategy on z.
        let mut gamma = vec![0.0f64; g.num_topics()];
        let mut s = 0.0;
        for (i, gz) in gamma.iter_mut().enumerate() {
            let val = ((seed + 1) * (i as u64 + 3) % 17) as f64;
            *gz = val;
            s += val;
        }
        if s == 0.0 { gamma[0] = 1.0; s = 1.0; }
        for gz in gamma.iter_mut() { *gz /= s; }

        for e in g.edges() {
            let p = g.edge_prob(e, &gamma);
            prop_assert!(p >= -1e-12);
            prop_assert!(p <= g.edge_prob_max(e) as f64 + 1e-6);
            for zz in 0..g.num_topics() {
                let mut corner = vec![0.0; g.num_topics()];
                corner[zz] = 1.0;
                let pc = g.edge_prob(e, &corner);
                let direct = g.edge_prob_topic(e, octopus_graph::TopicId(zz as u16)) as f64;
                prop_assert!((pc - direct).abs() < 1e-6);
            }
        }
    }

    /// Linearity: `pp_e(aγ₁ + (1-a)γ₂) = a·pp_e(γ₁) + (1-a)·pp_e(γ₂)`
    /// (before clamping, which convexity keeps inactive here).
    #[test]
    fn edge_prob_linearity(
        (n, z, edges) in arb_graph_parts(),
        mix in 0.0f64..=1.0f64,
    ) {
        let g = build(n, z, &edges);
        let zt = g.num_topics();
        let g1: Vec<f64> = (0..zt).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let g2: Vec<f64> = vec![1.0 / zt as f64; zt];
        let blended: Vec<f64> = g1.iter().zip(&g2).map(|(a, b)| mix * a + (1.0 - mix) * b).collect();
        for e in g.edges() {
            let lhs = g.edge_prob(e, &blended);
            let rhs = mix * g.edge_prob(e, &g1) + (1.0 - mix) * g.edge_prob(e, &g2);
            prop_assert!((lhs - rhs).abs() < 1e-9, "lhs={lhs} rhs={rhs}");
        }
    }

    /// Codec round-trip is the identity.
    #[test]
    fn codec_round_trip((n, z, edges) in arb_graph_parts()) {
        let g = build(n, z, &edges);
        let g2 = codec::decode(codec::encode(&g)).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Materialized dense probabilities agree with sparse evaluation.
    #[test]
    fn materialize_agrees(
        (n, z, edges) in arb_graph_parts(),
    ) {
        let g = build(n, z, &edges);
        let zt = g.num_topics();
        let gamma = vec![1.0 / zt as f64; zt];
        let dense = g.materialize(&gamma).unwrap();
        for e in g.edges() {
            prop_assert!((dense.get(e) as f64 - g.edge_prob(e, &gamma)).abs() < 1e-6);
        }
    }

    /// Truncated codec payloads error (never panic).
    #[test]
    fn codec_truncation_safe((n, z, edges) in arb_graph_parts(), frac in 0.0f64..1.0) {
        let g = build(n, z, &edges);
        let bytes = codec::encode(&g);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(codec::decode(&bytes[..cut]).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gamma validation catches every wrong dimension.
    #[test]
    fn gamma_validation(z in 1usize..6, wrong in 0usize..10) {
        prop_assume!(wrong != z);
        let mut b = GraphBuilder::new(z);
        let u = b.add_node("u");
        let v = b.add_node("v");
        b.add_edge(u, v, &[(0, 0.5)]).unwrap();
        let g = b.build().unwrap();
        let gamma = vec![0.0; wrong];
        prop_assert!(g.materialize(&gamma).is_err());
    }

    /// `arb_gamma` helper really produces simplex points (self-test of the
    /// strategy used elsewhere).
    #[test]
    fn gamma_strategy_is_simplex(gamma in arb_gamma(4)) {
        let s: f64 = gamma.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(gamma.iter().all(|&x| x >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tarjan SCC agrees with brute-force mutual reachability: two nodes
    /// share a component iff each reaches the other.
    #[test]
    fn scc_matches_mutual_reachability((n, z, edges) in arb_graph_parts()) {
        use octopus_graph::algo::{reachable, strongly_connected_components, Direction};
        let g = build(n, z, &edges);
        let (comp, count) = strongly_connected_components(&g);
        prop_assert!(count >= 1 || g.node_count() == 0);
        // brute-force forward reachability sets
        let reach: Vec<Vec<bool>> = g
            .nodes()
            .map(|u| {
                let mut r = vec![false; g.node_count()];
                for v in reachable(&g, u, Direction::Forward) {
                    r[v.index()] = true;
                }
                r
            })
            .collect();
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                let mutually = reach[u][v] && reach[v][u];
                prop_assert_eq!(
                    comp[u] == comp[v],
                    mutually,
                    "nodes {} and {}: comp {:?}/{:?}, mutual {}",
                    u, v, comp[u], comp[v], mutually
                );
            }
        }
    }

    /// Component ids are dense: every id in 0..count is used.
    #[test]
    fn scc_ids_are_dense((n, z, edges) in arb_graph_parts()) {
        use octopus_graph::algo::strongly_connected_components;
        let g = build(n, z, &edges);
        let (comp, count) = strongly_connected_components(&g);
        let mut seen = vec![false; count];
        for &c in &comp {
            prop_assert!((c as usize) < count);
            seen[c as usize] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}

/// One generated delta, decoded against the batch's base graph by
/// [`decode`]: `(variant, a, b, row as (topic, palette index), delta
/// palette index)`.
type DeltaSpec = (u8, u32, u32, Vec<(u32, usize)>, usize);

/// Probabilities a generated row draws from: zeros (an all-zero row
/// empties its edge), the boundary, and one invalid value.
const PROB_PALETTE: [f64; 8] = [0.0, 0.25, 0.5, 0.75, 1.0, 0.3, 0.0, 1.5];
/// Nudge perturbations: 0.75 on a 0.75 entry reflects to exactly 0 (the
/// entry drops); 0.75 or 1.0 on most other entries reflects below 0 (an
/// error).
const NUDGE_PALETTE: [f64; 7] = [0.05, 0.25, -0.25, 0.05, 0.25, 0.75, 1.0];
/// Rename targets: a name the base graph holds, fresh ones (a second
/// rename onto one collides), and empty.
const NAMES: [&str; 5] = ["n0", "fresh", "", "other", "n2"];

fn arb_batch() -> impl Strategy<Value = Vec<DeltaSpec>> {
    let spec = (
        0u8..5,
        0u32..64,
        0u32..64,
        proptest::collection::vec((0u32..64, 0..PROB_PALETTE.len()), 0..3),
        0..NUDGE_PALETTE.len(),
    );
    proptest::collection::vec(spec, 1..9)
}

/// A base graph whose even nodes are named `n{i mod 6}` — a name several
/// nodes share belongs to the last of them, and renames can collide — and
/// whose probabilities are palette values, so nudges can empty rows.
fn build_named(n: usize, z: usize, edges: &[EdgeSpec]) -> TopicGraph {
    let mut b = GraphBuilder::new(z);
    for i in 0..n {
        b.add_node(if i % 2 == 0 {
            format!("n{}", i % 6)
        } else {
            String::new()
        });
    }
    for (u, v, probs) in edges {
        if u != v {
            let probs: Vec<(usize, f64)> = probs
                .iter()
                .map(|&(t, p)| (t, [0.25, 0.5, 0.75, 0.3][(p * 4.0) as usize % 4]))
                .collect();
            b.add_edge(NodeId(*u), NodeId(*v), &probs).unwrap();
        }
    }
    b.build().unwrap()
}

/// `x mod len`, except one draw in 16 gives `len` itself (out of range).
fn pick(x: u32, len: usize) -> u32 {
    if x % 16 == 15 {
        len as u32
    } else {
        x % len.max(1) as u32
    }
}

/// Turn a spec into a delta on a graph shaped like `g`. An id, node, or
/// topic is one past the end one draw in 16 (an error), an edge may be
/// listed twice in one nudge, and an insert lands on an existing
/// `(src, dst)` when `a` is even.
fn decode(g: &TopicGraph, (kind, a, b, row, d): &DeltaSpec) -> GraphDelta {
    let (n, m) = (g.node_count(), g.edge_count());
    let probs: Vec<(usize, f64)> = row
        .iter()
        .map(|&(z, i)| (pick(z, g.num_topics()) as usize, PROB_PALETTE[i]))
        .collect();
    match kind {
        0 => GraphDelta::NudgeWeights {
            edges: [pick(*a, m), pick(*b, m), pick(*a, m)][..1 + (*b as usize % 3)]
                .iter()
                .map(|&e| EdgeId(e))
                .collect(),
            delta: NUDGE_PALETTE[*d],
        },
        1 => GraphDelta::SetWeights {
            edge: EdgeId(pick(*a, m)),
            probs,
        },
        2 => {
            let (src, dst) = if a % 2 == 0 && m > 0 {
                g.edge_endpoints(EdgeId(b % m as u32)).unwrap()
            } else {
                (NodeId(pick(*a, n)), NodeId(pick(*b, n)))
            };
            GraphDelta::InsertEdge { src, dst, probs }
        }
        3 => GraphDelta::RemoveEdge {
            edge: EdgeId(pick(*a, m)),
        },
        _ => GraphDelta::RenameNode {
            node: NodeId(pick(*a, n)),
            name: NAMES[*b as usize % NAMES.len()].to_string(),
        },
    }
}

/// The oracle: apply one delta by rebuilding every node and edge of `g`
/// through a [`GraphBuilder`], the delta's edit folded into the copy.
fn rebuild_with(g: &TopicGraph, d: &GraphDelta) -> Result<TopicGraph, GraphError> {
    match d {
        GraphDelta::NudgeWeights { edges, .. } => {
            for &e in edges {
                g.check_edge(e)?;
            }
        }
        GraphDelta::SetWeights { edge, .. } | GraphDelta::RemoveEdge { edge } => {
            g.check_edge(*edge)?;
        }
        GraphDelta::RenameNode { node, name } => {
            g.check_node(*node)?;
            if !name.is_empty() && g.node_by_name(name).is_some_and(|u| u != *node) {
                return Err(GraphError::DuplicateName(name.clone()));
            }
        }
        GraphDelta::InsertEdge { .. } => {}
    }
    let mut b = GraphBuilder::new(g.num_topics());
    for u in g.nodes() {
        match d {
            GraphDelta::RenameNode { node, name } if *node == u => b.add_node(name.clone()),
            _ => b.add_node(g.name(u).unwrap_or("")),
        };
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e).unwrap();
        let row: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(z, p)| (z.index(), p as f64))
            .collect();
        match d {
            GraphDelta::RemoveEdge { edge } if *edge == e => {}
            GraphDelta::SetWeights { edge, probs } if *edge == e => b.add_edge(u, v, probs)?,
            GraphDelta::NudgeWeights { edges, delta } if edges.contains(&e) => {
                let nudged: Vec<(usize, f64)> = row
                    .iter()
                    .map(|&(z, p)| {
                        let up = p + delta;
                        (z, if up <= 1.0 && up > 0.0 { up } else { p - delta })
                    })
                    .collect();
                b.add_edge(u, v, &nudged)?
            }
            _ => b.add_edge(u, v, &row)?,
        }
    }
    if let GraphDelta::InsertEdge { src, dst, probs } = d {
        b.add_edge(*src, *dst, probs)?;
    }
    b.build()
}

/// The endpoints a delta names on the graph it applies to.
fn endpoints(g: &TopicGraph, d: &GraphDelta) -> Vec<NodeId> {
    let ends = |e: &EdgeId| {
        let (u, v) = g.edge_endpoints(*e).unwrap();
        [u, v]
    };
    match d {
        GraphDelta::NudgeWeights { edges, .. } => {
            let mut edges = edges.clone();
            edges.sort_unstable();
            edges.dedup();
            edges.iter().flat_map(ends).collect()
        }
        GraphDelta::SetWeights { edge, .. } | GraphDelta::RemoveEdge { edge } => {
            ends(edge).to_vec()
        }
        GraphDelta::InsertEdge { src, dst, .. } => vec![*src, *dst],
        GraphDelta::RenameNode { node, .. } => vec![*node],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One pass over a batch equals rebuilding the graph after every
    /// delta: both give the same graph, or both fail; the pass reports
    /// each delta's endpoints on the graph it applies to, and the shifted
    /// maxima `max_shifts` finds between the two graphs.
    #[test]
    fn apply_all_equals_rebuild_per_delta(
        (n, z, edges) in arb_graph_parts(),
        specs in arb_batch(),
    ) {
        let g = build_named(n, z, &edges);
        let batch: Vec<GraphDelta> = specs.iter().map(|s| decode(&g, s)).collect();
        let mut oracle: Result<TopicGraph, GraphError> = Ok(g.clone());
        let mut want_ends: Vec<(GraphDelta, Vec<NodeId>)> = Vec::new();
        for d in &batch {
            oracle = oracle.and_then(|cur| {
                let next = rebuild_with(&cur, d)?;
                want_ends.push((d.clone(), endpoints(&cur, d)));
                Ok(next)
            });
        }
        let mut got_ends: Vec<(GraphDelta, Vec<NodeId>)> = Vec::new();
        let got = apply_all_visiting(&g, &batch, |d, ends| got_ends.push((d.clone(), ends.to_vec())));
        match (got, oracle) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(&got.graph, &want);
                prop_assert_eq!(got_ends, want_ends);
                prop_assert_eq!(got.shifts, max_shifts(&g, &want));
                prop_assert_eq!(apply_all(&g, &batch).unwrap(), want);
            }
            (Err(_), Err(_)) => {}
            (got, want) => panic!("pass {got:?} vs oracle {want:?}"),
        }
    }
}

/// [`arb_batch`], but three batches in four hold nudges and row
/// replacements only, and half hold only rows and perturbations that can
/// neither fail nor empty a row, so the weight-only pass gets exercised.
fn arb_weight_batch() -> impl Strategy<Value = Vec<DeltaSpec>> {
    (0u8..4, arb_batch()).prop_map(|(mix, mut specs)| {
        for spec in specs.iter_mut().filter(|_| mix > 0) {
            spec.0 %= 2;
        }
        for (_, _, _, row, d) in specs.iter_mut().filter(|_| mix > 1) {
            // palette 1..=5 are valid non-zero probabilities, and nudges
            // of ±0.05 and ±0.25 reflect within (0, 1] on every palette value
            row.iter_mut().for_each(|(_, i)| *i = 1 + *i % 5);
            if row.is_empty() {
                row.push((0, 1));
            }
            *d %= 3;
        }
        specs
    })
}

/// Cases of `weight_batches_patch_a_shared_topology` run so far, and how
/// many of them took the weight-only pass.
static WEIGHT_CASES: AtomicUsize = AtomicUsize::new(0);
static WEIGHT_PATCHED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A batch with no insert, remove, emptied row or rename edits only
    /// the rows it names: its graph equals the per-delta rebuild field by
    /// field, shares the old topology and names in memory, and its report
    /// gives `max_shifts` of the two graphs and entries that re-key the old
    /// keys into `GraphKeys::of` the new graph. Every other batch builds
    /// its own topology. At least a quarter of the cases take the
    /// weight-only pass.
    #[test]
    fn weight_batches_patch_a_shared_topology(
        (n, z, edges) in arb_graph_parts(),
        specs in arb_weight_batch(),
    ) {
        let g = build_named(n, z, &edges);
        let batch: Vec<GraphDelta> = specs.iter().map(|s| decode(&g, s)).collect();
        let oracle = batch
            .iter()
            .try_fold(g.clone(), |cur, d| rebuild_with(&cur, d));
        let got = apply_all_visiting(&g, &batch, |_, _| {});
        let cases = WEIGHT_CASES.fetch_add(1, Relaxed) + 1;
        if let (Ok(got), Ok(want)) = (&got, &oracle) {
            prop_assert_eq!(got.graph.num_topics(), want.num_topics());
            prop_assert_eq!(got.graph.names(), want.names());
            prop_assert_eq!(got.graph.edge_count(), want.edge_count());
            for e in want.edges() {
                prop_assert_eq!(got.graph.edge_endpoints(e).unwrap(), want.edge_endpoints(e).unwrap());
                let rows = |g: &TopicGraph| g.edge_topic_probs(e).map(|(z, p)| (z, p.to_bits())).collect::<Vec<_>>();
                prop_assert_eq!(rows(&got.graph), rows(want));
            }
            for v in want.nodes() {
                prop_assert!(got.graph.in_edges(v).eq(want.in_edges(v)));
                if let Some(name) = want.name(v) {
                    prop_assert_eq!(got.graph.node_by_name(name), want.node_by_name(name));
                }
            }
            prop_assert_eq!(&got.graph, want);
            let weights_only = batch.iter().all(|d| {
                matches!(d, GraphDelta::NudgeWeights { .. } | GraphDelta::SetWeights { .. })
            });
            let patched = weights_only && want.edge_count() == g.edge_count();
            prop_assert_eq!(got.graph.shares_topology(&g), patched);
            prop_assert_eq!(got.moved.is_some(), patched);
            prop_assert_eq!(&got.shifts, &max_shifts(&g, want));
            if let Some(moved) = &got.moved {
                let keys = codec::GraphKeys::of(&g).patched(&got.graph, moved);
                prop_assert_eq!(keys, codec::GraphKeys::of(want));
                WEIGHT_PATCHED.fetch_add(1, Relaxed);
            }
        } else {
            prop_assert!(got.is_err() && oracle.is_err(), "pass {:?} vs oracle {:?}", got, oracle);
        }
        if cases >= 64 {
            let patched = WEIGHT_PATCHED.load(Relaxed);
            prop_assert!(4 * patched >= cases, "{} of {} cases patched", patched, cases);
        }
    }
}

/// Every topic's `(src, dst, p_z bits)` triples — the input a slice key
/// stands for.
fn topic_triples(g: &TopicGraph) -> Vec<Vec<(u32, u32, u32)>> {
    let mut triples = vec![Vec::new(); g.num_topics()];
    for u in g.nodes() {
        for (v, e) in g.out_edges(u) {
            for (z, p) in g.edge_topic_probs(e) {
                triples[z.index()].push((u.0, v.0, p.to_bits()));
            }
        }
    }
    triples
}

/// The `(src, dst)` edge list in id order.
fn edge_pairs(g: &TopicGraph) -> Vec<(NodeId, NodeId)> {
    g.edges().map(|e| g.edge_endpoints(e).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The section checksum catches every single-bit flip and every
    /// one-byte deletion or truncation, on both sides of the 32-byte stripe
    /// threshold.
    #[test]
    fn checksum_moves_on_every_bit_flip_and_truncation(
        bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..=300),
    ) {
        let sum = wire::checksum(&bytes);
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() * 8 {
            flipped[i / 8] ^= 1 << (i % 8);
            prop_assert_ne!(wire::checksum(&flipped), sum, "bit {} of {}", i, bytes.len());
            flipped[i / 8] ^= 1 << (i % 8);
        }
        for i in 0..bytes.len() {
            let shorter = [&bytes[..i], &bytes[i + 1..]].concat();
            prop_assert_ne!(wire::checksum(&shorter), sum, "byte {} of {}", i, bytes.len());
        }
    }

    /// Every key is a function of the edge set, not of the order the
    /// edges were added in.
    #[test]
    fn keys_ignore_edge_insertion_order(
        (n, z, edges) in arb_graph_parts(),
        order in proptest::collection::vec(proptest::num::u64::ANY, 0..72),
    ) {
        let mut shuffled: Vec<(u64, EdgeSpec)> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| (order.get(i).copied().unwrap_or(i as u64), e.clone()))
            .collect();
        shuffled.sort_by_key(|(k, _)| *k);
        let shuffled: Vec<EdgeSpec> = shuffled.into_iter().map(|(_, e)| e).collect();
        prop_assert_eq!(
            codec::GraphKeys::of(&build_named(n, z, &edges)),
            codec::GraphKeys::of(&build_named(n, z, &shuffled))
        );
    }

    /// After any delta batch: topic `z`'s slice key moves iff some
    /// topic-`z` triple moved (an insert or remove of an edge without a
    /// topic-`z` entry shifts ids but moves no topic-`z` key); topology,
    /// names and weights move iff their slice did; and the whole-graph key
    /// moves on every change.
    #[test]
    fn keys_move_exactly_with_their_slices(
        (n, z, edges) in arb_graph_parts(),
        specs in arb_batch(),
    ) {
        let g = build_named(n, z, &edges);
        let batch: Vec<GraphDelta> = specs.iter().map(|s| decode(&g, s)).collect();
        let after = apply_all(&g, &batch);
        prop_assume!(after.is_ok());
        let after = after.unwrap();
        let (before_keys, after_keys) = (codec::GraphKeys::of(&g), codec::GraphKeys::of(&after));
        let (before_triples, after_triples) = (topic_triples(&g), topic_triples(&after));
        for t in 0..z {
            prop_assert_eq!(
                before_keys.topics[t] != after_keys.topics[t],
                before_triples[t] != after_triples[t],
                "topic {}", t
            );
        }
        prop_assert_eq!(
            before_keys.weights != after_keys.weights,
            before_triples != after_triples
        );
        prop_assert_eq!(
            before_keys.topology != after_keys.topology,
            edge_pairs(&g) != edge_pairs(&after)
        );
        // the topology-only walk a PIKS index records agrees with the one pass
        prop_assert_eq!(codec::GraphKeys::topology_of(&g), before_keys.topology);
        prop_assert_eq!(codec::GraphKeys::topology_of(&after), after_keys.topology);
        let names = |g: &TopicGraph| -> Vec<String> {
            g.nodes().map(|u| g.name(u).unwrap_or("").to_string()).collect()
        };
        prop_assert_eq!(before_keys.names != after_keys.names, names(&g) != names(&after));
        prop_assert_eq!(
            before_keys.graph != after_keys.graph,
            codec::encode(&g) != codec::encode(&after)
        );
    }
}
