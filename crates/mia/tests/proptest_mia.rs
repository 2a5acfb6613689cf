//! Property tests for the MIA engine: tree invariants, threshold
//! monotonicity, exactness on path-unique graphs, and the row kernel
//! pinned to the tree builder bit for bit.

use octopus_graph::{EdgeProbs, GraphBuilder, NodeId, TopicGraph};
use octopus_mia::{mia_spread_set, mioa_spread, mioa_spreads, ArbDirection, Arborescence};
use proptest::prelude::*;

/// Random small single-topic graph.
fn arb_graph() -> impl Strategy<Value = (TopicGraph, EdgeProbs)> {
    (3usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..0.95), 1..n * 2).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(1);
                let _ = b.add_nodes(n);
                for (u, v, p) in edges {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v), &[(0, p)]).unwrap();
                    }
                }
                let g = b.build().unwrap();
                let probs = g.materialize(&[1.0]).unwrap();
                (g, probs)
            },
        )
    })
}

/// Random tree (unique paths): node i>0 links from a random earlier parent.
fn arb_tree() -> impl Strategy<Value = (TopicGraph, EdgeProbs)> {
    (3usize..10).prop_flat_map(|n| {
        proptest::collection::vec((proptest::num::u32::ANY, 0.2f64..0.9), n - 1).prop_map(
            move |specs| {
                let mut b = GraphBuilder::new(1);
                let _ = b.add_nodes(n);
                for (i, &(r, p)) in specs.iter().enumerate() {
                    let child = (i + 1) as u32;
                    let parent = r % child;
                    b.add_edge(NodeId(parent), NodeId(child), &[(0, p)])
                        .unwrap();
                }
                let g = b.build().unwrap();
                let probs = g.materialize(&[1.0]).unwrap();
                (g, probs)
            },
        )
    })
}

/// Edge values the row-kernel property draws from: zero entries (the
/// kernel's adjacency drops them) and few distinct values, so equal path
/// probabilities are common. 1.25 is no probability, on purpose: with
/// every value in `[0, 1]` the sum of a MIOA is the same whichever of two
/// tied nodes settles first, but above 1 a path can outgrow its prefix, so
/// a node's value — and the sum — depends on the settle order itself.
const PALETTE: [f32; 7] = [0.0, 0.25, 0.5, 0.5, 0.8, 1.0, 1.25];

/// Random topology under an explicit probability table drawn from
/// [`PALETTE`]. In one case in four every edge carries the same non-zero
/// value, so whole layers of nodes tie and only the node-id tie-break
/// orders them.
fn arb_table() -> impl Strategy<Value = (TopicGraph, EdgeProbs)> {
    (2usize..14, 0u32..4).prop_flat_map(|(n, mode)| {
        let m = n * 3;
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..m),
            proptest::collection::vec(0..PALETTE.len(), m),
        )
            .prop_map(move |(edges, picks)| {
                let mut b = GraphBuilder::new(1);
                let _ = b.add_nodes(n);
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v), &[(0, 0.5)]).unwrap();
                    }
                }
                let g = b.build().unwrap();
                let uniform = PALETTE[1 + picks[0] % (PALETTE.len() - 1)];
                let probs = (0..g.edge_count())
                    .map(|e| {
                        if mode == 0 {
                            uniform
                        } else {
                            PALETTE[picks[e]]
                        }
                    })
                    .collect();
                (g, EdgeProbs::from_vec(probs))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The row kernel returns, for every root, the f64 the tree builder's
    /// `total_influence` returns — bit for bit, θ up to 1.0 included; the
    /// one-root `mioa_spread` is the same walk.
    #[test]
    fn row_kernel_equals_tree_builder(
        (g, p) in arb_table(),
        at_one in 0u32..4,
        theta in 0.001f64..=1.0,
    ) {
        let theta = if at_one == 0 { 1.0 } else { theta };
        let row = mioa_spreads(&g, &p, theta);
        prop_assert_eq!(row.len(), g.node_count());
        for u in g.nodes() {
            let tree = Arborescence::build(&g, &p, u, theta, ArbDirection::Out);
            let want = tree.total_influence().to_bits();
            prop_assert_eq!(row[u.index()].to_bits(), want, "root {:?} at theta {}", u, theta);
            prop_assert_eq!(mioa_spread(&g, &p, u, theta).to_bits(), want);
        }
    }

    /// Structural invariants: settle order sorted, parent links consistent,
    /// every path_prob within [θ, 1], root first.
    #[test]
    fn tree_invariants((g, p) in arb_graph(), theta in 0.01f64..0.5, root in 0u32..12) {
        let root = NodeId(root % g.node_count() as u32);
        for dir in [ArbDirection::Out, ArbDirection::In] {
            let arb = Arborescence::build(&g, &p, root, theta, dir);
            let nodes = arb.nodes();
            prop_assert_eq!(nodes[0].node, root);
            prop_assert_eq!(nodes[0].path_prob, 1.0);
            for w in nodes.windows(2) {
                prop_assert!(w[0].path_prob >= w[1].path_prob - 1e-12);
            }
            for (i, n) in nodes.iter().enumerate() {
                prop_assert!(n.path_prob >= theta - 1e-12 || n.parent.is_none());
                prop_assert!(n.path_prob <= 1.0 + 1e-12);
                if let Some(pi) = n.parent {
                    prop_assert!((pi as usize) < i, "parent settles before child");
                    let expect = nodes[pi as usize].path_prob * n.parent_edge_prob;
                    prop_assert!((n.path_prob - expect).abs() < 1e-9);
                    prop_assert!(nodes[pi as usize].children.contains(&(i as u32)));
                }
            }
        }
    }

    /// Lower θ admits a superset of nodes, and path probabilities of common
    /// nodes are identical (θ only prunes, never reroutes).
    #[test]
    fn theta_monotone((g, p) in arb_graph(), root in 0u32..12) {
        let root = NodeId(root % g.node_count() as u32);
        let loose = Arborescence::build(&g, &p, root, 0.02, ArbDirection::Out);
        let tight = Arborescence::build(&g, &p, root, 0.2, ArbDirection::Out);
        for n in tight.nodes() {
            prop_assert!(loose.contains(n.node));
            prop_assert!((loose.path_prob(n.node) - n.path_prob).abs() < 1e-9);
        }
        prop_assert!(loose.total_influence() >= tight.total_influence() - 1e-9);
    }

    /// MIOA path probability never exceeds the per-edge maximum along any
    /// single edge (path of length 1 bound).
    #[test]
    fn direct_neighbor_bound((g, p) in arb_graph(), root in 0u32..12) {
        let root = NodeId(root % g.node_count() as u32);
        let arb = Arborescence::build(&g, &p, root, 0.01, ArbDirection::Out);
        for (v, e) in g.out_edges(root) {
            if let Some(n) = arb.get(v) {
                // best path to a direct neighbor is at least the direct edge
                prop_assert!(n.path_prob >= p.get(e) as f64 - 1e-9);
            }
        }
    }

    /// On trees the MIA spread equals the exact IC spread (unique paths ⇒
    /// model is exact), validated against Monte-Carlo.
    #[test]
    fn exact_on_trees((g, p) in arb_tree()) {
        let mia = mioa_spread(&g, &p, NodeId(0), 1e-6);
        let mc = octopus_cascade::estimate_spread(&g, &p, &[NodeId(0)], 6000, 9);
        let slack = 0.1 * g.node_count() as f64;
        prop_assert!((mia - mc).abs() < slack.max(0.35), "mia={mia} mc={mc}");
    }

    /// Seed-set MIA spread: monotone in the seed set, ≥ |S| when all seeds
    /// distinct, ≤ n.
    #[test]
    fn set_spread_bounds((g, p) in arb_graph(), extra in 0u32..12) {
        let n = g.node_count();
        let s1 = vec![NodeId(0)];
        let s2 = vec![NodeId(0), NodeId(extra % n as u32)];
        let a = mia_spread_set(&g, &p, &s1, 0.05);
        let b = mia_spread_set(&g, &p, &s2, 0.05);
        prop_assert!(b >= a - 1e-9, "monotone: {a} -> {b}");
        prop_assert!(a >= 1.0 - 1e-9);
        prop_assert!(b <= n as f64 + 1e-9);
    }
}
