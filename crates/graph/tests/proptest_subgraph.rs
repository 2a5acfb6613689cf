//! Property tests for induced-subgraph extraction.

use octopus_graph::subgraph::induced;
use octopus_graph::{GraphBuilder, NodeId, TopicGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = TopicGraph> {
    (3usize..16).prop_flat_map(|n| {
        proptest::collection::vec(
            (0..n as u32, 0..n as u32, 0usize..3, 0.05f64..0.95),
            1..n * 2,
        )
        .prop_map(move |edges| {
            let mut b = GraphBuilder::new(3);
            for i in 0..n {
                b.add_node(format!("node-{i}"));
            }
            for (u, v, z, p) in edges {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v), &[(z, p)]).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Induced subgraph contains exactly the internal edges, with identical
    /// sparse probability vectors, and the id mapping is a bijection.
    #[test]
    fn induced_subgraph_faithful(g in arb_graph(), picks in proptest::collection::vec(0u32..16, 1..8)) {
        let members: Vec<NodeId> =
            picks.iter().map(|&i| NodeId(i % g.node_count() as u32)).collect();
        let sub = induced(&g, &members).unwrap();
        // bijection over distinct members
        let mut distinct = members.clone();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(sub.graph.node_count(), distinct.len());
        for &m in &distinct {
            let s = sub.to_sub[&m];
            prop_assert_eq!(sub.lift(s), m);
            prop_assert_eq!(sub.graph.name(s), g.name(m));
        }
        // edge count = internal edges of the original
        let internal = g
            .edges()
            .filter(|&e| {
                let (u, v) = g.edge_endpoints(e).unwrap();
                distinct.contains(&u) && distinct.contains(&v)
            })
            .count();
        prop_assert_eq!(sub.graph.edge_count(), internal);
        // probabilities preserved exactly
        for e in sub.graph.edges() {
            let (su, sv) = sub.graph.edge_endpoints(e).unwrap();
            let orig = g.find_edge(sub.lift(su), sub.lift(sv)).unwrap();
            let a: Vec<_> = sub.graph.edge_topic_probs(e).collect();
            let b: Vec<_> = g.edge_topic_probs(orig).collect();
            prop_assert_eq!(a, b);
        }
    }

    /// Inducing on ALL nodes reproduces an isomorphic graph (identity
    /// mapping when members are in id order).
    #[test]
    fn induced_on_everything_is_identity(g in arb_graph()) {
        let all: Vec<NodeId> = g.nodes().collect();
        let sub = induced(&g, &all).unwrap();
        prop_assert_eq!(&sub.graph, &g);
    }
}
