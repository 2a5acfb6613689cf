//! Standard benchmark workloads. Every experiment pulls its network from
//! here so results are comparable across benches and runs; all generation
//! is seeded and deterministic.

use octopus_data::{CitationConfig, MessengerConfig, SyntheticNetwork};
use octopus_topics::KeywordId;
use std::collections::HashMap;

/// A citation workload with the given author/paper counts.
pub fn citation_sized(authors: usize, papers: usize) -> SyntheticNetwork {
    CitationConfig {
        authors,
        papers,
        num_topics: 8,
        words_per_topic: 20,
        seed: 0xBE7C_0FFE,
        ..Default::default()
    }
    .generate()
}

/// `copies` disjoint copies of a network's graph in one `TopicGraph` —
/// the sharded serving workloads. Each copy
/// is its own set of weakly connected components, so the locality
/// partition places whole copies (one per shard when `copies == k`) and a
/// routed delta confines its rebuild to the one copy it touches. Copy 0
/// keeps the original names (query pools and user-keyword overrides keep
/// resolving); later copies suffix names with `·<copy>` to stay unique.
pub fn disjoint_copies(net: &SyntheticNetwork, copies: usize) -> octopus_graph::TopicGraph {
    use octopus_graph::{GraphBuilder, NodeId};
    let g = &net.graph;
    let copies = copies.max(1);
    let mut b = GraphBuilder::new(g.num_topics());
    for c in 0..copies {
        for u in g.nodes() {
            match (g.name(u), c) {
                (Some(name), 0) => b.add_node(name),
                (Some(name), _) => b.add_node(format!("{name}·{}", c + 1)),
                (None, _) => b.add_node(""),
            };
        }
        let base = (c * g.node_count()) as u32;
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e).expect("edge id in range");
            let probs: Vec<(usize, f64)> = g
                .edge_topic_probs(e)
                .map(|(z, p)| (z.0 as usize, p as f64))
                .collect();
            b.add_edge(NodeId(u.0 + base), NodeId(v.0 + base), &probs)
                .expect("copied edge applies");
        }
    }
    b.build().expect("copied graph builds")
}

/// `copies` disjoint copies of the *whole* network — graph, action log
/// (node ids shifted per copy, items renumbered), shared topic model —
/// for workloads that learn from the log while serving sharded (the
/// ingest loop at K > 1). [`disjoint_copies`] only clones the graph;
/// the ingestion loop also needs the cascades each copy's learner
/// re-fits, living on that copy's node ids.
pub fn replicated(net: &SyntheticNetwork, copies: usize) -> SyntheticNetwork {
    use octopus_graph::NodeId;
    let copies = copies.max(1);
    let graph = disjoint_copies(net, copies);
    let mut log = octopus_data::ActionLog::new();
    let by_item = net.log.trials_by_item();
    for c in 0..copies {
        let base = (c * net.graph.node_count()) as u32;
        for item in net.log.items() {
            let id = log.push_item(NodeId(item.origin.0 + base), item.keywords.clone());
            for t in &by_item[item.id.index()] {
                log.push_trial(
                    id,
                    NodeId(t.src.0 + base),
                    NodeId(t.dst.0 + base),
                    t.activated,
                );
            }
        }
    }
    SyntheticNetwork {
        graph,
        model: net.model.clone(),
        log,
    }
}

/// A messenger workload with the given user count.
pub fn messenger_sized(users: usize) -> SyntheticNetwork {
    MessengerConfig {
        users,
        links_per_user: 5,
        items: users,
        num_topics: 5,
        words_per_topic: 14,
        seed: 0x9_9199,
        ..Default::default()
    }
    .generate()
}

/// The standard keyword queries of the citation experiments (mirroring the
/// demo's "data mining" style inputs, one per topic plus two mixtures).
pub fn citation_queries() -> Vec<&'static str> {
    vec![
        "data mining",
        "neural network",
        "influence maximization social recommendation",
        "distributed system replication",
        "approximation algorithm",
        "keyword search ranking",
        "data mining clustering",
        "encryption authentication",
    ]
}

/// Messenger campaign queries (the QQ scenario's inputs).
pub fn messenger_queries() -> Vec<&'static str> {
    vec![
        "game",
        "gum strawberry xylitol",
        "smartphone",
        "sneaker lipstick",
        "flight deal",
    ]
}

/// Per-user keyword candidates extracted from an action log (what the
/// engine facade receives in production).
pub fn user_keywords(net: &SyntheticNetwork) -> HashMap<octopus_graph::NodeId, Vec<KeywordId>> {
    let mut map: HashMap<octopus_graph::NodeId, Vec<KeywordId>> = HashMap::new();
    for item in net.log.items() {
        let e = map.entry(item.origin).or_default();
        for &w in &item.keywords {
            if !e.contains(&w) {
                e.push(w);
            }
        }
    }
    map
}

/// The most prolific item-originating users (suggestion-query targets).
pub fn prolific_users(net: &SyntheticNetwork, count: usize) -> Vec<octopus_graph::NodeId> {
    let map = user_keywords(net);
    let mut v: Vec<(octopus_graph::NodeId, usize)> =
        map.into_iter().map(|(u, ws)| (u, ws.len())).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.into_iter().take(count).map(|(u, _)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = citation_sized(300, 800);
        let b = citation_sized(300, 800);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn queries_resolve_on_their_workloads() {
        let net = citation_sized(300, 800);
        for q in citation_queries() {
            assert!(net.model.infer_str(q).is_ok(), "query {q:?} must resolve");
        }
        let net = messenger_sized(3000);
        for q in messenger_queries() {
            assert!(net.model.infer_str(q).is_ok(), "query {q:?} must resolve");
        }
    }

    #[test]
    fn prolific_users_have_keywords() {
        let net = citation_sized(300, 800);
        let users = prolific_users(&net, 5);
        assert_eq!(users.len(), 5);
        let map = user_keywords(&net);
        for u in users {
            assert!(map[&u].len() >= 2);
        }
    }
}
