//! The `pb-bound` stage's rows at scale: on a multi-topic citation
//! network, every `PrecompBound::build_topic` row (`PrecompBound::build`
//! runs one per topic, in parallel) equals the row the arborescence
//! builder gives node by node, bit for bit, whether the topics build on
//! one thread or on eight.

use octopus_bench::workloads::citation_sized;
use octopus_core::engine::OctopusConfig;
use octopus_core::kim::bounds::PrecompBound;
use octopus_graph::TopicGraph;
use octopus_mia::{ArbDirection, Arborescence};
use octopus_topics::TopicDistribution;

/// Topic `z`'s row from one arborescence per node: the oracle.
fn oracle_row(g: &TopicGraph, z: usize, theta: f64) -> Vec<f64> {
    let gamma = TopicDistribution::pure(g.num_topics(), z);
    let probs = g.materialize(gamma.as_slice()).unwrap();
    g.nodes()
        .map(|u| Arborescence::build(g, &probs, u, theta, ArbDirection::Out).total_influence())
        .collect()
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn pb_rows_equal_the_arborescence_oracle_at_one_and_eight_threads() {
    let net = citation_sized(300, 800);
    let g = &net.graph;
    let topics = g.num_topics();
    assert!(g.node_count() >= 300 && topics > 1, "a multi-topic fixture");
    let config = OctopusConfig::default();
    let theta = config.mia_theta;
    let oracle: Vec<Vec<u64>> = (0..topics)
        .map(|z| bits(&oracle_row(g, z, theta)))
        .collect();
    assert!(
        oracle.iter().flatten().any(|&s| f64::from_bits(s) > 1.0),
        "some node reaches another: the rows are not all singletons"
    );
    for threads in [1, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let table = pool.install(|| PrecompBound::build(g, theta, config.pb_safety));
        for (z, want) in oracle.iter().enumerate() {
            let row: Vec<f64> = g.nodes().map(|u| table.topic_spread(u, z)).collect();
            assert_eq!(&bits(&row), want, "topic {z} at {threads} threads");
        }
    }
}
