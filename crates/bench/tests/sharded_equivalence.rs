//! Sharded-vs-whole equivalence on the *seeded generator* workloads.
//!
//! `crates/core/tests/serve_shard.rs` pins the scatter-gather contract on
//! a hand-built fixture whose component structure is chosen to force
//! every merge path; this suite re-pins the same contract on the graphs
//! the benchmarks actually serve — the seeded citation and messenger
//! generators (`octopus_bench::workloads`), multiplied into disjoint
//! copies exactly as the sharded `serve_health` tests do. At every K ∈ {1, 2, 4}
//! the merged top-k must be bit-identical to one engine over the same
//! union graph (seeds, ranks, names — the documented (gain desc, node id
//! asc) tie-break), autocomplete must union-merge to the single trie's
//! answer, and a routed weight nudge must leave the equivalence intact
//! after its per-shard swap.

use octopus_bench::workloads::{citation_sized, disjoint_copies, messenger_sized};
use octopus_core::engine::{Octopus, OctopusConfig};
use octopus_core::serve::{Query, QueryResponse, QueryService, ShardedService};
use octopus_core::QueryBudget;
use octopus_data::SyntheticNetwork;
use octopus_graph::delta::GraphDelta;
use octopus_graph::{EdgeId, TopicGraph};

/// Small-but-real scale: the generators' full topology at a size where
/// the exact best-effort evaluator stays fast enough for CI.
fn config() -> OctopusConfig {
    OctopusConfig {
        piks_index_size: 64,
        mis_rr_per_topic: 100,
        k_max: 5,
        ..Default::default()
    }
}

/// Assert the sharded router over `union` answers ranking and
/// autocomplete exactly like `single` (one engine over the same union).
fn assert_equivalent(sharded: &ShardedService, single: &Octopus, query: &str, prefix: &str) {
    let run = |query: Query| -> QueryResponse {
        let served = sharded.execute(&query, &QueryBudget::unlimited());
        served.unwrap().value
    };
    let want = single.find_influencers(query, 5).unwrap();
    let got = run(Query::FindInfluencers {
        query: query.into(),
        k: 5,
    });
    let got = got.into_influencers().unwrap().value;
    assert_eq!(
        got.seeds, want.seeds,
        "merged top-k must be the single-engine ranking"
    );
    assert_eq!(got.result.seeds, want.result.seeds);
    assert!(
        (got.result.spread - want.result.spread).abs() <= 1e-9 * want.result.spread.abs().max(1.0),
        "merged spread {} vs single {}",
        got.result.spread,
        want.result.spread
    );
    let want = single.autocomplete(prefix, 12);
    let got = run(Query::Autocomplete {
        prefix: prefix.into(),
        limit: 12,
    });
    let got = got.into_completions().unwrap().value;
    assert_eq!(got, want, "union-merged completions must match the trie");
}

/// The generator's graph multiplied into 4 disjoint copies — the same
/// union the sharded `serve_health` tests serve, giving the partition real
/// multi-component structure (the raw citation graph is one giant
/// component plus isolated singletons). Each copy past the first gets a
/// distinct small weight perturbation: identical copies would tie every
/// hub's gain *exactly*, and the order of exact ties between multi-seed
/// prefixes is at the mercy of floating-point regrouping on both sides —
/// the contract under test is the cross-shard merge, so ordering should
/// be structural, not an ulp coin flip (single-seed exact ties are
/// pinned in `crates/core/tests/serve_shard.rs`).
fn union_of(net: &SyntheticNetwork) -> TopicGraph {
    let mut union = disjoint_copies(net, 4);
    let m = net.graph.edge_count() as u32;
    for c in 1..4u32 {
        // every edge of copy c: a hub's MIA tree is local, so sparse
        // nudges can leave its spread bit-unchanged and the tie standing
        let victims: Vec<EdgeId> = (c * m..(c + 1) * m).map(EdgeId).collect();
        union = octopus_graph::delta::nudge_weights(&union, &victims, 0.01 * c as f64)
            .expect("perturbation applies");
    }
    union
}

fn check_network(net: &SyntheticNetwork, query: &str) {
    let union = union_of(net);
    // a real name prefix (first node, first word) so autocomplete
    // actually union-merges hits from every copy, not an empty set
    let prefix: String = net
        .graph
        .name(octopus_graph::NodeId(0))
        .expect("node 0 is named")
        .chars()
        .take(3)
        .collect();
    let single = Octopus::new(union.clone(), net.model.clone(), config()).unwrap();
    assert!(
        !single.autocomplete(&prefix, 12).is_empty(),
        "prefix {prefix:?} must resolve"
    );
    for k in [1usize, 2, 4] {
        let sharded = ShardedService::new(union.clone(), net.model.clone(), config(), k).unwrap();
        assert_equivalent(&sharded, &single, query, &prefix);

        // a routed nudge: flush, then the equivalence must hold against a
        // fresh single engine over the mutated union
        let delta = GraphDelta::NudgeWeights {
            edges: vec![EdgeId(0)],
            delta: 0.05,
        };
        sharded.submit(delta.clone());
        let swaps = sharded.apply_pending().unwrap();
        assert_eq!(swaps.len(), 1, "one edge touches exactly one shard");
        let mutated = delta.apply(&union).unwrap();
        let single_after = Octopus::new(mutated, net.model.clone(), config()).unwrap();
        assert_equivalent(&sharded, &single_after, query, &prefix);
    }
}

#[test]
fn citation_sharded_matches_whole_graph_at_k_1_2_4() {
    let net = citation_sized(120, 300);
    check_network(&net, "data mining");
}

#[test]
fn messenger_sharded_matches_whole_graph_at_k_1_2_4() {
    let net = messenger_sized(150);
    check_network(&net, "game");
}
