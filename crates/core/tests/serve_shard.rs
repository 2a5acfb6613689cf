//! Sharded-vs-whole equivalence of the scatter-gather serving layer
//! (`octopus_core::serve::shard`).
//!
//! The contract under test: a [`ShardedService`] over K locality shards is
//! observationally equivalent to one engine over the whole graph — the
//! merged top-k is bit-identical (seeds, names, ranks) under the
//! documented (gain desc, node id asc) tie-break at K ∈ {1, 2, 4}, the
//! single-owner and union-merge operators lift ids back to global
//! coordinates exactly, a routed delta rebuilds *only* the shards its
//! footprint touches (pinned through per-shard [`SwapReport`]s and epoch
//! vectors), and a cross-shard edge insert is rejected rather than
//! silently mis-routed. CI runs this suite at `RAYON_NUM_THREADS` 1 and 8
//! in the serving-soak matrix, next to the unsharded epoch suite.

use octopus_cascade::EdgeCoins;
use octopus_core::engine::{KimAnswer, Octopus, OctopusConfig, SuggestAnswer};
use octopus_core::offline::persist::SECTION_PIKS;
use octopus_core::offline::PIKS_WORLD_SEED_XOR;
use octopus_core::paths::{ExploreDirection, PathExploration};
use octopus_core::piks::{InfluencerIndex, PiksReuse, PiksWorldsView};
use octopus_core::serve::{
    DeltaCounters, OctopusService, Query, QueryResponse, QueryService, ServiceStats,
    ShardedService, MAX_BATCH_RETRIES,
};
use octopus_core::{Anytime, CoreError, QueryBudget};
use octopus_graph::delta::{self, GraphDelta};
use octopus_graph::{EdgeId, GraphBuilder, NodeId, TopicGraph, TopicId};
use octopus_topics::{TopicModel, Vocabulary};
use std::sync::Arc;

/// Four weakly connected components — the partition units — with
/// deliberately spread-out gains plus one *exact* cross-component tie:
///
/// * comp A (nodes 0–4):   hub "ada db" → 4 fans at topic-0 weight 0.8
/// * comp B (nodes 5–8):   hub "bea ml" → 3 fans at topic-1 weight 0.8
/// * comp C (nodes 9–11):  hub "cal db" → 2 fans at 0.6 + a 0.3 chain
/// * comp D (nodes 12–14): hub "dot db" → 2 fans at 0.6 + a 0.3 chain
///
/// C and D are structurally identical, so their hubs' marginal gains tie
/// *bit-for-bit* under any query distribution — which pins the merge's
/// lower-original-id tie-break. Fan names share the "fan-" prefix across
/// components so autocomplete union-merges across shards.
///
/// Component sizes (5, 4, 3, 3) make the K = 2 greedy bin-pack
/// deterministic: shard 0 = {A, D}, shard 1 = {B, C}.
fn fixture() -> (TopicGraph, TopicModel, OctopusConfig) {
    let mut b = GraphBuilder::new(2);
    let ada = b.add_node("ada db");
    for i in 0..4 {
        let v = b.add_node(format!("fan-a-{i}"));
        b.add_edge(ada, v, &[(0, 0.8)]).unwrap();
    }
    let bea = b.add_node("bea ml");
    for i in 0..3 {
        let v = b.add_node(format!("fan-b-{i}"));
        b.add_edge(bea, v, &[(1, 0.8)]).unwrap();
    }
    for hub_name in ["cal db", "dot db"] {
        let hub = b.add_node(hub_name);
        let tag = &hub_name[..1];
        let f0 = b.add_node(format!("fan-{tag}-0"));
        let f1 = b.add_node(format!("fan-{tag}-1"));
        b.add_edge(hub, f0, &[(0, 0.6)]).unwrap();
        b.add_edge(hub, f1, &[(0, 0.6)]).unwrap();
        b.add_edge(f0, f1, &[(0, 0.3)]).unwrap();
    }
    let g = b.build().unwrap();
    let mut vocab = Vocabulary::new();
    vocab.intern("data mining");
    vocab.intern("frequent patterns");
    vocab.intern("em algorithm");
    vocab.intern("graphical models");
    let model = TopicModel::from_rows(
        vocab,
        vec![vec![0.5, 0.4, 0.05, 0.05], vec![0.05, 0.05, 0.5, 0.4]],
        vec![0.5, 0.5],
    )
    .unwrap()
    .with_labels(vec!["databases".into(), "machine learning".into()])
    .unwrap();
    // best-effort CELF over exact MIA evaluation: deterministic and
    // exactly component-decomposable, so sharded-vs-whole seed rankings
    // must agree to the bit
    let config = OctopusConfig {
        piks_index_size: 96,
        mis_rr_per_topic: 200,
        k_max: 4,
        ..Default::default()
    };
    (g, model, config)
}

fn reference(g: &TopicGraph, model: &TopicModel, config: &OctopusConfig) -> Octopus {
    Octopus::new(g.clone(), model.clone(), config.clone()).unwrap()
}

fn run(sharded: &dyn QueryService, query: Query) -> QueryResponse {
    sharded
        .execute(&query, &QueryBudget::unlimited())
        .unwrap()
        .value
}

fn influencers_query(query: &str, k: usize) -> Query {
    Query::FindInfluencers {
        query: query.into(),
        k,
    }
}

fn find_under(
    sharded: &dyn QueryService,
    query: &str,
    k: usize,
    budget: &QueryBudget,
) -> Anytime<KimAnswer> {
    let served = sharded.execute(&influencers_query(query, k), budget);
    served.unwrap().value.into_influencers().unwrap()
}

fn find(sharded: &dyn QueryService, query: &str, k: usize) -> KimAnswer {
    find_under(sharded, query, k, &QueryBudget::unlimited()).value
}

fn suggest(sharded: &dyn QueryService, user: &str, k: usize) -> SuggestAnswer {
    let query = Query::SuggestKeywords {
        user: user.into(),
        k,
    };
    run(sharded, query).into_suggestions().unwrap().value
}

fn explore(sharded: &dyn QueryService, user: &str, query: &str) -> PathExploration {
    let query = Query::ExplorePaths {
        user: user.into(),
        direction: ExploreDirection::Influences,
        query: Some(query.into()),
    };
    run(sharded, query).into_paths().unwrap().value
}

fn complete(sharded: &dyn QueryService, prefix: &str, limit: usize) -> Vec<(NodeId, String, f64)> {
    let query = Query::Autocomplete {
        prefix: prefix.into(),
        limit,
    };
    run(sharded, query).into_completions().unwrap().value
}

fn radar(sharded: &dyn QueryService, word: &str) -> octopus_topics::radar::RadarChart {
    let query = Query::KeywordRadar { word: word.into() };
    run(sharded, query).into_radar().unwrap().value
}

/// Assert the service answers all five operators like `single`.
/// Seeds/ids/names/paths are compared bit-identically; only the merged
/// spread (a re-grouped floating-point sum) gets an epsilon.
fn assert_equivalent(sharded: &dyn QueryService, single: &Octopus) {
    // scenario 1 — the merged top-k: seeds bit-identical, spread re-summed
    let want = single.find_influencers("data mining", 4).unwrap();
    let got = find(sharded, "data mining", 4);
    assert_eq!(got.keywords, want.keywords);
    assert_eq!(
        got.seeds, want.seeds,
        "merged ranking must be the global one"
    );
    assert_eq!(got.result.seeds, want.result.seeds);
    assert!(
        (got.result.spread - want.result.spread).abs() <= 1e-9 * want.result.spread.abs(),
        "merged spread {} vs single {}",
        got.result.spread,
        want.result.spread
    );

    // scenario 2 — single-owner, id lifted back to global coordinates
    let want = single.suggest_keywords("ada db", 2).unwrap();
    let got = suggest(sharded, "ada db", 2);
    assert_eq!(got.user, want.user, "suggest user id must be global");
    assert_eq!(got.user_name, want.user_name);
    assert_eq!(got.words, want.words);

    // scenario 3 — owner shard explores; every id in the answer lifted
    let want = single
        .explore_paths("cal db", ExploreDirection::Influences, Some("data mining"))
        .unwrap();
    let got = explore(sharded, "cal db", "data mining");
    assert_eq!(got.root, want.root);
    assert_eq!(got.root_name, want.root_name);
    assert_eq!(got.reached, want.reached);
    assert_eq!(got.influence, want.influence, "exact MIA mass, bit-equal");
    assert_eq!(got.clusters, want.clusters);
    assert_eq!(got.top_paths, want.top_paths);
    assert_eq!(got.tree, want.tree, "remapped arborescence in global ids");
    assert_eq!(got.d3_json, want.d3_json);

    // union-merge operators: the "fan-" prefix spans every component
    assert_eq!(
        complete(sharded, "fan-", 10),
        single.autocomplete("fan-", 10),
        "union-merged completions under (score desc, global id asc)"
    );
    assert_eq!(
        radar(sharded, "data mining"),
        single.keyword_radar("data mining").unwrap()
    );
}

#[test]
fn sharding_is_transparent_at_every_shard_count() {
    let (g, model, config) = fixture();
    let single = reference(&g, &model, &config);
    for (k, expected_shards) in [(1usize, 1usize), (2, 2), (4, 4)] {
        let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), k).unwrap();
        assert_eq!(sharded.shard_count(), expected_shards, "k = {k}");
        assert_equivalent(&sharded, &single);
    }
    // requesting more shards than components caps at the component count
    let capped = ShardedService::new(g, model, config, 64).unwrap();
    assert_eq!(capped.shard_count(), 4);
}

#[test]
fn merged_topk_breaks_exact_gain_ties_on_original_node_id() {
    let (g, model, config) = fixture();
    let single = reference(&g, &model, &config);
    // comps C and D are bit-identical, so their hubs' gains tie exactly;
    // the single-engine CELF heap resolves to the lower id — "cal db"
    // (node 9) before "dot db" (node 12)
    let want = single.find_influencers("data mining", 4).unwrap();
    let cal = want.seeds.iter().position(|s| s.node == NodeId(9));
    let dot = want.seeds.iter().position(|s| s.node == NodeId(12));
    assert!(
        cal.unwrap() < dot.unwrap(),
        "lower-id hub must win the exact tie: {:?}",
        want.seeds
    );
    // the sharded merge applies the same (gain desc, node id asc) rule
    // even when the tied hubs live in *different* shards
    for k in [2usize, 4] {
        let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), k).unwrap();
        assert_ne!(
            sharded.owner_of(NodeId(9)),
            sharded.owner_of(NodeId(12)),
            "fixture must keep the tied hubs in different shards at k = {k}"
        );
        let got = find(&sharded, "data mining", 4);
        assert_eq!(got.seeds, want.seeds);
    }
}

#[test]
fn routed_delta_rebuilds_only_the_touched_shard() {
    let (g, model, config) = fixture();
    let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), 4).unwrap();
    let before = sharded.snapshots();

    // EdgeId(7) is "cal db" → "fan-c-0", entirely inside component C
    let delta = GraphDelta::NudgeWeights {
        edges: vec![EdgeId(7)],
        delta: 0.1,
    };
    sharded.submit(delta.clone());
    let swaps = sharded.apply_pending().unwrap();
    assert_eq!(swaps.len(), 1, "exactly one shard swaps");
    let cal_shard = sharded.owner_of(NodeId(9)).unwrap();
    assert_eq!(swaps[0].shard, cal_shard);
    assert_eq!(swaps[0].report.epoch, 1);
    assert_eq!(swaps[0].report.deltas_applied, 1);

    // untouched shards keep serving the very same epoch objects
    let after = sharded.snapshots();
    for (s, (b, a)) in before.iter().zip(&after).enumerate() {
        if s == cal_shard {
            assert!(!Arc::ptr_eq(b, a), "touched shard must have swapped");
            assert_eq!(a.id(), 1);
        } else {
            assert!(Arc::ptr_eq(b, a), "untouched shard {s} must not rebuild");
            assert_eq!(a.id(), 0);
        }
    }
    let stats = sharded.stats();
    let mut expected_epochs = vec![0u64; 4];
    expected_epochs[cal_shard] = 1;
    assert_eq!(stats.current_epochs, expected_epochs);
    assert_eq!(stats.epochs_swapped, 1);
    assert_eq!(stats.deltas_applied, 1);
    assert_eq!(stats.current_epoch(), 1);

    // post-delta answers still equal a whole-graph engine on the new graph
    let g1 = delta.apply(&g).unwrap();
    assert_equivalent(&sharded, &reference(&g1, &model, &config));
}

/// Each touched shard rebuilds from its own live epoch and screens PIKS
/// worlds by the coin flips of the edges whose maximum moved, in
/// *shard-local* edge ids (the coins hash local ids): the swap reuses
/// exactly the worlds in which no in-edge of a stored node flipped its
/// superset bit — computed here from the coins — which is exactly the
/// footprint screen's set, and serves a fresh build's bytes.
#[test]
fn routed_flush_screens_each_live_shard_in_local_ids() {
    let (g, model, config) = fixture();
    let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), 2).unwrap();
    assert_eq!(sharded.shard_count(), 2);
    // component A (ada's fans) and C (cal's chain) live in different shards
    let batch = vec![
        GraphDelta::NudgeWeights {
            edges: vec![EdgeId(0)],
            delta: 0.05,
        },
        GraphDelta::SetWeights {
            edge: g.find_edge(NodeId(10), NodeId(11)).unwrap(),
            probs: vec![(0, 0.85)],
        },
        GraphDelta::RenameNode {
            node: NodeId(5),
            name: "bea ml-jordan".into(),
        },
        // a no-op rewrite (bea → fan-b-0 re-stated): it moves no maximum,
        // so it rebuilds nothing
        GraphDelta::SetWeights {
            edge: g.find_edge(NodeId(5), NodeId(6)).unwrap(),
            probs: vec![(1, 0.8)],
        },
    ];
    let before = sharded.snapshots();
    sharded.submit_all(batch);
    let swaps = sharded.apply_pending().unwrap();
    assert_eq!(swaps.len(), 2, "both shards were touched");
    let after = sharded.snapshots();
    let mut rebuilt = 0;
    for swap in &swaps {
        let (live, next) = (before[swap.shard].engine(), after[swap.shard].engine());
        let (old_g, new_g) = (live.graph(), next.graph());
        let (_, raw) = live
            .artifacts()
            .payloads()
            .find(|&(tag, _)| tag == SECTION_PIKS)
            .unwrap();
        let view = PiksWorldsView::parse(raw).unwrap();
        let oracle: Vec<bool> = (0..view.len())
            .map(|j| {
                let wv = view.world(j);
                let coins = EdgeCoins::new(wv.coin_seed());
                (0..wv.node_count()).all(|i| {
                    old_g.in_edges(NodeId(wv.node(i))).all(|(_, e)| {
                        let c = coins.coin(e);
                        (c < old_g.edge_prob_max(e) as f64) == (c < new_g.edge_prob_max(e) as f64)
                    })
                })
            })
            .collect();
        let shifts = delta::max_shifts(old_g, new_g).expect("an id-stable batch");
        let mut by_coin = PiksReuse::default();
        let seed = config.seed ^ PIKS_WORLD_SEED_XOR;
        by_coin.screen(raw, new_g, seed, Some(&shifts)).unwrap();
        let by_hash = InfluencerIndex::load_reusable(raw, new_g, seed).unwrap();
        let piks = swap
            .report
            .stage_reuse
            .iter()
            .find(|s| s.stage == "piks-worlds")
            .unwrap();
        let expected = oracle.iter().filter(|&&o| o).count();
        assert_eq!(piks.reused, expected, "shard {}", swap.shard);
        assert_eq!(by_coin.reusable_worlds(), oracle, "shard {}", swap.shard);
        assert_eq!(by_hash.reusable_worlds(), oracle, "shard {}", swap.shard);
        rebuilt += oracle.len() - expected;
        let fresh = reference(next.graph(), &model, &config);
        assert!(
            next.artifacts().payloads().eq(fresh.artifacts().payloads()),
            "shard {} serves a fresh build's bytes",
            swap.shard
        );
    }
    assert!(rebuilt > 0, "the batch must cross a coin");
}

#[test]
fn multi_shard_batch_swaps_every_touched_shard_atomically() {
    let (g, model, config) = fixture();
    let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), 4).unwrap();
    // one batch touching components A (nudge) and B (rename): both shards
    // swap in the same flush, C and D pay nothing
    let batch = vec![
        GraphDelta::NudgeWeights {
            edges: vec![EdgeId(0)],
            delta: 0.05,
        },
        GraphDelta::RenameNode {
            node: NodeId(5),
            name: "bea ml-jordan".into(),
        },
    ];
    sharded.submit_all(batch.clone());
    let swaps = sharded.apply_pending().unwrap();
    let mut swapped: Vec<usize> = swaps.iter().map(|s| s.shard).collect();
    swapped.sort_unstable();
    let expected = {
        let mut v = vec![
            sharded.owner_of(NodeId(0)).unwrap(),
            sharded.owner_of(NodeId(5)).unwrap(),
        ];
        v.sort_unstable();
        v
    };
    assert_eq!(swapped, expected);
    assert!(swaps.iter().all(|s| s.report.deltas_applied == 2));
    let stats = sharded.stats();
    assert_eq!(stats.epochs_swapped, 2);
    assert_eq!(stats.deltas_applied, 2);
    assert_eq!(stats.current_epoch(), 2);
    // the rename is visible through the union-merged trie
    assert!(complete(&sharded, "bea ml-j", 1)
        .iter()
        .any(|(id, name, _)| *id == NodeId(5) && name == "bea ml-jordan"));

    let g1 = octopus_graph::delta::apply_all(&g, &batch).unwrap();
    assert_equivalent(&sharded, &reference(&g1, &model, &config));
}

/// A batch whose first row empties (dropping its edge and shifting every
/// later id) lands as the same graph through the sharded and the whole
/// graph service: each delta's ids read against the graph it applies to.
#[test]
fn id_shifting_batch_lands_alike_sharded_and_whole() {
    let (g, model, config) = fixture();
    // comp D: dot db → fan-d-0 (e_a), dot db → fan-d-1 (e_a + 1), fan-d-0 →
    // fan-d-1; once e_a drops, id e_a + 1 names fan-d-0 → fan-d-1
    let e_a = g.find_edge(NodeId(12), NodeId(13)).unwrap();
    let batch = vec![
        GraphDelta::SetWeights {
            edge: e_a,
            probs: vec![(0, 0.0)],
        },
        GraphDelta::SetWeights {
            edge: EdgeId(e_a.0 + 1),
            probs: vec![(0, 0.9)],
        },
        GraphDelta::InsertEdge {
            src: NodeId(11),
            dst: NodeId(9),
            probs: vec![(0, 0.2)],
        },
    ];
    let g1 = delta::apply_all(&g, &batch).unwrap();
    let moved = g1.find_edge(NodeId(13), NodeId(14)).unwrap();
    assert_eq!(g1.edge_prob_topic(moved, TopicId(0)), 0.9);
    let fresh = reference(&g1, &model, &config);

    let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), 2).unwrap();
    sharded.submit_all(batch.clone());
    assert_eq!(sharded.apply_pending().unwrap().len(), 2);
    assert_equivalent(&sharded, &fresh);

    let whole = OctopusService::new(reference(&g, &model, &config));
    whole.submit_all(batch);
    whole.apply_pending().unwrap();
    assert_eq!(whole.snapshot().engine().graph(), &g1);
    assert_equivalent(&whole, &fresh);
}

#[test]
fn cross_shard_insert_is_rejected_and_eventually_dropped() {
    let (g, model, config) = fixture();
    let sharded = ShardedService::new(g, model, config, 4).unwrap();
    sharded.submit(GraphDelta::InsertEdge {
        src: NodeId(0),
        dst: NodeId(5),
        probs: vec![(0, 0.4)],
    });
    // the insert would merge components A and B — every attempt must be
    // rejected with the routing error, and the retry contract eventually
    // drops the batch instead of wedging the queue
    for attempt in 1..=MAX_BATCH_RETRIES {
        match sharded.apply_pending() {
            Err(CoreError::CrossShardDelta { src, dst }) => {
                assert_eq!(src.0, NodeId(0));
                assert_eq!(dst.0, NodeId(5));
                assert_ne!(src.1, dst.1);
            }
            other => panic!("attempt {attempt}: expected CrossShardDelta, got {other:?}"),
        }
    }
    let stats = sharded.stats();
    assert_eq!(stats.batches_failed, MAX_BATCH_RETRIES);
    assert_eq!(stats.terminal_failures, 1);
    assert_eq!(stats.pending_deltas, 0);
    assert_eq!(stats.current_epochs, vec![0; 4], "no shard ever swapped");

    // a same-shard insert (inside component C) still routes and applies
    sharded.submit(GraphDelta::InsertEdge {
        src: NodeId(11),
        dst: NodeId(9),
        probs: vec![(0, 0.2)],
    });
    let swaps = sharded.apply_pending().unwrap();
    assert_eq!(swaps.len(), 1);
    assert_eq!(Some(swaps[0].shard), sharded.owner_of(NodeId(9)));
    assert_eq!(sharded.stats().terminal_failures, 1);
}

#[test]
fn sharded_equivalence_holds_at_one_and_eight_threads() {
    let (g, model, config) = fixture();
    let single = reference(&g, &model, &config);
    for threads in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), 2).unwrap();
            assert_equivalent(&sharded, &single);
            // a routed delta under this thread count, then re-check
            let delta = GraphDelta::NudgeWeights {
                edges: vec![EdgeId(4)],
                delta: 0.05,
            };
            sharded.submit(delta.clone());
            let swaps = sharded.apply_pending().unwrap();
            assert_eq!(swaps.len(), 1, "threads = {threads}");
            let g1 = delta.apply(&g).unwrap();
            assert_equivalent(&sharded, &reference(&g1, &model, &config));
        });
    }
}

#[test]
fn cached_and_mapped_shards_serve_identically() {
    let (g, model, config) = fixture();
    let single = reference(&g, &model, &config);
    let root = std::env::temp_dir().join(format!("octopus-serve-shard-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    // cached mode: per-shard OCTA subdirectories under the root
    let cached = ShardedService::with_cache_dir(
        g.clone(),
        model.clone(),
        config.clone(),
        2,
        root.join("cached"),
    )
    .unwrap();
    assert_equivalent(&cached, &single);
    for idx in 0..2 {
        assert!(
            root.join("cached").join(format!("shard-{idx:03}")).is_dir(),
            "each shard keeps its own cache subdirectory"
        );
    }
    // a routed rename rebuilds one shard *through its cache*, reusing the
    // weight-reading stages it left valid
    let delta = GraphDelta::RenameNode {
        node: NodeId(12),
        name: "dot db-lee".into(),
    };
    cached.submit(delta.clone());
    let swaps = cached.apply_pending().unwrap();
    assert_eq!(swaps.len(), 1);
    assert!(
        swaps[0]
            .report
            .stage_reuse
            .iter()
            .any(|s| s.stage == "spread-cap" && s.is_full()),
        "a rename must reuse the shard's weight-blind stages: {:?}",
        swaps[0].report.stage_reuse
    );
    let g1 = delta.apply(&g).unwrap();
    assert_equivalent(&cached, &reference(&g1, &model, &config));

    // a topic-1-confined nudge (bea ml → fan-b-0 carries only a topic-1
    // entry) routed to one shard: that shard's swap report shows the
    // per-topic split on the always-enabled cap stage — topic 0's unit
    // reused off the shard's donor epoch, topic 1's rebuilt
    let nudge = GraphDelta::NudgeWeights {
        edges: vec![g1.find_edge(NodeId(5), NodeId(6)).unwrap()],
        delta: 0.05,
    };
    assert_eq!(
        nudge
            .touched_topics(&g1)
            .unwrap()
            .into_iter()
            .collect::<Vec<_>>(),
        vec![1],
        "the nudged edge must be topic-1-confined"
    );
    cached.submit(nudge.clone());
    let swaps = cached.apply_pending().unwrap();
    assert_eq!(swaps.len(), 1, "the nudge routes to exactly one shard");
    let cap = swaps[0]
        .report
        .stage_reuse
        .iter()
        .find(|s| s.stage == "spread-cap")
        .expect("spread-cap in the swap report");
    assert_eq!(
        (cap.reused, cap.total),
        (1, 2),
        "a topic-confined nudge must reuse the untouched topic's cap unit: {cap:?}"
    );
    let g2 = nudge.apply(&g1).unwrap();
    assert_equivalent(&cached, &reference(&g2, &model, &config));

    // mapped mode: every shard engine serves zero-copy off its artifact
    let mapped = ShardedService::with_mapped_cache(
        g.clone(),
        model.clone(),
        config.clone(),
        2,
        root.join("mapped"),
    )
    .unwrap();
    for snap in mapped.snapshots() {
        assert!(snap.engine().is_mapped(), "shard engines must be mapped");
    }
    assert_equivalent(&mapped, &single);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn user_keyword_overrides_project_onto_their_shard() {
    let (g, model, config) = fixture();
    let mut overrides = std::collections::HashMap::new();
    overrides.insert(NodeId(0), vec![octopus_topics::KeywordId(1)]);
    let sharded = ShardedService::with_options(
        g.clone(),
        model.clone(),
        config.clone(),
        4,
        None,
        false,
        overrides.clone(),
    )
    .unwrap();
    let single = Octopus::new(g, model, config)
        .unwrap()
        .with_user_keywords(overrides);
    let want = single.suggest_keywords("ada db", 1).unwrap();
    let got = suggest(&sharded, "ada db", 1);
    assert_eq!(got.words, want.words);
    assert_eq!(got.words, vec!["frequent patterns"]);
    assert_eq!(got.user, NodeId(0), "lifted back to the global id");
}

#[test]
fn keyword_radar_gathers_from_every_shard() {
    // Regression pin: the radar used to answer from shard 0 alone. The
    // scatter-gather merge (documented elementwise max) must equal the
    // whole-graph chart for words loading on *both* topics, at every
    // shard count, and stay equal after a routed delta bumps one shard.
    let (g, model, config) = fixture();
    let single = reference(&g, &model, &config);
    for k in [2usize, 4] {
        let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), k).unwrap();
        for word in ["data mining", "em algorithm", "graphical models"] {
            let want = single.keyword_radar(word).unwrap();
            let got = radar(&sharded, word);
            assert_eq!(got, want, "radar for {word:?} at k = {k}");
        }
        // every per-shard chart participates in the merge: each equals
        // the whole-graph chart (shards share the topic model), so the
        // elementwise max is exact rather than shard-0's view by luck
        for snap in sharded.snapshots() {
            assert_eq!(
                snap.engine().keyword_radar("em algorithm").unwrap(),
                single.keyword_radar("em algorithm").unwrap()
            );
        }
    }
}

#[test]
fn sharded_budgeted_topk_is_deterministic_and_its_bound_is_sound() {
    let (g, model, config) = fixture();
    let single = reference(&g, &model, &config);
    let exact_spread = single
        .find_influencers("data mining", 4)
        .unwrap()
        .result
        .spread;
    for k in [2usize, 4] {
        let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), k).unwrap();
        for samples in [32usize, 256] {
            let budget = QueryBudget::samples(samples);
            let a = find_under(&sharded, "data mining", 4, &budget);
            let b = find_under(&sharded, "data mining", 4, &budget);
            // fixed sample budget ⇒ the scatter, the per-shard samplers,
            // and the gather are all deterministic
            assert_eq!(
                a.value.seeds, b.value.seeds,
                "k = {k}, {samples} samples: merged seeds not reproducible"
            );
            assert_eq!(
                a.value.result.spread.to_bits(),
                b.value.result.spread.to_bits()
            );
            assert_eq!(a.bound, b.bound);
            assert!(!a.bound.exact);
            assert!(
                a.bound.samples_used <= samples,
                "shards spent {} RR sets against a split budget of {samples}",
                a.bound.samples_used
            );
            // gathered bound still brackets the whole-graph exact spread
            assert!(
                a.bound.contains(exact_spread),
                "k = {k}, {samples} samples: exact spread {exact_spread} outside [{}, {}]",
                a.bound.lower,
                a.bound.upper
            );
        }
    }
}

#[test]
fn sharded_admission_counts_sheds_in_stats() {
    use octopus_core::serve::AdmissionConfig;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    let (g, model, config) = fixture();
    // one execution slot and zero queue room: with 8 concurrent clients
    // some queries must shed, and every shed surfaces as Overloaded
    let sharded = Arc::new(
        ShardedService::new(g, model, config, 2)
            .unwrap()
            .with_admission(AdmissionConfig {
                max_inflight: 1,
                queue_caps: [0, 0, 0],
            }),
    );
    let observed_shed = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (sharded, observed_shed, answered) = (&sharded, &observed_shed, &answered);
            scope.spawn(move || {
                for _ in 0..4 {
                    let query = influencers_query("data mining", 2);
                    match sharded.execute(&query, &QueryBudget::unlimited()) {
                        Ok(_) => {
                            answered.fetch_add(1, Relaxed);
                        }
                        Err(CoreError::Overloaded { class, .. }) => {
                            assert_eq!(class, "standard");
                            observed_shed.fetch_add(1, Relaxed);
                        }
                        Err(e) => panic!("unexpected error {e:?}"),
                    }
                }
            });
        }
    });
    let stats = sharded.stats();
    assert_eq!(
        stats.queries_shed,
        observed_shed.load(Relaxed),
        "stats must count exactly the Overloaded errors callers saw"
    );
    assert_eq!(stats.shed_by_class, [0, observed_shed.load(Relaxed), 0]);
    assert_eq!(
        stats.queries_shed + answered.load(Relaxed),
        32,
        "no query both answered and shed, none lost"
    );
    // autocomplete bypasses admission entirely: even a saturated
    // controller never sheds it
    for _ in 0..4 {
        assert!(!complete(&*sharded, "fan-", 5).is_empty());
    }
    assert_eq!(sharded.stats().queries_shed, observed_shed.load(Relaxed));
}

/// Regression pin: a flush used to swap its shards one cell at a time, so
/// a reader could see one touched shard at the new epoch and the other at
/// the old. A flush now swaps every touched shard in one store: in every
/// snapshot the two shards each flush touches carry the same epoch, and
/// every stamp (the sum of the four shard epochs) is even.
#[test]
fn readers_never_see_a_half_swapped_flush() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    const FLUSHES: u64 = 100;
    let (g, model, config) = fixture();
    let sharded = ShardedService::new(g, model, config, 4).unwrap();
    let (a, b) = (
        sharded.owner_of(NodeId(0)).unwrap(),
        sharded.owner_of(NodeId(5)).unwrap(),
    );
    assert_ne!(a, b, "components A and B must live in different shards");
    let (done, reads, half_swapped, odd_stamps) = (
        AtomicBool::new(false),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    );
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let query = Query::Autocomplete {
                    prefix: "fan-".into(),
                    limit: 3,
                };
                for i in 0u64.. {
                    if done.load(Relaxed) {
                        break;
                    }
                    let snaps = sharded.snapshots();
                    reads.fetch_add(1, Relaxed);
                    if snaps[a].id() != snaps[b].id() {
                        half_swapped.fetch_add(1, Relaxed);
                    }
                    // a query costs far more than a snapshot: interleave
                    // one per 16 reads so the snapshot check stays dense
                    if i % 16 == 0 {
                        let served = sharded.execute(&query, &QueryBudget::unlimited());
                        if !served.unwrap().epoch.is_multiple_of(2) {
                            odd_stamps.fetch_add(1, Relaxed);
                        }
                    }
                }
            });
        }
        for i in 0..FLUSHES {
            sharded.submit_all(vec![
                GraphDelta::RenameNode {
                    node: NodeId(0),
                    name: format!("ada db-{i}"),
                },
                GraphDelta::RenameNode {
                    node: NodeId(5),
                    name: format!("bea ml-{i}"),
                },
            ]);
            assert_eq!(sharded.apply_pending().unwrap().len(), 2);
        }
        done.store(true, Relaxed);
    });
    let (reads, half_swapped) = (reads.into_inner(), half_swapped.into_inner());
    assert!(reads > 0, "the readers must have raced the flushes");
    assert_eq!(
        half_swapped, 0,
        "{half_swapped} of {reads} snapshots held the touched shards at different epochs"
    );
    assert_eq!(
        odd_stamps.into_inner(),
        0,
        "a query stamped a half-swapped flush"
    );
    assert_eq!(sharded.stats().current_epoch(), 2 * FLUSHES);
}

/// The fault hook and the counters every layer has.
trait Layer: QueryService {
    fn fail_next_rebuilds(&self, n: u64);
    fn stats(&self) -> ServiceStats;
}

impl Layer for OctopusService {
    fn fail_next_rebuilds(&self, n: u64) {
        OctopusService::fail_next_rebuilds(self, n);
    }

    fn stats(&self) -> ServiceStats {
        OctopusService::stats(self)
    }
}

impl Layer for ShardedService {
    fn fail_next_rebuilds(&self, n: u64) {
        ShardedService::fail_next_rebuilds(self, n);
    }

    fn stats(&self) -> ServiceStats {
        ShardedService::stats(self)
    }
}

/// One retry contract on either layer: `failures` transient rebuild
/// failures hit a one-delta batch, and a second delta is submitted after
/// the first failed attempt. Below [`MAX_BATCH_RETRIES`] the next flush
/// lands both, in submission order; at it, the batch is dropped. No
/// shard's epoch moves during a failed attempt.
fn check_retry_contract(layer: &dyn Layer, failures: u64) {
    let rename = |name: &str| GraphDelta::RenameNode {
        node: NodeId(0),
        name: name.into(),
    };
    let epochs = layer.stats().current_epochs;
    layer.submit_delta(rename("ada db-first"));
    layer.fail_next_rebuilds(failures);
    for attempt in 1..=failures {
        assert!(layer.flush_deltas().is_err(), "attempt {attempt} fails");
        if attempt == 1 {
            layer.submit_delta(rename("ada db-second"));
        }
        let stats = layer.stats();
        assert_eq!(stats.current_epochs, epochs, "attempt {attempt} swapped");
        assert_eq!(stats.batches_failed, attempt);
    }
    let landed = if failures < MAX_BATCH_RETRIES {
        assert_eq!(layer.delta_counters().pending_deltas, 2, "both stay queued");
        let swaps = layer.flush_deltas().unwrap();
        assert!(!swaps.is_empty());
        assert!(swaps.iter().all(|s| s.report.deltas_applied == 2));
        2
    } else {
        0
    };
    assert_eq!(
        layer.delta_counters(),
        DeltaCounters {
            deltas_applied: landed,
            batches_failed: failures,
            terminal_failures: u64::from(landed == 0),
            pending_deltas: 0,
        }
    );
    let names: Vec<String> = complete(layer, "ada db", 5)
        .into_iter()
        .map(|(_, name, _)| name)
        .collect();
    let want = if landed > 0 {
        "ada db-second"
    } else {
        "ada db"
    };
    assert_eq!(names, vec![want.to_string()], "the later rename lands last");
}

#[test]
fn one_retry_contract_on_both_layers() {
    let (g, model, config) = fixture();
    for failures in [2, MAX_BATCH_RETRIES] {
        let whole = OctopusService::new(reference(&g, &model, &config));
        check_retry_contract(&whole, failures);
        let sharded = ShardedService::new(g.clone(), model.clone(), config.clone(), 2).unwrap();
        check_retry_contract(&sharded, failures);
    }
}
