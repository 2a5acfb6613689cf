//! Determinism contract of the staged offline-build pipeline: for a fixed
//! `config.seed`, the artifacts are bit-identical across repeated builds
//! and across thread counts (1-thread pool vs the default pool), because
//! every randomized work unit draws from its own index-derived RNG stream
//! and every parallel combinator assembles results in unit order. Identity
//! is judged on the OCTA v5 section payloads the engines serve.

use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus_core::kim::BoundKind;
use octopus_core::offline::persist::{self, Fingerprint, StageKeys};
use octopus_core::offline::view::MappedArtifacts;
use octopus_core::offline::{self, OfflineArtifacts, STAGE_ORDER};
use octopus_graph::{GraphBuilder, NodeId, TopicGraph};
use std::sync::Arc;

/// A 3-topic graph big enough that every stage has real work units.
fn fixture_graph() -> TopicGraph {
    let mut b = GraphBuilder::new(3);
    for i in 0..60 {
        b.add_node(format!("user-{i}"));
    }
    // three topic-disjoint hubs plus a sprinkle of cross links
    for (hub, z) in [(0u32, 0usize), (1, 1), (2, 2)] {
        for v in 0..15u32 {
            let dst = 3 + z as u32 * 15 + v;
            b.add_edge(NodeId(hub), NodeId(dst), &[(z, 0.6)]).unwrap();
        }
    }
    for v in 3..20u32 {
        b.add_edge(NodeId(v), NodeId(v + 20), &[(0, 0.15), (1, 0.1)])
            .unwrap();
    }
    b.build().unwrap()
}

fn configs() -> Vec<OctopusConfig> {
    let base = OctopusConfig {
        piks_index_size: 400,
        mis_rr_per_topic: 800,
        k_max: 5,
        seed: 0xD57E_2217,
        ..Default::default()
    };
    vec![
        OctopusConfig {
            kim: KimEngineChoice::Mis,
            ..base.clone()
        },
        OctopusConfig {
            kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
            ..base.clone()
        },
        OctopusConfig {
            kim: KimEngineChoice::TopicSample {
                bound: BoundKind::Precomputation,
                extra_samples: 6,
                direct_eps: 0.05,
            },
            ..base
        },
    ]
}

/// Section-by-section byte identity of two served artifacts — everything
/// derived from randomness (the header's write sequence aside).
fn assert_payloads_identical(a: &MappedArtifacts, b: &MappedArtifacts, what: &str) {
    let (a, b): (Vec<_>, Vec<_>) = (a.payloads().collect(), b.payloads().collect());
    assert_eq!(a.len(), b.len(), "{what}: section count differs");
    for ((tag, x), (other, y)) in a.iter().zip(&b) {
        assert_eq!(tag, other, "{what}: section order differs");
        assert!(x == y, "{what}: section {tag:#x} payload differs");
    }
}

/// Byte identity of two pipeline outputs, judged on their encodings.
fn assert_artifacts_identical(
    g: &TopicGraph,
    config: &OctopusConfig,
    a: &OfflineArtifacts,
    b: &OfflineArtifacts,
    what: &str,
) {
    let (fp, keys) = (
        Fingerprint::compute(g, config),
        StageKeys::compute(g, config),
    );
    let encoded = |art| persist::encode(art, &fp, &keys, 0);
    assert!(encoded(a) == encoded(b), "{what}: encoded artifacts differ");
}

#[test]
fn rebuilding_is_bit_identical() {
    let g = fixture_graph();
    for config in configs() {
        let a = offline::build(&g, &config);
        let b = offline::build(&g, &config);
        let what = format!("rebuild under {:?}", config.kim);
        assert_artifacts_identical(&g, &config, &a, &b, &what);
    }
}

#[test]
fn one_thread_and_many_threads_agree() {
    let g = fixture_graph();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let many = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap();
    for config in configs() {
        let a = single.install(|| offline::build(&g, &config));
        let b = many.install(|| offline::build(&g, &config));
        let what = format!("1-thread vs 8-thread under {:?}", config.kim);
        assert_artifacts_identical(&g, &config, &a, &b, &what);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // guard against the determinism tests passing vacuously (e.g. a seed
    // that never reaches the samplers)
    let g = fixture_graph();
    let config = OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 400,
        mis_rr_per_topic: 800,
        k_max: 5,
        ..Default::default()
    };
    let a = offline::build(&g, &config);
    let b = offline::build(
        &g,
        &OctopusConfig {
            seed: config.seed ^ 0xFFFF,
            ..config.clone()
        },
    );
    let payload = |art: &OfflineArtifacts, tag| {
        let (_, p) = art.payloads().find(|&(t, _)| t == tag).unwrap();
        p.to_vec()
    };
    assert!(
        payload(&a, persist::SECTION_PIKS) != payload(&b, persist::SECTION_PIKS),
        "PIKS worlds must depend on the seed"
    );
    let mis = |art| {
        let tags = (0..g.num_topics()).map(|z| persist::topic_tag(persist::SECTION_MIS, z));
        tags.map(|tag| payload(art, tag)).collect::<Vec<_>>()
    };
    assert!(mis(&a) != mis(&b), "MIS tables must depend on the seed");
}

#[test]
fn timings_cover_every_stage() {
    let g = fixture_graph();
    let art = offline::build(&g, &configs()[0]);
    let names: Vec<&str> = art.timings.iter().map(|t| t.stage).collect();
    assert_eq!(names, STAGE_ORDER.to_vec());
}

#[test]
fn persisted_artifacts_are_bit_identical_to_built_ones() {
    // the cache extends the determinism contract across process restarts:
    // build → encode → reload-every-section must equal build, field for
    // field, for every engine flavour
    let g = fixture_graph();
    for config in configs() {
        let fp = Fingerprint::compute(&g, &config);
        let keys = StageKeys::compute(&g, &config);
        let built = offline::build(&g, &config);
        let raw = persist::encode(&built, &fp, &keys, 1);
        let slots = persist::load_sections(&raw, &keys, &g, &config)
            .unwrap_or_else(|e| panic!("reload under {:?}: {e}", config.kim));
        let back = offline::build_with_reuse(&g, &config, slots);
        assert!(
            back.fully_reused(),
            "unchanged inputs must reuse every stage under {:?}: {:?}",
            config.kim,
            back.reuse
        );
        let what = format!("persisted round trip under {:?}", config.kim);
        assert_artifacts_identical(&g, &config, &built, &back, &what);
    }
}

#[test]
fn cached_engine_answers_bit_identically_to_fresh_one() {
    // a loaded-from-cache engine must answer KIM, PIKS-suggestion, path and
    // autocomplete queries exactly like the engine that wrote the cache
    let g = fixture_graph();
    let model = model_for(&g);
    let dir = std::env::temp_dir().join("octopus_determinism_cache");
    std::fs::remove_dir_all(&dir).ok();
    for config in configs() {
        let fresh = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        assert!(!fresh.cache_hit(), "first open builds ({:?})", config.kim);
        let cached =
            Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        assert!(cached.cache_hit(), "second open loads ({:?})", config.kim);
        assert_payloads_identical(
            fresh.artifacts(),
            cached.artifacts(),
            &format!("cache round trip under {:?}", config.kim),
        );

        for query in ["alpha", "beta", "alpha gamma"] {
            let a = fresh.find_influencers(query, 3).unwrap();
            let b = cached.find_influencers(query, 3).unwrap();
            assert_eq!(
                a.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
                b.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
                "KIM seeds under {:?} for {query:?}",
                config.kim
            );
            assert_eq!(a.result.spread, b.result.spread, "KIM spread bits");
        }
        let a = fresh.suggest_keywords_for(NodeId(0), 2).unwrap();
        let b = cached.suggest_keywords_for(NodeId(0), 2).unwrap();
        assert_eq!(a.words, b.words, "PIKS suggestion under {:?}", config.kim);
        assert_eq!(a.result.spread, b.result.spread, "PIKS spread bits");
        let a = fresh
            .explore_paths(
                "user-0",
                octopus_core::paths::ExploreDirection::Influences,
                Some("alpha"),
            )
            .unwrap();
        let b = cached
            .explore_paths(
                "user-0",
                octopus_core::paths::ExploreDirection::Influences,
                Some("alpha"),
            )
            .unwrap();
        assert_eq!(a.d3_json, b.d3_json, "path exploration JSON");
        assert_eq!(
            fresh.autocomplete("user-1", 4),
            cached.autocomplete("user-1", 4)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_written_by_one_thread_count_is_read_by_another() {
    // artifacts persisted under one pool size must hit (and agree with) an
    // open under another — BOTH directions, because the property being
    // pinned is that the fingerprint covers inputs, not thread counts
    let g = fixture_graph();
    let model = model_for(&g);
    let config = configs().remove(0);
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();

    // direction 1: 1-thread writer → default-pool reader
    let dir = std::env::temp_dir().join("octopus_determinism_cache_threads_1w");
    std::fs::remove_dir_all(&dir).ok();
    let writer = single
        .install(|| Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir))
        .unwrap();
    assert!(!writer.cache_hit());
    let reader = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
    assert!(
        reader.cache_hit(),
        "thread count must not affect the cache key"
    );
    assert_payloads_identical(
        writer.artifacts(),
        reader.artifacts(),
        "1-thread writer vs default-pool reader",
    );
    std::fs::remove_dir_all(&dir).ok();

    // direction 2: default-pool writer → 1-thread reader
    let dir = std::env::temp_dir().join("octopus_determinism_cache_threads_nw");
    std::fs::remove_dir_all(&dir).ok();
    let writer = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
    assert!(!writer.cache_hit());
    let reader = single
        .install(|| Octopus::open_or_build(g, model, config, &dir))
        .unwrap();
    assert!(
        reader.cache_hit(),
        "a default-pool cache must hit a 1-thread reader"
    );
    assert_payloads_identical(
        writer.artifacts(),
        reader.artifacts(),
        "default-pool writer vs 1-thread reader",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_queries_agree_across_thread_counts() {
    // end-to-end: engines built under different pools answer identically
    let g = fixture_graph();
    let config = configs().remove(1);
    let model = model_for(&g);
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let e1 = single
        .install(|| Octopus::new(g.clone(), model.clone(), config.clone()))
        .expect("engine builds");
    let e2 = Octopus::new(g, model, config).expect("engine builds");
    let a = e1.find_influencers("alpha", 3).expect("query");
    let b = e2.find_influencers("alpha", 3).expect("query");
    let seeds = |ans: &octopus_core::engine::KimAnswer| {
        ans.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
    };
    assert_eq!(seeds(&a), seeds(&b));
    assert_eq!(a.result.spread, b.result.spread);
}

#[test]
fn engine_is_shareable_behind_an_arc() {
    // the Send + Sync contract, exercised: one Arc'd engine, many threads
    let g = fixture_graph();
    let engine = Arc::new(
        Octopus::new(g, model_for(&fixture_graph()), configs().remove(0)).expect("engine builds"),
    );
    let mut handles = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            engine.find_influencers("alpha", 2).expect("query").seeds[0].node
        }));
    }
    let firsts: Vec<NodeId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        firsts.windows(2).all(|w| w[0] == w[1]),
        "threads must agree: {firsts:?}"
    );
}

/// A 3-topic model whose vocabulary maps one word to each topic.
fn model_for(g: &TopicGraph) -> octopus_topics::TopicModel {
    assert_eq!(g.num_topics(), 3);
    let mut vocab = octopus_topics::Vocabulary::new();
    vocab.intern("alpha");
    vocab.intern("beta");
    vocab.intern("gamma");
    octopus_topics::TopicModel::from_rows(
        vocab,
        vec![
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
        ],
        vec![1.0 / 3.0; 3],
    )
    .unwrap()
}
