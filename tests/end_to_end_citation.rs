//! End-to-end integration: citation network → engine → all three scenarios,
//! plus the full learn-from-log pipeline (generate → EM → query) that
//! mirrors the paper's §II-B data flow.

use octopus::core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus::core::kim::BoundKind;
use octopus::core::paths::ExploreDirection;
use octopus::data::{CitationConfig, EmOptions, TicEm};
use octopus::KeywordId;
use std::collections::HashMap;

fn small_net() -> octopus::data::SyntheticNetwork {
    CitationConfig {
        authors: 120,
        papers: 360,
        num_topics: 4,
        words_per_topic: 10,
        seed: 99,
        ..Default::default()
    }
    .generate()
}

fn engine_config() -> OctopusConfig {
    OctopusConfig {
        piks_index_size: 512,
        mis_rr_per_topic: 1500,
        k_max: 10,
        ..Default::default()
    }
}

#[test]
fn all_three_scenarios_on_ground_truth_model() {
    let net = small_net();
    let mut user_keywords: HashMap<octopus::NodeId, Vec<KeywordId>> = HashMap::new();
    for item in net.log.items() {
        let e = user_keywords.entry(item.origin).or_default();
        for &w in &item.keywords {
            if !e.contains(&w) {
                e.push(w);
            }
        }
    }
    let engine = Octopus::new(net.graph.clone(), net.model.clone(), engine_config())
        .expect("engine builds")
        .with_user_keywords(user_keywords);

    // Scenario 1
    let ans = engine
        .find_influencers("data mining", 5)
        .expect("kim query");
    assert_eq!(ans.seeds.len(), 5);
    assert!(ans.result.spread >= 5.0, "spread at least the seed count");
    assert_eq!(ans.gamma.dominant_topic(), 0, "db query maps to topic 0");
    // seeds are distinct
    let mut ids: Vec<_> = ans.seeds.iter().map(|s| s.node).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 5);

    // Scenario 2 on the top influencer
    let target = ans.seeds[0].name.clone();
    let sugg = engine.suggest_keywords(&target, 2).expect("piks query");
    assert_eq!(sugg.words.len(), 2);
    assert!(sugg.result.spread >= 1.0);
    assert!(sugg.result.consistency > 0.0);

    // Scenario 3 both directions
    let fwd = engine
        .explore_paths(&target, ExploreDirection::Influences, Some("data mining"))
        .expect("path query");
    assert!(fwd.reached >= 1);
    assert!(fwd.d3_json.contains(&target));
    let back = engine
        .explore_paths(&target, ExploreDirection::InfluencedBy, None)
        .expect("reverse path query");
    assert_eq!(back.root_name, target);
}

#[test]
fn learned_model_supports_the_same_queries() {
    // generate → EM learn → build engine on the LEARNED model (not the
    // planted one) → queries still work and the learned graph is faithful
    // enough that a db-keyword query lands on the db topic's subgraph.
    let net = small_net();
    let em = TicEm::new(EmOptions {
        num_topics: 4,
        max_iters: 15,
        ..Default::default()
    });
    let fit = em.fit(
        &net.log,
        net.model.vocab().clone(),
        net.graph.names().to_vec(),
    );
    assert!(fit.graph.edge_count() > 0);
    let engine = Octopus::new(fit.graph, fit.model, engine_config()).expect("engine builds");
    let ans = engine
        .find_influencers("data mining", 3)
        .expect("query on learned model");
    assert_eq!(ans.seeds.len(), 3);
    let sugg = engine
        .suggest_keywords_for(ans.seeds[0].node, 2)
        .expect("piks on learned");
    assert_eq!(sugg.result.keywords.len(), 2);
}

#[test]
fn engines_agree_on_quality_within_tolerance() {
    // all engines' seed sets, re-scored by one Monte-Carlo referee, should
    // be within 25% of the naive baseline
    let net = small_net();
    let gamma = net.model.infer_str("data mining").expect("query resolves");
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims fine");
    let referee = |seeds: &[octopus::NodeId]| {
        octopus::cascade::estimate_spread(&net.graph, &probs, seeds, 4000, 123)
    };
    let mut spreads: HashMap<&str, f64> = HashMap::new();
    for (label, kim) in [
        ("naive", KimEngineChoice::Naive),
        ("mis", KimEngineChoice::Mis),
        ("pb", KimEngineChoice::BestEffort(BoundKind::Precomputation)),
        ("nb", KimEngineChoice::BestEffort(BoundKind::Neighborhood)),
        ("lg", KimEngineChoice::BestEffort(BoundKind::LocalGraph)),
        (
            "ts",
            KimEngineChoice::TopicSample {
                bound: BoundKind::Precomputation,
                extra_samples: 8,
                direct_eps: 0.05,
            },
        ),
    ] {
        let cfg = OctopusConfig {
            kim,
            ..engine_config()
        };
        let engine =
            Octopus::new(net.graph.clone(), net.model.clone(), cfg).expect("engine builds");
        let res = engine.find_influencers_gamma(&gamma, 5).expect("query");
        assert_eq!(res.seeds.len(), 5, "{label} returned too few seeds");
        spreads.insert(label, referee(&res.seeds));
    }
    let naive = spreads["naive"];
    for (label, s) in &spreads {
        assert!(
            *s >= 0.75 * naive,
            "{label} quality {s:.1} too far below naive {naive:.1} ({spreads:?})"
        );
    }
}

#[test]
fn autocomplete_matches_graph_names() {
    let net = small_net();
    let engine =
        Octopus::new(net.graph.clone(), net.model.clone(), engine_config()).expect("builds");
    // every completion must resolve back to the right node
    for (node, name, _) in engine.autocomplete("a", 20) {
        assert_eq!(net.graph.node_by_name(&name), Some(node));
    }
}

#[test]
fn graph_codec_round_trips_generated_networks() {
    let net = small_net();
    let bytes = octopus::graph::codec::encode(&net.graph);
    let decoded = octopus::graph::codec::decode(bytes).expect("decodes");
    assert_eq!(net.graph, decoded);
    // and the decoded graph is fully queryable
    let engine = Octopus::new(decoded, net.model.clone(), engine_config()).expect("builds");
    assert!(engine.find_influencers("data mining", 2).is_ok());
}

#[test]
fn engine_serves_concurrent_queries() {
    // The facade is `&self` throughout; the query cache is internally
    // synchronized — so one engine must serve parallel query threads (the
    // "online system" deployment mode).
    let net = small_net();
    let engine =
        Octopus::new(net.graph.clone(), net.model.clone(), engine_config()).expect("engine builds");
    let queries = ["data mining", "neural network", "clustering", "data mining"];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for q in queries {
            let engine = &engine;
            handles.push(scope.spawn(move || {
                let ans = engine.find_influencers(q, 5).expect("query succeeds");
                assert_eq!(ans.seeds.len(), 5);
                ans.seeds[0].node
            }));
        }
        let firsts: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // identical queries agree even across threads
        assert_eq!(firsts[0], firsts[3]);
    });
    // the repeated "data mining" query may or may not have hit the cache
    // depending on scheduling, but the cache must be consistent
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 4);
}

/// Answers an engine must reproduce exactly after a restart: one query per
/// artifact-dependent service.
fn probe(engine: &Octopus) -> (Vec<octopus::NodeId>, f64, Vec<String>, String) {
    let kim = engine.find_influencers("data mining", 5).expect("kim");
    let sugg = engine
        .suggest_keywords_for(kim.seeds[0].node, 2)
        .expect("piks");
    let paths = engine
        .explore_paths(
            &kim.seeds[0].name,
            ExploreDirection::Influences,
            Some("data mining"),
        )
        .expect("paths");
    (
        kim.seeds.iter().map(|s| s.node).collect(),
        kim.result.spread,
        sugg.words.clone(),
        paths.d3_json,
    )
}

#[test]
fn restart_reopens_from_cache_with_identical_answers() {
    use octopus::core::offline::persist::{
        STAGE_ARTIFACT_DECODE, STAGE_ARTIFACT_MAP, STAGE_ARTIFACT_STORE, STAGE_ARTIFACT_VALIDATE,
    };
    let net = small_net();
    let config = engine_config();
    let dir = std::env::temp_dir().join("octopus_e2e_citation_restart");
    std::fs::remove_dir_all(&dir).ok();

    // cold start: full build, cache written
    let first = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("cold start builds");
    let report = first.system_report();
    assert!(!report.cache_hit, "empty cache dir must miss");
    assert_eq!(
        report.stage_timings.last().map(|t| t.stage),
        Some(STAGE_ARTIFACT_STORE),
        "fresh build must persist its artifacts"
    );
    let before = probe(&first);
    drop(first);

    // restart: the whole offline phase is replaced by one load
    let second = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("restart opens");
    let report = second.system_report();
    assert!(report.cache_hit, "unchanged dataset must hit");
    let stages: Vec<&str> = report.stage_timings.iter().map(|t| t.stage).collect();
    assert_eq!(
        stages,
        vec![
            STAGE_ARTIFACT_MAP,
            STAGE_ARTIFACT_VALIDATE,
            STAGE_ARTIFACT_DECODE,
        ],
        "a hit performs zero offline stage builds"
    );
    assert_eq!(probe(&second), before, "restart must answer identically");
    drop(second);

    // a different dataset (same shape, different generator seed) must NOT
    // reuse the cache
    let other = CitationConfig {
        authors: 120,
        papers: 360,
        num_topics: 4,
        words_per_topic: 10,
        seed: 100,
        ..Default::default()
    }
    .generate();
    let perturbed = Octopus::open_or_build(other.graph, other.model, config, &dir).unwrap();
    assert!(
        !perturbed.system_report().cache_hit,
        "a changed graph must rebuild, not reuse"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_or_stale_cache_degrades_to_rebuild() {
    let net = small_net();
    let config = engine_config();
    let dir = std::env::temp_dir().join("octopus_e2e_citation_corrupt");
    std::fs::remove_dir_all(&dir).ok();

    let fresh = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("cold start builds");
    let before = probe(&fresh);
    drop(fresh);

    let cache_file = || {
        std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "octa"))
            .expect("one cache file written")
    };

    // flip a byte deep in the payload: checksum catches it, engine rebuilds
    let path = cache_file();
    let mut raw = std::fs::read(&path).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x55;
    std::fs::write(&path, &raw).unwrap();
    let engine = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("corrupt cache must not fail construction");
    assert!(
        !engine.system_report().cache_hit,
        "corrupt file must degrade to a rebuild"
    );
    assert_eq!(probe(&engine), before, "rebuild must answer identically");
    drop(engine);

    // the rebuild rewrote a clean file — now stamp a stale codec version
    let path = cache_file();
    let mut raw = std::fs::read(&path).unwrap();
    raw[4] = 0xFE;
    raw[5] = 0xFF;
    std::fs::write(&path, &raw).unwrap();
    let engine = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("stale version must not fail construction");
    assert!(
        !engine.system_report().cache_hit,
        "stale version must degrade to a rebuild"
    );
    assert_eq!(probe(&engine), before);
    drop(engine);

    // truncate mid-file (simulated torn write left behind by a crash)
    let path = cache_file();
    let raw = std::fs::read(&path).unwrap();
    std::fs::write(&path, &raw[..raw.len() / 3]).unwrap();
    let engine = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config, &dir)
        .expect("truncated cache must not fail construction");
    assert!(!engine.system_report().cache_hit);
    assert_eq!(probe(&engine), before);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_restart_reuses_unchanged_stages_with_identical_answers() {
    // the dynamic-network story: a deployed engine's graph drifts by a few
    // edges (a warm EM refit nudging weights); reopening must NOT pay a
    // full offline build — unchanged stages and untouched PIKS worlds
    // reload, only the invalidated work reruns, and the partially rebuilt
    // engine answers every probe exactly like a from-scratch build
    use octopus::graph::delta;
    let net = small_net();
    let config = engine_config();
    let dir = std::env::temp_dir().join("octopus_e2e_citation_delta");
    std::fs::remove_dir_all(&dir).ok();

    let first = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("cold start builds");
    assert!(!first.system_report().cache_hit);
    drop(first);

    // perturb k=3 edge weights, spread across the edge range
    let m = net.graph.edge_count() as u32;
    let victims: Vec<octopus::EdgeId> = [m / 7, m / 2, m - 3]
        .into_iter()
        .map(octopus::EdgeId)
        .collect();
    let perturbed = delta::nudge_weights(&net.graph, &victims, 0.05).expect("delta applies");

    let reopened =
        Octopus::open_or_build(perturbed.clone(), net.model.clone(), config.clone(), &dir)
            .expect("delta reopen");
    let report = reopened.system_report();
    assert!(!report.cache_hit, "a delta is a partial, not a full, hit");
    let reuse_of = |stage: &str| {
        report
            .stage_reuse
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing"))
            .clone()
    };
    // the trie never read the weights: full per-stage hit
    assert!(
        reuse_of("autocomplete").is_full(),
        "autocomplete must survive a weight delta: {:?}",
        report.stage_reuse
    );
    // PIKS rebuilds exactly the worlds in which a nudged edge into a
    // stored node flipped its superset coin bit (coin < max_z pp^z_e)
    let piks = reuse_of("piks-worlds");
    let seed = config.seed ^ octopus::core::offline::PIKS_WORLD_SEED_XOR;
    let index = octopus::core::piks::InfluencerIndex::build(&net.graph, piks.total, seed);
    let coins = octopus::cascade::EdgeCoins::worlds(seed, piks.total);
    let flipped = (0..piks.total)
        .filter(|&j| {
            victims.iter().any(|&e| {
                let (_, target) = net.graph.edge_endpoints(e).unwrap();
                let c = coins[j].coin(e);
                index.world_nodes(j).contains(&target.0)
                    && (c < net.graph.edge_prob_max(e) as f64)
                        != (c < perturbed.edge_prob_max(e) as f64)
            })
        })
        .count();
    assert!(flipped > 0, "the nudge must cross a coin");
    assert_eq!(
        piks.reused,
        piks.total - flipped,
        "exactly the worlds with a flipped coin rebuild: {piks:?}"
    );
    // the probability-reading stages correctly rebuilt
    assert_eq!(reuse_of("spread-cap").reused, 0);
    // the partial rebuild answers exactly like a cache-less engine
    let fresh =
        Octopus::new(perturbed.clone(), net.model.clone(), config.clone()).expect("fresh engine");
    assert_eq!(
        probe(&reopened),
        probe(&fresh),
        "delta reopen must be exact"
    );
    drop(reopened);

    // and the merged write-back makes the next identical open a full hit
    let again = Octopus::open_or_build(perturbed, net.model.clone(), config, &dir).unwrap();
    let report = again.system_report();
    assert!(report.cache_hit, "unchanged re-reopen must fully hit");
    assert!(report.stage_reuse.iter().all(|s| s.is_full()));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_em_pipeline_for_evolving_logs() {
    // dynamic-stream story: learn once, new actions arrive, refit warm
    use octopus::data::{EmOptions, TicEm};
    let net = small_net();
    let em = TicEm::new(EmOptions {
        num_topics: 4,
        max_iters: 30,
        ..Default::default()
    });
    let first = em.fit(
        &net.log,
        net.model.vocab().clone(),
        net.graph.names().to_vec(),
    );
    let refit = em.fit_warm(
        &net.log,
        net.model.vocab().clone(),
        net.graph.names().to_vec(),
        &first,
    );
    assert!(refit.iterations <= first.iterations);
    // the refit model still serves queries
    let engine = Octopus::new(refit.graph, refit.model, engine_config()).expect("builds");
    assert!(engine.find_influencers("data mining", 3).is_ok());
}
