//! One artifact shape, two backings: every engine serves one validated OCTA
//! v5 artifact, and an engine serving it off a memory-mapped cache file
//! answers **all five online operators** bit-identically to an engine
//! serving the same bytes off the heap — at 1 and at 8 worker threads,
//! under every engine flavour that exercises a distinct set of sections
//! (per-topic MIS tables, per-topic PB σ̂ tables, PIKS worlds, the trie) —
//! and the same holds for an engine whose artifact was **partially
//! rebuilt** after a topic-confined weight nudge (only the nudged topic's
//! cap/PB/MIS sub-sections recomputed).
//!
//! Spreads and scores are compared through `f64::to_bits`, names and seed
//! ranks exactly — "close enough" is not equivalence.

use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus_core::kim::BoundKind;
use octopus_core::paths::ExploreDirection;
use octopus_core::serve::OctopusService;
use octopus_graph::delta::GraphDelta;
use octopus_graph::{GraphBuilder, NodeId, TopicGraph};
use octopus_topics::{TopicModel, Vocabulary};

/// Two-topic network with named users, hub structure, and a themed
/// vocabulary — big enough that every operator has real work.
fn fixture() -> (TopicGraph, TopicModel) {
    let mut b = GraphBuilder::new(2);
    let han = b.add_node("jiawei han"); // db hub
    let jordan = b.add_node("michael jordan"); // ml hub
    for i in 0..12 {
        let v = b.add_node(format!("db-follower-{i}"));
        b.add_edge(han, v, &[(0, 0.7)]).unwrap();
        if i < 6 {
            let w = b.add_node(format!("db-fan-{i}"));
            b.add_edge(v, w, &[(0, 0.4)]).unwrap();
        }
    }
    for i in 0..9 {
        let v = b.add_node(format!("ml-follower-{i}"));
        b.add_edge(jordan, v, &[(1, 0.7)]).unwrap();
    }
    let g = b.build().unwrap();
    let mut vocab = Vocabulary::new();
    vocab.intern("data mining"); // w0 → t0
    vocab.intern("frequent patterns"); // w1 → t0
    vocab.intern("em algorithm"); // w2 → t1
    vocab.intern("graphical models"); // w3 → t1
    let model = TopicModel::from_rows(
        vocab,
        vec![vec![0.5, 0.4, 0.05, 0.05], vec![0.05, 0.05, 0.5, 0.4]],
        vec![0.5, 0.5],
    )
    .unwrap()
    .with_labels(vec!["databases".into(), "machine learning".into()])
    .unwrap();
    (g, model)
}

fn config(kim: KimEngineChoice) -> OctopusConfig {
    OctopusConfig {
        kim,
        piks_index_size: 600,
        mis_rr_per_topic: 1200,
        k_max: 4,
        seed: 0x4AB5_0C7A,
        ..Default::default()
    }
}

/// Drive all five online operators through both engines and demand
/// bit-identical answers.
fn assert_all_five_operators_identical(heap: &Octopus, mapped: &Octopus, what: &str) {
    assert!(
        !heap.is_mapped() && mapped.is_mapped(),
        "{what}: backing mix-up"
    );

    // 1. find_influencers — seeds, ranks, gamma, and spread to the bit
    for (query, k) in [("data mining", 3), ("em algorithm frequent patterns", 2)] {
        let a = heap.find_influencers(query, k).unwrap();
        let b = mapped.find_influencers(query, k).unwrap();
        assert_eq!(a.keywords, b.keywords, "{what}: {query}: keywords");
        assert_eq!(
            a.gamma
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.gamma
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{what}: {query}: gamma"
        );
        assert_eq!(
            a.seeds
                .iter()
                .map(|s| (s.node, s.name.clone(), s.rank))
                .collect::<Vec<_>>(),
            b.seeds
                .iter()
                .map(|s| (s.node, s.name.clone(), s.rank))
                .collect::<Vec<_>>(),
            "{what}: {query}: seed sets"
        );
        assert_eq!(
            a.result.spread.to_bits(),
            b.result.spread.to_bits(),
            "{what}: {query}: spread"
        );
    }

    // 2. suggest_keywords — words and PIKS spread to the bit
    for user in ["jiawei han", "michael jordan"] {
        let a = heap.suggest_keywords(user, 2).unwrap();
        let b = mapped.suggest_keywords(user, 2).unwrap();
        assert_eq!(a.user, b.user, "{what}: {user}: resolved node");
        assert_eq!(a.words, b.words, "{what}: {user}: suggested words");
        assert_eq!(
            a.result.spread.to_bits(),
            b.result.spread.to_bits(),
            "{what}: {user}: piks spread"
        );
        assert_eq!(
            a.radar
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.radar
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{what}: {user}: suggestion radar"
        );
    }

    // 3. explore_paths — whole rendered tree (captures every path weight)
    for dir in [ExploreDirection::Influences, ExploreDirection::InfluencedBy] {
        let a = heap
            .explore_paths("jiawei han", dir, Some("data mining"))
            .unwrap();
        let b = mapped
            .explore_paths("jiawei han", dir, Some("data mining"))
            .unwrap();
        assert_eq!(a.reached, b.reached, "{what}: {dir:?}: tree size");
        assert_eq!(
            a.influence.to_bits(),
            b.influence.to_bits(),
            "{what}: {dir:?}: influence mass"
        );
        assert_eq!(a.d3_json, b.d3_json, "{what}: {dir:?}: rendered tree");
    }

    // 4. autocomplete — the same trie bytes, mapped vs on the heap
    for prefix in ["db-", "ml-follower-", "j", "nobody"] {
        let a = heap.autocomplete(prefix, 5);
        let b = mapped.autocomplete(prefix, 5);
        assert_eq!(a.len(), b.len(), "{what}: {prefix}: completion count");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.0, &x.1), (y.0, &y.1), "{what}: {prefix}: completion");
            assert_eq!(
                x.2.to_bits(),
                y.2.to_bits(),
                "{what}: {prefix}: completion score"
            );
        }
    }

    // 5. keyword_radar — exact probability mass per axis
    for word in ["data mining", "graphical models"] {
        let a = heap.keyword_radar(word).unwrap();
        let b = mapped.keyword_radar(word).unwrap();
        assert_eq!(a.axes, b.axes, "{what}: {word}: radar axes");
        assert_eq!(
            a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{what}: {word}: radar values"
        );
    }
}

#[test]
fn all_five_operators_bit_identical_heap_vs_mapped_at_1_and_8_threads() {
    let (g, model) = fixture();
    // MIS exercises the mapped MIS tables; best-effort PB exercises the
    // mapped σ̂ tables; both exercise PIKS worlds, the trie, and samples
    for kim in [
        KimEngineChoice::Mis,
        KimEngineChoice::BestEffort(BoundKind::Precomputation),
    ] {
        let cfg = config(kim);
        let dir = std::env::temp_dir().join(format!(
            "octopus_mapped_mode_{}",
            match kim {
                KimEngineChoice::Mis => "mis",
                _ => "pb",
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let what = format!("{kim:?} @ {threads} thread(s)");
            let (heap, mapped) = pool.install(|| {
                // the heap-backed open writes the artifact on the first
                // (1-thread) pass and serves the read file's bytes on the
                // second — either way the mapped engine then serves the
                // byte-identical file
                let heap =
                    Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
                let mapped =
                    Octopus::open_mapped(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
                (heap, mapped)
            });
            assert!(
                mapped.cache_hit(),
                "{what}: the mapped open must hit the just-written artifact"
            );
            pool.install(|| assert_all_five_operators_identical(&heap, &mapped, &what));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance path for per-topic invalidation: nudge one topic-0-only
/// edge, reopen the cached epoch so exactly topic 0's cap/MIS units rebuild
/// (topic 1's are reused from the v5 sub-sections), and demand the
/// partially rebuilt engine — on the heap *and* mapped off the re-persisted
/// file — answers all five operators bit-identically to a from-scratch
/// build, at 1 and at 8 worker threads.
#[test]
fn topic_confined_nudge_partial_rebuild_is_bit_identical_heap_and_mapped() {
    let (g, model) = fixture();
    let cfg = config(KimEngineChoice::Mis);
    // han → db-follower-0 carries only a topic-0 entry
    let victim = g.find_edge(NodeId(0), NodeId(2)).unwrap();
    let shape = GraphDelta::NudgeWeights {
        edges: vec![victim],
        delta: 0.07,
    };
    let touched = shape.touched_topics(&g).unwrap();
    assert_eq!(
        touched.iter().copied().collect::<Vec<_>>(),
        vec![0],
        "the fixture edge must be topic-0-confined"
    );
    let nudged = shape.apply(&g).unwrap();

    for threads in [1usize, 8] {
        let dir = std::env::temp_dir().join(format!("octopus_mapped_topic_nudge_{threads}"));
        std::fs::remove_dir_all(&dir).ok();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let what = format!("topic nudge @ {threads} thread(s)");
        let (partial, mapped, fresh) = pool.install(|| {
            let base = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
            assert!(!base.cache_hit(), "{what}: cold start builds");
            let partial =
                Octopus::open_or_build(nudged.clone(), model.clone(), cfg.clone(), &dir).unwrap();
            let mapped =
                Octopus::open_mapped(nudged.clone(), model.clone(), cfg.clone(), &dir).unwrap();
            let fresh = Octopus::new(nudged.clone(), model.clone(), cfg.clone()).unwrap();
            (partial, mapped, fresh)
        });

        // the reopen was a partial rebuild: exactly topic 0's weight-stage
        // units recomputed, topic 1's came off the donor epoch
        let report = partial.system_report();
        assert!(!report.cache_hit, "{what}: a nudge is never a full hit");
        for stage in ["spread-cap", "mis-tables"] {
            let s = report
                .stage_reuse
                .iter()
                .find(|s| s.stage == stage)
                .unwrap_or_else(|| panic!("{what}: stage {stage} missing"));
            assert_eq!(
                (s.reused, s.total),
                (1, 2),
                "{what}: {stage} must reuse exactly the untouched topic: {s:?}"
            );
        }

        assert!(mapped.cache_hit(), "{what}: mapped open hits the new epoch");
        pool.install(|| {
            assert_all_five_operators_identical(&partial, &mapped, &what);
            assert_all_five_operators_identical(&fresh, &mapped, &format!("{what} (fresh)"));
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn paranoid_mapped_open_answers_identically_too() {
    let (g, model) = fixture();
    let cfg = config(KimEngineChoice::Mis);
    let dir = std::env::temp_dir().join("octopus_mapped_mode_paranoid");
    std::fs::remove_dir_all(&dir).ok();
    let heap = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    let mapped = Octopus::open_mapped_paranoid(g, model, cfg, &dir).unwrap();
    assert!(mapped.is_mapped() && mapped.cache_hit());
    assert_all_five_operators_identical(&heap, &mapped, "paranoid");
    std::fs::remove_dir_all(&dir).ok();
}

/// `Octopus::artifacts()` serves the one artifact shape whatever built the
/// engine — `new`, `open_or_build` (miss and hit), `open_mapped`, and the
/// engine a service swaps in after a flush — and every one of them holds
/// the same section payloads for the same inputs.
#[test]
fn artifacts_are_one_shape_on_every_constructor_and_after_a_swap() {
    let (g, model) = fixture();
    let cfg = config(KimEngineChoice::BestEffort(BoundKind::Precomputation));
    let dir = std::env::temp_dir().join("octopus_mapped_mode_artifacts");
    std::fs::remove_dir_all(&dir).ok();
    let open = |g: &TopicGraph| Octopus::new(g.clone(), model.clone(), cfg.clone()).unwrap();
    let fresh = open(&g);
    let built = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    let reread = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    let mapped = Octopus::open_mapped(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    assert!(!built.cache_hit() && reread.cache_hit() && mapped.cache_hit());
    let payloads = |e: &Octopus| -> Vec<(u32, Vec<u8>)> {
        let art = e.artifacts();
        assert!(art.piks_view().is_ok() && art.pb_view().unwrap().is_some());
        assert_eq!(art.piks_len(), e.system_report().piks_worlds);
        assert_eq!(art.is_mapped(), e.is_mapped());
        art.payloads().map(|(tag, p)| (tag, p.to_vec())).collect()
    };
    let want = payloads(&fresh);
    for (engine, what) in [(&built, "built"), (&reread, "reread"), (&mapped, "mapped")] {
        assert!(payloads(engine) == want, "{what}: payloads differ from new");
    }
    assert!(mapped.is_mapped() && !built.is_mapped() && !reread.is_mapped());

    let service = OctopusService::with_mapped_cache(mapped, &dir);
    let nudge = GraphDelta::NudgeWeights {
        edges: vec![g.find_edge(NodeId(0), NodeId(2)).unwrap()],
        delta: 0.07,
    };
    let nudged = nudge.apply(&g).unwrap();
    service.submit(nudge);
    service.apply_pending().unwrap().expect("one pending delta");
    let swapped = service.snapshot();
    assert!(swapped.engine().is_mapped(), "the flush remaps");
    assert!(payloads(swapped.engine()) == payloads(&open(&nudged)));
    std::fs::remove_dir_all(&dir).ok();
}
