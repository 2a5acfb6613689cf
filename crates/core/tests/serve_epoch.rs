//! Epoch-swap correctness of the serving layer (`octopus_core::serve`).
//!
//! The contract under test: readers racing a swap observe exactly the old
//! or the new epoch (never a blend, never an error), every epoch answers
//! bit-identically to a fresh engine built from that epoch's graph, a
//! coalesced delta batch is equivalent to applying its deltas one by one,
//! and a failing batch leaves the old epoch serving. CI runs this suite
//! at `RAYON_NUM_THREADS` 1 and 8 and repeats it in the serving soak job,
//! mirroring the executor flakiness sweep.

use octopus_core::engine::{KimAnswer, KimEngineChoice, Octopus, OctopusConfig, SuggestAnswer};
use octopus_core::offline::persist::{
    self, section_order, Fingerprint, SECTION_PIKS, STAGE_ARTIFACT_STORE, STAGE_LIVE_SCREEN,
};
use octopus_core::paths::{ExploreDirection, PathExploration};
use octopus_core::serve::{
    OctopusService, Operator, Query, QueryResponse, Served, Session, STAGE_DELTA_APPLY,
    STAGE_GRAPH_KEYS,
};
use octopus_core::{QueryBudget, Result};
use octopus_graph::codec::GraphKeys;
use octopus_graph::delta::GraphDelta;
use octopus_graph::{EdgeId, GraphBuilder, NodeId, TopicGraph};
use octopus_topics::{TopicModel, Vocabulary};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

/// Small two-topic network, cheap enough to rebuild several times per
/// test: two hubs with followers plus a few cross links so nudges and
/// removals have something to bite on.
fn fixture() -> (TopicGraph, TopicModel, OctopusConfig) {
    let mut b = GraphBuilder::new(2);
    let han = b.add_node("jiawei han");
    let jordan = b.add_node("michael jordan");
    for i in 0..5 {
        let v = b.add_node(format!("db-follower-{i}"));
        b.add_edge(han, v, &[(0, 0.7)]).unwrap();
    }
    for i in 0..4 {
        let v = b.add_node(format!("ml-follower-{i}"));
        b.add_edge(jordan, v, &[(1, 0.7)]).unwrap();
    }
    b.add_edge(han, jordan, &[(0, 0.3), (1, 0.1)]).unwrap();
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
    let config = OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 96,
        mis_rr_per_topic: 400,
        k_max: 3,
        ..Default::default()
    };
    (g, model, config)
}

/// The bitwise signature of one engine's answers to a fixed probe set —
/// two engines with equal signatures answered every probe identically.
#[derive(Debug, Clone, PartialEq)]
struct ProbeSignature {
    seeds: Vec<NodeId>,
    spread: f64,
    suggest_words: Vec<String>,
    suggest_spread: f64,
    completions: Vec<(NodeId, String, f64)>,
    path_reached: usize,
}

fn probe(engine: &Octopus) -> ProbeSignature {
    let kim = engine.find_influencers("data mining", 2).unwrap();
    let sugg = engine.suggest_keywords("jiawei han", 2).unwrap();
    let paths = engine
        .explore_paths(
            "jiawei han",
            ExploreDirection::Influences,
            Some("data mining"),
        )
        .unwrap();
    ProbeSignature {
        seeds: kim.seeds.iter().map(|s| s.node).collect(),
        spread: kim.result.spread,
        suggest_words: sugg.words,
        suggest_spread: sugg.result.spread,
        completions: engine.autocomplete("db-", 10),
        path_reached: paths.reached,
    }
}

fn run(session: &mut Session<'_>, query: Query) -> Result<Served<QueryResponse>> {
    session.execute(&query, &QueryBudget::unlimited())
}

fn find(session: &mut Session<'_>, query: &str, k: usize) -> Result<Served<KimAnswer>> {
    let query = Query::FindInfluencers {
        query: query.into(),
        k,
    };
    Ok(run(session, query)?.map(|r| r.into_influencers().unwrap().value))
}

fn suggest(session: &mut Session<'_>, user: &str, k: usize) -> Result<Served<SuggestAnswer>> {
    let query = Query::SuggestKeywords {
        user: user.into(),
        k,
    };
    Ok(run(session, query)?.map(|r| r.into_suggestions().unwrap().value))
}

fn explore(session: &mut Session<'_>, user: &str, query: &str) -> Served<PathExploration> {
    let query = Query::ExplorePaths {
        user: user.into(),
        direction: ExploreDirection::Influences,
        query: Some(query.into()),
    };
    run(session, query)
        .unwrap()
        .map(|r| r.into_paths().unwrap().value)
}

fn complete(
    session: &mut Session<'_>,
    prefix: &str,
    limit: usize,
) -> Served<Vec<(NodeId, String, f64)>> {
    let query = Query::Autocomplete {
        prefix: prefix.into(),
        limit,
    };
    run(session, query)
        .expect("autocomplete is infallible")
        .map(|r| r.into_completions().unwrap().value)
}

/// Probe through a serve session, also returning the epochs that served.
fn probe_session(service: &OctopusService) -> (ProbeSignature, Vec<u64>) {
    let mut session = service.session();
    let session = &mut session;
    let kim = find(session, "data mining", 2).unwrap();
    let sugg = suggest(session, "jiawei han", 2).unwrap();
    let paths = explore(session, "jiawei han", "data mining");
    let comp = complete(session, "db-", 10);
    let epochs = vec![kim.epoch, sugg.epoch, paths.epoch, comp.epoch];
    (
        ProbeSignature {
            seeds: kim.value.seeds.iter().map(|s| s.node).collect(),
            spread: kim.value.result.spread,
            suggest_words: sugg.value.words,
            suggest_spread: sugg.value.result.spread,
            completions: comp.value,
            path_reached: paths.value.reached,
        },
        epochs,
    )
}

#[test]
fn epoch_zero_matches_a_fresh_engine() {
    let (g, model, config) = fixture();
    let fresh = Octopus::new(g.clone(), model.clone(), config.clone()).unwrap();
    let service = OctopusService::new(Octopus::new(g, model, config).unwrap());
    let (sig, epochs) = probe_session(&service);
    assert_eq!(sig, probe(&fresh));
    assert!(epochs.iter().all(|&e| e == 0), "all served by epoch 0");
    let stats = service.stats();
    assert_eq!(stats.current_epoch(), 0);
    assert_eq!(stats.epochs_swapped, 0);
    assert_eq!(stats.queries_served, 4);
}

#[test]
fn swapped_epochs_answer_bit_identically_to_fresh_engines() {
    let (g0, model, config) = fixture();
    let service =
        OctopusService::new(Octopus::new(g0.clone(), model.clone(), config.clone()).unwrap());

    // pre-swap answers match a fresh engine on g0
    let (before, _) = probe_session(&service);
    assert_eq!(
        before,
        probe(&Octopus::new(g0.clone(), model.clone(), config.clone()).unwrap())
    );

    // swap: nudge two edges and rename a follower
    let batch = vec![
        GraphDelta::NudgeWeights {
            edges: vec![EdgeId(0), EdgeId(3)],
            delta: 0.1,
        },
        GraphDelta::RenameNode {
            node: NodeId(2),
            name: "db-star".into(),
        },
    ];
    service.submit_all(batch.clone());
    let report = service.apply_pending().unwrap().expect("batch was pending");
    assert_eq!(report.epoch, 1);
    assert_eq!(report.deltas_applied, 2);

    // post-swap answers match a fresh engine on the delta'd graph
    let g1 = octopus_graph::delta::apply_all(&g0, &batch).unwrap();
    let fresh1 = Octopus::new(g1, model, config).unwrap();
    let (after, epochs) = probe_session(&service);
    assert_eq!(after, probe(&fresh1));
    assert!(epochs.iter().all(|&e| e == 1), "all served by epoch 1");
    // the rename is visible through the swapped trie
    assert!(complete(&mut service.session(), "db-star", 1)
        .value
        .iter()
        .any(|(_, name, _)| name == "db-star"));
    assert_eq!(service.stats().epochs_swapped, 1);
}

#[test]
fn coalesced_batch_is_equivalent_to_one_by_one_application() {
    let (g, model, config) = fixture();
    let batch = vec![
        GraphDelta::NudgeWeights {
            edges: vec![EdgeId(1)],
            delta: 0.05,
        },
        GraphDelta::InsertEdge {
            src: NodeId(3),
            dst: NodeId(7),
            probs: vec![(0, 0.4)],
        },
        GraphDelta::RenameNode {
            node: NodeId(4),
            name: "renamed-follower".into(),
        },
    ];

    let coalesced =
        OctopusService::new(Octopus::new(g.clone(), model.clone(), config.clone()).unwrap());
    coalesced.submit_all(batch.clone());
    coalesced.apply_pending().unwrap().expect("pending batch");

    let one_by_one = OctopusService::new(Octopus::new(g, model, config).unwrap());
    for d in batch {
        one_by_one.submit(d);
        one_by_one.apply_pending().unwrap().expect("pending delta");
    }

    // one swap vs three, identical final graphs and answers
    assert_eq!(coalesced.stats().epochs_swapped, 1);
    assert_eq!(one_by_one.stats().epochs_swapped, 3);
    assert_eq!(coalesced.stats().deltas_applied, 3);
    assert_eq!(one_by_one.stats().deltas_applied, 3);
    assert_eq!(
        coalesced.snapshot().engine().graph(),
        one_by_one.snapshot().engine().graph()
    );
    assert_eq!(probe_session(&coalesced).0, probe_session(&one_by_one).0);
}

#[test]
fn failed_batch_keeps_the_old_epoch_serving() {
    let (g, model, config) = fixture();
    let service = OctopusService::new(Octopus::new(g, model, config).unwrap());
    let (before, _) = probe_session(&service);

    service.submit_all(vec![
        GraphDelta::RenameNode {
            node: NodeId(2),
            name: "would-have-applied".into(),
        },
        GraphDelta::RemoveEdge { edge: EdgeId(9999) },
    ]);
    assert!(service.apply_pending().is_err(), "bad batch must fail");

    let stats = service.stats();
    assert_eq!(stats.current_epoch(), 0, "old epoch keeps serving");
    assert_eq!(stats.epochs_swapped, 0);
    assert_eq!(stats.batches_failed, 1);
    assert_eq!(
        stats.pending_deltas, 2,
        "the failed batch is re-queued for retry, not lost"
    );
    // answers unchanged — the partial rename never leaked
    assert_eq!(probe_session(&service).0, before);

    // a deterministically bad batch fails every retry and is dropped
    // after MAX_BATCH_RETRIES consecutive attempts, surfacing as a
    // terminal failure — it never wedges the queue head forever
    for attempt in 2..=octopus_core::serve::MAX_BATCH_RETRIES {
        assert!(
            service.apply_pending().is_err(),
            "retry {attempt} must fail too"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.batches_failed, octopus_core::serve::MAX_BATCH_RETRIES);
    assert_eq!(stats.terminal_failures, 1, "the batch was dropped for good");
    assert_eq!(stats.pending_deltas, 0);

    // and the service still accepts good batches afterwards
    service.submit(GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    });
    assert!(service.apply_pending().unwrap().is_some());
    assert_eq!(service.stats().current_epoch(), 1);
}

#[test]
fn transiently_failing_batch_is_eventually_applied() {
    let (g, model, config) = fixture();
    let service =
        OctopusService::new(Octopus::new(g.clone(), model.clone(), config.clone()).unwrap());
    let batch = vec![GraphDelta::RenameNode {
        node: NodeId(2),
        name: "survived-the-outage".into(),
    }];
    service.submit_all(batch.clone());

    // two transient rebuild failures (an unwritable cache volume, say):
    // each failed flush re-queues the batch at the front
    service.fail_next_rebuilds(2);
    for attempt in 1..=2 {
        assert!(service.apply_pending().is_err(), "attempt {attempt} fails");
        let stats = service.stats();
        assert_eq!(stats.pending_deltas, 1, "the batch stays queued");
        assert_eq!(stats.terminal_failures, 0);
        assert_eq!(stats.current_epoch(), 0);
    }

    // deltas submitted during the outage queue BEHIND the re-queued
    // batch, preserving submission order
    service.submit(GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    });

    // the outage ends: the third attempt applies the whole queue
    let report = service.apply_pending().unwrap().expect("pending deltas");
    assert_eq!(report.deltas_applied, 2, "retried batch + later delta");
    let stats = service.stats();
    assert_eq!(stats.current_epoch(), 1);
    assert_eq!(stats.batches_failed, 2);
    assert_eq!(stats.terminal_failures, 0);
    assert_eq!(stats.deltas_applied, 2);
    assert_eq!(stats.pending_deltas, 0);

    // the transiently failing batch really landed — and the final graph
    // is exactly base + rename + nudge
    assert!(complete(&mut service.session(), "survived", 1)
        .value
        .iter()
        .any(|(_, name, _)| name == "survived-the-outage"));
    let expected = octopus_graph::delta::apply_all(
        &g,
        &[
            batch[0].clone(),
            GraphDelta::NudgeWeights {
                edges: vec![EdgeId(0)],
                delta: 0.05,
            },
        ],
    )
    .unwrap();
    assert_eq!(service.snapshot().engine().graph(), &expected);
}

#[test]
fn flush_with_empty_queue_is_a_no_op() {
    let (g, model, config) = fixture();
    let service = OctopusService::new(Octopus::new(g, model, config).unwrap());
    assert!(service.apply_pending().unwrap().is_none());
    assert_eq!(service.stats().epochs_swapped, 0);
}

#[test]
fn rebuild_through_cache_dir_reuses_unaffected_stages() {
    let (g, model, config) = fixture();
    let dir = std::env::temp_dir().join(format!("octopus-serve-reuse-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // epoch 0 built through the cache so its artifacts are on disk
    let engine = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
    let service = OctopusService::with_cache_dir(engine, &dir);

    // a rename invalidates only the name-reading stages
    service.submit(GraphDelta::RenameNode {
        node: NodeId(0),
        name: "renamed-hub".into(),
    });
    let report = service.apply_pending().unwrap().expect("pending delta");
    // the flush says where its time went: one screen of the live epoch
    // (no directory lookup), the one stage the rename invalidated, and
    // the write-back that persists the epoch for restarts
    let stages: Vec<&str> = report.stage_timings.iter().map(|t| t.stage).collect();
    assert_eq!(
        stages,
        vec![
            STAGE_LIVE_SCREEN,
            "autocomplete",
            STAGE_ARTIFACT_STORE,
            STAGE_DELTA_APPLY,
            STAGE_GRAPH_KEYS
        ]
    );
    let reused: Vec<&str> = report
        .stage_reuse
        .iter()
        .filter(|s| s.is_full())
        .map(|s| s.stage)
        .collect();
    for stage in ["spread-cap", "mis-tables", "piks-worlds"] {
        assert!(
            reused.contains(&stage),
            "a rename must not rebuild {stage}: reused {reused:?}"
        );
    }
    assert!(
        !reused.contains(&"autocomplete"),
        "the trie reads names and must rebuild"
    );
    // the incrementally rebuilt epoch still answers like a fresh engine
    let g1 = octopus_graph::delta::apply_all(
        &g,
        &[GraphDelta::RenameNode {
            node: NodeId(0),
            name: "renamed-hub".into(),
        }],
    )
    .unwrap();
    let fresh = Octopus::new(g1.clone(), model.clone(), config.clone()).unwrap();
    let a = find(&mut service.session(), "data mining", 2).unwrap();
    let b = fresh.find_influencers("data mining", 2).unwrap();
    assert_eq!(
        a.value.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
        b.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
    );
    assert_eq!(a.value.result.spread, b.result.spread);

    // a topic-1-confined nudge (jordan → ml-follower-0 carries only a
    // topic-1 entry): the swap report's weight stages show the per-topic
    // split — topic 0's cap/MIS units reused, topic 1's rebuilt
    let nudge = GraphDelta::NudgeWeights {
        edges: vec![g1.find_edge(NodeId(1), NodeId(7)).unwrap()],
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
    service.submit(nudge.clone());
    let report = service.apply_pending().unwrap().expect("pending nudge");
    for stage in ["spread-cap", "mis-tables"] {
        let s = report
            .stage_reuse
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from swap report"));
        assert_eq!(
            (s.reused, s.total),
            (1, 2),
            "a topic-confined nudge must reuse the untouched topic's {stage} unit: {s:?}"
        );
    }
    assert!(
        report
            .stage_reuse
            .iter()
            .any(|s| s.stage == "autocomplete" && s.is_full()),
        "a nudge never rebuilds the trie"
    );
    // and the per-topic partial rebuild still answers like a fresh engine
    let g2 = nudge.apply(&g1).unwrap();
    let fresh = Octopus::new(g2, model, config).unwrap();
    let a = find(&mut service.session(), "em algorithm", 2).unwrap();
    let b = fresh.find_influencers("em algorithm", 2).unwrap();
    assert_eq!(
        a.value.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
        b.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
    );
    assert_eq!(a.value.result.spread, b.result.spread);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn user_keyword_overrides_survive_the_swap() {
    let (g, model, config) = fixture();
    let mut map = std::collections::HashMap::new();
    map.insert(NodeId(0), vec![octopus_topics::KeywordId(1)]);
    let engine = Octopus::new(g, model, config)
        .unwrap()
        .with_user_keywords(map);
    let service = OctopusService::new(engine);
    let before = suggest(&mut service.session(), "jiawei han", 1).unwrap();
    assert_eq!(before.value.words, vec!["frequent patterns"]);

    service.submit(GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    });
    service.apply_pending().unwrap().expect("pending delta");
    let after = suggest(&mut service.session(), "jiawei han", 1).unwrap();
    assert_eq!(
        after.value.words,
        vec!["frequent patterns"],
        "the override must ride along onto epoch 1"
    );
    assert_eq!(after.epoch, 1);
}

/// The heart of the serving contract: concurrent readers racing epoch
/// swaps observe exactly an old-or-new epoch — every answer matches the
/// reference engine for the epoch id it was stamped with, and no query
/// errors or blocks past the test's own runtime.
#[test]
fn readers_racing_swaps_observe_exactly_old_or_new() {
    const SWAPS: usize = 3;
    const READERS: usize = 4;
    let (g0, model, config) = fixture();

    // the swap sequence and per-epoch reference signatures, precomputed
    let deltas: Vec<GraphDelta> = (0..SWAPS)
        .map(|i| GraphDelta::NudgeWeights {
            edges: vec![EdgeId(i as u32)],
            delta: 0.1,
        })
        .collect();
    let mut graphs = vec![g0.clone()];
    for d in &deltas {
        graphs.push(d.apply(graphs.last().unwrap()).unwrap());
    }
    let references: Vec<ProbeSignature> = graphs
        .iter()
        .map(|g| probe(&Octopus::new(g.clone(), model.clone(), config.clone()).unwrap()))
        .collect();

    let service = OctopusService::new(Octopus::new(g0, model, config).unwrap());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(s.spawn(|| {
                let mut session = service.session();
                let mut checked = 0u64;
                while !done.load(SeqCst) || checked == 0 {
                    let kim = find(&mut session, "data mining", 2).unwrap();
                    let reference = &references[kim.epoch as usize];
                    assert_eq!(
                        kim.value.seeds.iter().map(|x| x.node).collect::<Vec<_>>(),
                        reference.seeds,
                        "epoch {} must answer exactly like its fresh engine",
                        kim.epoch
                    );
                    assert_eq!(kim.value.result.spread, reference.spread);
                    let comp = complete(&mut session, "db-", 10);
                    assert_eq!(
                        comp.value, references[comp.epoch as usize].completions,
                        "epoch {} trie must be the epoch's own",
                        comp.epoch
                    );
                    checked += 1;
                }
                checked
            }));
        }
        for d in &deltas {
            // let readers land some queries on the current epoch first
            std::thread::sleep(Duration::from_millis(20));
            service.submit(d.clone());
            service.apply_pending().unwrap().expect("pending delta");
        }
        done.store(true, SeqCst);
        let mut total = 0u64;
        for r in readers {
            total += r.join().expect("no reader may panic or error");
        }
        assert!(total > 0);
    });
    let stats = service.stats();
    assert_eq!(stats.epochs_swapped, SWAPS as u64);
    assert_eq!(stats.current_epoch(), SWAPS as u64);
    assert_eq!(stats.batches_failed, 0);
}

#[test]
fn background_rebuilder_applies_submitted_deltas() {
    let (g, model, config) = fixture();
    let service = Arc::new(OctopusService::new(Octopus::new(g, model, config).unwrap()));
    let rebuilder = service.spawn_rebuilder(Duration::from_millis(5));
    service.submit(GraphDelta::RenameNode {
        node: NodeId(2),
        name: "flushed-in-background".into(),
    });
    // poll until the swap lands (bounded)
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while service.current_epoch() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "background rebuilder never flushed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    rebuilder.stop();
    assert_eq!(service.current_epoch(), 1);
    assert!(complete(&mut service.session(), "flushed", 1)
        .value
        .iter()
        .any(|(_, name, _)| name == "flushed-in-background"));
}

#[test]
fn session_stats_track_operators_epochs_and_errors() {
    let (g, model, config) = fixture();
    let service = OctopusService::new(Octopus::new(g, model, config).unwrap());
    let mut session = service.session();
    find(&mut session, "data mining", 2).unwrap();
    assert!(find(&mut session, "quantum blockchain", 2).is_err());
    complete(&mut session, "db-", 3);
    let radar = Query::KeywordRadar {
        word: "em algorithm".into(),
    };
    assert!(run(&mut session, radar).is_ok());

    service.submit(GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    });
    service.apply_pending().unwrap().expect("pending delta");
    find(&mut session, "data mining", 2).unwrap();

    let stats = session.stats();
    assert_eq!(stats.op(Operator::FindInfluencers).queries, 3);
    assert_eq!(stats.op(Operator::FindInfluencers).errors, 1);
    assert_eq!(stats.op(Operator::Autocomplete).queries, 1);
    assert_eq!(stats.op(Operator::KeywordRadar).errors, 0);
    assert_eq!(stats.op(Operator::SuggestKeywords).queries, 0);
    assert_eq!(stats.total_queries(), 5);
    assert_eq!(stats.total_errors(), 1);
    assert_eq!(
        stats.epochs_seen,
        Some((0, 1)),
        "the session spanned the swap"
    );
    assert!(stats.op(Operator::FindInfluencers).total_latency > Duration::ZERO);
    // pinned snapshots freeze an epoch regardless of later swaps
    let pin = session.pin();
    service.submit(GraphDelta::NudgeWeights {
        edges: vec![EdgeId(1)],
        delta: 0.05,
    });
    service.apply_pending().unwrap().expect("pending delta");
    assert_eq!(pin.id(), 1, "pin keeps the pre-swap epoch");
    assert_eq!(service.current_epoch(), 2);
    let _ = pin.engine().find_influencers("data mining", 2).unwrap();
    // queries issued while pinned run on (and are stamped from) the pin
    let pinned = find(&mut session, "data mining", 2).unwrap();
    assert_eq!(pinned.epoch, 1, "stamp comes from the snapshot queried");
    session.unpin();
    let live = find(&mut session, "data mining", 2).unwrap();
    assert_eq!(live.epoch, 2, "unpin resumes the current epoch");
}

/// Regression test for the pin/stamp race: the `Served::epoch` stamp must
/// come from the snapshot that actually answered the query, never from
/// the service's moved-on epoch counter. A pinned session racing a swap
/// storm must keep answering from — and stamping — the pinned epoch.
#[test]
fn pinned_session_stamps_the_snapshot_actually_queried() {
    let (g, model, config) = fixture();
    let reference = probe(&Octopus::new(g.clone(), model.clone(), config.clone()).unwrap());
    let service = OctopusService::new(Octopus::new(g, model, config).unwrap());
    let mut session = service.session();
    let pin = session.pin();
    assert_eq!(pin.id(), 0);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut swaps = 0u32;
            while !done.load(SeqCst) {
                service.submit(GraphDelta::NudgeWeights {
                    edges: vec![EdgeId(swaps % 5)],
                    delta: 0.01,
                });
                service.apply_pending().unwrap().expect("pending delta");
                swaps += 1;
            }
            swaps
        });
        // keep reading until at least one swap has really landed under
        // the pin — a fixed round count can outrun the writer's first
        // rebuild and leave nothing racing
        let mut rounds = 0;
        while rounds < 4 || service.current_epoch() == 0 {
            let kim = find(&mut session, "data mining", 2).unwrap();
            assert_eq!(kim.epoch, 0, "pinned query must stamp the pinned epoch");
            assert_eq!(
                kim.value.seeds.iter().map(|x| x.node).collect::<Vec<_>>(),
                reference.seeds,
                "pinned answers come from the pinned engine, not a swapped one"
            );
            assert_eq!(kim.value.result.spread, reference.spread);
            let comp = complete(&mut session, "db-", 10);
            assert_eq!(comp.epoch, 0);
            assert_eq!(comp.value, reference.completions);
            rounds += 1;
        }
        done.store(true, SeqCst);
        let swaps = writer.join().expect("writer must not panic");
        assert!(swaps > 0, "at least one swap raced the pinned reads");
    });

    // releasing the pin resumes the live epoch
    session.unpin();
    let live = complete(&mut session, "db-", 10);
    assert_eq!(live.epoch, service.current_epoch());
    assert!(
        live.epoch > 0,
        "swaps really happened during the pin window"
    );
    let stats = session.stats();
    assert_eq!(
        stats.epochs_seen.map(|(first, _)| first),
        Some(0),
        "every pinned query was recorded against epoch 0"
    );
}

#[test]
fn mapped_service_swaps_remap_and_answer_like_fresh_engines() {
    let (g, model, config) = fixture();
    let dir = std::env::temp_dir().join(format!("octopus-serve-mapped-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // epoch 0 itself opens mapped (cold: build + write + remap)
    let engine = Octopus::open_mapped(g.clone(), model.clone(), config.clone(), &dir).unwrap();
    assert!(engine.is_mapped());
    let service = OctopusService::with_mapped_cache(engine, &dir);

    let deltas = vec![
        GraphDelta::NudgeWeights {
            edges: vec![EdgeId(0), EdgeId(3)],
            delta: 0.05,
        },
        GraphDelta::RenameNode {
            node: NodeId(1),
            name: "m. i. jordan".into(),
        },
    ];
    service.submit_all(deltas.clone());
    let report = service.apply_pending().unwrap().expect("pending deltas");
    assert_eq!(report.epoch, 1);
    // the flush wrote the new epoch's artifact and remapped it: the
    // serving engine is in mapped mode, and the weight-blind stages were
    // reused rather than rebuilt
    let snap = service.snapshot();
    assert!(
        snap.engine().is_mapped(),
        "a mapped service must swap in mapped engines"
    );
    assert!(report
        .stage_reuse
        .iter()
        .any(|s| s.stage == "spread-cap" || s.is_full()));

    // the remapped epoch answers bit-identically to a fresh owned engine
    // of the post-delta graph
    let g1 = octopus_graph::delta::apply_all(&g, &deltas).unwrap();
    let fresh = Octopus::new(g1, model, config).unwrap();
    let (served, epochs) = probe_session(&service);
    let reference = probe(&fresh);
    assert_eq!(served, reference, "mapped epoch 1 must answer like fresh");
    assert!(epochs.iter().all(|&e| e == 1));

    // the previous epoch's file may be pruned once nothing maps it, but
    // the *current* epoch's backing file must survive any prune
    let stats = service.stats();
    assert_eq!(stats.epochs_swapped, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A live donor fails closed: a mapped epoch whose PIKS section is damaged
/// (caught by no open-time check — the open is lazy) donates no world to
/// the flush that replaces it, however untouched by queries, and the new
/// epoch still answers like a fresh engine.
#[test]
fn damaged_live_piks_section_donates_nothing() {
    let (g, model, config) = fixture();
    let dir = std::env::temp_dir().join(format!("octopus-serve-damaged-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    drop(Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap());

    // flip the low byte of world 0's root id: framing parses, the
    // section checksum does not
    let path = Fingerprint::compute(&g, &config).cache_path(&dir);
    let mut raw = std::fs::read(&path).unwrap();
    let u64_at = |raw: &[u8], at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
    let i = section_order(g.num_topics())
        .iter()
        .position(|&tag| tag == SECTION_PIKS)
        .unwrap();
    let off = u64_at(&raw, 48 + 40 * i + 16) as usize; // header 48 B, entries 40 B
                                                       // the v8 world table follows n | R | topology | m and the padded
                                                       // m × f32 maxima column
    let m = u64_at(&raw, off + 24) as usize;
    let world0 = u64_at(&raw, off + 32 + (4 * m).div_ceil(8) * 8) as usize;
    raw[off + world0 + 40] ^= 0x01;
    std::fs::write(&path, &raw).unwrap();

    let engine = Octopus::open_mapped(g.clone(), model.clone(), config.clone(), &dir)
        .expect("the lazy open never checksums PIKS");
    assert!(engine.is_mapped() && engine.cache_hit());
    let service = OctopusService::with_mapped_cache(engine, &dir);
    let nudge = GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    };
    service.submit(nudge.clone());
    let report = service.apply_pending().unwrap().expect("pending nudge");
    let piks = report
        .stage_reuse
        .iter()
        .find(|s| s.stage == "piks-worlds")
        .unwrap();
    assert_eq!(
        piks.reused, 0,
        "a damaged section donates nothing: {piks:?}"
    );
    assert!(
        report.stage_reuse.iter().any(|s| s.reused > 0),
        "the intact sections still donate"
    );
    let fresh = Octopus::new(nudge.apply(&g).unwrap(), model, config).unwrap();
    assert_eq!(probe_session(&service).0, probe(&fresh));
    std::fs::remove_dir_all(&dir).ok();
}

/// A service without a cache directory still rebuilds incrementally: the
/// epoch it replaces is the donor.
#[test]
fn cache_less_service_reuses_the_live_epoch() {
    let (g, model, config) = fixture();
    let service = OctopusService::new(Octopus::new(g, model, config).unwrap());
    service.submit(GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    });
    let report = service.apply_pending().unwrap().expect("pending nudge");
    for stage in ["piks-worlds", "autocomplete"] {
        let s = report
            .stage_reuse
            .iter()
            .find(|s| s.stage == stage)
            .unwrap();
        assert!(s.reused > 0, "{s:?}");
    }
    assert_eq!(report.stage_timings[0].stage, STAGE_LIVE_SCREEN);
}

/// Mapped replicas sharing a directory converge on one file: the first to
/// flush a batch rebuilds and writes the new epoch, the second maps that
/// file instead of rebuilding (a full hit, no live screen), so both serve
/// the same page-cache-resident bytes — and both answer like fresh.
#[test]
fn mapped_replicas_flushing_one_batch_share_the_written_file() {
    let (g, model, config) = fixture();
    let dir = std::env::temp_dir().join(format!("octopus-serve-replicas-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let replica = || {
        let engine = Octopus::open_mapped(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        OctopusService::with_mapped_cache(engine, &dir)
    };
    let (first, second) = (replica(), replica());
    let nudge = GraphDelta::NudgeWeights {
        edges: vec![EdgeId(0)],
        delta: 0.05,
    };
    first.submit(nudge.clone());
    let built = first.apply_pending().unwrap().expect("pending nudge");
    assert!(!built.cache_hit);
    assert_eq!(built.stage_timings[0].stage, STAGE_LIVE_SCREEN);
    second.submit(nudge.clone());
    let mapped = second.apply_pending().unwrap().expect("pending nudge");
    assert!(mapped.cache_hit, "the second replica maps the first's file");
    assert!(mapped.stage_reuse.iter().all(|s| s.is_full()));
    assert!(mapped
        .stage_timings
        .iter()
        .all(|t| t.stage != STAGE_LIVE_SCREEN));

    let fresh = Octopus::new(nudge.apply(&g).unwrap(), model, config).unwrap();
    for service in [&first, &second] {
        assert!(service.snapshot().engine().is_mapped());
        assert_eq!(probe_session(service).0, probe(&fresh));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fifty weight-only flushes — nudges, and row replacements that move a
/// row's support — each re-key from the entries the batch moved, never
/// walking the graph: the carried keys still equal a fresh walk's, the
/// graph still shares epoch 0's topology, every flush stamps the next
/// write sequence, and the last epoch answers like a fresh build.
#[test]
fn weight_only_flushes_carry_keys_that_match_a_fresh_walk() {
    let (g, model, config) = fixture();
    let dir =
        std::env::temp_dir().join(format!("octopus-serve-carried-keys-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
    let service = OctopusService::with_cache_dir(engine, &dir);
    let cross = g.find_edge(NodeId(0), NodeId(1)).unwrap();
    let m = g.edge_count() as u32;
    for i in 0..50u32 {
        service.submit(GraphDelta::NudgeWeights {
            edges: vec![EdgeId(i % m), EdgeId((7 * i + 3) % m)],
            delta: if i % 3 == 0 { -0.02 } else { 0.03 },
        });
        if i % 5 == 0 {
            let row = if i % 10 == 0 {
                vec![(0, 0.25)]
            } else {
                vec![(0, 0.3), (1, 0.1)]
            };
            service.submit(GraphDelta::SetWeights {
                edge: cross,
                probs: row,
            });
        }
        let report = service.apply_pending().unwrap().expect("pending deltas");
        let stages: Vec<&str> = report.stage_timings.iter().map(|t| t.stage).collect();
        assert!(
            stages.ends_with(&[STAGE_DELTA_APPLY, STAGE_GRAPH_KEYS]),
            "{stages:?}"
        );
    }
    let snap = service.snapshot();
    let engine = snap.engine();
    assert_eq!(engine.graph_keys(), &GraphKeys::of(engine.graph()));
    assert!(
        engine.graph().shares_topology(&g),
        "weight-only flushes share the topology"
    );
    assert_ne!(engine.graph(), &g);
    // epoch 0's open wrote sequence 1; the flushes stamped 2..=51
    let fp = Fingerprint::compute(engine.graph(), &config);
    let raw = std::fs::read(fp.cache_path(&dir)).unwrap();
    assert_eq!(persist::read_write_seq(&raw).unwrap(), 51);
    let fresh = Octopus::new(engine.graph().clone(), model, config).unwrap();
    assert_eq!(probe(engine), probe(&fresh));
    std::fs::remove_dir_all(&dir).ok();
}
