//! End-to-end pinning of the ingestion loop (stream → windowed warm
//! refit → topic-batched deltas → epoch swaps) plus the topic-batcher
//! contracts it relies on.
//!
//! The load-bearing assertion: after the loop drains, the graph the
//! serving layer answers from is **bit-identical** to the learner's
//! shadow, which (under `min_change = 0` and the `Insert` policy) is
//! bit-identical to the final learned graph — so served answers match a
//! fresh engine built from that graph exactly. The chain only holds
//! because every link is deterministic: the stream (`timeline`), the
//! warm refit (`crates/data/tests/learn_determinism.rs`), the diff, and
//! delta application. Both loop inputs — that unsharded one, and a
//! K = 4 [`ShardedService`] over four copies of the network — run with
//! live query workers racing every swap, which must all succeed.
//!
//! The batcher side pins the per-topic payoff the loop exists for: a
//! batch confined to `T` of `Z` topics reuses at least `Z − T` units
//! per weight stage on its swap (`spread-cap`, `pb-bound`,
//! `mis-tables` — hash-keyed per topic, so confinement is exactly what
//! keeps the other topics' keys unchanged), the planner respects its
//! cap deterministically without reordering same-edge deltas, its
//! batches applied in order compute what the window computes, and the
//! flush budget coalesces a wide plan without changing the final graph.

use octopus_bench::serve_load::MixPools;
use octopus_bench::workloads::{citation_sized, replicated, user_keywords};
use octopus_core::engine::{Octopus, OctopusConfig};
use octopus_core::serve::ingest::WEIGHT_STAGES;
use octopus_core::serve::{
    IngestPipeline, IngestStats, OctopusService, Query, QueryService, ShardedService, TopicBatcher,
};
use octopus_core::QueryBudget;
use octopus_data::{
    stream, ActionLog, EmOptions, NewEdgePolicy, StreamConfig, StreamEvent, SyntheticNetwork,
    TicEm, WindowedLearner,
};
use octopus_graph::delta::GraphDelta;
use octopus_graph::{GraphBuilder, TopicGraph};
use octopus_topics::{TopicModel, Vocabulary};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::Instant;

fn loop_config() -> OctopusConfig {
    OctopusConfig {
        piks_index_size: 64,
        mis_rr_per_topic: 100,
        k_max: 5,
        ..Default::default()
    }
}

/// Query threads racing the loop's swaps.
const LIVE_WORKERS: u64 = 4;

/// What one run of the closed loop left behind.
struct LoopRun<S> {
    service: S,
    learner: WindowedLearner,
    /// The warm-up model the service was opened on (deltas move weights
    /// only, so it is still the served model).
    model: TopicModel,
    stats: IngestStats,
    pools: MixPools,
}

/// The closed loop over `net`: fit the stream's first 60 % warm, open
/// `serve(warm graph, warm model)`, then replay the tail through the
/// bounded channel in three windows — refit, diff, batch by topic (cap
/// 2), flush — while [`LIVE_WORKERS`] threads fire the seeded operator
/// mix at the service and a probe query follows every window. Asserts
/// the loop's health: three windows fit over the whole replay, at least
/// two swaps, nothing dropped or retried, the watermark at the newest
/// action, each window's probe on a newer epoch, and no live query
/// failed.
fn closed_loop<S: QueryService>(
    net: &SyntheticNetwork,
    policy: NewEdgePolicy,
    min_change: f32,
    serve: impl FnOnce(TopicGraph, TopicModel) -> S,
) -> LoopRun<S> {
    let opts = EmOptions {
        max_iters: 4,
        ..Default::default()
    };
    let names: Vec<String> = net
        .graph
        .nodes()
        .map(|u| net.graph.name(u).unwrap_or("").to_string())
        .collect();
    let vocab = net.model.vocab().clone();

    let actions = stream::timeline(&net.log, &StreamConfig::default());
    let split = actions.len() * 3 / 5;
    let mut warmup_log = ActionLog::new();
    for a in &actions[..split] {
        match &a.event {
            StreamEvent::Item(item) => {
                warmup_log.push_item(item.origin, item.keywords.clone());
            }
            StreamEvent::Trial(t) => warmup_log.push_trial(t.item, t.src, t.dst, t.activated),
        }
    }
    let warm = TicEm::new(opts.clone()).fit(&warmup_log, vocab.clone(), names.clone());
    let model = warm.model.clone();
    let service = serve(warm.graph.clone(), model.clone());
    let mut learner =
        WindowedLearner::new(opts, vocab, names, warmup_log, warm, policy, min_change);
    let total_topics = net.graph.num_topics();
    let mut pipeline = IngestPipeline::new(&service, 2, total_topics);

    let pools = MixPools::from_network(net);
    let tail: Vec<_> = actions[split..].to_vec();
    let tail_len = tail.len();
    let window_size = (tail_len / 3).max(1);
    // a long cascade's trailing trials can outlast the next item's
    // arrival, so the watermark is the max timestamp, not the last
    let newest_at_ms = tail.iter().map(|a| a.at_ms).max().unwrap();
    let budget = QueryBudget::unlimited();
    let stop = AtomicBool::new(false);
    let mut epochs = Vec::new();
    let (live_queries, live_errors) = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..LIVE_WORKERS)
            .map(|w| {
                let (service, pools, stop, budget) = (&service, &pools, &stop, &budget);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x16E5_7000 + w);
                    let (mut issued, mut errors) = (0u64, 0u64);
                    while issued < 5 || !stop.load(SeqCst) {
                        errors += service.execute(&pools.draw(&mut rng), budget).is_err() as u64;
                        issued += 1;
                    }
                    (issued, errors)
                })
            })
            .collect();

        let mut consumed = 0usize;
        let mut in_window = 0usize;
        let mut watermark = 0u64;
        for action in stream::spawn_replay(tail, 64) {
            watermark = watermark.max(action.at_ms);
            learner.observe(&action);
            consumed += 1;
            in_window += 1;
            if in_window >= window_size || consumed == tail_len {
                let pre = learner.shadow().clone();
                let closed = Instant::now();
                let outcome = learner.fit_window().unwrap();
                let report = pipeline
                    .submit_window(outcome.deltas, &pre, in_window as u64, watermark, closed)
                    .unwrap();
                assert!(!report.swaps.is_empty(), "new evidence must swap an epoch");
                in_window = 0;
                let probe = Query::FindInfluencers {
                    query: pools.queries[0].clone(),
                    k: 5,
                };
                epochs.push(service.execute(&probe, &budget).unwrap().epoch);
            }
        }
        assert_eq!(consumed, tail_len, "the bounded replay must drain fully");
        stop.store(true, SeqCst);
        workers
            .into_iter()
            .map(|w| w.join().expect("query worker panicked"))
            .fold((0, 0), |(q, e), (wq, we)| (q + wq, e + we))
    });

    // the health every loop input must show
    let stats = pipeline.stats().clone();
    assert_eq!(stats.windows_fit, 3);
    assert_eq!(stats.actions_consumed, tail_len as u64);
    assert!(stats.swaps >= 2, "the loop must land at least two swaps");
    assert_eq!(stats.batches_dropped, 0);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.watermark_ms, newest_at_ms);
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "each window's queries must see a newer epoch: {epochs:?}"
    );
    assert!(live_queries >= 5 * LIVE_WORKERS);
    assert_eq!(
        live_errors, 0,
        "live queries failed while the loop swapped epochs"
    );
    LoopRun {
        service,
        learner,
        model,
        stats,
        pools,
    }
}

#[test]
fn closed_loop_serves_exactly_the_learned_graph() {
    let net = citation_sized(60, 150);
    let config = loop_config();
    let dir = std::env::temp_dir().join("octopus_ingest_loop_e2e");
    std::fs::remove_dir_all(&dir).ok();
    // min_change = 0: the shadow must BE the learned graph
    let run = closed_loop(&net, NewEdgePolicy::Insert, 0.0, |graph, model| {
        let engine = Octopus::open_or_build(graph, model, config.clone(), &dir).unwrap();
        OctopusService::with_cache_dir(engine, &dir)
    });
    let LoopRun {
        service,
        learner,
        model,
        pools,
        ..
    } = run;
    let budget = QueryBudget::unlimited();

    // the chain of bit-identities the loop guarantees
    assert_eq!(
        learner.shadow(),
        &learner.learned().graph,
        "min_change = 0 + Insert: the shadow is the learned graph"
    );
    assert_eq!(
        service.snapshot().engine().graph(),
        learner.shadow(),
        "the served graph must be the shadow, bit for bit"
    );

    // served answers == a fresh engine built from the final learned graph
    let fresh = Octopus::new(learner.learned().graph.clone(), model, config).unwrap();
    let want = fresh.find_influencers(&pools.queries[0], 5).unwrap();
    let got = service
        .execute(
            &Query::FindInfluencers {
                query: pools.queries[0].clone(),
                k: 5,
            },
            &budget,
        )
        .unwrap()
        .value
        .into_influencers()
        .unwrap()
        .value;
    assert_eq!(got.seeds, want.seeds);
    assert_eq!(got.result.seeds, want.result.seeds);
    assert_eq!(got.result.spread.to_bits(), want.result.spread.to_bits());
    let got = service
        .execute(
            &Query::Autocomplete {
                prefix: pools.prefixes[0].clone(),
                limit: 10,
            },
            &budget,
        )
        .unwrap()
        .value
        .into_completions()
        .unwrap()
        .value;
    assert_eq!(got, fresh.autocomplete(&pools.prefixes[0], 10));
    let got = service
        .execute(
            &Query::SuggestKeywords {
                user: pools.users[0].clone(),
                k: 3,
            },
            &budget,
        )
        .unwrap()
        .value
        .into_suggestions()
        .unwrap()
        .value;
    let want = fresh.suggest_keywords(&pools.users[0], 3).unwrap();
    assert_eq!(got.user, want.user);
    assert_eq!(got.words, want.words);
    std::fs::remove_dir_all(&dir).ok();
}

/// The loop at K = 4: the learner fits a four-copy log and the deltas
/// route through the scatter-gather router. Learned-only edges are
/// deferred (an insert may not bridge two shards), so every delta is
/// routable weight traffic, and the 0.005 threshold keeps deltas
/// entry-sparse — each batch's footprint is the materially moving
/// topics, which is what lets the other topics' units be reused. The
/// users' keyword candidates come from the log, so every suggestion in
/// the mix has candidates on every copy.
#[test]
fn closed_loop_soaks_a_k4_sharded_service() {
    let net = replicated(&citation_sized(60, 150), 4);
    let keywords = user_keywords(&net);
    let run = closed_loop(&net, NewEdgePolicy::Defer, 0.005, |graph, model| {
        ShardedService::with_options(graph, model, loop_config(), 4, None, false, keywords).unwrap()
    });
    assert_eq!(run.service.shard_count(), 4, "one copy per shard");
    assert!(
        run.stats.reuse_ratio() > 0.0,
        "topic-confined flushes must reuse weight-stage units: {:?}",
        run.stats
    );
}

/// A 4-topic star: the hub's edge to spoke 0 carries all four topics
/// (so a one-topic change can restate the rest bitwise), the remaining
/// spokes give each topic its own edge.
fn tiny_fixture() -> (TopicGraph, TopicModel, OctopusConfig) {
    let mut b = GraphBuilder::new(4);
    let hub = b.add_node("hub-main");
    let first = b.add_node("spoke-0");
    b.add_edge(hub, first, &[(0, 0.5), (1, 0.25), (2, 0.25), (3, 0.25)])
        .unwrap();
    for z in 1..4 {
        let v = b.add_node(format!("spoke-{z}"));
        b.add_edge(hub, v, &[(z, 0.5)]).unwrap();
    }
    let g = b.build().unwrap();
    let mut vocab = Vocabulary::new();
    for w in ["alpha", "beta", "gamma", "delta"] {
        vocab.intern(w);
    }
    let rows = (0..4)
        .map(|z| (0..4).map(|w| if w == z { 0.85 } else { 0.05 }).collect())
        .collect();
    let model = TopicModel::from_rows(vocab, rows, vec![0.25; 4]).unwrap();
    let config = OctopusConfig {
        piks_index_size: 32,
        mis_rr_per_topic: 64,
        k_max: 2,
        ..Default::default()
    };
    (g, model, config)
}

/// One f64-exact single-topic row change on the hub→spoke-0 edge: only
/// topic `z` moves, every other entry is restated bitwise.
fn one_topic_delta(g: &TopicGraph, z: usize, to: f64) -> GraphDelta {
    let edge = g
        .find_edge(octopus_graph::NodeId(0), octopus_graph::NodeId(1))
        .expect("fixture edge");
    let probs = [(0, 0.5), (1, 0.25), (2, 0.25), (3, 0.25)]
        .into_iter()
        .map(|(t, p)| (t, if t == z { to } else { p }))
        .collect();
    GraphDelta::SetWeights { edge, probs }
}

#[test]
fn topic_confined_batch_reuses_all_other_topics_units() {
    let (g, model, config) = tiny_fixture();
    let z_count = g.num_topics();
    let dir = std::env::temp_dir().join("octopus_ingest_loop_reuse");
    std::fs::remove_dir_all(&dir).ok();
    let engine = Octopus::open_or_build(g.clone(), model, config, &dir).unwrap();
    let service = OctopusService::with_cache_dir(engine, &dir);

    let delta = one_topic_delta(&g, 0, 0.75);
    let touched = delta.touched_topics(&g).unwrap();
    assert_eq!(
        touched.iter().copied().collect::<Vec<_>>(),
        vec![0],
        "restating the other entries bitwise must keep them out"
    );
    let plan = TopicBatcher::new(1).plan(std::slice::from_ref(&delta), &g);
    assert_eq!(plan.len(), 1);
    assert_eq!(plan[0].topics_touched(z_count), 1);

    let mut pipeline = IngestPipeline::new(&service, 1, z_count);
    let report = pipeline
        .submit_window(vec![delta], &g, 1, 42, Instant::now())
        .unwrap();
    assert_eq!(report.batches, 1);
    assert_eq!(report.swaps.len(), 1);
    for stage in WEIGHT_STAGES {
        let s = report.swaps[0]
            .report
            .stage_reuse
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from the swap report"));
        assert_eq!(s.total, z_count, "{stage} keys one unit per topic");
        assert!(
            s.reused >= z_count - 1,
            "a 1-of-{z_count}-topic batch must reuse ≥ {} {stage} units, got {}/{}",
            z_count - 1,
            s.reused,
            s.total
        );
    }
    assert!(pipeline.stats().reuse_ratio() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batcher_respects_the_cap_and_never_reorders_same_edge_deltas() {
    let (g, _, _) = tiny_fixture();
    // six single-topic changes across four topics, with two hitting the
    // same edge (the hub→spoke-0 row, topics 0 then 2): the second must
    // not jump past the first even if an earlier batch has room
    let deltas = vec![
        one_topic_delta(&g, 0, 0.75),
        one_topic_delta(&g, 1, 0.30),
        one_topic_delta(&g, 2, 0.35),
        one_topic_delta(&g, 3, 0.40),
        one_topic_delta(&g, 0, 0.80),
        one_topic_delta(&g, 2, 0.45),
    ];
    let batcher = TopicBatcher::new(2);
    let plan = batcher.plan(&deltas, &g);
    assert_eq!(plan, batcher.plan(&deltas, &g));
    for batch in &plan {
        assert!(
            batch.topics_touched(4) <= 2,
            "every batch must stay within the cap: {:?}",
            batch.topics
        );
    }
    // flattening the plan in batch order, same-edge deltas keep their
    // submission order (they all rewrite the same row, so application
    // order is the row's final value)
    let flat: Vec<&GraphDelta> = plan.iter().flat_map(|b| b.deltas.iter()).collect();
    let positions: Vec<usize> = deltas
        .iter()
        .map(|d| flat.iter().position(|x| *x == d).unwrap())
        .collect();
    assert!(positions[0] < positions[4], "topic-0 rewrites stay ordered");
    assert!(positions[2] < positions[5], "topic-2 rewrites stay ordered");
}

#[test]
fn flush_budget_coalesces_without_changing_the_final_graph() {
    let (g, model, config) = tiny_fixture();
    let deltas: Vec<GraphDelta> = (0..4).map(|z| one_topic_delta(&g, z, 0.6)).collect();
    // uncoalesced, a cap of 1 splits the four disjoint topics four ways
    assert_eq!(TopicBatcher::new(1).plan(&deltas, &g).len(), 4);

    let service = OctopusService::new(Octopus::new(g.clone(), model, config).unwrap());
    let mut pipeline = IngestPipeline::new(&service, 1, g.num_topics()).with_flush_budget(2);
    let report = pipeline
        .submit_window(deltas.clone(), &g, 4, 7, Instant::now())
        .unwrap();
    assert!(
        report.batches <= 2,
        "the budget must cap the swap count, got {}",
        report.batches
    );
    assert_eq!(report.swaps.len(), report.batches);
    let want = octopus_graph::delta::apply_all(&g, &deltas).unwrap();
    assert_eq!(
        service.snapshot().engine().graph(),
        &want,
        "coalescing batches must not change what the deltas compute"
    );
}

/// A 10-node chain `i → i + 1` over three topics, edge `i` on topic `i % 3`.
fn chain() -> TopicGraph {
    let mut b = GraphBuilder::new(3);
    let _ = b.add_nodes(10);
    for i in 0..9u32 {
        let (u, v) = (octopus_graph::NodeId(i), octopus_graph::NodeId(i + 1));
        b.add_edge(u, v, &[(i as usize % 3, 0.5)]).unwrap();
    }
    b.build().unwrap()
}

/// Applying the plan's batches in order computes what the window
/// computes, also when a row replacement empties its row (dropping the
/// edge and shifting every later id): such a row is a barrier, never
/// hoisted into an earlier batch ahead of rows submitted before it.
#[test]
fn plan_applied_in_order_equals_the_window() {
    use rand::Rng;
    let g = chain();
    let set = |e: u32, z: usize, p: f64| GraphDelta::SetWeights {
        edge: octopus_graph::EdgeId(e),
        probs: vec![(z, p)],
    };
    let check = |window: &[GraphDelta], cap: usize| {
        let want = octopus_graph::delta::apply_all(&g, window).unwrap();
        let mut got = g.clone();
        for batch in TopicBatcher::new(cap).plan(window, &g) {
            got = octopus_graph::delta::apply_all(&got, &batch.deltas).unwrap();
        }
        assert_eq!(got, want, "window {window:?} at cap {cap}");
    };
    // the window that planned [[e5, e2], [e7]] when an emptied row was
    // treated as id-stable
    check(&[set(5, 0, 0.6), set(7, 1, 0.6), set(2, 0, 0.0)], 1);

    let mut rng = SmallRng::seed_from_u64(0x0BA7_C4E5);
    for _ in 0..400 {
        let len = rng.random_range(1..8usize);
        let mut window = Vec::with_capacity(len);
        // ids below 6 stay valid after up to three dropped edges
        let mut drops = 0;
        for _ in 0..len {
            let e = rng.random_range(0..6u32);
            let z = rng.random_range(0..3usize);
            window.push(match rng.random_range(0..4u32) {
                0 if drops < 3 => {
                    drops += 1;
                    set(e, z, 0.0)
                }
                1 => GraphDelta::NudgeWeights {
                    edges: vec![octopus_graph::EdgeId(e)],
                    delta: 0.05,
                },
                _ => set(e, z, 0.25 + 0.5 * rng.random::<f64>()),
            });
        }
        check(&window, rng.random_range(1..3usize));
    }
}
