//! Quality-vs-budget pinning for the anytime operators.
//!
//! Three contracts from the budget module, checked on two seeded
//! fixtures (a citation-flavored network and a messenger-flavored one):
//!
//! 1. **Fixed-budget determinism** — at a fixed *sample* budget the
//!    anytime `find_influencers` answer (seeds, spread bits, bound bits)
//!    is bit-identical whether rayon runs 1 thread or 8, and across
//!    repeated calls (the budgeted path bypasses the query cache).
//! 2. **Bound soundness** — every degraded answer's [`QualityBound`]
//!    contains the exact path's scalar on the same snapshot: spread for
//!    influencer ranking and keyword suggestion, reachable influence for
//!    path exploration, kept topic mass for the radar.
//! 3. **A budget that does not bind ≡ the kernels** — `execute` under an
//!    unlimited [`QueryBudget`], on the engine, on [`OctopusService`] and
//!    on a K = 2 [`ShardedService`], is bit-identical to the operator
//!    kernels called directly, with an `exact` bound; so is a finite
//!    budget wide enough to truncate nothing.

use octopus_core::engine::{KimAnswer, KimEngineChoice, Octopus, OctopusConfig, SuggestAnswer};
use octopus_core::paths::{self, ExploreDirection, PathExploration};
use octopus_core::piks::GreedyPiks;
use octopus_core::serve::{OctopusService, Query, QueryResponse, QueryService, ShardedService};
use octopus_core::{Anytime, QualityBound, QueryBudget};
use octopus_graph::{GraphBuilder, NodeId, TopicGraph};
use octopus_topics::radar::RadarChart;
use octopus_topics::{TopicModel, Vocabulary};

/// Citation-flavored network: two scholarly hubs with follower fans and
/// a cross link, the same shape the serving suites pin against.
fn citation_fixture() -> Octopus {
    let (g, model) = citation_parts(true);
    build(g, model)
}

/// The citation network's graph and model; without the hub-to-hub
/// `cross_link` it falls into two components, one per K = 2 shard.
fn citation_parts(cross_link: bool) -> (TopicGraph, TopicModel) {
    let mut b = GraphBuilder::new(2);
    let han = b.add_node("jiawei han");
    let jordan = b.add_node("michael jordan");
    for i in 0..6 {
        let v = b.add_node(format!("db-student-{i}"));
        b.add_edge(han, v, &[(0, 0.7)]).unwrap();
    }
    for i in 0..5 {
        let v = b.add_node(format!("ml-student-{i}"));
        b.add_edge(jordan, v, &[(1, 0.7)]).unwrap();
    }
    if cross_link {
        b.add_edge(han, jordan, &[(0, 0.3), (1, 0.1)]).unwrap();
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
    .unwrap();
    (g, model)
}

/// Messenger-flavored network: chat broadcasters with reshare fans,
/// structurally denser cross-talk than the citation graph so the
/// budgeted estimators see a different regime.
fn messenger_fixture() -> Octopus {
    let mut b = GraphBuilder::new(2);
    let alice = b.add_node("alice");
    let bob = b.add_node("bob");
    let carol = b.add_node("carol");
    for i in 0..5 {
        let v = b.add_node(format!("meme-fan-{i}"));
        b.add_edge(alice, v, &[(0, 0.6)]).unwrap();
        if i < 2 {
            b.add_edge(carol, v, &[(0, 0.2)]).unwrap();
        }
    }
    for i in 0..4 {
        let v = b.add_node(format!("game-fan-{i}"));
        b.add_edge(bob, v, &[(1, 0.6)]).unwrap();
    }
    b.add_edge(alice, bob, &[(0, 0.2), (1, 0.2)]).unwrap();
    b.add_edge(bob, carol, &[(0, 0.3)]).unwrap();
    let g = b.build().unwrap();
    let mut vocab = Vocabulary::new();
    vocab.intern("viral memes");
    vocab.intern("reaction gifs");
    vocab.intern("esports");
    vocab.intern("speedrunning");
    let model = TopicModel::from_rows(
        vocab,
        vec![vec![0.45, 0.45, 0.05, 0.05], vec![0.1, 0.1, 0.4, 0.4]],
        vec![0.6, 0.4],
    )
    .unwrap();
    build(g, model)
}

fn config() -> OctopusConfig {
    OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 96,
        mis_rr_per_topic: 300,
        k_max: 3,
        ..Default::default()
    }
}

fn build(g: TopicGraph, model: TopicModel) -> Octopus {
    Octopus::new(g, model, config()).unwrap()
}

fn influencers(engine: &Octopus, query: &str, budget: &QueryBudget) -> Anytime<KimAnswer> {
    let q = Query::FindInfluencers {
        query: query.into(),
        k: 2,
    };
    engine
        .execute(&q, budget)
        .unwrap()
        .into_influencers()
        .unwrap()
}

fn suggestions(engine: &Octopus, user: &str, budget: &QueryBudget) -> Anytime<SuggestAnswer> {
    let q = Query::SuggestKeywords {
        user: user.into(),
        k: 2,
    };
    engine
        .execute(&q, budget)
        .unwrap()
        .into_suggestions()
        .unwrap()
}

fn explored(
    engine: &Octopus,
    user: &str,
    query: &str,
    budget: &QueryBudget,
) -> Anytime<PathExploration> {
    let q = Query::ExplorePaths {
        user: user.into(),
        direction: ExploreDirection::Influences,
        query: Some(query.into()),
    };
    engine.execute(&q, budget).unwrap().into_paths().unwrap()
}

fn radar(engine: &Octopus, word: &str, budget: &QueryBudget) -> Anytime<RadarChart> {
    let q = Query::KeywordRadar { word: word.into() };
    engine.execute(&q, budget).unwrap().into_radar().unwrap()
}

/// `(fixture, kim query, hub user, radar word, autocomplete prefix)`
/// probe sets, one per fixture.
fn probes() -> Vec<(
    Octopus,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
)> {
    vec![
        (
            citation_fixture(),
            "data mining",
            "jiawei han",
            "data mining",
            "db-",
        ),
        (
            messenger_fixture(),
            "viral memes",
            "alice",
            "esports",
            "meme-",
        ),
    ]
}

/// The bitwise signature of one budgeted influencer answer.
fn kim_signature(engine: &Octopus, query: &str, budget: &QueryBudget) -> (Vec<u32>, u64, Vec<u64>) {
    let ans = influencers(engine, query, budget);
    (
        ans.value.seeds.iter().map(|s| s.node.0).collect(),
        ans.value.result.spread.to_bits(),
        vec![
            ans.bound.lower.to_bits(),
            ans.bound.upper.to_bits(),
            ans.bound.samples_used as u64,
        ],
    )
}

#[test]
fn fixed_sample_budget_is_thread_count_invariant() {
    for (engine, query, _, _, _) in probes() {
        for samples in [16, 64, 256] {
            let budget = QueryBudget::samples(samples);
            let signatures: Vec<_> = [1usize, 8]
                .iter()
                .map(|&threads| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    pool.install(|| kim_signature(&engine, query, &budget))
                })
                .collect();
            assert_eq!(
                signatures[0], signatures[1],
                "budgeted answer diverged between 1 and 8 threads at {samples} samples"
            );
            // and across repeated calls: the budgeted path bypasses the
            // query cache, so each call re-derives the same bits
            assert_eq!(
                signatures[0],
                kim_signature(&engine, query, &budget),
                "budgeted answer not reproducible across calls at {samples} samples"
            );
        }
    }
}

#[test]
fn sample_budget_caps_samples_used() {
    for (engine, query, _, _, _) in probes() {
        for samples in [16, 64, 256] {
            let budget = QueryBudget::samples(samples);
            let ans = influencers(&engine, query, &budget);
            assert!(!ans.bound.exact, "finite budget must report degraded");
            assert!(
                ans.bound.samples_used <= samples,
                "used {} RR sets against a budget of {samples}",
                ans.bound.samples_used
            );
            assert!(ans.bound.samples_used > 0, "budgeted run did no work");
        }
    }
}

fn assert_sound(bound: &QualityBound, exact: f64, what: &str) {
    assert!(
        bound.contains(exact),
        "{what}: exact value {exact} outside bound [{}, {}]",
        bound.lower,
        bound.upper
    );
    assert!(
        bound.lower <= bound.upper + 1e-9,
        "{what}: inverted bound [{}, {}]",
        bound.lower,
        bound.upper
    );
}

#[test]
fn quality_bounds_contain_the_exact_answer() {
    for (engine, query, user, word, _) in probes() {
        let exact_kim = engine.find_influencers(query, 2).unwrap();
        let exact_sugg = engine.suggest_keywords(user, 2).unwrap();
        let exact_paths = engine
            .explore_paths(user, ExploreDirection::Influences, Some(query))
            .unwrap();
        let exact_radar = engine.keyword_radar(word).unwrap();
        let exact_mass: f64 = exact_radar.values.iter().sum();
        for samples in [1, 2, 8, 64] {
            let budget = QueryBudget::samples(samples);
            let kim = influencers(&engine, query, &budget);
            assert_sound(
                &kim.bound,
                exact_kim.result.spread,
                &format!("find-influencers@{samples}"),
            );
            let sugg = suggestions(&engine, user, &budget);
            assert_sound(
                &sugg.bound,
                exact_sugg.result.spread,
                &format!("suggest-keywords@{samples}"),
            );
            let paths = explored(&engine, user, query, &budget);
            assert_sound(
                &paths.bound,
                exact_paths.influence,
                &format!("explore-paths@{samples}"),
            );
            let chart = radar(&engine, word, &budget);
            assert_sound(
                &chart.bound,
                exact_mass,
                &format!("keyword-radar@{samples}"),
            );
            // the degraded answer's own score also sits inside its bound
            assert!(kim.bound.contains(kim.value.result.spread));
            assert!(paths.bound.contains(paths.value.influence));
        }
    }
}

#[test]
fn tiny_budgets_actually_degrade() {
    // A one-sample radar on a 4-axis chart must drop axes (bound opens
    // up), and a one-sample exploration must coarsen its threshold —
    // guarding against a budgeted path that quietly ignores its budget.
    for (engine, query, user, word, _) in probes() {
        let budget = QueryBudget::samples(1);
        let chart = radar(&engine, word, &budget);
        assert!(!chart.bound.exact);
        assert_eq!(chart.bound.samples_used, 1);
        let kept = chart.value.values.iter().filter(|v| **v > 0.0).count();
        assert!(kept <= 1, "radar kept {kept} axes on a 1-axis budget");
        let paths = explored(&engine, user, query, &budget);
        assert!(!paths.bound.exact);
        assert!(
            paths.bound.upper > paths.bound.lower,
            "a θ=1 exploration must admit unexplored influence"
        );
    }
}

type Execute<'a> = Box<dyn Fn(&Query, &QueryBudget) -> QueryResponse + 'a>;

/// One serving layer under test: its `execute`, plus the engine(s) that
/// answer behind it, each with its local → global node-id map.
struct Layer<'a> {
    name: &'static str,
    execute: Execute<'a>,
    engines: Vec<(&'a Octopus, Vec<NodeId>)>,
    /// Scenario 1 answers are a scatter-gather merge (spread = Σ of the
    /// per-shard MIA prefix spreads) rather than the kernel's own result.
    merged: bool,
}

impl Layer<'_> {
    /// The engine that knows `user`, the user's local id there, and that
    /// engine's id map.
    fn owner(&self, user: &str) -> (&Octopus, NodeId, &[NodeId]) {
        self.engines
            .iter()
            .find_map(|(e, lift)| Some((*e, e.graph().node_by_name(user)?, lift.as_slice())))
            .expect("probe user exists")
    }
}

/// Hold one layer's `execute`, under a budget that must not bind, against
/// the operator kernels called directly on the layer's engine(s).
fn assert_execute_matches_kernels(
    layer: &Layer<'_>,
    budget: &QueryBudget,
    (query, user, word, prefix): (&str, &str, &str, &str),
) {
    let what = layer.name;
    let run = |q: Query| {
        let response = (layer.execute)(&q, budget);
        assert_eq!(response.operator(), q.operator(), "{what}: variant");
        response
    };
    let model = layer.engines[0].0.model();
    let gamma = model.infer_str(query).unwrap();

    // scenario 1 — the configured KIM engine's `select`, per engine
    let got = run(Query::FindInfluencers {
        query: query.into(),
        k: 2,
    })
    .into_influencers()
    .unwrap();
    assert!(got.bound.exact, "{what}: find-influencers bound");
    assert_eq!(got.bound.lower.to_bits(), got.value.result.spread.to_bits());
    assert_eq!(got.bound.upper.to_bits(), got.value.result.spread.to_bits());
    assert_eq!(
        got.value.result.seeds,
        got.value.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
    );
    let mut prefix_spreads = Vec::new();
    let mut accounted = 0;
    for (engine, lift) in &layer.engines {
        let mis = engine.artifacts().mis_view().unwrap().expect("MIS engine");
        let kernel = mis.select(&gamma, 2);
        // the merged seeds this engine contributed are a prefix of its
        // own kernel selection, in selection order
        let mine: Vec<NodeId> = got
            .value
            .result
            .seeds
            .iter()
            .copied()
            .filter(|u| lift.contains(u))
            .collect();
        let lifted: Vec<NodeId> = kernel.seeds.iter().map(|u| lift[u.index()]).collect();
        assert_eq!(mine, lifted[..mine.len()], "{what}: seeds");
        accounted += mine.len();
        if !layer.merged {
            assert_eq!(mine.len(), kernel.seeds.len(), "{what}: seed count");
            assert_eq!(
                got.value.result.spread.to_bits(),
                kernel.spread.to_bits(),
                "{what}: spread"
            );
        } else if !mine.is_empty() {
            let probs = engine.graph().materialize(gamma.as_slice()).unwrap();
            prefix_spreads.push(octopus_mia::mia_spread_set(
                engine.graph(),
                &probs,
                &kernel.seeds[..mine.len()],
                engine.config().mia_theta,
            ));
        }
    }
    assert_eq!(accounted, got.value.seeds.len(), "{what}: every seed owned");
    if layer.merged {
        assert_eq!(accounted, 2, "{what}: merged top-k is full");
        assert_eq!(
            got.value.result.spread.to_bits(),
            prefix_spreads.iter().sum::<f64>().to_bits(),
            "{what}: merged spread is the sum of the taken MIA prefix spreads"
        );
    }

    // scenario 2 — GreedyPiks over the user's keyword candidates
    let got = run(Query::SuggestKeywords {
        user: user.into(),
        k: 2,
    })
    .into_suggestions()
    .unwrap();
    let (engine, local, lift) = layer.owner(user);
    let piks = GreedyPiks::new(
        engine.graph(),
        engine.model(),
        engine.artifacts().piks_view().unwrap(),
        engine.config().piks.clone(),
    );
    let kernel = piks
        .suggest(local, &engine.keyword_candidates(local), 2)
        .unwrap();
    assert!(got.bound.exact, "{what}: suggest-keywords bound");
    assert_eq!(got.value.user, lift[local.index()], "{what}: user id");
    assert_eq!(
        got.value.result.keywords, kernel.keywords,
        "{what}: keywords"
    );
    assert_eq!(got.value.result.gamma, kernel.gamma);
    assert_eq!(
        got.value.result.spread.to_bits(),
        kernel.spread.to_bits(),
        "{what}: suggest spread"
    );
    assert_eq!(
        got.value.result.consistency.to_bits(),
        kernel.consistency.to_bits()
    );

    // scenario 3 — `paths::explore` at the configured θ
    let got = run(Query::ExplorePaths {
        user: user.into(),
        direction: ExploreDirection::Influences,
        query: Some(query.into()),
    })
    .into_paths()
    .unwrap();
    let kernel = paths::explore(
        engine.graph(),
        local,
        &gamma,
        engine.config().mia_theta,
        ExploreDirection::Influences,
        engine.config().top_paths,
    )
    .unwrap();
    assert!(got.bound.exact, "{what}: explore-paths bound");
    assert_eq!(got.value.root, lift[local.index()], "{what}: root id");
    assert_eq!(got.value.reached, kernel.reached);
    assert_eq!(got.value.influence.to_bits(), kernel.influence.to_bits());
    assert_eq!(got.value.theta.to_bits(), kernel.theta.to_bits());
    assert_eq!(got.value.tree, kernel.tree.remap(|u| lift[u.index()]));

    // autocomplete — the tries' `complete`, union-merged in global ids
    let got = run(Query::Autocomplete {
        prefix: prefix.into(),
        limit: 10,
    })
    .into_completions()
    .unwrap();
    let mut kernel: Vec<(NodeId, String, f64)> = layer
        .engines
        .iter()
        .flat_map(|(engine, lift)| {
            let hits = engine.artifacts().trie_view().complete(prefix, 10);
            hits.into_iter()
                .map(|(u, name, score)| (lift[u.index()], name, score))
        })
        .collect();
    kernel.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap().then(a.0.cmp(&b.0)));
    kernel.truncate(10);
    assert!(got.bound.exact);
    assert!(!kernel.is_empty(), "{what}: probe prefix completes");
    assert_eq!(got.value, kernel, "{what}: completions");

    // radar — `topics::radar::keyword_radar` on the shared model
    let got = run(Query::KeywordRadar { word: word.into() })
        .into_radar()
        .unwrap();
    let w = model.vocab().require(word).unwrap();
    let kernel = octopus_topics::radar::keyword_radar(model, w).unwrap();
    assert!(got.bound.exact);
    assert_eq!(got.value, kernel, "{what}: radar");
}

#[test]
fn execute_under_a_budget_that_does_not_bind_equals_the_kernels_on_every_layer() {
    // the two connected fixtures (one shard however many are asked for)
    // plus the citation network split into two components (two shards)
    let connected = probes()
        .into_iter()
        .map(|(engine, query, user, word, prefix)| {
            let (g, model) = (engine.graph().clone(), engine.model().clone());
            (g, model, 1, (query, user, word, prefix))
        });
    let (g, model) = citation_parts(false);
    let split = (
        g,
        model,
        2,
        ("data mining", "jiawei han", "data mining", "db-"),
    );
    for (g, model, components, probe) in connected.chain([split]) {
        let identity: Vec<NodeId> = g.nodes().collect();
        let engine = build(g.clone(), model.clone());
        let service = OctopusService::new(build(g.clone(), model.clone()));
        let sharded = ShardedService::new(g, model, config(), 2).unwrap();
        assert_eq!(sharded.shard_count(), components);
        let (snapshot, shards) = (service.snapshot(), sharded.snapshots());
        let layers = [
            Layer {
                name: "engine",
                execute: Box::new(|q, b| engine.execute(q, b).unwrap()),
                engines: vec![(&engine, identity.clone())],
                merged: false,
            },
            Layer {
                name: "service",
                execute: Box::new(|q, b| service.execute(q, b).unwrap().value),
                engines: vec![(snapshot.engine(), identity.clone())],
                merged: false,
            },
            Layer {
                name: "sharded",
                execute: Box::new(|q, b| sharded.execute(q, b).unwrap().value),
                engines: shards
                    .iter()
                    .enumerate()
                    .map(|(s, snap)| {
                        // a shard's members in ascending global id order
                        let members = identity
                            .iter()
                            .copied()
                            .filter(|&u| sharded.owner_of(u) == Some(s))
                            .collect();
                        (snap.engine(), members)
                    })
                    .collect(),
                merged: true,
            },
        ];
        for layer in &layers {
            assert_execute_matches_kernels(layer, &QueryBudget::unlimited(), probe);
        }
        // a finite budget that truncates nothing is exact too: scoring
        // every candidate *is* the exact greedy, and a walk at the
        // configured θ *is* the exact exploration (scenario 1 is left
        // out: a finite budget always swaps in the OPIM estimator there)
        let (query, user, _, _) = probe;
        let exact = QueryBudget::unlimited();
        let node = engine.graph().node_by_name(user).unwrap();
        let every_candidate = QueryBudget::samples(engine.keyword_candidates(node).len());
        let got = suggestions(&engine, user, &every_candidate);
        let want = suggestions(&engine, user, &exact);
        assert!(got.bound.exact, "every candidate was scored");
        assert_eq!(got.bound, want.bound);
        assert_eq!(got.value.words, want.value.words);
        let theta_floor = QueryBudget::samples((1.0 / config().mia_theta).ceil() as usize);
        let got = explored(&engine, user, query, &theta_floor);
        let want = explored(&engine, user, query, &exact);
        assert!(got.bound.exact, "θ reached the configured floor");
        assert_eq!(got.bound, want.bound);
        assert_eq!(got.value.d3_json, want.value.d3_json);
    }
}

#[test]
fn generous_sample_budget_on_radar_is_exact() {
    // A budget at least as wide as the chart drops nothing: the radar
    // reports exact rather than a vacuously degraded bound.
    for (engine, _, _, word, _) in probes() {
        let chart = engine.keyword_radar(word).unwrap();
        let budget = QueryBudget::samples(chart.values.len());
        let any = radar(&engine, word, &budget);
        assert!(any.bound.exact);
        assert_eq!(any.value, chart);
    }
}
