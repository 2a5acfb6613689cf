//! Experiment runner: regenerates the paper's evaluation as paper-style
//! tables on stdout — the three demo scenarios (E1 influencers, E2
//! keyword suggestion, E3 influence paths), the engine and sampling
//! sweeps (E4 engines vs graph size, E5 topic samples, E6 PIKS index),
//! EM recovery (E7), the messenger deployment (E8), spread estimators
//! (E9) and the offline pipeline's ablations (E10).
//!
//! ```bash
//! cargo run --release -p octopus-bench --bin exp_runner            # all
//! cargo run --release -p octopus-bench --bin exp_runner e4 e6     # subset
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick
//! cargo run --release -p octopus-bench --bin exp_runner -- --csv out/
//! ```
//!
//! Performance is measured by `octobench` (its own package); serving
//! health is pinned by this crate's `serve_health` and `ingest_loop`
//! tests. This binary writes nothing but stdout/stderr, plus one CSV per
//! table under `--csv <dir>`.

use octopus_bench::table::fmt_duration;
use octopus_bench::workloads::{
    citation_queries, citation_sized, messenger_queries, messenger_sized, prolific_users,
    user_keywords,
};
use octopus_bench::{Referee, Table};
use octopus_cascade::{estimate_spread, RrCollection};
use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus_core::kim::bounds::{BoundEstimator, PrecompBound};
use octopus_core::kim::BoundKind;
use octopus_core::paths::ExploreDirection;
use octopus_core::piks::{ExhaustivePiks, GreedyPiks, InfluencerIndex, PiksConfig, PiksWorldsView};
use octopus_data::learn::align_topics;
use octopus_data::{CitationConfig, EmOptions, TicEm};
use octopus_graph::NodeId;
use octopus_mia::{mia_spread_set, ArbDirection, Arborescence, PathExplorer};
use octopus_topics::{KeywordId, TopicDistribution};
use std::sync::OnceLock;
use std::time::Instant;

/// When set (via `--csv <dir>`), every table is also written as CSV.
static CSV_DIR: OnceLock<std::path::PathBuf> = OnceLock::new();

/// Print a table and mirror it to the CSV directory when requested.
fn emit(t: &Table) {
    t.print();
    if let Some(dir) = CSV_DIR.get() {
        match t.write_csv(dir) {
            Ok(path) => eprintln!("[csv] {}", path.display()),
            Err(e) => eprintln!("[csv] write failed: {e}"),
        }
    }
}

struct Scale {
    citation_authors: usize,
    citation_papers: usize,
    scaling_sizes: Vec<(usize, usize)>,
    messenger_users: usize,
    referee_runs: usize,
    piks_targets: usize,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            citation_authors: 400,
            citation_papers: 1000,
            scaling_sizes: vec![(200, 500), (400, 1000)],
            messenger_users: 500,
            referee_runs: 1000,
            piks_targets: 4,
        }
    } else {
        Scale {
            citation_authors: 2000,
            citation_papers: 5000,
            scaling_sizes: vec![(500, 1200), (2000, 5000), (5000, 12000)],
            messenger_users: 3000,
            referee_runs: 4000,
            piks_targets: 10,
        }
    }
}

fn engine_with(
    net: &octopus_data::SyntheticNetwork,
    kim: KimEngineChoice,
) -> (Octopus, std::time::Duration) {
    let config = OctopusConfig {
        kim,
        piks_index_size: 1024,
        k_max: 25,
        ..Default::default()
    };
    let t0 = Instant::now();
    let engine = Octopus::new(net.graph.clone(), net.model.clone(), config)
        .expect("engine builds")
        .with_user_keywords(user_keywords(net));
    (engine, t0.elapsed())
}

const ENGINES: &[(&str, KimEngineChoice)] = &[
    ("naive", KimEngineChoice::Naive),
    ("mis", KimEngineChoice::Mis),
    (
        "be-PB",
        KimEngineChoice::BestEffort(BoundKind::Precomputation),
    ),
    ("be-LG", KimEngineChoice::BestEffort(BoundKind::LocalGraph)),
    (
        "be-NB",
        KimEngineChoice::BestEffort(BoundKind::Neighborhood),
    ),
    (
        "t-sample",
        KimEngineChoice::TopicSample {
            bound: BoundKind::Precomputation,
            extra_samples: 32,
            direct_eps: 0.1,
        },
    ),
];

/// E1 — Scenario 1: keyword-based influential user discovery (+diversity).
fn e1(s: &Scale) {
    println!("\n================ E1: keyword-based influential user discovery ================");
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let (engine, offline) =
        engine_with(&net, KimEngineChoice::BestEffort(BoundKind::Precomputation));
    let referee = Referee::new(&net.graph).with_runs(s.referee_runs);
    println!(
        "workload: {} researchers, {} edges; offline phase {}",
        net.graph.node_count(),
        net.graph.edge_count(),
        fmt_duration(offline)
    );
    let mut t = Table::new(
        "E1: per-query results (best-effort/PB, k=10)",
        &[
            "query",
            "latency",
            "spread(MC)",
            "deg-baseline",
            "gain",
            "top-3 influencers",
        ],
    );
    for q in citation_queries() {
        let ans = match engine.find_influencers(q, 10) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("query {q:?} failed: {e}");
                continue;
            }
        };
        let seeds: Vec<NodeId> = ans.seeds.iter().map(|x| x.node).collect();
        let mc = referee.score(&ans.gamma, &seeds);
        let deg: Vec<NodeId> = octopus_graph::stats::top_out_degree(&net.graph, 10)
            .into_iter()
            .map(|(u, _)| u)
            .collect();
        let mc_deg = referee.score(&ans.gamma, &deg);
        let top: Vec<&str> = ans.seeds.iter().take(3).map(|x| x.name.as_str()).collect();
        t.row(vec![
            q.to_string(),
            fmt_duration(ans.elapsed),
            format!("{mc:.1}"),
            format!("{mc_deg:.1}"),
            format!("{:+.0}%", 100.0 * (mc - mc_deg) / mc_deg.max(1.0)),
            top.join(", "),
        ]);
    }
    emit(&t);

    // diversity: pairwise seed overlap across topically distinct queries
    let a = engine.find_influencers("data mining", 10).expect("query");
    let b = engine
        .find_influencers("encryption authentication", 10)
        .expect("query");
    let sa: Vec<NodeId> = a.seeds.iter().map(|x| x.node).collect();
    let overlap = b.seeds.iter().filter(|x| sa.contains(&x.node)).count();
    println!("seed overlap between 'data mining' and 'encryption' queries: {overlap}/10 (topic-awareness)\n");
}

/// E2 — Scenario 2: personalized influential keyword suggestion.
fn e2(s: &Scale) {
    println!("\n================ E2: personalized influential keyword suggestion ================");
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let (engine, _) = engine_with(&net, KimEngineChoice::Mis);
    let targets = prolific_users(&net, s.piks_targets);
    let mut t = Table::new(
        "E2: suggestion per target (greedy over influencer index)",
        &[
            "target",
            "k",
            "keywords",
            "spread",
            "consistency",
            "latency",
            "evals",
        ],
    );
    for &u in &targets {
        for k in [1usize, 2, 3] {
            let Ok(ans) = engine.suggest_keywords_for(u, k) else {
                continue;
            };
            t.row(vec![
                engine.graph().name(u).unwrap_or("?").to_string(),
                k.to_string(),
                ans.words.join(", "),
                format!("{:.1}", ans.result.spread),
                format!("{:.2}", ans.result.consistency),
                fmt_duration(ans.elapsed),
                ans.result.stats.evaluations.to_string(),
            ]);
        }
    }
    emit(&t);

    // greedy vs exhaustive quality on capped pools
    let raw = InfluencerIndex::build(&net.graph, 2048, 4242).to_bytes();
    let index = PiksWorldsView::parse(&raw).expect("encoded");
    let cfg = PiksConfig::default();
    let greedy = GreedyPiks::new(&net.graph, &net.model, index, cfg.clone());
    let exact = ExhaustivePiks::new(&net.graph, &net.model, index, cfg);
    let map = user_keywords(&net);
    let mut ratios = Vec::new();
    let mut speedups = Vec::new();
    for &u in &targets {
        let pool: Vec<KeywordId> = map[&u].iter().copied().take(8).collect();
        if pool.len() < 3 {
            continue;
        }
        let t0 = Instant::now();
        let Ok(g) = greedy.suggest(u, &pool, 2) else {
            continue;
        };
        let tg = t0.elapsed();
        let t0 = Instant::now();
        let Ok(e) = exact.suggest(u, &pool, 2) else {
            continue;
        };
        let te = t0.elapsed();
        if e.spread > 0.0 {
            ratios.push(g.spread / e.spread);
            speedups.push(te.as_secs_f64() / tg.as_secs_f64().max(1e-9));
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let sp = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    println!(
        "greedy vs exhaustive (k=2, pool≤8): mean quality ratio {mean:.3}, mean speedup {sp:.1}x over {} targets\n",
        ratios.len()
    );
}

/// E3 — Scenario 3: influential-path exploration (θ sweep).
fn e3(s: &Scale) {
    println!("\n================ E3: influential path exploration ================");
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let (engine, _) = engine_with(&net, KimEngineChoice::Mis);
    let ans = engine.find_influencers("data mining", 1).expect("query");
    let root = ans.seeds[0].node;
    let gamma = ans.gamma.clone();
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims");
    let mut t = Table::new(
        format!("E3: MIOA of {:?} vs θ", ans.seeds[0].name),
        &[
            "theta",
            "tree nodes",
            "influence",
            "clusters",
            "build time",
            "d3 bytes",
        ],
    );
    for theta in [0.1, 0.03, 0.01, 0.003, 0.001] {
        let t0 = Instant::now();
        let arb = Arborescence::build(&net.graph, &probs, root, theta, ArbDirection::Out);
        let dt = t0.elapsed();
        let clusters = PathExplorer::new(&arb).clusters().len();
        let json = octopus_mia::json::arborescence_to_d3(&net.graph, &arb).to_string();
        t.row(vec![
            format!("{theta}"),
            arb.len().to_string(),
            format!("{:.1}", arb.total_influence()),
            clusters.to_string(),
            fmt_duration(dt),
            json.len().to_string(),
        ]);
    }
    emit(&t);

    // reverse direction spot check
    let ex = engine
        .explore_paths(&ans.seeds[0].name, ExploreDirection::InfluencedBy, None)
        .expect("reverse");
    println!(
        "reverse (MIIA): {} influencers of {} found in one engine call\n",
        ex.reached - 1,
        ans.seeds[0].name,
    );
}

/// E4 — engine sweep: latency/quality/pruning vs graph size.
fn e4(s: &Scale) {
    println!("\n================ E4: online KIM engines vs the naive baseline ================");
    for &(authors, papers) in &s.scaling_sizes {
        let net = citation_sized(authors, papers);
        let referee = Referee::new(&net.graph).with_runs(s.referee_runs);
        let queries = citation_queries();
        // baseline seeds for the quality ratio
        let (naive_engine, _) = engine_with(&net, KimEngineChoice::Naive);
        let naive_seeds: Vec<(TopicDistribution, Vec<NodeId>)> = queries
            .iter()
            .filter_map(|q| {
                let a = naive_engine.find_influencers(q, 10).ok()?;
                Some((a.gamma.clone(), a.seeds.iter().map(|x| x.node).collect()))
            })
            .collect();
        let mut t = Table::new(
            format!(
                "E4: n={} researchers, m={} edges (k=10, {} queries)",
                net.graph.node_count(),
                net.graph.edge_count(),
                queries.len()
            ),
            &[
                "engine",
                "offline",
                "online avg",
                "quality vs naive",
                "exact evals",
                "pruned %",
            ],
        );
        for &(label, kim) in ENGINES {
            let (engine, offline) = engine_with(&net, kim);
            let mut total = std::time::Duration::ZERO;
            let mut evals = 0usize;
            let mut pruned_pct = Vec::new();
            let mut ratios = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                let Ok(a) = engine.find_influencers(q, 10) else {
                    continue;
                };
                total += a.elapsed;
                evals += a.result.stats.exact_evaluations;
                let n = net.graph.node_count();
                pruned_pct.push(100.0 * a.result.stats.pruned_candidates as f64 / n as f64);
                if let Some((gamma, base)) = naive_seeds.get(i) {
                    let seeds: Vec<NodeId> = a.seeds.iter().map(|x| x.node).collect();
                    ratios.push(referee.ratio(gamma, &seeds, base));
                }
            }
            let nq = queries.len() as u32;
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
            let mean_pruned = pruned_pct.iter().sum::<f64>() / pruned_pct.len().max(1) as f64;
            t.row(vec![
                label.to_string(),
                fmt_duration(offline),
                fmt_duration(total / nq),
                format!("{mean_ratio:.3}"),
                (evals / queries.len()).to_string(),
                format!("{mean_pruned:.0}%"),
            ]);
        }
        // Structural heuristic: degree-discount (KDD'09) — the cheap anchor.
        {
            let mut total = std::time::Duration::ZERO;
            let mut ratios = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                let Ok(gamma) = net.model.infer_str(q) else {
                    continue;
                };
                let Ok(probs) = net.graph.materialize(gamma.as_slice()) else {
                    continue;
                };
                let t0 = Instant::now();
                let seeds = octopus_cascade::degree_discount(&net.graph, &probs, 10);
                total += t0.elapsed();
                if let Some((g, base)) = naive_seeds.get(i) {
                    ratios.push(referee.ratio(g, &seeds, base));
                }
            }
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
            t.row(vec![
                "deg-discount'09".to_string(),
                "0".to_string(),
                fmt_duration(total / queries.len() as u32),
                format!("{mean_ratio:.3}"),
                "0".to_string(),
                "0%".to_string(),
            ]);
        }
        // The 2003-era baseline the paper's "extremely expensive" refers to:
        // CELF greedy over Monte-Carlo simulation. Run on two queries only
        // (it is the point of the row that this is not interactive).
        {
            use octopus_core::kim::{KimAlgorithm, McGreedyKim};
            let mc = McGreedyKim::new(&net.graph, 500, 0x6E6E);
            let mut total = std::time::Duration::ZERO;
            let mut evals = 0usize;
            let mut ratios = Vec::new();
            let sample_queries = 2usize;
            for (i, q) in queries.iter().take(sample_queries).enumerate() {
                let Ok(gamma) = net.model.infer_str(q) else {
                    continue;
                };
                let t0 = Instant::now();
                let res = mc.select(&gamma, 10);
                total += t0.elapsed();
                evals += res.stats.exact_evaluations;
                if let Some((g, base)) = naive_seeds.get(i) {
                    ratios.push(referee.ratio(g, &res.seeds, base));
                }
            }
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
            t.row(vec![
                "mc-greedy'03 (2q)".to_string(),
                "0".to_string(),
                fmt_duration(total / sample_queries as u32),
                format!("{mean_ratio:.3}"),
                (evals / sample_queries).to_string(),
                "0%".to_string(),
            ]);
        }
        emit(&t);
    }

    // PB bound-violation audit (the calibrated-bound honesty check)
    let net = citation_sized(s.scaling_sizes[0].0, s.scaling_sizes[0].1);
    let theta = 1.0 / 320.0;
    let pb = PrecompBound::build(&net.graph, theta, 1.2);
    let gamma = net
        .model
        .infer_str("data mining clustering")
        .expect("resolves");
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims");
    let mut violations = 0usize;
    let mut checked = 0usize;
    let mut worst: f64 = 1.0;
    for u in net.graph.nodes().take(300) {
        let bound = pb.upper_bound(u, &gamma);
        let exact = mia_spread_set(&net.graph, &probs, &[u], theta);
        checked += 1;
        if bound < exact {
            violations += 1;
            worst = worst.min(bound / exact);
        }
    }
    println!(
        "PB bound audit (safety 1.2): {violations}/{checked} violations on a mixed query; worst ratio {worst:.3}\n"
    );
}

/// E5 — topic-sample budget sweep.
fn e5(s: &Scale) {
    println!("\n================ E5: topic-sample precomputation budget ================");
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let referee = Referee::new(&net.graph).with_runs(s.referee_runs);
    let queries = citation_queries();
    // naive baselines per query
    let (naive_engine, _) = engine_with(&net, KimEngineChoice::Naive);
    let baselines: Vec<(TopicDistribution, Vec<NodeId>)> = queries
        .iter()
        .filter_map(|q| {
            let a = naive_engine.find_influencers(q, 10).ok()?;
            Some((a.gamma.clone(), a.seeds.iter().map(|x| x.node).collect()))
        })
        .collect();
    let mut t = Table::new(
        "E5: direct-answer rate and latency vs sample budget (eps=0.10)",
        &[
            "extra samples",
            "offline",
            "direct answers",
            "online avg",
            "quality vs naive",
        ],
    );
    for extra in [0usize, 8, 32, 128] {
        let kim = KimEngineChoice::TopicSample {
            bound: BoundKind::Precomputation,
            extra_samples: extra,
            direct_eps: 0.1,
        };
        let (engine, offline) = engine_with(&net, kim);
        let mut direct = 0usize;
        let mut total = std::time::Duration::ZERO;
        let mut ratios = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let Ok(a) = engine.find_influencers(q, 10) else {
                continue;
            };
            total += a.elapsed;
            direct += a.result.stats.answered_from_sample as usize;
            if let Some((gamma, base)) = baselines.get(i) {
                let seeds: Vec<NodeId> = a.seeds.iter().map(|x| x.node).collect();
                ratios.push(referee.ratio(gamma, &seeds, base));
            }
        }
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        t.row(vec![
            extra.to_string(),
            fmt_duration(offline),
            format!("{direct}/{}", queries.len()),
            fmt_duration(total / queries.len() as u32),
            format!("{mean_ratio:.3}"),
        ]);
    }
    emit(&t);
}

/// E6 — PIKS sampling: influencer index vs sampling from scratch.
fn e6(s: &Scale) {
    println!("\n================ E6: influencer index vs sampling from scratch ================");
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let targets = prolific_users(&net, s.piks_targets);
    let gamma = net.model.infer_str("data mining").expect("resolves");
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims");
    // ground truth for error measurement
    let truth: Vec<f64> = targets
        .iter()
        .map(|&u| estimate_spread(&net.graph, &probs, &[u], 20_000, 0xBEEF))
        .collect();

    let mut t = Table::new(
        "E6: single-user spread estimation (per-target averages)",
        &["method", "prep time", "query time", "RMSE", "notes"],
    );
    // (a) MC from scratch per query
    let t0 = Instant::now();
    let mc: Vec<f64> = targets
        .iter()
        .map(|&u| estimate_spread(&net.graph, &probs, &[u], 2000, 7))
        .collect();
    let mc_time = t0.elapsed() / targets.len() as u32;
    t.row(vec![
        "MC (2k runs, per query)".into(),
        "0".into(),
        fmt_duration(mc_time),
        format!("{:.2}", rmse(&mc, &truth)),
        "no reuse across queries".into(),
    ]);
    // (b) RR sets from scratch per query
    let t0 = Instant::now();
    let rr_est: Vec<f64> = targets
        .iter()
        .map(|&u| {
            let rr = RrCollection::generate(&net.graph, &probs, 4000, 11);
            rr.estimate_spread(&[u])
        })
        .collect();
    let rr_time = t0.elapsed() / targets.len() as u32;
    t.row(vec![
        "RR (4k sets, per query)".into(),
        "0".into(),
        fmt_duration(rr_time),
        format!("{:.2}", rmse(&rr_est, &truth)),
        "resampled every query".into(),
    ]);
    // (c) influencer index at several sizes
    for r in [512usize, 2048, 8192] {
        let t0 = Instant::now();
        let raw = InfluencerIndex::build(&net.graph, r, 13).to_bytes();
        let prep = t0.elapsed();
        let t0 = Instant::now();
        let mut session = PiksWorldsView::parse(&raw)
            .expect("encoded")
            .session(&net.graph, &gamma);
        let est: Vec<f64> = targets.iter().map(|&u| session.spread_of(u)).collect();
        let qt = t0.elapsed() / targets.len() as u32;
        t.row(vec![
            format!("index R={r} (shared coins)"),
            fmt_duration(prep),
            fmt_duration(qt),
            format!("{:.2}", rmse(&est, &truth)),
            format!("{} worlds materialized", session.materialized_worlds()),
        ]);
    }
    emit(&t);
}

fn rmse(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(1);
    (a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>() / n as f64).sqrt()
}

/// E7 — EM learning recovery.
fn e7(s: &Scale) {
    println!("\n================ E7: TIC-EM parameter recovery ================");
    let mut t = Table::new(
        "E7: recovery error vs log size (3 topics)",
        &[
            "papers",
            "trials",
            "EM time",
            "iters",
            "edge-prob MAE",
            "keyword-topic acc",
        ],
    );
    let paper_counts: &[usize] = if s.citation_authors <= 500 {
        &[200, 400]
    } else {
        &[250, 500, 1000, 2000]
    };
    for &papers in paper_counts {
        let net = CitationConfig {
            authors: 120,
            papers,
            num_topics: 3,
            words_per_topic: 12,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let em = TicEm::new(EmOptions {
            num_topics: 3,
            max_iters: 40,
            ..Default::default()
        });
        let t0 = Instant::now();
        let fit = em.fit(
            &net.log,
            net.model.vocab().clone(),
            net.graph.names().to_vec(),
        );
        let dt = t0.elapsed();
        let perm = align_topics(&fit.model, &net.model);
        // edge-prob MAE on well-observed edges
        let mut trials_per_edge: std::collections::HashMap<(NodeId, NodeId), usize> =
            std::collections::HashMap::new();
        for tr in net.log.trials() {
            *trials_per_edge.entry((tr.src, tr.dst)).or_insert(0) += 1;
        }
        let mut err = 0.0;
        let mut cnt = 0usize;
        for e in fit.graph.edges() {
            let (u, v) = fit.graph.edge_endpoints(e).expect("valid edge");
            if trials_per_edge.get(&(u, v)).copied().unwrap_or(0) < 20 {
                continue;
            }
            let Some(te) = net.graph.find_edge(u, v) else {
                continue;
            };
            for (zl, &pz) in perm.iter().enumerate().take(3) {
                let learned = fit
                    .graph
                    .edge_prob_topic(e, octopus_graph::TopicId(zl as u16));
                let truth = net
                    .graph
                    .edge_prob_topic(te, octopus_graph::TopicId(pz as u16));
                err += (learned as f64 - truth as f64).abs();
                cnt += 1;
            }
        }
        // keyword-topic accuracy: does each keyword's dominant learned topic
        // map to its dominant true topic?
        let v = net.model.vocab_size();
        let mut correct = 0usize;
        for w in 0..v {
            let w = KeywordId(w as u32);
            let learned_z = fit.model.keyword_topics(w).expect("valid").dominant_topic();
            let true_z = net.model.keyword_topics(w).expect("valid").dominant_topic();
            if perm[learned_z] == true_z {
                correct += 1;
            }
        }
        t.row(vec![
            papers.to_string(),
            net.log.trial_count().to_string(),
            fmt_duration(dt),
            fit.iterations.to_string(),
            format!("{:.3}", err / cnt.max(1) as f64),
            format!("{:.0}%", 100.0 * correct as f64 / v as f64),
        ]);
    }
    emit(&t);
}

/// E8 — the QQ/messenger deployment scenario.
fn e8(s: &Scale) {
    println!("\n================ E8: viral marketing on the messenger network ================");
    let net = messenger_sized(s.messenger_users);
    let (engine, offline) =
        engine_with(&net, KimEngineChoice::BestEffort(BoundKind::Precomputation));
    let referee = Referee::new(&net.graph).with_runs(s.referee_runs);
    println!(
        "workload: {} users, {} edges; offline {}",
        net.graph.node_count(),
        net.graph.edge_count(),
        fmt_duration(offline)
    );
    let mut t = Table::new(
        "E8: ad-campaign queries (k=8)",
        &[
            "campaign keywords",
            "latency",
            "reach(MC)",
            "top influencer",
        ],
    );
    for q in messenger_queries() {
        let Ok(a) = engine.find_influencers(q, 8) else {
            continue;
        };
        let seeds: Vec<NodeId> = a.seeds.iter().map(|x| x.node).collect();
        t.row(vec![
            q.to_string(),
            fmt_duration(a.elapsed),
            format!("{:.1}", referee.score(&a.gamma, &seeds)),
            a.seeds[0].name.clone(),
        ]);
    }
    emit(&t);
    // targeted IM (the [7] extension): game campaign restricted to gamers
    {
        use octopus_core::kim::{Audience, KimAlgorithm, TargetedKim};
        let gamma = net.model.infer_str("game").expect("resolves");
        let audience = Audience::from_topic_affinity(&net.graph, &gamma);
        let targeted = TargetedKim::new(&net.graph, audience);
        let t0 = Instant::now();
        let tres = targeted.select(&gamma, 8);
        let t_time = t0.elapsed();
        let untargeted = engine.find_influencers_gamma(&gamma, 8).expect("query");
        let reach_t = targeted.weighted_spread(&gamma, &tres.seeds);
        let reach_u = targeted.weighted_spread(&gamma, &untargeted.seeds);
        println!(
            "targeted IM ({} gamers weighted): audience reach {:.1} (targeted, {}) vs {:.1} (untargeted seeds) — {:+.0}%\n",
            targeted.audience().support(),
            reach_t,
            fmt_duration(t_time),
            reach_u,
            100.0 * (reach_t - reach_u) / reach_u.max(1.0),
        );
    }
    // influencer product profiling
    if let Ok(a) = engine.find_influencers("game", 1) {
        if let Ok(sugg) = engine.suggest_keywords_for(a.seeds[0].node, 3) {
            println!(
                "top game influencer {:?} sells best with {:?} (category: {})\n",
                a.seeds[0].name,
                sugg.words,
                sugg.radar.ranked_axes()[0].0
            );
        }
    }
}

/// E9 — spread estimator accuracy/latency trade-off.
fn e9(s: &Scale) {
    println!("\n================ E9: spread estimators (MC vs RR vs MIA) ================");
    let net = citation_sized(s.scaling_sizes[0].0, s.scaling_sizes[0].1);
    let gamma = net.model.infer_str("data mining").expect("resolves");
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims");
    let targets: Vec<NodeId> = octopus_graph::stats::top_out_degree(&net.graph, 20)
        .into_iter()
        .map(|(u, _)| u)
        .collect();
    let truth: Vec<f64> = targets
        .iter()
        .map(|&u| estimate_spread(&net.graph, &probs, &[u], 50_000, 0xCAFE))
        .collect();
    let mut t = Table::new(
        "E9: single-seed spread estimation (20 hub targets)",
        &["estimator", "time/target", "RMSE", "bias"],
    );
    // MC budgets
    for runs in [200usize, 2000] {
        let t0 = Instant::now();
        let est: Vec<f64> = targets
            .iter()
            .map(|&u| estimate_spread(&net.graph, &probs, &[u], runs, 3))
            .collect();
        let dt = t0.elapsed() / targets.len() as u32;
        t.row(vec![
            format!("MC {runs} runs"),
            fmt_duration(dt),
            format!("{:.2}", rmse(&est, &truth)),
            format!("{:+.2}", bias(&est, &truth)),
        ]);
    }
    // RR collection (amortized across targets)
    for sets in [2000usize, 20_000] {
        let t0 = Instant::now();
        let rr = RrCollection::generate(&net.graph, &probs, sets, 17);
        let est: Vec<f64> = targets.iter().map(|&u| rr.estimate_spread(&[u])).collect();
        let dt = t0.elapsed() / targets.len() as u32;
        t.row(vec![
            format!("RR {sets} sets (amortized)"),
            fmt_duration(dt),
            format!("{:.2}", rmse(&est, &truth)),
            format!("{:+.2}", bias(&est, &truth)),
        ]);
    }
    // MIA at various thetas
    for theta in [0.1, 0.01, 0.001] {
        let t0 = Instant::now();
        let est: Vec<f64> = targets
            .iter()
            .map(|&u| mia_spread_set(&net.graph, &probs, &[u], theta))
            .collect();
        let dt = t0.elapsed() / targets.len() as u32;
        t.row(vec![
            format!("MIA θ={theta}"),
            fmt_duration(dt),
            format!("{:.2}", rmse(&est, &truth)),
            format!("{:+.2}", bias(&est, &truth)),
        ]);
    }
    emit(&t);
    println!("(MIA's negative bias is structural: single-path influence only — see §II-E)\n");
}

fn bias(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x - y).sum::<f64>() / a.len().max(1) as f64
}

/// E10 — ablations: PB safety factor, shared coins, lazy worlds, query cache.
fn e10(s: &Scale) {
    println!("\n================ E10: ablations ================");
    let net = citation_sized(s.scaling_sizes[0].0, s.scaling_sizes[0].1);
    let theta = 1.0 / 320.0;
    let gamma = net
        .model
        .infer_str("data mining clustering")
        .expect("resolves");
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims");

    // A1: PB safety factor — violations vs pruning power.
    let mut t = Table::new(
        "E10.A1: PB bound safety factor (mixed two-topic query)",
        &[
            "safety",
            "violations/300",
            "worst ratio",
            "pruned %",
            "quality vs safety=1.5",
        ],
    );
    let reference = {
        let pb = PrecompBound::build(&net.graph, theta, 1.5);
        let engine = octopus_core::kim::BestEffortKim::new(&net.graph, pb, theta);
        octopus_core::kim::KimAlgorithm::select(&engine, &gamma, 10)
    };
    let referee = Referee::new(&net.graph).with_runs(s.referee_runs);
    for safety in [1.0f64, 1.1, 1.2, 1.5] {
        let pb = PrecompBound::build(&net.graph, theta, safety);
        let mut violations = 0usize;
        let mut worst: f64 = 1.0;
        for u in net.graph.nodes().take(300) {
            let bound = pb.upper_bound(u, &gamma);
            let exact = mia_spread_set(&net.graph, &probs, &[u], theta);
            if bound < exact {
                violations += 1;
                worst = worst.min(bound / exact);
            }
        }
        let engine = octopus_core::kim::BestEffortKim::new(&net.graph, pb, theta);
        let res = octopus_core::kim::KimAlgorithm::select(&engine, &gamma, 10);
        let pruned = 100.0 * res.stats.pruned_candidates as f64 / net.graph.node_count() as f64;
        let quality = referee.ratio(&gamma, &res.seeds, &reference.seeds);
        t.row(vec![
            format!("{safety}"),
            violations.to_string(),
            format!("{worst:.3}"),
            format!("{pruned:.0}%"),
            format!("{quality:.3}"),
        ]);
    }
    emit(&t);

    // A2: shared coins (common random numbers) vs independent sampling for
    // comparing two nearby queries — the variance-reduction that makes the
    // influencer index's cross-query comparisons stable.
    let gamma_a = net.model.infer_str("data mining").expect("resolves");
    let gamma_b = net
        .model
        .infer_str("data mining clustering")
        .expect("resolves");
    let target = prolific_users(&net, 1)[0];
    let mut paired_diffs = Vec::new();
    let mut indep_diffs = Vec::new();
    for trial in 0..20u64 {
        let raw = InfluencerIndex::build(&net.graph, 800, 1000 + trial).to_bytes();
        let idx = PiksWorldsView::parse(&raw).expect("encoded");
        let sa = idx.session(&net.graph, &gamma_a).spread_of(target);
        let sb = idx.session(&net.graph, &gamma_b).spread_of(target);
        paired_diffs.push(sa - sb);
        let raw2 = InfluencerIndex::build(&net.graph, 800, 5000 + trial).to_bytes();
        let idx2 = PiksWorldsView::parse(&raw2).expect("encoded");
        let sb2 = idx2.session(&net.graph, &gamma_b).spread_of(target);
        indep_diffs.push(sa - sb2);
    }
    let var = |xs: &[f64]| {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
    };
    println!(
        "E10.A2: spread-difference variance across 20 trials — shared coins {:.4} vs independent {:.4} ({}x reduction)\n",
        var(&paired_diffs),
        var(&indep_diffs),
        (var(&indep_diffs) / var(&paired_diffs).max(1e-12)).round()
    );

    // A3: lazy vs eager world materialization.
    let raw = InfluencerIndex::build(&net.graph, 2048, 77).to_bytes();
    let idx = PiksWorldsView::parse(&raw).expect("encoded");
    let hub = octopus_graph::stats::top_out_degree(&net.graph, 1)[0].0;
    let leaf = octopus_graph::stats::top_out_degree(&net.graph, net.graph.node_count())
        .last()
        .expect("nodes exist")
        .0;
    let mut hub_sess = idx.session(&net.graph, &gamma_a);
    let _ = hub_sess.spread_of(hub);
    let mut leaf_sess = idx.session(&net.graph, &gamma_a);
    let _ = leaf_sess.spread_of(leaf);
    println!(
        "E10.A3: worlds materialized out of 2048 — hub query {}, leaf query {} (eager would always pay 2048)\n",
        hub_sess.materialized_worlds(),
        leaf_sess.materialized_worlds()
    );

    // A4: online query cache for a repeating query stream.
    let engine = Octopus::new(
        net.graph.clone(),
        net.model.clone(),
        OctopusConfig {
            cache_capacity: 64,
            piks_index_size: 128,
            ..Default::default()
        },
    )
    .expect("engine builds");
    let queries = citation_queries();
    let t0 = Instant::now();
    for q in &queries {
        let _ = engine.find_influencers(q, 10);
    }
    let cold = t0.elapsed();
    let t0 = Instant::now();
    for q in &queries {
        let _ = engine.find_influencers(q, 10);
    }
    let warm = t0.elapsed();
    println!(
        "E10.A4: query stream of {} — cold pass {}, cached repeat {} ({}x); cache stats {:?}\n",
        queries.len(),
        fmt_duration(cold),
        fmt_duration(warm),
        (cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)).round(),
        engine.cache_stats()
    );
}

/// One experiment: its command-line name and its body.
type Experiment = (&'static str, fn(&Scale));

/// The experiments in run order.
const EXPERIMENTS: [Experiment; 10] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_at = args.iter().position(|a| a == "--csv");
    if let Some(i) = csv_at {
        if let Some(dir) = args.get(i + 1) {
            let _ = CSV_DIR.set(std::path::PathBuf::from(dir));
        } else {
            eprintln!("--csv requires a directory argument");
            std::process::exit(2);
        }
    }
    let picks: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && csv_at.is_none_or(|c| i != c + 1))
        .map(|(_, a)| a.to_lowercase())
        .collect();
    for p in &picks {
        if !EXPERIMENTS.iter().any(|(name, _)| name == p) {
            eprintln!("unknown experiment {p:?}");
        }
    }
    let s = scale(quick);

    let t0 = Instant::now();
    for (name, run) in EXPERIMENTS {
        if picks.is_empty() || picks.iter().any(|p| p == name) {
            run(&s);
        }
    }
    println!("total wall time: {}", fmt_duration(t0.elapsed()));
}
