//! Experiment runner: regenerates every evaluation artifact in
//! `DESIGN.md` §6 / `EXPERIMENTS.md` as paper-style tables on stdout.
//!
//! ```bash
//! cargo run --release -p octopus-bench --bin exp_runner            # all
//! cargo run --release -p octopus-bench --bin exp_runner e4 e6     # subset
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick
//! cargo run --release -p octopus-bench --bin exp_runner -- --csv out/
//! cargo run --release -p octopus-bench --bin exp_runner -- --artifact-cache cache/
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick --delta 8
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick --serve 8
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick --serve 8 --shards 4
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick --serve 8 --budget-sweep
//! cargo run --release -p octopus-bench --bin exp_runner -- --quick --serve 16 --shed --budget-ms 50
//! ```
//!
//! With `--artifact-cache <dir>`, every engine construction goes through
//! [`Octopus::open_or_build`]: the first run of an experiment pays the
//! offline build and persists it, repeat runs (parameter sweeps, re-runs
//! after online-path changes) load the artifacts and report the hit.
//!
//! With `--delta <k>`, the runner executes the incremental-rebuild
//! workload instead of the default sweep: build the citation engine cold,
//! perturb `k` edge weights (plus a rename and an edge-insert variant),
//! reopen against the same cache, and report per-stage reuse and
//! partial-rebuild time versus the full build.
//!
//! With `--serve <workers>`, the runner executes the serving-under-churn
//! workload: that many worker threads issue a mixed online-operator
//! stream against an [`octopus_core::serve::OctopusService`] while a
//! mutator thread injects weight-nudge delta batches that swap epochs
//! mid-run, reporting per-operator throughput and p50/p95/p99 latency
//! plus the swap trajectory. The process exits nonzero on any query
//! error, failed batch, missing swap, or — with `--serve-p99-ms <ms>` —
//! any operator p99 above the guardrail, which is what makes it a CI
//! perf-smoke gate. Adding `--shards <k>` retargets the stream at an
//! [`octopus_core::serve::ShardedService`] over `k` disjoint copies of
//! the network — the scatter-gather router fans queries out per shard
//! and deltas rebuild only the shards they touch (the swap table gains a
//! `shard` column). `--shards` also extends `--delta` with a routed-flush
//! leg measuring single-shard rebuild confinement. `--budget-ms <ms>`
//! gives every serve query that deadline budget (anytime operators);
//! `--shed` adds a tiny admission controller for the overload-soak leg —
//! the run must shed a nonzero-but-bounded fraction while the p99 of
//! admitted queries stays under the guardrail. `--budget-sweep` runs the
//! quality-vs-budget curve: anytime `find_influencers` at increasing
//! sample budgets scored as recall@k against the exact run, appended to
//! `BENCH_serve.json` so `--referee` gates answer-quality regressions
//! (a recall drop > 0.05 at the same configuration fails) alongside
//! latency ones.
//!
//! With `--open-bench`, the runner measures engine startup: it builds the
//! citation artifact cold, then opens it twice — once onto the heap (read,
//! checksum and decode every section, serve the read bytes) and once
//! memory-mapped ([`Octopus::open_mapped`], O(pages-touched)) — and reports
//! cold-open wall time, the `artifact-map`/`artifact-validate`/
//! `artifact-decode` split, first-query latency, and RSS growth for both,
//! while asserting that all five online operators answer **bit-identically**
//! on either backing (any divergence exits nonzero). `--paranoid` makes the
//! mapped open verify every section checksum up front instead of lazily.
//!
//! Every invocation also appends one machine-readable run record
//! (workload, config fingerprint, thread count, per-stage timings,
//! per-operator latency quantiles, peak RSS) to `BENCH_<workload>.json`
//! in the current directory (override with `--bench-dir <dir>`) — the
//! repo-root perf trajectory. With `--referee`, the fresh run is first
//! diffed against the most recent comparable record and the process exits
//! nonzero on a regression (>2x and >10ms on any shared metric).

use octopus_bench::record::{self, BenchRecord, Quantiles};
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

/// When set (via `--artifact-cache <dir>`), engines are constructed with
/// [`Octopus::open_or_build`] against this directory instead of
/// [`Octopus::new`].
static ARTIFACT_CACHE: OnceLock<std::path::PathBuf> = OnceLock::new();

/// Where `BENCH_<workload>.json` trajectories live (`--bench-dir`,
/// default: the current directory, i.e. the repo root in CI).
static BENCH_DIR: OnceLock<std::path::PathBuf> = OnceLock::new();

fn bench_dir() -> std::path::PathBuf {
    BENCH_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

/// FNV-1a 64 over a run descriptor — the record's config fingerprint.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
    serve_queries_per_worker: usize,
    ingest_authors: usize,
    ingest_papers: usize,
    ingest_windows: usize,
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
            serve_queries_per_worker: 40,
            ingest_authors: 150,
            ingest_papers: 400,
            ingest_windows: 3,
        }
    } else {
        Scale {
            citation_authors: 2000,
            citation_papers: 5000,
            scaling_sizes: vec![(500, 1200), (2000, 5000), (5000, 12000)],
            messenger_users: 3000,
            referee_runs: 4000,
            piks_targets: 10,
            serve_queries_per_worker: 150,
            ingest_authors: 500,
            ingest_papers: 1200,
            ingest_windows: 4,
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
    let engine = match ARTIFACT_CACHE.get() {
        Some(dir) => Octopus::open_or_build(net.graph.clone(), net.model.clone(), config, dir),
        None => Octopus::new(net.graph.clone(), net.model.clone(), config),
    }
    .expect("engine builds")
    .with_user_keywords(user_keywords(net));
    let elapsed = t0.elapsed();
    if ARTIFACT_CACHE.get().is_some() {
        eprintln!(
            "[artifact-cache] {} in {}",
            if engine.cache_hit() { "hit" } else { "miss" },
            fmt_duration(elapsed)
        );
    }
    (engine, elapsed)
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

/// Delta workload (`--delta <k>`): perturb the citation network by a few
/// edges and measure how much of the offline build `open_or_build` reuses
/// from the OCTA section cache, versus paying a full rebuild. Includes a
/// **topic-confined nudge** leg (victims whose sparse rows all live in one
/// topic) that exercises the v5 per-topic cap/PB/MIS sub-sections: only
/// the confined topic's units rebuild, and the per-topic `reused/total`
/// counters land in the table and the `BENCH_delta.json` notes. With
/// `--shards <n>` it additionally measures *routed* rebuilds: the same
/// nudge batch flushed through a [`octopus_core::serve::ShardedService`]
/// over `n` disjoint copies of the network, where only the touched shards
/// rebuild and the rest keep serving their epoch untouched.
fn delta_workload(s: &Scale, k: usize, shards: Option<usize>, rec: &mut BenchRecord) {
    use octopus_graph::delta;
    println!("\n================ DELTA: incremental offline rebuilds (k={k}) ================");
    let net = citation_sized(s.citation_authors, s.citation_papers);
    // the workload needs a guaranteed-cold directory for its baseline; use
    // a private subdirectory so a user's warmed --artifact-cache dir (the
    // e1..e10 sweeps share it) is never wiped
    let dir = ARTIFACT_CACHE
        .get()
        .cloned()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("delta-workload-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = OctopusConfig {
        kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
        piks_index_size: 1024,
        k_max: 25,
        ..Default::default()
    };
    println!(
        "workload: {} researchers, {} edges; cache dir {}",
        net.graph.node_count(),
        net.graph.edge_count(),
        dir.display()
    );

    // cold: full build, cache written
    let t0 = Instant::now();
    let cold = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("cold build");
    let t_full = t0.elapsed();
    assert!(!cold.cache_hit());
    drop(cold);
    rec.stage("full-build", t_full);

    // the k-edge perturbations, spread across the edge range
    let m = net.graph.edge_count();
    let victims: Vec<octopus_graph::EdgeId> = (0..k)
        .map(|i| octopus_graph::EdgeId(((i * m) / k.max(1)) as u32))
        .collect();
    let nudged = delta::nudge_weights(&net.graph, &victims, 0.05).expect("nudge applies");
    let renamed =
        delta::rename_node(&net.graph, NodeId(0), "renamed-researcher").expect("rename applies");
    let (iu, iv) = {
        // first absent pair scanning from the highest-id node down: a
        // late-source insert shifts few edge ids, isolating footprint reuse
        let n = net.graph.node_count() as u32;
        let mut found = (NodeId(n - 1), NodeId(0));
        'outer: for u in (0..n).rev() {
            for v in 0..n {
                if u != v && net.graph.find_edge(NodeId(u), NodeId(v)).is_none() {
                    found = (NodeId(u), NodeId(v));
                    break 'outer;
                }
            }
        }
        found
    };
    let inserted = delta::insert_edge(&net.graph, iu, iv, &[(0, 0.3)]).expect("insert applies");

    // the topic-confined leg: perturb only the topic-z entries of up to k
    // edges carrying topic z, so the v5 per-topic machinery rebuilds
    // exactly topic z's cap/PB/MIS sub-sections and reuses every other
    // topic's off the donor epochs
    let zs = net.graph.num_topics();
    let confined_topic = (0..zs)
        .max_by_key(|&z| {
            (0..m as u32)
                .filter(|&e| {
                    net.graph
                        .edge_topic_probs(octopus_graph::EdgeId(e))
                        .any(|(t, _)| t.index() == z)
                })
                .count()
        })
        .unwrap_or(0);
    let topic_victims: std::collections::HashSet<u32> = (0..m as u32)
        .filter(|&e| {
            net.graph
                .edge_topic_probs(octopus_graph::EdgeId(e))
                .any(|(t, _)| t.index() == confined_topic)
        })
        .take(k.max(1))
        .collect();
    let topic_label = format!(
        "topic-confined nudge ×{} (topic {confined_topic}/{zs})",
        topic_victims.len()
    );
    let topic_nudged = (!topic_victims.is_empty()).then(|| {
        // rebuild with only the topic-z entry of each victim reflected off
        // the (0, 1] boundary — every other topic's weight slice stays
        // bit-identical, the definition of a topic-z-confined nudge
        let g = &net.graph;
        let mut b = octopus_graph::GraphBuilder::new(g.num_topics())
            .with_capacity(g.node_count(), g.edge_count());
        for u in g.nodes() {
            b.add_node(g.name(u).unwrap_or(""));
        }
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e).expect("iterated edge is valid");
            let probs: Vec<(usize, f64)> = g
                .edge_topic_probs(e)
                .map(|(t, p)| {
                    let p = p as f64;
                    let p = if t.index() == confined_topic && topic_victims.contains(&e.0) {
                        if p + 0.05 <= 1.0 {
                            p + 0.05
                        } else {
                            p - 0.05
                        }
                    } else {
                        p
                    };
                    (t.index(), p)
                })
                .collect();
            b.add_edge(u, v, &probs).expect("copied edge is valid");
        }
        b.build().expect("topic-confined nudge applies")
    });

    let mut t = Table::new(
        format!("DELTA: partial rebuild vs full build ({} full)", {
            fmt_duration(t_full)
        }),
        &[
            "delta",
            "reopen",
            "speedup",
            "stages reused",
            "cap|pb|mis topics reused",
            "piks worlds reused",
            "stages rebuilt",
        ],
    );
    let mut rows: Vec<(String, octopus_graph::TopicGraph, bool)> = vec![
        (format!("weight nudge ×{k}"), nudged, false),
        ("rename 1 node".to_string(), renamed, false),
        ("insert 1 edge".to_string(), inserted, false),
    ];
    if let Some(g) = topic_nudged {
        rows.push((topic_label.clone(), g, true));
    }
    rows.push(("no delta (restart)".to_string(), net.graph.clone(), false));
    for (label, graph, is_topic_leg) in rows {
        let t0 = Instant::now();
        let engine = Octopus::open_or_build(graph, net.model.clone(), config.clone(), &dir)
            .expect("delta reopen");
        let dt = t0.elapsed();
        rec.stage(&format!("reopen {label}"), dt);
        let report = engine.system_report();
        let full_stages = report.stage_reuse.iter().filter(|s| s.is_full()).count();
        let rebuilt: Vec<&str> = report
            .stage_reuse
            .iter()
            .filter(|s| !s.is_full())
            .map(|s| s.stage)
            .collect();
        let per_topic = |stage: &str| {
            report
                .stage_reuse
                .iter()
                .find(|s| s.stage == stage)
                .map(|s| format!("{}/{}", s.reused, s.total))
                .unwrap_or_else(|| "-".to_string())
        };
        let piks = report
            .stage_reuse
            .iter()
            .find(|s| s.stage == "piks-worlds")
            .expect("piks stage reported");
        if is_topic_leg {
            // seed the trajectory with the per-topic counters so the
            // referee can gate regressions of the confined-rebuild path
            rec.note(
                "topic_nudge_speedup_x",
                t_full.as_secs_f64() / dt.as_secs_f64().max(1e-9),
            );
            for stage in ["spread-cap", "pb-bound", "mis-tables"] {
                if let Some(s) = report.stage_reuse.iter().find(|s| s.stage == stage) {
                    rec.note(&format!("topic_nudge_{stage}_reused"), s.reused as f64)
                        .note(&format!("topic_nudge_{stage}_total"), s.total as f64);
                }
            }
        }
        t.row(vec![
            label,
            fmt_duration(dt),
            format!("{:.1}x", t_full.as_secs_f64() / dt.as_secs_f64().max(1e-9)),
            format!("{full_stages}/{}", report.stage_reuse.len()),
            format!(
                "{}|{}|{}",
                per_topic("spread-cap"),
                per_topic("pb-bound"),
                per_topic("mis-tables")
            ),
            format!("{}/{}", piks.reused, piks.total),
            if rebuilt.is_empty() {
                "none (full hit)".to_string()
            } else {
                rebuilt.join(", ")
            },
        ]);
    }
    emit(&t);

    // routed rebuilds: the same class of nudge batch, flushed through a
    // sharded service — only the touched shards pay anything
    if let Some(n) = shards {
        use octopus_core::serve::ShardedService;
        let union = octopus_bench::workloads::disjoint_copies(&net, n);
        let shard_dir = dir.join("sharded");
        let t0 = Instant::now();
        let service =
            ShardedService::with_cache_dir(union, net.model.clone(), config.clone(), n, &shard_dir)
                .expect("shard engines build");
        let t_shard_build = t0.elapsed();
        rec.stage("sharded-build", t_shard_build);
        let m = service.edge_count();
        // the k victims again, but confined to copy 0 — one shard's range —
        // so the flush demonstrates single-shard confinement at any n
        for i in 0..k {
            service.submit(octopus_graph::delta::GraphDelta::NudgeWeights {
                edges: vec![octopus_graph::EdgeId(((i * (m / n)) / k.max(1)) as u32)],
                delta: 0.05,
            });
        }
        let t0 = Instant::now();
        let swaps = service.apply_pending().expect("routed flush applies");
        let t_flush = t0.elapsed();
        rec.stage("sharded-flush", t_flush);
        rec.note("sharded_shards", service.shard_count() as f64)
            .note("sharded_shards_touched", swaps.len() as f64);
        let mut ts = Table::new(
            format!(
                "DELTA: routed flush over {} shards ({} union edges; built {}, flush {})",
                service.shard_count(),
                service.edge_count(),
                fmt_duration(t_shard_build),
                fmt_duration(t_flush)
            ),
            &["shard", "epoch", "deltas", "rebuild", "stages rebuilt"],
        );
        for swap in &swaps {
            let rebuilt: Vec<&str> = swap
                .report
                .stage_reuse
                .iter()
                .filter(|x| !x.is_full())
                .map(|x| x.stage)
                .collect();
            ts.row(vec![
                swap.shard.to_string(),
                swap.report.epoch.to_string(),
                swap.report.deltas_applied.to_string(),
                fmt_duration(swap.report.rebuild_time),
                if rebuilt.is_empty() {
                    "none (full hit)".to_string()
                } else {
                    rebuilt.join(", ")
                },
            ]);
        }
        emit(&ts);
        println!(
            "routing confined the k={k} nudge batch to {}/{} shard(s); untouched shards kept epoch 0\n",
            swaps.len(),
            service.shard_count()
        );
    }

    // the subdirectory is the workload's scratch space either way
    std::fs::remove_dir_all(&dir).ok();
}

/// Serve workload (`--serve <workers>`, optionally `--shards <k>`):
/// drive a live serving layer with a mixed query stream from `workers`
/// threads while a mutator injects delta batches that swap epochs
/// mid-run. Without `--shards` the target is one whole-graph
/// [`octopus_core::serve::OctopusService`]; with it, a
/// [`octopus_core::serve::ShardedService`] over `k` disjoint copies of
/// the citation network (one copy per shard), so routed deltas rebuild
/// 1/k of the corpus and the swap trajectory is per-shard.
///
/// `--budget-ms <ms>` gives every query that deadline budget, routing it
/// through the anytime operators; `--shed` puts a deliberately tiny
/// admission controller in front of the target (2 execution slots,
/// per-class queues of 2) so an overload run sheds instead of queueing
/// without bound — the run then *requires* a nonzero but bounded shed
/// rate and gates the p99 of **admitted** queries (shed queries never
/// execute and contribute no latency sample). Returns whether the run
/// was healthy (zero query errors, every batch swapped, p99 under the
/// guardrail, shed contract honored) — the CI perf-smoke/soak gate.
fn serve_workload(
    s: &Scale,
    workers: usize,
    shards: Option<usize>,
    p99_guard: Option<std::time::Duration>,
    budget_ms: Option<u64>,
    shed: bool,
    rec: &mut BenchRecord,
) -> bool {
    use octopus_bench::serve_load::{self, ServeLoadConfig};
    use octopus_core::serve::{AdmissionConfig, OctopusService, QueryService, ShardedService};
    use octopus_core::QueryBudget;
    use std::time::Duration;
    println!(
        "\n================ SERVE: concurrent serving under delta churn ({workers} workers{}{}{}) ================",
        match shards {
            Some(k) => format!(", {k} shards"),
            None => String::new(),
        },
        match budget_ms {
            Some(ms) => format!(", {ms}ms budget"),
            None => String::new(),
        },
        if shed { ", shed-on-overload" } else { "" }
    );
    let net = citation_sized(s.citation_authors, s.citation_papers);
    // private cache subdir (same reasoning as the delta workload): every
    // swapped epoch is persisted there, without touching the user's
    // warmed cache dir
    let dir = ARTIFACT_CACHE
        .get()
        .cloned()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("serve-workload-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = OctopusConfig {
        kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
        piks_index_size: 1024,
        k_max: 25,
        ..Default::default()
    };
    // the overload leg's deliberately tiny controller: 2 slots, 2 queued
    // per class — with workers ≫ slots the bounded queues must shed
    let admission = AdmissionConfig {
        max_inflight: 2,
        queue_caps: [2, 2, 2],
    };
    let t0 = Instant::now();
    let service: Box<dyn QueryService> = match shards {
        None => {
            let engine = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config, &dir)
                .expect("epoch 0 builds")
                .with_user_keywords(user_keywords(&net));
            let mut service = OctopusService::with_cache_dir(engine, &dir);
            if shed {
                service = service.with_admission(admission);
            }
            Box::new(service)
        }
        Some(k) => {
            let union = octopus_bench::workloads::disjoint_copies(&net, k);
            let mut service = ShardedService::with_options(
                union,
                net.model.clone(),
                config,
                k,
                Some(dir.clone()),
                false,
                user_keywords(&net),
            )
            .expect("shard engines build");
            if shed {
                service = service.with_admission(admission);
            }
            Box::new(service)
        }
    };
    let t_epoch0 = t0.elapsed();
    rec.stage("epoch0-build", t_epoch0);
    println!(
        "workload: {} researchers, {} edges ×{} shard(s); epoch 0 built in {}",
        net.graph.node_count(),
        net.graph.edge_count(),
        service.shard_count(),
        fmt_duration(t_epoch0)
    );
    let cfg = ServeLoadConfig {
        workers,
        min_queries_per_worker: s.serve_queries_per_worker,
        delta_batches: 4,
        edges_per_batch: 3,
        batch_pause: Duration::from_millis(40),
        budget: match budget_ms {
            Some(ms) => QueryBudget::deadline(Duration::from_millis(ms)),
            None => QueryBudget::unlimited(),
        },
        ..Default::default()
    };
    let report = serve_load::run(service.as_ref(), &net, &cfg);
    std::fs::remove_dir_all(&dir).ok();
    for op in &report.per_op {
        rec.op(
            op.operator.label(),
            Quantiles::from_durations(op.p50, op.p95, op.p99, op.max, op.queries),
        );
    }
    rec.note("throughput_qps", report.throughput)
        .note("total_queries", report.total_queries as f64)
        .note("epoch_swaps", report.swaps.len() as f64)
        .note("deltas_applied", report.deltas_applied as f64)
        .note("shards", report.shards as f64)
        .note("shed_total", report.total_shed as f64)
        .note("shed_rate", report.shed_rate());

    let mut t = Table::new(
        format!(
            "SERVE: per-operator latency of admitted queries ({} workers, {} queries, {} wall)",
            workers,
            report.total_queries,
            fmt_duration(report.wall)
        ),
        &[
            "operator", "queries", "errors", "shed", "q/s", "p50", "p95", "p99", "max",
        ],
    );
    for op in &report.per_op {
        t.row(vec![
            op.operator.label().to_string(),
            op.queries.to_string(),
            op.errors.to_string(),
            op.shed.to_string(),
            format!("{:.0}", op.throughput),
            fmt_duration(op.p50),
            fmt_duration(op.p95),
            fmt_duration(op.p99),
            fmt_duration(op.max),
        ]);
    }
    emit(&t);

    let mut ts = Table::new(
        "SERVE: per-shard swap trajectory (rebuilds overlap serving)",
        &[
            "shard",
            "epoch",
            "deltas",
            "rebuild",
            "piks worlds reused",
            "stages rebuilt",
        ],
    );
    for swap in &report.swaps {
        let piks = swap
            .report
            .stage_reuse
            .iter()
            .find(|x| x.stage == "piks-worlds")
            .expect("piks stage reported");
        let rebuilt: Vec<&str> = swap
            .report
            .stage_reuse
            .iter()
            .filter(|x| !x.is_full())
            .map(|x| x.stage)
            .collect();
        ts.row(vec![
            swap.shard.to_string(),
            swap.report.epoch.to_string(),
            swap.report.deltas_applied.to_string(),
            fmt_duration(swap.report.rebuild_time),
            format!("{}/{}", piks.reused, piks.total),
            if rebuilt.is_empty() {
                "none (full hit)".to_string()
            } else {
                rebuilt.join(", ")
            },
        ]);
    }
    emit(&ts);
    let shards_touched = {
        let mut touched: Vec<usize> = report.swaps.iter().map(|s| s.shard).collect();
        touched.sort_unstable();
        touched.dedup();
        touched.len()
    };
    println!(
        "aggregate: {:.0} q/s across operators; epochs observed {}..={}; {} deltas applied over {} swaps touching {}/{} shard(s)\n",
        report.throughput,
        report.epochs_observed.0,
        report.epochs_observed.1,
        report.deltas_applied,
        report.swaps.len(),
        shards_touched,
        report.shards,
    );

    let mut healthy = true;
    if report.total_errors > 0 {
        eprintln!("[serve] FAIL: {} query errors", report.total_errors);
        healthy = false;
    }
    if report.batches_failed > 0 {
        eprintln!(
            "[serve] FAIL: {} delta batches failed",
            report.batches_failed
        );
        healthy = false;
    }
    if report.swaps.len() < cfg.delta_batches {
        eprintln!(
            "[serve] FAIL: only {}/{} delta batches swapped an epoch",
            report.swaps.len(),
            cfg.delta_batches
        );
        healthy = false;
    }
    // the overload contract: under --shed, p99 of *admitted* queries is
    // always gated — against --serve-p99-ms when given, else a default
    // derived from the budget deadline. The multiplier budgets for the
    // bounded pipeline an admitted query can sit behind: ~3 dispatch
    // generations (2-deep class queue over 2 slots), each generation an
    // execution that may overshoot the deadline by one refinement chunk
    // (deadlines are checked at chunk boundaries only), with epoch
    // rebuilds sharing the rayon pool — but the queue caps keep the
    // whole thing bounded by construction, which is what the gate pins:
    // shed-not-queue means latency stays O(deadline), never unbounded
    let p99_guard = if shed {
        Some(p99_guard.unwrap_or_else(|| {
            Duration::from_millis(budget_ms.unwrap_or(50) * 20).max(Duration::from_millis(1000))
        }))
    } else {
        p99_guard
    };
    if let Some(guard) = p99_guard {
        for op in &report.per_op {
            if op.p99 > guard {
                eprintln!(
                    "[serve] FAIL: {} p99 {} exceeds the {} guardrail",
                    op.operator.label(),
                    fmt_duration(op.p99),
                    fmt_duration(guard)
                );
                healthy = false;
            }
        }
    }
    if shed {
        println!(
            "[serve] shed {} of {} queries ({:.1}% shed rate) under admission control",
            report.total_shed,
            report.total_queries,
            report.shed_rate() * 100.0
        );
        if report.total_shed == 0 {
            eprintln!("[serve] FAIL: overload leg shed nothing — admission control never engaged");
            healthy = false;
        }
        if report.shed_rate() > 0.95 {
            eprintln!(
                "[serve] FAIL: shed rate {:.1}% — admission starved the serving layer",
                report.shed_rate() * 100.0
            );
            healthy = false;
        }
    } else if report.total_shed > 0 {
        eprintln!(
            "[serve] FAIL: {} queries shed without admission control configured",
            report.total_shed
        );
        healthy = false;
    }
    if healthy {
        println!(
            "[serve] OK: zero errors across {} queries racing {} epoch swaps",
            report.total_queries,
            report.swaps.len()
        );
    }
    healthy
}

/// The closed ingestion loop (`--ingest <workers>`): stamp a citation
/// action log into a timed stream, open the serving layer on a model fit
/// from the stream's warm-up prefix, then replay the tail through a
/// bounded channel — refitting the TIC model warm once per window,
/// diffing the learned weights into id-stable `SetWeights` deltas,
/// batching them by topic footprint, and flushing them into the live
/// service — while `workers` threads query that same service through the
/// unified [`Query`](octopus_core::serve::Query) entry point the whole
/// time. Health gates: zero
/// query errors, ≥ 2 epoch swaps landed while serving, and per-topic
/// weight-unit reuse > 0 (the OCTA v5 payoff the batcher protects).
/// With `--shards k` the loop drives the scatter-gather layer over a
/// k-copy network; learned-only edges are deferred either way, so every
/// delta is routable weight traffic.
fn ingest_workload(
    s: &Scale,
    workers: usize,
    shards: Option<usize>,
    rec: &mut BenchRecord,
) -> bool {
    use octopus_bench::serve_load::{percentile, MixPools};
    use octopus_core::serve::ingest::WEIGHT_STAGES;
    use octopus_core::serve::{
        IngestPipeline, OctopusService, Query, QueryService, ShardedService, WindowReport,
    };
    use octopus_core::QueryBudget;
    use octopus_data::{
        stream, ActionLog, NewEdgePolicy, StreamConfig, StreamEvent, WindowedLearner,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::time::Duration;

    // the same seeded operator mix the serve workload drives, built on
    // the unified entry point
    fn mix(rng: &mut SmallRng, pools: &MixPools) -> Query {
        let roll = rng.random_range(0..100u32);
        if roll < 40 {
            let q = &pools.queries[rng.random_range(0..pools.queries.len())];
            Query::FindInfluencers {
                query: q.clone(),
                k: rng.random_range(1..=8usize),
            }
        } else if roll < 60 {
            let u = &pools.users[rng.random_range(0..pools.users.len())];
            Query::SuggestKeywords {
                user: u.clone(),
                k: 2,
            }
        } else if roll < 75 {
            let u = &pools.users[rng.random_range(0..pools.users.len())];
            let q = &pools.queries[rng.random_range(0..pools.queries.len())];
            Query::ExplorePaths {
                user: u.clone(),
                direction: ExploreDirection::Influences,
                query: Some(q.clone()),
            }
        } else if roll < 90 {
            let p = &pools.prefixes[rng.random_range(0..pools.prefixes.len())];
            Query::Autocomplete {
                prefix: p.clone(),
                limit: 10,
            }
        } else {
            let word = &pools.words[rng.random_range(0..pools.words.len())];
            Query::KeywordRadar { word: word.clone() }
        }
    }

    println!(
        "\n================ INGEST: closed loop — stream → learn → diff → batch-by-topic → swap ({workers} query workers{}) ================",
        match shards {
            Some(k) => format!(", {k} shards"),
            None => String::new(),
        }
    );
    let base = citation_sized(s.ingest_authors, s.ingest_papers);
    let net = match shards {
        Some(k) if k > 1 => octopus_bench::workloads::replicated(&base, k),
        _ => base,
    };
    let names: Vec<String> = net
        .graph
        .nodes()
        .map(|u| net.graph.name(u).unwrap_or("").to_string())
        .collect();
    let vocab = net.model.vocab().clone();
    let opts = EmOptions {
        max_iters: 6,
        ..Default::default()
    };

    // stamp the log into a stream: the first 60% is the warm-up prefix
    // the serving layer opens on, the tail is what the loop ingests
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
    let t0 = Instant::now();
    let warm = TicEm::new(opts.clone()).fit(&warmup_log, vocab.clone(), names.clone());
    let t_warm = t0.elapsed();
    rec.stage("warmup-fit", t_warm);
    let total_topics = warm.graph.num_topics();

    // the engines open on the warm-up model WITH a cache dir: the swaps
    // must exercise per-topic unit reuse, which is what the loop is for
    let dir = ARTIFACT_CACHE
        .get()
        .cloned()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("ingest-workload-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = OctopusConfig {
        kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
        piks_index_size: 1024,
        k_max: 25,
        ..Default::default()
    };
    let t0 = Instant::now();
    let service: Box<dyn QueryService> = match shards {
        None => {
            let engine =
                Octopus::open_or_build(warm.graph.clone(), warm.model.clone(), config, &dir)
                    .expect("warm-up epoch builds")
                    .with_user_keywords(user_keywords(&net));
            Box::new(OctopusService::with_cache_dir(engine, &dir))
        }
        Some(k) => {
            let service = ShardedService::with_options(
                warm.graph.clone(),
                warm.model.clone(),
                config,
                k,
                Some(dir.clone()),
                false,
                user_keywords(&net),
            )
            .expect("shard engines build");
            Box::new(service)
        }
    };
    let t_epoch0 = t0.elapsed();
    rec.stage("epoch0-build", t_epoch0);
    println!(
        "workload: {} researchers, {} learned edges ×{} shard(s); warm-up fit {} over {} actions, epoch 0 built in {}",
        net.graph.node_count(),
        warm.graph.edge_count(),
        service.shard_count(),
        fmt_duration(t_warm),
        split,
        fmt_duration(t_epoch0),
    );

    let pools = MixPools::from_network(&net);
    let service: &dyn QueryService = service.as_ref();
    // the 0.005 threshold keeps deltas entry-sparse: sub-threshold moves
    // stay at the served value bitwise (and accumulate across windows),
    // so each delta's footprint is the materially moving topics only
    let mut learner = WindowedLearner::new(
        opts,
        vocab,
        names,
        warmup_log,
        warm,
        NewEdgePolicy::Defer,
        0.005,
    );
    // cap 2 topics per batch, at most 6 swaps per window: the confined
    // flushes carry the reuse payoff, the budget bounds rebuild work
    let mut pipeline = IngestPipeline::new(service, 2, total_topics).with_flush_budget(6);
    let tail: Vec<stream::Action> = actions[split..].to_vec();
    let tail_len = tail.len();
    let window_size = (tail_len / s.ingest_windows.max(2)).max(1);

    struct QueryLog {
        latencies: Vec<Duration>,
        issued: u64,
        errors: u64,
        epochs: Option<(u64, u64)>,
    }
    let stop = AtomicBool::new(false);
    let mut window_rows: Vec<(WindowReport, usize, usize, u64)> = Vec::new();
    let mut loop_error: Option<String> = None;
    let run_start = Instant::now();

    let query_logs: Vec<QueryLog> = std::thread::scope(|sc| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let pools = &pools;
            let stop = &stop;
            handles.push(sc.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x16E5_7000 + w as u64);
                let mut log = QueryLog {
                    latencies: Vec::new(),
                    issued: 0,
                    errors: 0,
                    epochs: None,
                };
                // run until the loop closes; the floor makes even a
                // degenerate instant loop issue real traffic
                while log.issued < 20 || !stop.load(SeqCst) {
                    let query = mix(&mut rng, pools);
                    match service.execute(&query, &QueryBudget::unlimited()) {
                        Ok(a) => {
                            log.latencies.push(a.latency);
                            log.epochs = Some(match log.epochs {
                                None => (a.epoch, a.epoch),
                                Some((lo, hi)) => (lo.min(a.epoch), hi.max(a.epoch)),
                            });
                        }
                        Err(_) => log.errors += 1,
                    }
                    log.issued += 1;
                }
                log
            }));
        }

        // the ingest driver: consume the bounded replay, close a window
        // every `window_size` actions, refit, batch, flush
        let rx = stream::spawn_replay(tail, 256);
        let mut in_window = 0u64;
        let mut watermark = 0u64;
        let mut consumed = 0usize;
        for action in rx.iter() {
            watermark = watermark.max(action.at_ms);
            learner.observe(&action);
            in_window += 1;
            consumed += 1;
            if in_window as usize >= window_size || consumed == tail_len {
                let pre = learner.shadow().clone();
                let closed = Instant::now();
                let outcome = match learner.fit_window() {
                    Ok(o) => o,
                    Err(e) => {
                        loop_error = Some(format!("window fit failed: {e}"));
                        break;
                    }
                };
                let (iters, deferred) = (outcome.iterations, outcome.edges_deferred);
                match pipeline.submit_window(outcome.deltas, &pre, in_window, watermark, closed) {
                    Ok(report) => window_rows.push((report, iters, deferred, in_window)),
                    Err(e) => {
                        loop_error = Some(format!("window flush failed: {e}"));
                        break;
                    }
                }
                in_window = 0;
            }
        }
        stop.store(true, SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .collect()
    });
    let wall = run_start.elapsed();
    std::fs::remove_dir_all(&dir).ok();
    let stats = pipeline.stats().clone();

    let mut tw = Table::new(
        "INGEST: per-window fit → batch → swap trajectory",
        &[
            "window",
            "actions",
            "em iters",
            "deltas",
            "batches",
            "topics",
            "swaps",
            "deferred",
            "act→serve",
        ],
    );
    for (report, iters, deferred, acts) in &window_rows {
        tw.row(vec![
            report.window.to_string(),
            acts.to_string(),
            iters.to_string(),
            report.deltas.to_string(),
            report.batches.to_string(),
            report.topics_touched.to_string(),
            report.swaps.len().to_string(),
            deferred.to_string(),
            fmt_duration(report.latency),
        ]);
    }
    emit(&tw);

    let mut tsw = Table::new(
        "INGEST: weight-stage unit reuse per swap (per-topic invalidation payoff)",
        &[
            "window",
            "shard",
            "epoch",
            "deltas",
            "rebuild",
            "weight units reused",
        ],
    );
    for (report, ..) in &window_rows {
        for swap in &report.swaps {
            let (reused, total) = swap
                .report
                .stage_reuse
                .iter()
                .filter(|x| WEIGHT_STAGES.contains(&x.stage))
                .fold((0u64, 0u64), |(r, t), x| {
                    (r + x.reused as u64, t + x.total as u64)
                });
            tsw.row(vec![
                report.window.to_string(),
                swap.shard.to_string(),
                swap.report.epoch.to_string(),
                swap.report.deltas_applied.to_string(),
                fmt_duration(swap.report.rebuild_time),
                format!("{reused}/{total}"),
            ]);
        }
    }
    emit(&tsw);

    let mut samples: Vec<Duration> = Vec::new();
    let mut issued = 0u64;
    let mut errors = 0u64;
    let mut epochs: Option<(u64, u64)> = None;
    for log in query_logs {
        samples.extend(log.latencies);
        issued += log.issued;
        errors += log.errors;
        if let Some((lo, hi)) = log.epochs {
            epochs = Some(match epochs {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
    }
    let total_deferred: usize = window_rows.iter().map(|(_, _, d, _)| d).sum();
    let (p50, p95, p99) = (
        percentile(&mut samples, 50.0),
        percentile(&mut samples, 95.0),
        percentile(&mut samples, 99.0),
    );
    let max_lat = samples.last().copied().unwrap_or(Duration::ZERO);
    println!(
        "aggregate: {} actions → {} windows → {} batches → {} swaps; {:.1}% weight-unit reuse; \
         watermark {} ms; {} queries ({:.0} q/s, {} errors) across epochs {:?} in {}",
        stats.actions_consumed,
        stats.windows_fit,
        stats.batches_flushed,
        stats.swaps,
        stats.reuse_ratio() * 100.0,
        stats.watermark_ms,
        issued,
        issued as f64 / wall.as_secs_f64().max(1e-9),
        errors,
        epochs,
        fmt_duration(wall),
    );

    rec.op(
        "ingest-mix",
        Quantiles::from_durations(p50, p95, p99, max_lat, samples.len() as u64),
    );
    rec.note("ingest_actions", stats.actions_consumed as f64)
        .note("ingest_windows", stats.windows_fit as f64)
        .note("ingest_deltas", stats.deltas_submitted as f64)
        .note("ingest_batches", stats.batches_flushed as f64)
        .note("ingest_swaps", stats.swaps as f64)
        .note("ingest_weights_moved", stats.weights_moved as f64)
        .note("ingest_topics_touched", stats.topics_touched as f64)
        .note("ingest_weight_reuse_ratio", stats.reuse_ratio())
        .note("ingest_deferred_edges", total_deferred as f64)
        .note("ingest_queries", issued as f64)
        .note("ingest_query_errors", errors as f64)
        .note(
            "ingest_query_qps",
            issued as f64 / wall.as_secs_f64().max(1e-9),
        )
        .note("ingest_window_max_ms", record::ms(stats.max_window_latency))
        .note("ingest_watermark_ms", stats.watermark_ms as f64);

    let mut healthy = true;
    if let Some(e) = &loop_error {
        eprintln!("[ingest] FAIL: {e}");
        healthy = false;
    }
    if errors > 0 {
        eprintln!("[ingest] FAIL: {errors} query errors while the loop ran");
        healthy = false;
    }
    if stats.swaps < 2 {
        eprintln!(
            "[ingest] FAIL: only {} epoch swaps landed — the loop never closed twice",
            stats.swaps
        );
        healthy = false;
    }
    if stats.reuse_ratio() <= 0.0 {
        eprintln!(
            "[ingest] FAIL: zero per-topic weight-unit reuse — every flush rebuilt every topic"
        );
        healthy = false;
    }
    if stats.batches_dropped > 0 {
        eprintln!(
            "[ingest] FAIL: {} delta batches dropped as terminal",
            stats.batches_dropped
        );
        healthy = false;
    }
    if healthy {
        println!(
            "[ingest] OK: {} swaps landed under live queries with {:.1}% weight-unit reuse and zero query errors",
            stats.swaps,
            stats.reuse_ratio() * 100.0
        );
    }
    healthy
}

/// Quality-vs-budget sweep (`--budget-sweep`): run the anytime
/// `find_influencers` at increasing sample budgets against the exact run
/// and append the recall@k curve to the `serve` trajectory, so the
/// referee gates *answer quality* across commits, not just latency. Also
/// asserts the degraded path's determinism contract: at a fixed sample
/// budget a repeat run must be bit-identical.
fn budget_sweep_workload(s: &Scale, rec: &mut BenchRecord) -> bool {
    use octopus_core::serve::Query;
    use octopus_core::QueryBudget;
    println!(
        "\n================ BUDGET SWEEP: answer quality vs per-query sample budget ================"
    );
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let (engine, _) = engine_with(&net, KimEngineChoice::BestEffort(BoundKind::Precomputation));
    let queries = citation_queries();
    let k = 5usize;
    let budgets = [32usize, 128, 512, 2048];
    let exact: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| {
            engine
                .find_influencers(q, k)
                .expect("exact answer")
                .result
                .seeds
        })
        .collect();
    let mut t = Table::new(
        format!("BUDGET SWEEP: recall@{k} of anytime find-influencers vs the exact run"),
        &[
            "budget (RR sets)",
            "recall",
            "mean bound width",
            "mean samples used",
            "sweep time",
        ],
    );
    let mut healthy = true;
    let mut curve: Vec<(usize, f64)> = Vec::new();
    for &b in &budgets {
        let budget = QueryBudget::samples(b);
        let (mut hits, mut total) = (0usize, 0usize);
        let (mut width, mut used) = (0.0f64, 0usize);
        let t0 = Instant::now();
        for (q, ex) in queries.iter().zip(&exact) {
            let query = Query::FindInfluencers {
                query: q.to_string(),
                k,
            };
            let run = || {
                let response = engine.execute(&query, &budget).expect("budgeted answer");
                response.into_influencers().expect("influencer query")
            };
            let a = run();
            // determinism at a fixed budget: a repeat must be bit-identical
            let again = run();
            if a.value.result.seeds != again.value.result.seeds
                || a.value.result.spread.to_bits() != again.value.result.spread.to_bits()
            {
                eprintln!("[budget-sweep] FAIL: budget {b} is not deterministic on {q:?}");
                healthy = false;
            }
            hits += a
                .value
                .result
                .seeds
                .iter()
                .filter(|seed| ex.contains(seed))
                .count();
            total += ex.len();
            width += a.bound.upper - a.bound.lower;
            used += a.bound.samples_used;
        }
        let elapsed = t0.elapsed();
        let recall = hits as f64 / total.max(1) as f64;
        let nq = queries.len().max(1) as f64;
        t.row(vec![
            b.to_string(),
            format!("{recall:.3}"),
            format!("{:.2}", width / nq),
            format!("{:.0}", used as f64 / nq),
            fmt_duration(elapsed),
        ]);
        rec.note(&format!("recall_at_k_b{b}"), recall);
        curve.push((b, recall));
    }
    emit(&t);
    // advisory (the referee's cross-run quality gate is the hard check):
    // a fixed-seed curve should be monotone-ish in the budget
    for w in curve.windows(2) {
        if w[1].1 + 0.15 < w[0].1 {
            eprintln!(
                "[budget-sweep] WARN: recall dropped {:.3} -> {:.3} when the budget grew {} -> {}",
                w[0].1, w[1].1, w[0].0, w[1].0
            );
        }
    }
    let (lo, hi) = (
        curve.first().expect("nonempty"),
        curve.last().expect("nonempty"),
    );
    println!(
        "[budget-sweep] recall@{k} {:.3} at {} RR sets -> {:.3} at {} RR sets across {} queries\n",
        lo.1,
        lo.0,
        hi.1,
        hi.0,
        queries.len()
    );
    healthy
}

/// Bit-exact answer signature of the five online operators — two engines
/// serving the same artifact must produce byte-for-byte equal signatures
/// (floats enter as their IEEE bit patterns, not display roundings).
fn open_bench_signature(e: &Octopus, target: NodeId, queries: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut sig = String::new();
    let mut top_name = String::new();
    for q in queries {
        match e.find_influencers(q, 5) {
            Ok(a) => {
                let _ = write!(sig, "kim:{q}:{:016x};", a.result.spread.to_bits());
                for s in &a.seeds {
                    let _ = write!(sig, "{}:{}:{};", s.node.0, s.name, s.rank);
                }
                for v in a.gamma.as_slice() {
                    let _ = write!(sig, "{:016x},", v.to_bits());
                }
                if top_name.is_empty() {
                    top_name = a.seeds[0].name.clone();
                }
            }
            Err(err) => {
                let _ = write!(sig, "kim:{q}:err={err};");
            }
        }
    }
    match e.suggest_keywords_for(target, 2) {
        Ok(a) => {
            let _ = write!(
                sig,
                "piks:{}:{:016x};",
                a.words.join("|"),
                a.result.spread.to_bits()
            );
            for v in &a.radar.values {
                let _ = write!(sig, "{:016x},", v.to_bits());
            }
        }
        Err(err) => {
            let _ = write!(sig, "piks:err={err};");
        }
    }
    for dir in [ExploreDirection::Influences, ExploreDirection::InfluencedBy] {
        match e.explore_paths(&top_name, dir, Some(queries[0])) {
            Ok(ex) => {
                let _ = write!(
                    sig,
                    "mia:{dir:?}:{}:{:016x}:{};",
                    ex.reached,
                    ex.influence.to_bits(),
                    ex.d3_json
                );
            }
            Err(err) => {
                let _ = write!(sig, "mia:{dir:?}:err={err};");
            }
        }
    }
    for prefix in ["a", "j", "zz-no-such-user"] {
        let _ = write!(sig, "trie:{prefix}:");
        for (node, name, score) in e.autocomplete(prefix, 8) {
            let _ = write!(sig, "{}:{}:{:016x},", node.0, name, score.to_bits());
        }
        sig.push(';');
    }
    match e.keyword_radar("data mining") {
        Ok(r) => {
            let _ = write!(sig, "radar:{};", r.axes.join("|"));
            for v in &r.values {
                let _ = write!(sig, "{:016x},", v.to_bits());
            }
        }
        Err(err) => {
            let _ = write!(sig, "radar:err={err};");
        }
    }
    sig
}

/// Open-bench workload (`--open-bench`): quantify what mapping the v5
/// container buys at engine startup. Builds the citation artifact cold,
/// then opens the same bytes onto the heap (full read + decode) and mapped
/// (O(pages-touched) structural validation, lazy per-section checksums)
/// and reports open wall time, the map/validate/decode split, first-query
/// latency, and RSS growth — asserting bit-identical answers across all
/// five operators. Returns false (→ exit 1) on any divergence.
fn open_bench_workload(s: &Scale, paranoid: bool, rec: &mut BenchRecord) -> bool {
    use record::{current_rss_kb, ms};
    println!(
        "\n================ OPEN-BENCH: heap open vs mapped open{} ================",
        if paranoid { " (paranoid)" } else { "" }
    );
    let net = citation_sized(s.citation_authors, s.citation_papers);
    let dir = ARTIFACT_CACHE
        .get()
        .cloned()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("open-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = OctopusConfig {
        kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
        piks_index_size: 1024,
        k_max: 25,
        ..Default::default()
    };

    // cold: pay the offline build once, leaving the artifact on disk
    let t0 = Instant::now();
    let built = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("cold build");
    let t_build = t0.elapsed();
    assert!(!built.cache_hit(), "open-bench scratch dir must start cold");
    drop(built);
    println!(
        "workload: {} researchers, {} edges; offline build {} (artifact written)",
        net.graph.node_count(),
        net.graph.edge_count(),
        fmt_duration(t_build)
    );

    // heap open: read + checksum + decode every section, then serve the
    // read bytes off the heap
    let rss0 = current_rss_kb();
    let t0 = Instant::now();
    let owned = Octopus::open_or_build(net.graph.clone(), net.model.clone(), config.clone(), &dir)
        .expect("heap open");
    let t_owned = t0.elapsed();
    let owned_rss = current_rss_kb().saturating_sub(rss0);
    assert!(owned.cache_hit() && !owned.is_mapped());

    // mapped open: validate framing, borrow the page cache, decode nothing
    let rss0 = current_rss_kb();
    let t0 = Instant::now();
    let mapped = if paranoid {
        Octopus::open_mapped_paranoid(net.graph.clone(), net.model.clone(), config.clone(), &dir)
    } else {
        Octopus::open_mapped(net.graph.clone(), net.model.clone(), config, &dir)
    }
    .expect("mapped open");
    let t_mapped = t0.elapsed();
    let mapped_rss = current_rss_kb().saturating_sub(rss0);
    assert!(mapped.cache_hit() && mapped.is_mapped());

    // first query on each engine: the mapped engine pays its lazy
    // per-section checksums here, which is part of the honest comparison
    let queries: Vec<&str> = citation_queries().into_iter().take(3).collect();
    let target = prolific_users(&net, 1)[0];
    let t0 = Instant::now();
    let _ = owned.find_influencers(queries[0], 10);
    let owned_first = t0.elapsed();
    let t0 = Instant::now();
    let _ = mapped.find_influencers(queries[0], 10);
    let mapped_first = t0.elapsed();

    let stage_of = |e: &Octopus, name: &str| {
        e.stage_timings()
            .iter()
            .find(|t| t.stage == name)
            .map(|t| t.duration)
    };
    let fmt_opt = |d: Option<std::time::Duration>| match d {
        Some(d) => fmt_duration(d),
        None => "—".to_string(),
    };
    let mut t = Table::new(
        "OPEN-BENCH: startup cost, same artifact bytes",
        &["metric", "heap (read + decode)", "mapped (zero-copy)"],
    );
    t.row(vec![
        "cold open".into(),
        fmt_duration(t_owned),
        fmt_duration(t_mapped),
    ]);
    for stage in [
        octopus_core::offline::persist::STAGE_ARTIFACT_MAP,
        octopus_core::offline::persist::STAGE_ARTIFACT_VALIDATE,
        octopus_core::offline::persist::STAGE_ARTIFACT_DECODE,
    ] {
        t.row(vec![
            stage.to_string(),
            fmt_opt(stage_of(&owned, stage)),
            fmt_opt(stage_of(&mapped, stage)),
        ]);
    }
    t.row(vec![
        "first find_influencers".into(),
        fmt_duration(owned_first),
        fmt_duration(mapped_first),
    ]);
    t.row(vec![
        "RSS growth".into(),
        format!("{owned_rss} kB"),
        format!("{mapped_rss} kB"),
    ]);
    emit(&t);

    // the contract: identical bytes → bit-identical answers, both backings
    let sig_owned = open_bench_signature(&owned, target, &queries);
    let sig_mapped = open_bench_signature(&mapped, target, &queries);
    let identical = sig_owned == sig_mapped;
    if identical {
        println!(
            "[open-bench] OK: all five operators answer bit-identically on both backings ({} signature bytes)",
            sig_owned.len()
        );
    } else {
        let at = sig_owned
            .bytes()
            .zip(sig_mapped.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(sig_owned.len().min(sig_mapped.len()));
        eprintln!(
            "[open-bench] FAIL: heap and mapped answers diverge at signature byte {at}: heap …{:?} vs mapped …{:?}",
            &sig_owned[at.saturating_sub(24)..(at + 24).min(sig_owned.len())],
            &sig_mapped[at.saturating_sub(24)..(at + 24).min(sig_mapped.len())],
        );
    }
    println!(
        "[open-bench] mapped cold-open {} vs heap open {} ({:.1}x)",
        fmt_duration(t_mapped),
        fmt_duration(t_owned),
        t_owned.as_secs_f64() / t_mapped.as_secs_f64().max(1e-9)
    );

    // steady-state latency quantiles off the mapped engine (the serving
    // configuration the trajectory tracks)
    let top_name = mapped
        .find_influencers(queries[0], 1)
        .map(|a| a.seeds[0].name.clone())
        .unwrap_or_default();
    let reps = 16usize;
    let mut lat: Vec<(&str, Vec<std::time::Duration>)> = [
        "find_influencers",
        "suggest_keywords",
        "explore_paths",
        "autocomplete",
        "keyword_radar",
    ]
    .iter()
    .map(|n| (*n, Vec::with_capacity(reps)))
    .collect();
    for i in 0..reps {
        let q = queries[i % queries.len()];
        let t0 = Instant::now();
        let _ = mapped.find_influencers(q, 10);
        lat[0].1.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = mapped.suggest_keywords_for(target, 2);
        lat[1].1.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = mapped.explore_paths(&top_name, ExploreDirection::Influences, None);
        lat[2].1.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = mapped.autocomplete("a", 8);
        lat[3].1.push(t0.elapsed());
        let t0 = Instant::now();
        let _ = mapped.keyword_radar("data mining");
        lat[4].1.push(t0.elapsed());
    }
    for (name, mut xs) in lat {
        xs.sort();
        let pct = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
        rec.op(
            name,
            Quantiles::from_durations(
                pct(0.50),
                pct(0.95),
                pct(0.99),
                xs[xs.len() - 1],
                xs.len() as u64,
            ),
        );
    }

    // trajectory record (`owned_*` = the heap backing, names kept stable)
    rec.stage("offline-build", t_build);
    for (prefix, engine) in [("owned", &owned), ("mapped", &mapped)] {
        for st in engine.stage_timings() {
            if st.stage.starts_with("artifact-") {
                rec.stage(&format!("{prefix} {}", st.stage), st.duration);
            }
        }
    }
    rec.note("owned_open_ms", ms(t_owned))
        .note("mapped_open_ms", ms(t_mapped))
        .note("owned_first_query_ms", ms(owned_first))
        .note("mapped_first_query_ms", ms(mapped_first))
        .note("owned_rss_delta_kb", owned_rss as f64)
        .note("mapped_rss_delta_kb", mapped_rss as f64)
        .note(
            "open_speedup",
            t_owned.as_secs_f64() / t_mapped.as_secs_f64().max(1e-9),
        )
        .note("bit_identical", if identical { 1.0 } else { 0.0 });

    drop(owned);
    drop(mapped);
    std::fs::remove_dir_all(&dir).ok();
    identical
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

/// E10 — ablations of the design choices DESIGN.md §5 calls out.
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

/// Dispatch one experiment by name (the single name→fn table, shared by
/// the default sweep and the `--delta` mode's extra picks).
fn run_experiment(name: &str, s: &Scale) {
    match name {
        "e1" => e1(s),
        "e2" => e2(s),
        "e3" => e3(s),
        "e4" => e4(s),
        "e5" => e5(s),
        "e6" => e6(s),
        "e7" => e7(s),
        "e8" => e8(s),
        "e9" => e9(s),
        "e10" => e10(s),
        other => eprintln!("unknown experiment {other:?}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(i) = args.iter().position(|a| a == "--csv") {
        if let Some(dir) = args.get(i + 1) {
            let _ = CSV_DIR.set(std::path::PathBuf::from(dir));
        } else {
            eprintln!("--csv requires a directory argument");
            std::process::exit(2);
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--artifact-cache") {
        if let Some(dir) = args.get(i + 1) {
            let _ = ARTIFACT_CACHE.set(std::path::PathBuf::from(dir));
        } else {
            eprintln!("--artifact-cache requires a directory argument");
            std::process::exit(2);
        }
    }
    let delta_k = match args.iter().position(|a| a == "--delta") {
        Some(i) => match args.get(i + 1).and_then(|k| k.parse::<usize>().ok()) {
            Some(k) if k > 0 => Some(k),
            _ => {
                eprintln!("--delta requires a positive edge count argument");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let serve_workers = match args.iter().position(|a| a == "--serve") {
        Some(i) => match args.get(i + 1).and_then(|w| w.parse::<usize>().ok()) {
            Some(w) if w > 0 => Some(w),
            _ => {
                eprintln!("--serve requires a positive worker count argument");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let ingest_workers = match args.iter().position(|a| a == "--ingest") {
        Some(i) => match args.get(i + 1).and_then(|w| w.parse::<usize>().ok()) {
            Some(w) if w > 0 => Some(w),
            _ => {
                eprintln!("--ingest requires a positive query-worker count argument");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let shards = match args.iter().position(|a| a == "--shards") {
        Some(i) => match args.get(i + 1).and_then(|k| k.parse::<usize>().ok()) {
            Some(k) if k > 0 => Some(k),
            _ => {
                eprintln!("--shards requires a positive shard count argument");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let serve_p99 = match args.iter().position(|a| a == "--serve-p99-ms") {
        Some(i) => match args.get(i + 1).and_then(|ms| ms.parse::<u64>().ok()) {
            Some(ms) if ms > 0 => Some(std::time::Duration::from_millis(ms)),
            _ => {
                eprintln!("--serve-p99-ms requires a positive millisecond argument");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let budget_ms = match args.iter().position(|a| a == "--budget-ms") {
        Some(i) => match args.get(i + 1).and_then(|ms| ms.parse::<u64>().ok()) {
            Some(ms) if ms > 0 => Some(ms),
            _ => {
                eprintln!("--budget-ms requires a positive millisecond argument");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let shed = args.iter().any(|a| a == "--shed");
    let budget_sweep = args.iter().any(|a| a == "--budget-sweep");
    let open_bench = args.iter().any(|a| a == "--open-bench");
    let paranoid = args.iter().any(|a| a == "--paranoid");
    let referee_mode = args.iter().any(|a| a == "--referee");
    if let Some(i) = args.iter().position(|a| a == "--bench-dir") {
        if let Some(dir) = args.get(i + 1) {
            let _ = BENCH_DIR.set(std::path::PathBuf::from(dir));
        } else {
            eprintln!("--bench-dir requires a directory argument");
            std::process::exit(2);
        }
    }
    let mut skip_next = false;
    let picks: Vec<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--csv"
                || *a == "--artifact-cache"
                || *a == "--delta"
                || *a == "--serve"
                || *a == "--ingest"
                || *a == "--shards"
                || *a == "--serve-p99-ms"
                || *a == "--budget-ms"
                || *a == "--bench-dir"
            {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|a| a.to_lowercase())
        .collect();
    let s = scale(quick);

    // one trajectory record per invocation, named after the dominant mode
    let workload = if open_bench {
        "open-bench"
    } else if ingest_workers.is_some() {
        "ingest"
    } else if serve_workers.is_some() || budget_sweep {
        // the quality-vs-budget curve lives in the serve trajectory: it
        // gates the same serving-layer answers
        "serve"
    } else if delta_k.is_some() {
        "delta"
    } else {
        "sweep"
    };
    let descriptor = format!(
        "{workload}|quick={quick}|paranoid={paranoid}|delta={delta_k:?}|serve={serve_workers:?}|ingest={ingest_workers:?}|shards={shards:?}|budget_ms={budget_ms:?}|shed={shed}|sweep={budget_sweep}|picks={picks:?}|authors={}|papers={}",
        s.citation_authors, s.citation_papers
    );
    let mut rec = BenchRecord::new(
        workload,
        fnv1a(descriptor.as_bytes()),
        rayon::current_num_threads(),
    );
    if paranoid {
        rec.note("paranoid", 1.0);
    }

    let t0 = Instant::now();
    let mut healthy = true;
    if open_bench
        || delta_k.is_some()
        || serve_workers.is_some()
        || ingest_workers.is_some()
        || budget_sweep
    {
        // the open-bench, delta, serve, ingest, and budget-sweep modes are
        // their own workloads: run them (plus any explicitly picked
        // experiments) instead of the full default sweep
        if open_bench {
            healthy &= open_bench_workload(&s, paranoid, &mut rec);
        }
        if let Some(k) = delta_k {
            delta_workload(&s, k, shards, &mut rec);
        }
        if let Some(workers) = serve_workers {
            healthy &= serve_workload(&s, workers, shards, serve_p99, budget_ms, shed, &mut rec);
        }
        if let Some(workers) = ingest_workers {
            healthy &= ingest_workload(&s, workers, shards, &mut rec);
        }
        if budget_sweep {
            healthy &= budget_sweep_workload(&s, &mut rec);
        }
        for p in &picks {
            run_experiment(p, &s);
        }
    } else {
        let all = picks.is_empty();
        for name in ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"] {
            if all || picks.iter().any(|p| p == name) {
                let te = Instant::now();
                run_experiment(name, &s);
                rec.stage(name, te.elapsed());
            }
        }
    }
    let wall = t0.elapsed();
    println!("total wall time: {}", fmt_duration(wall));

    // finish and persist the trajectory record; with --referee, gate on
    // the most recent comparable record *before* this run is appended
    rec.note("wall_clock_ms", record::ms(wall));
    rec.peak_rss_kb = record::peak_rss_kb();
    let bdir = bench_dir();
    if referee_mode {
        let verdict = record::referee_check(&bdir, &rec);
        match verdict.baseline_time_s {
            None => println!(
                "[referee] no comparable baseline in {} — first run on this configuration, vacuous pass",
                BenchRecord::trajectory_path(&bdir, workload).display()
            ),
            Some(ts) => {
                if verdict.pass() {
                    println!(
                        "[referee] OK: {} metrics within {:.1}x of the baseline recorded at unix {ts}",
                        verdict.compared,
                        record::REGRESSION_RATIO
                    );
                } else {
                    for r in &verdict.regressions {
                        eprintln!("[referee] REGRESSION {r}");
                    }
                    healthy = false;
                }
            }
        }
    }
    match rec.append_to(&bdir) {
        Ok(path) => println!("[bench] run recorded to {}", path.display()),
        Err(e) => eprintln!("[bench] record write failed: {e}"),
    }
    if !healthy {
        std::process::exit(1);
    }
}
