//! The read side: the query client, closed- or open-loop, and — in a
//! traced run — the [`Replayer`] that decomposes each query into the public
//! calls it consists of.
//!
//! **Closed loop** (`serve_uniform`, `serve_sharded`, `ingest_loop`): the
//! client sends its next query when the previous one returns — a caller
//! that waits for a reply; a slower system receives less load, and
//! throughput is the headline. **Open loop** (`serve_churn`): queries are
//! due on a fixed schedule whatever the system does — independent users;
//! a query runs at its due time or at once if late, its latency counts
//! from the *due* time, so a stall behind a flush or a cache miss is
//! charged to every query that queued behind it, and the generator's own
//! lateness is reported. The open-loop client also carries the workload's
//! [`Writer`]: the flush that is due once per period runs on the client's
//! own thread, so the core the readers and the writer share is shared by
//! construction, not by the host's scheduler.
//!
//! **Why a twin.** Find-influencers answers are cached per engine, so
//! replaying a query on the engine that just served it would time a cache
//! hit. The replay therefore runs on a *twin*: a second engine over the
//! same graph that sees exactly the queries the served engine sees, in
//! the same order, and so holds the same cache state at every step.

use crate::chain::Twins;
use crate::oracle::{signature, Oracle, Signature};
use crate::script::{Script, AUTOCOMPLETE, EXPLORE, FIND, RADAR, SUGGEST};
use crate::trace::{Tracer, EXECUTE, REPLAY};
use crate::world::Service;
use octopus_core::engine::Octopus;
use octopus_core::paths;
use octopus_core::serve::{OctopusService, Query, QueryResponse, ShardedService};
use octopus_core::{Anytime, QueryBudget};
use octopus_topics::TopicDistribution;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pace {
    Closed,
    /// Queries per second of this one client.
    Open(f64),
}

/// One issued query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub op: usize,
    /// Due (open loop) or send (closed loop) time, from the section start.
    pub at: Duration,
    /// From `at` to the answer.
    pub latency: Duration,
    /// What the serving layer itself measured (`Served::latency`).
    pub served: Duration,
    /// How long after its due time the query was actually sent.
    pub late: Duration,
    /// Answered without error by the operator that was asked.
    pub ok: bool,
}

/// The write side of the open loop: `flush` is due at the client's start
/// and every `period` after it, and runs on the client's thread before the
/// query that is due at the same moment.
pub struct Writer<'w> {
    pub period: Duration,
    pub flush: &'w mut dyn FnMut(),
}

/// Run one client until `deadline`: queries `first, first + 1, …` of the
/// script. `replayer` is `Some` in a traced run.
#[allow(clippy::too_many_arguments)]
pub fn client(
    service: &Service,
    script: &Script,
    first: usize,
    pace: Pace,
    start: Instant,
    deadline: Instant,
    mut writer: Option<Writer<'_>>,
    mut replayer: Option<&mut Replayer<'_>>,
) -> Vec<QuerySample> {
    let budget = QueryBudget::unlimited();
    let queries = service.queries();
    let mut samples = Vec::new();
    let mut flush_due = start;
    for n in 0.. {
        let due = match pace {
            Pace::Closed => Instant::now(),
            Pace::Open(qps) => start + Duration::from_secs_f64(n as f64 / qps),
        };
        if due >= deadline {
            break;
        }
        if let Some(w) = writer.as_mut() {
            while flush_due <= due {
                wait_until(flush_due);
                (w.flush)();
                flush_due += w.period;
            }
        }
        let sent = match pace {
            Pace::Closed => due,
            Pace::Open(_) => wait_until(due),
        };
        let query = script.get(first + n);
        let span = replayer.as_mut().map(|r| r.begin());
        let answer = queries.execute(query, &budget);
        let end = Instant::now();
        let ok = answer
            .as_ref()
            .is_ok_and(|a| a.value.operator() == query.operator());
        samples.push(QuerySample {
            op: query.operator().index(),
            at: due - start,
            latency: end - due,
            served: answer.as_ref().map_or(Duration::ZERO, |a| a.latency),
            late: sent - due,
            ok,
        });
        if let (Some(r), Some(span), Ok(answer)) = (replayer.as_mut(), span, &answer) {
            r.replay(service, span, query, answer.epoch, &answer.value);
        }
    }
    samples
}

/// Sleep, then spin, until `due`; returns the time actually reached.
fn wait_until(due: Instant) -> Instant {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Per-layer samples the replay collects, read by `run.rs`.
#[derive(Debug, Default)]
pub struct ReplayStats {
    pub infer_us: Vec<f64>,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub kim_select_ms: Vec<f64>,
    pub kim_exact: u64,
    pub kim_bound: u64,
    pub kim_pruned: u64,
    pub seed_gains_ms: Vec<f64>,
    pub piks_ms: Vec<f64>,
    pub piks_evals: u64,
    pub piks_worlds: u64,
    pub explore_us: Vec<f64>,
    pub tree_nodes: u64,
    pub autocomplete_us: Vec<f64>,
    pub radar_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
    pub epoch_load_ns: Vec<f64>,
    pub shard_overhead_ms: Vec<f64>,
    pub shard_fanout: Vec<f64>,
    pub shard_skew: Vec<f64>,
    /// Answers compared with the twin's (or, sharded, the whole-graph
    /// oracle's), and how many differed.
    pub compared: u64,
    pub mismatched: u64,
    /// Queries whose epoch's twin had already been retired.
    pub unreplayed: u64,
}

/// What the replay runs on.
pub enum Twin<'a> {
    /// The mirror's twin engines, one per epoch.
    Engines(Arc<Mutex<Twins>>),
    /// A second router over the same graph, plus the whole-graph service
    /// sharded answers must equal; both follow the served router's flushes.
    Sharded(&'a ShardedService, &'a OctopusService),
}

pub struct Replayer<'a> {
    pub tracer: Tracer,
    pub stats: ReplayStats,
    twin: Twin<'a>,
}

/// The spans `begin` opened for one query.
pub struct OpenSpans {
    req: u32,
    root: u32,
    execute: u32,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

impl<'a> Replayer<'a> {
    pub fn new(tracer: Tracer, twin: Twin<'a>) -> Self {
        Replayer {
            tracer,
            stats: ReplayStats::default(),
            twin,
        }
    }

    /// Forget what the warm-up recorded; the twin keeps its cache state.
    pub fn reset(&mut self) {
        self.tracer.spans.clear();
        self.stats = ReplayStats::default();
    }

    fn begin(&mut self) -> OpenSpans {
        let req = self.tracer.request();
        let root = self.tracer.open("request", 0, req);
        let execute = self.tracer.open(EXECUTE, root, req);
        OpenSpans { req, root, execute }
    }

    /// Close the parent span and replay `query` layer by layer.
    fn replay(
        &mut self,
        service: &Service,
        span: OpenSpans,
        query: &Query,
        epoch: u64,
        served: &QueryResponse,
    ) {
        let OpenSpans { req, root, execute } = span;
        let execute_ns = self.tracer.close(execute);
        let replay = self.tracer.open(REPLAY, root, req);
        let first_child = self.tracer.spans.len();
        let (_, ns) = self
            .tracer
            .span("core.serve.epoch.load", replay, req, || match service {
                Service::Single(s) => drop(s.snapshot()),
                Service::Sharded(s) => drop(s.snapshots()),
            });
        self.stats.epoch_load_ns.push(ns as f64);
        let wanted = match &self.twin {
            Twin::Engines(twins) => {
                let twin = twins.lock().expect("twins lock").get(epoch);
                match twin {
                    Some(engine) => self.replay_engine(&engine, replay, req, query),
                    None => {
                        self.stats.unreplayed += 1;
                        None
                    }
                }
            }
            Twin::Sharded(router, _) => {
                self.replay_sharded(router, replay, req, query, execute_ns);
                None
            }
        };
        self.tracer.close(replay);
        self.tracer.close(root);
        let wanted = match &self.twin {
            Twin::Engines(_) => wanted,
            Twin::Sharded(router, whole) => Oracle {
                whole: whole.snapshot().engine(),
                router: Some(router),
            }
            .answer(query)
            .ok(),
        };
        let children: u64 = self.tracer.spans[first_child..]
            .iter()
            .filter(|s| s.parent == replay)
            .map(|s| s.ns())
            .sum();
        self.stats
            .overhead_us
            .push(us(execute_ns.saturating_sub(children)));
        if let Some(wanted) = wanted {
            self.stats.compared += 1;
            let sharded = matches!(self.twin, Twin::Sharded(..));
            if !signature(served).matches(&wanted, sharded) {
                self.stats.mismatched += 1;
                eprintln!("traced answer differs from its oracle on {query:?}");
            }
        }
    }

    /// `topics.infer`: resolve the keywords and infer γ, as every
    /// keyword-taking operator does first.
    fn infer(
        &mut self,
        engine: &Octopus,
        parent: u32,
        req: u32,
        text: &str,
    ) -> Option<(
        Vec<octopus_topics::KeywordId>,
        Vec<String>,
        TopicDistribution,
    )> {
        let (out, ns) = self.tracer.span("topics.infer", parent, req, || {
            let (keywords, unknown) = engine.model().vocab().resolve_query(text);
            let gamma = engine.model().infer(&keywords).ok()?;
            Some((keywords, unknown, gamma))
        });
        self.stats.infer_us.push(us(ns));
        out
    }

    /// The decomposed calls of one query on an unsharded twin; returns
    /// the signature of the answer they add up to.
    fn replay_engine(
        &mut self,
        engine: &Octopus,
        parent: u32,
        req: u32,
        query: &Query,
    ) -> Option<Signature> {
        let response = match query {
            Query::FindInfluencers { query, k } => {
                let (keywords, unknown, gamma) = self.infer(engine, parent, req, query)?;
                let (result, ns) = self.tracer.span("core.kim.select", parent, req, || {
                    engine.find_influencers_gamma(&gamma, *k)
                });
                let result = result.ok()?;
                self.stats.cache_lookups += 1;
                if result.stats.answered_from_cache {
                    self.stats.cache_hits += 1;
                    self.tracer.rename_last("core.kim.select", "core.cache.hit");
                } else {
                    self.stats.kim_select_ms.push(ns as f64 / 1e6);
                    self.stats.kim_exact += result.stats.exact_evaluations as u64;
                    self.stats.kim_bound += result.stats.bound_evaluations as u64;
                    self.stats.kim_pruned += result.stats.pruned_candidates as u64;
                }
                // `execute` goes through `find_influencers_budgeted_gamma`,
                // which — cache hit or not — materializes the edge
                // probabilities and re-scores every seed prefix to report
                // per-seed gains (and `find_influencers_budgeted` drops them)
                let (_, ns) = self.tracer.span("mia.seed_gains", parent, req, || {
                    let Ok(probs) = engine.graph().materialize(gamma.as_slice()) else {
                        return;
                    };
                    for i in 1..=result.seeds.len() {
                        std::hint::black_box(octopus_mia::mia_spread_set(
                            engine.graph(),
                            &probs,
                            &result.seeds[..i],
                            engine.config().mia_theta,
                        ));
                    }
                });
                self.stats.seed_gains_ms.push(ns as f64 / 1e6);
                let seeds = result
                    .seeds
                    .iter()
                    .enumerate()
                    .map(|(rank, &node)| octopus_core::engine::SeedInfo {
                        node,
                        name: engine
                            .graph()
                            .name(node)
                            .map_or_else(|| node.0.to_string(), str::to_string),
                        rank,
                    })
                    .collect();
                let spread = result.spread;
                QueryResponse::Influencers(Anytime::exact(
                    octopus_core::engine::KimAnswer {
                        keywords,
                        unknown,
                        gamma,
                        seeds,
                        result,
                        elapsed: Duration::ZERO,
                    },
                    spread,
                ))
            }
            Query::SuggestKeywords { user, k } => {
                let (answer, ns) = self.tracer.span("core.piks.suggest", parent, req, || {
                    engine.suggest_keywords(user, *k)
                });
                let answer = answer.ok()?;
                self.stats.piks_ms.push(ns as f64 / 1e6);
                self.stats.piks_evals += answer.result.stats.evaluations as u64;
                self.stats.piks_worlds += answer.result.stats.worlds_materialized as u64;
                let spread = answer.result.spread;
                QueryResponse::Suggestions(Anytime::exact(answer, spread))
            }
            Query::ExplorePaths {
                user,
                direction,
                query,
            } => {
                let root = engine.graph().node_by_name(user)?;
                let (_, _, gamma) = self.infer(engine, parent, req, query.as_deref()?)?;
                let config = engine.config();
                let (explored, ns) = self.tracer.span("mia.explore", parent, req, || {
                    paths::explore(
                        engine.graph(),
                        root,
                        &gamma,
                        config.mia_theta,
                        *direction,
                        config.top_paths,
                    )
                });
                let explored = explored.ok()?;
                self.stats.explore_us.push(us(ns));
                self.stats.tree_nodes += explored.reached as u64;
                let influence = explored.influence;
                QueryResponse::Paths(Anytime::exact(explored, influence))
            }
            Query::Autocomplete { prefix, limit } => {
                let (hits, ns) = self
                    .tracer
                    .span("core.autocomplete.descent", parent, req, || {
                        engine.autocomplete(prefix, *limit)
                    });
                self.stats.autocomplete_us.push(us(ns));
                QueryResponse::Completions(Anytime::exact(hits, 0.0))
            }
            Query::KeywordRadar { word } => {
                let (chart, ns) = self
                    .tracer
                    .span("topics.radar", parent, req, || engine.keyword_radar(word));
                self.stats.radar_us.push(us(ns));
                QueryResponse::Radar(Anytime::exact(chart.ok()?, 0.0))
            }
        };
        Some(signature(&response))
    }

    /// The per-shard engine calls behind one routed query. The merge is
    /// private to the router, so what the spans leave unexplained *is*
    /// the scatter/merge overhead.
    fn replay_sharded(
        &mut self,
        router: &'a ShardedService,
        parent: u32,
        req: u32,
        query: &Query,
        execute_ns: u64,
    ) {
        let snaps = router.snapshots();
        let budget = QueryBudget::unlimited();
        match query {
            Query::FindInfluencers { query, k } => {
                let Some((_, _, gamma)) = self.infer(snaps[0].engine(), parent, req, query) else {
                    return;
                };
                let mut per_shard = Vec::with_capacity(snaps.len());
                for snap in &snaps {
                    let (result, ns) =
                        self.tracer.span("core.serve.shard.call", parent, req, || {
                            let res = snap.engine().find_influencers_gamma(&gamma, *k);
                            if res.as_ref().is_ok_and(|r| !r.seeds.is_empty()) {
                                let _ = snap.engine().influence_curve(&gamma, *k);
                            }
                            res
                        });
                    per_shard.push(ns as f64);
                    if let Ok(result) = result {
                        self.stats.cache_lookups += 1;
                        if result.stats.answered_from_cache {
                            self.stats.cache_hits += 1;
                        } else {
                            self.stats.kim_select_ms.push(ns as f64 / 1e6);
                            self.stats.kim_exact += result.stats.exact_evaluations as u64;
                            self.stats.kim_bound += result.stats.bound_evaluations as u64;
                            self.stats.kim_pruned += result.stats.pruned_candidates as u64;
                        }
                    }
                }
                let slowest = per_shard.iter().copied().fold(0.0, f64::max);
                let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
                self.stats
                    .shard_overhead_ms
                    .push((execute_ns as f64 - slowest).max(0.0) / 1e6);
                self.stats.shard_fanout.push(per_shard.len() as f64);
                if mean > 0.0 {
                    self.stats.shard_skew.push(slowest / mean);
                }
            }
            // single-owner and union operators: the router asks the shards
            // in turn, so the replay does too, inside the operator's span
            _ => {
                let op = query.operator().index();
                let name = [
                    "core.kim.select",
                    "core.piks.suggest",
                    "mia.explore",
                    "core.autocomplete.descent",
                    "topics.radar",
                ][op];
                let (answered, ns) = self.tracer.span(name, parent, req, || {
                    let mut answered = None;
                    for snap in &snaps {
                        if let Ok(response) = snap.engine().execute(query, &budget) {
                            answered = Some(response);
                            if op != AUTOCOMPLETE {
                                break;
                            }
                        }
                    }
                    answered
                });
                match &answered {
                    Some(QueryResponse::Suggestions(a)) => {
                        self.stats.piks_evals += a.value.result.stats.evaluations as u64;
                        self.stats.piks_worlds += a.value.result.stats.worlds_materialized as u64;
                    }
                    Some(QueryResponse::Paths(a)) => {
                        self.stats.tree_nodes += a.value.reached as u64
                    }
                    _ => {}
                }
                match op {
                    SUGGEST => self.stats.piks_ms.push(ns as f64 / 1e6),
                    EXPLORE => self.stats.explore_us.push(us(ns)),
                    AUTOCOMPLETE => self.stats.autocomplete_us.push(us(ns)),
                    RADAR => self.stats.radar_us.push(us(ns)),
                    _ => debug_assert_eq!(op, FIND),
                }
            }
        }
    }
}
