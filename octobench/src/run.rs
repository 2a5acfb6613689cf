//! One workload run: set-up, the workload's sections, the oracle, the
//! metrics.
//!
//! **One busy thread.** Everything a run times happens on one thread, with
//! the rayon pool at one: the benchmark's host hands out its second core
//! for seconds at a time and takes it back, and whatever needs two cores at
//! once then measures the host. Where a workload is about readers beside a
//! writer, the writer's work is interleaved with the readers' on the same
//! thread — the shared core is part of the workload, not of the weather.
//!
//! **Sections in rounds.** A workload is a list of *actors* with a share of
//! `--seconds` each: its own load shape first, then — because the driver's
//! contract wants every end-to-end metric from every workload — whichever
//! of the query client, the flushing mutator and the restarter it lacks,
//! alone and on the same graph. A metric's *native* workloads (see
//! [`spec::END_TO_END`]) are where predictions are made; elsewhere the
//! prediction is "no change". After a short warm-up pass the list is run
//! [`rounds`] times over, a slice of each actor per round, so every
//! metric's samples are spread over the whole run and a slow stretch of the
//! host lands on a minority of each instead of on all of one.
//!
//! | workload | actors (share of `--seconds`) |
//! |---|---|
//! | `serve_uniform`, `serve_sharded` | closed-loop client 70 %, mutator 15 %, restarter 15 % |
//! | `serve_churn` | open-loop client that flushes once per period 75 %, restarter 25 % |
//! | `ingest_loop` | closed-loop client 40 %, ingest driver 40 %, restarter 20 % |
//! | `restart` | restarter (7 opens per round) 40 %, closed-loop client 45 %, mutator 15 % |

use crate::chain::{ChainStats, FlushSample, Mirror, Recorder};
use crate::clients::{client, Pace, QuerySample, Replayer, Twin, Writer};
use crate::ingest::Ingest;
use crate::oracle::{self, Oracle};
use crate::restart::{self, restarter, RestartSamples, RestartTrace};
use crate::script::{pick_edges, Rng64, BLOCK, EXPLORE, FIND, SUGGEST};
use crate::spec::{self, WARMUP_SHARE};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::world::{Scale, Scratch, Service, WorkloadId, World};
use octopus_cascade::{opim_select, OpimOptions, RrCollection};
use octopus_core::serve::{OctopusService, Query, QueryService, ShardedService};
use octopus_graph::delta::{self, GraphDelta};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where scratch directories and span files go.
    pub out: PathBuf,
}

/// What one run reports: the result line's fields plus sample counts for
/// the human-readable table.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, samples behind it)
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// name → (value, samples behind it)
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: (f64, usize)) {
        self.0.insert(name, value);
    }

    fn p50(&mut self, name: &'static str, mut samples: Vec<f64>) {
        let n = samples.len();
        self.set(name, (median(&mut samples), n));
    }

    fn p95(&mut self, name: &'static str, mut samples: Vec<f64>) {
        let n = samples.len();
        self.set(name, (percentile(&mut samples, 95.0), n));
    }
}

/// Who is at work in a section.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Actor {
    /// One closed-loop query client.
    Client,
    /// One open-loop query client that also submits the period's nudges
    /// and flushes them, once per period, between two queries.
    Churn,
    /// Nudge and flush, back to back.
    Mutator,
    /// Observe, fit and submit windows of the action stream.
    Ingest,
    /// Restart rounds: build, map, reopen.
    Restarter,
}

/// The workload's actors with their shares of `--seconds`, its own load
/// shape first.
fn plan(id: WorkloadId) -> &'static [(Actor, f64)] {
    use Actor::*;
    match id {
        WorkloadId::ServeUniform | WorkloadId::ServeSharded => {
            &[(Client, 0.70), (Mutator, 0.15), (Restarter, 0.15)]
        }
        WorkloadId::ServeChurn => &[(Churn, 0.75), (Restarter, 0.25)],
        WorkloadId::IngestLoop => &[(Client, 0.40), (Ingest, 0.40), (Restarter, 0.20)],
        // a restart round is cheap and nearly deterministic, a query
        // latency is neither: the off-axis client gets the larger part
        WorkloadId::Restart => &[(Restarter, 0.40), (Client, 0.45), (Mutator, 0.15)],
    }
}

/// How many times the plan is run over: a slice has to hold a few whole
/// operations of the slowest actor, so short (smoke) runs get one round.
fn rounds(seconds: f64) -> usize {
    ((seconds / 5.0) as usize).clamp(1, spec::MAX_ROUNDS)
}

/// Where each actor's span and request ids start: the traced client, the
/// flush mirror and the restarter each own a tracer, and their logs are
/// merged into one file.
const CLIENT_IDS: u32 = 0;
const MIRROR_IDS: u32 = 1 << 30;
const RESTART_IDS: u32 = 1 << 31;

/// Samples of the timed client slices.
#[derive(Default)]
struct QueryLog {
    samples: Vec<QuerySample>,
    /// Seconds the samples span: per slice, its start to the last answer
    /// that came back before its deadline.
    window_s: f64,
    /// Sent / completed correctly by its slice's deadline.
    sent: u64,
    completed: u64,
    errors: u64,
    /// Script indices issued, for the oracle.
    issued: Vec<usize>,
    /// Untraced reference samples of a traced run (`trace.overhead_share`).
    reference: Vec<QuerySample>,
}

impl QueryLog {
    /// Correct answers per second, and the samples behind the figure.
    ///
    /// Closed loop: every block of [`BLOCK`] script queries carries the
    /// operator mix and every `k` exactly once, so throughput is a block's
    /// queries over the *median* time a whole block took — a median over
    /// the run, which a slow stretch of the host moves far less than it
    /// moves a total. Open loop (and a run too short for a whole block):
    /// the answers that came back over the time they took.
    fn qps(&self, closed: bool) -> (f64, usize) {
        let mut block_s = Vec::new();
        if closed {
            let mut i = 0;
            while i + BLOCK <= self.samples.len() {
                let whole = self.issued[i].is_multiple_of(BLOCK)
                    && self.issued[i + BLOCK - 1] == self.issued[i] + BLOCK - 1;
                if !whole {
                    i += 1;
                    continue;
                }
                let block = &self.samples[i..i + BLOCK];
                if block.iter().all(|s| s.ok) {
                    block_s.push(block.iter().map(|s| s.latency.as_secs_f64()).sum());
                }
                i += BLOCK;
            }
        }
        if block_s.is_empty() {
            return (
                ratio(self.completed as f64, self.window_s),
                self.sent as usize,
            );
        }
        let blocks = block_s.len();
        (ratio(BLOCK as f64, median(&mut block_s)), blocks)
    }
}

/// Submit one flush's worth of nudges and flush.
fn nudge_and_flush(recorder: &Recorder, rng: &mut Rng64, nudges: usize) {
    let edges = recorder.edge_count();
    for e in pick_edges(rng, edges, nudges) {
        recorder.submit_delta(GraphDelta::NudgeWeights {
            edges: vec![e],
            delta: 0.02,
        });
    }
    if let Err(e) = recorder.flush_deltas() {
        eprintln!("flush failed: {e}");
    }
}

/// Flush samples that started in `[from, to)` of the recorder's clock.
fn flushes_between(recorder: &Recorder, from: Duration, to: Duration) -> Vec<FlushSample> {
    let (from, to) = (from.as_nanos() as u64, to.as_nanos() as u64);
    recorder
        .flushes()
        .into_iter()
        .filter(|f| f.at_ns >= from && f.at_ns < to)
        .collect()
}

struct Run<'a> {
    args: &'a Args,
    origin: Instant,
    world: &'a World,
    service: &'a Service,
    recorder: &'a Recorder<'a>,
    scratch: &'a Scratch,
    /// Traced runs: what replays each query on its twin, and the tracer
    /// restart rounds use.
    replayer: Option<Replayer<'a>>,
    restart_tracer: Tracer,
    restart_chain: ChainStats,
    /// `ingest_loop` only.
    ingest: Option<Ingest<'a>>,
    ingest_s: f64,
    cursor: usize,
    rng: Rng64,
    prefilled: bool,
    /// Off during the warm-up pass: the work is done, the samples dropped.
    sampling: bool,
    queries: QueryLog,
    flushes: Vec<FlushSample>,
    restarts: RestartSamples,
}

impl Run<'_> {
    /// Run `actor` until `deadline` (each does at least one operation).
    fn act(&mut self, actor: Actor, deadline: Instant) {
        match actor {
            Actor::Client => {
                self.reference_stretch(deadline);
                self.clients(Pace::Closed, deadline, None);
            }
            Actor::Churn => self.churn(deadline),
            Actor::Mutator => self.mutator(deadline),
            Actor::Ingest => self.ingest(deadline),
            Actor::Restarter => self.restarter(deadline),
        }
    }

    /// Fill the donor directory with real flushes before the first
    /// section that measures one.
    fn prefill_donors(&mut self) {
        if !std::mem::replace(&mut self.prefilled, true) {
            for _ in 0..spec::DONOR_PREFILL_FLUSHES {
                nudge_and_flush(self.recorder, &mut self.rng, 1);
            }
            self.recorder.discard_samples();
            self.recorder.reset_trace();
        }
    }

    /// Traced runs: an untraced stretch of the same client first (15 % of
    /// what is left until `deadline`), so the cost of tracing is a number:
    /// `trace.overhead_share`.
    fn reference_stretch(&mut self, deadline: Instant) {
        if self.replayer.is_none() {
            return;
        }
        let start = Instant::now();
        let end = start + deadline.saturating_duration_since(start).mul_f64(0.15);
        let (service, script) = (self.service, &self.world.script);
        let samples = client(
            service,
            script,
            self.cursor,
            Pace::Closed,
            start,
            end,
            None,
            None,
        );
        self.cursor += samples.len();
        if self.sampling {
            self.queries.reference.extend(samples);
        }
    }

    /// Run the query client until `deadline`, with the open loop's `writer`
    /// if given.
    fn clients(&mut self, pace: Pace, deadline: Instant, writer: Option<Writer<'_>>) {
        let first = self.cursor;
        let start = Instant::now();
        let samples = client(
            self.service,
            &self.world.script,
            first,
            pace,
            start,
            deadline,
            writer,
            self.replayer.as_mut(),
        );
        self.cursor += samples.len();
        if !self.sampling {
            return;
        }
        // throughput counts the correct answers that came back before the
        // slice's deadline, over the time they took
        let log = &mut self.queries;
        log.issued.extend(first..first + samples.len());
        let mut last_answer = Duration::ZERO;
        for s in samples {
            log.sent += 1;
            log.errors += u64::from(!s.ok);
            let answered = s.at + s.latency;
            if s.ok && start + answered <= deadline {
                log.completed += 1;
                last_answer = last_answer.max(answered);
            }
            log.samples.push(s);
        }
        log.window_s += last_answer.as_secs_f64();
    }

    /// The open-loop client for a whole number of flush periods (at least
    /// one): at the start of each the client's thread submits the period's
    /// nudges and flushes them, then works off the queries that came due
    /// meanwhile.
    fn churn(&mut self, deadline: Instant) {
        self.prefill_donors();
        self.reference_stretch(deadline);
        // Traced, every query runs twice on the client's thread (served,
        // then replayed) and so does every flush, so the whole loop runs in
        // slow motion — half the send rate, twice the flush period: each
        // epoch still sees one script period, and the thread is as busy as
        // untraced.
        let dilation = if self.args.trace { 2 } else { 1 };
        let mut period = Duration::from_millis(spec::CHURN_FLUSH_PERIOD_MS) * dilation;
        let from = self.origin.elapsed();
        let left = deadline.saturating_duration_since(Instant::now());
        if self.args.scale == Scale::Smoke {
            // the whole run is a second or two: flush faster
            period = period.min(left / 2).max(Duration::from_millis(50));
        }
        let periods = ((left.as_secs_f64() / period.as_secs_f64()) as u32).max(1);
        let deadline = Instant::now() + period * periods;
        // one script period per flush period: every epoch sees the same
        // traffic, so each slice starts on a script period's first query
        self.cursor = self.cursor.next_multiple_of(spec::churn_period_queries());
        let recorder = self.recorder;
        let mut rng = self.rng.clone();
        let mut flush = || nudge_and_flush(recorder, &mut rng, spec::NUDGES_PER_FLUSH);
        self.clients(
            Pace::Open(spec::CHURN_RATE_QPS / dilation as f64),
            deadline,
            Some(Writer {
                period,
                flush: &mut flush,
            }),
        );
        self.rng = rng;
        self.collect_flushes(from);
    }

    /// Nudge and flush, back to back.
    fn mutator(&mut self, deadline: Instant) {
        let warming = !self.prefilled;
        self.prefill_donors();
        if warming && !self.sampling {
            return; // the prefill was the warm-up
        }
        let from = self.origin.elapsed();
        loop {
            nudge_and_flush(self.recorder, &mut self.rng, spec::NUDGES_PER_FLUSH);
            if Instant::now() >= deadline {
                break;
            }
        }
        self.collect_flushes(from);
    }

    fn ingest(&mut self, deadline: Instant) {
        let ingest = self.ingest.as_mut().expect("ingest_loop has a learner");
        if !std::mem::replace(&mut self.prefilled, true) {
            ingest.prefill();
            self.recorder.discard_samples();
            self.recorder.reset_trace();
            if !self.sampling {
                return; // the prefill was the warm-up
            }
        }
        let from = self.origin.elapsed();
        self.ingest_s += ingest.run(deadline);
        self.collect_flushes(from);
    }

    /// Keep the flushes of a timed slice that began at `from`.
    fn collect_flushes(&mut self, from: Duration) {
        if self.sampling {
            let slice = flushes_between(self.recorder, from, self.origin.elapsed());
            self.flushes.extend(slice);
        }
    }

    fn restarter(&mut self, deadline: Instant) {
        let trace = self.args.trace.then_some(RestartTrace {
            tracer: &mut self.restart_tracer,
            stats: &mut self.restart_chain,
        });
        restarter(
            self.world,
            self.scratch,
            &mut self.rng,
            self.args.workload == WorkloadId::Restart,
            self.sampling,
            deadline,
            trace,
            &mut self.restarts,
        );
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let id = args.workload;
    let scratch = Scratch::new(&args.out, id.name()).map_err(|e| e.to_string())?;

    // -- set-up, several times; the last one is served ---------------------
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..spec::SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let world = World::generate(id, args.seed, args.scale);
        let service = world
            .open(&scratch.fresh("cache"))
            .map_err(|e| format!("epoch 0 failed to open: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((world, service));
    }
    let (mut world, service) = built.expect("set-up ran");
    let learn = world.learn.take();
    let sharded = matches!(service, Service::Sharded(_));

    // -- the traced run's twins -------------------------------------------
    let mut mirror = None;
    let mut sharded_twin = None;
    if args.trace {
        if sharded {
            let twin = world
                .open(&scratch.fresh("twin"))
                .map_err(|e| e.to_string())?;
            let whole = world
                .oracle(world.graph.clone())
                .map_err(|e| e.to_string())?;
            sharded_twin = Some((twin, OctopusService::new(whole)));
        } else {
            mirror = Some(
                Mirror::new(
                    world.graph.clone(),
                    world.model.clone(),
                    world.config.clone(),
                    world.user_keywords.clone(),
                    scratch.fresh("mirror"),
                    world.mapped(),
                    Tracer::new(origin, MIRROR_IDS),
                )
                .map_err(|e| e.to_string())?,
            );
        }
    }
    let twin = match (&mirror, &sharded_twin) {
        (Some(m), _) => Some(Twin::Engines(m.twins.clone())),
        (_, Some((Service::Sharded(router), whole))) => Some(Twin::Sharded(router, whole)),
        _ => None,
    };
    let followers: Vec<&dyn QueryService> = match &sharded_twin {
        Some((twin, whole)) => vec![twin.queries(), whole],
        None => Vec::new(),
    };
    let recorder = Recorder::new(service.queries(), origin, mirror).with_followers(followers);
    let mut run = Run {
        args,
        origin,
        world: &world,
        service: &service,
        recorder: &recorder,
        scratch: &scratch,
        replayer: twin.map(|twin| Replayer::new(Tracer::new(origin, CLIENT_IDS), twin)),
        restart_tracer: Tracer::new(origin, RESTART_IDS),
        restart_chain: ChainStats::default(),
        ingest: learn
            .map(|learn| Ingest::new(&recorder, learn, world.graph.num_topics(), args.trace)),
        ingest_s: 0.0,
        cursor: 0,
        rng: Rng64::stream(args.seed, 0x0D17A),
        prefilled: false,
        sampling: false,
        queries: QueryLog::default(),
        flushes: Vec::new(),
        restarts: RestartSamples::default(),
    };

    // -- the sections: a warm-up pass, then the plan in rounds -------------
    let plan = plan(id);
    for &(actor, share) in plan {
        let span = Duration::from_secs_f64(args.seconds * WARMUP_SHARE * share);
        run.act(actor, Instant::now() + span);
    }
    if let Some(replayer) = run.replayer.as_mut() {
        replayer.reset();
    }
    run.sampling = true;
    let rounds = rounds(args.seconds);
    let timed = args.seconds * (1.0 - WARMUP_SHARE);
    let start = Instant::now();
    let mut done = 0.0;
    for _ in 0..rounds {
        for &(actor, share) in plan {
            // deadlines are absolute: a slice that overruns (it ends on a
            // whole operation) shortens the next one, not the run
            done += share / rounds as f64;
            run.act(actor, start + Duration::from_secs_f64(timed * done));
        }
    }
    let Run {
        queries,
        flushes,
        restarts,
        replayer,
        restart_tracer,
        restart_chain,
        ingest,
        ingest_s,
        mut rng,
        ..
    } = run;
    let (replay, mut spans) = match replayer {
        Some(r) => (r.stats, r.tracer.spans),
        None => Default::default(),
    };
    let mut expected_graph = None;
    let ingested = ingest.map(|mut ingest| {
        expected_graph = Some(ingest.expected_graph().clone());
        let stats = ingest.pipeline_stats();
        let retries = stats.retries + stats.batches_dropped;
        (std::mem::take(&mut ingest.samples), ingest_s, retries)
    });

    // -- the oracle --------------------------------------------------------
    let mut attempted = queries.sent + recorder.flushes().len() as u64 + restarts.attempted;
    let mut failed = queries.errors + recorder.flush_errors() + restarts.failed;
    failed += replay.mismatched;
    if let Some((ingest, _, dropped)) = &ingested {
        attempted += ingest.attempted;
        failed += ingest.failed + dropped;
    }
    // no delta lost: the served graph is epoch 0 plus everything submitted
    let expected = match expected_graph {
        Some(g) => g,
        None => delta::apply_all(&world.graph, &recorder.submitted())
            .map_err(|e| format!("submitted deltas do not apply: {e}"))?,
    };
    let counters = recorder.delta_counters();
    attempted += 1;
    if counters.terminal_failures > 0 || counters.pending_deltas > 0 {
        eprintln!("deltas lost or stuck: {counters:?}");
        failed += 1;
    }
    if let Some(served) = service.served_graph() {
        attempted += 1;
        if served != expected {
            eprintln!("the served graph is not the expected graph");
            failed += 1;
        }
    }
    // every cheap scripted query that was issued, and a seeded sample of
    // the find-influencers ones (each costs a full kernel run twice over)
    let fresh = world.oracle(expected).map_err(|e| e.to_string())?;
    let mut distinct: Vec<usize> = queries
        .issued
        .iter()
        .map(|&i| world.script.order[i % world.script.len()] as usize)
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    rng.shuffle(&mut distinct);
    let mut budget = [
        FINDS_CHECKED,
        CHEAP_CHECKED,
        CHEAP_CHECKED,
        CHEAP_CHECKED,
        CHEAP_CHECKED,
    ];
    let checked: Vec<&Query> = distinct
        .iter()
        .map(|&i| &world.script.queries[i])
        .filter(|q| {
            let left = &mut budget[q.operator().index()];
            *left > 0 && {
                *left -= 1;
                true
            }
        })
        .collect();
    let fresh_router = match sharded {
        true => Some(
            ShardedService::with_options(
                fresh.graph().clone(),
                world.model.clone(),
                world.config.clone(),
                spec::SHARDS,
                None,
                false,
                world.user_keywords.clone(),
            )
            .map_err(|e| e.to_string())?,
        ),
        false => None,
    };
    let oracle = Oracle {
        whole: &fresh,
        router: fresh_router.as_ref(),
    };
    let (compared, mismatched) = oracle::compare(service.queries(), &oracle, checked);
    attempted += compared;
    failed += mismatched;
    // every reopened engine kept from the first restart rounds against a
    // fresh build of the same graph
    let probe_queries = restart::probes(&world.script);
    for (what, graph, said) in &restarts.kept {
        attempted += 1;
        let fresh = world.oracle(graph.clone()).map_err(|e| e.to_string())?;
        if restart::answers(&fresh, &probe_queries) != *said {
            eprintln!("restart: the {what} engine answers unlike a fresh build");
            failed += 1;
        }
    }

    // -- the metrics -------------------------------------------------------
    let mut m = Metrics::default();
    let latencies = |op: usize| -> Vec<f64> {
        queries
            .samples
            .iter()
            .filter(|s| s.op == op && s.ok)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let flush_ms: Vec<f64> = flushes.iter().map(|f| f.ms).collect();
    let within_slo = queries
        .samples
        .iter()
        .filter(|s| s.ok && s.latency.as_secs_f64() * 1e3 <= spec::SLO_MS)
        .count();
    let sent = queries.sent as usize;
    if !args.trace {
        m.p50("setup_s", setups);
        m.p50("find_influencers_p50_ms", latencies(FIND));
        m.p50("flush_p50_ms", flush_ms);
        m.p50("build_p50_ms", restarts.build_ms);
        m.p50("reopen_nudge_p50_ms", restarts.nudge_ms);
        m.p50("reopen_confined_p50_ms", restarts.confined_ms);
        m.p50("open_first_answer_p50_ms", restarts.open_first_ms);
        m.set("query_qps", queries.qps(id != WorkloadId::ServeChurn));
        m.set(
            "within_slo_share",
            (ratio(within_slo as f64, sent as f64), sent),
        );
        for (name, (value, n)) in &m.0 {
            if *n == 0 || value.is_nan() || *value <= 0.0 {
                eprintln!("{name} has no samples: the run was too short to measure it");
                failed += 1;
            }
        }
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m.0,
        });
    }

    // traced: merge the span logs, write them out, fill the layer metrics
    let mirror = recorder.take_mirror();
    if let Some(mirror) = &mirror {
        spans.extend(mirror.tracer.spans.iter().cloned());
    }
    spans.extend(restart_tracer.spans);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let path = args.out.join(format!("{}.spans.jsonl", id.name()));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut chain = restart_chain;
    let mut evictions = 0;
    if let Some(mirror) = mirror {
        evictions = mirror.twins.lock().expect("twins lock").evictions();
        chain.absorb(mirror.stats);
    }
    let n_find = replay.kim_select_ms.len() as f64;
    m.p50("topics.infer_p50_us", replay.infer_us.clone());
    m.set("topics.infer_calls", (replay.infer_us.len() as f64, 1));
    let lookups = replay.cache_lookups;
    m.set(
        "core.cache.hit_ratio",
        (
            ratio(replay.cache_hits as f64, lookups as f64),
            lookups as usize,
        ),
    );
    m.set("core.cache.lookups", (lookups as f64, 1));
    m.set("core.cache.evictions", (evictions as f64, 1));
    m.p50("core.kim.select_p50_ms", replay.kim_select_ms);
    let per_find = |total: u64| (ratio(total as f64, n_find), n_find as usize);
    m.set("core.kim.exact_evals_per_query", per_find(replay.kim_exact));
    m.set("core.kim.bound_evals_per_query", per_find(replay.kim_bound));
    m.set(
        "core.kim.pruned_ratio",
        (
            ratio(
                replay.kim_pruned as f64,
                (replay.kim_pruned + replay.kim_exact) as f64,
            ),
            n_find as usize,
        ),
    );
    m.p50("mia.seed_gains_p50_ms", replay.seed_gains_ms);
    let cascade = probe_cascade(&world, &mut rng);
    m.0.extend(cascade);
    let n_piks = replay.piks_ms.len();
    m.p50("core.piks.suggest_p50_ms", replay.piks_ms);
    m.set(
        "core.piks.evals_per_query",
        (ratio(replay.piks_evals as f64, n_piks as f64), n_piks),
    );
    m.set(
        "core.piks.worlds_per_query",
        (ratio(replay.piks_worlds as f64, n_piks as f64), n_piks),
    );
    let n_explore = replay.explore_us.len();
    m.p50("mia.explore_p50_us", replay.explore_us);
    m.set(
        "mia.tree_nodes_per_query",
        (ratio(replay.tree_nodes as f64, n_explore as f64), n_explore),
    );
    m.p50("core.autocomplete.descent_p50_us", replay.autocomplete_us);
    m.p50("topics.radar_p50_us", replay.radar_us);
    m.p50("core.serve.session.overhead_p50_us", replay.overhead_us);
    m.p50("core.serve.epoch.load_p50_ns", replay.epoch_load_ns);
    m.p50(
        "core.serve.admission.queue_wait_p50_ms",
        queries
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency.saturating_sub(s.served).as_secs_f64() * 1e3)
            .collect(),
    );
    // no admission controller is configured, so nothing can be shed; the
    // share is still counted from the errors the clients saw
    m.set("core.serve.admission.shed_share", (0.0, sent));
    m.p95(
        "loadgen.lateness_p95_ms",
        queries
            .samples
            .iter()
            .map(|s| s.late.as_secs_f64() * 1e3)
            .collect(),
    );
    m.p50(
        "core.serve.shard.scatter_overhead_p50_ms",
        replay.shard_overhead_ms,
    );
    let fanout = replay.shard_fanout.len();
    m.set(
        "core.serve.shard.fanout",
        (mean(&replay.shard_fanout), fanout),
    );
    m.set("core.serve.shard.skew", (mean(&replay.shard_skew), fanout));
    m.p50("graph.delta.apply_p50_ms", chain.apply_ms);
    m.p50("graph.codec.stage_keys_p50_ms", chain.stage_keys_ms);
    m.p50("core.offline.persist.lookup_p50_ms", chain.lookup_ms);
    let donors = chain.donor_files.len();
    m.set(
        "core.offline.persist.donor_files",
        (mean(&chain.donor_files), donors),
    );
    m.p50("core.offline.rebuild_p50_ms", chain.rebuild_ms);
    for (name, samples) in STAGE_METRICS.iter().zip(chain.stage_ms) {
        m.set(name, (mean(&samples), samples.len()));
    }
    let (reused, total) = chain.weight_units;
    m.set(
        "core.offline.weight_units_reused_ratio",
        (ratio(reused as f64, total as f64), total as usize),
    );
    let (reused, total) = chain.piks_worlds;
    m.set(
        "core.offline.piks_worlds_reused_ratio",
        (ratio(reused as f64, total as f64), total as usize),
    );
    m.p50("core.offline.persist.save_p50_ms", chain.save_ms);
    let writes = chain.bytes_written.len();
    m.set(
        "core.offline.persist.bytes_written",
        (mean(&chain.bytes_written), writes),
    );
    m.p50("core.offline.view.open_p50_ms", chain.view_open_ms);
    m.p50("core.serve.epoch.swap_p50_us", chain.swap_us);
    m.p50("core.offline.reopen_nodelta_p50_ms", restarts.nodelta_ms);
    m.p50("core.offline.reopen_rename_p50_ms", restarts.rename_ms);
    m.p50("core.offline.reopen_insert_p50_ms", restarts.insert_ms);
    m.p50("core.offline.persist.decode_p50_ms", chain.decode_ms);
    m.p50("core.offline.view.validate_p50_ms", chain.view_validate_ms);
    m.p50(
        "core.offline.first_query_owned_ms",
        restarts.first_query_owned_ms,
    );
    m.p50(
        "core.offline.first_query_mapped_ms",
        restarts.first_query_mapped_ms,
    );
    let artifacts = restarts.artifact_bytes.len();
    m.set(
        "core.offline.artifact_bytes",
        (mean(&restarts.artifact_bytes), artifacts),
    );
    let (ingest, ingest_s, retries) = ingested.unwrap_or_default();
    let windows = ingest.window_lag_ms.len();
    m.p50(
        "data.stream.observe_us_per_action",
        ingest.observe_us_per_action,
    );
    m.p50("data.learn.fit_window_p50_ms", ingest.fit_ms);
    m.set(
        "data.learn.deltas_per_window",
        (mean(&ingest.deltas_per_window), windows),
    );
    m.p50("core.serve.ingest.plan_p50_ms", ingest.plan_ms);
    m.set(
        "core.serve.ingest.batches_per_window",
        (mean(&ingest.batches_per_window), windows),
    );
    m.set(
        "core.serve.ingest.topics_per_batch",
        (mean(&ingest.topics_per_batch), windows),
    );
    m.set(
        "core.serve.ingest.deferred_edges",
        (ingest.deferred_edges as f64, windows),
    );
    m.set("core.serve.ingest.retries", (retries as f64, windows));
    m.p50("window_lag_p50_ms", ingest.window_lag_ms);
    m.set(
        "ingest_actions_per_s",
        (ratio(ingest.actions_served as f64, ingest_s), windows),
    );
    m.p95("find_influencers_p95_ms", latencies(FIND));
    m.p50("suggest_keywords_p50_ms", latencies(SUGGEST));
    m.p95("suggest_keywords_p95_ms", latencies(SUGGEST));
    m.p50("explore_paths_p50_ms", latencies(EXPLORE));
    let (exec_children, exec_parents) = trace::coverage(&spans, &[trace::EXECUTE]);
    let (flush_children, flush_parents) =
        trace::coverage(&spans, &[trace::FLUSH, restart::OPEN, restart::OPEN_FIRST]);
    m.set(
        "trace.coverage_execute",
        (ratio(exec_children, exec_parents), 1),
    );
    m.set(
        "trace.coverage_flush",
        (ratio(flush_children, flush_parents), 1),
    );
    m.set(
        "trace.coverage",
        (
            ratio(exec_children + flush_children, exec_parents + flush_parents),
            spans.len(),
        ),
    );
    // mean served time per query, traced over untraced, on one client —
    // over suggest and explore only, the two operators with real work and
    // no query cache, so the ratio is not a statement about cache state
    let served_ms = |samples: &[QuerySample]| {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.op == SUGGEST || s.op == EXPLORE)
            .map(|s| s.served.as_secs_f64() * 1e3)
            .collect();
        mean(&ms)
    };
    m.set(
        "trace.overhead_share",
        (
            ratio(served_ms(&queries.samples), served_ms(&queries.reference)) - 1.0,
            queries.reference.len(),
        ),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.0,
    })
}

/// Find-influencers queries the oracle re-runs (each is two kernel runs);
/// every other operator is cheap enough to check many of.
const FINDS_CHECKED: usize = 12;
const CHEAP_CHECKED: usize = 100;

const STAGE_METRICS: [&str; 6] = [
    "core.offline.stage.spread-cap_ms",
    "core.offline.stage.pb-bound_ms",
    "core.offline.stage.mis-tables_ms",
    "core.offline.stage.topic-samples_ms",
    "core.offline.stage.piks-worlds_ms",
    "core.offline.stage.autocomplete_ms",
];

/// The cascade kernels on the workload's own graph: RR-set sampling, CELF
/// max-coverage over the sets, and an OPIM run, under the γ of a few
/// scripted queries.
fn probe_cascade(world: &World, rng: &mut Rng64) -> BTreeMap<&'static str, (f64, usize)> {
    const GAMMAS: usize = 4;
    const RR_SETS: usize = 2000;
    let finds: Vec<&str> = world
        .script
        .queries
        .iter()
        .filter_map(|q| match q {
            Query::FindInfluencers { query, .. } => Some(query.as_str()),
            _ => None,
        })
        .collect();
    let (mut sets, mut edges, mut sample_s) = (0usize, 0usize, 0.0);
    let (mut celf_ms, mut opim_ms) = (Vec::new(), Vec::new());
    for _ in 0..GAMMAS {
        let query = finds[rng.below(finds.len())];
        let Some(probs) = world
            .model
            .infer_str(query)
            .ok()
            .and_then(|gamma| world.graph.materialize(gamma.as_slice()).ok())
        else {
            continue;
        };
        let t0 = Instant::now();
        let rr = RrCollection::generate(&world.graph, &probs, RR_SETS, rng.next_u64());
        sample_s += t0.elapsed().as_secs_f64();
        sets += rr.len();
        edges += rr.edges_examined();
        let t0 = Instant::now();
        std::hint::black_box(rr.select_seeds(8));
        celf_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(opim_select(
            &world.graph,
            &probs,
            &OpimOptions {
                k: 8,
                seed: rng.next_u64(),
                ..Default::default()
            },
        ));
        opim_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    BTreeMap::from([
        (
            "cascade.rr_sets_per_s",
            (ratio(sets as f64, sample_s), sets),
        ),
        (
            "cascade.rr_edges_per_set",
            (ratio(edges as f64, sets as f64), sets),
        ),
        ("cascade.celf_p50_ms", (median(&mut celf_ms), GAMMAS)),
        ("cascade.opim_p50_ms", (median(&mut opim_ms), GAMMAS)),
    ])
}
