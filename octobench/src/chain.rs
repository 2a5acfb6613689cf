//! The write path seen from outside: a [`Recorder`] that times every
//! `flush_deltas` call the mutator or the ingest pipeline makes, and — in
//! a traced run — a [`Mirror`] that replays each flush as the chain of
//! public functions it consists of:
//!
//! ```text
//! graph.delta.apply        delta::apply_all
//! graph.codec.stage_keys   Fingerprint::compute + StageKeys::compute
//! core.offline.persist.lookup   persist::lookup   (donor scan, decode)
//! core.offline.rebuild     offline::build_with_reuse  (six stages)
//! core.offline.persist.save     persist::save + prune
//! core.offline.view.open   view::open          (mapped services only)
//! core.serve.epoch.swap    EpochCell::swap
//! ```
//!
//! The mirror works in its own cache directory, which sees exactly the
//! graphs the service's directory sees, in the same order, so its donor
//! files are the service's donor files. Each mirrored epoch also yields a
//! *twin* engine whose query cache the traced client keeps in step with
//! the served engine's (see `clients.rs`).

use crate::trace::{Tracer, FLUSH, REPLAY};
use octopus_core::engine::{Octopus, OctopusConfig};
use octopus_core::offline::persist::{self, Fingerprint, StageKeys};
use octopus_core::offline::{self, view, STAGE_ORDER};
use octopus_core::serve::ingest::WEIGHT_STAGES;
use octopus_core::serve::{
    DeltaCounters, EpochCell, Query, QueryResponse, QueryService, Served, ShardSwap,
};
use octopus_core::{QueryBudget, Result};
use octopus_graph::delta::{self, GraphDelta};
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::{KeywordId, TopicModel};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Samples of every layer of the open/flush chain, one entry per replay.
#[derive(Debug, Default, Clone)]
pub struct ChainStats {
    pub apply_ms: Vec<f64>,
    pub stage_keys_ms: Vec<f64>,
    pub lookup_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub donor_files: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    /// Per [`STAGE_ORDER`] stage, the ms of each rebuild that ran it.
    pub stage_ms: [Vec<f64>; 6],
    pub weight_units: (u64, u64),
    pub piks_worlds: (u64, u64),
    pub save_ms: Vec<f64>,
    pub bytes_written: Vec<f64>,
    pub view_open_ms: Vec<f64>,
    pub view_validate_ms: Vec<f64>,
    pub swap_us: Vec<f64>,
}

impl ChainStats {
    pub fn absorb(&mut self, other: ChainStats) {
        self.apply_ms.extend(other.apply_ms);
        self.stage_keys_ms.extend(other.stage_keys_ms);
        self.lookup_ms.extend(other.lookup_ms);
        self.decode_ms.extend(other.decode_ms);
        self.donor_files.extend(other.donor_files);
        self.rebuild_ms.extend(other.rebuild_ms);
        for (mine, theirs) in self.stage_ms.iter_mut().zip(other.stage_ms) {
            mine.extend(theirs);
        }
        self.weight_units.0 += other.weight_units.0;
        self.weight_units.1 += other.weight_units.1;
        self.piks_worlds.0 += other.piks_worlds.0;
        self.piks_worlds.1 += other.piks_worlds.1;
        self.save_ms.extend(other.save_ms);
        self.bytes_written.extend(other.bytes_written);
        self.view_open_ms.extend(other.view_open_ms);
        self.view_validate_ms.extend(other.view_validate_ms);
        self.swap_us.extend(other.swap_us);
    }
}

/// Replay `open_or_build` (or, with `mapped`, `open_mapped`'s miss path)
/// for `graph` against the cache directory `dir`, one span per layer
/// under `parent`.
#[allow(clippy::too_many_arguments)]
pub fn open_chain(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    graph: &TopicGraph,
    config: &OctopusConfig,
    dir: &Path,
    mapped: bool,
    stats: &mut ChainStats,
) {
    let ((fp, keys), ns) = tr.span("graph.codec.stage_keys", parent, req, || {
        (
            Fingerprint::compute(graph, config),
            StageKeys::compute(graph, config),
        )
    });
    stats.stage_keys_ms.push(ms(ns));
    let path = fp.cache_path(dir);
    if mapped && mapped_open(tr, parent, req, graph, config, &path, &fp, &keys, stats) {
        return; // the exact file maps: open_mapped's fast path ends here
    }
    let (lookup, ns) = tr.span("core.offline.persist.lookup", parent, req, || {
        persist::lookup(dir, &fp, &keys, graph, config)
    });
    stats.lookup_ms.push(ms(ns));
    stats
        .decode_ms
        .push(lookup.timings.decode.as_secs_f64() * 1e3);
    stats.donor_files.push(lookup.sources.len() as f64);
    let exact_only = lookup.sources.as_slice() == [path.clone()];
    let (artifacts, ns) = tr.span("core.offline.rebuild", parent, req, || {
        offline::build_with_reuse(graph, config, lookup.slots)
    });
    stats.rebuild_ms.push(ms(ns));
    for timing in &artifacts.timings {
        if let Some(i) = STAGE_ORDER.iter().position(|s| *s == timing.stage) {
            stats.stage_ms[i].push(timing.duration.as_secs_f64() * 1e3);
        }
    }
    for reuse in &artifacts.reuse {
        if WEIGHT_STAGES.contains(&reuse.stage) {
            stats.weight_units.0 += reuse.reused as u64;
            stats.weight_units.1 += reuse.total as u64;
        } else if reuse.stage == "piks-worlds" {
            stats.piks_worlds.0 += reuse.reused as u64;
            stats.piks_worlds.1 += reuse.total as u64;
        }
    }
    // the engine skips the write only for a full hit served by the exact
    // file alone (the mapped miss path always writes)
    if mapped || !(artifacts.fully_reused() && exact_only) {
        let (saved, ns) = tr.span("core.offline.persist.save", parent, req, || {
            let saved = persist::save(&artifacts, &fp, &keys, &path);
            persist::prune(dir, &[&path]);
            saved
        });
        if saved.is_ok() {
            stats.save_ms.push(ms(ns));
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            stats.bytes_written.push(bytes as f64);
        }
    }
    if mapped {
        mapped_open(tr, parent, req, graph, config, &path, &fp, &keys, stats);
    }
}

#[allow(clippy::too_many_arguments)]
fn mapped_open(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    graph: &TopicGraph,
    config: &OctopusConfig,
    path: &Path,
    fp: &Fingerprint,
    keys: &StageKeys,
    stats: &mut ChainStats,
) -> bool {
    let (art, ns) = tr.span("core.offline.view.open", parent, req, || {
        view::open(path, fp, keys, graph, config, false)
    });
    let Ok(art) = art else {
        // a failed probe is part of the miss path's cost, not an open
        tr.rename_last("core.offline.view.open", "core.offline.view.probe");
        return false;
    };
    stats.view_open_ms.push(ms(ns));
    for timing in art.timings() {
        if timing.stage == persist::STAGE_ARTIFACT_VALIDATE {
            stats
                .view_validate_ms
                .push(timing.duration.as_secs_f64() * 1e3);
        }
    }
    true
}

/// How many twin engines stay alive behind the newest one. A query that
/// grabbed its snapshot before a swap still finds its twin.
const TWINS_KEPT: usize = 3;

/// The twin engines of a traced run, indexed by epoch id.
#[derive(Default)]
pub struct Twins {
    engines: Vec<Option<Arc<Octopus>>>,
    /// Query-cache evictions of twins already retired.
    pub evictions_retired: u64,
}

impl Twins {
    pub fn get(&self, epoch: u64) -> Option<Arc<Octopus>> {
        self.engines.get(epoch as usize).cloned().flatten()
    }

    fn push(&mut self, engine: Arc<Octopus>) {
        self.engines.push(Some(engine));
        if let Some(old) = self.engines.len().checked_sub(TWINS_KEPT + 1) {
            if let Some(retired) = self.engines[old].take() {
                self.evictions_retired += retired.cache_stats().evictions as u64;
            }
        }
    }

    /// Evictions across every twin, retired or live.
    pub fn evictions(&self) -> u64 {
        self.evictions_retired
            + self
                .engines
                .iter()
                .flatten()
                .map(|e| e.cache_stats().evictions as u64)
                .sum::<u64>()
    }
}

/// Open `dir`'s engine for `graph` the way the service opens its own: a
/// build on an empty directory, a full hit once the chain has saved.
fn open_twin(
    graph: &TopicGraph,
    model: &TopicModel,
    config: &OctopusConfig,
    user_keywords: &HashMap<NodeId, Vec<KeywordId>>,
    dir: &Path,
    mapped: bool,
) -> Result<Arc<Octopus>> {
    let (g, m, c) = (graph.clone(), model.clone(), config.clone());
    let engine = if mapped {
        Octopus::open_mapped(g, m, c, dir)
    } else {
        Octopus::open_or_build(g, m, c, dir)
    }?;
    Ok(Arc::new(engine.with_user_keywords(user_keywords.clone())))
}

/// The decomposed replay of an unsharded service's flushes.
pub struct Mirror {
    graph: TopicGraph,
    model: TopicModel,
    config: OctopusConfig,
    user_keywords: HashMap<NodeId, Vec<KeywordId>>,
    dir: PathBuf,
    mapped: bool,
    cell: EpochCell<Octopus>,
    pub twins: Arc<Mutex<Twins>>,
    pub tracer: Tracer,
    pub stats: ChainStats,
}

impl Mirror {
    /// Mirror a service that opened `graph` as epoch 0; `dir` must be an
    /// empty directory of the mirror's own.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        user_keywords: HashMap<NodeId, Vec<KeywordId>>,
        dir: PathBuf,
        mapped: bool,
        tracer: Tracer,
    ) -> Result<Mirror> {
        let twin = open_twin(&graph, &model, &config, &user_keywords, &dir, mapped)?;
        let mut twins = Twins::default();
        twins.push(Arc::clone(&twin));
        Ok(Mirror {
            cell: EpochCell::new(twin),
            graph,
            model,
            config,
            user_keywords,
            dir,
            mapped,
            twins: Arc::new(Mutex::new(twins)),
            tracer,
            stats: ChainStats::default(),
        })
    }

    /// Replay the flush of `batch` under the request root `root`, and
    /// publish the new epoch's twin.
    fn replay(&mut self, root: u32, req: u32, batch: &[GraphDelta]) -> Result<()> {
        let tr = &mut self.tracer;
        let replay = tr.open(REPLAY, root, req);
        let (graph, ns) = tr.span("graph.delta.apply", replay, req, || {
            delta::apply_all(&self.graph, batch)
        });
        self.graph = graph?;
        self.stats.apply_ms.push(ms(ns));
        open_chain(
            tr,
            replay,
            req,
            &self.graph,
            &self.config,
            &self.dir,
            self.mapped,
            &mut self.stats,
        );
        tr.close(replay);
        let twin = open_twin(
            &self.graph,
            &self.model,
            &self.config,
            &self.user_keywords,
            &self.dir,
            self.mapped,
        )?;
        // outside-in stand-in for the service's swap: the same EpochCell
        // type, swapping engines of the same size
        let replay2 = self.tracer.open(REPLAY, root, req);
        let (_, ns) = self.tracer.span("core.serve.epoch.swap", replay2, req, || {
            self.cell.swap(Arc::clone(&twin))
        });
        self.tracer.close(replay2);
        self.stats.swap_us.push(ns as f64 / 1e3);
        self.twins.lock().expect("twins lock").push(twin);
        Ok(())
    }
}

/// One timed `flush_deltas` call.
#[derive(Debug, Clone)]
pub struct FlushSample {
    /// When the call started, relative to the recorder's origin.
    pub at_ns: u64,
    pub ms: f64,
    pub swaps: Vec<ShardSwap>,
}

#[derive(Default)]
struct Recorded {
    flushes: Vec<FlushSample>,
    /// Every delta submitted, in order — the expected final graph is the
    /// epoch-0 graph with all of them applied.
    submitted: Vec<GraphDelta>,
    /// Deltas submitted since the last flush (what the mirror replays).
    pending: Vec<GraphDelta>,
    errors: u64,
    mirror: Option<Mirror>,
}

/// A [`QueryService`] that forwards to the real one and records what the
/// write side did: each flush's wall time and swap reports, every delta
/// submitted. The ingest pipeline and the mutator both drive the service
/// through it, so "a flush" is timed identically wherever it comes from.
pub struct Recorder<'a> {
    inner: &'a dyn QueryService,
    /// Services kept in step with `inner`, untimed: they get every delta
    /// and flush right after it does (a traced sharded run's twin router
    /// and whole-graph oracle).
    followers: Vec<&'a dyn QueryService>,
    origin: Instant,
    state: Mutex<Recorded>,
}

impl<'a> Recorder<'a> {
    pub fn new(inner: &'a dyn QueryService, origin: Instant, mirror: Option<Mirror>) -> Self {
        Recorder {
            inner,
            followers: Vec::new(),
            origin,
            state: Mutex::new(Recorded {
                mirror,
                ..Default::default()
            }),
        }
    }

    pub fn with_followers(mut self, followers: Vec<&'a dyn QueryService>) -> Self {
        self.followers = followers;
        self
    }

    fn state(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.state.lock().expect("recorder lock")
    }

    /// Forget the flush samples taken so far (warm-up and donor prefill);
    /// submitted deltas are kept — they still shaped the served graph.
    pub fn discard_samples(&self) {
        self.state().flushes.clear();
    }

    pub fn flushes(&self) -> Vec<FlushSample> {
        self.state().flushes.clone()
    }

    pub fn flush_errors(&self) -> u64 {
        self.state().errors
    }

    pub fn submitted(&self) -> Vec<GraphDelta> {
        self.state().submitted.clone()
    }

    /// Forget the spans and layer samples the mirror took so far (the
    /// donor prefill is replayed to keep the directories in step, not to
    /// be reported).
    pub fn reset_trace(&self) {
        if let Some(mirror) = self.state().mirror.as_mut() {
            mirror.tracer.spans.clear();
            mirror.stats = ChainStats::default();
        }
    }

    pub fn take_mirror(&self) -> Option<Mirror> {
        self.state().mirror.take()
    }
}

impl QueryService for Recorder<'_> {
    fn execute(&self, query: &Query, budget: &QueryBudget) -> Result<Served<QueryResponse>> {
        self.inner.execute(query, budget)
    }

    fn submit_delta(&self, delta: GraphDelta) {
        self.submit_deltas(vec![delta]);
    }

    fn submit_deltas(&self, deltas: Vec<GraphDelta>) {
        let mut st = self.state();
        st.submitted.extend(deltas.iter().cloned());
        st.pending.extend(deltas.iter().cloned());
        drop(st);
        for follower in &self.followers {
            follower.submit_deltas(deltas.clone());
        }
        self.inner.submit_deltas(deltas);
    }

    fn flush_deltas(&self) -> Result<Vec<ShardSwap>> {
        let mut st = self.state();
        let batch = std::mem::take(&mut st.pending);
        let mut spans: Option<(u32, u32)> = None;
        if let Some(mirror) = st.mirror.as_mut().filter(|_| !batch.is_empty()) {
            // the twin of the new epoch must exist before any client can
            // be answered by that epoch, so the replay runs first
            let req = mirror.tracer.request();
            let root = mirror.tracer.open("request", 0, req);
            mirror.replay(root, req, &batch)?;
            spans = Some((root, mirror.tracer.open(FLUSH, root, req)));
        }
        let at_ns = self.origin.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let result = self.inner.flush_deltas();
        let elapsed = start.elapsed();
        for follower in &self.followers {
            // a follower that fails to follow answers unlike the service,
            // which the traced comparison reports
            let _ = follower.flush_deltas();
        }
        if let (Some((root, flush)), Some(mirror)) = (spans, st.mirror.as_mut()) {
            mirror.tracer.close(flush);
            mirror.tracer.close(root);
        }
        match &result {
            Ok(swaps) => st.flushes.push(FlushSample {
                at_ns,
                ms: elapsed.as_secs_f64() * 1e3,
                swaps: swaps.clone(),
            }),
            Err(_) => {
                st.errors += 1;
                // the layer re-queued the batch; the next flush carries it
                st.pending = batch;
            }
        }
        result
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn delta_counters(&self) -> DeltaCounters {
        self.inner.delta_counters()
    }
}
