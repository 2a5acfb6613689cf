//! The serving half of the ingestion loop: batch learned deltas by
//! topic footprint, feed them through any [`QueryService`], and track
//! watermark/lag/reuse as the loop runs.
//!
//! The OCTA v8 artifact keys each weight-stage unit (`spread-cap`,
//! `pb-bound`, `mis-tables`) per topic, so a flush whose batch touches
//! `T` of `Z` topics rebuilds only those topics' units and reuses the
//! other `Z − T` per stage. Learned deltas are weight-heavy and
//! topic-sparse — exactly the shape that machinery was built for — but
//! only if the ingestion loop *keeps* them sparse: one flush carrying
//! every topic rebuilds everything. [`TopicBatcher`] therefore splits a
//! window's deltas into batches whose **union** topic footprint
//! ([`GraphDelta::touched_topics`]) stays within a cap, while
//! preserving the semantics of applying the window in order:
//!
//! * id-stable deltas (weight sets/nudges, renames) group greedily,
//!   newest-batch-first, never jumping past a batch that touches the
//!   same edge or node (per-edge/per-node order is what delta
//!   application semantics guarantee);
//! * id-shifting deltas (edge inserts, removals, and row replacements
//!   with no positive entry, which drop their edge) act as **barriers** —
//!   every open batch flushes before them, because later edge ids are
//!   only meaningful once the shift lands. Consecutive inserts share a
//!   barrier batch (they reference node ids, which do not shift); a
//!   removal or emptied row flushes alone. After a barrier, footprints read against the
//!   pre-window graph are stale, so edge-referencing deltas fall back
//!   to the conservative unknown footprint (isolated batch).
//!
//! [`IngestPipeline`] drives the loop per window: batch, submit, flush
//! with the serving layer's own bounded-retry contract
//! ([`MAX_BATCH_RETRIES`] — a failed flush re-queues at the front;
//! the pipeline re-flushes until the batch lands or the layer drops it
//! as terminal), and fold every [`SwapReport`](super::SwapReport) into
//! [`IngestStats`].

use super::query::QueryService;
use super::{ShardSwap, MAX_BATCH_RETRIES};
use crate::Result;
use octopus_graph::delta::GraphDelta;
use octopus_graph::TopicGraph;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The weight stages whose per-topic units a batch's footprint
/// invalidates — the first three of
/// [`STAGE_ORDER`](crate::offline::STAGE_ORDER).
pub const WEIGHT_STAGES: [&str; 3] = ["spread-cap", "pb-bound", "mis-tables"];

/// One flush-sized group of deltas plus its union topic footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// The deltas, in original submission order.
    pub deltas: Vec<GraphDelta>,
    /// Union topic footprint; `None` means unknown — assume every
    /// topic's units are invalidated.
    pub topics: Option<BTreeSet<usize>>,
    /// Node/edge keys this batch touches (used for conflict checks).
    keys: BTreeSet<(u8, u32)>,
    /// Whether this batch shifts edge ids (insert/remove barrier).
    shifts_ids: bool,
}

impl DeltaBatch {
    fn new() -> Self {
        DeltaBatch {
            deltas: Vec::new(),
            topics: Some(BTreeSet::new()),
            keys: BTreeSet::new(),
            shifts_ids: false,
        }
    }

    /// Topics this batch touches, or `total_topics` when unknown.
    pub fn topics_touched(&self, total_topics: usize) -> usize {
        self.topics.as_ref().map_or(total_topics, |t| t.len())
    }
}

const EDGE_KEY: u8 = 0;
const NODE_KEY: u8 = 1;

/// Keys a delta orders against other deltas: the edges whose rows it
/// rewrites and the nodes it renames. Two deltas sharing a key must
/// flush in submission order.
fn delta_keys(d: &GraphDelta) -> Vec<(u8, u32)> {
    match d {
        GraphDelta::NudgeWeights { edges, .. } => edges.iter().map(|e| (EDGE_KEY, e.0)).collect(),
        GraphDelta::SetWeights { edge, .. } => vec![(EDGE_KEY, edge.0)],
        GraphDelta::RemoveEdge { edge } => vec![(EDGE_KEY, edge.0)],
        GraphDelta::RenameNode { node, .. } => vec![(NODE_KEY, node.0)],
        // inserts only reference nodes (as endpoints), and insertion
        // order among inserts does not matter for the resulting graph
        GraphDelta::InsertEdge { src, dst, .. } => {
            vec![(NODE_KEY, src.0), (NODE_KEY, dst.0)]
        }
    }
}

/// Split a window's deltas into flush batches whose union footprint
/// stays within a topic cap (see the module docs for the grouping and
/// barrier rules). Deterministic: same deltas + same graph ⇒ same plan.
#[derive(Debug, Clone)]
pub struct TopicBatcher {
    /// Maximum topics one batch may touch. A window confined to ≤ cap
    /// topics flushes as a single batch that reuses ≥ `Z − cap` units
    /// per weight stage (pinned by `crates/bench/tests/ingest_loop.rs`).
    pub max_topics: usize,
}

impl TopicBatcher {
    /// A batcher with the given per-flush topic cap (min 1).
    pub fn new(max_topics: usize) -> Self {
        TopicBatcher {
            max_topics: max_topics.max(1),
        }
    }

    /// Plan the flush batches for `deltas`, footprints read against
    /// `g` — the graph the serving layer holds *before* this window.
    pub fn plan(&self, deltas: &[GraphDelta], g: &TopicGraph) -> Vec<DeltaBatch> {
        let mut batches: Vec<DeltaBatch> = Vec::new();
        // batches before this index are closed (a barrier passed)
        let mut frozen = 0usize;
        // once an id-shifting delta passed, `g`-based footprints of
        // edge-referencing deltas are stale
        let mut ids_shifted = false;
        for d in deltas {
            let keys = delta_keys(d);
            match d {
                GraphDelta::InsertEdge { .. } => {
                    // join the trailing insert run, or open one; either
                    // way everything before it is closed
                    let joins_run = batches
                        .last()
                        .map(|b| {
                            b.shifts_ids
                                && b.deltas
                                    .iter()
                                    .all(|x| matches!(x, GraphDelta::InsertEdge { .. }))
                        })
                        .unwrap_or(false);
                    if !joins_run {
                        frozen = batches.len();
                        let mut b = DeltaBatch::new();
                        b.shifts_ids = true;
                        batches.push(b);
                    }
                    let b = batches.last_mut().expect("just ensured");
                    merge_footprint(&mut b.topics, d.touched_topics(g));
                    b.keys.extend(keys);
                    b.deltas.push(d.clone());
                    frozen = frozen.max(batches.len() - 1);
                    ids_shifted = true;
                }
                _ if drops_edge(d) => {
                    // removals flush alone; everything before is closed
                    let mut b = DeltaBatch::new();
                    b.shifts_ids = true;
                    b.topics = if ids_shifted {
                        None
                    } else {
                        d.touched_topics(g)
                    };
                    b.keys.extend(keys);
                    b.deltas.push(d.clone());
                    batches.push(b);
                    frozen = batches.len();
                    ids_shifted = true;
                }
                _ => {
                    let references_edges = keys.iter().any(|(kind, _)| *kind == EDGE_KEY);
                    let fp = if ids_shifted && references_edges {
                        None // stale ids ⇒ unknown footprint, isolate
                    } else {
                        d.touched_topics(g)
                    };
                    self.place(&mut batches, frozen, d, fp, keys);
                }
            }
        }
        batches
    }

    /// Greedy placement of an id-stable delta: scan open batches newest
    /// first; join the first whose footprint union fits, but never jump
    /// past a batch sharing one of this delta's keys (that would
    /// reorder same-edge/same-node application).
    fn place(
        &self,
        batches: &mut Vec<DeltaBatch>,
        frozen: usize,
        d: &GraphDelta,
        fp: Option<BTreeSet<usize>>,
        keys: Vec<(u8, u32)>,
    ) {
        let mut candidate: Option<usize> = None;
        if fp.is_some() {
            for i in (frozen..batches.len()).rev() {
                let b = &batches[i];
                if b.shifts_ids {
                    break; // never join or jump past a barrier batch
                }
                if self.fits(b, &fp) {
                    candidate = Some(i);
                    break;
                }
                if keys.iter().any(|k| b.keys.contains(k)) {
                    break; // ordering conflict: cannot go earlier
                }
            }
        }
        match candidate {
            Some(i) => {
                let b = &mut batches[i];
                merge_footprint(&mut b.topics, fp);
                b.keys.extend(keys);
                b.deltas.push(d.clone());
            }
            None => {
                let mut b = DeltaBatch::new();
                b.topics = fp;
                b.keys.extend(keys);
                b.deltas.push(d.clone());
                batches.push(b);
            }
        }
    }

    fn fits(&self, b: &DeltaBatch, fp: &Option<BTreeSet<usize>>) -> bool {
        match (&b.topics, fp) {
            // join under the cap — or join without *growing* the batch's
            // footprint (a subset join is free even when the batch is
            // already over the cap: oversized deltas open oversized
            // batches, and everything they cover rides along)
            (Some(have), Some(add)) => {
                add.is_subset(have) || have.union(add).count() <= self.max_topics
            }
            // an unknown footprint fills a batch on its own
            _ => false,
        }
    }
}

/// Whether `d` drops an edge: a removal, or a row replacement with no
/// positive entry.
fn drops_edge(d: &GraphDelta) -> bool {
    match d {
        GraphDelta::RemoveEdge { .. } => true,
        GraphDelta::SetWeights { probs, .. } => !probs.iter().any(|&(_, p)| p > 0.0),
        _ => false,
    }
}

fn merge_footprint(into: &mut Option<BTreeSet<usize>>, add: Option<BTreeSet<usize>>) {
    match (into.as_mut(), add) {
        (Some(have), Some(add)) => have.extend(add),
        _ => *into = None,
    }
}

/// Cumulative counters of one [`IngestPipeline`] — the loop's health
/// and its per-topic-reuse payoff in one scrape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestStats {
    /// Stream actions consumed into fitted windows.
    pub actions_consumed: u64,
    /// Windows fit and submitted.
    pub windows_fit: u64,
    /// Deltas submitted to the serving layer.
    pub deltas_submitted: u64,
    /// Flush batches the batcher planned and the pipeline flushed.
    pub batches_flushed: u64,
    /// Shard epoch swaps those flushes produced.
    pub swaps: u64,
    /// Sparse `(edge, topic)` probability entries moved.
    pub weights_moved: u64,
    /// Topic footprint, summed over batches (a batch with an unknown
    /// footprint counts every topic).
    pub topics_touched: u64,
    /// Weight-stage units reused across all swaps ([`WEIGHT_STAGES`]
    /// only — this is the per-topic-granularity payoff).
    pub weight_units_reused: u64,
    /// Weight-stage units total across all swaps.
    pub weight_units_total: u64,
    /// Flush retries the pipeline issued after failed swaps.
    pub retries: u64,
    /// Batches the serving layer dropped as terminal after
    /// [`MAX_BATCH_RETRIES`] consecutive failures.
    pub batches_dropped: u64,
    /// Stream time (ms) of the newest action folded into a served
    /// epoch — the ingestion watermark.
    pub watermark_ms: u64,
    /// End-to-end action→servable latency of the last window: from
    /// window close (newest action observed) to its last swap landing.
    pub last_window_latency: Duration,
    /// Worst observed window latency.
    pub max_window_latency: Duration,
}

impl IngestStats {
    /// Fraction of weight-stage units reused across all swaps — the
    /// per-topic machinery's payoff; > 0 whenever batches stayed
    /// topic-confined and a cache directory was configured.
    pub fn reuse_ratio(&self) -> f64 {
        if self.weight_units_total == 0 {
            0.0
        } else {
            self.weight_units_reused as f64 / self.weight_units_total as f64
        }
    }
}

/// What one window's submission did.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// 0-based window index.
    pub window: u64,
    /// Deltas this window carried.
    pub deltas: usize,
    /// Batches the planner split them into.
    pub batches: usize,
    /// Epoch swaps the flushes produced.
    pub swaps: Vec<ShardSwap>,
    /// Summed topic footprint across the window's batches.
    pub topics_touched: usize,
    /// Action→servable latency of this window.
    pub latency: Duration,
}

/// Drives the serve side of the loop: batch by topic footprint, submit,
/// flush with bounded retry, account (see the module docs).
pub struct IngestPipeline<'a> {
    service: &'a dyn QueryService,
    batcher: TopicBatcher,
    total_topics: usize,
    flush_budget: Option<usize>,
    stats: IngestStats,
}

impl<'a> IngestPipeline<'a> {
    /// A pipeline feeding `service`, splitting windows into batches of
    /// at most `max_topics` of the graph's `total_topics`.
    pub fn new(service: &'a dyn QueryService, max_topics: usize, total_topics: usize) -> Self {
        IngestPipeline {
            service,
            batcher: TopicBatcher::new(max_topics),
            total_topics,
            flush_budget: None,
            stats: IngestStats::default(),
        }
    }

    /// Cap the flushes (epoch swaps) one window may trigger. Every flush
    /// is a rebuild, so an adversarial window — many deltas with many
    /// distinct wide footprints — could otherwise swap hundreds of times.
    /// When the plan exceeds the budget, **adjacent** batches merge by
    /// smallest union-footprint growth until it fits: concatenating
    /// batches in plan order is always a legal application order (the
    /// planner only reorders deltas across batches when no key ordering
    /// constraint binds them, and merging keeps both the batch order and
    /// each batch's internal order), so the trade is purely confinement
    /// for swap count — the cheapest merges (same footprint, or subset)
    /// cost nothing, and only the tail of the budget forces wide batches.
    pub fn with_flush_budget(mut self, budget: usize) -> Self {
        self.flush_budget = Some(budget.max(1));
        self
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Submit one fitted window. `pre_window` is the graph the serving
    /// layer holds before these deltas (footprints are read against
    /// it); `actions` is how many stream actions the window folded in;
    /// `watermark_ms` the stream time of its newest action;
    /// `window_closed` when the learner finished observing it (the
    /// action→servable clock starts there, so the reported latency
    /// covers fit + diff + batch + rebuild + swap).
    pub fn submit_window(
        &mut self,
        deltas: Vec<GraphDelta>,
        pre_window: &TopicGraph,
        actions: u64,
        watermark_ms: u64,
        window_closed: Instant,
    ) -> Result<WindowReport> {
        let window = self.stats.windows_fit;
        self.stats.windows_fit += 1;
        self.stats.actions_consumed += actions;
        for d in &deltas {
            self.stats.weights_moved += weight_entries(d) as u64;
        }
        let mut plan = self.batcher.plan(&deltas, pre_window);
        if let Some(budget) = self.flush_budget {
            coalesce_to_budget(&mut plan, budget, self.total_topics);
        }
        let mut swaps: Vec<ShardSwap> = Vec::new();
        let mut topics_touched = 0usize;
        for batch in &plan {
            topics_touched += batch.topics_touched(self.total_topics);
            self.stats.deltas_submitted += batch.deltas.len() as u64;
            self.stats.batches_flushed += 1;
            self.service.submit_deltas(batch.deltas.clone());
            swaps.extend(self.flush_with_retry()?);
        }
        self.stats.swaps += swaps.len() as u64;
        self.stats.topics_touched += topics_touched as u64;
        for swap in &swaps {
            for stage in &swap.report.stage_reuse {
                if WEIGHT_STAGES.contains(&stage.stage) {
                    self.stats.weight_units_reused += stage.reused as u64;
                    self.stats.weight_units_total += stage.total as u64;
                }
            }
        }
        self.stats.watermark_ms = self.stats.watermark_ms.max(watermark_ms);
        let latency = window_closed.elapsed();
        self.stats.last_window_latency = latency;
        self.stats.max_window_latency = self.stats.max_window_latency.max(latency);
        Ok(WindowReport {
            window,
            deltas: deltas.len(),
            batches: plan.len(),
            swaps,
            topics_touched,
            latency,
        })
    }

    /// Flush until the submitted batch lands or the serving layer drops
    /// it as terminal. The layer owns the retry contract (failed batches
    /// re-queue at the front, dropped after [`MAX_BATCH_RETRIES`]
    /// consecutive failures); the pipeline just keeps flushing and
    /// counts what happened. Only a flush that errors *without* leaving
    /// a retryable queue — more consecutive errors than the contract
    /// allows — propagates as `Err`.
    fn flush_with_retry(&mut self) -> Result<Vec<ShardSwap>> {
        let before = self.service.delta_counters().terminal_failures;
        let mut last_err = None;
        for _ in 0..=MAX_BATCH_RETRIES {
            match self.service.flush_deltas() {
                Ok(swaps) => {
                    let dropped = self.service.delta_counters().terminal_failures - before;
                    self.stats.batches_dropped += dropped;
                    return Ok(swaps);
                }
                Err(e) => {
                    self.stats.retries += 1;
                    last_err = Some(e);
                    let dropped = self.service.delta_counters().terminal_failures - before;
                    if dropped > 0 {
                        // the layer gave up on the batch; the loop moves on
                        self.stats.batches_dropped += dropped;
                        return Ok(Vec::new());
                    }
                }
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }
}

/// Merge adjacent plan batches, smallest union-footprint growth first,
/// until at most `budget` remain (see
/// [`IngestPipeline::with_flush_budget`] for why adjacency makes the
/// merge order-safe). Ties merge the earliest pair, so the result is
/// deterministic.
fn coalesce_to_budget(plan: &mut Vec<DeltaBatch>, budget: usize, total_topics: usize) {
    let size = |t: &Option<BTreeSet<usize>>| t.as_ref().map_or(total_topics, |s| s.len());
    while plan.len() > budget {
        let mut best: Option<(usize, usize)> = None; // (growth, index)
        for i in 0..plan.len() - 1 {
            let merged = match (&plan[i].topics, &plan[i + 1].topics) {
                (Some(a), Some(b)) => a.union(b).count(),
                _ => total_topics,
            };
            let growth = merged - size(&plan[i].topics).max(size(&plan[i + 1].topics));
            if best.is_none_or(|(g, _)| growth < g) {
                best = Some((growth, i));
            }
        }
        let (_, i) = best.expect("len > budget >= 1 ⇒ at least one pair");
        let right = plan.remove(i + 1);
        let left = &mut plan[i];
        left.deltas.extend(right.deltas);
        merge_footprint(&mut left.topics, right.topics);
        left.keys.extend(right.keys);
        left.shifts_ids |= right.shifts_ids;
    }
}

/// Sparse probability entries a delta moves (weight traffic accounting).
fn weight_entries(d: &GraphDelta) -> usize {
    match d {
        GraphDelta::NudgeWeights { edges, .. } => edges.len(),
        GraphDelta::SetWeights { probs, .. } => probs.len(),
        GraphDelta::InsertEdge { probs, .. } => probs.len(),
        GraphDelta::RemoveEdge { .. } | GraphDelta::RenameNode { .. } => 0,
    }
}
