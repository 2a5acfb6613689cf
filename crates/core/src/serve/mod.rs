//! The concurrent online serving layer: many readers, live graph deltas,
//! atomic epoch swaps.
//!
//! OCTOPUS is pitched as an *online* system — preprocessing exists so
//! interactive topic-aware queries return in real time — and real
//! deployments serve that traffic while the network underneath keeps
//! changing. [`OctopusService`] is the piece between the engine and the
//! connection handlers:
//!
//! * **Readers** [`execute`](QueryService::execute) [`Query`] values —
//!   one per online operator of the paper — on the service: the one read
//!   path. Every query loads the current engine snapshot from an
//!   [`EpochCell`] — one lock, never held across a rebuild — and is
//!   answered entirely on that snapshot, stamped with the epoch id and
//!   latency ([`Served`]). A caller that needs several answers from one
//!   epoch holds [`snapshot`](OctopusService::snapshot) and asks its
//!   engine ([`Octopus::execute`]).
//! * **Writers** [`submit`](OctopusService::submit)
//!   [`GraphDelta`] mutations. Deltas queue up; a flush —
//!   [`apply_pending`](OctopusService::apply_pending), called by the
//!   writer's own thread — drains and **coalesces** the whole batch into
//!   one new graph, rebuilds the engine *off to the side* from the epoch
//!   it replaces (reusing every per-topic unit and PIKS world the batch
//!   left valid), and swaps the epoch in one store. A service built with
//!   [`with_mapped_cache`](OctopusService::with_mapped_cache) goes one
//!   step further: the flush writes the new epoch's OCTA v8 artifact and
//!   serves it **mapped**, so the swapped-in engine reads zero-copy off
//!   the page cache and rebuild writes never enter the read path.
//!
//! ## The epoch lifecycle
//!
//! ```text
//!   epoch N serving ──────────────────────────────▶ still serving ──▶ retired
//!        │                                               │
//!        │ submit(δ₁) submit(δ₂) …                       │ in-flight queries
//!        ▼                                               │ finish on N; new
//!   pending queue ──flush──▶ coalesce δ₁…δₖ              │ queries land on N+1
//!                            rebuild engine (aside)      │
//!                            swap ───────────────────────┘
//! ```
//!
//! Determinism survives serving: the offline pipeline is bit-identical
//! however it is scheduled or partially reused, so the engine of epoch
//! N+1 answers exactly like a fresh engine built from epoch N+1's graph —
//! a reader racing a swap observes *old* or *new*, never a blend (pinned
//! by `tests/serve_epoch.rs`).
//!
//! For graphs too big for one engine, [`shard::ShardedService`] splits
//! the graph into K locality-based shards, runs one engine per shard,
//! scatter-gathers the five operators, and routes each delta to only the
//! shards it touches — see the [`shard`] module docs.
//!
//! Both services are instances of one crate-private core, generic over
//! the snapshot a query runs on (an [`Epoch`] here, every shard's epoch
//! at once there). It owns the pending queue, the flush lock, the
//! drain → rebuild → swap → count routine with its
//! [`MAX_BATCH_RETRIES`] ladder, the counters behind [`ServiceStats`],
//! the admission hook, and the one admit → load → run → stamp read path.

pub mod admission;
mod epoch;
pub mod ingest;
mod query;
mod service_core;
pub mod shard;

pub use admission::AdmissionConfig;
pub use epoch::EpochCell;
pub use ingest::{DeltaBatch, IngestPipeline, IngestStats, TopicBatcher, WindowReport};
pub use query::{DeltaCounters, Operator, Query, QueryResponse, QueryService, Served};
pub use shard::{ShardSwap, ShardedService};

use crate::engine::Octopus;
use crate::offline::{persist, StageReuse, StageTiming};
use crate::Result;
use octopus_graph::delta::{self, Applied, GraphDelta};
use service_core::{Generation, ServiceCore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One generation of the served engine: the engine plus its epoch id.
pub struct Epoch {
    id: u64,
    engine: Octopus,
    /// The `write_seq` the next flush's artifact is stamped with in the
    /// cache directory: unknown until the first flush reads the headers
    /// there once, then one more per flush. Replicas sharing a directory
    /// each count their own; the sequence only orders donors and breaks
    /// prune ties, it never gates reuse.
    next_write_seq: Option<u64>,
}

/// [`SwapReport::stage_timings`] name of a flush's apply pass.
pub const STAGE_DELTA_APPLY: &str = "delta-apply";
/// [`SwapReport::stage_timings`] name of a flush's re-keying of its graph.
pub const STAGE_GRAPH_KEYS: &str = "graph-keys";

impl Epoch {
    /// Epoch 0, serving `engine`.
    fn first(engine: Octopus) -> Self {
        Epoch {
            id: 0,
            engine,
            next_write_seq: None,
        }
    }

    /// The epoch id (0 for the engine the service started with, +1 per
    /// swap).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine serving this epoch.
    pub fn engine(&self) -> &Octopus {
        &self.engine
    }

    /// The epoch after this one, serving `applied.graph`: the engine
    /// rebuilt from this epoch's (reusing every unit the change left valid,
    /// persisted to `dir` if given), with this epoch's keyword overrides
    /// shared forward, and the report of a flush of `deltas` that began at
    /// `start` and spent `apply` in its apply pass.
    fn successor(
        &self,
        applied: Applied,
        apply: Duration,
        dir: Option<&Path>,
        mapped: bool,
        deltas: usize,
        start: Instant,
    ) -> Result<(Epoch, SwapReport)> {
        let next_seq = |d| {
            self.next_write_seq
                .unwrap_or_else(|| persist::next_write_seq(d))
        };
        let seq = dir.map(|d| (d, next_seq(d)));
        let (engine, keys) = self.engine.rebuild(applied, seq, mapped)?;
        let engine = engine.sharing_user_keywords(&self.engine);
        let flush = [(STAGE_DELTA_APPLY, apply), (STAGE_GRAPH_KEYS, keys)];
        let flush = flush.map(|(stage, duration)| StageTiming { stage, duration });
        let report = SwapReport {
            epoch: self.id + 1,
            deltas_applied: deltas,
            rebuild_time: start.elapsed(),
            cache_hit: engine.cache_hit(),
            stage_reuse: engine.stage_reuse().to_vec(),
            stage_timings: [engine.stage_timings(), &flush].concat(),
        };
        Ok((
            Epoch {
                id: self.id + 1,
                engine,
                next_write_seq: seq.map(|(_, seq)| seq + 1),
            },
            report,
        ))
    }
}

impl Generation for Epoch {
    fn epochs(&self) -> Vec<u64> {
        vec![self.id]
    }

    fn stamp(&self) -> u64 {
        self.id
    }
}

/// What one flush did: the batch it coalesced and the rebuild it paid.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// Id of the epoch the flush installed.
    pub epoch: u64,
    /// Deltas coalesced into this epoch's graph.
    pub deltas_applied: usize,
    /// Wall-clock time of the flush up to the swap (delta application +
    /// engine rebuild).
    pub rebuild_time: Duration,
    /// Whether the rebuilt engine reused every offline work unit of the
    /// epoch it replaced (a batch no stage key or PIKS world noticed).
    pub cache_hit: bool,
    /// Per-stage reuse counters of the rebuild: how much of the offline
    /// work the incremental machinery took from the replaced epoch, per
    /// work unit — topic-granular for the weight stages
    /// (`spread-cap`/`pb-bound`/`mis-tables`, one unit per topic) and
    /// world-granular for `piks-worlds`. A topic-`z`-confined nudge batch
    /// therefore reports `Z-1/Z` reused on each weight stage.
    pub stage_reuse: Vec<StageReuse>,
    /// Where the flush's time went: the rebuild's own timings (the new
    /// engine's [`SystemReport::stage_timings`](crate::engine::SystemReport::stage_timings):
    /// the `live-screen`, the stages that rebuilt, the write-back, the
    /// remap), then the two passes before it —
    /// [`STAGE_DELTA_APPLY`], the one apply pass over the batch, and
    /// [`STAGE_GRAPH_KEYS`], the new graph's keys. Both cost `O(Δ)` on a
    /// batch that moves weights only (the apply pass shares the topology
    /// and the keys update from the moved entries) and a walk of the graph
    /// otherwise.
    pub stage_timings: Vec<StageTiming>,
}

/// Service-level counters of either serving layer, scraped via
/// [`OctopusService::stats`] or [`ShardedService::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Epoch id each shard currently serves (index = shard; one entry for
    /// the unsharded service).
    pub current_epochs: Vec<u64>,
    /// Shard swaps performed since construction (one per flush on the
    /// unsharded service; a flush touching three shards counts three).
    pub epochs_swapped: u64,
    /// Deltas successfully applied across all swaps.
    pub deltas_applied: u64,
    /// Flush attempts aborted by a failing delta or rebuild (the old epoch
    /// kept serving; the batch was re-queued for retry unless it had
    /// exhausted [`MAX_BATCH_RETRIES`]).
    pub batches_failed: u64,
    /// Batches dropped for good after failing [`MAX_BATCH_RETRIES`]
    /// consecutive flush attempts — the terminal error surface: a nonzero
    /// value means submitted deltas were lost and an operator should look
    /// at the rejected mutations.
    pub terminal_failures: u64,
    /// Deltas currently queued and not yet flushed (re-queued failed
    /// batches included).
    pub pending_deltas: usize,
    /// Queries served (admitted and run, whether the operator succeeded
    /// or not).
    pub queries_served: u64,
    /// Queries admitted by the admission controller (0 when admission is
    /// off — every query runs unconditionally then).
    pub queries_admitted: u64,
    /// Queries shed with [`CoreError::Overloaded`](crate::CoreError),
    /// total across classes. Always equals the number of `Overloaded`
    /// errors callers observed (pinned by `tests/admission.rs`).
    pub queries_shed: u64,
    /// Per-class shed counts, [`PriorityClass::ALL`](crate::PriorityClass::ALL) order.
    pub shed_by_class: [u64; 3],
}

impl ServiceStats {
    /// Sum of [`current_epochs`](ServiceStats::current_epochs) — the
    /// [`Served::epoch`] stamp a query answered now carries (the epoch id
    /// itself on the unsharded service).
    pub fn current_epoch(&self) -> u64 {
        self.current_epochs.iter().sum()
    }
}

/// How many consecutive flush attempts a failing batch gets before a
/// flush drops it and counts a [`ServiceStats::terminal_failures`].
/// Transient failures (an unwritable cache volume, a mid-compaction
/// artifact) heal within a retry or two; a deterministically inapplicable
/// batch would otherwise wedge the queue head forever.
pub const MAX_BATCH_RETRIES: u64 = 3;

/// The serving layer around one [`Octopus`] engine — see the module docs.
pub struct OctopusService {
    core: ServiceCore<Epoch>,
    /// `Some(dir)` persists every flushed epoch there.
    cache_dir: Option<PathBuf>,
    /// With a cache directory: rebuild engines in **mapped mode** — the
    /// flush writes the new epoch's OCTA v8 artifact, then *remaps* it,
    /// so the swapped-in engine serves zero-copy off the page cache and
    /// replicas mapping the same file share it.
    mapped: bool,
}

impl OctopusService {
    /// Serve `engine` as epoch 0. Each flush rebuilds from the epoch it
    /// replaces, reusing every work unit the batch left valid.
    pub fn new(engine: Octopus) -> Self {
        Self::with_options(engine, None, false)
    }

    /// [`OctopusService::new`], also persisting every flushed epoch to
    /// `dir` for restarts ([`Octopus::open_or_build`]); a flush writes the
    /// directory, never reads it.
    pub fn with_cache_dir(engine: Octopus, dir: impl Into<PathBuf>) -> Self {
        Self::with_options(engine, Some(dir.into()), false)
    }

    /// [`OctopusService::with_cache_dir`], swapping in **mapped** engines:
    /// each flush maps the file a replica sharing `dir` wrote for the same
    /// graph, or else the one it wrote, so replicas share page cache.
    pub fn with_mapped_cache(engine: Octopus, dir: impl Into<PathBuf>) -> Self {
        Self::with_options(engine, Some(dir.into()), true)
    }

    fn with_options(engine: Octopus, cache_dir: Option<PathBuf>, mapped: bool) -> Self {
        OctopusService {
            core: ServiceCore::new(Epoch::first(engine)),
            cache_dir,
            mapped,
        }
    }

    /// Put an admission controller in front of every query but
    /// autocomplete: bounded per-class wait queues, at most
    /// `cfg.max_inflight` queries executing, shed-on-overload with
    /// [`CoreError::Overloaded`](crate::CoreError). Without this, every
    /// query runs unconditionally (the pre-admission behavior).
    pub fn with_admission(self, cfg: AdmissionConfig) -> Self {
        OctopusService {
            core: self.core.with_admission(cfg),
            ..self
        }
    }

    /// The currently serving epoch. The returned handle stays valid (and
    /// keeps answering identically) for as long as the caller holds it,
    /// across any number of swaps; holding it never delays a swap, it only
    /// keeps that epoch's memory alive.
    ///
    /// This is how a caller gets several answers from one epoch (a UI
    /// drilling into one answer): hold the snapshot and call
    /// [`Octopus::execute`] on its [`engine`](Epoch::engine). Those
    /// queries bypass admission and the [`ServiceStats`] counters; their
    /// epoch is the snapshot's [`id`](Epoch::id).
    pub fn snapshot(&self) -> Arc<Epoch> {
        self.core.load()
    }

    /// Queue a graph mutation for the next flush. Never blocks readers and
    /// never triggers a rebuild by itself.
    pub fn submit(&self, delta: GraphDelta) {
        self.core.submit(delta);
    }

    /// Queue several mutations at once (kept in order).
    pub fn submit_all(&self, deltas: impl IntoIterator<Item = GraphDelta>) {
        self.core.submit_all(deltas);
    }

    /// Drain the pending queue, coalesce it into one new graph, rebuild
    /// the engine, and atomically swap the epoch.
    ///
    /// Returns `Ok(None)` when nothing was pending. On `Ok(Some(report))`
    /// the new epoch is live: queries that grabbed their snapshot before
    /// the swap finish on the old engine, later ones see the new one, and
    /// both answer bit-identically to fresh engines built from their
    /// respective graphs.
    ///
    /// On `Err`, the old epoch keeps serving and the drained batch is
    /// **re-queued at the front** of the pending queue (ahead of deltas
    /// submitted meanwhile, preserving submission order), so a transient
    /// failure — an unwritable cache volume, a racing compaction — costs a
    /// retry, not the mutations. A batch that keeps failing is dropped
    /// after [`MAX_BATCH_RETRIES`] consecutive attempts and surfaces as a
    /// [`ServiceStats::terminal_failures`] increment: an inapplicable
    /// delta (say, removing an edge another delta already removed) delays
    /// the queue for a bounded number of flushes, never poisons the
    /// service, and never wedges the queue head forever. Until then the
    /// failing batch blocks later deltas (head-of-line) — deliberate,
    /// because deltas are order-dependent.
    ///
    /// Flushes serialize among themselves; deltas submitted while a flush
    /// is rebuilding wait for the next flush. Readers never wait on a
    /// rebuild: it runs entirely off to the side, and the swap itself is
    /// one pointer replace.
    pub fn apply_pending(&self) -> Result<Option<SwapReport>> {
        let swaps = self.core.flush(|base, batch| {
            let start = Instant::now();
            let applied = delta::apply_all_visiting(base.engine.graph(), batch, |_, _| {})?;
            let (apply, dir) = (start.elapsed(), self.cache_dir.as_deref());
            let (mapped, deltas) = (self.mapped, batch.len());
            let (next, report) = base.successor(applied, apply, dir, mapped, deltas, start)?;
            Ok((next, vec![ShardSwap { shard: 0, report }]))
        })?;
        Ok(swaps.into_iter().next().map(|swap| swap.report))
    }

    /// Test-only fault injection: make the next `n` non-empty flushes fail
    /// in place of their rebuild, as a transiently failing rebuild would.
    /// Genuine rebuild failures are deterministic (a bad delta fails every
    /// retry), so the retry path is only reachable through this hook.
    #[doc(hidden)]
    pub fn fail_next_rebuilds(&self, n: u64) {
        self.core.fail_next_rebuilds(n);
    }

    /// Current service-level counters.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }
}
