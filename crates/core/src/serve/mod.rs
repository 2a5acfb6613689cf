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
//!   one per online operator of the paper — on the service itself or on
//!   a per-client [`Session`]; every query grabs the current engine
//!   snapshot from an [`EpochCell`] — no lock, no waiting on writers —
//!   and is answered entirely on that snapshot, stamped with the epoch
//!   id and latency ([`Served`]).
//! * **Writers** [`submit`](OctopusService::submit)
//!   [`GraphDelta`] mutations. Deltas queue up; a flush —
//!   [`apply_pending`](OctopusService::apply_pending), called directly or
//!   by a [`spawn_rebuilder`](OctopusService::spawn_rebuilder) background
//!   thread — drains and **coalesces** the whole batch into one new
//!   graph, rebuilds the engine *off to the side* from the epoch it
//!   replaces (reusing every per-topic unit and PIKS world the batch left
//!   valid), and atomically swaps the epoch. A service built with
//!   [`with_mapped_cache`](OctopusService::with_mapped_cache) goes one
//!   step further: the flush writes the new epoch's OCTA v7 artifact and
//!   **remaps** it, so the swapped-in engine serves zero-copy off the
//!   page cache and rebuild writes never enter the read path.
//!
//! ## The epoch lifecycle
//!
//! ```text
//!   epoch N serving ──────────────────────────────▶ still serving ──▶ retired
//!        │                                               │
//!        │ submit(δ₁) submit(δ₂) …                       │ in-flight queries
//!        ▼                                               │ finish on N; new
//!   pending queue ──flush──▶ coalesce δ₁…δₖ              │ queries land on N+1
//!                            rebuild engine (background) │
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
//! the graph into K locality-based shards, runs one engine + epoch cell
//! per shard, scatter-gathers the five operators, and routes each delta
//! to only the shards it touches — see the [`shard`] module docs.

pub mod admission;
mod epoch;
pub mod ingest;
mod query;
mod session;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionController, Permit};
pub use epoch::EpochCell;
pub use ingest::{DeltaBatch, IngestPipeline, IngestStats, TopicBatcher, WindowReport};
pub use query::{DeltaCounters, Query, QueryResponse, QueryService};
pub use session::{OpStats, Operator, Served, Session, SessionStats};
pub use shard::{ShardSwap, ShardedService, ShardedStats};

use crate::budget::QueryBudget;
use crate::engine::Octopus;
use crate::offline::{StageReuse, StageTiming};
use crate::Result;
use octopus_graph::delta::{self, GraphDelta};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One generation of the served engine: the engine plus its epoch id.
pub struct Epoch {
    id: u64,
    engine: Octopus,
}

impl Epoch {
    /// The epoch id (0 for the engine the service started with, +1 per
    /// swap).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine serving this epoch.
    pub fn engine(&self) -> &Octopus {
        &self.engine
    }
}

/// What one flush did: the batch it coalesced and the rebuild it paid.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// Id of the epoch the flush installed.
    pub epoch: u64,
    /// Deltas coalesced into this epoch's graph.
    pub deltas_applied: usize,
    /// Wall-clock time of the whole flush (delta application + engine
    /// rebuild + swap).
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
    /// Where the rebuild's time went ([`Octopus::stage_timings`]): the
    /// `live-screen`, the stages that rebuilt, the write-back, the remap.
    pub stage_timings: Vec<StageTiming>,
}

/// Service-level counters, scraped via [`OctopusService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Id of the epoch currently serving.
    pub current_epoch: u64,
    /// Epoch swaps performed since construction.
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
    /// Queries served across all sessions.
    pub queries_served: u64,
    /// Queries admitted by the admission controller (0 when admission is
    /// off — every query runs unconditionally then).
    pub queries_admitted: u64,
    /// Queries shed with [`CoreError::Overloaded`](crate::CoreError),
    /// total across classes. Always equals the number of `Overloaded`
    /// errors sessions observed (pinned by `tests/admission.rs`).
    pub queries_shed: u64,
    /// Per-class shed counts, [`PriorityClass::ALL`](crate::PriorityClass::ALL) order.
    pub shed_by_class: [u64; 3],
}

/// How many consecutive flush attempts a failing batch gets before
/// [`OctopusService::apply_pending`] drops it and counts a
/// [`ServiceStats::terminal_failures`]. Transient failures (an unwritable
/// cache volume, a mid-compaction artifact) heal within a retry or two; a
/// deterministically inapplicable batch would otherwise wedge the queue
/// head forever.
pub const MAX_BATCH_RETRIES: u64 = 3;

/// The serving layer around one [`Octopus`] engine — see the module docs.
pub struct OctopusService {
    cell: EpochCell<Epoch>,
    pending: Mutex<Vec<GraphDelta>>,
    /// Serializes flushes; readers never touch it.
    flush: Mutex<()>,
    /// `Some(dir)` persists every flushed epoch there.
    cache_dir: Option<PathBuf>,
    /// With a cache directory: rebuild engines in **mapped mode** — the
    /// flush writes the new epoch's OCTA v7 artifact, then *remaps* it,
    /// so the swapped-in engine serves zero-copy off the page cache and
    /// replicas mapping the same file share it.
    mapped: bool,
    epochs_swapped: AtomicU64,
    deltas_applied: AtomicU64,
    batches_failed: AtomicU64,
    terminal_failures: AtomicU64,
    /// Consecutive failed flush attempts of the current queue head (reset
    /// by any successful flush; only ever touched under the flush lock).
    flush_failures: AtomicU64,
    /// Test-only fault injection: fail this many upcoming rebuilds.
    inject_failures: AtomicU64,
    queries_served: AtomicU64,
    /// `Some` puts an admission controller in front of every session
    /// query (see [`OctopusService::with_admission`]).
    admission: Option<AdmissionController>,
}

impl OctopusService {
    /// Serve `engine` as epoch 0. Each flush rebuilds from the epoch it
    /// replaces, reusing every work unit the batch left valid.
    pub fn new(engine: Octopus) -> Self {
        Self::with_cache_dir_opt(engine, None)
    }

    /// [`OctopusService::new`], also persisting every flushed epoch to
    /// `dir` for restarts ([`Octopus::open_or_build`]); a flush writes the
    /// directory, never reads it.
    pub fn with_cache_dir(engine: Octopus, dir: impl Into<PathBuf>) -> Self {
        Self::with_cache_dir_opt(engine, Some(dir.into()))
    }

    /// [`OctopusService::with_cache_dir`], swapping in **mapped** engines:
    /// each flush maps the file a replica sharing `dir` wrote for the same
    /// graph, or else the one it wrote, so replicas share page cache.
    pub fn with_mapped_cache(engine: Octopus, dir: impl Into<PathBuf>) -> Self {
        let mut s = Self::with_cache_dir_opt(engine, Some(dir.into()));
        s.mapped = true;
        s
    }

    fn with_cache_dir_opt(engine: Octopus, cache_dir: Option<PathBuf>) -> Self {
        OctopusService {
            cell: EpochCell::new(Arc::new(Epoch { id: 0, engine })),
            pending: Mutex::new(Vec::new()),
            flush: Mutex::new(()),
            cache_dir,
            mapped: false,
            epochs_swapped: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            batches_failed: AtomicU64::new(0),
            terminal_failures: AtomicU64::new(0),
            flush_failures: AtomicU64::new(0),
            inject_failures: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            admission: None,
        }
    }

    /// Put an admission controller in front of every session query:
    /// bounded per-class wait queues, at most `cfg.max_inflight` queries
    /// executing, shed-on-overload with
    /// [`CoreError::Overloaded`](crate::CoreError). Without this, every
    /// query runs unconditionally (the pre-admission behavior).
    pub fn with_admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionController::new(cfg));
        self
    }

    /// The one admit → snapshot-or-pin → run → stamp routine behind both
    /// [`Session::execute`] and this service's [`QueryService::execute`].
    ///
    /// Admission ([`admit`]) comes first: a shed query (the outer `Err`)
    /// never grabs a snapshot or executes. An admitted query runs on
    /// `pinned` if given, else on the live epoch, and is stamped with the
    /// id of the snapshot that actually answered it and the latency the
    /// client observed, admission wait included — whether the operator
    /// itself (the inner `Result`) succeeded or not.
    pub(crate) fn run(
        &self,
        pinned: Option<&Arc<Epoch>>,
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<Served<Result<QueryResponse>>> {
        let start = Instant::now();
        let _permit = admit(&self.admission, query, budget)?;
        let epoch = pinned.map_or_else(|| self.snapshot(), Arc::clone);
        let value = epoch.engine.execute(query, budget);
        self.queries_served.fetch_add(1, SeqCst);
        Ok(Served {
            value,
            epoch: epoch.id,
            latency: start.elapsed(),
        })
    }

    /// The currently serving epoch. The returned handle stays valid (and
    /// keeps answering identically) for as long as the caller holds it,
    /// across any number of swaps.
    pub fn snapshot(&self) -> Arc<Epoch> {
        self.cell.load()
    }

    /// Id of the currently serving epoch.
    pub fn current_epoch(&self) -> u64 {
        self.snapshot().id
    }

    /// Open a client session.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Queue a graph mutation for the next flush. Never blocks readers and
    /// never triggers a rebuild by itself.
    pub fn submit(&self, delta: GraphDelta) {
        self.pending.lock().push(delta);
    }

    /// Queue several mutations at once (kept in order).
    pub fn submit_all(&self, deltas: impl IntoIterator<Item = GraphDelta>) {
        self.pending.lock().extend(deltas);
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
    /// is rebuilding wait for the next flush. Readers are never blocked:
    /// the rebuild runs entirely off to the side, and the swap itself is
    /// one atomic pointer store.
    pub fn apply_pending(&self) -> Result<Option<SwapReport>> {
        let _exclusive = self.flush.lock();
        let batch: Vec<GraphDelta> = std::mem::take(&mut *self.pending.lock());
        if batch.is_empty() {
            return Ok(None);
        }
        let start = Instant::now();
        let base = self.snapshot();
        let rebuilt = match self.rebuild(&base, &batch) {
            Ok(r) => r,
            Err(e) => {
                self.note_flush_failure(batch);
                return Err(e);
            }
        };
        self.flush_failures.store(0, SeqCst);
        let report = SwapReport {
            epoch: base.id + 1,
            deltas_applied: batch.len(),
            rebuild_time: start.elapsed(),
            cache_hit: rebuilt.cache_hit(),
            stage_reuse: rebuilt.stage_reuse().to_vec(),
            stage_timings: rebuilt.stage_timings().to_vec(),
        };
        let old = self.cell.swap(Arc::new(Epoch {
            id: base.id + 1,
            engine: rebuilt,
        }));
        drop(old); // in-flight queries may still hold their own snapshots
        self.epochs_swapped.fetch_add(1, SeqCst);
        self.deltas_applied.fetch_add(batch.len() as u64, SeqCst);
        Ok(Some(report))
    }

    /// Coalesce `batch` onto `base`'s graph and build the replacement
    /// engine from `base` (no swap; pure function of its inputs).
    fn rebuild(&self, base: &Epoch, batch: &[GraphDelta]) -> Result<Octopus> {
        let graph = delta::apply_all(base.engine.graph(), batch)?;
        if self.inject_failures.load(SeqCst) > 0 {
            self.inject_failures.fetch_sub(1, SeqCst);
            return Err(crate::CoreError::Artifact(
                "injected transient rebuild failure".into(),
            ));
        }
        let (live, dir) = (&base.engine, self.cache_dir.as_deref());
        let rebuilt = live.rebuild(graph, dir, self.mapped)?;
        Ok(rebuilt.with_user_keywords(base.engine.user_keywords().clone()))
    }

    /// Bookkeeping for one failed flush attempt: count it, and either
    /// re-queue `batch` at the queue front or — after [`MAX_BATCH_RETRIES`]
    /// consecutive failures — drop it and record the terminal failure.
    /// Only ever called under the flush lock.
    fn note_flush_failure(&self, batch: Vec<GraphDelta>) {
        self.batches_failed.fetch_add(1, SeqCst);
        let failures = self.flush_failures.fetch_add(1, SeqCst) + 1;
        if failures >= MAX_BATCH_RETRIES {
            self.flush_failures.store(0, SeqCst);
            self.terminal_failures.fetch_add(1, SeqCst);
            return; // batch dropped for good
        }
        let mut pending = self.pending.lock();
        let mut requeued = batch;
        requeued.append(&mut pending);
        *pending = requeued;
    }

    /// Test-only fault injection: make the next `n` flush attempts fail
    /// after delta application, as a transiently failing rebuild would.
    /// Genuine rebuild failures are deterministic (a bad delta fails every
    /// retry), so the retry path is only reachable through this hook.
    #[doc(hidden)]
    pub fn fail_next_rebuilds(&self, n: u64) {
        self.inject_failures.store(n, SeqCst);
    }

    /// Spawn a background thread that flushes the pending queue whenever
    /// it is non-empty, polling every `poll`. Failed batches are counted
    /// in [`ServiceStats::batches_failed`] and serving continues on the
    /// old epoch. Dropping (or [`stop`](RebuilderHandle::stop)ping) the
    /// returned handle shuts the thread down after its current flush.
    pub fn spawn_rebuilder(self: &Arc<Self>, poll: Duration) -> RebuilderHandle {
        let service = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            while !stop_flag.load(SeqCst) {
                if !service.pending.lock().is_empty() {
                    // errors are reflected in batches_failed; the rebuilder
                    // keeps serving the old epoch and keeps polling
                    let _ = service.apply_pending();
                }
                std::thread::sleep(poll);
            }
        });
        RebuilderHandle {
            stop,
            join: Some(join),
        }
    }

    /// Current service-level counters.
    pub fn stats(&self) -> ServiceStats {
        let (admitted, shed) = self
            .admission
            .as_ref()
            .map(|a| a.counters())
            .unwrap_or(([0; 3], [0; 3]));
        ServiceStats {
            current_epoch: self.current_epoch(),
            epochs_swapped: self.epochs_swapped.load(SeqCst),
            deltas_applied: self.deltas_applied.load(SeqCst),
            batches_failed: self.batches_failed.load(SeqCst),
            terminal_failures: self.terminal_failures.load(SeqCst),
            pending_deltas: self.pending.lock().len(),
            queries_served: self.queries_served.load(SeqCst),
            queries_admitted: admitted.iter().sum(),
            queries_shed: shed.iter().sum(),
            shed_by_class: shed,
        }
    }
}

/// The admission step of both serving layers: hold an execution slot of
/// the budget's class for as long as the returned permit lives, or shed
/// with [`CoreError::Overloaded`](crate::CoreError). `None` — run
/// unconditionally — when the layer has no controller, and for
/// autocomplete always: a sublinear trie walk costs less than the queue
/// it would wait in, and bypassing keeps it genuinely infallible.
fn admit<'a>(
    admission: &'a Option<AdmissionController>,
    query: &Query,
    budget: &QueryBudget,
) -> Result<Option<Permit<'a>>> {
    match admission {
        Some(ctl) if query.operator() != Operator::Autocomplete => {
            ctl.admit(budget.class).map(Some)
        }
        _ => Ok(None),
    }
}

/// Handle on a [`spawn_rebuilder`](OctopusService::spawn_rebuilder)
/// thread; stops it on drop.
pub struct RebuilderHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl RebuilderHandle {
    /// Stop the rebuilder and wait for it to exit (pending deltas stay
    /// queued for a later manual flush).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for RebuilderHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
