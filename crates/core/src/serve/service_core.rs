//! The serving machinery both layers share: one [`ServiceCore`] per
//! service, instantiated over that service's snapshot type — an
//! [`Epoch`](super::Epoch) for [`OctopusService`](super::OctopusService),
//! the router snapshot holding every shard's epoch for
//! [`ShardedService`](super::ShardedService).
//!
//! The core owns the pending delta queue, the flush lock, the
//! drain → rebuild → swap → count routine with its retry ladder, the
//! counters, the admission hook, and the one admit → load → run → stamp
//! read path. A service supplies only its domain logic: how one snapshot
//! answers a query, and how a batch turns the live snapshot into the next.

use super::admission::{AdmissionConfig, AdmissionController, Permit};
use super::{
    DeltaCounters, EpochCell, Operator, Query, Served, ServiceStats, ShardSwap, MAX_BATCH_RETRIES,
};
use crate::budget::QueryBudget;
use crate::Result;
use octopus_graph::delta::GraphDelta;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// What a serving snapshot reports about itself.
pub(crate) trait Generation {
    /// The epoch id of every shard the snapshot serves, shard order.
    fn epochs(&self) -> Vec<u64>;

    /// The stamp of an answer served on this snapshot ([`Served::epoch`]):
    /// the sum of [`epochs`](Generation::epochs).
    fn stamp(&self) -> u64;
}

/// One serving layer's shared state — see the module docs.
pub(crate) struct ServiceCore<S> {
    cell: EpochCell<S>,
    pending: Mutex<Vec<GraphDelta>>,
    /// Serializes flushes (readers never touch it) and holds the queue
    /// head's consecutive failed attempts, reset by any successful flush.
    flush: Mutex<u64>,
    // statistics: they publish no other data, so every access is Relaxed
    epochs_swapped: AtomicU64,
    deltas_applied: AtomicU64,
    batches_failed: AtomicU64,
    terminal_failures: AtomicU64,
    /// Test-only fault injection: fail this many upcoming rebuilds.
    inject_failures: AtomicU64,
    queries_served: AtomicU64,
    admission: Option<AdmissionController>,
}

impl<S: Generation> ServiceCore<S> {
    /// A core serving `initial`, with an empty queue and no admission.
    pub(crate) fn new(initial: S) -> Self {
        ServiceCore {
            cell: EpochCell::new(Arc::new(initial)),
            pending: Mutex::new(Vec::new()),
            flush: Mutex::new(0),
            epochs_swapped: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            batches_failed: AtomicU64::new(0),
            terminal_failures: AtomicU64::new(0),
            inject_failures: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            admission: None,
        }
    }

    /// Put an admission controller in front of every query but
    /// autocomplete (see [`admit`]).
    pub(crate) fn with_admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionController::new(cfg));
        self
    }

    /// The live snapshot.
    pub(crate) fn load(&self) -> Arc<S> {
        self.cell.load()
    }

    /// The one admit → load → run → stamp read path.
    ///
    /// Admission comes first: a shed query (the outer `Err`) never loads
    /// a snapshot or runs. An admitted query runs `answer` on the live
    /// snapshot and is stamped with that snapshot's [`Generation::stamp`]
    /// and the latency the client observed, admission wait included.
    pub(crate) fn run<T>(
        &self,
        query: &Query,
        budget: &QueryBudget,
        answer: impl FnOnce(&S) -> T,
    ) -> Result<Served<T>> {
        let start = Instant::now();
        let _permit = admit(&self.admission, query, budget)?;
        let snapshot = self.load();
        let value = answer(&snapshot);
        self.queries_served.fetch_add(1, Relaxed);
        Ok(Served {
            value,
            epoch: snapshot.stamp(),
            latency: start.elapsed(),
        })
    }

    /// Queue one mutation for the next flush.
    pub(crate) fn submit(&self, delta: GraphDelta) {
        self.pending.lock().push(delta);
    }

    /// Queue several mutations at once (kept in order).
    pub(crate) fn submit_all(&self, deltas: impl IntoIterator<Item = GraphDelta>) {
        self.pending.lock().extend(deltas);
    }

    /// Drain the queue, let `rebuild` turn the live snapshot and the batch
    /// into the next snapshot plus one [`ShardSwap`] per rebuilt shard,
    /// swap it in with one store, and count. `Ok(vec![])` when nothing
    /// was pending.
    ///
    /// On `Err` nothing was swapped and the batch is re-queued at the
    /// front, ahead of deltas submitted meanwhile; after
    /// [`MAX_BATCH_RETRIES`] consecutive failures it is dropped and
    /// counted in [`ServiceStats::terminal_failures`].
    pub(crate) fn flush(
        &self,
        rebuild: impl FnOnce(&S, &[GraphDelta]) -> Result<(S, Vec<ShardSwap>)>,
    ) -> Result<Vec<ShardSwap>> {
        let mut failures = self.flush.lock();
        let batch = std::mem::take(&mut *self.pending.lock());
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let rebuilt = match self.take_injected_failure() {
            Some(e) => Err(e),
            None => rebuild(&self.load(), &batch),
        };
        let (next, swaps) = match rebuilt {
            Ok(r) => r,
            Err(e) => {
                self.batches_failed.fetch_add(1, Relaxed);
                *failures += 1;
                if *failures >= MAX_BATCH_RETRIES {
                    *failures = 0;
                    self.terminal_failures.fetch_add(1, Relaxed);
                } else {
                    self.pending.lock().splice(0..0, batch);
                }
                return Err(e);
            }
        };
        *failures = 0;
        drop(self.cell.swap(Arc::new(next))); // in-flight queries hold their own
        self.epochs_swapped.fetch_add(swaps.len() as u64, Relaxed);
        self.deltas_applied.fetch_add(batch.len() as u64, Relaxed);
        Ok(swaps)
    }

    /// Test-only fault injection: make the next `n` non-empty flushes
    /// fail in place of their rebuild.
    pub(crate) fn fail_next_rebuilds(&self, n: u64) {
        self.inject_failures.store(n, Relaxed);
    }

    fn take_injected_failure(&self) -> Option<crate::CoreError> {
        let left = self.inject_failures.load(Relaxed);
        (left > 0).then(|| {
            self.inject_failures.store(left - 1, Relaxed);
            crate::CoreError::Artifact("injected transient rebuild failure".into())
        })
    }

    /// The delta-side counters.
    pub(crate) fn delta_counters(&self) -> DeltaCounters {
        DeltaCounters {
            deltas_applied: self.deltas_applied.load(Relaxed),
            batches_failed: self.batches_failed.load(Relaxed),
            terminal_failures: self.terminal_failures.load(Relaxed),
            pending_deltas: self.pending.lock().len(),
        }
    }

    /// Every counter, the live snapshot's epochs and admission's counts.
    pub(crate) fn stats(&self) -> ServiceStats {
        let (admitted, shed) = self
            .admission
            .as_ref()
            .map_or(([0; 3], [0; 3]), AdmissionController::counters);
        let delta = self.delta_counters();
        ServiceStats {
            current_epochs: self.load().epochs(),
            epochs_swapped: self.epochs_swapped.load(Relaxed),
            deltas_applied: delta.deltas_applied,
            batches_failed: delta.batches_failed,
            terminal_failures: delta.terminal_failures,
            pending_deltas: delta.pending_deltas,
            queries_served: self.queries_served.load(Relaxed),
            queries_admitted: admitted.iter().sum(),
            queries_shed: shed.iter().sum(),
            shed_by_class: shed,
        }
    }
}

/// The admission step: hold an execution slot of the budget's class for
/// as long as the returned permit lives, or shed with
/// [`CoreError::Overloaded`](crate::CoreError). `None` — run
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
