//! Admission control for the serving layer: priority classes, bounded
//! per-class wait queues, shed-on-overload.
//!
//! The policy is a small pure state machine ([`AdmissionCore`]) so the
//! invariants are directly testable (the proptests in
//! `crates/core/tests/admission.rs` drive it synchronously), wrapped in a
//! blocking `AdmissionController` the services call:
//!
//! * at most `max_inflight` queries execute at once;
//! * an arrival when a slot is free is admitted immediately (no queue can
//!   be non-empty while a slot is free — dispatch on every departure
//!   drains queues first, so `waiting > 0 ⟺ inflight == max_inflight`);
//! * otherwise the arrival waits in its [`PriorityClass`] queue, bounded
//!   by that class's cap; a full queue sheds the arrival with
//!   [`CoreError::Overloaded`] — the query
//!   is never executed;
//! * departures dispatch the longest-waiting query of the
//!   highest-priority non-empty class, so a higher class is never shed
//!   while a lower class would have been admitted in its place: classes
//!   only compete for *queue space within their own class*, and for
//!   dispatch the order is strict.

use crate::budget::PriorityClass;
use crate::error::CoreError;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Condvar, Mutex};

/// What [`AdmissionCore::arrive`] decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// A slot was free: run now.
    Admit,
    /// All slots busy, queue had room: wait for ticket `ticket` of the
    /// class to be dispatched.
    Enqueue {
        /// This waiter's position in the class's cumulative ticket
        /// sequence; it runs once `dispatched > ticket`.
        ticket: u64,
    },
    /// All slots busy and the class queue is at its cap: shed.
    Shed,
}

/// The pure admission state machine (see module docs for the policy).
#[derive(Debug, Clone)]
pub struct AdmissionCore {
    max_inflight: usize,
    queue_caps: [usize; 3],
    inflight: usize,
    waiting: [usize; 3],
    /// Cumulative tickets handed out per class.
    enqueued: [u64; 3],
    /// Cumulative tickets dispatched per class (FIFO within a class).
    dispatched: [u64; 3],
    admitted: [u64; 3],
    shed: [u64; 3],
}

impl AdmissionCore {
    /// A core with `max_inflight` execution slots and per-class queue caps.
    pub fn new(max_inflight: usize, queue_caps: [usize; 3]) -> Self {
        AdmissionCore {
            max_inflight: max_inflight.max(1),
            queue_caps,
            inflight: 0,
            waiting: [0; 3],
            enqueued: [0; 3],
            dispatched: [0; 3],
            admitted: [0; 3],
            shed: [0; 3],
        }
    }

    /// One query arrives. Mutates the state per the policy.
    pub fn arrive(&mut self, class: PriorityClass) -> Arrival {
        let c = class.index();
        if self.inflight < self.max_inflight {
            debug_assert!(
                self.waiting.iter().all(|&w| w == 0),
                "a free slot with waiters violates the dispatch invariant"
            );
            self.inflight += 1;
            self.admitted[c] += 1;
            return Arrival::Admit;
        }
        if self.waiting[c] < self.queue_caps[c] {
            self.waiting[c] += 1;
            let ticket = self.enqueued[c];
            self.enqueued[c] += 1;
            return Arrival::Enqueue { ticket };
        }
        self.shed[c] += 1;
        Arrival::Shed
    }

    /// One admitted query finishes. Returns the class whose next waiter
    /// now runs (the slot transfers without ever being free), if any.
    pub fn depart(&mut self) -> Option<PriorityClass> {
        debug_assert!(self.inflight > 0, "depart without an inflight query");
        for class in PriorityClass::ALL {
            let c = class.index();
            if self.waiting[c] > 0 {
                self.waiting[c] -= 1;
                self.dispatched[c] += 1;
                self.admitted[c] += 1;
                return Some(class);
            }
        }
        self.inflight -= 1;
        None
    }

    /// Queries currently executing.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Queries currently waiting, per class.
    pub fn waiting(&self) -> [usize; 3] {
        self.waiting
    }

    /// Cumulative per-class dispatch counters (FIFO tickets served).
    pub fn dispatched(&self) -> [u64; 3] {
        self.dispatched
    }

    /// Cumulative admissions per class (immediate + dispatched-from-queue).
    pub fn admitted(&self) -> [u64; 3] {
        self.admitted
    }

    /// Cumulative sheds per class.
    pub fn shed(&self) -> [u64; 3] {
        self.shed
    }

    /// The configured per-class queue caps.
    pub fn queue_caps(&self) -> [usize; 3] {
        self.queue_caps
    }

    /// The configured inflight cap.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }
}

/// Configuration of the admission controller a service puts in front of
/// its queries ([`OctopusService::with_admission`](super::OctopusService::with_admission)).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Execution slots (queries running concurrently).
    pub max_inflight: usize,
    /// Wait-queue caps per class, [`PriorityClass::ALL`] order.
    pub queue_caps: [usize; 3],
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 8,
            queue_caps: [16, 16, 8],
        }
    }
}

/// Thread-safe blocking wrapper around [`AdmissionCore`].
///
/// Uses `std::sync::{Mutex, Condvar}` (the vendored `parking_lot` has no
/// condvar). Waiters block until their FIFO ticket is dispatched; the
/// returned [`Permit`] releases the slot on drop, dispatching the next
/// waiter under the same lock so a slot is never observably free while a
/// queue is non-empty.
#[derive(Debug)]
pub(crate) struct AdmissionController {
    core: Mutex<AdmissionCore>,
    cv: Condvar,
    /// Lock-free mirrors of the cumulative counters, for stats snapshots.
    admitted: [AtomicU64; 3],
    shed: [AtomicU64; 3],
}

impl AdmissionController {
    /// Build a controller from its config.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            core: Mutex::new(AdmissionCore::new(cfg.max_inflight, cfg.queue_caps)),
            cv: Condvar::new(),
            admitted: Default::default(),
            shed: Default::default(),
        }
    }

    /// Admit one query of `class`, blocking in its bounded queue if all
    /// slots are busy. `Err(CoreError::Overloaded)` means the query was
    /// shed and never ran.
    pub fn admit(&self, class: PriorityClass) -> crate::Result<Permit<'_>> {
        let c = class.index();
        let mut core = self.core.lock().expect("admission lock poisoned");
        match core.arrive(class) {
            Arrival::Admit => {
                self.admitted[c].fetch_add(1, Relaxed);
                Ok(Permit { ctl: self })
            }
            Arrival::Shed => {
                let queued = core.waiting()[c];
                self.shed[c].fetch_add(1, Relaxed);
                Err(CoreError::Overloaded {
                    class: class.label(),
                    queued,
                })
            }
            Arrival::Enqueue { ticket } => {
                // FIFO within the class: run once our ticket is dispatched
                loop {
                    if core.dispatched()[c] > ticket {
                        self.admitted[c].fetch_add(1, Relaxed);
                        return Ok(Permit { ctl: self });
                    }
                    core = self.cv.wait(core).expect("admission lock poisoned");
                }
            }
        }
    }

    /// `(admitted, shed)` cumulative counters, [`PriorityClass::ALL`] order.
    pub fn counters(&self) -> ([u64; 3], [u64; 3]) {
        (
            self.admitted.each_ref().map(|a| a.load(Relaxed)),
            self.shed.each_ref().map(|a| a.load(Relaxed)),
        )
    }

    fn release(&self) {
        let mut core = self.core.lock().expect("admission lock poisoned");
        let dispatched = core.depart();
        drop(core);
        if dispatched.is_some() {
            // wake every waiter; the one holding the dispatched ticket
            // proceeds, the rest re-block
            self.cv.notify_all();
        }
    }
}

/// RAII execution slot: dropping it releases the slot and dispatches the
/// next waiter.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    ctl: &'a AdmissionController,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.ctl.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn core_admits_until_full_then_queues_then_sheds() {
        let mut core = AdmissionCore::new(2, [1, 1, 0]);
        assert_eq!(core.arrive(PriorityClass::Standard), Arrival::Admit);
        assert_eq!(core.arrive(PriorityClass::Standard), Arrival::Admit);
        assert_eq!(
            core.arrive(PriorityClass::Standard),
            Arrival::Enqueue { ticket: 0 }
        );
        assert_eq!(core.arrive(PriorityClass::Standard), Arrival::Shed);
        assert_eq!(core.arrive(PriorityClass::Standard), Arrival::Shed);
        // batch has a zero cap: shed immediately under load
        assert_eq!(core.arrive(PriorityClass::Batch), Arrival::Shed);
        assert_eq!(core.shed(), [0, 2, 1]);
        // a departure hands the slot to the standard waiter
        assert_eq!(core.depart(), Some(PriorityClass::Standard));
        assert_eq!(core.inflight(), 2);
        assert_eq!(core.depart(), None);
        assert_eq!(core.depart(), None);
        assert_eq!(core.inflight(), 0);
    }

    #[test]
    fn dispatch_is_strictly_priority_ordered() {
        let mut core = AdmissionCore::new(1, [4, 4, 4]);
        assert_eq!(core.arrive(PriorityClass::Batch), Arrival::Admit);
        let _ = core.arrive(PriorityClass::Batch);
        let _ = core.arrive(PriorityClass::Standard);
        let _ = core.arrive(PriorityClass::Interactive);
        assert_eq!(core.depart(), Some(PriorityClass::Interactive));
        assert_eq!(core.depart(), Some(PriorityClass::Standard));
        assert_eq!(core.depart(), Some(PriorityClass::Batch));
        assert_eq!(core.depart(), None);
    }

    #[test]
    fn controller_bounds_concurrency_and_counts_sheds() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_inflight: 2,
            queue_caps: [0, 2, 0],
        }));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let shed_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let (ctl, running, peak, shed_seen) = (
                    Arc::clone(&ctl),
                    Arc::clone(&running),
                    Arc::clone(&peak),
                    Arc::clone(&shed_seen),
                );
                s.spawn(move || match ctl.admit(PriorityClass::Standard) {
                    Ok(_permit) => {
                        let now = running.fetch_add(1, Relaxed) + 1;
                        peak.fetch_max(now, Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        running.fetch_sub(1, Relaxed);
                    }
                    Err(CoreError::Overloaded { .. }) => {
                        shed_seen.fetch_add(1, Relaxed);
                    }
                    Err(e) => panic!("unexpected error {e:?}"),
                });
            }
        });
        assert!(peak.load(Relaxed) <= 2, "inflight cap breached");
        let (admitted, shed) = ctl.counters();
        assert_eq!(
            shed[1] as usize,
            shed_seen.load(Relaxed),
            "shed counter must equal observed Overloaded errors"
        );
        assert_eq!(admitted[1] + shed[1], 16);
    }
}
