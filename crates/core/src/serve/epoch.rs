//! [`EpochCell`] — an atomically swappable `Arc<T>`, the primitive under
//! both serving layers' epoch-swapped snapshots.
//!
//! The cell is an `Arc<T>` behind a mutex. A [`load`](EpochCell::load)
//! takes the lock for one reference-count increment; a
//! [`swap`](EpochCell::swap) takes it for one pointer replace and hands
//! the old value back, so it drops outside the lock. Neither ever holds
//! the lock across a rebuild: a writer builds the next value off to the
//! side first, and a reader keeps its own `Arc` for as long as its query
//! runs, so an in-flight query never delays a swap and a swap never
//! waits for one.
//!
//! The lock is never held for more than those few instructions, so a
//! contended load waits only behind other loads and swaps. A query does
//! one load and takes microseconds to milliseconds, so the lock is not
//! where its time goes.

use parking_lot::Mutex;
use std::sync::Arc;

/// An atomically swappable `Arc<T>`: readers [`load`](EpochCell::load) a
/// snapshot, a writer [`swap`](EpochCell::swap)s in a new value and gets
/// the old one back (see the module docs).
pub struct EpochCell<T> {
    current: Mutex<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// A cell initially holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        EpochCell {
            current: Mutex::new(value),
        }
    }

    /// Clone the current snapshot: one lock, one reference-count
    /// increment. The snapshot stays valid across any number of swaps.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock())
    }

    /// Install `new` as the current snapshot and return the previous one.
    /// In-flight readers holding the old snapshot keep it alive through
    /// their own `Arc` clones; the returned `Arc` is the cell's former
    /// share, dropped by the caller outside the lock.
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        std::mem::replace(&mut *self.current.lock(), new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

    /// A payload whose internal consistency detects torn reads and whose
    /// drop is counted to detect leaks / double frees.
    struct Payload {
        id: u64,
        /// Always `id * 3 + 1` — a reader observing anything else saw a
        /// torn or reclaimed value.
        check: u64,
        drops: Arc<AtomicU64>,
    }

    impl Payload {
        fn new(id: u64, drops: &Arc<AtomicU64>) -> Arc<Self> {
            Arc::new(Payload {
                id,
                check: id * 3 + 1,
                drops: Arc::clone(drops),
            })
        }
    }

    impl Drop for Payload {
        fn drop(&mut self) {
            self.drops.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn load_returns_current_value_and_swap_returns_previous() {
        let drops = Arc::new(AtomicU64::new(0));
        let cell = EpochCell::new(Payload::new(0, &drops));
        assert_eq!(cell.load().id, 0);
        let old = cell.swap(Payload::new(1, &drops));
        assert_eq!(old.id, 0);
        assert_eq!(cell.load().id, 1);
        drop(old);
        assert_eq!(drops.load(SeqCst), 1, "only the swapped-out value died");
        drop(cell);
        assert_eq!(
            drops.load(SeqCst),
            2,
            "cell drop releases the current value"
        );
    }

    #[test]
    fn snapshots_outlive_the_swap() {
        let drops = Arc::new(AtomicU64::new(0));
        let cell = EpochCell::new(Payload::new(7, &drops));
        let snapshot = cell.load();
        drop(cell.swap(Payload::new(8, &drops)));
        // the old epoch is gone from the cell but our clone keeps it alive
        assert_eq!(drops.load(SeqCst), 0);
        assert_eq!(snapshot.id, 7);
        assert_eq!(snapshot.check, 22);
        drop(snapshot);
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_or_reclaimed_values() {
        const SWAPS: u64 = 200;
        const READERS: usize = 4;
        let drops = Arc::new(AtomicU64::new(0));
        let cell = EpochCell::new(Payload::new(0, &drops));
        let stop = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    let mut seen_max = 0u64;
                    while stop.load(SeqCst) == 0 {
                        let p = cell.load();
                        assert_eq!(p.check, p.id * 3 + 1, "torn value");
                        assert!(p.id >= seen_max, "epochs went backwards");
                        seen_max = p.id;
                    }
                });
            }
            for id in 1..=SWAPS {
                drop(cell.swap(Payload::new(id, &drops)));
            }
            stop.store(1, SeqCst);
        });
        assert_eq!(cell.load().id, SWAPS);
        drop(cell);
        assert_eq!(
            drops.load(SeqCst),
            SWAPS + 1,
            "every epoch dropped exactly once"
        );
    }

    #[test]
    fn concurrent_writers_serialize_and_leak_nothing() {
        const PER_WRITER: u64 = 100;
        const WRITERS: u64 = 3;
        let drops = Arc::new(AtomicU64::new(0));
        let cell = EpochCell::new(Payload::new(0, &drops));
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let drops = &drops;
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        drop(cell.swap(Payload::new(1 + w * PER_WRITER + i, drops)));
                        let p = cell.load();
                        assert_eq!(p.check, p.id * 3 + 1);
                    }
                });
            }
        });
        drop(cell);
        assert_eq!(drops.load(SeqCst), WRITERS * PER_WRITER + 1);
    }
}
