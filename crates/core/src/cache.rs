//! Online query cache for the KIM service.
//!
//! Interactive workloads repeat themselves: trending keywords map to nearly
//! identical topic distributions. The cache stores recently answered
//! `(γ, k) → seeds` pairs and answers any query whose distribution lies
//! within an L1 `tolerance` of a cached one (spread is Lipschitz in `γ`, so
//! close queries share near-optimal seed sets — the same observation the
//! topic-sample algorithm exploits offline, applied to the online stream).
//!
//! Eviction is least-recently-used with a fixed capacity. The cache is
//! internally synchronized (`parking_lot::Mutex`) so the engine can stay
//! `&self` for concurrent query serving.

use crate::kim::KimResult;
use octopus_topics::TopicDistribution;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries that had to be computed.
    pub misses: usize,
    /// Entries evicted by capacity pressure.
    pub evictions: usize,
}

struct Entry {
    gamma: TopicDistribution,
    k: usize,
    result: KimResult,
}

/// An LRU cache over answered KIM queries.
pub struct QueryCache {
    capacity: usize,
    tolerance: f64,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Most-recently used at the back.
    entries: VecDeque<Entry>,
    stats: CacheStats,
}

impl QueryCache {
    /// Create a cache holding up to `capacity` answers, matching queries
    /// within L1 `tolerance`.
    ///
    /// # Panics
    /// Panics if `tolerance` is negative or not finite.
    pub fn new(capacity: usize, tolerance: f64) -> Self {
        assert!(
            tolerance >= 0.0 && tolerance.is_finite(),
            "tolerance must be ≥ 0"
        );
        QueryCache {
            capacity,
            tolerance,
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Look up a query; moves the hit to the MRU position.
    pub fn get(&self, gamma: &TopicDistribution, k: usize) -> Option<KimResult> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        let pos = inner
            .entries
            .iter()
            .position(|e| e.k == k && e.gamma.l1_distance(gamma) <= self.tolerance);
        match pos {
            Some(i) => {
                let entry = inner.entries.remove(i).expect("position valid under lock");
                let result = entry.result.clone();
                inner.entries.push_back(entry);
                inner.stats.hits += 1;
                Some(result)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert an answered query.
    pub fn put(&self, gamma: TopicDistribution, k: usize, result: KimResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        // replace an existing equivalent entry instead of duplicating
        if let Some(i) = inner
            .entries
            .iter()
            .position(|e| e.k == k && e.gamma.l1_distance(&gamma) <= self.tolerance)
        {
            inner.entries.remove(i);
        }
        if inner.entries.len() >= self.capacity {
            inner.entries.pop_front();
            inner.stats.evictions += 1;
        }
        inner.entries.push_back(Entry { gamma, k, result });
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kim::KimStats;
    use octopus_graph::NodeId;

    fn result(tag: u32) -> KimResult {
        KimResult {
            seeds: vec![NodeId(tag)],
            spread: tag as f64,
            stats: KimStats::default(),
        }
    }

    #[test]
    fn exact_hit_and_miss() {
        let cache = QueryCache::new(4, 1e-9);
        let g = TopicDistribution::uniform(3);
        assert!(cache.get(&g, 5).is_none());
        cache.put(g.clone(), 5, result(1));
        assert_eq!(cache.get(&g, 5).unwrap().seeds, vec![NodeId(1)]);
        // different k misses
        assert!(cache.get(&g, 6).is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn tolerance_matches_nearby_queries() {
        let cache = QueryCache::new(4, 0.1);
        let g = TopicDistribution::new(vec![0.5, 0.5]).unwrap();
        cache.put(g, 3, result(7));
        let near = TopicDistribution::new(vec![0.52, 0.48]).unwrap(); // L1 = 0.04
        assert!(cache.get(&near, 3).is_some());
        let far = TopicDistribution::new(vec![0.9, 0.1]).unwrap(); // L1 = 0.8
        assert!(cache.get(&far, 3).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let cache = QueryCache::new(2, 1e-9);
        let a = TopicDistribution::pure(3, 0);
        let b = TopicDistribution::pure(3, 1);
        let c = TopicDistribution::pure(3, 2);
        cache.put(a.clone(), 1, result(1));
        cache.put(b.clone(), 1, result(2));
        // touch a so b becomes LRU
        assert!(cache.get(&a, 1).is_some());
        cache.put(c.clone(), 1, result(3));
        assert!(cache.get(&b, 1).is_none(), "b was evicted");
        assert!(cache.get(&a, 1).is_some());
        assert!(cache.get(&c, 1).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn duplicate_put_replaces() {
        let cache = QueryCache::new(2, 1e-9);
        let g = TopicDistribution::uniform(2);
        cache.put(g.clone(), 1, result(1));
        cache.put(g.clone(), 1, result(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&g, 1).unwrap().seeds, vec![NodeId(2)]);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = QueryCache::new(0, 0.0);
        let g = TopicDistribution::uniform(2);
        cache.put(g.clone(), 1, result(1));
        assert!(cache.get(&g, 1).is_none());
        assert_eq!(cache.len(), 0);
    }
}
