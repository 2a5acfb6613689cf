//! Per-query resource budgets and anytime answer-quality certificates.
//!
//! OCTOPUS promises *online* analysis, which under load means bounding
//! work, not just measuring it. A [`QueryBudget`] caps how much an
//! operator may spend (a wall-clock deadline and/or a sample budget) and
//! names the query's [`PriorityClass`] for admission control; an
//! [`Anytime`] answer pairs the best-so-far result with a
//! [`QualityBound`] certifying where the exact answer must lie.
//!
//! Determinism contract: at a fixed *sample* budget every degraded path
//! is a deterministic function of the engine snapshot — RR generation
//! uses per-set RNG streams, candidate scans use pinned orders — so
//! budgeted answers are bit-identical at any thread count and testable
//! like everything else in this repo. Deadlines are only consulted at
//! deterministic chunk boundaries (e.g. OPIM doubling rounds): each
//! chunk's output is reproducible even though the stopping chunk is not.

use std::time::{Duration, Instant};

/// Admission-control priority of a query, highest first.
///
/// The admission controller dispatches strictly highest-priority-first
/// and sheds a class only when its own bounded queue is full — so a
/// higher class is never shed while a lower one would have been admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Latency-critical UI queries (autocomplete, radar hovers).
    Interactive = 0,
    /// The default class for ordinary analysis queries.
    Standard = 1,
    /// Bulk/background work, first to be shed.
    Batch = 2,
}

impl PriorityClass {
    /// All classes, highest priority first.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Batch,
    ];

    /// Dense index (0 = highest priority).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Batch => "batch",
        }
    }
}

/// The resource envelope one query may spend.
#[derive(Debug, Clone, Copy)]
pub struct QueryBudget {
    /// Wall-clock allowance, measured from operator entry. Checked at
    /// chunk boundaries only (see module docs).
    pub deadline: Option<Duration>,
    /// Operator-specific sample allowance: RR sets for influencer
    /// ranking, candidate evaluations for keyword suggestion, inverse
    /// path-probability floor for exploration, axes kept for radar.
    pub samples: Option<usize>,
    /// Admission-control class.
    pub class: PriorityClass,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget::unlimited()
    }
}

impl QueryBudget {
    /// No limits, [`PriorityClass::Standard`]: nothing is truncated, so
    /// every operator answers exactly.
    pub fn unlimited() -> Self {
        QueryBudget {
            deadline: None,
            samples: None,
            class: PriorityClass::Standard,
        }
    }

    /// A sample-only budget (the deterministic knob).
    pub fn samples(samples: usize) -> Self {
        QueryBudget {
            samples: Some(samples),
            ..QueryBudget::unlimited()
        }
    }

    /// A deadline-only budget.
    pub fn deadline(deadline: Duration) -> Self {
        QueryBudget {
            deadline: Some(deadline),
            ..QueryBudget::unlimited()
        }
    }

    /// Whether neither limit is set.
    pub(crate) fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.samples.is_none()
    }

    /// Split this budget across `shards` scattered sub-queries: the
    /// sample allowance divides evenly (each shard gets at least 1);
    /// the deadline and class are shared, since shards run in parallel.
    pub(crate) fn split(&self, shards: usize) -> QueryBudget {
        QueryBudget {
            samples: self.samples.map(|s| (s / shards.max(1)).max(1)),
            ..*self
        }
    }

    /// The deadline as an absolute instant from `start`.
    pub(crate) fn deadline_from(&self, start: Instant) -> Option<Instant> {
        self.deadline.map(|d| start + d)
    }
}

/// Where the exact answer's value must lie, relative to a (possibly
/// degraded) anytime answer.
///
/// Soundness contract: `lower ≤ exact-path value ≤ upper` on the same
/// snapshot, where "value" is the operator's scalar score (spread for
/// influencer ranking and keyword suggestion, reachable influence for
/// path exploration, topic mass for radar). `exact` marks answers the
/// budget truncated nothing of, for which `lower == upper` holds
/// trivially at the answer's own value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityBound {
    /// Nothing was truncated: this is the exact answer.
    pub exact: bool,
    /// Certified lower bound on the exact value.
    pub lower: f64,
    /// Certified upper bound on the exact value.
    pub upper: f64,
    /// Samples actually consumed (operator-specific unit).
    pub samples_used: usize,
}

impl QualityBound {
    /// The bound of an exact answer with value `value`.
    pub fn exact(value: f64) -> Self {
        QualityBound {
            exact: true,
            lower: value,
            upper: value,
            samples_used: 0,
        }
    }

    /// A degraded answer's bound.
    pub(crate) fn degraded(lower: f64, upper: f64, samples_used: usize) -> Self {
        QualityBound {
            exact: false,
            lower: lower.min(upper),
            upper,
            samples_used,
        }
    }

    /// Whether `value` is consistent with the bound (with float slack).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower - 1e-9 && value <= self.upper + 1e-9
    }
}

/// A best-so-far answer plus the certificate for how far off it can be.
#[derive(Debug, Clone, PartialEq)]
pub struct Anytime<T> {
    /// The (possibly degraded) answer.
    pub value: T,
    /// Where the exact answer must lie.
    pub bound: QualityBound,
}

impl<T> Anytime<T> {
    /// Wrap an exact answer.
    pub fn exact(value: T, score: f64) -> Self {
        Anytime {
            value,
            bound: QualityBound::exact(score),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_has_no_limits() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.class, PriorityClass::Standard);
        assert!(!QueryBudget::samples(100).is_unlimited());
        assert!(!QueryBudget::deadline(Duration::from_millis(5)).is_unlimited());
    }

    #[test]
    fn split_divides_samples_and_keeps_floor() {
        let b = QueryBudget::samples(100);
        assert_eq!(b.split(4).samples, Some(25));
        assert_eq!(QueryBudget::samples(2).split(8).samples, Some(1));
        assert_eq!(QueryBudget::unlimited().split(4).samples, None);
    }

    #[test]
    fn class_order_is_priority_order() {
        assert!(PriorityClass::Interactive < PriorityClass::Standard);
        assert!(PriorityClass::Standard < PriorityClass::Batch);
        for (i, c) in PriorityClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
