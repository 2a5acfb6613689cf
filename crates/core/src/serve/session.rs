//! Per-client sessions over [`OctopusService`](super::OctopusService):
//! [`Session::execute`] answers any [`Query`], each answer stamped with
//! the epoch that served it and its observed latency.
//!
//! A [`Session`] is the unit a connection handler owns — cheap to create,
//! single-threaded (`&mut self`), accumulating per-operator counters the
//! caller can scrape without touching shared state. Every call grabs the
//! *current* epoch snapshot, so consecutive calls in one session may span
//! an epoch swap; [`Session::pin`] freezes one snapshot for callers that
//! need multi-query read consistency (a UI drilling into one answer).

use super::query::{Query, QueryResponse};
use super::{Epoch, OctopusService};
use crate::budget::QueryBudget;
use crate::Result;
use std::sync::Arc;
use std::time::Duration;

/// The online operators, as stats and admission keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// Scenario 1 — keyword-based influencer discovery.
    FindInfluencers,
    /// Scenario 2 — personalized keyword suggestion.
    SuggestKeywords,
    /// Scenario 3 — influential path exploration.
    ExplorePaths,
    /// Name auto-completion.
    Autocomplete,
    /// Keyword radar chart (UI keyword interpretation).
    KeywordRadar,
}

impl Operator {
    /// Every operator, in display order.
    pub const ALL: [Operator; 5] = [
        Operator::FindInfluencers,
        Operator::SuggestKeywords,
        Operator::ExplorePaths,
        Operator::Autocomplete,
        Operator::KeywordRadar,
    ];

    /// Stable display label (also the per-operator CSV column key).
    pub fn label(self) -> &'static str {
        match self {
            Operator::FindInfluencers => "find-influencers",
            Operator::SuggestKeywords => "suggest-keywords",
            Operator::ExplorePaths => "explore-paths",
            Operator::Autocomplete => "autocomplete",
            Operator::KeywordRadar => "keyword-radar",
        }
    }

    /// Position in [`Operator::ALL`] (stable stats-array index).
    pub fn index(self) -> usize {
        match self {
            Operator::FindInfluencers => 0,
            Operator::SuggestKeywords => 1,
            Operator::ExplorePaths => 2,
            Operator::Autocomplete => 3,
            Operator::KeywordRadar => 4,
        }
    }
}

/// One served answer plus its query-level metadata.
#[derive(Debug, Clone)]
pub struct Served<T> {
    /// The operator's answer.
    pub value: T,
    /// Id of the epoch that served the query.
    pub epoch: u64,
    /// Wall-clock latency observed by the session (snapshot grab included).
    pub latency: Duration,
}

impl<T> Served<T> {
    /// Transform the answer, keeping the epoch stamp and latency — e.g.
    /// to unwrap a [`QueryResponse`] variant without forging either piece
    /// of metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Served<U> {
        Served {
            value: f(self.value),
            epoch: self.epoch,
            latency: self.latency,
        }
    }
}

impl<T> Served<Result<T>> {
    /// An executed query's outcome with its stamp: the operator's error
    /// surfaces, its answer keeps the epoch and latency.
    pub(super) fn transpose(self) -> Result<Served<T>> {
        let (epoch, latency) = (self.epoch, self.latency);
        self.value.map(|value| Served {
            value,
            epoch,
            latency,
        })
    }
}

/// Accumulated counters for one operator within a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Queries issued (successful and failed).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Summed latency of all queries.
    pub total_latency: Duration,
    /// Largest single-query latency.
    pub max_latency: Duration,
}

/// Per-session statistics: one [`OpStats`] per operator plus the epoch
/// range the session observed.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    per_op: [OpStats; 5],
    /// `(first, last)` epoch ids served to this session, if any query ran.
    pub epochs_seen: Option<(u64, u64)>,
}

impl SessionStats {
    /// Counters of one operator.
    pub fn op(&self, op: Operator) -> &OpStats {
        &self.per_op[op.index()]
    }

    /// Total queries across operators.
    pub fn total_queries(&self) -> u64 {
        self.per_op.iter().map(|s| s.queries).sum()
    }

    /// Total errors across operators.
    pub fn total_errors(&self) -> u64 {
        self.per_op.iter().map(|s| s.errors).sum()
    }

    fn record(&mut self, op: Operator, epoch: u64, latency: Duration, ok: bool) {
        let s = &mut self.per_op[op.index()];
        s.queries += 1;
        if !ok {
            s.errors += 1;
        }
        s.total_latency += latency;
        s.max_latency = s.max_latency.max(latency);
        self.epochs_seen = Some(match self.epochs_seen {
            None => (epoch, epoch),
            Some((first, _)) => (first, epoch),
        });
    }

    /// A shed query: counted as an issued, failed query, but with no
    /// epoch (nothing executed) and no latency contribution.
    fn record_shed(&mut self, op: Operator) {
        let s = &mut self.per_op[op.index()];
        s.queries += 1;
        s.errors += 1;
    }
}

/// One client's handle on the service (see the module docs).
pub struct Session<'s> {
    service: &'s OctopusService,
    stats: SessionStats,
    pinned: Option<Arc<Epoch>>,
}

impl<'s> Session<'s> {
    pub(super) fn new(service: &'s OctopusService) -> Self {
        Session {
            service,
            stats: SessionStats::default(),
            pinned: None,
        }
    }

    /// The session's accumulated per-operator counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Freeze the current epoch for multi-query consistency: until
    /// [`unpin`](Session::unpin), every query this session issues runs on
    /// (and its [`Served::epoch`] is stamped from) this exact snapshot,
    /// whatever swaps happen meanwhile — the stamp comes from the snapshot
    /// actually queried, never from the cell's moved-on counter, so a swap
    /// storm during the pin window cannot misattribute an answer to an
    /// epoch that did not produce it. Holding a pin never delays a swap —
    /// it only keeps the pinned epoch's memory alive. The returned handle
    /// lets the caller inspect the frozen epoch directly.
    pub fn pin(&mut self) -> Arc<Epoch> {
        let epoch = self.service.snapshot();
        self.pinned = Some(Arc::clone(&epoch));
        epoch
    }

    /// Release the pin: subsequent queries run on the current epoch again.
    pub fn unpin(&mut self) {
        self.pinned = None;
    }

    /// Serve one [`Query`] under `budget` on the pinned epoch, or else
    /// the live one — the same admission contract as
    /// [`QueryService::execute`](super::QueryService::execute) on the
    /// service itself. Counted in the session stats under
    /// [`Query::operator`]; a shed query counts as issued and failed.
    pub fn execute(
        &mut self,
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<Served<QueryResponse>> {
        let op = query.operator();
        match self.service.run(self.pinned.as_ref(), query, budget) {
            Ok(served) => {
                self.stats
                    .record(op, served.epoch, served.latency, served.value.is_ok());
                served.transpose()
            }
            Err(shed) => {
                self.stats.record_shed(op);
                Err(shed)
            }
        }
    }
}
