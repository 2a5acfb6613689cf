//! The query surface: one [`Query`] value in, one [`QueryResponse`] out,
//! through the single [`execute`](QueryService::execute) entry point
//! every layer implements — the engine ([`Octopus::execute`]), a
//! [`Session`](super::Session), [`OctopusService`] and
//! [`ShardedService`](super::ShardedService).
//!
//! The query names the operator and its arguments, the [`QueryBudget`]
//! carries the limits and the priority class, and the response is an
//! [`Anytime`] answer whose bound is exact whenever the budget did not
//! bind (always, for an unlimited one). `tests/anytime.rs` pins
//! `execute` under an unlimited budget, on all three layers, against
//! the operator kernels called directly.
//!
//! The trait also folds in the delta side ([`submit_delta`]
//! (QueryService::submit_delta) / [`flush_deltas`]
//! (QueryService::flush_deltas)) so a closed-loop driver — queries
//! racing live ingestion — needs exactly one capability, whatever the
//! layer underneath. Both services implement it over the same serving
//! core, so the read path, the delta queue, the retry contract and the
//! [`DeltaCounters`] behind the trait are one implementation, not two.

use super::shard::ShardSwap;
use super::{OctopusService, Operator, Served};
use crate::budget::{Anytime, QueryBudget};
use crate::engine::{KimAnswer, Octopus, SuggestAnswer};
use crate::paths::{ExploreDirection, PathExploration};
use crate::Result;
use octopus_graph::delta::GraphDelta;
use octopus_graph::NodeId;
use octopus_topics::radar::RadarChart;

/// One of the five online operators plus its arguments, as a value —
/// the request half of the unified surface.
///
/// # Example
///
/// The same query runs on any [`QueryService`], and with an unlimited
/// budget answers exactly:
///
/// ```
/// use octopus_core::engine::{Octopus, OctopusConfig};
/// use octopus_core::serve::{OctopusService, Query, QueryService};
/// use octopus_core::QueryBudget;
/// use octopus_graph::GraphBuilder;
/// use octopus_topics::{TopicModel, Vocabulary};
///
/// let mut b = GraphBuilder::new(1);
/// let ada = b.add_node("ada");
/// let grace = b.add_node("grace");
/// b.add_edge(ada, grace, &[(0, 0.5)]).unwrap();
/// let graph = b.build().unwrap();
/// let mut vocab = Vocabulary::new();
/// vocab.intern("compilers");
/// let model = TopicModel::from_rows(vocab, vec![vec![1.0]], vec![1.0]).unwrap();
/// let config = OctopusConfig {
///     piks_index_size: 16,
///     mis_rr_per_topic: 32,
///     k_max: 2,
///     ..Default::default()
/// };
/// let service = OctopusService::new(Octopus::new(graph, model, config)?);
///
/// let query = Query::FindInfluencers { query: "compilers".into(), k: 1 };
/// let served = service.execute(&query, &QueryBudget::unlimited())?;
/// let answer = served.value.into_influencers().expect("influencer query");
/// assert!(answer.bound.exact, "unlimited budgets answer exactly");
/// assert_eq!(answer.value.seeds[0].name, "ada");
/// # Ok::<(), octopus_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Scenario 1 — keyword-based influencer discovery: top-`k` seeds
    /// for a free-text keyword query.
    FindInfluencers {
        /// Free-text keyword query (resolved against the vocabulary).
        query: String,
        /// Seeds to select.
        k: usize,
    },
    /// Scenario 2 — personalized keyword suggestion for a user by name.
    SuggestKeywords {
        /// The user's display name.
        user: String,
        /// Suggestions to return.
        k: usize,
    },
    /// Scenario 3 — influential path exploration from a user.
    ExplorePaths {
        /// The user's display name.
        user: String,
        /// Explore who the user influences, or who influences them.
        direction: ExploreDirection,
        /// Optional keyword query narrowing the exploration.
        query: Option<String>,
    },
    /// Name auto-completion (infallible; bypasses admission).
    Autocomplete {
        /// The typed name prefix.
        prefix: String,
        /// Maximum completions.
        limit: usize,
    },
    /// Keyword radar chart for one vocabulary word.
    KeywordRadar {
        /// The word to chart.
        word: String,
    },
}

impl Query {
    /// The operator this query names (admission and stats key).
    pub fn operator(&self) -> Operator {
        match self {
            Query::FindInfluencers { .. } => Operator::FindInfluencers,
            Query::SuggestKeywords { .. } => Operator::SuggestKeywords,
            Query::ExplorePaths { .. } => Operator::ExplorePaths,
            Query::Autocomplete { .. } => Operator::Autocomplete,
            Query::KeywordRadar { .. } => Operator::KeywordRadar,
        }
    }
}

/// The answer half of the unified surface: one variant per operator,
/// always [`Anytime`] — the bound is
/// [`exact`](crate::QualityBound::exact) whenever the budget sufficed
/// (always, for unlimited budgets).
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Answer to [`Query::FindInfluencers`].
    Influencers(Anytime<KimAnswer>),
    /// Answer to [`Query::SuggestKeywords`].
    Suggestions(Anytime<SuggestAnswer>),
    /// Answer to [`Query::ExplorePaths`].
    Paths(Anytime<PathExploration>),
    /// Answer to [`Query::Autocomplete`].
    Completions(Anytime<Vec<(NodeId, String, f64)>>),
    /// Answer to [`Query::KeywordRadar`].
    Radar(Anytime<RadarChart>),
}

impl QueryResponse {
    /// The operator that produced this answer — always equal to the
    /// issuing query's [`Query::operator`].
    pub fn operator(&self) -> Operator {
        match self {
            QueryResponse::Influencers(_) => Operator::FindInfluencers,
            QueryResponse::Suggestions(_) => Operator::SuggestKeywords,
            QueryResponse::Paths(_) => Operator::ExplorePaths,
            QueryResponse::Completions(_) => Operator::Autocomplete,
            QueryResponse::Radar(_) => Operator::KeywordRadar,
        }
    }

    /// The influencer answer, if this was a [`Query::FindInfluencers`].
    pub fn into_influencers(self) -> Option<Anytime<KimAnswer>> {
        match self {
            QueryResponse::Influencers(a) => Some(a),
            _ => None,
        }
    }

    /// The suggestion answer, if this was a [`Query::SuggestKeywords`].
    pub fn into_suggestions(self) -> Option<Anytime<SuggestAnswer>> {
        match self {
            QueryResponse::Suggestions(a) => Some(a),
            _ => None,
        }
    }

    /// The exploration answer, if this was a [`Query::ExplorePaths`].
    pub fn into_paths(self) -> Option<Anytime<PathExploration>> {
        match self {
            QueryResponse::Paths(a) => Some(a),
            _ => None,
        }
    }

    /// The completions, if this was a [`Query::Autocomplete`].
    pub fn into_completions(self) -> Option<Anytime<Vec<(NodeId, String, f64)>>> {
        match self {
            QueryResponse::Completions(a) => Some(a),
            _ => None,
        }
    }

    /// The radar chart, if this was a [`Query::KeywordRadar`].
    pub fn into_radar(self) -> Option<Anytime<RadarChart>> {
        match self {
            QueryResponse::Radar(a) => Some(a),
            _ => None,
        }
    }
}

/// Delta-side counters a closed-loop driver watches, identical in
/// meaning across both serving layers (see
/// [`ServiceStats`](super::ServiceStats) for the full set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Deltas successfully applied across all flushes.
    pub deltas_applied: u64,
    /// Flush attempts aborted by a failing delta or rebuild (the batch
    /// was re-queued unless it exhausted its retries).
    pub batches_failed: u64,
    /// Batches dropped for good after exhausting
    /// [`MAX_BATCH_RETRIES`](super::MAX_BATCH_RETRIES) attempts.
    pub terminal_failures: u64,
    /// Deltas currently queued and not yet flushed.
    pub pending_deltas: usize,
}

/// What both serving layers offer a flavor-blind caller: execute any
/// operator under a budget, feed graph deltas, flush them into epoch
/// swaps, and watch the delta counters. [`OctopusService`] reports as
/// the degenerate single shard 0; [`ShardedService`](super::ShardedService) scatter-gathers
/// and routes flushes per shard.
pub trait QueryService: Sync {
    /// Serve one query under `budget`. The budget's class drives
    /// admission (autocomplete bypasses the controller on both layers);
    /// its sample/deadline limits bind the anytime machinery — an
    /// unlimited budget answers exactly.
    fn execute(&self, query: &Query, budget: &QueryBudget) -> Result<Served<QueryResponse>>;

    /// Queue one graph mutation for the next flush.
    fn submit_delta(&self, delta: GraphDelta);

    /// Queue several mutations at once (kept in order).
    fn submit_deltas(&self, deltas: Vec<GraphDelta>);

    /// Flush pending deltas into epoch swaps; one [`ShardSwap`] per
    /// swapped shard (the unsharded service reports as shard 0). The
    /// empty vec means the queue was empty or, on the sharded layer, that
    /// no delta touched a shard (an empty
    /// [`NudgeWeights`](GraphDelta::NudgeWeights), say). A failed flush
    /// re-queues the batch at the front with bounded retries, exactly as
    /// the layers' own `apply_pending` documents.
    fn flush_deltas(&self) -> Result<Vec<ShardSwap>>;

    /// Number of shards serving (1 for the unsharded service).
    fn shard_count(&self) -> usize;

    /// Edges in the (global) served graph.
    fn edge_count(&self) -> usize;

    /// Delta-side health counters.
    fn delta_counters(&self) -> DeltaCounters;
}

impl Octopus {
    /// Serve one unified [`Query`] on this engine under `budget` — the
    /// single-engine dispatch both serving layers bottom out in. Each
    /// operator has one body; the answer is exact whenever the budget
    /// does not bind.
    pub fn execute(&self, query: &Query, budget: &QueryBudget) -> Result<QueryResponse> {
        Ok(match query {
            Query::FindInfluencers { query, k } => {
                QueryResponse::Influencers(self.influencers(query, *k, budget)?)
            }
            Query::SuggestKeywords { user, k } => QueryResponse::Suggestions(self.suggestions(
                self.resolve_user(user)?,
                *k,
                budget,
            )?),
            Query::ExplorePaths {
                user,
                direction,
                query,
            } => QueryResponse::Paths(self.paths(
                self.resolve_user(user)?,
                *direction,
                query.as_deref(),
                budget,
            )?),
            Query::Autocomplete { prefix, limit } => {
                let hits = self.autocomplete(prefix, *limit);
                let count = hits.len() as f64;
                QueryResponse::Completions(Anytime::exact(hits, count))
            }
            Query::KeywordRadar { word } => QueryResponse::Radar(self.radar(word, budget)?),
        })
    }
}

impl QueryService for OctopusService {
    fn execute(&self, query: &Query, budget: &QueryBudget) -> Result<Served<QueryResponse>> {
        self.run(None, query, budget)?.transpose()
    }

    fn submit_delta(&self, delta: GraphDelta) {
        self.submit(delta);
    }

    fn submit_deltas(&self, deltas: Vec<GraphDelta>) {
        self.submit_all(deltas);
    }

    fn flush_deltas(&self) -> Result<Vec<ShardSwap>> {
        Ok(self
            .apply_pending()?
            .map(|report| vec![ShardSwap { shard: 0, report }])
            .unwrap_or_default())
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn edge_count(&self) -> usize {
        self.snapshot().engine().graph().edge_count()
    }

    fn delta_counters(&self) -> DeltaCounters {
        self.core.delta_counters()
    }
}
