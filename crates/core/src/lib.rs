//! # octopus-core
//!
//! The OCTOPUS online topic-aware influence analysis engine — the primary
//! contribution of the ICDE'18 paper, built on the substrates in
//! `octopus-graph` / `octopus-topics` / `octopus-cascade` / `octopus-mia`.
//!
//! ## Services (one per paper section)
//!
//! * [`kim`] — **keyword-based influence maximization** (§II-C): given a
//!   keyword-derived topic distribution `γ`, find `k` seeds with maximum
//!   spread, *online*. Engines: the naive per-query baseline, marginal
//!   influence sort (MIS), the best-effort bound-pruning framework with
//!   precomputation/local-graph/neighborhood bound estimators, and the
//!   topic-sample algorithm;
//! * [`piks`] — **personalized influential keywords suggestion** (§II-D):
//!   given a target user, find the `k`-keyword set maximizing that user's
//!   influence, via an influencer index over shared-coin possible worlds
//!   with lazy propagation and delayed materialization;
//! * [`paths`] — **influential path exploration** (§II-E): topic-aware MIA
//!   trees, clusters, d3 JSON;
//! * [`offline`] — the **staged offline-build pipeline**: every
//!   precomputation the engines above need, as an explicit stage DAG with
//!   per-stage telemetry and deterministic rayon parallelism;
//! * `autocomplete` — the UI's name auto-completion (Scenario 2 "assisted
//!   by an auto-completion tool");
//! * [`engine`] — the [`engine::Octopus`] facade tying everything to the
//!   keyword interface ("allows users to employ simple and easy-to-use
//!   keywords to perform influence analysis");
//! * [`serve`] — the **concurrent serving layer**: an epoch-swapped
//!   [`serve::OctopusService`] where queries run on immutable snapshots
//!   while graph deltas coalesce and rebuild the next epoch off to the
//!   side.
//!
//! ```
//! use octopus_core::engine::{Octopus, OctopusConfig};
//! use octopus_graph::GraphBuilder;
//! use octopus_topics::{TopicModel, Vocabulary};
//!
//! // two users, one topic, one edge
//! let mut b = GraphBuilder::new(1);
//! let u = b.add_node("ada lovelace");
//! let v = b.add_node("grace hopper");
//! b.add_edge(u, v, &[(0, 0.9)]).unwrap();
//! let g = b.build().unwrap();
//! let mut vocab = Vocabulary::new();
//! vocab.intern("computing");
//! let model = TopicModel::from_rows(vocab, vec![vec![1.0]], vec![1.0]).unwrap();
//!
//! let octo = Octopus::new(g, model, OctopusConfig::default()).unwrap();
//! let ans = octo.find_influencers("computing", 1).unwrap();
//! assert_eq!(ans.seeds[0].name, "ada lovelace");
//! ```

#![warn(missing_docs)]

mod autocomplete;
mod budget;
mod cache;
pub mod engine;
pub mod error;
pub mod kim;
pub mod offline;
pub mod paths;
pub mod piks;
pub mod serve;

pub use budget::{Anytime, PriorityClass, QualityBound, QueryBudget};
pub use error::CoreError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
