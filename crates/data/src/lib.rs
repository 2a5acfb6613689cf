//! # octopus-data
//!
//! Workload substrate for OCTOPUS: synthetic social networks with ground
//! truth, action logs, a real-data loader, and the EM learner that turns
//! action logs into the topic-aware influence model of §II-B.
//!
//! The paper demonstrates on two datasets we cannot redistribute — the
//! AMiner ACM citation network and Tencent's QQ graph. Per the substitution
//! policy in `DESIGN.md`, this crate generates statistically analogous
//! networks **with known ground truth**:
//!
//! * [`gen::CitationConfig`] — an academic citation network: authors arrive
//!   over time, papers carry topic mixtures and title keywords, citations
//!   propagate influence (ACMCite-like);
//! * [`gen::MessengerConfig`] — a messenger/e-commerce network: power-law
//!   friendship graph, product-URL forwarding cascades (QQ-like);
//! * [`loader`] — a parser for the AMiner citation text format, so the real
//!   dump can be dropped in unchanged;
//! * [`learn::TicEm`] — the expectation–maximization learner of the
//!   topic-aware IC model (Barbieri et al., ICDM'12 \[2\]), jointly fitting
//!   `pp^z_{u,v}` and `p(w|z)` from an [`actions::ActionLog`];
//! * `dist` — Gamma/Dirichlet/Zipf/categorical samplers implemented from
//!   scratch (the approved dependency set excludes `rand_distr`), with
//!   statistical tests.
//!
//! Both generators *simulate the TIC model itself* to produce their action
//! logs, which makes parameter-recovery experiments well-posed: experiment
//! E7 measures how closely [`learn::TicEm`] recovers the planted model.

#![warn(missing_docs)]

pub mod actions;
mod dist;
mod gen;
pub mod learn;
pub mod loader;
pub mod store;
pub mod stream;

pub use actions::{ActionLog, Item, ItemId, Trial};
pub use gen::{CitationConfig, MessengerConfig, SyntheticNetwork};
pub use learn::{EmOptions, LearnedModel, TicEm};
pub use store::Dataset;
pub use stream::{
    Action, NewEdgePolicy, StreamConfig, StreamEvent, WindowOutcome, WindowedLearner,
};
