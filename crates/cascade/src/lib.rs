//! # octopus-cascade
//!
//! Independent-cascade (IC) diffusion engines and classical influence
//! maximization — the substrate OCTOPUS's online algorithms are built on and
//! benchmarked against.
//!
//! The paper's naive baseline (§II-C) "compute\[s\] `pp_{u,v}` for each edge
//! given the query and then employ\[s\] the traditional IM algorithms" — this
//! crate *is* those traditional algorithms:
//!
//! * [`mc`] — Monte-Carlo forward simulation of the IC process (the ground
//!   truth estimator), with a scoped-thread parallel variant;
//! * [`rr`] — reverse-reachable (RR) set sampling in the style of
//!   Borgs et al. / TIM / IMM \[8\], with coverage-based spread estimation
//!   and greedy max-coverage seed selection;
//! * [`celf_select`] — lazy-greedy (CELF) influence maximization over any
//!   [`SpreadOracle`], plus a plain greedy used as a test oracle;
//! * [`opim_select`] — OPIM-C–style adaptive sampling that returns a seed set with
//!   a `(1 − 1/e − ε)` approximation guarantee with high probability;
//! * [`coins`] — deterministic, storage-free edge coins (common random
//!   numbers) shared across queries; the trick behind the PIKS influencer
//!   index ("avoid online sampling from scratch", §II-D).
//!
//! All engines operate on a [`octopus_graph::TopicGraph`] plus a dense
//! [`octopus_graph::EdgeProbs`] (one materialized query distribution), so the
//! same machinery serves both classical single-graph IM and topic-aware IM.

#![warn(missing_docs)]

mod celf;
pub mod coins;
mod heuristics;
pub mod mc;
mod opim;
pub mod rr;

pub use celf::{celf_select, greedy_select, CelfResult, SpreadOracle};
pub use coins::{stream_seed, EdgeCoins};
pub use heuristics::{degree_discount, top_degree};
pub use mc::{estimate_spread, estimate_spread_parallel, McOracle};
pub use opim::{opim_select, opim_select_budgeted, OpimBudget, OpimOptions, OpimResult};
pub use rr::{RrCollection, RrOracle};
