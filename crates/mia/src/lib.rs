//! # octopus-mia
//!
//! The Maximum Influence Arborescence (MIA) engine \[Chen, Wang, Wang,
//! KDD'10 — reference 4 of the paper\] behind OCTOPUS's influential-path
//! visualization and exploration (§II-E).
//!
//! The MIA model restricts influence between two users to the single most
//! probable path between them. For a root `u`:
//!
//! * the **MIOA** (out-arborescence) collects the best `u → v` paths —
//!   "whom does `u` influence, and how";
//! * the **MIIA** (in-arborescence) collects the best `v → u` paths — "who
//!   influences `u`";
//! * paths whose probability falls below a threshold `θ` are pruned,
//!   trading completeness for interactive latency (the knob experiment E3
//!   sweeps).
//!
//! On top of the arborescences this crate provides the path-exploration
//! services the UI consumes ([`paths`]) — root-to-node chains, per-node
//! highlights, influence clusters — plus the d3-compatible JSON export
//! ([`json`]) and MIA-based spread estimation ([`spread`]) used both for
//! visual node sizing and as a fast spread oracle.

#![warn(missing_docs)]

pub mod arborescence;
pub mod json;
pub mod paths;
pub mod spread;

pub use arborescence::{ArbDirection, ArbNode, Arborescence};
pub use paths::{Cluster, InfluencePath, PathExplorer};
pub use spread::{mia_spread_set, mioa_spread, mioa_spreads};
