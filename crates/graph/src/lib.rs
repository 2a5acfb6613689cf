//! # octopus-graph
//!
//! Topic-weighted social graph substrate for the OCTOPUS influence-analysis
//! system (ICDE'18).
//!
//! The central type is [`TopicGraph`]: a directed graph in compressed
//! sparse-row (CSR) form where every edge `(u, v)` carries a *sparse* vector
//! of per-topic activation probabilities `⟨pp¹_{u,v} … pp^Z_{u,v}⟩`, exactly
//! as in the topic-aware independent-cascade (TIC) model of the paper
//! (§II-B). Given an item/query topic distribution `γ`, the effective
//! activation probability of an edge is
//!
//! ```text
//! pp_{u,v}(γ) = Σ_z  pp^z_{u,v} · γ_z
//! ```
//!
//! which [`TopicGraph::edge_prob`] evaluates in `O(nnz(e))`.
//!
//! The crate also provides:
//! * [`GraphBuilder`] — incremental construction with node naming,
//!   deduplication and validation;
//! * [`EdgeProbs`] — a dense per-edge probability materialization for a fixed
//!   `γ` (what the paper's naive baseline computes per query);
//! * [`codec`] — a compact, versioned binary (de)serialization.
//!
//! # Example
//!
//! ```
//! use octopus_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(2); // two topics
//! let u = b.add_node("ada");
//! let v = b.add_node("grace");
//! b.add_edge(u, v, &[(0, 0.8), (1, 0.1)]).unwrap();
//! let g = b.build().unwrap();
//!
//! let e = g.find_edge(u, v).unwrap();
//! // Item fully about topic 0:
//! assert!((g.edge_prob(e, &[1.0, 0.0]) - 0.8).abs() < 1e-6);
//! // Mixed item:
//! assert!((g.edge_prob(e, &[0.5, 0.5]) - 0.45).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod codec;
pub mod csr;
pub mod delta;
pub mod error;
pub mod ids;
pub mod stats;
pub mod subgraph;
pub mod wire;

pub use builder::GraphBuilder;
pub use csr::{EdgeProbs, TopicGraph};
pub use error::GraphError;
pub use ids::{EdgeId, NodeId, TopicId};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
