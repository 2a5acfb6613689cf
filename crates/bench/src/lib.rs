//! Shared infrastructure for the OCTOPUS evaluation: seeded standard
//! workloads, a Monte-Carlo quality referee that scores seed sets, the
//! serving-layer load generator the `serve_health` tests drive, and
//! plain-text table rendering for the `exp_runner` binary (the paper's
//! E1–E10 tables).

pub mod referee;
pub mod serve_load;
pub mod table;
pub mod workloads;

pub use referee::Referee;
pub use table::Table;
