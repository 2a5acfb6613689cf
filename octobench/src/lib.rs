//! octobench — the OCTOPUS benchmark.
//!
//! One command (`octobench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`) runs one of five named workloads against the engine's
//! public API, checks every answer it accepts against a fresh whole-graph
//! engine, and prints every declared metric by name with its unit; the
//! last line of its standard output is the result object the driver reads.
//! See `README.md` for the workloads, the metric tables with their
//! interaction predictions, and the calibration record; `spec.rs` is the
//! single place a name, unit, bound or frozen constant is written down.

pub mod chain;
pub mod clients;
pub mod compare;
pub mod ingest;
pub mod json;
pub mod oracle;
pub mod restart;
pub mod run;
pub mod script;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod world;
