//! What the benchmark declares: the five workloads, every metric name
//! with its unit, direction and regression bound, the interaction
//! predictions, and the constants frozen at calibration. `BENCHMARK.json`
//! is generated from this file (`octobench manifest`) and a unit test pins
//! the committed copy to it, so a name can only change here.

use crate::json::Json;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;
/// The seed every calibration figure in the README was taken at.
pub const DEFAULT_SEED: u64 = 0x0C7_0B15;
/// Held out: never used while a change is written, only to check a claim.
pub const HELD_OUT_SEED: u64 = 0x5_EED2;

/// Share of `--seconds` spent on the warm-up pass before samples count.
pub const WARMUP_SHARE: f64 = 0.05;
/// Rounds the workload's sections are cut into, so that every metric's
/// samples are spread over the whole run (`run::rounds`).
pub const MAX_ROUNDS: usize = 4;
/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Latency limit of `within_slo_share`, from the moment a query was due
/// (open loop) or sent (closed loop). Frozen at calibration, where
/// `serve_churn` met it for 0.83 of its queries.
pub const SLO_MS: f64 = 25.0;
/// Open-loop send rate of `serve_churn`'s client: 0.4 × the 575–580
/// queries/s one closed-loop client sustained at calibration on the same
/// script and flush schedule (rounded to a whole number of script blocks).
pub const CHURN_RATE_QPS: f64 = 240.0;
/// Once per period `serve_churn`'s client submits `NUDGES_PER_FLUSH` weight
/// nudges and flushes them, between two queries.
pub const CHURN_FLUSH_PERIOD_MS: u64 = 1000;
pub const NUDGES_PER_FLUSH: usize = 3;
/// Queries due in one flush period: the length of one period of
/// `serve_churn`'s script.
pub fn churn_period_queries() -> usize {
    (CHURN_RATE_QPS * CHURN_FLUSH_PERIOD_MS as f64 / 1e3) as usize
}
/// Flushes issued untimed before any flush is measured, so every timed
/// flush scans a full donor directory (`persist::MAX_CACHE_FILES`).
pub const DONOR_PREFILL_FLUSHES: usize = 16;
/// Ingest loop: topic cap per batch, flushes per window, windows the
/// replayed tail is cut into, and the untimed windows that fill the donor
/// directory first.
pub const INGEST_TOPIC_CAP: usize = 2;
pub const INGEST_FLUSH_BUDGET: usize = 4;
pub const INGEST_WINDOWS: usize = 40;
pub const INGEST_PREFILL_WINDOWS: usize = 4;
/// Edges an 8-edge (or topic-confined) restart nudge moves.
pub const RESTART_NUDGE_EDGES: usize = 8;
/// Popularity exponent of `serve_churn`'s 32-query pool
/// (`script::POOL_SPLIT`).
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Shards of `serve_sharded`'s router.
pub const SHARDS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_uniform",
        why: "closed loop over distinct keyword queries: the operator kernels do the work, cache, flush and shard router none, so a kernel win shows here and a flush win must not",
    },
    Workload {
        name: "serve_sharded",
        why: "serve_uniform's exact graph, script and clients behind a 2-shard router: the only difference is scatter/merge, so sharding's cost is comparable at one config",
    },
    Workload {
        name: "serve_churn",
        why: "open-loop Zipf reads on a thread that also flushes nudges once a second: the query cache and the flush chain do the work, and a flush shows as queue wait in the queries due behind it",
    },
    Workload {
        name: "ingest_loop",
        why: "observe-learn-serve loop taking turns with live queries: the only run of the learner and ingest pipeline, over EM-learned topic-dense rows instead of sparse citation rows",
    },
    Workload {
        name: "restart",
        why: "one caller, no queries in flight, the largest graph: cold build, mapped open to first answer and reopen after small deltas, the batch side of serve_churn's flush",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One gated metric. `native` names the workloads whose own load shape
/// produces it; everywhere else the value comes from that workload's
/// off-axis section (the contract wants every end-to-end metric on every
/// workload), where the prediction is always *no change*.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub native: &'static str,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        native: "all five",
        what: "generate inputs + warm-up fit + build/open epoch 0, median of 5 set-ups",
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        native: "serve_uniform, serve_sharded, ingest_loop",
        what: "closed loop: the 20 queries of a script block over the median time a whole block took; open loop: correct answers over the time they took",
    },
    EndToEnd {
        name: "find_influencers_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "serve_uniform, serve_sharded, serve_churn, ingest_loop",
        what: "median find-influencers latency (from due time in the open loop)",
    },
    EndToEnd {
        name: "within_slo_share",
        unit: "share",
        better: Higher,
        bound: 0.15,
        native: "serve_churn",
        what: "share of queries sent that were answered correctly within the SLO, from the due time in the open loop",
    },
    EndToEnd {
        name: "flush_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "serve_churn, ingest_loop",
        what: "median wall time of one flush_deltas call (in serve_churn: on the query thread, between two queries)",
    },
    EndToEnd {
        name: "build_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "restart",
        what: "median cold open_or_build into an empty directory, artifact write included",
    },
    EndToEnd {
        name: "reopen_nudge_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "restart",
        what: "median open_or_build after an 8-edge weight nudge",
    },
    EndToEnd {
        name: "reopen_confined_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "restart",
        what: "median open_or_build after a nudge confined to one topic",
    },
    EndToEnd {
        name: "open_first_answer_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        native: "restart",
        what: "median open_mapped on the warm directory plus the first find-influencers answer",
    },
];

/// One traced, non-gating metric: `layer` is the module it measures and
/// `moves` the end-to-end metric (at a workload) it is expected to move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const M_INFER: &str = "find_influencers_p50_ms @ serve_churn (cache-hit path); nil @ serve_uniform";
const M_CACHE: &str =
    "find_influencers_p50_ms, within_slo_share @ serve_churn; stays < 0.05 @ serve_uniform";
const M_KIM: &str = "find_influencers_p50_ms, query_qps @ serve_uniform, ingest_loop";
const M_GAINS: &str = "find_influencers_p50_ms @ serve_churn (paid on every query, cache hit or not), serve_uniform; query_qps @ serve_uniform";
const M_CASCADE: &str = "as core.kim @ serve_uniform; build_p50_ms @ restart";
const M_PIKS: &str = "suggest_keywords_p50_ms @ serve_uniform";
const M_CHEAP: &str = "explore_paths_p50_ms, query_qps @ serve_uniform";
const M_SESSION: &str = "query_qps @ serve_uniform (small share)";
const M_ADMIT: &str = "within_slo_share @ serve_churn";
const M_SHARD: &str =
    "find_influencers_p50_ms, query_qps @ serve_sharded relative to serve_uniform";
const M_FLUSH: &str = "flush_p50_ms, within_slo_share @ serve_churn; flush_p50_ms, window_lag_p50_ms @ ingest_loop; reopen_*_p50_ms @ restart; nil @ serve_uniform, serve_sharded";
const M_RESTART: &str = "open_first_answer_p50_ms, reopen_*_p50_ms @ restart";
const M_INGEST: &str = "window_lag_p50_ms, ingest_actions_per_s @ ingest_loop only";
const M_DIAG: &str = "diagnostic: unexplained time is itself a number";
const M_DEMOTED: &str = "demoted end-to-end metric (see README, Demotions)";

pub const PER_LAYER: &[Layer] = &[
    l("topics.infer_p50_us", "us", Lower, M_INFER),
    l("topics.infer_calls", "count", Lower, M_INFER),
    l("core.cache.hit_ratio", "share", Higher, M_CACHE),
    l("core.cache.lookups", "count", Lower, M_CACHE),
    l("core.cache.evictions", "count", Lower, M_CACHE),
    l("core.kim.select_p50_ms", "ms", Lower, M_KIM),
    l("core.kim.exact_evals_per_query", "count", Lower, M_KIM),
    l("core.kim.bound_evals_per_query", "count", Lower, M_KIM),
    l("core.kim.pruned_ratio", "share", Higher, M_KIM),
    l("mia.seed_gains_p50_ms", "ms", Lower, M_GAINS),
    l("cascade.rr_sets_per_s", "1/s", Higher, M_CASCADE),
    l("cascade.rr_edges_per_set", "count", Lower, M_CASCADE),
    l("cascade.celf_p50_ms", "ms", Lower, M_CASCADE),
    l("cascade.opim_p50_ms", "ms", Lower, M_CASCADE),
    l("core.piks.suggest_p50_ms", "ms", Lower, M_PIKS),
    l("core.piks.evals_per_query", "count", Lower, M_PIKS),
    l("core.piks.worlds_per_query", "count", Lower, M_PIKS),
    l("mia.explore_p50_us", "us", Lower, M_CHEAP),
    l("mia.tree_nodes_per_query", "count", Lower, M_CHEAP),
    l("core.autocomplete.descent_p50_us", "us", Lower, M_CHEAP),
    l("topics.radar_p50_us", "us", Lower, M_CHEAP),
    l("core.serve.session.overhead_p50_us", "us", Lower, M_SESSION),
    l("core.serve.epoch.load_p50_ns", "ns", Lower, M_SESSION),
    l(
        "core.serve.admission.queue_wait_p50_ms",
        "ms",
        Lower,
        M_ADMIT,
    ),
    l("core.serve.admission.shed_share", "share", Lower, M_ADMIT),
    l("loadgen.lateness_p95_ms", "ms", Lower, M_ADMIT),
    l(
        "core.serve.shard.scatter_overhead_p50_ms",
        "ms",
        Lower,
        M_SHARD,
    ),
    l("core.serve.shard.fanout", "count", Lower, M_SHARD),
    l("core.serve.shard.skew", "ratio", Lower, M_SHARD),
    l("graph.delta.apply_p50_ms", "ms", Lower, M_FLUSH),
    l("graph.codec.stage_keys_p50_ms", "ms", Lower, M_FLUSH),
    l("core.offline.persist.lookup_p50_ms", "ms", Lower, M_FLUSH),
    l("core.offline.persist.donor_files", "count", Lower, M_FLUSH),
    l("core.offline.rebuild_p50_ms", "ms", Lower, M_FLUSH),
    l("core.offline.stage.spread-cap_ms", "ms", Lower, M_FLUSH),
    l("core.offline.stage.pb-bound_ms", "ms", Lower, M_FLUSH),
    l("core.offline.stage.mis-tables_ms", "ms", Lower, M_FLUSH),
    l("core.offline.stage.topic-samples_ms", "ms", Lower, M_FLUSH),
    l("core.offline.stage.piks-worlds_ms", "ms", Lower, M_FLUSH),
    l("core.offline.stage.autocomplete_ms", "ms", Lower, M_FLUSH),
    l(
        "core.offline.weight_units_reused_ratio",
        "share",
        Higher,
        M_FLUSH,
    ),
    l(
        "core.offline.piks_worlds_reused_ratio",
        "share",
        Higher,
        M_FLUSH,
    ),
    l("core.offline.persist.save_p50_ms", "ms", Lower, M_FLUSH),
    l(
        "core.offline.persist.bytes_written",
        "bytes",
        Lower,
        M_FLUSH,
    ),
    l("core.offline.view.open_p50_ms", "ms", Lower, M_FLUSH),
    l("core.serve.epoch.swap_p50_us", "us", Lower, M_FLUSH),
    l("core.offline.reopen_nodelta_p50_ms", "ms", Lower, M_RESTART),
    l("core.offline.reopen_rename_p50_ms", "ms", Lower, M_RESTART),
    l("core.offline.reopen_insert_p50_ms", "ms", Lower, M_RESTART),
    l("core.offline.persist.decode_p50_ms", "ms", Lower, M_RESTART),
    l("core.offline.view.validate_p50_ms", "ms", Lower, M_RESTART),
    l("core.offline.first_query_owned_ms", "ms", Lower, M_RESTART),
    l("core.offline.first_query_mapped_ms", "ms", Lower, M_RESTART),
    l("core.offline.artifact_bytes", "bytes", Lower, M_RESTART),
    l("data.stream.observe_us_per_action", "us", Lower, M_INGEST),
    l("data.learn.fit_window_p50_ms", "ms", Lower, M_INGEST),
    l("data.learn.deltas_per_window", "count", Lower, M_INGEST),
    l("core.serve.ingest.plan_p50_ms", "ms", Lower, M_INGEST),
    l(
        "core.serve.ingest.batches_per_window",
        "count",
        Lower,
        M_INGEST,
    ),
    l(
        "core.serve.ingest.topics_per_batch",
        "count",
        Lower,
        M_INGEST,
    ),
    l("core.serve.ingest.deferred_edges", "count", Lower, M_INGEST),
    l("core.serve.ingest.retries", "count", Lower, M_INGEST),
    l("trace.coverage", "share", Higher, M_DIAG),
    l("trace.coverage_execute", "share", Higher, M_DIAG),
    l("trace.coverage_flush", "share", Higher, M_DIAG),
    l("trace.overhead_share", "share", Lower, M_DIAG),
    l("find_influencers_p95_ms", "ms", Lower, M_DEMOTED),
    l("suggest_keywords_p50_ms", "ms", Lower, M_DEMOTED),
    l("suggest_keywords_p95_ms", "ms", Lower, M_DEMOTED),
    l("explore_paths_p50_ms", "ms", Lower, M_DEMOTED),
    l("window_lag_p50_ms", "ms", Lower, M_DEMOTED),
    l("ingest_actions_per_s", "1/s", Higher, M_DEMOTED),
];

/// The `BENCHMARK.json` document, exactly the keys the driver's contract
/// names. Predictions, native workloads and the frozen constants cannot
/// ride in it (no extra keys are allowed); they live here and in the
/// README.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "octobench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["octobench"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_limits_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&on_disk).unwrap(),
            manifest(),
            "run `octobench manifest > BENCHMARK.json`"
        );
    }
}
