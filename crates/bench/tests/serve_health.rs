//! Serving health on the quick citation fixture (400 researchers, 1 000
//! papers — `exp_runner --quick`'s citation scale), for the unsharded
//! [`OctopusService`] and a K = 4 [`ShardedService`] over four disjoint
//! copies of the same network:
//!
//! - **churn** — workers race four nudge flushes with unlimited budgets:
//!   no query errors, no failed batches, every flush swaps an epoch that
//!   later queries are stamped with, and nothing is shed when no
//!   admission controller is configured;
//! - **overload** — 16 workers against a 2-slot controller with 2-deep
//!   class queues and a 50 ms deadline budget: some queries are shed but
//!   not (almost) all of them, every refusal is
//!   [`CoreError::Overloaded`], and the p99 of admitted queries stays
//!   O(deadline) — the controller sheds rather than queues;
//! - **anytime quality** — `find_influencers` under sample budgets keeps
//!   its recall@5 against the exact answer above pinned floors, the
//!   budget binds (an inexact answer within the sample allowance), and a
//!   repeat at a fixed budget is bit-identical.
//!
//! Answer *correctness* under swaps is pinned by `crates/core/tests/
//! serve_epoch.rs` and `serve_shard.rs`; these tests pin that the
//! serving layer stays healthy while it happens.

use octopus_bench::serve_load::{self, ServeLoadReport, DELTA_BATCHES};
use octopus_bench::workloads::{citation_queries, citation_sized, disjoint_copies, user_keywords};
use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus_core::kim::BoundKind;
use octopus_core::serve::{AdmissionConfig, OctopusService, Query, QueryService, ShardedService};
use octopus_core::QueryBudget;
use octopus_data::SyntheticNetwork;
use octopus_graph::NodeId;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The tests in this file run one at a time: the overload tests gate
/// admitted-query latency, which must not pay for another test's load on
/// the same cores (each gate once ran as a process of its own).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fixture() -> SyntheticNetwork {
    citation_sized(400, 1000)
}

fn config() -> OctopusConfig {
    OctopusConfig {
        kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
        piks_index_size: 1024,
        k_max: 25,
        ..Default::default()
    }
}

/// A fresh per-test cache directory: every flushed epoch is persisted
/// there, so each flush also writes its artifact while queries run.
fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "octopus_serve_health_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The service under test: unsharded for `shards == 1`, else a router
/// over `shards` disjoint copies of `net`.
fn service(
    net: &SyntheticNetwork,
    shards: usize,
    dir: &Path,
    admission: Option<AdmissionConfig>,
) -> Box<dyn QueryService> {
    if shards == 1 {
        let engine = Octopus::new(net.graph.clone(), net.model.clone(), config())
            .expect("epoch 0 builds")
            .with_user_keywords(user_keywords(net));
        let service = OctopusService::with_cache_dir(engine, dir);
        Box::new(match admission {
            Some(cfg) => service.with_admission(cfg),
            None => service,
        })
    } else {
        let service = ShardedService::with_options(
            disjoint_copies(net, shards),
            net.model.clone(),
            config(),
            shards,
            Some(dir.to_path_buf()),
            false,
            user_keywords(net),
        )
        .expect("shard engines build");
        assert_eq!(service.shard_count(), shards, "one copy per shard");
        Box::new(match admission {
            Some(cfg) => service.with_admission(cfg),
            None => service,
        })
    }
}

/// Every flush landed a swap, and a query issued afterwards is served by
/// the swapped epochs (a sharded answer's epoch is the sum of its
/// shards' epoch ids, so both layers stamp the total swap count).
fn assert_every_batch_swapped(service: &dyn QueryService, report: &ServeLoadReport) {
    assert_eq!(report.batches_failed, 0, "failed flushes: {report:?}");
    assert_eq!(report.swaps_per_batch.len(), DELTA_BATCHES);
    assert!(
        report.swaps_per_batch.iter().all(|&n| n > 0),
        "every flush must swap an epoch: {:?}",
        report.swaps_per_batch
    );
    let probe = Query::Autocomplete {
        prefix: "a".into(),
        limit: 1,
    };
    let served = service
        .execute(&probe, &QueryBudget::unlimited())
        .expect("post-churn query");
    let swaps: usize = report.swaps_per_batch.iter().sum();
    assert_eq!(
        served.epoch, swaps as u64,
        "queries after the churn must see every swapped epoch"
    );
}

fn churn(shards: usize) {
    let _serial = serial();
    let net = fixture();
    let dir = cache_dir(&format!("churn_k{shards}"));
    let service = service(&net, shards, &dir, None);
    let report = serve_load::run(service.as_ref(), &net, 4, &QueryBudget::unlimited());
    std::fs::remove_dir_all(&dir).ok();
    assert!(report.total_queries > 0);
    assert_eq!(
        report.total_errors, 0,
        "query errors under churn: {report:?}"
    );
    assert_eq!(
        report.total_shed, 0,
        "no admission controller is configured, so nothing may be shed"
    );
    assert_every_batch_swapped(service.as_ref(), &report);
}

fn overload(shards: usize) {
    let _serial = serial();
    let net = fixture();
    let dir = cache_dir(&format!("overload_k{shards}"));
    // 2 slots, 2 queued per class: with 16 workers ≫ slots the bounded
    // queues must shed
    let admission = AdmissionConfig {
        max_inflight: 2,
        queue_caps: [2, 2, 2],
    };
    let deadline = Duration::from_millis(50);
    let service = service(&net, shards, &dir, Some(admission));
    let report = serve_load::run(service.as_ref(), &net, 16, &QueryBudget::deadline(deadline));
    std::fs::remove_dir_all(&dir).ok();

    let issued = report.total_queries as f64;
    assert!(report.total_shed > 0, "admission never engaged: {report:?}");
    assert!(
        (report.total_shed as f64) < 0.95 * issued,
        "admission starved the serving layer: {report:?}"
    );
    assert_eq!(
        report.total_errors, 0,
        "every refusal must be Overloaded: {report:?}"
    );
    // an admitted query waits behind at most ~3 dispatch generations
    // (a 2-deep class queue over 2 slots), each an execution that may
    // overshoot the deadline by one refinement chunk (deadlines are
    // checked at chunk boundaries), with flush rebuilds sharing the pool:
    // bounded by construction, so latency stays O(deadline)
    let guard = (deadline * 20).max(Duration::from_secs(1));
    for op in &report.per_op {
        assert!(
            op.p99 <= guard,
            "{} admitted p99 {:?} exceeds the {guard:?} guard: {report:?}",
            op.operator.label(),
            op.p99
        );
    }
    assert_every_batch_swapped(service.as_ref(), &report);
}

#[test]
fn churn_unsharded() {
    churn(1);
}

#[test]
fn churn_sharded_k4() {
    churn(4);
}

#[test]
fn overload_unsharded() {
    overload(1);
}

#[test]
fn overload_sharded_k4() {
    overload(4);
}

/// Recall@5 floors per sample budget (RR sets): the curve this fixture
/// produced when the anytime path was introduced (0.100 / 0.200 / 0.375 /
/// 0.600), less 0.05 of tolerance. Gains never trip it.
const RECALL_FLOORS: [(usize, f64); 4] = [(32, 0.05), (128, 0.15), (512, 0.325), (2048, 0.55)];

#[test]
fn anytime_recall_holds_its_floors_and_fixed_budgets_repeat() {
    let _serial = serial();
    let net = fixture();
    let engine = Octopus::new(net.graph.clone(), net.model.clone(), config())
        .expect("engine builds")
        .with_user_keywords(user_keywords(&net));
    let k = 5;
    let queries = citation_queries();
    let exact: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| {
            engine
                .find_influencers(q, k)
                .expect("exact answer")
                .result
                .seeds
        })
        .collect();
    for (samples, floor) in RECALL_FLOORS {
        let budget = QueryBudget::samples(samples);
        let (mut hits, mut total) = (0, 0);
        for (q, want) in queries.iter().zip(&exact) {
            let query = Query::FindInfluencers {
                query: q.to_string(),
                k,
            };
            let run = || {
                let response = engine.execute(&query, &budget).expect("budgeted answer");
                response.into_influencers().expect("influencer answer")
            };
            let (a, again) = (run(), run());
            assert!(
                !a.bound.exact && a.bound.samples_used <= samples,
                "budget {samples} must bind on {q:?}: {:?}",
                a.bound
            );
            assert_eq!(
                a.value.result.seeds, again.value.result.seeds,
                "budget {samples} must repeat on {q:?}"
            );
            assert_eq!(
                a.value.result.spread.to_bits(),
                again.value.result.spread.to_bits(),
                "budget {samples} must repeat on {q:?}"
            );
            hits += a
                .value
                .result
                .seeds
                .iter()
                .filter(|s| want.contains(s))
                .count();
            total += want.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(
            recall >= floor,
            "recall@{k} at {samples} RR sets fell to {recall:.3} (floor {floor})"
        );
    }
}
