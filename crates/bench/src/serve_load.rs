//! Closed-loop load generator for the serving layer — the "serving under
//! churn" scenario the `serve_health` tests drive.
//!
//! N worker threads issue a seeded mixed workload (influencer ranking,
//! keyword suggestion, path exploration, autocompletion, keyword radar)
//! against one [`QueryService`] — an unsharded
//! [`OctopusService`](octopus_core::serve::OctopusService) or a
//! [`ShardedService`](octopus_core::serve::ShardedService)
//! scatter-gather router — while a mutator thread injects
//! [`GraphDelta`] batches and flushes them into epoch swaps.
//! Workers run until every flush has happened *and* they have issued
//! their query quota, so queries provably race every swap. The report
//! counts errors and admission sheds per operator, the p99 of admitted
//! queries, and how many shard swaps each flush landed.
//!
//! Determinism caveat: per-worker query *choices* are seeded and
//! reproducible; the interleaving with swaps (and hence latencies) is
//! scheduling-dependent, as serving is. The correctness of answers under
//! that nondeterminism is what `crates/core/tests/serve_epoch.rs` and
//! `serve_shard.rs` pin; this generator checks the service stays healthy.

use crate::workloads::prolific_users;
use octopus_core::paths::ExploreDirection;
use octopus_core::serve::{Operator, Query, QueryService};
use octopus_core::{CoreError, QueryBudget};
use octopus_data::SyntheticNetwork;
use octopus_graph::delta::GraphDelta;
use octopus_graph::EdgeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::Duration;

/// Minimum queries each worker issues (workers also keep going until
/// the mutator finishes, so every swap races live queries).
const MIN_QUERIES_PER_WORKER: usize = 40;
/// Delta batches the mutator injects — one flush each.
pub const DELTA_BATCHES: usize = 4;
/// Edge-weight nudges per batch.
const EDGES_PER_BATCH: usize = 3;
/// Mutator pause before each batch, letting queries land on the current
/// epoch first.
const BATCH_PAUSE: Duration = Duration::from_millis(40);
/// Master seed for the workers' query choices and the mutator's edge
/// picks.
const SEED: u64 = 0x5E17_E000;

/// The query material the mixed workload draws from.
#[derive(Debug, Clone)]
pub struct MixPools {
    /// Keyword queries for influencer ranking and path narrowing.
    pub queries: Vec<String>,
    /// User names for suggestion and path exploration.
    pub users: Vec<String>,
    /// Single vocabulary words for radar charts.
    pub words: Vec<String>,
    /// Name prefixes for autocompletion.
    pub prefixes: Vec<String>,
}

impl MixPools {
    /// Derive pools from a synthetic network: queries are vocabulary
    /// words (singletons and two-word mixtures), users are the most
    /// prolific authors, prefixes are their name stems.
    pub fn from_network(net: &SyntheticNetwork) -> Self {
        let vocab_size = net.model.vocab_size();
        let take = vocab_size.min(24);
        let words: Vec<String> = (0..take)
            .map(|w| {
                // spread picks across the vocabulary
                let id = (w * vocab_size / take.max(1)) as u32;
                net.model
                    .vocab()
                    .word(octopus_topics::KeywordId(id))
                    .expect("sampled id is in range")
                    .to_string()
            })
            .collect();
        let mut queries: Vec<String> = words.iter().take(8).cloned().collect();
        for pair in words.chunks(2).take(6) {
            queries.push(pair.join(" "));
        }
        let users: Vec<String> = prolific_users(net, 8)
            .into_iter()
            .filter_map(|u| net.graph.name(u).map(str::to_string))
            .collect();
        let prefixes: Vec<String> = users.iter().map(|n| n.chars().take(2).collect()).collect();
        MixPools {
            queries,
            users,
            words,
            prefixes,
        }
    }

    /// One seeded draw from the operator mix: 40 % influencer ranking,
    /// 20 % suggestion, 15 % path exploration, 15 % autocompletion, 10 %
    /// keyword radar.
    pub fn draw(&self, rng: &mut SmallRng) -> Query {
        let pick =
            |rng: &mut SmallRng, pool: &[String]| pool[rng.random_range(0..pool.len())].clone();
        let roll = rng.random_range(0..100u32);
        if roll < 40 {
            Query::FindInfluencers {
                query: pick(rng, &self.queries),
                k: rng.random_range(1..=8usize),
            }
        } else if roll < 60 {
            Query::SuggestKeywords {
                user: pick(rng, &self.users),
                k: 2,
            }
        } else if roll < 75 {
            Query::ExplorePaths {
                user: pick(rng, &self.users),
                direction: ExploreDirection::Influences,
                query: Some(pick(rng, &self.queries)),
            }
        } else if roll < 90 {
            Query::Autocomplete {
                prefix: pick(rng, &self.prefixes),
                limit: 10,
            }
        } else {
            Query::KeywordRadar {
                word: pick(rng, &self.words),
            }
        }
    }
}

/// Health digest of one operator across the whole run.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Which operator.
    pub operator: Operator,
    /// Queries issued.
    pub queries: u64,
    /// Queries that returned an error other than a shed.
    pub errors: u64,
    /// Queries shed by admission control ([`CoreError::Overloaded`]).
    pub shed: u64,
    /// 99th-percentile latency of admitted queries (nearest rank).
    pub p99: Duration,
}

/// Everything one load run checked.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    /// Per-operator digests, in [`Operator::ALL`] order (operators with
    /// zero queries are omitted).
    pub per_op: Vec<OperatorReport>,
    /// Total queries across operators and workers.
    pub total_queries: u64,
    /// Total errors across operators and workers (shed excluded).
    pub total_errors: u64,
    /// Total queries shed by admission control.
    pub total_shed: u64,
    /// Shard swaps each flush landed, in flush order (0 for a flush that
    /// failed or swapped nothing; the unsharded service swaps shard 0).
    pub swaps_per_batch: Vec<usize>,
    /// Flush attempts that failed (must be 0 in a healthy run).
    pub batches_failed: u64,
}

/// Per-worker raw measurements, merged after the scope joins.
#[derive(Default)]
struct WorkerLog {
    latencies: [Vec<Duration>; 5],
    errors: [u64; 5],
    shed: [u64; 5],
}

/// Drive `service` through a full serve-under-churn run (see the module
/// docs) with `workers` query threads, each query carrying `budget`.
/// `net` supplies the query pools; the mutator nudges edges across the
/// service's own (possibly multi-shard) edge range.
///
/// An unlimited budget answers exactly; a limited one degrades answers
/// to fit. The budget's class drives admission when the service has an
/// admission controller — shed queries ([`CoreError::Overloaded`]) are
/// counted apart from errors and contribute no latency sample, so the
/// report's p99 is the p99 *of admitted queries*.
pub fn run(
    service: &dyn QueryService,
    net: &SyntheticNetwork,
    workers: usize,
    budget: &QueryBudget,
) -> ServeLoadReport {
    let pools = MixPools::from_network(net);
    let edge_count = service.edge_count();
    let mutations_done = AtomicBool::new(false);

    let (logs, swaps_per_batch) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let pools = &pools;
            let mutations_done = &mutations_done;
            handles.push(s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(SEED ^ (0xA11CE + w as u64));
                let mut log = WorkerLog::default();
                let mut issued = 0usize;
                while issued < MIN_QUERIES_PER_WORKER || !mutations_done.load(SeqCst) {
                    let query = pools.draw(&mut rng);
                    let op = query.operator().index();
                    // the answer payload is discarded — correctness is
                    // what the serve tests pin
                    match service.execute(&query, budget) {
                        Ok(a) => log.latencies[op].push(a.latency),
                        Err(CoreError::Overloaded { .. }) => log.shed[op] += 1,
                        Err(_) => log.errors[op] += 1,
                    }
                    issued += 1;
                }
                log
            }));
        }

        // the mutator: one coalesced nudge batch per flush — the flush
        // rebuilds and swaps only the shards the batch's footprint touches
        let mut rng = SmallRng::seed_from_u64(SEED ^ 0x0D17A);
        let mut swaps_per_batch = Vec::with_capacity(DELTA_BATCHES);
        for _ in 0..DELTA_BATCHES {
            std::thread::sleep(BATCH_PAUSE);
            for _ in 0..EDGES_PER_BATCH {
                service.submit_delta(GraphDelta::NudgeWeights {
                    edges: vec![EdgeId(rng.random_range(0..edge_count as u32))],
                    delta: 0.02,
                });
            }
            swaps_per_batch.push(service.flush_deltas().map_or(0, |swaps| swaps.len()));
        }
        mutations_done.store(true, SeqCst);

        let logs: Vec<WorkerLog> = handles
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        (logs, swaps_per_batch)
    });

    // merge worker logs
    let mut latencies: [Vec<Duration>; 5] = Default::default();
    let mut errors = [0u64; 5];
    let mut shed = [0u64; 5];
    for log in logs {
        for (i, l) in log.latencies.into_iter().enumerate() {
            latencies[i].extend(l);
            errors[i] += log.errors[i];
            shed[i] += log.shed[i];
        }
    }
    let per_op: Vec<OperatorReport> = Operator::ALL
        .iter()
        .enumerate()
        .zip(latencies.iter_mut())
        .filter(|((i, _), samples)| !samples.is_empty() || errors[*i] > 0 || shed[*i] > 0)
        .map(|((i, &operator), samples)| {
            samples.sort_unstable();
            let p99 = match samples.len() {
                0 => Duration::ZERO,
                n => samples[((n - 1) as f64 * 0.99).round() as usize],
            };
            OperatorReport {
                operator,
                queries: samples.len() as u64 + errors[i] + shed[i],
                errors: errors[i],
                shed: shed[i],
                p99,
            }
        })
        .collect();
    ServeLoadReport {
        total_queries: per_op.iter().map(|r| r.queries).sum(),
        total_errors: per_op.iter().map(|r| r.errors).sum(),
        total_shed: per_op.iter().map(|r| r.shed).sum(),
        per_op,
        swaps_per_batch,
        batches_failed: service.delta_counters().batches_failed,
    }
}
