//! Closed-loop load generator for the serving layer — the "serving under
//! churn" scenario behind `exp_runner --serve <workers>` (optionally
//! `--shards <k>`).
//!
//! N worker threads issue a seeded mixed workload (influencer ranking,
//! keyword suggestion, path exploration, autocompletion, keyword radar)
//! against one [`QueryService`] — an unsharded
//! [`OctopusService`](octopus_core::serve::OctopusService) or a
//! [`ShardedService`](octopus_core::serve::ShardedService)
//! scatter-gather router — while a mutator thread injects
//! [`GraphDelta`] batches and flushes them into epoch swaps.
//! Workers run until every swap has happened *and* they have issued their
//! query quota, so queries provably race every swap. The report carries
//! per-operator throughput and latency percentiles plus the swap
//! trajectory (per-shard: which shard swapped, rebuild time, and
//! per-stage reuse of every epoch; the unsharded service reports as the
//! degenerate single shard 0).
//!
//! Determinism caveat: per-worker query *choices* are seeded and
//! reproducible; the interleaving with swaps (and hence per-epoch query
//! counts and latencies) is scheduling-dependent, as serving is. The
//! correctness of answers under that nondeterminism is what
//! `crates/core/tests/serve_epoch.rs` and `serve_shard.rs` pin; this
//! generator measures it.

use crate::workloads::prolific_users;
use octopus_core::paths::ExploreDirection;
use octopus_core::serve::{Operator, Query, QueryService, ShardSwap};
use octopus_core::{CoreError, QueryBudget};
use octopus_data::SyntheticNetwork;
use octopus_graph::delta::GraphDelta;
use octopus_graph::EdgeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// Tuning knobs of one load run.
#[derive(Debug, Clone)]
pub struct ServeLoadConfig {
    /// Worker threads issuing queries.
    pub workers: usize,
    /// Minimum queries each worker issues (workers also keep going until
    /// the mutator finishes, so every swap races live queries).
    pub min_queries_per_worker: usize,
    /// Delta batches the mutator injects — at least one shard swap each.
    pub delta_batches: usize,
    /// Edge-weight nudges per batch.
    pub edges_per_batch: usize,
    /// Mutator pause before each batch, letting queries land on the
    /// current epoch first.
    pub batch_pause: Duration,
    /// Master seed for the workers' query choices and the mutator's edge
    /// picks.
    pub seed: u64,
    /// Per-query budget every worker carries. Unlimited (the default)
    /// answers exactly; a limited budget degrades answers to fit. The
    /// budget's class drives admission when the
    /// target was built with an admission controller — shed queries
    /// ([`CoreError::Overloaded`]) are counted separately from errors and
    /// contribute no latency sample, so the report's percentiles are
    /// percentiles *of admitted queries*.
    pub budget: QueryBudget,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            workers: 4,
            min_queries_per_worker: 100,
            delta_batches: 4,
            edges_per_batch: 3,
            batch_pause: Duration::from_millis(30),
            seed: 0x5E17_E000,
            budget: QueryBudget::unlimited(),
        }
    }
}

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
}

/// Latency/throughput digest of one operator across the whole run.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Which operator.
    pub operator: Operator,
    /// Queries issued.
    pub queries: u64,
    /// Queries that returned an error (shed queries excluded).
    pub errors: u64,
    /// Queries shed by admission control ([`CoreError::Overloaded`]).
    pub shed: u64,
    /// Median latency (admitted queries only).
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
    /// Queries per second over the run's wall clock.
    pub throughput: f64,
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    /// Wall clock of the whole run.
    pub wall: Duration,
    /// Per-operator digests, in [`Operator::ALL`] order (operators with
    /// zero queries are omitted).
    pub per_op: Vec<OperatorReport>,
    /// Total queries across operators and workers.
    pub total_queries: u64,
    /// Total errors across operators and workers (shed excluded).
    pub total_errors: u64,
    /// Total queries shed by admission control.
    pub total_shed: u64,
    /// Aggregate throughput (queries per second).
    pub throughput: f64,
    /// Shards serving (1 for the unsharded service).
    pub shards: usize,
    /// One entry per shard swap, in flush order (the unsharded service
    /// reports every swap as shard 0; a sharded flush touching three
    /// shards contributes three entries).
    pub swaps: Vec<ShardSwap>,
    /// Flush batches that failed (must be 0 in a healthy run).
    pub batches_failed: u64,
    /// Deltas applied across all swaps.
    pub deltas_applied: u64,
    /// Epoch range observed by the workers' queries.
    pub epochs_observed: (u64, u64),
}

impl ServeLoadReport {
    /// The digest for one operator, if it ran.
    pub fn op(&self, op: Operator) -> Option<&OperatorReport> {
        self.per_op.iter().find(|r| r.operator == op)
    }

    /// Fraction of issued queries that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.total_queries == 0 {
            0.0
        } else {
            self.total_shed as f64 / self.total_queries as f64
        }
    }
}

/// Latency percentile from an unsorted sample set (nearest-rank).
pub fn percentile(samples: &mut [Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Per-worker raw measurements, merged after the scope joins.
#[derive(Default)]
struct WorkerLog {
    latencies: [Vec<Duration>; 5],
    errors: [u64; 5],
    shed: [u64; 5],
    epochs: Option<(u64, u64)>,
}

/// Drive `service` through a full serve-under-churn run (see the module
/// docs). `net` supplies the query pools; the mutator nudges edges across
/// the service's own (possibly multi-shard) edge range.
pub fn run(
    service: &dyn QueryService,
    net: &SyntheticNetwork,
    cfg: &ServeLoadConfig,
) -> ServeLoadReport {
    let pools = MixPools::from_network(net);
    let edge_count = service.edge_count();
    let mutations_done = AtomicBool::new(false);
    let start = Instant::now();

    let (logs, swaps) = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for w in 0..cfg.workers {
            let pools = &pools;
            let mutations_done = &mutations_done;
            workers.push(s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (0xA11CE + w as u64));
                let mut log = WorkerLog::default();
                let mut issued = 0usize;
                while issued < cfg.min_queries_per_worker || !mutations_done.load(SeqCst) {
                    let roll = rng.random_range(0..100u32);
                    let query = if roll < 40 {
                        let q = &pools.queries[rng.random_range(0..pools.queries.len())];
                        Query::FindInfluencers {
                            query: q.clone(),
                            k: rng.random_range(1..=8usize),
                        }
                    } else if roll < 60 {
                        let u = &pools.users[rng.random_range(0..pools.users.len())];
                        Query::SuggestKeywords {
                            user: u.clone(),
                            k: 2,
                        }
                    } else if roll < 75 {
                        let u = &pools.users[rng.random_range(0..pools.users.len())];
                        let q = &pools.queries[rng.random_range(0..pools.queries.len())];
                        Query::ExplorePaths {
                            user: u.clone(),
                            direction: ExploreDirection::Influences,
                            query: Some(q.clone()),
                        }
                    } else if roll < 90 {
                        let p = &pools.prefixes[rng.random_range(0..pools.prefixes.len())];
                        Query::Autocomplete {
                            prefix: p.clone(),
                            limit: 10,
                        }
                    } else {
                        let word = &pools.words[rng.random_range(0..pools.words.len())];
                        Query::KeywordRadar { word: word.clone() }
                    };
                    let op = query.operator().index();
                    // the answer payload is discarded — the generator
                    // measures; correctness is what the serve tests pin
                    match service.execute(&query, &cfg.budget) {
                        Ok(a) => {
                            log.latencies[op].push(a.latency);
                            log.epochs = Some(match log.epochs {
                                None => (a.epoch, a.epoch),
                                Some((lo, hi)) => (lo.min(a.epoch), hi.max(a.epoch)),
                            });
                        }
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
        let swaps = {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0D17A);
            let mut swaps: Vec<ShardSwap> = Vec::new();
            for _ in 0..cfg.delta_batches {
                std::thread::sleep(cfg.batch_pause);
                for _ in 0..cfg.edges_per_batch {
                    service.submit_delta(GraphDelta::NudgeWeights {
                        edges: vec![EdgeId(rng.random_range(0..edge_count as u32))],
                        delta: 0.02,
                    });
                }
                if let Ok(mut batch_swaps) = service.flush_deltas() {
                    swaps.append(&mut batch_swaps);
                }
            }
            mutations_done.store(true, SeqCst);
            swaps
        };

        let logs: Vec<WorkerLog> = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        (logs, swaps)
    });
    let wall = start.elapsed();

    // merge worker logs
    let mut latencies: [Vec<Duration>; 5] = Default::default();
    let mut errors = [0u64; 5];
    let mut shed = [0u64; 5];
    let mut epochs_observed: Option<(u64, u64)> = None;
    for log in logs {
        for (i, l) in log.latencies.into_iter().enumerate() {
            latencies[i].extend(l);
            errors[i] += log.errors[i];
            shed[i] += log.shed[i];
        }
        if let Some((lo, hi)) = log.epochs {
            epochs_observed = Some(match epochs_observed {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
    }
    let wall_secs = wall.as_secs_f64().max(1e-9);
    let per_op: Vec<OperatorReport> = Operator::ALL
        .iter()
        .enumerate()
        .zip(latencies.iter_mut())
        .filter(|((i, _), samples)| !samples.is_empty() || errors[*i] > 0 || shed[*i] > 0)
        .map(|((i, &operator), samples)| {
            let queries = samples.len() as u64 + errors[i] + shed[i];
            OperatorReport {
                operator,
                queries,
                errors: errors[i],
                shed: shed[i],
                p50: percentile(samples, 50.0),
                p95: percentile(samples, 95.0),
                p99: percentile(samples, 99.0),
                max: samples.last().copied().unwrap_or(Duration::ZERO),
                throughput: queries as f64 / wall_secs,
            }
        })
        .collect();
    let total_queries: u64 = per_op.iter().map(|r| r.queries).sum();
    let total_errors: u64 = per_op.iter().map(|r| r.errors).sum();
    let total_shed: u64 = per_op.iter().map(|r| r.shed).sum();
    let counters = service.delta_counters();
    let (deltas_applied, batches_failed) = (counters.deltas_applied, counters.batches_failed);
    ServeLoadReport {
        wall,
        per_op,
        total_queries,
        total_errors,
        total_shed,
        throughput: total_queries as f64 / wall_secs,
        shards: service.shard_count(),
        deltas_applied,
        batches_failed,
        swaps,
        epochs_observed: epochs_observed.unwrap_or((0, 0)),
    }
}
