//! Set-up: generate a workload's inputs from the seed, fit the warm-up
//! model where the workload learns, and build or open epoch 0. Everything
//! here is what `setup_s` times.

use crate::script::{find, uniform_script, zipf_script, Pools, Rng64, Script};
use crate::spec;
use octopus_bench::workloads::{citation_sized, disjoint_copies, user_keywords};
use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus_core::kim::BoundKind;
use octopus_core::serve::{OctopusService, Query, QueryService, ShardedService};
use octopus_core::Result;
use octopus_data::stream::{self, Action, StreamConfig, StreamEvent};
use octopus_data::{ActionLog, EmOptions, LearnedModel, TicEm};
use octopus_graph::delta::nudge_weights;
use octopus_graph::{EdgeId, NodeId, TopicGraph};
use octopus_topics::{KeywordId, TopicModel, Vocabulary};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadId {
    ServeUniform,
    ServeSharded,
    ServeChurn,
    IngestLoop,
    Restart,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::ServeUniform,
        WorkloadId::ServeSharded,
        WorkloadId::ServeChurn,
        WorkloadId::IngestLoop,
        WorkloadId::Restart,
    ];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is what `BENCHMARK.json` runs; `Smoke` shrinks every graph so
/// the crate's own test can drive all five workloads in seconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// Graph and script sizes, frozen at calibration (README, "Calibration").
struct Sizes {
    /// `serve_uniform`/`serve_sharded`: authors, papers of one copy; two
    /// disjoint copies are served.
    serve: (usize, usize),
    /// `serve_churn`: small enough that the queries, the flush and
    /// re-filling the query cache after each swap keep the thread about half
    /// busy — queue wait is then something a flush or a slow miss *adds*,
    /// not the resting state.
    churn: (usize, usize),
    restart: (usize, usize),
    /// `ingest_loop`; the served graph is the one EM learns from its log.
    ingest: (usize, usize),
    piks_worlds: usize,
    script_len: usize,
    user_pool: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            serve: (600, 1500),
            churn: (500, 1250),
            restart: (1000, 2500),
            ingest: (60, 160),
            piks_worlds: 1024,
            script_len: 8192,
            user_pool: 32,
        },
        Scale::Smoke => Sizes {
            serve: (60, 150),
            churn: (100, 250),
            restart: (100, 250),
            ingest: (40, 100),
            piks_worlds: 64,
            script_len: 2048,
            user_pool: 16,
        },
    }
}

/// What the ingest loop learns from: the warm-up prefix already fitted
/// into the served graph, and the stamped tail it replays.
pub struct Learn {
    pub opts: EmOptions,
    pub vocab: Vocabulary,
    pub names: Vec<String>,
    pub warmup_log: ActionLog,
    pub warm: LearnedModel,
    pub tail: Vec<Action>,
}

/// One workload's generated inputs.
pub struct World {
    pub id: WorkloadId,
    /// The graph epoch 0 serves.
    pub graph: TopicGraph,
    pub model: TopicModel,
    pub config: OctopusConfig,
    pub user_keywords: HashMap<NodeId, Vec<KeywordId>>,
    pub script: Script,
    /// What restart rounds ask a freshly mapped engine first.
    pub first_answers: Vec<Query>,
    /// `ingest_loop` only.
    pub learn: Option<Learn>,
}

impl World {
    /// Generate `id`'s inputs. The graph generator keeps its own fixed
    /// seed (the workloads name their graphs by size); `seed` decides the
    /// query script here and, later, every nudge pick.
    pub fn generate(id: WorkloadId, seed: u64, scale: Scale) -> World {
        let sz = sizes(scale);
        let config = OctopusConfig {
            kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
            piks_index_size: sz.piks_worlds,
            k_max: 25,
            ..Default::default()
        };
        let (net, graph, model, learn) = match id {
            WorkloadId::ServeUniform | WorkloadId::ServeSharded => {
                let net = citation_sized(sz.serve.0, sz.serve.1);
                // Two identical copies would tie every hub's gain exactly,
                // leaving the order of ties to floating-point regrouping on
                // either side of the shard merge; a small nudge on the
                // second copy makes the ranking structural (the same device
                // as crates/bench/tests/sharded_equivalence.rs).
                let union = disjoint_copies(&net, 2);
                let m = net.graph.edge_count() as u32;
                let second: Vec<EdgeId> = (m..2 * m).map(EdgeId).collect();
                let graph = nudge_weights(&union, &second, 0.01).expect("copy nudge applies");
                let model = net.model.clone();
                (net, graph, model, None)
            }
            WorkloadId::ServeChurn | WorkloadId::Restart => {
                let (authors, papers) = match id {
                    WorkloadId::ServeChurn => sz.churn,
                    _ => sz.restart,
                };
                let net = citation_sized(authors, papers);
                let (graph, model) = (net.graph.clone(), net.model.clone());
                (net, graph, model, None)
            }
            WorkloadId::IngestLoop => {
                let net = citation_sized(sz.ingest.0, sz.ingest.1);
                let learn = warm_up(&net, seed);
                let (graph, model) = (learn.warm.graph.clone(), learn.warm.model.clone());
                (net, graph, model, Some(learn))
            }
        };
        let pools = Pools::new(&net, &model, sz.user_pool);
        let script = match id {
            // one script period per flush period: every epoch sees the same
            // traffic, whatever the seed
            WorkloadId::ServeChurn => zipf_script(
                seed,
                &pools,
                spec::ZIPF_EXPONENT,
                spec::churn_period_queries(),
                sz.script_len,
            ),
            _ => uniform_script(seed, &pools, sz.script_len),
        };
        // The first answer after a mapped open: the single best seed (k = 1,
        // the cheapest query, so the number is about mapping, validation and
        // lazy checksums rather than the kernel) for keywords of one topic —
        // the same cost in every round and for every seed; the script's own
        // k and topics would make it a lottery.
        let mut rng = Rng64::stream(seed, 0xF125);
        let first_answers = (0..16)
            .map(|_| find(&pools, &mut rng, 0, 1, false))
            .collect();
        World {
            id,
            graph,
            model,
            config,
            user_keywords: user_keywords(&net),
            script,
            first_answers,
            learn,
        }
    }

    /// Build or open epoch 0 in the empty directory `dir`.
    pub fn open(&self, dir: &Path) -> Result<Service> {
        let (graph, model, config) = (self.graph.clone(), self.model.clone(), self.config.clone());
        Ok(match self.id {
            WorkloadId::ServeSharded => Service::Sharded(Box::new(ShardedService::with_options(
                graph,
                model,
                config,
                spec::SHARDS,
                Some(dir.to_path_buf()),
                false,
                self.user_keywords.clone(),
            )?)),
            // the churn service remaps every flushed artifact, so the
            // flush chain ends in `offline::view::open` as ROADMAP describes
            WorkloadId::ServeChurn => {
                let engine = Octopus::open_mapped(graph, model, config, dir)?
                    .with_user_keywords(self.user_keywords.clone());
                Service::Single(Box::new(OctopusService::with_mapped_cache(engine, dir)))
            }
            _ => {
                let engine = Octopus::open_or_build(graph, model, config, dir)?
                    .with_user_keywords(self.user_keywords.clone());
                Service::Single(Box::new(OctopusService::with_cache_dir(engine, dir)))
            }
        })
    }

    /// Whether `open` serves mapped engines (the flush chain then remaps).
    pub fn mapped(&self) -> bool {
        self.id == WorkloadId::ServeChurn
    }

    /// A fresh whole-graph engine over `graph` — the oracle every served
    /// answer is compared against.
    pub fn oracle(&self, graph: TopicGraph) -> Result<Octopus> {
        Ok(
            Octopus::new(graph, self.model.clone(), self.config.clone())?
                .with_user_keywords(self.user_keywords.clone()),
        )
    }
}

/// Stamp the log into a stream (jitter from `seed`), fit the first 60 %
/// as the warm-up model, keep the last 40 % as the tail to replay.
fn warm_up(net: &octopus_data::SyntheticNetwork, seed: u64) -> Learn {
    let names: Vec<String> = net
        .graph
        .nodes()
        .map(|u| net.graph.name(u).unwrap_or("").to_string())
        .collect();
    let vocab = net.model.vocab().clone();
    let opts = EmOptions {
        max_iters: 6,
        ..Default::default()
    };
    let actions = stream::timeline(
        &net.log,
        &StreamConfig {
            seed,
            ..Default::default()
        },
    );
    let split = actions.len() * 3 / 5;
    let mut warmup_log = ActionLog::new();
    for a in &actions[..split] {
        match &a.event {
            StreamEvent::Item(item) => {
                warmup_log.push_item(item.origin, item.keywords.clone());
            }
            StreamEvent::Trial(t) => warmup_log.push_trial(t.item, t.src, t.dst, t.activated),
        }
    }
    let warm = TicEm::new(opts.clone()).fit(&warmup_log, vocab.clone(), names.clone());
    Learn {
        opts,
        vocab,
        names,
        warmup_log,
        warm,
        tail: actions[split..].to_vec(),
    }
}

/// Either serving layer behind the one face the actors drive.
pub enum Service {
    Single(Box<OctopusService>),
    Sharded(Box<ShardedService>),
}

impl Service {
    pub fn queries(&self) -> &dyn QueryService {
        match self {
            Service::Single(s) => s.as_ref(),
            Service::Sharded(s) => s.as_ref(),
        }
    }

    /// The graph the unsharded service currently serves (the sharded
    /// router exposes no global graph; its answers are checked instead).
    pub fn served_graph(&self) -> Option<TopicGraph> {
        match self {
            Service::Single(s) => Some(s.snapshot().engine().graph().clone()),
            Service::Sharded(_) => None,
        }
    }
}

/// The run's private directory under `out/`, removed on drop. Artifact
/// caches, mirror caches and restart rounds each get a subdirectory.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(out: &Path, workload: &str) -> std::io::Result<Scratch> {
        let root = out.join(format!("scratch-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// An empty subdirectory called `name` (emptied if it exists).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_sharded_serve_the_same_graph_and_script() {
        let uniform = World::generate(WorkloadId::ServeUniform, 11, Scale::Smoke);
        let sharded = World::generate(WorkloadId::ServeSharded, 11, Scale::Smoke);
        assert_eq!(uniform.graph, sharded.graph, "byte-identical graph");
        assert_eq!(uniform.script, sharded.script, "identical script");
        let other = World::generate(WorkloadId::ServeUniform, 12, Scale::Smoke);
        assert_eq!(
            uniform.graph, other.graph,
            "the seed leaves the graph alone"
        );
        assert_ne!(uniform.script, other.script, "and decides the script");
    }

    #[test]
    fn workload_names_round_trip() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::parse("serve"), None);
    }
}
