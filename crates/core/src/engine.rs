//! The OCTOPUS engine facade: the keyword-based interface of Figure 2.
//!
//! [`Octopus`] owns the graph, the topic model, and every offline index
//! (bound tables, per-topic seed tables, topic samples, the influencer
//! index, the autocomplete trie), and exposes the three analysis services
//! plus the UI helpers, all keyed by plain keywords and user names:
//!
//! * [`Octopus::find_influencers`] — Scenario 1;
//! * [`Octopus::suggest_keywords`] — Scenario 2 (+ radar charts);
//! * [`Octopus::explore_paths`] — Scenario 3;
//! * [`Octopus::autocomplete`] — name completion.

use crate::budget::{Anytime, QualityBound, QueryBudget};
use crate::cache::{CacheStats, QueryCache};
use crate::error::CoreError;
use crate::kim::bounds::BoundKind;
use crate::kim::{topic_sample, KimAlgorithm, KimResult, KimStats, NaiveKim};
use crate::offline::persist::{self, Fingerprint, StageKeys};
use crate::offline::view::{self, MappedArtifacts};
use crate::offline::{self, ReuseSlots, StageReuse, StageTiming};
use crate::paths::{explore, ExploreDirection, PathExploration};
use crate::piks::{GreedyPiks, PiksConfig, PiksResult};
use crate::Result;
use octopus_graph::codec::GraphKeys;
use octopus_graph::delta::Applied;
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::radar::{keyword_radar, RadarChart};
use octopus_topics::{KeywordId, TopicDistribution, TopicModel};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which KIM engine answers influencer queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KimEngineChoice {
    /// Per-query OPIM from scratch (the baseline).
    Naive,
    /// Marginal influence sort.
    Mis,
    /// Best-effort with the given bound estimator.
    BestEffort(BoundKind),
    /// Topic samples over a best-effort core.
    TopicSample {
        /// Bound estimator of the inner best-effort engine.
        bound: BoundKind,
        /// Dirichlet samples beyond the `Z` corners.
        extra_samples: usize,
        /// L1 radius inside which a sample answers directly.
        direct_eps: f64,
    },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct OctopusConfig {
    /// KIM engine choice.
    pub kim: KimEngineChoice,
    /// MIA threshold for exact spread evaluation and path exploration.
    pub mia_theta: f64,
    /// Offline seed-set depth (max `k` MIS / topic samples can serve).
    pub k_max: usize,
    /// RR sets per pure-topic CELF run (MIS offline phase).
    pub mis_rr_per_topic: usize,
    /// Worlds in the PIKS influencer index.
    pub piks_index_size: usize,
    /// Safety factor of the PB bound.
    pub pb_safety: f64,
    /// Exploration depth of the LG bound.
    pub lg_depth: u32,
    /// Safety factor of the LG bound.
    pub lg_safety: f64,
    /// Keyword-suggestion configuration.
    pub piks: PiksConfig,
    /// How many top paths an exploration reports.
    pub top_paths: usize,
    /// Online query-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// L1 tolerance within which a cached query answers a new one.
    pub cache_tolerance: f64,
    /// Master RNG seed for all offline sampling.
    pub seed: u64,
}

impl Default for OctopusConfig {
    fn default() -> Self {
        OctopusConfig {
            kim: KimEngineChoice::BestEffort(BoundKind::Precomputation),
            mia_theta: 1.0 / 320.0,
            k_max: 50,
            mis_rr_per_topic: 4000,
            piks_index_size: 2048,
            pb_safety: 1.2,
            lg_depth: 2,
            lg_safety: 1.1,
            piks: PiksConfig::default(),
            top_paths: 10,
            cache_capacity: 128,
            cache_tolerance: 1e-9,
            seed: 0x0C70_9005,
        }
    }
}

/// One ranked seed in a KIM answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedInfo {
    /// The user.
    pub node: NodeId,
    /// Display name (numeric fallback for anonymous graphs).
    pub name: String,
    /// Selection rank (0 = first seed).
    pub rank: usize,
}

/// Answer to a keyword influencer query.
#[derive(Debug, Clone)]
pub struct KimAnswer {
    /// Resolved query keywords.
    pub keywords: Vec<KeywordId>,
    /// Query words that did not resolve.
    pub unknown: Vec<String>,
    /// The induced topic distribution.
    pub gamma: TopicDistribution,
    /// Ranked seeds.
    pub seeds: Vec<SeedInfo>,
    /// Engine result (spread + work stats).
    pub result: KimResult,
    /// Online latency of the query.
    pub elapsed: Duration,
}

/// Answer to a keyword-suggestion query.
#[derive(Debug, Clone)]
pub struct SuggestAnswer {
    /// The target user.
    pub user: NodeId,
    /// Display name.
    pub user_name: String,
    /// Suggested keywords as strings.
    pub words: Vec<String>,
    /// Engine result (ids, gamma, spread, stats).
    pub result: PiksResult,
    /// Radar chart of the suggested set.
    pub radar: RadarChart,
    /// Online latency of the query.
    pub elapsed: Duration,
}

/// Operational summary of an engine instance (sizes of every offline
/// structure) — what a deployment dashboard would scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Users in the graph.
    pub users: usize,
    /// Directed influence edges.
    pub edges: usize,
    /// Topics.
    pub topics: usize,
    /// Keywords in the vocabulary.
    pub keywords: usize,
    /// Worlds in the PIKS influencer index.
    pub piks_worlds: usize,
    /// Nodes stored across PIKS worlds.
    pub piks_stored_nodes: usize,
    /// Whether per-topic PB bound tables are resident.
    pub pb_tables: bool,
    /// Precomputed topic samples (0 unless the topic-sample engine is on).
    pub topic_samples: usize,
    /// Entries currently in the query cache.
    pub cached_queries: usize,
    /// Global MIA spread cap (the NB/LG bound constant).
    pub spread_cap: f64,
    /// Per-stage wall-clock timings of the offline phase. A fresh build
    /// reports [`offline::STAGE_ORDER`] (plus
    /// [`persist::STAGE_ARTIFACT_STORE`] when a cache was written); an
    /// engine fully restored by [`Octopus::open_or_build`] or
    /// [`Octopus::open_mapped`] reports the three artifact stages —
    /// [`persist::STAGE_ARTIFACT_MAP`], [`persist::STAGE_ARTIFACT_VALIDATE`],
    /// [`persist::STAGE_ARTIFACT_DECODE`] — and zero build stages; a
    /// *partial* rebuild reports exactly the stages that ran (after
    /// [`persist::STAGE_LIVE_SCREEN`] when a flush rebuilt it).
    pub stage_timings: Vec<StageTiming>,
    /// Per-stage cache hit/miss counters of the offline phase, always one
    /// entry per [`offline::STAGE_ORDER`] stage. [`Octopus::new`] reports
    /// all-miss; [`Octopus::open_or_build`] reports how many work units of
    /// each stage were reloaded — `piks-worlds` is world-granular and
    /// `spread-cap`/`pb-bound`/`mis-tables` are topic-granular, so a
    /// k-edge delta shows `reused < total` with the untouched worlds still
    /// counted as hits, and a topic-z-confined nudge shows `Z-1/Z` on the
    /// weight stages with only topic z rebuilt.
    pub stage_reuse: Vec<StageReuse>,
    /// Wall-clock duration of the whole offline phase, from the
    /// constructor's start — hashing the input keys included — until the
    /// artifact serves. For
    /// [`Octopus::open_or_build`] this spans cache lookup (file reads,
    /// section checksums and parses, per-world screening) plus whatever
    /// rebuilding remained — full build, partial rebuild, or pure load —
    /// so partial-vs-full comparisons are honest. Stages overlap, so this
    /// can be less than the timing sum.
    pub offline_build_total: Duration,
    /// Whether the offline artifacts were loaded from the on-disk cache (or
    /// a flush's predecessor) instead of built (`false` for [`Octopus::new`]).
    pub cache_hit: bool,
}

/// The OCTOPUS engine.
///
/// `Octopus` is `Send + Sync`: all offline structures are immutable after
/// construction and the query cache is internally synchronized, so one
/// instance behind an `Arc` serves concurrent query threads.
///
/// Every engine serves one validated OCTA v8 artifact through the
/// zero-copy views of [`crate::offline::view`]: heap bytes it encoded (or
/// read from its cache directory), or a memory-mapped cache file
/// ([`Octopus::open_mapped`]). The backing is operational only — startup
/// cost, resident memory, page-cache sharing across replicas — and every
/// operator answers bit-identically on either (pinned by the `mapped_mode`
/// tests).
pub struct Octopus {
    graph: TopicGraph,
    /// Shared with every engine a flush rebuilds from this one.
    model: Arc<TopicModel>,
    config: OctopusConfig,
    /// The graph's keys (with their unfolded sums) and the unit keys
    /// derived from them: a flush re-keys from these in `O(Δ)`.
    graph_keys: GraphKeys,
    stage_keys: StageKeys,
    /// Everything the offline pipeline precomputed (see [`offline::build`]),
    /// as one validated artifact.
    art: MappedArtifacts,
    /// Offline-phase telemetry: per-stage timings, per-stage reuse, and the
    /// whole phase's wall-clock (see [`SystemReport`]).
    timings: Vec<StageTiming>,
    reuse: Vec<StageReuse>,
    build_total: Duration,
    /// Whether the offline structures came from the on-disk artifact cache.
    cache_hit: bool,
    /// Shared with every engine a flush rebuilds from this one.
    user_keywords: Arc<HashMap<NodeId, Vec<KeywordId>>>,
    cache: QueryCache,
}

// One engine instance must be shareable across query threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Octopus>();
};

impl Octopus {
    /// Build the engine: validates graph/model agreement, runs the staged
    /// offline pipeline ([`offline::build`]) for every phase the configured
    /// engines need, and serves the encoded result off the heap.
    pub fn new(graph: TopicGraph, model: TopicModel, config: OctopusConfig) -> Result<Self> {
        let t0 = Instant::now();
        let inputs = Inputs::new(graph, model, config)?;
        let offline = offline::build(&inputs.graph, &inputs.config);
        let art = inputs.serve(persist::encode(&offline, &inputs.fp, &inputs.keys, 0))?;
        Ok(Octopus {
            timings: offline.timings,
            reuse: offline.reuse,
            ..Self::assemble(inputs, art, false, t0)
        })
    }

    /// Build the engine, reusing every cached offline stage whose inputs
    /// are unchanged and rebuilding only the rest.
    ///
    /// Reuse is decided per work unit by [`StageKeys`]: each OCTA cache
    /// section is keyed on exactly the input slice its unit reads — for
    /// the weight-dependent stages (`spread-cap`/`pb-bound`/`mis-tables`)
    /// that is one topic's sparse weight slice per unit — so after a small
    /// graph delta (a weight nudge from a warm EM refit, an edge insert, a
    /// rename) the unchanged units — and, world-by-world, every PIKS world
    /// whose BFS footprint missed the delta — reload from `cache_dir`
    /// while the invalidated ones rebuild. A topic-z-confined nudge
    /// therefore recomputes exactly topic z's cap/PB/MIS units. The lookup degrades,
    /// never fails: missing, truncated, corrupted, stale-version (v1–v7), or
    /// foreign files only reduce how much is reused, after which the merged
    /// artifacts are written back atomically (write failures are ignored —
    /// a read-only cache directory costs the speedup, not the engine).
    ///
    /// [`SystemReport::stage_reuse`] reports the per-stage hit/miss
    /// breakdown. When **everything** was reused, [`SystemReport::cache_hit`]
    /// is `true` and [`SystemReport::stage_timings`] holds only the three
    /// artifact stages — map (plain file reads on this heap path), validate
    /// (framing + checksums), parse/screen: zero offline stages ran.
    ///
    /// The engine serves exactly the bytes it persisted, off the heap:
    /// reused units travel from the donor file as bytes, only rebuilt units
    /// are encoded, and the merged units are framed once, written back, and
    /// validated. A full hit served by the exact-fingerprint file alone
    /// serves the bytes the lookup already read and checksummed, framing
    /// nothing.
    /// Reused-or-rebuilt makes no observable difference — a partially
    /// rebuilt engine is bit-identical to a freshly built one (pinned by
    /// the `build_determinism` and `delta_invalidation` tests), so every
    /// query answers the same either way.
    ///
    /// # Example
    ///
    /// ```
    /// use octopus_core::engine::{Octopus, OctopusConfig};
    /// use octopus_graph::GraphBuilder;
    /// use octopus_topics::{TopicModel, Vocabulary};
    ///
    /// let mut b = GraphBuilder::new(1);
    /// let ada = b.add_node("ada");
    /// let grace = b.add_node("grace");
    /// b.add_edge(ada, grace, &[(0, 0.5)]).unwrap();
    /// let graph = b.build().unwrap();
    /// let mut vocab = Vocabulary::new();
    /// vocab.intern("compilers");
    /// let model = TopicModel::from_rows(vocab, vec![vec![1.0]], vec![1.0]).unwrap();
    /// let config = OctopusConfig {
    ///     piks_index_size: 16,
    ///     mis_rr_per_topic: 32,
    ///     k_max: 2,
    ///     ..Default::default()
    /// };
    ///
    /// let dir = std::env::temp_dir().join("octopus-doc-open-or-build");
    /// // First open builds the offline artifacts and persists them…
    /// let cold = Octopus::open_or_build(graph.clone(), model.clone(), config.clone(), &dir)?;
    /// // …so reopening with identical inputs reuses every stage.
    /// let warm = Octopus::open_or_build(graph, model, config, &dir)?;
    /// assert!(warm.cache_hit());
    /// assert!(warm.system_report().stage_reuse.iter().all(|s| s.is_full()));
    /// assert_eq!(
    ///     cold.find_influencers("compilers", 1)?.seeds,
    ///     warm.find_influencers("compilers", 1)?.seeds,
    /// );
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), octopus_core::CoreError>(())
    /// ```
    pub fn open_or_build(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        cache_dir: &Path,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let inputs = Inputs::new(graph, model, config)?;
        Self::open_cached(inputs, cache_dir, None, t0)
    }

    /// [`Octopus::open_or_build`] with the inputs' keys already computed,
    /// remapping the written file when `remap` says how (`Some(paranoid)`).
    fn open_cached(
        inputs: Inputs,
        cache_dir: &Path,
        remap: Option<bool>,
        t0: Instant,
    ) -> Result<Self> {
        let (fp, keys) = (&inputs.fp, &inputs.keys);
        let mut lookup = persist::lookup(cache_dir, fp, keys, &inputs.graph, &inputs.config);
        let alone = lookup.sources.as_slice() == [fp.cache_path(cache_dir)];
        let exact = lookup.exact.take().filter(|_| alone);
        let gathered = Gathered::Lookup(lookup.timings, exact);
        let cache = (cache_dir, persist::next_write_seq(cache_dir));
        Self::rebuild_tail(inputs, lookup.slots, gathered, Some(cache), remap, t0)
    }

    /// The engine a flush swaps in for this one, over `applied.graph` (this
    /// graph with a batch applied), and how long re-keying it took: this
    /// artifact is the only donor. A weight-only batch re-keys from the
    /// entries it moved ([`GraphKeys::patched`]) and keeps this engine's
    /// autocomplete key; any other batch walks the graph. When the batch
    /// kept every edge id, PIKS worlds are screened by the coin flips of
    /// the edges whose maximum moved (`applied.shifts`), otherwise by
    /// footprint hash. (An open screens a donor file by coin flips too,
    /// from the maxima its OCTA v8 PIKS section records, when that section
    /// recorded this graph's topology: [`persist::lookup`].) `cache` is the
    /// directory to write and the `write_seq` to stamp; only a `mapped`
    /// flush reads the directory, to map an exact file a replica already
    /// wrote.
    pub(crate) fn rebuild(
        &self,
        applied: Applied,
        cache: Option<(&Path, u64)>,
        mapped: bool,
    ) -> Result<(Self, Duration)> {
        let t0 = Instant::now();
        let (model, config) = (Arc::clone(&self.model), self.config.clone());
        let Applied {
            graph,
            shifts,
            moved,
        } = applied;
        let graph_keys = match &moved {
            Some(moved) => self.graph_keys.patched(&graph, moved),
            None => GraphKeys::of(&graph),
        };
        let same_names = moved.is_some().then_some(&self.stage_keys);
        let inputs = Inputs::keyed(graph, model, config, graph_keys, same_names)?;
        let keys_time = t0.elapsed();
        let mapped_dir = cache.map(|(dir, _)| dir).filter(|_| mapped);
        if let Some(art) = mapped_dir.and_then(|d| inputs.map(d, false)) {
            return Ok((Self::assemble(inputs, art, true, t0), keys_time));
        }
        let t_screen = Instant::now();
        let (keys, graph, config) = (&inputs.keys, &inputs.graph, &inputs.config);
        let slots = persist::load_live(&self.art, keys, graph, config, shifts.as_deref());
        let gathered = Gathered::Live(t_screen.elapsed());
        let remap = mapped.then_some(false);
        let engine = Self::rebuild_tail(inputs, slots, gathered, cache, remap, t0)?;
        Ok((engine, keys_time))
    }

    /// The one rebuild tail of the cache open and a flush: build what
    /// `slots` lack, encode once, write back (stamped with the given
    /// `write_seq`) and prune when `cache` names a directory, and serve off
    /// the heap — or, with `remap = Some(paranoid)`, off the mapping of the
    /// file just written, when it maps.
    fn rebuild_tail(
        inputs: Inputs,
        slots: ReuseSlots,
        gathered: Gathered,
        cache: Option<(&Path, u64)>,
        remap: Option<bool>,
        t0: Instant,
    ) -> Result<Self> {
        let cache_dir = cache.map(|(dir, _)| dir);
        let mut offline = offline::build_with_reuse(&inputs.graph, &inputs.config, slots);
        let full = offline.fully_reused();
        let built = std::mem::take(&mut offline.timings);
        let (mut timings, exact) = match gathered {
            Gathered::Lookup(load, exact) if full => (load.stages(), exact),
            Gathered::Lookup(..) => (built, None),
            Gathered::Live(duration) => {
                let stage = persist::STAGE_LIVE_SCREEN;
                let screen = vec![StageTiming { stage, duration }];
                ([screen, built].concat(), None)
            }
        };
        // a full hit the exact-fingerprint file served alone: serve the
        // bytes the lookup already read and checksummed
        let mut art = match exact.and_then(|raw| inputs.serve(raw).ok()) {
            Some(art) => art,
            None => {
                // a full hit from donor epochs (or a damaged exact file)
                // earns a merged write-back under the exact name too, so
                // the next identical open fast-paths
                let (fp, keys) = (&inputs.fp, &inputs.keys);
                let t_store = Instant::now();
                let bytes = match cache {
                    Some((dir, seq)) => {
                        let (bytes, saved) = persist::save_and_prune(&offline, fp, keys, dir, seq);
                        if saved.is_ok() && !full {
                            let stage = persist::STAGE_ARTIFACT_STORE;
                            let duration = t_store.elapsed();
                            timings.push(StageTiming { stage, duration });
                        }
                        bytes
                    }
                    None => persist::encode(&offline, fp, keys, 0),
                };
                inputs.serve(bytes)?
            }
        };
        let remapped = cache_dir.zip(remap).and_then(|(dir, p)| inputs.map(dir, p));
        if let Some(mapped) = remapped {
            timings.extend(mapped.timings().iter().cloned());
            art = mapped;
        }
        Ok(Octopus {
            timings,
            reuse: offline.reuse,
            ..Self::assemble(inputs, art, full, t0)
        })
    }

    /// Open the engine in **mapped mode**: serve queries zero-copy off a
    /// memory-mapped OCTA v8 artifact instead of decoding it onto the heap.
    ///
    /// Fast path: when `cache_dir` holds a complete artifact whose combined
    /// fingerprint and every per-stage key match these exact inputs, the
    /// file is mapped and validated in `O(pages touched)` — header, section
    /// table, and the small eager sections only (see
    /// [`crate::offline::view`]) — so startup cost no longer scales with
    /// the big PB/MIS/PIKS tables, and replicas mapping the same file share
    /// its page cache. [`SystemReport::cache_hit`] is `true`; the deferred
    /// section checksums verify lazily at first operator touch and fail
    /// closed ([`CoreError::Artifact`]) if the file was damaged.
    ///
    /// Miss path: [`Octopus::open_or_build`] — build (or partially reuse),
    /// encode once, write back — then map the freshly written file, so a
    /// cold start still ends mapped, paying the build once. If the file
    /// cannot be mapped (say, an unwritable cache directory), the engine
    /// keeps serving the same bytes off the heap. Answers are bit-identical
    /// on either backing (pinned by the `mapped_mode` tests).
    pub fn open_mapped(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        cache_dir: &std::path::Path,
    ) -> Result<Self> {
        Self::open_mapped_inner(graph, model, config, cache_dir, false)
    }

    /// [`Octopus::open_mapped`] with every section checksum verified up
    /// front: damage anywhere in the file fails the mapped open instead of
    /// the first query touching the damaged section.
    pub fn open_mapped_paranoid(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        cache_dir: &std::path::Path,
    ) -> Result<Self> {
        Self::open_mapped_inner(graph, model, config, cache_dir, true)
    }

    fn open_mapped_inner(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        cache_dir: &Path,
        paranoid: bool,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let inputs = Inputs::new(graph, model, config)?;
        if let Some(art) = inputs.map(cache_dir, paranoid) {
            return Ok(Self::assemble(inputs, art, true, t0));
        }
        // No exact mappable file: salvage and rebuild, write back, and map
        // the freshly written file.
        Self::open_cached(inputs, cache_dir, Some(paranoid), t0)
    }

    /// An engine serving `art`, reporting the artifact's own open
    /// telemetry (the constructors that built anything overwrite it) and
    /// the wall-clock since the constructor's clock `t0` started, before
    /// its keys were hashed.
    fn assemble(inputs: Inputs, art: MappedArtifacts, cache_hit: bool, t0: Instant) -> Self {
        let config = inputs.config;
        Octopus {
            cache: QueryCache::new(config.cache_capacity, config.cache_tolerance),
            graph: inputs.graph,
            model: inputs.model,
            config,
            graph_keys: inputs.graph_keys,
            stage_keys: inputs.keys,
            timings: art.timings().to_vec(),
            reuse: art.reuse().to_vec(),
            build_total: t0.elapsed(),
            art,
            cache_hit,
            user_keywords: Arc::default(),
        }
    }

    /// Whether this engine's offline artifacts came from the on-disk cache
    /// (only ever `true` for [`Octopus::open_or_build`] and
    /// [`Octopus::open_mapped`]).
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Whether this engine serves off a memory-mapped cache file (see
    /// [`Octopus::open_mapped`]) rather than heap bytes.
    pub fn is_mapped(&self) -> bool {
        self.art.is_mapped()
    }

    /// The validated artifact this engine serves from, whichever backing
    /// holds its bytes.
    pub fn artifacts(&self) -> &MappedArtifacts {
        &self.art
    }

    /// Per-stage wall-clock timings of the offline phase (what
    /// [`SystemReport::stage_timings`] reports).
    pub fn stage_timings(&self) -> &[StageTiming] {
        &self.timings
    }

    /// Per-stage cache reuse counters of the offline phase (what
    /// [`SystemReport::stage_reuse`] reports).
    pub fn stage_reuse(&self) -> &[StageReuse] {
        &self.reuse
    }

    /// Attach per-user keyword candidates (from the action log: "keywords
    /// extracted from paper titles of the researcher"). Without this, the
    /// suggestion service falls back to model-derived candidates.
    pub fn with_user_keywords(mut self, map: HashMap<NodeId, Vec<KeywordId>>) -> Self {
        self.user_keywords = Arc::new(map);
        self
    }

    /// This engine with `from`'s keyword candidates, shared rather than
    /// copied: how a flush carries them onto the next epoch.
    pub(crate) fn sharing_user_keywords(mut self, from: &Octopus) -> Self {
        self.user_keywords = Arc::clone(&from.user_keywords);
        self
    }

    /// The per-user keyword candidates attached via
    /// [`Octopus::with_user_keywords`] (empty if none were).
    pub fn user_keywords(&self) -> &HashMap<NodeId, Vec<KeywordId>> {
        &self.user_keywords
    }

    /// The keys of this engine's graph, with the unfolded sums a flush
    /// re-keys from: equal to [`GraphKeys::of`]`(self.graph())` however
    /// many weight-only flushes patched them.
    pub fn graph_keys(&self) -> &GraphKeys {
        &self.graph_keys
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TopicGraph {
        &self.graph
    }

    /// The topic model.
    pub fn model(&self) -> &TopicModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &OctopusConfig {
        &self.config
    }

    /// Online query-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Operational summary of the resident offline structures.
    pub fn system_report(&self) -> SystemReport {
        // sizes were captured at validation; PB presence is a config
        // property (validation checked the section agrees with it), so
        // reporting never forces a lazy checksum
        SystemReport {
            users: self.graph.node_count(),
            edges: self.graph.edge_count(),
            topics: self.graph.num_topics(),
            keywords: self.model.vocab_size(),
            piks_worlds: self.art.piks_len(),
            piks_stored_nodes: self.art.piks_stored_nodes(),
            pb_tables: offline::needs_pb(&self.config),
            topic_samples: self.art.samples().len(),
            cached_queries: self.cache.len(),
            spread_cap: self.art.cap(),
            stage_timings: self.timings.clone(),
            stage_reuse: self.reuse.clone(),
            offline_build_total: self.build_total,
            cache_hit: self.cache_hit,
        }
    }

    /// Influence-vs-budget curve: the engine's spread estimate for every
    /// prefix of the `k_max`-seed greedy solution. Marketing teams use this
    /// to pick the campaign budget where marginal reach flattens.
    ///
    /// One engine call computes the deepest seed set; prefix spreads are
    /// reconstructed from the greedy marginal structure, so the curve is
    /// consistent with [`Octopus::find_influencers_gamma`] at every `k`.
    pub fn influence_curve(
        &self,
        gamma: &TopicDistribution,
        k_max: usize,
    ) -> Result<Vec<(usize, f64)>> {
        let res = self.find_influencers_gamma(gamma, k_max)?;
        let spreads = self.prefix_spreads(gamma, &res.seeds)?;
        Ok(spreads
            .into_iter()
            .enumerate()
            .map(|(i, spread)| (i + 1, spread))
            .collect())
    }

    /// The exact MIA spread of every prefix of `seeds` under `γ`
    /// (`out[i]` = spread of the first `i + 1` seeds). Costs one edge
    /// materialization plus `seeds.len()` set evaluations, so only the
    /// callers that rank by it run it: [`Octopus::influence_curve`] and the
    /// shard merge.
    fn prefix_spreads(&self, gamma: &TopicDistribution, seeds: &[NodeId]) -> Result<Vec<f64>> {
        let probs = self.graph.materialize(gamma.as_slice())?;
        Ok((1..=seeds.len())
            .map(|k| {
                octopus_mia::mia_spread_set(&self.graph, &probs, &seeds[..k], self.config.mia_theta)
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // The five operators. Each has one body, taking a `QueryBudget`; the
    // exact answer is what that body returns when the budget does not
    // bind, and the reported `QualityBound` is exact iff nothing was
    // truncated. At a fixed *sample* budget every body is a deterministic
    // function of the snapshot (per-set RR streams, pinned candidate/axis
    // orders); deadlines are checked only at deterministic chunk
    // boundaries. The budget-less public methods below are the exact
    // kernels themselves or one-line unlimited conveniences.
    // ------------------------------------------------------------------

    /// Keyword-based influence maximization for an already-resolved `γ`
    /// under `budget` — the one selection every influencer query bottoms
    /// out in. An unlimited budget runs the configured KIM engine behind
    /// the query cache and is exact. A finite budget runs the budgeted OPIM
    /// sampler — the one estimator with a certificate — whatever engine is
    /// configured; its Chernoff bounds become the [`QualityBound`], and it
    /// bypasses the query cache in both directions: degraded answers must
    /// not poison exact ones, and a cached exact answer would make the
    /// degraded path nondeterministic in the budget.
    ///
    /// The third element is the estimator's per-seed marginal gains, which
    /// OPIM produces for free; it is empty on the exact arm.
    fn select(
        &self,
        gamma: &TopicDistribution,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<(KimResult, QualityBound, Vec<f64>)> {
        if k == 0 {
            return Err(CoreError::ZeroK);
        }
        self.graph.check_gamma(gamma.as_slice())?;
        if !budget.is_unlimited() {
            let start = Instant::now();
            let probs = self.graph.materialize(gamma.as_slice())?;
            let opts = octopus_cascade::OpimOptions {
                k,
                ..octopus_cascade::OpimOptions::default()
            };
            let ob = octopus_cascade::OpimBudget {
                max_rr_sets: budget.samples,
                deadline: budget.deadline_from(start),
            };
            let res = octopus_cascade::opim_select_budgeted(&self.graph, &probs, &opts, &ob);
            let bound = QualityBound::degraded(
                res.spread_lower,
                res.opt_upper.min(self.graph.node_count() as f64),
                res.rr_sets,
            );
            let result = KimResult {
                seeds: res.seeds,
                spread: res.spread,
                stats: KimStats {
                    exact_evaluations: res.rr_sets,
                    ..KimStats::default()
                },
            };
            return Ok((result, bound, res.gains));
        }
        if let Some(mut hit) = self.cache.get(gamma, k) {
            hit.stats.answered_from_cache = true;
            let bound = QualityBound::exact(hit.spread);
            return Ok((hit, bound, Vec::new()));
        }
        let res = match self.config.kim {
            KimEngineChoice::Naive => NaiveKim::new(&self.graph).select(gamma, k),
            KimEngineChoice::Mis => self
                .art
                .mis_view()?
                .expect("MIS tables present for the MIS engine")
                .select(gamma, k),
            KimEngineChoice::BestEffort(bound) => self.best_effort(bound, gamma, k, &[])?,
            KimEngineChoice::TopicSample {
                bound, direct_eps, ..
            } => {
                // nearest-sample lookup against the stored samples (borrowed
                // — the samples are immutable offline artifacts, so the
                // query path never clones them); direct-answer rule shared
                // with the TopicSampleKim engine via the topic_sample helpers
                let samples = self.art.samples();
                let nearest = topic_sample::nearest_sample(samples, gamma);
                let direct = nearest.and_then(|(idx, dist)| {
                    topic_sample::direct_answer(samples, idx, dist, direct_eps, k)
                });
                match direct {
                    Some(res) => res,
                    None => {
                        // warm-start from the nearest sample's seeds, if any
                        let warm: Vec<NodeId> = nearest.map_or_else(Vec::new, |(idx, _)| {
                            samples[idx].seeds.iter().copied().take(k.max(1)).collect()
                        });
                        self.best_effort(bound, gamma, k, &warm)?
                    }
                }
            }
        };
        self.cache.put(gamma.clone(), k, res.clone());
        let bound = QualityBound::exact(res.spread);
        Ok((res, bound, Vec::new()))
    }

    /// One best-effort selection against the artifact's PB tables (whose
    /// checksum a mapping verifies on first touch, failing closed),
    /// warm-started from `warm`.
    fn best_effort(
        &self,
        bound: BoundKind,
        gamma: &TopicDistribution,
        k: usize,
        warm: &[NodeId],
    ) -> Result<KimResult> {
        Ok(offline::run_best_effort(
            &self.graph,
            bound,
            self.art.pb_view()?,
            self.art.cap(),
            &self.config,
            gamma,
            k,
            warm,
        ))
    }

    /// [`Octopus::select`] plus the selection's prefix-spread curve
    /// (`curve[i]` = spread of the first `i + 1` seeds) — what the shard
    /// merge ranks by. Exact: the MIA prefix spreads; finite budget: the
    /// running left-to-right sum of the estimator's own gains.
    pub(crate) fn select_with_curve(
        &self,
        gamma: &TopicDistribution,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<(KimResult, QualityBound, Vec<f64>)> {
        let (result, bound, gains) = self.select(gamma, k, budget)?;
        let curve = if bound.exact {
            self.prefix_spreads(gamma, &result.seeds)?
        } else {
            gains
                .iter()
                .scan(0.0, |sum, gain| {
                    *sum += gain;
                    Some(*sum)
                })
                .collect()
        };
        Ok((result, bound, curve))
    }

    /// Keyword-based influence maximization with an already-resolved `γ`.
    pub fn find_influencers_gamma(&self, gamma: &TopicDistribution, k: usize) -> Result<KimResult> {
        Ok(self.select(gamma, k, &QueryBudget::unlimited())?.0)
    }

    /// Scenario 1 under `budget`: resolve the keywords, select, name the
    /// seeds.
    pub(crate) fn influencers(
        &self,
        query: &str,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<Anytime<KimAnswer>> {
        let (keywords, unknown, gamma) = resolve_gamma(&self.model, Some(query))?;
        let start = Instant::now();
        let (result, bound, _) = self.select(&gamma, k, budget)?;
        let elapsed = start.elapsed();
        let seeds = result
            .seeds
            .iter()
            .enumerate()
            .map(|(rank, &node)| SeedInfo {
                node,
                name: self.display_name(node),
                rank,
            })
            .collect();
        Ok(Anytime {
            value: KimAnswer {
                keywords,
                unknown,
                gamma,
                seeds,
                result,
                elapsed,
            },
            bound,
        })
    }

    /// Scenario 1: keyword-based influential user discovery.
    pub fn find_influencers(&self, query: &str, k: usize) -> Result<KimAnswer> {
        Ok(self.influencers(query, k, &QueryBudget::unlimited())?.value)
    }

    /// The user's display name (numeric fallback for anonymous graphs).
    fn display_name(&self, node: NodeId) -> String {
        self.graph
            .name(node)
            .map_or_else(|| node.0.to_string(), str::to_string)
    }

    /// Resolve a user name: the trie's exact lookup first, then the graph's.
    pub(crate) fn resolve_user(&self, name: &str) -> Result<NodeId> {
        self.art
            .trie_view()
            .lookup(name)
            .or_else(|| self.graph.node_by_name(name))
            .ok_or_else(|| CoreError::UnknownUser(name.to_string()))
    }

    /// Keyword candidates for a user: log-provided if available, otherwise
    /// the top keywords of the user's strongest outgoing topics.
    pub fn keyword_candidates(&self, user: NodeId) -> Vec<KeywordId> {
        if let Some(ws) = self.user_keywords.get(&user) {
            if !ws.is_empty() {
                return ws.clone();
            }
        }
        // fallback: aggregate outgoing edge mass per topic
        let mut mass = vec![0.0f64; self.graph.num_topics()];
        for (_, e) in self.graph.out_edges(user) {
            for (z, p) in self.graph.edge_topic_probs(e) {
                mass[z.index()] += p as f64;
            }
        }
        let mut topics: Vec<(usize, f64)> = mass
            .into_iter()
            .enumerate()
            .filter(|&(_, m)| m > 0.0)
            .collect();
        topics.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite mass"));
        let mut out = Vec::new();
        for (z, _) in topics.into_iter().take(2) {
            for (w, _) in self.model.top_keywords(z, 8) {
                if !out.contains(&w) {
                    out.push(w);
                }
            }
        }
        out
    }

    /// Scenario 2 under `budget`, by node id.
    ///
    /// The sample budget caps how many keyword candidates the greedy
    /// scores, taken as a *prefix* of the pinned candidate order (so a
    /// fixed budget is deterministic); under a deadline the candidate
    /// prefix doubles per chunk, keeping the last completed answer. With
    /// no limit the cap is every candidate and the greedy runs once. The
    /// answer is exact iff the last pass scored every candidate; otherwise
    /// the bound's lower edge is the degraded answer's own spread (the
    /// exact greedy anchors at the best singleton of a candidate superset)
    /// and the upper edge is the engine's global MIA spread cap.
    pub(crate) fn suggestions(
        &self,
        user: NodeId,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<Anytime<SuggestAnswer>> {
        self.graph.check_node(user)?;
        let candidates = self.keyword_candidates(user);
        let start = Instant::now();
        let deadline = budget.deadline_from(start);
        let cap = candidates
            .len()
            .min(budget.samples.unwrap_or(usize::MAX).max(1));
        let index = self.art.piks_view()?;
        let engine = GreedyPiks::new(&self.graph, &self.model, index, self.config.piks.clone());
        // progressive refinement: no deadline → one run at the cap;
        // deadline → doubling candidate prefixes, best-so-far kept
        let mut m = if deadline.is_some() {
            cap.min(k.max(2))
        } else {
            cap
        };
        let mut result = engine.suggest(user, &candidates[..m], k)?;
        while m < cap && deadline.is_none_or(|d| Instant::now() < d) {
            m = (m * 2).min(cap);
            result = engine.suggest(user, &candidates[..m], k)?;
        }
        let elapsed = start.elapsed();
        let words = result
            .keywords
            .iter()
            .map(|&w| self.model.vocab().word(w).map(str::to_string))
            .collect::<octopus_topics::Result<Vec<_>>>()?;
        let radar = octopus_topics::radar::keyword_set_radar(&self.model, &result.keywords)?;
        let bound = if m == candidates.len() {
            QualityBound::exact(result.spread)
        } else {
            QualityBound::degraded(result.spread, self.art.cap(), m)
        };
        let value = SuggestAnswer {
            user,
            user_name: self.display_name(user),
            words,
            result,
            radar,
            elapsed,
        };
        Ok(Anytime { value, bound })
    }

    /// Scenario 2: personalized influential keyword suggestion by user name.
    pub fn suggest_keywords(&self, user: &str, k: usize) -> Result<SuggestAnswer> {
        self.suggest_keywords_for(self.resolve_user(user)?, k)
    }

    /// Scenario 2 by node id.
    pub fn suggest_keywords_for(&self, user: NodeId, k: usize) -> Result<SuggestAnswer> {
        Ok(self.suggestions(user, k, &QueryBudget::unlimited())?.value)
    }

    /// Scenario 3 under `budget`, by node id. `query` may narrow the
    /// analysis to a keyword topic; `None` explores under the topic prior.
    ///
    /// The sample budget raises the effective MIA threshold to
    /// `max(mia_theta, 1/samples)`, shrinking the tree the exploration
    /// walks; under a deadline the threshold descends geometrically from
    /// a coarse start, keeping the last completed tree. With no limit the
    /// one walk runs at `mia_theta`, and any walk that got there is exact.
    /// Otherwise the bound is the MIA truncation argument: a node missing
    /// from a `θ`-truncated tree contributes `< θ` influence each, so the
    /// exact influence lies in `[influence, influence + θ_eff·(n − reached)]`.
    pub(crate) fn paths(
        &self,
        node: NodeId,
        direction: ExploreDirection,
        query: Option<&str>,
        budget: &QueryBudget,
    ) -> Result<Anytime<PathExploration>> {
        let (_, _, gamma) = resolve_gamma(&self.model, query)?;
        let deadline = budget.deadline_from(Instant::now());
        let theta_exact = self.config.mia_theta;
        let theta_target = budget
            .samples
            .map_or(theta_exact, |s| (1.0 / s.max(1) as f64).max(theta_exact));
        let run = |theta: f64| {
            explore(
                &self.graph,
                node,
                &gamma,
                theta,
                direction,
                self.config.top_paths,
            )
        };
        let mut theta = if deadline.is_some() {
            theta_target.max(1.0 / 64.0)
        } else {
            theta_target
        };
        let mut ex = run(theta)?;
        while theta > theta_target && deadline.is_none_or(|d| Instant::now() < d) {
            theta = (theta / 8.0).max(theta_target);
            ex = run(theta)?;
        }
        if theta <= theta_exact {
            let influence = ex.influence;
            return Ok(Anytime::exact(ex, influence));
        }
        let n = self.graph.node_count() as f64;
        let slack = theta * (n - ex.reached as f64).max(0.0);
        let bound = QualityBound::degraded(ex.influence, (ex.influence + slack).min(n), ex.reached);
        Ok(Anytime { value: ex, bound })
    }

    /// Scenario 3: influential path exploration by user name.
    pub fn explore_paths(
        &self,
        user: &str,
        direction: ExploreDirection,
        query: Option<&str>,
    ) -> Result<PathExploration> {
        let node = self.resolve_user(user)?;
        Ok(self
            .paths(node, direction, query, &QueryBudget::unlimited())?
            .value)
    }

    /// Name auto-completion off the artifact's trie. Trie walks are
    /// sublinear, so no budget ever degrades them.
    pub fn autocomplete(&self, prefix: &str, limit: usize) -> Vec<(NodeId, String, f64)> {
        self.art.trie_view().complete(prefix, limit)
    }

    /// Radar chart for one keyword (UI keyword interpretation).
    pub fn keyword_radar(&self, word: &str) -> Result<RadarChart> {
        let w = self.model.vocab().require(word)?;
        Ok(keyword_radar(&self.model, w)?)
    }

    /// Keyword radar under `budget`. The sample budget keeps the top-`b`
    /// axes by mass (ties to the lower axis index) and zeroes the rest
    /// without renormalizing; kept mass bounds the chart's total mass
    /// from below, kept mass plus `(axes − b)` copies of the smallest kept
    /// value from above. Deadlines never bind (the chart is one
    /// vocabulary row). Exact whenever `b ≥ axes`.
    pub(crate) fn radar(&self, word: &str, budget: &QueryBudget) -> Result<Anytime<RadarChart>> {
        let chart = self.keyword_radar(word)?;
        let total: f64 = chart.values.iter().sum();
        let b = budget.samples.unwrap_or(usize::MAX).max(1);
        if b >= chart.values.len() {
            return Ok(Anytime::exact(chart, total));
        }
        // top-b axes by value, ties to the lower axis index
        let mut order: Vec<usize> = (0..chart.values.len()).collect();
        order.sort_by(|&i, &j| {
            chart.values[j]
                .partial_cmp(&chart.values[i])
                .expect("finite mass")
                .then(i.cmp(&j))
        });
        let keep: Vec<usize> = order.into_iter().take(b).collect();
        let mut values = vec![0.0; chart.values.len()];
        let mut kept_mass = 0.0;
        let mut smallest_kept = f64::INFINITY;
        for &i in &keep {
            values[i] = chart.values[i];
            kept_mass += chart.values[i];
            smallest_kept = smallest_kept.min(chart.values[i]);
        }
        let dropped = chart.values.len() - keep.len();
        let upper = (kept_mass + dropped as f64 * smallest_kept).min(total);
        let bound = QualityBound::degraded(kept_mass, upper, keep.len());
        Ok(Anytime {
            value: RadarChart { values, ..chart },
            bound,
        })
    }

    /// Keywords topically related to `word` — the UI's "did you also mean"
    /// suggestions. Returns `(keyword string, relatedness score)` pairs.
    pub fn related_keywords(&self, word: &str, k: usize) -> Result<Vec<(String, f64)>> {
        let w = self.model.vocab().require(word)?;
        let related = octopus_topics::related::related_keywords(&self.model, w, k)?;
        related
            .into_iter()
            .map(|r| Ok((self.model.vocab().word(r.keyword)?.to_string(), r.score)))
            .collect()
    }
}

/// Resolve a free-text keyword query to `(keywords, unknown words, γ)`;
/// `None` is the topic prior. Shared with the shard router, which
/// resolves once and scatters the `γ`.
pub(crate) fn resolve_gamma(
    model: &TopicModel,
    query: Option<&str>,
) -> Result<(Vec<KeywordId>, Vec<String>, TopicDistribution)> {
    let Some(query) = query else {
        let prior = (0..model.num_topics())
            .map(|z| model.topic_prior(z))
            .collect();
        let gamma = TopicDistribution::from_weights(prior).map_err(CoreError::Topic)?;
        return Ok((Vec::new(), Vec::new(), gamma));
    };
    let (keywords, unknown) = model.vocab().resolve_query(query);
    if keywords.is_empty() {
        return Err(CoreError::NoKnownKeywords { unknown });
    }
    let gamma = model.infer(&keywords)?;
    Ok((keywords, unknown, gamma))
}

/// An engine's inputs, checked, with the cache keys every constructor needs,
/// derived from one walk over the graph (or a flush's update of its
/// predecessor's keys).
struct Inputs {
    graph: TopicGraph,
    model: Arc<TopicModel>,
    config: OctopusConfig,
    graph_keys: GraphKeys,
    fp: Fingerprint,
    keys: StageKeys,
}

impl Inputs {
    fn new(graph: TopicGraph, model: TopicModel, config: OctopusConfig) -> Result<Self> {
        let graph_keys = GraphKeys::of(&graph);
        Self::keyed(graph, Arc::new(model), config, graph_keys, None)
    }

    /// The inputs over `graph` whose keys are `graph_keys`. `same_names`
    /// holds the unit keys of a graph with this one's topology and names,
    /// whose autocomplete key therefore carries over.
    fn keyed(
        graph: TopicGraph,
        model: Arc<TopicModel>,
        config: OctopusConfig,
        graph_keys: GraphKeys,
        same_names: Option<&StageKeys>,
    ) -> Result<Self> {
        check_shapes(&graph, &model)?;
        check_config(&config)?;
        let names = same_names.map(|keys| keys.names);
        Ok(Inputs {
            fp: Fingerprint::from_keys(&graph_keys, &config),
            keys: StageKeys::from_keys(&graph, &graph_keys, &config, names),
            graph_keys,
            graph,
            model,
            config,
        })
    }

    /// Validate bytes this process encoded or read ([`view::from_bytes`]);
    /// a failure is a codec defect, surfaced as [`CoreError::Artifact`].
    fn serve(&self, bytes: Vec<u8>) -> Result<MappedArtifacts> {
        view::from_bytes(bytes, &self.fp, &self.keys, &self.graph, &self.config)
            .map_err(|e| CoreError::Artifact(format!("encoded artifact failed validation: {e}")))
    }

    /// Map these inputs' exact cache file under `dir`, if it validates.
    fn map(&self, dir: &Path, paranoid: bool) -> Option<MappedArtifacts> {
        let (fp, keys, graph, config) = (&self.fp, &self.keys, &self.graph, &self.config);
        view::open(&fp.cache_path(dir), fp, keys, graph, config, paranoid).ok()
    }
}

/// Where a rebuild's reuse came from: a [`persist::lookup`] (whose full hit
/// may serve the exact file's bytes), or the live epoch's screen (timed).
enum Gathered {
    Lookup(persist::LoadTimings, Option<Vec<u8>>),
    Live(Duration),
}

/// Graph/model agreement check shared by every construction path.
fn check_shapes(graph: &TopicGraph, model: &TopicModel) -> Result<()> {
    if graph.num_topics() != model.num_topics() {
        return Err(CoreError::Topic(
            octopus_topics::TopicError::ShapeMismatch {
                what: "graph vs model topic count",
                expected: graph.num_topics(),
                got: model.num_topics(),
            },
        ));
    }
    Ok(())
}

/// Config domain check shared by every construction path: a bad value is
/// an error here rather than a panic inside an offline stage.
fn check_config(config: &OctopusConfig) -> Result<()> {
    let theta = config.mia_theta;
    if !(theta > 0.0 && theta <= 1.0) {
        return Err(CoreError::Config(format!(
            "mia_theta must be in (0, 1], got {theta}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_graph::GraphBuilder;
    use octopus_topics::Vocabulary;

    /// Small two-topic network with named users and a themed vocabulary.
    fn build_engine(kim: KimEngineChoice) -> Octopus {
        let (g, model, config) = fixture(kim);
        Octopus::new(g, model, config).unwrap()
    }

    fn fixture(kim: KimEngineChoice) -> (TopicGraph, TopicModel, OctopusConfig) {
        let mut b = GraphBuilder::new(2);
        let han = b.add_node("jiawei han"); // db hub
        let jordan = b.add_node("michael jordan"); // ml hub
        for i in 0..5 {
            let v = b.add_node(format!("db-follower-{i}"));
            b.add_edge(han, v, &[(0, 0.7)]).unwrap();
        }
        for i in 0..4 {
            let v = b.add_node(format!("ml-follower-{i}"));
            b.add_edge(jordan, v, &[(1, 0.7)]).unwrap();
        }
        let g = b.build().unwrap();
        let mut vocab = Vocabulary::new();
        vocab.intern("data mining"); // w0 → t0
        vocab.intern("frequent patterns"); // w1 → t0
        vocab.intern("em algorithm"); // w2 → t1
        vocab.intern("graphical models"); // w3 → t1
        let model = TopicModel::from_rows(
            vocab,
            vec![vec![0.5, 0.4, 0.05, 0.05], vec![0.05, 0.05, 0.5, 0.4]],
            vec![0.5, 0.5],
        )
        .unwrap()
        .with_labels(vec!["databases".into(), "machine learning".into()])
        .unwrap();
        let config = OctopusConfig {
            kim,
            piks_index_size: 1500,
            mis_rr_per_topic: 2000,
            k_max: 5,
            ..Default::default()
        };
        (g, model, config)
    }

    #[test]
    fn scenario1_keyword_discovery_all_engines() {
        for kim in [
            KimEngineChoice::Naive,
            KimEngineChoice::Mis,
            KimEngineChoice::BestEffort(BoundKind::Precomputation),
            KimEngineChoice::BestEffort(BoundKind::Neighborhood),
            KimEngineChoice::BestEffort(BoundKind::LocalGraph),
            KimEngineChoice::TopicSample {
                bound: BoundKind::Precomputation,
                extra_samples: 8,
                direct_eps: 0.05,
            },
        ] {
            let octo = build_engine(kim);
            let ans = octo.find_influencers("data mining", 1).unwrap();
            assert_eq!(ans.seeds[0].name, "jiawei han", "engine {kim:?}");
            let ans = octo.find_influencers("em algorithm", 1).unwrap();
            assert_eq!(ans.seeds[0].name, "michael jordan", "engine {kim:?}");
        }
    }

    #[test]
    fn unknown_keywords_error_with_detail() {
        let octo = build_engine(KimEngineChoice::Mis);
        let err = octo.find_influencers("quantum blockchain", 3).unwrap_err();
        match err {
            CoreError::NoKnownKeywords { unknown } => {
                assert_eq!(
                    unknown,
                    vec!["quantum".to_string(), "blockchain".to_string()]
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn scenario2_keyword_suggestion() {
        let octo = build_engine(KimEngineChoice::Mis);
        let ans = octo.suggest_keywords("jiawei han", 2).unwrap();
        assert!(
            ans.words
                .iter()
                .any(|w| w == "data mining" || w == "frequent patterns"),
            "db hub's selling points must be db keywords: {:?}",
            ans.words
        );
        assert_eq!(ans.result.gamma.dominant_topic(), 0);
        assert_eq!(ans.radar.axes, vec!["databases", "machine learning"]);
        assert!(ans.result.spread > 1.0);
    }

    #[test]
    fn scenario3_path_exploration() {
        let octo = build_engine(KimEngineChoice::Mis);
        let ex = octo
            .explore_paths(
                "jiawei han",
                ExploreDirection::Influences,
                Some("data mining"),
            )
            .unwrap();
        assert_eq!(ex.root_name, "jiawei han");
        assert_eq!(ex.reached, 6, "hub + 5 followers");
        assert!(ex.d3_json.contains("db-follower-0"));
        // reverse direction from a follower finds the hub
        let ex = octo
            .explore_paths(
                "db-follower-1",
                ExploreDirection::InfluencedBy,
                Some("data mining"),
            )
            .unwrap();
        assert!(ex
            .tree
            .contains(octo.graph().node_by_name("jiawei han").unwrap()));
    }

    #[test]
    fn autocomplete_ranks_by_degree() {
        let octo = build_engine(KimEngineChoice::Mis);
        let hits = octo.autocomplete("mi", 5);
        assert_eq!(hits[0].1, "michael jordan");
        let hits = octo.autocomplete("db-", 3);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn keyword_radar_exposes_topics() {
        let octo = build_engine(KimEngineChoice::Mis);
        let radar = octo.keyword_radar("em algorithm").unwrap();
        let ranked = radar.ranked_axes();
        assert_eq!(ranked[0].0, "machine learning");
        assert!(octo.keyword_radar("nonexistent").is_err());
    }

    #[test]
    fn user_keyword_override_is_used() {
        let mut map = HashMap::new();
        map.insert(NodeId(0), vec![KeywordId(1)]); // only "frequent patterns"
        let octo = build_engine(KimEngineChoice::Mis).with_user_keywords(map);
        let ans = octo.suggest_keywords("jiawei han", 1).unwrap();
        assert_eq!(ans.words, vec!["frequent patterns"]);
    }

    #[test]
    fn unknown_user_errors() {
        let octo = build_engine(KimEngineChoice::Mis);
        assert!(matches!(
            octo.suggest_keywords("nobody", 2),
            Err(CoreError::UnknownUser(_))
        ));
        assert!(octo
            .explore_paths("nobody", ExploreDirection::Influences, None)
            .is_err());
    }

    #[test]
    fn topic_count_mismatch_rejected() {
        let mut b = GraphBuilder::new(3);
        let _ = b.add_nodes(2);
        let g = b.build().unwrap();
        let mut vocab = Vocabulary::new();
        vocab.intern("x");
        let model = TopicModel::from_rows(vocab, vec![vec![1.0]], vec![1.0]).unwrap();
        assert!(Octopus::new(g, model, OctopusConfig::default()).is_err());
    }

    #[test]
    fn theta_outside_unit_interval_is_a_config_error() {
        let (g, model, config) = fixture(KimEngineChoice::BestEffort(BoundKind::Precomputation));
        let dir = std::env::temp_dir().join("octopus_engine_bad_theta");
        for theta in [0.0, -1.0, 1.5, f64::NAN] {
            let config = OctopusConfig {
                mia_theta: theta,
                ..config.clone()
            };
            let built = [
                Octopus::new(g.clone(), model.clone(), config.clone()).map(drop),
                Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).map(drop),
                Octopus::open_mapped(g.clone(), model.clone(), config.clone(), &dir).map(drop),
                crate::serve::ShardedService::new(g.clone(), model.clone(), config, 2).map(drop),
            ];
            for result in built {
                assert!(
                    matches!(result, Err(CoreError::Config(_))),
                    "theta {theta}: {result:?}"
                );
            }
        }
        assert!(!dir.exists(), "a rejected config writes no cache");
    }

    #[test]
    fn system_report_reflects_configuration() {
        let octo = build_engine(KimEngineChoice::BestEffort(BoundKind::Precomputation));
        let r = octo.system_report();
        assert_eq!(r.users, 11);
        assert_eq!(r.topics, 2);
        assert_eq!(r.keywords, 4);
        assert!(r.pb_tables, "PB engine must build its tables");
        assert_eq!(r.topic_samples, 0);
        assert!(r.piks_worlds > 0);
        assert!(r.spread_cap >= 1.0);
        assert!(!r.cache_hit, "Octopus::new never reads the artifact cache");
        let stages: Vec<&str> = r.stage_timings.iter().map(|t| t.stage).collect();
        assert_eq!(stages, crate::offline::STAGE_ORDER.to_vec());
        assert!(r.offline_build_total > Duration::ZERO);
        let _ = octo.find_influencers("data mining", 2).unwrap();
        assert!(octo.system_report().cached_queries > 0);
    }

    #[test]
    fn influence_curve_is_monotone_and_consistent() {
        let octo = build_engine(KimEngineChoice::BestEffort(BoundKind::Neighborhood));
        let gamma = octo.model().infer_str("data mining").unwrap();
        let curve = octo.influence_curve(&gamma, 4).unwrap();
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "curve must be non-decreasing: {curve:?}"
            );
        }
        // the full-k point matches the engine's own answer
        let full = octo.find_influencers_gamma(&gamma, 4).unwrap();
        assert!((curve[3].1 - full.spread).abs() < 1e-9);
        assert!(octo.influence_curve(&gamma, 0).is_err());
    }

    #[test]
    fn related_keywords_stay_topical() {
        let octo = build_engine(KimEngineChoice::Mis);
        let rel = octo.related_keywords("data mining", 2).unwrap();
        assert_eq!(
            rel[0].0, "frequent patterns",
            "db keyword relates to db keyword"
        );
        assert!(octo.related_keywords("nonexistent", 2).is_err());
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let octo = build_engine(KimEngineChoice::BestEffort(BoundKind::Neighborhood));
        let a = octo.find_influencers("data mining", 2).unwrap();
        assert!(!a.result.stats.answered_from_cache);
        let b = octo.find_influencers("data mining", 2).unwrap();
        assert!(
            b.result.stats.answered_from_cache,
            "identical repeat must hit"
        );
        assert_eq!(
            a.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
            b.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
        );
        // different k is a different cache key
        let c = octo.find_influencers("data mining", 3).unwrap();
        assert!(!c.result.stats.answered_from_cache);
        let stats = octo.cache_stats();
        assert_eq!(stats.hits, 1);
        assert!(stats.misses >= 2);
    }

    #[test]
    fn open_or_build_misses_then_hits() {
        let (g, model, config) = fixture(KimEngineChoice::Mis);
        let dir = std::env::temp_dir().join(format!(
            "octopus_engine_cache_{:016x}",
            persist::Fingerprint::compute(&g, &config).config
        ));
        std::fs::remove_dir_all(&dir).ok();

        let first = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        assert!(!first.cache_hit(), "empty cache dir must miss");
        let stages: Vec<&str> = first
            .system_report()
            .stage_timings
            .iter()
            .map(|t| t.stage)
            .collect();
        assert!(
            stages.starts_with(&crate::offline::STAGE_ORDER),
            "miss runs the full pipeline: {stages:?}"
        );
        assert_eq!(
            stages.last().copied(),
            Some(persist::STAGE_ARTIFACT_STORE),
            "fresh build must be written back"
        );

        let second = Octopus::open_or_build(g, model, config, &dir).unwrap();
        let report = second.system_report();
        assert!(report.cache_hit, "identical inputs must hit");
        let stages: Vec<&str> = report.stage_timings.iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            vec![
                persist::STAGE_ARTIFACT_MAP,
                persist::STAGE_ARTIFACT_VALIDATE,
                persist::STAGE_ARTIFACT_DECODE,
            ],
            "a hit runs zero offline stages, only the artifact load phases"
        );
        // both engines answer identically
        let a = first.find_influencers("data mining", 3).unwrap();
        let b = second.find_influencers("data mining", 3).unwrap();
        assert_eq!(
            a.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
            b.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
        );
        assert_eq!(a.result.spread, b.result.spread);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_mapped_cold_builds_then_maps_and_warm_hits() {
        let (g, model, config) = fixture(KimEngineChoice::Mis);
        let dir = std::env::temp_dir().join("octopus_engine_mapped_mode");
        std::fs::remove_dir_all(&dir).ok();

        let cold = Octopus::open_mapped(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        assert!(cold.is_mapped(), "cold open must end mapped (build+remap)");
        assert!(!cold.cache_hit(), "nothing was cached yet");
        let stages: Vec<&str> = cold.stage_timings().iter().map(|t| t.stage).collect();
        assert!(
            stages.starts_with(&crate::offline::STAGE_ORDER),
            "cold mapped open runs the build first: {stages:?}"
        );
        assert_eq!(
            stages.last().copied(),
            Some(persist::STAGE_ARTIFACT_DECODE),
            "…then maps the written file: {stages:?}"
        );

        let warm = Octopus::open_mapped(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        assert!(warm.is_mapped() && warm.cache_hit());
        let stages: Vec<&str> = warm.stage_timings().iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            vec![
                persist::STAGE_ARTIFACT_MAP,
                persist::STAGE_ARTIFACT_VALIDATE,
                persist::STAGE_ARTIFACT_DECODE,
            ],
            "warm mapped open runs zero build stages"
        );
        assert!(warm.system_report().stage_reuse.iter().all(|s| s.is_full()));

        // mapped answers are bit-identical to the heap-backed engine's
        let heap = Octopus::open_or_build(g, model, config, &dir).unwrap();
        assert!(!heap.is_mapped());
        let a = heap.find_influencers("data mining", 3).unwrap();
        let b = warm.find_influencers("data mining", 3).unwrap();
        assert_eq!(
            a.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
            b.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
        );
        assert_eq!(a.result.spread.to_bits(), b.result.spread.to_bits());
        let sa = heap.suggest_keywords("jiawei han", 2).unwrap();
        let sb = warm.suggest_keywords("jiawei han", 2).unwrap();
        assert_eq!(sa.words, sb.words);
        assert_eq!(sa.result.spread.to_bits(), sb.result.spread.to_bits());
        assert_eq!(heap.autocomplete("db-", 3), warm.autocomplete("db-", 3));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_or_build_key_separates_configs() {
        let (g, model, config) = fixture(KimEngineChoice::Mis);
        let dir = std::env::temp_dir().join("octopus_engine_cache_separation");
        std::fs::remove_dir_all(&dir).ok();
        let _ = Octopus::open_or_build(g.clone(), model.clone(), config.clone(), &dir).unwrap();
        // different seed → different key → miss, not a false hit
        let reseeded = OctopusConfig {
            seed: config.seed ^ 0xBEEF,
            ..config
        };
        let other = Octopus::open_or_build(g, model, reseeded, &dir).unwrap();
        assert!(!other.cache_hit(), "a reseeded config must not hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diversity_of_mixed_query() {
        // "data mining em algorithm" spans both topics: the two hubs beat
        // any hub+follower combination (the Scenario 1 diversity claim)
        let octo = build_engine(KimEngineChoice::BestEffort(BoundKind::Neighborhood));
        let ans = octo
            .find_influencers("data mining em algorithm", 2)
            .unwrap();
        let mut names: Vec<&str> = ans.seeds.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        assert_eq!(names, vec!["jiawei han", "michael jordan"]);
    }
}
