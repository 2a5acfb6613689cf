//! Sharded serving: per-shard engines behind a scatter-gather router.
//!
//! [`super::OctopusService`] wraps one whole-graph engine, so every delta
//! pays a whole-graph rebuild and swap latency grows with the graph. A
//! [`ShardedService`] splits the `TopicGraph` into K locality-based
//! subgraphs ([`octopus_graph::subgraph::partition`] — whole weakly
//! connected components, so no influence path is ever cut), runs one
//! engine per shard (heap, cached, or mapped — the same three
//! persistence modes the unsharded service has, each shard keeping its
//! own OCTA cache subdirectory keyed by its subgraph's fingerprint), and
//! routes. The router serves one snapshot — every shard's
//! [`Epoch`] plus the global graph — out of the same serving core and
//! [`EpochCell`](super::EpochCell) the unsharded service uses, so a
//! flush swaps all its shards in one store:
//!
//! * **Queries** ([`QueryService::execute`], the router's one way in) fan
//!   out across shards and merge:
//!   - find-influencers runs the selection on every shard, then
//!     k-way-merges the per-shard seed sequences by marginal gain —
//!     recovered from each shard's prefix-spread curve — with the
//!     deterministic tie-break **(gain desc, original node id asc)**, the
//!     same lower-id-wins rule the single-engine CELF heap applies.
//!     Because the partition never splits a component and MIA influence
//!     cannot cross components, the merged ranking is the single-engine
//!     ranking (pinned by `tests/serve_shard.rs`); the merged spread is
//!     the sum of the per-shard prefix spreads actually taken.
//!   - suggest-keywords and explore-paths are single-owner queries: the
//!     one shard that knows the user answers, and node ids in the answer
//!     are lifted back to global coordinates ([`Subgraph::lift`],
//!     `Arborescence::remap`).
//!   - autocomplete union-merges the per-shard completions under the
//!     trie's own ordering (score desc, node id asc) and truncates.
//!   - keyword-radar depends only on the topic model, which every shard
//!     shares: the per-shard charts merge by elementwise max.
//! * **Deltas** route to only the shards whose node/edge footprint they
//!   touch: a flush applies the batch to the global graph in the one
//!   apply pass ([`delta::apply_all_visiting`]), which reports each
//!   delta's endpoints on the graph that delta applies to, rebuilds just
//!   the shards owning those endpoints — each from its live epoch,
//!   concurrently — and swaps them; untouched shards keep their epoch and
//!   pay nothing. A [`GraphDelta::InsertEdge`] whose endpoints
//!   live in different shards is rejected
//!   ([`CoreError::CrossShardDelta`]): the locality partition guarantees
//!   no edge crosses shards, and such an insert would merge two
//!   components. Failed batches follow the one retry contract both
//!   layers share — re-queued at the front, dropped after
//!   [`MAX_BATCH_RETRIES`](super::MAX_BATCH_RETRIES) consecutive
//!   failures, surfaced via [`ServiceStats::terminal_failures`]. No shard
//!   is swapped unless every touched shard rebuilt, and the touched
//!   shards swap together: a reader sees every shard of a flush or none,
//!   so the shards never serve graphs from different batches.

use super::admission::AdmissionConfig;
use super::service_core::{Generation, ServiceCore};
use super::{
    DeltaCounters, Epoch, Query, QueryResponse, QueryService, Served, ServiceStats, SwapReport,
};
use crate::budget::{Anytime, QualityBound, QueryBudget};
use crate::engine::{resolve_gamma, KimAnswer, Octopus, OctopusConfig, SeedInfo};
use crate::kim::{KimResult, KimStats};
use crate::paths::PathExploration;
use crate::{CoreError, Result};
use octopus_graph::delta::{self, Applied, GraphDelta};
use octopus_graph::subgraph::{induced, partition, Subgraph};
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::radar::RadarChart;
use octopus_topics::{KeywordId, TopicModel};
use rayon::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One shard's scatter result for the influencer merge: its local seed
/// selection, that selection's bound, and the prefix-spread curve that
/// recovers per-seed marginal gains (`curve[i]` = spread of the first
/// `i + 1` seeds).
type ShardSelection = (KimResult, QualityBound, Vec<f64>);

/// What a routed query runs on and a flush replaces in one store: every
/// shard's epoch plus the global graph they partition.
struct Routed {
    shards: Vec<Arc<Epoch>>,
    /// Deltas arrive in global coordinates and are routed (and
    /// footprint-checked) against this graph.
    global: TopicGraph,
}

impl Generation for Routed {
    fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|e| e.id).collect()
    }

    fn stamp(&self) -> u64 {
        self.shards.iter().map(|e| e.id).sum()
    }
}

/// One shard's swap out of a routed flush.
#[derive(Debug, Clone)]
pub struct ShardSwap {
    /// Index of the shard that swapped.
    pub shard: usize,
    /// What the swap did (per-shard epoch id, rebuild time, stage reuse).
    pub report: SwapReport,
}

/// The sharded serving layer — see the module docs.
pub struct ShardedService {
    core: ServiceCore<Routed>,
    /// `to_original[s]`: shard `s`'s members (sub id → original id,
    /// ascending). No delta adds or removes nodes, so the mapping survives
    /// every rebuild.
    to_original: Vec<Vec<NodeId>>,
    /// `owner[node.index()] = shard index` (global coordinates).
    owner: Vec<u32>,
    model: TopicModel,
    /// `Some(root)` gives shard `i` the cache directory `root/shard-NNN`
    /// — per-shard subdirectories, so each shard's prune budget and
    /// persisted epochs are its own and co-tenant eviction cannot happen
    /// by construction (the [`crate::offline::persist::prune`] keep-set
    /// guards the shared-directory case for callers that want it).
    cache_root: Option<PathBuf>,
    mapped: bool,
}

impl ShardedService {
    /// Partition `graph` into (at most) `k` shards and serve one
    /// freshly built engine per shard ([`Octopus::new`]); a routed delta
    /// rebuilds each touched shard from its live epoch.
    pub fn new(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        k: usize,
    ) -> Result<Self> {
        Self::with_options(graph, model, config, k, None, false, HashMap::new())
    }

    /// Like [`ShardedService::new`], but each shard opens from
    /// ([`Octopus::open_or_build`]) and persists every flushed epoch to its
    /// own OCTA artifact cache subdirectory under `dir`; the per-shard
    /// [`SwapReport::stage_reuse`]
    /// carries the topic-granular hit/miss counts.
    pub fn with_cache_dir(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        k: usize,
        dir: impl Into<PathBuf>,
    ) -> Result<Self> {
        Self::with_options(
            graph,
            model,
            config,
            k,
            Some(dir.into()),
            false,
            HashMap::new(),
        )
    }

    /// Like [`ShardedService::with_cache_dir`], but shards serve
    /// zero-copy off memory-mapped artifacts ([`Octopus::open_mapped`]).
    pub fn with_mapped_cache(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        k: usize,
        dir: impl Into<PathBuf>,
    ) -> Result<Self> {
        Self::with_options(
            graph,
            model,
            config,
            k,
            Some(dir.into()),
            true,
            HashMap::new(),
        )
    }

    /// The fully general constructor: cache mode and per-user keyword
    /// overrides (global node ids; projected per shard) chosen explicitly.
    /// `cache_root` is for persistence: a flush writes it, never scans it.
    pub fn with_options(
        graph: TopicGraph,
        model: TopicModel,
        config: OctopusConfig,
        k: usize,
        cache_root: Option<PathBuf>,
        mapped: bool,
        user_keywords: HashMap<NodeId, Vec<KeywordId>>,
    ) -> Result<Self> {
        let parts = partition(&graph, k)?;
        let open = |idx: usize, sub: &Subgraph| {
            let (g, model, config) = (sub.graph.clone(), model.clone(), config.clone());
            let engine = match &cache_root {
                Some(root) if mapped => {
                    Octopus::open_mapped(g, model, config, &shard_dir(root, idx))
                }
                Some(root) => Octopus::open_or_build(g, model, config, &shard_dir(root, idx)),
                None => Octopus::new(g, model, config),
            }?;
            // keyword overrides projected into shard coordinates; rebuilds
            // carry the projection forward
            let projected: HashMap<NodeId, Vec<KeywordId>> = user_keywords
                .iter()
                .filter_map(|(node, words)| sub.to_sub.get(node).map(|&l| (l, words.clone())))
                .collect();
            Ok(Arc::new(Epoch::first(engine.with_user_keywords(projected))))
        };
        // initial engines build concurrently, like rebuilds do
        let shards: Vec<Result<Arc<Epoch>>> = (0..parts.shards.len())
            .into_par_iter()
            .map(|i| open(i, &parts.shards[i]))
            .collect();
        let shards = shards.into_iter().collect::<Result<_>>()?;
        Ok(ShardedService {
            core: ServiceCore::new(Routed {
                shards,
                global: graph,
            }),
            to_original: parts.shards.into_iter().map(|s| s.to_original).collect(),
            owner: parts.owner,
            model,
            cache_root,
            mapped,
        })
    }

    /// Put an admission controller in front of the router: every
    /// operator (autocomplete excepted — a sublinear trie walk costs
    /// less than the queue it would wait in) passes admission before it
    /// scatters, and sheds with [`CoreError::Overloaded`] when its
    /// class's bounded queue is full. One controller guards the whole
    /// router — the scatter across shards happens inside one admitted
    /// slot, so a query is admitted or shed exactly once.
    pub fn with_admission(self, cfg: AdmissionConfig) -> Self {
        ShardedService {
            core: self.core.with_admission(cfg),
            ..self
        }
    }

    /// Number of shards (≤ the requested K: capped by the graph's
    /// component count).
    pub fn shard_count(&self) -> usize {
        self.to_original.len()
    }

    /// The shard owning global node `u`, if in range.
    pub fn owner_of(&self, u: NodeId) -> Option<usize> {
        self.owner.get(u.index()).map(|&s| s as usize)
    }

    /// Number of edges in the served global graph (the union of every
    /// shard) — delta generators size their edge picks with this.
    pub fn edge_count(&self) -> usize {
        self.core.load().global.edge_count()
    }

    /// Snapshot every shard's current epoch, all from one flush: a flush
    /// swaps its shards in one store, so a reader sees every shard of a
    /// flush or none. Queries run entirely on one such snapshot, so a
    /// swap mid-query is harmless.
    pub fn snapshots(&self) -> Vec<Arc<Epoch>> {
        self.core.load().shards.clone()
    }

    /// Queue a graph mutation (global coordinates) for the next flush.
    pub fn submit(&self, delta: GraphDelta) {
        self.core.submit(delta);
    }

    /// Queue several mutations at once (kept in order).
    pub fn submit_all(&self, deltas: impl IntoIterator<Item = GraphDelta>) {
        self.core.submit_all(deltas);
    }

    /// Aggregated service counters.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }

    /// Test-only fault injection: make the next `n` non-empty flushes fail
    /// in place of their rebuild (see
    /// [`OctopusService::fail_next_rebuilds`](super::OctopusService::fail_next_rebuilds)).
    #[doc(hidden)]
    pub fn fail_next_rebuilds(&self, n: u64) {
        self.core.fail_next_rebuilds(n);
    }

    // ------------------------------------------------------------------
    // delta routing
    // ------------------------------------------------------------------

    /// Drain the pending queue, route the batch to the shards its
    /// node/edge footprint touches, rebuild exactly those shards
    /// (concurrently) against the new global graph, and swap them.
    ///
    /// Returns one [`ShardSwap`] per touched shard (`Ok(vec![])` when
    /// nothing was pending or no delta touched a shard). Untouched shards
    /// keep their epoch — their engines, caches, and id mappings are not
    /// even looked at. The flush is all-or-nothing: every touched shard
    /// and the global graph swap in one store, so a reader sees all of a
    /// flush or none of it. On `Err` the batch is re-queued at the front
    /// and retried on later flushes, up to
    /// [`MAX_BATCH_RETRIES`](super::MAX_BATCH_RETRIES) consecutive
    /// failures — then it is dropped and counted in
    /// [`ServiceStats::terminal_failures`] (the same contract as the
    /// unsharded [`super::OctopusService::apply_pending`]).
    pub fn apply_pending(&self) -> Result<Vec<ShardSwap>> {
        self.core.flush(|base, batch| self.route(base, batch))
    }

    /// Apply `batch` to the global graph, computing the touched-shard set
    /// along the way, and rebuild those shards into the next router
    /// snapshot (no swap; pure function of its inputs).
    fn route(&self, base: &Routed, batch: &[GraphDelta]) -> Result<(Routed, Vec<ShardSwap>)> {
        let start = Instant::now();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        let mut cross_shard: Option<CoreError> = None;
        // the apply pass reports each delta's endpoints on the graph it
        // applies to, so ids shifted by earlier deltas route correctly
        let applied = delta::apply_all_visiting(&base.global, batch, |d, ends| {
            let shard = |u: &NodeId| self.owner[u.index()] as usize;
            touched.extend(ends.iter().map(shard));
            if let GraphDelta::InsertEdge { src, dst, .. } = d {
                let (s, t) = (shard(src), shard(dst));
                if s != t {
                    cross_shard.get_or_insert(CoreError::CrossShardDelta {
                        src: (*src, s),
                        dst: (*dst, t),
                    });
                }
            }
        });
        if let Some(e) = cross_shard {
            return Err(e);
        }
        let global = applied?.graph;
        let apply = start.elapsed();
        let touched: Vec<usize> = touched.into_iter().collect();
        // rebuild every touched shard from its live epoch, concurrently
        let rebuilt: Vec<Result<(Epoch, SwapReport)>> = touched
            .par_iter()
            .map(|&s| {
                let sub = induced(&global, &self.to_original[s])?;
                let dir = self.cache_root.as_ref().map(|root| shard_dir(root, s));
                let live = &base.shards[s];
                let applied = Applied::compared(live.engine.graph(), sub.graph);
                let (dir, mapped, deltas) = (dir.as_deref(), self.mapped, batch.len());
                live.successor(applied, apply, dir, mapped, deltas, start)
            })
            .collect();
        let mut shards = base.shards.clone();
        let mut swaps = Vec::with_capacity(touched.len());
        for (s, epoch) in touched.into_iter().zip(rebuilt) {
            let (epoch, report) = epoch?;
            shards[s] = Arc::new(epoch);
            swaps.push(ShardSwap { shard: s, report });
        }
        Ok((Routed { shards, global }, swaps))
    }

    /// Lift shard `s`'s local node id to global coordinates.
    fn lift(&self, s: usize, local: NodeId) -> NodeId {
        self.to_original[s][local.index()]
    }

    // ------------------------------------------------------------------
    // scatter-gather operators — one body each, reachable only through
    // `QueryService::execute`
    // ------------------------------------------------------------------

    /// Scenario 1, sharded: the budget is [`split`](QueryBudget::split)
    /// across the scattered shards (each gets an equal sample slice; the
    /// deadline and class are shared), every shard runs its own selection,
    /// and the per-shard greedy sequences merge into the global top-k by
    /// marginal gain — read off each shard's prefix-spread curve — under
    /// the **(gain desc, original node id asc)** tie-break (see the module
    /// docs for why this reproduces the single-engine ranking). The
    /// gather keeps the per-shard [`QualityBound`]s sound:
    ///
    /// * `lower` = **max** of the per-shard lowers — each shard's lower
    ///   bounds its own k-seed set, a feasible global choice the global
    ///   optimum dominates (components are disjoint), so the max is a
    ///   sound global lower;
    /// * `upper` = **sum** of the per-shard uppers, clamped to n — the
    ///   global optimum's per-shard slices are each bounded by that
    ///   shard's k-seed optimum;
    /// * `samples_used` sums;
    ///
    /// and the merged answer is exact iff every shard's was (an unlimited
    /// budget).
    fn influencers(
        &self,
        snaps: &[Arc<Epoch>],
        query: &str,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<Anytime<KimAnswer>> {
        if k == 0 {
            return Err(CoreError::ZeroK);
        }
        let (keywords, unknown, gamma) = resolve_gamma(&self.model, Some(query))?;
        let start = Instant::now();
        let shard_budget = budget.split(snaps.len());
        let per_shard: Vec<Result<ShardSelection>> = snaps
            .par_iter()
            .map(|snap| snap.engine.select_with_curve(&gamma, k, &shard_budget))
            .collect();
        let per_shard: Vec<ShardSelection> = per_shard.into_iter().collect::<Result<_>>()?;
        // gather: k-way merge of the per-shard sequences
        let mut stats = KimStats::default();
        let mut heads: Vec<(usize, usize)> = Vec::new(); // (shard, next index)
        for (s, (res, _, curve)) in per_shard.iter().enumerate() {
            stats.exact_evaluations += res.stats.exact_evaluations;
            stats.bound_evaluations += res.stats.bound_evaluations;
            stats.pruned_candidates += res.stats.pruned_candidates;
            stats.answered_from_sample |= res.stats.answered_from_sample;
            stats.answered_from_cache |= res.stats.answered_from_cache;
            if !curve.is_empty() {
                heads.push((s, 0));
            }
        }
        let gain = |s: usize, i: usize| -> f64 {
            let curve = &per_shard[s].2;
            if i == 0 {
                curve[0]
            } else {
                curve[i] - curve[i - 1]
            }
        };
        let mut seeds: Vec<SeedInfo> = Vec::with_capacity(k);
        let mut taken = vec![0usize; per_shard.len()];
        while seeds.len() < k && !heads.is_empty() {
            // max gain, ties to the LOWER original node id — matching the
            // single-engine CELF heap's lower-id-wins rule
            let mut best = 0usize;
            for h in 1..heads.len() {
                let (bs, bi) = heads[best];
                let (hs, hi) = heads[h];
                let (gb, gh) = (gain(bs, bi), gain(hs, hi));
                let idb = self.lift(bs, per_shard[bs].0.seeds[bi]);
                let idh = self.lift(hs, per_shard[hs].0.seeds[hi]);
                if gh > gb || (gh == gb && idh < idb) {
                    best = h;
                }
            }
            let (s, i) = heads[best];
            let local = per_shard[s].0.seeds[i];
            let node = self.lift(s, local);
            seeds.push(SeedInfo {
                node,
                name: snaps[s]
                    .engine
                    .graph()
                    .name(local)
                    .map(str::to_string)
                    .unwrap_or_else(|| node.0.to_string()),
                rank: seeds.len(),
            });
            taken[s] = i + 1;
            if i + 1 < per_shard[s].2.len() {
                heads[best].1 = i + 1;
            } else {
                heads.swap_remove(best);
            }
        }
        // merged spread: components are disjoint, so the global spread of
        // the merged set is the sum of each shard's prefix spread
        let spread: f64 = per_shard
            .iter()
            .zip(&taken)
            .filter(|(_, &t)| t > 0)
            .map(|((_, _, curve), &t)| curve[t - 1])
            .sum();
        let mut lower = 0.0f64;
        let mut upper = 0.0f64;
        let mut samples = 0usize;
        let mut exact = true;
        for (_, b, _) in &per_shard {
            lower = lower.max(b.lower);
            upper += b.upper;
            samples += b.samples_used;
            exact &= b.exact;
        }
        let bound = if exact {
            QualityBound::exact(spread)
        } else {
            QualityBound::degraded(lower, upper.min(self.owner.len() as f64), samples)
        };
        Ok(Anytime {
            value: KimAnswer {
                keywords,
                unknown,
                gamma,
                result: KimResult {
                    seeds: seeds.iter().map(|s| s.node).collect(),
                    spread,
                    stats,
                },
                seeds,
                elapsed: start.elapsed(),
            },
            bound,
        })
    }

    /// The one shard that knows `user`, with the user's shard-local id:
    /// single-owner operators run there alone, under the *whole* budget.
    fn owner<'a>(&self, snaps: &'a [Arc<Epoch>], user: &str) -> Result<(usize, &'a Epoch, NodeId)> {
        snaps
            .iter()
            .enumerate()
            .find_map(|(s, snap)| {
                let local = snap.engine.resolve_user(user).ok()?;
                Some((s, &**snap, local))
            })
            .ok_or_else(|| CoreError::UnknownUser(user.to_string()))
    }

    /// Lift every node id in an exploration answered by shard `s` — root,
    /// clusters, paths, the arborescence, and the re-rendered d3 document
    /// — back to global coordinates.
    fn lift_exploration(&self, s: usize, snap: &Epoch, exp: &mut PathExploration) {
        exp.root = self.lift(s, exp.root);
        for c in &mut exp.clusters {
            c.head = self.lift(s, c.head);
            for m in &mut c.members {
                *m = self.lift(s, *m);
            }
        }
        for p in &mut exp.top_paths {
            for n in &mut p.nodes {
                *n = self.lift(s, *n);
            }
        }
        exp.tree = exp.tree.remap(|u| self.lift(s, u));
        // the d3 document embeds ids: re-render it from the lifted tree,
        // resolving names through the shard mapping (`to_original` is
        // ascending, so global → local is a binary search)
        let local_graph = snap.engine.graph();
        exp.d3_json = octopus_mia::json::arborescence_to_d3_with(&exp.tree, |u| {
            self.to_original[s]
                .binary_search(&u)
                .ok()
                .and_then(|i| local_graph.name(NodeId(i as u32)))
                .map(str::to_string)
        })
        .to_string();
    }

    /// Name auto-completion, sharded: union-merge of the per-shard
    /// completions under the trie's own ordering (score desc, node id
    /// asc), truncated to `limit` — node-id ties compare **lifted**
    /// (global) ids, so the order equals the single-engine order.
    fn completions(
        &self,
        snaps: &[Arc<Epoch>],
        prefix: &str,
        limit: usize,
    ) -> Vec<(NodeId, String, f64)> {
        let mut merged: Vec<(NodeId, String, f64)> = Vec::new();
        for (s, snap) in snaps.iter().enumerate() {
            merged.extend(
                snap.engine
                    .autocomplete(prefix, limit)
                    .into_iter()
                    .map(|(id, name, score)| (self.lift(s, id), name, score)),
            );
        }
        merged.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        merged.truncate(limit);
        merged
    }

    /// Radar chart for one keyword: every shard charts the word under the
    /// same budget and the gather is an **elementwise max** over the axis
    /// values and the bounds (the documented merge tie-break — with a
    /// shared topic model the per-shard charts are identical, so
    /// max-merge reproduces any one of them, and it stays correct if a
    /// future model ever diverged per shard by keeping the strongest
    /// signal per axis). Pinned sharded == whole-graph in
    /// `tests/serve_shard.rs`.
    fn radar(
        &self,
        snaps: &[Arc<Epoch>],
        word: &str,
        budget: &QueryBudget,
    ) -> Result<Anytime<RadarChart>> {
        let mut merged = snaps[0].engine.radar(word, budget)?;
        for snap in &snaps[1..] {
            let next = snap.engine.radar(word, budget)?;
            for (m, v) in merged.value.values.iter_mut().zip(&next.value.values) {
                *m = m.max(*v);
            }
            merged.bound.lower = merged.bound.lower.max(next.bound.lower);
            merged.bound.upper = merged.bound.upper.max(next.bound.upper);
            merged.bound.exact &= next.bound.exact;
            merged.bound.samples_used = merged.bound.samples_used.max(next.bound.samples_used);
        }
        Ok(merged)
    }
    /// Scatter `query` over one router snapshot's shards and gather the
    /// answer.
    fn answer(
        &self,
        snaps: &[Arc<Epoch>],
        query: &Query,
        budget: &QueryBudget,
    ) -> Result<QueryResponse> {
        Ok(match query {
            Query::FindInfluencers { query, k } => {
                QueryResponse::Influencers(self.influencers(snaps, query, *k, budget)?)
            }
            Query::SuggestKeywords { user, k } => {
                let (s, snap, local) = self.owner(snaps, user)?;
                let mut answer = snap.engine.suggestions(local, *k, budget)?;
                answer.value.user = self.lift(s, local);
                QueryResponse::Suggestions(answer)
            }
            Query::ExplorePaths {
                user,
                direction,
                query,
            } => {
                let (s, snap, local) = self.owner(snaps, user)?;
                let mut answer = snap
                    .engine
                    .paths(local, *direction, query.as_deref(), budget)?;
                self.lift_exploration(s, snap, &mut answer.value);
                QueryResponse::Paths(answer)
            }
            Query::Autocomplete { prefix, limit } => {
                let hits = self.completions(snaps, prefix, *limit);
                let count = hits.len() as f64;
                QueryResponse::Completions(Anytime::exact(hits, count))
            }
            Query::KeywordRadar { word } => QueryResponse::Radar(self.radar(snaps, word, budget)?),
        })
    }
}

impl QueryService for ShardedService {
    /// One controller guards the whole router: the query is admitted (or
    /// shed) exactly once, before it snapshots or scatters, and
    /// `Served::latency` includes the admission wait.
    fn execute(&self, query: &Query, budget: &QueryBudget) -> Result<Served<QueryResponse>> {
        self.core
            .run(None, query, budget, |routed| {
                self.answer(&routed.shards, query, budget)
            })?
            .transpose()
    }

    fn submit_delta(&self, delta: GraphDelta) {
        self.submit(delta);
    }

    fn submit_deltas(&self, deltas: Vec<GraphDelta>) {
        self.submit_all(deltas);
    }

    fn flush_deltas(&self) -> Result<Vec<ShardSwap>> {
        self.apply_pending()
    }

    fn shard_count(&self) -> usize {
        ShardedService::shard_count(self)
    }

    fn edge_count(&self) -> usize {
        ShardedService::edge_count(self)
    }

    fn delta_counters(&self) -> DeltaCounters {
        self.core.delta_counters()
    }
}

/// The cache subdirectory of shard `idx` under `root`.
fn shard_dir(root: &std::path::Path, idx: usize) -> PathBuf {
    root.join(format!("shard-{idx:03}"))
}
