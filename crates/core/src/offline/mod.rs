//! The staged offline-build pipeline behind [`crate::engine::Octopus`].
//!
//! OCTOPUS's whole bet (and that of preprocessing-based topic-aware IM in
//! general) is that heavy work moves *offline* so online keyword queries
//! stay interactive — which makes the offline phase the scalability
//! bottleneck worth engineering. This module extracts every offline phase
//! out of the engine constructor into an explicit, instrumented, parallel
//! pipeline producing an [`OfflineArtifacts`] value.
//!
//! ## Stage DAG
//!
//! ```text
//!        ┌──────────────┐
//!        │  spread-cap  │  per-topic arrival caps cap_z, combined into C
//!        └──────┬───────┘
//!               │                ┌───────────┐   ┌──────────────┐   ┌──────────────┐
//!        ┌──────▼───────┐        │ mis-tables│   │  piks-worlds │   │ autocomplete │
//!        │   pb-bound   │        │ (per-topic│   │  (per-world  │   │ (name trie)  │
//!        └──────┬───────┘        │   CELF)   │   │ reverse BFS) │   └──────────────┘
//!               │                └───────────┘   └──────────────┘
//!        ┌──────▼───────┐
//!        │topic-samples │  per-gamma best-effort seed sets
//!        └──────────────┘
//! ```
//!
//! The `spread-cap`, `pb-bound`, and `mis-tables` stages decompose into
//! one work unit per topic (their rebuild/reuse granularity — see
//! *Persistence* below); `piks-worlds` into one unit per world.
//!
//! The left chain is sequential (`spread-cap → pb-bound → topic-samples`:
//! the samples warm-start from the PB table and NB bound, both of which
//! need the cap), while `mis-tables`, `piks-worlds`, and `autocomplete`
//! are independent of it and of each other — the pipeline runs all four
//! branches concurrently via nested [`rayon::join`], and the heavy stages
//! are additionally parallel *internally* (per-topic CELF runs, per-gamma
//! best-effort runs, per-world reverse BFS, per-set RR sampling).
//!
//! Per-unit costs inside those stages are heavily skewed — a PIKS world
//! rooted at a hub traverses orders of magnitude more edges than one
//! rooted at a leaf, and a delta rebuild interleaves expensive rebuilt
//! worlds between no-op reused slots — so the stand-in `rayon` executes
//! every fan-out on a persistent worker pool with dynamic chunk-claiming:
//! threads repeatedly claim small index ranges off a shared cursor
//! instead of receiving one static chunk each, so a thread stuck on a hub
//! world never strands the units behind it. The four `join` branches and
//! all nested parallelism share that one pool.
//!
//! ## Determinism
//!
//! Every randomized work unit draws from its own RNG stream derived as
//! [`octopus_cascade::stream_seed`]`(stage_seed, unit_index)` — never from
//! a shared sequential RNG — and every parallel combinator assembles
//! results in unit order: each unit writes its own output slot, whatever
//! thread claims it. Consequently the artifacts are **bit-identical**
//! for a fixed [`crate::engine::OctopusConfig::seed`] whether the build
//! runs on one thread or many (`RAYON_NUM_THREADS=1` vs default), and
//! regardless of how the work-claiming executor happens to schedule the
//! units — which the `build_determinism` integration tests and the
//! executor's own stress suite pin down.
//!
//! ## Telemetry
//!
//! Each stage records wall-clock duration in a [`StageTiming`]; the engine
//! surfaces them through [`crate::engine::SystemReport::stage_timings`].
//! Because branches run concurrently, stage durations can sum to more than
//! the wall-clock the engine reports
//! ([`crate::engine::SystemReport::offline_build_total`]).
//!
//! ## Persistence and incremental rebuilds
//!
//! Determinism (above) is what makes the artifacts *cacheable*: each stage
//! is a pure function of the inputs it reads, so [`persist`] serializes
//! [`OfflineArtifacts`] into an **OCTA v8 sectioned container** — one
//! independently keyed, independently checksummed section per work unit,
//! each unit's [`persist::StageKeys`] entry hashing only that unit's input
//! slice. The three weight-dependent stages are **topic-granular**: the
//! cap, PB, and MIS payloads are split into one sub-section per topic,
//! keyed on the topic's weight-slice key
//! ([`octopus_graph::codec::GraphKeys::topics`]; MIS ignores
//! names; autocomplete ignores weights; each PIKS world is keyed on the
//! in-edges its reverse BFS examined and their superset coin bits), so a delta confined to topic-`z`
//! edges invalidates exactly topic `z`'s cap/PB/MIS units. The byte-level
//! format is specified normatively in `ARCHITECTURE.md` and summarized in
//! the [`persist`] module docs. Stage timings are telemetry, not artifact
//! state, and are never persisted.
//!
//! [`crate::engine::Octopus::open_or_build`] is the consumer at process
//! start: it gathers every section in the cache directory whose key
//! matches the live inputs ([`persist::lookup`]), hands them to
//! [`build_with_reuse`] as [`ReuseSlots`], and rebuilds only the
//! invalidated stages along the DAG. A serving flush gathers its slots
//! from the epoch it replaces instead (`persist::load_live`).
//! A full hit reports the three synthetic artifact timings
//! ([`persist::STAGE_ARTIFACT_MAP`] / [`persist::STAGE_ARTIFACT_VALIDATE`]
//! / [`persist::STAGE_ARTIFACT_DECODE`]) and `cache_hit = true` (zero
//! build stages run); a partial hit reports exactly the rebuilt stages
//! plus per-unit counters in
//! [`crate::engine::SystemReport::stage_reuse`] — `reused/total` topics
//! for cap/PB/MIS, worlds for PIKS. Reused or rebuilt, the resulting
//! engine is bit-identical to a fresh build — pinned by
//! `tests/build_determinism.rs`, `tests/delta_invalidation.rs`, and the
//! end-to-end restart tests.
//!
//! A unit travels as its encoded OCTA v8 payload from donor to disk: a
//! reused unit is the donor's bytes, copied once and never decoded, and a
//! rebuilt unit is encoded by its stage as soon as it is built (the
//! `topic-samples` stage reads the PB tables off their unit bytes, as the
//! online path does). The engine serves the framed bytes through the
//! zero-copy views of [`view`] — the same readers a memory-mapped cache
//! file is served through, which skips this pipeline entirely.

#![warn(missing_docs)]

pub mod persist;
pub mod view;

use crate::autocomplete::Autocomplete;
use crate::engine::{KimEngineChoice, OctopusConfig};
use crate::kim::bounds::{
    combine_topic_caps, encode_pb_topic_section, topic_arrival_cap, BoundEstimator, BoundKind,
    LocalGraphBound, NeighborhoodBound, PbTableView, PrecompBound, TrivialBound,
};
use crate::kim::mis::encode_mis_topic_section;
use crate::kim::topic_sample::{TopicSample, TopicSampleKim};
use crate::kim::{BestEffortKim, KimResult, MisKim};
use crate::piks::{InfluencerIndex, PiksReuse};
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::TopicDistribution;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// XOR applied to [`OctopusConfig::seed`] to derive the PIKS world-sampling
/// seed — decorrelates the influencer index's randomness from the MIS and
/// topic-sample streams. Part of the persistence contract: the `piks-worlds`
/// section key hashes the *derived* seed, so persist and build must agree
/// on the derivation.
pub const PIKS_WORLD_SEED_XOR: u64 = 0x1DE;

/// Pipeline stage names, in canonical (DAG topological) order.
pub const STAGE_ORDER: [&str; 6] = [
    "spread-cap",
    "pb-bound",
    "mis-tables",
    "topic-samples",
    "piks-worlds",
    "autocomplete",
];

/// Wall-clock telemetry of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (one of [`STAGE_ORDER`]).
    pub stage: &'static str,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// Per-stage reuse telemetry of one pipeline run: how many of the stage's
/// work units were reloaded from a cached artifact section instead of
/// rebuilt. Scalar stages have one unit; `piks-worlds` has one per world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReuse {
    /// Stage name (one of [`STAGE_ORDER`]).
    pub stage: &'static str,
    /// Work units reloaded from cache.
    pub reused: usize,
    /// Total work units the stage comprises.
    pub total: usize,
}

impl StageReuse {
    /// Whether every unit of the stage was reused (a per-stage cache hit).
    pub fn is_full(&self) -> bool {
        self.reused == self.total
    }
}

/// Cached stage outputs handed to [`build_with_reuse`], each in the only
/// form a unit takes between donor and disk: its encoded section payload.
/// A populated slot short-circuits its work unit — the payload goes into
/// the artifact as it is — and an empty slot rebuilds it. The three
/// weight-dependent stages are topic-granular — one slot per topic, so a
/// topic-confined delta hands back every foreign topic's unit and rebuilds
/// exactly the invalidated ones. Shorter-than-`Z` vectors are treated as
/// all-empty tails (the persist layer always sizes them to `Z`).
///
/// The *caller* (the persist layer) is responsible for only populating a
/// slot when the unit's input fingerprint matches the live inputs (see
/// `persist::StageKeys`) and its payload passed the structural check a view
/// runs at open. `build_with_reuse` trusts every slot outright; the PIKS
/// slot was screened world by world ([`PiksReuse::screen`]).
#[derive(Debug, Default)]
pub struct ReuseSlots {
    /// Per-topic cached `spread-cap` unit payloads.
    pub cap: Vec<Option<Vec<u8>>>,
    /// Per-topic cached `pb-bound` unit payloads (a σ̂ row, or the absent
    /// marker of a configuration that needs no PB tables — keyed by the
    /// `enabled` flag in [`PrecompBound::input_key_topic`], so a marker
    /// never satisfies a config that needs the tables).
    pub pb: Vec<Option<Vec<u8>>>,
    /// Per-topic cached `mis-tables` unit payloads (same contract as `pb`,
    /// keyed by [`MisKim::input_key_topic`]).
    pub mis: Vec<Option<Vec<u8>>>,
    /// The cached `topic-samples` payload.
    pub samples: Option<Vec<u8>>,
    /// Per-world PIKS reuse slots (donor world records).
    pub piks: Option<PiksReuse>,
    /// The cached `autocomplete` payload.
    pub names: Option<Vec<u8>>,
    /// The graph's [`GraphKeys::topology`](octopus_graph::codec::GraphKeys),
    /// when the loader already holds it ([`StageKeys::topology`](persist::StageKeys)):
    /// the PIKS section records it, and walks the graph for it otherwise.
    pub topology: Option<u64>,
}

/// Everything the engine precomputes before serving its first query.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts {
    /// Every section's `(tag, payload)` in canonical order
    /// ([`persist::section_order`]) — what [`persist::encode`] frames.
    pub sections: Vec<(u32, Vec<u8>)>,
    /// Per-stage wall-clock telemetry, in [`STAGE_ORDER`], covering only
    /// the stages that actually ran (a stage fully reloaded from cache
    /// reports no timing — it did no build work).
    pub timings: Vec<StageTiming>,
    /// Per-stage reuse counters, always all of [`STAGE_ORDER`].
    pub reuse: Vec<StageReuse>,
}

impl OfflineArtifacts {
    /// Whether every stage was fully reloaded from cache (zero build work).
    pub fn fully_reused(&self) -> bool {
        self.reuse.iter().all(StageReuse::is_full)
    }

    /// Every section's `(tag, payload)` in canonical order (the shape of
    /// [`view::MappedArtifacts::payloads`]).
    pub fn payloads(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.sections.iter().map(|(tag, p)| (*tag, p.as_slice()))
    }
}

/// Whether the configured engine needs PB bound tables (shared with the
/// persist layer's stage-key computation — the flag is part of the
/// `pb-bound` cache key).
pub fn needs_pb(config: &OctopusConfig) -> bool {
    matches!(
        config.kim,
        KimEngineChoice::BestEffort(BoundKind::Precomputation)
            | KimEngineChoice::TopicSample {
                bound: BoundKind::Precomputation,
                ..
            }
    )
}

/// Whether the configured engine needs MIS seed tables.
pub fn needs_mis(config: &OctopusConfig) -> bool {
    matches!(config.kim, KimEngineChoice::Mis)
}

/// Run a topic-granular stage: unit `z` is taken from `slots[z]` when
/// populated and rebuilt via `f(z)` otherwise (rebuilds in parallel,
/// assembled in topic order). Returns the per-topic units, a timing only
/// when at least one unit rebuilt, and a `reused/total` counter over
/// topics.
fn stage_per_topic(
    name: &'static str,
    num_topics: usize,
    mut slots: Vec<Option<Vec<u8>>>,
    f: impl Fn(usize) -> Vec<u8> + Sync,
) -> (Vec<Vec<u8>>, Option<StageTiming>, StageReuse) {
    slots.resize_with(num_topics, || None);
    slots.truncate(num_topics);
    let reused = slots.iter().filter(|s| s.is_some()).count();
    let start = Instant::now();
    let missing: Vec<usize> = (0..num_topics).filter(|&z| slots[z].is_none()).collect();
    let rebuilt: Vec<Vec<u8>> = missing.par_iter().map(|&z| f(z)).collect();
    for (&z, unit) in missing.iter().zip(rebuilt) {
        slots[z] = Some(unit);
    }
    let units: Vec<Vec<u8>> = slots
        .into_iter()
        .map(|s| s.expect("every unit reused or rebuilt"))
        .collect();
    let timing = (reused < num_topics).then(|| StageTiming {
        stage: name,
        duration: start.elapsed(),
    });
    (
        units,
        timing,
        StageReuse {
            stage: name,
            reused,
            total: num_topics,
        },
    )
}

/// Run `f` as the named stage unless `slot` carries a cached unit.
/// Returns the unit, a timing only when the stage actually ran, and the
/// stage's reuse counter.
fn stage_or(
    name: &'static str,
    slot: Option<Vec<u8>>,
    f: impl FnOnce() -> Vec<u8>,
) -> (Vec<u8>, Option<StageTiming>, StageReuse) {
    match slot {
        Some(unit) => (
            unit,
            None,
            StageReuse {
                stage: name,
                reused: 1,
                total: 1,
            },
        ),
        None => {
            let start = Instant::now();
            let unit = f();
            (
                unit,
                Some(StageTiming {
                    stage: name,
                    duration: start.elapsed(),
                }),
                StageReuse {
                    stage: name,
                    reused: 0,
                    total: 1,
                },
            )
        }
    }
}

/// Run the full offline pipeline for `graph` under `config`.
///
/// Branch layout (see the module docs for the DAG): the `cap → pb →
/// samples` chain, the MIS tables, the PIKS index, and the autocomplete
/// trie run concurrently via nested [`rayon::join`]; each heavy stage also
/// parallelizes internally. Timings are reported in [`STAGE_ORDER`]
/// regardless of execution interleaving.
pub fn build(graph: &TopicGraph, config: &OctopusConfig) -> OfflineArtifacts {
    build_with_reuse(graph, config, ReuseSlots::default())
}

/// Run the offline pipeline, taking every work unit whose slot in `slots`
/// carries a cached payload and rebuilding only the rest along the stage
/// DAG (a reused `cap`/`pb` still feeds a rebuilt `topic-samples`, read
/// straight off the unit bytes, and vice versa). A rebuilt unit is encoded
/// by its stage as soon as it is built.
///
/// Correctness contract: a populated slot must hold exactly what its unit
/// would compute for `(graph, config)` — slots are keyed by per-unit input
/// fingerprints in [`persist::StageKeys`], so this holds whenever the slot's
/// key matches. Under that contract the result is **bit-identical** to
/// [`build`] with no slots, whatever subset was reused (pinned by the
/// `delta_invalidation` integration tests). The weight-dependent stages
/// reuse at **topic** granularity (each cap/PB/MIS unit is keyed on its
/// topic's weight slice, so a topic-`z` nudge rebuilds only topic `z`'s
/// units) and the PIKS stage at **world** granularity (each persisted
/// world carries a footprint key over the edge set its reverse BFS
/// touched, so a k-edge delta rebuilds only the worlds that saw those
/// edges).
pub fn build_with_reuse(
    graph: &TopicGraph,
    config: &OctopusConfig,
    slots: ReuseSlots,
) -> OfflineArtifacts {
    let z_count = graph.num_topics();
    let ReuseSlots {
        cap: cap_slots,
        pb: pb_slots,
        mis: mis_slots,
        samples: samples_slot,
        piks: piks_slot,
        names: names_slot,
        topology,
    } = slots;
    let ((left, mis_out), (piks_out, names_out)) = rayon::join(
        || {
            rayon::join(
                || {
                    // sequential chain: cap → pb → topic samples; cap and
                    // pb rebuild per topic
                    let (caps, t_cap, r_cap) =
                        stage_per_topic("spread-cap", z_count, cap_slots, |z| {
                            topic_arrival_cap(graph, z).to_le_bytes().to_vec()
                        });
                    let topic_caps: Vec<f64> = caps
                        .iter()
                        .map(|unit| persist::decode_cap(unit).expect("8-byte cap unit"))
                        .collect();
                    let cap = combine_topic_caps(&topic_caps);
                    let (pb, t_pb, r_pb) = stage_per_topic("pb-bound", z_count, pb_slots, |z| {
                        let row = needs_pb(config)
                            .then(|| PrecompBound::build_topic(graph, z, config.mia_theta));
                        encode_pb_topic_section(row.as_deref(), config.pb_safety)
                    });
                    let (samples, t_samples, r_samples) =
                        stage_or("topic-samples", samples_slot, || {
                            let units: Vec<&[u8]> = pb.iter().map(Vec::as_slice).collect();
                            let table = PbTableView::parse(&units, graph.node_count())
                                .expect("pb units validated or just built");
                            build_topic_samples(graph, config, table.as_ref(), cap)
                        });
                    (
                        caps, pb, samples, t_cap, t_pb, t_samples, r_cap, r_pb, r_samples,
                    )
                },
                || {
                    stage_per_topic("mis-tables", z_count, mis_slots, |z| {
                        let table = needs_mis(config).then(|| {
                            MisKim::build_topic(
                                graph,
                                z,
                                config.k_max,
                                config.mis_rr_per_topic,
                                config.seed,
                            )
                        });
                        encode_mis_topic_section(table.as_ref())
                    })
                },
            )
        },
        || {
            rayon::join(
                || {
                    // world-granular reuse: only rebuilt worlds cost time
                    let t0 = Instant::now();
                    let reuse = piks_slot.unwrap_or_default();
                    let (index, reused) = InfluencerIndex::build_with_reuse(
                        graph,
                        config.piks_index_size,
                        config.seed ^ PIKS_WORLD_SEED_XOR,
                        &reuse.with_topology(topology),
                    );
                    let total = if graph.node_count() == 0 {
                        0
                    } else {
                        config.piks_index_size
                    };
                    let timing = (reused < total).then(|| StageTiming {
                        stage: "piks-worlds",
                        duration: t0.elapsed(),
                    });
                    let reuse = StageReuse {
                        stage: "piks-worlds",
                        reused,
                        total,
                    };
                    (index.into_bytes(), timing, reuse)
                },
                || {
                    stage_or("autocomplete", names_slot, || {
                        Autocomplete::build(graph.nodes().filter_map(|u| {
                            graph.name(u).map(|n| (n, u, graph.out_degree(u) as f64))
                        }))
                        .to_bytes()
                    })
                },
            )
        },
    );
    let (caps, pb, samples, t_cap, t_pb, t_samples, r_cap, r_pb, r_samples) = left;
    let (mis, t_mis, r_mis) = mis_out;
    let (piks, t_piks, r_piks) = piks_out;
    let (names, t_names, r_names) = names_out;
    let units = caps.into_iter().chain(pb).chain(mis);
    OfflineArtifacts {
        sections: persist::section_order(z_count)
            .into_iter()
            .zip(units.chain([samples, piks, names]))
            .collect(),
        timings: [t_cap, t_pb, t_mis, t_samples, t_piks, t_names]
            .into_iter()
            .flatten()
            .collect(),
        reuse: vec![r_cap, r_pb, r_mis, r_samples, r_piks, r_names],
    }
}

/// The topic-samples stage: sample the query distributions, then solve a
/// `k_max`-deep seed set for each with the same inner engine online queries
/// will use, over the PB tables' unit bytes. Solving parallelizes per
/// gamma. Returns the encoded `topic-samples` unit.
fn build_topic_samples(
    graph: &TopicGraph,
    config: &OctopusConfig,
    pb: Option<&PbTableView<'_>>,
    cap: f64,
) -> Vec<u8> {
    let KimEngineChoice::TopicSample {
        bound,
        extra_samples,
        ..
    } = config.kim
    else {
        return persist::encode_samples(&[]);
    };
    let gammas = TopicSampleKim::<NeighborhoodBound>::sample_gammas(
        graph.num_topics(),
        extra_samples,
        0.3,
        config.seed ^ 0x7A11,
    );
    let samples: Vec<TopicSample> = gammas
        .par_iter()
        .map(|gamma| {
            let res = run_best_effort(graph, bound, pb, cap, config, gamma, config.k_max, &[]);
            TopicSample {
                gamma: gamma.clone(),
                seeds: res.seeds,
                spread: res.spread,
            }
        })
        .collect();
    persist::encode_samples(&samples)
}

/// Run one best-effort selection with the configured bound estimator —
/// shared by the topic-samples stage (over the tables it just built) and
/// the engine's online query path (over the artifact's zero-copy tables).
/// `pb` must be present when `bound` is [`BoundKind::Precomputation`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_best_effort(
    graph: &TopicGraph,
    bound: BoundKind,
    pb: Option<impl BoundEstimator>,
    cap: f64,
    config: &OctopusConfig,
    gamma: &TopicDistribution,
    k: usize,
    warm: &[NodeId],
) -> KimResult {
    let theta = config.mia_theta;
    match bound {
        BoundKind::Precomputation => {
            let table = pb.expect("PB tables present for a PB-bound engine");
            BestEffortKim::new(graph, table, theta).select_warm(gamma, k, warm)
        }
        BoundKind::Neighborhood => {
            BestEffortKim::new(graph, NeighborhoodBound::new(graph, cap), theta)
                .select_warm(gamma, k, warm)
        }
        BoundKind::LocalGraph => BestEffortKim::new(
            graph,
            LocalGraphBound::new(graph, config.lg_depth, cap, config.lg_safety),
            theta,
        )
        .select_warm(gamma, k, warm),
        BoundKind::Trivial => {
            BestEffortKim::new(graph, TrivialBound::new(graph.node_count()), theta)
                .select_warm(gamma, k, warm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_graph::GraphBuilder;

    fn two_hub_graph() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        for i in 0..12 {
            b.add_node(format!("user-{i}"));
        }
        for v in 2..=6u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.7)]).unwrap();
        }
        for v in 7..=11u32 {
            b.add_edge(NodeId(1), NodeId(v), &[(1, 0.7)]).unwrap();
        }
        b.build().unwrap()
    }

    fn config(kim: KimEngineChoice) -> OctopusConfig {
        OctopusConfig {
            kim,
            piks_index_size: 600,
            mis_rr_per_topic: 1200,
            k_max: 4,
            ..Default::default()
        }
    }

    #[test]
    fn stages_report_in_canonical_order() {
        let g = two_hub_graph();
        let art = build(&g, &config(KimEngineChoice::Mis));
        let names: Vec<&str> = art.timings.iter().map(|t| t.stage).collect();
        assert_eq!(names, STAGE_ORDER.to_vec());
    }

    /// The payload of section `tag` in `art`.
    fn payload(art: &OfflineArtifacts, tag: u32) -> &[u8] {
        art.payloads()
            .find(|&(t, _)| t == tag)
            .expect("every tag")
            .1
    }

    #[test]
    fn stages_build_only_what_the_config_needs() {
        use persist::{topic_tag, SECTION_MIS, SECTION_PB, SECTION_SAMPLES};
        let absent = 0u64.to_le_bytes();
        let g = two_hub_graph();
        let mis = build(&g, &config(KimEngineChoice::Mis));
        assert_ne!(payload(&mis, topic_tag(SECTION_MIS, 0)), absent);
        assert_eq!(payload(&mis, topic_tag(SECTION_PB, 0)), absent);
        assert_eq!(payload(&mis, SECTION_SAMPLES), 0u32.to_le_bytes());

        let pb = build(
            &g,
            &config(KimEngineChoice::BestEffort(BoundKind::Precomputation)),
        );
        assert_ne!(payload(&pb, topic_tag(SECTION_PB, 1)), absent);
        assert_eq!(payload(&pb, topic_tag(SECTION_MIS, 1)), absent);

        let ts = build(
            &g,
            &config(KimEngineChoice::TopicSample {
                bound: BoundKind::Precomputation,
                extra_samples: 4,
                direct_eps: 0.05,
            }),
        );
        assert_ne!(
            payload(&ts, topic_tag(SECTION_PB, 0)),
            absent,
            "PB-bound topic samples need the PB table"
        );
        let samples = persist::decode_samples(payload(&ts, SECTION_SAMPLES), &g).unwrap();
        assert!(samples.len() >= 2, "Z corners at minimum");
    }

    #[test]
    fn artifacts_always_include_query_independent_structures() {
        let g = two_hub_graph();
        let art = build(&g, &config(KimEngineChoice::Naive));
        let caps: Vec<f64> = (0..2)
            .map(|z| persist::decode_cap(payload(&art, persist::topic_tag(1, z))).unwrap())
            .collect();
        assert!(combine_topic_caps(&caps) >= 1.0);
        let piks = crate::piks::PiksWorldsView::parse(payload(&art, persist::SECTION_PIKS));
        assert_eq!(piks.unwrap().len(), 600);
        let names = crate::autocomplete::TrieView::parse(payload(&art, persist::SECTION_NAMES), 12);
        assert!(!names.unwrap().is_empty());
    }
}
