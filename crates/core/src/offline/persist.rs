//! Fingerprint-keyed on-disk persistence for [`OfflineArtifacts`] — the
//! cache that lets a process restart skip the offline pipeline, and (since
//! OCTA v2) lets a *changed* graph skip every stage whose inputs did not
//! change.
//!
//! ## Why per-stage keys
//!
//! OCTA v1 keyed the whole artifact file on one `(graph, config, seed)`
//! hash, so a single renamed user or nudged edge weight invalidated tables
//! that never read names or weights. v2 split the file into independently
//! keyed **sections**, one per pipeline stage, each hashing only the inputs
//! that stage actually reads. v5 splits the three weight-dependent stages
//! one level further, into one section per **topic**:
//!
//! | section | units | key hashes (per unit) | survives |
//! |---|---|---|---|
//! | `spread-cap` | one per topic | topic-`z` weight slice | renames, reseeds, foreign-topic deltas |
//! | `pb-bound` | one per topic | topic-`z` weight slice, `mia_theta`, `pb_safety`, enabled | renames, reseeds, foreign-topic deltas |
//! | `mis-tables` | one per topic | topic-`z` weight slice, `k_max`, `mis_rr_per_topic`, seed, enabled | renames, foreign-topic deltas |
//! | `topic-samples` | one | topology, weights, kim-variant, `k_max`, bounds params, seed | renames, `direct_eps` tuning |
//! | `piks-worlds` | one (worlds inside) | `(n, world seed)` + a per-world footprint | any delta that flips no superset coin bit of a world's BFS footprint |
//! | `autocomplete` | one | names + out-degrees | weight nudges, reseeds |
//!
//! The topic-`z` weight slice key is entry `z` of
//! [`GraphKeys::topics`] (it also pins the node universe and topic
//! count); `topology`/`weights`/names are the other whole-graph
//! [`GraphKeys`]. One walk over the edge table yields all of them, each
//! an order-independent sum of per-entry mixes. The PIKS
//! section goes one level deeper still: each stored world carries a
//! [`crate::piks::footprint_hash`] — the structural key of everything its
//! reverse BFS read: reached nodes, their in-edges, and each in-edge's
//! superset coin bit — so a k-edge delta rebuilds only the worlds in which
//! one of those edges flipped its bit (or shifted its id), and a weight
//! nudge confined to topic-`z` edges rebuilds only topic `z`'s cap/PB/MIS
//! units plus those worlds. The section also records its graph's topology
//! key and per-edge maxima, so a donor over the live graph's edge ids
//! screens its worlds by coin flips instead of footprints.
//!
//! ## File format (OCTA v8, little-endian)
//!
//! The normative byte-level specification lives in `ARCHITECTURE.md`
//! (§"The OCTA v8 artifact container") and is pinned against this codec by
//! the `octa_format` integration test. v8 keeps v7's frame: its section
//! checksums are XXH64 ([`wire::checksum`]), and `graph_fp` and the unit
//! keys derive from the one-pass [`GraphKeys`]. It moves two payloads: the
//! `piks-worlds` header records the graph (topology key, edge count,
//! per-edge maxima), and world footprints and the autocomplete key are
//! sums of [`wire::mix`] terms. Summary:
//!
//! ```text
//! magic "OCTA" | version u16 = 8 | pad u16 = 0
//! graph_fp u64 | config_fp u64 | seed u64      ← combined key (file name / diagnostics)
//! write_seq u64                                ← per-directory write sequence (prune order)
//! section_count u32 | pad u32 = 0              ← count = 3·Z + 3
//! section table: count × { tag u32 | pad u32 = 0 | key u64 | off u64 | len u64 | checksum u64 }
//! section payloads at their table offsets, zero-padded so each starts
//! 8-aligned; file length = last off + last len
//! ```
//!
//! A section's `tag` encodes both its stage and (for the topic-granular
//! stages) its topic: `tag = base | (z << 8)` with the base in the low
//! byte (`tag_base`) and the topic index above it (`tag_topic`) —
//! singleton sections use their bare base tag, and topic 0 of a
//! topic-granular stage is byte-identical to the old bare tag. The
//! canonical section order is all cap units ascending by topic, then all
//! PB units, then all MIS units, then samples / PIKS / names
//! ([`section_order`]).
//!
//! The flat layout exists for the memory-mapped read path
//! ([`super::view`]): every section records its absolute offset, starts
//! 8-aligned, and uses flat fixed-width in-section layouts, so an open can
//! serve queries straight off the mapped bytes — `O(pages touched)`, not
//! `O(file)`. Every section still carries its own XXH64 checksum, so
//! corruption, torn writes, and truncation are detected **per section**:
//! the damaged unit misses, the intact ones (including the other topics of
//! the same stage) are still reused. A rebuild verifies a donor section's
//! checksum before it parses the payload; the mapped path defers them per
//! section to first touch ([`wire::section_range`] frames without
//! hashing). A v1–v7 file fails the version check and is migrated by
//! rebuild — the v8 writer then writes the same inputs under their
//! cache-file name (a v6 file's name differs: v7 moved the graph key, so
//! the name moved too). [`lookup`] drops such a file on its header alone,
//! and [`prune`] evicts it first, its write sequence reading as 0.
//!
//! ## Lookup
//!
//! [`lookup`] (process start; a flush reads only the live epoch) first
//! tries the exact combined-fingerprint file name, then the cache
//! directory's other `.octa` files newest first, merging matching sections
//! across files — so after a graph delta (new combined fingerprint, hence
//! new file name) the previous epoch's file still donates every section
//! whose stage inputs are unchanged. After each
//! write-back, [`prune`] bounds the directory to [`MAX_CACHE_FILES`],
//! evicting oldest-first by modification time with the header's
//! `write_seq` breaking ties (coarse-mtime filesystems would otherwise
//! order a burst of delta write-backs arbitrarily). Stage timings are
//! telemetry, not artifact state, and are never persisted.

#![warn(missing_docs)]

use super::view::MappedArtifacts;
use super::{OfflineArtifacts, ReuseSlots, StageTiming};
use crate::autocomplete::{Autocomplete, TrieView};
use crate::engine::{KimEngineChoice, OctopusConfig};
use crate::kim::bounds::{spread_cap_topic_key, BoundKind, PbTableView, PrecompBound};
use crate::kim::mis::MisView;
use crate::kim::topic_sample::TopicSample;
use crate::kim::MisKim;
use crate::piks::InfluencerIndex;
use bytes::{Buf, BufMut};
use octopus_graph::codec::GraphKeys;
use octopus_graph::delta::MaxShift;
use octopus_graph::wire::{self, Fnv64, SectionEntry, WireError};
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::TopicDistribution;
use std::path::{Path, PathBuf};

pub(crate) const MAGIC: &[u8; 4] = b"OCTA";
pub(crate) const VERSION: u16 = 8;
/// Bytes before the section table: magic + version + pad + 3 fingerprint
/// words + write sequence + section count + pad. 8-aligned by design so
/// the table (40-byte entries) and the first payload stay 8-aligned.
pub(crate) const HEADER_LEN: usize = 4 + 2 + 2 + 8 * 3 + 8 + 4 + 4;

/// Base section tag: one per-topic arrival-cap unit (`f64`).
pub(crate) const SECTION_CAP: u32 = 1;
/// Base section tag: one per-topic PB σ̂ row unit.
pub(crate) const SECTION_PB: u32 = 2;
/// Base section tag: one per-topic MIS gains-table unit.
pub const SECTION_MIS: u32 = 3;
/// Section tag: precomputed topic samples.
pub(crate) const SECTION_SAMPLES: u32 = 4;
/// Section tag: PIKS influencer-index worlds.
pub const SECTION_PIKS: u32 = 5;
/// Section tag: the autocomplete trie.
pub(crate) const SECTION_NAMES: u32 = 6;

/// The tag of one topic-granular section unit: base tag in the low byte,
/// topic index above it. Topic 0's tag equals the bare base tag.
pub const fn topic_tag(base: u32, z: usize) -> u32 {
    base | ((z as u32) << 8)
}

/// The stage a section tag belongs to (its low byte).
const fn tag_base(tag: u32) -> u32 {
    tag & 0xFF
}

/// The topic index a section tag carries (0 for singleton sections).
const fn tag_topic(tag: u32) -> usize {
    (tag >> 8) as usize
}

/// Section tags in canonical write order for a `num_topics`-topic graph:
/// every cap unit ascending by topic, then every PB unit, then every MIS
/// unit, then the three singleton sections (mirroring the stage DAG order
/// of [`super::STAGE_ORDER`]). `3·Z + 3` entries.
pub fn section_order(num_topics: usize) -> Vec<u32> {
    let mut order = Vec::with_capacity(3 * num_topics + 3);
    for base in [SECTION_CAP, SECTION_PB, SECTION_MIS] {
        for z in 0..num_topics {
            order.push(topic_tag(base, z));
        }
    }
    order.extend([SECTION_SAMPLES, SECTION_PIKS, SECTION_NAMES]);
    order
}

/// Synthetic stage name for reading cache files into memory (or mapping
/// them) on a full artifact hit.
pub const STAGE_ARTIFACT_MAP: &str = "artifact-map";
/// Synthetic stage name for header/table/checksum validation on a full
/// artifact hit.
pub const STAGE_ARTIFACT_VALIDATE: &str = "artifact-validate";
/// Synthetic stage name for parsing and screening section payloads on a
/// full artifact hit: the structural checks a unit passes before it fills
/// a reuse slot, or a view's parse at open (which leaves the lazy
/// sections' payloads untouched — that is the point of the mapped path).
pub const STAGE_ARTIFACT_DECODE: &str = "artifact-decode";
/// Synthetic stage name reported for writing a build to cache.
pub const STAGE_ARTIFACT_STORE: &str = "artifact-store";
/// Synthetic stage name for a flush screening the epoch it replaces.
pub const STAGE_LIVE_SCREEN: &str = "live-screen";

/// Errors from artifact (de)serialization and cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The container framing is damaged (bad magic, unreadable table).
    /// Individual section damage is *not* an error — the section misses.
    Corrupt(String),
    /// The file was written by an incompatible codec version (v1 files land
    /// here and are migrated by rebuild).
    Version(u16),
    /// The file could not be read at all.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(m) => write!(f, "corrupt artifact container: {m}"),
            PersistError::Version(v) => write!(f, "unsupported artifact version {v}"),
            PersistError::Io(m) => write!(f, "artifact io error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Corrupt(e.0)
    }
}

/// The combined cache key of one offline build: `(graph, config, seed)`.
///
/// Since v2 this no longer gates reuse (the per-stage [`StageKeys`] do); it
/// names the cache file — one file per exact input triple — and stamps the
/// header for diagnostics. Any perturbation of the graph, of any config
/// field, or of the seed produces a different fingerprint — pinned by the
/// `proptest_persist` sensitivity suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// The whole-graph key ([`GraphKeys::graph`]: topology, names and
    /// every topic's weight slice).
    pub graph: u64,
    /// Hash of every artifact-relevant config field except the seed.
    pub config: u64,
    /// The master RNG seed, verbatim.
    pub seed: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x}-{:016x}-{:016x}",
            self.graph, self.config, self.seed
        )
    }
}

impl Fingerprint {
    /// Compute the combined cache key for building `graph` under `config`.
    ///
    /// Walks the graph once ([`GraphKeys::of`]); an engine constructor
    /// that also needs the [`StageKeys`] derives both from one walk.
    pub fn compute(graph: &TopicGraph, config: &OctopusConfig) -> Self {
        Self::from_keys(&GraphKeys::of(graph), config)
    }

    /// The combined cache key over already computed graph keys.
    pub(crate) fn from_keys(graph: &GraphKeys, config: &OctopusConfig) -> Self {
        Fingerprint {
            graph: graph.graph,
            config: config_fingerprint(config),
            seed: config.seed,
        }
    }

    /// The cache file name for this key.
    pub(crate) fn file_name(&self) -> String {
        format!("octopus-artifacts-{self}.octa")
    }

    /// The cache file path under `cache_dir`.
    pub fn cache_path(&self, cache_dir: &Path) -> PathBuf {
        cache_dir.join(self.file_name())
    }
}

/// Hash every config field except the seed, each by exact bit pattern.
///
/// Online-only fields (query cache, path count, PIKS thresholds) are
/// deliberately included: a conservative key can only cause a spurious
/// rebuild, never a stale artifact — and it keeps the sensitivity contract
/// simple ("any config change changes the key"). The per-stage keys in
/// [`StageKeys`] are the precise ones; this combined key only names files.
fn config_fingerprint(config: &OctopusConfig) -> u64 {
    let mut h = Fnv64::new();
    match config.kim {
        KimEngineChoice::Naive => {
            h.write_u32(0);
        }
        KimEngineChoice::Mis => {
            h.write_u32(1);
        }
        KimEngineChoice::BestEffort(bound) => {
            h.write_u32(2).write_u32(bound_tag(bound));
        }
        KimEngineChoice::TopicSample {
            bound,
            extra_samples,
            direct_eps,
        } => {
            h.write_u32(3)
                .write_u32(bound_tag(bound))
                .write_u64(extra_samples as u64)
                .write_f64(direct_eps);
        }
    }
    h.write_f64(config.mia_theta)
        .write_u64(config.k_max as u64)
        .write_u64(config.mis_rr_per_topic as u64)
        .write_u64(config.piks_index_size as u64)
        .write_f64(config.pb_safety)
        .write_u32(config.lg_depth)
        .write_f64(config.lg_safety)
        .write_f64(config.piks.min_posterior_consistency)
        .write_f64(config.piks.min_pairwise_consistency)
        .write_u64(config.top_paths as u64)
        .write_u64(config.cache_capacity as u64)
        .write_f64(config.cache_tolerance);
    h.finish()
}

fn bound_tag(b: BoundKind) -> u32 {
    match b {
        BoundKind::Precomputation => 0,
        BoundKind::LocalGraph => 1,
        BoundKind::Neighborhood => 2,
        BoundKind::Trivial => 3,
    }
}

/// The per-unit cache keys of one offline build — the heart of the
/// incremental-rebuild machinery.
///
/// Each key hashes exactly the inputs its work unit reads (see the module
/// docs' table and each component's `input_key_topic`/`section_key`
/// documentation); the weight-dependent stages carry one key **per topic**
/// over that topic's weight slice. The invariants the `delta_invalidation`
/// tests pin:
///
/// * a node **rename** moves only `names`;
/// * a **weight nudge confined to topic-`z` edges** moves exactly index
///   `z` of `cap`/`pb`/`mis` (plus `samples`, which reads all weights) —
///   never `names`, the other topics' units, or the `piks` *section* key
///   (world-level footprints decide PIKS reuse);
/// * a **reseed** moves only `mis`/`samples`/`piks` (the randomized stages);
/// * an **edge insert** moves the units of the topics its probability
///   payload carries, `samples`, and — via per-world footprints over the
///   shifted edge ids — exactly the PIKS worlds that saw the change;
///   a weight change moves a world's footprint only where it flips a
///   superset coin bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeys {
    /// `spread-cap` per-topic unit keys.
    pub cap: Vec<u64>,
    /// `pb-bound` per-topic unit keys.
    pub pb: Vec<u64>,
    /// `mis-tables` per-topic unit keys.
    pub mis: Vec<u64>,
    /// `topic-samples` key.
    pub samples: u64,
    /// `piks-worlds` *section* key (derivation inputs; per-world footprints
    /// gate the content).
    pub piks: u64,
    /// `autocomplete` key.
    pub names: u64,
    /// The live graph's [`GraphKeys::topology`]. No section is keyed on
    /// it: a donor PIKS section that recorded it (and the live edge count)
    /// was built over the live graph's edge ids, so the open screens its
    /// worlds by coin flips ([`crate::piks::recorded_shifts`]).
    pub topology: u64,
}

impl StageKeys {
    /// Compute every unit key for building `graph` under `config`.
    pub fn compute(graph: &TopicGraph, config: &OctopusConfig) -> Self {
        Self::from_keys(graph, &GraphKeys::of(graph), config, None)
    }

    /// Every unit key over `graph`'s already computed [`GraphKeys`], and
    /// its autocomplete key when the caller knows it
    /// ([`Autocomplete::input_key`] walks every node otherwise).
    pub(crate) fn from_keys(
        graph: &TopicGraph,
        keys: &GraphKeys,
        config: &OctopusConfig,
        names: Option<u64>,
    ) -> Self {
        let weights_topic = &keys.topics;
        StageKeys {
            cap: weights_topic
                .iter()
                .map(|&w| spread_cap_topic_key(w))
                .collect(),
            pb: weights_topic
                .iter()
                .map(|&w| {
                    PrecompBound::input_key_topic(
                        w,
                        config.mia_theta,
                        config.pb_safety,
                        super::needs_pb(config),
                    )
                })
                .collect(),
            mis: weights_topic
                .iter()
                .map(|&w| {
                    MisKim::input_key_topic(
                        w,
                        config.k_max,
                        config.mis_rr_per_topic,
                        config.seed,
                        super::needs_mis(config),
                    )
                })
                .collect(),
            samples: topic_samples_key(keys.topology, keys.weights, config),
            piks: InfluencerIndex::section_key(
                graph.node_count(),
                config.seed ^ super::PIKS_WORLD_SEED_XOR,
            ),
            names: names.unwrap_or_else(|| Autocomplete::input_key(graph)),
            topology: keys.topology,
        }
    }

    /// The expected key for a section tag (`None` for unknown tags or
    /// topic indices beyond this build's topic count).
    pub(crate) fn for_tag(&self, tag: u32) -> Option<u64> {
        let z = tag_topic(tag);
        match tag_base(tag) {
            SECTION_CAP => self.cap.get(z).copied(),
            SECTION_PB => self.pb.get(z).copied(),
            SECTION_MIS => self.mis.get(z).copied(),
            SECTION_SAMPLES if z == 0 => Some(self.samples),
            SECTION_PIKS if z == 0 => Some(self.piks),
            SECTION_NAMES if z == 0 => Some(self.names),
            _ => None,
        }
    }
}

/// The incremental-rebuild cache key of the `topic-samples` offline stage.
///
/// The stage samples query distributions (from `config.seed` and
/// `extra_samples`) and solves each with the configured best-effort engine,
/// reading topology, weights, the bound choice and its parameters, `k_max`,
/// and `mia_theta`. `direct_eps` is **deliberately excluded**: it only
/// tunes the online direct-answer radius, so retuning it reuses the cached
/// samples. When the engine is not `TopicSample`, the stage output is
/// empty and the key collapses to a shared "disabled" value.
fn topic_samples_key(topology: u64, weights: u64, config: &OctopusConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"octa:topic-samples");
    if let KimEngineChoice::TopicSample {
        bound,
        extra_samples,
        ..
    } = config.kim
    {
        h.write_u8(1)
            .write_u64(topology)
            .write_u64(weights)
            .write_u32(bound_tag(bound))
            .write_u64(extra_samples as u64)
            .write_u64(config.seed)
            .write_u64(config.k_max as u64)
            .write_f64(config.mia_theta)
            .write_f64(config.pb_safety)
            .write_u32(config.lg_depth)
            .write_f64(config.lg_safety);
    } else {
        h.write_u8(0);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Frame `artifacts` as an OCTA v8 sectioned container stamped with the
/// combined key `fp`, the per-unit `keys`, and the cache directory's
/// `write_seq` (see [`prune`]; callers outside a cache directory may pass
/// any value — the sequence never gates reuse). The payloads are already
/// encoded: this writes the header, the section table with each payload's
/// key and checksum, and the payloads.
///
/// Sections are laid out in [`section_order`] at ascending 8-aligned
/// offsets recorded in the table, with zero padding *before* any section
/// whose predecessor ends unaligned; checksums and lengths cover the
/// payload bytes only, never the padding.
pub fn encode(
    artifacts: &OfflineArtifacts,
    fp: &Fingerprint,
    keys: &StageKeys,
    write_seq: u64,
) -> Vec<u8> {
    let sections = &artifacts.sections;
    let table_len = sections.len() * wire::SECTION_ENTRY_LEN;
    let payload_len: usize = sections.iter().map(|(_, p)| wire::align8(p.len())).sum();
    let mut buf = Vec::with_capacity(HEADER_LEN + table_len + payload_len);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(0);
    buf.put_u64_le(fp.graph);
    buf.put_u64_le(fp.config);
    buf.put_u64_le(fp.seed);
    buf.put_u64_le(write_seq);
    buf.put_u32_le(sections.len() as u32);
    buf.put_u32_le(0);
    debug_assert_eq!(buf.len(), HEADER_LEN);
    let mut off = (HEADER_LEN + table_len) as u64;
    for (tag, payload) in sections {
        off = wire::align8(off as usize) as u64;
        wire::put_section_entry(
            &mut buf,
            &SectionEntry {
                tag: *tag,
                key: keys.for_tag(*tag).expect("keys and artifacts agree on Z"),
                off,
                len: payload.len() as u64,
                checksum: wire::checksum(payload),
            },
        );
        off += payload.len() as u64;
    }
    for (_, payload) in sections {
        buf.put_bytes(0, wire::pad8(buf.len()));
        buf.put_slice(payload);
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding / lookup
// ---------------------------------------------------------------------------

/// Read the combined fingerprint stamped in a container header
/// (diagnostics; reuse is decided by section keys, not by this).
pub(crate) fn read_fingerprint(raw: &[u8]) -> Result<Fingerprint, PersistError> {
    let mut buf = raw;
    wire::need(&buf, HEADER_LEN, "artifact header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::Corrupt(
            "bad magic (not an OCTA container)".into(),
        ));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(PersistError::Version(version));
    }
    if buf.get_u16_le() != 0 {
        return Err(PersistError::Corrupt("header pad word nonzero".into()));
    }
    Ok(Fingerprint {
        graph: buf.get_u64_le(),
        config: buf.get_u64_le(),
        seed: buf.get_u64_le(),
    })
}

/// Read the per-directory write sequence stamped in a container header
/// (the [`prune`] tie-break; never consulted for reuse).
pub fn read_write_seq(raw: &[u8]) -> Result<u64, PersistError> {
    read_fingerprint(raw)?; // validates length, magic, version
    let mut buf = &raw[32..];
    Ok(buf.get_u64_le())
}

/// Read the section count stamped in a container header.
pub(crate) fn read_section_count(raw: &[u8]) -> Result<usize, PersistError> {
    read_fingerprint(raw)?;
    let mut buf = &raw[40..];
    let count = buf.get_u32_le() as usize;
    if buf.get_u32_le() != 0 {
        return Err(PersistError::Corrupt(
            "header count pad word nonzero".into(),
        ));
    }
    Ok(count)
}

/// Salvage every reusable stage output from one encoded container.
///
/// Fails only on container-level damage (bad magic, stale version, an
/// unreadable section table): those mean nothing in the file can be
/// trusted. Section-level problems — key mismatch, checksum failure,
/// payload truncation, content that fails validation against the live
/// graph — are not errors; the affected section's slot stays empty and its
/// stage rebuilds. A slot is populated only when the section's stored key
/// equals the expected [`StageKeys`] entry **and** the payload passes the
/// structural check a view runs at open (for PIKS worlds,
/// [`crate::piks::PiksReuse::screen`]), so a populated slot is safe to hand to
/// [`super::build_with_reuse`] verbatim.
pub fn load_sections(
    raw: &[u8],
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
) -> Result<ReuseSlots, PersistError> {
    let (mut slots, mut timings) = (ReuseSlots::default(), LoadTimings::default());
    let donor = Donor::File(raw);
    load_sections_into(donor, keys, graph, config, &mut slots, &mut timings)?;
    Ok(slots)
}

/// Salvage every reusable stage output from the live epoch's artifact, the
/// one donor a flush reads: sections read as a query reads them (a damaged
/// one donates nothing), PIKS worlds screened by coin flips when `shifts`
/// is set ([`crate::piks::PiksReuse::screen`]).
pub(crate) fn load_live(
    live: &MappedArtifacts,
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
    shifts: Option<&[MaxShift]>,
) -> ReuseSlots {
    let (mut slots, mut timings) = (ReuseSlots::default(), LoadTimings::default());
    slots.topology = Some(keys.topology);
    let donor = Donor::Live(live, shifts);
    // a validated artifact's table is sound: nothing here can fail
    load_sections_into(donor, keys, graph, config, &mut slots, &mut timings).ok();
    slots
}

/// A cache file's bytes (payloads checksummed as read), or the live epoch's
/// artifact (payloads through its sticky verification) and the maxima the
/// flush moved, when it kept every edge id.
#[derive(Clone, Copy)]
enum Donor<'a> {
    File(&'a [u8]),
    Live(&'a MappedArtifacts, Option<&'a [MaxShift]>),
}

/// [`load_sections`], but accumulating into `slots` and checking **only
/// still-needed sections** — a scalar slot already filled by an earlier
/// donor is not re-checked (nor even checksummed), and the PIKS section is
/// skipped once every world up to `piks_index_size` is covered. A needed
/// PIKS section is verified, then screened into the accumulated world
/// slots in place ([`crate::piks::PiksReuse::screen`]), so donors union
/// world by world. Returns whether anything new was salvaged.
fn load_sections_into(
    donor: Donor<'_>,
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
    slots: &mut ReuseSlots,
    timings: &mut LoadTimings,
) -> Result<bool, PersistError> {
    let t_validate = std::time::Instant::now();
    let entries = match donor {
        Donor::File(raw) => {
            let section_count = read_section_count(raw)?; // validates magic + version
            let mut table = &raw[HEADER_LEN..];
            let table_len = section_count.saturating_mul(wire::SECTION_ENTRY_LEN);
            wire::need(&table, table_len, "section table")?;
            (0..section_count)
                .map(|_| wire::read_section_entry(&mut table, "section entry"))
                .collect::<Result<Vec<_>, _>>()?
        }
        Donor::Live(live, _) => live.entries().cloned().collect(),
    };
    timings.validate += t_validate.elapsed();

    let r = config.piks_index_size;
    let z_count = graph.num_topics();
    let mut salvaged = false;
    for (i, entry) in entries.iter().enumerate() {
        if keys.for_tag(entry.tag) != Some(entry.key) {
            continue; // stale inputs or unknown tag: the unit rebuilds
        }
        // the key matched, so a topic-granular tag's index is < z_count
        // (for_tag bounds it against this build's key vectors)
        let z = tag_topic(entry.tag);
        let needed = match tag_base(entry.tag) {
            SECTION_CAP => ensure_topics(&mut slots.cap, z_count)[z].is_none(),
            SECTION_PB => ensure_topics(&mut slots.pb, z_count)[z].is_none(),
            SECTION_MIS => ensure_topics(&mut slots.mis, z_count)[z].is_none(),
            SECTION_SAMPLES => slots.samples.is_none(),
            SECTION_PIKS => slots.piks.as_ref().is_none_or(|p| p.available_in(r) < r),
            SECTION_NAMES => slots.names.is_none(),
            _ => false,
        };
        if !needed {
            continue; // an earlier donor already supplied this unit
        }
        let t_validate = std::time::Instant::now();
        let payload = match donor {
            Donor::File(raw) => wire::section_payload(raw, entry).ok(),
            Donor::Live(live, _) => live.verified_section(i).ok(),
        };
        timings.validate += t_validate.elapsed();
        let Some(payload) = payload else {
            continue; // truncated or corrupted in place: the unit rebuilds
        };
        let t_decode = std::time::Instant::now();
        if tag_base(entry.tag) == SECTION_PIKS {
            let seed = config.seed ^ super::PIKS_WORLD_SEED_XOR;
            // a donor file recorded its graph's maxima: over the live
            // graph's edge ids its worlds screen by coin flips, as a flush
            // screens the live epoch
            let recorded;
            let shifts = match donor {
                Donor::File(_) => {
                    recorded = crate::piks::recorded_shifts(payload, graph, keys.topology);
                    recorded.as_deref()
                }
                Donor::Live(_, shifts) => shifts,
            };
            let piks = slots.piks.get_or_insert_default();
            salvaged |= piks
                .screen(payload, graph, seed, shifts)
                .is_ok_and(|filled| filled > 0);
        } else if check_unit(entry.tag, payload, graph, config).is_ok() {
            let unit = Some(payload.to_vec());
            match tag_base(entry.tag) {
                SECTION_CAP => slots.cap[z] = unit,
                SECTION_PB => slots.pb[z] = unit,
                SECTION_MIS => slots.mis[z] = unit,
                SECTION_SAMPLES => slots.samples = unit,
                _ => slots.names = unit,
            }
            salvaged = true;
        }
        timings.decode += t_decode.elapsed();
    }
    Ok(salvaged)
}

/// What a non-PIKS unit must pass to fill a reuse slot: the structural
/// check a view runs on it at open, and — for the PB and MIS units —
/// presence matching whether the configured engine needs the tables, plus
/// a present PB unit's stored safety equal to the live config's bitwise.
fn check_unit(
    tag: u32,
    raw: &[u8],
    graph: &TopicGraph,
    config: &OctopusConfig,
) -> Result<(), WireError> {
    let n = graph.node_count();
    let (present, needed) = match tag_base(tag) {
        SECTION_CAP => return decode_cap(raw).map(drop),
        SECTION_PB => {
            let parsed = PbTableView::parse_topic(raw, n)?;
            if let Some((safety, _)) = parsed {
                if safety.to_bits() != config.pb_safety.to_bits() {
                    return Err(WireError(format!(
                        "pb unit safety {safety} disagrees with config {}",
                        config.pb_safety
                    )));
                }
            }
            (parsed.is_some(), super::needs_pb(config))
        }
        SECTION_MIS => (
            MisView::parse(&[raw], n)?.is_some(),
            super::needs_mis(config),
        ),
        SECTION_SAMPLES => return decode_samples(raw, graph).map(drop),
        _ => return TrieView::parse(raw, n).map(drop),
    };
    if present != needed {
        return Err(WireError(
            "unit presence disagrees with the configured engine".into(),
        ));
    }
    Ok(())
}

/// Size a per-topic slot vector to the live topic count (idempotent).
fn ensure_topics<T>(v: &mut Vec<Option<T>>, z_count: usize) -> &mut Vec<Option<T>> {
    if v.len() < z_count {
        v.resize_with(z_count, || None);
    }
    v
}

pub(crate) fn decode_cap(raw: &[u8]) -> Result<f64, WireError> {
    if raw.len() != 8 {
        return Err(WireError(format!(
            "cap section is {} bytes, not 8",
            raw.len()
        )));
    }
    let mut buf = raw;
    Ok(buf.get_f64_le())
}

/// Encode the `topic-samples` unit: `count u32`, then per sample
/// `Z u32 | gamma Z × f64 | k u32 | seeds k × u32 | spread f64`.
pub(crate) fn encode_samples(samples: &[TopicSample]) -> Vec<u8> {
    let len: usize = samples
        .iter()
        .map(|s| 16 + s.gamma.num_topics() * 8 + s.seeds.len() * 4)
        .sum();
    let mut payload = Vec::with_capacity(4 + len);
    payload.put_u32_le(samples.len() as u32);
    for s in samples {
        payload.put_u32_le(s.gamma.num_topics() as u32);
        for &g in s.gamma.as_slice() {
            payload.put_f64_le(g);
        }
        payload.put_u32_le(s.seeds.len() as u32);
        for &u in &s.seeds {
            payload.put_u32_le(u.0);
        }
        payload.put_f64_le(s.spread);
    }
    payload
}

pub(crate) fn decode_samples(
    raw: &[u8],
    graph: &TopicGraph,
) -> Result<Vec<TopicSample>, WireError> {
    let num_topics = graph.num_topics();
    let node_count = graph.node_count();
    let mut buf = raw;
    wire::need(&buf, 4, "sample count")?;
    let sample_count = buf.get_u32_le() as usize;
    let mut samples = Vec::with_capacity(sample_count.min(1 << 16));
    for _ in 0..sample_count {
        wire::need(&buf, 4, "sample gamma size")?;
        let z = buf.get_u32_le() as usize;
        if z != num_topics {
            return Err(WireError(format!(
                "topic sample has {z} topics, graph has {num_topics}"
            )));
        }
        wire::need(&buf, z.saturating_mul(8), "sample gamma")?;
        let mut gamma = Vec::with_capacity(z);
        for _ in 0..z {
            gamma.push(buf.get_f64_le());
        }
        let gamma = TopicDistribution::from_normalized(gamma)
            .map_err(|e| WireError(format!("sample gamma invalid: {e}")))?;
        wire::need(&buf, 4, "sample seed count")?;
        let k = buf.get_u32_le() as usize;
        wire::need(&buf, k.saturating_mul(4) + 8, "sample seeds")?;
        let mut seeds = Vec::with_capacity(k);
        for _ in 0..k {
            let u = NodeId(buf.get_u32_le());
            if u.index() >= node_count {
                return Err(WireError(format!(
                    "topic sample seeds node {u} outside the graph ({node_count} nodes)"
                )));
            }
            seeds.push(u);
        }
        let spread = buf.get_f64_le();
        samples.push(TopicSample {
            gamma,
            seeds,
            spread,
        });
    }
    expect_drained(&buf, "samples section")?;
    Ok(samples)
}

fn expect_drained(buf: &&[u8], what: &str) -> Result<(), WireError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(WireError(format!(
            "{} trailing bytes after {what}",
            buf.len()
        )))
    }
}

/// Wall-clock breakdown of a cache [`lookup`], split the way the engine
/// reports a full artifact hit: reading bytes ([`STAGE_ARTIFACT_MAP`]),
/// header/table/checksum verification ([`STAGE_ARTIFACT_VALIDATE`]), and
/// payload parsing and screening ([`STAGE_ARTIFACT_DECODE`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadTimings {
    /// Time spent reading (or mapping) cache files.
    pub map: std::time::Duration,
    /// Time spent on header, table, and checksum validation.
    pub validate: std::time::Duration,
    /// Time spent parsing and screening section payloads (the structural
    /// checks a unit passes before it fills a reuse slot).
    pub decode: std::time::Duration,
}

impl LoadTimings {
    /// The three artifact stages a full hit reports, in load order.
    pub(crate) fn stages(&self) -> Vec<StageTiming> {
        [
            (STAGE_ARTIFACT_MAP, self.map),
            (STAGE_ARTIFACT_VALIDATE, self.validate),
            (STAGE_ARTIFACT_DECODE, self.decode),
        ]
        .into_iter()
        .map(|(stage, duration)| StageTiming { stage, duration })
        .collect()
    }
}

/// The result of a cache-directory [`lookup`]: merged reuse slots plus the
/// files that contributed them.
#[derive(Debug, Default)]
pub struct CacheLookup {
    /// Stage outputs salvaged from the cache, ready for
    /// [`super::build_with_reuse`].
    pub slots: ReuseSlots,
    /// Cache files at least one slot came from (exact-fingerprint file
    /// first when it contributed).
    pub sources: Vec<PathBuf>,
    /// Where the lookup's wall-clock went (telemetry for
    /// [`crate::engine::SystemReport`]).
    pub timings: LoadTimings,
    /// The exact-fingerprint file's bytes, kept when that file contributed:
    /// on a full hit it alone served, the engine serves these very bytes
    /// (every section it supplied was checksummed on the way in).
    pub exact: Option<Vec<u8>>,
}

/// Gather every reusable stage output available under `cache_dir` for the
/// given inputs.
///
/// The exact combined-fingerprint file is consulted first (on an unchanged
/// restart it satisfies everything by itself); then the directory's other
/// `.octa` files **newest first** — by header `write_seq`, ties by path —
/// each donating any still-missing section whose key matches. This is the
/// path a graph delta takes (a delta changes the combined fingerprint and
/// therefore the file name): the newest donor is the epoch closest to the
/// live graph, so it supplies most units and older ones fill the gaps.
/// Slots already satisfied by an earlier file are skipped without parsing;
/// PIKS world slots **union** across donors (two deltas that invalidated
/// disjoint world sets in different epoch files reassemble full coverage).
///
/// This is the **open path** only: a serving flush never scans the
/// directory, its one donor is the epoch it replaces (`load_live`). Cost
/// model: every visited file is read whole and its needed sections
/// checksummed; a world an earlier donor supplied is skipped on its offset
/// alone. A donor whose PIKS section recorded the live topology key and
/// edge count pays one `O(m)` compare of its maxima column with the live
/// graph, then the coin screen a flush runs: about |moved maxima| × R coin
/// hashes, none on an unchanged graph. Any other donor's missing worlds
/// are footprint-hashed over the live graph once per distinct stored node
/// list. A donor whose header is unreadable,
/// foreign, or of another version is dropped on its header, never read
/// whole; corrupt files are simply skipped: lookup degrades, it never
/// fails.
pub fn lookup(
    cache_dir: &Path,
    fp: &Fingerprint,
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
) -> CacheLookup {
    let exact = fp.cache_path(cache_dir);
    let mut candidates = vec![exact.clone()];
    if let Ok(entries) = std::fs::read_dir(cache_dir) {
        // a file whose header is foreign or another version is dropped on
        // those 48 bytes, before its body is read
        let mut others: Vec<(std::cmp::Reverse<u64>, PathBuf)> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "octa") && *p != exact)
            .filter_map(|p| Some((std::cmp::Reverse(file_write_seq(&p)?), p)))
            .collect();
        others.sort();
        candidates.extend(others.into_iter().map(|(_, p)| p));
    }
    let mut out = CacheLookup::default();
    out.slots.topology = Some(keys.topology);
    for path in candidates {
        if complete(&out.slots, graph, config) {
            break;
        }
        let t_map = std::time::Instant::now();
        let raw = std::fs::read(&path);
        out.timings.map += t_map.elapsed();
        let Ok(raw) = raw else {
            continue;
        };
        // accumulate directly: already-filled slots are skipped without
        // re-parsing, and PIKS world slots union across donor files
        let donor = Donor::File(&raw);
        if let Ok(true) =
            load_sections_into(donor, keys, graph, config, &mut out.slots, &mut out.timings)
        {
            if path == exact {
                out.exact = Some(raw);
            }
            out.sources.push(path);
        }
    }
    out
}

/// Whether `slots` already satisfies every work unit for `config` (lookup
/// can stop scanning).
fn complete(slots: &ReuseSlots, graph: &TopicGraph, config: &OctopusConfig) -> bool {
    fn all_topics<T>(v: &[Option<T>], z_count: usize) -> bool {
        v.len() >= z_count && v.iter().take(z_count).all(Option::is_some)
    }
    let z_count = graph.num_topics();
    let piks_done = graph.node_count() == 0
        || slots
            .piks
            .as_ref()
            .is_some_and(|p| p.available_in(config.piks_index_size) >= config.piks_index_size);
    all_topics(&slots.cap, z_count)
        && all_topics(&slots.pb, z_count)
        && all_topics(&slots.mis, z_count)
        && slots.samples.is_some()
        && slots.names.is_some()
        && piks_done
}

/// Write `artifacts` to `path` atomically (write to a sibling temp file,
/// then rename) so a crash mid-write never leaves a torn cache file under
/// the final name. The temp name embeds the process id **and** a per-call
/// counter, so neither two replicas on a shared cache directory nor two
/// threads of one process (engines are built concurrently in multi-tenant
/// services) ever interleave writes into the same temp file — last rename
/// wins, and every renamed file is whole. A failed write or rename removes
/// its temp file rather than leaking it into the cache directory.
pub fn save(
    artifacts: &OfflineArtifacts,
    fp: &Fingerprint,
    keys: &StageKeys,
    path: &Path,
) -> std::io::Result<()> {
    let write_seq = path.parent().map_or(1, next_write_seq);
    write_atomically(&encode(artifacts, fp, keys, write_seq), path)
}

/// [`save`] into `cache_dir` stamped with `write_seq` — one past the
/// newest sequence in the directory, which the caller carries
/// ([`next_write_seq`] once, then one more per save) — then [`prune`]
/// after a successful write; returns the encoded bytes, written or not.
/// No donor header is read unless the prune cut falls inside a run of
/// equal mtimes.
pub(crate) fn save_and_prune(
    artifacts: &OfflineArtifacts,
    fp: &Fingerprint,
    keys: &StageKeys,
    cache_dir: &Path,
    write_seq: u64,
) -> (Vec<u8>, std::io::Result<()>) {
    let path = fp.cache_path(cache_dir);
    let bytes = encode(artifacts, fp, keys, write_seq);
    let saved = write_atomically(&bytes, &path);
    if saved.is_ok() {
        prune(cache_dir, &[&path]);
    }
    (bytes, saved)
}

/// The atomic write behind [`save`] (see there).
fn write_atomically(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "octa.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&tmp, bytes))
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Every `.octa` file in `dir` with its mtime (a file without a readable
/// mtime is left out).
fn scan(dir: &Path) -> Vec<(std::time::SystemTime, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "octa"))
        .filter_map(|e| Some((e.metadata().and_then(|m| m.modified()).ok()?, e.path())))
        .collect()
}

/// One past the largest header write sequence of the `.octa` files in
/// `dir`, reading every header. Unreadable or foreign-version files count
/// as 0, so migrated v2 files restart it.
pub(crate) fn next_write_seq(dir: &Path) -> u64 {
    scan(dir)
        .iter()
        .filter_map(|(_, path)| file_write_seq(path))
        .max()
        .map_or(1, |m| m.saturating_add(1))
}

/// One file's header write sequence, read off its first [`HEADER_LEN`]
/// bytes; `None` when the file is unreadable, foreign, or of another
/// version (prune treats such a file as oldest, lookup skips it).
fn file_write_seq(path: &Path) -> Option<u64> {
    use std::io::Read;
    let mut header = [0u8; HEADER_LEN];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut header))
        .ok()?;
    read_write_seq(&header).ok()
}

/// How many `.octa` files [`prune`] retains per cache directory.
///
/// Every graph delta mints a new combined fingerprint and therefore a new
/// file, while older epochs stay behind as section donors for future
/// deltas. A handful of epochs is genuinely useful (different configs
/// sharing a directory, reverted deltas); unbounded growth is not — disk
/// and [`lookup`] scan time would grow linearly with deployment age (the
/// nightly `fit_warm` refit story). Sixteen balances donor coverage
/// against scan cost; deleting a cache file is always safe (worst case a
/// future open rebuilds).
pub const MAX_CACHE_FILES: usize = 16;

/// Bound the cache directory to [`MAX_CACHE_FILES`] `.octa` files by
/// deleting the oldest ones, never touching any path in `keep` — the files
/// the caller (or its co-tenants) just wrote. The keep-set matters the
/// moment more than one engine shares a cache directory: a sharded service
/// writes one artifact per shard, and a prune run by shard A that only
/// protected A's own file could evict shard B's newest artifact, forcing B
/// into a full rebuild on its next open. Each keep path occupies one
/// retained slot whether or not it exists yet. "Oldest" is modification
/// time, with ties broken by the header's write sequence and then by path:
/// on coarse-mtime filesystems a burst of delta write-backs lands with one
/// shared timestamp, and a lexicographic-only tie-break could evict the
/// newest donor epoch while keeping the oldest — the sequence restores
/// write order, and the path keeps the order total (deterministic) even
/// among files prune cannot parse. A file currently memory-mapped by this
/// process ([`super::view::is_mapped`]) is never a candidate: unlinking it
/// would not fault the live mapping on unix, but the cache directory would
/// silently stop containing the bytes a running replica is serving from —
/// the file is skipped and becomes evictable once its last view drops.
/// Errors are ignored — pruning is best-effort hygiene, not correctness.
pub fn prune(cache_dir: &Path, keep: &[&Path]) {
    let mut files: Vec<_> = scan(cache_dir)
        .into_iter()
        .filter(|(_, path)| !keep.iter().any(|k| path == *k) && !super::view::is_mapped(path))
        .collect();
    // every keep path occupies one retained slot
    let excess = (files.len() + keep.len()).saturating_sub(MAX_CACHE_FILES);
    if excess == 0 {
        return;
    }
    files.sort();
    // only the run of equal mtimes the cut falls inside needs the write
    // sequence: every other run goes or stays whole
    if let Some(cut) = files.get(excess).map(|f| f.0) {
        if files[excess - 1].0 == cut {
            let lo = files.partition_point(|f| f.0 < cut);
            let hi = files.partition_point(|f| f.0 <= cut);
            files[lo..hi]
                .sort_by_cached_key(|(_, path)| (file_write_seq(path).unwrap_or(0), path.clone()));
        }
    }
    for (_, path) in files.into_iter().take(excess) {
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use octopus_graph::{delta, GraphBuilder};

    /// Small 2-topic graph with names (so the autocomplete trie has content).
    fn tiny_graph() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        for i in 0..14 {
            b.add_node(format!("user-{i}"));
        }
        for v in 2..=7u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.6)]).unwrap();
        }
        for v in 8..=13u32 {
            b.add_edge(NodeId(1), NodeId(v), &[(1, 0.6)]).unwrap();
        }
        for v in 2..=4u32 {
            b.add_edge(NodeId(v), NodeId(v + 6), &[(0, 0.2), (1, 0.15)])
                .unwrap();
        }
        b.build().unwrap()
    }

    fn config(kim: KimEngineChoice) -> OctopusConfig {
        OctopusConfig {
            kim,
            piks_index_size: 300,
            mis_rr_per_topic: 600,
            k_max: 4,
            seed: 0xCAFE,
            ..Default::default()
        }
    }

    /// Every engine flavour, so every optional artifact field is exercised.
    fn all_configs() -> Vec<OctopusConfig> {
        vec![
            config(KimEngineChoice::Mis),
            config(KimEngineChoice::BestEffort(BoundKind::Precomputation)),
            config(KimEngineChoice::TopicSample {
                bound: BoundKind::Precomputation,
                extra_samples: 3,
                direct_eps: 0.05,
            }),
            config(KimEngineChoice::Naive),
        ]
    }

    /// Byte equality of every section payload — everything that is
    /// artifact state (the timings and reuse counters are telemetry and are
    /// not persisted).
    fn assert_artifacts_equal(a: &OfflineArtifacts, b: &OfflineArtifacts, what: &str) {
        let tags = |art: &OfflineArtifacts| art.payloads().map(|(t, _)| t).collect::<Vec<_>>();
        assert_eq!(tags(a), tags(b), "{what}: section tags");
        for ((tag, x), (_, y)) in a.payloads().zip(b.payloads()) {
            assert!(x == y, "{what}: section {tag:#x} payload differs");
        }
    }

    /// The payload of section `tag` in `art`.
    fn payload(art: &OfflineArtifacts, tag: u32) -> &[u8] {
        art.payloads()
            .find(|&(t, _)| t == tag)
            .expect("every tag")
            .1
    }

    /// Encode, reload, and reassemble through the same path the engine uses.
    fn round_trip(art: &OfflineArtifacts, g: &TopicGraph, cfg: &OctopusConfig) -> OfflineArtifacts {
        let fp = Fingerprint::compute(g, cfg);
        let keys = StageKeys::compute(g, cfg);
        let raw = encode(art, &fp, &keys, 1);
        let slots = load_sections(&raw, &keys, g, cfg).expect("container intact");
        offline::build_with_reuse(g, cfg, slots)
    }

    #[test]
    fn round_trip_every_field_every_engine() {
        let g = tiny_graph();
        for cfg in all_configs() {
            let art = offline::build(&g, &cfg);
            let back = round_trip(&art, &g, &cfg);
            assert!(
                back.fully_reused(),
                "unchanged inputs must reuse every stage under {:?}: {:?}",
                cfg.kim,
                back.reuse
            );
            assert!(
                back.timings.is_empty(),
                "fully reused stages report no build timings"
            );
            assert_artifacts_equal(&art, &back, &format!("{:?}", cfg.kim));
        }
    }

    #[test]
    fn reloaded_artifacts_re_encode_to_the_served_bytes() {
        // engines serve encoded bytes, so a reload that re-encodes to the
        // same bytes answers every query identically
        let g = tiny_graph();
        for cfg in all_configs() {
            let (fp, keys) = (Fingerprint::compute(&g, &cfg), StageKeys::compute(&g, &cfg));
            let art = offline::build(&g, &cfg);
            let back = round_trip(&art, &g, &cfg);
            assert!(encode(&art, &fp, &keys, 1) == encode(&back, &fp, &keys, 1));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let mut raw = encode(&offline::build(&g, &cfg), &fp, &keys, 1).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            load_sections(&raw, &keys, &g, &cfg),
            Err(PersistError::Corrupt(m)) if m.contains("magic")
        ));
    }

    #[test]
    fn rejects_stale_version_for_migration_by_rebuild() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let mut raw = encode(&offline::build(&g, &cfg), &fp, &keys, 1).to_vec();
        // a v1 file (or any other version) must be refused wholesale
        raw[4] = 0x01;
        raw[5] = 0x00;
        assert!(matches!(
            load_sections(&raw, &keys, &g, &cfg),
            Err(PersistError::Version(1))
        ));
        // v3 (the pre-mmap sectioned format) is likewise migrated by
        // rebuild, not parsed: its section table has no offset column
        raw[4] = 0x03;
        assert!(matches!(
            load_sections(&raw, &keys, &g, &cfg),
            Err(PersistError::Version(3))
        ));
        // v4 (stage-granular cap/PB/MIS sections) frames per-stage, not
        // per-topic, so it too migrates by rebuild
        raw[4] = 0x04;
        assert!(matches!(
            load_sections(&raw, &keys, &g, &cfg),
            Err(PersistError::Version(4))
        ));
    }

    #[test]
    fn truncation_salvages_only_intact_sections() {
        // every strict prefix must decode without panicking, reuse nothing
        // corrupted, and anything it does salvage must equal the original
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::TopicSample {
            bound: BoundKind::Precomputation,
            extra_samples: 2,
            direct_eps: 0.05,
        });
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let art = offline::build(&g, &cfg);
        let raw = encode(&art, &fp, &keys, 1);
        let mut salvaged_caps = 0usize;
        for cut in 0..raw.len() {
            let Ok(slots) = load_sections(&raw[..cut], &keys, &g, &cfg) else {
                continue; // header/table damage: clean error, nothing reused
            };
            // the last section (names) can never survive a strict prefix
            assert!(slots.names.is_none(), "cut at {cut} salvaged a cut trie");
            for (z, cap) in slots.cap.iter().enumerate() {
                if let Some(cap) = cap {
                    assert!(
                        cap == payload(&art, topic_tag(SECTION_CAP, z)),
                        "cut at {cut}: salvaged cap[{z}] differs"
                    );
                    salvaged_caps += 1;
                }
            }
            for (z, slot) in slots.pb.iter().enumerate() {
                if let Some(row) = slot {
                    assert!(
                        row == payload(&art, topic_tag(SECTION_PB, z)),
                        "cut at {cut}: salvaged pb[{z}] differs"
                    );
                }
            }
            if let Some(samples) = &slots.samples {
                assert!(samples == payload(&art, SECTION_SAMPLES), "cut at {cut}");
            }
        }
        assert!(salvaged_caps > 0, "long prefixes must salvage cap units");
    }

    #[test]
    fn single_byte_corruption_is_contained_to_its_section() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let art = offline::build(&g, &cfg);
        let clean = encode(&art, &fp, &keys, 1).to_vec();
        // the bytes actually covered by a section's `len`/checksum — a flip
        // in inter-section alignment padding is invisible by design, so the
        // probe positions must land inside real payloads
        let section_count = section_order(g.num_topics()).len();
        let covered: Vec<std::ops::Range<usize>> = {
            let mut table = &clean[HEADER_LEN..];
            (0..section_count)
                .map(|_| {
                    let e = wire::read_section_entry(&mut table, "test entry").unwrap();
                    e.off as usize..(e.off + e.len) as usize
                })
                .collect()
        };
        let payload_start = HEADER_LEN + section_count * wire::SECTION_ENTRY_LEN;
        for frac in [0.0, 0.25, 0.5, 0.75, 0.999] {
            let mut raw = clean.clone();
            let mut pos = payload_start + ((raw.len() - payload_start - 1) as f64 * frac) as usize;
            while !covered.iter().any(|r| r.contains(&pos)) {
                pos += 1; // step out of padding into the next payload
            }
            raw[pos] ^= 0x40;
            let slots = load_sections(&raw, &keys, &g, &cfg).expect("framing intact");
            let rebuilt = offline::build_with_reuse(&g, &cfg, slots);
            assert!(
                !rebuilt.fully_reused(),
                "flip at {pos} must invalidate its covering section"
            );
            // whatever was reused, the result is still exactly right
            assert_artifacts_equal(&art, &rebuilt, &format!("flip at {pos}"));
        }
    }

    #[test]
    fn foreign_graph_reuses_nothing_even_with_forged_keys() {
        // a writer can stamp any keys it likes into the table, so passing
        // the key check proves nothing about the content: decoding must
        // validate every dimension and id against the live graph
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let art = offline::build(&g, &cfg);

        // a graph with a different node count, stamped with ITS OWN keys so
        // every section-key comparison passes
        let small = {
            let mut b = GraphBuilder::new(2);
            for i in 0..4 {
                b.add_node(format!("s-{i}"));
            }
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5)]).unwrap();
            b.build().unwrap()
        };
        let forged_fp = Fingerprint::compute(&small, &cfg);
        let forged_keys = StageKeys::compute(&small, &cfg);
        let stamped = encode(&art, &forged_fp, &forged_keys, 1);
        let mut slots =
            load_sections(&stamped, &forged_keys, &small, &cfg).expect("framing intact");
        // PB is disabled under the Mis engine, so the only thing that may
        // cross graphs is the graph-independent absent marker
        assert!(
            slots
                .pb
                .iter()
                .flatten()
                .all(|unit| unit == &0u64.to_le_bytes()),
            "a present foreign PB row must not load"
        );
        assert!(
            slots.mis.iter().all(Option::is_none),
            "foreign MIS units must not load (their seed ids overflow)"
        );
        assert!(
            slots.piks.as_ref().map_or(0, |p| p.available()) == 0,
            "foreign worlds must fail footprint validation"
        );
        assert!(slots.names.is_none(), "foreign trie ids must not load");
        // a cap unit is a bare f64 with no graph-validatable structure, so a
        // *deliberately* forged key can misreport it (exactly as in v1,
        // where the cap was equally unvalidatable); honest keys never match
        // foreign inputs, which is what the StageKeys sensitivity tests pin
        slots.cap = Vec::new();
        let rebuilt = offline::build_with_reuse(&small, &cfg, slots);
        assert_artifacts_equal(
            &offline::build(&small, &cfg),
            &rebuilt,
            "rebuild after rejecting forged content",
        );
    }

    #[test]
    fn file_save_load_round_trip() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let art = offline::build(&g, &cfg);
        let dir = std::env::temp_dir().join("octopus_persist_test_v2");
        std::fs::remove_dir_all(&dir).ok();
        let path = fp.cache_path(&dir);
        save(&art, &fp, &keys, &path).unwrap();
        assert_eq!(
            read_fingerprint(&std::fs::read(&path).unwrap()).unwrap(),
            fp
        );
        let slots = load_sections(&std::fs::read(&path).unwrap(), &keys, &g, &cfg).unwrap();
        let back = offline::build_with_reuse(&g, &cfg, slots);
        assert!(back.fully_reused());
        assert_artifacts_equal(&art, &back, "file round trip");
        // the directory-level lookup finds the same file
        let found = lookup(&dir, &fp, &keys, &g, &cfg);
        assert_eq!(found.sources, vec![path.clone()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_not_panic() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let keys = StageKeys::compute(&g, &cfg);
        // lookup on a nonexistent directory degrades to an empty result
        let fp = Fingerprint::compute(&g, &cfg);
        let found = lookup(
            &std::env::temp_dir().join("octopus_no_such_cache_dir"),
            &fp,
            &keys,
            &g,
            &cfg,
        );
        assert!(found.sources.is_empty());
        assert!(!offline::build_with_reuse(&g, &cfg, found.slots).fully_reused());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let a = Fingerprint::compute(&g, &cfg);
        let b = Fingerprint::compute(&g, &cfg);
        assert_eq!(a, b, "identical inputs must key identically");
        let reseeded = Fingerprint::compute(
            &g,
            &OctopusConfig {
                seed: cfg.seed ^ 1,
                ..cfg.clone()
            },
        );
        assert_ne!(a.seed, reseeded.seed);
        let retuned = Fingerprint::compute(
            &g,
            &OctopusConfig {
                mia_theta: cfg.mia_theta * 0.5,
                ..cfg
            },
        );
        assert_ne!(a.config, retuned.config);
    }

    #[test]
    fn stage_keys_isolate_their_input_slices() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let base = StageKeys::compute(&g, &cfg);

        // rename: only the autocomplete stage is invalidated
        let renamed = delta::rename_node(&g, NodeId(3), "renamed-user").unwrap();
        let keys = StageKeys::compute(&renamed, &cfg);
        assert_eq!(keys.cap, base.cap);
        assert_eq!(keys.pb, base.pb);
        assert_eq!(keys.mis, base.mis);
        assert_eq!(keys.samples, base.samples);
        assert_eq!(keys.piks, base.piks);
        assert_ne!(keys.names, base.names);

        // weight nudge on EdgeId(0) — the hub edge 0→2, carrying topic 0
        // only: exactly topic 0's cap and MIS units are invalidated; topic
        // 1's units, names, and the piks derivation are not (worlds
        // re-screen by footprint instead)
        let nudged = delta::nudge_weights(&g, &[octopus_graph::EdgeId(0)], 0.05).unwrap();
        let keys = StageKeys::compute(&nudged, &cfg);
        assert_ne!(keys.cap[0], base.cap[0]);
        assert_eq!(keys.cap[1], base.cap[1], "foreign-topic cap unit moved");
        assert_ne!(keys.mis[0], base.mis[0]);
        assert_eq!(keys.mis[1], base.mis[1], "foreign-topic MIS unit moved");
        // pb/samples are disabled under the Mis engine, so their "absent"
        // markers survive the nudge (the enabled case is pinned below)
        assert_eq!(keys.pb, base.pb);
        assert_eq!(keys.samples, base.samples);
        assert_eq!(keys.names, base.names);
        assert_eq!(keys.piks, base.piks);

        // a nudge on EdgeId(12) — 2→8, carrying both topics — moves both
        let wide = delta::nudge_weights(&g, &[octopus_graph::EdgeId(12)], 0.05).unwrap();
        let keys = StageKeys::compute(&wide, &cfg);
        assert_ne!(keys.cap[0], base.cap[0]);
        assert_ne!(keys.cap[1], base.cap[1]);

        // reseed: only the randomized stages are invalidated, and every
        // MIS unit draws from a per-topic stream of the new seed
        let reseeded = OctopusConfig {
            seed: cfg.seed ^ 0xBEEF,
            ..cfg.clone()
        };
        let keys = StageKeys::compute(&g, &reseeded);
        assert_eq!(keys.cap, base.cap);
        assert_eq!(keys.pb, base.pb);
        assert_ne!(keys.mis[0], base.mis[0]);
        assert_ne!(keys.mis[1], base.mis[1]);
        assert_ne!(keys.piks, base.piks);
        assert_eq!(keys.names, base.names);

        // topic-0 units of every stage plus the singletons are pairwise
        // distinct (domain tags work) ...
        let all = [
            base.cap[0],
            base.pb[0],
            base.mis[0],
            base.samples,
            base.piks,
            base.names,
        ];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "keys {i} and {j} collide");
            }
        }
        // ... an enabled stage keys each topic's input slice separately ...
        assert_ne!(base.cap[0], base.cap[1]);
        assert_ne!(base.mis[0], base.mis[1]);
        // ... and a disabled stage's units share one absent-marker key, so
        // a single donor section can confirm absence for every topic
        assert_eq!(base.pb[0], base.pb[1]);
    }

    #[test]
    fn pb_key_nudge_only_moves_when_enabled() {
        let g = tiny_graph();
        let nudged = delta::nudge_weights(&g, &[octopus_graph::EdgeId(0)], 0.05).unwrap();
        // disabled PB (Mis engine): the pb section stores "absent" and its
        // key ignores the graph — a weight nudge reuses the absence marker
        let mis_cfg = config(KimEngineChoice::Mis);
        assert_eq!(
            StageKeys::compute(&g, &mis_cfg).pb,
            StageKeys::compute(&nudged, &mis_cfg).pb
        );
        // enabled PB: the nudge invalidates exactly the nudged topic's row
        // (EdgeId(0) carries topic 0 only)
        let pb_cfg = config(KimEngineChoice::BestEffort(BoundKind::Precomputation));
        let before = StageKeys::compute(&g, &pb_cfg).pb;
        let after = StageKeys::compute(&nudged, &pb_cfg).pb;
        assert_ne!(after[0], before[0]);
        assert_eq!(after[1], before[1], "foreign-topic PB unit must survive");
        // and enabled vs disabled never share a key
        assert_ne!(StageKeys::compute(&g, &mis_cfg).pb, before);
    }

    #[test]
    fn lookup_unions_piks_worlds_across_donor_epochs() {
        // two past epochs nudged different edges; for the live graph each
        // donor's valid worlds are the ones in which its nudge flipped no
        // coin — lookup must union them, not keep the single best donor
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let dir = std::env::temp_dir().join("octopus_persist_union_epochs");
        std::fs::remove_dir_all(&dir).ok();
        let e_a = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let e_b = g.find_edge(NodeId(1), NodeId(8)).unwrap();
        let mut epochs = Vec::new();
        for victim in [e_a, e_b] {
            let epoch = delta::nudge_weights(&g, &[victim], 0.3).unwrap();
            let fp = Fingerprint::compute(&epoch, &cfg);
            let keys = StageKeys::compute(&epoch, &cfg);
            save(
                &offline::build(&epoch, &cfg),
                &fp,
                &keys,
                &fp.cache_path(&dir),
            )
            .unwrap();
            epochs.push((victim, epoch));
        }
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let found = lookup(&dir, &fp, &keys, &g, &cfg);
        assert_eq!(found.sources.len(), 2, "both epochs must donate");
        let seed = cfg.seed ^ super::super::PIKS_WORLD_SEED_XOR;
        let reference = InfluencerIndex::build(&g, cfg.piks_index_size, seed);
        // a donor's world is stale iff it holds its victim's target and the
        // victim's coin lies between the donor's and the live maximum
        let coins = octopus_cascade::EdgeCoins::worlds(seed, reference.len());
        let stale = |j: usize, (victim, epoch): &(octopus_graph::EdgeId, TopicGraph)| {
            let (_, target) = g.edge_endpoints(*victim).unwrap();
            let c = coins[j].coin(*victim);
            reference.world_nodes(j).contains(&target.0)
                && (c < g.edge_prob_max(*victim) as f64)
                    != (c < epoch.edge_prob_max(*victim) as f64)
        };
        let stale_a = (0..reference.len())
            .filter(|&j| stale(j, &epochs[0]))
            .count();
        let expected = (0..reference.len())
            .filter(|&j| !stale(j, &epochs[0]) || !stale(j, &epochs[1]))
            .count();
        let piks = found.slots.piks.as_ref().expect("worlds salvaged");
        assert_eq!(piks.available_in(cfg.piks_index_size), expected);
        assert!(
            expected > reference.len() - stale_a,
            "the union must beat the best single donor"
        );
        // and the merged slots still reassemble bit-identically
        let rebuilt = offline::build_with_reuse(&g, &cfg, found.slots);
        assert!(payload(&rebuilt, SECTION_PIKS) == reference.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lookup_unions_topic_units_across_donor_epochs() {
        // two past epochs nudged edges confined to *different* topics; for
        // the live graph each donor's foreign-topic cap/PB/MIS units are
        // still bit-valid, so lookup must reassemble full per-topic
        // coverage from the pair even though neither donor alone covers
        // both topics
        let g = tiny_graph();
        let e_topic0 = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let e_topic1 = g.find_edge(NodeId(1), NodeId(8)).unwrap();
        let configs = [
            config(KimEngineChoice::Mis),
            config(KimEngineChoice::BestEffort(BoundKind::Precomputation)),
        ];
        for (i, cfg) in configs.into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("octopus_persist_topic_union_{i}"));
            std::fs::remove_dir_all(&dir).ok();
            for victim in [e_topic0, e_topic1] {
                let epoch = delta::nudge_weights(&g, &[victim], 0.07).unwrap();
                let fp = Fingerprint::compute(&epoch, &cfg);
                let keys = StageKeys::compute(&epoch, &cfg);
                save(
                    &offline::build(&epoch, &cfg),
                    &fp,
                    &keys,
                    &fp.cache_path(&dir),
                )
                .unwrap();
            }
            let fp = Fingerprint::compute(&g, &cfg);
            let keys = StageKeys::compute(&g, &cfg);
            let found = lookup(&dir, &fp, &keys, &g, &cfg);
            assert_eq!(found.sources.len(), 2, "both epochs must donate");
            let rebuilt = offline::build_with_reuse(&g, &cfg, found.slots);
            for r in &rebuilt.reuse {
                if matches!(r.stage, "spread-cap" | "pb-bound" | "mis-tables") {
                    assert!(
                        r.is_full(),
                        "stage {} must union to full coverage: {r:?}",
                        r.stage
                    );
                }
            }
            assert_artifacts_equal(&offline::build(&g, &cfg), &rebuilt, "per-topic donor union");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Flip one byte inside the PIKS section payload of the container at
    /// `path`: the section's checksum then fails, so it donates nothing.
    fn corrupt_piks_section(path: &Path) {
        let mut raw = std::fs::read(path).unwrap();
        let mut table = &raw[HEADER_LEN..];
        let piks = (0..read_section_count(&raw).unwrap())
            .map(|_| wire::read_section_entry(&mut table, "test entry").unwrap())
            .find(|e| e.tag == SECTION_PIKS)
            .expect("every container has a PIKS section");
        raw[(piks.off + piks.len / 2) as usize] ^= 0x40;
        std::fs::write(path, raw).unwrap();
    }

    #[test]
    fn newest_first_scan_screens_the_union_of_every_donor_alone() {
        // a chain of 16 nudge epochs, each saved as a donor: repeated
        // victims invalidate overlapping world sets, distinct targets
        // disjoint ones; one extra donor carries a larger index and one
        // epoch's PIKS section is corrupted. The live graph nudges once
        // more, so no donor covers every world and the scan visits all.
        let cfg = config(KimEngineChoice::Mis);
        let large = OctopusConfig {
            piks_index_size: 400,
            ..cfg.clone()
        };
        let dir = std::env::temp_dir().join("octopus_persist_scan_union");
        std::fs::remove_dir_all(&dir).ok();
        let save_epoch = |g: &TopicGraph, cfg: &OctopusConfig| {
            let fp = Fingerprint::compute(g, cfg);
            let keys = StageKeys::compute(g, cfg);
            save(&offline::build(g, cfg), &fp, &keys, &fp.cache_path(&dir)).unwrap();
            fp.cache_path(&dir)
        };
        let nudge = |g: &TopicGraph, (s, t): (u32, u32)| {
            let e = g.find_edge(NodeId(s), NodeId(t)).unwrap();
            delta::nudge_weights(g, &[e], 0.3).unwrap()
        };
        let victims = [
            (0, 2),
            (1, 8),
            (0, 2),
            (0, 3),
            (2, 8),
            (1, 9),
            (0, 3),
            (3, 9),
            (0, 4),
            (1, 10),
            (4, 10),
            (0, 5),
            (1, 11),
            (0, 2),
            (1, 8),
            (0, 6),
        ];
        let mut g = tiny_graph();
        let mut donors = Vec::new();
        for (i, &victim) in victims.iter().enumerate() {
            g = nudge(&g, victim);
            donors.push(save_epoch(&g, &cfg));
            if i == 5 {
                donors.push(save_epoch(&g, &large));
            }
            if i == 9 {
                corrupt_piks_section(donors.last().unwrap());
            }
        }
        let live = nudge(&g, (0, 7));
        let fp = Fingerprint::compute(&live, &cfg);
        let keys = StageKeys::compute(&live, &cfg);
        let found = lookup(&dir, &fp, &keys, &live, &cfg);

        // reference: every donor screened alone into a fresh accumulator,
        // then the positional union
        let alone: Vec<Vec<bool>> = donors
            .iter()
            .map(|path| {
                let raw = std::fs::read(path).unwrap();
                let slots = load_sections(&raw, &keys, &live, &cfg).unwrap();
                slots.piks.map_or_else(Vec::new, |p| p.reusable_worlds())
            })
            .collect();
        let mut union: Vec<bool> = Vec::new();
        for worlds in &alone {
            if worlds.len() > union.len() {
                union.resize(worlds.len(), false);
            }
            for (u, &w) in union.iter_mut().zip(worlds) {
                *u |= w;
            }
        }
        let piks = found.slots.piks.as_ref().expect("worlds salvaged");
        assert_eq!(piks.reusable_worlds(), union);
        assert_eq!(piks.len(), 400, "the larger donor's tail is screened too");
        let r = cfg.piks_index_size;
        assert!(piks.available_in(r) < r, "no donor saw the live nudge");
        let newest_alone = alone.last().unwrap().iter().filter(|&&w| w).count();
        assert!(piks.available() > newest_alone, "older donors fill gaps");

        // the newest contributing donor comes first, the rest follow in
        // descending write sequence
        assert_eq!(found.sources.first(), donors.last());
        let seqs: Vec<u64> = found
            .sources
            .iter()
            .map(|p| file_write_seq(p).expect("a donor's header reads"))
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] > w[1]), "{seqs:?}");

        // and the reassembled artifacts encode byte-identically
        let rebuilt = offline::build_with_reuse(&live, &cfg, found.slots);
        assert!(
            encode(&rebuilt, &fp, &keys, 1) == encode(&offline::build(&live, &cfg), &fp, &keys, 1),
            "reused and fresh artifacts must encode identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_bounds_the_directory_and_never_deletes_keep() {
        let dir = std::env::temp_dir().join("octopus_persist_prune_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let keep = dir.join("octopus-artifacts-keep.octa");
        for i in 0..MAX_CACHE_FILES + 5 {
            let p = dir.join(format!("octopus-artifacts-{i:02}.octa"));
            std::fs::write(&p, vec![i as u8; 4]).unwrap();
            // distinct explicit mtimes: the oldest-first eviction order is
            // well-defined whatever the filesystem's mtime resolution
            set_mtime(&p, i as u64);
        }
        std::fs::write(&keep, b"kept").unwrap();
        prune(&dir, &[&keep]);
        let remaining: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "octa"))
            .collect();
        assert_eq!(remaining.len(), MAX_CACHE_FILES, "bounded to the cap");
        assert!(remaining.contains(&keep), "the kept file must survive");
        assert!(
            !remaining.contains(&dir.join("octopus-artifacts-00.octa")),
            "the oldest epoch must be the one evicted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keep_set_protects_every_co_tenant_writer() {
        // two engines (shards) share one cache directory; writer A prunes
        // after its own save, and writer B's newest artifact — the OLDEST
        // candidate by mtime, since B wrote before the flood — must survive
        // because A passed it in the keep-set
        let dir = std::env::temp_dir().join("octopus_persist_prune_two_writers");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let keep_b = dir.join("octopus-artifacts-writer-b.octa");
        std::fs::write(&keep_b, b"writer b").unwrap();
        set_mtime(&keep_b, 0);
        for i in 0..MAX_CACHE_FILES + 5 {
            let p = dir.join(format!("octopus-artifacts-{i:02}.octa"));
            std::fs::write(&p, vec![i as u8; 4]).unwrap();
            set_mtime(&p, 1 + i as u64);
        }
        let keep_a = dir.join("octopus-artifacts-writer-a.octa");
        std::fs::write(&keep_a, b"writer a").unwrap();
        prune(&dir, &[&keep_a, &keep_b]);
        let remaining: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "octa"))
            .collect();
        assert_eq!(remaining.len(), MAX_CACHE_FILES, "bounded to the cap");
        assert!(remaining.contains(&keep_a), "writer a's file must survive");
        assert!(
            remaining.contains(&keep_b),
            "writer b's newest artifact must survive a's prune"
        );
        // with both keeps occupying slots, the 7 oldest flood files go
        assert!(!remaining.contains(&dir.join("octopus-artifacts-00.octa")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stamp `path`'s mtime `secs` seconds past a fixed instant, so tests
    /// order files by mtime without sleeping between writes.
    fn set_mtime(path: &Path, secs: u64) {
        let stamp = std::time::SystemTime::UNIX_EPOCH
            + std::time::Duration::from_secs(1_700_000_000 + secs);
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(stamp)
            .unwrap();
    }

    /// A header-only v8 container carrying `write_seq` (zero sections —
    /// structurally valid, enough for the prune ordering to read).
    fn write_header_only(path: &Path, write_seq: u64) {
        let mut raw = Vec::with_capacity(HEADER_LEN);
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&0u16.to_le_bytes());
        for w in [1u64, 2, 3] {
            raw.extend_from_slice(&w.to_le_bytes());
        }
        raw.extend_from_slice(&write_seq.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(raw.len(), HEADER_LEN);
        std::fs::write(path, raw).unwrap();
    }

    #[test]
    fn prune_equal_mtime_burst_evicts_by_write_sequence() {
        // a burst of delta write-backs on a coarse-mtime filesystem: every
        // file shares one mtime, and the newest epochs get the
        // lexicographically SMALLEST names, so a path-only tie-break would
        // evict exactly the wrong files; the header write sequence must
        // restore write order
        let dir = std::env::temp_dir().join("octopus_persist_prune_burst");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let total = MAX_CACHE_FILES + 4;
        let name_for = |seq: usize| {
            // seq 1 (oldest) → largest name, seq `total` (newest) → smallest
            dir.join(format!("octopus-artifacts-{:02}.octa", total - seq))
        };
        let paths: Vec<PathBuf> = (1..=total).map(name_for).collect();
        for (i, p) in paths.iter().enumerate() {
            write_header_only(p, (i + 1) as u64);
        }
        let keep = dir.join("octopus-artifacts-keep.octa");
        write_header_only(&keep, (total + 1) as u64);
        // collapse every mtime onto one timestamp, as a burst within the
        // filesystem's granularity would
        for p in paths.iter().chain([&keep]) {
            set_mtime(p, 0);
        }
        prune(&dir, &[&keep]);
        let remaining: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "octa"))
            .collect();
        assert_eq!(remaining.len(), MAX_CACHE_FILES, "bounded to the cap");
        assert!(remaining.contains(&keep), "the kept file must survive");
        // keep occupies one slot, so the 5 oldest write sequences go
        for seq in 1..=total - (MAX_CACHE_FILES - 1) {
            assert!(
                !remaining.contains(&name_for(seq)),
                "oldest epoch seq {seq} must be evicted"
            );
        }
        for seq in total - (MAX_CACHE_FILES - 1) + 1..=total {
            assert!(
                remaining.contains(&name_for(seq)),
                "newest epoch seq {seq} must survive the burst"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_stamps_an_increasing_write_sequence() {
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let dir = std::env::temp_dir().join("octopus_persist_write_seq");
        std::fs::remove_dir_all(&dir).ok();
        let art = offline::build(&g, &cfg);
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let first = dir.join("octopus-artifacts-first.octa");
        save(&art, &fp, &keys, &first).unwrap();
        let seq1 = read_write_seq(&std::fs::read(&first).unwrap()).unwrap();
        let second = dir.join("octopus-artifacts-second.octa");
        save(&art, &fp, &keys, &second).unwrap();
        let seq2 = read_write_seq(&std::fs::read(&second).unwrap()).unwrap();
        assert!(seq2 > seq1, "later writes must order after earlier ones");
        // overwriting an existing name still advances past every file
        save(&art, &fp, &keys, &first).unwrap();
        let seq3 = read_write_seq(&std::fs::read(&first).unwrap()).unwrap();
        assert!(seq3 > seq2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_file_merge_reuses_sections_from_an_older_epoch() {
        // the delta story end to end at the persist layer: epoch 1 is
        // cached; the graph is renamed (epoch 2); lookup must salvage every
        // non-name section from epoch 1's differently-named file
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let dir = std::env::temp_dir().join("octopus_persist_cross_epoch");
        std::fs::remove_dir_all(&dir).ok();
        let fp1 = Fingerprint::compute(&g, &cfg);
        let keys1 = StageKeys::compute(&g, &cfg);
        let art = offline::build(&g, &cfg);
        save(&art, &fp1, &keys1, &fp1.cache_path(&dir)).unwrap();

        let renamed = delta::rename_node(&g, NodeId(0), "the-new-hub").unwrap();
        let fp2 = Fingerprint::compute(&renamed, &cfg);
        assert_ne!(fp1, fp2, "rename must change the combined fingerprint");
        let keys2 = StageKeys::compute(&renamed, &cfg);
        let found = lookup(&dir, &fp2, &keys2, &renamed, &cfg);
        assert_eq!(found.sources, vec![fp1.cache_path(&dir)]);
        let rebuilt = offline::build_with_reuse(&renamed, &cfg, found.slots);
        assert!(!rebuilt.fully_reused(), "the trie must rebuild");
        for r in &rebuilt.reuse {
            match r.stage {
                "autocomplete" => assert_eq!(r.reused, 0, "renamed trie reused"),
                _ => assert!(r.is_full(), "stage {} should be reused: {r:?}", r.stage),
            }
        }
        assert_artifacts_equal(
            &offline::build(&renamed, &cfg),
            &rebuilt,
            "partial rebuild after rename",
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `art` with section `tag`'s payload passed through `forge`, framed
    /// under the honest keys: every key matches and every checksum holds.
    fn forged(
        art: &OfflineArtifacts,
        g: &TopicGraph,
        cfg: &OctopusConfig,
        tag: u32,
        forge: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut art = art.clone();
        let (_, unit) = art.sections.iter_mut().find(|(t, _)| *t == tag).unwrap();
        forge(unit);
        encode(
            &art,
            &Fingerprint::compute(g, cfg),
            &StageKeys::compute(g, cfg),
            1,
        )
    }

    #[test]
    fn a_reused_world_must_keep_its_derived_root() {
        // world j swaps its root for node 0 (no in-edges, so a one-node
        // world with no stored edges is self-consistent), its footprint is
        // recomputed over the live graph, and the container is framed
        // anew: key, checksum, structure, coin seed and footprint all hold,
        // but a fresh build of world j draws another root
        let g = tiny_graph();
        let cfg = config(KimEngineChoice::Mis);
        let art = offline::build(&g, &cfg);
        let view = crate::piks::PiksWorldsView::parse(payload(&art, SECTION_PIKS)).unwrap();
        let j = (0..view.len())
            .find(|&j| view.world(j).node_count() == 1 && view.world(j).node(0) != 0)
            .expect("a one-node world rooted elsewhere");
        let coins = octopus_cascade::EdgeCoins::new(view.world(j).coin_seed());
        let raw = forged(&art, &g, &cfg, SECTION_PIKS, |unit| {
            let lo = crate::piks::PiksWorldsView::parse(unit)
                .unwrap()
                .world_start(j);
            let footprint = crate::piks::footprint_hash(&g, &[0], coins);
            unit[lo..lo + 8].copy_from_slice(&footprint.to_le_bytes());
            unit[lo + 40..lo + 44].copy_from_slice(&0u32.to_le_bytes()); // node 0
            unit[lo + 48..lo + 52].copy_from_slice(&0u32.to_le_bytes()); // its lookup pair
        });
        let keys = StageKeys::compute(&g, &cfg);
        let slots = load_sections(&raw, &keys, &g, &cfg).unwrap();
        let piks = slots.piks.as_ref().unwrap();
        assert_eq!(piks.available(), cfg.piks_index_size - 1);
        assert!(!piks.reusable_worlds()[j], "the forged world must rebuild");
        assert_artifacts_equal(&art, &offline::build_with_reuse(&g, &cfg, slots), "root");
    }

    #[test]
    fn forged_but_checksummed_malformed_units_rebuild() {
        let mis = config(KimEngineChoice::Mis);
        let pb = config(KimEngineChoice::BestEffort(BoundKind::Precomputation));
        let ts = config(KimEngineChoice::TopicSample {
            bound: BoundKind::Precomputation,
            extra_samples: 2,
            direct_eps: 0.05,
        });
        let n = tiny_graph().node_count();
        type Forge = Box<dyn Fn(&mut Vec<u8>)>;
        let rows: Vec<(&str, &OctopusConfig, u32, &str, Forge)> = vec![
            (
                "cap length != 8",
                &mis,
                topic_tag(SECTION_CAP, 0),
                "spread-cap",
                Box::new(|u| u.extend([0; 8])),
            ),
            (
                "pb safety != config",
                &pb,
                topic_tag(SECTION_PB, 0),
                "pb-bound",
                Box::new(|u| u[8..16].copy_from_slice(&1.5f64.to_le_bytes())),
            ),
            (
                "pb presence != engine",
                &mis,
                topic_tag(SECTION_PB, 1),
                "pb-bound",
                Box::new(move |u| {
                    let row = vec![1.0; n];
                    *u = crate::kim::bounds::encode_pb_topic_section(Some(&row), mis.pb_safety);
                }),
            ),
            (
                "mis ids not ascending",
                &mis,
                topic_tag(SECTION_MIS, 0),
                "mis-tables",
                Box::new(|u| {
                    assert!(u64::from_le_bytes(u[8..16].try_into().unwrap()) >= 2);
                    let second: [u8; 4] = u[20..24].try_into().unwrap();
                    u[16..20].copy_from_slice(&second);
                }),
            ),
            (
                "samples gamma width != Z",
                &ts,
                SECTION_SAMPLES,
                "topic-samples",
                Box::new(|u| u[4..8].copy_from_slice(&3u32.to_le_bytes())),
            ),
            (
                "trie child offset not preorder",
                &mis,
                SECTION_NAMES,
                "autocomplete",
                Box::new(|u| {
                    let off = u64::from_le_bytes(u[24..32].try_into().unwrap());
                    u[24..32].copy_from_slice(&(off + 8).to_le_bytes());
                }),
            ),
            (
                "piks CSR offsets malformed",
                &mis,
                SECTION_PIKS,
                "piks-worlds",
                Box::new(|u| {
                    let lo = crate::piks::PiksWorldsView::parse(u)
                        .unwrap()
                        .world_start(0);
                    let w = u64::from_le_bytes(u[lo + 24..lo + 32].try_into().unwrap()) as usize;
                    let offsets = lo + wire::align8(40 + 4 * w) + 8 * w;
                    u[offsets..offsets + 4].copy_from_slice(&1u32.to_le_bytes());
                }),
            ),
        ];
        let g = tiny_graph();
        for (what, cfg, tag, stage, forge) in rows {
            let art = offline::build(&g, cfg);
            let raw = forged(&art, &g, cfg, tag, forge);
            let keys = StageKeys::compute(&g, cfg);
            let slots = load_sections(&raw, &keys, &g, cfg).expect("framing intact");
            let rebuilt = offline::build_with_reuse(&g, cfg, slots);
            for r in &rebuilt.reuse {
                // a malformed PIKS world refuses its whole donor section
                let expected = match r.stage {
                    "piks-worlds" if r.stage == stage => 0,
                    s if s == stage => r.total - 1,
                    _ => r.total,
                };
                assert_eq!(r.reused, expected, "{what}: {r:?}");
            }
            assert_artifacts_equal(&art, &rebuilt, what);
        }
    }
}
