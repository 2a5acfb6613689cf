//! Zero-copy artifacts: every engine serves queries straight off one
//! validated OCTA v8 container — memory-mapped from its cache file, or held
//! on the heap — instead of decoding it into owned structures.
//!
//! ## Why
//!
//! The OCTA v8 layout (its units unchanged since v6) needs no decode step: sections are flat, fixed-width,
//! 8-aligned, and offset-indexed, so the operators read `from_le_bytes`
//! straight off the bytes. [`open`] maps a cache file and validates it —
//! header, section table, and only the sections that are small or
//! structurally cheap to walk — so startup is `O(pages touched)` and
//! replicas mapping the same file share its page cache. An engine that
//! built (or partially reused) its artifacts frames the stages' unit
//! payloads once and hands those bytes to the same validator; there is one
//! in-memory shape and one set of read kernels whichever backing holds the
//! bytes.
//!
//! ## Validation strategy
//!
//! Always:
//!
//! * header + section table: magic, version, exact combined fingerprint,
//!   canonical section order, per-unit key equality, 8-aligned in-bounds
//!   monotone offsets, exact container length;
//! * `cap` units + `samples`: full decode (tiny, and eagerly needed — the
//!   per-topic caps combine into the global cap at open);
//! * `names`: full structural walk (per-query lookups then run
//!   `O(|name|)` via `TrieView::assume_checked`);
//! * `pb` / `mis`: structural parse of every topic unit (header
//!   arithmetic, offset tables);
//! * `piks`: `O(R)` world framing walk — per-world payloads untouched.
//!
//! Checksums depend on where the bytes came from. Bytes this process
//! encoded never touched a disk, and bytes [`super::persist::lookup`] read
//! were checksummed section by section as it read them: both enter with
//! every section verified. A mapped file checksums its eager sections at
//! open and defers the rest **once, to first operator touch**
//! ([`MappedArtifacts::pb_view`] / [`MappedArtifacts::mis_view`] /
//! [`MappedArtifacts::piks_view`]), recorded in a sticky per-section state:
//! a section that fails verification fails every subsequent touch with
//! [`CoreError::Artifact`] — the engine fails closed rather than serving
//! from damaged bytes. Opening with `paranoid = true` ([`open`]) verifies
//! every checksum up front instead.
//!
//! A mapped open serves only a **complete, exact** file: same combined
//! fingerprint, every stage key equal. Merging donor sections across files
//! is the rebuild path's job, whose merged units are then framed anew.
//!
//! ## Prune integration
//!
//! Every live file mapping registers its canonical path in a
//! process-global registry; [`is_mapped`] is consulted by
//! [`super::persist::prune`] so the cache janitor never unlinks a file a
//! running engine is serving from. The registration drops with the last
//! [`MappedArtifacts`] clone. Heap-backed artifacts never register.

#![warn(missing_docs)]

use super::persist::{self, Fingerprint, PersistError, StageKeys};
use super::{needs_mis, needs_pb, StageReuse, StageTiming, STAGE_ORDER};
use crate::autocomplete::TrieView;
use crate::engine::OctopusConfig;
use crate::error::CoreError;
use crate::kim::bounds::PbTableView;
use crate::kim::mis::MisView;
use crate::kim::topic_sample::TopicSample;
use crate::piks::PiksWorldsView;
use mmap::Mmap;
use octopus_graph::{wire, TopicGraph};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Section indices within the canonical table (mirror
/// [`persist::section_order`]): cap units occupy `0..Z`, PB units
/// `Z..2Z`, MIS units `2Z..3Z`, then the three singletons.
const fn i_cap(_z_count: usize, z: usize) -> usize {
    z
}
const fn i_pb(z_count: usize, z: usize) -> usize {
    z_count + z
}
const fn i_mis(z_count: usize, z: usize) -> usize {
    2 * z_count + z
}
const fn i_samples(z_count: usize) -> usize {
    3 * z_count
}
const fn i_piks(z_count: usize) -> usize {
    3 * z_count + 1
}
const fn i_names(z_count: usize) -> usize {
    3 * z_count + 2
}

/// Lazy-checksum states (sticky; see the module docs).
const UNVERIFIED: u8 = 0;
const VERIFIED: u8 = 1;
const DAMAGED: u8 = 2;

/// One validated section-table entry plus its sticky verification state.
struct SectionMeta {
    entry: wire::SectionEntry,
    state: AtomicU8,
}

/// The shared innards of an artifact (one per validation; reference
/// counted so engine clones share the bytes and the registry entry).
struct MapInner {
    map: Mmap,
    /// The registry key of a file mapping; `None` for heap bytes.
    reg_key: Option<PathBuf>,
    sections: Vec<SectionMeta>,
    // graph dimensions the views re-validate against on reconstruction
    num_topics: usize,
    node_count: usize,
    // eagerly decoded small sections
    cap: f64,
    samples: Vec<TopicSample>,
    // the PIKS framing validated at open, detached from the bytes and
    // rebound per query (counts for reporting come from it too)
    piks: PiksWorldsView<'static>,
    // synthetic open telemetry (map / validate / decode)
    timings: Vec<StageTiming>,
    reuse: Vec<StageReuse>,
}

impl Drop for MapInner {
    fn drop(&mut self) {
        if let Some(key) = &self.reg_key {
            deregister(key);
        }
    }
}

/// A complete, validated OCTA v8 artifact served zero-copy — off a file
/// mapping ([`open`]) or off heap bytes the engine encoded or read.
///
/// Every engine holds one of these and reconstructs per-query views through
/// the accessors. Cloning shares the bytes (cheap `Arc` clone).
#[derive(Clone)]
pub struct MappedArtifacts {
    inner: Arc<MapInner>,
}

impl std::fmt::Debug for MappedArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedArtifacts")
            .field("mapped", &self.inner.reg_key)
            .field("bytes", &self.inner.map.len())
            .field("piks_total", &self.inner.piks.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The live-mapping registry (prune integration)
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<HashMap<PathBuf, usize>> {
    static REG: OnceLock<Mutex<HashMap<PathBuf, usize>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Canonical registry key for a path (symlink/relative-path robust; falls
/// back to the verbatim path when canonicalization fails).
fn canon(path: &Path) -> PathBuf {
    path.canonicalize().unwrap_or_else(|_| path.to_path_buf())
}

fn register(path: &Path) -> PathBuf {
    let key = canon(path);
    if let Ok(mut reg) = registry().lock() {
        *reg.entry(key.clone()).or_insert(0) += 1;
    }
    key
}

fn deregister(key: &Path) {
    if let Ok(mut reg) = registry().lock() {
        if let Some(n) = reg.get_mut(key) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                reg.remove(key);
            }
        }
    }
}

/// Whether any live [`MappedArtifacts`] in this process is currently
/// serving from `path` ([`persist::prune`] skips such files).
pub fn is_mapped(path: &Path) -> bool {
    registry()
        .lock()
        .map(|reg| reg.contains_key(&canon(path)))
        .unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------------

/// Map `path` and validate it as a complete OCTA v8 artifact for exactly
/// these inputs (see the module docs for what "validate" touches; with
/// `paranoid` every section checksum is verified up front).
///
/// Any mismatch — foreign fingerprint, stale stage key, non-canonical
/// layout, damaged eager section — is an error; the caller falls back to
/// the rebuild path (which can still salvage matching sections).
pub fn open(
    path: &Path,
    fp: &Fingerprint,
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
    paranoid: bool,
) -> Result<MappedArtifacts, PersistError> {
    let t0 = Instant::now();
    let map = Mmap::map_file(path).map_err(|e| PersistError::Io(e.to_string()))?;
    let mut inner = validate(map, t0.elapsed(), false, fp, keys, graph, config, paranoid)?;
    inner.reg_key = Some(register(path));
    Ok(MappedArtifacts {
        inner: Arc::new(inner),
    })
}

/// Validate heap bytes — encoded by this process, or read and checksummed
/// by [`persist::lookup`] — as a complete OCTA v8 artifact for exactly these
/// inputs. Every section enters verified; the structural checks are
/// [`open`]'s.
pub(crate) fn from_bytes(
    bytes: Vec<u8>,
    fp: &Fingerprint,
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
) -> Result<MappedArtifacts, PersistError> {
    let map = Mmap::from_vec(bytes);
    let inner = validate(map, Duration::ZERO, true, fp, keys, graph, config, false)?;
    Ok(MappedArtifacts {
        inner: Arc::new(inner),
    })
}

/// The one validator behind [`open`] and [`from_bytes`]. `verified` says
/// whether the bytes' checksums are already vouched for (heap bytes) or
/// must be checked (a mapped file: eager sections now, the rest lazily or,
/// with `paranoid`, now).
#[allow(clippy::too_many_arguments)]
fn validate(
    map: Mmap,
    t_map: Duration,
    verified: bool,
    fp: &Fingerprint,
    keys: &StageKeys,
    graph: &TopicGraph,
    config: &OctopusConfig,
    paranoid: bool,
) -> Result<MapInner, PersistError> {
    let initial = if verified { VERIFIED } else { UNVERIFIED };
    // -- validate: header, table, canonical layout ------------------------
    let t1 = Instant::now();
    let raw: &[u8] = &map;
    let stamped = persist::read_fingerprint(raw)?;
    if stamped != *fp {
        return Err(PersistError::Corrupt(format!(
            "artifact keyed {stamped}, engine inputs key {fp}"
        )));
    }
    let z_count = graph.num_topics();
    let order = persist::section_order(z_count);
    let count = persist::read_section_count(raw)?;
    if count != order.len() {
        return Err(PersistError::Corrupt(format!(
            "expected {} sections, found {count}",
            order.len()
        )));
    }
    let table_end = persist::HEADER_LEN + count * wire::SECTION_ENTRY_LEN;
    let mut table = &raw[persist::HEADER_LEN..];
    wire::need(&table, count * wire::SECTION_ENTRY_LEN, "section table")?;
    let mut sections = Vec::with_capacity(count);
    let mut prev_end = table_end;
    for &tag in &order {
        let entry = wire::read_section_entry(&mut table, "section entry")?;
        if entry.tag != tag {
            return Err(PersistError::Corrupt(format!(
                "section tag {} out of canonical order (expected {tag})",
                entry.tag
            )));
        }
        if keys.for_tag(tag) != Some(entry.key) {
            // a stale stage key means this exact file cannot serve mapped;
            // the rebuild path may still salvage its other sections
            return Err(PersistError::Corrupt(format!(
                "section tag {tag} carries a stale stage key"
            )));
        }
        wire::section_range(raw.len(), &entry)?;
        if entry.off as usize != wire::align8(prev_end) {
            return Err(PersistError::Corrupt(format!(
                "section tag {tag} at offset {} breaks the canonical layout",
                entry.off
            )));
        }
        prev_end = (entry.off + entry.len) as usize;
        sections.push(SectionMeta {
            entry,
            state: AtomicU8::new(initial),
        });
    }
    if prev_end != raw.len() {
        return Err(PersistError::Corrupt(format!(
            "file length {} does not end at the last section ({prev_end})",
            raw.len()
        )));
    }
    let t_validate = t1.elapsed();

    // -- decode: eager sections + structural parses -----------------------
    let t2 = Instant::now();
    // checksum + full decode of the small eager sections; the per-topic
    // caps combine into the global cap exactly as a fresh build would
    let mut topic_caps = Vec::with_capacity(z_count);
    for z in 0..z_count {
        let i = i_cap(z_count, z);
        topic_caps.push(persist::decode_cap(eager_payload(raw, &sections[i])?)?);
    }
    let cap = crate::kim::bounds::combine_topic_caps(&topic_caps);
    let samples =
        persist::decode_samples(eager_payload(raw, &sections[i_samples(z_count)])?, graph)?;
    TrieView::parse(
        eager_payload(raw, &sections[i_names(z_count)])?,
        graph.node_count(),
    )?;

    // structural parses of the lazily-checksummed per-topic unit groups
    let pb_slices: Vec<&[u8]> = (0..z_count)
        .map(|z| raw_payload(raw, &sections[i_pb(z_count, z)]))
        .collect();
    let pb = PbTableView::parse(&pb_slices, graph.node_count())?;
    if pb.is_some() != needs_pb(config) {
        return Err(PersistError::Corrupt(
            "pb section group presence disagrees with the configured engine".into(),
        ));
    }
    let mis_slices: Vec<&[u8]> = (0..z_count)
        .map(|z| raw_payload(raw, &sections[i_mis(z_count, z)]))
        .collect();
    let mis = MisView::parse(&mis_slices, graph.node_count())?;
    if mis.is_some() != needs_mis(config) {
        return Err(PersistError::Corrupt(
            "mis section group presence disagrees with the configured engine".into(),
        ));
    }
    let piks = PiksWorldsView::parse(raw_payload(raw, &sections[i_piks(z_count)]))?;
    if piks.n() != graph.node_count() {
        return Err(PersistError::Corrupt(format!(
            "piks worlds cover {} nodes, graph has {}",
            piks.n(),
            graph.node_count()
        )));
    }
    let expected_worlds = if graph.node_count() == 0 {
        0
    } else {
        config.piks_index_size
    };
    if piks.len() != expected_worlds {
        return Err(PersistError::Corrupt(format!(
            "piks section stores {} worlds, config wants {expected_worlds}",
            piks.len()
        )));
    }
    let piks = piks.rebind(&[]);
    if paranoid {
        for i in (0..z_count)
            .map(|z| i_pb(z_count, z))
            .chain((0..z_count).map(|z| i_mis(z_count, z)))
            .chain([i_piks(z_count)])
        {
            eager_payload(raw, &sections[i])?;
        }
    }
    let t_decode = t2.elapsed();

    let timings = persist::LoadTimings {
        map: t_map,
        validate: t_validate,
        decode: t_decode,
    }
    .stages();
    let reuse = STAGE_ORDER
        .iter()
        .map(|&stage| {
            let units = match stage {
                "piks-worlds" => piks.len(),
                "spread-cap" | "pb-bound" | "mis-tables" => z_count,
                _ => 1,
            };
            StageReuse {
                stage,
                reused: units,
                total: units,
            }
        })
        .collect();

    Ok(MapInner {
        map,
        reg_key: None,
        sections,
        num_topics: graph.num_topics(),
        node_count: graph.node_count(),
        cap,
        samples,
        piks,
        timings,
        reuse,
    })
}

/// Payload of a section needed at open: checksummed now unless already
/// verified, and marked verified (range was validated earlier).
fn eager_payload<'a>(raw: &'a [u8], meta: &SectionMeta) -> Result<&'a [u8], PersistError> {
    if meta.state.load(Ordering::Acquire) == VERIFIED {
        return Ok(raw_payload(raw, meta));
    }
    let payload = wire::section_payload(raw, &meta.entry)?;
    meta.state.store(VERIFIED, Ordering::Release);
    Ok(payload)
}

/// Payload bytes of a section without checksum work (range was validated).
fn raw_payload<'a>(raw: &'a [u8], meta: &SectionMeta) -> &'a [u8] {
    let (off, len) = (meta.entry.off as usize, meta.entry.len as usize);
    &raw[off..off + len]
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

impl MappedArtifacts {
    /// Whether these bytes are a file mapping (registered against
    /// [`persist::prune`]) rather than heap bytes.
    pub fn is_mapped(&self) -> bool {
        self.inner.reg_key.is_some()
    }

    /// Every section's `(tag, payload)` in canonical order — what two
    /// artifacts must agree on to answer identically (the header's write
    /// sequence aside).
    pub fn payloads(&self) -> impl Iterator<Item = (u32, &[u8])> {
        (0..self.inner.sections.len()).map(|i| (self.inner.sections[i].entry.tag, self.section(i)))
    }

    /// Raw payload of section `i` (structure was validated at open).
    fn section(&self, i: usize) -> &[u8] {
        let entry = &self.inner.sections[i].entry;
        &self.inner.map[entry.off as usize..(entry.off + entry.len) as usize]
    }

    /// The section table validated at open, in canonical order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &wire::SectionEntry> {
        self.inner.sections.iter().map(|s| &s.entry)
    }

    /// Sticky lazy checksum verification of section `i` (see module docs).
    pub(crate) fn verified_section(&self, i: usize) -> Result<&[u8], CoreError> {
        let meta = &self.inner.sections[i];
        match meta.state.load(Ordering::Acquire) {
            VERIFIED => Ok(self.section(i)),
            DAMAGED => Err(CoreError::Artifact(format!(
                "section tag {} failed its checksum (sticky)",
                meta.entry.tag
            ))),
            _ => match wire::section_payload(&self.inner.map, &meta.entry) {
                Ok(payload) => {
                    meta.state.store(VERIFIED, Ordering::Release);
                    Ok(payload)
                }
                Err(e) => {
                    meta.state.store(DAMAGED, Ordering::Release);
                    Err(CoreError::Artifact(format!(
                        "section tag {} failed verification: {}",
                        meta.entry.tag, e.0
                    )))
                }
            },
        }
    }

    /// The global spread cap (combined from the per-topic units at open).
    pub fn cap(&self) -> f64 {
        self.inner.cap
    }

    /// The precomputed topic samples (eagerly decoded at open).
    pub fn samples(&self) -> &[TopicSample] {
        &self.inner.samples
    }

    /// The PB bound tables, zero-copy (`None` when the engine needs none).
    /// First call verifies each topic unit's checksum (per-unit sticky).
    pub fn pb_view(&self) -> Result<Option<PbTableView<'_>>, CoreError> {
        let zc = self.inner.num_topics;
        let slices: Vec<&[u8]> = (0..zc)
            .map(|z| self.verified_section(i_pb(zc, z)))
            .collect::<Result<_, _>>()?;
        PbTableView::parse(&slices, self.inner.node_count)
            .map_err(|e| CoreError::Artifact(format!("pb section group: {}", e.0)))
    }

    /// The MIS seed tables, zero-copy (`None` when the engine needs none).
    /// First call verifies each topic unit's checksum (per-unit sticky).
    pub fn mis_view(&self) -> Result<Option<MisView<'_>>, CoreError> {
        let zc = self.inner.num_topics;
        let slices: Vec<&[u8]> = (0..zc)
            .map(|z| self.verified_section(i_mis(zc, z)))
            .collect::<Result<_, _>>()?;
        MisView::parse(&slices, self.inner.node_count)
            .map_err(|e| CoreError::Artifact(format!("mis section group: {}", e.0)))
    }

    /// The PIKS possible-worlds index, zero-copy. First call verifies the
    /// section checksum; the framing validated at open rebinds in `O(1)`.
    pub fn piks_view(&self) -> Result<PiksWorldsView<'_>, CoreError> {
        let payload = self.verified_section(i_piks(self.inner.num_topics))?;
        Ok(self.inner.piks.rebind(payload))
    }

    /// The autocomplete trie, zero-copy (checksum and structure were
    /// verified eagerly at open, so reconstruction is `O(1)`).
    pub fn trie_view(&self) -> TrieView<'_> {
        TrieView::assume_checked(self.section(i_names(self.inner.num_topics)))
    }

    /// World count of the PIKS index.
    pub fn piks_len(&self) -> usize {
        self.inner.piks.len()
    }

    /// Total nodes stored across all PIKS worlds.
    pub(crate) fn piks_stored_nodes(&self) -> usize {
        self.inner.piks.stored_nodes()
    }

    /// Open telemetry: the three artifact stages (map, validate, and
    /// parse/screen under [`persist::STAGE_ARTIFACT_DECODE`]),
    /// mirroring what a full cache hit reports (map is zero on the heap).
    pub fn timings(&self) -> &[StageTiming] {
        &self.inner.timings
    }

    /// Per-stage reuse counters (every stage fully reused — a validated
    /// artifact is by definition complete).
    pub fn reuse(&self) -> &[StageReuse] {
        &self.inner.reuse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KimEngineChoice;
    use crate::kim::bounds::{combine_topic_caps, topic_arrival_cap};
    use crate::offline;
    use octopus_graph::{GraphBuilder, NodeId};

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
        b.build().unwrap()
    }

    fn config() -> OctopusConfig {
        OctopusConfig {
            kim: KimEngineChoice::Mis,
            piks_index_size: 200,
            mis_rr_per_topic: 400,
            k_max: 3,
            seed: 0xFEED,
            ..Default::default()
        }
    }

    /// Build, save, and return (dir, path, fp, keys, graph, config, art).
    fn saved_artifact(
        dir_name: &str,
    ) -> (
        PathBuf,
        PathBuf,
        Fingerprint,
        StageKeys,
        TopicGraph,
        OctopusConfig,
        offline::OfflineArtifacts,
    ) {
        let g = tiny_graph();
        let cfg = config();
        let fp = Fingerprint::compute(&g, &cfg);
        let keys = StageKeys::compute(&g, &cfg);
        let art = offline::build(&g, &cfg);
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::remove_dir_all(&dir).ok();
        let path = fp.cache_path(&dir);
        persist::save(&art, &fp, &keys, &path).unwrap();
        (dir, path, fp, keys, g, cfg, art)
    }

    #[test]
    fn file_and_heap_backings_validate_to_the_same_artifact() {
        let (dir, path, fp, keys, g, cfg, art) = saved_artifact("octopus_view_open_test");
        let heap = from_bytes(std::fs::read(&path).unwrap(), &fp, &keys, &g, &cfg).unwrap();
        assert!(
            !heap.is_mapped() && !is_mapped(&path),
            "heap bytes never register"
        );
        for paranoid in [false, true] {
            let mapped = open(&path, &fp, &keys, &g, &cfg, paranoid).expect("mapped open");
            assert!(mapped.is_mapped());
            for served in [&mapped, &heap] {
                assert!(served.payloads().eq(art.payloads()), "the saved bytes");
                let caps: Vec<f64> = (0..2).map(|z| topic_arrival_cap(&g, z)).collect();
                assert_eq!(served.cap().to_bits(), combine_topic_caps(&caps).to_bits());
                assert!(served.samples().is_empty(), "MIS engine");
                assert_eq!(served.piks_len(), cfg.piks_index_size);
                assert_eq!(served.trie_view().len(), g.node_count());
                assert!(served.mis_view().unwrap().is_some(), "MIS engine");
                assert!(served.pb_view().unwrap().is_none(), "no PB tables");
                assert_eq!(served.piks_view().unwrap().len(), cfg.piks_index_size);
                assert_eq!(served.trie_view().lookup("user-3"), Some(NodeId(3)));
            }
            assert!(
                mapped.payloads().eq(heap.payloads()),
                "one artifact, two backings"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_tracks_live_mappings_and_prune_skips_them() {
        let (dir, path, fp, keys, g, cfg, _) = saved_artifact("octopus_view_registry_test");
        assert!(!is_mapped(&path));
        let a = open(&path, &fp, &keys, &g, &cfg, false).unwrap();
        let b = a.clone();
        assert!(is_mapped(&path), "open must register the mapping");
        drop(a);
        assert!(is_mapped(&path), "clones keep the registration alive");

        // flood the directory past the cap; the mapped file is among the
        // prune candidates (dummies are unparseable = seq 0, the real file
        // has seq >= 1, but mtime ordering dominates and the real file is
        // stamped OLDEST) and must survive anyway
        let set_mtime = |p: &Path, secs: u64| {
            let stamp = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_700_000_000 + secs);
            let f = std::fs::File::options().write(true).open(p).unwrap();
            f.set_modified(stamp).unwrap();
        };
        set_mtime(&path, 0);
        for i in 0..persist::MAX_CACHE_FILES + 3 {
            let dummy = dir.join(format!("dummy-{i:02}.octa"));
            std::fs::write(&dummy, [i as u8; 4]).unwrap();
            set_mtime(&dummy, 1 + i as u64);
        }
        let keep = dir.join("dummy-00.octa");
        persist::prune(&dir, &[&keep]);
        assert!(path.exists(), "prune must never evict a mapped file");

        drop(b);
        assert!(!is_mapped(&path), "last drop must deregister");
        persist::prune(&dir, &[&keep]);
        assert!(!path.exists(), "unmapped, the file is evictable again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_fingerprint_and_stale_keys_are_refused() {
        let (dir, path, fp, keys, g, cfg, _) = saved_artifact("octopus_view_foreign_test");
        let other_cfg = OctopusConfig {
            seed: cfg.seed ^ 1,
            ..cfg.clone()
        };
        let other_fp = Fingerprint::compute(&g, &other_cfg);
        let other_keys = StageKeys::compute(&g, &other_cfg);
        // wrong combined fingerprint: refused before the table is read
        assert!(matches!(
            open(&path, &other_fp, &keys, &g, &cfg, false),
            Err(PersistError::Corrupt(m)) if m.contains("keyed")
        ));
        // right fingerprint file name but stale stage keys (reseed): refused
        assert!(matches!(
            open(&path, &fp, &other_keys, &g, &other_cfg, false),
            Err(PersistError::Corrupt(m)) if m.contains("stale stage key")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_sections_fail_closed_and_sticky_on_first_touch() {
        let (dir, path, fp, keys, g, cfg, _) = saved_artifact("octopus_view_lazy_test");
        // flip one byte inside topic 0's MIS unit payload (lazily
        // checksummed)
        let mut raw = std::fs::read(&path).unwrap();
        let mut table = &raw[persist::HEADER_LEN..];
        let mut mis_entry = None;
        for _ in 0..persist::section_order(g.num_topics()).len() {
            let e = wire::read_section_entry(&mut table, "t").unwrap();
            if e.tag == persist::topic_tag(persist::SECTION_MIS, 0) {
                mis_entry = Some(e);
            }
        }
        let e = mis_entry.unwrap();
        // flip inside the gains array — gains are never examined by the
        // structural parse (only scored), so the open must still succeed
        // and only the deferred checksum can catch the damage
        let payload = &raw[e.off as usize..(e.off + e.len) as usize];
        assert_eq!(u64::from_le_bytes(payload[0..8].try_into().unwrap()), 1);
        let count = u64::from_le_bytes(payload[8..16].try_into().unwrap()) as usize;
        assert!(count > 0, "mis unit must not be empty in this fixture");
        let gains_off = wire::align8(16 + 4 * count);
        raw[e.off as usize + gains_off + 1] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();

        let mapped = open(&path, &fp, &keys, &g, &cfg, false)
            .expect("structural damage in a lazy payload must not fail the open");
        let first = mapped.mis_view();
        assert!(
            matches!(first, Err(CoreError::Artifact(ref m)) if m.contains("verification")),
            "first touch must fail closed: {first:?}"
        );
        assert!(
            matches!(mapped.mis_view(), Err(CoreError::Artifact(ref m)) if m.contains("sticky")),
            "the failure must be sticky"
        );
        // other sections still serve
        assert_eq!(mapped.trie_view().lookup("user-3"), Some(NodeId(3)));
        assert!(mapped.piks_view().is_ok());

        // paranoid open refuses the same file outright
        assert!(open(&path, &fp, &keys, &g, &cfg, true).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
