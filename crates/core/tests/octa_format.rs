//! Pins the OCTA v8 container bytes to the normative specification in
//! `ARCHITECTURE.md` (§"The OCTA v8 artifact container").
//!
//! The parser below is written *independently* against the documented
//! layout — it shares no framing helpers with the codec (it re-implements
//! XXH64 and FNV-1a from the documented constants, hardcodes every offset,
//! recomputes each PIKS world's structural key from the record and the
//! coins, the PIKS header's topology key and maxima column from the graph,
//! and each topic's weight-slice key from the graph, rather than calling
//! the codec's key functions) — so if
//! the writer drifts from the spec, or the spec from the writer, this test
//! fails. Keep all three in sync: `offline/persist.rs`, `ARCHITECTURE.md`,
//! and this file.
//!
//! The second half of the file is the adversarial mapped-mode battery: a
//! memory-mapped open defers section checksums to first touch, so these
//! tests pin that truncation, misaligned offsets, and in-place bit flips
//! fail **closed** — at open or at first touch, never by serving garbage.

use octopus_cascade::EdgeCoins;
use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig};
use octopus_core::offline::persist::{self, Fingerprint, StageKeys};
use octopus_core::offline::{self, view, PIKS_WORLD_SEED_XOR};
use octopus_graph::{GraphBuilder, NodeId, TopicGraph};

/// Documented header length: magic + version + pad + 3 fingerprint words +
/// write_seq + section count + pad.
const HEADER_LEN: usize = 48;
/// Documented section-table row length: tag + pad + key + off + len + checksum.
const ENTRY_LEN: usize = 40;

/// Independent FNV-1a 64 (documented constants, not the wire helper).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut state: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Independent XXH64, seed 0 (documented constants, not the wire helper),
/// written as the reference stream: four lanes over 32-byte stripes, then
/// the 8-, 4- and 1-byte tail, then the avalanche.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, w: u64| {
        acc.wrapping_add(w.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let len = bytes.len();
    let mut at = 0;
    let mut h;
    if len >= 32 {
        let (mut v1, mut v2, mut v3, mut v4) =
            (P1.wrapping_add(P2), P2, 0u64, 0u64.wrapping_sub(P1));
        while at + 32 <= len {
            v1 = round(v1, word(at));
            v2 = round(v2, word(at + 8));
            v3 = round(v3, word(at + 16));
            v4 = round(v4, word(at + 24));
            at += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h ^= round(0, v);
            h = h.wrapping_mul(P1).wrapping_add(P4);
        }
    } else {
        h = P5;
    }
    h = h.wrapping_add(len as u64);
    while at + 8 <= len {
        h ^= round(0, word(at));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        at += 8;
    }
    if at + 4 <= len {
        h ^= (u32_at(bytes, at) as u64).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        at += 4;
    }
    while at < len {
        h ^= (bytes[at] as u64).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
        at += 1;
    }
    avalanche(h)
}

/// XXH64's final avalanche, the documented per-entry mix of the graph keys.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= h >> 29;
    h = h.wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^ (h >> 32)
}

/// XXH64 over the little-endian bytes of `words` (the documented key fold).
fn fold(words: &[u64]) -> u64 {
    xxh64(
        &words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// An edge's documented topology term `mix((src << 32 | dst) ^ EDGE_SALT)`.
fn edge_term(u: NodeId, v: NodeId) -> u64 {
    avalanche(((u.0 as u64) << 32 | v.0 as u64) ^ 0x6F63_7467_6564_6765)
}

/// The topology key by its documented definition: the wrapping sum of the
/// edge terms, folded as `("octg:top", n, m, sum)`.
fn topology_key(g: &TopicGraph) -> u64 {
    let mut sum = 0u64;
    for u in g.nodes() {
        for (v, _) in g.out_edges(u) {
            sum = sum.wrapping_add(edge_term(u, v));
        }
    }
    let tag = u64::from_le_bytes(*b"octg:top");
    fold(&[tag, g.node_count() as u64, g.edge_count() as u64, sum])
}

/// Topic `z`'s weight-slice key by its documented definition: the wrapping
/// sum over the topic-`z` triples of `mix(mix((src << 32 | dst) ^
/// EDGE_SALT) ^ bits(p) · ENTRY_MUL)`, folded as
/// `("octg:wtz", z, Z, n, sum)`.
fn slice_key(g: &TopicGraph, z: usize) -> u64 {
    let mut sum = 0u64;
    for u in g.nodes() {
        for (v, e) in g.out_edges(u) {
            let edge = edge_term(u, v);
            for (t, p) in g.edge_topic_probs(e) {
                if t.index() == z {
                    let bits = (p.to_bits() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    sum = sum.wrapping_add(avalanche(edge ^ bits));
                }
            }
        }
    }
    let tag = u64::from_le_bytes(*b"octg:wtz");
    let dims = [z, g.num_topics(), g.node_count()].map(|d| d as u64);
    fold(&[tag, dims[0], dims[1], dims[2], sum])
}

/// Documented alignment rule: payloads start on 8-byte boundaries.
fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

fn u16_at(raw: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(raw[at..at + 2].try_into().unwrap())
}
fn u32_at(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().unwrap())
}
fn u64_at(raw: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(raw[at..at + 8].try_into().unwrap())
}
fn f64_at(raw: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(raw[at..at + 8].try_into().unwrap())
}

/// One parsed section-table row.
#[derive(Clone, Copy)]
struct Entry {
    tag: u32,
    key: u64,
    off: usize,
    len: usize,
    checksum: u64,
}

/// Parse the section table at its documented offset (`3·Z + 3` rows, count
/// taken from the header), checking the pad words.
fn parse_table(raw: &[u8]) -> Vec<Entry> {
    let count = u32_at(raw, 40) as usize;
    (0..count)
        .map(|i| {
            let at = HEADER_LEN + i * ENTRY_LEN;
            assert_eq!(u32_at(raw, at + 4), 0, "table row {i} pad word");
            Entry {
                tag: u32_at(raw, at),
                key: u64_at(raw, at + 8),
                off: u64_at(raw, at + 16) as usize,
                len: u64_at(raw, at + 24) as usize,
                checksum: u64_at(raw, at + 32),
            }
        })
        .collect()
}

fn tiny_graph() -> TopicGraph {
    let mut b = GraphBuilder::new(2);
    for i in 0..8 {
        b.add_node(format!("user-{i}"));
    }
    for v in 1..=4u32 {
        b.add_edge(NodeId(0), NodeId(v), &[(0, 0.6)]).unwrap();
    }
    for v in 5..=7u32 {
        b.add_edge(NodeId(1), NodeId(v), &[(1, 0.5)]).unwrap();
    }
    b.build().unwrap()
}

fn tiny_config() -> OctopusConfig {
    OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 24,
        mis_rr_per_topic: 80,
        k_max: 3,
        seed: 0x0C7A,
        ..Default::default()
    }
}

#[test]
fn container_bytes_follow_the_documented_layout() {
    let g = tiny_graph();
    let cfg = tiny_config();
    let fp = Fingerprint::compute(&g, &cfg);
    let keys = StageKeys::compute(&g, &cfg);
    let art = offline::build(&g, &cfg);
    let raw = persist::encode(&art, &fp, &keys, 0x5E0);

    // ---- header: magic "OCTA" | version u16 = 8 | pad u16 = 0 ----------
    assert_eq!(&raw[0..4], b"OCTA");
    assert_eq!(u16_at(&raw, 4), 8, "container version");
    assert_eq!(u16_at(&raw, 6), 0, "header pad word");
    // graph_fp u64 | config_fp u64 | seed u64 — all 8-aligned
    assert_eq!(u64_at(&raw, 8), fp.graph);
    assert_eq!(u64_at(&raw, 16), fp.config);
    assert_eq!(u64_at(&raw, 24), fp.seed);
    assert_eq!(fp.seed, 0x0C7A, "the seed word is the config seed verbatim");
    // write_seq u64: the per-directory write sequence, stored verbatim
    assert_eq!(u64_at(&raw, 32), 0x5E0, "write sequence word");
    assert_eq!(persist::read_write_seq(&raw).unwrap(), 0x5E0);
    // section_count u32 = 3·Z + 3 | pad u32 = 0
    let z_count = g.num_topics();
    assert_eq!(
        u32_at(&raw, 40) as usize,
        3 * z_count + 3,
        "one section per topic unit of cap/pb/mis plus three singletons"
    );
    assert_eq!(u32_at(&raw, 44), 0, "header tail pad word");

    // ---- section table ------------------------------------------------
    let entries = parse_table(&raw);
    // tags in documented order — `base | (z << 8)` for the topic-granular
    // stages (cap=1, pb=2, mis=3), every topic of a stage ascending, then
    // the bare singleton tags samples=4, piks=5, names=6
    let mut expect_tags: Vec<u32> = Vec::new();
    for base in [1u32, 2, 3] {
        for z in 0..z_count as u32 {
            expect_tags.push(base | (z << 8));
        }
    }
    expect_tags.extend([4, 5, 6]);
    assert_eq!(
        entries.iter().map(|e| e.tag).collect::<Vec<_>>(),
        expect_tags
    );
    // keys are the per-unit StageKeys in the same order
    let mut expect_keys: Vec<u64> = Vec::new();
    expect_keys.extend(&keys.cap);
    expect_keys.extend(&keys.pb);
    expect_keys.extend(&keys.mis);
    expect_keys.extend([keys.samples, keys.piks, keys.names]);
    assert_eq!(
        entries.iter().map(|e| e.key).collect::<Vec<_>>(),
        expect_keys
    );
    // a spread-cap unit's key is FNV-1a over "octa:spread-cap-topic" and
    // its topic's documented weight-slice key
    for (z, cap) in entries.iter().enumerate().take(z_count) {
        let mut key = b"octa:spread-cap-topic".to_vec();
        key.extend(slice_key(&g, z).to_le_bytes());
        assert_eq!(cap.key, fnv1a(&key), "cap unit {z} key");
    }

    // ---- offsets: canonical, ascending, 8-aligned, in-bounds ------------
    // the first payload starts right after the table (already 8-aligned:
    // 48 + (3·Z+3)×40, a multiple of 8); each later one at the
    // predecessor's padded end
    let mut expect_off = HEADER_LEN + entries.len() * ENTRY_LEN;
    assert_eq!(expect_off % 8, 0, "table end is 8-aligned by construction");
    for e in &entries {
        assert_eq!(e.off, align8(expect_off), "section {} offset", e.tag);
        assert_eq!(e.off % 8, 0, "section {} offset 8-aligned", e.tag);
        // alignment padding before the section is zero bytes
        assert!(
            raw[expect_off..e.off].iter().all(|&b| b == 0),
            "nonzero padding before section {}",
            e.tag
        );
        assert!(e.off + e.len <= raw.len(), "section {} in bounds", e.tag);
        expect_off = e.off + e.len;
    }
    assert_eq!(
        expect_off,
        raw.len(),
        "file ends exactly at the last payload byte (no trailing bytes)"
    );

    // ---- XXH64 checksums cover the payload bytes only (never padding) ----
    for e in &entries {
        assert_eq!(
            xxh64(&raw[e.off..e.off + e.len]),
            e.checksum,
            "section {} checksum",
            e.tag
        );
    }

    // ---- per-section payloads ------------------------------------------
    // the container frames the pipeline's payloads verbatim
    for (e, (tag, payload)) in entries.iter().zip(art.payloads()) {
        assert_eq!(e.tag, tag);
        assert!(
            &raw[e.off..e.off + e.len] == payload,
            "section {tag} payload"
        );
    }

    // spread-cap units: one little-endian f64 per topic (the per-topic
    // arrival-mass caps)
    for (z, cap) in entries.iter().enumerate().take(z_count) {
        assert_eq!(cap.len, 8);
        let expect = octopus_core::kim::bounds::topic_arrival_cap(&g, z);
        assert_eq!(
            f64_at(&raw, cap.off).to_bits(),
            expect.to_bits(),
            "cap unit {z}"
        );
    }

    // pb-bound units under the MIS engine: a single u64 = 0 "absent" word
    // per topic
    for z in 0..z_count {
        let pb = entries[z_count + z];
        assert_eq!(pb.len, 8);
        assert_eq!(u64_at(&raw, pb.off), 0, "MIS engine persists no PB rows");
    }

    // mis-tables units, one per topic: present u64 = 1 | count u64 |
    // node ids count×u32 strictly ascending (padded to 8) | gains count×f64
    for z in 0..z_count {
        let mis = entries[2 * z_count + z];
        assert_eq!(u64_at(&raw, mis.off), 1, "MIS engine persists its tables");
        let count = u64_at(&raw, mis.off + 8) as usize;
        assert!(count > 0, "every topic has seeds in this fixture");
        let ids_at = mis.off + 16;
        let gains_at = mis.off + align8(16 + 4 * count);
        let mut last = None;
        for r in 0..count {
            let u = u32_at(&raw, ids_at + 4 * r);
            assert!((u as usize) < g.node_count(), "MIS node id in range");
            assert!(Some(u) > last, "node ids strictly ascending");
            last = Some(u);
            assert!(
                f64_at(&raw, gains_at + 8 * r).is_finite(),
                "gain is a real number"
            );
        }
        assert_eq!(
            mis.len,
            align8(16 + 4 * count) + 8 * count,
            "mis unit {z} ends after its gains"
        );
    }

    // topic-samples: u32 count (0 — MIS precomputes no samples)
    let samples = entries[3 * z_count];
    assert_eq!(samples.len, 4);
    assert_eq!(u32_at(&raw, samples.off), 0);

    // piks-worlds: n u64 | R u64 | topology u64 | m u64 | m × f32 maxima
    // (padded to 8) | world offsets (R+1)×u64 (section-relative, last =
    // section length) | R world records, each opening with footprint u64 |
    // coin seed u64 | edges_examined u64 | w u64 | e u64
    let piks = entries[3 * z_count + 1];
    assert_eq!(u64_at(&raw, piks.off) as usize, g.node_count());
    let r_worlds = u64_at(&raw, piks.off + 8) as usize;
    assert_eq!(r_worlds, cfg.piks_index_size);
    // the topology key of the graph the worlds were built on, by its
    // documented definition
    assert_eq!(
        u64_at(&raw, piks.off + 16),
        topology_key(&g),
        "piks topology"
    );
    let m = u64_at(&raw, piks.off + 24) as usize;
    assert_eq!(m, g.edge_count(), "piks edge count");
    // edge e's largest stored f32 probability, in edge-id order; ids
    // number the edges source-major, targets ascending
    let mut e = 0;
    for u in g.nodes() {
        for (_, id) in g.out_edges(u) {
            assert_eq!(id.0 as usize, e, "edge ids are source-major");
            let max = g
                .edge_topic_probs(id)
                .map(|(_, p)| p)
                .fold(0.0f32, f32::max);
            let stored = f32::from_le_bytes(raw[piks.off + 32 + 4 * e..][..4].try_into().unwrap());
            assert_eq!(stored.to_bits(), max.to_bits(), "edge {e} maximum");
            e += 1;
        }
    }
    let column_end = 32 + align8(4 * m);
    assert!(
        raw[piks.off + 32 + 4 * m..piks.off + column_end]
            .iter()
            .all(|&b| b == 0),
        "the column pads with zeros"
    );
    let wtab = piks.off + column_end;
    let first = u64_at(&raw, wtab) as usize;
    assert_eq!(
        first,
        column_end + 8 * (r_worlds + 1),
        "first world starts right after the offset table"
    );
    assert_eq!(
        u64_at(&raw, wtab + 8 * r_worlds) as usize,
        piks.len,
        "the sentinel offset is the section length"
    );
    let world_coins = EdgeCoins::worlds(cfg.seed ^ PIKS_WORLD_SEED_XOR, r_worlds);
    for (i, derived) in world_coins.iter().enumerate() {
        let (lo, hi) = (
            u64_at(&raw, wtab + 8 * i) as usize,
            u64_at(&raw, wtab + 8 * (i + 1)) as usize,
        );
        assert!(
            lo % 8 == 0 && lo < hi && hi <= piks.len,
            "world {i} framing"
        );
        let world = piks.off + lo;
        let w = u64_at(&raw, world + 24) as usize;
        let e = u64_at(&raw, world + 32) as usize;
        assert!(w >= 1, "every world stores at least its root");
        // documented world record arithmetic reproduces the framing
        let local_off = align8(40 + 4 * w);
        let edges_off = align8(local_off + 8 * w + 4 * (w + 1));
        assert_eq!(hi - lo, edges_off + 8 * e, "world {i} record length");
        // the coin seed is world i's derivation from the config seed
        let coin_seed = u64_at(&raw, world + 8);
        assert_eq!(coin_seed, derived.seed(), "world {i} coin seed");
        // the stored footprint is the documented structural key: the
        // wrapping sum, over every in-edge (u, e) of every stored node v, of
        // mix(mix((v << 32 | u) ^ "octa:pkw") ^ (e << 1 | bit)), where bit
        // is the superset bit (coin < max_z pp^z_e)
        let coins = EdgeCoins::new(coin_seed);
        let salt = u64::from_le_bytes(*b"octa:pkw");
        let mut key = 0u64;
        for j in 0..w {
            let v = u32_at(&raw, world + 40 + 4 * j);
            for (u, e) in g.in_edges(NodeId(v)) {
                let bit = u64::from(coins.coin(e) < g.edge_prob_max(e) as f64);
                let ends = avalanche(((v as u64) << 32 | u.0 as u64) ^ salt);
                key = key.wrapping_add(avalanche(ends ^ ((e.0 as u64) << 1 | bit)));
            }
        }
        assert_eq!(
            u64_at(&raw, world),
            key,
            "world {i} key must be the documented structural footprint"
        );
    }

    // autocomplete: u64 inserted-name count, then preorder records of
    // terminal u32 | nchildren u32 | [id u32 | pad u32 | score f64] |
    // nchildren × (char u32 | pad u32 | child offset u64)
    let names = entries[3 * z_count + 2];
    assert_eq!(
        u64_at(&raw, names.off) as usize,
        g.node_count(),
        "every node is named once"
    );
    let root = names.off + 8;
    assert_eq!(u32_at(&raw, root), 0, "root is not terminal");
    assert_eq!(u32_at(&raw, root + 4), 1, "all names share the 'u' child");
    assert_eq!(u32_at(&raw, root + 8), 'u' as u32, "child edge label");
    assert_eq!(u32_at(&raw, root + 12), 0, "child entry pad word");
    assert_eq!(
        u64_at(&raw, root + 16),
        24,
        "preorder: the only child record starts right after the 24-byte root"
    );
}

#[test]
fn v1_through_v7_containers_are_refused_for_migration_by_rebuild() {
    // earlier-version files must be refused wholesale
    // (PersistError::Version) so open_or_build rebuilds and overwrites
    // them — never misparse a v1 monolithic payload as sections, a v2
    // table as v3, a v3 packed table (28-byte rows, no offsets) as v4, a
    // v4 stage-granular table as v5's per-topic one, a v5 PIKS world's
    // probability-row footprint as v6's structural key, a v6 FNV-1a
    // section checksum or graph key as v7's, nor a v7 PIKS section (no
    // recorded graph, FNV-1a footprints) as v8's
    let g = tiny_graph();
    let cfg = OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 8,
        mis_rr_per_topic: 40,
        k_max: 2,
        ..Default::default()
    };
    let keys = StageKeys::compute(&g, &cfg);
    // a plausible v1 header: magic, version=1, fp triple, then v1's
    // payload_len/checksum words and some payload bytes
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"OCTA");
    v1.extend_from_slice(&1u16.to_le_bytes());
    for w in [1u64, 2, 3, 64, 0xDEAD] {
        v1.extend_from_slice(&w.to_le_bytes());
    }
    v1.extend_from_slice(&[0u8; 64]);
    assert!(matches!(
        persist::load_sections(&v1, &keys, &g, &cfg),
        Err(persist::PersistError::Version(1))
    ));
    // a plausible v2 header: magic, version=2, fp triple, section count,
    // then section-table-shaped bytes
    let mut v2 = Vec::new();
    v2.extend_from_slice(b"OCTA");
    v2.extend_from_slice(&2u16.to_le_bytes());
    for w in [1u64, 2, 3] {
        v2.extend_from_slice(&w.to_le_bytes());
    }
    v2.extend_from_slice(&6u32.to_le_bytes());
    v2.extend_from_slice(&[0u8; 6 * 28]);
    assert!(matches!(
        persist::load_sections(&v2, &keys, &g, &cfg),
        Err(persist::PersistError::Version(2))
    ));
    assert!(matches!(
        persist::read_write_seq(&v2),
        Err(persist::PersistError::Version(2))
    ));
    // a plausible v3 header: like v2 plus the write_seq word — its packed
    // 28-byte table rows must not parse as v4's 40-byte aligned rows
    let mut v3 = Vec::new();
    v3.extend_from_slice(b"OCTA");
    v3.extend_from_slice(&3u16.to_le_bytes());
    for w in [1u64, 2, 3, 0x5E0] {
        v3.extend_from_slice(&w.to_le_bytes());
    }
    v3.extend_from_slice(&6u32.to_le_bytes());
    v3.extend_from_slice(&[0u8; 6 * 28]);
    assert!(matches!(
        persist::load_sections(&v3, &keys, &g, &cfg),
        Err(persist::PersistError::Version(3))
    ));
    assert!(matches!(
        persist::read_write_seq(&v3),
        Err(persist::PersistError::Version(3))
    ));
    // a plausible v4 header: same 48-byte frame as v5 but six
    // stage-granular sections — its bare cap/pb/mis tags must never be
    // misread as v5 topic-0 units
    let mut v4 = Vec::new();
    v4.extend_from_slice(b"OCTA");
    v4.extend_from_slice(&4u16.to_le_bytes());
    v4.extend_from_slice(&0u16.to_le_bytes());
    for w in [1u64, 2, 3, 0x5E0] {
        v4.extend_from_slice(&w.to_le_bytes());
    }
    v4.extend_from_slice(&6u32.to_le_bytes());
    v4.extend_from_slice(&0u32.to_le_bytes());
    v4.extend_from_slice(&[0u8; 6 * 40]);
    assert!(matches!(
        persist::load_sections(&v4, &keys, &g, &cfg),
        Err(persist::PersistError::Version(4))
    ));
    assert!(matches!(
        persist::read_write_seq(&v4),
        Err(persist::PersistError::Version(4))
    ));
    // v5, v6 and v7 files have v8's exact frame; only the version word
    // tells them apart (v7's PIKS section recorded no graph and hashed
    // footprints with FNV-1a; v6 also checksummed sections with FNV-1a and
    // keyed the graph byte by byte; v5 also hashed PIKS footprints over raw
    // probability rows). Under the exact cache name each is refused,
    // rebuilt, and overwritten by the v8 writer
    let model = {
        let mut vocab = octopus_topics::Vocabulary::new();
        vocab.intern("alpha");
        vocab.intern("beta");
        octopus_topics::TopicModel::from_rows(
            vocab,
            vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            vec![0.5, 0.5],
        )
        .unwrap()
    };
    let fp = Fingerprint::compute(&g, &cfg);
    let art = offline::build(&g, &cfg);
    let stale = |version: u16| {
        let mut raw = persist::encode(&art, &fp, &keys, 1);
        raw[4..6].copy_from_slice(&version.to_le_bytes());
        raw
    };
    for version in [5u16, 6, 7] {
        let raw = stale(version);
        assert!(matches!(
            persist::load_sections(&raw, &keys, &g, &cfg),
            Err(persist::PersistError::Version(v)) if v == version
        ));
        assert!(matches!(
            persist::read_write_seq(&raw),
            Err(persist::PersistError::Version(v)) if v == version
        ));
        let dir = std::env::temp_dir().join(format!("octa_v{version}_migration"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = fp.cache_path(&dir);
        std::fs::write(&path, &raw).unwrap();
        let engine = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
        assert!(!engine.cache_hit(), "a v{version} file must not serve");
        assert!(engine
            .system_report()
            .stage_reuse
            .iter()
            .all(|s| s.reused == 0));
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(
            u16_at(&rewritten, 4),
            8,
            "the rebuild overwrote the v{version} file"
        );
        let again = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
        assert!(again.cache_hit(), "the migrated file serves the next open");
        std::fs::remove_dir_all(&dir).ok();
    }

    // a v7 file under another name donates nothing: lookup drops it on its
    // header. The v8 writer adds its file beside it, and the first prune
    // that needs a slot evicts the v7 file, whose write sequence reads as 0
    let dir = std::env::temp_dir().join("octa_v7_stale_donor");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let stale_path = dir.join("octopus-artifacts-v7.octa");
    std::fs::write(&stale_path, stale(7)).unwrap();
    assert!(persist::lookup(&dir, &fp, &keys, &g, &cfg)
        .sources
        .is_empty());
    let engine = Octopus::open_or_build(g.clone(), model, cfg.clone(), &dir).unwrap();
    assert!(!engine.cache_hit(), "a v7 donor must not serve");
    let written = std::fs::read(fp.cache_path(&dir)).unwrap();
    assert_eq!(u16_at(&written, 4), 8);
    assert_eq!(
        u64_at(&written, 32),
        1,
        "the stale file's sequence reads as 0"
    );
    for seq in 2..=persist::MAX_CACHE_FILES as u64 {
        let filler = dir.join(format!("octopus-artifacts-filler-{seq:02}.octa"));
        std::fs::write(filler, persist::encode(&art, &fp, &keys, seq)).unwrap();
    }
    // one shared mtime, as on a coarse-mtime filesystem: the write
    // sequence alone orders the files
    let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file = std::fs::File::options()
            .write(true)
            .open(entry.unwrap().path())
            .unwrap();
        file.set_modified(stamp).unwrap();
    }
    persist::prune(&dir, &[]);
    assert!(!stale_path.exists(), "prune evicts the v7 file first");
    assert!(fp.cache_path(&dir).exists());
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        persist::MAX_CACHE_FILES
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Adversarial mapped-mode battery
// ---------------------------------------------------------------------------

/// Build + save a real artifact and return everything a mapped open needs.
#[allow(clippy::type_complexity)]
fn saved(
    dir_name: &str,
) -> (
    std::path::PathBuf,
    std::path::PathBuf,
    Fingerprint,
    StageKeys,
    TopicGraph,
    OctopusConfig,
) {
    let g = tiny_graph();
    let cfg = tiny_config();
    let fp = Fingerprint::compute(&g, &cfg);
    let keys = StageKeys::compute(&g, &cfg);
    let art = offline::build(&g, &cfg);
    let dir = std::env::temp_dir().join(dir_name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("artifact.octa");
    std::fs::write(&path, persist::encode(&art, &fp, &keys, 1)).unwrap();
    (dir, path, fp, keys, g, cfg)
}

#[test]
fn mapped_open_rejects_truncation_at_every_section_boundary() {
    let (dir, path, fp, keys, g, cfg) = saved("octa_v6_truncation_sweep");
    let raw = std::fs::read(&path).unwrap();
    let entries = parse_table(&raw);
    // every section start and end, the table end, one byte short of the
    // full file, and a handful of mid-section cuts
    let mut cuts: Vec<usize> = vec![0, 4, HEADER_LEN - 1, HEADER_LEN, raw.len() - 1];
    for e in &entries {
        cuts.extend([e.off, e.off + e.len, e.off + e.len / 2]);
    }
    cuts.retain(|&c| c < raw.len());
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        std::fs::write(&path, &raw[..cut]).unwrap();
        for paranoid in [false, true] {
            let res = view::open(&path, &fp, &keys, &g, &cfg, paranoid);
            assert!(
                res.is_err(),
                "truncation to {cut}/{} bytes must fail the mapped open",
                raw.len()
            );
        }
    }
    // the untouched file still opens (the sweep didn't test a broken fixture)
    std::fs::write(&path, &raw).unwrap();
    assert!(view::open(&path, &fp, &keys, &g, &cfg, true).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_open_rejects_misaligned_and_non_canonical_offsets() {
    let (dir, path, fp, keys, g, cfg) = saved("octa_v6_offset_tamper");
    let raw = std::fs::read(&path).unwrap();
    for i in 0..parse_table(&raw).len() {
        let off_at = HEADER_LEN + i * ENTRY_LEN + 16;
        let real = u64_at(&raw, off_at);
        // misaligned (off+4), canonical-break (off+8, still aligned), and
        // out-of-bounds offsets must all be refused at open
        for tampered in [real + 4, real + 8, raw.len() as u64 + 8] {
            let mut bad = raw.clone();
            bad[off_at..off_at + 8].copy_from_slice(&tampered.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            assert!(
                view::open(&path, &fp, &keys, &g, &cfg, false).is_err(),
                "section {i} offset {real}→{tampered} must fail the mapped open"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_fail_closed_at_open_or_first_touch_never_read_garbage() {
    let (dir, path, fp, keys, g, cfg) = saved("octa_v6_bitflip_sweep");
    let raw = std::fs::read(&path).unwrap();
    let entries = parse_table(&raw);
    for e in &entries {
        // flip a bit at several depths of the payload
        for frac in [0, 1, 2, 3] {
            let at = e.off + (e.len * frac / 4).min(e.len - 1);
            let mut bad = raw.clone();
            bad[at] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            // paranoid mode verifies every checksum up front: always refused
            assert!(
                view::open(&path, &fp, &keys, &g, &cfg, true).is_err(),
                "paranoid open must refuse a flipped bit in section {}",
                e.tag
            );
            // lazy mode: either the open already fails (eagerly checked or
            // structurally load-bearing byte), or the damaged section's
            // first touch fails closed — never a garbage answer
            if let Ok(mapped) = view::open(&path, &fp, &keys, &g, &cfg, false) {
                let touched: Result<(), octopus_core::error::CoreError> = (|| {
                    mapped.pb_view()?;
                    mapped.mis_view()?;
                    mapped.piks_view()?;
                    Ok(())
                })();
                assert!(
                    touched.is_err(),
                    "a lazily-checked flip in section {} must fail first touch",
                    e.tag
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Golden payloads
// ---------------------------------------------------------------------------

/// FNV-1a over every section's tag, payload length and payload bytes, in
/// canonical order — one number per artifact, so a pinned value catches
/// any byte that moves.
fn payload_hash<'a>(payloads: impl Iterator<Item = (u32, &'a [u8])>) -> u64 {
    let mut all = Vec::new();
    for (tag, payload) in payloads {
        all.extend(tag.to_le_bytes());
        all.extend((payload.len() as u64).to_le_bytes());
        all.extend(payload);
    }
    fnv1a(&all)
}

fn golden_model() -> octopus_topics::TopicModel {
    let mut vocab = octopus_topics::Vocabulary::new();
    vocab.intern("alpha");
    vocab.intern("beta");
    octopus_topics::TopicModel::from_rows(
        vocab,
        vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        vec![0.5, 0.5],
    )
    .unwrap()
}

/// Pinned payload hashes of the fixture's artifact, fresh and after one
/// nudge of edge 0 by 0.05, under the four engine flavours (so every
/// optional section kind is covered). A change here is an OCTA format
/// change: it needs a version bump, not new constants.
const GOLDEN: [(KimEngineChoice, u64, u64); 4] = {
    use octopus_core::kim::BoundKind::Precomputation;
    [
        (
            KimEngineChoice::Naive,
            0x1a5a23423b87a053,
            0x1fc17bd8eafbec38,
        ),
        (KimEngineChoice::Mis, 0x944f6979cdb8470b, 0x5cc19f13e7437240),
        (
            KimEngineChoice::BestEffort(Precomputation),
            0xd301d7571a2ce9f6,
            0x029fc22f2f520b45,
        ),
        (
            KimEngineChoice::TopicSample {
                bound: Precomputation,
                extra_samples: 3,
                direct_eps: 0.05,
            },
            0xbd1825725e39d612,
            0x38d4d269ce89bb1b,
        ),
    ]
};

#[test]
fn golden_payloads_do_not_move() {
    let g = tiny_graph();
    let nudge = octopus_graph::EdgeId(0);
    let nudged = octopus_graph::delta::nudge_weights(&g, &[nudge], 0.05).unwrap();
    for (kim, base, after) in GOLDEN {
        let cfg = OctopusConfig {
            kim,
            ..tiny_config()
        };
        let fresh = |graph: &TopicGraph| {
            let engine = Octopus::new(graph.clone(), golden_model(), cfg.clone()).unwrap();
            payload_hash(engine.artifacts().payloads())
        };
        assert_eq!(fresh(&g), base, "{kim:?}: fresh build");
        assert_eq!(
            fresh(&nudged),
            after,
            "{kim:?}: fresh build of the nudged graph"
        );
        // a flush reuses what the nudge left valid and serves the same bytes
        let live = Octopus::new(g.clone(), golden_model(), cfg.clone()).unwrap();
        let service = octopus_core::serve::OctopusService::new(live);
        service.submit(octopus_graph::delta::GraphDelta::NudgeWeights {
            edges: vec![nudge],
            delta: 0.05,
        });
        let report = service.apply_pending().unwrap().expect("one batch");
        assert!(report.stage_reuse.iter().any(|s| s.reused > 0), "{kim:?}");
        let flushed = service.snapshot();
        let hash = payload_hash(flushed.engine().artifacts().payloads());
        assert_eq!(hash, after, "{kim:?}: flushed epoch");
    }
}
