//! The incremental-rebuild contract: after a small graph delta,
//! `open_or_build` reuses **exactly** the stages whose inputs are unchanged
//! — never a stage that read something that changed (correctness), never
//! rebuilding a stage that read nothing that changed (precision) — and the
//! partially rebuilt engine is bit-identical to a fresh build.
//!
//! Delta shapes, per the stage input-slice table in
//! `offline::persist::StageKeys`:
//!
//! * **rename** → only `autocomplete` rebuilds;
//! * **weight nudge** → `spread-cap`/`pb-bound`/`mis-tables` rebuild **only
//!   the topics in the delta's footprint** ([`GraphDelta::touched_topics`]),
//!   `topic-samples` rebuilds (it reads the whole probability table),
//!   `autocomplete` is reused, and exactly the PIKS worlds in which the
//!   nudged edge's superset coin bit `c_e < max_z pp^z_e` flipped on a
//!   stored node's in-edge rebuild;
//! * **edge insert** → the weight stages rebuild exactly the topics carried
//!   by the new edge's probability payload, and exactly the PIKS worlds
//!   whose footprint contains a *changed* edge id rebuild (the new edge,
//!   plus every edge whose dense id shifted).
//!
//! A serving flush rebuilds from the live epoch alone and, for a batch
//! that keeps every edge id, screens PIKS worlds by the coin flips of the
//! edges whose maximum moved instead of footprint hashes: that screen
//! reuses exactly what the hash screen reuses, and the flushed engine
//! still serves a fresh build. An open screens a donor file the same way
//! when the file's PIKS section recorded the live graph's topology, from
//! the per-edge maxima it recorded: it too reuses exactly what the hash
//! screen reuses. Every expected rebuild set here is computed from
//! `EdgeCoins::coin` directly.
//!
//! [`GraphDelta::touched_topics`]: octopus_graph::delta::GraphDelta::touched_topics

use octopus_cascade::EdgeCoins;
use octopus_core::engine::{KimEngineChoice, Octopus, OctopusConfig, SystemReport};
use octopus_core::kim::BoundKind;
use octopus_core::offline::persist::{self, section_order, Fingerprint, StageKeys, SECTION_PIKS};
use octopus_core::offline::{self, PIKS_WORLD_SEED_XOR};
use octopus_core::piks::{
    footprint_hash, recorded_shifts, InfluencerIndex, PiksReuse, PiksWorldView, PiksWorldsView,
};
use octopus_core::serve::OctopusService;
use octopus_graph::delta::GraphDelta;
use octopus_graph::{delta, EdgeId, GraphBuilder, NodeId, TopicGraph};
use octopus_topics::{TopicModel, Vocabulary};
use proptest::prelude::*;
use std::collections::HashSet;

/// `(src, dst, topic, probability)` — one edge of a generated graph.
type EdgeSpec = (u32, u32, usize, f64);

fn clean_edges(raw: Vec<EdgeSpec>) -> Vec<EdgeSpec> {
    let mut seen = HashSet::new();
    let mut edges = Vec::new();
    for (u, v, z, p) in raw {
        if u != v && seen.insert((u, v)) {
            edges.push((u, v, z, p));
        }
    }
    if edges.is_empty() {
        edges.push((0, 1, 0, 0.42));
    }
    edges
}

fn build_graph(n: usize, edges: &[EdgeSpec]) -> TopicGraph {
    let mut b = GraphBuilder::new(2);
    for i in 0..n {
        b.add_node(format!("user-{i}"));
    }
    for &(u, v, z, p) in edges {
        b.add_edge(NodeId(u), NodeId(v), &[(z, p)]).unwrap();
    }
    b.build().unwrap()
}

fn arb_net() -> impl Strategy<Value = (usize, Vec<EdgeSpec>)> {
    (5usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0usize..2, 0.1f64..0.8), 4..28)
            .prop_map(move |raw| (n, clean_edges(raw)))
    })
}

fn config() -> OctopusConfig {
    OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 96,
        mis_rr_per_topic: 150,
        k_max: 3,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A node rename invalidates the autocomplete key and nothing else.
    #[test]
    fn rename_invalidates_only_name_dependent_stages(
        (n, edges) in arb_net(),
        pick in 0usize..64,
    ) {
        let g = build_graph(n, &edges);
        let cfg = config();
        let base = StageKeys::compute(&g, &cfg);
        let victim = NodeId((pick % n) as u32);
        let renamed = delta::rename_node(&g, victim, "renamed-somebody").unwrap();
        let keys = StageKeys::compute(&renamed, &cfg);
        prop_assert_eq!(keys.cap, base.cap);
        prop_assert_eq!(keys.pb, base.pb);
        prop_assert_eq!(keys.mis, base.mis);
        prop_assert_eq!(keys.samples, base.samples);
        prop_assert_eq!(keys.piks, base.piks);
        prop_assert_ne!(keys.names, base.names);
        // and the PIKS worlds themselves are footprint-stable: names are
        // not part of any world's footprint
        let seed = cfg.seed ^ PIKS_WORLD_SEED_XOR;
        let idx = InfluencerIndex::build(&g, 32, seed);
        let coins = EdgeCoins::worlds(seed, idx.len());
        for (j, &coins) in coins.iter().enumerate() {
            prop_assert_eq!(
                footprint_hash(&g, &idx.world_nodes(j), coins),
                footprint_hash(&renamed, &idx.world_nodes(j), coins),
            );
        }
    }

    /// A weight nudge always invalidates the PB and MIS keys (when their
    /// stages are enabled): no probability change may ever reuse them.
    #[test]
    fn weight_nudge_never_reuses_pb_or_mis(
        (n, edges) in arb_net(),
        pick in 0usize..64,
        delta_p in 0.03f64..0.15,
    ) {
        let g = build_graph(n, &edges);
        let victim = EdgeId((pick % g.edge_count()) as u32);
        let nudged = delta::nudge_weights(&g, &[victim], delta_p).unwrap();
        for kim in [
            KimEngineChoice::Mis,
            KimEngineChoice::BestEffort(BoundKind::Precomputation),
        ] {
            let cfg = OctopusConfig { kim, ..config() };
            let a = StageKeys::compute(&g, &cfg);
            let b = StageKeys::compute(&nudged, &cfg);
            if offline::needs_pb(&cfg) {
                prop_assert_ne!(a.pb, b.pb, "PB read the nudged table");
            }
            if offline::needs_mis(&cfg) {
                prop_assert_ne!(a.mis, b.mis, "MIS read the nudged table");
            }
            prop_assert_ne!(a.cap, b.cap, "the cap read the nudged table");
            prop_assert_eq!(a.names, b.names, "autocomplete never reads weights");
        }
    }

    /// A weight nudge invalidates **exactly** the topics in its footprint:
    /// for every topic in [`GraphDelta::touched_topics`] the per-topic
    /// cap/PB/MIS keys move (when the stage is enabled), and for every topic
    /// outside it they are bit-identical — a topic-`z`-confined nudge leaves
    /// all other topics' offline sub-sections reusable.
    ///
    /// [`GraphDelta::touched_topics`]: octopus_graph::delta::GraphDelta::touched_topics
    #[test]
    fn topic_confined_nudge_invalidates_exactly_footprint_topics(
        (n, edges) in arb_net(),
        pick in 0usize..64,
        delta_p in 0.03f64..0.15,
    ) {
        let g = build_graph(n, &edges);
        let victim = EdgeId((pick % g.edge_count()) as u32);
        let shape = delta::GraphDelta::NudgeWeights { edges: vec![victim], delta: delta_p };
        let touched = shape.touched_topics(&g).expect("victim edge is valid");
        prop_assert!(!touched.is_empty(), "every edge carries at least one topic");
        let nudged = shape.apply(&g).unwrap();
        for kim in [
            KimEngineChoice::Mis,
            KimEngineChoice::BestEffort(BoundKind::Precomputation),
        ] {
            let cfg = OctopusConfig { kim, ..config() };
            let a = StageKeys::compute(&g, &cfg);
            let b = StageKeys::compute(&nudged, &cfg);
            for z in 0..g.num_topics() {
                if touched.contains(&z) {
                    prop_assert_ne!(a.cap[z], b.cap[z], "topic {} cap in footprint", z);
                    if offline::needs_pb(&cfg) {
                        prop_assert_ne!(a.pb[z], b.pb[z], "topic {} PB in footprint", z);
                    }
                    if offline::needs_mis(&cfg) {
                        prop_assert_ne!(a.mis[z], b.mis[z], "topic {} MIS in footprint", z);
                    }
                } else {
                    prop_assert_eq!(a.cap[z], b.cap[z], "topic {} cap untouched", z);
                    prop_assert_eq!(a.pb[z], b.pb[z], "topic {} PB untouched", z);
                    prop_assert_eq!(a.mis[z], b.mis[z], "topic {} MIS untouched", z);
                }
            }
        }
    }

    /// An edge insert invalidates exactly the PIKS worlds whose BFS
    /// footprint contains a changed edge id — the new edge, or any edge
    /// whose dense id shifted — and reuses every other world.
    #[test]
    fn edge_insert_invalidates_exactly_footprint_hit_worlds(
        (n, edges) in arb_net(),
        pick in 0usize..64,
    ) {
        let g = build_graph(n, &edges);
        let cfg = config();
        let r = 64usize;
        let seed = cfg.seed ^ PIKS_WORLD_SEED_XOR;
        let idx = InfluencerIndex::build(&g, r, seed);
        let frozen = idx.to_bytes();

        // pick an absent edge (u, v); skip the case when the graph is complete
        let mut absent = Vec::new();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v && g.find_edge(NodeId(u), NodeId(v)).is_none() {
                    absent.push((NodeId(u), NodeId(v)));
                }
            }
        }
        prop_assume!(!absent.is_empty());
        let (u, v) = absent[pick % absent.len()];
        let bigger = delta::insert_edge(&g, u, v, &[(0, 0.37)]).unwrap();
        let inserted = bigger.find_edge(u, v).unwrap();

        // the insert carries only a topic-0 entry, so topic 1's weight-stage
        // keys survive even though every later edge id shifted
        let ka = StageKeys::compute(&g, &cfg);
        let kb = StageKeys::compute(&bigger, &cfg);
        prop_assert_ne!(ka.cap[0], kb.cap[0], "topic 0 carries the new edge");
        prop_assert_eq!(ka.cap[1], kb.cap[1], "topic 1 never saw the insert");
        prop_assert_eq!(ka.mis[1], kb.mis[1], "topic 1 never saw the insert");

        // changed edge ids in OLD numbering: every old edge at or after the
        // insertion slot shifted up by one
        let shifted = |e: EdgeId| e.0 >= inserted.0;
        let expected: Vec<bool> = (0..r)
            .map(|j| {
                let nodes = idx.world_nodes(j);
                let touches_changed = nodes.iter().any(|&gnode| {
                    g.in_edges(NodeId(gnode)).any(|(_, e)| shifted(e))
                        || gnode == v.0 // the new edge lands in v's in-list
                });
                !touches_changed
            })
            .collect();

        let reuse = InfluencerIndex::load_reusable(&frozen, &bigger, seed).unwrap();
        prop_assert_eq!(reuse.reusable_worlds(), expected);

        // and the partial rebuild is bit-identical to a fresh build
        let (rebuilt, reused) = InfluencerIndex::build_with_reuse(&bigger, r, seed, &reuse);
        prop_assert_eq!(reused, reuse.available());
        prop_assert_eq!(rebuilt, InfluencerIndex::build(&bigger, r, seed));
    }

    /// The coin screen is the structural-hash screen, only cheaper: over
    /// random batches of nudges, row replacements and renames on the
    /// citation fixture, a flush that keeps every edge id reuses exactly
    /// the worlds in which no in-edge of a stored node flipped its superset
    /// coin bit — the set computed here from the coins, which equals the
    /// hash screen's and contains the worlds the old node mask kept (no
    /// rewritten edge targets a stored node) — and every reused world
    /// equals a fresh world build on the new graph. A batch that empties a
    /// row drops that edge and shifts every later id, so the flush takes
    /// the hash screen; either way it serves a fresh build's bytes.
    #[test]
    fn coin_screen_equals_the_structural_hash_screen(
        ops in proptest::collection::vec((0usize..5, 0usize..64, 0.01f64..0.4), 1..6),
    ) {
        let (g, model) = citation_fixture();
        let cfg = config();
        // kinds 0-4: nudges, row replacements, no-op rewrites, emptied
        // rows and renames
        let batch = decode_batch(&g, &ops);
        let live = Octopus::new(g.clone(), model.clone(), cfg.clone()).unwrap();
        let raw = piks_payload(&live);
        let view = PiksWorldsView::parse(&raw).unwrap();
        let g1 = delta::apply_all(&g, &batch).unwrap();
        let seed = cfg.seed ^ PIKS_WORLD_SEED_XOR;
        let r = cfg.piks_index_size;
        let by_hash = InfluencerIndex::load_reusable(&raw, &g1, seed).unwrap();
        let id_stable = g1.edge_count() == g.edge_count();
        let shifts = delta::max_shifts(&g, &g1);
        prop_assert_eq!(shifts.is_some(), id_stable, "emptied rows shift ids");
        if let Some(shifts) = shifts {
            let mut by_coin = PiksReuse::default();
            by_coin.screen(&raw, &g1, seed, Some(&shifts)).unwrap();
            // the oracle: no in-edge of a stored node reads another bit
            let coins = EdgeCoins::worlds(seed, r);
            let oracle: Vec<bool> = (0..r)
                .map(|j| {
                    world_nodes(&view.world(j)).iter().all(|&v| {
                        g.in_edges(NodeId(v)).all(|(_, e)| {
                            let c = coins[j].coin(e);
                            (c < g.edge_prob_max(e) as f64) == (c < g1.edge_prob_max(e) as f64)
                        })
                    })
                })
                .collect();
            prop_assert_eq!(by_coin.reusable_worlds(), oracle.clone());
            prop_assert_eq!(by_hash.reusable_worlds(), oracle.clone());
            // a superset of the old node mask: worlds holding no target of
            // a rewritten edge
            let mut targets = HashSet::new();
            for d in &batch {
                let edges = match d {
                    GraphDelta::NudgeWeights { edges, .. } => edges.clone(),
                    GraphDelta::SetWeights { edge, .. } => vec![*edge],
                    _ => Vec::new(),
                };
                targets.extend(edges.iter().map(|&e| g.edge_endpoints(e).unwrap().1 .0));
            }
            for (j, &reused) in oracle.iter().enumerate() {
                let masked = world_nodes(&view.world(j)).iter().any(|v| targets.contains(v));
                prop_assert!(reused || masked, "world {} rebuilt outside the mask", j);
            }
            // every reused world is a fresh world build on the new graph
            let fresh = InfluencerIndex::build(&g1, r, seed).to_bytes();
            let fresh = PiksWorldsView::parse(&fresh).unwrap();
            for j in (0..r).filter(|&j| oracle[j]) {
                prop_assert_eq!(world_record(&view.world(j)), world_record(&fresh.world(j)));
            }
        }

        let service = OctopusService::new(live);
        service.submit_all(batch);
        let report = service.apply_pending().unwrap().expect("a pending batch");
        let piks = report.stage_reuse.iter().find(|s| s.stage == "piks-worlds").unwrap();
        prop_assert_eq!(piks.reused, by_hash.available(), "id-stable: {}", id_stable);
        assert_identical_to_fresh(&g1, &cfg, service.snapshot().engine(), "reweighting flush");
    }
}

/// One generated delta: a kind, a pick and a probability, decoded against
/// the graph it applies to by [`decode_batch`].
type OpSpec = (usize, usize, f64);

/// Deltas the open-path property draws from: a donor file per graph, then
/// the live graph.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    let op = (0usize..7, 0usize..64, 0.01f64..0.4);
    proptest::collection::vec(proptest::collection::vec(op, 1..4), 1..4)
}

/// `ops` as one batch over `g`: a nudge, a row replacement, a no-op
/// rewrite, an emptied row, a rename, a remove plus an insert of an absent
/// pair (the edge count stays, ids shift), or an insert.
fn decode_batch(g: &TopicGraph, ops: &[OpSpec]) -> Vec<GraphDelta> {
    // ids below this stay valid after every op before them drops an edge
    let ids = g.edge_count() - ops.len();
    let absent: Vec<(NodeId, NodeId)> = g
        .nodes()
        .flat_map(|u| g.nodes().map(move |v| (u, v)))
        .filter(|&(u, v)| u != v && g.find_edge(u, v).is_none())
        .collect();
    let mut batch = Vec::new();
    for &(kind, pick, p) in ops {
        let edge = EdgeId((pick % ids) as u32);
        let (src, dst) = absent[pick % absent.len()];
        let insert = GraphDelta::InsertEdge {
            src,
            dst,
            probs: vec![(pick % 2, p)],
        };
        match kind {
            0 => batch.push(GraphDelta::NudgeWeights {
                edges: vec![edge],
                delta: p,
            }),
            1 => batch.push(GraphDelta::SetWeights {
                edge,
                probs: vec![(pick % 2, p)],
            }),
            // a no-op rewrite: it moves no maximum, so no world rebuilds
            // (the old node mask rebuilt its target's)
            2 => batch.push(GraphDelta::SetWeights {
                edge,
                probs: g
                    .edge_topic_probs(edge)
                    .map(|(z, p)| (z.index(), p as f64))
                    .collect(),
            }),
            // an emptied row: the builder drops the edge
            3 => batch.push(GraphDelta::SetWeights {
                edge,
                probs: vec![(pick % 2, 0.0)],
            }),
            4 => batch.push(GraphDelta::RenameNode {
                node: NodeId((pick % g.node_count()) as u32),
                name: format!("renamed-{pick}"),
            }),
            5 => batch.extend([GraphDelta::RemoveEdge { edge }, insert]),
            _ => batch.push(insert),
        }
    }
    batch
}

/// The `[start, end)` of the PIKS section's payload in an encoded artifact
/// over `z_count` topics: the table row's `off` and `len` (header 48 B,
/// rows 40 B).
fn piks_range(raw: &[u8], z_count: usize) -> (usize, usize) {
    let i = section_order(z_count)
        .iter()
        .position(|&tag| tag == SECTION_PIKS)
        .unwrap();
    let word = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().unwrap()) as usize;
    let off = word(48 + 40 * i + 16);
    (off, off + word(48 + 40 * i + 24))
}

/// Write one donor file per graph the batches walk through from the
/// citation fixture (the last batch makes the live graph), then open the
/// live graph from that directory: `persist::lookup` reuses exactly the
/// worlds the footprint screen reuses from the donors, each donor's
/// recorded maxima give `delta::max_shifts` of its graph and the live one,
/// and the reopened engine serves a fresh build's bytes.
fn open_screen_equals_the_footprint_screen(label: &str, batches: &[Vec<OpSpec>]) {
    let (fixture, model) = citation_fixture();
    let cfg = config();
    let mut graphs = vec![fixture];
    for ops in batches {
        let g = graphs.last().unwrap();
        let next = delta::apply_all(g, &decode_batch(g, ops)).unwrap();
        graphs.push(next);
    }
    let live = graphs.pop().unwrap();
    let dir = std::env::temp_dir().join(format!("octopus-open-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for donor in &graphs {
        drop(Octopus::open_or_build(donor.clone(), model.clone(), cfg.clone(), &dir).unwrap());
    }

    let seed = cfg.seed ^ PIKS_WORLD_SEED_XOR;
    let keys = StageKeys::compute(&live, &cfg);
    let fp = Fingerprint::compute(&live, &cfg);
    let found = persist::lookup(&dir, &fp, &keys, &live, &cfg);
    // the oracle: every donor footprint-screened alone; world j is the same
    // derivation in every donor, so the donors union
    let mut oracle = vec![false; cfg.piks_index_size];
    for donor in &graphs {
        let raw = std::fs::read(Fingerprint::compute(donor, &cfg).cache_path(&dir)).unwrap();
        let (lo, hi) = piks_range(&raw, donor.num_topics());
        let alone = InfluencerIndex::load_reusable(&raw[lo..hi], &live, seed).unwrap();
        for (o, reused) in oracle.iter_mut().zip(alone.reusable_worlds()) {
            *o |= reused;
        }
        // the recorded maxima give the flush's shift list, and no list
        // once an id moved
        assert_eq!(
            recorded_shifts(&raw[lo..hi], &live, keys.topology),
            delta::max_shifts(donor, &live),
            "{label}: recorded maxima"
        );
    }
    let screened = found.slots.piks.as_ref().map(PiksReuse::reusable_worlds);
    assert_eq!(screened, Some(oracle.clone()), "{label}: open screen");

    let engine = Octopus::open_or_build(live.clone(), model, cfg.clone(), &dir).unwrap();
    let report = engine.system_report();
    let piks = report
        .stage_reuse
        .iter()
        .find(|s| s.stage == "piks-worlds")
        .unwrap();
    assert_eq!(
        piks.reused,
        oracle.iter().filter(|&&o| o).count(),
        "{label}: {piks:?}"
    );
    assert_identical_to_fresh(&live, &cfg, &engine, label);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The open path reuses what the footprint screen reuses, over one to
    /// three donor files written at successive random batches (id-stable
    /// ones screen by recorded coin flips, the others by footprints).
    #[test]
    fn open_screen_equals_the_footprint_screen_over_donor_files(batches in arb_batches()) {
        open_screen_equals_the_footprint_screen("prop", &batches);
    }
}

/// A remove plus an insert keeps the edge count but not the ids (or the
/// topology key): the donor's recorded maxima must not screen it.
#[test]
fn a_remove_and_insert_keeping_the_edge_count_takes_the_footprint_screen() {
    let (g, _) = citation_fixture();
    let ops = [(5, 0, 0.3)];
    let live = delta::apply_all(&g, &decode_batch(&g, &ops)).unwrap();
    assert_eq!(live.edge_count(), g.edge_count(), "the batch keeps m");
    assert_eq!(delta::max_shifts(&g, &live), None, "the batch moves ids");
    open_screen_equals_the_footprint_screen("remove-insert", &[ops.to_vec()]);
}

/// A byte flipped in a donor's recorded maxima fails the PIKS section's
/// checksum: the donor gives no world, its intact sections still donate,
/// and the worlds rebuild to a fresh build's bytes.
#[test]
fn a_damaged_maxima_column_gives_no_piks_world() {
    let (g, model) = citation_fixture();
    let cfg = config();
    let dir = std::env::temp_dir().join(format!("octopus-open-column-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    drop(Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap());
    let path = Fingerprint::compute(&g, &cfg).cache_path(&dir);
    let mut raw = std::fs::read(&path).unwrap();
    let (lo, _) = piks_range(&raw, g.num_topics());
    raw[lo + 32] ^= 0x01; // the low byte of edge 0's recorded maximum
    std::fs::write(&path, &raw).unwrap();

    let live = delta::nudge_weights(&g, &[EdgeId(1)], 0.05).unwrap();
    let keys = StageKeys::compute(&live, &cfg);
    let found = persist::lookup(&dir, &Fingerprint::compute(&live, &cfg), &keys, &live, &cfg);
    assert_eq!(found.slots.piks.as_ref().map_or(0, PiksReuse::available), 0);
    assert!(
        found.slots.names.is_some(),
        "the intact sections still donate"
    );
    let engine = Octopus::open_or_build(live.clone(), model, cfg.clone(), &dir).unwrap();
    let report = engine.system_report();
    let piks = report
        .stage_reuse
        .iter()
        .find(|s| s.stage == "piks-worlds")
        .unwrap();
    assert_eq!(piks.reused, 0, "{piks:?}");
    assert_identical_to_fresh(&live, &cfg, &engine, "damaged column");
    std::fs::remove_dir_all(&dir).ok();
}

/// A stored world's node list, in BFS order.
fn world_nodes(wv: &PiksWorldView<'_>) -> Vec<u32> {
    (0..wv.node_count()).map(|i| wv.node(i)).collect()
}

/// Every field of a stored world record, as read through its view.
fn world_record(wv: &PiksWorldView<'_>) -> Vec<u64> {
    let (w, e) = (wv.node_count(), wv.edge_count());
    let mut out = vec![wv.footprint(), wv.coin_seed(), wv.edges_examined() as u64];
    out.extend([w as u64, e as u64]);
    out.extend(world_nodes(wv).into_iter().map(u64::from));
    out.extend(
        (0..w)
            .map(|i| wv.local_pair(i))
            .flat_map(|(g, l)| [g as u64, l as u64]),
    );
    out.extend((0..=w).map(|i| wv.in_offset(i) as u64));
    out.extend(
        (0..e)
            .map(|k| wv.in_edge(k))
            .flat_map(|(s, e)| [s as u64, e.0 as u64]),
    );
    out
}

/// A batch that inserts or removes an edge shifts edge ids, so the flush
/// takes the footprint-hash screen — over the live epoch alone — still
/// serving a fresh build's bytes. So does a row replacement that empties a
/// row: the builder drops the edge and every later id shifts.
#[test]
fn id_shifting_batches_take_the_footprint_screen() {
    let (g, model) = citation_fixture();
    let cfg = config();
    let shifting = [
        GraphDelta::InsertEdge {
            src: NodeId(3),
            dst: NodeId(9),
            probs: vec![(0, 0.33)],
        },
        GraphDelta::RemoveEdge { edge: EdgeId(2) },
        GraphDelta::SetWeights {
            edge: EdgeId(2),
            probs: vec![(0, 0.0)],
        },
    ];
    for shift in shifting {
        let batch = vec![
            GraphDelta::NudgeWeights {
                edges: vec![EdgeId(1)],
                delta: 0.05,
            },
            shift,
        ];
        let live = Octopus::new(g.clone(), model.clone(), cfg.clone()).unwrap();
        let raw = piks_payload(&live);
        let g1 = delta::apply_all(&g, &batch).unwrap();
        assert_ne!(g1.edge_count(), g.edge_count(), "every batch shifts ids");
        assert_eq!(delta::max_shifts(&g, &g1), None);
        let seed = cfg.seed ^ PIKS_WORLD_SEED_XOR;
        let by_hash = InfluencerIndex::load_reusable(&raw, &g1, seed).unwrap();

        let service = OctopusService::new(live);
        service.submit_all(batch);
        let report = service.apply_pending().unwrap().expect("a pending batch");
        let piks = report
            .stage_reuse
            .iter()
            .find(|s| s.stage == "piks-worlds")
            .unwrap();
        assert_eq!(piks.reused, by_hash.available(), "{piks:?}");
        assert_identical_to_fresh(&g1, &cfg, service.snapshot().engine(), "id-shifting flush");
    }
}

/// The serialized PIKS section an engine serves.
fn piks_payload(engine: &Octopus) -> Vec<u8> {
    let (_, raw) = engine
        .artifacts()
        .payloads()
        .find(|&(tag, _)| tag == SECTION_PIKS)
        .expect("every artifact has a PIKS section");
    raw.to_vec()
}

/// Citation-flavored network: two scholarly hubs with student fans, a
/// cross link, and citation chains among the students — so a world rooted
/// at a student reaches several nodes and a rewritten row can miss it.
fn citation_fixture() -> (TopicGraph, TopicModel) {
    let mut b = GraphBuilder::new(2);
    let han = b.add_node("jiawei han");
    let jordan = b.add_node("michael jordan");
    let db: Vec<NodeId> = (0..6)
        .map(|i| b.add_node(format!("db-student-{i}")))
        .collect();
    let ml: Vec<NodeId> = (0..5)
        .map(|i| b.add_node(format!("ml-student-{i}")))
        .collect();
    for &v in &db {
        b.add_edge(han, v, &[(0, 0.7)]).unwrap();
    }
    for &v in &ml {
        b.add_edge(jordan, v, &[(1, 0.7)]).unwrap();
    }
    for w in db.windows(2).chain(ml.windows(2)) {
        b.add_edge(w[0], w[1], &[(0, 0.4), (1, 0.3)]).unwrap();
    }
    b.add_edge(han, jordan, &[(0, 0.3), (1, 0.1)]).unwrap();
    let g = b.build().unwrap();
    let model = model_for(&g);
    (g, model)
}

/// The full engine path: open → delta → reopen, asserting the per-stage
/// report and bit-identity against a fresh build for every delta shape.
#[test]
fn reopen_after_delta_reuses_exactly_unchanged_stages() {
    let g = build_graph(
        9,
        &[
            (0, 1, 0, 0.6),
            (0, 2, 0, 0.55),
            (1, 3, 1, 0.5),
            (2, 4, 1, 0.45),
            (3, 5, 0, 0.4),
            (4, 6, 1, 0.35),
            (5, 7, 0, 0.3),
            (6, 8, 1, 0.25),
            (7, 8, 0, 0.2),
        ],
    );
    let model = model_for(&g);
    let cfg = config();
    let dir = std::env::temp_dir().join("octopus_delta_invalidation_e2e");
    std::fs::remove_dir_all(&dir).ok();

    let first = Octopus::open_or_build(g.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    assert!(!first.cache_hit(), "cold start builds");

    // rename: everything except the trie must be reused
    let renamed = delta::rename_node(&g, NodeId(4), "brand-new-name").unwrap();
    let engine = Octopus::open_or_build(renamed.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    let report = engine.system_report();
    assert!(!report.cache_hit, "a partial rebuild is not a full hit");
    for s in &report.stage_reuse {
        match s.stage {
            "autocomplete" => assert_eq!(s.reused, 0, "rename must rebuild the trie"),
            _ => assert!(s.is_full(), "rename must reuse {}: {s:?}", s.stage),
        }
    }
    assert_identical_to_fresh(&renamed, &cfg, &engine, "rename");

    // weight nudge on top of the rename, confined to one topic: the weight
    // stages rebuild exactly the nudged topic's units and reuse every other
    // topic's, the trie (already cached for the renamed graph) and every
    // world whose coin the nudge did not cross reuse
    let shape = delta::GraphDelta::NudgeWeights {
        edges: vec![EdgeId(3)],
        delta: 0.3,
    };
    let touched = shape.touched_topics(&renamed).unwrap();
    assert_eq!(touched.len(), 1, "EdgeId(3) is a single-topic edge");
    let nudged = shape.apply(&renamed).unwrap();
    let engine = Octopus::open_or_build(nudged.clone(), model.clone(), cfg.clone(), &dir).unwrap();
    let report = engine.system_report();
    assert!(!report.cache_hit);
    let by_stage = |r: &SystemReport, stage: &str| {
        r.stage_reuse
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from report"))
            .clone()
    };
    let z_count = nudged.num_topics();
    let spared = z_count - touched.len();
    let cap = by_stage(&report, "spread-cap");
    assert_eq!(
        (cap.reused, cap.total),
        (spared, z_count),
        "a topic-confined nudge reuses every other topic's cap unit: {cap:?}"
    );
    let mis = by_stage(&report, "mis-tables");
    assert_eq!(
        (mis.reused, mis.total),
        (spared, z_count),
        "a topic-confined nudge reuses every other topic's MIS table: {mis:?}"
    );
    assert!(by_stage(&report, "autocomplete").is_full());
    let piks = by_stage(&report, "piks-worlds");
    let seed = cfg.seed ^ PIKS_WORLD_SEED_XOR;
    let before = InfluencerIndex::build(&renamed, cfg.piks_index_size, seed);
    let coins = EdgeCoins::worlds(seed, before.len());
    let (e, target) = (EdgeId(3), renamed.edge_endpoints(EdgeId(3)).unwrap().1);
    let c = |j: usize| coins[j].coin(e);
    let flipped = (0..before.len())
        .filter(|&j| before.world_nodes(j).contains(&target.0))
        .filter(|&j| {
            (c(j) < renamed.edge_prob_max(e) as f64) != (c(j) < nudged.edge_prob_max(e) as f64)
        })
        .count();
    assert!(flipped > 0, "the nudge must cross a coin");
    assert_eq!(
        (piks.reused, piks.total),
        (piks.total - flipped, before.len()),
        "a one-edge nudge rebuilds exactly the worlds whose coin it crossed: {piks:?}"
    );
    assert_identical_to_fresh(&nudged, &cfg, &engine, "nudge");

    // probe answers agree with a cache-less engine
    let fresh = Octopus::new(nudged.clone(), model.clone(), cfg.clone()).unwrap();
    let a = engine.find_influencers("alpha", 3).unwrap();
    let b = fresh.find_influencers("alpha", 3).unwrap();
    assert_eq!(
        a.seeds.iter().map(|s| s.node).collect::<Vec<_>>(),
        b.seeds.iter().map(|s| s.node).collect::<Vec<_>>()
    );
    assert_eq!(a.result.spread, b.result.spread);

    // reopening with no further delta is now a full hit again
    let again = Octopus::open_or_build(nudged, model, cfg, &dir).unwrap();
    assert!(again.cache_hit(), "unchanged reopen must fully hit");
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine serves exactly the section payloads a fresh build would (the
/// header's write sequence aside).
fn assert_identical_to_fresh(g: &TopicGraph, cfg: &OctopusConfig, got: &Octopus, what: &str) {
    let fresh = Octopus::new(g.clone(), model_for(g), cfg.clone()).unwrap();
    let want: Vec<_> = fresh.artifacts().payloads().collect();
    let got: Vec<_> = got.artifacts().payloads().collect();
    assert_eq!(got.len(), want.len(), "{what}: section count");
    for ((tag, a), (other, b)) in got.iter().zip(&want) {
        assert_eq!(tag, other, "{what}: section order");
        assert!(
            a == b,
            "{what}: section {tag:#x} payload differs from a fresh build"
        );
    }
}

/// A 2-topic model whose vocabulary maps one word to each topic.
fn model_for(g: &TopicGraph) -> TopicModel {
    assert_eq!(g.num_topics(), 2);
    let mut vocab = Vocabulary::new();
    vocab.intern("alpha");
    vocab.intern("beta");
    TopicModel::from_rows(
        vocab,
        vec![vec![0.85, 0.15], vec![0.15, 0.85]],
        vec![0.5, 0.5],
    )
    .unwrap()
}
