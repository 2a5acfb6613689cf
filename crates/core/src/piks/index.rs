//! The influencer index (§II-D): "to achieve real-time influence spread
//! computation, we introduce a novel index structure that maintains
//! 'influencers' of uniformly sampled users to avoid online sampling from
//! scratch."
//!
//! ## Construction
//!
//! `R` possible worlds are drawn. World `j` picks a uniform root `rⱼ` and
//! performs a reverse BFS collecting every edge that could *possibly* be
//! live under **any** query (coin `c_e < max_z pp^z_e`). The reached nodes
//! are `rⱼ`'s potential influencers; the traversed sub-DAG is stored in a
//! compact per-sample CSR.
//!
//! ## Querying
//!
//! Coins are derived by hashing (shared coins, see
//! [`octopus_cascade::EdgeCoins`]), so for any online `γ` the same world is
//! re-evaluated exactly: edge `e` is live iff `c_e < pp_e(γ)` — a subset of
//! the stored superset since `pp_e(γ) ≤ max_z pp^z_e`. The live influencer
//! set of sample `j` is materialized **lazily on first touch per query**
//! (the "delay materialization" technique) and cached in the query session;
//! the spread of a target `u` is then the classic RR estimate
//! `n/R · #{j : u ∈ live_j}`.
//!
//! [`InfluencerIndex`] builds the serialized index — the OCTA v8
//! `piks-worlds` section — and queries read it through the zero-copy
//! [`PiksWorldsView`] and its [`PiksSession`].

use bytes::BufMut;
use octopus_cascade::{stream_seed, EdgeCoins};
use octopus_graph::codec::GraphKeys;
use octopus_graph::delta::{self, MaxShift};
use octopus_graph::wire::{self, Fnv64, WireError};
use octopus_graph::{EdgeId, NodeId, TopicGraph};
use octopus_topics::TopicDistribution;
use rayon::prelude::*;

/// One freshly built world: the potential-influencer DAG of a sampled root,
/// until [`Sample::encode`] writes its record.
struct Sample {
    coins: EdgeCoins,
    /// Nodes of the sub-DAG (root first; position = local id).
    nodes: Vec<u32>,
    /// Sorted `(global, local)` lookup pairs.
    local_of: Vec<(u32, u32)>,
    /// CSR over local node ids: for each local node, its incoming stored
    /// edges as `(source local id, edge id)`.
    in_offsets: Vec<u32>,
    in_edges: Vec<(u32, EdgeId)>,
    /// [`footprint_hash`] of this world over the graph it was built on —
    /// the world's incremental-rebuild cache key.
    footprint: u64,
    /// Edges the construction BFS examined (a per-world work counter).
    edges_examined: usize,
}

impl Sample {
    /// The world's record in the `piks-worlds` section (layout on
    /// [`InfluencerIndex`]).
    fn encode(&self) -> Vec<u8> {
        let (w, e) = (self.nodes.len(), self.in_edges.len());
        let local_off = wire::align8(40 + 4 * w);
        let edges_off = wire::align8(local_off + 8 * w + 4 * (w + 1));
        let mut buf = Vec::with_capacity(edges_off + 8 * e);
        buf.put_u64_le(self.footprint);
        buf.put_u64_le(self.coins.seed());
        buf.put_u64_le(self.edges_examined as u64);
        buf.put_u64_le(w as u64);
        buf.put_u64_le(e as u64);
        for &g in &self.nodes {
            buf.put_u32_le(g);
        }
        buf.put_bytes(0, wire::pad8(4 * w));
        for &(g, l) in &self.local_of {
            buf.put_u32_le(g);
            buf.put_u32_le(l);
        }
        for &o in &self.in_offsets {
            buf.put_u32_le(o);
        }
        buf.put_bytes(0, wire::pad8(4 * (w + 1)));
        for &(src, e) in &self.in_edges {
            buf.put_u32_le(src);
            buf.put_u32_le(e.0);
        }
        buf
    }
}

/// The influencer index: its serialized `piks-worlds` section.
///
/// Layout (the OCTA v8 section payload; normative spec in
/// `ARCHITECTURE.md`). All fields little-endian; every world record starts
/// 8-aligned and has a length that is a multiple of 8, so a memory-mapped
/// file can serve queries straight off the bytes:
///
/// ```text
/// n u64 | world count R u64 | topology u64 | edge count m u64
/// m × f32 per-edge maximum edge_prob_max, by edge id    [pad to 8]
/// (R+1) × u64 world offsets (section-relative; world j occupies
///                            [off[j], off[j+1]); off[R] = section len)
/// R × world:
///   footprint u64 | coin seed u64 | edges_examined u64
///   node count W u64 | edge count E u64
///   W × global node u32 (BFS order, root first)        [pad to 8]
///   W × (global u32, local u32) sorted by global
///   (W+1) × u32 CSR in-offsets                         [pad to 8]
///   E × (source local id u32, edge id u32)
/// ```
///
/// Each world carries its own [`footprint_hash`] so a later build can
/// reuse its record independently of every other world. The header records
/// the graph the index was built on — its [`GraphKeys::topology`] key, edge
/// count and per-edge maxima — so a reader holding a graph with the same
/// edge ids screens the worlds by coin flips ([`recorded_shifts`]) without
/// the old graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfluencerIndex {
    raw: Vec<u8>,
}

/// Tag separating the root-selection stream from the coin streams (which
/// derive from the untagged seed in [`EdgeCoins::worlds`]).
const ROOT_STREAM_TAG: u64 = 0x5EED_2007_D00D_1DE5;

/// The root of world `j` over `n` nodes: uniform from the world's own
/// stream (stable under parallelism, decorrelated from the world's coin
/// stream by the tag).
fn world_root(seed: u64, j: u64, n: usize) -> u32 {
    ((stream_seed(seed ^ ROOT_STREAM_TAG, j) >> 11) % n as u64) as u32
}

/// The structural key of one world: everything its construction BFS reads
/// from the graph. The wrapping sum, over every in-edge `(u, e)` of every
/// node `v` of the world's sub-DAG, of a [`wire::mix`] term binding the
/// target `v`, the source `u`, the [`EdgeId`] `e` (the coin input) and the
/// superset bit `coins.is_live(e, max_z pp^z_e)`.
///
/// This is the world's incremental-rebuild key. The reverse BFS only ever
/// expands through in-edges of nodes it has reached, and it reads an edge's
/// weights only through that bit, so if this hash is unchanged on a *new*
/// graph, rebuilding the world there reproduces the stored record bit for
/// bit (the root and coins are keyed separately on `(seed, n, j)`). A new
/// in-edge on a reached node, an edge-id shift or a flipped bit moves it; a
/// weight change that flips no bit does not, since queries read `pp_e(γ)`
/// from the live graph anyway. Both sides of a screen sum over the world's
/// one stored node list, and each term names its target, so the sum moves
/// exactly when some stored node's in-edge list or bits do.
pub fn footprint_hash(graph: &TopicGraph, nodes: &[u32], coins: EdgeCoins) -> u64 {
    nodes.iter().fold(0u64, |key, &v| {
        graph.in_edges(NodeId(v)).fold(key, |key, (u, e)| {
            let live = coins.is_live(e, graph.edge_prob_max(e) as f64);
            key.wrapping_add(footprint_term(v, u.0, e, live))
        })
    })
}

/// Salt of the footprint terms (the ASCII bytes `octa:pkw`, little-endian):
/// no term mixes to zero by virtue of zero ids.
const FOOTPRINT_SALT: u64 = u64::from_le_bytes(*b"octa:pkw");

/// The [`footprint_hash`] term of the in-edge `e` from `source` into the
/// stored node `target`, with its superset bit `live`.
fn footprint_term(target: u32, source: u32, e: EdgeId, live: bool) -> u64 {
    let ends = wire::mix(((target as u64) << 32 | source as u64) ^ FOOTPRINT_SALT);
    wire::mix(ends ^ ((e.0 as u64) << 1 | live as u64))
}

/// Build one world: pick the root from the world's index-derived stream and
/// reverse-BFS the max-probability superset DAG, hashing its
/// [`footprint_hash`] on the way.
fn build_world(graph: &TopicGraph, j: u64, seed: u64, coins: EdgeCoins) -> Sample {
    let root = world_root(seed, j, graph.node_count());
    let mut edges_examined = 0usize;
    let mut key = 0u64;
    // reverse BFS in the max-probability world; membership is tracked in
    // the sorted `local_ids` list (no shared visited array — each world
    // builds independently, possibly on its own thread)
    let mut nodes: Vec<u32> = vec![root];
    let mut local_edges: Vec<Vec<(u32, EdgeId)>> = vec![Vec::new()];
    let mut local_ids: Vec<(u32, u32)> = vec![(root, 0)];
    let mut head = 0usize;
    while head < nodes.len() {
        let v = NodeId(nodes[head]);
        let v_local = head as u32;
        head += 1;
        for (u, e) in graph.in_edges(v) {
            edges_examined += 1;
            let live = coins.is_live(e, graph.edge_prob_max(e) as f64);
            key = key.wrapping_add(footprint_term(v.0, u.0, e, live));
            if !live {
                continue;
            }
            let u_local = match local_ids.binary_search_by_key(&u.0, |&(g, _)| g) {
                Ok(i) => local_ids[i].1,
                Err(pos) => {
                    let lid = nodes.len() as u32;
                    nodes.push(u.0);
                    local_edges.push(Vec::new());
                    local_ids.insert(pos, (u.0, lid));
                    lid
                }
            };
            // stored edge: u → v (u can influence v); in the
            // evaluation BFS we walk from v to u, so index by v.
            local_edges[v_local as usize].push((u_local, e));
        }
    }
    // flatten to CSR
    let mut in_offsets = Vec::with_capacity(nodes.len() + 1);
    let mut in_edges = Vec::new();
    in_offsets.push(0u32);
    for le in &local_edges {
        in_edges.extend_from_slice(le);
        in_offsets.push(in_edges.len() as u32);
    }
    Sample {
        coins,
        nodes,
        local_of: local_ids,
        in_offsets,
        in_edges,
        footprint: key,
        edges_examined,
    }
}

/// Per-world reuse slots accumulated from one or more persisted indexes by
/// [`PiksReuse::screen`] and consumed by
/// [`InfluencerIndex::build_with_reuse`].
///
/// Slot `j` holds a copy of a screened donor's world-`j` record iff the
/// record is structurally sound, is world `j`'s derivation (its coin seed
/// and root) **and** rebuilding now would reproduce it byte for byte: its
/// stored [`footprint_hash`] matches the live one, or no edge of its
/// footprint flipped its superset bit. Worlds a graph delta reached stay
/// `None` and are rebuilt. Reuse is positional (world `j` is the same
/// `(seed, j)` derivation in every donor whose section key matched), so
/// screening several donors into one accumulator takes their union: two
/// deltas that invalidated disjoint world sets in different epoch files
/// reassemble full coverage.
#[derive(Debug, Default)]
pub struct PiksReuse {
    slots: Vec<Option<Vec<u8>>>,
    /// Per world `j`, the live footprints computed so far, keyed by the
    /// stored node list they were computed over (all a footprint reads
    /// besides world `j`'s coins, which the screen fixes).
    live_footprints: Vec<Vec<(Vec<u32>, u64)>>,
    /// The live graph's topology key, when the caller knows it: the
    /// section records it instead of walking the graph for it.
    topology: Option<u64>,
}

impl PiksReuse {
    /// These slots, building over a graph whose
    /// [`GraphKeys::topology`] is `topology` when that is `Some`.
    pub(crate) fn with_topology(self, topology: Option<u64>) -> Self {
        PiksReuse { topology, ..self }
    }

    /// Number of world slots (reusable or not): the world count of the
    /// largest donor index screened cleanly.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no donor contributed a world slot at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of worlds that survived the screen.
    pub fn available(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of screened worlds among the first `r` slots — the count
    /// that actually matters to a build of `r` worlds, since reuse is
    /// positional (world `j` is keyed by `(seed, j)`). A donor persisted
    /// under a larger index size may have plenty of valid late worlds that
    /// an `r`-world build can never use; compare donors by this, not by
    /// [`PiksReuse::available`].
    pub(crate) fn available_in(&self, r: usize) -> usize {
        self.slots.iter().take(r).filter(|s| s.is_some()).count()
    }

    /// Per-world reusability pattern (diagnostics / invalidation tests).
    pub fn reusable_worlds(&self) -> Vec<bool> {
        self.slots.iter().map(|s| s.is_some()).collect()
    }

    /// Screen one donor's `piks-worlds` section against the **live**
    /// `graph` and the index's master `seed`, filling every still-empty
    /// slot the donor can serve with a copy of the donor's world record.
    /// Returns how many slots were newly filled.
    ///
    /// A world an earlier donor supplied is skipped on its offset alone. An
    /// examined world gets the full structural checks; any failure is an
    /// error and the donor fills nothing (fills commit only once the whole
    /// section screened cleanly). A sound world must then have its ids
    /// inside `graph`, carry world `j`'s coin seed and root (the footprint
    /// covers neither), and then either — given `shifts`, the edges whose
    /// maximum moved from the donor's graph to an id-stable `graph` (a
    /// flush takes them from its apply pass, [`delta::Applied::shifts`];
    /// an open reads a donor file's recorded maxima, [`recorded_shifts`])
    /// — no shifted edge that both flips its superset bit under the
    /// world's coins and targets a stored node (nothing else the BFS reads
    /// changed, so the stored footprint is already the live one and no
    /// hash is computed),
    /// or a stored [`footprint_hash`] equal to the live one, computed at
    /// most once per (world, stored node list) over the accumulator's
    /// lifetime (so every `screen` into one accumulator must pass the same
    /// live graph and seed). A world failing the screen is no error: it
    /// rebuilds.
    pub fn screen(
        &mut self,
        raw: &[u8],
        graph: &TopicGraph,
        seed: u64,
        shifts: Option<&[MaxShift]>,
    ) -> Result<usize, WireError> {
        let view = PiksWorldsView::parse(raw)?;
        let n = graph.node_count();
        if view.n() != n {
            return Ok(0); // derived over another node universe
        }
        let worlds = EdgeCoins::worlds(seed, view.len());
        let mut fills = Vec::new();
        for (j, &coins) in worlds.iter().enumerate() {
            if self.slots.get(j).is_some_and(Option::is_some) {
                continue;
            }
            let wv = view.world(j);
            let Some(nodes) = checked_nodes(j, &wv, graph)? else {
                continue;
            };
            if wv.coin_seed() != coins.seed() || nodes[0] != world_root(seed, j as u64, n) {
                continue; // not world j's derivation: it rebuilds
            }
            let reusable = match shifts {
                Some(shifts) => !shifts.iter().any(|s| {
                    let flipped =
                        coins.is_live(s.edge, s.old as f64) != coins.is_live(s.edge, s.new as f64);
                    flipped && wv.local(s.target).is_some()
                }),
                None => self.live_footprint(j, coins, &nodes, graph) == wv.footprint(),
            };
            if reusable {
                fills.push((j, wv.raw.to_vec()));
            }
        }
        if self.slots.len() < view.len() {
            self.slots.resize_with(view.len(), || None);
        }
        let filled = fills.len();
        for (j, record) in fills {
            self.slots[j] = Some(record);
        }
        Ok(filled)
    }

    /// [`footprint_hash`] of world `j`'s `nodes` over the live graph,
    /// memoized per world.
    fn live_footprint(
        &mut self,
        j: usize,
        coins: EdgeCoins,
        nodes: &[u32],
        graph: &TopicGraph,
    ) -> u64 {
        if self.live_footprints.len() <= j {
            self.live_footprints.resize_with(j + 1, Vec::new);
        }
        let seen = &mut self.live_footprints[j];
        if let Some(&(_, fp)) = seen.iter().find(|(stored, _)| stored == nodes) {
            return fp;
        }
        let fp = footprint_hash(graph, nodes, coins);
        seen.push((nodes.to_vec(), fp));
        fp
    }
}

/// Structural checks on stored world `j` (monotone CSR offsets, local edge
/// sources, the local lookup as the sorted inverse of the node list).
/// Returns the node list, or `None` when an id falls outside `graph`.
fn checked_nodes(
    j: usize,
    wv: &PiksWorldView<'_>,
    graph: &TopicGraph,
) -> Result<Option<Vec<u32>>, WireError> {
    let w = wv.node_count();
    let world_edges = wv.edge_count();
    let offsets_ok = wv.in_offset(0) == 0
        && (0..w).all(|i| wv.in_offset(i) <= wv.in_offset(i + 1))
        && wv.in_offset(w) as usize == world_edges;
    if !offsets_ok {
        return Err(WireError(format!("piks world {j} CSR offsets malformed")));
    }
    let mut ids_ok = true;
    for k in 0..world_edges {
        let (src, e) = wv.in_edge(k);
        if src as usize >= w {
            return Err(WireError(format!(
                "piks world {j} edge source {src} out of bounds"
            )));
        }
        ids_ok &= e.index() < graph.edge_count();
    }
    let nodes: Vec<u32> = (0..w).map(|i| wv.node(i)).collect();
    let mut prev: Option<u32> = None;
    for i in 0..w {
        let (g, l) = wv.local_pair(i);
        if (l as usize) >= w || nodes[l as usize] != g || prev.is_some_and(|p| p >= g) {
            return Err(WireError(format!("piks world {j} local lookup malformed")));
        }
        prev = Some(g);
    }
    ids_ok &= nodes.iter().all(|&g| (g as usize) < graph.node_count());
    Ok(ids_ok.then_some(nodes))
}

impl InfluencerIndex {
    /// Build an index of `r` worlds over `graph`.
    ///
    /// Worlds build in parallel, one per work unit on the claiming
    /// executor — per-world costs are wildly skewed (a hub-rooted reverse
    /// BFS can touch most of the graph while a leaf-rooted one touches a
    /// handful of nodes), so dynamic claiming is what keeps every core
    /// busy. World `j`'s coins and root both derive from `(seed, j)`, so
    /// the index is bit-identical for any thread count or schedule.
    pub fn build(graph: &TopicGraph, r: usize, seed: u64) -> Self {
        Self::build_with_reuse(graph, r, seed, &PiksReuse::default()).0
    }

    /// Build an index of `r` worlds, copying every world record whose slot
    /// in `reuse` is populated and building only the rest. `reuse` must
    /// have been screened with this `graph` and `seed`. Returns the index
    /// and the number of worlds actually reused. The header records
    /// `graph`'s topology key, edge count and per-edge maxima.
    ///
    /// World `j`'s randomness derives from `(seed, j)` alone — never from
    /// `r` — so a reuse set persisted under a different index size
    /// contributes its prefix. A reused record is byte-identical to what a
    /// fresh world build would produce (that is what the screen certifies),
    /// so the assembled index equals a from-scratch
    /// [`InfluencerIndex::build`] no matter which subset was reused —
    /// pinned by the `delta_invalidation` integration tests.
    pub fn build_with_reuse(
        graph: &TopicGraph,
        r: usize,
        seed: u64,
        reuse: &PiksReuse,
    ) -> (Self, usize) {
        let n = graph.node_count();
        let r = if n == 0 { 0 } else { r };
        let worlds = EdgeCoins::worlds(seed, r);
        let reused = |j: usize| reuse.slots.get(j).and_then(Option::as_deref);
        // delta rebuilds are the skew worst case: most units are reused
        // records with expensive fresh BFS builds sprinkled between them —
        // the executor's dynamic claiming load-balances the mix, no
        // chunking heuristic needed here
        let built: Vec<Option<Vec<u8>>> = (0..r)
            .into_par_iter()
            .map(|j| match reused(j) {
                Some(record) => {
                    debug_assert_eq!(u64_at(record, 8), worlds[j].seed(), "screened seed");
                    None
                }
                None => Some(build_world(graph, j as u64, seed, worlds[j]).encode()),
            })
            .collect();
        let records: Vec<&[u8]> = (0..r)
            .map(|j| reused(j).or(built[j].as_deref()).expect("reused or built"))
            .collect();
        let m = graph.edge_count();
        let table_end = column_end(m) + 8 * (r + 1);
        let len = table_end + records.iter().map(|w| w.len()).sum::<usize>();
        let mut raw = Vec::with_capacity(len);
        raw.put_u64_le(n as u64);
        raw.put_u64_le(r as u64);
        raw.put_u64_le(
            reuse
                .topology
                .unwrap_or_else(|| GraphKeys::topology_of(graph)),
        );
        raw.put_u64_le(m as u64);
        for e in graph.edges() {
            raw.put_f32_le(graph.edge_prob_max(e));
        }
        raw.put_bytes(0, wire::pad8(4 * m));
        let mut off = table_end;
        for record in &records {
            raw.put_u64_le(off as u64);
            off += record.len();
        }
        raw.put_u64_le(off as u64);
        for record in &records {
            raw.put_slice(record);
        }
        let reused = built.iter().filter(|b| b.is_none()).count();
        (InfluencerIndex { raw }, reused)
    }

    /// The cache key of the index's *derivation inputs*: node count (the
    /// root-selection modulus) and the world seed. Graph content is
    /// deliberately absent — it is covered per world by [`footprint_hash`],
    /// which is what makes world-granular delta reuse possible. The index
    /// size is also absent: worlds are keyed by `(seed, j)`, so a resize
    /// reuses the shared prefix.
    pub(crate) fn section_key(node_count: usize, seed: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write(b"octa:piks-index");
        h.write_u64(node_count as u64);
        h.write_u64(seed);
        h.finish()
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        u64_at(&self.raw, 8) as usize
    }

    /// Whether the index holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global node ids of world `j`'s stored sub-DAG, in BFS discovery
    /// order (diagnostics / invalidation tests — this is the node set whose
    /// in-edges form the world's [`footprint_hash`]).
    pub fn world_nodes(&self, j: usize) -> Vec<u32> {
        let world = PiksWorldsView::parse(&self.raw).expect("built").world(j);
        (0..world.node_count()).map(|i| world.node(i)).collect()
    }

    /// The serialized index — the bytes a [`PiksWorldsView`] reads.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.raw.clone()
    }

    /// [`InfluencerIndex::to_bytes`] without the copy.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.raw
    }

    /// Screen one serialized index against the **live** graph into fresh
    /// reuse slots — [`PiksReuse::screen`] on an empty accumulator.
    pub fn load_reusable(
        raw: &[u8],
        graph: &TopicGraph,
        seed: u64,
    ) -> Result<PiksReuse, WireError> {
        let mut reuse = PiksReuse::default();
        reuse.screen(raw, graph, seed, None)?;
        Ok(reuse)
    }
}

/// `n | R | topology | m`, the words before the maxima column.
const HEADER_LEN: usize = 32;

/// Where the world offset table of an index over `m` edges starts: after
/// the header and the padded maxima column.
fn column_end(m: usize) -> usize {
    HEADER_LEN + wire::align8(4 * m)
}

/// The header of a `piks-worlds` payload, bounds-checked: the column it
/// declares lies inside the payload.
struct Header {
    n: usize,
    r: u64,
    topology: u64,
    m: usize,
}

impl Header {
    fn read(raw: &[u8]) -> Result<Self, WireError> {
        if raw.len() < HEADER_LEN {
            return Err(WireError("piks section header truncated".into()));
        }
        let m = u64_at(raw, 24);
        if m > (raw.len() / 4) as u64 || column_end(m as usize) > raw.len() {
            return Err(WireError(format!(
                "piks maxima column for {m} edges truncated"
            )));
        }
        Ok(Header {
            n: u64_at(raw, 0) as usize,
            r: u64_at(raw, 8),
            topology: u64_at(raw, 16),
            m: m as usize,
        })
    }
}

/// The edges whose maximum moved from the graph a serialized index was
/// built on to `graph`, from the index's recorded maxima column
/// ([`delta::shifts_from_maxima`]). `Some` only when the recorded topology
/// key equals `topology` (`graph`'s [`GraphKeys::topology`]) and the
/// recorded edge count equals `graph`'s, so both graphs share every edge
/// id; a malformed header gives `None` too, and the screen that follows
/// reports it. Reads the header and the column, never a world: `O(1)` to
/// refuse, `O(m)` to compare.
pub fn recorded_shifts(raw: &[u8], graph: &TopicGraph, topology: u64) -> Option<Vec<MaxShift>> {
    let header = Header::read(raw).ok()?;
    if header.topology != topology || header.m != graph.edge_count() {
        return None;
    }
    let (column, _) = raw[HEADER_LEN..HEADER_LEN + 4 * header.m].as_chunks::<4>();
    let maxima = column.iter().map(|b| f32::from_le_bytes(*b));
    Some(delta::shifts_from_maxima(maxima, graph))
}

fn u64_at(raw: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(raw[off..off + 8].try_into().expect("framed by parse"))
}

fn u32_at(raw: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(raw[off..off + 4].try_into().expect("framed by parse"))
}

/// Zero-copy view over a v8 `piks-worlds` section payload.
///
/// [`PiksWorldsView::parse`] validates the *framing* in `O(R)` — the
/// header, the maxima column's extent (skipped in `O(1)`: only an open's
/// donor screen reads it, through [`recorded_shifts`]), the world offset
/// table (8-aligned, strictly monotone, exactly spanning the section) and
/// every world's header against its slot length — without touching node
/// or edge payload bytes, which is what keeps a mapped open proportional
/// to pages touched. Payload integrity is the container
/// checksum's job (verified lazily by the artifact view layer); the graph
/// fingerprint baked into the containing file is what entitles the view to
/// skip the per-world footprint screening that [`PiksReuse::screen`]
/// performs for cross-graph reuse.
#[derive(Debug, Clone, Copy)]
pub struct PiksWorldsView<'a> {
    raw: &'a [u8],
    n: usize,
    r: usize,
    /// Where the world offset table starts.
    table: usize,
    stored_nodes: usize,
}

impl<'a> PiksWorldsView<'a> {
    /// Validate the section framing and return a view. Purely structural:
    /// the stored node count `n` is exposed via [`PiksWorldsView::n`] for
    /// the caller to check against its graph.
    pub fn parse(raw: &'a [u8]) -> Result<Self, WireError> {
        let Header { n, r, m, .. } = Header::read(raw)?;
        let table = column_end(m);
        let table_end = r
            .checked_add(1)
            .and_then(|r| r.checked_mul(8))
            .and_then(|t| t.checked_add(table as u64))
            .filter(|&t| t <= raw.len() as u64)
            .ok_or_else(|| WireError(format!("piks world table for {r} worlds truncated")))?
            as usize;
        let r = r as usize;
        let mut stored_nodes = 0usize;
        let mut prev = table_end as u64;
        if u64_at(raw, table) != prev {
            return Err(WireError(format!(
                "piks world 0 offset {} != table end {prev}",
                u64_at(raw, table)
            )));
        }
        for j in 0..r {
            let lo = u64_at(raw, table + 8 * j);
            let hi = u64_at(raw, table + 8 * (j + 1));
            if lo != prev || !lo.is_multiple_of(8) || hi <= lo || hi > raw.len() as u64 {
                return Err(WireError(format!(
                    "piks world {j} offsets [{lo}, {hi}) malformed"
                )));
            }
            prev = hi;
            let wlen = hi - lo;
            if wlen < 40 {
                return Err(WireError(format!("piks world {j} header truncated")));
            }
            let lo = lo as usize;
            let w = u64_at(raw, lo + 24);
            let e = u64_at(raw, lo + 32);
            if w == 0 {
                return Err(WireError(format!("piks world {j} has no root")));
            }
            if w > u32::MAX as u64 || e > u32::MAX as u64 {
                return Err(WireError(format!("piks world {j} dimensions overflow u32")));
            }
            let local_off = wire::align8(40 + 4 * w as usize) as u64;
            let edges_off = wire::align8((local_off + 8 * w + 4 * (w + 1)) as usize) as u64;
            if edges_off + 8 * e != wlen {
                return Err(WireError(format!(
                    "piks world {j} length {wlen} != framed {} for W={w} E={e}",
                    edges_off + 8 * e
                )));
            }
            stored_nodes += w as usize;
        }
        if prev != raw.len() as u64 {
            return Err(WireError(format!(
                "piks section length {} != framed {prev}",
                raw.len()
            )));
        }
        Ok(PiksWorldsView {
            raw,
            n,
            r,
            table,
            stored_nodes,
        })
    }

    /// The framing this view validated, over `raw` — the same payload bytes,
    /// borrowed anew — in `O(1)`: per-query views skip the `O(R)` walk of
    /// [`PiksWorldsView::parse`].
    pub(crate) fn rebind<'b>(&self, raw: &'b [u8]) -> PiksWorldsView<'b> {
        PiksWorldsView {
            raw,
            n: self.n,
            r: self.r,
            table: self.table,
            stored_nodes: self.stored_nodes,
        }
    }

    /// Stored node count the index was built over (the RR-estimate scale
    /// factor) — callers must check it against their graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored worlds.
    pub fn len(&self) -> usize {
        self.r
    }

    /// Whether the view holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.r == 0
    }

    /// Total nodes across stored sub-DAGs.
    pub(crate) fn stored_nodes(&self) -> usize {
        self.stored_nodes
    }

    /// World `j`'s record.
    pub fn world(&self, j: usize) -> PiksWorldView<'a> {
        let (lo, hi) = (self.world_start(j), self.world_start(j + 1));
        PiksWorldView {
            raw: &self.raw[lo..hi],
        }
    }

    /// Where world `j`'s record starts in the payload (`j = R`: the
    /// payload length).
    pub(crate) fn world_start(&self, j: usize) -> usize {
        u64_at(self.raw, self.table + 8 * j) as usize
    }

    /// Start a query session for `gamma`. Live sets materialize lazily.
    pub fn session(&self, graph: &'a TopicGraph, gamma: &TopicDistribution) -> PiksSession<'a> {
        PiksSession {
            view: *self,
            graph,
            gamma: gamma.as_slice().to_vec(),
            live: vec![None; self.r],
            materialized: 0,
            seen: Vec::new(),
            queue: Vec::new(),
        }
    }
}

/// One world's record inside a [`PiksWorldsView`].
#[derive(Debug, Clone, Copy)]
pub struct PiksWorldView<'a> {
    raw: &'a [u8],
}

impl<'a> PiksWorldView<'a> {
    /// The stored [`footprint_hash`] of this world.
    pub fn footprint(&self) -> u64 {
        u64_at(self.raw, 0)
    }

    /// The world's coin seed ([`EdgeCoins::seed`]).
    pub fn coin_seed(&self) -> u64 {
        u64_at(self.raw, 8)
    }

    /// Edges the construction BFS examined.
    pub fn edges_examined(&self) -> usize {
        u64_at(self.raw, 16) as usize
    }

    /// Stored sub-DAG node count `W`.
    pub fn node_count(&self) -> usize {
        u64_at(self.raw, 24) as usize
    }

    /// Stored sub-DAG edge count `E`.
    pub fn edge_count(&self) -> usize {
        u64_at(self.raw, 32) as usize
    }

    fn local_off(&self) -> usize {
        wire::align8(40 + 4 * self.node_count())
    }

    fn edges_off(&self) -> usize {
        let w = self.node_count();
        wire::align8(self.local_off() + 8 * w + 4 * (w + 1))
    }

    /// The world's node list, CSR in-offsets, and stored edges as raw
    /// sub-slices (`W × u32`, `(W+1) × u32`, `E × (u32, u32)`) — resolved
    /// once so a materialization reads them without re-deriving offsets.
    fn csr(&self) -> (&'a [u8], &'a [u8], &'a [u8]) {
        let (w, e) = (self.node_count(), self.edge_count());
        let offsets = self.local_off() + 8 * w;
        let edges = self.edges_off();
        (
            &self.raw[40..40 + 4 * w],
            &self.raw[offsets..offsets + 4 * (w + 1)],
            &self.raw[edges..edges + 8 * e],
        )
    }

    /// Global node id of local node `local` (the BFS discovery order; local
    /// 0 is the root).
    pub fn node(&self, local: usize) -> u32 {
        u32_at(self.raw, 40 + 4 * local)
    }

    /// Pair `i` of the stored `(global, local)` lookup, sorted by global.
    pub fn local_pair(&self, i: usize) -> (u32, u32) {
        let base = self.local_off() + 8 * i;
        (u32_at(self.raw, base), u32_at(self.raw, base + 4))
    }

    /// Local id of `global`, if it is in this world's stored superset —
    /// in-place binary search over the stored lookup.
    pub fn local(&self, global: NodeId) -> Option<u32> {
        let base = self.local_off();
        let (pairs, _) = self.raw[base..base + 8 * self.node_count()].as_chunks::<8>();
        let at = pairs
            .binary_search_by_key(&global.0, |p| u32_at(p, 0))
            .ok()?;
        Some(u32_at(&pairs[at], 4))
    }

    /// CSR in-offset `i` (of `W+1`).
    pub fn in_offset(&self, i: usize) -> u32 {
        let w = self.node_count();
        u32_at(self.raw, self.local_off() + 8 * w + 4 * i)
    }

    /// Stored edge `k`: `(source local id, edge id)`.
    pub fn in_edge(&self, k: usize) -> (u32, EdgeId) {
        let base = self.edges_off() + 8 * k;
        (u32_at(self.raw, base), EdgeId(u32_at(self.raw, base + 4)))
    }
}

/// A lazy per-query evaluation of a [`PiksWorldsView`].
///
/// Each world's live influencer set is computed on first access and cached —
/// repeated spread evaluations (the inner loop of greedy keyword selection)
/// touch each world once regardless of how many candidates are scored.
/// Coins replay from each world's stored seed.
pub struct PiksSession<'a> {
    view: PiksWorldsView<'a>,
    graph: &'a TopicGraph,
    gamma: Vec<f64>,
    /// Per-world live influencer sets (global node ids, sorted), lazily
    /// materialized.
    live: Vec<Option<Vec<u32>>>,
    materialized: usize,
    /// BFS scratch shared by every materialization: per-local-node
    /// membership flags (all `false` between worlds) and the queue.
    seen: Vec<bool>,
    queue: Vec<u32>,
}

impl PiksSession<'_> {
    /// Live influencer set of world `j` under this query (sorted global
    /// ids). Materializes and caches on first call — delayed
    /// materialization.
    fn live_set(&mut self, j: usize) -> &[u32] {
        if self.live[j].is_none() {
            self.materialized += 1;
            let world = self.view.world(j);
            let coins = EdgeCoins::new(world.coin_seed());
            let (nodes, offsets, edges) = world.csr();
            let PiksSession {
                graph,
                gamma,
                seen,
                queue,
                ..
            } = self;
            if seen.len() < world.node_count() {
                seen.resize(world.node_count(), false);
            }
            // BFS from the root (local id 0) over γ-live stored edges
            seen[0] = true;
            queue.clear();
            queue.push(0);
            let mut members = vec![u32_at(nodes, 0)];
            let mut head = 0usize;
            while head < queue.len() {
                let v = queue[head] as usize;
                head += 1;
                let lo = u32_at(offsets, 4 * v) as usize;
                let hi = u32_at(offsets, 4 * v + 4) as usize;
                for k in lo..hi {
                    let u_local = u32_at(edges, 8 * k);
                    if seen[u_local as usize] {
                        continue;
                    }
                    let e = EdgeId(u32_at(edges, 8 * k + 4));
                    if coins.is_live(e, graph.edge_prob(e, gamma)) {
                        seen[u_local as usize] = true;
                        queue.push(u_local);
                        members.push(u32_at(nodes, 4 * u_local as usize));
                    }
                }
            }
            for &v in queue.iter() {
                seen[v as usize] = false;
            }
            members.sort_unstable();
            self.live[j] = Some(members);
        }
        self.live[j].as_deref().expect("just materialized")
    }

    /// Estimated influence spread of a seed set under this query:
    /// `n/R · #{j : S ∩ live_j ≠ ∅}`.
    ///
    /// Worlds whose stored *superset* does not even contain a seed are
    /// skipped without materialization — the delayed-materialization fast
    /// path (live ⊆ superset for every query), which reads only the world's
    /// sorted lookup array.
    pub fn spread(&mut self, seeds: &[NodeId]) -> f64 {
        if self.view.is_empty() {
            return 0.0;
        }
        let r = self.view.len();
        let mut hits = 0usize;
        for j in 0..r {
            let sample = self.view.world(j);
            if seeds.iter().all(|&s| sample.local(s).is_none()) {
                continue;
            }
            let live = self.live_set(j);
            if seeds.iter().any(|s| live.binary_search(&s.0).is_ok()) {
                hits += 1;
            }
        }
        self.view.n as f64 * hits as f64 / r as f64
    }

    /// Single-target spread (the common PIKS case).
    pub fn spread_of(&mut self, u: NodeId) -> f64 {
        self.spread(&[u])
    }

    /// How many worlds have been materialized so far (work metric for the
    /// lazy-evaluation experiments).
    pub fn materialized_worlds(&self) -> usize {
        self.materialized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_cascade::estimate_spread;
    use octopus_graph::GraphBuilder;

    /// A query session over `idx`'s serialized worlds.
    fn session<'a>(raw: &'a [u8], g: &'a TopicGraph, gamma: &TopicDistribution) -> PiksSession<'a> {
        PiksWorldsView::parse(raw).unwrap().session(g, gamma)
    }

    /// hub 0 → {1..=8} with topic-0 prob .6 / topic-1 prob .1
    fn hub_graph() -> TopicGraph {
        let mut b = GraphBuilder::new(2);
        let _ = b.add_nodes(9);
        for v in 1..=8u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.6), (1, 0.1)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn index_estimates_match_monte_carlo() {
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 12_000, 7).to_bytes();
        for (gamma, _label) in [
            (TopicDistribution::pure(2, 0), "t0"),
            (TopicDistribution::pure(2, 1), "t1"),
            (TopicDistribution::uniform(2), "mix"),
        ] {
            let est = session(&raw, &g, &gamma).spread_of(NodeId(0));
            let probs = g.materialize(gamma.as_slice()).unwrap();
            let mc = estimate_spread(&g, &probs, &[NodeId(0)], 20_000, 3);
            assert!(
                (est - mc).abs() < 0.35,
                "index {est} vs mc {mc} under {:?}",
                gamma.as_slice()
            );
        }
    }

    #[test]
    fn same_query_same_answer_lazy_cache() {
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 2000, 9).to_bytes();
        let mut s = session(&raw, &g, &TopicDistribution::uniform(2));
        let a = s.spread_of(NodeId(0));
        let worlds_after_first = s.materialized_worlds();
        let b = s.spread_of(NodeId(0));
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            s.materialized_worlds(),
            worlds_after_first,
            "second evaluation must reuse cached live sets"
        );
    }

    #[test]
    fn spread_monotone_in_gamma_strength() {
        // topic 0 edges are stronger; shared coins make this deterministic
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 4000, 11).to_bytes();
        let strong = session(&raw, &g, &TopicDistribution::pure(2, 0)).spread_of(NodeId(0));
        let weak = session(&raw, &g, &TopicDistribution::pure(2, 1)).spread_of(NodeId(0));
        assert!(
            strong >= weak,
            "shared coins: stronger edges can only add live worlds ({strong} vs {weak})"
        );
    }

    #[test]
    fn leaf_nodes_have_spread_about_one() {
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 8000, 13).to_bytes();
        let s = session(&raw, &g, &TopicDistribution::pure(2, 0)).spread_of(NodeId(4));
        assert!((s - 1.0).abs() < 0.25, "leaf spread {s}");
    }

    #[test]
    fn seed_set_spread_at_least_max_member() {
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 3000, 17).to_bytes();
        let mut s = session(&raw, &g, &TopicDistribution::uniform(2));
        let s0 = s.spread_of(NodeId(0));
        let s_both = s.spread(&[NodeId(0), NodeId(3)]);
        assert!(s_both >= s0 - 1e-9);
    }

    #[test]
    fn empty_graph_safe() {
        let g = GraphBuilder::new(1).build().unwrap();
        let raw = InfluencerIndex::build(&g, 100, 1).to_bytes();
        let mut s = session(&raw, &g, &TopicDistribution::uniform(1));
        assert_eq!(s.spread(&[]), 0.0);
    }

    #[test]
    fn superset_check_skips_worlds_for_irrelevant_seeds() {
        // node 8's only influencer is the hub; worlds rooted elsewhere whose
        // superset misses node 5 must not be materialized when querying 5
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 2000, 21).to_bytes();
        let gamma = TopicDistribution::pure(2, 0);
        let mut leaf_session = session(&raw, &g, &gamma);
        let _ = leaf_session.spread_of(NodeId(5));
        let mut hub_session = session(&raw, &g, &gamma);
        let _ = hub_session.spread_of(NodeId(0));
        assert!(
            leaf_session.materialized_worlds() < hub_session.materialized_worlds(),
            "leaf query must touch fewer worlds ({} vs {})",
            leaf_session.materialized_worlds(),
            hub_session.materialized_worlds()
        );
    }

    #[test]
    fn roots_are_spread_over_nodes() {
        let g = hub_graph();
        let idx = InfluencerIndex::build(&g, 300, 5);
        let mut distinct: Vec<u32> = (0..idx.len()).map(|j| idx.world_nodes(j)[0]).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() >= 5,
            "roots should cover many nodes: {distinct:?}"
        );
    }

    #[test]
    fn round_trip_reuses_every_world() {
        let g = hub_graph();
        let idx = InfluencerIndex::build(&g, 64, 23);
        let frozen = idx.to_bytes();
        let reuse = InfluencerIndex::load_reusable(&frozen[..], &g, 23).unwrap();
        assert_eq!(reuse.available(), 64, "unchanged graph reuses all worlds");
        let (back, reused) = InfluencerIndex::build_with_reuse(&g, 64, 23, &reuse);
        assert_eq!(reused, 64);
        assert_eq!(back, idx, "reassembled index is bit-identical");
        // a wrong master seed distrusts every slot (coins disagree)
        let wrong = InfluencerIndex::load_reusable(&frozen[..], &g, 99).unwrap();
        assert_eq!(wrong.available(), 0);
        let (fresh, reused) = InfluencerIndex::build_with_reuse(&g, 64, 99, &wrong);
        assert_eq!(reused, 0);
        assert_eq!(fresh, InfluencerIndex::build(&g, 64, 99));
    }

    #[test]
    fn the_header_records_the_graph_and_its_maxima() {
        let g = hub_graph();
        let raw = InfluencerIndex::build(&g, 16, 19).to_bytes();
        let topology = GraphKeys::topology_of(&g);
        assert_eq!(u64_at(&raw, 16), topology);
        assert_eq!(u64_at(&raw, 24) as usize, g.edge_count());
        // the unchanged graph moved no maximum
        assert_eq!(recorded_shifts(&raw, &g, topology), Some(Vec::new()));
        // a nudge keeps every id: the column gives max_shifts' list
        let victim = g.find_edge(NodeId(0), NodeId(4)).unwrap();
        let nudged = octopus_graph::delta::nudge_weights(&g, &[victim], 0.2).unwrap();
        let shifts = octopus_graph::delta::max_shifts(&g, &nudged).unwrap();
        assert_eq!(shifts.len(), 1);
        assert_eq!(recorded_shifts(&raw, &nudged, topology), Some(shifts));
        // another topology, or the right key over another edge count,
        // gives no list: the screen falls back to footprints
        let grown =
            octopus_graph::delta::insert_edge(&g, NodeId(2), NodeId(3), &[(0, 0.5)]).unwrap();
        assert_eq!(
            recorded_shifts(&raw, &grown, GraphKeys::topology_of(&grown)),
            None
        );
        assert_eq!(recorded_shifts(&raw, &grown, topology), None);
    }

    /// Per world of `idx` (built with master seed `seed`): whether some
    /// in-edge of a stored node reads a different superset bit on `after`
    /// than on `before`, from the coins themselves.
    fn flipped_worlds(
        idx: &InfluencerIndex,
        seed: u64,
        before: &TopicGraph,
        after: &TopicGraph,
    ) -> Vec<bool> {
        let worlds = EdgeCoins::worlds(seed, idx.len());
        (0..idx.len())
            .map(|j| {
                idx.world_nodes(j).iter().any(|&v| {
                    before.in_edges(NodeId(v)).any(|(_, e)| {
                        let c = worlds[j].coin(e);
                        (c < before.edge_prob_max(e) as f64) != (c < after.edge_prob_max(e) as f64)
                    })
                })
            })
            .collect()
    }

    #[test]
    fn weight_nudge_invalidates_exactly_the_worlds_it_flips() {
        let g = hub_graph();
        let idx = InfluencerIndex::build(&g, 200, 31);
        let frozen = idx.to_bytes();
        // nudge the weight of hub→4 (max .6 → .9): exactly the worlds that
        // reached node 4 and whose coin for the edge lies in [.6, .9) drop
        let victim = g.find_edge(NodeId(0), NodeId(4)).unwrap();
        let g2 = octopus_graph::delta::nudge_weights(&g, &[victim], 0.3).unwrap();
        let flipped = flipped_worlds(&idx, 31, &g, &g2);
        let expected: Vec<bool> = flipped.iter().map(|&f| !f).collect();
        let reuse = InfluencerIndex::load_reusable(&frozen[..], &g2, 31).unwrap();
        assert_eq!(reuse.reusable_worlds(), expected);
        assert!(reuse.available() > 0, "some worlds must survive");
        assert!(reuse.available() < idx.len(), "the nudge must flip a coin");
        // a world holding node 4 whose coin the nudge did not cross survives
        assert!((0..idx.len()).any(|j| expected[j] && idx.world_nodes(j).contains(&4)));
        // and the partial rebuild equals a from-scratch build on g2
        let (rebuilt, reused) = InfluencerIndex::build_with_reuse(&g2, 200, 31, &reuse);
        assert_eq!(reused, reuse.available());
        assert_eq!(rebuilt, InfluencerIndex::build(&g2, 200, 31));
    }

    #[test]
    fn pmax_rounding_reads_the_same_bit_at_build_and_screen() {
        // a world rooted at node 4 whose hub→4 coin lies above the edge's
        // .6 maximum: the edge is dead there and the world is {4}
        let g = hub_graph();
        let (r, seed) = (200, 47);
        let idx = InfluencerIndex::build(&g, r, seed);
        let frozen = idx.to_bytes();
        let victim = g.find_edge(NodeId(0), NodeId(4)).unwrap();
        let coins = EdgeCoins::worlds(seed, r);
        let j = (0..r)
            .find(|&j| idx.world_nodes(j) == [4] && coins[j].coin(victim) >= 0.6)
            .expect("a world rooted at 4 with a dead hub edge");
        let c = coins[j].coin(victim);
        // the f32 just below the coin and the one just above it
        let mut below = c as f32;
        while below as f64 >= c {
            below = below.next_down();
        }
        let above = below.next_up();
        assert!((below as f64) < c && c < above as f64);
        for (pmax, live) in [(below, false), (above, true)] {
            let row = [(0, pmax as f64), (1, 0.1)];
            let g2 = octopus_graph::delta::set_weights(&g, victim, &row).unwrap();
            assert_eq!(
                g2.edge_prob_max(victim),
                pmax,
                "the row stores the f32 exactly"
            );
            // the build reads the bit: a live edge pulls the hub in
            let fresh = InfluencerIndex::build(&g2, r, seed);
            let grown = fresh.world_nodes(j) != idx.world_nodes(j);
            assert_eq!(grown, live, "build at pmax {pmax}");
            // both screens read the same bit: reused iff the edge stayed dead
            let shifts = octopus_graph::delta::max_shifts(&g, &g2).unwrap();
            let mut by_coin = PiksReuse::default();
            by_coin.screen(&frozen, &g2, seed, Some(&shifts)).unwrap();
            let by_hash = InfluencerIndex::load_reusable(&frozen, &g2, seed).unwrap();
            assert_eq!(by_coin.reusable_worlds()[j], !live, "coin screen at {pmax}");
            assert_eq!(by_hash.reusable_worlds(), by_coin.reusable_worlds());
            let (rebuilt, _) = InfluencerIndex::build_with_reuse(&g2, r, seed, &by_coin);
            assert_eq!(rebuilt, fresh);
        }
    }

    #[test]
    fn resize_reuses_the_shared_prefix() {
        let g = hub_graph();
        let idx = InfluencerIndex::build(&g, 100, 37);
        let frozen = idx.to_bytes();
        let reuse = InfluencerIndex::load_reusable(&frozen[..], &g, 37).unwrap();
        // the positional count: only slots below r can serve an r-world build
        assert_eq!(reuse.available(), 100);
        assert_eq!(reuse.available_in(40), 40);
        assert_eq!(reuse.available_in(150), 100);
        // shrink: reuse the first 40 worlds
        let (small, reused) = InfluencerIndex::build_with_reuse(&g, 40, 37, &reuse);
        assert_eq!(reused, 40);
        assert_eq!(small, InfluencerIndex::build(&g, 40, 37));
        // grow: reuse all 100, build 50 more
        let (big, reused) = InfluencerIndex::build_with_reuse(&g, 150, 37, &reuse);
        assert_eq!(reused, 100);
        assert_eq!(big, InfluencerIndex::build(&g, 150, 37));
    }

    /// `raw` with world `j`'s first stored local-lookup pair pointing at
    /// the wrong local id: framing intact, the world structurally unsound.
    fn with_malformed_world(raw: &[u8], j: usize) -> Vec<u8> {
        let view = PiksWorldsView::parse(raw).unwrap();
        let pair = view.world_start(j) + wire::align8(40 + 4 * view.world(j).node_count());
        let mut bad = raw.to_vec();
        bad[pair + 4] ^= 0x01;
        assert!(PiksWorldsView::parse(&bad).is_ok(), "framing untouched");
        bad
    }

    #[test]
    fn screen_unions_donors_and_commits_only_sound_sections() {
        let g = hub_graph();
        let (r, seed) = (64, 43);
        // every hub edge .6 → .9: a leaf-rooted world rebuilds when its
        // coin lies in [.6, .9)
        let hub: Vec<EdgeId> = (1..=8)
            .map(|v| g.find_edge(NodeId(0), NodeId(v)).unwrap())
            .collect();
        let live = octopus_graph::delta::nudge_weights(&g, &hub, 0.3).unwrap();
        let old = InfluencerIndex::build(&g, r, seed).to_bytes();
        let fresh = InfluencerIndex::build(&live, r, seed).to_bytes();

        // the pre-nudge donor covers exactly the worlds no nudge flipped
        let mut acc = PiksReuse::default();
        let first = acc.screen(&old, &live, seed, None).unwrap();
        let covered = acc.reusable_worlds();
        assert_eq!(first, covered.iter().filter(|&&c| c).count());
        assert!(0 < first && first + 1 < r, "the nudge must leave 2+ gaps");
        // screening the same donor again fills nothing (memoized misses)
        assert_eq!(acc.screen(&old, &live, seed, None).unwrap(), 0);
        // the coin screen over the moved maxima reuses exactly what the
        // hash screen reuses
        let shifts = octopus_graph::delta::max_shifts(&g, &live).unwrap();
        let mut by_coin = PiksReuse::default();
        assert_eq!(
            by_coin.screen(&old, &live, seed, Some(&shifts)).unwrap(),
            first
        );
        assert_eq!(by_coin.reusable_worlds(), covered);

        // a malformed world the scan must examine: the donor fills nothing,
        // not even the sound uncovered worlds before it
        let last_gap = covered.iter().rposition(|&c| !c).unwrap();
        let bad = with_malformed_world(&fresh, last_gap);
        assert!(acc.screen(&bad, &live, seed, None).is_err());
        assert_eq!(acc.reusable_worlds(), covered, "no partial fill");

        // a malformed world already covered is never examined: harmless
        let first_hit = covered.iter().position(|&c| c).unwrap();
        let harmless = with_malformed_world(&fresh, first_hit);
        assert_eq!(acc.screen(&harmless, &live, seed, None).unwrap(), r - first);
        assert_eq!(acc.available(), r);
        let (rebuilt, reused) = InfluencerIndex::build_with_reuse(&live, r, seed, &acc);
        assert_eq!(reused, r);
        assert_eq!(rebuilt, InfluencerIndex::build(&live, r, seed));
    }

    #[test]
    fn view_rejects_framing_damage() {
        let g = hub_graph();
        let idx = InfluencerIndex::build(&g, 16, 29);
        let raw = idx.to_bytes();
        // truncation anywhere in the framing fails closed
        let table = column_end(g.edge_count());
        for cut in [
            0,
            8,
            24,
            31,
            32,
            table,
            table + 8,
            raw.len() - 8,
            raw.len() - 1,
        ] {
            assert!(
                PiksWorldsView::parse(&raw[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
        // an edge count whose column overruns the payload fails closed
        let mut long = raw.to_vec();
        long[24..32].copy_from_slice(&(raw.len() as u64).to_le_bytes());
        assert!(PiksWorldsView::parse(&long).is_err());
        assert_eq!(recorded_shifts(&long, &g, GraphKeys::topology_of(&g)), None);
        // a nudged world offset breaks the contiguity invariant
        let mut bent = raw.to_vec();
        let off0 = u64_at(&bent, table);
        bent[table..table + 8].copy_from_slice(&(off0 + 8).to_le_bytes());
        assert!(PiksWorldsView::parse(&bent).is_err());
        // ...and load_reusable surfaces the same structural error
        assert!(InfluencerIndex::load_reusable(&bent, &g, 29).is_err());
        // a corrupted local-lookup entry is structural damage on decode
        let view = PiksWorldsView::parse(&raw[..]).unwrap();
        let pairs_at = view.world_start(0) + wire::align8(40 + 4 * view.world(0).node_count());
        let mut forged = raw.to_vec();
        forged[pairs_at + 4] ^= 0x01; // flip the local id of the first pair
        assert!(PiksWorldsView::parse(&forged).is_ok(), "framing untouched");
        assert!(InfluencerIndex::load_reusable(&forged, &g, 29).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let g = hub_graph();
        let idx = InfluencerIndex::build(&g, 500, 3);
        assert_eq!(idx.len(), 500);
        let raw = idx.to_bytes();
        let view = PiksWorldsView::parse(&raw).unwrap();
        assert_eq!((view.len(), view.n()), (500, 9));
        let worlds = (0..500).map(|j| view.world(j));
        let nodes: usize = worlds.map(|w| w.node_count()).sum();
        assert_eq!(view.stored_nodes(), nodes);
        assert!(nodes >= 500, "every sample stores at least its root");
        assert!((0..500).any(|j| view.world(j).edges_examined() > 0));
    }
}
