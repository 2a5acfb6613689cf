//! Compact, versioned binary serialization for [`TopicGraph`].
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "OCTG" | version u16 | num_topics u32 | n u32 | m u32
//! named u8
//! [named=1] n × (len u32, utf8 bytes)
//! (n+1) × u32 fwd_offsets
//! m × u32 fwd_targets
//! (m+1) × u32 prob_offsets
//! nnz × u16 prob_topics
//! nnz × f32 prob_values
//! ```
//!
//! The reverse CSR and the name index are *derived* data and are rebuilt on
//! load rather than stored, halving the on-disk footprint.

use crate::csr::TopicGraph;
use crate::delta::MovedEntry;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::wire;
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"OCTG";
const VERSION: u16 = 1;

/// Serialize `g` into a binary buffer.
pub fn encode(g: &TopicGraph) -> Bytes {
    let n = g.node_count();
    let m = g.edge_count();
    let named = g.names.iter().any(|s| !s.is_empty());
    let name_bytes: usize = if named {
        g.names.iter().map(|s| 4 + s.len()).sum()
    } else {
        0
    };
    let cap = 4
        + 2
        + 4
        + 4
        + 4
        + 1
        + name_bytes
        + (n + 1) * 4
        + m * 4
        + (m + 1) * 4
        + g.prob_topics.len() * 2
        + g.prob_values.len() * 4;
    let mut buf = BytesMut::with_capacity(cap);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(g.num_topics() as u32);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(m as u32);
    buf.put_u8(named as u8);
    if named {
        for s in g.names.iter() {
            wire::put_string(&mut buf, s);
        }
    }
    for &x in g.fwd_offsets.iter() {
        buf.put_u32_le(x);
    }
    for &x in g.fwd_targets.iter() {
        buf.put_u32_le(x);
    }
    for &x in &g.prob_offsets {
        buf.put_u32_le(x);
    }
    for &z in &g.prob_topics {
        buf.put_u16_le(z);
    }
    for &p in &g.prob_values {
        buf.put_f32_le(p);
    }
    buf.freeze()
}

/// Every whole-graph key, from one walk over the edge table.
///
/// Each key is an **order-independent sum** of per-entry 64-bit mixes
/// (`mix` is XXH64's final avalanche, a full-avalanche bijection), folded
/// with its dimensions through [`wire::checksum`]:
///
/// * an edge's term is `mix((src << 32 | dst) ^ EDGE_SALT)`;
/// * a sparse entry `(src, dst, p_z)` contributes
///   `mix(edge term ^ bits(p_z) · ENTRY_MUL)` to topic `z`'s sum;
/// * a node `u` contributes `mix(mix(u ^ NODE_SALT) ^ checksum(name_u))`
///   to the names sum.
///
/// A sum does not depend on the order its entries are visited in, so two
/// builds of one edge set agree, and every term can be updated in
/// O(changed entries): the keys keep their unfolded sums, and
/// [`GraphKeys::patched`] re-folds them after a weight-only batch. The
/// whole pass reads each edge and each sparse entry once, where a
/// byte-serial hash per slice would walk the graph `Z + 4` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphKeys {
    /// The **topology slice**: node count, edge count and the `(src, dst)`
    /// edge set. Ignores weights and names.
    pub topology: u64,
    /// The **name slice**: the named flag, node count and every node's
    /// display name by id. Ignores topology and weights.
    pub names: u64,
    /// The **topic-`z` weight slices**, one per topic: the topic-`z` edge
    /// triples `(src, dst, p_z)` (each `p_z` by exact bit pattern),
    /// finalized with the topic index, topic count and node count.
    ///
    /// Edge ids and the offset table are **deliberately excluded**, so a
    /// slice key is a function of its triples alone (plus the node
    /// universe). Consequences the `slice_hashes_isolate_their_inputs`
    /// test pins:
    ///
    /// * a nudge confined to topic `z` moves only topic `z`'s key;
    /// * a rename moves none of them;
    /// * an **edge insert** moves exactly the topics carried by the new
    ///   edge — other topics' keys survive even though every edge id
    ///   shifted (zero-probability edges are invisible to the per-topic
    ///   offline stages: MIA skips them before touching state and the RR
    ///   sampler consumes no randomness on them, so the surviving key is
    ///   sound, not just cheap).
    pub topics: Vec<u64>,
    /// The **probability slice**: the topic count folded with every
    /// topic's slice key, so it moves exactly when some slice moves.
    pub weights: u64,
    /// The whole graph: topic, node and edge counts, topology, names and
    /// every slice key. Any change to the graph moves it.
    pub graph: u64,
    /// The unfolded sums and dimensions the keys above fold.
    sums: KeySums,
}

/// The wrapping sums behind [`GraphKeys`], before folding, with the
/// dimensions they fold with.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeySums {
    nodes: u64,
    edges: u64,
    named: bool,
    topology: u64,
    names: u64,
    topics: Vec<u64>,
}

/// Domain-separation tags, one per key: two different keys of one graph
/// must never collide just because their summed words happen to agree.
const TOPOLOGY_TAG: u64 = u64::from_le_bytes(*b"octg:top");
const NAMES_TAG: u64 = u64::from_le_bytes(*b"octg:nam");
const TOPIC_TAG: u64 = u64::from_le_bytes(*b"octg:wtz");
const WEIGHTS_TAG: u64 = u64::from_le_bytes(*b"octg:wts");
const GRAPH_TAG: u64 = u64::from_le_bytes(*b"octg:grf");
/// Salts of the edge and node mixes (no edge or node mixes to zero by
/// virtue of a zero id) and the multiplier that spreads a probability's
/// 32 bits over the whole word before its entry mix.
const EDGE_SALT: u64 = 0x6F63_7467_6564_6765;
const NODE_SALT: u64 = 0x6F63_7467_6E6F_6465;
const ENTRY_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl GraphKeys {
    /// Compute every key of `g` in one pass.
    pub fn of(g: &TopicGraph) -> Self {
        let mut topology = 0u64;
        let mut topics = vec![0u64; g.num_topics()];
        for (u, out) in g.fwd_offsets.windows(2).enumerate() {
            let (lo, hi) = (out[0] as usize, out[1] as usize);
            let rows = g.prob_offsets[lo..=hi].windows(2);
            for (&dst, row) in g.fwd_targets[lo..hi].iter().zip(rows) {
                let edge = edge_term(u, dst);
                topology = topology.wrapping_add(edge);
                let (plo, phi) = (row[0] as usize, row[1] as usize);
                let entries = g.prob_topics[plo..phi].iter().zip(&g.prob_values[plo..phi]);
                for (&z, &p) in entries {
                    let sum = &mut topics[z as usize];
                    *sum = sum.wrapping_add(entry_term(edge, p));
                }
            }
        }
        let names = g.names.iter().enumerate().fold(0u64, |sum, (u, name)| {
            let node = wire::mix(u as u64 ^ NODE_SALT);
            sum.wrapping_add(wire::mix(node ^ wire::checksum(name.as_bytes())))
        });
        KeySums {
            nodes: g.node_count() as u64,
            edges: g.edge_count() as u64,
            named: g.names.iter().any(|s| !s.is_empty()),
            topology,
            names,
            topics,
        }
        .fold()
    }

    /// The keys of `g`, the graph a weight-only batch made of the graph
    /// these keys are of, from the entries the batch moved
    /// ([`crate::delta::Applied::moved`]): each old term leaves its
    /// topic's sum, each new one joins it, and the sums re-fold. `O(moved +
    /// Z)`; equal to [`GraphKeys::of`]`(g)` (pinned by
    /// `proptest_graph::weight_batches_patch_a_shared_topology`).
    pub fn patched(&self, g: &TopicGraph, moved: &[MovedEntry]) -> Self {
        let mut sums = self.sums.clone();
        for entry in moved {
            let (u, v) = g.edge_endpoints(entry.edge).expect("a moved edge of g");
            let edge = edge_term(u.index(), v.0);
            let sum = &mut sums.topics[entry.topic.index()];
            if let Some(p) = entry.old {
                *sum = sum.wrapping_sub(entry_term(edge, p));
            }
            if let Some(p) = entry.new {
                *sum = sum.wrapping_add(entry_term(edge, p));
            }
        }
        sums.fold()
    }

    /// [`GraphKeys::topology`] alone, from one walk over the edge
    /// endpoints: the key a PIKS index records of the graph it was built
    /// on.
    pub fn topology_of(g: &TopicGraph) -> u64 {
        let sum = g
            .fwd_offsets
            .windows(2)
            .enumerate()
            .fold(0u64, |sum, (u, out)| {
                let targets = &g.fwd_targets[out[0] as usize..out[1] as usize];
                targets
                    .iter()
                    .fold(sum, |sum, &dst| sum.wrapping_add(edge_term(u, dst)))
            });
        let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
        fold(&[TOPOLOGY_TAG, n, m, sum])
    }
}

/// The term of edge `(u, dst)` in the topology sum; every weight entry of
/// the edge mixes it in.
fn edge_term(u: usize, dst: u32) -> u64 {
    wire::mix(((u as u64) << 32 | dst as u64) ^ EDGE_SALT)
}

/// The term of one sparse entry `p` of the edge whose term is `edge` in
/// its topic's sum.
fn entry_term(edge: u64, p: f32) -> u64 {
    wire::mix(edge ^ (p.to_bits() as u64).wrapping_mul(ENTRY_MUL))
}

impl KeySums {
    /// Fold every sum with its dimensions and tag into the keys.
    fn fold(self) -> GraphKeys {
        let (n, m, z) = (self.nodes, self.edges, self.topics.len() as u64);
        let topics: Vec<u64> = self
            .topics
            .iter()
            .enumerate()
            .map(|(t, &sum)| fold(&[TOPIC_TAG, t as u64, z, n, sum]))
            .collect();
        let topology = fold(&[TOPOLOGY_TAG, n, m, self.topology]);
        let names = fold(&[NAMES_TAG, self.named as u64, n, self.names]);
        let weights = fold(&[&[WEIGHTS_TAG, z][..], &topics].concat());
        let graph = fold(&[&[GRAPH_TAG, z, n, m, topology, names][..], &topics].concat());
        GraphKeys {
            topology,
            names,
            topics,
            weights,
            graph,
            sums: self,
        }
    }
}

/// [`wire::checksum`] over the little-endian bytes of `words`.
fn fold(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    wire::checksum(&bytes)
}

/// Bounds check delegating to the shared [`crate::wire`] helpers.
fn need<B: Buf + ?Sized>(buf: &B, n: usize, what: &str) -> Result<()> {
    Ok(wire::need(buf, n, what)?)
}

/// Deserialize a graph from a buffer produced by [`encode`].
pub fn decode(mut buf: impl Buf) -> Result<TopicGraph> {
    need(&buf, 4 + 2 + 12 + 1, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::Codec("bad magic (not an OCTG payload)".into()));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(GraphError::Codec(format!("unsupported version {version}")));
    }
    let num_topics = buf.get_u32_le() as usize;
    let n = buf.get_u32_le() as usize;
    let m = buf.get_u32_le() as usize;
    let named = buf.get_u8() != 0;

    let mut names = Vec::with_capacity(n);
    if named {
        for _ in 0..n {
            names.push(wire::read_string(&mut buf, "node name")?);
        }
    } else {
        names = vec![String::new(); n];
    }

    let fwd_offsets = wire::read_u32s(&mut buf, n + 1, "fwd_offsets")?;
    let fwd_targets = wire::read_u32s(&mut buf, m, "fwd_targets")?;
    let prob_offsets = wire::read_u32s(&mut buf, m + 1, "prob_offsets")?;
    if fwd_offsets.last().copied() != Some(m as u32) {
        return Err(GraphError::Codec(
            "fwd_offsets do not sum to edge count".into(),
        ));
    }
    let nnz = *prob_offsets.last().unwrap_or(&0) as usize;
    need(&buf, nnz * 2, "prob_topics")?;
    let mut prob_topics = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let z = buf.get_u16_le();
        if (z as usize) >= num_topics {
            return Err(GraphError::Codec(format!(
                "topic {z} >= num_topics {num_topics}"
            )));
        }
        prob_topics.push(z);
    }
    need(&buf, nnz * 4, "prob_values")?;
    let mut prob_values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let p = buf.get_f32_le();
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::Codec(format!("probability {p} out of range")));
        }
        prob_values.push(p);
    }
    for &t in &fwd_targets {
        if t as usize >= n {
            return Err(GraphError::Codec(format!("edge target {t} out of bounds")));
        }
    }

    // Rebuild reverse CSR.
    let mut rev_offsets = vec![0u32; n + 1];
    for &v in &fwd_targets {
        rev_offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        rev_offsets[i + 1] += rev_offsets[i];
    }
    let mut rev_sources = vec![0u32; m];
    let mut rev_edge_ids = vec![0u32; m];
    let mut cursor = rev_offsets.clone();
    for u in 0..n {
        let lo = fwd_offsets[u] as usize;
        let hi = fwd_offsets[u + 1] as usize;
        for (e, &target) in fwd_targets.iter().enumerate().take(hi).skip(lo) {
            let v = target as usize;
            let slot = cursor[v] as usize;
            rev_sources[slot] = u as u32;
            rev_edge_ids[slot] = e as u32;
            cursor[v] += 1;
        }
    }

    let mut name_index = HashMap::new();
    if named {
        for (i, s) in names.iter().enumerate() {
            if !s.is_empty() {
                name_index.insert(s.clone(), NodeId(i as u32));
            }
        }
    }

    Ok(TopicGraph {
        num_topics,
        names: names.into(),
        name_index: Arc::new(name_index),
        fwd_offsets: fwd_offsets.into(),
        fwd_targets: fwd_targets.into(),
        rev_offsets: rev_offsets.into(),
        rev_sources: rev_sources.into(),
        rev_edge_ids: rev_edge_ids.into(),
        prob_offsets,
        prob_topics,
        prob_values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> TopicGraph {
        let mut b = GraphBuilder::new(3);
        let u = b.add_node("ada");
        let v = b.add_node("grace");
        let w = b.add_node("edsger");
        b.add_edge(u, v, &[(0, 0.5), (2, 0.25)]).unwrap();
        b.add_edge(v, w, &[(1, 0.75)]).unwrap();
        b.add_edge(w, u, &[(0, 0.125)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn keys_survive_an_encoding_round_trip() {
        // the keys are a function of the graph, not of how it was
        // materialized: a decoded copy keys like the original, for named
        // and anonymous graphs alike
        let named = sample();
        let keys = GraphKeys::of(&named);
        assert_eq!(GraphKeys::of(&decode(encode(&named)).unwrap()), keys);
        let mut b = GraphBuilder::new(2);
        let _ = b.add_nodes(4);
        b.add_edge(NodeId(0), NodeId(3), &[(1, 0.5)]).unwrap();
        let anon = b.build().unwrap();
        let anon_keys = GraphKeys::of(&anon);
        assert_eq!(GraphKeys::of(&decode(encode(&anon)).unwrap()), anon_keys);
        assert_ne!(keys.graph, anon_keys.graph);
    }

    #[test]
    fn slice_hashes_isolate_their_inputs() {
        let base = sample();
        // rename: only the name slice moves
        let renamed = {
            let mut b = GraphBuilder::new(3);
            b.add_node("ada");
            b.add_node("grace hopper"); // renamed
            b.add_node("edsger");
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (2, 0.25)])
                .unwrap();
            b.add_edge(NodeId(1), NodeId(2), &[(1, 0.75)]).unwrap();
            b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
            b.build().unwrap()
        };
        assert_eq!(
            GraphKeys::of(&base).topology,
            GraphKeys::of(&renamed).topology
        );
        assert_eq!(
            GraphKeys::of(&base).weights,
            GraphKeys::of(&renamed).weights
        );
        assert_ne!(GraphKeys::of(&base).names, GraphKeys::of(&renamed).names);

        // weight nudge: only the probability slice moves
        let nudged = {
            let mut b = GraphBuilder::new(3);
            b.add_node("ada");
            b.add_node("grace");
            b.add_node("edsger");
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (2, 0.25)])
                .unwrap();
            b.add_edge(NodeId(1), NodeId(2), &[(1, 0.8)]).unwrap(); // nudged
            b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
            b.build().unwrap()
        };
        assert_eq!(
            GraphKeys::of(&base).topology,
            GraphKeys::of(&nudged).topology
        );
        assert_ne!(GraphKeys::of(&base).weights, GraphKeys::of(&nudged).weights);
        assert_eq!(GraphKeys::of(&base).names, GraphKeys::of(&nudged).names);

        // edge insert: topology and weights move (the prob table is
        // edge-indexed), names stay
        let extended = {
            let mut b = GraphBuilder::new(3);
            b.add_node("ada");
            b.add_node("grace");
            b.add_node("edsger");
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (2, 0.25)])
                .unwrap();
            b.add_edge(NodeId(1), NodeId(2), &[(1, 0.75)]).unwrap();
            b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
            b.add_edge(NodeId(0), NodeId(2), &[(1, 0.3)]).unwrap(); // new
            b.build().unwrap()
        };
        assert_ne!(
            GraphKeys::of(&base).topology,
            GraphKeys::of(&extended).topology
        );
        assert_ne!(
            GraphKeys::of(&base).weights,
            GraphKeys::of(&extended).weights
        );
        assert_eq!(GraphKeys::of(&base).names, GraphKeys::of(&extended).names);

        // the three slices of one graph never collide with each other
        assert_ne!(GraphKeys::of(&base).topology, GraphKeys::of(&base).weights);
        assert_ne!(GraphKeys::of(&base).topology, GraphKeys::of(&base).names);
        assert_ne!(GraphKeys::of(&base).weights, GraphKeys::of(&base).names);
    }

    #[test]
    fn per_topic_weight_hashes_isolate_their_topics() {
        let base = sample();
        let per_topic = |g: &TopicGraph| -> Vec<u64> { GraphKeys::of(g).topics };
        let h0 = per_topic(&base);
        // distinct topics hash to distinct values (domain separation by z)
        assert_ne!(h0[0], h0[1]);
        assert_ne!(h0[1], h0[2]);
        assert_ne!(h0[0], h0[2]);

        // rename: no per-topic hash moves (monolithic-equal ⟹ per-topic-equal)
        let renamed = {
            let mut b = GraphBuilder::new(3);
            b.add_node("ada");
            b.add_node("grace hopper");
            b.add_node("edsger");
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (2, 0.25)])
                .unwrap();
            b.add_edge(NodeId(1), NodeId(2), &[(1, 0.75)]).unwrap();
            b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
            b.build().unwrap()
        };
        assert_eq!(
            GraphKeys::of(&base).weights,
            GraphKeys::of(&renamed).weights
        );
        assert_eq!(h0, per_topic(&renamed));

        // topic-1-confined nudge: only topic 1's hash moves
        let nudged = {
            let mut b = GraphBuilder::new(3);
            b.add_node("ada");
            b.add_node("grace");
            b.add_node("edsger");
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (2, 0.25)])
                .unwrap();
            b.add_edge(NodeId(1), NodeId(2), &[(1, 0.8)]).unwrap(); // nudged
            b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
            b.build().unwrap()
        };
        let hn = per_topic(&nudged);
        assert_eq!(h0[0], hn[0]);
        assert_ne!(h0[1], hn[1]);
        assert_eq!(h0[2], hn[2]);

        // edge insert carrying only topic 1: topics 0 and 2 survive even
        // though every edge id after the insertion point shifted
        let extended = {
            let mut b = GraphBuilder::new(3);
            b.add_node("ada");
            b.add_node("grace");
            b.add_node("edsger");
            b.add_edge(NodeId(0), NodeId(1), &[(0, 0.5), (2, 0.25)])
                .unwrap();
            b.add_edge(NodeId(1), NodeId(2), &[(1, 0.75)]).unwrap();
            b.add_edge(NodeId(2), NodeId(0), &[(0, 0.125)]).unwrap();
            b.add_edge(NodeId(0), NodeId(2), &[(1, 0.3)]).unwrap(); // new
            b.build().unwrap()
        };
        let he = per_topic(&extended);
        assert_eq!(h0[0], he[0]);
        assert_ne!(h0[1], he[1]);
        assert_eq!(h0[2], he[2]);
    }

    #[test]
    fn round_trip_named() {
        let g = sample();
        let bytes = encode(&g);
        let g2 = decode(bytes).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.node_by_name("grace"), Some(NodeId(1)));
    }

    #[test]
    fn round_trip_anonymous() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(3);
        b.add_edge(NodeId(0), NodeId(2), &[(0, 1.0)]).unwrap();
        let g = b.build().unwrap();
        let g2 = decode(encode(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample()).to_vec();
        raw[..4].copy_from_slice(b"NOPE");
        let err = decode(&raw[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode(&sample());
        // Chop the payload at several points; every prefix must fail cleanly,
        // never panic.
        for cut in [0, 3, 6, 10, 14, 15, 20, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::Codec(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let bytes = encode(&sample());
        let mut raw = bytes.to_vec();
        raw[4] = 99;
        let err = decode(&raw[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_corrupt_probability() {
        let g = sample();
        let bytes = encode(&g);
        let mut raw = bytes.to_vec();
        // corrupt the final f32 (a prob_value) to 7.0
        let len = raw.len();
        raw[len - 4..].copy_from_slice(&7.0f32.to_le_bytes());
        let err = decode(&raw[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new(2).build().unwrap();
        let g2 = decode(encode(&g)).unwrap();
        assert_eq!(g, g2);
    }
}
