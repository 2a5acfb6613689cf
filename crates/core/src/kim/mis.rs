//! Marginal Influence Sort (MIS): the precomputation-heavy fast path of the
//! online topic-aware IM framework \[3\].
//!
//! Offline, run CELF once per *pure* topic and record each selected user's
//! marginal gain `MG_z(u)`. Online, score every recorded user by
//! `Σ_z γ_z · MG_z(u)` and return the top-`k` by score. Under the
//! topic-disjointness observed in real networks (an edge's probability mass
//! concentrates on one topic) the aggregate marginal gains are close to the
//! true mixed-query gains, which is why this heuristic answers in
//! microseconds with near-greedy quality — experiment E4 quantifies the gap.
//!
//! [`MisKim`] is the offline build form; queries score and select off the
//! serialized tables through the zero-copy [`MisView`].

use super::{KimResult, KimStats};
use octopus_cascade::{celf_select, stream_seed, RrOracle};
use octopus_graph::{NodeId, TopicGraph};
use octopus_topics::TopicDistribution;
use std::collections::HashMap;

/// The MIS offline build: one CELF marginal-gain table per pure topic,
/// each stored as its own `mis-tables` unit and aggregated at query time by
/// [`MisView`].
#[derive(Debug, Clone, Copy)]
pub struct MisKim;

impl MisKim {
    /// Build one topic's marginal-gain table — the per-topic rebuild unit
    /// of the `mis-tables` stage. Topic `z` samples from its own stream
    /// (`stream_seed(seed, z)`), and the pure-topic RR sampler consumes no
    /// randomness on zero-probability edges, so the table is a function of
    /// the topic-`z` edge triples, the node universe, and `(k_max,
    /// rr_per_topic, seed)` alone: a partial rebuild assembling reused and
    /// fresh tables equals a from-scratch build exactly.
    pub fn build_topic(
        graph: &TopicGraph,
        z: usize,
        k_max: usize,
        rr_per_topic: usize,
        seed: u64,
    ) -> HashMap<NodeId, f64> {
        let gamma = TopicDistribution::pure(graph.num_topics(), z);
        let probs = graph
            .materialize(gamma.as_slice())
            .expect("valid corner gamma");
        let mut oracle = RrOracle::new(graph, &probs, rr_per_topic, stream_seed(seed, z as u64));
        let res = celf_select(&mut oracle, k_max);
        res.seeds
            .iter()
            .copied()
            .zip(res.gains.iter().copied())
            .collect()
    }

    /// The incremental-rebuild cache key of one **topic's** `mis-tables`
    /// unit.
    ///
    /// [`MisKim::build_topic`] reads exactly the topic-`z` probability
    /// slice (`weights_topic` =
    /// a [`GraphKeys::topics`](octopus_graph::codec::GraphKeys::topics) entry,
    /// which pins the topic index, the edge triples, and the node universe
    /// the RR roots are drawn from), plus `k_max`, the RR budget, and the
    /// sampling seed. Node **names are deliberately absent** — MIS never
    /// reads them, so a rename reuses the cached tables — and so are the
    /// other topics' probabilities, so a topic-confined nudge rebuilds one
    /// unit. `enabled` records whether the configured engine builds the
    /// tables at all (see `PrecompBound::input_key_topic` for why the flag
    /// is part of the key).
    pub fn input_key_topic(
        weights_topic: u64,
        k_max: usize,
        rr_per_topic: usize,
        seed: u64,
        enabled: bool,
    ) -> u64 {
        let mut h = octopus_graph::wire::Fnv64::new();
        h.write(b"octa:mis-topic");
        h.write_u8(enabled as u8);
        if enabled {
            h.write_u64(weights_topic);
            h.write_u64(k_max as u64);
            h.write_u64(rr_per_topic as u64);
            h.write_u64(seed);
        }
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// per-topic flat layout of the mis-tables units of an OCTA v8 container,
// unchanged since v6 (zero-copy mapped read path)
// ---------------------------------------------------------------------------

/// Encode one topic's `mis-tables` OCTA v8 unit: `present u64` (0 or 1),
/// then — when present —
///
/// ```text
/// count u64 @8
/// ids   count × u32 @16                -- sorted by id ascending
/// [zero pad to 8]
/// gains count × f64
/// ```
///
/// Each topic is its own container section with its own key and checksum.
/// The candidate union [`MisView::select`] scans is **derived** at parse
/// time, not persisted — a unit reused from one epoch and a unit rebuilt in
/// another always reassemble the same union.
pub fn encode_mis_topic_section(table: Option<&HashMap<NodeId, f64>>) -> Vec<u8> {
    use bytes::BufMut;
    use octopus_graph::wire::pad8;
    let Some(table) = table else {
        return 0u64.to_le_bytes().to_vec();
    };
    let mut rows: Vec<(NodeId, f64)> = table.iter().map(|(&u, &g)| (u, g)).collect();
    rows.sort_by_key(|&(u, _)| u);
    let mut buf = Vec::with_capacity(16 + rows.len() * 12 + 8);
    buf.put_u64_le(1);
    buf.put_u64_le(rows.len() as u64);
    for &(u, _) in &rows {
        buf.put_u32_le(u.0);
    }
    buf.put_bytes(0, pad8(4 * rows.len()));
    for &(_, g) in &rows {
        buf.put_f64_le(g);
    }
    buf
}

/// One topic's validated unit within a [`MisView`].
#[derive(Debug, Clone, Copy)]
struct MisTopicView<'a> {
    /// The u32 id area (`count` entries, strictly ascending).
    ids: &'a [u8],
    /// The f64 gain area (`count` entries, parallel to `ids`).
    gains: &'a [u8],
    count: usize,
}

/// A zero-copy view of the persisted per-topic `mis-tables` units: scores
/// and selects directly off the section bytes. The candidate union (every
/// user in some topic's table, ascending) is computed once at parse time.
#[derive(Debug, Clone)]
pub struct MisView<'a> {
    topics: Vec<MisTopicView<'a>>,
    union: Vec<NodeId>,
}

impl<'a> MisView<'a> {
    /// Parse and structurally validate one topic's `mis-tables` payload of
    /// an OCTA v8 container (the unit layout has not changed since v6) into
    /// `Ok(None)` (persisted absent) or the validated unit. Checks the
    /// exact unit length, strict id sortedness, and id bounds.
    fn parse_topic_inner(
        raw: &'a [u8],
        node_count: usize,
    ) -> Result<Option<MisTopicView<'a>>, octopus_graph::wire::WireError> {
        use octopus_graph::wire::{align8, WireError};
        if raw.len() < 8 {
            return Err(WireError("mis topic unit shorter than its flag".into()));
        }
        let word = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
        match word(0) {
            0 => {
                if raw.len() != 8 {
                    return Err(WireError("absent mis topic unit has trailing bytes".into()));
                }
                Ok(None)
            }
            1 => {
                if raw.len() < 16 {
                    return Err(WireError("mis topic unit header truncated".into()));
                }
                let count = word(8) as usize;
                let ids_off = 16;
                let gains_off = align8(ids_off + 4 * count);
                let want = gains_off + 8 * count;
                if raw.len() != want {
                    return Err(WireError(format!(
                        "mis topic unit length {} does not match its count (want {want})",
                        raw.len()
                    )));
                }
                let view = MisTopicView {
                    ids: &raw[ids_off..ids_off + 4 * count],
                    gains: &raw[gains_off..],
                    count,
                };
                for i in 0..count {
                    let id = view.id_at(i);
                    if id as usize >= node_count {
                        return Err(WireError(format!("mis id {id} out of bounds")));
                    }
                    if i > 0 && view.id_at(i - 1) >= id {
                        return Err(WireError("mis topic ids must be strictly ascending".into()));
                    }
                }
                Ok(Some(view))
            }
            other => Err(WireError(format!("invalid mis present flag {other}"))),
        }
    }

    /// Assemble the view from every topic's OCTA v8 unit payload (canonical
    /// ascending topic order). Returns `Ok(None)` when all units are
    /// persisted-absent; mixed presence fails closed — a valid writer
    /// never produces it.
    pub fn parse(
        slices: &[&'a [u8]],
        node_count: usize,
    ) -> Result<Option<Self>, octopus_graph::wire::WireError> {
        use octopus_graph::wire::WireError;
        let mut topics = Vec::with_capacity(slices.len());
        let mut absent = 0usize;
        for (z, raw) in slices.iter().enumerate() {
            match Self::parse_topic_inner(raw, node_count)? {
                Some(unit) => topics.push(unit),
                None => {
                    if z != absent {
                        return Err(WireError(format!("mis unit {z} absent amid present")));
                    }
                    absent += 1;
                }
            }
        }
        if absent == slices.len() {
            return Ok(None);
        }
        if absent != 0 {
            return Err(WireError("mis units mix absent and present".into()));
        }
        // candidate union: sorted dedup of all per-topic ids
        let mut union: Vec<NodeId> = topics
            .iter()
            .flat_map(|t| (0..t.count).map(|i| NodeId(t.id_at(i))))
            .collect();
        union.sort();
        union.dedup();
        Ok(Some(MisView { topics, union }))
    }

    /// The aggregated MIS score of a user under `gamma`,
    /// `Σ_z γ_z · MG_z(u)` in topic order, with per-topic lookups served by
    /// binary search over the sorted id arrays.
    pub fn score(&self, u: NodeId, gamma: &TopicDistribution) -> f64 {
        self.topics
            .iter()
            .enumerate()
            .map(|(t, unit)| {
                let mut left = 0usize;
                let mut right = unit.count;
                let mut gain = 0.0;
                while left < right {
                    let mid = left + (right - left) / 2;
                    match unit.id_at(mid).cmp(&u.0) {
                        std::cmp::Ordering::Less => left = mid + 1,
                        std::cmp::Ordering::Greater => right = mid,
                        std::cmp::Ordering::Equal => {
                            gain = unit.gain_at(mid);
                            break;
                        }
                    }
                }
                gamma[t] * gain
            })
            .sum()
    }

    /// Top-`k` selection: every candidate scored, ranked by descending
    /// score (ties by node id); the spread is the sum of the kept scores.
    pub fn select(&self, gamma: &TopicDistribution, k: usize) -> KimResult {
        let mut scored: Vec<(NodeId, f64)> = self
            .union
            .iter()
            .map(|&u| (u, self.score(u, gamma)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        let spread = scored.iter().map(|&(_, s)| s).sum();
        KimResult {
            seeds: scored.iter().map(|&(u, _)| u).collect(),
            spread,
            stats: KimStats {
                bound_evaluations: self.union.len(),
                ..KimStats::default()
            },
        }
    }
}

impl MisTopicView<'_> {
    #[inline]
    fn id_at(&self, i: usize) -> u32 {
        let at = 4 * i;
        u32::from_le_bytes(self.ids[at..at + 4].try_into().expect("validated len"))
    }

    #[inline]
    fn gain_at(&self, i: usize) -> f64 {
        let at = 8 * i;
        f64::from_le_bytes(self.gains[at..at + 8].try_into().expect("validated len"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kim::testutil::two_topic_hubs;

    /// The per-topic gain tables of the fixture.
    fn engine() -> Vec<HashMap<NodeId, f64>> {
        let g = two_topic_hubs();
        (0..2)
            .map(|z| MisKim::build_topic(&g, z, 5, 3000, 42))
            .collect()
    }

    /// The tables' per-topic OCTA v8 units, as the artifact stores them.
    fn units(tables: &[HashMap<NodeId, f64>]) -> Vec<Vec<u8>> {
        tables
            .iter()
            .map(|table| {
                let buf = encode_mis_topic_section(Some(table));
                assert_eq!(buf.len() % 8, 0, "unit records are padded to 8");
                buf
            })
            .collect()
    }

    fn view(units: &[Vec<u8>]) -> MisView<'_> {
        let slices: Vec<&[u8]> = units.iter().map(|u| &u[..]).collect();
        MisView::parse(&slices, two_topic_hubs().node_count())
            .unwrap()
            .expect("present")
    }

    #[test]
    fn pure_topic_queries_pick_matching_hub() {
        let units = units(&engine());
        let m = view(&units);
        let res = m.select(&TopicDistribution::pure(2, 0), 1);
        assert_eq!(res.seeds, vec![NodeId(0)]);
        let res = m.select(&TopicDistribution::pure(2, 1), 1);
        assert_eq!(res.seeds, vec![NodeId(1)]);
    }

    #[test]
    fn mixed_query_ranks_both_hubs_top() {
        let units = units(&engine());
        let res = view(&units).select(&TopicDistribution::uniform(2), 2);
        let mut seeds = res.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn score_is_the_gamma_weighted_gain_sum() {
        let built = engine();
        let units = units(&built);
        let m = view(&units);
        for gamma in [
            TopicDistribution::pure(2, 0),
            TopicDistribution::uniform(2),
            TopicDistribution::new(vec![0.9, 0.1]).unwrap(),
        ] {
            for u in (0..13).map(NodeId) {
                let expect: f64 = (0..2)
                    .map(|z| gamma[z] * built[z].get(&u).copied().unwrap_or(0.0))
                    .sum();
                assert_eq!(m.score(u, &gamma).to_bits(), expect.to_bits(), "{u:?}");
            }
        }
        let u = NodeId(0);
        let g0 = m.score(u, &TopicDistribution::pure(2, 0));
        let g1 = m.score(u, &TopicDistribution::pure(2, 1));
        let mix = m.score(u, &TopicDistribution::uniform(2));
        assert!((mix - 0.5 * (g0 + g1)).abs() < 1e-9, "linear in gamma");
    }

    #[test]
    fn skewed_gamma_reorders_results() {
        let units = units(&engine());
        let m = view(&units);
        let skew0 = TopicDistribution::new(vec![0.9, 0.1]).unwrap();
        let res = m.select(&skew0, 2);
        assert_eq!(
            res.seeds[0],
            NodeId(0),
            "topic-0-heavy query ranks hub 0 first"
        );
        let skew1 = TopicDistribution::new(vec![0.1, 0.9]).unwrap();
        let res = m.select(&skew1, 2);
        assert_eq!(res.seeds[0], NodeId(1));
    }

    #[test]
    fn candidates_are_union_of_topic_seeds_and_k_may_exceed_them() {
        let built = engine();
        let units = units(&built);
        let m = view(&units);
        let mut union: Vec<NodeId> = built.iter().flat_map(|t| t.keys().copied()).collect();
        union.sort();
        union.dedup();
        // leaves never selected by any pure-topic CELF run are not candidates
        assert!(union.contains(&NodeId(0)) && union.contains(&NodeId(1)));
        assert!(union.len() <= 13);
        let res = m.select(&TopicDistribution::uniform(2), 100);
        let mut seeds = res.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, union, "k past the candidates returns them all");
        assert_eq!(res.stats.bound_evaluations, union.len());
        let spread: f64 = res
            .seeds
            .iter()
            .map(|&u| m.score(u, &TopicDistribution::uniform(2)))
            .sum();
        assert_eq!(res.spread.to_bits(), spread.to_bits());
    }

    #[test]
    fn topic_units_rebuild_alone_and_malformed_units_fail_closed() {
        let g = two_topic_hubs();
        let tables = engine();
        // each topic's unit rebuilds alone: building the topics in reverse
        // order yields the same tables
        for z in (0..2).rev() {
            assert_eq!(MisKim::build_topic(&g, z, 5, 3000, 42), tables[z]);
        }
        let units = units(&tables);
        let slices: Vec<&[u8]> = units.iter().map(|u| &u[..]).collect();
        let m = view(&units);
        for (z, table) in tables.iter().enumerate() {
            assert!(MisView::parse(&[slices[z]], g.node_count())
                .unwrap()
                .is_some());
            for (&u, &gain) in table {
                let pure = TopicDistribution::pure(2, z);
                assert_eq!(
                    m.score(u, &pure).to_bits(),
                    gain.to_bits(),
                    "unit {z} at {u:?}"
                );
            }
        }

        // absent units parse to None; truncation and mixed presence fail
        // closed
        let absent = encode_mis_topic_section(None);
        let absent_slices: Vec<&[u8]> = vec![&absent, &absent];
        assert!(MisView::parse(&absent_slices, g.node_count())
            .unwrap()
            .is_none());
        let s0 = slices[0];
        assert!(MisView::parse(&[&s0[..s0.len() - 8], slices[1]], g.node_count()).is_err());
        assert!(MisView::parse(&[s0, &absent], g.node_count()).is_err());
        assert!(MisView::parse(&[&absent, s0], g.node_count()).is_err());
        assert!(MisView::parse(&[&absent], g.node_count())
            .unwrap()
            .is_none());
    }
}
