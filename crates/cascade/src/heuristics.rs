//! Structural seed-selection heuristics: the cheap baselines every IM
//! evaluation compares against (Chen, Wang, Yang — KDD'09).
//!
//! * [`top_degree`] — the naive "rank by out-degree" heuristic the paper's
//!   Scenario 1 contrasts with ("instead of ranking users with their
//!   individual influence");
//! * [`degree_discount`] — DegreeDiscount: after selecting a seed, its
//!   neighbors' effective degrees are discounted to account for overlap.
//!   Designed for uniform-probability IC; we use the mean edge probability
//!   of the materialized query graph as its `p` parameter.
//!
//! Both are query-dependent only through the materialized
//! probabilities, run in `O(m + n log n)`-ish time, and carry no
//! approximation guarantee — they anchor the quality axis of experiment E4.

use octopus_graph::{EdgeProbs, NodeId, TopicGraph};

/// Top-`k` nodes by probability-weighted out-degree `Σ_v pp_{u,v}(γ)`.
pub fn top_degree(g: &TopicGraph, probs: &EdgeProbs, k: usize) -> Vec<NodeId> {
    let mut scored: Vec<(NodeId, f64)> = g
        .nodes()
        .map(|u| {
            let w: f64 = g.out_edges(u).map(|(_, e)| probs.get(e) as f64).sum();
            (u, w)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored.into_iter().map(|(u, _)| u).collect()
}

/// Pick the unselected argmax, breaking ties toward the lower node id so
/// results are deterministic and match the greedy engines' convention.
fn argmax_unselected(score: &[f64], selected: &[bool]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (u, &s) in score.iter().enumerate() {
        if selected[u] {
            continue;
        }
        match best {
            Some(b) if score[b] >= s => {}
            _ => best = Some(u),
        }
    }
    best
}

/// DegreeDiscount (Chen et al., KDD'09, directed adaptation): track per
/// candidate the out-mass `t_u` already claimed by seeds and score by
/// `d_u − 2·t_u − (d_u − t_u)·t_u·p̄` with `p̄` the mean edge probability.
pub fn degree_discount(g: &TopicGraph, probs: &EdgeProbs, k: usize) -> Vec<NodeId> {
    let n = g.node_count();
    let m = g.edge_count();
    let mean_p = if m == 0 {
        0.0
    } else {
        probs.as_slice().iter().map(|&p| p as f64).sum::<f64>() / m as f64
    };
    let degree: Vec<f64> = (0..n)
        .map(|u| {
            g.out_edges(NodeId(u as u32))
                .map(|(_, e)| probs.get(e) as f64)
                .sum()
        })
        .collect();
    let mut t = vec![0.0f64; n]; // per-candidate out-mass claimed by seeds
    let mut score = degree.clone();
    let mut selected = vec![false; n];
    let mut claimed = vec![false; n];
    let mut seeds = Vec::with_capacity(k);
    while seeds.len() < k.min(n) {
        let Some(best) = argmax_unselected(&score, &selected) else {
            break;
        };
        selected[best] = true;
        seeds.push(NodeId(best as u32));
        for (f, _) in g.out_edges(NodeId(best as u32)) {
            if claimed[f.index()] {
                continue;
            }
            claimed[f.index()] = true;
            for (u, e) in g.in_edges(f) {
                let ui = u.index();
                if selected[ui] {
                    continue;
                }
                t[ui] += probs.get(e) as f64;
                // ddv = d_v − 2 t_v − (d_v − t_v) · t_v · p  (KDD'09 eq. 2)
                score[ui] = degree[ui] - 2.0 * t[ui] - (degree[ui] - t[ui]) * t[ui] * mean_p;
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::estimate_spread;
    use octopus_graph::GraphBuilder;

    /// Two hubs sharing all their followers at high probability (overlap is
    /// nearly worthless: 0.99 vs 0.9 per follower), plus a disjoint
    /// mini-hub. Plain degree picks both big hubs; discounts must divert the
    /// second seed to the mini-hub.
    fn overlapping_hubs() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(14);
        for v in 2..=9u32 {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 0.9)]).unwrap();
            b.add_edge(NodeId(1), NodeId(v), &[(0, 0.9)]).unwrap();
        }
        for v in 11..=13u32 {
            b.add_edge(NodeId(10), NodeId(v), &[(0, 0.9)]).unwrap();
        }
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

    #[test]
    fn top_degree_ranks_by_weighted_degree() {
        let (g, p) = overlapping_hubs();
        let seeds = top_degree(&g, &p, 2);
        assert_eq!(
            seeds,
            vec![NodeId(0), NodeId(1)],
            "plain degree ignores overlap"
        );
    }

    #[test]
    fn discount_avoids_fully_overlapping_hubs() {
        let (g, p) = overlapping_hubs();
        let seeds = degree_discount(&g, &p, 2);
        assert_eq!(seeds[0], NodeId(0));
        assert_eq!(
            seeds[1],
            NodeId(10),
            "second seed must be the disjoint hub, got {seeds:?}"
        );
    }

    #[test]
    fn discount_seeds_spread_at_least_as_well_as_degree() {
        let (g, p) = overlapping_hubs();
        let deg = estimate_spread(&g, &p, &top_degree(&g, &p, 2), 20_000, 1);
        let dd = estimate_spread(&g, &p, &degree_discount(&g, &p, 2), 20_000, 1);
        assert!(
            dd > deg,
            "degree-discount {dd} must beat plain degree {deg}"
        );
    }

    #[test]
    fn k_bounds_respected() {
        let (g, p) = overlapping_hubs();
        assert_eq!(top_degree(&g, &p, 0).len(), 0);
        assert_eq!(degree_discount(&g, &p, 100).len(), g.node_count());
        let seeds = degree_discount(&g, &p, 5);
        let mut dedup = seeds.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "no duplicate seeds");
    }

    #[test]
    fn empty_graph_safe() {
        let g = GraphBuilder::new(1).build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        assert!(top_degree(&g, &p, 3).is_empty());
        assert!(degree_discount(&g, &p, 3).is_empty());
    }
}
