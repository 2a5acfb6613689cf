//! OPIM-C–style adaptive influence maximization with an explicit
//! approximation certificate (Tang et al., SIGMOD'18 — the online refinement
//! of the IMM family \[8\] the paper cites).
//!
//! Two independent RR collections are maintained: `R1` drives greedy seed
//! selection; `R2` validates the selected set. Each round the algorithm
//! computes a Chernoff **lower** bound on `σ(S)` from `R2` and a Chernoff
//! **upper** bound on `σ(OPT)` from `R1`'s greedy coverage (inflated by
//! `1/(1−1/e)`); when their ratio reaches `1 − 1/e − ε` it stops, otherwise
//! both collections double. The returned certificate makes "theoretical
//! guarantee" (§II-C) a measurable quantity in the experiment harness.

use crate::rr::RrCollection;
use octopus_graph::{EdgeProbs, NodeId, TopicGraph};
use std::time::Instant;

/// Parameters for [`opim_select`].
#[derive(Debug, Clone)]
pub struct OpimOptions {
    /// Number of seeds to select.
    pub k: usize,
    /// Approximation slack `ε` (target ratio is `1 − 1/e − ε`).
    pub epsilon: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Initial RR sets per collection.
    pub initial_samples: usize,
    /// Maximum doubling rounds (bounds worst-case memory).
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpimOptions {
    fn default() -> Self {
        OpimOptions {
            k: 10,
            epsilon: 0.2,
            delta: 0.01,
            initial_samples: 256,
            max_rounds: 12,
            seed: 0x00C0_FFEE,
        }
    }
}

/// An anytime resource envelope for [`opim_select_budgeted`].
///
/// Both limits are optional; with neither set the run is identical to
/// [`opim_select`]. The sample cap is the *deterministic* knob: RR
/// generation uses per-set RNG streams, so a run capped at `max_rr_sets`
/// is bit-identical at any thread count. The deadline is only consulted
/// at round boundaries — each round's output is deterministic, but which
/// round a wall-clock deadline stops at is not.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpimBudget {
    /// Cap on total RR sets across both collections (split evenly).
    pub max_rr_sets: Option<usize>,
    /// Wall-clock deadline, checked between doubling rounds.
    pub deadline: Option<Instant>,
}

impl OpimBudget {
    /// No limits: budgeted selection degenerates to the exact path.
    pub fn unlimited() -> Self {
        OpimBudget::default()
    }
}

/// Result of an OPIM run.
#[derive(Debug, Clone)]
pub struct OpimResult {
    /// Selected seed set (selection order).
    pub seeds: Vec<NodeId>,
    /// Per-seed marginal spread gains (selection order, from the
    /// selection collection) — what a scatter-gather merge ranks by.
    pub gains: Vec<f64>,
    /// Point estimate of `σ(S)` from the validation collection.
    pub spread: f64,
    /// Certified lower bound on `σ(S)`.
    pub spread_lower: f64,
    /// Certified upper bound on `σ(OPT_k)`.
    pub opt_upper: f64,
    /// The certified approximation ratio `spread_lower / opt_upper`.
    pub ratio: f64,
    /// Total RR sets sampled across both collections.
    pub rr_sets: usize,
    /// Doubling rounds executed.
    pub rounds: usize,
}

/// Chernoff-style lower bound on `σ(S)` given `cov` covered sets out of
/// `theta` (OPIM-C eq. (4)-style). `a = ln(1/δ')`.
fn spread_lower_bound(n: usize, cov: usize, theta: usize, a: f64) -> f64 {
    if theta == 0 {
        return 0.0;
    }
    let cov = cov as f64;
    let val = ((cov + 2.0 * a / 9.0).sqrt() - (a / 2.0).sqrt()).powi(2) - a / 18.0;
    (val.max(0.0)) * n as f64 / theta as f64
}

/// Chernoff-style upper bound on `σ(OPT)` from the greedy coverage `cov`
/// on the selection collection: greedy covers at least `(1−1/e)·OPT`'s
/// coverage in expectation, so `OPT`'s true coverage is at most
/// `cov/(1−1/e)` (plus concentration slack).
fn opt_upper_bound(n: usize, cov: usize, theta: usize, a: f64) -> f64 {
    if theta == 0 {
        return n as f64;
    }
    let frac = 1.0 - 1.0 / std::f64::consts::E;
    let cov_ub = ((cov as f64 / frac) + a / 2.0).sqrt() + (a / 2.0).sqrt();
    (cov_ub.powi(2)) * n as f64 / theta as f64
}

/// Run OPIM-C: adaptive sampling until the certified ratio reaches
/// `1 − 1/e − ε` (or `max_rounds` is exhausted, in which case the best
/// certificate found is returned).
pub fn opim_select(g: &TopicGraph, probs: &EdgeProbs, opts: &OpimOptions) -> OpimResult {
    opim_select_budgeted(g, probs, opts, &OpimBudget::unlimited())
}

/// [`opim_select`] under an anytime [`OpimBudget`]: stop early when the
/// sample cap is reached or the deadline expires, returning the best
/// certificate found so far. At a fixed sample cap the result is
/// bit-identical at any thread count: collections grow to exactly
/// `⌊cap/2⌋` sets each via per-set RNG streams, and every evaluation is
/// a deterministic function of the collections.
pub fn opim_select_budgeted(
    g: &TopicGraph,
    probs: &EdgeProbs,
    opts: &OpimOptions,
    budget: &OpimBudget,
) -> OpimResult {
    let n = g.node_count();
    let target = 1.0 - 1.0 / std::f64::consts::E - opts.epsilon;
    let a = (3.0 * opts.max_rounds as f64 / opts.delta).ln();

    // Per-collection cap: half the total sample budget, at least one set.
    let cap_each = budget.max_rr_sets.map(|b| (b / 2).max(1));
    let init = cap_each.map_or(opts.initial_samples, |c| opts.initial_samples.min(c));
    let mut r1 = RrCollection::generate(g, probs, init, opts.seed ^ 0x5151);
    let mut r2 = RrCollection::generate(g, probs, init, opts.seed ^ 0xA2A2);

    let mut best: Option<OpimResult> = None;
    for round in 1..=opts.max_rounds {
        let (seeds, cov1, gains) = r1.select_seeds_with_gains(opts.k);
        let cov2 = r2.coverage(&seeds);
        let lb = spread_lower_bound(n, cov2, r2.len(), a);
        let ub = opt_upper_bound(n, cov1, r1.len(), a).min(n as f64);
        let ratio = if ub > 0.0 { (lb / ub).min(1.0) } else { 0.0 };
        let result = OpimResult {
            spread: r2.estimate_spread(&seeds),
            seeds,
            gains,
            spread_lower: lb,
            opt_upper: ub,
            ratio,
            rr_sets: r1.len() + r2.len(),
            rounds: round,
        };
        let better = best.as_ref().map(|b| ratio > b.ratio).unwrap_or(true);
        if better {
            best = Some(result);
        }
        if best.as_ref().map(|b| b.ratio >= target).unwrap_or(false) {
            break;
        }
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let at_cap = cap_each.is_some_and(|c| r1.len() >= c);
        if at_cap || round == opts.max_rounds {
            break;
        }
        // Double, clamped so each collection lands exactly on its cap.
        let mut grow1 = r1.len();
        let mut grow2 = r2.len();
        if let Some(c) = cap_each {
            grow1 = grow1.min(c - r1.len());
            grow2 = grow2.min(c - r2.len());
        }
        r1.extend(g, probs, grow1);
        r2.extend(g, probs, grow2);
    }
    best.expect("at least one round always runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::estimate_spread;
    use octopus_graph::GraphBuilder;

    fn two_stars() -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(7);
        for v in [2u32, 3, 4] {
            b.add_edge(NodeId(0), NodeId(v), &[(0, 1.0)]).unwrap();
        }
        for v in [5u32, 6] {
            b.add_edge(NodeId(1), NodeId(v), &[(0, 1.0)]).unwrap();
        }
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        (g, p)
    }

    /// A random-ish sparse graph for ratio checks.
    fn random_graph(n: usize, deg: usize, p: f64) -> (TopicGraph, EdgeProbs) {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(n);
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n as u32 {
            for _ in 0..deg {
                let v = (next() % n as u64) as u32;
                if v != u {
                    b.add_edge(NodeId(u), NodeId(v), &[(0, p)]).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        let probs = g.materialize(&[1.0]).unwrap();
        (g, probs)
    }

    #[test]
    fn opim_finds_hubs_with_certificate() {
        let (g, p) = two_stars();
        let res = opim_select(
            &g,
            &p,
            &OpimOptions {
                k: 2,
                ..Default::default()
            },
        );
        let mut seeds = res.seeds.clone();
        seeds.sort();
        assert_eq!(seeds, vec![NodeId(0), NodeId(1)]);
        assert!(res.ratio > 0.0);
        assert!(res.spread_lower <= res.spread + 1e-9);
        assert!(res.opt_upper >= res.spread_lower);
    }

    #[test]
    fn certificate_reaches_target_on_easy_instance() {
        let (g, p) = two_stars();
        let opts = OpimOptions {
            k: 2,
            epsilon: 0.3,
            ..Default::default()
        };
        let res = opim_select(&g, &p, &opts);
        let target = 1.0 - 1.0 / std::f64::consts::E - opts.epsilon;
        assert!(res.ratio >= target, "ratio {} < target {target}", res.ratio);
    }

    #[test]
    fn seeds_spread_is_near_optimal_on_random_graph() {
        let (g, p) = random_graph(150, 3, 0.2);
        let opts = OpimOptions {
            k: 5,
            epsilon: 0.25,
            seed: 3,
            ..Default::default()
        };
        let res = opim_select(&g, &p, &opts);
        assert_eq!(res.seeds.len(), 5);
        // MC-validate: the claimed lower bound should hold for the true spread.
        let mc = estimate_spread(&g, &p, &res.seeds, 3000, 77);
        assert!(
            mc >= res.spread_lower * 0.9,
            "mc {mc} violates certified lower bound {}",
            res.spread_lower
        );
    }

    #[test]
    fn zero_k_returns_empty() {
        let (g, p) = two_stars();
        let res = opim_select(
            &g,
            &p,
            &OpimOptions {
                k: 0,
                ..Default::default()
            },
        );
        assert!(res.seeds.is_empty());
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_exact() {
        let (g, p) = random_graph(120, 3, 0.2);
        let opts = OpimOptions {
            k: 4,
            seed: 9,
            ..Default::default()
        };
        let exact = opim_select(&g, &p, &opts);
        let anytime = opim_select_budgeted(&g, &p, &opts, &OpimBudget::unlimited());
        assert_eq!(exact.seeds, anytime.seeds);
        assert_eq!(exact.spread.to_bits(), anytime.spread.to_bits());
        assert_eq!(exact.rr_sets, anytime.rr_sets);
        assert_eq!(exact.gains.len(), exact.seeds.len());
    }

    #[test]
    fn sample_budget_caps_rr_sets_and_keeps_sound_bounds() {
        let (g, p) = random_graph(120, 3, 0.2);
        let opts = OpimOptions {
            k: 4,
            epsilon: 0.01, // unreachable target: force the cap to bind
            seed: 9,
            ..Default::default()
        };
        let budget = OpimBudget {
            max_rr_sets: Some(300),
            deadline: None,
        };
        let res = opim_select_budgeted(&g, &p, &opts, &budget);
        assert!(res.rr_sets <= 300, "rr_sets {} over budget", res.rr_sets);
        assert!(res.spread_lower <= res.opt_upper);
        // gains are the per-seed marginal decomposition of R1's coverage
        assert_eq!(res.gains.len(), res.seeds.len());
        assert!(res.gains.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn bounds_are_monotone_in_samples() {
        // with more samples the certificate should not get (much) worse
        let (g, p) = random_graph(80, 3, 0.15);
        let small = opim_select(
            &g,
            &p,
            &OpimOptions {
                k: 3,
                initial_samples: 64,
                max_rounds: 1,
                ..Default::default()
            },
        );
        let large = opim_select(
            &g,
            &p,
            &OpimOptions {
                k: 3,
                initial_samples: 4096,
                max_rounds: 1,
                ..Default::default()
            },
        );
        assert!(
            large.ratio >= small.ratio - 0.05,
            "small {} large {}",
            small.ratio,
            large.ratio
        );
    }
}
