//! Property tests for the cascade engines: estimator agreement, greedy/CELF
//! equivalence, monotonicity and submodularity of sampled spread.

use octopus_cascade::{
    celf_select, estimate_spread, greedy_select, EdgeCoins, RrCollection, RrOracle,
};
use octopus_graph::{EdgeId, EdgeProbs, GraphBuilder, NodeId, TopicGraph};
use proptest::prelude::*;

/// Strategy: small random single-topic graph with edge probabilities.
fn arb_ic_graph() -> impl Strategy<Value = (TopicGraph, EdgeProbs)> {
    (3usize..14).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.05f64..0.9), 1..n * 2).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(1);
                let _ = b.add_nodes(n);
                for (u, v, p) in edges {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v), &[(0, p)]).unwrap();
                    }
                }
                let g = b.build().unwrap();
                let probs = g.materialize(&[1.0]).unwrap();
                (g, probs)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Spread is bounded: |seeds| ≤ σ(S) ≤ n, for both MC and RR estimators.
    #[test]
    fn spread_bounds((g, p) in arb_ic_graph(), seed_count in 1usize..4) {
        let seeds: Vec<NodeId> = (0..seed_count.min(g.node_count()) as u32).map(NodeId).collect();
        let mc = estimate_spread(&g, &p, &seeds, 300, 1);
        prop_assert!(mc >= seeds.len() as f64 - 1e-9);
        prop_assert!(mc <= g.node_count() as f64 + 1e-9);
        let rr = RrCollection::generate(&g, &p, 300, 2);
        let est = rr.estimate_spread(&seeds);
        prop_assert!(est >= 0.0);
        prop_assert!(est <= g.node_count() as f64 + 1e-9);
    }

    /// MC and RR estimators agree on single-seed spread within statistical
    /// tolerance.
    #[test]
    fn estimators_agree((g, p) in arb_ic_graph()) {
        let u = NodeId(0);
        let mc = estimate_spread(&g, &p, &[u], 4000, 3);
        let rr = RrCollection::generate(&g, &p, 12_000, 4);
        let est = rr.estimate_spread(&[u]);
        // both unbiased; allow combined 3-sigma-ish slack scaled by n
        let slack = 0.15 * g.node_count() as f64;
        prop_assert!((mc - est).abs() <= slack.max(0.5), "mc={mc} rr={est}");
    }

    /// RR-estimated spread is monotone: adding a seed never decreases it.
    #[test]
    fn rr_spread_monotone((g, p) in arb_ic_graph(), extra in 0u32..14) {
        let rr = RrCollection::generate(&g, &p, 500, 5);
        let base = vec![NodeId(0)];
        let s1 = rr.estimate_spread(&base);
        let added = NodeId(extra % g.node_count() as u32);
        let s2 = rr.estimate_spread(&[NodeId(0), added]);
        prop_assert!(s2 >= s1 - 1e-9);
    }

    /// CELF and plain greedy select identical seeds over the same frozen RR
    /// collection (the deterministic-oracle equivalence that justifies using
    /// CELF everywhere).
    #[test]
    fn celf_equals_greedy((g, p) in arb_ic_graph(), k in 1usize..5) {
        let rr = RrCollection::generate(&g, &p, 800, 6);
        let mut o1 = RrOracle::from_collection(rr.clone());
        let mut o2 = RrOracle::from_collection(rr);
        let a = celf_select(&mut o1, k);
        let b = greedy_select(&mut o2, k);
        prop_assert_eq!(&a.seeds, &b.seeds);
        prop_assert!((a.spread - b.spread).abs() < 1e-9);
        prop_assert!(a.evaluations <= b.evaluations);
    }

    /// Greedy gains are non-increasing (sampled submodularity).
    #[test]
    fn greedy_gains_non_increasing((g, p) in arb_ic_graph(), k in 2usize..6) {
        let mut o = RrOracle::new(&g, &p, 600, 7);
        let res = greedy_select(&mut o, k);
        for w in res.gains.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9, "gains {:?}", res.gains);
        }
    }

    /// Shared-coin worlds: live-edge sets are nested under pointwise
    /// probability increase (the monotonicity the PIKS index relies on).
    #[test]
    fn coin_worlds_monotone(
        seed in proptest::num::u64::ANY,
        probs in proptest::collection::vec(0.0f64..1.0, 1..40),
        bump in 0.0f64..0.5,
    ) {
        let w = EdgeCoins::new(seed);
        for (i, &p) in probs.iter().enumerate() {
            let e = EdgeId(i as u32);
            if w.is_live(e, p) {
                prop_assert!(w.is_live(e, (p + bump).min(1.0)));
            }
        }
    }

    /// RR greedy coverage equals brute-force best coverage for k=1.
    #[test]
    fn greedy_k1_is_exact((g, p) in arb_ic_graph()) {
        let rr = RrCollection::generate(&g, &p, 400, 8);
        let (seeds, cov) = rr.select_seeds(1);
        prop_assert_eq!(seeds.len(), 1);
        let best_by_scan = g
            .nodes()
            .map(|u| rr.coverage(&[u]))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(cov, best_by_scan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heuristic selectors return distinct, in-bounds seeds and respect k.
    #[test]
    fn heuristics_basic_contract((g, p) in arb_ic_graph(), k in 1usize..6) {
        for method in [
            octopus_cascade::top_degree,
            octopus_cascade::degree_discount,
        ] {
            let seeds = method(&g, &p, k);
            prop_assert!(seeds.len() <= k.min(g.node_count()));
            let mut d = seeds.clone();
            d.sort();
            d.dedup();
            prop_assert_eq!(d.len(), seeds.len(), "duplicate seeds");
            for s in &seeds {
                prop_assert!(s.index() < g.node_count());
            }
        }
    }

    /// The first seed of both heuristics is the probability-weighted
    /// out-degree argmax (they only diverge from round 2 on).
    #[test]
    fn heuristics_agree_on_first_seed((g, p) in arb_ic_graph()) {
        let a = octopus_cascade::top_degree(&g, &p, 1);
        let c = octopus_cascade::degree_discount(&g, &p, 1);
        prop_assert_eq!(&a, &c);
    }
}
