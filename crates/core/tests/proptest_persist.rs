//! Property tests for the artifact cache: fingerprint sensitivity (any
//! single-edge, single-weight, config-field, or seed perturbation changes
//! the cache key; identical inputs never do) and codec round-trips on
//! random graphs.

use octopus_core::engine::{KimEngineChoice, OctopusConfig};
use octopus_core::kim::BoundKind;
use octopus_core::offline::persist::{self, Fingerprint};
use octopus_core::offline::{self, OfflineArtifacts};
use octopus_core::piks::PiksConfig;
use octopus_graph::{GraphBuilder, NodeId, TopicGraph};
use proptest::prelude::*;

/// `(src, dst, topic, probability)` — one edge of a generated graph.
type EdgeSpec = (u32, u32, usize, f64);

/// Deduplicated, self-loop-free edge list. Always non-empty (a fallback
/// edge is injected) so "perturb edge `i`" is well-defined.
fn clean_edges(raw: Vec<EdgeSpec>) -> Vec<EdgeSpec> {
    let mut seen = std::collections::HashSet::new();
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
    (4usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0usize..2, 0.1f64..0.8), 3..24)
            .prop_map(move |raw| (n, clean_edges(raw)))
    })
}

fn base_config() -> OctopusConfig {
    OctopusConfig {
        kim: KimEngineChoice::Mis,
        piks_index_size: 64,
        mis_rr_per_topic: 120,
        k_max: 3,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rebuilding the same graph from the same spec keys identically —
    /// the fingerprint is a pure function of the inputs.
    #[test]
    fn identical_inputs_identical_keys((n, edges) in arb_net()) {
        let config = base_config();
        let a = Fingerprint::compute(&build_graph(n, &edges), &config);
        let b = Fingerprint::compute(&build_graph(n, &edges), &config);
        prop_assert_eq!(a, b);
    }

    /// Removing any single edge changes the graph component of the key.
    #[test]
    fn single_edge_removal_changes_key((n, edges) in arb_net(), pick in 0usize..64) {
        let config = base_config();
        let full = Fingerprint::compute(&build_graph(n, &edges), &config);
        let victim = pick % edges.len();
        let mut pruned = edges.clone();
        pruned.remove(victim);
        if pruned.is_empty() {
            // a graph must keep at least the node set; zero edges is still
            // a different topology
            let cut = Fingerprint::compute(&build_graph(n, &pruned), &config);
            prop_assert_ne!(full.graph, cut.graph);
        } else {
            let cut = Fingerprint::compute(&build_graph(n, &pruned), &config);
            prop_assert_ne!(full.graph, cut.graph);
            prop_assert_eq!(full.config, cut.config, "config component must not move");
        }
    }

    /// Perturbing any single edge weight changes the graph component.
    #[test]
    fn single_weight_perturbation_changes_key((n, edges) in arb_net(), pick in 0usize..64) {
        let config = base_config();
        let original = Fingerprint::compute(&build_graph(n, &edges), &config);
        let victim = pick % edges.len();
        let mut nudged = edges.clone();
        nudged[victim].3 = (nudged[victim].3 + 0.1).min(0.95);
        let perturbed = Fingerprint::compute(&build_graph(n, &nudged), &config);
        prop_assert_ne!(original.graph, perturbed.graph);
        prop_assert_eq!(original.seed, perturbed.seed);
    }

    /// Any seed change moves the seed component; the graph component stays.
    #[test]
    fn seed_changes_key((n, edges) in arb_net(), delta in 1u64..u64::MAX) {
        let g = build_graph(n, &edges);
        let config = base_config();
        let a = Fingerprint::compute(&g, &config);
        let b = Fingerprint::compute(&g, &OctopusConfig { seed: config.seed ^ delta, ..config });
        prop_assert_ne!(a, b);
        prop_assert_eq!(a.graph, b.graph);
        prop_assert_eq!(a.config, b.config);
    }

    /// The artifact codec round-trips the full artifact set of random
    /// graphs with every stage reused, and a reloaded artifact re-encodes
    /// to the identical bytes (canonical encoding).
    #[test]
    fn codec_round_trips_on_random_graphs((n, edges) in arb_net()) {
        let g = build_graph(n, &edges);
        let config = base_config();
        let fp = Fingerprint::compute(&g, &config);
        let keys = persist::StageKeys::compute(&g, &config);
        let art = offline::build(&g, &config);
        let raw = persist::encode(&art, &fp, &keys, 1);
        let slots = persist::load_sections(&raw, &keys, &g, &config).expect("reload");
        let back = offline::build_with_reuse(&g, &config, slots);
        prop_assert!(back.fully_reused(), "unchanged inputs reuse everything");
        assert_artifacts_equal(&art, &back);
        let again = persist::encode(&back, &fp, &keys, 1);
        prop_assert_eq!(raw.to_vec(), again.to_vec(), "re-encode must be canonical");
    }

    /// Every strict prefix of a random graph's encoding loses at least the
    /// final section (the trie) — a truncated container can never be
    /// mistaken for a complete one, whatever the cut point.
    #[test]
    fn truncation_never_salvages_everything((n, edges) in arb_net(), frac in 0.0f64..1.0) {
        let g = build_graph(n, &edges);
        let config = base_config();
        let fp = Fingerprint::compute(&g, &config);
        let keys = persist::StageKeys::compute(&g, &config);
        let raw = persist::encode(&offline::build(&g, &config), &fp, &keys, 1);
        let cut = (((raw.len() as f64) * frac) as usize).min(raw.len() - 1);
        match persist::load_sections(&raw[..cut], &keys, &g, &config) {
            Err(_) => {} // header/table damage: clean error
            Ok(slots) => prop_assert!(
                slots.names.is_none(),
                "a strict prefix cannot contain the final section intact"
            ),
        }
    }

    /// Per-stage keys are a pure function of the inputs, and a weight
    /// perturbation invalidates exactly the probability-reading stages.
    #[test]
    fn stage_keys_track_weight_slices((n, edges) in arb_net(), pick in 0usize..64) {
        let config = base_config();
        let a = persist::StageKeys::compute(&build_graph(n, &edges), &config);
        let b = persist::StageKeys::compute(&build_graph(n, &edges), &config);
        prop_assert_eq!(a, b, "identical inputs must key identically");
        let victim = pick % edges.len();
        let mut nudged = edges.clone();
        nudged[victim].3 = (nudged[victim].3 + 0.1).min(0.95);
        let c = persist::StageKeys::compute(&build_graph(n, &nudged), &config);
        prop_assert_ne!(a.cap, c.cap, "cap reads weights");
        prop_assert_ne!(a.mis, c.mis, "mis reads weights");
        prop_assert_eq!(a.names, c.names, "autocomplete never reads weights");
        prop_assert_eq!(a.piks, c.piks, "piks section key is derivation-only");
    }
}

/// Byte equality of every section payload, tags included.
fn assert_artifacts_equal(a: &OfflineArtifacts, b: &OfflineArtifacts) {
    assert!(a.payloads().eq(b.payloads()), "section payloads differ");
}

/// Every config field participates in the key: each single-field mutation
/// produces a config component different from the baseline, and all the
/// mutants are pairwise distinct (no accidental FNV collisions among the
/// interesting perturbations).
#[test]
fn every_config_field_perturbation_changes_key() {
    let g = build_graph(5, &[(0, 1, 0, 0.5), (1, 2, 1, 0.4), (2, 3, 0, 0.3)]);
    let base = base_config();
    type Mutator = Box<dyn Fn(&mut OctopusConfig)>;
    let mutators: Vec<(&str, Mutator)> = vec![
        ("kim→naive", Box::new(|c| c.kim = KimEngineChoice::Naive)),
        (
            "kim→best-effort/PB",
            Box::new(|c| c.kim = KimEngineChoice::BestEffort(BoundKind::Precomputation)),
        ),
        (
            "kim→best-effort/NB",
            Box::new(|c| c.kim = KimEngineChoice::BestEffort(BoundKind::Neighborhood)),
        ),
        (
            "kim→best-effort/LG",
            Box::new(|c| c.kim = KimEngineChoice::BestEffort(BoundKind::LocalGraph)),
        ),
        (
            "kim→topic-sample",
            Box::new(|c| {
                c.kim = KimEngineChoice::TopicSample {
                    bound: BoundKind::Precomputation,
                    extra_samples: 4,
                    direct_eps: 0.05,
                }
            }),
        ),
        (
            "kim→topic-sample/extra",
            Box::new(|c| {
                c.kim = KimEngineChoice::TopicSample {
                    bound: BoundKind::Precomputation,
                    extra_samples: 5,
                    direct_eps: 0.05,
                }
            }),
        ),
        (
            "kim→topic-sample/eps",
            Box::new(|c| {
                c.kim = KimEngineChoice::TopicSample {
                    bound: BoundKind::Precomputation,
                    extra_samples: 4,
                    direct_eps: 0.1,
                }
            }),
        ),
        ("mia_theta", Box::new(|c| c.mia_theta *= 0.5)),
        ("k_max", Box::new(|c| c.k_max += 1)),
        ("mis_rr_per_topic", Box::new(|c| c.mis_rr_per_topic += 1)),
        ("piks_index_size", Box::new(|c| c.piks_index_size += 1)),
        ("pb_safety", Box::new(|c| c.pb_safety += 0.01)),
        ("lg_depth", Box::new(|c| c.lg_depth += 1)),
        ("lg_safety", Box::new(|c| c.lg_safety += 0.01)),
        (
            "piks.min_posterior_consistency",
            Box::new(|c| c.piks.min_posterior_consistency += 0.01),
        ),
        (
            "piks.min_pairwise_consistency",
            Box::new(|c| c.piks.min_pairwise_consistency += 0.01),
        ),
        ("top_paths", Box::new(|c| c.top_paths += 1)),
        ("cache_capacity", Box::new(|c| c.cache_capacity += 1)),
        ("cache_tolerance", Box::new(|c| c.cache_tolerance *= 2.0)),
        (
            "piks (whole struct)",
            Box::new(|c| {
                c.piks = PiksConfig {
                    min_posterior_consistency: 0.9,
                    min_pairwise_consistency: 0.9,
                }
            }),
        ),
    ];
    let baseline = Fingerprint::compute(&g, &base);
    let mut seen = vec![("baseline", baseline.config)];
    for (what, mutate) in &mutators {
        let mut config = base.clone();
        mutate(&mut config);
        let fp = Fingerprint::compute(&g, &config);
        assert_eq!(fp.graph, baseline.graph, "{what}: graph component moved");
        assert_eq!(fp.seed, baseline.seed, "{what}: seed component moved");
        for (other, key) in &seen {
            assert_ne!(
                fp.config, *key,
                "{what} collides with {other} on the config component"
            );
        }
        seen.push((what, fp.config));
    }
}

/// The seed never leaks into the config component and vice versa.
#[test]
fn seed_is_its_own_component() {
    let g = build_graph(4, &[(0, 1, 0, 0.5), (2, 3, 1, 0.6)]);
    let base = base_config();
    let reseeded = Fingerprint::compute(
        &g,
        &OctopusConfig {
            seed: base.seed.wrapping_add(1),
            ..base.clone()
        },
    );
    let baseline = Fingerprint::compute(&g, &base);
    assert_eq!(baseline.config, reseeded.config);
    assert_eq!(baseline.graph, reseeded.graph);
    assert_ne!(baseline.seed, reseeded.seed);
}

/// Renaming a user changes the key: names feed the autocomplete artifact,
/// so two graphs differing only in names must not share cache files.
#[test]
fn node_rename_changes_key() {
    let edges = [(0u32, 1u32, 0usize, 0.5f64)];
    let named = |name: &str| {
        let mut b = GraphBuilder::new(2);
        b.add_node(name);
        b.add_node("other");
        for &(u, v, z, p) in &edges {
            b.add_edge(NodeId(u), NodeId(v), &[(z, p)]).unwrap();
        }
        b.build().unwrap()
    };
    let config = base_config();
    let a = Fingerprint::compute(&named("alice"), &config);
    let b = Fingerprint::compute(&named("alicia"), &config);
    assert_ne!(a.graph, b.graph);
}
