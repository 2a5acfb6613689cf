//! Scenario 2 at depth: personalized influential keyword suggestion — "the
//! selling points" of researchers — with radar-chart interpretation and a
//! greedy-vs-exhaustive quality check.
//!
//! ```bash
//! cargo run --release --example selling_points
//! ```

use octopus::core::engine::{Octopus, OctopusConfig};
use octopus::core::piks::{
    ExhaustivePiks, GreedyPiks, InfluencerIndex, PiksConfig, PiksWorldsView,
};
use octopus::data::CitationConfig;
use octopus::KeywordId;
use std::collections::HashMap;

fn main() {
    let net = CitationConfig {
        authors: 500,
        papers: 1200,
        num_topics: 6,
        words_per_topic: 14,
        seed: 17,
        ..Default::default()
    }
    .generate();

    // Per-user candidates from the action log (paper titles), as OCTOPUS does.
    let mut user_keywords: HashMap<octopus::NodeId, Vec<KeywordId>> = HashMap::new();
    for item in net.log.items() {
        let entry = user_keywords.entry(item.origin).or_default();
        for &w in &item.keywords {
            if !entry.contains(&w) {
                entry.push(w);
            }
        }
    }

    let engine = Octopus::new(
        net.graph.clone(),
        net.model.clone(),
        OctopusConfig {
            piks_index_size: 2048,
            ..Default::default()
        },
    )
    .expect("engine builds")
    .with_user_keywords(user_keywords.clone());

    // pick the three most prolific researchers as targets
    let mut prolific: Vec<(octopus::NodeId, usize)> =
        user_keywords.iter().map(|(&u, ws)| (u, ws.len())).collect();
    prolific.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    for &(target, n_kw) in prolific.iter().take(3) {
        let name = engine.graph().name(target).unwrap_or("?").to_string();
        println!("\n== selling points of {name} ({n_kw} candidate keywords) ==");
        match engine.suggest_keywords_for(target, 3) {
            Ok(ans) => {
                println!("  suggested: {:?}", ans.words);
                println!(
                    "  spread≈{:.1}  consistency {:.2}  ({} evals, {} skipped, {:?})",
                    ans.result.spread,
                    ans.result.consistency,
                    ans.result.stats.evaluations,
                    ans.result.stats.skipped,
                    ans.elapsed
                );
                println!("{}", ans.radar.ascii());
            }
            Err(e) => println!("  error: {e}"),
        }
    }

    // Greedy vs exhaustive on a pruned candidate pool (the oracle check).
    println!("== greedy vs exhaustive (k=2, pool capped at 8) ==");
    let raw = InfluencerIndex::build(&net.graph, 2048, 99).to_bytes();
    let index = PiksWorldsView::parse(&raw).expect("fresh encoding parses");
    let cfg = PiksConfig::default();
    let greedy = GreedyPiks::new(&net.graph, &net.model, index, cfg.clone());
    let exact = ExhaustivePiks::new(&net.graph, &net.model, index, cfg);
    let mut ratios = Vec::new();
    for &(target, _) in prolific.iter().take(5) {
        let pool: Vec<KeywordId> = user_keywords[&target].iter().copied().take(8).collect();
        if pool.len() < 2 {
            continue;
        }
        let (Ok(g), Ok(e)) = (
            greedy.suggest(target, &pool, 2),
            exact.suggest(target, &pool, 2),
        ) else {
            continue;
        };
        let ratio = if e.spread > 0.0 {
            g.spread / e.spread
        } else {
            1.0
        };
        ratios.push(ratio);
        println!(
            "  {:24} greedy {:>6.2} vs exhaustive {:>6.2}  (ratio {:.3}, {} vs {} evals)",
            net.graph.name(target).unwrap_or("?"),
            g.spread,
            e.spread,
            ratio,
            g.stats.evaluations,
            e.stats.evaluations
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    println!("  mean greedy/exhaustive ratio: {mean:.3}");
}
