//! ACMCite-like citation network generator (the paper's first demo dataset).
//!
//! Researchers arrive with sparse topic interests; papers carry topic
//! mixtures anchored to their author's interests and title keywords drawn
//! from the ground-truth `p(w|z)`; references follow preferential attachment
//! biased toward topically similar papers. The researcher influence graph
//! has an edge `u → v` whenever `v` cited `u` ("we regard a v's paper citing
//! a u's paper as an item propagated from u to v", §II-B).

use super::words::{themed_vocabulary, ACADEMIC_TOPICS};
use super::{plant_edge_probs, sample_item_keywords, simulate_item_cascade, SyntheticNetwork};
use crate::actions::ActionLog;
use crate::dist::{dirichlet, zipf_weights, Categorical};
use octopus_graph::{GraphBuilder, NodeId};
use octopus_topics::{TopicDistribution, TopicModel, Vocabulary};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration for the citation-network generator.
#[derive(Debug, Clone)]
pub struct CitationConfig {
    /// Number of researchers.
    pub authors: usize,
    /// Number of papers (items in the action log).
    pub papers: usize,
    /// Number of topics `Z`.
    pub num_topics: usize,
    /// Vocabulary size per topic.
    pub words_per_topic: usize,
    /// Min/max title keywords per paper.
    pub keywords_per_paper: (usize, usize),
    /// Min/max references per paper.
    pub refs_per_paper: (usize, usize),
    /// Dirichlet concentration of author interests (`< 1` → focused).
    pub author_focus_alpha: f64,
    /// How tightly a paper's topic mixture tracks its author's interests.
    pub item_concentration: f64,
    /// Maximum topics with mass on one edge.
    pub max_edge_topics: usize,
    /// Cap on any single `pp^z_{u,v}`.
    pub edge_prob_cap: f64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl Default for CitationConfig {
    fn default() -> Self {
        CitationConfig {
            authors: 1500,
            papers: 3000,
            num_topics: 8,
            words_per_topic: 24,
            keywords_per_paper: (4, 8),
            refs_per_paper: (2, 8),
            author_focus_alpha: 0.15,
            item_concentration: 25.0,
            max_edge_topics: 2,
            edge_prob_cap: 0.4,
            seed: 0xACAD,
        }
    }
}

const FIRST_NAMES: &[&str] = &[
    "wei", "mei", "jun", "yan", "ana", "ivan", "noor", "emma", "liam", "sofia", "omar", "priya",
    "hana", "kenji", "lucas", "nina", "tariq", "elena", "david", "laura", "mateo", "zoe", "arun",
    "ingrid", "pavel", "amara", "felix", "rosa", "dmitri", "leila",
];
const LAST_NAMES: &[&str] = &[
    "chen",
    "garcia",
    "kim",
    "nguyen",
    "patel",
    "mueller",
    "rossi",
    "tanaka",
    "kowalski",
    "silva",
    "haddad",
    "johansson",
    "okafor",
    "petrov",
    "yamamoto",
    "fernandez",
    "novak",
    "larsen",
    "rao",
    "moreau",
    "santos",
    "weber",
    "ito",
    "dubois",
    "hansen",
    "ali",
    "costa",
    "vasquez",
    "popescu",
    "zhou",
    "lindgren",
    "farouk",
    "oconnor",
    "bauer",
    "sato",
    "ramos",
    "keller",
    "dimitrov",
    "nakamura",
    "fischer",
];

/// Deterministic researcher name for index `i` (unique via numeric suffix
/// when the pool wraps).
fn researcher_name(i: usize) -> String {
    let f = FIRST_NAMES[i % FIRST_NAMES.len()];
    let l = LAST_NAMES[(i / FIRST_NAMES.len()) % LAST_NAMES.len()];
    let wrap = i / (FIRST_NAMES.len() * LAST_NAMES.len());
    if wrap == 0 {
        format!("{f} {l}")
    } else {
        format!("{f} {l} {}", wrap + 1)
    }
}

impl CitationConfig {
    /// Generate the network. Deterministic for a fixed config.
    pub fn generate(&self) -> SyntheticNetwork {
        assert!(self.authors >= 2, "need at least two authors");
        assert!(self.num_topics >= 1);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let z = self.num_topics;

        // 1. Ground-truth topic model over a themed vocabulary.
        let (labels, topic_words) = themed_vocabulary(ACADEMIC_TOPICS, z, self.words_per_topic);
        let mut vocab = Vocabulary::new();
        let mut topic_word_ids: Vec<Vec<usize>> = Vec::with_capacity(z);
        for pool in &topic_words {
            topic_word_ids.push(pool.iter().map(|w| vocab.intern(w).index()).collect());
        }
        let v = vocab.len();
        let mut rows = vec![vec![0.0f64; v]; z];
        for (t, ids) in topic_word_ids.iter().enumerate() {
            // 90% of a topic's mass: Zipf over its own pool; 10%: uniform
            // background over the whole vocabulary (shared-word overlap).
            let zipf = zipf_weights(ids.len(), 1.05);
            for (rank, &w) in ids.iter().enumerate() {
                rows[t][w] += 0.9 * zipf[rank];
            }
            for cell in rows[t].iter_mut() {
                *cell += 0.1 / v as f64;
            }
        }
        let prior = zipf_weights(z, 0.4); // mildly skewed topic popularity
        let model = TopicModel::from_rows(vocab, rows, prior)
            .expect("generator rows are valid")
            .with_labels(labels)
            .expect("label count matches");

        // 2. Researchers: sparse interests + power-law productivity.
        let interests: Vec<Vec<f64>> = (0..self.authors)
            .map(|_| dirichlet(&mut rng, &vec![self.author_focus_alpha; z]))
            .collect();
        let productivity = Categorical::new(&zipf_weights(self.authors, 0.9));

        // 3. Papers with topically-biased preferential-attachment references.
        let mut paper_author: Vec<usize> = Vec::with_capacity(self.papers);
        let mut paper_gamma: Vec<TopicDistribution> = Vec::with_capacity(self.papers);
        let mut paper_cites: Vec<usize> = Vec::with_capacity(self.papers); // times cited
        let mut citation_pairs: HashMap<(u32, u32), u32> = HashMap::new();
        let mut log = ActionLog::new();

        for _ in 0..self.papers {
            let a = productivity.sample(&mut rng);
            let alpha_item: Vec<f64> = interests[a]
                .iter()
                .map(|&f| f * self.item_concentration + 0.02)
                .collect();
            let gamma = TopicDistribution::from_weights(dirichlet(&mut rng, &alpha_item))
                .expect("dirichlet draws are weights");
            let kw_count = rng.random_range(self.keywords_per_paper.0..=self.keywords_per_paper.1);
            let keywords = sample_item_keywords(&mut rng, &model, &gamma, kw_count.max(1));
            let item = log.push_item(NodeId(a as u32), keywords);
            debug_assert_eq!(item.index(), paper_author.len());

            // References to earlier papers: preferential attachment ×
            // topical similarity.
            let prev = paper_author.len();
            if prev > 0 {
                let want = rng
                    .random_range(self.refs_per_paper.0..=self.refs_per_paper.1)
                    .min(prev);
                let weights: Vec<f64> = (0..prev)
                    .map(|j| {
                        let sim: f64 = gamma
                            .iter()
                            .zip(paper_gamma[j].iter())
                            .map(|(x, y)| x * y)
                            .sum();
                        (paper_cites[j] as f64 + 1.0) * (sim + 0.02)
                    })
                    .collect();
                let cat = Categorical::new(&weights);
                let mut refs = Vec::with_capacity(want);
                let mut guard = 0;
                while refs.len() < want && guard < want * 50 {
                    let j = cat.sample(&mut rng);
                    if !refs.contains(&j) {
                        refs.push(j);
                    }
                    guard += 1;
                }
                for j in refs {
                    paper_cites[j] += 1;
                    let cited_author = paper_author[j] as u32;
                    let citing_author = a as u32;
                    if cited_author != citing_author {
                        *citation_pairs
                            .entry((cited_author, citing_author))
                            .or_insert(0) += 1;
                    }
                }
            }
            paper_author.push(a);
            paper_gamma.push(gamma);
            paper_cites.push(0);
        }

        // 4. Influence graph: cited → citing, WC-calibrated sparse topic probs.
        let mut in_deg: Vec<usize> = vec![0; self.authors];
        for &(_, v_) in citation_pairs.keys() {
            in_deg[v_ as usize] += 1;
        }
        let mut b = GraphBuilder::new(z).with_capacity(self.authors, citation_pairs.len());
        for i in 0..self.authors {
            b.add_node(researcher_name(i));
        }
        let mut pairs: Vec<(&(u32, u32), &u32)> = citation_pairs.iter().collect();
        pairs.sort(); // determinism independent of HashMap order
        for (&(u, v_), &count) in pairs {
            let mut probs = plant_edge_probs(
                &mut rng,
                &interests[u as usize],
                &interests[v_ as usize],
                in_deg[v_ as usize],
                self.max_edge_topics,
                self.edge_prob_cap,
            );
            // repeated citation strengthens the tie (log-saturating boost)
            let boost = 1.0 + (count as f64).ln() / 2.0;
            for (_, p) in probs.iter_mut() {
                *p = (*p * boost).min(self.edge_prob_cap);
            }
            b.add_edge(NodeId(u), NodeId(v_), &probs)
                .expect("generator edges valid");
        }
        let graph = b.build().expect("generator graph valid");

        // 5. Action log trials: simulate the TIC model per paper.
        let mut visited = vec![false; graph.node_count()];
        for item in 0..log.item_count() {
            let origin = NodeId(paper_author[item] as u32);
            let gamma = paper_gamma[item].clone();
            simulate_item_cascade(
                &mut rng,
                &graph,
                &gamma,
                origin,
                crate::actions::ItemId(item as u32),
                &mut log,
                &mut visited,
            );
        }

        SyntheticNetwork { graph, model, log }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_graph::stats::GraphStats;

    fn tiny() -> CitationConfig {
        CitationConfig {
            authors: 60,
            papers: 150,
            num_topics: 4,
            words_per_topic: 12,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny().generate();
        let b = tiny().generate();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.log.trial_count(), b.log.trial_count());
    }

    #[test]
    fn graph_shape_is_sane() {
        let net = tiny().generate();
        let s = GraphStats::compute(&net.graph);
        assert_eq!(s.nodes, 60);
        assert!(s.edges > 60, "citation graph too sparse: {} edges", s.edges);
        assert!(s.topics == 4);
        assert!(s.avg_edge_nnz <= 2.0 + 1e-9, "edges must be topic-sparse");
        assert!(s.avg_max_prob <= 0.4 + 1e-6);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let net = tiny().generate();
        let mut names: Vec<String> = net.graph.names().to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 60);
        let n0 = researcher_name(0);
        assert_eq!(net.graph.node_by_name(&n0), Some(NodeId(0)));
    }

    #[test]
    fn action_log_has_items_and_trials() {
        let net = tiny().generate();
        assert_eq!(net.log.item_count(), 150);
        assert!(net.log.trial_count() > 0, "cascades must produce trials");
        let rate = net.log.activation_rate();
        assert!(
            rate > 0.0 && rate < 1.0,
            "activation rate {rate} should be interior"
        );
    }

    #[test]
    fn paper_keywords_align_with_topics() {
        let net = tiny().generate();
        // items exist and have keywords within vocab
        for item in net.log.items().iter().take(20) {
            assert!(!item.keywords.is_empty());
            for &w in &item.keywords {
                assert!(net.model.vocab().word(w).is_ok());
            }
        }
    }

    #[test]
    fn keyword_query_resolves_on_ground_truth_model() {
        let net = tiny().generate();
        let gamma = net.infer("data mining").unwrap();
        // "data mining" belongs to the databases theme = topic 0
        assert_eq!(gamma.dominant_topic(), 0);
    }

    #[test]
    fn wrapped_names_stay_unique() {
        assert_ne!(
            researcher_name(0),
            researcher_name(FIRST_NAMES.len() * LAST_NAMES.len())
        );
    }
}
