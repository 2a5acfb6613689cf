//! QQ-like messenger network generator (the paper's second demo dataset —
//! "the social graph consists of QQ users and their friendship. We focus on
//! the users' actions related to e-commerce products").
//!
//! Friendships grow by preferential attachment with configurable
//! reciprocity; users carry sparse product-category interests; the action
//! log contains product-URL posts ("user u posts an URL of iPhone X, and her
//! friend v forwards this URL") propagated by simulated TIC cascades.

use super::words::{themed_vocabulary, PRODUCT_TOPICS};
use super::{plant_edge_probs, sample_item_keywords, simulate_item_cascade, SyntheticNetwork};
use crate::actions::ActionLog;
use crate::dist::{dirichlet, zipf_weights, Categorical};
use octopus_graph::{GraphBuilder, NodeId};
use octopus_topics::{TopicDistribution, TopicModel, Vocabulary};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for the messenger-network generator.
#[derive(Debug, Clone)]
pub struct MessengerConfig {
    /// Number of users.
    pub users: usize,
    /// New friendship edges per arriving user (preferential attachment).
    pub links_per_user: usize,
    /// Probability a friendship is reciprocal (both directions influence).
    pub reciprocity: f64,
    /// Number of topics (product categories).
    pub num_topics: usize,
    /// Vocabulary size per topic.
    pub words_per_topic: usize,
    /// Number of product posts (items).
    pub items: usize,
    /// Min/max keywords per item.
    pub keywords_per_item: (usize, usize),
    /// Dirichlet concentration of user interests.
    pub interest_alpha: f64,
    /// Maximum topics with mass on one edge.
    pub max_edge_topics: usize,
    /// Cap on any single `pp^z_{u,v}`.
    pub edge_prob_cap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MessengerConfig {
    fn default() -> Self {
        MessengerConfig {
            users: 3000,
            links_per_user: 4,
            reciprocity: 0.6,
            num_topics: 5,
            words_per_topic: 16,
            items: 2000,
            keywords_per_item: (1, 3),
            interest_alpha: 0.2,
            max_edge_topics: 2,
            edge_prob_cap: 0.5,
            seed: 0x9199,
        }
    }
}

const HANDLE_ADJ: &[&str] = &[
    "sunny", "swift", "lucky", "silver", "cosmic", "mellow", "neon", "breezy", "crimson", "jade",
    "amber", "frosty", "velvet", "electric", "quiet", "wild",
];
const HANDLE_NOUN: &[&str] = &[
    "otter", "falcon", "panda", "lynx", "koi", "sparrow", "tiger", "fox", "crane", "dolphin",
    "badger", "raven", "gecko", "wolf", "heron", "moth",
];

/// Deterministic user handle for index `i`.
fn user_handle(i: usize) -> String {
    let a = HANDLE_ADJ[i % HANDLE_ADJ.len()];
    let n = HANDLE_NOUN[(i / HANDLE_ADJ.len()) % HANDLE_NOUN.len()];
    format!("{a}_{n}_{i:05}")
}

impl MessengerConfig {
    /// Generate the network. Deterministic for a fixed config.
    pub fn generate(&self) -> SyntheticNetwork {
        assert!(self.users >= 2, "need at least two users");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let z = self.num_topics;

        // Ground-truth product/topic model.
        let (labels, topic_words) = themed_vocabulary(PRODUCT_TOPICS, z, self.words_per_topic);
        let mut vocab = Vocabulary::new();
        let mut topic_word_ids: Vec<Vec<usize>> = Vec::with_capacity(z);
        for pool in &topic_words {
            topic_word_ids.push(pool.iter().map(|w| vocab.intern(w).index()).collect());
        }
        let v = vocab.len();
        let mut rows = vec![vec![0.0f64; v]; z];
        for (t, ids) in topic_word_ids.iter().enumerate() {
            let zipf = zipf_weights(ids.len(), 0.9);
            for (rank, &w) in ids.iter().enumerate() {
                rows[t][w] += 0.92 * zipf[rank];
            }
            for cell in rows[t].iter_mut() {
                *cell += 0.08 / v as f64;
            }
        }
        let prior = zipf_weights(z, 0.3);
        let model = TopicModel::from_rows(vocab, rows, prior)
            .expect("generator rows are valid")
            .with_labels(labels)
            .expect("label count matches");

        // User interests.
        let interests: Vec<Vec<f64>> = (0..self.users)
            .map(|_| dirichlet(&mut rng, &vec![self.interest_alpha; z]))
            .collect();

        // Preferential-attachment friendships.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut degree: Vec<f64> = vec![1.0; self.users]; // +1 smoothing
        for u in 1..self.users {
            let m = self.links_per_user.min(u);
            let cat = Categorical::new(&degree[..u]);
            let mut targets = Vec::with_capacity(m);
            let mut guard = 0;
            while targets.len() < m && guard < m * 60 {
                let t = cat.sample(&mut rng);
                if t != u && !targets.contains(&t) {
                    targets.push(t);
                }
                guard += 1;
            }
            for t in targets {
                edges.push((u as u32, t as u32));
                degree[u] += 1.0;
                degree[t] += 1.0;
                if rng.random::<f64>() < self.reciprocity {
                    edges.push((t as u32, u as u32));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();

        let mut in_deg = vec![0usize; self.users];
        for &(_, t) in &edges {
            in_deg[t as usize] += 1;
        }
        let mut b = GraphBuilder::new(z).with_capacity(self.users, edges.len());
        for i in 0..self.users {
            b.add_node(user_handle(i));
        }
        for &(u, t) in &edges {
            let probs = plant_edge_probs(
                &mut rng,
                &interests[u as usize],
                &interests[t as usize],
                in_deg[t as usize],
                self.max_edge_topics,
                self.edge_prob_cap,
            );
            b.add_edge(NodeId(u), NodeId(t), &probs)
                .expect("generator edges valid");
        }
        let graph = b.build().expect("generator graph valid");

        // Product posts: heavy users post more; item topics track poster
        // interests loosely (people also share trending off-interest items).
        let poster = Categorical::new(&degree);
        let mut log = ActionLog::new();
        let mut visited = vec![false; graph.node_count()];
        for _ in 0..self.items {
            let u = poster.sample(&mut rng);
            let mut alpha: Vec<f64> = interests[u].iter().map(|&f| f * 8.0 + 0.05).collect();
            if rng.random::<f64>() < 0.15 {
                // trending item: off-profile topic
                alpha = vec![0.3; z];
            }
            let gamma = TopicDistribution::from_weights(dirichlet(&mut rng, &alpha))
                .expect("dirichlet draws are weights");
            let kw_count = rng.random_range(self.keywords_per_item.0..=self.keywords_per_item.1);
            let keywords = sample_item_keywords(&mut rng, &model, &gamma, kw_count.max(1));
            let item = log.push_item(NodeId(u as u32), keywords);
            simulate_item_cascade(
                &mut rng,
                &graph,
                &gamma,
                NodeId(u as u32),
                item,
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
    use octopus_graph::stats::{degree_histogram, GraphStats};

    fn tiny() -> MessengerConfig {
        MessengerConfig {
            users: 80,
            links_per_user: 3,
            items: 120,
            num_topics: 3,
            words_per_topic: 8,
            seed: 11,
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
    fn graph_is_power_law_ish() {
        let net = MessengerConfig {
            users: 600,
            ..tiny()
        }
        .generate();
        let s = GraphStats::compute(&net.graph);
        assert_eq!(s.nodes, 600);
        assert!(
            s.max_out_degree > 3 * s.avg_out_degree as usize,
            "needs hubs"
        );
        let hist = degree_histogram(&net.graph);
        assert!(hist.len() >= 3, "degree spectrum too narrow: {hist:?}");
    }

    #[test]
    fn reciprocity_creates_back_edges() {
        let net = tiny().generate();
        let g = &net.graph;
        let mut reciprocal = 0usize;
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e).unwrap();
            if g.find_edge(v, u).is_some() {
                reciprocal += 1;
            }
        }
        assert!(
            reciprocal as f64 / g.edge_count() as f64 > 0.3,
            "reciprocal fraction too low: {reciprocal}/{}",
            g.edge_count()
        );
    }

    #[test]
    fn items_have_product_keywords() {
        let net = tiny().generate();
        assert_eq!(net.log.item_count(), 120);
        let kw = net.model.vocab().get("gum");
        assert!(kw.is_some(), "food stems must be interned");
    }

    #[test]
    fn game_query_maps_to_games_topic() {
        let net = tiny().generate();
        let gamma = net.infer("game").unwrap();
        assert_eq!(
            gamma.dominant_topic(),
            0,
            "'game' belongs to the games theme"
        );
    }

    #[test]
    fn handles_unique() {
        let net = tiny().generate();
        let mut names = net.graph.names().to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 80);
    }
}
