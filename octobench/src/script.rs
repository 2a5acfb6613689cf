//! The seeded script generator. `--seed` decides every query, Zipf draw
//! and nudge pick; the engine only ever sees what is generated here.
//!
//! Scripts are *stratified*, not drawn independently: find-influencers
//! costs 5 ms at k = 1 and 150 ms at k = 8, and varies 3x with the query's
//! dominant topic, so an independent draw would make two seeds measure two
//! different latency distributions. Every block of [`BLOCK`] queries
//! therefore carries the operator mix exactly (8 find, 4 suggest, 3
//! explore, 3 autocomplete, 2 radar), every block's finds use each k in
//! 1..=8 once, and over eight blocks every (k, topic) pair occurs once. A
//! seed still chooses the words, the users, the order — the inputs — but
//! not the shape of the load.

use octopus_bench::workloads::prolific_users;
use octopus_core::paths::ExploreDirection;
use octopus_core::serve::Query;
use octopus_data::SyntheticNetwork;
use octopus_graph::EdgeId;
use octopus_topics::TopicModel;

/// splitmix64 — small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    /// An independent stream for one purpose (`tag`) under the same seed.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut r = Rng64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// The material queries are made of, read off the generated network.
#[derive(Debug, Clone)]
pub struct Pools {
    /// Vocabulary words grouped by the topic that dominates them.
    pub words_by_topic: Vec<Vec<String>>,
    /// Every vocabulary word.
    pub words: Vec<String>,
    /// Names of the most prolific users (suggestion and path roots).
    pub users: Vec<String>,
    /// Two-character stems of those names.
    pub prefixes: Vec<String>,
}

impl Pools {
    pub fn new(net: &SyntheticNetwork, model: &TopicModel, user_pool: usize) -> Pools {
        let words: Vec<String> = model.vocab().iter().map(|(_, w)| w.to_string()).collect();
        let mut words_by_topic = vec![Vec::new(); model.num_topics()];
        for (id, word) in model.vocab().iter() {
            let dominant = model
                .keyword_topics(id)
                .ok()
                .and_then(|gamma| {
                    let g = gamma.as_slice();
                    (0..g.len()).max_by(|&a, &b| g[a].total_cmp(&g[b]))
                })
                .unwrap_or(0);
            words_by_topic[dominant].push(word.to_string());
        }
        for bucket in &mut words_by_topic {
            if bucket.is_empty() {
                // a learned model may leave a topic without a dominant word
                *bucket = words.clone();
            }
        }
        let users: Vec<String> = prolific_users(net, user_pool)
            .into_iter()
            .filter_map(|u| net.graph.name(u).map(str::to_string))
            .collect();
        let prefixes = users.iter().map(|n| n.chars().take(2).collect()).collect();
        Pools {
            words_by_topic,
            words,
            users,
            prefixes,
        }
    }

    /// Up to `n` distinct words of one topic.
    fn phrase(&self, rng: &mut Rng64, topic: usize, n: usize) -> String {
        let bucket = &self.words_by_topic[topic % self.words_by_topic.len()];
        let mut picked: Vec<&str> = Vec::with_capacity(n);
        while picked.len() < n.min(bucket.len()) {
            let w = bucket[rng.below(bucket.len())].as_str();
            if !picked.contains(&w) {
                picked.push(w);
            }
        }
        picked.join(" ")
    }
}

/// Queries per stratification block.
pub const BLOCK: usize = 20;
/// Operator indices in [`octopus_core::serve::Operator::ALL`] order.
pub const FIND: usize = 0;
pub const SUGGEST: usize = 1;
pub const EXPLORE: usize = 2;
pub const AUTOCOMPLETE: usize = 3;
pub const RADAR: usize = 4;
/// How many of each operator a block holds — the 40/20/15/15/10 mix.
pub const PER_BLOCK: [usize; 5] = [8, 4, 3, 3, 2];

/// A deterministic query sequence: `order[i]` indexes into `queries`.
/// The uniform script lists every query once; the Zipf script draws from
/// a small pool over and over.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub queries: Vec<Query>,
    pub order: Vec<u32>,
}

impl Script {
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The `i`-th query; a run that outlasts the script wraps around.
    pub fn get(&self, i: usize) -> &Query {
        &self.queries[self.order[i % self.order.len()] as usize]
    }
}

/// A find-influencers query of 1–3 keywords. The cost of the kernel is set
/// by `k` and by where γ lies, so the *shape* of the query is part of the
/// stratum, not of the draw: `mixed` queries take one word from `topic` and
/// one from the topic three further on (a two-topic γ), the others take all
/// their words from `topic` (γ near a corner). The seed picks the words.
pub fn find(pools: &Pools, rng: &mut Rng64, topic: usize, k: usize, mixed: bool) -> Query {
    let query = if mixed {
        let (a, b) = (pools.phrase(rng, topic, 1), pools.phrase(rng, topic + 3, 1));
        format!("{a} {b}")
    } else {
        let n_words = 1 + rng.below(3);
        pools.phrase(rng, topic, n_words)
    };
    Query::FindInfluencers { query, k }
}

fn explore(pools: &Pools, rng: &mut Rng64, user: &str) -> Query {
    Query::ExplorePaths {
        user: user.to_string(),
        direction: ExploreDirection::Influences,
        query: Some(pools.words[rng.below(pools.words.len())].clone()),
    }
}

/// 1–3-word keyword queries drawn over the whole vocabulary, so nearly
/// every find-influencers `(γ, k)` is new to the 128-entry query cache.
pub fn uniform_script(seed: u64, pools: &Pools, len: usize) -> Script {
    let mut rng = Rng64::stream(seed, 0x005C_2197);
    let topics = pools.words_by_topic.len();
    let suggest_users = rng.permutation(pools.users.len());
    let explore_users = rng.permutation(pools.users.len());
    let prefixes = rng.permutation(pools.prefixes.len());
    let mut queries = Vec::with_capacity(len + BLOCK);
    let (mut s, mut e, mut a) = (0usize, 0usize, 0usize);
    for block in 0..len.div_ceil(BLOCK) {
        let mut chunk = Vec::with_capacity(BLOCK);
        for k0 in rng.permutation(PER_BLOCK[FIND]) {
            // every (k, topic) pair once per eight blocks, a quarter mixed
            let mixed = (block + k0) % 4 == 0;
            chunk.push(find(pools, &mut rng, (k0 + block) % topics, k0 + 1, mixed));
        }
        for _ in 0..PER_BLOCK[SUGGEST] {
            chunk.push(Query::SuggestKeywords {
                user: pools.users[suggest_users[s % suggest_users.len()]].clone(),
                k: 2,
            });
            s += 1;
        }
        for _ in 0..PER_BLOCK[EXPLORE] {
            let user = &pools.users[explore_users[e % explore_users.len()]];
            chunk.push(explore(pools, &mut rng, user));
            e += 1;
        }
        for _ in 0..PER_BLOCK[AUTOCOMPLETE] {
            chunk.push(Query::Autocomplete {
                prefix: pools.prefixes[prefixes[a % prefixes.len()]].clone(),
                limit: 10,
            });
            a += 1;
        }
        for _ in 0..PER_BLOCK[RADAR] {
            chunk.push(Query::KeywordRadar {
                word: pools.words[rng.below(pools.words.len())].clone(),
            });
        }
        rng.shuffle(&mut chunk);
        queries.extend(chunk);
    }
    queries.truncate(len);
    Script {
        order: (0..queries.len() as u32).collect(),
        queries,
    }
}

/// Pool entries per operator in the hot-set script (32 in all): few enough
/// find-influencers entries that two thirds of a period's finds are cache
/// hits, and enough of the uncached operators that their hottest entry is
/// not the whole traffic.
pub const POOL_SPLIT: [usize; 5] = [8, 8, 6, 6, 4];

/// Split `slots` (at least `entries`) among `entries` ranks in proportion
/// to `rank^-exponent`, every rank getting at least one: round down, then
/// hand the slots left over to the ranks furthest below their share.
fn zipf_quotas(entries: usize, slots: usize, exponent: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=entries).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| slots as f64 * w / total).collect();
    let mut quotas: Vec<usize> = shares.iter().map(|s| (s.floor() as usize).max(1)).collect();
    while quotas.iter().sum::<usize>() < slots {
        let short = |r: &usize| shares[*r] - quotas[*r] as f64;
        let rank = (0..entries)
            .max_by(|a, b| short(a).total_cmp(&short(b)).then(b.cmp(a)))
            .expect("a pool has entries");
        quotas[rank] += 1;
    }
    // the floor of one can overshoot a short period: take back from the
    // ranks furthest above their share
    while quotas.iter().sum::<usize>() > slots {
        let over = |r: &usize| quotas[*r] as f64 - shares[*r];
        let Some(rank) = (0..entries)
            .filter(|&r| quotas[r] > 1)
            .max_by(|a, b| over(a).total_cmp(&over(b)))
        else {
            break;
        };
        quotas[rank] -= 1;
    }
    quotas
}

/// Seed of the hot-set pool's own words and users. The pool is part of the
/// workload's definition, like the graph: with a pool drawn from `--seed`
/// the *identity* of the hot entries — is the most popular suggestion for a
/// user with 4 candidate keywords or with 40? — would decide the medians,
/// and two seeds would measure two workloads.
const POOL_SEED: u64 = 0x9001;

/// `k` of every find-influencers entry of the pool (the middle of 1..=8).
/// With `k` by rank the pool's find latencies form a staircase — one step
/// per `k`, a cache hit costing what re-scoring `k` seed prefixes costs —
/// and Zipf(1.1) puts the median on the edge between two steps a quarter
/// apart, where queue wait tips it either way. One `k` leaves one broad
/// step of cache hits (two thirds of the finds) with the misses above it,
/// and the median well inside it.
pub const POOL_K: usize = 4;

/// A hot-set script over a fixed 32-query pool, built one *period* of
/// `period_len` queries at a time (the open-loop client sends one period
/// per flush period, so every epoch sees the same traffic).
///
/// Popularity is Zipf(`exponent`) *within* each operator, and it is met by
/// quota, not by drawing: a period holds the operator mix exactly, and
/// within an operator rank `r` appears in proportion to `r^-exponent`, at
/// least once. One Zipf draw over the whole pool would let the seed decide
/// whether the hottest query is a 30 ms find or a 1 µs radar, and whether
/// the expensive find entries show up in an epoch at all — the work needed
/// to re-fill the query cache after a swap would differ from seed to seed
/// and from epoch to epoch. With quotas every period touches every entry
/// and every find entry asks for the same `k` ([`POOL_K`]); `seed` decides
/// the order within each period (and, elsewhere, the nudges that swap
/// epochs).
pub fn zipf_script(
    seed: u64,
    pools: &Pools,
    exponent: f64,
    period_len: usize,
    len: usize,
) -> Script {
    let mut pool_rng = Rng64::new(POOL_SEED);
    let topics = pools.words_by_topic.len();
    let mut queries = Vec::with_capacity(POOL_SPLIT.iter().sum());
    let mut period: Vec<u32> = Vec::with_capacity(period_len);
    for (op, &entries) in POOL_SPLIT.iter().enumerate() {
        let slots = period_len * PER_BLOCK[op] / BLOCK;
        for (rank, quota) in zipf_quotas(entries, slots, exponent)
            .into_iter()
            .enumerate()
        {
            period.extend(std::iter::repeat_n(queries.len() as u32, quota));
            // explore walks the user pool from its head (the most prolific
            // users), suggest from its tail
            let user = match op {
                EXPLORE => &pools.users[rank % pools.users.len()],
                _ => &pools.users[pools.users.len() - 1 - rank % pools.users.len()],
            };
            queries.push(match op {
                FIND => find(pools, &mut pool_rng, rank % topics, POOL_K, rank % 4 == 3),
                SUGGEST => Query::SuggestKeywords {
                    user: user.clone(),
                    k: 2,
                },
                EXPLORE => explore(pools, &mut pool_rng, user),
                AUTOCOMPLETE => Query::Autocomplete {
                    prefix: pools.prefixes[rank % pools.prefixes.len()].clone(),
                    limit: 10,
                },
                _ => Query::KeywordRadar {
                    word: pools.words[pool_rng.below(pools.words.len())].clone(),
                },
            });
        }
    }
    let mut rng = Rng64::stream(seed, 0x0021_FF00);
    let mut order = Vec::with_capacity(len + period.len());
    while order.len() < len {
        rng.shuffle(&mut period);
        order.extend_from_slice(&period);
    }
    order.truncate(len);
    Script { queries, order }
}

/// `n` distinct edges of a graph with `edge_count` edges, the `i`-th from
/// the `i`-th of `n` equal slices of the edge range. A flush's nudges thus
/// always land in every copy of a multi-copy graph — a routed flush
/// rebuilds the same number of shards whatever the seed.
pub fn pick_edges(rng: &mut Rng64, edge_count: usize, n: usize) -> Vec<EdgeId> {
    let n = n.min(edge_count);
    (0..n)
        .map(|i| {
            let (lo, hi) = (i * edge_count / n, (i + 1) * edge_count / n);
            EdgeId((lo + rng.below(hi - lo)) as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_bench::workloads::citation_sized;
    use octopus_core::engine::OctopusConfig;
    use std::collections::BTreeSet;

    fn pools() -> (SyntheticNetwork, Pools) {
        let net = citation_sized(150, 400);
        let pools = Pools::new(&net, &net.model, 32);
        (net, pools)
    }

    #[test]
    fn one_seed_one_script_two_seeds_two_scripts() {
        let (_, pools) = pools();
        for make in [
            (|seed, p: &Pools| uniform_script(seed, p, 400)) as fn(u64, &Pools) -> Script,
            |seed, p: &Pools| zipf_script(seed, p, 1.1, 60, 400),
        ] {
            let a = format!("{:?}", make(7, &pools));
            assert_eq!(a, format!("{:?}", make(7, &pools)), "byte-identical twice");
            assert_ne!(a, format!("{:?}", make(8, &pools)), "another seed differs");
        }
        assert_eq!(
            pick_edges(&mut Rng64::stream(7, 1), 900, 8),
            pick_edges(&mut Rng64::stream(7, 1), 900, 8)
        );
    }

    #[test]
    fn every_block_carries_the_exact_mix() {
        let (_, pools) = pools();
        let script = uniform_script(3, &pools, 200);
        for block in 0..script.len() / BLOCK {
            let mut seen = [0usize; 5];
            let mut ks = BTreeSet::new();
            for i in block * BLOCK..(block + 1) * BLOCK {
                let q = script.get(i);
                seen[q.operator().index()] += 1;
                if let Query::FindInfluencers { k, .. } = q {
                    ks.insert(*k);
                }
            }
            assert_eq!(seen, PER_BLOCK);
            assert_eq!(ks.len(), 8, "finds use every k once per block");
        }
    }

    #[test]
    fn every_zipf_period_touches_every_pool_entry_by_quota() {
        let (_, pools) = pools();
        assert_eq!(zipf_quotas(8, 24, 1.1), [10, 4, 3, 2, 2, 1, 1, 1]);
        assert_eq!(zipf_quotas(4, 4, 1.1), [1, 1, 1, 1]);
        let script = zipf_script(3, &pools, 1.1, 60, 240);
        assert_eq!(script.queries.len(), 32);
        let count = |period: usize, entry: usize| {
            (period * 60..(period + 1) * 60)
                .filter(|&i| script.order[i] as usize == entry)
                .count()
        };
        for period in 0..4 {
            let mut seen = [0usize; 5];
            for (entry, q) in script.queries.iter().enumerate() {
                let n = count(period, entry);
                assert!(n >= 1, "period {period} misses entry {entry}");
                assert_eq!(n, count(0, entry), "the same quotas every period");
                seen[q.operator().index()] += n;
            }
            assert_eq!(seen, PER_BLOCK.map(|n| 3 * n), "three blocks' worth of mix");
        }
        // every find asks for the same k; the hottest is ten times the coldest
        for q in &script.queries[..POOL_SPLIT[FIND]] {
            assert!(matches!(q, Query::FindInfluencers { k: POOL_K, .. }));
        }
        assert_eq!(count(0, 0), 10);
    }

    #[test]
    fn uniform_pool_dwarfs_the_query_cache() {
        let (net, pools) = pools();
        let script = uniform_script(crate::spec::DEFAULT_SEED, &pools, 8192);
        let mut distinct = BTreeSet::new();
        for q in &script.queries {
            if let Query::FindInfluencers { query, k } = q {
                let gamma = net.model.infer_str(query).expect("generated words resolve");
                let bits: Vec<u64> = gamma.as_slice().iter().map(|v| v.to_bits()).collect();
                distinct.insert((bits, *k));
            }
        }
        let capacity = OctopusConfig::default().cache_capacity;
        assert!(
            distinct.len() > 20 * capacity,
            "{} distinct (γ, k) against a {capacity}-entry cache",
            distinct.len()
        );
    }
}
