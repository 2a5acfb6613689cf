//! Correctness: every answer the benchmark accepts is compared with what
//! a fresh whole-graph engine ([`octopus_core::engine::Octopus::new`] —
//! no cache directory, no reuse, no shards) returns for the same query on
//! the same graph.
//!
//! The comparison is bit for bit — floats enter as IEEE bit patterns —
//! over everything an answer *says*: seeds with names and ranks, resolved
//! keywords, the induced γ, suggested words and their radar, the whole
//! path tree as its d3 document, completions with scores. It leaves out
//! what an answer says about *itself* (elapsed time, work counters, the
//! answered-from-cache flag). Sharding is allowed two differences, the ones
//! `crates/core/tests/serve_shard.rs` allows: a sharded find-influencers
//! spread is a sum of per-shard spreads, equal to the whole-graph spread
//! only to rounding, and is compared at 1e-9 relative; a sharded
//! suggest-keywords spread is the owner shard's own estimate, scaled by
//! that shard's node count, and is not compared (the suggested words, their
//! γ, consistency and radar are).

use octopus_core::engine::Octopus;
use octopus_core::serve::{Query, QueryResponse, QueryService, ShardedService};
use octopus_core::{QueryBudget, Result};
use std::fmt::Write as _;

/// What one answer says, reduced to a comparable string plus the one
/// float sharding is allowed to change (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    text: String,
    spread: f64,
    /// The spread is a shard-local estimate (suggest-keywords).
    local_spread: bool,
}

pub fn signature(response: &QueryResponse) -> Signature {
    let mut text = String::new();
    let mut spread = 0.0;
    let mut local_spread = false;
    match response {
        QueryResponse::Influencers(a) => {
            let a = &a.value;
            spread = a.result.spread;
            let _ = write!(text, "kim:{:?}:{:?}:", a.keywords, a.unknown);
            for v in a.gamma.as_slice() {
                let _ = write!(text, "{:016x},", v.to_bits());
            }
            for s in &a.seeds {
                let _ = write!(text, "{}:{}:{};", s.node.0, s.name, s.rank);
            }
            let _ = write!(text, "{:?}", a.result.seeds);
        }
        QueryResponse::Suggestions(a) => {
            let a = &a.value;
            (spread, local_spread) = (a.result.spread, true);
            let _ = write!(
                text,
                "piks:{}:{}:{}:{:016x}:",
                a.user.0,
                a.user_name,
                a.words.join("|"),
                a.result.consistency.to_bits()
            );
            for v in a.result.gamma.as_slice().iter().chain(&a.radar.values) {
                let _ = write!(text, "{:016x},", v.to_bits());
            }
        }
        QueryResponse::Paths(a) => {
            let a = &a.value;
            let _ = write!(
                text,
                "mia:{}:{}:{}:{:016x}:{}:{}",
                a.root.0,
                a.root_name,
                a.reached,
                a.influence.to_bits(),
                a.top_paths.len(),
                a.d3_json
            );
            for c in &a.clusters {
                let _ = write!(text, ";{}:{}:{:016x}", c.head.0, c.size, c.mass.to_bits());
            }
        }
        QueryResponse::Completions(a) => {
            text.push_str("trie:");
            for (node, name, score) in &a.value {
                let _ = write!(text, "{}:{}:{:016x},", node.0, name, score.to_bits());
            }
        }
        QueryResponse::Radar(a) => {
            let _ = write!(text, "radar:{}:", a.value.axes.join("|"));
            for v in &a.value.values {
                let _ = write!(text, "{:016x},", v.to_bits());
            }
        }
    }
    Signature {
        text,
        spread,
        local_spread,
    }
}

impl Signature {
    /// Bit-for-bit equality; with `sharded`, the two allowances of the
    /// module docs apply to the spread.
    pub fn matches(&self, oracle: &Signature, sharded: bool) -> bool {
        let spread_ok = match (sharded, self.local_spread) {
            (false, _) => self.spread.to_bits() == oracle.spread.to_bits(),
            (true, true) => true,
            (true, false) => {
                (self.spread - oracle.spread).abs() <= 1e-9 * oracle.spread.abs().max(1.0)
            }
        };
        self.text == oracle.text && spread_ok
    }
}

/// What answers are held against. Unsharded, everything is compared with
/// the fresh whole-graph engine. Sharded, suggest-keywords is the one
/// operator whose *answer* (not just its spread) is shard-local — each
/// shard samples its own PIKS worlds over its own subgraph — so it is
/// compared with a second, freshly built router instead, and everything
/// else still with the whole-graph engine.
pub struct Oracle<'a> {
    pub whole: &'a Octopus,
    pub router: Option<&'a ShardedService>,
}

impl Oracle<'_> {
    pub fn sharded(&self) -> bool {
        self.router.is_some()
    }

    pub fn answer(&self, query: &Query) -> Result<Signature> {
        let budget = QueryBudget::unlimited();
        match (self.router, query) {
            (Some(router), Query::SuggestKeywords { .. }) => {
                QueryService::execute(router, query, &budget).map(|s| signature(&s.value))
            }
            _ => self.whole.execute(query, &budget).map(|r| signature(&r)),
        }
    }
}

/// Issue each query on `service` (its current epoch) and on the oracle;
/// returns `(compared, mismatched)` and reports each mismatch on stderr.
pub fn compare<'q>(
    service: &dyn QueryService,
    oracle: &Oracle<'_>,
    queries: impl IntoIterator<Item = &'q Query>,
) -> (u64, u64) {
    let budget = QueryBudget::unlimited();
    let (mut compared, mut mismatched) = (0, 0);
    for query in queries {
        compared += 1;
        let served = service.execute(query, &budget).map(|s| signature(&s.value));
        let wanted = oracle.answer(query);
        let ok = match (&served, &wanted) {
            (Ok(s), Ok(w)) => s.matches(w, oracle.sharded()),
            _ => false,
        };
        if !ok {
            mismatched += 1;
            eprintln!("oracle mismatch on {query:?}:\n  served {served:?}\n  oracle {wanted:?}");
        }
    }
    (compared, mismatched)
}
