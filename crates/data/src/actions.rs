//! The action-log data model (§II-A "a set of social actions (UGC) from the
//! users, such as reply/retweet in Twitter and citing actions in an academic
//! social network").
//!
//! An [`ActionLog`] records, per propagated *item* (a paper, an ad, a product
//! URL), the keywords describing it and the *trials* observed on edges: a
//! trial `(u → v, activated)` means `u` was active on the item and `v` was
//! exposed — `activated` tells whether the influence attempt succeeded
//! (v cited/forwarded) or not. Trials are exactly the sufficient statistics
//! the TIC EM learner consumes.

use octopus_graph::NodeId;
use octopus_topics::KeywordId;
use serde::{Deserialize, Serialize};

/// Identifier of an item in an action log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ItemId(pub u32);

impl ItemId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One propagated item: a paper, ad, or product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Item {
    /// The item id (position in the log).
    pub id: ItemId,
    /// Keywords describing the item (deduplicated, order-irrelevant).
    pub keywords: Vec<KeywordId>,
    /// The user who originated the item (paper author, ad poster).
    pub origin: NodeId,
}

/// One influence trial on an edge for a specific item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trial {
    /// The item being propagated.
    pub item: ItemId,
    /// The already-active source user.
    pub src: NodeId,
    /// The exposed target user.
    pub dst: NodeId,
    /// Whether the target activated (cited / forwarded / bought).
    pub activated: bool,
}

/// A complete action log: items plus edge trials.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionLog {
    items: Vec<Item>,
    trials: Vec<Trial>,
}

impl ActionLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an item; returns its id.
    pub fn push_item(&mut self, origin: NodeId, mut keywords: Vec<KeywordId>) -> ItemId {
        keywords.sort_unstable();
        keywords.dedup();
        let id = ItemId(self.items.len() as u32);
        self.items.push(Item {
            id,
            keywords,
            origin,
        });
        id
    }

    /// Append a trial. `item` must already exist.
    pub fn push_trial(&mut self, item: ItemId, src: NodeId, dst: NodeId, activated: bool) {
        debug_assert!(
            item.index() < self.items.len(),
            "trial references unknown item"
        );
        self.trials.push(Trial {
            item,
            src,
            dst,
            activated,
        });
    }

    /// All items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// All trials, grouped by nothing in particular (use
    /// [`ActionLog::trials_by_item`] for EM).
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Number of trials.
    pub fn trial_count(&self) -> usize {
        self.trials.len()
    }

    /// Trials bucketed per item (index = item id).
    pub fn trials_by_item(&self) -> Vec<Vec<&Trial>> {
        let mut out = vec![Vec::new(); self.items.len()];
        for t in &self.trials {
            out[t.item.index()].push(t);
        }
        out
    }

    /// Distinct `(src, dst)` pairs appearing in trials — the candidate edge
    /// set for the learned graph.
    pub(crate) fn edge_universe(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self.trials.iter().map(|t| (t.src, t.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Fraction of trials that activated (overall action success rate —
    /// a workload statistic reported by the harness).
    pub fn activation_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.activated).count() as f64 / self.trials.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(i: u32) -> KeywordId {
        KeywordId(i)
    }

    #[test]
    fn items_dedup_keywords() {
        let mut log = ActionLog::new();
        let id = log.push_item(NodeId(0), vec![kw(3), kw(1), kw(3)]);
        assert_eq!(log.items()[id.index()].keywords, vec![kw(1), kw(3)]);
    }

    #[test]
    fn trials_grouped_by_item() {
        let mut log = ActionLog::new();
        let a = log.push_item(NodeId(0), vec![kw(0)]);
        let b = log.push_item(NodeId(1), vec![kw(1)]);
        log.push_trial(a, NodeId(0), NodeId(1), true);
        log.push_trial(b, NodeId(1), NodeId(2), false);
        log.push_trial(a, NodeId(1), NodeId(2), true);
        let grouped = log.trials_by_item();
        assert_eq!(grouped[a.index()].len(), 2);
        assert_eq!(grouped[b.index()].len(), 1);
    }

    #[test]
    fn edge_universe_dedups() {
        let mut log = ActionLog::new();
        let a = log.push_item(NodeId(0), vec![kw(0)]);
        log.push_trial(a, NodeId(0), NodeId(1), true);
        log.push_trial(a, NodeId(0), NodeId(1), false);
        log.push_trial(a, NodeId(1), NodeId(0), false);
        assert_eq!(log.edge_universe().len(), 2);
    }

    #[test]
    fn activation_rate() {
        let mut log = ActionLog::new();
        let a = log.push_item(NodeId(0), vec![kw(0)]);
        assert_eq!(log.activation_rate(), 0.0);
        log.push_trial(a, NodeId(0), NodeId(1), true);
        log.push_trial(a, NodeId(0), NodeId(2), false);
        assert_eq!(log.activation_rate(), 0.5);
    }
}
