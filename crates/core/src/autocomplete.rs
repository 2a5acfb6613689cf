//! Name auto-completion (Scenario 2: "she can simply type in the name in
//! OCTOPUS, while assisted by an auto-completion tool").
//!
//! A compressed-enough trie over normalized user names. Each terminal
//! carries the user's id and an importance score (the engine uses
//! out-degree by default, so famous users surface first); completion walks
//! the prefix and collects the best `limit` terminals below it.
//!
//! [`Autocomplete`] is the build form; queries walk its serialized records
//! through the zero-copy [`TrieView`].

use bytes::BufMut;
use octopus_graph::wire::{self, WireError};
use octopus_graph::{NodeId, TopicGraph};
use std::collections::HashMap;

#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<char, TrieNode>,
    /// Terminal payload: (user, score).
    terminal: Option<(NodeId, f64)>,
}

/// Prefix index over user names.
#[derive(Debug, Default)]
pub struct Autocomplete {
    root: TrieNode,
    size: usize,
}

/// Salt of [`Autocomplete::input_key`] (the ASCII bytes `octa:acp`,
/// little-endian): no node id mixes to zero.
const INPUT_KEY_SALT: u64 = u64::from_le_bytes(*b"octa:acp");

fn normalize(s: &str) -> String {
    s.trim().to_lowercase()
}

impl Autocomplete {
    /// Hash of exactly what the engine's autocomplete stage reads from the
    /// graph: each node's display name and **out-degree** (the default
    /// importance score). The wrapping sum, over nodes `u`, of
    /// `mix(mix(mix(u ^ SALT) ^ checksum(name_u)) ^ out_degree_u)` (an
    /// unnamed node hashes the empty name, as the trie skips both), folded
    /// with the node count — [`wire::mix`] terms, a few multiplies a node.
    ///
    /// This is the stage's incremental-rebuild key. Edge *weights* are
    /// deliberately absent — a probability nudge leaves the trie byte-for-
    /// byte identical, so the cached section stays valid — while a rename
    /// or any out-degree change (e.g. a new out-edge) moves the key.
    pub fn input_key(graph: &TopicGraph) -> u64 {
        let sum = graph.nodes().fold(0u64, |sum, u| {
            let node = wire::mix(u.0 as u64 ^ INPUT_KEY_SALT);
            let name = wire::checksum(graph.name(u).unwrap_or("").as_bytes());
            let term = wire::mix(wire::mix(node ^ name) ^ graph.out_degree(u) as u64);
            sum.wrapping_add(term)
        });
        wire::mix(wire::mix(graph.node_count() as u64 ^ INPUT_KEY_SALT) ^ sum)
    }

    /// Build from `(name, id, score)` triples. Later duplicates of the same
    /// normalized name keep the higher score.
    pub fn build<'a>(entries: impl IntoIterator<Item = (&'a str, NodeId, f64)>) -> Self {
        let mut ac = Autocomplete::default();
        for (name, id, score) in entries {
            ac.insert(name, id, score);
        }
        ac
    }

    /// Insert one name.
    pub fn insert(&mut self, name: &str, id: NodeId, score: f64) {
        let norm = normalize(name);
        if norm.is_empty() {
            return;
        }
        let mut node = &mut self.root;
        for c in norm.chars() {
            node = node.children.entry(c).or_default();
        }
        match &mut node.terminal {
            Some((_, s)) if *s >= score => {}
            slot => *slot = Some((id, score)),
        }
        self.size += 1;
    }

    /// Number of inserted names (including overwritten duplicates).
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Serialize the trie (the OCTA v8 `autocomplete` section payload;
    /// normative spec in `ARCHITECTURE.md`).
    ///
    /// ```text
    /// name count u64
    /// node area (root record at area offset 0), preorder-contiguous:
    ///   terminal u32 (0|1) | child count u32
    ///   if terminal: id u32 | pad u32 = 0 | score f64
    ///   child count × (char u32 | pad u32 = 0 | child offset u64)
    /// ```
    ///
    /// Every record is a multiple of 8 bytes and records are laid out in
    /// preorder with no gaps, so each child offset (area-relative) is
    /// strictly greater than its parent's — the cycle-safety invariant the
    /// reader enforces. Children are written in ascending character order
    /// so the encoding is canonical regardless of `HashMap` iteration
    /// order. Iterative throughout: trie depth equals the longest
    /// normalized name, which is user-controlled data and must not bound
    /// the call stack.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.size * 64);
        buf.put_u64_le(self.size as u64);
        // pass 1: flatten to preorder, recording parent→child flat links
        struct Flat<'a> {
            node: &'a TrieNode,
            children: Vec<(char, usize)>,
        }
        let mut flat: Vec<Flat<'_>> = Vec::new();
        let mut work: Vec<(&TrieNode, Option<(usize, char)>)> = vec![(&self.root, None)];
        while let Some((node, link)) = work.pop() {
            let idx = flat.len();
            if let Some((parent, c)) = link {
                flat[parent].children.push((c, idx));
            }
            flat.push(Flat {
                node,
                children: Vec::with_capacity(node.children.len()),
            });
            let mut chars: Vec<char> = node.children.keys().copied().collect();
            chars.sort_unstable();
            // descending pushes pop ascending, keeping preorder canonical
            for &c in chars.iter().rev() {
                work.push((&node.children[&c], Some((idx, c))));
            }
        }
        // pass 2: preorder layout — offset of flat record i is the running
        // sum of the record sizes before it
        let rec_size = |f: &Flat<'_>| -> u64 {
            8 + if f.node.terminal.is_some() { 16 } else { 0 } + 16 * f.children.len() as u64
        };
        let mut offsets = Vec::with_capacity(flat.len());
        let mut off = 0u64;
        for f in &flat {
            offsets.push(off);
            off += rec_size(f);
        }
        for f in &flat {
            match f.node.terminal {
                Some(_) => buf.put_u32_le(1),
                None => buf.put_u32_le(0),
            }
            buf.put_u32_le(f.children.len() as u32);
            if let Some((id, score)) = f.node.terminal {
                buf.put_u32_le(id.0);
                buf.put_u32_le(0);
                buf.put_f64_le(score);
            }
            for &(c, child) in &f.children {
                buf.put_u32_le(c as u32);
                buf.put_u32_le(0);
                buf.put_u64_le(offsets[child]);
            }
        }
        buf
    }
}

/// Zero-copy view over the `autocomplete` section payload of an OCTA v8
/// container (the payload layout has not changed since v6).
///
/// [`TrieView::parse`] walks the whole node area once, enforcing the
/// preorder-contiguous layout (each record starts exactly where the
/// previous subtree ended, child offsets strictly increase, the final
/// record ends exactly at the section end), character validity, zero pads,
/// bounded terminal ids, and finite scores. After that, [`TrieView::lookup`]
/// and [`TrieView::complete`] serve queries straight off the bytes — the
/// completion comparator is total, so collection order cannot show through.
#[derive(Debug, Clone, Copy)]
pub struct TrieView<'a> {
    /// The node area (section payload past the name-count word).
    area: &'a [u8],
    name_count: usize,
}

fn u64_at(raw: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(raw[off..off + 8].try_into().expect("validated by parse"))
}

fn u32_at(raw: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(raw[off..off + 4].try_into().expect("validated by parse"))
}

impl<'a> TrieView<'a> {
    /// Validate a section payload and return a view over it.
    pub fn parse(raw: &'a [u8], node_count: usize) -> Result<Self, WireError> {
        if raw.len() < 8 {
            return Err(WireError("autocomplete section header truncated".into()));
        }
        let name_count = u64_at(raw, 0) as usize;
        let area = &raw[8..];
        // preorder walk: every record must start exactly at the running
        // offset, which rules out gaps, overlaps, sharing, and cycles
        let mut expect = 0usize;
        let mut stack: Vec<usize> = vec![0];
        while let Some(off) = stack.pop() {
            if off != expect {
                return Err(WireError(format!(
                    "trie record at {off} breaks preorder (expected {expect})"
                )));
            }
            if off + 8 > area.len() {
                return Err(WireError(format!("trie record header at {off} truncated")));
            }
            let terminal = u32_at(area, off);
            if terminal > 1 {
                return Err(WireError(format!("trie terminal flag {terminal} invalid")));
            }
            let child_count = u32_at(area, off + 4) as usize;
            let size = 8 + 16 * terminal as usize + 16 * child_count;
            if area.len() - off < size {
                return Err(WireError(format!("trie record at {off} truncated")));
            }
            if terminal == 1 {
                let id = u32_at(area, off + 8);
                if id as usize >= node_count {
                    return Err(WireError(format!(
                        "trie terminal references node {id} outside the graph ({node_count} nodes)"
                    )));
                }
                if u32_at(area, off + 12) != 0 {
                    return Err(WireError("trie terminal pad word nonzero".into()));
                }
                if !f64::from_bits(u64_at(area, off + 16)).is_finite() {
                    return Err(WireError("trie terminal score not finite".into()));
                }
            }
            let base = off + 8 + 16 * terminal as usize;
            let mut prev_char: Option<u32> = None;
            // push child offsets descending so they pop in preorder
            let mut child_offs = Vec::with_capacity(child_count);
            for i in 0..child_count {
                let c = u32_at(area, base + 16 * i);
                if char::from_u32(c).is_none() {
                    return Err(WireError(format!("invalid trie character {c:#x}")));
                }
                if prev_char.is_some_and(|p| p >= c) {
                    return Err(WireError("trie children not in ascending order".into()));
                }
                prev_char = Some(c);
                if u32_at(area, base + 16 * i + 4) != 0 {
                    return Err(WireError("trie child pad word nonzero".into()));
                }
                let child_off = u64_at(area, base + 16 * i + 8);
                if child_off <= off as u64
                    || !child_off.is_multiple_of(8)
                    || child_off >= area.len() as u64
                {
                    return Err(WireError(format!(
                        "trie child offset {child_off} out of range (parent {off})"
                    )));
                }
                child_offs.push(child_off as usize);
            }
            stack.extend(child_offs.into_iter().rev());
            expect = off + size;
        }
        if expect != area.len() {
            return Err(WireError(format!(
                "trie area length {} != walked {expect}",
                area.len()
            )));
        }
        Ok(TrieView { area, name_count })
    }

    /// Rebind a view over bytes a previous [`TrieView::parse`] already
    /// validated, skipping the `O(area)` preorder walk.
    ///
    /// The mapped open path validates the trie section once (checksum +
    /// structure) and then reconstructs per-query views with this — a
    /// lookup must cost `O(|name|)`, not `O(trie)`. Caller contract: `raw`
    /// is byte-identical to a payload that parsed successfully. Safe Rust
    /// either way (a violated contract can only mis-answer or panic on a
    /// slice bound, never read out of bounds).
    pub(crate) fn assume_checked(raw: &'a [u8]) -> Self {
        debug_assert!(Self::parse(raw, usize::MAX).is_ok());
        TrieView {
            area: &raw[8..],
            name_count: u64_at(raw, 0) as usize,
        }
    }

    /// Number of inserted names (the stored count, including overwritten
    /// duplicates — mirrors [`Autocomplete::len`]).
    pub fn len(&self) -> usize {
        self.name_count
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.name_count == 0
    }

    fn terminal(&self, off: usize) -> Option<(NodeId, f64)> {
        if u32_at(self.area, off) == 1 {
            Some((
                NodeId(u32_at(self.area, off + 8)),
                f64::from_bits(u64_at(self.area, off + 16)),
            ))
        } else {
            None
        }
    }

    fn child_count(&self, off: usize) -> usize {
        u32_at(self.area, off + 4) as usize
    }

    fn child(&self, off: usize, i: usize) -> (char, usize) {
        let base = off + 8 + 16 * (u32_at(self.area, off) as usize) + 16 * i;
        (
            char::from_u32(u32_at(self.area, base)).expect("validated by parse"),
            u64_at(self.area, base + 8) as usize,
        )
    }

    /// Follow the edge labelled `c` out of the record at `off` — binary
    /// search over the ascending child characters.
    fn descend(&self, off: usize, c: char) -> Option<usize> {
        let n = self.child_count(off);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (self.child(off, mid).0 as u32) < c as u32 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < n && self.child(off, lo).0 == c).then(|| self.child(off, lo).1)
    }

    /// Exact lookup of a (normalized) name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        let norm = normalize(name);
        let mut off = 0usize;
        for c in norm.chars() {
            off = self.descend(off, c)?;
        }
        self.terminal(off).map(|(id, _)| id)
    }

    /// The top-`limit` completions of `prefix`, ranked by descending score
    /// (ties by node id). Returns `(id, completed_name, score)`.
    pub fn complete(&self, prefix: &str, limit: usize) -> Vec<(NodeId, String, f64)> {
        let norm = normalize(prefix);
        let mut off = 0usize;
        for c in norm.chars() {
            match self.descend(off, c) {
                Some(next) => off = next,
                None => return Vec::new(),
            }
        }
        let mut found: Vec<(NodeId, String, f64)> = Vec::new();
        let mut stack: Vec<(usize, String)> = vec![(off, norm)];
        while let Some((off, path)) = stack.pop() {
            if let Some((id, score)) = self.terminal(off) {
                found.push((id, path.clone(), score));
            }
            for i in 0..self.child_count(off) {
                let (c, child) = self.child(off, i);
                let mut next = path.clone();
                next.push(c);
                stack.push((child, next));
            }
        }
        found.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        found.truncate(limit);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Autocomplete {
        Autocomplete::build([
            ("Jure Leskovec", NodeId(0), 50.0),
            ("Jiawei Han", NodeId(1), 80.0),
            ("Jian Pei", NodeId(2), 60.0),
            ("Michael Jordan", NodeId(3), 90.0),
            ("Michael Stonebraker", NodeId(4), 85.0),
        ])
    }

    /// The trie's OCTA v8 section payload, as the artifact stores it.
    fn encoded(ac: &Autocomplete) -> Vec<u8> {
        ac.to_bytes()
    }

    fn view(raw: &[u8]) -> TrieView<'_> {
        TrieView::parse(raw, 5).unwrap()
    }

    #[test]
    fn prefix_completion_ranked_by_score() {
        let raw = encoded(&sample());
        let hits = view(&raw).complete("ji", 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, NodeId(1), "jiawei han ranks first (score 80)");
        assert_eq!(hits[1].0, NodeId(2));
    }

    #[test]
    fn case_and_whitespace_insensitive() {
        let raw = encoded(&sample());
        let hits = view(&raw).complete("  MICHAEL ", 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].1, "michael jordan");
    }

    #[test]
    fn limit_respected() {
        let raw = encoded(&sample());
        assert_eq!(view(&raw).complete("", 3).len(), 3);
        assert_eq!(view(&raw).complete("", 100).len(), 5);
        assert!(view(&raw).complete("j", 0).is_empty());
    }

    #[test]
    fn no_match_is_empty() {
        let raw = encoded(&sample());
        assert!(view(&raw).complete("zz", 5).is_empty());
    }

    #[test]
    fn exact_lookup() {
        let raw = encoded(&sample());
        let ac = view(&raw);
        assert_eq!(ac.lookup("jure leskovec"), Some(NodeId(0)));
        assert_eq!(ac.lookup("  Jure Leskovec "), Some(NodeId(0)));
        assert_eq!(ac.lookup("jure"), None, "prefix is not an exact name");
        assert_eq!(ac.lookup("zz"), None);
    }

    #[test]
    fn duplicate_names_keep_higher_score() {
        let mut ac = Autocomplete::default();
        ac.insert("wei chen", NodeId(1), 10.0);
        ac.insert("wei chen", NodeId(2), 99.0);
        ac.insert("wei chen", NodeId(3), 5.0);
        let raw = encoded(&ac);
        assert_eq!(view(&raw).lookup("wei chen"), Some(NodeId(2)));
        assert_eq!(view(&raw).len(), 3, "overwritten duplicates still count");
    }

    #[test]
    fn empty_names_ignored() {
        let mut ac = Autocomplete::default();
        ac.insert("  ", NodeId(1), 1.0);
        let raw = encoded(&ac);
        assert!(view(&raw).complete("", 5).is_empty());
        assert!(view(&raw).is_empty());
    }

    #[test]
    fn flat_encoding_round_trips() {
        let ac = sample();
        let raw = encoded(&ac);
        // the encoding is canonical: insertion order never shows through
        let mut reversed = Autocomplete::default();
        for (name, id, score) in [
            ("Michael Stonebraker", NodeId(4), 85.0),
            ("Michael Jordan", NodeId(3), 90.0),
            ("Jian Pei", NodeId(2), 60.0),
            ("Jiawei Han", NodeId(1), 80.0),
            ("Jure Leskovec", NodeId(0), 50.0),
        ] {
            reversed.insert(name, id, score);
        }
        assert_eq!(encoded(&reversed), raw, "re-encode is canonical");
        assert_eq!(view(&raw).len(), ac.len());
        assert_eq!(view(&raw).lookup("jian pei"), Some(NodeId(2)));
        // the empty trie encodes and parses too
        let raw = encoded(&Autocomplete::default());
        assert!(TrieView::parse(&raw, 0).unwrap().is_empty());
    }

    #[test]
    fn view_rejects_malformed_payloads() {
        let raw = encoded(&sample());
        // truncation anywhere fails closed
        for cut in [0, 7, 8, 15, raw.len() - 8, raw.len() - 1] {
            assert!(
                TrieView::parse(&raw[..cut], 5).is_err(),
                "cut at {cut} must not parse"
            );
        }
        // a terminal id outside the graph is rejected
        assert!(TrieView::parse(&raw, 1).is_err());
        // a forged child offset breaks the preorder invariant: the root is
        // non-terminal here, so its first child offset word sits at 8+16
        let mut bent = raw.clone();
        let off = u64::from_le_bytes(bent[24..32].try_into().unwrap());
        bent[24..32].copy_from_slice(&(off + 8).to_le_bytes());
        assert!(TrieView::parse(&bent, 5).is_err());
        // a non-terminal root record of the wrong parity: flag > 1
        let mut flag = raw.clone();
        flag[8] = 7;
        assert!(TrieView::parse(&flag, 5).is_err());
    }
}
