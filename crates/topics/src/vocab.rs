//! Keyword vocabulary: string interning with stable ids.

use crate::error::TopicError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an interned keyword.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The id as a `usize` index.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for KeywordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl From<usize> for KeywordId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize);
        KeywordId(v as u32)
    }
}

/// An interning keyword vocabulary.
///
/// Keywords are normalized to lowercase with surrounding whitespace trimmed,
/// mirroring how OCTOPUS extracts "distinct keywords from paper titles"
/// (§II-B) — "Data Mining" and "data mining" are the same keyword.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Vocabulary {
    words: Vec<String>,
    index: HashMap<String, KeywordId>,
}

impl Vocabulary {
    /// Longest keyword phrase (in whitespace tokens) considered by
    /// [`Vocabulary::resolve_query`].
    const MAX_PHRASE_TOKENS: usize = 4;

    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalization applied to every keyword before interning/lookup.
    pub(crate) fn normalize(word: &str) -> String {
        word.trim().to_lowercase()
    }

    /// Intern `word`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, word: &str) -> KeywordId {
        let norm = Self::normalize(word);
        if let Some(&id) = self.index.get(&norm) {
            return id;
        }
        let id = KeywordId(self.words.len() as u32);
        self.index.insert(norm.clone(), id);
        self.words.push(norm);
        id
    }

    /// Look up a keyword without interning.
    pub fn get(&self, word: &str) -> Option<KeywordId> {
        self.index.get(&Self::normalize(word)).copied()
    }

    /// Look up a keyword, erroring with the original string when missing.
    pub fn require(&self, word: &str) -> Result<KeywordId> {
        self.get(word)
            .ok_or_else(|| TopicError::UnknownKeywordStr(word.to_string()))
    }

    /// The string for an id.
    pub fn word(&self, id: KeywordId) -> Result<&str> {
        self.words
            .get(id.index())
            .map(String::as_str)
            .ok_or(TopicError::UnknownKeyword(id.0))
    }

    /// Number of interned keywords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterate `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (KeywordId(i as u32), w.as_str()))
    }

    /// Resolve a keyword query string into ids with greedy longest-phrase
    /// matching (keywords may be multi-word phrases like `"data mining"`):
    /// at each token position the longest interned phrase of up to
    /// four tokens wins. Unmatched tokens are
    /// returned in `unknown`. Duplicates are dropped.
    pub fn resolve_query(&self, query: &str) -> (Vec<KeywordId>, Vec<String>) {
        let tokens: Vec<&str> = query.split_whitespace().collect();
        let mut resolved = Vec::new();
        let mut unknown = Vec::new();
        let mut i = 0usize;
        while i < tokens.len() {
            let mut matched = None;
            let max_len = Self::MAX_PHRASE_TOKENS.min(tokens.len() - i);
            for len in (1..=max_len).rev() {
                let phrase = tokens[i..i + len].join(" ");
                if let Some(id) = self.get(&phrase) {
                    matched = Some((id, len));
                    break;
                }
            }
            match matched {
                Some((id, len)) => {
                    if !resolved.contains(&id) {
                        resolved.push(id);
                    }
                    i += len;
                }
                None => {
                    unknown.push(tokens[i].to_string());
                    i += 1;
                }
            }
        }
        (resolved, unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_normalizing() {
        let mut v = Vocabulary::new();
        let a = v.intern("Data Mining");
        let b = v.intern("  data mining ");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.word(a).unwrap(), "data mining");
    }

    #[test]
    fn lookup_and_require() {
        let mut v = Vocabulary::new();
        v.intern("clustering");
        assert!(v.get("CLUSTERING").is_some());
        assert!(v.get("nonexistent").is_none());
        assert!(matches!(
            v.require("nope"),
            Err(TopicError::UnknownKeywordStr(_))
        ));
    }

    #[test]
    fn word_of_unknown_id_errors() {
        let v = Vocabulary::new();
        assert!(v.word(KeywordId(4)).is_err());
    }

    #[test]
    fn resolve_query_dedups_and_reports_unknown() {
        let mut v = Vocabulary::new();
        let dm = v.intern("data");
        v.intern("mining");
        let (ids, unknown) = v.resolve_query("data data mining warphole");
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], dm);
        assert_eq!(unknown, vec!["warphole".to_string()]);
    }

    #[test]
    fn resolve_query_prefers_longest_phrase() {
        let mut v = Vocabulary::new();
        let dm = v.intern("data mining");
        let d = v.intern("data");
        v.intern("mining");
        let (ids, unknown) = v.resolve_query("Data Mining");
        assert_eq!(ids, vec![dm], "phrase must beat its word parts");
        assert!(unknown.is_empty());
        let (ids, _) = v.resolve_query("data cleaning");
        assert_eq!(ids, vec![d], "falls back to single word");
    }

    #[test]
    fn resolve_query_matches_phrases_at_any_position() {
        let mut v = Vocabulary::new();
        let im = v.intern("influence maximization");
        let sn = v.intern("social network");
        let (ids, unknown) =
            v.resolve_query("scalable influence maximization on social network data");
        assert_eq!(ids, vec![im, sn]);
        assert_eq!(
            unknown,
            vec!["scalable".to_string(), "on".to_string(), "data".to_string()]
        );
    }

    #[test]
    fn iteration_in_id_order() {
        let mut v = Vocabulary::new();
        v.intern("b");
        v.intern("a");
        let words: Vec<_> = v.iter().map(|(_, w)| w).collect();
        assert_eq!(words, vec!["b", "a"]);
    }
}
