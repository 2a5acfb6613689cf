//! Loader for the AMiner citation text format (the ACM-Citation-network-V8
//! dump OCTOPUS demos on: <https://aminer.org/citation>).
//!
//! Record grammar (one paper per blank-line-separated block):
//!
//! ```text
//! #* title
//! #@ author1;author2;…
//! #t year
//! #c venue
//! #index id
//! #% referenced-paper-id     (repeated)
//! #! abstract                (ignored)
//! ```
//!
//! [`build_action_log`] reproduces the §II-B data pipeline: "we extract
//! distinct keywords from paper titles … we regard a v's paper citing a u's
//! paper as an item propagated from u to v". Each paper is an item owned by
//! its first author; a citation of paper `P` (by `u`) from a paper by `v`
//! is a successful trial `u → v`; followers of `u` (authors who cited `u`
//! before) who did *not* cite `P` contribute failed trials — the negative
//! evidence EM needs.

use crate::actions::ActionLog;
use octopus_graph::NodeId;
use octopus_topics::Vocabulary;
use std::collections::HashMap;
use std::io::BufRead;

/// One parsed paper record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaperRecord {
    /// Paper title.
    pub title: String,
    /// Author names, in order.
    pub authors: Vec<String>,
    /// Publication year (0 when absent).
    pub year: u32,
    /// Venue string.
    pub venue: String,
    /// Dataset-assigned id.
    pub index: String,
    /// Ids of referenced papers.
    pub references: Vec<String>,
}

/// Parsing errors.
#[derive(Debug, Clone, PartialEq)]
pub enum LoaderError {
    /// A record had no `#index` line.
    MissingIndex {
        /// Title of the offending record (may be empty).
        title: String,
    },
    /// Two records shared the same `#index`.
    DuplicateIndex(String),
    /// Underlying I/O failure, stringified.
    Io(String),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::MissingIndex { title } => {
                write!(f, "record {title:?} has no #index line")
            }
            LoaderError::DuplicateIndex(id) => write!(f, "duplicate paper index {id:?}"),
            LoaderError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for LoaderError {}

/// Parse an AMiner-format stream into paper records.
pub fn parse_aminer<R: BufRead>(reader: R) -> Result<Vec<PaperRecord>, LoaderError> {
    let mut records = Vec::new();
    let mut cur = PaperRecord::default();
    let mut started = false;
    let mut seen: HashMap<String, ()> = HashMap::new();

    let mut flush = |cur: &mut PaperRecord,
                     started: &mut bool,
                     seen: &mut HashMap<String, ()>|
     -> Result<(), LoaderError> {
        if !*started {
            return Ok(());
        }
        if cur.index.is_empty() {
            return Err(LoaderError::MissingIndex {
                title: cur.title.clone(),
            });
        }
        if seen.insert(cur.index.clone(), ()).is_some() {
            return Err(LoaderError::DuplicateIndex(cur.index.clone()));
        }
        records.push(std::mem::take(cur));
        *started = false;
        Ok(())
    };

    for line in reader.lines() {
        let line = line.map_err(|e| LoaderError::Io(e.to_string()))?;
        let line = line.trim_end();
        if line.is_empty() {
            flush(&mut cur, &mut started, &mut seen)?;
            continue;
        }
        started = true;
        if let Some(rest) = line.strip_prefix("#*") {
            cur.title = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("#@") {
            cur.authors = rest
                .split(';')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
        } else if let Some(rest) = line.strip_prefix("#t") {
            cur.year = rest.trim().parse().unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("#c") {
            cur.venue = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("#index") {
            cur.index = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("#%") {
            let id = rest.trim();
            if !id.is_empty() {
                cur.references.push(id.to_string());
            }
        }
        // unknown markers (#!, #c variants) are skipped
    }
    flush(&mut cur, &mut started, &mut seen)?;
    Ok(records)
}

/// Title-keyword stoplist (articles, connectives, and words so generic they
/// carry no topical signal).
const STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "for", "and", "or", "in", "on", "with", "to", "by", "from", "at",
    "via", "using", "toward", "towards", "is", "are", "be", "its", "their", "as", "into", "based",
    "approach", "method", "methods", "system", "systems", "new", "novel", "study",
];

/// Extract normalized title keywords: lowercase alphanumeric tokens, minus
/// stopwords and single characters.
fn title_keywords(title: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in title.split(|c: char| !c.is_alphanumeric()) {
        let t = raw.to_lowercase();
        if t.len() < 2 || STOPWORDS.contains(&t.as_str()) {
            continue;
        }
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// Options for [`build_action_log`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Keep only keywords appearing in at least this many titles.
    pub min_keyword_count: usize,
    /// Cap of failed trials recorded per item (bounds log size).
    pub max_negatives_per_item: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            min_keyword_count: 2,
            max_negatives_per_item: 32,
        }
    }
}

/// Output of [`build_action_log`]: everything the EM learner needs.
#[derive(Debug, Clone)]
pub struct CitationData {
    /// Author display names, index = node id.
    pub author_names: Vec<String>,
    /// Title-keyword vocabulary.
    pub vocab: Vocabulary,
    /// Items (papers) + trials (citations and non-citations).
    pub log: ActionLog,
}

/// Build the §II-B action log from parsed records.
pub fn build_action_log(records: &[PaperRecord], opts: &BuildOptions) -> CitationData {
    // authors → dense ids (first occurrence order)
    let mut author_ids: HashMap<&str, u32> = HashMap::new();
    let mut author_names: Vec<String> = Vec::new();
    for r in records {
        for a in &r.authors {
            author_ids.entry(a.as_str()).or_insert_with(|| {
                author_names.push(a.clone());
                (author_names.len() - 1) as u32
            });
        }
    }

    // keyword counting pass, then vocabulary of frequent keywords
    let mut counts: HashMap<String, usize> = HashMap::new();
    for r in records {
        for k in title_keywords(&r.title) {
            *counts.entry(k).or_insert(0) += 1;
        }
    }
    let mut vocab = Vocabulary::new();
    let mut frequent: Vec<(&String, &usize)> = counts
        .iter()
        .filter(|&(_, &c)| c >= opts.min_keyword_count)
        .collect();
    frequent.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (w, _) in frequent {
        vocab.intern(w);
    }

    // paper index → (record position, first-author node)
    let by_index: HashMap<&str, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.index.as_str(), i))
        .collect();
    let first_author =
        |r: &PaperRecord| -> Option<u32> { r.authors.first().map(|a| author_ids[a.as_str()]) };

    // citers[paper] = distinct citing first-authors; followers[u] = authors
    // who cited any of u's papers (potential exposure set)
    let mut citers: Vec<Vec<u32>> = vec![Vec::new(); records.len()];
    let mut followers: HashMap<u32, Vec<u32>> = HashMap::new();
    for r in records {
        let Some(citing) = first_author(r) else {
            continue;
        };
        for refid in &r.references {
            if let Some(&pi) = by_index.get(refid.as_str()) {
                if let Some(cited_author) = first_author(&records[pi]) {
                    if cited_author != citing {
                        if !citers[pi].contains(&citing) {
                            citers[pi].push(citing);
                        }
                        let fl = followers.entry(cited_author).or_default();
                        if !fl.contains(&citing) {
                            fl.push(citing);
                        }
                    }
                }
            }
        }
    }

    // emit items + trials
    let mut log = ActionLog::new();
    for (pi, r) in records.iter().enumerate() {
        let Some(owner) = first_author(r) else {
            continue;
        };
        let kws: Vec<_> = title_keywords(&r.title)
            .iter()
            .filter_map(|k| vocab.get(k))
            .collect();
        if kws.is_empty() {
            continue;
        }
        let item = log.push_item(NodeId(owner), kws);
        for &v in &citers[pi] {
            log.push_trial(item, NodeId(owner), NodeId(v), true);
        }
        // negative evidence: followers of the owner who did not cite this paper
        if let Some(fl) = followers.get(&owner) {
            let mut negs = 0usize;
            for &v in fl {
                if negs >= opts.max_negatives_per_item {
                    break;
                }
                if !citers[pi].contains(&v) {
                    log.push_trial(item, NodeId(owner), NodeId(v), false);
                    negs += 1;
                }
            }
        }
    }

    CitationData {
        author_names,
        vocab,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
#* Mining Association Rules in Large Databases
#@ rakesh agrawal;ramakrishnan srikant
#t 1994
#c VLDB
#index p1

#* Fast Algorithms for Mining Association Rules
#@ jiawei han
#t 1995
#c SIGMOD
#index p2
#% p1

#* Data Mining Concepts
#@ ian witten
#t 1999
#c KDD
#index p3
#% p1
#% p2
";

    #[test]
    fn parses_records_and_references() {
        let recs = parse_aminer(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].title, "Mining Association Rules in Large Databases");
        assert_eq!(recs[0].authors.len(), 2);
        assert_eq!(recs[1].year, 1995);
        assert_eq!(recs[2].references, vec!["p1", "p2"]);
        assert_eq!(recs[1].venue, "SIGMOD");
    }

    #[test]
    fn missing_index_is_an_error() {
        let bad = "#* Title Only\n#@ someone\n";
        assert!(matches!(
            parse_aminer(Cursor::new(bad)),
            Err(LoaderError::MissingIndex { .. })
        ));
    }

    #[test]
    fn duplicate_index_is_an_error() {
        let bad = "#* A\n#index x\n\n#* B\n#index x\n";
        assert!(matches!(
            parse_aminer(Cursor::new(bad)),
            Err(LoaderError::DuplicateIndex(_))
        ));
    }

    #[test]
    fn title_keyword_extraction() {
        let kws = title_keywords("A Novel Approach to Mining of Association Rules");
        assert_eq!(kws, vec!["mining", "association", "rules"]);
        assert!(title_keywords("Of The And").is_empty());
    }

    #[test]
    fn action_log_construction() {
        let recs = parse_aminer(Cursor::new(SAMPLE)).unwrap();
        let data = build_action_log(
            &recs,
            &BuildOptions {
                min_keyword_count: 2,
                ..Default::default()
            },
        );
        // authors: agrawal, srikant, han, witten
        assert_eq!(data.author_names.len(), 4);
        // "mining" (3×), "association" (2×), "rules" (2×), … appear;
        // "concepts" (1×) is filtered
        assert!(data.vocab.get("mining").is_some());
        assert!(data.vocab.get("concepts").is_none());
        // p1 is cited by han (p2) and witten (p3): 2 positive trials on item p1
        let positives: Vec<_> = data.log.trials().iter().filter(|t| t.activated).collect();
        assert_eq!(positives.len(), 3); // p1←han, p1←witten, p2←witten
                                        // all positive trials originate at the cited paper's first author
        let agrawal = NodeId(0);
        assert!(positives.iter().filter(|t| t.src == agrawal).count() == 2);
    }

    #[test]
    fn negative_trials_from_followers() {
        // han cites p1 (follows agrawal); agrawal's later paper p4 not cited
        // by han → failed trial agrawal→han on p4.
        let text = format!(
            "{SAMPLE}\n#* Query Processing over Data Streams\n#@ rakesh agrawal\n#t 2000\n#index p4\n"
        );
        let recs = parse_aminer(Cursor::new(text)).unwrap();
        let data = build_action_log(
            &recs,
            &BuildOptions {
                min_keyword_count: 1,
                max_negatives_per_item: 10,
            },
        );
        let negs: Vec<_> = data.log.trials().iter().filter(|t| !t.activated).collect();
        assert!(!negs.is_empty(), "expected negative trials");
        assert!(negs.iter().all(|t| t.src == NodeId(0)));
    }

    #[test]
    fn end_to_end_em_on_loaded_data() {
        use crate::learn::{EmOptions, TicEm};
        let recs = parse_aminer(Cursor::new(SAMPLE)).unwrap();
        let data = build_action_log(
            &recs,
            &BuildOptions {
                min_keyword_count: 1,
                ..Default::default()
            },
        );
        let em = TicEm::new(EmOptions {
            num_topics: 2,
            max_iters: 10,
            ..Default::default()
        });
        let fit = em.fit(&data.log, data.vocab.clone(), data.author_names.clone());
        assert!(fit.graph.edge_count() > 0);
        assert_eq!(fit.graph.node_count(), 4);
    }
}
