//! Binary persistence for a complete OCTOPUS dataset: graph + topic model +
//! (optionally) the action log.
//!
//! Production deployments learn the model once (EM over months of action
//! logs) and then serve queries from it; this module is the boundary between
//! the two phases. The format is a versioned section container built on the
//! graph codec of `octopus-graph`:
//!
//! ```text
//! magic "OCTS" | version u16 | flags u8 (bit0: has log)
//! section graph    : u64 length + octopus_graph::codec payload
//! section vocab    : u32 count, then per word (u32 len, utf8)
//! section model    : u32 Z, u32 V, Z×V f64 p(w|z), Z f64 prior,
//!                    u8 has_labels, [Z × (u32 len, utf8)]
//! section log?     : u32 items { u32 origin, u32 kw_count, kw_count × u32 }
//!                    u64 trials { u32 item, u32 src, u32 dst, u8 activated }
//! ```

use crate::actions::{ActionLog, ItemId};
use octopus_graph::{codec as graph_codec, GraphError, NodeId, TopicGraph};
use octopus_topics::{KeywordId, TopicModel, Vocabulary};

use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"OCTS";
const VERSION: u16 = 1;

/// Errors from dataset (de)serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Payload is truncated or malformed.
    Corrupt(String),
    /// Graph section failed to decode.
    Graph(GraphError),
    /// Model reconstruction failed (shape/normalization).
    Model(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Corrupt(m) => write!(f, "corrupt dataset payload: {m}"),
            StoreError::Graph(e) => write!(f, "graph section: {e}"),
            StoreError::Model(m) => write!(f, "model section: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

impl From<octopus_graph::wire::WireError> for StoreError {
    fn from(e: octopus_graph::wire::WireError) -> Self {
        StoreError::Corrupt(e.0)
    }
}

/// A complete serializable dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The influence graph.
    pub graph: TopicGraph,
    /// The keyword/topic model.
    pub model: TopicModel,
    /// The action log, if retained (not needed for serving).
    pub log: Option<ActionLog>,
}

/// Serialize a dataset.
pub fn encode(ds: &Dataset) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(ds.log.is_some() as u8);

    // graph section
    let g = graph_codec::encode(&ds.graph);
    buf.put_u64_le(g.len() as u64);
    buf.put_slice(&g);

    // vocab section
    let vocab = ds.model.vocab();
    buf.put_u32_le(vocab.len() as u32);
    for (_, w) in vocab.iter() {
        octopus_graph::wire::put_string(&mut buf, w);
    }

    // model section
    let z = ds.model.num_topics();
    let v = ds.model.vocab_size();
    buf.put_u32_le(z as u32);
    buf.put_u32_le(v as u32);
    for zi in 0..z {
        for wi in 0..v {
            buf.put_f64_le(ds.model.p_word_given_topic(KeywordId(wi as u32), zi));
        }
    }
    for zi in 0..z {
        buf.put_f64_le(ds.model.topic_prior(zi));
    }
    let has_labels = (0..z).any(|zi| ds.model.label(zi) != format!("topic-{zi}"));
    buf.put_u8(has_labels as u8);
    if has_labels {
        for zi in 0..z {
            octopus_graph::wire::put_string(&mut buf, &ds.model.label(zi));
        }
    }

    // log section
    if let Some(log) = &ds.log {
        buf.put_u32_le(log.item_count() as u32);
        for item in log.items() {
            buf.put_u32_le(item.origin.0);
            buf.put_u32_le(item.keywords.len() as u32);
            for w in &item.keywords {
                buf.put_u32_le(w.0);
            }
        }
        buf.put_u64_le(log.trial_count() as u64);
        for t in log.trials() {
            buf.put_u32_le(t.item.0);
            buf.put_u32_le(t.src.0);
            buf.put_u32_le(t.dst.0);
            buf.put_u8(t.activated as u8);
        }
    }
    buf.freeze()
}

/// Bounds check delegating to the shared [`octopus_graph::wire`] helpers.
fn need<B: Buf + ?Sized>(buf: &B, n: usize, what: &str) -> Result<(), StoreError> {
    Ok(octopus_graph::wire::need(buf, n, what)?)
}

/// Length-prefixed string read delegating to [`octopus_graph::wire`].
fn read_string<B: Buf + ?Sized>(buf: &mut B, what: &str) -> Result<String, StoreError> {
    Ok(octopus_graph::wire::read_string(buf, what)?)
}

/// Deserialize a dataset.
pub fn decode(mut buf: impl Buf) -> Result<Dataset, StoreError> {
    need(&buf, 4 + 2 + 1, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StoreError::Corrupt(
            "bad magic (not an OCTS payload)".into(),
        ));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let has_log = buf.get_u8() != 0;

    // graph
    need(&buf, 8, "graph length")?;
    let glen = buf.get_u64_le() as usize;
    need(&buf, glen, "graph payload")?;
    let mut graw = vec![0u8; glen];
    buf.copy_to_slice(&mut graw);
    let graph = graph_codec::decode(&graw[..])?;

    // vocab
    need(&buf, 4, "vocab count")?;
    let vcount = buf.get_u32_le() as usize;
    let mut vocab = Vocabulary::new();
    for i in 0..vcount {
        let w = read_string(&mut buf, "vocab word")?;
        let id = vocab.intern(&w);
        if id.index() != i {
            return Err(StoreError::Corrupt(format!("duplicate vocab word {w:?}")));
        }
    }

    // model
    need(&buf, 8, "model shape")?;
    let z = buf.get_u32_le() as usize;
    let v = buf.get_u32_le() as usize;
    if v != vcount {
        return Err(StoreError::Model(format!(
            "model width {v} != vocab size {vcount}"
        )));
    }
    need(&buf, z * v * 8 + z * 8 + 1, "model matrices")?;
    let mut rows = Vec::with_capacity(z);
    for _ in 0..z {
        let mut row = Vec::with_capacity(v);
        for _ in 0..v {
            row.push(buf.get_f64_le());
        }
        rows.push(row);
    }
    let mut prior = Vec::with_capacity(z);
    for _ in 0..z {
        prior.push(buf.get_f64_le());
    }
    let has_labels = buf.get_u8() != 0;
    let mut model =
        TopicModel::from_rows(vocab, rows, prior).map_err(|e| StoreError::Model(e.to_string()))?;
    if has_labels {
        let mut labels = Vec::with_capacity(z);
        for _ in 0..z {
            labels.push(read_string(&mut buf, "topic label")?);
        }
        model = model
            .with_labels(labels)
            .map_err(|e| StoreError::Model(e.to_string()))?;
    }

    // log
    let log = if has_log {
        need(&buf, 4, "item count")?;
        let items = buf.get_u32_le() as usize;
        let mut log = ActionLog::new();
        for _ in 0..items {
            need(&buf, 8, "item header")?;
            let origin = NodeId(buf.get_u32_le());
            let kw = buf.get_u32_le() as usize;
            need(&buf, kw * 4, "item keywords")?;
            let mut kws = Vec::with_capacity(kw);
            for _ in 0..kw {
                kws.push(KeywordId(buf.get_u32_le()));
            }
            log.push_item(origin, kws);
        }
        need(&buf, 8, "trial count")?;
        let trials = buf.get_u64_le() as usize;
        for _ in 0..trials {
            need(&buf, 13, "trial record")?;
            let item = ItemId(buf.get_u32_le());
            let src = NodeId(buf.get_u32_le());
            let dst = NodeId(buf.get_u32_le());
            let activated = buf.get_u8() != 0;
            if item.index() >= log.item_count() {
                return Err(StoreError::Corrupt(format!(
                    "trial references unknown item {}",
                    item.0
                )));
            }
            log.push_trial(item, src, dst, activated);
        }
        Some(log)
    } else {
        None
    };

    Ok(Dataset { graph, model, log })
}

/// Save a dataset to a file.
pub fn save(ds: &Dataset, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(ds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CitationConfig;

    fn tiny() -> Dataset {
        let net = CitationConfig {
            authors: 30,
            papers: 60,
            num_topics: 3,
            words_per_topic: 8,
            seed: 3,
            ..Default::default()
        }
        .generate();
        Dataset {
            graph: net.graph,
            model: net.model,
            log: Some(net.log),
        }
    }

    /// Models round-trip through one renormalization in `from_rows`, so
    /// probabilities may drift by an ULP — compare within 1e-14.
    fn assert_model_close(a: &TopicModel, b: &TopicModel) {
        assert_eq!(a.num_topics(), b.num_topics());
        assert_eq!(a.vocab(), b.vocab());
        for z in 0..a.num_topics() {
            assert_eq!(a.label(z), b.label(z));
            assert!((a.topic_prior(z) - b.topic_prior(z)).abs() < 1e-14);
            for w in 0..a.vocab_size() {
                let w = KeywordId(w as u32);
                let (x, y) = (a.p_word_given_topic(w, z), b.p_word_given_topic(w, z));
                assert!((x - y).abs() < 1e-14, "p(w|z) drifted: {x} vs {y}");
            }
        }
    }

    #[test]
    fn round_trip_with_log() {
        let ds = tiny();
        let back = decode(encode(&ds)).unwrap();
        assert_eq!(ds.graph, back.graph);
        assert_eq!(ds.log, back.log);
        assert_model_close(&ds.model, &back.model);
    }

    #[test]
    fn round_trip_without_log() {
        let mut ds = tiny();
        ds.log = None;
        let back = decode(encode(&ds)).unwrap();
        assert_eq!(back.log, None);
        assert_model_close(&ds.model, &back.model);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let ds = tiny();
        let mut raw = encode(&ds).to_vec();
        raw[0] = b'X';
        assert!(matches!(decode(&raw[..]), Err(StoreError::Corrupt(_))));
        let mut raw = encode(&ds).to_vec();
        raw[4] = 0xFF;
        assert!(decode(&raw[..]).is_err());
    }

    #[test]
    fn rejects_truncations_everywhere() {
        let ds = tiny();
        let raw = encode(&ds);
        for frac in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let cut = (raw.len() as f64 * frac) as usize;
            assert!(decode(&raw[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn file_save_load() {
        let ds = tiny();
        let path = std::env::temp_dir().join("octopus_store_test.octs");
        save(&ds, &path).unwrap();
        let back = decode(&std::fs::read(&path).unwrap()[..]).unwrap();
        assert_eq!(ds.graph, back.graph);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_dataset_is_queryable() {
        let ds = tiny();
        let back = decode(encode(&ds)).unwrap();
        let gamma = back.model.infer_str("data mining").unwrap();
        assert_eq!(gamma.num_topics(), 3);
        assert!(back.graph.node_count() > 0);
    }
}
