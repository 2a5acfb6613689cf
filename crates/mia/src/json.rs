//! Minimal JSON writer + d3-hierarchy export.
//!
//! OCTOPUS "utilize\[s\] d3js to visualize the paths and interact with the
//! end-users" (§II-E). d3's hierarchy layouts consume
//! `{"name": …, "children": […]}` trees; [`arborescence_to_d3`] emits
//! exactly that, with per-node influence attributes. The writer is
//! hand-rolled (~60 lines) rather than pulling `serde_json`, which is
//! outside the approved dependency set — see DESIGN.md §7.

use crate::arborescence::Arborescence;
use octopus_graph::TopicGraph;

/// Escape a string per RFC 8259.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A tiny JSON value builder sufficient for the export needs of this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// JSON null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (non-finite serializes as null, like d3 expects).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Export an arborescence as a d3 hierarchy:
/// `{"name", "id", "prob", "depth", "effect", "children": […]}`.
///
/// `name` falls back to the numeric id when the graph is anonymous;
/// `effect` is the subtree influence mass (drives node sizing in the UI).
pub fn arborescence_to_d3(g: &TopicGraph, arb: &Arborescence) -> Json {
    arborescence_to_d3_with(arb, |u| g.name(u).map(str::to_string))
}

/// Like [`arborescence_to_d3`], but names resolve through an arbitrary
/// lookup instead of one `TopicGraph` — for arborescences whose node ids
/// live in a different coordinate space than any single graph (a sharded
/// serving layer lifting a shard-local tree back to global ids renders
/// through this, resolving names via its shard mapping).
pub fn arborescence_to_d3_with(
    arb: &Arborescence,
    name_of: impl Fn(octopus_graph::NodeId) -> Option<String>,
) -> Json {
    fn build(
        name_of: &impl Fn(octopus_graph::NodeId) -> Option<String>,
        arb: &Arborescence,
        idx: u32,
    ) -> Json {
        let n = &arb.nodes()[idx as usize];
        let name = name_of(n.node).unwrap_or_else(|| format!("{}", n.node.0));
        let mut fields = vec![
            ("name".to_string(), Json::Str(name)),
            ("id".to_string(), Json::Num(n.node.0 as f64)),
            ("prob".to_string(), Json::Num(n.path_prob)),
            ("depth".to_string(), Json::Num(n.depth as f64)),
            ("effect".to_string(), Json::Num(arb.subtree_mass(n.node))),
        ];
        if !n.children.is_empty() {
            let children: Vec<Json> = n.children.iter().map(|&c| build(name_of, arb, c)).collect();
            fields.push(("children".to_string(), Json::Arr(children)));
        }
        Json::Obj(fields)
    }
    build(&name_of, arb, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arborescence::ArbDirection;
    use octopus_graph::{GraphBuilder, NodeId};

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn value_serialization() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c".into(), Json::Str("x\"y".into())),
            ("d".into(), Json::Num(0.25)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":1,"b":[true,null],"c":"x\"y","d":0.25}"#
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn d3_export_shape() {
        let mut b = GraphBuilder::new(1);
        let u = b.add_node("ada");
        let v = b.add_node("grace");
        let w = b.add_node("alan");
        b.add_edge(u, v, &[(0, 0.8)]).unwrap();
        b.add_edge(v, w, &[(0, 0.5)]).unwrap();
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        let json = arborescence_to_d3(&g, &arb).to_string();
        assert!(json.contains(r#""name":"ada""#));
        assert!(json.contains(r#""children":[{"#));
        assert!(json.contains(r#""prob":0.8"#));
        // nested child "alan" inside "grace"
        let grace_pos = json.find("grace").unwrap();
        let alan_pos = json.find("alan").unwrap();
        assert!(alan_pos > grace_pos);
    }

    #[test]
    fn anonymous_nodes_use_numeric_names() {
        let mut b = GraphBuilder::new(1);
        let _ = b.add_nodes(2);
        b.add_edge(NodeId(0), NodeId(1), &[(0, 0.9)]).unwrap();
        let g = b.build().unwrap();
        let p = g.materialize(&[1.0]).unwrap();
        let arb = Arborescence::build(&g, &p, NodeId(0), 0.01, ArbDirection::Out);
        let json = arborescence_to_d3(&g, &arb).to_string();
        assert!(json.contains(r#""name":"0""#));
    }
}
