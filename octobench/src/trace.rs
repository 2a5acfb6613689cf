//! Spans, recorded from outside the engine.
//!
//! Nothing under `crates/` is instrumented. A traced run issues each
//! request once through the serving layer (`core.serve.execute` or
//! `core.serve.flush_deltas`, the *parent* span) and once more as the
//! chain of public functions that request decomposes into (the `replay`
//! span and its children, one per layer). Both hang under one request
//! root, so every child lies inside its parent in real time, and
//! `trace.coverage` — the replayed children's time over the parent's — says
//! how much of the served request the decomposition explains.
//!
//! Spans live in memory and are written to `out/<workload>.spans.jsonl`
//! when the run ends.

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const EXECUTE: &str = "core.serve.execute";
pub const FLUSH: &str = "core.serve.flush_deltas";
pub const REPLAY: &str = "replay";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 for a request root.
    pub parent: u32,
    /// Shared by every span of one query, flush or restart operation.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One actor's span log. The traced client, the flush mirror and the
/// restarter each own a tracer over the same `origin` and a disjoint id
/// range; the logs are merged when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    next_req: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, id_base: u32) -> Tracer {
        Tracer {
            origin,
            next_id: id_base,
            next_req: id_base,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request; returns its id.
    pub fn request(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        self.next_id += 1;
        let start = self.now();
        self.spans.push(Span {
            id: self.next_id,
            parent,
            req,
            name,
            start_ns: start,
            end_ns: start,
        });
        self.next_id
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span this tracer opened");
        span.end_ns = end;
        span.ns()
    }

    /// Time `f` as one span; returns its result and duration in ns.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, req);
        let out = f();
        (out, self.close(id))
    }

    /// Rename the most recent span called `from` (a lookup is only known
    /// to have been a cache hit once it returns).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }
}

/// `(Σ replayed children, Σ parents)` in ns, over the requests whose
/// parent span carries one of `parent_names` and that were replayed at
/// all; `trace.coverage` is their ratio.
pub fn coverage(spans: &[Span], parent_names: &[&str]) -> (f64, f64) {
    use std::collections::HashMap;
    let mut parent_ns: HashMap<u32, u64> = HashMap::new();
    let mut replay_of: HashMap<u32, u32> = HashMap::new(); // replay span id → req
    for s in spans {
        if parent_names.contains(&s.name) {
            *parent_ns.entry(s.req).or_default() += s.ns();
        } else if s.name == REPLAY {
            replay_of.insert(s.id, s.req);
        }
    }
    let mut children = 0u64;
    let mut parents = 0u64;
    let mut counted: std::collections::HashSet<u32> = Default::default();
    for s in spans {
        if let Some(req) = replay_of.get(&s.parent) {
            if let Some(&p) = parent_ns.get(req) {
                children += s.ns();
                if counted.insert(*req) {
                    parents += p;
                }
            }
        }
    }
    (children as f64, parents as f64)
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("req", Json::Num(s.req as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_coverage_sums_the_replayed_ones() {
        let mut tr = Tracer::new(Instant::now(), 0);
        let req = tr.request();
        let root = tr.open("request", 0, req);
        tr.span(EXECUTE, root, req, || std::hint::black_box(1 + 1));
        let replay = tr.open(REPLAY, root, req);
        tr.span("topics.infer", replay, req, || ());
        tr.span("core.kim.select", replay, req, || ());
        tr.close(replay);
        tr.close(root);
        for s in &tr.spans {
            if let Some(p) = tr.spans.iter().find(|p| p.id == s.parent) {
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} in {p:?}"
                );
            }
        }
        let kids: u64 = tr
            .spans
            .iter()
            .filter(|s| s.parent == replay)
            .map(Span::ns)
            .sum();
        let (children, parents) = coverage(&tr.spans, &[EXECUTE]);
        assert_eq!(children, kids as f64);
        assert!(parents > 0.0 || tr.spans[1].ns() == 0);
    }
}
