//! The restart section: one caller opening engines over and over.
//!
//! One round, in a directory of its own: a **cold** `open_or_build` into
//! the empty directory (build + artifact write); `open_mapped` on the now
//! warm directory **plus the first find-influencers answer**; then
//! `open_or_build` of the graph after an 8-edge **nudge** and after a
//! nudge **confined** to one topic — the two reopen shapes ROADMAP item 2c
//! compares. The native `restart` workload adds three more reopens per
//! round (unchanged graph, a rename, an edge insert) that only the layer
//! metrics report. Graphs are prepared before the clock starts; each timed
//! operation is exactly one public engine constructor (plus, for the
//! mapped open, one query). The section runs in slices (see `run.rs`); the
//! samples of all of them add up in one [`RestartSamples`].

use crate::chain::{open_chain, ChainStats};
use crate::oracle::signature;
use crate::script::{pick_edges, Rng64, Script};
use crate::spec::RESTART_NUDGE_EDGES;
use crate::trace::{Tracer, REPLAY};
use crate::world::{Scratch, World};
use octopus_core::engine::Octopus;
use octopus_core::serve::Query;
use octopus_core::QueryBudget;
use octopus_graph::delta;
use octopus_graph::{EdgeId, NodeId, TopicGraph};
use std::path::Path;
use std::time::Instant;

/// Parent span of a replayed `open_or_build`.
pub const OPEN: &str = "core.engine.open_or_build";
/// Parent span of `open_mapped` plus the first answer.
pub const OPEN_FIRST: &str = "core.engine.open_mapped+first_answer";

#[derive(Debug, Default)]
pub struct RestartSamples {
    pub build_ms: Vec<f64>,
    pub open_first_ms: Vec<f64>,
    pub nudge_ms: Vec<f64>,
    pub confined_ms: Vec<f64>,
    pub nodelta_ms: Vec<f64>,
    pub rename_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub first_query_mapped_ms: Vec<f64>,
    pub first_query_owned_ms: Vec<f64>,
    pub artifact_bytes: Vec<f64>,
    /// Engine opens attempted / failed (an error, or a reopen that claims
    /// less reuse than a restart of an unchanged graph must get).
    pub attempted: u64,
    pub failed: u64,
    /// `(what, graph, answers)` of the first rounds' engines, compared
    /// with fresh builds once the clock has stopped.
    pub kept: Vec<(&'static str, TopicGraph, String)>,
    /// Rounds run so far, over every call: the confined nudge's topic and
    /// the first query walk on from where the last slice stopped.
    pub rounds: usize,
}

/// Rounds whose engines are kept for the oracle.
const ROUNDS_CHECKED: usize = 2;

pub struct RestartTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub stats: &'a mut ChainStats,
}

/// Nudge only topic `z`'s entry on up to `n` edges that carry topic `z`:
/// every other topic's weight slice stays bit-identical.
fn confined_nudge(g: &TopicGraph, rng: &mut Rng64, z: usize, n: usize) -> TopicGraph {
    let m = g.edge_count();
    let start = rng.below(m);
    let mut rows = Vec::with_capacity(n);
    for i in 0..m {
        let e = EdgeId(((start + i) % m) as u32);
        if !g.edge_topic_probs(e).any(|(t, _)| t.index() == z) {
            continue;
        }
        let row: Vec<(usize, f64)> = g
            .edge_topic_probs(e)
            .map(|(t, p)| {
                let p = p as f64;
                let moved = if p + 0.05 <= 1.0 { p + 0.05 } else { p - 0.05 };
                (t.index(), if t.index() == z { moved } else { p })
            })
            .collect();
        rows.push((e, row));
        if rows.len() == n {
            break;
        }
    }
    delta::set_weights_multi(g, &rows).expect("confined nudge applies")
}

/// The first absent edge out of a random node.
fn insert_one(g: &TopicGraph, rng: &mut Rng64) -> TopicGraph {
    let n = g.node_count() as u32;
    let u = NodeId(rng.below(n as usize) as u32);
    let v = (0..n)
        .map(NodeId)
        .find(|&v| v != u && g.find_edge(u, v).is_none())
        .expect("no node is adjacent to every other");
    delta::insert_edge(g, u, v, &[(0, 0.3)]).expect("insert applies")
}

/// What an engine answers to a fixed handful of script queries, bit for
/// bit — a reopened engine must say exactly what a fresh build says.
pub fn answers(engine: &Octopus, probes: &[&Query]) -> String {
    let budget = QueryBudget::unlimited();
    probes
        .iter()
        .map(|q| match engine.execute(q, &budget) {
            Ok(r) => format!("{:?}", signature(&r)),
            Err(e) => format!("error: {e}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One query per operator off the front of the script, find first.
pub fn probes(script: &Script) -> Vec<&Query> {
    (0..5)
        .filter_map(|op| script.queries.iter().find(|q| q.operator().index() == op))
        .collect()
}

/// What one round's opens share.
struct Round<'r, 't> {
    world: &'r World,
    dir: &'r Path,
    /// The traced replay's own cache directory, in step with `dir`.
    mirror: Option<&'r Path>,
    trace: Option<&'r mut RestartTrace<'t>>,
    probes: &'r [&'r Query],
    /// Keep each engine's answers for the oracle.
    keep: bool,
    /// Rounds inside the section's warm-up are run but not sampled.
    sampled: bool,
    out: &'r mut RestartSamples,
}

impl Round<'_, '_> {
    fn open_spans(&mut self, parent: &'static str) -> Option<(u32, u32, u32)> {
        self.trace.as_mut().map(|t| {
            let req = t.tracer.request();
            let root = t.tracer.open("request", 0, req);
            (req, root, t.tracer.open(parent, root, req))
        })
    }

    /// Close the parent span and replay the open as its chain of layers;
    /// `more` adds spans under the replay.
    fn replay(
        &mut self,
        spans: Option<(u32, u32, u32)>,
        graph: &TopicGraph,
        mapped: bool,
        more: impl FnOnce(&mut Tracer, u32, u32, &Path),
    ) {
        let (Some((req, root, parent)), Some(t)) = (spans, self.trace.as_mut()) else {
            return;
        };
        t.tracer.close(parent);
        let replay = t.tracer.open(REPLAY, root, req);
        let mirror = self.mirror.expect("traced rounds have a mirror directory");
        let mut unsampled = ChainStats::default();
        let stats = if self.sampled {
            &mut *t.stats
        } else {
            &mut unsampled
        };
        open_chain(
            t.tracer,
            replay,
            req,
            graph,
            &self.world.config,
            mirror,
            mapped,
            stats,
        );
        more(t.tracer, replay, req, mirror);
        t.tracer.close(replay);
        t.tracer.close(root);
    }

    /// One timed `open_or_build` of `graph`; returns the engine and its ms.
    fn open(&mut self, what: &'static str, graph: &TopicGraph) -> Option<(Octopus, f64)> {
        let world = self.world;
        let spans = self.open_spans(OPEN);
        let t0 = Instant::now();
        let engine = Octopus::open_or_build(
            graph.clone(),
            world.model.clone(),
            world.config.clone(),
            self.dir,
        );
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        self.replay(spans, graph, false, |_, _, _, _| ());
        self.out.attempted += 1;
        match engine {
            Ok(engine) => {
                let engine = engine.with_user_keywords(world.user_keywords.clone());
                if self.keep {
                    let said = answers(&engine, self.probes);
                    self.out.kept.push((what, graph.clone(), said));
                }
                Some((engine, elapsed))
            }
            Err(e) => {
                eprintln!("restart: {what} open failed: {e}");
                self.out.failed += 1;
                None
            }
        }
    }

    /// `open_mapped` on the warm directory plus the first answer.
    fn open_mapped_first_answer(&mut self, graph: &TopicGraph, first_query: &Query) {
        let world = self.world;
        let budget = QueryBudget::unlimited();
        let map = |dir: &Path| {
            Octopus::open_mapped(
                graph.clone(),
                world.model.clone(),
                world.config.clone(),
                dir,
            )
            .map(|e| e.with_user_keywords(world.user_keywords.clone()))
        };
        let spans = self.open_spans(OPEN_FIRST);
        let t0 = Instant::now();
        let engine = map(self.dir);
        let t_query = Instant::now();
        let answered = engine
            .as_ref()
            .is_ok_and(|e| e.execute(first_query, &budget).is_ok());
        let end = Instant::now();
        self.replay(spans, graph, true, |tracer, replay, req, mirror| {
            // the first answer, on an engine mapped from the mirror
            if let Ok(twin) = map(mirror) {
                tracer.span("core.kim.first_query", replay, req, || {
                    let _ = twin.execute(first_query, &budget);
                });
            }
        });
        self.out.attempted += 1;
        if !answered {
            eprintln!("restart: mapped open or its first answer failed");
            self.out.failed += 1;
        } else if self.sampled {
            self.out.open_first_ms.push((end - t0).as_secs_f64() * 1e3);
            self.out
                .first_query_mapped_ms
                .push((end - t_query).as_secs_f64() * 1e3);
        }
        if let (true, Ok(engine)) = (self.keep, &engine) {
            let said = answers(engine, self.probes);
            self.out.kept.push(("mapped", graph.clone(), said));
        }
    }
}

/// Run restart rounds (at least one) until `deadline`, adding to `out`;
/// unless `sampled`, the rounds are run but their timings dropped. `full`
/// adds the three layer-only reopens; `trace` replays every open as its
/// chain of layers.
#[allow(clippy::too_many_arguments)]
pub fn restarter(
    world: &World,
    scratch: &Scratch,
    rng: &mut Rng64,
    full: bool,
    sampled: bool,
    deadline: Instant,
    mut trace: Option<RestartTrace<'_>>,
    out: &mut RestartSamples,
) {
    let base = &world.graph;
    let probe_queries = probes(&world.script);
    let budget = QueryBudget::unlimited();
    loop {
        let round = out.rounds;
        out.rounds += 1;
        let dir = scratch.fresh("restart");
        let mirror = trace.is_some().then(|| scratch.fresh("restart-mirror"));
        let picks = pick_edges(rng, base.edge_count(), RESTART_NUDGE_EDGES);
        let nudged = delta::nudge_weights(base, &picks, 0.05).expect("nudge applies");
        let confined = confined_nudge(base, rng, round % base.num_topics(), RESTART_NUDGE_EDGES);
        let first_query = &world.first_answers[round % world.first_answers.len()];
        let mut extra = Vec::new();
        if full {
            let who = NodeId(rng.below(base.node_count()) as u32);
            let renamed = delta::rename_node(base, who, &format!("renamed-{round}"));
            extra = vec![
                ("nodelta", base.clone()),
                ("rename", renamed.expect("rename applies")),
                ("insert", insert_one(base, rng)),
            ];
        }
        let mut r = Round {
            world,
            dir: &dir,
            mirror: mirror.as_deref(),
            trace: trace.as_mut(),
            probes: &probe_queries,
            keep: round < ROUNDS_CHECKED,
            sampled,
            out: &mut *out,
        };
        if let Some((engine, ms)) = r.open("cold", base) {
            if engine.cache_hit() {
                eprintln!("restart: a cold build reported a cache hit");
                r.out.failed += 1;
            }
            if sampled {
                let bytes = std::fs::read_dir(&dir)
                    .ok()
                    .and_then(|mut d| d.next())
                    .and_then(|e| e.ok())
                    .and_then(|e| e.metadata().ok())
                    .map_or(0, |m| m.len());
                r.out.build_ms.push(ms);
                r.out.artifact_bytes.push(bytes as f64);
            }
        }
        r.open_mapped_first_answer(base, first_query);
        if let (Some((_, ms)), true) = (r.open("nudge", &nudged), sampled) {
            r.out.nudge_ms.push(ms);
        }
        if let (Some((_, ms)), true) = (r.open("confined", &confined), sampled) {
            r.out.confined_ms.push(ms);
        }
        for (what, graph) in &extra {
            let Some((engine, ms)) = r.open(what, graph) else {
                continue;
            };
            if *what == "nodelta" && !engine.cache_hit() {
                eprintln!("restart: reopening an unchanged graph was not a full hit");
                r.out.failed += 1;
            }
            if !sampled {
                continue;
            }
            match *what {
                "nodelta" => {
                    r.out.nodelta_ms.push(ms);
                    let t0 = Instant::now();
                    let _ = engine.execute(first_query, &budget);
                    r.out
                        .first_query_owned_ms
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                }
                "rename" => r.out.rename_ms.push(ms),
                _ => r.out.insert_ms.push(ms),
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}
