//! Streaming replay of an action log plus the incremental learner that
//! turns it back into serving-layer graph deltas — the data half of the
//! paper's observe → learn → serve loop.
//!
//! A [`SyntheticNetwork`](crate::SyntheticNetwork)'s [`ActionLog`] is a
//! *batch* artifact: items
//! and trials in generation order, no clock. [`timeline`] stamps it into
//! a seeded, replayable stream of [`Action`]s (each item arrives at a
//! jittered gap after the previous one; its trials follow the cascade at
//! a fixed step), and [`spawn_replay`] plays that stream through a
//! **bounded** channel — a slow consumer applies backpressure to the
//! producer instead of buffering unboundedly, as a real firehose client
//! would.
//!
//! [`WindowedLearner`] is the consumer side: it appends replayed actions
//! to a growing log prefix and, once per window, refits with
//! [`TicEm::fit_warm`] from the previous model — the warm chain is
//! bit-for-bit deterministic for a given prefix + seed (pinned by
//! `tests/learn_determinism.rs`) — then **diffs** the learned weights
//! against its *shadow* graph (the graph exactly as the serving layer
//! has applied it) into [`GraphDelta`]s: changed rows become
//! [`GraphDelta::SetWeights`], never-seen edges become
//! [`GraphDelta::InsertEdge`] (or are deferred, see [`NewEdgePolicy`]).
//! Applying the window's deltas to the shadow reproduces the learned
//! weights bitwise (with `min_change = 0`), which is what lets the
//! end-to-end ingest test assert served answers are identical to a
//! fresh engine built from the final learned graph.

use crate::actions::{ActionLog, Item, Trial};
use crate::learn::{EmOptions, LearnedModel, TicEm};
use octopus_graph::delta::{self, GraphDelta};
use octopus_graph::TopicGraph;
use octopus_topics::Vocabulary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{sync_channel, Receiver};

/// One propagation event, as the stream carries it.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A new item entered the network (paper posted, ad launched).
    Item(Item),
    /// One influence trial on an edge for an already-streamed item.
    Trial(Trial),
}

/// One timestamped action of the replayable stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Position in the stream (0-based, gap-free).
    pub seq: u64,
    /// Milliseconds since the stream epoch — the event's logical time
    /// and the ingestion watermark's unit.
    pub at_ms: u64,
    /// What happened.
    pub event: StreamEvent,
}

/// Knobs of [`timeline`]: how generation-ordered log entries spread out
/// on the stream clock.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Mean gap between consecutive item arrivals. Actual gaps jitter
    /// uniformly in `[mean/2, 3·mean/2)` under `seed`.
    pub mean_item_gap_ms: u64,
    /// Fixed step between an item's consecutive cascade trials.
    pub trial_step_ms: u64,
    /// Seed for the arrival jitter — same log + same seed ⇒ the same
    /// stream, byte for byte.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            mean_item_gap_ms: 20,
            trial_step_ms: 1,
            seed: 0x57AE_A000,
        }
    }
}

/// Stamp `log` into a replayable stream: items in id order, each at a
/// seeded jittered gap after the previous, each item's trials following
/// it in cascade order at [`StreamConfig::trial_step_ms`] intervals.
/// Deterministic: the same log and config always produce the identical
/// action vector.
pub fn timeline(log: &ActionLog, cfg: &StreamConfig) -> Vec<Action> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let by_item = log.trials_by_item();
    let mut out = Vec::with_capacity(log.item_count() + log.trial_count());
    let mut clock: u64 = 0;
    let mut seq: u64 = 0;
    for item in log.items() {
        let half = cfg.mean_item_gap_ms / 2;
        clock += half + rng.random_range(0..cfg.mean_item_gap_ms.max(1));
        out.push(Action {
            seq,
            at_ms: clock,
            event: StreamEvent::Item(item.clone()),
        });
        seq += 1;
        for (j, trial) in by_item[item.id.index()].iter().enumerate() {
            out.push(Action {
                seq,
                at_ms: clock + (j as u64 + 1) * cfg.trial_step_ms,
                event: StreamEvent::Trial(**trial),
            });
            seq += 1;
        }
    }
    out
}

/// Replay `actions` through a bounded channel of `capacity` events. The
/// producer thread **blocks** once the consumer falls `capacity` events
/// behind — backpressure, not unbounded buffering — and exits when the
/// stream is drained or the receiver is dropped.
pub fn spawn_replay(actions: Vec<Action>, capacity: usize) -> Receiver<Action> {
    let (tx, rx) = sync_channel(capacity.max(1));
    std::thread::spawn(move || {
        for action in actions {
            if tx.send(action).is_err() {
                break; // consumer hung up; stop producing
            }
        }
    });
    rx
}

/// What the learner does with an edge the log has evidence for but the
/// serving graph does not contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewEdgePolicy {
    /// Emit [`GraphDelta::InsertEdge`] — the shadow (and the serving
    /// graph) grow the edge. Exact, but an insert crossing a shard
    /// boundary is rejected by the sharded router (`CrossShardDelta`).
    Insert,
    /// Grow no edge beyond the warm-up universe: skip the edge (counted
    /// in [`WindowOutcome::edges_deferred`]). Every delta is then a
    /// [`GraphDelta::SetWeights`], routable on any shard layout.
    Defer,
}

/// One window's worth of learner output.
#[derive(Debug)]
pub struct WindowOutcome {
    /// The deltas to feed the serving layer, in application order, each
    /// edge id valid on the graph the deltas before it leave: the
    /// [`GraphDelta::SetWeights`] that keep their row, in ascending edge
    /// id; then those that empty it (dropping the edge), in descending
    /// edge id; then any [`GraphDelta::InsertEdge`]s.
    pub deltas: Vec<GraphDelta>,
    /// Rows replaced ([`GraphDelta::SetWeights`] count).
    pub weights_set: usize,
    /// Sparse `(edge, topic)` probability entries moved across all rows.
    pub entries_moved: usize,
    /// Edges newly inserted this window.
    pub edges_inserted: usize,
    /// Learned-only edges skipped under [`NewEdgePolicy::Defer`]
    /// (cumulative evidence will re-offer them every window).
    pub edges_deferred: usize,
    /// EM iterations the warm refit ran.
    pub iterations: usize,
}

/// Windowed incremental learner: accumulate replayed actions, refit
/// warm, diff into deltas (see the module docs).
pub struct WindowedLearner {
    learner: TicEm,
    vocab: Vocabulary,
    node_names: Vec<String>,
    policy: NewEdgePolicy,
    min_change: f32,
    log: ActionLog,
    prev: LearnedModel,
    shadow: TopicGraph,
}

impl WindowedLearner {
    /// Resume from a warm-up state: `warmup_log` is the prefix already
    /// fit into `warmup` (whose graph the serving engine was built
    /// from). `min_change` sparsifies the diff per *entry*: only entries
    /// that moved by at least that much (as `f32`, the precision the
    /// graph stores) take their learned value, the rest keep the served
    /// value bitwise — so each delta's topic footprint is the materially
    /// moving topics, not the whole dense row. `0.0` reproduces the
    /// learned weights bitwise.
    pub fn new(
        opts: EmOptions,
        vocab: Vocabulary,
        node_names: Vec<String>,
        warmup_log: ActionLog,
        warmup: LearnedModel,
        policy: NewEdgePolicy,
        min_change: f32,
    ) -> Self {
        let shadow = warmup.graph.clone();
        WindowedLearner {
            learner: TicEm::new(opts),
            vocab,
            node_names,
            policy,
            min_change,
            log: warmup_log,
            prev: warmup,
            shadow,
        }
    }

    /// The serving graph as this learner has evolved it — bitwise what
    /// the service holds once every emitted delta is applied.
    pub fn shadow(&self) -> &TopicGraph {
        &self.shadow
    }

    /// The latest fitted model.
    pub fn learned(&self) -> &LearnedModel {
        &self.prev
    }

    /// Actions observed so far (warm-up log included).
    pub fn log(&self) -> &ActionLog {
        &self.log
    }

    /// Append one replayed action to the growing log prefix. Item ids
    /// are positional, so the stream must be consumed in order — the
    /// assert catches a reordered or partially dropped stream.
    pub fn observe(&mut self, action: &Action) {
        match &action.event {
            StreamEvent::Item(item) => {
                let id = self.log.push_item(item.origin, item.keywords.clone());
                assert_eq!(
                    id, item.id,
                    "stream replayed out of order: item ids must stay positional"
                );
            }
            StreamEvent::Trial(t) => {
                self.log.push_trial(t.item, t.src, t.dst, t.activated);
            }
        }
    }

    /// Close the window: refit warm over the whole prefix, diff the
    /// learned weights against the shadow, and advance the shadow by
    /// the emitted deltas (so the next window diffs against exactly
    /// what the serving layer will hold).
    pub fn fit_window(&mut self) -> octopus_graph::Result<WindowOutcome> {
        let fitted = self.learner.fit_warm(
            &self.log,
            self.vocab.clone(),
            self.node_names.clone(),
            &self.prev,
        );
        let mut deltas: Vec<GraphDelta> = Vec::new();
        let mut emptied: Vec<GraphDelta> = Vec::new();
        let mut inserts: Vec<GraphDelta> = Vec::new();
        let mut entries_moved = 0usize;
        let mut edges_deferred = 0usize;
        for e in fitted.graph.edges() {
            let (u, v) = fitted
                .graph
                .edge_endpoints(e)
                .expect("iterated edge is valid");
            let new_row: Vec<(usize, f64)> = fitted
                .graph
                .edge_topic_probs(e)
                .map(|(z, p)| (z.index(), p as f64))
                .collect();
            match self.shadow.find_edge(u, v) {
                Some(old) => {
                    let old_row: Vec<(usize, f32)> = self
                        .shadow
                        .edge_topic_probs(old)
                        .map(|(z, p)| (z.index(), p))
                        .collect();
                    if let Some((row, taken)) = blend_row(&old_row, &new_row, self.min_change) {
                        entries_moved += taken;
                        let out = if row.is_empty() {
                            &mut emptied
                        } else {
                            &mut deltas
                        };
                        out.push(GraphDelta::SetWeights {
                            edge: old,
                            probs: row,
                        });
                    }
                }
                None => match self.policy {
                    NewEdgePolicy::Insert => {
                        entries_moved += new_row.len();
                        inserts.push(GraphDelta::InsertEdge {
                            src: u,
                            dst: v,
                            probs: new_row,
                        });
                    }
                    NewEdgePolicy::Defer => edges_deferred += 1,
                },
            }
        }
        // an emptied row drops its edge and shifts every later id, so the
        // emptied rows go last, highest id first (both graphs are
        // (src, dst)-sorted, so they were found in ascending id order)
        deltas.extend(emptied.into_iter().rev());
        let weights_set = deltas.len();
        let edges_inserted = inserts.len();
        deltas.extend(inserts);
        if !deltas.is_empty() {
            self.shadow = delta::apply_all(&self.shadow, &deltas)?;
        }
        let iterations = fitted.iterations;
        self.prev = fitted;
        Ok(WindowOutcome {
            deltas,
            weights_set,
            entries_moved,
            edges_inserted,
            edges_deferred,
            iterations,
        })
    }
}

/// Blend a learned row into the served row under the `min_change`
/// threshold: an entry that moved by at least `min_change` (at `f32`,
/// the stored precision) takes its learned value; a sub-threshold entry
/// keeps the served value **bitwise**, so its topic stays out of the
/// emitted delta's footprint ([`GraphDelta::touched_topics`] only counts
/// entries that change) and the per-topic serving artifacts backing it
/// stay valid. Sub-threshold residue is not lost — the next window diffs
/// against the served row again, so small moves accumulate until they
/// clear the threshold. Returns the row to emit plus the entries taken,
/// or `None` when nothing clears. The row is empty when every served
/// entry's drop clears and no learned entry does; applying it drops the
/// edge. `min_change == 0.0` takes every bitwise difference — the
/// emitted row IS the learned row.
fn blend_row(
    old: &[(usize, f32)],
    new: &[(usize, f64)],
    min_change: f32,
) -> Option<(Vec<(usize, f64)>, usize)> {
    let mut row: Vec<(usize, f64)> = Vec::with_capacity(new.len());
    let mut taken = 0usize;
    // rows are topic-sorted on both sides
    let mut i = 0;
    let mut j = 0;
    while i < old.len() || j < new.len() {
        let (oz, op) = old.get(i).copied().unwrap_or((usize::MAX, 0.0));
        let (nz, np) = new.get(j).copied().unwrap_or((usize::MAX, 0.0));
        if oz == nz {
            let npf = np as f32;
            if op.to_bits() != npf.to_bits() && (op - npf).abs() >= min_change {
                row.push((nz, np));
                taken += 1;
            } else {
                // keep the served value, bitwise
                row.push((oz, op as f64));
            }
            i += 1;
            j += 1;
        } else if oz < nz {
            // the learned row dropped this entry
            if op.abs() >= min_change {
                taken += 1; // taking the drop = emitting no entry
            } else {
                row.push((oz, op as f64));
            }
            i += 1;
        } else {
            // the learned row grew this entry
            if (np as f32).abs() >= min_change {
                row.push((nz, np));
                taken += 1;
            }
            j += 1;
        }
    }
    (taken > 0).then_some((row, taken))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{CitationConfig, SyntheticNetwork};
    use octopus_graph::GraphBuilder;

    fn net() -> SyntheticNetwork {
        CitationConfig {
            authors: 60,
            papers: 150,
            seed: 0x0057_AEAA,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn timeline_is_deterministic_ordered_and_complete() {
        let net = net();
        let cfg = StreamConfig::default();
        let a = timeline(&net.log, &cfg);
        let b = timeline(&net.log, &cfg);
        assert_eq!(a, b, "same log + same seed ⇒ same stream");
        assert_eq!(a.len(), net.log.item_count() + net.log.trial_count());
        // timestamps and seqs are monotone per construction; items appear
        // before their trials
        let mut seen_items = 0usize;
        for (i, action) in a.iter().enumerate() {
            assert_eq!(action.seq, i as u64);
            match &action.event {
                StreamEvent::Item(item) => {
                    assert_eq!(item.id.index(), seen_items, "items stream in id order");
                    seen_items += 1;
                }
                StreamEvent::Trial(t) => {
                    assert!(t.item.index() < seen_items, "trial before its item");
                }
            }
        }
        let different = timeline(
            &net.log,
            &StreamConfig {
                seed: 1,
                ..StreamConfig::default()
            },
        );
        assert_ne!(a, different, "the jitter is actually seeded");
        assert_eq!(
            a.iter().map(|x| x.event.clone()).collect::<Vec<_>>(),
            different
                .iter()
                .map(|x| x.event.clone())
                .collect::<Vec<_>>(),
            "the seed moves timestamps, never events or their order"
        );
    }

    #[test]
    fn bounded_replay_delivers_everything_in_order() {
        let net = net();
        let actions = timeline(&net.log, &StreamConfig::default());
        // a tiny capacity forces the producer to block on the consumer
        let rx = spawn_replay(actions.clone(), 4);
        let replayed: Vec<Action> = rx.iter().collect();
        assert_eq!(replayed, actions);
    }

    #[test]
    fn windowed_learner_reproduces_the_batch_fit_bitwise() {
        let net = net();
        let opts = EmOptions {
            max_iters: 4,
            ..Default::default()
        };
        let names: Vec<String> = net
            .graph
            .nodes()
            .map(|u| net.graph.name(u).unwrap_or("").to_string())
            .collect();
        let vocab = net.model.vocab().clone();

        // warm up on a prefix of the stream…
        let actions = timeline(&net.log, &StreamConfig::default());
        let split = actions.len() * 3 / 5;
        let mut warmup_log = ActionLog::new();
        for a in &actions[..split] {
            match &a.event {
                StreamEvent::Item(item) => {
                    warmup_log.push_item(item.origin, item.keywords.clone());
                }
                StreamEvent::Trial(t) => warmup_log.push_trial(t.item, t.src, t.dst, t.activated),
            }
        }
        let m0 = TicEm::new(opts.clone()).fit(&warmup_log, vocab.clone(), names.clone());
        let mut learner = WindowedLearner::new(
            opts.clone(),
            vocab.clone(),
            names.clone(),
            warmup_log,
            m0,
            NewEdgePolicy::Insert,
            0.0,
        );

        // …stream the rest in two windows
        let mid = split + (actions.len() - split) / 2;
        for a in &actions[split..mid] {
            learner.observe(a);
        }
        let w1 = learner.fit_window().unwrap();
        assert!(!w1.deltas.is_empty(), "new evidence must move weights");
        for a in &actions[mid..] {
            learner.observe(a);
        }
        let w2 = learner.fit_window().unwrap();
        // inserts ride after every SetWeights, so shard routing sees
        // id-stable batches first
        for w in [&w1, &w2] {
            let first_insert = w
                .deltas
                .iter()
                .position(|d| matches!(d, GraphDelta::InsertEdge { .. }));
            if let Some(i) = first_insert {
                assert!(w.deltas[i..]
                    .iter()
                    .all(|d| matches!(d, GraphDelta::InsertEdge { .. })));
            }
        }

        // with min_change = 0 and the Insert policy, the shadow IS the
        // learned graph — bit for bit
        assert_eq!(learner.shadow(), &learner.learned().graph);

        // …and replaying the identical window chain lands on the
        // identical graph (same prefixes + same seed ⇒ same fits,
        // same diffs, same shadow)
        let mut warmup_log = ActionLog::new();
        for a in &actions[..split] {
            match &a.event {
                StreamEvent::Item(item) => {
                    warmup_log.push_item(item.origin, item.keywords.clone());
                }
                StreamEvent::Trial(t) => warmup_log.push_trial(t.item, t.src, t.dst, t.activated),
            }
        }
        let m0 = TicEm::new(opts.clone()).fit(&warmup_log, vocab.clone(), names.clone());
        let mut replay = WindowedLearner::new(
            opts,
            vocab,
            names,
            warmup_log,
            m0,
            NewEdgePolicy::Insert,
            0.0,
        );
        for a in &actions[split..mid] {
            replay.observe(a);
        }
        let r1 = replay.fit_window().unwrap();
        for a in &actions[mid..] {
            replay.observe(a);
        }
        let r2 = replay.fit_window().unwrap();
        assert_eq!(w1.deltas, r1.deltas);
        assert_eq!(w2.deltas, r2.deltas);
        assert_eq!(learner.shadow(), replay.shadow());
    }

    #[test]
    fn defer_policy_keeps_the_topology_fixed() {
        let net = net();
        let opts = EmOptions {
            max_iters: 3,
            ..Default::default()
        };
        let names: Vec<String> = net
            .graph
            .nodes()
            .map(|u| net.graph.name(u).unwrap_or("").to_string())
            .collect();
        let actions = timeline(&net.log, &StreamConfig::default());
        let split = actions.len() / 2;
        let mut warmup_log = ActionLog::new();
        for a in &actions[..split] {
            match &a.event {
                StreamEvent::Item(item) => {
                    warmup_log.push_item(item.origin, item.keywords.clone());
                }
                StreamEvent::Trial(t) => warmup_log.push_trial(t.item, t.src, t.dst, t.activated),
            }
        }
        let m0 =
            TicEm::new(opts.clone()).fit(&warmup_log, net.model.vocab().clone(), names.clone());
        let warm_edges = m0.graph.edge_count();
        let mut learner = WindowedLearner::new(
            opts,
            net.model.vocab().clone(),
            names,
            warmup_log,
            m0,
            NewEdgePolicy::Defer,
            0.0,
        );
        for a in &actions[split..] {
            learner.observe(a);
        }
        let w = learner.fit_window().unwrap();
        assert_eq!(w.edges_inserted, 0);
        assert!(
            w.deltas
                .iter()
                .all(|d| matches!(d, GraphDelta::SetWeights { .. })),
            "deferred-topology windows are pure weight traffic"
        );
        assert_eq!(learner.shadow().edge_count(), warm_edges);
    }

    /// A window that empties rows between rows it keeps: every id must
    /// still name its row when its delta applies, so the served graph
    /// ends up holding the blended row for every surviving edge.
    #[test]
    fn emptied_rows_apply_after_the_rows_they_would_shift() {
        let net = net();
        let opts = EmOptions {
            max_iters: 3,
            // sparse learned rows leave topics free to serve on
            prob_floor: 0.05,
            ..Default::default()
        };
        let names: Vec<String> = net
            .graph
            .nodes()
            .map(|u| net.graph.name(u).unwrap_or("").to_string())
            .collect();
        let vocab = net.model.vocab().clone();
        let actions = timeline(&net.log, &StreamConfig::default());
        let split = actions.len() / 2;
        let mut warmup_log = ActionLog::new();
        for a in &actions[..split] {
            match &a.event {
                StreamEvent::Item(item) => {
                    warmup_log.push_item(item.origin, item.keywords.clone());
                }
                StreamEvent::Trial(t) => warmup_log.push_trial(t.item, t.src, t.dst, t.activated),
            }
        }
        let m0 = TicEm::new(opts.clone()).fit(&warmup_log, vocab.clone(), names.clone());
        // min_change = 1.0: no learned entry (EM clamps below 1) ever
        // clears, and a served entry of exactly 1.0 always drops
        let mut learner = WindowedLearner::new(
            opts.clone(),
            vocab.clone(),
            names.clone(),
            warmup_log,
            m0,
            NewEdgePolicy::Defer,
            1.0,
        );
        for a in &actions[split..] {
            learner.observe(a);
        }
        let learned = TicEm::new(opts)
            .fit_warm(learner.log(), vocab, names, learner.learned())
            .graph;
        // serve every learned edge; on each edge with a topic the learned
        // row lacks, add that topic at 1.0 — alone on every third such
        // edge (its blend empties), next to the learned row otherwise
        // (its blend is the learned row)
        let mut served = GraphBuilder::new(learned.num_topics());
        let mut want = GraphBuilder::new(learned.num_topics());
        for name in learner.node_names.iter() {
            served.add_node(name.clone());
            want.add_node(name.clone());
        }
        let (mut extended, mut emptied) = (0, 0);
        for e in learned.edges() {
            let (u, v) = learned.edge_endpoints(e).unwrap();
            let row: Vec<(usize, f64)> = learned
                .edge_topic_probs(e)
                .map(|(z, p)| (z.index(), p as f64))
                .collect();
            let extra = (0..learned.num_topics()).find(|z| row.iter().all(|r| r.0 != *z));
            let mut served_row = row.clone();
            if let Some(z) = extra {
                extended += 1;
                if extended % 3 == 0 {
                    emptied += 1;
                    served_row.clear();
                } else {
                    want.add_edge(u, v, &row).unwrap();
                }
                served_row.push((z, 1.0));
            } else {
                want.add_edge(u, v, &row).unwrap();
            }
            served.add_edge(u, v, &served_row).unwrap();
        }
        assert!(emptied >= 2, "the window must empty rows between kept rows");
        learner.shadow = served.build().unwrap();
        let w = learner.fit_window().unwrap();
        let empties: Vec<u32> = w
            .deltas
            .iter()
            .filter_map(|d| match d {
                GraphDelta::SetWeights { edge, probs } if probs.is_empty() => Some(edge.0),
                _ => None,
            })
            .collect();
        assert_eq!(learner.shadow(), &want.build().unwrap());
        assert_eq!(empties.len(), emptied);
        assert!(empties.windows(2).all(|p| p[0] > p[1]), "highest id first");
    }
}
