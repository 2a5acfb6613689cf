//! The ingest driver: replay the stamped tail of the action stream through
//! `WindowedLearner::observe` / `fit_window` and hand each window's deltas
//! to `IngestPipeline::submit_window`. It takes turns with the query
//! client, a few windows at a time, so the client's queries are answered
//! by the epochs the windows before them produced.

use crate::chain::Recorder;
use crate::spec;
use crate::world::Learn;
use octopus_core::serve::{IngestPipeline, IngestStats, TopicBatcher};
use octopus_data::stream::Action;
use octopus_data::{NewEdgePolicy, WindowedLearner};
use octopus_graph::TopicGraph;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct IngestSamples {
    /// Window close → its last swap landed.
    pub window_lag_ms: Vec<f64>,
    pub fit_ms: Vec<f64>,
    pub observe_us_per_action: Vec<f64>,
    pub deltas_per_window: Vec<f64>,
    pub batches_per_window: Vec<f64>,
    pub topics_per_batch: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub deferred_edges: u64,
    /// Actions folded into a served epoch by timed windows.
    pub actions_served: u64,
    /// Windows attempted / failed (a fit or a flush that errored).
    pub attempted: u64,
    pub failed: u64,
}

pub struct Ingest<'a> {
    learner: WindowedLearner,
    pipeline: IngestPipeline<'a>,
    tail: Vec<Action>,
    cursor: usize,
    window: usize,
    /// Time `TopicBatcher::plan` on its own (traced runs).
    time_plan: bool,
    pub samples: IngestSamples,
}

impl<'a> Ingest<'a> {
    pub fn new(
        recorder: &'a Recorder<'a>,
        learn: Learn,
        total_topics: usize,
        time_plan: bool,
    ) -> Self {
        let window = (learn.tail.len() / spec::INGEST_WINDOWS).max(1);
        // 0.005: sub-threshold moves keep the served value bitwise (and
        // accumulate), so a delta's footprint is the topics that moved
        let learner = WindowedLearner::new(
            learn.opts,
            learn.vocab,
            learn.names,
            learn.warmup_log,
            learn.warm,
            NewEdgePolicy::Defer,
            0.005,
        );
        let pipeline = IngestPipeline::new(recorder, spec::INGEST_TOPIC_CAP, total_topics)
            .with_flush_budget(spec::INGEST_FLUSH_BUDGET);
        Ingest {
            learner,
            pipeline,
            tail: learn.tail,
            cursor: 0,
            window,
            time_plan,
            samples: IngestSamples::default(),
        }
    }

    /// Observe, fit and submit one window; `false` once the tail is spent.
    fn step(&mut self) -> bool {
        let Some(chunk) = self
            .tail
            .get(self.cursor..(self.cursor + self.window).min(self.tail.len()))
            .filter(|c| !c.is_empty())
        else {
            return false;
        };
        self.cursor += chunk.len();
        let s = &mut self.samples;
        s.attempted += 1;
        let t0 = Instant::now();
        for action in chunk {
            self.learner.observe(action);
        }
        s.observe_us_per_action
            .push(t0.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
        let watermark = chunk.last().map_or(0, |a| a.at_ms);
        let pre = self.learner.shadow().clone();
        let closed = Instant::now();
        let outcome = match self.learner.fit_window() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ingest: window fit failed: {e}");
                s.failed += 1;
                return true;
            }
        };
        s.fit_ms.push(closed.elapsed().as_secs_f64() * 1e3);
        s.deltas_per_window.push(outcome.deltas.len() as f64);
        s.deferred_edges += outcome.edges_deferred as u64;
        if self.time_plan {
            let t0 = Instant::now();
            let plan = TopicBatcher::new(spec::INGEST_TOPIC_CAP).plan(&outcome.deltas, &pre);
            std::hint::black_box(plan);
            s.plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let actions = chunk.len() as u64;
        match self
            .pipeline
            .submit_window(outcome.deltas, &pre, actions, watermark, closed)
        {
            Ok(report) => {
                s.window_lag_ms.push(report.latency.as_secs_f64() * 1e3);
                s.batches_per_window.push(report.batches as f64);
                if report.batches > 0 {
                    s.topics_per_batch
                        .push(report.topics_touched as f64 / report.batches as f64);
                }
                s.actions_served += actions;
            }
            Err(e) => {
                eprintln!("ingest: window flush failed: {e}");
                s.failed += 1;
            }
        }
        true
    }

    /// Untimed windows that fill the donor directory; their samples are
    /// dropped, their deltas stay served.
    pub fn prefill(&mut self) {
        for _ in 0..spec::INGEST_PREFILL_WINDOWS {
            self.step();
        }
        let failed = self.samples.failed;
        self.samples = IngestSamples {
            failed,
            ..Default::default()
        };
    }

    /// Ingest windows (at least one) until `deadline` or the end of the
    /// tail; returns the seconds it ran.
    pub fn run(&mut self, deadline: Instant) -> f64 {
        let start = Instant::now();
        while self.step() && Instant::now() < deadline {}
        start.elapsed().as_secs_f64()
    }

    /// The graph the service must hold once every window has landed.
    pub fn expected_graph(&self) -> &TopicGraph {
        self.learner.shadow()
    }

    pub fn pipeline_stats(&self) -> &IngestStats {
        self.pipeline.stats()
    }
}
