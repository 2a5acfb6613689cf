//! `octobench compare <a.json> <b.json>`: two result files of the same
//! suite, metric by metric. For every workload × end-to-end metric it
//! prints both values, how much worse `b` is than `a` (relative, in the
//! metric's own direction) and the bound, and fails when any cell is worse
//! by more than its bound.

use crate::json::Json;
use crate::spec::{Better, END_TO_END};

/// `workloads.<name>.metrics.<metric>.value` of a results file.
fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Returns the report and whether every cell stayed within its bound.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut report = format!(
        "{:<14} {:<26} {:>12} {:>12} {:>9} {:>6}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut within = true;
    let workloads = a.get("workloads").map(Json::entries).unwrap_or_default();
    for (workload, _) in workloads {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (value(a, workload, m.name), value(b, workload, m.name))
            else {
                report.push_str(&format!("{workload:<14} {:<26} missing\n", m.name));
                within = false;
                continue;
            };
            let worse = worsening(m.better, va, vb);
            let flag = if worse > m.bound { "  REGRESSION" } else { "" };
            within &= worse <= m.bound;
            report.push_str(&format!(
                "{workload:<14} {:<26} {va:>12.4} {vb:>12.4} {:>+8.1}% {:>5.0}%{flag}\n",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
    }
    if workloads.is_empty() {
        report.push_str("no workloads in the first file\n");
        within = false;
    }
    (report, within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(qps: f64, p50: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        let metrics = END_TO_END.iter().map(|m| {
            let v = match m.name {
                "query_qps" => qps,
                "find_influencers_p50_ms" => p50,
                _ => 1.0,
            };
            (m.name, metric(v))
        });
        Json::obj([(
            "workloads",
            Json::obj([(
                "serve_uniform",
                Json::obj([("metrics", Json::obj(metrics))]),
            )]),
        )])
    }

    #[test]
    fn flags_only_cells_past_their_bound() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (qps, p50) = (bound("query_qps"), bound("find_influencers_p50_ms"));
        let base = results(100.0, 50.0);
        let near = results(100.0 * (1.0 - 0.9 * qps), 50.0 * (1.0 + 0.9 * p50));
        assert!(compare(&base, &near).1, "within the bounds");
        assert!(compare(&base, &results(120.0, 30.0)).1, "better is fine");
        let (report, ok) = compare(&base, &results(100.0 * (1.0 - 1.2 * qps), 50.0));
        assert!(!ok && report.contains("REGRESSION"), "{report}");
        let slower = results(100.0, 50.0 * (1.0 + 1.2 * p50));
        assert!(!compare(&base, &slower).1, "latency past its bound");
        assert!(!compare(&base, &Json::obj([("workloads", Json::obj::<&str>([]))])).1);
    }
}
