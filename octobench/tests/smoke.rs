//! Every workload, untraced and traced, at `--scale smoke`: the command
//! prints each declared metric exactly once with a finite value and its
//! unit, fails no operation, writes a span file in which every child lies
//! inside its parent, and explains at least 80 % of the served time.

use octobench::json::Json;
use octobench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::Ordering::SeqCst;

const BIN: &str = env!("CARGO_BIN_EXE_octobench");

/// Run one workload; returns its standard output.
fn run(workload: &str, trace: bool, out: &Path) -> String {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--scale", "smoke", "--seconds", "1"])
        .args(["--seed", "7", "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("octobench runs");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Check the table and the result line against the declared metrics;
/// returns the result object.
fn check(stdout: &str, declared: &[(&str, &str)], what: &str) -> Json {
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{what}"
    );
    assert!(stdout.contains("\nops_failed 0\n"), "{what}");
    let metrics = result.get("metrics").expect("metrics");
    assert_eq!(
        metrics.entries().len(),
        declared.len(),
        "{what}: metric count"
    );
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{what}: {name}"
        );
        let printed = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name))
            .count();
        assert_eq!(printed, 1, "{what}: {name} printed {printed} times");
    }
    result
}

fn check_spans(path: &Path, what: &str) {
    use std::collections::HashMap;
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let num = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).expect("span field");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("span line parses"))
        .collect();
    assert!(!spans.is_empty(), "{what}: no spans");
    let by_id: HashMap<u64, &Json> = spans.iter().map(|s| (num(s, "id") as u64, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "{what}: span ids are unique");
    for s in &spans {
        assert!(num(s, "start_ns") <= num(s, "end_ns"), "{what}: {s:?}");
        assert!(s.get("name").and_then(Json::as_str).is_some());
        let parent = num(s, "parent") as u64;
        if parent != 0 {
            let p = by_id
                .get(&parent)
                .unwrap_or_else(|| panic!("{what}: parent {parent} missing"));
            assert_eq!(num(p, "req"), num(s, "req"), "{what}: one request per tree");
            assert!(
                num(p, "start_ns") <= num(s, "start_ns") && num(s, "end_ns") <= num(p, "end_ns"),
                "{what}: child {s:?} outside parent {p:?}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let out = std::env::temp_dir().join(format!("octobench-smoke-{}", std::process::id()));
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    // two workloads at a time: each is a process with one busy thread, and
    // more of them than cores would starve the open loop into missing its SLO
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workload = |w: &octobench::spec::Workload| {
        let untraced = check(&run(w.name, false, &out), &end_to_end, w.name);
        for (name, _) in &end_to_end {
            let v = untraced.get("metrics").and_then(|m| m.get(name));
            let v = v.and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(v > Some(0.0), "{}: {name} is never 0, got {v:?}", w.name);
        }
        let what = format!("{} traced", w.name);
        let traced = check(&run(w.name, true, &out), &per_layer, &what);
        check_spans(&out.join(format!("{}.spans.jsonl", w.name)), &what);
        let coverage = traced
            .get("metrics")
            .and_then(|m| m.get("trace.coverage"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("trace.coverage");
        assert!(coverage >= 0.8, "{what}: trace.coverage {coverage}");
        (w.name, untraced)
    };
    let mut results: Vec<(&str, Json)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(w) = WORKLOADS.get(next.fetch_add(1, SeqCst)) {
                        done.push(workload(w));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("workload thread"))
            .collect()
    });
    results.sort_by_key(|(name, _)| WORKLOADS.iter().position(|w| w.name == *name));

    // `compare` of a result file with itself: every cell within its bound
    let file = out.join("results.json");
    let doc = Json::obj([("workloads", Json::obj(results))]);
    std::fs::write(&file, doc.pretty()).expect("results file");
    let same = Command::new(BIN)
        .arg("compare")
        .args([&file, &file])
        .output()
        .expect("compare runs");
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seed", "1"],
        &["--workload", "restart", "--trace", "2"],
    ] {
        let output = Command::new(BIN)
            .args(args)
            .output()
            .expect("octobench runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
