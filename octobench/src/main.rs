use octobench::json::Json;
use octobench::run::{run, Args, Outcome};
use octobench::spec::{self, END_TO_END, PER_LAYER};
use octobench::world::{Scale, WorkloadId};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
octobench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <full|smoke>] [--out <dir>]
octobench suite [--seed <n>] [--seconds <s>] [--scale <full|smoke>] [--out <dir>]
octobench compare <a.json> <b.json>
octobench manifest        BENCHMARK.json, as generated from src/spec.rs
octobench metrics         every metric with its bound, native workloads and prediction

workloads: serve_uniform serve_sharded serve_churn ingest_loop restart";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.get("seed") else {
            return Ok(spec::DEFAULT_SEED);
        };
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map_err(|e| format!("--seed {text}: {e}"))
    }

    fn seconds(&self) -> Result<f64, String> {
        let text = self.get("seconds");
        let secs = text.map_or(Ok(spec::RUN_SECONDS as f64), str::parse);
        match secs {
            Ok(s) if s > 0.0 && s <= 60.0 => Ok(s),
            _ => Err(format!(
                "--seconds {}: want 0 < s <= 60",
                text.unwrap_or("")
            )),
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.get("scale") {
            None | Some("full") => Ok(Scale::Full),
            Some("smoke") => Ok(Scale::Smoke),
            Some(other) => Err(format!("--scale {other}: want full or smoke")),
        }
    }

    /// `octobench/out` from the repository root (where the driver runs
    /// the command), `out` from inside the crate.
    fn out(&self) -> PathBuf {
        match self.get("out") {
            Some(dir) => PathBuf::from(dir),
            None if Path::new("octobench").is_dir() => PathBuf::from("octobench/out"),
            None => PathBuf::from("out"),
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, (value, _))| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
}

fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match flags.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: want 0 or 1")),
    };
    // one busy thread: the load runs on this one and the rayon pool is
    // pinned to one. The stand-in reads the variable once, so it is set
    // before any engine call.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = Args {
        workload,
        seed: flags.seed()?,
        seconds: flags.seconds()?,
        trace,
        scale: flags.scale()?,
        out: flags.out(),
    };
    let outcome = run(&args)?;
    println!(
        "# {name} seed {:#x} {} s {} — {} operations, {} failed",
        args.seed,
        args.seconds,
        if trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for (metric, (value, n)) in &outcome.metrics {
        println!("{metric:<44} {value:>16.6} {:<6} n={n}", unit_of(metric));
    }
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    println!("{}", result_json(&outcome).render());
    Ok(outcome.correct())
}

/// Run every workload untraced then traced, one process each, and write
/// `<out>/results.json`.
fn suite(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = flags.out();
    let (seed, seconds) = (flags.seed()?, flags.seconds()?);
    let mut sections = Vec::new();
    let mut all_correct = true;
    for (section, trace) in [("workloads", "0"), ("traced", "1")] {
        let mut results = Vec::new();
        for workload in WorkloadId::ALL {
            eprintln!("== {} --trace {trace}", workload.name());
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--scale", flags.get("scale").unwrap_or("full")])
                .arg("--out")
                .arg(&out)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or("");
            let result = Json::parse(line)
                .map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
            all_correct &=
                output.status.success() && result.get("correct") == Some(&Json::Bool(true));
            results.push((workload.name(), result));
        }
        sections.push((section, Json::obj(results)));
    }
    let mut doc = vec![
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ];
    doc.extend(sections);
    let path = out.join("results.json");
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, Json::obj(doc).pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, within) = octobench::compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(within)
}

/// What `BENCHMARK.json` has no keys for: where each gated metric is
/// native, and which end-to-end metric each layer metric should move.
fn print_metrics() {
    println!(
        "default seed {:#x}, held-out seed {:#x}, {} s per run\n",
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED,
        spec::RUN_SECONDS
    );
    println!("end-to-end (gated): name, unit, better, bound, native on, what");
    for m in END_TO_END {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            m.native,
            m.what
        );
    }
    println!("\nper-layer (traced): name, unit, better, should move");
    for m in PER_LAYER {
        println!("{}\t{}\t{}\t{}", m.name, m.unit, m.better.label(), m.moves);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Some("metrics") => {
            print_metrics();
            return ExitCode::SUCCESS;
        }
        Some("compare") => compare(&args[1..]),
        Some("suite") => Flags::parse(&args[1..]).and_then(|f| suite(&f)),
        Some(_) => Flags::parse(&args).and_then(|f| run_one(&f)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("octobench: {message}");
            ExitCode::from(2)
        }
    }
}
