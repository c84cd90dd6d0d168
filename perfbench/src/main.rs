//! End-to-end and per-layer benchmark of the SCRATCH workspace.
//!
//! ```text
//! scratch-perfbench --workload <serve-small|serve-preempt|sim-apps>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! scratch-perfbench --self-test
//! ```
//!
//! A run prints human-readable lines, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric of `BENCHMARK.json` with `--trace 0`, every
//! per-layer metric with `--trace 1`. `--self-test` runs every workload
//! for one round in both modes and fails on any failed operation or
//! check. See `README.md` beside this crate.

mod apps;
mod daemon;
mod layers;
mod os;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use stats::Outcome;

/// Where runs keep their scratch files (WAL directories, span JSONL),
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench_out";

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["serve-small", "serve-preempt", "sim-apps"];

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// Length of the timed phase; runs end at the first round boundary
    /// after it (at least one round).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The scratch directory, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    Ok(dir)
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must lie in 0..=3600".to_owned());
    }
    Ok(RunArgs {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let outcome = match args.workload.as_str() {
        "serve-small" => serve::run(&serve::SMALL, args)?,
        "serve-preempt" => serve::run(&serve::PREEMPT, args)?,
        _ => apps::run(args)?,
    };
    check_names(&outcome, args.trace)?;
    Ok(outcome)
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = match &json {
        Value::Object(map) => map.get(key),
        _ => None,
    };
    let Some(Value::Array(list)) = list else {
        return Err(format!("BENCHMARK.json has no `{key}` list"));
    };
    list.iter()
        .map(|m| match m {
            Value::Object(m) => match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
                _ => Err(format!("BENCHMARK.json: malformed `{key}` entry")),
            },
            _ => Err(format!("BENCHMARK.json: malformed `{key}` entry")),
        })
        .collect()
}

/// The run must report exactly the metrics `BENCHMARK.json` declares.
fn check_names(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    let want = declared(trace)?;
    if got != want {
        return Err(format!(
            "reported metrics differ from BENCHMARK.json:\n  reported {got:?}\n  declared {want:?}"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    Ok(())
}

/// The result line: one JSON object.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run every workload for one round, untraced and traced, through the
/// same code as a full run.
fn self_test() -> ExitCode {
    let mut bad = 0;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload: workload.to_owned(),
                seed: 1,
                seconds: 0.0,
                trace,
            };
            match run(&args) {
                Ok(o) if o.correct && o.failed == 0 => {
                    println!(
                        "self-test {workload} trace={trace}: ok, {} operations",
                        o.attempted
                    );
                }
                Ok(o) => {
                    bad += 1;
                    println!(
                        "self-test {workload} trace={trace}: FAILED (correct {}, {} of {} operations failed)",
                        o.correct, o.failed, o.attempted
                    );
                }
                Err(e) => {
                    bad += 1;
                    println!("self-test {workload} trace={trace}: FAILED: {e}");
                }
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        return match daemon::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let outcome = parse(&args).and_then(|a| run(&a));
    match outcome {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!(
                "attempted = {}, failed = {}",
                outcome.attempted, outcome.failed
            );
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scratch-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
