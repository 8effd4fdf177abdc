//! `chimera-bench`: the repo's benchmark. See `benchmark/README.md`.
//!
//! With `--workload W` it runs that workload in this process and ends with
//! the one-line JSON result the driver reads. Without, it runs every
//! workload — end to end, then traced — each in a child process of its own,
//! so that peak RSS, the global kernel counters and the thread-local pools
//! are per workload.

mod host;
mod layers;
mod plan;
mod report;
mod spans;
mod spec;
mod stats;
mod traced;
mod train;
mod walk;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::Value;
use spec::Kind;

/// Seconds one full run measures (`run_seconds` in `BENCHMARK.json`).
const FULL_SECONDS: f64 = 22.0;
/// Seconds a `--smoke` run measures.
const SMOKE_SECONDS: f64 = 0.3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Where a single traced workload writes its spans.
    trace_out: Option<PathBuf>,
    /// Where a single end-to-end run writes each operation's time as
    /// measured, the pacing probe's around it, and the time normalised.
    series_out: Option<PathBuf>,
    /// Single workload: print `null`, not 0, for what this machine cannot
    /// measure (the all-workload mode asks its children for this).
    null_unmeasured: bool,
    /// All-workload mode: sets of runs to make.
    repeat: u32,
    /// All-workload mode: short runs that write nothing.
    smoke: bool,
    /// All-workload mode: where the results document goes.
    out: Option<PathBuf>,
    /// All-workload mode: directory for `<workload>.json` traces.
    traces: Option<PathBuf>,
}

const USAGE: &str = "usage: chimera-bench --workload W [--seed S] [--seconds T] [--trace 0|1] [--trace-out FILE] [--series-out FILE] [--null-unmeasured]
       chimera-bench [--seed S] [--seconds T] [--repeat R] [--smoke] [--out FILE] [--traces DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: FULL_SECONDS,
        traced: false,
        trace_out: None,
        series_out: None,
        null_unmeasured: false,
        repeat: 1,
        smoke: false,
        out: None,
        traces: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--series-out" => args.series_out = Some(PathBuf::from(value()?)),
            "--null-unmeasured" => args.null_unmeasured = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--traces" => args.traces = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.smoke {
        if args.out.is_some() || args.traces.is_some() {
            return Err("--smoke writes nothing: only full runs are kept".to_string());
        }
        args.seconds = SMOKE_SECONDS;
    }
    Ok(args)
}

/// Run one workload in this process; a traced run also returns its spans.
fn run_workload(w: &spec::Workload, args: &Args) -> (report::Outcome, Option<spans::Spans>) {
    let (seed, seconds) = (args.seed, args.seconds);
    let traced = |(out, spans)| (out, Some(spans));
    match (w.kind, w.training, args.traced) {
        (Kind::Sequential, Some(t), false) => (train::sequential(&t, seed, seconds), None),
        (Kind::Sequential, Some(t), true) => traced(traced::sequential(&t, seed, seconds)),
        (Kind::Pipeline | Kind::Tcp, Some(t), false) => {
            (train::pipelined(w, &t, seed, seconds), None)
        }
        (Kind::Pipeline | Kind::Tcp, Some(t), true) => {
            traced(traced::pipelined(w, &t, seed, seconds))
        }
        (Kind::Plan, _, false) => (plan::end_to_end(seed, seconds), None),
        (Kind::Plan, _, true) => traced(plan::traced(seed, seconds)),
        (_, None, _) => unreachable!("training workloads carry a shape"),
    }
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload W`: the run the driver makes.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let w = spec::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let (out, recorded) = run_workload(w, args);
    report::print_human(w.name, &out, args.traced);
    if let (Some(path), Some(recorded)) = (&args.trace_out, &recorded) {
        write_file(path, &spans::to_json(w.name, recorded.spans()))?;
    }
    if let Some(path) = &args.series_out {
        let lines: String = out
            .series
            .iter()
            .map(|[raw, pace, normalised]| format!("{raw},{pace},{normalised}\n"))
            .collect();
        write_file(path, &format!("raw_s,pace_s,normalised_s\n{lines}"))?;
    }
    println!(
        "{}",
        report::result_json(&out, args.traced, args.null_unmeasured)
    );
    Ok(out.failed == 0)
}

/// Run one workload in a child process and parse its result line.
fn child(w: &spec::Workload, args: &Args, seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--null-unmeasured");
    if let (true, Some(dir)) = (traced, &args.traces) {
        cmd.arg("--trace-out")
            .arg(dir.join(format!("{}.json", w.name)));
    }
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{}: no result line", w.name))?;
    println!("{human}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    serde_json::from_str(line).map_err(|e| format!("{}: result line: {e}", w.name))
}

/// Per-layer metrics that are counts of work fixed by the shapes alone, so
/// two runs of the same code must report the same value.
const EXACT: [&str; 12] = [
    "tensor.gemm_calls_per_step",
    "tensor.gemm_gflop_per_step",
    "tensor.pack_calls_per_step",
    "tensor.pack_melems_per_step",
    "runtime.ops_per_step",
    "runtime.peak_tracked_mb",
    "comm.msgs_per_step",
    "collectives.reduce_elems_per_step",
    "core.ops_per_worker",
    "core.bubble_ratio",
    "core.bubble_ratio_d4",
    "core.bubble_ratio_d8",
];

/// Metric name → one value per set (`None`: unmeasured on this machine).
type PerSet = BTreeMap<String, Vec<Option<f64>>>;

/// Every workload in its own child process, `args.repeat` sets of an
/// end-to-end and a traced run each. Sets are interleaved across workloads
/// so that host drift hits every workload alike; set `r` runs with seed
/// `seed + r`.
fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut values: BTreeMap<(&str, bool), PerSet> = BTreeMap::new();
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for set in 0..args.repeat {
        for w in &spec::WORKLOADS {
            for traced in [false, true] {
                let result = child(w, args, args.seed + u64::from(set), traced)?;
                let (attempted, failed) = totals.entry(w.name).or_default();
                *attempted += result["attempted"].as_u64().unwrap_or(0);
                *failed += result["failed"].as_u64().unwrap_or(1);
                ok &= result["correct"].as_bool() == Some(true);
                let metrics = result["metrics"]
                    .as_object()
                    .ok_or("metrics is not an object")?;
                for (name, m) in metrics.iter() {
                    values
                        .entry((w.name, traced))
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(m["value"].as_f64());
                }
            }
        }
    }

    let mut workloads = serde_json::Map::new();
    for w in &spec::WORKLOADS {
        let section = |traced: bool| -> Value {
            let mut section = serde_json::Map::new();
            for (name, unit) in report::declared(traced) {
                let v = &values[&(w.name, traced)][name];
                let known: Vec<f64> = v.iter().flatten().copied().collect();
                let mut entry = serde_json::json!({
                    "unit": unit,
                    "value": (!known.is_empty()).then(|| stats::median(&known)),
                });
                if args.repeat > 1 && !known.is_empty() {
                    let (q1, _, q3) = stats::quartiles(&known);
                    entry["q1"] = serde_json::json!(q1);
                    entry["q3"] = serde_json::json!(q3);
                    entry["spread"] = serde_json::json!(stats::spread(&known));
                }
                section.insert(name.to_string(), entry);
            }
            Value::Object(section)
        };
        let (attempted, failed) = totals[w.name];
        workloads.insert(
            w.name.to_string(),
            serde_json::json!({
                "why": w.why,
                "gated": w.gated,
                "attempted": attempted,
                "failed": failed,
                "fail_share": failed as f64 / attempted.max(1) as f64,
                "end_to_end": section(false),
                "per_layer": section(true),
            }),
        );
    }

    if args.repeat > 1 {
        println!(
            "\n== {} sets: median [q1, q3] spread vs bound ==",
            args.repeat
        );
        for w in &spec::WORKLOADS {
            for (name, unit, _, bound) in report::END_TO_END {
                let known: Vec<f64> = values[&(w.name, false)][name]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                let (q1, med, q3) = stats::quartiles(&known);
                let spread = stats::spread(&known);
                // `setup_s` is gated on its median only, never on its spread.
                let verdict = if spread <= bound || name == "setup_s" {
                    "agree"
                } else {
                    "DISAGREE"
                };
                let gated = if w.gated { "" } else { " (not gated)" };
                println!(
                    "{:<13} {name:<12} {med:>12.4} [{q1:.4}, {q3:.4}] {unit:<4} spread {:.3} bound {bound:.2} {verdict}{gated}",
                    w.name, spread
                );
                ok &= verdict == "agree" || !w.gated;
            }
            for name in EXACT {
                let v = &values[&(w.name, true)][name];
                if v.iter().any(|x| x != &v[0]) {
                    println!(
                        "{:<13} {name}: exact count differs between sets: {v:?}",
                        w.name
                    );
                    ok = false;
                }
            }
        }
    }

    if let Some(path) = &args.out {
        let doc = serde_json::json!({
            "schema": "chimera-bench/results/v1",
            "seed": args.seed,
            "seconds": args.seconds,
            "sets": args.repeat,
            "host": host::describe(),
            "workloads": Value::Object(workloads),
        });
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        write_file(path, &(text + "\n"))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("chimera-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "seq_gemm",
            "--seed",
            "7",
            "--seconds",
            "22",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("seq_gemm"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 22.0, true));
    }

    #[test]
    fn smoke_runs_are_short_and_write_nothing() {
        assert_eq!(parse(&["--smoke"]).unwrap().seconds, SMOKE_SECONDS);
        assert!(parse(&["--smoke", "--out", "x.json"]).is_err());
        assert!(parse(&["--trace", "yes"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
    }

    #[test]
    fn exact_metrics_are_declared_per_layer_metrics() {
        for name in EXACT {
            assert!(report::PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        }
    }
}
