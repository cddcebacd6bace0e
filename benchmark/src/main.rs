//! The repo's serving benchmark.
//!
//! ```text
//! cgraph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cgraph-benchmark run [--seed n] [--seconds s] [--repeat r] [--traced] [--smoke] [--label l]
//! cgraph-benchmark calibrate [--seed n] [--seconds s] [--runs r] [--label l]
//! cgraph-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: one workload,
//! one process, one JSON object as the last line of standard output.
//! `run` drives that form once per workload and seed, each in a child
//! process of its own, and keeps the values in a result file;
//! `calibrate` and `compare` read result files. See `README.md`.

mod drive;
mod host;
mod json;
mod metrics;
mod oracle;
mod probes;
mod report;
mod spans;
mod stats;
mod streams;
mod workload;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use report::ResultSet;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::{RunOptions, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, the default window.
const DEFAULT_SECONDS: u64 = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(run_all),
        Some("calibrate") => Flags::parse(&args[1..]).and_then(calibrate),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(run_one),
        _ => Err(usage()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  cgraph-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  cgraph-benchmark run [--seed n] [--seconds s] [--repeat r] [--traced] [--smoke] [--label l]\n  cgraph-benchmark calibrate [--seed n] [--seconds s] [--runs r] [--label l]\n  cgraph-benchmark compare <a.json> <b.json>",
        names.join("|")
    )
}

#[derive(Clone, Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    /// Window length; `None` = the default (1 s under `--smoke`).
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: u64,
    label: String,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut f = Flags {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            repeat: 1,
            label: "run".into(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value =
                || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
            fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
                v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
            }
            match flag.as_str() {
                "--workload" => f.workload = Some(value()?.clone()),
                "--seed" => f.seed = num(flag, value()?)?,
                "--seconds" => f.seconds = Some(num(flag, value()?)?),
                "--trace" => f.trace = num::<u8>(flag, value()?)? != 0,
                "--traced" => f.trace = true,
                "--smoke" => f.smoke = true,
                "--repeat" | "--runs" => f.repeat = num(flag, value()?)?,
                "--label" => f.label = value()?.clone(),
                other => return Err(format!("unknown flag {other}\n{}", usage())),
            }
        }
        if !(f.seconds() > 0.0 && f.seconds() <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        if f.repeat == 0 {
            return Err("--repeat must be at least 1".into());
        }
        Ok(f)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { DEFAULT_SECONDS as f64 })
    }
}

/// The contract form: one workload in this process.
fn run_one(flags: Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().ok_or_else(usage)?;
    let spec = workload::spec_by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
    let opts = RunOptions {
        seed: flags.seed,
        window: Duration::from_secs_f64(flags.seconds()),
        traced: flags.trace,
        smoke: flags.smoke,
    };
    let outcome = workload::run(spec, &opts)?;
    let (values, catalogue) = if flags.trace {
        (&outcome.per_layer, &PER_LAYER[..])
    } else {
        (&outcome.end_to_end, &END_TO_END[..])
    };

    println!("workload {name} ({})", spec.why);
    for note in &outcome.notes {
        println!("  {note}");
    }
    let listed: Vec<(String, f64)> =
        catalogue.iter().map(|d| (d.name.to_string(), values.get(d.name).unwrap_or(0.0))).collect();
    print!("{}", report::metric_lines(&listed, catalogue));
    let failed = outcome.failed.min(outcome.attempted);
    println!(
        "  fail_ratio {} of {} attempted = {}",
        failed,
        outcome.attempted,
        failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", values.to_json(catalogue)),
    ]);
    println!("{}", line.write());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs the contract form in a child process and returns its values.
fn child_run(
    name: &str,
    seed: u64,
    flags: &Flags,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &flags.seconds().to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stdout(Stdio::piped());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("{l}");
    }
    if !output.status.success() {
        return Err(format!(
            "{name} (seed {seed}, trace {}) exited with {}: {last}",
            u8::from(trace),
            output.status
        ));
    }
    let doc = Json::parse(last)
        .map_err(|e| format!("{name}: last line is not the result object ({e}): {last}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{name}: result is not correct: {last}"));
    }
    let metrics =
        doc.get("metrics").and_then(Json::as_obj).ok_or_else(|| format!("{name}: no metrics"))?;
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

fn collect(flags: &Flags) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        label: flags.label.clone(),
        seconds: flags.seconds() as u64,
        seeds: (0..flags.repeat).map(|i| flags.seed + i).collect(),
        ..Default::default()
    };
    for &seed in &set.seeds.clone() {
        for w in &WORKLOADS {
            let end_to_end = child_run(w.name, seed, flags, false)?;
            let per_layer =
                if flags.trace { child_run(w.name, seed, flags, true)? } else { Vec::new() };
            set.push(w.name, &end_to_end, &per_layer);
        }
    }
    let path = workload::out_dir().join(format!("result-{}.json", flags.label));
    set.save(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(set)
}

/// `run`: every workload, each in a child process; with `--traced`
/// each a second time with the trace on, then the separation report.
fn run_all(flags: Flags) -> Result<ExitCode, String> {
    if flags.smoke {
        unit_tests()?;
    }
    let set = collect(&flags)?;
    if flags.trace {
        print!("{}", report::separation(&set));
    }
    Ok(ExitCode::SUCCESS)
}

/// The crate's unit tests, as `--smoke` runs them before the
/// workloads: `cargo test` on the benchmark's own manifest.
fn unit_tests() -> Result<(), String> {
    let manifest = workload::bench_dir().join("Cargo.toml");
    let status = Command::new("cargo")
        .args(["test", "--offline", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo test: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("unit tests failed ({status})"))
    }
}

/// `calibrate`: `--runs` runs per workload, each with another seed —
/// the driver's own acceptance procedure — then the table of
/// spreads against the bounds of `BENCHMARK.json`.
fn calibrate(mut flags: Flags) -> Result<ExitCode, String> {
    if flags.repeat == 1 {
        flags.repeat = 10;
    }
    if flags.label == "run" {
        flags.label = "calibration".into();
    }
    let bounds = report::load_bounds(&workload::manifest_path())?;
    let set = collect(&flags)?;
    let table = report::calibration_table(&set, &bounds);
    println!(
        "\n{} runs per workload, seeds {:?}, {} s windows\n\n{table}",
        flags.repeat,
        set.seeds,
        flags.seconds()
    );
    let path = workload::out_dir().join(format!("calibration-{}.md", flags.label));
    std::fs::write(&path, &table).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("table: {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let bounds = report::load_bounds(&workload::manifest_path())?;
    let (a, b) = (ResultSet::load(Path::new(a))?, ResultSet::load(Path::new(b))?);
    let (table, worse) = report::compare(&a, &b, &bounds);
    print!("{table}");
    Ok(if worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
