//! End-to-end and per-layer benchmark of an stcam cluster.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload live|archive --seed N --seconds S --trace 0|1
//! ```
//!
//! The command boots an in-process cluster (8 workers, LAN link model,
//! 8 km extent), drives one workload against it with two load threads
//! (ingest and reads; see `workload`), checks every answer it can against
//! a centralized oracle, and prints one JSON object as its last line of output: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run measures half its time
//! untraced and half traced, reports the per-layer metrics and the
//! tracing overhead, and writes its spans to `perfbench/out/`.

mod api;
mod gen;
mod json;
mod layers;
mod reads;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use json::Json;

/// The options every run takes.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end result of one measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts and generator lateness, for the report line.
    pub notes: Vec<(String, Json)>,
}

impl Phase {
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// One correctness check and its outcome.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

pub fn check(name: &'static str, passed: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        passed,
        detail: detail.into(),
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every set-up time, seconds; `setup_s` is their median.
    pub setup_samples: Vec<f64>,
    /// Peak resident set size at the end of measurement, MB.
    pub peak_rss_mb: f64,
    /// The untraced phase (the whole run with `--trace 0`).
    pub plain: Phase,
    /// The traced phase and per-layer metrics (`--trace 1` only).
    pub traced: Option<(Phase, Vec<Metric>)>,
    pub checks: Vec<Check>,
}

/// Runs `setup` once and times it, in seconds.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let state = setup();
    (state, start.elapsed().as_secs_f64())
}

/// Times `n` further set-ups, tearing each down at once. Workloads run
/// these after measuring: memory the allocator keeps from a torn-down
/// cluster would otherwise count towards `peak_rss_mb`.
pub fn more_setups<T>(
    n: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let (state, seconds) = timed(&mut setup);
            teardown(state);
            seconds
        })
        .collect()
}

pub fn median(values: &[f64]) -> f64 {
    let mut s = stats::Samples::default();
    for &v in values {
        s.push(v);
    }
    s.p50()
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory, read from `.git` directly
/// (no child process); "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload live|archive --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let regime = match args.workload.as_str() {
        "live" => &workload::LIVE,
        "archive" => &workload::ARCHIVE,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} git_rev={} host_cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        host_cores
    );
    trace::set_recording(false);
    let outcome = workload::run(regime, &args);

    for c in &outcome.checks {
        println!(
            "check {:<28} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let correct = outcome.checks.iter().all(|c| c.passed);
    let mut e2e = vec![
        metric("setup_s", median(&outcome.setup_samples), "s"),
        metric("peak_rss_mb", outcome.peak_rss_mb, "MB"),
    ];
    e2e.extend(outcome.plain.metrics.iter().cloned());
    let mut attempted = outcome.plain.attempted;
    let mut failed = outcome.plain.failed;
    let mut report = vec![
        ("workload".to_string(), Json::str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed)),
        ("git_rev".to_string(), Json::str(git_rev())),
        ("host_cores".to_string(), Json::Int(host_cores as u64)),
        (
            "setup_samples_s".to_string(),
            Json::Arr(
                outcome
                    .setup_samples
                    .iter()
                    .map(|&s| Json::Num(s))
                    .collect(),
            ),
        ),
        ("end_to_end".to_string(), metrics_json(&e2e)),
    ];
    report.extend(outcome.plain.notes.iter().cloned());

    let metrics = match &outcome.traced {
        None => e2e,
        Some((traced, layer_metrics)) => {
            attempted += traced.attempted;
            failed += traced.failed;
            let spans = trace::take();
            let path = std::path::PathBuf::from(format!(
                "perfbench/out/spans-{}-{}.jsonl",
                args.workload, args.seed
            ));
            match trace::write(&path, &spans) {
                Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
                Err(e) => eprintln!(
                    "perfbench: could not write spans to {}: {e}",
                    path.display()
                ),
            }
            let mut layer_metrics = layer_metrics.clone();
            layer_metrics.extend(layers::overhead(&outcome.plain, traced));
            layer_metrics.push(metric("trace.spans", spans.len() as f64, "count"));
            layers::print_overhead(&outcome.plain, traced);
            layers::print_table(&args.workload, &layer_metrics);
            layers::print_spans(&spans);
            report.push((
                "traced_end_to_end".to_string(),
                metrics_json(&traced.metrics),
            ));
            layer_metrics
        }
    };
    let correct = correct && attempted > 0;
    println!(
        "ops: {failed} failed or refused of {attempted} attempted ({:.4}%)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    report.push((
        "failed_share".to_string(),
        Json::Num(failed as f64 / attempted.max(1) as f64),
    ));
    println!("report {}", Json::obj(report).render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
}

/// `seconds` as a `Duration`.
pub fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}
