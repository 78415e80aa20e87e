//! End-to-end benchmark of the ERAS workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <eras-search|serve-1m> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs in a child process of its own, so its peak RSS is
//! its own. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer split with `--trace 1`. See
//! `e2ebench/README.md` for the workloads and the layer map.

mod eras;
mod report;
mod sched;
mod serve1m;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// Name of the span that encloses a traced section.
pub const ROOT_SPAN: &str = "trace.root";

const WORKLOADS: [&str; 2] = ["eras-search", "serve-1m"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Internal: which process this is (`main`, `worker`, `server`, `prep`).
    pub role: String,
    /// Where snapshots and trace files go.
    pub work: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: eras-e2ebench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut role = String::from("main");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| (1..=600).contains(&s))
                        .ok_or_else(|| bad("not a whole number of seconds in 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--role" => role = value.clone(),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    // `cargo run` sets the manifest directory at run time too; the
    // compile-time value covers running the binary directly.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    Ok(Args {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        role,
        work: manifest.join("work"),
    })
}

/// A command that re-runs this binary in another role. The workspace
/// thread pool is pinned so results do not depend on the caller's
/// `ERAS_THREADS`.
pub fn self_command(args: &Args, role: &str) -> Command {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--role", role])
        .env("ERAS_THREADS", "2")
        .stdin(Stdio::null());
    cmd
}

/// Record the traced split: each layer span's summed self time as
/// `<name>_pct` of the traced wall (0 for a layer the workload never
/// calls), the enclosing sections' self time as unattributed, and their
/// total as the traced wall. Writes the spans to the work directory and
/// checks that the parts sum to the wall.
pub fn record_trace(report: &mut Report, tr: &Tracer, args: &Args) {
    let spans = tr.spans();
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum();
    let by_name = trace::self_seconds_by_name(spans);
    let parts: f64 = by_name.values().sum();
    for name in by_name.keys() {
        report.require(
            *name == ROOT_SPAN || report::LAYER_SPANS.contains(name),
            format!("span {name} is not a declared layer"),
        );
    }
    for name in report::LAYER_SPANS {
        let secs = by_name.get(name).copied().unwrap_or(0.0);
        report.set(&format!("{name}_pct"), 100.0 * secs / wall);
    }
    report.set(
        "trace.unattributed_s",
        by_name.get(ROOT_SPAN).copied().unwrap_or(0.0),
    );
    report.set("trace.wall_s", wall);
    report.require(
        (parts - wall).abs() <= 1e-6 * wall.max(1.0),
        format!("self times sum to {parts} s, traced wall is {wall} s"),
    );
    report.require(
        spans
            .iter()
            .all(|s| s.parent.is_some() || s.name == ROOT_SPAN),
        "every traced span lies inside a root section",
    );
    let path = args
        .work
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.work).and_then(|()| tr.write_tsv(&path));
    report.require(
        written.is_ok(),
        format!("write {}: {written:?}", path.display()),
    );
}

/// Record the `op.*` metrics: count, median and tail (by the ten-beyond
/// rule) of the durations of the spans called `name`.
pub fn record_op(report: &mut Report, tr: &Tracer, name: &str) {
    let ms: Vec<f64> = trace::durations_s(tr.spans(), name)
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    let tail = stats::tail_percentile(ms.len());
    report.require(
        tail.is_some(),
        format!("{} {name} spans leave fewer than ten beyond the median", ms.len()),
    );
    let tail = tail.unwrap_or(50.0);
    report.set("op.count", ms.len() as f64);
    if !ms.is_empty() {
        report.set("op.p50_ms", stats::percentile(&ms, 50.0));
        report.set("op.tail_ms", stats::percentile(&ms, tail));
    }
    report.set("op.tail_pct", tail);
}

/// Run the workload in a worker process and pass its result line on.
fn run_in_worker(args: &Args) -> Result<String, String> {
    let out = self_command(args, "worker")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if out.status.success() && line.starts_with('{') => Ok(line.to_owned()),
        _ => Err(format!("worker failed ({})", out.status)),
    }
}

fn run(args: &Args) -> Result<Option<String>, String> {
    let traced = args.trace;
    match (args.role.as_str(), args.workload.as_str()) {
        ("main", "serve-1m") => serve1m::run(args).map(|r| Some(r.to_json(traced))),
        ("main", _) => run_in_worker(args).map(Some),
        ("worker", "eras-search") if traced => Ok(Some(eras::run_traced(args).to_json(true))),
        ("worker", "eras-search") => Ok(Some(eras::run().to_json(false))),
        ("server", "serve-1m") => serve1m::server(args).map(|()| None),
        ("prep", "serve-1m") => serve1m::prep(args).map(|()| None),
        (role, workload) => Err(format!("no role {role:?} for workload {workload:?}")),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eras-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
