//! The repository benchmark: host time of the simulator and latency of
//! the control plane, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload farm|control --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Human-readable lines go to stdout first;
//! the last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). See `perfbench/README.md` for the workloads and what each
//! metric means on each of them.

mod control;
mod farm;
mod redrive;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{Fnv, Ops};

/// Which workloads a per-layer metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// `farm`.
    Farm,
    /// `control`.
    Control,
    /// Every workload.
    All,
}

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 8] = [
    ("steps_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage_methods", "count"),
    ("turnaround_s_p50", "s"),
    ("status_ms_p50", "ms"),
    ("resume_s", "s"),
];

/// The report line for the two tail latencies. They are printed with
/// every untraced run but are not end-to-end metrics: on a shared 2-vCPU
/// host their run-to-run spread under CPU steal (up to 0.5 of the median
/// on `control`) is wider than any bound a regression check could use.
fn tails(
    round_what: &str,
    round_ms: Option<f64>,
    status_what: &str,
    status_ms: Option<f64>,
) -> String {
    let show =
        |v: Option<f64>| v.map_or("n/a (too few samples)".to_owned(), |v| format!("{v:.4} ms"));
    format!(
        "tails (reported, not gated): {round_what} {}, {status_what} {}",
        show(round_ms),
        show(status_ms)
    )
}

/// Per-layer metrics, printed by every traced run: `(name, unit, scope)`.
/// Out of scope a metric reads 0 and the run says why.
const PER_LAYER: [(&str, &str, Scope); 47] = [
    ("appsim.generate_ms", "ms", Scope::Farm),
    ("tools.decide_us", "us", Scope::Farm),
    ("tools.decisions", "count", Scope::Farm),
    ("tools.ns_per_decision", "ns", Scope::Farm),
    ("device.execute_us", "us", Scope::Farm),
    ("device.boot_us", "us", Scope::Farm),
    ("device.steps", "count", Scope::Farm),
    ("device.ns_per_step", "ns", Scope::Farm),
    ("device.crashes", "count", Scope::Farm),
    ("toller.enforce_us", "us", Scope::Farm),
    ("toller.widgets_blocked", "count", Scope::Farm),
    ("toller.monitor_us", "us", Scope::Farm),
    ("toller.events", "count", Scope::Farm),
    ("analyzer.ingest_us", "us", Scope::Farm),
    ("analyzer.calls", "count", Scope::Farm),
    ("analyzer.register_us", "us", Scope::Farm),
    ("analyzer.retire_us", "us", Scope::Farm),
    ("analyzer.repair_us", "us", Scope::Farm),
    ("analyzer.confirmed", "count", Scope::Farm),
    ("analyzer.confirm_ratio", "ratio", Scope::Farm),
    ("analyzer.self_us", "us", Scope::Farm),
    ("findspace.sweep_us", "us", Scope::Farm),
    ("findspace.runs", "count", Scope::Farm),
    ("campaign.new_us", "us", Scope::Farm),
    ("campaign.round_us", "us", Scope::Farm),
    ("campaign.finish_us", "us", Scope::Farm),
    ("campaign.unattributed_us", "us", Scope::Farm),
    ("campaign.unattributed_pct", "%", Scope::Farm),
    ("service.checkpoints", "count", Scope::Control),
    ("service.checkpoint_bytes", "bytes", Scope::Control),
    ("service.checkpoint_encode_us", "us", Scope::Control),
    ("service.checkpoint_decode_us", "us", Scope::Control),
    ("service.replay_us_per_round", "us", Scope::Control),
    ("server.submit_us", "us", Scope::Control),
    ("server.status_us", "us", Scope::Control),
    ("server.import_us", "us", Scope::Control),
    ("server.result_us", "us", Scope::Control),
    ("server.requests", "count", Scope::Control),
    ("server.non2xx", "count", Scope::Control),
    ("chaos.faults_injected", "count", Scope::Control),
    ("chaos.faults_recovered", "count", Scope::Control),
    ("loadgen.lag_ms_p99", "ms", Scope::Control),
    ("resume.r1_s", "s", Scope::All),
    ("resume.r2_s", "s", Scope::All),
    ("resume.r3_s", "s", Scope::All),
    ("resume.us_per_round", "us", Scope::All),
    ("telemetry.overhead_pct", "%", Scope::All),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["farm", "control"];

fn scoped(scope: Scope) -> Vec<&'static str> {
    PER_LAYER
        .iter()
        .filter(|m| m.2 == scope)
        .map(|m| m.0)
        .collect()
}

/// Per-layer metrics only `farm` measures.
fn farm_only() -> Vec<&'static str> {
    scoped(Scope::Farm)
}

/// Per-layer metrics only `control` measures.
fn control_only() -> Vec<&'static str> {
    scoped(Scope::Control)
}

/// Host cores available to the benchmark.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Decorrelated input seed `i` of run seed `seed` (splitmix64).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a workload run measured: its operations, metric values by name,
/// and human-readable report lines.
pub struct Outcome {
    ops: Ops,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Outcome {
    fn new(ops: Ops) -> Self {
        Outcome {
            ops,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// A run that could not start; it measured nothing.
    fn failed(why: String) -> Self {
        let mut ops = Ops::default();
        ops.fail(why);
        Outcome::new(ops)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a metric that needs enough samples; a missing one fails
    /// the run when it is printed.
    fn put_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.put(name, v);
        }
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Reports a sample's size and quartiles.
    fn quartiles(&mut self, what: &str, unit: &str, xs: &[f64]) {
        self.lines.push(if xs.len() < 2 {
            format!("{what}: n={}", xs.len())
        } else {
            let (q1, q2, q3) = stats::quartiles(xs);
            format!(
                "{what}: n={} q1={q1:.4} median={q2:.4} q3={q3:.4} {unit}",
                xs.len()
            )
        });
    }

    /// Records the resume-cost curve — seconds to first progress at each
    /// resume round — and its least-squares slope per replayed round.
    fn resume_curve(&mut self, what: &str, curve: &[(u64, f64)]) {
        for (name, (_, s)) in ["resume.r1_s", "resume.r2_s", "resume.r3_s"]
            .into_iter()
            .zip(curve)
        {
            self.put(name, *s);
        }
        let per_round = stats::slope(
            &curve
                .iter()
                .map(|&(r, s)| (r as f64, s * 1e6))
                .collect::<Vec<_>>(),
        );
        self.put("resume.us_per_round", per_round);
        let points: Vec<String> = curve
            .iter()
            .map(|(r, s)| format!("round {r}: {:.1} ms", s * 1e3))
            .collect();
        self.lines.push(format!(
            "resume curve ({what}): {} ({per_round:.1} us per replayed round)",
            points.join(", ")
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
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
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is a git checkout, else "unknown".
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the program's sources (path and bytes, in path order), so
/// a result names the code it measured even outside a git checkout.
fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.update(f.to_string_lossy().as_bytes());
            h.update(&bytes);
        }
    }
    h.finish()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload farm|control --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    // Untraced runs measure the program with telemetry off, as
    // TAOPT_TELEMETRY=off would; traced passes switch it on themselves.
    let telemetry = taopt_telemetry::global();
    telemetry.set_enabled(false);

    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let (params, host_threads) = match args.workload.as_str() {
        "farm" => (farm::params(), farm_threads(args.trace)),
        _ => (
            control::params(),
            "1 per campaign, 2 campaigns at once".to_owned(),
        ),
    };
    println!(
        "run: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"telemetry\": {}, \"nproc\": {}, \"host_threads\": {}, \"commit\": {}, \"source_fnv\": \"{:016x}\", \"params\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(if args.trace { "off for the end-to-end passes, on for the traced passes" } else { "off" }),
        nproc(),
        json_str(&host_threads),
        json_str(&commit()),
        source_hash(),
        json_str(&params)
    );

    let mut out = match (args.workload.as_str(), args.trace) {
        ("farm", false) => farm::untraced(args.seed, args.seconds),
        ("farm", true) => farm::traced(args.seed),
        (_, false) => control::untraced(args.seed, args.seconds, &work),
        (_, true) => control::traced(args.seed, args.seconds, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    if !args.trace {
        if let Some(mb) = peak_rss_mb() {
            out.put("peak_rss_mb", mb);
        }
    }
    let catalog: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        let value = match out.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.ops.fail(format!(
                    "{name} = {v}: a request failed past the percentile"
                ));
                -1.0
            }
            None => {
                out.ops.fail(format!(
                    "{name}: not measured (too few samples or a failed step)"
                ));
                -1.0
            }
        };
        metrics.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }

    for line in &out.lines {
        println!("{line}");
    }
    println!(
        "failed_ops_share: {} ({} of {} operations)",
        out.ops.failed_share(),
        out.ops.failed(),
        out.ops.attempted()
    );
    for why in out.ops.failures().iter().take(20) {
        println!("FAILED: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.failed() == 0,
        out.ops.attempted().max(1),
        out.ops.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn farm_threads(trace: bool) -> String {
    if trace {
        format!("{} (pass 1), 1 (passes 2-4)", nproc())
    } else {
        nproc().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taopt_ui_model::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let v = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned()))
            .collect();
        assert_eq!(names_and_units(&v, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned()))
            .collect();
        assert_eq!(names_and_units(&v, "per_layer"), layers);
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn scopes_partition_the_per_layer_metrics() {
        let all = scoped(Scope::All).len();
        assert_eq!(
            farm_only().len() + control_only().len() + all,
            PER_LAYER.len()
        );
    }

    #[test]
    fn mix_decorrelates_neighbouring_inputs() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
