//! Telemetry smoke bench: runs duration-mode TaOPT sessions under
//! moderate chaos and prints what the global telemetry domain observed —
//! the metrics snapshot (counters + latency histograms), the top-k
//! slowest spans, and a replay check of the flight recorder's last 1k
//! events.
//!
//! Exits non-zero when the snapshot is empty or any required series is
//! missing, so CI catches accidental un-wiring of an instrumentation
//! seam.

use std::process::ExitCode;
use std::sync::Arc;

use taopt::run_with_chaos;
use taopt::session::RunMode;
use taopt_bench::{load_apps, BenchReport, HarnessArgs};
use taopt_chaos::{FaultInjector, FaultPlan, FaultRates};
use taopt_telemetry::HistogramSnapshot;
use taopt_tools::ToolKind;

/// Same moderate per-seam rates as the chaos resilience tests: enough
/// pressure to exercise every seam without drowning the session.
fn moderate_rates() -> FaultRates {
    let mut rates = FaultRates::none();
    rates.device_loss = 0.02;
    rates.alloc_refusal = 0.05;
    rates.latency_spike = 0.02;
    rates.event_drop = 0.03;
    rates.event_duplicate = 0.02;
    rates.event_delay = 0.02;
    rates.enforcement_failure = 0.2;
    rates
}

/// Counter series the wiring must produce under moderate chaos.
const REQUIRED_COUNTERS: [&str; 5] = [
    "cover_events_total",
    "bus_events_published_total",
    "faults_injected_total",
    "enforcement_retries_total",
    "chaos_rounds_total",
];

/// Histogram series the wiring must produce under moderate chaos.
const REQUIRED_HISTOGRAMS: [&str; 3] = [
    "span_ns{kind=\"dedicate\"}",
    "emulator_step_ns{seam=\"device\"}",
    "span_ns{kind=\"broadcast\"}",
];

/// The unit a series records in, read from the suffix of its name
/// (`campaign_round_host_us` → `us`, `emulator_step_ns{seam="device"}` →
/// `ns`); empty for a unitless series.
fn series_unit(series: &str) -> &str {
    let name = series.split('{').next().unwrap_or(series);
    match name.rsplit_once('_') {
        Some((_, unit @ ("ns" | "us" | "ms" | "s"))) => unit,
        _ => "",
    }
}

/// One histogram line, with values in the series' own unit.
fn histogram_row(series: &str, h: &HistogramSnapshot) -> String {
    let unit = series_unit(series);
    format!(
        "  {series:<42} n={:<8} mean={:>9}{unit} p50={:>9}{unit} p95={:>9}{unit} p99={:>9}{unit} max={:>9}{unit}",
        h.count,
        h.mean(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max,
    )
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse();
    let apps = load_apps(args.n_apps);
    eprintln!("telemetry: {} apps, {:?}", apps.len(), args.scale);
    let config = args
        .scale
        .session_config(ToolKind::Monkey, RunMode::TaoptDuration, args.seed);

    for (name, app) in &apps {
        let injector = FaultInjector::new(FaultPlan::new(args.seed, moderate_rates()));
        let report = run_with_chaos(Arc::clone(app), &config, &injector);
        eprintln!(
            "  {name}: coverage {}, {} faults injected",
            report.session.union_coverage(),
            report.fault_stats.total_injected()
        );
    }

    let telemetry = taopt_telemetry::global();
    let snapshot = telemetry.snapshot();

    println!(
        "Telemetry snapshot: TaOPT duration mode under moderate chaos ({} instances, seed {})",
        config.instances, config.seed
    );
    if !telemetry.is_enabled() {
        println!("telemetry is DISABLED (TAOPT_TELEMETRY=off); nothing to report");
        return ExitCode::FAILURE;
    }

    println!("\ncounters:");
    for (series, value) in &snapshot.counters {
        println!("  {series:<58} {value}");
    }
    println!("\ngauges:");
    for (series, value) in &snapshot.gauges {
        println!("  {series:<58} {value}");
    }
    println!("\nlatency histograms:");
    for (series, h) in &snapshot.histograms {
        if !h.is_empty() {
            println!("{}", histogram_row(series, h));
        }
    }

    let recorder = telemetry.recorder();
    println!("\ntop 10 slowest spans:");
    for e in recorder.slowest_spans(10) {
        println!(
            "  seq={:<8} {:<12} {:<24} {:>12.1}us",
            e.seq,
            e.name,
            e.labels.render(),
            e.wall_ns as f64 / 1000.0
        );
    }

    // Flight replay: the last 1k events must come out in strict sequence
    // order, and the JSON dump must parse back losslessly.
    let last = recorder.last(1000);
    let in_order = last.windows(2).all(|w| w[0].seq < w[1].seq);
    let json = recorder.dump_json(1000).to_json_string();
    let parsed = taopt_ui_model::Value::parse(&json);
    let parsed_len = parsed
        .as_ref()
        .ok()
        .and_then(|v| v.as_array().map(<[_]>::len))
        .unwrap_or(0);
    println!(
        "\nflight recorder: {} events buffered (cap {}), replayed last {} \
         (in order: {in_order}, JSON round-trip: {} events, {} bytes)",
        recorder.len(),
        recorder.capacity(),
        last.len(),
        parsed_len,
        json.len()
    );

    let mut report = BenchReport::new("telemetry smoke");
    report.gate(!snapshot.is_empty(), || {
        "metrics snapshot is empty".to_owned()
    });
    for name in REQUIRED_COUNTERS {
        report.gate(snapshot.counter_total(name) > 0, || {
            format!("counter {name} never incremented")
        });
    }
    for series in REQUIRED_HISTOGRAMS {
        report.gate(
            snapshot
                .histograms
                .get(series)
                .is_some_and(|h| !h.is_empty()),
            || format!("histogram {series} is missing or empty"),
        );
    }
    report.gate(!last.is_empty(), || "flight recorder is empty".to_owned());
    report.gate(in_order, || {
        "flight replay out of sequence order".to_owned()
    });
    report.gate(parsed_len == last.len(), || {
        format!(
            "flight JSON round-trip lost events ({parsed_len} != {})",
            last.len()
        )
    });
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot holding one sample of `value`.
    fn one_sample(value: u64) -> HistogramSnapshot {
        let h = taopt_telemetry::Telemetry::new().histogram("sample");
        h.record(value);
        h.snapshot()
    }

    #[test]
    fn rows_render_each_series_in_the_unit_its_name_declares() {
        let h = one_sample(1500);
        for (series, unit) in [
            ("campaign_round_host_us", "us"),
            ("findspace_analysis_us", "us"),
            ("emulator_step_ns{seam=\"device\"}", "ns"),
            ("span_ns{kind=\"broadcast\"}", "ns"),
            ("dedicate", ""),
        ] {
            // Values are printed as recorded, each followed by the unit.
            let row = histogram_row(series, &h);
            assert!(
                row.contains(&format!("mean={:>9}{unit} ", 1500)),
                "{series}: {row}"
            );
            assert!(
                row.ends_with(&format!("max={:>9}{unit}", 1500)),
                "{series}: {row}"
            );
        }
    }
}
