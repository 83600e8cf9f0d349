//! The simulator workload, `farm`: whole campaigns of 100 generated small
//! apps driven through `Campaign::new` / `advance_round` / `finish`.
//!
//! The campaign is a `CampaignSpec`, built with `CampaignSpec::build` as
//! the service builds one. An untraced run repeats the campaign until the
//! run's time is spent; every repetition must reproduce the first one's
//! coverage report and per-round checkpoint sequence exactly. At every
//! round boundary the run takes the in-process status read: the
//! `Campaign::digest()` and its encoded checkpoint, what the service
//! persists each round. The campaign is also resumed in-process from three
//! of those checkpoints — decode, build, replay, verify the digest, advance
//! one more round — the service's resume path without the file and the
//! network.
//!
//! The traced run (see [`traced`]) repeats the campaign with telemetry on
//! and one host thread, then re-drives every app's session through
//! [`crate::redrive`] to time each layer.

use std::time::{Duration, Instant};

use taopt::campaign::{Campaign, CampaignApp, CampaignConfig, CampaignResult};
use taopt::experiments::ExperimentScale;
use taopt::session::RunMode;
use taopt_app_sim::{generate_app, GeneratorConfig};
use taopt_service::checkpoint::{decode, encode};
use taopt_service::{AppSource, AppSpec, CampaignSpec, Checkpoint, CHECKPOINT_VERSION};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

use crate::redrive::{redrive, Layer, Tracer};
use crate::stats::{mean_by_round, median, tail_percentile, Fnv, Ops, RESUME_CYCLE};
use crate::{mix, nproc, tails, Outcome};

/// Apps in the campaign.
const APPS: usize = 100;
/// Rounds the three in-process resumes replay to.
const RESUME_ROUNDS: [u64; 3] = [10, 20, 30];
/// Resumes after each repetition of the untraced run; resume `i` starts
/// from point `RESUME_CYCLE[i % 6]`.
const RESUMES_PER_REP: usize = 2;

/// The per-app experiment scale: 2 instances, 30 virtual minutes.
fn scale() -> ExperimentScale {
    ExperimentScale {
        instances: 2,
        duration: VirtualDuration::from_mins(30),
        ..ExperimentScale::quick()
    }
}

/// Workload parameters, for the run record.
pub fn params() -> String {
    let s = scale();
    format!(
        "farm: {APPS} generated small apps, tools Monkey/Ape/WCTester rotated, {} instances each, \
         TaOPT duration mode, {} virtual min at a {} s tick, resumes at rounds {RESUME_ROUNDS:?}",
        s.instances,
        s.duration.as_millis() / 60_000,
        s.tick.as_millis() / 1000,
    )
}

/// The campaign for `seed`. The host-thread budget is not part of it: it
/// never changes results, so every pass of a run shares one spec and one
/// checkpoint sequence.
fn spec(seed: u64) -> CampaignSpec {
    let apps = (0..APPS)
        .map(|i| AppSpec {
            source: AppSource::Small {
                name: format!("farm-{i:03}"),
                seed: mix(seed, i as u64),
            },
            tool: ToolKind::ALL[i % ToolKind::ALL.len()],
            mode: RunMode::TaoptDuration,
            seed: mix(seed, 1_000 + i as u64),
        })
        .collect();
    CampaignSpec::new("farm", apps, scale())
}

/// Builds a spec's campaign inputs with `host_threads` host threads.
fn build(spec: &CampaignSpec, host_threads: usize) -> (Vec<CampaignApp>, CampaignConfig) {
    let (apps, mut config) = spec.build().expect("benchmark specs name valid apps");
    config.host_threads = host_threads;
    (apps, config)
}

/// The spec's apps generated again, one timed `generate_app` call each:
/// the app-sim layer's share of set-up.
fn generate_timed(spec: &CampaignSpec) -> Duration {
    let mut spent = Duration::ZERO;
    for app in &spec.apps {
        let AppSource::Small { name, seed } = &app.source else {
            unreachable!("farm apps are generated");
        };
        let t = Instant::now();
        generate_app(&GeneratorConfig::small(name, *seed)).expect("small generated apps are valid");
        spent += t.elapsed();
    }
    spent
}

/// The round-boundary checkpoint of `campaign`, encoded.
fn checkpoint(spec: &CampaignSpec, campaign: &mut Campaign) -> String {
    encode(&Checkpoint {
        version: CHECKPOINT_VERSION,
        campaign: 0,
        priority: 0,
        round: campaign.round(),
        sequence_version: 0,
        spec: spec.clone(),
        digest: Some(campaign.digest()),
    })
}

/// One campaign, set up, run and finished, with its timings and the
/// fingerprints of its outputs.
struct Rep {
    build_s: f64,
    new_s: f64,
    rounds_s: f64,
    finish_s: f64,
    turnaround_s: f64,
    round_ms: Vec<f64>,
    status_ms: Vec<f64>,
    steps: u64,
    coverage: u64,
    machine_ms: u64,
    report_hash: u64,
    digest_hash: u64,
    /// Encoded checkpoints at the resume rounds, in round order.
    resume_points: Vec<String>,
    /// The finished campaign, kept only when asked for: holding every
    /// repetition's traces would inflate the peak memory with the
    /// repetition count.
    result: Option<CampaignResult>,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        self.build_s + self.new_s
    }

    /// Host seconds of the run phase: every round plus `finish`.
    fn run_s(&self) -> f64 {
        self.rounds_s + self.finish_s
    }

    fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (
            self.report_hash,
            self.digest_hash,
            self.coverage,
            self.machine_ms,
        )
    }
}

fn run_rep(seed: u64, host_threads: usize, keep_result: bool) -> Rep {
    let spec = spec(seed);
    let start = Instant::now();
    let (apps, config) = build(&spec, host_threads);
    let build_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut campaign = Campaign::new(apps, &config);
    let new_s = t.elapsed().as_secs_f64();

    let mut rounds = Duration::ZERO;
    let mut round_ms = Vec::new();
    let mut status_ms = Vec::new();
    let mut digests = Fnv::default();
    let mut resume_points = Vec::new();
    loop {
        let before = campaign.round();
        let t = Instant::now();
        let more = campaign.advance_round();
        let dt = t.elapsed();
        rounds += dt;
        if campaign.round() > before {
            round_ms.push(dt.as_secs_f64() * 1e3);
        }
        if !more {
            break;
        }
        let t = Instant::now();
        let text = checkpoint(&spec, &mut campaign);
        status_ms.push(t.elapsed().as_secs_f64() * 1e3);
        digests.update(text.as_bytes());
        if RESUME_ROUNDS.contains(&campaign.round()) {
            resume_points.push(text);
        }
    }
    let t = Instant::now();
    let result = campaign.finish();
    let finish_s = t.elapsed().as_secs_f64();
    let turnaround_s = start.elapsed().as_secs_f64();

    let steps = result
        .apps
        .iter()
        .flat_map(|a| a.session.instances.iter())
        .map(|i| i.trace.len().saturating_sub(1) as u64)
        .sum();
    Rep {
        build_s,
        new_s,
        rounds_s: rounds.as_secs_f64(),
        finish_s,
        turnaround_s,
        round_ms,
        status_ms,
        steps,
        coverage: result.total_coverage() as u64,
        machine_ms: result.machine_time.as_millis(),
        report_hash: Fnv::of(result.coverage_report().as_bytes()),
        digest_hash: digests.finish(),
        resume_points,
        result: keep_result.then_some(result),
    }
}

/// Checks a repetition against the first one.
fn same_outputs(first: &Rep, rep: &Rep, what: &str) -> Result<(), String> {
    if first.fingerprint() == rep.fingerprint() {
        Ok(())
    } else {
        Err(format!(
            "{what}: outputs differ from the first run (report {:016x} vs {:016x}, digests {:016x} vs {:016x})",
            rep.report_hash, first.report_hash, rep.digest_hash, first.digest_hash
        ))
    }
}

/// Resumes the campaign in-process from an encoded checkpoint — decode,
/// build, `Campaign::new`, replay, verify the digest, advance one round —
/// and returns the resume round and the host seconds until that first
/// round past it.
fn resume(text: &str, host_threads: usize) -> Result<(u64, f64), String> {
    let start = Instant::now();
    let ckpt = decode(text, "in-process resume").map_err(|e| e.to_string())?;
    let round = ckpt.round;
    let expected = ckpt
        .digest
        .as_ref()
        .ok_or("resume point without a digest")?;
    let (apps, config) = build(&ckpt.spec, host_threads);
    let mut campaign = Campaign::new(apps, &config);
    while campaign.round() < round && campaign.advance_round() {}
    if campaign.round() != round {
        return Err(format!(
            "resume at {round}: replay stopped at round {}",
            campaign.round()
        ));
    }
    if let Some(diff) = expected.diff(&campaign.digest()) {
        return Err(format!("resume at {round}: digest mismatch: {diff}"));
    }
    campaign.advance_round();
    let elapsed = start.elapsed().as_secs_f64();
    if campaign.round() != round + 1 {
        return Err(format!(
            "resume at {round}: no progress past the resume round"
        ));
    }
    Ok((round, elapsed))
}

/// Resumes from each of `first`'s resume points, recording each as one
/// operation and its `(round, seconds)` as a point of the resume curve.
fn resumes(host_threads: usize, first: &Rep, points: &mut Vec<(u64, f64)>, ops: &mut Ops) {
    for point in 0..RESUME_ROUNDS.len() {
        resume_at(host_threads, first, point, points, ops);
    }
}

/// Resumes from `first`'s resume point `point`, recording it as one
/// operation and its `(round, seconds)` as a point of the resume curve.
fn resume_at(
    host_threads: usize,
    first: &Rep,
    point: usize,
    points: &mut Vec<(u64, f64)>,
    ops: &mut Ops,
) {
    let Some(text) = first.resume_points.get(point) else {
        ops.fail("campaign ended before the resume rounds");
        return;
    };
    match resume(text, host_threads) {
        Ok(p) => {
            ops.ok();
            points.push(p);
        }
        Err(e) => ops.fail(e),
    }
}

/// The untraced run: repeat the campaign for `seconds`, resume it from
/// its resume points after every repetition, report the end-to-end
/// metrics.
pub fn untraced(seed: u64, seconds: u64) -> Outcome {
    let host_threads = nproc();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut ops = Ops::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut points = Vec::new();
    let mut resumed = 0;
    // At least two repetitions, enough status reads for a p99, and every
    // resume point at least once.
    let status_reads = |reps: &[Rep]| reps.iter().map(|r| r.status_ms.len()).sum::<usize>();
    while reps.len() < 2
        || start.elapsed() < budget
        || status_reads(&reps) < 1_000
        || resumed < RESUME_CYCLE.len()
    {
        let rep = run_rep(seed, host_threads, false);
        match reps.first() {
            None => ops.ok(),
            Some(first) => ops.check(same_outputs(first, &rep, "repeat")),
        }
        reps.push(rep);
        for _ in 0..RESUMES_PER_REP {
            let point = RESUME_CYCLE[resumed % RESUME_CYCLE.len()];
            resume_at(host_threads, &reps[0], point, &mut points, &mut ops);
            resumed += 1;
        }
    }
    let curve = mean_by_round(&points);

    let first = &reps[0];
    let round_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    let status_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.status_ms.iter().copied())
        .collect();
    let setup: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    let turnaround: Vec<f64> = reps.iter().map(|r| r.turnaround_s).collect();
    // Per-repetition figures, so one disturbed repetition moves the
    // run's median instead of its mean.
    let sps: Vec<f64> = reps.iter().map(|r| r.steps as f64 / r.run_s()).collect();
    let p90: Vec<f64> = reps
        .iter()
        .filter_map(|r| tail_percentile(&r.round_ms, 0, 0.9))
        .collect();
    let resume_s: Vec<f64> = points.iter().map(|p| p.1).collect();
    // A repetition's status reads as one figure: its mean. On a shared
    // host the per-read times are bimodal, in stretches of seconds (a
    // fast mode near 0.45 ms and a slow one near 0.65 ms on a 2-vCPU
    // VM), so the median of all reads jumps between the modes from run
    // to run; a repetition's mean moves with the share of slow time,
    // like its round time does.
    let status_mean: Vec<f64> = reps
        .iter()
        .map(|r| r.status_ms.iter().sum::<f64>() / r.status_ms.len().max(1) as f64)
        .collect();

    let mut out = Outcome::new(ops);
    out.put("steps_per_s", median(&sps));
    out.put_opt("round_ms_p50", tail_percentile(&round_ms, 0, 0.5));
    out.put("setup_s", median(&setup));
    out.put("coverage_methods", first.coverage as f64);
    out.put("turnaround_s_p50", median(&turnaround));
    out.put("status_ms_p50", median(&status_mean));
    if !resume_s.is_empty() {
        out.put("resume_s", median(&resume_s));
    }

    out.line(format!(
        "{} campaigns x {} rounds; report fnv {:016x}, per-round checkpoint fnv {:016x}",
        reps.len(),
        first.round_ms.len(),
        first.report_hash,
        first.digest_hash
    ));
    out.line(format!(
        "virtual: {} methods covered, {:.1} machine-hours, {} tool actions per campaign",
        first.coverage,
        first.machine_ms as f64 / 3.6e6,
        first.steps
    ));
    out.quartiles("advance_round", "ms", &round_ms);
    out.quartiles("advance_round p90 per campaign", "ms", &p90);
    out.line(tails(
        "advance_round p90 (median over campaigns)",
        (!p90.is_empty()).then(|| median(&p90)),
        "status p99",
        tail_percentile(&status_ms, 0, 0.99),
    ));
    out.quartiles("steps/s per campaign", "1/s", &sps);
    out.quartiles(
        "status (Campaign::digest + checkpoint encode), every read",
        "ms",
        &status_ms,
    );
    out.quartiles("status, mean per campaign", "ms", &status_mean);
    out.quartiles("setup (CampaignSpec::build + Campaign::new)", "s", &setup);
    out.quartiles("turnaround (setup..finish)", "s", &turnaround);
    out.quartiles("in-process resume, every resume", "s", &resume_s);
    out.resume_curve("in-process resume", &curve);
    out
}

/// The traced run. Four passes over the same seed:
///
/// 1. untraced, `host_threads` = nproc — the untraced run's configuration,
///    whose outputs every other pass must reproduce;
/// 2. untraced, one host thread — the baseline of the tracing overhead;
/// 3. telemetry on, one host thread — times `Campaign::new`,
///    `advance_round` and `finish`;
/// 4. telemetry on, every app re-driven through [`redrive`] — times each
///    layer; each app must match pass 3's per-app outputs exactly.
///
/// Then one resume from each of the three points, untraced.
pub fn traced(seed: u64) -> Outcome {
    let telemetry = taopt_telemetry::global();
    let mut ops = Ops::default();

    telemetry.set_enabled(false);
    let base = run_rep(seed, nproc(), false);
    ops.ok();
    let mut points = Vec::new();
    resumes(nproc(), &base, &mut points, &mut ops);
    let curve = mean_by_round(&points);
    let single = run_rep(seed, 1, false);
    ops.check(same_outputs(&base, &single, "untraced, one host thread"));

    telemetry.set_enabled(true);
    let camp = run_rep(seed, 1, true);
    ops.check(same_outputs(&base, &camp, "traced campaign"));

    let spec = spec(seed);
    let gen = generate_timed(&spec);
    let (apps, _) = build(&spec, 1);
    let before = telemetry.snapshot();
    let mut tr = Tracer::default();
    let t = Instant::now();
    let mut outcomes = Vec::with_capacity(apps.len());
    for app in &apps {
        outcomes.push(redrive(app, &mut tr));
    }
    let redrive_s = t.elapsed().as_secs_f64();
    let after = telemetry.snapshot();
    telemetry.set_enabled(false);

    let result = camp.result.as_ref().expect("pass 3 keeps its result");
    for (outcome, report) in outcomes.iter().zip(&result.apps) {
        let s = &report.session;
        let mismatch = if outcome.covered != s.union_covered() {
            Some("coverage")
        } else if outcome.crashes != s.unique_crashes() {
            Some("crash set")
        } else if outcome.subspaces != s.subspaces {
            Some("subspaces")
        } else {
            None
        };
        match mismatch {
            None => ops.ok(),
            Some(what) => ops.fail(format!(
                "re-drive of {}: {what} differs from the campaign",
                report.name
            )),
        }
    }

    let sweep = findspace(&before, &after);
    let ingest_us = tr.us(Layer::Ingest);
    let session_layers = [
        ("tools (decide)", Layer::Decide),
        ("device (execute)", Layer::Execute),
        ("device (boot)", Layer::Boot),
        ("toller (enforce)", Layer::Enforce),
        ("toller (monitor)", Layer::Monitor),
        ("analyzer (ingest)", Layer::Ingest),
        ("analyzer (register)", Layer::Register),
        ("analyzer (retire)", Layer::Retire),
        ("analyzer (repair)", Layer::Repair),
    ];
    let layered_us: f64 = session_layers.iter().map(|(_, l)| tr.round_us(*l)).sum();
    let round_us = camp.rounds_s * 1e6;
    let unattributed_us = round_us - layered_us;
    let sps_untraced = single.steps as f64 / single.run_s();
    let sps_traced = camp.steps as f64 / camp.run_s();

    let mut out = Outcome::new(ops);
    out.put("appsim.generate_ms", gen.as_secs_f64() * 1e3);
    out.put("tools.decide_us", tr.us(Layer::Decide));
    out.put("tools.decisions", tr.decisions as f64);
    out.put(
        "tools.ns_per_decision",
        tr.us(Layer::Decide) * 1e3 / tr.decisions.max(1) as f64,
    );
    out.put("device.execute_us", tr.us(Layer::Execute));
    out.put("device.boot_us", tr.us(Layer::Boot));
    out.put("device.steps", tr.steps as f64);
    out.put(
        "device.ns_per_step",
        tr.us(Layer::Execute) * 1e3 / tr.steps.max(1) as f64,
    );
    out.put("device.crashes", tr.crashes as f64);
    out.put("toller.enforce_us", tr.us(Layer::Enforce));
    out.put("toller.widgets_blocked", tr.widgets_blocked as f64);
    out.put("toller.monitor_us", tr.us(Layer::Monitor));
    out.put("toller.events", tr.events as f64);
    out.put("analyzer.ingest_us", ingest_us);
    out.put("analyzer.calls", tr.calls(Layer::Ingest) as f64);
    out.put("analyzer.register_us", tr.us(Layer::Register));
    out.put("analyzer.retire_us", tr.us(Layer::Retire));
    out.put("analyzer.repair_us", tr.us(Layer::Repair));
    out.put("analyzer.confirmed", tr.confirmed as f64);
    out.put(
        "analyzer.confirm_ratio",
        if sweep.runs == 0 {
            0.0
        } else {
            tr.confirmed as f64 / sweep.runs as f64
        },
    );
    out.put("findspace.sweep_us", sweep.us);
    out.put("findspace.runs", sweep.runs as f64);
    out.put("analyzer.self_us", ingest_us - sweep.us);
    out.put("campaign.new_us", camp.new_s * 1e6);
    out.put("campaign.round_us", round_us);
    out.put("campaign.finish_us", camp.finish_s * 1e6);
    out.put("campaign.unattributed_us", unattributed_us);
    out.put(
        "campaign.unattributed_pct",
        100.0 * unattributed_us / round_us,
    );
    out.put(
        "telemetry.overhead_pct",
        100.0 * (sps_untraced / sps_traced - 1.0),
    );
    for name in crate::control_only() {
        out.put(name, 0.0);
    }

    out.line(format!(
        "traced outputs: report fnv {:016x}, per-round checkpoint fnv {:016x} (must equal the untraced run's)",
        camp.report_hash, camp.digest_hash
    ));
    out.line(format!(
        "layer sum over {} rounds ({} apps re-driven in {:.3} s; round time from the traced campaign at one host thread):",
        camp.round_ms.len(),
        apps.len(),
        redrive_s
    ));
    for (name, layer) in session_layers {
        let us = tr.round_us(layer);
        // FindSpace runs only inside ingestion, so its sweep is split out
        // of the ingest row as its own line below.
        let us = if layer == Layer::Ingest {
            us - sweep.us
        } else {
            us
        };
        out.line(format!(
            "  {name:<22} {:>12.0} us  {:>5.1}%",
            us,
            100.0 * us / round_us
        ));
    }
    out.line(format!(
        "  {:<22} {:>12.0} us  {:>5.1}%",
        "findspace (sweep)",
        sweep.us,
        100.0 * sweep.us / round_us
    ));
    out.line(format!(
        "  {:<22} {:>12.0} us  {:>5.1}%  (lease boundary, pool wake-ups, union and step bookkeeping, timer cost)",
        "unattributed",
        unattributed_us,
        100.0 * unattributed_us / round_us
    ));
    out.line(format!(
        "  {:<22} {:>12.0} us  100.0%",
        "campaign.round_us", round_us
    ));
    out.line(format!(
        "steps/s at one host thread: untraced {sps_untraced:.0}, telemetry on {sps_traced:.0}"
    ));
    out.resume_curve("in-process resume", &curve);
    out.line(format!(
        "not measured on farm (no service or server in this workload): {}",
        crate::control_only().join(", ")
    ));
    out
}

/// FindSpace sweeps recorded by the program's own `span_ns{kind="findspace"}`
/// series between two snapshots.
struct Sweep {
    us: f64,
    runs: u64,
}

fn findspace(
    before: &taopt_telemetry::MetricsSnapshot,
    after: &taopt_telemetry::MetricsSnapshot,
) -> Sweep {
    let key = "span_ns{kind=\"findspace\"}";
    let read = |s: &taopt_telemetry::MetricsSnapshot| {
        s.histograms.get(key).map_or((0, 0), |h| (h.sum, h.count))
    };
    let (sum0, n0) = read(before);
    let (sum1, n1) = read(after);
    Sweep {
        us: (sum1 - sum0) as f64 / 1e3,
        runs: n1 - n0,
    }
}
