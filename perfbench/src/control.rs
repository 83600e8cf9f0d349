//! The control workload: one `CampaignService` behind `serve` on
//! loopback, driven open-loop by one client thread holding one
//! connection at a time.
//!
//! The schedule is fixed by the seed and the run length: small fault-
//! injected campaigns are submitted at a fixed rate, status reads go out
//! at a fixed rate, and three checkpoints the benchmark built with
//! `Campaign::digest()` at fixed rounds are imported at fixed times, each
//! into a window the submissions leave free. Every
//! request is timed from when it was due, so a stall charges the wait it
//! imposes on the requests behind it; a failed or refused request counts
//! as missing every latency limit. Every wire result must be
//! byte-identical to a direct `run_campaign` of the same spec, computed
//! before the timed phase and counted in no metric.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use taopt::campaign::{run_campaign, Campaign, CampaignResult};
use taopt::experiments::ExperimentScale;
use taopt::session::RunMode;
use taopt_chaos::{FaultPlan, FaultRates};
use taopt_server::{serve, Client, ClientError, ServerConfig, ServerHandle};
use taopt_service::checkpoint::{decode, encode};
use taopt_service::{
    AppSource, AppSpec, CampaignId, CampaignService, CampaignSpec, CampaignStatus, Checkpoint,
    ServiceConfig, CHECKPOINT_VERSION,
};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

use crate::stats::{mean_by_round, median, tail_percentile, Ops, RESUME_CYCLE};
use crate::{mix, nproc, tails, Outcome};

/// Status reads per second, on a fixed grid.
const STATUS_PER_S: f64 = 150.0;
/// Status grid points per schedule slot (6 slots per second). A slot
/// holds one submission or one import, or is left quiet.
const GRID_PER_SLOT: u32 = 25;
/// Schedule slots per second; every slot outside the import windows is a
/// campaign submission.
const SLOTS_PER_S: f64 = STATUS_PER_S / GRID_PER_SLOT as f64;
/// Rounds between the service's durable checkpoints. Every round would
/// put one fsync per campaign round on the disk; on a virtual disk that
/// rate drains the I/O budget within a few runs, fsync latency climbs,
/// and the run-to-run drift swamps every control metric.
const CHECKPOINT_EVERY: u64 = 8;
/// Rounds the imported checkpoints were taken at.
const IMPORT_ROUNDS: [u64; 3] = [60, 120, 180];
/// Rounds an imported campaign runs past its checkpoint.
const IMPORT_TAIL: u64 = 8;
/// Imports per run; import `e` resumes checkpoint `RESUME_CYCLE[e % 6]`,
/// so `resume_s` rests on 40 resumes of the middle checkpoint spread over
/// the whole run. Many short resumes sample the host's fast and slow
/// stretches far better than a few long ones: one import of a 360-round
/// checkpoint took from 131 ms to 231 ms within one run.
const IMPORTS: usize = 60;
/// Slots left free of submissions after each import's own slot. The
/// window (at least 270 ms to the next submission) outlasts the longest
/// replay (180 rounds, about 100 ms on a 2-vCPU host), so the replay
/// shares the host with the status reads but not with submitted
/// campaigns, whose number in flight would otherwise add to each resume
/// time (imports of one checkpoint ranged from 376 ms to 609 ms when they
/// overlapped submissions).
const QUIET_SLOTS: usize = 1;
/// Service + server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Campaigns the farm can run at once.
const CONCURRENT: usize = 2;
/// Apps per campaign. Two, like the service's own campaigns: a
/// one-app campaign whose only app is refused its devices at a boundary
/// stops there, since `Campaign::advance_round` ends when no app holds a
/// device.
const APPS: usize = 2;
/// Instances per app.
const INSTANCES: usize = 2;
/// Devices each campaign leases.
const DEMAND: usize = APPS * INSTANCES;
/// Rounds of a submitted campaign (20 virtual minutes at a 10 s tick).
const SUBMIT_ROUNDS: u64 = 120;
/// Slack after the schedule for the last campaigns to drain.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Workload parameters, for the run record.
pub fn params() -> String {
    format!(
        "control: {SLOTS_PER_S} schedule slots/s, each a submit of a distinct small fault-injected campaign \
         ({APPS} generated apps x {INSTANCES} instances, {SUBMIT_ROUNDS} rounds, checkpoint every {CHECKPOINT_EVERY} rounds) \
         except {IMPORTS} imports, each followed by {QUIET_SLOTS} quiet slots, of a Sketch + Filters For Selfie campaign (Ape) \
         checkpointed at rounds {IMPORT_ROUNDS:?}; {STATUS_PER_S} status reads/s, farm capacity {} devices \
         ({CONCURRENT} campaigns), server workers {}",
        CONCURRENT * DEMAND,
        server_workers()
    )
}

fn server_workers() -> usize {
    nproc().min(2)
}

fn low_rate_faults(seed: u64) -> Option<FaultPlan> {
    Some(FaultPlan::new(seed, FaultRates::uniform(0.005)))
}

fn submit_spec(seed: u64, k: usize) -> CampaignSpec {
    let apps = (0..APPS)
        .map(|j| {
            let n = (k * APPS + j) as u64;
            AppSpec {
                source: AppSource::Small {
                    name: format!("ctl-app-{k}-{j}"),
                    seed: mix(seed, 10_000 + n),
                },
                tool: ToolKind::ALL[(k + j) % ToolKind::ALL.len()],
                mode: RunMode::TaoptDuration,
                seed: mix(seed, 20_000 + n),
            }
        })
        .collect();
    let scale = ExperimentScale {
        instances: INSTANCES,
        duration: VirtualDuration::from_secs(10 * SUBMIT_ROUNDS),
        ..ExperimentScale::quick()
    };
    let mut spec = CampaignSpec::new(format!("ctl-{k}"), apps, scale);
    spec.host_threads = 1;
    spec.faults = low_rate_faults(mix(seed, 30_000 + k as u64));
    spec
}

/// The campaign whose checkpoint at `round` is imported. It ends
/// `IMPORT_TAIL` rounds later, so an import costs its replay and little
/// else: the replay is the resume cost being measured, and a long live
/// tail would only add CPU load beside the submitted campaigns. A TaOPT
/// duration-mode campaign runs the same up to its last round whatever its
/// duration, so the three campaigns replay one history.
fn import_spec(seed: u64, round: u64) -> CampaignSpec {
    // Catalog apps that generate in milliseconds, so the import request
    // itself is short while its replay is long.
    let apps = ["Sketch", "Filters For Selfie"]
        .iter()
        .enumerate()
        .map(|(j, name)| AppSpec {
            source: AppSource::Catalog((*name).to_owned()),
            tool: ToolKind::Ape,
            mode: RunMode::TaoptDuration,
            seed: mix(seed, 40_000 + j as u64),
        })
        .collect();
    let scale = ExperimentScale {
        instances: INSTANCES,
        duration: VirtualDuration::from_secs(10 * (round + IMPORT_TAIL)),
        ..ExperimentScale::quick()
    };
    let mut spec = CampaignSpec::new("ctl-import", apps, scale);
    spec.host_threads = 1;
    spec.faults = low_rate_faults(mix(seed, 40_100));
    spec
}

/// A reference result: the report a wire result must equal, and what it
/// adds to the virtual totals.
struct Reference {
    report: String,
    rounds: u64,
    steps: u64,
    coverage: u64,
}

impl Reference {
    fn of(result: &CampaignResult) -> Self {
        Reference {
            report: result.coverage_report(),
            rounds: result.rounds,
            steps: result
                .apps
                .iter()
                .flat_map(|a| a.session.instances.iter())
                .map(|i| i.trace.len().saturating_sub(1) as u64)
                .sum(),
            coverage: result.total_coverage() as u64,
        }
    }
}

/// Everything computed before the timed phase.
struct Inputs {
    specs: Vec<CampaignSpec>,
    refs: Vec<Reference>,
    imports: Vec<Checkpoint>,
    /// The uninterrupted result of each import's campaign.
    import_refs: Vec<Reference>,
}

fn inputs(seed: u64, submits: usize) -> Result<Inputs, String> {
    let specs: Vec<CampaignSpec> = (0..submits).map(|k| submit_spec(seed, k)).collect();
    let mut refs = Vec::new();
    for spec in &specs {
        let (apps, config) = spec.build().map_err(|e| e.to_string())?;
        refs.push(Reference::of(&run_campaign(apps, &config)));
    }
    let mut imports = Vec::new();
    let mut import_refs = Vec::new();
    for round in IMPORT_ROUNDS {
        let spec = import_spec(seed, round);
        let (apps, config) = spec.build().map_err(|e| e.to_string())?;
        let mut campaign = Campaign::new(apps, &config);
        while campaign.round() < round && campaign.advance_round() {}
        if campaign.round() != round {
            return Err(format!(
                "import campaign ended at round {}, before {round}",
                campaign.round()
            ));
        }
        imports.push(Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 0,
            priority: 0,
            round,
            sequence_version: 0,
            spec,
            digest: Some(campaign.digest()),
        });
        while campaign.advance_round() {}
        import_refs.push(Reference::of(&campaign.finish()));
    }
    Ok(Inputs {
        specs,
        refs,
        imports,
        import_refs,
    })
}

/// Starts the service and its server and waits for the first answer.
fn start(dir: &Path) -> Result<(ServerHandle, Client), String> {
    let service = CampaignService::start(ServiceConfig {
        farm_capacity: CONCURRENT * DEMAND,
        checkpoint_dir: dir.to_path_buf(),
        checkpoint_every: CHECKPOINT_EVERY,
    })
    .map_err(|e| format!("service start: {e}"))?;
    let handle = serve(
        service,
        ServerConfig {
            workers: server_workers(),
            ..ServerConfig::new("127.0.0.1:0")
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let client = Client::new(handle.addr());
    client
        .metrics()
        .map_err(|e| format!("first request: {e}"))?;
    Ok((handle, client))
}

/// What a campaign in flight is.
#[derive(Clone, Copy)]
enum Kind {
    /// Submission `k`, due at `due`.
    Submit { k: usize, due: Instant },
    /// An import of checkpoint `checkpoint`, taken at `round`, due at
    /// `due`, resumed once a status read shows progress past that round.
    Import {
        checkpoint: usize,
        round: u64,
        due: Instant,
        resumed: bool,
    },
}

struct Tracked {
    id: CampaignId,
    kind: Kind,
    done: bool,
}

/// Client-side timings of one layer's calls.
#[derive(Default)]
struct Calls {
    us: Vec<f64>,
}

impl Calls {
    fn mean_us(&self) -> f64 {
        if self.us.is_empty() {
            0.0
        } else {
            self.us.iter().sum::<f64>() / self.us.len() as f64
        }
    }
}

/// Measurements of one pass of the schedule.
#[derive(Default)]
struct Pass {
    ops: Ops,
    status_ms: Vec<f64>,
    status_failed: usize,
    turnaround_s: Vec<f64>,
    per_round_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    resume: Vec<(u64, f64)>,
    steps: u64,
    coverage: u64,
    run_s: f64,
    submit: Calls,
    status: Calls,
    import: Calls,
    result: Calls,
    non2xx: u64,
    /// Checkpoint file texts sampled while the run was in flight.
    checkpoint_texts: Vec<String>,
    /// Host seconds spent on the references before the timed phase.
    inputs_s: f64,
    /// Finished campaigns that ran fewer rounds than their virtual
    /// duration (every app refused its devices at some boundary).
    short_campaigns: usize,
}

impl Pass {
    fn requests(&self) -> usize {
        self.submit.us.len() + self.status.us.len() + self.import.us.len() + self.result.us.len()
    }

    fn note_error(&mut self, what: &str, e: &ClientError) {
        if e.status().is_some() {
            self.non2xx += 1;
        }
        self.ops.fail(format!("{what}: {e}"));
    }
}

/// Checkpoint texts kept for the traced decode/encode timings.
const CHECKPOINT_SAMPLES: usize = 256;

/// What a schedule slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Submission `k`.
    Submit(usize),
    /// Import `e`, of checkpoint `RESUME_CYCLE[e % 6]`.
    Import(usize),
    /// Nothing: part of an import's window.
    Quiet,
}

/// Submissions a schedule holds at least; a run too short for them and
/// every import window (28 seconds) is lengthened until it holds them.
const MIN_SUBMITS: usize = 48;

/// The slots of a schedule of `seconds`: submissions everywhere except
/// the imports, spread evenly, and the quiet slots after each.
fn schedule(seconds: f64) -> Vec<Slot> {
    let n =
        ((seconds * SLOTS_PER_S).round() as usize).max(IMPORTS * (QUIET_SLOTS + 1) + MIN_SUBMITS);
    let mut slots = vec![None; n];
    for e in 0..IMPORTS {
        // Each window sits in the middle of its own `n / IMPORTS`
        // (>= QUIET_SLOTS + 1) slots, so windows never overlap.
        let at = e * n / IMPORTS + (n / IMPORTS - (QUIET_SLOTS + 1)) / 2;
        slots[at] = Some(Slot::Import(e));
        for q in slots.iter_mut().skip(at + 1).take(QUIET_SLOTS) {
            *q = Some(Slot::Quiet);
        }
    }
    let mut k = 0;
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                k += 1;
                Slot::Submit(k - 1)
            })
        })
        .collect()
}

/// Campaigns a schedule submits.
fn submissions(slots: &[Slot]) -> usize {
    slots
        .iter()
        .filter(|s| matches!(s, Slot::Submit(_)))
        .count()
}

/// Where between two status reads a slot's request is due: a share of
/// the grid gap in `[0.15, 0.55)`, drawn from the seed. A submission
/// (about 1.6 ms) then ends before the next status read (6.7 ms on), so
/// status reads do not queue behind the client's own writes; and
/// campaigns start at scattered phases of the grid, so the read that sees
/// a campaign finish, or an import resume, lands at a continuous, not a
/// grid-quantized, delay after it.
fn phase(seed: u64, slot: u64) -> f64 {
    0.15 + 0.4 * ((mix(seed, 60_000 + slot) >> 11) as f64 / (1u64 << 53) as f64)
}

/// Runs the schedule once against a started server.
fn drive(
    client: &Client,
    dir: &Path,
    inputs: &Inputs,
    slots: &[Slot],
    seed: u64,
    sample_checkpoints: bool,
) -> Pass {
    let mut p = Pass::default();
    let status_gap = Duration::from_secs_f64(1.0 / STATUS_PER_S);
    let start = Instant::now();
    // Submissions and imports, in due order; status grid points never
    // coincide with them (their phase is at least 0.15 of a gap).
    let events: Vec<(Instant, Slot)> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| **s != Slot::Quiet)
        .map(|(i, s)| {
            let at = f64::from(GRID_PER_SLOT) * i as f64 + phase(seed, i as u64);
            (start + status_gap.mul_f64(at), *s)
        })
        .collect();
    let deadline =
        start + status_gap.mul_f64(f64::from(GRID_PER_SLOT) * slots.len() as f64) + DRAIN_LIMIT;

    let mut tracked: Vec<Tracked> = Vec::new();
    let mut fetch: VecDeque<usize> = VecDeque::new();
    let mut next_event = 0usize;
    let mut next_status = start;
    let mut rr = 0usize;
    let mut status_reads = 0usize;
    let mut end = start;

    loop {
        let outstanding = tracked.iter().any(|t| !t.done);
        if next_event == events.len() && !outstanding && fetch.is_empty() {
            end = Instant::now();
            break;
        }
        if Instant::now() > deadline {
            p.ops.fail("campaigns did not drain within the time limit");
            break;
        }
        // Result fetches are follow-ups, due as soon as Done was seen.
        if let Some(idx) = fetch.pop_front() {
            let t = Instant::now();
            let got = client.result(tracked[idx].id);
            let fetched = Instant::now();
            p.result.us.push((fetched - t).as_secs_f64() * 1e6);
            let (expected, due) = match tracked[idx].kind {
                Kind::Submit { k, due } => (&inputs.refs[k], Some(due)),
                Kind::Import { checkpoint, .. } => (&inputs.import_refs[checkpoint], None),
            };
            match got {
                Ok(report) if report == expected.report => {
                    p.ops.ok();
                    p.steps += expected.steps;
                    p.coverage += expected.coverage;
                    if let Some(due) = due {
                        let s = (fetched - due).as_secs_f64();
                        p.turnaround_s.push(s);
                        p.per_round_ms.push(s * 1e3 / expected.rounds.max(1) as f64);
                        if expected.rounds < SUBMIT_ROUNDS {
                            p.short_campaigns += 1;
                        }
                    }
                }
                Ok(_) => p
                    .ops
                    .fail("wire result differs from the direct run_campaign"),
                Err(e) => p.note_error("result", &e),
            }
            continue;
        }

        // The next scheduled request: a submission, an import or a status
        // read, whichever is due first.
        let event = events
            .get(next_event)
            .copied()
            .filter(|(at, _)| *at < next_status);
        let due = event.map_or(next_status, |(at, _)| at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        p.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);

        if let Some((_, Slot::Submit(k))) = event {
            next_event += 1;
            let t = Instant::now();
            let r = client.submit(&inputs.specs[k], 0);
            p.submit.us.push(t.elapsed().as_secs_f64() * 1e6);
            match r {
                Ok(id) => {
                    p.ops.ok();
                    tracked.push(Tracked {
                        id,
                        kind: Kind::Submit { k, due },
                        done: false,
                    });
                }
                Err(e) => p.note_error("submit", &e),
            }
        } else if let Some((_, Slot::Import(e))) = event {
            next_event += 1;
            let t = Instant::now();
            let checkpoint = RESUME_CYCLE[e % RESUME_CYCLE.len()];
            let ckpt = &inputs.imports[checkpoint];
            let r = client.import_checkpoint(ckpt);
            p.import.us.push(t.elapsed().as_secs_f64() * 1e6);
            match r {
                Ok(id) => {
                    p.ops.ok();
                    tracked.push(Tracked {
                        id,
                        kind: Kind::Import {
                            checkpoint,
                            round: ckpt.round,
                            due,
                            resumed: false,
                        },
                        done: false,
                    });
                }
                Err(e) => p.note_error("import", &e),
            }
        } else {
            status_reads += 1;
            next_status += status_gap;
            let Some(idx) = status_target(&tracked, &mut rr) else {
                continue;
            };
            let t = Instant::now();
            let r = client.status(tracked[idx].id);
            let answered = Instant::now();
            p.status.us.push((answered - t).as_secs_f64() * 1e6);
            match r {
                Ok(status) => {
                    p.ops.ok();
                    p.status_ms.push((answered - due).as_secs_f64() * 1e3);
                    observe(
                        &mut p,
                        &mut tracked[idx],
                        &status,
                        answered,
                        &mut fetch,
                        idx,
                    );
                }
                Err(e) => {
                    p.status_failed += 1;
                    p.note_error("status", &e);
                }
            }
            if sample_checkpoints
                && status_reads.is_multiple_of(10)
                && p.checkpoint_texts.len() < CHECKPOINT_SAMPLES
            {
                sample_checkpoint_files(dir, &mut p.checkpoint_texts);
            }
        }
    }
    p.run_s = (end - start).as_secs_f64();
    p
}

/// Which campaign the next status read asks about: a pending resume
/// first, then the unfinished campaigns in turn, else the newest one.
fn status_target(tracked: &[Tracked], rr: &mut usize) -> Option<usize> {
    if let Some(idx) = tracked
        .iter()
        .position(|t| matches!(t.kind, Kind::Import { resumed: false, .. }) && !t.done)
    {
        return Some(idx);
    }
    let open: Vec<usize> = (0..tracked.len()).filter(|&i| !tracked[i].done).collect();
    if open.is_empty() {
        return tracked.len().checked_sub(1);
    }
    *rr += 1;
    Some(open[*rr % open.len()])
}

/// Folds one status answer into the campaign's tracking.
fn observe(
    p: &mut Pass,
    t: &mut Tracked,
    status: &CampaignStatus,
    at: Instant,
    fetch: &mut VecDeque<usize>,
    idx: usize,
) {
    if let Kind::Import {
        checkpoint,
        round,
        due,
        resumed: false,
    } = t.kind
    {
        let past = match status {
            CampaignStatus::Running { round: now } => *now > round,
            CampaignStatus::Done => true,
            _ => false,
        };
        if past {
            p.resume.push((round, (at - due).as_secs_f64()));
            t.kind = Kind::Import {
                checkpoint,
                round,
                due,
                resumed: true,
            };
        }
    }
    if t.done {
        return;
    }
    match status {
        CampaignStatus::Done => {
            t.done = true;
            fetch.push_back(idx);
        }
        CampaignStatus::Failed(why) => {
            t.done = true;
            p.ops.fail(format!("campaign {} failed: {why}", t.id.0));
        }
        _ => {}
    }
}

fn sample_checkpoint_files(dir: &Path, texts: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    paths.sort();
    for path in paths {
        // A campaign that completes between the listing and the read
        // removes its file; that sample is simply skipped.
        if let Ok(text) = std::fs::read_to_string(&path) {
            texts.push(text);
        }
    }
}

/// One full control pass: build the inputs, start the service and
/// server `SETUP_REPS` times, run the schedule on the last start-up.
fn run_pass(
    seed: u64,
    seconds: f64,
    work: &Path,
    traced: bool,
) -> Result<(Pass, Vec<f64>, Inputs), String> {
    let telemetry = taopt_telemetry::global();
    telemetry.set_enabled(false);
    let slots = schedule(seconds);
    let t = Instant::now();
    let inputs = inputs(seed, submissions(&slots))?;
    let inputs_s = t.elapsed().as_secs_f64();
    telemetry.set_enabled(traced);

    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("ckpt-{rep}"));
        let t = Instant::now();
        let (handle, client) = start(&dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            handle.stop().shutdown();
        } else {
            live = Some((handle, client, dir));
        }
    }
    let (handle, client, dir) = live.expect("at least one start-up");
    let mut pass = drive(&client, &dir, &inputs, &slots, seed, traced);
    pass.inputs_s = inputs_s;
    let service = handle.stop();
    service.shutdown();
    telemetry.set_enabled(false);
    Ok((pass, setup_s, inputs))
}

/// The untraced control run.
pub fn untraced(seed: u64, seconds: u64, work: &Path) -> Outcome {
    let (p, setup_s, _) = match run_pass(seed, seconds as f64, work, false) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let mut out = Outcome::new(Ops::default());
    end_to_end(&mut out, &p, &setup_s);
    out.ops.merge(p.ops);
    out
}

fn end_to_end(out: &mut Outcome, p: &Pass, setup_s: &[f64]) {
    out.put("steps_per_s", p.steps as f64 / p.run_s);
    out.put_opt("round_ms_p50", tail_percentile(&p.per_round_ms, 0, 0.5));
    out.put("setup_s", median(setup_s));
    out.put("coverage_methods", p.coverage as f64);
    out.put_opt("turnaround_s_p50", tail_percentile(&p.turnaround_s, 0, 0.5));
    out.put_opt(
        "status_ms_p50",
        tail_percentile(&p.status_ms, p.status_failed, 0.5),
    );
    if p.resume.len() == IMPORTS {
        out.put(
            "resume_s",
            median(&p.resume.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
    }
    out.line(format!(
        "{} requests: {} submits, {} status reads ({} failed), {} imports, {} result fetches; run phase {:.3} s",
        p.requests(),
        p.submit.us.len(),
        p.status.us.len(),
        p.status_failed,
        p.import.us.len(),
        p.result.us.len(),
        p.run_s
    ));
    out.line(format!(
        "references (direct run_campaign of every spec, before the timed phase, in no metric): {:.3} s; \
         campaigns that ended before {SUBMIT_ROUNDS} rounds: {}",
        p.inputs_s, p.short_campaigns
    ));
    out.quartiles("status latency from due time", "ms", &p.status_ms);
    out.line(tails(
        "per-round p90",
        tail_percentile(&p.per_round_ms, 0, 0.9),
        "status p99",
        tail_percentile(&p.status_ms, p.status_failed, 0.99),
    ));
    out.quartiles(
        "turnaround (submit due -> result fetched)",
        "s",
        &p.turnaround_s,
    );
    out.quartiles("client-observed ms per round", "ms", &p.per_round_ms);
    out.quartiles("service + server start-up", "s", setup_s);
    out.quartiles("load generator lag", "ms", &p.lag_ms);
    out.quartiles(
        "import -> first progress, every import",
        "s",
        &p.resume.iter().map(|r| r.1).collect::<Vec<_>>(),
    );
    out.resume_curve("import -> first progress", &mean_by_round(&p.resume));
}

/// The traced control run: the schedule once untraced and once with
/// telemetry on, each over half the run; client calls are timed from the
/// benchmark, checkpoint files are sampled while the traced pass runs,
/// then decoded and re-encoded under the timer.
pub fn traced(seed: u64, seconds: u64, work: &Path) -> Outcome {
    let half = (seconds as f64 / 2.0).max(1.0);
    let telemetry = taopt_telemetry::global();
    let (plain, _, _) = match run_pass(seed, half, &work.join("untraced"), false) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let before = telemetry.snapshot();
    let (p, _, _) = match run_pass(seed, half, &work.join("traced"), true) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let after = telemetry.snapshot();
    let counter = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };

    let mut ops = Ops::default();
    let (mut enc_us, mut dec_us, mut bytes) = (0.0, 0.0, 0usize);
    for text in &p.checkpoint_texts {
        let t = Instant::now();
        let decoded = decode(text, "sampled checkpoint");
        dec_us += t.elapsed().as_secs_f64() * 1e6;
        match decoded {
            Ok(ckpt) => {
                let t = Instant::now();
                let again = encode(&ckpt);
                enc_us += t.elapsed().as_secs_f64() * 1e6;
                ops.check(if again == *text {
                    Ok(())
                } else {
                    Err("checkpoint re-encodes to different bytes".to_owned())
                });
            }
            Err(e) => ops.fail(format!("sampled checkpoint: {e}")),
        }
        bytes += text.len();
    }
    let samples = p.checkpoint_texts.len().max(1) as f64;
    let sps_plain = plain.steps as f64 / plain.run_s;
    let sps_traced = p.steps as f64 / p.run_s;

    let mut out = Outcome::new(ops);
    for name in crate::farm_only() {
        out.put(name, 0.0);
    }
    out.put(
        "service.checkpoints",
        counter("service_checkpoints_written_total") as f64,
    );
    out.put("service.checkpoint_bytes", bytes as f64 / samples);
    out.put("service.checkpoint_encode_us", enc_us / samples);
    out.put("service.checkpoint_decode_us", dec_us / samples);
    out.put("server.submit_us", p.submit.mean_us());
    out.put("server.status_us", p.status.mean_us());
    out.put("server.import_us", p.import.mean_us());
    out.put("server.result_us", p.result.mean_us());
    out.put("server.requests", p.requests() as f64);
    out.put("server.non2xx", p.non2xx as f64);
    out.put(
        "chaos.faults_injected",
        counter("faults_injected_total") as f64,
    );
    out.put(
        "chaos.faults_recovered",
        counter("faults_recovered_total") as f64,
    );
    out.put_opt(
        "loadgen.lag_ms_p99",
        tail_percentile(&plain.lag_ms, 0, 0.99),
    );
    out.put(
        "telemetry.overhead_pct",
        100.0 * (sps_plain / sps_traced - 1.0),
    );

    out.line(format!(
        "traced pass: {} requests, {} checkpoint files sampled ({:.0} bytes each), {} checkpoints written",
        p.requests(),
        p.checkpoint_texts.len(),
        bytes as f64 / samples,
        counter("service_checkpoints_written_total")
    ));
    out.line(format!(
        "client-side mean us per call: submit {:.0}, status {:.0}, import {:.0}, result {:.0}",
        p.submit.mean_us(),
        p.status.mean_us(),
        p.import.mean_us(),
        p.result.mean_us()
    ));
    out.resume_curve("import -> first progress", &mean_by_round(&p.resume));
    // The service resumes by replaying from round 0; its per-round cost
    // is the resume curve's slope.
    let per_round = out.values["resume.us_per_round"];
    out.put("service.replay_us_per_round", per_round);
    out.line(format!(
        "steps/s at the offered load: untraced {sps_plain:.0}, telemetry on {sps_traced:.0}"
    ));
    out.line(format!(
        "not measured on control (the service runs campaigns on its own threads; timing them needs spans inside the program): {}",
        crate::farm_only().join(", ")
    ));
    out.ops.merge(plain.ops);
    out.ops.merge(p.ops);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_import_gets_a_window_free_of_submissions() {
        for seconds in [1.0, 7.0, 20.0, 40.0, 60.0] {
            let slots = schedule(seconds);
            assert!(slots.len() >= (seconds * SLOTS_PER_S).round() as usize);
            let imports: Vec<usize> = (0..slots.len())
                .filter(|&i| matches!(slots[i], Slot::Import(_)))
                .collect();
            assert_eq!(imports.len(), IMPORTS, "{seconds} s");
            for (e, &at) in imports.iter().enumerate() {
                assert_eq!(slots[at], Slot::Import(e));
                for q in 1..=QUIET_SLOTS {
                    assert_eq!(slots.get(at + q), Some(&Slot::Quiet), "{seconds} s");
                }
            }
            assert_eq!(
                submissions(&slots),
                slots.len() - IMPORTS * (QUIET_SLOTS + 1)
            );
            assert!(submissions(&slots) >= MIN_SUBMITS);
            // Submissions are numbered in slot order from 0.
            let ks: Vec<usize> = slots
                .iter()
                .filter_map(|s| match s {
                    Slot::Submit(k) => Some(*k),
                    _ => None,
                })
                .collect();
            assert_eq!(ks, (0..ks.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn import_campaigns_share_one_history() {
        let digest_at = |round: u64, spec: &CampaignSpec| {
            let (apps, config) = spec.build().expect("catalog apps build");
            let mut campaign = Campaign::new(apps, &config);
            while campaign.round() < round && campaign.advance_round() {}
            campaign.digest()
        };
        let short = import_spec(7, IMPORT_ROUNDS[0]);
        let long = import_spec(7, IMPORT_ROUNDS[1]);
        assert_eq!(
            digest_at(IMPORT_ROUNDS[0], &short),
            digest_at(IMPORT_ROUNDS[0], &long)
        );
    }
}
