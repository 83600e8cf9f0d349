//! Traced re-drive of one app's campaign session.
//!
//! The loop below rebuilds what a fault-free campaign does for one app —
//! `SessionStep::new` / `grant` / `advance_round` / `finish` under direct
//! wiring, on a farm that serves every demand at the next boundary — from
//! the public calls of each layer, so the benchmark can time every call
//! from its own code:
//!
//! * device: `Emulator::boot_with`, `Emulator::observe`, `Emulator::execute`;
//! * tools: `TestingTool::next_action`, `on_transition`, `on_crash`;
//! * toller: `BlockList::apply`, `TransitionMonitor::record`;
//! * core coordinator: `TestCoordinator::process_traces` (or
//!   `process_trace` per instance when batching is off),
//!   `register_instance`, `unregister_instance_with_trace`, `rededicate`.
//!
//! The caller checks that the re-drive reproduces the campaign's per-app
//! coverage, crash set and subspaces exactly; a split of a different
//! program would measure nothing.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use taopt::analyzer::SubspaceInfo;
use taopt::campaign::{instance_seed, CampaignApp};
use taopt::coordinator::TestCoordinator;
use taopt::session::RunMode;
use taopt_app_sim::{App, CrashSignature, MethodId};
use taopt_device::{DeviceId, Emulator};
use taopt_toller::enforce::shared_block_list;
use taopt_toller::{InstanceId, SharedBlockList, TransitionMonitor};
use taopt_tools::TestingTool;
use taopt_ui_model::{ScreenObservation, Trace, VirtualTime};

/// Timed layer calls. Each has a total, the part spent inside campaign
/// rounds (the boot before round 1 and the final drain are outside), and
/// a call count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `next_action` + `on_transition` + `on_crash`.
    Decide,
    /// `Emulator::execute`.
    Execute,
    /// `Emulator::boot_with` + the boot `observe`.
    Boot,
    /// `BlockList::apply`.
    Enforce,
    /// `TransitionMonitor::record`.
    Monitor,
    /// `process_traces` / `process_trace`.
    Ingest,
    /// `register_instance`.
    Register,
    /// `unregister_instance_with_trace`.
    Retire,
    /// Orphan scan + `rededicate`.
    Repair,
}

const LAYERS: usize = 9;

/// Per-layer busy time and counts accumulated over one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    ns: [u64; LAYERS],
    round_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    in_round: bool,
    /// Tool decisions made (one per step).
    pub decisions: u64,
    /// Emulator steps executed.
    pub steps: u64,
    /// Steps that crashed the app.
    pub crashes: u64,
    /// Widgets enforcement disabled before the tool observed.
    pub widgets_blocked: u64,
    /// Transition events the monitor recorded.
    pub events: u64,
    /// Subspaces the analyzer newly confirmed.
    pub confirmed: u64,
}

impl Tracer {
    fn add(&mut self, layer: Layer, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let k = layer as usize;
        self.ns[k] += ns;
        self.calls[k] += 1;
        if self.in_round {
            self.round_ns[k] += ns;
        }
    }

    /// Total µs spent in `layer`.
    pub fn us(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 / 1e3
    }

    /// µs spent in `layer` inside campaign rounds.
    pub fn round_us(&self, layer: Layer) -> f64 {
        self.round_ns[layer as usize] as f64 / 1e3
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// What the re-drive produced for one app: the outputs the campaign's
/// report must match.
#[derive(Debug)]
pub struct AppOutcome {
    /// Union of methods covered by every instance.
    pub covered: BTreeSet<MethodId>,
    /// Union of unique crashes of every instance.
    pub crashes: BTreeSet<CrashSignature>,
    /// The analyzer's subspace registry at the end.
    pub subspaces: Vec<SubspaceInfo>,
}

/// One live instance: the pieces `InstrumentedInstance` holds, kept
/// apart so each call can be timed.
struct Live {
    id: InstanceId,
    emulator: Emulator,
    tool: Box<dyn TestingTool>,
    monitor: TransitionMonitor,
    blocklist: SharedBlockList,
    distinct_screens: usize,
    last_obs: Option<ScreenObservation>,
    last_new_screen: VirtualTime,
}

struct Session<'a> {
    app: &'a Arc<App>,
    cfg: &'a taopt::session::SessionConfig,
    coordinator: TestCoordinator,
    active: Vec<Live>,
    next_instance: u32,
    next_device: u32,
    now: VirtualTime,
    out: AppOutcome,
}

/// Re-drives `app`'s session with every layer call timed into `tr`.
///
/// # Panics
///
/// Panics on a run mode other than TaOPT duration mode (the only one the
/// `farm` workload uses) and when a tool fires an action the screen does
/// not offer, as the instrumented instance does.
pub fn redrive(app: &CampaignApp, tr: &mut Tracer) -> AppOutcome {
    let cfg = &app.config;
    assert_eq!(
        cfg.mode,
        RunMode::TaoptDuration,
        "re-drive covers duration mode"
    );
    assert!(cfg.warm_start.is_none(), "re-drive starts cold");
    let mut s = Session {
        app: &app.app,
        cfg,
        coordinator: TestCoordinator::new(cfg.analyzer.clone())
            .with_stall_timeout(cfg.stall_timeout),
        active: Vec::new(),
        next_instance: 0,
        next_device: 0,
        now: VirtualTime::ZERO,
        out: AppOutcome {
            covered: BTreeSet::new(),
            crashes: BTreeSet::new(),
            subspaces: Vec::new(),
        },
    };
    let end = VirtualTime::ZERO + cfg.duration;
    tr.in_round = false;
    s.grant_demand(tr);
    tr.in_round = true;
    loop {
        s.round(tr);
        if s.now >= end {
            break;
        }
        s.grant_demand(tr);
    }
    tr.in_round = false;
    s.finish(tr)
}

impl Session<'_> {
    /// Leasing boundary on an uncontended farm: every wanted device is
    /// granted, and each grant boots an instance at the local clock.
    fn grant_demand(&mut self, tr: &mut Tracer) {
        while self.active.len() < self.cfg.instances {
            self.boot(tr);
        }
    }

    fn boot(&mut self, tr: &mut Tracer) {
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let device = DeviceId(self.next_device);
        self.next_device += 1;
        let seed = instance_seed(self.cfg.seed, id);
        let tool = self.cfg.tool.build(seed);
        let blocklist = shared_block_list();
        let mut monitor = TransitionMonitor::new(id);

        let t = Instant::now();
        let mut emulator = Emulator::boot_with(
            device,
            Arc::clone(self.app),
            seed ^ 0xabcd,
            self.now,
            self.cfg.emulator,
        );
        let mut obs = emulator.observe();
        tr.add(Layer::Boot, t);
        let t = Instant::now();
        let blocked = blocklist
            .read()
            .apply(obs.abstract_id(), &mut obs.hierarchy);
        tr.add(Layer::Enforce, t);
        tr.widgets_blocked += blocked as u64;
        let t = Instant::now();
        monitor.record(None, None, &obs);
        tr.add(Layer::Monitor, t);
        tr.events += 1;

        // Direct wiring: the coordinator writes into the device's own
        // block list.
        let t = Instant::now();
        self.coordinator
            .register_instance(id, Arc::clone(&blocklist));
        tr.add(Layer::Register, t);
        self.active.push(Live {
            id,
            distinct_screens: emulator.distinct_screens(),
            emulator,
            tool,
            monitor,
            blocklist,
            last_obs: Some(obs),
            last_new_screen: self.now,
        });
    }

    fn round(&mut self, tr: &mut Tracer) {
        self.now += self.cfg.tick;
        let target = self.now.min(VirtualTime::ZERO + self.cfg.duration);
        for a in self.active.iter_mut() {
            while a.emulator.now() < target {
                step(a, tr);
            }
        }

        let t = Instant::now();
        let confirmed = if self.cfg.batched_ingestion {
            let batch: Vec<(InstanceId, &Trace)> = self
                .active
                .iter()
                .map(|a| (a.id, a.monitor.trace()))
                .collect();
            self.coordinator
                .process_traces(&batch, self.now)
                .map(|c| c.len())
                .unwrap_or(0)
        } else {
            let mut n = 0;
            for a in &self.active {
                n += self
                    .coordinator
                    .process_trace(a.id, a.monitor.trace(), self.now)
                    .map(|c| c.len())
                    .unwrap_or(0);
            }
            n
        };
        tr.add(Layer::Ingest, t);
        tr.confirmed += confirmed as u64;

        let mut i = 0;
        while i < self.active.len() {
            if self
                .coordinator
                .should_deallocate(self.active[i].last_new_screen, self.now)
            {
                self.retire(i, tr);
            } else {
                i += 1;
            }
        }
        self.repair(tr);
    }

    fn repair(&mut self, tr: &mut Tracer) {
        let t = Instant::now();
        if self.coordinator.has_orphans() {
            for sid in self.coordinator.orphaned_subspaces() {
                let _ = self.coordinator.rededicate(sid, self.now);
            }
        }
        tr.add(Layer::Repair, t);
    }

    /// Removes `active[idx]` exactly as the session step does
    /// (`swap_remove`, so the survivors' order matches), settles it with
    /// the coordinator and folds its outputs in.
    fn retire(&mut self, idx: usize, tr: &mut Tracer) {
        let a = self.active.swap_remove(idx);
        let visited: BTreeSet<_> = a
            .monitor
            .trace()
            .events()
            .iter()
            .map(|e| e.abstract_id)
            .collect();
        let t = Instant::now();
        self.coordinator
            .unregister_instance_with_trace(a.id, &visited);
        tr.add(Layer::Retire, t);
        self.out
            .covered
            .extend(a.emulator.coverage().covered().iter().copied());
        self.out
            .crashes
            .extend(a.emulator.crashes().unique_crashes().iter().copied());
    }

    fn finish(mut self, tr: &mut Tracer) -> AppOutcome {
        // Final orphan repair, then drain in the step's order.
        self.repair(tr);
        while !self.active.is_empty() {
            self.retire(0, tr);
        }
        let (subspaces, _) = self.coordinator.into_report();
        self.out.subspaces = subspaces;
        self.out
    }
}

/// One tool step: observe → decide → execute → enforce → notify → record,
/// the order `InstrumentedInstance::step` uses.
fn step(a: &mut Live, tr: &mut Tracer) {
    let prev = a
        .last_obs
        .take()
        .expect("an instance always holds its last observation");
    let t = Instant::now();
    let action = a.tool.next_action(&prev);
    tr.add(Layer::Decide, t);
    let t = Instant::now();
    let out = a
        .emulator
        .execute(action)
        .expect("tools only fire actions offered by the observation");
    tr.add(Layer::Execute, t);
    let mut obs = out.observation;
    let t = Instant::now();
    let blocked = a
        .blocklist
        .read()
        .apply(obs.abstract_id(), &mut obs.hierarchy);
    tr.add(Layer::Enforce, t);
    let t = Instant::now();
    a.tool.on_transition(prev.abstract_id(), action, &obs);
    if out.crash.is_some() {
        a.tool.on_crash();
    }
    tr.add(Layer::Decide, t);
    let t = Instant::now();
    a.monitor.record(Some(&prev), Some(action), &obs);
    tr.add(Layer::Monitor, t);

    tr.decisions += 1;
    tr.steps += 1;
    tr.events += 1;
    tr.widgets_blocked += blocked as u64;
    if out.crash.is_some() {
        tr.crashes += 1;
    }
    let screens = a.emulator.distinct_screens();
    if !out.newly_covered.is_empty() || screens > a.distinct_screens {
        a.last_new_screen = a.emulator.now();
    }
    a.distinct_screens = screens;
    a.last_obs = Some(obs);
}
