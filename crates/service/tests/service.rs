//! Service-level integration and property tests: checkpoint-at-any-round
//! resume is byte-identical (including across host budgets and under
//! fault plans), damaged checkpoints are rejected cleanly, and the
//! service queue/priority/crash/recover lifecycle reproduces direct
//! [`run_campaign`] results exactly.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use taopt::campaign::run_campaign;
use taopt::experiments::ExperimentScale;
use taopt::{Campaign, KillEvent, RunMode};
use taopt_chaos::{FaultPlan, FaultRates};
use taopt_service::{
    AppSource, AppSpec, CampaignService, CampaignSpec, CampaignStatus, Checkpoint, CheckpointStore,
    EvolutionSpec, ServiceConfig, ServiceError, CHECKPOINT_VERSION,
};
use taopt_tools::ToolKind;
use taopt_ui_model::json::Value;
use taopt_ui_model::VirtualDuration;

/// A fresh scratch dir under the system temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taopt-service-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny but fully-featured campaign spec: `n` two-instance generated
/// apps, mixed tools/modes, and (on even seeds) a fault plan plus a
/// scheduled device kill, so resume is also exercised under chaos.
fn tiny_spec(n_apps: usize, seed: u64, host_threads: usize) -> CampaignSpec {
    let scale = ExperimentScale {
        instances: 2,
        duration: VirtualDuration::from_mins(3),
        tick: VirtualDuration::from_secs(10),
        stall_timeout: VirtualDuration::from_secs(60),
        l_min_short: VirtualDuration::from_secs(40),
        l_min_long: VirtualDuration::from_secs(100),
        grid_points: 4,
    };
    let apps = (0..n_apps)
        .map(|i| AppSpec {
            source: AppSource::Small {
                name: format!("svc{i}"),
                seed: seed ^ (i as u64 + 1),
            },
            tool: if i % 2 == 0 {
                ToolKind::Monkey
            } else {
                ToolKind::Ape
            },
            mode: if i % 3 == 2 {
                RunMode::TaoptResource
            } else {
                RunMode::TaoptDuration
            },
            seed: seed.wrapping_add(i as u64),
        })
        .collect();
    let mut spec = CampaignSpec::new(format!("tiny-{n_apps}-{seed}"), apps, scale);
    spec.host_threads = host_threads;
    if seed.is_multiple_of(2) {
        spec.faults = Some(FaultPlan::new(seed, FaultRates::uniform(0.02)));
        spec.kills = vec![KillEvent {
            round: 4,
            victim: seed % (n_apps as u64 * 2),
        }];
    }
    spec
}

/// The canonical uninterrupted result of a spec.
fn direct_report(spec: &CampaignSpec) -> String {
    let (apps, config) = spec.build().unwrap();
    run_campaign(apps, &config).coverage_report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Core durability law: stop a campaign at *any* round, round-trip the
    /// checkpoint through disk, resume — possibly with a different host
    /// budget — and the finished coverage report is byte-identical to an
    /// uninterrupted run.
    #[test]
    fn checkpoint_any_round_resume_is_byte_identical(
        n_apps in 1usize..4,
        seed in 0u64..500,
        budget_sel in 0usize..4,
        resume_sel in 0usize..4,
        stop_round in 1u64..12,
    ) {
        let budget = [1usize, 2, 4, 8][budget_sel];
        let resume_budget = [1usize, 2, 4, 8][resume_sel];
        let spec = tiny_spec(n_apps, seed, budget);
        let reference = direct_report(&spec);

        let (apps, config) = spec.build().unwrap();
        let mut campaign = Campaign::new(apps, &config);
        let mut live = true;
        while live && campaign.round() < stop_round {
            live = campaign.advance_round();
        }
        if !live {
            // The campaign ended before `stop_round`; the uninterrupted
            // equality must still hold.
            prop_assert_eq!(campaign.finish().coverage_report(), reference);
            return Ok(());
        }

        // Mid-flight: checkpoint through an actual file.
        let digest = campaign.digest();
        drop(campaign);
        let store = CheckpointStore::new(scratch(&format!(
            "prop-{n_apps}-{seed}-{budget}-{resume_budget}-{stop_round}"
        )))
        .unwrap();
        let path = store
            .save(&Checkpoint {
                version: CHECKPOINT_VERSION,
                campaign: 1,
                priority: 0,
                round: stop_round,
                sequence_version: 0,
                spec: spec.clone(),
                digest: Some(digest),
            })
            .unwrap();
        let ckpt = store.load(&path).unwrap();
        prop_assert_eq!(&ckpt.spec, &spec);

        // Resume: rebuild, replay, verify the digest, run to completion.
        let mut resumed_spec = ckpt.spec;
        resumed_spec.host_threads = resume_budget;
        let (apps, config) = resumed_spec.build().unwrap();
        let mut resumed = Campaign::new(apps, &config);
        while resumed.round() < ckpt.round {
            prop_assert!(resumed.advance_round(), "replay ended early");
        }
        let replayed = resumed.digest();
        prop_assert_eq!(ckpt.digest.unwrap().diff(&replayed), None);
        while resumed.advance_round() {}
        prop_assert_eq!(resumed.finish().coverage_report(), reference);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Host-budget law: the campaign compute-pool budget is pure mechanism
    /// and never affects results — the coverage report is byte-identical
    /// across `host_threads` ∈ {1, 2, 4, 8}, and a campaign checkpointed
    /// under one budget resumes byte-identically under another (the budget
    /// travels through the durable checkpoint encoding both ways).
    #[test]
    fn host_threads_never_affect_results(
        n_apps in 1usize..4,
        seed in 0u64..500,
        budget_sel in 0usize..4,
        resume_sel in 0usize..4,
        stop_round in 1u64..10,
    ) {
        let budgets = [1usize, 2, 4, 8];
        let spec = tiny_spec(n_apps, seed, 1);
        let reference = direct_report(&spec);
        for b in [2usize, 4, 8] {
            let mut s = spec.clone();
            s.host_threads = b;
            prop_assert_eq!(
                direct_report(&s),
                reference.clone(),
                "host_threads={} diverged from host_threads=1",
                b
            );
        }

        // Checkpoint under one budget, resume under another.
        let mut run_spec = spec.clone();
        run_spec.host_threads = budgets[budget_sel];
        let (apps, config) = run_spec.build().unwrap();
        let mut campaign = Campaign::new(apps, &config);
        let mut live = true;
        while live && campaign.round() < stop_round {
            live = campaign.advance_round();
        }
        if !live {
            prop_assert_eq!(campaign.finish().coverage_report(), reference);
            return Ok(());
        }
        let digest = campaign.digest();
        drop(campaign);
        let store = CheckpointStore::new(scratch(&format!(
            "prop-host-{n_apps}-{seed}-{budget_sel}-{resume_sel}-{stop_round}"
        )))
        .unwrap();
        let path = store
            .save(&Checkpoint {
                version: CHECKPOINT_VERSION,
                campaign: 1,
                priority: 0,
                round: stop_round,
                sequence_version: 0,
                spec: run_spec.clone(),
                digest: Some(digest),
            })
            .unwrap();
        let ckpt = store.load(&path).unwrap();
        prop_assert_eq!(&ckpt.spec, &run_spec);

        let mut resumed_spec = ckpt.spec;
        resumed_spec.host_threads = budgets[resume_sel];
        let (apps, config) = resumed_spec.build().unwrap();
        let mut resumed = Campaign::new(apps, &config);
        while resumed.round() < ckpt.round {
            prop_assert!(resumed.advance_round(), "replay ended early");
        }
        prop_assert_eq!(ckpt.digest.unwrap().diff(&resumed.digest()), None);
        while resumed.advance_round() {}
        prop_assert_eq!(resumed.finish().coverage_report(), reference);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Any truncation or byte flip of a checkpoint file must surface as a
    /// clean `Err` — never a panic, never a silently wrong resume.
    #[test]
    fn damaged_checkpoint_is_always_rejected(
        damage_at in 0usize..4096,
        flip in 1u8..255,
        truncate in 0u8..2,
    ) {
        let truncate = truncate == 1;
        let store = CheckpointStore::new(scratch("prop-damage")).unwrap();
        let path = store
            .save(&Checkpoint {
                version: CHECKPOINT_VERSION,
                campaign: 9,
                priority: 2,
                round: 6,
                sequence_version: 0,
                spec: tiny_spec(2, 42, 1),
                digest: None,
            })
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        if truncate {
            let cut = 1 + damage_at % (bytes.len() - 1);
            bytes.truncate(cut);
        } else {
            let idx = damage_at % bytes.len();
            bytes[idx] = bytes[idx].wrapping_add(flip);
        }
        fs::write(&path, &bytes).unwrap();
        prop_assert!(store.load(&path).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }
}

#[test]
fn service_queue_runs_everything_byte_identical() {
    let dir = scratch("queue");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 3;
    let service = CampaignService::start(config).unwrap();

    // Three campaigns of demand 4 against a 4-device farm: strictly
    // serialized, admitted highest-priority-first.
    let mut specs = [
        tiny_spec(2, 10, 1),
        tiny_spec(2, 11, 2),
        tiny_spec(3, 12, 1),
    ];
    specs[2].capacity = Some(4);
    let expected: Vec<String> = specs.iter().map(direct_report).collect();
    let ids: Vec<_> = specs
        .iter()
        .zip([1u8, 5, 3])
        .map(|(s, pri)| service.submit(s.clone(), pri).unwrap())
        .collect();

    service.wait_all();
    for (id, want) in ids.iter().zip(&expected) {
        assert_eq!(service.status(*id).unwrap(), CampaignStatus::Done);
        assert_eq!(service.result(*id).unwrap().as_deref(), Some(want.as_str()));
    }

    // Completed campaigns leave no checkpoints behind.
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_impossible_and_invalid_specs() {
    let dir = scratch("admission");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 2;
    let service = CampaignService::start(config).unwrap();

    // Demand 4 > farm 2: can never run.
    assert!(matches!(
        service.submit(tiny_spec(2, 1, 1), 0),
        Err(ServiceError::Rejected(_))
    ));
    // Unknown catalog app: fails the submitter, not a runner thread.
    let mut bad = tiny_spec(1, 1, 1);
    bad.capacity = Some(1);
    bad.apps[0].source = AppSource::Catalog("NoSuchApp".to_owned());
    assert!(matches!(
        service.submit(bad, 0),
        Err(ServiceError::UnknownApp(_))
    ));
    assert!(matches!(
        service.status(taopt_service::CampaignId(77)),
        Err(ServiceError::UnknownCampaign(77))
    ));
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn preemption_keeps_results_byte_identical() {
    let dir = scratch("preempt");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config).unwrap();

    // A long low-priority campaign, then a high-priority one that outranks
    // it while the farm is full: the low one is asked to checkpoint and
    // yield, resumes later, and must still finish byte-identical.
    let mut long_spec = tiny_spec(3, 20, 1);
    long_spec.scale.duration = VirtualDuration::from_mins(30);
    long_spec.capacity = Some(4);
    let short_spec = tiny_spec(2, 21, 1);
    let long_want = direct_report(&long_spec);
    let short_want = direct_report(&short_spec);

    let low = service.submit(long_spec, 1).unwrap();
    let high = service.submit(short_spec, 9).unwrap();

    assert_eq!(service.wait(high).unwrap(), CampaignStatus::Done);
    assert_eq!(service.wait(low).unwrap(), CampaignStatus::Done);
    assert_eq!(
        service.result(low).unwrap().as_deref(),
        Some(long_want.as_str())
    );
    assert_eq!(
        service.result(high).unwrap().as_deref(),
        Some(short_want.as_str())
    );
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_and_recover_completes_every_unfinished_campaign() {
    let dir = scratch("crash");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 4;
    config.checkpoint_every = 2;
    let service = CampaignService::start(config.clone()).unwrap();

    // Campaign 1 is long and runs first; 2 and 3 queue behind it, so at
    // least two campaigns are guaranteed unfinished at the crash.
    let mut specs = [
        tiny_spec(2, 30, 2),
        tiny_spec(2, 31, 1),
        tiny_spec(3, 32, 1),
    ];
    specs[0].scale.duration = VirtualDuration::from_mins(30);
    specs[0].capacity = Some(4);
    specs[2].capacity = Some(4);
    let expected: Vec<String> = specs.iter().map(direct_report).collect();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| service.submit(s.clone(), 4).unwrap())
        .collect();

    // Let the first campaign make some progress, then kill the process.
    for _ in 0..20_000 {
        match service.status(ids[0]).unwrap() {
            CampaignStatus::Running { round } if round >= 3 => break,
            CampaignStatus::Done | CampaignStatus::Failed(_) => break,
            _ => std::thread::yield_now(),
        }
    }
    service.crash();

    let (service, recovery) = CampaignService::recover(config).unwrap();
    assert!(recovery.rejected.is_empty());
    // Everything that had not completed pre-crash — at minimum the two
    // queued campaigns — comes back from its durable checkpoint.
    assert!(
        recovery.resumed.len() >= 2,
        "resumed {:?}",
        recovery.resumed
    );
    service.wait_all();
    for (id, want) in ids.iter().zip(&expected) {
        if recovery.resumed.contains(id) {
            assert_eq!(service.status(*id).unwrap(), CampaignStatus::Done);
            assert_eq!(
                service.result(*id).unwrap().as_deref(),
                Some(want.as_str()),
                "resumed campaign {id:?} diverged from uninterrupted run"
            );
        }
    }
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_digest_fails_the_resume_cleanly() {
    let dir = scratch("tamper");
    let spec = tiny_spec(2, 40, 1);
    let (apps, config) = spec.build().unwrap();
    let mut campaign = Campaign::new(apps, &config);
    for _ in 0..3 {
        assert!(campaign.advance_round());
    }
    let mut digest = campaign.digest();
    digest.grants += 1;
    let store = CheckpointStore::new(&dir).unwrap();
    store
        .save(&Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 1,
            priority: 0,
            round: campaign.round(),
            sequence_version: 0,
            spec,
            digest: Some(digest),
        })
        .unwrap();

    let mut svc_config = ServiceConfig::new(&dir);
    svc_config.farm_capacity = 8;
    let (service, recovery) = CampaignService::recover(svc_config).unwrap();
    assert_eq!(recovery.resumed.len(), 1);
    let id = recovery.resumed[0];
    match service.wait(id).unwrap() {
        CampaignStatus::Failed(msg) => {
            assert!(msg.contains("diverged"), "unexpected failure: {msg}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A small evolution spec: `versions` releases of two TaOPT-mode apps
/// with warm-start threading.
fn evolution_spec(seed: u64, versions: u64) -> CampaignSpec {
    let mut spec = tiny_spec(2, seed, 2);
    spec.evolution = Some(EvolutionSpec {
        seed: seed ^ 0xe0,
        versions,
        warm: true,
    });
    spec
}

#[test]
fn evolution_campaign_reports_every_release() {
    let dir = scratch("evolution");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    let service = CampaignService::start(config).unwrap();

    let id = service.submit(evolution_spec(61, 3), 4).unwrap();
    assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
    let report = service.result(id).unwrap().unwrap();
    let v = Value::parse(&report).unwrap();
    let versions = v.require("versions").unwrap().as_array().unwrap();
    assert_eq!(versions.len(), 3);
    for (i, ver) in versions.iter().enumerate() {
        assert_eq!(
            ver.require("version").unwrap().as_u64(),
            Some(i as u64),
            "versions out of order"
        );
        // Each release carries its evolution report and a full coverage
        // report.
        let evo = ver.require("evolution").unwrap();
        assert!(evo.require("apps").unwrap().as_array().unwrap().len() == 2);
        assert!(ver.require("coverage").is_ok());
    }
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn evolution_mid_version_crash_recovers_byte_identical() {
    // Reference: the same evolution spec run uninterrupted.
    let spec = evolution_spec(62, 3);
    let ref_dir = scratch("evo-ref");
    let mut ref_config = ServiceConfig::new(&ref_dir);
    ref_config.farm_capacity = 8;
    let reference = {
        let service = CampaignService::start(ref_config).unwrap();
        let id = service.submit(spec.clone(), 4).unwrap();
        assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
        let report = service.result(id).unwrap().unwrap();
        service.shutdown();
        report
    };
    let _ = fs::remove_dir_all(&ref_dir);

    // Interrupted run: checkpoint every round, kill the service once a
    // checkpoint lands *inside* a later release (sequence cursor ≥ 1).
    let dir = scratch("evo-crash");
    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    config.checkpoint_every = 1;
    let service = CampaignService::start(config.clone()).unwrap();
    let id = service.submit(spec, 4).unwrap();
    let store = CheckpointStore::new(&dir).unwrap();
    let mut saw_mid_version = false;
    for _ in 0..200_000 {
        if let Ok(ckpt) = store.load(&store.path_for(id.0)) {
            if ckpt.sequence_version >= 1 && ckpt.round >= 1 {
                saw_mid_version = true;
                break;
            }
        }
        if matches!(
            service.status(id).unwrap(),
            CampaignStatus::Done | CampaignStatus::Failed(_)
        ) {
            break;
        }
        std::thread::yield_now();
    }
    assert!(
        saw_mid_version,
        "campaign never checkpointed inside a later release"
    );
    service.crash();

    let (service, recovery) = CampaignService::recover(config).unwrap();
    assert!(recovery.rejected.is_empty());
    assert_eq!(recovery.resumed, vec![id]);
    assert_eq!(service.wait(id).unwrap(), CampaignStatus::Done);
    assert_eq!(
        service.result(id).unwrap().as_deref(),
        Some(reference.as_str()),
        "mid-version resume diverged from uninterrupted release train"
    );
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.list().unwrap().is_empty());
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recover_reports_unreadable_checkpoints_without_dying() {
    let dir = scratch("reject");
    let store = CheckpointStore::new(&dir).unwrap();
    store
        .save(&Checkpoint {
            version: CHECKPOINT_VERSION,
            campaign: 1,
            priority: 0,
            round: 0,
            sequence_version: 0,
            spec: tiny_spec(1, 50, 1),
            digest: None,
        })
        .unwrap();
    fs::write(store.path_for(2), "garbage, not a checkpoint").unwrap();

    let mut config = ServiceConfig::new(&dir);
    config.farm_capacity = 8;
    let (service, recovery) = CampaignService::recover(config).unwrap();
    assert_eq!(recovery.resumed.len(), 1);
    assert_eq!(recovery.rejected.len(), 1);
    assert!(matches!(
        recovery.rejected[0].1,
        ServiceError::Corrupt { .. }
    ));
    service.wait_all();
    assert_eq!(
        service.status(recovery.resumed[0]).unwrap(),
        CampaignStatus::Done
    );
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn legacy_workers_key_is_accepted_and_ignored() {
    // Specs written before the single host budget carry a `workers` key
    // and no `host_threads`. They still decode, to the spec without the
    // key, and run to the same coverage report.
    let spec = tiny_spec(2, 60, 1);
    let Value::Object(fields) = spec.to_value() else {
        panic!("spec serializes to an object")
    };
    assert!(
        fields.iter().all(|(k, _)| k != "workers"),
        "encoding must not write `workers`"
    );
    let without: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(k, _)| k != "host_threads")
        .collect();
    let mut with = without.clone();
    with.push(("workers".to_owned(), Value::UInt(4)));
    let legacy = CampaignSpec::from_value(&Value::Object(with)).unwrap();
    let plain = CampaignSpec::from_value(&Value::Object(without)).unwrap();
    assert_eq!(legacy, plain);
    assert_eq!(legacy.host_threads, 0, "no host budget means auto-detect");
    assert_eq!(direct_report(&legacy), direct_report(&plain));
}
