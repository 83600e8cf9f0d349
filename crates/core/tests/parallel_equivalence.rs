//! Differential equivalence suite for the analysis hot paths.
//!
//! The lane-vectorized FindSpace sweep and batched per-round ingestion
//! both promise **bit-identical** output to their serial references.
//! Each suite here pins one of those promises over random traces with
//! duplicate timestamps, in the style of the `findspace_engine_*`
//! proptests:
//!
//! 1. `vectorized_sweep_*`: `analyze_with_lanes` at every width agrees
//!    with `analyze_reference` and the full-rescan reference;
//! 2. `batched_ingestion_*`: `ingest_round` agrees with one-at-a-time
//!    `maybe_analyze` calls — same confirmations per round, same final
//!    registry, same cache content.
//!
//! Plus the `forget_instance` occupancy test.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use taopt::analyzer::{AnalyzerConfig, OnlineTraceAnalyzer};
use taopt::findspace::{find_space_candidates, FindSpaceConfig, FindSpaceEngine, SimilarityCache};
use taopt_toller::InstanceId;
use taopt_ui_model::abstraction::{AbstractHierarchy, AbstractNode};
use taopt_ui_model::{
    Action, ActionId, ActivityId, ScreenId, Trace, TraceEvent, VirtualDuration, VirtualTime,
    WidgetClass,
};

/// Synthesizes a trace event for abstract state `label`.
fn ev(t: u64, label: u32) -> TraceEvent {
    let abstraction = Arc::new(AbstractHierarchy::from_root(AbstractNode {
        class: WidgetClass::FrameLayout,
        resource_id: Some(format!("state-{label}")),
        children: vec![AbstractNode {
            class: WidgetClass::TextView,
            resource_id: Some(format!("body-{label}")),
            children: Vec::new(),
        }],
    }));
    TraceEvent {
        time: VirtualTime::from_secs(t),
        screen: ScreenId(label),
        activity: ActivityId(0),
        abstract_id: abstraction.id(),
        abstraction,
        action: Some(Action::Widget(ActionId(label))),
        action_widget_rid: Some(Arc::from(format!("w{label}"))),
    }
}

/// An arbitrary trace whose timestamps may repeat (several events in
/// the same virtual instant) and whose gaps vary, exercising `l_min`
/// window edges — the same shape as `property.rs`'s `arb_dup_trace`.
fn arb_dup_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u32..8, 0u64..3), 2..120).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(label, gap)| {
                t += gap; // gap 0 → duplicate timestamp
                ev(t, label)
            })
            .collect()
    })
}

/// Up to three instance traces over one shared screen alphabet, so the
/// similarity cache is genuinely shared across instances.
fn arb_instance_traces() -> impl Strategy<Value = Vec<Vec<TraceEvent>>> {
    proptest::collection::vec(arb_dup_trace(), 1..4)
}

fn fs_config() -> FindSpaceConfig {
    FindSpaceConfig {
        l_min: VirtualDuration::from_secs(30),
        min_prefix_events: 4,
        min_prefix_distinct: 2,
        ..FindSpaceConfig::default()
    }
}

fn analyzer_config() -> AnalyzerConfig {
    let mut c = AnalyzerConfig::resource_mode();
    c.find_space = fs_config();
    c.analysis_interval = VirtualDuration::from_secs(10);
    c.min_new_events = 5;
    c.min_subspace_screens = 2;
    c
}

/// Bitwise candidate-list equality.
macro_rules! prop_assert_identical {
    ($a:expr, $b:expr, $ctx:expr) => {{
        let (a, b) = (&$a, &$b);
        prop_assert_eq!(a.len(), b.len(), "candidate count diverged at {}", $ctx);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.index, y.index, "index diverged at {}", $ctx);
            prop_assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits diverged at {}",
                $ctx
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Suite 1: vectorized kernel ≡ scalar. The lane sweep at every
    /// width matches the verbatim scalar loop (`analyze_reference`) and
    /// the full-rescan reference, bit for bit, on every prefix.
    #[test]
    fn vectorized_sweep_equivalent_to_scalar(
        events in arb_dup_trace(),
        chunk in 1usize..=17,
        l_min_secs in 0u64..80,
    ) {
        let mut cfg = fs_config();
        cfg.l_min = VirtualDuration::from_secs(l_min_secs);
        let cache = SimilarityCache::new();
        let rescan_cache = SimilarityCache::new();
        let mut scalar = FindSpaceEngine::new(cfg.clone());
        let mut laned: Vec<(usize, FindSpaceEngine)> = [1usize, 2, 3, 4, 8, 16]
            .into_iter()
            .map(|w| (w, FindSpaceEngine::new(cfg.clone())))
            .collect();
        let mut end = 0usize;
        while end < events.len() {
            end = (end + chunk).min(events.len());
            scalar.extend_from(&events[..end], &cache);
            let anchor = scalar.analyze_reference(5);
            prop_assert_identical!(
                anchor,
                find_space_candidates(&events[..end], &cfg, &rescan_cache, 5),
                format_args!("scalar vs rescan prefix {end}")
            );
            for (w, engine) in laned.iter_mut() {
                engine.extend_from(&events[..end], &cache);
                prop_assert_identical!(
                    engine.analyze_with_lanes(5, *w),
                    anchor,
                    format_args!("lanes {w} prefix {end}")
                );
            }
        }
    }

    /// Suite 2: batched ingestion ≡ one-at-a-time. Feeding every
    /// instance's trace through `ingest_round` produces the same
    /// per-round confirmations, the same final subspace registry, and
    /// the same similarity-cache content as sequential `maybe_analyze`
    /// calls in the same order.
    #[test]
    fn batched_ingestion_equivalent_to_serial(
        traces in arb_instance_traces(),
        chunk in 3usize..=20,
    ) {
        let mut serial = OnlineTraceAnalyzer::new(analyzer_config());
        let mut batched = OnlineTraceAnalyzer::new(analyzer_config());
        let rounds = traces
            .iter()
            .map(|t| t.len().div_ceil(chunk))
            .max()
            .unwrap_or(0);
        for round in 0..rounds {
            let now = VirtualTime::from_secs((round as u64 + 1) * 15);
            let prefixes: Vec<(InstanceId, Trace)> = traces
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let end = ((round + 1) * chunk).min(t.len());
                    (InstanceId(i as u32), t[..end].iter().cloned().collect())
                })
                .collect();
            let mut serial_confirmed = Vec::new();
            for (id, trace) in &prefixes {
                serial_confirmed.extend(serial.maybe_analyze(*id, trace, now));
            }
            let batch: Vec<(InstanceId, &Trace)> =
                prefixes.iter().map(|(id, t)| (*id, t)).collect();
            let batched_confirmed = batched.ingest_round(&batch, now);
            prop_assert_eq!(&serial_confirmed, &batched_confirmed, "round {}", round);
        }
        prop_assert_eq!(serial.subspaces(), batched.subspaces());
        prop_assert_eq!(
            serial.similarity_cache().snapshot(),
            batched.similarity_cache().snapshot()
        );
    }
}

/// Occupancy: forgetting an instance evicts cache decisions for screens
/// only it had seen, keeps decisions involving screens a surviving
/// instance still holds, and leaves the cache equal to what the
/// survivors alone would have produced.
#[test]
fn forget_instance_evicts_only_exclusive_screens() {
    // Labels 0..6 are exclusive to instance 0; 6..10 shared; 10..16
    // exclusive to instance 1. Long l_min keeps the windows unsplit so
    // each engine retains its full screen set.
    let mut cfg = analyzer_config();
    cfg.find_space.l_min = VirtualDuration::from_mins(30);
    let trace_a: Trace = (0..24).map(|i| ev(i * 2, (i % 10) as u32)).collect();
    let trace_b: Trace = (0..24).map(|i| ev(i * 2, 6 + (i % 10) as u32)).collect();
    let mut analyzer = OnlineTraceAnalyzer::new(cfg);
    analyzer.maybe_analyze(InstanceId(0), &trace_a, VirtualTime::from_secs(100));
    analyzer.maybe_analyze(InstanceId(1), &trace_b, VirtualTime::from_secs(100));
    let exclusive_a: BTreeSet<u64> = (0..6).map(|l| ev(0, l).abstract_id.0).collect();
    let survivors: BTreeSet<u64> = (6..16).map(|l| ev(0, l).abstract_id.0).collect();
    let before = analyzer.similarity_cache().len();
    assert!(before > 0);
    assert!(analyzer
        .similarity_cache()
        .snapshot()
        .keys()
        .any(|k| exclusive_a.contains(&k.0) || exclusive_a.contains(&k.1)));

    analyzer.forget_instance(InstanceId(0));

    let snap = analyzer.similarity_cache().snapshot();
    assert!(snap.len() < before, "eviction must shrink the cache");
    for key in snap.keys() {
        assert!(
            !exclusive_a.contains(&key.0) && !exclusive_a.contains(&key.1),
            "pair {key:?} touches a screen only the forgotten instance saw"
        );
        assert!(
            survivors.contains(&key.0) && survivors.contains(&key.1),
            "pair {key:?} should involve surviving screens only"
        );
    }
    // Shared and survivor-only pairs are retained: instance 1's window
    // holds 10 screens, every pair among them decided during interning.
    assert_eq!(snap.len(), 10 * 9 / 2, "survivor pairs must be retained");

    // Forgetting the last instance clears the rest.
    analyzer.forget_instance(InstanceId(1));
    assert!(analyzer.similarity_cache().is_empty());
}
