//! Acceptance tests for the chaos harness: the full pipeline under the
//! ISSUE's reference fault rates must hold every robustness invariant.

use std::sync::Mutex;

use cordial_chaos::{degradation_sweep, run_harness, ChaosConfig, HarnessConfig, PanicStage};

/// Serialises every test in this binary: they all record into the
/// process-global metrics registry, so one running while a digest test
/// has it enabled would leak into that test's digest.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The acceptance-criteria run: seed 0 with 1% corruption, 2% duplication,
/// 5% bounded reordering and 1% drops completes with zero panics and a
/// complete outcome split.
#[test]
fn reference_fault_rates_hold_every_invariant() {
    let _guard = obs_guard();
    let config = HarnessConfig::default();
    assert_eq!(config.chaos.seed, 0);
    assert_eq!(config.chaos.corruption_rate, 0.01);
    assert_eq!(config.chaos.duplication_rate, 0.02);
    assert_eq!(config.chaos.reorder_rate, 0.05);
    assert_eq!(config.chaos.drop_rate, 0.01);

    let (report, _) = run_harness(&config);
    let rendered = report.render();
    assert!(report.all_passed(), "harness failed:\n{rendered}");
    assert!(!report.panicked);
    assert_eq!(report.panicked_stage, None);
    assert!(rendered.contains("panicked=none"));
    assert!(report.stats.split_is_complete());
    assert!(report.stats.banks_planned > 0, "chaos run must still plan");
    assert!(
        report.stats.rejected_duplicates > 0,
        "2% duplication must exercise the dedup path:\n{rendered}"
    );
    assert!(
        report.parse_rejected_lines > 0,
        "1% corruption must reject lines"
    );
    // The render is the greppable CI surface.
    assert!(rendered.contains("invariant zero-panics: PASS"));
    assert!(rendered.contains("invariant stats-split-complete: PASS"));
    assert!(rendered.contains("chaos verdict: PASS"));
}

/// The same degraded stream produces the same metrics digest whether the
/// pipeline trains and plans on 1 thread or 4.
#[test]
fn chaos_telemetry_digest_is_thread_invariant() {
    let _guard = obs_guard();
    cordial_obs::set_enabled(true);
    cordial_obs::recorder::set_enabled(true);
    let mut digests = Vec::new();
    for n_threads in [1, 4] {
        let config = HarnessConfig {
            n_threads,
            ..HarnessConfig::default()
        };
        cordial_obs::reset();
        cordial_obs::recorder::clear();
        let (report, _) = run_harness(&config);
        assert!(report.all_passed(), "{}", report.render());
        digests.push(cordial_obs::snapshot().digest());
    }
    cordial_obs::recorder::set_enabled(false);
    cordial_obs::set_enabled(false);
    for family in ["chaos.events.input", "obs.recorder.instants"] {
        assert!(
            digests[0].contains_key(family),
            "digest must cover {family}: {:?}",
            digests[0].keys().collect::<Vec<_>>()
        );
    }
    assert_eq!(
        digests[0], digests[1],
        "chaos telemetry must not depend on the thread count"
    );
}

/// Absorption degrades gracefully and the delivered-UER count degrades
/// monotonically as the drop rate grows (the injector's nested sampling
/// makes the latter exact, not statistical).
#[test]
fn absorption_degrades_monotonically_with_injected_loss() {
    let _guard = obs_guard();
    let base = HarnessConfig {
        chaos: ChaosConfig {
            seed: 0,
            ..ChaosConfig::default()
        },
        ..HarnessConfig::default()
    };
    let points = degradation_sweep(&base, &[0.0, 0.05, 0.2, 0.5, 0.9]);
    assert_eq!(points.len(), 5);
    for pair in points.windows(2) {
        assert!(!pair[0].panicked && !pair[1].panicked);
        assert!(
            pair[1].uers_delivered <= pair[0].uers_delivered,
            "delivered UERs must be monotone: {points:?}"
        );
        assert!((0.0..=1.0).contains(&pair[1].absorption_rate));
    }
    let clean = &points[0];
    let worst = &points[points.len() - 1];
    assert!(
        clean.absorption_rate > 0.0,
        "clean run must absorb: {points:?}"
    );
    assert!(
        worst.uers_delivered < clean.uers_delivered,
        "a 90% drop rate must lose most UERs: {points:?}"
    );
}

/// Mid-stream truncation is survivable: the tail of the fleet's history
/// simply never arrives, and every invariant still holds.
#[test]
fn mid_stream_truncation_is_survivable() {
    let _guard = obs_guard();
    let config = HarnessConfig {
        chaos: ChaosConfig {
            seed: 0,
            truncate_at: Some(0.6),
            ..ChaosConfig::default()
        },
        ..HarnessConfig::default()
    };
    let (report, _) = run_harness(&config);
    assert!(report.all_passed(), "{}", report.render());
    assert!(report.wire.truncated_bytes > 0);
    assert!(report.parse_recovered_events < report.wire.input_lines);
}

/// A contained panic is attributed to the stage it originated from, both in
/// the typed report and in the rendered verdict line.
#[test]
fn contained_panics_are_attributed_to_their_stage() {
    let _guard = obs_guard();
    let (mut report, _) = run_harness(&HarnessConfig::default());
    report.panicked = true;
    report.panicked_stage = Some(PanicStage::Monitor);
    let rendered = report.render();
    assert!(
        rendered.contains("chaos verdict: FAIL (panic contained in stage: monitor)"),
        "stage must appear in the verdict line:\n{rendered}"
    );

    // The stage survives a serde round-trip, and pre-stage reports (no
    // `panicked_stage` field) still deserialize.
    let json = serde_json::to_string(&report).unwrap();
    let back: cordial_chaos::HarnessReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.panicked_stage, Some(PanicStage::Monitor));
    let legacy = json
        .replace("\"panicked_stage\":{\"Monitor\":null},", "")
        .replace("\"panicked_stage\":\"Monitor\",", "");
    let back: cordial_chaos::HarnessReport = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back.panicked_stage, None);
}
