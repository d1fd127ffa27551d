//! The thread count is a pure performance knob: training and batch
//! planning must produce bit-identical results — and bit-identical
//! telemetry digests — for every `n_threads`.

use std::sync::Mutex;

use cordial::pipeline::Cordial;
use cordial::prelude::*;

/// Serialises the tests in this binary: the telemetry test switches the
/// process-global metrics registry on and resets it, so no other test may
/// record concurrently.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fit_with_threads(
    dataset: &FleetDataset,
    train: &[BankAddress],
    model: ModelKind,
    n_threads: usize,
) -> Cordial {
    let config = CordialConfig::with_model(model)
        .with_seed(5)
        .with_threads(n_threads);
    Cordial::fit(dataset, train, &config).unwrap()
}

#[test]
fn trained_models_are_identical_for_every_thread_count() {
    let _guard = obs_guard();
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 85);
    let split = split_banks(&dataset, 0.7, 85);

    for model in [
        ModelKind::random_forest(),
        ModelKind::xgboost(),
        ModelKind::lightgbm(),
    ] {
        let sequential = fit_with_threads(&dataset, &split.train, model, 1);
        for n_threads in [2, 4, 8] {
            let parallel = fit_with_threads(&dataset, &split.train, model, n_threads);
            // The configs differ in `n_threads` by construction, so compare
            // the trained stages, not the whole pipeline.
            assert_eq!(
                sequential.classifier(),
                parallel.classifier(),
                "{} classifier must not depend on n_threads={n_threads}",
                model.name()
            );
            assert_eq!(
                sequential.crossrow(),
                parallel.crossrow(),
                "{} cross-row stage must not depend on n_threads={n_threads}",
                model.name()
            );
        }
    }
}

#[test]
fn plan_batch_equals_sequential_plans() {
    let _guard = obs_guard();
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 86);
    let split = split_banks(&dataset, 0.7, 86);
    let cordial = fit_with_threads(&dataset, &split.train, ModelKind::random_forest(), 4);

    let by_bank = dataset.log.by_bank();
    let histories: Vec<_> = split.test.iter().map(|b| &by_bank[b]).collect();
    let batched = cordial.plan_batch(&histories);
    assert_eq!(batched.len(), histories.len());
    for (history, plan) in histories.iter().zip(&batched) {
        assert_eq!(plan, &cordial.plan(history));
    }
}

/// Telemetry must be as thread-invariant as the results: the snapshot
/// digest (counter values and histogram observation counts, minus the
/// explicitly thread-dependent `parallel.*` families) of a `plan_batch`
/// run is identical for 1 and 4 worker threads.
#[test]
fn plan_batch_telemetry_is_identical_across_thread_counts() {
    let _guard = obs_guard();
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 87);
    let split = split_banks(&dataset, 0.7, 87);
    let by_bank = dataset.log.by_bank();
    let histories: Vec<_> = split.test.iter().map(|b| &by_bank[b]).collect();

    cordial_obs::set_enabled(true);
    let mut digests = Vec::new();
    for n_threads in [1, 4] {
        let cordial = fit_with_threads(
            &dataset,
            &split.train,
            ModelKind::random_forest(),
            n_threads,
        );
        cordial_obs::reset();
        let plans = cordial.plan_batch(&histories);
        assert_eq!(plans.len(), histories.len());
        digests.push(cordial_obs::snapshot().digest());
    }
    cordial_obs::set_enabled(false);

    assert!(
        digests[0].contains_key("plan.requests"),
        "digest must cover the plan counters: {:?}",
        digests[0].keys().collect::<Vec<_>>()
    );
    assert!(digests[0].contains_key("span.plan.seconds.count"));
    assert_eq!(
        digests[0], digests[1],
        "telemetry digest must not depend on the thread count"
    );
}

/// The monitor's serving path (one feature scan per plan, flat inference
/// twins) must not perturb the thread-invariance of monitor telemetry: a
/// full LightGBM monitor replay produces the same digest for 1 and 4
/// planner threads, and that digest shows both the feature-scan counter
/// and the flat-inference histogram actually firing.
#[test]
fn monitor_fast_path_telemetry_is_identical_across_thread_counts() {
    let _guard = obs_guard();
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 88);
    let split = split_banks(&dataset, 0.7, 88);

    cordial_obs::set_enabled(true);
    cordial_obs::recorder::set_enabled(true);
    let mut digests = Vec::new();
    let mut stats = Vec::new();
    let mut instants = Vec::new();
    for n_threads in [1, 4] {
        let cordial = fit_with_threads(&dataset, &split.train, ModelKind::lightgbm(), n_threads);
        let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical());
        cordial_obs::reset();
        cordial_obs::recorder::clear();
        let plans = monitor.ingest_all(dataset.log.events().iter().copied());
        assert!(!plans.is_empty(), "the fleet replay must trigger plans");
        digests.push(cordial_obs::snapshot().digest());
        stats.push(monitor.stats());
        // The flight recorder's *deterministic* event stream (timeline
        // instants: plan decisions, first absorptions) must be as
        // thread-invariant as the metrics; span events are inherently
        // parallel and excluded, like their `.parallel` counter family.
        let timeline: Vec<(String, String)> = cordial_obs::recorder::drain()
            .into_iter()
            .filter(|e| e.phase == cordial_obs::TracePhase::Instant)
            .map(|e| (e.name.clone(), e.detail.clone()))
            .collect();
        instants.push(timeline);
    }
    cordial_obs::recorder::set_enabled(false);
    cordial_obs::set_enabled(false);

    let digest = &digests[0];
    assert!(
        digest.contains_key("monitor.features.reference_scan"),
        "every plan must count its feature scan: {:?}",
        digest.keys().collect::<Vec<_>>()
    );
    assert!(
        digest.contains_key("plan.flat_infer.seconds.count"),
        "LightGBM plans must route through flat inference: {:?}",
        digest.keys().collect::<Vec<_>>()
    );
    assert!(
        digest.contains_key("obs.recorder.instants"),
        "recorder instants must land in the digest: {:?}",
        digest.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        digests[0], digests[1],
        "monitor telemetry digest must not depend on the thread count"
    );
    assert_eq!(stats[0], stats[1], "monitor stats must match too");
    assert!(
        !instants[0].is_empty(),
        "the replay must produce timeline instants"
    );
    assert_eq!(
        instants[0], instants[1],
        "recorder instants must not depend on the thread count"
    );
}

/// Acceptance pin for the health watchdogs: a mid-stream shift of the
/// generated failure-pattern mix (clustered fleet, then a scattered
/// fleet) must raise a `pattern_mix` drift alert, and both the alert
/// counters and the shift gauges must be bit-identical across planner
/// thread counts.
#[test]
fn pattern_mix_drift_raises_watchdog_alert_across_thread_counts() {
    use cordial::monitor::HealthConfig;
    use cordial_faultsim::PatternMix;

    let _guard = obs_guard();
    // Phase A: clustered patterns only (single/double-row). Phase B:
    // scattered + whole-column, i.e. the scattered coarse class.
    let clustered = FleetDatasetConfig {
        pattern_mix: PatternMix::new([1.0, 1.0, 0.0, 0.0, 0.0]),
        ..FleetDatasetConfig::small()
    };
    let scattered = FleetDatasetConfig {
        pattern_mix: PatternMix::new([0.0, 0.0, 0.0, 1.0, 1.0]),
        ..FleetDatasetConfig::small()
    };
    let phase_a = generate_fleet_dataset(&clustered, 901);
    let phase_b = generate_fleet_dataset(&scattered, 902);
    let split = split_banks(&phase_a, 0.7, 901);

    // Small window so both phases complete several of them; plan order is
    // stream order, so the reference window forms inside phase A and the
    // first full phase-B window trips the detector.
    let health = HealthConfig {
        pattern_mix: cordial_obs::DriftConfig {
            window: 8,
            threshold: 0.3,
        },
        ..HealthConfig::default()
    };

    cordial_obs::set_enabled(true);
    let mut digests = Vec::new();
    let mut alert_counts = Vec::new();
    for n_threads in [1, 4] {
        let cordial = fit_with_threads(&phase_a, &split.train, ModelKind::lightgbm(), n_threads);
        let mut monitor =
            CordialMonitor::new(cordial, SparingBudget::typical()).with_health_config(health);
        cordial_obs::reset();
        let stream: Vec<ErrorEvent> = phase_a
            .log
            .events()
            .iter()
            .chain(phase_b.log.events())
            .copied()
            .collect();
        monitor.ingest_all(stream);
        digests.push(cordial_obs::snapshot().digest());
        alert_counts.push(monitor.health().pattern_mix().alerts());
    }
    cordial_obs::set_enabled(false);

    assert!(
        alert_counts[0] >= 1,
        "the pattern-mix shift must raise at least one drift alert"
    );
    assert_eq!(
        alert_counts[0], alert_counts[1],
        "alert count must not depend on the thread count"
    );
    let digest = &digests[0];
    assert!(
        digest.contains_key("obs.watchdog.alerts"),
        "watchdog alerts must land in the digest: {:?}",
        digest.keys().collect::<Vec<_>>()
    );
    assert!(
        digest.contains_key("obs.watchdog.alerts.pattern_mix"),
        "the per-kind alert counter must land in the digest: {:?}",
        digest.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        digests[0], digests[1],
        "watchdog telemetry digest must not depend on the thread count"
    );
}
