//! Acceptance tests for the fleet supervisor: the ISSUE's chaos scenario
//! (kill 10%, corrupt 5%, quarantine exactly the offenders, healthy stats
//! byte-identical), the model promotion gate + rollback, the watchdog, and
//! determinism across runs and thread counts.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cordial::monitor::MonitorStats;
use cordial::pipeline::Cordial;
use cordial::split::split_banks;
use cordial::{CordialConfig, ModelKind};
use cordial_faultsim::{generate_fleet_dataset, FleetDataset, FleetDatasetConfig, SparingBudget};
use cordial_fleet::{
    run_fleet_harness, BreakerState, DeviceId, FleetHarnessConfig, FleetSupervisor, HostConfig,
    PromotionDecision, SupervisorConfig,
};
use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
use cordial_topology::{BankAddress, ColId, NpuId, RowId};

/// Serialises every test in this binary: they all record into the
/// process-global metrics registry, so one running while a digest test
/// has it enabled would leak into that test's digest.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fitted(dataset: &FleetDataset, seed: u64, model: ModelKind) -> Cordial {
    let split = split_banks(dataset, 0.7, seed);
    let config = CordialConfig::with_model(model).with_seed(seed);
    Cordial::fit(dataset, &split.train, &config).unwrap()
}

/// The acceptance-criteria scenario: ≥10 devices, 10% killed via panic
/// injection, 5% of streams corrupted, and the supervisor quarantines
/// exactly the offending devices while availability clears the floor.
#[test]
fn fleet_harness_quarantines_exactly_the_offenders() {
    let _guard = obs_guard();
    let config = FleetHarnessConfig::default();
    let report = run_fleet_harness(&config).unwrap().0;
    let rendered = report.render();

    assert!(
        report.devices >= 10,
        "need a real fleet: {}",
        report.devices
    );
    assert!(!report.killed.is_empty(), "10% kill must target someone");
    assert!(
        !report.corrupted.is_empty(),
        "5% corrupt must target someone"
    );
    assert!(report.all_passed(), "fleet harness failed:\n{rendered}");
    assert!(report.events_shed > 0, "tripped devices must shed traffic");
    assert!(report.availability < 1.0 && report.availability >= config.min_availability);

    // The render is the greppable CI surface.
    assert!(rendered.contains("invariant quarantine-exact: PASS"));
    assert!(rendered.contains("invariant availability-floor: PASS"));
    assert!(rendered.contains("fleet verdict: PASS"));
}

/// Healthy devices must not notice the chaos at all: their MonitorStats are
/// byte-identical (full `Eq`) to the same fleet run with zero injection.
#[test]
fn healthy_devices_are_byte_identical_to_an_uninjected_run() {
    let _guard = obs_guard();
    let injected = run_fleet_harness(&FleetHarnessConfig::default()).unwrap().0;
    let clean = run_fleet_harness(&FleetHarnessConfig {
        kill_fraction: 0.0,
        corrupt_fraction: 0.0,
        ..FleetHarnessConfig::default()
    })
    .unwrap()
    .0;

    assert!(clean.tripped.is_empty(), "{}", clean.render());
    assert_eq!(clean.availability, 1.0);

    let clean_stats: BTreeMap<DeviceId, MonitorStats> =
        clean.statuses.iter().map(|s| (s.id, s.stats)).collect();
    let healthy = injected.healthy_stats();
    assert!(!healthy.is_empty());
    for (id, stats) in healthy {
        assert_eq!(
            clean_stats.get(&id),
            Some(&stats),
            "healthy device {id} diverged from the uninjected run"
        );
    }
}

/// The same config yields the same verdicts, stats and tripped set across
/// repeat runs and across training thread counts.
#[test]
fn fleet_harness_is_deterministic_and_thread_invariant() {
    let _guard = obs_guard();
    let base = FleetHarnessConfig::default();
    let a = run_fleet_harness(&base).unwrap().0;
    let b = run_fleet_harness(&base).unwrap().0;
    let threaded = run_fleet_harness(&FleetHarnessConfig {
        n_threads: 4,
        ..base.clone()
    })
    .unwrap()
    .0;

    for other in [&b, &threaded] {
        assert_eq!(a.tripped, other.tripped);
        assert_eq!(a.evicted, other.evicted);
        assert_eq!(a.availability, other.availability);
        assert_eq!(a.events_routed, other.events_routed);
        assert_eq!(a.events_shed, other.events_shed);
        let pairs = a.statuses.iter().zip(&other.statuses);
        for (x, y) in pairs {
            assert_eq!(x.id, y.id);
            assert_eq!(x.stats, y.stats, "device {} stats diverged", x.id);
            assert_eq!(x.trips, y.trips);
        }
    }
}

/// The `fleet.*` metric families join the suite-wide thread-invariance
/// contract: identical digests for 1 and 4 training threads.
#[test]
fn fleet_telemetry_digest_is_thread_invariant() {
    let _guard = obs_guard();
    cordial_obs::set_enabled(true);
    let mut digests = Vec::new();
    for n_threads in [1, 4] {
        let config = FleetHarnessConfig {
            n_threads,
            ..FleetHarnessConfig::default()
        };
        cordial_obs::reset();
        let report = run_fleet_harness(&config).unwrap().0;
        assert!(report.all_passed(), "{}", report.render());
        let relearn = report.relearn.expect("the harness runs the relearn loop");
        assert_eq!(
            relearn.started,
            relearn.promoted + relearn.rejected + relearn.failed,
            "every refit settles: {relearn:?}"
        );
        digests.push(cordial_obs::snapshot().digest());
    }
    cordial_obs::set_enabled(false);
    for family in [
        "fleet.events.routed",
        "host.events.shed",
        "host.breaker.trips",
        "fleet.device.availability.count",
        "obs.relearn.refits_started",
        "obs.relearn.refits_promoted",
        "obs.relearn.refits_rejected",
        "obs.relearn.refits_rolled_back",
    ] {
        assert!(
            digests[0].contains_key(family),
            "digest must cover {family}: {:?}",
            digests[0].keys().collect::<Vec<_>>()
        );
    }
    assert_eq!(
        digests[0], digests[1],
        "fleet telemetry must not depend on the thread count"
    );
}

/// A miscalibrated candidate is rejected by the shadow-scoring gate; when an
/// operator forces it in anyway, the live-precision canary rolls the fleet
/// back to the last-known-good model.
#[test]
fn gate_rejects_bad_model_and_precision_canary_rolls_it_back() {
    let _guard = obs_guard();
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 7);
    let split = split_banks(&dataset, 0.7, 7);
    let good = fitted(&dataset, 7, ModelKind::default());
    // An overconfident decision threshold: the classifier predicts almost no
    // blocks, so every plan isolates nothing and never absorbs a UER.
    let bad_config = CordialConfig {
        block_threshold: Some(0.999),
        ..CordialConfig::default().with_seed(7)
    };
    let bad = Cordial::fit(&dataset, &split.train, &bad_config).unwrap();
    assert_ne!(good, bad, "the miscalibrated model must differ");

    let devices: std::collections::BTreeSet<DeviceId> = dataset
        .log
        .events()
        .iter()
        .map(|e| DeviceId::of(&e.addr.bank))
        .collect();
    let config = SupervisorConfig {
        precision_floor: 0.10,
        min_planned: 5,
        // No whole-bank sparing: a bank plan that cannot be applied absorbs
        // nothing, so live precision reflects row-plan quality alone.
        host: HostConfig {
            budget: SparingBudget {
                spare_rows_per_bank: 64,
                spare_banks_per_hbm: 0,
            },
            ..SupervisorConfig::default().host
        },
        ..SupervisorConfig::default()
    };
    let mut supervisor = FleetSupervisor::new(config, good.clone(), devices);

    // 1. The gate shadow-scores and refuses the degenerate candidate.
    let decision = supervisor.consider_candidate(bad.clone(), &dataset, &split.test);
    let PromotionDecision::Rejected { reason, .. } = &decision else {
        panic!("gate must reject the degenerate model: {decision:?}");
    };
    assert!(!reason.is_empty());
    assert_eq!(supervisor.registry().rejections(), 1);
    assert_eq!(supervisor.incumbent(), &good);

    // 2. Forced past the gate, the canary catches it live and rolls back.
    supervisor.force_promote(bad.clone());
    assert_eq!(supervisor.incumbent(), &bad);
    for event in dataset.log.events() {
        supervisor.route(*event);
    }
    supervisor.finish();
    supervisor.maybe_rollback();

    assert_eq!(
        supervisor.registry().rollbacks(),
        1,
        "live precision under the floor must trigger exactly one rollback"
    );
    assert_eq!(
        supervisor.incumbent(),
        &good,
        "rollback restores last-known-good"
    );
}

/// A registered device whose stream goes silent while the fleet watermark
/// advances is tripped by the watchdog.
#[test]
fn watchdog_trips_a_silently_stalled_device() {
    let _guard = obs_guard();
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 7);
    let good = fitted(&dataset, 7, ModelKind::default());

    let chatty_bank = BankAddress::default();
    let silent_bank = BankAddress {
        npu: NpuId(7),
        ..BankAddress::default()
    };
    let chatty = DeviceId::of(&chatty_bank);
    let silent = DeviceId::of(&silent_bank);

    let config = SupervisorConfig {
        // One hour of stream time without events while others progress.
        watchdog_deadline_ms: 3_600_000,
        ..SupervisorConfig::default()
    };
    let mut supervisor = FleetSupervisor::new(config, good, [chatty, silent]);

    // The silent device speaks once at t=0, then stalls while the chatty
    // one streams CEs for ~8 hours of simulated time.
    supervisor.route(ErrorEvent::new(
        silent_bank.cell(RowId(1), ColId(0)),
        Timestamp::from_secs(0),
        ErrorType::Ce,
    ));
    for i in 0..500u64 {
        supervisor.route(ErrorEvent::new(
            chatty_bank.cell(RowId(i as u32 % 64), ColId(0)),
            Timestamp::from_secs(i * 60),
            ErrorType::Ce,
        ));
    }
    supervisor.finish();

    let silent_status = supervisor.status(silent).unwrap();
    let chatty_status = supervisor.status(chatty).unwrap();
    assert!(
        silent_status.trips > 0,
        "watchdog must trip the stalled device"
    );
    assert_ne!(silent_status.state, BreakerState::Closed);
    assert_eq!(chatty_status.trips, 0, "a progressing device must not trip");
    assert_eq!(chatty_status.state, BreakerState::Closed);
}

/// The observability tentpole's fleet acceptance: a chaos fleet run with
/// the flight recorder on exports a Chrome trace that the validating
/// parser accepts with at least one complete span pair and the breaker /
/// chaos instant categories present, and the injected (contained) panic
/// produces a black-box dump file carrying the recorder rings plus a
/// metrics snapshot.
#[test]
fn chaos_run_exports_chrome_trace_and_blackbox_dump() {
    let _guard = obs_guard();
    let dump_dir = std::env::temp_dir().join(format!("cordial-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    std::fs::create_dir_all(&dump_dir).unwrap();

    cordial_obs::set_enabled(true);
    cordial_obs::recorder::set_enabled(true);
    cordial_obs::blackbox::set_dump_dir(Some(&dump_dir));
    cordial_obs::reset();
    cordial_obs::recorder::clear();

    let report = run_fleet_harness(&FleetHarnessConfig::default()).unwrap().0;
    let events = cordial_obs::recorder::drain();

    cordial_obs::blackbox::set_dump_dir(None);
    cordial_obs::recorder::set_enabled(false);
    cordial_obs::set_enabled(false);

    assert!(report.all_passed(), "{}", report.render());

    // The exported timeline loads as well-formed Chrome trace JSON.
    let trace_path = dump_dir.join("fleet-trace.json");
    cordial_obs::trace::write_file(&trace_path, &events).unwrap();
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let stats = cordial_obs::trace::parse_chrome_trace(&text).unwrap();
    assert!(
        stats.complete_pairs >= 1,
        "the harness run must produce at least one complete span pair: {stats:?}"
    );
    for category in ["breaker", "chaos", "plan"] {
        assert!(
            stats.categories.contains_key(category),
            "trace must carry {category} instants: {:?}",
            stats.categories
        );
    }

    // The contained panic black-boxed a post-mortem dump.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dump_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("blackbox-") && n.contains("panic-contained"))
        })
        .collect();
    assert!(
        !dumps.is_empty(),
        "the injected panic must produce a black-box dump in {}",
        dump_dir.display()
    );
    let body = std::fs::read_to_string(&dumps[0]).unwrap();
    let dump = serde_json::parse_value_str(&body).unwrap();
    let field = |name: &str| {
        dump.get(name)
            .unwrap_or_else(|| panic!("dump must carry `{name}`"))
    };
    assert!(matches!(field("schema_version"), serde_json::Value::U64(v) if *v >= 1));
    assert!(matches!(field("reason"), serde_json::Value::Str(s) if s == "panic_contained"));
    assert!(matches!(field("events"), serde_json::Value::Seq(events) if !events.is_empty()));
    assert!(matches!(field("metrics"), serde_json::Value::Map(_)));

    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// Durable-store resume: periodic checkpoints land in the store, an
/// evicted device is rebuilt from its newest store checkpoint, and a
/// brand-new supervisor over the same store directory (a process restart)
/// re-registers every device with its checkpointed state instead of an
/// empty monitor.
#[test]
fn evicted_devices_rebuild_from_the_durable_store() {
    use cordial_store::{Store, StoreConfig};

    let _guard = obs_guard();
    let dir = std::env::temp_dir().join(format!("fleet-store-rebuild-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 23);
    let pipeline = fitted(&dataset, 23, ModelKind::default());
    let config = SupervisorConfig {
        host: HostConfig {
            checkpoint_every: 16,
            ..SupervisorConfig::default().host
        },
        ..SupervisorConfig::default()
    };

    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let mut supervisor =
        FleetSupervisor::new(config, pipeline.clone(), Vec::new()).with_store(store);
    for event in dataset.log.events() {
        supervisor.route(*event);
    }

    // Pick the busiest device: it certainly crossed `checkpoint_every`
    // accepted events, so the store holds a checkpoint for it.
    let victim = supervisor
        .statuses()
        .into_iter()
        .max_by_key(|s| s.routed)
        .map(|s| s.id)
        .unwrap();
    let victim_bank = dataset
        .log
        .events()
        .iter()
        .map(|e| e.addr.bank)
        .find(|bank| DeviceId::of(bank) == victim)
        .unwrap();

    // Hard-fault the device: a sticky panic rides the breaker through its
    // retries into permanent eviction (stream time advanced far enough to
    // expire every quarantine backoff).
    supervisor.inject_panic_after(victim, 1);
    let mut t = supervisor.watermark_ms();
    for row in 0..200u32 {
        t += 120_000;
        supervisor.route(ErrorEvent::new(
            victim_bank.cell(RowId(row % 8), ColId(0)),
            Timestamp::from_millis(t),
            ErrorType::Ce,
        ));
        if supervisor.evicted_devices().contains(&victim) {
            break;
        }
    }
    assert!(
        supervisor.evicted_devices().contains(&victim),
        "sticky panic must evict the device"
    );

    // Rebuild from the store: breaker closed, monitor state resurrected
    // from the last persisted checkpoint rather than empty.
    assert!(
        supervisor.rebuild_from_store(victim),
        "rebuild must find a store checkpoint"
    );
    let status = supervisor.status(victim).unwrap();
    assert_eq!(status.state, BreakerState::Closed);
    assert!(
        status.stats.events > 0,
        "rebuilt monitor must carry checkpointed history"
    );
    assert!(supervisor.evicted_devices().is_empty());

    // Simulated process restart: a fresh supervisor over the same store
    // directory restores every device to its finish-time checkpoint.
    supervisor.finish();
    let final_stats: BTreeMap<DeviceId, MonitorStats> = supervisor
        .statuses()
        .into_iter()
        .map(|s| (s.id, s.stats))
        .collect();
    drop(supervisor);

    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    assert!(store.recovery().corruption.is_none());
    let mut resumed = FleetSupervisor::new(config, pipeline, Vec::new()).with_store(store);
    for id in final_stats.keys() {
        resumed.register_device(*id);
    }
    for (id, stats) in &final_stats {
        let resumed_stats = resumed.status(*id).unwrap().stats;
        assert_eq!(
            &resumed_stats, stats,
            "device {id} must resume with its checkpointed stats"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
