//! The fleet chaos harness: "kill 10% of devices, corrupt 5% of streams,
//! availability stays above the floor" as a deterministic, greppable test.
//!
//! Device targeting, per-device corruption and the stream merge are all
//! seed-driven: the same [`FleetHarnessConfig`] always kills the same
//! devices, corrupts the same streams and interleaves events identically,
//! so the supervisor's verdicts — and the healthy devices' byte-level
//! `MonitorStats` — are reproducible run over run and across thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use cordial::monitor::MonitorStats;
use cordial::pipeline::Cordial;
use cordial::split::split_banks;
use cordial::{CordialConfig, CordialError};
use cordial_chaos::{ChaosConfig, FaultInjector, InvariantCheck};
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
use cordial_mcelog::ErrorEvent;
use cordial_topology::DeviceId;

use crate::breaker::BreakerState;
use crate::host::DeviceStatus;
use crate::supervisor::{FleetSupervisor, SupervisorConfig};

/// One fleet chaos run: the simulated fleet, which fraction of devices to
/// kill/corrupt, and the supervisor under test.
#[derive(Debug, Clone)]
pub struct FleetHarnessConfig {
    /// Fleet scale to simulate.
    pub dataset: FleetDatasetConfig,
    /// Seed of the simulated fleet.
    pub dataset_seed: u64,
    /// Worker threads for training (the serving path is single-threaded).
    pub n_threads: usize,
    /// Fraction of devices whose monitors are killed (sticky panic
    /// injection) halfway through their streams.
    pub kill_fraction: f64,
    /// Fraction of devices whose streams are corrupted: heavy
    /// duplication and reordering plus some drops, seeded per device.
    pub corrupt_fraction: f64,
    /// The supervisor under test.
    pub supervisor: SupervisorConfig,
    /// Verdict floor for fleet availability.
    pub min_availability: f64,
}

/// Only devices with at least this many events are eligible as kill/
/// corrupt targets: a breaker can only judge a device that produces
/// enough traffic to fill its decision window.
const MIN_TARGET_STREAM: usize = 32;

/// The corruption applied to a corrupted device's stream, seeded by the
/// device's address: heavy duplication and reordering plus some drops.
fn corruption_for(id: DeviceId) -> ChaosConfig {
    ChaosConfig {
        seed: id.salt(),
        duplication_rate: 0.8,
        reorder_rate: 0.5,
        // Far beyond the guard's reorder bound, so displaced events
        // arrive as late rejections.
        reorder_bound_ms: 3_600_000,
        drop_rate: 0.05,
        ..ChaosConfig::default()
    }
}

impl Default for FleetHarnessConfig {
    /// The acceptance-criteria scenario: a small fleet, 10% of devices
    /// killed, 5% of streams corrupted hard enough to trip their breakers.
    fn default() -> Self {
        Self {
            dataset: FleetDatasetConfig::small(),
            dataset_seed: 7,
            n_threads: 1,
            kill_fraction: 0.10,
            corrupt_fraction: 0.05,
            supervisor: SupervisorConfig {
                // Corrupted streams reject ~45% of events; trip well below
                // that but far above a healthy stream's zero.
                host: crate::host::HostConfig {
                    breaker: crate::breaker::BreakerConfig {
                        trip_error_rate: 0.25,
                        ..crate::breaker::BreakerConfig::default()
                    },
                    ..SupervisorConfig::default().host
                },
                // Continuous learning runs inline (deterministic) at a
                // cadence the default dataset reaches a few times, so the
                // chaos run exercises the refit loop too.
                relearn: Some(cordial_relearn::RelearnConfig {
                    refit_every_events: 2048,
                    ..cordial_relearn::RelearnConfig::default()
                }),
                ..SupervisorConfig::default()
            },
            min_availability: 0.70,
        }
    }
}

/// Everything one fleet chaos run observed.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Devices that served traffic.
    pub devices: usize,
    /// Devices targeted with sticky panic injection.
    pub killed: Vec<DeviceId>,
    /// Devices targeted with stream corruption.
    pub corrupted: Vec<DeviceId>,
    /// Devices whose breaker tripped at least once.
    pub tripped: Vec<DeviceId>,
    /// Devices permanently evicted.
    pub evicted: Vec<DeviceId>,
    /// Fraction of routed events actually served.
    pub availability: f64,
    /// Total events routed / shed.
    pub events_routed: u64,
    /// Events shed while devices were quarantined or evicted.
    pub events_shed: u64,
    /// End-of-run snapshot of every device, in address order.
    pub statuses: Vec<DeviceStatus>,
    /// Refit outcome counters, when the supervisor ran with relearn.
    pub relearn: Option<crate::supervisor::RelearnOutcomes>,
    /// The invariant verdicts.
    pub checks: Vec<InvariantCheck>,
}

impl FleetReport {
    /// Whether every invariant held.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Per-device stats of the devices that were never targeted, keyed by
    /// address — the byte-identical comparison surface for chaos tests.
    pub fn healthy_stats(&self) -> BTreeMap<DeviceId, MonitorStats> {
        self.statuses
            .iter()
            .filter(|s| !self.killed.contains(&s.id) && !self.corrupted.contains(&s.id))
            .map(|s| (s.id, s.stats))
            .collect()
    }

    /// Renders the report as stable, greppable lines mirroring the chaos
    /// harness (`invariant <name>: PASS|FAIL`, `fleet verdict: PASS`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} devices ({} killed, {} corrupted), routed {} events, shed {}",
            self.devices,
            self.killed.len(),
            self.corrupted.len(),
            self.events_routed,
            self.events_shed,
        );
        let _ = writeln!(
            out,
            "fleet: {} breakers tripped, {} devices evicted",
            self.tripped.len(),
            self.evicted.len()
        );
        let _ = writeln!(out, "fleet availability: {:.4}", self.availability);
        if let Some(relearn) = &self.relearn {
            let _ = writeln!(
                out,
                "fleet relearn: started {} promoted {} rejected {} failed {} rolled_back {}",
                relearn.started,
                relearn.promoted,
                relearn.rejected,
                relearn.failed,
                relearn.rolled_back,
            );
        }
        for check in &self.checks {
            let _ = writeln!(
                out,
                "invariant {}: {} ({})",
                check.name,
                if check.passed { "PASS" } else { "FAIL" },
                check.detail
            );
        }
        let _ = writeln!(
            out,
            "fleet verdict: {}",
            if self.all_passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

fn check(checks: &mut Vec<InvariantCheck>, name: &str, passed: bool, detail: String) {
    checks.push(InvariantCheck {
        name: name.to_string(),
        passed,
        detail,
    });
}

fn ids(devices: &[DeviceId]) -> String {
    let names: Vec<String> = devices.iter().map(DeviceId::to_string).collect();
    names.join(",")
}

/// Merges per-device substreams into one interleaved fleet stream,
/// preserving each substream's internal (possibly injected-out-of-order)
/// sequence. Events are ordered by their *fractional position* within
/// their substream — device A's 3rd-of-10 event lands before device B's
/// 5th-of-8 — with ties broken by device address, so the interleaving is a
/// pure function of the inputs, not of timestamps the injector scrambled.
fn merge_streams(streams: &BTreeMap<DeviceId, Vec<ErrorEvent>>) -> Vec<ErrorEvent> {
    let mut keyed: Vec<(u64, usize, ErrorEvent)> = Vec::new();
    for (device_index, (_, events)) in streams.iter().enumerate() {
        let len = events.len() as u128 + 1;
        for (j, event) in events.iter().enumerate() {
            let position = (((j as u128 + 1) << 32) / len) as u64;
            keyed.push((position, device_index, *event));
        }
    }
    keyed.sort_by_key(|(position, device_index, _)| (*position, *device_index));
    keyed.into_iter().map(|(_, _, event)| event).collect()
}

/// Runs the fleet chaos scenario end to end.
///
/// Also hands back the supervisor, which still owns every device's
/// monitor, so a caller can export the `monitor.*` gauges, which sum over
/// live monitors, before dropping it.
///
/// # Errors
///
/// Propagates training errors; everything downstream degrades instead of
/// failing.
pub fn run_fleet_harness(
    config: &FleetHarnessConfig,
) -> Result<(FleetReport, FleetSupervisor), CordialError> {
    let _span = cordial_obs::span!("fleet_harness");
    let dataset = generate_fleet_dataset(&config.dataset, config.dataset_seed);
    let split = split_banks(&dataset, 0.7, config.dataset_seed);
    let pipeline_config = CordialConfig::default()
        .with_seed(config.dataset_seed)
        .with_threads(config.n_threads);
    let pipeline = Cordial::fit(&dataset, &split.train, &pipeline_config)?;

    // Partition the fleet log into per-device substreams (arrival order).
    let mut streams: BTreeMap<DeviceId, Vec<ErrorEvent>> = BTreeMap::new();
    for event in dataset.log.events() {
        streams
            .entry(DeviceId::of(&event.addr.bank))
            .or_default()
            .push(*event);
    }
    let device_ids: Vec<DeviceId> = streams.keys().copied().collect();

    // Seeded targeting: a shuffled prefix of the *eligible* devices (busy
    // enough to fill a breaker window) is killed, the next slice corrupted.
    // Fractions are ceiled so any nonzero fraction targets at least one
    // device.
    let mut order: Vec<DeviceId> = streams
        .iter()
        .filter(|(_, events)| events.len() >= MIN_TARGET_STREAM)
        .map(|(id, _)| *id)
        .collect();
    order.shuffle(&mut StdRng::seed_from_u64(0x000F_1EE7));
    let frac = |rate: f64| {
        if rate <= 0.0 {
            0
        } else {
            ((device_ids.len() as f64 * rate).ceil() as usize).min(device_ids.len())
        }
    };
    let n_kill = frac(config.kill_fraction).min(order.len());
    let n_corrupt = frac(config.corrupt_fraction).min(order.len() - n_kill);
    let mut killed: Vec<DeviceId> = order[..n_kill].to_vec();
    let mut corrupted: Vec<DeviceId> = order[n_kill..n_kill + n_corrupt].to_vec();
    killed.sort();
    corrupted.sort();

    // Corrupt the targeted substreams with device-salted injector seeds.
    for id in &corrupted {
        if let Some(events) = streams.get(id) {
            let injector = FaultInjector::new(corruption_for(*id));
            let (degraded, _) = injector.inject_events(events);
            streams.insert(*id, degraded);
        }
    }

    let mut supervisor =
        FleetSupervisor::new(config.supervisor, pipeline, device_ids.iter().copied());
    for id in &killed {
        let half = streams.get(id).map_or(1, |s| (s.len() as u64 / 2).max(1));
        supervisor.inject_panic_after(*id, half);
    }

    {
        let _span = cordial_obs::span!("route");
        for event in merge_streams(&streams) {
            supervisor.route(event);
        }
        supervisor.finish();
    }

    let tripped = supervisor.tripped_devices();
    let evicted = supervisor.evicted_devices();
    let availability = supervisor.availability();
    let statuses = supervisor.statuses();

    let mut targeted: Vec<DeviceId> = killed.iter().chain(&corrupted).copied().collect();
    targeted.sort();

    let mut checks = Vec::new();
    check(
        &mut checks,
        "quarantine-exact",
        tripped == targeted,
        format!("tripped=[{}] targeted=[{}]", ids(&tripped), ids(&targeted)),
    );
    check(
        &mut checks,
        "offenders-contained",
        targeted.iter().all(|id| {
            statuses
                .iter()
                .any(|s| s.id == *id && s.state != BreakerState::Closed)
        }),
        format!("evicted=[{}]", ids(&evicted)),
    );
    check(
        &mut checks,
        "availability-floor",
        availability >= config.min_availability,
        format!(
            "availability={availability:.4} floor={:.4}",
            config.min_availability
        ),
    );
    let healthy_complete = statuses
        .iter()
        .filter(|s| !targeted.contains(&s.id))
        .all(|s| s.stats.split_is_complete() && s.state == BreakerState::Closed);
    check(
        &mut checks,
        "healthy-devices-clean",
        healthy_complete,
        "every untargeted device stays closed with a complete outcome split".to_string(),
    );
    let healthy_planned: usize = statuses
        .iter()
        .filter(|s| !targeted.contains(&s.id))
        .map(|s| s.stats.banks_planned)
        .sum();
    check(
        &mut checks,
        "fleet-still-serves",
        healthy_planned > 0,
        format!("healthy banks planned={healthy_planned}"),
    );

    let report = FleetReport {
        devices: device_ids.len(),
        killed,
        corrupted,
        tripped,
        evicted,
        availability,
        events_routed: supervisor.events_routed(),
        events_shed: supervisor.events_shed(),
        statuses,
        relearn: supervisor.relearn_outcomes(),
        checks,
    };
    Ok((report, supervisor))
}
