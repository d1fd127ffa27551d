//! The chaos harness: the full simulate → train → monitor pipeline under
//! fault injection, with invariant checks.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use cordial::monitor::{CordialMonitor, GuardConfig, MonitorStats};
use cordial::pipeline::Cordial;
use cordial::split::split_banks;
use cordial::CordialConfig;
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig, SparingBudget};
use cordial_mcelog::MceRecord;

use crate::inject::{ChaosConfig, FaultInjector, InjectionSummary, WireSummary};

/// One full chaos run: dataset scale and seed, training threads, and the
/// faults to inject.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Fleet scale to simulate.
    pub dataset: FleetDatasetConfig,
    /// Seed of the simulated fleet (independent of the chaos seed).
    pub dataset_seed: u64,
    /// Worker threads for training and batch planning.
    pub n_threads: usize,
    /// The faults to inject.
    pub chaos: ChaosConfig,
}

impl Default for HarnessConfig {
    /// Small fleet, fixed seeds, the acceptance-criteria fault rates:
    /// 1% corruption, 2% duplication, 5% bounded reordering, 1% drops.
    fn default() -> Self {
        Self {
            dataset: FleetDatasetConfig::small(),
            dataset_seed: 7,
            n_threads: 1,
            chaos: ChaosConfig {
                seed: 0,
                corruption_rate: 0.01,
                duplication_rate: 0.02,
                reorder_rate: 0.05,
                drop_rate: 0.01,
                ..ChaosConfig::default()
            },
        }
    }
}

/// The pipeline stage a contained panic originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PanicStage {
    /// Fleet simulation or wire-format rendering.
    Simulate,
    /// Lossy parsing of the degraded wire text.
    Parse,
    /// Model training (`Cordial::fit`).
    Train,
    /// Guarded monitoring of the degraded stream.
    Monitor,
}

impl std::fmt::Display for PanicStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PanicStage::Simulate => "simulate",
            PanicStage::Parse => "parse",
            PanicStage::Train => "train",
            PanicStage::Monitor => "monitor",
        })
    }
}

/// One named invariant verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvariantCheck {
    /// Stable kebab-case name, greppable in CI logs.
    pub name: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// Everything a chaos run observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarnessReport {
    /// Whether any pipeline stage panicked (caught, not propagated).
    pub panicked: bool,
    /// The first stage a contained panic originated from, if any.
    #[serde(default)]
    pub panicked_stage: Option<PanicStage>,
    /// What the wire-level injector did.
    pub wire: WireSummary,
    /// How many malformed lines the lossy parser rejected.
    pub parse_rejected_lines: usize,
    /// How many events the lossy parser recovered.
    pub parse_recovered_events: usize,
    /// What the event-level injector did.
    pub injection: InjectionSummary,
    /// Final monitor stats (zeroed when the monitor phase panicked).
    pub stats: MonitorStats,
    /// The invariant verdicts.
    pub checks: Vec<InvariantCheck>,
}

impl HarnessReport {
    /// Whether every invariant held.
    pub fn all_passed(&self) -> bool {
        !self.panicked && self.checks.iter().all(|c| c.passed)
    }

    /// Renders the report as stable, greppable lines
    /// (`invariant <name>: PASS|FAIL (<detail>)`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos: {} wire lines ({} corrupted, {} bytes truncated), {} parse rejects",
            self.wire.input_lines,
            self.wire.corrupted_lines,
            self.wire.truncated_bytes,
            self.parse_rejected_lines,
        );
        let _ = writeln!(
            out,
            "chaos: {} events in -> {} delivered ({} dropped, {} duplicated, {} reordered)",
            self.injection.input_events,
            self.injection.output_events,
            self.injection.dropped,
            self.injection.duplicated,
            self.injection.reordered,
        );
        let _ = writeln!(
            out,
            "chaos: monitor ingested {} events, planned {} banks, absorption {:.1}%, rejected {} (dup {}, late {})",
            self.stats.events,
            self.stats.banks_planned,
            self.stats.absorption_rate() * 100.0,
            self.stats.rejected(),
            self.stats.rejected_duplicates,
            self.stats.rejected_late,
        );
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
            "chaos verdict: {}{}",
            if self.all_passed() { "PASS" } else { "FAIL" },
            match self.panicked_stage {
                Some(stage) => format!(" (panic contained in stage: {stage})"),
                None => String::new(),
            }
        );
        out
    }
}

/// One point of a [`degradation_sweep`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The drop rate this point ran at.
    pub drop_rate: f64,
    /// UER events that survived injection (monotone non-increasing in
    /// `drop_rate` by the injector's nesting property).
    pub uers_delivered: usize,
    /// UERs the monitor absorbed.
    pub uers_absorbed: usize,
    /// The absorption rate the monitor achieved.
    pub absorption_rate: f64,
    /// Whether the run panicked anywhere.
    pub panicked: bool,
}

fn check(checks: &mut Vec<InvariantCheck>, name: &str, passed: bool, detail: String) {
    checks.push(InvariantCheck {
        name: name.to_string(),
        passed,
        detail,
    });
}

/// Runs the full pipeline — simulate, degrade the wire format, lossy-parse,
/// degrade the event stream, train, monitor — and checks the robustness
/// invariants. Panics in any stage are caught and reported, never
/// propagated.
///
/// Also hands back the monitor that ingested the degraded stream (`None`
/// when no pipeline was trained or the monitor stage panicked), so a
/// caller can export the `monitor.*` gauges, which sum over live
/// monitors, before dropping it.
pub fn run_harness(config: &HarnessConfig) -> (HarnessReport, Option<CordialMonitor>) {
    let injector = FaultInjector::new(config.chaos);
    // The first stage a contained panic originated from, if any.
    let mut panicked_stage: Option<PanicStage> = None;

    // Simulate, then round-trip the log through the degraded wire format.
    let simulate_result = catch_unwind(AssertUnwindSafe(|| {
        let dataset = generate_fleet_dataset(&config.dataset, config.dataset_seed);
        let text = MceRecord::format_log(dataset.log.events());
        (dataset, text)
    }));
    let Ok((dataset, text)) = simulate_result else {
        panicked_stage = Some(PanicStage::Simulate);
        let mut checks = Vec::new();
        check(
            &mut checks,
            "zero-panics",
            false,
            "panicked=simulate".to_string(),
        );
        let report = HarnessReport {
            panicked: true,
            panicked_stage,
            wire: WireSummary::default(),
            parse_rejected_lines: 0,
            parse_recovered_events: 0,
            injection: InjectionSummary::default(),
            stats: MonitorStats::default(),
            checks,
        };
        return (report, None);
    };
    let (degraded_text, wire) = injector.inject_wire(&text);

    let parse_result = catch_unwind(AssertUnwindSafe(|| {
        MceRecord::parse_log_lossy(&degraded_text)
    }));
    let (parsed, parse_errors) = match parse_result {
        Ok(pair) => pair,
        Err(_) => {
            panicked_stage.get_or_insert(PanicStage::Parse);
            (Vec::new(), Vec::new())
        }
    };

    // Degrade the event stream itself.
    let (delivered, injection) = injector.inject_events(&parsed);

    // Train on the *clean* dataset (training robustness to label noise is a
    // different axis; the harness stresses the ingestion side)...
    let split = split_banks(&dataset, 0.7, config.dataset_seed);
    let pipeline_config = CordialConfig::default()
        .with_seed(config.dataset_seed)
        .with_threads(config.n_threads);
    let train_result = catch_unwind(AssertUnwindSafe(|| {
        Cordial::fit(&dataset, &split.train, &pipeline_config)
    }));
    let cordial = match train_result {
        // A training error is a graceful failure, not a panic; it still
        // zeroes the stats (nothing was monitored).
        Ok(fitted) => fitted.ok(),
        Err(_) => {
            panicked_stage.get_or_insert(PanicStage::Train);
            None
        }
    };

    // ...and monitor the degraded stream through the guard.
    let monitor = cordial.and_then(|cordial| {
        let monitor_result = catch_unwind(AssertUnwindSafe(|| {
            let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical())
                .with_guard_config(GuardConfig {
                    reorder_bound_ms: config.chaos.reorder_bound_ms,
                });
            monitor.ingest_all_guarded(delivered.iter().copied());
            monitor
        }));
        if monitor_result.is_err() {
            panicked_stage.get_or_insert(PanicStage::Monitor);
        }
        monitor_result.ok()
    });
    let stats = monitor
        .as_ref()
        .map_or_else(MonitorStats::default, CordialMonitor::stats);

    let panicked = panicked_stage.is_some();
    let mut checks = Vec::new();
    check(
        &mut checks,
        "zero-panics",
        !panicked,
        match panicked_stage {
            Some(stage) => format!("panicked={stage}"),
            None => "panicked=none".to_string(),
        },
    );
    check(
        &mut checks,
        "stats-split-complete",
        stats.split_is_complete(),
        format!(
            "events={} recorded={} absorbed={} planned={} rejected={}",
            stats.events,
            stats.outcomes_recorded,
            stats.uers_absorbed,
            stats.banks_planned,
            stats.rejected()
        ),
    );
    check(
        &mut checks,
        "all-delivered-events-accounted",
        stats.events == injection.output_events,
        format!(
            "counted={} delivered={}",
            stats.events, injection.output_events
        ),
    );
    // Every surviving non-blank line lands in exactly one lossy-parse
    // bucket; only a corrupted line can fall out (by becoming blank or a
    // `#` comment), so the accounted total is bracketed from both sides.
    let surviving_lines = degraded_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    let accounted = parsed.len() + parse_errors.len();
    check(
        &mut checks,
        "lossy-parse-accounted",
        accounted <= surviving_lines
            && accounted >= surviving_lines.saturating_sub(wire.corrupted_lines),
        format!(
            "recovered={} rejected={} surviving_lines={surviving_lines} corrupted={}",
            parsed.len(),
            parse_errors.len(),
            wire.corrupted_lines
        ),
    );
    check(
        &mut checks,
        "absorption-in-range",
        (0.0..=1.0).contains(&stats.absorption_rate()),
        format!("absorption={:.4}", stats.absorption_rate()),
    );

    let report = HarnessReport {
        panicked,
        panicked_stage,
        wire,
        parse_rejected_lines: parse_errors.len(),
        parse_recovered_events: parsed.len(),
        injection,
        stats,
        checks,
    };
    (report, monitor)
}

/// Runs the harness at each drop rate (all other faults held fixed) and
/// reports how absorption degrades. Because dropped sets are nested per
/// seed, `uers_delivered` is monotone non-increasing along the sweep —
/// the backbone of the graceful-degradation assertion.
pub fn degradation_sweep(base: &HarnessConfig, drop_rates: &[f64]) -> Vec<SweepPoint> {
    drop_rates
        .iter()
        .map(|&drop_rate| {
            let mut config = base.clone();
            config.chaos.drop_rate = drop_rate;
            let (report, _) = run_harness(&config);
            SweepPoint {
                drop_rate,
                uers_delivered: report.stats.uers_absorbed + report.stats.uers_missed,
                uers_absorbed: report.stats.uers_absorbed,
                absorption_rate: report.stats.absorption_rate(),
                panicked: report.panicked,
            }
        })
        .collect()
}
