//! Outside-in benchmark for the Cordial suite.
//!
//! The binary (`src/main.rs`) spawns the shipped `cordial-cli serve` and
//! `cordial-experiments` processes, drives four named workloads against
//! them, checks every output and prints end-to-end metrics; with
//! `--trace 1` it instead replays the same inputs in-process through each
//! layer's public functions ([`traced`]) and prints per-layer metrics.
//! This library holds what both halves and the tests share: the workload
//! streams, the percentile rule, the host-speed probe, the checks a served
//! outcome must pass and the golden outputs. See `BENCHMARK.md` for the
//! workloads and metrics.

pub mod traced;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cordial::config::CordialConfig;
use cordial::split::split_banks;
use cordial_faultsim::{FleetDataset, FleetDatasetConfig};
use cordial_fleet::DeviceId;
use cordial_mcelog::{ErrorEvent, Timestamp};
use cordial_served::{PlanRecord, ServedStats};
use cordial_topology::{BankAddress, FleetConfig, NodeId, RowId};
use serde::{Deserialize, Serialize};

/// Seed used when `--seed` is not given; the goldens are recorded at it.
pub const GOLDEN_SEED: u64 = 2025;

/// Seed of the daemon's model (`serve --seed`). The model is the system
/// under test, not its input, so it stays fixed while `--seed` varies the
/// streams: a model trained at another seed differs in size, and with it
/// every monitor's memory and creation cost.
pub const MODEL_SEED: u64 = GOLDEN_SEED;

/// Events per wire batch, as a collector that journals before ack sends.
pub const BATCH_EVENTS: usize = 1024;

/// Load-generator connections (one per core of the reference host).
pub const CONNECTIONS: usize = 2;

/// Nodes of the cold-fleet slice: the paper-scale fleet's fault density
/// on 200 of its 1,250 nodes. The whole paper fleet needs about 6 GB of
/// daemon memory; this slice keeps one daemon near 1 GB.
pub const COLD_NODES: u32 = 200;

/// Re-timed passes over the small fleet after the steady-fleet warm-up.
pub const STEADY_PASSES: u32 = 750;

/// Distinct UER rows a bank needs before the pipeline plans it (the
/// serving pipeline's `CordialConfig::default().k_uers`).
pub fn k_uers() -> usize {
    CordialConfig::default().k_uers
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every device is new to a fresh daemon.
    ColdFleet,
    /// A warmed-up daemon re-ingesting the small fleet pass after pass.
    SteadyFleet,
    /// A daemon restarting on a journal left by `kill -9`.
    CrashRecovery,
    /// `cordial-experiments table4` at paper scale.
    ReproduceTable4,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdFleet,
        Workload::SteadyFleet,
        Workload::CrashRecovery,
        Workload::ReproduceTable4,
    ];

    /// The name used on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFleet => "cold-fleet",
            Workload::SteadyFleet => "steady-fleet",
            Workload::CrashRecovery => "crash-recovery",
            Workload::ReproduceTable4 => "reproduce-table4",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The event stream a serving workload sends (or journals), `None`
    /// for `reproduce-table4`.
    pub fn stream_spec(self) -> Option<StreamSpec> {
        match self {
            Workload::ColdFleet => Some(StreamSpec {
                config: cold_fleet_config(),
                warmup_passes: 0,
                timed_passes: 1,
            }),
            Workload::SteadyFleet | Workload::CrashRecovery => Some(StreamSpec {
                config: FleetDatasetConfig::small(),
                warmup_passes: 1,
                timed_passes: STEADY_PASSES,
            }),
            Workload::ReproduceTable4 => None,
        }
    }
}

/// The paper-scale fault density on [`COLD_NODES`] nodes: every bank
/// population of `FleetDatasetConfig::paper_scale()` scaled by the node
/// ratio.
pub fn cold_fleet_config() -> FleetDatasetConfig {
    let paper = FleetDatasetConfig::paper_scale();
    let scale = |banks: u32| banks * COLD_NODES / paper.fleet.nodes;
    FleetDatasetConfig {
        fleet: FleetConfig {
            nodes: COLD_NODES,
            ..paper.fleet
        },
        n_uer_banks: scale(paper.n_uer_banks),
        n_ce_only_banks: scale(paper.n_ce_only_banks),
        n_ueo_only_banks: scale(paper.n_ueo_only_banks),
        ..paper
    }
}

/// How a serving workload's stream is built from one generated fleet.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// The generated fleet.
    pub config: FleetDatasetConfig,
    /// Passes sent before the timed interval.
    pub warmup_passes: u32,
    /// Passes sent (or journaled) in the timed interval.
    pub timed_passes: u32,
}

impl StreamSpec {
    /// Splits the passes over `base` (one generated fleet log) into the
    /// warm-up and timed parts; every pass replays the same devices.
    pub fn build(&self, base: &[ErrorEvent]) -> (Vec<ErrorEvent>, Vec<ErrorEvent>) {
        let passes = self.warmup_passes + self.timed_passes;
        let mut all = repeat_passes(base, self.config.fleet.nodes, passes, false);
        let timed = all.split_off(base.len() * self.warmup_passes as usize);
        (all, timed)
    }
}

/// Generates `config`'s fleet at `seed` and concatenates `passes` passes
/// over its log (see [`repeat_passes`]).
pub fn fleet_stream(
    config: &FleetDatasetConfig,
    seed: u64,
    passes: u32,
    fresh_devices: bool,
) -> Vec<ErrorEvent> {
    let dataset = cordial_faultsim::generate_fleet_dataset(config, seed);
    repeat_passes(
        dataset.log.events(),
        config.fleet.nodes,
        passes,
        fresh_devices,
    )
}

/// Concatenates `passes` copies of `base`. Pass `p` is shifted in time by
/// `p` times the log's span (latest timestamp + 1 ms), so each device's
/// stream keeps increasing across passes instead of replaying one window
/// the monitors would see as stale. With `fresh_devices`, pass `p` also
/// moves every node index up by `p × fleet_nodes`, making each pass a new
/// set of devices.
pub fn repeat_passes(
    base: &[ErrorEvent],
    fleet_nodes: u32,
    passes: u32,
    fresh_devices: bool,
) -> Vec<ErrorEvent> {
    let span_ms = base
        .iter()
        .map(|e| e.time.as_millis())
        .max()
        .map_or(1, |latest| latest + 1);
    let mut out = Vec::with_capacity(base.len() * passes as usize);
    for pass in 0..passes {
        let shift_ms = span_ms * u64::from(pass);
        let node_offset = if fresh_devices { pass * fleet_nodes } else { 0 };
        out.extend(base.iter().map(|event| {
            let mut event = *event;
            event.time = Timestamp::from_millis(event.time.as_millis() + shift_ms);
            event.addr.bank.node = NodeId(event.addr.bank.node.index() + node_offset);
            event
        }));
    }
    out
}

/// Splits a stream over `conns` connections by node index, keeping
/// stream order within each part. Every device lives on one node, so it
/// is sent by exactly one connection and its order is deterministic.
pub fn split_by_node(stream: &[ErrorEvent], conns: usize) -> Vec<Vec<ErrorEvent>> {
    let mut parts = vec![Vec::new(); conns.max(1)];
    let n = parts.len();
    for event in stream {
        parts[event.addr.bank.node.index() as usize % n].push(*event);
    }
    parts
}

/// The wire batches of a split stream in the order the traced run
/// replays them: batch `i` of every connection before batch `i + 1`.
pub fn interleaved_batches(parts: &[Vec<ErrorEvent>]) -> Vec<&[ErrorEvent]> {
    let chunks: Vec<Vec<&[ErrorEvent]>> = parts
        .iter()
        .map(|part| part.chunks(BATCH_EVENTS).collect())
        .collect();
    let rounds = chunks.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|i| chunks.iter().filter_map(move |c| c.get(i).copied()))
        .collect()
}

/// The training banks and configuration of the pipeline
/// `cordial-cli serve --scale small --seed MODEL_SEED` trains at start-up,
/// from the small fleet it generates at that seed.
pub fn serve_training(small_fleet: &FleetDataset) -> (Vec<BankAddress>, CordialConfig) {
    let split = split_banks(small_fleet, 0.7, MODEL_SEED);
    (split.train, CordialConfig::default())
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Seconds [`host_slowdown`]'s probe takes on the reference host (2-core
/// Intel Xeon VM) while nothing else runs on it.
pub const PROBE_REFERENCE_S: f64 = 0.09;

/// Integer-loop steps of the host-speed probe.
const PROBE_STEPS: u64 = 20_000_000;

/// Bytes of fresh memory the host-speed probe writes to, one byte a page.
const PROBE_BYTES: usize = 64 << 20;

/// How many times slower than the reference host this host runs right
/// now: the time of a fixed probe — an integer loop, then a first write to
/// every page of fresh memory — over [`PROBE_REFERENCE_S`].
///
/// Shared hosts slow down, every workload at once, by up to 40% for
/// minutes at a time, and the program's own times cannot tell that apart
/// from a slower program. Each timed interval is therefore divided by the
/// slowdown probed around it, which gives the time the interval takes on
/// the quiet reference host. The probe runs no program code, so a change
/// to the program moves these times as much as it moves the raw ones.
pub fn host_slowdown() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for step in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(step);
    }
    std::hint::black_box(x);
    let mut pages = vec![0u8; PROBE_BYTES];
    for page in pages.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&pages);
    drop(pages);
    started.elapsed().as_secs_f64() / PROBE_REFERENCE_S
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank. The
/// median is always reported; a percentile above it needs at least ten
/// samples beyond it and is `None` otherwise, because a tail estimated
/// from fewer points is noise — report the sample count instead.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    if q <= 0.5 {
        return Some(median(samples));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// What a served stream must produce, whatever the model decides: known
/// from the stream alone, so it holds at every seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFacts {
    /// Distinct devices in the stream.
    pub devices: usize,
    /// Events in the stream.
    pub events: usize,
    /// UER events in the stream; each is either absorbed or missed.
    pub uer_events: usize,
    /// Banks that reach [`k_uers`] distinct UER rows: the only banks that
    /// can be planned.
    pub plannable: BTreeSet<BankAddress>,
}

impl StreamFacts {
    /// Scans `stream` for its facts.
    pub fn of<'a>(stream: impl IntoIterator<Item = &'a ErrorEvent>) -> StreamFacts {
        let mut devices = BTreeSet::new();
        let mut uer_rows: BTreeMap<BankAddress, BTreeSet<RowId>> = BTreeMap::new();
        let mut events = 0;
        let mut uer_events = 0;
        for event in stream {
            events += 1;
            devices.insert(DeviceId::of(&event.addr.bank));
            if event.is_uer() {
                uer_events += 1;
                uer_rows
                    .entry(event.addr.bank)
                    .or_default()
                    .insert(event.addr.row);
            }
        }
        StreamFacts {
            devices: devices.len(),
            events,
            uer_events,
            plannable: uer_rows
                .into_iter()
                .filter(|(_, rows)| rows.len() >= k_uers())
                .map(|(bank, _)| bank)
                .collect(),
        }
    }

    /// Every disagreement between these facts and a served outcome.
    pub fn violations(&self, stats: &ServedStats, plans: &[PlanRecord]) -> Vec<String> {
        let mut out = Vec::new();
        let mut expect = |what: &str, got: usize, want: usize| {
            if got != want {
                out.push(format!("{what}: got {got}, expected {want}"));
            }
        };
        expect("devices", stats.devices, self.devices);
        expect("events", stats.events, self.events);
        expect(
            "absorbed + missed UERs",
            stats.uers_absorbed + stats.uers_missed,
            self.uer_events,
        );
        expect("plan records", plans.len(), stats.banks_planned);
        let plannable: BTreeSet<String> = self.plannable.iter().map(ToString::to_string).collect();
        if let Some(plan) = plans.iter().find(|p| !plannable.contains(&p.bank)) {
            out.push(format!(
                "bank {} was planned before reaching {} distinct UER rows",
                plan.bank,
                k_uers()
            ));
        }
        out
    }
}

/// CRC-32 of the sorted plan list as `PlanQuery` serialises it.
pub fn plans_crc32(plans: &[PlanRecord]) -> u32 {
    let mut sorted = plans.to_vec();
    sorted.sort();
    let json = serde_json::to_string(&sorted).unwrap_or_default();
    cordial_store::crc32(json.as_bytes())
}

/// One serving workload's expected outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServedOutcome {
    /// Workload name.
    pub workload: String,
    /// The daemon's final `StatsQuery` answer.
    pub stats: ServedStats,
    /// Plan records `PlanQuery` returns.
    pub plans: usize,
    /// [`plans_crc32`] of those records.
    pub plans_crc32: u32,
}

impl ServedOutcome {
    /// Summarises a served outcome.
    pub fn new(workload: &str, stats: ServedStats, plans: &[PlanRecord]) -> ServedOutcome {
        ServedOutcome {
            workload: workload.to_string(),
            stats,
            plans: plans.len(),
            plans_crc32: plans_crc32(plans),
        }
    }
}

/// `table4_prediction_methods.json` as `cordial-experiments --scale paper
/// --seed 2025 table4` writes it.
pub const GOLDEN_TABLE4: &[u8] = include_bytes!("../golden/table4-seed-2025.json");

/// The serving workloads' outcomes at [`GOLDEN_SEED`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Golden {
    /// The seed every outcome was recorded at.
    pub seed: u64,
    /// One entry per serving workload.
    pub serving: Vec<ServedOutcome>,
}

impl Golden {
    /// Parses golden outcomes from JSON.
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub fn parse(json: &str) -> Result<Golden, String> {
        serde_json::from_str(json).map_err(|e| format!("golden outcomes: {e}"))
    }

    /// The outcomes recorded at `seed`, if any were.
    ///
    /// # Errors
    ///
    /// A malformed golden file.
    pub fn at(seed: u64) -> Result<Option<Golden>, String> {
        if seed != GOLDEN_SEED {
            return Ok(None);
        }
        Golden::parse(include_str!("../golden/seed-2025.json")).map(Some)
    }

    /// The recorded outcome of `workload`.
    pub fn serving(&self, workload: &str) -> Option<&ServedOutcome> {
        self.serving.iter().find(|o| o.workload == workload)
    }
}
