//! CLI command implementations and argument handling.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use cordial::eval::{evaluate_neighbor_rows, evaluate_pipeline};
use cordial::monitor::{CordialMonitor, GuardConfig, MonitorStats};
use cordial::pipeline::{Cordial, MitigationPlan};
use cordial::split::split_banks;
use cordial::{CordialConfig, ModelKind};
use cordial_chaos::{run_harness, ChaosConfig, HarnessConfig};
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig, SparingBudget};
use cordial_fleet::{run_fleet_harness, FleetHarnessConfig, FleetSupervisor};
use cordial_served::{run_load, signal, Client, ServeConfig, Server};
use cordial_store::{FsyncPolicy, Record, ReplayFilter, Store, StoreConfig, MANIFEST_NAME};
use cordial_topology::{BankAddress, DeviceId, HbmSocket, NodeId, NpuId};

use crate::io;

/// Every subcommand with its usage line. `main` prints them after an
/// error, and a subcommand refuses any flag its line does not name.
pub const USAGE: &[(&str, &str)] = &[
    ("simulate", "--scale <small|medium|paper> [--seed N] --log FILE --truth FILE"),
    ("train", "--log FILE --truth FILE [--model rf|xgb|lgbm] [--seed N] --out FILE"),
    ("plan", "--log FILE --pipeline FILE [--bank ADDR]"),
    ("eval", "--log FILE --truth FILE --pipeline FILE"),
    ("run", "[--scale S] [--seed N] [--model M] [--checkpoint FILE] [--resume FILE] [--metrics-out FILE]"),
    ("monitor", "--log FILE (--pipeline FILE | --resume CKPT) [--checkpoint CKPT] [--checkpoint-every N] [--abort-after N] [--reorder-bound-ms MS]"),
    ("chaos", "[--scale S] [--seed N] [--chaos-seed N] [--corruption R] [--duplication R] [--reorder R] [--drops R] [--truncate F] [--reorder-bound-ms MS]"),
    ("fleet", "[--scale S] [--seed N] [--kill R] [--corrupt R] [--min-availability R] [--metrics-out FILE]"),
    ("serve", "[--scale S] [--seed N] [--port P] [--metrics-port P] [--shards N] [--queue-cap N] [--retry-after-ms MS] [--store-dir DIR] [--fsync always|never|batch:N] [--port-file FILE] [--metrics-port-file FILE]"),
    ("load", "--addr HOST:PORT [--scale S] [--seed N] [--batch N] [--repeats N] [--shutdown true] [--out FILE]"),
    ("stats", "--metrics FILE [--watch N] [--watch-interval-ms MS]"),
    ("store", "inspect|replay|compact --dir DIR [--device node0/npu0/hbm0] [--since MS] [--until MS] [--min-seq N] [--events-only true] [--limit N]"),
];

/// The flags every subcommand accepts.
pub const GLOBAL_FLAGS: &str = "[--metrics-out FILE] [--trace-out FILE] [--dump-dir DIR]";

/// The flag names a usage line mentions: every `--name` in it.
fn flags_named(usage: &str) -> impl Iterator<Item = &str> {
    usage.split("--").skip(1).map(|rest| {
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(rest.len());
        &rest[..end]
    })
}

/// Parses flags of the form `--name value` plus one leading subcommand.
struct Args {
    command: String,
    flags: HashMap<String, String>,
}

impl Args {
    /// Splits `args` into the subcommand and its flags, refusing a flag
    /// given twice.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut iter = args.iter();
        let command = iter.next().ok_or("missing subcommand")?.clone();
        let mut flags = HashMap::new();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found `{flag}`"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            if flags.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("--{name} is given more than once"));
            }
        }
        Ok(Self { command, flags })
    }

    /// Refuses every flag that neither the subcommand's usage line nor
    /// [`GLOBAL_FLAGS`] names, so a typo or a removed flag fails instead
    /// of being ignored. An unknown subcommand is left to `dispatch`.
    fn check_flags(&self) -> Result<(), String> {
        let Some((_, usage)) = USAGE.iter().find(|(name, _)| *name == self.command) else {
            return Ok(());
        };
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|flag| {
                !flags_named(usage)
                    .chain(flags_named(GLOBAL_FLAGS))
                    .any(|named| named == *flag)
            })
            .map(|flag| format!("--{flag}"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        Err(format!(
            "`{}` takes no {}",
            self.command,
            unknown.join(", ")
        ))
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.require(name).map(PathBuf::from)
    }

    fn seed(&self) -> Result<u64, String> {
        match self.flags.get("seed") {
            None => Ok(2025),
            Some(s) => s.parse().map_err(|_| "--seed must be an integer".into()),
        }
    }

    fn u64_flag(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("--{name} must be an integer")),
        }
    }

    fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("--{name} must be an integer")),
        }
    }

    fn rate_flag(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(s) => {
                let rate: f64 = s
                    .parse()
                    .map_err(|_| format!("--{name} must be a number"))?;
                if (0.0..=1.0).contains(&rate) {
                    Ok(rate)
                } else {
                    Err(format!("--{name} must be in [0, 1], got {rate}"))
                }
            }
        }
    }
}

/// Entry point used by `main`.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    // `store` carries an action word before its flags
    // (`store inspect --dir D`); lift it out so flag parsing stays strict
    // for every other subcommand.
    let mut args = args.to_vec();
    let mut store_action = None;
    if args.first().map(String::as_str) == Some("store") {
        if args.len() < 2 || args[1].starts_with("--") {
            return Err("store needs an action: inspect | replay | compact".into());
        }
        store_action = Some(args.remove(1));
    }
    let args = Args::parse(&args)?;
    args.check_flags()?;
    // `--metrics-out` works on every subcommand: it switches recording on
    // up front and exports whatever the command recorded on success.
    let metrics_out = args.flags.get("metrics-out").map(PathBuf::from);
    if metrics_out.is_some() {
        cordial_obs::set_enabled(true);
        cordial_obs::export::describe_defaults();
    }
    // `--trace-out` switches the flight recorder on and exports the merged
    // timeline on success (`.jsonl` → JSON lines, anything else → Chrome
    // trace-event JSON for chrome://tracing / Perfetto).
    let trace_out = args.flags.get("trace-out").map(PathBuf::from);
    // `--dump-dir` arms the black-box: breaker opens and contained panics
    // snapshot the recorder rings + metrics into this directory.
    let dump_dir = args.flags.get("dump-dir").map(PathBuf::from);
    if trace_out.is_some() || dump_dir.is_some() {
        cordial_obs::recorder::set_enabled(true);
    }
    if let Some(dir) = &dump_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create dump dir {}: {e}", dir.display()))?;
        cordial_obs::blackbox::set_dump_dir(Some(dir));
    }
    // `run`, `monitor`, `chaos` and `fleet` hand back what owns their
    // monitors, kept alive until the metrics are exported: the `monitor.*`
    // gauges sum over live monitors.
    let mut live: Option<Box<dyn std::any::Any>> = None;
    let result = match args.command.as_str() {
        "simulate" => simulate(&args),
        "train" => train(&args),
        "plan" => plan(&args),
        "eval" => eval(&args),
        "run" => run(&args).map(|monitor| live = Some(Box::new(monitor))),
        "monitor" => monitor(&args).map(|monitor| live = Some(Box::new(monitor))),
        "chaos" => chaos(&args).map(|monitor| live = Some(Box::new(monitor))),
        "fleet" => fleet(&args).map(|supervisor| live = Some(Box::new(supervisor))),
        "serve" => serve(&args),
        "load" => load(&args),
        "stats" => stats(&args),
        "store" => store(&args, store_action.as_deref().unwrap_or_default()),
        unknown => Err(format!("unknown subcommand `{unknown}`")),
    };
    if result.is_ok() {
        if let Some(path) = metrics_out {
            io::write_metrics(&path, &cordial_obs::snapshot())?;
            cordial_obs::info!("metrics written to {}", path.display());
        }
        if let Some(path) = trace_out {
            let events = cordial_obs::recorder::drain();
            cordial_obs::trace::write_file(&path, &events)?;
            cordial_obs::info!(
                "trace written to {} ({} events)",
                path.display(),
                events.len()
            );
        }
    }
    result
}

fn scale_config(name: &str) -> Result<FleetDatasetConfig, String> {
    match name {
        "small" => Ok(FleetDatasetConfig::small()),
        "medium" => Ok(FleetDatasetConfig::medium()),
        "paper" => Ok(FleetDatasetConfig::paper_scale()),
        other => Err(format!("unknown scale `{other}` (small|medium|paper)")),
    }
}

fn model_kind(name: &str) -> Result<ModelKind, String> {
    match name {
        "rf" => Ok(ModelKind::random_forest()),
        "xgb" => Ok(ModelKind::xgboost()),
        "lgbm" => Ok(ModelKind::lightgbm()),
        other => Err(format!("unknown model `{other}` (rf|xgb|lgbm)")),
    }
}

fn simulate(args: &Args) -> Result<(), String> {
    let config = scale_config(args.require("scale")?)?;
    let seed = args.seed()?;
    let dataset = generate_fleet_dataset(&config, seed);
    io::write_log(&args.path("log")?, &dataset.log)?;
    io::write_json(&args.path("truth")?, &io::TruthFile::from_dataset(&dataset))?;
    println!(
        "simulated {} events, {} UER banks (seed {seed})",
        dataset.log.len(),
        dataset.truth.len()
    );
    Ok(())
}

fn train(args: &Args) -> Result<(), String> {
    let log = io::read_log(&args.path("log")?)?;
    let truth: io::TruthFile = io::read_json(&args.path("truth")?)?;
    let dataset = io::assemble_dataset(log, truth);
    let model = model_kind(args.flags.get("model").map_or("rf", String::as_str))?;
    let config = CordialConfig::with_model(model).with_seed(args.seed()?);

    let banks: Vec<BankAddress> = dataset.truth.keys().copied().collect();
    let cordial =
        Cordial::fit(&dataset, &banks, &config).map_err(|e| format!("training failed: {e}"))?;
    io::write_json(&args.path("out")?, &cordial)?;
    println!(
        "trained Cordial-{} on {} banks -> {}",
        model.short_name(),
        banks.len(),
        args.require("out")?
    );
    Ok(())
}

fn plan(args: &Args) -> Result<(), String> {
    let log = io::read_log(&args.path("log")?)?;
    let cordial = io::read_pipeline(&args.path("pipeline")?)?;
    let by_bank = log.by_bank();

    let selected: Option<BankAddress> = match args.flags.get("bank") {
        Some(text) => Some(
            text.parse()
                .map_err(|e| format!("invalid --bank address: {e}"))?,
        ),
        None => None,
    };

    let mut planned = 0usize;
    for (bank, history) in &by_bank {
        if selected.is_some_and(|b| b != *bank) {
            continue;
        }
        match cordial.plan(history) {
            MitigationPlan::InsufficientData => {
                if selected.is_some() {
                    println!("{bank}: insufficient data (needs 3 distinct UER rows)");
                }
            }
            MitigationPlan::BankSparing => {
                println!("{bank}: scattered -> BANK SPARING");
                planned += 1;
            }
            MitigationPlan::RowSparing { pattern, rows } => {
                let preview: Vec<String> =
                    rows.iter().take(6).map(|r| r.index().to_string()).collect();
                println!(
                    "{bank}: {pattern} -> ROW SPARING {} rows [{}{}]",
                    rows.len(),
                    preview.join(","),
                    if rows.len() > 6 { ",…" } else { "" }
                );
                planned += 1;
            }
        }
    }
    println!("({planned} banks received a plan)");
    Ok(())
}

/// Scores a stored pipeline and the neighbor-rows baseline, under the
/// pipeline's config, on every bank of `--log`. `train` fits on every
/// bank of its own log, so evaluate on a log simulated apart from it.
fn eval(args: &Args) -> Result<(), String> {
    let log = io::read_log(&args.path("log")?)?;
    let truth: io::TruthFile = io::read_json(&args.path("truth")?)?;
    let cordial = io::read_pipeline(&args.path("pipeline")?)?;
    let dataset = io::assemble_dataset(log, truth);
    let banks: Vec<BankAddress> = dataset.truth.keys().copied().collect();

    let cordial_eval = evaluate_pipeline(&cordial, &dataset, &banks);
    let baseline = evaluate_neighbor_rows(&dataset, &banks, cordial.config());
    let name = format!(
        "cordial-{}",
        cordial.config().model.short_name().to_lowercase()
    );

    println!("method         P      R      F1     ICR");
    for (method, result) in [("neighbor-rows", &baseline), (name.as_str(), &cordial_eval)] {
        println!(
            "{method:<15}{:.3}  {:.3}  {:.3}  {:.2}%",
            result.block_scores.precision,
            result.block_scores.recall,
            result.block_scores.f1,
            result.icr * 100.0
        );
    }
    Ok(())
}

/// Prints a monitoring session's summary lines (shared by `run` and
/// `monitor`).
fn print_monitor_summary(stats: &MonitorStats, tracked_banks: usize, seed_note: &str) {
    println!(
        "ingested {} events across {} banks{seed_note}",
        stats.events, tracked_banks
    );
    println!(
        "planned {} banks: {} rows isolated, {} banks spared, absorption {:.1}%",
        stats.banks_planned,
        stats.rows_isolated,
        stats.banks_spared,
        stats.absorption_rate() * 100.0
    );
    if stats.rejected() + stats.recovered_reordered + stats.plans_saturated > 0 {
        println!(
            "guard: {} rejected ({} duplicate, {} late), {} reordered events recovered, {} plans saturated",
            stats.rejected(),
            stats.rejected_duplicates,
            stats.rejected_late,
            stats.recovered_reordered,
            stats.plans_saturated
        );
    }
    println!(
        "spare budget left: {} rows / {} banks (of {}/bank, {}/HBM)",
        stats.spare_rows_remaining,
        stats.spare_banks_remaining,
        stats.budget.spare_rows_per_bank,
        stats.budget.spare_banks_per_hbm
    );
}

/// Writes a `--checkpoint` file atomically (pipeline + monitor state).
fn write_checkpoint(
    path: &Path,
    monitor: &CordialMonitor,
    pipeline: &Cordial,
) -> Result<(), String> {
    let file = io::CheckpointFile {
        pipeline: pipeline.clone(),
        state: monitor.checkpoint(),
    };
    io::write_json_atomic(path, &file)
}

/// End-to-end demo pipeline: simulate → split → train → monitor the full
/// event stream. The interesting output is the telemetry: with
/// `--metrics-out metrics.prom` the whole run's counters, gauges and
/// latency histograms land in one scrape-able file.
///
/// `--checkpoint FILE` persists the finished monitor state atomically;
/// `--resume FILE` restores a previous checkpoint (the fleet is
/// regenerated from the same `--scale`/`--seed`, so only the events not
/// yet offered are replayed).
fn run(args: &Args) -> Result<CordialMonitor, String> {
    let config = scale_config(args.flags.get("scale").map_or("small", String::as_str))?;
    let seed = args.seed()?;
    let model = model_kind(args.flags.get("model").map_or("rf", String::as_str))?;

    let dataset = generate_fleet_dataset(&config, seed);

    let (cordial, mut monitor) = match args.flags.get("resume") {
        Some(path) => {
            let file: io::CheckpointFile = io::read_json(Path::new(path))?;
            let monitor = CordialMonitor::restore(file.pipeline.clone(), file.state);
            (file.pipeline, monitor)
        }
        None => {
            let split = split_banks(&dataset, 0.7, seed);
            let pipeline_config = CordialConfig::with_model(model).with_seed(seed);
            let cordial = Cordial::fit(&dataset, &split.train, &pipeline_config)
                .map_err(|e| format!("training failed: {e}"))?;
            let monitor = CordialMonitor::new(cordial.clone(), SparingBudget::typical());
            (cordial, monitor)
        }
    };

    let skip = monitor.events_offered();
    let events = dataset.log.events();
    if skip > events.len() {
        return Err(format!(
            "checkpoint is ahead of the stream: {skip} events offered, log has {}",
            events.len()
        ));
    }
    monitor.ingest_all_guarded(events[skip..].iter().copied());
    let stats = monitor.stats();
    print_monitor_summary(&stats, monitor.tracked_banks(), &format!(" (seed {seed})"));
    if let Some(path) = args.flags.get("checkpoint") {
        write_checkpoint(Path::new(path), &monitor, &cordial)?;
        println!("checkpoint written to {path}");
    }
    Ok(monitor)
}

/// Replays an on-disk MCE log through the degraded-stream monitor, with
/// crash-safe checkpointing:
///
/// ```text
/// cordial-cli monitor --log fleet.mce --pipeline model.json \
///     --checkpoint ckpt.json --checkpoint-every 1000
/// cordial-cli monitor --log fleet.mce --resume ckpt.json --checkpoint ckpt.json
/// ```
///
/// The log is parsed **lossily** (malformed lines are warned about and
/// skipped) and ingested through the guard, so duplicated, reordered and
/// late records are handled rather than corrupting state. `--abort-after N`
/// stops after offering N events (for crash-recovery drills).
fn monitor(args: &Args) -> Result<CordialMonitor, String> {
    let (log, warnings) = io::read_log_lossy(&args.path("log")?)?;
    for warning in &warnings {
        cordial_obs::warn!("skipped malformed line: {warning}");
    }
    if !warnings.is_empty() {
        println!("lossy parse: skipped {} malformed lines", warnings.len());
    }

    let (cordial, mut mon) = match (args.flags.get("resume"), args.flags.get("pipeline")) {
        (Some(path), _) => {
            let file: io::CheckpointFile = io::read_json(Path::new(path))?;
            let monitor = CordialMonitor::restore(file.pipeline.clone(), file.state);
            (file.pipeline, monitor)
        }
        (None, Some(path)) => {
            let cordial = io::read_pipeline(Path::new(path))?;
            let guard = GuardConfig {
                reorder_bound_ms: args.u64_flag("reorder-bound-ms", 300_000)?,
            };
            let monitor = CordialMonitor::new(cordial.clone(), SparingBudget::typical())
                .with_guard_config(guard);
            (cordial, monitor)
        }
        (None, None) => return Err("monitor needs --pipeline FILE or --resume CKPT".into()),
    };

    let checkpoint_path = args.flags.get("checkpoint").map(PathBuf::from);
    let checkpoint_every = args.usize_flag("checkpoint-every", 0)?;
    let abort_after = args.usize_flag("abort-after", 0)?;

    let skip = mon.events_offered();
    let events = log.events();
    if skip > events.len() {
        return Err(format!(
            "checkpoint is ahead of the log: {skip} events offered, log has {}",
            events.len()
        ));
    }
    if skip > 0 {
        println!("resuming after {skip} already-offered events");
    }

    let mut aborted = false;
    for event in events[skip..].iter().copied() {
        mon.ingest_guarded(event);
        let offered = mon.events_offered();
        if checkpoint_every > 0 && offered % checkpoint_every == 0 {
            if let Some(path) = &checkpoint_path {
                write_checkpoint(path, &mon, &cordial)?;
            }
        }
        if abort_after > 0 && offered >= abort_after {
            aborted = true;
            break;
        }
    }
    if aborted {
        // Leave the reorder buffer intact inside the checkpoint: resuming
        // continues the stream exactly where it stopped.
        if let Some(path) = &checkpoint_path {
            write_checkpoint(path, &mon, &cordial)?;
            println!("checkpoint written to {}", path.display());
        }
        println!(
            "aborted after {} events (resume with --resume)",
            mon.events_offered()
        );
        return Ok(mon);
    }
    mon.flush_guarded();
    if let Some(path) = &checkpoint_path {
        write_checkpoint(path, &mon, &cordial)?;
        println!("checkpoint written to {}", path.display());
    }
    let stats = mon.stats();
    print_monitor_summary(&stats, mon.tracked_banks(), "");
    Ok(mon)
}

/// Runs the chaos harness: the full simulate → train → monitor pipeline
/// under seeded fault injection, printing greppable invariant verdicts and
/// failing the exit code if any invariant breaks.
fn chaos(args: &Args) -> Result<Option<CordialMonitor>, String> {
    let dataset = scale_config(args.flags.get("scale").map_or("small", String::as_str))?;
    let defaults = HarnessConfig::default();
    let config = HarnessConfig {
        dataset,
        dataset_seed: args.seed()?,
        chaos: ChaosConfig {
            seed: args.u64_flag("chaos-seed", defaults.chaos.seed)?,
            corruption_rate: args.rate_flag("corruption", defaults.chaos.corruption_rate)?,
            duplication_rate: args.rate_flag("duplication", defaults.chaos.duplication_rate)?,
            reorder_rate: args.rate_flag("reorder", defaults.chaos.reorder_rate)?,
            reorder_bound_ms: args.u64_flag("reorder-bound-ms", defaults.chaos.reorder_bound_ms)?,
            drop_rate: args.rate_flag("drops", defaults.chaos.drop_rate)?,
            truncate_at: match args.flags.get("truncate") {
                None => None,
                Some(_) => Some(args.rate_flag("truncate", 1.0)?),
            },
        },
        ..defaults
    };
    let (report, monitor) = run_harness(&config);
    print!("{}", report.render());
    if report.all_passed() {
        Ok(monitor)
    } else {
        Err("chaos harness invariants failed (see verdicts above)".into())
    }
}

/// Runs the fleet chaos harness: a multi-device supervisor over a simulated
/// fleet, with a configurable fraction of devices killed and streams
/// corrupted, printing greppable invariant verdicts and failing the exit
/// code if any invariant (quarantine exactness, the availability floor,
/// healthy-device cleanliness) breaks.
fn fleet(args: &Args) -> Result<FleetSupervisor, String> {
    let dataset = scale_config(args.flags.get("scale").map_or("small", String::as_str))?;
    let defaults = FleetHarnessConfig::default();
    let config = FleetHarnessConfig {
        dataset,
        dataset_seed: args.seed()?,
        kill_fraction: args.rate_flag("kill", defaults.kill_fraction)?,
        corrupt_fraction: args.rate_flag("corrupt", defaults.corrupt_fraction)?,
        min_availability: args.rate_flag("min-availability", defaults.min_availability)?,
        ..defaults
    };

    let (report, supervisor) =
        run_fleet_harness(&config).map_err(|e| format!("fleet harness failed: {e}"))?;
    print!("{}", report.render());
    if report.all_passed() {
        Ok(supervisor)
    } else {
        Err("fleet harness invariants failed (see verdicts above)".into())
    }
}

/// Runs the cordial-served daemon over a pipeline trained on a simulated
/// fleet: binds the wire listener and the `/metrics` endpoint, optionally
/// records the bound addresses to files (so scripts can use ephemeral
/// ports), then blocks until SIGTERM/SIGINT or a `shutdown` RPC and
/// drains + checkpoints every monitor.
fn serve(args: &Args) -> Result<(), String> {
    // A daemon always records telemetry: its `/metrics` endpoint is the
    // whole point, and an empty scrape is indistinguishable from a
    // broken exporter.
    cordial_obs::set_enabled(true);
    cordial_obs::export::describe_defaults();
    let scale = scale_config(args.flags.get("scale").map_or("small", String::as_str))?;
    let seed = args.seed()?;
    let dataset = generate_fleet_dataset(&scale, seed);
    let split = split_banks(&dataset, 0.7, seed);
    let pipeline = Cordial::fit(&dataset, &split.train, &CordialConfig::default())
        .map_err(|e| format!("training failed: {e}"))?;

    let defaults = ServeConfig::default();
    let config = ServeConfig {
        shards: args.usize_flag("shards", defaults.shards)?,
        queue_capacity: args.usize_flag("queue-cap", defaults.queue_capacity)?,
        retry_after_ms: u32::try_from(
            args.u64_flag("retry-after-ms", u64::from(defaults.retry_after_ms))?,
        )
        .map_err(|_| "--retry-after-ms does not fit in u32".to_string())?,
        store_dir: args.flags.get("store-dir").map(PathBuf::from),
        fsync: match args.flags.get("fsync") {
            None => defaults.fsync,
            Some(text) => text
                .parse::<FsyncPolicy>()
                .map_err(|e| format!("--fsync: {e}"))?,
        },
    };
    if let Some(dir) = &config.store_dir {
        println!("journaling to {} (fsync {})", dir.display(), config.fsync);
    }
    let port = args.u64_flag("port", 0)?;
    let metrics_port = args.u64_flag("metrics-port", 0)?;
    let server = Server::bind(
        pipeline,
        config,
        &format!("127.0.0.1:{port}"),
        Some(&format!("127.0.0.1:{metrics_port}")),
    )
    .map_err(|e| format!("cannot bind daemon: {e}"))?;
    write_addr_file(args, "port-file", &server.addr().to_string())?;
    if let Some(metrics_addr) = server.metrics_addr() {
        write_addr_file(args, "metrics-port-file", &metrics_addr.to_string())?;
        println!("serving on {} (metrics on {metrics_addr})", server.addr());
    } else {
        println!("serving on {}", server.addr());
    }

    signal::install();
    while !(signal::triggered() || server.is_shutting_down()) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.trigger_shutdown();
    let report = server.wait().map_err(|e| format!("shutdown failed: {e}"))?;
    println!(
        "drained: {} events over {} devices, {} banks planned, {} checkpoints written",
        report.stats.events,
        report.stats.devices,
        report.stats.banks_planned,
        report.checkpoints_written
    );
    Ok(())
}

/// Writes a bound address to the file named by `--<flag>`, when given.
fn write_addr_file(args: &Args, flag: &str, addr: &str) -> Result<(), String> {
    if let Some(path) = args.flags.get(flag) {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Drives a running daemon with the load generator: simulates a fleet,
/// streams its log in batches (optionally repeated with re-timed passes),
/// and prints the throughput report as JSON.
fn load(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?.to_string();
    let scale = scale_config(args.flags.get("scale").map_or("small", String::as_str))?;
    let seed = args.seed()?;
    let dataset = generate_fleet_dataset(&scale, seed);
    let batch = args.usize_flag("batch", 1024)?;
    let repeats = u32::try_from(args.u64_flag("repeats", 1)?)
        .map_err(|_| "--repeats does not fit in u32".to_string())?;
    let report = run_load(&addr, dataset.log.events(), batch, repeats)
        .map_err(|e| format!("load run failed: {e}"))?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    println!("{json}");
    if let Some(out) = args.flags.get("out") {
        std::fs::write(out, format!("{json}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    if args.flags.get("shutdown").map(String::as_str) == Some("true") {
        let mut client =
            Client::connect(&addr).map_err(|e| format!("cannot reconnect for shutdown: {e}"))?;
        client
            .shutdown()
            .map_err(|e| format!("shutdown request failed: {e}"))?;
    }
    Ok(())
}

/// Parses a `--device` value in the store's own rendering,
/// `node0/npu1/hbm0` (digit-only shorthand `0/1/0` also accepted).
fn parse_device_key(text: &str) -> Result<DeviceId, String> {
    let parts: Vec<&str> = text.split('/').collect();
    let [node, npu, hbm] = parts.as_slice() else {
        return Err(format!(
            "invalid --device `{text}` (expected node0/npu1/hbm0)"
        ));
    };
    let field = |part: &str, prefix: &str| -> Result<u64, String> {
        part.strip_prefix(prefix)
            .unwrap_or(part)
            .parse()
            .map_err(|_| format!("invalid --device `{text}` (expected node0/npu1/hbm0)"))
    };
    let out_of_range = |level: &str| format!("--device {level} index out of range in `{text}`");
    Ok(DeviceId {
        node: NodeId(u32::try_from(field(node, "node")?).map_err(|_| out_of_range("node"))?),
        npu: NpuId(u8::try_from(field(npu, "npu")?).map_err(|_| out_of_range("npu"))?),
        hbm: HbmSocket(u8::try_from(field(hbm, "hbm")?).map_err(|_| out_of_range("hbm"))?),
    })
}

/// Operates on a durable store directory written by `serve --store-dir`
/// (or the fleet supervisor):
///
/// ```text
/// cordial-cli store inspect --dir journal/
/// cordial-cli store replay  --dir journal/ [--device node0/npu0/hbm0]
///                           [--since MS] [--until MS] [--min-seq N]
///                           [--events-only true] [--limit N]
/// cordial-cli store compact --dir journal/
/// ```
///
/// Every action runs crash recovery first and reports what it cut, so
/// `inspect` doubles as a post-crash health check. Recovery writes to the
/// directory, so nothing is opened until the action word is known and the
/// directory holds a manifest or a segment file.
fn store(args: &Args, action: &str) -> Result<(), String> {
    if !matches!(action, "inspect" | "replay" | "compact") {
        return Err(format!(
            "unknown store action `{action}` (inspect | replay | compact)"
        ));
    }
    let dir = args.path("dir")?;
    if !dir.is_dir() {
        return Err(format!("store directory {} does not exist", dir.display()));
    }
    if !holds_a_store(&dir)? {
        return Err(format!(
            "{} holds no store (no {MANIFEST_NAME} and no seg-*.cst file)",
            dir.display()
        ));
    }
    let mut store = Store::open(&dir, StoreConfig::default())
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let recovery = store.recovery().clone();
    if let Some(corruption) = &recovery.corruption {
        println!(
            "recovery: {corruption} ({} bytes cut, {} segments dropped)",
            recovery.truncated_bytes,
            recovery.dropped_segments.len()
        );
    }
    match action {
        "inspect" => {
            let report = store.inspect();
            println!(
                "{}: {} records ({} events, {} checkpoints) in {} segments, {} bytes, next seq {}",
                report.dir.display(),
                report.records,
                report.events,
                report.checkpoints,
                report.segments.len(),
                report.bytes,
                report.next_seq
            );
            for segment in &report.segments {
                let span = match (segment.first_seq, segment.last_seq) {
                    (Some(first), Some(last)) => format!("seq {first}..={last}"),
                    _ => "empty".to_string(),
                };
                println!(
                    "  {} {span}: {} records ({} events, {} checkpoints), {} bytes",
                    segment.name,
                    segment.records,
                    segment.events,
                    segment.checkpoints,
                    segment.bytes
                );
            }
            Ok(())
        }
        "replay" => {
            let filter = ReplayFilter {
                device: match args.flags.get("device") {
                    Some(text) => Some(parse_device_key(text)?),
                    None => None,
                },
                since_ms: args
                    .flags
                    .get("since")
                    .map(|_| args.u64_flag("since", 0))
                    .transpose()?,
                until_ms: args
                    .flags
                    .get("until")
                    .map(|_| args.u64_flag("until", 0))
                    .transpose()?,
                min_seq: args
                    .flags
                    .get("min-seq")
                    .map(|_| args.u64_flag("min-seq", 0))
                    .transpose()?,
                events_only: args.flags.get("events-only").map(String::as_str) == Some("true"),
            };
            let records = store
                .replay(&filter)
                .map_err(|e| format!("replay failed: {e}"))?;
            let limit = args.usize_flag("limit", 0)?;
            let shown = if limit > 0 {
                limit.min(records.len())
            } else {
                records.len()
            };
            for record in &records[..shown] {
                match record {
                    Record::Event { seq, event } => println!(
                        "seq={seq} event device={} time_ms={} type={} addr={}",
                        DeviceId::of(&event.addr.bank),
                        event.time.as_millis(),
                        event.error_type,
                        event.addr
                    ),
                    Record::Checkpoint {
                        seq,
                        device,
                        journal_seq,
                        payload,
                    } => println!(
                        "seq={seq} checkpoint device={device} journal_seq={journal_seq} payload_bytes={}",
                        payload.len()
                    ),
                }
            }
            if shown < records.len() {
                println!("… {} more records (raise --limit)", records.len() - shown);
            }
            println!("({} records matched)", records.len());
            Ok(())
        }
        "compact" => {
            let report = store
                .compact()
                .map_err(|e| format!("compaction failed: {e}"))?;
            println!(
                "compacted {} -> {} records ({} events and {} checkpoints dropped), {} -> {} bytes",
                report.records_before,
                report.records_after,
                report.dropped_events,
                report.dropped_checkpoints,
                report.bytes_before,
                report.bytes_after
            );
            Ok(())
        }
        _ => unreachable!("the action word was checked before opening"),
    }
}

/// Whether `dir` holds a store's manifest or one of its segment files.
fn holds_a_store(dir: &Path) -> Result<bool, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read store directory {}: {e}", dir.display()))?;
    Ok(entries.flatten().any(|entry| {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        name == MANIFEST_NAME || name.starts_with("seg-") && name.ends_with(".cst")
    }))
}

/// Renders a metrics file written by `--metrics-out` as a readable table.
fn stats(args: &Args) -> Result<(), String> {
    let path = args.path("metrics")?;
    // `--watch N` re-reads and re-renders N times (bounded so scripts and
    // CI terminate); anything under 2 is a single plain render.
    let refreshes = args.u64_flag("watch", 1)?.max(1);
    let interval_ms = args.u64_flag("watch-interval-ms", 500)?;
    for refresh in 0..refreshes {
        let snapshot = io::read_metrics(&path)?;
        if refreshes > 1 {
            // Clear screen + home, like `watch(1)` does.
            print!("\x1b[2J\x1b[H");
            println!(
                "cordial stats — {} — refresh {}/{refreshes}",
                path.display(),
                refresh + 1
            );
        }
        print!("{}", snapshot.render_table());
        print!("{}", render_health(&snapshot));
        if refresh + 1 < refreshes {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    Ok(())
}

/// Renders the watchdog-health section of `stats`: the drift detectors'
/// alert counters, or nothing when the snapshot carries none. A JSON file
/// names them `obs.watchdog.alerts*` and a Prometheus file
/// `cordial_obs_watchdog_alerts*`.
fn render_health(snapshot: &cordial_obs::Snapshot) -> String {
    const ALERTS: &str = "obs.watchdog.alerts";
    let prometheus = cordial_obs::export::prometheus_name(ALERTS);
    let alerts: Vec<(&String, &u64)> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(ALERTS) || name.starts_with(&prometheus))
        .collect();
    if alerts.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nhealth watchdogs\n");
    for (name, value) in alerts {
        out.push_str(&format!("  {name:<40} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        let owned: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Args::parse(&owned)
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let parsed = args(&["train", "--log", "a.mce", "--out", "m.json"]).unwrap();
        assert_eq!(parsed.command, "train");
        assert_eq!(parsed.require("log").unwrap(), "a.mce");
        assert_eq!(parsed.require("out").unwrap(), "m.json");
        assert!(parsed.require("truth").is_err());
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(args(&[]).is_err());
        assert!(args(&["plan", "log"]).is_err());
        assert!(args(&["plan", "--log"]).is_err());
        let repeated = args(&["plan", "--log", "a", "--log", "b"]).err().unwrap();
        assert!(repeated.contains("--log"), "got: {repeated}");
    }

    #[test]
    fn accepts_only_the_flags_a_usage_line_names() {
        let check = |line: &str| {
            let owned: Vec<String> = line.split_whitespace().map(String::from).collect();
            Args::parse(&owned).and_then(|parsed| parsed.check_flags())
        };
        assert!(check("train --log a --model lgbm --metrics-out m").is_ok());
        assert!(check("store --device 0/0/0 --trace-out t --dump-dir d").is_ok());
        assert!(check("frobnicate --anything 1").is_ok());
        let err = check("simulate --scale small --bogus-flag 3 --modle x").unwrap_err();
        assert!(err.contains("--bogus-flag, --modle"), "got: {err}");
        assert!(check("fleet --threads 4")
            .unwrap_err()
            .contains("--threads"));
        // Every flag a usage line names is known to its subcommand.
        for (command, usage) in USAGE {
            let line = flags_named(usage).fold(command.to_string(), |line, flag| {
                format!("{line} --{flag} 1")
            });
            assert!(check(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn seed_parses_with_default() {
        assert_eq!(args(&["plan"]).unwrap().seed().unwrap(), 2025);
        assert_eq!(args(&["plan", "--seed", "7"]).unwrap().seed().unwrap(), 7);
        assert!(args(&["plan", "--seed", "x"]).unwrap().seed().is_err());
    }

    #[test]
    fn scale_and_model_lookups() {
        assert!(scale_config("small").is_ok());
        assert!(scale_config("paper").is_ok());
        assert!(scale_config("galactic").is_err());
        assert_eq!(model_kind("rf").unwrap().short_name(), "RF");
        assert_eq!(model_kind("lgbm").unwrap().short_name(), "LGBM");
        assert!(model_kind("svm").is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let owned = vec!["frobnicate".to_string()];
        assert!(dispatch(&owned).is_err());
    }

    #[test]
    fn parse_device_key_accepts_both_renderings() {
        let key = DeviceId {
            node: NodeId(3),
            npu: NpuId(1),
            hbm: HbmSocket(0),
        };
        assert_eq!(parse_device_key("node3/npu1/hbm0").unwrap(), key);
        assert_eq!(parse_device_key("3/1/0").unwrap(), key);
        assert!(parse_device_key("node3/npu1").is_err());
        assert!(parse_device_key("node3/npu1/hbmX").is_err());
        assert!(parse_device_key("node3/npu999/hbm0").is_err());
    }

    #[test]
    fn store_requires_an_action_word() {
        let bare = vec!["store".to_string()];
        let err = dispatch(&bare).unwrap_err();
        assert!(err.contains("inspect | replay | compact"), "got: {err}");
        let flags_only = vec!["store".to_string(), "--dir".to_string(), "x".to_string()];
        assert!(dispatch(&flags_only).is_err());
        // The action word is checked before the directory is looked at.
        let unknown = vec![
            "store".to_string(),
            "defragment".to_string(),
            "--dir".to_string(),
            "/nonexistent/cordial-store".to_string(),
        ];
        let err = dispatch(&unknown).unwrap_err();
        assert!(err.contains("unknown store action"), "got: {err}");
    }

    /// Opening a store runs recovery, which writes a manifest and a
    /// segment and sweeps `*.tmp` files: a directory that holds no store
    /// must be refused before any of that.
    #[test]
    fn store_leaves_a_directory_that_is_not_a_store_as_it_was() {
        let dir =
            std::env::temp_dir().join(format!("cordial-cli-not-a-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("keep.tmp"), b"keep").unwrap();
        let listing = || {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let before = listing();
        for (action, want) in [
            ("defragment", "unknown store action"),
            ("inspect", "holds no store"),
        ] {
            let owned: Vec<String> = ["store", action, "--dir", dir.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = dispatch(&owned).unwrap_err();
            assert!(err.contains(want), "{action}: got {err}");
            assert_eq!(listing(), before, "{action} changed the directory");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_missing_directories() {
        let owned = vec![
            "store".to_string(),
            "inspect".to_string(),
            "--dir".to_string(),
            "/nonexistent/cordial-store".to_string(),
        ];
        let err = dispatch(&owned).unwrap_err();
        assert!(err.contains("does not exist"), "got: {err}");
    }
}
