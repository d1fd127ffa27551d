//! `cordial-benchmark`: the suite's outside-in benchmark.
//!
//! ```text
//! cordial-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! End-to-end (`--trace 0`), it spawns the shipped `cordial-cli` and
//! `cordial-experiments` binaries from the directory it runs from, drives
//! the workload against them for `--seconds` of measured time, checks
//! every output and prints each end-to-end metric, its times scaled to the
//! reference host's speed by probes around every cycle
//! (`cordial_benchmark::host_slowdown`). `--trace 1` runs the
//! same inputs in-process through each layer instead (see
//! `cordial_benchmark::traced`) and prints per-layer metrics. The last
//! line of standard output is always one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Workloads, metrics and numbers
//! are documented in `BENCHMARK.md`.

mod daemon;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::thread;
use std::time::{Duration, Instant};

use cordial_benchmark::{
    host_slowdown, median, percentile, split_by_node, traced, Golden, Metric, ServedOutcome,
    StreamFacts, Workload, BATCH_EVENTS, CONNECTIONS, GOLDEN_TABLE4,
};
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
use cordial_mcelog::ErrorEvent;
use cordial_served::Client;
use cordial_store::{FsyncPolicy, Store, StoreConfig};

use crate::daemon::{run_timed, Daemon, WorkDir};

/// Counts heap bytes, so the traced run can tell what a monitor holds.
#[global_allocator]
static ALLOCATOR: traced::CountingAlloc = traced::CountingAlloc;

/// Fewest cycles per run: set-up is repeated at least this often so its
/// median is steady.
const MIN_CYCLES: usize = 3;

/// Most cycles per run, whatever `--seconds` asks for.
const MAX_CYCLES: usize = 40;

/// Stats poll interval while waiting for the daemon to drain.
const DRAIN_POLL: Duration = Duration::from_millis(20);

/// Shard queue-depth poll interval while sending.
const HEALTH_POLL: Duration = Duration::from_millis(100);

/// Longest wait for the daemon to drain what it acked.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// Paper-scale Table II runs per `reproduce-table4` run: its set-up.
const TABLE2_RUNS: usize = 5;

const BUILD_HINT: &str =
    "build it with `cargo build --release -p cordial-cli -p cordial-experiments`";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cordial_benchmark::GOLDEN_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        // Cargo appends `--bench` when it runs a bench target.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` ({})", names.join("|"))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One run's result: the JSON object printed last.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation, failed when `problem` is set.
    fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn print(&mut self, workload: Workload) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems.push(format!("{} is not a number", m.name));
            }
        }
        for problem in &self.problems {
            cordial_obs::error!("{}: {problem}", workload.name());
        }
        let mut json = Vec::new();
        for m in &self.metrics {
            println!(
                "{:<16} {:<28} {:>16.6} {}",
                workload.name(),
                m.name,
                m.value,
                m.unit
            );
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

/// The shipped binaries, next to this executable (`target/release`).
struct Binaries {
    cli: PathBuf,
    experiments: PathBuf,
    dir: PathBuf,
}

impl Binaries {
    fn locate() -> Result<Binaries, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or("the benchmark executable has no directory")?
            .to_path_buf();
        let find = |name: &str| {
            let path = dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!("missing {}; {BUILD_HINT}", path.display()))
            }
        };
        Ok(Binaries {
            cli: find("cordial-cli")?,
            experiments: find("cordial-experiments")?,
            dir,
        })
    }
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| {
        let bins = Binaries::locate()?;
        let work = WorkDir::create(bins.dir.join(format!(
            "benchmark-work-{}-{}",
            args.workload.name(),
            std::process::id()
        )))?;
        let mut report = if args.trace {
            run_traced(&args, &bins, work.path())
        } else {
            match args.workload {
                Workload::ColdFleet | Workload::SteadyFleet => {
                    run_stream(&args, &bins, work.path())
                }
                Workload::CrashRecovery => run_recovery(&args, &bins, work.path()),
                Workload::ReproduceTable4 => run_table4(&args, &bins, work.path()),
            }
        }?;
        report.print(args.workload);
        Ok(report.correct())
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            cordial_obs::error!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The traced run: per-layer metrics, as measured, and spans written next
/// to the binary.
fn run_traced(args: &Args, bins: &Binaries, work: &Path) -> Result<Report, String> {
    let before = host_slowdown();
    let mut tracer = traced::Tracer::default();
    let trace = traced::run(&mut tracer, args.workload, args.seed, work)?;
    let slowdown = (before + host_slowdown()) / 2.0;
    let spans = bins
        .dir
        .join(format!("benchmark-spans-{}.json", args.workload.name()));
    tracer.write(&spans, args.workload.name())?;
    println!("spans written to {}", spans.display());
    println!("host slowdown {slowdown:.3} (per-layer times are as measured)");
    for note in &trace.notes {
        println!("{note}");
    }
    let mut report = Report {
        metrics: trace.metrics,
        ..Report::default()
    };
    report.attempted += trace.checks;
    report.failed += trace.problems.len() as u64;
    report.problems = trace.problems;
    if let Some(outcome) = &trace.outcome {
        println!(
            "outcome {}",
            serde_json::to_string(outcome).unwrap_or_default()
        );
        if let Some(golden) = Golden::at(args.seed)? {
            report.check(golden_problem(&golden, outcome));
        }
    }
    Ok(report)
}

/// Why `outcome` differs from the golden one, if it does.
fn golden_problem(golden: &Golden, outcome: &ServedOutcome) -> Option<String> {
    match golden.serving(&outcome.workload) {
        None => Some(format!("no golden outcome for {}", outcome.workload)),
        Some(expected) if expected != outcome => Some(format!(
            "outcome differs from the golden\n  observed {outcome:?}\n  golden   {expected:?}"
        )),
        Some(_) => None,
    }
}

/// Whether a run needs another cycle: it has done fewer than
/// `min_cycles`, or fewer than [`MAX_CYCLES`] that add up to less than
/// `seconds` of timed work.
fn needs_cycle(done: usize, timed_s: f64, min_cycles: usize, seconds: f64) -> bool {
    done < min_cycles || (timed_s < seconds && done < MAX_CYCLES)
}

/// One serving cycle's measurements. Times are as measured; `slowdown`
/// is the mean of the host-speed probes before and after the cycle.
struct Cycle {
    setup_s: f64,
    timed_s: f64,
    slowdown: f64,
    events: usize,
    rss_mb: f64,
    outcome: ServedOutcome,
}

/// The serving workloads' shared checks and metrics: every cycle's
/// outcome must satisfy the stream's facts and agree with the others, and
/// with the golden at its seed.
fn serving_report(
    args: &Args,
    facts: &StreamFacts,
    cycles: &[Cycle],
    plans: &[Vec<cordial_served::PlanRecord>],
    mut report: Report,
) -> Result<Report, String> {
    let golden = Golden::at(args.seed)?;
    for (cycle, plans) in cycles.iter().zip(plans) {
        let violations = facts.violations(&cycle.outcome.stats, plans);
        report.check((!violations.is_empty()).then(|| violations.join("; ")));
        report.check((cycle.outcome != cycles[0].outcome).then(|| {
            format!(
                "cycles disagree: {:?} vs {:?}",
                cycle.outcome, cycles[0].outcome
            )
        }));
        if let Some(golden) = &golden {
            report.check(golden_problem(golden, &cycle.outcome));
        }
    }
    let medians = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    for (i, c) in cycles.iter().enumerate() {
        println!(
            "cycle {i}: set-up {:.3} s, timed {:.3} s, host slowdown {:.3}, peak RSS {:.1} MB",
            c.setup_s, c.timed_s, c.slowdown, c.rss_mb
        );
    }
    println!(
        "{} cycles, {} events per cycle, outcome {}",
        cycles.len(),
        cycles[0].events,
        serde_json::to_string(&cycles[0].outcome).unwrap_or_default()
    );
    println!(
        "as measured (medians): set-up {:.4} s, {:.0} events/s, host slowdown {:.3}",
        medians(|c| c.setup_s),
        medians(|c| c.events as f64 / c.timed_s),
        medians(|c| c.slowdown)
    );
    report.metrics = vec![
        Metric::new("setup_s", medians(|c| c.setup_s / c.slowdown), "s"),
        Metric::new(
            "events_per_s",
            medians(|c| c.events as f64 * c.slowdown / c.timed_s),
            "events/s",
        ),
        Metric::new("rss_mb", medians(|c| c.rss_mb), "MB"),
    ];
    Ok(report)
}

/// What the load generator saw on one connection.
#[derive(Default)]
struct ConnectionLoad {
    accepted: usize,
    batches: u64,
    retries: u64,
    polls: u64,
    failed: u64,
    ack_ms: Vec<f64>,
    /// Shard queue depths from `HealthQuery` polls (connection 0 only).
    queue_depths: Vec<f64>,
    error: Option<String>,
}

/// Sends each part over its own connection, one batch at a time, each
/// only after the previous one's ack (a closed loop, as collectors that
/// journal before ack behave). Between batches, connection 0 asks for the
/// shard queue depths every [`HEALTH_POLL`]. The calling thread only
/// waits.
fn send(addr: &str, parts: &[Vec<ErrorEvent>], seed: u64) -> Vec<ConnectionLoad> {
    thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(conn, events)| {
                scope.spawn(move || {
                    let mut load = ConnectionLoad::default();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client.with_retry_seed(seed + conn as u64),
                        Err(e) => {
                            load.failed += 1;
                            load.error = Some(format!("connect: {e}"));
                            return load;
                        }
                    };
                    let mut polled = Instant::now();
                    for batch in events.chunks(BATCH_EVENTS) {
                        if conn == 0 && polled.elapsed() >= HEALTH_POLL {
                            polled = Instant::now();
                            match client.health() {
                                Ok(health) => {
                                    load.polls += 1;
                                    load.queue_depths
                                        .extend(health.queue_depths.iter().map(|&d| d as f64));
                                }
                                Err(e) => {
                                    load.failed += 1;
                                    load.error = Some(format!("health: {e}"));
                                    break;
                                }
                            }
                        }
                        let sent = Instant::now();
                        match client.ingest_retrying(batch) {
                            Ok((accepted, retries)) => {
                                load.ack_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                                load.batches += 1;
                                load.retries += u64::from(retries);
                                load.accepted += accepted as usize;
                                if accepted as usize != batch.len() {
                                    load.failed += 1;
                                    load.error = Some(format!(
                                        "batch of {} acked {accepted} events",
                                        batch.len()
                                    ));
                                }
                            }
                            Err(e) => {
                                load.failed += 1;
                                load.error = Some(format!("ingest: {e}"));
                                break;
                            }
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnectionLoad {
                    failed: 1,
                    error: Some("load thread panicked".into()),
                    ..ConnectionLoad::default()
                })
            })
            .collect()
    })
}

/// Polls stats until the daemon has ingested `events`.
fn wait_for_events(
    control: &mut Client,
    events: usize,
) -> Result<cordial_served::ServedStats, String> {
    let started = Instant::now();
    loop {
        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        if stats.events >= events {
            return Ok(stats);
        }
        if started.elapsed() > DRAIN_TIMEOUT {
            return Err(format!(
                "daemon ingested {} of {events} events",
                stats.events
            ));
        }
        thread::sleep(DRAIN_POLL);
    }
}

/// `cold-fleet` and `steady-fleet`: each cycle spawns a daemon, sends the
/// warm-up untimed, then times the stream from the first send until the
/// daemon has ingested all of it.
fn run_stream(args: &Args, bins: &Binaries, work: &Path) -> Result<Report, String> {
    let spec = args
        .workload
        .stream_spec()
        .ok_or("not a serving workload")?;
    let base = generate_fleet_dataset(&spec.config, args.seed);
    let (warmup, timed) = spec.build(base.log.events());
    drop(base);
    let facts = StreamFacts::of(warmup.iter().chain(&timed));
    let warmup_parts = split_by_node(&warmup, CONNECTIONS);
    let timed_parts = split_by_node(&timed, CONNECTIONS);
    let (warmup_len, timed_len) = (warmup.len(), timed.len());
    drop((warmup, timed));

    let mut report = Report::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut plans = Vec::new();
    let mut loads: Vec<ConnectionLoad> = Vec::new();
    let mut rejected = 0.0;
    let mut fsyncs = 0.0;
    while needs_cycle(
        cycles.len(),
        cycles.iter().map(|c| c.timed_s).sum(),
        MIN_CYCLES,
        args.seconds,
    ) {
        let dir = WorkDir::create(work.join(format!("cycle-{}", cycles.len())))?;
        let before = host_slowdown();
        let (daemon, setup_s) = Daemon::spawn(&bins.cli, &dir.path().join("store"), dir.path())?;
        report.check(None);
        let mut control = Client::connect(&daemon.addr)
            .map_err(|e| daemon.failure(&format!("refused a connection: {e}")))?;
        let mut accepted = 0;
        if warmup_len > 0 {
            let warm = send(&daemon.addr, &warmup_parts, args.seed);
            accepted += warm.iter().map(|l| l.accepted).sum::<usize>();
            count_load(&mut report, &warm);
            wait_for_events(&mut control, accepted)?;
        }
        let started = Instant::now();
        let load = send(&daemon.addr, &timed_parts, args.seed);
        accepted += load.iter().map(|l| l.accepted).sum::<usize>();
        count_load(&mut report, &load);
        let stats = wait_for_events(&mut control, accepted)?;
        let timed_s = started.elapsed().as_secs_f64();
        let cycle_plans = control.plans().map_err(|e| format!("plans: {e}"))?;
        let rss_mb = daemon.peak_rss_mb()?;
        let scraped = daemon.scrape()?;
        let counter = |name: &str| {
            let key = cordial_obs::export::prometheus_name(name);
            scraped.counters.get(&key).copied().unwrap_or(0) as f64
        };
        rejected += counter("served.batches.rejected");
        fsyncs += counter("store.fsyncs");
        drop(daemon);
        let slowdown = (before + host_slowdown()) / 2.0;
        report.check((accepted != warmup_len + timed_len).then(|| {
            format!(
                "daemon acked {accepted} of {} events",
                warmup_len + timed_len
            )
        }));
        loads.extend(load);
        cycles.push(Cycle {
            setup_s,
            timed_s,
            slowdown,
            events: timed_len,
            rss_mb,
            outcome: ServedOutcome::new(args.workload.name(), stats, &cycle_plans),
        });
        plans.push(cycle_plans);
    }
    print_load(&loads, rejected, fsyncs, cycles.len());
    serving_report(args, &facts, &cycles, &plans, report)
}

/// Counts a load's batches as attempted operations, and its failures.
fn count_load(report: &mut Report, load: &[ConnectionLoad]) {
    for conn in load {
        report.attempted += conn.batches + conn.polls + conn.failed;
        report.failed += conn.failed;
        report.problems.extend(conn.error.clone());
    }
}

/// Prints the load generator's view of the timed intervals: ack round
/// trips (median, and p99 only when at least ten samples lie beyond it),
/// shard queue depths and backpressure.
fn print_load(loads: &[ConnectionLoad], rejected: f64, fsyncs: f64, cycles: usize) {
    let acks: Vec<f64> = loads
        .iter()
        .flat_map(|l| l.ack_ms.iter().copied())
        .collect();
    let depths: Vec<f64> = loads
        .iter()
        .flat_map(|l| l.queue_depths.iter().copied())
        .collect();
    let batches: u64 = loads.iter().map(|l| l.batches).sum();
    let retries: u64 = loads.iter().map(|l| l.retries).sum();
    let p99 = percentile(&acks, 0.99).map_or_else(
        || format!("n/a ({} samples are too few)", acks.len()),
        |p| format!("{p:.3} ms"),
    );
    let depth = percentile(&depths, 0.5).map_or_else(
        || "not sampled (no send lasted 100 ms)".to_string(),
        |p50| {
            let max = depths.iter().copied().fold(0.0, f64::max);
            format!("p50 {p50:.1}, max {max:.0} over {} samples", depths.len())
        },
    );
    println!(
        "ack round trip: p50 {:.3} ms, p99 {p99}, over {} batches; RetryAfter on {:.4} of offers; \
         shard queue depth {depth}; per cycle {:.0} batches rejected, {:.0} fsyncs",
        percentile(&acks, 0.5).unwrap_or(f64::NAN),
        acks.len(),
        retries as f64 / (batches + retries).max(1) as f64,
        rejected / cycles as f64,
        fsyncs / cycles as f64,
    );
}

/// Writes `events` as a journal the way the daemon does before acking,
/// in wire batches, and syncs it.
fn write_journal(dir: &Path, events: &[ErrorEvent]) -> Result<(), String> {
    let mut store = Store::open(
        dir,
        StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    for batch in events.chunks(BATCH_EVENTS) {
        store.append_events(batch).map_err(|e| e.to_string())?;
    }
    store.sync().map_err(|e| e.to_string())
}

/// `crash-recovery`: each cycle writes the steady-fleet stream as a
/// journal with no checkpoints (the state `kill -9` leaves), then times a
/// daemon from spawn until it listens, which it does only after
/// replaying the whole journal.
fn run_recovery(args: &Args, bins: &Binaries, work: &Path) -> Result<Report, String> {
    let spec = args
        .workload
        .stream_spec()
        .ok_or("not a serving workload")?;
    let base = generate_fleet_dataset(&spec.config, args.seed);
    let (mut journal, timed) = spec.build(base.log.events());
    journal.extend(timed);
    drop(base);
    let facts = StreamFacts::of(&journal);

    let mut report = Report::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut plans = Vec::new();
    while needs_cycle(
        cycles.len(),
        cycles.iter().map(|c| c.timed_s).sum(),
        MIN_CYCLES,
        args.seconds,
    ) {
        let dir = WorkDir::create(work.join(format!("cycle-{}", cycles.len())))?;
        let store = dir.path().join("store");
        let before = host_slowdown();
        let started = Instant::now();
        write_journal(&store, &journal)?;
        let setup_s = started.elapsed().as_secs_f64();
        let (daemon, timed_s) = Daemon::spawn(&bins.cli, &store, dir.path())?;
        report.check(None);
        let mut control = Client::connect(&daemon.addr)
            .map_err(|e| daemon.failure(&format!("refused a connection: {e}")))?;
        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        let cycle_plans = control.plans().map_err(|e| format!("plans: {e}"))?;
        report.check(None);
        let rss_mb = daemon.peak_rss_mb()?;
        drop(daemon);
        cycles.push(Cycle {
            setup_s,
            timed_s,
            slowdown: (before + host_slowdown()) / 2.0,
            events: journal.len(),
            rss_mb,
            outcome: ServedOutcome::new(args.workload.name(), stats, &cycle_plans),
        });
        plans.push(cycle_plans);
    }
    serving_report(args, &facts, &cycles, &plans, report)
}

/// `reproduce-table4`: set-up runs paper-scale Table II (which generates
/// the same dataset Table IV starts from) a few times; each cycle then
/// times one `table4` process and checks its JSON.
fn run_table4(args: &Args, bins: &Binaries, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let experiments = |command: &str, out: &Path| {
        let mut cmd = Command::new(&bins.experiments);
        cmd.args([
            "--scale",
            "paper",
            "--seed",
            &args.seed.to_string(),
            "--out",
        ])
        .arg(out)
        .arg(command);
        cmd
    };
    // Each process runs between two host-speed probes; the metrics divide
    // its wall time by their mean slowdown, as the serving cycles do.
    let probed = |command: &mut Command, log: &Path, sample_rss: bool| {
        let before = host_slowdown();
        let run = run_timed(command, log, sample_rss)?;
        Ok::<_, String>((run, (before + host_slowdown()) / 2.0))
    };
    let mut setup = Vec::new();
    let mut first_table2: Option<Vec<u8>> = None;
    for i in 0..TABLE2_RUNS {
        let out = work.join(format!("setup-{i}"));
        let (run, slowdown) = probed(
            &mut experiments("table2", &out),
            &work.join(format!("setup-{i}.log")),
            false,
        )?;
        setup.push((run.wall_s, slowdown));
        let table2 = std::fs::read(out.join("table2_dataset_summary.json")).unwrap_or_default();
        report.check(if !run.status.success() {
            Some(format!("table2 exited with {}", run.status))
        } else if first_table2.get_or_insert_with(|| table2.clone()) != &table2 {
            Some("table2 runs disagree".into())
        } else {
            None
        });
    }
    let events = generate_fleet_dataset(&FleetDatasetConfig::paper_scale(), args.seed)
        .log
        .len();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    while needs_cycle(
        walls.len(),
        walls.iter().map(|(wall, _)| wall).sum(),
        1,
        args.seconds,
    ) {
        let out = work.join(format!("run-{}", walls.len()));
        let log = work.join(format!("run-{}.log", walls.len()));
        let (run, slowdown) = probed(&mut experiments("table4", &out), &log, true)?;
        let table = std::fs::read(out.join("table4_prediction_methods.json")).unwrap_or_default();
        let expected: &[u8] = if args.seed == cordial_benchmark::GOLDEN_SEED {
            GOLDEN_TABLE4
        } else {
            first.get_or_insert_with(|| table.clone())
        };
        report.check(if !run.status.success() {
            let output = std::fs::read_to_string(&log).unwrap_or_default();
            Some(format!("table4 exited with {}:\n{output}", run.status))
        } else if table != expected {
            Some("table4_prediction_methods.json differs from the expected table".into())
        } else {
            None
        });
        walls.push((run.wall_s, slowdown));
        rss.push(run.rss_mb);
    }
    let raw = |runs: &[(f64, f64)]| median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let scaled = |runs: &[(f64, f64)]| median(&runs.iter().map(|r| r.0 / r.1).collect::<Vec<_>>());
    println!(
        "{} table4 runs over {events} paper-dataset events; as measured (medians): \
         table2 {:.4} s, table4 {:.3} s, host slowdown {:.3}",
        walls.len(),
        raw(&setup),
        raw(&walls),
        median(&walls.iter().map(|r| r.1).collect::<Vec<_>>())
    );
    report.metrics = vec![
        Metric::new("setup_s", scaled(&setup), "s"),
        Metric::new("events_per_s", events as f64 / scaled(&walls), "events/s"),
        Metric::new("rss_mb", median(&rss), "MB"),
    ];
    Ok(report)
}
