//! End-to-end test of the `cordial-cli` binary: simulate → train → plan →
//! eval over real files, driving the compiled executable.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cordial-cli"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cordial-cli-e2e-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_succeeds() {
    let dir = workdir("full");
    let log = dir.join("fleet.mce");
    let truth = dir.join("truth.json");
    let model = dir.join("model.json");

    let simulate = bin()
        .args(["simulate", "--scale", "small", "--seed", "7"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .output()
        .expect("run simulate");
    assert!(simulate.status.success(), "{simulate:?}");
    assert!(log.exists() && truth.exists());

    let train = bin()
        .args(["train", "--model", "rf", "--seed", "7"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(train.status.success(), "{train:?}");
    assert!(model.exists());

    let plan = bin()
        .args(["plan"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .output()
        .expect("run plan");
    assert!(plan.status.success(), "{plan:?}");
    let stdout = String::from_utf8_lossy(&plan.stdout);
    assert!(
        stdout.contains("ROW SPARING") || stdout.contains("BANK SPARING"),
        "plan output should contain isolations:\n{stdout}"
    );
    assert!(stdout.contains("banks received a plan"));

    let eval = bin()
        .args(["eval"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .output()
        .expect("run eval");
    assert!(eval.status.success(), "{eval:?}");
    let stdout = String::from_utf8_lossy(&eval.stdout);
    assert!(stdout.contains("cordial-rf"));
    assert!(stdout.contains("neighbor-rows"));

    let _ = std::fs::remove_dir_all(dir);
}

/// Simulates a small fleet at `seed` into `dir`, returning its log and
/// truth paths.
fn simulate_small(dir: &std::path::Path, seed: &str) -> (PathBuf, PathBuf) {
    let log = dir.join(format!("fleet-{seed}.mce"));
    let truth = dir.join(format!("truth-{seed}.json"));
    let out = bin()
        .args(["simulate", "--scale", "small", "--seed", seed])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "{out:?}");
    (log, truth)
}

#[test]
fn eval_scores_the_stored_pipeline_on_a_held_out_log() {
    let dir = workdir("eval-xgb");
    let (log, truth) = simulate_small(&dir, "5");
    let (held_log, held_truth) = simulate_small(&dir, "6");
    let model = dir.join("model.json");
    let out = bin()
        .args(["train", "--model", "xgb", "--seed", "5"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args(["eval"])
        .args(["--log", held_log.to_str().unwrap()])
        .args(["--truth", held_truth.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .output()
        .expect("run eval");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cordial-xgb"), "{stdout}");
    assert!(!stdout.contains("cordial-rf"), "{stdout}");
    assert!(stdout.contains("neighbor-rows"), "{stdout}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn eval_refuses_a_missing_pipeline() {
    let dir = workdir("eval-missing");
    let (log, truth) = simulate_small(&dir, "5");
    let missing = dir.join("no-such-model.json");
    let out = bin()
        .args(["eval"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--pipeline", missing.to_str().unwrap()])
        .output()
        .expect("run eval");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-model.json"), "{stderr}");

    let _ = std::fs::remove_dir_all(dir);
}

/// Extracts just the monitor summary block from a `monitor` run's stdout,
/// so interrupted-then-resumed runs can be compared to uninterrupted ones
/// regardless of checkpoint/resume chatter.
fn summary_of(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            l.starts_with("ingested")
                || l.starts_with("planned")
                || l.starts_with("guard:")
                || l.starts_with("spare budget")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn monitor_resume_after_abort_matches_uninterrupted_run() {
    let dir = workdir("resume");
    let log = dir.join("fleet.mce");
    let truth = dir.join("truth.json");
    let model = dir.join("model.json");
    let ckpt = dir.join("ckpt.json");

    let out = bin()
        .args(["simulate", "--scale", "small", "--seed", "11"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = bin()
        .args(["train", "--seed", "11"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Uninterrupted baseline.
    let baseline = bin()
        .args(["monitor"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(baseline.status.success(), "{baseline:?}");
    let expected = summary_of(&baseline.stdout);
    assert!(expected.contains("ingested"), "{expected}");

    // Crash drill: abort mid-stream, checkpoint, then resume.
    let aborted = bin()
        .args(["monitor", "--abort-after", "200"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(aborted.status.success(), "{aborted:?}");
    assert!(
        String::from_utf8_lossy(&aborted.stdout).contains("aborted after 200 events"),
        "{aborted:?}"
    );
    assert!(ckpt.exists());

    let resumed = bin()
        .args(["monitor"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--resume", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    let resumed_stdout = String::from_utf8_lossy(&resumed.stdout).to_string();
    assert!(
        resumed_stdout.contains("resuming after 200 already-offered events"),
        "{resumed_stdout}"
    );
    assert_eq!(
        summary_of(&resumed.stdout),
        expected,
        "resumed run must reach the same final state"
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn monitor_survives_a_corrupted_log() {
    let dir = workdir("lossy");
    let log = dir.join("fleet.mce");
    let truth = dir.join("truth.json");
    let model = dir.join("model.json");

    let out = bin()
        .args(["simulate", "--scale", "small", "--seed", "13"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = bin()
        .args(["train", "--seed", "13"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Smash two lines of the log; the strict path would refuse the file.
    let mut text = std::fs::read_to_string(&log).unwrap();
    text.push_str("ts=notanumber addr=?? type=UER\ncomplete garbage\n");
    std::fs::write(&log, text).unwrap();

    let out = bin()
        .args(["monitor"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("lossy parse: skipped 2 malformed lines"),
        "{stdout}"
    );
    assert!(stdout.contains("ingested"), "{stdout}");

    let _ = std::fs::remove_dir_all(dir);
}

/// The `cordial_monitor_banks_tracked` value a `--metrics-out` file holds.
fn banks_tracked(metrics: &std::path::Path) -> f64 {
    let body = std::fs::read_to_string(metrics).expect("metrics file written");
    body.lines()
        .find_map(|line| line.strip_prefix("cordial_monitor_banks_tracked "))
        .unwrap_or_else(|| panic!("no banks_tracked gauge in:\n{body}"))
        .parse()
        .unwrap()
}

#[test]
fn chaos_subcommand_passes_at_reference_fault_rates() {
    let dir = workdir("chaos");
    let metrics = dir.join("metrics.prom");
    let out = bin()
        .args([
            "chaos",
            "--scale",
            "small",
            "--seed",
            "7",
            "--chaos-seed",
            "0",
        ])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("invariant zero-panics: PASS"), "{stdout}");
    assert!(
        stdout.contains("invariant stats-split-complete: PASS"),
        "{stdout}"
    );
    assert!(stdout.contains("chaos verdict: PASS"), "{stdout}");
    // The monitor outlives the export, so its banks are still counted.
    assert!(banks_tracked(&metrics) > 0.0);

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fleet_subcommand_exports_the_live_monitors_gauges() {
    let dir = workdir("fleet");
    let metrics = dir.join("metrics.prom");
    let out = bin()
        .args(["fleet", "--scale", "small", "--seed", "7"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fleet verdict: PASS"), "{stdout}");
    // The supervisor, and with it every device's monitor, outlives the
    // export, so the fleet's banks are still counted.
    assert!(banks_tracked(&metrics) > 0.0);

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn missing_inputs_fail_with_usage() {
    let out = bin().args(["train"]).output().expect("run train");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");

    let out = bin().args(["frobnicate"]).output().expect("run unknown");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // A mistyped flag and a flag that no longer exists are refused by
    // name before the subcommand starts, instead of being ignored.
    for (command, flags, unknown) in [
        ("train", "--log a.mce --modle lgbm", "--modle"),
        ("fleet", "--scale small --threads 4", "--threads"),
    ] {
        let out = bin()
            .arg(command)
            .args(flags.split(' '))
            .output()
            .expect("run cordial-cli");
        assert!(!out.status.success(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refusal = format!("error: `{command}` takes no {unknown}");
        assert!(stderr.contains(&refusal), "{stderr}");
        assert!(stderr.contains("usage"), "{stderr}");
    }
}

#[test]
fn plan_accepts_a_single_bank_filter() {
    let dir = workdir("filter");
    let log = dir.join("fleet.mce");
    let truth = dir.join("truth.json");
    let model = dir.join("model.json");

    let out = bin()
        .args(["simulate", "--scale", "small", "--seed", "9"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["train", "--seed", "9"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // An address that certainly has no events: plans zero banks.
    let out = bin()
        .args(["plan"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .args(["--bank", "node999/npu0/hbm0/sid0/ch0/pch0/bg0/bank0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(0 banks received a plan)"));

    // A malformed address errors out.
    let out = bin()
        .args(["plan"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", model.to_str().unwrap()])
        .args(["--bank", "not-an-address"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(dir);
}

/// Runs `cmd` to completion, killing it and failing the test if it takes
/// longer than `limit`.
fn output_within(mut cmd: Command, limit: std::time::Duration) -> std::process::Output {
    use std::process::Stdio;
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let start = std::time::Instant::now();
    while child.try_wait().unwrap().is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{cmd:?} still running after {limit:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// Trains a `model` pipeline, points the first split of its classifier's
/// first tree back at itself (scoring any row would then walk forever),
/// and runs `plan` on it, failing the test if `plan` takes over a minute.
fn plan_on_a_looped_pipeline(model: &str) -> std::process::Output {
    let dir = workdir(&format!("loop-{model}"));
    let log = dir.join("fleet.mce");
    let truth = dir.join("truth.json");
    let pipeline = dir.join("model.json");

    let out = bin()
        .args(["simulate", "--scale", "small", "--seed", "5"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = bin()
        .args(["train", "--model", model, "--seed", "5"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--truth", truth.to_str().unwrap()])
        .args(["--out", pipeline.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&pipeline).unwrap();
    let key = r#""left":"#;
    let at = text.find(key).expect("the model has a split") + key.len();
    let digits = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let looped = format!("{}0{}", &text[..at], &text[at + digits..]);
    assert_ne!(looped, text);
    std::fs::write(&pipeline, looped).unwrap();

    let mut plan = bin();
    plan.args(["plan"])
        .args(["--log", log.to_str().unwrap()])
        .args(["--pipeline", pipeline.to_str().unwrap()]);
    let out = output_within(plan, std::time::Duration::from_secs(60));
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[test]
fn plan_refuses_a_pipeline_whose_forest_loops() {
    let out = plan_on_a_looped_pipeline("rf");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot decode"), "{stderr}");
    assert!(
        stderr.contains("tree 0: node 0: child index 0 does not come after its parent"),
        "{stderr}"
    );
}

#[test]
fn plan_refuses_a_pipeline_whose_xgboost_tree_loops() {
    let out = plan_on_a_looped_pipeline("xgb");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot decode"), "{stderr}");
    assert!(
        stderr.contains("round 0, class 0: node 0: child index 0 does not come after its parent"),
        "{stderr}"
    );
}

#[test]
fn run_with_trace_out_and_dump_dir_exports_observability_artifacts() {
    let dir = workdir("trace");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let dumps = dir.join("dumps");

    // `run` with the full observability flag set: metrics file, Chrome
    // trace, armed black-box directory. A clean run opens no breaker and
    // contains no panic, so arming must leave the directory empty.
    let out = bin()
        .args(["run", "--scale", "small", "--seed", "7"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .args(["--trace-out", trace.to_str().unwrap()])
        .args(["--dump-dir", dumps.to_str().unwrap()])
        .output()
        .expect("run with trace");
    assert!(out.status.success(), "{out:?}");
    assert!(metrics.exists());

    let body = std::fs::read_to_string(&trace).expect("trace file written");
    let stats = cordial_obs::trace::parse_chrome_trace(&body).expect("valid Chrome trace");
    assert!(
        stats.complete_pairs >= 1,
        "the run must record span pairs: {stats:?}"
    );
    assert!(
        stats.categories.contains_key("plan"),
        "plan decisions must appear on the timeline: {stats:?}"
    );
    let stray: Vec<_> = std::fs::read_dir(&dumps)
        .expect("dump dir created by --dump-dir")
        .collect();
    assert!(stray.is_empty(), "clean run must not dump: {stray:?}");

    // A `.jsonl` destination selects the JSON-lines exporter instead.
    let jsonl = dir.join("trace.jsonl");
    let out = bin()
        .args(["run", "--scale", "small", "--seed", "7"])
        .args(["--trace-out", jsonl.to_str().unwrap()])
        .output()
        .expect("run with jsonl trace");
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&jsonl).unwrap();
    assert!(body.lines().count() >= 2, "one JSON object per line");
    for line in body.lines() {
        serde_json::parse_value_str(line).expect("each line is standalone JSON");
    }

    let _ = std::fs::remove_dir_all(dir);
}

/// `stats --watch` re-renders a Prometheus metrics file, health section
/// included: a `run` at the default seed raises 4 lead-time drift alerts.
#[test]
fn stats_watch_renders_bounded_refreshes() {
    let dir = workdir("watch");
    let metrics = dir.join("metrics.prom");

    let out = bin()
        .args(["run", "--scale", "small"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args(["stats", "--metrics", metrics.to_str().unwrap()])
        .args(["--watch", "2", "--watch-interval-ms", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("refresh 1/2") && stdout.contains("refresh 2/2"),
        "--watch 2 must render exactly two refreshes:\n{stdout}"
    );
    assert!(stdout.contains("cordial_monitor_events"), "{stdout}");
    for refresh in stdout.split("refresh ").skip(1) {
        assert!(refresh.contains("\nhealth watchdogs\n"), "{refresh}");
        assert!(
            refresh.lines().any(|line| {
                line.split_whitespace().collect::<Vec<_>>()
                    == ["cordial_obs_watchdog_alerts_lead_time", "4"]
            }),
            "each refresh must show the 4 lead-time alerts:\n{refresh}"
        );
    }

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn store_subcommand_inspects_replays_and_compacts() {
    use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
    use cordial_store::{FsyncPolicy, Store, StoreConfig};
    use cordial_topology::{
        BankAddress, BankGroup, BankIndex, Channel, ColId, DeviceId, HbmSocket, NodeId, NpuId,
        PseudoChannel, RowId, StackId,
    };

    let dir = workdir("store");
    let store_dir = dir.join("journal");

    // Seed a store the way the daemon would: a few journaled events for
    // two devices, then a checkpoint covering one of them.
    let event = |node: u32, time: u64| {
        let bank = BankAddress::new(
            NodeId(node),
            NpuId(0),
            HbmSocket(0),
            StackId(0),
            Channel(1),
            PseudoChannel(0),
            BankGroup(2),
            BankIndex(3),
        );
        ErrorEvent::new(
            bank.cell(RowId(7), ColId(1)),
            Timestamp::from_millis(time),
            ErrorType::Ce,
        )
    };
    let mut store = Store::open(
        &store_dir,
        StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    store
        .append_events(&[
            event(0, 1_000),
            event(1, 2_000),
            event(0, 3_000),
            event(1, 4_000),
        ])
        .unwrap();
    let device = DeviceId {
        node: NodeId(0),
        npu: NpuId(0),
        hbm: HbmSocket(0),
    };
    let floor = store.last_seq().unwrap();
    store
        .append_checkpoint(device, floor, "{\"schema_version\":1}")
        .unwrap();
    store.sync().unwrap();
    drop(store);

    let inspect = bin()
        .args(["store", "inspect", "--dir", store_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(inspect.status.success(), "{inspect:?}");
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(
        stdout.contains("5 records (4 events, 1 checkpoints)"),
        "{stdout}"
    );

    // Device-filtered replay sees only node1's events.
    let replay = bin()
        .args(["store", "replay", "--dir", store_dir.to_str().unwrap()])
        .args(["--device", "node1/npu0/hbm0", "--events-only", "true"])
        .output()
        .unwrap();
    assert!(replay.status.success(), "{replay:?}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("(2 records matched)"), "{stdout}");
    assert!(
        stdout.contains("time_ms=2000") && stdout.contains("time_ms=4000"),
        "{stdout}"
    );

    // A time range keeps the events inside it, bounds included, and no
    // checkpoint.
    let replay = bin()
        .args(["store", "replay", "--dir", store_dir.to_str().unwrap()])
        .args(["--since", "2000", "--until", "3000"])
        .output()
        .unwrap();
    assert!(replay.status.success(), "{replay:?}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("(2 records matched)"), "{stdout}");
    assert!(
        stdout.contains("seq=1 event") && stdout.contains("seq=2 event"),
        "{stdout}"
    );

    // A sequence floor keeps the last event and the checkpoint after it.
    let replay = bin()
        .args(["store", "replay", "--dir", store_dir.to_str().unwrap()])
        .args(["--min-seq", "3"])
        .output()
        .unwrap();
    assert!(replay.status.success(), "{replay:?}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("(2 records matched)"), "{stdout}");
    assert!(
        stdout.contains("seq=3 event") && stdout.contains("seq=4 checkpoint"),
        "{stdout}"
    );

    // Compaction drops node0's checkpoint-covered events and keeps the rest.
    let compact = bin()
        .args(["store", "compact", "--dir", store_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(compact.status.success(), "{compact:?}");
    let stdout = String::from_utf8_lossy(&compact.stdout);
    assert!(stdout.contains("compacted 5 -> 3 records"), "{stdout}");

    let replay = bin()
        .args(["store", "replay", "--dir", store_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(replay.status.success(), "{replay:?}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("(3 records matched)"), "{stdout}");

    let _ = std::fs::remove_dir_all(dir);
}
