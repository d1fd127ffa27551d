//! `cordial-cli` — the operational workflow around the Cordial library:
//!
//! ```text
//! cordial-cli simulate --scale small --seed 7 --log fleet.mce --truth truth.json
//! cordial-cli train    --log fleet.mce --truth truth.json --model rf --out cordial.model.json
//! cordial-cli plan     --log fleet.mce --pipeline cordial.model.json [--bank ADDR]
//! cordial-cli simulate --scale small --seed 8 --log held-out.mce --truth held-out.json
//! cordial-cli eval     --log held-out.mce --truth held-out.json --pipeline cordial.model.json
//! ```
//!
//! * `simulate` writes a synthetic fleet as a textual MCE log plus a JSON
//!   ground-truth sidecar;
//! * `train` fits the full pipeline on the log and persists it as JSON;
//! * `plan` loads a trained pipeline and prints mitigation plans for the
//!   banks of a (possibly live) log;
//! * `eval` scores a stored pipeline and the neighbor-rows baseline with
//!   the Table IV metrics on every bank of a log (`train` fits on every
//!   bank of its own log, so evaluate on another);
//! * `run` executes the whole simulate→train→monitor loop in one go,
//!   optionally writing/resuming an atomic `--checkpoint`;
//! * `monitor` replays an on-disk log through the degraded-stream monitor
//!   with lossy parsing and crash-safe checkpoint/resume;
//! * `chaos` runs the fault-injection harness and reports invariant
//!   verdicts;
//! * `fleet` runs the multi-device fleet supervisor under device kills and
//!   stream corruption and reports quarantine/availability verdicts;
//! * `serve` runs the cordial-served daemon (wire protocol + `/metrics`)
//!   until SIGTERM/SIGINT or a `shutdown` RPC, draining and checkpointing
//!   on the way out; `load` drives a running daemon with the load
//!   generator and prints the throughput report as JSON;
//! * `stats` pretty-prints a metrics file written with `--metrics-out`
//!   (JSON or Prometheus text) and appends the health-watchdog section
//!   when the drift detectors' alert counters are present; `--watch N`
//!   re-renders it N times like `watch(1)`;
//! * `store` inspects, replays or compacts a durable store directory
//!   written by `serve --store-dir` (crash recovery runs on every open
//!   and whatever it cut is reported first).
//!
//! Every subcommand accepts `--metrics-out FILE` to export the run's
//! telemetry (Prometheus text, or JSON for a `.json` path),
//! `--trace-out FILE` to switch the flight recorder on and export the
//! merged causal timeline (Chrome trace-event JSON, or JSON lines for a
//! `.jsonl` path), and `--dump-dir DIR` to arm black-box post-mortem
//! dumps on contained panics and breaker opens. Any other flag that the
//! subcommand's usage line does not name, and any flag given twice, is
//! refused before the subcommand starts.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

mod commands;
mod io;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            cordial_obs::error!("error: {message}");
            cordial_obs::error!("");
            cordial_obs::error!("usage:");
            for (command, usage) in commands::USAGE {
                cordial_obs::error!("  cordial-cli {command:<8} {usage}");
            }
            cordial_obs::error!("");
            cordial_obs::error!("global flags: {}", commands::GLOBAL_FLAGS);
            ExitCode::FAILURE
        }
    }
}
