//! Schema and acceptance pins for the committed benchmark artefacts:
//! `BENCH_hotpath.json` (written by `cargo bench -p cordial-bench --bench
//! perf -- hotpath`) and `BENCH_obs.json` (written by `-- obs_recorder`).
//! CI runs a `--sample-size 10` smoke of those benches and then this
//! test, so a bench change that breaks an artefact's shape — or regresses
//! the committed hot-path ratios / recorder overhead past their
//! acceptance bounds — fails the build rather than silently rotting the
//! committed files. Serving and store throughput are measured
//! end to end by `bash benchmark/run.sh` (`steady-fleet`,
//! `crash-recovery`).

use serde_json::Value;

/// Benches every artefact must carry, with the speedup floor each one is
/// pinned to. The inference kernel pairs are trajectory records (the
/// pointer walk over these shallow production trees is already
/// near-optimal, see DESIGN.md §12) and only pin a sanity floor; the
/// serving-path pair pins the acceptance ratio.
const REQUIRED_BENCHES: &[(&str, f64)] = &[
    ("ingest_plan", 5.0),
    ("lgbm_inference", 0.1),
    ("gbdt_inference", 0.1),
];

fn get<'a>(map: &'a Value, key: &str) -> &'a Value {
    match map {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected map for key {key:?}, got {other:?}"),
    }
}

fn as_f64(value: &Value, what: &str) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("{what}: expected number, got {other:?}"),
    }
}

#[test]
fn committed_obs_artefact_matches_schema_and_overhead_ceiling() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_obs.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("obs_recorder"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }
    assert!(as_f64(get(&doc, "sample_size"), "sample_size") >= 1.0);

    let bench = get(get(&doc, "benches"), "recorder_replay");
    for label in ["disabled", "enabled"] {
        match get(bench, label) {
            Value::Str(s) => assert!(!s.is_empty(), "recorder_replay.{label} must name the mode"),
            other => panic!("recorder_replay.{label}: expected string, got {other:?}"),
        }
    }
    let disabled = as_f64(get(bench, "disabled_median_ns"), "disabled_median_ns");
    let enabled = as_f64(get(bench, "enabled_median_ns"), "enabled_median_ns");
    let overhead = as_f64(get(bench, "overhead"), "overhead");
    assert!(
        disabled.is_finite() && disabled > 0.0,
        "disabled median must be positive, got {disabled}"
    );
    assert!(
        enabled.is_finite() && enabled > 0.0,
        "enabled median must be positive, got {enabled}"
    );
    assert!(
        (overhead - enabled / disabled).abs() <= 1e-9 * overhead.abs(),
        "overhead {overhead} inconsistent with medians {enabled}/{disabled}"
    );
    // The always-on acceptance ceiling: the flight recorder may cost at
    // most 5% of the full monitor-replay hot path.
    assert!(
        overhead <= 1.05,
        "committed recorder overhead {:.2}% breaches the 5% ceiling",
        (overhead - 1.0) * 100.0
    );
}

#[test]
fn committed_hotpath_artefact_matches_schema_and_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_hotpath.json must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 1.0);
    match get(&doc, "source") {
        Value::Str(s) => assert!(
            s.contains("cargo bench") && s.contains("hotpath"),
            "source must record the producing command, got {s:?}"
        ),
        other => panic!("source: expected string, got {other:?}"),
    }
    assert!(as_f64(get(&doc, "sample_size"), "sample_size") >= 1.0);

    let benches = get(&doc, "benches");
    let n_benches = match benches {
        Value::Map(entries) => entries.len(),
        other => panic!("benches: expected map, got {other:?}"),
    };
    assert_eq!(
        n_benches,
        REQUIRED_BENCHES.len(),
        "exactly the required benches, no strays"
    );

    for &(key, floor) in REQUIRED_BENCHES {
        let bench = get(benches, key);
        for label in ["baseline", "optimised"] {
            match get(bench, label) {
                Value::Str(s) => assert!(!s.is_empty(), "{key}.{label} must name the twin"),
                other => panic!("{key}.{label}: expected string, got {other:?}"),
            }
        }
        let baseline = as_f64(get(bench, "baseline_median_ns"), key);
        let optimised = as_f64(get(bench, "optimised_median_ns"), key);
        let speedup = as_f64(get(bench, "speedup"), key);
        assert!(
            baseline.is_finite() && baseline > 0.0,
            "{key}: baseline median must be positive, got {baseline}"
        );
        assert!(
            optimised.is_finite() && optimised > 0.0,
            "{key}: optimised median must be positive, got {optimised}"
        );
        assert!(
            (speedup - baseline / optimised).abs() <= 1e-9 * speedup.abs(),
            "{key}: speedup {speedup} inconsistent with medians {baseline}/{optimised}"
        );
        assert!(
            speedup >= floor,
            "{key}: committed speedup {speedup:.2}x below its {floor}x floor"
        );
    }
}
