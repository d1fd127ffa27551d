//! Schema and acceptance pins for the committed benchmark artefacts:
//! `BENCH_hotpath.json` (written by `cargo bench -p cordial-bench --bench
//! perf -- hotpath`) and `BENCH_obs.json` (written by `-- obs_recorder`).
//! Both are a list of reference/candidate pairs in one shape, checked by
//! one validator against one table of ratio ceilings. CI runs a
//! `--sample-size 10` smoke of those benches and then this test, so a
//! bench change that breaks an artefact's shape — or regresses a
//! committed ratio past its bound — fails the build rather than silently
//! rotting the committed files. Serving and store throughput are
//! measured end to end by `bash benchmark/run.sh` (`steady-fleet`,
//! `crash-recovery`).

use serde_json::Value;

/// Every pair each artefact must list, with the largest `ratio`
/// (candidate median / reference median) it may reach: below 1 the
/// candidate is faster. The inference kernel pairs are trajectory
/// records (the pointer walk over these shallow production trees is
/// already near-optimal, see DESIGN.md §12) and only pin a sanity bound
/// (≥ 0.1x); the flight recorder may cost at most 5% of the full
/// monitor-replay hot path.
const MAX_RATIOS: &[(&str, &str, f64)] = &[
    ("BENCH_hotpath.json", "lgbm_inference", 10.0),
    ("BENCH_hotpath.json", "gbdt_inference", 10.0),
    ("BENCH_obs.json", "recorder_replay", 1.05),
];

fn get<'a>(map: &'a Value, key: &str) -> &'a Value {
    map.get(key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn as_f64(value: &Value, what: &str) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("{what}: expected number, got {other:?}"),
    }
}

fn as_str<'a>(value: &'a Value, what: &str) -> &'a str {
    match value {
        Value::Str(s) => s,
        other => panic!("{what}: expected string, got {other:?}"),
    }
}

/// Checks one committed artefact: its header names the `cargo bench`
/// command with `filter`, and it lists exactly the pairs [`MAX_RATIOS`]
/// gives it, each with positive medians, a consistent ratio and a ratio
/// within its bound.
fn validate(file: &str, filter: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file} must be committed at {path}: {e}"));
    let doc = serde_json::parse_value_str(&body).expect("valid JSON");

    assert_eq!(as_f64(get(&doc, "schema_version"), "schema_version"), 2.0);
    let source = as_str(get(&doc, "source"), "source");
    assert!(
        source.contains("cargo bench") && source.contains(filter),
        "{file}: source must record the producing command, got {source:?}"
    );
    assert!(as_f64(get(&doc, "sample_size"), "sample_size") >= 1.0);

    let Value::Seq(pairs) = get(&doc, "pairs") else {
        panic!("{file}: pairs must be a list");
    };
    let bounds: Vec<(&str, f64)> = MAX_RATIOS
        .iter()
        .filter(|(f, _, _)| *f == file)
        .map(|&(_, name, max_ratio)| (name, max_ratio))
        .collect();
    let names: Vec<&str> = pairs
        .iter()
        .map(|p| as_str(get(p, "name"), "name"))
        .collect();
    let expected: Vec<&str> = bounds.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names, expected,
        "{file}: exactly the required pairs, no strays"
    );

    for (pair, &(name, max_ratio)) in pairs.iter().zip(&bounds) {
        for label in ["reference", "candidate"] {
            assert!(
                !as_str(get(pair, label), label).is_empty(),
                "{name}.{label} must name the twin"
            );
        }
        let reference = as_f64(get(pair, "reference_ns"), name);
        let candidate = as_f64(get(pair, "candidate_ns"), name);
        let ratio = as_f64(get(pair, "ratio"), name);
        for (label, median) in [("reference", reference), ("candidate", candidate)] {
            assert!(
                median.is_finite() && median > 0.0,
                "{name}: {label} median must be positive, got {median}"
            );
        }
        assert!(
            (ratio - candidate / reference).abs() <= 1e-9 * ratio.abs(),
            "{name}: ratio {ratio} inconsistent with medians {candidate}/{reference}"
        );
        assert!(
            ratio <= max_ratio,
            "{name}: committed ratio {ratio:.4} above its {max_ratio} bound"
        );
    }
}

#[test]
fn committed_obs_artefact_matches_schema_and_overhead_ceiling() {
    validate("BENCH_obs.json", "obs_recorder");
}

#[test]
fn committed_hotpath_artefact_matches_schema_and_floors() {
    validate("BENCH_hotpath.json", "hotpath");
}
