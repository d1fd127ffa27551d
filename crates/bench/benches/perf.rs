//! Performance-layer benchmarks: the speedups claimed by the suite-wide
//! parallel training paths, measured against their sequential twins, and
//! the serving hot path's kernels against their reference twins. Every
//! compared pair produces bit-identical results (enforced by the
//! determinism tests and pinned again before each hot-path timing), so
//! these benches measure *only* time.
//!
//! Run with `cargo bench -p cordial-bench --bench perf`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};

use cordial::crossrow::block_samples;
use cordial::features::BLOCK_FEATURE_LEN;
use cordial::pipeline::Cordial;
use cordial::prelude::{BankAddress, BlockSpec, HbmGeometry};
use cordial::{CordialConfig, ModelKind, TrainedModel};
use cordial_bench::{bench_dataset, bench_split, BENCH_SEED};
use cordial_faultsim::FleetDataset;
use cordial_store::{crc32, crc32_portable};
use cordial_trees::{Classifier, Dataset, FlatEnsemble, LightGbm, LightGbmConfig};

/// A synthetic multi-class matrix big enough for the parallel paths to
/// engage (the per-feature histogram fan-out gates on rows × features).
fn synthetic_dataset(n_rows: usize, n_features: usize, n_classes: usize) -> Dataset {
    let mut data = Dataset::new(n_features, n_classes);
    let mut x = 0.0f64;
    for i in 0..n_rows {
        let row: Vec<f64> = (0..n_features)
            .map(|f| {
                x = (x * 1103515245.0 + 12345.0) % 1000.0;
                x / 100.0 + (i % n_classes) as f64 * (f % 5) as f64
            })
            .collect();
        data.push_row(&row, i % n_classes).expect("row");
    }
    data
}

fn bench_lgbm_fit(c: &mut Criterion) {
    if !c.matches("lgbm_fit") {
        return;
    }
    let data = synthetic_dataset(2000, 27, 3);
    let mut group = c.benchmark_group("lgbm_fit");
    group.sample_size(10);
    for threads in [1, 4] {
        let config = LightGbmConfig::default().with_threads(threads);
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| black_box(LightGbm::fit(&data, &config).expect("fit")))
        });
    }
    group.finish();
}

fn bench_cordial_fit(c: &mut Criterion) {
    if !c.matches("cordial_fit") {
        return;
    }
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let mut group = c.benchmark_group("cordial_fit");
    group.sample_size(10);
    for threads in [1, 4] {
        let config = CordialConfig::default()
            .with_seed(BENCH_SEED)
            .with_threads(threads);
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| black_box(Cordial::fit(&dataset, &split.train, &config).expect("fit")))
        });
    }
    group.finish();
}

fn bench_plan_batch(c: &mut Criterion) {
    if !c.matches("plan_batch") {
        return;
    }
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let by_bank = dataset.log.by_bank();
    let histories: Vec<_> = split.test.iter().map(|b| &by_bank[b]).collect();

    let mut group = c.benchmark_group("plan_batch");
    group.throughput(Throughput::Elements(histories.len() as u64));
    for threads in [1, 4] {
        let config = CordialConfig::default()
            .with_seed(BENCH_SEED)
            .with_threads(threads);
        let cordial = Cordial::fit(&dataset, &split.train, &config).expect("train");
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| black_box(cordial.plan_batch(black_box(&histories))))
        });
    }
    group.finish();
}

/// Telemetry overhead on the hot path. Two claims are checked:
///
/// * criterion numbers for `plan_batch` with recording disabled (every
///   instrumentation site collapses to one relaxed atomic load) vs
///   enabled (counters, histograms and spans actually record);
/// * a hard pin that the disabled path is never more than 2% slower than
///   the enabled path — the disabled path does strictly less work, so any
///   violation beyond noise means the no-op gate is broken.
fn bench_obs_overhead(c: &mut Criterion) {
    if !c.matches("obs_overhead") {
        return;
    }
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let by_bank = dataset.log.by_bank();
    let histories: Vec<_> = split.test.iter().map(|b| &by_bank[b]).collect();
    let config = CordialConfig::default()
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let cordial = Cordial::fit(&dataset, &split.train, &config).expect("train");

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(histories.len() as u64));
    cordial_obs::set_enabled(false);
    group.bench_function("plan_batch_disabled", |b| {
        b.iter(|| black_box(cordial.plan_batch(black_box(&histories))))
    });
    cordial_obs::set_enabled(true);
    group.bench_function("plan_batch_enabled", |b| {
        b.iter(|| black_box(cordial.plan_batch(black_box(&histories))))
    });
    cordial_obs::set_enabled(false);
    group.finish();

    // The hard pin, measured interleaved so clock drift and cache warmth
    // hit both modes equally.
    let time_once = |enabled: bool| {
        cordial_obs::set_enabled(enabled);
        let start = std::time::Instant::now();
        black_box(cordial.plan_batch(black_box(&histories)));
        start.elapsed().as_secs_f64()
    };
    for _ in 0..3 {
        time_once(false);
        time_once(true);
    }
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for _ in 0..15 {
        disabled.push(time_once(false));
        enabled.push(time_once(true));
    }
    cordial_obs::set_enabled(false);
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let disabled = median(&mut disabled);
    let enabled = median(&mut enabled);
    println!(
        "obs no-op pin: disabled {disabled:.6}s vs enabled {enabled:.6}s ({:+.2}%)",
        (disabled / enabled - 1.0) * 100.0
    );
    assert!(
        disabled <= enabled * 1.02,
        "disabled instrumentation must be a no-op: {disabled:.6}s vs {enabled:.6}s enabled"
    );
}

/// Flight-recorder overhead pin (`BENCH_obs.json` at the workspace
/// root): a full monitor replay of the bench fleet log with the recorder
/// off vs on, metrics enabled in both modes so the pair isolates the
/// recorder's own cost (ring push per span/instant). Interleaved samples,
/// like the obs no-op pin, so clock drift and cache warmth hit both
/// modes equally. Schema and the ≤5% overhead ceiling (ratio ≤ 1.05) are
/// pinned by `crates/bench/tests/bench_schema.rs`.
fn bench_recorder_overhead(c: &mut Criterion) {
    if !c.matches("obs_recorder") {
        return;
    }
    let sample_size = c.sample_size();
    let dataset = bench_dataset();
    let split = bench_split(&dataset);
    let config = CordialConfig::default()
        .with_seed(BENCH_SEED)
        .with_threads(4);
    let cordial = Cordial::fit(&dataset, &split.train, &config).expect("train");
    let budget = cordial_faultsim::SparingBudget::typical();
    let events = dataset.log.events();

    cordial_obs::set_enabled(true);
    let time_once = |recorder_on: bool| {
        cordial_obs::recorder::set_enabled(recorder_on);
        let mut monitor = cordial::monitor::CordialMonitor::new(cordial.clone(), budget);
        let start = Instant::now();
        black_box(monitor.ingest_all(events.iter().copied()));
        let elapsed = start.elapsed().as_secs_f64();
        if recorder_on {
            cordial_obs::recorder::clear();
        }
        elapsed
    };
    for _ in 0..3 {
        time_once(false);
        time_once(true);
    }
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for _ in 0..sample_size.max(5) {
        disabled.push(time_once(false));
        enabled.push(time_once(true));
    }
    cordial_obs::recorder::set_enabled(false);
    cordial_obs::set_enabled(false);
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let pair = HotpathPair {
        name: "recorder_replay",
        reference: "recorder_off",
        candidate: "recorder_on",
        reference_ns: median(&mut disabled) * 1e9,
        candidate_ns: median(&mut enabled) * 1e9,
    };
    pair.report();
    write_pairs_json("BENCH_obs.json", "obs_recorder", sample_size, &[pair]);
}

/// Median per-iteration time of `f` in nanoseconds, measured like the
/// vendored harness (calibrated repetition count, median of
/// `sample_size` samples) but returning the number so the hot-path
/// benches can compute ratios and emit `BENCH_hotpath.json`.
fn measure_median_ns<F: FnMut()>(sample_size: usize, mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let est = start.elapsed();
    let target = Duration::from_millis(10);
    let iters = if est.is_zero() {
        1_000
    } else {
        (target.as_nanos() / est.as_nanos().max(1)).clamp(1, 10_000) as u64
    };
    let mut samples: Vec<f64> = (0..sample_size.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One measured reference/candidate pair: the one record both committed
/// artefacts (`BENCH_hotpath.json`, `BENCH_obs.json`) list.
struct HotpathPair {
    name: &'static str,
    reference: &'static str,
    candidate: &'static str,
    reference_ns: f64,
    candidate_ns: f64,
}

impl HotpathPair {
    /// Candidate median over reference median: below 1 the candidate is
    /// faster.
    fn ratio(&self) -> f64 {
        self.candidate_ns / self.reference_ns
    }

    fn report(&self) {
        println!(
            "{:<28} {}: {:>12.0} ns   {}: {:>12.0} ns   ratio {:.4}",
            self.name,
            self.reference,
            self.reference_ns,
            self.candidate,
            self.candidate_ns,
            self.ratio()
        );
    }
}

/// Writes `pairs` to `file` at the workspace root, naming the
/// `cargo bench` filter that produced them. Both committed artefacts use
/// this one shape, validated by `crates/bench/tests/bench_schema.rs`.
fn write_pairs_json(file: &str, filter: &str, sample_size: usize, pairs: &[HotpathPair]) {
    use serde_json::Value;
    let records = pairs
        .iter()
        .map(|p| {
            Value::Map(vec![
                ("name".into(), Value::Str(p.name.into())),
                ("reference".into(), Value::Str(p.reference.into())),
                ("candidate".into(), Value::Str(p.candidate.into())),
                ("reference_ns".into(), Value::F64(p.reference_ns)),
                ("candidate_ns".into(), Value::F64(p.candidate_ns)),
                ("ratio".into(), Value::F64(p.ratio())),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("schema_version".into(), Value::U64(2)),
        (
            "source".into(),
            Value::Str(format!(
                "cargo bench -p cordial-bench --bench perf -- {filter}"
            )),
        ),
        ("sample_size".into(), Value::U64(sample_size as u64)),
        ("pairs".into(), Value::Seq(records)),
    ]);
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let body = serde_json::to_string_pretty(&doc).expect("serialise") + "\n";
    match std::fs::write(&path, body) {
        Ok(()) => println!("{filter}: wrote {path}"),
        Err(e) => println!("{filter}: could not write {path}: {e}"),
    }
}

/// Rows the inference benches sweep per iteration.
const INFER_BATCH: usize = 256;

/// Batch `predict_proba` over a fitted LightGBM ensemble: per-row
/// pointer-chasing node traversal vs the flat SoA twin's batch kernel
/// (bin every row once into a shared buffer, then walk the packed node
/// records). Bit-identical probabilities — pinned in setup — so the pair
/// measures only time.
fn hotpath_lgbm(data: &Dataset, sample_size: usize) -> HotpathPair {
    let pointer = LightGbm::fit(data, &LightGbmConfig::default().with_rounds(60)).expect("fit");
    let flat = FlatEnsemble::from_lightgbm(&pointer);
    let rows: Vec<&[f64]> = (0..INFER_BATCH.min(data.n_rows()))
        .map(|i| data.row(i))
        .collect();
    for (row, f) in rows.iter().zip(flat.predict_proba_batch(&rows)) {
        let p = pointer.predict_proba(row);
        assert!(
            p.iter().zip(&f).all(|(a, b)| a.to_bits() == b.to_bits()),
            "flat twin must be bit-identical before timing"
        );
    }
    let reference_ns = measure_median_ns(sample_size, || {
        for row in &rows {
            black_box(pointer.predict_proba(black_box(row)));
        }
    });
    let candidate_ns = measure_median_ns(sample_size, || {
        black_box(flat.predict_proba_batch(black_box(&rows)));
    });
    HotpathPair {
        name: "lgbm_inference",
        reference: "pointer_per_row",
        candidate: "flat_soa_batch",
        reference_ns,
        candidate_ns,
    }
}

/// One plan's cross-row stage on the serving default, a 100-tree random
/// forest fitted on the bench fleet's aggregation-bank block samples: a
/// test bank's 16 block rows scored by 16 per-row `predict_proba` calls
/// vs one tree-major `predict_proba_rows` call. Bit-identical
/// probabilities — pinned in setup — so the pair measures only time.
fn hotpath_forest(dataset: &FleetDataset, sample_size: usize) -> HotpathPair {
    let split = bench_split(dataset);
    let by_bank = dataset.log.by_bank();
    let k_uers = CordialConfig::default().k_uers;
    let (spec, geom) = (BlockSpec::paper(), HbmGeometry::hbm2e_8hi());
    let samples = |bank: &BankAddress| -> Vec<(Vec<f64>, usize)> {
        let aggregation = dataset
            .truth
            .get(bank)
            .is_some_and(|truth| truth.kind().coarse().is_aggregation());
        match by_bank
            .get(bank)
            .and_then(|h| h.observe_until_k_uers(k_uers))
        {
            Some((window, future)) if aggregation => block_samples(&window, future, &spec, &geom),
            _ => Vec::new(),
        }
    };
    let mut data = Dataset::new(BLOCK_FEATURE_LEN, 2);
    for (features, label) in split.train.iter().flat_map(&samples) {
        data.push_row(&features, label).expect("row");
    }
    let plan: Vec<Vec<f64>> = split
        .test
        .iter()
        .map(&samples)
        .find(|blocks| !blocks.is_empty())
        .expect("a test aggregation bank with a window")
        .into_iter()
        .map(|(features, _)| features)
        .collect();
    let TrainedModel::Forest(forest) = ModelKind::default().fit(&data, BENCH_SEED).expect("fit")
    else {
        unreachable!("the default model family is a random forest")
    };
    let rows: Vec<&[f64]> = plan.iter().map(Vec::as_slice).collect();
    let batch = forest.predict_proba_rows(&rows);
    for (row, b) in rows.iter().zip(batch.chunks_exact(forest.n_classes())) {
        let p = forest.predict_proba(row);
        assert!(
            p.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()),
            "batch scoring must be bit-identical before timing"
        );
    }
    let reference_ns = measure_median_ns(sample_size, || {
        for row in &rows {
            black_box(forest.predict_proba(black_box(row)));
        }
    });
    let candidate_ns = measure_median_ns(sample_size, || {
        black_box(forest.predict_proba_rows(black_box(&rows)));
    });
    HotpathPair {
        name: "forest_inference",
        reference: "per_row_predict_proba",
        candidate: "tree_major_batch",
        reference_ns,
        candidate_ns,
    }
}

/// Events in the checksummed batch: 1,025 26-byte records, a
/// 26,650-byte `IngestBatch` payload.
const CRC_BATCH: usize = 1_025;

/// The CRC-32 over one `IngestBatch` payload of the bench fleet's events,
/// the checksum the wire frame, the daemon's decode and the journal frame
/// each compute: the portable slicing-by-8 loop vs the dispatched
/// `crc32`, which runs the carry-less-multiply kernel where the CPU has
/// one. Equal checksums — pinned in setup — so the pair measures only
/// time, and a ratio near 1 means dispatch fell back to the portable
/// loop.
fn hotpath_crc32(dataset: &FleetDataset, sample_size: usize) -> HotpathPair {
    let events = &dataset.log.events()[..CRC_BATCH];
    let frame = cordial_served::codec::encode_ingest_batch(events);
    let payload = &frame[cordial_served::codec::HEADER_LEN..];
    assert_eq!(payload.len(), CRC_BATCH * cordial_store::EVENT_WIRE_LEN);
    assert_eq!(
        crc32(payload),
        crc32_portable(payload),
        "both kernels must agree before timing"
    );
    let reference_ns = measure_median_ns(sample_size, || {
        black_box(crc32_portable(black_box(payload)));
    });
    let candidate_ns = measure_median_ns(sample_size, || {
        black_box(crc32(black_box(payload)));
    });
    HotpathPair {
        name: "crc32",
        reference: "slicing_by_8",
        candidate: "dispatched",
        reference_ns,
        candidate_ns,
    }
}

/// The hot-path suite: measured outside `Bencher::iter` because the JSON
/// artefact needs the raw medians, but honouring the harness's filter and
/// `--sample-size` configuration. The artefact is only (re)written when
/// every pair ran, so a narrower filter cannot commit a partial file.
fn bench_hotpath(c: &mut Criterion) {
    if !c.matches("hotpath") {
        return;
    }
    let sample_size = c.sample_size();
    let data = synthetic_dataset(2000, 27, 3);
    let fleet = bench_dataset();
    let pairs = [
        hotpath_lgbm(&data, sample_size),
        hotpath_forest(&fleet, sample_size),
        hotpath_crc32(&fleet, sample_size),
    ];

    for pair in &pairs {
        pair.report();
    }
    write_pairs_json("BENCH_hotpath.json", "hotpath", sample_size, &pairs);
}

criterion_group!(
    perf,
    bench_lgbm_fit,
    bench_cordial_fit,
    bench_plan_batch,
    bench_obs_overhead,
    bench_recorder_overhead,
    bench_hotpath
);
criterion_main!(perf);
