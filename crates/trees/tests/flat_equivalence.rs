//! Equivalence pin of the flat SoA inference twin: for a fitted LightGBM
//! ensemble, [`FlatEnsemble`] must reproduce the pointer model's raw
//! scores and probabilities **bit-for-bit** — including on NaN-laced
//! probe rows — and the flattening must be invariant under the fit-time
//! worker-thread count (fits are thread-invariant, so their flat forms
//! must be too).

use cordial_trees::{Classifier, Dataset, FlatEnsemble, LightGbm, LightGbmConfig};

/// Four features, three classes, with NaN holes so missing-value routing
/// is part of what the equivalence pins.
fn dataset_with_nans() -> Dataset {
    let mut data = Dataset::new(4, 3);
    let mut noise = 1.0f64;
    let mut next = || {
        noise = (noise * 9301.0 + 49_297.0) % 233_280.0;
        noise / 233_280.0 * 12.0 - 6.0
    };
    for i in 0..90 {
        let v = (i % 15) as f64 * 0.3;
        let hole = if i % 7 == 0 { f64::NAN } else { next() };
        data.push_row(&[v, -v, hole, next()], 0).unwrap();
        data.push_row(&[6.0 + v, 6.0 - v, next(), hole], 1).unwrap();
        data.push_row(&[-6.0 - v, 12.0 + v, hole, hole], 2).unwrap();
    }
    data
}

/// Probe rows spanning the training range, the far tails, exact zeros of
/// both signs, infinities, and every NaN placement.
fn probe_rows() -> Vec<Vec<f64>> {
    let mut rows = vec![
        vec![0.0, 0.0, 0.0, 0.0],
        vec![-0.0, -0.0, -0.0, -0.0],
        vec![1.5, -1.5, 2.0, -2.0],
        vec![7.0, 5.0, -1.0, 1.0],
        vec![-8.0, 13.0, 0.3, -0.3],
        vec![1e9, -1e9, 1e-9, -1e-9],
        vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0],
    ];
    for i in 0..4 {
        let mut row = vec![0.5, -0.5, 1.0, -1.0];
        row[i] = f64::NAN;
        rows.push(row);
    }
    rows.push(vec![f64::NAN; 4]);
    rows
}

fn assert_bitwise_equal(pointer: &[f64], flat: &[f64], what: &str) {
    assert_eq!(pointer.len(), flat.len(), "{what}: length");
    for (i, (p, f)) in pointer.iter().zip(flat).enumerate() {
        assert_eq!(
            p.to_bits(),
            f.to_bits(),
            "{what}[{i}]: pointer {p} vs flat {f}"
        );
    }
}

fn assert_flat_matches_pointer(pointer: &dyn Classifier, flat: &FlatEnsemble, label: &str) {
    for (r, row) in probe_rows().iter().enumerate() {
        assert_bitwise_equal(
            &pointer.predict_proba(row),
            &flat.predict_proba(row),
            &format!("{label} probe {r} proba"),
        );
        assert_eq!(
            pointer.predict(row),
            flat.predict(row),
            "{label} probe {r} class"
        );
    }
}

#[test]
fn flat_lightgbm_matches_pointer_across_fit_thread_counts() {
    let data = dataset_with_nans();
    let mut flats: Vec<FlatEnsemble> = Vec::new();
    for n_threads in [1, 2, 4, 8] {
        let config = LightGbmConfig::default()
            .with_rounds(12)
            .with_threads(n_threads);
        let model = LightGbm::fit(&data, &config).unwrap();
        let flat = FlatEnsemble::from_lightgbm(&model);
        assert_flat_matches_pointer(&model, &flat, &format!("lgbm t{n_threads}"));
        for (r, row) in probe_rows().iter().enumerate() {
            assert_bitwise_equal(
                &model.raw_scores(row),
                &flat.raw_scores(row),
                &format!("lgbm t{n_threads} probe {r} raw"),
            );
        }
        flats.push(flat);
    }
    // Fits are thread-invariant, so the flat twins must be identical too.
    for flat in &flats[1..] {
        assert_eq!(flat, &flats[0], "flat form must not depend on n_threads");
    }
}

/// The batch kernel (shared binning buffer, packed-record traversal) must
/// be bit-identical to the per-row path for every batch size.
#[test]
fn flat_batch_kernel_matches_per_row() {
    let data = dataset_with_nans();
    let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(12)).unwrap();
    let flat = FlatEnsemble::from_lightgbm(&model);

    let probes = probe_rows();
    for batch in [1usize, 7, 9, 67] {
        // Cycle the probe rows (NaN placements included) out to `batch`.
        let rows: Vec<&[f64]> = (0..batch)
            .map(|i| probes[i % probes.len()].as_slice())
            .collect();
        let batched = flat.predict_proba_batch(&rows);
        assert_eq!(batched.len(), rows.len());
        for (i, (row, got)) in rows.iter().zip(&batched).enumerate() {
            assert_bitwise_equal(
                &flat.predict_proba(row),
                got,
                &format!("batch {batch} row {i}"),
            );
        }
    }
}

#[test]
fn flat_form_survives_pointer_model_serde_round_trip() {
    // Loading a pipeline flattens the deserialised pointer model; the
    // result must equal the flat form of the original.
    let data = dataset_with_nans();
    let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(8)).unwrap();
    let json = serde_json::to_string(&model).unwrap();
    let restored: LightGbm = serde_json::from_str(&json).unwrap();
    assert_eq!(
        FlatEnsemble::from_lightgbm(&model),
        FlatEnsemble::from_lightgbm(&restored)
    );
}

#[test]
fn flat_layout_is_contiguous_and_complete() {
    let data = dataset_with_nans();
    let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(10)).unwrap();
    let flat = FlatEnsemble::from_lightgbm(&model);
    assert_eq!(flat.n_trees(), 10 * 3, "one tree per (round, class)");
    assert_eq!(flat.n_features(), 4);
    // Every split node holds exactly one feature/threshold and two child
    // refs; every leaf is referenced by exactly one negative ref or root.
    assert_eq!(
        flat.n_leaves(),
        flat.n_split_nodes() + flat.n_trees(),
        "binary trees: leaves = splits + trees"
    );
}
