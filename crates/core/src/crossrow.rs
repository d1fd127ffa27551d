//! Stage 3: cross-row failure prediction (paper §IV-D).
//!
//! For banks classified as an aggregation pattern, Cordial predicts where
//! the *next* UERs will land: the ±64 rows around the last observed UER row
//! are divided into 16 blocks of 8 rows, and a per-pattern binary model
//! (one for single-row clustering, one for double-row clustering — Fig. 5)
//! predicts for each block whether it will contain a future UER.

use serde::{Deserialize, Serialize};

use cordial_faultsim::{CoarsePattern, FleetDataset};
use cordial_mcelog::{ErrorEvent, ObservedWindow};
use cordial_topology::{BankAddress, HbmGeometry, RowId};
use cordial_trees::{Classifier, Dataset};

use crate::classifier::geometry_of;
use crate::config::CordialConfig;
use crate::error::CordialError;
use crate::features::{
    bank_features, block_features, mask_bank_features, FeatureMask, BLOCK_FEATURE_LEN,
};
use crate::model::TrainedModel;
use crate::pipeline::FlatPipeline;

/// Geometry of the cross-row prediction window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockSpec {
    /// Number of blocks in the window.
    pub n_blocks: usize,
    /// Rows per block.
    pub rows_per_block: u32,
}

impl BlockSpec {
    /// The paper's window: 16 blocks × 8 rows = ±64 rows (§IV-D).
    pub const fn paper() -> Self {
        Self {
            n_blocks: 16,
            rows_per_block: 8,
        }
    }

    /// Half-width of the window in rows.
    pub fn radius(&self) -> u32 {
        (self.n_blocks as u32 * self.rows_per_block) / 2
    }

    /// Unclamped row bounds `(lo, hi)` of block `index` for a window
    /// anchored at `anchor` (the last observed UER row).
    ///
    /// # Panics
    ///
    /// Panics if `index >= n_blocks`.
    pub fn block_bounds(&self, anchor: RowId, index: usize) -> (i64, i64) {
        assert!(index < self.n_blocks, "block index out of range");
        let lo =
            anchor.0 as i64 - self.radius() as i64 + (index as i64) * self.rows_per_block as i64;
        (lo, lo + self.rows_per_block as i64 - 1)
    }

    /// The in-bank rows covered by block `index` (clamping drops rows that
    /// fall outside the bank).
    pub fn rows_in_block(&self, anchor: RowId, index: usize, geom: &HbmGeometry) -> Vec<RowId> {
        let (lo, hi) = self.block_bounds(anchor, index);
        (lo..=hi)
            .filter(|&r| r >= 0 && (r as u32) < geom.rows)
            .map(|r| RowId(r as u32))
            .collect()
    }

    /// Whether `row` falls inside block `index` of a window at `anchor`.
    pub fn contains(&self, anchor: RowId, index: usize, row: RowId) -> bool {
        let (lo, hi) = self.block_bounds(anchor, index);
        let r = row.0 as i64;
        r >= lo && r <= hi
    }
}

impl Default for BlockSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// The scores a row-sparing plan was cut from: one probability of a future
/// UER per block of the window, and the threshold they were cut at.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockScores {
    /// Probability of a future UER in each block, in block order.
    pub proba: Vec<f64>,
    /// The pattern's calibrated threshold: a block is predicted positive,
    /// and its rows isolated, iff its probability is at least this.
    pub threshold: f64,
}

impl BlockScores {
    /// Per-block predictions, in block order.
    pub fn predicted(&self) -> impl Iterator<Item = bool> + '_ {
        self.proba.iter().map(|p| *p >= self.threshold)
    }
}

/// Per-pattern cross-row block predictors (Fig. 5's "Single-row Predictor"
/// and "Double-row Predictor").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossRowPredictor {
    single: TrainedModel,
    double: TrainedModel,
    spec: BlockSpec,
    single_threshold: f64,
    double_threshold: f64,
    geom: HbmGeometry,
    k_uers: usize,
    mask: FeatureMask,
}

impl CrossRowPredictor {
    /// Trains the per-pattern block predictors on the aggregation banks of
    /// the training set.
    ///
    /// When one pattern class has no samples of its own (small fleets may
    /// lack double-row banks), its model is trained on the pooled
    /// aggregation samples instead.
    ///
    /// # Errors
    ///
    /// Returns [`CordialError::NoCrossRowSamples`] when no aggregation bank
    /// yields a window, or a wrapped fit error.
    pub fn fit(
        dataset: &FleetDataset,
        train_banks: &[BankAddress],
        config: &CordialConfig,
    ) -> Result<Self, CordialError> {
        /// One aggregation bank's pattern plus its labelled block samples.
        type BankBlockSamples = (CoarsePattern, Vec<(Vec<f64>, usize)>);

        let geom = geometry_of(dataset);
        let by_bank = dataset.log.by_bank();
        let mut single = Dataset::new(BLOCK_FEATURE_LEN, 2);
        let mut double = Dataset::new(BLOCK_FEATURE_LEN, 2);
        let mut pooled = Dataset::new(BLOCK_FEATURE_LEN, 2);

        // Sample generation (feature extraction over every block of every
        // aggregation bank) is per-bank independent: fan out to worker
        // threads, then route the samples sequentially in bank order.
        let per_bank = {
            let _span = cordial_obs::span!("features");
            cordial_trees::parallel::ordered_map(
                train_banks,
                config.n_threads,
                |bank| -> Option<BankBlockSamples> {
                    let truth = dataset.truth.get(bank)?;
                    let pattern = truth.kind().coarse();
                    if !pattern.is_aggregation() {
                        return None;
                    }
                    let history = by_bank.get(bank)?;
                    let (window, future) = history.observe_until_k_uers(config.k_uers)?;
                    let samples = block_samples_masked(
                        &window,
                        future,
                        &config.block,
                        &geom,
                        &config.feature_mask,
                    );
                    Some((pattern, samples))
                },
            )
        };
        for (pattern, samples) in per_bank.into_iter().flatten() {
            let target = match pattern {
                CoarsePattern::SingleRow => &mut single,
                CoarsePattern::DoubleRow => &mut double,
                CoarsePattern::Scattered => unreachable!("filtered above"),
            };
            for (features, label) in &samples {
                target.push_row(features, *label)?;
                pooled.push_row(features, *label)?;
            }
        }

        if pooled.is_empty() {
            return Err(CordialError::NoCrossRowSamples {
                pattern: "aggregation",
            });
        }
        cordial_obs::counter!("fit.crossrow_samples").add(pooled.n_rows() as u64);
        let fit_or_pool = |own: &Dataset| -> Result<(TrainedModel, f64), CordialError> {
            let _span = cordial_obs::span!("model");
            let source = if own.is_empty() { &pooled } else { own };
            let model = config
                .model
                .fit_threaded(source, config.seed, config.n_threads)?;
            let threshold = config
                .block_threshold
                .unwrap_or_else(|| calibrate_threshold(&model, source));
            Ok((model, threshold))
        };
        let (single, single_threshold) = fit_or_pool(&single)?;
        let (double, double_threshold) = fit_or_pool(&double)?;
        Ok(Self {
            single,
            double,
            spec: config.block,
            single_threshold,
            double_threshold,
            geom,
            k_uers: config.k_uers,
            mask: config.feature_mask,
        })
    }

    /// The calibrated decision threshold used for the given pattern.
    ///
    /// # Panics
    ///
    /// Panics for [`CoarsePattern::Scattered`].
    pub fn threshold(&self, pattern: CoarsePattern) -> f64 {
        match pattern {
            CoarsePattern::SingleRow => self.single_threshold,
            CoarsePattern::DoubleRow => self.double_threshold,
            CoarsePattern::Scattered => {
                panic!("cross-row prediction is not defined for scattered banks")
            }
        }
    }

    /// The window geometry in use.
    pub fn spec(&self) -> BlockSpec {
        self.spec
    }

    /// The rows Cordial would isolate for this window, from a pre-computed
    /// **raw** (unmasked) §IV-B bank feature vector: every row of every
    /// block whose probability reaches the pattern's threshold. `flat`
    /// routes the ensemble through flattened twins, which give
    /// bit-identical probabilities, so the rows never depend on it.
    ///
    /// This is [`crate::pipeline::Cordial::decide`]'s block-scoring loop
    /// without the scores.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is [`CoarsePattern::Scattered`].
    pub fn predicted_rows_from_features(
        &self,
        window: &ObservedWindow<'_>,
        pattern: CoarsePattern,
        raw_features: &[f64],
        flat: Option<&FlatPipeline>,
    ) -> Vec<RowId> {
        let pointer = FlatPipeline::default();
        self.score_blocks(window, pattern, raw_features, flat.unwrap_or(&pointer))
            .1
    }

    /// Scores every block of the window around the last observed UER row
    /// with the block model of `pattern`, through `flat`'s twin of that
    /// model when it has one. Returns the scores and the rows of the
    /// positive blocks, ascending.
    ///
    /// A window with no UER row has no anchor: every block scores zero and
    /// no row is isolated.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is [`CoarsePattern::Scattered`] — scattered banks
    /// never reach cross-row prediction (§IV-C).
    pub(crate) fn score_blocks(
        &self,
        window: &ObservedWindow<'_>,
        pattern: CoarsePattern,
        raw_features: &[f64],
        flat: &FlatPipeline,
    ) -> (BlockScores, Vec<RowId>) {
        let (model, flat_model) = match pattern {
            CoarsePattern::SingleRow => (&self.single, flat.single()),
            CoarsePattern::DoubleRow => (&self.double, flat.double()),
            CoarsePattern::Scattered => {
                panic!("cross-row prediction is not defined for scattered banks")
            }
        };
        let threshold = self.threshold(pattern);
        let Some(anchor) = window.last_uer_row() else {
            let proba = vec![0.0; self.spec.n_blocks];
            return (BlockScores { proba, threshold }, Vec::new());
        };
        let mut bank_feats = raw_features.to_vec();
        mask_bank_features(&mut bank_feats, &self.mask);
        let flat_timer = flat_model.map(|_| std::time::Instant::now());
        // One buffer holds every block's row, so a plan allocates nothing
        // per block.
        let mut matrix = Vec::with_capacity(self.spec.n_blocks * BLOCK_FEATURE_LEN);
        for index in 0..self.spec.n_blocks {
            let (lo, hi) = self.spec.block_bounds(anchor, index);
            block_features(
                &mut matrix,
                window,
                &bank_feats,
                index,
                lo,
                hi,
                anchor.0 as i64,
            );
        }
        let block_rows: Vec<&[f64]> = matrix.chunks_exact(BLOCK_FEATURE_LEN).collect();
        let probas: Vec<f64> = match flat_model {
            // All blocks of a plan go through the flat ensemble as one
            // batch: rows share a single binning buffer and traverse the
            // packed node pool together ([`FlatEnsemble::predict_proba_batch`]
            // is bit-identical to the per-row path).
            Some(flat_model) => flat_model
                .predict_proba_batch(&block_rows)
                .iter()
                .map(|proba| proba[1])
                .collect(),
            // Without a twin (forests), the model scores all blocks in one
            // call; a forest walks them through each tree together.
            None => positive_probas(model, &block_rows),
        };
        let mut rows = Vec::new();
        for (index, proba) in probas.iter().enumerate() {
            if *proba >= threshold {
                rows.extend(self.spec.rows_in_block(anchor, index, &self.geom));
            }
        }
        if let Some(start) = flat_timer {
            // Wall-clock values vary run to run but the observation *count*
            // is deterministic, which is all the telemetry digest pins.
            cordial_obs::histogram!("plan.flat_infer.seconds", cordial_obs::DURATION_BOUNDS)
                .observe(start.elapsed().as_secs_f64());
        }
        let scores = BlockScores {
            proba: probas,
            threshold,
        };
        (scores, rows)
    }

    /// The per-pattern block models, `(single, double)` (flat-twin
    /// construction).
    pub(crate) fn models(&self) -> (&TrainedModel, &TrainedModel) {
        (&self.single, &self.double)
    }
}

/// Picks the probability threshold for block predictions on the training
/// blocks: among the thresholds whose training F1 is within 5% of the best,
/// the *lowest* one.
///
/// Candidates are the 5%-quantile grid of the predicted probabilities, so
/// the search adapts to however (un)calibrated the model's scores are.
/// Preferring the lowest near-optimal threshold trades a sliver of F1 for
/// isolation coverage — spare rows are cheap relative to an unabsorbed UER,
/// which is the economics the paper's ICR metric encodes.
fn calibrate_threshold(model: &TrainedModel, data: &Dataset) -> f64 {
    let rows: Vec<&[f64]> = (0..data.n_rows()).map(|i| data.row(i)).collect();
    let probs = positive_probas(model, &rows);
    let mut candidates: Vec<f64> = probs.clone();
    candidates.sort_by(f64::total_cmp);
    candidates.dedup();

    let mut scored: Vec<(f64, f64)> = Vec::new();
    for step in 1..20 {
        let idx = step * candidates.len() / 20;
        let threshold = candidates[idx.min(candidates.len() - 1)];
        let (mut tp, mut fp, mut fn_) = (0.0f64, 0.0f64, 0.0f64);
        for (i, &p) in probs.iter().enumerate() {
            let predicted = p >= threshold;
            let actual = data.label(i) == 1;
            match (actual, predicted) {
                (true, true) => tp += 1.0,
                (false, true) => fp += 1.0,
                (true, false) => fn_ += 1.0,
                (false, false) => {}
            }
        }
        let f1 = if tp > 0.0 {
            2.0 * tp / (2.0 * tp + fp + fn_)
        } else {
            0.0
        };
        scored.push((threshold, f1));
    }
    let best_f1 = scored.iter().map(|&(_, f1)| f1).fold(0.0, f64::max);
    scored
        .iter()
        .filter(|&&(_, f1)| f1 >= 0.95 * best_f1)
        .map(|&(threshold, _)| threshold)
        .fold(f64::INFINITY, f64::min)
        .clamp(0.0, 1.0)
}

/// The class-1 (future UER) probability of every row, in one batch call.
fn positive_probas(model: &TrainedModel, rows: &[&[f64]]) -> Vec<f64> {
    model
        .predict_proba_rows(rows)
        .chunks_exact(model.n_classes())
        .map(|proba| proba[1])
        .collect()
}

/// The future UER rows a block is labelled against: every row with a future
/// UER event, matching the paper's §IV-D target ("whether there will be a
/// UER in each of these blocks"). Already-observed rows count — a weak row
/// re-erupting is still a UER the block prediction anticipated.
fn future_target_rows(_window: &ObservedWindow<'_>, future: &[ErrorEvent]) -> Vec<RowId> {
    let mut rows: Vec<RowId> = future
        .iter()
        .filter(|e| e.is_uer())
        .map(|e| e.addr.row)
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// Builds the `(features, label)` block samples of one bank window: label 1
/// iff any future UER row lands in the block.
pub fn block_samples(
    window: &ObservedWindow<'_>,
    future: &[ErrorEvent],
    spec: &BlockSpec,
    geom: &HbmGeometry,
) -> Vec<(Vec<f64>, usize)> {
    block_samples_masked(window, future, spec, geom, &FeatureMask::ALL)
}

/// [`block_samples`] with a feature-group mask applied to the bank-feature
/// suffix of every sample.
pub fn block_samples_masked(
    window: &ObservedWindow<'_>,
    future: &[ErrorEvent],
    spec: &BlockSpec,
    geom: &HbmGeometry,
    mask: &FeatureMask,
) -> Vec<(Vec<f64>, usize)> {
    let Some(anchor) = window.last_uer_row() else {
        return Vec::new();
    };
    let mut bank_feats = bank_features(window, geom);
    mask_bank_features(&mut bank_feats, mask);
    let targets = future_target_rows(window, future);
    (0..spec.n_blocks)
        .map(|index| {
            let (lo, hi) = spec.block_bounds(anchor, index);
            let mut features = Vec::with_capacity(BLOCK_FEATURE_LEN);
            block_features(
                &mut features,
                window,
                &bank_feats,
                index,
                lo,
                hi,
                anchor.0 as i64,
            );
            let label = usize::from(targets.iter().any(|row| spec.contains(anchor, index, *row)));
            (features, label)
        })
        .collect()
}

/// The ground-truth block labels of one bank window (used by evaluation):
/// `true` iff a future UER row lands in the block.
pub fn block_labels(
    window: &ObservedWindow<'_>,
    future: &[ErrorEvent],
    spec: &BlockSpec,
) -> Vec<bool> {
    let Some(anchor) = window.last_uer_row() else {
        return vec![false; spec.n_blocks];
    };
    let targets = future_target_rows(window, future);
    (0..spec.n_blocks)
        .map(|index| targets.iter().any(|row| spec.contains(anchor, index, *row)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
    use cordial_mcelog::{BankErrorHistory, ErrorType, Timestamp};
    use cordial_topology::ColId;

    #[test]
    fn paper_spec_covers_128_rows() {
        let spec = BlockSpec::paper();
        assert_eq!(spec.radius(), 64);
        let (lo0, hi0) = spec.block_bounds(RowId(1000), 0);
        assert_eq!((lo0, hi0), (936, 943));
        let (lo15, hi15) = spec.block_bounds(RowId(1000), 15);
        assert_eq!((lo15, hi15), (1056, 1063));
        // Blocks tile the window without gaps.
        for i in 0..15 {
            let (_, hi) = spec.block_bounds(RowId(1000), i);
            let (lo, _) = spec.block_bounds(RowId(1000), i + 1);
            assert_eq!(lo, hi + 1);
        }
    }

    #[test]
    fn anchor_row_is_inside_the_window() {
        let spec = BlockSpec::paper();
        let anchor = RowId(1000);
        assert!((0..spec.n_blocks).any(|i| spec.contains(anchor, i, anchor)));
    }

    #[test]
    fn rows_in_block_clamps_at_bank_edges() {
        let spec = BlockSpec::paper();
        let geom = HbmGeometry::hbm2e_8hi();
        // Anchor near row 0: the lowest blocks fall off the bank.
        let rows = spec.rows_in_block(RowId(3), 0, &geom);
        assert!(rows.is_empty());
        let rows = spec.rows_in_block(RowId(3), 8, &geom);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.0 < geom.rows));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_bounds_checks_index() {
        BlockSpec::paper().block_bounds(RowId(0), 16);
    }

    fn history_with_future() -> BankErrorHistory {
        let bank = BankAddress::default();
        let ev = |row: u32, t: u64, ty: ErrorType| {
            cordial_mcelog::ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ty,
            )
        };
        BankErrorHistory::new(
            bank,
            vec![
                ev(1000, 1, ErrorType::Uer),
                ev(1004, 2, ErrorType::Uer),
                ev(1010, 3, ErrorType::Uer),
                // Future: one UER 20 rows above the anchor, one far away.
                ev(1030, 4, ErrorType::Uer),
                ev(9000, 5, ErrorType::Uer),
            ],
        )
    }

    #[test]
    fn block_labels_mark_future_rows_in_window() {
        let history = history_with_future();
        let (window, future) = history.observe_until_k_uers(3).unwrap();
        let spec = BlockSpec::paper();
        let labels = block_labels(&window, future, &spec);
        assert_eq!(labels.len(), 16);
        // Anchor 1010; future row 1030 → offset +20 → block index (20+64)/8 = 10.
        assert!(labels[10]);
        // The far row 9000 is outside the window: exactly one positive block.
        assert_eq!(labels.iter().filter(|&&l| l).count(), 1);
    }

    #[test]
    fn block_samples_align_with_labels() {
        let history = history_with_future();
        let (window, future) = history.observe_until_k_uers(3).unwrap();
        let spec = BlockSpec::paper();
        let geom = HbmGeometry::hbm2e_8hi();
        let samples = block_samples(&window, future, &spec, &geom);
        let labels = block_labels(&window, future, &spec);
        assert_eq!(samples.len(), labels.len());
        for ((features, label), expected) in samples.iter().zip(&labels) {
            assert_eq!(*label == 1, *expected);
            assert_eq!(features.len(), BLOCK_FEATURE_LEN);
        }
    }

    #[test]
    fn trained_predictor_produces_probabilities_and_rows() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 31);
        let split = split_banks(&dataset, 0.7, 31);
        let config = CordialConfig::default();
        let predictor = CrossRowPredictor::fit(&dataset, &split.train, &config).unwrap();

        let by_bank = dataset.log.by_bank();
        // Find an aggregation test bank with a window.
        let bank = split
            .test
            .iter()
            .find(|b| {
                dataset.truth[*b].kind().coarse().is_aggregation()
                    && by_bank[*b].observe_until_k_uers(3).is_some()
            })
            .expect("aggregation test bank exists");
        let (window, _) = by_bank[bank].observe_until_k_uers(3).unwrap();
        let raw = bank_features(&window, &HbmGeometry::hbm2e_8hi());
        let (scores, rows) = predictor.score_blocks(
            &window,
            CoarsePattern::SingleRow,
            &raw,
            &FlatPipeline::default(),
        );
        assert_eq!(scores.proba.len(), 16);
        assert!(scores.proba.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_eq!(
            scores.threshold,
            predictor.threshold(CoarsePattern::SingleRow)
        );
        // The rows are exactly those of the positive blocks.
        let anchor = window.last_uer_row().unwrap();
        let expected: Vec<RowId> = scores
            .predicted()
            .enumerate()
            .filter(|(_, positive)| *positive)
            .flat_map(|(index, _)| predictor.spec.rows_in_block(anchor, index, &predictor.geom))
            .collect();
        assert_eq!(rows, expected);
        assert_eq!(
            predictor.predicted_rows_from_features(&window, CoarsePattern::SingleRow, &raw, None),
            rows
        );
        // Every predicted row is inside the ±64 window of the anchor.
        for row in &rows {
            assert!(row.distance(anchor) <= 64 + 8);
        }
    }

    #[test]
    #[should_panic(expected = "scattered")]
    fn scattered_pattern_is_rejected() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 32);
        let split = split_banks(&dataset, 0.7, 32);
        let predictor =
            CrossRowPredictor::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let by_bank = dataset.log.by_bank();
        let bank = split
            .test
            .iter()
            .find(|b| by_bank[*b].observe_until_k_uers(3).is_some())
            .unwrap();
        let (window, _) = by_bank[bank].observe_until_k_uers(3).unwrap();
        let raw = bank_features(&window, &HbmGeometry::hbm2e_8hi());
        let _ =
            predictor.predicted_rows_from_features(&window, CoarsePattern::Scattered, &raw, None);
    }

    #[test]
    fn no_aggregation_banks_is_an_error() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 33);
        let err = CrossRowPredictor::fit(&dataset, &[], &CordialConfig::default()).unwrap_err();
        assert!(matches!(err, CordialError::NoCrossRowSamples { .. }));
    }
}
