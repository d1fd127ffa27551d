//! Stage 2: bank-level failure-pattern classification (paper §IV-C).
//!
//! A tree-ensemble model maps the §IV-B feature vector of a bank's observed
//! window (all CEs/UEOs + first `k` distinct-row UERs) to one of the three
//! coarse classes: double-row clustering, single-row clustering, scattered.

use cordial_faultsim::{CoarsePattern, FleetDataset};
use cordial_mcelog::{BankErrorHistory, ObservedWindow};
use cordial_topology::{BankAddress, HbmGeometry};
use cordial_trees::{Classifier, Dataset};
use serde::{Deserialize, Serialize};

use crate::config::CordialConfig;
use crate::error::CordialError;
use crate::features::{bank_features, mask_bank_features, FeatureMask, BANK_FEATURE_NAMES};
use crate::model::TrainedModel;

/// A trained failure-pattern classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternClassifier {
    model: TrainedModel,
    geom: HbmGeometry,
    k_uers: usize,
    mask: FeatureMask,
}

impl PatternClassifier {
    /// Trains a classifier on the given training banks of `dataset`.
    ///
    /// Banks that never accumulate `config.k_uers` distinct UER rows are
    /// skipped (they cannot produce an observation window).
    ///
    /// # Errors
    ///
    /// Returns [`CordialError::NoTrainableBanks`] when every bank is
    /// skipped, or a wrapped fit error.
    pub fn fit(
        dataset: &FleetDataset,
        train_banks: &[BankAddress],
        config: &CordialConfig,
    ) -> Result<Self, CordialError> {
        let geom = geometry_of(dataset);
        let by_bank = dataset.log.by_bank();
        // Feature extraction is per-bank independent, so it fans out to
        // worker threads; rows are pushed back in `train_banks` order.
        let samples = {
            let _span = cordial_obs::span!("features");
            cordial_trees::parallel::ordered_map(
                train_banks,
                config.n_threads,
                |bank| -> Option<(Vec<f64>, usize)> {
                    let truth = dataset.truth.get(bank)?;
                    let history = by_bank.get(bank)?;
                    let (window, _) = history.observe_until_k_uers(config.k_uers)?;
                    let mut features = bank_features(&window, &geom);
                    mask_bank_features(&mut features, &config.feature_mask);
                    Some((features, truth.kind().coarse().class_index()))
                },
            )
        };
        let mut data = Dataset::new(BANK_FEATURE_NAMES.len(), CoarsePattern::ALL.len());
        for (features, label) in samples.into_iter().flatten() {
            data.push_row(&features, label)?;
        }
        if data.is_empty() {
            return Err(CordialError::NoTrainableBanks);
        }
        cordial_obs::counter!("fit.classifier_samples").add(data.n_rows() as u64);
        let model = {
            let _span = cordial_obs::span!("model");
            config
                .model
                .fit_threaded(&data, config.seed, config.n_threads)?
        };
        Ok(Self {
            model,
            geom,
            k_uers: config.k_uers,
            mask: config.feature_mask,
        })
    }

    /// Number of distinct UER rows required before classification.
    pub fn k_uers(&self) -> usize {
        self.k_uers
    }

    /// Classifies an observed window.
    pub fn classify_window(&self, window: &ObservedWindow<'_>) -> CoarsePattern {
        self.classify_masked(bank_features(window, &self.geom), None)
    }

    /// Classifies from a pre-computed **raw** (unmasked) §IV-B feature
    /// vector, optionally through a flattened model twin.
    /// [`crate::pipeline::Cordial`] computes features once per plan and
    /// shares them between classification and cross-row prediction; the
    /// flat twin produces bit-identical probabilities, so the predicted
    /// class never differs from the pointer-based model.
    pub fn classify_from_features(
        &self,
        raw_features: &[f64],
        flat: Option<&cordial_trees::FlatEnsemble>,
    ) -> CoarsePattern {
        self.classify_masked(raw_features.to_vec(), flat)
    }

    fn classify_masked(
        &self,
        mut features: Vec<f64>,
        flat: Option<&cordial_trees::FlatEnsemble>,
    ) -> CoarsePattern {
        mask_bank_features(&mut features, &self.mask);
        let class = match flat {
            Some(flat) => flat.predict(&features),
            None => self.model.predict(&features),
        };
        CoarsePattern::from_class_index(class)
    }

    /// The trained model (flat-twin construction).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The geometry features are normalised against.
    pub(crate) fn geom(&self) -> &HbmGeometry {
        &self.geom
    }

    /// Classifies a bank history, returning `None` when the bank has not yet
    /// accumulated enough distinct UER rows.
    pub fn classify(&self, history: &BankErrorHistory) -> Option<CoarsePattern> {
        let (window, _) = history.observe_until_k_uers(self.k_uers)?;
        Some(self.classify_window(&window))
    }

    /// Class probabilities for an observed window, indexed by
    /// [`CoarsePattern::class_index`].
    pub fn classify_proba(&self, window: &ObservedWindow<'_>) -> Vec<f64> {
        let mut features = bank_features(window, &self.geom);
        mask_bank_features(&mut features, &self.mask);
        self.model.predict_proba(&features)
    }

    /// The classifier's gain-based feature importances, paired with the
    /// §IV-B feature names — which spatial/temporal/count signals the model
    /// actually uses.
    pub fn feature_importance(&self) -> Vec<(&'static str, f64)> {
        BANK_FEATURE_NAMES
            .iter()
            .copied()
            .zip(self.model.feature_importance())
            .collect()
    }

    /// Predicts every classifiable test bank, returning
    /// `(actual, predicted)` pairs for evaluation.
    pub fn evaluate(
        &self,
        dataset: &FleetDataset,
        test_banks: &[BankAddress],
    ) -> Vec<(CoarsePattern, CoarsePattern)> {
        let by_bank = dataset.log.by_bank();
        let mut pairs = Vec::new();
        for bank in test_banks {
            let (Some(truth), Some(history)) = (dataset.truth.get(bank), by_bank.get(bank)) else {
                continue;
            };
            if let Some(predicted) = self.classify(history) {
                pairs.push((truth.kind().coarse(), predicted));
            }
        }
        pairs
    }
}

/// The HBM geometry used by a dataset (assumed uniform across the fleet).
pub(crate) fn geometry_of(_dataset: &FleetDataset) -> HbmGeometry {
    // The simulator generates every fleet with the standard HBM2E geometry;
    // features only use `rows` for normalisation, so this is safe even for
    // custom fleets.
    HbmGeometry::hbm2e_8hi()
}

/// Builds the per-class and weighted confusion-matrix report for
/// `(actual, predicted)` pairs — the rows of the paper's Table III.
pub fn pattern_confusion(
    pairs: &[(CoarsePattern, CoarsePattern)],
) -> cordial_trees::metrics::ConfusionMatrix {
    let actual: Vec<usize> = pairs.iter().map(|(a, _)| a.class_index()).collect();
    let predicted: Vec<usize> = pairs.iter().map(|(_, p)| p.class_index()).collect();
    cordial_trees::metrics::ConfusionMatrix::from_predictions(
        CoarsePattern::ALL.len(),
        &actual,
        &predicted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn trained() -> (FleetDataset, crate::split::BankSplit, PatternClassifier) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 21);
        let split = split_banks(&dataset, 0.7, 21);
        let classifier =
            PatternClassifier::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        (dataset, split, classifier)
    }

    #[test]
    fn classifier_beats_majority_class_on_test_banks() {
        let (dataset, split, classifier) = trained();
        let pairs = classifier.evaluate(&dataset, &split.test);
        assert!(!pairs.is_empty());
        let correct = pairs.iter().filter(|(a, p)| a == p).count();
        let accuracy = correct as f64 / pairs.len() as f64;
        // Majority class (single-row) is ~68%; the classifier must do better.
        assert!(accuracy > 0.70, "accuracy {accuracy}");
    }

    #[test]
    fn classify_returns_none_for_uer_poor_banks() {
        let (_, _, classifier) = trained();
        let history = BankErrorHistory::new(cordial_topology::BankAddress::default(), vec![]);
        assert_eq!(classifier.classify(&history), None);
    }

    #[test]
    fn probabilities_are_a_distribution_over_three_classes() {
        let (dataset, split, classifier) = trained();
        let by_bank = dataset.log.by_bank();
        let history = &by_bank[&split.test[0]];
        if let Some((window, _)) = history.observe_until_k_uers(3) {
            let proba = classifier.classify_proba(&window);
            assert_eq!(proba.len(), 3);
            assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn no_trainable_banks_is_an_error() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 22);
        let err = PatternClassifier::fit(&dataset, &[], &CordialConfig::default()).unwrap_err();
        assert_eq!(err, CordialError::NoTrainableBanks);
    }

    #[test]
    fn confusion_matrix_has_three_classes() {
        let (dataset, split, classifier) = trained();
        let pairs = classifier.evaluate(&dataset, &split.test);
        let matrix = pattern_confusion(&pairs);
        assert_eq!(matrix.n_classes(), 3);
        assert_eq!(matrix.total(), pairs.len());
    }
}
