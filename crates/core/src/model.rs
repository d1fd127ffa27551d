//! Model selection: the three tree-ensemble families the paper evaluates.

use serde::{Deserialize, Serialize};

use cordial_trees::{
    Classifier, Dataset, FitError, FlatEnsemble, Gbdt, GbdtConfig, LightGbm, LightGbmConfig,
    RandomForest, RandomForestConfig,
};

/// Which tree-ensemble family to train (paper §IV-C: "Random Forest,
/// XGBoost, and LightGBM because they are lightweight, easy to deploy, and
/// have low computation costs").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Bagged CART forest with probability averaging.
    RandomForest {
        /// Number of trees.
        n_trees: usize,
        /// Maximum tree depth.
        max_depth: usize,
    },
    /// XGBoost-style second-order GBDT.
    Xgboost {
        /// Boosting rounds.
        n_rounds: usize,
        /// Maximum tree depth.
        max_depth: usize,
        /// Learning rate.
        learning_rate: f64,
    },
    /// LightGBM-style histogram, leaf-wise GBDT.
    LightGbm {
        /// Boosting rounds.
        n_rounds: usize,
        /// Maximum leaves per tree.
        max_leaves: usize,
        /// Learning rate.
        learning_rate: f64,
    },
}

impl ModelKind {
    /// Default random-forest configuration.
    pub fn random_forest() -> Self {
        ModelKind::RandomForest {
            n_trees: 100,
            max_depth: 12,
        }
    }

    /// Default XGBoost-style configuration.
    pub fn xgboost() -> Self {
        ModelKind::Xgboost {
            n_rounds: 60,
            max_depth: 5,
            learning_rate: 0.15,
        }
    }

    /// Default LightGBM-style configuration.
    pub fn lightgbm() -> Self {
        ModelKind::LightGbm {
            n_rounds: 60,
            max_leaves: 31,
            learning_rate: 0.15,
        }
    }

    /// The three model families in the paper's Table IV order
    /// (LGBM, XGB, RF).
    pub fn paper_lineup() -> [ModelKind; 3] {
        [Self::lightgbm(), Self::xgboost(), Self::random_forest()]
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::RandomForest { .. } => "Random Forest",
            ModelKind::Xgboost { .. } => "XGBoost",
            ModelKind::LightGbm { .. } => "LightGBM",
        }
    }

    /// Short suffix used in the paper's Table IV method names
    /// (`Cordial-RF` etc.).
    pub fn short_name(&self) -> &'static str {
        match self {
            ModelKind::RandomForest { .. } => "RF",
            ModelKind::Xgboost { .. } => "XGB",
            ModelKind::LightGbm { .. } => "LGBM",
        }
    }

    /// Fits the selected family on a dataset with the family's default
    /// worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`FitError`].
    pub fn fit(&self, data: &Dataset, seed: u64) -> Result<TrainedModel, FitError> {
        self.fit_threaded(data, seed, RandomForestConfig::default().n_threads)
    }

    /// Fits the selected family with an explicit worker-thread count
    /// (1 = sequential; the fitted model is the same either way).
    ///
    /// All three families use it: the forest fits its trees on that many
    /// workers, and XGBoost and LightGBM fit each round's per-class trees
    /// on them. `seed` drives the forest's bootstrap and feature sampling;
    /// the boosted families draw no random numbers.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`FitError`].
    pub fn fit_threaded(
        &self,
        data: &Dataset,
        seed: u64,
        n_threads: usize,
    ) -> Result<TrainedModel, FitError> {
        match *self {
            ModelKind::RandomForest { n_trees, max_depth } => {
                let config = RandomForestConfig {
                    n_trees,
                    base: cordial_trees::TreeConfig {
                        max_depth,
                        min_samples_leaf: 2,
                        ..Default::default()
                    },
                    seed,
                    n_threads,
                };
                RandomForest::fit(data, &config).map(TrainedModel::Forest)
            }
            ModelKind::Xgboost {
                n_rounds,
                max_depth,
                learning_rate,
            } => {
                let config = GbdtConfig {
                    n_rounds,
                    max_depth,
                    learning_rate,
                    n_threads,
                };
                Gbdt::fit(data, &config).map(TrainedModel::Xgb)
            }
            ModelKind::LightGbm {
                n_rounds,
                max_leaves,
                learning_rate,
            } => {
                let config = LightGbmConfig {
                    n_rounds,
                    max_leaves,
                    learning_rate,
                    n_threads,
                };
                LightGbm::fit(data, &config).map(TrainedModel::Lgbm)
            }
        }
    }
}

impl Default for ModelKind {
    /// Random forest: the paper's best performer (§V-B).
    fn default() -> Self {
        Self::random_forest()
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fitted model of any of the three families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainedModel {
    /// Random forest.
    Forest(RandomForest),
    /// XGBoost-style GBDT.
    Xgb(Gbdt),
    /// LightGBM-style GBDT.
    Lgbm(LightGbm),
}

impl TrainedModel {
    /// Gain-based feature importance of the underlying ensemble,
    /// normalised to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        match self {
            TrainedModel::Forest(m) => m.feature_importance(),
            TrainedModel::Xgb(m) => m.feature_importance(),
            TrainedModel::Lgbm(m) => m.feature_importance(),
        }
    }

    /// Class probabilities of a batch of rows, row-major in one vector
    /// (`n_classes` per row). A random forest scores the batch tree-major
    /// in one call ([`RandomForest::predict_proba_rows`]); the boosted
    /// families score it row by row. Either way each row's probabilities
    /// are bit-identical to [`Classifier::predict_proba`] on that row.
    pub fn predict_proba_rows(&self, rows: &[&[f64]]) -> Vec<f64> {
        match self {
            TrainedModel::Forest(m) => m.predict_proba_rows(rows),
            TrainedModel::Xgb(_) | TrainedModel::Lgbm(_) => rows
                .iter()
                .flat_map(|row| self.predict_proba(row))
                .collect(),
        }
    }

    /// Flattens a LightGBM model into its branchless SoA inference twin
    /// ([`FlatEnsemble`]). `None` for the other families, which infer
    /// through this model itself.
    pub fn flatten(&self) -> Option<FlatEnsemble> {
        match self {
            TrainedModel::Lgbm(m) => Some(FlatEnsemble::from_lightgbm(m)),
            TrainedModel::Forest(_) | TrainedModel::Xgb(_) => None,
        }
    }
}

impl Classifier for TrainedModel {
    fn n_classes(&self) -> usize {
        match self {
            TrainedModel::Forest(m) => m.n_classes(),
            TrainedModel::Xgb(m) => m.n_classes(),
            TrainedModel::Lgbm(m) => m.n_classes(),
        }
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        match self {
            TrainedModel::Forest(m) => m.predict_proba(row),
            TrainedModel::Xgb(m) => m.predict_proba(row),
            TrainedModel::Lgbm(m) => m.predict_proba(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        let mut data = Dataset::new(2, 2);
        for i in 0..40 {
            let v = (i % 10) as f64;
            data.push_row(&[v, v], 0).unwrap();
            data.push_row(&[100.0 + v, 100.0 + v], 1).unwrap();
        }
        data
    }

    #[test]
    fn every_family_fits_and_predicts() {
        let data = blobs();
        for kind in ModelKind::paper_lineup() {
            let model = kind.fit(&data, 1).unwrap();
            assert_eq!(model.predict(&[1.0, 1.0]), 0, "{kind}");
            assert_eq!(model.predict(&[105.0, 105.0]), 1, "{kind}");
            assert_eq!(model.n_classes(), 2);
            let p = model.predict_proba(&[1.0, 1.0]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn names_match_paper_terminology() {
        assert_eq!(ModelKind::random_forest().name(), "Random Forest");
        assert_eq!(ModelKind::xgboost().short_name(), "XGB");
        assert_eq!(ModelKind::lightgbm().short_name(), "LGBM");
        assert_eq!(ModelKind::default().name(), "Random Forest");
    }

    #[test]
    fn lineup_order_matches_table_iv() {
        let names: Vec<_> = ModelKind::paper_lineup()
            .iter()
            .map(|m| m.short_name())
            .collect();
        assert_eq!(names, ["LGBM", "XGB", "RF"]);
    }

    #[test]
    fn fit_errors_propagate() {
        let empty = Dataset::new(2, 2);
        assert!(ModelKind::random_forest().fit(&empty, 0).is_err());
    }
}
