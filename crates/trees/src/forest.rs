//! Random forest: bootstrap-aggregated CART trees with probability averaging.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::FitError;
use crate::rank::RankedColumns;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;

/// Hyperparameters of a [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration. When `base.max_features` is `None`, the forest
    /// substitutes the usual `sqrt(n_features)` heuristic.
    pub base: TreeConfig,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
    /// Master seed; per-tree seeds are derived from it.
    pub seed: u64,
    /// Number of worker threads used while fitting (1 = sequential).
    pub n_threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            base: TreeConfig::default(),
            sample_fraction: 1.0,
            seed: 0,
            n_threads: 4,
        }
    }
}

impl RandomForestConfig {
    /// Returns the config with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different tree count.
    pub fn with_trees(mut self, n_trees: usize) -> Self {
        self.n_trees = n_trees;
        self
    }
}

/// A fitted random-forest classifier.
///
/// Each tree is grown on a bootstrap sample with per-split feature
/// subsampling; prediction averages the trees' leaf probability vectors
/// (soft voting), which the paper credits for the variance reduction that
/// makes Random Forest its best performer (§V-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] for an empty training set and
    /// [`FitError::InvalidConfig`] for a zero tree count or non-positive
    /// sample fraction.
    pub fn fit(data: &Dataset, config: &RandomForestConfig) -> Result<Self, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        if config.n_trees == 0 {
            return Err(FitError::InvalidConfig("n_trees must be >= 1"));
        }
        if !(config.sample_fraction > 0.0 && config.sample_fraction <= 1.0) {
            return Err(FitError::InvalidConfig("sample_fraction must be in (0, 1]"));
        }

        let max_features = config
            .base
            .max_features
            .unwrap_or_else(|| sqrt_features(data.n_features()));
        let sample_size = ((data.n_rows() as f64) * config.sample_fraction).ceil() as usize;
        let sample_size = sample_size.max(1);

        // Pre-derive per-tree seeds so results are independent of thread
        // interleaving.
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let tree_seeds: Vec<u64> = (0..config.n_trees).map(|_| seed_rng.gen()).collect();

        let _span = cordial_obs::span!("forest_fit");
        // Encoded once, read by every tree worker.
        let ranked = RankedColumns::new(data);
        let fit_one = |tree_seed: u64| -> Result<DecisionTree, FitError> {
            cordial_obs::counter!("trees.trees_built").inc();
            let mut rng = StdRng::seed_from_u64(tree_seed);
            let indices: Vec<usize> = (0..sample_size)
                .map(|_| rng.gen_range(0..data.n_rows()))
                .collect();
            let tree_config = TreeConfig {
                max_features: Some(max_features),
                seed: tree_seed,
                ..config.base
            };
            DecisionTree::fit_ranked(data, &ranked, &indices, &tree_config)
        };

        let trees = crate::parallel::ordered_map(&tree_seeds, config.n_threads, |&s| fit_one(s))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RandomForest {
            trees,
            n_classes: data.n_classes(),
            n_features: data.n_features(),
        })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean of the per-tree feature importances.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (t, g) in total.iter_mut().zip(tree.feature_importance()) {
                *t += g;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for t in &mut total {
                *t /= sum;
            }
        }
        total
    }
}

impl Classifier for RandomForest {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        for tree in &self.trees {
            for (a, p) in acc.iter_mut().zip(tree.predict_proba(row)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

fn sqrt_features(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        let mut data = Dataset::new(3, 3);
        for i in 0..40 {
            let v = (i % 10) as f64 * 0.1;
            data.push_row(&[v, v, 0.0], 0).unwrap();
            data.push_row(&[10.0 + v, 10.0 + v, 1.0], 1).unwrap();
            data.push_row(&[20.0 + v, -10.0 - v, 2.0], 2).unwrap();
        }
        data
    }

    #[test]
    fn separable_blobs_are_classified() {
        let config = RandomForestConfig::default().with_trees(25).with_seed(1);
        let forest = RandomForest::fit(&blobs(), &config).unwrap();
        assert_eq!(forest.predict(&[0.5, 0.5, 0.0]), 0);
        assert_eq!(forest.predict(&[10.5, 10.5, 1.0]), 1);
        assert_eq!(forest.predict(&[20.5, -10.5, 2.0]), 2);
        assert_eq!(forest.n_trees(), 25);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let config = RandomForestConfig::default().with_trees(10);
        let forest = RandomForest::fit(&blobs(), &config).unwrap();
        let proba = forest.predict_proba(&[5.0, 5.0, 0.5]);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(proba.len(), 3);
    }

    #[test]
    fn deterministic_per_seed_and_independent_of_threads() {
        let data = blobs();
        let base = RandomForestConfig::default().with_trees(8).with_seed(42);
        let sequential = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_threads: 1,
                ..base
            },
        )
        .unwrap();
        let parallel = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_threads: 4,
                ..base
            },
        )
        .unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn different_seeds_differ() {
        let data = blobs();
        let a = RandomForest::fit(
            &data,
            &RandomForestConfig::default().with_trees(5).with_seed(1),
        )
        .unwrap();
        let b = RandomForest::fit(
            &data,
            &RandomForestConfig::default().with_trees(5).with_seed(2),
        )
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn rejects_bad_configs() {
        let data = blobs();
        assert!(matches!(
            RandomForest::fit(&data, &RandomForestConfig::default().with_trees(0)),
            Err(FitError::InvalidConfig(_))
        ));
        assert!(matches!(
            RandomForest::fit(
                &data,
                &RandomForestConfig {
                    sample_fraction: 0.0,
                    ..RandomForestConfig::default()
                }
            ),
            Err(FitError::InvalidConfig(_))
        ));
        assert_eq!(
            RandomForest::fit(&Dataset::new(2, 2), &RandomForestConfig::default()),
            Err(FitError::EmptyDataset)
        );
    }

    #[test]
    fn feature_importance_highlights_informative_features() {
        let config = RandomForestConfig::default().with_trees(20).with_seed(3);
        let forest = RandomForest::fit(&blobs(), &config).unwrap();
        let importance = forest.feature_importance();
        assert_eq!(importance.len(), 3);
        let sum: f64 = importance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sqrt_features_heuristic() {
        assert_eq!(sqrt_features(1), 1);
        assert_eq!(sqrt_features(9), 3);
        assert_eq!(sqrt_features(16), 4);
        assert_eq!(sqrt_features(20), 4);
    }
}
