//! Tree-ensemble machine-learning substrate for the Cordial suite.
//!
//! The paper trains three tree-based models — Random Forest, XGBoost and
//! LightGBM (§IV-C) — "because they are lightweight, easy to deploy, and
//! have low computation costs in industrial applications". The mainstream
//! implementations are Python/C++ libraries; this crate re-implements the
//! three model families from scratch in pure Rust:
//!
//! * [`DecisionTree`] — CART classification trees (Gini impurity, exact
//!   splits, per-node feature subsampling),
//! * [`RandomForest`] — bootstrap-aggregated trees with probability
//!   averaging and parallel fitting,
//! * [`Gbdt`] — second-order gradient boosting in the XGBoost style
//!   (grad/hess Taylor objective, softmax loss, L2 regularisation,
//!   depth-wise growth),
//! * [`LightGbm`] — histogram-binned, leaf-wise (best-first) boosting in the
//!   LightGBM style, with a flattened inference twin ([`FlatEnsemble`]).
//!
//! The pipeline sets only each family's size, depth and learning rate, so
//! those (and the worker-thread count) are the only knobs; every other
//! training setting is one named constant of its module, and the boosted
//! fits draw no random numbers.
//!
//! Supporting modules provide the dense [`Dataset`] container with stratified
//! splitting, classification [`metrics`] (confusion matrix, per-class and
//! weighted precision/recall/F1 — the exact scores of Tables III/IV), and
//! the [`stats`] chi-square machinery behind the paper's Figure 4 locality
//! study.
//!
//! # Example
//!
//! ```
//! use cordial_trees::{Dataset, RandomForest, RandomForestConfig, Classifier};
//!
//! // Two separable classes.
//! let mut data = Dataset::new(2, 2);
//! for i in 0..50 {
//!     let v = i as f64;
//!     data.push_row(&[v, v + 1.0], 0)?;
//!     data.push_row(&[v + 100.0, v + 101.0], 1)?;
//! }
//! let forest = RandomForest::fit(&data, &RandomForestConfig::default().with_seed(7))?;
//! assert_eq!(forest.predict(&[3.0, 4.0]), 0);
//! assert_eq!(forest.predict(&[150.0, 151.0]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod error;
pub mod flat;
mod forest;
mod gbdt;
mod hist;
mod lgbm;
pub mod metrics;
pub mod model_selection;
pub mod parallel;
mod rank;
pub mod stats;
mod tree;

pub use data::{Dataset, SplitSets};
pub use error::FitError;
pub use flat::FlatEnsemble;
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{Gbdt, GbdtConfig};
pub use hist::{BinMapper, BinnedDataset, FeatureHistogram};
pub use lgbm::{LightGbm, LightGbmConfig};
pub use tree::{DecisionTree, TreeConfig};

/// Common interface of every classifier in this crate.
///
/// All models are multiclass: [`Classifier::predict_proba`] returns one
/// probability per class (summing to 1), and [`Classifier::predict`] returns
/// the argmax class index.
pub trait Classifier {
    /// Number of classes the model was trained on.
    fn n_classes(&self) -> usize;

    /// Class-probability vector for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training feature count.
    fn predict_proba(&self, row: &[f64]) -> Vec<f64>;

    /// Predicted class index (argmax of [`Classifier::predict_proba`]).
    fn predict(&self, row: &[f64]) -> usize {
        let proba = self.predict_proba(row);
        argmax(&proba)
    }

    /// Predicts every row of a dataset.
    fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        (0..data.n_rows())
            .map(|i| self.predict(data.row(i)))
            .collect()
    }
}

/// Index of the largest value (first one on ties).
pub(crate) fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_returns_first_max_on_ties() {
        assert_eq!(argmax(&[0.2, 0.5, 0.5]), 1);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[-3.0, -1.0, -2.0]), 1);
    }
}
