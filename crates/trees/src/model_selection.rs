//! Model selection: k-fold cross-validation and grid evaluation.
//!
//! Small utilities the Cordial pipeline (and any other consumer) can use to
//! pick hyperparameters honestly instead of eyeballing a single split.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::Dataset;
use crate::error::FitError;
use crate::Classifier;

/// Produces `k` (train, test) index splits covering every row exactly once
/// as a test row. Rows are shuffled deterministically by `seed`.
///
/// # Panics
///
/// Panics if `k < 2` or `k > n_rows`.
pub fn kfold(n_rows: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    assert!(
        k <= n_rows,
        "k ({k}) must not exceed the row count ({n_rows})"
    );
    let mut order: Vec<usize> = (0..n_rows).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));

    let mut folds = Vec::with_capacity(k);
    let base = n_rows / k;
    let extra = n_rows % k;
    let mut start = 0;
    for fold in 0..k {
        let len = base + usize::from(fold < extra);
        let test: Vec<usize> = order[start..start + len].to_vec();
        let train: Vec<usize> = order[..start]
            .iter()
            .chain(&order[start + len..])
            .copied()
            .collect();
        folds.push((train, test));
        start += len;
    }
    folds
}

/// Mean test accuracy of `fit` across `k` folds.
///
/// `fit` receives the training sub-dataset of each fold; its model is
/// scored on the held-out rows.
///
/// # Errors
///
/// Propagates the first fold's fit error.
pub fn cross_val_accuracy<M, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    mut fit: F,
) -> Result<f64, FitError>
where
    M: Classifier,
    F: FnMut(&Dataset) -> Result<M, FitError>,
{
    let folds = kfold(data.n_rows(), k, seed);
    let mut total_correct = 0usize;
    let mut total_rows = 0usize;
    for (train_idx, test_idx) in folds {
        let train = data.select(&train_idx);
        let model = fit(&train)?;
        for &i in &test_idx {
            total_rows += 1;
            if model.predict(data.row(i)) == data.label(i) {
                total_correct += 1;
            }
        }
    }
    Ok(total_correct as f64 / total_rows.max(1) as f64)
}

/// Evaluates a grid of candidate configurations by cross-validated
/// accuracy, returning `(best index, per-candidate scores)`.
///
/// # Errors
///
/// Propagates fit errors; fails on an empty grid.
pub fn grid_search<M, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    candidates: usize,
    mut fit: F,
) -> Result<(usize, Vec<f64>), FitError>
where
    M: Classifier,
    F: FnMut(usize, &Dataset) -> Result<M, FitError>,
{
    if candidates == 0 {
        return Err(FitError::InvalidConfig("grid_search needs candidates"));
    }
    let mut scores = Vec::with_capacity(candidates);
    for candidate in 0..candidates {
        let score = cross_val_accuracy(data, k, seed, |train| fit(candidate, train))?;
        scores.push(score);
    }
    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("accuracies are finite"))
        .map(|(i, _)| i)
        .expect("non-empty grid");
    Ok((best, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{RandomForest, RandomForestConfig};
    use crate::tree::{DecisionTree, TreeConfig};

    fn blobs() -> Dataset {
        let mut data = Dataset::new(2, 2);
        for i in 0..60 {
            let v = (i % 12) as f64;
            data.push_row(&[v, v], 0).unwrap();
            data.push_row(&[50.0 + v, 50.0 + v], 1).unwrap();
        }
        data
    }

    #[test]
    fn kfold_covers_every_row_exactly_once() {
        let folds = kfold(23, 5, 1);
        assert_eq!(folds.len(), 5);
        let mut all_test: Vec<usize> = folds.iter().flat_map(|(_, t)| t.clone()).collect();
        all_test.sort_unstable();
        assert_eq!(all_test, (0..23).collect::<Vec<_>>());
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 23);
            for i in test {
                assert!(!train.contains(i));
            }
        }
    }

    #[test]
    fn kfold_is_deterministic_per_seed() {
        assert_eq!(kfold(20, 4, 7), kfold(20, 4, 7));
        assert_ne!(kfold(20, 4, 7), kfold(20, 4, 8));
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn kfold_rejects_single_fold() {
        kfold(10, 1, 0);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn kfold_rejects_more_folds_than_rows() {
        kfold(3, 5, 0);
    }

    #[test]
    fn cross_validation_scores_separable_data_highly() {
        let data = blobs();
        let accuracy = cross_val_accuracy(&data, 5, 3, |train| {
            DecisionTree::fit(train, &TreeConfig::default())
        })
        .unwrap();
        assert!(accuracy > 0.95, "accuracy {accuracy}");
    }

    #[test]
    fn grid_search_prefers_reasonable_depths() {
        let data = blobs();
        // Candidate 0: depth 0 (stump cannot split) — candidate 1: depth 8.
        let depths = [0usize, 8];
        let (best, scores) = grid_search(&data, 4, 5, depths.len(), |candidate, train| {
            RandomForest::fit(
                train,
                &RandomForestConfig {
                    n_trees: 5,
                    max_depth: depths[candidate],
                    ..RandomForestConfig::default()
                },
            )
        })
        .unwrap();
        assert_eq!(best, 1, "scores: {scores:?}");
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn empty_grid_is_an_error() {
        let data = blobs();
        let result = grid_search(&data, 3, 0, 0, |_, train| {
            DecisionTree::fit(train, &TreeConfig::default())
        });
        assert!(result.is_err());
    }
}
