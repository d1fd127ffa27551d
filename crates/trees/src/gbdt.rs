//! Second-order gradient-boosted decision trees in the XGBoost style.
//!
//! Each boosting round fits one regression tree per class to the first- and
//! second-order derivatives (grad/hess) of the softmax cross-entropy loss.
//! Split gain and leaf weights follow the XGBoost formulation:
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! leaf  = −G/(H+λ)
//! ```
//!
//! Splits are exact: every feature is rank-encoded once per fit
//! (`RankedColumns`), and a node orders its rows by those ranks instead
//! of sorting values. The per-class trees of one round are fitted on
//! worker threads; sampling is drawn before the fork and results are
//! folded back in class order, so every `n_threads` gives the same model.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::FitError;
use crate::parallel::ordered_map_indexed;
use crate::rank::{nan_first, RankSort, RankedColumns};
use crate::Classifier;

/// Hyperparameters of a [`Gbdt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    /// Boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Shrinkage applied to every leaf (the learning rate η).
    pub learning_rate: f64,
    /// L2 regularisation λ on leaf weights.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian mass per child (akin to `min_child_weight`).
    pub min_child_weight: f64,
    /// Fraction of rows sampled per round (stochastic boosting).
    pub subsample: f64,
    /// Fraction of features considered per tree.
    pub colsample: f64,
    /// Stop boosting after this many rounds without validation-loss
    /// improvement; `None` disables early stopping.
    pub early_stopping_rounds: Option<usize>,
    /// Fraction of rows held out as the validation set when early stopping
    /// is enabled.
    pub validation_fraction: f64,
    /// RNG seed for row/feature subsampling.
    pub seed: u64,
    /// Worker threads fitting one round's per-class trees (1 = sequential).
    /// The fitted model is identical for every thread count.
    pub n_threads: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 60,
            max_depth: 5,
            learning_rate: 0.2,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            early_stopping_rounds: None,
            validation_fraction: 0.15,
            seed: 0,
            n_threads: 4,
        }
    }
}

impl GbdtConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different round count.
    pub fn with_rounds(mut self, n_rounds: usize) -> Self {
        self.n_rounds = n_rounds;
        self
    }
}

/// A fitted gradient-boosted ensemble (XGBoost-style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbdt {
    /// `trees[round][class]`.
    trees: Vec<Vec<RegTree>>,
    n_classes: usize,
    n_features: usize,
    base_score: Vec<f64>,
    learning_rate: f64,
    /// Total split gain accumulated per feature during training.
    gains: Vec<f64>,
}

impl Gbdt {
    /// Fits a boosted ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] for an empty training set and
    /// [`FitError::InvalidConfig`] for invalid hyperparameters.
    pub fn fit(data: &Dataset, config: &GbdtConfig) -> Result<Self, FitError> {
        validate(data, config)?;
        let _span = cordial_obs::span!("xgb_fit");
        let n = data.n_rows();
        let k = data.n_classes();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut gains = vec![0.0f64; data.n_features()];
        let ranked = RankedColumns::new(data);

        // Early-stopping holdout: validation rows never feed tree fitting.
        let (train_rows, val_rows): (Vec<usize>, Vec<usize>) =
            if config.early_stopping_rounds.is_some() {
                let mut all: Vec<usize> = (0..n).collect();
                all.shuffle(&mut rng);
                let cut = (((n as f64) * config.validation_fraction).round() as usize)
                    .clamp(1, n.saturating_sub(1));
                let (val, train) = all.split_at(cut);
                (train.to_vec(), val.to_vec())
            } else {
                ((0..n).collect(), Vec::new())
            };

        // Base score: log prior per class.
        let counts = data.class_counts();
        let base_score: Vec<f64> = counts
            .iter()
            .map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln())
            .collect();

        // Raw scores per row per class.
        let mut scores: Vec<Vec<f64>> = vec![base_score.clone(); n];
        let mut trees: Vec<Vec<RegTree>> = Vec::with_capacity(config.n_rounds);
        let mut best_val_loss = f64::INFINITY;
        let mut best_round = 0usize;
        let mut rounds_since_best = 0usize;

        for _ in 0..config.n_rounds {
            cordial_obs::counter!("trees.boost_rounds").inc();
            // Softmax probabilities.
            let probs: Vec<Vec<f64>> = scores.iter().map(|s| softmax(s)).collect();

            // Row subsample for this round (training rows only).
            let rows: Vec<usize> = if config.subsample < 1.0 {
                let target =
                    (((train_rows.len() as f64) * config.subsample).ceil() as usize).max(1);
                let mut all = train_rows.clone();
                all.shuffle(&mut rng);
                all.truncate(target);
                all
            } else {
                train_rows.clone()
            };

            // Each class's feature sample, drawn before the fork in class
            // order: the RNG stream is the sequential one.
            let class_features: Vec<Vec<usize>> = (0..k)
                .map(|_| {
                    if config.colsample < 1.0 {
                        let target = (((data.n_features() as f64) * config.colsample).ceil()
                            as usize)
                            .max(1);
                        let mut all: Vec<usize> = (0..data.n_features()).collect();
                        all.shuffle(&mut rng);
                        all.truncate(target);
                        all
                    } else {
                        (0..data.n_features()).collect()
                    }
                })
                .collect();

            let fit_class = |class: usize| -> ClassFit {
                cordial_obs::counter!("trees.trees_built").inc();
                let grad_hess: Vec<(f64, f64)> = (0..n)
                    .map(|i| {
                        let p = probs[i][class];
                        let y = f64::from(data.label(i) == class);
                        (p - y, (p * (1.0 - p)).max(1e-16))
                    })
                    .collect();
                let (tree, gains) =
                    RegTree::fit(&ranked, &rows, &grad_hess, &class_features[class], config);
                let preds = (0..n).map(|i| tree.predict(data.row(i))).collect();
                ClassFit { tree, gains, preds }
            };

            // Fold in class order: the same additions, in the same order,
            // as fitting the classes one after another.
            let mut round_trees = Vec::with_capacity(k);
            for (class, fit) in ordered_map_indexed(k, config.n_threads, fit_class)
                .into_iter()
                .enumerate()
            {
                for (score_row, pred) in scores.iter_mut().zip(&fit.preds) {
                    score_row[class] += config.learning_rate * pred;
                }
                for (feature, gain) in fit.gains {
                    gains[feature] += gain;
                }
                round_trees.push(fit.tree);
            }
            trees.push(round_trees);

            // Early stopping on validation log-loss.
            if let Some(patience) = config.early_stopping_rounds {
                let loss: f64 = val_rows
                    .iter()
                    .map(|&i| {
                        let p = softmax(&scores[i])[data.label(i)].max(1e-12);
                        -p.ln()
                    })
                    .sum::<f64>()
                    / val_rows.len().max(1) as f64;
                if loss + 1e-9 < best_val_loss {
                    best_val_loss = loss;
                    best_round = trees.len();
                    rounds_since_best = 0;
                } else {
                    rounds_since_best += 1;
                    if rounds_since_best >= patience {
                        trees.truncate(best_round);
                        break;
                    }
                }
            }
        }

        Ok(Gbdt {
            trees,
            n_classes: k,
            n_features: data.n_features(),
            base_score,
            learning_rate: config.learning_rate,
            gains,
        })
    }

    /// Number of boosting rounds.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    /// Total split gain contributed by each feature, normalised to sum
    /// to 1 (all zeros when no split was ever made).
    pub fn feature_importance(&self) -> Vec<f64> {
        normalise_gains(&self.gains)
    }

    /// Raw (pre-softmax) scores for a row.
    pub fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut scores = self.base_score.clone();
        for round in &self.trees {
            for (class, tree) in round.iter().enumerate() {
                scores[class] += self.learning_rate * tree.predict(row);
            }
        }
        scores
    }

    /// Fitted trees in `[round][class]` order (flat-twin construction).
    pub(crate) fn tree_rounds(&self) -> &[Vec<RegTree>] {
        &self.trees
    }

    /// Per-class raw-score priors (flat-twin construction).
    pub(crate) fn base_scores(&self) -> &[f64] {
        &self.base_score
    }

    /// The fitted learning rate (flat-twin construction).
    pub(crate) fn shrinkage(&self) -> f64 {
        self.learning_rate
    }

    /// Number of input features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for Gbdt {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        softmax(&self.raw_scores(row))
    }
}

fn validate(data: &Dataset, config: &GbdtConfig) -> Result<(), FitError> {
    if data.is_empty() {
        return Err(FitError::EmptyDataset);
    }
    if config.n_rounds == 0 {
        return Err(FitError::InvalidConfig("n_rounds must be >= 1"));
    }
    if config.learning_rate.is_nan() || config.learning_rate <= 0.0 {
        return Err(FitError::InvalidConfig("learning_rate must be positive"));
    }
    if !(config.subsample > 0.0 && config.subsample <= 1.0) {
        return Err(FitError::InvalidConfig("subsample must be in (0, 1]"));
    }
    if !(config.colsample > 0.0 && config.colsample <= 1.0) {
        return Err(FitError::InvalidConfig("colsample must be in (0, 1]"));
    }
    if config.lambda < 0.0 {
        return Err(FitError::InvalidConfig("lambda must be non-negative"));
    }
    if config.early_stopping_rounds.is_some() && data.n_rows() < 2 {
        return Err(FitError::InvalidConfig(
            "early stopping needs at least 2 rows",
        ));
    }
    Ok(())
}

/// One class tree of a boosting round, fitted on a worker.
struct ClassFit {
    tree: RegTree,
    /// `(feature, gain)` per split, in build order.
    gains: Vec<(usize, f64)>,
    /// The tree's output for every row of the dataset.
    preds: Vec<f64>,
}

/// Normalises a gain vector to sum to 1 (zeros stay zeros).
pub(crate) fn normalise_gains(gains: &[f64]) -> Vec<f64> {
    let total: f64 = gains.iter().sum();
    if total <= 0.0 {
        return vec![0.0; gains.len()];
    }
    gains.iter().map(|&g| g / total).collect()
}

pub(crate) fn softmax(scores: &[f64]) -> Vec<f64> {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// A regression tree fitted to grad/hess pairs (XGBoost objective).
///
/// Crate-visible so [`crate::flat::FlatEnsemble`] can flatten fitted trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RegTree {
    pub(crate) nodes: Vec<RegNode>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum RegNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

impl RegTree {
    /// Fits one tree to `rows`. Returns it with its `(feature, gain)`
    /// contributions, one per split in build (depth-first) order.
    fn fit(
        ranked: &RankedColumns,
        rows: &[usize],
        grad_hess: &[(f64, f64)],
        features: &[usize],
        config: &GbdtConfig,
    ) -> (Self, Vec<(usize, f64)>) {
        let mut grow = Grow {
            ranked,
            grad_hess,
            features,
            config,
            sort: RankSort::default(),
            nodes: Vec::new(),
            gains: Vec::new(),
        };
        grow.build(&mut rows.to_vec(), 0);
        (RegTree { nodes: grow.nodes }, grow.gains)
    }

    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                RegNode::Leaf { weight } => return *weight,
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row[*feature];
                    idx = if v.is_nan() || v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// One tree's growth: its inputs, sort buffers, nodes and split gains.
struct Grow<'a> {
    ranked: &'a RankedColumns,
    grad_hess: &'a [(f64, f64)],
    features: &'a [usize],
    config: &'a GbdtConfig,
    sort: RankSort,
    nodes: Vec<RegNode>,
    gains: Vec<(usize, f64)>,
}

impl Grow<'_> {
    fn build(&mut self, rows: &mut [usize], depth: usize) -> usize {
        let grad_hess = self.grad_hess;
        let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + grad_hess[i].0, h + grad_hess[i].1)
        });

        if depth < self.config.max_depth && rows.len() >= 2 {
            if let Some(split) = self.best_split(rows, g_sum, h_sum) {
                let mid = self.ranked.partition(rows, split.feature, split.threshold);
                if mid > 0 && mid < rows.len() {
                    self.gains.push((split.feature, split.gain.max(0.0)));
                    let node_idx = self.nodes.len();
                    self.nodes.push(RegNode::Leaf { weight: 0.0 });
                    let (left_rows, right_rows) = rows.split_at_mut(mid);
                    let left = self.build(left_rows, depth + 1);
                    let right = self.build(right_rows, depth + 1);
                    self.nodes[node_idx] = RegNode::Split {
                        feature: split.feature,
                        threshold: split.threshold,
                        left,
                        right,
                    };
                    return node_idx;
                }
            }
        }

        let weight = -g_sum / (h_sum + self.config.lambda);
        let node_idx = self.nodes.len();
        self.nodes.push(RegNode::Leaf { weight });
        node_idx
    }

    /// The exact best split of `rows`: for each feature, prefix sums in
    /// rank order, a candidate between every two distinct keys.
    fn best_split(&mut self, rows: &[usize], g_sum: f64, h_sum: f64) -> Option<RegSplit> {
        let config = self.config;
        let parent_score = g_sum * g_sum / (h_sum + config.lambda);
        let mut best_gain = 1e-12;
        let mut best = None;
        for &feature in self.features {
            let sorted = self.sort.sort(self.ranked, feature, rows);
            let column = self.ranked.values(feature);

            let mut g_left = 0.0;
            let mut h_left = 0.0;
            for pos in 0..sorted.len() - 1 {
                g_left += self.grad_hess[sorted[pos]].0;
                h_left += self.grad_hess[sorted[pos]].1;
                let (value, next_value) = (
                    nan_first(column[sorted[pos]]),
                    nan_first(column[sorted[pos + 1]]),
                );
                if value == next_value || value == f64::NEG_INFINITY {
                    continue;
                }
                let h_right = h_sum - h_left;
                if h_left < config.min_child_weight || h_right < config.min_child_weight {
                    continue;
                }
                let g_right = g_sum - g_left;
                let gain = 0.5
                    * (g_left * g_left / (h_left + config.lambda)
                        + g_right * g_right / (h_right + config.lambda)
                        - parent_score)
                    - config.gamma;
                if gain > best_gain {
                    best_gain = gain;
                    best = Some(RegSplit {
                        feature,
                        threshold: value + (next_value - value) / 2.0,
                        gain,
                    });
                }
            }
        }
        best
    }
}

struct RegSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// The per-node value sort and scan that [`Grow::best_split`] replaced,
/// kept as the oracle its bit-identity test compares against.
#[cfg(test)]
fn best_split_by_value(
    data: &Dataset,
    rows: &[usize],
    grad_hess: &[(f64, f64)],
    features: &[usize],
    g_sum: f64,
    h_sum: f64,
    config: &GbdtConfig,
) -> Option<RegSplit> {
    let parent_score = g_sum * g_sum / (h_sum + config.lambda);
    let mut best_gain = 1e-12;
    let mut best = None;
    let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
    for &feature in features {
        sorted.clear();
        sorted.extend(rows.iter().map(|&i| {
            let v = data.value(i, feature);
            let key = if v.is_nan() { f64::NEG_INFINITY } else { v };
            (key, grad_hess[i].0, grad_hess[i].1)
        }));
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN mapped to -inf"));

        let mut g_left = 0.0;
        let mut h_left = 0.0;
        for pos in 0..sorted.len() - 1 {
            g_left += sorted[pos].1;
            h_left += sorted[pos].2;
            let (value, next_value) = (sorted[pos].0, sorted[pos + 1].0);
            if value == next_value || value == f64::NEG_INFINITY {
                continue;
            }
            let h_right = h_sum - h_left;
            if h_left < config.min_child_weight || h_right < config.min_child_weight {
                continue;
            }
            let g_right = g_sum - g_left;
            let gain = 0.5
                * (g_left * g_left / (h_left + config.lambda)
                    + g_right * g_right / (h_right + config.lambda)
                    - parent_score)
                - config.gamma;
            if gain > best_gain {
                best_gain = gain;
                best = Some(RegSplit {
                    feature,
                    threshold: value + (next_value - value) / 2.0,
                    gain,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs() -> Dataset {
        let mut data = Dataset::new(2, 3);
        for i in 0..40 {
            let v = (i % 10) as f64 * 0.1;
            data.push_row(&[v, v], 0).unwrap();
            data.push_row(&[5.0 + v, 5.0 + v], 1).unwrap();
            data.push_row(&[10.0 + v, -5.0 - v], 2).unwrap();
        }
        data
    }

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Numerically stable for large scores.
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p[1] > p[0]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn classifies_separable_blobs() {
        let model = Gbdt::fit(&blobs(), &GbdtConfig::default().with_rounds(20)).unwrap();
        assert_eq!(model.predict(&[0.2, 0.2]), 0);
        assert_eq!(model.predict(&[5.2, 5.2]), 1);
        assert_eq!(model.predict(&[10.2, -5.2]), 2);
    }

    #[test]
    fn binary_classification_works() {
        let mut data = Dataset::new(1, 2);
        for i in 0..50 {
            data.push_row(&[i as f64], usize::from(i >= 25)).unwrap();
        }
        let model = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(10)).unwrap();
        assert_eq!(model.predict(&[3.0]), 0);
        assert_eq!(model.predict(&[47.0]), 1);
        let p = model.predict_proba(&[49.0]);
        assert!(p[1] > 0.9);
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let data = blobs();
        let short = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(2)).unwrap();
        let long = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(30)).unwrap();
        let loss = |m: &Gbdt| -> f64 {
            (0..data.n_rows())
                .map(|i| -m.predict_proba(data.row(i))[data.label(i)].max(1e-12).ln())
                .sum::<f64>()
        };
        assert!(loss(&long) < loss(&short));
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs();
        let config = GbdtConfig {
            subsample: 0.8,
            colsample: 0.5,
            ..GbdtConfig::default().with_rounds(5)
        };
        let a = Gbdt::fit(&data, &config.with_seed(7)).unwrap();
        let b = Gbdt::fit(&data, &config.with_seed(7)).unwrap();
        assert_eq!(a, b);
        let c = Gbdt::fit(&data, &config.with_seed(8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_invalid_configs() {
        let data = blobs();
        for config in [
            GbdtConfig::default().with_rounds(0),
            GbdtConfig {
                learning_rate: 0.0,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                subsample: 0.0,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                colsample: 1.5,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                lambda: -1.0,
                ..GbdtConfig::default()
            },
        ] {
            assert!(matches!(
                Gbdt::fit(&data, &config),
                Err(FitError::InvalidConfig(_))
            ));
        }
        assert_eq!(
            Gbdt::fit(&Dataset::new(1, 2), &GbdtConfig::default()),
            Err(FitError::EmptyDataset)
        );
        // A one-row dataset leaves no row to hold out for validation.
        let mut one_row = Dataset::new(1, 2);
        one_row.push_row(&[1.0], 0).unwrap();
        let early = GbdtConfig {
            early_stopping_rounds: Some(3),
            ..GbdtConfig::default()
        };
        assert_eq!(
            Gbdt::fit(&one_row, &early),
            Err(FitError::InvalidConfig(
                "early stopping needs at least 2 rows"
            ))
        );
    }

    #[test]
    fn handles_nan_features() {
        let mut data = Dataset::new(2, 2);
        for i in 0..30 {
            data.push_row(&[f64::NAN, i as f64], 0).unwrap();
            data.push_row(&[1.0, 100.0 + i as f64], 1).unwrap();
        }
        let model = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(10)).unwrap();
        assert_eq!(model.predict(&[f64::NAN, 5.0]), 0);
        assert_eq!(model.predict(&[1.0, 110.0]), 1);
    }

    #[test]
    fn gamma_prunes_low_gain_splits() {
        let data = blobs();
        let loose = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(3)).unwrap();
        let strict = Gbdt::fit(
            &data,
            &GbdtConfig {
                gamma: 1e9,
                ..GbdtConfig::default().with_rounds(3)
            },
        )
        .unwrap();
        // With an enormous gamma no split clears the bar, so predictions
        // collapse to the prior; the loose model must differ.
        let row = &[0.2, 0.2];
        assert_ne!(loose.predict_proba(row), strict.predict_proba(row));
    }

    #[test]
    fn raw_scores_have_one_entry_per_class() {
        let model = Gbdt::fit(&blobs(), &GbdtConfig::default().with_rounds(2)).unwrap();
        assert_eq!(model.raw_scores(&[1.0, 1.0]).len(), 3);
        assert_eq!(model.n_rounds(), 2);
    }

    #[test]
    fn model_is_identical_for_every_thread_count() {
        let data = blobs();
        let base = GbdtConfig {
            subsample: 0.8,
            colsample: 0.5,
            early_stopping_rounds: Some(3),
            n_threads: 1,
            ..GbdtConfig::default().with_rounds(8).with_seed(3)
        };
        let sequential = Gbdt::fit(&data, &base).unwrap();
        for n_threads in [2, 3, 8] {
            let parallel = Gbdt::fit(&data, &GbdtConfig { n_threads, ..base }).unwrap();
            assert_eq!(sequential, parallel, "n_threads={n_threads}");
            assert_eq!(
                sequential.feature_importance(),
                parallel.feature_importance()
            );
        }
    }

    /// Values with NaN, ±0.0, ±∞ and heavy ties.
    const POOL: [f64; 8] = [
        f64::NAN,
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0,
        0.0,
        1.0,
        2.0,
        -3.5,
    ];

    type Node = (Dataset, Vec<(f64, f64)>, Vec<usize>, Vec<usize>);

    /// A dataset, its grad/hess pairs, one node's rows (repeats allowed,
    /// as in bootstrap samples) and the features it may split on.
    fn arb_node() -> impl Strategy<Value = Node> {
        (2usize..200, 1usize..4).prop_flat_map(|(n_rows, n_features)| {
            let value = || {
                prop_oneof![
                    3 => (0usize..POOL.len()).prop_map(|i| POOL[i]),
                    1 => -50.0..50.0f64,
                ]
            };
            let table = prop::collection::vec(prop::collection::vec(value(), n_features), n_rows);
            let grad_hess = prop::collection::vec((-1.0..1.0f64, 0.001..1.0f64), n_rows);
            let rows = prop::collection::vec(0..n_rows, 2..250);
            let features = prop::collection::vec(0..n_features, 1..=n_features);
            (table, grad_hess, rows, features).prop_map(
                move |(table, grad_hess, rows, features)| {
                    let mut data = Dataset::new(n_features, 2);
                    for row in &table {
                        data.push_row(row, 0).unwrap();
                    }
                    (data, grad_hess, rows, features)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn ranked_split_search_matches_the_value_sort(
            (data, grad_hess, rows, features) in arb_node(),
            min_child_weight in prop_oneof![Just(0.0), Just(1.0)],
        ) {
            let config = GbdtConfig { min_child_weight, ..GbdtConfig::default() };
            let ranked = RankedColumns::new(&data);
            let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                (g + grad_hess[i].0, h + grad_hess[i].1)
            });
            let mut grow = Grow {
                ranked: &ranked,
                grad_hess: &grad_hess,
                features: &features,
                config: &config,
                sort: RankSort::default(),
                nodes: Vec::new(),
                gains: Vec::new(),
            };
            let bits = |split: Option<RegSplit>| {
                split.map(|s| (s.feature, s.threshold.to_bits(), s.gain.to_bits()))
            };
            prop_assert_eq!(
                bits(grow.best_split(&rows, g_sum, h_sum)),
                bits(best_split_by_value(&data, &rows, &grad_hess, &features, g_sum, h_sum, &config))
            );
        }
    }
}
