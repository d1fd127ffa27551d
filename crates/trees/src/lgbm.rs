//! Histogram-based, leaf-wise gradient boosting in the LightGBM style.
//!
//! Differences from the depth-wise [`Gbdt`](crate::Gbdt):
//!
//! * feature values are pre-binned into ≤[`MAX_BINS`] quantile bins
//!   ([`BinMapper`]), so split search scans bins instead of sorted values;
//! * trees grow **leaf-wise**: the leaf with the highest split gain anywhere
//!   in the tree is split next, until `max_leaves` is reached.
//!
//! Every tree sees every row and every feature, with L2 regularisation
//! λ = [`LAMBDA`] and at least [`MIN_DATA_IN_LEAF`] rows per leaf.
//!
//! # Performance architecture
//!
//! Training follows the real LightGBM playbook:
//!
//! * the dataset is binned **once** into a shared column-major
//!   [`BinnedDataset`] and reused across every round and class;
//! * every tree node carries its per-feature histograms; when a node
//!   splits, only the **smaller** child is rebuilt by scanning rows — the
//!   larger child is derived in O(bins) with the histogram-subtraction
//!   trick ([`FeatureHistogram::subtracted_from`]);
//! * the per-class trees of one boosting round are fitted on worker
//!   threads, and each worker builds its own histograms.
//!
//! Parallelism never changes the result: a fit draws no random numbers
//! and all reductions run in input order, so any `n_threads` produces a
//! bit-identical model (the same invariant
//! [`RandomForest`](crate::RandomForest) upholds).

use serde::{Deserialize, Serialize, Value};

use crate::data::Dataset;
use crate::error::FitError;
use crate::gbdt::{check_nodes, check_rounds, softmax, softmax_rows};
use crate::hist::{BinMapper, BinnedDataset, FeatureHistogram};
use crate::parallel::ordered_map_indexed;
use crate::Classifier;

/// L2 regularisation λ on leaf weights.
const LAMBDA: f64 = 1.0;

/// Minimum rows per leaf.
const MIN_DATA_IN_LEAF: usize = 5;

/// Maximum finite bins per feature.
const MAX_BINS: usize = 255;

/// Hyperparameters of a [`LightGbm`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightGbmConfig {
    /// Boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Maximum leaves per tree (leaf-wise growth budget).
    pub max_leaves: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Worker threads fitting one round's per-class trees (1 =
    /// sequential). The fitted model is identical for every thread count.
    pub n_threads: usize,
}

impl Default for LightGbmConfig {
    fn default() -> Self {
        Self {
            n_rounds: 60,
            max_leaves: 31,
            learning_rate: 0.2,
            n_threads: 4,
        }
    }
}

impl LightGbmConfig {
    /// Returns the config with a different round count.
    pub fn with_rounds(mut self, n_rounds: usize) -> Self {
        self.n_rounds = n_rounds;
        self
    }

    /// Returns the config with a different worker-thread count.
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }
}

/// A fitted LightGBM-style classifier.
///
/// The JSON form is the derived one; reading it refuses a model a
/// prediction could not finish on, as [`Gbdt`](crate::Gbdt)'s reader
/// does, and a bin mapper that does not cover every feature.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LightGbm {
    mapper: BinMapper,
    /// `trees[round][class]`.
    trees: Vec<Vec<HistTree>>,
    n_classes: usize,
    n_features: usize,
    base_score: Vec<f64>,
    learning_rate: f64,
    /// Total split gain accumulated per feature during training.
    gains: Vec<f64>,
}

impl LightGbm {
    /// Fits a model, binning the dataset once for every round and class.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] for an empty training set and
    /// [`FitError::InvalidConfig`] for invalid hyperparameters.
    pub fn fit(data: &Dataset, config: &LightGbmConfig) -> Result<Self, FitError> {
        validate(data, config)?;
        let binned = BinnedDataset::fit(data, MAX_BINS);
        let _span = cordial_obs::span!("lgbm_fit");

        let n = data.n_rows();
        let k = data.n_classes();
        let n_features = data.n_features();

        let counts = data.class_counts();
        let base_score: Vec<f64> = counts
            .iter()
            .map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln())
            .collect();
        // Raw scores and softmax probabilities, `k` per row.
        let mut scores = base_score.repeat(n);
        let mut probs = vec![0.0; n * k];
        let mut trees: Vec<Vec<HistTree>> = Vec::with_capacity(config.n_rounds);
        let mut gains = vec![0.0f64; n_features];

        let labels: Vec<usize> = (0..n).map(|i| data.label(i)).collect();

        for _ in 0..config.n_rounds {
            cordial_obs::counter!("trees.boost_rounds").inc();
            softmax_rows(&scores, &mut probs, k);
            let probs = &probs;

            let fit_class = |class: usize| -> ClassFit {
                cordial_obs::counter!("trees.trees_built").inc();
                let grad_hess: Vec<(f64, f64)> = (0..n)
                    .map(|i| {
                        let p = probs[i * k + class];
                        let y = f64::from(labels[i] == class);
                        (p - y, (p * (1.0 - p)).max(1e-16))
                    })
                    .collect();
                let (tree, tree_gains, preds) = HistTree::fit(&binned, &grad_hess, config);
                ClassFit {
                    tree,
                    gains: tree_gains,
                    preds,
                }
            };

            let fitted: Vec<ClassFit> = ordered_map_indexed(k, config.n_threads, fit_class);

            let mut round_trees = Vec::with_capacity(k);
            for (class, fit) in fitted.into_iter().enumerate() {
                for (score_row, pred) in scores.chunks_exact_mut(k).zip(&fit.preds) {
                    score_row[class] += config.learning_rate * pred;
                }
                for (total, delta) in gains.iter_mut().zip(&fit.gains) {
                    *total += delta;
                }
                round_trees.push(fit.tree);
            }
            trees.push(round_trees);
        }

        Ok(LightGbm {
            mapper: binned.mapper().clone(),
            trees,
            n_classes: k,
            n_features,
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
        crate::gbdt::normalise_gains(&self.gains)
    }

    /// Raw (pre-softmax) scores for one row.
    pub fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let bin_row = self.mapper.bin_row(row);
        let mut scores = self.base_score.clone();
        for round in &self.trees {
            for (class, tree) in round.iter().enumerate() {
                scores[class] += self.learning_rate * tree.predict_binned(&bin_row);
            }
        }
        scores
    }

    /// The fitted quantile bin mapper (flat-twin construction).
    pub(crate) fn bin_mapper(&self) -> &BinMapper {
        &self.mapper
    }

    /// Fitted trees in `[round][class]` order (flat-twin construction).
    pub(crate) fn tree_rounds(&self) -> &[Vec<HistTree>] {
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

impl<'de> Deserialize<'de> for LightGbm {
    /// Reads the JSON the derived [`Serialize`] writes and refuses a model
    /// a prediction could not finish on (see [`LightGbm`]).
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let model = LightGbm {
            mapper: serde::de_field(value, "mapper")?,
            trees: serde::de_field(value, "trees")?,
            n_classes: serde::de_field(value, "n_classes")?,
            n_features: serde::de_field(value, "n_features")?,
            base_score: serde::de_field(value, "base_score")?,
            learning_rate: serde::de_field(value, "learning_rate")?,
            gains: serde::de_field(value, "gains")?,
        };
        if model.mapper.n_features() != model.n_features {
            return Err(serde::Error::custom(format!(
                "bin mapper covers {} features, model has {}",
                model.mapper.n_features(),
                model.n_features
            )));
        }
        check_rounds(
            &model.trees,
            model.n_classes,
            model.n_features,
            &model.base_score,
            &model.gains,
            |tree| {
                check_nodes(&tree.nodes, model.n_features, |node| match *node {
                    HistNode::Leaf { .. } => None,
                    HistNode::Split {
                        feature,
                        left,
                        right,
                        ..
                    } => Some((feature, [left, right])),
                })
            },
        )?;
        Ok(model)
    }
}

fn validate(data: &Dataset, config: &LightGbmConfig) -> Result<(), FitError> {
    if data.is_empty() {
        return Err(FitError::EmptyDataset);
    }
    if config.n_rounds == 0 {
        return Err(FitError::InvalidConfig("n_rounds must be >= 1"));
    }
    if config.max_leaves < 2 {
        return Err(FitError::InvalidConfig("max_leaves must be >= 2"));
    }
    if config.learning_rate.is_nan() || config.learning_rate <= 0.0 {
        return Err(FitError::InvalidConfig("learning_rate must be positive"));
    }
    Ok(())
}

/// One fitted class tree of a boosting round, with everything the
/// sequential reduction needs to fold it back in deterministically.
struct ClassFit {
    tree: HistTree,
    /// Per-feature split gain accumulated by this tree.
    gains: Vec<f64>,
    /// This tree's raw prediction for every training row, as its leaves
    /// wrote it.
    preds: Vec<f64>,
}

impl Classifier for LightGbm {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        softmax(&self.raw_scores(row))
    }
}

/// A regression tree over binned features, grown leaf-wise.
///
/// Crate-visible so [`crate::flat::FlatEnsemble`] can flatten fitted trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct HistTree {
    pub(crate) nodes: Vec<HistNode>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum HistNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        /// Rows with `bin <= bin_threshold` go left (missing bin 0 included).
        bin_threshold: u16,
        left: usize,
        right: usize,
    },
}

/// A grow-able leaf during leaf-wise construction. Carries one histogram
/// per feature so children can be derived by subtraction instead of
/// rescanned.
struct GrowLeaf {
    node_idx: usize,
    rows: Vec<usize>,
    g_sum: f64,
    h_sum: f64,
    hists: Vec<FeatureHistogram>,
    best: Option<LeafSplit>,
}

#[derive(Clone, Copy)]
struct LeafSplit {
    feature: usize,
    bin_threshold: u16,
    gain: f64,
}

/// Builds the per-feature histograms of one node by scanning its rows over
/// the column-major bins: the O(rows × features) kernel of split search.
fn build_hists(
    binned: &BinnedDataset,
    rows: &[usize],
    grad_hess: &[(f64, f64)],
) -> Vec<FeatureHistogram> {
    let n_features = binned.n_features();
    cordial_obs::counter!("trees.histogram_builds").add(n_features as u64);
    (0..n_features)
        .map(|feature| {
            let col = binned.column(feature);
            let mut hist = FeatureHistogram::zeros(binned.n_bins(feature));
            for &r in rows {
                let (g, h) = grad_hess[r];
                hist.add(col[r], g, h);
            }
            hist
        })
        .collect()
}

impl HistTree {
    /// Grows one leaf-wise tree, returning it together with the
    /// per-feature split gain it accumulated and its output for every row.
    fn fit(
        binned: &BinnedDataset,
        grad_hess: &[(f64, f64)],
        config: &LightGbmConfig,
    ) -> (Self, Vec<f64>, Vec<f64>) {
        let mut tree = HistTree { nodes: Vec::new() };
        let mut gains = vec![0.0f64; binned.n_features()];
        let rows: Vec<usize> = (0..binned.n_rows()).collect();
        let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + grad_hess[i].0, h + grad_hess[i].1)
        });
        tree.nodes.push(HistNode::Leaf {
            weight: -g_sum / (h_sum + LAMBDA),
        });

        let root_hists = build_hists(binned, &rows, grad_hess);
        let mut leaves = vec![GrowLeaf {
            node_idx: 0,
            rows,
            g_sum,
            h_sum,
            hists: root_hists,
            best: None,
        }];
        leaves[0].best = best_split(&leaves[0]);

        let mut n_leaves = 1;
        while n_leaves < config.max_leaves {
            // Pick the growable leaf with the highest gain.
            let Some(pick) = leaves
                .iter()
                .enumerate()
                .filter(|(_, l)| l.best.is_some())
                .max_by(|a, b| {
                    let ga = a.1.best.expect("filtered").gain;
                    let gb = b.1.best.expect("filtered").gain;
                    ga.partial_cmp(&gb).expect("gains are finite")
                })
                .map(|(i, _)| i)
            else {
                break;
            };

            let leaf = leaves.swap_remove(pick);
            let split = leaf.best.expect("picked leaf has a split");
            gains[split.feature] += split.gain.max(0.0);

            // Partition rows by bin threshold (contiguous column scan).
            let column = binned.column(split.feature);
            let mut left_rows = Vec::new();
            let mut right_rows = Vec::new();
            for &r in &leaf.rows {
                if column[r] <= split.bin_threshold {
                    left_rows.push(r);
                } else {
                    right_rows.push(r);
                }
            }
            let fold = |rows: &[usize]| -> (f64, f64) {
                rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                    (g + grad_hess[i].0, h + grad_hess[i].1)
                })
            };
            let (gl, hl) = fold(&left_rows);
            let (gr, hr) = (leaf.g_sum - gl, leaf.h_sum - hl);

            // Histogram subtraction: scan only the smaller child, derive
            // the larger one from the parent in O(bins).
            let scan_left = left_rows.len() <= right_rows.len();
            let scan_rows = if scan_left { &left_rows } else { &right_rows };
            let scanned = build_hists(binned, scan_rows, grad_hess);
            let derived: Vec<FeatureHistogram> = scanned
                .iter()
                .zip(&leaf.hists)
                .map(|(child, parent)| child.subtracted_from(parent))
                .collect();
            let (left_hists, right_hists) = if scan_left {
                (scanned, derived)
            } else {
                (derived, scanned)
            };

            let left_idx = tree.nodes.len();
            tree.nodes.push(HistNode::Leaf {
                weight: -gl / (hl + LAMBDA),
            });
            let right_idx = tree.nodes.len();
            tree.nodes.push(HistNode::Leaf {
                weight: -gr / (hr + LAMBDA),
            });
            tree.nodes[leaf.node_idx] = HistNode::Split {
                feature: split.feature,
                bin_threshold: split.bin_threshold,
                left: left_idx,
                right: right_idx,
            };
            n_leaves += 1;

            let mut left_leaf = GrowLeaf {
                node_idx: left_idx,
                rows: left_rows,
                g_sum: gl,
                h_sum: hl,
                hists: left_hists,
                best: None,
            };
            left_leaf.best = best_split(&left_leaf);
            let mut right_leaf = GrowLeaf {
                node_idx: right_idx,
                rows: right_rows,
                g_sum: gr,
                h_sum: hr,
                hists: right_hists,
                best: None,
            };
            right_leaf.best = best_split(&right_leaf);
            leaves.push(left_leaf);
            leaves.push(right_leaf);
        }

        // Each row's output is the weight of the leaf that holds it: the
        // leaf `predict_binned` reaches, since both route by `<=` on bins.
        let mut outputs = vec![0.0; binned.n_rows()];
        for leaf in &leaves {
            let weight = -leaf.g_sum / (leaf.h_sum + LAMBDA);
            for &row in &leaf.rows {
                outputs[row] = weight;
            }
        }
        (tree, gains, outputs)
    }

    pub(crate) fn predict_binned(&self, bin_row: &[u16]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                HistNode::Leaf { weight } => return *weight,
                HistNode::Split {
                    feature,
                    bin_threshold,
                    left,
                    right,
                } => {
                    idx = if bin_row[*feature] <= *bin_threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Scans the leaf's cached histograms for the best split. Features are
/// visited in index order and bins in ascending order with a
/// strictly-greater comparison, so the selected split does not depend on
/// how the histograms were produced (direct scan or subtraction sibling).
fn best_split(leaf: &GrowLeaf) -> Option<LeafSplit> {
    if leaf.rows.len() < 2 * MIN_DATA_IN_LEAF {
        return None;
    }
    let parent_score = leaf.g_sum * leaf.g_sum / (leaf.h_sum + LAMBDA);
    let mut best: Option<LeafSplit> = None;
    for (feature, hist) in leaf.hists.iter().enumerate() {
        let n_bins = hist.grad.len();
        let mut g_left = 0.0;
        let mut h_left = 0.0;
        let mut count_left: u32 = 0;
        for bin in 0..n_bins.saturating_sub(1) {
            g_left += hist.grad[bin];
            h_left += hist.hess[bin];
            count_left += hist.count[bin];
            if count_left == 0 {
                continue;
            }
            let count_right = leaf.rows.len() as u32 - count_left;
            if (count_left as usize) < MIN_DATA_IN_LEAF || (count_right as usize) < MIN_DATA_IN_LEAF
            {
                continue;
            }
            let g_right = leaf.g_sum - g_left;
            let h_right = leaf.h_sum - h_left;
            let gain = 0.5
                * (g_left * g_left / (h_left + LAMBDA) + g_right * g_right / (h_right + LAMBDA)
                    - parent_score);
            if gain > best.as_ref().map_or(1e-12, |b| b.gain) {
                best = Some(LeafSplit {
                    feature,
                    bin_threshold: bin as u16,
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
    fn classifies_separable_blobs() {
        let model = LightGbm::fit(&blobs(), &LightGbmConfig::default().with_rounds(20)).unwrap();
        assert_eq!(model.predict(&[0.2, 0.2]), 0);
        assert_eq!(model.predict(&[5.2, 5.2]), 1);
        assert_eq!(model.predict(&[10.2, -5.2]), 2);
    }

    #[test]
    fn binary_classification_works() {
        let mut data = Dataset::new(1, 2);
        for i in 0..60 {
            data.push_row(&[i as f64], usize::from(i >= 30)).unwrap();
        }
        let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(10)).unwrap();
        assert_eq!(model.predict(&[2.0]), 0);
        assert_eq!(model.predict(&[55.0]), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let model = LightGbm::fit(&blobs(), &LightGbmConfig::default().with_rounds(5)).unwrap();
        let p = model.predict_proba(&[3.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_leaves_bounds_tree_size() {
        let config = LightGbmConfig {
            max_leaves: 2,
            ..LightGbmConfig::default().with_rounds(1)
        };
        let model = LightGbm::fit(&blobs(), &config).unwrap();
        // A 2-leaf tree has exactly 3 nodes (1 split + 2 leaves).
        assert!(model.trees[0][0].nodes.len() <= 3);
    }

    #[test]
    fn thread_count_does_not_change_the_model() {
        // The parallel fit must be bit-identical to the sequential one,
        // because reductions run in input order.
        let data = blobs();
        let base = LightGbmConfig::default().with_rounds(6);
        let sequential = LightGbm::fit(&data, &base.with_threads(1)).unwrap();
        for n_threads in [2, 4, 8] {
            let parallel = LightGbm::fit(&data, &base.with_threads(n_threads)).unwrap();
            assert_eq!(sequential, parallel, "n_threads={n_threads}");
        }
    }

    #[test]
    fn handles_nan_features() {
        let mut data = Dataset::new(2, 2);
        for i in 0..30 {
            data.push_row(&[f64::NAN, i as f64], 0).unwrap();
            data.push_row(&[1.0, 100.0 + i as f64], 1).unwrap();
        }
        let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(10)).unwrap();
        assert_eq!(model.predict(&[f64::NAN, 5.0]), 0);
        assert_eq!(model.predict(&[1.0, 120.0]), 1);
    }

    #[test]
    fn rejects_invalid_configs() {
        let data = blobs();
        for config in [
            LightGbmConfig::default().with_rounds(0),
            LightGbmConfig {
                max_leaves: 1,
                ..LightGbmConfig::default()
            },
            LightGbmConfig {
                learning_rate: -1.0,
                ..LightGbmConfig::default()
            },
        ] {
            assert!(matches!(
                LightGbm::fit(&data, &config),
                Err(FitError::InvalidConfig(_))
            ));
        }
        assert_eq!(
            LightGbm::fit(&Dataset::new(1, 2), &LightGbmConfig::default()),
            Err(FitError::EmptyDataset)
        );
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let data = blobs();
        let short = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(2)).unwrap();
        let long = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(25)).unwrap();
        let loss = |m: &LightGbm| -> f64 {
            (0..data.n_rows())
                .map(|i| -m.predict_proba(data.row(i))[data.label(i)].max(1e-12).ln())
                .sum::<f64>()
        };
        assert!(loss(&long) < loss(&short));
    }
}
