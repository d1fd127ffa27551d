//! Histogram-based, leaf-wise gradient boosting in the LightGBM style.
//!
//! Differences from the depth-wise [`Gbdt`](crate::Gbdt):
//!
//! * feature values are pre-binned into ≤`max_bins` quantile bins
//!   ([`BinMapper`]), so split search scans bins instead of sorted values;
//! * trees grow **leaf-wise**: the leaf with the highest split gain anywhere
//!   in the tree is split next, until `max_leaves` is reached.
//!
//! # Performance architecture
//!
//! Training follows the real LightGBM playbook:
//!
//! * the dataset is binned **once** into a shared column-major
//!   [`BinnedDataset`] and reused across every round and class (and across
//!   fits, via [`LightGbm::fit_prebinned`]);
//! * every tree node carries its per-feature histograms; when a node
//!   splits, only the **smaller** child is rebuilt by scanning rows — the
//!   larger child is derived in O(bins) with the histogram-subtraction
//!   trick ([`FeatureHistogram::subtracted_from`]);
//! * the per-class trees of one boosting round are fitted on worker
//!   threads, and large histogram builds are split across features.
//!
//! Parallelism never changes the result: GOSS/colsample seeds are derived
//! per `(round, class)` up front and all reductions run in input order, so
//! any `n_threads` produces a bit-identical model (the same invariant
//! [`RandomForest`](crate::RandomForest) upholds).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::error::FitError;
use crate::gbdt::softmax;
use crate::hist::{BinMapper, BinnedDataset, FeatureHistogram};
use crate::parallel::{ordered_map, ordered_map_indexed};
use crate::Classifier;

/// Hyperparameters of a [`LightGbm`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightGbmConfig {
    /// Boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Maximum leaves per tree (leaf-wise growth budget).
    pub max_leaves: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// L2 regularisation λ on leaf weights.
    pub lambda: f64,
    /// Minimum rows per leaf.
    pub min_data_in_leaf: usize,
    /// Maximum finite bins per feature.
    pub max_bins: usize,
    /// Fraction of features considered per tree.
    pub colsample: f64,
    /// GOSS (gradient-based one-side sampling) top rate `a`: the fraction
    /// of rows with the largest |gradient| always kept. 0 disables GOSS.
    pub goss_top_rate: f64,
    /// GOSS other rate `b`: the fraction of remaining rows sampled, with
    /// their gradients up-weighted by `(1 - a) / b`.
    pub goss_other_rate: f64,
    /// RNG seed for feature subsampling and GOSS.
    pub seed: u64,
    /// Worker threads used while fitting (1 = sequential). The fitted
    /// model is identical for every thread count.
    pub n_threads: usize,
}

impl Default for LightGbmConfig {
    fn default() -> Self {
        Self {
            n_rounds: 60,
            max_leaves: 31,
            learning_rate: 0.2,
            lambda: 1.0,
            min_data_in_leaf: 5,
            max_bins: 255,
            colsample: 1.0,
            goss_top_rate: 0.0,
            goss_other_rate: 0.1,
            seed: 0,
            n_threads: 4,
        }
    }
}

impl LightGbmConfig {
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

    /// Returns the config with a different worker-thread count.
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }
}

/// A fitted LightGBM-style classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Fits a model.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] for an empty training set and
    /// [`FitError::InvalidConfig`] for invalid hyperparameters.
    pub fn fit(data: &Dataset, config: &LightGbmConfig) -> Result<Self, FitError> {
        validate(data, config)?;
        let binned = BinnedDataset::fit(data, config.max_bins);
        Self::fit_prebinned(data, &binned, config)
    }

    /// Fits a model on a dataset binned up front with [`BinnedDataset::fit`]
    /// (or [`BinnedDataset::with_mapper`]), skipping the quantile fit and
    /// the dataset scan — the dominant fixed cost when the same dataset is
    /// fitted repeatedly (seed sweeps, multi-stage pipelines, benchmarks).
    ///
    /// `config.max_bins` is not consulted: the binning of `binned` governs.
    ///
    /// # Errors
    ///
    /// As [`LightGbm::fit`], plus [`FitError::InvalidConfig`] when the
    /// shape of `binned` does not match `data`.
    pub fn fit_prebinned(
        data: &Dataset,
        binned: &BinnedDataset,
        config: &LightGbmConfig,
    ) -> Result<Self, FitError> {
        validate(data, config)?;
        if binned.n_rows() != data.n_rows() || binned.n_features() != data.n_features() {
            return Err(FitError::InvalidConfig(
                "pre-binned dataset shape does not match the raw dataset",
            ));
        }
        let _span = cordial_obs::span!("lgbm_fit");

        let n = data.n_rows();
        let k = data.n_classes();
        let n_features = data.n_features();

        let counts = data.class_counts();
        let base_score: Vec<f64> = counts
            .iter()
            .map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln())
            .collect();
        let mut scores: Vec<Vec<f64>> = vec![base_score.clone(); n];
        let mut trees: Vec<Vec<HistTree>> = Vec::with_capacity(config.n_rounds);
        let mut gains = vec![0.0f64; n_features];

        // Derive every (round, class) sampling seed up front: each class
        // tree then owns an independent RNG, so the trees of one round can
        // be fitted on worker threads without changing the model.
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let class_seeds: Vec<Vec<u64>> = (0..config.n_rounds)
            .map(|_| (0..k).map(|_| seed_rng.gen()).collect())
            .collect();

        let labels: Vec<usize> = (0..n).map(|i| data.label(i)).collect();

        for round_seeds in &class_seeds {
            cordial_obs::counter!("trees.boost_rounds").inc();
            let probs: Vec<Vec<f64>> = scores.iter().map(|s| softmax(s)).collect();

            let fit_class = |class: usize| -> ClassFit {
                cordial_obs::counter!("trees.trees_built").inc();
                let mut rng = StdRng::seed_from_u64(round_seeds[class]);
                let mut grad_hess: Vec<(f64, f64)> = (0..n)
                    .map(|i| {
                        let p = probs[i][class];
                        let y = f64::from(labels[i] == class);
                        (p - y, (p * (1.0 - p)).max(1e-16))
                    })
                    .collect();
                let tree_rows = goss_rows(&mut grad_hess, config, &mut rng);
                let features = sampled_features(n_features, config, &mut rng);
                let (tree, tree_gains) =
                    HistTree::fit(binned, &grad_hess, &tree_rows, &features, config);
                let preds: Vec<f64> = (0..n).map(|i| tree.predict_binned(binned.row(i))).collect();
                ClassFit {
                    tree,
                    gains: tree_gains,
                    preds,
                }
            };

            let fitted: Vec<ClassFit> = ordered_map_indexed(k, config.n_threads, fit_class);

            let mut round_trees = Vec::with_capacity(k);
            for (class, fit) in fitted.into_iter().enumerate() {
                for (score_row, pred) in scores.iter_mut().zip(&fit.preds) {
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
    if config.max_bins < 2 {
        return Err(FitError::InvalidConfig("max_bins must be >= 2"));
    }
    if !(config.colsample > 0.0 && config.colsample <= 1.0) {
        return Err(FitError::InvalidConfig("colsample must be in (0, 1]"));
    }
    if !(0.0..1.0).contains(&config.goss_top_rate) {
        return Err(FitError::InvalidConfig("goss_top_rate must be in [0, 1)"));
    }
    if config.goss_top_rate > 0.0
        && !(config.goss_other_rate > 0.0 && config.goss_top_rate + config.goss_other_rate <= 1.0)
    {
        return Err(FitError::InvalidConfig(
            "goss_other_rate must be positive with a + b <= 1",
        ));
    }
    Ok(())
}

/// One fitted class tree of a boosting round, with everything the
/// sequential reduction needs to fold it back in deterministically.
struct ClassFit {
    tree: HistTree,
    /// Per-feature split gain accumulated by this tree.
    gains: Vec<f64>,
    /// This tree's raw prediction for every training row.
    preds: Vec<f64>,
}

/// GOSS: keep the large-gradient rows, sample and up-weight a fraction of
/// the rest, and drop the remainder from this tree. Returns the rows the
/// tree trains on; without GOSS, all rows.
fn goss_rows(
    grad_hess: &mut [(f64, f64)],
    config: &LightGbmConfig,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = grad_hess.len();
    if config.goss_top_rate <= 0.0 {
        return (0..n).collect();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        grad_hess[b]
            .0
            .abs()
            .partial_cmp(&grad_hess[a].0.abs())
            .expect("gradients are finite")
    });
    let top = (((n as f64) * config.goss_top_rate).ceil() as usize).min(n);
    let rest = &order[top..];
    let keep_rest = (((n as f64) * config.goss_other_rate).ceil() as usize).min(rest.len());
    let mut rest: Vec<usize> = rest.to_vec();
    rest.shuffle(rng);
    rest.truncate(keep_rest);
    let amplify = (1.0 - config.goss_top_rate) / config.goss_other_rate.max(f64::MIN_POSITIVE);
    for &i in &rest {
        grad_hess[i].0 *= amplify;
        grad_hess[i].1 *= amplify;
    }
    let mut rows: Vec<usize> = order[..top].to_vec();
    rows.extend(rest);
    rows
}

/// Column subsampling: the feature subset this tree may split on.
fn sampled_features(n_features: usize, config: &LightGbmConfig, rng: &mut StdRng) -> Vec<usize> {
    if config.colsample >= 1.0 {
        return (0..n_features).collect();
    }
    let target = (((n_features as f64) * config.colsample).ceil() as usize).max(1);
    let mut all: Vec<usize> = (0..n_features).collect();
    all.shuffle(rng);
    all.truncate(target);
    all
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

/// A grow-able leaf during leaf-wise construction. Carries its per-feature
/// histograms (indexed like the tree's `features` subset) so children can
/// be derived by subtraction instead of rescanned.
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

/// Minimum `rows × features` product before a histogram build fans out to
/// worker threads; below this the spawn overhead dominates the scan.
const PARALLEL_HIST_WORK: usize = 1 << 14;

/// Builds the per-feature histograms of one node by scanning its rows over
/// the column-major bins — the O(rows × features) kernel of split search,
/// split across features when the node is large enough. Per-feature
/// arithmetic is independent, so the result is thread-count invariant.
fn build_hists(
    binned: &BinnedDataset,
    rows: &[usize],
    features: &[usize],
    grad_hess: &[(f64, f64)],
    n_threads: usize,
) -> Vec<FeatureHistogram> {
    let threads = if rows.len().saturating_mul(features.len()) >= PARALLEL_HIST_WORK {
        n_threads
    } else {
        1
    };
    cordial_obs::counter!("trees.histogram_builds").add(features.len() as u64);
    ordered_map(features, threads, |&feature| {
        let col = binned.column(feature);
        let mut hist = FeatureHistogram::zeros(binned.n_bins(feature));
        for &r in rows {
            let (g, h) = grad_hess[r];
            hist.add(col[r], g, h);
        }
        hist
    })
}

impl HistTree {
    /// Grows one leaf-wise tree, returning it together with the
    /// per-feature split gain it accumulated.
    fn fit(
        binned: &BinnedDataset,
        grad_hess: &[(f64, f64)],
        rows: &[usize],
        features: &[usize],
        config: &LightGbmConfig,
    ) -> (Self, Vec<f64>) {
        let mut tree = HistTree { nodes: Vec::new() };
        let mut gains = vec![0.0f64; binned.n_features()];
        let rows: Vec<usize> = rows.to_vec();
        let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
            (g + grad_hess[i].0, h + grad_hess[i].1)
        });
        tree.nodes.push(HistNode::Leaf {
            weight: -g_sum / (h_sum + config.lambda),
        });

        let root_hists = build_hists(binned, &rows, features, grad_hess, config.n_threads);
        let mut leaves = vec![GrowLeaf {
            node_idx: 0,
            rows,
            g_sum,
            h_sum,
            hists: root_hists,
            best: None,
        }];
        leaves[0].best = best_split(&leaves[0], features, config);

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
            let scanned = build_hists(binned, scan_rows, features, grad_hess, config.n_threads);
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
                weight: -gl / (hl + config.lambda),
            });
            let right_idx = tree.nodes.len();
            tree.nodes.push(HistNode::Leaf {
                weight: -gr / (hr + config.lambda),
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
            left_leaf.best = best_split(&left_leaf, features, config);
            let mut right_leaf = GrowLeaf {
                node_idx: right_idx,
                rows: right_rows,
                g_sum: gr,
                h_sum: hr,
                hists: right_hists,
                best: None,
            };
            right_leaf.best = best_split(&right_leaf, features, config);
            leaves.push(left_leaf);
            leaves.push(right_leaf);
        }

        (tree, gains)
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
/// visited in subset order and bins in ascending order with a
/// strictly-greater comparison, so the selected split does not depend on
/// how the histograms were produced (direct scan or subtraction sibling,
/// sequential or parallel build).
fn best_split(leaf: &GrowLeaf, features: &[usize], config: &LightGbmConfig) -> Option<LeafSplit> {
    if leaf.rows.len() < 2 * config.min_data_in_leaf {
        return None;
    }
    let parent_score = leaf.g_sum * leaf.g_sum / (leaf.h_sum + config.lambda);
    let mut best: Option<LeafSplit> = None;
    for (slot, &feature) in features.iter().enumerate() {
        let hist = &leaf.hists[slot];
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
            if (count_left as usize) < config.min_data_in_leaf
                || (count_right as usize) < config.min_data_in_leaf
            {
                continue;
            }
            let g_right = leaf.g_sum - g_left;
            let h_right = leaf.h_sum - h_left;
            let gain = 0.5
                * (g_left * g_left / (h_left + config.lambda)
                    + g_right * g_right / (h_right + config.lambda)
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
            min_data_in_leaf: 1,
            ..LightGbmConfig::default().with_rounds(1)
        };
        let model = LightGbm::fit(&blobs(), &config).unwrap();
        // A 2-leaf tree has exactly 3 nodes (1 split + 2 leaves).
        assert!(model.trees[0][0].nodes.len() <= 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs();
        let config = LightGbmConfig {
            colsample: 0.5,
            ..LightGbmConfig::default().with_rounds(4)
        };
        let a = LightGbm::fit(&data, &config.with_seed(3)).unwrap();
        let b = LightGbm::fit(&data, &config.with_seed(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_model() {
        // The tentpole invariant: with sampling (GOSS + colsample) active,
        // the parallel fit must still be bit-identical to the sequential
        // one, because seeds are pre-derived and reductions run in order.
        let data = blobs();
        let base = LightGbmConfig {
            colsample: 0.5,
            goss_top_rate: 0.2,
            goss_other_rate: 0.2,
            min_data_in_leaf: 2,
            ..LightGbmConfig::default().with_rounds(6).with_seed(9)
        };
        let sequential = LightGbm::fit(&data, &base.with_threads(1)).unwrap();
        for n_threads in [2, 4, 8] {
            let parallel = LightGbm::fit(&data, &base.with_threads(n_threads)).unwrap();
            assert_eq!(sequential, parallel, "n_threads={n_threads}");
        }
    }

    #[test]
    fn prebinned_fit_matches_plain_fit() {
        let data = blobs();
        let config = LightGbmConfig::default().with_rounds(8).with_seed(5);
        let plain = LightGbm::fit(&data, &config).unwrap();
        let binned = BinnedDataset::fit(&data, config.max_bins);
        let prebinned = LightGbm::fit_prebinned(&data, &binned, &config).unwrap();
        assert_eq!(plain, prebinned);
    }

    #[test]
    fn prebinned_shape_mismatch_is_rejected() {
        let data = blobs();
        let mut other = Dataset::new(1, 2);
        other.push_row(&[1.0], 0).unwrap();
        other.push_row(&[2.0], 1).unwrap();
        let binned = BinnedDataset::fit(&other, 16);
        assert!(matches!(
            LightGbm::fit_prebinned(&data, &binned, &LightGbmConfig::default()),
            Err(FitError::InvalidConfig(_))
        ));
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
            LightGbmConfig {
                max_bins: 1,
                ..LightGbmConfig::default()
            },
            LightGbmConfig {
                colsample: 0.0,
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
