//! Second-order gradient-boosted decision trees in the XGBoost style.
//!
//! Each boosting round fits one regression tree per class to the first- and
//! second-order derivatives (grad/hess) of the softmax cross-entropy loss,
//! on every row and every feature. Split gain and leaf weights follow the
//! XGBoost formulation with L2 regularisation λ = [`LAMBDA`] and no
//! minimum split gain:
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ]
//! leaf  = −G/(H+λ)
//! ```
//!
//! Splits are exact: every feature is rank-encoded once per fit
//! (`RankedColumns`), and a node scans its rows in rank order instead of
//! sorting values. Every tree's root holds every row, so the root's
//! order is sorted once per fit and shared by every round and class. A
//! split keeps its left rows in their relative order, so a left child's
//! order is its parent's, filtered; a right child sorts its own. The
//! per-class trees of one round are fitted on worker threads and folded
//! back in class order, so every `n_threads` gives the same model. A fit
//! draws no random numbers.

use serde::{Deserialize, Serialize, Value};

use crate::data::Dataset;
use crate::error::FitError;
use crate::parallel::ordered_map_indexed;
use crate::rank::{position_of, rank_of, RankSort, RankedColumns};
use crate::Classifier;

/// L2 regularisation λ on leaf weights.
const LAMBDA: f64 = 1.0;

/// Minimum hessian mass each child of a split must keep.
const MIN_CHILD_WEIGHT: f64 = 1.0;

/// Hyperparameters of a [`Gbdt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    /// Boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Shrinkage applied to every leaf (the learning rate η).
    pub learning_rate: f64,
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
            n_threads: 4,
        }
    }
}

impl GbdtConfig {
    /// Returns the config with a different round count.
    pub fn with_rounds(mut self, n_rounds: usize) -> Self {
        self.n_rounds = n_rounds;
        self
    }
}

/// A fitted gradient-boosted ensemble (XGBoost-style).
///
/// The JSON form is the derived one. Reading it refuses a model a
/// prediction could not finish on: a child index out of range or not
/// after its parent, a split feature at or above `n_features`, an empty
/// tree, a round without one tree per class, or `base_score` or `gains`
/// of the wrong length. Errors name the round, the class and the node.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
        let mut gains = vec![0.0f64; data.n_features()];
        let ranked = RankedColumns::new(data);
        let rows: Vec<usize> = (0..n).collect();
        let mut root_keys = Vec::new();
        sort_node(&ranked, &rows, &mut RankSort::default(), &mut root_keys);

        // Base score: log prior per class.
        let counts = data.class_counts();
        let base_score: Vec<f64> = counts
            .iter()
            .map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln())
            .collect();

        // Raw scores and softmax probabilities, `k` per row.
        let mut scores = base_score.repeat(n);
        let mut probs = vec![0.0; n * k];
        let mut trees: Vec<Vec<RegTree>> = Vec::with_capacity(config.n_rounds);

        for _ in 0..config.n_rounds {
            cordial_obs::counter!("trees.boost_rounds").inc();
            softmax_rows(&scores, &mut probs, k);
            let probs = &probs;

            let fit_class = |class: usize| -> ClassFit {
                cordial_obs::counter!("trees.trees_built").inc();
                let grad_hess: Vec<(f64, f64)> = (0..n)
                    .map(|i| {
                        let p = probs[i * k + class];
                        let y = f64::from(data.label(i) == class);
                        (p - y, (p * (1.0 - p)).max(1e-16))
                    })
                    .collect();
                let (tree, gains, preds) = RegTree::fit(&ranked, &root_keys, &grad_hess, config);
                ClassFit { tree, gains, preds }
            };

            // Fold in class order: the same additions, in the same order,
            // as fitting the classes one after another.
            let mut round_trees = Vec::with_capacity(k);
            for (class, fit) in ordered_map_indexed(k, config.n_threads, fit_class)
                .into_iter()
                .enumerate()
            {
                for (score_row, pred) in scores.chunks_exact_mut(k).zip(&fit.preds) {
                    score_row[class] += config.learning_rate * pred;
                }
                for (feature, gain) in fit.gains {
                    gains[feature] += gain;
                }
                round_trees.push(fit.tree);
            }
            trees.push(round_trees);
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

impl<'de> Deserialize<'de> for Gbdt {
    /// Reads the JSON the derived [`Serialize`] writes and refuses a model
    /// a prediction could not finish on (see [`Gbdt`]).
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let model = Gbdt {
            trees: serde::de_field(value, "trees")?,
            n_classes: serde::de_field(value, "n_classes")?,
            n_features: serde::de_field(value, "n_features")?,
            base_score: serde::de_field(value, "base_score")?,
            learning_rate: serde::de_field(value, "learning_rate")?,
            gains: serde::de_field(value, "gains")?,
        };
        check_rounds(
            &model.trees,
            model.n_classes,
            model.n_features,
            &model.base_score,
            &model.gains,
            |tree| {
                check_nodes(&tree.nodes, model.n_features, |node| match *node {
                    RegNode::Leaf { .. } => None,
                    RegNode::Split {
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

/// Refuses the `[round][class]` trees of a boosted model a prediction
/// could not finish on: no classes, a `base_score` without one entry per
/// class, `gains` without one entry per feature, a round without one tree
/// per class, or a tree `check_tree` refuses. Errors name the round, the
/// class and the node.
pub(crate) fn check_rounds<T>(
    rounds: &[Vec<T>],
    n_classes: usize,
    n_features: usize,
    base_score: &[f64],
    gains: &[f64],
    check_tree: impl Fn(&T) -> Result<(), String>,
) -> Result<(), serde::Error> {
    if n_classes == 0 {
        return Err(serde::Error::custom("model has no classes"));
    }
    if base_score.len() != n_classes {
        return Err(serde::Error::custom(format!(
            "model has {} base scores for {n_classes} classes",
            base_score.len()
        )));
    }
    if gains.len() != n_features {
        return Err(serde::Error::custom(format!(
            "model has {} gains for {n_features} features",
            gains.len()
        )));
    }
    for (round, trees) in rounds.iter().enumerate() {
        if trees.len() != n_classes {
            return Err(serde::Error::custom(format!(
                "round {round} has {} trees for {n_classes} classes",
                trees.len()
            )));
        }
        for (class, tree) in trees.iter().enumerate() {
            check_tree(tree)
                .map_err(|e| serde::Error::custom(format!("round {round}, class {class}: {e}")))?;
        }
    }
    Ok(())
}

/// Refuses a tree a walk could not finish on: no nodes, a child index out
/// of range or not after its parent (so every walk descends and ends), or
/// a split feature at or above `n_features`. `split` gives a split node's
/// feature and children, and `None` for a leaf.
pub(crate) fn check_nodes<N>(
    nodes: &[N],
    n_features: usize,
    split: impl Fn(&N) -> Option<(usize, [usize; 2])>,
) -> Result<(), String> {
    if nodes.is_empty() {
        return Err("tree has no nodes".to_owned());
    }
    for (idx, node) in nodes.iter().enumerate() {
        let Some((feature, children)) = split(node) else {
            continue;
        };
        if feature >= n_features {
            return Err(format!(
                "node {idx}: split feature {feature} is out of range ({n_features} features)"
            ));
        }
        for child in children {
            if child >= nodes.len() {
                return Err(format!(
                    "node {idx}: child index {child} is out of range ({} nodes)",
                    nodes.len()
                ));
            }
            if child <= idx {
                return Err(format!(
                    "node {idx}: child index {child} does not come after its parent"
                ));
            }
        }
    }
    Ok(())
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
    Ok(())
}

/// One class tree of a boosting round, fitted on a worker.
struct ClassFit {
    tree: RegTree,
    /// `(feature, gain)` per split, in build order.
    gains: Vec<(usize, f64)>,
    /// The tree's output for every row of the dataset, as its leaves wrote
    /// it: the weight [`RegTree::predict`] gives that row.
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
    let mut probs = vec![0.0; scores.len()];
    softmax_into(scores, &mut probs);
    probs
}

fn softmax_into(scores: &[f64], probs: &mut [f64]) {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (p, &s) in probs.iter_mut().zip(scores) {
        *p = (s - max).exp();
    }
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

/// [`softmax`] of every row of a row-major `k`-wide score matrix, into
/// `probs`: one round's probabilities in one buffer.
pub(crate) fn softmax_rows(scores: &[f64], probs: &mut [f64], k: usize) {
    for (s, p) in scores.chunks_exact(k).zip(probs.chunks_exact_mut(k)) {
        softmax_into(s, p);
    }
}

/// A regression tree fitted to grad/hess pairs (XGBoost objective), its
/// nodes in pre-order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegTree {
    nodes: Vec<RegNode>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum RegNode {
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
    /// Fits one tree to every row, starting from the root's position keys
    /// ([`sort_node`] of rows `0..n`). Returns it with its `(feature, gain)`
    /// contributions, one per split in build (depth-first) order, and its
    /// output for every row.
    fn fit(
        ranked: &RankedColumns,
        root_keys: &[u64],
        grad_hess: &[(f64, f64)],
        config: &GbdtConfig,
    ) -> (Self, Vec<(usize, f64)>, Vec<f64>) {
        let mut grow = Grow::new(ranked, root_keys, grad_hess, config.max_depth);
        grow.build(&mut (0..grad_hess.len()).collect::<Vec<_>>(), 0);
        (RegTree { nodes: grow.nodes }, grow.gains, grow.outputs)
    }

    fn predict(&self, row: &[f64]) -> f64 {
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

/// Replaces `keys` with every feature's position keys for a node's `rows`,
/// feature-major: `rows.len()` keys per feature, each stably sorted by
/// rank.
fn sort_node(ranked: &RankedColumns, rows: &[usize], sort: &mut RankSort, keys: &mut Vec<u64>) {
    keys.clear();
    for feature in 0..ranked.n_features() {
        keys.extend_from_slice(sort.keys(ranked, feature, rows));
    }
}

/// One tree's growth: its inputs, buffers, nodes, split gains and per-row
/// outputs.
struct Grow<'a> {
    ranked: &'a RankedColumns,
    /// The root's position keys ([`sort_node`] of rows `0..n`), shared by
    /// every tree of a fit.
    root_keys: &'a [u64],
    grad_hess: &'a [(f64, f64)],
    max_depth: usize,
    sort: RankSort,
    /// The current node's grad/hess pairs, by position.
    node_grad_hess: Vec<(f64, f64)>,
    /// `left_before[pos]`: how many of the split node's rows before `pos`
    /// go left, with the total at the end.
    left_before: Vec<u32>,
    /// The position keys of the node being grown below the root. A node's
    /// keys are dead once its left child's are filtered from them, since
    /// the right child sorts its own, so one buffer serves the whole tree.
    keys: Vec<u64>,
    nodes: Vec<RegNode>,
    gains: Vec<(usize, f64)>,
    /// Each row's leaf weight, written as its leaf is made.
    outputs: Vec<f64>,
}

impl<'a> Grow<'a> {
    fn new(
        ranked: &'a RankedColumns,
        root_keys: &'a [u64],
        grad_hess: &'a [(f64, f64)],
        max_depth: usize,
    ) -> Self {
        Grow {
            ranked,
            root_keys,
            grad_hess,
            max_depth,
            sort: RankSort::default(),
            node_grad_hess: Vec::new(),
            left_before: Vec::new(),
            keys: Vec::new(),
            nodes: Vec::new(),
            gains: Vec::new(),
            outputs: vec![0.0; grad_hess.len()],
        }
    }

    /// Grows the subtree of `rows` at `depth`, returning its root. When
    /// the node may split, its position keys are the root's at depth 0
    /// and `keys` below it.
    fn build(&mut self, rows: &mut [usize], depth: usize) -> usize {
        let grad_hess = self.grad_hess;
        self.node_grad_hess.clear();
        self.node_grad_hess
            .extend(rows.iter().map(|&row| grad_hess[row]));
        let (g_sum, h_sum) = self
            .node_grad_hess
            .iter()
            .fold((0.0, 0.0), |(g, h), &(gi, hi)| (g + gi, h + hi));

        if self.may_split(rows.len(), depth) {
            let keys = if depth == 0 {
                self.root_keys
            } else {
                &self.keys
            };
            if let Some(split) = self.best_split(rows, keys, g_sum, h_sum) {
                let mid = self.mark_left(rows, &split);
                if mid > 0 && mid < rows.len() {
                    self.gains.push((split.feature, split.gain.max(0.0)));
                    let node_idx = self.nodes.len();
                    self.nodes.push(RegNode::Leaf { weight: 0.0 });
                    if self.may_split(mid, depth + 1) {
                        self.filter_left(depth, rows.len(), mid);
                    }
                    self.ranked.partition(rows, split.feature, split.threshold);
                    let (left_rows, right_rows) = rows.split_at_mut(mid);
                    let left = self.build(left_rows, depth + 1);
                    // Partition reordered the right rows: sort them afresh.
                    if self.may_split(right_rows.len(), depth + 1) {
                        sort_node(self.ranked, right_rows, &mut self.sort, &mut self.keys);
                    }
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

        let weight = -g_sum / (h_sum + LAMBDA);
        for &row in rows.iter() {
            self.outputs[row] = weight;
        }
        let node_idx = self.nodes.len();
        self.nodes.push(RegNode::Leaf { weight });
        node_idx
    }

    /// Replaces `keys` with the left child's position keys: the split
    /// node's keys (`len` per feature, the root's at depth 0 and `keys`
    /// itself below it) filtered to its `n_left` left rows, each position
    /// remapped to its rank among them. Partition keeps the left rows in
    /// their relative order, so this is the left child's stable rank
    /// order. Branch-free: every key is written, and the cursor advances
    /// only on a left one. In place, a write never passes the read.
    fn filter_left(&mut self, depth: usize, len: usize, n_left: usize) {
        let n_features = self.ranked.n_features();
        let root = (depth == 0).then_some(self.root_keys);
        if root.is_some() {
            self.keys.clear();
        }
        // The slot past a feature's keys takes its trailing right keys
        // until the next feature overwrites it.
        self.keys
            .resize(self.keys.len().max(n_features * n_left + 1), 0);
        for feature in 0..n_features {
            let mut at = feature * n_left;
            for i in feature * len..(feature + 1) * len {
                let key = match root {
                    Some(root) => root[i],
                    None => self.keys[i],
                };
                let pos = position_of(key);
                let (before, after) = (self.left_before[pos], self.left_before[pos + 1]);
                self.keys[at] = (rank_of(key) << 32) | u64::from(before);
                at += (after - before) as usize;
            }
        }
        self.keys.truncate(n_features * n_left);
    }

    /// Whether a node of `len` rows at `depth` searches for a split.
    fn may_split(&self, len: usize, depth: usize) -> bool {
        depth < self.max_depth && len >= 2
    }

    /// Fills `left_before` for `split` and returns how many rows go left:
    /// the rows [`RankedColumns::partition`] moves to the front.
    fn mark_left(&mut self, rows: &[usize], split: &RegSplit) -> usize {
        let column = self.ranked.values(split.feature);
        self.left_before.clear();
        let mut left = 0u32;
        for &row in rows {
            self.left_before.push(left);
            let v = column[row];
            left += u32::from(v.is_nan() || v <= split.threshold);
        }
        self.left_before.push(left);
        left as usize
    }

    /// The exact best split of `rows`: for each feature, prefix sums in
    /// rank order, a candidate between every two distinct keys.
    fn best_split(&self, rows: &[usize], keys: &[u64], g_sum: f64, h_sum: f64) -> Option<RegSplit> {
        let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
        let mut best_gain = 1e-12;
        let mut best = None;
        let grad_hess = &self.node_grad_hess;
        for (feature, keys) in keys.chunks_exact(rows.len()).enumerate() {
            // No candidate where every row shares one rank.
            if rank_of(keys[0]) == rank_of(keys[keys.len() - 1]) {
                continue;
            }
            // Rank 0 is then NaN or −∞, which no threshold can split off.
            let bottom_is_neg_inf = self.ranked.bottom_is_neg_inf(feature);

            let mut g_left = 0.0;
            let mut h_left = 0.0;
            for pair in keys.windows(2) {
                let (g, h) = grad_hess[position_of(pair[0])];
                g_left += g;
                h_left += h;
                let rank = rank_of(pair[0]);
                if rank == rank_of(pair[1]) || (rank == 0 && bottom_is_neg_inf) {
                    continue;
                }
                let h_right = h_sum - h_left;
                if h_left < MIN_CHILD_WEIGHT || h_right < MIN_CHILD_WEIGHT {
                    continue;
                }
                let g_right = g_sum - g_left;
                let gain = 0.5
                    * (g_left * g_left / (h_left + LAMBDA)
                        + g_right * g_right / (h_right + LAMBDA)
                        - parent_score);
                if gain > best_gain {
                    best_gain = gain;
                    // Neither value is NaN: NaN holds rank 0, skipped above.
                    let column = self.ranked.values(feature);
                    let value = column[rows[position_of(pair[0])]];
                    let next_value = column[rows[position_of(pair[1])]];
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
    g_sum: f64,
    h_sum: f64,
) -> Option<RegSplit> {
    let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
    let mut best_gain = 1e-12;
    let mut best = None;
    let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
    for feature in 0..data.n_features() {
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
            if h_left < MIN_CHILD_WEIGHT || h_right < MIN_CHILD_WEIGHT {
                continue;
            }
            let g_right = g_sum - g_left;
            let gain = 0.5
                * (g_left * g_left / (h_left + LAMBDA) + g_right * g_right / (h_right + LAMBDA)
                    - parent_score);
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
    fn rejects_invalid_configs() {
        let data = blobs();
        for config in [
            GbdtConfig::default().with_rounds(0),
            GbdtConfig {
                learning_rate: 0.0,
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
    fn raw_scores_have_one_entry_per_class() {
        let model = Gbdt::fit(&blobs(), &GbdtConfig::default().with_rounds(2)).unwrap();
        assert_eq!(model.raw_scores(&[1.0, 1.0]).len(), 3);
        assert_eq!(model.n_rounds(), 2);
    }

    #[test]
    fn model_is_identical_for_every_thread_count() {
        let data = blobs();
        let base = GbdtConfig {
            n_threads: 1,
            ..GbdtConfig::default().with_rounds(8)
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

    type Node = (Dataset, Vec<(f64, f64)>, Vec<usize>);

    /// A dataset, its grad/hess pairs and one node's rows (repeats
    /// allowed).
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
            (table, grad_hess, rows).prop_map(move |(table, grad_hess, rows)| {
                let mut data = Dataset::new(n_features, 2);
                for row in &table {
                    data.push_row(row, 0).unwrap();
                }
                (data, grad_hess, rows)
            })
        })
    }

    /// A tree grown as [`Grow::build`] grows one, with the value-sort
    /// oracle picking every split: its nodes, gains and per-row outputs.
    #[derive(Default)]
    struct ByValue {
        nodes: Vec<RegNode>,
        gains: Vec<(usize, f64)>,
        outputs: Vec<f64>,
    }

    impl ByValue {
        fn build(
            &mut self,
            (data, ranked, grad_hess): (&Dataset, &RankedColumns, &[(f64, f64)]),
            max_depth: usize,
            rows: &mut [usize],
            depth: usize,
        ) -> usize {
            let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                (g + grad_hess[i].0, h + grad_hess[i].1)
            });
            if depth < max_depth && rows.len() >= 2 {
                if let Some(split) = best_split_by_value(data, rows, grad_hess, g_sum, h_sum) {
                    let mid = ranked.partition(rows, split.feature, split.threshold);
                    if mid > 0 && mid < rows.len() {
                        self.gains.push((split.feature, split.gain.max(0.0)));
                        let node_idx = self.nodes.len();
                        self.nodes.push(RegNode::Leaf { weight: 0.0 });
                        let inputs = (data, ranked, grad_hess);
                        let (left_rows, right_rows) = rows.split_at_mut(mid);
                        let left = self.build(inputs, max_depth, left_rows, depth + 1);
                        let right = self.build(inputs, max_depth, right_rows, depth + 1);
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
            let weight = -g_sum / (h_sum + LAMBDA);
            for &row in rows.iter() {
                self.outputs[row] = weight;
            }
            self.nodes.push(RegNode::Leaf { weight });
            self.nodes.len() - 1
        }
    }

    /// Every field of a node, floats as bits.
    fn node_bits(node: &RegNode) -> (usize, u64, usize, usize) {
        match *node {
            RegNode::Leaf { weight } => (usize::MAX, weight.to_bits(), 0, 0),
            RegNode::Split {
                feature,
                threshold,
                left,
                right,
            } => (feature, threshold.to_bits(), left, right),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn ranked_split_search_matches_the_value_sort(
            (data, grad_hess, rows) in arb_node(),
        ) {
            let ranked = RankedColumns::new(&data);
            let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                (g + grad_hess[i].0, h + grad_hess[i].1)
            });
            let mut keys = Vec::new();
            sort_node(&ranked, &rows, &mut RankSort::default(), &mut keys);
            let mut grow = Grow::new(&ranked, &keys, &grad_hess, GbdtConfig::default().max_depth);
            grow.node_grad_hess = rows.iter().map(|&i| grad_hess[i]).collect();
            let bits = |split: Option<RegSplit>| {
                split.map(|s| (s.feature, s.threshold.to_bits(), s.gain.to_bits()))
            };
            prop_assert_eq!(
                bits(grow.best_split(&rows, &keys, g_sum, h_sum)),
                bits(best_split_by_value(&data, &rows, &grad_hess, g_sum, h_sum))
            );
        }

        #[test]
        fn ranked_trees_match_the_value_sort(
            (data, grad_hess, _rows) in arb_node(),
            max_depth in 1usize..=6,
        ) {
            let ranked = RankedColumns::new(&data);
            let n = data.n_rows();
            let config = GbdtConfig { max_depth, ..GbdtConfig::default() };
            let mut root_keys = Vec::new();
            let all_rows: Vec<usize> = (0..n).collect();
            sort_node(&ranked, &all_rows, &mut RankSort::default(), &mut root_keys);
            let (tree, gains, outputs) = RegTree::fit(&ranked, &root_keys, &grad_hess, &config);

            let mut oracle = ByValue { outputs: vec![0.0; n], ..ByValue::default() };
            let inputs = (&data, &ranked, &grad_hess[..]);
            oracle.build(inputs, max_depth, &mut (0..n).collect::<Vec<_>>(), 0);

            let gain_bits = |gains: &[(usize, f64)]| -> Vec<(usize, u64)> {
                gains.iter().map(|&(f, g)| (f, g.to_bits())).collect()
            };
            let output_bits = |outputs: &[f64]| -> Vec<u64> {
                outputs.iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(
                tree.nodes.iter().map(node_bits).collect::<Vec<_>>(),
                oracle.nodes.iter().map(node_bits).collect::<Vec<_>>()
            );
            prop_assert_eq!(gain_bits(&gains), gain_bits(&oracle.gains));
            prop_assert_eq!(output_bits(&outputs), output_bits(&oracle.outputs));
            let predicted: Vec<f64> = (0..n).map(|i| tree.predict(data.row(i))).collect();
            prop_assert_eq!(output_bits(&outputs), output_bits(&predicted));
        }
    }
}
