//! CART decision trees: exact-split Gini classification trees with
//! optional per-split feature subsampling (the building block of
//! [`RandomForest`]). Split search orders each node's rows by feature ranks
//! encoded once per fit (`RankedColumns`), not by sorting values at every
//! node.
//!
//! [`RandomForest`]: crate::RandomForest

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use crate::data::Dataset;
use crate::error::FitError;
#[cfg(test)]
use crate::rank::nan_first;
use crate::rank::{position_of, rank_of, RankSort, RankedColumns};
use crate::Classifier;

/// Gini impurity `1 - Σ p²` of a node with `counts` per class.
fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c / total;
            p * p
        })
        .sum::<f64>()
}

/// Hyperparameters of a [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum rows each child must keep after a split.
    pub min_samples_leaf: usize,
    /// Number of features sampled per split; `None` uses every feature.
    pub max_features: Option<usize>,
    /// RNG seed (relevant only when `max_features` subsamples).
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 16,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

impl TreeConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One node of a [`DecisionTree`], 24 bytes.
///
/// A split sends a row to `children[0]` when its `feature` value is NaN or
/// at most `threshold`, and to `children[1]` otherwise. A leaf points both
/// children at itself, so a walk of the tree's depth in steps ends on the
/// row's leaf whatever level that leaf is at. `leaf` is the offset of a
/// leaf's `n_classes` probabilities in the tree's pool (0 for a split).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    threshold: f64,
    feature: u32,
    children: [u32; 2],
    leaf: u32,
}

impl Node {
    /// Whether the node at index `idx` is a leaf (points at itself).
    fn is_leaf(&self, idx: usize) -> bool {
        self.children[0] as usize == idx
    }
}

/// A fitted CART classification tree.
///
/// Missing values (`NaN`) always route to the left child, both during
/// training and prediction.
///
/// Nodes are stored in pre-order (every child after its parent) as 24-byte
/// records, with the probabilities of all leaves in one pool. The JSON
/// form is a list of `{"Split": {feature, threshold, left, right}}` and
/// `{"Leaf": {proba}}` nodes; reading it refuses any tree a walk could not
/// finish on.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    leaves: Vec<f64>,
    depth: usize,
    n_features: usize,
    n_classes: usize,
    gains: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on the whole dataset.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] when `data` has no rows.
    pub fn fit(data: &Dataset, config: &TreeConfig) -> Result<Self, FitError> {
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        Self::fit_indices(data, &indices, config)
    }

    /// Fits a tree on the given row indices (repetitions allowed — this is
    /// how [`RandomForest`](crate::RandomForest) passes bootstrap samples).
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] when `indices` is empty.
    pub fn fit_indices(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
    ) -> Result<Self, FitError> {
        Self::fit_ranked(data, &RankedColumns::new(data), indices, config)
    }

    /// [`DecisionTree::fit_indices`] on a rank encoding of `data` built
    /// once and shared by every tree of a forest.
    pub(crate) fn fit_ranked(
        data: &Dataset,
        ranked: &RankedColumns,
        indices: &[usize],
        config: &TreeConfig,
    ) -> Result<Self, FitError> {
        if indices.is_empty() || data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        if config.min_samples_leaf == 0 {
            return Err(FitError::InvalidConfig("min_samples_leaf must be >= 1"));
        }
        let mut grow = Grow {
            data,
            ranked,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            sort: RankSort::default(),
            node_labels: Vec::new(),
            tree: DecisionTree::unfitted(data),
        };
        grow.build(&mut indices.to_vec(), 0);
        Ok(grow.tree)
    }

    /// A tree with no nodes yet, shaped for `data`.
    fn unfitted(data: &Dataset) -> Self {
        DecisionTree {
            nodes: Vec::new(),
            leaves: Vec::new(),
            depth: 0,
            n_features: data.n_features(),
            n_classes: data.n_classes(),
            gains: vec![0.0; data.n_features()],
        }
    }

    /// One step of a walk: the child of node `idx` that `row` goes to (a
    /// leaf's own index for a leaf).
    #[inline]
    fn step(&self, idx: u32, row: &[f64]) -> u32 {
        let node = &self.nodes[idx as usize];
        let value = row[node.feature as usize];
        let right = !(value.is_nan() | (value <= node.threshold));
        node.children[usize::from(right)]
    }

    /// The probabilities of the leaf at node `idx`.
    #[inline]
    fn leaf_at(&self, idx: u32) -> &[f64] {
        let start = self.nodes[idx as usize].leaf as usize;
        &self.leaves[start..start + self.n_classes]
    }

    /// Class-probability vector at the leaf reached by `row`.
    fn leaf_proba(&self, row: &[f64]) -> &[f64] {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let idx = (0..self.depth).fold(0, |idx, _| self.step(idx, row));
        self.leaf_at(idx)
    }

    /// Walks `rows` (at most [`LANES`]) through the tree in lockstep, each
    /// exactly `depth` steps, and adds each row's leaf probabilities to its
    /// `n_classes` slots of `acc`. The walks are independent, so the CPU
    /// overlaps their node loads. Row lengths are the caller's to check.
    pub(crate) fn add_leaf_probas(&self, rows: &[&[f64]], acc: &mut [f64]) {
        let mut at = [0u32; LANES];
        let at = &mut at[..rows.len()];
        for _ in 0..self.depth {
            for (idx, row) in at.iter_mut().zip(rows) {
                *idx = self.step(*idx, row);
            }
        }
        for (&idx, acc) in at.iter().zip(acc.chunks_exact_mut(self.n_classes)) {
            for (a, p) in acc.iter_mut().zip(self.leaf_at(idx)) {
                *a += p;
            }
        }
    }

    /// The leaf `row` reaches by following splits until a node points at
    /// itself: the branchy walk the lockstep kernel is checked against.
    #[cfg(test)]
    pub(crate) fn walk_to_leaf(&self, row: &[f64]) -> &[f64] {
        let mut idx = 0;
        loop {
            let node = &self.nodes[idx];
            if node.is_leaf(idx) {
                return self.leaf_at(idx as u32);
            }
            let v = row[node.feature as usize];
            idx = if v.is_nan() || v <= node.threshold {
                node.children[0]
            } else {
                node.children[1]
            } as usize;
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of features the tree was fitted on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total impurity gain contributed by each feature, normalised to sum
    /// to 1 (all zeros when the tree is a single leaf).
    pub fn feature_importance(&self) -> Vec<f64> {
        let total: f64 = self.gains.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.gains.iter().map(|&g| g / total).collect()
    }
}

/// Rows a tree walks in lockstep: one plan's 16 block rows.
pub(crate) const LANES: usize = 16;

impl Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.leaf_proba(row).to_vec()
    }
}

/// `{"<tag>": {fields}}`: how the tree's JSON has always written a node.
fn tagged(tag: &str, fields: Vec<(&str, Value)>) -> Value {
    let fields = fields
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    Value::Map(vec![(tag.to_owned(), Value::Map(fields))])
}

impl Serialize for DecisionTree {
    fn to_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, node)| {
                if node.is_leaf(idx) {
                    tagged("Leaf", vec![("proba", self.leaf_at(idx as u32).to_value())])
                } else {
                    tagged(
                        "Split",
                        vec![
                            ("feature", (node.feature as usize).to_value()),
                            ("threshold", node.threshold.to_value()),
                            ("left", (node.children[0] as usize).to_value()),
                            ("right", (node.children[1] as usize).to_value()),
                        ],
                    )
                }
            })
            .collect();
        Value::Map(vec![
            ("nodes".to_owned(), Value::Seq(nodes)),
            ("n_features".to_owned(), self.n_features.to_value()),
            ("n_classes".to_owned(), self.n_classes.to_value()),
            ("gains".to_owned(), self.gains.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for DecisionTree {
    /// Reads the JSON [`Serialize`] writes and refuses a tree a walk could
    /// not finish on: no nodes, no classes, a child index out of range or
    /// not after its parent (so every walk descends and ends), a split
    /// feature at or above `n_features`, or a leaf without exactly
    /// `n_classes` probabilities. Errors name the node.
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let n_features: usize = serde::de_field(value, "n_features")?;
        let n_classes: usize = serde::de_field(value, "n_classes")?;
        let gains: Vec<f64> = serde::de_field(value, "gains")?;
        let Some(Value::Seq(items)) = value.get("nodes") else {
            return Err(serde::Error::custom(
                "field `nodes`: expected a list of nodes",
            ));
        };
        if items.is_empty() {
            return Err(serde::Error::custom("tree has no nodes"));
        }
        if u32::try_from(items.len()).is_err() {
            return Err(serde::Error::custom("tree has more nodes than u32 indices"));
        }
        if n_classes == 0 {
            return Err(serde::Error::custom("tree has no classes"));
        }
        if gains.len() != n_features {
            return Err(serde::Error::custom(format!(
                "tree has {} gains for {n_features} features",
                gains.len()
            )));
        }
        let mut tree = DecisionTree {
            nodes: Vec::with_capacity(items.len()),
            leaves: Vec::new(),
            depth: 0,
            n_features,
            n_classes,
            gains,
        };
        // Node depths, known before each node is read: parents come first.
        let mut depths = vec![None; items.len()];
        depths[0] = Some(0);
        for (idx, item) in items.iter().enumerate() {
            let node = tree
                .read_node(idx, item, items.len())
                .map_err(|e| serde::Error::custom(format!("node {idx}: {e}")))?;
            if let Some(depth) = depths[idx] {
                tree.depth = tree.depth.max(depth);
                if !node.is_leaf(idx) {
                    for child in node.children {
                        let slot = &mut depths[child as usize];
                        *slot = Some(slot.unwrap_or(0).max(depth + 1));
                    }
                }
            }
            tree.nodes.push(node);
        }
        Ok(tree)
    }
}

impl DecisionTree {
    /// Reads node `idx` of `n_nodes`, appending a leaf's probabilities to
    /// the pool.
    fn read_node(&mut self, idx: usize, item: &Value, n_nodes: usize) -> Result<Node, String> {
        let (tag, payload) = match item {
            Value::Map(entries) if entries.len() == 1 => (entries[0].0.as_str(), &entries[0].1),
            other => return Err(format!("expected a Leaf or Split node, got {other:?}")),
        };
        let field_err = |e: serde::Error| e.to_string();
        match tag {
            "Leaf" => {
                let proba: Vec<f64> = serde::de_field(payload, "proba").map_err(field_err)?;
                if proba.len() != self.n_classes {
                    return Err(format!(
                        "leaf has {} probabilities for {} classes",
                        proba.len(),
                        self.n_classes
                    ));
                }
                let leaf = u32::try_from(self.leaves.len())
                    .map_err(|_| "leaf pool exceeds u32 offsets".to_owned())?;
                self.leaves.extend_from_slice(&proba);
                let own = idx as u32;
                Ok(Node {
                    threshold: 0.0,
                    feature: 0,
                    children: [own, own],
                    leaf,
                })
            }
            "Split" => {
                let feature: usize = serde::de_field(payload, "feature").map_err(field_err)?;
                // JSON has no −∞, so the writer prints a split between −∞
                // and the next value as `null`. `midpoint` never returns
                // NaN, and a +∞ split leaves its right child empty.
                let threshold = match payload.get("threshold") {
                    Some(Value::Null) => f64::NEG_INFINITY,
                    _ => serde::de_field(payload, "threshold").map_err(field_err)?,
                };
                let left: usize = serde::de_field(payload, "left").map_err(field_err)?;
                let right: usize = serde::de_field(payload, "right").map_err(field_err)?;
                if feature >= self.n_features {
                    return Err(format!(
                        "split feature {feature} is out of range ({} features)",
                        self.n_features
                    ));
                }
                for child in [left, right] {
                    if child >= n_nodes {
                        return Err(format!(
                            "child index {child} is out of range ({n_nodes} nodes)"
                        ));
                    }
                    if child <= idx {
                        return Err(format!(
                            "child index {child} does not come after its parent"
                        ));
                    }
                }
                Ok(Node {
                    threshold,
                    feature: u32::try_from(feature)
                        .map_err(|_| format!("split feature {feature} exceeds u32"))?,
                    children: [left as u32, right as u32],
                    leaf: 0,
                })
            }
            other => Err(format!("unknown node kind `{other}`")),
        }
    }
}

/// One tree's growth: its inputs, RNG, buffers and the tree so far.
struct Grow<'a> {
    data: &'a Dataset,
    ranked: &'a RankedColumns,
    config: &'a TreeConfig,
    rng: StdRng,
    sort: RankSort,
    /// The current node's labels, by position.
    node_labels: Vec<usize>,
    tree: DecisionTree,
}

impl Grow<'_> {
    /// Grows the subtree of `indices` at `depth`, returning its root.
    fn build(&mut self, indices: &mut [usize], depth: usize) -> u32 {
        let config = self.config;
        let counts = class_counts(self.data, indices, self.data.n_classes());
        let total = indices.len() as f64;
        let node_impurity = gini(&counts, total);

        // A node of one row is pure, so purity also stops every node too
        // small to split.
        if depth < config.max_depth && node_impurity != 0.0 {
            if let Some(split) = self.best_split(indices, &counts, node_impurity) {
                // Partition in place: left = value <= threshold or NaN.
                let mid = self
                    .ranked
                    .partition(indices, split.feature, split.threshold);
                if mid >= config.min_samples_leaf && indices.len() - mid >= config.min_samples_leaf
                {
                    self.tree.gains[split.feature] += split.gain * total;
                    let node_idx = self.push(Node {
                        threshold: split.threshold,
                        feature: to_u32(split.feature),
                        children: [0, 0], // set once the children are grown
                        leaf: 0,
                    });
                    let (left_slice, right_slice) = indices.split_at_mut(mid);
                    let left = self.build(left_slice, depth + 1);
                    let right = self.build(right_slice, depth + 1);
                    self.tree.nodes[node_idx as usize].children = [left, right];
                    return node_idx;
                }
            }
        }
        let tree = &mut self.tree;
        tree.depth = tree.depth.max(depth);
        let leaf = to_u32(tree.leaves.len());
        tree.leaves.extend(counts.iter().map(|&c| c / total));
        let own = to_u32(tree.nodes.len());
        self.push(Node {
            threshold: 0.0,
            feature: 0,
            children: [own, own],
            leaf,
        })
    }

    /// Appends a node, returning its index.
    fn push(&mut self, node: Node) -> u32 {
        let idx = to_u32(self.tree.nodes.len());
        self.tree.nodes.push(node);
        idx
    }

    fn best_split(
        &mut self,
        indices: &[usize],
        parent_counts: &[f64],
        parent_impurity: f64,
    ) -> Option<SplitCandidate> {
        let n_features = self.data.n_features();
        let feature_pool: Vec<usize> = match self.config.max_features {
            Some(k) if k < n_features => {
                let mut all: Vec<usize> = (0..n_features).collect();
                all.shuffle(&mut self.rng);
                all.truncate(k.max(1));
                all
            }
            _ => (0..n_features).collect(),
        };
        self.best_split_among(&feature_pool, indices, parent_counts, parent_impurity)
    }

    /// The exact best split of `indices` over `feature_pool`: class counts
    /// in rank order, a candidate between every two distinct values.
    fn best_split_among(
        &mut self,
        feature_pool: &[usize],
        indices: &[usize],
        parent_counts: &[f64],
        parent_impurity: f64,
    ) -> Option<SplitCandidate> {
        let total = indices.len() as f64;
        let mut best: Option<SplitCandidate> = None;
        let mut left_counts = vec![0.0f64; parent_counts.len()];
        let mut right_counts = vec![0.0f64; parent_counts.len()];
        let data = self.data;
        self.node_labels.clear();
        self.node_labels
            .extend(indices.iter().map(|&row| data.label(row)));
        for &feature in feature_pool {
            let keys = self.sort.keys(self.ranked, feature, indices);
            // No candidate where every row shares one rank.
            if rank_of(keys[0]) == rank_of(keys[keys.len() - 1]) {
                continue;
            }
            // A NaN row can only hold rank 0, and only where that is −∞.
            let bottom_is_neg_inf = self.ranked.bottom_is_neg_inf(feature);
            let column = self.ranked.values(feature);
            let value_at = |key: u64| column[indices[position_of(key)]];

            left_counts.fill(0.0);
            for (pos, pair) in keys.windows(2).enumerate() {
                left_counts[self.node_labels[position_of(pair[0])]] += 1.0;
                let rank = rank_of(pair[0]);
                // No threshold can separate NaN rows or equal values.
                if rank == rank_of(pair[1])
                    || (rank == 0 && bottom_is_neg_inf && value_at(pair[0]).is_nan())
                {
                    continue;
                }
                let left_total = (pos + 1) as f64;
                let right_total = total - left_total;
                for ((right, parent), left) in
                    right_counts.iter_mut().zip(parent_counts).zip(&left_counts)
                {
                    *right = parent - left;
                }
                let weighted = (left_total / total) * gini(&left_counts, left_total)
                    + (right_total / total) * gini(&right_counts, right_total);
                let gain = parent_impurity - weighted;
                if gain > best.as_ref().map_or(1e-12, |b| b.gain) {
                    let threshold = midpoint(value_at(pair[0]), value_at(pair[1]));
                    best = Some(SplitCandidate {
                        feature,
                        threshold,
                        gain,
                    });
                }
            }
        }
        best
    }
}

/// The per-node value sort and scan that [`Grow::best_split_among`]
/// replaced, kept as the oracle its bit-identity test compares against.
#[cfg(test)]
fn best_split_by_value(
    data: &Dataset,
    feature_pool: &[usize],
    indices: &[usize],
    parent_counts: &[f64],
    parent_impurity: f64,
) -> Option<SplitCandidate> {
    let total = indices.len() as f64;
    let mut best: Option<SplitCandidate> = None;
    let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(indices.len());
    for &feature in feature_pool {
        sorted.clear();
        sorted.extend(
            indices
                .iter()
                .map(|&i| (data.value(i, feature), data.label(i))),
        );
        // NaN sorts first so missing rows stay in the left prefix.
        sorted.sort_by(|a, b| {
            nan_first(a.0)
                .partial_cmp(&nan_first(b.0))
                .expect("nan_first removes NaN")
        });

        let mut left_counts = vec![0.0f64; data.n_classes()];
        for pos in 0..sorted.len().saturating_sub(1) {
            left_counts[sorted[pos].1] += 1.0;
            let (value, next_value) = (sorted[pos].0, sorted[pos + 1].0);
            // No threshold can separate NaN rows or equal values.
            if value.is_nan() || next_value.is_nan() || value == next_value {
                continue;
            }
            let left_total = (pos + 1) as f64;
            let right_total = total - left_total;
            let right_counts: Vec<f64> = parent_counts
                .iter()
                .zip(&left_counts)
                .map(|(p, l)| p - l)
                .collect();
            let weighted = (left_total / total) * gini(&left_counts, left_total)
                + (right_total / total) * gini(&right_counts, right_total);
            let gain = parent_impurity - weighted;
            if gain > best.as_ref().map_or(1e-12, |b| b.gain) {
                let threshold = midpoint(value, next_value);
                best = Some(SplitCandidate {
                    feature,
                    threshold,
                    gain,
                });
            }
        }
    }
    best
}

struct SplitCandidate {
    feature: usize,
    threshold: f64,
    gain: f64,
}

fn class_counts(data: &Dataset, indices: &[usize], n_classes: usize) -> Vec<f64> {
    let mut counts = vec![0.0f64; n_classes];
    for &i in indices {
        counts[data.label(i)] += 1.0;
    }
    counts
}

/// Feature values with NaN, ±0.0, ±∞ and heavy ties, for property tests.
#[cfg(test)]
pub(crate) const POOL: [f64; 8] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::INFINITY,
    -0.0,
    0.0,
    1.0,
    2.0,
    -3.5,
];

/// Five rows at −∞ of class 0 and five at 1.0 of class 1: the only split
/// is at −∞.
#[cfg(test)]
pub(crate) fn negative_infinity_split() -> Dataset {
    let mut data = Dataset::new(1, 2);
    for _ in 0..5 {
        data.push_row(&[f64::NEG_INFINITY], 0).unwrap();
        data.push_row(&[1.0], 1).unwrap();
    }
    data
}

/// A node, leaf-pool or feature index as stored in a [`Node`].
fn to_u32(idx: usize) -> u32 {
    u32::try_from(idx).expect("tree indices fit in u32")
}

fn midpoint(a: f64, b: f64) -> f64 {
    let m = a + (b - a) / 2.0;
    // Guard against degenerate midpoints when a and b are adjacent floats.
    if m > a && m <= b {
        m
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A near-XOR dataset: a perfectly balanced XOR gives every root split
    /// exactly zero impurity gain (greedy CART correctly refuses it), so the
    /// (0,0) corner is slightly over-represented to break the tie.
    fn xor_dataset() -> Dataset {
        let mut data = Dataset::new(2, 2);
        for _ in 0..2 {
            data.push_row(&[0.0, 0.0], 0).unwrap();
        }
        for _ in 0..10 {
            data.push_row(&[0.0, 0.0], 0).unwrap();
            data.push_row(&[1.0, 1.0], 0).unwrap();
            data.push_row(&[0.0, 1.0], 1).unwrap();
            data.push_row(&[1.0, 0.0], 1).unwrap();
        }
        data
    }

    #[test]
    fn fits_xor_exactly() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut data = Dataset::new(1, 2);
        for i in 0..5 {
            data.push_row(&[i as f64], 0).unwrap();
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_proba(&[2.0]), vec![1.0, 0.0]);
    }

    #[test]
    fn max_depth_zero_yields_majority_leaf() {
        let mut data = Dataset::new(1, 2);
        for i in 0..8 {
            data.push_row(&[i as f64], usize::from(i >= 5)).unwrap();
        }
        let config = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[7.0]), 0); // majority class
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_children() {
        let mut data = Dataset::new(1, 2);
        for i in 0..10 {
            data.push_row(&[i as f64], usize::from(i == 9)).unwrap();
        }
        let config = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config).unwrap();
        // Separating the lone positive would need a 1-row leaf.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn nan_rows_follow_left_branch() {
        let mut data = Dataset::new(1, 2);
        for _ in 0..5 {
            data.push_row(&[f64::NAN], 0).unwrap();
            data.push_row(&[10.0], 1).unwrap();
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        // NaN cannot be separated from finite values by any threshold, so the
        // tree stays a leaf — but prediction must still be well defined.
        assert!(tree.predict(&[f64::NAN]) < 2);

        // With a finite co-feature the NaN rows are separable.
        let mut data = Dataset::new(2, 2);
        for i in 0..5 {
            data.push_row(&[f64::NAN, i as f64], 0).unwrap();
            data.push_row(&[10.0, 100.0 + i as f64], 1).unwrap();
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[f64::NAN, 2.0]), 0);
        assert_eq!(tree.predict(&[10.0, 103.0]), 1);
    }

    #[test]
    fn empty_input_is_rejected() {
        let data = Dataset::new(2, 2);
        assert_eq!(
            DecisionTree::fit(&data, &TreeConfig::default()),
            Err(FitError::EmptyDataset)
        );
    }

    #[test]
    fn zero_min_samples_leaf_is_rejected() {
        let config = TreeConfig {
            min_samples_leaf: 0,
            ..TreeConfig::default()
        };
        assert!(matches!(
            DecisionTree::fit(&xor_dataset(), &config),
            Err(FitError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_split_at_negative_infinity_survives_a_json_round_trip() {
        let tree = DecisionTree::fit(&negative_infinity_split(), &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict_proba(&[f64::NEG_INFINITY]), vec![1.0, 0.0]);
        let json = serde_json::to_string(&tree).unwrap();
        assert!(json.contains(r#""threshold":null"#), "{json}");
        let reloaded: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(reloaded, tree);
        for row in [[f64::NEG_INFINITY], [1.0], [f64::NAN]] {
            assert_eq!(reloaded.predict_proba(&row), tree.predict_proba(&row));
        }
    }

    #[test]
    fn feature_importance_sums_to_one_when_split() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        let importance = tree.feature_importance();
        assert_eq!(importance.len(), 2);
        let sum: f64 = importance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        let proba = tree.predict_proba(&[0.5, 0.5]);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_same_seed_with_subsampling() {
        let config = TreeConfig {
            max_features: Some(1),
            seed: 9,
            ..TreeConfig::default()
        };
        let a = DecisionTree::fit(&xor_dataset(), &config).unwrap();
        let b = DecisionTree::fit(&xor_dataset(), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bootstrap_indices_with_repetition_work() {
        let data = xor_dataset();
        let indices: Vec<usize> = (0..data.n_rows()).chain(0..data.n_rows()).collect();
        let tree = DecisionTree::fit_indices(&data, &indices, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_rejects_wrong_arity() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default()).unwrap();
        tree.predict(&[1.0]);
    }

    /// A labelled dataset, one node's rows (repeats allowed, as in
    /// bootstrap samples) and the feature pool it may split on.
    fn arb_node() -> impl Strategy<Value = (Dataset, Vec<usize>, Vec<usize>)> {
        (1usize..200, 1usize..4, 2usize..=3).prop_flat_map(|(n_rows, n_features, n_classes)| {
            let value = || {
                prop_oneof![
                    3 => (0usize..POOL.len()).prop_map(|i| POOL[i]),
                    1 => -50.0..50.0f64,
                ]
            };
            let table = prop::collection::vec(
                (prop::collection::vec(value(), n_features), 0..n_classes),
                n_rows,
            );
            let indices = prop::collection::vec(0..n_rows, 1..250);
            let pool = prop::collection::vec(0..n_features, 1..=n_features);
            (table, indices, pool).prop_map(move |(table, indices, pool)| {
                let mut data = Dataset::new(n_features, n_classes);
                for (row, label) in &table {
                    data.push_row(row, *label).unwrap();
                }
                (data, indices, pool)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn ranked_split_search_matches_the_value_sort(
            (data, indices, pool) in arb_node(),
        ) {
            let config = TreeConfig::default();
            let ranked = RankedColumns::new(&data);
            let counts = class_counts(&data, &indices, data.n_classes());
            let impurity = gini(&counts, indices.len() as f64);
            let mut grow = Grow {
                data: &data,
                ranked: &ranked,
                config: &config,
                rng: StdRng::seed_from_u64(0),
                sort: RankSort::default(),
                node_labels: Vec::new(),
                tree: DecisionTree::unfitted(&data),
            };
            let bits = |split: Option<SplitCandidate>| {
                split.map(|s| (s.feature, s.threshold.to_bits(), s.gain.to_bits()))
            };
            prop_assert_eq!(
                bits(grow.best_split_among(&pool, &indices, &counts, impurity)),
                bits(best_split_by_value(&data, &pool, &indices, &counts, impurity))
            );
        }
    }

    #[test]
    fn impurity_values_are_sane() {
        assert_eq!(gini(&[5.0, 0.0], 5.0), 0.0);
        assert!((gini(&[5.0, 5.0], 10.0) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[], 0.0), 0.0);
    }
}
