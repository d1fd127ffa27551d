//! The flattened, branchless inference twin of the LightGBM ensemble.
//!
//! [`LightGbm`] predicts by walking heap-allocated node vectors with an
//! enum `match` per node. This module flattens a fitted ensemble into one
//! contiguous structure-of-arrays node pool:
//!
//! ```text
//! feature:    [u16]   split feature index        (one entry per split node)
//! threshold:  [u16]   split threshold, as a bin  (one entry per split node)
//! children:   [i32]   2 entries per split node; children[2i] = left,
//!                     children[2i+1] = right. Non-negative = split-node
//!                     index, negative = !leaf_index into leaf_weight.
//! leaf_weight:[f64]   leaf values (one entry per leaf)
//! roots:      [i32]   per-tree entry point, (round, class) order; negative
//!                     roots encode single-leaf trees.
//! ```
//!
//! Traversal is predicated rather than branched: each step loads
//! `(feature, threshold, children)` for the current node and selects the
//! child with `usize::from(bin > threshold)` — no data-dependent branch
//! until the leaf test. LightGBM trees already split on bins of the
//! model's own [`BinMapper`], which the twin reuses verbatim, so traversal
//! compares `u16`s only.
//!
//! The pointer-based ensemble remains the reference twin; equivalence
//! tests pin the flat path to it bit-for-bit ([`FlatEnsemble::raw_scores`]
//! replicates the exact accumulation order of the reference, so scores,
//! probabilities and argmax classes are identical, NaN handling included).
//! The XGBoost-style [`Gbdt`](crate::Gbdt) has no flat twin: its
//! pointer walk over shallow trees was never clearly slower.

use crate::gbdt::softmax;
use crate::hist::BinMapper;
use crate::lgbm::{HistNode, HistTree, LightGbm};
use crate::Classifier;

/// A fitted LightGBM ensemble flattened into contiguous SoA arrays with
/// branchless predicated traversal. See the [module docs](self) for the
/// data layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatEnsemble {
    mapper: BinMapper,
    /// Split feature per interior node.
    feature: Vec<u16>,
    /// Binned split threshold per interior node (`bin <= threshold` → left).
    threshold: Vec<u16>,
    /// Packed child pairs: `children[2i]` left, `children[2i + 1]` right;
    /// negative values encode `!leaf_index`.
    children: Vec<i32>,
    /// Leaf values, shared across all trees.
    leaf_weight: Vec<f64>,
    /// Per-tree entry nodes in `(round, class)` order.
    roots: Vec<i32>,
    /// Traversal records derived from the SoA arrays: one record per
    /// split node — `[(feature << 16) | threshold_bin, left ref, right
    /// ref]` — so one predicated step costs a single bounds-checked
    /// 12-byte record load plus the bin lookup, instead of three
    /// separately bounds-checked array reads.
    packed: Vec<[i32; 3]>,
    n_classes: usize,
    n_features: usize,
    base_score: Vec<f64>,
    learning_rate: f64,
}

impl FlatEnsemble {
    /// Flattens a fitted LightGBM-style model. Infallible: histogram trees
    /// already split on `u16` bins of the model's own mapper.
    pub fn from_lightgbm(model: &LightGbm) -> Self {
        let mut flat = FlatEnsemble {
            mapper: model.bin_mapper().clone(),
            feature: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            leaf_weight: Vec::new(),
            roots: Vec::new(),
            packed: Vec::new(),
            n_classes: model.n_classes(),
            n_features: model.n_features(),
            base_score: model.base_scores().to_vec(),
            learning_rate: model.shrinkage(),
        };
        for round in model.tree_rounds() {
            for tree in round {
                let root = flat.append_hist_tree(tree);
                flat.roots.push(root);
            }
        }
        flat.pack();
        flat
    }

    /// Appends one histogram tree to the node pool, returning its packed
    /// root reference.
    fn append_hist_tree(&mut self, tree: &HistTree) -> i32 {
        let base_split = self.feature.len();
        let mut n_splits = 0usize;
        let mut refs = Vec::with_capacity(tree.nodes.len());
        for node in &tree.nodes {
            match node {
                HistNode::Split { .. } => {
                    refs.push((base_split + n_splits) as i32);
                    n_splits += 1;
                }
                HistNode::Leaf { weight } => {
                    refs.push(!(self.leaf_weight.len() as i32));
                    self.leaf_weight.push(*weight);
                }
            }
        }
        for node in &tree.nodes {
            if let HistNode::Split {
                feature,
                bin_threshold,
                left,
                right,
            } = node
            {
                self.feature.push(*feature as u16);
                self.threshold.push(*bin_threshold);
                self.children.push(refs[*left]);
                self.children.push(refs[*right]);
            }
        }
        refs[0]
    }

    /// Builds the packed traversal records from the filled SoA arrays.
    /// Split features and bin thresholds both fit `u16`, so
    /// `(feature << 16) | threshold` is always non-negative as an `i32`.
    fn pack(&mut self) {
        self.packed = (0..self.feature.len())
            .map(|n| {
                [
                    (i32::from(self.feature[n]) << 16) | i32::from(self.threshold[n]),
                    self.children[2 * n],
                    self.children[2 * n + 1],
                ]
            })
            .collect();
    }

    /// Walks one tree from `root` over a pre-binned row; branchless except
    /// for the leaf test. Each step reads one packed record (a single
    /// bounds-checked 12-byte load).
    #[inline]
    fn predict_tree(&self, root: i32, bin_row: &[u16]) -> f64 {
        let mut idx = root;
        while idx >= 0 {
            let rec = self.packed[idx as usize];
            let meta = rec[0] as u32;
            let go_right = usize::from(bin_row[(meta >> 16) as usize] > (meta & 0xFFFF) as u16);
            idx = rec[1 + go_right];
        }
        self.leaf_weight[!idx as usize]
    }

    /// Quantises one raw feature row into this ensemble's bin space.
    pub fn bin_row(&self, row: &[f64]) -> Vec<u16> {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut bins = vec![0u16; row.len()];
        self.bin_row_into(row, &mut bins);
        bins
    }

    /// [`FlatEnsemble::bin_row`] into a caller-owned scratch buffer.
    pub fn bin_row_into(&self, row: &[f64], out: &mut [u16]) {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        assert_eq!(out.len(), self.n_features, "scratch length mismatch");
        for (f, (&value, bin)) in row.iter().zip(out.iter_mut()).enumerate() {
            *bin = self.mapper.bin(f, value);
        }
    }

    /// Raw (pre-softmax) scores for one pre-binned row. Accumulates in the
    /// same `(round, class)` order and with the same f64 operations as the
    /// pointer-based reference, so results are bit-identical.
    pub fn raw_scores_binned(&self, bin_row: &[u16]) -> Vec<f64> {
        debug_assert_eq!(self.roots.len() % self.n_classes, 0);
        let mut scores = self.base_score.clone();
        // Rounds are contiguous runs of `n_classes` roots; zipping each run
        // against the score vector accumulates in exactly the reference's
        // `(round, class)` order with no index arithmetic (no per-tree
        // `tree % n_classes` division, no bounds checks) in the hot loop.
        for round_roots in self.roots.chunks_exact(self.n_classes) {
            for (score, &root) in scores.iter_mut().zip(round_roots) {
                *score += self.learning_rate * self.predict_tree(root, bin_row);
            }
        }
        scores
    }

    /// Raw (pre-softmax) scores for one raw feature row.
    pub fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        self.raw_scores_binned(&self.bin_row(row))
    }

    /// Raw (pre-softmax) scores for a batch of rows.
    ///
    /// All rows are quantised into one shared bin buffer first (a single
    /// allocation for the whole batch), then each row walks the packed
    /// node records. Per row the additions happen in the same tree order
    /// as the single-row path, so results stay bit-identical to
    /// [`FlatEnsemble::raw_scores`] row by row.
    pub fn raw_scores_batch(&self, rows: &[&[f64]]) -> Vec<Vec<f64>> {
        let n_features = self.n_features;
        let mut bins = vec![0u16; rows.len() * n_features];
        for (row, out) in rows.iter().zip(bins.chunks_exact_mut(n_features)) {
            self.bin_row_into(row, out);
        }
        bins.chunks_exact(n_features)
            .map(|bin_row| self.raw_scores_binned(bin_row))
            .collect()
    }

    /// Class probabilities for a batch of rows; bit-identical to calling
    /// [`Classifier::predict_proba`] per row (see
    /// [`FlatEnsemble::raw_scores_batch`]).
    pub fn predict_proba_batch(&self, rows: &[&[f64]]) -> Vec<Vec<f64>> {
        self.raw_scores_batch(rows)
            .iter()
            .map(|scores| softmax(scores))
            .collect()
    }

    /// Number of input features the ensemble was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of interior (split) nodes in the pool.
    pub fn n_split_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of leaves in the pool.
    pub fn n_leaves(&self) -> usize {
        self.leaf_weight.len()
    }

    /// Number of flattened trees (`rounds * classes`).
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }
}

impl Classifier for FlatEnsemble {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        softmax(&self.raw_scores(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, LightGbmConfig};

    fn xor_ish_dataset(with_nans: bool) -> Dataset {
        let mut data = Dataset::new(3, 3);
        for i in 0..120 {
            let v = i as f64;
            let noise = ((i * 37) % 11) as f64 / 7.0;
            let (row, label) = match i % 3 {
                0 => ([v % 13.0, 50.0 + noise, v], 0),
                1 => ([100.0 + (v % 7.0), noise, -v], 1),
                _ => ([v % 5.0, -40.0 - noise, v * 0.5], 2),
            };
            let mut row = row;
            if with_nans && i % 9 == 0 {
                row[i % 3] = f64::NAN;
            }
            data.push_row(&row, label).unwrap();
        }
        data
    }

    fn probe_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..60 {
            let v = i as f64;
            rows.push(vec![v % 17.0, 60.0 - v, v * 1.5 - 40.0]);
        }
        rows.push(vec![f64::NAN, 1.0, 2.0]);
        rows.push(vec![1.0, f64::NAN, 2.0]);
        rows.push(vec![f64::NAN, f64::NAN, f64::NAN]);
        rows
    }

    fn assert_bit_identical(reference: &[f64], flat: &[f64]) {
        assert_eq!(reference.len(), flat.len());
        for (r, f) in reference.iter().zip(flat) {
            assert_eq!(r.to_bits(), f.to_bits(), "reference {r} vs flat {f}");
        }
    }

    #[test]
    fn flat_lightgbm_matches_pointer_twin_bit_for_bit() {
        for with_nans in [false, true] {
            let data = xor_ish_dataset(with_nans);
            let model = LightGbm::fit(&data, &LightGbmConfig::default()).unwrap();
            let flat = FlatEnsemble::from_lightgbm(&model);
            assert_eq!(flat.n_classes(), model.n_classes());
            assert!(flat.n_trees() > 0);
            for row in probe_rows() {
                assert_bit_identical(&model.raw_scores(&row), &flat.raw_scores(&row));
                assert_bit_identical(&model.predict_proba(&row), &flat.predict_proba(&row));
                assert_eq!(model.predict(&row), flat.predict(&row));
            }
        }
    }

    #[test]
    fn flat_lightgbm_binned_traversal_matches_reference_predict_binned() {
        let data = xor_ish_dataset(true);
        let model = LightGbm::fit(&data, &LightGbmConfig::default()).unwrap();
        let flat = FlatEnsemble::from_lightgbm(&model);
        for row in probe_rows() {
            let bin_row = model.bin_mapper().bin_row(&row);
            assert_eq!(bin_row, flat.bin_row(&row), "binners agree");
            let mut tree_idx = 0usize;
            for round in model.tree_rounds() {
                for tree in round {
                    let reference = tree.predict_binned(&bin_row);
                    let fast = flat.predict_tree(flat.roots[tree_idx], &bin_row);
                    assert_eq!(reference.to_bits(), fast.to_bits());
                    tree_idx += 1;
                }
            }
            assert_bit_identical(&model.raw_scores(&row), &flat.raw_scores_binned(&bin_row));
        }
    }

    #[test]
    fn single_leaf_trees_round_trip_through_negative_roots() {
        // Features that never vary leave no bin to split on, so every tree
        // is a single leaf, yet the labels still move the leaf weights.
        let mut data = Dataset::new(2, 2);
        for i in 0..21 {
            data.push_row(&[3.0, 1.0], usize::from(i % 3 == 0)).unwrap();
        }
        let model = LightGbm::fit(&data, &LightGbmConfig::default()).unwrap();
        let flat = FlatEnsemble::from_lightgbm(&model);
        assert_eq!(flat.n_split_nodes(), 0);
        assert_eq!(flat.n_leaves(), flat.n_trees());
        for row in [[3.0, 1.0], [1000.0, -1.0], [f64::NAN, f64::NAN]] {
            assert_bit_identical(&model.predict_proba(&row), &flat.predict_proba(&row));
        }
    }
}
