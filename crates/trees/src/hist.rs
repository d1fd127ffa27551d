//! Histogram binning: the quantile bin mapper and per-feature gradient
//! histograms that power the LightGBM-style learner.

use crate::data::Dataset;
use serde::{Deserialize, Serialize};

/// Bin index reserved for missing (NaN) values.
pub const MISSING_BIN: u16 = 0;

/// Maps raw feature values to small integer bins using per-feature quantile
/// boundaries (LightGBM's core trick: split search over ≤256 bins instead of
/// all distinct values).
///
/// Bin 0 is reserved for missing values; finite values map to `1..=n_bins`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinMapper {
    /// `boundaries[f]` holds the ascending upper edges for feature `f`;
    /// a value maps to 1 + (number of boundaries strictly below it).
    boundaries: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Builds a mapper from the dataset's empirical quantiles, with at most
    /// `max_bins` finite bins per feature.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins < 2`.
    pub fn fit(data: &Dataset, max_bins: usize) -> Self {
        assert!(max_bins >= 2, "max_bins must be at least 2");
        let mut boundaries = Vec::with_capacity(data.n_features());
        for f in 0..data.n_features() {
            let mut values: Vec<f64> = (0..data.n_rows())
                .map(|i| data.value(i, f))
                .filter(|v| !v.is_nan())
                .collect();
            // Feature columns are often already ascending (timestamps,
            // cumulative counts); the O(n log n) comparison sort is the
            // dominant cost of fitting the mapper, so skip it when a single
            // linear scan shows the column is sorted.
            if !values.windows(2).all(|w| w[0] <= w[1]) {
                values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            }
            values.dedup();
            let edges = if values.len() <= max_bins {
                // One bin per distinct value: boundaries are the midpoints.
                values
                    .windows(2)
                    .map(|w| w[0] + (w[1] - w[0]) / 2.0)
                    .collect()
            } else {
                // Quantile boundaries.
                let mut edges = Vec::with_capacity(max_bins - 1);
                for q in 1..max_bins {
                    let idx = q * values.len() / max_bins;
                    let edge = values[idx.min(values.len() - 1)];
                    if edges.last().is_none_or(|&last| edge > last) {
                        edges.push(edge);
                    }
                }
                edges
            };
            boundaries.push(edges);
        }
        Self { boundaries }
    }

    /// Number of features the mapper covers.
    pub fn n_features(&self) -> usize {
        self.boundaries.len()
    }

    /// Number of bins for feature `f`, including the missing bin.
    pub fn n_bins(&self, f: usize) -> usize {
        self.boundaries[f].len() + 2
    }

    /// Maps one value of feature `f` to its bin.
    pub fn bin(&self, f: usize, value: f64) -> u16 {
        if value.is_nan() {
            return MISSING_BIN;
        }
        let edges = &self.boundaries[f];
        let pos = edges.partition_point(|&e| e < value);
        (pos + 1) as u16
    }

    /// Bins one raw feature row.
    pub fn bin_row(&self, row: &[f64]) -> Vec<u16> {
        assert_eq!(row.len(), self.n_features(), "feature count mismatch");
        row.iter()
            .enumerate()
            .map(|(f, &v)| self.bin(f, v))
            .collect()
    }
}

/// A dataset binned once, stored column-major for histogram construction.
///
/// [`LightGbm`](crate::LightGbm) bins its training set exactly once and
/// reuses the result across every boosting round and class; the
/// column-major layout makes the per-feature histogram accumulation of
/// split search a contiguous scan instead of a strided gather over the
/// row-major matrix. Build it up front with [`BinnedDataset::fit`] to
/// amortise binning across repeated fits (hyper-parameter sweeps, the
/// per-class trees of one fit, benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    mapper: BinMapper,
    n_rows: usize,
    n_features: usize,
    /// Column-major bins: `cols[f * n_rows + i]` is row `i` of feature `f`.
    cols: Vec<u16>,
}

impl BinnedDataset {
    /// Fits a quantile [`BinMapper`] on `data` and bins every value.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins < 2` (see [`BinMapper::fit`]).
    pub fn fit(data: &Dataset, max_bins: usize) -> Self {
        let mapper = BinMapper::fit(data, max_bins);
        let (n_rows, n_features) = (data.n_rows(), data.n_features());
        let mut cols = vec![0u16; n_rows * n_features];
        for i in 0..n_rows {
            for f in 0..n_features {
                cols[f * n_rows + i] = mapper.bin(f, data.value(i, f));
            }
        }
        Self {
            mapper,
            n_rows,
            n_features,
            cols,
        }
    }

    /// Number of binned rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of bins for feature `f`, including the missing bin.
    pub fn n_bins(&self, f: usize) -> usize {
        self.mapper.n_bins(f)
    }

    /// The underlying mapper.
    pub fn mapper(&self) -> &BinMapper {
        &self.mapper
    }

    /// The bins of feature `f` across all rows (contiguous).
    pub fn column(&self, f: usize) -> &[u16] {
        &self.cols[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Per-bin gradient statistics for one feature at one tree node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureHistogram {
    /// Sum of gradients per bin.
    pub grad: Vec<f64>,
    /// Sum of hessians per bin.
    pub hess: Vec<f64>,
    /// Row count per bin.
    pub count: Vec<u32>,
}

impl FeatureHistogram {
    /// Creates an all-zero histogram with `n_bins` bins.
    pub fn zeros(n_bins: usize) -> Self {
        Self {
            grad: vec![0.0; n_bins],
            hess: vec![0.0; n_bins],
            count: vec![0; n_bins],
        }
    }

    /// Accumulates one observation into `bin`.
    #[inline]
    pub fn add(&mut self, bin: u16, grad: f64, hess: f64) {
        let b = bin as usize;
        self.grad[b] += grad;
        self.hess[b] += hess;
        self.count[b] += 1;
    }

    /// The sibling histogram under LightGBM's subtraction trick: a node's
    /// children partition its rows, so `sibling = parent - self` bin by
    /// bin. Split search scans only the smaller child and derives the
    /// larger one with this in O(bins) instead of O(rows).
    ///
    /// # Panics
    ///
    /// Panics if the bin counts differ.
    pub fn subtracted_from(&self, parent: &Self) -> Self {
        assert_eq!(self.grad.len(), parent.grad.len(), "bin count mismatch");
        Self {
            grad: parent
                .grad
                .iter()
                .zip(&self.grad)
                .map(|(p, c)| p - c)
                .collect(),
            hess: parent
                .hess
                .iter()
                .zip(&self.hess)
                .map(|(p, c)| p - c)
                .collect(),
            count: parent
                .count
                .iter()
                .zip(&self.count)
                .map(|(p, c)| p - c)
                .collect(),
        }
    }

    /// Total gradient/hessian/count across all bins.
    pub fn totals(&self) -> (f64, f64, u32) {
        (
            self.grad.iter().sum(),
            self.hess.iter().sum(),
            self.count.iter().sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(values: &[f64]) -> Dataset {
        let mut data = Dataset::new(1, 2);
        for &v in values {
            data.push_row(&[v], 0).unwrap();
        }
        data
    }

    #[test]
    fn nan_maps_to_missing_bin() {
        let mapper = BinMapper::fit(&dataset(&[1.0, 2.0, 3.0]), 8);
        assert_eq!(mapper.bin(0, f64::NAN), MISSING_BIN);
        assert!(mapper.bin(0, 1.0) > MISSING_BIN);
    }

    #[test]
    fn binning_is_monotone() {
        let mapper = BinMapper::fit(&dataset(&[1.0, 5.0, 9.0, 13.0]), 8);
        let bins: Vec<u16> = [0.0, 1.0, 5.0, 9.0, 13.0, 20.0]
            .iter()
            .map(|&v| mapper.bin(0, v))
            .collect();
        for pair in bins.windows(2) {
            assert!(pair[0] <= pair[1], "bins must be monotone: {bins:?}");
        }
    }

    #[test]
    fn few_distinct_values_get_exact_bins() {
        let mapper = BinMapper::fit(&dataset(&[1.0, 1.0, 2.0, 2.0, 3.0]), 8);
        let b1 = mapper.bin(0, 1.0);
        let b2 = mapper.bin(0, 2.0);
        let b3 = mapper.bin(0, 3.0);
        assert!(b1 < b2 && b2 < b3);
    }

    #[test]
    fn many_distinct_values_respect_max_bins() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let mapper = BinMapper::fit(&dataset(&values), 16);
        assert!(mapper.n_bins(0) <= 17); // 15 edges + missing + 1
        let max_bin = values.iter().map(|&v| mapper.bin(0, v)).max().unwrap();
        assert!(max_bin as usize <= mapper.n_bins(0));
    }

    #[test]
    fn histogram_accumulates_and_totals() {
        let mut hist = FeatureHistogram::zeros(4);
        hist.add(1, 0.5, 1.0);
        hist.add(1, 0.25, 1.0);
        hist.add(3, -1.0, 2.0);
        assert_eq!(hist.count[1], 2);
        assert_eq!(hist.grad[3], -1.0);
        let (g, h, c) = hist.totals();
        assert!((g - (-0.25)).abs() < 1e-12);
        assert_eq!(h, 4.0);
        assert_eq!(c, 3);
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn mapper_rejects_one_bin() {
        BinMapper::fit(&dataset(&[1.0]), 1);
    }

    #[test]
    fn n_bins_never_exceeds_max_bins_plus_two() {
        // Regression guard for the quantile-edge loop: whatever the value
        // distribution (presorted, reversed, heavy ties, NaN-polluted),
        // the mapper must never produce more than max_bins + 2 bins.
        let mut x = 11u64;
        let mut lcg = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        let cases: Vec<Vec<f64>> = vec![
            (0..500).map(|i| i as f64).collect(),
            (0..500).rev().map(|i| i as f64).collect(),
            (0..500).map(|i| (i % 7) as f64).collect(),
            (0..500)
                .map(|i| if i % 5 == 0 { f64::NAN } else { lcg() })
                .collect(),
            (0..500).map(|_| lcg().floor() * 3.0).collect(),
        ];
        for values in cases {
            for max_bins in [2, 3, 16, 255] {
                let mapper = BinMapper::fit(&dataset(&values), max_bins);
                assert!(
                    mapper.n_bins(0) <= max_bins + 2,
                    "n_bins {} exceeds max_bins {} + 2",
                    mapper.n_bins(0),
                    max_bins
                );
                for &v in &values {
                    assert!((mapper.bin(0, v) as usize) < mapper.n_bins(0));
                }
            }
        }
    }

    #[test]
    fn presorted_and_shuffled_columns_produce_identical_mappers() {
        // The sortedness fast path must not change the fitted boundaries.
        let sorted: Vec<f64> = (0..300).map(|i| (i as f64).sqrt()).collect();
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        shuffled.swap(3, 250);
        let a = BinMapper::fit(&dataset(&sorted), 16);
        let b = BinMapper::fit(&dataset(&shuffled), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn binned_dataset_layouts_agree() {
        let mut data = Dataset::new(3, 2);
        data.push_row(&[1.0, f64::NAN, 10.0], 0).unwrap();
        data.push_row(&[2.0, 5.0, 20.0], 1).unwrap();
        data.push_row(&[3.0, 6.0, 30.0], 0).unwrap();
        let binned = BinnedDataset::fit(&data, 8);
        assert_eq!(binned.n_rows(), 3);
        assert_eq!(binned.n_features(), 3);
        for i in 0..3 {
            let bin_row = binned.mapper().bin_row(data.row(i));
            for (f, &bin) in bin_row.iter().enumerate() {
                assert_eq!(binned.column(f)[i], bin);
            }
        }
        assert_eq!(binned.n_bins(1), binned.mapper().n_bins(1));
    }

    #[test]
    fn histogram_subtraction_matches_direct_build() {
        // Parent rows split into two children: subtracting the scanned
        // child from the parent must reproduce the sibling exactly
        // (counts) and to f64 subtraction (sums).
        let mut parent = FeatureHistogram::zeros(4);
        let mut left = FeatureHistogram::zeros(4);
        let samples = [
            (1u16, 0.5, 1.0),
            (2, -0.25, 2.0),
            (1, 0.125, 1.5),
            (3, 4.0, 0.5),
        ];
        for (i, &(bin, g, h)) in samples.iter().enumerate() {
            parent.add(bin, g, h);
            if i % 2 == 0 {
                left.add(bin, g, h);
            }
        }
        let right = left.subtracted_from(&parent);
        let mut expected = FeatureHistogram::zeros(4);
        for (i, &(bin, g, h)) in samples.iter().enumerate() {
            if i % 2 != 0 {
                expected.add(bin, g, h);
            }
        }
        assert_eq!(right.count, expected.count);
        for b in 0..4 {
            assert!((right.grad[b] - expected.grad[b]).abs() < 1e-12);
            assert!((right.hess[b] - expected.hess[b]).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_feature_yields_single_bin() {
        let mapper = BinMapper::fit(&dataset(&[7.0, 7.0, 7.0]), 8);
        assert_eq!(mapper.bin(0, 7.0), 1);
        assert_eq!(mapper.n_bins(0), 2);
    }
}
