//! Feature ranks encoded once per fit, for the exact split searches of
//! [`Gbdt`](crate::Gbdt) and [`DecisionTree`](crate::DecisionTree).
//!
//! Both searches order a node's rows by one feature and scan prefix sums
//! in that order. Sorting the `f64` values again at every node of every
//! tree would dominate their fit time, so [`RankedColumns`] instead encodes
//! each feature once as dense `u32` ranks under the scans' own order: NaN
//! ties −∞ at the bottom and −0.0 ties +0.0. A node then sorts its row ids
//! by an integer key ([`RankSort`]), which is the idea behind XGBoost's
//! pre-sorted column blocks (Chen & Guestrin, KDD 2016).
//!
//! Equal values share a rank and every sort here is stable, so a node's
//! rows come out in exactly the permutation a stable comparison sort of
//! the values gives. The scans therefore see identical input, and every
//! fitted model is bit-identical to one grown with per-node value sorts.

use crate::data::Dataset;

/// Digit width of the per-node radix sort: at most two passes for up to
/// 2²² distinct values per feature.
const DIGIT_BITS: u32 = 11;

/// Nodes below this many rows use an insertion sort instead.
const INSERTION_SORT_MAX: usize = 64;

/// Low half of a sort key: the row id.
const ROW_MASK: u64 = u32::MAX as u64;

/// The split-search order's key for a value: NaN sorts with −∞, first.
pub(crate) fn nan_first(v: f64) -> f64 {
    if v.is_nan() {
        f64::NEG_INFINITY
    } else {
        v
    }
}

/// Every feature of a dataset as dense ranks plus the raw values, both
/// column-major: 12 bytes per (row, feature), freed with the fit.
pub(crate) struct RankedColumns {
    n_rows: usize,
    /// `ranks[feature * n_rows + row]`: 0 for the lowest [`nan_first`] key.
    ranks: Vec<u32>,
    /// `values[feature * n_rows + row]`: the raw value, NaN included.
    values: Vec<f64>,
    /// Bits needed to hold each feature's largest rank (0 when constant).
    rank_bits: Vec<u32>,
}

impl RankedColumns {
    /// Encodes every feature of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` has more rows than a `u32` row id can address.
    pub(crate) fn new(data: &Dataset) -> Self {
        let n_rows = data.n_rows();
        assert!(
            u32::try_from(n_rows).is_ok(),
            "rank encoding supports at most 2^32 - 1 rows"
        );
        let n_features = data.n_features();
        let mut ranks = vec![0u32; n_rows * n_features];
        let mut values = Vec::with_capacity(n_rows * n_features);
        let mut rank_bits = Vec::with_capacity(n_features);
        let mut by_key: Vec<(f64, u32)> = Vec::with_capacity(n_rows);
        for feature in 0..n_features {
            values.extend((0..n_rows).map(|row| data.value(row, feature)));
            by_key.clear();
            by_key.extend(
                values[feature * n_rows..]
                    .iter()
                    .zip(0u32..)
                    .map(|(&v, row)| (nan_first(v), row)),
            );
            by_key.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let column_ranks = &mut ranks[feature * n_rows..(feature + 1) * n_rows];
            let mut rank = 0u32;
            for pos in 0..by_key.len() {
                // `!=` keeps −0.0 and +0.0 (and NaN with −∞) on one rank.
                if pos > 0 && by_key[pos].0 != by_key[pos - 1].0 {
                    rank += 1;
                }
                column_ranks[by_key[pos].1 as usize] = rank;
            }
            rank_bits.push(u32::BITS - rank.leading_zeros());
        }
        RankedColumns {
            n_rows,
            ranks,
            values,
            rank_bits,
        }
    }

    /// Number of encoded features.
    pub(crate) fn n_features(&self) -> usize {
        self.rank_bits.len()
    }

    /// Raw values of one feature, indexed by row id.
    pub(crate) fn values(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    /// Moves the rows whose `feature` is NaN or `<= threshold` to the front
    /// of `rows` and returns how many there are.
    pub(crate) fn partition(&self, rows: &mut [usize], feature: usize, threshold: f64) -> usize {
        let column = self.values(feature);
        let mut mid = 0;
        for i in 0..rows.len() {
            let v = column[rows[i]];
            if v.is_nan() || v <= threshold {
                rows.swap(i, mid);
                mid += 1;
            }
        }
        mid
    }
}

/// Reusable buffers for ordering a node's rows by one feature's ranks.
#[derive(Debug, Default)]
pub(crate) struct RankSort {
    /// `rank << 32 | row` per row; the sorts compare the high half only.
    keys: Vec<u64>,
    spare: Vec<u64>,
    order: Vec<usize>,
}

impl RankSort {
    /// Returns `rows` stably sorted by their rank in `feature`: ties keep
    /// their order in `rows`, as a stable sort of the values would.
    pub(crate) fn sort(
        &mut self,
        ranked: &RankedColumns,
        feature: usize,
        rows: &[usize],
    ) -> &[usize] {
        let ranks = &ranked.ranks[feature * ranked.n_rows..(feature + 1) * ranked.n_rows];
        self.keys.clear();
        self.keys.extend(
            rows.iter()
                .map(|&row| (u64::from(ranks[row]) << 32) | row as u64),
        );
        if self.keys.len() < INSERTION_SORT_MAX {
            insertion_sort_by_rank(&mut self.keys);
        } else {
            radix_sort_by_rank(&mut self.keys, &mut self.spare, ranked.rank_bits[feature]);
        }
        self.order.clear();
        self.order
            .extend(self.keys.iter().map(|&key| (key & ROW_MASK) as usize));
        &self.order
    }
}

fn insertion_sort_by_rank(keys: &mut [u64]) {
    for i in 1..keys.len() {
        let key = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] >> 32 > key >> 32 {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
    }
}

/// Stable least-significant-digit radix sort on the rank half of `keys`,
/// one pass per [`DIGIT_BITS`] of `rank_bits`.
fn radix_sort_by_rank(keys: &mut Vec<u64>, spare: &mut Vec<u64>, rank_bits: u32) {
    let digit = |key: u64, shift: u32| ((key >> shift) as usize) & ((1 << DIGIT_BITS) - 1);
    let mut starts = [0usize; 1 << DIGIT_BITS];
    for shift in (32..32 + rank_bits).step_by(DIGIT_BITS as usize) {
        starts.fill(0);
        for &key in keys.iter() {
            starts[digit(key, shift)] += 1;
        }
        if starts[digit(keys[0], shift)] == keys.len() {
            continue; // one bucket: the pass would not move anything
        }
        let mut next = 0;
        for start in &mut starts {
            let count = *start;
            *start = next;
            next += count;
        }
        spare.resize(keys.len(), 0);
        for &key in keys.iter() {
            let d = digit(key, shift);
            spare[starts[d]] = key;
            starts[d] += 1;
        }
        std::mem::swap(keys, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The order the split searches sorted by before ranks existed.
    fn value_sorted(column: &[f64], rows: &[usize]) -> Vec<usize> {
        let mut sorted = rows.to_vec();
        sorted.sort_by(|&a, &b| {
            nan_first(column[a])
                .partial_cmp(&nan_first(column[b]))
                .expect("nan_first removes NaN")
        });
        sorted
    }

    fn one_column(values: &[f64]) -> Dataset {
        let mut data = Dataset::new(1, 1);
        for &v in values {
            data.push_row(&[v], 0).unwrap();
        }
        data
    }

    #[test]
    fn nan_ties_negative_infinity_and_signed_zeros_tie() {
        let data = one_column(&[0.0, f64::NAN, -0.0, f64::NEG_INFINITY, 2.0, -1.0]);
        let ranked = RankedColumns::new(&data);
        let ranks = &ranked.ranks[..];
        assert_eq!(ranks, &[2, 0, 2, 0, 3, 1]);
        assert_eq!(ranked.rank_bits, vec![2]);
        assert!(ranked.values(0)[1].is_nan(), "raw values keep NaN");
    }

    #[test]
    fn constant_and_empty_columns() {
        let ranked = RankedColumns::new(&one_column(&[f64::NAN, f64::NEG_INFINITY, f64::NAN]));
        assert_eq!(ranked.rank_bits, vec![0]);
        assert_eq!(RankSort::default().sort(&ranked, 0, &[2, 0, 1]), &[2, 0, 1]);
        let empty = RankedColumns::new(&Dataset::new(2, 2));
        assert_eq!(empty.rank_bits, vec![0, 0]);
    }

    #[test]
    fn partition_routes_nan_left() {
        let ranked = RankedColumns::new(&one_column(&[3.0, f64::NAN, 1.0, 5.0]));
        let mut rows = vec![0, 1, 2, 3];
        assert_eq!(ranked.partition(&mut rows, 0, 2.0), 2);
        assert_eq!(&rows[..2], &[1, 2]);
    }

    /// Values with heavy ties and every special the order has to place.
    const POOL: [f64; 10] = [
        f64::NAN,
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0,
        0.0,
        1.0,
        -1.0,
        2.5,
        1e-300,
        -7.0,
    ];

    fn arb_column_and_rows() -> impl Strategy<Value = (Vec<f64>, Vec<usize>)> {
        // Past 2048 distinct values the radix sort takes a second pass.
        (1usize..5000, 0usize..=2).prop_flat_map(|(n_rows, spread)| {
            let value = prop_oneof![
                1 => (0usize..POOL.len()).prop_map(|i| POOL[i]),
                3 => (0u32..[4u32, 40, 1_000_000][spread]).prop_map(f64::from),
            ];
            let column = prop::collection::vec(value, n_rows);
            // Repeats allowed: bootstrap samples hand a row in many times.
            let rows = prop::collection::vec(0..n_rows, 1..400);
            (column, rows)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn rank_order_is_the_stable_value_order((column, rows) in arb_column_and_rows()) {
            let ranked = RankedColumns::new(&one_column(&column));
            let mut sort = RankSort::default();
            prop_assert_eq!(sort.sort(&ranked, 0, &rows), &value_sorted(&column, &rows)[..]);
        }
    }
}
