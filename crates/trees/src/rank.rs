//! Feature ranks encoded once per fit, for the exact split searches of
//! [`Gbdt`](crate::Gbdt) and [`DecisionTree`](crate::DecisionTree).
//!
//! Both searches order a node's rows by one feature and scan prefix sums
//! in that order. Sorting the `f64` values again at every node of every
//! tree would dominate their fit time, so [`RankedColumns`] instead encodes
//! each feature once as dense `u32` ranks under the scans' own order: NaN
//! ties −∞ at the bottom and −0.0 ties +0.0. A node then sorts integer
//! position keys, `rank << 32 | position` with `position` an index into
//! the node's rows ([`RankSort`]), which is the idea behind XGBoost's
//! pre-sorted column blocks (Chen & Guestrin, KDD 2016). Two keys compare
//! equal in rank exactly when their [`nan_first`] values are equal, so a
//! scan compares ranks and reads a value only to place a threshold.
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

/// The rank half of a position key.
pub(crate) fn rank_of(key: u64) -> u64 {
    key >> 32
}

/// The position half of a position key: an index into the node's rows.
pub(crate) fn position_of(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

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
    /// Whether each feature's rank 0 is the −∞ key: the column holds NaN
    /// or −∞.
    bottom_is_neg_inf: Vec<bool>,
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
        let mut bottom_is_neg_inf = Vec::with_capacity(n_features);
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
            bottom_is_neg_inf.push(by_key.first().is_some_and(|k| k.0 == f64::NEG_INFINITY));
        }
        RankedColumns {
            n_rows,
            ranks,
            values,
            rank_bits,
            bottom_is_neg_inf,
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

    /// Whether rank 0 of `feature` is the −∞ key, so that a row of rank 0
    /// is NaN or −∞ there.
    pub(crate) fn bottom_is_neg_inf(&self, feature: usize) -> bool {
        self.bottom_is_neg_inf[feature]
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
    /// One position key per row of the node; the sorts compare ranks only.
    keys: Vec<u64>,
    spare: Vec<u64>,
    /// Radix bucket starts, `1 << min(DIGIT_BITS, rank_bits)` of them.
    buckets: Vec<usize>,
}

impl RankSort {
    /// Returns one `rank << 32 | position` key per entry of `rows`, where
    /// `position` indexes `rows`, stably sorted by rank in `feature`: ties
    /// keep their order in `rows`, as a stable sort of the values would.
    ///
    /// # Panics
    ///
    /// Panics if `rows` has more entries than a `u32` position can address.
    pub(crate) fn keys(
        &mut self,
        ranked: &RankedColumns,
        feature: usize,
        rows: &[usize],
    ) -> &[u64] {
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "position keys support at most 2^32 - 1 rows per node"
        );
        let ranks = &ranked.ranks[feature * ranked.n_rows..(feature + 1) * ranked.n_rows];
        self.keys.clear();
        self.keys.extend(
            rows.iter()
                .zip(0u64..)
                .map(|(&row, position)| (u64::from(ranks[row]) << 32) | position),
        );
        if self.keys.len() < INSERTION_SORT_MAX {
            insertion_sort_by_rank(&mut self.keys);
        } else {
            radix_sort_by_rank(
                &mut self.keys,
                &mut self.spare,
                &mut self.buckets,
                ranked.rank_bits[feature],
            );
        }
        &self.keys
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
/// one pass per `min(DIGIT_BITS, rank_bits)` bits of `rank_bits`, so a
/// narrow feature zeroes and sums only the buckets its ranks can use.
fn radix_sort_by_rank(
    keys: &mut Vec<u64>,
    spare: &mut Vec<u64>,
    buckets: &mut Vec<usize>,
    rank_bits: u32,
) {
    let digit_bits = rank_bits.min(DIGIT_BITS);
    if digit_bits == 0 {
        return; // one rank: already in order
    }
    let mask = (1usize << digit_bits) - 1;
    let digit = |key: u64, shift: u32| ((key >> shift) as usize) & mask;
    buckets.resize(mask + 1, 0);
    for shift in (32..32 + rank_bits).step_by(digit_bits as usize) {
        buckets.fill(0);
        for &key in keys.iter() {
            buckets[digit(key, shift)] += 1;
        }
        if buckets[digit(keys[0], shift)] == keys.len() {
            continue; // one bucket: the pass would not move anything
        }
        let mut next = 0;
        for start in buckets.iter_mut() {
            let count = *start;
            *start = next;
            next += count;
        }
        spare.resize(keys.len(), 0);
        for &key in keys.iter() {
            let d = digit(key, shift);
            spare[buckets[d]] = key;
            buckets[d] += 1;
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

    /// The rows of a node in the order its position keys give.
    fn key_order(keys: &[u64], rows: &[usize]) -> Vec<usize> {
        keys.iter().map(|&key| rows[position_of(key)]).collect()
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
        assert!(ranked.bottom_is_neg_inf(0));
        assert!(ranked.values(0)[1].is_nan(), "raw values keep NaN");
        let finite = RankedColumns::new(&one_column(&[1.0, f64::INFINITY, -3.0]));
        assert!(!finite.bottom_is_neg_inf(0));
    }

    #[test]
    fn constant_and_empty_columns() {
        let ranked = RankedColumns::new(&one_column(&[f64::NAN, f64::NEG_INFINITY, f64::NAN]));
        assert_eq!(ranked.rank_bits, vec![0]);
        assert!(ranked.bottom_is_neg_inf(0));
        let rows = [2, 0, 1];
        let mut sort = RankSort::default();
        assert_eq!(key_order(sort.keys(&ranked, 0, &rows), &rows), rows);
        let empty = RankedColumns::new(&Dataset::new(2, 2));
        assert_eq!(empty.rank_bits, vec![0, 0]);
        assert!(!empty.bottom_is_neg_inf(1));
    }

    #[test]
    fn partition_routes_nan_left() {
        let ranked = RankedColumns::new(&one_column(&[3.0, f64::NAN, 1.0, 5.0]));
        let mut rows = vec![0, 1, 2, 3];
        assert_eq!(ranked.partition(&mut rows, 0, 2.0), 2);
        assert_eq!(&rows[..2], &[1, 2]);
    }

    /// The value of `level` in a column whose keys take exactly `n_levels`
    /// distinct values. `alt` picks between values that share a key: NaN
    /// or −∞ at the bottom, −0.0 or +0.0 at level 2. The top level of
    /// three or more is +∞.
    fn level_value(level: usize, n_levels: usize, alt: bool) -> f64 {
        match level {
            0 if alt => f64::NAN,
            0 => f64::NEG_INFINITY,
            _ if level == n_levels - 1 && n_levels > 2 => f64::INFINITY,
            2 if alt => -0.0,
            _ => level as f64 - 2.0,
        }
    }

    /// A rank width from 1 to 13 bits, a column whose ranks need exactly
    /// that many (past 11 bits the radix sort takes a second pass), and a
    /// node's rows: every level once, then heavy ties.
    fn arb_column_and_rows() -> impl Strategy<Value = (u32, Vec<f64>, Vec<usize>)> {
        (1u32..=13)
            .prop_flat_map(|width| {
                let n_levels = (1usize << (width - 1)) + 1..=1usize << width;
                let extra = prop::collection::vec((0usize..1 << width, 0u8..2), 0..2000);
                (Just(width), n_levels, extra)
            })
            .prop_flat_map(|(width, n_levels, extra)| {
                let column: Vec<f64> = (0..n_levels)
                    .map(|level| level_value(level, n_levels, level % 2 == 0))
                    .chain(
                        extra
                            .iter()
                            .map(|&(level, alt)| level_value(level % n_levels, n_levels, alt == 1)),
                    )
                    .collect();
                // Repeats allowed: bootstrap samples hand a row in many times.
                let rows = prop::collection::vec(0..column.len(), 1..2000);
                (Just(width), Just(column), rows)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn rank_order_is_the_stable_value_order(
            (width, column, rows) in arb_column_and_rows(),
        ) {
            let ranked = RankedColumns::new(&one_column(&column));
            prop_assert_eq!(ranked.rank_bits[0], width);
            let mut sort = RankSort::default();
            let keys = sort.keys(&ranked, 0, &rows);
            prop_assert_eq!(key_order(keys, &rows), value_sorted(&column, &rows));
            prop_assert!(keys.iter().all(|&key| rank_of(key) == u64::from(ranked.ranks[rows[position_of(key)]])));
        }
    }
}
