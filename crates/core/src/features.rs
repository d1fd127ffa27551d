//! Failure-pattern feature extraction (paper §IV-B and §IV-D).
//!
//! Features are generated from a bank's *observed window*: all CEs and UEOs
//! plus the first three (distinct-row) UERs. Three groups are extracted,
//! exactly following §IV-B:
//!
//! * **Spatial** — min/max error rows per severity, min/max/mean row
//!   differences between consecutive errors, and the pairwise distances of
//!   the observed UER rows (the classifier's key signal: three neighbouring
//!   UER rows ⇒ single-row clustering; one far from two clustered ⇒
//!   double-row; all far apart ⇒ scattered);
//! * **Temporal** — min/max inter-arrival times per severity;
//! * **Count** — CE/UEO totals before the first UER (error density).
//!
//! Missing values (e.g. no UEO observed) are encoded as `NaN`; every model
//! in [`cordial_trees`] is NaN-tolerant by construction.

use cordial_mcelog::{ErrorType, ObservedWindow};
use cordial_topology::HbmGeometry;

use crate::incremental::IncrementalBankFeatures;

/// Names of the bank-level features, aligned with
/// [`bank_features`]'s output.
pub const BANK_FEATURE_NAMES: [&str; 27] = [
    "ce_count_before_first_uer",
    "ueo_count_before_first_uer",
    "ce_row_min",
    "ce_row_max",
    "ueo_row_min",
    "ueo_row_max",
    "uer_row_min",
    "uer_row_max",
    "uer_row_span",
    "row_diff_min",
    "row_diff_max",
    "row_diff_mean",
    "uer_row_diff_min",
    "uer_row_diff_max",
    "uer_row_diff_mean",
    "ce_time_diff_min_s",
    "ce_time_diff_max_s",
    "ueo_time_diff_min_s",
    "ueo_time_diff_max_s",
    "uer_time_diff_min_s",
    "uer_time_diff_max_s",
    "uer_pairwise_dist_small",
    "uer_pairwise_dist_mid",
    "uer_pairwise_dist_large",
    "uer_dist_ratio",
    "uer_span_fraction",
    "total_event_count",
];

/// Names of the block-level features (block context followed by the bank
/// features), aligned with [`block_features`]'s output.
pub const BLOCK_CONTEXT_FEATURE_NAMES: [&str; 9] = [
    "block_index",
    "block_offset_signed",
    "block_offset_abs",
    "block_min_dist_to_uer_row",
    "block_min_dist_to_ce_row",
    "block_min_dist_to_ueo_row",
    "block_ce_count",
    "block_ueo_count",
    "block_uer_count",
];

/// Total length of a block feature vector.
pub const BLOCK_FEATURE_LEN: usize = BLOCK_CONTEXT_FEATURE_NAMES.len() + BANK_FEATURE_NAMES.len();

/// Running min/max/mean of |x[i+1] − x[i]| over a value stream, with the
/// same NaN encoding as [`consecutive_abs_diff_stats`] (all-NaN below two
/// values). `f64::min`/`f64::max` discard the NaN seed exactly like the
/// fold in [`min_of`]/[`max_of`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiffScan {
    pub(crate) prev: f64,
    pub(crate) seen: usize,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) sum: f64,
}

impl DiffScan {
    pub(crate) const EMPTY: Self = Self {
        prev: f64::NAN,
        seen: 0,
        min: f64::NAN,
        max: f64::NAN,
        sum: 0.0,
    };

    pub(crate) fn absorb(&mut self, value: f64) {
        if self.seen > 0 {
            let diff = (value - self.prev).abs();
            self.min = self.min.min(diff);
            self.max = self.max.max(diff);
            self.sum += diff;
        }
        self.prev = value;
        self.seen += 1;
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.seen < 2 {
            f64::NAN
        } else {
            self.sum / (self.seen - 1) as f64
        }
    }
}

/// Running per-severity aggregates of one [`IncrementalBankFeatures`] fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeverityScan {
    pub(crate) row_min: f64,
    pub(crate) row_max: f64,
    pub(crate) times: DiffScan,
}

impl SeverityScan {
    pub(crate) const EMPTY: Self = Self {
        row_min: f64::NAN,
        row_max: f64::NAN,
        times: DiffScan::EMPTY,
    };

    pub(crate) fn absorb(&mut self, row: f64, time_s: f64) {
        self.row_min = self.row_min.min(row);
        self.row_max = self.row_max.max(row);
        self.times.absorb(time_s);
    }
}

/// Extracts the §IV-B bank-level feature vector from an observed window:
/// one [`IncrementalBankFeatures`] fold over the window's events (see
/// [`crate::incremental`]).
pub fn bank_features(window: &ObservedWindow<'_>, geom: &HbmGeometry) -> Vec<f64> {
    // Windows are sorted by construction, so the fold cannot go unsorted.
    IncrementalBankFeatures::replay(window.events()).assemble(geom)
}

/// Extracts the §IV-D block-level feature vector: block context relative to
/// the prediction window plus the full bank feature vector.
///
/// `block_lo..=block_hi` is the block's (possibly bank-clamped) row range
/// and `anchor` is the last observed UER row the window is centred on.
pub fn block_features(
    window: &ObservedWindow<'_>,
    bank_feats: &[f64],
    block_index: usize,
    block_lo: i64,
    block_hi: i64,
    anchor: i64,
) -> Vec<f64> {
    debug_assert_eq!(bank_feats.len(), BANK_FEATURE_NAMES.len());
    let center = (block_lo + block_hi) as f64 / 2.0;
    let offset = center - anchor as f64;

    let mut min_dist = [f64::NAN; 3]; // UER, CE, UEO
    let mut counts = [0.0f64; 3]; // CE, UEO, UER
    for event in window.events() {
        let row = event.addr.row.0 as i64;
        let dist = if row < block_lo {
            (block_lo - row) as f64
        } else if row > block_hi {
            (row - block_hi) as f64
        } else {
            0.0
        };
        let (dist_slot, count_slot) = match event.error_type {
            ErrorType::Uer => (0, 2),
            ErrorType::Ce => (1, 0),
            ErrorType::Ueo => (2, 1),
        };
        if min_dist[dist_slot].is_nan() || dist < min_dist[dist_slot] {
            min_dist[dist_slot] = dist;
        }
        if dist == 0.0 {
            counts[count_slot] += 1.0;
        }
    }

    let mut out = Vec::with_capacity(BLOCK_FEATURE_LEN);
    out.push(block_index as f64);
    out.push(offset);
    out.push(offset.abs());
    out.push(min_dist[0]);
    out.push(min_dist[1]);
    out.push(min_dist[2]);
    out.push(counts[0]);
    out.push(counts[1]);
    out.push(counts[2]);
    out.extend_from_slice(bank_feats);
    out
}

/// The single-pass scan [`bank_features`] ran before the fold replaced it,
/// kept verbatim (minus its reusable scratch buffers) as the oracle the
/// fold is pinned against, bit for bit.
#[cfg(test)]
pub(crate) fn reference_bank_features(window: &ObservedWindow<'_>, geom: &HbmGeometry) -> Vec<f64> {
    let events = window.events();

    let mut ce = SeverityScan::EMPTY;
    let mut ueo = SeverityScan::EMPTY;
    let mut uer = SeverityScan::EMPTY;
    let mut all_rows = DiffScan::EMPTY;
    let mut uer_rows = DiffScan::EMPTY;

    // Counts before the first UER (§IV-B count features): strictly earlier
    // timestamps only, every CE/UEO when no UER exists. Until the first
    // UER's timestamp is known, candidate times are buffered.
    let mut first_uer_time = None;
    let mut ce_before = 0usize;
    let mut ueo_before = 0usize;
    let mut pending_ce = Vec::new();
    let mut pending_ueo = Vec::new();

    for e in events {
        let row = e.addr.row.0 as f64;
        let time_s = e.time.as_millis() as f64 / 1000.0;
        all_rows.absorb(row);
        match e.error_type {
            ErrorType::Ce => ce.absorb(row, time_s),
            ErrorType::Ueo => ueo.absorb(row, time_s),
            ErrorType::Uer => {
                uer.absorb(row, time_s);
                uer_rows.absorb(row);
            }
        }
        match first_uer_time {
            Some(t) => match e.error_type {
                ErrorType::Ce if e.time < t => ce_before += 1,
                ErrorType::Ueo if e.time < t => ueo_before += 1,
                _ => {}
            },
            None if e.is_uer() => {
                first_uer_time = Some(e.time);
                ce_before = pending_ce.iter().filter(|&&t| t < e.time).count();
                ueo_before = pending_ueo.iter().filter(|&&t| t < e.time).count();
            }
            None => match e.error_type {
                ErrorType::Ce => pending_ce.push(e.time),
                ErrorType::Ueo => pending_ueo.push(e.time),
                ErrorType::Uer => unreachable!("handled above"),
            },
        }
    }
    if first_uer_time.is_none() {
        ce_before = pending_ce.len();
        ueo_before = pending_ueo.len();
    }

    let uer_span = if uer_rows.seen == 0 {
        f64::NAN
    } else {
        uer.row_max - uer.row_min
    };

    // Pairwise distances among the distinct observed UER rows.
    let distinct_uer: Vec<f64> = window.uer_rows().iter().map(|r| r.0 as f64).collect();
    let mut pairwise: Vec<f64> = Vec::new();
    for i in 0..distinct_uer.len() {
        for j in (i + 1)..distinct_uer.len() {
            pairwise.push((distinct_uer[i] - distinct_uer[j]).abs());
        }
    }
    pairwise.sort_by(f64::total_cmp);
    let pd = |i: usize| pairwise.get(i).copied().unwrap_or(f64::NAN);
    let dist_ratio = if pairwise.len() >= 2 {
        pairwise[pairwise.len() - 1] / (pairwise[0] + 1.0)
    } else {
        f64::NAN
    };

    vec![
        ce_before as f64,
        ueo_before as f64,
        ce.row_min,
        ce.row_max,
        ueo.row_min,
        ueo.row_max,
        uer.row_min,
        uer.row_max,
        uer_span,
        all_rows.min,
        all_rows.max,
        all_rows.mean(),
        uer_rows.min,
        uer_rows.max,
        uer_rows.mean(),
        ce.times.min,
        ce.times.max,
        ueo.times.min,
        ueo.times.max,
        uer.times.min,
        uer.times.max,
        pd(0),
        pd(pairwise.len().saturating_sub(1) / 2),
        pd(pairwise.len().saturating_sub(1)),
        dist_ratio,
        uer_span / geom.rows as f64,
        events.len() as f64,
    ]
}

/// Reference multi-pass fold that [`DiffScan`] replaced; kept as the
/// oracle the equivalence tests compare the streaming scan against.
#[cfg(test)]
fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// See [`min_of`].
#[cfg(test)]
fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Min/max/mean of |x[i+1] - x[i]|; all-NaN for fewer than two values.
/// Reference implementation for the [`DiffScan`] equivalence tests.
#[cfg(test)]
fn consecutive_abs_diff_stats(values: &[f64]) -> (f64, f64, f64) {
    if values.len() < 2 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let diffs: Vec<f64> = values.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
    (min_of(&diffs), max_of(&diffs), mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial_mcelog::{BankErrorHistory, ErrorEvent, Timestamp};
    use cordial_topology::{BankAddress, ColId, RowId};

    fn ev(row: u32, t: u64, ty: ErrorType) -> ErrorEvent {
        ErrorEvent::new(
            BankAddress::default().cell(RowId(row), ColId(0)),
            Timestamp::from_secs(t),
            ty,
        )
    }

    fn feats(events: Vec<ErrorEvent>, k: usize) -> Vec<f64> {
        let history = BankErrorHistory::new(BankAddress::default(), events);
        let (window, _) = history.observe_until_k_uers(k).expect("window exists");
        bank_features(&window, &HbmGeometry::hbm2e_8hi())
    }

    fn idx(name: &str) -> usize {
        BANK_FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown feature {name}"))
    }

    #[test]
    fn feature_vector_has_declared_length() {
        let f = feats(
            vec![
                ev(10, 1, ErrorType::Ce),
                ev(100, 2, ErrorType::Uer),
                ev(101, 3, ErrorType::Uer),
                ev(102, 4, ErrorType::Uer),
            ],
            3,
        );
        assert_eq!(f.len(), BANK_FEATURE_NAMES.len());
    }

    #[test]
    fn count_features_count_only_before_first_uer() {
        let f = feats(
            vec![
                ev(10, 1, ErrorType::Ce),
                ev(11, 2, ErrorType::Ce),
                ev(12, 3, ErrorType::Ueo),
                ev(100, 4, ErrorType::Uer),
                ev(101, 5, ErrorType::Uer),
                ev(102, 6, ErrorType::Uer),
            ],
            3,
        );
        assert_eq!(f[idx("ce_count_before_first_uer")], 2.0);
        assert_eq!(f[idx("ueo_count_before_first_uer")], 1.0);
    }

    #[test]
    fn spatial_extrema_are_per_severity() {
        let f = feats(
            vec![
                ev(5, 1, ErrorType::Ce),
                ev(500, 2, ErrorType::Ce),
                ev(100, 3, ErrorType::Uer),
                ev(110, 4, ErrorType::Uer),
                ev(120, 5, ErrorType::Uer),
            ],
            3,
        );
        assert_eq!(f[idx("ce_row_min")], 5.0);
        assert_eq!(f[idx("ce_row_max")], 500.0);
        assert_eq!(f[idx("uer_row_min")], 100.0);
        assert_eq!(f[idx("uer_row_max")], 120.0);
        assert_eq!(f[idx("uer_row_span")], 20.0);
        assert!(f[idx("ueo_row_min")].is_nan());
    }

    #[test]
    fn pairwise_distances_identify_clustering_signature() {
        // Two neighbouring rows plus one distant row → double-row signature:
        // small min distance, large max distance.
        let f = feats(
            vec![
                ev(100, 1, ErrorType::Uer),
                ev(103, 2, ErrorType::Uer),
                ev(9000, 3, ErrorType::Uer),
            ],
            3,
        );
        assert_eq!(f[idx("uer_pairwise_dist_small")], 3.0);
        assert_eq!(f[idx("uer_pairwise_dist_large")], 8900.0);
        assert!(f[idx("uer_dist_ratio")] > 1000.0);
    }

    #[test]
    fn temporal_diffs_capture_burstiness() {
        let f = feats(
            vec![
                ev(1, 0, ErrorType::Uer),
                ev(2, 10, ErrorType::Uer),
                ev(3, 100, ErrorType::Uer),
            ],
            3,
        );
        assert_eq!(f[idx("uer_time_diff_min_s")], 10.0);
        assert_eq!(f[idx("uer_time_diff_max_s")], 90.0);
        assert!(f[idx("ce_time_diff_min_s")].is_nan());
    }

    #[test]
    fn features_depend_only_on_window_content_not_event_order_of_push() {
        // Same events pushed in different order produce identical windows
        // (BankErrorHistory sorts), hence identical features.
        let events = vec![
            ev(10, 5, ErrorType::Ce),
            ev(100, 10, ErrorType::Uer),
            ev(101, 20, ErrorType::Uer),
            ev(102, 30, ErrorType::Uer),
        ];
        let mut shuffled = events.clone();
        shuffled.reverse();
        let a = feats(events, 3);
        let b = feats(shuffled, 3);
        for (x, y) in a.iter().zip(&b) {
            assert!(x == y || (x.is_nan() && y.is_nan()));
        }
    }

    #[test]
    fn block_features_measure_distance_and_containment() {
        let history = BankErrorHistory::new(
            BankAddress::default(),
            vec![
                ev(90, 1, ErrorType::Ce),
                ev(100, 2, ErrorType::Uer),
                ev(101, 3, ErrorType::Uer),
                ev(102, 4, ErrorType::Uer),
            ],
        );
        let (window, _) = history.observe_until_k_uers(3).unwrap();
        let bank = bank_features(&window, &HbmGeometry::hbm2e_8hi());
        // Block covering rows 96..=103 contains all three UERs and the CE at 90 is 6 away.
        let f = block_features(&window, &bank, 12, 96, 103, 102);
        assert_eq!(f.len(), BLOCK_FEATURE_LEN);
        assert_eq!(f[0], 12.0); // index
        assert_eq!(f[3], 0.0); // min dist to UER
        assert_eq!(f[4], 6.0); // min dist to CE
        assert!(f[5].is_nan()); // no UEO anywhere
        assert_eq!(f[6], 0.0); // CE count in block
        assert_eq!(f[8], 3.0); // UER count in block
    }

    #[test]
    fn block_offset_is_signed() {
        let history = BankErrorHistory::new(
            BankAddress::default(),
            vec![
                ev(100, 1, ErrorType::Uer),
                ev(101, 2, ErrorType::Uer),
                ev(102, 3, ErrorType::Uer),
            ],
        );
        let (window, _) = history.observe_until_k_uers(3).unwrap();
        let bank = bank_features(&window, &HbmGeometry::hbm2e_8hi());
        let below = block_features(&window, &bank, 0, 38, 45, 102);
        let above = block_features(&window, &bank, 15, 158, 165, 102);
        assert!(below[1] < 0.0);
        assert!(above[1] > 0.0);
        assert_eq!(below[2], -below[1]);
    }

    #[test]
    fn diff_stats_edge_cases() {
        assert!(consecutive_abs_diff_stats(&[]).0.is_nan());
        assert!(consecutive_abs_diff_stats(&[1.0]).2.is_nan());
        let (min, max, mean) = consecutive_abs_diff_stats(&[1.0, 4.0, 2.0]);
        assert_eq!((min, max), (2.0, 3.0));
        assert!((mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn diff_scan_matches_the_reference_fold() {
        let streams: [&[f64]; 6] = [
            &[],
            &[7.0],
            &[1.0, 4.0, 2.0],
            &[3.0, 3.0, 3.0, 3.0],
            &[0.0, -5.0, 12.5, -0.25, 100.0],
            &[1e9, 1e-9, 1e9],
        ];
        for values in streams {
            let mut scan = DiffScan::EMPTY;
            for &v in values {
                scan.absorb(v);
            }
            let (min, max, mean) = consecutive_abs_diff_stats(values);
            for (streamed, reference) in [(scan.min, min), (scan.max, max), (scan.mean(), mean)] {
                assert!(
                    streamed == reference || (streamed.is_nan() && reference.is_nan()),
                    "{values:?}: {streamed} vs {reference}"
                );
            }
        }
    }
}

/// The fold against [`reference_bank_features`], bit for bit (NaN
/// encodings included), at every prefix of random sorted streams.
#[cfg(test)]
mod fold_tests {
    use super::*;
    use cordial_mcelog::{ErrorEvent, MceLog, Timestamp};
    use cordial_topology::{BankAddress, ColId, RowId};
    use proptest::prelude::*;

    fn bank() -> BankAddress {
        BankAddress::default()
    }

    /// One random event, `0..=max_step_ms` after the previous one: small
    /// steps force duplicate timestamps, the row range forces repeated
    /// rows, and the severity weights regularly produce streams missing
    /// whole severities (whose features must come out NaN with identical
    /// bit patterns).
    fn arb_event_parts(max_step_ms: u64) -> impl Strategy<Value = (u64, u32, ErrorType)> {
        (
            0..=max_step_ms,
            0u32..48,
            prop_oneof![
                5 => Just(ErrorType::Ce),
                2 => Just(ErrorType::Ueo),
                2 => Just(ErrorType::Uer),
            ],
        )
    }

    /// A stream nondecreasing by [`MceLog::sort_key`], as every observed
    /// window is. Duplicate sort keys survive the (stable) sort, so ties
    /// are exercised too.
    fn arb_sorted_stream(max_step_ms: u64) -> impl Strategy<Value = Vec<ErrorEvent>> {
        prop::collection::vec(arb_event_parts(max_step_ms), 0..60).prop_map(|parts| {
            let mut time = 0u64;
            let mut events: Vec<ErrorEvent> = parts
                .into_iter()
                .map(|(step, row, error_type)| {
                    time += step;
                    ErrorEvent::new(
                        bank().cell(RowId(row), ColId(0)),
                        Timestamp::from_millis(time),
                        error_type,
                    )
                })
                .collect();
            events.sort_by_key(MceLog::sort_key);
            events
        })
    }

    /// Bitwise comparison with feature names in the failure message, so a
    /// mismatch points at the drifting statistic directly.
    fn assert_bitwise(reference: &[f64], fold: &[f64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(reference.len(), fold.len());
        for (name, (r, f)) in BANK_FEATURE_NAMES.iter().zip(reference.iter().zip(fold)) {
            prop_assert_eq!(
                r.to_bits(),
                f.to_bits(),
                "{}: reference {} vs fold {}",
                name,
                r,
                f
            );
        }
        Ok(())
    }

    /// One state absorbing `events` in a single pass, and
    /// [`bank_features`] over the same prefix, must both equal the oracle
    /// at every prefix.
    fn check_every_prefix(events: &[ErrorEvent]) -> Result<(), TestCaseError> {
        let geom = HbmGeometry::hbm2e_8hi();
        let mut state = IncrementalBankFeatures::new();
        for cut in 0..=events.len() {
            if cut > 0 {
                state.absorb(&events[cut - 1]);
            }
            prop_assert!(state.is_sorted());
            let window = ObservedWindow::from_sorted_events(bank(), &events[..cut]);
            let reference = reference_bank_features(&window, &geom);
            assert_bitwise(&reference, &state.vector(&geom).expect("sorted stream"))?;
            assert_bitwise(&reference, &bank_features(&window, &geom))?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn single_pass_state_matches_reference_at_every_window_slide(
            events in arb_sorted_stream(40),
        ) {
            check_every_prefix(&events)?;
        }

        /// Folding a prefix from scratch equals having slid to it.
        #[test]
        fn replay_of_any_prefix_matches_the_slid_state(events in arb_sorted_stream(40)) {
            let geom = HbmGeometry::hbm2e_8hi();
            for cut in 0..=events.len() {
                let replayed = IncrementalBankFeatures::replay(&events[..cut]);
                prop_assert_eq!(replayed.n_events(), cut);
                let window = ObservedWindow::from_sorted_events(bank(), &events[..cut]);
                assert_bitwise(
                    &reference_bank_features(&window, &geom),
                    &replayed.vector(&geom).expect("sorted"),
                )?;
            }
        }

        /// An arrival whose sort key strictly decreases disables `vector`
        /// permanently: it returns `None` from that point on, no matter how
        /// many in-order events follow.
        #[test]
        fn strictly_decreasing_arrival_disables_the_vector_forever(
            events in arb_sorted_stream(40),
            swap_seed in 0usize..1000,
            tail in prop::collection::vec(arb_event_parts(40), 0..8),
        ) {
            let geom = HbmGeometry::hbm2e_8hi();
            // Find an adjacent pair with strictly increasing keys to swap;
            // streams made entirely of duplicate keys cannot go unsorted.
            let increasing: Vec<usize> = events
                .windows(2)
                .enumerate()
                .filter(|(_, w)| MceLog::sort_key(&w[0]) < MceLog::sort_key(&w[1]))
                .map(|(i, _)| i)
                .collect();
            prop_assume!(!increasing.is_empty());
            let at = increasing[swap_seed % increasing.len()];
            let mut shuffled = events.clone();
            shuffled.swap(at, at + 1);

            let mut state = IncrementalBankFeatures::replay(&shuffled);
            prop_assert!(!state.is_sorted());
            prop_assert!(state.vector(&geom).is_none());
            let last_ms = events.last().map_or(0, |e| e.time.as_millis());
            for (step, row, error_type) in tail {
                state.absorb(&ErrorEvent::new(
                    bank().cell(RowId(row), ColId(0)),
                    Timestamp::from_millis(last_ms + 1 + step),
                    error_type,
                ));
                prop_assert!(state.vector(&geom).is_none());
            }
        }

        /// Streams missing whole severities (all-CE, no-UER, even empty)
        /// keep the corresponding features NaN with the oracle's exact bit
        /// patterns: canonicalising NaNs would change tree routing.
        #[test]
        fn missing_severities_reproduce_reference_nan_encodings(
            parts in prop::collection::vec((0u64..40, 0u32..48), 0..40),
            keep in prop_oneof![
                Just([true, false, false]),
                Just([false, true, false]),
                Just([true, true, false]),
                Just([false, false, true]),
            ],
        ) {
            let kinds: Vec<ErrorType> = [ErrorType::Ce, ErrorType::Ueo, ErrorType::Uer]
                .into_iter()
                .zip(keep)
                .filter(|(_, k)| *k)
                .map(|(kind, _)| kind)
                .collect();
            let mut time = 0u64;
            let mut events: Vec<ErrorEvent> = parts
                .iter()
                .enumerate()
                .map(|(i, &(step, row))| {
                    time += step;
                    ErrorEvent::new(
                        bank().cell(RowId(row), ColId(0)),
                        Timestamp::from_millis(time),
                        kinds[i % kinds.len()],
                    )
                })
                .collect();
            events.sort_by_key(MceLog::sort_key);
            check_every_prefix(&events)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// 0–3 ms steps: heavy timestamp ties, among them CE/UEO runs tied
        /// at the first UER's timestamp, which the fold's tie correction
        /// must leave out of the count features.
        #[test]
        fn ties_at_the_first_uer_match_reference_at_every_prefix(
            events in arb_sorted_stream(3),
        ) {
            check_every_prefix(&events)?;
        }
    }
}

/// The §IV-B feature group of each bank feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FeatureGroup {
    /// Row numbers, spans, row differences, pairwise distances.
    Spatial,
    /// Inter-arrival times.
    Temporal,
    /// Error-count densities.
    Count,
}

/// Group assignment of every bank feature, aligned with
/// [`BANK_FEATURE_NAMES`].
pub const BANK_FEATURE_GROUPS: [FeatureGroup; 27] = [
    FeatureGroup::Count,    // ce_count_before_first_uer
    FeatureGroup::Count,    // ueo_count_before_first_uer
    FeatureGroup::Spatial,  // ce_row_min
    FeatureGroup::Spatial,  // ce_row_max
    FeatureGroup::Spatial,  // ueo_row_min
    FeatureGroup::Spatial,  // ueo_row_max
    FeatureGroup::Spatial,  // uer_row_min
    FeatureGroup::Spatial,  // uer_row_max
    FeatureGroup::Spatial,  // uer_row_span
    FeatureGroup::Spatial,  // row_diff_min
    FeatureGroup::Spatial,  // row_diff_max
    FeatureGroup::Spatial,  // row_diff_mean
    FeatureGroup::Spatial,  // uer_row_diff_min
    FeatureGroup::Spatial,  // uer_row_diff_max
    FeatureGroup::Spatial,  // uer_row_diff_mean
    FeatureGroup::Temporal, // ce_time_diff_min_s
    FeatureGroup::Temporal, // ce_time_diff_max_s
    FeatureGroup::Temporal, // ueo_time_diff_min_s
    FeatureGroup::Temporal, // ueo_time_diff_max_s
    FeatureGroup::Temporal, // uer_time_diff_min_s
    FeatureGroup::Temporal, // uer_time_diff_max_s
    FeatureGroup::Spatial,  // uer_pairwise_dist_small
    FeatureGroup::Spatial,  // uer_pairwise_dist_mid
    FeatureGroup::Spatial,  // uer_pairwise_dist_large
    FeatureGroup::Spatial,  // uer_dist_ratio
    FeatureGroup::Spatial,  // uer_span_fraction
    FeatureGroup::Count,    // total_event_count
];

/// Which §IV-B feature groups a model may use (ablation control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FeatureMask {
    /// Keep spatial features.
    pub spatial: bool,
    /// Keep temporal features.
    pub temporal: bool,
    /// Keep count features.
    pub count: bool,
}

impl FeatureMask {
    /// All groups enabled (the paper's configuration).
    pub const ALL: FeatureMask = FeatureMask {
        spatial: true,
        temporal: true,
        count: true,
    };

    /// Only the named group enabled.
    pub fn only(group: FeatureGroup) -> Self {
        FeatureMask {
            spatial: group == FeatureGroup::Spatial,
            temporal: group == FeatureGroup::Temporal,
            count: group == FeatureGroup::Count,
        }
    }

    /// Everything but the named group.
    pub fn without(group: FeatureGroup) -> Self {
        FeatureMask {
            spatial: group != FeatureGroup::Spatial,
            temporal: group != FeatureGroup::Temporal,
            count: group != FeatureGroup::Count,
        }
    }

    /// Whether a group is enabled.
    pub fn allows(&self, group: FeatureGroup) -> bool {
        match group {
            FeatureGroup::Spatial => self.spatial,
            FeatureGroup::Temporal => self.temporal,
            FeatureGroup::Count => self.count,
        }
    }

    /// Human-readable description for ablation tables.
    pub fn describe(&self) -> String {
        if *self == FeatureMask::ALL {
            return "all".to_string();
        }
        let mut parts = Vec::new();
        if self.spatial {
            parts.push("spatial");
        }
        if self.temporal {
            parts.push("temporal");
        }
        if self.count {
            parts.push("count");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl Default for FeatureMask {
    fn default() -> Self {
        FeatureMask::ALL
    }
}

/// Replaces the bank features of disabled groups with `NaN` (every model in
/// this suite treats `NaN` as missing). `values` must be a bank feature
/// vector as produced by [`bank_features`].
pub fn mask_bank_features(values: &mut [f64], mask: &FeatureMask) {
    debug_assert_eq!(values.len(), BANK_FEATURE_NAMES.len());
    for (value, group) in values.iter_mut().zip(BANK_FEATURE_GROUPS) {
        if !mask.allows(group) {
            *value = f64::NAN;
        }
    }
}

#[cfg(test)]
mod mask_tests {
    use super::*;

    #[test]
    fn groups_cover_every_feature() {
        assert_eq!(BANK_FEATURE_GROUPS.len(), BANK_FEATURE_NAMES.len());
        // Sanity: names containing "time" are temporal, "count" are count.
        for (name, group) in BANK_FEATURE_NAMES.iter().zip(BANK_FEATURE_GROUPS) {
            if name.contains("time") {
                assert_eq!(group, FeatureGroup::Temporal, "{name}");
            }
            if name.contains("count") {
                assert_eq!(group, FeatureGroup::Count, "{name}");
            }
        }
    }

    #[test]
    fn mask_combinators() {
        let only_spatial = FeatureMask::only(FeatureGroup::Spatial);
        assert!(only_spatial.spatial && !only_spatial.temporal && !only_spatial.count);
        let no_count = FeatureMask::without(FeatureGroup::Count);
        assert!(no_count.spatial && no_count.temporal && !no_count.count);
        assert_eq!(FeatureMask::ALL.describe(), "all");
        assert_eq!(only_spatial.describe(), "spatial");
        assert_eq!(no_count.describe(), "spatial+temporal");
    }

    #[test]
    fn masking_nans_exactly_the_disabled_groups() {
        let mut values: Vec<f64> = (0..27).map(|i| i as f64).collect();
        mask_bank_features(&mut values, &FeatureMask::only(FeatureGroup::Temporal));
        for ((value, group), original) in values.iter().zip(BANK_FEATURE_GROUPS).zip(0..27) {
            if group == FeatureGroup::Temporal {
                assert_eq!(*value, original as f64);
            } else {
                assert!(value.is_nan());
            }
        }
    }
}
