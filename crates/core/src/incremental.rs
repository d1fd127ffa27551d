//! The §IV-B feature fold: the one implementation of the bank feature
//! vector.
//!
//! [`IncrementalBankFeatures`] folds a bank's events one at a time, in
//! [`MceLog::sort_key`] order, into running per-severity extrema and
//! consecutive-difference accumulators, and assembles the 27-value vector
//! on demand in O(feature count).
//! [`crate::features::bank_features`] is this fold run once over an
//! observed window, so training, `plan`/`plan_batch`, evaluation and the
//! monitor all compute features through it, once per plan.
//!
//! **State.** Apart from the distinct UER rows (at most `k_uers` in a
//! window that plans), the fold holds O(1) state. The count features
//! ("CEs/UEOs strictly before the first UER") need no buffered
//! timestamps: in a sorted stream every CE/UEO folded before the first
//! UER has a timestamp ≤ that UER's, so the strictly-earlier count is the
//! pre-UER count minus the run tied at the latest pre-UER timestamp when
//! that timestamp equals the first UER's (the *tie correction*). Events
//! after the first UER can never be strictly earlier than it.
//!
//! **Sort order.** Folding events nondecreasing by [`MceLog::sort_key`]
//! (equal keys allowed) is the precondition for every statistic above. An
//! out-of-order arrival permanently marks the state unsorted: later
//! events are counted but not folded, and [`IncrementalBankFeatures::vector`]
//! returns `None`. Unit tests pin the fold bit-for-bit (NaN encodings
//! included) against the previous single-pass scan at every prefix of
//! random sorted streams, ties at the first UER's timestamp included.

use cordial_mcelog::{ErrorEvent, ErrorType, MceLog, Timestamp};
use cordial_topology::{CellAddress, HbmGeometry, RowId};

use crate::features::{DiffScan, SeverityScan, BANK_FEATURE_NAMES};

/// Streaming fold of one bank's events into the §IV-B feature vector (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct IncrementalBankFeatures {
    ce: SeverityScan,
    ueo: SeverityScan,
    uer: SeverityScan,
    all_rows: DiffScan,
    uer_rows: DiffScan,
    /// CEs and UEOs folded before the first UER, frozen (tie-corrected)
    /// when it arrives.
    ce_before: usize,
    ueo_before: usize,
    /// The latest CE/UEO timestamp folded before the first UER, and how
    /// many CEs and UEOs share it.
    tie_time: Option<Timestamp>,
    ce_tied: usize,
    ueo_tied: usize,
    /// Distinct UER rows in first-occurrence order.
    distinct_uer: Vec<RowId>,
    n_events: usize,
    last_key: Option<(Timestamp, CellAddress, ErrorType)>,
    sorted: bool,
}

impl Default for IncrementalBankFeatures {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalBankFeatures {
    /// Empty state: no events absorbed, arrival order (vacuously) sorted.
    pub fn new() -> Self {
        Self {
            ce: SeverityScan::EMPTY,
            ueo: SeverityScan::EMPTY,
            uer: SeverityScan::EMPTY,
            all_rows: DiffScan::EMPTY,
            uer_rows: DiffScan::EMPTY,
            ce_before: 0,
            ueo_before: 0,
            tie_time: None,
            ce_tied: 0,
            ueo_tied: 0,
            distinct_uer: Vec::new(),
            n_events: 0,
            last_key: None,
            sorted: true,
        }
    }

    /// Whether every absorbed event arrived nondecreasing by
    /// [`MceLog::sort_key`] — the precondition for [`Self::vector`].
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of events absorbed.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Absorbs one event in arrival order.
    ///
    /// An event whose sort key is strictly below the previous one marks the
    /// state permanently unsorted; further statistics updates are skipped
    /// (the state can no longer match any sorted window) and
    /// [`Self::vector`] returns `None`.
    pub fn absorb(&mut self, event: &ErrorEvent) {
        self.n_events += 1;
        let key = MceLog::sort_key(event);
        if let Some(last) = self.last_key {
            if key < last {
                self.sorted = false;
            }
        }
        self.last_key = Some(key);
        if !self.sorted {
            return;
        }

        // Count features: only events up to the first UER move them.
        if self.uer_rows.seen == 0 {
            if event.is_uer() {
                // The first UER: only strictly earlier CEs/UEOs count, so
                // drop the run tied at its timestamp.
                if self.tie_time == Some(event.time) {
                    self.ce_before -= self.ce_tied;
                    self.ueo_before -= self.ueo_tied;
                }
            } else {
                if self.tie_time != Some(event.time) {
                    self.tie_time = Some(event.time);
                    self.ce_tied = 0;
                    self.ueo_tied = 0;
                }
                if event.error_type == ErrorType::Ce {
                    self.ce_before += 1;
                    self.ce_tied += 1;
                } else {
                    self.ueo_before += 1;
                    self.ueo_tied += 1;
                }
            }
        }

        let row = event.addr.row.0 as f64;
        let time_s = event.time.as_millis() as f64 / 1000.0;
        self.all_rows.absorb(row);
        match event.error_type {
            ErrorType::Ce => self.ce.absorb(row, time_s),
            ErrorType::Ueo => self.ueo.absorb(row, time_s),
            ErrorType::Uer => {
                self.uer.absorb(row, time_s);
                self.uer_rows.absorb(row);
                if !self.distinct_uer.contains(&event.addr.row) {
                    self.distinct_uer.push(event.addr.row);
                }
            }
        }
    }

    /// Assembles the §IV-B feature vector for the absorbed prefix, or
    /// `None` when events arrived out of sort order.
    pub fn vector(&self, geom: &HbmGeometry) -> Option<Vec<f64>> {
        self.sorted.then(|| self.assemble(geom))
    }

    /// [`Self::vector`] without the sort check, for callers whose events
    /// are sorted by construction (observed windows).
    pub(crate) fn assemble(&self, geom: &HbmGeometry) -> Vec<f64> {
        let uer_span = if self.uer_rows.seen == 0 {
            f64::NAN
        } else {
            self.uer.row_max - self.uer.row_min
        };

        // Pairwise distances among distinct UER rows: at most `k_uers`
        // rows (3 in the paper) in a window that plans, so the O(k²)
        // pairs are recomputed per read.
        let mut pairwise: Vec<f64> = Vec::new();
        for (i, a) in self.distinct_uer.iter().enumerate() {
            for b in &self.distinct_uer[i + 1..] {
                pairwise.push((a.0 as f64 - b.0 as f64).abs());
            }
        }
        pairwise.sort_by(f64::total_cmp);
        let pd = |i: usize| pairwise.get(i).copied().unwrap_or(f64::NAN);
        let dist_ratio = if pairwise.len() >= 2 {
            pairwise[pairwise.len() - 1] / (pairwise[0] + 1.0)
        } else {
            f64::NAN
        };

        let vector = vec![
            self.ce_before as f64,
            self.ueo_before as f64,
            self.ce.row_min,
            self.ce.row_max,
            self.ueo.row_min,
            self.ueo.row_max,
            self.uer.row_min,
            self.uer.row_max,
            uer_span,
            self.all_rows.min,
            self.all_rows.max,
            self.all_rows.mean(),
            self.uer_rows.min,
            self.uer_rows.max,
            self.uer_rows.mean(),
            self.ce.times.min,
            self.ce.times.max,
            self.ueo.times.min,
            self.ueo.times.max,
            self.uer.times.min,
            self.uer.times.max,
            pd(0),
            pd(pairwise.len().saturating_sub(1) / 2),
            pd(pairwise.len().saturating_sub(1)),
            dist_ratio,
            uer_span / geom.rows as f64,
            self.n_events as f64,
        ];
        debug_assert_eq!(vector.len(), BANK_FEATURE_NAMES.len());
        vector
    }

    /// Folds `events` in order into a fresh state.
    pub fn replay(events: &[ErrorEvent]) -> Self {
        let mut state = Self::new();
        for event in events {
            state.absorb(event);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::reference_bank_features;
    use cordial_mcelog::ObservedWindow;
    use cordial_topology::BankAddress;

    fn event(ms: u64, row: u32, kind: ErrorType) -> ErrorEvent {
        ErrorEvent {
            time: Timestamp::from_millis(ms),
            addr: CellAddress {
                bank: BankAddress::default(),
                row: RowId(row),
                ..CellAddress::default()
            },
            error_type: kind,
        }
    }

    fn assert_matches_reference(events: &[ErrorEvent]) {
        let geom = HbmGeometry::hbm2e_8hi();
        let state = IncrementalBankFeatures::replay(events);
        let window = ObservedWindow::from_sorted_events(BankAddress::default(), events);
        let reference = reference_bank_features(&window, &geom);
        let fold = state.vector(&geom).expect("sorted stream");
        assert_eq!(reference.len(), fold.len());
        for (name, (r, f)) in BANK_FEATURE_NAMES.iter().zip(reference.iter().zip(&fold)) {
            assert_eq!(
                r.to_bits(),
                f.to_bits(),
                "{name}: reference {r} vs fold {f}"
            );
        }
    }

    fn counts(state: &IncrementalBankFeatures) -> (f64, f64) {
        let vector = state.vector(&HbmGeometry::hbm2e_8hi()).expect("sorted");
        (vector[0], vector[1])
    }

    #[test]
    fn empty_stream_is_all_nan_except_counts() {
        assert_matches_reference(&[]);
    }

    #[test]
    fn ce_only_stream_keeps_uer_features_nan() {
        let events = vec![
            event(10, 5, ErrorType::Ce),
            event(20, 9, ErrorType::Ce),
            event(35, 2, ErrorType::Ce),
        ];
        assert_matches_reference(&events);
    }

    #[test]
    fn mixed_stream_with_uers_matches_reference_at_every_prefix() {
        let events = [
            event(5, 100, ErrorType::Ce),
            event(9, 104, ErrorType::Ueo),
            event(9, 104, ErrorType::Ueo),
            event(12, 101, ErrorType::Uer),
            event(14, 101, ErrorType::Uer),
            event(18, 160, ErrorType::Ce),
            event(21, 99, ErrorType::Uer),
            event(30, 300, ErrorType::Uer),
        ];
        for cut in 0..=events.len() {
            assert_matches_reference(&events[..cut]);
        }
    }

    #[test]
    fn out_of_order_arrival_disables_the_vector() {
        let mut state = IncrementalBankFeatures::new();
        state.absorb(&event(20, 1, ErrorType::Ce));
        state.absorb(&event(10, 2, ErrorType::Ce));
        assert!(!state.is_sorted());
        assert!(state.vector(&HbmGeometry::hbm2e_8hi()).is_none());
        // Later in-order events cannot resurrect the state.
        state.absorb(&event(30, 3, ErrorType::Ce));
        assert!(state.vector(&HbmGeometry::hbm2e_8hi()).is_none());
        assert_eq!(state.n_events(), 3, "events keep being counted");
    }

    #[test]
    fn equal_sort_keys_keep_the_state_sorted() {
        let events = vec![
            event(10, 7, ErrorType::Ce),
            event(10, 7, ErrorType::Ce),
            event(10, 7, ErrorType::Uer),
        ];
        assert_matches_reference(&events);
    }

    #[test]
    fn ties_at_the_first_uer_timestamp_are_not_counted_before_it() {
        let events = [
            event(5, 1, ErrorType::Ce),
            event(9, 2, ErrorType::Ce),
            event(9, 3, ErrorType::Ueo),
            event(9, 4, ErrorType::Uer),
            // After the first UER: never strictly earlier than it.
            event(9, 5, ErrorType::Ce),
            event(12, 6, ErrorType::Ueo),
        ];
        assert_eq!(
            counts(&IncrementalBankFeatures::replay(&events)),
            (1.0, 0.0)
        );
        assert_matches_reference(&events);
    }

    #[test]
    fn an_earlier_tie_run_still_counts_before_the_first_uer() {
        let events = [
            event(5, 1, ErrorType::Ce),
            event(5, 2, ErrorType::Ueo),
            event(7, 3, ErrorType::Uer),
        ];
        assert_eq!(
            counts(&IncrementalBankFeatures::replay(&events)),
            (1.0, 1.0)
        );
        assert_matches_reference(&events);
    }

    /// A multi-million-event UER-free stream (a days-long daemon watching
    /// a healthy CE-noisy bank) folds into counters, not buffers: without
    /// a UER every CE and UEO counts as "before the first UER".
    #[test]
    fn multi_million_event_uer_free_stream_folds_into_counts() {
        let mut state = IncrementalBankFeatures::new();
        for i in 0..3_000_000u64 {
            let kind = if i % 5 == 0 {
                ErrorType::Ueo
            } else {
                ErrorType::Ce
            };
            state.absorb(&event(i, (i % 1024) as u32, kind));
        }
        assert_eq!(state.n_events(), 3_000_000);
        assert!(state.is_sorted(), "the stream itself was sorted");
        assert_eq!(counts(&state), (2_400_000.0, 600_000.0));
    }
}
