//! Time-ordered event store and per-bank error histories.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use cordial_topology::{BankAddress, RowId};

use crate::event::{ErrorEvent, ErrorType, Timestamp};

/// A time-ordered collection of error events for any number of devices.
///
/// Events are kept sorted by `(time, address, type)`; pushes that arrive out
/// of order are inserted at the right position. The log is the single input
/// to the whole Cordial pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MceLog {
    events: Vec<ErrorEvent>,
}

impl MceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log from events in arbitrary order.
    pub fn from_events(mut events: Vec<ErrorEvent>) -> Self {
        events.sort_by_key(Self::sort_key);
        Self { events }
    }

    /// The `(time, address, type)` key the log keeps events sorted by.
    ///
    /// Public so streaming consumers (the §IV-B feature fold in the core
    /// crate) can check that events arrive in log order.
    pub fn sort_key(e: &ErrorEvent) -> (Timestamp, cordial_topology::CellAddress, ErrorType) {
        (e.time, e.addr, e.error_type)
    }

    /// Appends an event, maintaining time order.
    pub fn push(&mut self, event: ErrorEvent) {
        match self.events.last() {
            Some(last) if Self::sort_key(last) <= Self::sort_key(&event) => {
                self.events.push(event);
            }
            None => self.events.push(event),
            _ => {
                let idx = self
                    .events
                    .partition_point(|e| Self::sort_key(e) <= Self::sort_key(&event));
                self.events.insert(idx, event);
            }
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time-ordered view of all events.
    pub fn events(&self) -> &[ErrorEvent] {
        &self.events
    }

    /// Iterates over events of one severity.
    pub fn of_type(&self, ty: ErrorType) -> impl Iterator<Item = &ErrorEvent> {
        self.events.iter().filter(move |e| e.error_type == ty)
    }

    /// Events with `start <= time < end`, as a slice of the sorted store.
    pub fn between(&self, start: Timestamp, end: Timestamp) -> &[ErrorEvent] {
        let lo = self.events.partition_point(|e| e.time < start);
        let hi = self.events.partition_point(|e| e.time < end);
        &self.events[lo..hi]
    }

    /// Groups events by bank, preserving time order within each bank.
    pub fn by_bank(&self) -> BTreeMap<BankAddress, BankErrorHistory> {
        let mut map: BTreeMap<BankAddress, BankErrorHistory> = BTreeMap::new();
        for event in &self.events {
            map.entry(event.addr.bank)
                .or_insert_with(|| BankErrorHistory::empty(event.addr.bank))
                .events
                .push(*event);
        }
        map
    }

    /// Returns the history of one bank, or `None` if it has no events.
    pub fn bank_history(&self, bank: &BankAddress) -> Option<BankErrorHistory> {
        let events: Vec<ErrorEvent> = self
            .events
            .iter()
            .filter(|e| e.addr.bank == *bank)
            .copied()
            .collect();
        if events.is_empty() {
            None
        } else {
            Some(BankErrorHistory {
                bank: *bank,
                events,
            })
        }
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: MceLog) {
        self.events.extend(other.events);
        self.events.sort_by_key(Self::sort_key);
    }
}

impl Extend<ErrorEvent> for MceLog {
    fn extend<T: IntoIterator<Item = ErrorEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
        self.events.sort_by_key(Self::sort_key);
    }
}

impl FromIterator<ErrorEvent> for MceLog {
    fn from_iter<T: IntoIterator<Item = ErrorEvent>>(iter: T) -> Self {
        Self::from_events(iter.into_iter().collect())
    }
}

/// The time-ordered error history of one bank.
///
/// This is the per-bank observation window the paper's method consumes:
/// features are generated "with all CEs, UEOs and the first three UERs for
/// each bank" (§IV-A) — see [`BankErrorHistory::observe_until_k_uers`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankErrorHistory {
    bank: BankAddress,
    events: Vec<ErrorEvent>,
}

impl BankErrorHistory {
    fn empty(bank: BankAddress) -> Self {
        Self {
            bank,
            events: Vec::new(),
        }
    }

    /// Builds a history from events of one bank, sorting by time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any event belongs to a different bank.
    pub fn new(bank: BankAddress, mut events: Vec<ErrorEvent>) -> Self {
        debug_assert!(events.iter().all(|e| e.addr.bank == bank));
        events.sort_by_key(MceLog::sort_key);
        Self { bank, events }
    }

    /// The bank this history belongs to.
    pub fn bank(&self) -> BankAddress {
        self.bank
    }

    /// Time-ordered events.
    pub fn events(&self) -> &[ErrorEvent] {
        &self.events
    }

    /// Number of events of the given severity.
    pub fn count(&self, ty: ErrorType) -> usize {
        self.events.iter().filter(|e| e.error_type == ty).count()
    }

    /// Time-ordered UER events.
    pub fn uer_events(&self) -> impl Iterator<Item = &ErrorEvent> {
        self.events.iter().filter(|e| e.is_uer())
    }

    /// Distinct UER rows in order of first occurrence.
    pub fn uer_rows(&self) -> Vec<RowId> {
        let mut rows = Vec::new();
        for event in self.uer_events() {
            if !rows.contains(&event.addr.row) {
                rows.push(event.addr.row);
            }
        }
        rows
    }

    /// Time of the first UER, if any.
    pub fn first_uer_time(&self) -> Option<Timestamp> {
        self.uer_events().next().map(|e| e.time)
    }

    /// Splits the history at the paper's observation cut: everything up to
    /// and including the event that completes the `k`-th *distinct UER row*,
    /// versus the future that a predictor must anticipate.
    ///
    /// Returns `None` if the bank never accumulates `k` distinct UER rows —
    /// such banks cannot trigger pattern classification.
    pub fn observe_until_k_uers(&self, k: usize) -> Option<(ObservedWindow<'_>, &[ErrorEvent])> {
        let mut rows_seen: Vec<RowId> = Vec::new();
        for (idx, event) in self.events.iter().enumerate() {
            if event.is_uer() && !rows_seen.contains(&event.addr.row) {
                rows_seen.push(event.addr.row);
                if rows_seen.len() == k {
                    let (observed, future) = self.events.split_at(idx + 1);
                    return Some((
                        ObservedWindow {
                            bank: self.bank,
                            events: observed,
                        },
                        future,
                    ));
                }
            }
        }
        None
    }

    /// Rows (distinct, ascending) that ever see a UER — the ground truth for
    /// isolation-coverage accounting.
    pub fn all_uer_rows_sorted(&self) -> Vec<RowId> {
        let mut rows: Vec<RowId> = self.uer_events().map(|e| e.addr.row).collect();
        rows.sort();
        rows.dedup();
        rows
    }
}

/// The observed prefix of a bank history at the classification cut.
#[derive(Debug, Clone, Copy)]
pub struct ObservedWindow<'a> {
    bank: BankAddress,
    events: &'a [ErrorEvent],
}

impl<'a> ObservedWindow<'a> {
    /// Wraps an already-sorted event slice as an observed window, without
    /// the clone-and-sort of [`BankErrorHistory::new`] followed by
    /// [`BankErrorHistory::observe_until_k_uers`].
    ///
    /// The caller asserts that `events` are nondecreasing by
    /// [`MceLog::sort_key`] and already end at the classification cut (the
    /// event completing the `k`-th distinct UER row is the last element).
    pub fn from_sorted_events(bank: BankAddress, events: &'a [ErrorEvent]) -> Self {
        debug_assert!(
            events
                .windows(2)
                .all(|w| MceLog::sort_key(&w[0]) <= MceLog::sort_key(&w[1])),
            "events must be nondecreasing by MceLog::sort_key"
        );
        debug_assert!(events.iter().all(|e| e.addr.bank == bank));
        Self { bank, events }
    }

    /// The bank under observation.
    pub fn bank(&self) -> BankAddress {
        self.bank
    }

    /// The observed, time-ordered events (all CEs/UEOs plus the first `k`
    /// distinct-row UERs).
    pub fn events(&self) -> &'a [ErrorEvent] {
        self.events
    }

    /// Distinct UER rows within the window, in order of first occurrence.
    pub fn uer_rows(&self) -> Vec<RowId> {
        let mut rows = Vec::new();
        for event in self.events.iter().filter(|e| e.is_uer()) {
            if !rows.contains(&event.addr.row) {
                rows.push(event.addr.row);
            }
        }
        rows
    }

    /// The last observed UER row — the anchor of the cross-row prediction
    /// window (§IV-D: "64 rows above and below the last UER row").
    pub fn last_uer_row(&self) -> Option<RowId> {
        self.events
            .iter()
            .rev()
            .find(|e| e.is_uer())
            .map(|e| e.addr.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial_topology::{ColId, RowId};

    fn bank(n: u32) -> BankAddress {
        BankAddress {
            node: cordial_topology::NodeId(n),
            ..BankAddress::default()
        }
    }

    fn ev(b: BankAddress, row: u32, t: u64, ty: ErrorType) -> ErrorEvent {
        ErrorEvent::new(b.cell(RowId(row), ColId(0)), Timestamp::from_millis(t), ty)
    }

    #[test]
    fn push_keeps_time_order() {
        let mut log = MceLog::new();
        log.push(ev(bank(0), 1, 30, ErrorType::Ce));
        log.push(ev(bank(0), 2, 10, ErrorType::Ce));
        log.push(ev(bank(0), 3, 20, ErrorType::Uer));
        let times: Vec<u64> = log.events().iter().map(|e| e.time.as_millis()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn from_events_sorts() {
        let events = vec![
            ev(bank(0), 1, 5, ErrorType::Uer),
            ev(bank(1), 2, 1, ErrorType::Ce),
        ];
        let log = MceLog::from_events(events);
        assert_eq!(log.events()[0].time.as_millis(), 1);
    }

    #[test]
    fn by_bank_partitions_events() {
        let log = MceLog::from_events(vec![
            ev(bank(0), 1, 1, ErrorType::Ce),
            ev(bank(1), 2, 2, ErrorType::Uer),
            ev(bank(0), 3, 3, ErrorType::Uer),
        ]);
        let map = log.by_bank();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&bank(0)].events().len(), 2);
        assert_eq!(map[&bank(1)].count(ErrorType::Uer), 1);
    }

    #[test]
    fn bank_history_returns_none_for_unknown_bank() {
        let log = MceLog::from_events(vec![ev(bank(0), 1, 1, ErrorType::Ce)]);
        assert!(log.bank_history(&bank(9)).is_none());
        assert!(log.bank_history(&bank(0)).is_some());
    }

    #[test]
    fn uer_rows_dedup_in_first_seen_order() {
        let history = BankErrorHistory::new(
            bank(0),
            vec![
                ev(bank(0), 7, 1, ErrorType::Uer),
                ev(bank(0), 3, 2, ErrorType::Uer),
                ev(bank(0), 7, 3, ErrorType::Uer),
            ],
        );
        assert_eq!(history.uer_rows(), vec![RowId(7), RowId(3)]);
        assert_eq!(history.all_uer_rows_sorted(), vec![RowId(3), RowId(7)]);
    }

    #[test]
    fn observe_until_k_uers_splits_at_kth_distinct_row() {
        let history = BankErrorHistory::new(
            bank(0),
            vec![
                ev(bank(0), 1, 1, ErrorType::Ce),
                ev(bank(0), 10, 2, ErrorType::Uer),
                ev(bank(0), 10, 3, ErrorType::Uer), // same row — not a new distinct row
                ev(bank(0), 11, 4, ErrorType::Uer),
                ev(bank(0), 12, 5, ErrorType::Uer),
                ev(bank(0), 90, 6, ErrorType::Uer),
            ],
        );
        let (window, future) = history.observe_until_k_uers(3).unwrap();
        assert_eq!(window.events().len(), 5);
        assert_eq!(window.uer_rows(), vec![RowId(10), RowId(11), RowId(12)]);
        assert_eq!(window.last_uer_row(), Some(RowId(12)));
        assert_eq!(future.len(), 1);
        assert_eq!(future[0].addr.row, RowId(90));
    }

    #[test]
    fn observe_until_k_uers_requires_k_distinct_rows() {
        let history = BankErrorHistory::new(
            bank(0),
            vec![
                ev(bank(0), 10, 1, ErrorType::Uer),
                ev(bank(0), 10, 2, ErrorType::Uer),
            ],
        );
        assert!(history.observe_until_k_uers(2).is_none());
        assert!(history.observe_until_k_uers(1).is_some());
    }

    #[test]
    fn between_selects_a_half_open_window() {
        let log = MceLog::from_events(vec![
            ev(bank(0), 1, 10, ErrorType::Ce),
            ev(bank(0), 2, 20, ErrorType::Uer),
            ev(bank(0), 3, 30, ErrorType::Ueo),
        ]);
        let w = log.between(Timestamp::from_millis(10), Timestamp::from_millis(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].time.as_millis(), 10);
        assert_eq!(w[1].time.as_millis(), 20);
        assert!(log
            .between(Timestamp::from_millis(31), Timestamp::from_millis(99))
            .is_empty());
        assert_eq!(
            log.between(Timestamp::ZERO, Timestamp::from_millis(u64::MAX))
                .len(),
            3
        );
    }

    #[test]
    fn merge_and_extend_keep_order() {
        let mut a = MceLog::from_events(vec![ev(bank(0), 1, 10, ErrorType::Ce)]);
        let b = MceLog::from_events(vec![ev(bank(0), 2, 5, ErrorType::Uer)]);
        a.merge(b);
        assert_eq!(a.events()[0].time.as_millis(), 5);
        a.extend(vec![ev(bank(0), 3, 1, ErrorType::Ueo)]);
        assert_eq!(a.events()[0].time.as_millis(), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_log_behaviour() {
        let log = MceLog::new();
        assert!(log.is_empty());
        assert_eq!(log.by_bank().len(), 0);
    }

    #[test]
    fn collect_from_iterator() {
        let log: MceLog = vec![
            ev(bank(0), 1, 2, ErrorType::Ce),
            ev(bank(0), 1, 1, ErrorType::Ce),
        ]
        .into_iter()
        .collect();
        assert_eq!(log.events()[0].time.as_millis(), 1);
    }
}
