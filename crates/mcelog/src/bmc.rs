//! Simulated baseboard-management-controller (BMC) collector.
//!
//! Real BMC firmware does not forward every raw ECC event: correctable
//! errors from the same cell are throttled (a storm of CEs from one weak
//! cell would otherwise flood the management network), while uncorrectable
//! events are always forwarded. The collector models that behaviour so the
//! simulator's raw event stream is shaped like what the paper's pipeline
//! actually receives.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use cordial_obs::lock;
use cordial_topology::CellAddress;

use crate::event::{ErrorEvent, ErrorType, Timestamp};
use crate::log::MceLog;

/// Tuning knobs of the BMC collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmcConfig {
    /// Minimum interval between forwarded CE reports for the same cell.
    /// CEs arriving sooner are dropped (leaky-bucket style throttling).
    pub ce_throttle: Duration,
    /// Maximum number of buffered events before [`BmcCollector::drain`]
    /// must be called; further events are still accepted (the buffer grows)
    /// but [`BmcCollector::is_over_capacity`] reports the overflow.
    pub buffer_capacity: usize,
}

impl Default for BmcConfig {
    fn default() -> Self {
        Self {
            ce_throttle: Duration::from_secs(60),
            buffer_capacity: 4096,
        }
    }
}

/// Thread-safe event collector with CE throttling.
///
/// # Example
///
/// ```
/// use cordial_mcelog::{BmcCollector, BmcConfig, ErrorEvent, ErrorType, Timestamp};
/// use cordial_topology::{BankAddress, RowId, ColId};
///
/// let collector = BmcCollector::new(BmcConfig::default());
/// let cell = BankAddress::default().cell(RowId(1), ColId(2));
/// collector.report(ErrorEvent::new(cell, Timestamp::from_secs(0), ErrorType::Ce));
/// // Duplicate CE within the throttle window is dropped:
/// collector.report(ErrorEvent::new(cell, Timestamp::from_secs(1), ErrorType::Ce));
/// assert_eq!(collector.drain().len(), 1);
/// ```
#[derive(Debug)]
pub struct BmcCollector {
    config: BmcConfig,
    state: Mutex<CollectorState>,
}

#[derive(Debug, Default)]
struct CollectorState {
    buffer: Vec<ErrorEvent>,
    last_ce: HashMap<CellAddress, Timestamp>,
    dropped: u64,
}

impl BmcCollector {
    /// Creates a collector with the given configuration.
    pub fn new(config: BmcConfig) -> Self {
        Self {
            config,
            state: Mutex::new(CollectorState::default()),
        }
    }

    /// Reports one raw event. Returns `true` if the event was buffered,
    /// `false` if it was throttled away.
    pub fn report(&self, event: ErrorEvent) -> bool {
        let mut state = lock(&self.state);
        if event.error_type == ErrorType::Ce {
            if let Some(&last) = state.last_ce.get(&event.addr) {
                if event.time.saturating_since(last) < self.config.ce_throttle && event.time >= last
                {
                    state.dropped += 1;
                    return false;
                }
            }
            state.last_ce.insert(event.addr, event.time);
        }
        state.buffer.push(event);
        true
    }

    /// Number of events throttled away so far.
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }

    /// Whether the buffer currently exceeds the configured capacity.
    pub fn is_over_capacity(&self) -> bool {
        lock(&self.state).buffer.len() > self.config.buffer_capacity
    }

    /// Removes and returns all buffered events as a time-ordered log.
    pub fn drain(&self) -> MceLog {
        let events = std::mem::take(&mut lock(&self.state).buffer);
        MceLog::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial_topology::{BankAddress, ColId, RowId};

    fn ce(row: u32, secs: u64) -> ErrorEvent {
        ErrorEvent::new(
            BankAddress::default().cell(RowId(row), ColId(0)),
            Timestamp::from_secs(secs),
            ErrorType::Ce,
        )
    }

    fn uer(row: u32, secs: u64) -> ErrorEvent {
        ErrorEvent::new(
            BankAddress::default().cell(RowId(row), ColId(0)),
            Timestamp::from_secs(secs),
            ErrorType::Uer,
        )
    }

    #[test]
    fn throttles_repeated_ce_from_same_cell() {
        let collector = BmcCollector::new(BmcConfig::default());
        assert!(collector.report(ce(1, 0)));
        assert!(!collector.report(ce(1, 30)));
        assert!(collector.report(ce(1, 90)));
        assert_eq!(collector.dropped(), 1);
        assert_eq!(collector.drain().len(), 2);
    }

    #[test]
    fn different_cells_are_throttled_independently() {
        let collector = BmcCollector::new(BmcConfig::default());
        assert!(collector.report(ce(1, 0)));
        assert!(collector.report(ce(2, 0)));
        assert_eq!(collector.drain().len(), 2);
    }

    #[test]
    fn uncorrectable_events_are_never_throttled() {
        let collector = BmcCollector::new(BmcConfig::default());
        assert!(collector.report(uer(1, 0)));
        assert!(collector.report(uer(1, 0)));
        assert!(collector.report(uer(1, 0)));
        assert_eq!(collector.drain().len(), 3);
    }

    #[test]
    fn drain_empties_the_buffer() {
        let collector = BmcCollector::new(BmcConfig::default());
        collector.report(uer(1, 0));
        assert_eq!(collector.drain().len(), 1);
        assert_eq!(collector.drain().len(), 0);
    }

    #[test]
    fn over_capacity_is_reported() {
        let collector = BmcCollector::new(BmcConfig {
            buffer_capacity: 1,
            ..BmcConfig::default()
        });
        collector.report(uer(1, 0));
        assert!(!collector.is_over_capacity());
        collector.report(uer(2, 0));
        assert!(collector.is_over_capacity());
    }

    #[test]
    fn collector_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BmcCollector>();
    }

    #[test]
    fn concurrent_reports_are_all_collected() {
        let collector = std::sync::Arc::new(BmcCollector::new(BmcConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = collector.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    c.report(uer(t * 1000 + i, 0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(collector.drain().len(), 400);
    }
}
