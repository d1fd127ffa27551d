//! The sliding training window: recent accepted events, bounded by
//! stream-time span and event count, rebuildable from the durable store.

use std::collections::VecDeque;

use cordial_mcelog::ErrorEvent;
use cordial_store::{Record, ReplayFilter, Store, StoreError};

/// Hard cap on a window's events (oldest evicted first).
const MAX_EVENTS: usize = 1 << 18;

/// Recent accepted events, in arrival order.
///
/// The window advances on *stream time* (event timestamps), never the
/// wall clock: `push` raises the watermark to the event's timestamp and
/// evicts front events older than `span_ms` behind it, plus anything
/// beyond a cap of 2^18 events. Because eviction only inspects the
/// front, an out-of-order stale event deeper in the queue is evicted on
/// a later push — bounded staleness, deterministic for a given arrival
/// order.
#[derive(Debug, Clone)]
pub struct TrainingWindow {
    /// Stream-time span kept, in milliseconds. `0` keeps every event
    /// until the count cap evicts it.
    span_ms: u64,
    events: VecDeque<ErrorEvent>,
    watermark_ms: u64,
}

impl TrainingWindow {
    /// An empty window keeping `span_ms` of stream time.
    pub fn new(span_ms: u64) -> Self {
        Self {
            span_ms,
            events: VecDeque::new(),
            watermark_ms: 0,
        }
    }

    /// Adds one accepted event and evicts what fell out of the window.
    pub fn push(&mut self, event: ErrorEvent) {
        self.watermark_ms = self.watermark_ms.max(event.time.as_millis());
        self.events.push_back(event);
        self.evict();
    }

    fn evict(&mut self) {
        while self.events.len() > MAX_EVENTS {
            self.events.pop_front();
        }
        if self.span_ms == 0 {
            return;
        }
        let horizon = self.watermark_ms.saturating_sub(self.span_ms);
        while let Some(front) = self.events.front() {
            if front.time.as_millis() >= horizon {
                break;
            }
            self.events.pop_front();
        }
    }

    /// Rebuilds a window from the durable journal: every journaled event
    /// is replayed through [`TrainingWindow::push`] in store order, so
    /// the rebuilt window equals the pre-kill window whenever the journal
    /// covers every accepted event (the journal-before-train discipline
    /// the fleet supervisor follows).
    ///
    /// # Errors
    ///
    /// Propagates the store's replay error.
    pub fn rebuild_from_store(store: &Store, span_ms: u64) -> Result<Self, StoreError> {
        let mut window = Self::new(span_ms);
        let filter = ReplayFilter {
            events_only: true,
            ..ReplayFilter::default()
        };
        for record in store.replay(&filter)? {
            if let Record::Event { event, .. } = record {
                window.push(event);
            }
        }
        Ok(window)
    }

    /// Events currently in the window, oldest first.
    pub fn snapshot(&self) -> Vec<ErrorEvent> {
        self.events.iter().copied().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the window holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Highest event timestamp seen, in milliseconds.
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial_mcelog::{ErrorType, Timestamp};
    use cordial_topology::{BankAddress, CellAddress, ColId, RowId};

    fn event(t: u64, row: u32) -> ErrorEvent {
        ErrorEvent::new(
            CellAddress::new(BankAddress::default(), RowId(row), ColId(1)),
            Timestamp::from_millis(t),
            ErrorType::Uer,
        )
    }

    #[test]
    fn span_evicts_old_events() {
        let mut w = TrainingWindow::new(100);
        w.push(event(0, 1));
        w.push(event(50, 2));
        w.push(event(140, 3));
        // t=0 fell behind the 100ms span once the watermark hit 140.
        assert_eq!(w.len(), 2);
        assert_eq!(w.snapshot()[0].time.as_millis(), 50);
    }

    #[test]
    fn count_cap_evicts_oldest() {
        let mut w = TrainingWindow::new(0);
        for t in 0..MAX_EVENTS as u64 + 2 {
            w.push(event(t, t as u32));
        }
        assert_eq!(w.len(), MAX_EVENTS);
        assert_eq!(w.snapshot()[0].time.as_millis(), 2);
    }

    #[test]
    fn out_of_order_events_are_kept_within_span() {
        let mut w = TrainingWindow::new(100);
        w.push(event(200, 1));
        w.push(event(150, 2)); // late but inside the span
        assert_eq!(w.len(), 2);
        w.push(event(400, 3)); // moves the horizon past both
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn rebuild_matches_journal_order() {
        let dir = std::env::temp_dir().join(format!(
            "relearn-window-rebuild-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, cordial_store::StoreConfig::default()).unwrap();
        let events: Vec<ErrorEvent> = (0..10).map(|t| event(t * 10, t as u32)).collect();
        store.append_events(&events).unwrap();
        store.sync().unwrap();

        let mut direct = TrainingWindow::new(50);
        for e in &events {
            direct.push(*e);
        }
        let rebuilt = TrainingWindow::rebuild_from_store(&store, 50).unwrap();
        assert_eq!(direct.len(), 6, "the span evicts the first four events");
        assert_eq!(rebuilt.snapshot(), direct.snapshot());
        assert_eq!(rebuilt.watermark_ms(), direct.watermark_ms());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
