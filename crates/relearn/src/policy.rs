//! Refit scheduling: cadence, drift escalation and failure backoff.

use serde::{Deserialize, Serialize};

/// Tuning for the continuous-learning loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelearnConfig {
    /// Accepted events between scheduled refits. `0` disables the
    /// cadence — refits then start only on drift escalation.
    pub refit_every_events: u64,
    /// Minimum events in the window before a refit is attempted.
    pub min_window_events: usize,
    /// Minimum hindsight-labelled banks in the window snapshot before a
    /// refit is attempted.
    pub min_window_banks: usize,
    /// Stream-time span of the training window in milliseconds
    /// (`0` = bounded by its 2^18-event cap only).
    pub window_span_ms: u64,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for RelearnConfig {
    fn default() -> Self {
        Self {
            refit_every_events: 8192,
            min_window_events: 256,
            min_window_banks: 8,
            window_span_ms: 0,
            seed: 0,
        }
    }
}

/// SplitMix64: a tiny seeded stream for backoff jitter (no `rand`
/// dependency needed; the constants are Vigna's reference ones).
#[derive(Debug, Clone, Copy)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Decides *when* to refit. Everything runs on accepted-event counts —
/// never the wall clock — so the schedule is deterministic for a given
/// stream.
///
/// * Scheduled: a refit becomes due every `refit_every_events` accepted
///   events.
/// * Drift escalation: [`RefitScheduler::note_drift`] makes the next
///   check due immediately, jumping the cadence.
/// * Failure backoff: after a failed or panicked refit the next
///   attempt is pushed out exponentially (doubling per consecutive
///   failure, seeded jitter of up to 25% added, capped at 64× the
///   cadence) so a deterministically-crashing refit cannot busy-loop
///   the supervisor.
#[derive(Debug, Clone)]
pub struct RefitScheduler {
    refit_every: u64,
    accepted: u64,
    last_refit_at: u64,
    backoff_until: u64,
    consecutive_failures: u32,
    drift_pending: bool,
    rng: SplitMix64,
}

impl RefitScheduler {
    /// A scheduler for the given config.
    pub fn new(config: &RelearnConfig) -> Self {
        Self {
            refit_every: config.refit_every_events,
            accepted: 0,
            last_refit_at: 0,
            backoff_until: 0,
            consecutive_failures: 0,
            drift_pending: false,
            rng: SplitMix64(config.seed ^ 0xC0_8D1A_1BAC_0FF5),
        }
    }

    /// Records one accepted event.
    pub fn observe_accept(&mut self) {
        self.accepted += 1;
    }

    /// Pre-loads the accepted-event counter (window rebuilt from the
    /// store after a restart: the cadence resumes instead of restarting
    /// from zero).
    pub fn resume_at(&mut self, accepted: u64) {
        self.accepted = accepted;
        self.last_refit_at = accepted;
    }

    /// Escalates: drift was detected, the next refit is due now.
    pub fn note_drift(&mut self) {
        self.drift_pending = true;
    }

    /// Whether a refit should start now.
    pub fn due(&self) -> bool {
        if self.accepted < self.backoff_until {
            return false;
        }
        if self.drift_pending {
            return true;
        }
        self.refit_every > 0 && self.accepted.saturating_sub(self.last_refit_at) >= self.refit_every
    }

    /// Records that a refit started (resets the cadence and clears any
    /// pending drift escalation).
    pub fn note_started(&mut self) {
        self.last_refit_at = self.accepted;
        self.drift_pending = false;
    }

    /// Records a refit that completed (promoted *or* rejected — the
    /// refit machinery worked); clears the failure backoff.
    pub fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.backoff_until = 0;
    }

    /// Records a refit that failed or panicked; pushes the next attempt
    /// out with exponential, seeded-jittered backoff.
    pub fn note_failure(&mut self) {
        self.consecutive_failures = (self.consecutive_failures + 1).min(16);
        let base = self.refit_every.max(256);
        let shift = u64::from(self.consecutive_failures - 1).min(6);
        let backoff = base.saturating_mul(1 << shift).min(base.saturating_mul(64));
        let jitter = self.rng.next() % (backoff / 4).max(1);
        self.backoff_until = self.accepted.saturating_add(backoff).saturating_add(jitter);
    }

    /// Consecutive failures since the last completed refit.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Accepted events observed so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(every: u64) -> RefitScheduler {
        RefitScheduler::new(&RelearnConfig {
            refit_every_events: every,
            ..RelearnConfig::default()
        })
    }

    #[test]
    fn cadence_fires_every_n_events() {
        let mut s = scheduler(10);
        for _ in 0..9 {
            s.observe_accept();
            assert!(!s.due());
        }
        s.observe_accept();
        assert!(s.due());
        s.note_started();
        assert!(!s.due());
    }

    #[test]
    fn drift_escalates_immediately() {
        let mut s = scheduler(1_000_000);
        s.observe_accept();
        assert!(!s.due());
        s.note_drift();
        assert!(s.due());
        s.note_started();
        assert!(!s.due(), "note_started clears the escalation");
    }

    #[test]
    fn failure_backoff_grows_and_is_jittered() {
        let mut s = scheduler(10);
        for _ in 0..10 {
            s.observe_accept();
        }
        assert!(s.due());
        s.note_started();
        s.note_failure();
        let first = s.backoff_until;
        assert!(first > s.accepted + 10, "backoff beyond one cadence");
        s.note_failure();
        assert!(s.backoff_until >= first, "backoff must not shrink");
        // Even an escalated drift trigger respects the backoff.
        s.note_drift();
        assert!(!s.due());
        s.note_success();
        assert!(s.due(), "success clears the backoff; drift still pending");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = RefitScheduler::new(&RelearnConfig {
                refit_every_events: 10,
                seed,
                ..RelearnConfig::default()
            });
            s.note_failure();
            s.note_failure();
            s.backoff_until
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds draw different jitter");
    }

    #[test]
    fn zero_cadence_means_drift_only() {
        let mut s = scheduler(0);
        for _ in 0..100_000 {
            s.observe_accept();
        }
        assert!(!s.due());
        s.note_drift();
        assert!(s.due());
    }
}
