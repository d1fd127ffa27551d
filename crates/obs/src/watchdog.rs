//! Health watchdogs over the telemetry itself: rolling-window drift
//! detectors.
//!
//! A deployed predictor's telemetry has long-horizon properties — the mix
//! of failure patterns it plans for, the shape of its lead-time histogram —
//! whose *changes* matter more than their instantaneous values. A
//! [`MixDriftDetector`] watches one such property in fixed-size adjacent
//! windows and raises greppable alerts that land in **both** the metrics
//! registry (the `obs.watchdog.alerts*` counters, which sum over every
//! detector in the process) and the flight recorder (`watchdog`-category
//! instants), so a drift shows up in `stats`, in Prometheus scrapes, and
//! on the post-mortem timeline alike. The fleet supervisor's relearn loop
//! reads the alert counts of its monitors' detectors to escalate a refit.
//!
//! # Determinism contract
//!
//! [`MixDriftDetector`] is a pure function of the observation stream: same
//! observations in, same alerts and shifts out, regardless of thread count
//! or wall-clock time. Its alerts are therefore part of the
//! thread-invariant telemetry digest.
//!
//! Watchdog state is derived, in-memory state: it is intentionally *not*
//! checkpointed. After a restore the windows refill from the live stream,
//! which is exactly the reference a drift detector wants after downtime.

/// Configuration of a [`MixDriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Observations per window. Two full windows (reference + current)
    /// must complete before the first comparison.
    pub window: usize,
    /// Total-variation distance in `[0, 1]` above which an alert fires.
    pub threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 64,
            threshold: 0.25,
        }
    }
}

/// An alert raised by a [`MixDriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlert {
    /// Detector kind (`pattern_mix`, `lead_time`, …).
    pub kind: &'static str,
    /// The observed total-variation distance between windows.
    pub shift: f64,
}

/// Rolling-window drift detector over a small fixed set of classes.
///
/// Feed it one class index per observation ([`observe`](Self::observe)).
/// Every `window` observations it compares the completed window's class
/// distribution against the previous window's (total-variation distance,
/// `0.5 * Σ |p_i - q_i|`), keeps the distance as
/// [`last_shift`](Self::last_shift), and — when the distance exceeds the
/// threshold — raises an alert on the counters `obs.watchdog.alerts` and
/// `obs.watchdog.alerts.<kind>`, the recorder, and the warn log. The
/// completed window then becomes the new reference, so a persistent shift
/// alerts once, not forever.
#[derive(Debug, Clone)]
pub struct MixDriftDetector {
    kind: &'static str,
    config: DriftConfig,
    reference: Option<Vec<u64>>,
    current: Vec<u64>,
    seen: usize,
    alerts: u64,
    last_shift: f64,
}

impl MixDriftDetector {
    /// A detector named `kind` over `classes` distinct class indices.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is 0 or `config.window` is 0.
    pub fn new(kind: &'static str, classes: usize, config: DriftConfig) -> Self {
        assert!(classes > 0, "drift detector needs >= 1 class");
        assert!(config.window > 0, "drift window must be positive");
        Self {
            kind,
            config,
            reference: None,
            current: vec![0; classes],
            seen: 0,
            alerts: 0,
            last_shift: 0.0,
        }
    }

    /// Records one observation of `class` (indices beyond the configured
    /// class count are clamped into the last class). Returns the alert if
    /// this observation completed a drifted window.
    pub fn observe(&mut self, class: usize) -> Option<DriftAlert> {
        let idx = class.min(self.current.len() - 1);
        self.current[idx] += 1;
        self.seen += 1;
        if self.seen < self.config.window {
            return None;
        }

        let classes = self.current.len();
        let completed = std::mem::replace(&mut self.current, vec![0; classes]);
        self.seen = 0;
        let alert = match &self.reference {
            None => None,
            Some(reference) => {
                let shift = total_variation(reference, &completed, self.config.window);
                self.last_shift = shift;
                (shift > self.config.threshold).then(|| {
                    self.alerts += 1;
                    raise(
                        self.kind,
                        &format!(
                            "{} distribution shifted by {shift:.3} (threshold {:.3})",
                            self.kind, self.config.threshold
                        ),
                    );
                    DriftAlert {
                        kind: self.kind,
                        shift,
                    }
                })
            }
        };
        self.reference = Some(completed);
        alert
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// The most recent window-to-window shift.
    pub fn last_shift(&self) -> f64 {
        self.last_shift
    }
}

/// Total-variation distance between two equal-total count vectors.
fn total_variation(reference: &[u64], current: &[u64], window: usize) -> f64 {
    let n = window as f64;
    0.5 * reference
        .iter()
        .zip(current)
        .map(|(&r, &c)| (r as f64 / n - c as f64 / n).abs())
        .sum::<f64>()
}

/// Raises one watchdog alert on every surface: counters, recorder, log.
fn raise(kind: &'static str, detail: &str) {
    crate::counter!("obs.watchdog.alerts").inc();
    crate::global()
        .counter(&format!("obs.watchdog.alerts.{kind}"))
        .inc();
    crate::recorder::instant("watchdog", kind, detail.to_string());
    crate::warn!("watchdog alert [{kind}]: {detail}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_detector_alerts_once_on_a_mix_shift() {
        crate::set_enabled(true);
        let config = DriftConfig {
            window: 8,
            threshold: 0.5,
        };
        let mut detector = MixDriftDetector::new("unit_mix", 3, config);
        // Reference + one identical window: no alert.
        let mut alerts = 0;
        for _ in 0..16 {
            alerts += u32::from(detector.observe(0).is_some());
        }
        assert_eq!(alerts, 0);
        assert_eq!(detector.last_shift(), 0.0);
        // A fully shifted window alerts exactly once...
        let mut fired = Vec::new();
        for _ in 0..8 {
            if let Some(alert) = detector.observe(2) {
                fired.push(alert);
            }
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "unit_mix");
        assert!((fired[0].shift - 1.0).abs() < 1e-12);
        // ...and the shifted mix, once adopted as reference, is quiet.
        for _ in 0..8 {
            assert!(detector.observe(2).is_none());
        }
        assert_eq!(detector.alerts(), 1);
        let snap = crate::snapshot();
        assert!(snap.counters["obs.watchdog.alerts.unit_mix"] >= 1);
        assert_eq!(detector.last_shift(), 0.0);
    }

    #[test]
    fn drift_detector_is_a_pure_function_of_the_stream() {
        let config = DriftConfig {
            window: 4,
            threshold: 0.3,
        };
        let stream: Vec<usize> = (0..64).map(|i| (i * 7 + i / 9) % 3).collect();
        let run = |stream: &[usize]| {
            let mut detector = MixDriftDetector::new("unit_pure", 3, config);
            let alerts: Vec<Option<DriftAlert>> =
                stream.iter().map(|&c| detector.observe(c)).collect();
            (alerts, detector.last_shift(), detector.alerts())
        };
        assert_eq!(run(&stream), run(&stream));
    }
}
