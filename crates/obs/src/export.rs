//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both formats are pure functions of one [`Snapshot`], so an export is as
//! deterministic as the snapshot itself (sorted family order, `f64` values
//! printed with Rust's shortest round-trip formatting). Each format also
//! parses back: [`parse_prometheus`] and [`from_json`] reconstruct the
//! snapshot, which the round-trip tests assert.
//!
//! Naming: the internal dotted metric name `monitor.events` becomes the
//! Prometheus family `cordial_monitor_events` (counters additionally get
//! the conventional `_total` suffix). [`Snapshot::sanitized`]
//! applies the same renaming to a snapshot so parsed expositions can be
//! compared against their source.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{PoisonError, RwLock};

use crate::registry::{HistogramSnapshot, Snapshot};

/// Prefix every exported family carries.
const PREFIX: &str = "cordial_";

/// Maps an internal dotted name to its Prometheus family name.
pub fn prometheus_name(name: &str) -> String {
    format!("{PREFIX}{}", name.replace('.', "_"))
}

/// Registered `# HELP` texts, keyed by internal dotted metric name.
static HELP: RwLock<BTreeMap<String, String>> = RwLock::new(BTreeMap::new());

/// Registers the `# HELP` text emitted for the metric `name` (internal
/// dotted form). Idempotent; the latest text wins. Escaping is applied at
/// export time, so `help` may contain newlines and backslashes.
pub fn describe(name: &str, help: &str) {
    HELP.write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(name.to_string(), help.to_string());
}

/// The registered help text for `name`, if any.
fn help_for(name: &str) -> Option<String> {
    HELP.read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .cloned()
}

/// Escapes a `# HELP` text per the Prometheus exposition format:
/// backslash and newline only.
pub fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus exposition format: backslash,
/// double-quote and newline.
pub fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Reverses [`escape_label_value`].
pub fn unescape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(escaped) => out.push(escaped),
            None => out.push('\\'),
        }
    }
    out
}

fn write_help(out: &mut String, name: &str, sample_family: &str) {
    if let Some(help) = help_for(name) {
        let _ = writeln!(out, "# HELP {sample_family} {}", escape_help(&help));
    }
}

/// Registers help text for the workspace's headline metric families, so
/// CLI-produced expositions are self-describing. Idempotent.
pub fn describe_defaults() {
    for (name, help) in [
        ("monitor.events", "Raw error events offered to the monitor"),
        (
            "monitor.lead_time.seconds",
            "Plan-to-absorbed-UER lead time",
        ),
        ("plan.requests", "Mitigation plan requests"),
        ("plan.row_sparing", "Plans that resolved to row sparing"),
        ("plan.bank_sparing", "Plans that resolved to bank sparing"),
        (
            "fleet.events.routed",
            "Events routed to a healthy device slot",
        ),
        (
            "host.breaker.trips",
            "Device circuit-breaker open transitions",
        ),
        (
            "obs.recorder.instants",
            "Flight-recorder instant events (deterministic sites)",
        ),
        ("obs.recorder.dumps", "Black-box crash dumps written"),
        (
            "obs.watchdog.alerts",
            "Watchdog alerts across all deterministic detectors",
        ),
    ] {
        describe(name, help);
    }
}

impl Snapshot {
    /// The snapshot with every key renamed to its Prometheus family name
    /// (counters without the `_total` sample suffix). Parsing
    /// [`to_prometheus`] output yields exactly this.
    pub fn sanitized(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (prometheus_name(k), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (prometheus_name(k), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (prometheus_name(k), v.clone()))
                .collect(),
        }
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Families registered via [`describe`] additionally carry a `# HELP`
/// line (escaped per the exposition format); label values are escaped via
/// [`escape_label_value`]. [`parse_prometheus`] skips `# HELP` lines, so
/// described and undescribed exports parse to the same snapshot.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let family = prometheus_name(name);
        write_help(&mut out, name, &format!("{family}_total"));
        let _ = writeln!(out, "# TYPE {family}_total counter");
        let _ = writeln!(out, "{family}_total {value}");
    }
    for (name, value) in &snapshot.gauges {
        let family = prometheus_name(name);
        write_help(&mut out, name, &family);
        let _ = writeln!(out, "# TYPE {family} gauge");
        let _ = writeln!(out, "{family} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let family = prometheus_name(name);
        write_help(&mut out, name, &family);
        let _ = writeln!(out, "# TYPE {family} histogram");
        let mut cumulative = 0u64;
        for (bound, bucket) in hist.bounds.iter().zip(&hist.buckets) {
            cumulative += bucket;
            let le = escape_label_value(&bound.to_string());
            let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{family}_sum {}", hist.sum);
        let _ = writeln!(out, "{family}_count {}", hist.count);
    }
    out
}

/// Serialises a snapshot as pretty-printed JSON.
///
/// # Errors
///
/// Propagates serialisation failures (none occur for well-formed
/// snapshots; the `Result` mirrors `serde_json`).
pub fn to_json(snapshot: &Snapshot) -> Result<String, String> {
    serde_json::to_string_pretty(snapshot).map_err(|e| format!("cannot serialise snapshot: {e}"))
}

/// Parses [`to_json`] output back into a snapshot.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn from_json(text: &str) -> Result<Snapshot, String> {
    serde_json::from_str(text).map_err(|e| format!("malformed snapshot JSON: {e}"))
}

/// Parses a Prometheus text exposition produced by [`to_prometheus`] back
/// into a snapshot (keys stay in their sanitized Prometheus form, see
/// [`Snapshot::sanitized`]).
///
/// # Errors
///
/// Returns a description of the first malformed line. Only the subset of
/// the format that [`to_prometheus`] emits is understood.
pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
    let mut snapshot = Snapshot::default();
    // family -> declared type
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    // histogram family -> (bounds, cumulative bucket counts, sum, count)
    let mut hists: BTreeMap<String, (Vec<f64>, Vec<u64>, f64, u64)> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let fail = |what: &str| format!("line {}: {what}: `{line}`", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().ok_or_else(|| fail("missing family"))?;
            let kind = parts.next().ok_or_else(|| fail("missing kind"))?;
            kinds.insert(family.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value_text) = line
            .rsplit_once(' ')
            .ok_or_else(|| fail("expected `name value`"))?;

        if let Some((family, label)) = key.split_once('{') {
            // Histogram bucket sample: name_bucket{le="bound"} count
            let family = family
                .strip_suffix("_bucket")
                .ok_or_else(|| fail("unexpected labelled sample"))?;
            let bound_text = label
                .strip_prefix("le=\"")
                .and_then(|s| s.strip_suffix("\"}"))
                .map(unescape_label_value)
                .ok_or_else(|| fail("expected le=\"...\" label"))?;
            let cumulative: u64 = value_text.parse().map_err(|_| fail("bad bucket count"))?;
            let entry = hists
                .entry(family.to_string())
                .or_insert_with(|| (Vec::new(), Vec::new(), 0.0, 0));
            if bound_text != "+Inf" {
                let bound: f64 = bound_text.parse().map_err(|_| fail("bad le bound"))?;
                entry.0.push(bound);
            }
            entry.1.push(cumulative);
            continue;
        }

        if let Some(family) = key.strip_suffix("_sum") {
            if kinds.get(family).map(String::as_str) == Some("histogram") {
                hists
                    .entry(family.to_string())
                    .or_insert_with(|| (Vec::new(), Vec::new(), 0.0, 0))
                    .2 = value_text.parse().map_err(|_| fail("bad sum"))?;
                continue;
            }
        }
        if let Some(family) = key.strip_suffix("_count") {
            if kinds.get(family).map(String::as_str) == Some("histogram") {
                hists
                    .entry(family.to_string())
                    .or_insert_with(|| (Vec::new(), Vec::new(), 0.0, 0))
                    .3 = value_text.parse().map_err(|_| fail("bad count"))?;
                continue;
            }
        }
        if let Some(family) = key.strip_suffix("_total") {
            if kinds.get(key).map(String::as_str) != Some("gauge") {
                // Counters parse as integers, not through `f64`: an `f64`
                // round trip silently loses counter bits above 2^53.
                let value: u64 = value_text.parse().map_err(|_| fail("bad counter value"))?;
                snapshot.counters.insert(family.to_string(), value);
                continue;
            }
        }
        let value: f64 = value_text.parse().map_err(|_| fail("bad sample value"))?;
        snapshot.gauges.insert(key.to_string(), value);
    }

    for (family, (bounds, cumulative, sum, count)) in hists {
        if cumulative.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram `{family}`: {} bucket samples for {} bounds",
                cumulative.len(),
                bounds.len()
            ));
        }
        // De-cumulate back into per-bucket counts.
        let mut buckets = Vec::with_capacity(cumulative.len());
        let mut previous = 0u64;
        for value in cumulative {
            buckets.push(
                value
                    .checked_sub(previous)
                    .ok_or_else(|| format!("histogram `{family}`: bucket counts not cumulative"))?,
            );
            previous = value;
        }
        snapshot.histograms.insert(
            family,
            HistogramSnapshot {
                bounds,
                buckets,
                sum,
                count,
            },
        );
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("monitor.events".into(), 1234);
        snapshot.counters.insert("plan.total".into(), 56);
        snapshot
            .gauges
            .insert("monitor.banks_tracked".into(), 505.0);
        snapshot.histograms.insert(
            "span.fit.seconds".into(),
            HistogramSnapshot {
                bounds: vec![0.001, 0.1, 1.0],
                buckets: vec![2, 3, 0, 1],
                sum: 1.2345678901234567,
                count: 6,
            },
        );
        snapshot
    }

    #[test]
    fn prometheus_families_are_named_and_typed() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE cordial_monitor_events_total counter"));
        assert!(text.contains("cordial_monitor_events_total 1234"));
        assert!(text.contains("# TYPE cordial_monitor_banks_tracked gauge"));
        assert!(text.contains("# TYPE cordial_span_fit_seconds histogram"));
        assert!(text.contains("cordial_span_fit_seconds_bucket{le=\"+Inf\"} 6"));
        // Buckets are cumulative.
        assert!(text.contains("cordial_span_fit_seconds_bucket{le=\"0.1\"} 5"));
    }

    #[test]
    fn prometheus_round_trips_the_snapshot() {
        let snapshot = sample_snapshot();
        let parsed = parse_prometheus(&to_prometheus(&snapshot)).unwrap();
        assert_eq!(parsed, snapshot.sanitized());
    }

    #[test]
    fn json_round_trips_the_snapshot() {
        let snapshot = sample_snapshot();
        let parsed = from_json(&to_json(&snapshot).unwrap()).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn json_and_prometheus_agree_on_one_snapshot() {
        // The satellite guarantee: both exports are views of the same data.
        let snapshot = sample_snapshot();
        let via_json = from_json(&to_json(&snapshot).unwrap()).unwrap();
        let via_prom = parse_prometheus(&to_prometheus(&snapshot)).unwrap();
        assert_eq!(via_json.sanitized(), via_prom);
    }

    #[test]
    fn malformed_expositions_are_rejected() {
        assert!(parse_prometheus("cordial_x_bucket{oops=\"1\"} 2").is_err());
        assert!(parse_prometheus("cordial_x_total not_a_number").is_err());
        assert!(parse_prometheus("just_one_token").is_err());
    }

    #[test]
    fn help_text_is_emitted_escaped_and_skipped_by_the_parser() {
        let snapshot = sample_snapshot();
        describe(
            "monitor.events",
            "raw events offered\nto the monitor, incl. \\ escapes",
        );
        describe("span.fit.seconds", "end-to-end fit wall time");
        let text = to_prometheus(&snapshot);
        assert!(text.contains(
            "# HELP cordial_monitor_events_total raw events offered\\nto the monitor, incl. \\\\ escapes"
        ));
        assert!(text.contains("# HELP cordial_span_fit_seconds end-to-end fit wall time"));
        // An undescribed family has no HELP line.
        assert!(!text.contains("# HELP cordial_plan_total"));
        // HELP lines do not disturb the round trip.
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, snapshot.sanitized());
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let hostile = "a\\b\"c\nd";
        let escaped = escape_label_value(hostile);
        assert_eq!(escaped, "a\\\\b\\\"c\\nd");
        assert_eq!(unescape_label_value(&escaped), hostile);
        // Plain values pass through untouched.
        assert_eq!(escape_label_value("0.005"), "0.005");
        assert_eq!(unescape_label_value("+Inf"), "+Inf");
        // A trailing lone backslash survives the round trip.
        assert_eq!(
            unescape_label_value(&escape_label_value("tail\\")),
            "tail\\"
        );
    }

    #[test]
    fn exposition_le_buckets_honour_inclusive_upper_bounds() {
        // The registry invariant (`v <= bound` lands in that bound's
        // bucket) must survive into the cumulative `le` samples: an
        // observation exactly on 2.0 counts under le="2", not only +Inf.
        crate::set_enabled(true);
        let registry = crate::MetricsRegistry::new();
        let hist = registry.histogram("edge.case", &[1.0, 2.0]);
        hist.observe(2.0);
        let text = to_prometheus(&registry.snapshot());
        assert!(text.contains("cordial_edge_case_bucket{le=\"1\"} 0"));
        assert!(text.contains("cordial_edge_case_bucket{le=\"2\"} 1"));
        assert!(text.contains("cordial_edge_case_bucket{le=\"+Inf\"} 1"));
    }
}
