//! Disabled-subscriber behavior, in its own process so no other test can
//! flip the global switch underneath it: with recording off (the library
//! default), instrumentation must record nothing.

use cordial_obs as obs;

#[test]
fn disabled_subscriber_records_nothing() {
    assert!(!obs::enabled(), "recording must default to off");

    obs::counter!("noop.counter").inc();
    obs::gauge!("noop.gauge").set(3.5);
    obs::histogram!("noop.hist", obs::COUNT_BOUNDS).observe(2.0);
    {
        let _span = obs::span!("noop");
    }

    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counters["noop.counter"], 0);
    assert_eq!(snapshot.gauges["noop.gauge"], 0.0);
    assert_eq!(snapshot.histograms["noop.hist"].count, 0);
    // A disabled span never registers its histogram at all.
    assert!(!snapshot.histograms.contains_key("span.noop.seconds"));

    // Adding to a summed gauge is share bookkeeping, not recording: it
    // applies while off, so an owner can always withdraw what it added
    // while recording was on.
    obs::gauge!("noop.shares").add(2.0);
    assert_eq!(obs::snapshot().gauges["noop.shares"], 2.0);

    // Flipping the switch on makes the very same cached handles live.
    obs::set_enabled(true);
    obs::counter!("noop.counter").inc();
    assert_eq!(obs::snapshot().counters["noop.counter"], 1);
}
