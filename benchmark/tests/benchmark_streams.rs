//! The benchmark's stream helpers, percentile rule and checking code,
//! exercised without spawning binaries or allocating gigabytes.

use std::collections::{BTreeMap, BTreeSet};

use cordial::pipeline::Cordial;
use cordial_benchmark::traced::{fit_pipeline, serve, Tracer};
use cordial_benchmark::{
    fleet_stream, interleaved_batches, percentile, serve_training, split_by_node, Golden,
    ServedOutcome, StreamFacts, BATCH_EVENTS, GOLDEN_SEED,
};
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
use cordial_fleet::DeviceId;
use cordial_mcelog::ErrorEvent;

fn per_device(stream: &[ErrorEvent]) -> BTreeMap<DeviceId, Vec<ErrorEvent>> {
    let mut out: BTreeMap<DeviceId, Vec<ErrorEvent>> = BTreeMap::new();
    for event in stream {
        out.entry(DeviceId::of(&event.addr.bank))
            .or_default()
            .push(*event);
    }
    out
}

#[test]
fn passes_keep_each_device_in_time_order() {
    let config = FleetDatasetConfig::small();
    for fresh in [false, true] {
        let stream = fleet_stream(&config, 7, 3, fresh);
        for (device, events) in per_device(&stream) {
            assert!(
                events.windows(2).all(|w| w[0].time <= w[1].time),
                "{device}: time went backwards (fresh devices: {fresh})"
            );
        }
    }
}

#[test]
fn repeated_passes_replay_each_device_in_its_original_order() {
    let config = FleetDatasetConfig::small();
    let base = fleet_stream(&config, 7, 1, false);
    let stream = fleet_stream(&config, 7, 3, false);
    assert_eq!(stream.len(), 3 * base.len());
    let base_by_device = per_device(&base);
    for (device, events) in per_device(&stream) {
        let original = &base_by_device[&device];
        assert_eq!(events.len(), 3 * original.len());
        for pass in events.chunks(original.len()) {
            let addrs: Vec<_> = pass.iter().map(|e| (e.addr, e.error_type)).collect();
            let want: Vec<_> = original.iter().map(|e| (e.addr, e.error_type)).collect();
            assert_eq!(addrs, want, "{device}: a pass reordered or changed events");
        }
    }
}

#[test]
fn fresh_passes_share_no_device() {
    let config = FleetDatasetConfig::small();
    let base_len = fleet_stream(&config, 11, 1, true).len();
    let stream = fleet_stream(&config, 11, 3, true);
    let passes: Vec<BTreeSet<DeviceId>> = stream
        .chunks(base_len)
        .map(|pass| pass.iter().map(|e| DeviceId::of(&e.addr.bank)).collect())
        .collect();
    assert_eq!(passes.len(), 3);
    for (i, a) in passes.iter().enumerate() {
        for b in &passes[i + 1..] {
            assert!(a.is_disjoint(b), "two fresh passes share a device");
        }
    }
}

#[test]
fn split_by_node_is_disjoint_complete_and_order_preserving() {
    let stream = fleet_stream(&FleetDatasetConfig::small(), 5, 2, false);
    let parts = split_by_node(&stream, 2);
    assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), stream.len());
    for (conn, part) in parts.iter().enumerate() {
        assert!(part
            .iter()
            .all(|e| e.addr.bank.node.index() as usize % 2 == conn));
        let in_stream: Vec<&ErrorEvent> = stream
            .iter()
            .filter(|e| e.addr.bank.node.index() as usize % 2 == conn)
            .collect();
        assert!(
            part.iter().eq(in_stream),
            "connection {conn} reordered the stream"
        );
    }
    let batches = interleaved_batches(&parts);
    assert!(batches.iter().all(|b| b.len() <= BATCH_EVENTS));
    assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), stream.len());
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.99), Some(990.0));
    assert_eq!(percentile(&samples[..999], 0.99), None);
    assert_eq!(percentile(&samples[..100], 0.9), Some(90.0));
    assert_eq!(percentile(&samples[..99], 0.9), None);
    // The median is always reported.
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn golden_replay_after_kill_matches_live_ingest() {
    let golden = Golden::at(GOLDEN_SEED)
        .expect("golden parses")
        .expect("golden recorded at the golden seed");
    let outcome = |name: &str| {
        let mut o = golden.serving(name).expect("recorded").clone();
        o.workload.clear();
        o
    };
    // Both workloads serve the same stream: once live over the wire, once
    // replayed from its journal by a restarting daemon.
    assert_eq!(outcome("steady-fleet"), outcome("crash-recovery"));
    assert!(Golden::at(GOLDEN_SEED + 1).expect("no golden").is_none());
}

/// The traced run fits the two stages apart to time them; the pipeline
/// it assembles must be the one `Cordial::fit` (and so `serve`) trains.
#[test]
fn staged_fit_equals_cordial_fit() {
    let small = generate_fleet_dataset(&FleetDatasetConfig::small(), GOLDEN_SEED);
    let (train, config) = serve_training(&small);
    let staged = fit_pipeline(&mut Tracer::default(), &small, &train, &config).expect("trains");
    let reference = Cordial::fit(&small, &train, &config).expect("trains");
    assert!(
        staged == reference,
        "the staged fit differs from Cordial::fit"
    );
}

/// The traced serving path over three passes of the small fleet: every
/// plan the monitors make must reproduce from its window, agree with
/// `Cordial::plan_batch`, satisfy the stream's facts and match the
/// recorded outcome.
#[test]
fn traced_serving_matches_the_small_golden() {
    let small = generate_fleet_dataset(&FleetDatasetConfig::small(), GOLDEN_SEED);
    let (train, config) = serve_training(&small);
    let mut tracer = Tracer::default();
    let pipeline = fit_pipeline(&mut tracer, &small, &train, &config).expect("trains");
    let stream = fleet_stream(&FleetDatasetConfig::small(), GOLDEN_SEED, 3, false);
    let facts = StreamFacts::of(&stream);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced-small-golden");
    let served = serve(
        &mut tracer,
        &pipeline,
        [&[], &stream],
        &facts.plannable,
        false,
        &dir,
    )
    .expect("serves");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(served.problems.is_empty(), "{:?}", served.problems);
    assert!(facts.violations(&served.stats, &served.plans).is_empty());
    assert_eq!(served.replayed, stream.len());
    let golden = Golden::parse(include_str!("../golden/small-seed-2025-3-passes.json"))
        .expect("golden parses");
    let observed = ServedOutcome::new("small-3-passes", served.stats, &served.plans);
    assert_eq!(
        Some(&observed),
        golden.serving("small-3-passes"),
        "observed {}",
        serde_json::to_string(&observed).unwrap_or_default()
    );
}
