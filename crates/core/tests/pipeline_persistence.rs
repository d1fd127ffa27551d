//! The trained Cordial pipeline must survive JSON persistence with
//! identical planning behaviour (the CLI's train → plan workflow).

use cordial::features::bank_features;
use cordial::pipeline::Cordial;
use cordial::prelude::*;

// Every monitor, shard and worker thread shares one pipeline handle.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cordial>();
};

#[test]
fn trained_pipeline_round_trips_through_json() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 81);
    let split = split_banks(&dataset, 0.7, 81);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();

    let json = serde_json::to_string(&cordial).unwrap();
    let reloaded: Cordial = serde_json::from_str(&json).unwrap();
    assert_eq!(cordial, reloaded);

    let by_bank = dataset.log.by_bank();
    for bank in &split.test {
        assert_eq!(
            cordial.plan(&by_bank[bank]),
            reloaded.plan(&by_bank[bank]),
            "plan for {bank} must be identical after reload"
        );
    }
}

#[test]
fn pipeline_config_survives_persistence() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 82);
    let split = split_banks(&dataset, 0.7, 82);
    let config = CordialConfig::with_model(ModelKind::xgboost()).with_seed(9);
    let cordial = Cordial::fit(&dataset, &split.train, &config).unwrap();

    let reloaded: Cordial =
        serde_json::from_str(&serde_json::to_string(&cordial).unwrap()).unwrap();
    assert_eq!(reloaded.config(), &config);
    assert_eq!(reloaded.config().model.short_name(), "XGB");
    assert_eq!(reloaded.crossrow().spec(), config.block);
}

#[test]
fn serialized_pipeline_is_the_three_stage_map() {
    // The CLI's pipeline and `--checkpoint` files, and any tool that
    // assembles a pipeline from separately fitted stages, rely on exactly
    // this layout; the flat inference twins are never written.
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 83);
    let split = split_banks(&dataset, 0.7, 83);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();

    let json = serde_json::to_string(&cordial).unwrap();
    let serde_json::Value::Map(entries) = serde_json::parse_value_str(&json).unwrap() else {
        panic!("a pipeline serializes to a map");
    };
    let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["classifier", "crossrow", "config"]);
}

/// The plan of a reloaded LightGBM pipeline, which infers through its flat
/// twins, equals the plan the original pipeline's fitted models give when
/// each stage is driven without twins.
#[test]
fn reloaded_flat_plans_equal_the_original_pointer_plans() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 84);
    let split = split_banks(&dataset, 0.7, 84);
    let config = CordialConfig::with_model(ModelKind::lightgbm()).with_seed(84);
    let cordial = Cordial::fit(&dataset, &split.train, &config).unwrap();
    let reloaded: Cordial =
        serde_json::from_str(&serde_json::to_string(&cordial).unwrap()).unwrap();
    assert!(
        !reloaded.flat().is_empty(),
        "LightGBM pipelines have flat twins"
    );

    let geom = HbmGeometry::hbm2e_8hi();
    let by_bank = dataset.log.by_bank();
    let mut row_sparing = 0;
    for bank in &split.test {
        let history = &by_bank[bank];
        let pointer = match history.observe_until_k_uers(config.k_uers) {
            None => MitigationPlan::InsufficientData,
            Some((window, _)) => {
                let raw = bank_features(&window, &geom);
                let pattern = cordial.classifier().classify_from_features(&raw, None);
                if pattern.is_aggregation() {
                    row_sparing += 1;
                    let rows = cordial
                        .crossrow()
                        .predicted_rows_from_features(&window, pattern, &raw, None);
                    MitigationPlan::RowSparing { pattern, rows }
                } else {
                    MitigationPlan::BankSparing
                }
            }
        };
        assert_eq!(reloaded.plan(history), pointer, "plan for {bank}");
    }
    assert!(
        row_sparing > 0,
        "the comparison must cover row-sparing plans"
    );
}
