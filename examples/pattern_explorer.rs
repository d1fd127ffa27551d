//! Pattern explorer: generate each bank-level failure pattern, render it,
//! extract the paper's features, and classify it.
//!
//! A guided tour of §III-B/§IV-B: shows what the five fine-grained patterns
//! look like, which physical fault causes each, and what the classifier's
//! feature vector sees.
//!
//! ```text
//! cargo run --release --example pattern_explorer
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use cordial::features::{bank_features, BANK_FEATURE_NAMES};
use cordial_suite::faultsim::{BankFaultPlan, FaultKind, PatternKind, PlanConfig};
use cordial_suite::mcelog::BankErrorHistory;
use cordial_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = HbmGeometry::hbm2e_8hi();
    let plan_config = PlanConfig::paper();
    let mut rng = StdRng::seed_from_u64(7);

    // Train a classifier to interrogate.
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 7);
    let banks: Vec<BankAddress> = dataset.truth.keys().copied().collect();
    let classifier =
        cordial::classifier::PatternClassifier::fit(&dataset, &banks, &CordialConfig::default())?;

    for kind in PatternKind::ALL {
        let bank = BankAddress::default();
        let plan = BankFaultPlan::sample(bank, kind, &plan_config, &geom, &mut rng);
        let incidents = plan.generate_incidents(&plan_config, &geom, &mut rng);
        let events = plan_config.ecc.classify_all(&incidents);
        let history = BankErrorHistory::new(bank, events);

        println!("================================================================");
        println!("{kind}");
        println!(
            "  root cause: {} ({:?})",
            plan.fault,
            FaultKind::sample_for_pattern(kind, &mut rng)
        );
        println!(
            "  events: {} CE, {} UEO, {} UER across {} distinct UER rows",
            history.count(ErrorType::Ce),
            history.count(ErrorType::Ueo),
            history.count(ErrorType::Uer),
            history.all_uer_rows_sorted().len()
        );

        // Row map: distinct UER rows, bucketed.
        let rows = history.all_uer_rows_sorted();
        println!("  UER row map (row index → '*'):");
        print!("    ");
        let mut last_bucket = None;
        for row in &rows {
            let bucket = row.index() / 2048;
            if last_bucket != Some(bucket) {
                print!("[{}k] ", bucket * 2);
                last_bucket = Some(bucket);
            }
            print!("{} ", row.index());
        }
        println!();

        // What the classifier sees at the 3-UER cut.
        if let Some((window, _)) = history.observe_until_k_uers(3) {
            let features = bank_features(&window, &geom);
            println!("  key classification features:");
            for name in [
                "uer_pairwise_dist_small",
                "uer_pairwise_dist_large",
                "uer_dist_ratio",
                "ce_count_before_first_uer",
            ] {
                let idx = BANK_FEATURE_NAMES.iter().position(|&n| n == name).unwrap();
                println!("    {name:<26} = {:>12.1}", features[idx]);
            }
            let predicted = classifier.classify_from_features(&features, None);
            println!(
                "  classifier verdict: {predicted}  (ground truth: {})",
                kind.coarse()
            );
        } else {
            println!("  (bank never reached 3 distinct UER rows)");
        }
    }
    Ok(())
}
