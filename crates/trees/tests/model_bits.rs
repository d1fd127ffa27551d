//! Pins the exact split searches to their fitted bits: models fitted on
//! one fixed dataset with NaN, ±0.0 and heavy ties must serialize to the
//! bytes that the per-node value sort (the search before features were
//! rank-encoded) produced. Any change in split order, tie handling or
//! floating-point summation order shows up as a different hash. The
//! boosted families are pinned at the settings the pipeline fits them
//! with: defaults apart from the round count.

use cordial_trees::{
    Dataset, DecisionTree, Gbdt, GbdtConfig, LightGbm, LightGbmConfig, RandomForest,
    RandomForestConfig, TreeConfig,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn model_hash<M: serde::Serialize>(model: &M) -> u64 {
    fnv1a(serde_json::to_string(model).unwrap().as_bytes())
}

/// 400 rows, 5 features, 3 classes, from a fixed LCG stream. Feature 0
/// takes six values including NaN, −0.0 and +0.0; feature 1 has 200
/// levels; feature 2 has four; feature 3 is NaN one row in five;
/// feature 4 is constant. About one label in ten is noise.
fn dataset() -> Dataset {
    let mut state: u64 = 2025;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    let mut data = Dataset::new(5, 3);
    for _ in 0..400 {
        let f0 = [f64::NAN, -0.0, 0.0, 1.0, 2.0, 2.0][(next() % 6) as usize];
        let f1 = f64::from(next() % 200) / 4.0;
        let f2 = f64::from(next() % 4);
        let f3 = if next() % 5 == 0 {
            f64::NAN
        } else {
            f64::from(next() % 50) - 25.0
        };
        let mut label = if f1 < 15.0 {
            0
        } else if f2 >= 2.0 || f0 == 0.0 {
            1
        } else {
            2
        };
        if next() % 10 == 0 {
            label = (label + 1) % 3;
        }
        data.push_row(&[f0, f1, f2, f3, 7.0], label).unwrap();
    }
    data
}

#[test]
fn xgboost_keeps_its_bits_at_default_settings() {
    let data = dataset();
    for n_threads in [1, 4] {
        let config = GbdtConfig {
            n_rounds: 30,
            n_threads,
            ..GbdtConfig::default()
        };
        let model = Gbdt::fit(&data, &config).unwrap();
        assert_eq!(
            model_hash(&model),
            0x8aba_12c0_7942_9dcd,
            "n_threads={n_threads}"
        );
    }
}

#[test]
fn lightgbm_keeps_its_bits_at_default_settings() {
    let data = dataset();
    for n_threads in [1, 4] {
        let config = LightGbmConfig {
            n_rounds: 30,
            n_threads,
            ..LightGbmConfig::default()
        };
        let model = LightGbm::fit(&data, &config).unwrap();
        assert_eq!(
            model_hash(&model),
            0xa70d_018b_57f9_b191,
            "n_threads={n_threads}"
        );
    }
}

#[test]
fn forest_keeps_its_bits() {
    let config = RandomForestConfig::default().with_trees(12).with_seed(5);
    let forest = RandomForest::fit(&dataset(), &config).unwrap();
    assert_eq!(model_hash(&forest), 0x8c04_ad91_088e_07cd);
}

#[test]
fn decision_tree_keeps_its_bits() {
    let tree = DecisionTree::fit(&dataset(), &TreeConfig::default()).unwrap();
    assert_eq!(model_hash(&tree), 0x130f_a883_cd03_0e04);
}
