//! Gain-based feature importance of the boosted families.

use cordial_trees::{Dataset, Gbdt, GbdtConfig, LightGbm, LightGbmConfig};

/// Two informative features (0, 1) and two pure-noise features (2, 3).
fn noisy_blobs(n_per_class: usize) -> Dataset {
    let mut data = Dataset::new(4, 2);
    let mut noise = 0.0f64;
    let mut next_noise = || {
        noise = (noise * 9301.0 + 49_297.0) % 233_280.0;
        noise / 233_280.0 * 10.0
    };
    for i in 0..n_per_class {
        let v = (i % 17) as f64 * 0.1;
        data.push_row(&[v, -v, next_noise(), next_noise()], 0)
            .unwrap();
        data.push_row(&[8.0 + v, 8.0 - v, next_noise(), next_noise()], 1)
            .unwrap();
    }
    data
}

#[test]
fn gbdt_importance_prefers_informative_features() {
    let data = noisy_blobs(80);
    let model = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(15)).unwrap();
    let importance = model.feature_importance();
    assert_eq!(importance.len(), 4);
    assert!((importance.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let informative = importance[0] + importance[1];
    assert!(
        informative > 0.9,
        "informative features should dominate: {importance:?}"
    );
}

#[test]
fn lightgbm_importance_prefers_informative_features() {
    let data = noisy_blobs(80);
    let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(15)).unwrap();
    let importance = model.feature_importance();
    assert_eq!(importance.len(), 4);
    assert!((importance.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(
        importance[0] + importance[1] > 0.9,
        "informative features should dominate: {importance:?}"
    );
}
