//! Property-based tests on the model families: invariants that must hold
//! for any dataset the strategy can produce.

use proptest::prelude::*;

use cordial_trees::{
    BinnedDataset, Classifier, Dataset, DecisionTree, Gbdt, GbdtConfig, LightGbm, LightGbmConfig,
    RandomForest, RandomForestConfig, TreeConfig,
};

/// A random small dataset: 2-5 features, 2-3 classes, 10-80 rows, values in
/// a modest range with occasional NaN.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..=5, 2usize..=3).prop_flat_map(|(n_features, n_classes)| {
        let row = prop::collection::vec(
            prop_oneof![
                8 => -100.0..100.0f64,
                1 => Just(f64::NAN),
            ],
            n_features,
        );
        let labelled_row = (row, 0..n_classes);
        prop::collection::vec(labelled_row, 10..80).prop_map(move |rows| {
            let mut data = Dataset::new(n_features, n_classes);
            for (values, label) in rows {
                data.push_row(&values, label).expect("valid row");
            }
            data
        })
    })
}

/// Ensures every class is represented (degenerate single-class data is
/// legal but uninteresting for most invariants).
fn has_all_classes(data: &Dataset) -> bool {
    data.class_counts().iter().all(|&c| c > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decision_tree_probabilities_form_a_simplex(data in arb_dataset()) {
        let tree = DecisionTree::fit(&data, &TreeConfig::default()).unwrap();
        for i in 0..data.n_rows() {
            let proba = tree.predict_proba(data.row(i));
            prop_assert_eq!(proba.len(), data.n_classes());
            prop_assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(proba.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
            prop_assert!(tree.predict(data.row(i)) < data.n_classes());
        }
    }

    #[test]
    fn deep_tree_fits_consistent_training_data(data in arb_dataset()) {
        // Rows with identical features but different labels make a perfect
        // fit impossible; on conflict-free data a deep tree must reach
        // >= majority-class accuracy.
        let tree = DecisionTree::fit(
            &data,
            &TreeConfig { max_depth: 64, ..TreeConfig::default() },
        )
        .unwrap();
        let correct = (0..data.n_rows())
            .filter(|&i| tree.predict(data.row(i)) == data.label(i))
            .count();
        let majority = *data
            .class_counts()
            .iter()
            .max()
            .expect("non-empty");
        prop_assert!(correct >= majority.min(data.n_rows()) - data.n_rows() / 4);
    }

    #[test]
    fn forest_probabilities_form_a_simplex(data in arb_dataset()) {
        prop_assume!(has_all_classes(&data));
        let forest = RandomForest::fit(
            &data,
            &RandomForestConfig::default().with_trees(7).with_seed(1),
        )
        .unwrap();
        for i in 0..data.n_rows().min(20) {
            let proba = forest.predict_proba(data.row(i));
            prop_assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(forest.predict(data.row(i)) < data.n_classes());
        }
    }

    #[test]
    fn gbdt_probabilities_form_a_simplex(data in arb_dataset()) {
        prop_assume!(has_all_classes(&data));
        let model = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(4)).unwrap();
        for i in 0..data.n_rows().min(20) {
            let proba = model.predict_proba(data.row(i));
            prop_assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(proba.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn lightgbm_probabilities_form_a_simplex(data in arb_dataset()) {
        prop_assume!(has_all_classes(&data));
        let model = LightGbm::fit(&data, &LightGbmConfig::default().with_rounds(4)).unwrap();
        for i in 0..data.n_rows().min(20) {
            let proba = model.predict_proba(data.row(i));
            prop_assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(proba.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn importances_are_normalised_or_zero(data in arb_dataset()) {
        prop_assume!(has_all_classes(&data));
        let forest = RandomForest::fit(
            &data,
            &RandomForestConfig::default().with_trees(5).with_seed(2),
        )
        .unwrap();
        let gbdt = Gbdt::fit(&data, &GbdtConfig::default().with_rounds(3)).unwrap();
        for importance in [forest.feature_importance(), gbdt.feature_importance()] {
            prop_assert_eq!(importance.len(), data.n_features());
            let sum: f64 = importance.iter().sum();
            prop_assert!(sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9);
            prop_assert!(importance.iter().all(|&g| g >= 0.0));
        }
    }

    #[test]
    fn binned_dataset_agrees_with_the_mapper_value_by_value(
        data in arb_dataset(),
        max_bins in 2usize..=64,
    ) {
        // The column-major cache must be a pure re-layout of what
        // `BinMapper::bin` says about every (row, feature) value: the
        // histogram fit paths trust `column` blindly.
        let binned = BinnedDataset::fit(&data, max_bins);
        prop_assert_eq!(binned.n_rows(), data.n_rows());
        prop_assert_eq!(binned.n_features(), data.n_features());
        for f in 0..data.n_features() {
            for (i, &cached) in binned.column(f).iter().enumerate() {
                let expected = binned.mapper().bin(f, data.row(i)[f]);
                prop_assert_eq!(cached, expected);
                prop_assert!((expected as usize) < binned.n_bins(f));
            }
        }
    }

    #[test]
    fn stratified_split_is_a_partition(data in arb_dataset(), seed in 0u64..100) {
        let split = data.stratified_split(0.7, seed);
        let mut all: Vec<usize> = split.train.iter().chain(&split.test).copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..data.n_rows()).collect();
        prop_assert_eq!(all, expected);
    }
}
