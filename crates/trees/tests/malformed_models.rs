//! A damaged XGBoost- or LightGBM-style model file must fail to load,
//! naming the round, the class and the node, rather than hang or panic
//! at its first prediction. Each test damages one well-formed two-class,
//! two-feature, one-round model of both families in one way.

use cordial_trees::{Classifier, Gbdt, LightGbm};
use serde::Deserialize;

/// How one boosted family writes its model file.
struct Family {
    /// The root split's threshold field.
    threshold: &'static str,
    /// The fields written before `trees`.
    prefix: &'static str,
}

const XGB: Family = Family {
    threshold: r#""threshold":5.5"#,
    prefix: "",
};

/// Bin 1 holds values up to 5.5, so the split matches XGBoost's.
const LGBM: Family = Family {
    threshold: r#""bin_threshold":1"#,
    prefix: r#""mapper":{"boundaries":[[5.5],[]]},"#,
};

impl Family {
    /// A tree whose root splits `feature` into nodes `left` and `right`,
    /// leaves of weight `weight` (node 1) and `-weight` (node 2).
    fn tree(&self, feature: usize, left: usize, right: usize, weight: f64) -> String {
        format!(
            r#"{{"nodes":[{{"Split":{{"feature":{feature},{},"left":{left},"right":{right}}}}},{{"Leaf":{{"weight":{weight}}}}},{{"Leaf":{{"weight":{}}}}}]}}"#,
            self.threshold, -weight
        )
    }

    /// A one-round model of `trees` with the given base scores.
    fn model(&self, trees: &[String], base_score: &str) -> String {
        format!(
            r#"{{{}"trees":[[{}]],"n_classes":2,"n_features":2,"base_score":{base_score},"learning_rate":0.2,"gains":[7.2,0.0]}}"#,
            self.prefix,
            trees.join(",")
        )
    }

    /// The well-formed model with class 0's tree replaced by `first`.
    fn with_first_tree(&self, first: String) -> String {
        self.model(&[first, self.tree(0, 1, 2, -1.2)], "[-0.7,-0.7]")
    }

    fn good(&self) -> String {
        self.with_first_tree(self.tree(0, 1, 2, 1.2))
    }
}

/// Decoding `json` as `M` fails with an error that contains every
/// fragment.
fn assert_refused<M>(json: &str, fragments: &[&str])
where
    M: for<'de> Deserialize<'de> + std::fmt::Debug,
{
    let err = serde_json::from_str::<M>(json)
        .expect_err("a malformed model must not load")
        .to_string();
    for fragment in fragments {
        assert!(err.contains(fragment), "{err:?} lacks {fragment:?}");
    }
}

/// Both families refuse the model `damage` writes for them.
fn assert_both_refused(damage: impl Fn(&Family) -> String, fragments: &[&str]) {
    assert_refused::<Gbdt>(&damage(&XGB), fragments);
    assert_refused::<LightGbm>(&damage(&LGBM), fragments);
}

#[test]
fn well_formed_model_files_load_and_score() {
    let xgb: Gbdt = serde_json::from_str(&XGB.good()).unwrap();
    let lgbm: LightGbm = serde_json::from_str(&LGBM.good()).unwrap();
    for model in [&xgb as &dyn Classifier, &lgbm] {
        assert_eq!(model.predict(&[0.0, 0.0]), 0);
        assert_eq!(model.predict(&[9.0, 0.0]), 1);
        assert_eq!(model.predict(&[f64::NAN, 0.0]), 0);
    }
}

#[test]
fn a_self_looping_split_is_refused() {
    assert_both_refused(
        |family| family.with_first_tree(family.tree(0, 0, 2, 1.2)),
        &[
            "round 0, class 0",
            "node 0",
            "child index 0 does not come after its parent",
        ],
    );
}

#[test]
fn an_out_of_range_child_is_refused() {
    assert_both_refused(
        |family| family.with_first_tree(family.tree(0, 1, 999, 1.2)),
        &[
            "round 0, class 0",
            "node 0",
            "child index 999 is out of range (3 nodes)",
        ],
    );
}

#[test]
fn an_out_of_range_split_feature_is_refused() {
    assert_both_refused(
        |family| family.with_first_tree(family.tree(7, 1, 2, 1.2)),
        &[
            "round 0, class 0",
            "node 0",
            "split feature 7 is out of range (2 features)",
        ],
    );
}

#[test]
fn an_empty_tree_is_refused() {
    assert_both_refused(
        |family| {
            family.model(
                &[family.tree(0, 1, 2, 1.2), r#"{"nodes":[]}"#.into()],
                "[0,0]",
            )
        },
        &["round 0, class 1", "tree has no nodes"],
    );
}

#[test]
fn a_round_without_one_tree_per_class_is_refused() {
    assert_both_refused(
        |family| family.model(&[family.tree(0, 1, 2, 1.2)], "[0,0]"),
        &["round 0 has 1 trees for 2 classes"],
    );
}

#[test]
fn base_scores_without_one_per_class_are_refused() {
    assert_both_refused(
        |family| {
            family.model(
                &[family.tree(0, 1, 2, 1.2), family.tree(0, 1, 2, -1.2)],
                "[0]",
            )
        },
        &["model has 1 base scores for 2 classes"],
    );
}

#[test]
fn a_bin_mapper_short_of_the_features_is_refused() {
    let json = LGBM
        .good()
        .replace(r#""boundaries":[[5.5],[]]"#, r#""boundaries":[[5.5]]"#);
    assert_refused::<LightGbm>(&json, &["bin mapper covers 1 features, model has 2"]);
}
