//! Random forest: bootstrap-aggregated CART trees with probability averaging.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use crate::data::Dataset;
use crate::error::FitError;
use crate::rank::RankedColumns;
use crate::tree::{DecisionTree, TreeConfig, LANES};
use crate::Classifier;

/// Hyperparameters of a [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth of every tree (root at depth 0).
    pub max_depth: usize,
    /// Minimum rows each child must keep after a split.
    pub min_samples_leaf: usize,
    /// Master seed; per-tree seeds are derived from it. Each split samples
    /// `sqrt(n_features)` features.
    pub seed: u64,
    /// Number of worker threads used while fitting (1 = sequential).
    pub n_threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        let tree = TreeConfig::default();
        Self {
            n_trees: 100,
            max_depth: tree.max_depth,
            min_samples_leaf: tree.min_samples_leaf,
            seed: 0,
            n_threads: 4,
        }
    }
}

impl RandomForestConfig {
    /// Returns the config with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different tree count.
    pub fn with_trees(mut self, n_trees: usize) -> Self {
        self.n_trees = n_trees;
        self
    }
}

/// A fitted random-forest classifier.
///
/// Each tree is grown on a bootstrap sample with per-split feature
/// subsampling; prediction averages the trees' leaf probability vectors
/// (soft voting), which the paper credits for the variance reduction that
/// makes Random Forest its best performer (§V-B).
///
/// Every prediction goes through one tree-major kernel,
/// [`RandomForest::predict_proba_rows`]. The JSON form is
/// `{trees, n_classes, n_features}`; reading it refuses a forest with no
/// trees, a tree shaped differently from the forest, and any tree a walk
/// could not finish on, naming the tree and the node.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] for an empty training set and
    /// [`FitError::InvalidConfig`] for a zero tree count.
    pub fn fit(data: &Dataset, config: &RandomForestConfig) -> Result<Self, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        if config.n_trees == 0 {
            return Err(FitError::InvalidConfig("n_trees must be >= 1"));
        }

        let max_features = sqrt_features(data.n_features());

        // Pre-derive per-tree seeds so results are independent of thread
        // interleaving.
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let tree_seeds: Vec<u64> = (0..config.n_trees).map(|_| seed_rng.gen()).collect();

        let _span = cordial_obs::span!("forest_fit");
        // Encoded once, read by every tree worker.
        let ranked = RankedColumns::new(data);
        let fit_one = |tree_seed: u64| -> Result<DecisionTree, FitError> {
            cordial_obs::counter!("trees.trees_built").inc();
            // A bootstrap sample as large as the training set.
            let mut rng = StdRng::seed_from_u64(tree_seed);
            let indices: Vec<usize> = (0..data.n_rows())
                .map(|_| rng.gen_range(0..data.n_rows()))
                .collect();
            let tree_config = TreeConfig {
                max_depth: config.max_depth,
                min_samples_leaf: config.min_samples_leaf,
                max_features: Some(max_features),
                seed: tree_seed,
            };
            DecisionTree::fit_ranked(data, &ranked, &indices, &tree_config)
        };

        let trees = crate::parallel::ordered_map(&tree_seeds, config.n_threads, |&s| fit_one(s))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RandomForest {
            trees,
            n_classes: data.n_classes(),
            n_features: data.n_features(),
        })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Class probabilities of every row of a batch, row-major in one
    /// vector: row `i`'s `n_classes` probabilities start at
    /// `i * n_classes`.
    ///
    /// Rows are scored tree-major, up to 16 at a time: the rows walk tree 1
    /// in lockstep, then tree 2, and so on, each tree adding its leaf
    /// probabilities to the rows' accumulators in tree order. Each row's
    /// sum is therefore the same sequence of additions as summing its
    /// trees one by one, so every probability is bit-identical to the
    /// per-row average.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from the training feature count.
    pub fn predict_proba_rows(&self, rows: &[&[f64]]) -> Vec<f64> {
        for row in rows {
            assert_eq!(row.len(), self.n_features, "feature count mismatch");
        }
        let k = self.n_classes;
        let mut out = vec![0.0f64; rows.len() * k];
        for (lanes, acc) in rows.chunks(LANES).zip(out.chunks_mut(LANES * k)) {
            for tree in &self.trees {
                tree.add_leaf_probas(lanes, acc);
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut out {
            *a /= n;
        }
        out
    }

    /// Mean of the per-tree feature importances.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (t, g) in total.iter_mut().zip(tree.feature_importance()) {
                *t += g;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for t in &mut total {
                *t /= sum;
            }
        }
        total
    }
}

impl Classifier for RandomForest {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.predict_proba_rows(&[row])
    }
}

impl<'de> Deserialize<'de> for RandomForest {
    /// Reads the JSON the derived [`Serialize`] writes. Refuses a forest
    /// with no trees or a tree whose `n_classes` or `n_features` differs
    /// from the forest's, and each tree as its own deserializer does.
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let n_classes: usize = serde::de_field(value, "n_classes")?;
        let n_features: usize = serde::de_field(value, "n_features")?;
        let Some(Value::Seq(items)) = value.get("trees") else {
            return Err(serde::Error::custom(
                "field `trees`: expected a list of trees",
            ));
        };
        if items.is_empty() {
            return Err(serde::Error::custom("forest has no trees"));
        }
        let trees = items
            .iter()
            .enumerate()
            .map(|(t, item)| {
                let tree = DecisionTree::from_value(item)
                    .map_err(|e| serde::Error::custom(format!("tree {t}: {e}")))?;
                if tree.n_classes() != n_classes || tree.n_features() != n_features {
                    return Err(serde::Error::custom(format!(
                        "tree {t}: {} classes and {} features differ from the forest's \
                         {n_classes} and {n_features}",
                        tree.n_classes(),
                        tree.n_features()
                    )));
                }
                Ok(tree)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RandomForest {
            trees,
            n_classes,
            n_features,
        })
    }
}

/// The per-row average [`RandomForest::predict_proba_rows`] replaced,
/// kept as the oracle its bit-identity test compares against: walk each
/// tree to its leaf, copy the leaf, sum in tree order, divide by the tree
/// count.
#[cfg(test)]
fn predict_proba_by_tree(forest: &RandomForest, row: &[f64]) -> Vec<f64> {
    let mut acc = vec![0.0f64; forest.n_classes];
    for tree in &forest.trees {
        for (a, p) in acc.iter_mut().zip(tree.walk_to_leaf(row).to_vec()) {
            *a += p;
        }
    }
    let n = forest.trees.len() as f64;
    for a in &mut acc {
        *a /= n;
    }
    acc
}

fn sqrt_features(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{negative_infinity_split, POOL};
    use proptest::prelude::*;

    fn blobs() -> Dataset {
        let mut data = Dataset::new(3, 3);
        for i in 0..40 {
            let v = (i % 10) as f64 * 0.1;
            data.push_row(&[v, v, 0.0], 0).unwrap();
            data.push_row(&[10.0 + v, 10.0 + v, 1.0], 1).unwrap();
            data.push_row(&[20.0 + v, -10.0 - v, 2.0], 2).unwrap();
        }
        data
    }

    #[test]
    fn separable_blobs_are_classified() {
        let config = RandomForestConfig::default().with_trees(25).with_seed(1);
        let forest = RandomForest::fit(&blobs(), &config).unwrap();
        assert_eq!(forest.predict(&[0.5, 0.5, 0.0]), 0);
        assert_eq!(forest.predict(&[10.5, 10.5, 1.0]), 1);
        assert_eq!(forest.predict(&[20.5, -10.5, 2.0]), 2);
        assert_eq!(forest.n_trees(), 25);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let config = RandomForestConfig::default().with_trees(10);
        let forest = RandomForest::fit(&blobs(), &config).unwrap();
        let proba = forest.predict_proba(&[5.0, 5.0, 0.5]);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(proba.len(), 3);
    }

    #[test]
    fn deterministic_per_seed_and_independent_of_threads() {
        let data = blobs();
        let base = RandomForestConfig::default().with_trees(8).with_seed(42);
        let sequential = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_threads: 1,
                ..base
            },
        )
        .unwrap();
        let parallel = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_threads: 4,
                ..base
            },
        )
        .unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn different_seeds_differ() {
        let data = blobs();
        let a = RandomForest::fit(
            &data,
            &RandomForestConfig::default().with_trees(5).with_seed(1),
        )
        .unwrap();
        let b = RandomForest::fit(
            &data,
            &RandomForestConfig::default().with_trees(5).with_seed(2),
        )
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn rejects_bad_configs() {
        let data = blobs();
        assert!(matches!(
            RandomForest::fit(&data, &RandomForestConfig::default().with_trees(0)),
            Err(FitError::InvalidConfig(_))
        ));
        assert_eq!(
            RandomForest::fit(&Dataset::new(2, 2), &RandomForestConfig::default()),
            Err(FitError::EmptyDataset)
        );
    }

    #[test]
    fn feature_importance_highlights_informative_features() {
        let config = RandomForestConfig::default().with_trees(20).with_seed(3);
        let forest = RandomForest::fit(&blobs(), &config).unwrap();
        let importance = forest.feature_importance();
        assert_eq!(importance.len(), 3);
        let sum: f64 = importance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sqrt_features_heuristic() {
        assert_eq!(sqrt_features(1), 1);
        assert_eq!(sqrt_features(9), 3);
        assert_eq!(sqrt_features(16), 4);
        assert_eq!(sqrt_features(20), 4);
    }

    /// A tree of three nodes over `n_features` features and two classes,
    /// with the root's children and feature and the leaves' probabilities
    /// given as JSON text.
    fn tree_json(n_features: usize, feature: &str, left: &str, right: &str, leaf: &str) -> String {
        let gains = vec!["0.0"; n_features].join(",");
        format!(
            r#"{{"nodes":[{{"Split":{{"feature":{feature},"threshold":0.5,"left":{left},"right":{right}}}}},{{"Leaf":{{"proba":{leaf}}}}},{{"Leaf":{{"proba":[0.0,1.0]}}}}],"n_features":{n_features},"n_classes":2,"gains":[{gains}]}}"#
        )
    }

    fn good_tree() -> String {
        tree_json(2, "1", "1", "2", "[1.0,0.0]")
    }

    /// A two-class, two-feature forest of the given trees.
    fn forest_json(trees: &[String]) -> String {
        format!(
            r#"{{"trees":[{}],"n_classes":2,"n_features":2}}"#,
            trees.join(",")
        )
    }

    /// Decoding `json` fails with an error that contains every fragment.
    fn assert_refused(json: &str, fragments: &[&str]) {
        let err = serde_json::from_str::<RandomForest>(json)
            .expect_err("a malformed forest must not load")
            .to_string();
        for fragment in fragments {
            assert!(err.contains(fragment), "{err:?} lacks {fragment:?}");
        }
    }

    #[test]
    fn a_well_formed_forest_file_loads_and_scores() {
        let forest: RandomForest =
            serde_json::from_str(&forest_json(&[good_tree(), good_tree()])).unwrap();
        assert_eq!(forest.predict_proba(&[9.0, 0.0]), vec![1.0, 0.0]);
        assert_eq!(forest.predict_proba(&[0.0, 9.0]), vec![0.0, 1.0]);
        assert_eq!(forest.predict_proba(&[0.0, f64::NAN]), vec![1.0, 0.0]);
    }

    #[test]
    fn a_self_looping_split_is_refused() {
        let json = forest_json(&[good_tree(), tree_json(2, "1", "0", "2", "[1.0,0.0]")]);
        assert_refused(
            &json,
            &["tree 1", "node 0", "child index 0 does not come after"],
        );
    }

    #[test]
    fn a_child_pointing_back_up_is_refused() {
        let trees = [tree_json(2, "1", "2", "1", "[1.0,0.0]").replace(
            r#"{"Leaf":{"proba":[0.0,1.0]}}"#,
            r#"{"Split":{"feature":0,"threshold":1.0,"left":1,"right":1}}"#,
        )];
        assert_refused(&forest_json(&trees), &["tree 0", "node 2", "child index 1"]);
    }

    #[test]
    fn an_out_of_range_child_is_refused() {
        let json = forest_json(&[tree_json(2, "1", "1", "999", "[1.0,0.0]")]);
        assert_refused(
            &json,
            &[
                "tree 0",
                "node 0",
                "child index 999 is out of range (3 nodes)",
            ],
        );
    }

    #[test]
    fn an_out_of_range_split_feature_is_refused() {
        let json = forest_json(&[good_tree(), tree_json(2, "2", "1", "2", "[1.0,0.0]")]);
        assert_refused(
            &json,
            &["tree 1", "node 0", "split feature 2 is out of range"],
        );
    }

    #[test]
    fn a_leaf_with_the_wrong_class_count_is_refused() {
        let json = forest_json(&[tree_json(2, "1", "1", "2", "[1.0]")]);
        assert_refused(
            &json,
            &["tree 0", "node 1", "leaf has 1 probabilities for 2 classes"],
        );
    }

    #[test]
    fn a_tree_shaped_unlike_its_forest_is_refused() {
        let json = forest_json(&[good_tree(), tree_json(3, "1", "1", "2", "[1.0,0.0]")]);
        assert_refused(&json, &["tree 1", "3 features differ"]);
        let three_classes = good_tree().replace(r#""n_classes":2"#, r#""n_classes":3"#);
        assert_refused(
            &forest_json(&[three_classes]),
            &["tree 0", "node 1", "for 3 classes"],
        );
    }

    #[test]
    fn an_empty_tree_or_forest_is_refused() {
        let empty_tree = r#"{"nodes":[],"n_features":2,"n_classes":2,"gains":[0.0,0.0]}"#;
        assert_refused(
            &forest_json(&[good_tree(), empty_tree.into()]),
            &["tree 1", "no nodes"],
        );
        assert_refused(&forest_json(&[]), &["forest has no trees"]);
    }

    #[test]
    fn a_split_at_negative_infinity_survives_a_json_round_trip() {
        let config = RandomForestConfig::default().with_trees(10).with_seed(3);
        let forest = RandomForest::fit(&negative_infinity_split(), &config).unwrap();
        let json = serde_json::to_string(&forest).unwrap();
        let reloaded: RandomForest = serde_json::from_str(&json).unwrap();
        assert_eq!(reloaded, forest);
        for row in [[f64::NEG_INFINITY], [1.0], [f64::NAN]] {
            assert_eq!(
                bits(&reloaded.predict_proba(&row)),
                bits(&forest.predict_proba(&row))
            );
        }
    }

    /// A forest fitted on data drawn from [`POOL`] plus finite values, and a
    /// batch of query rows drawn the same way.
    fn arb_forest_and_queries() -> impl Strategy<Value = (RandomForest, Vec<Vec<f64>>)> {
        (1usize..120, 1usize..4, 2usize..=3, 1usize..=40).prop_flat_map(
            |(n_rows, n_features, n_classes, n_queries)| {
                let value = || {
                    prop_oneof![
                        3 => (0usize..POOL.len()).prop_map(|i| POOL[i]),
                        1 => -50.0..50.0f64,
                    ]
                };
                let table = prop::collection::vec(
                    (prop::collection::vec(value(), n_features), 0..n_classes),
                    n_rows,
                );
                let queries =
                    prop::collection::vec(prop::collection::vec(value(), n_features), n_queries);
                (table, queries, 1usize..12, 0u64..1_000).prop_map(
                    move |(table, queries, n_trees, seed)| {
                        let mut data = Dataset::new(n_features, n_classes);
                        for (row, label) in &table {
                            data.push_row(row, *label).unwrap();
                        }
                        let config = RandomForestConfig {
                            n_threads: 1,
                            ..RandomForestConfig::default()
                                .with_trees(n_trees)
                                .with_seed(seed)
                        };
                        (RandomForest::fit(&data, &config).unwrap(), queries)
                    },
                )
            },
        )
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn tree_major_kernel_matches_the_per_tree_sum(
            (forest, queries) in arb_forest_and_queries(),
        ) {
            let json = serde_json::to_string(&forest).unwrap();
            let reloaded: RandomForest = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(serde_json::to_string(&reloaded).unwrap(), json);
            let rows: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(
                bits(&reloaded.predict_proba_rows(&rows)),
                bits(&forest.predict_proba_rows(&rows))
            );
            for forest in [&forest, &reloaded] {
                let k = forest.n_classes();
                let batch = forest.predict_proba_rows(&rows);
                prop_assert_eq!(batch.len(), rows.len() * k);
                for (row, batch_proba) in rows.iter().zip(batch.chunks_exact(k)) {
                    let oracle = bits(&predict_proba_by_tree(forest, row));
                    prop_assert_eq!(bits(&forest.predict_proba(row)), oracle.clone());
                    prop_assert_eq!(bits(batch_proba), oracle);
                }
            }
        }
    }
}
