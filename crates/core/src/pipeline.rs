//! The end-to-end Cordial pipeline (paper Fig. 5): observe → classify →
//! predict → recommend a mitigation.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cordial_faultsim::{CoarsePattern, FleetDataset};
use cordial_mcelog::BankErrorHistory;
use cordial_topology::{BankAddress, RowId};
use cordial_trees::FlatEnsemble;

use crate::classifier::PatternClassifier;
use crate::config::CordialConfig;
use crate::crossrow::{BlockScores, CrossRowPredictor};
use crate::error::CordialError;
use crate::features::bank_features;

/// The mitigation Cordial recommends for a bank.
///
/// This is the part existing predictors leave out (paper §I: "predicting
/// failures without recommending corresponding mitigation strategies limits
/// the actionable insights"): each prediction comes with the sparing action
/// to take.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationPlan {
    /// The bank has not yet accumulated enough distinct UER rows to
    /// classify; keep monitoring.
    InsufficientData,
    /// Aggregation pattern: spare the listed rows (the predicted blocks).
    RowSparing {
        /// Classified failure pattern.
        pattern: CoarsePattern,
        /// Rows to isolate, ascending and distinct.
        rows: Vec<RowId>,
    },
    /// Scattered pattern: row isolation cannot keep up; spare the bank.
    BankSparing,
}

impl MitigationPlan {
    /// Rows this plan isolates (empty for bank sparing, which covers
    /// everything, and for insufficient data).
    pub fn rows(&self) -> &[RowId] {
        match self {
            MitigationPlan::RowSparing { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Whether the plan protects accesses to `row`.
    pub fn covers(&self, row: RowId) -> bool {
        match self {
            MitigationPlan::InsufficientData => false,
            MitigationPlan::BankSparing => true,
            // `rows` is ascending and distinct by construction.
            MitigationPlan::RowSparing { rows, .. } => rows.binary_search(&row).is_ok(),
        }
    }
}

/// One bank's plan together with the scores it was cut from, as
/// [`Cordial::decide`] returns it. Evaluation scores the block predictions
/// of the very decision that produced the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The mitigation to apply.
    pub plan: MitigationPlan,
    /// Row sparing only: the per-block probabilities and the threshold the
    /// plan's rows were cut at. `None` for every other plan.
    pub blocks: Option<BlockScores>,
}

/// The trained Cordial predictor: an immutable handle to one fitted
/// pipeline.
///
/// One `Arc` holds both fitted stages, the configuration and the
/// pipeline's [`FlatPipeline`] inference twins, so `clone()` is a
/// reference-count bump: every monitor serving a pipeline shares one copy
/// of its models and one set of twins, and creating a monitor costs
/// nothing in model size. The twins are built once per fitted pipeline,
/// when it is fitted or deserialized.
///
/// The serialized form is the map `{classifier, crossrow, config}`; the
/// twins are derived state, left out of serialization and equality.
#[derive(Debug, Clone)]
pub struct Cordial {
    fitted: Arc<Fitted>,
}

/// The shared state behind a [`Cordial`] handle.
#[derive(Debug)]
struct Fitted {
    classifier: PatternClassifier,
    crossrow: CrossRowPredictor,
    config: CordialConfig,
    flat: FlatPipeline,
}

impl PartialEq for Cordial {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.fitted, &other.fitted);
        Arc::ptr_eq(a, b)
            || (a.classifier == b.classifier && a.crossrow == b.crossrow && a.config == b.config)
    }
}

impl Serialize for Cordial {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                String::from("classifier"),
                self.fitted.classifier.to_value(),
            ),
            (String::from("crossrow"), self.fitted.crossrow.to_value()),
            (String::from("config"), self.fitted.config.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for Cordial {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self::from_stages(
            serde::de_field(value, "classifier")?,
            serde::de_field(value, "crossrow")?,
            serde::de_field(value, "config")?,
        ))
    }
}

impl Cordial {
    /// Trains both stages on the given training banks.
    ///
    /// # Errors
    ///
    /// Propagates stage-level training errors.
    pub fn fit(
        dataset: &FleetDataset,
        train_banks: &[BankAddress],
        config: &CordialConfig,
    ) -> Result<Self, CordialError> {
        let _span = cordial_obs::span!("fit");
        cordial_obs::counter!("fit.train_banks").add(train_banks.len() as u64);
        let classifier = {
            let _span = cordial_obs::span!("classifier");
            PatternClassifier::fit(dataset, train_banks, config)?
        };
        let crossrow = {
            let _span = cordial_obs::span!("crossrow");
            CrossRowPredictor::fit(dataset, train_banks, config)?
        };
        Ok(Self::from_stages(classifier, crossrow, *config))
    }

    /// Wraps fitted stages into a shared handle, building the flat
    /// inference twins once for every clone to share.
    fn from_stages(
        classifier: PatternClassifier,
        crossrow: CrossRowPredictor,
        config: CordialConfig,
    ) -> Self {
        let (single, double) = crossrow.models();
        let flat = FlatPipeline {
            classifier: classifier.model().flatten(),
            single: single.flatten(),
            double: double.flatten(),
        };
        Self {
            fitted: Arc::new(Fitted {
                classifier,
                crossrow,
                config,
                flat,
            }),
        }
    }

    /// The trained pattern classifier.
    pub fn classifier(&self) -> &PatternClassifier {
        &self.fitted.classifier
    }

    /// The trained cross-row predictors.
    pub fn crossrow(&self) -> &CrossRowPredictor {
        &self.fitted.crossrow
    }

    /// The configuration the pipeline was trained with.
    pub fn config(&self) -> &CordialConfig {
        &self.fitted.config
    }

    /// The flat inference twins of the fitted ensembles, shared by every
    /// clone of this pipeline; [`Cordial::decide`] infers through them.
    pub fn flat(&self) -> &FlatPipeline {
        &self.fitted.flat
    }

    /// Plans a bank from its observed history and keeps the scores the plan
    /// was cut from. This is the pipeline's one planning routine:
    ///
    /// * fewer than `k_uers` distinct UER rows → [`MitigationPlan::InsufficientData`];
    /// * classified scattered → [`MitigationPlan::BankSparing`];
    /// * classified aggregation → [`MitigationPlan::RowSparing`] with the
    ///   rows of every block whose probability reaches the pattern's
    ///   threshold, and those [`BlockScores`] in the decision.
    ///
    /// Inference runs through the pipeline's flat twins ([`Cordial::flat`])
    /// where the model family has them and through the fitted models
    /// otherwise. The twins are bit-identical to the fitted models, so the
    /// decision never depends on which ran.
    pub fn decide(&self, history: &BankErrorHistory) -> PlanDecision {
        // Root span: `decide` runs inline for 1 thread but on workers for
        // more, so a stack-derived path would vary with the thread count.
        let _span = cordial_obs::span_root!("plan");
        cordial_obs::counter!("plan.requests").inc();
        let Some((window, _)) = history.observe_until_k_uers(self.config().k_uers) else {
            cordial_obs::counter!("plan.insufficient_data").inc();
            return PlanDecision {
                plan: MitigationPlan::InsufficientData,
                blocks: None,
            };
        };
        // The §IV-B features are computed once and shared by both stages.
        let raw = bank_features(&window, self.classifier().geom());
        let flat = self.flat();
        let pattern = self
            .classifier()
            .classify_from_features(&raw, flat.classifier());
        if !pattern.is_aggregation() {
            cordial_obs::counter!("plan.bank_sparing").inc();
            return PlanDecision {
                plan: MitigationPlan::BankSparing,
                blocks: None,
            };
        }
        let (blocks, mut rows) = self.crossrow().score_blocks(&window, pattern, &raw, flat);
        rows.sort();
        rows.dedup();
        cordial_obs::counter!("plan.row_sparing").inc();
        cordial_obs::histogram!("plan.rows_per_plan", cordial_obs::COUNT_BOUNDS)
            .observe(rows.len() as f64);
        PlanDecision {
            plan: MitigationPlan::RowSparing { pattern, rows },
            blocks: Some(blocks),
        }
    }

    /// The mitigation plan of [`Cordial::decide`].
    pub fn plan(&self, history: &BankErrorHistory) -> MitigationPlan {
        self.decide(history).plan
    }

    /// [`Cordial::decide`] for a whole fleet of banks at once, fanned out
    /// over `config.n_threads` worker threads.
    ///
    /// The decisions are in input order and each is exactly what
    /// [`Cordial::decide`] returns for that history — inference is
    /// per-bank independent, so threading cannot change any decision.
    pub fn decide_batch(&self, histories: &[&BankErrorHistory]) -> Vec<PlanDecision> {
        let _span = cordial_obs::span!("plan_batch");
        cordial_obs::histogram!("plan.batch_size", cordial_obs::COUNT_BOUNDS)
            .observe(histories.len() as f64);
        cordial_trees::parallel::ordered_map(histories, self.config().n_threads, |history| {
            self.decide(history)
        })
    }

    /// The mitigation plans of [`Cordial::decide_batch`].
    pub fn plan_batch(&self, histories: &[&BankErrorHistory]) -> Vec<MitigationPlan> {
        self.decide_batch(histories)
            .into_iter()
            .map(|decision| decision.plan)
            .collect()
    }

    /// An owned copy of the pipeline's flat inference twins
    /// ([`Cordial::flat`]), for callers that drive the stages themselves.
    /// Only LightGBM has a flat form: entries are `None` for random
    /// forests and XGBoost, whose stages use the fitted models.
    pub fn flatten(&self) -> FlatPipeline {
        self.fitted.flat.clone()
    }
}

/// Flattened SoA twins of a [`Cordial`] pipeline's fitted ensembles
/// (classifier + per-pattern block models), built once per fitted pipeline
/// and shared by all its clones ([`Cordial::flat`]). Monitors carry none of
/// their own. The twins are derived state: serialization and equality of
/// the pipeline ignore them.
///
/// An entry is `Some` exactly when its stage's model is LightGBM, the one
/// family with a flat form, and `None` for random forests and XGBoost.
#[derive(Debug, Clone, Default)]
pub struct FlatPipeline {
    pub(crate) classifier: Option<FlatEnsemble>,
    pub(crate) single: Option<FlatEnsemble>,
    pub(crate) double: Option<FlatEnsemble>,
}

impl FlatPipeline {
    /// The flattened pattern classifier, when available.
    pub fn classifier(&self) -> Option<&FlatEnsemble> {
        self.classifier.as_ref()
    }

    /// The flattened single-row block model, when available.
    pub fn single(&self) -> Option<&FlatEnsemble> {
        self.single.as_ref()
    }

    /// The flattened double-row block model, when available.
    pub fn double(&self) -> Option<&FlatEnsemble> {
        self.double.as_ref()
    }

    /// Whether no model could be flattened (pointer path everywhere).
    pub fn is_empty(&self) -> bool {
        self.classifier.is_none() && self.single.is_none() && self.double.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn trained() -> (FleetDataset, crate::split::BankSplit, Cordial) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 41);
        let split = split_banks(&dataset, 0.7, 41);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        (dataset, split, cordial)
    }

    #[test]
    fn plans_are_produced_for_every_test_bank() {
        let (dataset, split, cordial) = trained();
        let by_bank = dataset.log.by_bank();
        let mut row_sparing = 0;
        let mut bank_sparing = 0;
        for bank in &split.test {
            match cordial.plan(&by_bank[bank]) {
                MitigationPlan::RowSparing { rows, .. } => {
                    row_sparing += 1;
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows sorted+dedup");
                }
                MitigationPlan::BankSparing => bank_sparing += 1,
                MitigationPlan::InsufficientData => {}
            }
        }
        // Aggregation dominates the pattern mix, so row sparing must
        // dominate the plans.
        assert!(
            row_sparing > bank_sparing,
            "{row_sparing} vs {bank_sparing}"
        );
    }

    #[test]
    fn decisions_carry_the_block_scores_their_rows_were_cut_from() {
        let (dataset, split, cordial) = trained();
        let by_bank = dataset.log.by_bank();
        let histories: Vec<_> = split.test.iter().map(|bank| &by_bank[bank]).collect();
        let decisions = cordial.decide_batch(&histories);
        assert_eq!(cordial.plan_batch(&histories).len(), decisions.len());
        let spec = cordial.crossrow().spec();
        let geom = cordial.classifier().geom();
        let mut row_sparing = 0;
        for (history, decision) in histories.iter().zip(&decisions) {
            assert_eq!(decision.plan, cordial.plan(history));
            let MitigationPlan::RowSparing { pattern, rows } = &decision.plan else {
                assert_eq!(decision.blocks, None, "only row sparing keeps block scores");
                continue;
            };
            row_sparing += 1;
            let blocks = decision
                .blocks
                .as_ref()
                .expect("row sparing keeps its scores");
            assert_eq!(blocks.proba.len(), spec.n_blocks);
            assert_eq!(blocks.threshold, cordial.crossrow().threshold(*pattern));
            let (window, _) = history.observe_until_k_uers(3).unwrap();
            let anchor = window.last_uer_row().unwrap();
            let cut: Vec<RowId> = blocks
                .predicted()
                .enumerate()
                .filter(|(_, positive)| *positive)
                .flat_map(|(index, _)| spec.rows_in_block(anchor, index, geom))
                .collect();
            assert_eq!(rows, &cut, "the plan's rows are its positive blocks");
        }
        assert!(row_sparing > 0);
    }

    #[test]
    fn empty_history_yields_insufficient_data() {
        let (_, _, cordial) = trained();
        let history = BankErrorHistory::new(BankAddress::default(), vec![]);
        assert_eq!(cordial.plan(&history), MitigationPlan::InsufficientData);
    }

    #[test]
    fn plan_coverage_semantics() {
        let row_plan = MitigationPlan::RowSparing {
            pattern: CoarsePattern::SingleRow,
            rows: vec![RowId(5), RowId(6)],
        };
        assert!(row_plan.covers(RowId(5)));
        assert!(!row_plan.covers(RowId(7)));
        assert!(MitigationPlan::BankSparing.covers(RowId(31_000)));
        assert!(!MitigationPlan::InsufficientData.covers(RowId(0)));
        assert!(MitigationPlan::BankSparing.rows().is_empty());
    }

    #[test]
    fn row_sparing_rows_stay_near_observed_failures() {
        let (dataset, split, cordial) = trained();
        let by_bank = dataset.log.by_bank();
        for bank in &split.test {
            let history = &by_bank[bank];
            if let MitigationPlan::RowSparing { rows, .. } = cordial.plan(history) {
                let Some((window, _)) = history.observe_until_k_uers(3) else {
                    continue;
                };
                let anchor = window.last_uer_row().unwrap();
                for row in rows {
                    assert!(row.distance(anchor) <= 72);
                }
            }
        }
    }
}
