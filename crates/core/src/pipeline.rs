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
use crate::crossrow::CrossRowPredictor;
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
    /// clone of this pipeline (the monitor's serving path).
    pub fn flat(&self) -> &FlatPipeline {
        &self.fitted.flat
    }

    /// Produces a mitigation plan for a bank's observed history.
    ///
    /// * fewer than `k_uers` distinct UER rows → [`MitigationPlan::InsufficientData`];
    /// * classified scattered → [`MitigationPlan::BankSparing`];
    /// * classified aggregation → [`MitigationPlan::RowSparing`] with the
    ///   rows of every positively predicted block.
    pub fn plan(&self, history: &BankErrorHistory) -> MitigationPlan {
        self.plan_with(history, None)
    }

    /// [`Cordial::plan`], optionally routing ensemble inference through
    /// flattened model twins (the monitor's serving path). The twins are
    /// bit-identical to the pointer models, so the plan never differs.
    pub fn plan_with(
        &self,
        history: &BankErrorHistory,
        flat: Option<&FlatPipeline>,
    ) -> MitigationPlan {
        // Root span: `plan` runs inline for 1 thread but on workers for
        // more, so a stack-derived path would vary with the thread count.
        let _span = cordial_obs::span_root!("plan");
        cordial_obs::counter!("plan.requests").inc();
        let Some((window, _)) = history.observe_until_k_uers(self.config().k_uers) else {
            cordial_obs::counter!("plan.insufficient_data").inc();
            return MitigationPlan::InsufficientData;
        };
        // The §IV-B features are computed once and shared by both stages
        // (the classifier and the cross-row predictor used to rescan the
        // window independently).
        let raw = bank_features(&window, self.classifier().geom());
        let pattern = self
            .classifier()
            .classify_from_features(&raw, flat.and_then(|f| f.classifier.as_ref()));
        if !pattern.is_aggregation() {
            cordial_obs::counter!("plan.bank_sparing").inc();
            return MitigationPlan::BankSparing;
        }
        let mut rows = self
            .crossrow()
            .predicted_rows_from_features(&window, pattern, &raw, flat);
        rows.sort();
        rows.dedup();
        cordial_obs::counter!("plan.row_sparing").inc();
        cordial_obs::histogram!("plan.rows_per_plan", cordial_obs::COUNT_BOUNDS)
            .observe(rows.len() as f64);
        MitigationPlan::RowSparing { pattern, rows }
    }

    /// Plans a whole fleet of banks at once: [`Cordial::plan`] for each
    /// history, fanned out over `config.n_threads` worker threads.
    ///
    /// The returned plans are in input order and each is exactly what
    /// [`Cordial::plan`] returns for that history — inference is
    /// per-bank independent, so threading cannot change any plan.
    pub fn plan_batch(&self, histories: &[&BankErrorHistory]) -> Vec<MitigationPlan> {
        let _span = cordial_obs::span!("plan_batch");
        cordial_obs::histogram!("plan.batch_size", cordial_obs::COUNT_BOUNDS)
            .observe(histories.len() as f64);
        cordial_trees::parallel::ordered_map(histories, self.config().n_threads, |history| {
            self.plan(history)
        })
    }

    /// An owned copy of the pipeline's flat inference twins
    /// ([`Cordial::flat`]). Entries are `None` for model families without a
    /// flat form (random forests) — callers then use the pointer models.
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
/// Each entry is `None` when the underlying model family has no flat form
/// (random forests) or a GBDT's threshold tables overflow `u16` bins.
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
