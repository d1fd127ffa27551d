//! Panic-contained refit execution: one cold [`Cordial::fit`] on a frozen
//! window snapshot, run inline at the supervisor's sweep point.

use cordial::pipeline::Cordial;
use cordial::CordialConfig;
use cordial_faultsim::FleetDataset;
use cordial_obs::blackbox::contain_panic;
use cordial_topology::BankAddress;

use crate::labels::window_dataset;
use crate::policy::RelearnConfig;
use crate::window::TrainingWindow;

/// One refit's complete input: a frozen snapshot of the training window
/// and its train/calibration split. The candidate is a function of the
/// job alone, so the caller can gate it on the same split afterwards.
#[derive(Debug, Clone)]
pub struct RefitJob {
    /// The window snapshot as a trainable dataset (hindsight-labelled).
    pub dataset: FleetDataset,
    /// Banks the refit trains on.
    pub train: Vec<BankAddress>,
    /// Held-out banks for shadow-scoring candidate vs incumbent.
    pub calibration: Vec<BankAddress>,
    /// Training configuration (the incumbent's, so candidate and
    /// incumbent stay comparable).
    pub config: CordialConfig,
    /// Chaos hook: panic mid-fit (exercises containment).
    pub inject_panic: bool,
}

/// What one refit produced.
#[derive(Debug)]
pub enum RefitCompletion {
    /// Training succeeded: the candidate for the promotion gate.
    Fitted(Cordial),
    /// Training failed cleanly with this error.
    Failed(String),
    /// The fit panicked (contained).
    Panicked,
}

/// Distinct UER rows a bank needs before it is hindsight-labelled.
const MIN_UER_ROWS: usize = 4;

/// Fraction of labelled window banks held out for shadow-scoring the
/// candidate against the incumbent (the promotion gate's evidence).
const CALIBRATION_FRACTION: f64 = 0.3;

/// SplitMix64 finalizer: the per-bank lane hash behind the stable
/// train/calibration assignment.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bank's side of the split as a pure function of `(bank, seed)`.
///
/// The sliding window's bank population changes between refits, so a
/// shuffled split would move banks across the train/calibration line as
/// neighbours come and go — and a promoted incumbent could then defend
/// the gate on banks it was *trained* on, an unbeatable leak. Hashing
/// each address independently pins every bank to one side for the
/// supervisor's lifetime: no model ever trains on a bank that any later
/// gate scores it on.
fn is_calibration_bank(bank: &BankAddress, seed: u64) -> bool {
    let lo = (u64::from(bank.node.0) << 32)
        | (u64::from(bank.npu.0) << 24)
        | (u64::from(bank.hbm.0) << 16)
        | (u64::from(bank.sid.0) << 8)
        | u64::from(bank.channel.0);
    let hi = (u64::from(bank.pseudo_channel.0) << 16)
        | (u64::from(bank.bank_group.0) << 8)
        | u64::from(bank.bank.0);
    let lane = mix64(seed ^ mix64(lo) ^ hi.rotate_left(40));
    // Map the lane to [0, 1): top 53 bits give an exact double.
    let unit = (lane >> 11) as f64 / (1u64 << 53) as f64;
    unit < CALIBRATION_FRACTION
}

/// Builds a [`RefitJob`] from the current window, or `None` when the
/// window is too thin to trust (too few events, too few labelled banks,
/// or a train/calibration split with an empty side).
pub fn build_job(
    window: &TrainingWindow,
    config: &RelearnConfig,
    cordial_config: &CordialConfig,
) -> Option<RefitJob> {
    if window.len() < config.min_window_events.max(1) {
        return None;
    }
    let dataset = window_dataset(window.snapshot(), MIN_UER_ROWS);
    if dataset.truth.len() < config.min_window_banks.max(2) {
        return None;
    }
    let (mut train, mut calibration) = (Vec::new(), Vec::new());
    for bank in dataset.truth.keys() {
        if is_calibration_bank(bank, config.seed) {
            calibration.push(*bank);
        } else {
            train.push(*bank);
        }
    }
    if train.is_empty() || calibration.is_empty() {
        return None;
    }
    Some(RefitJob {
        train,
        calibration,
        dataset,
        config: *cordial_config,
        inject_panic: false,
    })
}

/// Runs one refit to completion with panic containment: a cold
/// [`Cordial::fit`] on the job's window. Pure aside from telemetry: same
/// job, same completion.
pub fn run_refit(job: &RefitJob) -> RefitCompletion {
    let _span = cordial_obs::span!("refit");
    let fitted = contain_panic(|| {
        assert!(!job.inject_panic, "injected refit fault");
        Cordial::fit(&job.dataset, &job.train, &job.config)
    });
    match fitted {
        Some(Ok(candidate)) => RefitCompletion::Fitted(candidate),
        Some(Err(error)) => RefitCompletion::Failed(error.to_string()),
        None => RefitCompletion::Panicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial::model::ModelKind;
    use cordial::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn small_fleet() -> FleetDataset {
        generate_fleet_dataset(&FleetDatasetConfig::small(), 5)
    }

    fn job_from(dataset: &FleetDataset, config: &CordialConfig) -> RefitJob {
        let mut window = TrainingWindow::new(0);
        for event in dataset.log.events() {
            window.push(*event);
        }
        build_job(&window, &RelearnConfig::default(), config).expect("full log must be trainable")
    }

    #[test]
    fn candidate_depends_on_the_job_alone() {
        // The incumbent is fitted on a different split of the fleet than
        // the window holds; nothing of it may leak into the candidate.
        let dataset = small_fleet();
        let config = CordialConfig::with_model(ModelKind::lightgbm()).with_seed(5);
        let split = split_banks(&dataset, 0.5, 11);
        let incumbent = Cordial::fit(&dataset, &split.train, &config).unwrap();
        let job = job_from(&dataset, incumbent.config());
        let RefitCompletion::Fitted(candidate) = run_refit(&job) else {
            panic!("the full-log window must fit");
        };
        let cold = Cordial::fit(&job.dataset, &job.train, &job.config).unwrap();
        assert_eq!(candidate, cold, "a refit is a cold fit of its job");
        assert_ne!(candidate, incumbent);
    }

    #[test]
    fn panicking_refit_is_contained() {
        let mut job = job_from(&small_fleet(), &CordialConfig::default().with_seed(5));
        job.inject_panic = true;
        assert!(matches!(run_refit(&job), RefitCompletion::Panicked));
    }

    #[test]
    fn thin_window_builds_no_job() {
        let window = TrainingWindow::new(0);
        let config = CordialConfig::default();
        assert!(build_job(&window, &RelearnConfig::default(), &config).is_none());
    }
}
