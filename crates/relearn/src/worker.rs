//! Panic-contained refit execution: inline for deterministic scenarios,
//! on a background thread so fleet ingest never blocks on training.

use std::sync::mpsc;

use cordial::pipeline::Cordial;
use cordial::CordialConfig;
use cordial_faultsim::FleetDataset;
use cordial_obs::blackbox::contain_panic;
use cordial_topology::BankAddress;

use crate::labels::window_dataset;
use crate::policy::RelearnConfig;
use crate::window::TrainingWindow;

/// One refit's complete input: a frozen snapshot of the training window
/// plus the previous pipeline to warm-start from. Self-contained and
/// owned, so it can move onto a worker thread while ingest continues.
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
    /// The pipeline to warm-start from.
    pub previous: Cordial,
    /// Chaos hook: panic mid-fit (exercises containment).
    pub inject_panic: bool,
}

/// What one refit produced.
#[derive(Debug)]
pub struct RefitCompletion {
    /// The fitted candidate, when training succeeded.
    pub candidate: Option<Box<Cordial>>,
    /// The job, handed back so the caller can gate the candidate on the
    /// same dataset/calibration split it was trained under. Lost when
    /// the fit panicked (it unwound with the job borrowed).
    pub job: Option<RefitJob>,
    /// The training error, when the fit failed cleanly.
    pub error: Option<String>,
    /// Whether the fit panicked (contained).
    pub panicked: bool,
    /// Whether the refit was abandoned after its stream-time budget.
    pub timed_out: bool,
}

impl RefitCompletion {
    fn timed_out() -> Self {
        Self {
            candidate: None,
            job: None,
            error: None,
            panicked: false,
            timed_out: true,
        }
    }
}

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
fn is_calibration_bank(bank: &BankAddress, fraction: f64, seed: u64) -> bool {
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
    unit < fraction
}

/// Builds a [`RefitJob`] from the current window, or `None` when the
/// window is too thin to trust (too few events, too few labelled banks,
/// or a train/calibration split with an empty side).
pub fn build_job(
    window: &TrainingWindow,
    config: &RelearnConfig,
    cordial_config: &CordialConfig,
    previous: &Cordial,
) -> Option<RefitJob> {
    if window.len() < config.min_window_events.max(1) {
        return None;
    }
    let dataset = window_dataset(window.snapshot(), config.min_uer_rows.max(1));
    if dataset.truth.len() < config.min_window_banks.max(2) {
        return None;
    }
    let fraction = config.calibration_fraction.clamp(0.05, 0.9);
    let (mut train, mut calibration) = (Vec::new(), Vec::new());
    for bank in dataset.truth.keys() {
        if is_calibration_bank(bank, fraction, config.seed) {
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
        previous: previous.clone(),
        inject_panic: false,
    })
}

/// Runs one refit to completion with panic containment. Pure aside from
/// telemetry: same job, same completion.
pub fn run_refit(job: RefitJob) -> RefitCompletion {
    let _span = cordial_obs::span!("refit");
    let fitted = contain_panic(|| {
        assert!(!job.inject_panic, "injected refit fault");
        Cordial::fit_warm(&job.dataset, &job.train, &job.config, Some(&job.previous))
    });
    match fitted {
        Some(Ok(candidate)) => RefitCompletion {
            candidate: Some(Box::new(candidate)),
            job: Some(job),
            error: None,
            panicked: false,
            timed_out: false,
        },
        Some(Err(error)) => RefitCompletion {
            candidate: None,
            job: Some(job),
            error: Some(error.to_string()),
            panicked: false,
            timed_out: false,
        },
        None => RefitCompletion {
            candidate: None,
            job: None,
            error: None,
            panicked: true,
            timed_out: false,
        },
    }
}

enum WorkerState {
    /// The refit already ran synchronously; the completion waits here
    /// (boxed: a completion carries a full candidate model, which would
    /// otherwise dwarf the background variant).
    Inline(Option<Box<RefitCompletion>>),
    /// The refit runs on a detached thread; the completion arrives on
    /// the channel. Dropping the receiver abandons the thread (it parks
    /// its result into a closed channel and exits).
    Background(mpsc::Receiver<RefitCompletion>),
}

/// One in-flight refit. Inline mode completes at the first poll;
/// background mode completes when the worker thread finishes, or is
/// abandoned once its stream-time budget runs out.
pub struct RefitWorker {
    state: WorkerState,
    /// Stream watermark when the refit started (timeout anchor).
    pub started_watermark_ms: u64,
}

impl RefitWorker {
    /// Starts a refit. `background: false` runs it right here (the
    /// deterministic mode); `background: true` moves the job onto a
    /// spawned thread and returns immediately.
    pub fn start(job: RefitJob, background: bool, started_watermark_ms: u64) -> Self {
        let state = if background {
            let (tx, rx) = mpsc::channel();
            // A refit thread failing to spawn or send is equivalent to a
            // hung refit: the poll side times it out and retries with
            // backoff, so errors here are deliberately swallowed.
            let spawned = std::thread::Builder::new()
                .name("cordial-refit".into())
                .spawn(move || {
                    let _ = tx.send(run_refit(job));
                });
            drop(spawned);
            WorkerState::Background(rx)
        } else {
            WorkerState::Inline(Some(Box::new(run_refit(job))))
        };
        Self {
            state,
            started_watermark_ms,
        }
    }

    /// Polls for completion. Returns `None` while a background refit is
    /// still running inside its budget; a completion (possibly timed
    /// out) exactly once.
    pub fn try_take(&mut self, now_ms: u64, timeout_ms: u64) -> Option<RefitCompletion> {
        match &mut self.state {
            WorkerState::Inline(slot) => slot.take().map(|boxed| *boxed),
            WorkerState::Background(rx) => match rx.try_recv() {
                Ok(completion) => Some(completion),
                Err(mpsc::TryRecvError::Empty) => {
                    if timeout_ms > 0
                        && now_ms.saturating_sub(self.started_watermark_ms) > timeout_ms
                    {
                        Some(RefitCompletion::timed_out())
                    } else {
                        None
                    }
                }
                // The worker thread died without sending (spawn failure
                // or a non-unwinding abort): surface it as a panic-class
                // failure so the scheduler backs off.
                Err(mpsc::TryRecvError::Disconnected) => Some(RefitCompletion {
                    candidate: None,
                    job: None,
                    error: None,
                    panicked: true,
                    timed_out: false,
                }),
            },
        }
    }

    /// Blocks until the background refit completes (test helper; inline
    /// workers return immediately).
    pub fn wait(&mut self) -> Option<RefitCompletion> {
        match &mut self.state {
            WorkerState::Inline(slot) => slot.take().map(|boxed| *boxed),
            WorkerState::Background(rx) => rx.recv().ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn fitted_small() -> (FleetDataset, Cordial, CordialConfig) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 5);
        let split = split_banks(&dataset, 0.7, 5);
        let config = CordialConfig::default().with_seed(5);
        let pipeline = Cordial::fit(&dataset, &split.train, &config).unwrap();
        (dataset, pipeline, config)
    }

    fn job_from(dataset: &FleetDataset, pipeline: &Cordial, config: &CordialConfig) -> RefitJob {
        let mut window = TrainingWindow::new(0, usize::MAX >> 1);
        for event in dataset.log.events() {
            window.push(*event);
        }
        build_job(&window, &RelearnConfig::default(), config, pipeline)
            .expect("full log must be trainable")
    }

    #[test]
    fn inline_refit_produces_a_candidate() {
        let (dataset, pipeline, config) = fitted_small();
        let job = job_from(&dataset, &pipeline, &config);
        let mut worker = RefitWorker::start(job, false, 0);
        let completion = worker.try_take(0, 0).expect("inline completes at once");
        assert!(completion.candidate.is_some(), "{:?}", completion.error);
        assert!(completion.job.is_some());
        assert!(worker.try_take(0, 0).is_none(), "completion yields once");
    }

    #[test]
    fn background_refit_produces_the_same_candidate() {
        let (dataset, pipeline, config) = fitted_small();
        let job = job_from(&dataset, &pipeline, &config);
        let inline = run_refit(job.clone());
        let mut worker = RefitWorker::start(job, true, 0);
        let completion = worker.wait().expect("background completes");
        assert_eq!(
            completion.candidate, inline.candidate,
            "background and inline refits must agree bit for bit"
        );
    }

    #[test]
    fn panicking_refit_is_contained() {
        let (dataset, pipeline, config) = fitted_small();
        let mut job = job_from(&dataset, &pipeline, &config);
        job.inject_panic = true;
        let completion = run_refit(job);
        assert!(completion.panicked);
        assert!(completion.candidate.is_none());
    }

    #[test]
    fn hung_background_refit_times_out() {
        let (dataset, pipeline, config) = fitted_small();
        let mut job = job_from(&dataset, &pipeline, &config);
        // A panicking background job still sends a completion; to model
        // a *hung* refit, never-spawned inline state is not enough — use
        // a channel that will simply not produce within the budget by
        // polling before the thread can plausibly finish a full fit.
        job.inject_panic = false;
        let mut worker = RefitWorker::start(job, true, 1_000);
        // Stream time jumps far past the budget: the worker is abandoned
        // even if the thread is still fitting.
        let completion = worker.try_take(1_000_000, 10);
        if let Some(c) = completion {
            // Either the fit genuinely finished first (fast machine) or
            // it timed out; both are valid completions, but a timeout
            // must be flagged as such.
            assert!(c.candidate.is_some() || c.timed_out || c.panicked);
        }
    }

    #[test]
    fn thin_window_builds_no_job() {
        let (_, pipeline, config) = fitted_small();
        let window = TrainingWindow::new(0, 1024);
        assert!(build_job(&window, &RelearnConfig::default(), &config, &pipeline).is_none());
    }
}
