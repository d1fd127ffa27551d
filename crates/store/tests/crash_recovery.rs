//! Crash-recovery proofs for the store, driven by `cordial-chaos`'s
//! disk-fault layer.
//!
//! The headline test kills a store at **every byte offset** of its
//! segment file ([`cordial_chaos::crash_sweep`]) and asserts the full
//! recovery contract at each cut: the replayed records are exactly the
//! longest clean prefix, corruption is reported iff the cut is not a
//! frame boundary, the recovered store accepts new appends, and a second
//! open is clean. Proptests then repeat the contract under seeded torn
//! tails, bit rot, garbage tails and short writes over random mixes of
//! event batches and checkpoints.
//!
//! Every `append_events` call is one frame, so the contract is proved at
//! batch granularity: damage inside a batch loses exactly that batch and
//! nothing before it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use cordial_chaos::{crash_sweep, damage_file, DiskFault, DiskFaultInjector};
use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
use cordial_store::{FsyncPolicy, Record, ReplayFilter, Store, StoreConfig, MANIFEST_NAME};
use cordial_topology::{
    BankAddress, BankGroup, BankIndex, Channel, ColId, DeviceId, HbmSocket, NodeId, NpuId,
    PseudoChannel, RowId, StackId,
};
use proptest::prelude::*;

/// Appends never fsync in these tests: every iteration reopens the store
/// hundreds of times and the recovery scanner only ever reads the page
/// cache anyway.
fn config() -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::default()
    }
}

fn sample_event(seed: u64) -> ErrorEvent {
    let bank = BankAddress::new(
        NodeId(seed as u32 & 0x3),
        NpuId(seed as u8 & 7),
        HbmSocket(seed as u8 & 1),
        StackId(0),
        Channel((seed >> 3) as u8 & 7),
        PseudoChannel(0),
        BankGroup((seed >> 6) as u8 & 3),
        BankIndex((seed >> 8) as u8 & 3),
    );
    ErrorEvent::new(
        bank.cell(
            RowId((seed >> 2) as u32 & 0xFFFF),
            ColId(seed as u16 & 0x3F),
        ),
        Timestamp::from_millis(1_000 + seed * 17),
        match seed % 3 {
            0 => ErrorType::Ce,
            1 => ErrorType::Ueo,
            _ => ErrorType::Uer,
        },
    )
}

/// A process-unique scratch directory (tests in this binary run on
/// multiple threads).
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cordial-crash-{}-{label}-{n}", std::process::id()))
}

/// One append of a golden plan.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// One `append_events` call of this many events.
    Batch(usize),
    /// One `append_checkpoint` call.
    Checkpoint,
}

/// Batch sizes the golden plans mix.
const BATCH_SIZES: [usize; 3] = [1, 3, 17];

/// A random plan: roughly one step in four is a checkpoint, the rest are
/// batches of 1, 3 or 17 events.
fn plan_of(draws: &[u32]) -> Vec<Step> {
    draws
        .iter()
        .map(|&d| match d {
            0 => Step::Checkpoint,
            d => Step::Batch(BATCH_SIZES[d as usize - 1]),
        })
        .collect()
}

/// A healthy single-segment store plus everything the damage assertions
/// need: its byte image, the replayed records, and the frame geometry.
struct Golden {
    dir: PathBuf,
    segment_name: String,
    image: Vec<u8>,
    records: Vec<Record>,
    /// Byte offset where the segment header ends and frames begin.
    header_len: usize,
    /// Per frame: the offset where it *ends*, and how many records the
    /// frames up to and including it hold. Cutting exactly at an end (or
    /// at `header_len`) leaves a clean shorter file.
    frames: Vec<(usize, usize)>,
}

impl Drop for Golden {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Builds a golden store from a plan, one frame per step. The frame
/// geometry is read from the segment file's length after each append:
/// the frames as actually written, not as re-encoded here.
fn build_golden(label: &str, plan: &[Step]) -> Golden {
    let dir = scratch(label);
    let _ = fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir, config()).unwrap();
    let segment_name = only_segment(&dir);
    let file_len = || fs::metadata(dir.join(&segment_name)).unwrap().len() as usize;
    let header_len = file_len();
    let mut frames = Vec::with_capacity(plan.len());
    let mut next_event = 0u64;
    for (i, step) in plan.iter().enumerate() {
        match *step {
            Step::Checkpoint => {
                let device = DeviceId {
                    node: NodeId(i as u32 % 3),
                    npu: NpuId(0),
                    hbm: HbmSocket(0),
                };
                let floor = store.last_seq().unwrap_or(0);
                store
                    .append_checkpoint(
                        device,
                        floor,
                        &format!("{{\"schema_version\":1,\"i\":{i}}}"),
                    )
                    .unwrap();
            }
            Step::Batch(n) => {
                let events: Vec<ErrorEvent> = (next_event..next_event + n as u64)
                    .map(sample_event)
                    .collect();
                next_event += n as u64;
                store.append_events(&events).unwrap();
            }
        }
        frames.push((file_len(), store.next_seq() as usize));
    }
    store.sync().unwrap();
    let records = store.replay(&ReplayFilter::default()).unwrap();
    assert_eq!(records.len(), store.next_seq() as usize);
    drop(store);

    let image = fs::read(dir.join(&segment_name)).unwrap();
    assert_eq!(image.len(), frames.last().map_or(header_len, |f| f.0));
    Golden {
        dir,
        segment_name,
        image,
        records,
        header_len,
        frames,
    }
}

fn only_segment(dir: &Path) -> String {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".cst"))
        .collect();
    assert_eq!(names.len(), 1, "golden stores use a single segment");
    names.pop().unwrap()
}

/// How many golden records survive damage whose first affected byte is
/// `offset`: every record of every frame that ends at or before it. A
/// batch whose frame the damage touches is lost whole.
fn surviving(golden: &Golden, offset: usize) -> usize {
    if offset < golden.header_len {
        return 0; // a damaged header drops the whole segment
    }
    golden
        .frames
        .iter()
        .take_while(|&&(end, _)| end <= offset)
        .last()
        .map_or(0, |&(_, records)| records)
}

/// Materialises a damaged copy of the golden store and asserts the whole
/// recovery contract: clean-prefix replay, corruption reported exactly
/// when expected, new appends accepted, and a clean second open that
/// still holds the prefix plus the new append.
fn assert_recovers(golden: &Golden, case_dir: &Path, expect: usize, expect_clean: bool, tag: &str) {
    let mut store = Store::open(case_dir, config()).unwrap();
    let recovered = store.replay(&ReplayFilter::default()).unwrap();
    assert_eq!(
        recovered,
        golden.records[..expect],
        "{tag}: recovered prefix"
    );
    if expect_clean {
        assert!(
            store.recovery().corruption.is_none(),
            "{tag}: boundary damage must recover cleanly, got {:?}",
            store.recovery().corruption
        );
    } else {
        assert!(
            store.recovery().corruption.is_some(),
            "{tag}: mid-frame damage must be reported"
        );
        assert!(
            store.recovery().truncated_bytes > 0 || !store.recovery().dropped_segments.is_empty(),
            "{tag}: reported corruption must come with cut bytes or dropped segments"
        );
    }

    // The recovered store must keep working: appends land after the
    // prefix and survive a clean reopen.
    let next = store.next_seq();
    let appended = sample_event(0xC0FFEE);
    store
        .append_events(std::slice::from_ref(&appended))
        .unwrap();
    store.sync().unwrap();
    drop(store);

    let store = Store::open(case_dir, config()).unwrap();
    assert!(
        store.recovery().corruption.is_none(),
        "{tag}: the second open after recovery must be clean, got {:?}",
        store.recovery().corruption
    );
    let replayed = store.replay(&ReplayFilter::default()).unwrap();
    assert_eq!(
        replayed.len(),
        expect + 1,
        "{tag}: prefix plus the new append"
    );
    assert_eq!(
        replayed[..expect],
        golden.records[..expect],
        "{tag}: prefix intact"
    );
    assert_eq!(
        replayed[expect],
        Record::Event {
            seq: next,
            event: appended,
        },
        "{tag}: the post-recovery append replays bit-exactly"
    );
}

/// Copies the golden manifest and a damaged segment image into a fresh
/// case directory.
fn materialise(golden: &Golden, case_dir: &Path, image: &[u8]) {
    let _ = fs::remove_dir_all(case_dir);
    fs::create_dir_all(case_dir).unwrap();
    fs::copy(golden.dir.join(MANIFEST_NAME), case_dir.join(MANIFEST_NAME)).unwrap();
    fs::write(case_dir.join(&golden.segment_name), image).unwrap();
}

/// Is a cut at `cut` bytes a clean frame boundary (no corruption to
/// report)?
fn cut_is_clean(golden: &Golden, cut: usize) -> bool {
    cut == golden.header_len || golden.frames.iter().any(|&(end, _)| end == cut)
}

#[test]
fn a_kill_at_every_byte_offset_recovers_the_clean_prefix() {
    // A representative mix: batches of 1, 3 and 17 events with a couple
    // of checkpoints between.
    let plan = [
        Step::Batch(1),
        Step::Batch(3),
        Step::Checkpoint,
        Step::Batch(17),
        Step::Batch(1),
        Step::Checkpoint,
        Step::Batch(3),
    ];
    let golden = build_golden("sweep", &plan);
    let case_dir = scratch("sweep-case");
    crash_sweep(&golden.image, 0, |cut, prefix| {
        materialise(&golden, &case_dir, prefix);
        assert_recovers(
            &golden,
            &case_dir,
            surviving(&golden, cut),
            cut_is_clean(&golden, cut),
            &format!("kill at byte {cut}"),
        );
    });
    let _ = fs::remove_dir_all(&case_dir);
}

#[test]
fn garbage_tails_are_cut_without_losing_any_record() {
    let plan = [
        Step::Batch(3),
        Step::Checkpoint,
        Step::Batch(1),
        Step::Batch(17),
    ];
    let golden = build_golden("garbage", &plan);
    for seed in 0..8 {
        let case_dir = scratch("garbage-case");
        materialise(&golden, &case_dir, &golden.image);
        let fault = damage_file(&case_dir.join(&golden.segment_name), |bytes| {
            DiskFaultInjector::new(seed).garbage_tail(bytes, 64)
        })
        .unwrap();
        assert!(matches!(fault, DiskFault::GarbageTail { .. }));
        // Every real record survives; only the garbage is cut.
        assert_recovers(
            &golden,
            &case_dir,
            golden.records.len(),
            false,
            &format!("garbage tail, seed {seed}"),
        );
        let _ = fs::remove_dir_all(&case_dir);
    }
}

#[test]
fn short_writes_of_the_final_batch_lose_only_that_batch() {
    let plan = [
        Step::Batch(1),
        Step::Batch(3),
        Step::Checkpoint,
        Step::Batch(17),
    ];
    let golden = build_golden("short", &plan);
    let (last_start, before_last) = golden.frames[golden.frames.len() - 2];
    let (base, last_frame) = golden.image.split_at(last_start);
    for seed in 0..8 {
        let mut image = base.to_vec();
        let fault = DiskFaultInjector::new(seed).short_write(&mut image, last_frame);
        let DiskFault::ShortWrite { wrote, intended } = fault else {
            panic!("wrong fault kind");
        };
        assert_eq!(intended, last_frame.len());
        let case_dir = scratch("short-case");
        materialise(&golden, &case_dir, &image);
        assert_recovers(
            &golden,
            &case_dir,
            before_last,
            wrote == 0, // losing the whole append leaves a clean boundary
            &format!("short write of {wrote}/{intended} bytes"),
        );
        let _ = fs::remove_dir_all(&case_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded torn tails over random batch/checkpoint mixes obey the
    /// same contract the exhaustive sweep proves for one mix.
    #[test]
    fn torn_tails_recover_a_clean_prefix(
        draws in proptest::collection::vec(0u32..4, 1..14),
        seed in 0u64..u64::MAX,
    ) {
        let golden = build_golden("torn", &plan_of(&draws));
        let mut image = golden.image.clone();
        let fault = DiskFaultInjector::new(seed).torn_tail(&mut image, 0);
        let DiskFault::TornTail { keep } = fault else {
            panic!("wrong fault kind");
        };
        let case_dir = scratch("torn-case");
        materialise(&golden, &case_dir, &image);
        assert_recovers(
            &golden,
            &case_dir,
            surviving(&golden, keep),
            cut_is_clean(&golden, keep),
            &format!("torn tail at {keep}"),
        );
        let _ = fs::remove_dir_all(&case_dir);
    }

    /// A single flipped byte can never corrupt the decoded prefix: either
    /// it lands in CRC-covered bytes (header or a frame) and recovery
    /// cuts there, or it lands in the header's unchecksummed pad word and
    /// changes nothing.
    #[test]
    fn bit_rot_recovers_the_records_before_the_flip(
        draws in proptest::collection::vec(0u32..4, 1..14),
        seed in 0u64..u64::MAX,
    ) {
        let golden = build_golden("rot", &plan_of(&draws));
        let mut image = golden.image.clone();
        let fault = DiskFaultInjector::new(seed).bit_rot(&mut image, 0);
        let Some(DiskFault::BitRot { offset }) = fault else {
            panic!("flip must land in a non-empty image");
        };
        // The last 4 header bytes are pad outside the header CRC; a flip
        // there is invisible to recovery.
        let in_pad = (golden.header_len - 4..golden.header_len).contains(&offset);
        let expect = if in_pad {
            golden.records.len()
        } else {
            surviving(&golden, offset)
        };
        let case_dir = scratch("rot-case");
        materialise(&golden, &case_dir, &image);
        assert_recovers(
            &golden,
            &case_dir,
            expect,
            in_pad,
            &format!("bit rot at {offset}"),
        );
        let _ = fs::remove_dir_all(&case_dir);
    }
}
