//! The store itself: a directory of segment files behind a manifest,
//! with WAL-style appends, crash recovery, indexed replay and
//! compaction.
//!
//! # Layout and crash safety
//!
//! A store directory holds numbered segment files
//! (`seg-<generation>-<base_seq>.cst`, see `segment.rs` for the
//! file format) and a `MANIFEST.json` naming the live segments in order.
//! The manifest is the commit point for every structural change (segment
//! roll, compaction): it is replaced atomically and durably
//! ([`cordial_obs::fsio::durable_write`]), and any `.cst` file not named
//! by it is swept at open. A new segment is created, fsynced and
//! *manifested* before the first record lands in it, so an acknowledged
//! append can never sit in an unlisted file.
//!
//! Appends go straight to the active segment file; durability is
//! governed by [`FsyncPolicy`], or by the caller through a
//! [`SyncHandle`]. One [`Store::append_events`] call writes one
//! event-batch frame (several only past the 16 MiB body cap), so recovery
//! works at batch granularity. Recovery at [`Store::open`] scans every
//! live segment, truncates the first torn or corrupt frame, drops any
//! later segments (the write-ahead log's clean prefix ends at the first
//! tear) and resumes appending; what was cut is reported in
//! [`RecoveryReport`], not an error. A torn batch goes whole, and the
//! journal-before-ack discipline means it was never acknowledged.
//!
//! The first failed fsync, whether [`Store::sync`]'s or a
//! [`SyncHandle`]'s, poisons the store: every later append, sync and
//! sync handle returns [`StoreError::Poisoned`] until the store is
//! reopened. Bytes a failed fsync covered may or may not reach the disk,
//! so a later fsync must not be allowed to turn refused batches durable.
//!
//! # Replay index
//!
//! Each segment keeps an in-memory sparse index (one entry every
//! [`StoreConfig::index_every`] frames) carrying the first sequence
//! number of the entry's frame and the maximum event timestamp seen
//! *before* it. A `(device, time-range)` replay can therefore skip whole
//! segments by their time bounds and seek within a segment to the last
//! index entry provably before the requested range — without assuming
//! event timestamps are globally sorted. Replay then yields per-event
//! records, trimming a batch that straddles the requested range. Every
//! replay streams through one [`JournalReader`] ([`Store::reader`]);
//! [`Store::replay`] collects it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cordial_mcelog::ErrorEvent;
use cordial_obs::fsio;
use serde::Value;

use crate::error::StoreError;
use crate::reader::{Frames, JournalReader, SegmentSpan};
use crate::record::{
    decode_event_record, encode_checkpoint, encode_event_batch, Body, DeviceKey, Record,
    BODY_PREFIX_LEN, CHECKPOINT_OVERHEAD, EVENT_WIRE_LEN,
};
use crate::segment::{self, FRAME_OVERHEAD, MAX_BATCH_EVENTS, MAX_BODY, SEGMENT_HEADER_LEN};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// When appends reach the disk.
///
/// The serving daemon runs `Always` as group commit: it opens its store
/// with `Never`, and one connection thread at a time fsyncs every batch
/// appended so far through a [`SyncHandle`], acking each batch only after
/// the fsync that covers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append call — an acknowledged record survives
    /// power loss. The journal-before-ack default.
    Always,
    /// fsync once at least `n` records (events or checkpoints) were
    /// appended since the last one: bounded loss window, amortised cost.
    /// The check runs after each append call, so one call of `n` or more
    /// events syncs at once.
    Batch(u32),
    /// Never fsync on append (the OS flushes eventually). Still syncs
    /// on segment roll, compaction and drop.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => {
                if let Some(n) = s.strip_prefix("batch:") {
                    let n: u32 = n
                        .parse()
                        .map_err(|_| format!("bad fsync batch size `{n}`"))?;
                    if n == 0 {
                        return Err("fsync batch size must be at least 1".to_string());
                    }
                    Ok(FsyncPolicy::Batch(n))
                } else {
                    Err(format!(
                        "unknown fsync policy `{s}` (expected `always`, `never` or `batch:N`)"
                    ))
                }
            }
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// When appends are fsynced (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Soft cap on one segment file; appends roll to a new segment once
    /// the active one reaches it (default 8 MiB).
    pub segment_max_bytes: u64,
    /// Sparse-index granularity: one index entry per this many frames
    /// (default 64). A frame holds one append call's events or one
    /// checkpoint.
    pub index_every: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            segment_max_bytes: 8 * 1024 * 1024,
            index_every: 64,
        }
    }
}

/// What recovery found (and cut) while opening the store. All of this is
/// expected crash damage, reported rather than errored.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Bytes removed when truncating the first torn/corrupt record (and
    /// any segment dropped whole).
    pub truncated_bytes: u64,
    /// The segment whose tail was truncated, if any.
    pub truncated_segment: Option<String>,
    /// Segments dropped entirely (after the clean prefix ended).
    pub dropped_segments: Vec<String>,
    /// Human-readable description of the first corruption found.
    pub corruption: Option<String>,
    /// Stray files swept at open (uncommitted compaction output,
    /// leftover temp files).
    pub swept_files: Vec<String>,
}

/// Per-segment summary for [`Store::inspect`].
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Segment file name.
    pub name: String,
    /// Sequence number the segment was created at.
    pub base_seq: u64,
    /// File size in bytes (header included).
    pub bytes: u64,
    /// Records in the segment.
    pub records: u64,
    /// Event records.
    pub events: u64,
    /// Checkpoint records.
    pub checkpoints: u64,
    /// First record sequence number (None for an empty segment).
    pub first_seq: Option<u64>,
    /// Last record sequence number.
    pub last_seq: Option<u64>,
    /// Earliest event timestamp (ms) in the segment.
    pub min_time_ms: Option<u64>,
    /// Latest event timestamp (ms) in the segment.
    pub max_time_ms: Option<u64>,
}

/// Whole-store summary for the `store inspect` CLI.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// The store directory.
    pub dir: PathBuf,
    /// Per-segment summaries in manifest order.
    pub segments: Vec<SegmentReport>,
    /// Total records across segments.
    pub records: u64,
    /// Total event records.
    pub events: u64,
    /// Total checkpoint records.
    pub checkpoints: u64,
    /// Total bytes across segment files.
    pub bytes: u64,
    /// The next sequence number an append would receive.
    pub next_seq: u64,
    /// What recovery cut when the store was opened.
    pub recovery: RecoveryReport,
}

/// The newest checkpoint stored for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Store sequence number of the checkpoint record.
    pub seq: u64,
    /// Journal position the checkpoint covers: events with
    /// `seq <= journal_seq` are folded into the checkpointed state.
    pub journal_seq: u64,
    /// The JSON checkpoint payload.
    pub payload: String,
}

/// What [`Store::reader`] and [`Store::replay`] should yield. Default:
/// every record.
///
/// Setting `since_ms`/`until_ms` restricts to **event** records inside
/// the (inclusive) time range — checkpoints carry no wall-clock time and
/// are excluded by any time filter.
#[derive(Debug, Clone, Default)]
pub struct ReplayFilter {
    /// Only records of this device.
    pub device: Option<DeviceKey>,
    /// Only events with `time_ms >= since_ms` (excludes checkpoints).
    pub since_ms: Option<u64>,
    /// Only events with `time_ms <= until_ms` (excludes checkpoints).
    pub until_ms: Option<u64>,
    /// Only records with `seq >= min_seq`.
    pub min_seq: Option<u64>,
    /// Drop checkpoint records.
    pub events_only: bool,
}

impl ReplayFilter {
    fn time_filtered(&self) -> bool {
        self.since_ms.is_some() || self.until_ms.is_some()
    }

    /// The inclusive event-time range the filter keeps.
    fn time_range(&self) -> (u64, u64) {
        (
            self.since_ms.unwrap_or(0),
            self.until_ms.unwrap_or(u64::MAX),
        )
    }

    /// Whether `meta`'s segment may hold a record the filter keeps.
    fn may_keep(&self, meta: &SegmentMeta) -> bool {
        if self
            .min_seq
            .is_some_and(|m| meta.last_seq.is_none_or(|l| l < m))
        {
            return false;
        }
        if !self.time_filtered() {
            return true;
        }
        let (lo, hi) = self.time_range();
        match (meta.min_time, meta.max_time) {
            // No events at all — and time filters exclude checkpoints
            // anyway.
            (None, None) => false,
            (Some(min), Some(max)) => max >= lo && min <= hi,
            _ => true,
        }
    }

    /// Appends the records of one frame that the filter keeps to `out`.
    pub(crate) fn keep_from(&self, body: &Body<'_>, out: &mut VecDeque<Record>) {
        let time_filtered = self.time_filtered();
        if matches!(body, Body::Checkpoint { .. }) && (self.events_only || time_filtered)
            || self.min_seq.is_some_and(|m| body.last_seq() < m)
        {
            return;
        }
        let (lo, hi) = self.time_range();
        out.extend(body.records().filter(|record| {
            self.min_seq.is_none_or(|m| record.seq() >= m)
                && self.device.is_none_or(|d| record.device() == d)
                && (!time_filtered || record.time_ms().is_some_and(|t| t >= lo && t <= hi))
        }));
    }
}

/// What compaction achieved.
#[derive(Debug, Clone, Default)]
pub struct CompactReport {
    /// Records before compaction.
    pub records_before: u64,
    /// Records surviving compaction.
    pub records_after: u64,
    /// Bytes on disk before.
    pub bytes_before: u64,
    /// Bytes on disk after.
    pub bytes_after: u64,
    /// Event records dropped (covered by a newer checkpoint).
    pub dropped_events: u64,
    /// Checkpoint records dropped (superseded by a newer one).
    pub dropped_checkpoints: u64,
}

/// One sparse-index entry: a safe in-segment seek point.
#[derive(Debug, Clone)]
struct IndexEntry {
    /// File offset of the frame.
    offset: u64,
    /// Sequence number of the frame's first record.
    seq: u64,
    /// Maximum event timestamp of all records *before* `offset` (0 when
    /// none): if a replay's lower time bound exceeds this, everything
    /// before the entry is provably out of range.
    max_time_before: u64,
}

/// In-memory metadata of one live segment.
#[derive(Debug, Clone)]
struct SegmentMeta {
    name: String,
    path: PathBuf,
    base_seq: u64,
    len: u64,
    frames: u64,
    records: u64,
    events: u64,
    checkpoints: u64,
    first_seq: Option<u64>,
    last_seq: Option<u64>,
    min_time: Option<u64>,
    max_time: Option<u64>,
    sparse: Vec<IndexEntry>,
    running_max_time: u64,
}

impl SegmentMeta {
    fn new(name: String, path: PathBuf, base_seq: u64) -> Self {
        Self {
            name,
            path,
            base_seq,
            len: SEGMENT_HEADER_LEN as u64,
            frames: 0,
            records: 0,
            events: 0,
            checkpoints: 0,
            first_seq: None,
            last_seq: None,
            min_time: None,
            max_time: None,
            sparse: Vec::new(),
            running_max_time: 0,
        }
    }

    /// Accounts one frame occupying `offset..end`.
    fn note_frame(&mut self, offset: u64, end: u64, body: &Body<'_>, index_every: u32) {
        if self.frames.is_multiple_of(u64::from(index_every.max(1))) {
            self.sparse.push(IndexEntry {
                offset,
                seq: body.first_seq(),
                max_time_before: self.running_max_time,
            });
        }
        self.frames += 1;
        let records = body.last_seq() - body.first_seq() + 1;
        self.records += records;
        self.first_seq.get_or_insert(body.first_seq());
        self.last_seq = Some(body.last_seq());
        match body {
            Body::Events { .. } => {
                self.events += records;
                for t in body.event_times() {
                    self.min_time = Some(self.min_time.map_or(t, |m| m.min(t)));
                    self.max_time = Some(self.max_time.map_or(t, |m| m.max(t)));
                    self.running_max_time = self.running_max_time.max(t);
                }
            }
            Body::Checkpoint { .. } => self.checkpoints += 1,
        }
        self.len = end;
    }

    /// The deepest safe starting offset for a filtered scan: skipping to
    /// it can only skip records every active filter criterion excludes.
    fn start_offset_for(&self, filter: &ReplayFilter) -> usize {
        if filter.min_seq.is_none() && filter.since_ms.is_none() {
            return SEGMENT_HEADER_LEN;
        }
        let mut best = SEGMENT_HEADER_LEN;
        for entry in &self.sparse {
            let seq_ok = filter.min_seq.is_none_or(|m| entry.seq <= m);
            let time_ok = filter.since_ms.is_none_or(|lo| entry.max_time_before < lo);
            if seq_ok && time_ok && entry.offset as usize > best {
                best = entry.offset as usize;
            }
        }
        best
    }

    /// What a reader needs of this segment to read it under `filter`.
    fn span(&self, filter: &ReplayFilter) -> SegmentSpan {
        SegmentSpan {
            path: self.path.clone(),
            len: self.len,
            start: self.start_offset_for(filter),
        }
    }

    fn report(&self) -> SegmentReport {
        SegmentReport {
            name: self.name.clone(),
            base_seq: self.base_seq,
            bytes: self.len,
            records: self.records,
            events: self.events,
            checkpoints: self.checkpoints,
            first_seq: self.first_seq,
            last_seq: self.last_seq,
            min_time_ms: self.min_time,
            max_time_ms: self.max_time,
        }
    }
}

/// Renders a segment file name: generation then base sequence, both
/// fixed-width hex so lexicographic order equals logical order.
fn segment_name(gen: u32, base_seq: u64) -> String {
    format!("seg-{gen:08x}-{base_seq:016x}.cst")
}

/// Parses a name produced by [`segment_name`].
fn parse_segment_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".cst")?;
    let (gen, base) = rest.split_once('-')?;
    Some((
        u32::from_str_radix(gen, 16).ok()?,
        u64::from_str_radix(base, 16).ok()?,
    ))
}

/// The embedded store: open it on a directory, append events and
/// checkpoints, replay them back. Not internally synchronised — wrap in
/// a mutex to share across threads (the serving daemon does).
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    segments: Vec<SegmentMeta>,
    active: File,
    gen: u32,
    next_seq: u64,
    unsynced: u32,
    dirty: bool,
    /// Set by the first failed fsync, of the store's or of a
    /// [`SyncHandle`]'s: from then on the store refuses every append,
    /// sync and handle until it is reopened.
    poisoned: Arc<AtomicBool>,
    recovery: RecoveryReport,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, running crash
    /// recovery: the tail is scanned, the first torn or corrupt record
    /// is truncated away, segments past the tear are dropped, and the
    /// store is ready to append. See [`Store::recovery`] for what was
    /// cut.
    ///
    /// # Errors
    ///
    /// I/O failures and structural corruption the recovery scan cannot
    /// absorb (a malformed manifest).
    pub fn open(dir: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create dir", dir, e))?;
        let mut report = RecoveryReport::default();
        let names = match read_manifest(dir)? {
            Some(names) => names,
            None => {
                // First open (or pre-manifest directory): adopt every
                // well-named segment in lexicographic = logical order.
                let mut names: Vec<String> = list_dir(dir)?
                    .into_iter()
                    .filter(|name| parse_segment_name(name).is_some())
                    .collect();
                names.sort();
                names
            }
        };

        // Sweep stray files: uncommitted compaction output, temp files,
        // segments the manifest no longer lists.
        for name in list_dir(dir)? {
            if name == MANIFEST_NAME || names.contains(&name) {
                continue;
            }
            if name.ends_with(".cst") || name.ends_with(".tmp") {
                let _ = fs::remove_file(dir.join(&name));
                report.swept_files.push(name);
            }
        }

        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut last_seq: Option<u64> = None;
        let mut gen = 0u32;
        let mut cut = false;
        for name in &names {
            let path = dir.join(name);
            if cut {
                report.dropped_segments.push(name.clone());
                report.truncated_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let _ = fs::remove_file(&path);
                continue;
            }
            let Some((g, base)) = parse_segment_name(name) else {
                cut = true;
                report
                    .corruption
                    .get_or_insert(format!("{name}: not a segment file name"));
                report.dropped_segments.push(name.clone());
                let _ = fs::remove_file(&path);
                continue;
            };
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    // A manifested segment that cannot be read ends the
                    // clean prefix.
                    cut = true;
                    report
                        .corruption
                        .get_or_insert(format!("{name}: unreadable: {e}"));
                    report.dropped_segments.push(name.clone());
                    continue;
                }
            };
            gen = gen.max(g);
            if segment::decode_header(&bytes) != Some(base) {
                cut = true;
                report
                    .corruption
                    .get_or_insert(format!("{name}: torn or corrupt segment header"));
                report.truncated_bytes += bytes.len() as u64;
                report.dropped_segments.push(name.clone());
                let _ = fs::remove_file(&path);
                continue;
            }
            let scan = segment::scan_frames(&bytes, SEGMENT_HEADER_LEN, last_seq);
            let mut meta = SegmentMeta::new(name.clone(), path.clone(), base);
            for frame in &scan.frames {
                meta.note_frame(frame.offset, frame.end, &frame.body, config.index_every);
            }
            if let Some(corruption) = scan.corruption {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| StoreError::io("open for truncate", &path, e))?;
                file.set_len(scan.valid_len)
                    .map_err(|e| StoreError::io("truncate", &path, e))?;
                file.sync_all()
                    .map_err(|e| StoreError::io("sync truncated", &path, e))?;
                report.truncated_bytes += bytes.len() as u64 - scan.valid_len;
                report.truncated_segment = Some(name.clone());
                report
                    .corruption
                    .get_or_insert(format!("{name}: {corruption}"));
                cut = true;
            }
            last_seq = meta.last_seq.or(last_seq);
            segments.push(meta);
        }

        if report.corruption.is_some() {
            cordial_obs::counter!("store.recovery.truncations").inc();
        }

        let next_seq = last_seq.map_or(0, |s| s + 1);
        let reuse = segments
            .last()
            .is_some_and(|m| m.len < config.segment_max_bytes);
        let active = if reuse {
            let meta = match segments.last() {
                Some(meta) => meta,
                None => unreachable!("reuse implies a last segment"),
            };
            OpenOptions::new()
                .append(true)
                .open(&meta.path)
                .map_err(|e| StoreError::io("open active", &meta.path, e))?
        } else {
            let (meta, file) = create_segment(dir, gen, next_seq)?;
            segments.push(meta);
            file
        };

        let store = Self {
            dir: dir.to_path_buf(),
            config,
            segments,
            active,
            gen,
            next_seq,
            unsynced: 0,
            dirty: false,
            poisoned: Arc::default(),
            recovery: report,
        };
        // Commit the recovered view (drops swept/cut names, adds a
        // freshly created active segment).
        store.write_manifest()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery cut when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The sequence number the next appended record will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the last stored record, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.next_seq.checked_sub(1)
    }

    /// Appends a batch of events in order, returning the `(first, last)`
    /// sequence numbers assigned (`None` for an empty batch). The batch
    /// is written as one event-batch frame — as many as the 16 MiB body
    /// cap needs for a larger slice — so recovery keeps or cuts it whole.
    /// With [`FsyncPolicy::Always`] the batch is on disk when this
    /// returns — journal-before-ack needs exactly that.
    ///
    /// # Errors
    ///
    /// I/O failures; the batch must be considered unjournaled.
    /// [`StoreError::Poisoned`] once an fsync has failed.
    pub fn append_events(
        &mut self,
        events: &[ErrorEvent],
    ) -> Result<Option<(u64, u64)>, StoreError> {
        self.refuse_if_poisoned()?;
        if events.is_empty() {
            return Ok(None);
        }
        let first = self.next_seq;
        let chunks = events.chunks(MAX_BATCH_EVENTS);
        let mut buf = Vec::with_capacity(
            chunks.len() * (FRAME_OVERHEAD + BODY_PREFIX_LEN) + events.len() * EVENT_WIRE_LEN,
        );
        let mut frames = Vec::with_capacity(chunks.len());
        let mut seq = first;
        for chunk in chunks {
            let start = buf.len();
            segment::encode_frame(&mut buf, |out| encode_event_batch(seq, chunk, out));
            frames.push((start, buf.len(), seq));
            seq += chunk.len() as u64;
        }
        let base = self.write_active(&buf)?;
        let index_every = self.config.index_every;
        let meta = self.active_meta();
        for &(start, end, first_seq) in &frames {
            let body = Body::Events {
                first_seq,
                records: &buf[start + FRAME_OVERHEAD + BODY_PREFIX_LEN..end],
            };
            meta.note_frame(base + start as u64, base + end as u64, &body, index_every);
        }
        self.next_seq = seq;
        self.apply_fsync_policy(events.len())?;
        cordial_obs::counter!("store.append.events").add(events.len() as u64);
        Ok(Some((first, seq - 1)))
    }

    /// Appends a checkpoint for `device` covering the journal up to and
    /// including `journal_seq`, returning the record's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::TooLarge`], before anything is written, when the
    /// record would exceed the 16 MiB body cap that recovery enforces;
    /// I/O failures; [`StoreError::Poisoned`] once an fsync has failed.
    /// Either way the checkpoint must be considered unstored.
    pub fn append_checkpoint(
        &mut self,
        device: DeviceKey,
        journal_seq: u64,
        payload: &str,
    ) -> Result<u64, StoreError> {
        self.refuse_if_poisoned()?;
        let len = CHECKPOINT_OVERHEAD + payload.len();
        if len > MAX_BODY as usize {
            return Err(StoreError::TooLarge {
                len,
                max: MAX_BODY as usize,
            });
        }
        let seq = self.next_seq;
        let mut buf = Vec::with_capacity(FRAME_OVERHEAD + len);
        segment::encode_frame(&mut buf, |out| {
            encode_checkpoint(seq, device, journal_seq, payload, out);
        });
        let base = self.write_active(&buf)?;
        let body = Body::Checkpoint {
            seq,
            device,
            journal_seq,
            payload,
        };
        let index_every = self.config.index_every;
        self.active_meta()
            .note_frame(base, base + buf.len() as u64, &body, index_every);
        self.next_seq = seq + 1;
        self.apply_fsync_policy(1)?;
        cordial_obs::counter!("store.append.checkpoints").inc();
        Ok(seq)
    }

    /// Writes whole frames at the end of the active segment (rolling
    /// first when it is full), returning the offset they start at. A
    /// failed write is cut back off, so no torn frame can sit in front of
    /// a later append.
    fn write_active(&mut self, frames: &[u8]) -> Result<u64, StoreError> {
        self.roll_if_full()?;
        let base = self.active_meta().len;
        if let Err(err) = self.active.write_all(frames) {
            let _ = self.active.set_len(base);
            return Err(StoreError::io(
                "append",
                self.active_meta().path.clone(),
                err,
            ));
        }
        self.dirty = true;
        Ok(base)
    }

    fn active_meta(&mut self) -> &mut SegmentMeta {
        match self.segments.last_mut() {
            Some(meta) => meta,
            None => unreachable!("an open store always has an active segment"),
        }
    }

    fn apply_fsync_policy(&mut self, appended: usize) -> Result<(), StoreError> {
        match self.config.fsync {
            FsyncPolicy::Always => self.sync_active(),
            FsyncPolicy::Batch(n) => {
                let appended = u32::try_from(appended).unwrap_or(u32::MAX);
                self.unsynced = self.unsynced.saturating_add(appended);
                if self.unsynced >= n {
                    self.sync_active()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// [`StoreError::Poisoned`] once an fsync has failed. After a failed
    /// fsync the kernel may have dropped the unwritten pages or may still
    /// write them later, so no later append or fsync can be trusted to
    /// mean what it says: refused batches could turn durable, or a hole
    /// could open in front of acknowledged ones.
    fn refuse_if_poisoned(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(StoreError::Poisoned);
        }
        Ok(())
    }

    /// Forces buffered appends to disk regardless of policy.
    ///
    /// # Errors
    ///
    /// The underlying fsync failure, which poisons the store;
    /// [`StoreError::Poisoned`] once an fsync has failed.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.refuse_if_poisoned()?;
        self.sync_active()
    }

    /// [`Store::sync`] for callers that already checked the poison flag.
    fn sync_active(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            let path = self.active_meta().path.clone();
            fsync(&self.active, &path, &self.poisoned)?;
        }
        self.unsynced = 0;
        self.dirty = false;
        Ok(())
    }

    /// A handle that fsyncs everything appended so far without holding
    /// the store: a duplicate of the active segment's file plus the last
    /// sequence number it covers. Records of earlier segments are already
    /// durable, because a roll syncs the segment it leaves whenever
    /// something was appended to it after the last sync or handle.
    ///
    /// The serving daemon's group commit takes one under the store lock,
    /// releases the lock, and fsyncs while other threads keep appending.
    ///
    /// # Errors
    ///
    /// Duplicating the file handle failed; [`StoreError::Poisoned`] once
    /// an fsync has failed.
    pub fn sync_handle(&mut self) -> Result<SyncHandle, StoreError> {
        self.refuse_if_poisoned()?;
        let path = self.active_meta().path.clone();
        let file = self
            .active
            .try_clone()
            .map_err(|e| StoreError::io("clone active segment", &path, e))?;
        self.unsynced = 0;
        self.dirty = false;
        Ok(SyncHandle {
            file,
            path,
            covers: self.last_seq(),
            poisoned: Arc::clone(&self.poisoned),
        })
    }

    /// Rolls to a fresh segment when the active one is at the size cap.
    /// The new file is created, synced and manifested *before* any
    /// record lands in it.
    fn roll_if_full(&mut self) -> Result<(), StoreError> {
        if self.active_meta().len < self.config.segment_max_bytes {
            return Ok(());
        }
        self.sync_active()?;
        let (meta, file) = create_segment(&self.dir, self.gen, self.next_seq)?;
        self.segments.push(meta);
        self.active = file;
        self.write_manifest()?;
        cordial_obs::counter!("store.segments.rolled").inc();
        Ok(())
    }

    /// The frames of every live segment `pick` accepts, each from its
    /// header on.
    fn frames(&self, pick: impl Fn(&SegmentMeta) -> bool) -> Frames {
        let everything = ReplayFilter::default();
        Frames::new(
            self.segments
                .iter()
                .filter(|meta| pick(meta))
                .map(|meta| meta.span(&everything))
                .collect(),
        )
    }

    /// A streaming pass over the stored records matching `filter`, in
    /// append (sequence) order, one [`Record`] per event whatever its
    /// framing. The reader borrows nothing from the store: create it under
    /// the store's lock, then read with the lock released (see
    /// [`JournalReader`]).
    pub fn reader(&self, filter: &ReplayFilter) -> JournalReader {
        let segments = self
            .segments
            .iter()
            .filter(|meta| filter.may_keep(meta))
            .map(|meta| meta.span(filter))
            .collect();
        JournalReader::new(filter.clone(), segments)
    }

    /// Replays stored records matching `filter`, in append (sequence)
    /// order: [`Store::reader`]'s records, collected.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption appearing in data that recovery had
    /// validated (the files were modified underneath the store).
    pub fn replay(&self, filter: &ReplayFilter) -> Result<Vec<Record>, StoreError> {
        self.reader(filter).collect()
    }

    /// The journal tail: every event with sequence number strictly
    /// greater than `journal_seq`, in append order — what a recovering
    /// consumer replays on top of a checkpoint taken at `journal_seq`.
    /// A `journal_seq` inside a batch splits it.
    ///
    /// # Errors
    ///
    /// Same as [`Store::replay`].
    pub fn events_after(&self, journal_seq: u64) -> Result<Vec<(u64, ErrorEvent)>, StoreError> {
        let filter = ReplayFilter {
            min_seq: Some(journal_seq.saturating_add(1)),
            events_only: true,
            ..ReplayFilter::default()
        };
        Ok(self
            .replay(&filter)?
            .into_iter()
            .filter_map(|record| match record {
                Record::Event { seq, event } => Some((seq, event)),
                Record::Checkpoint { .. } => None,
            })
            .collect())
    }

    /// The newest checkpoint of every device that has one.
    ///
    /// # Errors
    ///
    /// Same as [`Store::replay`].
    pub fn latest_checkpoints(&self) -> Result<BTreeMap<DeviceKey, CheckpointRecord>, StoreError> {
        let mut latest: BTreeMap<DeviceKey, CheckpointRecord> = BTreeMap::new();
        let mut frames = self.frames(|meta| meta.checkpoints > 0);
        while let Some(body) = frames.next()? {
            if let Body::Checkpoint {
                seq,
                device,
                journal_seq,
                payload,
            } = body
            {
                // Later segments and offsets carry higher seqs, so a plain
                // overwrite keeps the newest.
                let record = CheckpointRecord {
                    seq,
                    journal_seq,
                    payload: payload.to_owned(),
                };
                latest.insert(device, record);
            }
        }
        Ok(latest)
    }

    /// The newest checkpoint of one device, if any.
    ///
    /// # Errors
    ///
    /// Same as [`Store::replay`].
    pub fn latest_checkpoint(
        &self,
        device: DeviceKey,
    ) -> Result<Option<CheckpointRecord>, StoreError> {
        Ok(self.latest_checkpoints()?.remove(&device))
    }

    /// Drops records that no recovery could ever need — events already
    /// folded into their device's newest checkpoint, and checkpoints
    /// superseded by a newer one — rewriting the survivors into fresh
    /// segments. The surviving events of one frame stay framed together
    /// as one batch, split where a dropped event leaves a gap. The
    /// manifest replacement is the commit point: a crash anywhere during
    /// compaction leaves either the old store or the new one, never a
    /// mix.
    ///
    /// # Errors
    ///
    /// I/O failures. The store is unchanged on error (the manifest still
    /// names the old segments).
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        self.sync()?;
        let mut latest: BTreeMap<DeviceKey, (u64, u64)> = BTreeMap::new();
        let mut frames = self.frames(|meta| meta.checkpoints > 0);
        while let Some(body) = frames.next()? {
            if let Body::Checkpoint {
                seq,
                device,
                journal_seq,
                ..
            } = body
            {
                latest.insert(device, (seq, journal_seq));
            }
        }
        let covered = |seq: u64, record: &[u8]| {
            decode_event_record(record).is_ok_and(|event| {
                latest
                    .get(&DeviceKey::of_event(&event))
                    .is_some_and(|&(_, journal_seq)| journal_seq >= seq)
            })
        };
        let mut report = CompactReport {
            records_before: self.segments.iter().map(|m| m.records).sum(),
            bytes_before: self.segments.iter().map(|m| m.len).sum(),
            ..CompactReport::default()
        };

        // Write survivors into a fresh generation of sealed segments.
        let mut out = Rewriter {
            dir: &self.dir,
            gen: self.gen + 1,
            segment_max_bytes: self.config.segment_max_bytes,
            index_every: self.config.index_every,
            sealed: Vec::new(),
            current: None,
        };
        let mut frames = self.frames(|_| true);
        while let Some(body) = frames.next()? {
            match body {
                Body::Checkpoint { seq, device, .. } => {
                    if latest
                        .get(&device)
                        .is_some_and(|&(newest, _)| newest == seq)
                    {
                        out.push(&body)?;
                    } else {
                        report.dropped_checkpoints += 1;
                    }
                }
                Body::Events { first_seq, records } => {
                    // Survivors run from `start` up to each dropped event
                    // and to the end of the frame.
                    let n = records.len() / EVENT_WIRE_LEN;
                    let mut start = 0;
                    for i in 0..=n {
                        let at = i * EVENT_WIRE_LEN;
                        let dropped = i < n
                            && covered(first_seq + i as u64, &records[at..at + EVENT_WIRE_LEN]);
                        if i < n && !dropped {
                            continue;
                        }
                        if start < i {
                            out.push(&Body::Events {
                                first_seq: first_seq + start as u64,
                                records: &records[start * EVENT_WIRE_LEN..at],
                            })?;
                        }
                        report.dropped_events += u64::from(dropped);
                        start = i + 1;
                    }
                }
            }
        }
        out.seal()?;
        let gen = out.gen;
        let mut new_metas = out.sealed;

        // Always finish with a fresh empty active segment.
        let (active_meta, active_file) = create_segment(&self.dir, gen, self.next_seq)?;
        new_metas.push(active_meta);

        let old_paths: Vec<PathBuf> = self.segments.iter().map(|m| m.path.clone()).collect();
        self.gen = gen;
        self.segments = new_metas;
        self.active = active_file;
        self.unsynced = 0;
        self.dirty = false;
        // Commit point: the manifest now names only the new generation.
        self.write_manifest()?;
        for path in old_paths {
            let _ = fs::remove_file(path);
        }
        report.records_after = self.segments.iter().map(|m| m.records).sum();
        report.bytes_after = self.segments.iter().map(|m| m.len).sum();
        cordial_obs::counter!("store.compactions").inc();
        Ok(report)
    }

    /// A structural summary of the store (the `store inspect` CLI view).
    pub fn inspect(&self) -> StoreReport {
        StoreReport {
            dir: self.dir.clone(),
            segments: self.segments.iter().map(SegmentMeta::report).collect(),
            records: self.segments.iter().map(|m| m.records).sum(),
            events: self.segments.iter().map(|m| m.events).sum(),
            checkpoints: self.segments.iter().map(|m| m.checkpoints).sum(),
            bytes: self.segments.iter().map(|m| m.len).sum(),
            next_seq: self.next_seq,
            recovery: self.recovery.clone(),
        }
    }

    /// Replaces the manifest, durably naming the current segment list.
    fn write_manifest(&self) -> Result<(), StoreError> {
        let value = Value::Map(vec![
            ("format".to_string(), Value::U64(1)),
            (
                "segments".to_string(),
                Value::Seq(
                    self.segments
                        .iter()
                        .map(|m| Value::Str(m.name.clone()))
                        .collect(),
                ),
            ),
        ]);
        let path = self.dir.join(MANIFEST_NAME);
        let text = serde_json::to_string_pretty(&value).map_err(|e| StoreError::Corrupt {
            path: path.clone(),
            what: format!("cannot serialise manifest: {e}"),
        })?;
        fsio::durable_write(&path, text.as_bytes())
            .map_err(|e| StoreError::io("write manifest", path, e))
    }
}

/// An fsync of the active segment detached from the store; see
/// [`Store::sync_handle`].
#[derive(Debug)]
pub struct SyncHandle {
    file: File,
    path: PathBuf,
    covers: Option<u64>,
    poisoned: Arc<AtomicBool>,
}

impl SyncHandle {
    /// The last sequence number durable once [`SyncHandle::sync`]
    /// succeeds (`None` for an empty store).
    pub fn covers(&self) -> Option<u64> {
        self.covers
    }

    /// fsyncs the segment, counting it in `store.fsyncs`.
    ///
    /// # Errors
    ///
    /// The underlying fsync failure: nothing the handle covers may be
    /// taken as durable, and the store that issued the handle is
    /// poisoned. [`StoreError::Poisoned`] once an fsync has failed.
    pub fn sync(&self) -> Result<(), StoreError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(StoreError::Poisoned);
        }
        fsync(&self.file, &self.path, &self.poisoned)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if self.dirty && !self.poisoned.load(Ordering::Acquire) {
            let _ = self.active.sync_all();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: fail this thread's next [`fsync`].
    static FAIL_NEXT_FSYNC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// fsyncs a segment file, counting it in `store.fsyncs`. A failure
/// poisons the store (see [`Store::sync`]).
fn fsync(file: &File, path: &Path, poisoned: &AtomicBool) -> Result<(), StoreError> {
    #[cfg(test)]
    let injected = FAIL_NEXT_FSYNC.with(|fail| fail.replace(false));
    #[cfg(not(test))]
    let injected = false;
    let result = if injected {
        Err(std::io::Error::other("injected fsync failure"))
    } else {
        file.sync_all()
    };
    if let Err(err) = result {
        poisoned.store(true, Ordering::Release);
        return Err(StoreError::io("fsync", path, err));
    }
    cordial_obs::counter!("store.fsyncs").inc();
    Ok(())
}

/// File names inside the store directory.
fn list_dir(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut names = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read dir", dir, e))?;
        if let Some(name) = entry.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    Ok(names)
}

/// Reads the manifest's segment list (`None` when no manifest exists).
fn read_manifest(dir: &Path) -> Result<Option<Vec<String>>, StoreError> {
    let path = dir.join(MANIFEST_NAME);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("read manifest", path, e)),
    };
    let value = serde_json::parse_value_str(&text).map_err(|e| StoreError::Corrupt {
        path: path.clone(),
        what: format!("malformed manifest: {e}"),
    })?;
    let Some(Value::Seq(items)) = value.get("segments") else {
        return Err(StoreError::Corrupt {
            path,
            what: "manifest has no `segments` array".to_string(),
        });
    };
    let mut names = Vec::with_capacity(items.len());
    for item in items {
        let Value::Str(name) = item else {
            return Err(StoreError::Corrupt {
                path,
                what: "manifest `segments` entry is not a string".to_string(),
            });
        };
        names.push(name.clone());
    }
    Ok(Some(names))
}

/// Creates a fresh segment file: header written, synced, parent
/// directory synced. The returned [`File`] is positioned for appending.
fn create_segment(dir: &Path, gen: u32, base_seq: u64) -> Result<(SegmentMeta, File), StoreError> {
    let name = segment_name(gen, base_seq);
    let path = dir.join(&name);
    let mut file = File::create(&path).map_err(|e| StoreError::io("create segment", &path, e))?;
    file.write_all(&segment::encode_header(base_seq))
        .map_err(|e| StoreError::io("write header", &path, e))?;
    file.sync_all()
        .map_err(|e| StoreError::io("sync segment", &path, e))?;
    fsio::sync_parent_dir(&path).map_err(|e| StoreError::io("sync dir", dir, e))?;
    Ok((SegmentMeta::new(name, path, base_seq), file))
}

/// Compaction output: surviving frames re-encoded into a fresh
/// generation of sealed segments.
struct Rewriter<'a> {
    dir: &'a Path,
    gen: u32,
    segment_max_bytes: u64,
    index_every: u32,
    sealed: Vec<SegmentMeta>,
    current: Option<(SegmentMeta, File, Vec<u8>)>,
}

impl Rewriter<'_> {
    /// Frames `body` into the current segment, starting a new one when
    /// there is none or it reached the size cap.
    fn push(&mut self, body: &Body<'_>) -> Result<(), StoreError> {
        let full = self
            .current
            .as_ref()
            .is_none_or(|(meta, _, _)| meta.len >= self.segment_max_bytes);
        if full {
            self.seal()?;
            let (meta, file) = create_segment(self.dir, self.gen, body.first_seq())?;
            self.current = Some((meta, file, Vec::new()));
        }
        if let Some((meta, _, buf)) = &mut self.current {
            let start = SEGMENT_HEADER_LEN as u64 + buf.len() as u64;
            segment::encode_frame(buf, |out| body.encode(out));
            let end = SEGMENT_HEADER_LEN as u64 + buf.len() as u64;
            meta.note_frame(start, end, body, self.index_every);
        }
        Ok(())
    }

    /// Writes and syncs the current segment's buffered frames.
    fn seal(&mut self) -> Result<(), StoreError> {
        if let Some((meta, mut file, buf)) = self.current.take() {
            file.write_all(&buf)
                .map_err(|e| StoreError::io("write compacted", &meta.path, e))?;
            file.sync_all()
                .map_err(|e| StoreError::io("sync compacted", &meta.path, e))?;
            self.sealed.push(meta);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial_mcelog::{ErrorType, Timestamp};
    use cordial_topology::{
        BankAddress, BankGroup, BankIndex, Channel, ColId, HbmSocket, NodeId, NpuId, PseudoChannel,
        RowId, StackId,
    };

    fn event(node: u32, time_ms: u64) -> ErrorEvent {
        let bank = BankAddress::new(
            NodeId(node),
            NpuId(0),
            HbmSocket(0),
            StackId(0),
            Channel(0),
            PseudoChannel(0),
            BankGroup(0),
            BankIndex(0),
        );
        ErrorEvent::new(
            bank.cell(RowId(time_ms as u32), ColId(0)),
            Timestamp::from_millis(time_ms),
            ErrorType::Ce,
        )
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cordial-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn device(node: u32) -> DeviceKey {
        DeviceKey {
            node,
            npu: 0,
            hbm: 0,
        }
    }

    #[test]
    fn appends_survive_reopen_with_identical_records() {
        let dir = scratch("roundtrip");
        let events: Vec<ErrorEvent> = (0..10).map(|i| event(i % 3, 100 + u64::from(i))).collect();
        {
            let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
            assert_eq!(store.append_events(&events).unwrap(), Some((0, 9)));
            let seq = store.append_checkpoint(device(1), 9, "{\"x\":1}").unwrap();
            assert_eq!(seq, 10);
        }
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.next_seq(), 11);
        assert!(store.recovery().corruption.is_none());
        let replayed = store.replay(&ReplayFilter::default()).unwrap();
        assert_eq!(replayed.len(), 11);
        for (i, record) in replayed.iter().take(10).enumerate() {
            assert_eq!(
                record,
                &Record::Event {
                    seq: i as u64,
                    event: events[i]
                }
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = scratch("torn");
        {
            let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
            store
                .append_events(&[event(0, 1), event(0, 2), event(0, 3)])
                .unwrap();
        }
        // Tear the last record: chop 5 bytes off the active segment.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".cst"))
            .unwrap()
            .path();
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.recovery().corruption.is_some());
        // The three events share one 95-byte frame (8 framing + 9 prefix
        // + 3 x 26), so the tear takes the whole batch: its surviving 90
        // bytes are truncated away.
        assert_eq!(store.recovery().truncated_bytes, 90);
        assert_eq!(store.next_seq(), 0);
        // New appends take the freed sequence numbers.
        assert_eq!(store.append_events(&[event(0, 9)]).unwrap(), Some((0, 0)));
        let replayed = store.replay(&ReplayFilter::default()).unwrap();
        let seqs: Vec<u64> = replayed.iter().map(Record::seq).collect();
        assert_eq!(seqs, vec![0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_after_splits_a_batch_at_the_requested_seq() {
        let dir = scratch("after");
        // Small index steps so the seek lands on a frame that starts
        // before the requested seq.
        let config = StoreConfig {
            index_every: 1,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, config).unwrap();
        let events: Vec<ErrorEvent> = (0..30).map(|i| event(i % 2, 100 + u64::from(i))).collect();
        for batch in [&events[0..1], &events[1..4], &events[4..21], &events[21..]] {
            store.append_events(batch).unwrap();
        }
        store.append_checkpoint(device(0), 29, "{}").unwrap();
        for k in [0u64, 2, 3, 4, 10, 20, 25, 28] {
            let tail = store.events_after(k).unwrap();
            let want: Vec<(u64, ErrorEvent)> =
                (k + 1..30).map(|s| (s, events[s as usize])).collect();
            assert_eq!(tail, want, "events after {k}");
        }
        assert!(store.events_after(29).unwrap().is_empty());
        // A seq filter combined with a device filter trims the same way.
        let dev1 = store
            .replay(&ReplayFilter {
                device: Some(device(1)),
                min_seq: Some(12),
                events_only: true,
                ..ReplayFilter::default()
            })
            .unwrap();
        let seqs: Vec<u64> = dev1.iter().map(Record::seq).collect();
        assert_eq!(seqs, (13..30).step_by(2).collect::<Vec<u64>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_event_segments_from_earlier_releases_open_and_replay() {
        let dir = scratch("kind1");
        fs::create_dir_all(&dir).unwrap();
        // The layout stores wrote before event batches: one kind-1 frame
        // per event (kind | seq | record), checkpoints as today.
        let events: Vec<ErrorEvent> = (0..5).map(|i| event(i, 10 * u64::from(i))).collect();
        let mut bytes = segment::encode_header(0).to_vec();
        for (seq, event) in events.iter().enumerate() {
            segment::encode_frame(&mut bytes, |out| {
                out.push(crate::record::KIND_EVENT);
                out.extend_from_slice(&(seq as u64).to_le_bytes());
                crate::record::encode_event_record(event, out);
            });
        }
        segment::encode_frame(&mut bytes, |out| {
            encode_checkpoint(5, device(0), 4, "{\"v\":1}", out);
        });
        assert_eq!(bytes.len(), SEGMENT_HEADER_LEN + 5 * 43 + 8 + 25 + 7);
        fs::write(dir.join(segment_name(0, 0)), &bytes).unwrap();

        let mut want: Vec<Record> = events
            .iter()
            .enumerate()
            .map(|(seq, event)| Record::Event {
                seq: seq as u64,
                event: *event,
            })
            .collect();
        want.push(Record::Checkpoint {
            seq: 5,
            device: device(0),
            journal_seq: 4,
            payload: "{\"v\":1}".to_string(),
        });
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.recovery().corruption.is_none());
        assert_eq!(store.inspect().records, 6);
        assert_eq!(store.replay(&ReplayFilter::default()).unwrap(), want);
        assert_eq!(store.events_after(2).unwrap().len(), 2);

        // New batches land behind the old frames, and compaction
        // rewrites the survivors as batches.
        let later = [event(1, 60), event(2, 70)];
        assert_eq!(store.append_events(&later).unwrap(), Some((6, 7)));
        drop(store);
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.recovery().corruption.is_none());
        let replayed = store.replay(&ReplayFilter::default()).unwrap();
        assert_eq!(replayed[..6], want[..]);
        assert_eq!(replayed.len(), 8);
        let report = store.compact().unwrap();
        // Device 0's checkpoint covers its event 0 only.
        assert_eq!(report.dropped_events, 1);
        let seqs: Vec<u64> = store
            .replay(&ReplayFilter::default())
            .unwrap()
            .iter()
            .map(Record::seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_checkpoints_are_refused_before_anything_is_written() {
        let dir = scratch("oversize");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.append_events(&[event(0, 1)]).unwrap();
        let huge = "x".repeat(MAX_BODY as usize);
        let before = store.inspect().bytes;
        let err = store.append_checkpoint(device(0), 0, &huge).unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { .. }), "{err}");
        assert_eq!(store.inspect().bytes, before, "nothing was written");
        assert_eq!(store.next_seq(), 1);
        // The largest payload that fits is accepted and reads back.
        let fits = "y".repeat(MAX_BODY as usize - CHECKPOINT_OVERHEAD);
        assert_eq!(store.append_checkpoint(device(0), 0, &fits).unwrap(), 1);
        assert_eq!(store.append_checkpoint(device(1), 0, "{}").unwrap(), 2);
        drop(store);
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.recovery().corruption.is_none());
        let latest = store.latest_checkpoints().unwrap();
        assert_eq!(latest[&device(0)].payload.len(), fits.len());
        assert_eq!(latest[&device(1)].seq, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slices_past_the_body_cap_spread_over_frames() {
        let dir = scratch("twoframes");
        let config = StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, config.clone()).unwrap();
        let n = MAX_BATCH_EVENTS + 1;
        let events: Vec<ErrorEvent> = (0..n as u64).map(|i| event(0, i)).collect();
        assert_eq!(
            store.append_events(&events).unwrap(),
            Some((0, n as u64 - 1))
        );
        // Two frames: one full, one holding the last event.
        let frames = 2 * (FRAME_OVERHEAD + BODY_PREFIX_LEN);
        let want_bytes = (SEGMENT_HEADER_LEN + frames + n * EVENT_WIRE_LEN) as u64;
        assert_eq!(store.inspect().bytes, want_bytes);
        drop(store);
        let store = Store::open(&dir, config).unwrap();
        assert!(store.recovery().corruption.is_none());
        let replayed = store.replay(&ReplayFilter::default()).unwrap();
        assert_eq!(replayed.len(), n);
        for (i, record) in replayed.iter().enumerate() {
            assert_eq!(
                record,
                &Record::Event {
                    seq: i as u64,
                    event: events[i]
                }
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Makes this thread's next fsync fail.
    fn fail_next_fsync() {
        FAIL_NEXT_FSYNC.with(|fail| fail.set(true));
    }

    fn assert_poisoned<T: fmt::Debug>(result: Result<T, StoreError>) {
        assert!(matches!(result, Err(StoreError::Poisoned)), "{result:?}");
    }

    #[test]
    fn a_failed_fsync_poisons_the_store_until_it_is_reopened() {
        let dir = scratch("poison-sync");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.append_events(&[event(0, 1)]).unwrap();
        fail_next_fsync();
        let err = store.append_events(&[event(0, 2)]).unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        // The fsync hook is spent: these would succeed on a healthy store.
        assert_poisoned(store.append_events(&[event(0, 3)]));
        assert_poisoned(store.append_checkpoint(device(0), 1, "{}"));
        assert_poisoned(store.sync_handle());
        assert_poisoned(store.sync());
        assert!(store
            .sync()
            .unwrap_err()
            .to_string()
            .contains("after a failed fsync"));
        drop(store);

        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.append_events(&[event(0, 4)]).unwrap();
        store.sync_handle().unwrap().sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_group_commit_poisons_the_store() {
        let dir = scratch("poison-handle");
        let config = StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, config.clone()).unwrap();
        store.append_events(&[event(0, 1)]).unwrap();
        let handle = store.sync_handle().unwrap();
        // Appends keep landing while the detached fsync runs.
        store.append_events(&[event(0, 2)]).unwrap();
        fail_next_fsync();
        assert!(handle.sync().is_err());
        assert_poisoned(store.append_events(&[event(0, 3)]));
        assert_poisoned(store.append_checkpoint(device(0), 1, "{}"));
        assert_poisoned(store.sync_handle());
        assert_poisoned(handle.sync());
        assert_poisoned(store.sync());
        drop(store);

        let mut store = Store::open(&dir, config).unwrap();
        store.append_events(&[event(0, 4)]).unwrap();
        store.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_handles_cover_every_append_before_them() {
        let dir = scratch("handle");
        let config = StoreConfig {
            fsync: FsyncPolicy::Never,
            segment_max_bytes: 200,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, config.clone()).unwrap();
        assert_eq!(store.sync_handle().unwrap().covers(), None);
        store.append_events(&[event(0, 1), event(0, 2)]).unwrap();
        let handle = store.sync_handle().unwrap();
        // Appends after the handle, rolling segments on the way, are
        // not covered by it.
        for i in 0..10 {
            store.append_events(&[event(0, 10 + i)]).unwrap();
        }
        assert!(store.inspect().segments.len() > 1);
        assert_eq!(handle.covers(), Some(1));
        handle.sync().unwrap();
        let handle = store.sync_handle().unwrap();
        assert_eq!(handle.covers(), Some(11));
        handle.sync().unwrap();
        drop(store);
        let store = Store::open(&dir, config).unwrap();
        assert_eq!(store.replay(&ReplayFilter::default()).unwrap().len(), 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_filters_by_device_time_and_seq() {
        let dir = scratch("filters");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..20u64 {
            store
                .append_events(&[event((i % 2) as u32, 1000 + i * 10)])
                .unwrap();
        }
        store.append_checkpoint(device(0), 19, "{}").unwrap();

        let dev0 = store
            .replay(&ReplayFilter {
                device: Some(device(0)),
                events_only: true,
                ..ReplayFilter::default()
            })
            .unwrap();
        assert_eq!(dev0.len(), 10);

        let windowed = store
            .replay(&ReplayFilter {
                since_ms: Some(1050),
                until_ms: Some(1100),
                ..ReplayFilter::default()
            })
            .unwrap();
        let times: Vec<u64> = windowed.iter().filter_map(Record::time_ms).collect();
        assert_eq!(times, vec![1050, 1060, 1070, 1080, 1090, 1100]);

        let tail = store.events_after(17).unwrap();
        assert_eq!(
            tail.iter().map(|(seq, _)| *seq).collect::<Vec<u64>>(),
            vec![18, 19]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_reader_yields_exactly_the_records_each_filter_keeps() {
        let dir = scratch("reader");
        // Small segments and a dense index, so filters skip segments and
        // seek inside them.
        let config = StoreConfig {
            segment_max_bytes: 512,
            index_every: 2,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, config).unwrap();
        let mut all = Vec::new();
        for i in 0..60u64 {
            if i % 7 == 3 {
                let node = (i % 3) as u32;
                let seq = store.append_checkpoint(device(node), i, "{}").unwrap();
                all.push(Record::Checkpoint {
                    seq,
                    device: device(node),
                    journal_seq: i,
                    payload: "{}".to_string(),
                });
                continue;
            }
            // Batches of one to three events; times rise overall but not
            // within every batch.
            let events: Vec<ErrorEvent> = (0..=i % 3)
                .map(|j| event(((i + j) % 3) as u32, 1000 + i * 10 - j * 15))
                .collect();
            let (first, _) = store.append_events(&events).unwrap().unwrap();
            all.extend(
                (first..)
                    .zip(&events)
                    .map(|(seq, event)| Record::Event { seq, event: *event }),
            );
        }
        assert!(store.inspect().segments.len() > 3, "must have rolled");
        let keeps = |f: &ReplayFilter, record: &Record| {
            let timed = f.since_ms.is_some() || f.until_ms.is_some();
            let (lo, hi) = (f.since_ms.unwrap_or(0), f.until_ms.unwrap_or(u64::MAX));
            !(matches!(record, Record::Checkpoint { .. }) && (f.events_only || timed))
                && f.min_seq.is_none_or(|m| record.seq() >= m)
                && f.device.is_none_or(|d| record.device() == d)
                && (!timed || record.time_ms().is_some_and(|t| t >= lo && t <= hi))
        };
        let shapes = [
            ReplayFilter::default(),
            ReplayFilter {
                events_only: true,
                ..ReplayFilter::default()
            },
            ReplayFilter {
                device: Some(device(0)),
                events_only: true,
                ..ReplayFilter::default()
            },
            ReplayFilter {
                device: Some(device(2)),
                ..ReplayFilter::default()
            },
            ReplayFilter {
                since_ms: Some(1250),
                until_ms: Some(1400),
                ..ReplayFilter::default()
            },
            ReplayFilter {
                since_ms: Some(1300),
                ..ReplayFilter::default()
            },
            ReplayFilter {
                until_ms: Some(1100),
                device: Some(device(1)),
                ..ReplayFilter::default()
            },
            ReplayFilter {
                min_seq: Some(40),
                ..ReplayFilter::default()
            },
            ReplayFilter {
                min_seq: Some(41),
                events_only: true,
                device: Some(device(1)),
                ..ReplayFilter::default()
            },
        ];
        for filter in &shapes {
            let want: Vec<Record> = all.iter().filter(|r| keeps(filter, r)).cloned().collect();
            assert!(!want.is_empty(), "{filter:?} keeps something");
            let reader = store.reader(filter);
            let got: Vec<Record> = reader.collect::<Result<_, _>>().unwrap();
            assert_eq!(got, want, "{filter:?}");
            assert_eq!(store.replay(filter).unwrap(), want, "{filter:?}");
        }
        // The reader borrows nothing: it outlives the store it came from.
        let reader = store.reader(&ReplayFilter::default());
        drop(store);
        assert_eq!(reader.collect::<Result<Vec<_>, _>>().unwrap(), all);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_reader_reports_corruption_once_and_stops() {
        let dir = scratch("reader-corrupt");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..4u64 {
            store.append_events(&[event(0, i), event(1, i)]).unwrap();
        }
        let reader = store.reader(&ReplayFilter::default());
        // Flip a byte inside the last frame after recovery validated it.
        let path = store.segments[0].path.clone();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let items: Vec<Result<Record, StoreError>> = reader.collect();
        assert_eq!(items.len(), 7, "three whole frames, then one error");
        assert!(items[..6].iter().all(Result::is_ok));
        assert!(matches!(items[6], Err(StoreError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rolling_spreads_records_over_segments_and_replay_spans_them() {
        let dir = scratch("roll");
        let config = StoreConfig {
            segment_max_bytes: 256,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, config.clone()).unwrap();
        for i in 0..40u64 {
            store.append_events(&[event(0, i)]).unwrap();
        }
        assert!(store.inspect().segments.len() > 2, "must have rolled");
        drop(store);
        let store = Store::open(&dir, config).unwrap();
        assert_eq!(store.replay(&ReplayFilter::default()).unwrap().len(), 40);
        assert_eq!(store.next_seq(), 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_checkpoints_keep_only_the_newest_per_device() {
        let dir = scratch("ckpt");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.append_checkpoint(device(0), 0, "old0").unwrap();
        store.append_checkpoint(device(1), 0, "old1").unwrap();
        store.append_checkpoint(device(0), 5, "new0").unwrap();
        let latest = store.latest_checkpoints().unwrap();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[&device(0)].payload, "new0");
        assert_eq!(latest[&device(0)].journal_seq, 5);
        assert_eq!(latest[&device(1)].payload, "old1");
        assert_eq!(store.latest_checkpoint(device(2)).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_covered_events_and_superseded_checkpoints() {
        let dir = scratch("compact");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        // Device 0: 5 events then a checkpoint covering them, then 2 more.
        for i in 0..5u64 {
            store.append_events(&[event(0, i)]).unwrap();
        }
        store.append_checkpoint(device(0), 2, "early").unwrap();
        store.append_checkpoint(device(0), 4, "late").unwrap();
        store
            .append_events(&[event(0, 100), event(1, 200)])
            .unwrap();

        let report = store.compact().unwrap();
        assert_eq!(report.dropped_checkpoints, 1);
        assert_eq!(report.dropped_events, 5);
        assert!(report.bytes_after < report.bytes_before);

        // Survivors: checkpoint "late" + events seq 7 (dev0) and 8 (dev1).
        let records = store.replay(&ReplayFilter::default()).unwrap();
        let seqs: Vec<u64> = records.iter().map(Record::seq).collect();
        assert_eq!(seqs, vec![6, 7, 8]);
        assert_eq!(
            store.latest_checkpoints().unwrap()[&device(0)].payload,
            "late"
        );

        // And the compacted store must reopen cleanly, gaps and all.
        drop(store);
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.recovery().corruption.is_none());
        assert_eq!(store.next_seq(), 9);
        assert_eq!(
            store
                .replay(&ReplayFilter::default())
                .unwrap()
                .iter()
                .map(Record::seq)
                .collect::<Vec<u64>>(),
            vec![6, 7, 8]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_splits_a_batch_where_events_were_dropped() {
        let dir = scratch("compact-split");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        let nodes = [0, 1, 0, 0, 1, 1];
        let batch: Vec<ErrorEvent> = (0..6u64).map(|i| event(nodes[i as usize], i)).collect();
        store.append_events(&batch).unwrap();
        store.append_checkpoint(device(0), 5, "{}").unwrap();

        let report = store.compact().unwrap();
        assert_eq!(report.dropped_events, 3);
        // Node 1's survivors 1 | 4, 5 become two batch frames, then the
        // checkpoint, in a sealed segment plus a fresh active one.
        let frames = 2 * (FRAME_OVERHEAD + BODY_PREFIX_LEN) + 3 * EVENT_WIRE_LEN;
        let checkpoint = FRAME_OVERHEAD + CHECKPOINT_OVERHEAD + 2;
        let want = 2 * SEGMENT_HEADER_LEN + frames + checkpoint;
        assert_eq!(report.bytes_after, want as u64);
        drop(store);
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let replayed = store.replay(&ReplayFilter::default()).unwrap();
        let seqs: Vec<u64> = replayed.iter().map(Record::seq).collect();
        assert_eq!(seqs, vec![1, 4, 5, 6]);
        assert_eq!(
            replayed[1],
            Record::Event {
                seq: 4,
                event: batch[4]
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_files_are_swept_at_open() {
        let dir = scratch("sweep");
        {
            let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
            store.append_events(&[event(0, 1)]).unwrap();
        }
        fs::write(dir.join("seg-ffffffff-000000000000ffff.cst"), b"garbage").unwrap();
        fs::write(dir.join("leftover.tmp"), b"junk").unwrap();
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.recovery().swept_files.len(), 2);
        assert!(!dir.join("leftover.tmp").exists());
        assert_eq!(store.replay(&ReplayFilter::default()).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policies_parse_and_render() {
        assert_eq!("always".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Always));
        assert_eq!("never".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Never));
        assert_eq!(
            "batch:32".parse::<FsyncPolicy>(),
            Ok(FsyncPolicy::Batch(32))
        );
        assert!("batch:0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Batch(8).to_string(), "batch:8");
    }

    #[test]
    fn batch_policy_still_persists_after_drop() {
        let dir = scratch("batch");
        {
            let mut store = Store::open(
                &dir,
                StoreConfig {
                    fsync: FsyncPolicy::Batch(1000),
                    ..StoreConfig::default()
                },
            )
            .unwrap();
            store.append_events(&[event(0, 1), event(0, 2)]).unwrap();
        }
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.replay(&ReplayFilter::default()).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_segment_cuts_the_clean_prefix_there() {
        let dir = scratch("midcut");
        let config = StoreConfig {
            segment_max_bytes: 200,
            ..StoreConfig::default()
        };
        {
            let mut store = Store::open(&dir, config.clone()).unwrap();
            for i in 0..30u64 {
                store.append_events(&[event(0, i)]).unwrap();
            }
            assert!(store.inspect().segments.len() >= 3);
        }
        // Corrupt a byte in the middle of the *second* segment.
        let mut names: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".cst"))
            .collect();
        names.sort();
        let victim = &names[1];
        let mut bytes = fs::read(victim).unwrap();
        let mid = SEGMENT_HEADER_LEN + 20;
        bytes[mid] ^= 0xFF;
        fs::write(victim, &bytes).unwrap();

        let store = Store::open(&dir, config).unwrap();
        let report = store.recovery().clone();
        assert!(report.corruption.is_some());
        assert!(
            !report.dropped_segments.is_empty(),
            "later segments dropped"
        );
        // Whatever survived is a clean prefix: seqs 0..n contiguous here.
        let seqs: Vec<u64> = store
            .replay(&ReplayFilter::default())
            .unwrap()
            .iter()
            .map(Record::seq)
            .collect();
        assert!(!seqs.is_empty());
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<u64>>());
        let _ = fs::remove_dir_all(&dir);
    }
}
