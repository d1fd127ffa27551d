//! The journal reader: one streaming pass over the store's records, in
//! append (sequence) order, one per event whatever its framing, holding
//! one segment file and one frame's records in memory at a time.
//!
//! [`Store::reader`](crate::Store::reader) copies out what the pass needs
//! (each segment's path, its clean length and the deepest seek point the
//! filter allows), so the reader borrows nothing from the store. A caller
//! that shares the store behind a mutex holds the lock only to create the
//! reader and reads the files unlocked; threads fed by the pass may lock
//! the store meanwhile. A reader sees the segments as they were when it
//! was created: records appended later are not in its pass.
//! [`Store::replay`](crate::Store::replay) is a collect over this reader,
//! and the checkpoint index and compaction read the same frame pass
//! underneath it.

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;

use crate::error::StoreError;
use crate::record::{Body, Record};
use crate::segment;
use crate::store::ReplayFilter;

/// The part of one segment a reader visits.
#[derive(Debug)]
pub(crate) struct SegmentSpan {
    /// The segment file.
    pub path: PathBuf,
    /// Its clean length when the reader was created.
    pub len: u64,
    /// The frame offset to start at.
    pub start: usize,
}

/// The segment a [`Frames`] pass is in.
struct OpenSegment {
    path: PathBuf,
    bytes: Vec<u8>,
    /// Offset of the next frame.
    offset: usize,
    /// Sequence number of the last frame read from this segment.
    last_seq: Option<u64>,
}

/// The frames of a run of segments, in order, one segment file in memory
/// at a time: what the journal reader, the checkpoint index and
/// compaction all read the store through.
pub(crate) struct Frames {
    segments: std::vec::IntoIter<SegmentSpan>,
    current: Option<OpenSegment>,
}

impl Frames {
    pub(crate) fn new(segments: Vec<SegmentSpan>) -> Self {
        Self {
            segments: segments.into_iter(),
            current: None,
        }
    }

    /// The next frame's body; `None` once every segment is read.
    ///
    /// # Errors
    ///
    /// An unreadable segment, or corruption in data that recovery had
    /// validated (the files were modified underneath the store).
    pub(crate) fn next(&mut self) -> Result<Option<Body<'_>>, StoreError> {
        while self
            .current
            .as_ref()
            .is_none_or(|segment| segment.offset >= segment.bytes.len())
        {
            // Free the finished segment before reading the next one.
            self.current = None;
            let Some(span) = self.segments.next() else {
                return Ok(None);
            };
            let mut bytes =
                fs::read(&span.path).map_err(|e| StoreError::io("read", &span.path, e))?;
            bytes.truncate(span.len as usize);
            self.current = Some(OpenSegment {
                path: span.path,
                bytes,
                offset: span.start,
                last_seq: None,
            });
        }
        let Some(segment) = &mut self.current else {
            return Ok(None);
        };
        let frame = segment::read_frame(&segment.bytes, segment.offset, segment.last_seq).map_err(
            |what| StoreError::Corrupt {
                path: segment.path.clone(),
                what,
            },
        )?;
        // The offset is inside the segment, so there is a frame or an error.
        let Some(frame) = frame else {
            return Ok(None);
        };
        segment.offset = frame.end as usize;
        segment.last_seq = Some(frame.body.last_seq());
        Ok(Some(frame.body))
    }
}

/// A streaming pass over the records a [`ReplayFilter`] keeps. Yields
/// `Err` once, for an unreadable segment or for corruption in data that
/// recovery had validated (the files were modified underneath the store),
/// and nothing after it.
pub struct JournalReader {
    filter: ReplayFilter,
    /// The frames left to read; emptied by an error.
    frames: Frames,
    /// Kept records of the last frame read, not yet yielded.
    pending: VecDeque<Record>,
}

impl std::fmt::Debug for JournalReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalReader")
            .field("filter", &self.filter)
            .field("segments_left", &self.frames.segments.len())
            .finish()
    }
}

impl JournalReader {
    pub(crate) fn new(filter: ReplayFilter, segments: Vec<SegmentSpan>) -> Self {
        Self {
            filter,
            frames: Frames::new(segments),
            pending: VecDeque::new(),
        }
    }
}

impl Iterator for JournalReader {
    type Item = Result<Record, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(record) = self.pending.pop_front() {
                return Some(Ok(record));
            }
            match self.frames.next() {
                Ok(Some(body)) => self.filter.keep_from(&body, &mut self.pending),
                Ok(None) => return None,
                Err(err) => {
                    self.frames = Frames::new(Vec::new());
                    return Some(Err(err));
                }
            }
        }
    }
}
