//! Segment file layout and the recovery scanner.
//!
//! A segment is an append-only file of CRC-framed records behind a fixed
//! 32-byte header:
//!
//! ```text
//! +-----------+-----------+----------+----------+------------+---------+
//! | magic 8 B | format u32| reserved | base_seq | header_crc | pad u32 |
//! | "CRDLSTO1"| le        | u32 le   | u64 le   | u32 le     |         |
//! +-----------+-----------+----------+----------+------------+---------+
//! ```
//!
//! `header_crc` covers bytes `0..24`, so a crash mid-header-write is
//! detected rather than misread. Each record frame is:
//!
//! ```text
//! len u32 le | crc u32 le (of body) | body (len bytes, see crate::record)
//! ```
//!
//! One frame holds one body, and an event-batch body holds every event of
//! one append, so recovery keeps or cuts a batch whole. Bodies never
//! exceed [`MAX_BODY`]: appends refuse a larger checkpoint and spread a
//! larger event slice over several frames, because the scanner reads a
//! longer length word as corruption.
//!
//! [`read_frame`] is the single frame decoder recovery, checkpoint scans
//! and the journal reader go through; [`scan_frames`] walks frames with it
//! from the header onward and stops at the **first** violation — short frame header, impossible length, CRC
//! mismatch, malformed body, or non-increasing sequence number — reporting
//! the clean prefix length so the caller can truncate there. Sequence
//! numbers must be strictly increasing but need *not* be contiguous:
//! compaction leaves gaps.

use crate::crc::crc32;
use crate::record::{decode_body, Body, BODY_PREFIX_LEN, EVENT_WIRE_LEN};

/// First eight bytes of every segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"CRDLSTO1";

/// Segment format revision; bumped on any layout change.
pub(crate) const SEGMENT_FORMAT: u32 = 1;

/// Fixed segment-header size in bytes.
pub(crate) const SEGMENT_HEADER_LEN: usize = 32;

/// Per-record frame overhead (length + CRC words).
pub(crate) const FRAME_OVERHEAD: usize = 8;

/// Upper bound on one record body (16 MiB — matches the wire protocol's
/// payload cap). Larger declared lengths are treated as corruption.
pub(crate) const MAX_BODY: u32 = 16 * 1024 * 1024;

/// Most events one event-batch body holds under [`MAX_BODY`].
pub(crate) const MAX_BATCH_EVENTS: usize = (MAX_BODY as usize - BODY_PREFIX_LEN) / EVENT_WIRE_LEN;

/// Builds a segment header for a segment whose first record will carry
/// sequence number `base_seq`.
pub(crate) fn encode_header(base_seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[0..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&SEGMENT_FORMAT.to_le_bytes());
    // bytes 12..16 reserved, zero.
    out[16..24].copy_from_slice(&base_seq.to_le_bytes());
    let crc = crc32(&out[0..24]);
    out[24..28].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a segment header, returning its `base_seq`. `None` means
/// the header is torn, corrupt, or from an alien format.
pub(crate) fn decode_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return None;
    }
    if bytes[0..8] != SEGMENT_MAGIC {
        return None;
    }
    let format = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if format != SEGMENT_FORMAT {
        return None;
    }
    let declared = u32::from_le_bytes([bytes[24], bytes[25], bytes[26], bytes[27]]);
    if crc32(&bytes[0..24]) != declared {
        return None;
    }
    Some(u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]))
}

/// Frames the body `write` appends to `out`: the length and CRC words
/// are reserved first and patched once the body is in place, so the body
/// is built in the output buffer and never copied. Callers keep the body
/// within [`MAX_BODY`].
pub(crate) fn encode_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    write(out);
    let body = &out[start + FRAME_OVERHEAD..];
    debug_assert!(body.len() <= MAX_BODY as usize, "record body over cap");
    let len = (body.len() as u32).to_le_bytes();
    let crc = crc32(body).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + FRAME_OVERHEAD].copy_from_slice(&crc);
}

/// One frame recovered by [`scan_frames`], its body borrowing from the
/// scanned bytes.
#[derive(Debug, Clone)]
pub(crate) struct ScannedFrame<'a> {
    /// Offset of the frame's length word within the segment file.
    pub offset: u64,
    /// Offset just past the frame's body.
    pub end: u64,
    /// The decoded body.
    pub body: Body<'a>,
}

/// Result of scanning a segment's record area.
#[derive(Debug, Clone)]
pub(crate) struct Scan<'a> {
    /// Every frame of the clean prefix, in file order.
    pub frames: Vec<ScannedFrame<'a>>,
    /// Length of the clean prefix in bytes (header included): the offset
    /// a recovering store truncates the file to.
    pub valid_len: u64,
    /// Why the scan stopped early (`None` when the whole file is clean).
    pub corruption: Option<String>,
}

/// Decodes the frame starting at byte `offset` of a segment file: `Ok(None)`
/// exactly at the end of `bytes`, `Err` describing the first violation
/// otherwise. `last_seq` is the highest sequence number before the frame;
/// the frame must start above it.
pub(crate) fn read_frame(
    bytes: &[u8],
    offset: usize,
    last_seq: Option<u64>,
) -> Result<Option<ScannedFrame<'_>>, String> {
    if offset == bytes.len() {
        return Ok(None);
    }
    if offset + FRAME_OVERHEAD > bytes.len() {
        return Err(format!("torn frame header at offset {offset}"));
    }
    let len = u32::from_le_bytes([
        bytes[offset],
        bytes[offset + 1],
        bytes[offset + 2],
        bytes[offset + 3],
    ]);
    if len > MAX_BODY {
        return Err(format!("impossible body length {len} at offset {offset}"));
    }
    let declared_crc = u32::from_le_bytes([
        bytes[offset + 4],
        bytes[offset + 5],
        bytes[offset + 6],
        bytes[offset + 7],
    ]);
    let body_start = offset + FRAME_OVERHEAD;
    let Some(body_end) = body_start.checked_add(len as usize) else {
        return Err(format!("body length overflow at offset {offset}"));
    };
    if body_end > bytes.len() {
        return Err(format!("torn record body at offset {offset}"));
    }
    let body = &bytes[body_start..body_end];
    if crc32(body) != declared_crc {
        return Err(format!("crc mismatch at offset {offset}"));
    }
    let body =
        decode_body(body).map_err(|err| format!("malformed body at offset {offset}: {err}"))?;
    if let Some(last) = last_seq {
        if body.first_seq() <= last {
            return Err(format!(
                "sequence went backwards at offset {offset}: {} after {last}",
                body.first_seq()
            ));
        }
    }
    Ok(Some(ScannedFrame {
        offset: offset as u64,
        end: body_end as u64,
        body,
    }))
}

/// Walks the record frames of a segment file (header already validated)
/// from the header's end, stopping at the first torn or corrupt frame.
/// `last_seq` is the highest sequence number seen in earlier segments,
/// enforcing store-wide strict monotonicity across segment boundaries.
pub(crate) fn scan_frames(bytes: &[u8], mut last_seq: Option<u64>) -> Scan<'_> {
    let mut frames = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    let corruption = loop {
        match read_frame(bytes, offset, last_seq) {
            Ok(None) => break None,
            Ok(Some(frame)) => {
                last_seq = Some(frame.body.last_seq());
                offset = frame.end as usize;
                frames.push(frame);
            }
            Err(what) => break Some(what),
        }
    };
    Scan {
        frames,
        valid_len: offset as u64,
        corruption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_checkpoint, encode_event_batch, Record};
    use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
    use cordial_topology::{
        BankAddress, BankGroup, BankIndex, Channel, ColId, DeviceId, HbmSocket, NodeId, NpuId,
        PseudoChannel, RowId, StackId,
    };

    fn sample_event(seed: u64) -> ErrorEvent {
        let bank = BankAddress::new(
            NodeId(seed as u32 & 0xFF),
            NpuId(seed as u8 & 7),
            HbmSocket(0),
            StackId(0),
            Channel(0),
            PseudoChannel(0),
            BankGroup(0),
            BankIndex(0),
        );
        ErrorEvent::new(
            bank.cell(RowId(seed as u32), ColId(0)),
            Timestamp::from_millis(seed * 10),
            ErrorType::Ce,
        )
    }

    /// Appends one frame starting at `seq`: an even `seq` frames a batch
    /// of `seq % 4 + 1` events, an odd one a checkpoint.
    fn push_frame(seq: u64, bytes: &mut Vec<u8>) {
        if seq.is_multiple_of(2) {
            let events: Vec<ErrorEvent> = (seq..=seq + seq % 4).map(sample_event).collect();
            encode_frame(bytes, |out| encode_event_batch(seq, &events, out));
        } else {
            let device = DeviceId {
                node: NodeId(1),
                npu: NpuId(0),
                hbm: HbmSocket(0),
            };
            encode_frame(bytes, |out| {
                encode_checkpoint(seq, device, seq.saturating_sub(1), "{}", out);
            });
        }
    }

    /// A segment of one frame per starting sequence number in `seqs`.
    fn sample_segment(seqs: &[u64]) -> Vec<u8> {
        let mut bytes = encode_header(seqs.first().copied().unwrap_or(0)).to_vec();
        for &seq in seqs {
            push_frame(seq, &mut bytes);
        }
        bytes
    }

    fn records(scan: &Scan<'_>) -> Vec<Record> {
        scan.frames.iter().flat_map(|f| f.body.records()).collect()
    }

    #[test]
    fn headers_round_trip_and_reject_bit_flips() {
        let header = encode_header(42);
        assert_eq!(decode_header(&header), Some(42));
        for byte in 0..24 {
            let mut bad = header;
            bad[byte] ^= 0x10;
            assert_eq!(decode_header(&bad), None, "flip in byte {byte} undetected");
        }
        assert_eq!(decode_header(&header[..31]), None);
    }

    #[test]
    fn clean_segments_scan_fully() {
        // Batches of 1 (seq 0) and 3 (seq 2, 3, 4) events between
        // checkpoints.
        let bytes = sample_segment(&[0, 1, 2, 5, 9]);
        let scan = scan_frames(&bytes, None);
        assert_eq!(scan.corruption, None);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        let firsts: Vec<u64> = scan.frames.iter().map(|f| f.body.first_seq()).collect();
        assert_eq!(firsts, vec![0, 1, 2, 5, 9]);
        let seqs: Vec<u64> = records(&scan).iter().map(Record::seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5, 9]);
        for pair in scan.frames.windows(2) {
            assert_eq!(pair[0].end, pair[1].offset);
        }
    }

    #[test]
    fn every_truncation_point_yields_a_clean_prefix() {
        let bytes = sample_segment(&[0, 1, 2, 5]);
        let full = scan_frames(&bytes, None);
        // A cut exactly on a frame boundary leaves a clean (shorter) file;
        // anywhere else must report a tear and keep only whole frames.
        let boundaries: Vec<usize> = full
            .frames
            .iter()
            .map(|f| f.offset as usize)
            .chain([bytes.len()])
            .collect();
        for cut in SEGMENT_HEADER_LEN..bytes.len() {
            let scan = scan_frames(&bytes[..cut], None);
            assert!(scan.valid_len as usize <= cut);
            let whole = full.frames.iter().filter(|f| f.end as usize <= cut).count();
            assert_eq!(scan.frames.len(), whole, "cut at {cut}");
            for (got, want) in scan.frames.iter().zip(&full.frames) {
                assert_eq!(got.body, want.body);
            }
            if boundaries.contains(&cut) {
                assert!(scan.corruption.is_none(), "cut at boundary {cut} is clean");
                assert_eq!(scan.valid_len as usize, cut);
            } else {
                assert!(scan.corruption.is_some(), "cut at {cut} must report a tear");
            }
        }
    }

    #[test]
    fn corrupted_bytes_stop_the_scan_at_the_previous_frame() {
        let bytes = sample_segment(&[0, 1, 2]);
        let full = scan_frames(&bytes, None);
        let second_frame_offset = full.frames[1].offset as usize;
        let mut corrupted = bytes.clone();
        corrupted[second_frame_offset + FRAME_OVERHEAD + 3] ^= 0xFF;
        let scan = scan_frames(&corrupted, None);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, full.frames[1].offset);
        assert!(scan.corruption.is_some());
    }

    #[test]
    fn non_monotonic_sequences_are_corruption() {
        // A batch at seq 4 covers seqs 4..=4; one at 2 covers 2..=4.
        let mut bytes = sample_segment(&[2]);
        // A frame starting inside the previous batch must stop the scan.
        push_frame(4, &mut bytes);
        let scan = scan_frames(&bytes, None);
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.corruption.is_some());
        // And a lower bound from an earlier segment is enforced too.
        let bytes = sample_segment(&[6]);
        let scan = scan_frames(&bytes, Some(7));
        assert_eq!(scan.frames.len(), 0);
        assert!(scan.corruption.is_some());
    }
}
