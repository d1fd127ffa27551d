//! Record bodies: the byte layout of the two things the store persists —
//! error events and monitor checkpoints — plus the device key both are
//! filed under.
//!
//! The event layout is the *same* fixed 26-byte record the serving
//! daemon's wire protocol uses ([`EVENT_WIRE_LEN`]); `cordial-served`
//! re-exports [`encode_event_record`]/[`decode_event_record`] so the two
//! formats can never drift apart. A journaled batch is therefore
//! byte-identical to the batch that arrived on the wire, which is what
//! makes journal replay bit-exact.
//!
//! A record body (the part covered by the segment frame's CRC) is:
//!
//! ```text
//! kind u8 | seq u64le | kind-specific payload
//! ```
//!
//! * kind `3` (event batch): `n >= 1` 26-byte event records back to
//!   back; `seq` is the first event's sequence number and event `i`
//!   carries `seq + i`. The count is the payload length over 26. Every
//!   [`crate::Store::append_events`] call and every compaction writes
//!   events this way, so one frame (one length word, one CRC) covers a
//!   whole wire batch and recovery keeps or cuts it whole.
//! * kind `2` (checkpoint): device key (8 bytes) | journal_seq u64le |
//!   UTF-8 JSON checkpoint payload (schema-agnostic: the payload carries
//!   its own version, checked by whoever decodes it).
//! * kind `1` (event): one 26-byte event record. Stores written before
//!   event batches framed every event this way; they still open and
//!   replay, but nothing writes this kind any more.
//!
//! Whatever the kind, a body decodes to per-event [`Record`]s: replay
//! never shows how events were framed.

use std::fmt;

use cordial_mcelog::{ErrorEvent, ErrorType, Timestamp};
use cordial_topology::{
    BankAddress, BankGroup, BankIndex, Channel, ColId, HbmSocket, NodeId, NpuId, PseudoChannel,
    RowId, StackId,
};

/// Encoded size of one [`ErrorEvent`] record (identical to the wire
/// format's record size).
pub const EVENT_WIRE_LEN: usize = 26;

/// Kind byte of a single-event record body (read only; see the module
/// docs).
pub const KIND_EVENT: u8 = 1;

/// Kind byte of a checkpoint record body.
pub const KIND_CHECKPOINT: u8 = 2;

/// Kind byte of an event-batch record body.
pub const KIND_EVENT_BATCH: u8 = 3;

/// Bytes every body starts with: the kind byte and a sequence number.
pub const BODY_PREFIX_LEN: usize = 1 + 8;

/// Bytes a checkpoint body holds besides its payload.
pub(crate) const CHECKPOINT_OVERHEAD: usize = BODY_PREFIX_LEN + 8 + 8;

/// The device a stored record belongs to: one HBM socket on one NPU of
/// one node — the granularity the fleet supervisor shards monitors by.
///
/// The store sits *below* `cordial-fleet` in the dependency graph (the
/// supervisor rebuilds monitors from it), so it carries its own key type
/// rather than `cordial_fleet::DeviceId`; the fields and rendering match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceKey {
    /// Compute-node index.
    pub node: u32,
    /// NPU package on the node.
    pub npu: u8,
    /// HBM socket on the NPU.
    pub hbm: u8,
}

impl DeviceKey {
    /// The device an event belongs to, from its bank address.
    pub fn of_event(event: &ErrorEvent) -> Self {
        let bank = event.addr.bank;
        Self {
            node: bank.node.index(),
            npu: bank.npu.index(),
            hbm: bank.hbm.index(),
        }
    }

    /// Packs the key into its fixed 8-byte record form.
    pub(crate) fn pack(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..4].copy_from_slice(&self.node.to_le_bytes());
        out[4] = self.npu;
        out[5] = self.hbm;
        out
    }

    /// Unpacks a key packed by [`DeviceKey::pack`] (padding ignored).
    pub(crate) fn unpack(bytes: &[u8]) -> Self {
        Self {
            node: u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            npu: bytes[4],
            hbm: bytes[5],
        }
    }
}

impl fmt::Display for DeviceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}/npu{}/hbm{}", self.node, self.npu, self.hbm)
    }
}

/// Why a record body failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The body is shorter than its kind requires.
    Truncated,
    /// The kind byte maps to no known record type.
    UnknownKind(u8),
    /// An event record carries an unknown error-type byte.
    UnknownErrorType(u8),
    /// A checkpoint payload is not UTF-8.
    NonUtf8Payload,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record body truncated"),
            RecordError::UnknownKind(k) => write!(f, "unknown record kind {k:#04x}"),
            RecordError::UnknownErrorType(b) => write!(f, "unknown error-type byte {b}"),
            RecordError::NonUtf8Payload => write!(f, "checkpoint payload is not UTF-8"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One persisted record, as appended and as replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// One ingested error event, journaled in admission order.
    Event {
        /// Store-wide sequence number (strictly increasing).
        seq: u64,
        /// The event, bit-identical to its wire form.
        event: ErrorEvent,
    },
    /// A monitor checkpoint for one device.
    Checkpoint {
        /// Store-wide sequence number (strictly increasing).
        seq: u64,
        /// The device the checkpoint belongs to.
        device: DeviceKey,
        /// The journal sequence the checkpoint covers: every event with
        /// `seq <= journal_seq` for this device is already folded into
        /// the checkpointed state, so replay starts *after* it.
        journal_seq: u64,
        /// Schema-agnostic JSON checkpoint payload; the store never
        /// decodes it.
        payload: String,
    },
}

impl Record {
    /// The record's store-wide sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Record::Event { seq, .. } | Record::Checkpoint { seq, .. } => *seq,
        }
    }

    /// The device the record is filed under.
    pub fn device(&self) -> DeviceKey {
        match self {
            Record::Event { event, .. } => DeviceKey::of_event(event),
            Record::Checkpoint { device, .. } => *device,
        }
    }

    /// The event timestamp in milliseconds (`None` for checkpoints,
    /// which carry a journal position instead of a wall-clock time).
    pub fn time_ms(&self) -> Option<u64> {
        match self {
            Record::Event { event, .. } => Some(event.time.as_millis()),
            Record::Checkpoint { .. } => None,
        }
    }
}

/// Serialises one event into its fixed-width record form, appending to
/// `out`. Staged through one stack array so the hot journal loop costs a
/// single bounds-checked append per event.
pub fn encode_event_record(event: &ErrorEvent, out: &mut Vec<u8>) {
    let bank = event.addr.bank;
    let mut record = [0u8; EVENT_WIRE_LEN];
    record[0..4].copy_from_slice(&bank.node.index().to_le_bytes());
    record[4] = bank.npu.index();
    record[5] = bank.hbm.index();
    record[6] = bank.sid.index();
    record[7] = bank.channel.index();
    record[8] = bank.pseudo_channel.index();
    record[9] = bank.bank_group.index();
    record[10] = bank.bank.index();
    record[11..15].copy_from_slice(&event.addr.row.index().to_le_bytes());
    record[15..17].copy_from_slice(&event.addr.col.index().to_le_bytes());
    record[17..25].copy_from_slice(&event.time.as_millis().to_le_bytes());
    record[25] = match event.error_type {
        ErrorType::Ce => 0,
        ErrorType::Ueo => 1,
        ErrorType::Uer => 2,
    };
    out.extend_from_slice(&record);
}

/// The severity an event record's last byte encodes.
fn error_type_of(byte: u8) -> Result<ErrorType, RecordError> {
    match byte {
        0 => Ok(ErrorType::Ce),
        1 => Ok(ErrorType::Ueo),
        2 => Ok(ErrorType::Uer),
        other => Err(RecordError::UnknownErrorType(other)),
    }
}

/// Parses one fixed-width event record.
pub fn decode_event_record(bytes: &[u8]) -> Result<ErrorEvent, RecordError> {
    if bytes.len() < EVENT_WIRE_LEN {
        return Err(RecordError::Truncated);
    }
    let node = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let bank = BankAddress::new(
        NodeId(node),
        NpuId(bytes[4]),
        HbmSocket(bytes[5]),
        StackId(bytes[6]),
        Channel(bytes[7]),
        PseudoChannel(bytes[8]),
        BankGroup(bytes[9]),
        BankIndex(bytes[10]),
    );
    let row = u32::from_le_bytes([bytes[11], bytes[12], bytes[13], bytes[14]]);
    let col = u16::from_le_bytes([bytes[15], bytes[16]]);
    let time = u64::from_le_bytes([
        bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23], bytes[24],
    ]);
    let error_type = error_type_of(bytes[25])?;
    Ok(ErrorEvent::new(
        bank.cell(RowId(row), ColId(col)),
        Timestamp::from_millis(time),
        error_type,
    ))
}

/// Appends a kind-3 body holding `events`, the first carrying sequence
/// number `first_seq`. The caller keeps the body under the frame cap.
pub(crate) fn encode_event_batch(first_seq: u64, events: &[ErrorEvent], out: &mut Vec<u8>) {
    out.push(KIND_EVENT_BATCH);
    out.extend_from_slice(&first_seq.to_le_bytes());
    for event in events {
        encode_event_record(event, out);
    }
}

/// Appends a checkpoint body.
pub(crate) fn encode_checkpoint(
    seq: u64,
    device: DeviceKey,
    journal_seq: u64,
    payload: &str,
    out: &mut Vec<u8>,
) {
    out.push(KIND_CHECKPOINT);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&device.pack());
    out.extend_from_slice(&journal_seq.to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// One decoded record body, borrowing from the segment bytes: what a
/// single frame holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Body<'a> {
    /// Consecutive events (kind 1 holds one, kind 3 a batch) as raw
    /// 26-byte records, every one already validated by [`decode_body`].
    Events {
        /// Sequence number of the first event.
        first_seq: u64,
        /// The event records, back to back.
        records: &'a [u8],
    },
    /// A monitor checkpoint.
    Checkpoint {
        /// Store-wide sequence number.
        seq: u64,
        /// The device the checkpoint belongs to.
        device: DeviceKey,
        /// The journal position the checkpoint covers.
        journal_seq: u64,
        /// The JSON payload.
        payload: &'a str,
    },
}

impl Body<'_> {
    /// Sequence number of the body's first record.
    pub(crate) fn first_seq(&self) -> u64 {
        match self {
            Body::Events { first_seq, .. } => *first_seq,
            Body::Checkpoint { seq, .. } => *seq,
        }
    }

    /// Sequence number of the body's last record.
    pub(crate) fn last_seq(&self) -> u64 {
        match self {
            Body::Events { first_seq, records } => {
                first_seq + (records.len() / EVENT_WIRE_LEN) as u64 - 1
            }
            Body::Checkpoint { seq, .. } => *seq,
        }
    }

    /// Timestamps (ms) of the body's events, read straight from their
    /// records; empty for a checkpoint.
    pub(crate) fn event_times(&self) -> impl Iterator<Item = u64> + '_ {
        let records: &[u8] = match self {
            Body::Events { records, .. } => records,
            Body::Checkpoint { .. } => &[],
        };
        records.chunks_exact(EVENT_WIRE_LEN).map(|record| {
            u64::from_le_bytes([
                record[17], record[18], record[19], record[20], record[21], record[22], record[23],
                record[24],
            ])
        })
    }

    /// Appends the body re-encoded for writing: events always as one
    /// event batch, whichever kind they were read from.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Body::Events { first_seq, records } => {
                out.push(KIND_EVENT_BATCH);
                out.extend_from_slice(&first_seq.to_le_bytes());
                out.extend_from_slice(records);
            }
            Body::Checkpoint {
                seq,
                device,
                journal_seq,
                payload,
            } => encode_checkpoint(seq, device, journal_seq, payload, out),
        }
    }

    /// The body's per-event (or checkpoint) records.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record> + '_ {
        let (events, checkpoint) = match *self {
            Body::Events { first_seq, records } => (
                Some(records.chunks_exact(EVENT_WIRE_LEN).zip(first_seq..)),
                None,
            ),
            Body::Checkpoint {
                seq,
                device,
                journal_seq,
                payload,
            } => (
                None,
                Some(Record::Checkpoint {
                    seq,
                    device,
                    journal_seq,
                    payload: payload.to_owned(),
                }),
            ),
        };
        // `decode_body` validated every record, so none is dropped.
        events
            .into_iter()
            .flatten()
            .filter_map(|(record, seq)| {
                let event = decode_event_record(record).ok()?;
                Some(Record::Event { seq, event })
            })
            .chain(checkpoint)
    }
}

/// Parses a record body of any kind, validating every event record it
/// holds so that [`Body::records`] drops none later.
pub(crate) fn decode_body(bytes: &[u8]) -> Result<Body<'_>, RecordError> {
    if bytes.len() < BODY_PREFIX_LEN {
        return Err(RecordError::Truncated);
    }
    let kind = bytes[0];
    let seq = u64::from_le_bytes([
        bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7], bytes[8],
    ]);
    let rest = &bytes[BODY_PREFIX_LEN..];
    match kind {
        KIND_EVENT | KIND_EVENT_BATCH => {
            let whole = if kind == KIND_EVENT {
                rest.len() == EVENT_WIRE_LEN
            } else {
                !rest.is_empty() && rest.len().is_multiple_of(EVENT_WIRE_LEN)
            };
            if !whole {
                return Err(RecordError::Truncated);
            }
            for record in rest.chunks_exact(EVENT_WIRE_LEN) {
                error_type_of(record[EVENT_WIRE_LEN - 1])?;
            }
            Ok(Body::Events {
                first_seq: seq,
                records: rest,
            })
        }
        KIND_CHECKPOINT => {
            if rest.len() < 16 {
                return Err(RecordError::Truncated);
            }
            let device = DeviceKey::unpack(&rest[0..8]);
            let journal_seq = u64::from_le_bytes([
                rest[8], rest[9], rest[10], rest[11], rest[12], rest[13], rest[14], rest[15],
            ]);
            let payload =
                std::str::from_utf8(&rest[16..]).map_err(|_| RecordError::NonUtf8Payload)?;
            Ok(Body::Checkpoint {
                seq,
                device,
                journal_seq,
                payload,
            })
        }
        other => Err(RecordError::UnknownKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_event(seed: u64) -> ErrorEvent {
        let bank = BankAddress::new(
            NodeId(seed as u32 & 0xFFFF),
            NpuId((seed >> 3) as u8 & 7),
            HbmSocket((seed >> 1) as u8 & 1),
            StackId(seed as u8 & 1),
            Channel((seed >> 2) as u8 & 7),
            PseudoChannel(seed as u8 & 1),
            BankGroup((seed >> 4) as u8 & 3),
            BankIndex((seed >> 6) as u8 & 3),
        );
        ErrorEvent::new(
            bank.cell(RowId((seed >> 8) as u32), ColId((seed >> 16) as u16)),
            Timestamp::from_millis(seed.wrapping_mul(31)),
            match seed % 3 {
                0 => ErrorType::Ce,
                1 => ErrorType::Ueo,
                _ => ErrorType::Uer,
            },
        )
    }

    fn records_of(body: &[u8]) -> Vec<Record> {
        decode_body(body).unwrap().records().collect()
    }

    #[test]
    fn event_batch_bodies_round_trip() {
        let events: Vec<ErrorEvent> = [0u64, 1, 42, 0xFFFF_FFFF, u64::MAX / 31]
            .into_iter()
            .map(sample_event)
            .collect();
        for n in 1..=events.len() {
            let mut body = Vec::new();
            encode_event_batch(7, &events[..n], &mut body);
            assert_eq!(body.len(), BODY_PREFIX_LEN + n * EVENT_WIRE_LEN);
            let decoded = decode_body(&body).unwrap();
            assert_eq!((decoded.first_seq(), decoded.last_seq()), (7, 6 + n as u64));
            let times: Vec<u64> = decoded.event_times().collect();
            let want: Vec<u64> = events[..n].iter().map(|e| e.time.as_millis()).collect();
            assert_eq!(times, want);
            let records: Vec<Record> = (7..)
                .zip(&events[..n])
                .map(|(seq, event)| Record::Event { seq, event: *event })
                .collect();
            assert_eq!(records_of(&body), records);
        }
    }

    #[test]
    fn single_event_bodies_still_decode() {
        // The kind-1 layout: kind | seq | one event record.
        let event = sample_event(42);
        let mut body = vec![KIND_EVENT];
        body.extend_from_slice(&9u64.to_le_bytes());
        encode_event_record(&event, &mut body);
        assert_eq!(records_of(&body), vec![Record::Event { seq: 9, event }]);
        // A kind-1 body holds exactly one record.
        encode_event_record(&event, &mut body);
        assert_eq!(decode_body(&body), Err(RecordError::Truncated));
    }

    #[test]
    fn checkpoint_bodies_round_trip() {
        let device = DeviceKey {
            node: 7,
            npu: 3,
            hbm: 1,
        };
        let mut body = Vec::new();
        let payload = "{\"schema_version\":1}";
        encode_checkpoint(99, device, 42, payload, &mut body);
        assert_eq!(body.len(), CHECKPOINT_OVERHEAD + payload.len());
        assert_eq!(
            records_of(&body),
            vec![Record::Checkpoint {
                seq: 99,
                device,
                journal_seq: 42,
                payload: payload.to_string(),
            }]
        );
    }

    #[test]
    fn truncated_and_garbage_bodies_are_rejected() {
        let mut body = Vec::new();
        encode_event_batch(1, &[sample_event(5), sample_event(6)], &mut body);
        for cut in 0..body.len() {
            // Only the frame CRC can tell a batch cut on a record
            // boundary from a shorter batch.
            let whole =
                cut > BODY_PREFIX_LEN && (cut - BODY_PREFIX_LEN).is_multiple_of(EVENT_WIRE_LEN);
            assert_eq!(
                decode_body(&body[..cut]).is_ok(),
                whole,
                "prefix of {cut} bytes"
            );
        }
        let mut bad_kind = body.clone();
        bad_kind[0] = 0x7F;
        assert_eq!(decode_body(&bad_kind), Err(RecordError::UnknownKind(0x7F)));
        // A bad severity byte in any record of the batch rejects the body.
        let mut bad_type = body;
        bad_type[BODY_PREFIX_LEN + EVENT_WIRE_LEN - 1] = 9;
        assert_eq!(
            decode_body(&bad_type),
            Err(RecordError::UnknownErrorType(9))
        );
    }

    #[test]
    fn store_keys_match_fleet_rendering_and_pack() {
        let key = DeviceKey {
            node: 258,
            npu: 5,
            hbm: 1,
        };
        assert_eq!(key.to_string(), "node258/npu5/hbm1");
        assert_eq!(DeviceKey::unpack(&key.pack()), key);
        let event = sample_event(0x0102_0304);
        let of = DeviceKey::of_event(&event);
        assert_eq!(of.node, event.addr.bank.node.index());
    }
}
