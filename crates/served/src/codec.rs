//! Pure wire codec for the cordial-served protocol.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! +-------+---------+------+----------------+-------------+==========+
//! | magic | version | kind | payload_len u32 | crc32 u32  | payload  |
//! | 2 B   | 1 B     | 1 B  | little-endian   | of payload | len B    |
//! +-------+---------+------+----------------+-------------+==========+
//! ```
//!
//! The module is deliberately free of I/O and server state — encode takes a
//! [`Frame`], decode takes a byte slice — so cordial-chaos can fuzz it with
//! corrupted, truncated and duplicated buffers without standing up a
//! daemon. Decode distinguishes three failure regimes:
//!
//! * [`Decoded::Incomplete`] — more bytes may still arrive; keep reading.
//! * [`Decoded::Bad`] — the header framed a payload but its content is
//!   unusable (CRC mismatch, unknown kind, malformed body). The frame
//!   boundary is still trustworthy, so the connection can skip exactly
//!   `consumed` bytes, answer with [`Frame::Error`] and keep going.
//! * [`Decoded::Fatal`] — the stream itself is garbage (bad magic, alien
//!   version, oversized payload): resynchronisation is impossible and the
//!   connection must be dropped.
//!
//! Events ride the wire as fixed [`EVENT_WIRE_LEN`]-byte records (all eight
//! bank-address components, row, column, millisecond timestamp, severity),
//! so an `IngestBatch` payload length is always a multiple of the record
//! size and batch counts never need a separate length field.

use std::fmt;

use cordial_mcelog::ErrorEvent;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Re-exported from `cordial-store`: the wire protocol and the durable
/// journal share one checksum (carry-less multiply where the CPU has it,
/// slicing-by-8 elsewhere, with one output), so a journaled record is
/// protected by exactly the arithmetic that protected it on the wire.
pub use cordial_store::crc32;

/// Encoded size of one [`ErrorEvent`] record.
///
/// Re-exported from `cordial-store`: the journal persists admitted
/// batches in this same fixed layout, bit-for-bit.
pub use cordial_store::EVENT_WIRE_LEN;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = [0xC0, 0x7D];

/// Protocol revision this build speaks; bumped on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a payload the daemon will buffer (16 MiB). Larger
/// lengths are treated as stream corruption, not a big frame.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// One protocol message, request (`0x0*`) or response (`0x8*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: a batch of error events to ingest.
    IngestBatch(Vec<ErrorEvent>),
    /// Client → server: aggregate monitor statistics.
    StatsQuery,
    /// Client → server: daemon liveness/queue health.
    HealthQuery,
    /// Client → server: mitigation plans emitted so far.
    PlanQuery,
    /// Client → server: drain, checkpoint and exit.
    Shutdown,
    /// Client → server: liveness probe.
    Ping,
    /// Server → client: the batch was accepted (`accepted` events queued).
    BatchAck {
        /// Number of events admitted to shard queues.
        accepted: u32,
    },
    /// Server → client: a shard queue is full; retry the batch later.
    RetryAfter {
        /// Shard whose queue rejected the batch.
        shard: u16,
        /// Suggested client back-off before resending.
        ms: u32,
    },
    /// Server → client: JSON-encoded aggregate statistics.
    Stats(String),
    /// Server → client: JSON-encoded daemon health.
    Health(String),
    /// Server → client: JSON-encoded mitigation-plan records.
    Plans(String),
    /// Server → client: shutdown acknowledged; the daemon is draining.
    ShuttingDown,
    /// Server → client: liveness reply.
    Pong,
    /// Server → client: the previous frame was rejected (human-readable
    /// reason).
    Error(String),
}

impl Frame {
    /// The kind byte written into this frame's header.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::IngestBatch(_) => 0x01,
            Frame::StatsQuery => 0x02,
            Frame::HealthQuery => 0x03,
            Frame::PlanQuery => 0x04,
            Frame::Shutdown => 0x05,
            Frame::Ping => 0x06,
            Frame::BatchAck { .. } => 0x81,
            Frame::RetryAfter { .. } => 0x82,
            Frame::Stats(_) => 0x83,
            Frame::Health(_) => 0x84,
            Frame::Plans(_) => 0x85,
            Frame::ShuttingDown => 0x86,
            Frame::Pong => 0x87,
            Frame::Error(_) => 0x88,
        }
    }
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// The version byte names a protocol revision this build cannot parse.
    UnsupportedVersion(u8),
    /// The kind byte maps to no known frame.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// The payload checksum does not match the header's CRC.
    CrcMismatch,
    /// The payload is shorter than its frame kind requires.
    Truncated,
    /// The payload is structurally invalid for its frame kind.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            DecodeError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds cap"),
            DecodeError::CrcMismatch => write!(f, "payload crc mismatch"),
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result of attempting to decode one frame from the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// The buffer holds a prefix of a frame; read more bytes.
    Incomplete,
    /// A whole frame, and how many bytes it occupied.
    Frame(Frame, usize),
    /// A delimited but unusable frame: skip the given number of bytes and
    /// keep decoding the same connection.
    Bad(DecodeError, usize),
    /// The stream cannot be resynchronised; drop the connection.
    Fatal(DecodeError),
}

/// Serialises one event into its fixed-width wire record — the store's
/// journal record layout, so journaled batches are bit-identical to what
/// arrived on the wire.
fn encode_event(event: &ErrorEvent, out: &mut Vec<u8>) {
    cordial_store::encode_event_record(event, out);
}

/// Parses one fixed-width event record.
fn decode_event(bytes: &[u8]) -> Result<ErrorEvent, DecodeError> {
    cordial_store::decode_event_record(bytes).map_err(|err| match err {
        cordial_store::RecordError::UnknownErrorType(_) => {
            DecodeError::Malformed("unknown error-type byte")
        }
        _ => DecodeError::Truncated,
    })
}

/// Serialises an `IngestBatch` frame directly from a borrowed event
/// slice. This is the client's hot path: at saturation it must neither
/// clone the batch into a [`Frame`] nor rebuild the payload into a
/// separate buffer — events are encoded straight into the wire buffer
/// and the CRC is patched into the header afterwards. Byte-identical to
/// `encode_frame(&Frame::IngestBatch(..))`.
pub fn encode_ingest_batch(events: &[ErrorEvent]) -> Vec<u8> {
    let payload_len = events.len() * EVENT_WIRE_LEN;
    debug_assert!(payload_len <= MAX_PAYLOAD as usize, "frame over cap");
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(0x01);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    for event in events {
        encode_event(event, &mut out);
    }
    let crc = crc32(&out[HEADER_LEN..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Serialises a frame: header plus payload, ready to write to a socket.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::IngestBatch(events) => {
            payload.reserve(events.len() * EVENT_WIRE_LEN);
            for event in events {
                encode_event(event, &mut payload);
            }
        }
        Frame::BatchAck { accepted } => payload.extend_from_slice(&accepted.to_le_bytes()),
        Frame::RetryAfter { shard, ms } => {
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&ms.to_le_bytes());
        }
        Frame::Stats(json) | Frame::Health(json) | Frame::Plans(json) | Frame::Error(json) => {
            payload.extend_from_slice(json.as_bytes());
        }
        Frame::StatsQuery
        | Frame::HealthQuery
        | Frame::PlanQuery
        | Frame::Shutdown
        | Frame::Ping
        | Frame::ShuttingDown
        | Frame::Pong => {}
    }
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "frame over cap");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a checked payload into its frame.
fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
    match kind {
        0x01 => {
            if !payload.len().is_multiple_of(EVENT_WIRE_LEN) {
                return Err(DecodeError::Malformed("batch not a whole event count"));
            }
            let events = payload
                .chunks_exact(EVENT_WIRE_LEN)
                .map(decode_event)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Frame::IngestBatch(events))
        }
        0x02 => Ok(Frame::StatsQuery),
        0x03 => Ok(Frame::HealthQuery),
        0x04 => Ok(Frame::PlanQuery),
        0x05 => Ok(Frame::Shutdown),
        0x06 => Ok(Frame::Ping),
        0x81 => {
            let bytes: [u8; 4] = payload.try_into().map_err(|_| DecodeError::Truncated)?;
            Ok(Frame::BatchAck {
                accepted: u32::from_le_bytes(bytes),
            })
        }
        0x82 => {
            let bytes: [u8; 6] = payload.try_into().map_err(|_| DecodeError::Truncated)?;
            Ok(Frame::RetryAfter {
                shard: u16::from_le_bytes([bytes[0], bytes[1]]),
                ms: u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
            })
        }
        0x83 | 0x84 | 0x85 | 0x88 => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| DecodeError::Malformed("non-utf8 text payload"))?
                .to_owned();
            Ok(match kind {
                0x83 => Frame::Stats(text),
                0x84 => Frame::Health(text),
                0x85 => Frame::Plans(text),
                _ => Frame::Error(text),
            })
        }
        0x86 => Ok(Frame::ShuttingDown),
        0x87 => Ok(Frame::Pong),
        other => Err(DecodeError::UnknownKind(other)),
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Pure and restartable: callers append received bytes to a buffer, call
/// this in a loop, and drain `consumed` bytes per [`Decoded::Frame`] /
/// [`Decoded::Bad`].
pub fn decode_frame(buf: &[u8]) -> Decoded {
    if buf.len() < HEADER_LEN {
        return Decoded::Incomplete;
    }
    if buf[..2] != MAGIC {
        return Decoded::Fatal(DecodeError::BadMagic);
    }
    if buf[2] != WIRE_VERSION {
        return Decoded::Fatal(DecodeError::UnsupportedVersion(buf[2]));
    }
    let kind = buf[3];
    let payload_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if payload_len > MAX_PAYLOAD {
        // Skipping would mean buffering an attacker-chosen length; treat
        // as corruption instead.
        return Decoded::Fatal(DecodeError::PayloadTooLarge(payload_len));
    }
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Decoded::Incomplete;
    }
    let declared_crc = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let payload = &buf[HEADER_LEN..total];
    if crc32(payload) != declared_crc {
        return Decoded::Bad(DecodeError::CrcMismatch, total);
    }
    match decode_payload(kind, payload) {
        Ok(frame) => Decoded::Frame(frame, total),
        Err(err) => Decoded::Bad(err, total),
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

    fn sample_event(seed: u64) -> ErrorEvent {
        let bank = BankAddress::new(
            NodeId(seed as u32),
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

    #[test]
    fn fast_batch_encoder_is_byte_identical() {
        for len in [0usize, 1, 17, 300] {
            let events: Vec<ErrorEvent> = (0..len as u64).map(sample_event).collect();
            assert_eq!(
                encode_ingest_batch(&events),
                encode_frame(&Frame::IngestBatch(events.clone())),
                "len {len}"
            );
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = [
            Frame::IngestBatch((0..17).map(sample_event).collect()),
            Frame::IngestBatch(Vec::new()),
            Frame::StatsQuery,
            Frame::HealthQuery,
            Frame::PlanQuery,
            Frame::Shutdown,
            Frame::Ping,
            Frame::BatchAck { accepted: 12345 },
            Frame::RetryAfter { shard: 3, ms: 50 },
            Frame::Stats("{\"events\":4}".into()),
            Frame::Health("{}".into()),
            Frame::Plans("[]".into()),
            Frame::ShuttingDown,
            Frame::Pong,
            Frame::Error("bad frame".into()),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            match decode_frame(&bytes) {
                Decoded::Frame(decoded, consumed) => {
                    assert_eq!(decoded, frame);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("{frame:?} failed to round-trip: {other:?}"),
            }
        }
    }

    #[test]
    fn partial_buffers_are_incomplete_not_errors() {
        let bytes = encode_frame(&Frame::IngestBatch(vec![sample_event(9)]));
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]),
                Decoded::Incomplete,
                "prefix of {cut} bytes must ask for more"
            );
        }
    }

    #[test]
    fn corrupted_payload_is_bad_but_delimited() {
        let mut bytes = encode_frame(&Frame::Stats("{\"events\":4}".into()));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(
            decode_frame(&bytes),
            Decoded::Bad(DecodeError::CrcMismatch, bytes.len())
        );
    }

    #[test]
    fn bad_magic_and_version_are_fatal() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[0] = 0x00;
        assert_eq!(decode_frame(&bytes), Decoded::Fatal(DecodeError::BadMagic));
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[2] = 9;
        assert_eq!(
            decode_frame(&bytes),
            Decoded::Fatal(DecodeError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn oversized_payload_declaration_is_fatal() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Decoded::Fatal(DecodeError::PayloadTooLarge(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn unknown_kind_is_skippable() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[3] = 0x7F;
        assert_eq!(
            decode_frame(&bytes),
            Decoded::Bad(DecodeError::UnknownKind(0x7F), bytes.len())
        );
    }
}
