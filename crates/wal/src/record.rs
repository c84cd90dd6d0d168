//! Record payloads and the frame codec.
//!
//! Records use a hand-rolled little-endian encoding (tag byte + fixed
//! ints + length-prefixed byte strings) rather than JSON: the admission
//! payload already *is* opaque serialized bytes from the serving layer,
//! and checkpoint bodies are `scratch-snap` binary — wrapping either in a
//! text codec would only double the write volume on the hot path.

use crate::{crc32_bytes, WalError};

/// Bytes of frame header preceding every payload: `len` + `crc`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Plausibility bound on one frame's payload. Checkpoints of the largest
/// legal system state and the biggest accepted submission line both fit
/// with an order of magnitude to spare; anything larger in a header is
/// garbage, and recovery stops there instead of allocating it.
pub const MAX_FRAME_PAYLOAD: usize = 256 << 20;

const TAG_ADMITTED: u8 = 1;
const TAG_COMPLETED: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A job passed admission control. Appended (and flushed per policy)
    /// *before* the client's `Accepted` ack is sent, so every acked job
    /// is durable.
    Admitted {
        /// The request id — the job id the client was acked with.
        id: u64,
        /// Tenant the job bills against (duplicated out of the payload so
        /// `wal inspect` needs no knowledge of the payload format).
        tenant: String,
        /// Submission label, for the same reason.
        label: String,
        /// The full submission, opaque to the log (the serving layer
        /// stores the request line exactly as the client sent it).
        payload: Vec<u8>,
    },
    /// An admitted job produced its outcome (ok or failed — failures are
    /// outcomes too and must not re-run on recovery).
    Completed {
        /// The admitted request id.
        id: u64,
        /// Whether the run succeeded.
        ok: bool,
        /// FNV-1a digest of the output words (the bit-identity witness).
        digest: u64,
        /// Simulated cycles of the run.
        cycles: u64,
        /// Instructions retired.
        instructions: u64,
        /// Failure description; empty when `ok`.
        error: String,
    },
    /// The newest durable mid-run state of a preemptible job, captured at
    /// a quantum boundary. Recovery resumes from the last one.
    Checkpoint {
        /// The admitted request id.
        id: u64,
        /// Output-buffer base address inside the checkpointed system (the
        /// one piece of slice state living outside the snapshot).
        out_addr: u64,
        /// `scratch-snap` bytes of the `SystemCheckpoint`.
        snap: Vec<u8>,
    },
}

impl Record {
    /// The request id this record concerns.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Record::Admitted { id, .. }
            | Record::Completed { id, .. }
            | Record::Checkpoint { id, .. } => *id,
        }
    }

    /// One-line human summary (`wal inspect`).
    #[must_use]
    pub fn summary(&self) -> String {
        match self {
            Record::Admitted {
                id,
                tenant,
                label,
                payload,
            } => format!(
                "admitted   id={id} tenant={tenant} label={label} payload={}B",
                payload.len()
            ),
            Record::Completed {
                id,
                ok,
                digest,
                cycles,
                error,
                ..
            } => {
                if *ok {
                    format!("completed  id={id} ok digest={digest:#018x} cycles={cycles}")
                } else {
                    format!("completed  id={id} FAILED error={error:?}")
                }
            }
            Record::Checkpoint { id, snap, .. } => {
                format!("checkpoint id={id} snap={}B", snap.len())
            }
        }
    }

    /// Encode the record payload (no frame header).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Record::Admitted {
                id,
                tenant,
                label,
                payload,
            } => {
                out.push(TAG_ADMITTED);
                put_u64(&mut out, *id);
                put_bytes(&mut out, tenant.as_bytes());
                put_bytes(&mut out, label.as_bytes());
                put_bytes(&mut out, payload);
            }
            Record::Completed {
                id,
                ok,
                digest,
                cycles,
                instructions,
                error,
            } => {
                out.push(TAG_COMPLETED);
                put_u64(&mut out, *id);
                out.push(u8::from(*ok));
                put_u64(&mut out, *digest);
                put_u64(&mut out, *cycles);
                put_u64(&mut out, *instructions);
                put_bytes(&mut out, error.as_bytes());
            }
            Record::Checkpoint { id, out_addr, snap } => {
                out.push(TAG_CHECKPOINT);
                put_u64(&mut out, *id);
                put_u64(&mut out, *out_addr);
                put_bytes(&mut out, snap);
            }
        }
        out
    }

    /// Decode a record payload. Any structural violation — unknown tag,
    /// short field, trailing bytes — is an error string; recovery treats
    /// it as damage, never a panic.
    ///
    /// # Errors
    ///
    /// A description of the first violated clause.
    pub fn decode(buf: &[u8]) -> Result<Record, String> {
        let mut r = Reader { buf, pos: 0 };
        let record = match r.u8()? {
            TAG_ADMITTED => Record::Admitted {
                id: r.u64()?,
                tenant: r.string()?,
                label: r.string()?,
                payload: r.bytes()?,
            },
            TAG_COMPLETED => Record::Completed {
                id: r.u64()?,
                ok: match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bool byte {other}")),
                },
                digest: r.u64()?,
                cycles: r.u64()?,
                instructions: r.u64()?,
                error: r.string()?,
            },
            TAG_CHECKPOINT => Record::Checkpoint {
                id: r.u64()?,
                out_addr: r.u64()?,
                snap: r.bytes()?,
            },
            other => return Err(format!("unknown record tag {other}")),
        };
        if r.pos != buf.len() {
            return Err(format!("{} trailing bytes after record", buf.len() - r.pos));
        }
        Ok(record)
    }

    /// Encode the record as a complete frame: header + payload.
    ///
    /// # Errors
    ///
    /// [`WalError::FrameTooLarge`] when the payload exceeds the
    /// plausibility bound recovery enforces.
    pub fn frame(&self) -> Result<Vec<u8>, WalError> {
        let payload = self.encode();
        if payload.len() > MAX_FRAME_PAYLOAD {
            return Err(WalError::FrameTooLarge { len: payload.len() });
        }
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("bounded above")
                .to_le_bytes(),
        );
        out.extend_from_slice(&crc32_bytes(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }
}

/// Why a scan stopped accepting frames at some offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDamage {
    /// Fewer than [`FRAME_HEADER_BYTES`] bytes remain — a torn header.
    ShortHeader,
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`] — garbage, not data.
    ImplausibleLength(u64),
    /// The payload extends past the end of the segment — a torn payload.
    ShortPayload,
    /// The payload's CRC32 does not match the header.
    CrcMismatch,
    /// The CRC held but the payload does not decode as a record.
    BadRecord(String),
}

impl std::fmt::Display for FrameDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDamage::ShortHeader => write!(f, "torn frame header"),
            FrameDamage::ImplausibleLength(len) => write!(f, "implausible frame length {len}"),
            FrameDamage::ShortPayload => write!(f, "torn frame payload"),
            FrameDamage::CrcMismatch => write!(f, "payload CRC mismatch"),
            FrameDamage::BadRecord(msg) => write!(f, "undecodable record: {msg}"),
        }
    }
}

/// Parse the frame starting at `offset`. `Ok(None)` means a clean end of
/// segment (exactly at the boundary); damage is a typed stop reason.
pub(crate) fn parse_frame(
    buf: &[u8],
    offset: usize,
) -> Result<Option<(Record, usize)>, FrameDamage> {
    if offset == buf.len() {
        return Ok(None);
    }
    let remaining = &buf[offset..];
    if remaining.len() < FRAME_HEADER_BYTES {
        return Err(FrameDamage::ShortHeader);
    }
    let len = u32::from_le_bytes(remaining[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameDamage::ImplausibleLength(len as u64));
    }
    let crc = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
    let Some(payload) = remaining.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len) else {
        return Err(FrameDamage::ShortPayload);
    };
    if crc32_bytes(payload) != crc {
        return Err(FrameDamage::CrcMismatch);
    }
    let record = Record::decode(payload).map_err(FrameDamage::BadRecord)?;
    Ok(Some((record, FRAME_HEADER_BYTES + len)))
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&u32::try_from(b.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("short read (u8)")?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).ok_or("overflow")?;
        let bytes = self.buf.get(self.pos..end).ok_or("short read (u64)")?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let end = self.pos.checked_add(4).ok_or("overflow")?;
        let len_bytes = self.buf.get(self.pos..end).ok_or("short read (len)")?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        self.pos = end;
        let end = self.pos.checked_add(len).ok_or("overflow")?;
        let bytes = self.buf.get(self.pos..end).ok_or("short read (bytes)")?;
        self.pos = end;
        Ok(bytes.to_vec())
    }

    fn string(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|_| "non-UTF-8 string".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Admitted {
                id: 7,
                tenant: "acme".into(),
                label: "saxpy".into(),
                payload: vec![1, 2, 3, 255],
            },
            Record::Completed {
                id: 7,
                ok: true,
                digest: 0xdead_beef_cafe_f00d,
                cycles: 123_456,
                instructions: 9_876,
                error: String::new(),
            },
            Record::Completed {
                id: 8,
                ok: false,
                digest: 0,
                cycles: 0,
                instructions: 0,
                error: "watchdog: job exceeded its budget".into(),
            },
            Record::Checkpoint {
                id: 9,
                out_addr: 0x1000,
                snap: (0..=255u8).collect(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        for r in samples() {
            let encoded = r.encode();
            assert_eq!(Record::decode(&encoded).unwrap(), r);
        }
    }

    #[test]
    fn frames_round_trip_and_chain() {
        let mut buf = Vec::new();
        for r in samples() {
            buf.extend_from_slice(&r.frame().unwrap());
        }
        let mut offset = 0;
        let mut seen = Vec::new();
        while let Some((record, consumed)) = parse_frame(&buf, offset).unwrap() {
            seen.push(record);
            offset += consumed;
        }
        assert_eq!(seen, samples());
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[99]).is_err());
        assert!(Record::decode(&[TAG_ADMITTED, 1, 2]).is_err());
        // Trailing bytes after a valid record are a violation too.
        let mut buf = samples()[0].encode();
        buf.push(0);
        assert!(Record::decode(&buf).is_err());
    }

    #[test]
    fn parse_frame_types_each_damage() {
        let good = samples()[0].frame().unwrap();
        // Torn header.
        assert_eq!(parse_frame(&good[..4], 0), Err(FrameDamage::ShortHeader));
        // Torn payload.
        assert_eq!(
            parse_frame(&good[..good.len() - 1], 0),
            Err(FrameDamage::ShortPayload)
        );
        // Flipped payload byte -> CRC mismatch.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(parse_frame(&flipped, 0), Err(FrameDamage::CrcMismatch));
        // Implausible length field.
        let mut huge = good.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_frame(&huge, 0),
            Err(FrameDamage::ImplausibleLength(_))
        ));
        // Valid CRC over an undecodable payload.
        let payload = [42u8, 1, 2, 3];
        let mut bad = Vec::new();
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&crc32_bytes(&payload).to_le_bytes());
        bad.extend_from_slice(&payload);
        assert!(matches!(
            parse_frame(&bad, 0),
            Err(FrameDamage::BadRecord(_))
        ));
    }
}
