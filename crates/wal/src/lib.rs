//! Durable write-ahead log for the serving layer.
//!
//! The log is a directory of numbered segment files. Each segment is a
//! sequence of *frames*:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the IEEE CRC32 of the payload and the payload is one
//! encoded [`Record`] — a job admission (the submission's request line as
//! the client sent it),
//! a completion (the digest the client was or would have been told), or a
//! mid-run checkpoint (the `scratch-snap` bytes captured at a preemption
//! quantum boundary). Appends go to the newest segment; when it passes
//! [`WalConfig::segment_bytes`] the writer rotates to a fresh one.
//!
//! ## Recovery model
//!
//! A crash can tear the tail of the newest segment mid-frame. Recovery
//! ([`Wal::open`]) therefore scans every segment in order, accepting
//! frames until the first damage — a short header, an implausible length,
//! a CRC mismatch, or an undecodable record — then truncates the damaged
//! segment at the last valid frame and drops any later segments. Garbage
//! never panics; it just marks the end of the durable prefix. The fold
//! over the surviving records yields the [`Recovery`]: jobs admitted but
//! not completed (each with its newest durable checkpoint, if any), a
//! [`RecoveryReport`] for operators, and the next request id.
//!
//! ## Durability model
//!
//! [`FsyncPolicy`] trades append latency against power-loss durability.
//! OS page cache survives a killed *process*, so even `Never` gives
//! exactly-once recovery under SIGKILL (the chaos harness's regime);
//! `Always`/`Interval` bound the loss window against whole-machine
//! failure. Only `Always` makes an append wait for the disk: `Interval`
//! syncs on a background thread the writer owns, so the append path (and
//! whatever lock its caller holds) never pays for a flush. The fault
//! hooks ([`AppendFault`], [`TearOnce`]) sabotage the append path for
//! crash tests:
//! a hook can tear a frame mid-write and abort, simulating the worst
//! moment a power cut can pick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod log;
mod record;

pub use fault::{AppendFault, CrashOnAppend, TearAction, TearOnce};
pub use log::{
    inspect, verify, AppendInfo, CompletionMeta, Damage, FsyncPolicy, InspectEntry, PendingEntry,
    Recovery, RecoveryReport, VerifyReport, Wal, WalConfig, WalState,
};
pub use record::{Record, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD};

use std::error::Error;
use std::fmt;
use std::io;

/// Everything that can go wrong operating the log.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem-level failure (open, read, write, fsync, truncate).
    Io(io::Error),
    /// A record payload larger than [`MAX_FRAME_PAYLOAD`] was offered for
    /// append — the frame would be unreadable by recovery's plausibility
    /// bound, so it is refused up front.
    FrameTooLarge {
        /// Offered payload size in bytes.
        len: usize,
    },
    /// An installed [`AppendFault`] hook tore this append (test-only).
    TornWrite,
    /// The writer was [closed](Wal::close); it appends nothing more.
    Closed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::FrameTooLarge { len } => {
                write!(
                    f,
                    "record payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame bound"
                )
            }
            WalError::TornWrite => write!(f, "append torn by the installed fault hook"),
            WalError::Closed => write!(f, "append to a closed log"),
        }
    }
}

impl Error for WalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// Slicing-by-8 tables for [`crc32_bytes`]: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups fold in eight
/// input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// IEEE 802.3 CRC32 (reflected, polynomial `0xedb8_8320`) over raw bytes,
/// the checksum of every log frame and of `scratch_fault`'s output
/// signatures. Table-driven (slicing-by-8): a served job appends a ~45 KB
/// admission frame, and a bit-at-a-time CRC of it was most of the
/// append's cost.
#[must_use]
pub fn crc32_bytes(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition, the reference the table form must
    /// match on every input (logs written by earlier builds must open).
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32_bytes(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bytes(b""), 0);
        // Any single-bit flip changes the CRC.
        let a = crc32_bytes(b"scratch");
        let b = crc32_bytes(b"scsatch");
        assert_ne!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every length from empty through several 8-byte blocks plus a
        /// remainder, with arbitrary contents.
        #[test]
        fn table_crc_equals_bitwise(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            prop_assert_eq!(crc32_bytes(&bytes), crc32_bitwise(&bytes));
        }
    }
}
