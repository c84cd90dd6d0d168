use std::fmt;

use scratch_asm::AsmError;
use scratch_cu::CuError;

/// Errors raised by the full-system simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// Compute-unit level failure.
    Cu(CuError),
    /// Kernel construction/decoding failure.
    Asm(AsmError),
    /// Global memory is exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining.
        available: u64,
    },
    /// The prefetch buffer cannot hold the requested range.
    PrefetchCapacity {
        /// Bytes requested for prefetch residence.
        requested: u64,
        /// Prefetch capacity in bytes.
        capacity: u64,
    },
    /// A dispatch was attempted before `set_args`.
    ArgsNotSet,
    /// A zero-sized grid or workgroup was dispatched.
    EmptyDispatch,
    /// A CU count outside what the FPGA allocator could ever place.
    InvalidCuCount {
        /// CUs requested.
        requested: u8,
        /// The device's allocator capacity bound
        /// ([`scratch_fpga::cu_capacity_bound`]).
        max: u8,
    },
    /// A preemptible-dispatch operation was used out of sequence, or a
    /// checkpoint did not match the system it was restored onto.
    Preemption {
        /// What was violated.
        reason: String,
    },
    /// Snapshot-codec failure, including requesting checkpoints of an
    /// execution tier that cannot take them
    /// ([`scratch_snap::SnapError::UnsupportedExecMode`]).
    Snap(scratch_snap::SnapError),
    /// The self-checking `ExecMode::FastWithTiming` tier found the fast
    /// path's memory writes diverging from the cycle pipeline's.
    FastDivergence {
        /// What diverged.
        what: String,
    },
    /// A global memory larger than [`crate::MAX_MEMORY_BYTES`] was asked
    /// for, by a configuration or by a checkpoint being restored.
    MemoryTooLarge {
        /// Bytes requested.
        requested: u64,
        /// The largest memory a system models.
        max: u64,
    },
    /// A checkpoint's memory image cannot be rebuilt (found before
    /// anything is allocated for it).
    MalformedImage(ImageFault),
}

/// What is wrong with a checkpoint's memory image
/// ([`SystemError::MalformedImage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageFault {
    /// The image length differs from the checkpoint's memory size.
    LengthMismatch {
        /// Memory size the checkpoint's configuration claims.
        memory_bytes: u64,
        /// Length the image claims.
        image_len: u64,
    },
    /// A page starts at or ends past the end of the image.
    PageOutOfRange {
        /// The page's index.
        index: u64,
        /// Image length in bytes.
        len: u64,
    },
    /// A page index appears twice.
    PageRepeated {
        /// The repeated index.
        index: u64,
    },
    /// A page index is lower than the one before it.
    PageOutOfOrder {
        /// The page's index.
        index: u64,
        /// The index before it.
        previous: u64,
    },
    /// A page carries more bytes than a page holds.
    PageTooLong {
        /// The page's index.
        index: u64,
        /// Bytes it carries.
        bytes: u64,
    },
    /// A suspended epoch view's page carries fewer bytes than its page of
    /// the memory holds.
    PageTooShort {
        /// The page's index.
        index: u64,
        /// Bytes it carries.
        bytes: u64,
        /// Bytes its page holds.
        page: u64,
    },
    /// A suspended epoch view's page has a written-byte mask that is not
    /// one bit per byte of its data (wrong length, or bits past the data).
    WrittenMaskMismatch {
        /// The page's index.
        index: u64,
        /// 64-bit words in the mask.
        words: u64,
        /// Bytes of data the mask covers.
        bytes: u64,
    },
}

impl fmt::Display for ImageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageFault::LengthMismatch {
                memory_bytes,
                image_len,
            } => write!(
                f,
                "image of {image_len} bytes for a memory of {memory_bytes} bytes"
            ),
            ImageFault::PageOutOfRange { index, len } => {
                write!(f, "page {index} lies outside the {len}-byte image")
            }
            ImageFault::PageRepeated { index } => write!(f, "page {index} appears twice"),
            ImageFault::PageOutOfOrder { index, previous } => {
                write!(f, "page {index} follows page {previous}")
            }
            ImageFault::PageTooLong { index, bytes } => write!(
                f,
                "page {index} carries {bytes} bytes, more than a {}-byte page",
                scratch_snap::IMAGE_PAGE
            ),
            ImageFault::PageTooShort { index, bytes, page } => write!(
                f,
                "page {index} carries {bytes} bytes of its {page}-byte page"
            ),
            ImageFault::WrittenMaskMismatch {
                index,
                words,
                bytes,
            } => write!(
                f,
                "page {index}'s {words}-word written mask does not cover its {bytes} bytes bit for bit"
            ),
        }
    }
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Cu(e) => write!(f, "compute unit: {e}"),
            SystemError::Asm(e) => write!(f, "kernel: {e}"),
            SystemError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of global memory ({requested} bytes requested, {available} free)"
                )
            }
            SystemError::PrefetchCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "prefetch buffer capacity exceeded ({requested} bytes requested of {capacity})"
            ),
            SystemError::ArgsNotSet => write!(f, "kernel arguments not set before dispatch"),
            SystemError::EmptyDispatch => write!(f, "dispatch with an empty grid or workgroup"),
            SystemError::InvalidCuCount { requested, max } => write!(
                f,
                "{requested} compute units requested, but the device routes at most {max}"
            ),
            SystemError::Preemption { reason } => write!(f, "preemption: {reason}"),
            SystemError::Snap(e) => write!(f, "snapshot: {e}"),
            SystemError::FastDivergence { what } => {
                write!(f, "fast tier diverged from the cycle pipeline: {what}")
            }
            SystemError::MemoryTooLarge { requested, max } => write!(
                f,
                "global memory of {requested} bytes requested, but a system models at most {max}"
            ),
            SystemError::MalformedImage(fault) => {
                write!(f, "malformed checkpoint memory image: {fault}")
            }
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Cu(e) => Some(e),
            SystemError::Asm(e) => Some(e),
            SystemError::Snap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CuError> for SystemError {
    fn from(e: CuError) -> Self {
        SystemError::Cu(e)
    }
}

impl From<AsmError> for SystemError {
    fn from(e: AsmError) -> Self {
        SystemError::Asm(e)
    }
}
