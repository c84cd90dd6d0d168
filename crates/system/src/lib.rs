//! # scratch-system
//!
//! Full-system model of the paper's FPGA platform (§2.2): global DDR3
//! memory behind a MicroBlaze/AXI path, the dual-clock-domain split, the
//! in-fabric prefetch buffer, and the ultra-threaded dispatcher that loads
//! register state and distributes workgroups over one or more MIAOW2.0
//! compute units.
//!
//! Three system configurations reproduce the paper's comparison points:
//!
//! * [`SystemKind::Original`] — single 50 MHz clock; every global access is
//!   serviced through the MicroBlaze, serialising requests system-wide;
//! * [`SystemKind::Dcd`] — dual clock domain: the memory side runs at
//!   200 MHz (4:1), quartering service times seen from the CU clock;
//! * [`SystemKind::DcdPm`] — DCD plus the BRAM prefetch buffer: accesses to
//!   preloaded ranges bypass the MicroBlaze entirely.
//!
//! # Examples
//!
//! ```
//! use scratch_asm::KernelBuilder;
//! use scratch_isa::{Opcode, Operand, SmrdOffset};
//! use scratch_system::{abi, System, SystemConfig, SystemKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // out[tid] = tid * 2 over one workgroup (v0 holds the work-item id).
//! let mut b = KernelBuilder::new("double");
//! b.vgprs(8).sgprs(24);
//! b.smrd(
//!     Opcode::SBufferLoadDword,
//!     Operand::Sgpr(20),
//!     abi::CONST_BUF1,
//!     SmrdOffset::Imm(0),
//! )?;
//! b.waitcnt(None, Some(0))?;
//! b.vop2(Opcode::VLshlrevB32, 1, Operand::IntConst(2), 0)?; // byte offset
//! b.vop2(Opcode::VAddI32, 2, Operand::Vgpr(0), 0)?; // value = 2 * tid
//! b.mubuf(
//!     Opcode::BufferStoreDword,
//!     2,
//!     1,
//!     abi::UAV_DESC,
//!     Operand::Sgpr(20),
//!     0,
//! )?;
//! b.waitcnt(Some(0), None)?;
//! b.endpgm()?;
//! let kernel = b.finish()?;
//!
//! let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel)?;
//! let out = sys.alloc(64 * 4);
//! sys.set_args(&[out as u32]);
//! sys.dispatch([1, 1, 1])?;
//! assert_eq!(sys.read_words(out, 64)[5], 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
mod error;
pub mod fault;
mod memory;
mod system;

pub use error::{ImageFault, SystemError};
pub use fault::{CuUpset, FaultSpec, MemUpset};
pub use memory::{EpochDelta, EpochMemory, EpochState, MemTiming, MemoryState, SharedMemory};
pub use system::{
    dispatch_workgroups, DispatchProgress, ExecMode, RunReport, System, SystemCheckpoint,
    SystemConfig, SystemKind, TraceMode, MAX_DISPATCH_WORKGROUPS, MAX_MEMORY_BYTES,
};

pub use scratch_cu::{CuError, CuFault, CuStats, FaultRecord, FaultTarget};
pub use scratch_fastpath::FastStats;
pub use scratch_trace::{chrome_trace, EventBuffer, StallReason, TraceEvent, TraceSummary, Tracer};
