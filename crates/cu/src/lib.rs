//! # scratch-cu
//!
//! Cycle-level simulator of the MIAOW2.0 compute unit from the SCRATCH paper
//! (MICRO-50, 2017).
//!
//! The simulated CU mirrors the architecture of the paper's Fig. 2:
//!
//! * up to 40 resident wavefronts with round-robin fetch ([`CuConfig`]);
//! * a decode stage that needs two cycles for 64-bit encodings;
//! * an issue stage with per-wavefront in-order scoreboarding, immediate
//!   handling of barriers and halts, and `s_waitcnt` blocking;
//! * four execution-unit classes — SALU, integer SIMD VALUs, floating-point
//!   SIMF VALUs and the LSU — with configurable *counts* of SIMD/SIMF units
//!   (the paper's multi-thread parallelism axis) and per-class latencies;
//! * 16-wide vector units executing a 64-lane wavefront in 4 beats;
//! * an LDS scratchpad per workgroup and workgroup-scoped `s_barrier`.
//!
//! Functional execution is exact for every supported instruction: the same
//! register/memory state a Southern Islands CU would produce (§2.3 of the
//! paper validated this instruction-by-instruction on the FPGA; our unit
//! tests play the same role).
//!
//! Timing follows a *functional-now, timing-later* discipline: an
//! instruction's architectural effects apply when it issues, while its cost
//! occupies the functional unit and delays dependent instructions, and
//! memory costs are charged through the `vmcnt`/`lgkmcnt` counters exactly
//! where SI software must already synchronise with `s_waitcnt`.
//!
//! Trimmed architectures ([`TrimSet`]) are enforced at issue: executing an
//! instruction the trimming tool removed is a hard [`CuError::Trimmed`] —
//! the safety property the SCRATCH tool guarantees never to violate for the
//! kernel it trimmed against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod fault;
/// Timing-free functional execution (shared by the cycle pipeline and the
/// `scratch-fastpath` block-compiled executor).
pub mod func;
mod issue;
mod memory;
mod pipeline;
mod stats;
mod trimset;
mod wavefront;

pub use config::{CuConfig, Latencies};
pub use error::CuError;
pub use fault::{CuFault, FaultHook, FaultRecord, FaultTarget, ScheduledFaults};
pub use memory::{AccessKind, FixedLatencyMemory, Memory};
pub use pipeline::{ComputeUnit, RunStatus, WaveInit};
pub use stats::{CuStats, OpcodeHistogram};
pub use trimset::TrimSet;
pub use wavefront::Wavefront;

// Convenience re-exports so CU users reach the tracing subsystem without a
// separate dependency on `scratch-trace`.
pub use scratch_trace::{EventBuffer, NullTracer, StallReason, TraceEvent, TraceSummary, Tracer};

// Snapshot types a checkpointing caller needs alongside
// [`ComputeUnit::snapshot`] / [`ComputeUnit::restore`].
pub use scratch_snap::{CuSnapshot, WaveSnapshot, WorkgroupSnapshot};

#[cfg(test)]
mod send_tests {
    /// The execution engine moves compute units onto worker threads; every
    /// tracer sink is `Send`, so the whole CU must be too.
    #[test]
    fn compute_unit_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<super::ComputeUnit>();
    }
}
