//! Compute-unit architecture configuration.

use serde::{Deserialize, Serialize};

use scratch_isa::{Category, FuncUnit, Opcode};

use crate::{CuError, TrimSet};

/// Execution latencies, in CU cycles, per operation class.
///
/// Defaults reflect the relative costs of the MIAOW2.0 functional units on
/// the Virtex-7 at 50 MHz: scalar single-cycle, pipelined integer vector
/// operations, multi-cycle floating point, and long transcendental /
/// reciprocal paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Latencies {
    /// Scalar ALU operations.
    pub salu: u64,
    /// Integer vector add/logic/shift/mov.
    pub simd_simple: u64,
    /// Integer vector multiply / multiply-add.
    pub simd_mul: u64,
    /// Floating-point add/compare/min/max.
    pub simf_add: u64,
    /// Floating-point multiply / MAC / MAD / FMA.
    pub simf_mul: u64,
    /// Floating-point reciprocal (division path).
    pub simf_div: u64,
    /// Transcendental operations (exp, log, sqrt, rsq, sin, cos).
    pub simf_trans: u64,
    /// Numeric conversions and floating-point rounding.
    pub simf_convert: u64,
    /// LSU address calculation (added before any memory latency).
    pub lsu_addr: u64,
    /// Penalty on a taken branch (refetch through the wavepool).
    pub branch_taken: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            salu: 1,
            simd_simple: 1,
            simd_mul: 4,
            simf_add: 4,
            simf_mul: 5,
            simf_div: 12,
            simf_trans: 16,
            simf_convert: 4,
            lsu_addr: 1,
            branch_taken: 5,
        }
    }
}

impl Latencies {
    /// Result latency of `opcode` (excluding vector beats and memory time).
    #[must_use]
    pub fn of(&self, opcode: Opcode) -> u64 {
        use scratch_isa::FuncUnit as U;
        match opcode.unit() {
            U::Salu | U::Branch => self.salu,
            U::Lsu => self.lsu_addr,
            U::Simd => match opcode.category() {
                Category::Mul => self.simd_mul,
                _ => self.simd_simple,
            },
            U::Simf => match opcode.category() {
                Category::Mul => self.simf_mul,
                Category::Div => self.simf_div,
                Category::Trans => self.simf_trans,
                Category::Convert => self.simf_convert,
                _ => self.simf_add,
            },
        }
    }
}

/// Architecture configuration of one compute unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuConfig {
    /// Number of integer vector ALUs (SIMD units). MIAOW instantiates up to
    /// four; the paper's multi-thread experiments vary this.
    pub int_valus: u8,
    /// Number of floating-point vector ALUs (SIMF units). Zero on trimmed
    /// integer-only architectures.
    pub fp_valus: u8,
    /// Maximum resident wavefronts (the MIAOW fetch controller supports 40).
    pub max_wavefronts: u8,
    /// SIMD/SIMF datapath width in lanes; a 64-lane wavefront executes in
    /// `64 / simd_width` beats.
    pub simd_width: u8,
    /// Execution latencies.
    pub latencies: Latencies,
    /// Instructions the trimming tool kept; `None` means the full ISA.
    pub trim: Option<TrimSet>,
    /// Upper bound on simulated cycles (deadlock/runaway protection).
    pub cycle_limit: u64,
    /// Keep the always-on metrics aggregates (stall-reason cycle counters
    /// feeding [`CuStats::stall_cycles`](crate::CuStats)). On by default —
    /// the accounting is a few array adds per scheduling decision — and
    /// only turned off by the overhead benchmarks that measure that cost.
    pub metrics: bool,
    /// Keep per-PC retire counters (the continuous-profiler feed behind
    /// `scratch-profile`'s `InstrSignature` aggregation). Off by default:
    /// unlike `metrics` this buys nothing unless someone reads them out.
    pub profile: bool,
}

impl Default for CuConfig {
    fn default() -> Self {
        CuConfig {
            int_valus: 1,
            fp_valus: 1,
            max_wavefronts: scratch_isa::MAX_WAVEFRONTS as u8,
            simd_width: 16,
            latencies: Latencies::default(),
            trim: None,
            cycle_limit: 4_000_000_000,
            metrics: true,
            profile: false,
        }
    }
}

impl CuConfig {
    /// Beats a vector instruction occupies its unit for
    /// (`wavefront / simd_width`).
    #[must_use]
    pub fn vector_beats(&self) -> u64 {
        (scratch_isa::WAVEFRONT_SIZE as u64).div_ceil(u64::from(self.simd_width.max(1)))
    }

    /// The error issuing `opcode` raises on this architecture, if any: an
    /// instruction the trimming tool removed is checked first, then one
    /// whose functional unit is not instantiated. Both execution tiers
    /// enforce exactly this when the instruction issues.
    #[must_use]
    pub fn issue_error(&self, opcode: Opcode) -> Option<CuError> {
        if self
            .trim
            .as_ref()
            .is_some_and(|trim| !trim.contains(opcode))
        {
            return Some(CuError::Trimmed { opcode });
        }
        let unit = opcode.unit();
        let missing = match unit {
            FuncUnit::Simd => self.int_valus == 0,
            FuncUnit::Simf => self.fp_valus == 0,
            _ => false,
        };
        missing.then_some(CuError::MissingUnit { unit, opcode })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_beats_is_four() {
        assert_eq!(CuConfig::default().vector_beats(), 4);
    }

    #[test]
    fn latency_classes() {
        let l = Latencies::default();
        assert_eq!(l.of(Opcode::SAddU32), l.salu);
        assert_eq!(l.of(Opcode::VAddI32), l.simd_simple);
        assert_eq!(l.of(Opcode::VMulLoI32), l.simd_mul);
        assert_eq!(l.of(Opcode::VAddF32), l.simf_add);
        assert_eq!(l.of(Opcode::VMadF32), l.simf_mul);
        assert_eq!(l.of(Opcode::VRcpF32), l.simf_div);
        assert_eq!(l.of(Opcode::VSqrtF32), l.simf_trans);
        assert_eq!(l.of(Opcode::VCvtF32I32), l.simf_convert);
        assert_eq!(l.of(Opcode::BufferLoadDword), l.lsu_addr);
    }
}
