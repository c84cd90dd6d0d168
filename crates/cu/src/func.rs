//! Functional execution of every supported instruction, independent of the
//! timing model.
//!
//! Semantics follow the Southern Islands ISA manual; §2.3 of the paper
//! validated the same behaviours instruction-by-instruction on the FPGA.
//! The one documented deviation: `v_exp_f32`/`v_log_f32` are base-2 (as in
//! SI) and `v_sin_f32`/`v_cos_f32` take the SI-normalised argument (input
//! pre-multiplied by 1/2π), both implemented with `f32` host arithmetic
//! rather than the FPGA's table-driven approximations.
//!
//! This module is the *functional* half of the functional/timing split: the
//! cycle pipeline ([`crate::ComputeUnit`]) calls [`execute`](crate::func::execute) when an
//! instruction issues and charges its cost separately, while the
//! `scratch-fastpath` block-compiled executor calls the same entry points
//! (plus the [`lanewise`](crate::func::lanewise)/[`compare`](crate::func::compare) primitives for its specialised
//! closures) without any timing machinery. Both tiers therefore share one
//! source of truth for architectural state transitions.

use scratch_isa::{Fields, Instruction, Opcode, Operand, SmrdOffset, WAVEFRONT_SIZE};

use crate::memory::{AccessKind, Memory};
use crate::wavefront::Wavefront;
use crate::CuError;

/// Memory activity produced by one instruction (used for timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// SMRD access (counted by `lgkmcnt`).
    Scalar {
        /// Address of the access.
        addr: u64,
    },
    /// MUBUF/MTBUF access (counted by `vmcnt`).
    Vector {
        /// Load or store.
        kind: AccessKind,
        /// Address of the first active lane.
        addr: u64,
        /// Number of active lanes.
        lanes: u32,
    },
    /// LDS access (counted by `lgkmcnt`, serviced locally).
    Lds,
}

/// Side effects of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Taken branch target (word offset).
    pub new_pc: Option<usize>,
    /// `s_endpgm` executed.
    pub end: bool,
    /// `s_barrier` executed.
    pub barrier: bool,
    /// Memory activity.
    pub mem: Option<MemEvent>,
}

#[inline]
fn fb(x: u32) -> f32 {
    f32::from_bits(x)
}

#[inline]
fn tb(x: f32) -> u32 {
    x.to_bits()
}

#[inline]
fn sext24(x: u32) -> i64 {
    i64::from((x << 8) as i32 >> 8)
}

/// Execute `inst` for `wave`. `next_pc` is the word offset of the following
/// instruction (branch offsets are relative to it).
pub fn execute(
    inst: &Instruction,
    next_pc: usize,
    wave: &mut Wavefront,
    lds: &mut [u32],
    mem: &mut dyn Memory,
) -> Result<Outcome, CuError> {
    match inst.fields {
        Fields::Sop2 { sdst, ssrc0, ssrc1 } => {
            exec_sop2(inst.opcode, wave, sdst, ssrc0, ssrc1)?;
            Ok(Outcome::default())
        }
        Fields::Sopk { sdst, simm16 } => {
            exec_sopk(inst.opcode, wave, sdst, simm16)?;
            Ok(Outcome::default())
        }
        Fields::Sop1 { sdst, ssrc0 } => {
            exec_sop1(inst.opcode, wave, sdst, ssrc0)?;
            Ok(Outcome::default())
        }
        Fields::Sopc { ssrc0, ssrc1 } => {
            exec_sopc(inst.opcode, wave, ssrc0, ssrc1)?;
            Ok(Outcome::default())
        }
        Fields::Sopp { simm16 } => exec_sopp(inst.opcode, wave, simm16, next_pc),
        Fields::Smrd {
            sdst,
            sbase,
            offset,
        } => exec_smrd(inst.opcode, wave, sdst, sbase, offset, mem),
        Fields::Vop2 { .. }
        | Fields::Vop1 { .. }
        | Fields::Vopc { .. }
        | Fields::Vop3a { .. }
        | Fields::Vop3b { .. } => {
            exec_vector(inst, wave)?;
            Ok(Outcome::default())
        }
        Fields::Ds { .. } => exec_ds(inst, wave, lds),
        Fields::Mubuf { .. } | Fields::Mtbuf { .. } => exec_buffer(inst, wave, mem),
    }
}

// ----------------------------------------------------------------- scalar

fn exec_sop2(
    op: Opcode,
    wave: &mut Wavefront,
    sdst: Operand,
    ssrc0: Operand,
    ssrc1: Operand,
) -> Result<(), CuError> {
    use Opcode::*;
    let w = op.src_width();
    let s0 = wave.read_scalar(ssrc0, w)?;
    let s1 = wave.read_scalar(ssrc1, w)?;
    let (a, b) = (s0 as u32, s1 as u32);
    let (ai, bi) = (a as i32, b as i32);

    // (value, new_scc); None leaves SCC untouched.
    let (value, scc): (u64, Option<bool>) = match op {
        SAddU32 => {
            let (v, c) = a.overflowing_add(b);
            (v.into(), Some(c))
        }
        SSubU32 => {
            let (v, c) = a.overflowing_sub(b);
            (v.into(), Some(c))
        }
        SAddI32 => {
            let (v, o) = ai.overflowing_add(bi);
            (u64::from(v as u32), Some(o))
        }
        SSubI32 => {
            let (v, o) = ai.overflowing_sub(bi);
            (u64::from(v as u32), Some(o))
        }
        SAddcU32 => {
            let cin = u64::from(wave.scc);
            let full = u64::from(a) + u64::from(b) + cin;
            (full & 0xffff_ffff, Some(full > 0xffff_ffff))
        }
        SSubbU32 => {
            let cin = i64::from(wave.scc);
            let full = i64::from(a) - i64::from(b) - cin;
            (u64::from(full as u32), Some(full < 0))
        }
        SMinI32 => ((ai.min(bi) as u32).into(), Some(ai <= bi)),
        SMinU32 => (a.min(b).into(), Some(a <= b)),
        SMaxI32 => ((ai.max(bi) as u32).into(), Some(ai >= bi)),
        SMaxU32 => (a.max(b).into(), Some(a >= b)),
        SCselectB32 => (if wave.scc { s0 } else { s1 }, None),
        SAndB32 | SAndB64 => {
            let v = s0 & s1;
            (v, Some(v != 0))
        }
        SOrB32 | SOrB64 => {
            let v = s0 | s1;
            (v, Some(v != 0))
        }
        SXorB32 | SXorB64 => {
            let v = s0 ^ s1;
            (v, Some(v != 0))
        }
        SAndn2B64 => {
            let v = s0 & !s1;
            (v, Some(v != 0))
        }
        SOrn2B64 => {
            let v = s0 | !s1;
            (v, Some(v != 0))
        }
        SNandB64 => {
            let v = !(s0 & s1);
            (v, Some(v != 0))
        }
        SNorB64 => {
            let v = !(s0 | s1);
            (v, Some(v != 0))
        }
        SXnorB64 => {
            let v = !(s0 ^ s1);
            (v, Some(v != 0))
        }
        SLshlB32 => {
            let v = a << (b & 31);
            (v.into(), Some(v != 0))
        }
        SLshrB32 => {
            let v = a >> (b & 31);
            (v.into(), Some(v != 0))
        }
        SAshrI32 => {
            let v = (ai >> (b & 31)) as u32;
            (v.into(), Some(v != 0))
        }
        SBfmB32 => {
            let v = ((1u64 << (a & 31)) - 1) as u32;
            ((v << (b & 31)).into(), None)
        }
        SMulI32 => ((ai.wrapping_mul(bi) as u32).into(), None),
        SBfeU32 => {
            let offset = b & 31;
            let width = (b >> 16) & 0x7f;
            let v = if width == 0 {
                0
            } else if width >= 32 {
                a >> offset
            } else {
                (a >> offset) & ((1u32 << width) - 1)
            };
            (v.into(), Some(v != 0))
        }
        SBfeI32 => {
            let offset = b & 31;
            let width = (b >> 16) & 0x7f;
            let v = if width == 0 {
                0
            } else if width >= 32 {
                ((ai >> offset) as u32).into()
            } else {
                let raw = (a >> offset) & ((1u32 << width) - 1);
                let shift = 32 - width;
                u64::from((((raw << shift) as i32) >> shift) as u32)
            };
            (v, Some(v != 0))
        }
        other => unreachable!("non-SOP2 opcode {other:?}"),
    };
    wave.write_scalar(sdst, op.dst_width(), value)?;
    if let Some(s) = scc {
        wave.scc = s;
    }
    Ok(())
}

fn exec_sopk(op: Opcode, wave: &mut Wavefront, sdst: Operand, simm16: i16) -> Result<(), CuError> {
    use Opcode::*;
    let imm = i64::from(simm16);
    match op {
        SMovkI32 => wave.write_scalar(sdst, 1, u64::from(imm as u32))?,
        SCmpkEqI32 | SCmpkLgI32 | SCmpkGtI32 | SCmpkGeI32 | SCmpkLtI32 | SCmpkLeI32 => {
            let v = i64::from(wave.read_scalar(sdst, 1)? as u32 as i32);
            wave.scc = match op {
                SCmpkEqI32 => v == imm,
                SCmpkLgI32 => v != imm,
                SCmpkGtI32 => v > imm,
                SCmpkGeI32 => v >= imm,
                SCmpkLtI32 => v < imm,
                SCmpkLeI32 => v <= imm,
                _ => unreachable!(),
            };
        }
        SAddkI32 => {
            let v = wave.read_scalar(sdst, 1)? as u32 as i32;
            let (r, o) = v.overflowing_add(imm as i32);
            wave.write_scalar(sdst, 1, u64::from(r as u32))?;
            wave.scc = o;
        }
        SMulkI32 => {
            let v = wave.read_scalar(sdst, 1)? as u32 as i32;
            wave.write_scalar(sdst, 1, u64::from(v.wrapping_mul(imm as i32) as u32))?;
        }
        other => unreachable!("non-SOPK opcode {other:?}"),
    }
    Ok(())
}

fn exec_sop1(
    op: Opcode,
    wave: &mut Wavefront,
    sdst: Operand,
    ssrc0: Operand,
) -> Result<(), CuError> {
    use Opcode::*;
    let w = op.src_width();
    let s0 = wave.read_scalar(ssrc0, w)?;
    let a = s0 as u32;

    let (value, scc): (u64, Option<bool>) = match op {
        SMovB32 | SMovB64 => (s0, None),
        SCmovB32 => {
            if wave.scc {
                (s0, None)
            } else {
                (wave.read_scalar(sdst, 1)?, None)
            }
        }
        SNotB32 => {
            let v = u64::from(!a);
            (v, Some(v != 0))
        }
        SNotB64 => {
            let v = !s0;
            (v, Some(v != 0))
        }
        SWqmB64 => {
            // Whole-quad mode: each nibble becomes all-ones if any bit set.
            let mut v = 0u64;
            for q in 0..16 {
                if (s0 >> (q * 4)) & 0xf != 0 {
                    v |= 0xf << (q * 4);
                }
            }
            (v, Some(v != 0))
        }
        SBrevB32 => (u64::from(a.reverse_bits()), None),
        SBcnt0I32B32 => {
            let v = u64::from(a.count_zeros());
            (v, Some(v != 0))
        }
        SBcnt1I32B32 => {
            let v = u64::from(a.count_ones());
            (v, Some(v != 0))
        }
        SFf0I32B32 => {
            let v = if a == u32::MAX {
                u32::MAX
            } else {
                (!a).trailing_zeros()
            };
            (u64::from(v), None)
        }
        SFf1I32B32 => {
            let v = if a == 0 { u32::MAX } else { a.trailing_zeros() };
            (u64::from(v), None)
        }
        SFlbitI32B32 => {
            let v = if a == 0 { u32::MAX } else { a.leading_zeros() };
            (u64::from(v), None)
        }
        SSextI32I8 => (u64::from(i32::from(a as u8 as i8) as u32), None),
        SSextI32I16 => (u64::from(i32::from(a as u16 as i16) as u32), None),
        SBitset0B32 => {
            let d = wave.read_scalar(sdst, 1)? as u32;
            (u64::from(d & !(1 << (a & 31))), None)
        }
        SBitset1B32 => {
            let d = wave.read_scalar(sdst, 1)? as u32;
            (u64::from(d | (1 << (a & 31))), None)
        }
        SAndSaveexecB64 | SOrSaveexecB64 | SXorSaveexecB64 | SAndn2SaveexecB64 => {
            let saved = wave.exec;
            let new_exec = match op {
                SAndSaveexecB64 => s0 & saved,
                SOrSaveexecB64 => s0 | saved,
                SXorSaveexecB64 => s0 ^ saved,
                SAndn2SaveexecB64 => s0 & !saved,
                _ => unreachable!(),
            };
            wave.exec = new_exec;
            (saved, Some(new_exec != 0))
        }
        other => unreachable!("non-SOP1 opcode {other:?}"),
    };
    wave.write_scalar(sdst, op.dst_width(), value)?;
    if let Some(s) = scc {
        wave.scc = s;
    }
    Ok(())
}

fn exec_sopc(
    op: Opcode,
    wave: &mut Wavefront,
    ssrc0: Operand,
    ssrc1: Operand,
) -> Result<(), CuError> {
    use Opcode::*;
    let a = wave.read_scalar(ssrc0, 1)? as u32;
    let b = wave.read_scalar(ssrc1, 1)? as u32;
    let (ai, bi) = (a as i32, b as i32);
    wave.scc = match op {
        SCmpEqI32 => ai == bi,
        SCmpLgI32 => ai != bi,
        SCmpGtI32 => ai > bi,
        SCmpGeI32 => ai >= bi,
        SCmpLtI32 => ai < bi,
        SCmpLeI32 => ai <= bi,
        SCmpEqU32 => a == b,
        SCmpLgU32 => a != b,
        SCmpGtU32 => a > b,
        SCmpGeU32 => a >= b,
        SCmpLtU32 => a < b,
        SCmpLeU32 => a <= b,
        other => unreachable!("non-SOPC opcode {other:?}"),
    };
    Ok(())
}

fn exec_sopp(
    op: Opcode,
    wave: &mut Wavefront,
    simm16: u16,
    next_pc: usize,
) -> Result<Outcome, CuError> {
    use Opcode::*;
    let mut out = Outcome::default();
    let target = || {
        let t = next_pc as i64 + i64::from(simm16 as i16);
        usize::try_from(t).map_err(|_| CuError::PcOutOfRange { pc: 0 })
    };
    match op {
        SNop | SWaitcnt => {}
        SEndpgm => out.end = true,
        SBarrier => out.barrier = true,
        SBranch => out.new_pc = Some(target()?),
        SCbranchScc0 => {
            if !wave.scc {
                out.new_pc = Some(target()?);
            }
        }
        SCbranchScc1 => {
            if wave.scc {
                out.new_pc = Some(target()?);
            }
        }
        SCbranchVccz => {
            if wave.vcc == 0 {
                out.new_pc = Some(target()?);
            }
        }
        SCbranchVccnz => {
            if wave.vcc != 0 {
                out.new_pc = Some(target()?);
            }
        }
        SCbranchExecz => {
            if wave.exec == 0 {
                out.new_pc = Some(target()?);
            }
        }
        SCbranchExecnz => {
            if wave.exec != 0 {
                out.new_pc = Some(target()?);
            }
        }
        other => unreachable!("non-SOPP opcode {other:?}"),
    }
    Ok(out)
}

fn exec_smrd(
    op: Opcode,
    wave: &mut Wavefront,
    sdst: Operand,
    sbase: u8,
    offset: SmrdOffset,
    mem: &mut dyn Memory,
) -> Result<Outcome, CuError> {
    let base = wave.read_scalar(Operand::Sgpr(sbase), 2)? & 0xffff_ffff_ffff; // 48-bit
    let off = match offset {
        SmrdOffset::Imm(i) => u64::from(i) * 4,
        SmrdOffset::Sgpr(s) => u64::from(wave.sgpr(s.into())?),
    };
    let addr = base.wrapping_add(off);
    let n = op.dst_width();
    let first = match sdst {
        Operand::Sgpr(s) => u32::from(s),
        other => {
            // Loads into VCC/EXEC halves are legal for single-dword loads.
            let v = mem.read_u32(addr);
            wave.write_scalar(other, 1, u64::from(v))?;
            return Ok(Outcome {
                mem: Some(MemEvent::Scalar { addr }),
                ..Outcome::default()
            });
        }
    };
    for i in 0..u32::from(n) {
        let v = mem.read_u32(addr + u64::from(i) * 4);
        wave.set_sgpr(first + i, v)?;
    }
    Ok(Outcome {
        mem: Some(MemEvent::Scalar { addr }),
        ..Outcome::default()
    })
}

// ----------------------------------------------------------------- vector

/// Canonical operand view of the five vector encodings.
/// Canonical operand view of a vector instruction: the five vector
/// encodings (VOP1/VOP2/VOPC/VOP3a/VOP3b) collapsed into one shape so
/// executors need a single code path per semantic class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecOps {
    /// Destination VGPR (or SGPR number for `v_readfirstlane_b32`).
    pub vdst: u8,
    /// Up to three sources; unused slots hold `IntConst(0)`.
    pub src: [Operand; 3],
    /// Explicit scalar destination (VOP3b) — carry-out / compare mask.
    pub sdst: Option<Operand>,
    /// Explicit mask / carry-in source (VOP3 forms), otherwise VCC.
    pub mask_src: Option<Operand>,
    /// VOP3a per-source absolute-value modifier bits.
    pub abs: u8,
    /// VOP3a per-source negate modifier bits.
    pub neg: u8,
    /// VOP3a output clamp to `[0, 1]`.
    pub clamp: bool,
    /// VOP3a output multiplier (1 → ×2, 2 → ×4, 3 → ÷2).
    pub omod: u8,
}

/// Collapse a vector instruction's fields into the canonical [`VecOps`]
/// shape. Panics if `inst` is not one of the five vector encodings.
pub fn vec_ops(inst: &Instruction) -> VecOps {
    let zero = Operand::IntConst(0);
    match inst.fields {
        Fields::Vop2 { vdst, src0, vsrc1 } => VecOps {
            vdst,
            src: [src0, Operand::Vgpr(vsrc1), zero],
            sdst: None,
            mask_src: None,
            abs: 0,
            neg: 0,
            clamp: false,
            omod: 0,
        },
        Fields::Vop1 { vdst, src0 } => VecOps {
            vdst,
            src: [src0, zero, zero],
            sdst: None,
            mask_src: None,
            abs: 0,
            neg: 0,
            clamp: false,
            omod: 0,
        },
        Fields::Vopc { src0, vsrc1 } => VecOps {
            vdst: 0,
            src: [src0, Operand::Vgpr(vsrc1), zero],
            sdst: None,
            mask_src: None,
            abs: 0,
            neg: 0,
            clamp: false,
            omod: 0,
        },
        Fields::Vop3a {
            vdst,
            src0,
            src1,
            src2,
            abs,
            neg,
            clamp,
            omod,
        } => VecOps {
            vdst,
            src: [src0, src1, src2.unwrap_or(zero)],
            sdst: None,
            mask_src: src2,
            abs,
            neg,
            clamp,
            omod,
        },
        Fields::Vop3b {
            vdst,
            sdst,
            src0,
            src1,
            src2,
        } => VecOps {
            vdst,
            src: [src0, src1, src2.unwrap_or(zero)],
            sdst: Some(sdst),
            mask_src: src2,
            abs: 0,
            neg: 0,
            clamp: false,
            omod: 0,
        },
        _ => unreachable!("non-vector fields"),
    }
}

/// Apply VOP3 input modifiers to a float source.
pub fn in_mods(bits: u32, idx: u8, abs: u8, neg: u8) -> u32 {
    let mut v = bits;
    if abs & (1 << idx) != 0 {
        v &= 0x7fff_ffff;
    }
    if neg & (1 << idx) != 0 {
        v ^= 0x8000_0000;
    }
    v
}

/// Apply VOP3 output modifiers to a float result.
pub fn out_mods(bits: u32, clamp: bool, omod: u8) -> u32 {
    let mut f = fb(bits);
    match omod {
        1 => f *= 2.0,
        2 => f *= 4.0,
        3 => f /= 2.0,
        _ => {}
    }
    if clamp {
        f = f.clamp(0.0, 1.0);
    }
    tb(f)
}

fn exec_vector(inst: &Instruction, wave: &mut Wavefront) -> Result<(), CuError> {
    use Opcode::*;
    let op = inst.opcode;
    let v = vec_ops(inst);
    let is_float = op.unit() == scratch_isa::FuncUnit::Simf;

    // v_readfirstlane_b32 writes an SGPR from the first active lane.
    if op == VReadfirstlaneB32 {
        let lane = (0..WAVEFRONT_SIZE)
            .find(|&l| wave.lane_active(l))
            .unwrap_or(0);
        let val = wave.read_lane(v.src[0], lane)?;
        wave.set_sgpr(v.vdst.into(), val)?;
        return Ok(());
    }

    // Compares: build a lane mask.
    if op.is_vector_compare() {
        let mut mask_set = 0u64;
        let mut mask_clr = 0u64;
        for lane in 0..WAVEFRONT_SIZE {
            if !wave.lane_active(lane) {
                continue;
            }
            let a = wave.read_lane(v.src[0], lane)?;
            let b = wave.read_lane(v.src[1], lane)?;
            let r = compare(op, a, b);
            if r {
                mask_set |= 1 << lane;
            } else {
                mask_clr |= 1 << lane;
            }
        }
        let dst = v.sdst.unwrap_or(Operand::VccLo);
        let old = wave.read_scalar(dst, 2)?;
        wave.write_scalar(dst, 2, (old | mask_set) & !mask_clr)?;
        return Ok(());
    }

    // Carry-producing / carry-consuming integer adds.
    if op.writes_vcc_implicitly() {
        let cin_mask = if op.reads_vcc_implicitly() {
            match v.mask_src {
                Some(m) => wave.read_scalar(m, 2)?,
                None => wave.vcc,
            }
        } else {
            0
        };
        let mut cout_set = 0u64;
        let mut cout_clr = 0u64;
        for lane in 0..WAVEFRONT_SIZE {
            if !wave.lane_active(lane) {
                continue;
            }
            let a = u64::from(wave.read_lane(v.src[0], lane)?);
            let b = u64::from(wave.read_lane(v.src[1], lane)?);
            let c = cin_mask >> lane & 1;
            let full: i128 = match op {
                VAddI32 => (a + b) as i128,
                VSubI32 => a as i128 - b as i128,
                VSubrevI32 => b as i128 - a as i128,
                VAddcU32 => (a + b + c) as i128,
                VSubbU32 => a as i128 - b as i128 - c as i128,
                other => unreachable!("non-carry opcode {other:?}"),
            };
            let carry = !(0..=0xffff_ffff).contains(&full);
            if carry {
                cout_set |= 1 << lane;
            } else {
                cout_clr |= 1 << lane;
            }
            wave.set_vgpr(v.vdst.into(), lane, full as u32)?;
        }
        let dst = v.sdst.unwrap_or(Operand::VccLo);
        let old = wave.read_scalar(dst, 2)?;
        wave.write_scalar(dst, 2, (old | cout_set) & !cout_clr)?;
        return Ok(());
    }

    // v_cndmask_b32: select by mask.
    if op == VCndmaskB32 {
        let mask = match v.mask_src {
            Some(m) => wave.read_scalar(m, 2)?,
            None => wave.vcc,
        };
        for lane in 0..WAVEFRONT_SIZE {
            if !wave.lane_active(lane) {
                continue;
            }
            let a = wave.read_lane(v.src[0], lane)?;
            let b = wave.read_lane(v.src[1], lane)?;
            let r = if mask >> lane & 1 != 0 { b } else { a };
            wave.set_vgpr(v.vdst.into(), lane, r)?;
        }
        return Ok(());
    }

    // Everything else is a pure lanewise function.
    let nsrc = op.src_count() as usize;
    for lane in 0..WAVEFRONT_SIZE {
        if !wave.lane_active(lane) {
            continue;
        }
        let mut s = [0u32; 3];
        for (i, slot) in s.iter_mut().enumerate().take(nsrc.max(1)) {
            let raw = wave.read_lane(v.src[i], lane)?;
            *slot = if is_float {
                in_mods(raw, i as u8, v.abs, v.neg)
            } else {
                raw
            };
        }
        // v_mac_f32 accumulates into the destination.
        let acc = if op == VMacF32 {
            wave.vgpr(v.vdst.into(), lane)?
        } else {
            0
        };
        let mut r = lanewise(op, s, acc);
        if is_float {
            r = out_mods(r, v.clamp, v.omod);
        }
        wave.set_vgpr(v.vdst.into(), lane, r)?;
    }
    Ok(())
}

/// Evaluate one vector-compare opcode on a pair of lane values.
///
/// Only meaningful for opcodes where `Opcode::is_vector_compare()` holds;
/// any other opcode panics (callers pre-classify at translation/decode).
pub fn compare(op: Opcode, a: u32, b: u32) -> bool {
    use Opcode::*;
    let (fa, fab) = (fb(a), fb(b));
    let (ia, ib) = (a as i32, b as i32);
    match op {
        VCmpLtF32 => fa < fab,
        VCmpEqF32 => fa == fab,
        VCmpLeF32 => fa <= fab,
        VCmpGtF32 => fa > fab,
        VCmpLgF32 => fa != fab && !fa.is_nan() && !fab.is_nan(),
        VCmpGeF32 => fa >= fab,
        VCmpNeqF32 => !(fa == fab),
        VCmpLtI32 => ia < ib,
        VCmpEqI32 => ia == ib,
        VCmpLeI32 => ia <= ib,
        VCmpGtI32 => ia > ib,
        VCmpNeI32 => ia != ib,
        VCmpGeI32 => ia >= ib,
        VCmpLtU32 => a < b,
        VCmpEqU32 => a == b,
        VCmpLeU32 => a <= b,
        VCmpGtU32 => a > b,
        VCmpNeU32 => a != b,
        VCmpGeU32 => a >= b,
        other => unreachable!("non-compare opcode {other:?}"),
    }
}

/// Pure lanewise semantics (no carries, masks or accumulators besides MAC).
///
/// `s` holds up to three source values (already modifier-adjusted for float
/// ops); `acc` is the destination's prior value, consumed only by
/// `v_mac_f32`. Panics on opcodes that are not pure lanewise functions
/// (carry ops, compares, `v_cndmask_b32` — callers pre-classify).
#[allow(clippy::too_many_lines)]
pub fn lanewise(op: Opcode, s: [u32; 3], acc: u32) -> u32 {
    use Opcode::*;
    let [a, b, c] = s;
    let (ai, bi) = (a as i32, b as i32);
    let (fa, fbv, fc) = (fb(a), fb(b), fb(c));
    match op {
        // --- VOP2 / promoted ---
        VAddF32 => tb(fa + fbv),
        VSubF32 => tb(fa - fbv),
        VSubrevF32 => tb(fbv - fa),
        VMulF32 => tb(fa * fbv),
        VMulI32I24 => (sext24(a).wrapping_mul(sext24(b))) as u32,
        VMulU32U24 => ((u64::from(a & 0xff_ffff)) * u64::from(b & 0xff_ffff)) as u32,
        VMinF32 => tb(fa.min(fbv)),
        VMaxF32 => tb(fa.max(fbv)),
        VMinI32 => ai.min(bi) as u32,
        VMaxI32 => ai.max(bi) as u32,
        VMinU32 => a.min(b),
        VMaxU32 => a.max(b),
        VLshrB32 => a >> (b & 31),
        VLshrrevB32 => b >> (a & 31),
        VAshrI32 => (ai >> (b & 31)) as u32,
        VAshrrevI32 => (bi >> (a & 31)) as u32,
        VLshlB32 => a << (b & 31),
        VLshlrevB32 => b << (a & 31),
        VAndB32 => a & b,
        VOrB32 => a | b,
        VXorB32 => a ^ b,
        VMacF32 => tb(fa.mul_add(fbv, fb(acc))),
        // --- VOP1 ---
        VNop => 0,
        VMovB32 => a,
        VCvtF32I32 => tb(ai as f32),
        VCvtF32U32 => tb(a as f32),
        VCvtU32F32 => {
            if fa.is_nan() || fa <= -1.0 {
                0
            } else if fa >= u32::MAX as f32 {
                u32::MAX
            } else {
                fa as u32
            }
        }
        VCvtI32F32 => {
            if fa.is_nan() {
                0
            } else if fa >= i32::MAX as f32 {
                i32::MAX as u32
            } else if fa <= i32::MIN as f32 {
                i32::MIN as u32
            } else {
                (fa as i32) as u32
            }
        }
        VFractF32 => tb(fa - fa.floor()),
        VTruncF32 => tb(fa.trunc()),
        VCeilF32 => tb(fa.ceil()),
        VRndneF32 => {
            let r = fa.round();
            // round-half-to-even
            let v = if (fa - fa.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                r - fa.signum()
            } else {
                r
            };
            tb(v)
        }
        VFloorF32 => tb(fa.floor()),
        VExpF32 => tb(fa.exp2()),
        VLogF32 => tb(fa.log2()),
        VRcpF32 => tb(1.0 / fa),
        VRsqF32 => tb(1.0 / fa.sqrt()),
        VSqrtF32 => tb(fa.sqrt()),
        VSinF32 => tb((fa * std::f32::consts::TAU).sin()),
        VCosF32 => tb((fa * std::f32::consts::TAU).cos()),
        VNotB32 => !a,
        VBfrevB32 => a.reverse_bits(),
        VFfbhU32 => {
            if a == 0 {
                u32::MAX
            } else {
                a.leading_zeros()
            }
        }
        VFfblB32 => {
            if a == 0 {
                u32::MAX
            } else {
                a.trailing_zeros()
            }
        }
        // --- VOP3 native ---
        VMadF32 => tb(fa * fbv + fc),
        VMadI32I24 => {
            (sext24(a)
                .wrapping_mul(sext24(b))
                .wrapping_add(i64::from(c as i32))) as u32
        }
        VMadU32U24 => {
            ((u64::from(a & 0xff_ffff) * u64::from(b & 0xff_ffff)).wrapping_add(u64::from(c)))
                as u32
        }
        VBfeU32 => {
            let offset = b & 31;
            let width = c & 31;
            if width == 0 {
                0
            } else {
                (a >> offset) & ((1u64 << width) - 1) as u32
            }
        }
        VBfeI32 => {
            let offset = b & 31;
            let width = c & 31;
            if width == 0 {
                0
            } else {
                let raw = (a >> offset) & ((1u64 << width) - 1) as u32;
                let shift = 32 - width;
                (((raw << shift) as i32) >> shift) as u32
            }
        }
        VBfiB32 => (a & b) | (!a & c),
        VFmaF32 => tb(fa.mul_add(fbv, fc)),
        VAlignbitB32 => (((u64::from(b) << 32) | u64::from(a)) >> (c & 31)) as u32,
        VMin3F32 => tb(fa.min(fbv).min(fc)),
        VMin3I32 => ai.min(bi).min(c as i32) as u32,
        VMin3U32 => a.min(b).min(c),
        VMax3F32 => tb(fa.max(fbv).max(fc)),
        VMax3I32 => ai.max(bi).max(c as i32) as u32,
        VMax3U32 => a.max(b).max(c),
        VMed3F32 => {
            // NaN-safe median: f32::clamp panics when a bound is NaN, and
            // lo/hi are NaN whenever src0 or src1 is. min/max propagate the
            // non-NaN operand instead, matching the SI ALU's behaviour.
            let (lo, hi) = (fa.min(fbv), fa.max(fbv));
            tb(lo.max(hi.min(fc)))
        }
        VMed3I32 => {
            let ci = c as i32;
            let (lo, hi) = (ai.min(bi), ai.max(bi));
            ci.clamp(lo, hi) as u32
        }
        VMed3U32 => {
            let (lo, hi) = (a.min(b), a.max(b));
            c.clamp(lo, hi)
        }
        VMulLoU32 => a.wrapping_mul(b),
        VMulHiU32 => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        VMulLoI32 => ai.wrapping_mul(bi) as u32,
        VMulHiI32 => ((i64::from(ai) * i64::from(bi)) >> 32) as u32,
        other => unreachable!("unhandled lanewise opcode {other:?}"),
    }
}

// ------------------------------------------------------------------- LDS

fn exec_ds(inst: &Instruction, wave: &mut Wavefront, lds: &mut [u32]) -> Result<Outcome, CuError> {
    use Opcode::*;
    let op = inst.opcode;
    let Fields::Ds {
        vdst,
        addr,
        data0,
        data1,
        offset0,
        offset1,
        ..
    } = inst.fields
    else {
        unreachable!("non-DS fields");
    };

    let size_bytes = (lds.len() * 4) as u32;
    let index = |byte_addr: u32| -> Result<usize, CuError> {
        if byte_addr + 4 > size_bytes {
            Err(CuError::LdsOutOfRange {
                addr: byte_addr,
                size: size_bytes,
            })
        } else {
            Ok((byte_addr / 4) as usize)
        }
    };

    for lane in 0..WAVEFRONT_SIZE {
        if !wave.lane_active(lane) {
            continue;
        }
        let base = wave.vgpr(addr.into(), lane)?;
        match op {
            DsReadB32 => {
                let v = lds[index(base.wrapping_add(offset0.into()))?];
                wave.set_vgpr(vdst.into(), lane, v)?;
            }
            DsRead2B32 => {
                let v0 = lds[index(base.wrapping_add(u32::from(offset0) * 4))?];
                let v1 = lds[index(base.wrapping_add(u32::from(offset1) * 4))?];
                wave.set_vgpr(vdst.into(), lane, v0)?;
                wave.set_vgpr(u32::from(vdst) + 1, lane, v1)?;
            }
            DsWriteB32 => {
                let v = wave.vgpr(data0.into(), lane)?;
                lds[index(base.wrapping_add(offset0.into()))?] = v;
            }
            DsWrite2B32 => {
                let v0 = wave.vgpr(data0.into(), lane)?;
                let v1 = wave.vgpr(data1.into(), lane)?;
                lds[index(base.wrapping_add(u32::from(offset0) * 4))?] = v0;
                lds[index(base.wrapping_add(u32::from(offset1) * 4))?] = v1;
            }
            DsAddU32 | DsSubU32 | DsMinI32 | DsMaxI32 | DsMinU32 | DsMaxU32 | DsAndB32
            | DsOrB32 | DsXorB32 => {
                let idx = index(base.wrapping_add(offset0.into()))?;
                let d = wave.vgpr(data0.into(), lane)?;
                let old = lds[idx];
                lds[idx] = match op {
                    DsAddU32 => old.wrapping_add(d),
                    DsSubU32 => old.wrapping_sub(d),
                    DsMinI32 => (old as i32).min(d as i32) as u32,
                    DsMaxI32 => (old as i32).max(d as i32) as u32,
                    DsMinU32 => old.min(d),
                    DsMaxU32 => old.max(d),
                    DsAndB32 => old & d,
                    DsOrB32 => old | d,
                    DsXorB32 => old ^ d,
                    _ => unreachable!(),
                };
            }
            other => unreachable!("non-DS opcode {other:?}"),
        }
    }

    Ok(Outcome {
        mem: Some(MemEvent::Lds),
        ..Outcome::default()
    })
}

// ----------------------------------------------------------------- buffer

fn read_u8(mem: &mut dyn Memory, addr: u64) -> u8 {
    let word = mem.read_u32(addr & !3);
    (word >> ((addr & 3) * 8)) as u8
}

fn write_u8(mem: &mut dyn Memory, addr: u64, value: u8) {
    let aligned = addr & !3;
    let shift = (addr & 3) * 8;
    let word = mem.read_u32(aligned);
    let new = (word & !(0xff << shift)) | (u32::from(value) << shift);
    mem.write_u32(aligned, new);
}

fn exec_buffer(
    inst: &Instruction,
    wave: &mut Wavefront,
    mem: &mut dyn Memory,
) -> Result<Outcome, CuError> {
    use Opcode::*;
    let op = inst.opcode;
    let (vdata, vaddr, srsrc, soffset, imm_offset, offen) = match inst.fields {
        Fields::Mubuf {
            vdata,
            vaddr,
            srsrc,
            soffset,
            offset,
            offen,
            ..
        }
        | Fields::Mtbuf {
            vdata,
            vaddr,
            srsrc,
            soffset,
            offset,
            offen,
            ..
        } => (vdata, vaddr, srsrc, soffset, offset, offen),
        _ => unreachable!("non-buffer fields"),
    };

    // Buffer resource descriptor (V#): [0:1] 48-bit base, [2] num_records
    // in bytes (0 disables bounds checking, used by the raw templates).
    let base = wave.read_scalar(Operand::Sgpr(srsrc), 2)? & 0xffff_ffff_ffff;
    let num_records = wave.sgpr(u32::from(srsrc) + 2)?;
    let soff = wave.read_scalar(soffset, 1)? as u32;

    let width = u32::from(op.dst_width());
    let mut first_addr = None;
    let mut lanes = 0u32;

    for lane in 0..WAVEFRONT_SIZE {
        if !wave.lane_active(lane) {
            continue;
        }
        lanes += 1;
        let lane_off = if offen {
            wave.vgpr(vaddr.into(), lane)?
        } else {
            0
        };
        let offset = u64::from(soff) + u64::from(imm_offset) + u64::from(lane_off);
        let bytes = match op {
            BufferLoadUbyte | BufferLoadSbyte | BufferStoreByte => 1,
            _ => 4 * width,
        };
        let in_bounds = num_records == 0 || offset + u64::from(bytes) <= u64::from(num_records);
        let addr = base.wrapping_add(offset);
        if first_addr.is_none() {
            first_addr = Some(addr);
        }
        match op {
            BufferLoadUbyte => {
                let v = if in_bounds {
                    u32::from(read_u8(mem, addr))
                } else {
                    0
                };
                wave.set_vgpr(vdata.into(), lane, v)?;
            }
            BufferLoadSbyte => {
                let v = if in_bounds {
                    i32::from(read_u8(mem, addr) as i8) as u32
                } else {
                    0
                };
                wave.set_vgpr(vdata.into(), lane, v)?;
            }
            BufferLoadDword
            | BufferLoadDwordx2
            | BufferLoadDwordx4
            | TbufferLoadFormatX
            | TbufferLoadFormatXy
            | TbufferLoadFormatXyz
            | TbufferLoadFormatXyzw => {
                for i in 0..width {
                    let v = if in_bounds {
                        mem.read_u32(addr + u64::from(i) * 4)
                    } else {
                        0
                    };
                    wave.set_vgpr(u32::from(vdata) + i, lane, v)?;
                }
            }
            BufferStoreByte => {
                if in_bounds {
                    let v = wave.vgpr(vdata.into(), lane)?;
                    write_u8(mem, addr, v as u8);
                }
            }
            BufferStoreDword
            | BufferStoreDwordx2
            | BufferStoreDwordx4
            | TbufferStoreFormatX
            | TbufferStoreFormatXy
            | TbufferStoreFormatXyz
            | TbufferStoreFormatXyzw => {
                if in_bounds {
                    for i in 0..width {
                        let v = wave.vgpr(u32::from(vdata) + i, lane)?;
                        mem.write_u32(addr + u64::from(i) * 4, v);
                    }
                }
            }
            other => unreachable!("non-buffer opcode {other:?}"),
        }
    }

    let kind = if op.is_store() {
        AccessKind::VectorStore
    } else {
        AccessKind::VectorLoad
    };
    Ok(Outcome {
        mem: Some(MemEvent::Vector {
            kind,
            addr: first_addr.unwrap_or(base),
            lanes,
        }),
        ..Outcome::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::FixedLatencyMemory;

    fn wave() -> Wavefront {
        Wavefront::new(0, 0, 32, 16)
    }

    fn run(inst: &Instruction, wave: &mut Wavefront, mem: &mut FixedLatencyMemory) -> Outcome {
        let mut lds = vec![0u32; 64];
        execute(inst, wave.pc + inst.size_words(), wave, &mut lds, mem).unwrap()
    }

    fn sop2(op: Opcode, d: u8, a: Operand, b: Operand) -> Instruction {
        Instruction::new(
            op,
            Fields::Sop2 {
                sdst: Operand::Sgpr(d),
                ssrc0: a,
                ssrc1: b,
            },
        )
        .unwrap()
    }

    #[test]
    fn s_add_u32_carry() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_sgpr(1, u32::MAX).unwrap();
        run(
            &sop2(Opcode::SAddU32, 0, Operand::Sgpr(1), Operand::IntConst(1)),
            &mut w,
            &mut m,
        );
        assert_eq!(w.sgpr(0).unwrap(), 0);
        assert!(w.scc);
        run(
            &sop2(
                Opcode::SAddU32,
                0,
                Operand::IntConst(2),
                Operand::IntConst(3),
            ),
            &mut w,
            &mut m,
        );
        assert_eq!(w.sgpr(0).unwrap(), 5);
        assert!(!w.scc);
    }

    #[test]
    fn s_and_b64_wide() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_sgpr(2, 0xff00_ff00).unwrap();
        w.set_sgpr(3, 0x0000_ffff).unwrap();
        w.vcc = 0xffff_ffff_ffff_ffff;
        let inst = Instruction::new(
            Opcode::SAndB64,
            Fields::Sop2 {
                sdst: Operand::Sgpr(4),
                ssrc0: Operand::Sgpr(2),
                ssrc1: Operand::VccLo,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        assert_eq!(w.sgpr(4).unwrap(), 0xff00_ff00);
        assert_eq!(w.sgpr(5).unwrap(), 0x0000_ffff);
        assert!(w.scc);
    }

    #[test]
    fn s_bfe_u32() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_sgpr(1, 0b1111_0110_0000).unwrap();
        // offset 5, width 4 -> 0b1011
        let control = 5 | (4 << 16);
        run(
            &sop2(
                Opcode::SBfeU32,
                0,
                Operand::Sgpr(1),
                Operand::Literal(control),
            ),
            &mut w,
            &mut m,
        );
        assert_eq!(w.sgpr(0).unwrap(), 0b1011);
    }

    #[test]
    fn saveexec_divergence_pattern() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.vcc = 0x0000_0000_ffff_0000;
        let inst = Instruction::new(
            Opcode::SAndSaveexecB64,
            Fields::Sop1 {
                sdst: Operand::Sgpr(8),
                ssrc0: Operand::VccLo,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        // Old exec (all ones) saved to s[8:9]; exec now vcc & old.
        assert_eq!(w.sgpr(8).unwrap(), u32::MAX);
        assert_eq!(w.sgpr(9).unwrap(), u32::MAX);
        assert_eq!(w.exec, 0x0000_0000_ffff_0000);
        assert!(w.scc);
    }

    #[test]
    fn sopk_compare_and_add() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_sgpr(0, 10).unwrap();
        let cmp = Instruction::new(
            Opcode::SCmpkGtI32,
            Fields::Sopk {
                sdst: Operand::Sgpr(0),
                simm16: 5,
            },
        )
        .unwrap();
        run(&cmp, &mut w, &mut m);
        assert!(w.scc);
        let addk = Instruction::new(
            Opcode::SAddkI32,
            Fields::Sopk {
                sdst: Operand::Sgpr(0),
                simm16: -3,
            },
        )
        .unwrap();
        run(&addk, &mut w, &mut m);
        assert_eq!(w.sgpr(0).unwrap(), 7);
    }

    #[test]
    fn branches_follow_conditions() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.scc = true;
        let br = Instruction::new(Opcode::SCbranchScc1, Fields::Sopp { simm16: 5u16 }).unwrap();
        let out = run(&br, &mut w, &mut m);
        assert_eq!(out.new_pc, Some(6)); // next_pc (1) + 5
        w.scc = false;
        let out = run(&br, &mut w, &mut m);
        assert_eq!(out.new_pc, None);

        let back = Instruction::new(
            Opcode::SBranch,
            Fields::Sopp {
                simm16: (-1i16) as u16,
            },
        )
        .unwrap();
        let out = run(&back, &mut w, &mut m);
        assert_eq!(out.new_pc, Some(0));
    }

    #[test]
    fn endpgm_and_barrier_flags() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        let end = Instruction::new(Opcode::SEndpgm, Fields::Sopp { simm16: 0 }).unwrap();
        assert!(run(&end, &mut w, &mut m).end);
        let bar = Instruction::new(Opcode::SBarrier, Fields::Sopp { simm16: 0 }).unwrap();
        assert!(run(&bar, &mut w, &mut m).barrier);
    }

    #[test]
    fn smrd_loads_groups() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(256, 7);
        m.load_words(0x40, &[11, 22, 33, 44]);
        w.set_sgpr(2, 0x40).unwrap();
        w.set_sgpr(3, 0).unwrap();
        let inst = Instruction::new(
            Opcode::SLoadDwordx4,
            Fields::Smrd {
                sdst: Operand::Sgpr(8),
                sbase: 2,
                offset: SmrdOffset::Imm(0),
            },
        )
        .unwrap();
        let out = run(&inst, &mut w, &mut m);
        assert_eq!(w.sgpr(8).unwrap(), 11);
        assert_eq!(w.sgpr(11).unwrap(), 44);
        assert!(matches!(out.mem, Some(MemEvent::Scalar { addr: 0x40 })));
        // Imm offset is in dwords.
        let inst2 = Instruction::new(
            Opcode::SLoadDword,
            Fields::Smrd {
                sdst: Operand::Sgpr(0),
                sbase: 2,
                offset: SmrdOffset::Imm(2),
            },
        )
        .unwrap();
        run(&inst2, &mut w, &mut m);
        assert_eq!(w.sgpr(0).unwrap(), 33);
    }

    #[test]
    fn vector_add_respects_exec_mask() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        for lane in 0..WAVEFRONT_SIZE {
            w.set_vgpr(0, lane, lane as u32).unwrap();
        }
        w.exec = 0b1010;
        let inst = Instruction::new(
            Opcode::VAddI32,
            Fields::Vop2 {
                vdst: 1,
                src0: Operand::IntConst(10),
                vsrc1: 0,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        assert_eq!(w.vgpr(1, 0).unwrap(), 0); // masked off
        assert_eq!(w.vgpr(1, 1).unwrap(), 11);
        assert_eq!(w.vgpr(1, 2).unwrap(), 0);
        assert_eq!(w.vgpr(1, 3).unwrap(), 13);
    }

    #[test]
    fn vector_compare_writes_vcc_lanes() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        for lane in 0..WAVEFRONT_SIZE {
            w.set_vgpr(0, lane, lane as u32).unwrap();
        }
        let inst = Instruction::new(
            Opcode::VCmpGtU32,
            Fields::Vopc {
                src0: Operand::IntConst(32),
                vsrc1: 0,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        // 32 > lane for lanes 0..31.
        assert_eq!(w.vcc, 0x0000_0000_ffff_ffff);
    }

    #[test]
    fn vop3b_compare_writes_sgpr_pair() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        for lane in 0..WAVEFRONT_SIZE {
            w.set_vgpr(0, lane, lane as u32).unwrap();
        }
        let inst = Instruction::new(
            Opcode::VCmpLeU32,
            Fields::Vop3b {
                vdst: 0,
                sdst: Operand::Sgpr(14),
                src0: Operand::IntConst(62),
                src1: Operand::Vgpr(0),
                src2: None,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        // 62 <= lane for lanes 62, 63.
        assert_eq!(w.sgpr(14).unwrap(), 0);
        assert_eq!(w.sgpr(15).unwrap(), 0xc000_0000);
        assert_eq!(w.vcc, 0);
    }

    #[test]
    fn carry_chain_64bit_add() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        // lane0: lo=0xffffffff, hi=1; add (1, 0) => lo 0 carry, hi 2.
        w.set_vgpr(0, 0, u32::MAX).unwrap();
        w.set_vgpr(1, 0, 1).unwrap();
        let lo = Instruction::new(
            Opcode::VAddI32,
            Fields::Vop2 {
                vdst: 2,
                src0: Operand::IntConst(1),
                vsrc1: 0,
            },
        )
        .unwrap();
        run(&lo, &mut w, &mut m);
        assert_eq!(w.vgpr(2, 0).unwrap(), 0);
        assert_eq!(w.vcc & 1, 1);
        let hi = Instruction::new(
            Opcode::VAddcU32,
            Fields::Vop2 {
                vdst: 3,
                src0: Operand::IntConst(0),
                vsrc1: 1,
            },
        )
        .unwrap();
        run(&hi, &mut w, &mut m);
        assert_eq!(w.vgpr(3, 0).unwrap(), 2);
        assert_eq!(w.vcc & 1, 0);
    }

    #[test]
    fn cndmask_selects_by_mask() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        for lane in 0..WAVEFRONT_SIZE {
            w.set_vgpr(0, lane, 100).unwrap();
            w.set_vgpr(1, lane, 200).unwrap();
        }
        w.vcc = 0b1;
        let inst = Instruction::new(
            Opcode::VCndmaskB32,
            Fields::Vop2 {
                vdst: 2,
                src0: Operand::Vgpr(0),
                vsrc1: 1,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        assert_eq!(w.vgpr(2, 0).unwrap(), 200); // vcc bit set -> src1
        assert_eq!(w.vgpr(2, 1).unwrap(), 100);
    }

    #[test]
    fn float_ops_match_host_arithmetic() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_vgpr(0, 0, 3.5f32.to_bits()).unwrap();
        let mul = Instruction::new(
            Opcode::VMulF32,
            Fields::Vop2 {
                vdst: 1,
                src0: Operand::FloatConst(2.0),
                vsrc1: 0,
            },
        )
        .unwrap();
        run(&mul, &mut w, &mut m);
        assert_eq!(fb(w.vgpr(1, 0).unwrap()), 7.0);

        let mad = Instruction::new(
            Opcode::VMadF32,
            Fields::Vop3a {
                vdst: 2,
                src0: Operand::Vgpr(0),
                src1: Operand::Vgpr(1),
                src2: Some(Operand::Vgpr(0)),
                abs: 0,
                neg: 0,
                clamp: false,
                omod: 0,
            },
        )
        .unwrap();
        run(&mad, &mut w, &mut m);
        assert_eq!(fb(w.vgpr(2, 0).unwrap()), 3.5 * 7.0 + 3.5);
    }

    #[test]
    fn vop3_modifiers_apply() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_vgpr(0, 0, (-3.0f32).to_bits()).unwrap();
        w.set_vgpr(1, 0, 1.0f32.to_bits()).unwrap();
        // |src0| * -src1, omod x2, clamp -> clamp(-3 * -1 ... wait:
        // abs(-3)=3, neg on src1: -1; 3 * -1 = -3; omod 1 => -6; clamp => 0.
        let inst = Instruction::new(
            Opcode::VMulF32,
            Fields::Vop3a {
                vdst: 2,
                src0: Operand::Vgpr(0),
                src1: Operand::Vgpr(1),
                src2: None,
                abs: 0b01,
                neg: 0b10,
                clamp: true,
                omod: 1,
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        assert_eq!(fb(w.vgpr(2, 0).unwrap()), 0.0);
    }

    #[test]
    fn transcendental_semantics_are_base2_and_normalised() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.set_vgpr(0, 0, 3.0f32.to_bits()).unwrap();
        let exp = Instruction::new(
            Opcode::VExpF32,
            Fields::Vop1 {
                vdst: 1,
                src0: Operand::Vgpr(0),
            },
        )
        .unwrap();
        run(&exp, &mut w, &mut m);
        assert_eq!(fb(w.vgpr(1, 0).unwrap()), 8.0);

        w.set_vgpr(0, 0, 0.25f32.to_bits()).unwrap(); // sin(2pi/4) = 1
        let sin = Instruction::new(
            Opcode::VSinF32,
            Fields::Vop1 {
                vdst: 1,
                src0: Operand::Vgpr(0),
            },
        )
        .unwrap();
        run(&sin, &mut w, &mut m);
        assert!((fb(w.vgpr(1, 0).unwrap()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn readfirstlane_respects_mask() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        for lane in 0..WAVEFRONT_SIZE {
            w.set_vgpr(0, lane, lane as u32 * 10).unwrap();
        }
        w.exec = 0b1000; // first active lane = 3
        let inst = Instruction::new(
            Opcode::VReadfirstlaneB32,
            Fields::Vop1 {
                vdst: 7,
                src0: Operand::Vgpr(0),
            },
        )
        .unwrap();
        run(&inst, &mut w, &mut m);
        assert_eq!(w.sgpr(7).unwrap(), 30);
    }

    #[test]
    fn lds_read_write_atomics() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        let mut lds = vec![0u32; 64];
        w.exec = 0b11;
        w.set_vgpr(0, 0, 0).unwrap(); // lane0 addr 0
        w.set_vgpr(0, 1, 4).unwrap(); // lane1 addr 4
        w.set_vgpr(1, 0, 7).unwrap();
        w.set_vgpr(1, 1, 9).unwrap();
        let write = Instruction::new(
            Opcode::DsWriteB32,
            Fields::Ds {
                vdst: 0,
                addr: 0,
                data0: 1,
                data1: 0,
                offset0: 0,
                offset1: 0,
                gds: false,
            },
        )
        .unwrap();
        execute(&write, 2, &mut w, &mut lds, &mut m).unwrap();
        assert_eq!(lds[0], 7);
        assert_eq!(lds[1], 9);

        let add = Instruction::new(
            Opcode::DsAddU32,
            Fields::Ds {
                vdst: 0,
                addr: 0,
                data0: 1,
                data1: 0,
                offset0: 0,
                offset1: 0,
                gds: false,
            },
        )
        .unwrap();
        execute(&add, 2, &mut w, &mut lds, &mut m).unwrap();
        assert_eq!(lds[0], 14);

        let read = Instruction::new(
            Opcode::DsReadB32,
            Fields::Ds {
                vdst: 2,
                addr: 0,
                data0: 0,
                data1: 0,
                offset0: 0,
                offset1: 0,
                gds: false,
            },
        )
        .unwrap();
        execute(&read, 2, &mut w, &mut lds, &mut m).unwrap();
        assert_eq!(w.vgpr(2, 0).unwrap(), 14);
        assert_eq!(w.vgpr(2, 1).unwrap(), 18);
    }

    #[test]
    fn lds_out_of_range_detected() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        let mut lds = vec![0u32; 4]; // 16 bytes
        w.exec = 1;
        w.set_vgpr(0, 0, 16).unwrap();
        let read = Instruction::new(
            Opcode::DsReadB32,
            Fields::Ds {
                vdst: 1,
                addr: 0,
                data0: 0,
                data1: 0,
                offset0: 0,
                offset1: 0,
                gds: false,
            },
        )
        .unwrap();
        let err = execute(&read, 2, &mut w, &mut lds, &mut m).unwrap_err();
        assert!(matches!(err, CuError::LdsOutOfRange { .. }));
    }

    #[test]
    fn buffer_load_store_roundtrip() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(4096, 10);
        // Descriptor in s[4:7]: base 0x100, 1 KiB records.
        w.set_sgpr(4, 0x100).unwrap();
        w.set_sgpr(5, 0).unwrap();
        w.set_sgpr(6, 1024).unwrap();
        w.exec = 0xf;
        for lane in 0..4 {
            w.set_vgpr(0, lane, lane as u32 * 4).unwrap(); // byte offsets
            w.set_vgpr(1, lane, 1000 + lane as u32).unwrap();
        }
        let store = Instruction::new(
            Opcode::BufferStoreDword,
            Fields::Mubuf {
                vdata: 1,
                vaddr: 0,
                srsrc: 4,
                soffset: Operand::IntConst(0),
                offset: 0,
                offen: true,
                idxen: false,
                glc: false,
            },
        )
        .unwrap();
        let out = run(&store, &mut w, &mut m);
        match out.mem {
            Some(MemEvent::Vector { kind, lanes, addr }) => {
                assert_eq!(kind, AccessKind::VectorStore);
                assert_eq!(lanes, 4);
                assert_eq!(addr, 0x100);
            }
            other => panic!("unexpected mem event {other:?}"),
        }
        assert_eq!(m.read_u32(0x100), 1000);
        assert_eq!(m.read_u32(0x10c), 1003);

        let load = Instruction::new(
            Opcode::BufferLoadDword,
            Fields::Mubuf {
                vdata: 2,
                vaddr: 0,
                srsrc: 4,
                soffset: Operand::IntConst(0),
                offset: 4,
                offen: true,
                idxen: false,
                glc: false,
            },
        )
        .unwrap();
        run(&load, &mut w, &mut m);
        assert_eq!(w.vgpr(2, 0).unwrap(), 1001); // offset 4 = next element
    }

    #[test]
    fn buffer_bounds_checking() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(4096, 10);
        w.set_sgpr(4, 0).unwrap();
        w.set_sgpr(5, 0).unwrap();
        w.set_sgpr(6, 8).unwrap(); // only 8 bytes of records
        m.write_u32(8, 777);
        w.exec = 1;
        w.set_vgpr(0, 0, 8).unwrap(); // out of bounds
        let load = Instruction::new(
            Opcode::BufferLoadDword,
            Fields::Mubuf {
                vdata: 1,
                vaddr: 0,
                srsrc: 4,
                soffset: Operand::IntConst(0),
                offset: 0,
                offen: true,
                idxen: false,
                glc: false,
            },
        )
        .unwrap();
        run(&load, &mut w, &mut m);
        assert_eq!(w.vgpr(1, 0).unwrap(), 0, "OOB load returns zero");

        w.set_vgpr(1, 0, 42).unwrap();
        let store = Instruction::new(
            Opcode::BufferStoreDword,
            Fields::Mubuf {
                vdata: 1,
                vaddr: 0,
                srsrc: 4,
                soffset: Operand::IntConst(0),
                offset: 0,
                offen: true,
                idxen: false,
                glc: false,
            },
        )
        .unwrap();
        run(&store, &mut w, &mut m);
        assert_eq!(m.read_u32(8), 777, "OOB store dropped");
    }

    #[test]
    fn byte_loads_extend_correctly() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(64, 1);
        m.write_u32(0, 0x0000_80ff);
        w.set_sgpr(4, 0).unwrap();
        w.set_sgpr(5, 0).unwrap();
        w.set_sgpr(6, 0).unwrap(); // no bounds check
        w.exec = 0b11;
        w.set_vgpr(0, 0, 0).unwrap();
        w.set_vgpr(0, 1, 1).unwrap();
        let ub = Instruction::new(
            Opcode::BufferLoadUbyte,
            Fields::Mubuf {
                vdata: 1,
                vaddr: 0,
                srsrc: 4,
                soffset: Operand::IntConst(0),
                offset: 0,
                offen: true,
                idxen: false,
                glc: false,
            },
        )
        .unwrap();
        run(&ub, &mut w, &mut m);
        assert_eq!(w.vgpr(1, 0).unwrap(), 0xff);
        assert_eq!(w.vgpr(1, 1).unwrap(), 0x80);
        let sb = Instruction::new(
            Opcode::BufferLoadSbyte,
            Fields::Mubuf {
                vdata: 2,
                vaddr: 0,
                srsrc: 4,
                soffset: Operand::IntConst(0),
                offset: 0,
                offen: true,
                idxen: false,
                glc: false,
            },
        )
        .unwrap();
        run(&sb, &mut w, &mut m);
        assert_eq!(w.vgpr(2, 0).unwrap() as i32, -1);
        assert_eq!(w.vgpr(2, 1).unwrap() as i32, -128);
    }

    #[test]
    fn mul_hi_and_bfi() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.exec = 1;
        w.set_vgpr(0, 0, 0x8000_0000).unwrap();
        w.set_vgpr(1, 0, 4).unwrap();
        let mulhi = Instruction::new(
            Opcode::VMulHiU32,
            Fields::Vop3a {
                vdst: 2,
                src0: Operand::Vgpr(0),
                src1: Operand::Vgpr(1),
                src2: None,
                abs: 0,
                neg: 0,
                clamp: false,
                omod: 0,
            },
        )
        .unwrap();
        run(&mulhi, &mut w, &mut m);
        assert_eq!(w.vgpr(2, 0).unwrap(), 2);

        w.set_vgpr(3, 0, 0x0000_ffff).unwrap(); // mask
        w.set_vgpr(4, 0, 0x1234_5678).unwrap();
        w.set_vgpr(5, 0, 0xabcd_ef01).unwrap();
        let bfi = Instruction::new(
            Opcode::VBfiB32,
            Fields::Vop3a {
                vdst: 6,
                src0: Operand::Vgpr(3),
                src1: Operand::Vgpr(4),
                src2: Some(Operand::Vgpr(5)),
                abs: 0,
                neg: 0,
                clamp: false,
                omod: 0,
            },
        )
        .unwrap();
        run(&bfi, &mut w, &mut m);
        assert_eq!(w.vgpr(6, 0).unwrap(), 0xabcd_5678);
    }

    #[test]
    fn conversions_clamp() {
        let mut w = wave();
        let mut m = FixedLatencyMemory::new(0, 0);
        w.exec = 1;
        w.set_vgpr(0, 0, (-5.7f32).to_bits()).unwrap();
        let cvt = Instruction::new(
            Opcode::VCvtU32F32,
            Fields::Vop1 {
                vdst: 1,
                src0: Operand::Vgpr(0),
            },
        )
        .unwrap();
        run(&cvt, &mut w, &mut m);
        assert_eq!(w.vgpr(1, 0).unwrap(), 0);

        let cvt_i = Instruction::new(
            Opcode::VCvtI32F32,
            Fields::Vop1 {
                vdst: 1,
                src0: Operand::Vgpr(0),
            },
        )
        .unwrap();
        run(&cvt_i, &mut w, &mut m);
        assert_eq!(w.vgpr(1, 0).unwrap() as i32, -5);
    }
}
