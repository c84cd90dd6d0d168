//! Issue-stage facts decoded once per program word, and the per-wave
//! scoreboard they index.
//!
//! Every scheduling decision asks the same questions of each ready wave's
//! next instruction: which issue class and unit it needs, whether the
//! architecture has that hardware, what `s_waitcnt` targets it carries,
//! which registers it reads and writes, and how long it occupies its unit
//! and delays its dependants. None of the answers change while a kernel is
//! loaded, so [`IssueDesc`] computes them once per program word and the
//! scheduler only reads them.

use scratch_asm::KernelMeta;
use scratch_isa::{Fields, FuncUnit, Instruction, Opcode, Operand};

use crate::CuConfig;

/// Register-level dependency key for the issue scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegKey {
    S(u8),
    V(u8),
    Vcc,
    Exec,
    Scc,
    M0,
}

impl RegKey {
    /// Stable integer encoding used by [`CuSnapshot`](scratch_snap::CuSnapshot)
    /// scoreboard entries.
    fn code(self) -> u16 {
        match self {
            RegKey::S(n) => u16::from(n),
            RegKey::V(n) => 0x100 + u16::from(n),
            RegKey::Vcc => 0x200,
            RegKey::Exec => 0x201,
            RegKey::Scc => 0x202,
            RegKey::M0 => 0x203,
        }
    }

    fn from_code(code: u32) -> Option<RegKey> {
        Some(match code {
            0..=0xff => RegKey::S(code as u8),
            0x100..=0x1ff => RegKey::V((code - 0x100) as u8),
            0x200 => RegKey::Vcc,
            0x201 => RegKey::Exec,
            0x202 => RegKey::Scc,
            0x203 => RegKey::M0,
            _ => return None,
        })
    }
}

fn scalar_key(op: Operand) -> Option<RegKey> {
    match op {
        Operand::Sgpr(n) => Some(RegKey::S(n)),
        Operand::VccLo | Operand::VccHi | Operand::Vccz => Some(RegKey::Vcc),
        Operand::ExecLo | Operand::ExecHi | Operand::Execz => Some(RegKey::Exec),
        Operand::Scc => Some(RegKey::Scc),
        Operand::M0 => Some(RegKey::M0),
        _ => None,
    }
}

fn push_group(push: &mut impl FnMut(RegKey), base: RegKey, width: u8) {
    match base {
        RegKey::S(n) => (0..width).for_each(|i| push(RegKey::S(n.saturating_add(i)))),
        RegKey::V(n) => (0..width).for_each(|i| push(RegKey::V(n.saturating_add(i)))),
        other => push(other),
    }
}

/// Source registers an instruction reads (for scoreboarding).
fn source_keys(inst: &Instruction, push: &mut impl FnMut(RegKey)) {
    let op = inst.opcode;
    for src in inst.source_operands() {
        match src {
            Operand::Vgpr(r) => push(RegKey::V(r)),
            other => {
                if let Some(k) = scalar_key(other) {
                    push_group(push, k, op.src_width());
                }
            }
        }
    }
    // Vector instructions read the execute mask.
    if op.is_vector_alu() || op.is_vector_memory() || op.is_lds() {
        push(RegKey::Exec);
    }
    // Implicit VCC / SCC reads.
    if op.reads_vcc_implicitly() || op == Opcode::VCndmaskB32 {
        push(RegKey::Vcc);
    }
    match op {
        Opcode::SCselectB32
        | Opcode::SCmovB32
        | Opcode::SAddcU32
        | Opcode::SSubbU32
        | Opcode::SCbranchScc0
        | Opcode::SCbranchScc1 => push(RegKey::Scc),
        Opcode::SCbranchVccz | Opcode::SCbranchVccnz => push(RegKey::Vcc),
        Opcode::SCbranchExecz | Opcode::SCbranchExecnz => push(RegKey::Exec),
        _ => {}
    }
    // Read-modify-write destinations.
    match inst.fields {
        Fields::Sopk { sdst, .. }
            if matches!(
                op,
                Opcode::SCmpkEqI32
                    | Opcode::SCmpkLgI32
                    | Opcode::SCmpkGtI32
                    | Opcode::SCmpkGeI32
                    | Opcode::SCmpkLtI32
                    | Opcode::SCmpkLeI32
                    | Opcode::SAddkI32
                    | Opcode::SMulkI32
            ) =>
        {
            if let Some(k) = scalar_key(sdst) {
                push(k);
            }
        }
        Fields::Sop1 { sdst, .. }
            if matches!(
                op,
                Opcode::SBitset0B32 | Opcode::SBitset1B32 | Opcode::SCmovB32
            ) =>
        {
            if let Some(k) = scalar_key(sdst) {
                push(k);
            }
        }
        Fields::Vop2 { vdst, .. } if op == Opcode::VMacF32 => push(RegKey::V(vdst)),
        // Buffer stores read the data register group.
        Fields::Mubuf { vdata, .. } | Fields::Mtbuf { vdata, .. } if op.is_store() => {
            push_group(push, RegKey::V(vdata), op.dst_width());
        }
        // Buffer descriptors span four SGPRs.
        Fields::Mubuf { srsrc, .. } | Fields::Mtbuf { srsrc, .. } => {
            push_group(push, RegKey::S(srsrc), 4);
        }
        _ => {}
    }
}

/// Destination registers an instruction writes (for scoreboarding).
/// Memory-load destinations are deliberately excluded: SI software must
/// order those with `s_waitcnt`, and the timing model charges them there.
fn dest_keys(inst: &Instruction, push: &mut impl FnMut(RegKey)) {
    let op = inst.opcode;
    if op.is_memory() {
        return;
    }
    match inst.fields {
        Fields::Sop2 { sdst, .. } | Fields::Sopk { sdst, .. } | Fields::Sop1 { sdst, .. } => {
            if let Some(k) = scalar_key(sdst) {
                push_group(push, k, op.dst_width());
            }
        }
        Fields::Vop1 { vdst, .. } if op == Opcode::VReadfirstlaneB32 => push(RegKey::S(vdst)),
        Fields::Vop1 { vdst, .. } | Fields::Vop2 { vdst, .. } | Fields::Vop3a { vdst, .. } => {
            push(RegKey::V(vdst));
        }
        Fields::Vopc { .. } => push(RegKey::Vcc),
        Fields::Vop3b { vdst, sdst, .. } => {
            if !op.is_vector_compare() {
                push(RegKey::V(vdst));
            }
            if let Some(k) = scalar_key(sdst) {
                push_group(push, k, 2);
            }
        }
        _ => {}
    }
    if op.writes_scc() {
        push(RegKey::Scc);
    }
    if op.writes_vcc_implicitly() && !matches!(inst.fields, Fields::Vop3b { .. }) {
        push(RegKey::Vcc);
    }
    if matches!(
        op,
        Opcode::SAndSaveexecB64
            | Opcode::SOrSaveexecB64
            | Opcode::SXorSaveexecB64
            | Opcode::SAndn2SaveexecB64
    ) {
        push(RegKey::Exec);
    }
}

/// Marks a scoreboard slot that lives in a wave's spill list; the low bits
/// hold the register's key code.
const SPILL: u16 = 0x8000;

/// Where a wave's ready-time table keeps each register: the kernel's
/// SGPRs, then its VGPRs, then VCC, EXEC, SCC and M0. A register past the
/// kernel's budgets has no table slot. Only an instruction that writes no
/// lane can name one without faulting, so such entries are rare and live
/// in the wave's spill list, keyed by code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    sgprs: u16,
    vgprs: u16,
}

impl Layout {
    pub(crate) fn new(meta: &KernelMeta) -> Layout {
        Layout {
            sgprs: u16::from(meta.sgprs),
            vgprs: u16::from(meta.vgprs),
        }
    }

    /// Table slots per wave.
    fn len(self) -> usize {
        usize::from(self.sgprs) + usize::from(self.vgprs) + 4
    }

    fn slot(self, key: RegKey) -> u16 {
        let specials = self.sgprs + self.vgprs;
        match key {
            RegKey::S(n) if u16::from(n) < self.sgprs => u16::from(n),
            RegKey::V(n) if u16::from(n) < self.vgprs => self.sgprs + u16::from(n),
            RegKey::Vcc => specials,
            RegKey::Exec => specials + 1,
            RegKey::Scc => specials + 2,
            RegKey::M0 => specials + 3,
            past_budget => SPILL | past_budget.code(),
        }
    }

    /// Key code of a table slot (the inverse of [`Layout::slot`]).
    fn code(self, slot: u16) -> u16 {
        let specials = self.sgprs + self.vgprs;
        if slot < self.sgprs {
            RegKey::S(slot as u8).code()
        } else if slot < specials {
            RegKey::V((slot - self.sgprs) as u8).code()
        } else {
            0x200 + (slot - specials)
        }
    }
}

/// A fixed-capacity inline list of scoreboard slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slots<const N: usize> {
    len: u8,
    at: [u16; N],
}

impl<const N: usize> Slots<N> {
    fn new() -> Self {
        Slots { len: 0, at: [0; N] }
    }

    /// # Panics
    ///
    /// Past `N` slots: the capacities below bound what any encoding names.
    fn push(&mut self, slot: u16) {
        self.at[usize::from(self.len)] = slot;
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[u16] {
        &self.at[..usize::from(self.len)]
    }
}

/// Most registers one instruction reads: a buffer access names its
/// address, descriptor base and offset, EXEC, and four data or
/// descriptor registers.
const MAX_SOURCES: usize = 8;
/// Most registers one instruction writes: a 64-bit `s_*_saveexec` result
/// pair, SCC and EXEC.
const MAX_DESTS: usize = 4;

/// Issue class: the arbiter starts at most one instruction of each per
/// cycle (scalar, vector, LD/ST, branch & message — Fig. 2).
pub(crate) const ISSUE_CLASSES: usize = 4;

/// Everything the issue stage needs to know about the instruction at one
/// program word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueDesc {
    pub(crate) opcode: Opcode,
    pub(crate) unit: FuncUnit,
    pub(crate) class: u8,
    /// Issuing raises [`CuConfig::issue_error`] (a trimmed instruction or
    /// a missing unit).
    pub(crate) faults: bool,
    /// `(vmcnt, lgkmcnt)` targets of an `s_waitcnt`.
    pub(crate) waitcnt: Option<(u32, u32)>,
    /// Work-item operations scale with the active lanes.
    pub(crate) per_lane: bool,
    /// Encoding size in words: the fetch/decode cost and the pc step.
    pub(crate) words: u8,
    /// Cycles the instruction holds its unit instance.
    pub(crate) occupancy: u64,
    /// Cycles until dependants may read its results (at least 1).
    pub(crate) latency: u64,
    pub(crate) sources: Slots<MAX_SOURCES>,
    pub(crate) dests: Slots<MAX_DESTS>,
}

impl IssueDesc {
    pub(crate) fn new(inst: &Instruction, config: &CuConfig, layout: Layout) -> IssueDesc {
        let op = inst.opcode;
        let unit = op.unit();
        let beats = config.vector_beats();
        let waitcnt = match inst.fields {
            Fields::Sopp { simm16 } if op == Opcode::SWaitcnt => {
                Some((u32::from(simm16 & 0xf), u32::from((simm16 >> 8) & 0x1f)))
            }
            _ => None,
        };
        // SIMD datapaths are pipelined (one beat per cycle); the SIMF
        // maps to iterative FP cores on the FPGA, so a floating-point
        // instruction occupies its unit for the full operation latency
        // — which is why replicating SIMF units pays off so well in the
        // paper's multi-thread experiments (Fig. 7B).
        let occupancy = match unit {
            FuncUnit::Simd => beats,
            FuncUnit::Simf => beats + config.latencies.of(op),
            _ => 1,
        };
        let beat_tail = if op.is_vector_alu() { beats - 1 } else { 0 };
        let mut sources = Slots::new();
        source_keys(inst, &mut |k| sources.push(layout.slot(k)));
        let mut dests = Slots::new();
        dest_keys(inst, &mut |k| dests.push(layout.slot(k)));
        IssueDesc {
            opcode: op,
            unit,
            class: match unit {
                FuncUnit::Salu => 0,
                FuncUnit::Simd | FuncUnit::Simf => 1,
                FuncUnit::Lsu => 2,
                FuncUnit::Branch => 3,
            },
            faults: config.issue_error(op).is_some(),
            waitcnt,
            per_lane: op.is_vector_alu() || op.is_vector_memory(),
            words: inst.size_words() as u8,
            occupancy,
            latency: (config.latencies.of(op) + beat_tail).max(1),
            sources,
            dests,
        }
    }
}

/// One wave's pending register writes: the cycle each completes, by table
/// slot (0 where none is pending), plus the slots holding an entry, so
/// retiring, event scans and snapshots visit only those.
///
/// An entry is added when an instruction writing that register issues,
/// and dropped when the same wave next issues after the write completed —
/// exactly the lifetime the snapshot format records.
#[derive(Debug, Clone)]
pub(crate) struct Scoreboard {
    ready: Vec<u64>,
    live: Vec<u16>,
    /// `(key code, cycle)` entries of registers past the kernel's budgets.
    spill: Vec<(u16, u64)>,
}

impl Scoreboard {
    pub(crate) fn new(layout: Layout) -> Scoreboard {
        Scoreboard {
            ready: vec![0; layout.len()],
            live: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Latest pending write among `slots` (0 when none is pending).
    pub(crate) fn ready_at(&self, slots: &[u16]) -> u64 {
        slots.iter().fold(0, |acc, &s| {
            let t = match self.ready.get(usize::from(s)) {
                Some(&t) => t,
                None => self
                    .spill
                    .iter()
                    .find(|e| e.0 == s & !SPILL)
                    .map_or(0, |e| e.1),
            };
            acc.max(t)
        })
    }

    /// Record an issue at `now`: forget writes that completed by then,
    /// and mark `slots` as written at `done_at` (which is after `now`).
    pub(crate) fn issue(&mut self, now: u64, slots: &[u16], done_at: u64) {
        let Scoreboard { ready, live, spill } = self;
        live.retain(|&s| {
            let slot = &mut ready[usize::from(s)];
            let pending = *slot > now;
            if !pending {
                *slot = 0;
            }
            pending
        });
        spill.retain(|e| e.1 > now);
        for &s in slots {
            self.set(s, done_at);
        }
    }

    /// Set one entry, adding it if absent.
    fn set(&mut self, s: u16, t: u64) {
        match self.ready.get_mut(usize::from(s)) {
            Some(slot) => {
                if !self.live.contains(&s) {
                    self.live.push(s);
                }
                *slot = t;
            }
            None => {
                let code = s & !SPILL;
                match self.spill.iter_mut().find(|e| e.0 == code) {
                    Some(e) => e.1 = t,
                    None => self.spill.push((code, t)),
                }
            }
        }
    }

    /// Completion cycles of every entry.
    pub(crate) fn times(&self) -> impl Iterator<Item = u64> + '_ {
        let table = self.live.iter().map(|&s| self.ready[usize::from(s)]);
        table.chain(self.spill.iter().map(|e| e.1))
    }

    /// Every entry as `(key code, cycle)`, sorted (the snapshot format).
    pub(crate) fn entries(&self, layout: Layout) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .live
            .iter()
            .map(|&s| (u32::from(layout.code(s)), self.ready[usize::from(s)]))
            .chain(self.spill.iter().map(|&(c, t)| (u32::from(c), t)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Rebuild a scoreboard from [`Scoreboard::entries`] output; `None`
    /// when a code names no register.
    pub(crate) fn from_entries(layout: Layout, entries: &[(u32, u64)]) -> Option<Scoreboard> {
        let mut sb = Scoreboard::new(layout);
        for &(code, t) in entries {
            sb.set(layout.slot(RegKey::from_code(code)?), t);
        }
        Some(sb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scratch_asm::KernelBuilder;

    fn layout(sgprs: u16, vgprs: u16) -> Layout {
        Layout { sgprs, vgprs }
    }

    #[test]
    fn every_key_code_round_trips_through_the_layout() {
        let l = layout(16, 8);
        for code in 0..=0x203u32 {
            let key = RegKey::from_code(code).expect("codes up to 0x203 name registers");
            assert_eq!(u32::from(key.code()), code);
            let slot = l.slot(key);
            if slot & SPILL == 0 {
                assert!(usize::from(slot) < l.len());
                assert_eq!(u32::from(l.code(slot)), code);
            } else {
                assert_eq!(u32::from(slot & !SPILL), code);
            }
        }
        assert_eq!(RegKey::from_code(0x204), None);
    }

    #[test]
    fn widest_encodings_fit_the_inline_slot_lists() {
        let mut b = KernelBuilder::new("wide");
        b.vgprs(8).sgprs(16);
        b.mubuf(Opcode::BufferStoreDwordx4, 4, 0, 8, Operand::Sgpr(12), 0)
            .unwrap();
        b.mubuf(Opcode::BufferLoadDwordx4, 4, 0, 8, Operand::Sgpr(12), 0)
            .unwrap();
        b.sop1(Opcode::SAndSaveexecB64, Operand::Sgpr(2), Operand::Sgpr(4))
            .unwrap();
        b.endpgm().unwrap();
        let kernel = b.finish().unwrap();
        let l = Layout::new(kernel.meta());
        let descs: Vec<IssueDesc> = Instruction::decode_all(kernel.words())
            .unwrap()
            .iter()
            .map(|(_, inst)| IssueDesc::new(inst, &CuConfig::default(), l))
            .collect();
        // vaddr, s8, s12, EXEC, v4..v7 / s8..s11.
        assert_eq!(descs[0].sources.as_slice().len(), MAX_SOURCES);
        assert_eq!(descs[1].sources.as_slice().len(), MAX_SOURCES);
        // s2, s3, SCC, EXEC.
        assert_eq!(descs[2].dests.as_slice().len(), MAX_DESTS);
    }

    #[test]
    fn entries_live_until_the_next_issue_after_they_complete() {
        let l = layout(4, 4);
        let vcc = l.slot(RegKey::Vcc);
        let v1 = l.slot(RegKey::V(1));
        let past = l.slot(RegKey::V(200));
        let mut sb = Scoreboard::new(l);
        sb.issue(0, &[vcc, past], 5);
        sb.issue(1, &[v1], 3);
        assert_eq!(sb.ready_at(&[vcc, v1]), 5);
        assert_eq!(sb.ready_at(&[past]), 5);
        // Completed writes stay recorded until the wave issues again.
        assert_eq!(sb.entries(l), vec![(0x101, 3), (0x1c8, 5), (0x200, 5)]);
        sb.issue(5, &[], 0);
        assert_eq!(sb.entries(l), vec![]);
        assert_eq!(sb.times().count(), 0);
        assert_eq!(sb.ready_at(&[vcc, v1, past]), 0);
    }

    #[test]
    fn restore_keeps_every_code_and_rejects_unknown_ones() {
        let l = layout(4, 4);
        let entries = vec![(2, 7), (0x103, 9), (0x1ff, 4), (0x203, 1)];
        let sb = Scoreboard::from_entries(l, &entries).expect("known codes");
        assert_eq!(sb.entries(l), entries);
        assert!(Scoreboard::from_entries(l, &[(0x204, 1)]).is_none());
        assert!(Scoreboard::from_entries(l, &[(u32::MAX, 1)]).is_none());
    }
}
