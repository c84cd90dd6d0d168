//! Cross-configuration oracles.
//!
//! Each oracle runs the same generated kernel through two independent
//! paths and demands agreement on everything architecturally observable.
//! A kernel that makes any pair disagree is a bug in one of the paths —
//! the differential analogue of the paper's instruction-domain validation
//! (§2.3), where the bug-fixed MIAOW CU is checked against a reference
//! implementation instruction class by instruction class.

use std::fmt;

use scratch_asm::assemble;
use scratch_core::trim_kernel;
use scratch_cu::CuConfig;
use scratch_isa::Opcode;
use scratch_system::{
    DispatchProgress, ExecMode, System, SystemCheckpoint, SystemConfig, SystemKind,
};

use crate::gen::{GenKernel, OUT_PAGE_BYTES};
use crate::interp::{InjectedBug, RefSystem};
use crate::minimal_instruction;

/// Number of workgroups the parallel oracle launches (spread over 4 CUs).
const PAR_WGS: u32 = 8;

/// The six differential oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Pipelined CU vs the lockstep reference interpreter: final output
    /// memory must match word for word.
    Reference,
    /// Untrimmed CU vs a CU trimmed to the kernel's own instruction set:
    /// identical results, and an out-of-set instruction must hard-fault.
    Trim,
    /// Serial engine vs `with_workers(4)` over 4 CUs: identical memory
    /// *and* identical cycle counts (determinism claim).
    Parallel,
    /// Assemble → disassemble → reassemble must be bit-exact, twice.
    Roundtrip,
    /// Uninterrupted dispatch vs a preemptible dispatch whose checkpoint
    /// is serialised, decoded and restored between every quantum:
    /// identical memory *and* identical cycle counts. The same slicing
    /// resumed in place must also take byte-identical checkpoints.
    Checkpoint,
    /// Cycle pipeline vs the block-compiled fast tier
    /// ([`ExecMode::Fast`]) vs the self-checking shadow tier
    /// ([`ExecMode::FastWithTiming`]): identical output words across all
    /// three, and the shadow tier's cycle count must equal the pure cycle
    /// run's.
    Fastpath,
}

impl OracleKind {
    /// All oracles, in reporting order.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::Reference,
        OracleKind::Trim,
        OracleKind::Parallel,
        OracleKind::Roundtrip,
        OracleKind::Checkpoint,
        OracleKind::Fastpath,
    ];

    /// Stable command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Reference => "reference",
            OracleKind::Trim => "trim",
            OracleKind::Parallel => "parallel",
            OracleKind::Roundtrip => "roundtrip",
            OracleKind::Checkpoint => "checkpoint",
            OracleKind::Fastpath => "fastpath",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<OracleKind> {
        OracleKind::ALL.into_iter().find(|o| o.name() == s)
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of running one oracle on one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Both paths agreed.
    Agree,
    /// The paths disagreed; the payload describes the first difference.
    Diverge(String),
    /// The case could not be evaluated (e.g. a minimizer mutation no
    /// longer assembles). Treated as agreement by the fuzz loop.
    Skip(String),
}

impl Outcome {
    /// `true` for [`Outcome::Diverge`].
    #[must_use]
    pub fn is_divergence(&self) -> bool {
        matches!(self, Outcome::Diverge(_))
    }
}

/// Run `oracle` on `gk` with faithful reference semantics.
#[must_use]
pub fn check(oracle: OracleKind, gk: &GenKernel) -> Outcome {
    check_with_bug(oracle, gk, InjectedBug::None)
}

/// Run `oracle` on `gk` with a deliberate semantic mutation injected into
/// the reference interpreter (validates the fuzzer's detection and
/// minimization machinery; only the reference oracle consults `bug`).
#[must_use]
pub fn check_with_bug(oracle: OracleKind, gk: &GenKernel, bug: InjectedBug) -> Outcome {
    match oracle {
        OracleKind::Reference => reference(gk, bug),
        OracleKind::Trim => trim(gk),
        OracleKind::Parallel => parallel(gk),
        OracleKind::Roundtrip => roundtrip(gk),
        OracleKind::Checkpoint => checkpoint(gk),
        OracleKind::Fastpath => fastpath(gk),
    }
}

/// Run the kernel on the reference interpreter: returns the output words
/// or the error message.
fn run_reference(gk: &GenKernel, bug: InjectedBug) -> Result<Vec<u32>, String> {
    let kernel = gk.build().map_err(|e| format!("build: {e}"))?;
    let mut sys = RefSystem::new(&kernel).map_err(|e| e.to_string())?;
    sys.bug = bug;
    let out = sys.alloc(gk.out_bytes());
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    sys.dispatch([gk.wgs, 1, 1]).map_err(|e| e.to_string())?;
    Ok(sys.read_words(out, (gk.out_bytes() / 4) as usize))
}

/// Run the kernel on the system under test with `config`: returns the
/// output words and cycle count, or the error message.
fn run_system(
    gk: &GenKernel,
    config: SystemConfig,
    wgs: u32,
    out_bytes: u64,
) -> Result<(Vec<u32>, u64), String> {
    let kernel = gk.build().map_err(|e| format!("build: {e}"))?;
    let mut sys = System::new(config, &kernel).map_err(|e| e.to_string())?;
    let out = sys.alloc(out_bytes);
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    let cycles = sys.dispatch([wgs, 1, 1]).map_err(|e| e.to_string())?;
    Ok((sys.read_words(out, (out_bytes / 4) as usize), cycles))
}

/// First differing word between two equally-sized buffers.
fn first_mismatch(a: &[u32], b: &[u32]) -> Option<(usize, u32, u32)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find(|&(_, (x, y))| x != y)
        .map(|(i, (&x, &y))| (i, x, y))
}

fn reference(gk: &GenKernel, bug: InjectedBug) -> Outcome {
    if gk.build().is_err() {
        return Outcome::Skip("kernel does not assemble".into());
    }
    let reference = run_reference(gk, bug);
    let cu = run_system(
        gk,
        SystemConfig::preset(SystemKind::DcdPm),
        gk.wgs,
        gk.out_bytes(),
    );
    match (reference, cu) {
        (Ok(r), Ok((c, _))) => match first_mismatch(&r, &c) {
            None => Outcome::Agree,
            Some((i, rv, cv)) => {
                Outcome::Diverge(format!("out[{i}]: reference={rv:#010x} cu={cv:#010x}"))
            }
        },
        (Err(_), Err(_)) => Outcome::Agree,
        (Err(e), Ok(_)) => Outcome::Diverge(format!("reference faulted, CU ran: {e}")),
        (Ok(_), Err(e)) => Outcome::Diverge(format!("CU faulted, reference ran: {e}")),
    }
}

fn trim(gk: &GenKernel) -> Outcome {
    let Ok(kernel) = gk.build() else {
        return Outcome::Skip("kernel does not assemble".into());
    };
    let Ok(report) = trim_kernel(&kernel) else {
        return Outcome::Skip("kernel does not trim".into());
    };
    let untrimmed = run_system(
        gk,
        SystemConfig::preset(SystemKind::DcdPm),
        gk.wgs,
        gk.out_bytes(),
    );
    let trimmed_cu = CuConfig {
        trim: Some(report.kept.clone()),
        ..CuConfig::default()
    };
    let trimmed = run_system(
        gk,
        SystemConfig::preset(SystemKind::DcdPm).with_cu_config(trimmed_cu),
        gk.wgs,
        gk.out_bytes(),
    );
    match (untrimmed, trimmed) {
        (Ok((u, _)), Ok((t, _))) => {
            if let Some((i, uv, tv)) = first_mismatch(&u, &t) {
                return Outcome::Diverge(format!(
                    "out[{i}]: untrimmed={uv:#010x} trimmed={tv:#010x}"
                ));
            }
            must_fault(gk, &report.kept)
        }
        (Err(_), Err(_)) => Outcome::Agree,
        (Err(e), Ok(_)) => Outcome::Diverge(format!("untrimmed faulted, trimmed ran: {e}")),
        (Ok(_), Err(e)) => Outcome::Diverge(format!("trimmed faulted, untrimmed ran: {e}")),
    }
}

/// An instruction outside the trim set must be a hard fault on the
/// trimmed architecture ("the sub-units no longer exist").
fn must_fault(gk: &GenKernel, kept: &scratch_cu::TrimSet) -> Outcome {
    let Some(outside) = Opcode::ALL
        .iter()
        .copied()
        .find(|op| !kept.contains(*op) && *op != Opcode::SEndpgm)
    else {
        return Outcome::Agree; // kernel uses the whole ISA; nothing to check
    };
    let mut b = scratch_asm::KernelBuilder::new("must_fault");
    // Budget must cover the launch ABI image (WG ids land in s16..s18).
    b.sgprs(24).vgprs(8).workgroup_size(64);
    b.push(minimal_instruction(outside));
    if b.endpgm().is_err() {
        return Outcome::Skip("must-fault probe does not assemble".into());
    }
    let Ok(kernel) = b.finish() else {
        return Outcome::Skip("must-fault probe does not assemble".into());
    };
    let cu = CuConfig {
        trim: Some(kept.clone()),
        ..CuConfig::default()
    };
    let config = SystemConfig::preset(SystemKind::DcdPm).with_cu_config(cu);
    let mut sys = match System::new(config, &kernel) {
        Ok(s) => s,
        Err(e) => {
            // Rejected before launch is acceptable as long as the cause is
            // the trim set.
            return fault_outcome(gk, outside, &e.to_string());
        }
    };
    sys.set_args(&[0]);
    match sys.dispatch([1, 1, 1]) {
        Err(e) => fault_outcome(gk, outside, &e.to_string()),
        Ok(_) => Outcome::Diverge(format!(
            "{outside:?} is outside the trim set but the trimmed CU executed it (seed {:#x})",
            gk.seed
        )),
    }
}

fn fault_outcome(gk: &GenKernel, outside: Opcode, msg: &str) -> Outcome {
    if msg.contains("trimmed") {
        Outcome::Agree
    } else {
        Outcome::Diverge(format!(
            "{outside:?} outside the trim set faulted with an unrelated error \
             (seed {:#x}): {msg}",
            gk.seed
        ))
    }
}

fn parallel(gk: &GenKernel) -> Outcome {
    if gk.build().is_err() {
        return Outcome::Skip("kernel does not assemble".into());
    }
    let out_bytes = u64::from(PAR_WGS) * OUT_PAGE_BYTES;
    let config = |workers: usize| -> Result<SystemConfig, String> {
        Ok(SystemConfig::preset(SystemKind::DcdPm)
            .with_cus(4)
            .map_err(|e| e.to_string())?
            .with_workers(workers))
    };
    let serial = config(1).and_then(|c| run_system(gk, c, PAR_WGS, out_bytes));
    let threaded = config(4).and_then(|c| run_system(gk, c, PAR_WGS, out_bytes));
    match (serial, threaded) {
        (Ok((s, sc)), Ok((t, tc))) => {
            if let Some((i, sv, tv)) = first_mismatch(&s, &t) {
                return Outcome::Diverge(format!(
                    "out[{i}]: workers=1 {sv:#010x} workers=4 {tv:#010x}"
                ));
            }
            if sc != tc {
                return Outcome::Diverge(format!(
                    "cycle counts differ: workers=1 {sc} workers=4 {tc}"
                ));
            }
            Outcome::Agree
        }
        (Err(_), Err(_)) => Outcome::Agree,
        (Err(e), Ok(_)) => Outcome::Diverge(format!("workers=1 faulted, workers=4 ran: {e}")),
        (Ok(_), Err(e)) => Outcome::Diverge(format!("workers=4 faulted, workers=1 ran: {e}")),
    }
}

fn roundtrip(gk: &GenKernel) -> Outcome {
    let Ok(kernel) = gk.build() else {
        return Outcome::Skip("kernel does not assemble".into());
    };
    let mut words = kernel.words().to_vec();
    let mut text = match kernel.disassemble() {
        Ok(t) => t,
        Err(e) => return Outcome::Diverge(format!("disassembly failed: {e}")),
    };
    // Two full trips: the second catches printers that are stable only on
    // builder-produced kernels and not on their own parser's output.
    for trip in 1..=2 {
        let re = match assemble(&text) {
            Ok(k) => k,
            Err(e) => return Outcome::Diverge(format!("trip {trip}: reassembly failed: {e}")),
        };
        if let Some((i, a, b)) = first_mismatch(&words, re.words()) {
            return Outcome::Diverge(format!(
                "trip {trip}: word {i} differs: original={a:#010x} reassembled={b:#010x}"
            ));
        }
        words = re.words().to_vec();
        text = match re.disassemble() {
            Ok(t) => t,
            Err(e) => return Outcome::Diverge(format!("trip {trip}: re-disassembly failed: {e}")),
        };
    }
    Outcome::Agree
}

/// Same kernel through all three execution tiers: the cycle pipeline,
/// the block-compiled fast tier, and the self-checking shadow tier (which
/// runs both and cross-verifies every written byte internally). Output
/// words must be identical everywhere; the shadow tier must reproduce the
/// pure cycle run's cycle count exactly.
fn fastpath(gk: &GenKernel) -> Outcome {
    if gk.build().is_err() {
        return Outcome::Skip("kernel does not assemble".into());
    }
    let config = |exec| SystemConfig::preset(SystemKind::DcdPm).with_exec(exec);
    let cycle = run_system(gk, config(ExecMode::Cycle), gk.wgs, gk.out_bytes());
    let fast = run_system(gk, config(ExecMode::Fast), gk.wgs, gk.out_bytes());
    let shadow = run_system(gk, config(ExecMode::FastWithTiming), gk.wgs, gk.out_bytes());
    match (cycle, fast, shadow) {
        (Ok((cw, cc)), Ok((fw, _)), Ok((sw, sc))) => {
            if let Some((i, cv, fv)) = first_mismatch(&cw, &fw) {
                return Outcome::Diverge(format!("out[{i}]: cycle={cv:#010x} fast={fv:#010x}"));
            }
            if let Some((i, cv, sv)) = first_mismatch(&cw, &sw) {
                return Outcome::Diverge(format!(
                    "out[{i}]: cycle={cv:#010x} fast-timing={sv:#010x}"
                ));
            }
            if cc != sc {
                return Outcome::Diverge(format!(
                    "cycle counts differ: cycle {cc} fast-timing {sc}"
                ));
            }
            Outcome::Agree
        }
        (Err(_), Err(_), Err(_)) => Outcome::Agree,
        (c, f, s) => {
            let describe = |name: &str, r: &Result<(Vec<u32>, u64), String>| match r {
                Ok(_) => format!("{name} ran"),
                Err(e) => format!("{name} faulted: {e}"),
            };
            Outcome::Diverge(format!(
                "fault behaviour differs across tiers: {}; {}; {}",
                describe("cycle", &c),
                describe("fast", &f),
                describe("fast-timing", &s)
            ))
        }
    }
}

/// How [`run_checkpointed`] continues a paused dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resume {
    /// The paused system resumes itself, as a served job does between
    /// quanta.
    InPlace,
    /// A fresh system is rebuilt from the decoded checkpoint, as a job
    /// recovered from the write-ahead log is.
    Restored,
}

/// What a sliced run produced: its output words, its total cycle count,
/// and the snap bytes of the checkpoint taken at every pause.
type SlicedRun = (Vec<u32>, u64, Vec<Vec<u8>>);

/// Run the kernel as a preemptible dispatch in `quantum`-cycle slices.
/// Between every pair of quanta the whole machine is checkpointed. With
/// [`Resume::Restored`] the checkpoint is pushed through *both* wire
/// formats (the snap binary codec, then JSON), the live [`System`] is
/// dropped, and a fresh one is rebuilt from the decoded checkpoint — so
/// any state the serialisers lose shows up as a divergence. With
/// [`Resume::InPlace`] the paused system resumes itself, so comparing
/// the two runs' checkpoints proves that a restored system is the one it
/// was captured from.
fn run_checkpointed(gk: &GenKernel, quantum: u64, resume: Resume) -> Result<SlicedRun, String> {
    let kernel = gk.build().map_err(|e| format!("build: {e}"))?;
    let config = SystemConfig::preset(SystemKind::DcdPm);
    let mut sys = System::new(config, &kernel).map_err(|e| e.to_string())?;
    let out = sys.alloc(gk.out_bytes());
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    let mut progress = sys
        .dispatch_preemptible([gk.wgs, 1, 1], quantum)
        .map_err(|e| e.to_string())?;
    let mut checkpoints = Vec::new();
    loop {
        match progress {
            DispatchProgress::Complete { cycles } => {
                let words = sys.read_words(out, (gk.out_bytes() / 4) as usize);
                return Ok((words, cycles, checkpoints));
            }
            DispatchProgress::Paused => {
                let ck = sys.checkpoint().map_err(|e| e.to_string())?;
                let bytes = scratch_snap::to_bytes(&ck);
                if resume == Resume::Restored {
                    drop(sys);
                    let decoded: SystemCheckpoint = scratch_snap::from_bytes(&bytes)
                        .map_err(|e| format!("snap decode: {e}"))?;
                    let json =
                        serde_json::to_string(&decoded).map_err(|e| format!("json encode: {e}"))?;
                    let decoded: SystemCheckpoint =
                        serde_json::from_str(&json).map_err(|e| format!("json decode: {e}"))?;
                    sys = System::restore(&decoded, None).map_err(|e| e.to_string())?;
                }
                checkpoints.push(bytes);
                progress = sys.resume_dispatch(quantum).map_err(|e| e.to_string())?;
            }
        }
    }
}

/// The first difference between a restored and an in-place run of the
/// same slicing: checkpoint bytes, output words or cycle count.
fn in_place_mismatch(restored: &SlicedRun, in_place: &SlicedRun) -> Option<String> {
    let (r_words, r_cycles, r_cks) = restored;
    let (p_words, p_cycles, p_cks) = in_place;
    if r_cks.len() != p_cks.len() {
        return Some(format!(
            "checkpoint counts differ: restored {} in place {}",
            r_cks.len(),
            p_cks.len()
        ));
    }
    if let Some(k) = r_cks.iter().zip(p_cks).position(|(r, p)| r != p) {
        let at = r_cks[k].iter().zip(&p_cks[k]).position(|(r, p)| r != p);
        return Some(format!(
            "checkpoint {k} differs: restored {} bytes, in place {} bytes, first at {at:?}",
            r_cks[k].len(),
            p_cks[k].len()
        ));
    }
    if let Some((i, rv, pv)) = first_mismatch(r_words, p_words) {
        return Some(format!("out[{i}]: restored={rv:#010x} in place={pv:#010x}"));
    }
    (r_cycles != p_cycles)
        .then(|| format!("cycle counts differ: restored {r_cycles} in place {p_cycles}"))
}

fn checkpoint(gk: &GenKernel) -> Outcome {
    if gk.build().is_err() {
        return Outcome::Skip("kernel does not assemble".into());
    }
    let uninterrupted = run_system(
        gk,
        SystemConfig::preset(SystemKind::DcdPm),
        gk.wgs,
        gk.out_bytes(),
    );
    let (ref_words, ref_cycles) = match uninterrupted {
        Ok(r) => r,
        Err(e) => {
            // A kernel the system rejects must be rejected by the
            // preemptible path too, whatever the slicing and however it
            // resumes.
            for resume in [Resume::Restored, Resume::InPlace] {
                if run_checkpointed(gk, 1024, resume).is_ok() {
                    return Outcome::Diverge(format!(
                        "uninterrupted faulted, checkpointed ({resume:?}) ran: {e}"
                    ));
                }
            }
            return Outcome::Agree;
        }
    };
    // A third of the uninterrupted run per slice forces at least two
    // checkpoint/restore round-trips through both serialisation formats.
    let quantum = (ref_cycles / 3).max(1);
    let restored = match run_checkpointed(gk, quantum, Resume::Restored) {
        Err(e) => return Outcome::Diverge(format!("uninterrupted ran, checkpointed faulted: {e}")),
        Ok(run) => run,
    };
    let (words, cycles, _) = &restored;
    if let Some((i, uv, cv)) = first_mismatch(&ref_words, words) {
        return Outcome::Diverge(format!(
            "out[{i}]: uninterrupted={uv:#010x} checkpointed={cv:#010x}"
        ));
    }
    if *cycles != ref_cycles {
        return Outcome::Diverge(format!(
            "cycle counts differ: uninterrupted {ref_cycles} checkpointed {cycles}"
        ));
    }
    // The same slicing resumed in place must take the very same
    // checkpoints: the daemon journals in-place checkpoints and recovery
    // restores them.
    match run_checkpointed(gk, quantum, Resume::InPlace) {
        Err(e) => Outcome::Diverge(format!("restored ran, in place faulted: {e}")),
        Ok(in_place) => match in_place_mismatch(&restored, &in_place) {
            Some(why) => Outcome::Diverge(why),
            None => Outcome::Agree,
        },
    }
}
