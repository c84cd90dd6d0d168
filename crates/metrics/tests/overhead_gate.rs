//! The CI overhead gate: the always-on metrics plane must cost < 5% of
//! the simulator's cycle loop (the design target is < 2%; the gate
//! leaves headroom for shared-runner noise).
//!
//! `#[ignore]`d by default — wall-clock assertions do not belong in the
//! default test run. The `metrics-overhead` CI job executes it with
//! `cargo test -p scratch-metrics --release --test overhead_gate --
//! --ignored --nocapture --test-threads=1` (one gate at a time, so the two
//! gates do not time each other's load).
//!
//! Each gate runs the instrumented and the bare configuration back to back,
//! alternating which goes first, and gates on the median of the per-pair
//! wall-time ratios: a host that speeds up or slows down over the run then
//! moves both sides of every pair alike instead of one whole series.

use std::hint::black_box;
use std::time::Instant;

use scratch_asm::KernelBuilder;
use scratch_isa::{Opcode, Operand};
use scratch_system::{System, SystemConfig, SystemKind};

/// Dependency-free integer ALU kernel — the worst case for metrics
/// overhead because nearly every cycle is an issue decision.
fn alu_kernel() -> scratch_asm::Kernel {
    let mut b = KernelBuilder::new("alu_spin");
    b.vgprs(8).sgprs(24);
    for i in 0..200u16 {
        let dst = 1 + (i % 6) as u8;
        b.vop3a(
            Opcode::VMulLoI32,
            dst,
            Operand::Vgpr(0),
            Operand::IntConst(3),
            None,
        )
        .unwrap();
    }
    b.endpgm().unwrap();
    b.finish().unwrap()
}

fn run_once(kernel: &scratch_asm::Kernel, metrics: bool) -> u64 {
    let config = SystemConfig::preset(SystemKind::DcdPm)
        .with_workers(1)
        .with_metrics(metrics);
    let mut sys = System::new(config, kernel).unwrap();
    let out = sys.alloc(1 << 16);
    sys.set_args(&[out as u32]);
    sys.dispatch([8, 1, 1]).unwrap();
    sys.report().cu_cycles
}

/// On/off pairs per gate.
const PAIRS: usize = 301;

/// Median, over [`PAIRS`] back-to-back pairs, of the wall-time ratio of
/// `run(true)` to `run(false)`. Even pairs run the instrumented side
/// first, odd pairs the bare side.
fn median_ratio(mut run: impl FnMut(bool) -> u64) -> f64 {
    // Warm up allocators and caches on both paths.
    run(true);
    run(false);
    let mut time = |on: bool| {
        let t = Instant::now();
        black_box(run(on));
        t.elapsed().as_nanos() as f64
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (on, off) = if i % 2 == 0 {
                let on = time(true);
                (on, time(false))
            } else {
                let off = time(false);
                (time(true), off)
            };
            on / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

#[test]
#[ignore = "wall-clock gate; run by the metrics-overhead CI job"]
fn overhead_stays_under_the_gate() {
    let kernel = alu_kernel();
    let overhead = median_ratio(|on| run_once(&kernel, on)) - 1.0;
    println!(
        "metrics overhead {:.2}% (median of {PAIRS} on/off pairs)",
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "metrics overhead {:.2}% exceeds the 5% gate",
        overhead * 100.0
    );
}

#[test]
fn metrics_do_not_change_simulated_cycles() {
    let kernel = alu_kernel();
    assert_eq!(run_once(&kernel, true), run_once(&kernel, false));
}

fn run_once_profiled(kernel: &scratch_asm::Kernel, profile: bool) -> u64 {
    let config = SystemConfig::preset(SystemKind::DcdPm)
        .with_workers(1)
        .with_profile(profile);
    let mut sys = System::new(config, kernel).unwrap();
    let out = sys.alloc(1 << 16);
    sys.set_args(&[out as u32]);
    sys.dispatch([8, 1, 1]).unwrap();
    sys.report().cu_cycles
}

/// The same gate for the execution profiler (per-PC retire counters):
/// within 5% wall-clock of an unprofiled run, and — checked always, not
/// just in the gate job — bit-identical simulated cycles either way.
#[test]
#[ignore = "wall-clock gate; run by the metrics-overhead CI job"]
fn profiling_overhead_stays_under_the_gate() {
    let kernel = alu_kernel();
    let overhead = median_ratio(|on| run_once_profiled(&kernel, on)) - 1.0;
    println!(
        "profiler overhead {:.2}% (median of {PAIRS} on/off pairs)",
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "profiler overhead {:.2}% exceeds the 5% gate",
        overhead * 100.0
    );
}

/// Profiling is purely observational: identical cycle counts with the
/// per-PC counters on and off (cheap, so part of the default run).
#[test]
fn profiling_never_changes_cycles() {
    let kernel = alu_kernel();
    assert_eq!(
        run_once_profiled(&kernel, false),
        run_once_profiled(&kernel, true),
        "enabling the profiler changed the simulated cycle count"
    );
}
