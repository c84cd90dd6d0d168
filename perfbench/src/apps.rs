//! The `sim-apps` workload: the paper's 17 applications, each trimmed by
//! the trimming tool and run from a fresh system on its trimmed DCD+PM
//! design, first on the cycle tier and then on the fast tier, every run
//! validated against the application's CPU reference. No serving layer
//! is involved.

use std::time::{Duration, Instant};

use scratch_asm::Kernel;
use scratch_core::{configure, trim_kernels};
use scratch_fpga::ParallelPlan;
use scratch_kernels::Benchmark;
use scratch_system::{ExecMode, RunReport, StallReason, System, SystemConfig, SystemKind};

use crate::layers::{self, LayerValues};
use crate::os;
use crate::stats::{self, Outcome, SplitMix};
use crate::trace::Spans;
use crate::RunArgs;

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 21;

/// One application, trimmed and configured.
struct App {
    slug: String,
    bench: Box<dyn Benchmark>,
    kernels: Vec<Kernel>,
    config: SystemConfig,
}

/// Build the 17 applications, assemble their kernels and trim a DCD+PM
/// design to each.
fn set_up() -> Result<Vec<App>, String> {
    let plan = ParallelPlan {
        cus: 1,
        int_valus: 1,
        fp_valus: 1,
    };
    scratch_kernels::paper_benchmarks()
        .into_iter()
        .map(|bench| {
            let kernels = bench
                .kernels()
                .map_err(|e| format!("{}: {e}", bench.name()))?;
            let trim = trim_kernels(&kernels).map_err(|e| format!("{}: {e}", bench.name()))?;
            Ok(App {
                slug: layers::app_slug(&bench.name()),
                config: configure(SystemKind::DcdPm, plan, Some(&trim)),
                bench,
                kernels,
            })
        })
        .collect()
}

/// One application's run on both tiers.
struct AppRun {
    app: usize,
    cycle_s: f64,
    fast_s: f64,
    cycle: Option<RunReport>,
    fast_instructions: u64,
}

/// Run one workload pass of `sim-apps`.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut apps = Vec::new();
    for _ in 0..SETUPS {
        let begun = Instant::now();
        apps = set_up()?;
        setup_times.push(begun.elapsed().as_secs_f64());
    }
    let mut rng = SplitMix::new(args.seed);
    let mut order: Vec<usize> = (0..apps.len()).collect();

    let mut spans = Spans::new(args.trace);
    let mut runs: Vec<AppRun> = Vec::new();
    let mut failed = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cpu0 = os::process_cpu_s();
    let started = Instant::now();
    let mut first_round: Vec<Option<(u64, u64)>> = vec![None; apps.len()];
    let mut round_s = Vec::new();
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        // Each round runs the 17 applications in a fresh seeded order.
        let round_begun = Instant::now();
        rng.shuffle(&mut order);
        for &a in &order {
            let app = &apps[a];
            let job = round * apps.len() as u64 + a as u64;
            let t0 = Instant::now();
            let cycle = app.bench.run(app.config.clone());
            let t1 = Instant::now();
            let fast = app.bench.run(app.config.clone().with_exec(ExecMode::Fast));
            let t2 = Instant::now();
            let root = spans.record("sim.app", t0, t2, None, job);
            spans.record("cu.app", t0, t1, Some(root), job);
            spans.record("fastpath.app", t1, t2, Some(root), job);
            let ok = match (&cycle, &fast) {
                (Ok(c), Ok(f)) => {
                    let counts = (c.cu_cycles, c.instructions());
                    let first = *first_round[a].get_or_insert(counts);
                    // Both tiers retire the same instructions, and the
                    // modelled design takes the same cycles every round.
                    f.instructions() == c.instructions() && counts == first
                }
                _ => false,
            };
            if !ok {
                failed += 1;
                eprintln!(
                    "sim-apps: {} failed: cycle {:?}, fast {:?}",
                    app.slug,
                    cycle.as_ref().map(|r| (r.cu_cycles, r.instructions())),
                    fast.as_ref().map(RunReport::instructions)
                );
            }
            runs.push(AppRun {
                app: a,
                cycle_s: (t1 - t0).as_secs_f64(),
                fast_s: (t2 - t1).as_secs_f64(),
                fast_instructions: fast.as_ref().map_or(0, RunReport::instructions),
                cycle: cycle.ok(),
            });
        }
        round_s.push(round_begun.elapsed().as_secs_f64());
        round += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cpu = os::process_cpu_s() - cpu0;

    let jobs = runs.len() as f64;
    let cycle_instr: u64 = runs
        .iter()
        .filter_map(|r| r.cycle.as_ref())
        .map(RunReport::instructions)
        .sum();
    let fast_instr: u64 = runs.iter().map(|r| r.fast_instructions).sum();
    let cycle_s: f64 = runs.iter().map(|r| r.cycle_s).sum();
    let fast_s: f64 = runs.iter().map(|r| r.fast_s).sum();
    let sim_cycles: u64 = first_round.iter().flatten().map(|(c, _)| c).sum();
    let setup_s = stats::median(&setup_times);
    let jobs_per_s = jobs / elapsed;
    // The latency of the whole job list: a median over all app jobs would
    // land on whichever app ranks ninth, from 4 ms poolings to 1 s CNNs.
    let latency_p50 = stats::median(&round_s) * 1e6;
    let cpu_ms_per_job = cpu * 1e3 / jobs;
    println!(
        "sim-apps: {} app runs in {elapsed:.3} s ({round} rounds of {}), {failed} failed",
        runs.len(),
        apps.len()
    );
    println!("{}", stats::latency_line("round", "s", &round_s));

    let mut outcome = Outcome {
        correct: true,
        attempted: runs.len() as u64,
        failed,
        metrics: Vec::new(),
    };
    if !args.trace {
        outcome.push("setup_s", setup_s, "s");
        outcome.push("jobs_per_s", jobs_per_s, "jobs/s");
        outcome.push("latency_p50_us", latency_p50, "us");
        outcome.push("cpu_ms_per_job", cpu_ms_per_job, "ms");
        outcome.push("sim_instr_per_s", cycle_instr as f64 / cycle_s, "instr/s");
        outcome.push("fast_instr_per_s", fast_instr as f64 / fast_s, "instr/s");
        outcome.push("sim_cycles", sim_cycles as f64, "cycles");
        outcome.push("peak_rss_mib", os::peak_rss_kib()? as f64 / 1024.0, "MiB");
        return Ok(outcome);
    }

    println!(
        "traced end-to-end: jobs_per_s {jobs_per_s:.4}, latency_p50_us {latency_p50:.1}, \
         cpu_ms_per_job {cpu_ms_per_job:.3}, setup_s {setup_s:.6}"
    );
    let mut v = LayerValues::default();
    let (mut instructions, mut cycles, mut stalls) = (0u64, 0u64, [0u64; 6]);
    let (mut dispatches, mut dispatch_s) = (0u64, 0.0f64);
    println!(
        "  {:<28} {:>10} {:>10} {:>12} {:>12} {:>6}",
        "app", "cycle ms", "fast ms", "cycles", "instr", "ipc"
    );
    for (a, app) in apps.iter().enumerate() {
        let mine: Vec<&AppRun> = runs.iter().filter(|r| r.app == a).collect();
        let cu_ms = stats::median(&mine.iter().map(|r| r.cycle_s * 1e3).collect::<Vec<_>>());
        let fast_ms = stats::median(&mine.iter().map(|r| r.fast_s * 1e3).collect::<Vec<_>>());
        v.set(&format!("cu.app_ms.{}", app.slug), cu_ms);
        v.set(&format!("fastpath.app_ms.{}", app.slug), fast_ms);
        for r in &mine {
            if let Some(rep) = &r.cycle {
                dispatches += rep.per_kernel_dispatches.iter().sum::<u64>();
                dispatch_s += r.cycle_s;
            }
        }
        if let Some(rep) = mine.first().and_then(|r| r.cycle.as_ref()) {
            instructions += rep.instructions();
            cycles += rep.cu_cycles;
            for (slot, reason) in StallReason::WAVE_RESIDENT.iter().enumerate() {
                stalls[slot] += rep.stats.stall_cycles.get(reason).copied().unwrap_or(0);
            }
            println!(
                "  {:<28} {cu_ms:>10.2} {fast_ms:>10.2} {:>12} {:>12} {:>6.3}",
                app.slug,
                rep.cu_cycles,
                rep.instructions(),
                rep.instructions() as f64 / rep.cu_cycles.max(1) as f64
            );
        }
    }
    v.set_cu(instructions, cycles, &stalls);
    v.set(
        "cu.dispatch_us",
        dispatch_s * 1e6 / dispatches.max(1) as f64,
    );
    // The system layer on this workload: a fresh trimmed system per app.
    let mut build_us = 0.0;
    for (a, app) in apps.iter().enumerate() {
        let t0 = Instant::now();
        let sys = System::with_kernels(app.config.clone(), &app.kernels)
            .map_err(|e| format!("{}: {e}", app.slug))?;
        let t1 = Instant::now();
        drop(sys);
        spans.record("system.build", t0, t1, None, a as u64);
        build_us += (t1 - t0).as_secs_f64() * 1e6;
    }
    v.set("system.build_us", build_us / apps.len() as f64);
    let path = crate::out_dir()?.join(format!("sim-apps-seed{}.spans.jsonl", args.seed));
    std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    layers::fill(&mut outcome, &v);
    Ok(outcome)
}
