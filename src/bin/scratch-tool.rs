//! `scratch-tool` — the command-line face of the SCRATCH framework:
//! assemble Southern Islands kernels, inspect them, run the trimming tool,
//! and execute them on the simulated soft-GPGPU.
//!
//! ```text
//! scratch-tool assemble <file.s> [-o out.kernel.json]
//! scratch-tool disasm   <file.kernel.json | file.s>
//! scratch-tool analyze  <file.s>
//! scratch-tool trim     <file.s>
//! scratch-tool run      <file.s> [--system original|dcd|dcdpm] [--wgs N] [--out-words N]
//!                       [--jobs N] [--exec cycle|fast|fast-timing] [--metrics] [--metrics-out FILE]
//! scratch-tool profile  <file.s> [--system original|dcd|dcdpm] [--wgs N] [--exec cycle|fast]
//!                       [--json]
//! scratch-tool trace    [<file.s>] [--system original|dcd|dcdpm|all] [--n N] [--out DIR]
//! scratch-tool fuzz     [--seed S] [--cases N]
//!                       [--oracle reference|trim|parallel|roundtrip|checkpoint|fastpath|all]
//!                       [--metrics-addr HOST:PORT]
//! scratch-tool serve-metrics [--addr HOST:PORT] [--once]
//! scratch-tool serve    [--addr HOST:PORT] [--workers N] [--queue-cap N] [--tenant-cap N]
//!                       [--rate R] [--burst B] [--quantum CYCLES] [--metrics-addr HOST:PORT]
//!                       [--spans] [--spans-out FILE] [--spans-chrome FILE] [--profile]
//!                       [--wal-dir DIR] [--wal-fsync always|never|MS] [--wal-segment-bytes N]
//!                       [--idle-timeout-ms N]
//! scratch-tool load     [--addr HOST:PORT] [--clients 1,2,4,...] [--duration-ms N]
//!                       [--seed S] [--kernels N] [--tenants N] [--out FILE]
//! scratch-tool ctl      ping|stats|top|drain|cancel <job> [--addr HOST:PORT]
//! scratch-tool wal      inspect <dir> [--limit N] | verify <dir> [--json]
//! scratch-tool chaos    [--seed S] [--cycles N] [--jobs N] [--clients N] [--tenants N]
//!                       [--addr HOST:PORT] [--wal-dir DIR] [--quantum CYCLES]
//!                       [--mid-append-every N] [--json]
//! ```
//!
//! `serve --wal-dir` journals every admission, checkpoint and completion
//! to a crash-safe write-ahead log; on restart against the same directory
//! the daemon prints its recovery report, re-runs unfinished jobs (from
//! their newest durable checkpoint where one exists) and dedupes
//! completed ones by request id. `wal` audits such a log offline. `chaos`
//! is the adversarial proof: it spawns a serve daemon, drives seeded load
//! at it, SIGKILLs it at seeded points (some mid-`write(2)`, via the
//! torn-append hook), restarts it, and fails unless every acked job
//! completed exactly once with a digest bit-identical to a direct run.
//!
//! `run` launches the kernel with one argument: the address of a scratch
//! output buffer (the quickstart convention used by the examples), then
//! prints the first words of that buffer. `--jobs N` shards the dispatch's
//! compute units across N worker threads (default: one per available
//! core); the simulated cycle counts and outputs are bit-identical for
//! any N. `--exec fast` runs the block-compiled functional tier (no cycle
//! counts, identical output words); `--exec fast-timing` runs both tiers
//! and fails loudly if they disagree on any written byte.
//!
//! `profile` runs the kernel with per-PC retire profiling (cycle tier) or
//! per-block dispatch counting (fast tier) and prints its instruction
//! signature: the opcode-class histogram, hottest basic blocks, and the
//! minimal trim preset covering every opcode the run actually executed —
//! the observed-traffic side of the trimming argument. Both tiers report
//! the same signature for fallback-free kernels.
//!
//! `run --metrics` adds a one-line utilisation summary (IPC, per-unit
//! occupancy, memory pressure) and appends a snapshot of the process
//! metrics registry to a JSONL file. `serve-metrics` runs a small warmup
//! batch through the engine + system simulators so every layer's counters
//! are populated, then serves the registry as Prometheus text exposition
//! (`/metrics`) and JSON (`/metrics.json`); `--once` prints the exposition
//! to stdout instead of serving.
//!
//! `fuzz` runs the differential conformance campaign from `scratch-check`:
//! seeded random kernels checked by six oracles (CU vs lockstep reference
//! interpreter, trimmed vs untrimmed CU, serial vs multi-worker dispatch,
//! assembler/disassembler round-trip, checkpoint/restore preemption, and
//! cycle pipeline vs the block-compiled fast tier). Any divergence is
//! minimized and printed as a self-contained repro; the exit code is
//! non-zero if any oracle disagrees, and multi-oracle campaigns break the
//! summary line out per oracle. `--seed` accepts decimal or `0x...` hex,
//! so the `reproduce:` line of a report can be pasted back verbatim.

use std::process::ExitCode;

use scratch::asm::{assemble, Kernel};
use scratch::check::{fuzz, FuzzConfig, OracleKind};
use scratch::core::Scratch;
use scratch::engine::{Engine, JobError};
use scratch::fault::{
    build_contexts, cross_validate, run_plan, FaultClass, FaultPlan, KernelProfile,
    Mode as FaultMode,
};
use scratch::fpga::ParallelPlan;
use scratch::isa::FuncUnit;
use scratch::kernels::{vec_ops::MatrixAdd, Benchmark};
use scratch::metrics::{jsonl, prometheus, MetricsServer};
use scratch::profile::{span, InstrSignature};
use scratch::serve::{run_chaos, ChaosPlan, LoadPlan, ServeClient, ServeConfig, Server};
use scratch::system::{CuStats, ExecMode, RunReport, System, SystemConfig, SystemKind, TraceMode};
use scratch::trace::chrome_trace;
use scratch::wal::{FsyncPolicy, WalConfig};

fn load_kernel(path: &str) -> Result<Kernel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".json") {
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        assemble(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// A filesystem-safe tag for a system preset.
fn kind_slug(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Original => "original",
        SystemKind::Dcd => "dcd",
        SystemKind::DcdPm => "dcdpm",
    }
}

/// Print the stall-attribution table for one traced run and write its
/// Chrome `trace_event` document to `<dir>/<label>-<preset>.trace.json`.
fn write_trace(dir: &str, label: &str, kind: SystemKind, report: &RunReport) -> Result<(), String> {
    let summary = report
        .trace
        .as_ref()
        .ok_or("tracing was not enabled on this run")?;
    summary.check_invariant()?;
    println!("=== {label} on {} ===", kind.label());
    print!("{}", summary.render_table());
    let events = report
        .trace_events
        .as_ref()
        .ok_or("full-fidelity events missing from the report")?;
    let path = format!("{dir}/{label}-{}.trace.json", kind_slug(kind));
    std::fs::write(&path, chrome_trace(events).to_string()).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path} ({} events)\n", events.len());
    Ok(())
}

/// The one-line utilisation summary `run --metrics` prints: IPC, busy
/// percentage per functional-unit class (over all instances), and memory
/// operations per cycle — the same aggregates the registry gauges carry.
fn metrics_summary(stats: &CuStats, config: &SystemConfig) -> String {
    let mut line = format!("metrics: IPC {:.3} | occupancy", stats.ipc());
    for u in FuncUnit::ALL {
        let per_cu = match u {
            FuncUnit::Simd => u64::from(config.cu.int_valus),
            FuncUnit::Simf => u64::from(config.cu.fp_valus),
            _ => 1,
        };
        let denom = stats.cycles * per_cu * u64::from(config.cus);
        let busy = stats.fu_busy.get(&u).copied().unwrap_or(0);
        let pct = if denom == 0 {
            0.0
        } else {
            busy as f64 / denom as f64 * 100.0
        };
        line.push_str(&format!(" {} {pct:.1}%", u.label()));
    }
    line.push_str(&format!(
        " | mem-ops/cycle {:.4}",
        stats.mem_ops_per_cycle()
    ));
    line
}

/// Run a tiny Matrix Add batch through the engine so every layer's
/// counters (engine queue, system dispatch, CU aggregates) are populated
/// in the process-global registry.
fn metrics_warmup() -> Result<(), String> {
    let outcomes = Engine::new(2).run_batch([false, true].into_iter().map(|fp| {
        let label = if fp { "warmup-fp" } else { "warmup-int" };
        (label, move || {
            MatrixAdd::new(16, fp)
                .run(SystemConfig::preset(SystemKind::DcdPm))
                .map(|_| ())
                .map_err(|e| JobError::Failed(e.to_string()))
        })
    }));
    for o in outcomes {
        o.result.map_err(|e| format!("{}: {e}", o.label))?;
    }
    Ok(())
}

/// Parse `<flag> N` (decimal or `0x` hex) from the argument list.
fn flag_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
    {
        None => Ok(default),
        Some(v) => {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
    }
}

/// Value of `<flag> VALUE` from the argument list, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("scratch-tool: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let path = args.get(1).cloned();

    match cmd {
        "assemble" => {
            let path = path.ok_or("usage: scratch-tool assemble <file.s> [-o out.json]")?;
            let kernel = load_kernel(&path)?;
            let out = args
                .iter()
                .position(|a| a == "-o")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| format!("{}.kernel.json", kernel.name()));
            std::fs::write(&out, serde_json::to_string_pretty(&kernel).unwrap())
                .map_err(|e| format!("{out}: {e}"))?;
            println!(
                "assembled `{}`: {} bytes -> {out}",
                kernel.name(),
                kernel.size_bytes()
            );
            Ok(())
        }
        "disasm" => {
            let path = path.ok_or("usage: scratch-tool disasm <file>")?;
            let kernel = load_kernel(&path)?;
            print!("{}", kernel.disassemble().map_err(|e| e.to_string())?);
            Ok(())
        }
        "analyze" => {
            let path = path.ok_or("usage: scratch-tool analyze <file.s>")?;
            let kernel = load_kernel(&path)?;
            let analysis = Scratch::new().analyze(&kernel).map_err(|e| e.to_string())?;
            println!(
                "`{}`: {} static instructions",
                kernel.name(),
                analysis.static_instructions
            );
            for (unit, ops) in &analysis.required {
                let names: Vec<&str> = ops.iter().map(|o| o.mnemonic()).collect();
                println!(
                    "{unit:8} ({:5.1} %): {}",
                    analysis.unit_usage_percent(*unit),
                    names.join(", ")
                );
            }
            Ok(())
        }
        "trim" => {
            let path = path.ok_or("usage: scratch-tool trim <file.s>")?;
            let kernel = load_kernel(&path)?;
            let scratch = Scratch::new();
            let trim = scratch.trim(&kernel).map_err(|e| e.to_string())?;
            println!(
                "kept {} instructions ({} removed); removed units: {:?}",
                trim.kept_count(),
                trim.removed_count(),
                trim.removed_units
            );
            for unit in FuncUnit::TRIMMABLE {
                println!(
                    "  {:8} usage {:5.1} %",
                    unit.label(),
                    trim.usage_percent[&unit]
                );
            }
            let s = trim.cu_savings_percent(1, u8::from(trim.uses_fp));
            println!(
                "CU savings: {:.0}% FF, {:.0}% LUT, {:.0}% DSP, {:.0}% BRAM",
                s[0], s[1], s[2], s[3]
            );
            let synth = scratch.synthesize(
                SystemKind::DcdPm,
                Some(&trim),
                ParallelPlan::baseline(trim.uses_fp),
            );
            println!(
                "trimmed system: {} | {:.2} W",
                synth.resources,
                synth.power.total_w()
            );
            let mc = scratch.plan_multicore(&trim, 3);
            let mt = scratch.plan_multithread(&trim, 4);
            println!(
                "freed-area plans: {} CUs (multi-core) | {} INT + {} FP VALUs (multi-thread)",
                mc.cus, mt.int_valus, mt.fp_valus
            );
            Ok(())
        }
        "run" => {
            let path = path.ok_or("usage: scratch-tool run <file.s> [--system ...]")?;
            let kernel = load_kernel(&path)?;
            let kind = match args
                .iter()
                .position(|a| a == "--system")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
            {
                Some("original") => SystemKind::Original,
                Some("dcd") => SystemKind::Dcd,
                None | Some("dcdpm") => SystemKind::DcdPm,
                Some(other) => return Err(format!("unknown system `{other}`")),
            };
            let parse_n = |flag: &str, default: u32| -> u32 {
                args.iter()
                    .position(|a| a == flag)
                    .and_then(|i| args.get(i + 1))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(default)
            };
            let wgs = parse_n("--wgs", 1);
            let out_words = parse_n("--out-words", 16) as usize;
            // 0 = one worker per available core (the default); any count
            // yields bit-identical simulated results.
            let jobs = parse_n("--jobs", 0) as usize;
            let exec = match args
                .iter()
                .position(|a| a == "--exec")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
            {
                None | Some("cycle") => ExecMode::Cycle,
                Some("fast") => ExecMode::Fast,
                Some("fast-timing") => ExecMode::FastWithTiming,
                Some(other) => return Err(format!("unknown exec mode `{other}`")),
            };

            let config = SystemConfig::preset(kind)
                .with_workers(jobs)
                .with_exec(exec);
            let mut sys = System::new(config, &kernel).map_err(|e| e.to_string())?;
            let out = sys.alloc(1 << 20);
            sys.set_args(&[out as u32]);
            sys.dispatch([wgs, 1, 1]).map_err(|e| e.to_string())?;
            let report = sys.report();
            if exec == ExecMode::Fast {
                println!(
                    "{}: {} instructions (fast tier, no cycle model) on {}",
                    kernel.name(),
                    report.instructions(),
                    kind.label()
                );
            } else {
                println!(
                    "{}: {} CU cycles, {} instructions, {:.3} ms on {}",
                    kernel.name(),
                    report.cu_cycles,
                    report.instructions(),
                    report.seconds * 1e3,
                    kind.label()
                );
            }
            println!("out[0..{out_words}] = {:?}", sys.read_words(out, out_words));
            if args.iter().any(|a| a == "--metrics") {
                println!("{}", metrics_summary(&report.stats, sys.config()));
                let out_path = args
                    .iter()
                    .position(|a| a == "--metrics-out")
                    .and_then(|i| args.get(i + 1))
                    .cloned()
                    .unwrap_or_else(|| "scratch-metrics.jsonl".to_owned());
                let snapshot = scratch::metrics::global().snapshot();
                jsonl::append_snapshot(std::path::Path::new(&out_path), &snapshot)
                    .map_err(|e| format!("{out_path}: {e}"))?;
                println!("appended metrics snapshot to {out_path}");
            }
            Ok(())
        }
        "profile" => {
            let path = path.ok_or("usage: scratch-tool profile <file.s> [--system ...]")?;
            let kernel = load_kernel(&path)?;
            let kind = match flag_value(&args, "--system").map(String::as_str) {
                Some("original") => SystemKind::Original,
                Some("dcd") => SystemKind::Dcd,
                None | Some("dcdpm") => SystemKind::DcdPm,
                Some(other) => return Err(format!("unknown system `{other}`")),
            };
            let exec = match flag_value(&args, "--exec").map(String::as_str) {
                None | Some("cycle") => ExecMode::Cycle,
                Some("fast") => ExecMode::Fast,
                Some(other) => return Err(format!("profile: unknown exec tier `{other}`")),
            };
            let wgs = u32::try_from(flag_u64(&args, "--wgs", 1)?).unwrap_or(1);
            let config = SystemConfig::preset(kind)
                .with_exec(exec)
                .with_profile(true);
            let mut sys = System::new(config, &kernel).map_err(|e| e.to_string())?;
            let out = sys.alloc(1 << 20);
            sys.set_args(&[out as u32]);
            sys.dispatch([wgs.max(1), 1, 1])
                .map_err(|e| e.to_string())?;
            let sig = if exec == ExecMode::Fast {
                let blocks = sys
                    .fast_block_profiles(0)
                    .ok_or("fast tier produced no block profiles")?;
                let stats = sys.fast_stats(0).ok_or("fast tier produced no stats")?;
                InstrSignature::from_block_dispatches(
                    kernel.name(),
                    &blocks,
                    &stats.block_dispatches,
                )
            } else {
                let prog = scratch::fastpath::translate(&kernel, &sys.config().cu)
                    .map_err(|e| format!("block translation: {e}"))?;
                InstrSignature::from_pc_counts(
                    kernel.name(),
                    &prog.block_profiles(),
                    sys.pc_profile(0),
                )
            };
            if args.iter().any(|a| a == "--json") {
                println!("{}", serde_json::to_string_pretty(&sig).unwrap());
            } else {
                print!("{}", sig.report());
            }
            Ok(())
        }
        "trace" => {
            let file = args.get(1).filter(|a| !a.starts_with("--")).cloned();
            let parse_n = |flag: &str, default: u32| -> u32 {
                args.iter()
                    .position(|a| a == flag)
                    .and_then(|i| args.get(i + 1))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(default)
            };
            let kinds = match args
                .iter()
                .position(|a| a == "--system")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
            {
                Some("original") => vec![SystemKind::Original],
                Some("dcd") => vec![SystemKind::Dcd],
                Some("dcdpm") => vec![SystemKind::DcdPm],
                None | Some("all") => {
                    vec![SystemKind::Original, SystemKind::Dcd, SystemKind::DcdPm]
                }
                Some(other) => return Err(format!("unknown system `{other}`")),
            };
            let n = parse_n("--n", 32);
            let out_dir = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| ".".to_owned());

            for &kind in &kinds {
                if let Some(path) = &file {
                    let kernel = load_kernel(path)?;
                    let config = SystemConfig::preset(kind).with_trace(TraceMode::Full);
                    let mut sys = System::new(config, &kernel).map_err(|e| e.to_string())?;
                    let out = sys.alloc(1 << 20);
                    sys.set_args(&[out as u32]);
                    sys.dispatch([parse_n("--wgs", 1), 1, 1])
                        .map_err(|e| e.to_string())?;
                    write_trace(&out_dir, kernel.name(), kind, &sys.report())?;
                } else {
                    for fp in [false, true] {
                        let bench = MatrixAdd::new(n, fp);
                        let report = bench
                            .run(SystemConfig::preset(kind).with_trace(TraceMode::Full))
                            .map_err(|e| format!("{}: {e}", bench.name()))?;
                        let label = if fp {
                            "matrix_add_fp"
                        } else {
                            "matrix_add_int"
                        };
                        write_trace(&out_dir, label, kind, &report)?;
                    }
                }
            }
            Ok(())
        }
        "fuzz" => {
            let seed = flag_u64(&args, "--seed", 0)?;
            let cases = flag_u64(&args, "--cases", 100)?;
            if args.iter().any(|a| a == "--inject") {
                // Injection cross-validation: every case runs once per
                // fault class with a seeded fault, the reference
                // interpreter acting as the oracle. A silent escape (wrong
                // output the oracle missed) fails the sweep.
                let report = cross_validate(seed, u32::try_from(cases).unwrap_or(u32::MAX))
                    .map_err(|e| e.to_string())?;
                println!(
                    "inject sweep: {} kernels, {} faults — {} masked, {} caught, {} silent",
                    report.cases, report.injected, report.masked, report.caught, report.silent
                );
                for f in &report.failures {
                    println!("  SILENT: {f}");
                }
                if report.silent > 0 {
                    return Err(format!("{} silent corruptions", report.silent));
                }
                return Ok(());
            }
            let oracles = match args
                .iter()
                .position(|a| a == "--oracle")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
            {
                None | Some("all") => OracleKind::ALL.to_vec(),
                Some(name) => vec![OracleKind::parse(name)
                    .ok_or_else(|| format!("unknown oracle `{name}` (see `scratch-tool help`)"))?],
            };
            let server = match args
                .iter()
                .position(|a| a == "--metrics-addr")
                .and_then(|i| args.get(i + 1))
            {
                None => None,
                Some(addr) => {
                    let server =
                        MetricsServer::serve(addr.as_str(), scratch::metrics::global().clone())
                            .map_err(|e| format!("{addr}: {e}"))?;
                    println!(
                        "serving campaign metrics on http://{}/metrics",
                        server.addr()
                    );
                    Some(server)
                }
            };
            let report = fuzz(&FuzzConfig {
                seed,
                cases,
                oracles,
                ..FuzzConfig::default()
            });
            if let Some(server) = server {
                server.shutdown();
            }
            println!("{}", report.summary());
            for d in &report.divergences {
                println!("\n{}", d.render());
            }
            if report.skipped > 0 {
                return Err(format!("{} cases failed to assemble", report.skipped));
            }
            if !report.divergences.is_empty() {
                return Err(format!("{} divergences found", report.divergences.len()));
            }
            Ok(())
        }
        "inject" => {
            let seed = flag_u64(&args, "--seed", 1)?;
            let kernels = flag_u64(&args, "--kernels", 4)?;
            let per = flag_u64(&args, "--per", 4)?;
            let jobs = flag_u64(&args, "--jobs", 1)?;
            let mode = match flag_value(&args, "--mode").map(String::as_str) {
                None => FaultMode::Crc,
                Some(name) => FaultMode::parse(name)
                    .ok_or_else(|| format!("unknown mode `{name}` (crc|dmr|plain)"))?,
            };
            let classes: Vec<FaultClass> = match flag_value(&args, "--classes").map(String::as_str)
            {
                None | Some("all") => FaultClass::ALL.to_vec(),
                Some(list) => list
                    .split(',')
                    .map(|name| {
                        FaultClass::parse(name)
                            .ok_or_else(|| format!("unknown fault class `{name}`"))
                    })
                    .collect::<Result<_, _>>()?,
            };

            // The plan either loads from --plan (replaying a recorded
            // campaign bit-for-bit) or generates from the seed.
            let (plan, contexts) = match flag_value(&args, "--plan") {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    let plan: FaultPlan =
                        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
                    let mut seeds: Vec<u64> = Vec::new();
                    for f in &plan.faults {
                        if !seeds.contains(&f.kernel_seed) {
                            seeds.push(f.kernel_seed);
                        }
                    }
                    let contexts = build_contexts(&seeds).map_err(|e| e.to_string())?;
                    (plan, contexts)
                }
                None => {
                    let seeds: Vec<u64> = (0..kernels).map(|i| seed + i).collect();
                    let contexts = build_contexts(&seeds).map_err(|e| e.to_string())?;
                    let profiles: Vec<KernelProfile> = contexts.iter().map(|c| c.profile).collect();
                    let plan = FaultPlan::generate(
                        seed,
                        &profiles,
                        &classes,
                        u32::try_from(per).unwrap_or(u32::MAX),
                    );
                    (plan, contexts)
                }
            };
            if let Some(path) = flag_value(&args, "--plan-out") {
                std::fs::write(path, serde_json::to_string_pretty(&plan).unwrap())
                    .map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {} planned faults to {path}", plan.faults.len());
            }

            let report = run_plan(&plan, contexts, mode, usize::try_from(jobs).unwrap_or(1))
                .map_err(|e| e.to_string())?;
            if args.iter().any(|a| a == "--json") {
                println!("{}", serde_json::to_string_pretty(&report).unwrap());
            } else {
                print!("{}", report.table());
            }
            if mode.detects() && report.totals.silent > 0 {
                return Err(format!(
                    "{} silent corruptions under detecting mode {mode}",
                    report.totals.silent
                ));
            }
            Ok(())
        }
        "serve" => {
            let addr = flag_value(&args, "--addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7070".to_owned());
            let config = ServeConfig {
                workers: usize::try_from(flag_u64(&args, "--workers", 0)?).unwrap_or(0),
                queue_cap: usize::try_from(flag_u64(&args, "--queue-cap", 256)?).unwrap_or(256),
                tenant_cap: usize::try_from(flag_u64(&args, "--tenant-cap", 64)?).unwrap_or(64),
                rate: flag_value(&args, "--rate")
                    .map(|v| {
                        v.parse()
                            .map_err(|_| format!("--rate: `{v}` is not a number"))
                    })
                    .transpose()?
                    .unwrap_or(0.0),
                burst: flag_value(&args, "--burst")
                    .map(|v| {
                        v.parse()
                            .map_err(|_| format!("--burst: `{v}` is not a number"))
                    })
                    .transpose()?
                    .unwrap_or(32.0),
                quantum_cycles: flag_u64(
                    &args,
                    "--quantum",
                    ServeConfig::default().quantum_cycles,
                )?
                .max(1),
                spans: args.iter().any(|a| a == "--spans")
                    || flag_value(&args, "--spans-out").is_some()
                    || flag_value(&args, "--spans-chrome").is_some(),
                profile: args.iter().any(|a| a == "--profile"),
                wal: flag_value(&args, "--wal-dir")
                    .map(|dir| {
                        let mut wal = WalConfig::new(dir);
                        if let Some(policy) = flag_value(&args, "--wal-fsync") {
                            wal.fsync = FsyncPolicy::parse(policy)
                                .map_err(|e| format!("--wal-fsync: {e}"))?;
                        }
                        wal.segment_bytes =
                            flag_u64(&args, "--wal-segment-bytes", wal.segment_bytes)?.max(1);
                        Ok::<_, String>(wal)
                    })
                    .transpose()?,
                idle_timeout: match flag_u64(&args, "--idle-timeout-ms", 0)? {
                    0 => None,
                    ms => Some(std::time::Duration::from_millis(ms)),
                },
                ..ServeConfig::default()
            };
            // Optional Prometheus sidecar on the same registry, so
            // `curl :9184/metrics` sees the serving counters live.
            let metrics = match flag_value(&args, "--metrics-addr") {
                None => None,
                Some(addr) => {
                    let server =
                        MetricsServer::serve(addr.as_str(), scratch::metrics::global().clone())
                            .map_err(|e| format!("{addr}: {e}"))?;
                    println!("metrics on http://{}/metrics", server.addr());
                    Some(server)
                }
            };
            let server = Server::bind(addr.as_str(), config).map_err(|e| format!("{addr}: {e}"))?;
            if let Some(r) = server.recovery_report() {
                // One line per fact, grep-stable: the chaos harness and
                // the CI wal-smoke job key on the `wal recovery:` prefix.
                println!(
                    "wal recovery: {} segments, {} frames ({} admitted / {} completed / {} checkpoints) in {} ms",
                    r.segments, r.frames, r.admitted, r.completed, r.checkpoints, r.recovery_ms
                );
                println!(
                    "wal recovery: {} replayed ({} resumed from checkpoint), {} deduped",
                    r.replayed, r.resumed, r.deduped
                );
                if r.torn_bytes > 0 || r.dropped_segments > 0 {
                    println!(
                        "wal recovery: truncated {} torn bytes, dropped {} segments after the damage",
                        r.torn_bytes, r.dropped_segments
                    );
                }
            }
            println!("scratch-serve listening on {}", server.addr());
            println!(
                "drain with: scratch-tool ctl drain --addr {}",
                server.addr()
            );
            // Keep a recorder handle past shutdown so timelines of jobs
            // finishing during the drain are still collected.
            let recorder = server.span_recorder();
            server.wait_drain();
            println!("drain requested; finishing accepted jobs…");
            let stats = server.shutdown();
            if let Some(metrics) = metrics {
                metrics.shutdown();
            }
            if let Some(recorder) = recorder {
                let jobs = recorder.take_finished();
                let mut torn = 0usize;
                for j in &jobs {
                    if let Err(e) = j.check_tiling() {
                        eprintln!("span tiling violated on job {}: {e}", j.job);
                        torn += 1;
                    }
                }
                if torn == 0 {
                    println!("span tiling: ok ({} jobs)", jobs.len());
                }
                if let Some(path) = flag_value(&args, "--spans-out") {
                    std::fs::write(path, span::to_jsonl(&jobs))
                        .map_err(|e| format!("{path}: {e}"))?;
                    println!("wrote {} job timelines to {path}", jobs.len());
                }
                if let Some(path) = flag_value(&args, "--spans-chrome") {
                    std::fs::write(path, span::to_chrome(&jobs).to_string())
                        .map_err(|e| format!("{path}: {e}"))?;
                    println!(
                        "wrote Chrome trace of {} job timelines to {path}",
                        jobs.len()
                    );
                }
                if torn > 0 {
                    return Err(format!("{torn} jobs with torn span timelines"));
                }
            }
            println!(
                "served {} jobs ({} shed, {} failed); goodbye",
                stats.completed, stats.shed, stats.failed
            );
            Ok(())
        }
        "load" => {
            let addr = flag_value(&args, "--addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7070".to_owned());
            let steps: Vec<usize> = match flag_value(&args, "--clients") {
                None => vec![1, 2, 4, 8, 16, 32],
                Some(list) => list
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse()
                            .map_err(|_| format!("--clients: `{v}` is not a number"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let plan = LoadPlan {
                addr,
                steps,
                duration_ms: flag_u64(&args, "--duration-ms", 2000)?,
                seed: flag_u64(&args, "--seed", 1)?,
                kernels: usize::try_from(flag_u64(&args, "--kernels", 8)?).unwrap_or(8),
                tenants: usize::try_from(flag_u64(&args, "--tenants", 4)?).unwrap_or(4),
            };
            let report = scratch::serve::run_load(&plan).map_err(|e| e.to_string())?;
            println!(
                "{:>8} {:>10} {:>10} {:>8} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>7}",
                "clients",
                "offered/s",
                "done/s",
                "shed",
                "completed",
                "p50 us",
                "p95 us",
                "p99 us",
                "queue us",
                "run us",
                "snap us",
                "reconn"
            );
            for s in &report.steps {
                println!(
                    "{:>8} {:>10.1} {:>10.1} {:>8} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>7}",
                    s.clients,
                    s.offered_per_sec,
                    s.completed_per_sec,
                    s.shed,
                    s.completed,
                    s.p50_us,
                    s.p95_us,
                    s.p99_us,
                    s.mean_queue_us,
                    s.mean_run_us,
                    s.mean_snap_us,
                    s.reconnects
                );
            }
            if let Some(path) = flag_value(&args, "--out") {
                std::fs::write(path, serde_json::to_string_pretty(&report).unwrap())
                    .map_err(|e| format!("{path}: {e}"))?;
                println!("wrote saturation curve to {path}");
            }
            Ok(())
        }
        "ctl" => {
            let verb = args.get(1).map(String::as_str).ok_or(
                "usage: scratch-tool ctl ping|stats|top|drain|cancel <job> [--addr HOST:PORT]",
            )?;
            let addr = flag_value(&args, "--addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7070".to_owned());
            let mut client =
                ServeClient::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
            match verb {
                "ping" => {
                    client.ping().map_err(|e| e.to_string())?;
                    println!("pong");
                    Ok(())
                }
                "stats" => {
                    let stats = client.stats().map_err(|e| e.to_string())?;
                    println!("{}", serde_json::to_string_pretty(&stats).unwrap());
                    Ok(())
                }
                "top" => {
                    let top = client.top().map_err(|e| e.to_string())?;
                    println!(
                        "queue {} | in-flight {}{}",
                        top.queue_depth,
                        top.in_flight,
                        if top.draining { " | DRAINING" } else { "" }
                    );
                    println!(
                        "{:<12} {:>6} {:>7} {:>9} {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>12} preset",
                        "tenant",
                        "queued",
                        "in-fl",
                        "done",
                        "shed",
                        "p50 us",
                        "p95 us",
                        "p99 us",
                        "shed%",
                        "burn",
                        "instrs"
                    );
                    for t in &top.tenants {
                        println!(
                            "{:<12} {:>6} {:>7} {:>9} {:>6} {:>8} {:>8} {:>8} {:>6.1} {:>6.2} {:>12} {}",
                            t.tenant,
                            t.queued,
                            t.in_flight,
                            t.completed,
                            t.shed,
                            t.p50_us,
                            t.p95_us,
                            t.p99_us,
                            t.shed_ratio * 100.0,
                            t.budget_burn,
                            t.instructions,
                            t.preset
                        );
                    }
                    Ok(())
                }
                "drain" => {
                    let pending = client.drain().map_err(|e| e.to_string())?;
                    println!("draining; {pending} jobs pending");
                    Ok(())
                }
                "cancel" => {
                    let job: u64 = args
                        .get(2)
                        .filter(|a| !a.starts_with("--"))
                        .ok_or("usage: scratch-tool ctl cancel <job> [--addr HOST:PORT]")?
                        .parse()
                        .map_err(|_| "ctl cancel: <job> must be a job id".to_owned())?;
                    let cancelled = client.cancel(job).map_err(|e| e.to_string())?;
                    if cancelled {
                        println!("job {job} cancelled (stops at its next quantum boundary)");
                        Ok(())
                    } else {
                        Err(format!("job {job} is unknown or already completed"))
                    }
                }
                other => Err(format!(
                    "unknown ctl verb `{other}` (ping|stats|top|drain|cancel)"
                )),
            }
        }
        "serve-metrics" => {
            metrics_warmup()?;
            let registry = scratch::metrics::global().clone();
            if args.iter().any(|a| a == "--once") {
                print!("{}", prometheus::render(&registry.snapshot()));
                return Ok(());
            }
            let addr = args
                .iter()
                .position(|a| a == "--addr")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:9184".to_owned());
            let server = MetricsServer::serve(addr.as_str(), registry)
                .map_err(|e| format!("{addr}: {e}"))?;
            println!(
                "serving http://{0}/metrics (Prometheus) and http://{0}/metrics.json",
                server.addr()
            );
            println!("press Ctrl-C to stop");
            loop {
                std::thread::park();
            }
        }
        "wal" => {
            let usage = "usage: scratch-tool wal inspect <dir> [--limit N] | verify <dir> [--json]";
            let verb = args.get(1).map(String::as_str).ok_or(usage)?;
            let dir = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or(usage)?
                .as_str();
            match verb {
                "inspect" => {
                    let limit = usize::try_from(flag_u64(&args, "--limit", 0)?).unwrap_or(0);
                    let entries = scratch::wal::inspect(std::path::Path::new(dir), limit)
                        .map_err(|e| format!("{dir}: {e}"))?;
                    println!("{:>7} {:>10}  record", "segment", "offset");
                    for e in &entries {
                        println!("{:>7} {:>10}  {}", e.segment, e.offset, e.summary);
                    }
                    println!("{} frames", entries.len());
                    Ok(())
                }
                "verify" => {
                    let report = scratch::wal::verify(std::path::Path::new(dir))
                        .map_err(|e| format!("{dir}: {e}"))?;
                    if args.iter().any(|a| a == "--json") {
                        println!("{}", serde_json::to_string_pretty(&report).unwrap());
                    } else {
                        println!(
                            "{dir}: {} segments, {} frames ({} admitted / {} completed / {} checkpoints)",
                            report.segments,
                            report.frames,
                            report.admitted,
                            report.completed,
                            report.checkpoints
                        );
                        println!(
                            "unfinished {} | duplicate completions {} | orphan completions {}",
                            report.unfinished,
                            report.duplicate_completions,
                            report.orphan_completions
                        );
                        if let Some(damage) = &report.damage {
                            println!("damage: {damage:?}");
                        }
                    }
                    if report.clean() {
                        println!("wal verify: clean");
                        Ok(())
                    } else {
                        Err("wal verify: log is not clean".to_owned())
                    }
                }
                other => Err(format!("unknown wal verb `{other}` (inspect|verify)")),
            }
        }
        "chaos" => {
            let defaults = ChaosPlan::default();
            let wal_dir = flag_value(&args, "--wal-dir").cloned().map_or_else(
                || std::env::temp_dir().join(format!("scratch-chaos-{}", std::process::id())),
                std::path::PathBuf::from,
            );
            let default_dir = flag_value(&args, "--wal-dir").is_none();
            if default_dir {
                // A stale default dir would make the audit see jobs from a
                // previous campaign.
                let _ = std::fs::remove_dir_all(&wal_dir);
            }
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate own binary: {e}"))?
                .display()
                .to_string();
            let plan = ChaosPlan {
                seed: flag_u64(&args, "--seed", defaults.seed)?,
                cycles: u32::try_from(flag_u64(&args, "--cycles", u64::from(defaults.cycles))?)
                    .map_err(|_| "--cycles out of range".to_owned())?,
                jobs: usize::try_from(flag_u64(&args, "--jobs", defaults.jobs as u64)?)
                    .unwrap_or(defaults.jobs),
                clients: usize::try_from(flag_u64(&args, "--clients", defaults.clients as u64)?)
                    .unwrap_or(defaults.clients),
                tenants: usize::try_from(flag_u64(&args, "--tenants", defaults.tenants as u64)?)
                    .unwrap_or(defaults.tenants),
                addr: flag_value(&args, "--addr")
                    .cloned()
                    .unwrap_or(defaults.addr),
                wal_dir,
                quantum: flag_u64(&args, "--quantum", defaults.quantum)?.max(1),
                acks_per_lifetime: defaults.acks_per_lifetime,
                mid_append_every: u32::try_from(flag_u64(
                    &args,
                    "--mid-append-every",
                    u64::from(defaults.mid_append_every),
                )?)
                .map_err(|_| "--mid-append-every out of range".to_owned())?,
                daemon: vec![
                    exe,
                    "serve".to_owned(),
                    "--workers".to_owned(),
                    "2".to_owned(),
                    "--queue-cap".to_owned(),
                    "256".to_owned(),
                    "--tenant-cap".to_owned(),
                    "64".to_owned(),
                ],
            };
            println!(
                "chaos: daemon at {}, wal in {}, seed {}",
                plan.addr,
                plan.wal_dir.display(),
                plan.seed
            );
            let report = run_chaos(&plan).map_err(|e| e.to_string())?;
            if args.iter().any(|a| a == "--json") {
                println!("{}", serde_json::to_string_pretty(&report).unwrap());
            } else {
                println!("{}", report.summary());
            }
            if report.ok() {
                if default_dir {
                    let _ = std::fs::remove_dir_all(&plan.wal_dir);
                }
                Ok(())
            } else if report.exactly_once {
                Err(format!(
                    "chaos: no recovery replayed a job, so recovery went untested (log kept at {})",
                    plan.wal_dir.display()
                ))
            } else {
                Err(format!(
                    "chaos: exactly-once VIOLATED (log kept at {})",
                    plan.wal_dir.display()
                ))
            }
        }
        _ => {
            println!(
                "scratch-tool — SCRATCH soft-GPGPU toolchain\n\
                 \n\
                 commands:\n\
                 \x20 assemble <file.s> [-o out.json]   assemble SI text to a kernel artifact\n\
                 \x20 disasm   <file>                   disassemble a kernel (.s or .json)\n\
                 \x20 analyze  <file.s>                 per-unit instruction requirements\n\
                 \x20 trim     <file.s>                 run the trimming tool + synthesis model\n\
                 \x20 run      <file.s> [--system original|dcd|dcdpm] [--wgs N] [--out-words N]\n\
                 \x20          [--jobs N]        N dispatch worker threads (default: one per\n\
                 \x20                            core; results are bit-identical for any N)\n\
                 \x20          [--exec cycle|fast|fast-timing]\n\
                 \x20                            execution tier: cycle-accurate pipeline\n\
                 \x20                            (default), block-compiled fast tier (identical\n\
                 \x20                            words, no cycle counts), or both cross-checked\n\
                 \x20          [--metrics]       print an IPC/occupancy summary and append a\n\
                 \x20                            registry snapshot to --metrics-out FILE\n\
                 \x20                            (default scratch-metrics.jsonl)\n\
                 \x20 profile  <file.s> [--system original|dcd|dcdpm] [--wgs N]\n\
                 \x20          [--exec cycle|fast] [--json]\n\
                 \x20                            run with instruction profiling and print the\n\
                 \x20                            kernel's signature: opcode-class histogram, hot\n\
                 \x20                            blocks, and the minimal covering trim preset\n\
                 \x20 trace    [<file.s>] [--system original|dcd|dcdpm|all] [--n N] [--out DIR]\n\
                 \x20                                   cycle-attribution summary + Chrome trace.json\n\
                 \x20                                   (default workload: Matrix Add INT32 + SP FP)\n\
                 \x20 fuzz     [--seed S] [--cases N]\n\
                 \x20          [--oracle reference|trim|parallel|roundtrip|checkpoint|fastpath|all]\n\
                 \x20                                   differential conformance campaign; prints a\n\
                 \x20                                   minimized repro for any divergence\n\
                 \x20          [--metrics-addr HOST:PORT]  scrape campaign counters live\n\
                 \x20          [--inject]        cross-validate fault detection: one fault per\n\
                 \x20                            class per case, reference oracle as detector\n\
                 \x20 inject   [--seed S] [--kernels N] [--per N] [--classes sgpr,vgpr,lds,mem,inst,fu]\n\
                 \x20          [--mode crc|dmr|plain] [--jobs N] [--json]\n\
                 \x20          [--plan FILE] [--plan-out FILE]\n\
                 \x20                            seeded fault-injection campaign; prints the\n\
                 \x20                            masked/detected/recovered/silent table and\n\
                 \x20                            fails on any silent corruption\n\
                 \x20 serve    [--addr HOST:PORT] [--workers N] [--queue-cap N] [--tenant-cap N]\n\
                 \x20          [--rate R] [--burst B] [--quantum CYCLES]\n\
                 \x20          [--metrics-addr HOST:PORT]\n\
                 \x20          [--spans] [--spans-out FILE] [--spans-chrome FILE] [--profile]\n\
                 \x20          [--wal-dir DIR] [--wal-fsync always|never|MS]\n\
                 \x20          [--wal-segment-bytes N] [--idle-timeout-ms N]\n\
                 \x20                            multi-tenant kernel-execution daemon (JSONL/TCP,\n\
                 \x20                            token-bucket quotas, typed load shedding,\n\
                 \x20                            preemptive execution in --quantum-cycle slices\n\
                 \x20                            with checkpoint/restore between quanta);\n\
                 \x20                            --spans records per-job span timelines (validated\n\
                 \x20                            and exported as JSONL / Chrome trace at drain);\n\
                 \x20                            --profile aggregates per-tenant instruction\n\
                 \x20                            signatures (see ctl top);\n\
                 \x20                            --wal-dir journals admissions/completions to a\n\
                 \x20                            crash-safe write-ahead log and replays unfinished\n\
                 \x20                            jobs exactly once on restart (recovery report on\n\
                 \x20                            stdout); --idle-timeout-ms sheds connections with\n\
                 \x20                            no request and no job in flight;\n\
                 \x20                            exits 0 after a graceful drain\n\
                 \x20 load     [--addr HOST:PORT] [--clients 1,2,4,...] [--duration-ms N]\n\
                 \x20          [--seed S] [--kernels N] [--tenants N] [--out FILE]\n\
                 \x20                            closed-loop load harness: drives the daemon with\n\
                 \x20                            seeded kernel traffic and prints/writes the\n\
                 \x20                            saturation curve (p50/p95/p99 per step, plus the\n\
                 \x20                            server-side queue/run/checkpoint breakdown)\n\
                 \x20 ctl      ping|stats|top|drain|cancel <job> [--addr HOST:PORT]\n\
                 \x20                            probe, inspect, gracefully drain, or cancel a\n\
                 \x20                            mid-flight job on a daemon; top prints per-tenant\n\
                 \x20                            queues, rolling SLO quantiles, budget burn and\n\
                 \x20                            the aggregated instruction profile\n\
                 \x20 wal      inspect <dir> [--limit N] | verify <dir> [--json]\n\
                 \x20                            audit a write-ahead log offline: inspect lists\n\
                 \x20                            frames in log order, verify checks framing CRCs\n\
                 \x20                            and the exactly-once ledger (non-zero exit on\n\
                 \x20                            damage, duplicates or orphans)\n\
                 \x20 chaos    [--seed S] [--cycles N] [--jobs N] [--clients N] [--tenants N]\n\
                 \x20          [--addr HOST:PORT] [--wal-dir DIR] [--quantum CYCLES]\n\
                 \x20          [--mid-append-every N] [--json]\n\
                 \x20                            crash-recovery campaign: SIGKILL a WAL-backed\n\
                 \x20                            serve daemon at seeded points under load (every\n\
                 \x20                            Nth kill torn mid-append), restart it, and fail\n\
                 \x20                            unless every acked job completed exactly once\n\
                 \x20                            with digests bit-identical to direct runs\n\
                 \x20 serve-metrics [--addr HOST:PORT] [--once]\n\
                 \x20                                   warm up the simulators, then serve the\n\
                 \x20                                   metrics registry as Prometheus text and\n\
                 \x20                                   JSON (--once: print to stdout and exit)"
            );
            Ok(())
        }
    }
}
