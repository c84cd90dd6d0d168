//! The two serving workloads: `serve-small` (unsliced jobs, the served
//! round trip's overhead path) and `serve-preempt` (every job checkpointed
//! several times, tenants sharing one engine worker).
//!
//! A run prepares a fixed kernel pool, sets the daemon and the traffic up
//! several times (the median is `setup_s`), drives the last daemon with a
//! closed loop of whole rounds of the job list until `--seconds` have
//! passed, then checks every `Done` against the reference interpreter and
//! an unsliced direct run. A traced run additionally replays every job of
//! the list through each layer's public call.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use scratch_asm::Kernel;
use scratch_check::{GenKernel, RefSystem};
use scratch_profile::{JobSpans, SpanKind};
use scratch_serve::{fnv1a, JobDone, Request, Response, SubmitRequest};
use scratch_system::{DispatchProgress, ExecMode, StallReason, System, SystemConfig, SystemKind};
use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

use crate::daemon::{self, remove_dir, Daemon, DaemonSpec};
use crate::layers::{self, LayerValues};
use crate::os;
use crate::stats::{self, Outcome, SplitMix};
use crate::trace::Spans;
use crate::RunArgs;

/// The make-up of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// First generator seed of the fixed kernel pool.
    pub pool_seed: u64,
    /// Kernels in the pool; the job list holds each once.
    pub kernels: usize,
    /// Tenants the jobs are spread over.
    pub tenants: usize,
    /// Daemon engine workers.
    pub workers: usize,
    /// Daemon quantum, simulated cycles per slice.
    pub quantum: u64,
    /// Fast-tier passes over the pool after each round, measuring
    /// `fast_instr_per_s`.
    pub fast_passes: usize,
    /// Fewest and most execution slices a job of this workload may take.
    pub slices: (u64, u64),
}

/// Unsliced cycle-tier jobs with the WAL on: protocol, admission, WAL
/// journaling, `System` build, a short dispatch, digest and reply.
pub const SMALL: Shape = Shape {
    name: "serve-small",
    pool_seed: 0x5ca1_0000,
    kernels: 64,
    tenants: 2,
    workers: 2,
    quantum: 200_000,
    fast_passes: 1,
    slices: (1, 1),
};

/// Every job checkpointed several times, more tenants than workers.
pub const PREEMPT: Shape = Shape {
    name: "serve-preempt",
    pool_seed: 0x5ca1_8000,
    kernels: 16,
    tenants: 4,
    workers: 1,
    quantum: 100,
    fast_passes: 16,
    slices: (3, u64::MAX),
};

/// Set-ups per run; the median is `setup_s`, the last one is measured.
const SETUPS: usize = 21;

/// Timed syncs of the traced run's fsync probe; the median is used.
const FSYNC_PROBES: usize = 9;

/// Client connections, each with one job outstanding, because the
/// daemon's callers wait for their `Done`.
const CONNECTIONS: usize = 2;

/// One kernel of the pool, with its reference digest.
struct PoolKernel {
    seed: u64,
    kernel: Kernel,
    image: Vec<u32>,
    grid: [u32; 3],
    out_bytes: u64,
    ref_digest: u64,
}

impl PoolKernel {
    fn out_words(&self) -> usize {
        usize::try_from(self.out_bytes / 4).expect("output fits in memory")
    }
}

/// What an unsliced direct run of a pool kernel produced.
#[derive(Debug, Clone, Copy)]
struct Direct {
    cycles: u64,
    instructions: u64,
    digest: u64,
}

/// One entry of the job list.
struct Job {
    pool: usize,
    request: Request,
}

/// What the client saw of one served job.
struct Served {
    pool: usize,
    rejected: bool,
    done: Option<JobDone>,
    latency_us: f64,
}

/// Build the pool: generated kernels that assemble and that the reference
/// interpreter runs to completion.
fn prepare_pool(shape: &Shape) -> Vec<PoolKernel> {
    let mut pool = Vec::with_capacity(shape.kernels);
    let mut seed = shape.pool_seed;
    while pool.len() < shape.kernels {
        let gk = GenKernel::generate(seed);
        seed += 1;
        let Ok(kernel) = gk.build() else { continue };
        let grid = [gk.wgs, 1, 1];
        let out_bytes = gk.out_bytes();
        let Ok(words) = reference_run(&kernel, &gk.image, grid, out_bytes) else {
            continue;
        };
        pool.push(PoolKernel {
            seed: gk.seed,
            kernel,
            image: gk.image,
            grid,
            out_bytes,
            ref_digest: fnv1a(&words),
        });
    }
    pool
}

/// The reference interpreter's output for one job, allocated as the
/// daemon allocates (output buffer, then input).
fn reference_run(
    kernel: &Kernel,
    image: &[u32],
    grid: [u32; 3],
    out_bytes: u64,
) -> Result<Vec<u32>, String> {
    let mut sys = RefSystem::new(kernel).map_err(|e| e.to_string())?;
    let out = sys.alloc(out_bytes);
    let inp = sys.alloc_words(image);
    sys.set_args(&[addr32(out), addr32(inp)]);
    sys.dispatch(grid).map_err(|e| e.to_string())?;
    Ok(sys.read_words(out, usize::try_from(out_bytes / 4).expect("output fits")))
}

fn addr32(addr: u64) -> u32 {
    u32::try_from(addr).expect("simulated addresses fit the 32-bit argument ABI")
}

/// A fresh system holding one pool kernel's buffers, as the daemon's first
/// slice builds it; returns the system and the output base.
fn build_system(k: &PoolKernel, exec: ExecMode) -> Result<(System, u64), String> {
    let config = SystemConfig::preset(SystemKind::DcdPm).with_exec(exec);
    let mut sys = System::new(config, &k.kernel).map_err(|e| e.to_string())?;
    let out = sys.alloc(k.out_bytes);
    let inp = sys.alloc_words(&k.image);
    sys.set_args(&[addr32(out), addr32(inp)]);
    Ok((sys, out))
}

/// Run one pool kernel whole on `exec`.
fn direct_run(k: &PoolKernel, exec: ExecMode) -> Result<Direct, String> {
    let (mut sys, out) = build_system(k, exec)?;
    sys.dispatch(k.grid).map_err(|e| e.to_string())?;
    let report = sys.report();
    Ok(Direct {
        cycles: report.cu_cycles,
        instructions: report.instructions(),
        digest: fnv1a(&sys.read_words(out, k.out_words())),
    })
}

/// The seeded job list: the pool in a seeded order, each job billed to a
/// seeded tenant.
fn job_list(shape: &Shape, pool: &[PoolKernel], seed: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let k = &pool[p];
            Job {
                pool: p,
                request: Request::Submit(SubmitRequest {
                    tenant: format!("t{}", rng.below(shape.tenants)),
                    label: format!("{}-{i}-k{:x}", shape.name, k.seed),
                    kernel: k.kernel.clone(),
                    input: k.image.clone(),
                    grid: k.grid,
                    out_bytes: k.out_bytes,
                    system: None,
                    return_output: false,
                    exec: None,
                }),
            }
        })
        .collect()
}

/// One set-up: daemon up, traffic assembled, connections open.
struct Setup {
    daemon: Daemon,
    jobs: Vec<Job>,
    conns: Vec<TcpStream>,
}

fn set_up(
    shape: &Shape,
    spec: &DaemonSpec,
    pool: &[PoolKernel],
    seed: u64,
) -> Result<Setup, String> {
    let daemon = Daemon::start(spec)?;
    let jobs = job_list(shape, pool, seed);
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut conn = TcpStream::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        // A ping proves the connection is served before timing starts.
        conn.write_all(b"\"Ping\"\n").map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        match serde_json::from_str::<Response>(line.trim()) {
            Ok(Response::Pong) => {}
            other => return Err(format!("ping answered {other:?}")),
        }
        conns.push(conn);
    }
    Ok(Setup {
        daemon,
        jobs,
        conns,
    })
}

/// Serve one round: every job of the list once, in `order`, the
/// connections taking the next unserved job as each finishes its last.
fn serve_round(
    conns: &[TcpStream],
    jobs: &[Job],
    order: &[usize],
    round: u64,
    spans: &mut Spans,
) -> Result<Vec<Served>, String> {
    let next = AtomicUsize::new(0);
    let per_conn: Vec<Result<(Vec<Served>, Spans), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .map(|conn| {
                let next = &next;
                let mut local = spans.fork();
                scope.spawn(move || {
                    client_loop(conn, jobs, order, next, round, &mut local).map(|s| (s, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let mut served = Vec::with_capacity(jobs.len());
    for r in per_conn {
        let (s, local) = r?;
        served.extend(s);
        spans.absorb(local);
    }
    Ok(served)
}

/// One connection's closed loop within a round: submit, wait for the
/// `Accepted` and the `Done`, repeat.
fn client_loop(
    conn: &TcpStream,
    jobs: &[Job],
    order: &[usize],
    next: &AtomicUsize,
    round: u64,
    spans: &mut Spans,
) -> Result<Vec<Served>, String> {
    let mut writer = conn;
    let mut reader = BufReader::new(conn);
    let mut served = Vec::new();
    let mut line = String::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&j) = order.get(i) else { break };
        let job = &jobs[j];
        let seq = round * jobs.len() as u64 + i as u64;
        let t0 = Instant::now();
        let mut request =
            serde_json::to_string(&job.request).map_err(|e| format!("encode request: {e}"))?;
        let t1 = Instant::now();
        request.push('\n');
        writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let (mut accepted_at, mut done, mut rejected) = (None, None, false);
        let (mut done_read, mut done_decoded) = (t1, t1);
        while !(rejected || (accepted_at.is_some() && done.is_some())) {
            line.clear();
            if reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?
                == 0
            {
                return Err("daemon closed the connection".to_owned());
            }
            let read = Instant::now();
            let response: Response =
                serde_json::from_str(line.trim()).map_err(|e| format!("decode response: {e}"))?;
            match response {
                Response::Accepted { .. } => accepted_at = Some(read),
                Response::Done(d) => {
                    done_read = read;
                    done_decoded = Instant::now();
                    done = Some(d);
                }
                Response::Rejected(_) | Response::Error { .. } => rejected = true,
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
        let end = Instant::now();
        if let (Some(acked), Some(_)) = (accepted_at, &done) {
            let root = spans.record("serve.round_trip", t0, end, None, seq);
            spans.record("serve.request_encode", t0, t1, Some(root), seq);
            spans.record("serve.ack", t1, acked, Some(root), seq);
            spans.record(
                "serve.await_done",
                acked.max(t1),
                done_read,
                Some(root),
                seq,
            );
            spans.record(
                "serve.reply_decode",
                done_read,
                done_decoded,
                Some(root),
                seq,
            );
        }
        served.push(Served {
            pool: job.pool,
            rejected,
            done,
            latency_us: (end - t0).as_secs_f64() * 1e6,
        });
    }
    Ok(served)
}

/// Run one serving workload.
pub fn run(shape: &Shape, args: &RunArgs) -> Result<Outcome, String> {
    let out_dir = crate::out_dir()?;
    let pool = prepare_pool(shape);
    let spec = |k: usize| DaemonSpec {
        workers: shape.workers,
        quantum: shape.quantum,
        wal_dir: out_dir.join(format!("wal-{}-{}-{k}", shape.name, std::process::id())),
        spans: args.trace,
    };

    // Set up several times; every set-up but the last is torn down again.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for k in 0..SETUPS {
        let begun = Instant::now();
        let s = set_up(shape, &spec(k), &pool, args.seed)?;
        setup_times.push(begun.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            drop(s.conns);
            s.daemon.stop()?;
        } else {
            setup = Some(s);
        }
    }
    let Setup {
        mut daemon,
        jobs,
        conns,
    } = setup.expect("SETUPS > 0");

    // The timed phase: whole rounds of the job list until the deadline,
    // each in a fresh seeded order (so which jobs overlap on the two
    // connections varies) and each followed by fast-tier passes over the
    // pool, so both rates sample the same stretch of host time.
    let mut spans = Spans::new(args.trace);
    let mut rng = SplitMix::new(args.seed.rotate_left(32));
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (daemon_cpu0, _) = daemon.usage()?;
    let cpu0 = os::process_cpu_s();
    let (mut serve_s, mut fast_s, mut fast_cpu_s, mut fast_instr) = (0.0, 0.0, 0.0, 0u64);
    let mut served = Vec::new();
    let mut first_fast = None;
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        rng.shuffle(&mut order);
        let begun = Instant::now();
        served.extend(serve_round(&conns, &jobs, &order, round, &mut spans)?);
        serve_s += begun.elapsed().as_secs_f64();
        for _ in 0..shape.fast_passes {
            let cpu = os::thread_cpu_s();
            let begun = Instant::now();
            let pass = pool
                .iter()
                .map(|k| direct_run(k, ExecMode::Fast))
                .collect::<Result<Vec<_>, _>>()?;
            fast_s += begun.elapsed().as_secs_f64();
            fast_cpu_s += os::thread_cpu_s() - cpu;
            fast_instr += pass.iter().map(|d| d.instructions).sum::<u64>();
            first_fast.get_or_insert(pass);
        }
        round += 1;
    }
    // Client CPU of the serving windows only: the fast passes ran on this
    // thread while the connections were idle.
    let cpu = os::process_cpu_s() - cpu0 - fast_cpu_s;
    let (daemon_cpu1, daemon_rss_kib) = daemon.usage()?;
    let wal_bytes = daemon.wal_bytes()?;
    drop(conns);
    let daemon_spans = daemon.stop()?;

    // Output checks against the reference interpreter and direct runs.
    let mut checks = Vec::new();
    let mut direct = Vec::with_capacity(pool.len());
    for k in &pool {
        let d = direct_run(k, ExecMode::Cycle)?;
        if d.digest != k.ref_digest {
            checks.push(format!(
                "kernel {:#x}: direct digest differs from the reference",
                k.seed
            ));
        }
        direct.push(d);
    }
    let mut failed = 0u64;
    for s in &served {
        let expect = &direct[s.pool];
        let ok = match &s.done {
            Some(d) => {
                d.ok && d.digest == pool[s.pool].ref_digest
                    && d.cycles == expect.cycles
                    && d.instructions == expect.instructions
            }
            None => false,
        };
        if !ok {
            failed += 1;
            if failed <= 3 {
                eprintln!(
                    "{}: job on kernel {:#x} failed: rejected={} done={:?}",
                    shape.name, pool[s.pool].seed, s.rejected, s.done
                );
            }
        }
    }
    let (fewest, most) = shape.slices;
    if let Some(d) = served
        .iter()
        .filter_map(|s| s.done.as_ref())
        .find(|d| d.slices < fewest || d.slices > most)
    {
        checks.push(format!(
            "job {} took {} slices, outside this workload's {fewest}..={most}",
            d.label, d.slices
        ));
    }
    for ((k, d), f) in pool.iter().zip(&direct).zip(first_fast.iter().flatten()) {
        if f.digest != k.ref_digest || f.instructions != d.instructions {
            checks.push(format!(
                "kernel {:#x}: fast tier retired {} instructions (cycle tier {}) or its digest differs",
                k.seed, f.instructions, d.instructions
            ));
        }
    }
    for c in &checks {
        eprintln!("{}: check failed: {c}", shape.name);
    }

    let jobs_done = served.len() as f64;
    let latencies: Vec<f64> = served.iter().map(|s| s.latency_us).collect();
    let instructions: u64 = served
        .iter()
        .filter_map(|s| s.done.as_ref())
        .map(|d| d.instructions)
        .sum();
    let sim_cycles: u64 = jobs.iter().map(|j| direct[j.pool].cycles).sum();
    let setup_s = stats::median(&setup_times);
    let jobs_per_s = jobs_done / serve_s;
    let latency_p50 = stats::median(&latencies);
    let cpu_ms_per_job = (cpu + daemon_cpu1 - daemon_cpu0) * 1e3 / jobs_done;
    let sim_instr_per_s = instructions as f64 / serve_s;
    let fast_rate = fast_instr as f64 / fast_s;
    println!(
        "{}: {} jobs in {:.3} s of serving ({} rounds of {}), {} failed",
        shape.name,
        served.len(),
        serve_s,
        round,
        jobs.len(),
        failed
    );
    println!("{}", stats::latency_line("latency", "us", &latencies));
    println!(
        "{}: the daemon journaled {wal_bytes} WAL bytes ({:.1} MB/s of serving)",
        shape.name,
        wal_bytes as f64 / serve_s / 1e6
    );

    let mut outcome = Outcome {
        correct: checks.is_empty(),
        attempted: served.len() as u64,
        failed,
        metrics: Vec::new(),
    };
    if !args.trace {
        outcome.push("setup_s", setup_s, "s");
        outcome.push("jobs_per_s", jobs_per_s, "jobs/s");
        outcome.push("latency_p50_us", latency_p50, "us");
        outcome.push("cpu_ms_per_job", cpu_ms_per_job, "ms");
        outcome.push("sim_instr_per_s", sim_instr_per_s, "instr/s");
        outcome.push("fast_instr_per_s", fast_rate, "instr/s");
        outcome.push("sim_cycles", sim_cycles as f64, "cycles");
        outcome.push("peak_rss_mib", daemon_rss_kib as f64 / 1024.0, "MiB");
        return Ok(outcome);
    }

    // Traced run: the same end-to-end figures with tracing on, then the
    // per-layer split.
    println!(
        "traced end-to-end: jobs_per_s {jobs_per_s:.2}, latency_p50_us {latency_p50:.1}, \
         cpu_ms_per_job {cpu_ms_per_job:.4}, setup_s {setup_s:.5}"
    );
    let mut replay_checks = Vec::new();
    let replay = replay(
        shape,
        &pool,
        &jobs,
        &served,
        &direct,
        jobs_per_s,
        &out_dir,
        &mut spans,
        &mut replay_checks,
    )?;
    for c in &replay_checks {
        eprintln!("{}: replay check failed: {c}", shape.name);
    }
    outcome.correct &= replay_checks.is_empty();
    let mut values = layer_values(&served, &spans, &daemon_spans, &replay);
    layers::attribute(shape.name, &mut values);
    write_spans(&out_dir, shape.name, args.seed, &spans, &daemon_spans)?;
    layers::fill(&mut outcome, &values);
    Ok(outcome)
}

/// Per-job sums of the replayed layer calls.
#[derive(Default)]
struct Replay {
    jobs: u64,
    appends: u64,
    wal_bytes: u64,
    /// Mean cost of the daemon's WAL fsyncs per job, µs.
    fsync_us: f64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    instructions: u64,
    cycles: u64,
    stall_cycles: [u64; 6],
}

/// Replay every job of the list through each layer's public call, in the
/// order the daemon makes them, recording one span per call. The replay's
/// log never syncs on append, so `wal.append` holds no fsync; the fsyncs
/// are costed apart, at the live write rate (`jobs_per_s`).
#[allow(clippy::too_many_arguments)]
fn replay(
    shape: &Shape,
    pool: &[PoolKernel],
    jobs: &[Job],
    served: &[Served],
    direct: &[Direct],
    jobs_per_s: f64,
    out_dir: &Path,
    spans: &mut Spans,
    checks: &mut Vec<String>,
) -> Result<Replay, String> {
    let wal_dir = out_dir.join(format!("wal-replay-{}-{}", shape.name, std::process::id()));
    remove_dir(&wal_dir);
    let live_config = daemon::wal_config(&wal_dir);
    let (mut wal, _) = Wal::open(WalConfig {
        fsync: FsyncPolicy::Never,
        ..live_config.clone()
    })
    .map_err(|e| e.to_string())?;
    let mut r = Replay::default();
    let mut records = Vec::new();
    let result = (|| -> Result<(), String> {
        for (i, job) in jobs.iter().enumerate() {
            let seq = (1u64 << 40) + i as u64;
            let k = &pool[job.pool];
            let Request::Submit(submit) = &job.request else {
                unreachable!("job lists hold submissions")
            };
            let done = served
                .iter()
                .find_map(|s| s.done.as_ref().filter(|_| s.pool == job.pool))
                .ok_or("a job of the list was never served")?;
            let root = spans.open("replay.job", Instant::now(), None, seq);
            let line = serde_json::to_string(&job.request).map_err(|e| e.to_string())?;
            let decoded: Request = spans
                .time("serve.request_decode", Some(root), seq, || {
                    serde_json::from_str(&line)
                })
                .map_err(|e| format!("decode request: {e}"))?;
            drop(decoded);
            let payload = spans.time("wal.payload_encode", Some(root), seq, || {
                serde_json::to_string(submit).map(String::into_bytes)
            });
            let payload = payload.map_err(|e| e.to_string())?;
            let mut append = |spans: &mut Spans, r: &mut Replay, record: &Record| {
                let info = spans
                    .time("wal.append", Some(root), seq, || wal.append(record))
                    .map_err(|e| e.to_string())?;
                r.appends += 1;
                r.wal_bytes += info.bytes;
                records.push(record.clone());
                Ok::<(), String>(())
            };
            append(
                spans,
                &mut r,
                &Record::Admitted {
                    id: seq,
                    tenant: submit.tenant.clone(),
                    label: submit.label.clone(),
                    payload,
                },
            )?;
            let (mut sys, out) = spans.time("system.build", Some(root), seq, || {
                build_system(k, ExecMode::Cycle)
            })?;
            let mut progress = spans
                .time("cu.dispatch", Some(root), seq, || {
                    sys.dispatch_preemptible(k.grid, shape.quantum)
                })
                .map_err(|e| e.to_string())?;
            while progress == DispatchProgress::Paused {
                let ck = spans
                    .time("snap.capture", Some(root), seq, || sys.checkpoint())
                    .map_err(|e| e.to_string())?;
                let bytes = spans.time("snap.encode", Some(root), seq, || {
                    scratch_snap::to_bytes(&ck)
                });
                drop(ck);
                drop(sys);
                r.checkpoints += 1;
                r.checkpoint_bytes += bytes.len() as u64;
                let record = Record::Checkpoint {
                    id: seq,
                    out_addr: out,
                    snap: bytes,
                };
                append(spans, &mut r, &record)?;
                let Record::Checkpoint { snap: bytes, .. } = record else {
                    unreachable!("built as a checkpoint")
                };
                let ck = spans
                    .time("snap.decode", Some(root), seq, || {
                        scratch_snap::from_bytes(&bytes)
                    })
                    .map_err(|e| e.to_string())?;
                sys = spans
                    .time("system.restore", Some(root), seq, || {
                        System::restore(&ck, None)
                    })
                    .map_err(|e| e.to_string())?;
                progress = spans
                    .time("cu.dispatch", Some(root), seq, || {
                        sys.resume_dispatch(shape.quantum)
                    })
                    .map_err(|e| e.to_string())?;
            }
            let digest = spans.time("serve.digest", Some(root), seq, || {
                fnv1a(&sys.read_words(out, k.out_words()))
            });
            let report = sys.report();
            drop(sys);
            append(
                spans,
                &mut r,
                &Record::Completed {
                    id: seq,
                    ok: true,
                    digest,
                    cycles: report.cu_cycles,
                    instructions: report.instructions(),
                    error: String::new(),
                },
            )?;
            let reply = spans
                .time("serve.reply_encode", Some(root), seq, || {
                    serde_json::to_string(&Response::Done(done.clone()))
                })
                .map_err(|e| e.to_string())?;
            drop(reply);
            spans.close(root, Instant::now());
            if digest != k.ref_digest || report.cu_cycles != direct[job.pool].cycles {
                checks.push(format!(
                    "kernel {:#x}: replay digest/cycles differ from the reference/direct run",
                    k.seed
                ));
            }
            r.jobs += 1;
            r.cycles += report.cu_cycles;
            r.instructions += report.instructions();
            for (slot, reason) in StallReason::WAVE_RESIDENT.iter().enumerate() {
                r.stall_cycles[slot] += report.stats.stall_cycles.get(reason).copied().unwrap_or(0);
            }
        }
        r.fsync_us = fsync_cost(&live_config, &mut wal, &records, &r, jobs_per_s, spans)?;
        Ok(())
    })();
    drop(wal);
    remove_dir(&wal_dir);
    result.map(|()| r)
}

/// The daemon's WAL fsyncs, per job, at the live rates, µs.
///
/// The interval policy syncs whatever was written since the last sync, so
/// one sync's cost depends on the live write rate. The probe appends the
/// replayed records again, cycling, until one sync's worth of bytes at
/// that rate is pending, then times `Wal::sync`, [`FSYNC_PROBES`] times.
/// The median sync is spread over the jobs served per second, counting
/// the interval syncs and the sync of every segment rotation.
fn fsync_cost(
    config: &WalConfig,
    wal: &mut Wal,
    records: &[Record],
    r: &Replay,
    jobs_per_s: f64,
    spans: &mut Spans,
) -> Result<f64, String> {
    let FsyncPolicy::IntervalMs(ms) = config.fsync else {
        return Err(format!(
            "the daemon's fsync policy `{}` is not an interval",
            config.fsync
        ));
    };
    let jobs = r.jobs.max(1) as f64;
    let appends_per_s = jobs_per_s * r.appends as f64 / jobs;
    let bytes_per_s = jobs_per_s * r.wal_bytes as f64 / jobs;
    let interval_syncs_per_s = appends_per_s.min(1e3 / ms.max(1) as f64);
    let bytes_per_sync = (bytes_per_s / interval_syncs_per_s.max(f64::MIN_POSITIVE)) as u64;
    let mut times = Vec::with_capacity(FSYNC_PROBES);
    let mut next = records.iter().cycle();
    for probe in 0..FSYNC_PROBES {
        let mut pending = 0;
        while pending < bytes_per_sync {
            let record = next.next().ok_or("the replay journaled nothing")?;
            pending += wal.append(record).map_err(|e| e.to_string())?.bytes;
        }
        let begun = Instant::now();
        wal.sync().map_err(|e| e.to_string())?;
        let end = Instant::now();
        spans.record("wal.fsync", begun, end, None, probe as u64);
        times.push((end - begun).as_secs_f64());
    }
    let sync_s = stats::median(&times);
    let syncs_per_s = interval_syncs_per_s + bytes_per_s / config.segment_bytes as f64;
    println!(
        "WAL fsync at the live rate: median {:.3} ms to sync {bytes_per_sync} bytes \
         ({FSYNC_PROBES} syncs), {syncs_per_s:.2} syncs/s at {:.2} MB/s",
        sync_s * 1e3,
        bytes_per_s / 1e6
    );
    Ok(sync_s * 1e6 * syncs_per_s / jobs_per_s)
}

/// Per-layer values of a traced serve run.
fn layer_values(
    served: &[Served],
    spans: &Spans,
    daemon_spans: &[JobSpans],
    replay: &Replay,
) -> LayerValues {
    let mut v = LayerValues::default();
    let jobs = replay.jobs.max(1) as f64;
    let per_job = |name: &str| spans.total_us(name) / jobs;
    let live = served.iter().filter(|s| s.done.is_some()).count().max(1) as f64;
    let live_mean = |name: &str| spans.total_us(name) / live;
    let dones: Vec<&JobDone> = served.iter().filter_map(|s| s.done.as_ref()).collect();
    let done_mean = |f: fn(&JobDone) -> u64| {
        dones.iter().map(|d| f(d) as f64).sum::<f64>() / dones.len().max(1) as f64
    };

    v.round_trip_us = live_mean("serve.round_trip");
    v.set("serve.request_encode_us", live_mean("serve.request_encode"));
    v.set("serve.request_decode_us", per_job("serve.request_decode"));
    v.set(
        "serve.reply_codec_us",
        per_job("serve.reply_encode") + live_mean("serve.reply_decode"),
    );
    v.set("serve.ack_us", live_mean("serve.ack"));
    v.set("serve.digest_us", per_job("serve.digest"));
    v.set("wal.payload_encode_us", per_job("wal.payload_encode"));
    v.set("wal.append_us", per_job("wal.append"));
    v.set("wal.fsync_us", replay.fsync_us);
    v.set("wal.bytes_per_job", replay.wal_bytes as f64 / jobs);
    v.set("system.build_us", per_job("system.build"));
    v.set("system.restore_us", per_job("system.restore"));
    v.set("snap.capture_us", per_job("snap.capture"));
    v.set("snap.encode_us", per_job("snap.encode"));
    v.set("snap.decode_us", per_job("snap.decode"));
    v.set(
        "snap.checkpoint_bytes",
        replay.checkpoint_bytes as f64 / replay.checkpoints.max(1) as f64,
    );
    v.set("engine.queue_us", done_mean(|d| d.queue_us));
    v.set("engine.exec_us", done_mean(|d| d.exec_us));
    v.set("engine.slices_per_job", done_mean(|d| d.slices));
    v.set("cu.dispatch_us", per_job("cu.dispatch"));
    v.set_cu(replay.instructions, replay.cycles, &replay.stall_cycles);
    let daemon_jobs = daemon_spans.len().max(1) as f64;
    for (name, kind) in [
        ("span.queue_us", SpanKind::Queue),
        ("span.restore_us", SpanKind::Restore),
        ("span.run_us", SpanKind::Run),
        ("span.capture_us", SpanKind::Capture),
        ("span.reply_us", SpanKind::Reply),
    ] {
        let total: u64 = daemon_spans.iter().map(|j| j.kind_us(kind)).sum();
        v.set(name, total as f64 / daemon_jobs);
    }
    v
}

/// Write the traced run's spans as JSONL next to the WAL scratch space.
fn write_spans(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    spans: &Spans,
    daemon_spans: &[JobSpans],
) -> Result<(), String> {
    let base: PathBuf = out_dir.join(format!("{workload}-seed{seed}"));
    let own = base.with_extension("spans.jsonl");
    std::fs::write(&own, spans.to_jsonl()).map_err(|e| format!("{}: {e}", own.display()))?;
    let mut lines = String::new();
    for job in daemon_spans {
        lines.push_str(&serde_json::to_string(job).map_err(|e| e.to_string())?);
        lines.push('\n');
    }
    let theirs = base.with_extension("daemon-spans.jsonl");
    std::fs::write(&theirs, lines).map_err(|e| format!("{}: {e}", theirs.display()))?;
    println!("spans: {} and {}", own.display(), theirs.display());
    Ok(())
}
