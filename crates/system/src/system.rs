//! The full system: CUs + dispatcher + host bookkeeping.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use scratch_asm::Kernel;
use scratch_cu::{ComputeUnit, CuConfig, CuError, CuStats, RunStatus, WaveInit, Wavefront};
use scratch_fastpath::{run_workgroup, translate, FastStats, Fuel, Program, WaveSlot};
use scratch_fpga::{cu_capacity_bound, Device};
use scratch_isa::{FuncUnit, WAVEFRONT_SIZE};
use scratch_metrics::{Counter, Gauge, Histogram, Registry};
use scratch_snap::{CuSnapshot, SnapError};
use scratch_trace::{EventBuffer, StallReason, TraceEvent, TraceSummary, Tracer as _};

use crate::fault::{CuFault, FaultRecord, FaultSpec, ScheduledFaults};
use crate::memory::{EpochDelta, EpochMemory, EpochState, MemTiming, MemoryState, SharedMemory};
use crate::{abi, ImageFault, SystemError};

/// Allocator capacity bound for the paper's device (cached — the additive
/// resource model is pure, so the bound never changes within a process).
fn device_cu_bound() -> u8 {
    static BOUND: OnceLock<u8> = OnceLock::new();
    *BOUND.get_or_init(|| cu_capacity_bound(&Device::XC7VX690T))
}

/// The three system configurations compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// The original MIAOW FPGA system: one 50 MHz clock domain.
    Original,
    /// Dual clock domain (memory side at 200 MHz).
    Dcd,
    /// Dual clock domain + prefetch memory — the paper's *baseline* for
    /// trimming and parallelism experiments.
    DcdPm,
}

impl SystemKind {
    /// CU clock (Hz) — 50 MHz in every configuration (critical path of the
    /// Issue stage).
    #[must_use]
    pub fn cu_clock_hz(self) -> f64 {
        50.0e6
    }

    /// MicroBlaze / memory-side clock (Hz).
    #[must_use]
    pub fn mb_clock_hz(self) -> f64 {
        match self {
            SystemKind::Original => 50.0e6,
            SystemKind::Dcd | SystemKind::DcdPm => 200.0e6,
        }
    }

    /// Memory timing parameters of this configuration.
    #[must_use]
    pub fn timing(self) -> MemTiming {
        match self {
            SystemKind::Original => MemTiming::original(),
            SystemKind::Dcd => MemTiming::dcd(),
            SystemKind::DcdPm => MemTiming::dcd_pm(),
        }
    }

    /// Display label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Original => "Original",
            SystemKind::Dcd => "DCD",
            SystemKind::DcdPm => "DCD+PM",
        }
    }
}

/// How much tracing a [`System`] performs (see `scratch-trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing: the untraced fast path.
    #[default]
    Off,
    /// Stall attribution only: [`RunReport::trace`] carries a
    /// [`TraceSummary`], no event stream is retained.
    Summary,
    /// Attribution plus the full structured event stream
    /// ([`RunReport::trace_events`]).
    Full,
}

/// Which execution tier runs dispatches (the functional/timing split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// The cycle-accurate pipeline model — full timing fidelity, the tier
    /// every paper experiment uses.
    #[default]
    Cycle,
    /// The block-compiled functional tier (`scratch-fastpath`): identical
    /// architectural results, no cycle modelling (dispatches report zero
    /// cycles). Traced or pipeline-fault-injected runs fall back to
    /// [`ExecMode::Cycle`] — those features live in the pipeline.
    Fast,
    /// Self-checking mode: every dispatch runs the fast tier against a
    /// throwaway memory view *and* the cycle pipeline, then verifies that
    /// each byte the fast tier wrote matches the committed cycle-model
    /// memory. Reports the cycle model's timing; a mismatch fails the
    /// dispatch with [`SystemError::FastDivergence`].
    FastWithTiming,
}

/// The largest global memory a system models: the 64 MiB of DDR3 every
/// preset carries. [`System::new`] rejects a configuration asking for
/// more, and [`System::restore`] a checkpoint claiming more, before
/// allocating anything for it.
pub const MAX_MEMORY_BYTES: usize = 64 << 20;

/// The most workgroups one dispatch may launch: 2^18. A dispatch plans
/// every workgroup's coordinates before it runs, and a paused one keeps
/// them, so the grid bounds that bookkeeping (3 MiB at this bound). Each
/// workgroup has at least one 64-lane wavefront, so a grid this large
/// that wrote one word per lane would already fill [`MAX_MEMORY_BYTES`];
/// the repository's kernels launch at most a few thousand.
/// [`dispatch_workgroups`] checks a grid against it.
pub const MAX_DISPATCH_WORKGROUPS: u64 = 1 << 18;

/// The number of workgroups `grid` launches, with workgroups of
/// `workgroup_size` work-items. [`System`]'s dispatches check every grid
/// with it before planning anything; an admission controller can call it
/// to refuse a grid before allocating anything for the job.
///
/// # Errors
///
/// [`SystemError::EmptyDispatch`] when the grid or the workgroup is
/// empty; [`SystemError::GridTooLarge`] past [`MAX_DISPATCH_WORKGROUPS`]
/// or when the grid's X extent in work-items overflows 32 bits (the
/// launch ABI publishes it as one word).
pub fn dispatch_workgroups(grid: [u32; 3], workgroup_size: u32) -> Result<u64, SystemError> {
    let total = grid
        .iter()
        .try_fold(1u64, |acc, &g| acc.checked_mul(u64::from(g)));
    if total == Some(0) || workgroup_size == 0 {
        return Err(SystemError::EmptyDispatch);
    }
    match total {
        Some(n)
            if n <= MAX_DISPATCH_WORKGROUPS && grid[0].checked_mul(workgroup_size).is_some() =>
        {
            Ok(n)
        }
        _ => Err(SystemError::GridTooLarge {
            grid,
            workgroup_size,
            max: MAX_DISPATCH_WORKGROUPS,
        }),
    }
}

/// Configuration of a [`System`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// System kind (clocking + memory path).
    pub kind: SystemKind,
    /// Number of compute units (the paper's multi-core axis).
    pub cus: u8,
    /// Per-CU architecture configuration (VALU counts, trim set, …).
    pub cu: CuConfig,
    /// Global memory size in bytes, at most [`MAX_MEMORY_BYTES`].
    pub memory_bytes: usize,
    /// Mark allocations prefetch-resident automatically when the prefetch
    /// buffer has room (the paper preloads application data at startup).
    pub auto_prefetch: bool,
    /// Cycle-attribution / event-tracing mode.
    pub trace: TraceMode,
    /// Worker threads used to run CU shards of a dispatch: `1` is the
    /// serial scheduler, `0` means one worker per available core. The
    /// worker count never changes simulated results — dispatches are
    /// epoch-batched so cycle counts are bit-identical at any setting —
    /// only host wall-clock time.
    pub workers: usize,
    /// Publish always-on aggregates (dispatch counters, latency
    /// histograms, IPC / occupancy gauges) into a metrics registry, and
    /// keep the CUs' cheap stall accounting. On by default; the overhead
    /// benchmarks turn it off to measure the cost of having it on.
    pub metrics: bool,
    /// Registry the system publishes into; `None` means the process-global
    /// [`scratch_metrics::global`] registry. Hermetic tests inject a
    /// private one via [`SystemConfig::with_registry`].
    pub registry: Option<Registry>,
    /// Scheduled fault injection (per-CU pipeline upsets + global-memory
    /// bit-flips at dispatch boundaries). Empty by default: injection off,
    /// untouched fast paths.
    pub faults: FaultSpec,
    /// Execution tier for dispatches (see [`ExecMode`]).
    pub exec: ExecMode,
    /// Collect per-PC retire counters (cycle tier) and expose per-kernel
    /// instruction-usage profiles via [`System::pc_profile`]. Off by
    /// default; never changes simulated results.
    pub profile: bool,
}

impl SystemConfig {
    /// Default configuration for `kind`: one CU, one SIMD + one SIMF, 64 MiB
    /// of DDR3, automatic prefetch residency.
    #[must_use]
    pub fn preset(kind: SystemKind) -> SystemConfig {
        SystemConfig {
            kind,
            cus: 1,
            cu: CuConfig::default(),
            memory_bytes: MAX_MEMORY_BYTES,
            auto_prefetch: true,
            trace: TraceMode::Off,
            workers: 1,
            metrics: true,
            registry: None,
            faults: FaultSpec::default(),
            exec: ExecMode::Cycle,
            profile: false,
        }
    }

    /// Builder-style override of the tracing mode.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceMode) -> SystemConfig {
        self.trace = trace;
        self
    }

    /// Builder-style override of the CU count, validated against the FPGA
    /// allocator's capacity bound for the paper's device
    /// ([`scratch_fpga::cu_capacity_bound`]): a CU count no allocation
    /// plan could ever back is rejected up front instead of simulating
    /// hardware that cannot be placed.
    ///
    /// # Errors
    ///
    /// [`SystemError::InvalidCuCount`] when `cus` is zero or exceeds the
    /// device bound.
    pub fn with_cus(mut self, cus: u8) -> Result<SystemConfig, SystemError> {
        let max = device_cu_bound();
        if cus == 0 || cus > max {
            return Err(SystemError::InvalidCuCount {
                requested: cus,
                max,
            });
        }
        self.cus = cus;
        Ok(self)
    }

    /// Builder-style override of the worker-thread count (see
    /// [`SystemConfig::workers`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> SystemConfig {
        self.workers = workers;
        self
    }

    /// Builder-style override of the per-CU configuration.
    #[must_use]
    pub fn with_cu_config(mut self, cu: CuConfig) -> SystemConfig {
        self.cu = cu;
        self
    }

    /// Builder-style override of the metrics plane (see
    /// [`SystemConfig::metrics`]). Also propagates to the per-CU stall
    /// accounting so `with_metrics(false)` measures the true untracked
    /// fast path.
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> SystemConfig {
        self.metrics = metrics;
        self.cu.metrics = metrics;
        self
    }

    /// Builder-style override of the registry the system publishes into
    /// (see [`SystemConfig::registry`]).
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> SystemConfig {
        self.registry = Some(registry);
        self
    }

    /// Builder-style override of the scheduled fault injection (see
    /// [`SystemConfig::faults`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> SystemConfig {
        self.faults = faults;
        self
    }

    /// Builder-style override of the execution tier (see [`ExecMode`]).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecMode) -> SystemConfig {
        self.exec = exec;
        self
    }

    /// Builder-style override of the continuous profiler (see
    /// [`SystemConfig::profile`]). Also switches the per-CU retire
    /// counters on so the cycle tier actually collects.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> SystemConfig {
        self.profile = profile;
        self.cu.profile = profile;
        self
    }
}

/// Cumulative measurements of a system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// CU cycles consumed (max across compute units).
    pub cu_cycles: u64,
    /// MicroBlaze host cycles consumed (host phases of the application).
    pub host_cycles: u64,
    /// Wall-clock seconds: CU time at 50 MHz + host time at the MicroBlaze
    /// clock.
    pub seconds: f64,
    /// Merged CU statistics.
    pub stats: CuStats,
    /// Per-CU cycle counts.
    pub per_cu_cycles: Vec<u64>,
    /// Accesses that went down the global (MicroBlaze) memory path.
    pub global_accesses: u64,
    /// Accesses serviced by the prefetch buffer.
    pub prefetch_hits: u64,
    /// CU cycles attributed to each loaded kernel (per-kernel trimming
    /// analysis, §4.3).
    pub per_kernel_cycles: Vec<u64>,
    /// Dispatches of each loaded kernel.
    pub per_kernel_dispatches: Vec<u64>,
    /// Number of times consecutive dispatches changed kernels (each would
    /// trigger a partial reconfiguration under per-kernel trimming).
    pub kernel_switches: u64,
    /// Merged stall-attribution summary ([`TraceMode::Summary`] or
    /// [`TraceMode::Full`]; `None` when tracing was off).
    pub trace: Option<TraceSummary>,
    /// The structured event stream ([`TraceMode::Full`] only).
    pub trace_events: Option<Vec<TraceEvent>>,
    /// Pipeline faults that actually fired ([`SystemConfig::faults`];
    /// empty when injection is off).
    pub fault_records: Vec<FaultRecord>,
    /// Per-PC retire counters attributed to each loaded kernel
    /// ([`SystemConfig::profile`] only — empty vectors otherwise).
    pub pc_profiles: Vec<Vec<u64>>,
}

impl RunReport {
    /// Dynamic instructions executed.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }
}

/// A complete soft-GPGPU system: global memory, N compute units, and the
/// ultra-threaded dispatcher (the MicroBlaze's roles from §2.2.2).
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    kernels: Vec<Kernel>,
    mem: SharedMemory,
    cus: Vec<ComputeUnit>,
    bump: u64,
    args_addr: Option<u64>,
    args_len: u64,
    cb0_addr: u64,
    host_cycles: u64,
    per_kernel_cycles: Vec<u64>,
    per_kernel_dispatches: Vec<u64>,
    kernel_switches: u64,
    last_kernel: Option<usize>,
    /// System-level event stream under [`TraceMode::Full`]: per-CU events
    /// are drained into it in CU order after every dispatch.
    trace_buf: Option<EventBuffer>,
    /// Private per-CU event sinks ([`TraceMode::Full`] only) — each CU
    /// records into its own buffer so shards can run on worker threads
    /// without interleaving the stream nondeterministically.
    cu_bufs: Vec<EventBuffer>,
    /// Registry handles + baselines of the metrics plane; `None` when
    /// [`SystemConfig::metrics`] is off.
    metrics: Option<SysMetrics>,
    /// 0-based dispatch sequence number, for [`MemUpset`] scheduling.
    dispatch_seq: u64,
    /// Pipeline faults drained from the CUs after each dispatch.
    fault_log: Vec<FaultRecord>,
    /// In-flight preemptible dispatch, between quanta. `None` when no
    /// dispatch is paused.
    paused: Option<PausedDispatch>,
    /// Lazily translated fast-tier programs plus accumulated fast-tier
    /// counters, one slot per loaded kernel.
    fast: Vec<Option<FastSlot>>,
    /// Dynamic instructions executed by the fast tier (pure
    /// [`ExecMode::Fast`] dispatches — `FastWithTiming` counts through
    /// the cycle pipeline it also runs).
    fast_instructions: u64,
    /// Per-kernel per-PC retire counters drained from the CUs after each
    /// cycle-tier dispatch ([`SystemConfig::profile`] only).
    per_kernel_pc: Vec<Vec<u64>>,
    /// Job id stamped on emitted trace events (serve sets it per job so
    /// engine shards and fault events correlate with job spans; 0 means
    /// unattributed).
    job_id: u64,
}

/// One kernel's translated fast-tier program and its accumulated counters.
#[derive(Debug)]
struct FastSlot {
    prog: Arc<Program>,
    stats: FastStats,
}

impl System {
    /// Build a system running `kernel`.
    ///
    /// # Errors
    ///
    /// Fails if the kernel binary does not decode.
    pub fn new(config: SystemConfig, kernel: &Kernel) -> Result<System, SystemError> {
        System::with_kernels(config, std::slice::from_ref(kernel))
    }

    /// Build a system loaded with several kernels of one application
    /// (dispatched by index through [`System::dispatch_kernel`]).
    ///
    /// # Errors
    ///
    /// Fails when `kernels` is empty, a binary does not decode, or the CU
    /// count falls outside the device's allocator capacity bound.
    pub fn with_kernels(config: SystemConfig, kernels: &[Kernel]) -> Result<System, SystemError> {
        let first = kernels.first().ok_or(SystemError::EmptyDispatch)?;
        let max = device_cu_bound();
        if config.cus == 0 || config.cus > max {
            return Err(SystemError::InvalidCuCount {
                requested: config.cus,
                max,
            });
        }
        if config.memory_bytes > MAX_MEMORY_BYTES {
            return Err(SystemError::MemoryTooLarge {
                requested: config.memory_bytes as u64,
                max: MAX_MEMORY_BYTES as u64,
            });
        }
        let mut mem = SharedMemory::new(config.memory_bytes, config.kind.timing());
        mem.set_sharers(u32::from(config.cus));
        let trace_buf = (config.trace == TraceMode::Full).then(EventBuffer::new);
        let metrics = config.metrics.then(|| SysMetrics::new(&config));
        // The system-level switch also governs the per-CU accounting: with
        // the plane off nothing reads `CuStats::stall_cycles`, so the CUs
        // skip collecting it.
        let mut cu_cfg = config.cu.clone();
        cu_cfg.metrics = cu_cfg.metrics && config.metrics;
        // Either switch turns the per-PC counters on: `with_profile` sets
        // both, a hand-built config may set only the system-level flag.
        cu_cfg.profile = cu_cfg.profile || config.profile;
        let mut cu_bufs = Vec::new();
        let mut cus = Vec::with_capacity(usize::from(config.cus));
        for ci in 0..config.cus {
            let mut cu = ComputeUnit::new(cu_cfg.clone(), first)?;
            match config.trace {
                TraceMode::Full => {
                    let buf = EventBuffer::new();
                    cu.set_tracer(u32::from(ci), Box::new(buf.clone()));
                    cu_bufs.push(buf);
                }
                TraceMode::Summary => cu.enable_tracing(u32::from(ci)),
                TraceMode::Off => {}
            }
            // Scheduled pipeline faults targeting this CU (indices taken
            // modulo the CU count so plans stay valid across topologies).
            let scheduled: Vec<CuFault> = config
                .faults
                .cu
                .iter()
                .filter(|u| u.cu % config.cus == ci)
                .map(|u| u.fault)
                .collect();
            if !scheduled.is_empty() {
                cu.set_fault_hook(Box::new(ScheduledFaults::new(u32::from(ci), scheduled)));
            }
            cus.push(cu);
        }
        let n = kernels.len();
        let mut sys = System {
            config,
            kernels: kernels.to_vec(),
            mem,
            cus,
            bump: 0x1000,
            args_addr: None,
            args_len: 0,
            cb0_addr: 0,
            host_cycles: 0,
            per_kernel_cycles: vec![0; n],
            per_kernel_dispatches: vec![0; n],
            kernel_switches: 0,
            last_kernel: None,
            trace_buf,
            cu_bufs,
            metrics,
            dispatch_seq: 0,
            fault_log: Vec::new(),
            paused: None,
            fast: (0..n).map(|_| None).collect(),
            fast_instructions: 0,
            per_kernel_pc: vec![Vec::new(); n],
            job_id: 0,
        };
        sys.cb0_addr = sys.alloc(64);
        Ok(sys)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Schedule an additional global-memory upset after construction —
    /// used when the target address is only known once the allocator has
    /// placed the buffers. Applies at the same dispatch boundary as
    /// upsets from [`SystemConfig::with_faults`].
    pub fn schedule_mem_upset(&mut self, upset: crate::fault::MemUpset) {
        self.config.faults.mem.push(upset);
    }

    /// The first loaded kernel.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernels[0]
    }

    /// All loaded kernels.
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Direct access to the shared memory (host-side).
    #[must_use]
    pub fn memory(&self) -> &SharedMemory {
        &self.mem
    }

    /// Allocate `bytes` of global memory (256-byte aligned). On DCD+PM
    /// systems with `auto_prefetch`, the range is marked prefetch-resident
    /// if the buffer has room (best effort, as the MicroBlaze preload does).
    ///
    /// # Panics
    ///
    /// Panics when global memory is exhausted — allocation failures are a
    /// host-program bug in this simulator, not a recoverable condition.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let addr = self.bump;
        let size = bytes.div_ceil(256) * 256;
        assert!(
            (addr + size) as usize <= self.mem.len(),
            "out of global memory: {bytes} bytes requested at {addr:#x}"
        );
        self.bump += size;
        if self.config.auto_prefetch && self.config.kind == SystemKind::DcdPm {
            self.mem.prefetch_partial(addr, size);
        }
        addr
    }

    /// Allocate and fill a buffer with `words`.
    pub fn alloc_words(&mut self, words: &[u32]) -> u64 {
        let addr = self.alloc(words.len() as u64 * 4);
        self.mem.write_words(addr, words);
        addr
    }

    /// Host-side write of words into memory.
    pub fn write_words(&mut self, addr: u64, words: &[u32]) {
        self.mem.write_words(addr, words);
    }

    /// Host-side read of words from memory.
    #[must_use]
    pub fn read_words(&self, addr: u64, count: usize) -> Vec<u32> {
        self.mem.read_words(addr, count)
    }

    /// Explicitly mark a range prefetch-resident.
    ///
    /// # Errors
    ///
    /// Fails when the configuration has no prefetch buffer or capacity is
    /// exceeded.
    pub fn prefetch(&mut self, addr: u64, len: u64) -> Result<(), SystemError> {
        self.mem.prefetch(addr, len)
    }

    /// Set the kernel argument words (`IMM_CONST_BUFFER1` contents).
    pub fn set_args(&mut self, args: &[u32]) {
        let addr = self.alloc(args.len().max(1) as u64 * 4);
        self.mem.write_words(addr, args);
        self.args_addr = Some(addr);
        self.args_len = args.len() as u64 * 4;
    }

    /// Charge `cycles` of MicroBlaze host processing (data initialisation,
    /// K-means recentering, Gaussian back-substitution, …).
    pub fn host_work(&mut self, cycles: u64) {
        self.host_cycles += cycles;
    }

    /// Launch `grid` workgroups ([x, y, z]) of the loaded kernel and run to
    /// completion. Returns the CU cycles this dispatch took (max across
    /// CUs).
    ///
    /// # Errors
    ///
    /// Propagates CU failures (trim violations, deadlocks, …); fails on
    /// empty grids or missing arguments.
    pub fn dispatch(&mut self, grid: [u32; 3]) -> Result<u64, SystemError> {
        self.dispatch_kernel(0, grid)
    }

    /// Launch `grid` workgroups of kernel `idx` (multi-kernel applications:
    /// the dispatcher reloads the CU instruction memories first).
    ///
    /// # Errors
    ///
    /// As [`System::dispatch`]; additionally panics are avoided by treating
    /// an out-of-range index as an empty dispatch error.
    pub fn dispatch_kernel(&mut self, idx: usize, grid: [u32; 3]) -> Result<u64, SystemError> {
        if self.paused.is_some() {
            return Err(preemption("a paused preemptible dispatch is in flight"));
        }
        match self.exec_tier() {
            ExecMode::Cycle => self.dispatch_cycle(idx, grid),
            ExecMode::Fast => self.dispatch_fast(idx, grid),
            ExecMode::FastWithTiming => self.dispatch_fast_timing(idx, grid),
        }
    }

    /// The tier a dispatch actually runs on: traced and pipeline-fault-
    /// injected runs always take the cycle pipeline (the fast tier models
    /// neither), otherwise whatever [`SystemConfig::exec`] selected.
    fn exec_tier(&self) -> ExecMode {
        if self.config.trace != TraceMode::Off || !self.config.faults.cu.is_empty() {
            ExecMode::Cycle
        } else {
            self.config.exec
        }
    }

    /// Run-to-completion dispatch on the cycle-accurate pipeline.
    fn dispatch_cycle(&mut self, idx: usize, grid: [u32; 3]) -> Result<u64, SystemError> {
        let (launch, assignments) = self.plan_dispatch(idx, grid)?;
        let before: Vec<u64> = self.cus.iter().map(ComputeUnit::now).collect();
        self.run_cycle_epoch(&launch, &assignments, &before)?;
        Ok(self.finish_dispatch(idx, &before))
    }

    /// Run one planned dispatch epoch on the cycle pipeline and commit it.
    fn run_cycle_epoch(
        &mut self,
        launch: &Launch,
        assignments: &CuAssignments,
        before: &[u64],
    ) -> Result<(), SystemError> {
        let n_cus = self.cus.len();
        let workers = self.effective_workers().min(n_cus).max(1);

        // Run every CU's shard against a private epoch view of the shared
        // memory; no shard observes another's writes or server clock, so
        // the outcomes are identical whichever scheduler produced them.
        let mut outcomes: Vec<ShardOutcome> = if workers > 1 {
            self.run_shards_parallel(launch, assignments, workers)
        } else {
            let mem = &self.mem;
            self.cus
                .iter_mut()
                .zip(assignments)
                .map(|(cu, wgs)| {
                    let mut view = mem.epoch();
                    let res = run_cu_share(cu, launch, wgs, &mut view);
                    Some((res, view.finish()))
                })
                .collect()
        };

        // Deterministic commit: apply deltas and drain per-CU trace events
        // in CU-index order, stopping at the first failing CU. Shards at
        // or past a failure never become visible.
        let mut failure: Option<SystemError> = None;
        for (ci, slot) in outcomes.iter_mut().enumerate() {
            let (res, delta) = slot.take().expect("every shard produces an outcome");
            if failure.is_some() {
                continue;
            }
            match res {
                Ok(()) => {
                    self.mem.commit(delta);
                    if let Some(buf) = &mut self.trace_buf {
                        buf.extend(self.cu_bufs[ci].take());
                        buf.record(&TraceEvent::ShardRun {
                            cu: ci as u32,
                            worker: (ci % workers) as u32,
                            start: before[ci],
                            end: self.cus[ci].now(),
                            job: self.job_id,
                        });
                    }
                }
                Err(e) => failure = Some(e),
            }
        }
        if let Some(e) = failure {
            for buf in &self.cu_bufs {
                let _ = buf.take();
            }
            return Err(e);
        }
        Ok(())
    }

    /// Run-to-completion dispatch on the block-compiled fast tier: the
    /// same plan, workgroup shares, launch ABI, epoch views, and CU-order
    /// commit as [`System::dispatch_cycle`], but each share is executed by
    /// the translated program instead of the cycle pipeline. Returns 0
    /// cycles — the fast tier is functional-only.
    fn dispatch_fast(&mut self, idx: usize, grid: [u32; 3]) -> Result<u64, SystemError> {
        let (launch, assignments) = self.plan_dispatch(idx, grid)?;
        let prog = self.fast_program(idx)?;
        let outcomes = self.run_fast_shards(&prog, &launch, &assignments);
        let mut failure: Option<SystemError> = None;
        let mut stats = FastStats::for_program(&prog);
        for slot in outcomes {
            let (res, delta) = slot.expect("every fast shard produces an outcome");
            if failure.is_some() {
                continue;
            }
            match res {
                Ok(s) => {
                    self.mem.commit(delta);
                    stats.merge(&s);
                }
                Err(e) => failure = Some(e),
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        self.fast_instructions += stats.instructions;
        if let Some(slot) = &mut self.fast[idx] {
            slot.stats.merge(&stats);
        }
        self.finish_fast_dispatch(idx);
        Ok(0)
    }

    /// Self-checking dispatch: run the fast tier against throwaway views
    /// of the pre-dispatch memory, run (and commit) the cycle pipeline as
    /// usual, then verify every byte the fast tier wrote against the
    /// committed image. Returns the cycle pipeline's cycle count.
    fn dispatch_fast_timing(&mut self, idx: usize, grid: [u32; 3]) -> Result<u64, SystemError> {
        let (launch, assignments) = self.plan_dispatch(idx, grid)?;
        let prog = self.fast_program(idx)?;
        // Fast tier first, over views seeded from the same pre-dispatch
        // base the cycle shards will see. Its deltas are never committed.
        let fast_outcomes = self.run_fast_shards(&prog, &launch, &assignments);
        let before: Vec<u64> = self.cus.iter().map(ComputeUnit::now).collect();
        let cycle_res = self.run_cycle_epoch(&launch, &assignments, &before);
        let mut fast_err: Option<SystemError> = None;
        let mut stats = FastStats::for_program(&prog);
        let mut deltas = Vec::new();
        for slot in fast_outcomes {
            let (res, delta) = slot.expect("every fast shard produces an outcome");
            match res {
                Ok(s) => {
                    stats.merge(&s);
                    deltas.push(delta);
                }
                Err(e) => {
                    if fast_err.is_none() {
                        fast_err = Some(e);
                    }
                }
            }
        }
        match (cycle_res, fast_err) {
            // The cycle pipeline is authoritative: its failure is the
            // dispatch's failure whatever the fast tier thought.
            (Err(e), _) => return Err(e),
            (Ok(()), Some(e)) => {
                return Err(SystemError::FastDivergence {
                    what: format!("fast tier failed where the cycle pipeline succeeded: {e}"),
                });
            }
            (Ok(()), None) => {}
        }
        for delta in &deltas {
            if let Some((addr, want, got)) = self.mem.first_delta_mismatch(delta) {
                return Err(SystemError::FastDivergence {
                    what: format!(
                        "byte {addr:#x}: fast tier wrote {want:#04x}, cycle pipeline has {got:#04x}"
                    ),
                });
            }
        }
        // The cycle pipeline already counted this dispatch's instructions;
        // only the per-kernel fast counters record the shadow run.
        if let Some(slot) = &mut self.fast[idx] {
            slot.stats.merge(&stats);
        }
        Ok(self.finish_dispatch(idx, &before))
    }

    /// Translate kernel `idx` for the fast tier (cached after the first
    /// dispatch) and hand back its program.
    fn fast_program(&mut self, idx: usize) -> Result<Arc<Program>, SystemError> {
        if self.fast[idx].is_none() {
            let prog = translate(&self.kernels[idx], self.cus[0].config())?;
            let stats = FastStats::for_program(&prog);
            self.fast[idx] = Some(FastSlot {
                prog: Arc::new(prog),
                stats,
            });
        }
        Ok(Arc::clone(
            &self.fast[idx].as_ref().expect("slot just filled").prog,
        ))
    }

    /// Run every CU share of a fast-tier dispatch against private epoch
    /// views, serially or on scoped worker threads exactly like the cycle
    /// schedulers. Returns one outcome slot per CU, in CU-index order.
    fn run_fast_shards(
        &self,
        prog: &Program,
        launch: &Launch,
        assignments: &CuAssignments,
    ) -> Vec<FastShardOutcome> {
        let cfg = self.cus[0].config();
        let workers = self.effective_workers().min(assignments.len()).max(1);
        let mem = &self.mem;
        if workers > 1 {
            let outcomes: Vec<Mutex<FastShardOutcome>> =
                (0..assignments.len()).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers.min(assignments.len()) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(wgs) = assignments.get(i) else { break };
                        let mut view = mem.epoch();
                        let res = run_fast_share(prog, launch, wgs, &mut view, cfg);
                        *outcomes[i].lock().expect("outcome slot lock") =
                            Some((res, view.finish()));
                    });
                }
            });
            outcomes
                .into_iter()
                .map(|m| m.into_inner().expect("outcome lock"))
                .collect()
        } else {
            assignments
                .iter()
                .map(|wgs| {
                    let mut view = mem.epoch();
                    let res = run_fast_share(prog, launch, wgs, &mut view, cfg);
                    Some((res, view.finish()))
                })
                .collect()
        }
    }

    /// Fast-tier dispatch epilogue: the same per-kernel accounting and
    /// metrics flush as [`System::finish_dispatch`], with zero cycles
    /// spent (the fast tier has no clock).
    fn finish_fast_dispatch(&mut self, idx: usize) {
        self.per_kernel_dispatches[idx] += 1;
        if self.last_kernel.is_some_and(|prev| prev != idx) {
            self.kernel_switches += 1;
        }
        self.last_kernel = Some(idx);
        if let Some(m) = &mut self.metrics {
            let mut instructions = self.fast_instructions;
            let mut stalls = [0u64; StallReason::ALL.len()];
            for cu in &self.cus {
                let s = cu.stats();
                instructions += s.instructions;
                for (&r, &n) in &s.stall_cycles {
                    stalls[r as usize] += n;
                }
            }
            m.flush_dispatch(0, instructions, &stalls, &self.mem);
        }
    }

    /// Accumulated fast-tier statistics for kernel `idx`: dynamic
    /// instruction and per-block dispatch counts over every fast or
    /// self-checking dispatch so far. `None` until the kernel's first
    /// fast-tier dispatch (or for an out-of-range index).
    #[must_use]
    pub fn fast_stats(&self, idx: usize) -> Option<&FastStats> {
        self.fast
            .get(idx)
            .and_then(|s| s.as_ref())
            .map(|s| &s.stats)
    }

    /// Static per-block instruction profiles of kernel `idx`'s fast-tier
    /// program ([`scratch_fastpath::BlockProfile`]); `None` until the
    /// kernel's first fast-tier dispatch translated it.
    #[must_use]
    pub fn fast_block_profiles(&self, idx: usize) -> Option<Vec<scratch_fastpath::BlockProfile>> {
        self.fast
            .get(idx)
            .and_then(|s| s.as_ref())
            .map(|s| s.prog.block_profiles())
    }

    /// Per-PC retire counters accumulated for kernel `idx` across every
    /// cycle-tier dispatch so far ([`SystemConfig::profile`] only — empty
    /// otherwise, and empty for an out-of-range index).
    #[must_use]
    pub fn pc_profile(&self, idx: usize) -> &[u64] {
        self.per_kernel_pc.get(idx).map_or(&[], |v| v.as_slice())
    }

    /// Stamp `job` on subsequently emitted trace events (see
    /// [`TraceEvent::ShardRun`]; 0 restores the unattributed default).
    pub fn set_job_id(&mut self, job: u64) {
        self.job_id = job;
    }

    /// Fold each CU's per-PC retire counters into kernel `idx`'s profile,
    /// leaving the CUs zeroed for the next dispatch.
    fn drain_pc_counts(&mut self, idx: usize) {
        let acc = &mut self.per_kernel_pc[idx];
        for cu in &mut self.cus {
            let counts = cu.take_pc_counts();
            if acc.len() < counts.len() {
                acc.resize(counts.len(), 0);
            }
            for (a, c) in acc.iter_mut().zip(&counts) {
                *a += c;
            }
        }
    }

    /// Shared prologue of the run-to-completion and preemptible dispatch
    /// paths: validate the launch, materialise scheduled memory upsets at
    /// the dispatch boundary, publish the OpenCL call values, and
    /// round-robin the grid's workgroups over the CUs.
    fn plan_dispatch(
        &mut self,
        idx: usize,
        grid: [u32; 3],
    ) -> Result<(Launch, CuAssignments), SystemError> {
        let args_addr = self.args_addr.ok_or(SystemError::ArgsNotSet)?;
        let kernel = self
            .kernels
            .get(idx)
            .ok_or(SystemError::EmptyDispatch)?
            .clone();
        let wg_size = kernel.meta().workgroup_size;
        dispatch_workgroups(grid, wg_size)?;
        let waves_per_wg = (wg_size as usize).div_ceil(WAVEFRONT_SIZE);
        if let Some(buf) = &mut self.trace_buf {
            buf.record(&TraceEvent::KernelDispatch {
                kernel: kernel.name().to_owned(),
                grid,
                workgroup_size: wg_size,
            });
        }

        // Scheduled global-memory upsets materialise at the dispatch
        // boundary, before any epoch view of this dispatch is created —
        // every CU shard sees the same upset image whichever scheduler
        // runs it (the serial-vs-parallel bit-identity invariant).
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        if !self.config.faults.mem.is_empty() {
            let now = self.cus.iter().map(ComputeUnit::now).max().unwrap_or(0);
            for i in 0..self.config.faults.mem.len() {
                let u = self.config.faults.mem[i];
                if u.dispatch == seq {
                    self.mem.flip_bit(u.addr, u.bit);
                    if let Some(buf) = &mut self.trace_buf {
                        buf.record(&TraceEvent::FaultInjected {
                            cu: 0,
                            wave: 0,
                            class: "mem".to_owned(),
                            detail: format!(
                                "global byte {:#x} bit {} (dispatch {seq})",
                                u.addr, u.bit
                            ),
                            now,
                            job: self.job_id,
                        });
                    }
                }
            }
        }

        // OpenCL call values. The global X size cannot overflow its
        // word: `dispatch_workgroups` refused such a grid above.
        self.mem.write_words(
            self.cb0_addr,
            &[grid[0], grid[1], grid[2], wg_size, grid[0] * wg_size],
        );
        let launch = Launch {
            kernel,
            wg_size,
            waves_per_wg,
            cb0: self.cb0_addr,
            args_addr,
            args_len: self.args_len,
        };

        // Round-robin workgroups over the CUs.
        let n_cus = self.cus.len();
        let mut assignments: CuAssignments = vec![Vec::new(); n_cus];
        let mut i = 0usize;
        for z in 0..grid[2] {
            for y in 0..grid[1] {
                for x in 0..grid[0] {
                    assignments[i % n_cus].push([x, y, z]);
                    i += 1;
                }
            }
        }
        Ok((launch, assignments))
    }

    /// Shared epilogue of both dispatch paths, run once every shard has
    /// committed: drain pipeline-fault records in CU-index order, account
    /// the dispatch to its kernel, and flush the metrics plane. Returns
    /// the CU cycles the dispatch took (max across CUs).
    fn finish_dispatch(&mut self, idx: usize, before: &[u64]) -> u64 {
        if !self.config.faults.cu.is_empty() {
            for cu in &mut self.cus {
                for rec in cu.drain_fault_records() {
                    if let Some(buf) = &mut self.trace_buf {
                        buf.record(&TraceEvent::FaultInjected {
                            cu: rec.cu,
                            wave: rec.wave,
                            class: rec.target.class().to_owned(),
                            detail: rec.target.to_string(),
                            now: rec.now,
                            job: self.job_id,
                        });
                    }
                    self.fault_log.push(rec);
                }
            }
        }

        if self.config.profile {
            self.drain_pc_counts(idx);
        }

        let spent = self
            .cus
            .iter()
            .zip(before)
            .map(|(cu, &b)| cu.now() - b)
            .max()
            .unwrap_or(0);
        self.per_kernel_cycles[idx] += spent;
        self.per_kernel_dispatches[idx] += 1;
        if self.last_kernel.is_some_and(|prev| prev != idx) {
            self.kernel_switches += 1;
        }
        self.last_kernel = Some(idx);
        if let Some(m) = &mut self.metrics {
            // Include the fast tier's running total so mixed-mode flushes
            // diff against a monotonic cumulative count.
            let mut instructions = self.fast_instructions;
            let mut stalls = [0u64; StallReason::ALL.len()];
            for cu in &self.cus {
                let s = cu.stats();
                instructions += s.instructions;
                for (&r, &n) in &s.stall_cycles {
                    stalls[r as usize] += n;
                }
            }
            m.flush_dispatch(spent, instructions, &stalls, &self.mem);
        }
        spent
    }

    /// Begin a *preemptible* launch of `grid` workgroups of the first
    /// loaded kernel and run its first quantum immediately. The dispatch
    /// executes in `quantum`-cycle slices: each call runs every
    /// still-unfinished CU shard for up to `quantum` CU cycles, then
    /// yields [`DispatchProgress::Paused`] until [`System::resume_dispatch`]
    /// continues it. While paused, [`System::checkpoint`] serialises the
    /// whole machine so the dispatch can resume in another process.
    ///
    /// The preempted execution is bit-identical to an uninterrupted
    /// [`System::dispatch`] — same memory contents, same cycle counts —
    /// whatever the quantum: shards keep private epoch views across
    /// pauses and deltas commit in CU order only at completion.
    ///
    /// # Errors
    ///
    /// As [`System::dispatch`]; additionally fails when a paused dispatch
    /// is already in flight or tracing is enabled (preemptible dispatch
    /// requires [`TraceMode::Off`]). A CU failure mid-quantum aborts the
    /// whole dispatch: no shard's writes become visible.
    pub fn dispatch_preemptible(
        &mut self,
        grid: [u32; 3],
        quantum: u64,
    ) -> Result<DispatchProgress, SystemError> {
        self.dispatch_kernel_preemptible(0, grid, quantum)
    }

    /// As [`System::dispatch_preemptible`], for kernel `idx`.
    ///
    /// # Errors
    ///
    /// As [`System::dispatch_preemptible`].
    pub fn dispatch_kernel_preemptible(
        &mut self,
        idx: usize,
        grid: [u32; 3],
        quantum: u64,
    ) -> Result<DispatchProgress, SystemError> {
        if self.paused.is_some() {
            return Err(preemption("a paused preemptible dispatch is in flight"));
        }
        if self.config.trace != TraceMode::Off {
            return Err(preemption("preemptible dispatch requires TraceMode::Off"));
        }
        // Checkpoints serialise cycle-accurate pipeline state; the fast
        // tier has none, so refuse up front rather than silently taking
        // wrong-cycle checkpoints.
        if self.config.exec != ExecMode::Cycle {
            return Err(SystemError::Snap(SnapError::UnsupportedExecMode));
        }
        let (launch, assignments) = self.plan_dispatch(idx, grid)?;
        // Load the kernel and clear retired waves on every CU up front
        // (the run-to-completion path does this lazily per batch) so a
        // checkpoint only ever holds waves of the in-flight kernel.
        for cu in &mut self.cus {
            cu.load_kernel(&launch.kernel)?;
            cu.clear_waves();
        }
        let before: Vec<u64> = self.cus.iter().map(ComputeUnit::now).collect();
        // Every shard's epoch view is seeded from the same pre-dispatch
        // base, exactly as the run-to-completion schedulers see it.
        let epochs: Vec<Option<EpochState>> = self
            .cus
            .iter()
            .map(|_| Some(self.mem.epoch().suspend()))
            .collect();
        let cursors = vec![
            ShareCursor {
                loaded: true,
                next_wg: 0,
                mid_batch: false,
            };
            self.cus.len()
        ];
        self.paused = Some(PausedDispatch {
            kernel_idx: idx,
            grid,
            launch,
            assignments,
            cursors,
            epochs,
            before,
        });
        self.dispatch_step(quantum)
    }

    /// Run one more quantum of the paused preemptible dispatch.
    ///
    /// # Errors
    ///
    /// Fails when no dispatch is paused; propagates CU failures, which
    /// abort the dispatch (no shard's writes become visible).
    pub fn resume_dispatch(&mut self, quantum: u64) -> Result<DispatchProgress, SystemError> {
        if self.paused.is_none() {
            return Err(preemption("no paused dispatch to resume"));
        }
        self.dispatch_step(quantum)
    }

    /// A preemptible dispatch is currently paused between quanta.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.paused.is_some()
    }

    /// Dynamic instructions issued so far, per CU. Fault-injection
    /// campaigns compare these against their scheduled upsets' `at_issue`
    /// indices (which count the same per-CU issue stream) to decide
    /// whether a checkpoint predates every fault.
    #[must_use]
    pub fn per_cu_instructions(&self) -> Vec<u64> {
        self.cus.iter().map(|cu| cu.stats().instructions).collect()
    }

    /// One quantum: advance every unfinished shard by up to `quantum` CU
    /// cycles against its private epoch view, then either park the
    /// dispatch again or commit and finish it.
    fn dispatch_step(&mut self, quantum: u64) -> Result<DispatchProgress, SystemError> {
        let quantum = quantum.max(1);
        let mut p = self
            .paused
            .take()
            .expect("callers ensure a paused dispatch");
        let mut all_done = true;
        for (ci, cu) in self.cus.iter_mut().enumerate() {
            let wgs = p.assignments[ci].as_slice();
            if p.cursors[ci].finished(wgs.len()) {
                continue;
            }
            let state = p.epochs[ci]
                .take()
                .expect("unfinished shards keep an epoch");
            let mut view = self.mem.epoch_resume(state);
            // A `?` here aborts the whole dispatch: the paused state was
            // taken, so no shard's writes ever become visible.
            let done =
                run_cu_share_slice(cu, &p.launch, wgs, &mut view, &mut p.cursors[ci], quantum)?;
            p.epochs[ci] = Some(view.suspend());
            all_done &= done;
        }
        if !all_done {
            self.paused = Some(p);
            return Ok(DispatchProgress::Paused);
        }
        // Deterministic commit in CU-index order — the same order the
        // run-to-completion scheduler applies deltas.
        for slot in &mut p.epochs {
            let state = slot
                .take()
                .expect("every shard holds an epoch at completion");
            self.mem.commit(state.into_delta());
        }
        let spent = self.finish_dispatch(p.kernel_idx, &p.before);
        Ok(DispatchProgress::Complete { cycles: spent })
    }

    /// Serialise the entire machine — memory image, CU architectural
    /// state, dispatch bookkeeping, and the paused dispatch's progress —
    /// into a [`SystemCheckpoint`]. Only callable while a preemptible
    /// dispatch is paused (the only point where CU state is at an
    /// instruction boundary on every CU).
    ///
    /// # Errors
    ///
    /// Fails when no dispatch is paused.
    pub fn checkpoint(&self) -> Result<SystemCheckpoint, SystemError> {
        let p = self
            .paused
            .as_ref()
            .ok_or_else(|| preemption("checkpoints are taken while a dispatch is paused"))?;
        Ok(SystemCheckpoint {
            kind: self.config.kind,
            cus: self.config.cus,
            cu: self.config.cu.clone(),
            memory_bytes: self.config.memory_bytes as u64,
            auto_prefetch: self.config.auto_prefetch,
            metrics: self.config.metrics,
            kernels: self.kernels.clone(),
            memory: self.mem.checkpoint_state(),
            bump: self.bump,
            args_addr: self.args_addr,
            args_len: self.args_len,
            cb0_addr: self.cb0_addr,
            host_cycles: self.host_cycles,
            per_kernel_cycles: self.per_kernel_cycles.clone(),
            per_kernel_dispatches: self.per_kernel_dispatches.clone(),
            kernel_switches: self.kernel_switches,
            last_kernel: self.last_kernel.map(|i| i as u64),
            dispatch_seq: self.dispatch_seq,
            cu_state: self.cus.iter().map(ComputeUnit::snapshot).collect(),
            paused: PausedState {
                kernel_idx: p.kernel_idx as u64,
                grid: p.grid,
                assignments: p.assignments.clone(),
                cursors: p.cursors.clone(),
                epochs: p.epochs.clone(),
                before: p.before.clone(),
            },
            per_kernel_pc: self.per_kernel_pc.clone(),
        })
    }

    /// Rebuild a paused system from a [`SystemCheckpoint`], ready for
    /// [`System::resume_dispatch`]. The restored system publishes into
    /// `registry` when given one (otherwise the process-global registry),
    /// always runs untraced with the serial scheduler, and carries **no**
    /// fault hooks — resuming from a checkpoint taken before an injected
    /// fault fired replays the execution fault-free, which is exactly
    /// what checkpoint-based recovery wants.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint's shard tables are inconsistent or a CU
    /// snapshot does not validate against the configuration and kernel it
    /// claims ([`SystemError::Preemption`], [`SystemError::Cu`]), and —
    /// before any memory is allocated — when its memory is larger than
    /// [`MAX_MEMORY_BYTES`] ([`SystemError::MemoryTooLarge`]), or its image
    /// or a paused CU's suspended epoch view does not describe that memory
    /// ([`SystemError::MalformedImage`]).
    pub fn restore(
        ck: &SystemCheckpoint,
        registry: Option<Registry>,
    ) -> Result<System, SystemError> {
        let n = usize::from(ck.cus);
        if ck.cu_state.len() != n
            || ck.paused.cursors.len() != n
            || ck.paused.epochs.len() != n
            || ck.paused.before.len() != n
            || ck.paused.assignments.len() != n
        {
            return Err(preemption(
                "checkpoint shard tables do not match its CU count",
            ));
        }
        if ck.per_kernel_cycles.len() != ck.kernels.len()
            || ck.per_kernel_dispatches.len() != ck.kernels.len()
        {
            return Err(preemption(
                "checkpoint per-kernel tables do not match its kernels",
            ));
        }
        let kidx = ck.paused.kernel_idx as usize;
        if kidx >= ck.kernels.len() {
            return Err(preemption("checkpoint paused on an unknown kernel index"));
        }
        let args_addr = ck.args_addr.ok_or(SystemError::ArgsNotSet)?;
        if ck.memory_bytes != ck.memory.image.len {
            return Err(SystemError::MalformedImage(ImageFault::LengthMismatch {
                memory_bytes: ck.memory_bytes,
                image_len: ck.memory.image.len,
            }));
        }
        for view in ck.paused.epochs.iter().flatten() {
            view.check(ck.memory_bytes)
                .map_err(SystemError::MalformedImage)?;
        }
        let mem = SharedMemory::restore_state(&ck.memory)?;
        let mut config = SystemConfig::preset(ck.kind);
        config.cus = ck.cus;
        config.cu = ck.cu.clone();
        config.memory_bytes = mem.len();
        config.auto_prefetch = ck.auto_prefetch;
        config.metrics = ck.metrics;
        config.registry = registry;
        // The CU configuration carries the profiler switch; mirror it at
        // the system level so the resumed run keeps draining pc counters.
        config.profile = ck.cu.profile;
        let mut sys = System::with_kernels(config, &ck.kernels)?;
        let kernel = sys.kernels[kidx].clone();
        // The CUs' effective configuration (metrics switch folded in) is
        // whatever `with_kernels` just built them with.
        let cu_cfg = sys.cus[0].config().clone();
        sys.cus = ck
            .cu_state
            .iter()
            .map(|snap| ComputeUnit::restore(cu_cfg.clone(), &kernel, snap))
            .collect::<Result<Vec<_>, _>>()?;
        sys.mem = mem;
        sys.bump = ck.bump;
        sys.args_addr = ck.args_addr;
        sys.args_len = ck.args_len;
        sys.cb0_addr = ck.cb0_addr;
        sys.host_cycles = ck.host_cycles;
        sys.per_kernel_cycles = ck.per_kernel_cycles.clone();
        sys.per_kernel_dispatches = ck.per_kernel_dispatches.clone();
        sys.kernel_switches = ck.kernel_switches;
        sys.last_kernel = ck.last_kernel.map(|i| i as usize);
        sys.dispatch_seq = ck.dispatch_seq;
        if ck.per_kernel_pc.len() == ck.kernels.len() {
            sys.per_kernel_pc = ck.per_kernel_pc.clone();
        }
        let wg_size = kernel.meta().workgroup_size;
        let waves_per_wg = (wg_size as usize).div_ceil(WAVEFRONT_SIZE);
        sys.paused = Some(PausedDispatch {
            kernel_idx: kidx,
            grid: ck.paused.grid,
            launch: Launch {
                kernel,
                wg_size,
                waves_per_wg,
                cb0: ck.cb0_addr,
                args_addr,
                args_len: ck.args_len,
            },
            assignments: ck.paused.assignments.clone(),
            cursors: ck.paused.cursors.clone(),
            epochs: ck.paused.epochs.clone(),
            before: ck.paused.before.clone(),
        });
        // Registry counters are process-cumulative while the restored
        // simulator counters carry the whole run's history: seed the
        // baselines so the next flush publishes only post-restore deltas.
        if let Some(m) = &mut sys.metrics {
            let mut instructions = 0;
            let mut stalls = [0u64; StallReason::ALL.len()];
            for cu in &sys.cus {
                let s = cu.stats();
                instructions += s.instructions;
                for (&r, &cnt) in &s.stall_cycles {
                    stalls[r as usize] += cnt;
                }
            }
            m.prev = Baselines {
                instructions,
                global_accesses: sys.mem.global_accesses(),
                prefetch_hits: sys.mem.prefetch_hits(),
                prefetch_hit_bytes: sys.mem.prefetch_hit_bytes(),
                queue_wait: sys.mem.queue_wait_cycles(),
                stalls,
            };
        }
        Ok(sys)
    }

    /// Resolve [`SystemConfig::workers`]: `0` means one per available core.
    fn effective_workers(&self) -> usize {
        match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            n => n,
        }
    }

    /// Run the dispatch's CU shards on `workers` scoped threads with
    /// work-stealing over the shard list. Returns one outcome slot per CU,
    /// in CU-index order.
    fn run_shards_parallel(
        &mut self,
        launch: &Launch,
        assignments: &[Vec<[u32; 3]>],
        workers: usize,
    ) -> Vec<ShardOutcome> {
        let mem = &self.mem;
        let shards: Vec<ShardSlot<'_>> = self
            .cus
            .iter_mut()
            .zip(assignments)
            .enumerate()
            .map(|(ci, (cu, wgs))| Mutex::new(Some((ci, cu, wgs.as_slice()))))
            .collect();
        let outcomes: Vec<Mutex<ShardOutcome>> =
            (0..shards.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers.min(shards.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = shards.get(i) else { break };
                    let (ci, cu, wgs) = slot
                        .lock()
                        .expect("shard slot lock")
                        .take()
                        .expect("each shard is claimed exactly once");
                    let mut view = mem.epoch();
                    let res = run_cu_share(cu, launch, wgs, &mut view);
                    *outcomes[ci].lock().expect("outcome slot lock") = Some((res, view.finish()));
                });
            }
        });
        outcomes
            .into_iter()
            .map(|m| m.into_inner().expect("outcome lock"))
            .collect()
    }

    /// Cumulative measurements since construction.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let mut stats = CuStats::default();
        let mut per_cu = Vec::with_capacity(self.cus.len());
        for cu in &self.cus {
            stats.merge(cu.stats());
            per_cu.push(cu.now());
        }
        // Fast-tier dispatches retire instructions without touching any
        // CU's counters; fold their running total into the aggregate.
        stats.instructions += self.fast_instructions;
        let cu_cycles = per_cu.iter().copied().max().unwrap_or(0);
        stats.cycles = cu_cycles;
        if self.config.metrics {
            // Queueing at the shared memory server is the one stall the CUs
            // cannot see; fold it into the always-on aggregate the same way
            // the trace summary gets it below.
            let queued = self.mem.queue_wait_cycles();
            if queued > 0 {
                *stats
                    .stall_cycles
                    .entry(StallReason::MemoryQueue)
                    .or_insert(0) += queued;
            }
        }
        if let Some(m) = &self.metrics {
            m.set_gauges(&stats, &self.config);
        }
        let seconds = cu_cycles as f64 / self.config.kind.cu_clock_hz()
            + self.host_cycles as f64 / self.config.kind.mb_clock_hz();
        let mut trace: Option<TraceSummary> = None;
        for cu in &self.cus {
            if let Some(s) = cu.trace_summary() {
                match &mut trace {
                    Some(merged) => merged.merge(&s),
                    None => trace = Some(s),
                }
            }
        }
        if let Some(merged) = &mut trace {
            // Queueing delay at the shared memory server is a system-level
            // structural stall: it is not resident on any wavefront
            // timeline, but it explains where global-memory latency came
            // from.
            let queued = self.mem.queue_wait_cycles();
            if queued > 0 {
                *merged.stalls.entry(StallReason::MemoryQueue).or_insert(0) += queued;
            }
        }
        RunReport {
            cu_cycles,
            host_cycles: self.host_cycles,
            seconds,
            stats,
            per_cu_cycles: per_cu,
            global_accesses: self.mem.global_accesses(),
            prefetch_hits: self.mem.prefetch_hits(),
            per_kernel_cycles: self.per_kernel_cycles.clone(),
            per_kernel_dispatches: self.per_kernel_dispatches.clone(),
            kernel_switches: self.kernel_switches,
            trace,
            trace_events: self.trace_buf.as_ref().map(EventBuffer::snapshot),
            fault_records: self.fault_log.clone(),
            pc_profiles: self.per_kernel_pc.clone(),
        }
    }

    /// Pipeline faults that have fired so far (in CU-index order within
    /// each dispatch; empty when injection is off).
    #[must_use]
    pub fn fault_records(&self) -> &[FaultRecord] {
        &self.fault_log
    }
}

/// The system's handles into its metrics registry, plus baselines of the
/// simulator's cumulative counters so each dispatch publishes only its own
/// delta (registry counters are process-cumulative across systems).
#[derive(Debug)]
struct SysMetrics {
    dispatches: Counter,
    cu_cycles: Counter,
    instructions: Counter,
    global_accesses: Counter,
    prefetch_hits: Counter,
    prefetch_hit_bytes: Counter,
    queue_wait: Counter,
    /// Stall-cycle counters, indexed by `StallReason as usize`.
    stalls: Vec<Counter>,
    dispatch_cycles: Histogram,
    ipc: Gauge,
    mem_ops_per_cycle: Gauge,
    occupancy: Vec<(FuncUnit, Gauge)>,
    prev: Baselines,
}

/// Cumulative counter values already published, per instrument.
#[derive(Debug, Default)]
struct Baselines {
    instructions: u64,
    global_accesses: u64,
    prefetch_hits: u64,
    prefetch_hit_bytes: u64,
    queue_wait: u64,
    stalls: [u64; StallReason::ALL.len()],
}

impl SysMetrics {
    fn new(config: &SystemConfig) -> SysMetrics {
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| scratch_metrics::global().clone());
        let sys = config.kind.label();
        let labels: &[(&str, &str)] = &[("system", sys)];
        let counter = |name: &str, help: &str| registry.counter_with(name, help, labels);
        SysMetrics {
            dispatches: counter(
                "scratch_system_dispatches_total",
                "Kernel dispatches completed",
            ),
            cu_cycles: counter(
                "scratch_system_cu_cycles_total",
                "CU cycles simulated (max across CUs per dispatch)",
            ),
            instructions: counter(
                "scratch_system_instructions_total",
                "Dynamic instructions issued",
            ),
            global_accesses: counter(
                "scratch_system_global_accesses_total",
                "Accesses down the global (MicroBlaze) memory path",
            ),
            prefetch_hits: counter(
                "scratch_system_prefetch_hits_total",
                "Accesses serviced by the prefetch buffer",
            ),
            prefetch_hit_bytes: counter(
                "scratch_system_prefetch_hit_bytes_total",
                "Bytes served by the prefetch buffer",
            ),
            queue_wait: counter(
                "scratch_system_memory_queue_wait_cycles_total",
                "Cycles requests queued behind the shared memory server",
            ),
            stalls: StallReason::ALL
                .iter()
                .map(|r| {
                    registry.counter_with(
                        "scratch_system_stall_cycles_total",
                        "Wavefront-cycles that did not issue, by reason",
                        &[("system", sys), ("reason", r.label())],
                    )
                })
                .collect(),
            dispatch_cycles: registry.histogram_with(
                "scratch_system_dispatch_cycles",
                "CU cycles per kernel dispatch",
                labels,
            ),
            ipc: registry.gauge_with(
                "scratch_system_ipc",
                "Instructions per cycle (wavefront granularity) over the run",
                labels,
            ),
            mem_ops_per_cycle: registry.gauge_with(
                "scratch_system_mem_ops_per_cycle",
                "Memory operations (vector + scalar) per cycle over the run",
                labels,
            ),
            occupancy: FuncUnit::ALL
                .iter()
                .map(|&u| {
                    (
                        u,
                        registry.gauge_with(
                            "scratch_system_fu_occupancy_ratio",
                            "Busy fraction of a functional-unit class, over all instances",
                            &[("system", sys), ("unit", u.label())],
                        ),
                    )
                })
                .collect(),
            prev: Baselines::default(),
        }
    }

    /// Publish one dispatch: bump the dispatch counter and histogram, and
    /// push each cumulative simulator counter's delta since the last flush.
    fn flush_dispatch(
        &mut self,
        spent: u64,
        instructions: u64,
        stalls: &[u64; StallReason::ALL.len()],
        mem: &SharedMemory,
    ) {
        self.dispatches.inc();
        self.cu_cycles.add(spent);
        self.dispatch_cycles.observe(spent);
        self.instructions.add(instructions - self.prev.instructions);
        self.prev.instructions = instructions;
        self.global_accesses
            .add(mem.global_accesses() - self.prev.global_accesses);
        self.prev.global_accesses = mem.global_accesses();
        self.prefetch_hits
            .add(mem.prefetch_hits() - self.prev.prefetch_hits);
        self.prev.prefetch_hits = mem.prefetch_hits();
        self.prefetch_hit_bytes
            .add(mem.prefetch_hit_bytes() - self.prev.prefetch_hit_bytes);
        self.prev.prefetch_hit_bytes = mem.prefetch_hit_bytes();
        self.queue_wait
            .add(mem.queue_wait_cycles() - self.prev.queue_wait);
        self.prev.queue_wait = mem.queue_wait_cycles();
        for (i, counter) in self.stalls.iter().enumerate() {
            counter.add(stalls[i] - self.prev.stalls[i]);
            self.prev.stalls[i] = stalls[i];
        }
    }

    /// Refresh the run-level gauges from the merged statistics. Idempotent
    /// (gauges are set, not accumulated), so calling `report()` repeatedly
    /// is fine.
    fn set_gauges(&self, stats: &CuStats, config: &SystemConfig) {
        self.ipc.set(stats.ipc());
        self.mem_ops_per_cycle.set(stats.mem_ops_per_cycle());
        for (unit, gauge) in &self.occupancy {
            let per_cu = match unit {
                FuncUnit::Simd => u64::from(config.cu.int_valus),
                FuncUnit::Simf => u64::from(config.cu.fp_valus),
                FuncUnit::Salu | FuncUnit::Lsu | FuncUnit::Branch => 1,
            };
            let denom = stats.cycles * per_cu * u64::from(config.cus);
            let busy = stats.fu_busy.get(unit).copied().unwrap_or(0);
            gauge.set(if denom == 0 {
                0.0
            } else {
                busy as f64 / denom as f64
            });
        }
    }
}

/// What one CU shard hands back to the dispatcher: its run result plus the
/// epoch delta to commit. `None` until the shard has run.
type ShardOutcome = Option<(Result<(), SystemError>, EpochDelta)>;

/// One fast-tier share's outcome: its statistics (or failure) plus the
/// epoch delta it produced.
type FastShardOutcome = Option<(Result<FastStats, SystemError>, EpochDelta)>;

/// A claimable shard: one CU and its workgroup share, taken exactly once
/// by whichever worker gets there first.
type ShardSlot<'a> = Mutex<Option<(usize, &'a mut ComputeUnit, &'a [[u32; 3]])>>;

/// Everything a CU shard needs to launch its workgroups — immutable, so
/// worker threads share it by reference.
#[derive(Debug, Clone)]
struct Launch {
    kernel: Kernel,
    wg_size: u32,
    waves_per_wg: usize,
    cb0: u64,
    args_addr: u64,
    args_len: u64,
}

/// Build [`SystemError::Preemption`] from a static description.
fn preemption(reason: &str) -> SystemError {
    SystemError::Preemption {
        reason: reason.to_owned(),
    }
}

/// Outcome of one preemptible dispatch quantum
/// ([`System::dispatch_preemptible`] / [`System::resume_dispatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchProgress {
    /// The dispatch ran to completion.
    Complete {
        /// CU cycles the whole dispatch took (max across CUs), as
        /// [`System::dispatch`] would have returned.
        cycles: u64,
    },
    /// The quantum expired with shards still outstanding; resume with
    /// [`System::resume_dispatch`] or serialise via [`System::checkpoint`].
    Paused,
}

/// Per-CU progress through its shard of a preemptible dispatch: enough to
/// continue exactly where the previous quantum stopped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ShareCursor {
    /// The CU's instruction memory holds this dispatch's kernel.
    loaded: bool,
    /// Index of the next unlaunched workgroup in the CU's share.
    next_wg: u64,
    /// A loaded batch is still running (the pause landed mid-batch).
    mid_batch: bool,
}

impl ShareCursor {
    /// The shard has launched and retired every workgroup of its share.
    fn finished(&self, share: usize) -> bool {
        self.loaded && !self.mid_batch && self.next_wg as usize >= share
    }
}

/// Per-CU workgroup shares: `assignments[cu]` lists the workgroup ids
/// round-robined onto that CU, in launch order.
type CuAssignments = Vec<Vec<[u32; 3]>>;

/// An in-flight preemptible dispatch, parked between quanta.
#[derive(Debug)]
struct PausedDispatch {
    kernel_idx: usize,
    grid: [u32; 3],
    launch: Launch,
    assignments: CuAssignments,
    cursors: Vec<ShareCursor>,
    /// Suspended epoch views, one per CU; `None` only transiently while a
    /// shard's slice runs.
    epochs: Vec<Option<EpochState>>,
    /// Per-CU cycle counters at dispatch entry.
    before: Vec<u64>,
}

/// Serializable form of [`PausedDispatch`]: the launch is rebuilt from
/// the checkpointed kernel list on restore. Each workgroup coordinate is
/// one word run, encoded as the three-element array `FORMAT_VERSION` 1
/// fixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PausedState {
    kernel_idx: u64,
    grid: [u32; 3],
    assignments: CuAssignments,
    cursors: Vec<ShareCursor>,
    epochs: Vec<Option<EpochState>>,
    before: Vec<u64>,
}

/// A serializable image of an entire paused [`System`] — global memory,
/// every CU's architectural state, host/dispatch bookkeeping, and the
/// paused dispatch's progress cursors and epoch views. Produced by
/// [`System::checkpoint`], consumed by [`System::restore`]; round-trips
/// through `scratch_snap::to_bytes` / `from_bytes` for on-wire or on-disk
/// checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemCheckpoint {
    kind: SystemKind,
    cus: u8,
    cu: CuConfig,
    memory_bytes: u64,
    auto_prefetch: bool,
    metrics: bool,
    kernels: Vec<Kernel>,
    memory: MemoryState,
    bump: u64,
    args_addr: Option<u64>,
    args_len: u64,
    cb0_addr: u64,
    host_cycles: u64,
    per_kernel_cycles: Vec<u64>,
    per_kernel_dispatches: Vec<u64>,
    kernel_switches: u64,
    last_kernel: Option<u64>,
    dispatch_seq: u64,
    cu_state: Vec<CuSnapshot>,
    paused: PausedState,
    per_kernel_pc: Vec<Vec<u64>>,
}

impl SystemCheckpoint {
    /// Compute-unit cycle counters at the checkpoint (per CU) — the
    /// resume point on each CU's timeline.
    #[must_use]
    pub fn cu_cycles(&self) -> Vec<u64> {
        self.cu_state.iter().map(|s| s.now).collect()
    }
}

/// Clear the CU's retired waves and launch one batch of workgroups,
/// writing the full launch ABI (buffer descriptors, workgroup and
/// work-item ids) into every wave.
fn load_batch(
    cu: &mut ComputeUnit,
    launch: &Launch,
    batch: &[[u32; 3]],
) -> Result<(), SystemError> {
    let wg_size = launch.wg_size;
    cu.clear_waves();
    for &wg_id in batch {
        let wg = cu.add_workgroup();
        for w in 0..launch.waves_per_wg {
            let lane_base = (w * WAVEFRONT_SIZE) as u32;
            let active = (wg_size - lane_base).min(WAVEFRONT_SIZE as u32);
            if active == 0 {
                break;
            }
            let exec = if active >= 64 {
                u64::MAX
            } else {
                (1u64 << active) - 1
            };
            let tids: Vec<u32> = (0..WAVEFRONT_SIZE as u32).map(|l| lane_base + l).collect();
            let mut vgprs = vec![(u32::from(abi::TID_X), tids)];
            // v1/v2 carry the work-item Y/Z ids. This dispatcher
            // launches 1-D workgroups, so both are zero — written
            // explicitly, but only when the kernel's VGPR budget
            // covers the register.
            for tid in [abi::TID_Y, abi::TID_Z] {
                if u32::from(tid) < u32::from(launch.kernel.meta().vgprs) {
                    vgprs.push((u32::from(tid), vec![0; WAVEFRONT_SIZE]));
                }
            }
            cu.start_wave(WaveInit {
                workgroup: wg,
                exec,
                sgprs: vec![
                    // IMM_UAV: base 0, unbounded records.
                    (u32::from(abi::UAV_DESC), 0),
                    (u32::from(abi::UAV_DESC) + 1, 0),
                    (u32::from(abi::UAV_DESC) + 2, 0),
                    (u32::from(abi::UAV_DESC) + 3, 0),
                    // IMM_CONST_BUFFER0.
                    (u32::from(abi::CONST_BUF0), launch.cb0 as u32),
                    (u32::from(abi::CONST_BUF0) + 1, (launch.cb0 >> 32) as u32),
                    (u32::from(abi::CONST_BUF0) + 2, 64),
                    (u32::from(abi::CONST_BUF0) + 3, 0),
                    // IMM_CONST_BUFFER1.
                    (u32::from(abi::CONST_BUF1), launch.args_addr as u32),
                    (
                        u32::from(abi::CONST_BUF1) + 1,
                        (launch.args_addr >> 32) as u32,
                    ),
                    (u32::from(abi::CONST_BUF1) + 2, launch.args_len as u32),
                    (u32::from(abi::CONST_BUF1) + 3, 0),
                    // Workgroup ids.
                    (u32::from(abi::WG_ID_X), wg_id[0]),
                    (u32::from(abi::WG_ID_Y), wg_id[1]),
                    (u32::from(abi::WG_ID_Z), wg_id[2]),
                ],
                vgprs,
            })?;
        }
    }
    Ok(())
}

/// Run — or continue — one CU's shard for at most `budget` CU cycles
/// against its epoch view, advancing `cursor`. Returns `true` when the
/// shard has fully completed, `false` when the budget expired mid-shard
/// (call again with a fresh budget to continue).
fn run_cu_share_slice(
    cu: &mut ComputeUnit,
    launch: &Launch,
    wgs: &[[u32; 3]],
    mem: &mut EpochMemory<'_>,
    cursor: &mut ShareCursor,
    budget: u64,
) -> Result<bool, SystemError> {
    if !cursor.loaded {
        cu.load_kernel(&launch.kernel)?;
        cursor.loaded = true;
    }
    let max_waves = usize::from(cu.config().max_wavefronts);
    let wgs_per_batch = (max_waves / launch.waves_per_wg).max(1);
    let entry = cu.now();
    loop {
        if !cursor.mid_batch {
            let next = cursor.next_wg as usize;
            if next >= wgs.len() {
                return Ok(true);
            }
            let end = (next + wgs_per_batch).min(wgs.len());
            load_batch(cu, launch, &wgs[next..end])?;
            cursor.next_wg = end as u64;
            cursor.mid_batch = true;
        }
        let spent = cu.now() - entry;
        if spent >= budget {
            return Ok(false);
        }
        match cu.run_until(mem, budget - spent)? {
            RunStatus::Done(_) => cursor.mid_batch = false,
            RunStatus::Paused => return Ok(false),
        }
    }
}

/// Run one CU's shard of a dispatch epoch against its private memory view.
///
/// This is the unit of work both schedulers share: the serial path calls
/// it CU by CU, the parallel path hands it to worker threads. Its effects
/// are a pure function of `(CU state, launch, workgroups, epoch-start
/// memory)` — the invariant behind the engine's determinism guarantee.
/// It is the unbounded-budget special case of [`run_cu_share_slice`],
/// which the preemptible dispatcher drives quantum by quantum.
fn run_cu_share(
    cu: &mut ComputeUnit,
    launch: &Launch,
    wgs: &[[u32; 3]],
    mem: &mut EpochMemory<'_>,
) -> Result<(), SystemError> {
    let mut cursor = ShareCursor {
        loaded: false,
        next_wg: 0,
        mid_batch: false,
    };
    let done = run_cu_share_slice(cu, launch, wgs, mem, &mut cursor, u64::MAX)?;
    debug_assert!(done, "an unbounded budget always completes the shard");
    Ok(())
}

/// Run one CU's shard of a fast-tier dispatch: the same workgroup share
/// and launch ABI as [`run_cu_share`] — identical register images, exec
/// masks, and per-workgroup LDS — executed by the block-compiled program
/// instead of the cycle pipeline. `cfg` supplies the CU's wavefront and
/// fuel limits so the fast tier refuses exactly what the pipeline would.
fn run_fast_share(
    prog: &Program,
    launch: &Launch,
    wgs: &[[u32; 3]],
    mem: &mut EpochMemory<'_>,
    cfg: &CuConfig,
) -> Result<FastStats, SystemError> {
    let meta = *launch.kernel.meta();
    let mut stats = FastStats::for_program(prog);
    let mut fuel = Fuel::new(cfg.cycle_limit);
    let mut lds = vec![0u32; prog.lds_words()];
    for &wg_id in wgs {
        lds.fill(0);
        let mut slots: Vec<WaveSlot> = Vec::new();
        for w in 0..launch.waves_per_wg {
            let lane_base = (w * WAVEFRONT_SIZE) as u32;
            let active = (launch.wg_size - lane_base).min(WAVEFRONT_SIZE as u32);
            if active == 0 {
                break;
            }
            if slots.len() >= usize::from(cfg.max_wavefronts) {
                return Err(CuError::TooManyWavefronts.into());
            }
            let exec = if active >= 64 {
                u64::MAX
            } else {
                (1u64 << active) - 1
            };
            let mut wave = Wavefront::new(w, 0, usize::from(meta.sgprs), usize::from(meta.vgprs));
            wave.exec = exec;
            for (r, v) in [
                // IMM_UAV: base 0, unbounded records.
                (u32::from(abi::UAV_DESC), 0),
                (u32::from(abi::UAV_DESC) + 1, 0),
                (u32::from(abi::UAV_DESC) + 2, 0),
                (u32::from(abi::UAV_DESC) + 3, 0),
                // IMM_CONST_BUFFER0.
                (u32::from(abi::CONST_BUF0), launch.cb0 as u32),
                (u32::from(abi::CONST_BUF0) + 1, (launch.cb0 >> 32) as u32),
                (u32::from(abi::CONST_BUF0) + 2, 64),
                (u32::from(abi::CONST_BUF0) + 3, 0),
                // IMM_CONST_BUFFER1.
                (u32::from(abi::CONST_BUF1), launch.args_addr as u32),
                (
                    u32::from(abi::CONST_BUF1) + 1,
                    (launch.args_addr >> 32) as u32,
                ),
                (u32::from(abi::CONST_BUF1) + 2, launch.args_len as u32),
                (u32::from(abi::CONST_BUF1) + 3, 0),
                // Workgroup ids.
                (u32::from(abi::WG_ID_X), wg_id[0]),
                (u32::from(abi::WG_ID_Y), wg_id[1]),
                (u32::from(abi::WG_ID_Z), wg_id[2]),
            ] {
                wave.set_sgpr(r, v)?;
            }
            for lane in 0..WAVEFRONT_SIZE {
                wave.set_vgpr(u32::from(abi::TID_X), lane, lane_base + lane as u32)?;
            }
            // 1-D workgroups: Y/Z work-item ids are zero, written only when
            // the kernel's VGPR budget covers the register.
            for tid in [abi::TID_Y, abi::TID_Z] {
                if u32::from(tid) < u32::from(meta.vgprs) {
                    for lane in 0..WAVEFRONT_SIZE {
                        wave.set_vgpr(u32::from(tid), lane, 0)?;
                    }
                }
            }
            slots.push(WaveSlot::new(prog, wave));
        }
        run_workgroup(prog, &mut slots, &mut lds, mem, &mut stats, &mut fuel)?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scratch_asm::KernelBuilder;
    use scratch_isa::{Opcode, Operand, SmrdOffset};

    /// out[gid] = in[gid] + 1, 1-D over the X grid. Args: [in, out].
    fn add_one_kernel(wg_size: u32) -> Kernel {
        let mut b = KernelBuilder::new("add_one");
        b.vgprs(8).sgprs(32).workgroup_size(wg_size);
        // s20 = in, s21 = out
        b.smrd(
            Opcode::SBufferLoadDwordx2,
            Operand::Sgpr(20),
            abi::CONST_BUF1,
            SmrdOffset::Imm(0),
        )
        .unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        // s0 = wg_id_x * wg_size
        b.sop2(
            Opcode::SMulI32,
            Operand::Sgpr(0),
            Operand::Sgpr(abi::WG_ID_X),
            Operand::Literal(wg_size),
        )
        .unwrap();
        // v1 = gid = s0 + tid
        b.vop2(Opcode::VAddI32, 1, Operand::Sgpr(0), abi::TID_X)
            .unwrap();
        // v1 = byte offset
        b.vop2(Opcode::VLshlrevB32, 1, Operand::IntConst(2), 1)
            .unwrap();
        // v2 = load in[gid]
        b.mubuf(
            Opcode::BufferLoadDword,
            2,
            1,
            abi::UAV_DESC,
            Operand::Sgpr(20),
            0,
        )
        .unwrap();
        b.waitcnt(Some(0), None).unwrap();
        // v2 += 1
        b.vop2(Opcode::VAddI32, 2, Operand::IntConst(1), 2).unwrap();
        // store out[gid]
        b.mubuf(
            Opcode::BufferStoreDword,
            2,
            1,
            abi::UAV_DESC,
            Operand::Sgpr(21),
            0,
        )
        .unwrap();
        b.waitcnt(Some(0), None).unwrap();
        b.endpgm().unwrap();
        b.finish().unwrap()
    }

    fn run_add_one(kind: SystemKind, cus: u8, n: u32, wg_size: u32) -> (Vec<u32>, RunReport) {
        run_add_one_workers(kind, cus, n, wg_size, 1)
    }

    fn run_add_one_workers(
        kind: SystemKind,
        cus: u8,
        n: u32,
        wg_size: u32,
        workers: usize,
    ) -> (Vec<u32>, RunReport) {
        let kernel = add_one_kernel(wg_size);
        let config = SystemConfig::preset(kind)
            .with_cus(cus)
            .unwrap()
            .with_workers(workers);
        let mut sys = System::new(config, &kernel).unwrap();
        let input: Vec<u32> = (0..n).map(|i| i * 3).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(u64::from(n) * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        sys.dispatch([n / wg_size, 1, 1]).unwrap();
        (sys.read_words(a_out, n as usize), sys.report())
    }

    fn run_add_one_exec(
        exec: ExecMode,
        cus: u8,
        n: u32,
        wg_size: u32,
        workers: usize,
    ) -> (Vec<u32>, u64, RunReport, Option<FastStats>) {
        let kernel = add_one_kernel(wg_size);
        let config = SystemConfig::preset(SystemKind::DcdPm)
            .with_cus(cus)
            .unwrap()
            .with_workers(workers)
            .with_exec(exec);
        let mut sys = System::new(config, &kernel).unwrap();
        let input: Vec<u32> = (0..n).map(|i| i * 3).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(u64::from(n) * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        let cycles = sys.dispatch([n / wg_size, 1, 1]).unwrap();
        let stats = sys.fast_stats(0).cloned();
        (
            sys.read_words(a_out, n as usize),
            cycles,
            sys.report(),
            stats,
        )
    }

    #[test]
    fn fast_mode_matches_cycle_output() {
        for (cus, wg_size) in [(1u8, 64u32), (3, 64), (1, 192)] {
            let n = 768;
            let (cyc_out, cyc_cycles, cyc_report, _) =
                run_add_one_exec(ExecMode::Cycle, cus, n, wg_size, 1);
            let (fast_out, fast_cycles, fast_report, fast_stats) =
                run_add_one_exec(ExecMode::Fast, cus, n, wg_size, 1);
            assert_eq!(cyc_out, fast_out, "cus={cus} wg_size={wg_size}");
            assert!(cyc_cycles > 0);
            assert_eq!(fast_cycles, 0, "the fast tier is functional-only");
            // Same dynamic instruction stream, counted by different tiers.
            assert_eq!(
                cyc_report.stats.instructions, fast_report.stats.instructions,
                "cus={cus} wg_size={wg_size}"
            );
            let stats = fast_stats.expect("fast dispatch populates the kernel's slot");
            assert_eq!(stats.instructions, fast_report.stats.instructions);
            assert!(stats.block_dispatches.iter().sum::<u64>() > 0);
        }
    }

    #[test]
    fn fast_parallel_is_bit_identical_to_serial() {
        let (serial, _, _, s1) = run_add_one_exec(ExecMode::Fast, 4, 2048, 64, 1);
        let (parallel, _, _, s4) = run_add_one_exec(ExecMode::Fast, 4, 2048, 64, 4);
        assert_eq!(serial, parallel);
        assert_eq!(s1, s4, "fast-tier counters are scheduler-independent");
    }

    #[test]
    fn fast_with_timing_self_checks_and_keeps_cycle_counts() {
        let (cyc_out, cyc_cycles, _, _) = run_add_one_exec(ExecMode::Cycle, 2, 512, 64, 1);
        let (chk_out, chk_cycles, chk_report, chk_stats) =
            run_add_one_exec(ExecMode::FastWithTiming, 2, 512, 64, 1);
        assert_eq!(cyc_out, chk_out);
        assert_eq!(
            cyc_cycles, chk_cycles,
            "timing comes from the cycle pipeline"
        );
        // The shadow fast run must not double-count instructions.
        assert_eq!(
            chk_report.stats.instructions,
            chk_stats
                .expect("shadow run populates the slot")
                .instructions
        );
    }

    #[test]
    fn preemptible_dispatch_rejects_fast_tiers() {
        for exec in [ExecMode::Fast, ExecMode::FastWithTiming] {
            let kernel = add_one_kernel(64);
            let config = SystemConfig::preset(SystemKind::DcdPm).with_exec(exec);
            let mut sys = System::new(config, &kernel).unwrap();
            let a_in = sys.alloc(64 * 4);
            let a_out = sys.alloc(64 * 4);
            sys.set_args(&[a_in as u32, a_out as u32]);
            let err = sys.dispatch_preemptible([1, 1, 1], 100).unwrap_err();
            assert_eq!(err, SystemError::Snap(SnapError::UnsupportedExecMode));
        }
    }

    #[test]
    fn vector_add_correct_across_configs() {
        for kind in [SystemKind::Original, SystemKind::Dcd, SystemKind::DcdPm] {
            let (out, _) = run_add_one(kind, 1, 256, 64);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u32 * 3 + 1, "{kind:?} element {i}");
            }
        }
    }

    #[test]
    fn config_speedups_have_paper_shape() {
        let n = 2048;
        let (_, orig) = run_add_one(SystemKind::Original, 1, n, 64);
        let (_, dcd) = run_add_one(SystemKind::Dcd, 1, n, 64);
        let (_, pm) = run_add_one(SystemKind::DcdPm, 1, n, 64);
        let s_dcd = orig.seconds / dcd.seconds;
        let s_pm = orig.seconds / pm.seconds;
        assert!(
            (1.05..=1.6).contains(&s_dcd),
            "DCD speedup {s_dcd:.2} outside the paper's ~1.17x regime"
        );
        assert!(s_pm > 4.0, "DCD+PM speedup {s_pm:.2} too small");
        assert!(s_pm > s_dcd * 2.0);
        assert!(pm.prefetch_hits > 0);
        assert_eq!(orig.prefetch_hits, 0);
    }

    #[test]
    fn multi_core_distributes_and_speeds_up() {
        let n = 4096;
        let (out1, r1) = run_add_one(SystemKind::DcdPm, 1, n, 64);
        let (out3, r3) = run_add_one(SystemKind::DcdPm, 3, n, 64);
        assert_eq!(out1, out3, "results identical regardless of CU count");
        let speedup = r1.seconds / r3.seconds;
        assert!(
            speedup > 1.8 && speedup < 3.2,
            "3-CU speedup {speedup:.2} out of expected band"
        );
        assert_eq!(r3.per_cu_cycles.len(), 3);
    }

    #[test]
    fn with_cus_rejects_counts_the_allocator_cannot_back() {
        let max = device_cu_bound();
        assert_eq!(
            SystemConfig::preset(SystemKind::DcdPm)
                .with_cus(0)
                .unwrap_err(),
            SystemError::InvalidCuCount { requested: 0, max }
        );
        assert_eq!(
            SystemConfig::preset(SystemKind::DcdPm)
                .with_cus(max + 1)
                .unwrap_err(),
            SystemError::InvalidCuCount {
                requested: max + 1,
                max
            }
        );
        assert!(SystemConfig::preset(SystemKind::DcdPm)
            .with_cus(max)
            .is_ok());
        // A hand-built config with an unbackable count fails at system
        // construction too.
        let mut config = SystemConfig::preset(SystemKind::DcdPm);
        config.cus = 0;
        assert!(matches!(
            System::new(config, &add_one_kernel(64)),
            Err(SystemError::InvalidCuCount { requested: 0, .. })
        ));
    }

    #[test]
    fn parallel_dispatch_is_bit_identical_to_serial() {
        // The engine's core guarantee in miniature: the same multi-CU run
        // scheduled serially and on 4 worker threads yields identical
        // memory contents and an identical RunReport.
        for kind in [SystemKind::Original, SystemKind::Dcd, SystemKind::DcdPm] {
            let (out_s, r_s) = run_add_one_workers(kind, 3, 4096, 64, 1);
            let (out_p, r_p) = run_add_one_workers(kind, 3, 4096, 64, 4);
            assert_eq!(out_s, out_p, "{kind:?}: memory diverged");
            assert_eq!(r_s, r_p, "{kind:?}: reports diverged");
        }
    }

    #[test]
    fn parallel_trace_streams_are_deterministic() {
        let run = |workers: usize| {
            let kernel = add_one_kernel(64);
            let config = SystemConfig::preset(SystemKind::Dcd)
                .with_cus(3)
                .unwrap()
                .with_workers(workers)
                .with_trace(TraceMode::Full);
            let mut sys = System::new(config, &kernel).unwrap();
            let input: Vec<u32> = (0..512).collect();
            let a_in = sys.alloc_words(&input);
            let a_out = sys.alloc(512 * 4);
            sys.set_args(&[a_in as u32, a_out as u32]);
            sys.dispatch([8, 1, 1]).unwrap();
            sys.report().trace_events.unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        // Streams match event-for-event; only the ShardRun worker lane
        // reflects the scheduler (cu % workers).
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            match (a, b) {
                (
                    TraceEvent::ShardRun {
                        cu: ca,
                        start: sa,
                        end: ea,
                        ..
                    },
                    TraceEvent::ShardRun {
                        cu: cb,
                        start: sb,
                        end: eb,
                        ..
                    },
                ) => {
                    assert_eq!((ca, sa, ea), (cb, sb, eb));
                }
                _ => assert_eq!(a, b),
            }
        }
        let shards = serial
            .iter()
            .filter(|e| matches!(e, TraceEvent::ShardRun { .. }))
            .count();
        assert_eq!(shards, 3, "one ShardRun per CU per dispatch");
    }

    #[test]
    fn partial_tail_masks_lanes() {
        // 96-item workgroups: second wave has 32 active lanes.
        let kernel = add_one_kernel(96);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        let input: Vec<u32> = (0..96).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(96 * 4 + 64 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        sys.dispatch([1, 1, 1]).unwrap();
        let out = sys.read_words(a_out, 96 + 16);
        for (i, &v) in out.iter().take(96).enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
        // Lanes beyond the workgroup must not have stored.
        for (i, &v) in out.iter().enumerate().skip(96) {
            assert_eq!(v, 0, "lane {i} leaked past the exec mask");
        }
    }

    #[test]
    fn dispatch_without_args_fails() {
        let kernel = add_one_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        assert_eq!(sys.dispatch([1, 1, 1]), Err(SystemError::ArgsNotSet));
        sys.set_args(&[0, 0]);
        assert_eq!(sys.dispatch([0, 1, 1]), Err(SystemError::EmptyDispatch));
    }

    #[test]
    fn grids_past_the_workgroup_bound_are_refused_before_planning() {
        let max = MAX_DISPATCH_WORKGROUPS;
        let too_large = |grid, workgroup_size| {
            Err(SystemError::GridTooLarge {
                grid,
                workgroup_size,
                max,
            })
        };
        assert_eq!(dispatch_workgroups([4, 2, 1], 64), Ok(8));
        assert_eq!(dispatch_workgroups([1 << 18, 1, 1], 64), Ok(max));
        assert_eq!(
            dispatch_workgroups([0, 1, 1], 64),
            Err(SystemError::EmptyDispatch)
        );
        assert_eq!(
            dispatch_workgroups([1, 1, 1], 0),
            Err(SystemError::EmptyDispatch)
        );
        assert_eq!(
            dispatch_workgroups([1 << 18, 2, 1], 64),
            too_large([1 << 18, 2, 1], 64)
        );
        // ~4.3e9 workgroups: ~51 GB of coordinates, were they planned.
        assert_eq!(
            dispatch_workgroups([65_535, 65_535, 1], 64),
            too_large([65_535, 65_535, 1], 64)
        );
        // The product of three u32s overflows u64; the check does not.
        assert_eq!(
            dispatch_workgroups([u32::MAX; 3], 64),
            too_large([u32::MAX; 3], 64)
        );
        // Within the workgroup bound, but 2^17 * 2^16 work-items along X
        // do not fit the launch ABI's 32-bit global size.
        assert_eq!(
            dispatch_workgroups([1 << 17, 1, 1], 1 << 16),
            too_large([1 << 17, 1, 1], 1 << 16)
        );

        // Every dispatch path refuses such a grid, and the system stays
        // usable for a legal one.
        let kernel = add_one_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        let a_in = sys.alloc_words(&[1; 64]);
        let a_out = sys.alloc(64 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        let huge = [65_535, 65_535, 1];
        assert!(matches!(
            sys.dispatch(huge),
            Err(SystemError::GridTooLarge { .. })
        ));
        assert!(matches!(
            sys.dispatch_preemptible(huge, 100),
            Err(SystemError::GridTooLarge { .. })
        ));
        assert!(!sys.is_paused());
        sys.dispatch([1, 1, 1]).expect("a legal grid still runs");
        assert_eq!(sys.read_words(a_out, 64), vec![2; 64]);
    }

    #[test]
    fn host_work_charged_at_mb_clock() {
        let kernel = add_one_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::Original), &kernel).unwrap();
        sys.host_work(50_000_000); // 1 second at 50 MHz
        let r = sys.report();
        assert!((r.seconds - 1.0).abs() < 1e-9);

        let mut sys2 = System::new(SystemConfig::preset(SystemKind::Dcd), &kernel).unwrap();
        sys2.host_work(50_000_000); // 0.25 s at 200 MHz
        let r2 = sys2.report();
        assert!((r2.seconds - 0.25).abs() < 1e-9);
    }

    #[test]
    fn report_accumulates_instruction_counts() {
        let (_, r) = run_add_one(SystemKind::DcdPm, 1, 128, 64);
        assert_eq!(r.stats.wavefronts_retired, 2);
        assert!(r.instructions() > 0);
        assert!(r.stats.vector_mem_ops >= 4); // 2 wavefronts x (load+store)
    }

    /// Kernel that retires immediately, leaving the dispatcher's launch-time
    /// register state intact for inspection.
    fn noop_kernel(wg_size: u32) -> Kernel {
        let mut b = KernelBuilder::new("noop");
        b.vgprs(4).sgprs(32).workgroup_size(wg_size);
        b.endpgm().unwrap();
        b.finish().unwrap()
    }

    /// Asserts the full launch ABI on one wave: buffer descriptors in
    /// s[4:7]/s[8:11]/s[12:15], workgroup ids in s16..s18 and work-item ids
    /// in v0..v2 (see [`abi`]).
    fn assert_launch_abi(sys: &System, w: usize, wg_id: [u32; 3], lane_base: u32) {
        let wave = sys.cus[0].wave(w);
        // s[4:7] IMM_UAV: base 0, unbounded records.
        for r in 0..4u32 {
            assert_eq!(wave.sgpr(u32::from(abi::UAV_DESC) + r).unwrap(), 0);
        }
        // s[8:11] IMM_CONST_BUFFER0: OpenCL call values.
        let cb0 = sys.cb0_addr;
        assert_eq!(wave.sgpr(u32::from(abi::CONST_BUF0)).unwrap(), cb0 as u32);
        assert_eq!(
            wave.sgpr(u32::from(abi::CONST_BUF0) + 1).unwrap(),
            (cb0 >> 32) as u32
        );
        assert_eq!(wave.sgpr(u32::from(abi::CONST_BUF0) + 2).unwrap(), 64);
        assert_eq!(wave.sgpr(u32::from(abi::CONST_BUF0) + 3).unwrap(), 0);
        // s[12:15] IMM_CONST_BUFFER1: kernel arguments.
        let args = sys.args_addr.unwrap();
        assert_eq!(wave.sgpr(u32::from(abi::CONST_BUF1)).unwrap(), args as u32);
        assert_eq!(
            wave.sgpr(u32::from(abi::CONST_BUF1) + 1).unwrap(),
            (args >> 32) as u32
        );
        assert_eq!(
            wave.sgpr(u32::from(abi::CONST_BUF1) + 2).unwrap(),
            sys.args_len as u32
        );
        assert_eq!(wave.sgpr(u32::from(abi::CONST_BUF1) + 3).unwrap(), 0);
        // s16..s18: workgroup ids.
        assert_eq!(wave.sgpr(u32::from(abi::WG_ID_X)).unwrap(), wg_id[0]);
        assert_eq!(wave.sgpr(u32::from(abi::WG_ID_Y)).unwrap(), wg_id[1]);
        assert_eq!(wave.sgpr(u32::from(abi::WG_ID_Z)).unwrap(), wg_id[2]);
        // v0..v2: work-item ids (1-D workgroups, so Y/Z are zero).
        for lane in [0usize, 17, 63] {
            assert_eq!(
                wave.vgpr(u32::from(abi::TID_X), lane).unwrap(),
                lane_base + lane as u32
            );
            assert_eq!(wave.vgpr(u32::from(abi::TID_Y), lane).unwrap(), 0);
            assert_eq!(wave.vgpr(u32::from(abi::TID_Z), lane).unwrap(), 0);
        }
    }

    #[test]
    fn launch_abi_2d_grid() {
        let kernel = noop_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        sys.set_args(&[7, 11, 13]);
        sys.dispatch([2, 3, 1]).unwrap();
        assert_eq!(sys.args_len, 12);
        // Workgroups are enumerated x-fastest; single CU, single batch.
        let order = [
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [1, 1, 0],
            [0, 2, 0],
            [1, 2, 0],
        ];
        for (w, wg_id) in order.into_iter().enumerate() {
            assert_launch_abi(&sys, w, wg_id, 0);
        }
    }

    #[test]
    fn launch_abi_3d_grid() {
        let kernel = noop_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        sys.set_args(&[1]);
        sys.dispatch([2, 2, 2]).unwrap();
        let order = [
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [1, 1, 0],
            [0, 0, 1],
            [1, 0, 1],
            [0, 1, 1],
            [1, 1, 1],
        ];
        for (w, wg_id) in order.into_iter().enumerate() {
            assert_launch_abi(&sys, w, wg_id, 0);
        }
    }

    #[test]
    fn launch_abi_multi_wave_workgroup() {
        // 100-item workgroups: two waves, the second with lane_base 64 and a
        // 36-lane exec tail.
        let kernel = noop_kernel(100);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        sys.set_args(&[0]);
        sys.dispatch([1, 1, 1]).unwrap();
        assert_launch_abi(&sys, 0, [0, 0, 0], 0);
        assert_launch_abi(&sys, 1, [0, 0, 0], 64);
        assert_eq!(sys.cus[0].wave(0).exec, u64::MAX);
        assert_eq!(sys.cus[0].wave(1).exec, (1u64 << 36) - 1);
    }

    #[test]
    fn trace_summary_mode_attributes_system_runs() {
        let kernel = add_one_kernel(64);
        let config = SystemConfig::preset(SystemKind::Original).with_trace(TraceMode::Summary);
        let mut sys = System::new(config, &kernel).unwrap();
        let input: Vec<u32> = (0..256).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(256 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        sys.dispatch([4, 1, 1]).unwrap();
        let r = sys.report();
        let trace = r.trace.expect("summary mode populates the report");
        trace.check_invariant().unwrap();
        assert_eq!(trace.waves.len(), 4);
        // The Original preset serialises every global access through the
        // MicroBlaze, so contending waves must queue at the memory server.
        assert!(
            trace.stall_cycles(StallReason::MemoryQueue) > 0,
            "no server queueing recorded: {:?}",
            trace.stalls
        );
        // Summary mode does not buffer per-cycle events.
        assert!(r.trace_events.is_none());
    }

    #[test]
    fn trace_full_mode_buffers_events() {
        let kernel = add_one_kernel(64);
        let config = SystemConfig::preset(SystemKind::DcdPm).with_trace(TraceMode::Full);
        let mut sys = System::new(config, &kernel).unwrap();
        let input: Vec<u32> = (0..128).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(128 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        sys.dispatch([2, 1, 1]).unwrap();
        let r = sys.report();
        r.trace
            .expect("full mode also summarises")
            .check_invariant()
            .unwrap();
        let events = r.trace_events.expect("full mode buffers events");
        assert!(matches!(
            events.first(),
            Some(TraceEvent::KernelDispatch { .. })
        ));
        let issues = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Issue { .. }))
            .count() as u64;
        assert_eq!(issues, r.stats.instructions);
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::MemComplete { .. })));
    }

    #[test]
    fn preempted_dispatch_is_bit_identical_across_serde_checkpoints() {
        // The tentpole property at system level: a dispatch sliced into
        // small quanta — with the machine serialised to bytes, dropped,
        // and restored from the checkpoint before *every* resume — ends
        // bit-identical to an uninterrupted run, in both memory contents
        // and cycle accounting.
        let kernel = add_one_kernel(64);
        let n = 2048u32;
        let build = |kernel: &Kernel| {
            let config = SystemConfig::preset(SystemKind::DcdPm).with_cus(3).unwrap();
            let mut sys = System::new(config, kernel).unwrap();
            let input: Vec<u32> = (0..n).map(|i| i.wrapping_mul(7)).collect();
            let a_in = sys.alloc_words(&input);
            let a_out = sys.alloc(u64::from(n) * 4);
            sys.set_args(&[a_in as u32, a_out as u32]);
            (sys, a_out)
        };
        let (mut reference, ref_out) = build(&kernel);
        let ref_cycles = reference.dispatch([n / 64, 1, 1]).unwrap();
        let ref_words = reference.read_words(ref_out, n as usize);
        let ref_report = reference.report();

        let (mut sys, a_out) = build(&kernel);
        let mut progress = sys.dispatch_preemptible([n / 64, 1, 1], 20).unwrap();
        let mut pauses = 0u32;
        let cycles = loop {
            match progress {
                DispatchProgress::Complete { cycles } => break cycles,
                DispatchProgress::Paused => {
                    pauses += 1;
                    assert!(sys.is_paused());
                    let ck = sys.checkpoint().unwrap();
                    let bytes = scratch_snap::to_bytes(&ck);
                    drop(sys);
                    let decoded: SystemCheckpoint = scratch_snap::from_bytes(&bytes).unwrap();
                    assert_eq!(decoded, ck);
                    sys = System::restore(&decoded, None).unwrap();
                    progress = sys.resume_dispatch(20).unwrap();
                }
            }
        };
        assert!(pauses > 1, "quantum too coarse to exercise preemption");
        assert_eq!(cycles, ref_cycles);
        assert_eq!(sys.read_words(a_out, n as usize), ref_words);
        let report = sys.report();
        assert_eq!(report.cu_cycles, ref_report.cu_cycles);
        assert_eq!(report.stats, ref_report.stats);
        assert_eq!(report.per_cu_cycles, ref_report.per_cu_cycles);
        assert_eq!(report.per_kernel_cycles, ref_report.per_kernel_cycles);
        assert_eq!(report.global_accesses, ref_report.global_accesses);
        assert_eq!(report.prefetch_hits, ref_report.prefetch_hits);
    }

    /// A paused `add_one` dispatch's checkpoint, its image holding the
    /// input and argument pages.
    fn paused_checkpoint() -> SystemCheckpoint {
        let kernel = add_one_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        let input: Vec<u32> = (1..=2048).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(2048 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        assert_eq!(
            sys.dispatch_preemptible([32, 1, 1], 50).unwrap(),
            DispatchProgress::Paused
        );
        let ck = sys.checkpoint().unwrap();
        assert!(ck.memory.image.pages.len() >= 2, "too few pages to reorder");
        ck
    }

    fn restore_fault(ck: &SystemCheckpoint) -> ImageFault {
        match System::restore(ck, None) {
            Err(SystemError::MalformedImage(fault)) => fault,
            other => panic!("expected a malformed image, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_image_length_mismatch() {
        let mut ck = paused_checkpoint();
        ck.memory_bytes += 4096;
        assert!(matches!(
            restore_fault(&ck),
            ImageFault::LengthMismatch { .. }
        ));
    }

    #[test]
    fn restore_rejects_memory_past_the_maximum_before_allocating() {
        let mut ck = paused_checkpoint();
        // Allocating this much would abort the process, not return.
        ck.memory_bytes = 1 << 50;
        ck.memory.image.len = 1 << 50;
        assert!(matches!(
            System::restore(&ck, None),
            Err(SystemError::MemoryTooLarge { requested, max })
                if requested == 1 << 50 && max == MAX_MEMORY_BYTES as u64
        ));
    }

    #[test]
    fn restore_rejects_page_out_of_range() {
        let mut ck = paused_checkpoint();
        let index = ck.memory.image.len / 4096;
        ck.memory.image.pages.push(scratch_snap::ImagePage {
            index,
            data: vec![1],
        });
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageOutOfRange {
                index,
                len: ck.memory.image.len
            }
        );
    }

    #[test]
    fn restore_rejects_repeated_page() {
        let mut ck = paused_checkpoint();
        let last = ck.memory.image.pages.last().unwrap().clone();
        let index = last.index;
        ck.memory.image.pages.push(last);
        assert_eq!(restore_fault(&ck), ImageFault::PageRepeated { index });
    }

    #[test]
    fn restore_rejects_pages_out_of_order() {
        let mut ck = paused_checkpoint();
        ck.memory.image.pages.swap(0, 1);
        let (index, previous) = (
            ck.memory.image.pages[1].index,
            ck.memory.image.pages[0].index,
        );
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageOutOfOrder { index, previous }
        );
    }

    #[test]
    fn restore_rejects_page_longer_than_a_page() {
        let mut ck = paused_checkpoint();
        let page = &mut ck.memory.image.pages[0];
        page.data.resize(4097, 0);
        let index = page.index;
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageTooLong { index, bytes: 4097 }
        );
    }

    /// A paused `add_one` dispatch's checkpoint whose first CU holds a
    /// suspended epoch view with at least two dirty pages.
    fn checkpoint_with_epoch_pages() -> SystemCheckpoint {
        let kernel = add_one_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        let input: Vec<u32> = (1..=2048).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(2048 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        let mut progress = sys.dispatch_preemptible([32, 1, 1], 50).unwrap();
        while progress == DispatchProgress::Paused {
            let ck = sys.checkpoint().unwrap();
            if ck.paused.epochs[0]
                .as_ref()
                .is_some_and(|view| view.pages.len() >= 2)
            {
                return ck;
            }
            progress = sys.resume_dispatch(50).unwrap();
        }
        panic!("no pause found the output pages dirty");
    }

    fn epoch_pages(ck: &mut SystemCheckpoint) -> &mut Vec<crate::memory::EpochPageState> {
        &mut ck.paused.epochs[0].as_mut().unwrap().pages
    }

    #[test]
    fn restore_rejects_epoch_page_past_the_memory() {
        let mut ck = checkpoint_with_epoch_pages();
        let len = ck.memory_bytes;
        let page = epoch_pages(&mut ck).last_mut().unwrap();
        page.index = len / 4096;
        let index = page.index;
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageOutOfRange { index, len }
        );
    }

    #[test]
    fn restore_rejects_repeated_epoch_page() {
        let mut ck = checkpoint_with_epoch_pages();
        let pages = epoch_pages(&mut ck);
        let last = pages.last().unwrap().clone();
        let index = last.index;
        pages.push(last);
        assert_eq!(restore_fault(&ck), ImageFault::PageRepeated { index });
    }

    #[test]
    fn restore_rejects_epoch_pages_out_of_order() {
        let mut ck = checkpoint_with_epoch_pages();
        let pages = epoch_pages(&mut ck);
        pages.swap(0, 1);
        let (index, previous) = (pages[1].index, pages[0].index);
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageOutOfOrder { index, previous }
        );
    }

    #[test]
    fn restore_rejects_epoch_page_longer_than_its_page() {
        let mut ck = checkpoint_with_epoch_pages();
        let page = &mut epoch_pages(&mut ck)[0];
        page.data.push(0);
        let index = page.index;
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageTooLong { index, bytes: 4097 }
        );
    }

    #[test]
    fn restore_rejects_epoch_page_shorter_than_its_page() {
        let mut ck = checkpoint_with_epoch_pages();
        let page = &mut epoch_pages(&mut ck)[0];
        page.data.truncate(4000);
        let index = page.index;
        assert_eq!(
            restore_fault(&ck),
            ImageFault::PageTooShort {
                index,
                bytes: 4000,
                page: 4096
            }
        );
    }

    #[test]
    fn restore_rejects_epoch_written_mask_of_the_wrong_length() {
        let mut ck = checkpoint_with_epoch_pages();
        let page = &mut epoch_pages(&mut ck)[0];
        page.written.pop();
        let index = page.index;
        assert_eq!(
            restore_fault(&ck),
            ImageFault::WrittenMaskMismatch {
                index,
                words: 63,
                bytes: 4096
            }
        );
    }

    /// A CRC-valid checkpoint can still carry a hostile epoch page index:
    /// restoring it must fail typed instead of letting the resumed
    /// dispatch index past the memory when it commits.
    #[test]
    fn resuming_an_epoch_page_past_the_memory_fails_typed_not_by_panic() {
        let mut ck = checkpoint_with_epoch_pages();
        epoch_pages(&mut ck).last_mut().unwrap().index = 1 << 40;
        let bytes = scratch_snap::to_bytes(&ck);
        let decoded: SystemCheckpoint = scratch_snap::from_bytes(&bytes).unwrap();
        let outcome =
            System::restore(&decoded, None).and_then(|mut sys| sys.resume_dispatch(1 << 20));
        assert_eq!(
            outcome.err(),
            Some(SystemError::MalformedImage(ImageFault::PageOutOfRange {
                index: 1 << 40,
                len: decoded.memory_bytes
            }))
        );
    }

    #[test]
    fn configs_past_the_memory_maximum_are_rejected() {
        let mut config = SystemConfig::preset(SystemKind::DcdPm);
        config.memory_bytes = MAX_MEMORY_BYTES + 1;
        assert!(matches!(
            System::new(config, &add_one_kernel(64)),
            Err(SystemError::MemoryTooLarge { .. })
        ));
    }

    #[test]
    fn preemption_api_enforces_sequencing() {
        let kernel = add_one_kernel(64);
        let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
        // No paused dispatch yet: resume and checkpoint are refused.
        assert!(matches!(
            sys.resume_dispatch(100),
            Err(SystemError::Preemption { .. })
        ));
        assert!(matches!(
            sys.checkpoint(),
            Err(SystemError::Preemption { .. })
        ));
        let input: Vec<u32> = (0..1024).collect();
        let a_in = sys.alloc_words(&input);
        let a_out = sys.alloc(1024 * 4);
        sys.set_args(&[a_in as u32, a_out as u32]);
        assert_eq!(
            sys.dispatch_preemptible([16, 1, 1], 50).unwrap(),
            DispatchProgress::Paused
        );
        // While paused, regular and fresh preemptible dispatches are
        // refused — they would break the paused shards' epoch isolation.
        assert!(matches!(
            sys.dispatch([16, 1, 1]),
            Err(SystemError::Preemption { .. })
        ));
        assert!(matches!(
            sys.dispatch_preemptible([16, 1, 1], 50),
            Err(SystemError::Preemption { .. })
        ));
        // Drive it to completion; the machine is usable again after.
        while sys.resume_dispatch(50).unwrap() == DispatchProgress::Paused {}
        assert!(!sys.is_paused());
        let out = sys.read_words(a_out, 1024);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
        sys.dispatch([16, 1, 1]).unwrap();
    }

    #[test]
    fn preemptible_dispatch_requires_trace_off() {
        let kernel = add_one_kernel(64);
        let config = SystemConfig::preset(SystemKind::DcdPm).with_trace(TraceMode::Summary);
        let mut sys = System::new(config, &kernel).unwrap();
        sys.set_args(&[0, 0]);
        assert!(matches!(
            sys.dispatch_preemptible([1, 1, 1], 100),
            Err(SystemError::Preemption { .. })
        ));
    }

    #[test]
    fn trace_off_leaves_report_untouched() {
        let (_, r) = run_add_one(SystemKind::Dcd, 1, 128, 64);
        assert!(r.trace.is_none());
        assert!(r.trace_events.is_none());
    }
}
