//! # scratch-engine
//!
//! Parallel execution engine for the SCRATCH simulators, with
//! deterministic batch scheduling.
//!
//! One worker pool, [`Engine`], runs every job as a sequence of
//! [`Slice`]s: tenants take turns between slices, a job can be cancelled
//! at any quantum boundary, and per-job panics become structured
//! [`JobError`]s instead of killing a worker. A job that finishes in its
//! first slice is an ordinary run-to-completion job, so a batch of
//! independent simulator runs ([`KernelJob`]s or arbitrary closures) is
//! just a batch of one-slice jobs under one tenant
//! ([`Engine::run_batch`]), returned in submission order — a sweep's
//! output never depends on scheduling. The serving layer submits
//! multi-slice jobs that carry a checkpoint between quanta.
//!
//! Intra-run parallelism is a separate, composable layer in
//! `scratch-system`: a dispatch's CU shards run on worker threads against
//! epoch-batched copy-on-write memory views
//! (`SystemConfig::with_workers`), committing in CU-index order — cycle
//! counts are bit-identical to the serial scheduler.
//!
//! Both layers use only `std::thread` — no external runtime.
//!
//! # Example: a three-preset batch sweep
//!
//! ```
//! use scratch_asm::KernelBuilder;
//! use scratch_engine::{run_kernel_jobs, KernelJob};
//! use scratch_system::{SystemConfig, SystemKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = KernelBuilder::new("noop");
//! b.vgprs(4).sgprs(24).workgroup_size(64);
//! b.endpgm()?;
//! let kernel = b.finish()?;
//!
//! let jobs = [SystemKind::Original, SystemKind::Dcd, SystemKind::DcdPm]
//!     .into_iter()
//!     .map(|kind| {
//!         KernelJob::new(kind.label(), kernel.clone(), SystemConfig::preset(kind), [4, 1, 1])
//!     });
//! let outcomes = run_kernel_jobs(2, jobs);
//! assert_eq!(outcomes.len(), 3);
//! assert_eq!(outcomes[1].label, "DCD"); // submission order, not completion order
//! for o in &outcomes {
//!     let report = o.result.as_ref().expect("noop runs everywhere");
//!     assert!(report.cu_cycles > 0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
mod pool;

pub use job::{
    run_kernel_jobs, watchdog, JobError, JobOutcome, JobTiming, KernelJob, DEFAULT_WATCHDOG_CYCLES,
};
pub use pool::{Engine, EngineHandle, Slice};

/// One worker per core the OS reports as available (the `--jobs` default
/// of the CLI tools).
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
