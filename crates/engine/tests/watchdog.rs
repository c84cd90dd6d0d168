//! Regression: a kernel that never terminates must come back as
//! [`JobError::Watchdog`] instead of hanging `EngineHandle::join`
//! forever.

use scratch_asm::{Kernel, KernelBuilder};
use scratch_engine::{watchdog, Engine, JobError, KernelJob, DEFAULT_WATCHDOG_CYCLES};
use scratch_isa::Opcode;
use scratch_system::{CuError, SystemConfig, SystemError, SystemKind};

/// `spin: s_branch spin` — the minimal runaway kernel.
fn infinite_loop_kernel() -> Kernel {
    let mut b = KernelBuilder::new("spin");
    b.vgprs(8).sgprs(32).workgroup_size(64);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.branch(Opcode::SBranch, top);
    b.endpgm().unwrap();
    b.finish().unwrap()
}

/// The error a system reports when its cycle limit runs out.
fn tripped(limit: u64) -> SystemError {
    SystemError::Cu(CuError::CycleLimit { limit })
}

fn config() -> SystemConfig {
    SystemConfig::preset(SystemKind::DcdPm).with_metrics(false)
}

/// A batch of kernel jobs, each under a `budget`-cycle watchdog.
fn run_budgeted(
    workers: usize,
    budget: u64,
    jobs: Vec<KernelJob>,
) -> Vec<scratch_engine::JobOutcome<scratch_system::RunReport>> {
    Engine::new(workers).run_batch(jobs.into_iter().map(|job| {
        let label = job.label.clone();
        (label, move || job.run_with_budget(budget))
    }))
}

#[test]
fn infinite_loop_trips_the_watchdog_instead_of_hanging_join() {
    let jobs = vec![
        KernelJob::new("spin-0", infinite_loop_kernel(), config(), [1, 1, 1]),
        KernelJob::new("spin-1", infinite_loop_kernel(), config(), [1, 1, 1]),
    ];
    let outcomes = run_budgeted(2, 50_000, jobs);
    assert_eq!(outcomes.len(), 2);
    for o in outcomes {
        match o.result {
            Err(JobError::Watchdog { budget }) => assert_eq!(budget, 50_000),
            other => panic!("{}: expected watchdog trip, got {other:?}", o.label),
        }
    }
}

#[test]
fn watchdog_budget_does_not_clip_well_behaved_jobs() {
    let mut b = KernelBuilder::new("quick");
    b.vgprs(8).sgprs(32).workgroup_size(64);
    b.endpgm().unwrap();
    let kernel = b.finish().unwrap();

    let outcomes = run_budgeted(
        1,
        50_000,
        vec![KernelJob::new("quick", kernel, config(), [1, 1, 1])],
    );
    assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
}

#[test]
fn default_watchdog_is_the_cycle_limit_scale() {
    // The default budget must stay at the simulator's own cycle-limit
    // magnitude so it never masks CuError::CycleLimit semantics.
    let mut capped = config();
    assert_eq!(capped.cu.cycle_limit, DEFAULT_WATCHDOG_CYCLES);
    let watched = watchdog(&mut capped, DEFAULT_WATCHDOG_CYCLES);
    assert_eq!(capped.cu.cycle_limit, DEFAULT_WATCHDOG_CYCLES);
    assert_eq!(
        watched(tripped(DEFAULT_WATCHDOG_CYCLES)),
        JobError::Watchdog {
            budget: DEFAULT_WATCHDOG_CYCLES
        }
    );
    // A zero budget still lets one cycle run.
    let mut floored = config();
    let watched = watchdog(&mut floored, 0);
    assert_eq!(floored.cu.cycle_limit, 1);
    assert_eq!(watched(tripped(1)), JobError::Watchdog { budget: 1 });
    // Any other failure passes through as a system error.
    let other = SystemError::ArgsNotSet;
    assert_eq!(watched(other.clone()), JobError::System(other));
}

#[test]
fn watchdog_error_formats_and_chains() {
    let e = JobError::Watchdog { budget: 123 };
    assert_eq!(e.to_string(), "watchdog: job exceeded its 123-cycle budget");
    let dyn_err: &dyn std::error::Error = &e;
    assert!(dyn_err.source().is_none());
}
