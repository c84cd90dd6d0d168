//! The engine's worker pool: jobs execute in *slices* (quanta), with
//! per-tenant round-robin between slices and best-effort cancellation at
//! quantum boundaries.
//!
//! After every slice a job's closure goes back to the scheduler, so a
//! long-running job cannot monopolise a worker, tenants share the pool
//! fairly whatever their queue depths, and a cancelled job stops at its
//! next quantum boundary instead of running to the end. The slice closure
//! owns whatever state it needs to continue — the serving layer's jobs
//! keep their paused `scratch_system::System` between quanta.
//! A job whose first slice returns [`Slice::Done`] simply runs to
//! completion: that is all a batch is ([`Engine::run_batch`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scratch_metrics::{Counter, Gauge, Histogram, Registry};

use crate::default_workers;
use crate::job::{JobError, JobOutcome, JobTiming};

/// What one execution slice of a job reports back.
pub enum Slice<T> {
    /// The quantum is spent but the job has more work; the scheduler will
    /// run another slice after other tenants have had their turn.
    Yield,
    /// The job finished with this result.
    Done(Result<T, JobError>),
}

type SliceFn<T> = Box<dyn FnMut(u64) -> Slice<T> + Send>;

/// A job parked between slices.
struct Job<T> {
    id: u64,
    label: String,
    tenant: String,
    enqueued: u64,
    /// Slices run so far (the 0-based index passed to the next slice).
    slices: u64,
    /// Logical tick of the first pickup.
    started: Option<u64>,
    /// Accumulated wall-clock execution time across slices.
    wall: Duration,
    work: SliceFn<T>,
}

/// Scheduler state: one FIFO per tenant with queued work, and the ring
/// of those tenants in round-robin order. A tenant's FIFO is dropped the
/// moment it empties, so the scheduler holds state only for tenants
/// with work, however many names it has ever seen.
struct Sched<T> {
    queues: HashMap<String, VecDeque<Job<T>>>,
    /// The tenants with a FIFO in `queues`, each once, next to pick first.
    ring: VecDeque<String>,
    /// Ids whose cancellation was requested but not yet delivered.
    cancelled: HashSet<u64>,
    /// Ids submitted whose outcome has not been produced yet.
    live: HashSet<u64>,
    shutdown: bool,
}

impl<T> Sched<T> {
    /// Pop the next runnable job, tenant round-robin: the tenant at the
    /// front of the ring gets one job picked and moves to the back, or
    /// leaves the ring (and drops its FIFO) when that was its last job.
    fn pick(&mut self) -> Option<Job<T>> {
        let tenant = self.ring.pop_front()?;
        let queue = self.queues.get_mut(&tenant)?;
        let job = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(&tenant);
        } else {
            self.ring.push_back(tenant);
        }
        Some(job)
    }

    /// Queue a job at the back of its tenant's FIFO; a tenant without
    /// queued work gets a fresh FIFO and joins the back of the ring.
    fn enqueue(&mut self, job: Job<T>) {
        if let Some(queue) = self.queues.get_mut(&job.tenant) {
            queue.push_back(job);
            return;
        }
        self.ring.push_back(job.tenant.clone());
        self.queues
            .insert(job.tenant.clone(), VecDeque::from([job]));
    }

    fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

/// The pool's handles into its metrics registry.
struct EngineMetrics {
    submitted: Counter,
    completed: Counter,
    panicked: Counter,
    watchdog: Counter,
    cancelled: Counter,
    quanta: Counter,
    preemptions: Counter,
    queue_depth: Gauge,
    busy_workers: Gauge,
    wait_ticks: Histogram,
    run_ticks: Histogram,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            submitted: registry.counter("scratch_engine_jobs_submitted_total", "Jobs queued"),
            completed: registry.counter(
                "scratch_engine_jobs_completed_total",
                "Jobs whose outcome was produced (including failures)",
            ),
            panicked: registry.counter(
                "scratch_engine_jobs_panicked_total",
                "Jobs that panicked and were isolated by the pool",
            ),
            watchdog: registry.counter(
                "scratch_engine_watchdog_trips_total",
                "Jobs stopped by the cycle-budget watchdog",
            ),
            cancelled: registry.counter(
                "scratch_preempt_cancelled_total",
                "Jobs cancelled before completion (queued or mid-flight)",
            ),
            quanta: registry.counter(
                "scratch_preempt_quanta_total",
                "Execution quanta (job slices) run by the pool",
            ),
            preemptions: registry.counter(
                "scratch_preempt_preemptions_total",
                "Times a job was preempted at a quantum boundary",
            ),
            queue_depth: registry.gauge(
                "scratch_engine_queue_depth",
                "Jobs waiting in the queue right now",
            ),
            busy_workers: registry.gauge(
                "scratch_engine_busy_workers",
                "Workers currently executing a job",
            ),
            wait_ticks: registry.histogram(
                "scratch_engine_job_wait_ticks",
                "Logical-clock ticks jobs sat queued before pickup",
            ),
            run_ticks: registry.histogram(
                "scratch_engine_job_run_ticks",
                "Logical-clock ticks between job pickup and completion",
            ),
        }
    }
}

struct Shared<T> {
    sched: Mutex<Sched<T>>,
    available: Condvar,
    /// The pool's logical clock: ticks once per scheduler event (submit,
    /// first pickup, completion). See [`JobTiming`].
    clock: AtomicU64,
    /// Ids minted so far (reserved, whether or not submitted yet).
    minted: AtomicU64,
    /// Jobs queued so far.
    submitted: AtomicU64,
    /// Offset added to the `minted` counter when minting submission ids,
    /// so a restarted server can keep ids unique across process
    /// lifetimes (WAL recovery hands the floor in via
    /// [`Engine::with_first_id`]). The counters themselves stay
    /// zero-based: `pending()`/`submitted_count()` count this pool's own
    /// jobs regardless of where the id space starts.
    id_base: u64,
    /// Outcomes produced so far (including failures).
    completed: AtomicU64,
    /// Jobs currently executing a slice on some worker.
    in_flight: AtomicUsize,
    /// Registry handles; `None` when the engine's metrics plane is off.
    metrics: Option<EngineMetrics>,
}

impl<T> Shared<T> {
    /// Advance the logical clock and return the new stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Produce a job's outcome: clear its cancellation/liveness bookkeeping,
/// send the outcome, then bump the completion counter — ordered so that
/// `completed == submitted` implies every outcome was also routed (the
/// drain invariant the serving layer waits on).
fn finish<T>(
    shared: &Shared<T>,
    results: &Sender<JobOutcome<T>>,
    job: Job<T>,
    result: Result<T, JobError>,
) {
    let finished_tick = shared.tick();
    {
        let mut st = shared.sched.lock().expect("engine sched lock");
        st.cancelled.remove(&job.id);
        st.live.remove(&job.id);
    }
    let timing = JobTiming {
        enqueued: job.enqueued,
        started: job.started.unwrap_or(finished_tick),
        finished: finished_tick,
    };
    if let Some(m) = &shared.metrics {
        m.completed.inc();
        match result {
            Err(JobError::Panicked(_)) => m.panicked.inc(),
            Err(JobError::Watchdog { .. }) => m.watchdog.inc(),
            Err(JobError::Cancelled) => m.cancelled.inc(),
            _ => {}
        }
        m.wait_ticks.observe(timing.wait_ticks());
        m.run_ticks.observe(timing.run_ticks());
    }
    // A send failure means the handle (and its receiver) is gone —
    // nobody wants the outcome anymore.
    let _ = results.send(JobOutcome {
        id: job.id,
        label: job.label,
        result,
        wall: job.wall,
        timing,
    });
    shared.completed.fetch_add(1, Ordering::Release);
}

fn worker<T>(shared: &Shared<T>, results: &Sender<JobOutcome<T>>) {
    loop {
        // Pick the next slice to run; `was_cancelled` covers jobs whose
        // cancellation arrived while they sat queued.
        let (mut job, was_cancelled) = {
            let mut st = shared.sched.lock().expect("engine sched lock");
            loop {
                if let Some(job) = st.pick() {
                    let cancelled = st.cancelled.contains(&job.id);
                    break (job, cancelled);
                }
                if st.shutdown {
                    return;
                }
                st = shared.available.wait(st).expect("engine sched lock");
            }
        };
        if let Some(m) = &shared.metrics {
            m.queue_depth.dec();
        }
        if was_cancelled {
            finish(shared, results, job, Err(JobError::Cancelled));
            continue;
        }
        if job.started.is_none() {
            job.started = Some(shared.tick());
        }
        shared.in_flight.fetch_add(1, Ordering::Release);
        if let Some(m) = &shared.metrics {
            m.busy_workers.inc();
        }
        let slice_start = Instant::now();
        let index = job.slices;
        let slice = catch_unwind(AssertUnwindSafe(|| (job.work)(index)));
        job.wall += slice_start.elapsed();
        job.slices += 1;
        shared.in_flight.fetch_sub(1, Ordering::Release);
        if let Some(m) = &shared.metrics {
            m.busy_workers.dec();
            m.quanta.inc();
        }
        match slice {
            Err(payload) => {
                finish(
                    shared,
                    results,
                    job,
                    Err(JobError::Panicked(panic_message(payload))),
                );
            }
            Ok(Slice::Done(result)) => finish(shared, results, job, result),
            Ok(Slice::Yield) => {
                if let Some(m) = &shared.metrics {
                    m.preemptions.inc();
                }
                // Cancellation requested while the slice ran wins over
                // requeueing: the job stops at this quantum boundary.
                let mut st = shared.sched.lock().expect("engine sched lock");
                if st.cancelled.contains(&job.id) {
                    drop(st);
                    finish(shared, results, job, Err(JobError::Cancelled));
                } else {
                    if let Some(m) = &shared.metrics {
                        m.queue_depth.inc();
                    }
                    st.enqueue(job);
                    drop(st);
                    shared.available.notify_one();
                }
            }
        }
    }
}

/// Engine configuration: how many OS worker threads the pool runs, where
/// it publishes metrics, and where its submission ids start.
///
/// The engine provides *inter-run* parallelism — many independent
/// simulator runs at once. (Intra-run parallelism over a single dispatch's
/// CUs is the simulator's own `SystemConfig::with_workers` knob; both
/// layers are deterministic, so composing them never changes results.)
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    metrics: bool,
    registry: Option<Registry>,
    first_id: u64,
}

impl Engine {
    /// An engine with `workers` pool threads; `0` means one per available
    /// core ([`default_workers`]). The metrics plane is on, publishing to
    /// the process-global registry.
    #[must_use]
    pub fn new(workers: usize) -> Engine {
        Engine {
            workers: if workers == 0 {
                default_workers()
            } else {
                workers
            },
            metrics: true,
            registry: None,
            first_id: 0,
        }
    }

    /// The resolved worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Builder-style switch for the pool's metrics (job, quantum,
    /// preemption and cancellation counters, queue-depth and busy-worker
    /// gauges, wait/run histograms). On by default.
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> Engine {
        self.metrics = metrics;
        self
    }

    /// Publish into `registry` instead of the process-global
    /// [`scratch_metrics::global`] registry (hermetic tests).
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Engine {
        self.registry = Some(registry);
        self
    }

    /// Mint submission ids starting at `first_id` instead of 0. A server
    /// recovering a write-ahead log passes one past the largest id the
    /// log ever issued, so restarted processes never reuse an id a client
    /// (or a completion record) has already seen.
    #[must_use]
    pub fn with_first_id(mut self, first_id: u64) -> Engine {
        self.first_id = first_id;
        self
    }

    /// Spin up the pool and return the submission handle.
    #[must_use]
    pub fn start<T: Send + 'static>(&self) -> EngineHandle<T> {
        let metrics = self.metrics.then(|| {
            let registry = self
                .registry
                .clone()
                .unwrap_or_else(|| scratch_metrics::global().clone());
            EngineMetrics::new(&registry)
        });
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                queues: HashMap::new(),
                ring: VecDeque::new(),
                cancelled: HashSet::new(),
                live: HashSet::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            clock: AtomicU64::new(0),
            minted: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            id_base: self.first_id,
            completed: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            metrics,
        });
        let (tx, rx) = channel();
        let threads = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("scratch-engine-{i}"))
                    .spawn(move || worker(&shared, &tx))
                    .expect("spawn engine worker")
            })
            .collect();
        EngineHandle {
            shared,
            threads,
            results: Mutex::new(rx),
            received: AtomicU64::new(0),
        }
    }

    /// Run a whole batch to completion and return the outcomes sorted by
    /// submission id — deterministic output order regardless of which
    /// worker finished which job first. Each job is a one-slice job under
    /// one tenant, so the tenant's FIFO picks them up in submission order.
    pub fn run_batch<T, F, L>(&self, jobs: impl IntoIterator<Item = (L, F)>) -> Vec<JobOutcome<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, JobError> + Send + 'static,
        L: Into<String>,
    {
        let handle = self.start();
        for (label, work) in jobs {
            let mut work = Some(work);
            handle.submit("batch", label, move |_| {
                Slice::Done(work.take().expect("a one-slice job runs once")())
            });
        }
        handle.join()
    }
}

impl Default for Engine {
    /// One worker per available core.
    fn default() -> Engine {
        Engine::new(0)
    }
}

/// A running pool: submit sliced jobs under a tenant, cancel them, stream
/// their outcomes, join.
///
/// Submission takes `&self` and the handle is `Sync`, so many threads can
/// push jobs into one shared pool concurrently (e.g. the serving layer's
/// connection handlers); ids still come out strictly in minting order.
///
/// Dropping the handle shuts the pool down gracefully: already-queued
/// jobs still run (slice by slice), their outcomes are discarded, and the
/// workers are joined. A job that yields forever would hang that
/// shutdown — slice closures are expected to bound their own total work,
/// as the serving layer's watchdog-limited checkpoint slices do.
pub struct EngineHandle<T> {
    shared: Arc<Shared<T>>,
    threads: Vec<JoinHandle<()>>,
    results: Mutex<Receiver<JobOutcome<T>>>,
    received: AtomicU64,
}

impl<T: Send + 'static> EngineHandle<T> {
    /// Queue a job under `tenant`; returns its submission id.
    ///
    /// `work` is called once per quantum with the 0-based slice index; it
    /// returns [`Slice::Yield`] to be rescheduled after other tenants'
    /// turns, or [`Slice::Done`] with the job's result.
    pub fn submit<F>(&self, tenant: impl Into<String>, label: impl Into<String>, mut work: F) -> u64
    where
        F: FnMut(u64) -> Slice<T> + Send + 'static,
    {
        let id = self.reserve_id();
        self.submit_reserved(id, tenant, label, move |_id, slice| work(slice));
        id
    }

    /// Mint the id of a job that will be submitted later with
    /// [`submit_reserved`](Self::submit_reserved). A caller that must
    /// record a job under its id before the job can run — the serving
    /// layer journals each admission first — reserves, records, then
    /// submits.
    pub fn reserve_id(&self) -> u64 {
        self.shared.id_base + self.shared.minted.fetch_add(1, Ordering::AcqRel)
    }

    /// [`submit`](Self::submit) under an id from
    /// [`reserve_id`](Self::reserve_id); `work` also receives that id as
    /// its first argument, the correlation key a slice stamps onto
    /// downstream artifacts (trace events, span timelines).
    pub fn submit_reserved<F>(
        &self,
        id: u64,
        tenant: impl Into<String>,
        label: impl Into<String>,
        mut work: F,
    ) where
        F: FnMut(u64, u64) -> Slice<T> + Send + 'static,
    {
        self.shared.submitted.fetch_add(1, Ordering::AcqRel);
        let enqueued = self.shared.tick();
        if let Some(m) = &self.shared.metrics {
            m.submitted.inc();
            m.queue_depth.inc();
        }
        {
            let mut st = self.shared.sched.lock().expect("engine sched lock");
            st.live.insert(id);
            st.enqueue(Job {
                id,
                label: label.into(),
                tenant: tenant.into(),
                enqueued,
                slices: 0,
                started: None,
                wall: Duration::ZERO,
                work: Box::new(move |slice| work(id, slice)),
            });
        }
        self.shared.available.notify_one();
    }

    /// Request cancellation of job `id`. Best-effort and asynchronous:
    /// a queued job is reaped at its next pickup, a running job at its
    /// next quantum boundary; either way its outcome arrives as
    /// [`JobError::Cancelled`]. Returns `false` when the job is unknown
    /// or its outcome was already produced (too late to cancel).
    pub fn cancel(&self, id: u64) -> bool {
        {
            let mut st = self.shared.sched.lock().expect("engine sched lock");
            if !st.live.contains(&id) {
                return false;
            }
            st.cancelled.insert(id);
        }
        // Wake the pool so idle workers reap queued cancellations promptly.
        self.shared.available.notify_all();
        true
    }

    /// Receive the next completed outcome, in completion order, blocking
    /// until one is ready. Returns `None` once every submitted job's
    /// outcome was received.
    pub fn recv(&mut self) -> Option<JobOutcome<T>> {
        let rx = self.results.lock().expect("engine results lock");
        if self.received.load(Ordering::Acquire) >= self.submitted_count() {
            return None;
        }
        let outcome = rx.recv().expect("engine workers outlive the handle");
        self.received.fetch_add(1, Ordering::AcqRel);
        Some(outcome)
    }

    /// Receive the next completed outcome, waiting at most `timeout`.
    /// Returns `None` on timeout (or if another thread holds the receive
    /// side) — the router-loop primitive of the serving layer.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<JobOutcome<T>> {
        let rx = self.results.try_lock().ok()?;
        let outcome = rx.recv_timeout(timeout).ok()?;
        self.received.fetch_add(1, Ordering::AcqRel);
        Some(outcome)
    }

    /// Jobs submitted whose outcomes have not been received yet.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.submitted_count() - self.received.load(Ordering::Acquire)
    }

    /// Total jobs submitted to the pool so far.
    #[must_use]
    pub fn submitted_count(&self) -> u64 {
        self.shared.submitted.load(Ordering::Acquire)
    }

    /// Outcomes the pool has produced so far (successes, failures and
    /// cancellations alike). Once this equals
    /// [`submitted_count`](Self::submitted_count), every outcome has also
    /// been routed — the drain invariant.
    #[must_use]
    pub fn completed_count(&self) -> u64 {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Jobs parked in tenant queues right now (between slices or not yet
    /// started). Together with [`in_flight`](Self::in_flight) this is the
    /// backlog an admission controller bounds.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .sched
            .lock()
            .expect("engine sched lock")
            .queued()
    }

    /// Jobs currently executing a slice on some worker.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Parked jobs per tenant, in round-robin order — the
    /// live-introspection feed behind `scratch-tool ctl top`. Only
    /// tenants with queued jobs appear; any other tenant has 0.
    #[must_use]
    pub fn tenant_queue_depths(&self) -> Vec<(String, usize)> {
        let sched = self.shared.sched.lock().expect("engine sched lock");
        sched
            .ring
            .iter()
            .map(|tenant| {
                (
                    tenant.clone(),
                    sched.queues.get(tenant).map_or(0, VecDeque::len),
                )
            })
            .collect()
    }

    /// Drain every outstanding outcome, shut the pool down, and return
    /// all collected outcomes sorted by submission id.
    #[must_use]
    pub fn join(mut self) -> Vec<JobOutcome<T>> {
        let mut out = Vec::with_capacity(usize::try_from(self.pending()).unwrap_or(0));
        while let Some(o) = self.recv() {
            out.push(o);
        }
        out.sort_by_key(|o| o.id);
        out
        // Drop shuts the (now idle) pool down.
    }
}

impl<T> Drop for EngineHandle<T> {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.sched.lock() {
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn slices_interleave_tenants_round_robin() {
        // One worker, two tenants. Both jobs idle-yield until released,
        // then log three real slices each: the scheduler must alternate
        // tenants strictly once both are queued.
        let engine = Engine::new(1).with_metrics(false);
        let handle: EngineHandle<Vec<&'static str>> = engine.start();
        let go = Arc::new(AtomicBool::new(false));
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        for tenant in ["alice", "bob"] {
            let go = Arc::clone(&go);
            let log = Arc::clone(&log);
            let mut ran = 0u32;
            handle.submit(tenant, tenant, move |_| {
                if !go.load(Ordering::Acquire) {
                    return Slice::Yield;
                }
                log.lock().unwrap().push(tenant);
                ran += 1;
                if ran < 3 {
                    Slice::Yield
                } else {
                    Slice::Done(Ok(Vec::new()))
                }
            });
        }
        go.store(true, Ordering::Release);
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.result.is_ok(), "{:?}", o.result);
        }
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 6);
        assert_eq!(log.iter().filter(|t| **t == "alice").count(), 3);
        // Collapse the log into maximal same-tenant runs. Strict
        // alternation holds in the middle; the edges may legitimately
        // run twice — the release can land between a pick made while
        // only one tenant was queued and that slice's gate check, and
        // once one job completes the survivor runs back-to-back.
        let mut runs: Vec<(&str, usize)> = Vec::new();
        for t in log.iter() {
            match runs.last_mut() {
                Some((last, n)) if last == t => *n += 1,
                _ => runs.push((t, 1)),
            }
        }
        let (first, rest) = runs.split_first().expect("non-empty log");
        assert!(first.1 <= 2, "first run too long: {log:?}");
        let (last, middle) = rest.split_last().unwrap_or((first, &[]));
        assert!(last.1 <= 2, "last run too long: {log:?}");
        for (_, n) in middle {
            assert_eq!(*n, 1, "tenants must alternate mid-stream: {log:?}");
        }
    }

    #[test]
    fn first_id_offsets_minted_ids_without_breaking_counts() {
        let engine = Engine::new(1).with_metrics(false).with_first_id(1000);
        let mut handle: EngineHandle<u64> = engine.start();
        let a = handle.submit("t", "a", |_| Slice::Done(Ok(1)));
        let b = handle.submit("t", "b", |_| Slice::Done(Ok(2)));
        assert_eq!(a, 1000, "ids start at the recovered floor");
        assert_eq!(b, 1001);
        assert_eq!(handle.submitted_count(), 2, "counts stay zero-based");
        let mut seen = Vec::new();
        while let Some(o) = handle.recv() {
            seen.push(o.id);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1000, 1001]);
    }

    #[test]
    fn cancel_reaps_queued_and_running_jobs() {
        let engine = Engine::new(1).with_metrics(false);
        let handle: EngineHandle<u32> = engine.start();
        // A long job that yields at every quantum (bounded as a safety
        // net, far beyond what the test needs).
        let long = handle.submit("t", "long", move |i| {
            std::thread::sleep(Duration::from_millis(1));
            if i > 10_000 {
                Slice::Done(Err(JobError::Failed("ran away".into())))
            } else {
                Slice::Yield
            }
        });
        // Queued behind it on the single worker.
        let queued = handle.submit("t", "queued", |_| Slice::Done(Ok(7)));
        assert!(handle.cancel(queued), "queued job is cancellable");
        assert!(handle.cancel(long), "running job is cancellable");
        assert!(!handle.cancel(999), "unknown ids are not");
        let outcomes = handle.join();
        for o in outcomes {
            assert_eq!(
                o.result.unwrap_err(),
                JobError::Cancelled,
                "job {} must be cancelled",
                o.id
            );
            assert!(o.id == long || o.id == queued);
        }
    }

    #[test]
    fn completed_jobs_are_not_cancellable() {
        let engine = Engine::new(1).with_metrics(false);
        let handle: EngineHandle<u32> = engine.start();
        let id = handle.submit("t", "quick", |_| Slice::Done(Ok(1)));
        while handle.completed_count() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!handle.cancel(id), "outcome already produced");
        let outcomes = handle.join();
        assert_eq!(outcomes[0].result.as_ref().unwrap(), &1);
    }

    #[test]
    fn metrics_count_quanta_preemptions_and_cancellations() {
        let registry = Registry::new();
        let engine = Engine::new(1).with_registry(registry.clone());
        let handle: EngineHandle<u32> = engine.start();
        handle.submit("t", "three-slices", |i| {
            if i < 2 {
                Slice::Yield
            } else {
                Slice::Done(Ok(0))
            }
        });
        let victim = handle.submit("t", "victim", |_| Slice::Yield);
        assert!(handle.cancel(victim));
        let _ = handle.join();
        let snap = registry.snapshot();
        let quanta = snap.counter("scratch_preempt_quanta_total", &[]).unwrap();
        let preemptions = snap
            .counter("scratch_preempt_preemptions_total", &[])
            .unwrap();
        assert!(quanta >= 3, "quanta {quanta}");
        assert!(preemptions >= 2, "preemptions {preemptions}");
        assert_eq!(
            snap.counter("scratch_preempt_cancelled_total", &[]),
            Some(1)
        );
        // The job family counts each job once, however many slices it
        // took, and the gauges settle back to zero.
        assert_eq!(
            snap.counter("scratch_engine_jobs_submitted_total", &[]),
            Some(2)
        );
        assert_eq!(
            snap.counter("scratch_engine_jobs_completed_total", &[]),
            Some(2)
        );
        assert_eq!(snap.gauge("scratch_engine_queue_depth", &[]), Some(0.0));
        assert_eq!(snap.gauge("scratch_engine_busy_workers", &[]), Some(0.0));
        let run = snap
            .histogram("scratch_engine_job_run_ticks", &[])
            .expect("run histogram registered");
        assert_eq!(run.count(), 2);
    }

    #[test]
    fn idle_tenants_are_forgotten() {
        // One job under each of 20 000 tenant names: once they complete
        // the scheduler holds no state for any of them.
        const TENANTS: u64 = 20_000;
        let engine = Engine::new(2).with_metrics(false);
        let mut handle: EngineHandle<u64> = engine.start();
        for i in 0..TENANTS {
            handle.submit(format!("tenant-{i}"), "one", move |_| Slice::Done(Ok(i)));
        }
        let mut done = 0;
        while let Some(o) = handle.recv() {
            assert!(o.result.is_ok());
            done += 1;
        }
        assert_eq!(done, TENANTS);
        assert!(handle.tenant_queue_depths().is_empty());
        assert_eq!(handle.queue_depth(), 0);
        let sched = handle.shared.sched.lock().unwrap();
        assert!(sched.queues.is_empty() && sched.ring.is_empty());
    }

    #[test]
    fn queue_depths_list_only_tenants_with_work_in_pick_order() {
        // No workers pick anything until the gate opens, so the depths
        // show the ring exactly as submitted.
        let engine = Engine::new(1).with_metrics(false);
        let handle: EngineHandle<u32> = engine.start();
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        let blocker = Arc::clone(&gate);
        handle.submit("first", "blocker", move |_| {
            drop(blocker.lock().unwrap());
            Slice::Done(Ok(0))
        });
        while handle.in_flight() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for tenant in ["b", "a", "b", "c"] {
            handle.submit(tenant, "queued", |_| Slice::Done(Ok(1)));
        }
        assert_eq!(
            handle.tenant_queue_depths(),
            vec![
                ("b".to_owned(), 2),
                ("a".to_owned(), 1),
                ("c".to_owned(), 1)
            ]
        );
        assert_eq!(handle.queue_depth(), 4);
        drop(hold);
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), 5);
    }

    #[test]
    fn panicking_slice_is_isolated() {
        let engine = Engine::new(2).with_metrics(false);
        let handle: EngineHandle<u32> = engine.start();
        handle.submit("t", "bad", |i| {
            if i == 1 {
                panic!("slice two exploded");
            }
            Slice::Yield
        });
        handle.submit("t", "good", |_| Slice::Done(Ok(42)));
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), 2);
        assert!(
            matches!(&outcomes[0].result, Err(JobError::Panicked(m)) if m.contains("exploded"))
        );
        assert_eq!(outcomes[1].result.as_ref().unwrap(), &42);
    }
}
