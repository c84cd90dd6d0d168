//! Hermetic end-to-end tests: a real daemon on an ephemeral port, real
//! TCP clients, and the three properties the serving layer promises —
//! bit-identical results, typed shedding with zero accepted-then-dropped
//! jobs, and a graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use scratch_asm::KernelBuilder;
use scratch_check::GenKernel;
use scratch_isa::Opcode;
use scratch_metrics::Registry;
use scratch_serve::{
    fnv1a, RejectReason, Request, ServeClient, ServeConfig, Server, SubmitRequest,
};
use scratch_system::{System, SystemConfig, SystemKind};

/// A buildable generated kernel (skipping seeds that fail to assemble,
/// as the fuzzer does), with `wgs` scaled to stretch its runtime.
fn workload(seed: u64, wgs: u32) -> GenKernel {
    let mut s = seed;
    loop {
        let mut gk = GenKernel::generate(s);
        gk.wgs = wgs;
        if gk.build().is_ok() {
            return gk;
        }
        s = s.wrapping_add(1);
    }
}

fn submit_of(gk: &GenKernel, tenant: &str, label: &str, return_output: bool) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_owned(),
        label: label.to_owned(),
        kernel: gk.build().expect("workload() returns buildable kernels"),
        input: gk.image.clone(),
        grid: [gk.wgs, 1, 1],
        out_bytes: gk.out_bytes(),
        system: None,
        return_output,
        exec: None,
    }
}

/// The Admitted payload a live daemon journals for a submission: its
/// request line, exactly as the client sends it.
fn line_of(gk: &GenKernel, tenant: &str, label: &str) -> Vec<u8> {
    let request = Request::Submit(submit_of(gk, tenant, label, false));
    serde_json::to_string(&request)
        .expect("serializable")
        .into_bytes()
}

/// Fast-tier and self-checking jobs ride the same wire: identical output
/// words, zero cycles for `fast`, the cycle pipeline's count for
/// `fast-timing`, and an unknown tier is a typed Invalid rejection.
#[test]
fn fast_exec_jobs_serve_identical_words() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let gk = workload(7, 2);
    let (cycles, words) = direct_run(&gk);

    let mut client = ServeClient::connect(addr).expect("connect");
    for (exec, want_cycles) in [("fast", 0), ("fast-timing", cycles)] {
        let mut req = submit_of(&gk, "tenant", exec, true);
        req.exec = Some(exec.to_owned());
        let job = client.submit(req).expect("protocol").expect("admitted");
        let d = client.recv_done().expect("job completes");
        assert_eq!(d.job, job);
        assert!(d.ok, "{exec} job failed: {:?}", d.error);
        assert_eq!(
            d.output.as_ref().expect("return_output"),
            &words,
            "{exec} served words differ from the cycle tier's"
        );
        assert_eq!(d.cycles, want_cycles, "{exec} cycle count");
        assert!(d.instructions > 0, "{exec} instruction count");
    }

    let mut bad = submit_of(&gk, "tenant", "bad-exec", false);
    bad.exec = Some("warp-speed".to_owned());
    let rejection = client
        .submit(bad)
        .expect("protocol")
        .expect_err("unknown exec mode is shed, not queued");
    assert_eq!(rejection.reason, RejectReason::Invalid);

    server.shutdown();
}

/// Mirror of the server's execution path, run directly in-process: the
/// ground truth served results must be bit-identical to.
fn direct_run(gk: &GenKernel) -> (u64, Vec<u32>) {
    let kernel = gk.build().expect("buildable");
    let config = SystemConfig::preset(SystemKind::DcdPm);
    let mut sys = System::new(config, &kernel).expect("system");
    let out = sys.alloc(gk.out_bytes().max(4));
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    sys.dispatch([gk.wgs, 1, 1]).expect("generated kernels run");
    let report = sys.report();
    let words = sys.read_words(out, (gk.out_bytes().max(4) / 4) as usize);
    (report.cu_cycles, words)
}

#[test]
fn served_results_bit_identical_to_direct_runs() {
    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            registry: Some(registry.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // N kernels × M tenants, each submitted once with the full output
    // requested, checked word-for-word against a direct run.
    let kernels: Vec<GenKernel> = (0..4).map(|i| workload(100 + i, 2)).collect();
    let tenants = ["alpha", "beta", "gamma"];

    let mut client = ServeClient::connect(addr).expect("connect");
    assert!(client.ping().expect("ping"));

    let mut submitted = Vec::new();
    for (k, gk) in kernels.iter().enumerate() {
        for tenant in &tenants {
            let label = format!("job-{tenant}-{k}");
            let job = client
                .submit(submit_of(gk, tenant, &label, true))
                .expect("protocol")
                .expect("no load, nothing sheds");
            submitted.push((job, k));
        }
    }

    let mut done = std::collections::BTreeMap::new();
    for _ in 0..submitted.len() {
        let d = client.recv_done().expect("every accepted job completes");
        done.insert(d.job, d);
    }

    for (job, k) in submitted {
        let d = done.get(&job).expect("one Done per accepted job");
        assert!(d.ok, "job {job} failed: {:?}", d.error);
        let (cycles, words) = direct_run(&kernels[k]);
        let served = d.output.as_ref().expect("return_output was set");
        assert_eq!(served, &words, "served output differs from direct run");
        assert_eq!(d.digest, fnv1a(&words), "digest mismatch");
        assert_eq!(d.cycles, cycles, "cycle count differs from direct run");
        assert!(d.instructions > 0);
    }

    // The observability wiring actually observed all of it.
    let snap = registry.snapshot();
    let n = submitted_count(&done);
    assert_eq!(
        snap.counter("scratch_serve_accepted_total", &[]),
        Some(n),
        "accepted counter"
    );
    assert_eq!(
        snap.counter("scratch_serve_completed_total", &[]),
        Some(n),
        "completed counter"
    );
    assert_eq!(
        snap.counter(
            "scratch_serve_tenant_accepted_total",
            &[("tenant", "alpha")]
        ),
        Some(4),
        "per-tenant accepted counter"
    );
    assert!(
        snap.histogram("scratch_serve_latency_micros", &[("tenant", "alpha")])
            .is_some_and(|h| h.count() > 0),
        "per-tenant latency histogram populated"
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.completed);
    assert_eq!(stats.failed, 0);
}

fn submitted_count(done: &std::collections::BTreeMap<u64, scratch_serve::JobDone>) -> u64 {
    done.len() as u64
}

#[test]
fn overload_sheds_typed_and_never_drops_accepted_jobs() {
    // One worker, tiny queues: a burst from 6 open-loop submitters is far
    // beyond 2× capacity, so admission control must shed — and still
    // answer every accepted job.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_cap: 3,
            tenant_cap: 2,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let gk = workload(7, 4); // stretched runtime: the queue actually fills

    let accepted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let (gk, accepted, shed, completed) = (&gk, &accepted, &shed, &completed);
            scope.spawn(move || {
                let tenant = format!("t{}", t % 3);
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut my_accepted = 0u64;
                // Open loop: fire the whole burst without waiting.
                for i in 0..25 {
                    let req = submit_of(gk, &tenant, &format!("burst-{t}-{i}"), false);
                    match client.submit(req).expect("every submission is answered") {
                        Ok(_job) => {
                            my_accepted += 1;
                            accepted.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(rejection) => {
                            shed.fetch_add(1, Ordering::AcqRel);
                            assert!(
                                matches!(
                                    rejection.reason,
                                    RejectReason::TenantQueueFull | RejectReason::Overloaded
                                ),
                                "unexpected shed reason: {:?}",
                                rejection.reason
                            );
                            assert_eq!(rejection.tenant, tenant);
                            assert!(!rejection.message.is_empty());
                        }
                    }
                }
                // Every accepted job must produce exactly one Done on
                // this connection — zero accepted-then-dropped.
                for _ in 0..my_accepted {
                    let done = client.recv_done().expect("accepted job completes");
                    assert_eq!(done.tenant, tenant);
                    completed.fetch_add(1, Ordering::AcqRel);
                }
            });
        }
    });

    let accepted = accepted.load(Ordering::Acquire);
    let shed = shed.load(Ordering::Acquire);
    assert_eq!(accepted + shed, 6 * 25, "every submission got an answer");
    assert!(shed > 0, "a 2×-capacity burst must shed");
    assert!(accepted > 0, "admission must not starve entirely");
    assert_eq!(
        completed.load(Ordering::Acquire),
        accepted,
        "one Done per accepted job"
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.completed, accepted, "server-side: nothing dropped");
    assert_eq!(stats.shed, shed);
}

#[test]
fn rate_limit_sheds_with_retry_hint() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            rate: 2.0,
            burst: 1.0,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(11, 2);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // The single-token burst admits once; the immediate retry is shed
    // with a computed backoff hint.
    client
        .submit(submit_of(&gk, "acme", "first", false))
        .expect("protocol")
        .expect("burst token admits");
    let rejection = client
        .submit(submit_of(&gk, "acme", "second", false))
        .expect("protocol")
        .expect_err("empty bucket sheds");
    assert_eq!(rejection.reason, RejectReason::RateLimited);
    let hint = rejection.retry_after_ms.expect("rate limit carries a hint");
    assert!((1..=1000).contains(&hint), "hint {hint}ms vs 2/s refill");

    // A different tenant has its own bucket.
    client
        .submit(submit_of(&gk, "other", "first", false))
        .expect("protocol")
        .expect("per-tenant buckets are independent");

    client.recv_done().expect("accepted job 1 completes");
    client.recv_done().expect("accepted job 2 completes");
    server.shutdown();
}

#[test]
fn oversized_and_invalid_submissions_shed_without_queueing() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            max_input_words: 8,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(13, 2);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let too_big = client
        .submit(submit_of(&gk, "acme", "big", false)) // image is 4096 words
        .expect("protocol")
        .expect_err("input beyond max_input_words sheds");
    assert_eq!(too_big.reason, RejectReason::TooLarge);

    let mut bad = submit_of(&gk, "acme", "bad", false);
    bad.input = Vec::new();
    bad.system = Some("warp9".to_owned());
    let invalid = client
        .submit(bad)
        .expect("protocol")
        .expect_err("unknown preset sheds");
    assert_eq!(invalid.reason, RejectReason::Invalid);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0, "nothing was queued");
    assert_eq!(stats.shed, 2);
}

#[test]
fn drain_rejects_new_work_and_completes_accepted() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(17, 4);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // Queue a couple of jobs, then drain while they may still be running.
    for i in 0..3 {
        client
            .submit(submit_of(&gk, "acme", &format!("pre-{i}"), false))
            .expect("protocol")
            .expect("admits before drain");
    }
    client.drain().expect("drain acknowledged");

    let rejection = client
        .submit(submit_of(&gk, "acme", "late", false))
        .expect("protocol")
        .expect_err("draining server admits nothing");
    assert_eq!(rejection.reason, RejectReason::Draining);

    // The daemon loop would park in wait_drain(); it must return now.
    server.wait_drain();

    // Every pre-drain job still completes and is answered.
    for _ in 0..3 {
        let done = client.recv_done().expect("accepted jobs survive a drain");
        assert!(done.ok);
    }

    let stats = server.shutdown();
    assert!(stats.draining);
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
}

#[test]
fn load_harness_produces_a_saturation_curve() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    let plan = scratch_serve::LoadPlan {
        addr: server.addr().to_string(),
        steps: vec![1, 4],
        duration_ms: 300,
        seed: 21,
        kernels: 3,
        tenants: 2,
    };
    let report = scratch_serve::run_load(&plan).expect("harness runs");
    assert_eq!(report.steps.len(), 2);
    for step in &report.steps {
        assert!(step.attempted > 0, "closed loop always submits");
        assert_eq!(step.attempted, step.accepted + step.shed);
        assert!(step.completed > 0, "some jobs complete within the step");
        assert!(step.p50_us > 0 && step.p50_us <= step.p95_us);
        assert!(step.p95_us <= step.p99_us);
        assert!(step.offered_per_sec > 0.0);
    }
    // The curve serializes (what `scratch-tool load` writes to disk).
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: scratch_serve::LoadReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, report);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.completed, "drain left nothing behind");
}

#[test]
fn oversized_grids_shed_before_allocation_and_the_daemon_keeps_serving() {
    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            registry: Some(registry.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(13, 2);
    let (_, words) = direct_run(&gk);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // ~4.3e9 workgroups: planning their coordinates alone would take
    // ~51 GB. Each grid is shed as TooLarge at admission.
    let past_the_bound = (scratch_system::MAX_DISPATCH_WORKGROUPS + 1) as u32;
    for grid in [[65_535, 65_535, 1], [past_the_bound, 1, 1], [u32::MAX; 3]] {
        let mut huge = submit_of(&gk, "acme", "huge", false);
        huge.grid = grid;
        let shed = client
            .submit(huge)
            .expect("protocol")
            .expect_err("a grid past the workgroup bound sheds");
        assert_eq!(shed.reason, RejectReason::TooLarge, "{grid:?}");
        assert!(shed.message.contains("too large"), "{}", shed.message);
    }

    // The daemon keeps serving on the same connection.
    client
        .submit(submit_of(&gk, "acme", "fits", true))
        .expect("protocol")
        .expect("a legal grid is admitted");
    let d = client.recv_done().expect("the legal job completes");
    assert!(d.ok, "legal job failed: {:?}", d.error);
    assert_eq!(d.output.as_ref().expect("return_output"), &words);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "no oversized grid was queued");
    assert_eq!(stats.shed, 3);
    assert_eq!(
        registry
            .snapshot()
            .counter("scratch_serve_shed_total", &[("reason", "too_large")]),
        Some(3)
    );
}

#[test]
fn preempted_jobs_checkpoint_and_match_direct_runs() {
    // Pick a quantum well below the kernel's runtime so every served job
    // is paused and resumed several times, then demand bit-identity with
    // an uninterrupted direct run anyway. The WAL makes every quantum
    // boundary capture and journal a checkpoint.
    let gk = workload(301, 4);
    let (ref_cycles, ref_words) = direct_run(&gk);
    let quantum = (ref_cycles / 4).max(1);
    assert!(ref_cycles > quantum, "workload outlives one quantum");

    let dir = wal_dir("preempted");
    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            quantum_cycles: quantum,
            registry: Some(registry.clone()),
            wal: Some(scratch_wal::WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    for tenant in ["alpha", "beta"] {
        client
            .submit(submit_of(&gk, tenant, "sliced", true))
            .expect("protocol")
            .expect("no load, nothing sheds");
    }
    for _ in 0..2 {
        let d = client.recv_done().expect("sliced jobs complete");
        assert!(d.ok, "sliced job failed: {:?}", d.error);
        assert_eq!(
            d.output.as_ref().expect("return_output"),
            &ref_words,
            "preempted served output differs from direct run"
        );
        assert_eq!(d.cycles, ref_cycles, "preemption changed the cycle count");
    }

    // The checkpoint plane actually ran: captures and bytes. Live jobs
    // resume in place, so nothing was restored.
    let snap = registry.snapshot();
    let checkpoints = snap
        .counter("scratch_snap_checkpoints_total", &[])
        .unwrap_or(0);
    assert!(checkpoints >= 2, "each job checkpoints at least once");
    assert!(
        snap.counter("scratch_snap_checkpoint_bytes_total", &[])
            .unwrap_or(0)
            > 0,
        "checkpoint bytes accounted"
    );
    assert_eq!(
        snap.histogram("scratch_snap_resume_micros", &[])
            .map(|h| h.count()),
        Some(0),
        "live slices resume in place and record no resume sample"
    );
    assert!(
        snap.counter("scratch_preempt_quanta_total", &[])
            .unwrap_or(0)
            > 0,
        "scheduler quanta counted"
    );
    assert!(
        snap.counter("scratch_preempt_preemptions_total", &[])
            .unwrap_or(0)
            > 0,
        "preemptions counted"
    );

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);
    let state = scratch_wal::WalState::read(&dir).expect("readable log");
    assert_eq!(
        state.checkpoints.values().sum::<u64>(),
        checkpoints,
        "every captured checkpoint was journaled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_midflight_job_without_blocking_drain() {
    // A kernel that never terminates, sliced into short quanta (its
    // 4e9-cycle watchdog budget is millions of slices away): cancel it
    // mid-flight, watch the Done arrive as `cancelled`, and prove the
    // worker (and a subsequent drain) never wedge on it. A finite kernel
    // could finish before the cancel arrives.
    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            quantum_cycles: 1_000,
            registry: Some(registry.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let victim = client
        .submit(spin_request(None))
        .expect("protocol")
        .expect("admits");
    assert!(
        client.cancel(victim).expect("protocol"),
        "live job is cancellable"
    );
    let done = client.recv_done().expect("cancelled job still answers");
    assert_eq!(done.job, victim);
    assert!(!done.ok, "cancelled job must not report success");
    assert_eq!(done.error.as_deref(), Some("cancelled"));

    // Too late now: its outcome was already produced.
    assert!(!client.cancel(victim).expect("protocol"));
    // Unknown ids are not cancellable either.
    assert!(!client.cancel(victim + 1000).expect("protocol"));

    // The worker is free again: new work completes normally…
    let after = workload(402, 2);
    let (after_cycles, after_words) = direct_run(&after);
    client
        .submit(submit_of(&after, "acme", "after", true))
        .expect("protocol")
        .expect("admits after a cancellation");
    let d = client.recv_done().expect("completes");
    assert!(d.ok, "{:?}", d.error);
    assert_eq!(d.cycles, after_cycles);
    assert_eq!(d.output.as_ref().expect("return_output"), &after_words);

    // …and a drain exits promptly instead of waiting on the victim.
    client.drain().expect("drain acknowledged");
    server.wait_drain();

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("scratch_serve_cancelled_total", &[]),
        Some(1),
        "serve-side cancellation accounted"
    );
    assert_eq!(
        snap.counter("scratch_preempt_cancelled_total", &[]),
        Some(1),
        "engine-side cancellation accounted"
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2, "cancelled jobs still complete");
    assert_eq!(stats.failed, 1, "the cancelled job counts as failed");
    assert_eq!(stats.cancelled, 1);
}

/// `spin: s_branch spin` — a kernel that never terminates.
fn spin_request(exec: Option<&str>) -> SubmitRequest {
    let mut b = KernelBuilder::new("spin");
    b.vgprs(8).sgprs(32).workgroup_size(64);
    let top = b.new_label();
    b.bind(top).expect("fresh label");
    b.branch(Opcode::SBranch, top);
    b.endpgm().expect("endpgm");
    SubmitRequest {
        tenant: "runaway".to_owned(),
        label: format!("spin-{}", exec.unwrap_or("cycle")),
        kernel: b.finish().expect("spin kernel builds"),
        input: Vec::new(),
        grid: [1, 1, 1],
        out_bytes: 4,
        system: None,
        return_output: false,
        exec: exec.map(str::to_owned),
    }
}

/// A runaway kernel answers a typed watchdog failure on both tiers — the
/// sliced cycle tier and the unsliced fast tier — and takes nothing down
/// with it: a sibling job completes bit-identical to a direct run and
/// the daemon still drains.
#[test]
fn runaway_jobs_trip_the_watchdog_on_both_tiers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            quantum_cycles: 1_000,
            watchdog_cycles: 50_000,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(23, 2);
    let (ref_cycles, ref_words) = direct_run(&gk);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let mut runaways = Vec::new();
    for exec in [None, Some("fast")] {
        let job = client
            .submit(spin_request(exec))
            .expect("protocol")
            .expect("admits");
        runaways.push(job);
    }
    let sibling = client
        .submit(submit_of(&gk, "steady", "sibling", true))
        .expect("protocol")
        .expect("admits");

    let mut seen = Vec::new();
    for _ in 0..3 {
        let d = client.recv_done().expect("every job answers");
        if d.job == sibling {
            assert!(d.ok, "sibling failed: {:?}", d.error);
            assert_eq!(d.output.as_ref().expect("return_output"), &ref_words);
            assert_eq!(d.cycles, ref_cycles);
        } else {
            assert!(runaways.contains(&d.job), "unknown job {}", d.job);
            assert!(!d.ok, "{} must not report success", d.label);
            assert_eq!(
                d.error.as_deref(),
                Some("watchdog: job exceeded its 50000-cycle budget"),
                "{}",
                d.label
            );
        }
        seen.push(d.job);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![runaways[0], runaways[1], sibling]);

    client.drain().expect("drain acknowledged");
    server.wait_drain();
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 2, "both runaways count as failed");
}

#[test]
fn malformed_lines_answer_error_and_keep_the_connection() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let ping = serde_json::to_string(&scratch_serve::Request::Ping).unwrap();
    raw.write_all(format!("this is not json\n{ping}\n").as_bytes())
        .unwrap();
    raw.flush().unwrap();

    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("Error") && line.contains("malformed request"),
        "garbage line answers a protocol error, got: {line}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("Pong"),
        "connection survives a malformed line, got: {line}"
    );

    server.shutdown();
}

/// A line that is not UTF-8, and a submission in the retired
/// decimal-array form, each get a typed `Error` answer — not silence —
/// and the connection keeps serving.
#[test]
fn non_utf8_and_decimal_array_lines_answer_error() {
    use scratch_serve::Response;
    use serde::Value;

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(19, 2);
    let decimal = serde_json::to_string(&Value::Object(
        [(
            "Submit".to_owned(),
            decimal_submit(&gk, "acme", "old-client"),
        )]
        .into(),
    ))
    .unwrap();

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"\xff\xfe\n").unwrap();
    raw.write_all(format!("{decimal}\n\"Ping\"\n").as_bytes())
        .unwrap();
    raw.flush().unwrap();

    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("an answer arrives");
        serde_json::from_str::<Response>(&line).expect("a protocol line")
    };
    match next() {
        Response::Error { message } => assert!(message.contains("not UTF-8"), "{message}"),
        other => panic!("a non-UTF-8 line must answer Error, got {other:?}"),
    }
    match next() {
        Response::Error { message } => {
            assert!(message.contains("decimal word arrays"), "{message}");
        }
        other => panic!("a decimal-array submission must answer Error, got {other:?}"),
    }
    assert_eq!(next(), Response::Pong, "the connection keeps serving");

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 0, "neither line reached admission");
}

/// A submission in the decimal-array shape daemons journaled before
/// request lines were: `input` and the kernel's `words` as JSON number
/// arrays, and no `Submit` tag.
fn decimal_submit(gk: &GenKernel, tenant: &str, label: &str) -> serde::Value {
    use serde::Value;

    let numbers =
        |words: &[u32]| Value::Array(words.iter().map(|&w| Value::U64(u64::from(w))).collect());
    let submit = submit_of(gk, tenant, label, false);
    let mut tree = serde_json::to_value(&submit).unwrap();
    let Value::Object(fields) = &mut tree else {
        panic!("a submission is an object")
    };
    fields.insert("input".to_owned(), numbers(&submit.input));
    let Some(Value::Object(kernel)) = fields.get_mut("kernel") else {
        panic!("the kernel is an object")
    };
    kernel.insert("words".to_owned(), numbers(submit.kernel.words()));
    tree
}

/// The full observability plane under preemption: spans on, profiling on,
/// a 4-worker pool, and a quantum small enough that every job is sliced
/// at least three times. Every job's span timeline must tile its lifetime
/// exactly; enabling the plane must change no cycles and no output words;
/// and `Top` must surface the per-tenant SLO and signature aggregates.
#[test]
fn spans_tile_exactly_under_preemption_and_top_aggregates() {
    let gk = workload(901, 4);
    let (ref_cycles, ref_words) = direct_run(&gk);
    // Aim well past the 3-slice floor; the engine re-slices on quantum
    // boundaries, so cycles/8 yields ~8 run slices per job.
    let quantum = (ref_cycles / 8).max(1);
    assert!(ref_cycles > 3 * quantum, "workload outlives three quanta");

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            quantum_cycles: quantum,
            spans: true,
            profile: true,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let tenants = ["alpha", "beta"];
    let mut submitted = Vec::new();
    for round in 0..4 {
        for tenant in &tenants {
            let job = client
                .submit(submit_of(&gk, tenant, &format!("sliced-{round}"), true))
                .expect("protocol")
                .expect("no load, nothing sheds");
            submitted.push(job);
        }
    }

    for _ in 0..submitted.len() {
        let d = client.recv_done().expect("sliced jobs complete");
        assert!(d.ok, "job {} failed: {:?}", d.job, d.error);
        assert_eq!(
            d.output.as_ref().expect("return_output"),
            &ref_words,
            "spans+profiling changed the served words"
        );
        assert_eq!(d.cycles, ref_cycles, "spans+profiling changed the cycles");
        assert!(
            d.slices >= 3,
            "job {} ran in {} slices; the quantum should force >= 3",
            d.job,
            d.slices
        );
        assert!(d.exec_us >= d.snap_us, "checkpoint time within exec time");
    }

    // Spans are finished on the router thread just after the reply is
    // written, so give the recorder a moment to catch up with the client.
    let spans = {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut collected = Vec::new();
        loop {
            collected.extend(server.take_spans());
            if collected.len() >= submitted.len() || std::time::Instant::now() > deadline {
                break collected;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    assert_eq!(spans.len(), submitted.len(), "one timeline per job");
    for j in &spans {
        j.check_tiling()
            .unwrap_or_else(|e| panic!("job {} timeline torn: {e}", j.job));
        assert!(submitted.contains(&j.job), "unknown job id {}", j.job);
        assert!(
            j.slices() >= 3,
            "job {} timeline shows {} run slices",
            j.job,
            j.slices()
        );
        assert!(j.total_us() > 0, "job {} has a zero-width timeline", j.job);
        assert_eq!(
            j.total_us(),
            j.spans.iter().map(|s| s.dur_us()).sum::<u64>(),
            "exact tiling: span durations sum to the job's lifetime"
        );
    }

    // `Top` surfaces the rolling SLO and the aggregated signatures.
    let top = client.top().expect("top");
    assert!(!top.draining);
    assert_eq!(top.tenants.len(), tenants.len());
    for t in &top.tenants {
        assert!(tenants.contains(&t.tenant.as_str()), "tenant {}", t.tenant);
        assert_eq!(t.completed, 4, "{} completions", t.tenant);
        assert_eq!(t.shed, 0);
        assert!(t.p99_us >= t.p50_us, "{} quantile ordering", t.tenant);
        assert!(t.instructions > 0, "{} signature aggregated", t.tenant);
        assert_ne!(t.preset, "-", "{} covering preset computed", t.tenant);
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, submitted.len() as u64);
    assert_eq!(stats.failed, 0);
}

// ---------------------------------------------------------------------------
// Durability: WAL recovery and the idle-timeout shed.
// ---------------------------------------------------------------------------

/// A scratch directory unique to one test.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scratch-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Poll the log until `id` has a completion record (the replayed job's
/// `Done` goes to a dead channel, so the log is the only witness).
fn await_completion(dir: &std::path::Path, id: u64) -> scratch_wal::CompletionMeta {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let state = scratch_wal::WalState::read(dir).expect("readable log");
        if let Some(metas) = state.completions.get(&id) {
            return metas[0].clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never completed after replay"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A restarted daemon must re-run logged-but-unfinished jobs, suppress
/// logged-and-completed ones, produce bit-identical digests for the
/// replays, and never re-mint an id the previous lifetime used.
#[test]
fn wal_recovery_replays_pending_dedupes_completed_and_floors_ids() {
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    let dir = wal_dir("recovery");
    let gk_done = workload(300, 2);
    let gk_pending = workload(310, 2);
    let (_, done_words) = direct_run(&gk_done);
    let (_, pending_words) = direct_run(&gk_pending);

    // Forge the log a crashed daemon would have left behind: one job
    // fully completed, one admitted but unfinished.
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        wal.append(&Record::Admitted {
            id: 3,
            tenant: "alpha".to_owned(),
            label: "done".to_owned(),
            payload: line_of(&gk_done, "alpha", "done"),
        })
        .expect("append");
        wal.append(&Record::Completed {
            id: 3,
            ok: true,
            digest: fnv1a(&done_words),
            cycles: 1,
            instructions: 1,
            error: String::new(),
        })
        .expect("append");
        wal.append(&Record::Admitted {
            id: 7,
            tenant: "beta".to_owned(),
            label: "pending".to_owned(),
            payload: line_of(&gk_pending, "beta", "pending"),
        })
        .expect("append");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            wal: Some(scratch_wal::WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured").clone();
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 1);
    assert_eq!(report.replayed, 1, "only the unfinished job re-runs");
    assert_eq!(report.deduped, 1, "the completed job is suppressed");
    assert_eq!(report.torn_bytes, 0, "a clean log has no torn tail");

    // The replay completes with a digest bit-identical to a direct run,
    // exactly once.
    let meta = await_completion(&dir, 7);
    assert!(meta.ok, "replayed job failed: {}", meta.error);
    assert_eq!(
        meta.digest,
        fnv1a(&pending_words),
        "replay is bit-identical"
    );

    // A live admission in the new lifetime never reuses a logged id.
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let job = client
        .submit(submit_of(&gk_done, "alpha", "fresh", false))
        .expect("protocol")
        .expect("admitted");
    assert!(job > 7, "id floor: got {job}, the old lifetime reached 7");
    let d = client.recv_done().expect("fresh job completes");
    assert!(!d.redelivered, "a live admission is not a redelivery");
    server.shutdown();

    // The final ledger is clean: every admission has exactly one
    // completion.
    let vr = scratch_wal::verify(&dir).expect("verify");
    assert!(vr.clean(), "post-shutdown log must be clean: {vr:?}");
    assert_eq!(vr.duplicate_completions, 0);
    assert_eq!(vr.unfinished, 0);
    let state = scratch_wal::WalState::read(&dir).expect("read");
    assert_eq!(state.completions.get(&3).map(Vec::len), Some(1));
    assert_eq!(state.completions.get(&7).map(Vec::len), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unusable checkpoint (garbage bytes, wrong version) must not wedge
/// recovery: the job falls back to a from-scratch replay and still lands
/// the right digest.
#[test]
fn wal_recovery_survives_a_garbage_checkpoint() {
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    let dir = wal_dir("bad-checkpoint");
    let gk = workload(320, 2);
    let (_, words) = direct_run(&gk);
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        wal.append(&Record::Admitted {
            id: 5,
            tenant: "alpha".to_owned(),
            label: "resumable".to_owned(),
            payload: line_of(&gk, "alpha", "resumable"),
        })
        .expect("append");
        wal.append(&Record::Checkpoint {
            id: 5,
            out_addr: 64,
            snap: vec![0xde, 0xad, 0xbe, 0xef, 1, 2, 3],
        })
        .expect("append");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            wal: Some(scratch_wal::WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured");
    assert_eq!(report.replayed, 1);
    assert_eq!(report.resumed, 1, "the scan trusts the checkpoint's shape");

    let meta = await_completion(&dir, 5);
    assert!(meta.ok, "fallback replay failed: {}", meta.error);
    assert_eq!(meta.digest, fnv1a(&words), "fallback is bit-identical");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replayed checkpoint whose memory image is malformed, inside a
/// CRC-valid frame, fails only its own job: restore rejects it with a
/// typed error before allocating, the failure is journaled as the job's
/// completion, and a sibling replay and live traffic are served as usual.
#[test]
fn wal_replay_of_a_malformed_memory_image_fails_only_its_job() {
    use scratch_system::DispatchProgress;
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};
    use serde::{Serialize, Value};

    fn entry<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        match v {
            Value::Object(map) => map.get_mut(key).expect("checkpoint field"),
            other => panic!("expected an object, got {}", other.kind()),
        }
    }

    let dir = wal_dir("bad-image");
    let gk_bad = workload(340, 2);
    let gk_ok = workload(350, 2);
    let (_, ok_words) = direct_run(&gk_ok);

    // A genuine quantum-boundary checkpoint of the job, as its first
    // slice would journal it, with one page pushed past the image's end.
    let kernel = gk_bad.build().expect("buildable");
    let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).expect("system");
    let out = sys.alloc(gk_bad.out_bytes().max(4));
    let inp = sys.alloc_words(&gk_bad.image);
    sys.set_args(&[out as u32, inp as u32]);
    assert_eq!(
        sys.dispatch_preemptible([gk_bad.wgs, 1, 1], 100)
            .expect("dispatch"),
        DispatchProgress::Paused
    );
    let mut tree = sys.checkpoint().expect("paused").to_sval();
    let image = entry(entry(&mut tree, "memory"), "image");
    let Value::Array(pages) = entry(image, "pages") else {
        panic!("image pages are an array");
    };
    let mut stray = pages.last().expect("the input page").clone();
    *entry(&mut stray, "index") = Value::U64(1 << 40);
    pages.push(stray);
    let snap = scratch_snap::to_bytes(&tree);

    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        for (id, gk, label) in [(5, &gk_bad, "bad-image"), (6, &gk_ok, "sibling")] {
            wal.append(&Record::Admitted {
                id,
                tenant: "alpha".to_owned(),
                label: label.to_owned(),
                payload: line_of(gk, "alpha", label),
            })
            .expect("append");
        }
        wal.append(&Record::Checkpoint {
            id: 5,
            out_addr: out,
            snap,
        })
        .expect("append");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            wal: Some(scratch_wal::WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured");
    assert_eq!(report.replayed, 2);
    assert_eq!(report.resumed, 1);

    let bad = await_completion(&dir, 5);
    assert!(!bad.ok, "a malformed image must fail its job");
    assert!(
        bad.error.contains("malformed checkpoint memory image"),
        "typed restore error journaled: {}",
        bad.error
    );
    let sibling = await_completion(&dir, 6);
    assert!(sibling.ok, "sibling replay failed: {}", sibling.error);
    assert_eq!(sibling.digest, fnv1a(&ok_words));

    // The daemon keeps serving live traffic.
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .submit(submit_of(&gk_ok, "alpha", "live", false))
        .expect("protocol")
        .expect("admitted");
    let d = client.recv_done().expect("live job completes");
    assert!(d.ok, "live job failed: {:?}", d.error);
    assert_eq!(d.digest, fnv1a(&ok_words));
    server.shutdown();

    let vr = scratch_wal::verify(&dir).expect("verify");
    assert!(vr.clean(), "post-shutdown log must be clean: {vr:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replayed job restores its durable checkpoint once and then runs in
/// place: its first slice decodes and restores the genuine first-quantum
/// checkpoint (one resume sample), every later quantum boundary journals
/// a fresh checkpoint, and the result is bit-identical to a direct run.
#[test]
fn wal_replay_restores_once_then_resumes_in_place() {
    use scratch_system::DispatchProgress;
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    const QUANTUM: u64 = 100;
    let dir = wal_dir("restore-once");
    let gk = workload(340, 2);
    let (ref_cycles, ref_words) = direct_run(&gk);
    assert!(ref_cycles > 3 * QUANTUM, "the replay outlives three quanta");

    // The job's genuine first-quantum checkpoint, unmodified, as its
    // first slice would have journaled it.
    let kernel = gk.build().expect("buildable");
    let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).expect("system");
    let out = sys.alloc(gk.out_bytes().max(4));
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    assert_eq!(
        sys.dispatch_preemptible([gk.wgs, 1, 1], QUANTUM)
            .expect("dispatch"),
        DispatchProgress::Paused
    );
    let snap = scratch_snap::to_bytes(&sys.checkpoint().expect("paused"));
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        wal.append(&Record::Admitted {
            id: 5,
            tenant: "alpha".to_owned(),
            label: "resumed".to_owned(),
            payload: line_of(&gk, "alpha", "resumed"),
        })
        .expect("append");
        wal.append(&Record::Checkpoint {
            id: 5,
            out_addr: out,
            snap,
        })
        .expect("append");
    }

    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            quantum_cycles: QUANTUM,
            registry: Some(registry.clone()),
            wal: Some(WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured");
    assert_eq!(report.replayed, 1);
    assert_eq!(report.resumed, 1);

    let meta = await_completion(&dir, 5);
    assert!(meta.ok, "resumed job failed: {}", meta.error);
    assert_eq!(meta.digest, fnv1a(&ref_words), "digest bit-identical");
    assert_eq!(meta.cycles, ref_cycles, "cycles bit-identical");
    server.shutdown();

    assert_eq!(
        registry
            .snapshot()
            .histogram("scratch_snap_resume_micros", &[])
            .map(|h| h.count()),
        Some(1),
        "one restore, on the replayed job's first slice"
    );
    let state = scratch_wal::WalState::read(&dir).expect("readable log");
    let journaled = state.checkpoints.get(&5).copied().unwrap_or(0);
    assert!(
        journaled >= 3,
        "the forged checkpoint plus at least two more, got {journaled}"
    );
    let vr = scratch_wal::verify(&dir).expect("verify");
    assert!(vr.clean(), "post-shutdown log must be clean: {vr:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log written before request lines were journaled holds decimal-array
/// `SubmitRequest` payloads. Replay dead-letters such a job — a journaled
/// failed completion naming the decode failure — while a sibling in the
/// current shape replays and completes bit-identically.
#[test]
fn wal_replay_dead_letters_a_decimal_payload_and_runs_its_sibling() {
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    let dir = wal_dir("decimal-payload");
    let gk_old = workload(360, 2);
    let gk_new = workload(370, 2);
    let (_, new_words) = direct_run(&gk_new);
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        let old_payload = serde_json::to_string(&decimal_submit(&gk_old, "alpha", "old"))
            .unwrap()
            .into_bytes();
        wal.append(&Record::Admitted {
            id: 2,
            tenant: "alpha".to_owned(),
            label: "old".to_owned(),
            payload: old_payload,
        })
        .expect("append");
        wal.append(&Record::Admitted {
            id: 4,
            tenant: "alpha".to_owned(),
            label: "new".to_owned(),
            payload: line_of(&gk_new, "alpha", "new"),
        })
        .expect("append");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            registry: Some(Registry::new()),
            wal: Some(WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    assert_eq!(
        server.recovery_report().expect("wal configured").replayed,
        2
    );

    let old = await_completion(&dir, 2);
    assert!(!old.ok, "an undecodable payload must not run");
    assert!(
        old.error.contains("payload decode failed"),
        "typed dead-letter journaled: {}",
        old.error
    );
    let new = await_completion(&dir, 4);
    assert!(new.ok, "sibling replay failed: {}", new.error);
    assert_eq!(new.digest, fnv1a(&new_words), "sibling is bit-identical");
    server.shutdown();

    let vr = scratch_wal::verify(&dir).expect("verify");
    assert!(vr.clean(), "post-shutdown log must be clean: {vr:?}");
    assert_eq!(vr.unfinished, 0, "both jobs settled exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `idle_timeout` set, a connection that goes silent with nothing in
/// flight is shed with the typed `IdleTimeout` rejection and closed —
/// while activity (even just pings) keeps it alive indefinitely.
#[test]
fn idle_connections_shed_with_typed_timeout_and_activity_resets_it() {
    use scratch_serve::Response;

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // A silent connection: the daemon speaks first, with the typed shed,
    // then closes.
    let silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut lines = BufReader::new(silent);
    let mut line = String::new();
    lines.read_line(&mut line).expect("the shed notice arrives");
    let response: Response = serde_json::from_str(&line).expect("valid protocol line");
    match response {
        Response::Rejected(r) => {
            assert_eq!(r.reason, RejectReason::IdleTimeout);
            assert!(r.message.contains("300 ms"), "message names the limit");
        }
        other => panic!("expected the idle shed, got {other:?}"),
    }
    line.clear();
    let eof = lines.read_line(&mut line).expect("socket readable");
    assert_eq!(eof, 0, "the daemon closes an idle-shed connection");

    // An active connection outlives many idle windows: each ping resets
    // the clock.
    let mut active = ServeClient::connect(addr).expect("connect");
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            active.ping().expect("still connected"),
            "ping keeps it alive"
        );
    }

    // ...and a submitted job holds the connection open while the client
    // silently awaits its Done.
    let gk = workload(330, 2);
    active
        .submit(submit_of(&gk, "tenant", "awaited", false))
        .expect("protocol")
        .expect("admitted");
    let d = active
        .recv_done()
        .expect("done arrives on a live connection");
    assert!(d.ok);
    server.shutdown();
}
