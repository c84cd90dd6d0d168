//! Scrape-path integration test: after real work flows through the
//! engine + system simulators, a TCP scrape of the metrics server must
//! return valid Prometheus text with every layer's counters populated —
//! the same check a `curl http://.../metrics | grep` smoke test makes
//! in CI, but hermetic (own registry, ephemeral port).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;

use scratch::engine::{Engine, JobError, Slice};
use scratch::kernels::{vec_ops::MatrixAdd, Benchmark};
use scratch::metrics::{MetricsServer, Registry};
use scratch::system::{SystemConfig, SystemKind};

/// One HTTP/1.1 GET against the server; returns (status line, body).
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

#[test]
fn scraping_after_a_dispatch_sees_every_layer() {
    let registry = Registry::new();

    // Dispatch two kernels through an engine batch so the engine queue,
    // the system dispatcher and the CU aggregates all publish.
    let reg = registry.clone();
    let outcomes =
        Engine::new(2)
            .with_registry(registry.clone())
            .run_batch([false, true].into_iter().map(move |fp| {
                let reg = reg.clone();
                let label = if fp { "fp" } else { "int" };
                (label, move || {
                    let config = SystemConfig::preset(SystemKind::DcdPm).with_registry(reg);
                    MatrixAdd::new(16, fp)
                        .run(config)
                        .map(|_| ())
                        .map_err(|e| JobError::Failed(e.to_string()))
                })
            }));
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        assert!(o.result.is_ok(), "{}: {:?}", o.label, o.result);
    }

    let server =
        MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind ephemeral port");
    let addr = server.addr();

    let (status, body) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "{status}");

    // Engine layer.
    assert!(
        body.contains("scratch_engine_jobs_submitted_total 2\n"),
        "{body}"
    );
    assert!(body.contains("scratch_engine_jobs_completed_total 2\n"));
    assert!(body.contains("scratch_engine_job_wait_ticks_count 2\n"));
    // System layer (labeled by preset).
    assert!(body.contains("scratch_system_dispatches_total{system=\"DCD+PM\"} 2\n"));
    assert!(body.contains("scratch_system_prefetch_hits_total{system=\"DCD+PM\"}"));
    // CU aggregates: instructions flowed and stall reasons attributed.
    assert!(body.contains("scratch_system_instructions_total{system=\"DCD+PM\"}"));
    assert!(
        body.contains("scratch_system_stall_cycles_total{reason=\"waitcnt-vm\",system=\"DCD+PM\"}")
    );
    assert!(body.contains("scratch_system_fu_occupancy_ratio{system=\"DCD+PM\",unit=\"iVALU\"}"));

    // The JSON endpoint serves the same snapshot, deserializable.
    let (status, json_body) = scrape(addr, "/metrics.json");
    assert!(status.contains("200"), "{status}");
    let snap: scratch::metrics::MetricsSnapshot =
        serde_json::from_str(&json_body).expect("valid snapshot JSON");
    assert_eq!(
        snap.counter("scratch_engine_jobs_submitted_total", &[]),
        Some(2)
    );
    assert_eq!(
        snap.counter("scratch_system_dispatches_total", &[("system", "DCD+PM")]),
        Some(2)
    );

    // Unknown paths 404 without killing the server.
    let (status, _) = scrape(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, _) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "{status}");

    server.shutdown();
}

#[test]
fn preemptive_slicing_publishes_to_the_scrape_path() {
    let registry = Registry::new();
    let engine = Engine::new(1).with_registry(registry.clone()).start();

    // One job sliced into three quanta (two yields, then done) and one
    // that never finishes on its own — cancellation stops it at a
    // quantum boundary. Together they drive all three preempt counters.
    let mut left = 2u32;
    let sliced = engine.submit("acme".to_owned(), "sliced".to_owned(), move |_| {
        if left == 0 {
            Slice::Done(Ok(7u32))
        } else {
            left -= 1;
            Slice::Yield
        }
    });
    let victim = engine.submit("acme".to_owned(), "victim".to_owned(), |_| {
        Slice::<u32>::Yield
    });
    assert!(engine.cancel(victim), "victim must be cancellable");
    let mut outcomes = Vec::new();
    while outcomes.len() < 2 {
        outcomes.extend(engine.recv_timeout(std::time::Duration::from_secs(30)));
    }
    for o in &outcomes {
        if o.id == sliced {
            assert_eq!(o.result.as_ref().ok(), Some(&7));
        } else {
            assert!(matches!(o.result, Err(JobError::Cancelled)), "{o:?}");
        }
    }
    let drained = engine.join();
    assert!(drained.is_empty(), "all outcomes were already received");

    let server =
        MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind ephemeral port");
    let (status, body) = scrape(server.addr(), "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("scratch_preempt_quanta_total"), "{body}");
    assert!(body.contains("scratch_preempt_preemptions_total"), "{body}");
    assert!(
        body.contains("scratch_preempt_cancelled_total 1\n"),
        "{body}"
    );

    // Exact floors via the typed snapshot: the sliced job alone runs 3
    // quanta and yields twice.
    let snap = registry.snapshot();
    assert!(
        snap.counter("scratch_preempt_quanta_total", &[])
            .unwrap_or(0)
            >= 3
    );
    assert!(
        snap.counter("scratch_preempt_preemptions_total", &[])
            .unwrap_or(0)
            >= 2
    );
    assert_eq!(
        snap.counter("scratch_preempt_cancelled_total", &[]),
        Some(1)
    );

    server.shutdown();
}
