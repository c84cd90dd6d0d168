//! The per-layer metrics: their names and units, the values a traced run
//! fills in, and the attribution of the served round trip.

use std::collections::BTreeMap;

use scratch_system::StallReason;

use crate::stats::Outcome;

/// Layers' share of the served round trip, in the order a job meets them.
/// Their means plus `serve.unattributed_us` sum to the mean round trip.
const ATTRIBUTION: [&str; 14] = [
    "serve.request_encode_us",
    "serve.request_decode_us",
    "wal.payload_encode_us",
    "wal.append_us",
    "wal.fsync_us",
    "engine.queue_us",
    "system.build_us",
    "snap.decode_us",
    "system.restore_us",
    "cu.dispatch_us",
    "snap.capture_us",
    "snap.encode_us",
    "serve.digest_us",
    "serve.reply_codec_us",
];

/// `StallReason::label` as a metric-name component.
fn stall_name(reason: StallReason) -> String {
    format!("cu.stall_cpi.{}", reason.label())
}

/// A paper application's name as a metric-name component, e.g.
/// `"2D Conv (INT32)"` → `2d_conv_int32`.
pub fn app_slug(name: &str) -> String {
    let mut slug = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.is_empty() && !slug.ends_with('_') {
            slug.push('_');
        }
    }
    slug.trim_end_matches('_').to_owned()
}

/// Every per-layer metric as `(name, unit)`, in `BENCHMARK.json` order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    for name in [
        "serve.request_encode_us",
        "serve.request_decode_us",
        "serve.reply_codec_us",
        "serve.ack_us",
        "serve.digest_us",
        "serve.unattributed_us",
        "wal.payload_encode_us",
        "wal.append_us",
        "wal.fsync_us",
    ] {
        add(name, "us");
    }
    add("wal.bytes_per_job", "bytes");
    add("system.build_us", "us");
    add("system.restore_us", "us");
    add("snap.capture_us", "us");
    add("snap.encode_us", "us");
    add("snap.decode_us", "us");
    add("snap.checkpoint_bytes", "bytes");
    add("engine.queue_us", "us");
    add("engine.exec_us", "us");
    add("engine.slices_per_job", "slices");
    add("cu.dispatch_us", "us");
    add("cu.ipc", "instr/cycle");
    for reason in StallReason::WAVE_RESIDENT {
        add(&stall_name(reason), "cycles/instr");
    }
    let apps: Vec<String> = scratch_kernels::paper_benchmarks()
        .iter()
        .map(|b| app_slug(&b.name()))
        .collect();
    for app in &apps {
        add(&format!("cu.app_ms.{app}"), "ms");
    }
    for app in &apps {
        add(&format!("fastpath.app_ms.{app}"), "ms");
    }
    for name in [
        "span.queue_us",
        "span.restore_us",
        "span.run_us",
        "span.capture_us",
        "span.reply_us",
    ] {
        add(name, "us");
    }
    out
}

/// Values of one traced run; a layer the workload gives no work reads 0.
#[derive(Debug, Default)]
pub struct LayerValues {
    values: BTreeMap<String, f64>,
    /// Mean client-measured round trip of a served job, µs (serve
    /// workloads only).
    pub round_trip_us: f64,
}

impl LayerValues {
    /// Set one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    fn get(&self, name: &str) -> f64 {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.values.get(name).copied().unwrap_or(0.0) + 0.0
    }

    /// Set `cu.ipc` and the wave-resident stall CPIs from exact counts;
    /// `stall_cycles` is indexed like `StallReason::WAVE_RESIDENT`.
    pub fn set_cu(&mut self, instructions: u64, cycles: u64, stall_cycles: &[u64; 6]) {
        let instr = instructions.max(1) as f64;
        self.set("cu.ipc", instructions as f64 / cycles.max(1) as f64);
        for (reason, stalls) in StallReason::WAVE_RESIDENT.into_iter().zip(stall_cycles) {
            self.set(&stall_name(reason), *stalls as f64 / instr);
        }
    }
}

/// Close the attribution (`serve.unattributed_us` is the mean round trip
/// minus every attributed layer) and print it as a table.
pub fn attribute(workload: &str, v: &mut LayerValues) {
    let attributed: f64 = ATTRIBUTION.iter().map(|n| v.get(n)).sum();
    let rest = v.round_trip_us - attributed;
    v.set("serve.unattributed_us", rest);
    let rt = v.round_trip_us.max(f64::MIN_POSITIVE);
    println!(
        "{workload}: attribution of the mean round trip ({:.1} us)",
        v.round_trip_us
    );
    for name in ATTRIBUTION.iter().chain(["serve.unattributed_us"].iter()) {
        let us = v.get(name);
        println!("  {name:<26} {us:>12.1} us  {:>6.2} %", 100.0 * us / rt);
    }
    let wal = v.get("wal.payload_encode_us") + v.get("wal.append_us") + v.get("wal.fsync_us");
    println!(
        "  {:<26} {:>12.1} us  {:>6.2} %   (cross-check: engine.exec_us {:.1}, serve.ack_us {:.1})",
        "sum = mean round trip",
        attributed + rest,
        100.0 * (attributed + rest) / rt,
        v.get("engine.exec_us"),
        v.get("serve.ack_us"),
    );
    println!("  WAL share of a served job: {:.2} %", 100.0 * wal / rt);
}

/// The values as the run's per-layer metrics, in `BENCHMARK.json` order.
pub fn fill(outcome: &mut Outcome, v: &LayerValues) {
    for (name, unit) in names() {
        let value = v.get(&name);
        outcome.push(name, value, unit);
    }
}
