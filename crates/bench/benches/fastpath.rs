//! Criterion benchmark for the execution tiers: the block-compiled fast
//! tier ([`ExecMode::Fast`]) against the cycle-accurate pipeline on the
//! Fig. 7 kernel set. Every run still validates its output against the
//! CPU reference, so the speedup is measured on proven-correct results.
//!
//! After the criterion groups it prints a wall-clock `instr/s` table —
//! the numbers committed as `BENCH_fastpath.json`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use scratch_kernels::{conv2d::Conv2d, matmul::MatrixMul, vec_ops::MatrixAdd, Benchmark};
use scratch_system::{ExecMode, SystemConfig, SystemKind};

fn workloads() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(MatrixAdd::new(128, false)),
        Box::new(MatrixMul::new(64, false)),
        Box::new(Conv2d::new(32, 5, false)),
    ]
}

fn config(exec: ExecMode) -> SystemConfig {
    SystemConfig::preset(SystemKind::DcdPm).with_exec(exec)
}

const PRESETS: [SystemKind; 3] = [SystemKind::Original, SystemKind::Dcd, SystemKind::DcdPm];

fn fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    for bench in workloads() {
        let name = bench.name().replace(' ', "_").to_lowercase();
        for (tier, exec) in [("cycle", ExecMode::Cycle), ("fast", ExecMode::Fast)] {
            group.bench_function(format!("{tier}/{name}"), |b| {
                b.iter(|| bench.run(config(exec)).expect("validated run"));
            });
        }
    }
    group.finish();

    // Wall-clock instr/s table per preset (the BENCH_fastpath.json and
    // EXPERIMENTS.md source): the median of a few warm runs per tier per
    // cell, which keeps `--test` mode quick while one slow run cannot set
    // a cell.
    println!("\npreset, workload, cycle_instr_per_s, fast_instr_per_s, speedup");
    for kind in PRESETS {
        for bench in workloads() {
            let measure = |exec: ExecMode| {
                let config = SystemConfig::preset(kind).with_exec(exec);
                bench.run(config.clone()).expect("warmup");
                let mut rates: Vec<f64> = (0..5)
                    .map(|_| {
                        let start = Instant::now();
                        let report = bench.run(config.clone()).expect("validated run");
                        report.stats.instructions as f64 / start.elapsed().as_secs_f64()
                    })
                    .collect();
                rates.sort_by(f64::total_cmp);
                rates[rates.len() / 2]
            };
            let cycle = measure(ExecMode::Cycle);
            let fast = measure(ExecMode::Fast);
            println!(
                "{kind:?}, {}, {:.0}, {:.0}, {:.2}x",
                bench.name(),
                cycle,
                fast,
                fast / cycle
            );
        }
    }
}

criterion_group!(benches, fastpath);
criterion_main!(benches);
