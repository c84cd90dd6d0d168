//! Sample statistics and the result record every workload returns.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every operation that did not fail passed its output checks.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (rejection, failed `Done`, mismatch or
    /// validation error; each operation counts once).
    pub failed: u64,
    /// Reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below forty samples, where such a
/// percentile would be no tail.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 40 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// One human-readable line: median, tail and sample count of a latency.
pub fn latency_line(name: &str, unit: &str, xs: &[f64]) -> String {
    let med = median(xs);
    match tail(xs) {
        Some((p, v)) => format!(
            "{name}: p50 {med:.1} {unit}, p{p:.1} {v:.1} {unit}, {} samples",
            xs.len()
        ),
        None => format!("{name}: p50 {med:.1} {unit}, {} samples", xs.len()),
    }
}

/// Deterministic splitmix64 stream: the benchmark's only source of
/// seeded choices.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("100 samples have a tail");
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert!(tail(&xs[..39]).is_none());
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..32).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        assert_eq!(c, (0..32).collect::<Vec<_>>());
    }
}
