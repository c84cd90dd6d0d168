//! # scratch-check
//!
//! Differential conformance and fuzzing for the SCRATCH toolchain.
//!
//! The paper validates its bug-fixed MIAOW CU "in the instruction domain"
//! against a reference implementation (§2.3) — a one-time manual
//! campaign. This crate mechanizes that idea and extends it across the
//! whole toolchain:
//!
//! * [`GenKernel`] — a seeded random Southern-Islands kernel generator.
//!   Programs are trees of straight-line ops, bounded loops, scalar
//!   skip-branches and exec-masked regions, always structurally valid,
//!   with loads reading a generated input image and stores confined to a
//!   per-workgroup output page;
//! * [`RefSystem`] — a lockstep reference interpreter: per-lane
//!   architectural state, one instruction at a time, no pipeline, sharing
//!   no execution code with `scratch-cu`;
//! * [`OracleKind`] — six differential oracles: CU vs reference, trimmed
//!   vs untrimmed CU, serial vs multi-worker system,
//!   assembler/disassembler round-trip, uninterrupted vs
//!   checkpoint/restored preemptible dispatch, and cycle pipeline vs the
//!   block-compiled fast execution tier;
//! * [`minimize`](fn@minimize) — tree-based shrinking of any divergence to a small
//!   self-contained repro ([`Divergence`]).
//!
//! # Examples
//!
//! ```
//! use scratch_check::{fuzz, FuzzConfig, OracleKind};
//!
//! let report = fuzz(&FuzzConfig {
//!     seed: 42,
//!     cases: 4,
//!     oracles: vec![OracleKind::Roundtrip],
//!     ..FuzzConfig::default()
//! });
//! assert_eq!(report.cases, 4);
//! assert!(report.divergences.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod interp;
pub mod minimize;
pub mod oracle;
pub mod report;

pub use gen::{minimal_instruction, GenKernel, Item};
pub use interp::{InjectedBug, RefError, RefSystem};
pub use minimize::minimize;
pub use oracle::{check, check_with_bug, OracleKind, Outcome};
pub use report::Divergence;

/// Configuration for a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; case `i` uses seed `base + i`.
    pub seed: u64,
    /// Number of kernels to generate and check.
    pub cases: u64,
    /// Oracles to run on every case.
    pub oracles: Vec<OracleKind>,
    /// Deliberate semantic mutation injected into the reference
    /// interpreter — [`InjectedBug::None`] for real campaigns; anything
    /// else turns the fuzzer on itself to prove it catches bugs.
    pub bug: InjectedBug,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            cases: 100,
            oracles: OracleKind::ALL.to_vec(),
            bug: InjectedBug::None,
        }
    }
}

/// Per-oracle tallies of a fuzzing campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleTally {
    /// Checks this oracle performed (skips excluded).
    pub checks: u64,
    /// Cases this oracle skipped.
    pub skipped: u64,
    /// Divergences this oracle found.
    pub divergences: u64,
}

/// Outcome of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases actually run.
    pub cases: u64,
    /// Oracle checks performed (cases × oracles, minus skips).
    pub checks: u64,
    /// Cases skipped because the kernel did not assemble (generator bug;
    /// should stay zero).
    pub skipped: u64,
    /// Minimized reports, one per (case, oracle) divergence.
    pub divergences: Vec<Divergence>,
    /// Per-oracle breakdown, in the campaign's oracle order — a
    /// multi-oracle summary that only aggregated would hide *which*
    /// oracle diverged.
    pub per_oracle: Vec<(OracleKind, OracleTally)>,
}

impl FuzzReport {
    /// One-line human summary. Multi-oracle campaigns append a
    /// per-oracle `name checks/divergences` breakdown so a divergence is
    /// attributable at a glance.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} cases, {} checks, {} skipped, {} divergences",
            self.cases,
            self.checks,
            self.skipped,
            self.divergences.len()
        );
        if self.per_oracle.len() > 1 {
            let parts: Vec<String> = self
                .per_oracle
                .iter()
                .map(|(o, t)| format!("{o} {}/{}", t.checks, t.divergences))
                .collect();
            line.push_str(&format!(" [{}]", parts.join(", ")));
        }
        line
    }
}

/// Run a fuzzing campaign: generate `cases` kernels, run every oracle on
/// each, and minimize whatever diverges.
#[must_use]
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let registry = scratch_metrics::global();
    let m_cases = registry.counter("scratch_check_cases_total", "Fuzz cases generated");
    let m_checks = registry.counter(
        "scratch_check_oracle_checks_total",
        "Oracle checks performed",
    );
    let m_skipped = registry.counter(
        "scratch_check_skipped_total",
        "Fuzz cases skipped (kernel did not assemble)",
    );
    let m_divergences = registry.counter(
        "scratch_check_divergences_total",
        "Divergences found between the simulator and an oracle",
    );
    let mut report = FuzzReport {
        cases: 0,
        checks: 0,
        skipped: 0,
        divergences: Vec::new(),
        per_oracle: config
            .oracles
            .iter()
            .map(|&o| (o, OracleTally::default()))
            .collect(),
    };
    for i in 0..config.cases {
        let gk = GenKernel::generate(config.seed.wrapping_add(i));
        report.cases += 1;
        m_cases.inc();
        for (oi, &oracle) in config.oracles.iter().enumerate() {
            let tally = &mut report.per_oracle[oi].1;
            match check_with_bug(oracle, &gk, config.bug) {
                Outcome::Agree => {
                    report.checks += 1;
                    tally.checks += 1;
                    m_checks.inc();
                }
                Outcome::Skip(_) => {
                    report.skipped += 1;
                    tally.skipped += 1;
                    m_skipped.inc();
                }
                Outcome::Diverge(detail) => {
                    report.checks += 1;
                    tally.checks += 1;
                    tally.divergences += 1;
                    m_checks.inc();
                    m_divergences.inc();
                    let minimized = minimize(&gk, oracle, config.bug);
                    report
                        .divergences
                        .push(Divergence::new(&gk, &minimized, oracle, detail));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_breaks_out_multi_oracle_campaigns() {
        let report = FuzzReport {
            cases: 2,
            checks: 3,
            skipped: 1,
            divergences: Vec::new(),
            per_oracle: vec![
                (
                    OracleKind::Reference,
                    OracleTally {
                        checks: 2,
                        skipped: 0,
                        divergences: 0,
                    },
                ),
                (
                    OracleKind::Fastpath,
                    OracleTally {
                        checks: 1,
                        skipped: 1,
                        divergences: 0,
                    },
                ),
            ],
        };
        assert_eq!(
            report.summary(),
            "2 cases, 3 checks, 1 skipped, 0 divergences [reference 2/0, fastpath 1/0]"
        );
    }

    #[test]
    fn summary_stays_aggregate_for_single_oracle_campaigns() {
        let report = FuzzReport {
            cases: 1,
            checks: 1,
            skipped: 0,
            divergences: Vec::new(),
            per_oracle: vec![(
                OracleKind::Roundtrip,
                OracleTally {
                    checks: 1,
                    ..OracleTally::default()
                },
            )],
        };
        assert_eq!(
            report.summary(),
            "1 cases, 1 checks, 0 skipped, 0 divergences"
        );
    }

    #[test]
    fn fuzz_tallies_per_oracle() {
        let report = fuzz(&FuzzConfig {
            seed: 7,
            cases: 3,
            oracles: vec![OracleKind::Roundtrip, OracleKind::Fastpath],
            ..FuzzConfig::default()
        });
        assert_eq!(report.per_oracle.len(), 2);
        let total: u64 = report
            .per_oracle
            .iter()
            .map(|(_, t)| t.checks + t.skipped)
            .sum();
        assert_eq!(total, report.checks + report.skipped);
        assert!(report.divergences.is_empty(), "{}", report.summary());
    }
}
