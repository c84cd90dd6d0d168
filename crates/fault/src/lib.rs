//! `scratch-fault` — seeded fault injection, supervision and recovery
//! for the SCRATCH simulators.
//!
//! SCRATCH (MICRO 2017) argues that a trimmed soft-GPGPU is deployable
//! on FPGA fabric; deployability includes surviving the faults such
//! fabric suffers (configuration-memory and BRAM upsets, transient
//! datapath errors). This crate closes that loop in the reproduction:
//!
//! * **Planning** ([`FaultPlan`]): a seeded, serde round-trippable
//!   schedule of bit-flips (SGPR / VGPR / LDS / global memory),
//!   instruction-word corruption and transient functional-unit errors.
//!   Faults trigger on per-CU *issue indices*, not cycles, so a plan
//!   replays bit-identically on any scheduler.
//! * **Injection** ([`CaseContext::inject`]): executes one planned fault
//!   through the hooks in `scratch-cu`'s pipeline and `scratch-system`'s
//!   memory server, under a cycle-budget watchdog (a corrupted loop
//!   counter must hang the watchdog, not the host).
//! * **Detection**: simulator hard faults, the watchdog, output-CRC
//!   comparison against the `scratch-check` reference interpreter
//!   ([`Mode::Crc`]), or dual-modular redundancy ([`Mode::Dmr`]).
//! * **Recovery**: graceful degradation (a trim-violation fault
//!   re-dispatches on the untrimmed CU preset) and bounded clean
//!   re-dispatch for transients.
//! * **Accounting** ([`run_campaign`]): every fault ends classified
//!   masked / detected / recovered / silent; campaign counters publish
//!   to `scratch-metrics` and detection events to `scratch-trace`.
//!
//! The contract the campaign driver proves: **in a detecting mode, no
//! injected fault produces silently wrong output.**

mod campaign;
mod cross;
mod error;
mod inject;
mod plan;

pub use campaign::{
    build_contexts, run_campaign, run_plan, CampaignConfig, CampaignReport, CampaignRow, CellStats,
};
pub use cross::{cross_validate, CrossReport};
pub use error::FaultError;
pub use inject::{CaseContext, Classification, InjectionOutcome, Mode};
pub use plan::{FaultClass, FaultPayload, FaultPlan, KernelProfile, PlannedFault};

// Re-export the hook-level types so campaign consumers need only this
// crate.
pub use scratch_system::{CuFault, CuUpset, FaultRecord, FaultSpec, FaultTarget, MemUpset};

/// CRC-32 (IEEE 802.3, reflected) over a word slice's little-endian
/// bytes — the output signature detectors compare; the log's
/// [`scratch_wal::crc32_bytes`] does the work.
#[must_use]
pub fn crc32(words: &[u32]) -> u32 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    scratch_wal::crc32_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn crc32_matches_known_vectors() {
        // "123456789" as little-endian words (9 bytes doesn't pack, so
        // use the 8-byte prefix "12345678" = two words) — check value
        // computed with the standard IEEE polynomial.
        assert_eq!(crc32(&[]), 0);
        let val = crc32(&[u32::from_le_bytes(*b"1234"), u32::from_le_bytes(*b"5678")]);
        assert_eq!(val, 0x9ae0daaf);
    }

    #[test]
    fn crc32_is_order_sensitive() {
        assert_ne!(crc32(&[1, 2]), crc32(&[2, 1]));
        assert_ne!(crc32(&[0]), crc32(&[0, 0]));
    }
}
