//! Hostile checkpoint bytes: a genuine mid-dispatch checkpoint, mutated
//! or truncated, goes through `scratch_snap::from_bytes` and then
//! `System::restore` — the path WAL recovery feeds with bytes read back
//! from disk. Each stage answers a typed error or a value, never a panic.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scratch_asm::{Kernel, KernelBuilder};
use scratch_isa::{Opcode, Operand, SmrdOffset};
use scratch_metrics::Registry;
use scratch_system::{abi, DispatchProgress, System, SystemCheckpoint, SystemConfig, SystemKind};

const WG_SIZE: u32 = 64;
const WGS: u32 = 8;

/// `out[gid] = in[gid] + 1`: loads, stores and waits, so a checkpoint
/// taken mid-dispatch holds waves in flight, written memory pages and
/// suspended epoch views.
fn add_one_kernel() -> Kernel {
    let mut b = KernelBuilder::new("hostile_checkpoints");
    b.vgprs(8).sgprs(32).workgroup_size(WG_SIZE);
    b.smrd(
        Opcode::SBufferLoadDwordx2,
        Operand::Sgpr(20),
        abi::CONST_BUF1,
        SmrdOffset::Imm(0),
    )
    .unwrap();
    b.waitcnt(None, Some(0)).unwrap();
    b.sop2(
        Opcode::SMulI32,
        Operand::Sgpr(0),
        Operand::Sgpr(abi::WG_ID_X),
        Operand::Literal(WG_SIZE),
    )
    .unwrap();
    b.vop2(Opcode::VAddI32, 1, Operand::Sgpr(0), abi::TID_X)
        .unwrap();
    b.vop2(Opcode::VLshlrevB32, 1, Operand::IntConst(2), 1)
        .unwrap();
    b.mubuf(
        Opcode::BufferLoadDword,
        2,
        1,
        abi::UAV_DESC,
        Operand::Sgpr(20),
        0,
    )
    .unwrap();
    b.waitcnt(Some(0), None).unwrap();
    b.vop2(Opcode::VAddI32, 2, Operand::IntConst(1), 2).unwrap();
    b.mubuf(
        Opcode::BufferStoreDword,
        2,
        1,
        abi::UAV_DESC,
        Operand::Sgpr(21),
        0,
    )
    .unwrap();
    b.waitcnt(Some(0), None).unwrap();
    b.endpgm().unwrap();
    b.finish().unwrap()
}

/// The encoded checkpoint of a dispatch paused halfway through.
fn genuine() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let kernel = add_one_kernel();
        let system = || {
            let config = SystemConfig::preset(SystemKind::DcdPm).with_registry(Registry::new());
            let mut sys = System::new(config, &kernel).expect("system");
            let n = WGS * WG_SIZE;
            let inp = sys.alloc_words(&(0..n).collect::<Vec<u32>>());
            let out = sys.alloc(u64::from(n) * 4);
            sys.set_args(&[inp as u32, out as u32]);
            sys
        };
        let cycles = system().dispatch([WGS, 1, 1]).expect("dispatch");
        let mut sys = system();
        let progress = sys
            .dispatch_preemptible([WGS, 1, 1], cycles / 2)
            .expect("dispatch");
        assert_eq!(progress, DispatchProgress::Paused, "half a run pauses");
        scratch_snap::to_bytes(&sys.checkpoint().expect("paused"))
    })
}

/// Decode and restore `bytes`; `true` when both stages succeeded. Any
/// panic fails the calling test.
fn decode_and_restore(bytes: &[u8]) -> bool {
    match scratch_snap::from_bytes::<SystemCheckpoint>(bytes) {
        Ok(ck) => System::restore(&ck, Some(Registry::new())).is_ok(),
        Err(_) => false,
    }
}

#[test]
fn the_genuine_checkpoint_restores() {
    assert!(decode_and_restore(genuine()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_checkpoints_fail_typed_or_restore(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut bytes = genuine().to_vec();
        // Half the cases aim at the first 4 KiB, where the configuration,
        // kernels and CU state sit ahead of the bulk of page bytes.
        let span = if rng.gen_range(0..2u32) == 0 { bytes.len().min(4096) } else { bytes.len() };
        for _ in 0..rng.gen_range(1..9u32) {
            let at = rng.gen_range(0..span);
            bytes[at] = rng.gen_range(0..256u32) as u8;
        }
        decode_and_restore(&bytes);
    }

    #[test]
    fn truncated_checkpoints_fail_typed(per_mille in 0usize..1000) {
        let bytes = genuine();
        let cut = bytes.len() * per_mille / 1000;
        prop_assert!(
            scratch_snap::from_bytes::<SystemCheckpoint>(&bytes[..cut]).is_err(),
            "a checkpoint cut at {} of {} bytes decoded",
            cut,
            bytes.len()
        );
    }
}
