//! Cycle-exactness tripwire for the cycle tier.
//!
//! The values below were recorded from the scheduler as it stood before
//! its issue bookkeeping was rewritten around per-PC issue descriptors.
//! Any change that moves one of them changes the modelled design (or its
//! stall attribution, or the checkpoint format), not just the simulator's
//! speed: such a change must say so, not re-pin these numbers.

use scratch::check::GenKernel;
use scratch::core::{configure, trim_kernels};
use scratch::fpga::ParallelPlan;
use scratch::kernels::paper_benchmarks;
use scratch::system::{DispatchProgress, RunReport, System, SystemConfig, SystemKind};

/// One line per application: name, CU cycles, instructions, stall cycles
/// per reason, busy cycles per unit and the opcode histogram.
const PINNED_APPS: &[&str] = &[
    "Matrix Add (INT32)|cycles=3489|instr=3328|stall=ScoreboardRaw:2225,StructuralFu:103594,WaitcntVm:4558,WaitcntLgkm:343,FetchStarve:768,WavepoolEmpty:19200|busy=Salu:256,Simd:3072,Lsu:1280,Branch:1024|hist=s_mul_i32:256,s_endpgm:256,s_waitcnt:768,s_buffer_load_dword:256,s_buffer_load_dwordx2:256,v_lshlrev_b32:256,v_add_i32:512,buffer_load_dword:512,buffer_store_dword:256",
    "Matrix Add (SP FP)|cycles=2750|instr=3328|stall=ScoreboardRaw:2980,StructuralFu:55111,WaitcntVm:4558,WaitcntLgkm:343,FetchStarve:768,WavepoolEmpty:38400|busy=Salu:256,Simd:2048,Simf:2048,Lsu:1280,Branch:1024|hist=s_mul_i32:256,s_endpgm:256,s_waitcnt:768,s_buffer_load_dword:256,s_buffer_load_dwordx2:256,v_add_f32:256,v_lshlrev_b32:256,v_add_i32:256,buffer_load_dword:512,buffer_store_dword:256",
    "Matrix Multiplication (INT32)|cycles=50482|instr=42112|stall=ScoreboardRaw:20864,StructuralFu:1580170,WaitcntVm:36192,WaitcntLgkm:98,FetchStarve:24384,WavepoolEmpty:12436|busy=Salu:12800,Simd:50432,Lsu:8320,Branch:8384|hist=s_add_u32:4160,s_sub_i32:4096,s_lshl_b32:128,s_mul_i32:192,s_mov_b32:128,s_cmp_lg_i32:4096,s_endpgm:64,s_cbranch_scc1:4096,s_waitcnt:4224,s_load_dword:4096,s_buffer_load_dwordx4:64,v_lshlrev_b32:128,v_add_i32:8320,v_mov_b32:64,v_mul_lo_i32:4096,buffer_load_dword:4096,buffer_store_dword:64",
    "Matrix Multiplication (SP FP)|cycles=37302|instr=38016|stall=ScoreboardRaw:377,StructuralFu:1159996,WaitcntVm:34806,WaitcntLgkm:98,FetchStarve:20288,WavepoolEmpty:14563|busy=Salu:12800,Simd:17664,Simf:36864,Lsu:8320,Branch:8384|hist=s_add_u32:4160,s_sub_i32:4096,s_lshl_b32:128,s_mul_i32:192,s_mov_b32:128,s_cmp_lg_i32:4096,s_endpgm:64,s_cbranch_scc1:4096,s_waitcnt:4224,s_load_dword:4096,s_buffer_load_dwordx4:64,v_lshlrev_b32:128,v_mac_f32:4096,v_add_i32:4224,v_mov_b32:64,buffer_load_dword:4096,buffer_store_dword:64",
    "2D Conv (INT32)|cycles=21872|instr=20224|stall=ScoreboardRaw:8744,StructuralFu:681072,WaitcntVm:14774,WaitcntLgkm:98,FetchStarve:9408,WavepoolEmpty:9232|busy=Salu:7680,Simd:21760,Lsu:3392,Branch:3712|hist=s_add_u32:2304,s_sub_u32:64,s_sub_i32:1920,s_lshl_b32:320,s_mul_i32:448,s_mov_b32:576,s_mov_b64:64,s_and_saveexec_b64:64,s_cmp_lg_i32:1920,s_endpgm:64,s_cbranch_scc1:1920,s_waitcnt:1728,s_load_dword:1600,s_buffer_load_dword:64,s_buffer_load_dwordx4:64,v_lshlrev_b32:384,v_add_i32:3328,v_mov_b32:64,v_cmp_gt_u32:64,v_mul_lo_i32:1600,buffer_load_dword:1600,buffer_store_dword:64",
    "2D Conv (SP FP)|cycles=15491|instr=18624|stall=ScoreboardRaw:730,StructuralFu:466650,WaitcntVm:14194,WaitcntLgkm:98,FetchStarve:7808,WavepoolEmpty:18016|busy=Salu:7680,Simd:8960,Simf:14400,Lsu:3392,Branch:3712|hist=s_add_u32:2304,s_sub_u32:64,s_sub_i32:1920,s_lshl_b32:320,s_mul_i32:448,s_mov_b32:576,s_mov_b64:64,s_and_saveexec_b64:64,s_cmp_lg_i32:1920,s_endpgm:64,s_cbranch_scc1:1920,s_waitcnt:1728,s_load_dword:1600,s_buffer_load_dword:64,s_buffer_load_dwordx4:64,v_lshlrev_b32:384,v_mac_f32:1600,v_add_i32:1728,v_mov_b32:64,v_cmp_gt_u32:64,buffer_load_dword:1600,buffer_store_dword:64",
    "Bitonic Sort (INT32)|cycles=40743|instr=21120|stall=ScoreboardRaw:14905,StructuralFu:485444,WaitcntVm:11520,WaitcntLgkm:2695,FetchStarve:3520,WavepoolEmpty:112684|busy=Salu:2640,Simd:38720,Lsu:5280,Branch:3520|hist=s_mul_i32:880,s_mov_b64:880,s_and_saveexec_b64:880,s_endpgm:880,s_waitcnt:2640,s_buffer_load_dword:880,s_buffer_load_dwordx2:880,v_cndmask_b32:1760,v_min_u32:880,v_max_u32:880,v_lshlrev_b32:1760,v_and_b32:880,v_xor_b32:880,v_add_i32:880,v_cmp_eq_u32:880,v_cmp_gt_u32:880,buffer_load_dword:1760,buffer_store_dword:1760",
    "Matrix Transpose (INT32)|cycles=6624|instr=4096|stall=ScoreboardRaw:3315,StructuralFu:147833,WaitcntVm:4571,WaitcntLgkm:343,FetchStarve:768,WavepoolEmpty:93666|busy=Salu:512,Simd:6144,Lsu:1024,Branch:1024|hist=s_mul_i32:512,s_endpgm:256,s_waitcnt:768,s_buffer_load_dword:256,s_buffer_load_dwordx2:256,v_lshlrev_b32:512,v_add_i32:768,v_mul_lo_u32:256,buffer_load_dword:256,buffer_store_dword:256",
    "Max Pooling (INT32)|cycles=1904|instr=1792|stall=ScoreboardRaw:960,StructuralFu:44439,WaitcntVm:1151,WaitcntLgkm:98,FetchStarve:384,WavepoolEmpty:15816|busy=Salu:640,Simd:1792,Lsu:448,Branch:256|hist=s_add_u32:192,s_lshl_b32:128,s_mul_i32:192,s_mov_b64:64,s_and_saveexec_b64:64,s_endpgm:64,s_waitcnt:192,s_buffer_load_dword:64,s_buffer_load_dwordx2:64,v_max_i32:64,v_lshlrev_b32:128,v_add_i32:128,v_cmp_gt_u32:64,v_max3_i32:64,buffer_load_dword:256,buffer_store_dword:64",
    "Median Pooling (INT32)|cycles=3952|instr=2304|stall=ScoreboardRaw:1857,StructuralFu:107429,WaitcntVm:1152,WaitcntLgkm:98,FetchStarve:448,WavepoolEmpty:20984|busy=Salu:640,Simd:3840,Lsu:448,Branch:256|hist=s_add_u32:192,s_lshl_b32:128,s_mul_i32:192,s_mov_b64:64,s_and_saveexec_b64:64,s_endpgm:64,s_waitcnt:192,s_buffer_load_dword:64,s_buffer_load_dwordx2:64,v_min_u32:64,v_max_u32:64,v_lshrrev_b32:64,v_lshlrev_b32:128,v_add_i32:320,v_sub_i32:128,v_cmp_gt_u32:64,v_min3_u32:64,v_max3_u32:64,buffer_load_dword:256,buffer_store_dword:64",
    "Average Pooling (INT32)|cycles=2416|instr=1920|stall=ScoreboardRaw:1408,StructuralFu:56830,WaitcntVm:1152,WaitcntLgkm:98,FetchStarve:320,WavepoolEmpty:20320|busy=Salu:640,Simd:2304,Lsu:448,Branch:256|hist=s_add_u32:192,s_lshl_b32:128,s_mul_i32:192,s_mov_b64:64,s_and_saveexec_b64:64,s_endpgm:64,s_waitcnt:192,s_buffer_load_dword:64,s_buffer_load_dwordx2:64,v_lshrrev_b32:64,v_lshlrev_b32:128,v_add_i32:320,v_cmp_gt_u32:64,buffer_load_dword:256,buffer_store_dword:64",
    "K-Means (SP FP, k=5)|cycles=7228|instr=2976|stall=ScoreboardRaw:3868,StructuralFu:44416,WaitcntVm:576,WaitcntLgkm:1316,FetchStarve:640,WavepoolEmpty:4032|busy=Salu:800,Simd:2432,Simf:6720,Lsu:320,Branch:448|hist=s_add_u32:320,s_sub_i32:160,s_mul_i32:32,s_mov_b32:128,s_cmp_lg_i32:160,s_endpgm:32,s_cbranch_scc1:160,s_waitcnt:256,s_load_dwordx2:160,s_buffer_load_dword:32,s_buffer_load_dwordx4:32,v_cndmask_b32:320,v_subrev_f32:320,v_mul_f32:160,v_lshlrev_b32:32,v_mac_f32:160,v_add_i32:32,v_mov_b32:224,v_cmp_lt_f32:160,buffer_load_dword:64,buffer_store_dword:32",
    "Gaussian Elimination (SP FP)|cycles=20160|instr=19747|stall=ScoreboardRaw:14015,StructuralFu:248986,WaitcntVm:7144,WaitcntLgkm:5352,FetchStarve:3565,WavepoolEmpty:264657|busy=Salu:7781,Simd:12772,Simf:9207,Lsu:3100,Branch:4619|hist=s_add_u32:1085,s_and_b64:527,s_lshl_b32:1519,s_mul_i32:1550,s_mov_b32:527,s_mov_b64:1054,s_and_saveexec_b64:527,s_cmp_le_u32:992,s_endpgm:1023,s_cbranch_scc1:992,s_waitcnt:2604,s_load_dword:527,s_buffer_load_dwordx4:1023,v_sub_f32:496,v_mul_f32:527,v_lshlrev_b32:558,v_add_i32:1550,v_rcp_f32:31,v_cmp_lt_u32:31,v_cmp_le_u32:496,v_cmp_gt_u32:527,v_mul_lo_u32:31,buffer_load_dword:1023,buffer_store_dword:527",
];

/// FNV-1a of `scratch_snap::to_bytes` of every checkpoint the sliced
/// dispatch below takes, in order, then its total cycles.
const PINNED_CHECKPOINTS: &[u64] = &[
    0xd659d3e67a147ca1,
    0x1924f884e70c7bef,
    0x668f4722932bcce4,
    0x56acf30c685d8e3e,
    0x5d956cc51b30a4f5,
    0x7ced36a0b826ed1c,
    0x43304c238343ae22,
    0xaf49c0c16bf53ea3,
];
const PINNED_SLICED_CYCLES: u64 = 891;

/// Generated kernel and quantum of the sliced dispatch.
const CHECKPOINT_SEED: u64 = 1;
const QUANTUM: u64 = 100;

/// The facts of one run, in the pinned line format.
fn render(name: &str, r: &RunReport) -> String {
    let stalls: Vec<String> = r
        .stats
        .stall_cycles
        .iter()
        .map(|(reason, n)| format!("{reason:?}:{n}"))
        .collect();
    let busy: Vec<String> = r
        .stats
        .fu_busy
        .iter()
        .map(|(unit, n)| format!("{unit:?}:{n}"))
        .collect();
    let hist: Vec<String> = r
        .stats
        .histogram
        .iter()
        .map(|(op, n)| format!("{}:{n}", op.mnemonic()))
        .collect();
    format!(
        "{name}|cycles={}|instr={}|stall={}|busy={}|hist={}",
        r.cu_cycles,
        r.instructions(),
        stalls.join(","),
        busy.join(","),
        hist.join(",")
    )
}

/// The 13 paper applications other than CNN and NiN, set up as the
/// repository benchmark's `sim-apps` workload sets them up: trimmed to
/// their own kernels, on DCD+PM with one CU and one VALU of each kind.
#[test]
fn paper_apps_keep_their_cycles_stalls_and_mix() {
    let plan = ParallelPlan {
        cus: 1,
        int_valus: 1,
        fp_valus: 1,
    };
    let mut lines = Vec::new();
    for bench in paper_benchmarks() {
        let name = bench.name();
        if name.starts_with("CNN") || name.starts_with("NiN") {
            continue;
        }
        let kernels = bench.kernels().expect("paper kernels assemble");
        let trim = trim_kernels(&kernels).expect("paper kernels trim");
        let report = bench
            .run(configure(SystemKind::DcdPm, plan, Some(&trim)))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        lines.push(render(&name, &report));
    }
    assert_eq!(lines.len(), 13);
    for (got, want) in lines.iter().zip(PINNED_APPS) {
        assert_eq!(got, want);
    }
    assert_eq!(lines.len(), PINNED_APPS.len(), "{lines:#?}");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A generated kernel sliced at a 100-cycle quantum: every checkpoint's
/// encoded bytes (scoreboard entries, counters, statistics, memory pages)
/// and the total cycle count stay exactly as recorded.
#[test]
fn sliced_dispatch_checkpoints_keep_their_bytes() {
    let gk = GenKernel::generate(CHECKPOINT_SEED);
    let kernel = gk.build().expect("generated kernel assembles");
    let mut sys =
        System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).expect("system builds");
    let out = sys.alloc(gk.out_bytes());
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    let mut digests = Vec::new();
    let mut progress = sys
        .dispatch_preemptible([gk.wgs, 1, 1], QUANTUM)
        .expect("dispatch starts");
    let cycles = loop {
        match progress {
            DispatchProgress::Complete { cycles } => break cycles,
            DispatchProgress::Paused => {
                let ck = sys.checkpoint().expect("paused systems checkpoint");
                digests.push(fnv1a(&scratch_snap::to_bytes(&ck)));
                progress = sys.resume_dispatch(QUANTUM).expect("dispatch resumes");
            }
        }
    };
    assert!(digests.len() >= 3, "only {} pauses", digests.len());
    assert_eq!(
        (digests, cycles),
        (PINNED_CHECKPOINTS.to_vec(), PINNED_SLICED_CYCLES)
    );
}
