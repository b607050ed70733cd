//! Op-stream goldens: an FNV-1a digest and length of every workload's
//! op stream, at default size, for data and system seeds 1 and 7. They
//! were pinned from the word-by-word traces the workloads used to
//! materialise, so a lazy generator that drifts by one op, address or
//! stored value fails here.

use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig};
use gpubox_workloads::{
    BlackScholes, Histogram, MatMul, MlpConfig, MlpTraining, QuasiRandom, Trace, TraceOp,
    VectorAdd, WalshTransform, Workload,
};

/// (ops, FNV-1a digest) of one pass over a trace.
fn digest(ops: impl Iterator<Item = TraceOp>) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut n = 0;
    for op in ops {
        n += 1;
        match op {
            TraceOp::Load(va) => {
                eat(0);
                eat(va.raw());
            }
            TraceOp::Store(va, v) => {
                eat(1);
                eat(va.raw());
                eat(v);
            }
            TraceOp::Compute(c) => {
                eat(2);
                eat(c);
            }
        }
    }
    (n, h)
}

/// The six Fig. 12 victims, the default MLP, and a two-epoch MLP whose
/// epoch gap merges with the last batch's compute.
fn workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(BlackScholes::default().with_seed(seed)),
        Box::new(Histogram::default().with_seed(seed)),
        Box::new(MatMul::default().with_seed(seed)),
        Box::new(QuasiRandom::default()),
        Box::new(VectorAdd::default().with_seed(seed)),
        Box::new(WalshTransform::default().with_seed(seed)),
        Box::new(MlpTraining::new(MlpConfig {
            seed,
            ..Default::default()
        })),
        Box::new(MlpTraining::new(MlpConfig {
            seed,
            hidden: 64,
            epochs: 2,
            ..Default::default()
        })),
    ]
}

fn build(w: &dyn Workload, seed: u64) -> Trace {
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().with_seed(seed));
    let pid = sys.create_process(GpuId::new(0));
    let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
    w.build(&mut ctx).expect("trace build")
}

#[test]
fn op_streams_match_the_materialised_traces() {
    const GOLDEN: [(u64, [(usize, u64); 8]); 2] = [
        (
            1,
            [
                (122_880, 0x04ce_8b81_c97e_f7b8),
                (163_840, 0xfdb7_2032_8ae4_ccc5),
                (34_600, 0xb500_3ab8_9c27_ee13),
                (700_416, 0xe51c_5c7a_73d7_e6e3),
                (196_608, 0x4db6_a817_7544_778f),
                (150_272, 0x0a8e_c2a0_76c3_71a6),
                (55_140, 0x0024_8290_f027_9045),
                (61_320, 0x22aa_d775_d1e2_b95d),
            ],
        ),
        (
            7,
            [
                (122_880, 0xad64_fb98_56cc_fc64),
                (163_840, 0x7c4d_9092_5018_3903),
                (34_600, 0x9c0d_fc14_460b_380f),
                (700_416, 0xe51c_5c7a_73d7_e6e3),
                (196_608, 0x59bc_cdb7_e622_e257),
                (150_272, 0x0a26_ae4e_60de_2c06),
                (55_140, 0x0024_8290_f027_9045),
                (61_320, 0x22aa_d775_d1e2_b95d),
            ],
        ),
    ];
    for (seed, golden) in GOLDEN {
        for (w, want) in workloads(seed).iter().zip(golden) {
            let got = digest(build(w.as_ref(), seed).ops());
            assert_eq!(
                got,
                want,
                "{} at seed {seed}: (ops, digest) {got:#x?}",
                w.name()
            );
        }
    }
}

#[test]
fn every_pass_over_a_trace_replays_the_same_ops() {
    for w in workloads(3) {
        let trace = build(w.as_ref(), 3);
        let first = digest(trace.ops());
        assert_eq!(
            digest(trace.ops()),
            first,
            "{}: second pass differs",
            w.name()
        );
    }
}
