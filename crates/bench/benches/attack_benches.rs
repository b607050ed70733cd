//! Criterion benches for attack building blocks: eviction-set discovery,
//! alignment, covert probing and memorygram sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::{
    classify_pages, discover_conflicts, transmit, BoundaryPolicy, ChannelParams, Locality,
    Pipeline, ScanConfig, Thresholds,
};
use gpubox_bench::AttackSetup;
use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig, VirtAddr};

fn bench_discovery(c: &mut Criterion) {
    c.bench_function("discover_conflicts_64_pages", |b| {
        b.iter(|| {
            let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
            let pid = sys.create_process(GpuId::new(0));
            let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
            let buf = ctx.malloc_on(GpuId::new(0), 64 * 4096).unwrap();
            let candidates: Vec<VirtAddr> = (1..64u64).map(|p| buf.offset(p * 4096)).collect();
            discover_conflicts(
                &mut ctx,
                buf,
                &candidates,
                &Thresholds::paper_defaults(),
                Locality::Local,
                &ScanConfig::default(),
            )
            .unwrap()
        })
    });

    c.bench_function("classify_pages_small", |b| {
        b.iter(|| {
            let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
            let pid = sys.create_process(GpuId::new(0));
            let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
            let buf = ctx.malloc_on(GpuId::new(0), 96 * 4096).unwrap();
            classify_pages(
                &mut ctx,
                buf,
                96 * 4096,
                4096,
                128,
                16,
                &Thresholds::paper_defaults(),
                Locality::Local,
                &ScanConfig::classify_default(),
            )
            .unwrap()
        })
    });
}

fn bench_covert(c: &mut Criterion) {
    let mut setup = AttackSetup::prepare(2);
    let pairs = setup.aligned_pairs(4);
    let payload = bits_from_bytes(b"criterion covert payload");
    let medium = setup.medium(&pairs);
    let params = ChannelParams::default();
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);
    c.bench_function("covert_transmit_24B_4sets", |b| {
        b.iter(|| transmit(&mut setup.sys, &medium, &payload, &params, &vote).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_discovery, bench_covert
}
criterion_main!(benches);
