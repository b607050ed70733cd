//! Quickstart: boot a DGX-1, reverse engineer its timing, and watch one
//! GPU evict another GPU's cache lines — the primitive behind every
//! attack in the paper.
//!
//! Run with: `cargo run --release --example quickstart`

use gpubox_attacks::timing_re::measure_timing;
use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig};

fn main() -> Result<(), gpubox_sim::SimError> {
    // 1. Boot the paper's machine: 8 Tesla P100s on an NVLink cube-mesh.
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
    println!(
        "booted a DGX-1: {} GPUs, {} KiB L2 x {} sets x {} ways",
        sys.config().num_gpus,
        sys.config().cache.size_bytes / 1024,
        sys.config().cache.num_sets(),
        sys.config().cache.ways
    );

    // 2. One-time reverse engineering: the four timing clusters of Fig. 4.
    let timing = measure_timing(&mut sys, GpuId::new(0), GpuId::new(1), 48)?;
    println!("\ntiming clusters: {:.0?} cycles", timing.centers);
    println!(
        "thresholds: local miss >= {}, remote miss >= {}",
        timing.thresholds.local_miss, timing.thresholds.remote_miss
    );

    // 3. The cross-GPU contention primitive. A victim on GPU0 caches a
    //    line; a spy on GPU1 allocates on GPU0 and hammers lines until the
    //    victim's line falls out — observable purely through timing.
    let victim = sys.create_process(GpuId::new(0));
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0))?;

    let vbuf = sys.malloc_on(victim, GpuId::new(0), 64 * 1024)?;
    let sbuf = sys.malloc_on(spy, GpuId::new(0), 16 * 1024 * 1024)?;

    // Victim warms its line.
    let mut vctx = ProcessCtx::new(&mut sys, victim, 0);
    vctx.ldcg(vbuf)?;
    let (_, warm) = vctx.ldcg(vbuf)?;
    println!("\nvictim re-access while cached:   {warm} cycles (local L2 hit)");

    // Spy sweeps its big buffer on GPU0, evicting broadly.
    let mut sctx = ProcessCtx::new(&mut sys, spy, 0);
    for line in 0..(16 * 1024 * 1024 / 128) {
        sctx.ldcg(sbuf.offset(line * 128))?;
    }

    // Victim's line is gone — and the victim can tell, as can the spy.
    let mut vctx = ProcessCtx::new(&mut sys, victim, 0);
    let (_, after) = vctx.ldcg(vbuf)?;
    println!("victim re-access after spy sweep: {after} cycles (local miss — evicted remotely!)");
    assert!(timing.thresholds.is_local_miss(after));
    println!("\nthe spy on GPU1 just evicted a line of GPU0's L2 from user space.");
    Ok(())
}
