//! Counting-allocator proof that the unified covert pipeline's
//! steady-state engine loop is allocation-free on **both media**.
//!
//! The media are staged exactly as `transmit` stages them (through
//! `Transmission::prepare` / `install`), the engine runs a
//! warm-up window (first batches size the engine scratch buffers, the
//! spy traces get their capacity reserved), the global allocation
//! counter is snapshotted, and a long steady-state window must not move
//! it — for the L2 Prime+Probe medium and the link-congestion medium.
//!
//! Trace capacity is pre-reserved from a deterministic rehearsal run
//! (same seed ⇒ same sample count): `SpyTrace` growth is the one
//! amortised allocation the production loop keeps, and reserving makes
//! the loop *strictly* allocation-free, which is what this test pins
//! down.
//!
//! The counter is **thread-local** (like `gpubox-sim`'s `alloc_free`):
//! the libtest main thread allocates concurrently for its own
//! bookkeeping, so a process-global counter would flake.

use gpubox_attacks::covert::{ChannelMedium, L2SetMedium, LinkCongestionMedium, SpyTrace};
use gpubox_attacks::{
    align_classes, classify_pages, AlignmentConfig, BoundaryPolicy, ChannelParams, LinkChannel,
    Locality, Pipeline, ScanConfig, SetPair, Thresholds, Transmission,
};
use gpubox_sim::{
    Engine, FabricConfig, GpuId, MultiGpuSystem, ProcessCtx, ProcessId, SystemConfig, VirtAddr,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations observed on *this* thread (const-initialised so the
    /// TLS access itself never allocates).
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

fn count_one() {
    // `try_with` so allocations during TLS teardown are ignored rather
    // than panicking.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 80_000;
const STEADY: u64 = 600_000;

fn l2_fixture() -> (MultiGpuSystem, ProcessId, ProcessId, Vec<SetPair>) {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let thr = Thresholds::paper_defaults();
    let trojan = sys.create_process(GpuId::new(0));
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let bytes = 96 * 4096u64;
    let tclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, trojan, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Local, &ScanConfig::classify_default()).unwrap()
    };
    let sclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Remote, &ScanConfig::classify_default()).unwrap()
    };
    let matches = align_classes(
        &mut sys,
        trojan,
        &tclasses,
        spy,
        &sclasses,
        16,
        &AlignmentConfig::default(),
    )
    .unwrap();
    let pairs = paired(&tclasses, &sclasses, &matches);
    (sys, trojan, spy, pairs)
}

fn paired(
    t: &gpubox_attacks::PageClasses,
    s: &gpubox_attacks::PageClasses,
    m: &[gpubox_attacks::ClassMatch],
) -> Vec<SetPair> {
    gpubox_attacks::paired_sets(t, s, m, 2, 16)
        .into_iter()
        .map(|(t, s)| SetPair { trojan: t, spy: s })
        .collect()
}

/// Runs one medium's staged transmission of `payload` for
/// `WARMUP + STEADY` cycles and returns the allocation-counter delta
/// across the steady window.
fn steady_state_allocs(
    medium: &dyn ChannelMedium,
    sys: &mut MultiGpuSystem,
    params: &ChannelParams,
    payload: &[u8],
    reserve: usize,
) -> (u64, Vec<SpyTrace>) {
    let pipeline = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let mut tx = Transmission::prepare(sys, medium, payload, params, &pipeline).unwrap();
    let mut eng = Engine::new(sys);
    assert!(tx.install(&mut eng, 0) > WARMUP + STEADY, "spies listen past the steady window");
    eng.run(WARMUP).unwrap();
    for t in tx.traces() {
        t.reserve(reserve);
    }
    let before = alloc_calls();
    eng.run(WARMUP + STEADY).unwrap();
    let after = alloc_calls();
    (after - before, tx.traces().to_vec())
}

#[test]
fn unified_pipeline_steady_state_allocates_nothing_on_both_media() {
    // A payload long enough that every lane's frame keeps its agents
    // live past the steady window (agents go `Done` when their frame is
    // exhausted).
    let params = ChannelParams::default();
    let payload: Vec<u8> = (0..256).map(|i| u8::from(i % 3 != 0)).collect();

    // --- L2 Prime+Probe medium ------------------------------------
    // Rehearsal sizes the trace reservation; the measured run then
    // must not allocate at all in steady state.
    let mut rehearsal_samples = 0usize;
    for measured in [false, true] {
        let (mut sys, trojan, spy, pairs) = l2_fixture();
        let medium = L2SetMedium {
            trojan,
            spy,
            pairs: &pairs,
            thresholds: Thresholds::paper_defaults(),
        };
        let reserve = if measured { rehearsal_samples * 2 + 64 } else { 0 };
        let (delta, traces) = steady_state_allocs(&medium, &mut sys, &params, &payload, reserve);
        if measured {
            assert_eq!(delta, 0, "L2 medium steady-state loop allocated");
        } else {
            rehearsal_samples = traces.iter().map(SpyTrace::len).max().unwrap_or(0);
            assert!(rehearsal_samples > 0, "rehearsal must record probes");
        }
    }

    // --- Link-congestion medium -----------------------------------
    let mut rehearsal_samples = 0usize;
    for measured in [false, true] {
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(FabricConfig::nvlink_v1());
        let mut sys = MultiGpuSystem::new(cfg);
        let trojan = sys.create_process(GpuId::new(1));
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(trojan, GpuId::new(0)).unwrap();
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let tb = sys.malloc_on(trojan, GpuId::new(0), 32 * 4096).unwrap();
        let sb = sys.malloc_on(spy, GpuId::new(0), 8 * 4096).unwrap();
        let tl: Vec<VirtAddr> = (0..32).map(|i| tb.offset(i * 4096)).collect();
        let sl: Vec<VirtAddr> = (0..8).map(|i| sb.offset(i * 4096)).collect();
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &tl,
                spy_lines: &sl,
                trojan_streams: 3,
            },
        };
        let link_params = ChannelParams {
            spy_gap: 600,
            ..Default::default()
        };
        let reserve = if measured { rehearsal_samples * 2 + 64 } else { 0 };
        let (delta, traces) =
            steady_state_allocs(&medium, &mut sys, &link_params, &payload, reserve);
        if measured {
            assert_eq!(delta, 0, "link medium steady-state loop allocated");
        } else {
            rehearsal_samples = traces.iter().map(SpyTrace::len).max().unwrap_or(0);
            assert!(rehearsal_samples > 0, "rehearsal must record probes");
        }
    }
}
