//! Criterion microbenches for the simulator's hot paths.
//!
//! Coverage:
//! - the full system access path, local and remote (`local_l2_access`,
//!   `remote_nvlink_access`);
//! - the raw cache layer: flat structure-of-arrays [`L2Cache`] vs. the
//!   original per-set `Vec<Option<u64>>` + boxed `SetPolicy` layout
//!   (`l2_flat_probe_hits`/`l2_flat_chase_evicts` vs. the
//!   `l2_seed_layout_*` baselines, ~2x each);
//! - the 4-agent contended noiseless access path
//!   (`local_l2_access_contended4`) and the 8-agent contended noisy warp
//!   path, which loads the contention-pressure trackers
//!   (`warp_batch_noisy_contended8`);
//! - the side channel's remote sweep: a remote spy's warp batches
//!   interleaved with a local victim's scalar loads on the home GPU, so
//!   its L2 pressure tracker sees two agents
//!   (`remote_sweep_with_local_victim`);
//! - batched probes: the allocating wrapper, the caller-buffer batch path
//!   and an equivalent loop of scalar accesses (`warp_batch_probe_16`,
//!   `warp_batch_into_16`, `warp_loop_scalar_16`);
//! - trial fan-out: serial vs. parallel [`TrialRunner`] over identical
//!   per-trial simulations (`trial_fanout_serial/parallel_8`);
//! - the engine layer: engine-overhead microbench (256 engine-stepped
//!   loads vs. the same loads issued raw: `engine_steps_256_loads` /
//!   `raw_access_256_loads`), the scheduler's per-op dispatch cost with
//!   2, 4 and 8 `Compute`-only agents (`engine_dispatch_{2,4,8}agents`,
//!   4096 ops per iteration) and the end-to-end covert channel
//!   (`covert_transmit_e2e`);
//! - the fabric layer, PR 3's tentpole: before timing, a fabric-off
//!   system must reproduce the golden pre-fabric access-path fingerprint
//!   bit-for-bit ([`PRE_FABRIC_FINGERPRINT`]); then the per-access cost
//!   of the timed link model on 1-hop and 2-hop remote routes
//!   (`remote_nvlink_access_fabric_on`, `remote_2hop_access_fabric_on` /
//!   `_off`);
//! - the telemetry layer: full tracing on the e2e covert channel must be
//!   bit-invisible and within its overhead budget before
//!   `covert_transmit_e2e_traced` is timed (`bench_trace_overhead`);
//! - the monitor layer, PR 10's tentpole: the streaming covert-channel
//!   detector fed per-window stats snapshots must be outcome-invisible
//!   and within its overhead budget on a busy windowed run before
//!   `monitor_windowed_300k` is timed (`bench_monitor_overhead`).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use gpubox_attacks::{
    align_classes, classify_pages, classify_pages_fast, paired_sets, transmit,
    AlignmentConfig, BoundaryPolicy, ChannelParams, ChannelReport, L2SetMedium, Locality,
    Pipeline, ScanConfig, SetPair, Thresholds, TrialRunner,
};
use gpubox_sim::{
    Agent, CacheConfig, Engine, FabricConfig, FleetConfig, FleetRunner, GpuId, L2Cache,
    MultiGpuSystem, Op, OpResult, Pack, PhysAddr, ProbeStage, ProcessCtx, ProcessId,
    SystemConfig, Topology, VirtAddr,
};
use gpubox_sim::cache_reference::ReferenceCache;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The attack's two hot access shapes over a handful of target sets:
///
/// - *probe*: sweep the `ways` resident lines of a set (all hits) — the
///   covert channel / memorygram inner loop;
/// - *chase*: walk `ways + 1` conflicting lines of a set (every access
///   past the warm-up evicts) — the Alg. 1 discovery inner loop.
fn trace(cfg: &CacheConfig, len: usize, chase: bool) -> Vec<PhysAddr> {
    let span = cfg.line_size * cfg.num_sets();
    let depth = u64::from(cfg.ways) + u64::from(chase);
    let sets = 8u64;
    (0..len as u64)
        .map(|i| {
            let set = (i / depth) % sets;
            let k = i % depth;
            PhysAddr(set * cfg.line_size + k * span)
        })
        .collect()
}

fn bench_cache_layer(c: &mut Criterion) {
    let cfg = CacheConfig::p100_l2();
    for (name_flat, name_seed, chase) in [
        ("l2_flat_probe_hits", "l2_seed_layout_probe_hits", false),
        ("l2_flat_chase_evicts", "l2_seed_layout_chase_evicts", true),
    ] {
        let addrs = trace(&cfg, 8192, chase);

        let mut flat = L2Cache::new(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        c.bench_function(name_flat, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let pa = addrs[i & 8191];
                i = i.wrapping_add(1);
                flat.access(pa, &mut rng)
            })
        });

        let mut seed_layout = ReferenceCache::new(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        c.bench_function(name_seed, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let pa = addrs[i & 8191];
                i = i.wrapping_add(1);
                seed_layout.access(pa, &mut rng).is_hit()
            })
        });
    }
}

fn bench_access_path(c: &mut Criterion) {
    // Four agents interleave on one GPU under the noiseless config: the
    // cache lookup, translation and latency model without jitter, and
    // without the contention-pressure trackers (noiseless boxes skip
    // them; `warp_batch_noisy_contended8` below covers them).
    let mut ts = 0u64;
    let mut nsys = MultiGpuSystem::new(SystemConfig::dgx1().noiseless());
    let npid = nsys.create_process(GpuId::new(0));
    let nagents = [
        nsys.default_agent(npid),
        nsys.new_agent(),
        nsys.new_agent(),
        nsys.new_agent(),
    ];
    let nbuf = nsys.malloc_on(npid, GpuId::new(0), 1 << 20).unwrap();
    c.bench_function("local_l2_access_contended4", |b| {
        b.iter(|| {
            ts += 300;
            nsys.access(
                npid,
                nagents[(ts / 300 % 4) as usize],
                nbuf.offset((ts % 8192) * 128 % (1 << 20)),
                ts,
                None,
            )
            .unwrap()
        })
    });

    // The contended covert-channel regime on the default noisy config:
    // eight agents on one GPU each issue 16-line warp batches at the
    // 24-cycle issue gap, a new batch every 250 cycles, so the home
    // GPU's 2,000-cycle pressure window holds ~128 arrivals from all
    // eight agents.
    let mut csys = MultiGpuSystem::new(SystemConfig::dgx1());
    let cpid = csys.create_process(GpuId::new(0));
    let cagents: Vec<_> = std::iter::once(csys.default_agent(cpid))
        .chain((1..8).map(|_| csys.new_agent()))
        .collect();
    let cbuf = csys.malloc_on(cpid, GpuId::new(0), 1 << 20).unwrap();
    let clines: Vec<Vec<VirtAddr>> = (0..8u64)
        .map(|a| {
            (0..16u64)
                .map(|i| cbuf.offset(a * 4096 + i * 128))
                .collect()
        })
        .collect();
    let mut clat: Vec<u32> = Vec::with_capacity(16);
    let mut ct = 0u64;
    c.bench_function("warp_batch_noisy_contended8", |b| {
        b.iter(|| {
            ct += 250;
            let a = (ct / 250 % 8) as usize;
            clat.clear();
            csys.access_batch_into(cpid, cagents[a], &clines[a], ct, &mut clat)
                .unwrap()
        })
    });

    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
    let pid = sys.create_process(GpuId::new(0));
    let agent = sys.default_agent(pid);
    let buf = sys.malloc_on(pid, GpuId::new(0), 1 << 20).unwrap();
    let mut t = 0u64;
    c.bench_function("local_l2_access", |b| {
        b.iter(|| {
            t += 300;
            sys.access(
                pid,
                agent,
                buf.offset((t % 8192) * 128 % (1 << 20)),
                t,
                None,
            )
            .unwrap()
        })
    });

    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let rbuf = sys.malloc_on(spy, GpuId::new(0), 1 << 20).unwrap();
    let sagent = sys.default_agent(spy);
    c.bench_function("remote_nvlink_access", |b| {
        b.iter(|| {
            t += 700;
            sys.access(
                spy,
                sagent,
                rbuf.offset((t % 8192) * 128 % (1 << 20)),
                t,
                None,
            )
            .unwrap()
        })
    });

    let vas: Vec<_> = (0..16u64).map(|i| rbuf.offset(i * 128)).collect();
    c.bench_function("warp_batch_probe_16", |b| {
        b.iter(|| {
            t += 1000;
            sys.access_batch(spy, sagent, &vas, t).unwrap()
        })
    });

    // The true batched path: caller-owned latency buffer, page translated
    // once, no per-access allocation.
    let mut lat_buf: Vec<u32> = Vec::with_capacity(16);
    c.bench_function("warp_batch_into_16", |b| {
        b.iter(|| {
            t += 1000;
            lat_buf.clear();
            sys.access_batch_into(spy, sagent, &vas, t, &mut lat_buf)
                .unwrap()
        })
    });

    // Baseline: the same 16 lines as scalar accesses (what the batch API
    // replaces).
    c.bench_function("warp_loop_scalar_16", |b| {
        b.iter(|| {
            t += 1000;
            let mut hits = 0u32;
            for (i, &va) in vas.iter().enumerate() {
                let acc = sys.access(spy, sagent, va, t + 24 * i as u64, None).unwrap();
                hits += u32::from(acc.oracle.hit);
            }
            hits
        })
    });

    // The side channel's shape on the default noisy config: a spy on GPU1
    // sweeps 16-line remote batches into GPU0 every 1,000 cycles while a
    // local victim on GPU0 issues two scalar loads per interval, the
    // first behind the batch's newest line. GPU0's L2 pressure tracker
    // sees both agents; its NVLink tracker sees the spy's lines.
    let mut vsys = MultiGpuSystem::new(SystemConfig::dgx1());
    let victim = vsys.create_process(GpuId::new(0));
    let vagent = vsys.default_agent(victim);
    let vbuf = vsys.malloc_on(victim, GpuId::new(0), 1 << 20).unwrap();
    let vspy = vsys.create_process(GpuId::new(1));
    vsys.enable_peer_access(vspy, GpuId::new(0)).unwrap();
    let vspy_agent = vsys.default_agent(vspy);
    let vspy_buf = vsys.malloc_on(vspy, GpuId::new(0), 1 << 20).unwrap();
    let sweep: Vec<_> = (0..16u64).map(|i| vspy_buf.offset(i * 128)).collect();
    let mut vlat: Vec<u32> = Vec::with_capacity(16);
    let mut vt = 0u64;
    c.bench_function("remote_sweep_with_local_victim", |b| {
        b.iter(|| {
            vt += 1000;
            vlat.clear();
            vsys.access_batch_into(vspy, vspy_agent, &sweep, vt, &mut vlat)
                .unwrap();
            for at in [vt + 200, vt + 600] {
                vsys.access(victim, vagent, vbuf.offset(at % 8192 * 128), at, None)
                    .unwrap();
            }
        })
    });
}

/// One bounded trial: boot a small machine, hammer a buffer, return a
/// fingerprint of the simulation state.
fn fanout_trial(seed: u64) -> u64 {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().with_seed(seed));
    let pid = sys.create_process(GpuId::new(0));
    let agent = sys.default_agent(pid);
    let buf = sys.malloc_on(pid, GpuId::new(0), 256 * 1024).unwrap();
    let mut acc = 0u64;
    for i in 0..4096u64 {
        let a = sys
            .access(pid, agent, buf.offset((i * 128) % (256 * 1024)), i * 300, None)
            .unwrap();
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(a.latency));
    }
    acc
}

fn bench_trial_fanout(c: &mut Criterion) {
    // Sanity: parallel and serial fan-out must agree bit-for-bit.
    let par = TrialRunner::new(7).run(8, |t| fanout_trial(t.seed));
    let ser = TrialRunner::serial(7).run(8, |t| fanout_trial(t.seed));
    assert_eq!(par, ser, "parallel fan-out must be bit-identical");

    c.bench_function("trial_fanout_serial_8", |b| {
        b.iter(|| TrialRunner::serial(7).run(8, |t| fanout_trial(t.seed)))
    });
    c.bench_function("trial_fanout_parallel_8", |b| {
        b.iter(|| TrialRunner::new(7).run(8, |t| fanout_trial(t.seed)))
    });
}

/// Paired rounds per overhead guardrail ([`paired_overhead_ratio`]).
const GUARD_ROUNDS: usize = 15;

/// Builds the covert-channel fixture (trojan GPU0, spy GPU1, aligned set
/// pairs) on a small noiseless box — the same preparation as the
/// `gpubox_attacks::covert` unit tests, reproducible per seed.
fn channel_fixture(seed: u64) -> (MultiGpuSystem, ProcessId, ProcessId, Vec<SetPair>) {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().with_seed(seed).noiseless());
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
    let pairs = paired_sets(&tclasses, &sclasses, &matches, 4, 16)
        .into_iter()
        .map(|(t, s)| SetPair { trojan: t, spy: s })
        .collect();
    (sys, trojan, spy, pairs)
}

/// End-to-end covert transmission on the zero-alloc engine.
fn bench_covert_e2e(c: &mut Criterion) {
    let payload = gpubox_attacks::covert::bits_from_bytes(b"PR2 rung");
    let (mut sys, trojan, spy, pairs) = channel_fixture(77);
    c.bench_function("covert_transmit_e2e", |b| {
        b.iter(|| transmit_fixture(&mut sys, trojan, spy, &pairs, &payload).bit_errors)
    });
}

/// One covert transmission of `payload` over a `channel_fixture`'s
/// aligned pairs: the L2 medium decoded by its 2-means vote.
fn transmit_fixture(
    sys: &mut MultiGpuSystem,
    trojan: ProcessId,
    spy: ProcessId,
    pairs: &[SetPair],
    payload: &[u8],
) -> ChannelReport {
    let medium = L2SetMedium {
        trojan,
        spy,
        pairs,
        thresholds: Thresholds::paper_defaults(),
    };
    let params = ChannelParams::default();
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);
    transmit(sys, &medium, payload, &params, &vote).unwrap()
}

/// The overhead guardrails' cost ratio of `on` over `off`: the median,
/// over `rounds` back-to-back (off, on) pairs, of each pair's ratio.
///
/// Each run is timed by the thread's on-CPU time: wall-clock time minus
/// the run-queue wait the kernel accumulates for the thread (the second
/// field of `/proc/thread-self/schedstat`), so time spent runnable but
/// descheduled is billed to neither side. (The first field, the on-CPU
/// sum itself, only advances at scheduler ticks — 4 ms steps on a
/// 250 Hz kernel, longer than one guarded run.) On-CPU speed still
/// moves with the host: on a shared 2-vCPU host it jumps by up to ~1.5x
/// with the load on the other vCPU. Both runs of a pair see the same
/// state, and the median discards the pairs a change split; a ratio of
/// per-side minima instead rests on two single lucky runs. Falls back to
/// plain wall-clock time where the file is unreadable.
fn paired_overhead_ratio(rounds: usize, mut off: impl FnMut(), mut on: impl FnMut()) -> f64 {
    fn run_queue_wait_ns() -> Option<u128> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        stat.split_whitespace().nth(1)?.parse().ok()
    }
    let origin = std::time::Instant::now();
    let wait0 = run_queue_wait_ns();
    // The wait counter only moves when the thread is switched back in,
    // so equal readings on both sides of the wall-clock read show no
    // descheduling fell between them; otherwise read again.
    let now = || loop {
        let before = run_queue_wait_ns();
        let wall = origin.elapsed().as_nanos();
        let after = run_queue_wait_ns();
        if before == after {
            let waited = after.zip(wait0).map_or(0, |(w, w0)| w - w0);
            break wall - waited;
        }
    };
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = now();
            off();
            let t1 = now();
            on();
            (now() - t1) as f64 / (t1 - t0) as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[rounds / 2]
}

/// Telemetry rung: full tracing on the end-to-end covert channel.
///
/// Two gates run before timing whenever a name filter selects the rung
/// (they hold in CI's unfiltered `--test` smoke mode):
///
/// - **bit-invisibility** — the traced transmission decodes the exact
///   bit stream of the untraced one on an identically seeded fixture
///   (hooks consume no RNG and add no cycles);
/// - **overhead budget** — the traced run's median paired on-CPU cost
///   ([`paired_overhead_ratio`]) stays within the overhead budget of
///   the untraced run
///   (`covert_transmit_e2e`'s workload),
///   the telemetry module's stated budget.
///
/// The `covert_transmit_e2e_traced` criterion bench then tracks the
/// traced cost in the trend next to its untraced sibling above.
fn bench_trace_overhead(c: &mut Criterion) {
    if !c.selects("covert_transmit_e2e_traced") {
        return;
    }
    let payload = gpubox_attacks::covert::bits_from_bytes(b"PR2 rung");

    // Bit-invisibility gate.
    let run = |tracing: bool| {
        let (mut sys, t, s, pairs) = channel_fixture(1234);
        if tracing {
            sys.enable_tracing(1 << 16);
        }
        transmit_fixture(&mut sys, t, s, &pairs, &payload).received
    };
    assert_eq!(
        run(false),
        run(true),
        "tracing must be bit-invisible to the covert channel"
    );

    // Overhead gate: the median paired on-CPU cost ratio, so machine
    // noise hits both sides alike. The ring wraps (capacity 64Ki) — the
    // record path costs the same wrapped or not, which is what's being
    // measured.
    let (mut sys_off, t_off, s_off, pairs_off) = channel_fixture(77);
    let (mut sys_on, t_on, s_on, pairs_on) = channel_fixture(77);
    sys_on.enable_tracing(1 << 16);
    let ratio = paired_overhead_ratio(
        GUARD_ROUNDS,
        || {
            black_box(transmit_fixture(&mut sys_off, t_off, s_off, &pairs_off, &payload));
        },
        || {
            black_box(transmit_fixture(&mut sys_on, t_on, s_on, &pairs_on, &payload));
        },
    );
    // Guardrail, not a precision measurement: the true overhead sits
    // around 1.10–1.15x, but the estimate still jitters with binary
    // layout and allocator state (a wall-clock min-of-7 read 0.98–1.23x
    // across reruns of identical code), so the assert budget leaves
    // headroom and the criterion trend below is the number to watch.
    println!("trace overhead on covert_transmit_e2e: {ratio:.3}x (budget 1.25x)");
    assert!(
        ratio <= 1.25,
        "full tracing costs {ratio:.3}x on covert_transmit_e2e — over budget"
    );

    c.bench_function("covert_transmit_e2e_traced", |b| {
        b.iter(|| transmit_fixture(&mut sys_on, t_on, s_on, &pairs_on, &payload).bit_errors)
    });
}

/// Issues `n` dependent loads over a fixed intra-page line list, then
/// finishes — for measuring pure engine-step overhead.
struct FixedLoads {
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    remaining: usize,
}

impl Agent for FixedLoads {
    fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
        if self.remaining == 0 {
            return Op::Done;
        }
        self.remaining -= 1;
        Op::Load(self.lines[self.remaining % self.lines.len()])
    }
    fn on_result(&mut self, _res: &OpResult<'_>) {}
    fn process(&self) -> ProcessId {
        self.pid
    }
}

/// Engine-overhead microbench: the same 256 scalar loads stepped through
/// the zero-alloc engine and issued raw (the floor). Both share one
/// system/TLB, so the delta is engine-layer only.
fn bench_engine_overhead(c: &mut Criterion) {
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().noiseless());
    let pid = sys.create_process(GpuId::new(0));
    let buf = sys.malloc_on(pid, GpuId::new(0), 64 * 1024).unwrap();
    let lines: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * 128)).collect();

    c.bench_function("engine_steps_256_loads", |b| {
        b.iter(|| {
            let mut eng = Engine::new(&mut sys);
            eng.add_agent(
                Box::new(FixedLoads {
                    pid,
                    lines: lines.clone(),
                    remaining: 256,
                }),
                0,
            );
            eng.run(u64::MAX).unwrap()
        })
    });

    let agent = sys.default_agent(pid);
    let mut t = 0u64;
    c.bench_function("raw_access_256_loads", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..256u64 {
                t += 300;
                let a = sys
                    .access(pid, agent, lines[(k % 16) as usize], t, None)
                    .unwrap();
                acc += u64::from(a.latency);
            }
            acc
        })
    });
}

/// Issues `remaining` `Compute(cycles)` ops, touching no memory.
struct FixedCompute {
    pid: ProcessId,
    cycles: u64,
    remaining: usize,
}

impl Agent for FixedCompute {
    fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
        if self.remaining == 0 {
            return Op::Done;
        }
        self.remaining -= 1;
        Op::Compute(self.cycles)
    }
    fn on_result(&mut self, _res: &OpResult<'_>) {}
    fn process(&self) -> ProcessId {
        self.pid
    }
}

/// Engine-dispatch rung: 4096 `Compute` ops split over 2, 4 or 8 agents,
/// so the time is the scheduler's pick-and-reschedule plus the op
/// dispatch, with no memory access. Distinct per-agent op lengths keep
/// the minimum moving between agents. ns/op = ns/iter / 4096.
fn bench_engine_dispatch(c: &mut Criterion) {
    const OPS: usize = 4096;
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let pid = sys.create_process(GpuId::new(0));
    for agents in [2usize, 4, 8] {
        c.bench_function(&format!("engine_dispatch_{agents}agents"), |b| {
            b.iter(|| {
                let mut eng = Engine::new(&mut sys);
                for k in 0..agents {
                    eng.add_agent(
                        Box::new(FixedCompute {
                            pid,
                            cycles: 100 + 7 * k as u64,
                            remaining: OPS / agents,
                        }),
                        0,
                    );
                }
                eng.run(u64::MAX).unwrap()
            })
        });
    }
}

/// Golden fingerprint of the fabric-off access path, captured at the
/// PR 2 HEAD immediately before the fabric subsystem landed (commit
/// 1fa39bd): an FNV-1a fold over every latency and batch duration of a
/// fixed jittered probe covering local, 1-hop remote (scalar + batched,
/// two contending agents), 2-hop remote and PCIe-fallback accesses,
/// plus the GPU-stats totals of the **1-hop system only**. A
/// fabric-**off** system must still produce this exact value — the
/// fabric may only change timing when explicitly enabled.
///
/// Scope note: the 2-hop/PCIe sections deliberately fold latencies but
/// not stats, because PR 3 *intentionally* changed one fabric-off
/// statistic — `nvlink_bytes` now counts one line per traversed hop
/// (256 B for a 2-hop access where PR 2 recorded 128 B). Timing is
/// gated bit-for-bit on every route; byte accounting is gated only
/// where it was unchanged (1-hop).
///
/// The probe is jittered (seed-99 DGX-1 with noise), so this is a golden
/// of the noisy path, not a noiseless one. Re-pinned
/// 0x81b7_358b_d9c3_fd1a → 0x0adb_d479_8e30_f5fd when noise draws became
/// counter-indexed (per-GPU coordinate streams and an exact integer
/// jitter table); from there on it pins that noisy fabric-off path.
const PRE_FABRIC_FINGERPRINT: u64 = 0x0adb_d479_8e30_f5fd;

/// Replays the pre-fabric probe on today's simulator (fabric off).
fn fabric_off_fingerprint() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    };

    // Jittered DGX-1: local + 1-hop remote, scalar + batch, two
    // contending agents (pressure, congestion draws, nvlink queueing).
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().with_seed(99));
    let p0 = sys.create_process(GpuId::new(0));
    let p1 = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(p1, GpuId::new(0)).unwrap();
    let b0 = sys.malloc_on(p0, GpuId::new(0), 1 << 20).unwrap();
    let b1 = sys.malloc_on(p1, GpuId::new(0), 1 << 20).unwrap();
    let a0 = sys.default_agent(p0);
    let a1 = sys.default_agent(p1);
    let mut lat = Vec::new();
    for i in 0..512u64 {
        let t = i * 120;
        let acc = sys
            .access(p0, a0, b0.offset((i * 128 * 7) % (1 << 20)), t, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
        let acc = sys
            .access(p1, a1, b1.offset((i * 128 * 13) % (1 << 20)), t + 60, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
        if i % 16 == 0 {
            let vas: Vec<VirtAddr> = (0..16)
                .map(|k| b1.offset(((i + k) * 128 * 5) % (1 << 20)))
                .collect();
            lat.clear();
            let s = sys.access_batch_into(p1, a1, &vas, t + 90, &mut lat).unwrap();
            mix(&mut h, s.duration);
            for &l in &lat {
                mix(&mut h, u64::from(l));
            }
        }
    }
    let tot = sys.stats().total();
    mix(&mut h, tot.l2_hits);
    mix(&mut h, tot.l2_misses);
    mix(&mut h, tot.nvlink_bytes);
    mix(&mut h, tot.congestion_episodes);

    // 2-hop NVLink route (GPU0 -> GPU5 on the DGX-1), jittered.
    let mut cfg = SystemConfig::dgx1().with_seed(7);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let p = sys.create_process(GpuId::new(0));
    sys.enable_peer_access(p, GpuId::new(5)).unwrap();
    let b = sys.malloc_on(p, GpuId::new(5), 1 << 18).unwrap();
    let a = sys.default_agent(p);
    for i in 0..256u64 {
        let acc = sys
            .access(p, a, b.offset((i * 128 * 3) % (1 << 18)), i * 400, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
    }

    // Disconnected pair: the PCIe fallback path, jittered.
    let mut cfg = SystemConfig::small_test().with_seed(3);
    cfg.topology = Topology::from_edges(2, &[]);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let p = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(p, GpuId::new(0)).unwrap();
    let b = sys.malloc_on(p, GpuId::new(0), 1 << 16).unwrap();
    let a = sys.default_agent(p);
    for i in 0..256u64 {
        let acc = sys
            .access(p, a, b.offset((i * 128) % (1 << 16)), i * 500, None)
            .unwrap();
        mix(&mut h, u64::from(acc.latency));
    }
    h
}

/// Fabric benches: the bit-identity gate first, then the per-access cost
/// of enabling the timed link model on remote routes (vs. the PR 2
/// scalar path measured by `remote_nvlink_access` above).
fn bench_fabric(c: &mut Criterion) {
    assert_eq!(
        fabric_off_fingerprint(),
        PRE_FABRIC_FINGERPRINT,
        "fabric-off access path diverged from the pre-fabric simulator"
    );

    let mk = |fabric: FabricConfig, spy_gpu: u8, home: u8| {
        let mut cfg = SystemConfig::dgx1().noiseless().with_fabric(fabric);
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(spy_gpu));
        sys.enable_peer_access(p, GpuId::new(home)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(home), 1 << 20).unwrap();
        let a = sys.default_agent(p);
        (sys, p, a, buf)
    };

    let (mut sys, p, a, buf) = mk(FabricConfig::nvlink_v1(), 1, 0);
    let mut t = 0u64;
    c.bench_function("remote_nvlink_access_fabric_on", |b| {
        b.iter(|| {
            t += 700;
            sys.access(p, a, buf.offset((t % 8192) * 128 % (1 << 20)), t, None)
                .unwrap()
        })
    });

    let (mut sys, p, a, buf) = mk(FabricConfig::nvlink_v1(), 0, 5);
    c.bench_function("remote_2hop_access_fabric_on", |b| {
        b.iter(|| {
            t += 700;
            sys.access(p, a, buf.offset((t % 8192) * 128 % (1 << 20)), t, None)
                .unwrap()
        })
    });

    let (mut sys, p, a, buf) = mk(FabricConfig::disabled(), 0, 5);
    c.bench_function("remote_2hop_access_fabric_off", |b| {
        b.iter(|| {
            t += 700;
            sys.access(p, a, buf.offset((t % 8192) * 128 % (1 << 20)), t, None)
                .unwrap()
        })
    });
}

fn bench_system_boot(c: &mut Criterion) {
    c.bench_function("boot_dgx1", |b| {
        b.iter_batched(
            SystemConfig::dgx1,
            MultiGpuSystem::new,
            BatchSize::SmallInput,
        )
    });
}

/// Eviction-set discovery rung: the faithful Algorithm-1 page classifier
/// vs the group-testing scan, on the small noiseless box (96 pages). The
/// `bench_discovery` binary gates the full DGX-scale numbers (simulated
/// accesses, >= 5x ratio); this rung tracks the host-side wall-clock of
/// both paths so classifier regressions show up in the criterion trend.
fn bench_discovery_scan(c: &mut Criterion) {
    let thr = Thresholds::paper_defaults();
    let scan = ScanConfig::classify_default();
    let run = |fast: bool| {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let buf = ctx.malloc_on(GpuId::new(0), 96 * 4096).unwrap();
        let f = if fast { classify_pages_fast } else { classify_pages };
        let classes = f(&mut ctx, buf, 96 * 4096, 4096, 128, 16, &thr, Locality::Local, &scan)
            .unwrap();
        (
            classes,
            ctx.system().stats().gpu(GpuId::new(0)).issued_accesses,
        )
    };

    // Sanity before timing: identical classes, strictly fewer accesses.
    let (classic, classic_accesses) = run(false);
    let (grouped, grouped_accesses) = run(true);
    assert_eq!(
        classic.classes, grouped.classes,
        "group-testing scan must classify identically to Algorithm 1"
    );
    assert!(
        grouped_accesses * 2 < classic_accesses,
        "group-testing scan lost its access advantage \
         (classic {classic_accesses}, grouped {grouped_accesses})"
    );

    c.bench_function("classify_pages_alg1_small", |b| {
        b.iter(|| black_box(run(false)).1)
    });
    c.bench_function("classify_pages_grouped_small", |b| {
        b.iter(|| black_box(run(true)).1)
    });
}

/// Fleet rung: a small fleet stepped to a short horizon, serial vs two
/// shared-nothing workers. The `bench_fleet` binary reports the
/// full-scale 1-vs-N wall-clock numbers; this rung keeps the per-node
/// stepping cost (mini-scheduler + batch issue + recycle) in the
/// criterion trend so fleet-path regressions surface like any other.
fn bench_fleet_step(c: &mut Criterion) {
    let build = |threads: usize| {
        let mut cfg = FleetConfig::new(8, 77).with_target_utilization(0.6);
        cfg.horizon = 200_000;
        cfg.epoch = 25_000;
        cfg.threads = threads;
        FleetRunner::new(cfg, Box::new(Pack))
    };
    // The two variants must decode identically before we time them.
    let serial = build(1).run();
    let parallel = build(2).run();
    assert_eq!(
        serial.exposure_line("row"),
        parallel.exposure_line("row"),
        "fleet rung: thread count changed the decoded exposure table"
    );
    c.bench_function("fleet_step_8n_serial", |b| {
        b.iter_batched(
            || build(1),
            |r| black_box(r.run().exposure.accesses),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("fleet_step_8n_2workers", |b| {
        b.iter_batched(
            || build(2),
            |r| black_box(r.run().exposure.accesses),
            BatchSize::LargeInput,
        )
    });
}

/// PR 10 rung: the streaming covert-channel monitor's overhead on a
/// windowed engine run. The monitor is pure stats-diffing outside the
/// hot path — per window it diffs ~21 channel counters and runs the
/// three detector laws — so on a busy fabric (the regime where anyone
/// would deploy it) the windowed loop with `Monitor::observe` at every
/// boundary must stay within the overhead budget of the identical
/// loop without it.
/// Asserted before either variant is timed, along with the monitor
/// being outcome-invisible (same issued-access totals), whenever a name
/// filter selects the rung.
fn bench_monitor_overhead(c: &mut Criterion) {
    use gpubox_sim::{run_windowed, Monitor, MonitorConfig, NoiseAgent, NoiseConfig, QosConfig};

    if !c.selects("monitor_windowed_300k") {
        return;
    }

    const HORIZON: u64 = 300_000;
    let build = || {
        let mut sys = MultiGpuSystem::new(gpubox_bench::fabric_dgx1(99, QosConfig::off()));
        let mut agents: Vec<Box<dyn Agent>> = Vec::new();
        for t in 0..8usize {
            let pid = sys.create_process(GpuId::new((t % 4) as u8));
            let remote = GpuId::new((t % 4 + 4) as u8);
            sys.enable_peer_access(pid, remote).unwrap();
            let buf = sys.malloc_on(pid, remote, 64 * 1024).unwrap();
            agents.push(Box::new(NoiseAgent::new(
                pid,
                buf,
                512,
                128,
                NoiseConfig {
                    burst_len: 64,
                    idle_between_bursts: 400 + 61 * t as u64,
                    seed: 7 + t as u64,
                },
            )));
        }
        (sys, agents)
    };
    let run = |monitored: bool| {
        let (mut sys, agents) = build();
        let num_links = sys.config().topology.num_links();
        let num_gpus = sys.config().num_gpus as usize;
        let mut mon = Monitor::new(MonitorConfig::default(), num_links, num_gpus);
        let mut eng = Engine::new(&mut sys);
        for (i, a) in agents.into_iter().enumerate() {
            eng.add_agent(a, 53 * i as u64);
        }
        if monitored {
            mon.prime(eng.system().stats());
            run_windowed(&mut eng, &mut mon, HORIZON, None).unwrap();
        } else {
            let w = mon.config().window_cycles;
            let mut next = w;
            while next < HORIZON {
                eng.run(next).unwrap();
                next += w;
            }
            eng.run(HORIZON).unwrap();
        }
        drop(eng);
        (sys.stats().total().issued_accesses, mon.alarmed())
    };
    let (base_accesses, _) = run(false);
    let (mon_accesses, alarmed) = run(true);
    assert_eq!(
        base_accesses, mon_accesses,
        "monitor rung: observing the stats changed the simulation"
    );
    assert!(!alarmed, "monitor rung: benign fixture must not alarm");

    let ratio = paired_overhead_ratio(
        GUARD_ROUNDS,
        || {
            black_box(run(false));
        },
        || {
            black_box(run(true));
        },
    );
    // Guardrail with the same headroom rationale as the trace gate
    // above: the true overhead measures ~1.05–1.10x.
    println!("monitor overhead on windowed engine run: {ratio:.3}x (budget 1.25x)");
    assert!(
        ratio <= 1.25,
        "streaming monitor costs {ratio:.3}x on the windowed run — over budget"
    );

    c.bench_function("monitor_windowed_300k", |b| b.iter(|| black_box(run(true))));
}

criterion_group!(
    benches,
    bench_cache_layer,
    bench_access_path,
    bench_trial_fanout,
    bench_engine_overhead,
    bench_engine_dispatch,
    bench_covert_e2e,
    bench_trace_overhead,
    bench_discovery_scan,
    bench_fabric,
    bench_system_boot,
    bench_fleet_step,
    bench_monitor_overhead
);
criterion_main!(benches);
