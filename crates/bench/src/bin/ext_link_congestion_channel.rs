//! Extension — the NVLink-congestion covert channel over the timed link
//! fabric (the paper's second channel family, Sec. V).
//!
//! A bandwidth trojan on GPU1 saturates its route to GPU5's memory
//! during `1` slots; a throughput spy streams its own disjoint buffer
//! over a route sharing link (1,5) and decodes bits purely from its own
//! transfer latency — no shared cache set, no prime, no probe. The sweep
//! measures bandwidth and bit error along three axes:
//!
//! - **trojan intensity** (concurrent transfer streams): the channel
//!   needs the shared link driven to saturation — below it, the spy's
//!   dithered sampling sees mostly idle windows and the error rate sits
//!   near coin-flip; at saturation it decodes cleanly;
//! - **hop count**: 1-hop (spy on GPU1) vs 2-hop (spy on GPU0 routed
//!   0-1-5 by the fabric's canonical shortest paths, sharing (1,5));
//! - **background tenants**: noise processes on GPU2 whose 2-1-5 routes
//!   cross the same shared link, plus full timing noise (jitter, port
//!   contention, congestion episodes).
//!
//! The sweep runs once, through one parallel [`TrialRunner`] fan-out.
//! Fan-out invariance is proven where it lives: the runner's
//! `parallel_matches_serial_bitwise`.
//! The 2-hop noiseless point is the acceptance gate: its seeded payload
//! must decode with ≤ 5% bit error, and it must match what the
//! library-level [`gpubox_attacks::transmit`] produces.
//!
//! Usage: `ext_link_congestion_channel [--payload-bits=N] [--seed=S]`
//! (defaults: 64 bits, seed 0x11F0; CI passes `--payload-bits=32`).

use gpubox_attacks::{
    redecode_traces, transmit, BoundaryPolicy, LinkChannel, LinkCongestionMedium, Pipeline,
    TrialRunner, Transmission,
};
use gpubox_bench::{fabric_dgx1, link_params, report, seeded_payload, LinkEndpoints};
use gpubox_sim::{
    Engine, FabricConfig, GpuId, MultiGpuSystem, NoiseAgent, NoiseConfig, ProcessId, QosConfig,
    SystemConfig, VirtAddr,
};

/// One sweep configuration.
#[derive(Debug, Clone, Copy)]
struct Point {
    hops: u32,
    streams: usize,
    tenants: usize,
    noiseless: bool,
    /// [`FabricConfig::per_direction`]: full-duplex links (independent
    /// occupancy windows per direction). Off = the PR 3 half-duplex
    /// model every golden was captured under.
    duplex: bool,
    /// Reverse-direction spy: the spy sits on GPU5 and reads memory
    /// homed on GPU1, so its probes cross the shared link (1,5)
    /// *opposite* to the trojan's 1→5 streams — the configuration whose
    /// entire congestion signal is direction coupling.
    reverse: bool,
}

/// The common sweep shape; points override the axes they move.
const BASE: Point = Point {
    hops: 2,
    streams: 4,
    tenants: 0,
    noiseless: true,
    duplex: false,
    reverse: false,
};

impl Point {
    fn label(&self) -> String {
        format!(
            "{}{}{} streams, {} tenants, {}",
            if self.reverse {
                "rev-spy, ".to_string()
            } else {
                format!("{}-hop, ", self.hops)
            },
            if self.duplex { "duplex, " } else { "" },
            self.streams,
            self.tenants,
            if self.noiseless { "noiseless" } else { "noisy" }
        )
    }
}

/// Everything a run observes.
#[derive(Debug, Clone)]
struct Outcome {
    received: Vec<u8>,
    /// The spy's listen span — the true transmission window. Bandwidth
    /// and utilisation are computed over this, not the engine's end
    /// clock: runs
    /// with background tenants only end at the engine deadline (noise
    /// agents never finish), which would deflate both metrics by the
    /// grace slots and turn a bookkeeping difference into an apparent
    /// channel degradation.
    listen: u64,
    shared_link_busy_cycles: u64,
    bit_errors: usize,
    /// Errors when the same trace is decoded by the matched filter
    /// instead of the per-sample vote (same boundary policy).
    mf_bit_errors: usize,
}

/// Runs one sweep point and returns the full observable outcome.
fn run_point(p: Point, payload: &[u8], seed: u64) -> Outcome {
    let fabric = if p.duplex {
        FabricConfig::nvlink_v1().with_per_direction()
    } else {
        FabricConfig::nvlink_v1()
    };
    let mut cfg = SystemConfig::dgx1().with_seed(seed).with_fabric(fabric);
    if p.noiseless {
        cfg = cfg.noiseless();
    }
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let home = GpuId::new(5);
    let page = sys.config().page_size;

    let trojan = sys.create_process(GpuId::new(1));
    // Forward points: the spy's 0-1-5 (2-hop) or 1-5 (1-hop) route
    // shares link (1,5) in the trojan's direction. Reverse points: the
    // spy sits on GPU5 reading memory homed on GPU1, crossing (1,5)
    // the opposite way.
    let spy_gpu = if p.reverse {
        GpuId::new(5)
    } else if p.hops == 2 {
        GpuId::new(0)
    } else {
        GpuId::new(1)
    };
    let spy_home = if p.reverse { GpuId::new(1) } else { home };
    let spy = sys.create_process(spy_gpu);
    sys.enable_peer_access(trojan, home).unwrap();
    sys.enable_peer_access(spy, spy_home).unwrap();
    let tb = sys.malloc_on(trojan, home, 32 * page).unwrap();
    let sb = sys.malloc_on(spy, spy_home, 2 * page).unwrap();
    let trojan_lines: Vec<VirtAddr> = (0..32).map(|i| tb.offset(i * page)).collect();
    let spy_lines: Vec<VirtAddr> = (0..2).map(|i| sb.offset(i * page)).collect();

    // Background tenants on GPU2: their 2-1-5 routes cross link (1,5).
    let mut tenant_bufs: Vec<(ProcessId, VirtAddr)> = Vec::new();
    for _ in 0..p.tenants {
        let pid = sys.create_process(GpuId::new(2));
        sys.enable_peer_access(pid, home).unwrap();
        let buf = sys.malloc_on(pid, home, 48 * page).unwrap();
        tenant_bufs.push((pid, buf));
    }

    let params = link_params();

    // Shared library wiring (warm-up, spy, staggered trojan streams);
    // the sweep adds its background tenants on top.
    let medium = LinkCongestionMedium {
        trojan,
        spy,
        channel: LinkChannel {
            trojan_lines: &trojan_lines,
            spy_lines: &spy_lines,
            trojan_streams: p.streams,
        },
    };
    let vote = Pipeline::vote(BoundaryPolicy::Quantile);
    let mut tx = Transmission::prepare(&mut sys, &medium, payload, &params, &vote)
        .expect("fabric is enabled in every sweep config");
    let mut eng = Engine::new(&mut sys);
    let listen = tx.install(&mut eng, 0);
    for (i, &(pid, buf)) in tenant_bufs.iter().enumerate() {
        eng.add_agent(
            Box::new(NoiseAgent::new(
                pid,
                buf,
                48,
                page,
                NoiseConfig {
                    burst_len: 24,
                    idle_between_bursts: 2_500 + 517 * i as u64,
                    seed: 11 + i as u64,
                },
            )),
            101 * i as u64,
        );
    }
    // Run exactly to the spy's listen horizon: the spy has stopped and
    // the trojan's frame has drained by then, while the grace period
    // grace_end() grants would only let the never-finishing noise
    // tenants keep accruing link traffic outside the measured window.
    let end = eng.run(listen).unwrap();
    drop(eng);

    // The channel's quantile-anchored per-sample vote and the matched
    // filter, decoding the *same* trace.
    let rep = tx.report(&sys, end);
    let mf_pipeline = Pipeline::matched_filter(BoundaryPolicy::Quantile);
    let (mf, _) = redecode_traces(&rep.traces, &params, &mf_pipeline, payload.len());
    let mf_bit_errors = mf.iter().zip(payload).filter(|(a, b)| a != b).count();
    let shared = sys
        .config()
        .topology
        .link_between(GpuId::new(1), home)
        .expect("DGX-1 has a direct (1,5) link");
    let ls = *sys.link_stats(shared).unwrap();
    Outcome {
        received: rep.received,
        listen,
        shared_link_busy_cycles: ls.busy_cycles,
        bit_errors: rep.bit_errors,
        mf_bit_errors,
    }
}

fn main() {
    let mut payload_bits = 64usize;
    let mut seed = 0x11F0u64;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--payload-bits=") {
            payload_bits = v.parse().expect("--payload-bits=N");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=S");
        }
    }
    let payload = seeded_payload(seed, payload_bits);

    report::header(
        "Extension — NVLink-congestion covert channel over the timed fabric",
        "bandwidth trojan + throughput spy sharing link (1,5); no shared cache set",
    );

    let points = [
        // Trojan-intensity axis (2-hop, noiseless).
        Point { streams: 1, ..BASE },
        Point { streams: 2, ..BASE },
        BASE,
        Point { streams: 6, ..BASE },
        // Hop-count axis at saturation.
        Point { hops: 1, ..BASE },
        // Background-tenant axis under full timing noise.
        Point { noiseless: false, ..BASE },
        Point { tenants: 4, noiseless: false, ..BASE },
        Point { tenants: 8, noiseless: false, ..BASE },
        // Deeper tenant noise (beyond the PR 3 sweep): where the
        // per-sample vote's error floor shows and the matched filter
        // earns its keep.
        Point { tenants: 12, noiseless: false, ..BASE },
        Point { tenants: 16, noiseless: false, ..BASE },
        // Duplex axis (PR 4 per-direction model under the channel, the
        // PR 4 open item): a same-direction spy keeps decoding on
        // full-duplex links, a reverse-direction spy only couples with
        // the trojan through the shared half-duplex window — flipping
        // duplex on removes its entire signal.
        Point { duplex: true, ..BASE },
        Point { reverse: true, hops: 1, ..BASE },
        Point { reverse: true, hops: 1, duplex: true, ..BASE },
    ];

    let outcomes = TrialRunner::new(seed).run(points.len(), |t| {
        run_point(points[t.index], &payload, seed)
    });

    // Bit-compatibility gate: the vote decoder's per-point error counts
    // for the default seed, captured at the PR 3 HEAD (commit af72b35)
    // before the channel moved onto the unified pipeline. The first
    // eight points are exactly the PR 3 sweep.
    // Re-pinned once when noise draws became counter-indexed: only the
    // noisy 4- and 8-tenant points moved, [.., 2, 1] → [.., 0, 2] at
    // both payload sizes.
    if seed == 0x11F0 {
        let golden: Option<[usize; 8]> = match payload_bits {
            64 => Some([28, 18, 1, 0, 0, 0, 0, 2]),
            32 => Some([17, 11, 0, 0, 0, 0, 0, 2]),
            _ => None,
        };
        if let Some(golden) = golden {
            let got: Vec<usize> = outcomes.iter().take(8).map(|o| o.bit_errors).collect();
            assert_eq!(
                got, golden,
                "vote-decoded error counts diverged from the golden"
            );
        }
    }

    // Acceptance gate: the 2-hop noiseless saturated point decodes the
    // seeded payload with <= 5% bit error, and the one-call library
    // entry point (transmit) produces the identical bit stream.
    let gate = points
        .iter()
        .position(|p| {
            p.hops == 2 && p.streams == 4 && p.tenants == 0 && p.noiseless && !p.duplex
                && !p.reverse
        })
        .unwrap();
    let ber = outcomes[gate].bit_errors as f64 / payload.len() as f64;
    assert!(
        ber <= 0.05,
        "2-hop noiseless channel error rate {ber} exceeds 5%"
    );
    {
        let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, QosConfig::off()).noiseless());
        let ends = LinkEndpoints::new(&mut sys, GpuId::new(1), GpuId::new(0), GpuId::new(5), 2);
        let rep = transmit(
            &mut sys,
            &ends.medium(4),
            &payload,
            &link_params(),
            &Pipeline::vote(BoundaryPolicy::Quantile),
        )
        .expect("library transmission");
        assert_eq!(
            rep.received, outcomes[gate].received,
            "transmit must reproduce the sweep's gate point"
        );
    }

    // Duplex gate (PR 4 open item): quantify how much of the congestion
    // signal comes from direction coupling. A same-direction spy must
    // keep decoding on full-duplex links; a reverse-direction spy must
    // decode on half-duplex links (where opposing traffic shares one
    // occupancy window) and must LOSE the channel on full-duplex links
    // (where its direction is physically independent of the trojan's).
    {
        let find = |dup: bool, rev: bool| {
            points
                .iter()
                .position(|p| p.duplex == dup && p.reverse == rev && p.streams == 4 && p.tenants == 0)
                .map(|i| outcomes[i].bit_errors as f64 / payload.len() as f64)
                .unwrap()
        };
        let fwd_duplex = find(true, false);
        let rev_half = find(false, true);
        let rev_duplex = find(true, true);
        assert!(
            fwd_duplex <= 0.05,
            "same-direction spy must survive full duplex: BER {fwd_duplex}"
        );
        assert!(
            rev_half <= 0.05,
            "reverse spy must decode through the shared half-duplex window: BER {rev_half}"
        );
        assert!(
            rev_duplex >= 0.25,
            "full duplex must sever the reverse spy's direction coupling: BER {rev_duplex}"
        );
    }

    // Matched-filter gate: at one or more tenant-noise points the soft
    // slot decoder must strictly beat the per-sample vote on the same
    // trace — the ROADMAP's decoder-upgrade claim.
    let improved: Vec<String> = points
        .iter()
        .zip(&outcomes)
        .filter(|(p, o)| p.tenants > 0 && o.mf_bit_errors < o.bit_errors)
        .map(|(p, o)| {
            format!(
                "[{}] vote {} -> matched filter {}",
                p.label(),
                o.bit_errors,
                o.mf_bit_errors
            )
        })
        .collect();
    assert!(
        !improved.is_empty(),
        "matched filter should cut the error floor at >=1 tenant-noise point"
    );

    let clock_hz = SystemConfig::dgx1().timing.clock_hz;
    println!(
        "\n{:>38} | {:>14} | {:>14} | {:>24}",
        "configuration", "vote errors", "m.filter errs", "bandwidth / utilisation"
    );
    println!(
        "{}-+-{}-+-{}-+-{}",
        "-".repeat(38),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(24)
    );
    for (p, o) in points.iter().zip(&outcomes) {
        let secs = o.listen as f64 / clock_hz;
        let bw = payload.len() as f64 / 8.0 / secs;
        let util = o.shared_link_busy_cycles as f64 / o.listen as f64;
        println!(
            "{:>38} | {:>14} | {:>14} | {:>24}",
            p.label(),
            format!(
                "{}/{} ({:.1}%)",
                o.bit_errors,
                payload.len(),
                100.0 * o.bit_errors as f64 / payload.len() as f64
            ),
            format!(
                "{}/{} ({:.1}%)",
                o.mf_bit_errors,
                payload.len(),
                100.0 * o.mf_bit_errors as f64 / payload.len() as f64
            ),
            format!("{:.1} B/s, link {:.0}% busy", bw, 100.0 * util),
        );
    }

    println!("\nmatched filter beats the per-sample vote at:");
    for line in &improved {
        println!("  {line}");
    }
    println!(
        "\nthe 2-hop noiseless point decoded the seeded payload within the\n\
         5% error budget, and the first eight points' vote decodes match\n\
         the golden error counts exactly.\n\
         Below saturation the spy's dithered sampling mostly lands in the\n\
         link's idle windows (error near coin-flip for the 1s); from ~4\n\
         streams the shared link stays booked through every 1 slot and\n\
         the channel decodes cleanly — exactly the paper's observation\n\
         that the congestion channel needs a saturating trojan.\n\
         Duplex axis: a spy probing WITH the trojan's direction keeps the\n\
         channel on full-duplex links, while a reverse-direction spy only\n\
         receives through the shared half-duplex window — per-direction\n\
         occupancy severs it completely (asserted >=25% BER). All of the\n\
         reverse spy's signal is direction coupling; none of the forward\n\
         spy's is."
    );
}
