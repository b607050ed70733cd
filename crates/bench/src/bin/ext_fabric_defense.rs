//! Extension — **fabric QoS defences vs both covert-channel families**:
//! the security/performance frontier of the interconnect-side
//! mitigations (the Sec. VII counterpart to `ext_partition_defense`,
//! which closes the cache side).
//!
//! Each defence of `gpubox_sim::qos` runs at several strengths against:
//!
//! - the **NVLink-congestion channel** (trojan on GPU1 saturating its
//!   direct link to GPU5's memory, spy on GPU0 sharing link (1,5) over
//!   its 0-1-5 route), decoded by both the per-sample vote and the
//!   matched filter. The link runs are **noiseless** — the pure link
//!   medium, like the PR 3 acceptance gate — because with full timing
//!   noise the trojan's accesses additionally modulate the home GPU's
//!   *L2 port-pressure* window, a cache-side side-signal that no
//!   interconnect defence can (or should) remove: rate limiting kills
//!   the congestion signal completely yet the pressure residue alone
//!   still decodes. Fabric QoS is evaluated on the channel it defends;
//!   the pressure residue belongs to the cache-side story
//!   (`ext_partition_defense`, Sec. VI mitigation);
//! - the **L2 Prime+Probe channel** over the same fabric-enabled DGX-1
//!   (trojan GPU0, spy GPU5, 4 aligned set pairs) with the offline
//!   phase re-run **under the defence**
//!   ([`AttackSetup::prepare_fabric_qos`]) — the adaptive attacker who
//!   recalibrates thresholds against the deployed mitigation. A
//!   defence harsh enough to break the offline phase itself (timing
//!   clusters no longer separable, alignment finds no pairs) is
//!   reported as a collapse;
//! - the **benign multi-tenant mix** ([`BenignMix`]: vectoradd/histogram
//!   trace replays plus bursty noise kernels, half the tenants
//!   streaming over NVLink), measuring the defence's throughput cost as
//!   the drop in accesses completed within a fixed simulated window.
//!
//! Each sweep runs once, through one parallel [`TrialRunner`] fan-out.
//! Fan-out invariance is proven where it lives: the runner's
//! `parallel_matches_serial_bitwise`.
//!
//! CI gates:
//! - the undefended baseline decodes at ≤ 5% BER (both decoders);
//! - **every defence at full strength pushes the link-channel BER to
//!   ≥ 25% for both decoders** — the channel is unusable;
//! - at least one defence configuration reaches that bar at **≤ 15%
//!   benign throughput cost** (the deployable point of the frontier);
//! - every defence keeps the benign cost bounded (≤ 60%).
//!
//! Usage: `ext_fabric_defense [--payload-bits=N] [--cycles=N] [--seed=S]`
//! (defaults: 64 bits, 600_000 benign cycles, seed 0x5EC5; CI passes
//! `--payload-bits=48`).

use gpubox_attacks::{
    redecode_traces, transmit, BoundaryPolicy, ChannelParams, OfflineCache, Pipeline,
    TrialRunner,
};
use gpubox_bench::{
    fabric_dgx1, link_params, report, seeded_payload, AttackSetup, BenignMix, LinkEndpoints,
};
use gpubox_sim::{Engine, GpuId, MultiGpuSystem, QosConfig};

/// One defence configuration on the sweep.
#[derive(Debug, Clone, Copy)]
struct Defence {
    label: &'static str,
    qos: QosConfig,
    /// Whether this is a family's full-strength point (gated to break
    /// the link channel).
    full: bool,
}

fn defences(seed: u64) -> Vec<Defence> {
    vec![
        Defence {
            label: "no defence",
            qos: QosConfig::off(),
            full: false,
        },
        // Token buckets: NVLink-V1 moves ~12.8 B/cycle ≈ 13_100 B per
        // 1024 cycles at full tilt. 50% still admits partial
        // saturation; 10% starves the bandwidth trojan outright while
        // benign bursts (≤ 4 KiB) still pass at link speed.
        Defence {
            label: "rate limit 50%",
            qos: QosConfig::off().with_rate_limit(6_400, 8_192),
            full: false,
        },
        Defence {
            label: "rate limit 10% (full)",
            qos: QosConfig::off().with_rate_limit(1_280, 4_096),
            full: true,
        },
        // Grant pacing: latency measures the phase against the epoch
        // grid instead of the trojan's slot structure.
        Defence {
            label: "pacing 1.5k",
            qos: QosConfig::off().with_pacing(1_500),
            full: false,
        },
        Defence {
            label: "pacing 3k (full)",
            qos: QosConfig::off().with_pacing(3_000),
            full: true,
        },
        // Seeded grant jitter: first-party noise wider than the queue
        // signal.
        Defence {
            label: "jitter 3k (full)",
            qos: QosConfig::off().with_jitter(3_000, seed ^ 0xD1CE),
            full: true,
        },
        // Valiant routing: no single link can be saturated end-to-end.
        Defence {
            label: "valiant (full)",
            qos: QosConfig::off().with_valiant(seed ^ 0xF00D),
            full: true,
        },
    ]
}

/// Link-channel outcome under one defence.
#[derive(Debug, Clone)]
struct LinkOutcome {
    vote_errors: usize,
    mf_errors: usize,
}

/// Runs the NVLink-congestion channel under `qos`. Noiseless: the pure
/// link medium (see the module docs for why the port-pressure
/// side-signal is excluded here).
fn run_link(qos: QosConfig, payload: &[u8], seed: u64) -> LinkOutcome {
    let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, qos).noiseless());
    let ends = LinkEndpoints::new(&mut sys, GpuId::new(1), GpuId::new(0), GpuId::new(5), 2);
    let params = link_params();
    let rep = transmit(
        &mut sys,
        &ends.medium(4),
        payload,
        &params,
        &Pipeline::vote(BoundaryPolicy::Quantile),
    )
    .expect("link transmission");
    let (mf_received, _) = redecode_traces(
        &rep.traces,
        &params,
        &Pipeline::matched_filter(BoundaryPolicy::Quantile),
        payload.len(),
    );
    let mf_errors = mf_received.iter().zip(payload).filter(|(a, b)| a != b).count();
    LinkOutcome {
        vote_errors: rep.bit_errors,
        mf_errors,
    }
}

/// Runs the L2 Prime+Probe family under `qos` with the offline phase
/// re-derived under the defence: `(vote errors, matched-filter errors)`,
/// or the panic message if the run died (see [`l2_collapse`]).
fn run_l2(qos: QosConfig, payload: &[u8], seed: u64) -> Result<(usize, usize), String> {
    let params = ChannelParams::default();
    let result = std::panic::catch_unwind(|| {
        let mut setup = AttackSetup::prepare_fabric_qos(seed, GpuId::new(0), GpuId::new(5), qos);
        let pairs = setup.aligned_pairs(4);
        let medium = setup.medium(&pairs);
        let rep = transmit(
            &mut setup.sys,
            &medium,
            payload,
            &params,
            &Pipeline::vote(BoundaryPolicy::TwoMeans),
        )
        .expect("L2 transmission");
        let (mf_received, _) = redecode_traces(
            &rep.traces,
            &params,
            &Pipeline::matched_filter(BoundaryPolicy::TwoMeans),
            payload.len(),
        );
        let mf_errors = mf_received.iter().zip(payload).filter(|(a, b)| a != b).count();
        (rep.bit_errors, mf_errors)
    });
    result.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_else(|| "(non-string panic payload)".to_string())
    })
}

/// `None` when an L2 run died in one of the offline phase's known
/// failure modes: the defence broke calibration/alignment before a
/// single bit was sent. Any other panic is a genuine bug and fails the
/// sweep instead of masquerading as a defence success.
fn l2_collapse(outcome: Result<(usize, usize), String>) -> Option<(usize, usize)> {
    match outcome {
        Ok(v) => Some(v),
        Err(msg) => {
            let expected = msg.contains("aligned pairs")
                || msg.contains("alignment protocol")
                || msg.contains("page classification")
                || msg.contains("timing reverse engineering");
            assert!(expected, "L2 run died with an unexpected panic: {msg}");
            None
        }
    }
}

/// Benign-mix outcome under one defence.
#[derive(Debug, Clone)]
struct BenignOutcome {
    issued_accesses: u64,
}

/// Runs the [`BenignMix`] (no attacker at all) under `qos` for `cycles`
/// simulated cycles.
fn run_benign(qos: QosConfig, cycles: u64, seed: u64) -> BenignOutcome {
    let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, qos));
    let mix = BenignMix::new(&mut sys);
    let mut eng = Engine::new(&mut sys);
    mix.launch(&mut eng);
    eng.run(cycles).unwrap();
    drop(eng);
    BenignOutcome {
        issued_accesses: sys.stats().total().issued_accesses,
    }
}

fn main() {
    let mut payload_bits = 64usize;
    let mut cycles = 600_000u64;
    let mut seed = 0x5EC5u64;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--payload-bits=") {
            payload_bits = v.parse().expect("--payload-bits=N");
        } else if let Some(v) = arg.strip_prefix("--cycles=") {
            cycles = v.parse().expect("--cycles=N");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=S");
        }
    }
    let payload = seeded_payload(seed, payload_bits);
    let defs = defences(seed);

    report::header(
        "Extension — fabric QoS defences vs both covert-channel families",
        "rate limiting / pacing / jitter / valiant routing: security-performance frontier",
    );

    let fan = TrialRunner::new(seed);

    // --- link channel under every defence ------------------------------
    let link = fan.run(defs.len(), |t| run_link(defs[t.index].qos, &payload, seed));

    // --- benign mix under every defence --------------------------------
    let benign = fan.run(defs.len(), |t| run_benign(defs[t.index].qos, cycles, seed));
    let base_accesses = benign[0].issued_accesses;

    // --- L2 family (offline phase re-derived under the defence) -------
    // Suppress the panic trace only while probing whether the offline
    // phase survives each defence (a collapse is a legitimate outcome);
    // the hook is restored before any outcome is judged, so an
    // unexpected panic still reports its message.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let l2_raw = fan.run(defs.len(), |t| run_l2(defs[t.index].qos, &payload, seed));
    std::panic::set_hook(prev_hook);
    let l2: Vec<Option<(usize, usize)>> = l2_raw.into_iter().map(l2_collapse).collect();

    // --- offline-cache transparency at the L2 baseline point -----------
    // Re-run the baseline three ways — cache miss (derives), cache hit
    // (skips discovery entirely), and cache-free — through one explicit
    // local cache, and demand bit-identical channel output: the offline
    // cache must never change what the attack does, only what it costs.
    {
        let params = ChannelParams::default();
        let run_with = |cache: Option<&OfflineCache>| {
            let mut setup = AttackSetup::prepare_with_cache(
                fabric_dgx1(seed, defs[0].qos),
                GpuId::new(0),
                GpuId::new(5),
                cache,
            );
            let cached = setup.offline_cached;
            let pairs = setup.aligned_pairs(4);
            let medium = setup.medium(&pairs);
            let rep = transmit(
                &mut setup.sys,
                &medium,
                &payload,
                &params,
                &Pipeline::vote(BoundaryPolicy::TwoMeans),
            )
            .expect("L2 baseline transmission");
            (cached, rep.received, rep.bit_errors, rep.duration_cycles)
        };
        let local_cache = OfflineCache::new();
        let derived = run_with(Some(&local_cache));
        let reused = run_with(Some(&local_cache));
        let cache_free = run_with(None);
        assert!(!derived.0, "first cache run must derive");
        assert!(reused.0, "second cache run must reuse");
        assert!(!cache_free.0);
        assert_eq!(
            (&derived.1, derived.2, derived.3),
            (&reused.1, reused.2, reused.3),
            "cache hit changed the L2 baseline channel"
        );
        assert_eq!(
            (&derived.1, derived.2, derived.3),
            (&cache_free.1, cache_free.2, cache_free.3),
            "cache participation changed the L2 baseline channel"
        );
    }

    // --- gates ---------------------------------------------------------
    let ber = |e: usize| e as f64 / payload.len() as f64;
    assert!(
        ber(link[0].vote_errors) <= 0.05 && ber(link[0].mf_errors) <= 0.05,
        "undefended link channel must decode: vote {} mf {}",
        link[0].vote_errors,
        link[0].mf_errors
    );
    let l2_base = l2[0].expect("undefended L2 offline phase must succeed");
    assert!(
        ber(l2_base.0) <= 0.05,
        "undefended L2 channel must decode: {} errors",
        l2_base.0
    );
    let mut deployable = Vec::new();
    for ((d, lo), b) in defs.iter().zip(&link).zip(&benign) {
        let cost = 1.0 - b.issued_accesses as f64 / base_accesses as f64;
        if d.full {
            assert!(
                ber(lo.vote_errors) >= 0.25 && ber(lo.mf_errors) >= 0.25,
                "[{}] must push link BER >= 25% on both decoders: vote {:.1}% mf {:.1}%",
                d.label,
                100.0 * ber(lo.vote_errors),
                100.0 * ber(lo.mf_errors)
            );
            assert!(
                cost <= 0.60,
                "[{}] benign throughput cost {:.1}% exceeds the 60% bound",
                d.label,
                100.0 * cost
            );
        }
        if ber(lo.vote_errors) >= 0.25 && ber(lo.mf_errors) >= 0.25 && cost <= 0.15 {
            deployable.push(d.label);
        }
    }
    assert!(
        !deployable.is_empty(),
        "at least one defence must break the link channel at <= 15% benign cost"
    );

    // --- report --------------------------------------------------------
    println!(
        "\n{:>22} | {:>13} | {:>13} | {:>17} | {:>11}",
        "defence", "link vote BER", "link m.f. BER", "L2 vote/m.f. BER", "benign cost"
    );
    println!(
        "{}-+-{}-+-{}-+-{}-+-{}",
        "-".repeat(22),
        "-".repeat(13),
        "-".repeat(13),
        "-".repeat(17),
        "-".repeat(11)
    );
    for (((d, lo), b), l2o) in defs.iter().zip(&link).zip(&benign).zip(&l2) {
        let cost = 1.0 - b.issued_accesses as f64 / base_accesses as f64;
        println!(
            "{:>22} | {:>13} | {:>13} | {:>17} | {:>11}",
            d.label,
            format!("{:.1}%", 100.0 * ber(lo.vote_errors)),
            format!("{:.1}%", 100.0 * ber(lo.mf_errors)),
            match l2o {
                Some((v, m)) => format!("{:.1}% / {:.1}%", 100.0 * ber(*v), 100.0 * ber(*m)),
                None => "offline collapse".to_string(),
            },
            format!("{:.1}%", 100.0 * cost),
        );
    }

    println!("\ndeployable frontier (link BER >= 25% on both decoders at <= 15% cost):");
    for label in &deployable {
        println!("  {label}");
    }
    println!(
        "\nThe bandwidth trojan needs *sustained* single-link saturation:\n\
         per-tenant token buckets starve exactly that while benign\n\
         traffic — scalar self-clocked loads that never outrun the\n\
         refill — passes untouched, the interconnect analogue of MIG\n\
         partitioning and the frontier's free lunch. Pacing and jitter\n\
         instead *inject* timing noise at the link: they destroy the\n\
         slot structure both decoders need, cost every fabric-crossing\n\
         tenant visibly, and are blunt enough to collapse even the L2\n\
         family's offline phase (eviction discovery stops converging).\n\
         Valiant routing removes the single-link rendezvous itself.\n\
         The sharpest taxonomy line is the 50% rate-limit row: the\n\
         link channel dies at zero benign cost while the L2\n\
         Prime+Probe channel — riding cache state, not link\n\
         bandwidth — decodes clean through it; bandwidth isolation\n\
         closes the congestion family only, and closing the cache\n\
         family still takes ext_partition_defense's L2 slicing. Only\n\
         the 10% limit bites the L2 spy too: its own 16-line warp\n\
         probes then outrun the refill and inherit backlog-dependent\n\
         delays."
    );
}
