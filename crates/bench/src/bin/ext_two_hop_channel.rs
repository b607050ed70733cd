//! Extension — **both covert channel families on one fabric-enabled
//! config**, head to head over multi-hop NVLink routes.
//!
//! The paper's central claim is that multi-GPU boxes leak over several
//! media with the same protocol on top. This sweep stages both media on
//! the *same* DGX-1 configuration — timed link fabric on
//! ([`gpubox_sim::FabricConfig::nvlink_v1`]), indirect peer routing allowed, full
//! timing noise — with the same seeded payload, and prints bandwidth
//! and bit error side by side, per decoder:
//!
//! - **Prime+Probe / L2** ([`gpubox_attacks::L2SetMedium`]): trojan on GPU0, spy on
//!   GPU5 (different quads, no direct link — every probe crosses a
//!   2-hop route paying real per-link occupancy). Four aligned set
//!   pairs; the offline phase re-derives thresholds with the fabric
//!   enabled, so the shifted 2-hop clusters (hit ≈ 990+, miss ≈ 1450+
//!   plus link serialisation) are absorbed by calibration.
//! - **Link congestion** ([`gpubox_attacks::LinkCongestionMedium`]): trojan on GPU1
//!   saturating its route to GPU5's memory, spy on GPU0 whose 0-1-5
//!   route shares link (1,5) — no shared cache set at all.
//!
//! Each family's trace is decoded by both the per-sample vote and the
//! matched filter (each with its medium's boundary policy) — the same
//! receive stack running on both media is precisely what the unified
//! pipeline buys.
//!
//! Both families run once, through one parallel [`TrialRunner`]
//! fan-out. Fan-out invariance is proven where it lives: the runner's
//! `parallel_matches_serial_bitwise`.
//!
//! Gate (CI): both families decode the seeded payload at ≤ 5% BER with
//! their default (vote) decoder.
//!
//! Usage: `ext_two_hop_channel [--payload-bits=N] [--seed=S]`
//! (defaults: 256 bits, seed 2525; CI passes `--payload-bits=128`).

use gpubox_attacks::{
    redecode_traces, transmit, BoundaryPolicy, ChannelParams, Pipeline, TrialRunner,
};
use gpubox_bench::{fabric_dgx1, link_params, report, seeded_payload, AttackSetup, LinkEndpoints};
use gpubox_sim::{GpuId, MultiGpuSystem, QosConfig};

/// One channel family on the shared configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    L2PrimeProbe,
    LinkCongestion,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::L2PrimeProbe => "L2 Prime+Probe (GPU0 -> GPU5, 2 hops)",
            Family::LinkCongestion => "link congestion (share link (1,5))",
        }
    }

    /// The boundary policy for this family's latency shape: 2-means for
    /// the Prime+Probe channel's tight hit/miss clusters, quantiles for
    /// the congestion channel's heavy tail.
    fn boundary(self) -> BoundaryPolicy {
        match self {
            Family::L2PrimeProbe => BoundaryPolicy::TwoMeans,
            Family::LinkCongestion => BoundaryPolicy::Quantile,
        }
    }

    /// Channel parameters, shared by the transmission and the
    /// matched-filter re-decode (they must agree on slot timing).
    fn params(self) -> ChannelParams {
        match self {
            Family::L2PrimeProbe => ChannelParams::default(),
            Family::LinkCongestion => link_params(),
        }
    }
}

/// Everything one family run observes.
#[derive(Debug, Clone)]
struct Outcome {
    vote_errors: usize,
    mf_errors: usize,
    bandwidth_bytes_per_sec: f64,
    /// Slot-latency percentiles (log2-bucket floors, cycles).
    slot_latency_p50: u64,
    slot_latency_p95: u64,
    slot_latency_p99: u64,
}

/// Runs one family once: transmits with the medium's default vote
/// pipeline, then re-decodes the same traces with the matched filter
/// (transport-independent receive stack — no second transmission
/// needed).
fn run_family(family: Family, payload: &[u8], seed: u64) -> Outcome {
    let params = family.params();
    let policy = family.boundary();
    let pipeline = Pipeline::vote(policy);
    let rep = match family {
        Family::L2PrimeProbe => {
            // prepare_fabric boots the link family's fabric_dgx1 config
            // — the one-config invariant is structural, not copied.
            let mut setup = AttackSetup::prepare_fabric(seed, GpuId::new(0), GpuId::new(5));
            let pairs = setup.aligned_pairs(4);
            let medium = setup.medium(&pairs);
            transmit(&mut setup.sys, &medium, payload, &params, &pipeline)
                .expect("L2 transmission")
        }
        Family::LinkCongestion => {
            let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, QosConfig::off()));
            let ends = LinkEndpoints::new(&mut sys, GpuId::new(1), GpuId::new(0), GpuId::new(5), 2);
            transmit(&mut sys, &ends.medium(4), payload, &params, &pipeline)
                .expect("link transmission")
        }
    };

    // Matched-filter re-decode of the same per-lane traces (same
    // `params`, so slot timing always matches the transmission), on the
    // one shared receive path `transmit` itself decodes through.
    let (mf_received, _) =
        redecode_traces(&rep.traces, &params, &Pipeline::matched_filter(policy), payload.len());
    let mf_errors = mf_received.iter().zip(payload).filter(|(a, b)| a != b).count();
    Outcome {
        vote_errors: rep.bit_errors,
        mf_errors,
        bandwidth_bytes_per_sec: rep.bandwidth_bytes_per_sec,
        slot_latency_p50: rep.slot_latency_p50,
        slot_latency_p95: rep.slot_latency_p95,
        slot_latency_p99: rep.slot_latency_p99,
    }
}

fn main() {
    let mut payload_bits = 256usize;
    let mut seed = 2525u64;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--payload-bits=") {
            payload_bits = v.parse().expect("--payload-bits=N");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=S");
        }
    }
    let payload = seeded_payload(seed, payload_bits);

    report::header(
        "Extension — both channel families on one fabric-enabled DGX-1",
        "L2 Prime+Probe vs NVLink congestion: same config, same payload, decoders side by side",
    );

    let families = [Family::L2PrimeProbe, Family::LinkCongestion];

    let outcomes = TrialRunner::new(seed).run(families.len(), |t| {
        run_family(families[t.index], &payload, seed)
    });

    // Acceptance gate: both families decode within 5% BER on their
    // default (vote) decoder, on the one shared config.
    for (f, o) in families.iter().zip(&outcomes) {
        let ber = o.vote_errors as f64 / payload.len() as f64;
        assert!(
            ber <= 0.05,
            "[{}] vote BER {ber} exceeds 5%",
            f.label()
        );
    }

    println!(
        "\n{:>38} | {:>14} | {:>14} | {:>14} | {:>20}",
        "family (one DGX-1, fabric on, noisy)",
        "bandwidth",
        "vote BER",
        "m.filter BER",
        "slot lat p50/p95/p99"
    );
    println!(
        "{}-+-{}-+-{}-+-{}-+-{}",
        "-".repeat(38),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(20)
    );
    for (f, o) in families.iter().zip(&outcomes) {
        println!(
            "{:>38} | {:>14} | {:>14} | {:>14} | {:>20}",
            f.label(),
            format!("{:.1} KB/s", o.bandwidth_bytes_per_sec / 1e3),
            format!(
                "{}/{} ({:.1}%)",
                o.vote_errors,
                payload.len(),
                100.0 * o.vote_errors as f64 / payload.len() as f64
            ),
            format!(
                "{}/{} ({:.1}%)",
                o.mf_errors,
                payload.len(),
                100.0 * o.mf_errors as f64 / payload.len() as f64
            ),
            format!(
                "{}/{}/{}",
                o.slot_latency_p50, o.slot_latency_p95, o.slot_latency_p99
            ),
        );
    }

    println!(
        "\nboth families ran on the identical fabric-enabled configuration\n\
         (timed per-link occupancy, indirect peer routing, full timing\n\
         noise) with the identical {payload_bits}-bit seeded payload. The L2\n\
         channel stripes bits over four aligned set pairs and wins on raw\n\
         bandwidth; the congestion channel needs no shared cache set at\n\
         all — the fabric's link occupancy alone carries it. One medium\n\
         trait, one pipeline, two physical media: the paper's point,\n\
         reproduced end to end."
    );
}
