//! Extension — **deterministic fault injection vs the resilient covert
//! transport**: both channel families under the fabric's scheduled
//! fault plans ([`gpubox_sim::fault`]), naive pipeline against the
//! hardened one.
//!
//! The paper measures its channels on a healthy DGX-1; at fleet scale,
//! degraded and failing NVLink hardware is the steady state. This bin
//! sweeps **fault intensity × channel family × pipeline**:
//!
//! - fault intensities: healthy baseline, seeded transient stalls,
//!   a degraded link (×8 service cycles over a mid-transmission
//!   window), and the headline case — a **scheduled mid-transmission
//!   link failure** whose reroute changes the timing signature under
//!   the spy's feet;
//! - families: the **NVLink-congestion channel** on the minimal
//!   one-link fabric (2 GPUs, `FabricConfig::nvlink_v1`), where the
//!   failure forces the PCIe root-complex fallback — the worst-case
//!   level shift, every in-window sample ~3–4× the healthy levels —
//!   and the **L2 Prime+Probe channel** on the fabric-enabled DGX-1
//!   (trojan GPU0, spy GPU5, offline phase under the fabric), where
//!   downing link (1,5) reroutes the spy's remote probes mid-stream;
//! - pipelines: **naive** = the plain `transmit` with the
//!   per-sample vote and one self-calibrated boundary over the whole
//!   trace, **hardened** = [`transmit_resilient`]: matched filter +
//!   Hamming(7,4) + sequence-numbered CRC frames + fenced-boundary
//!   resync + bounded deterministic-backoff retransmission.
//!
//! The naive pipeline fails *globally*, not just inside the fault
//! window: the mis-levelled in-window samples drag the one
//! self-calibrated decision boundary above the healthy congested
//! level, so every slot of the transmission decodes wrong. The
//! hardened stack fences the outliers out of its calibration, confines
//! the damage to the faulted frames (which fail their CRC), and
//! re-sends them with a growing whole-slot backoff that shifts the
//! retry stream off the recurring fault window.
//!
//! Each family's sweep runs once, through one parallel [`TrialRunner`]
//! fan-out. Fan-out invariance is proven where it lives: the runner's
//! `parallel_matches_serial_bitwise`.
//!
//! CI gates:
//! - healthy baseline: both pipelines ≤ 5% BER on both families;
//! - **link failure: the hardened pipeline decodes ≤ 5% BER on both
//!   families while the naive vote pipeline is ≥ 25% on the link
//!   family** (the ISSUE 6 acceptance gate);
//! - the hardened pipeline stays ≤ 5% BER at *every* sweep point;
//! - the link outage actually exercises the fault machinery (reroutes
//!   or PCIe fallbacks observed, retransmissions spent).
//!
//! Usage: `ext_fault_resilience [--payload-bits=N] [--seed=S]`
//! (defaults: 64 bits, seed 0xFA17).

use gpubox_attacks::{
    transmit, transmit_resilient, BoundaryPolicy, ChannelParams, Coding, Pipeline, RetryConfig,
    TrialRunner,
};
use gpubox_bench::{report, seeded_payload, single_link_channel, AttackSetup};
use gpubox_sim::{FaultPlan, GpuId, Topology};

/// One fault intensity on the sweep. Windows are in slots so both
/// families place the fault mid-transmission regardless of their
/// `slot_cycles`.
#[derive(Debug, Clone, Copy)]
struct FaultCase {
    label: &'static str,
    kind: FaultKind,
    /// The scheduled mid-transmission link failure — the CI-gated
    /// point.
    gated: bool,
}

#[derive(Debug, Clone, Copy)]
enum FaultKind {
    Healthy,
    /// Seeded transient stalls on every hop (per-1024 rate, cycles).
    Stalls { per_1024: u64, cycles: u64 },
    /// Service-cycle multiplier on the target link over the window.
    Degraded { mult: u32, from_slot: u64, until_slot: u64 },
    /// The target link scheduled down over the window.
    Outage { from_slot: u64, until_slot: u64 },
}

impl FaultCase {
    /// Builds the case's plan against `link` with the family's slot
    /// length.
    fn plan(&self, link: u32, slot_cycles: u64, seed: u64) -> FaultPlan {
        match self.kind {
            FaultKind::Healthy => FaultPlan::none(),
            FaultKind::Stalls { per_1024, cycles } => {
                FaultPlan::none().with_stalls(seed ^ 0xFA11, per_1024, cycles)
            }
            FaultKind::Degraded { mult, from_slot, until_slot } => FaultPlan::none()
                .with_degraded(link, from_slot * slot_cycles, until_slot * slot_cycles, mult),
            FaultKind::Outage { from_slot, until_slot } => FaultPlan::none().with_link_down(
                link,
                from_slot * slot_cycles,
                until_slot * slot_cycles,
            ),
        }
    }
}

/// The sweep: intensities ordered from nothing to the headline
/// failure. The fault windows sit in the *tail* of the naive
/// transmission (a 64-bit payload spans slots 16..80 behind the
/// preamble) and inside the hardened round-1 span, so the retry
/// rounds' growing backoff can walk the re-sent frames off the window.
fn fault_cases() -> Vec<FaultCase> {
    vec![
        FaultCase {
            label: "healthy",
            kind: FaultKind::Healthy,
            gated: false,
        },
        FaultCase {
            label: "transient stalls",
            kind: FaultKind::Stalls {
                per_1024: 8,
                cycles: 600,
            },
            gated: false,
        },
        FaultCase {
            label: "degraded link x8",
            kind: FaultKind::Degraded {
                mult: 8,
                from_slot: 56,
                until_slot: 80,
            },
            gated: false,
        },
        FaultCase {
            label: "link outage (gated)",
            kind: FaultKind::Outage {
                from_slot: 56,
                until_slot: 80,
            },
            gated: true,
        },
    ]
}

/// The hardened transport's retransmission policy: small frames to
/// localise fault damage, a backoff (24 slots) close to the fault
/// window's width so successive retries step clear of it quickly.
fn retry_config() -> RetryConfig {
    RetryConfig {
        chunk_bits: 16,
        max_retries: 5,
        backoff_slots: 24,
        min_preamble_matches: 12,
    }
}

/// The hardened receive stack: matched filter + Hamming(7,4) behind a
/// 4-deep interleaver, on the family's boundary policy.
fn hardened_pipeline(policy: BoundaryPolicy) -> Pipeline {
    Pipeline::matched_filter(policy).with_coding(Coding::Hamming74 {
        interleave_depth: 4,
    })
}

/// One sweep point's outcome.
#[derive(Debug, Clone)]
struct Outcome {
    naive_errors: usize,
    hardened_errors: usize,
    rounds: usize,
    retransmissions: usize,
    sync_losses: usize,
    resyncs: usize,
    frames_delivered: usize,
    frames_total: usize,
    reroutes: u64,
    pcie_fallbacks: u64,
    degraded_hops: u64,
    transient_stalls: u64,
}

/// Runs one link-family sweep point: naive and hardened back to back
/// on fresh single-link fabrics (2 GPUs, both attacker processes on
/// GPU1, buffers homed on GPU0 — every transfer crosses NVLink link 0,
/// and downing it forces the PCIe root-complex fallback).
fn run_link(case: &FaultCase, payload: &[u8], seed: u64) -> Outcome {
    let build = || {
        let (mut sys, ends, params) = single_link_channel(seed);
        sys.set_fault_plan(case.plan(0, params.slot_cycles, seed))
            .unwrap();
        (sys, ends, params)
    };

    let (mut sys, ends, params) = build();
    let naive = transmit(
        &mut sys,
        &ends.medium(2),
        payload,
        &params,
        &Pipeline::vote(BoundaryPolicy::Quantile),
    )
    .expect("naive link transmission");

    let (mut sys, ends, params) = build();
    let hardened = transmit_resilient(
        &mut sys,
        &ends.medium(2),
        payload,
        &params,
        &hardened_pipeline(BoundaryPolicy::Quantile),
        &retry_config(),
    )
    .expect("hardened link transmission");
    let f = *sys.stats().fault();
    Outcome {
        naive_errors: naive.bit_errors,
        hardened_errors: hardened.bit_errors,
        rounds: hardened.rounds,
        retransmissions: hardened.retransmissions,
        sync_losses: hardened.sync_losses,
        resyncs: hardened.resyncs,
        frames_delivered: hardened.frames_delivered,
        frames_total: hardened.frames_total,
        reroutes: f.reroutes,
        pcie_fallbacks: f.pcie_fallbacks,
        degraded_hops: f.degraded_hops,
        transient_stalls: f.transient_stalls,
    }
}

/// Runs one L2-family sweep point on the fabric-enabled DGX-1 (trojan
/// GPU0, spy GPU5, offline phase run healthy, the fault installed
/// before transmission). The faulted link is (1,5) — the first hop of
/// the spy's canonical 5-1-0 probe route, so the outage reroutes its
/// remote probes mid-stream.
fn run_l2(case: &FaultCase, payload: &[u8], seed: u64) -> Outcome {
    let params = ChannelParams::default();
    let link = Topology::dgx1()
        .link_between(GpuId::new(1), GpuId::new(5))
        .expect("DGX-1 has a (1,5) link")
        .0;
    let run = |payload: &[u8], naive: bool| {
        let mut setup = AttackSetup::prepare_fabric(seed, GpuId::new(0), GpuId::new(5));
        let pairs = setup.aligned_pairs(4);
        setup
            .sys
            .set_fault_plan(case.plan(link, params.slot_cycles, seed))
            .unwrap();
        let medium = setup.medium(&pairs);
        if naive {
            let rep = transmit(
                &mut setup.sys,
                &medium,
                payload,
                &params,
                &Pipeline::vote(BoundaryPolicy::TwoMeans),
            )
            .expect("naive L2 transmission");
            (rep.bit_errors, None, *setup.sys.stats().fault())
        } else {
            let rep = transmit_resilient(
                &mut setup.sys,
                &medium,
                payload,
                &params,
                &hardened_pipeline(BoundaryPolicy::TwoMeans),
                &retry_config(),
            )
            .expect("hardened L2 transmission");
            let f = *setup.sys.stats().fault();
            (rep.bit_errors, Some(rep), f)
        }
    };
    let (naive_errors, _, _) = run(payload, true);
    let (hardened_errors, rep, f) = run(payload, false);
    let rep = rep.unwrap();
    Outcome {
        naive_errors,
        hardened_errors,
        rounds: rep.rounds,
        retransmissions: rep.retransmissions,
        sync_losses: rep.sync_losses,
        resyncs: rep.resyncs,
        frames_delivered: rep.frames_delivered,
        frames_total: rep.frames_total,
        reroutes: f.reroutes,
        pcie_fallbacks: f.pcie_fallbacks,
        degraded_hops: f.degraded_hops,
        transient_stalls: f.transient_stalls,
    }
}

fn main() {
    let mut payload_bits = 64usize;
    let mut seed = 0xFA17u64;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--payload-bits=") {
            payload_bits = v.parse().expect("--payload-bits=N");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=S");
        }
    }
    let payload = seeded_payload(seed, payload_bits);
    let cases = fault_cases();

    report::header(
        "Extension — fault injection vs the resilient covert transport",
        "scheduled link faults x {L2, link} family x {naive, MF+ECC+retry} pipeline",
    );

    let fan = TrialRunner::new(seed);

    // --- link family under every fault case ----------------------------
    let link = fan.run(cases.len(), |t| run_link(&cases[t.index], &payload, seed));

    // --- L2 family under every fault case ------------------------------
    let l2 = fan.run(cases.len(), |t| run_l2(&cases[t.index], &payload, seed));

    // --- gates (collected; asserted after the report prints) -----------
    let ber = |e: usize| e as f64 / payload.len() as f64;
    let mut gate_failures: Vec<String> = Vec::new();
    let mut gate = |ok: bool, msg: String| {
        if !ok {
            gate_failures.push(msg);
        }
    };
    for (c, o) in cases.iter().zip(&link) {
        gate(
            ber(o.hardened_errors) <= 0.05,
            format!(
                "[link/{}] hardened pipeline must stay <= 5% BER: {:.1}%",
                c.label,
                100.0 * ber(o.hardened_errors)
            ),
        );
        if matches!(c.kind, FaultKind::Healthy) {
            gate(
                ber(o.naive_errors) <= 0.05,
                format!(
                    "[link/healthy] naive baseline must decode: {:.1}%",
                    100.0 * ber(o.naive_errors)
                ),
            );
        }
        if c.gated {
            gate(
                ber(o.naive_errors) >= 0.25,
                format!(
                    "[link/{}] the naive vote pipeline must collapse: {:.1}%",
                    c.label,
                    100.0 * ber(o.naive_errors)
                ),
            );
            gate(
                o.pcie_fallbacks + o.reroutes > 0,
                format!("[link/{}] the outage must actually disturb the route", c.label),
            );
            gate(
                o.retransmissions > 0 && o.rounds > 1,
                format!("[link/{}] surviving the outage must cost retries", c.label),
            );
        }
    }
    for (c, o) in cases.iter().zip(&l2) {
        gate(
            ber(o.hardened_errors) <= 0.05,
            format!(
                "[L2/{}] hardened pipeline must stay <= 5% BER: {:.1}%",
                c.label,
                100.0 * ber(o.hardened_errors)
            ),
        );
        if matches!(c.kind, FaultKind::Healthy) {
            gate(
                ber(o.naive_errors) <= 0.05,
                format!(
                    "[L2/healthy] naive baseline must decode: {:.1}%",
                    100.0 * ber(o.naive_errors)
                ),
            );
        }
        if c.gated {
            gate(
                o.reroutes + o.pcie_fallbacks > 0,
                format!("[L2/{}] the outage must reroute the spy's probes", c.label),
            );
        }
    }

    // --- report --------------------------------------------------------
    println!(
        "\n{:>8} | {:>19} | {:>11} | {:>14} | {:>13} | {:>13}",
        "family", "fault", "naive BER", "hardened BER", "retx/rounds", "fault events"
    );
    println!(
        "{}-+-{}-+-{}-+-{}-+-{}-+-{}",
        "-".repeat(8),
        "-".repeat(19),
        "-".repeat(11),
        "-".repeat(14),
        "-".repeat(13),
        "-".repeat(13)
    );
    let row = |family: &str, label: &str, o: &Outcome| {
        let events = o.reroutes + o.pcie_fallbacks + o.degraded_hops + o.transient_stalls;
        println!(
            "{:>8} | {:>19} | {:>11} | {:>14} | {:>13} | {:>13}",
            family,
            label,
            format!("{:.1}%", 100.0 * ber(o.naive_errors)),
            format!("{:.1}%", 100.0 * ber(o.hardened_errors)),
            format!("{}/{}", o.retransmissions, o.rounds),
            events,
        );
    };
    for (c, o) in cases.iter().zip(&link) {
        row("link", c.label, o);
    }
    for (c, o) in cases.iter().zip(&l2) {
        row("L2", c.label, o);
    }

    let gated = cases.iter().position(|c| c.gated).unwrap();
    println!(
        "\ngated link failure: naive {:.1}% vs hardened {:.1}% BER \
         ({} of {} frames delivered over {} rounds, {} sync losses, {} resyncs)",
        100.0 * ber(link[gated].naive_errors),
        100.0 * ber(link[gated].hardened_errors),
        link[gated].frames_delivered,
        link[gated].frames_total,
        link[gated].rounds,
        link[gated].sync_losses,
        link[gated].resyncs,
    );
    println!(
        "\nThe naive pipeline does not merely lose the slots inside the\n\
         fault window: the window's mis-levelled samples (PCIe\n\
         round-trips once the one-link fabric loses its link) drag its\n\
         single self-calibrated decision boundary above the healthy\n\
         congested level, so the whole\n\
         transmission decodes wrong — a 30%-wide outage costs ~50% BER,\n\
         and even scattered transient stalls cost 20-30%. The hardened\n\
         stack survives every plan three ways, all deterministic:\n\
         outlier-fenced boundary recalibration confines the damage to\n\
         the faulted slots, the per-frame CRC + sequence numbers turn\n\
         those slots into identified missing frames instead of silent\n\
         corruption, and the whole-slot backoff walks each\n\
         retransmission off the recurring fault window. The L2 rows\n\
         split the taxonomy: the DGX-1 reroute around link (1,5) is\n\
         hop-count-neutral (5-1-0 -> 5-4-0), so the cache channel rides\n\
         through the outage even naively — the fault counters prove the\n\
         probes moved — while stalls, which no reroute can dodge, break\n\
         the naive decode on both families and only the retry stack\n\
         recovers."
    );
    assert!(
        gate_failures.is_empty(),
        "fault-resilience gates failed:\n  {}",
        gate_failures.join("\n  ")
    );
}
