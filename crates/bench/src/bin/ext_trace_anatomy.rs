//! Extension — **anatomy of one hardened transmission**, rendered from
//! the cycle-accurate event trace ([`gpubox_sim::telemetry`]).
//!
//! Re-runs the headline `ext_fault_resilience` scenario — the resilient
//! transport ([`gpubox_attacks::transmit_resilient`]) pushing a payload
//! through a **scheduled mid-transmission link outage** on the one-link
//! NVLink fabric — with full tracing enabled, then renders what the box
//! actually did as overlapping spans:
//!
//! - track 0: the **installed fault window** (from the `FaultPlan`,
//!   recorded at `set_fault_plan` time);
//! - track 1: the window of fault responses the fabric **observed**
//!   (down-link stall waits, reroutes, PCIe fallbacks);
//! - track 2: every engine **round** of the transport — round 0
//!   colliding with the outage, the backed-off retries clearing it —
//!   with the frame seal/open, resync and boundary-recalibration
//!   events in between.
//!
//! Artefacts: `results/trace_anatomy.json` (Chrome `trace_event`
//! format — load it at <https://ui.perfetto.dev>) plus a compact human
//! timeline on stdout.
//!
//! CI gates:
//! - the exported trace is **valid JSON** (checked with the
//!   dependency-free validator);
//! - the trace's fault-window span **matches the installed
//!   `FaultPlan` epoch exactly**, and the observed down-waits fall
//!   inside it;
//! - the traced run decodes bit-error-free through the outage with at
//!   least one retry round (same behaviour as the untraced
//!   `ext_fault_resilience` gate — tracing must not change outcomes);
//! - the ring dropped no records (the anatomy is complete).
//!
//! Usage: `ext_trace_anatomy`

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::{
    extract_anatomy, transmit_resilient, BoundaryPolicy, Pipeline, RetryConfig,
};
use gpubox_bench::{report, single_link_channel};
use gpubox_sim::telemetry::{chrome_trace_json, human_timeline, validate_json, TraceKind};
use gpubox_sim::FaultPlan;

fn main() {
    report::header(
        "EXT: trace anatomy — one hardened transmission through a link outage",
        "extension beyond the paper (observability; scenario of ISSUE 6's fault gate)",
    );

    // 42 is `SystemConfig::small_test`'s default seed.
    let (mut sys, ends, params) = single_link_channel(42);

    // Tracing on BEFORE the fault plan is installed, so the plan's
    // epoch records land in the ring next to the stalls observed later.
    sys.enable_tracing(1 << 19);

    // The outage window of `ext_fault_resilience`'s headline case: the
    // only NVLink link down over the last quarter of round 0. Agent
    // clocks restart at zero every round, so the window recurs each
    // round; the growing backoff shifts the shorter retry streams off
    // it.
    let outage_from = 150 * params.slot_cycles;
    let outage_until = 176 * params.slot_cycles;
    sys.set_fault_plan(FaultPlan::none().with_link_down(0, outage_from, outage_until))
        .unwrap();

    let payload = bits_from_bytes(b"survive it");
    let rep = transmit_resilient(
        &mut sys,
        &ends.medium(2),
        &payload,
        &params,
        &Pipeline::vote(BoundaryPolicy::Quantile),
        &RetryConfig {
            max_retries: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let dropped = sys.trace().dropped();
    let recorded = sys.trace().recorded();
    let records = sys.trace().records();
    let anatomy = extract_anatomy(&records);
    let spans = anatomy.spans();

    println!(
        "\ntransmission: {} bits, {} frames, {} rounds, {} retransmissions, {} bit errors",
        rep.sent.len(),
        rep.frames_total,
        rep.rounds,
        rep.retransmissions,
        rep.bit_errors
    );
    println!(
        "trace: {recorded} records ({dropped} dropped), {} fault epochs, {} seals, {}+{} opens (ok+failed), {} resyncs, {} boundaries recalibrated",
        anatomy.fault_epochs.len(),
        anatomy.frame_seals,
        anatomy.frame_opens_ok,
        anatomy.frame_opens_failed,
        anatomy.resyncs,
        anatomy.boundaries_chosen
    );
    println!(
        "fault response: {} PCIe fallbacks, {} reroutes (the one-link fabric can only fall back)",
        anatomy.pcie_fallbacks, anatomy.reroutes
    );

    println!("\n-- timeline (spans + key events) --");
    let key_events: Vec<_> = records
        .iter()
        .filter(|r| {
            matches!(
                r.kind,
                TraceKind::FaultEpoch
                    | TraceKind::FrameSeal
                    | TraceKind::FrameOpen
                    | TraceKind::RetryRound
                    | TraceKind::Resync
                    | TraceKind::BoundaryChosen
                    | TraceKind::PcieFallback
                    | TraceKind::FaultReroute
            )
        })
        .copied()
        .collect();
    print!("{}", human_timeline(&key_events, &spans, 60));

    let json = chrome_trace_json(&records, &spans);
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("trace_anatomy.json");
        match std::fs::write(&path, &json) {
            Ok(()) => println!(
                "\n[artefact] {} ({} bytes — load at https://ui.perfetto.dev)",
                path.display(),
                json.len()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    // A saturated ring means every span/count above under-reports the
    // run — surface that in RESULTS.json before the hard gate fires.
    if dropped > 0 {
        report::warn(
            "ext_trace_anatomy",
            &format!("TraceSink dropped {dropped} records — trace spans under-report the run"),
        );
    }

    // Gates.
    assert_eq!(dropped, 0, "ring must hold the whole run (raise capacity)");
    validate_json(&json).expect("exported trace must be valid Chrome trace_event JSON");
    assert_eq!(rep.bit_errors, 0, "tracing must not change outcomes");
    assert!(rep.rounds > 1, "the outage must cost at least one retry");
    assert_eq!(
        anatomy.fault_epochs.len(),
        1,
        "one installed outage, one epoch span"
    );
    let epoch = &anatomy.fault_epochs[0];
    assert_eq!(
        (epoch.start, epoch.end),
        (outage_from, outage_until),
        "fault-window span must match the installed FaultPlan epoch"
    );
    let observed = anatomy
        .observed_fault
        .as_ref()
        .expect("the outage must actually divert or stall lines");
    assert!(
        observed.start >= epoch.start && observed.end <= epoch.end,
        "observed fault responses ({}..{}) must fall inside the installed window ({}..{})",
        observed.start,
        observed.end,
        epoch.start,
        epoch.end
    );
    assert_eq!(
        anatomy.rounds.len(),
        rep.rounds,
        "one round span per engine round"
    );
    assert!(
        anatomy.frame_opens_ok >= rep.frames_total as u64,
        "every frame eventually delivered must have an open record"
    );

    println!("\nall trace-anatomy gates passed");
}
