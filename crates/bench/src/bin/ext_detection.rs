//! Extension — **online covert-channel detection**: the ROC-style
//! sweep of the streaming monitor ([`gpubox_sim::monitor`]) against
//! both channel families, a no-attack control, an evasion sweep, and
//! the detect-then-throttle response arm.
//!
//! The PR 5 defences (`ext_fabric_defense` / `ext_partition_defense`)
//! are *always on*: they cost benign tenants 8–15% throughput whether
//! or not anyone is attacking. This binary closes the defence
//! taxonomy's missing column — prevent / **detect** / respond — by
//! running the per-window [`Monitor`] (EWMA residual, one-sided CUSUM
//! and slot-clock autocorrelation over diffed `SystemStats` counters)
//! over:
//!
//! - the **benign multi-tenant mix** ([`BenignMix`]: trace replays plus
//!   bursty noise kernels, half the tenants streaming over NVLink)
//!   across several seeds — the no-attack control that fixes the
//!   false-positive column;
//! - the **NVLink-congestion trojan** launched into the same benign
//!   mix after the monitor's warm-up, across an **evasion sweep**
//!   (duty cycle × slot jitter, [`ChannelParams::trojan_duty_pct`] /
//!   [`ChannelParams::trojan_slot_jitter`]) — detection latency vs
//!   trojan stealth;
//! - the **L2 Prime+Probe trojan** (offline phase included, via
//!   [`AttackSetup`]) launched into the same mix — the cache-side
//!   family, detected through per-GPU `l2_misses` rather than link
//!   counters;
//! - the **respond arm**: the noiseless link channel under (a) no
//!   defence, (b) the PR 5 full-strength grant pacing always on, (c)
//!   the same pacing deployed *only on alarmed links* at first alarm
//!   ([`MultiGpuSystem::set_qos`] + [`gpubox_sim::QosScope::links_mask`]) —
//!   detect-then-throttle;
//! - a two-node **fleet health** scenario: one clean node, one node
//!   under attack, folded through [`FleetMonitor`] into per-tenant
//!   suspicion scores and a Prometheus-text artifact.
//!
//! CI gates enforced in-process:
//! - **zero false alarms** on every benign control seed (default
//!   detector config);
//! - **both channel families detected before a 64-bit payload
//!   completes** (full-duty trojans, default config);
//! - the responsive arm matches the always-on arm's attack degradation
//!   (BER >= 25%) at **strictly lower benign cost**;
//! - the decoded ROC table is byte-identical across `--threads=1` and
//!   `--threads=4` invocations (diffed in CI, like
//!   `ext_fleet_placement`).
//!
//! Every scenario runs once. Fan-out invariance is proven where it
//! lives: the runner's `parallel_matches_serial_bitwise`.
//!
//! Usage: `ext_detection [--threads=N] [--seed=S]`

use gpubox_attacks::{BoundaryPolicy, ChannelParams, Pipeline, Transmission, TrialRunner};
use gpubox_bench::{
    fabric_dgx1, link_params, report, seeded_payload, AttackSetup, BenignMix, LinkEndpoints,
};
use gpubox_sim::fleet::TenantId;
use gpubox_sim::telemetry::MetricSet;
use gpubox_sim::{
    run_windowed, Engine, FleetMonitor, GpuId, Monitor, MonitorConfig, MultiGpuSystem, QosConfig,
};

const SEED: u64 = 0xDE7EC;
/// Benign-mix horizon, cycles (400 monitor windows).
const BENIGN_CYCLES: u64 = 600_000;
/// Attack launch cycle: past the monitor's 64-window warm-up plus a
/// 16-window armed-but-quiet margin, so a pre-attack alarm is a false
/// positive by construction.
const ATTACK_START: u64 = 120_000;

/// The detector configurations swept (the ROC axis).
fn detector_configs() -> Vec<(&'static str, MonitorConfig)> {
    vec![
        ("default", MonitorConfig::default()),
        (
            "sensitive",
            MonitorConfig {
                ewma_floor: 100,
                cusum_drift_floor: 100,
                cusum_threshold: 4_000,
                min_power: 10_000,
                corr_threshold_milli: 600,
                ..MonitorConfig::default()
            },
        ),
    ]
}

/// The PR 5 full-strength defence reused by both respond arms: the
/// `ext_fabric_defense` "pacing 3k" point. It breaks the link channel
/// outright *and* — unlike the token-bucket rate limits, whose benign
/// cost is ~zero on this mix — taxes every fabric-crossing tenant,
/// which is exactly the cost the responsive arm exists to avoid.
fn full_qos() -> QosConfig {
    QosConfig::off().with_pacing(3_000)
}

/// Runs `sys` window by window under a fresh `mon_cfg` monitor, with
/// `respond` armed: the benign `mix` (if any) is launched first, then
/// `tx` (if any) deferred to [`ATTACK_START`]. Runs to the
/// transmission's grace end, or to [`BENIGN_CYCLES`] without one.
/// Returns the monitor, the end clock and the respond deploy cycle.
fn run_monitored(
    sys: &mut MultiGpuSystem,
    mix: Option<BenignMix>,
    tx: Option<&mut Transmission<'_>>,
    mon_cfg: &MonitorConfig,
    respond: Option<&QosConfig>,
) -> (Monitor, u64, Option<u64>) {
    let num_links = sys.config().topology.num_links();
    let mut mon = Monitor::new(mon_cfg.clone(), num_links, sys.config().num_gpus as usize);
    let mut eng = Engine::new(sys);
    if let Some(mix) = mix {
        mix.launch(&mut eng);
    }
    let until = tx.map_or(BENIGN_CYCLES, |tx| {
        tx.install(&mut eng, ATTACK_START);
        tx.grace_end()
    });
    mon.prime(eng.system().stats());
    let (end, deployed) = run_windowed(&mut eng, &mut mon, until, respond).expect("engine run");
    (mon, end, deployed)
}

/// One benign-control run: the 8-tenant mix, no attacker, monitor on.
#[derive(Debug, Clone)]
struct BenignRun {
    alarms: usize,
    issued_accesses: u64,
    deploy_cycle: Option<u64>,
}

fn run_benign_monitored(
    mon_cfg: &MonitorConfig,
    qos: QosConfig,
    respond: Option<&QosConfig>,
    seed: u64,
) -> BenignRun {
    let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, qos));
    let mix = BenignMix::new(&mut sys);
    let (mon, _, deploy_cycle) = run_monitored(&mut sys, Some(mix), None, mon_cfg, respond);
    BenignRun {
        alarms: mon.channels_alarmed(),
        issued_accesses: sys.stats().total().issued_accesses,
        deploy_cycle,
    }
}

/// One attack-detection run.
#[derive(Debug, Clone)]
struct DetectOutcome {
    alarmed: bool,
    /// Cycles from the trojan launch to the latched alarm.
    latency: Option<u64>,
    /// Full bit slots the trojan drove before the alarm.
    slots_leaked: Option<u64>,
    detector: String,
    channel: String,
    /// Alarms latched before the trojan launch (false positives).
    pre_attack_alarms: usize,
    /// Total alarm-flagged windows across the latched channels — the
    /// trojan's contention footprint as the monitor scores it.
    /// Time-to-first-alarm saturates at the latch floor on a quiet
    /// link, and the sweep shows the footprint barely moves either:
    /// duty-cycle stretching shrinks each burst but not the number of
    /// windows the burst lands in, so per-window CUSUM keeps flagging.
    suspicion: u64,
}

impl DetectOutcome {
    /// This outcome as a row of the ROC table.
    fn row(&self, scenario: String, config: &str) -> RocRow {
        RocRow {
            scenario,
            config: config.into(),
            false_alarms: self.pre_attack_alarms,
            detected: self.alarmed,
            latency_cycles: self.latency,
            slots_leaked: self.slots_leaked,
            detector: self.detector.clone(),
            channel: self.channel.clone(),
            suspicion: self.suspicion,
        }
    }
}

fn outcome_from(mon: &Monitor, slot_cycles: u64) -> DetectOutcome {
    let pre_attack_alarms = mon
        .alarms()
        .iter()
        .filter(|a| a.cycle < ATTACK_START)
        .count();
    let first = mon.alarms().iter().find(|a| a.cycle >= ATTACK_START);
    DetectOutcome {
        alarmed: first.is_some(),
        latency: first.map(|a| a.cycle - ATTACK_START),
        slots_leaked: first.map(|a| (a.cycle - ATTACK_START) / slot_cycles),
        detector: first.map_or_else(String::new, |a| a.detector.name().to_string()),
        channel: first.map_or_else(String::new, |a| format!("{:?}", a.channel)),
        pre_attack_alarms,
        suspicion: mon.alarms().iter().map(|a| mon.suspicion(a.channel)).sum(),
    }
}

/// Launches the NVLink-congestion trojan (with the given evasion
/// knobs) into the benign mix after the monitor's warm-up and measures
/// time-to-detection.
fn run_link_detect(
    mon_cfg: &MonitorConfig,
    duty: u32,
    jitter: u64,
    payload: &[u8],
    seed: u64,
) -> DetectOutcome {
    let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, QosConfig::off()));
    let mix = BenignMix::new(&mut sys);
    let ends = LinkEndpoints::new(&mut sys, GpuId::new(1), GpuId::new(0), GpuId::new(5), 2);
    let params = ChannelParams {
        trojan_duty_pct: duty,
        trojan_slot_jitter: jitter,
        ..link_params()
    };
    let medium = ends.medium(4);
    let vote = Pipeline::vote(BoundaryPolicy::Quantile);
    let mut tx =
        Transmission::prepare(&mut sys, &medium, payload, &params, &vote).expect("medium prepare");
    let (mon, ..) = run_monitored(&mut sys, Some(mix), Some(&mut tx), mon_cfg, None);
    outcome_from(&mon, params.slot_cycles)
}

/// Launches the L2 Prime+Probe trojan (offline phase under no defence,
/// then the transmission deferred past warm-up) into the benign mix.
fn run_l2_detect(
    mon_cfg: &MonitorConfig,
    payload: &[u8],
    seed: u64,
) -> DetectOutcome {
    let params = ChannelParams::default();
    let mut setup = AttackSetup::prepare_fabric_qos(seed, GpuId::new(0), GpuId::new(5), QosConfig::off());
    let pairs = setup.aligned_pairs(4);
    let mix = BenignMix::new(&mut setup.sys);
    let medium = setup.medium(&pairs);
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let mut tx = Transmission::prepare(&mut setup.sys, &medium, payload, &params, &vote)
        .expect("medium prepare");
    let (mon, ..) = run_monitored(&mut setup.sys, Some(mix), Some(&mut tx), mon_cfg, None);
    outcome_from(&mon, params.slot_cycles)
}

/// One respond-arm run on the noiseless link channel.
#[derive(Debug, Clone)]
struct RespondOutcome {
    bit_errors: usize,
    deploy_cycle: Option<u64>,
    alarmed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    NoDefence,
    AlwaysOn,
    Responsive,
}

fn run_link_respond(arm: Arm, payload: &[u8], seed: u64) -> RespondOutcome {
    let boot_qos = match arm {
        Arm::AlwaysOn => full_qos(),
        _ => QosConfig::off(),
    };
    let mut sys = MultiGpuSystem::new(fabric_dgx1(seed, boot_qos).noiseless());
    let ends = LinkEndpoints::new(&mut sys, GpuId::new(1), GpuId::new(0), GpuId::new(5), 2);
    let params = link_params();
    let medium = ends.medium(4);
    let vote = Pipeline::vote(BoundaryPolicy::Quantile);
    let mut tx =
        Transmission::prepare(&mut sys, &medium, payload, &params, &vote).expect("medium prepare");
    let respond_qos = full_qos();
    let respond = matches!(arm, Arm::Responsive).then_some(&respond_qos);
    let (mon, end, deploy_cycle) =
        run_monitored(&mut sys, None, Some(&mut tx), &MonitorConfig::default(), respond);
    RespondOutcome {
        bit_errors: tx.report(&sys, end).bit_errors,
        deploy_cycle,
        alarmed: mon.alarmed(),
    }
}

/// The two-node fleet health scenario: node 0 runs the benign mix
/// clean, node 1 runs the same mix with the link trojan launched at
/// [`ATTACK_START`]; both monitors fold through [`FleetMonitor`] into
/// per-tenant suspicion and one mergeable [`MetricSet`].
fn run_fleet_health(payload: &[u8], seed: u64) -> (MetricSet, Vec<(u32, u64)>, usize) {
    let horizon = 450_000u64;
    // Node 0: clean.
    let mut sys0 = MultiGpuSystem::new(fabric_dgx1(seed ^ 0xF1EE7, QosConfig::off()));
    let mix0 = BenignMix::new(&mut sys0);
    // Node 1: benign mix + deferred link trojan.
    let mut sys1 = MultiGpuSystem::new(fabric_dgx1(seed, QosConfig::off()));
    let mix1 = BenignMix::new(&mut sys1);
    let ends = LinkEndpoints::new(&mut sys1, GpuId::new(1), GpuId::new(0), GpuId::new(5), 2);
    let params = link_params();
    let medium = ends.medium(4);
    let vote = Pipeline::vote(BoundaryPolicy::Quantile);
    let mut tx =
        Transmission::prepare(&mut sys1, &medium, payload, &params, &vote).expect("medium prepare");

    let num_links = sys0.config().topology.num_links();
    let num_gpus = sys0.config().num_gpus as usize;
    let mut fleet = FleetMonitor::new(MonitorConfig::default(), 2, num_links, num_gpus, 8);
    let window = fleet.node(0).config().window_cycles;

    let mut eng0 = Engine::new(&mut sys0);
    mix0.launch(&mut eng0);
    let mut eng1 = Engine::new(&mut sys1);
    mix1.launch(&mut eng1);
    tx.install(&mut eng1, ATTACK_START);

    fleet.node_mut(0).prime(eng0.system().stats());
    fleet.node_mut(1).prime(eng1.system().stats());
    // Tenants 0/1 resident on the clean node, 2/3 on the attacked one.
    let mut w = 0u64;
    while w * window < horizon {
        let end = ((w + 1) * window).min(horizon);
        eng0.run(end).expect("node 0");
        fleet.observe_node(0, eng0.system().stats(), &[TenantId(0), TenantId(1)]);
        eng1.run(end).expect("node 1");
        fleet.observe_node(1, eng1.system().stats(), &[TenantId(2), TenantId(3)]);
        w += 1;
    }
    let suspicion: Vec<(u32, u64)> = (0..4).map(|t| (t, fleet.suspicion(TenantId(t)))).collect();
    let alarmed_nodes = fleet.nodes_alarmed();
    (fleet.fold(), suspicion, alarmed_nodes)
}

#[derive(serde::Serialize)]
struct RocRow {
    scenario: String,
    config: String,
    false_alarms: usize,
    detected: bool,
    latency_cycles: Option<u64>,
    slots_leaked: Option<u64>,
    detector: String,
    channel: String,
    suspicion: u64,
}

#[derive(serde::Serialize)]
struct Artifact {
    seed: u64,
    payload_bits: usize,
    rows: Vec<RocRow>,
    benign_cost_always_on: f64,
    benign_cost_responsive: f64,
    attack_ber_no_defence: f64,
    attack_ber_always_on: f64,
    attack_ber_responsive: f64,
    responsive_deploy_cycle: Option<u64>,
    table_fingerprint: String,
}

fn main() {
    let mut threads: usize = 1;
    let mut seed = SEED;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v.parse().expect("--threads=N");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=S");
        } else {
            panic!("unknown argument {arg}");
        }
    }
    let payload = seeded_payload(seed, 64);
    let configs = detector_configs();

    report::header(
        "Extension — online covert-channel detection",
        "streaming EWMA/CUSUM/periodicity monitor: false positives, time-to-detection, evasion, respond",
    );

    let mut rows: Vec<RocRow> = Vec::new();

    // --- benign controls (the false-positive column) -------------------
    let benign_seeds = [seed + 10, seed + 11, seed + 12];
    let mut base_accesses = 0u64;
    for (cname, mcfg) in &configs {
        for (i, &s) in benign_seeds.iter().enumerate() {
            let r = run_benign_monitored(mcfg, QosConfig::off(), None, s);
            if *cname == "default" {
                assert_eq!(
                    r.alarms, 0,
                    "[gate] false alarm on benign control seed {s} (default config)"
                );
                if i == 0 {
                    base_accesses = r.issued_accesses;
                }
            }
            rows.push(RocRow {
                scenario: format!("benign seed {}", i),
                config: cname.to_string(),
                false_alarms: r.alarms,
                detected: false,
                latency_cycles: None,
                slots_leaked: None,
                detector: String::new(),
                channel: String::new(),
                suspicion: 0,
            });
        }
    }

    // --- link-congestion trojan: detection vs evasion ------------------
    let evasion: Vec<(u32, u64)> = vec![(100, 0), (100, 1500), (60, 0), (60, 1500), (30, 0), (30, 1500)];
    let fan = if threads > 1 {
        TrialRunner::new(seed)
    } else {
        TrialRunner::serial(seed)
    };
    let link_rows = fan.run(evasion.len(), |t| {
        let (duty, jitter) = evasion[t.index];
        run_link_detect(&configs[0].1, duty, jitter, &payload, seed)
    });

    let link_deadline = (payload.len() + ChannelParams::default().preamble_bits) as u64
        * ChannelParams::default().slot_cycles;
    for ((duty, jitter), o) in evasion.iter().zip(&link_rows) {
        assert_eq!(
            o.pre_attack_alarms, 0,
            "false alarm before the link trojan launched (duty {duty}%)"
        );
        if *duty == 100 && *jitter == 0 {
            assert!(o.alarmed, "[gate] full-duty link trojan went undetected");
            assert!(
                o.latency.unwrap() < link_deadline,
                "[gate] link trojan detected only after the 64-bit payload completed \
                 ({} >= {link_deadline} cycles)",
                o.latency.unwrap()
            );
        }
        rows.push(o.row(format!("link trojan duty={duty}% jitter={jitter}"), "default"));
    }
    // The sensitive config on the stealthiest point.
    let stealthy = run_link_detect(&configs[1].1, 30, 1500, &payload, seed);
    rows.push(stealthy.row("link trojan duty=30% jitter=1500".into(), "sensitive"));

    // --- L2 Prime+Probe trojan -----------------------------------------
    let l2 = run_l2_detect(&configs[0].1, &payload, seed);
    assert_eq!(l2.pre_attack_alarms, 0, "false alarm before the L2 trojan launched");
    assert!(l2.alarmed, "[gate] L2 trojan went undetected");
    // 64 bits striped over 4 lanes: the payload completes after the
    // longest lane frame (16 payload + 16 preamble slots).
    let l2_deadline =
        (64 / 4 + ChannelParams::default().preamble_bits) as u64 * ChannelParams::default().slot_cycles;
    assert!(
        l2.latency.unwrap() < l2_deadline,
        "[gate] L2 trojan detected only after the 64-bit payload completed \
         ({} >= {l2_deadline} cycles)",
        l2.latency.unwrap()
    );
    rows.push(l2.row("l2 prime+probe trojan".into(), "default"));

    // --- respond arms: no defence / always-on / detect-then-throttle ---
    let none = run_link_respond(Arm::NoDefence, &payload, seed);
    let always = run_link_respond(Arm::AlwaysOn, &payload, seed);
    let responsive = run_link_respond(Arm::Responsive, &payload, seed);
    let ber = |e: usize| e as f64 / payload.len() as f64;
    assert!(
        ber(none.bit_errors) <= 0.05,
        "undefended link channel must decode ({} errors)",
        none.bit_errors
    );
    assert!(responsive.alarmed, "responsive arm never alarmed");
    assert!(
        responsive.deploy_cycle.is_some(),
        "responsive arm never deployed QoS"
    );
    assert!(
        ber(always.bit_errors) >= 0.25 && ber(responsive.bit_errors) >= 0.25,
        "[gate] both QoS arms must break the channel: always-on {:.1}% responsive {:.1}%",
        100.0 * ber(always.bit_errors),
        100.0 * ber(responsive.bit_errors)
    );

    // Benign cost of each arm on the no-attack mix: always-on pays the
    // PR 5 throughput tax around the clock; responsive deploys nothing
    // (zero alarms on the control) and costs nothing.
    let always_benign = run_benign_monitored(
        &configs[0].1,
        full_qos(),
        None,
        benign_seeds[0],
    );
    let responsive_qos = full_qos();
    let responsive_benign = run_benign_monitored(
        &configs[0].1,
        QosConfig::off(),
        Some(&responsive_qos),
        benign_seeds[0],
    );
    assert_eq!(
        responsive_benign.deploy_cycle, None,
        "responsive QoS deployed on a benign control"
    );
    let cost = |r: &BenignRun| 1.0 - r.issued_accesses as f64 / base_accesses as f64;
    let cost_always = cost(&always_benign);
    let cost_responsive = cost(&responsive_benign);
    assert!(
        cost_always > 0.0,
        "always-on QoS shows no benign cost ({cost_always:.4}) — nothing to save"
    );
    assert!(
        cost_responsive < cost_always,
        "[gate] responsive QoS must undercut the always-on benign cost \
         ({:.1}% vs {:.1}%)",
        100.0 * cost_responsive,
        100.0 * cost_always
    );

    // --- fleet health fold ---------------------------------------------
    let (fold, suspicion, alarmed_nodes) = run_fleet_health(&payload, seed);
    assert_eq!(alarmed_nodes, 1, "exactly the attacked node must alarm");
    assert_eq!(fold.counter("fleet.nodes"), 2);
    assert_eq!(fold.counter("fleet.nodes_alarmed"), 1);
    for &(t, s) in &suspicion {
        if t < 2 {
            assert_eq!(s, 0, "clean node's tenant {t} drew suspicion");
        } else {
            assert!(s > 0, "attacked node's tenant {t} drew no suspicion");
        }
    }

    // --- report ---------------------------------------------------------
    let mut table = String::new();
    table.push_str(&format!(
        "{:<38} | {:>9} | {:>3} | {:>8} | {:>12} | {:>6} | {:>9} | {:>11} | {}\n",
        "scenario", "config", "FP", "detected", "latency(cyc)", "slots", "suspicion", "detector", "channel"
    ));
    table.push_str(&format!("{}\n", "-".repeat(122)));
    for r in &rows {
        table.push_str(&format!(
            "{:<38} | {:>9} | {:>3} | {:>8} | {:>12} | {:>6} | {:>9} | {:>11} | {}\n",
            r.scenario,
            r.config,
            r.false_alarms,
            if r.detected { "yes" } else { "no" },
            r.latency_cycles.map_or("-".into(), |v| v.to_string()),
            r.slots_leaked.map_or("-".into(), |v| v.to_string()),
            r.suspicion,
            if r.detector.is_empty() { "-" } else { &r.detector },
            if r.channel.is_empty() { "-" } else { &r.channel },
        ));
    }
    table.push_str(&format!(
        "\nrespond arms (noiseless link channel, 64-bit payload):\n\
         {:>12} | {:>9} | {:>12}\n",
        "arm", "BER", "benign cost"
    ));
    for (label, o, c) in [
        ("no defence", &none, 0.0),
        ("always-on", &always, cost_always),
        ("responsive", &responsive, cost_responsive),
    ] {
        table.push_str(&format!(
            "{:>12} | {:>8.1}% | {:>11.1}%\n",
            label,
            100.0 * ber(o.bit_errors),
            100.0 * c
        ));
    }
    print!("{table}");
    println!(
        "\nfleet health: {alarmed_nodes}/2 nodes alarmed, per-tenant suspicion {:?}",
        suspicion
    );
    println!(
        "\nall gates passed: zero benign false alarms, both families detected\n\
         before a 64-bit payload completes, responsive QoS matches the\n\
         always-on arm's attack degradation at {:.1}% vs {:.1}% benign cost.\n\
         The evasion sweep's finding is negative for the attacker: duty-cycle\n\
         stretching and slot jitter leave both time-to-detection and the\n\
         flagged-window footprint essentially unchanged, because a bandwidth\n\
         trojan must still saturate the link inside every window it uses —\n\
         per-window CUSUM integrates exactly that. Stealth would require\n\
         hiding under co-resident benign load, which placement\n\
         (ext_fleet_placement) is the lever against.\n\
         CI diffs this table across --threads invocations.",
        100.0 * cost_responsive,
        100.0 * cost_always
    );

    let fp = report::fnv1a_bits(table.as_bytes());
    println!("\nROC table fingerprint: {fp:016x}");

    if std::fs::create_dir_all("results").is_ok() {
        let path = format!("results/detection_roc_t{threads}.txt");
        std::fs::write(&path, &table).expect("write ROC table");
        println!("[artefact] {path}");
        // Prometheus exposition of the fleet fold — the monitoring
        // surface a real deployment would scrape.
        let prom = fold.to_prometheus_text();
        std::fs::write("results/detection_metrics.prom", &prom).expect("write metrics.prom");
        println!("[artefact] results/detection_metrics.prom");
    }
    report::write_json(
        "EXT_detection",
        &Artifact {
            seed,
            payload_bits: payload.len(),
            rows,
            benign_cost_always_on: cost_always,
            benign_cost_responsive: cost_responsive,
            attack_ber_no_defence: ber(none.bit_errors),
            attack_ber_always_on: ber(always.bit_errors),
            attack_ber_responsive: ber(responsive.bit_errors),
            responsive_deploy_cycle: responsive.deploy_cycle,
            table_fingerprint: format!("{fp:016x}"),
        },
    );
}
