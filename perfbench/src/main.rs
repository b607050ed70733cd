//! Host-time benchmark of the gpubox simulator and attacks.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload on one thread: a warm-up repetition, then
//! repetitions of set-up plus one identical unit of work until about
//! `--seconds` of on-CPU time are measured. With `--trace 0` the last line of
//! standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` untraced and traced repetitions alternate and it holds
//! the per-layer metrics. End-to-end times are scaled to the reference
//! host by a fixed kernel timed in the same run (`host::reference`).
//! `--tiny` shrinks every workload for a quick self-test. See `README.md`
//! beside this crate for the design.

mod covert;
mod fleet;
mod host;
mod side;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use host::{CountingAlloc, CpuClock, HostReport, HostWindow};
use trace::Tracer;
use workload::{Check, Counts, UnitOut, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_accesses_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("timing_re.cpu_s", "s"),
    ("eviction.cpu_s", "s"),
    ("eviction.sim_accesses", "count"),
    ("alignment.cpu_s", "s"),
    ("sim.access_ns_local", "ns"),
    ("sim.access_ns_remote", "ns"),
    ("sim.access_ns_2hop", "ns"),
    ("sim.issued_accesses", "count"),
    ("sim.l2_hits", "count"),
    ("sim.l2_misses", "count"),
    ("sim.l2_hit_ratio", "ratio"),
    ("fabric.requests", "count"),
    ("fabric.link_bytes", "bytes"),
    ("fabric.busy_cycles", "cycles"),
    ("fabric.queue_cycles", "cycles"),
    ("covert.transmit_cpu_s", "s"),
    ("covert.decode_cpu_s", "s"),
    ("covert.bits", "count"),
    ("covert.bit_errors", "count"),
    ("covert.sim_bandwidth_mb_s", "MB/s"),
    ("side.record_cpu_s_p50", "s"),
    ("side.records", "count"),
    ("workloads.build_cpu_s", "s"),
    ("classify.train_cpu_s", "s"),
    ("side.sweeps", "count"),
    ("classify.test_accuracy", "ratio"),
    ("side.misidentified", "count"),
    ("fleet.new_cpu_s", "s"),
    ("fleet.epoch_us_p50", "us"),
    ("fleet.epoch_us_p90", "us"),
    ("fleet.epochs", "count"),
    ("fleet.node_epochs", "count"),
    ("fleet.accesses", "count"),
    ("fleet.queued_end", "count"),
    ("fleet.coresidency", "ratio"),
    ("host.wall_s", "s"),
    ("host.steal_s", "s"),
    ("host.runqueue_wait_s", "s"),
    ("host.on_cpu_s", "s"),
    ("host.cpus", "count"),
    ("host.calibration_ns", "ns"),
    ("host.calibration_ns_after", "ns"),
    ("host.reference_ns", "ns"),
    ("host.trace_overhead", "ratio"),
    ("host.threads_max", "count"),
    ("host.reps", "count"),
];

const WORKLOADS: &[&str] = &[
    "covert_l2_noisy",
    "covert_link_fabric",
    "side_fingerprint",
    "fleet_pack",
];

/// Measured repetitions each kind of run needs at least, whatever
/// `--seconds` says (one with `--tiny`).
const MIN_REPS: usize = 3;
/// Set-up samples a run takes at least: a workload whose units are long
/// gets extra set-ups, timed and dropped, after its last repetition.
const MIN_SETUP_SAMPLES: usize = 15;
/// Wall-clock limit of the measuring loop, so a run ends well inside the
/// three minutes it is allowed even when the host is starved.
const WALL_CAP: Duration = Duration::from_secs(120);

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--tiny" => tiny = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile, `q` in [0, 1]; 0 for no samples.
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples of one kind of repetition (traced or untraced).
#[derive(Debug, Default)]
struct Samples {
    setup_ns: Vec<f64>,
    unit_ns: Vec<f64>,
}

/// Everything one run measured.
#[derive(Debug)]
struct Run {
    untraced: Samples,
    traced: Samples,
    last: UnitOut,
    attempted: u64,
    failed: u64,
    probes: Counts,
    threads_max: usize,
    host: HostReport,
    calibration_ns: (u64, u64),
    /// On-CPU nanoseconds of each reference-kernel sample.
    reference_ns: Vec<f64>,
}

impl Run {
    /// Factor that turns this run's on-CPU times into times on the
    /// reference host: the reference kernel's nominal over its median here.
    fn host_scale(&self) -> f64 {
        host::REFERENCE_NOMINAL_NS / median(&self.reference_ns)
    }
}

fn same_counts(a: &Counts, b: &Counts) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((na, va), (nb, vb))| na == nb && va.to_bits() == vb.to_bits())
}

/// The measuring loop. Returns an error if simulated counts differ
/// between repetitions.
fn run<W: Workload>(
    w: &W,
    args: &Args,
    clock: &CpuClock,
    t: &mut Tracer,
    check: &mut Check,
) -> Result<Run, String> {
    let calibration_before = host::calibrate(clock);
    let window = HostWindow::open(clock);
    let wall = Instant::now();
    let budget_ns = args.seconds * 1e9;
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let mut reference: Option<UnitOut> = None;
    let (mut attempted, mut failed, mut measured_ns) = (0u64, 0u64, 0f64);
    let mut threads_max = 0;
    let mut last_traced_state = None;
    let mut reference_ns = Vec::new();
    // Faults in the reference kernel's stack pages before any sample.
    host::reference(clock);
    for rep in 0u32.. {
        // Repetition 0 warms up if the workload asks for it; with tracing,
        // odd repetitions are traced.
        let tracing = args.trace && rep % 2 == 1;
        t.set_enabled(tracing);
        t.set_op(rep);
        if tracing {
            last_traced_state = None;
        }
        let c0 = clock.now();
        let mut st = t.span("setup", |t| w.setup(t));
        let c1 = clock.now();
        let out = t.span("unit", |t| w.unit(&mut st, t, check));
        let c2 = clock.now();
        threads_max = threads_max.max(host::threads().unwrap_or(0));
        match &reference {
            None => reference = Some(out.clone()),
            Some(r) if !same_counts(&r.counts, &out.counts) || r.ops != out.ops => {
                return Err(format!(
                    "simulated counts differ between repetitions 0 and {rep}:\n  {:?}\n  {:?}",
                    r.counts, out.counts
                ));
            }
            Some(_) => {}
        }
        if tracing {
            last_traced_state = Some(st);
        } else {
            drop(st);
        }
        if rep == 0 && W::WARM_UP {
            continue;
        }
        attempted += out.ops;
        failed += out.failed;
        measured_ns += (c2 - c0) as f64;
        let s = if tracing { &mut traced } else { &mut untraced };
        s.setup_ns.push((c1 - c0) as f64);
        s.unit_ns.push((c2 - c1) as f64);
        // Reference-kernel samples after every measured repetition, a
        // twentieth of its time, so they see the same host as the units.
        let rep_ns = (c2 - c0) as f64;
        let mut reference_spent = 0.0;
        while reference_spent * 20.0 < rep_ns {
            let ns = host::reference(clock) as f64;
            reference_ns.push(ns);
            reference_spent += ns;
        }
        let min_reps = if args.tiny { 1 } else { MIN_REPS };
        let enough =
            untraced.unit_ns.len() >= min_reps && (!args.trace || traced.unit_ns.len() >= min_reps);
        // Stop at the repetition boundary nearest the budget, so that a
        // workload with long units does not overshoot it by most of one.
        if (enough && measured_ns + rep_ns / 2.0 >= budget_ns) || wall.elapsed() > WALL_CAP {
            break;
        }
    }
    t.set_enabled(false);
    while untraced.setup_ns.len() < MIN_SETUP_SAMPLES && wall.elapsed() < WALL_CAP {
        let c0 = clock.now();
        drop(w.setup(t));
        untraced.setup_ns.push((clock.now() - c0) as f64);
    }
    if untraced.unit_ns.is_empty() || (args.trace && traced.unit_ns.is_empty()) {
        return Err("the wall-clock cap ended the run before any measured repetition".into());
    }
    let probes = match last_traced_state.as_mut() {
        Some(st) => {
            t.set_enabled(true);
            t.set_op(u32::MAX);
            t.span("probe", |t| w.probe(st, t, check))
        }
        None => Vec::new(),
    };
    drop(last_traced_state);
    let host = window.close(clock);
    Ok(Run {
        untraced,
        traced,
        last: reference.expect("at least one repetition ran"),
        attempted,
        failed,
        probes,
        threads_max,
        host,
        calibration_ns: (calibration_before, host::calibrate(clock)),
        reference_ns,
    })
}

/// End-to-end metrics. Times are scaled to the reference host (see
/// [`Run::host_scale`]); the `host:` line prints them unscaled.
fn end_to_end(r: &Run) -> BTreeMap<&'static str, f64> {
    let unit_s = median(&r.untraced.unit_ns) * 1e-9 * r.host_scale();
    let accesses = r.last.count("sim.issued_accesses").unwrap_or(0.0);
    BTreeMap::from([
        (
            "setup_s",
            median(&r.untraced.setup_ns) * 1e-9 * r.host_scale(),
        ),
        ("ops_per_s", r.last.ops as f64 / unit_s),
        ("sim_accesses_per_s", accesses / unit_s),
        ("peak_heap_mb", CountingAlloc::peak_bytes() as f64 / 1e6),
    ])
}

fn per_layer(r: &Run, t: &Tracer) -> BTreeMap<&'static str, f64> {
    let by_op = t.self_by_op();
    // Median over traced repetitions of a layer's per-repetition self time.
    let per_rep = |name: &str| -> Vec<f64> {
        by_op
            .get(name)
            .map(|ops| ops.values().map(|&ns| ns as f64).collect())
            .unwrap_or_default()
    };
    let self_s = |name: &str| median(&per_rep(name)) * 1e-9;
    let transmit_minus_decode: Vec<f64> = per_rep("covert.transmit")
        .iter()
        .zip(per_rep("covert.decode"))
        .map(|(t, d)| t - d)
        .collect();
    let records: Vec<f64> = t
        .durations("side.record")
        .iter()
        .map(|&ns| ns as f64)
        .collect();
    let reps_with_records = per_rep("side.record").len().max(1);
    let epochs: Vec<f64> = t
        .durations("fleet.epoch")
        .iter()
        .map(|&ns| ns as f64)
        .collect();
    let traced_total: Vec<f64> = r
        .traced
        .setup_ns
        .iter()
        .zip(&r.traced.unit_ns)
        .map(|(a, b)| a + b)
        .collect();
    let untraced_total: Vec<f64> = r
        .untraced
        .setup_ns
        .iter()
        .zip(&r.untraced.unit_ns)
        .map(|(a, b)| a + b)
        .collect();

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (name, v) in r.last.counts.iter().chain(&r.probes) {
        if let Some(slot) = m.get_mut(name) {
            *slot = *v;
        }
    }
    m.insert("timing_re.cpu_s", self_s("timing_re"));
    m.insert("eviction.cpu_s", self_s("eviction"));
    m.insert(
        "eviction.sim_accesses",
        median(t.counts("eviction.sim_accesses")),
    );
    m.insert("alignment.cpu_s", self_s("alignment"));
    m.insert(
        "covert.transmit_cpu_s",
        median(&transmit_minus_decode) * 1e-9,
    );
    m.insert("covert.decode_cpu_s", self_s("covert.decode"));
    m.insert("side.record_cpu_s_p50", median(&records) * 1e-9);
    m.insert("side.records", (records.len() / reps_with_records) as f64);
    m.insert("workloads.build_cpu_s", self_s("workloads.build"));
    m.insert("classify.train_cpu_s", self_s("classify.train"));
    m.insert("fleet.new_cpu_s", self_s("fleet.new"));
    m.insert("fleet.epoch_us_p50", percentile(&epochs, 0.5) * 1e-3);
    m.insert("fleet.epoch_us_p90", percentile(&epochs, 0.9) * 1e-3);
    m.insert("fleet.epochs", epochs.len() as f64);
    m.insert("host.wall_s", r.host.wall_s);
    m.insert("host.steal_s", r.host.steal_s);
    m.insert("host.runqueue_wait_s", r.host.runqueue_wait_s);
    m.insert("host.on_cpu_s", r.host.on_cpu_s);
    m.insert("host.cpus", host::cpus() as f64);
    m.insert("host.calibration_ns", r.calibration_ns.0 as f64);
    m.insert("host.calibration_ns_after", r.calibration_ns.1 as f64);
    m.insert("host.reference_ns", median(&r.reference_ns));
    m.insert(
        "host.trace_overhead",
        median(&traced_total) / median(&untraced_total),
    );
    m.insert("host.threads_max", r.threads_max as f64);
    m.insert(
        "host.reps",
        (r.untraced.unit_ns.len() + r.traced.unit_ns.len()) as f64,
    );
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_number(v)
        );
    }
    s.push('}');
    s
}

fn spans_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    dir.join("perfbench")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

fn run_workload(
    args: &Args,
    clock: &CpuClock,
    t: &mut Tracer,
    check: &mut Check,
) -> Result<Run, String> {
    let (seed, tiny) = (args.seed, args.tiny);
    match args.workload.as_str() {
        "covert_l2_noisy" => run(
            &covert::CovertL2 {
                seed,
                bits: if tiny { 64 } else { 2048 },
            },
            args,
            clock,
            t,
            check,
        ),
        "covert_link_fabric" => run(
            &covert::CovertLink {
                seed,
                bits: if tiny { 64 } else { 2048 },
            },
            args,
            clock,
            t,
            check,
        ),
        "side_fingerprint" => run(
            &side::SideFingerprint {
                seed,
                per_class: 2,
                sets: if tiny { 64 } else { 256 },
            },
            args,
            clock,
            t,
            check,
        ),
        "fleet_pack" => run(
            &fleet::FleetPack {
                seed,
                nodes: if tiny { 8 } else { 64 },
                horizon: if tiny { 500_000 } else { 6_000_000 },
            },
            args,
            clock,
            t,
            check,
        ),
        w => Err(format!("unknown workload {w}")),
    }
}

fn main() {
    match real_main() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    // One simulation thread: the rayon shim runs inline at one thread,
    // and no workload starts threads of its own.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let clock = CpuClock::open()?;
    let mut t = Tracer::new(&clock, args.trace);
    let mut check = Check::default();
    let r = run_workload(&args, &clock, &mut t, &mut check)?;

    check.require(r.threads_max == 1, "the workload ran on one thread");
    let (label, table, values) = if args.trace {
        let self_total: u64 = t.self_times().iter().sum();
        let on_cpu_ns = (r.host.on_cpu_s * 1e9) as u64;
        check.require(
            self_total <= on_cpu_ns,
            "span self times add up to no more than the run's on-CPU time",
        );
        let path = spans_path(&args);
        std::fs::create_dir_all(path.parent().expect("spans path has a parent"))
            .and_then(|()| std::fs::write(&path, t.to_json_lines()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut self_s = String::new();
        for (name, ops) in t.self_by_op() {
            let total: u64 = ops.values().sum();
            let _ = write!(
                self_s,
                "{}\"{name}\": {}",
                if self_s.is_empty() { "" } else { ", " },
                json_number(total as f64 * 1e-9)
            );
        }
        println!(
            "trace: {{\"spans\": {}, \"file\": \"{}\", \"on_cpu_s\": {}, \"self_s\": {{{self_s}}}}}",
            t.spans().len(),
            path.display(),
            json_number(r.host.on_cpu_s)
        );
        ("per-layer", PER_LAYER, per_layer(&r, &t))
    } else {
        println!(
            "host: {{\"wall_s\": {}, \"steal_s\": {}, \"runqueue_wait_s\": {}, \"on_cpu_s\": {}, \"cpus\": {}, \"calibration_ns\": {}, \"calibration_ns_after\": {}, \"reference_ns\": {}, \"reference_samples\": {}, \"host_scale\": {}, \"reps\": {}, \"setup_s\": {}, \"unit_s_quartiles\": [{}, {}, {}, {}, {}]}}",
            json_number(r.host.wall_s),
            json_number(r.host.steal_s),
            json_number(r.host.runqueue_wait_s),
            json_number(r.host.on_cpu_s),
            host::cpus(),
            r.calibration_ns.0,
            r.calibration_ns.1,
            json_number(median(&r.reference_ns)),
            r.reference_ns.len(),
            json_number(r.host_scale()),
            r.untraced.unit_ns.len(),
            json_number(median(&r.untraced.setup_ns) * 1e-9),
            json_number(percentile(&r.untraced.unit_ns, 0.0) * 1e-9),
            json_number(percentile(&r.untraced.unit_ns, 0.25) * 1e-9),
            json_number(percentile(&r.untraced.unit_ns, 0.5) * 1e-9),
            json_number(percentile(&r.untraced.unit_ns, 0.75) * 1e-9),
            json_number(percentile(&r.untraced.unit_ns, 1.0) * 1e-9),
        );
        ("end-to-end", END_TO_END, end_to_end(&r))
    };
    println!("{} {label} metrics, seed {}:", args.workload, args.seed);
    for (name, unit) in table {
        println!("  {name:<28} {:>18.6} {unit}", values[name]);
    }
    for f in check.failures() {
        println!("check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.failures().is_empty(),
        r.attempted,
        r.failed,
        json_metrics(table, &values)
    );
    Ok(())
}
