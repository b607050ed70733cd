//! Runs every experiment binary in paper order — the one-shot full
//! reproduction. Skips the slow fingerprinting run unless `--full`.
//!
//! Besides the per-bin stdout, emits one machine-readable
//! `results/RESULTS.json` artefact: per-bin status (`pass` / `fail` /
//! `unlaunchable`), exit code, wall-clock duration, on-CPU time
//! (`cpu_ms`, the reaped child's user + system time), peak OS thread
//! count and peak resident set (`peak_rss_kb`, both sampled from
//! `/proc/<pid>/status` while the bin runs) and any warnings the bin
//! recorded via [`gpubox_bench::report::warn`] (e.g. a saturated
//! `TraceSink` under-reporting trace spans), plus the suite totals —
//! the unified report CI uploads. The same totals
//! are exported as `results/metrics.prom` in Prometheus exposition
//! format through [`MetricSet::to_prometheus_text`].
//!
//! Before launching anything it checks that every listed bin sits
//! beside `run_all`; if any is missing it names them, prints the build
//! command and exits non-zero without writing `RESULTS.json`.
//!
//! Usage: `cargo run --release -p gpubox-bench --bin run_all [--full]`

use gpubox_bench::report::write_json;
use gpubox_sim::telemetry::MetricSet;
use serde::Serialize;
use std::process::Command;
use std::time::{Duration, Instant};

/// One sample of `pid`'s `/proc/<pid>/status`: its OS thread count
/// (`Threads:`) and peak resident set in kB (`VmHWM:`). Linux only;
/// `None`s elsewhere or on any read failure (e.g. the process already
/// exited).
fn status_sample(pid: u32) -> (Option<u64>, Option<u64>) {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            return (None, None);
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        };
        (field("Threads:"), field("VmHWM:"))
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        (None, None)
    }
}

/// User + system CPU time, in ms, of this process's reaped children:
/// `cutime + cstime` from `/proc/self/stat` (the 14th and 15th fields
/// after the `)` closing the command name) at USER_HZ = 100. `None`
/// off Linux or on a read failure.
fn children_cpu_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(13)? + ticks(14)?) * 10)
}

#[derive(Debug, Serialize)]
struct BinResult {
    bin: String,
    /// `pass`, `fail` (ran, nonzero exit — a gate tripped) or
    /// `unlaunchable` (present but could not be spawned).
    status: String,
    /// Exit code when the process ran and reported one.
    exit_code: Option<i32>,
    duration_ms: u64,
    /// The bin's user + system CPU time, 10 ms resolution (Linux only).
    cpu_ms: Option<u64>,
    /// Peak OS thread count observed while the bin ran (Linux only;
    /// `None` when the probe is unavailable or the bin never launched).
    peak_threads: Option<u64>,
    /// Peak resident set (`VmHWM`) at the last sample before the bin
    /// exited, in kB (Linux only). Samples are 5 ms apart, so a bin that
    /// exits within one poll may under-report.
    peak_rss_kb: Option<u64>,
    /// Warnings the bin recorded via `report::warn` — non-fatal
    /// conditions (e.g. dropped trace records) that would otherwise
    /// only exist in the scrollback.
    warnings: Vec<String>,
}

/// Reads and clears the warning file a bin may have written through
/// `report::warn`. Cleared *before* each launch so stale warnings from
/// a previous suite run are never attributed to this one.
fn warning_path(bin: &str) -> std::path::PathBuf {
    std::path::Path::new("results")
        .join("warnings")
        .join(format!("{bin}.txt"))
}

fn collect_warnings(bin: &str) -> Vec<String> {
    std::fs::read_to_string(warning_path(bin))
        .map(|s| s.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

/// The bins of `bins` that have no executable in `dir`, in list order.
fn missing_bins<'a>(dir: &std::path::Path, bins: &[&'a str]) -> Vec<&'a str> {
    bins.iter()
        .copied()
        .filter(|bin| !dir.join(format!("{bin}{}", std::env::consts::EXE_SUFFIX)).is_file())
        .collect()
}

#[derive(Debug, Serialize)]
struct SuiteResults {
    total: usize,
    passed: usize,
    failed: Vec<String>,
    duration_ms: u64,
    bins: Vec<BinResult>,
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut bins = vec![
        "fig04_timing_histogram",
        "table1_cache_re",
        "fig05_eviction_validation",
        "fig09_bandwidth_error",
        "fig10_message_trace",
        "fig11_memorygrams",
        "fig13_table2_mlp_misses",
        "fig14_mlp_memorygram",
        "fig15_epochs",
        "ablation_replacement",
        "ablation_alignment",
        "ablation_noise_mitigation",
        "ablation_slot_cycles",
        "ext_partition_defense",
        "ext_multi_gpu_bandwidth",
        "ext_ecc_channel",
        "ext_two_hop_channel",
        "ext_link_congestion_channel",
        "ext_fabric_defense",
        "ext_fault_resilience",
        "ext_trace_anatomy",
        "ext_fleet_placement",
        "ext_detection",
    ];
    if full {
        bins.insert(6, "fig12_confusion_matrix");
    } else {
        eprintln!(
            "(skipping fig12_confusion_matrix, ~50 s wall on 2 vCPUs — pass --full to include it)"
        );
    }
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let missing = missing_bins(dir, &bins);
    if !missing.is_empty() {
        eprintln!(
            "missing experiment bins beside {}: {}\n\
             build them first: cargo build --release -p gpubox-bench --bins",
            dir.display(),
            missing.join(", ")
        );
        std::process::exit(2);
    }
    let suite_started = Instant::now();
    let mut results: Vec<BinResult> = Vec::with_capacity(bins.len());
    for bin in &bins {
        println!("\n################ {bin} ################");
        // A binary that exists but cannot launch is a failure of that
        // experiment, not of the whole suite: record it and keep going
        // so the final report still covers the rest.
        let started = Instant::now();
        let _ = std::fs::remove_file(warning_path(bin));
        let cpu_before = children_cpu_ms();
        let mut peak_rss_kb = None;
        let (status, exit_code, peak_threads) = match Command::new(dir.join(bin)).spawn() {
            Ok(mut child) => {
                // Sample the child's OS thread count and resident-set high
                // water mark until it exits, so the report records how
                // parallel and how large each bin actually ran.
                let mut peak: Option<u64> = None;
                let outcome = loop {
                    let (threads, hwm) = status_sample(child.id());
                    if let Some(t) = threads {
                        peak = Some(peak.map_or(t, |p| p.max(t)));
                    }
                    peak_rss_kb = hwm.or(peak_rss_kb);
                    match child.try_wait() {
                        Ok(Some(s)) => break Ok(s),
                        Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                        Err(e) => break Err(e),
                    }
                };
                match outcome {
                    Ok(s) if s.success() => ("pass", s.code(), peak),
                    Ok(s) => {
                        eprintln!("{bin} exited with {s}");
                        ("fail", s.code(), peak)
                    }
                    Err(e) => {
                        eprintln!("could not wait on {bin}: {e}");
                        ("fail", None, peak)
                    }
                }
            }
            Err(e) => {
                eprintln!("could not launch {bin}: {e}");
                ("unlaunchable", None, None)
            }
        };
        results.push(BinResult {
            bin: (*bin).to_string(),
            status: status.to_string(),
            exit_code,
            duration_ms: started.elapsed().as_millis() as u64,
            cpu_ms: children_cpu_ms()
                .zip(cpu_before)
                .map(|(after, before)| after - before),
            peak_threads,
            peak_rss_kb,
            warnings: collect_warnings(bin),
        });
    }
    let failed: Vec<String> = results
        .iter()
        .filter(|r| r.status != "pass")
        .map(|r| r.bin.clone())
        .collect();
    let suite = SuiteResults {
        total: results.len(),
        passed: results.len() - failed.len(),
        failed: failed.clone(),
        duration_ms: suite_started.elapsed().as_millis() as u64,
        bins: results,
    };
    write_json("RESULTS", &suite);
    // The same totals as a Prometheus scrape surface: pass/fail/warning
    // counters and the per-bin wall-clock distribution.
    let mut metrics = MetricSet::new();
    for r in &suite.bins {
        metrics.add(
            match r.status.as_str() {
                "pass" => "suite.bins_passed",
                _ => "suite.bins_failed",
            },
            1,
        );
        metrics.add("suite.warnings", r.warnings.len() as u64);
        metrics.observe("suite.bin_duration_ms", r.duration_ms);
    }
    if std::fs::create_dir_all("results").is_ok() {
        let path = "results/metrics.prom";
        match std::fs::write(path, metrics.to_prometheus_text()) {
            Ok(()) => println!("\n[artefact] {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    println!("\n================================================================");
    if failed.is_empty() {
        println!("all {} experiments completed successfully", suite.total);
    } else {
        println!("FAILED: {failed:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::missing_bins;

    #[test]
    fn missing_bins_names_only_absent_executables() {
        let dir = std::env::temp_dir().join(format!("run_all_missing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let built = format!("fig04_timing_histogram{}", std::env::consts::EXE_SUFFIX);
        std::fs::write(dir.join(built), b"").unwrap();
        // A directory of the right name is not an executable.
        std::fs::create_dir_all(dir.join(format!("fig05_eviction_validation{}", std::env::consts::EXE_SUFFIX)))
            .unwrap();
        let got = missing_bins(
            &dir,
            &["fig04_timing_histogram", "fig05_eviction_validation", "ext_detection"],
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(got, ["fig05_eviction_validation", "ext_detection"]);
    }
}
