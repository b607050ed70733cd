//! Runs every workload of `BENCHMARK.json` at its tiny size, untraced and
//! traced, and checks the output contract: every metric the file names
//! is printed with its unit, and the traced run's layer self times are
//! non-negative and add up to no more than its on-CPU time.

use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.field(key).unwrap_or_else(|e| panic!("{e}"))
}

/// `(name, unit)` of every metric in one metric list of BENCHMARK.json.
fn metric_list(bench: &Value, list: &str) -> Vec<(String, String)> {
    field(bench, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().expect("name").to_string(),
                field(m, "unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark and returns its standard output lines.
fn run(workload: &str, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        // Span files go to the test's scratch directory, wherever the
        // caller's relative target directory would put them.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

fn check_result(lines: &[String], expected: &[(String, String)]) {
    let last: Value =
        serde_json::from_str(lines.last().expect("output")).expect("last line is JSON");
    assert!(
        field(&last, "correct").as_bool().expect("bool"),
        "{lines:#?}"
    );
    assert!(field(&last, "attempted").as_u64().expect("count") >= 1);
    assert_eq!(field(&last, "failed").as_u64().expect("count"), 0);
    let metrics = field(&last, "metrics");
    for (name, unit) in expected {
        let m = field(metrics, name);
        assert_eq!(field(m, "unit").as_str().expect("unit"), unit, "{name}");
        assert!(
            field(m, "value").as_f64().expect("number").is_finite(),
            "{name}"
        );
    }
}

fn check_workload(workload: &str) {
    let bench = benchmark();
    check_result(&run(workload, false), &metric_list(&bench, "end_to_end"));

    let traced = run(workload, true);
    check_result(&traced, &metric_list(&bench, "per_layer"));
    let summary = traced
        .iter()
        .find_map(|l| l.strip_prefix("trace: "))
        .expect("traced run prints its span summary");
    let summary: Value = serde_json::from_str(summary).expect("span summary is JSON");
    let on_cpu = field(&summary, "on_cpu_s").as_f64().expect("number");
    let Value::Object(layers) = field(&summary, "self_s") else {
        panic!("self_s is an object")
    };
    assert!(!layers.is_empty());
    let mut total = 0.0;
    for (layer, v) in layers {
        let s = v.as_f64().expect("number");
        assert!(s >= 0.0, "{layer} self time {s} is negative");
        total += s;
    }
    assert!(
        total <= on_cpu,
        "self times {total} s exceed on-CPU time {on_cpu} s"
    );
    let spans = field(&summary, "file").as_str().expect("path");
    assert!(std::fs::metadata(spans).expect("span file written").len() > 0);
}

#[test]
fn benchmark_lists_the_workloads_tested_here() {
    let names: Vec<String> = field(&benchmark(), "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name").to_string())
        .collect();
    assert_eq!(
        names,
        [
            "covert_l2_noisy",
            "covert_link_fabric",
            "side_fingerprint",
            "fleet_pack"
        ]
    );
}

#[test]
fn covert_l2_noisy() {
    check_workload("covert_l2_noisy");
}

#[test]
fn covert_link_fabric() {
    check_workload("covert_link_fabric");
}

#[test]
fn side_fingerprint() {
    check_workload("side_fingerprint");
}

#[test]
fn fleet_pack() {
    check_workload("fleet_pack");
}
