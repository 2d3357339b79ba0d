//! Tiny-input smoke runs of the benchmark binary: every workload, untraced
//! and traced, passes its correctness gate and prints every metric that
//! `BENCHMARK.json` names, with a finite value.

use std::process::{Command, Output};

/// The `BENCHMARK.json` this package is listed in.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// Every `"name"` value inside the top-level array `key` of BENCHMARK.json.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("a quoted name") + 1..];
            rest[..rest.find('"').expect("the name closes")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_parsdd_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .env_remove("PARSDD_PRECISION")
        .env_remove("RAYON_NUM_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

/// Runs every workload at `trace` and checks the result line against the
/// metric names listed under `section`.
fn check_all(trace: &str, section: &str) {
    let json = benchmark_json();
    let metrics = names(&json, section);
    assert!(!metrics.is_empty());
    for workload in names(&json, "workloads") {
        let out = run(&workload, trace, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: exit {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
            "{workload}: {last}"
        );
        for name in &metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
            let rest = &last[at + key.len()..];
            let value: f64 = rest[..rest.find(',').expect("a unit follows")]
                .parse()
                .unwrap_or_else(|_| panic!("{workload}: {name} is not a number in {last}"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    check_all("0", "end_to_end");
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    check_all("1", "per_layer");
}

#[test]
fn refuses_a_precision_override_or_a_contradicting_width() {
    for env in [
        [("PARSDD_PRECISION", "f32")],
        [("RAYON_NUM_THREADS", "1000")],
    ] {
        let out = run("grid-deep", "0", &env);
        assert!(!out.status.success(), "{env:?} was accepted");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{env:?} printed a result"
        );
    }
}
