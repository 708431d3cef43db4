//! The benchmark's own checks: short runs of every workload through the
//! built binary, their output parsed and held against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use bgp_sim::json::{self, Json};
use perfbench::report::valid_name;

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, key: &str) -> BTreeSet<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("list in BENCHMARK.json")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one workload for `seconds`; returns the parsed result line.
fn run(workload: &str, seconds: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line `{last}`: {e}"))
}

fn assert_clean(workload: &str, result: &Json, expected: &BTreeSet<String>) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: error_rate 0"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: metrics object");
    };
    let got: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(&got, expected, "{workload}: metric names");
    for (name, m) in metrics {
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
}

#[test]
fn manifest_names_follow_the_naming_rule() {
    let m = manifest();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&m, key) {
            assert!(valid_name(&name), "{key}: `{name}`");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_errors() {
    let m = manifest();
    let expected = names(&m, "end_to_end");
    // `svc_large` is runnable though not in the manifest (see README.md).
    for workload in names(&m, "workloads")
        .into_iter()
        .chain(["svc_large".into()])
    {
        assert_clean(&workload, &run(&workload, "1", "0"), &expected);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let expected = names(&manifest(), "per_layer");
    assert_clean("svc_small", &run("svc_small", "1", "1"), &expected);
    let trace =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(".perfbench/trace_svc_small_11.json");
    let doc =
        json::parse(&std::fs::read_to_string(trace).expect("trace written")).expect("trace parses");
    assert!(doc.as_arr().expect("event array").len() > 1);
}

#[test]
fn bad_arguments_exit_nonzero() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload svc_small --seed 1 --seconds 1",
        "--workload svc_small --seed x --seconds 1 --trace 0",
        "--workload svc_small --seed 1 --seconds 1 --trace 2",
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .status()
            .expect("run perfbench");
        assert_eq!(status.code(), Some(2), "{args}");
    }
}
