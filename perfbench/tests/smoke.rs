//! Tiny-size runs of every workload: each prints every metric that
//! `BENCHMARK.json` names, with its unit, and the doctored-history control
//! fails its output check with the failure counted.

use std::process::Command;

use moc_core::json::{parse, Json};

const WORKLOADS: &[&str] = &[
    "msc-write-pipelined",
    "mlin-read-monitored",
    "msc-sentinel-replay",
];

/// `(name, unit)` of every metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs the benchmark and returns its stamp line and parsed result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: no stamp and result: {stdout}"
    );
    let result = parse(lines[lines.len() - 1]).expect("result line is JSON");
    (lines[lines.len() - 2].to_string(), result)
}

fn counts(result: &Json) -> (bool, u64, u64) {
    (
        result
            .get("correct")
            .and_then(Json::as_bool)
            .expect("correct"),
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted"),
        result.get("failed").and_then(Json::as_u64).expect("failed"),
    )
}

/// Every declared metric is printed once with its unit, and nothing else.
fn assert_metrics(workload: &str, result: &Json, expected: &[(String, String)]) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: metrics is not an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Json::Num(_))),
                "{workload}: {name} value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, expected, "{workload}: printed metrics differ");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for w in WORKLOADS {
        let (stamp, result) = run(w, false, &[]);
        let (correct, attempted, failed) = counts(&result);
        assert!(correct && failed == 0 && attempted >= 1, "{w}: {stamp}");
        assert!(stamp.contains("\"cpus\""), "{w}: no cpus stamp: {stamp}");
        assert_metrics(w, &result, &expected);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let expected = declared("per_layer");
    for w in WORKLOADS {
        let (stamp, result) = run(w, true, &[]);
        assert!(counts(&result).0, "{w}: output check failed: {stamp}");
        assert!(!stamp.contains("\"overhead_frac\": null"), "{w}: {stamp}");
        assert_metrics(w, &result, &expected);
    }
}

#[test]
fn doctored_history_fails_the_output_check_and_is_counted() {
    let (_, result) = run("msc-sentinel-replay", false, &["--doctor"]);
    let (correct, attempted, failed) = counts(&result);
    assert!(!correct, "the doctored read went unnoticed");
    assert!(
        failed > 0 && failed <= attempted,
        "{failed} of {attempted} failed"
    );
}

#[test]
fn ablations_keep_the_output_check() {
    for (workload, flag) in [
        ("mlin-read-monitored", &["--no-sentinel"][..]),
        ("msc-sentinel-replay", &["--history-ops", "4"][..]),
    ] {
        let (stamp, result) = run(workload, false, flag);
        let (correct, attempted, failed) = counts(&result);
        assert!(
            correct && failed == 0 && attempted >= 1,
            "{workload}: {stamp}"
        );
    }
}
