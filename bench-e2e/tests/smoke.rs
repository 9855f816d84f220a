//! Runs every workload for a 1 s timed phase, untraced and traced, through
//! the benchmark binary's own `run` path, and checks that no request failed
//! and that exactly the declared metrics came out.
//!
//! The `serve-2c` leg spawns the real `hmm-server`, which the workspace
//! build produces: run `cargo build [--release] -p hmm-server` from the
//! repository root first.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;

fn server_bin() -> PathBuf {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_bench-e2e"));
    let profile_dir = bench.parent().expect("the binary sits in target/<profile>");
    let profile = profile_dir.file_name().expect("a profile directory");
    let candidates = [
        profile_dir.join("hmm-server"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../target")
            .join(profile)
            .join("hmm-server"),
    ];
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .unwrap_or_else(|| {
            panic!(
                "no hmm-server at {candidates:?}: build hmm-server first \
                 (cargo build [--release] -p hmm-server from the repository root)"
            )
        })
}

fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_metrics() {
    let server = server_bin();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in [
        "hit-random-1m",
        "hit-structured-2t",
        "serve-2c",
        "miss-churn",
    ] {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_bench-e2e"))
                .args([
                    "run",
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--out"])
                .arg(&out)
                .arg("--server-bin")
                .arg(&server)
                .output()
                .expect("bench-e2e runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} --trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&run.stderr)
            );
            assert!(
                stdout.contains(&format!("{workload} error_rate 0 fraction")),
                "{stdout}"
            );
            let result = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {stdout}");
            };
            let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            names.sort();
            assert_eq!(names, declared(list), "{workload} --trace {trace}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload} {name} = {m}");
            }
        }
        assert!(out.join(format!("trace-{workload}.json")).is_file());
    }
}
