//! What a result needs to be re-run and compared: commit, machine, engine
//! configuration, seed and environment overrides.

use crate::json::Json;
use hmm_native::EngineStats;
use std::process::{Command, Stdio};

/// Build the provenance block. `engine` is a stats snapshot of an engine
/// built with the defaults the workloads use.
pub fn collect(seed: u64, seconds: u64, engine: &EngineStats) -> Json {
    let env = hmm_env();
    if !env.is_empty() {
        let names: Vec<&str> = env.iter().map(|(k, _)| k.as_str()).collect();
        eprintln!(
            "warning: {} set; the benchmark measures the defaults, so these results are not \
             comparable with runs made without them",
            names.join(", ")
        );
    }
    Json::obj([
        ("commit", Json::str(git_commit())),
        ("nproc", num(available_parallelism())),
        ("worker_threads", num(hmm_native::par::worker_threads())),
        ("backend", Json::str(engine.backend)),
        ("kernel_simd", Json::Bool(engine.kernel_simd)),
        (
            "kernel_computed_index",
            Json::Bool(engine.kernel_computed_index),
        ),
        ("kernel_stage_bytes", num(engine.kernel_stage_bytes)),
        ("cpu_model", Json::str(cpu_model())),
        ("caches", Json::obj(cache_sizes())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        (
            "hmm_env",
            Json::obj(env.into_iter().map(|(k, v)| (k, Json::Str(v)))),
        ),
    ])
}

fn num(v: usize) -> Json {
    Json::Num(v as f64)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Data and unified cache sizes of cpu0, keyed `L1d`, `L2`, `L3`.
fn cache_sizes() -> Vec<(String, Json)> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut out = Vec::new();
    for i in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let key = match kind.trim() {
            "Data" => format!("L{}d", level.trim()),
            "Unified" => format!("L{}", level.trim()),
            _ => continue,
        };
        out.push((key, Json::str(size.trim())));
    }
    out
}

/// Every `HMM_*` environment variable that is set, sorted by name.
fn hmm_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HMM_"))
        .collect();
    vars.sort();
    vars
}
