//! The metrics a run emits, and the declared set in `BENCHMARK.json` they
//! must match.

use crate::json::Json;
use crate::probe::Sample;
use crate::stats::{self, median};
use crate::workload::{Counts, Phase};

/// The tail percentile reported next to the median.
pub const TAIL_Q: f64 = 0.95;

/// The untraced timed phase is cut into this many windows. On a shared
/// machine, load from outside the benchmark only ever slows a window down,
/// so the windows are ranked by throughput and every throughput and latency
/// metric is computed over the fastest [`KEPT_WINDOWS`].
pub const WINDOWS: usize = 10;
pub const KEPT_WINDOWS: usize = 3;

/// Requests each window needs, so that the kept windows hold enough for
/// [`TAIL_Q`] to have [`stats::MIN_BEYOND_TAIL`] samples beyond it.
pub fn min_window_requests() -> u64 {
    let needed = (stats::MIN_BEYOND_TAIL as f64 / (1.0 - TAIL_Q)).ceil() as u64;
    needed.div_ceil(KEPT_WINDOWS as u64)
}

/// The benchmark's declaration, compiled in so `compare` judges with the
/// bounds the runs were made under.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Untraced metrics of one run, from the fastest of its timed windows.
pub fn end_to_end(
    windows: &[Phase],
    threads: usize,
    setup_s: f64,
    peak_rss_mib: f64,
) -> Result<Vec<Metric>, String> {
    let mut ranked: Vec<&Phase> = windows.iter().collect();
    ranked.sort_by(|a, b| {
        b.throughput_melem_s(threads)
            .total_cmp(&a.throughput_melem_s(threads))
    });
    let kept = &ranked[..KEPT_WINDOWS.min(windows.len())];
    let elements: u64 = kept.iter().map(|w| w.elements).sum();
    let busy_s: f64 = kept.iter().map(|w| w.wall_s).sum();
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    Ok(vec![
        metric(
            "throughput_melem_s",
            elements as f64 / busy_s / 1e6,
            "Melem/s",
        ),
        metric("latency_p50_ms", median(&latencies), "ms"),
        metric(
            "latency_p95_ms",
            stats::tail_percentile(&latencies, TAIL_Q)?,
            "ms",
        ),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ])
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Traced metrics of one run: per-layer medians from the probes, plan-cache
/// counts per request, the ledger, and the tracing overhead.
pub fn per_layer(
    in_process: bool,
    untraced: &Phase,
    traced: &Phase,
    threads: usize,
    counts: &Counts,
    builds_ms: &[f64],
    saves_ms: &[f64],
) -> Result<Vec<Metric>, String> {
    let p = &traced.probes;
    if p.is_empty() {
        return Err("the traced phase ran no probes".into());
    }
    let sweep = |i: usize| {
        median(
            &p.iter()
                .filter_map(|s| Some(s.sweeps?[i]))
                .collect::<Vec<_>>(),
        )
    };
    let (plan, run_plan) = if in_process {
        let (plans, runs): (Vec<f64>, Vec<f64>) = traced.splits_ms.iter().copied().unzip();
        (median(&plans), median(&runs))
    } else {
        (med(p, |s| s.mirror_plan), med(p, |s| s.mirror_run_plan))
    };
    let p50 = median(&traced.latencies_ms);
    // The layers on the request's blocking path: plan and run in process;
    // for the server, the wire steps on both sides plus the queued job.
    let path = if in_process {
        vec![plan, run_plan]
    } else {
        vec![
            med(p, |s| s.elems_to_bytes[0]),
            med(p, |s| s.request_encode),
            med(p, |s| s.request_decode),
            med(p, |s| s.bytes_to_elems[0]),
            med(p, |s| s.arc_copy),
            med(p, |s| s.submit_wait),
            med(p, |s| s.elems_to_bytes[1]),
            med(p, |s| s.reply_encode),
            med(p, |s| s.reply_decode),
            med(p, |s| s.bytes_to_elems[1]),
        ]
    };
    let (residual, gap) = stats::ledger(p50, &path);
    let hit_ratio = counts.hits / (counts.hits + counts.misses);
    Ok(vec![
        metric("perm.fingerprint_ms", med(p, |s| s.fingerprint), "ms"),
        metric("perm.verify_ms", med(p, |s| s.verify), "ms"),
        metric("perm.distribution_ms", med(p, |s| s.distribution), "ms"),
        metric("native.plan_ms", plan, "ms"),
        metric(
            "native.plan_self_ms",
            med(p, |s| s.split().0 - s.fingerprint - s.verify),
            "ms",
        ),
        metric("native.run_plan_ms", run_plan, "ms"),
        metric(
            "native.run_plan_self_ms",
            med(p, |s| s.split().1 - s.kernel),
            "ms",
        ),
        metric("native.hits", counts.hits, "count/req"),
        metric("native.misses", counts.misses, "count/req"),
        metric("native.evictions", counts.evictions, "count/req"),
        metric("native.builds", counts.builds, "count/req"),
        metric(
            "native.plans_structured",
            counts.plans_structured,
            "count/req",
        ),
        metric("native.store_hits", counts.store_hits, "count/req"),
        metric("native.scatter_runs", counts.scatter_runs, "count/req"),
        metric("native.scheduled_runs", counts.scheduled_runs, "count/req"),
        metric("native.hit_ratio", hit_ratio, "fraction"),
        metric("kernel.sweep1_ms", sweep(0), "ms"),
        metric("kernel.sweep2_ms", sweep(1), "ms"),
        metric("kernel.sweep3_ms", sweep(2), "ms"),
        metric("kernel.scatter_ms", med(p, |s| s.scatter), "ms"),
        metric("kernel.copy_ms", med(p, |s| s.copy), "ms"),
        metric(
            "kernel.bytes_moved_mb",
            p.iter().map(|s| s.kernel_bytes).sum::<f64>() / p.len() as f64 / 1e6,
            "MB",
        ),
        metric(
            "kernel.gbps",
            med(p, |s| s.kernel_bytes / s.kernel / 1e6),
            "GB/s",
        ),
        metric(
            "kernel.roofline_frac",
            med(p, |s| (s.kernel_bytes / s.kernel) / (s.copy_bytes / s.copy)),
            "fraction",
        ),
        metric("queue.submit_wait_ms", med(p, |s| s.submit_wait), "ms"),
        metric(
            "queue.self_ms",
            med(p, |s| s.submit_wait - s.mirror_plan - s.mirror_run_plan),
            "ms",
        ),
        metric("wire.request_encode_ms", med(p, |s| s.request_encode), "ms"),
        metric("wire.request_decode_ms", med(p, |s| s.request_decode), "ms"),
        metric("wire.reply_encode_ms", med(p, |s| s.reply_encode), "ms"),
        metric("wire.reply_decode_ms", med(p, |s| s.reply_decode), "ms"),
        metric(
            "wire.elems_to_bytes_ms",
            median(&p.iter().flat_map(|s| s.elems_to_bytes).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "wire.bytes_to_elems_ms",
            median(&p.iter().flat_map(|s| s.bytes_to_elems).collect::<Vec<_>>()),
            "ms",
        ),
        metric("wire.arc_copy_ms", med(p, |s| s.arc_copy), "ms"),
        metric("store.load_ms", med(p, |s| s.store_load), "ms"),
        metric("codec.decode_ms", med(p, |s| s.codec_decode), "ms"),
        metric("plan.validate_ms", med(p, |s| s.validate), "ms"),
        metric("native.prepare_ms", med(p, |s| s.prepare), "ms"),
        metric("plan.build_ms", median(builds_ms), "ms"),
        metric("store.save_ms", median(saves_ms), "ms"),
        metric("ledger.residual_ms", residual, "ms"),
        metric("ledger.gap_frac", gap, "fraction"),
        metric(
            "trace.overhead_frac",
            1.0 - traced.throughput_melem_s(threads) / untraced.throughput_melem_s(threads),
            "fraction",
        ),
    ])
}

/// One declared metric: `(name, unit, higher_is_better, bound)`; per-layer
/// metrics have no bound.
pub type Declared = (String, String, bool, Option<f64>);

/// The `end_to_end` and `per_layer` lists of `BENCHMARK.json`.
pub fn declared() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let items = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("a {key} entry lacks {k}"))
                };
                Ok((
                    field("name")?,
                    field("unit")?,
                    field("better")? == "higher",
                    m.get("bound").and_then(Json::as_f64),
                ))
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn phase(latencies_ms: Vec<f64>) -> Phase {
        Phase {
            elements: 1000 * latencies_ms.len() as u64,
            attempted: latencies_ms.len() as u64,
            wall_s: 1.0,
            splits_ms: latencies_ms.iter().map(|&l| (l * 0.4, l * 0.5)).collect(),
            latencies_ms,
            probes: vec![Sample {
                fingerprint: 0.1,
                sweeps: Some([0.1, 0.1, 0.1]),
                kernel: 0.3,
                kernel_bytes: 1e6,
                copy: 0.1,
                copy_bytes: 1e6,
                ..Sample::default()
            }],
            ..Phase::default()
        }
    }

    fn names_units(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut v: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    fn declared_names_units(d: &[Declared]) -> Vec<(String, String)> {
        let mut v: Vec<_> = d
            .iter()
            .map(|(n, u, _, _)| (n.clone(), u.clone()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn emitted_metrics_match_the_declared_set() {
        let (e2e, layers) = declared().unwrap();
        let timed = phase((1..=400).map(f64::from).collect());
        let emitted = end_to_end(std::slice::from_ref(&timed), 1, 0.5, 100.0).unwrap();
        assert_eq!(names_units(&emitted), declared_names_units(&e2e));

        let counts = Counts {
            hits: 1.0,
            ..Counts::default()
        };
        for in_process in [true, false] {
            let emitted =
                per_layer(in_process, &timed, &timed, 1, &counts, &[1.0], &[2.0]).unwrap();
            assert_eq!(names_units(&emitted), declared_names_units(&layers));
        }

        let all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _, _, _)| n).collect();
        for name in &all {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} is not [A-Za-z0-9_.-]+"
            );
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn declared_workloads_are_the_implemented_ones() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let implemented: Vec<&str> = crate::workload::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, implemented);
        assert!(names.iter().all(|n| Kind::from_name(n).is_some()));
    }

    #[test]
    fn metrics_come_from_the_fastest_windows() {
        let slow = || {
            let mut w = phase(vec![9.0; 100]);
            w.wall_s = 9.0;
            w
        };
        let mut windows: Vec<Phase> = (0..KEPT_WINDOWS).map(|_| phase(vec![1.0; 100])).collect();
        windows.insert(1, slow());
        windows.push(slow());
        let m = end_to_end(&windows, 1, 0.5, 100.0).unwrap();
        assert_eq!(m[0].value, 0.1, "throughput of the fast windows alone");
        assert_eq!((m[1].value, m[2].value), (1.0, 1.0));
    }

    #[test]
    fn too_few_samples_fail_the_run() {
        let err = end_to_end(&[phase(vec![1.0; 150])], 1, 0.5, 100.0).unwrap_err();
        assert!(err.contains("needs at least 200 samples"), "{err}");
        assert_eq!(min_window_requests(), 67);
    }
}
