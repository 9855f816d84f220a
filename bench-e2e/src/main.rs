//! `bench-e2e`: the end-to-end benchmark of the permutation engine and
//! server. See README.md in this directory.
//!
//! ```text
//! bench-e2e run (--workload NAME | --all) [--seed N] [--seconds S]
//!               [--trace [0|1]] [--out DIR] [--server-bin PATH]
//! bench-e2e compare SET_A SET_B
//! ```
//!
//! `run` prints `workload metric value unit` lines, writes a result file
//! under `--out`, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! It exits 1 when any request failed or returned a wrong output, and 2
//! when the run could not be made.

mod compare;
mod json;
mod metrics;
mod probe;
mod provenance;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use workload::{Kind, WIDTH};

/// The timed phase when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;
/// Trace files keep the spans of this many sampled requests per thread.
const TRACE_FILE_REQUESTS: usize = 200;

struct RunArgs {
    workload: Option<Kind>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    server_bin: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        all: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("target/bench-e2e"),
        server_bin: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| v.cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value(it.next())?;
                r.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--all" => r.all = true,
            "--seed" => {
                r.seed = value(it.next())?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?;
            }
            "--seconds" => {
                r.seconds = value(it.next())?
                    .parse()
                    .map_err(|_| "--seconds takes an integer")?;
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                r.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--out" => r.out = PathBuf::from(value(it.next())?),
            "--server-bin" => r.server_bin = Some(PathBuf::from(value(it.next())?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.all == r.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    if r.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result =
        match args.first().map(String::as_str) {
            Some("run") => parse_run_args(&args[1..]).and_then(|r| {
                if r.all {
                    run_all(&args[1..])
                } else {
                    run(&r)
                }
            }),
            Some("compare") if args.len() == 3 => {
                compare::compare(Path::new(&args[1]), Path::new(&args[2]))
            }
            _ => Err(
                "usage: bench-e2e run (--workload NAME | --all) [--seed N] [--seconds S] \
                  [--trace [0|1]] [--out DIR] [--server-bin PATH]\n       \
                  bench-e2e compare SET_A SET_B"
                    .into(),
            ),
        };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload, each in a process of its own so that peak memory
/// is measured per workload.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut code = ExitCode::SUCCESS;
    for kind in workload::ALL {
        let status = Command::new(&exe)
            .args(["run", "--workload", kind.name()])
            .args(&rest)
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            eprintln!("bench-e2e: {} exited with {status}", kind.name());
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let kind = args.workload.expect("checked by parse_run_args");
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let server_bin = match &args.server_bin {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("hmm-server"),
    };
    let provenance = provenance::collect(
        args.seed,
        args.seconds,
        &hmm_native::SharedEngine::<u32>::new(WIDTH).stats(),
    );
    let targets = workload::targets(kind, args.seed);
    let duration = Duration::from_secs(args.seconds);
    let warmup = duration / 10;
    let epoch = Instant::now();
    let phase = |live: &workload::Live, kit, d, min, salt: u64| {
        workload::run_phase(kind, &targets, live, kit, d, min, args.seed ^ salt, epoch)
    };

    let (metrics, measured, warm) = if !args.trace {
        let mut setups_s = Vec::new();
        let mut live: Option<workload::Live> = None;
        for _ in 0..workload::SETUP_REPS {
            if let Some(previous) = live.take() {
                previous.shutdown()?;
            }
            let start = Instant::now();
            live = Some(workload::setup(kind, &targets, &server_bin, &args.out)?);
            setups_s.push(start.elapsed().as_secs_f64());
        }
        let live = live.expect("SETUP_REPS > 0");
        let warm = phase(&live, None, warmup, 1, 1);
        let window = duration / metrics::WINDOWS as u32;
        let windows: Vec<workload::Phase> = (0..metrics::WINDOWS)
            .map(|i| {
                phase(
                    &live,
                    None,
                    window,
                    metrics::min_window_requests(),
                    2 + i as u64,
                )
            })
            .collect();
        let rss = live.peak_rss_mib().ok_or("VmHWM is not readable")?;
        live.shutdown()?;
        let m = metrics::end_to_end(&windows, kind.threads(), stats::median(&setups_s), rss);
        (m, windows, warm)
    } else {
        // Probes get their own plans and engines before the workload is
        // set up, so the measured engine sees only the workload.
        let kit = probe::Kit::build(&targets, &args.out)?;
        let live = workload::setup(kind, &targets, &server_bin, &args.out)?;
        let warm = phase(&live, None, warmup, 1, 1);
        let untraced = phase(&live, None, duration / 2, 1, 2);
        let before = live.counts()?;
        let traced = phase(&live, Some(&kit), duration / 2, 1, 3);
        let counts = live.counts()?.minus(&before);
        live.shutdown()?;
        let spans = trace::to_json(
            &traced.recorders,
            |r| r.is_multiple_of(workload::PROBE_EVERY),
            TRACE_FILE_REQUESTS,
        );
        let file = args.out.join(format!("trace-{}.json", kind.name()));
        let body = Json::obj([
            ("workload", Json::str(kind.name())),
            ("provenance", provenance.clone()),
            ("spans", spans),
        ]);
        write(&file, &body)?;
        let m = metrics::per_layer(
            kind != Kind::Serve2c,
            &untraced,
            &traced,
            kind.threads(),
            &counts.per(traced.latencies_ms.len() as f64),
            &kit.builds_ms,
            &kit.saves_ms,
        );
        (m, vec![traced], warm)
    };

    let first_error = std::iter::once(&warm)
        .chain(&measured)
        .find_map(|p| p.first_error.as_ref());
    if let Some(e) = first_error {
        eprintln!("bench-e2e: {}: first failure: {e}", kind.name());
    }
    let metrics = metrics?;
    let attempted: u64 = measured.iter().map(|p| p.attempted).sum();
    let failed: u64 = measured.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && warm.failed == 0;
    let samples: usize = measured.iter().map(|p| p.latencies_ms.len()).sum();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    for m in &metrics {
        println!("{} {} {} {}", kind.name(), m.name, m.value, m.unit);
    }
    println!("{} samples {samples} count", kind.name());
    println!("{} error_rate {error_rate} fraction", kind.name());

    let metrics_json = Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }));
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let result = Json::obj([
        ("workload", Json::str(kind.name())),
        ("trace", Json::Bool(args.trace)),
        ("provenance", provenance),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("samples", Json::Num(samples as f64)),
        ("error_rate", Json::Num(error_rate)),
        ("metrics", metrics_json.clone()),
    ]);
    let mode = if args.trace { "trace" } else { "e2e" };
    write(
        &args.out.join(format!(
            "result-{}-{mode}-seed{}-{stamp}-{}.json",
            kind.name(),
            args.seed,
            std::process::id()
        )),
        &result,
    )?;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics_json),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, value.to_string()).map_err(|e| format!("write {}: {e}", path.display()))
}
