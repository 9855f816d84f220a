//! The `hmm-server` binary: `serve` runs the TCP front door until a
//! client drains it; `bench-client` is the load generator the
//! `repro serve` bench arm (and the cross-process conformance suite)
//! spawns as a real separate process.
//!
//! ```text
//! hmm-server serve [--addr 127.0.0.1:0] [--width W] [--store DIR]
//!                  [--max-plans N] [--max-inflight N]
//!                  [--idle-timeout-ms MS] [--max-conns N]
//! hmm-server bench-client --addr HOST:PORT [--n N] [--family NAME]
//!                  [--seed S] [--reps R] [--batch K] [--u64]
//! ```
//!
//! `serve` prints exactly one `LISTENING <addr>` line once the port is
//! bound (machine-readable: spawners parse it to learn the OS-assigned
//! port), then blocks until a `DRAIN` arrives from a loopback peer and
//! prints `DRAINED`.
//!
//! `bench-client` registers one family permutation, verifies the first
//! response against the naive `b[P[i]] = a[i]` reference, then streams
//! `--reps` timed permutes and prints one parseable line:
//! `CLIENT <family> <n> <reps> <seconds> <elements_per_sec>`.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use hmm_perm::families::Family;
use hmm_server::{AdmissionConfig, Client, Elem, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let rest = if args.is_empty() { &[][..] } else { &args[1..] };
    match mode {
        Some("serve") => serve(rest),
        Some("bench-client") => bench_client(rest),
        _ => {
            eprintln!("usage: hmm-server <serve|bench-client> [flags]");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--flag value` lookup.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for {name}: {raw}")),
    }
}

fn serve(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let addr = flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string();
        let width = parse(args, "--width", 32usize)?;
        let defaults = AdmissionConfig::default();
        let admission = AdmissionConfig {
            max_plans: parse(args, "--max-plans", defaults.max_plans)?,
            max_inflight: parse(args, "--max-inflight", defaults.max_inflight)?,
        };
        let store_dir = flag_value(args, "--store").map(Into::into);
        let config_defaults = ServerConfig::default();
        // 0 disables the idle reap entirely.
        let idle_ms = parse(
            args,
            "--idle-timeout-ms",
            config_defaults
                .idle_timeout
                .map_or(0, |t| t.as_millis() as u64),
        )?;
        let server = Server::bind(
            addr.as_str(),
            ServerConfig {
                width,
                admission,
                store_dir,
                idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
                max_connections: parse(args, "--max-conns", config_defaults.max_connections)?,
            },
        )
        .map_err(|e| e.to_string())?;
        // The spawner blocks on this line to learn the bound port.
        println!("LISTENING {}", server.local_addr());
        std::io::stdout().flush().ok();
        server.wait_drained();
        println!("DRAINED");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hmm-server serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn family_by_name(name: &str) -> Option<Family> {
    Family::ALL.into_iter().find(|f| f.name() == name)
}

/// The conformance suite's standard input pattern: distinct-ish values
/// with structure a stuck-at-zero bug cannot fake.
fn input<T: Elem + From<u32>>(n: usize) -> Vec<T> {
    (0..n as u32)
        .map(|v| T::from(v.wrapping_mul(0x9e37_79b9) ^ 0x5eed))
        .collect()
}

fn bench_client(args: &[String]) -> ExitCode {
    match bench_client_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hmm-server bench-client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench_client_inner(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").ok_or("missing --addr")?;
    let n = parse(args, "--n", 1usize << 16)?;
    let reps = parse(args, "--reps", 8usize)?;
    let batch = parse(args, "--batch", 1usize)?;
    let seed = parse(args, "--seed", 1u64)?;
    let family_name = flag_value(args, "--family").unwrap_or("random");
    let family =
        family_by_name(family_name).ok_or_else(|| format!("unknown family {family_name}"))?;
    let p = family.build(n, seed).map_err(|e| e.to_string())?;

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    if has_flag(args, "--u64") {
        drive::<u64>(&mut client, &p, family_name, n, reps, batch)
    } else {
        drive::<u32>(&mut client, &p, family_name, n, reps, batch)
    }
}

fn drive<T: Elem + From<u32>>(
    client: &mut Client,
    p: &hmm_perm::Permutation,
    family: &str,
    n: usize,
    reps: usize,
    batch: usize,
) -> Result<(), String> {
    let handle = client.register::<T>(p).map_err(|e| e.to_string())?;
    let src = input::<T>(n);

    // First response is verified against the naive reference — the
    // bench refuses to time a wrong answer.
    let out = client.permute(&handle, &src).map_err(|e| e.to_string())?;
    let mut expect = vec![T::default(); n];
    for (i, &v) in src.iter().enumerate() {
        expect[p.apply(i)] = v;
    }
    if out != expect {
        return Err("server output diverges from naive reference".into());
    }

    let start = Instant::now();
    if batch > 1 {
        let srcs: Vec<Vec<T>> = (0..batch).map(|_| src.clone()).collect();
        let rounds = reps.div_ceil(batch);
        for _ in 0..rounds {
            client
                .permute_batch(&handle, &srcs)
                .map_err(|e| e.to_string())?;
        }
    } else {
        for _ in 0..reps {
            client.permute(&handle, &src).map_err(|e| e.to_string())?;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let total = if batch > 1 {
        reps.div_ceil(batch) * batch
    } else {
        reps
    };
    let eps = (total * n) as f64 / seconds.max(1e-12);
    println!("CLIENT {family} {n} {total} {seconds:.6} {eps:.1}");
    Ok(())
}
