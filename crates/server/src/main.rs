//! The `hmm-server` binary: `serve` runs the TCP front door until a
//! client drains it.
//!
//! ```text
//! hmm-server serve [--addr 127.0.0.1:0] [--width W] [--store DIR]
//!                  [--max-plans N] [--max-inflight N]
//!                  [--idle-timeout-ms MS] [--max-conns N]
//! ```
//!
//! Every flag takes one value; an unknown flag, or a flag with no value,
//! exits 1 before anything is bound.
//!
//! `serve` prints exactly one `LISTENING <addr>` line once the port is
//! bound (machine-readable: spawners parse it to learn the OS-assigned
//! port), then blocks until a `DRAIN` arrives from a loopback peer and
//! prints `DRAINED`. A spawner that has closed its end of stdout by then
//! (it read only the `LISTENING` line) does not turn the drain into a
//! failure: the line is dropped and the exit code is still 0.

use std::io::Write as _;
use std::process::ExitCode;

use hmm_server::{AdmissionConfig, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let rest = if args.is_empty() { &[][..] } else { &args[1..] };
    match mode {
        Some("serve") => serve(rest),
        _ => {
            eprintln!("usage: hmm-server serve [flags]");
            ExitCode::FAILURE
        }
    }
}

/// The flags `serve` accepts, each followed by one value.
const FLAGS: [&str; 7] = [
    "--addr",
    "--width",
    "--store",
    "--max-plans",
    "--max-inflight",
    "--idle-timeout-ms",
    "--max-conns",
];

/// Split `args` into `--flag value` pairs, refusing an unknown flag and a
/// flag with no value (either would otherwise start a server on defaults).
fn parse_flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

/// The value given for `name`, if any.
fn flag_value<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| *f == name).map(|&(_, v)| v)
}

fn parse<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(flags, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for {name}: {raw}")),
    }
}

fn serve(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let args = &parse_flags(args)?;
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
        let mut out = std::io::stdout().lock();
        match writeln!(out, "DRAINED").and_then(|()| out.flush()) {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.to_string()),
            _ => Ok(()),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hmm-server serve: {e}");
            ExitCode::FAILURE
        }
    }
}
