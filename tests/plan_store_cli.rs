//! The persistent plan store across real processes: `repro plan save` in
//! one child process, then `repro plan load --assert-cold` in fresh
//! children, which must load every plan with zero König builds and a
//! verified output.
//!
//! Registered as a `[[test]]` of `hmm-bench` so `CARGO_BIN_EXE_repro`
//! resolves to the actual CLI binary. The empty-store case proves the
//! cold-start assertion can fail, so its passes are not vacuous.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const N: &str = "262144";
const FAMILIES: [&str; 2] = ["random", "bit-reversal"];

/// A fresh `repro plan <action> --dir DIR` child process.
fn repro_plan(action: &str, dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["plan", action, "--dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn repro")
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} exited with {}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A per-test store directory under the system temp dir, removed on drop.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("hmm-plan-store-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store dir");
        TempStore(dir)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn saved_plans_load_cold_in_fresh_processes() {
    let store = TempStore::new("warm");
    for family in FAMILIES {
        let out = repro_plan("save", &store.0, &["--n", N, "--family", family]);
        assert_success(&out, &format!("plan save {family}"));
    }
    let stats = repro_plan("stats", &store.0, &[]);
    assert_success(&stats, "plan stats");
    let listing = String::from_utf8_lossy(&stats.stdout);
    assert!(listing.contains("2 plan(s)"), "{listing}");

    for family in FAMILIES {
        let out = repro_plan(
            "load",
            &store.0,
            &["--n", N, "--family", family, "--assert-cold"],
        );
        assert_success(&out, &format!("plan load --assert-cold {family}"));
        let report = String::from_utf8_lossy(&out.stdout);
        assert!(report.contains("verified=true"), "{family}: {report}");
        assert!(
            report.contains("cold-start assertion: PASS"),
            "{family}: {report}"
        );
    }
}

#[test]
fn assert_cold_fails_on_an_empty_store() {
    let store = TempStore::new("empty");
    let out = repro_plan(
        "load",
        &store.0,
        &["--n", N, "--family", "random", "--assert-cold"],
    );
    assert!(
        !out.status.success(),
        "--assert-cold passed with nothing stored:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
