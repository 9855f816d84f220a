//! Cross-process conformance: the TCP front door is the *fourth* front
//! door in the differential matrix, and it must be byte-identical to
//! the in-process `SharedEngine` and the naive `b[P[i]] = a[i]`
//! reference — across all five paper families, both element widths,
//! with a real server process on the other side of a real socket.
//!
//! Registered as a `[[test]]` of `hmm-server` (the file lives at the
//! workspace root beside `tests/conformance.rs`) so
//! `CARGO_BIN_EXE_hmm-server` resolves to the actual server binary.
//!
//! The restart leg pins the ROADMAP cold-start story end to end: a
//! server killed and restarted over the same `PlanStore` directory
//! completes every registration with `builds == 0`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use hmm_native::{Route, SharedEngine};
use hmm_perm::{families, Permutation};
use hmm_server::{Client, ClientError, Elem, ErrCode, PlanHandle};

const W: usize = 32;

/// n ∈ {1K, 64K}: both `r·c` with factors that are multiples of W.
const SIZES: [usize; 2] = [1 << 10, 1 << 16];

/// A real `hmm-server serve` child process, reaped on drop.
struct ServerProc {
    child: Child,
    // Held open so the child's final `DRAINED` line has somewhere to go
    // (dropping the read end would SIGPIPE-panic the child's println).
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
    drained: bool,
}

impl ServerProc {
    fn spawn(extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hmm-server"))
            .arg("serve")
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn hmm-server");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read LISTENING line");
        let addr = line
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
            .trim()
            .to_string();
        ServerProc {
            child,
            stdout,
            addr,
            drained: false,
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr.as_str()).expect("connect to server process")
    }

    /// Graceful shutdown: DRAIN, confirm the `DRAINED` banner, then
    /// wait for the process to exit 0.
    fn drain_and_wait(mut self) {
        let mut c = self.client();
        c.drain().expect("drain");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read DRAINED line");
        assert_eq!(line.trim(), "DRAINED");
        let status = self.child.wait().expect("wait for server exit");
        assert!(status.success(), "server exited with {status}");
        self.drained = true;
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.drained {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The five paper families at size `n`, plus a random invertible BMMC.
/// The structured ones the server routes scheduled run the one tiled
/// pass on byte lanes straight out of the request body, which sits at a
/// byte offset that aligns neither `u32` nor `u64` lanes.
fn paper_families(n: usize) -> Vec<(&'static str, Permutation)> {
    vec![
        ("identity", families::identical(n)),
        ("shuffle", families::shuffle(n).unwrap()),
        ("transpose", families::transpose_square(n).unwrap()),
        ("bit-reversal", families::bit_reversal(n).unwrap()),
        ("random", families::random(n, 0xc0ffee ^ n as u64)),
        (
            "random-bmmc",
            families::random_bmmc(n, 0xb117 ^ n as u64).unwrap(),
        ),
    ]
}

/// Input that is not the identity ramp, so index/value confusions show.
fn input<T: Elem + From<u32>>(n: usize) -> Vec<T> {
    (0..n as u32)
        .map(|v| T::from(v.wrapping_mul(0x9e37_79b9) ^ 0x5eed))
        .collect()
}

/// Naive reference: the paper's definition with a plain loop — no code
/// shared with the permutation layer, the plan builder, the engine, or
/// the wire protocol.
fn naive_reference<T: Elem>(p: &Permutation, a: &[T]) -> Vec<T> {
    let mut b = vec![T::default(); a.len()];
    for (i, &pi) in p.as_slice().iter().enumerate() {
        b[pi] = a[i];
    }
    b
}

/// One cell of the differential matrix: TCP output vs in-process engine
/// output vs naive reference, all byte-identical.
fn check_cell<T: Elem + From<u32>>(
    client: &mut Client,
    engine: &SharedEngine<T>,
    name: &str,
    p: &Permutation,
) {
    let n = p.len();
    let src = input::<T>(n);
    let want = naive_reference(p, &src);

    let mut in_process = vec![T::default(); n];
    engine.permute(p, &src, &mut in_process).unwrap();
    assert_eq!(
        in_process,
        want,
        "{name} n={n} w{}: in-process engine diverges from naive",
        T::WIDTH * 8
    );

    let handle: PlanHandle<T> = client.register(p).unwrap();
    let over_tcp = client.permute(&handle, &src).unwrap();
    assert_eq!(
        over_tcp,
        want,
        "{name} n={n} w{}: TCP front door diverges from naive",
        T::WIDTH * 8
    );
    assert_eq!(
        over_tcp,
        in_process,
        "{name} n={n} w{}: TCP front door diverges from in-process engine",
        T::WIDTH * 8
    );
}

#[test]
fn tcp_front_door_matches_engine_and_naive_across_the_matrix() {
    let server = ServerProc::spawn(&[]);
    let engine_u32: SharedEngine<u32> = SharedEngine::new(W);
    let engine_u64: SharedEngine<u64> = SharedEngine::new(W);
    let mut client = server.client();

    for n in SIZES {
        for (name, p) in paper_families(n) {
            check_cell::<u32>(&mut client, &engine_u32, name, &p);
            check_cell::<u64>(&mut client, &engine_u64, name, &p);
        }
    }
    server.drain_and_wait();
}

#[test]
fn batch_path_matches_naive_over_tcp() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let n = 1 << 12;
    let p = families::random(n, 0xfeed);
    let handle = client.register::<u32>(&p).unwrap();

    let srcs: Vec<Vec<u32>> = (0..5)
        .map(|k| (0..n as u32).map(|v| v.wrapping_mul(2 * k + 1)).collect())
        .collect();
    let outs = client.permute_batch(&handle, &srcs).unwrap();
    assert_eq!(outs.len(), srcs.len());
    for (k, (src, out)) in srcs.iter().zip(&outs).enumerate() {
        assert_eq!(out, &naive_reference(&p, src), "batch member {k}");
    }
    server.drain_and_wait();
}

/// One target of the batch differential: a batch of four members equals
/// the same members sent as single `PERMUTE`s and the naive reference;
/// an empty batch gets an empty reply; a batch with one short member is
/// refused with one typed `SizeMismatch` before any member runs.
fn check_batch<T: Elem + From<u32>>(client: &mut Client, name: &str, p: &Permutation) {
    let n = p.len();
    let h = client.register::<T>(p).unwrap();
    let srcs: Vec<Vec<T>> = (0..4u32)
        .map(|k| {
            (0..n as u32)
                .map(|v| T::from(v.wrapping_mul(2 * k + 1) ^ k))
                .collect()
        })
        .collect();
    let outs = client.permute_batch(&h, &srcs).unwrap();
    assert_eq!(outs.len(), srcs.len(), "{name}");
    for (k, (src, out)) in srcs.iter().zip(&outs).enumerate() {
        let single = client.permute(&h, src).unwrap();
        assert_eq!(out, &single, "{name}: batch member {k} vs PERMUTE");
        assert_eq!(out, &naive_reference(p, src), "{name}: batch member {k}");
    }

    assert_eq!(
        client.permute_batch::<T>(&h, &[]).unwrap(),
        Vec::<Vec<T>>::new(),
        "{name}: empty batch"
    );

    let before = client.stats().unwrap();
    let mut bad = srcs.clone();
    bad[2].pop();
    match client.permute_batch(&h, &bad) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrCode::SizeMismatch, "{name}: {message}");
            assert!(message.contains("payload 2"), "{name}: {message}");
        }
        other => panic!("{name}: expected SizeMismatch, got {other:?}"),
    }
    let after = client.stats().unwrap();
    assert_eq!(
        (after.submitted, after.completed),
        (before.submitted, before.completed),
        "{name}: a refused batch runs no member"
    );
}

/// Batch differential over TCP at u32 and u64, on one scatter-route and
/// one scheduled-route target.
#[test]
fn batch_matches_single_permutes_and_naive_at_both_widths() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let n = 1 << 12;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    for (name, p, route) in [
        ("identity", families::identical(n), Route::Scatter),
        ("random", families::random(n, 0xba7c), Route::Scheduled),
    ] {
        // The server's engine has the same width and γ threshold.
        assert_eq!(engine.plan(&p).unwrap().route(), route, "{name}");
        check_batch::<u32>(&mut client, name, &p);
        check_batch::<u64>(&mut client, name, &p);
    }
    let stats = client.stats().unwrap();
    // Per target and width: 4 batch members and 4 single PERMUTEs.
    assert_eq!(stats.submitted, 2 * 2 * 8, "{stats:?}");
    assert_eq!(stats.submitted, stats.completed, "{stats:?}");
    server.drain_and_wait();
}

#[test]
fn bmmc_registration_matches_index_registration() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let n = 1 << 12;
    let p = families::bit_reversal(n).unwrap();
    let m = p.as_bmmc().expect("bit reversal is affine");

    let by_index = client.register::<u32>(&p).unwrap();
    let by_matrix = client.register_bmmc::<u32>(&m).unwrap();
    let src = input::<u32>(n);
    let a = client.permute(&by_index, &src).unwrap();
    let b = client.permute(&by_matrix, &src).unwrap();
    assert_eq!(
        a, b,
        "matrix-registered plan diverges from index-registered"
    );
    assert_eq!(a, naive_reference(&p, &src));
    server.drain_and_wait();
}

#[test]
fn server_restart_over_plan_store_completes_with_zero_builds() {
    let dir = std::env::temp_dir().join(format!(
        "hmm-server-conformance-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_arg = dir.to_str().unwrap().to_string();

    let n = 1 << 16;
    // Random: γ far above threshold, so registration forces a real
    // König build (the affine families would take the structured path
    // and never build at all).
    let p = families::random(n, 0xabad1dea);
    let src = input::<u32>(n);
    let want = naive_reference(&p, &src);

    // Leg 1: cold store. The build happens here and is persisted.
    {
        let server = ServerProc::spawn(&["--store", &dir_arg]);
        let mut client = server.client();
        let h = client.register::<u32>(&p).unwrap();
        assert_eq!(client.permute(&h, &src).unwrap(), want);
        let stats = client.stats().unwrap();
        assert!(
            stats.builds >= 1,
            "cold leg should have built at least once: {stats:?}"
        );
        server.drain_and_wait();
    }

    // Leg 2: a *new process* over the same store. Same registration,
    // same payload, byte-identical output — and zero builds: the plan
    // comes verified off disk once, and the u64 registration is a memory
    // hit on that plan (plans are element-agnostic, so both widths share
    // one cache entry).
    {
        let server = ServerProc::spawn(&["--store", &dir_arg]);
        let mut client = server.client();
        let h32 = client.register::<u32>(&p).unwrap();
        assert_eq!(client.permute(&h32, &src).unwrap(), want);
        let h64 = client.register::<u64>(&p).unwrap();
        let src64 = input::<u64>(n);
        assert_eq!(
            client.permute(&h64, &src64).unwrap(),
            naive_reference(&p, &src64)
        );

        let stats = client.stats().unwrap();
        assert_eq!(stats.builds, 0, "warm restart must not rebuild: {stats:?}");
        assert!(
            stats.store_hits == 1 && stats.hits >= 1,
            "one store load, then a cache hit for the other width: {stats:?}"
        );
        server.drain_and_wait();
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registering_one_permutation_at_both_widths_plans_it_once() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    let n = 1 << 12;
    let p = families::random(n, 0x51de);
    let h32 = client.register::<u32>(&p).unwrap();
    let h64 = client.register::<u64>(&p).unwrap();
    let src32 = input::<u32>(n);
    let src64 = input::<u64>(n);
    assert_eq!(
        client.permute(&h32, &src32).unwrap(),
        naive_reference(&p, &src32)
    );
    assert_eq!(
        client.permute(&h64, &src64).unwrap(),
        naive_reference(&p, &src64)
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats.misses, 1, "both widths share one plan: {stats:?}");
    assert!(
        stats.hits >= 1,
        "the second width is a cache hit: {stats:?}"
    );
    assert_eq!(
        stats.submitted, 2,
        "one ledger counts both widths: {stats:?}"
    );
    assert_eq!(stats.completed, 2, "{stats:?}");
    server.drain_and_wait();
}

#[test]
fn serve_refuses_zero_width_with_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_hmm-server"))
        .args(["serve", "--width", "0"])
        .output()
        .expect("run hmm-server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a zero-width server must not start");
    assert!(out.stdout.is_empty(), "nothing was bound: {:?}", out.stdout);
    assert!(
        stderr.starts_with("hmm-server serve:") && stderr.contains("width must be positive"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A mistyped flag, or a flag with no value, must stop `serve` before it
/// binds instead of starting a server on defaults.
#[test]
fn serve_refuses_unknown_and_valueless_flags() {
    for (args, want) in [
        (&["serve", "--max-conn", "4"][..], "unknown flag --max-conn"),
        (&["serve", "--width"][..], "--width needs a value"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hmm-server"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run hmm-server");
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("read stdout");
        if !first.is_empty() {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} started a server: {first:?}");
        }
        let out = child.wait_with_output().expect("wait for hmm-server");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("hmm-server serve:") && stderr.contains(want),
            "{args:?}: {stderr}"
        );
    }
}
