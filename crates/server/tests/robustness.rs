//! Robustness suite for the ugly paths: clients dying mid-payload,
//! hostile bytes on a live socket, slow readers, `DRAIN` racing an
//! in-flight batch, and admission rejections — each pinned against the
//! engine-stats ledger (`submitted == completed + cancelled`) so a
//! leaked queue slot cannot hide — plus a config the engine cannot
//! build, refused by `Server::bind` with an error instead of a panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hmm_perm::families;
use hmm_server::proto::{elems_to_bytes, Frame, ServerStats};
use hmm_server::{
    read_frame, write_frame, AdmissionConfig, Client, ClientError, ErrCode, Server, ServerConfig,
    ServerError,
};

fn server() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn small_server(admission: AdmissionConfig) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Poll until `pred` holds or 5 s elapse — connection teardown is
/// asynchronous (the handler thread notices EOF on its own schedule).
fn wait_for(server: &Server, pred: impl Fn(&ServerStats) -> bool) -> ServerStats {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = server.stats();
        if pred(&s) {
            return s;
        }
        if Instant::now() > deadline {
            panic!("condition not reached within 5s; stats: {s:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn ledger_balanced(s: &ServerStats) -> bool {
    s.submitted == s.completed + s.cancelled
}

#[test]
fn disconnect_mid_payload_leaks_nothing() {
    let server = server();
    let n = 1 << 10;

    // A well-behaved client registers and runs one job, so the engine
    // has real traffic on the books.
    let mut good = Client::connect(server.local_addr()).unwrap();
    let p = families::random(n, 7);
    let h = good.register::<u32>(&p).unwrap();
    let src: Vec<u32> = (0..n as u32).collect();
    good.permute(&h, &src).unwrap();

    // A doomed client sends a PERMUTE frame header + half the body,
    // then dies. The server must reap the connection without ever
    // submitting a job (frames are fully read before dispatch).
    let before = server.stats();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let frame = Frame::Permute {
            handle: h.id(),
            payload: elems_to_bytes(&src),
        };
        let bytes = frame.encode();
        raw.write_all(&bytes[..bytes.len() / 2]).unwrap();
        raw.flush().unwrap();
        // Dropped here: TCP FIN mid-frame.
    }

    let after = wait_for(&server, |s| s.active_clients == 1 && ledger_balanced(s));
    assert_eq!(
        after.submitted, before.submitted,
        "a half-received frame must never reach the queue"
    );

    // The engine still serves the well-behaved client.
    let out = good.permute(&h, &src).unwrap();
    assert_eq!(out.len(), n);
}

#[test]
fn hostile_bytes_get_a_typed_err_frame_not_a_silent_disconnect() {
    let server = server();

    // Garbage magic: the server must diagnose (ERR BadFrame) and close.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GETX/1.1 not a permutation protocol\r\n\r\n")
        .unwrap();
    raw.flush().unwrap();
    let reply = read_frame(&mut raw.try_clone().unwrap()).unwrap();
    match reply {
        Frame::Err { code, message } => {
            assert_eq!(code, ErrCode::BadFrame);
            assert!(!message.is_empty());
        }
        other => panic!("expected ERR, got {}", other.kind_name()),
    }
    // ...and the connection is then closed by the server.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // Bit-flipped checksum on an otherwise valid frame: same contract.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = Frame::Stats.encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();
    match read_frame(&mut raw.try_clone().unwrap()).unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::BadFrame),
        other => panic!("expected ERR, got {}", other.kind_name()),
    }

    // A well-formed frame of a kind only servers send: diagnosed as
    // Malformed, and the connection KEEPS serving (stream still
    // frame-aligned).
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = raw.try_clone().unwrap();
    write_frame(&mut raw, &Frame::DrainOk).unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::Malformed),
        other => panic!("expected ERR, got {}", other.kind_name()),
    }
    write_frame(&mut raw, &Frame::Stats).unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::StatsReport(_) => {}
        other => panic!("connection should still serve; got {}", other.kind_name()),
    }
}

#[test]
fn slow_reader_pipelined_requests_all_complete() {
    let server = server();
    // 4 KiB payloads × 16 pipelined = 64 KiB per direction: enough to
    // make the reader genuinely lag, small enough that kernel socket
    // buffers absorb it without mutually blocking the test itself.
    let n = 1 << 10;
    let p = families::bit_reversal(n).unwrap();

    // Register through the typed client, then pipeline 8 PERMUTE frames
    // on the raw socket without reading a single response: the server's
    // writes land in the socket buffer while the reader lags.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = raw.try_clone().unwrap();
    let src: Vec<u32> = (0..n as u32).map(|v| v.rotate_left(9) ^ 0xa5a5).collect();
    write_frame(
        &mut raw,
        &Frame::Register {
            fingerprint: p.fingerprint(),
            n: n as u64,
            elem_width: 4,
            perm: hmm_server::PermRepr::Index(p.as_slice().iter().map(|&v| v as u32).collect()),
        },
    )
    .unwrap();
    let handle = match read_frame(&mut reader).unwrap() {
        Frame::Registered { handle } => handle,
        other => panic!("expected REGISTERED, got {}", other.kind_name()),
    };

    const PIPELINED: usize = 16;
    for _ in 0..PIPELINED {
        write_frame(
            &mut raw,
            &Frame::Permute {
                handle,
                payload: elems_to_bytes(&src),
            },
        )
        .unwrap();
    }
    // Lag, then drain all eight responses; every one must be the
    // correct permutation, in order.
    std::thread::sleep(Duration::from_millis(100));
    let mut expect = vec![0u32; n];
    p.permute(&src, &mut expect).unwrap();
    let expect_bytes = elems_to_bytes(&expect);
    for i in 0..PIPELINED {
        match read_frame(&mut reader).unwrap() {
            Frame::Permuted { payload } => assert_eq!(payload, expect_bytes, "response {i}"),
            other => panic!("response {i}: expected PERMUTED, got {}", other.kind_name()),
        }
    }
    let stats = server.stats();
    assert!(ledger_balanced(&stats), "ledger unbalanced: {stats:?}");
}

#[test]
fn drain_during_in_flight_batch_flushes_then_acks() {
    let server = server();
    let n = 1 << 14;
    let p = families::random(n, 99);
    let addr = server.local_addr();

    let mut client_a = Client::connect(addr).unwrap();
    let h = client_a.register::<u32>(&p).unwrap();
    let srcs: Vec<Vec<u32>> = (0..48)
        .map(|k| (0..n as u32).map(|v| v.wrapping_add(k)).collect())
        .collect();

    // Client A fires a 48-payload batch; client B drains concurrently.
    let batch_thread = std::thread::spawn(move || client_a.permute_batch(&h, &srcs));
    let drain_thread = std::thread::spawn(move || {
        let mut client_b = Client::connect(addr).unwrap();
        client_b.drain()
    });

    let batch = batch_thread.join().unwrap();
    drain_thread.join().unwrap().unwrap();
    server.wait_drained();

    // Every batch member either completed (drain flushed it) — the only
    // acceptable alternative would be a typed Draining refusal if DRAIN
    // won the race to the dispatcher. A hang or a dropped member is a
    // failure either way.
    match batch {
        Ok(outputs) => {
            assert_eq!(outputs.len(), 48);
            let mut expect = vec![0u32; n];
            let src0: Vec<u32> = (0..n as u32).collect();
            p.permute(&src0, &mut expect).unwrap();
            assert_eq!(outputs[0], expect);
        }
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::Draining),
        Err(other) => panic!("batch neither completed nor typed-refused: {other}"),
    }

    let stats = server.stats();
    assert!(stats.draining);
    assert!(
        ledger_balanced(&stats),
        "drain left the ledger unbalanced: {stats:?}"
    );
}

#[test]
fn admission_rejections_are_typed_and_counted_in_engine_stats() {
    let server = small_server(AdmissionConfig {
        max_plans: 1,
        max_inflight: 4,
    });
    let n = 1 << 10;
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Plan quota: the second REGISTER on one session must be refused.
    let p1 = families::bit_reversal(n).unwrap();
    let p2 = families::random(n, 3);
    let h1 = client.register::<u32>(&p1).unwrap();
    match client.register::<u32>(&p2) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::AdmissionPlans),
        other => panic!("expected AdmissionPlans refusal, got {other:?}"),
    }

    // In-flight quota: a 5-payload batch against max_inflight = 4.
    let src: Vec<u32> = (0..n as u32).collect();
    let five: Vec<Vec<u32>> = (0..5).map(|_| src.clone()).collect();
    match client.permute_batch(&h1, &five) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::AdmissionInFlight),
        other => panic!("expected AdmissionInFlight refusal, got {other:?}"),
    }

    // Both rejections surface in the shared stats snapshot, and a
    // conforming batch still goes through afterwards.
    let stats = server.stats();
    assert_eq!(stats.admission_rejects, 2);
    let four: Vec<Vec<u32>> = (0..4).map(|_| src.clone()).collect();
    let outs = client.permute_batch(&h1, &four).unwrap();
    assert_eq!(outs.len(), 4);

    // A *different* session gets its own quota: registering there works.
    let mut other = Client::connect(server.local_addr()).unwrap();
    other.register::<u32>(&p2).unwrap();
}

#[test]
fn unknown_handle_fingerprint_mismatch_and_size_mismatch_are_typed() {
    let server = server();
    let n = 1 << 10;
    let mut client = Client::connect(server.local_addr()).unwrap();
    let p = families::shuffle(n).unwrap();
    let h = client.register::<u32>(&p).unwrap();

    // Unknown handle.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = raw.try_clone().unwrap();
    write_frame(
        &mut raw,
        &Frame::Permute {
            handle: 999,
            payload: vec![0; 4],
        },
    )
    .unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::UnknownHandle),
        other => panic!("expected ERR, got {}", other.kind_name()),
    }

    // Fingerprint mismatch: claim a wrong hash for a valid map.
    write_frame(
        &mut raw,
        &Frame::Register {
            fingerprint: p.fingerprint() ^ 1,
            n: n as u64,
            elem_width: 4,
            perm: hmm_server::PermRepr::Index(p.as_slice().iter().map(|&v| v as u32).collect()),
        },
    )
    .unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::FingerprintMismatch),
        other => panic!("expected ERR, got {}", other.kind_name()),
    }

    // Size mismatch: payload shorter than n × width, via the typed client.
    let short: Vec<u32> = (0..16).collect();
    match client.permute(&h, &short) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::SizeMismatch),
        other => panic!("expected SizeMismatch refusal, got {other:?}"),
    }

    // Handles are session-scoped: another connection cannot use ours.
    let mut intruder = Client::connect(server.local_addr()).unwrap();
    let stolen = h; // same id, different session
    let src: Vec<u32> = (0..n as u32).collect();
    match intruder.permute(&stolen, &src) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::UnknownHandle),
        other => panic!("handle leaked across sessions: {other:?}"),
    }
}

#[test]
fn idle_connections_are_reaped_with_a_typed_timeout() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let n = 1 << 10;

    // An active client keeps working on its own thread: every request
    // lands well inside the timeout window, so the reap must never
    // touch it even while the silent peer below is being collected.
    let mut busy = Client::connect(server.local_addr()).unwrap();
    let p = families::bit_reversal(n).unwrap();
    let h = busy.register::<u32>(&p).unwrap();
    let src: Vec<u32> = (0..n as u32).collect();
    let worker = std::thread::spawn(move || {
        let mut out = Vec::new();
        for _ in 0..40 {
            out = busy.permute(&h, &src).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        (busy, out)
    });

    // A silent client connects and sends nothing. It must receive a
    // typed ERR IdleTimeout followed by a close — not a silent drop.
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    match read_frame(&mut idle.try_clone().unwrap()).unwrap() {
        Frame::Err { code, message } => {
            assert_eq!(code, ErrCode::IdleTimeout);
            assert!(!message.is_empty());
        }
        other => panic!("expected ERR IdleTimeout, got {}", other.kind_name()),
    }
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after the timeout ERR");

    // The busy client outlived the reap with correct answers throughout.
    let (_busy, out) = worker.join().unwrap();
    assert_eq!(out.len(), n);
    let stats = wait_for(&server, |s| {
        s.idle_disconnects == 1 && s.active_clients == 1
    });
    assert_eq!(stats.conn_rejects, 0);
}

#[test]
fn connection_cap_refuses_with_typed_busy_and_recovers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 2,
            idle_timeout: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Fill the cap with two live sessions; a STATS round trip per client
    // proves each handler thread is up (the gauge increments at accept).
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.stats().unwrap();
    b.stats().unwrap();
    wait_for(&server, |s| s.active_clients == 2);

    // The third connection is refused with a typed ERR Busy, then closed.
    let mut third = TcpStream::connect(server.local_addr()).unwrap();
    match read_frame(&mut third.try_clone().unwrap()).unwrap() {
        Frame::Err { code, message } => {
            assert_eq!(code, ErrCode::Busy);
            assert!(message.contains('2'), "cap should be named: {message}");
        }
        other => panic!("expected ERR Busy, got {}", other.kind_name()),
    }
    let mut rest = Vec::new();
    third.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close a refused connection");
    let stats = wait_for(&server, |s| s.conn_rejects == 1);
    assert_eq!(stats.active_clients, 2, "cap reject must not leak a slot");

    // Capacity frees when a session ends: dropping one client admits a
    // newcomer.
    drop(a);
    wait_for(&server, |s| s.active_clients == 1);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let s = c.stats().unwrap();
    assert_eq!(s.conn_rejects, 1);
    b.stats().unwrap();
}

#[test]
fn requests_after_drain_are_refused_as_draining() {
    let server = server();
    let n = 1 << 10;
    let mut client = Client::connect(server.local_addr()).unwrap();
    let p = families::bit_reversal(n).unwrap();
    let h = client.register::<u32>(&p).unwrap();

    server.drain();
    server.wait_drained();

    // The existing connection survives the drain; new work is refused
    // with a typed Draining, not a hang or a silent close.
    let src: Vec<u32> = (0..n as u32).collect();
    match client.permute(&h, &src) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::Draining),
        other => panic!("expected Draining refusal, got {other:?}"),
    }
    match client.register::<u32>(&families::random(n, 5)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrCode::Draining),
        other => panic!("expected Draining refusal, got {other:?}"),
    }
    // STATS still answers (observability survives the drain).
    let stats = client.stats().unwrap();
    assert!(stats.draining);
}

#[test]
fn zero_width_is_a_typed_bind_error_not_a_panic() {
    let config = ServerConfig {
        width: 0,
        ..ServerConfig::default()
    };
    match Server::bind("127.0.0.1:0", config) {
        Err(ServerError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        Err(other) => panic!("expected InvalidInput, got {other}"),
        Ok(_) => panic!("a zero-width server must not bind"),
    }
}
