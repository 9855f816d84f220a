//! Robustness suite for the ugly paths: clients dying mid-payload,
//! hostile bytes on a live socket, slow readers, `DRAIN` racing an
//! in-flight batch or racing inline `PERMUTE`s, and admission
//! rejections — each pinned against the engine-stats ledger
//! (`submitted == completed`) so a job left running cannot hide — plus a config the engine cannot build, refused by
//! `Server::bind` with an error instead of a panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hmm_perm::families;
use hmm_server::proto::{elems_to_bytes, Frame, PermRepr, ServerStats};
use hmm_server::{
    read_frame, write_frame, write_permute, AdmissionConfig, Client, ClientError, ErrCode, Server,
    ServerConfig, ServerError, PROTOCOL_VERSION,
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
    s.submitted == s.completed
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
        "a half-received frame must never reach the engine"
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

/// A `DRAIN` racing a 48-member batch: the batch is either refused as
/// `Draining` or completes in full, and the server's stats taken the
/// moment the drain is acknowledged already agree — `DRAIN_OK` never
/// goes out while a member is still to run. Round 0 sends the drain at
/// once, racing the batch to the server; round 1 sends it once the
/// batch's first member has started.
#[test]
fn drain_during_in_flight_batch_flushes_then_acks() {
    const MEMBERS: usize = 48;
    let n = 1 << 16;
    let p = families::random(n, 99);
    let srcs: Vec<Vec<u32>> = (0..MEMBERS as u32)
        .map(|k| (0..n as u32).map(|v| v.wrapping_add(k)).collect())
        .collect();
    let mut expect = vec![0u32; n];
    p.permute(&srcs[0], &mut expect).unwrap();

    for round in 0..2 {
        let server = server();
        let addr = server.local_addr();
        let mut client_a = Client::connect(addr).unwrap();
        let h = client_a.register::<u32>(&p).unwrap();

        let (batch, at_drain) = std::thread::scope(|s| {
            let batch = s.spawn(|| client_a.permute_batch(&h, &srcs));
            let drain = s.spawn(|| {
                if round == 1 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while server.stats().submitted == 0 {
                        assert!(Instant::now() < deadline, "the batch never started");
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                Client::connect(addr).unwrap().drain().unwrap();
                server.stats()
            });
            (batch.join().unwrap(), drain.join().unwrap())
        });
        server.wait_drained();

        // A hang or a dropped member is a failure either way.
        let ran = match batch {
            Ok(outputs) => {
                assert_eq!(outputs.len(), MEMBERS, "round {round}");
                assert_eq!(outputs[0], expect, "round {round}");
                MEMBERS as u64
            }
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrCode::Draining, "round {round}");
                0
            }
            Err(other) => panic!("round {round}: batch neither completed nor refused: {other}"),
        };
        if round == 1 {
            assert_eq!(ran, MEMBERS as u64, "a started batch must finish");
        }
        assert!(at_drain.draining);
        assert_eq!(
            (at_drain.submitted, at_drain.completed),
            (ran, ran),
            "round {round}: DRAIN_OK went out with the batch partly done: {at_drain:?}"
        );
        assert!(ledger_balanced(&server.stats()));
    }
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

/// A checksummed `PERMUTE` whose body is too short to hold a handle is a
/// body-level violation: the session answers `ERR malformed` with the
/// decoder's own diagnosis and keeps serving the same connection,
/// including the next `PERMUTE`.
#[test]
fn short_permute_body_is_malformed_and_the_session_keeps_serving() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = raw.try_clone().unwrap();

    // A v2 frame written longhand: header, 5-byte body, checksum.
    let mut bytes = b"HMMS".to_vec();
    bytes.extend_from_slice(&[2, hmm_server::proto::kind::PERMUTE]);
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
    let sum = hmm_perm::hash::hash_bytes(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    let decoded = Frame::decode(&bytes).unwrap_err();
    raw.write_all(&bytes).unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Err { code, message } => {
            assert_eq!(code, ErrCode::Malformed);
            assert_eq!(message, decoded.to_string());
        }
        other => panic!("expected ERR, got {}", other.kind_name()),
    }

    let n = 1 << 10;
    let p = families::random(n, 17);
    write_frame(
        &mut raw,
        &Frame::Register {
            fingerprint: p.fingerprint(),
            n: n as u64,
            elem_width: 4,
            perm: PermRepr::Index(p.as_slice().iter().map(|&d| d as u32).collect()),
        },
    )
    .unwrap();
    let Frame::Registered { handle } = read_frame(&mut reader).unwrap() else {
        panic!("registration refused");
    };
    let src: Vec<u32> = (0..n as u32).collect();
    write_permute(&mut raw, PROTOCOL_VERSION, handle, &src).unwrap();
    let mut want = vec![0u32; n];
    p.permute(&src, &mut want).unwrap();
    assert_eq!(
        read_frame(&mut reader).unwrap(),
        Frame::Permuted {
            payload: elems_to_bytes(&want)
        }
    );
}

/// Hostile `PERMUTE_BATCH` bodies, each in a checksummed frame: cut
/// short at every field, with a trailing byte, and with a count past
/// `MAX_BATCH`. The session answers each with `ERR malformed` carrying
/// exactly the diagnosis `Frame::decode` gives the same bytes (the
/// server splits a batch with the decoder's own grammar), runs no job,
/// and then serves a valid batch on the same connection.
#[test]
fn malformed_batch_bodies_get_the_decoders_error_and_the_session_keeps_serving() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = raw.try_clone().unwrap();
    let n = 1 << 10;
    let p = families::random(n, 18);
    write_frame(
        &mut raw,
        &Frame::Register {
            fingerprint: p.fingerprint(),
            n: n as u64,
            elem_width: 4,
            perm: PermRepr::Index(p.as_slice().iter().map(|&d| d as u32).collect()),
        },
    )
    .unwrap();
    let Frame::Registered { handle } = read_frame(&mut reader).unwrap() else {
        panic!("registration refused");
    };
    let srcs: Vec<Vec<u32>> = (0..2u32)
        .map(|k| (0..n as u32).map(|v| v ^ k).collect())
        .collect();
    let valid = Frame::PermuteBatch {
        handle,
        payloads: srcs.iter().map(|s| elems_to_bytes(s)).collect(),
    }
    .encode();
    let body = &valid[10..valid.len() - 8];

    // handle | count | len0 payload0 | len1 payload1
    let first_payload = 8 + 4 + 4;
    let mut hostile: Vec<Vec<u8>> = [5, 8, 10, 12, 14, first_payload + 3, body.len() - 1]
        .iter()
        .map(|&cut| body[..cut].to_vec())
        .collect();
    let mut trailing = body.to_vec();
    trailing.push(0);
    hostile.push(trailing);
    let mut too_many = body[..8].to_vec();
    too_many.extend_from_slice(&(hmm_server::MAX_BATCH as u32 + 1).to_le_bytes());
    hostile.push(too_many);

    for body in &hostile {
        // A v2 frame written longhand: header, body, checksum.
        let mut bytes = b"HMMS".to_vec();
        bytes.extend_from_slice(&[2, hmm_server::proto::kind::PERMUTE_BATCH]);
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(body);
        let sum = hmm_perm::hash::hash_bytes(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let decoded = Frame::decode(&bytes).unwrap_err();
        raw.write_all(&bytes).unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Err { code, message } => {
                assert_eq!(code, ErrCode::Malformed, "{} bytes", body.len());
                assert_eq!(message, decoded.to_string(), "{} bytes", body.len());
            }
            other => panic!("expected ERR, got {}", other.kind_name()),
        }
    }
    assert_eq!(
        server.stats().submitted,
        0,
        "no member of a malformed batch ran"
    );

    raw.write_all(&valid).unwrap();
    let Frame::PermutedBatch { payloads } = read_frame(&mut reader).unwrap() else {
        panic!("the valid batch was refused");
    };
    for (src, out) in srcs.iter().zip(&payloads) {
        let mut want = vec![0u32; n];
        p.permute(src, &mut want).unwrap();
        assert_eq!(out, &elems_to_bytes(&want));
    }
}

/// Two clients loop single `PERMUTE`s (each run on its session thread)
/// while a third drains: every reply is the right output or a typed
/// `Draining`, the drain is acknowledged, and once the clients are done
/// the ledger balances.
#[test]
fn inline_permutes_racing_a_drain_are_correct_or_draining() {
    let server = server();
    let addr = server.local_addr();
    let n = 1 << 12;
    let p = families::random(n, 23);
    let served = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));

    let loops: Vec<_> = (0..2u32)
        .map(|k| {
            let (p, served) = (p.clone(), std::sync::Arc::clone(&served));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let h = client.register::<u32>(&p).unwrap();
                let src: Vec<u32> = (0..n as u32).map(|v| v ^ k).collect();
                let mut want = vec![0u32; n];
                p.permute(&src, &mut want).unwrap();
                loop {
                    match client.permute(&h, &src) {
                        Ok(out) => {
                            assert_eq!(out, want, "client {k}");
                            served.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        }
                        Err(ClientError::Server { code, .. }) => {
                            assert_eq!(code, ErrCode::Draining, "client {k}");
                            return;
                        }
                        Err(other) => panic!("client {k}: {other}"),
                    }
                }
            })
        })
        .collect();

    // Drain only once both loops have jobs on the books.
    let deadline = Instant::now() + Duration::from_secs(10);
    while served.load(std::sync::atomic::Ordering::SeqCst) < 8 {
        assert!(Instant::now() < deadline, "clients never got going");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut drain_client = Client::connect(addr).unwrap();
    drain_client.drain().unwrap();
    server.wait_drained();
    for l in loops {
        l.join().unwrap();
    }

    let stats = server.stats();
    assert!(stats.draining);
    assert!(stats.submitted >= 8, "{stats:?}");
    assert!(ledger_balanced(&stats), "ledger unbalanced: {stats:?}");
}
