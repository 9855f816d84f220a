//! Protocol-v1 compatibility. The fixtures under `tests/fixtures/` are
//! `REGISTER`, `PERMUTE` and `STATS` frames written by the v1 encoder
//! (FNV-1a checksums; the `REGISTER` claims the FNV-1a fingerprint v1
//! clients computed). They must still decode, and a live server must
//! answer a v1 session in v1.

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;

use hmm_perm::families;
use hmm_server::proto::{elems_to_bytes, Frame, PermRepr};
use hmm_server::{read_frame, read_frame_versioned, ErrCode, Server, ServerConfig};

/// The permutation the `REGISTER` fixture carries, its legacy FNV-1a
/// fingerprint, and the `PERMUTE` fixture's payload.
fn fixture_perm() -> hmm_perm::Permutation {
    families::random(64, 5)
}
const LEGACY_FINGERPRINT: u64 = 0xcdae_a71e_19c1_83e5;
fn fixture_src() -> Vec<u32> {
    (0..64u32).map(|v| v * 3 + 1).collect()
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn expected_frames() -> [(&'static str, Frame); 3] {
    let p = fixture_perm();
    [
        (
            "v1-register.frame",
            Frame::Register {
                fingerprint: LEGACY_FINGERPRINT,
                n: 64,
                elem_width: 4,
                perm: PermRepr::Index(p.as_slice().iter().map(|&v| v as u32).collect()),
            },
        ),
        (
            "v1-permute.frame",
            Frame::Permute {
                handle: 1,
                payload: elems_to_bytes(&fixture_src()),
            },
        ),
        ("v1-stats.frame", Frame::Stats),
    ]
}

#[test]
fn v1_frames_still_decode() {
    for (name, want) in expected_frames() {
        let bytes = fixture(name);
        assert_eq!(bytes[4], 1, "{name} is a v1 frame");
        assert_eq!(Frame::decode(&bytes).unwrap(), want, "{name}");
        let (streamed, version) = read_frame_versioned(&mut bytes.as_slice()).unwrap();
        assert_eq!((streamed, version), (want.clone(), 1), "{name}");
        // Re-encoding at v1 gives back the fixture byte for byte.
        assert_eq!(want.encode_version(1), bytes, "{name}");
        // The v1 checksum is really checked.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 2] ^= 0x01;
        assert!(Frame::decode(&corrupt).is_err(), "{name}");
    }
}

/// Send raw frame bytes and read the reply, returning it with its version.
fn roundtrip(raw: &mut TcpStream, bytes: &[u8]) -> (Frame, u8) {
    raw.write_all(bytes).unwrap();
    raw.flush().unwrap();
    read_frame_versioned(&mut raw.try_clone().unwrap()).unwrap()
}

#[test]
fn a_v1_session_gets_v1_replies() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();

    // The v1 REGISTER's nonzero claim is the legacy fingerprint: accepted.
    let (reply, version) = roundtrip(&mut raw, &fixture("v1-register.frame"));
    assert_eq!(version, 1);
    assert_eq!(reply, Frame::Registered { handle: 1 });

    let (reply, version) = roundtrip(&mut raw, &fixture("v1-permute.frame"));
    assert_eq!(version, 1);
    let mut expect = vec![0u32; 64];
    fixture_perm().permute(&fixture_src(), &mut expect).unwrap();
    assert_eq!(
        reply,
        Frame::Permuted {
            payload: elems_to_bytes(&expect)
        }
    );

    let (reply, version) = roundtrip(&mut raw, &fixture("v1-stats.frame"));
    assert_eq!(version, 1);
    let Frame::StatsReport(stats) = reply else {
        panic!("expected STATS_REPORT, got {}", reply.kind_name());
    };
    assert_eq!(stats.registered_plans, 1);

    // A v2 frame on the same connection is answered in v2.
    let (reply, version) = roundtrip(&mut raw, &Frame::Stats.encode());
    assert_eq!(version, 2);
    assert!(matches!(reply, Frame::StatsReport(_)));
}

#[test]
fn a_wrong_v1_claim_is_a_typed_fingerprint_mismatch() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let p = fixture_perm();
    let register = |fingerprint| Frame::Register {
        fingerprint,
        n: 64,
        elem_width: 4,
        perm: PermRepr::Index(p.as_slice().iter().map(|&v| v as u32).collect()),
    };
    // A corrupted legacy claim, and the current fingerprint, which a v1
    // client never computes: both refused, in v1.
    for claim in [LEGACY_FINGERPRINT ^ 1, p.fingerprint()] {
        let (reply, version) = roundtrip(&mut raw, &register(claim).encode_version(1));
        assert_eq!(version, 1);
        match reply {
            Frame::Err { code, .. } => assert_eq!(code, ErrCode::FingerprintMismatch),
            other => panic!("expected ERR, got {}", other.kind_name()),
        }
    }
    // The same wrong legacy claim in a v2 frame is refused too, and the
    // current fingerprint is accepted there.
    let (reply, _) = roundtrip(&mut raw, &register(LEGACY_FINGERPRINT).encode());
    assert!(matches!(
        reply,
        Frame::Err {
            code: ErrCode::FingerprintMismatch,
            ..
        }
    ));
    let (reply, version) = roundtrip(&mut raw, &register(p.fingerprint()).encode());
    assert_eq!((reply, version), (Frame::Registered { handle: 1 }, 2));
    // The connection is still frame-aligned for the plain reader.
    raw.write_all(&Frame::Stats.encode()).unwrap();
    assert!(matches!(
        read_frame(&mut raw.try_clone().unwrap()).unwrap(),
        Frame::StatsReport(_)
    ));
}
