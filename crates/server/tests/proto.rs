//! Wire-protocol codec suite: round-trip every frame type, then decoder
//! vs hostile bytes — truncation, oversized length prefixes, bit-flipped
//! checksums, wrong magic/version — asserting typed errors and bounded
//! allocation, mirroring the plan-codec corruption tests.

use proptest::prelude::*;

use hmm_server::proto::{
    bytes_to_elems, elems_to_bytes, kind, Frame, PermRepr, ProtoError, ServerStats, CHECKSUM_LEN,
    HEADER_LEN, MAGIC, MAX_BATCH, MAX_BODY, MAX_ERR_MSG,
};
use hmm_server::{read_frame, ErrCode};

// ---------------------------------------------------------------------------
// Exhaustive fixed round trips: one of every frame kind
// ---------------------------------------------------------------------------

fn one_of_each() -> Vec<Frame> {
    vec![
        Frame::Register {
            fingerprint: 0xdead_beef_cafe_f00d,
            n: 4,
            elem_width: 4,
            perm: PermRepr::Index(vec![2, 3, 0, 1]),
        },
        Frame::Register {
            fingerprint: 0,
            n: 8,
            elem_width: 8,
            perm: PermRepr::Bmmc {
                bits: 3,
                offset: 0b101,
                cols: vec![0b100, 0b010, 0b001],
            },
        },
        Frame::Registered { handle: 42 },
        Frame::Permute {
            handle: 7,
            payload: vec![1, 2, 3, 4, 5, 6, 7, 8],
        },
        Frame::Permuted {
            payload: vec![8, 7, 6, 5],
        },
        Frame::PermuteBatch {
            handle: 9,
            payloads: vec![vec![1, 2, 3, 4], vec![], vec![9, 9, 9, 9]],
        },
        Frame::PermutedBatch {
            payloads: vec![vec![4, 3, 2, 1], vec![0, 0, 0, 0]],
        },
        Frame::Stats,
        Frame::StatsReport(ServerStats {
            hits: 1,
            misses: 2,
            builds: 3,
            plans_structured: 4,
            plans_affine: 5,
            store_hits: 6,
            store_rejects: 7,
            submitted: 8,
            completed: 9,
            cancelled: 10,
            admission_rejects: 11,
            idle_disconnects: 12,
            conn_rejects: 13,
            registered_plans: 14,
            active_clients: 15,
            draining: true,
        }),
        Frame::Drain,
        Frame::DrainOk,
        Frame::Err {
            code: ErrCode::UnknownHandle,
            message: "no such handle".into(),
        },
    ]
}

#[test]
fn every_frame_kind_round_trips() {
    for frame in one_of_each() {
        let bytes = frame.encode();
        let back = Frame::decode(&bytes)
            .unwrap_or_else(|e| panic!("{} failed to round-trip: {e}", frame.kind_name()));
        assert_eq!(back, frame, "{} round trip", frame.kind_name());
        // And through the streaming reader, byte for byte.
        let streamed = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(streamed, frame, "{} streamed round trip", frame.kind_name());
    }
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for frame in one_of_each() {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut])
                .expect_err("truncated frame must not decode")
                .to_string();
            assert!(!err.is_empty());
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected_never_a_panic() {
    // Bit-level corruption anywhere in the frame must be *detected*
    // (checksum, magic, version, or structural check) — same contract
    // the plan codec pins for disk corruption.
    for frame in one_of_each() {
        let clean = frame.encode();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut evil = clean.clone();
                evil[byte] ^= 1 << bit;
                match Frame::decode(&evil) {
                    Err(_) => {}
                    Ok(decoded) => panic!(
                        "flip at byte {byte} bit {bit} of {} decoded as {}",
                        frame.kind_name(),
                        decoded.kind_name()
                    ),
                }
            }
        }
    }
}

#[test]
fn wrong_magic_and_version_are_distinct_errors() {
    let mut bytes = Frame::Stats.encode();
    bytes[0] = b'X';
    assert_eq!(Frame::decode(&bytes), Err(ProtoError::BadMagic));

    let mut bytes = Frame::Stats.encode();
    bytes[4] = 99;
    assert_eq!(
        Frame::decode(&bytes),
        Err(ProtoError::BadVersion { got: 99 })
    );
}

#[test]
fn unknown_kind_is_typed() {
    // Rebuild a frame with an unassigned kind byte and a valid checksum,
    // so the failure is attributable to the kind alone.
    let mut bytes = Frame::Stats.encode();
    bytes[5] = 77;
    let sum_at = bytes.len() - CHECKSUM_LEN;
    let sum = hmm_perm::hash::hash_bytes(&bytes[..sum_at]);
    bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(Frame::decode(&bytes), Err(ProtoError::BadKind { got: 77 }));
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = Frame::Drain.encode();
    bytes.push(0);
    assert_eq!(
        Frame::decode(&bytes),
        Err(ProtoError::TrailingBytes { extra: 1 })
    );
}

// ---------------------------------------------------------------------------
// Bounded allocation: length prefixes cannot drive memory use
// ---------------------------------------------------------------------------

/// A reader that serves a fixed prefix and then *panics* — proof the
/// decoder never even asks for the body of an oversized frame.
struct TripwireReader {
    served: Vec<u8>,
    pos: usize,
}

impl std::io::Read for TripwireReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.served.len() {
            panic!("decoder read past the header of an oversized frame");
        }
        let take = buf.len().min(self.served.len() - self.pos);
        buf[..take].copy_from_slice(&self.served[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

#[test]
fn oversized_length_prefix_is_refused_before_any_body_read() {
    // Header claiming a 4 GiB - 1 body; the reader has nothing after it.
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(1); // version
    header.push(kind::PERMUTE);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(header.len(), HEADER_LEN);

    let mut reader = TripwireReader {
        served: header,
        pos: 0,
    };
    let err = read_frame(&mut reader).expect_err("oversized must be refused");
    assert_eq!(
        err,
        ProtoError::Oversized {
            len: u64::from(u32::MAX),
            max: MAX_BODY as u64,
        }
    );
}

#[test]
fn buffer_decode_rejects_oversized_without_reading_past_header() {
    // The contiguous-buffer path makes the same decision from the
    // header alone, even though "body bytes" would be available.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(1);
    bytes.push(kind::PERMUTE);
    bytes.extend_from_slice(&((MAX_BODY as u32) + 1).to_le_bytes());
    bytes.resize(bytes.len() + 64, 0xab);
    assert!(matches!(
        Frame::decode(&bytes),
        Err(ProtoError::Oversized { .. })
    ));
}

#[test]
fn inner_count_caps_hold_independent_of_body_len() {
    // A PERMUTE_BATCH claiming MAX_BATCH+1 payloads inside a small,
    // checksum-valid body must be refused by the count cap, not by
    // running out of bytes into a huge Vec::with_capacity.
    let mut body = Vec::new();
    body.extend_from_slice(&7u64.to_le_bytes()); // handle
    body.extend_from_slice(&((MAX_BATCH as u32) + 1).to_le_bytes());
    let err = Frame::decode_body(kind::PERMUTE_BATCH, &body).expect_err("cap must hold");
    assert_eq!(
        err,
        ProtoError::Oversized {
            len: (MAX_BATCH as u64) + 1,
            max: MAX_BATCH as u64,
        }
    );

    // Same for an ERR message length prefix.
    let mut body = Vec::new();
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&((MAX_ERR_MSG as u32) + 1).to_le_bytes());
    let err = Frame::decode_body(kind::ERR, &body).expect_err("cap must hold");
    assert!(matches!(err, ProtoError::Oversized { .. }));
}

#[test]
fn clean_close_is_distinguished_from_mid_frame_death() {
    // EOF before any byte: a clean close.
    let empty: &[u8] = &[];
    assert_eq!(read_frame(&mut &*empty), Err(ProtoError::Closed));

    // EOF inside the header / body: an I/O error, not a clean close.
    let bytes = Frame::Stats.encode();
    for cut in 1..bytes.len() {
        match read_frame(&mut &bytes[..cut]) {
            Err(ProtoError::Io { kind, .. }) => {
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("cut at {cut}: expected Io(UnexpectedEof), got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// SplitMix64 — a deterministic byte stream from one seed, so the
/// vendored proptest subset (no `collection::vec`) can still generate
/// arbitrary payloads.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seeded_payload(seed: &mut u64, max: usize) -> Vec<u8> {
    let len = (splitmix(seed) as usize) % (max + 1);
    (0..len).map(|_| splitmix(seed) as u8).collect()
}

/// One frame of every kind, driven by (variant selector, seed) — the
/// seed fans out into every field via SplitMix64.
fn seeded_frame(variant: usize, mut seed: u64) -> Frame {
    let s = &mut seed;
    match variant % 12 {
        0 => {
            let k = (splitmix(s) % 6 + 1) as u8;
            let n = 1u64 << k;
            Frame::Register {
                fingerprint: splitmix(s),
                n,
                elem_width: 4,
                perm: PermRepr::Index((0..n as u32).rev().collect()),
            }
        }
        1 => {
            let k = (splitmix(s) % 6 + 1) as u8;
            let n = 1u64 << k;
            // Identity-ish columns: validity is the codec's concern
            // here, not the matrix algebra's.
            Frame::Register {
                fingerprint: 0,
                n,
                elem_width: 8,
                perm: PermRepr::Bmmc {
                    bits: k,
                    offset: splitmix(s) & (n - 1),
                    cols: (0..k).map(|j| 1u64 << j).collect(),
                },
            }
        }
        2 => Frame::Registered {
            handle: splitmix(s),
        },
        3 => Frame::Permute {
            handle: splitmix(s),
            payload: seeded_payload(s, 256),
        },
        4 => Frame::Permuted {
            payload: seeded_payload(s, 256),
        },
        5 => {
            let count = (splitmix(s) % 8) as usize;
            Frame::PermuteBatch {
                handle: splitmix(s),
                payloads: (0..count).map(|_| seeded_payload(s, 64)).collect(),
            }
        }
        6 => {
            let count = (splitmix(s) % 8) as usize;
            Frame::PermutedBatch {
                payloads: (0..count).map(|_| seeded_payload(s, 64)).collect(),
            }
        }
        7 => Frame::Stats,
        8 => Frame::StatsReport(ServerStats {
            hits: splitmix(s),
            misses: splitmix(s),
            builds: splitmix(s),
            plans_structured: splitmix(s),
            plans_affine: splitmix(s),
            store_hits: splitmix(s),
            store_rejects: splitmix(s),
            submitted: splitmix(s),
            completed: splitmix(s),
            cancelled: splitmix(s),
            admission_rejects: splitmix(s),
            idle_disconnects: splitmix(s),
            conn_rejects: splitmix(s),
            registered_plans: splitmix(s),
            active_clients: splitmix(s),
            draining: splitmix(s) % 2 == 1,
        }),
        9 => Frame::Drain,
        10 => Frame::DrainOk,
        _ => {
            let len = (splitmix(s) % 65) as usize;
            Frame::Err {
                code: ErrCode::from_u16((splitmix(s) % 14) as u16),
                message: (0..len)
                    .map(|_| char::from(b' ' + (splitmix(s) % 95) as u8))
                    .collect(),
            }
        }
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (0usize..12, any::<u64>()).prop_map(|(variant, seed)| seeded_frame(variant, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_frames_round_trip(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(Frame::decode(&bytes).unwrap(), frame.clone());
        prop_assert_eq!(read_frame(&mut bytes.as_slice()).unwrap(), frame);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(seed in any::<u64>()) {
        // Typed error or (vanishingly unlikely) a valid frame — never a
        // panic, never an unbounded allocation.
        let mut s = seed;
        let bytes = seeded_payload(&mut s, 512);
        let _ = Frame::decode(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
    }

    #[test]
    fn corrupted_valid_frames_never_panic(frame in arb_frame(), byte in 0usize..1 << 20, bit in 0u8..8) {
        let mut bytes = frame.encode();
        let at = byte % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = Frame::decode(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// The payload conversions round-trip at both widths, and write each
    /// element's little-endian bytes in order.
    #[test]
    fn payload_conversions_round_trip_at_both_widths(seed in any::<u64>(), len in 0usize..5000) {
        let mut s = seed;
        let u32s: Vec<u32> = (0..len).map(|_| splitmix(&mut s) as u32).collect();
        let bytes = elems_to_bytes(&u32s);
        let longhand: Vec<u8> = u32s.iter().flat_map(|v| v.to_le_bytes()).collect();
        prop_assert_eq!(&bytes, &longhand);
        prop_assert_eq!(bytes_to_elems::<u32>(&bytes), Some(u32s));

        let u64s: Vec<u64> = (0..len).map(|_| splitmix(&mut s)).collect();
        let bytes = elems_to_bytes(&u64s);
        let longhand: Vec<u8> = u64s.iter().flat_map(|v| v.to_le_bytes()).collect();
        prop_assert_eq!(&bytes, &longhand);
        prop_assert_eq!(bytes_to_elems::<u64>(&bytes), Some(u64s));

        // A length that is not a whole number of elements is refused.
        if len % 4 != 0 {
            prop_assert_eq!(bytes_to_elems::<u32>(&longhand[..len]), None);
        }
        if len % 8 != 0 {
            prop_assert_eq!(bytes_to_elems::<u64>(&longhand[..len]), None);
        }
    }
}
