//! Frame I/O over any `Read`/`Write` pair.
//!
//! One reader and one writer carry every frame:
//!
//! * [`read_frame_into`] validates the header — magic, version, and the
//!   [`MAX_BODY`] cap — *before* allocating or reading a single body
//!   byte, so a hostile peer claiming a 4 GiB body costs one typed
//!   error, not an allocation. It reads the body into a buffer the
//!   caller reuses from frame to frame and verifies the checksum over
//!   exactly the bytes received, catching both corruption and
//!   desynchronization. [`read_frame_versioned`] is that reader plus
//!   [`Frame::decode_body`].
//! * Every frame is built whole in a byte buffer, then sent in **one**
//!   `write_all`. The crate's `lay_out` writes the header into a buffer
//!   the caller reuses from frame to frame and hands back the body
//!   region; the caller fills it; `seal` writes the checksum over header
//!   and body into the last eight bytes; `send` writes the frame.
//!   [`Frame::encode_version`], [`write_frame_versioned`],
//!   [`write_permute`], the [`Client`](crate::Client)'s requests and
//!   every server reply take this path. A served `PERMUTED` body is
//!   written by the permutation kernel itself, straight from the
//!   request's payload bytes.
//!
//! One write per frame leaves `TCP_NODELAY` one job. A frame larger
//! than a segment still leaves as several segments, and with Nagle's
//! algorithm on, the last, partial one waits until the segments before
//! it are acknowledged; the peer may delay that ACK for up to 40 ms. A
//! small frame that follows one not yet acknowledged (a pipelined
//! request, a reply after a large one) waits the same way. Both ends of
//! the protocol ([`Client`](crate::Client) and every server session) set
//! `TCP_NODELAY`. Without it, `serve-2c` of the end-to-end benchmark (two
//! clients, 64K-element requests, 2-core host) ran at 80.7 Melem/s
//! instead of ~160, when frames left in several writes: some replies
//! stalled on a delayed ACK.

use std::io::{self, Read, Write};

use crate::proto::{
    kind, put_elems, speaks, Elem, Frame, ProtoError, Seal, CHECKSUM_LEN, HEADER_LEN, MAGIC,
    MAX_BODY, PROTOCOL_VERSION,
};

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> ProtoError {
    move |e| ProtoError::Io {
        kind: e.kind(),
        context,
    }
}

/// Lay out one frame of `kind` at `version` with a `body_len`-byte body
/// in `frame`, reusing its allocation: the header is written, the
/// buffer sized to header, body and checksum, and the body region
/// returned, for the caller to fill completely before [`seal`]. Bytes an
/// earlier frame left in the body region are not cleared first, so a
/// caller that writes every body byte (the server's permutation kernel)
/// pays no pass for it. The caller keeps `body_len` within
/// [`MAX_BODY`] (see [`check_body_len`]).
pub(crate) fn lay_out(frame: &mut Vec<u8>, version: u8, kind: u8, body_len: usize) -> &mut [u8] {
    debug_assert!(speaks(version) && body_len <= MAX_BODY);
    frame.resize(HEADER_LEN + body_len + CHECKSUM_LEN, 0);
    frame[..4].copy_from_slice(&MAGIC);
    frame[4] = version;
    frame[5] = kind;
    frame[6..HEADER_LEN].copy_from_slice(&(body_len as u32).to_le_bytes());
    &mut frame[HEADER_LEN..HEADER_LEN + body_len]
}

/// Seal a frame [`lay_out`] laid out and the caller filled: the
/// checksum of the frame's version over header and body goes into its
/// last [`CHECKSUM_LEN`] bytes.
pub(crate) fn seal(frame: &mut [u8]) {
    let (covered, sum) = frame.split_at_mut(frame.len() - CHECKSUM_LEN);
    let mut seal = Seal::new(covered[4]);
    seal.update(covered);
    sum.copy_from_slice(&seal.finish().to_le_bytes());
}

/// Send a sealed frame in one `write_all`, then flush the sink.
pub(crate) fn send<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), ProtoError> {
    w.write_all(frame).map_err(io_err("write frame"))?;
    w.flush().map_err(io_err("flush frame"))
}

/// A cursor that fills a laid-out body front to back.
pub(crate) struct Put<'a>(&'a mut [u8]);

impl<'a> Put<'a> {
    pub(crate) fn new(body: &'a mut [u8]) -> Self {
        Put(body)
    }

    /// The next `len` body bytes, for the caller to fill.
    pub(crate) fn take(&mut self, len: usize) -> &'a mut [u8] {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(len);
        self.0 = rest;
        head
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.take(bytes.len()).copy_from_slice(bytes);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// `src`'s little-endian bytes, converted in one pass.
    pub(crate) fn elems<T: Elem>(&mut self, src: &[T]) {
        put_elems(src, self.take(src.len() * T::WIDTH));
    }

    /// Whether every body byte has been written.
    pub(crate) fn is_full(&self) -> bool {
        self.0.is_empty()
    }
}

/// Refuse a body the peer's reader would refuse, before writing a byte.
pub(crate) fn check_body_len(body_len: usize) -> Result<(), ProtoError> {
    if body_len > MAX_BODY {
        return Err(ProtoError::Oversized {
            len: body_len as u64,
            max: MAX_BODY as u64,
        });
    }
    Ok(())
}

/// Write one complete frame at [`PROTOCOL_VERSION`] and flush.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    write_frame_versioned(w, frame, PROTOCOL_VERSION)
}

/// Write one complete frame at protocol `version`, in one write, and
/// flush. A frame whose body exceeds [`MAX_BODY`] is refused with
/// [`ProtoError::Oversized`] before anything is written.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub fn write_frame_versioned<W: Write>(
    w: &mut W,
    frame: &Frame,
    version: u8,
) -> Result<(), ProtoError> {
    assert!(speaks(version), "cannot encode protocol version {version}");
    check_body_len(frame.body_len())?;
    let mut bytes = Vec::new();
    frame.encode_into(version, &mut bytes);
    send(w, &bytes)
}

/// Build a `PERMUTE` of `src` under `handle` at `version` in `frame`,
/// reusing its allocation: the bytes of [`Frame::Permute`] with `src`'s
/// wire bytes as payload, converted from `src` in one pass. An oversized
/// body is refused before `frame` is touched.
pub(crate) fn encode_permute<T: Elem>(
    frame: &mut Vec<u8>,
    version: u8,
    handle: u64,
    src: &[T],
) -> Result<(), ProtoError> {
    let body_len = src.len().saturating_mul(T::WIDTH).saturating_add(8);
    check_body_len(body_len)?;
    let mut body = Put::new(lay_out(frame, version, kind::PERMUTE, body_len));
    body.u64(handle);
    body.elems(src);
    seal(frame);
    Ok(())
}

/// Build a `PERMUTE_BATCH` of `srcs` under `handle` at `version` in
/// `frame`, as [`encode_permute`] builds one payload: the bytes of
/// [`Frame::PermuteBatch`], each source converted in one pass.
pub(crate) fn encode_permute_batch<T: Elem>(
    frame: &mut Vec<u8>,
    version: u8,
    handle: u64,
    srcs: &[Vec<T>],
) -> Result<(), ProtoError> {
    let body_len = srcs.iter().fold(8 + 4, |len: usize, s| {
        len.saturating_add(s.len().saturating_mul(T::WIDTH).saturating_add(4))
    });
    check_body_len(body_len)?;
    let mut body = Put::new(lay_out(frame, version, kind::PERMUTE_BATCH, body_len));
    body.u64(handle);
    body.u32(srcs.len() as u32);
    for src in srcs {
        body.u32((src.len() * T::WIDTH) as u32);
        body.elems(src);
    }
    seal(frame);
    Ok(())
}

/// Write a `PERMUTE` of `src` under `handle` at `version`, in one write,
/// and flush: the bytes of [`Frame::Permute`] with `src`'s wire bytes as
/// payload.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub fn write_permute<W: Write, T: Elem>(
    w: &mut W,
    version: u8,
    handle: u64,
    src: &[T],
) -> Result<(), ProtoError> {
    assert!(speaks(version), "cannot encode protocol version {version}");
    let mut frame = Vec::new();
    encode_permute(&mut frame, version, handle, src)?;
    send(w, &frame)
}

/// The one frame reader: read one complete frame of any version this
/// build speaks, leaving its checked body in `body` (resized to fit;
/// pass the same buffer again to reuse its allocation) and returning
/// `(kind, version)`. The kind is not checked here:
/// [`Frame::decode_body`] refuses an unknown one.
///
/// A clean close (EOF before the first header byte) returns
/// [`ProtoError::Closed`]; EOF anywhere inside a frame is an
/// [`ProtoError::Io`] with `UnexpectedEof` — the distinction lets a
/// server tell "client finished" from "client died mid-payload".
pub fn read_frame_into<R: Read>(r: &mut R, body: &mut Vec<u8>) -> Result<(u8, u8), ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: 0 bytes here is a clean between-frames close.
    let got = r.read(&mut header[..1]).map_err(io_err("read header"))?;
    if got == 0 {
        return Err(ProtoError::Closed);
    }
    r.read_exact(&mut header[1..])
        .map_err(io_err("read header"))?;

    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = header[4];
    if !speaks(version) {
        return Err(ProtoError::BadVersion { got: version });
    }
    let kind = header[5];
    let body_len = u32::from_le_bytes(header[6..10].try_into().expect("4-byte field")) as usize;
    check_body_len(body_len)?; // refused before any body allocation or read

    // Only bytes beyond the buffer's previous length are zeroed.
    body.resize(body_len, 0);
    r.read_exact(body).map_err(io_err("read body"))?;
    let mut sum = [0u8; CHECKSUM_LEN];
    r.read_exact(&mut sum).map_err(io_err("read checksum"))?;

    let stored = u64::from_le_bytes(sum);
    let mut seal = Seal::new(version);
    seal.update(&header);
    seal.update(body);
    let computed = seal.finish();
    if stored != computed {
        return Err(ProtoError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, version))
}

/// Largest allocation a reused body or frame buffer keeps between
/// frames: a whole `PERMUTE` frame of 2^20 `u32`s (4 MiB of payload plus
/// header, handle and checksum), so a 1M-element session keeps both its
/// request body and its reply frame.
const MAX_RETAINED: usize = (4 << 20) + HEADER_LEN + 8 + CHECKSUM_LEN;

/// Free a reused body or frame buffer once a frame is done with it if it
/// grew past [`MAX_RETAINED`], so an idle connection never pins a
/// once-huge frame; a typical frame's allocation is kept.
pub(crate) fn shed(body: &mut Vec<u8>) {
    if body.capacity() > MAX_RETAINED {
        *body = Vec::new();
    }
}

/// Read one complete frame of any version this build speaks.
///
/// A clean close (EOF before the first header byte) returns
/// [`ProtoError::Closed`]; EOF anywhere inside a frame is an
/// [`ProtoError::Io`] with `UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    read_frame_versioned(r).map(|(frame, _)| frame)
}

/// [`read_frame`], also returning the frame's protocol version so a
/// server can answer in it: [`read_frame_into`] plus
/// [`Frame::decode_body`].
pub fn read_frame_versioned<R: Read>(r: &mut R) -> Result<(Frame, u8), ProtoError> {
    let mut body = Vec::new();
    let (kind, version) = read_frame_into(r, &mut body)?;
    Ok((Frame::decode_body(kind, &body)?, version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Frame;
    use hmm_plan::{fnv1a_update, FNV_OFFSET};
    use proptest::prelude::*;

    /// The frame layout written out longhand: header, body, then the
    /// version's checksum over both, computed in one call.
    fn reference_frame(version: u8, kind: u8, body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(version);
        out.push(kind);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        let sum = if version == 1 {
            fnv1a_update(FNV_OFFSET, &out)
        } else {
            hmm_perm::hash::hash_bytes(&out)
        };
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    fn random_elems<T: Elem>(n: usize, mut seed: u64, from: impl Fn(u64) -> T) -> Vec<T> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                from(z ^ (z >> 31))
            })
            .collect()
    }

    /// Reused frame buffers as a session or client holds them: bytes of
    /// an earlier frame, longer and shorter than the next, which the
    /// next frame must not let through.
    fn reused(len: usize) -> [Vec<u8>; 2] {
        [vec![0xa5; len + 77], vec![0x5a; 3]]
    }

    /// The typed `PERMUTE`/`PERMUTE_BATCH` request builders, and a
    /// `PERMUTED`/`PERMUTED_BATCH` reply laid out and filled in place as
    /// a session builds it, emit exactly the bytes of the `Frame` encoder
    /// and of the longhand layout, also in a reused buffer.
    fn check_streamed<T: Elem>(version: u8, handle: u64, elems: &[T], le: impl Fn(T) -> Vec<u8>) {
        let payload: Vec<u8> = elems.iter().flat_map(|&v| le(v)).collect();
        let mut permute_body = handle.to_le_bytes().to_vec();
        permute_body.extend_from_slice(&payload);
        let ctx = format!("v{version} n={}", elems.len());

        let framed = Frame::Permute {
            handle,
            payload: payload.clone(),
        }
        .encode_version(version);
        assert_eq!(
            framed,
            reference_frame(version, kind::PERMUTE, &permute_body),
            "PERMUTE {ctx}"
        );
        let mut written = Vec::new();
        write_permute(&mut written, version, handle, elems).unwrap();
        assert_eq!(written, framed, "PERMUTE {ctx}");
        for mut frame in reused(framed.len()) {
            encode_permute(&mut frame, version, handle, elems).unwrap();
            assert_eq!(frame, framed, "PERMUTE {ctx}");
        }

        let framed = Frame::Permuted {
            payload: payload.clone(),
        }
        .encode_version(version);
        assert_eq!(framed, reference_frame(version, kind::PERMUTED, &payload));
        for mut frame in reused(framed.len()) {
            lay_out(&mut frame, version, kind::PERMUTED, payload.len()).copy_from_slice(&payload);
            seal(&mut frame);
            assert_eq!(frame, framed, "PERMUTED {ctx}");
        }

        // Batches of zero, one and three members, one of them a prefix.
        let half = elems.len() / 2;
        for members in [
            vec![],
            vec![elems.to_vec()],
            vec![elems.to_vec(), elems[..half].to_vec(), elems.to_vec()],
        ] {
            let payloads: Vec<Vec<u8>> = members
                .iter()
                .map(|m| payload[..m.len() * T::WIDTH].to_vec())
                .collect();
            let mut batch_body = (payloads.len() as u32).to_le_bytes().to_vec();
            for p in &payloads {
                batch_body.extend_from_slice(&(p.len() as u32).to_le_bytes());
                batch_body.extend_from_slice(p);
            }
            let ctx = format!("{ctx} × {}", members.len());
            let framed = Frame::PermutedBatch {
                payloads: payloads.clone(),
            }
            .encode_version(version);
            assert_eq!(
                framed,
                reference_frame(version, kind::PERMUTED_BATCH, &batch_body),
                "PERMUTED_BATCH {ctx}"
            );
            for mut frame in reused(framed.len()) {
                let body = lay_out(&mut frame, version, kind::PERMUTED_BATCH, batch_body.len());
                let mut body = Put::new(body);
                body.u32(payloads.len() as u32);
                for p in &payloads {
                    body.u32(p.len() as u32);
                    body.take(p.len()).copy_from_slice(p);
                }
                assert!(body.is_full());
                seal(&mut frame);
                assert_eq!(frame, framed, "PERMUTED_BATCH {ctx}");
            }

            let framed = Frame::PermuteBatch { handle, payloads }.encode_version(version);
            let mut request_body = handle.to_le_bytes().to_vec();
            request_body.extend_from_slice(&batch_body);
            assert_eq!(
                framed,
                reference_frame(version, kind::PERMUTE_BATCH, &request_body),
                "PERMUTE_BATCH {ctx}"
            );
            for mut frame in reused(framed.len()) {
                encode_permute_batch(&mut frame, version, handle, &members).unwrap();
                assert_eq!(frame, framed, "PERMUTE_BATCH {ctx}");
            }
        }
    }

    /// The client's `PERMUTE_BATCH` request is byte-identical to the
    /// owned `Frame` encoding at both protocol versions and both element
    /// widths, small and past 64 KiB.
    #[test]
    fn streamed_permute_batch_request_matches_the_frame_encoder() {
        for version in [1u8, 2] {
            for n in [1usize, (16 << 10) + 5] {
                let u32s = random_elems(n, 7, |z| z as u32);
                check_streamed(version, 0xfeed, &u32s, |v: u32| v.to_le_bytes().to_vec());
                let u64s = random_elems(n, 7, |z| z);
                check_streamed(version, 0xfeed, &u64s, |v: u64| v.to_le_bytes().to_vec());
            }
        }
    }

    const SIZES: [usize; 5] = [0, 1, 7, (8 << 10) + 3, 64 << 10];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn streamed_payload_frames_match_the_frame_encoder(
            seed in any::<u64>(),
            handle in any::<u64>(),
            size in 0usize..SIZES.len(),
            version in 1u8..=2,
        ) {
            let n = SIZES[size];
            let u32s = random_elems(n, seed, |z| z as u32);
            check_streamed(version, handle, &u32s, |v: u32| v.to_le_bytes().to_vec());
            let u64s = random_elems(n, seed, |z| z);
            check_streamed(version, handle, &u64s, |v: u64| v.to_le_bytes().to_vec());
        }
    }

    #[test]
    fn every_frame_kind_matches_the_longhand_layout() {
        let frames = [
            Frame::Registered { handle: 7 },
            Frame::Stats,
            Frame::Err {
                code: crate::ErrCode::Draining,
                message: "x".repeat(crate::MAX_ERR_MSG + 9),
            },
            Frame::PermutedBatch {
                payloads: vec![vec![1; (64 << 10) + 5], vec![], vec![2; 3]],
            },
        ];
        for version in [1, 2] {
            for frame in &frames {
                let bytes = frame.encode_version(version);
                let body = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
                assert_eq!(body.len(), frame.body_len(), "{}", frame.kind_name());
                assert_eq!(bytes, reference_frame(version, frame.kind(), body));
                let mut written = Vec::new();
                write_frame_versioned(&mut written, frame, version).unwrap();
                assert_eq!(written, bytes, "{} v{version}", frame.kind_name());
            }
        }
    }

    #[test]
    fn a_payload_past_max_body_is_refused_before_any_byte_is_written() {
        let too_many = vec![0u64; MAX_BODY / 8];
        let mut out = Vec::new();
        assert!(matches!(
            write_permute(&mut out, PROTOCOL_VERSION, 1, &too_many),
            Err(ProtoError::Oversized { .. })
        ));
        assert!(matches!(
            write_frame(
                &mut out,
                &Frame::Permuted {
                    payload: vec![0; MAX_BODY + 1]
                }
            ),
            Err(ProtoError::Oversized { .. })
        ));
        assert!(out.is_empty());
        // A reused frame buffer is left as it was.
        let mut frame = vec![7u8; 5];
        assert!(matches!(
            encode_permute(&mut frame, PROTOCOL_VERSION, 1, &too_many),
            Err(ProtoError::Oversized { .. })
        ));
        assert_eq!(frame, [7; 5]);
    }

    /// Hostile frames through one reused body buffer, each one after a
    /// large valid frame has left the buffer full of stale bytes: the
    /// reader plus `decode_body` (what a session runs) gives the error a
    /// fresh `read_frame` gives, which is the expected one, and the
    /// contiguous decoder agrees wherever it can tell the same story.
    #[test]
    fn hostile_frames_through_a_reused_buffer_fail_as_with_a_fresh_one() {
        const BIG: usize = 3 << 16;
        let big = Frame::Permuted {
            payload: vec![0xa5; BIG],
        }
        .encode();
        let valid = Frame::Registered { handle: 3 }.encode();
        let mut bad_sum = valid.clone();
        *bad_sum.last_mut().unwrap() ^= 1;
        let mut oversized = valid.clone();
        oversized[6..10].copy_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        let short_permute = reference_frame(2, kind::PERMUTE, &[1, 2, 3, 4, 5]);
        let unexpected_eof = |context| ProtoError::Io {
            kind: io::ErrorKind::UnexpectedEof,
            context,
        };
        let corpus: Vec<(&str, Vec<u8>, ProtoError, bool)> = vec![
            (
                "truncated header",
                valid[..5].to_vec(),
                unexpected_eof("read header"),
                false,
            ),
            (
                "truncated body",
                big[..big.len() / 2].to_vec(),
                unexpected_eof("read body"),
                false,
            ),
            (
                "truncated checksum",
                valid[..valid.len() - 3].to_vec(),
                unexpected_eof("read checksum"),
                false,
            ),
            (
                "bad checksum",
                bad_sum.clone(),
                Frame::decode(&bad_sum).unwrap_err(),
                true,
            ),
            (
                "oversized length",
                oversized,
                ProtoError::Oversized {
                    len: MAX_BODY as u64 + 1,
                    max: MAX_BODY as u64,
                },
                true,
            ),
            (
                "short PERMUTE body",
                short_permute,
                ProtoError::Truncated {
                    what: "permute handle",
                },
                true,
            ),
        ];
        let mut body = Vec::new();
        for (name, bytes, want, same_as_buffer_decode) in corpus {
            let (kind, _) = read_frame_into(&mut &big[..], &mut body).unwrap();
            assert_eq!(body.len(), BIG);
            assert_eq!(Frame::decode_body(kind, &body).unwrap().kind(), kind);

            let reused = read_frame_into(&mut &bytes[..], &mut body)
                .and_then(|(kind, _)| Frame::decode_body(kind, &body));
            let fresh = read_frame(&mut &bytes[..]);
            assert_eq!(reused, fresh, "{name}");
            assert_eq!(reused, Err(want.clone()), "{name}");
            if same_as_buffer_decode {
                assert_eq!(Frame::decode(&bytes), Err(want), "{name}");
            }
        }
        // A small valid frame after all of that decodes cleanly.
        let (kind, version) = read_frame_into(&mut &valid[..], &mut body).unwrap();
        assert_eq!(version, PROTOCOL_VERSION);
        assert_eq!(
            Frame::decode_body(kind, &body),
            Ok(Frame::Registered { handle: 3 })
        );
    }

    #[test]
    fn shed_keeps_typical_buffers_and_frees_huge_ones() {
        let mut body = Vec::with_capacity(MAX_RETAINED);
        shed(&mut body);
        assert_eq!(body.capacity(), MAX_RETAINED);
        let mut body = Vec::with_capacity(MAX_RETAINED + 1);
        shed(&mut body);
        assert_eq!(body.capacity(), 0);
    }
}
