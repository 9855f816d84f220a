//! Streaming frame I/O over any `Read`/`Write` pair.
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
//! * The frame writer writes the header, then the body part by part,
//!   sealing the checksum as the bytes pass, through a fixed 64 KiB
//!   staging block. [`write_frame_versioned`] and
//!   [`Frame::encode_version`] run it over a [`Frame`]'s parts;
//!   [`write_permute`], [`write_permuted`] and the server's
//!   `write_permuted_batch` run it straight over typed `&[T]` payloads, converting one chunk at
//!   a time, so no frame-sized buffer exists on the way out.
//!
//! A frame larger than one chunk therefore leaves in several `write`s.
//! On a socket with Nagle's algorithm on, a small write that follows
//! one not yet acknowledged waits for the peer's ACK, and the peer
//! delays that ACK for up to 40 ms. Both ends of the protocol
//! ([`Client`](crate::Client) and every server session) set
//! `TCP_NODELAY`. Without it, `serve-2c` of the end-to-end benchmark
//! (two clients, 64K-element requests, 2-core host) ran at 80.7
//! Melem/s instead of ~160: some replies stall on a delayed ACK.

use std::io::{self, Read, Write};

use crate::proto::{
    kind, put_elems, speaks, Elem, Frame, ProtoError, Seal, CHECKSUM_LEN, HEADER_LEN, MAGIC,
    MAX_BODY, PROTOCOL_VERSION,
};

/// Bytes the frame writer stages before each `write` to the sink: the
/// unit in which a typed payload is converted, sealed and sent. On the
/// 2-core bench host, `serve-2c` (64K-element requests) ran ~15% faster
/// with 64 KiB than with 16 KiB and ~5% slower than with 128 KiB, which
/// would double the staging block every writer holds on its stack.
pub(crate) const CHUNK: usize = 64 << 10;

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> ProtoError {
    move |e| ProtoError::Io {
        kind: e.kind(),
        context,
    }
}

/// The one frame writer: header first, then body parts in order, then
/// the checksum, sealed as the bytes pass and sent through a fixed
/// staging block, so the sink sees `write`s of [`CHUNK`] bytes (larger
/// parts pass straight through) and a last partial one from
/// [`finish`](FrameWriter::finish).
pub(crate) struct FrameWriter<'w, W: Write> {
    out: &'w mut W,
    seal: Seal,
    stage: [u8; CHUNK],
    staged: usize,
    /// Body bytes promised by the header and not yet written.
    owed: usize,
}

impl<'w, W: Write> FrameWriter<'w, W> {
    /// Start a frame of `kind` at `version` whose body will be exactly
    /// `body_len` bytes (≤ [`MAX_BODY`], a version this build speaks).
    pub(crate) fn begin(out: &'w mut W, version: u8, kind: u8, body_len: usize) -> Self {
        debug_assert!(speaks(version) && body_len <= MAX_BODY);
        let mut w = FrameWriter {
            out,
            seal: Seal::new(version),
            stage: [0; CHUNK],
            staged: HEADER_LEN,
            owed: body_len,
        };
        let header = &mut w.stage[..HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = version;
        header[5] = kind;
        header[6..].copy_from_slice(&(body_len as u32).to_le_bytes());
        w.seal.update(&w.stage[..HEADER_LEN]);
        w
    }

    fn flush_stage(&mut self) -> Result<(), ProtoError> {
        self.out
            .write_all(&self.stage[..self.staged])
            .map_err(io_err("write frame"))?;
        self.staged = 0;
        Ok(())
    }

    /// Write body bytes.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> Result<(), ProtoError> {
        debug_assert!(bytes.len() <= self.owed, "body longer than its header says");
        self.owed -= bytes.len();
        self.seal.update(bytes);
        if self.staged + bytes.len() > CHUNK {
            self.flush_stage()?;
        }
        if bytes.len() >= CHUNK {
            return self.out.write_all(bytes).map_err(io_err("write frame"));
        }
        self.stage[self.staged..self.staged + bytes.len()].copy_from_slice(bytes);
        self.staged += bytes.len();
        Ok(())
    }

    pub(crate) fn put_u32(&mut self, v: u32) -> Result<(), ProtoError> {
        self.put(&v.to_le_bytes())
    }

    pub(crate) fn put_u64(&mut self, v: u64) -> Result<(), ProtoError> {
        self.put(&v.to_le_bytes())
    }

    /// Write `src`'s little-endian bytes, converted straight into the
    /// staging block one chunk at a time.
    pub(crate) fn put_elems<T: Elem>(&mut self, mut src: &[T]) -> Result<(), ProtoError> {
        debug_assert!(
            src.len() * T::WIDTH <= self.owed,
            "body longer than its header says"
        );
        self.owed -= src.len() * T::WIDTH;
        while !src.is_empty() {
            if CHUNK - self.staged < T::WIDTH {
                self.flush_stage()?;
            }
            let take = ((CHUNK - self.staged) / T::WIDTH).min(src.len());
            let (now, rest) = src.split_at(take);
            let bytes = &mut self.stage[self.staged..self.staged + take * T::WIDTH];
            put_elems(now, bytes);
            self.seal.update(bytes);
            self.staged += bytes.len();
            src = rest;
        }
        Ok(())
    }

    /// Append the checksum and hand every staged byte to the sink (the
    /// sink itself is not flushed).
    pub(crate) fn finish(mut self) -> Result<(), ProtoError> {
        debug_assert_eq!(self.owed, 0, "body shorter than its header says");
        if self.staged + CHECKSUM_LEN > CHUNK {
            self.flush_stage()?;
        }
        let sum = self.seal.finish().to_le_bytes();
        self.stage[self.staged..self.staged + CHECKSUM_LEN].copy_from_slice(&sum);
        self.staged += CHECKSUM_LEN;
        self.flush_stage()
    }
}

/// Refuse a body the peer's reader would refuse, before writing a byte.
fn check_body_len(body_len: usize) -> Result<(), ProtoError> {
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

/// Write one complete frame at protocol `version` and flush. A frame
/// whose body exceeds [`MAX_BODY`] is refused with
/// [`ProtoError::Oversized`] before anything is written.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub fn write_frame_versioned<W: Write>(
    w: &mut W,
    frame: &Frame,
    version: u8,
) -> Result<(), ProtoError> {
    write_body_with(w, version, frame.kind(), frame.body_len(), |fw| {
        frame.write_body(fw)
    })
}

/// Write one frame of `kind` whose `body_len`-byte body `body` writes,
/// and flush; an oversized body is refused before anything is written.
fn write_body_with<W: Write>(
    w: &mut W,
    version: u8,
    kind: u8,
    body_len: usize,
    body: impl FnOnce(&mut FrameWriter<'_, W>) -> Result<(), ProtoError>,
) -> Result<(), ProtoError> {
    assert!(speaks(version), "cannot encode protocol version {version}");
    check_body_len(body_len)?;
    let mut fw = FrameWriter::begin(w, version, kind, body_len);
    body(&mut fw)?;
    fw.finish()?;
    w.flush().map_err(io_err("flush frame"))
}

/// A typed `PERMUTE`/`PERMUTED` frame, streamed from `elems`.
fn write_typed<W: Write, T: Elem>(
    w: &mut W,
    version: u8,
    kind: u8,
    handle: Option<u64>,
    elems: &[T],
) -> Result<(), ProtoError> {
    let body_len = elems
        .len()
        .saturating_mul(T::WIDTH)
        .saturating_add(if handle.is_some() { 8 } else { 0 });
    write_body_with(w, version, kind, body_len, |fw| {
        if let Some(handle) = handle {
            fw.put_u64(handle)?;
        }
        fw.put_elems(elems)
    })
}

/// Write a `PERMUTE` of `src` under `handle` at `version` and flush:
/// the bytes of [`Frame::Permute`] with `src`'s wire bytes as payload,
/// converted from `src` chunk by chunk.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub fn write_permute<W: Write, T: Elem>(
    w: &mut W,
    version: u8,
    handle: u64,
    src: &[T],
) -> Result<(), ProtoError> {
    write_typed(w, version, kind::PERMUTE, Some(handle), src)
}

/// Write a `PERMUTED` carrying `dst` at `version` and flush: the bytes
/// of [`Frame::Permuted`], converted from `dst` chunk by chunk.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub fn write_permuted<W: Write, T: Elem>(
    w: &mut W,
    version: u8,
    dst: &[T],
) -> Result<(), ProtoError> {
    write_typed(w, version, kind::PERMUTED, None, dst)
}

/// Write a `PERMUTED_BATCH` carrying `outputs` at `version` and flush:
/// the bytes of [`Frame::PermutedBatch`] with each output's wire bytes
/// as a payload, converted from the outputs chunk by chunk.
///
/// # Panics
/// Panics if this build does not speak `version`.
pub(crate) fn write_permuted_batch<W: Write, T: Elem>(
    w: &mut W,
    version: u8,
    outputs: &[Vec<T>],
) -> Result<(), ProtoError> {
    let body_len = outputs.iter().fold(4usize, |len, o| {
        len.saturating_add(o.len().saturating_mul(T::WIDTH).saturating_add(4))
    });
    write_body_with(w, version, kind::PERMUTED_BATCH, body_len, |fw| {
        fw.put_u32(outputs.len() as u32)?;
        for o in outputs {
            fw.put_u32((o.len() * T::WIDTH) as u32)?;
            fw.put_elems(o)?;
        }
        Ok(())
    })
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

/// Largest body allocation a reused buffer keeps between frames (4 MiB:
/// a `PERMUTE` of 2^20 `u32`s).
const MAX_RETAINED_BODY: usize = 4 << 20;

/// Free a reused body buffer once a frame is done with it if it grew
/// past [`MAX_RETAINED_BODY`], so an idle connection never pins a
/// once-huge body; a typical body's allocation is kept.
pub(crate) fn shed(body: &mut Vec<u8>) {
    if body.capacity() > MAX_RETAINED_BODY {
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

    /// The streamed `PERMUTE`/`PERMUTED`/`PERMUTED_BATCH` writers emit
    /// exactly the bytes of the `Frame` encoder and of the longhand
    /// layout.
    fn check_streamed<T: Elem>(version: u8, handle: u64, elems: &[T], le: impl Fn(T) -> Vec<u8>) {
        let payload: Vec<u8> = elems.iter().flat_map(|&v| le(v)).collect();
        let mut permute_body = handle.to_le_bytes().to_vec();
        permute_body.extend_from_slice(&payload);

        let mut streamed = Vec::new();
        write_permute(&mut streamed, version, handle, elems).unwrap();
        let framed = Frame::Permute {
            handle,
            payload: payload.clone(),
        }
        .encode_version(version);
        assert_eq!(streamed, framed, "PERMUTE v{version} n={}", elems.len());
        assert_eq!(
            streamed,
            reference_frame(version, kind::PERMUTE, &permute_body)
        );

        let mut streamed = Vec::new();
        write_permuted(&mut streamed, version, elems).unwrap();
        let framed = Frame::Permuted {
            payload: payload.clone(),
        }
        .encode_version(version);
        assert_eq!(streamed, framed, "PERMUTED v{version} n={}", elems.len());
        assert_eq!(streamed, reference_frame(version, kind::PERMUTED, &payload));

        // Batches of zero, one and three members, one of them a prefix.
        let half = elems.len() / 2;
        for outputs in [
            vec![],
            vec![elems.to_vec()],
            vec![elems.to_vec(), elems[..half].to_vec(), elems.to_vec()],
        ] {
            let payloads: Vec<Vec<u8>> = outputs
                .iter()
                .map(|o| payload[..o.len() * T::WIDTH].to_vec())
                .collect();
            let mut batch_body = (payloads.len() as u32).to_le_bytes().to_vec();
            for p in &payloads {
                batch_body.extend_from_slice(&(p.len() as u32).to_le_bytes());
                batch_body.extend_from_slice(p);
            }
            let mut streamed = Vec::new();
            write_permuted_batch(&mut streamed, version, &outputs).unwrap();
            let framed = Frame::PermutedBatch { payloads }.encode_version(version);
            let ctx = format!(
                "PERMUTED_BATCH v{version} n={} × {}",
                elems.len(),
                outputs.len()
            );
            assert_eq!(streamed, framed, "{ctx}");
            assert_eq!(
                streamed,
                reference_frame(version, kind::PERMUTED_BATCH, &batch_body),
                "{ctx}"
            );
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
                payloads: vec![vec![1; CHUNK + 5], vec![], vec![2; 3]],
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
        let too_many = vec![0u64; MAX_BODY / 8 + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_permuted(&mut out, PROTOCOL_VERSION, &too_many),
            Err(ProtoError::Oversized { .. })
        ));
        assert!(matches!(
            write_permute(&mut out, PROTOCOL_VERSION, 1, &too_many[1..]),
            Err(ProtoError::Oversized { .. })
        ));
        assert!(out.is_empty());
    }

    /// Hostile frames through one reused body buffer, each one after a
    /// large valid frame has left the buffer full of stale bytes: the
    /// reader plus `decode_body` (what a session runs) gives the error a
    /// fresh `read_frame` gives, which is the expected one, and the
    /// contiguous decoder agrees wherever it can tell the same story.
    #[test]
    fn hostile_frames_through_a_reused_buffer_fail_as_with_a_fresh_one() {
        let big = Frame::Permuted {
            payload: vec![0xa5; 3 * CHUNK],
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
            assert_eq!(body.len(), 3 * CHUNK);
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
        let mut body = Vec::with_capacity(MAX_RETAINED_BODY);
        shed(&mut body);
        assert_eq!(body.capacity(), MAX_RETAINED_BODY);
        let mut body = Vec::with_capacity(MAX_RETAINED_BODY + 1);
        shed(&mut body);
        assert_eq!(body.capacity(), 0);
    }
}
