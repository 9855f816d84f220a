//! Protocol v2: frame grammar, typed errors, and the std-only codec.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +--------+---------+------+--------------+--------+--------------+
//! | magic  | version | kind | body_len u32 | body   | checksum u64 |
//! | "HMMS" |   u8    |  u8  |  (LE)        | bytes  | (LE)         |
//! +--------+---------+------+--------------+--------+--------------+
//! |<----------- checksummed region ----------->|
//! ```
//!
//! The checksum covers everything before it (header + body), and the
//! version byte picks its function:
//!
//! | version | checksum |
//! |---|---|
//! | 2 (written) | `hmm_perm::hash`, the hash that also seals plan files |
//! | 1 (still read) | FNV-1a (`hmm_plan::fnv1a`) |
//!
//! The grammar is otherwise the same in both versions. A server answers
//! each frame in the version it arrived in, so clients built for v1 keep
//! working; their `REGISTER` claims are FNV-1a fingerprints, and the
//! server checks them as such.
//!
//! Hostile-input posture, mirroring the plan codec:
//!
//! * `body_len` is validated against [`MAX_BODY`] *before* any body
//!   allocation — a length-prefix of 4 GiB costs the attacker a typed
//!   [`ProtoError::Oversized`], not an OOM.
//! * Every structural violation decodes to a distinct [`ProtoError`]
//!   variant; nothing in this module panics on arbitrary bytes.
//! * Collection counts inside bodies ([`MAX_BATCH`], [`MAX_ERR_MSG`],
//!   [`MAX_BMMC_BITS`]) are capped independently of `body_len`, so a
//!   valid-length frame cannot smuggle an absurd element count.

use std::fmt;

use hmm_perm::hash::Hasher;
use hmm_plan::{fnv1a_update, FNV_OFFSET};

use crate::framing::{lay_out, seal, Put};

/// Leading magic of every frame.
pub const MAGIC: [u8; 4] = *b"HMMS";

/// Protocol version this build writes.
pub const PROTOCOL_VERSION: u8 = 2;

/// Oldest protocol version this build still reads and answers in.
const MIN_PROTOCOL_VERSION: u8 = 1;

/// Whether this build reads (and can answer) frames of `version`.
pub(crate) fn speaks(version: u8) -> bool {
    (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version)
}

/// The running checksum of one frame at a version this build speaks
/// (see the module table): fed header and body bytes in order, in
/// pieces of any size, then finished. The frame reader and writer in
/// [`framing`](crate::framing) seal with it.
pub(crate) enum Seal {
    /// Version 1: FNV-1a.
    Fnv(u64),
    /// Version 2: `hmm_perm::hash`.
    Hash(Hasher),
}

impl Seal {
    pub(crate) fn new(version: u8) -> Seal {
        debug_assert!(speaks(version), "no checksum for version {version}");
        if version == 1 {
            Seal::Fnv(FNV_OFFSET)
        } else {
            Seal::Hash(Hasher::new())
        }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        match self {
            Seal::Fnv(h) => *h = fnv1a_update(*h, bytes),
            Seal::Hash(h) => h.update(bytes),
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        match self {
            Seal::Fnv(h) => *h,
            Seal::Hash(h) => h.finish(),
        }
    }
}

/// Fixed header length: magic + version + kind + body length.
pub const HEADER_LEN: usize = 4 + 1 + 1 + 4;

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 8;

/// Hard cap on a frame body (64 MiB). Bounds every allocation the
/// decoder can be driven to; a `PERMUTE` of 2^24 u32 elements fits.
pub const MAX_BODY: usize = 1 << 26;

/// Hard cap on payload count in one `PERMUTE_BATCH`.
pub const MAX_BATCH: usize = 4096;

/// Hard cap on an `ERR` frame's message length in bytes.
pub const MAX_ERR_MSG: usize = 4096;

/// Largest BMMC matrix accepted over the wire (n = 2^26 elements).
pub const MAX_BMMC_BITS: u8 = 26;

/// Frame kind bytes (the `kind` header field).
pub mod kind {
    /// `REGISTER` request.
    pub const REGISTER: u8 = 1;
    /// `REGISTERED` response.
    pub const REGISTERED: u8 = 2;
    /// `PERMUTE` request.
    pub const PERMUTE: u8 = 3;
    /// `PERMUTED` response.
    pub const PERMUTED: u8 = 4;
    /// `PERMUTE_BATCH` request.
    pub const PERMUTE_BATCH: u8 = 5;
    /// `PERMUTED_BATCH` response.
    pub const PERMUTED_BATCH: u8 = 6;
    /// `STATS` request.
    pub const STATS: u8 = 7;
    /// `STATS_REPORT` response.
    pub const STATS_REPORT: u8 = 8;
    /// `DRAIN` request.
    pub const DRAIN: u8 = 9;
    /// `DRAIN_OK` response.
    pub const DRAIN_OK: u8 = 10;
    /// `ERR` response.
    pub const ERR: u8 = 15;
}

/// Typed error codes carried by [`Frame::Err`]. The server never answers
/// a malformed or refused request with a silent disconnect — it answers
/// with one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// Request body decoded but violated protocol semantics.
    Malformed = 1,
    /// `PERMUTE`/`PERMUTE_BATCH` named a handle this session never
    /// registered (or already saw rejected).
    UnknownHandle = 2,
    /// Admission control: the session is at its registered-plan quota.
    AdmissionPlans = 3,
    /// Admission control: the request would exceed the session's
    /// in-flight job quota.
    AdmissionInFlight = 4,
    /// The fingerprint the client claimed does not match the permutation
    /// it sent — the payload was corrupted or mis-built client-side.
    FingerprintMismatch = 5,
    /// Plan construction failed server-side (`PlanError`).
    Plan = 6,
    /// The server is draining: no new registrations or jobs.
    Draining = 7,
    /// A payload's byte length does not match `n × width` for the handle.
    SizeMismatch = 8,
    /// Valid frame, unsupported content (element width, BMMC size…).
    Unsupported = 9,
    /// A frame-level decode failure (bad magic/version/checksum/length):
    /// the byte stream can no longer be trusted, so the server sends
    /// this and closes.
    BadFrame = 10,
    /// The connection sat idle past the server's read timeout; the
    /// server sends this and closes.
    IdleTimeout = 11,
    /// The server is at its global connection cap; sent immediately
    /// after accept, then the connection closes.
    Busy = 12,
}

impl ErrCode {
    /// Decode a wire code; unknown codes collapse to [`ErrCode::Malformed`]
    /// rather than failing the whole frame (forward compatibility).
    pub fn from_u16(v: u16) -> ErrCode {
        match v {
            1 => ErrCode::Malformed,
            2 => ErrCode::UnknownHandle,
            3 => ErrCode::AdmissionPlans,
            4 => ErrCode::AdmissionInFlight,
            5 => ErrCode::FingerprintMismatch,
            6 => ErrCode::Plan,
            7 => ErrCode::Draining,
            8 => ErrCode::SizeMismatch,
            9 => ErrCode::Unsupported,
            10 => ErrCode::BadFrame,
            11 => ErrCode::IdleTimeout,
            12 => ErrCode::Busy,
            _ => ErrCode::Malformed,
        }
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrCode::Malformed => "malformed",
            ErrCode::UnknownHandle => "unknown-handle",
            ErrCode::AdmissionPlans => "admission-plans",
            ErrCode::AdmissionInFlight => "admission-in-flight",
            ErrCode::FingerprintMismatch => "fingerprint-mismatch",
            ErrCode::Plan => "plan",
            ErrCode::Draining => "draining",
            ErrCode::SizeMismatch => "size-mismatch",
            ErrCode::Unsupported => "unsupported",
            ErrCode::BadFrame => "bad-frame",
            ErrCode::IdleTimeout => "idle-timeout",
            ErrCode::Busy => "busy",
        };
        f.write_str(name)
    }
}

/// Everything that can go wrong turning bytes into a [`Frame`] (or
/// moving them over a socket). Mirrors the plan codec's posture: typed,
/// never a panic, never an unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Input ended inside the named section.
    Truncated {
        /// Which part of the frame the input ran out in.
        what: &'static str,
    },
    /// The first four bytes were not `HMMS`.
    BadMagic,
    /// Unsupported protocol version byte.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unknown frame kind byte.
    BadKind {
        /// The kind byte received.
        got: u8,
    },
    /// `body_len` (or an inner count) exceeded its cap; rejected before
    /// any allocation of that size.
    Oversized {
        /// The declared length/count.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// Stored checksum did not match the recomputed one.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// Structurally valid frame whose body violated the grammar.
    Malformed {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// Bytes left over after a complete buffer decode.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// Socket-level I/O failure (mid-frame EOF included).
    Io {
        /// The `std::io::ErrorKind` of the failure.
        kind: std::io::ErrorKind,
        /// Which frame section was being transferred.
        context: &'static str,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Truncated { what } => write!(f, "truncated frame: ran out in {what}"),
            ProtoError::BadMagic => write!(f, "bad magic (expected HMMS)"),
            ProtoError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} \
                     (speak {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
                )
            }
            ProtoError::BadKind { got } => write!(f, "unknown frame kind {got}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            ProtoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ProtoError::Malformed { reason } => write!(f, "malformed body: {reason}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
            ProtoError::Io { kind, context } => write!(f, "i/o error ({kind:?}) during {context}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Element type streamable through the protocol: fixed wire width,
/// little-endian. Implemented for `u32` and `u64` — the two widths the
/// engines serve.
pub trait Elem: Copy + Send + Sync + Default + PartialEq + fmt::Debug + 'static {
    /// Wire width in bytes.
    const WIDTH: usize;
    /// Write this element's little-endian bytes into exactly `WIDTH`
    /// bytes.
    fn write_le(self, out: &mut [u8]);
    /// Read one element from exactly `WIDTH` bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

impl Elem for u32 {
    const WIDTH: usize = 4;
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("exactly WIDTH bytes"))
    }
}

impl Elem for u64 {
    const WIDTH: usize = 8;
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("exactly WIDTH bytes"))
    }
}

/// Write `src`'s wire bytes into `out`, which holds exactly
/// `src.len() × WIDTH` bytes: one pass, no growth.
pub(crate) fn put_elems<T: Elem>(src: &[T], out: &mut [u8]) {
    debug_assert_eq!(out.len(), src.len() * T::WIDTH);
    for (bytes, &v) in out.chunks_exact_mut(T::WIDTH).zip(src) {
        v.write_le(bytes);
    }
}

/// Serialize a typed payload to its wire bytes (little-endian).
pub fn elems_to_bytes<T: Elem>(src: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; src.len() * T::WIDTH];
    put_elems(src, &mut out);
    out
}

/// Deserialize wire bytes into a typed payload; `None` if the byte
/// length is not a multiple of the element width.
pub fn bytes_to_elems<T: Elem>(bytes: &[u8]) -> Option<Vec<T>> {
    if !bytes.len().is_multiple_of(T::WIDTH) {
        return None;
    }
    Some(bytes.chunks_exact(T::WIDTH).map(T::read_le).collect())
}

/// How a `REGISTER` frame carries its permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermRepr {
    /// The explicit map: `n` destination indices, each a `u32`.
    Index(Vec<u32>),
    /// An affine GF(2) bit-matrix (BMMC): `bits` column masks plus an
    /// offset mask, expanded server-side. O(log² n) on the wire instead
    /// of O(n) — the cheap path for structured tenants.
    Bmmc {
        /// log2 of the permutation length.
        bits: u8,
        /// XOR offset mask (affine part).
        offset: u64,
        /// Column masks of the GF(2) matrix, length `bits`.
        cols: Vec<u64>,
    },
}

/// Server-wide counters reported by `STATS_REPORT`: the engine's
/// [`EngineStats`](hmm_native::EngineStats) (one snapshot covers both
/// element widths), plus the front door's own gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Plan-cache hits (either element width).
    pub hits: u64,
    /// Plan-cache misses.
    pub misses: u64,
    /// König colorings actually performed by this process.
    pub builds: u64,
    /// Plans produced by the structured (BMMC) fast path.
    pub plans_structured: u64,
    /// Plans carrying affine descriptors (eligible for the map-free
    /// computed-index kernels).
    pub plans_affine: u64,
    /// Plans served (verified) from the on-disk store.
    pub store_hits: u64,
    /// Store files discarded as corrupt/colliding.
    pub store_rejects: u64,
    /// Jobs started on the engine (each `PERMUTE`, each batch member).
    pub submitted: u64,
    /// Jobs that finished, successfully or with an error.
    /// `submitted == completed` whenever no job is running.
    pub completed: u64,
    /// Always 0: jobs run inline and cannot be cancelled. The field
    /// keeps the 16-field `STATS_REPORT` layout until a protocol bump
    /// replaces it.
    pub cancelled: u64,
    /// Requests refused by admission control.
    pub admission_rejects: u64,
    /// Connections closed for sitting idle past the read timeout.
    pub idle_disconnects: u64,
    /// Connections refused at accept because the server was at its
    /// global connection cap.
    pub conn_rejects: u64,
    /// Plan handles currently registered across live sessions.
    pub registered_plans: u64,
    /// Live client connections.
    pub active_clients: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

/// Number of `u64` counter fields in a v1 `STATS_REPORT` body.
const STATS_FIELDS: u8 = 16;

/// One protocol message. `encode` and `decode` are exact inverses for
/// every well-formed frame (pinned by the proptest suite).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Register a permutation and receive a session-scoped handle.
    Register {
        /// Client-computed
        /// [`Permutation::fingerprint`](hmm_perm::Permutation::fingerprint);
        /// `0` means "no claim"
        /// (used for BMMC registrations, where the client never
        /// materializes the index map). A nonzero claim is verified
        /// server-side.
        fingerprint: u64,
        /// Permutation length in elements.
        n: u64,
        /// Element width in bytes: 4 or 8.
        elem_width: u8,
        /// The permutation itself.
        perm: PermRepr,
    },
    /// Successful registration.
    Registered {
        /// Session-scoped plan handle.
        handle: u64,
    },
    /// Apply a registered plan to one payload.
    Permute {
        /// Handle from [`Frame::Registered`].
        handle: u64,
        /// `n × width` little-endian element bytes.
        payload: Vec<u8>,
    },
    /// Successful single permute.
    Permuted {
        /// The permuted payload, same length as the request's.
        payload: Vec<u8>,
    },
    /// Apply a registered plan to many payloads in one request.
    PermuteBatch {
        /// Handle from [`Frame::Registered`].
        handle: u64,
        /// The payloads, each `n × width` bytes.
        payloads: Vec<Vec<u8>>,
    },
    /// Successful batch permute; outputs in request order.
    PermutedBatch {
        /// The permuted payloads.
        payloads: Vec<Vec<u8>>,
    },
    /// Request a [`ServerStats`] snapshot.
    Stats,
    /// Stats snapshot response.
    StatsReport(ServerStats),
    /// Graceful shutdown: stop accepting, finish the requests in flight,
    /// then close.
    /// Servers honour it only from a loopback peer.
    Drain,
    /// Drain completed; the connection closes after this frame.
    DrainOk,
    /// Typed refusal — the server's answer to anything it cannot serve.
    Err {
        /// Machine-readable error class.
        code: ErrCode,
        /// Human-readable diagnosis (≤ [`MAX_ERR_MSG`] bytes).
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Body codec helpers (cursor-style, mirroring the hmm-plan codec)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(ProtoError::Truncated { what })?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated { what });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn finish(self) -> Result<(), ProtoError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtoError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn malformed(reason: impl Into<String>) -> ProtoError {
    ProtoError::Malformed {
        reason: reason.into(),
    }
}

impl Frame {
    /// The frame's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Register { .. } => kind::REGISTER,
            Frame::Registered { .. } => kind::REGISTERED,
            Frame::Permute { .. } => kind::PERMUTE,
            Frame::Permuted { .. } => kind::PERMUTED,
            Frame::PermuteBatch { .. } => kind::PERMUTE_BATCH,
            Frame::PermutedBatch { .. } => kind::PERMUTED_BATCH,
            Frame::Stats => kind::STATS,
            Frame::StatsReport(_) => kind::STATS_REPORT,
            Frame::Drain => kind::DRAIN,
            Frame::DrainOk => kind::DRAIN_OK,
            Frame::Err { .. } => kind::ERR,
        }
    }

    /// Short name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Register { .. } => "REGISTER",
            Frame::Registered { .. } => "REGISTERED",
            Frame::Permute { .. } => "PERMUTE",
            Frame::Permuted { .. } => "PERMUTED",
            Frame::PermuteBatch { .. } => "PERMUTE_BATCH",
            Frame::PermutedBatch { .. } => "PERMUTED_BATCH",
            Frame::Stats => "STATS",
            Frame::StatsReport(_) => "STATS_REPORT",
            Frame::Drain => "DRAIN",
            Frame::DrainOk => "DRAIN_OK",
            Frame::Err { .. } => "ERR",
        }
    }

    /// Encode the complete frame at [`PROTOCOL_VERSION`]: header, body,
    /// trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_version(PROTOCOL_VERSION)
    }

    /// Encode the complete frame at `version`: how a server answers a
    /// client in the version the client spoke. The bytes are what
    /// [`write_frame_versioned`](crate::framing::write_frame_versioned)
    /// sends: both build the frame with the one frame writer.
    ///
    /// # Panics
    /// Panics if this build does not speak `version`.
    pub fn encode_version(&self, version: u8) -> Vec<u8> {
        assert!(speaks(version), "cannot encode protocol version {version}");
        debug_assert!(
            self.body_len() <= MAX_BODY,
            "encoder produced oversized body"
        );
        let mut out = Vec::new();
        self.encode_into(version, &mut out);
        out
    }

    /// Encode the complete frame at `version` into `frame`, reusing its
    /// allocation (a session's reply buffer, a client's request buffer).
    pub(crate) fn encode_into(&self, version: u8, frame: &mut Vec<u8>) {
        let mut body = Put::new(lay_out(frame, version, self.kind(), self.body_len()));
        self.write_body(&mut body);
        debug_assert!(body.is_full(), "body shorter than body_len");
        seal(frame);
    }

    /// Length of the encoded body, known before a byte of it is written
    /// (the header carries it).
    pub(crate) fn body_len(&self) -> usize {
        let list = |payloads: &[Vec<u8>]| 4 + payloads.iter().map(|p| 4 + p.len()).sum::<usize>();
        match self {
            Frame::Register { perm, .. } => {
                8 + 8
                    + 1
                    + match perm {
                        PermRepr::Index(map) => 1 + 4 * map.len(),
                        PermRepr::Bmmc { cols, .. } => 1 + 1 + 8 + 8 * cols.len(),
                    }
            }
            Frame::Registered { .. } => 8,
            Frame::Permute { payload, .. } => 8 + payload.len(),
            Frame::Permuted { payload } => payload.len(),
            Frame::PermuteBatch { payloads, .. } => 8 + list(payloads),
            Frame::PermutedBatch { payloads } => list(payloads),
            Frame::Stats | Frame::Drain | Frame::DrainOk => 0,
            Frame::StatsReport(_) => 1 + 8 * usize::from(STATS_FIELDS),
            Frame::Err { message, .. } => 2 + 4 + message.len().min(MAX_ERR_MSG),
        }
    }

    /// Write the body, part by part, into a body region of
    /// [`Frame::body_len`] bytes.
    fn write_body(&self, w: &mut Put<'_>) {
        match self {
            Frame::Register {
                fingerprint,
                n,
                elem_width,
                perm,
            } => {
                w.u64(*fingerprint);
                w.u64(*n);
                w.bytes(&[*elem_width]);
                match perm {
                    PermRepr::Index(map) => {
                        w.bytes(&[0]);
                        w.elems(map);
                    }
                    PermRepr::Bmmc { bits, offset, cols } => {
                        w.bytes(&[1, *bits]);
                        w.u64(*offset);
                        w.elems(cols);
                    }
                }
            }
            Frame::Registered { handle } => w.u64(*handle),
            Frame::Permute { handle, payload } => {
                w.u64(*handle);
                w.bytes(payload);
            }
            Frame::Permuted { payload } => w.bytes(payload),
            Frame::PermuteBatch { handle, payloads } => {
                w.u64(*handle);
                write_payload_list(w, payloads);
            }
            Frame::PermutedBatch { payloads } => write_payload_list(w, payloads),
            Frame::Stats | Frame::Drain | Frame::DrainOk => {}
            Frame::StatsReport(s) => {
                w.bytes(&[STATS_FIELDS]);
                w.elems(&[
                    s.hits,
                    s.misses,
                    s.builds,
                    s.plans_structured,
                    s.plans_affine,
                    s.store_hits,
                    s.store_rejects,
                    s.submitted,
                    s.completed,
                    s.cancelled,
                    s.admission_rejects,
                    s.idle_disconnects,
                    s.conn_rejects,
                    s.registered_plans,
                    s.active_clients,
                    u64::from(s.draining),
                ]);
            }
            Frame::Err { code, message } => {
                let msg = message.as_bytes();
                let take = msg.len().min(MAX_ERR_MSG);
                w.bytes(&(*code as u16).to_le_bytes());
                w.u32(take as u32);
                w.bytes(&msg[..take]);
            }
        }
    }

    /// Decode a complete frame from a contiguous buffer (header, body,
    /// checksum). The streaming path ([`read_frame`]) performs the same
    /// checks incrementally; this entry exists for tests and in-memory
    /// use.
    ///
    /// [`read_frame`]: crate::framing::read_frame
    pub fn decode(bytes: &[u8]) -> Result<Frame, ProtoError> {
        if bytes.len() < HEADER_LEN {
            return Err(ProtoError::Truncated { what: "header" });
        }
        if bytes[..4] != MAGIC {
            return Err(ProtoError::BadMagic);
        }
        let version = bytes[4];
        if !speaks(version) {
            return Err(ProtoError::BadVersion { got: version });
        }
        let kind = bytes[5];
        let body_len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
        if body_len > MAX_BODY {
            return Err(ProtoError::Oversized {
                len: body_len as u64,
                max: MAX_BODY as u64,
            });
        }
        let total = HEADER_LEN + body_len + CHECKSUM_LEN;
        if bytes.len() < total {
            return Err(ProtoError::Truncated {
                what: if bytes.len() < HEADER_LEN + body_len {
                    "body"
                } else {
                    "checksum"
                },
            });
        }
        if bytes.len() > total {
            return Err(ProtoError::TrailingBytes {
                extra: bytes.len() - total,
            });
        }
        let sum_at = HEADER_LEN + body_len;
        let stored = u64::from_le_bytes(bytes[sum_at..].try_into().unwrap());
        let mut seal = Seal::new(version);
        seal.update(&bytes[..sum_at]);
        let computed = seal.finish();
        if stored != computed {
            return Err(ProtoError::ChecksumMismatch { stored, computed });
        }
        Frame::decode_body(kind, &bytes[HEADER_LEN..sum_at])
    }

    /// Decode a frame body whose header (and checksum) already passed.
    pub fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, ProtoError> {
        let mut r = Reader::new(body);
        let frame = match kind {
            kind::REGISTER => {
                let fingerprint = r.u64("register fingerprint")?;
                let n = r.u64("register n")?;
                let elem_width = r.u8("register width")?;
                let repr = r.u8("register repr tag")?;
                let perm = match repr {
                    0 => {
                        let entries = r.rest();
                        if !entries.len().is_multiple_of(4) {
                            return Err(malformed("index map bytes not a multiple of 4"));
                        }
                        let count = entries.len() / 4;
                        if count as u64 != n {
                            return Err(malformed(format!(
                                "index map has {count} entries, header claims n={n}"
                            )));
                        }
                        PermRepr::Index(
                            entries
                                .chunks_exact(4)
                                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                                .collect(),
                        )
                    }
                    1 => {
                        let bits = r.u8("bmmc bits")?;
                        if bits > MAX_BMMC_BITS {
                            return Err(ProtoError::Oversized {
                                len: u64::from(bits),
                                max: u64::from(MAX_BMMC_BITS),
                            });
                        }
                        let offset = r.u64("bmmc offset")?;
                        let mut cols = Vec::with_capacity(usize::from(bits));
                        for _ in 0..bits {
                            cols.push(r.u64("bmmc column")?);
                        }
                        if n != 1u64 << bits {
                            return Err(malformed(format!(
                                "bmmc bits={bits} implies n={}, header claims n={n}",
                                1u64 << bits
                            )));
                        }
                        PermRepr::Bmmc { bits, offset, cols }
                    }
                    other => return Err(malformed(format!("unknown perm repr tag {other}"))),
                };
                Frame::Register {
                    fingerprint,
                    n,
                    elem_width,
                    perm,
                }
            }
            kind::REGISTERED => Frame::Registered {
                handle: r.u64("registered handle")?,
            },
            kind::PERMUTE => {
                let (handle, payload) = split_permute(r.rest())?;
                Frame::Permute {
                    handle,
                    payload: payload.to_vec(),
                }
            }
            kind::PERMUTED => Frame::Permuted {
                payload: r.rest().to_vec(),
            },
            kind::PERMUTE_BATCH => {
                let (handle, payloads) = split_permute_batch(r.rest())?;
                Frame::PermuteBatch {
                    handle,
                    payloads: payloads.into_iter().map(<[u8]>::to_vec).collect(),
                }
            }
            kind::PERMUTED_BATCH => Frame::PermutedBatch {
                payloads: split_permuted_batch(r.rest())?
                    .into_iter()
                    .map(<[u8]>::to_vec)
                    .collect(),
            },
            kind::STATS => Frame::Stats,
            kind::STATS_REPORT => {
                let fields = r.u8("stats field count")?;
                if fields != STATS_FIELDS {
                    return Err(malformed(format!(
                        "stats report carries {fields} fields, v1 defines {STATS_FIELDS}"
                    )));
                }
                let mut v = [0u64; STATS_FIELDS as usize];
                for slot in v.iter_mut() {
                    *slot = r.u64("stats field")?;
                }
                Frame::StatsReport(ServerStats {
                    hits: v[0],
                    misses: v[1],
                    builds: v[2],
                    plans_structured: v[3],
                    plans_affine: v[4],
                    store_hits: v[5],
                    store_rejects: v[6],
                    submitted: v[7],
                    completed: v[8],
                    cancelled: v[9],
                    admission_rejects: v[10],
                    idle_disconnects: v[11],
                    conn_rejects: v[12],
                    registered_plans: v[13],
                    active_clients: v[14],
                    draining: v[15] != 0,
                })
            }
            kind::DRAIN => Frame::Drain,
            kind::DRAIN_OK => Frame::DrainOk,
            kind::ERR => {
                let code = ErrCode::from_u16(r.u16("err code")?);
                let len = r.u32("err message length")? as usize;
                if len > MAX_ERR_MSG {
                    return Err(ProtoError::Oversized {
                        len: len as u64,
                        max: MAX_ERR_MSG as u64,
                    });
                }
                let bytes = r.take(len, "err message")?;
                let message = std::str::from_utf8(bytes)
                    .map_err(|_| malformed("err message is not utf-8"))?
                    .to_string();
                Frame::Err { code, message }
            }
            other => return Err(ProtoError::BadKind { got: other }),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Split a `PERMUTE` body into its handle and payload bytes: the
/// decoder's own grammar, shared with the server's in-place path so
/// both refuse a short body with the same error.
pub(crate) fn split_permute(body: &[u8]) -> Result<(u64, &[u8]), ProtoError> {
    let mut r = Reader::new(body);
    let handle = r.u64("permute handle")?;
    Ok((handle, r.rest()))
}

fn write_payload_list(w: &mut Put<'_>, payloads: &[Vec<u8>]) {
    w.u32(payloads.len() as u32);
    for p in payloads {
        w.u32(p.len() as u32);
        w.bytes(p);
    }
}

/// Split a `PERMUTE_BATCH` body into its handle and its payloads,
/// borrowed from the body: the decoder's own grammar, shared with the
/// server's in-place path.
pub(crate) fn split_permute_batch(body: &[u8]) -> Result<(u64, Vec<&[u8]>), ProtoError> {
    let mut r = Reader::new(body);
    let handle = r.u64("batch handle")?;
    let payloads = split_payload_list(&mut r)?;
    r.finish()?;
    Ok((handle, payloads))
}

/// The one grammar of `PERMUTE_BATCH` / `PERMUTED_BATCH` payload lists:
/// `count u32`, then `count × (len u32, bytes)`, each payload borrowed.
/// The count cap plus the already-capped body length bound what a
/// decoder allocates.
fn split_payload_list<'a>(r: &mut Reader<'a>) -> Result<Vec<&'a [u8]>, ProtoError> {
    let count = r.u32("batch count")? as usize;
    if count > MAX_BATCH {
        return Err(ProtoError::Oversized {
            len: count as u64,
            max: MAX_BATCH as u64,
        });
    }
    let mut payloads = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32("batch payload length")? as usize;
        payloads.push(r.take(len, "batch payload")?);
    }
    Ok(payloads)
}

/// Split a `PERMUTED_BATCH` body into its payloads, borrowed from the
/// body: the decoder's own grammar, shared with the client's in-place
/// path.
pub(crate) fn split_permuted_batch(body: &[u8]) -> Result<Vec<&[u8]>, ProtoError> {
    let mut r = Reader::new(body);
    let payloads = split_payload_list(&mut r)?;
    r.finish()?;
    Ok(payloads)
}
