//! The server: a thread-per-connection accept loop in front of one
//! engine core.
//!
//! Shape of the thing:
//!
//! * [`Server::bind`] binds a `TcpListener`, builds one engine core
//!   (optionally over an on-disk [`PlanStore`](hmm_plan::PlanStore)
//!   directory) with a `SharedEngine<u32>` handle and a
//!   `SharedEngine<u64>` view of it, and spawns the accept thread. Plans
//!   are element-agnostic, so a permutation registered at both widths is
//!   planned and cached once, and one stats snapshot covers both.
//! * Each accepted connection gets its own handler thread and its own
//!   *session*: a private handle namespace mapping `u64` handles to
//!   registered permutations. Handles never leak across connections,
//!   and a disconnect releases everything the session registered.
//! * `PERMUTE` and `PERMUTE_BATCH` run on the session thread, served
//!   from the session's reused request body: each payload is decoded
//!   once into a source array, each job runs through
//!   [`SharedEngine::run_job`] (counted in the engine's
//!   `submitted`/`completed` ledger, panics returned as errors), and the
//!   `PERMUTED` / `PERMUTED_BATCH` reply is streamed from the outputs in
//!   fixed chunks ([`framing`](crate::framing)). A batch checks every
//!   member's size before its first member runs.
//! * A frame is read *completely* before anything runs, so a client
//!   dying mid-payload can never strand a job: the partial frame
//!   surfaces as an I/O error and the handler just reaps the connection.
//! * Every request but `DRAIN` counts as in flight from before its
//!   `draining` check until its reply is written. `DRAIN` (or
//!   [`Server::drain`]) stops the accept loop, waits until no request is
//!   in flight, then answers `DRAIN_OK` and closes. Over the wire it is
//!   honoured only from a loopback peer; any other peer gets a typed
//!   `ERR unsupported` and its session keeps serving.
//!
//! [`SharedEngine::run_job`]: hmm_native::SharedEngine::run_job

use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use hmm_native::{JobError, SharedEngine};
use hmm_perm::{Bmmc, Permutation};
use hmm_plan::{fnv1a_update, FNV_OFFSET, FNV_PRIME};

use crate::admission::AdmissionConfig;
use crate::framing::{
    read_frame_into, shed, write_frame, write_frame_versioned, write_permuted, write_permuted_batch,
};
use crate::proto::{
    bytes_to_elems, get_elems, kind, split_permute, split_permute_batch, Elem, ErrCode, Frame,
    PermRepr, ProtoError, ServerStats, MAX_BMMC_BITS, PROTOCOL_VERSION,
};

/// Server construction / runtime errors.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure binding or accepting.
    Io(std::io::Error),
    /// Engine construction failed (e.g. the plan-store directory).
    Plan(hmm_plan::PlanError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Plan(e) => write!(f, "server engine error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Schedule width `w` for the engine (the paper's warp width).
    pub width: usize,
    /// Per-session quotas.
    pub admission: AdmissionConfig,
    /// Optional `PlanStore` directory behind the engine; restarts against
    /// a warm store complete registrations with `builds == 0`.
    pub store_dir: Option<PathBuf>,
    /// Close connections that send no complete frame for this long
    /// (`None` disables the reap). A tripped timeout is answered with a
    /// typed `ERR idle-timeout` before the close and counted in
    /// [`ServerStats::idle_disconnects`]. A client trickling bytes
    /// mid-frame slower than this is reaped too — the timeout bounds
    /// how long a handler thread can be held by one silent peer. It
    /// also bounds each reply write, so a peer that stops reading its
    /// reply is dropped after it, and holds a drain no longer.
    pub idle_timeout: Option<Duration>,
    /// Global cap on concurrently live connections. An accept past the
    /// cap is answered with a typed `ERR busy` and closed immediately,
    /// counted in [`ServerStats::conn_rejects`] — the thread-per-
    /// connection model is only safe with a bound on the thread count.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            width: 32,
            admission: AdmissionConfig::default(),
            store_dir: None,
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: 256,
        }
    }
}

/// State shared by the accept loop, every connection handler, and the
/// owning [`Server`] handle.
struct Shared {
    addr: SocketAddr,
    /// The engine, seen through a u32 handle; `engine_u64` is a view of
    /// the same core.
    engine: SharedEngine<u32>,
    engine_u64: SharedEngine<u64>,
    admission: AdmissionConfig,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    draining: AtomicBool,
    /// Requests being served, each counted before its `draining` check
    /// and released once its reply is written: what a drain waits for.
    in_flight: Mutex<usize>,
    in_flight_cv: Condvar,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    registered_plans: AtomicU64,
    active_clients: AtomicU64,
    idle_disconnects: AtomicU64,
    conn_rejects: AtomicU64,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let e = self.engine.stats();
        ServerStats {
            hits: e.hits,
            misses: e.misses,
            builds: e.builds,
            plans_structured: e.plans_structured,
            plans_affine: e.plans_affine,
            store_hits: e.store_hits,
            store_rejects: e.store_rejects,
            submitted: e.submitted,
            completed: e.completed,
            cancelled: 0,
            admission_rejects: e.admission_rejects,
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            conn_rejects: self.conn_rejects.load(Ordering::Relaxed),
            registered_plans: self.registered_plans.load(Ordering::Relaxed),
            active_clients: self.active_clients.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
        }
    }

    /// Count a request in flight until the returned guard drops. Take it
    /// before the request's `draining` check: a drain that finds no
    /// request in flight then knows every later one sees `draining`.
    fn begin_request(&self) -> InFlight<'_> {
        *self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        InFlight(self)
    }

    /// Stop accepting, then block until no request is in flight.
    /// Idempotent; safe to call from a handler thread that holds no
    /// [`InFlight`] guard (it joins the *accept* thread, not itself).
    /// Does NOT signal [`Server::wait_drained`] — callers do that via
    /// [`Shared::mark_drained`] once any pending `DRAIN_OK` reply is on
    /// the wire, so a `serve` process cannot exit between the flush and
    /// the acknowledgement.
    fn flush_for_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // The accept thread is parked in `accept()`; a throwaway
        // connection to ourselves wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self
            .accept
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *in_flight > 0 {
            in_flight = self
                .in_flight_cv
                .wait(in_flight)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wake [`Server::wait_drained`] waiters. Only call after
    /// [`Shared::flush_for_drain`].
    fn mark_drained(&self) {
        let mut done = self
            .drained
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *done = true;
        self.drained_cv.notify_all();
    }
}

/// One request in flight on a session; see [`Shared::begin_request`].
struct InFlight<'a>(&'a Shared);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut in_flight = self
            .0
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *in_flight -= 1;
        if *in_flight == 0 {
            self.0.in_flight_cv.notify_all();
        }
    }
}

/// A running permutation server. Dropping the handle stops the accept
/// loop (without flushing); call [`Server::drain`] first for a graceful
/// shutdown.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (use port 0 for an OS-assigned port), build the
    /// engine, and start accepting. A zero `config.width` is refused as
    /// [`std::io::ErrorKind::InvalidInput`] before anything is bound.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Server, ServerError> {
        if config.width == 0 {
            return Err(ServerError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "width must be positive",
            )));
        }
        let listener = TcpListener::bind(addr)?;
        let engine: SharedEngine<u32> = match &config.store_dir {
            Some(dir) => {
                SharedEngine::with_store(config.width, dir.clone()).map_err(ServerError::Plan)?
            }
            None => SharedEngine::new(config.width),
        };
        Self::start(listener, engine, &config)
    }

    /// Serve `engine` on an already-bound `listener`: open its `u64` view
    /// and spawn the accept thread. `config` supplies the session limits;
    /// its `width` and `store_dir` were spent building `engine`.
    fn start(
        listener: TcpListener,
        engine: SharedEngine<u32>,
        config: &ServerConfig,
    ) -> Result<Server, ServerError> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr,
            engine_u64: engine.view(),
            engine,
            admission: config.admission,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            draining: AtomicBool::new(false),
            in_flight: Mutex::new(0),
            in_flight_cv: Condvar::new(),
            drained: Mutex::new(false),
            drained_cv: Condvar::new(),
            registered_plans: AtomicU64::new(0),
            active_clients: AtomicU64::new(0),
            idle_disconnects: AtomicU64::new(0),
            conn_rejects: AtomicU64::new(0),
            accept: Mutex::new(None),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hmm-server-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        *shared
            .accept
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(accept);
        Ok(Server { shared })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Snapshot of the aggregated server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, wait for the requests in
    /// flight to be answered, then return. Equivalent to a client
    /// sending `DRAIN`.
    pub fn drain(&self) {
        self.shared.flush_for_drain();
        self.shared.mark_drained();
    }

    /// Block until a drain (from any source — [`Server::drain`] or a
    /// client's `DRAIN` frame) has completed.
    pub fn wait_drained(&self) {
        let mut done = self
            .shared
            .drained
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = self
                .shared
                .drained_cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Stop the accept loop so the listener port is released; no
        // flush — `drain()` is the graceful path.
        self.shared.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(handle) = self
            .shared
            .accept
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Global connection cap: refuse with a typed ERR instead of
        // spawning an unbounded number of handler threads. The reply is
        // best-effort — a peer that already vanished just loses it.
        if shared.active_clients.load(Ordering::Relaxed) >= shared.max_connections as u64 {
            shared.conn_rejects.fetch_add(1, Ordering::Relaxed);
            let mut writer = BufWriter::new(stream);
            let _ = write_frame(
                &mut writer,
                &Frame::Err {
                    code: ErrCode::Busy,
                    message: format!("server at its connection cap ({})", shared.max_connections),
                },
            );
            continue;
        }
        shared.active_clients.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("hmm-server-conn".into())
            .spawn(move || session_loop(conn_shared, stream));
        if spawned.is_err() {
            shared.active_clients.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One registered plan in a session's private namespace.
struct Registered {
    /// The cached plan's own permutation (an O(1) clone sharing its
    /// storage), so every `PERMUTE` hits with a memoized fingerprint and
    /// verifies by pointer — also when another session registered it.
    perm: Permutation,
    elem_width: u8,
}

/// Per-connection state: the handle namespace. Handles are dense
/// session-scoped integers; nothing a client sends can reach another
/// session's plans.
struct Session {
    plans: HashMap<u64, Registered>,
    next_handle: u64,
}

/// Whether a `DRAIN` frame from `peer` may stop the server: only a
/// loopback peer (IPv4-mapped IPv6 included) can, so a remote client
/// cannot shut down a server it merely reaches.
fn drain_allowed(peer: SocketAddr) -> bool {
    peer.ip().to_canonical().is_loopback()
}

/// Set up an accepted connection's socket and split it into the
/// session's buffered reader and its writer (unbuffered: the frame
/// writer already stages every frame into chunk-sized writes).
///
/// The socket gets `TCP_NODELAY`, because a reply leaves in several
/// writes (see [`framing`](crate::framing)) and would otherwise wait
/// out the client's delayed ACK, and the idle timeout as its read and
/// write timeouts (best effort, as a zero timeout is refused). A
/// tripped read timeout surfaces from `read_frame_into` as an I/O error
/// with `WouldBlock`/`TimedOut` (platform-dependent which); a tripped
/// write timeout fails the reply, which ends the session and releases
/// its in-flight request.
fn session_streams(
    stream: TcpStream,
    idle_timeout: Option<Duration>,
) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    if let Some(t) = idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    Ok((BufReader::new(stream.try_clone()?), stream))
}

fn session_loop(shared: Arc<Shared>, stream: TcpStream) {
    let mut session = Session {
        plans: HashMap::new(),
        next_handle: 1,
    };
    let may_drain = stream.peer_addr().is_ok_and(drain_allowed);
    let (mut reader, mut writer) = match session_streams(stream, shared.idle_timeout) {
        Ok(streams) => streams,
        Err(_) => {
            shared.active_clients.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    // The request body, reused from frame to frame.
    let mut body = Vec::new();
    // Every reply goes out in the protocol version of the frame it
    // answers; errors raised before a frame decodes use the version the
    // session last spoke.
    let mut version = PROTOCOL_VERSION;

    loop {
        let kind = match read_frame_into(&mut reader, &mut body) {
            Ok((kind, v)) => {
                version = v;
                kind
            }
            // The idle reap: no complete frame arrived within the
            // timeout. Diagnose with a typed ERR (best effort), count
            // it, and release the handler thread.
            Err(ProtoError::Io {
                kind: std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut,
                ..
            }) if shared.idle_timeout.is_some() => {
                shared.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame_versioned(
                    &mut writer,
                    &Frame::Err {
                        code: ErrCode::IdleTimeout,
                        message: format!(
                            "connection idle past the {:?} read timeout",
                            shared.idle_timeout.unwrap_or_default()
                        ),
                    },
                    version,
                );
                break;
            }
            // Clean close between frames, or the socket died (including
            // mid-payload). Nothing ran for a partial frame — frames are
            // fully read before dispatch — so there is no job to reap;
            // just release the session.
            Err(ProtoError::Closed) | Err(ProtoError::Io { .. }) => break,
            // Stream-level corruption: the byte stream can no longer be
            // trusted to be frame-aligned. Diagnose, then close.
            Err(e) => {
                let _ = write_frame_versioned(
                    &mut writer,
                    &Frame::Err {
                        code: ErrCode::BadFrame,
                        message: e.to_string(),
                    },
                    version,
                );
                break;
            }
        };

        // Held until the reply is written. A DRAIN takes none: it waits
        // for every other request's.
        let _request = (kind != kind::DRAIN).then(|| shared.begin_request());
        let written = if kind == kind::PERMUTE {
            serve_permute(&shared, &session, &body, version, &mut writer)
        } else if kind == kind::PERMUTE_BATCH {
            serve_batch(&shared, &session, &body, version, &mut writer)
        } else {
            match Frame::decode_body(kind, &body) {
                // DRAIN is special-cased so the `DRAIN_OK` is flushed to
                // the socket *before* `wait_drained` waiters (e.g. the
                // `serve` binary's main thread) can exit the process. A
                // DRAIN from a non-loopback peer falls through to
                // `respond`'s refusal.
                Ok(Frame::Drain) if may_drain => {
                    shared.flush_for_drain();
                    let _ = write_frame_versioned(&mut writer, &Frame::DrainOk, version);
                    shared.mark_drained();
                    break;
                }
                Ok(frame) => {
                    let reply = respond(&shared, &mut session, frame, version);
                    write_frame_versioned(&mut writer, &reply, version)
                }
                // Body-level violation: the frame was fully consumed, the
                // stream is still aligned — diagnose and keep serving.
                Err(e) => write_frame_versioned(&mut writer, &malformed(&e), version),
            }
        };
        if written.is_err() {
            break;
        }
        shed(&mut body);
    }

    shared
        .registered_plans
        .fetch_sub(session.plans.len() as u64, Ordering::Relaxed);
    shared.active_clients.fetch_sub(1, Ordering::Relaxed);
}

fn malformed(e: &ProtoError) -> Frame {
    err(ErrCode::Malformed, e.to_string())
}

fn err(code: ErrCode, message: impl Into<String>) -> Frame {
    Frame::Err {
        code,
        message: message.into(),
    }
}

fn respond(shared: &Shared, session: &mut Session, frame: Frame, version: u8) -> Frame {
    match frame {
        Frame::Register {
            fingerprint,
            n,
            elem_width,
            perm,
        } => register(shared, session, fingerprint, version, n, elem_width, perm),
        // PERMUTE and PERMUTE_BATCH never get here: `session_loop` serves
        // them from their raw bodies without decoding them into `Frame`s.
        Frame::Stats => Frame::StatsReport(shared.stats()),
        // A loopback peer's DRAIN is handled in `session_loop`
        // (reply-ordering constraint); anyone else's is refused.
        Frame::Drain => err(
            ErrCode::Unsupported,
            "DRAIN is accepted only from a loopback peer",
        ),
        other => err(
            ErrCode::Malformed,
            format!("unexpected {} frame from client", other.kind_name()),
        ),
    }
}

/// The fingerprint protocol-v1 clients claim in `REGISTER`: FNV-1a over
/// the map's entries as little-endian `u64`s, the length mixed in last —
/// `Permutation::fingerprint` before `hmm_perm::hash` replaced it.
fn legacy_fingerprint(p: &Permutation) -> u64 {
    let h = p.as_slice().iter().fold(FNV_OFFSET, |h, &d| {
        fnv1a_update(h, &(d as u64).to_le_bytes())
    });
    h ^ (p.len() as u64).wrapping_mul(FNV_PRIME)
}

fn register(
    shared: &Shared,
    session: &mut Session,
    fingerprint: u64,
    version: u8,
    n: u64,
    elem_width: u8,
    perm: PermRepr,
) -> Frame {
    if shared.draining.load(Ordering::SeqCst) {
        return err(ErrCode::Draining, "server is draining");
    }
    if elem_width != 4 && elem_width != 8 {
        return err(
            ErrCode::Unsupported,
            format!("element width {elem_width} (serve 4 and 8)"),
        );
    }
    if let Err(e) = shared.admission.admit_plan(session.plans.len()) {
        shared.engine.note_admission_reject();
        return err(e.code(), e.to_string());
    }

    let p = match build_permutation(n, perm) {
        Ok(p) => p,
        Err((code, msg)) => return err(code, msg),
    };
    // Server-side integrity check: a nonzero claim must match what the
    // bytes actually decode to. v2 claims are the fingerprint the engine
    // keys its verified cache on; v1 clients claim the FNV-1a one.
    let computed = if version == 1 {
        legacy_fingerprint(&p)
    } else {
        p.fingerprint()
    };
    if fingerprint != 0 && fingerprint != computed {
        return err(
            ErrCode::FingerprintMismatch,
            format!("claimed {fingerprint:#018x}, permutation hashes to {computed:#018x}"),
        );
    }

    // Warm the verified plan cache now, so the first PERMUTE is pure
    // execution and registration errors surface at registration time.
    // Plans are element-agnostic: one entry serves both widths.
    let perm = match shared.engine.plan(&p) {
        Ok(plan) => plan.permutation().clone(),
        Err(e) => return err(ErrCode::Plan, e.to_string()),
    };

    let handle = session.next_handle;
    session.next_handle += 1;
    session
        .plans
        .insert(handle, Registered { perm, elem_width });
    shared.registered_plans.fetch_add(1, Ordering::Relaxed);
    Frame::Registered { handle }
}

fn build_permutation(n: u64, perm: PermRepr) -> Result<Permutation, (ErrCode, String)> {
    match perm {
        PermRepr::Index(map) => {
            let map: Vec<usize> = map.into_iter().map(|v| v as usize).collect();
            debug_assert_eq!(map.len() as u64, n, "decoder enforces entries == n");
            Permutation::from_vec(map).map_err(|e| {
                (
                    ErrCode::Malformed,
                    format!("index map is not a permutation: {e}"),
                )
            })
        }
        PermRepr::Bmmc { bits, offset, cols } => {
            if bits > MAX_BMMC_BITS {
                return Err((
                    ErrCode::Unsupported,
                    format!("bmmc bits {bits} exceeds cap {MAX_BMMC_BITS}"),
                ));
            }
            let cols: Vec<usize> = cols.into_iter().map(|c| c as usize).collect();
            let m = Bmmc::from_cols(cols, offset as usize)
                .map_err(|e| (ErrCode::Malformed, format!("bmmc matrix rejected: {e}")))?;
            let p = m.to_permutation();
            if p.len() as u64 != n {
                return Err((
                    ErrCode::SizeMismatch,
                    format!("bmmc expands to n={}, header claims n={n}", p.len()),
                ));
            }
            Ok(p)
        }
    }
}

/// The checks every `PERMUTE` and `PERMUTE_BATCH` passes, in order:
/// not draining, a handle this session registered, and `jobs` within
/// the session's quota.
fn admit<'s>(
    shared: &Shared,
    session: &'s Session,
    handle: u64,
    jobs: usize,
) -> Result<&'s Registered, (ErrCode, String)> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err((ErrCode::Draining, "server is draining".into()));
    }
    let registered = session.plans.get(&handle).ok_or_else(|| {
        (
            ErrCode::UnknownHandle,
            format!("handle {handle} is not registered on this connection"),
        )
    })?;
    if let Err(e) = shared.admission.admit_jobs(jobs) {
        shared.engine.note_admission_reject();
        return Err((e.code(), e.to_string()));
    }
    Ok(registered)
}

/// Serve one `PERMUTE` straight from its checked body: decode the
/// payload into the source, run the job on this session thread
/// ([`SharedEngine::run_job`]: counted, panic-isolated), and stream the
/// `PERMUTED` reply from the output.
fn serve_permute<W: Write>(
    shared: &Shared,
    session: &Session,
    body: &[u8],
    version: u8,
    w: &mut W,
) -> Result<(), ProtoError> {
    let (handle, payload) = match split_permute(body) {
        Ok(parts) => parts,
        Err(e) => return write_frame_versioned(w, &malformed(&e), version),
    };
    let registered = match admit(shared, session, handle, 1) {
        Ok(r) => r,
        Err((code, msg)) => return write_frame_versioned(w, &err(code, msg), version),
    };
    if registered.elem_width == 4 {
        permute_inline::<u32, W>(&shared.engine, &registered.perm, payload, version, w)
    } else {
        permute_inline::<u64, W>(&shared.engine_u64, &registered.perm, payload, version, w)
    }
}

fn permute_inline<T: Elem, W: Write>(
    engine: &SharedEngine<T>,
    perm: &Permutation,
    payload: &[u8],
    version: u8,
    w: &mut W,
) -> Result<(), ProtoError> {
    if let Err((code, msg)) = check_payload::<T>(perm.len(), 0, payload) {
        return write_frame_versioned(w, &err(code, msg), version);
    }
    let src = bytes_to_elems::<T>(payload).expect("length checked above");
    let mut dst = vec![T::default(); perm.len()];
    let outcome = engine.run_job(perm, &src, &mut dst);
    // One payload-sized buffer fewer while the reply is written.
    drop(src);
    match outcome {
        Ok(_) => write_permuted(w, version, &dst),
        Err(e) => {
            let (code, msg) = job_err(e);
            write_frame_versioned(w, &err(code, msg), version)
        }
    }
}

/// Serve a `PERMUTE_BATCH` straight from its checked body, as
/// [`serve_permute`] serves one payload: every member's size is checked
/// before any member runs, then each member is decoded into one reused
/// source and run through [`SharedEngine::run_job`], and the
/// `PERMUTED_BATCH` reply is streamed from the outputs.
fn serve_batch<W: Write>(
    shared: &Shared,
    session: &Session,
    body: &[u8],
    version: u8,
    w: &mut W,
) -> Result<(), ProtoError> {
    let (handle, payloads) = match split_permute_batch(body) {
        Ok(parts) => parts,
        Err(e) => return write_frame_versioned(w, &malformed(&e), version),
    };
    let registered = match admit(shared, session, handle, payloads.len()) {
        Ok(r) => r,
        Err((code, msg)) => return write_frame_versioned(w, &err(code, msg), version),
    };
    if registered.elem_width == 4 {
        batch_inline::<u32, W>(&shared.engine, &registered.perm, &payloads, version, w)
    } else {
        batch_inline::<u64, W>(&shared.engine_u64, &registered.perm, &payloads, version, w)
    }
}

fn batch_inline<T: Elem, W: Write>(
    engine: &SharedEngine<T>,
    perm: &Permutation,
    payloads: &[&[u8]],
    version: u8,
    w: &mut W,
) -> Result<(), ProtoError> {
    let n = perm.len();
    let checked: Result<(), _> = payloads
        .iter()
        .enumerate()
        .try_for_each(|(i, bytes)| check_payload::<T>(n, i, bytes));
    if let Err((code, msg)) = checked {
        return write_frame_versioned(w, &err(code, msg), version);
    }
    let mut src = vec![T::default(); n];
    let mut outputs = Vec::with_capacity(payloads.len());
    for bytes in payloads {
        get_elems(bytes, &mut src);
        let mut dst = vec![T::default(); n];
        if let Err(e) = engine.run_job(perm, &src, &mut dst) {
            let (code, msg) = job_err(e);
            return write_frame_versioned(w, &err(code, msg), version);
        }
        outputs.push(dst);
    }
    drop(src);
    write_permuted_batch(w, version, &outputs)
}

fn job_err(e: JobError) -> (ErrCode, String) {
    (ErrCode::Plan, format!("job failed: {e}"))
}

/// Refuse payload `i` of a request unless it holds exactly `n` elements.
fn check_payload<T: Elem>(n: usize, i: usize, bytes: &[u8]) -> Result<(), (ErrCode, String)> {
    if bytes.len() != n * T::WIDTH {
        return Err((
            ErrCode::SizeMismatch,
            format!(
                "payload {i} is {} bytes, plan needs n×width = {}×{} = {}",
                bytes.len(),
                n,
                T::WIDTH,
                n * T::WIDTH
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use hmm_perm::families;

    #[test]
    fn drain_is_allowed_only_from_loopback_peers() {
        for (addr, allowed) in [
            ("127.0.0.1:9", true),
            ("[::1]:9", true),
            ("[::ffff:127.0.0.1]:9", true),
            ("192.0.2.7:9", false),
            ("[2001:db8::7]:9", false),
        ] {
            let peer: SocketAddr = addr.parse().unwrap();
            assert_eq!(drain_allowed(peer), allowed, "{addr}");
        }
    }

    #[test]
    fn refused_drain_is_a_typed_error_and_the_server_keeps_serving() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut session = Session {
            plans: HashMap::new(),
            next_handle: 1,
        };
        // What a non-loopback peer's DRAIN gets once `session_loop` lets
        // it fall through.
        let reply = respond(&server.shared, &mut session, Frame::Drain, PROTOCOL_VERSION);
        assert!(
            matches!(
                reply,
                Frame::Err {
                    code: ErrCode::Unsupported,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert!(!server.shared.draining.load(Ordering::SeqCst));

        let mut client = Client::connect(server.local_addr()).unwrap();
        let p = families::bit_reversal(1 << 10).unwrap();
        let handle = client.register::<u32>(&p).unwrap();
        let src: Vec<u32> = (0..1u32 << 10).collect();
        let out = client.permute(&handle, &src).unwrap();
        assert_eq!(out[p.apply(3)], src[3]);
    }

    /// Over TCP, on an engine whose fingerprint puts every permutation on
    /// one cache key: two handles registered on one connection each get
    /// their own permutation's output, because every hit still compares
    /// the full image when the storage differs.
    #[test]
    fn forced_fingerprint_collisions_over_tcp_keep_each_handle_correct() {
        let mut engine: SharedEngine<u32> = SharedEngine::new(32);
        engine.set_fingerprint_fn(|_| 0);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, engine, &ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let n = 1 << 10;
        let perms = [families::random(n, 1), families::random(n, 2)];
        let handles: Vec<_> = perms
            .iter()
            .map(|p| client.register::<u32>(p).unwrap())
            .collect();
        let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0x5a5a).collect();
        for round in 0..2 {
            for (k, (p, handle)) in perms.iter().zip(&handles).enumerate() {
                let mut want = vec![0u32; n];
                p.permute(&src, &mut want).unwrap();
                let out = client.permute(handle, &src).unwrap();
                assert_eq!(out, want, "round {round}, handle {k}");
            }
        }
        // The second registration and each of the four permutes found the
        // other permutation's plan under the shared key.
        assert_eq!(server.shared.engine.stats().collisions, 5);
    }

    /// Both ends of a session's socket, as `session_loop` sets it up,
    /// run with `TCP_NODELAY` and the idle timeout as read and write
    /// timeouts.
    #[test]
    fn session_sockets_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "accepted sockets start with Nagle on"
        );
        let (reader, writer) = session_streams(accepted, Some(Duration::from_secs(5))).unwrap();
        assert!(reader.get_ref().nodelay().unwrap());
        assert!(writer.nodelay().unwrap());
        assert_eq!(writer.read_timeout().unwrap(), Some(Duration::from_secs(5)));
        assert_eq!(
            writer.write_timeout().unwrap(),
            Some(Duration::from_secs(5))
        );
    }

    /// A drain waits for a request counted in flight before it began,
    /// and a request counted after the flip is refused as draining.
    #[test]
    fn drain_waits_for_requests_in_flight() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let shared = &*server.shared;
        let session = Session {
            plans: HashMap::new(),
            next_handle: 1,
        };
        let early = shared.begin_request();
        let flushed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                shared.flush_for_drain();
                flushed.store(true, Ordering::SeqCst);
            });
            while !shared.draining.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let late = shared.begin_request();
            assert!(matches!(
                admit(shared, &session, 1, 1),
                Err((ErrCode::Draining, _))
            ));
            drop(late);
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !flushed.load(Ordering::SeqCst),
                "drain finished with a request in flight"
            );
            drop(early);
        });
        assert!(flushed.load(Ordering::SeqCst));
    }

    static PANIC_ARMED: AtomicBool = AtomicBool::new(false);
    /// Held by each test that arms [`PANIC_ARMED`], so one test's
    /// injected panics never land in another's registrations.
    static PANIC_TESTS: Mutex<()> = Mutex::new(());

    fn fingerprint_or_panic(p: &Permutation) -> u64 {
        if PANIC_ARMED.load(Ordering::SeqCst) {
            panic!("injected fingerprint panic");
        }
        p.fingerprint()
    }

    /// A job that panics on the session thread is answered with a typed
    /// `ERR plan` carrying the panic message, counted in the ledger, and
    /// the same connection keeps serving.
    #[test]
    fn a_panicking_inline_job_is_a_typed_error_and_the_session_survives() {
        let _serial = PANIC_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        let mut engine: SharedEngine<u32> = SharedEngine::new(32);
        engine.set_fingerprint_fn(fingerprint_or_panic);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, engine, &ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let p = families::random(1 << 10, 9);
        let h32 = client.register::<u32>(&p).unwrap();
        let h64 = client.register::<u64>(&p).unwrap();
        PANIC_ARMED.store(true, Ordering::SeqCst);
        let src32: Vec<u32> = (0..1 << 10).collect();
        let src64: Vec<u64> = (0..1 << 10).collect();
        for round in 0..2 {
            let refusals = [
                client.permute(&h32, &src32).map(drop),
                client.permute(&h64, &src64).map(drop),
            ];
            for refusal in refusals {
                match refusal {
                    Err(crate::ClientError::Server { code, message }) => {
                        assert_eq!(code, ErrCode::Plan, "round {round}: {message}");
                        assert!(message.contains("injected fingerprint panic"), "{message}");
                    }
                    other => panic!("round {round}: expected ERR plan, got {other:?}"),
                }
            }
        }
        PANIC_ARMED.store(false, Ordering::SeqCst);
        let stats = client.stats().unwrap();
        assert_eq!(stats.submitted, 4, "{stats:?}");
        assert_eq!(stats.submitted, stats.completed, "{stats:?}");
        let out = client.permute(&h32, &src32).unwrap();
        assert_eq!(out[p.apply(5)], src32[5]);
    }

    /// A `PERMUTE_BATCH` whose first member panics is answered with one
    /// typed `ERR plan` at either width, no later member runs, and the
    /// session serves its next batch.
    #[test]
    fn a_panicking_batch_is_a_typed_error_and_the_session_survives() {
        let _serial = PANIC_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        let mut engine: SharedEngine<u32> = SharedEngine::new(32);
        engine.set_fingerprint_fn(fingerprint_or_panic);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, engine, &ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let n = 1 << 10;
        let p = families::random(n, 10);
        let h32 = client.register::<u32>(&p).unwrap();
        let h64 = client.register::<u64>(&p).unwrap();
        let srcs32: Vec<Vec<u32>> = (0..3).map(|k| (k..n as u32 + k).collect()).collect();
        let srcs64: Vec<Vec<u64>> = (0..3).map(|k| (k..n as u64 + k).collect()).collect();
        PANIC_ARMED.store(true, Ordering::SeqCst);
        let refusals = [
            client.permute_batch(&h32, &srcs32).map(drop),
            client.permute_batch(&h64, &srcs64).map(drop),
        ];
        PANIC_ARMED.store(false, Ordering::SeqCst);
        for refusal in refusals {
            match refusal {
                Err(crate::ClientError::Server { code, message }) => {
                    assert_eq!(code, ErrCode::Plan, "{message}");
                    assert!(message.contains("injected fingerprint panic"), "{message}");
                }
                other => panic!("expected ERR plan, got {other:?}"),
            }
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.submitted, 2, "one member per batch ran: {stats:?}");
        assert_eq!(stats.submitted, stats.completed, "{stats:?}");
        let outs = client.permute_batch(&h32, &srcs32).unwrap();
        for (src, out) in srcs32.iter().zip(&outs) {
            let mut want = vec![0u32; n];
            p.permute(src, &mut want).unwrap();
            assert_eq!(out, &want);
        }
        let stats = client.stats().unwrap();
        assert_eq!((stats.submitted, stats.completed), (5, 5), "{stats:?}");
    }

    /// A registration keeps the cached plan's own permutation, so two
    /// sessions that each decoded their own copy of one map end up
    /// holding one shared storage — the one the plan verifies against by
    /// pointer.
    #[test]
    fn sessions_share_the_cached_plans_permutation() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let p = families::random(1 << 10, 5);
        let register = |session: &mut Session| {
            let frame = Frame::Register {
                fingerprint: p.fingerprint(),
                n: p.len() as u64,
                elem_width: 4,
                perm: PermRepr::Index(p.as_slice().iter().map(|&d| d as u32).collect()),
            };
            match respond(&server.shared, session, frame, PROTOCOL_VERSION) {
                Frame::Registered { handle } => session.plans[&handle].perm.as_slice().as_ptr(),
                other => panic!("{other:?}"),
            }
        };
        let mut sessions: Vec<Session> = (0..2)
            .map(|_| Session {
                plans: HashMap::new(),
                next_handle: 1,
            })
            .collect();
        let first = register(&mut sessions[0]);
        let second = register(&mut sessions[1]);
        assert_eq!(first, second);
        let plan = server.shared.engine.plan(&p).unwrap();
        assert_eq!(plan.permutation().as_slice().as_ptr(), first);
        let stats = server.shared.engine.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }
}
