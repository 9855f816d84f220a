//! The server: a thread-per-connection accept loop draining into one
//! engine's submission queue.
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
//! * `PERMUTE`/`PERMUTE_BATCH` route through
//!   [`SharedEngine::submit`]/[`submit_batch`] — the same bounded MPMC
//!   queue, backpressure, and panic isolation every in-process caller
//!   gets. A frame is read *completely* before anything is submitted,
//!   so a client dying mid-payload can never strand a queue slot: the
//!   partial frame surfaces as an I/O error and the handler just reaps
//!   the connection.
//! * `DRAIN` (or [`Server::drain`]) stops the accept loop, waits for
//!   `submitted == completed + cancelled` on the engine, then answers
//!   `DRAIN_OK` and closes. Over the wire it is honoured only from a
//!   loopback peer; any other peer gets a typed `ERR unsupported` and
//!   its session keeps serving.
//!
//! [`SharedEngine::submit`]: hmm_native::SharedEngine::submit
//! [`submit_batch`]: hmm_native::SharedEngine::submit_batch

use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hmm_native::{JobError, SharedEngine};
use hmm_perm::{Bmmc, Permutation};
use hmm_plan::{fnv1a_update, FNV_OFFSET, FNV_PRIME};

use crate::admission::AdmissionConfig;
use crate::framing::{read_frame_versioned, write_frame, write_frame_versioned};
use crate::proto::{
    bytes_to_elems, elems_to_bytes, Elem, ErrCode, Frame, PermRepr, ProtoError, ServerStats,
    MAX_BMMC_BITS, PROTOCOL_VERSION,
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
    /// how long a handler thread can be held by one silent peer.
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
            cancelled: e.cancelled,
            admission_rejects: e.admission_rejects,
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            conn_rejects: self.conn_rejects.load(Ordering::Relaxed),
            registered_plans: self.registered_plans.load(Ordering::Relaxed),
            active_clients: self.active_clients.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, then block until the engine queue has fully
    /// flushed (`submitted == completed + cancelled`). Idempotent; safe
    /// to call from a handler thread (it joins the *accept* thread, not
    /// itself). Does NOT signal [`Server::wait_drained`] — callers do
    /// that via [`Shared::mark_drained`] once any pending `DRAIN_OK`
    /// reply is on the wire, so a `serve` process cannot exit between
    /// the flush and the acknowledgement.
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
        self.engine.drain();
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
        let addr = listener.local_addr()?;
        let engine: SharedEngine<u32> = match &config.store_dir {
            Some(dir) => {
                SharedEngine::with_store(config.width, dir.clone()).map_err(ServerError::Plan)?
            }
            None => SharedEngine::new(config.width),
        };
        let shared = Arc::new(Shared {
            addr,
            engine_u64: engine.view(),
            engine,
            admission: config.admission,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            draining: AtomicBool::new(false),
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

    /// Graceful shutdown: stop accepting, flush the queue, then
    /// return. Equivalent to a client sending `DRAIN`.
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
    perm: Arc<Permutation>,
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

fn session_loop(shared: Arc<Shared>, stream: TcpStream) {
    let mut session = Session {
        plans: HashMap::new(),
        next_handle: 1,
    };
    let may_drain = stream.peer_addr().is_ok_and(drain_allowed);
    // The read timeout is a socket-level option, shared with the clone
    // below; a tripped timeout surfaces from `read_frame` as an I/O
    // error with `WouldBlock`/`TimedOut` (platform-dependent which).
    if let Some(t) = shared.idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared.active_clients.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    // Every reply goes out in the protocol version of the frame it
    // answers; errors raised before a frame decodes use the version the
    // session last spoke.
    let mut version = PROTOCOL_VERSION;

    loop {
        let frame = match read_frame_versioned(&mut reader) {
            Ok((f, v)) => {
                version = v;
                f
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
            // mid-payload). Nothing was submitted for a partial frame —
            // frames are fully read before dispatch — so there is no
            // queue slot to reap; just release the session.
            Err(ProtoError::Closed) | Err(ProtoError::Io { .. }) => break,
            // Stream-level corruption: the byte stream can no longer be
            // trusted to be frame-aligned. Diagnose, then close.
            Err(
                e @ (ProtoError::BadMagic
                | ProtoError::BadVersion { .. }
                | ProtoError::ChecksumMismatch { .. }
                | ProtoError::Oversized { .. }),
            ) => {
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
            // Body-level violation: the frame was fully consumed, the
            // stream is still aligned — diagnose and keep serving.
            Err(e) => {
                if write_frame_versioned(
                    &mut writer,
                    &Frame::Err {
                        code: ErrCode::Malformed,
                        message: e.to_string(),
                    },
                    version,
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
        };

        // DRAIN is special-cased so the `DRAIN_OK` is flushed to the
        // socket *before* `wait_drained` waiters (e.g. the `serve`
        // binary's main thread) can exit the process. A DRAIN from a
        // non-loopback peer falls through to `respond`'s refusal.
        if may_drain && matches!(frame, Frame::Drain) {
            shared.flush_for_drain();
            let _ = write_frame_versioned(&mut writer, &Frame::DrainOk, version);
            shared.mark_drained();
            break;
        }

        let reply = respond(&shared, &mut session, frame, version);
        if write_frame_versioned(&mut writer, &reply, version).is_err() {
            break;
        }
    }

    shared
        .registered_plans
        .fetch_sub(session.plans.len() as u64, Ordering::Relaxed);
    shared.active_clients.fetch_sub(1, Ordering::Relaxed);
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
        Frame::Permute { handle, payload } => {
            permute(shared, session, handle, vec![payload], false)
        }
        Frame::PermuteBatch { handle, payloads } => {
            permute(shared, session, handle, payloads, true)
        }
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
    if let Err(e) = shared.engine.plan(&p) {
        return err(ErrCode::Plan, e.to_string());
    }

    let handle = session.next_handle;
    session.next_handle += 1;
    session.plans.insert(
        handle,
        Registered {
            perm: Arc::new(p),
            elem_width,
        },
    );
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

fn permute(
    shared: &Shared,
    session: &mut Session,
    handle: u64,
    payloads: Vec<Vec<u8>>,
    batch: bool,
) -> Frame {
    if shared.draining.load(Ordering::SeqCst) {
        return err(ErrCode::Draining, "server is draining");
    }
    let registered = match session.plans.get(&handle) {
        Some(r) => r,
        None => {
            return err(
                ErrCode::UnknownHandle,
                format!("handle {handle} is not registered on this connection"),
            )
        }
    };
    if let Err(e) = shared.admission.admit_jobs(payloads.len()) {
        shared.engine.note_admission_reject();
        return err(e.code(), e.to_string());
    }

    let perm = Arc::clone(&registered.perm);
    let outcome = if registered.elem_width == 4 {
        run_jobs::<u32>(&shared.engine, &perm, payloads)
    } else {
        run_jobs::<u64>(&shared.engine_u64, &perm, payloads)
    };
    match outcome {
        Ok(mut outputs) => {
            if batch {
                Frame::PermutedBatch { payloads: outputs }
            } else {
                Frame::Permuted {
                    payload: outputs.pop().unwrap_or_default(),
                }
            }
        }
        Err((code, msg)) => err(code, msg),
    }
}

fn job_err(e: JobError) -> (ErrCode, String) {
    (ErrCode::Plan, format!("job failed: {e}"))
}

/// Decode payloads, route them through the engine's submission queue,
/// and re-encode the outputs. The queue path — not a direct `permute`
/// call — so network tenants share backpressure, stats, and panic
/// isolation with every in-process submitter.
fn run_jobs<T: Elem>(
    engine: &SharedEngine<T>,
    perm: &Permutation,
    payloads: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>, (ErrCode, String)> {
    let n = perm.len();
    let mut srcs: Vec<Vec<T>> = Vec::with_capacity(payloads.len());
    for (i, bytes) in payloads.iter().enumerate() {
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
        srcs.push(bytes_to_elems::<T>(bytes).expect("length checked above"));
    }

    if srcs.len() == 1 {
        let src = srcs.pop().expect("len == 1");
        let report = engine
            .submit(perm, src, vec![T::default(); n])
            .wait()
            .map_err(job_err)?;
        return Ok(vec![elems_to_bytes(&report.dst)]);
    }

    let jobs: Vec<(Arc<[T]>, Vec<T>)> = srcs
        .into_iter()
        .map(|s| (Arc::from(s), vec![T::default(); n]))
        .collect();
    let reports = engine.submit_batch(perm, jobs).wait();
    let mut outputs = Vec::with_capacity(reports.len());
    for report in reports {
        outputs.push(elems_to_bytes(&report.map_err(job_err)?.dst));
    }
    Ok(outputs)
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
}
