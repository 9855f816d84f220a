//! The four workloads: their inputs, their set-up, and the closed request
//! loops that drive them.

use crate::trace::Recorder;
use hmm_native::{PermutePlan, PlanIr, PlanStore, SharedEngine};
use hmm_perm::{families, Family, Permutation};
use hmm_server::{Client, Elem, PlanHandle};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Schedule width of every engine (the server's default too).
pub const WIDTH: usize = 32;
/// Outputs are checked on the first response per target and thread, then
/// on every `CHECK_EVERY`th response.
pub const CHECK_EVERY: u64 = 16;
/// In a traced run, every `PROBE_EVERY`th request is followed by probes.
pub const PROBE_EVERY: u64 = 16;
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HitRandom1m,
    HitStructured2t,
    Serve2c,
    MissChurn,
}

pub const ALL: [Kind; 4] = [
    Kind::HitRandom1m,
    Kind::HitStructured2t,
    Kind::Serve2c,
    Kind::MissChurn,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::HitRandom1m => "hit-random-1m",
            Kind::HitStructured2t => "hit-structured-2t",
            Kind::Serve2c => "serve-2c",
            Kind::MissChurn => "miss-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop callers: threads in process, connections for the server.
    pub fn threads(self) -> usize {
        match self {
            Kind::HitRandom1m | Kind::MissChurn => 1,
            Kind::HitStructured2t | Kind::Serve2c => 2,
        }
    }
}

/// splitmix64: the benchmark's own seeded generator for inputs and picks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One request target: a permutation chain (application order) and the
/// payload it is applied to, with the expected output.
pub struct Target<T> {
    pub chain: Vec<Permutation>,
    /// The chain's composite, which is what the engine caches.
    pub perm: Permutation,
    pub fingerprint: u64,
    pub src: Vec<T>,
    pub expected: Vec<T>,
}

pub enum AnyTarget {
    U32(Target<u32>),
    U64(Target<u64>),
}

impl AnyTarget {
    pub fn perm(&self) -> &Permutation {
        match self {
            AnyTarget::U32(t) => &t.perm,
            AnyTarget::U64(t) => &t.perm,
        }
    }
}

/// Element types the workloads use, with the per-type slots they need.
pub trait Typed: Elem {
    fn from_u64(v: u64) -> Self;
    fn engine(e: &Engines) -> &SharedEngine<Self>;
    fn dst(b: &mut Buffers) -> &mut Vec<Self>;
    fn handle(c: &Conn, target: usize) -> Option<&PlanHandle<Self>>;
    fn register(c: &mut Conn, target: usize, p: &Permutation) -> Result<(), String>;
    fn wrap(t: Target<Self>) -> AnyTarget;
}

impl Typed for u32 {
    fn from_u64(v: u64) -> Self {
        v as u32
    }
    fn engine(e: &Engines) -> &SharedEngine<Self> {
        &e.e32
    }
    fn dst(b: &mut Buffers) -> &mut Vec<Self> {
        &mut b.u32s
    }
    fn handle(c: &Conn, target: usize) -> Option<&PlanHandle<Self>> {
        c.h32.get(target)?.as_ref()
    }
    fn register(c: &mut Conn, target: usize, p: &Permutation) -> Result<(), String> {
        let h = c.client.register::<u32>(p).map_err(|e| e.to_string())?;
        slot(&mut c.h32, target).replace(h);
        Ok(())
    }
    fn wrap(t: Target<Self>) -> AnyTarget {
        AnyTarget::U32(t)
    }
}

impl Typed for u64 {
    fn from_u64(v: u64) -> Self {
        v
    }
    fn engine(e: &Engines) -> &SharedEngine<Self> {
        &e.e64
    }
    fn dst(b: &mut Buffers) -> &mut Vec<Self> {
        &mut b.u64s
    }
    fn handle(c: &Conn, target: usize) -> Option<&PlanHandle<Self>> {
        c.h64.get(target)?.as_ref()
    }
    fn register(c: &mut Conn, target: usize, p: &Permutation) -> Result<(), String> {
        let h = c.client.register::<u64>(p).map_err(|e| e.to_string())?;
        slot(&mut c.h64, target).replace(h);
        Ok(())
    }
    fn wrap(t: Target<Self>) -> AnyTarget {
        AnyTarget::U64(t)
    }
}

fn slot<H>(v: &mut Vec<Option<H>>, i: usize) -> &mut Option<H> {
    if v.len() <= i {
        v.resize_with(i + 1, || None);
    }
    &mut v[i]
}

fn target<T: Typed>(chain: Vec<Permutation>, seed: u64) -> AnyTarget {
    let refs: Vec<&Permutation> = chain.iter().collect();
    let perm = Permutation::compose_chain(&refs).expect("chains are non-empty and equal-length");
    let mut rng = Rng::new(seed);
    let src: Vec<T> = (0..perm.len()).map(|_| T::from_u64(rng.next())).collect();
    let mut expected = vec![T::default(); perm.len()];
    perm.permute(&src, &mut expected)
        .expect("payload length equals the permutation's");
    T::wrap(Target {
        fingerprint: perm.fingerprint(),
        chain,
        perm,
        src,
        expected,
    })
}

/// A `random_bmmc` permutation that the engine routes to the scheduled
/// sweeps. A few random matrices spread each warp over so few cache
/// lines that the engine picks the scatter route; drawing again keeps the
/// workload's route, and so its cost, the same for every seed.
fn scheduled_bmmc(n: usize, seed: u64) -> Permutation {
    let mut rng = Rng::new(seed);
    loop {
        let p = families::random_bmmc(n, rng.next()).expect("n is a power of two");
        if hmm_perm::distribution(&p, WIDTH) > hmm_native::plan::DEFAULT_GAMMA_THRESHOLD {
            return p;
        }
    }
}

/// The workload's targets, generated from `seed`. Generation is not part of
/// any measured time.
pub fn targets(kind: Kind, seed: u64) -> Vec<AnyTarget> {
    let mut rng = Rng::new(seed ^ 0x7461_7267_6574_7321);
    match kind {
        Kind::HitRandom1m => vec![target::<u32>(
            vec![families::random(1 << 20, seed)],
            rng.next(),
        )],
        Kind::HitStructured2t => {
            let n = 1 << 16;
            let bitrev = families::bit_reversal(n).expect("power of two");
            let transpose = Family::Transpose.build(n, 0).expect("power of two");
            let chains = [
                vec![bitrev.clone()],
                vec![transpose.clone()],
                vec![families::shuffle(n).expect("power of two")],
                vec![scheduled_bmmc(n, seed)],
                vec![bitrev, transpose],
            ];
            let mut out: Vec<AnyTarget> = chains
                .iter()
                .map(|c| target::<u32>(c.clone(), rng.next()))
                .collect();
            out.extend(chains.into_iter().map(|c| target::<u64>(c, rng.next())));
            out
        }
        Kind::Serve2c => {
            let n = 1 << 16;
            vec![
                target::<u32>(vec![families::random(n, seed)], rng.next()),
                target::<u64>(
                    vec![families::bit_reversal(n).expect("power of two")],
                    rng.next(),
                ),
            ]
        }
        Kind::MissChurn => {
            let n = 1 << 16;
            let mut out: Vec<AnyTarget> = (0..16)
                .map(|_| target::<u32>(vec![families::random(n, rng.next())], rng.next()))
                .collect();
            out.extend(
                (0..16).map(|_| target::<u32>(vec![scheduled_bmmc(n, rng.next())], rng.next())),
            );
            out
        }
    }
}

/// One engine per element type.
pub struct Engines {
    pub e32: SharedEngine<u32>,
    pub e64: SharedEngine<u64>,
}

impl Engines {
    pub fn new() -> Engines {
        Engines {
            e32: SharedEngine::new(WIDTH),
            e64: SharedEngine::new(WIDTH),
        }
    }

    /// Both engines' counters, summed.
    pub fn counts(&self) -> Counts {
        Counts::of_engine(&self.e32.stats()).plus(&Counts::of_engine(&self.e64.stats()))
    }
}

/// The plan-cache counters the per-layer ledger reports per request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub builds: f64,
    pub plans_structured: f64,
    pub store_hits: f64,
    pub scatter_runs: f64,
    pub scheduled_runs: f64,
}

impl Counts {
    pub fn of_engine(s: &hmm_native::EngineStats) -> Counts {
        Counts {
            hits: s.hits as f64,
            misses: s.misses as f64,
            evictions: s.evictions as f64,
            builds: s.builds as f64,
            plans_structured: s.plans_structured as f64,
            store_hits: s.store_hits as f64,
            scatter_runs: s.scatter_runs as f64,
            scheduled_runs: s.scheduled_runs as f64,
        }
    }

    /// The server's `STATS` frame does not carry evictions or per-route
    /// run counts; they stay 0 for the served workload.
    pub fn of_server(s: &hmm_server::ServerStats) -> Counts {
        Counts {
            hits: s.hits as f64,
            misses: s.misses as f64,
            builds: s.builds as f64,
            plans_structured: s.plans_structured as f64,
            store_hits: s.store_hits as f64,
            ..Counts::default()
        }
    }

    fn zip(&self, o: &Counts, f: impl Fn(f64, f64) -> f64) -> Counts {
        Counts {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            evictions: f(self.evictions, o.evictions),
            builds: f(self.builds, o.builds),
            plans_structured: f(self.plans_structured, o.plans_structured),
            store_hits: f(self.store_hits, o.store_hits),
            scatter_runs: f(self.scatter_runs, o.scatter_runs),
            scheduled_runs: f(self.scheduled_runs, o.scheduled_runs),
        }
    }

    pub fn plus(&self, o: &Counts) -> Counts {
        self.zip(o, |a, b| a + b)
    }

    pub fn minus(&self, o: &Counts) -> Counts {
        self.zip(o, |a, b| a - b)
    }

    pub fn per(&self, requests: f64) -> Counts {
        self.zip(self, |a, _| a / requests)
    }
}

/// One client connection with the handles it registered, by target index.
pub struct Conn {
    client: Client,
    h32: Vec<Option<PlanHandle<u32>>>,
    h64: Vec<Option<PlanHandle<u64>>>,
}

/// A spawned `hmm-server serve`, stopped and waited for on drop.
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerChild {
    fn spawn(bin: &Path) -> Result<ServerChild, String> {
        if !bin.is_file() {
            return Err(format!(
                "{} not found: build hmm-server first (cargo build --release -p hmm-server)",
                bin.display()
            ));
        }
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = ServerChild {
            child,
            stdout,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!(
                "hmm-server did not report LISTENING (got {line:?})"
            )),
        }
    }

    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drain through `conn`, then wait for the process to exit.
    fn drain(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.client.drain().map_err(|e| format!("drain: {e}"))?;
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).is_ok_and(|got| got > 0) {}
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("hmm-server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mib(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kib: f64 = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A directory removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(base: &Path, name: &str) -> Result<TempDir, String> {
        let dir = base.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload after set-up: the engines it calls, or the server and the
/// connections it calls through.
pub struct Live {
    pub engines: Engines,
    pub server: Option<ServerChild>,
    pub conns: Vec<Mutex<Conn>>,
    _store: Option<TempDir>,
}

impl Live {
    pub fn peak_rss_mib(&self) -> Option<f64> {
        match &self.server {
            Some(s) => s.peak_rss_mib(),
            None => vm_hwm_mib("/proc/self/status"),
        }
    }

    pub fn counts(&self) -> Result<Counts, String> {
        match self.conns.first() {
            Some(conn) => {
                let mut conn = conn
                    .lock()
                    .expect("no worker panicked holding a connection");
                let stats = conn.client.stats().map_err(|e| format!("stats: {e}"))?;
                Ok(Counts::of_server(&stats))
            }
            None => Ok(self.engines.counts()),
        }
    }

    /// Stop the server, if any, and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        match (self.server.take(), self.conns.first()) {
            (Some(server), Some(conn)) => {
                let mut conn = conn
                    .lock()
                    .expect("no worker panicked holding a connection");
                server.drain(&mut conn)
            }
            _ => Ok(()),
        }
    }
}

/// Fetch (or build) the engine's plan for a target, the way the request
/// path does: `plan` for one permutation, `plan_fused` for a chain.
pub fn plan_for<T: Typed>(
    engine: &SharedEngine<T>,
    t: &Target<T>,
) -> hmm_plan::Result<Arc<PermutePlan<T>>> {
    match t.chain.as_slice() {
        [p] => engine.plan(p),
        chain => engine.plan_fused(&chain.iter().collect::<Vec<_>>()),
    }
}

/// Put every target's plan into the engines' caches.
pub fn warm(engines: &Engines, targets: &[AnyTarget]) -> hmm_plan::Result<()> {
    for t in targets {
        match t {
            AnyTarget::U32(t) => plan_for(&engines.e32, t).map(drop)?,
            AnyTarget::U64(t) => plan_for(&engines.e64, t).map(drop)?,
        }
    }
    Ok(())
}

/// The program calls a workload makes before its warm-up: this is what
/// `setup_s` times.
pub fn setup(
    kind: Kind,
    targets: &[AnyTarget],
    server_bin: &Path,
    out: &Path,
) -> Result<Live, String> {
    let err = |e: hmm_plan::PlanError| e.to_string();
    match kind {
        Kind::HitRandom1m | Kind::HitStructured2t => {
            let engines = Engines::new();
            warm(&engines, targets).map_err(err)?;
            Ok(Live {
                engines,
                server: None,
                conns: Vec::new(),
                _store: None,
            })
        }
        Kind::MissChurn => {
            let dir = TempDir::new(out, "store-miss-churn")?;
            let store = PlanStore::open(&dir.0).map_err(err)?;
            // One shard, so which plans share a shard does not depend on
            // the fingerprint function, and 8 < 32 plans, so the cyclic
            // order misses on every request.
            let mut e32 = SharedEngine::with_shards(WIDTH, 1, 8);
            e32.set_store(store.clone());
            for t in &targets[..16] {
                let ir = PlanIr::build_par(t.perm(), WIDTH, hmm_native::par::worker_threads())
                    .map_err(err)?;
                store.save(&ir).map_err(err)?;
            }
            Ok(Live {
                engines: Engines {
                    e32,
                    e64: SharedEngine::new(WIDTH),
                },
                server: None,
                conns: Vec::new(),
                _store: Some(dir),
            })
        }
        Kind::Serve2c => {
            let server = ServerChild::spawn(server_bin)?;
            let mut conns = Vec::new();
            for _ in 0..kind.threads() {
                let client =
                    Client::connect(server.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
                let mut conn = Conn {
                    client,
                    h32: Vec::new(),
                    h64: Vec::new(),
                };
                for (i, t) in targets.iter().enumerate() {
                    match t {
                        AnyTarget::U32(t) => u32::register(&mut conn, i, &t.perm)?,
                        AnyTarget::U64(t) => u64::register(&mut conn, i, &t.perm)?,
                    }
                }
                conns.push(Mutex::new(conn));
            }
            Ok(Live {
                engines: Engines::new(),
                server: Some(server),
                conns,
                _store: None,
            })
        }
    }
}

/// Per-thread output buffers, reused across requests.
#[derive(Default)]
pub struct Buffers {
    u32s: Vec<u32>,
    u64s: Vec<u64>,
}

/// One request's outcome, as the loop sees it.
#[derive(Clone, Copy)]
pub struct Done {
    pub latency_ms: f64,
    /// `engine.plan` and `engine.run_plan` span lengths (traced, in process).
    pub split_ms: Option<(f64, f64)>,
}

/// A request's outcome and, in a traced run in process, the plan it ran.
type Issued<T> = (Done, Option<Arc<PermutePlan<T>>>);

/// One closed-loop caller: its connection (for the server), buffers,
/// spans and measurements.
struct Worker<'a> {
    live: &'a Live,
    kit: Option<&'a crate::probe::Kit>,
    conn: Option<MutexGuard<'a, Conn>>,
    bufs: Buffers,
    rec: Option<Recorder>,
    phase: Phase,
}

impl Worker<'_> {
    /// Issue request `seq` for target `ti`, record it, and follow it with
    /// probes when asked.
    fn request<T: Typed>(
        &mut self,
        seq: u64,
        ti: usize,
        t: &Target<T>,
        check: bool,
        probe: bool,
    ) -> Result<(), String> {
        let (done, plan) = self.issue(seq, ti, t, check)?;
        self.phase.latencies_ms.push(done.latency_ms);
        self.phase.splits_ms.extend(done.split_ms);
        self.phase.elements += t.perm.len() as u64;
        if let (true, Some(kit), Some(rec)) = (probe, self.kit, self.rec.as_mut()) {
            let start = Instant::now();
            let sample = crate::probe::run(kit, rec, seq, t, plan.as_deref(), done.split_ms)?;
            self.phase.probes.push(sample);
            self.phase.probe_s += start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Issue one request and check the output when asked. Returns the
    /// outcome, or an error message for a failed call or a wrong output.
    fn issue<T: Typed>(
        &mut self,
        request: u64,
        ti: usize,
        t: &Target<T>,
        check: bool,
    ) -> Result<Issued<T>, String> {
        let n = t.perm.len();
        let dst = T::dst(&mut self.bufs);
        dst.resize(n, T::default());
        if let Some(conn) = self.conn.as_deref_mut() {
            let handle = *T::handle(conn, ti).ok_or("target not registered on this connection")?;
            let start = Instant::now();
            let out = conn.client.permute(&handle, &t.src);
            let end = Instant::now();
            if let Some(rec) = self.rec.as_mut() {
                rec.record("request", (start, end), None, request, false);
            }
            let out = out.map_err(|e| e.to_string())?;
            if check && out != t.expected {
                return Err("served output differs from the expected permutation".into());
            }
            let done = Done {
                latency_ms: (end - start).as_secs_f64() * 1e3,
                split_ms: None,
            };
            return Ok((done, None));
        }
        let engine = T::engine(&self.live.engines);
        let (done, plan) = match self.rec.as_mut() {
            None => {
                let start = Instant::now();
                let out = match t.chain.as_slice() {
                    [p] => engine.permute(p, &t.src, dst),
                    chain => engine.permute_fused(&chain.iter().collect::<Vec<_>>(), &t.src, dst),
                };
                let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                out.map_err(|e| e.to_string())?;
                let done = Done {
                    latency_ms,
                    split_ms: None,
                };
                (done, None)
            }
            Some(rec) => {
                // The same work as `permute`/`permute_fused`, split into its
                // two calls so each gets a span.
                let top = rec.begin("request", request);
                let (plan, plan_ms) = rec.time("engine.plan", Some(top), request, false, || {
                    plan_for(engine, t)
                });
                let plan = plan.map_err(|e| e.to_string())?;
                let ((), run_ms) = rec.time("engine.run_plan", Some(top), request, false, || {
                    engine.run_plan(&plan, &t.src, dst)
                });
                let done = Done {
                    latency_ms: rec.end(top),
                    split_ms: Some((plan_ms, run_ms)),
                };
                (done, Some(plan))
            }
        };
        if check && *dst != t.expected {
            return Err("output differs from the expected permutation".into());
        }
        Ok((done, plan))
    }
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub splits_ms: Vec<(f64, f64)>,
    pub elements: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub wall_s: f64,
    /// Thread-seconds spent in probes (traced phases only).
    pub probe_s: f64,
    pub probes: Vec<crate::probe::Sample>,
    pub recorders: Vec<Recorder>,
}

impl Phase {
    fn merge(&mut self, o: Phase) {
        self.latencies_ms.extend(o.latencies_ms);
        self.splits_ms.extend(o.splits_ms);
        self.elements += o.elements;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.first_error = self.first_error.take().or(o.first_error);
        self.probe_s += o.probe_s;
        self.probes.extend(o.probes);
        self.recorders.extend(o.recorders);
    }

    /// Elements per second of request time: probe time is taken out, so a
    /// traced phase's rate is comparable with an untraced one.
    pub fn throughput_melem_s(&self, threads: usize) -> f64 {
        let busy = self.wall_s - self.probe_s / threads as f64;
        self.elements as f64 / busy / 1e6
    }
}

/// The closed loop: `kind.threads()` callers, each issuing its next
/// request when the previous one returns, for `duration` and at least
/// `min_requests` requests in all. With `kit`, the phase is traced and
/// every `PROBE_EVERY`th request is followed by probes.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    kind: Kind,
    targets: &[AnyTarget],
    live: &Live,
    kit: Option<&crate::probe::Kit>,
    duration: Duration,
    min_requests: u64,
    seed: u64,
    epoch: Instant,
) -> Phase {
    let threads = kind.threads();
    let start = Instant::now();
    let deadline = start + duration;
    let issued = &AtomicU64::new(0);
    let more = || Instant::now() < deadline || issued.load(Ordering::Relaxed) < min_requests;
    let mut total = Phase::default();
    std::thread::scope(|s| {
        let more = &more;
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                s.spawn(move || {
                    let mut w = Worker {
                        live,
                        kit,
                        conn: live
                            .conns
                            .get(thread)
                            .map(|c| c.lock().expect("no worker panicked holding a connection")),
                        bufs: Buffers::default(),
                        rec: kit.map(|_| Recorder::new(epoch, thread)),
                        phase: Phase::default(),
                    };
                    let mut rng = Rng::new(seed ^ (thread as u64 + 1).wrapping_mul(0x5851_f42d));
                    let mut seen = vec![false; targets.len()];
                    let mut seq = 0u64;
                    while more() {
                        issued.fetch_add(1, Ordering::Relaxed);
                        let ti = match kind {
                            Kind::HitRandom1m => 0,
                            Kind::MissChurn => seq as usize % targets.len(),
                            Kind::HitStructured2t | Kind::Serve2c => rng.below(targets.len()),
                        };
                        let check = !seen[ti] || seq.is_multiple_of(CHECK_EVERY);
                        seen[ti] = true;
                        let probe = kit.is_some() && seq.is_multiple_of(PROBE_EVERY);
                        w.phase.attempted += 1;
                        let outcome = match &targets[ti] {
                            AnyTarget::U32(t) => w.request(seq, ti, t, check, probe),
                            AnyTarget::U64(t) => w.request(seq, ti, t, check, probe),
                        };
                        if let Err(e) = outcome {
                            w.phase.failed += 1;
                            w.phase.first_error.get_or_insert(e);
                        }
                        seq += 1;
                    }
                    w.phase.wall_s = start.elapsed().as_secs_f64();
                    w.phase.recorders.extend(w.rec);
                    w.phase
                })
            })
            .collect();
        for h in handles {
            let phase = h.join().expect("request threads do not panic");
            let wall = phase.wall_s.max(total.wall_s);
            total.merge(phase);
            total.wall_s = wall;
        }
    });
    total
}
