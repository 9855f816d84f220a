//! Probes: after every sampled request of a traced run, the benchmark calls
//! each layer on its own, on the same inputs and plan, and records a span
//! per call. These spans, not the request's, give the per-layer numbers.

use crate::trace::Recorder;
use crate::workload::{plan_for, AnyTarget, Engines, Target, TempDir, Typed, WIDTH};
use hmm_native::{
    as_native_scheduled, copy_baseline, scatter_permute, KernelConfig, PermutePlan, PlanIr,
    PlanStore, Route, SharedEngine, StoreKey,
};
use hmm_server::proto::{bytes_to_elems, elems_to_bytes, Frame};
use hmm_server::{read_frame, write_frame};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What probes need besides the workload itself: a store holding every
/// target's plan, and mirror engines that hold every target's plan in
/// cache, so probing never disturbs the measured engine's cache or counters.
pub struct Kit {
    mirror: Engines,
    store: PlanStore,
    config: KernelConfig,
    /// `PlanIr::build_par` and `PlanStore::save` per target, in ms.
    pub builds_ms: Vec<f64>,
    pub saves_ms: Vec<f64>,
    _dir: TempDir,
}

impl Kit {
    pub fn build(targets: &[AnyTarget], out: &Path) -> Result<Kit, String> {
        let err = |e: hmm_plan::PlanError| e.to_string();
        let dir = TempDir::new(out, "probe-store")?;
        let store = PlanStore::open(&dir.0).map_err(err)?;
        let (mut builds_ms, mut saves_ms) = (Vec::new(), Vec::new());
        for t in targets {
            let start = Instant::now();
            let ir = PlanIr::build_par(t.perm(), WIDTH, hmm_native::par::worker_threads())
                .map_err(err)?;
            builds_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            store.save(&ir).map_err(err)?;
            saves_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        // One shard large enough for every target: probes always hit.
        let capacity = targets.len();
        let mut mirror = Engines {
            e32: SharedEngine::with_shards(WIDTH, 1, capacity),
            e64: SharedEngine::with_shards(WIDTH, 1, capacity),
        };
        mirror.e32.set_store(store.clone());
        mirror.e64.set_store(store.clone());
        crate::workload::warm(&mirror, targets).map_err(err)?;
        Ok(Kit {
            config: mirror.e32.kernel_config(),
            mirror,
            store,
            builds_ms,
            saves_ms,
            _dir: dir,
        })
    }
}

/// One probe round's measurements, in milliseconds unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// The probed request's own `engine.plan` and `engine.run_plan` (in
    /// process only).
    pub request_split: Option<(f64, f64)>,
    pub fingerprint: f64,
    pub verify: f64,
    pub distribution: f64,
    pub mirror_plan: f64,
    pub mirror_run_plan: f64,
    pub sweeps: Option<[f64; 3]>,
    pub scatter: f64,
    pub copy: f64,
    /// Time of the kernel the plan's route runs: the three sweeps, or the
    /// scatter pass.
    pub kernel: f64,
    /// Bytes that kernel moves, computed from n, element width, route and
    /// whether index maps are loaded.
    pub kernel_bytes: f64,
    pub copy_bytes: f64,
    pub submit_wait: f64,
    /// Request side, then reply side.
    pub elems_to_bytes: [f64; 2],
    pub bytes_to_elems: [f64; 2],
    pub request_encode: f64,
    pub request_decode: f64,
    pub arc_copy: f64,
    pub reply_encode: f64,
    pub reply_decode: f64,
    pub store_load: f64,
    pub codec_decode: f64,
    pub validate: f64,
    pub prepare: f64,
}

impl Sample {
    /// `plan`, `run_plan` of the request path: the request's own spans in
    /// process, the mirror engine's for the served workload.
    pub fn split(&self) -> (f64, f64) {
        self.request_split
            .unwrap_or((self.mirror_plan, self.mirror_run_plan))
    }
}

fn same<T: PartialEq>(got: &[T], want: &[T], layer: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{layer} output differs from the expected permutation"
        ))
    }
}

/// Probe every layer for target `t`. `plan` is the probed request's plan
/// (in process); otherwise the mirror engine's plan stands in.
pub fn run<T: Typed>(
    kit: &Kit,
    rec: &mut Recorder,
    request: u64,
    t: &Target<T>,
    plan: Option<&PermutePlan<T>>,
    request_split: Option<(f64, f64)>,
) -> Result<Sample, String> {
    macro_rules! probe {
        ($name:literal, $body:expr) => {
            rec.time($name, None, request, true, || $body)
        };
    }
    let p = &t.perm;
    let n = p.len();
    let payload_bytes = 2.0 * (n * T::WIDTH) as f64;
    let mut s = Sample {
        request_split,
        ..Sample::default()
    };
    let mut dst = vec![T::default(); n];

    (_, s.fingerprint) = probe!("perm.fingerprint", p.fingerprint());
    let engine = T::engine(&kit.mirror);
    let (mirror_plan, ms) = probe!("mirror.plan", plan_for(engine, t));
    s.mirror_plan = ms;
    let mirror_plan = mirror_plan.map_err(|e| e.to_string())?;
    let plan = plan.unwrap_or(&mirror_plan);
    (_, s.verify) = probe!("perm.verify", plan.permutation().as_slice() == p.as_slice());
    (_, s.distribution) = probe!("perm.distribution", hmm_perm::distribution(p, WIDTH));
    ((), s.mirror_run_plan) = probe!(
        "mirror.run_plan",
        engine.run_plan(&mirror_plan, &t.src, &mut dst)
    );
    same(&dst, &t.expected, "mirror.run_plan")?;

    if let Some(ns) = as_native_scheduled(plan) {
        let mut scratch = vec![T::default(); ns.scratch_len()];
        let start = Instant::now();
        let d = ns.run_sweeps_timed(&t.src, &mut dst, &mut scratch);
        let parent = rec.record(
            "kernel.sweeps",
            (start, Instant::now()),
            None,
            request,
            true,
        );
        let mut at = start;
        for (name, d) in ["kernel.sweep1", "kernel.sweep2", "kernel.sweep3"]
            .into_iter()
            .zip(d)
        {
            rec.record(name, (at, at + d), Some(parent), request, true);
            at += d;
        }
        same(&dst, &t.expected, "kernel.sweeps")?;
        let ms = d.map(|d| d.as_secs_f64() * 1e3);
        s.sweeps = Some(ms);
        s.kernel = ms.iter().sum();
        let maps = if ns.computed_index() {
            0.0
        } else {
            3.0 * 4.0 * n as f64
        };
        s.kernel_bytes = 3.0 * payload_bytes + maps;
    }
    ((), s.scatter) = probe!("kernel.scatter", scatter_permute(&t.src, p, &mut dst));
    same(&dst, &t.expected, "kernel.scatter")?;
    if plan.route() == Route::Scatter {
        s.kernel = s.scatter;
        // One pass over the payload plus the permutation's usize map.
        s.kernel_bytes = payload_bytes + 8.0 * n as f64;
    }
    ((), s.copy) = probe!("kernel.copy", copy_baseline(&t.src, &mut dst));
    s.copy_bytes = payload_bytes;

    // The served request path, one layer at a time: encode and decode the
    // request, hand the payload to the queue, encode and decode the reply.
    let (bytes, ms) = probe!("wire.elems_to_bytes", elems_to_bytes(&t.src));
    s.elems_to_bytes[0] = ms;
    let (frame, ms) = probe!("wire.request_encode", {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Permute {
                handle: 1,
                payload: bytes,
            },
        )
        .map(|()| buf)
    });
    s.request_encode = ms;
    let frame = frame.map_err(|e| e.to_string())?;
    let (decoded, ms) = probe!("wire.request_decode", read_frame(&mut Cursor::new(&frame)));
    s.request_decode = ms;
    let Ok(Frame::Permute { payload, .. }) = decoded else {
        return Err("request frame did not decode to PERMUTE".into());
    };
    let (elems, ms) = probe!("wire.bytes_to_elems", bytes_to_elems::<T>(&payload));
    s.bytes_to_elems[0] = ms;
    let elems = elems.ok_or("payload length is not a multiple of the width")?;
    let (src, ms) = probe!("wire.arc_copy", Arc::<[T]>::from(elems));
    s.arc_copy = ms;
    let (report, ms) = probe!(
        "queue.submit_wait",
        engine.submit(p, src, vec![T::default(); n]).wait()
    );
    s.submit_wait = ms;
    let report = report.map_err(|e| e.to_string())?;
    same(&report.dst, &t.expected, "queue.submit_wait")?;
    let (bytes, ms) = probe!("wire.elems_to_bytes", elems_to_bytes(&report.dst));
    s.elems_to_bytes[1] = ms;
    let (frame, ms) = probe!("wire.reply_encode", {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Permuted { payload: bytes }).map(|()| buf)
    });
    s.reply_encode = ms;
    let frame = frame.map_err(|e| e.to_string())?;
    let (decoded, ms) = probe!("wire.reply_decode", read_frame(&mut Cursor::new(&frame)));
    s.reply_decode = ms;
    let Ok(Frame::Permuted { payload }) = decoded else {
        return Err("reply frame did not decode to PERMUTED".into());
    };
    let (elems, ms) = probe!("wire.bytes_to_elems", bytes_to_elems::<T>(&payload));
    s.bytes_to_elems[1] = ms;
    same(
        &elems.ok_or("reply length is not a multiple of the width")?,
        &t.expected,
        "wire",
    )?;

    // The miss path's tier-2 steps.
    let key = StoreKey {
        fingerprint: t.fingerprint,
        n,
        width: WIDTH,
    };
    let (loaded, ms) = probe!("store.load", kit.store.load(&key));
    s.store_load = ms;
    loaded
        .map_err(|e| e.to_string())?
        .ok_or("the probe store lost a plan")?;
    let file = std::fs::read(kit.store.path_for(&key)).map_err(|e| e.to_string())?;
    let (ir, ms) = probe!("codec.decode", hmm_plan::decode(&file));
    s.codec_decode = ms;
    let ir = ir.map_err(|e| e.to_string())?;
    let (valid, ms) = probe!("plan.validate", ir.validate());
    s.validate = ms;
    valid.map_err(|e| e.to_string())?;
    let (prepared, ms) = probe!(
        "native.prepare",
        PermutePlan::<T>::from_ir_with(&ir, kit.config)
    );
    s.prepare = ms;
    prepared.map_err(|e| e.to_string())?;
    Ok(s)
}
