//! A persistent worker pool with parked workers and barrier-style task
//! dispatch.
//!
//! The seed backend spawned (and joined) a fresh set of scoped OS threads
//! for **every pass of every run** — five spawn/join cycles per scheduled
//! permutation. This module replaces that with one set of long-lived
//! workers per process: dispatching a parallel job is a mutex lock, a
//! condvar broadcast, and an atomic task counter, with no thread creation
//! on the hot path.
//!
//! Dispatch model: a job is a closure `f(task_index)` plus a task count.
//! Workers (and the calling thread, which participates) claim task indices
//! from a shared atomic cursor until exhausted, so at most
//! [`WorkerPool::threads`] tasks run concurrently no matter how many tasks
//! a job has — a caller can submit thousands of small tasks without
//! thousands of threads existing (the seed's `par_chunks_mut_exact`
//! spawned one thread per chunk).
//!
//! Worker panics are caught, the first payload is kept, and the panic
//! resumes on the **calling** thread once the job drains; the workers
//! themselves survive and keep serving later jobs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Type-erased pointer to the job closure. The pool guarantees the
/// pointee outlives every dereference: [`WorkerPool::run`] does not return
/// until all claimed tasks have finished executing, and no worker
/// dereferences the pointer after the job's `completed` count reaches
/// `num_tasks`.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the pool's
// completion barrier bounds its lifetime as documented on `RawTask`.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One dispatched job: the closure, its task range, and completion state.
struct Job {
    task: RawTask,
    num_tasks: usize,
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    /// Tasks that have finished executing (panicked ones included).
    completed: AtomicUsize,
    /// Set when any task panicked.
    panicked: AtomicBool,
    /// First panic payload, resumed on the calling thread.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct State {
    /// Bumped per dispatched job so workers can tell "new job" from
    /// "the job I already drained".
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatching thread parks here until the job drains.
    done_cv: Condvar,
}

/// A persistent pool of `threads - 1` parked workers; the dispatching
/// thread is the final participant. See the module docs for the dispatch
/// protocol. Most code wants [`WorkerPool::global`]; tests build private
/// pools with [`WorkerPool::new`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Serializes dispatches: one job owns the workers at a time.
    run_lock: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

thread_local! {
    /// True while this thread is executing pool tasks (worker threads for
    /// their lifetime, the caller during a dispatch). A dispatch from such
    /// a thread would deadlock on `run_lock`, so nested `run` calls
    /// execute inline instead.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl WorkerPool {
    /// Build a pool with `threads` total participants (`threads - 1`
    /// workers are spawned; the dispatching thread is the last one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hmm-native-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            run_lock: Mutex::new(()),
            handles,
        }
    }

    /// The process-wide pool, created on first use with
    /// [`crate::par::worker_threads`] participants (the machine's
    /// available parallelism, or `HMM_NATIVE_THREADS`).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(crate::par::configured_threads()))
    }

    /// Total participants (workers + the dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0..num_tasks)` across the pool, returning when every task
    /// has finished. Tasks are claimed dynamically, so at most
    /// [`WorkerPool::threads`] run concurrently. Reentrant calls (from
    /// inside a task) and single-task jobs execute inline on the calling
    /// thread.
    ///
    /// # Panics
    /// If any task panics, the first payload is re-raised here after the
    /// job drains; the pool remains usable.
    pub fn run<F>(&self, num_tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if num_tasks == 0 {
            return;
        }
        if num_tasks == 1 || self.threads == 1 || IN_POOL.with(|c| c.get()) {
            for i in 0..num_tasks {
                f(i);
            }
            return;
        }
        let _guard = self.run_lock.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY (lifetime erasure): `job.task` points at `f`, which lives
        // until this function returns; the completion barrier below blocks
        // until every claimed task has finished, and tasks are the only
        // dereference sites.
        let erased: RawTask = unsafe {
            RawTask(std::mem::transmute::<
                &(dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(&f))
        };
        let job = Arc::new(Job {
            task: erased,
            num_tasks,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        });
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
            self.shared.work_cv.notify_all();
        }
        // The caller is a participant too.
        IN_POOL.with(|c| c.set(true));
        drain(&job);
        IN_POOL.with(|c| c.set(false));
        // Completion barrier.
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while job.completed.load(Ordering::Acquire) < num_tasks {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Drop the job so borrowed captures cannot outlive this call.
            st.job = None;
        }
        if job.panicked.load(Ordering::Acquire) {
            let payload = job
                .payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            match payload {
                Some(p) => std::panic::resume_unwind(p),
                None => panic!("worker thread panicked"),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claim and execute tasks from `job` until the cursor runs out.
fn drain(job: &Job) {
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.num_tasks {
            return;
        }
        // SAFETY: see `RawTask` — the pointee is alive until the job's
        // completion barrier releases, which cannot happen before this
        // task's `completed` increment below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.task.0)(i) }));
        if let Err(p) = result {
            job.panicked.store(true, Ordering::Release);
            let mut slot = job.payload.lock().unwrap_or_else(PoisonError::into_inner);
            slot.get_or_insert(p);
        }
        job.completed.fetch_add(1, Ordering::Release);
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|c| c.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job.clone() {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        drain(&job);
        // Wake the dispatcher if this worker finished the last task. The
        // lock round-trip makes the wakeup race-free against the
        // dispatcher's wait loop.
        if job.completed.load(Ordering::Acquire) >= job.num_tasks {
            let _st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reused_across_many_dispatches_without_spawning() {
        let pool = WorkerPool::new(3);
        let spawned_before = pool.handles.len();
        let total = AtomicUsize::new(0);
        for round in 1..=50usize {
            pool.run(round, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), (1..=50).sum::<usize>());
        assert_eq!(pool.handles.len(), spawned_before, "no new threads");
    }

    #[test]
    fn concurrency_never_exceeds_pool_threads() {
        let pool = WorkerPool::new(4);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(256, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(50));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn panic_propagates_with_payload_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 17 exploded");
        // The pool still works afterwards.
        let count = AtomicUsize::new(0);
        pool.run(32, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(4);
        let count = AtomicUsize::new(0);
        pool.run(8, |_| {
            // A task dispatching again must not deadlock on run_lock.
            WorkerPool::global().run(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn zero_tasks_is_a_noop_and_single_thread_pools_work() {
        let pool = WorkerPool::new(1);
        pool.run(0, |_| panic!("must not run"));
        let count = AtomicUsize::new(0);
        pool.run(10, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_dispatch_from_many_external_threads() {
        // Several non-pool threads hammer one pool with dispatches at
        // once: run_lock must serialize jobs without losing or double-
        // running tasks, and every dispatcher must see its own job drain.
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        const DISPATCHERS: usize = 6;
        const ROUNDS: usize = 25;
        const TASKS: usize = 64;
        std::thread::scope(|s| {
            for _ in 0..DISPATCHERS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        let before = total.load(Ordering::SeqCst);
                        pool.run(TASKS, |_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                        // This dispatcher's job fully drained before run
                        // returned (other dispatchers may add more).
                        assert!(total.load(Ordering::SeqCst) >= before + TASKS);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), DISPATCHERS * ROUNDS * TASKS);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
        assert!(WorkerPool::global().threads() >= 1);
    }
}
