//! Bounded MPMC job queue and completion handles for the engine's
//! queued-submission API.
//!
//! The paper's scheduled algorithm wins by keeping every round of memory
//! access busy; the host-side analogue is keeping the worker pool
//! saturated. The blocking [`SharedEngine::permute`] front door cannot do
//! that on its own — one slow submitter (or one caller stuck inside a
//! König build) idles the pool. This module supplies the decoupling
//! layer: [`SharedEngine::submit`] enqueues a job on a **bounded MPMC
//! queue** and returns a [`JobHandle`] immediately; dedicated queue
//! workers drain the queue, resolve the plan (cache → store → build,
//! under the engine's single-flight machinery), execute across the
//! persistent worker pool, and resolve the handle. Waiters never hang: a
//! build error, a worker panic, or an engine shutdown all resolve the
//! handle with a [`JobError`].
//!
//! Lifecycle of one job (see DESIGN.md §3 for the full diagram):
//!
//! ```text
//! submit ──▶ Queued ──▶ Running ──▶ Done(Ok | Err) ──▶ Taken
//!               │                        ▲
//!               └── cancel() ─▶ Cancelled│  (wait / try_wait)
//! ```
//!
//! `Queued → Cancelled` is the only transition a caller can force;
//! everything after `Running` is owned by the executing worker. The
//! bounded queue gives natural backpressure: `submit` blocks while the
//! queue is at capacity, and unblocks as workers drain it — so a burst of
//! submitters cannot exhaust memory, and the stress suite proves the
//! full/empty condvar handoff never deadlocks.
//!
//! One queue serves every element type on an engine core: jobs are
//! type-erased (`Job`) on the way in, and each carries the scratch pool
//! of the typed handle that submitted it.
//!
//! [`SharedEngine::permute`]: crate::plan::SharedEngine::permute
//! [`SharedEngine::submit`]: crate::plan::SharedEngine::submit

use crate::plan::EngineCore;
use crate::scratch::ScratchPool;
use crate::stats::AtomicStats;
use hmm_backend::Route;
use hmm_perm::Permutation;
use hmm_plan::PlanError;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Default capacity of the bounded submission queue (jobs waiting to be
/// claimed; in-flight jobs do not count). Small enough that a runaway
/// submitter feels backpressure, large enough that a dispatcher can stay
/// ahead of the workers.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Why a queued job did not produce a [`JobReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Plan resolution failed on the worker side (build error, store
    /// error, unsupported size). The same error the blocking
    /// [`permute`](crate::plan::SharedEngine::permute) would have
    /// returned — surfaced through the handle instead of hanging it.
    Plan(PlanError),
    /// The job was cancelled (via [`JobHandle::cancel`] or
    /// [`BatchHandle::cancel`]) before a worker began executing it.
    Cancelled,
    /// The worker panicked while resolving or running the job; the
    /// payload's message is preserved. The handle resolves instead of
    /// stranding its waiter, and the queue workers keep serving.
    Panicked(String),
    /// The engine shut down (every handle to it was dropped) before the
    /// job was executed.
    ShutDown,
    /// The result was already taken by an earlier `wait`/`try_wait` on
    /// this handle.
    AlreadyRetrieved,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Plan(e) => write!(f, "plan resolution failed: {e}"),
            JobError::Cancelled => write!(f, "job cancelled before it started"),
            JobError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            JobError::ShutDown => write!(f, "engine shut down before the job ran"),
            JobError::AlreadyRetrieved => write!(f, "job result already retrieved"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for JobError {
    fn from(e: PlanError) -> Self {
        JobError::Plan(e)
    }
}

/// What a completed job hands back through [`JobHandle::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport<T> {
    /// The permuted output buffer (`dst[P[i]] = src[i]`), returned to the
    /// submitter.
    pub dst: Vec<T>,
    /// The route (scatter or scheduled) the plan executed with.
    pub route: Route,
}

/// Where a job is in its life. See the module docs for the transitions.
enum Phase<T> {
    /// In the queue; cancellable.
    Queued,
    /// Claimed by a worker; no longer cancellable.
    Running,
    /// Resolved; the outcome waits for `wait`/`try_wait`.
    Done(Result<JobReport<T>, JobError>),
    /// Outcome handed to a waiter.
    Taken,
    /// Cancelled while still queued; the worker that pops it skips it.
    Cancelled,
}

/// Shared completion state between a [`JobHandle`] and the worker that
/// executes the job.
pub(crate) struct JobState<T> {
    phase: Mutex<Phase<T>>,
    cv: Condvar,
}

impl<T> JobState<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(JobState {
            phase: Mutex::new(Phase::Queued),
            cv: Condvar::new(),
        })
    }

    /// Worker-side claim: `Queued → Running`. Returns `false` when the
    /// job was cancelled first (the worker must skip it).
    pub(crate) fn begin(&self) -> bool {
        let mut ph = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        match *ph {
            Phase::Queued => {
                *ph = Phase::Running;
                true
            }
            Phase::Cancelled => false,
            // Queued/Cancelled are the only phases a popped job can be in.
            _ => unreachable!("job claimed twice"),
        }
    }

    /// Worker-side resolution: publish the outcome and wake every waiter.
    /// The caller must bump the engine's `completed` counter **before**
    /// calling this, so a waiter that wakes immediately already sees the
    /// job accounted for.
    pub(crate) fn finish(&self, outcome: Result<JobReport<T>, JobError>) {
        let mut ph = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        *ph = Phase::Done(outcome);
        self.cv.notify_all();
    }

    /// Caller-side cancellation: `Queued → Cancelled`. Returns whether
    /// this call won (the job had not started).
    ///
    /// The `cancelled` counter is bumped **under the phase lock, before
    /// the notify** — mirroring the count-before-`finish` rule on the
    /// completion path — so any waiter that wakes on the `Cancelled`
    /// phase (and any drainer whose `begin` loses to this cancel)
    /// already sees the job accounted for in the stats. Counting after
    /// the lock dropped (the previous layout) left a window where a
    /// woken waiter could observe `submitted > completed + cancelled`.
    fn cancel(&self, stats: &AtomicStats) -> bool {
        let mut ph = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        match *ph {
            Phase::Queued => {
                *ph = Phase::Cancelled;
                stats.cancelled.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_all();
                true
            }
            _ => false,
        }
    }
}

/// One enqueued job: the permutation, the buffers, the shared state its
/// handle waits on, and the submitting handle's scratch pool.
pub(crate) struct QueuedJob<T> {
    /// The permutation to apply: a clone sharing the submitter's storage
    /// (O(1)), so the drainer plans with the very object the submitter
    /// passed and its memoized fingerprint.
    pub(crate) p: Permutation,
    /// Input, shared so many jobs can read one source cheaply.
    pub(crate) src: Arc<[T]>,
    /// Output buffer, moved back out through the [`JobReport`].
    pub(crate) dst: Vec<T>,
    /// Completion state shared with the handle.
    pub(crate) state: Arc<JobState<T>>,
    /// Scratch of the handle that submitted the job, so a drainer never
    /// borrows a buffer of another element type.
    pub(crate) scratch: Arc<ScratchPool<T>>,
}

/// A queued job with its element type erased, so one queue and one set
/// of drainers serve every typed handle on a core.
pub(crate) trait Job: Send {
    /// Execute the job on `core`, or — when the engine is gone (`None`) —
    /// resolve its handle with [`JobError::ShutDown`].
    fn run(self: Box<Self>, core: Option<Arc<EngineCore>>, stats: &AtomicStats);
}

/// What the submission queue holds.
pub(crate) type ErasedJob = Box<dyn Job>;

impl<T> QueuedJob<T> {
    /// Resolve the job without executing it — used when the engine is
    /// gone before the job ran. Cancelled jobs stay cancelled (and were
    /// already counted by `cancel()`); everything else counts as
    /// completed *before* waiters are notified, keeping the
    /// `submitted == completed + cancelled` invariant observable from
    /// any resolved handle.
    pub(crate) fn resolve_shutdown(self, stats: &AtomicStats) {
        if self.state.begin() {
            stats.completed.fetch_add(1, Ordering::Relaxed);
            self.state.finish(Err(JobError::ShutDown));
        }
    }
}

/// Completion handle for one queued job, returned by
/// [`SharedEngine::submit`](crate::plan::SharedEngine::submit).
///
/// The handle is independent of the engine: it stays valid (and `wait`
/// stays guaranteed to return) even if every engine handle is dropped —
/// pending jobs then resolve with [`JobError::ShutDown`].
pub struct JobHandle<T> {
    state: Arc<JobState<T>>,
    stats: Arc<AtomicStats>,
    id: u64,
}

impl<T> JobHandle<T> {
    pub(crate) fn new(state: Arc<JobState<T>>, stats: Arc<AtomicStats>, id: u64) -> Self {
        JobHandle { state, stats, id }
    }

    /// Engine-unique id of this job, in submission order.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cancellation. Succeeds (returns `true`) only while the job
    /// is still queued; a job a worker has begun runs to completion.
    /// On success the handle resolves immediately with
    /// [`JobError::Cancelled`] and the engine counts it in
    /// [`EngineStats::cancelled`](crate::EngineStats::cancelled).
    pub fn cancel(&self) -> bool {
        self.state.cancel(&self.stats)
    }

    /// True once the job has resolved (completed, failed, or cancelled) —
    /// a `wait` would return without blocking.
    pub fn is_finished(&self) -> bool {
        let ph = self
            .state
            .phase
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        !matches!(*ph, Phase::Queued | Phase::Running)
    }

    /// Block until the job resolves and take its outcome. Never hangs: a
    /// worker-side build error resolves the handle with
    /// [`JobError::Plan`], a worker panic with [`JobError::Panicked`],
    /// cancellation with [`JobError::Cancelled`], and an engine dropped
    /// with the job still queued with [`JobError::ShutDown`].
    pub fn wait(self) -> Result<JobReport<T>, JobError> {
        let mut ph = self
            .state
            .phase
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*ph {
                Phase::Queued | Phase::Running => {
                    ph = self
                        .state
                        .cv
                        .wait(ph)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Phase::Cancelled => return Err(JobError::Cancelled),
                Phase::Taken => return Err(JobError::AlreadyRetrieved),
                Phase::Done(_) => {
                    let done = std::mem::replace(&mut *ph, Phase::Taken);
                    match done {
                        Phase::Done(outcome) => return outcome,
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    /// Non-blocking poll: `None` while the job is queued or running; the
    /// outcome once it resolves. The first successful poll takes the
    /// report; later polls return [`JobError::AlreadyRetrieved`].
    pub fn try_wait(&self) -> Option<Result<JobReport<T>, JobError>> {
        let mut ph = self
            .state
            .phase
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &*ph {
            Phase::Queued | Phase::Running => None,
            Phase::Cancelled => Some(Err(JobError::Cancelled)),
            Phase::Taken => Some(Err(JobError::AlreadyRetrieved)),
            Phase::Done(_) => {
                let done = std::mem::replace(&mut *ph, Phase::Taken);
                match done {
                    Phase::Done(outcome) => Some(outcome),
                    _ => unreachable!(),
                }
            }
        }
    }
}

/// Completion handle for a whole
/// [`submit_batch`](crate::plan::SharedEngine::submit_batch): one
/// [`JobHandle`] per member, in submission order.
pub struct BatchHandle<T> {
    handles: Vec<JobHandle<T>>,
}

impl<T> BatchHandle<T> {
    pub(crate) fn new(handles: Vec<JobHandle<T>>) -> Self {
        BatchHandle { handles }
    }

    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Cancel every not-yet-started member; returns how many were
    /// cancelled (members already running finish normally).
    pub fn cancel(&self) -> usize {
        self.handles.iter().filter(|h| h.cancel()).count()
    }

    /// Block until every member resolves; outcomes in submission order.
    pub fn wait(self) -> Vec<Result<JobReport<T>, JobError>> {
        self.handles.into_iter().map(JobHandle::wait).collect()
    }

    /// Split into the individual member handles.
    pub fn into_handles(self) -> Vec<JobHandle<T>> {
        self.handles
    }
}

/// Bounded MPMC queue: blocking `push` (backpressure) and blocking `pop`,
/// with a `close` that drains cleanly — after close, pushes are refused
/// but already-queued jobs are still popped, and `pop` returns `None`
/// only once the queue is both closed and empty.
pub(crate) struct Bounded<J> {
    state: Mutex<BoundedState<J>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

struct BoundedState<J> {
    items: VecDeque<J>,
    closed: bool,
}

impl<J> Bounded<J> {
    pub(crate) fn new(cap: usize) -> Self {
        Bounded {
            state: Mutex::new(BoundedState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue, blocking while the queue is at capacity. Returns the job
    /// back on a closed queue so the caller can resolve its handle.
    pub(crate) fn push(&self, job: J) -> Result<(), J> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.closed {
                return Err(job);
            }
            if st.items.len() < self.cap {
                st.items.push_back(job);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeue, blocking while the queue is empty. `None` means the queue
    /// is closed **and** drained — the worker should exit.
    pub(crate) fn pop(&self) -> Option<J> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuse new pushes and wake every blocked pusher and popper.
    /// Already-queued jobs remain poppable.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Jobs currently waiting (not counting in-flight ones).
    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// The queue's fixed capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn bounded_fifo_push_pop() {
        let q: Bounded<u32> = Bounded::new(4);
        assert_eq!(q.capacity(), 4);
        for v in 0..4 {
            q.push(v).unwrap();
        }
        assert_eq!(q.len(), 4);
        for v in 0..4 {
            assert_eq!(q.pop(), Some(v));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn bounded_backpressure_blocks_then_unblocks() {
        let q: Bounded<u32> = Bounded::new(2);
        q.push(0).unwrap();
        q.push(1).unwrap();
        let progressed = AtomicUsize::new(0);
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                q.push(2).unwrap(); // blocks until the main thread pops
                progressed.store(1, Ordering::SeqCst);
            });
            gate.wait();
            // The pusher is (very likely) parked on not_full now; give it
            // a moment, then prove a pop releases it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(progressed.load(Ordering::SeqCst), 0, "cap must hold");
            assert_eq!(q.pop(), Some(0));
        });
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn bounded_close_drains_then_ends() {
        let q: Bounded<u32> = Bounded::new(8);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8), "closed queue refuses new jobs");
        assert_eq!(q.pop(), Some(7), "queued jobs still drain after close");
        assert_eq!(q.pop(), None, "closed + empty ends the worker loop");
    }

    #[test]
    fn bounded_close_wakes_blocked_poppers() {
        let q: std::sync::Arc<Bounded<u32>> = std::sync::Arc::new(Bounded::new(2));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn mpmc_every_item_delivered_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 200;
        let q: Bounded<usize> = Bounded::new(4); // small: force backpressure
        let seen: Vec<AtomicUsize> = (0..PRODUCERS * PER_PRODUCER)
            .map(|_| AtomicUsize::new(0))
            .collect();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).unwrap();
                    }
                });
            }
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let q = &q;
                    let seen = &seen;
                    s.spawn(move || {
                        while let Some(v) = q.pop() {
                            seen[v].fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            // Producers are scoped: wait for them by closing after their
            // pushes land. Closing requires all pushes done, so spawn a
            // closer that joins via a second scope-free mechanism: just
            // count deliveries instead.
            loop {
                let delivered: usize = seen.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                if delivered == PRODUCERS * PER_PRODUCER {
                    break;
                }
                std::thread::yield_now();
            }
            q.close();
            for c in consumers {
                c.join().unwrap();
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn job_state_cancel_beats_begin_and_loses_after() {
        let stats = AtomicStats::default();
        let st: Arc<JobState<u32>> = JobState::new();
        assert!(st.cancel(&stats), "queued job is cancellable");
        assert!(!st.begin(), "worker must skip a cancelled job");
        assert!(!st.cancel(&stats), "second cancel loses");
        assert_eq!(stats.cancelled.load(Ordering::Relaxed), 1);

        let st: Arc<JobState<u32>> = JobState::new();
        assert!(st.begin(), "queued job is claimable");
        assert!(!st.cancel(&stats), "running job is not cancellable");
        assert_eq!(stats.cancelled.load(Ordering::Relaxed), 1);
        st.finish(Ok(JobReport {
            dst: vec![1, 2, 3],
            route: Route::Scatter,
        }));
    }

    /// The cancel-vs-drainer race, pinned deterministically at the seam:
    /// the drainer has already *dequeued* the job (it is out of the
    /// `Bounded` queue, so queue-level bookkeeping can no longer see it)
    /// but has not yet claimed it with `begin` when the cancel lands.
    /// The cancel must win, the drainer must skip the carcass, and —
    /// the window this test pins — a waiter that wakes on the
    /// `Cancelled` phase must already observe the `cancelled` counter,
    /// so `submitted == completed + cancelled` holds at every moment a
    /// resolved handle is observable.
    #[test]
    fn cancel_racing_a_drainer_that_already_dequeued_stays_balanced() {
        use hmm_perm::Permutation;

        let stats = Arc::new(AtomicStats::default());
        let q: Bounded<QueuedJob<u32>> = Bounded::new(4);
        let state: Arc<JobState<u32>> = JobState::new();
        let src: Arc<[u32]> = vec![0u32; 4].into();
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        let pushed = q.push(QueuedJob {
            p: Permutation::identity(4),
            src,
            dst: vec![0u32; 4],
            state: Arc::clone(&state),
            scratch: Arc::new(ScratchPool::new()),
        });
        assert!(pushed.is_ok());

        // Drainer side, step 1: the job leaves the queue…
        let job = q.pop().expect("the queued job");
        assert_eq!(q.len(), 0, "job is out of the queue, not yet claimed");

        // …and before the drainer claims it, a waiter parks on the
        // handle and the caller cancels. The waiter asserts the counter
        // the *instant* `wait` resolves — pre-fix, the count landed
        // after the notify and this assert was a race.
        let handle = JobHandle::new(Arc::clone(&state), Arc::clone(&stats), 0);
        let waiter = std::thread::spawn({
            let stats = Arc::clone(&stats);
            move || {
                let outcome = handle.wait();
                assert!(matches!(outcome, Err(JobError::Cancelled)));
                let (submitted, completed, cancelled) = (
                    stats.submitted.load(Ordering::Relaxed),
                    stats.completed.load(Ordering::Relaxed),
                    stats.cancelled.load(Ordering::Relaxed),
                );
                assert_eq!(
                    submitted,
                    completed + cancelled,
                    "woken waiter observed an unbalanced ledger"
                );
            }
        });
        assert!(
            state.cancel(&stats),
            "cancel must win against a dequeued-but-unclaimed job"
        );
        waiter.join().unwrap();

        // Drainer side, step 2: the claim loses and the job is skipped —
        // exactly once, with no second count from the skip.
        assert!(!job.state.begin(), "drainer must skip the cancelled job");
        drop(job);
        assert_eq!(stats.cancelled.load(Ordering::Relaxed), 1);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn job_error_display_and_source() {
        let e = JobError::Panicked("boom".into());
        assert!(e.to_string().contains("boom"));
        let p = JobError::Plan(PlanError::UnsupportedSize {
            n: 96,
            reason: "not schedulable",
        });
        assert!(std::error::Error::source(&p).is_some());
        assert!(std::error::Error::source(&JobError::Cancelled).is_none());
        assert_ne!(JobError::Cancelled, JobError::ShutDown);
    }
}

/// Property tests: arbitrary interleavings of submit / cancel / try_wait
/// / wait across random permutations must (a) keep the counter invariant
/// `submitted == completed + cancelled` once every handle has resolved,
/// and (b) make every *completed* job's output identical to the blocking
/// sync path's result for the same permutation.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::plan::SharedEngine;
    use hmm_perm::families;
    use proptest::prelude::*;

    /// Width 8 keeps every power-of-two n ≥ 64 schedulable, so the
    /// scheduled backend is reachable whenever γ says so.
    const W: usize = 8;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn interleaved_submissions_balance_and_match_sync(
            seed in any::<u64>(),
            n_exp in 6usize..=10,
            jobs in 1usize..=12,
            cancel_mask in any::<u64>(),
            poll_mask in any::<u64>(),
            cap in 1usize..=8,
        ) {
            let n = 1usize << n_exp;
            let engine: SharedEngine<u32> = SharedEngine::new(W);
            engine.set_queue_config(cap, 2);
            let perms: Vec<_> = (0..4)
                .map(|k| families::random(n, seed.wrapping_add(k)))
                .collect();
            let src: Arc<[u32]> = (0..n as u32).collect::<Vec<_>>().into();

            // Submit (optionally racing a cancel right behind each
            // submission — against a tiny queue many of them win, against
            // fast drainers many lose; both schedules must balance).
            let mut handles = Vec::with_capacity(jobs);
            for j in 0..jobs {
                let h = engine.submit(&perms[j % perms.len()], Arc::clone(&src), vec![0u32; n]);
                if cancel_mask >> j & 1 == 1 {
                    h.cancel();
                }
                handles.push((j, h));
            }

            for (j, h) in handles {
                // Some handles are polled first; a poll that lands after
                // resolution TAKES the outcome, so honour whichever path
                // produced it.
                let polled = if poll_mask >> j & 1 == 1 {
                    h.try_wait()
                } else {
                    None
                };
                let outcome = match polled {
                    Some(done) => done,
                    None => h.wait(),
                };
                match outcome {
                    Ok(report) => {
                        let mut expect = vec![0u32; n];
                        perms[j % perms.len()].permute(&src, &mut expect).unwrap();
                        prop_assert_eq!(report.dst, expect, "job {} diverged from sync", j);
                    }
                    Err(JobError::Cancelled) => {}
                    Err(e) => panic!("job {j} resolved with an unexpected error: {e}"),
                }
            }

            let stats = engine.stats();
            prop_assert_eq!(stats.submitted, jobs as u64);
            prop_assert_eq!(
                stats.submitted,
                stats.completed + stats.cancelled,
                "every submitted job must resolve exactly once"
            );
            // Cancelled carcasses may still sit in the queue (drainers
            // skip them on pop), so depth is bounded by — not zero after —
            // the cancellations.
            prop_assert!(stats.queue_depth <= stats.cancelled);
        }
    }
}
