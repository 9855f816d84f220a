//! Structured fork/join parallelism for the plan compiler.
//!
//! `hmm-graph` (and `hmm-plan`, which reuses this module) must stay
//! simulator-independent, so instead of depending on the `hmm-native`
//! worker pool the compiler parallelises with **scoped threads** from
//! `std`: every construct here is a fork/join over disjoint `&mut`
//! slices, so the borrow checker proves data-race freedom and the crate's
//! `#![forbid(unsafe_code)]` stays in force.
//!
//! [`Parallelism`] is an explicit thread *budget* threaded through the
//! recursion. A budget of 1 is exactly the sequential algorithm — no
//! thread is ever spawned — and a budget of `t` keeps at most `t` tasks
//! in flight at any instant. Crucially the budget only chooses *where*
//! work runs, never *what* is computed: every split point partitions the
//! data identically at any budget, which is how the compiler guarantees
//! byte-identical output for any thread count.

/// An explicit fork/join thread budget. Copyable; splitting it divides
/// the budget between the two sides of a fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// The sequential budget: never spawns a thread.
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// A budget of `n` threads (clamped to at least 1).
    pub fn threads(n: usize) -> Self {
        Parallelism { threads: n.max(1) }
    }

    /// How many tasks this budget may keep in flight.
    pub fn available(self) -> usize {
        self.threads
    }

    /// True iff a fork under this budget would actually use a second thread.
    pub fn is_parallel(self) -> bool {
        self.threads > 1
    }

    /// Divide the budget for an even two-way fork: `(floor, ceil)`, each
    /// side at least one thread.
    pub fn split(self) -> (Self, Self) {
        let t = self.threads;
        (Parallelism::threads(t / 2), Parallelism::threads(t - t / 2))
    }

    /// Run `a` and `b`, on two scoped threads when the budget allows,
    /// splitting the budget evenly between them. With a sequential budget
    /// this is exactly `(a(seq), b(seq))` on the current thread.
    pub fn join<RA, RB, FA, FB>(self, a: FA, b: FB) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        FA: FnOnce(Parallelism) -> RA + Send,
        FB: FnOnce(Parallelism) -> RB + Send,
    {
        if !self.is_parallel() {
            let ra = a(Parallelism::sequential());
            let rb = b(Parallelism::sequential());
            return (ra, rb);
        }
        let (pa, pb) = self.split();
        std::thread::scope(|s| {
            let ha = s.spawn(move || a(pa));
            let rb = b(pb);
            let ra = ha
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (ra, rb)
        })
    }

    /// Mutate `data` in parallel as contiguous runs of whole rows of
    /// `row_len` elements: `f(first_row, rows)` is called once per chunk,
    /// on up to `available()` scoped threads. `data.len()` must be a
    /// multiple of `row_len`. Chunk boundaries depend only on the budget,
    /// and chunks are disjoint, so any per-element result is identical to
    /// the sequential `f(0, data)`.
    pub fn run_rows<T, F>(self, data: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row_len must be positive");
        assert_eq!(data.len() % row_len, 0, "data must be whole rows");
        if data.is_empty() {
            return;
        }
        let rows = data.len() / row_len;
        let t = self.threads.min(rows);
        if t <= 1 {
            f(0, data);
            return;
        }
        let rows_per = rows.div_ceil(t);
        let per = rows_per * row_len;
        std::thread::scope(|s| {
            let f = &f;
            let mut rest = data;
            let mut row = 0usize;
            while rest.len() > per {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(per);
                rest = tail;
                let first = row;
                s.spawn(move || f(first, head));
                row += rows_per;
            }
            f(row, rest);
        });
    }

    /// Map disjoint index ranges covering `0..n` on up to `available()`
    /// scoped threads, returning the per-range results **in range order**
    /// (so order-sensitive reductions stay deterministic). Ranges are
    /// never smaller than `min_chunk` except possibly the last.
    pub fn map_ranges<R, F>(self, n: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let max_chunks = n.div_ceil(min_chunk.max(1));
        let t = self.threads.min(max_chunks);
        if t <= 1 {
            return vec![f(0, n)];
        }
        let per = n.div_ceil(t);
        std::thread::scope(|s| {
            let f = &f;
            let mut handles = Vec::with_capacity(t);
            let mut start = 0usize;
            while start + per < n {
                let end = start + per;
                handles.push(s.spawn(move || f(start, end)));
                start = end;
            }
            let last = f(start, n);
            let mut out: Vec<R> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect();
            out.push(last);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_budget_never_splits() {
        let p = Parallelism::sequential();
        assert!(!p.is_parallel());
        assert_eq!(p.available(), 1);
        let (a, b) = p.split();
        assert_eq!((a.available(), b.available()), (1, 1));
    }

    #[test]
    fn budget_is_conserved_across_splits() {
        for t in 2..=16 {
            let (a, b) = Parallelism::threads(t).split();
            assert_eq!(a.available() + b.available(), t);
            assert!(a.available() >= 1 && b.available() >= 1);
            assert!(b.available() - a.available() <= 1);
        }
    }

    #[test]
    fn join_runs_both_closures() {
        for t in [1, 2, 4] {
            let (a, b) = Parallelism::threads(t).join(|_| 40, |_| 2);
            assert_eq!(a + b, 42);
        }
    }

    #[test]
    fn join_passes_split_budgets() {
        let (a, b) = Parallelism::threads(4).join(|p| p.available(), |p| p.available());
        assert_eq!(a + b, 4);
    }

    #[test]
    fn run_rows_covers_every_row_once() {
        for t in [1, 2, 3, 8] {
            let mut data = vec![0u32; 7 * 5];
            Parallelism::threads(t).run_rows(&mut data, 5, |first_row, rows| {
                for (i, chunk) in rows.chunks_exact_mut(5).enumerate() {
                    for v in chunk.iter_mut() {
                        *v += (first_row + i) as u32 + 1;
                    }
                }
            });
            let expect: Vec<u32> = (0..7).flat_map(|r| [r + 1; 5]).collect();
            assert_eq!(data, expect, "threads {t}");
        }
    }

    #[test]
    fn run_rows_handles_fewer_rows_than_threads() {
        let mut data = vec![0u8; 6];
        Parallelism::threads(16).run_rows(&mut data, 3, |_, rows| {
            for v in rows.iter_mut() {
                *v = 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn map_ranges_partitions_exactly() {
        for t in [1, 2, 3, 5] {
            let parts = Parallelism::threads(t).map_ranges(100, 1, |s, e| (s, e));
            assert_eq!(parts[0].0, 0);
            assert_eq!(parts.last().unwrap().1, 100);
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
        }
    }

    #[test]
    fn map_ranges_respects_min_chunk() {
        let parts = Parallelism::threads(16).map_ranges(10, 8, |s, e| e - s);
        assert!(parts.len() <= 2);
        assert_eq!(parts.iter().sum::<usize>(), 10);
    }

    #[test]
    fn map_ranges_empty_input() {
        let parts: Vec<usize> = Parallelism::threads(4).map_ranges(0, 1, |_, _| 1);
        assert!(parts.is_empty());
    }
}
