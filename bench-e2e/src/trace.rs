//! Spans recorded by the benchmark around its calls into each layer. They
//! live in memory during the run and are written out when it ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's recorder.
    pub parent: Option<usize>,
    pub request: u64,
    /// True for the measurement-only calls that follow a sampled request.
    pub probe: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's spans.
pub struct Recorder {
    epoch: Instant,
    pub thread: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: usize) -> Recorder {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: u64,
        probe: bool,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            probe,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span that [`Recorder::end`] closes; returns its index.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, (now, now), None, request, false)
    }

    /// Close a span opened by [`Recorder::begin`]; returns its length in
    /// milliseconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        self.spans[idx].end_ns = self.ns(Instant::now());
        self.spans[idx].ms()
    }

    /// Run `f` inside a span and return its result with the span's length
    /// in milliseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        probe: bool,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let idx = self.record(name, (start, end), parent, request, probe);
        (out, self.spans[idx].ms())
    }
}

/// Each span's duration minus the time its children cover. Children of a
/// span run on the parent's thread, one after another, so their
/// durations add up without overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

/// The trace file body: the spans of the first `max_requests` sampled
/// requests of every thread, with self times and parent links remapped to
/// positions in the written list.
pub fn to_json(recorders: &[Recorder], sampled: impl Fn(u64) -> bool, max_requests: usize) -> Json {
    let mut out = Vec::new();
    for rec in recorders {
        let self_ns = self_times_ns(&rec.spans);
        let mut position = vec![None; rec.spans.len()];
        let mut kept = 0usize;
        let mut last_request = None;
        for (i, s) in rec.spans.iter().enumerate() {
            if !sampled(s.request) {
                continue;
            }
            if last_request != Some(s.request) {
                last_request = Some(s.request);
                kept += 1;
            }
            if kept > max_requests {
                break;
            }
            position[i] = Some(out.len());
            let parent = s
                .parent
                .and_then(|p| position[p])
                .map_or(Json::Null, |p| Json::Num(p as f64));
            out.push(Json::obj([
                ("name", Json::str(s.name)),
                ("thread", Json::Num(rec.thread as f64)),
                ("request", Json::Num(s.request as f64)),
                ("probe", Json::Bool(s.probe)),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ("self_us", Json::Num(self_ns[i] as f64 / 1e3)),
                ("parent", parent),
            ]));
        }
    }
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 0, 100, None),
            span("engine.plan", 5, 35, Some(0)),
            span("engine.run_plan", 40, 95, Some(0)),
            span("kernel.sweep1", 41, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 30, 46, 9]);
    }
}
