//! Spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start and end (on-CPU nanoseconds of the
//! benchmark thread), its parent span and the operation (repetition)
//! it belongs to. Spans stay in memory and are written out when the
//! benchmark ends. A layer's self time is its span's duration minus the
//! durations of its direct children. With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::CpuClock;

const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `"eviction"`.
    pub name: &'static str,
    /// On-CPU nanoseconds at entry.
    pub start: u64,
    /// On-CPU nanoseconds at exit.
    pub end: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: u32,
    /// Repetition the span belongs to.
    pub op: u32,
}

/// Span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer<'c> {
    clock: &'c CpuClock,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl<'c> Tracer<'c> {
    /// A tracer reading `clock`, recording only when `enabled`.
    pub fn new(clock: &'c CpuClock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 14 } else { 0 }),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the following spans and counts.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the repetition that following spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.clock.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end = self.clock.now();
        out
    }

    /// As [`Tracer::span`], also returning the span's duration in
    /// nanoseconds (measured even with tracing off).
    pub fn span_timed<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let t0 = self.clock.now();
        let out = self.span(name, f);
        (out, self.clock.now() - t0)
    }

    /// Records a count observed at a layer boundary (traced runs only).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Every value recorded under `name` by [`Tracer::count`].
    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// All closed spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct
    /// children's. Children close before their parent and never overlap
    /// their siblings, so no self time is negative.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p]
                    .checked_sub(s.end - s.start)
                    .expect("children fit inside their parent");
            }
        }
        own
    }

    /// Self time per layer name, summed within each repetition:
    /// `name -> (op -> ns)`.
    pub fn self_by_op(&self) -> BTreeMap<&'static str, BTreeMap<u32, u64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_default().entry(s.op).or_default() += own;
        }
        out
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}
