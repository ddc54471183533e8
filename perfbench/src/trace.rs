//! In-memory span recording and the timing hooks wrapper.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (cell, job, trial, chunk), kept in memory, and written out as JSON
//! lines when the run ends. Hook time is not a span per call: the
//! [`TimedHooks`] wrapper sums time and counts per intrinsic, and the
//! trial span carries the sums.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use rskip_exec::{IntrinsicAction, RuntimeHooks};
use rskip_ir::{Intrinsic, Value};

/// Number of intrinsic kinds (one counter slot each).
pub const INTRINSICS: usize = Intrinsic::ALL.len();

/// Slot of `intr` in [`Intrinsic::ALL`].
pub fn intrinsic_slot(intr: Intrinsic) -> usize {
    Intrinsic::ALL
        .iter()
        .position(|&i| i == intr)
        .expect("Intrinsic::ALL lists every intrinsic")
}

/// `RegionEnter` → `region_enter`.
pub fn intrinsic_label(intr: Intrinsic) -> String {
    let mut out = String::new();
    for (i, c) in format!("{intr:?}").chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Per-intrinsic call counts and self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HookTally {
    /// Calls per [`Intrinsic::ALL`] slot.
    pub calls: [u64; INTRINSICS],
    /// Nanoseconds per [`Intrinsic::ALL`] slot.
    pub nanos: [u64; INTRINSICS],
}

impl HookTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &HookTally) {
        for i in 0..INTRINSICS {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Total calls.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// Delegates every hook to `inner`, timing each `intrinsic` call.
pub struct TimedHooks<H> {
    /// The real hooks.
    pub inner: H,
    /// What the calls cost so far.
    pub tally: HookTally,
}

impl<H> TimedHooks<H> {
    /// Wraps `inner` with a zeroed tally.
    pub fn new(inner: H) -> Self {
        TimedHooks {
            inner,
            tally: HookTally::default(),
        }
    }
}

impl<H: RuntimeHooks> RuntimeHooks for TimedHooks<H> {
    fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> IntrinsicAction {
        let started = Instant::now();
        let action = self.inner.intrinsic(intr, args);
        let slot = intrinsic_slot(intr);
        self.tally.nanos[slot] += started.elapsed().as_nanos() as u64;
        self.tally.calls[slot] += 1;
        action
    }

    fn flip_runtime_state(&mut self, seed: u64) -> Option<String> {
        self.inner.flip_runtime_state(seed)
    }
}

/// One recorded interval.
pub struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// An append-only span log with one time origin.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose time origin is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id (for children's `parent`).
    pub fn span(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: u64,
        attrs: Vec<(&'static str, f64)>,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
            attrs,
        });
        self.spans.len() - 1
    }

    /// Widens span `id` to cover `[start, end]` and appends `attrs`
    /// (for spans whose extent is known only after their children).
    pub fn close(
        &mut self,
        id: usize,
        (start, end): (Instant, Instant),
        attrs: Vec<(&'static str, f64)>,
    ) {
        let (start, end) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id];
        if span.start == span.end {
            span.start = start;
            span.end = end;
        } else {
            span.start = span.start.min(start);
            span.end = span.end.max(end);
        }
        span.attrs.extend(attrs);
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}",
                s.name, s.start, s.end, s.request
            );
            for (k, v) in &s.attrs {
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, ", \"{k}\": {v:?}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_snake_case() {
        assert_eq!(intrinsic_label(Intrinsic::RegionEnter), "region_enter");
        assert_eq!(intrinsic_label(Intrinsic::PendingArgI), "pending_arg_i");
        assert_eq!(intrinsic_slot(Intrinsic::ALL[3]), 3);
    }
}
