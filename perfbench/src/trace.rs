//! In-memory span recording around calls into the system's layers.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (the public function the benchmark calls), kept in per-thread
//! [`Recorder`]s, and written out once the run ends. A disabled recorder
//! takes no timestamps at all, which is what the untraced runs use.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run (the recording thread is in the high bits).
    pub id: u64,
    /// Id of the enclosing span, `0` for a root.
    pub parent: u64,
    /// Layer the call belongs to, e.g. `fusion.methods`.
    pub layer: &'static str,
    /// The call, e.g. `run_with_scratch`.
    pub call: &'static str,
    /// Call-specific tag: method index, day index, or job index.
    pub tag: u32,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// A span that has been opened but not closed yet.
#[derive(Debug)]
#[must_use = "an open span must be closed"]
pub struct Open {
    id: u64,
    parent: u64,
    layer: &'static str,
    call: &'static str,
    tag: u32,
    start: Option<Instant>,
}

impl Open {
    /// The id children of this span name as their parent (`0` when the
    /// recorder is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for `thread` timing against `epoch`; a disabled recorder
    /// records nothing and reads no clock.
    pub fn new(epoch: Instant, thread: u16, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            thread: u64::from(thread) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off for the following spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span under `parent` (`0` for a root).
    pub fn open(&mut self, parent: u64, layer: &'static str, call: &'static str, tag: u32) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                layer,
                call,
                tag,
                start: None,
            };
        }
        self.next += 1;
        Open {
            id: self.thread | self.next,
            parent,
            layer,
            call,
            tag,
            start: Some(Instant::now()),
        }
    }

    /// Close a span, recording it when it was opened while enabled.
    pub fn close(&mut self, open: Open) {
        if let Some(start) = open.start {
            self.record(open, start, Instant::now());
        }
    }

    /// Record a span whose bounds the caller already measured.
    pub fn record_at(&mut self, open: Open, start: Instant, end: Instant) {
        if open.start.is_some() {
            self.record(open, start, end);
        }
    }

    fn record(&mut self, open: Open, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            layer: open.layer,
            call: open.call,
            tag: open.tag,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
    }

    /// Take the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time per layer: each span's duration minus the part covered by its
/// children, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<&'static str, Duration> {
    let mut children: HashMap<u64, Duration> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.duration();
    }
    let mut by_layer: HashMap<&'static str, Duration> = HashMap::new();
    for s in spans {
        let covered = children.get(&s.id).copied().unwrap_or_default();
        *by_layer.entry(s.layer).or_default() += s.duration().saturating_sub(covered);
    }
    by_layer
}

/// Total duration of the spans matching `layer` and `call`, plus how many
/// there were.
pub fn total(spans: &[Span], layer: &str, call: &str) -> (Duration, usize) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.call == call)
        .fold((Duration::ZERO, 0), |(t, n), s| (t + s.duration(), n + 1))
}

/// Mean cost of opening and closing one recorded span on this machine,
/// measured over `iterations` spans.
pub fn span_cost(iterations: u32) -> Duration {
    let mut rec = Recorder::new(Instant::now(), 0, true);
    rec.spans.reserve(iterations as usize);
    let started = Instant::now();
    for i in 0..iterations {
        let open = rec.open(0, "calibration", "noop", i);
        rec.close(std::hint::black_box(open));
    }
    started.elapsed() / iterations.max(1)
}

/// Write `header` and then one JSON object per span to `out`.
pub fn write_spans(mut out: impl Write, header: &str, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"call\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.layer, s.call, s.tag, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            call: "c",
            tag: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "fusion.methods", 10, 50),
            span(3, 1, "evaluation", 50, 70),
            span(4, 3, "fusion.methods", 55, 60),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], Duration::from_nanos(40));
        assert_eq!(t["fusion.methods"], Duration::from_nanos(45));
        assert_eq!(t["evaluation"], Duration::from_nanos(15));
        let sum: Duration = t.values().sum();
        assert_eq!(sum, Duration::from_nanos(100));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 3, false);
        let open = rec.open(0, "bench", "job", 0);
        assert_eq!(open.id(), 0);
        rec.close(open);
        assert!(rec.take().is_empty());

        rec.set_enabled(true);
        let outer = rec.open(0, "bench", "job", 1);
        let inner = rec.open(outer.id(), "fusion.problem", "prepare", 7);
        assert_ne!(inner.id(), outer.id());
        rec.close(inner);
        rec.close(outer);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].tag, 7);
        assert_eq!(spans[1].id >> 40, 3);
        assert_eq!(total(&spans, "fusion.problem", "prepare").1, 1);
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut out = Vec::new();
        write_spans(&mut out, "{\"seed\":1}", &[span(5, 0, "service", 1, 2)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"layer\":\"service\""));
        assert!(span_cost(1000) < Duration::from_millis(1));
    }
}
