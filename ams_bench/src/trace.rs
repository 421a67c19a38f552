//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around its
//! calls into each layer's public API; nothing inside the program is
//! instrumented. Each span records its name, start, duration and the span
//! open around it. Per-layer metrics are aggregates over these spans, and
//! the list itself can be written out when the run ends.

use std::time::Instant;

use serde::Value;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `models.stem.fwd`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while open).
    pub dur_ns: u64,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a begin/end mismatch in this crate).
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("Tracer::end without begin");
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[i].dur_ns = now - self.spans[i].start_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// For every span named `parent`, the summed milliseconds of its
    /// direct children named `child` — e.g. one replay iteration's total
    /// activation-quantization time across all layers.
    pub fn child_sums_ms(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(slot) = sums.iter_mut().find(|(i, _)| Some(*i) == s.parent) {
                slot.1 += s.dur_ns as f64 / 1e6;
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// The recorded spans as a JSON array.
    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".to_string(), Value::Str(s.name.clone())),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("start_ns".to_string(), Value::U64(s.start_ns)),
                        ("dur_ns".to_string(), Value::U64(s.dur_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_per_parent() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.begin("iter");
            t.span("phase", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.span("phase", || ());
            t.span("other", || ());
            t.end();
        }
        let sums = t.child_sums_ms("iter", "phase");
        assert_eq!(sums.len(), 2);
        assert!(sums.iter().all(|&ms| ms >= 1.0));
        assert_eq!(t.durations_ms("phase").len(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.durations_ms("x").is_empty());
    }
}
