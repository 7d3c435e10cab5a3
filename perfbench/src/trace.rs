//! The traced run's instruments: an in-memory span recorder for the
//! benchmark's calls into each layer, and sampled per-call timers.
//!
//! Spans are coarse (one per scenario phase, per replay batch, per
//! tick) so that recording them stays cheap; per-call latencies are
//! sampled — one call in `every` is timed — and never cost a clock read
//! per ball.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a named interval and the span that was open when
/// it started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call the span wraps, e.g. `core.kd`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Records spans in memory; [`Tracer::to_json`] writes them out at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span) and
    /// returns its duration in seconds.
    pub fn exit(&mut self, id: u32) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time of every span name: duration minus the part covered by
    /// direct children, summed per name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
            match out.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, total)) => *total += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Per-name self times as a JSON object.
    pub fn self_times_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, secs)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {secs}");
        }
        out.push('}');
        out
    }

    /// The spans and per-name self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"self_s\": {},\n\"spans\": [\n", self.self_times_json());
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A sampled per-call timer: every `every`-th call is timed, all calls
/// are counted, and busy time is extrapolated from the sampled mean.
#[derive(Debug, Clone)]
pub struct Sampled {
    every: u64,
    calls: u64,
    samples_ns: Vec<u64>,
}

impl Sampled {
    /// Times one call in `every`.
    pub fn new(every: u64) -> Self {
        assert!(every >= 1);
        Self {
            every,
            calls: 0,
            samples_ns: Vec::new(),
        }
    }

    /// Counts one call and reports whether it is to be timed.
    #[inline]
    pub fn due(&mut self) -> bool {
        let due = self.calls.is_multiple_of(self.every);
        self.calls += 1;
        due
    }

    /// Records the duration of a timed call.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.samples_ns.push(ns);
    }

    /// Counts `f` as one call, timing it if it is due.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.due() {
            let start = Instant::now();
            let out = f();
            self.record(start.elapsed().as_nanos() as u64);
            out
        } else {
            f()
        }
    }

    /// Folds another timer's calls and samples into this one.
    pub fn merge(&mut self, other: &Sampled) {
        self.calls += other.calls;
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }

    /// Calls counted.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Mean sampled duration in nanoseconds (0 when nothing was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().sum::<u64>() as f64 / self.samples_ns.len() as f64
    }

    /// Nearest-rank quantile of the sampled durations in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        quantile(&self.samples_ns, q)
    }

    /// Busy seconds over all calls, extrapolated from the sampled mean.
    pub fn busy_s(&self) -> f64 {
        self.mean_ns() * self.calls as f64 * 1e-9
    }
}

/// Nearest-rank quantile of unsorted integer samples (0 when empty).
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The cost of one clock read in nanoseconds, measured over a tight loop.
pub fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.span("inner", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let selfs = t.self_times();
        let outer_self = selfs.iter().find(|(n, _)| *n == "outer").unwrap().1;
        assert!(outer_self < t.busy_s("inner"));
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn sampler_counts_every_call_and_times_some() {
        let mut s = Sampled::new(4);
        for _ in 0..10 {
            s.time(|| std::hint::black_box(1));
        }
        assert_eq!(s.calls(), 10);
        assert_eq!(s.samples_ns.len(), 3);
        assert_eq!(quantile(&[5, 1, 3], 0.5), 3.0);
    }
}
