//! Spans recorded around the benchmark's calls into the program.
//!
//! Every span is opened by the benchmark itself, around a call into one
//! layer's public entry point (or a loop of such calls over one input
//! stream), so the program under test carries no tracing of its own.
//! Spans stay in memory and are written out once, when the run ends.

use apples_bench::wallclock::WallClock;
use apples_core::json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one experiment or one deployment run.
    pub id: u64,
    /// The wrapped entry point, e.g. `Deployment::run`.
    pub name: &'static str,
    /// What it ran on: an experiment id or a deployment label.
    pub label: String,
    /// Seconds since the recorder started.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls made inside the span (1 unless it wraps a loop).
    pub calls: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when enabled; otherwise only times the calls.
pub struct Recorder {
    clock: WallClock,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { clock: WallClock::start(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_s(&self) -> f64 {
        self.clock.elapsed_ms() / 1e3
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// wall seconds. `f` gets the recorder back, so spans nest.
    pub fn span<T>(
        &mut self,
        id: u64,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> (T, f64) {
        if !self.enabled {
            let clock = WallClock::start();
            let (out, _) = f(self);
            return (out, clock.elapsed_ms() / 1e3);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            label: label.to_owned(),
            start_s: self.now_s(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(index);
        let (out, calls) = f(self);
        self.open.pop();
        let end = self.now_s();
        let span = &mut self.spans[index];
        span.end_s = end;
        span.calls = calls;
        (out, span.duration_s())
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_s(&self, index: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(index)).map(Span::duration_s).sum();
        self.spans[index].duration_s() - children
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj()
                        .field("index", i)
                        .field("id", s.id)
                        .field("name", s.name)
                        .field("label", s.label.as_str())
                        .field("start_s", s.start_s)
                        .field("end_s", s.end_s)
                        .field("self_s", self.self_s(i))
                        .field("parent", s.parent.map_or(Json::Null, Json::from))
                        .field("calls", s.calls)
                })
                .collect(),
        )
    }
}
