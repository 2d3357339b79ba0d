//! In-memory span recorder.
//!
//! A span is recorded around one call into a layer's public function:
//! name, start, end, parent span and request id. Spans stay in memory and
//! are written once, as JSON lines, when the run ends. A disabled tracer
//! still times every span (the untraced run needs the wall times) but
//! stores nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sdd.try_new_laplacian`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or replay) this span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span: returned by [`Tracer::begin`], consumed by
/// [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Open {
    /// The span's index, to pass as a child's parent.
    pub fn id(&self) -> Option<usize> {
        self.index
    }
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and only times them
    /// otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns storing on or off (spans already stored are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` under `parent` for `request`.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u32) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let at = self.nanos(start);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent,
                request,
            });
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.nanos(now);
        }
        (now - open.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its value and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, parent, request);
        let value = std::hint::black_box(f());
        (value, self.end(open))
    }

    /// Durations (seconds) of every stored span named `name` whose
    /// request satisfies `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.request))
            .map(Span::seconds)
            .collect()
    }

    /// Writes every stored span as one JSON object per line, after a
    /// header line with `header` (an already-formatted JSON object body).
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header}}}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}
