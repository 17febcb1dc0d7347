//! In-memory spans recorded around the benchmark's own calls into each
//! layer: name, start, end and parent. Nothing is recorded unless the
//! run is traced; the spans are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span; times are seconds since the
/// tracer was created.
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Id returned by [`Tracer::begin`] when tracing is off.
const OFF: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.on {
            return OFF;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned (and any left open inside it).
    pub fn end(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Records a span timed elsewhere (say, on another thread), as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let secs = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name: name.to_owned(),
            start: secs(start),
            end: secs(end),
            parent: self.open.last().copied(),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// For every span named `root`: the summed duration of its direct
    /// children named `layer`, for roots that have at least one.
    pub fn per_root(&self, root: &str, layer: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = Vec::new();
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            if s.name != layer || self.spans[p].name != root {
                continue;
            }
            match sums.iter_mut().find(|(id, _)| *id == p) {
                Some((_, sum)) => *sum += s.seconds(),
                None => sums.push((p, s.seconds())),
            }
        }
        sums.into_iter().map(|(_, sum)| sum).collect()
    }

    /// Self time of a span: its duration minus the part of it that its
    /// children cover (children may overlap when timed on other threads).
    fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.seconds() - covered
    }

    /// Share of the wall of all spans named in `roots` that the self
    /// times of their descendant (layer) spans account for.
    pub fn coverage(&self, roots: &[&str]) -> f64 {
        let mut wall = 0.0;
        let mut covered = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if roots.contains(&s.name.as_str()) && s.parent.is_none() {
                wall += s.seconds();
                covered += s.seconds() - self.self_time(id);
            }
        }
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for id in 0..self.spans.len() {
            let t = self.self_time(id);
            let name = &self.spans[id].name;
            match out.iter_mut().find(|(n, _)| n == name) {
                Some((_, sum)) => *sum += t,
                None => out.push((name.clone(), t)),
            }
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out.push_str("\n]");
        out
    }
}
