//! In-memory spans recorded around calls into the simulator's layers.
//!
//! The benchmark wraps each public call it makes (kernel generation,
//! `Pipeline::new`, `Pipeline::run`, `critpath::analyze`, snapshot
//! rendering, cache I/O, the pieces of a sampled run) in a span:
//! name, start, end, parent span and job id. Spans stay in memory
//! and are written out as JSON lines when the run ends.

use cfir_obs::JsonWriter;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the job the call served.
    pub job: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans on one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Attribute the following spans to job `job`.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    /// Position to [`Tracer::rollback`] to.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drop every span opened since `mark` (after a panic unwound
    /// through them) and close nothing: the stack is emptied.
    pub fn rollback(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.open.clear();
    }

    /// Run `f` inside a span called `name`; spans `f` opens nest in it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        r
    }

    /// Summed duration of job `job`'s spans called `name`.
    pub fn sum(&self, job: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Number of job `job`'s spans called `name`.
    pub fn count(&self, job: usize, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .count()
    }

    /// Summed duration of the top-level spans.
    pub fn root_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// Write every span as one JSON line (`parent` -1 = top level).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::new();
            w.begin_obj()
                .field_u64("id", i as u64)
                .field_str("name", s.name)
                .field_f64("start_s", s.start)
                .field_f64("end_s", s.end)
                .key("parent")
                .i64_val(s.parent.map_or(-1, |p| p as i64))
                .field_u64("job", s.job as u64)
                .end_obj();
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}
