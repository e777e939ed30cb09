//! The [`Tracer`]: a parse-once filter plus a sink.
//!
//! The simulator owns an `Option<Tracer>` built by [`Tracer::from_env`]
//! at startup. The environment is consulted exactly once per process
//! (cached in a `OnceLock`), so hot-path trace sites never touch
//! `env::var`. Emission goes through interior mutability so the
//! [`trace_event!`](crate::trace_event) macro can fire from `&self`
//! contexts.
//!
//! Environment contract: `CFIR_TRACE=SPEC` traces per
//! [`TraceFilter::parse`] (`CFIR_TRACE=1` traces everything to stderr);
//! malformed specs panic loudly. Unset, tracing is off.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::event::{EventKind, Subsystem, TraceEvent};
use crate::filter::{SinkSpec, TraceFilter};
use crate::sink::{ChromeSink, JsonlSink, Sink, TextSink};

/// A trace filter bound to a sink. Cheap to query, interior-mutable to
/// emit (sinks buffer).
pub struct Tracer {
    filter: TraceFilter,
    sink: RefCell<Box<dyn Sink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("filter", &self.filter)
            .finish_non_exhaustive()
    }
}

fn build_sink(filter: &TraceFilter) -> Box<dyn Sink> {
    match &filter.sink {
        SinkSpec::Text => Box::new(TextSink),
        SinkSpec::Jsonl(path) => Box::new(JsonlSink::create(path)),
        SinkSpec::Chrome(path) => Box::new(ChromeSink::create(path, filter.cap)),
    }
}

static ENV_FILTER: OnceLock<Option<TraceFilter>> = OnceLock::new();

impl Tracer {
    /// Tracer with the sink described by the filter.
    pub fn new(filter: TraceFilter) -> Tracer {
        let sink = build_sink(&filter);
        Tracer {
            filter,
            sink: RefCell::new(sink),
        }
    }

    /// Tracer with an explicit sink (tests, embedding).
    pub fn with_sink(filter: TraceFilter, sink: Box<dyn Sink>) -> Tracer {
        Tracer {
            filter,
            sink: RefCell::new(sink),
        }
    }

    /// Build a tracer from `CFIR_TRACE`.
    ///
    /// The environment is read and the filter parsed **once per
    /// process**; later calls reuse the cached result (each call still
    /// gets its own sink). Returns `None` — the zero-overhead path —
    /// when the variable is unset. Panics with a descriptive
    /// message on a malformed `CFIR_TRACE`, so a typo'd filter fails
    /// the run instead of silently tracing nothing.
    pub fn from_env() -> Option<Tracer> {
        let cached = ENV_FILTER.get_or_init(|| {
            let spec = std::env::var("CFIR_TRACE").ok()?;
            match TraceFilter::parse(&spec) {
                Ok(f) => Some(f),
                Err(e) => panic!("CFIR_TRACE: {e}"),
            }
        });
        cached.clone().map(Tracer::new)
    }

    /// The bound filter.
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Would an event at (`sub`, `pc`, `cycle`) be emitted? Hot-path
    /// gate: a couple of integer compares.
    #[inline]
    pub fn enabled(&self, sub: Subsystem, pc: u64, cycle: u64) -> bool {
        self.filter.matches(sub, pc, cycle)
    }

    /// Emit an event. Callers are expected to have checked
    /// [`enabled`](Self::enabled) first (the `trace_event!` macro does).
    pub fn emit(&self, sub: Subsystem, pc: u64, cycle: u64, kind: EventKind) {
        self.sink.borrow_mut().emit(&TraceEvent {
            cycle,
            pc,
            sub,
            kind,
        });
    }

    /// Flush the sink (buffered sinks write their document here).
    pub fn flush(&self) {
        self.sink.borrow_mut().flush();
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.sink.get_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[derive(Default)]
    struct Capture {
        events: Rc<RefCell<Vec<TraceEvent>>>,
        flushes: Rc<RefCell<u32>>,
    }

    impl Sink for Capture {
        fn emit(&mut self, ev: &TraceEvent) {
            self.events.borrow_mut().push(ev.clone());
        }
        fn flush(&mut self) {
            *self.flushes.borrow_mut() += 1;
        }
    }

    fn capture(filter: TraceFilter) -> (Tracer, Rc<RefCell<Vec<TraceEvent>>>) {
        let cap = Capture::default();
        let events = cap.events.clone();
        (Tracer::with_sink(filter, Box::new(cap)), events)
    }

    #[test]
    fn macro_is_lazy_and_filtered() {
        let (tracer, events) = capture(TraceFilter {
            pc: Some(0x10),
            ..TraceFilter::default()
        });
        let tracer = Some(tracer);

        let built = std::cell::Cell::new(0u32);
        let payload = |v: u64| {
            built.set(built.get() + 1);
            EventKind::Commit { seq: v, value: v }
        };
        crate::trace_event!(tracer, Subsystem::Commit, 0x10, 1, payload(7));
        crate::trace_event!(tracer, Subsystem::Commit, 0x11, 2, payload(8)); // filtered: wrong pc
        assert_eq!(
            built.get(),
            1,
            "payload must only build when the filter matches"
        );
        assert_eq!(events.borrow().len(), 1);
        assert_eq!(events.borrow()[0].cycle, 1);

        let disabled: Option<Tracer> = None;
        crate::trace_event!(disabled, Subsystem::Commit, 0x10, 1, payload(9));
        assert_eq!(built.get(), 1, "disabled tracer must not build payloads");
    }

    #[test]
    fn drop_flushes_sink() {
        let cap = Capture::default();
        let flushes = cap.flushes.clone();
        let tracer = Tracer::with_sink(TraceFilter::default(), Box::new(cap));
        tracer.emit(Subsystem::Vec, 0, 0, EventKind::Note { msg: "x".into() });
        drop(tracer);
        assert_eq!(*flushes.borrow(), 1);
    }
}
