//! # cfir-obs — observability layer for the CFIR simulator
//!
//! A self-contained (zero external dependencies) telemetry toolkit used
//! by every other crate in the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`hist`] | power-of-two-bucket latency histograms |
//! | [`stall`] | per-cycle stall-attribution causes and breakdown |
//! | [`event`] | typed trace events (vectorize/validate/flush/…) |
//! | [`filter`] | `CFIR_TRACE` filter, parsed **once** at startup |
//! | [`lifecycle`] | per-instruction lifecycle records, Konata pipeview, ASCII timeline |
//! | [`critpath`] | causal critical path, hierarchical CPI stack, what-if projections |
//! | [`sink`] | pluggable sinks: human text, JSONL, Chrome `trace_event` |
//! | [`trace`] | the [`Tracer`](trace::Tracer) tying filter + sinks together |
//! | [`json`] | hand-rolled JSON writer + minimal parser (no serde) |
//! | [`rng`] | splitmix64 / xoshiro256** PRNG (replaces the `rand` crate) |
//!
//! ## Zero overhead when disabled
//!
//! The simulator holds an `Option<Tracer>`; when `CFIR_TRACE` is unset
//! the option is `None` and every trace site costs exactly one branch — no `format!`, no
//! `env::var`, no allocation. Event payloads are built lazily, only
//! after the parse-once filter has matched.

pub mod critpath;
pub mod event;
pub mod filter;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod rng;
pub mod sink;
pub mod stall;
pub mod trace;

pub use critpath::{BottleneckReport, CpiStack, CritPath, EdgeClass, PathSeg, WhatIfRow, ZeroSet};
pub use event::{EventKind, Subsystem, TraceEvent};
pub use filter::TraceFilter;
pub use hist::Hist;
pub use json::{JsonValue, JsonWriter};
pub use lifecycle::{
    parse_konata, render_timeline, Fate, InstLane, InstRecord, LifecycleLog, ParsedTrace,
    TimelineOpts, WaitEdge, WaitEdgeKind,
};
pub use rng::Rng64;
pub use stall::{StallBreakdown, StallCause};
pub use trace::Tracer;

/// FNV-1a 64-bit hash: the content address of harness job fingerprints
/// and sampling checkpoints (re-exported by both crates).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lazily emit a trace event through an `Option<Tracer>`.
///
/// The first three expressions (tracer option, subsystem, pc, cycle)
/// are evaluated unconditionally — they must be cheap. The final
/// expression builds the [`EventKind`] payload and is evaluated **only
/// if** the parse-once filter matches, so disabled tracing costs a
/// single branch on the `Option`.
///
/// ```
/// use cfir_obs::{trace_event, Subsystem, EventKind, Tracer};
/// let tracer: Option<Tracer> = None; // disabled: body never evaluated
/// trace_event!(tracer, Subsystem::Vec, 0x10, 42, EventKind::Note {
///     msg: format!("this format! never runs"),
/// });
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $sub:expr, $pc:expr, $cycle:expr, $kind:expr) => {
        if let Some(t) = ($tracer).as_ref() {
            if t.enabled($sub, $pc, $cycle) {
                t.emit($sub, $pc, $cycle, $kind);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        // Regression pin so cache and checkpoint file names never
        // silently change.
        assert_eq!(fnv1a64(b"cfir"), 0xbcdc_9d90_ec62_c887);
    }
}
