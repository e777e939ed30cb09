//! Seeded fuzz loops for the two text readers `cfir-obs` exposes to
//! user input: the Konata pipeview parser (`cfir-report timeline`
//! reads it from disk) and the `CFIR_TRACE` filter parser. Each loop
//! mutates a valid document with a deterministic `Rng64` and checks
//! that the reader returns `Ok` or `Err` and never panics; traces that
//! parse are also rendered as timelines, which must not panic either.

use cfir_obs::lifecycle::{
    parse_konata, render_timeline, LifecycleLog, TimelineOpts, WaitEdgeKind,
};
use cfir_obs::stall::StallCause;
use cfir_obs::{Rng64, TraceFilter};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tokens that tend to break number handling and field splitting.
const SPLICES: [&str; 14] = [
    "18446744073709551615",
    "9223372036854775808",
    "0",
    "-1",
    "\t",
    "\n",
    "=",
    ",",
    ":",
    "..",
    "@",
    ">",
    "[",
    "0x",
];

/// A small lifecycle log covering every Konata command the renderer
/// emits: stages, labels with metadata, wait-edges, a squash, a reuse
/// and a replica.
fn sample_konata(rng: &mut Rng64) -> String {
    let mut log = LifecycleLog::new(0);
    let mut cycle = 0;
    let mut prev = None;
    for i in 0..rng.gen_range(2, 12) {
        let pc = rng.gen_range(0, 64);
        let lid = log.begin_fetch(pc, || format!("addi r{i}, r{i}, 1"), cycle, cycle + 2);
        log.note_dispatch(lid, i + 1, cycle + 2);
        if let Some(p) = prev {
            log.edge(lid, WaitEdgeKind::Producer, Some(p), "", cycle + 2);
        }
        log.edge(lid, WaitEdgeKind::CacheMiss, None, "l2", cycle + 3);
        log.charge(Some(lid), StallCause::DCacheMiss, 1);
        log.note_issue(lid, cycle + 3);
        log.set_reused(lid, rng.gen_bool(0.2));
        log.note_complete(lid, cycle + 4);
        if rng.gen_bool(0.2) {
            log.note_squash(lid, cycle + 5);
        } else {
            log.note_commit(lid, cycle + 5);
        }
        if rng.gen_bool(0.3) {
            let r = log.begin_replica(pc + 1, || "mul r5, r5, r6".into(), cycle + 1);
            log.note_issue(r, cycle + 2);
            log.finish_replica(r, cycle + 4, rng.gen_bool(0.5));
        }
        prev = Some(lid);
        cycle += rng.gen_range(1, 4);
    }
    log.render_konata()
}

/// One random edit of `doc`: flip, delete, duplicate or splice bytes,
/// or shuffle and truncate whole lines. Works on bytes, then repairs
/// the result to UTF-8 so the readers see `&str` like they do from
/// `read_to_string`.
fn mutate(rng: &mut Rng64, doc: &str) -> String {
    let mut b = doc.as_bytes().to_vec();
    for _ in 0..rng.gen_range_incl(1, 4) {
        let n = b.len() as u64;
        let at = if n == 0 {
            0
        } else {
            rng.gen_range(0, n) as usize
        };
        match rng.gen_range(0, 7) {
            0 if n > 0 => b[at] ^= 1 << rng.gen_range(0, 8),
            1 if n > 0 => {
                let end = (at + rng.gen_range_incl(1, 16) as usize).min(b.len());
                b.drain(at..end);
            }
            2 if n > 0 => {
                let end = (at + rng.gen_range_incl(1, 32) as usize).min(b.len());
                let chunk = b[at..end].to_vec();
                b.splice(at..at, chunk);
            }
            3 => {
                let s = SPLICES[rng.gen_range(0, SPLICES.len() as u64) as usize];
                b.splice(at..at, s.bytes());
            }
            4 => {
                let mut lines: Vec<Vec<u8>> =
                    b.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
                let (i, j) = (
                    rng.gen_range(0, lines.len() as u64) as usize,
                    rng.gen_range(0, lines.len() as u64) as usize,
                );
                lines.swap(i, j);
                b = lines.join(&b'\n');
            }
            5 => b.truncate(at),
            _ if n > 0 => b[at] = rng.gen_range(0, 128) as u8,
            _ => {}
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Run `f` on `input`, turning a panic into a test failure that names
/// the seed and shows the input.
fn no_panic<R>(what: &str, seed: u64, input: &str, f: impl FnOnce(&str) -> R) -> R {
    catch_unwind(AssertUnwindSafe(|| f(input)))
        .unwrap_or_else(|_| panic!("{what} panicked (seed {seed}) on input:\n{input:?}"))
}

#[test]
fn konata_reader_never_panics_on_mutated_traces() {
    let opts = [
        TimelineOpts::default(),
        TimelineOpts {
            around_mispredict: Some(1),
            ..TimelineOpts::default()
        },
        TimelineOpts {
            cycle_range: Some((0, u64::MAX)),
            max_cols: 1,
            ..TimelineOpts::default()
        },
        TimelineOpts {
            pc: Some(3),
            cycle_range: Some((u64::MAX - 4, u64::MAX)),
            ..TimelineOpts::default()
        },
    ];
    let mut parsed = 0;
    for seed in 0..1500u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let valid = sample_konata(&mut rng);
        let doc = mutate(&mut rng, &valid);
        let Ok(trace) = no_panic("parse_konata", seed, &doc, parse_konata) else {
            continue;
        };
        parsed += 1;
        for o in &opts {
            let _ = no_panic("render_timeline", seed, &doc, |_| {
                render_timeline(&trace, o)
            });
        }
    }
    assert!(
        parsed > 100,
        "mutations should leave many traces parseable ({parsed})"
    );
}

#[test]
fn trace_filter_parser_never_panics_on_mutated_specs() {
    const SPECS: [&str; 6] = [
        "1",
        "sub=commit",
        "pc=0x10 cycle=100..200 sub=vec+flush",
        "cycle=500.. sink=jsonl:/tmp/t.jsonl cap=128",
        "sub=commit+flush sink=chrome:trace.json",
        "cycle=..50000 sink=text pc=7",
    ];
    let mut ok = 0;
    for seed in 0..5000u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let spec = SPECS[rng.gen_range(0, SPECS.len() as u64) as usize];
        let spec = mutate(&mut rng, spec);
        if no_panic("TraceFilter::parse", seed, &spec, TraceFilter::parse).is_ok() {
            ok += 1;
        }
    }
    assert!(ok > 100, "mutations should leave many specs valid ({ok})");
}
