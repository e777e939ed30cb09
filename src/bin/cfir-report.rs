//! `cfir-report` — inspect, diff and gate the simulator's JSON
//! snapshots (see `DESIGN.md` for the schema).
//!
//! ```sh
//! # Pretty-print a snapshot (single run, or a bundle such as
//! # `cfir-suite smoke --emit-json` writes):
//! cfir-report results/smoke.json
//!
//! # Per-metric deltas between two snapshots; exit 1 when a gating
//! # metric (IPC, reuse fraction, CI-exploited fraction) regresses:
//! cfir-report diff results/baselines/smoke.json results/smoke.json
//!
//! # Same, phrased as a regression gate (CI uses this):
//! cfir-report check results/baselines/smoke.json results/smoke.json --tolerance 2%
//!
//! # Render a Konata pipeview trace (from `cfir-run --pipeview t.kanata`)
//! # as an ASCII timeline, zoomed on the first misprediction flush:
//! cfir-report timeline t.kanata --around-mispredict 1
//! ```
//!
//! `--tolerance` accepts `2%` or `0.02` (default `2%`); it is the
//! relative move a gating metric may make in the bad direction before
//! the check fails. Exit codes: 0 ok, 1 regression, 2 usage/IO error.
//!
//! `timeline` filters: `--pc N` (only that static instruction),
//! `--cycle-range LO..HI`, `--around-mispredict N` (window on the Nth
//! squash cluster, 1-based), `--width N` (columns, default 96).

use cfir::obs::{parse_konata, render_timeline, TimelineOpts};
use cfir::report;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: cfir-report <snapshot.json>\n\
         \x20      cfir-report diff  <old.json> <new.json> [--tolerance P%]\n\
         \x20      cfir-report check <baseline.json> <run.json> [--tolerance P%]\n\
         \x20      cfir-report bottleneck <run.json> [<baseline.json>]\n\
         \x20      cfir-report cidi <run.json>\n\
         \x20      cfir-report sampling <sampled.json> [<full.json>]\n\
         \x20      cfir-report timeline <trace.kanata> [--pc N] [--cycle-range LO..HI]\n\
         \x20                  [--around-mispredict N] [--width N]"
    );
    exit(2)
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(h) = s.strip_prefix("0x") {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn timeline(args: &[&str]) -> ! {
    let mut path: Option<&str> = None;
    let mut opts = TimelineOpts::default();
    let mut it = args.iter().copied();
    while let Some(a) = it.next() {
        match a {
            "--pc" => opts.pc = Some(it.next().and_then(parse_num).unwrap_or_else(|| usage())),
            "--cycle-range" => {
                let r = it.next().unwrap_or_else(|| usage());
                let (lo, hi) = r.split_once("..").unwrap_or_else(|| usage());
                opts.cycle_range = Some((
                    parse_num(lo).unwrap_or_else(|| usage()),
                    parse_num(hi).unwrap_or_else(|| usage()),
                ));
            }
            "--around-mispredict" => {
                opts.around_mispredict =
                    Some(it.next().and_then(parse_num).unwrap_or_else(|| usage()) as usize)
            }
            "--width" => {
                opts.max_cols = it
                    .next()
                    .and_then(parse_num)
                    .filter(|&n| n >= 24)
                    .unwrap_or_else(|| usage()) as usize
            }
            _ if !a.starts_with('-') && path.is_none() => path = Some(a),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cfir-report: cannot read {path}: {e}");
        exit(2)
    });
    let trace = parse_konata(&text).unwrap_or_else(|e| {
        eprintln!("cfir-report: {path}: {e}");
        exit(2)
    });
    match render_timeline(&trace, &opts) {
        Ok(out) => {
            print!("{out}");
            exit(0)
        }
        Err(e) => {
            eprintln!("cfir-report: {e}");
            exit(2)
        }
    }
}

fn load(path: &str) -> cfir::obs::json::JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cfir-report: cannot read {path}: {e}");
        exit(2)
    });
    report::parse_doc(&text).unwrap_or_else(|e| {
        eprintln!("cfir-report: {path}: {e}");
        exit(2)
    })
}

/// Warn (loudly) when any run of the document recorded dropped
/// lifecycle records; returns the count so `check` can gate on it.
fn warn_dropped(path: &str, doc: &cfir::obs::json::JsonValue) -> u64 {
    let dropped = report::lifecycle_dropped(doc);
    if dropped > 0 {
        eprintln!(
            "cfir-report: WARNING: {path}: {dropped} lifecycle records were dropped — \
             the bottleneck DAG (critical path, what-if projections) is incomplete; \
             re-run with an unbounded ring (record_lifecycle) to trust these numbers"
        );
    }
    dropped
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(|s| s.as_str()) == Some("timeline") {
        let rest: Vec<&str> = args[1..].iter().map(|s| s.as_str()).collect();
        timeline(&rest);
    }
    let mut files: Vec<&str> = Vec::new();
    let mut sub: Option<&str> = None;
    let mut tolerance = 0.02;
    let mut it = args.iter().map(|s| s.as_str()).peekable();
    while let Some(a) = it.next() {
        match a {
            "diff" | "check" | "--check" | "bottleneck" | "cidi" | "sampling"
                if sub.is_none() && files.is_empty() =>
            {
                sub = Some(a.trim_start_matches("--"));
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(report::parse_tolerance)
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ if !a.starts_with('-') => files.push(a),
            _ => usage(),
        }
    }

    match (sub, files.as_slice()) {
        (None, [path]) => {
            let doc = load(path);
            warn_dropped(path, &doc);
            print!("{}", report::render(&doc));
        }
        (Some("cidi"), [path]) => {
            let doc = load(path);
            let out = report::render_cidi(&doc).unwrap_or_else(|e| {
                eprintln!("cfir-report: {e}");
                exit(2)
            });
            print!("{out}");
        }
        (Some("sampling"), [path]) | (Some("sampling"), [path, _]) => {
            let doc = load(path);
            let full_doc = match files.as_slice() {
                [_, full] => Some(load(full)),
                _ => None,
            };
            let out = report::render_sampling(&doc, full_doc.as_ref()).unwrap_or_else(|e| {
                eprintln!("cfir-report: {e}");
                exit(2)
            });
            print!("{out}");
        }
        (Some("bottleneck"), [new]) | (Some("bottleneck"), [new, _]) => {
            let new_doc = load(new);
            warn_dropped(new, &new_doc);
            let old_doc = match files.as_slice() {
                [_, old] => Some(load(old)),
                _ => None,
            };
            let out = report::render_bottleneck(&new_doc, old_doc.as_ref()).unwrap_or_else(|e| {
                eprintln!("cfir-report: {e}");
                exit(2)
            });
            print!("{out}");
        }
        (Some(sub), [old, new]) => {
            let (old_doc, new_doc) = (load(old), load(new));
            warn_dropped(old, &old_doc);
            let dropped = warn_dropped(new, &new_doc);
            let outcome = report::diff(&old_doc, &new_doc, tolerance).unwrap_or_else(|e| {
                eprintln!("cfir-report: {e}");
                exit(2)
            });
            print!("{}", outcome.report);
            if outcome.regressed {
                eprintln!(
                    "cfir-report: regression beyond {:.2}% tolerance",
                    tolerance * 100.0
                );
                exit(1)
            }
            if sub == "check" && dropped > 0 {
                eprintln!("cfir-report: failing --check: the run dropped lifecycle records");
                exit(1)
            }
            println!("ok (tolerance {:.2}%)", tolerance * 100.0);
        }
        _ => usage(),
    }
}
