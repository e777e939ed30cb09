//! `cfir-suite` — parallel, resumable orchestration of the whole
//! evaluation.
//!
//! Every figure/table/ablation is declared as data in
//! `cfir_bench::experiments`; this binary schedules any subset of that
//! matrix on the `cfir-harness` work-stealing pool, with per-job panic
//! isolation, bounded retries, a wall-clock watchdog, and a
//! content-addressed result cache so `--resume` skips every point that
//! already ran. Aggregation reduces results in job-definition order,
//! so the artifacts under `results/` are byte-identical for `--jobs 1`
//! and `--jobs 16` — and identical to what the retired serial
//! per-figure programs produced.
//!
//! ```sh
//! cfir-suite --all --jobs $(nproc)        # regenerate everything
//! cfir-suite --all --resume               # again, from cache (0 jobs)
//! cfir-suite fig09 fig10 --emit-json      # a subset, with JSON bundles
//! cfir-suite --profile smoke --jobs 2     # the CI fast path
//! cfir-suite --list                       # what exists
//! ```

use cfir_bench::experiments::{by_name, profile, Params, EXPERIMENT_NAMES};
use cfir_harness::{run_suite, Experiment, SuiteOptions};
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: cfir-suite [experiments..] [flags]\n\
         \x20 <name>..          experiments to run (see --list)\n\
         \x20 --all             every experiment, canonical order\n\
         \x20 --profile NAME    smoke | figures | ablations | extras | all\n\
         \x20 --jobs N          worker threads (default: available parallelism)\n\
         \x20 --resume          reuse cached results for unchanged points\n\
         \x20 --retries N       extra attempts per failing job (default 0)\n\
         \x20 --timeout SECS    per-job wall-clock budget (default 600, 0 = none)\n\
         \x20 --cache-dir PATH  result cache (default target/cfir-suite-cache)\n\
         \x20 --out-dir PATH    artifact directory (default results/)\n\
         \x20 --emit-json       also write JSON snapshot bundles\n\
         \x20 --bench-json [P]  write a wall-clock benchmark summary JSON\n\
         \x20                   (default path BENCH_6.json)\n\
         \x20 --insts N         committed-instruction budget (overrides CFIR_INSTS)\n\
         \x20 --quiet           suppress per-experiment tables\n\
         \x20 --list            list experiments and profiles, run nothing\n\
         env: CFIR_INSTS, CFIR_ELEMS, CFIR_SEED\n\
         exit: 0 all ok; 1 any job/aggregation failed; 2 usage error"
    );
    std::process::exit(2)
}

fn list() -> ! {
    let p = Params::from_env();
    println!("experiments:");
    for name in EXPERIMENT_NAMES {
        let e = by_name(&p, name).expect("registered");
        println!("  {:<14} {:>4} jobs  {}", e.name, e.jobs.len(), e.title);
    }
    println!("profiles:");
    for prof in ["smoke", "figures", "ablations", "extras", "all"] {
        println!("  {:<14} {}", prof, profile(prof).unwrap().join(" "));
    }
    std::process::exit(0)
}

/// The `results/INDEX.md` preamble; the experiment list below it is
/// generated from the matrix itself.
const INDEX_HEADER: &str = "# results/\n\n\
    Outputs of the evaluation suite (see EXPERIMENTS.md for the\n\
    paper-vs-measured discussion). Regenerate everything with\n\
    `cfir-suite --all --jobs $(nproc)`; any single experiment with\n\
    `cfir-suite <name>`.\n\n\
    - `final_run.txt` — **the canonical record**: one full sequential run of\n\
    \x20 table1 + fig04..fig14 + exp_regs + exp_coherence + ablations +\n\
    \x20 exp_limit + exp_warmup with the final code and defaults\n\
    \x20 (CFIR_INSTS=150000).\n\
    - `all_figures.txt`, `updates.txt` — earlier intermediate runs kept for\n\
    \x20 provenance (pre- event-attribution fix and pre- blacklist-knob).\n\
    - `*.csv` — machine-readable tables (latest run wins).\n\
    - `baselines/` — the pinned CI perf-gate reference (CFIR_INSTS=20000);\n\
    \x20 refresh with `scripts/refresh-baselines.sh`.\n\n\
    Experiments and the artifacts they own:\n\n";

fn write_index(experiments: &[Experiment], out_dir: &std::path::Path) {
    let mut doc = String::from(INDEX_HEADER);
    for e in experiments {
        use std::fmt::Write as _;
        let _ = writeln!(doc, "- `{}` ({} jobs) — {}", e.name, e.jobs.len(), e.title);
    }
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join("INDEX.md");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("cfir-suite: could not write {}: {e}", path.display());
    }
}

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut all = false;
    let mut do_list = false;
    let mut bench_json: Option<String> = None;
    let mut insts: Option<u64> = None;
    let mut opts = SuiteOptions::default();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("cfir-suite: {a} wants a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--help" | "-h" => usage(),
            "--list" => do_list = true,
            "--all" => all = true,
            "--profile" => {
                let v = value();
                match profile(&v) {
                    Some(p) => names.extend(p.iter().map(|s| s.to_string())),
                    None => {
                        eprintln!("cfir-suite: unknown profile `{v}`");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                opts.jobs = value().parse().unwrap_or_else(|_| {
                    eprintln!("cfir-suite: --jobs wants a number");
                    std::process::exit(2);
                })
            }
            "--retries" => {
                opts.retries = value().parse().unwrap_or_else(|_| {
                    eprintln!("cfir-suite: --retries wants a number");
                    std::process::exit(2);
                })
            }
            "--timeout" => {
                let secs: u64 = value().parse().unwrap_or_else(|_| {
                    eprintln!("cfir-suite: --timeout wants seconds");
                    std::process::exit(2);
                });
                opts.timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value())),
            "--out-dir" => opts.out_dir = PathBuf::from(value()),
            "--emit-json" => opts.emit_json = true,
            "--bench-json" => {
                // An optional output path follows iff it looks like one
                // (so experiment names are never swallowed).
                bench_json = Some(match args.peek() {
                    Some(n) if n.ends_with(".json") => args.next().unwrap(),
                    _ => "BENCH_6.json".to_string(),
                });
            }
            "--resume" => opts.resume = true,
            "--quiet" => opts.quiet = true,
            "--insts" => {
                insts = Some(value().parse().unwrap_or_else(|_| {
                    eprintln!("cfir-suite: --insts wants a number");
                    std::process::exit(2);
                }))
            }
            other if other.starts_with('-') => {
                eprintln!("cfir-suite: unknown flag {other}");
                usage()
            }
            name => names.push(name.to_string()),
        }
    }
    if do_list {
        list();
    }
    if all {
        names = EXPERIMENT_NAMES.iter().map(|s| s.to_string()).collect();
    } else {
        // Keep first occurrence of each requested name.
        let mut seen = std::collections::HashSet::new();
        names.retain(|n| seen.insert(n.clone()));
    }
    if names.is_empty() {
        eprintln!("cfir-suite: nothing to run (name experiments, --profile, or --all)");
        usage();
    }

    let mut p = Params::from_env();
    if let Some(n) = insts {
        p.max_insts = n;
    }
    let experiments: Vec<Experiment> = names
        .iter()
        .map(|n| {
            by_name(&p, n).unwrap_or_else(|| {
                eprintln!("cfir-suite: unknown experiment `{n}` (see --list)");
                std::process::exit(2);
            })
        })
        .collect();

    if all {
        write_index(&experiments, &opts.out_dir);
    }
    let report = run_suite(experiments, &opts);
    for e in &report.experiments {
        if let Some(err) = &e.error {
            eprintln!("cfir-suite: {}: {err}", e.name);
        }
    }
    println!("{}", report.summary_line());
    if let Some(path) = &bench_json {
        // Key order and the original three keys are stable; newer
        // fields only ever append (downstream tooling greps these).
        use std::fmt::Write as _;
        let mut doc = format!(
            "{{\"suite_wall_s\": {:.3}, \"jobs\": {}, \"cache_hits\": {}, \"peak_workers\": {}, \"experiments\": [",
            report.wall.as_secs_f64(),
            report.executed,
            report.cached,
            report.peak_workers
        );
        for (i, e) in report.experiments.iter().enumerate() {
            let _ = write!(
                doc,
                "{}{{\"name\": \"{}\", \"wall_s\": {:.3}, \"executed\": {}, \"cached\": {}, \"ok\": {}, \"jobs\": {}, \"deduped\": {}}}",
                if i > 0 { ", " } else { "" },
                e.name,
                e.wall.as_secs_f64(),
                e.executed,
                e.cached,
                e.ok(),
                e.jobs,
                e.deduped
            );
        }
        // Detailed-core throughput of the points simulated this run
        // (cache hits excluded); `insts_per_sec` is what the CI perf
        // gate compares against the committed floor.
        let committed: u64 = report.perf.iter().map(|p| p.committed).sum();
        let wall_s: f64 = report.perf.iter().map(|p| p.wall.as_secs_f64()).sum();
        let _ = write!(
            doc,
            "], \"perf\": {{\"committed_insts\": {committed}, \"detailed_wall_s\": {wall_s:.3}, \"insts_per_sec\": {:.1}, \"kernels\": [",
            if wall_s > 0.0 { committed as f64 / wall_s } else { 0.0 }
        );
        for (i, p) in report.perf.iter().enumerate() {
            let _ = write!(
                doc,
                "{}{{\"name\": \"{}\", \"mode\": \"{}\", \"committed\": {}, \"wall_s\": {:.3}, \"insts_per_sec\": {:.1}}}",
                if i > 0 { ", " } else { "" },
                p.name,
                p.mode,
                p.committed,
                p.wall.as_secs_f64(),
                p.insts_per_sec()
            );
        }
        doc.push_str("]}}\n");
        match std::fs::write(path, doc) {
            Ok(()) => println!("[bench summary written to {path}]"),
            Err(e) => {
                eprintln!("cfir-suite: could not write {path}: {e}");
                std::process::exit(1)
            }
        }
    }
    std::process::exit(if report.all_ok() { 0 } else { 1 })
}
