//! The traced run: every job executed once on this thread, with a
//! span around each call into a layer, and the spans reduced to
//! per-layer metrics.
//!
//! Some layers run inside one public call and cannot be timed apart
//! from outside it: `Pipeline::new` runs `cfir_analyze::analyze`;
//! a recorded `Pipeline::run` ends with `critpath::analyze`;
//! `cfir_sample::run_sampled` fast-forwards, checkpoints and replays
//! windows. For those the traced run makes *probe* calls that repeat
//! the inner work on its own (an explicit `analyze`, a second
//! `critpath::analyze` over the same log, a bare run of the same job,
//! the sampling loop driven piece by piece) and carves the outer span
//! with the probe's time. The layer table therefore partitions the
//! traced wall exactly into layer self times, probe time, the rest of
//! each job span (`job.other`) and an untimed remainder.

use crate::check::Checker;
use crate::host;
use crate::trace::Tracer;
use crate::workload::{label, named, Kind};
use crate::Metric;
use cfir_harness::{Cache, JobResult, JobSpec};
use cfir_obs::critpath;
use cfir_sample::{
    replay_window, run_sampled, Checkpoint, SamplingConfig, WarmingEmulator, WindowRow,
};
use cfir_sim::{Mode, Pipeline, SimConfig, SimStats};
use cfir_workloads::Workload;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Counters of one traced job.
#[derive(Debug, Clone, Default)]
struct Facts {
    kernel: String,
    mode: Option<Mode>,
    cycles: u64,
    committed: u64,
    fetched: u64,
    branches: u64,
    mispredicts: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    replicas_created: u64,
    committed_reuse: u64,
    validation_failures: u64,
    lifecycle_records: u64,
    heap_growth: i64,
    ff_insts: u64,
    snapshot_bytes: u64,
    /// `Pipeline`s the job's own run built: one per full job, one per
    /// measured window of `run_sampled`.
    pipelines: u64,
}

impl Facts {
    fn new(job: &JobSpec, s: &SimStats) -> Facts {
        Facts {
            kernel: named(job).0.to_string(),
            mode: Some(job.cfg.mode),
            cycles: s.cycles,
            committed: s.committed,
            fetched: s.fetched,
            branches: s.branches,
            mispredicts: s.mispredicts,
            l1d_accesses: s.l1d_accesses,
            l1d_misses: s.l1d_misses,
            replicas_created: s.replicas_created,
            committed_reuse: s.committed_reuse,
            validation_failures: s.validation_failures,
            lifecycle_records: s.lifecycle_records,
            pipelines: 1,
            ..Facts::default()
        }
    }
}

/// The job's config with its budget, as `JobSpec::execute` builds it.
fn run_config(job: &JobSpec) -> SimConfig {
    let mut cfg = job.cfg.clone();
    cfg.max_insts = job.max_insts;
    cfg.cosim_check = false;
    cfg
}

/// A full detailed job (`detailed`, `insight`), as `JobSpec::execute`
/// runs it, plus the probes that split it.
fn full_job(tr: &mut Tracer, kind: Kind, job: &JobSpec, w: &Workload) -> (JobResult, Facts) {
    let cfg = run_config(job);
    tr.span("probe.analyze", |_| {
        black_box(cfir_analyze::analyze(&w.prog))
    });
    let mut p = tr.span("sim.new", |_| {
        Pipeline::new(&w.prog, w.mem.clone(), cfg.clone())
    });
    p.scope_trace(&format!("{:016x}", job.key()));
    // Heap the run leaves allocated: on `insight`, the lifecycle log.
    let heap0 = host::live_heap();
    tr.span("sim.run", |_| p.run());
    let heap_growth = host::live_heap() - heap0;
    if kind == Kind::Insight {
        let log = p.lifecycle().expect("insight jobs record the lifecycle");
        tr.span("probe.critpath", |_| {
            black_box(critpath::analyze(
                log,
                cfg.commit_width as u64,
                cfg.window as usize,
            ))
        });
    }
    let mode = cfg.mode.label();
    let snapshot = tr.span("snapshot.json", |_| {
        cfir_sim::run_json(w.name, mode, &p.stats)
    });
    let mut facts = Facts::new(job, &p.stats);
    facts.heap_growth = heap_growth;
    facts.snapshot_bytes = snapshot.len() as u64;
    let result = JobResult::from_stats(w.name, mode, &p.stats, snapshot);
    drop(p);
    if kind == Kind::Insight {
        // The same job with recording off: the cycle loop alone.
        let mut bare_cfg = cfg;
        bare_cfg.record_lifecycle = false;
        let mut q = tr.span("probe.bare_new", |_| {
            Pipeline::new(&w.prog, w.mem.clone(), bare_cfg)
        });
        tr.span("probe.bare_run", |_| q.run());
    }
    (result, facts)
}

/// A sampled job: `run_sampled` as `JobSpec::execute` calls it, then
/// the same sampling loop driven piece by piece (the split), whose
/// windows must equal `run_sampled`'s.
fn sampled_job(tr: &mut Tracer, job: &JobSpec, w: &Workload) -> Result<(JobResult, Facts), String> {
    let cfg = run_config(job);
    let sp = job.sampling.expect("sampled job");
    let scfg = SamplingConfig {
        period: sp.period,
        warmup: sp.warmup,
        window: sp.window,
        ..Default::default()
    };
    tr.span("probe.analyze", |_| {
        black_box(cfir_analyze::analyze(&w.prog))
    });
    let run = tr.span("sample.run_sampled", |_| {
        run_sampled(&w.prog, &w.mem, w.name, cfg.clone(), scfg.clone())
    });
    let (rows, ff_insts) = tr.span("probe.split", |tr| split(tr, w, &cfg, &scfg));
    if rows != run.windows {
        return Err(format!(
            "sampled split measured {} windows that differ from run_sampled's {}",
            rows.len(),
            run.windows.len()
        ));
    }
    let mode = cfg.mode.label();
    let snapshot = tr.span("snapshot.json", |_| run.snapshot_json(mode));
    // The run's stats sum the measured windows only.
    let mut facts = Facts::new(job, &run.stats);
    facts.ff_insts = ff_insts;
    facts.snapshot_bytes = snapshot.len() as u64;
    facts.pipelines = run.windows.len() as u64;
    let result = JobResult::from_stats(w.name, mode, &run.stats, snapshot);
    Ok((result, facts))
}

/// `cfir_sample::run_sampled`'s loop (jitter 0, no window cap) from
/// its public pieces, with a span around each. Also times a checkpoint
/// codec round trip and a window set-up (`Checkpoint::memory`,
/// `Pipeline::new`, `restore_checkpoint`) per window, the set-up
/// `replay_window` starts with. Returns the windows and the
/// instructions fast-forwarded.
fn split(
    tr: &mut Tracer,
    w: &Workload,
    cfg: &SimConfig,
    scfg: &SamplingConfig,
) -> (Vec<WindowRow>, u64) {
    let budget = cfg.max_insts;
    let mut warm = tr.span("sample.warm_new", |_| {
        WarmingEmulator::new(&w.prog, w.mem.clone(), cfg)
    });
    let mut rows = Vec::new();
    for k in 0u64.. {
        let meas_start = k * scfg.period;
        let warm_start = meas_start.saturating_sub(scfg.warmup);
        if meas_start + scfg.window > budget {
            break;
        }
        if warm.retired() < warm_start {
            let n = warm_start - warm.retired();
            tr.span("sample.ff", |_| warm.fast_forward(n));
        }
        if warm.done() {
            break;
        }
        let ckpt = tr.span("sample.checkpoint", |_| warm.checkpoint());
        tr.span("sample.ckpt_codec", |_| {
            let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("checkpoint round-trips");
            assert_eq!(
                back.content_id(),
                ckpt.content_id(),
                "codec changed the checkpoint"
            );
        });
        tr.span("sample.window_setup", |tr| {
            let mem = ckpt.memory();
            let mut p = tr.span("sim.new", |_| Pipeline::new(&w.prog, mem, cfg.clone()));
            p.restore_checkpoint(&ckpt.warm_start());
            black_box(&p);
        });
        let warmup = meas_start - warm_start;
        let rep = tr.span("sample.replay_window", |_| {
            replay_window(&w.prog, &ckpt, cfg, warmup, scfg.window)
        });
        if rep.row.committed > 0 {
            rows.push(rep.row);
        }
        if rep.halted {
            break;
        }
    }
    if !warm.done() && warm.retired() < budget {
        let n = budget - warm.retired();
        tr.span("sample.ff", |_| warm.fast_forward(n));
    }
    (rows, warm.retired())
}

/// Outcome of the traced pass.
pub struct Traced {
    /// The pass's spans.
    pub tracer: Tracer,
    facts: Vec<Facts>,
    /// Wall seconds of the traced pass.
    pub wall: f64,
    /// Jobs that failed a check of the traced pass.
    pub failed: u64,
    /// Each job's result, in job order (`None` = failed).
    pub results: Vec<Option<JobResult>>,
}

/// Run every job once on this thread, traced. Results go through the
/// same checks as an untraced pass, plus a cache round trip.
pub fn traced_pass(kind: Kind, jobs: &[JobSpec], checker: &mut Checker, scratch: &Path) -> Traced {
    let _ = std::fs::remove_dir_all(scratch);
    let cache = Cache::new(scratch.join("cache"));
    let mut tr = Tracer::new();
    let mut facts = Vec::new();
    let mut results = Vec::new();
    let mut failed = 0;
    host::count_heap(true);
    let t0 = std::time::Instant::now();
    for (j, job) in jobs.iter().enumerate() {
        tr.set_job(j);
        let mark = tr.mark();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tr.span("job", |tr| -> Result<(JobResult, Facts), String> {
                let (name, spec) = named(job);
                let w = tr
                    .span("workloads.build", |_| cfir_workloads::by_name(name, spec))
                    .ok_or_else(|| format!("unknown kernel {name}"))?;
                let (result, facts) = match kind {
                    Kind::Sampled => sampled_job(tr, job, &w)?,
                    _ => full_job(tr, kind, job, &w),
                };
                tr.span("harness.cache_put", |_| cache.put(job, &result))?;
                let back = tr.span("harness.cache_get", |_| cache.get(job))?;
                if back.as_ref() != Some(&result) {
                    return Err("cache round trip changed the result".into());
                }
                Ok((result, facts))
            })
        }))
        .unwrap_or_else(|_| {
            // The panicking job's spans are dropped; its time stays in
            // the untimed remainder.
            tr.rollback(mark);
            Err("panicked".into())
        })
        .and_then(|(r, f)| checker.check(&label(job), job, &r).map(|()| (r, f)));
        match outcome {
            Ok((r, f)) => {
                results.push(Some(r));
                facts.push(f);
            }
            Err(e) => {
                eprintln!("perfbench: {}: FAILED: {e}", label(job));
                failed += 1;
                results.push(None);
                facts.push(Facts::default());
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    host::count_heap(false);
    let _ = std::fs::remove_dir_all(scratch);
    Traced {
        tracer: tr,
        facts,
        wall,
        failed,
        results,
    }
}

/// Per-layer self time of the traced pass, by layer. Each job span is
/// split exactly into these rows plus its probe time (see module
/// docs); `probe` and `untimed` rows complete the traced wall.
fn layer_table(kind: Kind, t: &Traced) -> (Vec<(&'static str, f64)>, Vec<f64>) {
    let tr = &t.tracer;
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let mut add = |name: &'static str, v: f64| match rows.iter_mut().find(|(n, _)| *n == name) {
        Some((_, acc)) => *acc += v,
        None => rows.push((name, v)),
    };
    // Per job: time of the cycle loop proper (sim.run row).
    let mut run_rows = vec![0.0; t.facts.len()];
    let mut probes = 0.0;
    for (j, run_row) in run_rows.iter_mut().enumerate() {
        let s = |n: &str| tr.sum(j, n);
        let a = s("probe.analyze");
        let (build, json, put, get) = (
            s("workloads.build"),
            s("snapshot.json"),
            s("harness.cache_put"),
            s("harness.cache_get"),
        );
        let mut inner = build + a + json + put + get;
        add("workloads", build);
        add("snapshot", json);
        add("harness.cache", put);
        match kind {
            Kind::Detailed | Kind::Insight => {
                let (new, run) = (s("sim.new"), s("sim.run"));
                let (cp, bare_new, bare) = (
                    s("probe.critpath"),
                    s("probe.bare_new"),
                    s("probe.bare_run"),
                );
                add("analyze", a);
                add("sim.new", new - a);
                if kind == Kind::Insight {
                    *run_row = bare;
                    add("lifecycle", run - bare - cp);
                    add("critpath", cp);
                } else {
                    *run_row = run;
                }
                add("sim.run", *run_row);
                probes += a + cp + bare_new + bare + get;
                inner += new + run + cp + bare_new + bare;
            }
            Kind::Sampled => {
                let rs = s("sample.run_sampled");
                let split = s("probe.split");
                let (warm_new, ff, ck) =
                    (s("sample.warm_new"), s("sample.ff"), s("sample.checkpoint"));
                let (setup, new, replay) = (
                    s("sample.window_setup"),
                    s("sim.new"),
                    s("sample.replay_window"),
                );
                let a_all = a * tr.count(j, "sim.new") as f64;
                *run_row = replay - setup;
                add("sample.ff", warm_new + ff);
                add("sample.checkpoint", ck);
                add("analyze", a_all);
                add("sim.new", new - a_all);
                add("sample.window_setup", setup - new);
                add("sim.run", *run_row);
                add("sample.other", rs - (warm_new + ff + ck + replay));
                probes += a + split + get;
                inner += rs + split;
            }
        }
        add("job.other", s("job") - inner);
    }
    rows.push(("probe", probes));
    rows.push(("untimed", t.wall - tr.root_total()));
    (rows, run_rows)
}

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Print the layer table and return every per-layer metric but the
/// comparison with untraced passes. `busy_frac` is the pool occupancy
/// of an untraced pass with the benchmark's worker count.
pub fn report(kind: Kind, t: &Traced, busy_frac: f64, modelled: &[Metric]) -> Vec<Metric> {
    let (rows, run_rows) = layer_table(kind, t);
    let row = |n: &str| rows.iter().find(|(k, _)| *k == n).map_or(0.0, |r| r.1);
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "layer self times, traced pass on one thread (base: traced wall {:.4} s; rows sum to {:.4} s):",
        t.wall, total
    );
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, v) in &sorted {
        println!("  {name:<22} {v:>10.4} s  {:>6.1}%", 100.0 * v / t.wall);
    }
    let largest = sorted
        .iter()
        .find(|(n, _)| !matches!(*n, "probe" | "untimed"))
        .map_or("none", |r| r.0);
    println!("  largest layer self time: {largest}");
    let sample: f64 = rows
        .iter()
        .filter(|(n, _)| n.starts_with("sample."))
        .map(|r| r.1)
        .sum();
    if sample > 0.0 {
        println!(
            "  sample.* layers together: {sample:.4} s = {:.1}% of the traced wall",
            100.0 * sample / t.wall
        );
    }

    let f = &t.facts;
    let sum = |g: fn(&Facts) -> u64| f.iter().map(g).sum::<u64>() as f64;
    let tr = &t.tracer;
    let span_sum = |n: &str| (0..f.len()).map(|j| tr.sum(j, n)).sum::<f64>();
    let mut m = vec![
        Metric::new("workloads.build_s", row("workloads"), "s"),
        Metric::new("analyze.s", row("analyze"), "s"),
        Metric::new("sim.new_s", row("sim.new"), "s"),
        Metric::new("sim.new_calls", sum(|x| x.pipelines), "count"),
        Metric::new("sim.run_s", row("sim.run"), "s"),
        Metric::new("sim.cycles", sum(|x| x.cycles), "count"),
        Metric::new("sim.committed", sum(|x| x.committed), "count"),
    ];
    for mode in [
        Mode::Scalar,
        Mode::WideBus,
        Mode::CiIw,
        Mode::Ci,
        Mode::Vect,
    ] {
        let (mut run, mut cycles) = (0.0, 0u64);
        for (x, r) in f.iter().zip(&run_rows) {
            if x.mode == Some(mode) {
                run += r;
                cycles += x.cycles;
            }
        }
        m.push(Metric::named(
            format!("sim.host_ns_per_cycle.{}", mode.label()),
            ratio(run * 1e9, cycles as f64),
            "ns/cycle",
        ));
    }
    m.push(Metric::new(
        "sim.fetched_per_commit",
        ratio(sum(|x| x.fetched), sum(|x| x.committed)),
        "ratio",
    ));
    // Mechanism cost by mode difference, same kernel and budget:
    // ci-iw adds CI selection to wb, ci adds the replica engine.
    let run_of = |kernel: &str, mode: Mode| -> Option<f64> {
        f.iter()
            .zip(&run_rows)
            .find(|(x, _)| x.kernel == kernel && x.mode == Some(mode))
            .map(|(_, r)| *r)
    };
    let (mut select, mut replica) = (0.0, 0.0);
    for x in f.iter().filter(|x| x.mode == Some(Mode::CiIw)) {
        if let (Some(wb), Some(iw), Some(ci)) = (
            run_of(&x.kernel, Mode::WideBus),
            run_of(&x.kernel, Mode::CiIw),
            run_of(&x.kernel, Mode::Ci),
        ) {
            select += iw - wb;
            replica += ci - iw;
        }
    }
    let records = sum(|x| x.lifecycle_records);
    let ff_s = row("sample.ff");
    let replay = span_sum("sample.replay_window");
    m.extend([
        Metric::new("core.select_s", select, "s"),
        Metric::new("core.replica_s", replica, "s"),
        Metric::new(
            "core.replicas_created",
            sum(|x| x.replicas_created),
            "count",
        ),
        Metric::new(
            "core.replica_reuse_ratio",
            ratio(sum(|x| x.committed_reuse), sum(|x| x.replicas_created)),
            "ratio",
        ),
        Metric::new(
            "core.validation_failures",
            sum(|x| x.validation_failures),
            "count",
        ),
        Metric::new(
            "predict.mispredict_rate",
            ratio(sum(|x| x.mispredicts), sum(|x| x.branches)),
            "ratio",
        ),
        Metric::new(
            "mem.l1d_miss_rate",
            ratio(sum(|x| x.l1d_misses), sum(|x| x.l1d_accesses)),
            "ratio",
        ),
        Metric::new("lifecycle.records", records, "count"),
        Metric::new("lifecycle.record_s", row("lifecycle"), "s"),
        Metric::new(
            "lifecycle.bytes_per_record",
            ratio(f.iter().map(|x| x.heap_growth).sum::<i64>() as f64, records),
            "B/record",
        ),
        Metric::new("critpath.analyze_s", row("critpath"), "s"),
        Metric::new(
            "critpath.ns_per_record",
            ratio(row("critpath") * 1e9, records),
            "ns/record",
        ),
        Metric::new("snapshot.json_s", row("snapshot"), "s"),
        Metric::new("snapshot.bytes", sum(|x| x.snapshot_bytes), "B"),
        Metric::new("harness.cache_put_s", row("harness.cache"), "s"),
        Metric::new("harness.cache_get_s", span_sum("harness.cache_get"), "s"),
        Metric::new("harness.pool_busy_frac", busy_frac, "ratio"),
        Metric::new("sample.ff_s", ff_s, "s"),
        Metric::new(
            "sample.ff_minsts_per_s",
            ratio(sum(|x| x.ff_insts), ff_s * 1e6),
            "Minst/s",
        ),
        Metric::new("sample.checkpoint_s", row("sample.checkpoint"), "s"),
        Metric::new("sample.ckpt_codec_s", span_sum("sample.ckpt_codec"), "s"),
        Metric::new(
            "sample.window_setup_s",
            span_sum("sample.window_setup"),
            "s",
        ),
        Metric::new(
            "sample.window_run_s",
            if kind == Kind::Sampled {
                row("sim.run")
            } else {
                0.0
            },
            "s",
        ),
        Metric::new(
            "sample.detail_frac",
            ratio(replay, ff_s + row("sample.checkpoint") + replay),
            "ratio",
        ),
    ]);
    m.extend(
        modelled
            .iter()
            .map(|x| Metric::named(format!("model.{}", x.name), x.value, x.unit)),
    );
    m.extend([
        Metric::new("trace.wall_s", t.wall, "s"),
        Metric::new("trace.untimed_s", row("untimed"), "s"),
        Metric::new("trace.probe_s", row("probe"), "s"),
    ]);
    m
}
