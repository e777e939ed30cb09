//! Untraced measurement: whole-workload passes through
//! `cfir_harness::run_suite`, and the set-up time of a workload.

use crate::check::Checker;
use crate::workload::{label, named, sampled_windows};
use cfir_harness::{run_suite, Experiment, ExperimentOutput, JobResult, JobSpec, SuiteOptions};
use cfir_sample::WarmingEmulator;
use cfir_sim::Pipeline;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock budget of one job. A job over it counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// One pass: every job of the workload once, on a fresh cache.
pub struct Pass {
    /// Wall-clock seconds of the `run_suite` call.
    pub wall: f64,
    /// Per-job label (`kernel/mode`, as [`label`] gives it) and wall
    /// seconds of the simulating attempt (`SuiteReport::perf`,
    /// successful jobs only).
    pub job_walls: Vec<(String, f64)>,
    /// Summed job wall over `workers x wall`: how busy the pool kept
    /// its workers.
    pub busy_frac: f64,
    /// Each job's result, in job order; `None` when the job failed in
    /// the pool (panic, error or watchdog).
    pub results: Vec<Option<JobResult>>,
}

/// Run every job once through `run_suite` with `workers` threads,
/// with a fresh, empty cache and output directory under `scratch`
/// (removed afterwards), so every job executes.
pub fn run_pass(jobs: &[JobSpec], workers: usize, scratch: &Path) -> Pass {
    let _ = std::fs::remove_dir_all(scratch);
    let slots: Arc<Mutex<Vec<Option<JobResult>>>> = Arc::new(Mutex::new(vec![None; jobs.len()]));
    // One experiment per job, so a failing job fails alone and every
    // other result still reaches the checks.
    let experiments = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let slots = Arc::clone(&slots);
            Experiment {
                name: "perfbench",
                title: "benchmark job",
                jobs: vec![job.clone()],
                aggregate: Box::new(move |_, results| {
                    slots.lock().expect("no aggregation panics")[i] = Some(results[0].clone());
                    Ok(ExperimentOutput::default())
                }),
            }
        })
        .collect();
    let opts = SuiteOptions {
        jobs: workers,
        retries: 0,
        timeout: Some(JOB_TIMEOUT),
        resume: false,
        cache_dir: Some(scratch.join("cache")),
        emit_json: false,
        out_dir: scratch.join("out"),
        quiet: true,
    };
    let report = run_suite(experiments, &opts);
    let _ = std::fs::remove_dir_all(scratch);
    let wall = report.wall.as_secs_f64();
    let job_walls: Vec<(String, f64)> = report
        .perf
        .iter()
        .map(|p| (format!("{}/{}", p.name, p.mode), p.wall.as_secs_f64()))
        .collect();
    let busy_frac = job_walls.iter().map(|(_, w)| w).sum::<f64>() / (workers as f64 * wall);
    let results = std::mem::take(&mut *slots.lock().expect("pool finished"));
    Pass {
        wall,
        job_walls,
        busy_frac,
        results,
    }
}

/// Check every job of a pass; returns the number that failed, and
/// prints why each did.
pub fn check_pass(checker: &mut Checker, jobs: &[JobSpec], pass: &Pass) -> u64 {
    let mut failed = 0;
    for (job, r) in jobs.iter().zip(&pass.results) {
        let l = label(job);
        let verdict = match r {
            None => Err("job failed in the pool".to_string()),
            Some(r) => checker.check(&l, job, r),
        };
        if let Err(e) = verdict {
            eprintln!("perfbench: {l}: FAILED: {e}");
            failed += 1;
        }
    }
    failed
}

/// Instructions a job's result stands for: committed instructions of
/// a full run, the covered budget (`sampling.ff_insts`) of a sampled
/// one.
pub fn simulated_insts(job: &JobSpec, r: &JobResult) -> u64 {
    if job.sampling.is_none() {
        return r.committed;
    }
    cfir_obs::json::parse(&r.snapshot)
        .ok()
        .and_then(|v| v.get("sampling")?.get("ff_insts")?.as_u64())
        .unwrap_or(0)
}

/// Seconds to set up every job of a workload once, on this thread:
/// generate each kernel and construct every `Pipeline` the job
/// builds (each runs `cfir_analyze::analyze`). A sampled job builds
/// its warming emulator and one window pipeline per measured window,
/// each restored from a checkpoint, as `cfir_sample::run_sampled`
/// does.
pub fn setup_once(jobs: &[JobSpec]) -> f64 {
    let t = Instant::now();
    for job in jobs {
        let (name, spec) = named(job);
        let w = cfir_workloads::by_name(name, spec).expect("benchmark kernels exist");
        let mut cfg = job.cfg.clone();
        cfg.max_insts = job.max_insts;
        if job.sampling.is_none() {
            black_box(Pipeline::new(&w.prog, w.mem.clone(), cfg));
            continue;
        }
        let warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg);
        let ckpt = warm.checkpoint();
        for _ in 0..sampled_windows(job) {
            let mut p = Pipeline::new(&w.prog, ckpt.memory(), cfg.clone());
            p.restore_checkpoint(&ckpt.warm_start());
            black_box(&p);
        }
    }
    t.elapsed().as_secs_f64()
}
