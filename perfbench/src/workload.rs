//! The three benchmark workloads as lists of harness jobs.
//!
//! Every job is a `cfir_harness::JobSpec`, the same value `cfir-suite`
//! schedules, so the benchmark measures the path users run. Configs
//! are canonicalised exactly like `cfir_bench::experiments` does
//! (cosim off, 10k-cycle interval sampling). A `detailed` job at the
//! default seed is the matching `fig10` job run with
//! `CFIR_INSTS=30000`; the figures run 150k instructions per job.

use cfir_harness::{JobSpec, SamplingParams, WorkloadRef};
use cfir_sim::{Mode, RegFileSize, SimConfig};
use cfir_workloads::{WorkloadSpec, NAMES};

/// The workload seed the stored digests were taken at
/// (`WorkloadSpec::default().seed`, the seed every suite figure uses).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure-10 matrix: 12 kernels x {scal, wb, ci-iw, ci}, full
    /// detailed runs, lifecycle off.
    Detailed,
    /// `exp_bottleneck` job shape: lifecycle recording plus
    /// `critpath::analyze` in every run.
    Insight,
    /// 12 kernels in `ci` mode under checkpointed sampling.
    Sampled,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn from_name(s: &str) -> Option<Kind> {
        match s {
            "detailed" => Some(Kind::Detailed),
            "insight" => Some(Kind::Insight),
            "sampled" => Some(Kind::Sampled),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Detailed => "detailed",
            Kind::Insight => "insight",
            Kind::Sampled => "sampled",
        }
    }
}

/// Instruction budgets of one workload. `FULL` is what the benchmark
/// measures; the self-test shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Committed instructions per `detailed` job.
    pub detailed: u64,
    /// Committed instructions per `insight` job (one lifecycle record
    /// per dynamic instruction is kept, so memory grows with it).
    pub insight: u64,
    /// Instructions each `sampled` job covers.
    pub sampled: u64,
    /// Sampling period, warmup and window of a `sampled` job.
    pub sampling: SamplingParams,
}

impl Budget {
    /// The measured sizes. `detailed` runs 30k instructions per job,
    /// not the figures' 150k: a 40-second run then holds a dozen
    /// passes rather than four, and the medians over passes are what
    /// keeps the end-to-end figures steady. The shorter runs weigh the
    /// cold start more; RATIONALE.md measures how much. `insight` keeps
    /// `exp_bottleneck`'s 30k cap. `sampled` is the 1.5M-instruction
    /// measuring point at cfir-sample's default period, warmup and
    /// window (30 windows per kernel).
    pub const FULL: Budget = Budget {
        detailed: 30_000,
        insight: 30_000,
        sampled: 1_500_000,
        sampling: SamplingParams {
            period: 50_000,
            warmup: 3_500,
            window: 4_000,
        },
    };
}

/// Kernels of `insight`, trimmed for run length. Each stands for one
/// behaviour the bottleneck analysis must explain: a hard hammock
/// (bzip2), biased branches (gzip), pointer chasing (mcf) and
/// indirect jumps (perlbmk).
pub const INSIGHT_KERNELS: [&str; 4] = ["bzip2", "gzip", "mcf", "perlbmk"];

/// Machine modes of each workload, in job order.
pub fn modes(kind: Kind) -> &'static [Mode] {
    match kind {
        Kind::Detailed => &[Mode::Scalar, Mode::WideBus, Mode::CiIw, Mode::Ci],
        Kind::Insight => &[Mode::Scalar, Mode::WideBus, Mode::Ci, Mode::Vect],
        Kind::Sampled => &[Mode::Ci],
    }
}

fn kernels(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Insight => &INSIGHT_KERNELS,
        Kind::Detailed | Kind::Sampled => &NAMES,
    }
}

/// The suite's canonical configuration for `mode`: Table 1 baseline,
/// one L1D port, 512 registers.
pub fn config(mode: Mode, record_lifecycle: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_dports(1)
        .with_regs(RegFileSize::Finite(512));
    cfg.max_insts = 0;
    cfg.cosim_check = false;
    cfg.interval_cycles = 10_000;
    cfg.record_lifecycle = record_lifecycle;
    cfg
}

/// The jobs of `kind` at workload seed `seed`, mode-major like the
/// suite's figure matrices.
pub fn jobs(kind: Kind, seed: u64, budget: &Budget) -> Vec<JobSpec> {
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::default()
    };
    let (max_insts, sampling) = match kind {
        Kind::Detailed => (budget.detailed, None),
        Kind::Insight => (budget.insight, None),
        Kind::Sampled => (budget.sampled, Some(budget.sampling)),
    };
    let mut out = Vec::new();
    for &mode in modes(kind) {
        for name in kernels(kind) {
            out.push(JobSpec {
                workload: WorkloadRef::Named {
                    name: name.to_string(),
                    spec,
                },
                cfg: config(mode, kind == Kind::Insight),
                max_insts,
                sampling,
            });
        }
    }
    out
}

/// Kernel name and workload spec of a named job.
pub fn named(job: &JobSpec) -> (&str, WorkloadSpec) {
    match &job.workload {
        WorkloadRef::Named { name, spec } => (name, *spec),
        _ => unreachable!("benchmark jobs are named kernels"),
    }
}

/// Stable label of a job inside its workload, e.g. `bzip2/ci`.
pub fn label(job: &JobSpec) -> String {
    format!("{}/{}", named(job).0, job.cfg.mode.label())
}

/// Windows `cfir_sample::run_sampled` measures for a sampled job (its
/// loop bound, jitter 0): window `k` runs when
/// `k * period + window` fits in the budget.
pub fn sampled_windows(job: &JobSpec) -> u64 {
    let sp = job.sampling.expect("sampled job");
    if sp.window > job.max_insts {
        0
    } else {
        (job.max_insts - sp.window) / sp.period + 1
    }
}
