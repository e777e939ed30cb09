//! Shared simulation-running helpers.
//!
//! The declarative experiment matrix in [`crate::experiments`] is how
//! the evaluation runs (via `cfir-suite`); these helpers build that
//! matrix (environment-derived run sizes, the standard config
//! constructor) and run one point ad hoc.
//!
//! Snapshots are threaded through return values — [`run_one`] returns
//! the `run_json` document alongside the statistics — so concurrent
//! callers never share mutable state.

use cfir_sim::{Mode, Pipeline, RegFileSize, SimConfig, SimStats};
use cfir_workloads::{Workload, WorkloadSpec};

/// Committed-instruction budget per (benchmark, configuration) run.
/// Override with `CFIR_INSTS`.
pub fn max_insts() -> u64 {
    std::env::var("CFIR_INSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150_000)
}

/// Workload generation parameters (env-overridable).
pub fn default_spec() -> WorkloadSpec {
    let mut s = WorkloadSpec::default();
    if let Some(e) = std::env::var("CFIR_ELEMS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        s.elems = e;
    }
    if let Some(x) = std::env::var("CFIR_SEED").ok().and_then(|v| v.parse().ok()) {
        s.seed = x;
    }
    s
}

/// Run one workload under one configuration; returns the statistics
/// plus the per-run JSON snapshot (no shared accumulator).
pub fn run_one(w: &Workload, mut cfg: SimConfig) -> (SimStats, String) {
    cfg.max_insts = max_insts();
    cfg.cosim_check = false; // benchmarking: the oracle is exercised in tests
    let label = cfg.mode.label();
    let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    p.run();
    let snapshot = cfir_sim::run_json(w.name, label, &p.stats);
    (p.stats.clone(), snapshot)
}

/// Convenience: the paper's standard config for a mode/ports/regs point.
pub fn config(mode: Mode, dports: u32, regs: RegFileSize) -> SimConfig {
    SimConfig::paper_baseline()
        .with_mode(mode)
        .with_dports(dports)
        .with_regs(regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_workloads::by_name;

    #[test]
    fn run_one_commits_the_budget_and_returns_a_snapshot() {
        std::env::remove_var("CFIR_INSTS");
        let w = by_name(
            "bzip2",
            WorkloadSpec {
                iters: 1 << 30,
                elems: 1024,
                seed: 1,
            },
        )
        .unwrap();
        let mut cfg = config(Mode::Scalar, 1, RegFileSize::Finite(256));
        cfg.max_insts = 20_000;
        let mut p = cfir_sim::Pipeline::new(&w.prog, w.mem.clone(), cfg);
        p.run();
        assert!(p.stats.committed >= 20_000);
        assert!(p.stats.ipc() > 0.1);

        // The snapshot comes back to the caller, not a global buffer.
        let w2 = by_name("gzip", default_spec()).unwrap();
        let (stats, snapshot) = run_one(&w2, config(Mode::Ci, 1, RegFileSize::Finite(512)));
        assert!(stats.committed >= 20_000);
        let v = cfir_obs::json::parse(&snapshot).expect("snapshot is valid JSON");
        assert_eq!(v.get("name").and_then(|x| x.as_str()), Some("gzip"));
    }
}
