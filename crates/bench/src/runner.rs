//! Shared simulation-running helpers.
//!
//! The declarative experiment matrix in [`crate::experiments`] is how
//! the evaluation runs (via `cfir-suite`); these helpers build that
//! matrix: environment-derived run sizes and the standard config
//! constructor.

use cfir_sim::{Mode, RegFileSize, SimConfig};
use cfir_workloads::WorkloadSpec;

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

/// Convenience: the paper's standard config for a mode/ports/regs point.
pub fn config(mode: Mode, dports: u32, regs: RegFileSize) -> SimConfig {
    SimConfig::paper_baseline()
        .with_mode(mode)
        .with_dports(dports)
        .with_regs(regs)
}
