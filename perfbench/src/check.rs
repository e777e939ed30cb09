//! Output checks: snapshot digests and run invariants.
//!
//! Every job's schema-v7 snapshot is hashed with FNV-1a. At the
//! default seed the digest must equal the one stored in
//! `digests/<workload>.txt`; at any seed it must repeat exactly across
//! the passes of one run. On top of that each snapshot must satisfy
//! the simulator's own invariants. A job failing any check counts
//! towards `failed`.

use crate::workload::Kind;
use cfir_harness::{fnv1a64, JobResult, JobSpec};
use cfir_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Stored digests of one workload, by job label.
pub type Digests = BTreeMap<String, u64>;

/// Where the digests of `kind` at the default seed are kept.
pub fn digest_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{}.txt", kind.name()))
}

/// Read stored digests: one `<label> <16 hex digits>` per line.
pub fn load_digests(kind: Kind) -> Result<Digests, String> {
    let path = digest_path(kind);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = Digests::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: String| format!("{}:{}: {what}", path.display(), n + 1);
        let (label, hex) = line
            .trim()
            .split_once(' ')
            .ok_or_else(|| bad("expected `<label> <digest>`".into()))?;
        let d = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| bad(format!("bad digest `{hex}`: {e}")))?;
        out.insert(label.to_string(), d);
    }
    Ok(out)
}

/// Render digests in the format [`load_digests`] reads.
pub fn render_digests(d: &Digests) -> String {
    d.iter().map(|(k, v)| format!("{k} {v:016x}\n")).collect()
}

fn get_u64(v: &JsonValue, path: &[&str]) -> Result<u64, String> {
    let mut cur = v;
    for k in path {
        cur = cur
            .get(k)
            .ok_or_else(|| format!("snapshot lacks `{}`", path.join(".")))?;
    }
    cur.as_u64()
        .ok_or_else(|| format!("snapshot `{}` is not an integer", path.join(".")))
}

/// Check the invariants of one finished job's snapshot:
/// - the stall buckets sum to `cycles x commit width` (every commit
///   slot of every cycle charged to one cause);
/// - on `insight`, lifecycle recording kept every record
///   (`lifecycle.dropped == 0`), so the causal DAG is whole;
/// - on `sampled`, at least one window was measured.
fn invariants(kind: Kind, job: &JobSpec, result: &JobResult) -> Result<(), String> {
    let v = json::parse(&result.snapshot).map_err(|e| format!("snapshot does not parse: {e}"))?;
    let cycles = get_u64(&v, &["cycles"])?;
    let stall = v.get("stall").ok_or("snapshot lacks `stall`")?;
    let JsonValue::Obj(buckets) = stall else {
        return Err("snapshot `stall` is not an object".into());
    };
    let mut sum = 0u64;
    for (k, b) in buckets {
        sum += b
            .as_u64()
            .ok_or_else(|| format!("stall bucket `{k}` is not an integer"))?;
    }
    let slots = cycles * job.cfg.commit_width as u64;
    if sum != slots {
        return Err(format!(
            "stall buckets sum to {sum}, expected cycles x width = {slots}"
        ));
    }
    match kind {
        Kind::Insight => {
            let dropped = get_u64(&v, &["lifecycle", "dropped"])?;
            let records = get_u64(&v, &["lifecycle", "records"])?;
            if dropped != 0 || records == 0 {
                return Err(format!(
                    "lifecycle log incomplete: {records} records, {dropped} dropped"
                ));
            }
        }
        Kind::Sampled => {
            let windows = v
                .get("sampling")
                .and_then(|s| s.get("windows"))
                .and_then(|w| w.as_arr())
                .map_or(0, |w| w.len());
            if windows == 0 {
                return Err("sampled run measured no window".into());
            }
        }
        Kind::Detailed => {}
    }
    Ok(())
}

/// Checks every pass of one run applies to each job.
pub struct Checker {
    kind: Kind,
    /// Digests the run must reproduce: the stored ones at the default
    /// seed, otherwise none until the first pass sets them.
    expected: Option<Digests>,
    /// Digests of the first pass, by label (determinism across passes).
    first: Digests,
}

impl Checker {
    /// A checker for `kind`; `stored` are the digests to compare with
    /// (`None` at a seed that has none stored).
    pub fn new(kind: Kind, stored: Option<Digests>) -> Checker {
        Checker {
            kind,
            expected: stored,
            first: Digests::new(),
        }
    }

    /// Check one job of a pass. Returns why it failed, if it did.
    pub fn check(&mut self, label: &str, job: &JobSpec, result: &JobResult) -> Result<(), String> {
        invariants(self.kind, job, result)?;
        let d = fnv1a64(result.snapshot.as_bytes());
        if let Some(exp) = &self.expected {
            match exp.get(label) {
                Some(&want) if want == d => {}
                Some(&want) => {
                    return Err(format!(
                        "snapshot digest {d:016x} differs from the stored {want:016x}"
                    ))
                }
                None => return Err("no stored digest for this job".into()),
            }
        }
        match self.first.get(label) {
            Some(&prev) if prev != d => Err(format!(
                "snapshot digest {d:016x} differs from the first pass's {prev:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.first.insert(label.to_string(), d);
                Ok(())
            }
        }
    }

    /// Digests of the first pass, by label.
    pub fn digests(&self) -> &Digests {
        &self.first
    }
}
