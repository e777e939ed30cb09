//! Host context recorded with every result, and memory measurement.
//!
//! Host time only compares between runs on one host. Each result
//! carries the core count, CPU model, compiler, commit and the time of
//! a fixed calibration loop, so `diff.py` can label a comparison of
//! runs from different hosts and give it no verdict. The same loop,
//! timed between passes, tracks the host's speed during a run.

use cfir_obs::JsonWriter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// [`Calibration::time`] when the run started.
    pub calib_s: f64,
}

/// Worker threads a benchmark pool uses: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Host {
    /// Probe the host. Costs the calibration loop (tens of ms).
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Host {
            nproc: nproc(),
            cpu,
            rustc,
            commit: git_commit(&repo).unwrap_or_else(|| "unknown".into()),
            calib_s: Calibration::new().time(),
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self, w: &mut JsonWriter) {
        w.begin_obj()
            .field_u64("nproc", self.nproc as u64)
            .field_str("cpu", &self.cpu)
            .field_str("rustc", &self.rustc)
            .field_str("commit", &self.commit)
            .field_f64("calib_s", self.calib_s)
            .end_obj();
    }
}

/// Read the checked-out commit from `.git` without running git (which
/// would search directories above the checkout).
fn git_commit(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = std::fs::read_to_string(git.join(refname)) {
        return Some(c.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|c| c.trim().to_string()))
}

/// A fixed loop timed in-process: 2^21 random read-modify-writes with
/// a data-dependent branch over a 16 KB buffer, which stays in L1. Its
/// time follows the share of a core the host gives the process and the
/// core's clock, not the memory contention that also moves the
/// simulator's speed. It is the host's calibration (`calib_s`) and the reference the end-to-end
/// times are normalised by. The buffer is not the size of the
/// simulator's hot data (2 MB): such a loop reads the last-level cache
/// the other tenants share, and on a 2-core Xeon VM its timings
/// scattered by 25% (interquartile range over the median, 40 timings
/// over 30 s) against 3% for 16 KB, while the simulator's speed moved
/// by a few percent.
pub struct Calibration {
    buf: Vec<u64>,
}

/// Seconds one [`Calibration::time`] took on the host the bounds in
/// `BENCHMARK.json` were set on, at its median speed. End-to-end times
/// are reported as seconds on a host running this loop this fast.
pub const CALIB_NOMINAL_S: f64 = 0.009;

impl Calibration {
    /// Allocate and touch the buffer.
    pub fn new() -> Calibration {
        Calibration {
            buf: vec![1; 2 << 10],
        }
    }

    /// Median seconds of five runs of the loop.
    pub fn time(&mut self) -> f64 {
        let mut t: Vec<f64> = (0..5).map(|_| self.once()).collect();
        t.sort_by(f64::total_cmp);
        t[2]
    }

    fn once(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.buf.len();
        let (mut x, mut s) = (0x2545_F491_4F6C_DD1Du64, 0u64);
        for _ in 0..(1 << 21) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % n;
            let v = self.buf[i];
            s = if v & 1 == 0 {
                s.wrapping_add(v)
            } else {
                s ^ v.rotate_left(7)
            };
            self.buf[i] = s;
        }
        black_box(s);
        t.elapsed().as_secs_f64()
    }
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in bytes.
pub fn status_bytes(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The system allocator, counting live heap bytes while
/// [`count_heap`] is on. Off, each allocation pays one branch; the
/// untraced runs keep it off.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's layout
// and pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Start or stop counting heap bytes. Frees of blocks allocated while
/// counting was off are counted too, so read [`live_heap`] only as a
/// difference over an interval that allocates and frees its own data.
pub fn count_heap(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Net heap bytes allocated while counting was on.
pub fn live_heap() -> i64 {
    LIVE.load(Ordering::Relaxed)
}
