//! `perfbench`: host-time benchmark of the cfir simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detailed|insight|sampled --seed N --seconds S --trace 0|1 \
//!     [--record FILE] [--write-digests]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload's jobs
//! run as whole passes through `cfir_harness::run_suite`, one pool of
//! `nproc` workers, a fresh cache each pass, until `--seconds` are
//! spent. `--trace 1` runs the workload once more on one thread with a
//! span around every layer call and prints the per-layer metrics.
//! Every job's output is checked (see `check.rs`). The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `RATIONALE.md` explains the workloads and metrics.

mod check;
mod host;
mod layers;
mod suite;
mod trace;
mod workload;

use cfir_harness::{JobResult, JobSpec};
use cfir_obs::json::{self, JsonValue};
use cfir_obs::JsonWriter;
use check::{load_digests, render_digests, Checker};
use host::{nproc, status_bytes, Calibration, Host, CALIB_NOMINAL_S};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use suite::{check_pass, run_pass, setup_once, simulated_insts};
use workload::{jobs, label, Budget, Kind, DEFAULT_SEED};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric::named(name.to_string(), value, unit)
    }

    fn named(name: String, value: f64, unit: &'static str) -> Metric {
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        Metric {
            name,
            value: value + 0.0,
            unit,
        }
    }
}

/// Fewest times `setup_s` repeats the workload's set-up; the median
/// is reported.
const SETUP_REPEATS: usize = 5;

/// Seconds of set-ups timed before each pass, at least one set-up.
/// A workload that sets up in milliseconds still gives dozens of
/// samples for the median.
const SETUP_SECONDS_PER_PASS: f64 = 0.25;

/// Tail percentiles to choose from, highest first.
const TAIL_LADDER: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The percentile `job_s_tail` reports on each workload. It leaves at
/// least 10 job walls above it at the pass count a full-length run
/// makes, and is fixed per workload so a run that fits one pass more
/// does not jump to another percentile (a run too short for it falls
/// down [`TAIL_LADDER`] instead). Every pass repeats the same jobs, so
/// the walls form one cluster per job; a percentile whose rank lands
/// on the boundary between two clusters reads the slowest wall of one
/// job and swings with every burst of host noise. On `insight` p75 is
/// such a boundary: the four mcf jobs take over twice as long as the
/// rest. p80 lands inside them. On `sampled` p75 is one too at any
/// pass count (3 of its 12 jobs); p80 lands inside the third-slowest
/// job.
fn tail_percentile(kind: Kind) -> f64 {
    match kind {
        Kind::Detailed => 95.0,
        Kind::Insight | Kind::Sampled => 80.0,
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = None;
    let mut write_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                kind = Some(Kind::from_name(&v).ok_or_else(|| {
                    format!("unknown workload `{v}` (detailed, insight, sampled)")
                })?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--record" => record = Some(PathBuf::from(val()?)),
            "--write-digests" => write_digests = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
        write_digests,
    })
}

/// Where span files go, and the parent of every scratch directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory no other pass of this process uses (passes
/// remove theirs when done).
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("tmp-{}-{n}", std::process::id()))
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs` at `max_p` or the highest lower
/// rung of [`TAIL_LADDER`] with at least 10 values above it, and the
/// percentile used.
fn tail(xs: &[f64], max_p: f64) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let p = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_p)
        .find(|&p| n >= rank(p) + 10)
        .unwrap_or(50.0);
    (v.get(rank(p) - 1).copied().unwrap_or(0.0), p)
}

/// Modelled (simulated-machine) results, deterministic at a seed.
/// Each is 0 on a workload that cannot produce it:
/// - `ci_speedup`: harmonic-mean IPC of ci over scal (`detailed`,
///   `insight`);
/// - `ci_exploited_frac`: reused events over mispredictions, summed
///   over ci jobs (`detailed`, `insight`), or the mean of the windows'
///   fraction (`sampled`);
/// - `sampled_ipc_rel_hw`: 95% IPC half-width over the mean, averaged
///   over kernels (`sampled`).
fn modelled(kind: Kind, jobs: &[JobSpec], results: &[Option<JobResult>]) -> Vec<Metric> {
    use cfir_sim::{harmonic_mean, Mode};
    let done: Vec<(&JobSpec, &JobResult)> = jobs
        .iter()
        .zip(results)
        .filter_map(|(j, r)| Some((j, r.as_ref()?)))
        .collect();
    let of_mode = |m: Mode| done.iter().filter(move |(j, _)| j.cfg.mode == m);
    let (mut speedup, mut exploited, mut rel_hw) = (0.0, 0.0, 0.0);
    if kind == Kind::Sampled {
        let est = |r: &JobResult, key: &str| -> (f64, f64) {
            let v = json::parse(&r.snapshot).ok();
            let e = v.as_ref().and_then(|v| v.get("sampling")?.get(key));
            let f = |k: &str| e.and_then(|e| e.get(k)).and_then(JsonValue::as_f64);
            (f("mean").unwrap_or(0.0), f("half_width").unwrap_or(0.0))
        };
        let n = done.len().max(1) as f64;
        for (_, r) in &done {
            exploited += est(r, "ci_exploited").0 / n;
            let (mean, hw) = est(r, "ipc");
            if mean > 0.0 {
                rel_hw += hw / mean / n;
            }
        }
    } else {
        let ipc = |m: Mode| harmonic_mean(&of_mode(m).map(|(_, r)| r.ipc()).collect::<Vec<_>>());
        speedup = ipc(Mode::Ci) / ipc(Mode::Scalar);
        let (reused, misp) = of_mode(Mode::Ci).fold((0, 0), |(a, b), (_, r)| {
            (a + r.ev_reuse, b + r.total_mispredictions)
        });
        exploited = reused as f64 / misp.max(1) as f64;
    }
    vec![
        Metric::new("ci_speedup", speedup, "ratio"),
        Metric::new("ci_exploited_frac", exploited, "ratio"),
        Metric::new("sampled_ipc_rel_hw", rel_hw, "ratio"),
    ]
}

fn paper_reference(name: &str) -> &'static str {
    match name {
        "ci_speedup" => "paper +17.8% (ratio 1.178); EXPERIMENTS.md +12.6% at 150k",
        "ci_exploited_frac" => "paper ~50% of mispredictions exploited",
        "sampled_ipc_rel_hw" => "exp_sampling: full-run IPC inside the 95% CI on 12/12 kernels",
        _ => "",
    }
}

/// What one invocation produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Extra fields for the `--record` line.
    detail: Vec<(&'static str, f64)>,
}

/// `--trace 0`: end-to-end metrics.
///
/// Host time drifts with the load other tenants put on the machine, by
/// more than the bounds between minutes. Every time is therefore
/// normalised by the median of the calibration loop timed before the
/// first timed pass and after each one: reported times are seconds on
/// a host that runs the loop in [`CALIB_NOMINAL_S`]. One factor serves
/// the whole run, because a single timing of the loop scatters by
/// more between passes than the simulator's own speed moves; the median
/// over the run follows the host. The raw medians are printed and
/// recorded too.
///
/// The first pass is a warm-up: its outputs are checked and give the
/// modelled metrics, but it is not timed. Its job walls order every
/// later pass slowest job first, so the pool ends on short jobs and a
/// pass's wall does not hinge on which worker drew the long ones.
fn end_to_end(
    kind: Kind,
    seed: u64,
    seconds: f64,
    budget: &Budget,
    checker: &mut Checker,
) -> Outcome {
    let mut jobs = jobs(kind, seed, budget);
    let workers = nproc();
    let scratch = scratch_dir();
    let t0 = Instant::now();
    let warm_up = run_pass(&jobs, workers, &scratch);
    let mut attempted = jobs.len() as u64;
    let mut failed = check_pass(checker, &jobs, &warm_up);
    let model = modelled(kind, &jobs, &warm_up.results);
    let warm_walls: BTreeMap<String, f64> = warm_up.job_walls.into_iter().collect();
    // A job that failed has no wall; it goes first.
    let warm_wall = |j: &JobSpec| warm_walls.get(&label(j)).copied().unwrap_or(f64::INFINITY);
    jobs.sort_by(|a, b| warm_wall(b).total_cmp(&warm_wall(a)));
    let mut cal = Calibration::new();
    let mut calib = vec![cal.time()];
    // Raw samples; job walls also by job label.
    let (mut rates, mut setups, mut job_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_job: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut walls = Vec::new();
    loop {
        // Set-ups before each pass spread the set-up samples over the
        // run, like the passes.
        let t_setup = Instant::now();
        loop {
            setups.push(setup_once(&jobs));
            if t_setup.elapsed().as_secs_f64() >= SETUP_SECONDS_PER_PASS {
                break;
            }
        }
        let setup_wall = t_setup.elapsed().as_secs_f64();
        let pass = run_pass(&jobs, workers, &scratch);
        calib.push(cal.time());
        attempted += jobs.len() as u64;
        failed += check_pass(checker, &jobs, &pass);
        let insts: u64 = jobs
            .iter()
            .zip(&pass.results)
            .filter_map(|(j, r)| Some(simulated_insts(j, r.as_ref()?)))
            .sum();
        rates.push(insts as f64 / pass.wall / 1e6);
        for (l, w) in pass.job_walls {
            job_walls.push(w);
            per_job.entry(l).or_default().push(w);
        }
        println!(
            "  pass {}: {:.4} s, {:.6} Minst/s raw (calibration after it {:.6} s)",
            walls.len() + 1,
            pass.wall,
            rates[rates.len() - 1],
            calib[calib.len() - 1]
        );
        walls.push(pass.wall);
        // Stop before a pass would overrun the measuring time.
        let spent = t0.elapsed().as_secs_f64();
        if spent + median(&walls) + setup_wall > seconds {
            break;
        }
    }
    while setups.len() < SETUP_REPEATS {
        setups.push(setup_once(&jobs));
    }
    for (l, w) in &per_job {
        println!(
            "  job {l:<16} median {:.6} s raw over {} passes",
            median(w),
            w.len()
        );
    }
    // Each job's median over the passes, then the median over jobs:
    // the walls form one cluster per job, and the median of all walls
    // pooled would read the slowest wall of one job and the fastest of
    // another whenever it falls between two clusters.
    let job_p50 = median(&per_job.values().map(|w| median(w)).collect::<Vec<_>>());
    let (tail_s, tail_p) = tail(&job_walls, tail_percentile(kind));
    // Host seconds to normalised seconds.
    let scale = CALIB_NOMINAL_S / median(&calib);
    let peak = status_bytes("VmHWM").unwrap_or(0) as f64 / (1u64 << 20) as f64;
    println!(
        "perfbench: {} timed passes of {} jobs on {} workers after a warm-up pass; failed_frac = {failed}/{attempted} = {:.4}",
        walls.len(),
        jobs.len(),
        workers,
        failed as f64 / attempted as f64
    );
    println!(
        "  job_s_p50 is the median of {} jobs' medians; job_s_tail is p{tail_p} of {} job walls; minsts_per_s is the median of {} passes; setup_s of {} set-ups",
        per_job.len(),
        job_walls.len(),
        walls.len(),
        setups.len()
    );
    let raw = [
        ("raw_minsts_per_s", median(&rates)),
        ("raw_job_s_p50", job_p50),
        ("raw_job_s_tail", tail_s),
        ("raw_setup_s", median(&setups)),
        ("calib_median_s", median(&calib)),
    ];
    println!(
        "  raw (not normalised): minsts_per_s {:.6}, job_s_p50 {:.6} s, job_s_tail {:.6} s, setup_s {:.6} s; calibration median {:.6} s (nominal {CALIB_NOMINAL_S} s)",
        raw[0].1, raw[1].1, raw[2].1, raw[3].1, raw[4].1
    );
    for m in model.iter().filter(|m| m.value != 0.0) {
        println!(
            "  modelled {:<20} {:.6}   [{}]",
            m.name,
            m.value,
            paper_reference(&m.name)
        );
    }
    let mut detail = vec![
        ("passes", walls.len() as f64),
        ("tail_percentile", tail_p),
        ("jobs_timed", job_walls.len() as f64),
    ];
    detail.extend(raw);
    Outcome {
        metrics: vec![
            Metric::new("minsts_per_s", median(&rates) / scale, "Minst/s"),
            Metric::new("job_s_p50", job_p50 * scale, "s"),
            Metric::new("job_s_tail", tail_s * scale, "s"),
            Metric::new("setup_s", median(&setups) * scale, "s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ],
        attempted,
        failed,
        detail,
    }
}

/// Run `f` between two timings of the calibration loop; its result and
/// the factor that turns its host seconds into normalised seconds.
fn calibrated<T>(cal: &mut Calibration, f: impl FnOnce() -> T) -> (T, f64) {
    let before = cal.time();
    let out = f();
    (out, CALIB_NOMINAL_S / ((before + cal.time()) / 2.0))
}

/// `--trace 1`: per-layer metrics from a traced pass, plus the
/// untraced passes it is compared with.
///
/// The tracing overhead compares the traced pass, less its probe time,
/// with two untraced one-worker passes run right before and after it.
/// Each wall is normalised by the calibration loop timed around it
/// (against the same [`CALIB_NOMINAL_S`] as [`end_to_end`]), so host
/// drift between the passes cancels as far as the loop follows it.
/// What drift remains shows as the difference between the two
/// untraced walls, reported as the overhead's resolution: an overhead
/// smaller than that is not resolved.
fn per_layer(kind: Kind, seed: u64, budget: &Budget, checker: &mut Checker) -> Outcome {
    let jobs = jobs(kind, seed, budget);
    let scratch = scratch_dir();
    let mut cal = Calibration::new();
    let mut failed = 0;
    // Untraced, the benchmark's pool: how busy it keeps its workers.
    let pool = run_pass(&jobs, nproc(), &scratch);
    failed += check_pass(checker, &jobs, &pool);
    let (solo_before, scale_before) = calibrated(&mut cal, || run_pass(&jobs, 1, &scratch));
    failed += check_pass(checker, &jobs, &solo_before);
    // On a thread of its own, as the pool runs every job.
    let (traced, scale_traced) = calibrated(&mut cal, || {
        std::thread::scope(|s| {
            s.spawn(|| layers::traced_pass(kind, &jobs, checker, &scratch))
                .join()
                .expect("the traced pass catches job panics")
        })
    });
    let (solo_after, scale_after) = calibrated(&mut cal, || run_pass(&jobs, 1, &scratch));
    failed += check_pass(checker, &jobs, &solo_after);
    failed += traced.failed;
    let model = modelled(kind, &jobs, &traced.results);
    let mut metrics = layers::report(kind, &traced, pool.busy_frac, &model);
    let spans = out_dir().join(format!("spans-{}-{seed}.jsonl", kind.name()));
    match traced.tracer.write_jsonl(&spans) {
        Ok(()) => println!("spans written to {}", spans.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", spans.display()),
    }
    let probes = metrics
        .iter()
        .find(|m| m.name == "trace.probe_s")
        .map_or(0.0, |m| m.value);
    let untraced = [
        solo_before.wall * scale_before,
        solo_after.wall * scale_after,
    ];
    let untraced_wall = (untraced[0] + untraced[1]) / 2.0;
    let overhead = (traced.wall - probes) * scale_traced - untraced_wall;
    let resolution = (untraced[0] - untraced[1]).abs();
    println!(
        "tracing overhead (normalised seconds): traced wall {:.4} s less probes {:.4} s = {:.4} s, \
         untraced one-worker walls {:.4} s and {:.4} s (raw {:.4} s, {:.4} s); \
         overhead {:.4} s, resolution {:.4} s{}",
        traced.wall * scale_traced,
        probes * scale_traced,
        (traced.wall - probes) * scale_traced,
        untraced[0],
        untraced[1],
        solo_before.wall,
        solo_after.wall,
        overhead,
        resolution,
        if overhead.abs() <= resolution {
            ": not resolved (the two untraced walls differ by more)"
        } else {
            ""
        }
    );
    metrics.extend([
        Metric::new("trace.untraced_wall_s", untraced_wall, "s"),
        Metric::new("trace.overhead_s", overhead, "s"),
        Metric::new("trace.overhead_resolution_s", resolution, "s"),
    ]);
    Outcome {
        metrics,
        attempted: 4 * jobs.len() as u64,
        failed,
        detail: Vec::new(),
    }
}

/// Run one pass at the default seed and store its digests.
fn write_digests(kind: Kind) -> Result<(), String> {
    let jobs = jobs(kind, DEFAULT_SEED, &Budget::FULL);
    let mut checker = Checker::new(kind, None);
    let scratch = scratch_dir();
    let pass = run_pass(&jobs, nproc(), &scratch);
    if check_pass(&mut checker, &jobs, &pass) > 0 {
        return Err("a job failed its checks; digests not written".into());
    }
    let path = check::digest_path(kind);
    std::fs::write(&path, render_digests(checker.digests()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {} digests to {}", jobs.len(), path.display());
    Ok(())
}

/// The final JSON line, and the `--record` line when asked for.
fn emit(args: &Args, host: &Host, out: &Outcome, correct: bool) -> Result<(), String> {
    for m in &out.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics_obj = |w: &mut JsonWriter| {
        w.key("metrics").begin_obj();
        for m in &out.metrics {
            w.key(&m.name)
                .begin_obj()
                .field_f64("value", m.value)
                .field_str("unit", m.unit)
                .end_obj();
        }
        w.end_obj();
    };
    if let Some(path) = &args.record {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .field_str("workload", args.kind.name())
            .field_u64("seed", args.seed)
            .field_u64("trace", args.trace as u64)
            .field_f64("seconds", args.seconds)
            .field_bool("correct", correct)
            .field_u64("attempted", out.attempted)
            .field_u64("failed", out.failed);
        w.key("host");
        host.to_json(&mut w);
        for (k, v) in &out.detail {
            w.field_f64(k, *v);
        }
        metrics_obj(&mut w);
        w.end_obj();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(f, "{}", w.finish()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_bool("correct", correct)
        .field_u64("attempted", out.attempted)
        .field_u64("failed", out.failed);
    metrics_obj(&mut w);
    w.end_obj();
    println!("{}", w.finish());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.write_digests {
        return write_digests(args.kind);
    }
    let host = Host::probe();
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={} calib_s={:.6}",
        host.nproc, host.cpu, host.rustc, host.commit, host.calib_s
    );
    let stored = if args.seed == DEFAULT_SEED {
        Some(load_digests(args.kind)?)
    } else {
        None
    };
    let mut checker = Checker::new(args.kind, stored);
    let out = if args.trace {
        per_layer(args.kind, args.seed, &Budget::FULL, &mut checker)
    } else {
        end_to_end(
            args.kind,
            args.seed,
            args.seconds,
            &Budget::FULL,
            &mut checker,
        )
    };
    if args.seed != DEFAULT_SEED {
        println!(
            "digests at seed {} (none stored; compare across commits):",
            args.seed
        );
        for (l, d) in checker.digests() {
            println!("  digest {l} {d:016x}");
        }
    }
    emit(&args, &host, &out, out.failed == 0)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_harness::SamplingParams;

    /// Budgets small enough for a debug build.
    const TINY: Budget = Budget {
        detailed: 2_000,
        insight: 2_000,
        sampled: 12_000,
        sampling: SamplingParams {
            period: 4_000,
            warmup: 500,
            window: 500,
        },
    };

    /// (name, unit) of every metric in a section of BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        v.get(section)
            .and_then(JsonValue::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn reported(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn a_flipped_digest_counts_as_a_failed_job() {
        let kind = Kind::Detailed;
        let jobs = jobs(kind, 1, &TINY);
        let pass = run_pass(&jobs, 2, &scratch_dir());
        let mut first = Checker::new(kind, None);
        assert_eq!(check_pass(&mut first, &jobs, &pass), 0);
        let mut stored = first.digests().clone();
        assert_eq!(stored.len(), jobs.len());
        let mut same = Checker::new(kind, Some(stored.clone()));
        assert_eq!(check_pass(&mut same, &jobs, &pass), 0);
        *stored.values_mut().next().expect("a digest") ^= 1;
        let mut flipped = Checker::new(kind, Some(stored));
        assert_eq!(check_pass(&mut flipped, &jobs, &pass), 1);
    }

    #[test]
    fn every_listed_metric_is_reported_with_its_unit() {
        let (e2e, layer) = (listed("end_to_end"), listed("per_layer"));
        for kind in [Kind::Detailed, Kind::Insight, Kind::Sampled] {
            let mut checker = Checker::new(kind, None);
            let out = end_to_end(kind, 1, 0.0, &TINY, &mut checker);
            assert_eq!(out.failed, 0, "{}", kind.name());
            assert_eq!(reported(&out), e2e, "{}", kind.name());
            assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}", kind.name());
            let out = per_layer(kind, 1, &TINY, &mut checker);
            assert_eq!(out.failed, 0, "{}", kind.name());
            assert_eq!(reported(&out), layer, "{}", kind.name());
        }
    }

    #[test]
    fn tail_keeps_ten_values_above_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), (90.0, 90.0));
        assert_eq!(tail(&xs, 75.0), (75.0, 75.0));
        assert_eq!(tail(&xs[..15], 95.0), (8.0, 50.0));
    }
}
