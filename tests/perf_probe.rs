//! Ad-hoc perf probe (ignored by default): times one kernel under
//! different config axes to locate the hot path. Lifecycle runs get a
//! second row timing `critpath::analyze` alone, so the post-run
//! analysis shows apart from recording. Run with
//! `cargo test --release --test perf_probe -- --ignored --nocapture`.

use cfir::prelude::*;
use std::time::Instant;

fn time_run(label: &str, mut cfg: SimConfig, lifecycle: bool, cosim: bool) {
    cfg.record_lifecycle = lifecycle;
    cfg.cosim_check = cosim;
    let (width, window) = (cfg.commit_width as u64, cfg.window as usize);
    let w = by_name("bzip2", WorkloadSpec::default()).unwrap();
    let minflt = || {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|st| st.split(' ').nth(9).and_then(|v| v.parse::<u64>().ok()))
            .unwrap_or(0)
    };
    let f0 = minflt();
    let t = Instant::now();
    let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    p.run();
    let dt = t.elapsed().as_secs_f64();
    println!(
        "{label:32} {dt:7.3}s  {:.0} insts/s  cycles={}  records={}  minflt={}",
        p.stats.committed as f64 / dt,
        p.stats.cycles,
        p.stats.lifecycle_records,
        minflt() - f0
    );
    // The run above already analyzed its log once (in `finalize`);
    // repeat that analysis on its own to time it.
    if let Some(log) = p.lifecycle() {
        let t = Instant::now();
        std::hint::black_box(cfir::obs::critpath::analyze(log, width, window));
        let dt = t.elapsed().as_secs_f64();
        println!(
            "{:32} {dt:7.3}s  {:.0} ns/record",
            "  of which critpath::analyze",
            dt * 1e9 / log.len().max(1) as f64
        );
    }
}

#[test]
#[ignore]
fn probe() {
    for mode in [Mode::Scalar, Mode::Vect] {
        let base = SimConfig::paper_baseline()
            .with_mode(mode)
            .with_regs(RegFileSize::Finite(512))
            .with_max_insts(150_000);
        let mut with_intervals = base.clone();
        with_intervals.interval_cycles = 10_000;
        time_run(&format!("{mode:?} bare"), base.clone(), false, false);
        time_run(&format!("{mode:?} +cosim"), base.clone(), false, true);
        time_run(&format!("{mode:?} +lifecycle"), base.clone(), true, false);
        time_run(
            &format!("{mode:?} +lc+cosim+iv"),
            with_intervals,
            true,
            true,
        );
    }
}
