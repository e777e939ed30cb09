//! `cfir-run` — assemble a program and run it on the emulator or the
//! out-of-order core, from the command line.
//!
//! ```sh
//! cargo run --release --bin cfir-run -- prog.asm --mode ci --insts 100000
//! cargo run --release --bin cfir-run -- prog.asm --emu
//! ```
//!
//! Options:
//!
//! * `--mode scal|wb|ci-iw|ci|vect` — machine variant (default `ci`);
//! * `--emu` — run the functional emulator instead of the OOO core;
//! * `--insts N` — committed-instruction budget (default: run to halt);
//! * `--regs N|inf` — physical register file size (default 512);
//! * `--ports N` — L1D ports (default 1);
//! * `--replicas N` — replicas per vectorized instruction (default 4);
//! * `--pipeview <path>` — record every dynamic instruction's pipeline
//!   lifecycle (stages, wait-edges, replica/reuse/wrong-path fate) and
//!   write a Konata-compatible trace to `path` at the end of the run
//!   (render it with `cfir-report timeline <path>`); exit 1 if it
//!   cannot be written;
//! * `--pipeview-cap N` — retain at most N retired lifecycle records
//!   (ring buffer; default 1M, 0 = unbounded);
//! * `--emit-json [path.json]` — emit the versioned run-statistics
//!   snapshot as a JSON document (with interval time series) instead of
//!   the human-readable summary; when the next argument ends in
//!   `.json` the document is written there instead of stdout;
//! * `--data ADDR=VALUE,...` — pre-initialise data memory words;
//! * `--dump ADDR..ADDR` — print a memory range after the run.

use cfir::prelude::*;
use std::process::exit;

/// Default `--pipeview-cap`: retired lifecycle records kept in the
/// ring, enough for a 1M-instruction run without unbounded memory.
const DEFAULT_PIPEVIEW_CAP: usize = 1 << 20;

struct Args {
    path: String,
    mode: Mode,
    emu: bool,
    insts: u64,
    regs: RegFileSize,
    ports: u32,
    replicas: u8,
    pipeview: Option<String>,
    pipeview_cap: usize,
    emit_json: bool,
    emit_json_path: Option<String>,
    data: Vec<(u64, u64)>,
    dump: Option<(u64, u64)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cfir-run <prog.asm> [--mode scal|wb|ci-iw|ci|vect] [--emu] [--insts N]\n\
         \x20             [--regs N|inf] [--ports N] [--replicas N]\n\
         \x20             [--pipeview path] [--pipeview-cap N]\n\
         \x20             [--emit-json [path.json]] [--data ADDR=VAL,...] [--dump LO..HI]\n\
         --emit-json emits the versioned statistics snapshot (JSON) instead of the\n\
         text summary; give a path ending in .json to write it to a file\n\
         (e.g. results/run.json) rather than stdout\n\
         --pipeview records per-instruction lifecycles and writes a Konata\n\
         trace to path (view with `cfir-report timeline <path>`); CFIR_TRACE\n\
         (e.g. 'sub=commit') streams per-event traces"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        path: String::new(),
        mode: Mode::Ci,
        emu: false,
        insts: u64::MAX >> 1,
        regs: RegFileSize::Finite(512),
        ports: 1,
        replicas: 4,
        pipeview: None,
        pipeview_cap: DEFAULT_PIPEVIEW_CAP,
        emit_json: false,
        emit_json_path: None,
        data: Vec::new(),
        dump: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => {
                a.mode = it
                    .next()
                    .as_deref()
                    .and_then(Mode::from_label)
                    .unwrap_or_else(|| usage())
            }
            "--emu" => a.emu = true,
            "--insts" => {
                a.insts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--regs" => {
                a.regs = match it.next().as_deref() {
                    Some("inf") => RegFileSize::Infinite,
                    Some(n) => RegFileSize::Finite(n.parse().unwrap_or_else(|_| usage())),
                    None => usage(),
                }
            }
            "--ports" => {
                a.ports = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--replicas" => {
                a.replicas = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--pipeview" => a.pipeview = Some(it.next().unwrap_or_else(|| usage())),
            "--pipeview-cap" => {
                a.pipeview_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--emit-json" => {
                a.emit_json = true;
                // An optional output path follows iff it looks like one
                // (so the positional program file is never swallowed).
                if it.peek().is_some_and(|n| n.ends_with(".json")) {
                    a.emit_json_path = it.next();
                }
            }
            "--data" => {
                for kv in it.next().unwrap_or_else(|| usage()).split(',') {
                    let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                    a.data.push((
                        parse_num(k).unwrap_or_else(|| usage()),
                        parse_num(v).unwrap_or_else(|| usage()),
                    ));
                }
            }
            "--dump" => {
                let r = it.next().unwrap_or_else(|| usage());
                let (lo, hi) = r.split_once("..").unwrap_or_else(|| usage());
                a.dump = Some((
                    parse_num(lo).unwrap_or_else(|| usage()),
                    parse_num(hi).unwrap_or_else(|| usage()),
                ));
            }
            _ if a.path.is_empty() && !arg.starts_with('-') => a.path = arg,
            _ => usage(),
        }
    }
    if a.path.is_empty() {
        usage()
    }
    a
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(h) = s.strip_prefix("0x") {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let a = parse_args();
    let src = std::fs::read_to_string(&a.path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", a.path);
        exit(1)
    });
    let prog = match cfir::isa::assemble(&a.path, &src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    };
    let mut mem = MemImage::new();
    for (addr, val) in &a.data {
        mem.write(*addr, *val);
    }

    if a.emu {
        let mut emu = Emulator::new(mem);
        let stop = emu.run(&prog, a.insts);
        println!("emulator: {stop:?} after {} instructions", emu.retired);
        print_regs(|r| emu.reg(r));
        if let Some((lo, hi)) = a.dump {
            dump(&emu.mem, lo, hi);
        }
        return;
    }

    let mut cfg = SimConfig::paper_baseline()
        .with_mode(a.mode)
        .with_regs(a.regs)
        .with_dports(a.ports)
        .with_replicas(a.replicas)
        .with_max_insts(a.insts);
    if a.emit_json {
        // Snapshots carry the interval time series.
        cfg.interval_cycles = 10_000;
    }
    let mut pipe = Pipeline::new(&prog, mem, cfg);
    if a.pipeview.is_some() {
        pipe.enable_lifecycle(a.pipeview_cap);
    }
    let exit_reason = pipe.run();
    let s = &pipe.stats;
    if let (Some(p), Some(log)) = (&a.pipeview, pipe.lifecycle()) {
        if let Err(e) = std::fs::write(p, log.render_konata()) {
            eprintln!("cannot write pipeview trace {p}: {e}");
            exit(1)
        }
        eprintln!(
            "[pipeview trace written to {p}: {} records, {} dropped]",
            s.lifecycle_records, s.lifecycle_dropped
        );
    }
    if a.emit_json {
        let doc = run_json(&a.path, a.mode.label(), s);
        match &a.emit_json_path {
            Some(p) => {
                if let Some(dir) = std::path::Path::new(p).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                if let Err(e) = std::fs::write(p, doc) {
                    eprintln!("cannot write {p}: {e}");
                    exit(1)
                }
                println!("[json written to {p}]");
            }
            None => println!("{doc}"),
        }
    } else {
        println!(
            "{}: {exit_reason:?}  committed={} cycles={} IPC={:.3} mispredict={:.1}% reuse={:.1}%",
            a.mode.label(),
            s.committed,
            s.cycles,
            s.ipc(),
            s.mispredict_rate() * 100.0,
            s.reuse_fraction() * 100.0,
        );
        print_regs(|r| pipe.arch_reg(r));
    }
    if let Some((lo, hi)) = a.dump {
        dump(pipe.memory(), lo, hi);
    }
}

fn print_regs(read: impl Fn(u8) -> u64) {
    println!("non-zero registers:");
    for r in 1..64u8 {
        let v = read(r);
        if v != 0 {
            println!("  r{r:<2} = {v:#x} ({v})");
        }
    }
}

fn dump(mem: &MemImage, lo: u64, hi: u64) {
    println!("memory [{lo:#x}..{hi:#x}):");
    let mut a = lo & !7;
    while a < hi {
        println!("  {a:#08x}: {:#018x}", mem.read(a));
        a += 8;
    }
}
