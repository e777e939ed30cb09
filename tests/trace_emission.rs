//! End-to-end tracing acceptance: `CFIR_TRACE` drives the `cfir-run`
//! binary to produce Chrome-trace and JSONL files, tracing must not
//! perturb the simulation (identical `--emit-json` snapshots with and
//! without a tracer attached), and `sub=commit` is the commit log.
//! Sampled runs write one trace file per measured window, a failed
//! `--pipeview` write fails the run, and no other variable switches
//! lifecycle recording on: a suite's output depends on its jobs alone.
//!
//! Each configuration runs in its own child process because the trace
//! environment is parsed once per process.

use cfir::obs::json;
use std::path::PathBuf;
use std::process::Command;

const PROG: &str = "\
    li   r1, 0\n\
    li   r6, 3200\n\
loop:\n\
    ld   r8, 1000(r1)\n\
    beq  r8, r0, else_\n\
    addi r2, r2, 1\n\
    jmp  ip\n\
else_:\n\
    addi r3, r3, 1\n\
ip:\n\
    add  r4, r4, r8\n\
    addi r1, r1, 8\n\
    blt  r1, r6, loop\n\
    halt\n";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cfir-trace-test-{}-{name}", std::process::id()))
}

/// Run `cfir-run <asm> <args>` with `CFIR_TRACE` set to `trace_env`
/// (or unset), returning stdout.
fn run_with(asm: &PathBuf, args: &[&str], trace_env: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cfir-run"));
    cmd.arg(asm).args(args);
    cmd.env_remove("CFIR_TRACE");
    if let Some(spec) = trace_env {
        cmd.env("CFIR_TRACE", spec);
    }
    let out = cmd.output().expect("cfir-run spawns");
    assert!(
        out.status.success(),
        "cfir-run failed (trace={trace_env:?}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `cfir-run <asm> --mode ci --emit-json`, returning the snapshot.
fn run(asm: &PathBuf, trace_env: Option<&str>) -> String {
    run_with(asm, &["--mode", "ci", "--emit-json"], trace_env)
}

#[test]
fn tracing_emits_files_without_perturbing_the_run() {
    let asm = tmp("prog.asm");
    std::fs::write(&asm, PROG).unwrap();
    let chrome = tmp("trace.json");
    let jsonl = tmp("trace.jsonl");

    // Baseline: no tracing.
    let base = run(&asm, None);
    let v = json::parse(base.trim()).expect("baseline snapshot parses");
    assert!(v.get("ipc").and_then(|x| x.as_f64()).unwrap() > 0.0);
    assert!(v.get("cycles").and_then(|x| x.as_u64()).unwrap() > 0);

    // Chrome-trace run: identical snapshot, plus a Perfetto-loadable
    // trace file.
    let spec = format!("sub=vec+commit+flush sink=chrome:{}", chrome.display());
    let traced = run(&asm, Some(&spec));
    assert_eq!(
        base, traced,
        "a chrome tracer must not change any statistic"
    );
    let doc = std::fs::read_to_string(&chrome).expect("chrome trace written");
    let t = json::parse(&doc).expect("chrome trace is valid JSON");
    let events = t
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let real: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
        .collect();
    assert!(!real.is_empty(), "filtered run must emit events");
    for e in real.iter().take(50) {
        assert!(e.get("name").is_some() && e.get("ts").is_some() && e.get("pid").is_some());
        let cat = e.get("cat").and_then(|c| c.as_str()).unwrap();
        assert!(
            ["vec", "commit", "flush"].contains(&cat),
            "sub filter respected, got {cat}"
        );
    }

    // JSONL run: every line is one parseable event object.
    let spec = format!("sub=commit cycle=0..2000 sink=jsonl:{}", jsonl.display());
    let traced = run(&asm, Some(&spec));
    assert_eq!(base, traced, "a jsonl tracer must not change any statistic");
    let lines: Vec<String> = std::fs::read_to_string(&jsonl)
        .unwrap()
        .lines()
        .map(|l| l.to_string())
        .collect();
    assert!(!lines.is_empty(), "commit stream must produce events");
    for l in &lines {
        let e = json::parse(l).expect("each JSONL line parses");
        assert!(
            e.get("cycle").and_then(|c| c.as_u64()).unwrap() < 2000,
            "cycle filter respected"
        );
        assert_eq!(e.get("sub").and_then(|s| s.as_str()), Some("commit"));
    }

    for p in [asm, chrome, jsonl] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn commit_trace_records_values_in_program_order() {
    let asm = tmp("commit.asm");
    std::fs::write(&asm, "li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt\n").unwrap();
    let jsonl = tmp("commit.jsonl");
    let spec = format!("sub=commit sink=jsonl:{}", jsonl.display());
    run_with(&asm, &["--mode", "scal"], Some(&spec));

    let doc = std::fs::read_to_string(&jsonl).expect("commit trace written");
    let commits: Vec<(u64, u64)> = doc
        .lines()
        .map(|l| json::parse(l).expect("each JSONL line parses"))
        .filter(|e| e.get("ev").and_then(|v| v.as_str()) == Some("commit"))
        .map(|e| {
            let pc = e.get("pc").and_then(|v| v.as_u64()).expect("pc");
            let args = e.get("args").expect("args");
            (
                pc,
                args.get("value").and_then(|v| v.as_u64()).expect("value"),
            )
        })
        .collect();
    let pcs: Vec<u64> = commits.iter().map(|&(pc, _)| pc).collect();
    assert_eq!(pcs, [0, 1, 2, 3], "one commit per instruction, in order");
    assert_eq!(commits[2], (2, 3), "add r3, r1, r2 commits 1 + 2");
    assert_eq!(pcs.last(), Some(&3), "halt is the last commit");

    for p in [asm, jsonl] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn failed_pipeview_write_fails_the_run() {
    let asm = tmp("pv.asm");
    std::fs::write(&asm, PROG).unwrap();
    let target = tmp("absent-dir").join("x.kanata");
    let out = Command::new(env!("CARGO_BIN_EXE_cfir-run"))
        .arg(&asm)
        .arg("--pipeview")
        .arg(&target)
        .env_remove("CFIR_TRACE")
        .output()
        .expect("cfir-run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit 0 on a failed write: {stderr}");
    assert!(stderr.contains("x.kanata"), "{stderr}");
    assert!(!stderr.contains("written"), "{stderr}");
    let _ = std::fs::remove_file(asm);
}

#[test]
fn sampled_run_writes_one_trace_per_window() {
    let dir = tmp("sampled");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("sampled.json");
    let out = Command::new(env!("CARGO_BIN_EXE_cfir-sample"))
        .args(["bzip2", "--mode", "ci", "--insts", "20000"])
        .args(["--period", "2500", "--warmup", "700", "--window", "700"])
        .arg("--emit-json")
        .arg(&snap)
        .env(
            "CFIR_TRACE",
            format!("sub=commit sink=jsonl:{}", dir.join("s.jsonl").display()),
        )
        .output()
        .expect("cfir-sample spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    let windows = doc
        .get("sampling")
        .and_then(|s| s.get("windows"))
        .and_then(|w| w.as_arr())
        .expect("sampling.windows");
    assert!(windows.len() > 1, "want several windows");
    let mut want: Vec<String> = windows
        .iter()
        .map(|w| {
            let id = w.get("checkpoint").and_then(|c| c.as_str()).unwrap();
            format!("s.{id}.jsonl")
        })
        .collect();
    want.sort();
    let mut got: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    got.sort();
    assert_eq!(got, want, "one trace per window, no unscoped s.jsonl");
    for name in &got {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(text.lines().count() > 0, "{name} is empty");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_output_ignores_the_retired_pipeview_variable() {
    let dir = tmp("suite-env");
    let _ = std::fs::remove_dir_all(&dir);
    let kanata = dir.join("pv").join("t.kanata");
    std::fs::create_dir_all(kanata.parent().unwrap()).unwrap();
    let bundle = |tag: &str, pipeview: Option<&std::path::Path>| {
        let out_dir = dir.join(format!("out-{tag}"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cfir-suite"));
        cmd.args(["fig05", "--emit-json", "--quiet", "--jobs", "2"])
            .arg("--out-dir")
            .arg(&out_dir)
            .arg("--cache-dir")
            .arg(dir.join(format!("cache-{tag}")))
            .env("CFIR_INSTS", "5000")
            .env_remove("CFIR_TRACE")
            .env_remove("CFIR_ELEMS")
            .env_remove("CFIR_SEED")
            .env_remove("CFIR_PIPEVIEW");
        if let Some(p) = pipeview {
            cmd.env("CFIR_PIPEVIEW", p);
        }
        let out = cmd.output().expect("cfir-suite spawns");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(out_dir.join("fig05.json")).expect("bundle written")
    };
    let plain = bundle("plain", None);
    let with_env = bundle("env", Some(&kanata));
    assert!(
        plain == with_env,
        "bundle changed with CFIR_PIPEVIEW set ({} vs {} bytes)",
        plain.len(),
        with_env.len()
    );
    let left: Vec<_> = std::fs::read_dir(kanata.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "no Konata file may appear: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
