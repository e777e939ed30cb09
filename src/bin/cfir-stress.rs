//! `cfir-stress` — randomized co-simulation soak test.
//!
//! Generates random (terminating) programs and random data, runs each
//! through the golden emulator and the out-of-order core in every
//! machine mode with the commit-time oracle armed, and compares final
//! architectural state. Any divergence aborts with the failing seed so
//! the case can be replayed:
//!
//! ```sh
//! cargo run --release --bin cfir-stress -- 500          # 500 cases
//! cargo run --release --bin cfir-stress -- 1 12345      # replay seed
//! ```

use cfir::prelude::*;
use cfir_isa::{AluOp, Cond};

const DATA_BASE: i64 = 0x2_0000;
const OUT_BASE: i64 = 0x8_0000;
const DATA_MASK: i64 = 0x3FF;

/// Random terminating loop, same shape family as the proptest
/// generator but with a larger op vocabulary (it can afford longer
/// runs).
fn random_program(rng: &mut Rng64) -> Program {
    let mut b = ProgramBuilder::new("stress");
    let iters = 32 + rng.gen_range(0, 400) as i64;
    b.li(1, 0);
    b.li(2, iters);
    b.li(3, DATA_MASK);
    b.li(4, DATA_BASE);
    b.li(5, OUT_BASE);
    b.li(6, 0);
    let top = b.label_here();
    b.alu(AluOp::And, 7, 6, 3);
    b.alu(AluOp::Add, 7, 7, 4);
    let body = 2 + rng.gen_range(0, 14);
    for _ in 0..body {
        let r = |rng: &mut Rng64| 10 + rng.gen_range(0, 16) as u8;
        match rng.gen_range(0, 10) {
            0 => {
                let d = r(rng);
                b.ld(d, 7, (rng.gen_range(0, 4) * 8) as i64);
            }
            1 => {
                // Indexed load.
                let d = r(rng);
                let i = r(rng);
                b.alui(AluOp::Mul, 8, i, 8);
                b.alu(AluOp::And, 8, 8, 3);
                b.alu(AluOp::Add, 8, 8, 4);
                b.ld(d, 8, 0);
            }
            2 => {
                // Store to the out region.
                let s = r(rng);
                b.alui(AluOp::Mul, 8, 1, 8);
                b.alui(AluOp::And, 8, 8, 0xFFF);
                b.alu(AluOp::Add, 8, 8, 5);
                b.st(s, 8, 0);
            }
            3 => {
                // Hammock.
                let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];
                let c = conds[rng.gen_range(0, 4) as usize];
                let (x, y) = (r(rng), r(rng));
                let else_ = b.label();
                let join = b.label();
                b.br(c, x, y, else_);
                b.alui(AluOp::Add, 9, 9, 1);
                b.jmp(join);
                b.bind(else_);
                b.alui(AluOp::Xor, 9, 9, 3);
                b.bind(join);
            }
            4 => {
                // Self-accumulator (exercises the self-loop chains).
                let d = r(rng);
                let s = r(rng);
                b.alu(AluOp::Add, d, d, s);
            }
            5 => {
                let d = r(rng);
                let s = r(rng);
                b.alui(AluOp::Mul, d, s, (rng.gen_range(0, 64) as i64) - 32);
            }
            6 => {
                let d = r(rng);
                let s = r(rng);
                b.alui(AluOp::Div, d, s, 1 + rng.gen_range(0, 9) as i64);
            }
            _ => {
                let ops = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::Xor,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Srl,
                ];
                let o = ops[rng.gen_range(0, 6) as usize];
                let (d, s1, s2) = (r(rng), r(rng), r(rng));
                b.alu(o, d, s1, s2);
            }
        }
    }
    b.alui(AluOp::Add, 6, 6, 8);
    b.alui(AluOp::Add, 1, 1, 1);
    b.br(Cond::Lt, 1, 2, top);
    b.halt();
    b.finish()
}

fn main() {
    let cases: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let base_seed: u64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FF_EE00);
    let modes = [
        Mode::Scalar,
        Mode::WideBus,
        Mode::CiIw,
        Mode::Ci,
        Mode::Vect,
    ];
    let mut total_reuse = 0u64;
    for case in 0..cases {
        let seed = base_seed.wrapping_add(case.wrapping_mul(0x9E37_79B9));
        let mut rng = Rng64::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let mut mem = MemImage::new();
        for i in 0..128u64 {
            mem.write(DATA_BASE as u64 + i * 8, rng.next_u64() & 0xFF);
        }
        let mut emu = Emulator::new(mem.clone());
        emu.run(&prog, 50_000_000);
        assert!(emu.halted, "seed {seed}: generated program must halt");
        for mode in modes {
            let mut cfg = SimConfig::paper_baseline()
                .with_mode(mode)
                .with_regs(RegFileSize::Finite(256))
                .with_max_insts(u64::MAX >> 1);
            cfg.cosim_check = true;
            let mut pipe = Pipeline::new(&prog, mem.clone(), cfg);
            let exit = pipe.run();
            assert_eq!(exit, RunExit::Halted, "seed {seed} mode {mode:?}");
            for r in 0..64u8 {
                assert_eq!(
                    pipe.arch_reg(r),
                    emu.reg(r),
                    "seed {seed} mode {mode:?}: r{r} diverged"
                );
            }
            total_reuse += pipe.stats.committed_reuse;
        }
        if (case + 1) % 50 == 0 {
            println!("{}/{} cases clean", case + 1, cases);
        }
    }
    println!(
        "all {cases} cases clean across {} modes ({total_reuse} values reused)",
        modes.len()
    );
}
