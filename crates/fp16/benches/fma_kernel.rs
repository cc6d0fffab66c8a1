//! Micro-benchmark: scalar `fma` fold vs the batched kernel's
//! `fma_row_staged` path on the same reduction rows.
//!
//! ```text
//! cargo bench -p redmule-fp16 --bench fma_kernel
//! ```
//!
//! Two variants over identical data, plus one on gradient-like data:
//! * `scalar_fma` — one `arith::fma` call per step, classify + re-pack
//!   every time (what `FunctionalGemm` did before the batched kernel);
//! * `fma_row_staged_x16` — the GEMM inner-loop shape, one X operand
//!   broadcast against a 16-wide panel of accumulators, through the
//!   structure-of-arrays vector kernel `FunctionalGemm` runs;
//! * `fma_row_staged_x16_gradient` — the staged kernel on operands shaped
//!   like an autoencoder training step's backward pass: X is a gradient
//!   row about 21% subnormal plus zeros, W an activation row with ReLU
//!   zeros, so the partial sums keep landing on zero and subnormal
//!   results (the staged kernel's second vector tier).
//!
//! A second group, `column_l8`, times one cycle-accurate datapath column
//! of the paper instance (L = 8 rows, phase width 16): every step
//! broadcasts one W element against the column's latched X row, the X row
//! is relatched every 16 steps, and the partial sums enter and leave as
//! binary16 bits, as they do in the datapath's pipelines.
//! * `scalar_fma` — one `arith::fma` per row per step;
//! * `fma_row_staged` — the step the datapath takes: W restaged in place
//!   with `Staged::set`, one `fma_row_staged` call over the L rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use redmule_fp16::arith::fma;
use redmule_fp16::kernel::{fma_row_staged, Acc, Staged};
use redmule_fp16::Round;

const N: usize = 4096;

/// `N` values `f(r)` of a xorshift32 stream `r` seeded with `seed`.
fn gen(seed: u32, f: impl Fn(u32) -> u16) -> Vec<u16> {
    let mut state = seed | 1;
    (0..N)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            f(state)
        })
        .collect()
}

fn rows() -> (Vec<u16>, Vec<u16>) {
    // Finite, mid-range exponents: the all-finite common case.
    let mid = |r: u32| 0x2C00 | (r as u16 & 0x0FFF);
    (gen(0x1234_5678, mid), gen(0x8765_4321, mid))
}

/// Gradient-like X and activation-like W rows. The top byte of each draw
/// picks the class, the low bits the sign and significand.
fn gradient_rows() -> (Vec<u16>, Vec<u16>) {
    let sign_frac = |r: u32| r as u16 & 0x83FF;
    // X: ~21% subnormal, ~10% zero, the rest normals in [2^-14, 2^-10).
    let grad = move |r: u32| match (r >> 24) * 100 / 256 {
        0..=20 => sign_frac(r) | 1,
        21..=30 => 0,
        _ => sign_frac(r) | (1 + (r >> 16) as u16 % 4) << 10,
    };
    // W: ~25% ReLU zeros, the rest normals in [2^-3, 1).
    let act = move |r: u32| match (r >> 24) * 100 / 256 {
        0..=24 => 0,
        _ => sign_frac(r) | (12 + (r >> 16) as u16 % 3) << 10,
    };
    (gen(0x1234_5678, grad), gen(0x8765_4321, act))
}

fn bench_fma(c: &mut Criterion) {
    let (xs, ws) = rows();

    let mut g = c.benchmark_group("fma4096");
    g.bench_function("scalar_fma", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for (&a, &w) in xs.iter().zip(ws.iter()) {
                acc = fma(a, w, acc, Round::NearestEven);
            }
            black_box(acc)
        })
    });
    g.bench_function("fma_row_staged_x16", |b| {
        // 4096 steps spread over a 16-wide accumulator panel, matching the
        // paper instance's phase width: one staged X row of 256 elements
        // against a staged 256 x 16 W panel, 256 row steps of 16 lanes.
        let xst = Staged::from_bits_iter(xs.iter().step_by(16).copied());
        let wst = Staged::from_bits_iter(ws.iter().copied());
        b.iter(|| {
            let mut acc = [Acc::ZERO; 16];
            for l in 0..xst.len() {
                fma_row_staged(&xst, l, &wst, l * 16, &mut acc, Round::NearestEven);
            }
            black_box(acc[0].to_bits())
        })
    });
    g.bench_function("fma_row_staged_x16_gradient", |b| {
        // The same 256 x 16 staged walk on gradient-like operands.
        let (gx, gw) = gradient_rows();
        let xst = Staged::from_bits_iter(gx.iter().step_by(16).copied());
        let wst = Staged::from_bits_iter(gw.iter().copied());
        b.iter(|| {
            let mut acc = [Acc::ZERO; 16];
            for l in 0..xst.len() {
                fma_row_staged(&xst, l, &wst, l * 16, &mut acc, Round::NearestEven);
            }
            black_box(acc[0].to_bits())
        })
    });
    g.finish();
}

/// Rows of the paper instance's datapath column and its phase width.
const COL_L: usize = 8;
const COL_PW: usize = 16;

fn bench_column(c: &mut Criterion) {
    let (xs, ws) = rows();
    let mut g = c.benchmark_group("column_l8");
    g.bench_function("scalar_fma", |b| {
        b.iter(|| {
            let mut acc = [0u16; COL_L];
            let mut x = [0u16; COL_L];
            for (s, &w) in ws.iter().enumerate() {
                if s % COL_PW == 0 {
                    x.copy_from_slice(&xs[s % (N - COL_L)..][..COL_L]);
                }
                for (a, &xr) in acc.iter_mut().zip(x.iter()) {
                    *a = fma(xr, w, *a, Round::NearestEven);
                }
            }
            black_box(acc[0])
        })
    });
    g.bench_function("fma_row_staged", |b| {
        let mut x = Staged::from_bits_iter(std::iter::repeat_n(0, COL_L));
        let mut wst = Staged::from_bits_iter(std::iter::once(0));
        b.iter(|| {
            let mut bits = [0u16; COL_L];
            let mut acc = [Acc::ZERO; COL_L];
            for (s, &w) in ws.iter().enumerate() {
                if s % COL_PW == 0 {
                    for (r, &xr) in xs[s % (N - COL_L)..][..COL_L].iter().enumerate() {
                        x.set(r, xr);
                    }
                }
                for (a, &v) in acc.iter_mut().zip(bits.iter()) {
                    *a = Acc::from_bits(v);
                }
                wst.set(0, w);
                fma_row_staged(&wst, 0, &x, 0, &mut acc, Round::NearestEven);
                for (v, a) in bits.iter_mut().zip(acc.iter()) {
                    *v = a.to_bits();
                }
            }
            black_box(bits[0])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fma, bench_column);
criterion_main!(benches);
