//! `fp16` layer probe: the staged kernel (`kernel::fma_row_staged`)
//! against the scalar `arith::fma` fold, on short reductions shaped like
//! the autoencoder's weight-gradient GEMMs (reduction length = batch 16,
//! one 32-lane accumulator row).

use crate::common::{expect, normal_f16, subnormal_f16, time_median, Metrics, Outcome, Rng};
use redmule_fp16::arith::fma;
use redmule_fp16::kernel::{fma_row_staged, Acc, Staged};
use redmule_fp16::{Round, F16};

/// Share of FP16 subnormals in the special-value operands: the share
/// measured in `ae-train`'s backward-pass gradient operands
/// (`nn.grad_subnormal_frac`).
pub const AE_GRAD_SUBNORMAL_SHARE: f64 = 0.21;

const REDUCTION: usize = 16;
const WIDTH: usize = 32;
const ROWS: usize = 256;
const KERNEL_PASSES: usize = 40;
const SCALAR_PASSES: usize = 2;

struct Operands {
    x: Vec<F16>,
    w: Vec<F16>,
}

impl Operands {
    /// Finite, mid-range operands: every step stays on the fast path.
    fn fast(rng: &mut Rng) -> Operands {
        Operands {
            x: (0..ROWS * REDUCTION)
                .map(|_| normal_f16(rng, -3, 3))
                .collect(),
            w: (0..ROWS * REDUCTION * WIDTH)
                .map(|_| normal_f16(rng, -3, 3))
                .collect(),
        }
    }

    /// Gradient-like X (the given share subnormal, the rest small
    /// normals) against activation-like W, so partial sums keep landing
    /// outside the binary16 normal range as they do in `ae-train`.
    fn special(rng: &mut Rng, share: f64) -> Operands {
        let grad = |rng: &mut Rng| {
            if rng.unit() < share {
                subnormal_f16(rng)
            } else {
                normal_f16(rng, -14, -10)
            }
        };
        Operands {
            x: (0..ROWS * REDUCTION).map(|_| grad(rng)).collect(),
            w: (0..ROWS * REDUCTION * WIDTH)
                .map(|_| normal_f16(rng, -3, 0))
                .collect(),
        }
    }

    fn steps(&self) -> usize {
        self.w.len()
    }

    /// All reductions through the staged kernel; returns the result bits.
    fn kernel(&self, xs: &Staged, ws: &Staged) -> Vec<u16> {
        let mut out = Vec::with_capacity(ROWS * WIDTH);
        for r in 0..ROWS {
            let mut acc = [Acc::ZERO; WIDTH];
            for l in 0..REDUCTION {
                let i = r * REDUCTION + l;
                fma_row_staged(xs, i, ws, i * WIDTH, &mut acc, Round::NearestEven);
            }
            out.extend(acc.iter().map(|a| a.to_bits()));
        }
        out
    }

    /// The same reductions as per-element `arith::fma` folds.
    fn scalar(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(ROWS * WIDTH);
        for r in 0..ROWS {
            for j in 0..WIDTH {
                let mut acc = 0u16;
                for l in 0..REDUCTION {
                    let i = r * REDUCTION + l;
                    acc = fma(
                        self.x[i].to_bits(),
                        self.w[i * WIDTH + j].to_bits(),
                        acc,
                        Round::NearestEven,
                    );
                }
                out.push(acc);
            }
        }
        out
    }

    /// Median kernel ns per FMA step, checking the result against the
    /// scalar fold.
    fn time_kernel(&self, m: &mut Metrics, reference: &[u16], problems: &mut Vec<String>) -> f64 {
        let xs = Staged::from_bits_iter(self.x.iter().map(|v| v.to_bits()));
        let ws = Staged::from_bits_iter(self.w.iter().map(|v| v.to_bits()));
        let (t, bits) = time_median(5, || {
            let mut bits = Vec::new();
            for _ in 0..KERNEL_PASSES {
                bits = self.kernel(&xs, &ws);
            }
            bits
        });
        m.add("fp16.calls", (5 * KERNEL_PASSES * ROWS * REDUCTION) as f64);
        m.add("fp16.failures", f64::from(u8::from(bits != reference)));
        expect(problems, bits == reference, || {
            "staged kernel differs from the scalar fma fold".into()
        });
        t * 1e9 / (KERNEL_PASSES * self.steps()) as f64
    }
}

/// Measures the `fp16` layer metrics.
pub fn run(seed: u64, m: &mut Metrics, out: &mut Outcome) {
    let mut problems = Vec::new();
    let mut rng = Rng::new(seed ^ 0xF16);
    let fast = Operands::fast(&mut rng);
    let special = Operands::special(&mut rng, AE_GRAD_SUBNORMAL_SHARE);

    let (scalar_t, fast_ref) = time_median(5, || {
        let mut bits = Vec::new();
        for _ in 0..SCALAR_PASSES {
            bits = fast.scalar();
        }
        bits
    });
    m.add("fp16.calls", (5 * SCALAR_PASSES * fast.steps()) as f64);
    let scalar_ns = scalar_t * 1e9 / (SCALAR_PASSES * fast.steps()) as f64;
    let fast_ns = fast.time_kernel(m, &fast_ref, &mut problems);
    let special_ref = special.scalar();
    m.add("fp16.calls", special.steps() as f64);
    let special_ns = special.time_kernel(m, &special_ref, &mut problems);
    out.op(problems);

    println!(
        "fp16 kernel: fast {fast_ns:.3} ns/step, special ({AE_GRAD_SUBNORMAL_SHARE} subnormal) \
         {special_ns:.3} ns/step, scalar fma {scalar_ns:.3} ns/step"
    );
    m.set("fp16.kernel.fast_ns_per_step", fast_ns);
    m.set("fp16.kernel.special_ns_per_step", special_ns);
    m.set("fp16.scalar.ns_per_step", scalar_ns);
    m.set("fp16.kernel.speedup_vs_scalar", scalar_ns / fast_ns);
}
