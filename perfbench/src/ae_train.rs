//! `ae-train`: the paper's own traffic. One op is one
//! `Network::train_step` of the MLPerf-Tiny autoencoder at batch 16 on
//! the functional backend, single-threaded.

use crate::common::{
    count_call, engine_gemm, expect, median, plan_compute, report_end_to_end, report_trace,
    same_bits, time_median, Census, Metrics, OpLog, Outcome, Phases, Rng, Tracer,
};
use crate::{kernel_probe, Config};
use redmule::{AccelConfig, Engine, FunctionalGemm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};
use redmule_nn::autoencoder;
use redmule_nn::backend::{Backend, CycleLedger, OpKind};
use redmule_nn::mlp::{Dense, Network};
use redmule_nn::Tensor;
use std::time::Instant;

const BATCH: usize = 16;
const LR: f32 = 0.002;
/// Distinct input batches the loop cycles through.
const POOL: usize = 8;
/// The network under training starts from one fixed initialisation; the
/// seed drives the training data.
const INIT_SEED: u64 = 2024;
const SETUP_REPS: usize = 9;

struct State {
    net: Network,
    inputs: Vec<Tensor>,
    backend: Backend,
    ledger: CycleLedger,
}

fn setup(seed: u64) -> State {
    let mut rng = Rng::new(seed);
    let inputs = (0..POOL)
        .map(|_| Tensor::from_fn(640, BATCH, |_, _| rng.uniform(-0.5, 0.5) as f32))
        .collect();
    State {
        net: autoencoder::mlperf_tiny(INIT_SEED),
        inputs,
        backend: Backend::hw_functional(),
        ledger: CycleLedger::new(),
    }
}

/// GEMM MACs and GEMM cycles recorded in a ledger.
fn gemm_totals(ledger: &CycleLedger) -> (u64, u64) {
    ledger
        .records()
        .iter()
        .filter_map(|r| r.shape.map(|s| (s.macs(), r.cycles.count())))
        .fold((0, 0), |(m, c), (dm, dc)| (m + dm, c + dc))
}

fn ledger_cycles(ledger: &CycleLedger) -> Vec<u64> {
    ledger.records().iter().map(|r| r.cycles.count()).collect()
}

fn same_weights(a: &[Dense], b: &[Dense]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| same_bits(x.weights().as_slice(), y.weights().as_slice()))
}

/// One GEMM of a training step, as `Dense` issues it.
struct Gemm {
    shape: GemmShape,
    x: Vec<F16>,
    w: Vec<F16>,
    /// Which operand, if any, is the output gradient (`'x'` or `'w'`).
    grad: Option<char>,
}

/// The step `Network::train_step` takes, driven layer by layer through
/// `Dense::forward`, `Dense::backward` and `Dense::apply_update`, with
/// spans around each call when traced and the GEMM operands captured
/// when asked.
fn manual_step(
    layers: &mut [Dense],
    x: &Tensor,
    backend: &mut Backend,
    ledger: &mut CycleLedger,
    mut tracer: Option<&mut Tracer>,
    mut capture: Option<&mut Vec<Gemm>>,
) -> Result<(), String> {
    let begin = |t: &mut Option<&mut Tracer>, name| {
        if let Some(t) = t.as_deref_mut() {
            t.begin(name);
        }
    };
    let end = |t: &mut Option<&mut Tracer>| {
        if let Some(t) = t.as_deref_mut() {
            t.end();
        }
    };
    let mut inputs = Vec::with_capacity(layers.len());
    let mut outputs = Vec::with_capacity(layers.len());
    let mut a = x.clone();
    for layer in layers.iter_mut() {
        begin(&mut tracer, "nn.forward");
        let y = layer.forward(&a, backend, ledger);
        end(&mut tracer);
        let y = y.map_err(|e| e.to_string())?;
        if let Some(c) = capture.as_deref_mut() {
            c.push(Gemm {
                shape: GemmShape::new(layer.out_dim(), layer.in_dim(), a.cols()),
                x: layer.weights().as_slice().to_vec(),
                w: a.as_slice().to_vec(),
                grad: None,
            });
            inputs.push(a.clone());
            outputs.push(y.clone());
        }
        a = y;
    }

    // The MSE loss gradient against the input, in FP16, as train_step
    // computes it.
    begin(&mut tracer, "nn.loss");
    let y = a;
    let scale = F16::from_f32(2.0 / y.rows() as f32);
    let mut grad = Tensor::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        for c in 0..y.cols() {
            grad.set(r, c, (y.get(r, c) - x.get(r, c)) * scale);
        }
    }
    ledger.record(
        "loss",
        OpKind::Loss,
        None,
        backend.elementwise_cycles(2 * y.len()),
    );
    end(&mut tracer);

    for (i, layer) in layers.iter_mut().enumerate().rev() {
        if let Some(c) = capture.as_deref_mut() {
            // The ReLU-masked output gradient Dense::backward feeds its
            // two GEMMs.
            let mut d_y = grad.clone();
            if layer.has_relu() {
                for (d, o) in d_y.as_mut_slice().iter_mut().zip(outputs[i].as_slice()) {
                    if o.is_zero() || o.is_sign_negative() {
                        *d = F16::ZERO;
                    }
                }
            }
            let (out, inp, b) = (layer.out_dim(), layer.in_dim(), grad.cols());
            c.push(Gemm {
                shape: GemmShape::new(out, b, inp),
                x: d_y.as_slice().to_vec(),
                w: inputs[i].transposed().as_slice().to_vec(),
                grad: Some('x'),
            });
            c.push(Gemm {
                shape: GemmShape::new(inp, out, b),
                x: layer.weights().transposed().as_slice().to_vec(),
                w: d_y.as_slice().to_vec(),
                grad: Some('w'),
            });
        }
        begin(&mut tracer, "nn.backward");
        let g = layer.backward(&grad, backend, ledger);
        end(&mut tracer);
        grad = g.map_err(|e| e.to_string())?;
    }
    for layer in layers.iter_mut() {
        begin(&mut tracer, "nn.update");
        layer.apply_update(LR, backend, ledger);
        end(&mut tracer);
    }
    Ok(())
}

/// Reference of the first step: ledger cycles per record and GEMM totals.
struct Reference {
    cycles: Vec<u64>,
    macs: u64,
    gemm_cycles: u64,
}

/// The one-off check op: the first step on the functional backend must
/// give the same weights, loss and ledger cycles, bit for bit, as the
/// same step on the cycle-accurate `Backend::hw()`.
fn check_first_step(s: &mut State, out: &mut Outcome) -> Reference {
    let mut problems = Vec::new();
    let mut hw_net = s.net.clone();
    let mut hw_ledger = CycleLedger::new();
    let hw = hw_net.train_step(&s.inputs[0], LR, &mut Backend::hw(), &mut hw_ledger);
    s.ledger.clear();
    let fun = s
        .net
        .train_step(&s.inputs[0], LR, &mut s.backend, &mut s.ledger);
    match (hw, fun) {
        (Ok(h), Ok(f)) => {
            expect(&mut problems, h.loss.to_bits() == f.loss.to_bits(), || {
                format!("first-step loss {} != hw {}", f.loss, h.loss)
            });
            expect(
                &mut problems,
                same_weights(hw_net.layers(), s.net.layers()),
                || "first-step weights differ from Backend::hw()".into(),
            );
            expect(
                &mut problems,
                ledger_cycles(&hw_ledger) == ledger_cycles(&s.ledger),
                || "first-step ledger cycles differ from Backend::hw()".into(),
            );
        }
        (h, f) => problems.push(format!("first step failed: hw {h:?}, functional {f:?}")),
    }
    out.op(problems);
    let (macs, gemm_cycles) = gemm_totals(&s.ledger);
    Reference {
        cycles: ledger_cycles(&s.ledger),
        macs,
        gemm_cycles,
    }
}

/// Runs one untraced op (`train_step`) and its output checks.
fn plain_op(s: &mut State, i: usize, r: &Reference, log: &mut OpLog, out: &mut Outcome) {
    let x = &s.inputs[i % POOL];
    s.ledger.clear();
    let t = Instant::now();
    let step = s.net.train_step(x, LR, &mut s.backend, &mut s.ledger);
    let dt = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    match step {
        Ok(rep) => {
            log.push(dt, r.macs, r.gemm_cycles);
            expect(&mut problems, rep.loss.is_finite(), || {
                format!("step {i}: loss {} is not finite", rep.loss)
            });
            expect(&mut problems, ledger_cycles(&s.ledger) == r.cycles, || {
                format!("step {i}: ledger cycles differ from the first step")
            });
        }
        Err(e) => problems.push(format!("step {i}: {e}")),
    }
    out.op(problems);
}

pub fn run(cfg: &Config, m: &mut Metrics, out: &mut Outcome) -> Result<(), String> {
    cfg.host.report(1, m);
    let (setup_s, mut s) = time_median(if cfg.trace { 1 } else { SETUP_REPS }, || setup(cfg.seed));
    let reference = check_first_step(&mut s, out);
    let mut log = OpLog::default();
    let mut i = 1;
    if !cfg.trace {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < cfg.seconds {
            plain_op(&mut s, i, &reference, &mut log, out);
            i += 1;
        }
        report_end_to_end(m, &log, setup_s, reference.macs, reference.gemm_cycles);
        return Ok(());
    }

    // Traced run: one step's GEMM operands are captured for the replays;
    // then each traced op drives the same step as the untraced op before
    // it on a clone of the layers, and must end on the same weights and
    // ledger cycles.
    let mut gemms = Vec::new();
    manual_step(
        &mut s.net.layers().to_vec(),
        &s.inputs[1],
        &mut Backend::hw_functional(),
        &mut CycleLedger::new(),
        None,
        Some(&mut gemms),
    )?;
    let mut tracer = Tracer::new();
    let mut traced_log = OpLog::default();
    let mut side = Backend::hw_functional();
    let mut side_ledger = CycleLedger::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let mut layers = s.net.layers().to_vec();
        plain_op(&mut s, i, &reference, &mut log, out);
        side_ledger.clear();
        let t = Instant::now();
        tracer.begin_op();
        let step = manual_step(
            &mut layers,
            &s.inputs[i % POOL],
            &mut side,
            &mut side_ledger,
            Some(&mut tracer),
            None,
        );
        tracer.end();
        traced_log.push(
            t.elapsed().as_secs_f64(),
            reference.macs,
            reference.gemm_cycles,
        );
        let ok = step.is_ok()
            && same_weights(&layers, s.net.layers())
            && ledger_cycles(&side_ledger) == reference.cycles;
        for _ in 0..3 * layers.len() {
            count_call(m, "nn", ok);
        }
        let mut problems = Vec::new();
        expect(&mut problems, ok, || {
            format!("step {i}: Dense-driven step differs from train_step ({step:?})")
        });
        out.op(problems);
        i += 1;
    }
    m.set("nn.forward_ms", tracer.per_op_ms("nn.forward"));
    m.set("nn.backward_ms", tracer.per_op_ms("nn.backward"));
    m.set("nn.update_ms", tracer.per_op_ms("nn.update"));
    report_trace(cfg, m, &log, &tracer, &traced_log)?;
    replay(&gemms, m, out)?;
    kernel_probe::run(cfg.seed, m, out);
    Ok(())
}

/// Replays one step's captured GEMMs outside the timed loop: through
/// `Backend::gemm` (what `nn` calls), through `FunctionalGemm::plan` and
/// `compute_band_into` (the `functional` layer), and once on the
/// cycle-accurate engine for the phase attribution.
fn replay(gemms: &[Gemm], m: &mut Metrics, out: &mut Outcome) -> Result<(), String> {
    let mut census = Census::default();
    let (mut grads, mut acts) = (Census::default(), Census::default());
    for g in gemms {
        census.add(&g.x);
        census.add(&g.w);
        match g.grad {
            Some('x') => grads.add(&g.x),
            Some(_) => grads.add(&g.w),
            None => acts.add(&g.w),
        }
    }
    census.report(m);
    println!(
        "subnormal share: gradients {:.4}, activations {:.4}",
        grads.subnormal_frac(),
        acts.subnormal_frac()
    );
    m.set("nn.grad_subnormal_frac", grads.subnormal_frac());
    m.set("nn.act_subnormal_frac", acts.subnormal_frac());

    let macs: u64 = gemms.iter().map(|g| g.shape.macs()).sum();
    let mut backend = Backend::hw_functional();
    let (t, zs) = time_median(3, || {
        gemms
            .iter()
            .map(|g| backend.gemm(g.shape, &g.x, &g.w).map(|(z, _)| z))
            .collect::<Result<Vec<_>, _>>()
    });
    let zs = zs.map_err(|e| e.to_string())?;
    m.set("nn.gemm_ns_per_mac", t * 1e9 / macs as f64);

    let model = FunctionalGemm::paper_instance();
    let mut plan_t = Vec::new();
    let mut compute_t = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..3 {
        let (mut tp, mut tc) = (0.0, 0.0);
        for (g, z_ref) in gemms.iter().zip(&zs) {
            let ok = match plan_compute(&model, g.shape, Format::Fp16, &g.x, &g.w) {
                Ok((z, p, c)) => {
                    tp += p;
                    tc += c;
                    same_bits(&z, z_ref)
                }
                Err(e) => {
                    problems.push(e);
                    false
                }
            };
            count_call(m, "functional", ok);
            expect(&mut problems, ok, || {
                format!(
                    "functional replay of {:?} differs from Backend::gemm",
                    g.shape
                )
            });
        }
        plan_t.push(tp);
        compute_t.push(tc);
    }
    let (tp, tc) = (median(&plan_t), median(&compute_t));
    m.set("functional.plan.ns_per_mac", tp * 1e9 / macs as f64);
    m.set("functional.compute.ns_per_mac", tc * 1e9 / macs as f64);
    m.set("functional.plan.share", tp / (tp + tc));
    println!(
        "step GEMMs: {macs} MACs, backend {:.3} ns/MAC, plan {:.3} + compute {:.3} ns/MAC",
        t * 1e9 / macs as f64,
        tp * 1e9 / macs as f64,
        tc * 1e9 / macs as f64
    );

    let engine = Engine::new(AccelConfig::paper());
    let mut phases = Phases::default();
    for (g, z_ref) in gemms.iter().zip(&zs) {
        let ok = match engine_gemm(&engine, g.shape, Format::Fp16, &g.x, &g.w) {
            Ok((z, report)) => {
                phases.add(&report);
                same_bits(&z, z_ref)
            }
            Err(e) => {
                problems.push(e);
                false
            }
        };
        count_call(m, "redmule", ok);
        expect(&mut problems, ok, || {
            format!(
                "engine replay of {:?} differs from the functional backend",
                g.shape
            )
        });
    }
    phases.report(m);
    out.op(problems);
    Ok(())
}
