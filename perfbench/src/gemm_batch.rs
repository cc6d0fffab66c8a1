//! `gemm-batch`: one op is one `BatchExecutor::run` of a fixed batch of
//! functional-backend jobs (shapes 8..64 per dimension, a third each
//! FP16, E4M3 and E5M2, finite operands) plus the canonical report.

use crate::batch_loop::{self, Check};
use crate::common::{
    count_call, engine_gemm, expect, median, plan_compute, report_end_to_end, report_trace,
    same_bits, time_median, Census, Metrics, Outcome, Phases, Rng,
};
use crate::{kernel_probe, Config};
use redmule::{AccelConfig, BackendKind, Engine, FunctionalGemm};
use redmule_batch::{BatchExecutor, BatchReport, GemmJob};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};

const JOBS: usize = 256;
const SETUP_REPS: usize = 9;
/// Fixes the shape table and job order, so every seed runs the same
/// MACs and cycles with the same work split across workers, and only the
/// operand values vary.
const SHAPE_SEED: u64 = 0x6E_4D_4D;

/// The job set: shapes from the fixed table, formats cycling FP16, E4M3,
/// E5M2, operands uniform in [-1, 1) from the seed.
pub fn jobs(seed: u64, lo: usize, hi: usize, n: usize, backend: BackendKind) -> Vec<GemmJob> {
    let mut shapes = Rng::new(SHAPE_SEED ^ lo as u64);
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let shape = GemmShape::new(
                shapes.range(lo, hi),
                shapes.range(lo, hi),
                shapes.range(lo, hi),
            );
            let mut operand = |len: usize| -> Vec<F16> {
                (0..len)
                    .map(|_| F16::from_f32(rng.uniform(-1.0, 1.0) as f32))
                    .collect()
            };
            let (x, w) = (operand(shape.x_len()), operand(shape.w_len()));
            GemmJob::new(i as u64, shape, x, w)
                .with_backend(backend)
                .with_format(Format::ALL[i % 3])
        })
        .collect()
}

/// Operand classes as the datapath sees them (after the format cast).
pub fn census(jobs: &[GemmJob], m: &mut Metrics) {
    let mut c = Census::default();
    for j in jobs {
        let q = |v: &[F16]| v.iter().map(|e| j.format.quantize(*e)).collect::<Vec<_>>();
        c.add(&q(&j.x));
        c.add(&q(&j.w));
    }
    c.report(m);
}

fn job_by_id(report: &BatchReport, id: u64) -> Option<&redmule_batch::JobResult> {
    report.jobs.iter().find(|r| r.id == id)
}

/// The one-off check op: the canonical report at `workers` workers
/// equals the one-worker report, and every job's Z and cycles equal the
/// cycle-accurate engine's. Returns the reference report and the engine
/// phase attribution.
fn check(
    exec: &BatchExecutor,
    jobs: &[GemmJob],
    out: &mut Outcome,
) -> Result<(BatchReport, String, Phases), String> {
    let mut problems = Vec::new();
    let (_, one) = batch_loop::reference(&BatchExecutor::new(1), jobs)?;
    let (report, json) = batch_loop::reference(exec, jobs)?;
    expect(&mut problems, json == one, || {
        format!(
            "report at {} workers differs from the 1-worker report",
            exec.workers()
        )
    });
    let engine = Engine::new(AccelConfig::paper());
    let mut phases = Phases::default();
    for j in jobs {
        let (z, run) = engine_gemm(&engine, j.shape, j.format, &j.x, &j.w)?;
        phases.add(&run);
        let ok = job_by_id(&report, j.id)
            .is_some_and(|r| same_bits(&r.z, &z) && r.cycles == run.cycles.count());
        expect(&mut problems, ok, || {
            format!("job {} differs from the cycle-accurate engine", j.id)
        });
    }
    out.op(problems);
    Ok((report, json, phases))
}

pub fn run(cfg: &Config, m: &mut Metrics, out: &mut Outcome) -> Result<(), String> {
    let workers = cfg.host.parallelism;
    cfg.host.report(workers, m);
    let (setup_s, (jobs, exec)) = time_median(if cfg.trace { 1 } else { SETUP_REPS }, || {
        (
            jobs(cfg.seed, 8, 64, JOBS, BackendKind::Functional),
            BatchExecutor::new(workers),
        )
    });
    let (first, reference, phases) = check(&exec, &jobs, out)?;
    let report_cycles: u64 = {
        let model = FunctionalGemm::paper_instance();
        jobs.iter()
            .map(|j| model.estimated_cycles_format(j.shape, j.format).count())
            .sum()
    };
    let macs: u64 = jobs.iter().map(|j| j.shape.macs()).sum();
    let no_extra: Check<'_> = &|_| Vec::new();
    let (log, traced) = batch_loop::run_loop(cfg, m, out, &exec, &jobs, &reference, no_extra);
    let Some((tracer, traced_log)) = traced else {
        census(&jobs, &mut Metrics::default());
        report_end_to_end(m, &log, setup_s, macs, report_cycles);
        return Ok(());
    };

    m.set("batch.report_render_ms", tracer.per_op_ms("batch.render"));
    report_trace(cfg, m, &log, &tracer, &traced_log)?;
    census(&jobs, m);
    phases.report(m);
    replay(cfg, &jobs, &first, &reference, m, out);
    kernel_probe::run(cfg.seed, m, out);
    Ok(())
}

/// The bare replay: every job through `FunctionalGemm::plan` and
/// `compute_band_into` on this thread, no executor, each Z checked
/// against the executor's. Reports the functional-layer figures from the
/// median plan and compute times.
fn replay(
    cfg: &Config,
    jobs: &[GemmJob],
    report: &BatchReport,
    reference: &str,
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let model = FunctionalGemm::paper_instance();
    let mut plan_t = Vec::new();
    let mut compute_t = Vec::new();
    let mut problems = Vec::new();
    let bare = |m: &mut Metrics| {
        let (mut tp, mut tc) = (0.0, 0.0);
        for j in jobs {
            let ok = match plan_compute(&model, j.shape, j.format, &j.x, &j.w) {
                Ok((z, p, c)) => {
                    tp += p;
                    tc += c;
                    job_by_id(report, j.id).is_some_and(|r| same_bits(&r.z, &z))
                }
                Err(e) => {
                    problems.push(e);
                    false
                }
            };
            count_call(m, "functional", ok);
            expect(&mut problems, ok, || {
                format!("replay of job {} differs", j.id)
            });
        }
        plan_t.push(tp);
        compute_t.push(tc);
        tp + tc
    };
    batch_loop::executor_layer(m, jobs, cfg.host.parallelism, 7, reference, bare);
    out.op(problems);
    let macs: u64 = jobs.iter().map(|j| j.shape.macs()).sum();
    let (tp, tc) = (median(&plan_t), median(&compute_t));
    println!(
        "bare replay: {macs} MACs, plan {:.3} + compute {:.3} ns/MAC",
        tp * 1e9 / macs as f64,
        tc * 1e9 / macs as f64
    );
    m.set("functional.plan.ns_per_mac", tp * 1e9 / macs as f64);
    m.set("functional.compute.ns_per_mac", tc * 1e9 / macs as f64);
    m.set("functional.plan.share", tp / (tp + tc));
}
