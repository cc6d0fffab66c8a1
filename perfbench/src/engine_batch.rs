//! `engine-batch`: one op is one `BatchExecutor::run` of cycle-accurate
//! supervised jobs (shapes 32..96 per dimension, FP16 and both FP8
//! formats, a checkpoint every few tiles) plus the canonical report.

use crate::batch_loop::{self, Check};
use crate::common::{
    count_call, expect, median, report_end_to_end, report_trace, same_bits, time_median, Metrics,
    Outcome, Phases,
};
use crate::gemm_batch::{census, jobs};
use crate::Config;
use redmule::{cast, stage_gemm_workspace_in, AccelConfig, BackendKind, Engine, FunctionalGemm};
use redmule_batch::{BatchExecutor, BatchReport, GemmJob};
use redmule_fp16::F16;
use redmule_runtime::{Checkpoint, Limits, StopReason, Supervisor};
use std::time::Instant;

const JOBS: usize = 12;
const SETUP_REPS: usize = 9;
/// Supervisor checkpoint cadence in tiles.
const CHECKPOINT_TILES: usize = 4;

/// What every op must reproduce per job: the analytical cycle count and
/// the functional backend's Z.
struct Expected {
    id: u64,
    cycles: u64,
    z: Vec<F16>,
}

fn expected(jobs: &[GemmJob]) -> Result<Vec<Expected>, String> {
    let model = FunctionalGemm::paper_instance();
    jobs.iter()
        .map(|j| {
            let run = model
                .run_format(j.shape, j.format, &j.x, &j.w)
                .map_err(|e| e.to_string())?;
            Ok(Expected {
                id: j.id,
                cycles: model.estimated_cycles_format(j.shape, j.format).count(),
                z: run.z,
            })
        })
        .collect()
}

fn check_report(report: &BatchReport, expected: &[Expected]) -> Vec<String> {
    let mut problems = Vec::new();
    for e in expected {
        let ok = report
            .jobs
            .iter()
            .find(|r| r.id == e.id)
            .is_some_and(|r| r.cycles == e.cycles && same_bits(&r.z, &e.z));
        expect(&mut problems, ok, || {
            format!("job {}: cycles or Z differ from the functional model", e.id)
        });
    }
    problems
}

pub fn run(cfg: &Config, m: &mut Metrics, out: &mut Outcome) -> Result<(), String> {
    let workers = cfg.host.parallelism;
    cfg.host.report(workers, m);
    let (setup_s, (jobs, exec)) = time_median(if cfg.trace { 1 } else { SETUP_REPS }, || {
        let jobs: Vec<GemmJob> = jobs(cfg.seed, 32, 96, JOBS, BackendKind::CycleAccurate)
            .into_iter()
            .map(|j| j.with_checkpoint_interval(CHECKPOINT_TILES))
            .collect();
        (jobs, BatchExecutor::new(workers))
    });

    // The one-off check op: the reference report must pass the per-op
    // checks against the functional model.
    let expected = expected(&jobs)?;
    let (first, reference) = batch_loop::reference(&exec, &jobs)?;
    out.op(check_report(&first, &expected));
    let check: Check<'_> = &|r| check_report(r, &expected);
    let (log, traced) = batch_loop::run_loop(cfg, m, out, &exec, &jobs, &reference, check);
    let Some((tracer, traced_log)) = traced else {
        census(&jobs, &mut Metrics::default());
        report_end_to_end(m, &log, setup_s, first.total_macs(), first.total_cycles());
        return Ok(());
    };

    m.set("batch.report_render_ms", tracer.per_op_ms("batch.render"));
    report_trace(cfg, m, &log, &tracer, &traced_log)?;
    census(&jobs, m);
    replay(cfg, &jobs, &expected, &reference, m, out);
    Ok(())
}

/// Replays the jobs outside the loop, one at a time on this thread:
/// workspace staging, the raw engine, the supervised run the executor
/// performs, and a checkpoint capture/restore round trip per job.
fn replay(
    cfg: &Config,
    jobs: &[GemmJob],
    expected: &[Expected],
    reference: &str,
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let engine = Engine::new(AccelConfig::paper());
    let mut problems = Vec::new();

    // Per job: staging, the raw tick loop, and the supervised run the
    // executor performs (staged again), interleaved so host drift hits
    // all of them alike. Staging plus the supervised run is the bare
    // replay the executor is compared against.
    let (mut stage_t, mut raw_t, mut sup_t) = (Vec::new(), Vec::new(), Vec::new());
    let mut phases = Phases::default();
    let mut cycles = 0u64;
    let bare = |m: &mut Metrics| {
        let (mut ts, mut tr, mut tsup) = (0.0, 0.0, 0.0);
        let first = raw_t.is_empty();
        for j in jobs {
            let stage = |m: &mut Metrics, ts: &mut f64| {
                let t = Instant::now();
                let staged = stage_gemm_workspace_in(j.shape, j.format, &j.x, &j.w, None);
                *ts += t.elapsed().as_secs_f64();
                count_call(m, "redmule", staged.is_ok());
                staged.ok()
            };
            if let Some((job, mut mem, mut hci)) = stage(m, &mut ts) {
                let t = Instant::now();
                let run = engine.run(job, &mut mem, &mut hci);
                tr += t.elapsed().as_secs_f64();
                count_call(m, "redmule", run.is_ok());
                match run {
                    Ok(report) if first => {
                        phases.add(&report);
                        cycles += report.cycles.count();
                    }
                    Ok(_) => {}
                    Err(e) => problems.push(format!("engine run of job {}: {e}", j.id)),
                }
            }
            let mut ts_sup = 0.0;
            if let Some((job, mut mem, mut hci)) = stage(m, &mut ts_sup) {
                let sup =
                    Supervisor::new(engine.clone()).with_checkpoint_interval(CHECKPOINT_TILES);
                let t = Instant::now();
                let run = sup.run(job, &mut mem, &mut hci);
                tsup += t.elapsed().as_secs_f64();
                let ok = run.is_ok_and(|r| matches!(r.stop, StopReason::Completed));
                count_call(m, "runtime", ok);
                expect(&mut problems, ok, || {
                    format!("supervised run of job {} failed", j.id)
                });
            }
        }
        stage_t.push(ts);
        raw_t.push(tr);
        sup_t.push(tsup);
        ts + tsup
    };
    batch_loop::executor_layer(m, jobs, cfg.host.parallelism, 5, reference, bare);
    let (raw, sup) = (median(&raw_t), median(&sup_t));
    let stage_us = median(&stage_t) * 1e6 / jobs.len() as f64;
    let mcps = cycles as f64 / raw / 1e6;
    let share = (sup - raw) / sup;
    println!(
        "engine: staging {stage_us:.1} us/job, raw tick loop {mcps:.3} Mcycles/s; \
         supervised {:.3} ms vs raw {:.3} ms per batch (overhead share {share:.4})",
        sup * 1e3,
        raw * 1e3
    );
    m.set("redmule.stage_us", stage_us);
    m.set("redmule.engine.mcycles_per_s", mcps);
    m.set("runtime.supervisor.overhead_share", share);
    phases.report(m);

    // A checkpoint halfway through each job: restore it into a fresh
    // workspace, capture it again, and finish the job from there.
    let (mut capture_t, mut restore_t, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (j, e) in jobs.iter().zip(expected) {
        match checkpoint_round_trip(&engine, j, e) {
            Ok((c, r, b)) => {
                capture_t.push(c);
                restore_t.push(r);
                bytes.push(b as f64);
                count_call(m, "runtime", true);
            }
            Err(p) => {
                count_call(m, "runtime", false);
                problems.push(p);
            }
        }
    }
    let (capture_us, restore_us) = (median(&capture_t) * 1e6, median(&restore_t) * 1e6);
    println!(
        "checkpoint: capture {capture_us:.1} us, restore {restore_us:.1} us, {:.0} bytes (medians over jobs)",
        median(&bytes)
    );
    m.set("runtime.checkpoint.capture_us", capture_us);
    m.set("runtime.checkpoint.restore_us", restore_us);
    m.set("runtime.checkpoint.bytes", median(&bytes));
    out.op(problems);
}

/// Stops `job` at half its cycles, restores the checkpoint into a fresh
/// workspace (timed), captures it again (timed), then finishes the run
/// and checks Z. Returns capture seconds, restore seconds and the
/// serialised checkpoint size.
fn checkpoint_round_trip(
    engine: &Engine,
    j: &GemmJob,
    e: &Expected,
) -> Result<(f64, f64, usize), String> {
    let stage =
        || stage_gemm_workspace_in(j.shape, j.format, &j.x, &j.w, None).map_err(|e| e.to_string());
    let (job, mut mem, mut hci) = stage()?;
    let half = Supervisor::new(engine.clone())
        .with_limits(Limits::none().with_max_cycles(e.cycles / 2))
        .run(job, &mut mem, &mut hci)
        .map_err(|e| e.to_string())?;
    let ckpt = half
        .checkpoint
        .ok_or(format!("job {}: no checkpoint at half budget", j.id))?;
    let bytes = ckpt.to_bytes().len();

    let (job, mut mem, mut hci) = stage()?;
    let t = Instant::now();
    let session = ckpt.restore(engine, &mut mem, &mut hci);
    let restore_s = t.elapsed().as_secs_f64();
    let mut session = session.map_err(|e| e.to_string())?;
    let t = Instant::now();
    let again = Checkpoint::capture(&mut session, &mem, &hci);
    let capture_s = t.elapsed().as_secs_f64();
    if again.map_err(|e| e.to_string())? != ckpt {
        return Err(format!("job {}: re-captured checkpoint differs", j.id));
    }
    let run = Supervisor::new(engine.clone())
        .run_session(session, &mut mem, &mut hci)
        .map_err(|e| e.to_string())?;
    let z = cast::castin_slice(&mem, j.format, job.z_addr, j.shape.z_len())
        .map_err(|e| format!("{e:?}"))?;
    if !matches!(run.stop, StopReason::Completed) || !same_bits(&z, &e.z) {
        return Err(format!(
            "job {}: resumed run differs from the functional model",
            j.id
        ));
    }
    Ok((capture_s, restore_s, bytes))
}
