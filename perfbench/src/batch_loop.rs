//! The closed loop shared by the two batch workloads: one op is one
//! `BatchExecutor::run` of a fixed job set plus the canonical report
//! render, checked against the reference report after every op.

use crate::common::{count_call, expect, median, Metrics, OpLog, Outcome, Tracer};
use crate::Config;
use redmule_batch::{BatchExecutor, BatchReport, GemmJob};
use std::time::Instant;

/// Per-op output check beyond the canonical-report comparison.
pub type Check<'a> = &'a dyn Fn(&BatchReport) -> Vec<String>;

/// Runs one op, with `batch.run` and `batch.render` spans when traced.
/// The job clone happens before the clock starts.
fn op(
    exec: &BatchExecutor,
    jobs: &[GemmJob],
    mut tracer: Option<&mut Tracer>,
) -> (f64, Result<(BatchReport, String), String>) {
    let jobs = jobs.to_vec();
    let t = Instant::now();
    if let Some(tr) = tracer.as_deref_mut() {
        tr.begin_op();
        tr.begin("batch.run");
    }
    let run = exec.run(jobs);
    if let Some(tr) = tracer.as_deref_mut() {
        tr.end();
        tr.begin("batch.render");
    }
    let result = run
        .map(|o| {
            let json = o.report.to_canonical_json();
            (o.report, json)
        })
        .map_err(|e| e.to_string());
    if let Some(tr) = tracer {
        tr.end();
        tr.end();
    }
    (t.elapsed().as_secs_f64(), result)
}

/// Runs the op once as the reference: the report every later op must
/// reproduce byte for byte.
pub fn reference(exec: &BatchExecutor, jobs: &[GemmJob]) -> Result<(BatchReport, String), String> {
    op(exec, jobs, None).1
}

fn check_op(
    result: &Result<(BatchReport, String), String>,
    reference: &str,
    check: Check<'_>,
) -> Vec<String> {
    match result {
        Ok((report, json)) => {
            let mut problems = check(report);
            expect(&mut problems, report.all_completed(), || {
                format!(
                    "{} of {} jobs did not complete",
                    report.jobs.len() - report.completed(),
                    report.jobs.len()
                )
            });
            expect(&mut problems, json == reference, || {
                "canonical report differs from the reference report".into()
            });
            problems
        }
        Err(e) => vec![e.clone()],
    }
}

/// The measured loop. Untraced: ops back to back for `cfg.seconds`.
/// Traced: untraced and traced ops alternate, so the two op-time
/// distributions give the tracing overhead.
pub fn run_loop(
    cfg: &Config,
    m: &mut Metrics,
    out: &mut Outcome,
    exec: &BatchExecutor,
    jobs: &[GemmJob],
    reference: &str,
    check: Check<'_>,
) -> (OpLog, Option<(Tracer, OpLog)>) {
    let macs: u64 = jobs.iter().map(|j| j.shape.macs()).sum();
    let mut log = OpLog::default();
    let mut traced = cfg.trace.then(|| (Tracer::new(), OpLog::default()));
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let (dt, result) = op(exec, jobs, None);
        let cycles = result.as_ref().map_or(0, |(r, _)| r.total_cycles());
        log.push(dt, macs, cycles);
        out.op(check_op(&result, reference, check));
        if let Some((tracer, tlog)) = traced.as_mut() {
            let (dt, result) = op(exec, jobs, Some(tracer));
            let cycles = result.as_ref().map_or(0, |(r, _)| r.total_cycles());
            tlog.push(dt, macs, cycles);
            let problems = check_op(&result, reference, check);
            count_call(m, "batch", problems.is_empty());
            out.op(problems);
        }
    }
    (log, traced)
}

/// The executor-layer figures, from repetitions that interleave the
/// executor at one worker, the executor at `workers` workers, and `bare`
/// (the same jobs replayed on this thread without the executor, which
/// returns its own seconds), so host drift hits all three alike:
/// `batch.scaling_eff = t1 / (workers * tN)` and
/// `batch.overhead_share = (t1 - bare) / t1`. Executor times cover
/// `BatchExecutor::run` only, not the report render.
pub fn executor_layer(
    m: &mut Metrics,
    jobs: &[GemmJob],
    workers: usize,
    reps: usize,
    reference: &str,
    mut bare: impl FnMut(&mut Metrics) -> f64,
) {
    let (one, many) = (BatchExecutor::new(1), BatchExecutor::new(workers));
    let (mut t1, mut tn, mut tb) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        for (exec, times) in [(&one, &mut t1), (&many, &mut tn)] {
            let jobs = jobs.to_vec();
            let start = Instant::now();
            let run = exec.run(jobs);
            times.push(start.elapsed().as_secs_f64());
            let ok = run.is_ok_and(|o| o.report.to_canonical_json() == reference);
            count_call(m, "batch", ok);
        }
        tb.push(bare(m));
    }
    let (t1, tn, bare) = (median(&t1), median(&tn), median(&tb));
    let eff = t1 / (workers as f64 * tn);
    let share = (t1 - bare) / t1;
    println!(
        "executor: 1 worker {:.3} ms, {workers} workers {:.3} ms (efficiency {eff:.3}), \
         bare replay {:.3} ms (overhead share {share:.4})",
        t1 * 1e3,
        tn * 1e3,
        bare * 1e3
    );
    m.set("batch.scaling_eff", eff);
    m.set("batch.overhead_share", share);
}
