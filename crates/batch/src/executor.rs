//! The work-stealing worker pool and per-job execution paths.

use crate::job::{GemmJob, JobFaults, JobResult, JobStatus};
use crate::report::BatchReport;
use redmule::obs::{EventLog, TraceEvent};
use redmule::{
    cast, stage_gemm_workspace_in, AccelConfig, BackendKind, Engine, FaultInjector, FunctionalGemm,
};
use redmule_fp16::F16;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Batch-level misconfiguration or a harness failure. Per-job *execution*
/// failures never surface here — they are recorded in that job's
/// [`JobResult`] so the rest of the batch still completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// `workers == 0`.
    NoWorkers,
    /// Two jobs share an id, which would make result keying ambiguous.
    DuplicateJobId(u64),
    /// A job failed [`GemmJob::validate`] (message names the job).
    InvalidJob(String),
    /// A worker thread died outside the supervisor's panic isolation —
    /// a bug in the pool itself.
    WorkerPanicked(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::NoWorkers => write!(f, "batch executor needs at least one worker"),
            BatchError::DuplicateJobId(id) => write!(f, "duplicate job id {id} in batch"),
            BatchError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            BatchError::WorkerPanicked(msg) => write!(f, "batch worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// What the pool's schedule costs, as opposed to what the jobs computed:
/// per-worker simulated busy cycles and job counts. Unlike
/// [`BatchReport`], this varies with the worker count — the schedule
/// *is* the worker count's effect — so it lives outside the canonical
/// report.
///
/// The stats come from a *deterministic virtual replay* of the pool's
/// deal-then-steal policy on per-job simulated cycles, modeling `W`
/// dedicated workers that each advance only while executing a job. The
/// OS threads still run the jobs (that is where host-side wall-clock
/// parallelism comes from), but which thread the host scheduler happened
/// to hand each job does not leak into the stats — on a loaded or
/// single-core host that assignment is timing noise, not a property of
/// the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of workers the batch ran with.
    pub workers: usize,
    /// Simulated cycles each worker spends executing jobs, including the
    /// deterministic retry-backoff charge of each job it ran.
    pub per_worker_busy_cycles: Vec<u64>,
    /// Jobs each worker executes (own deque plus steals).
    pub per_worker_jobs: Vec<usize>,
    /// Total simulated cycles charged for deterministic retry backoff
    /// ([`redmule_runtime::RetryPolicy::backoff_cycles`]) across the
    /// batch. Already included in `per_worker_busy_cycles`; broken out so
    /// recovery cost stays visible in the schedule.
    pub backoff_cycles: u64,
}

impl ScheduleStats {
    /// The schedule makespan: the busiest worker's simulated cycles.
    /// With one worker this equals the serial total; with `W` balanced
    /// workers it approaches `total / W`.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_worker_busy_cycles
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Sum of all workers' busy cycles (the serial cost of the batch).
    pub fn total_busy_cycles(&self) -> u64 {
        self.per_worker_busy_cycles.iter().sum()
    }

    /// Parallel speedup achieved by this schedule:
    /// `total_busy_cycles / makespan_cycles`. 1.0 for an empty or
    /// serialized schedule, approaching the worker count when balanced.
    pub fn parallel_speedup(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 1.0;
        }
        self.total_busy_cycles() as f64 / makespan as f64
    }
}

/// Outcome of one batch: the worker-count-invariant [`BatchReport`] and
/// the worker-count-dependent [`ScheduleStats`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job results and aggregates, keyed by job id. Byte-identical
    /// canonical serialization for any worker count.
    pub report: BatchReport,
    /// What the pool did with its workers.
    pub schedule: ScheduleStats,
}

/// A work-stealing pool executing [`GemmJob`]s on per-job engine
/// instances.
///
/// Jobs are dealt round-robin (in id order) onto per-worker deques. A
/// worker pops from the front of its own deque and, when it drains,
/// steals from the back of its peers' — classic deque stealing, so a mix
/// of heavy and light jobs stays balanced without any coordination on
/// the hot path.
#[derive(Debug)]
pub struct BatchExecutor {
    workers: usize,
    engine: Engine,
    trace: bool,
    intra: usize,
}

impl BatchExecutor {
    /// A pool of `workers` threads running the paper's engine instance.
    pub fn new(workers: usize) -> BatchExecutor {
        BatchExecutor {
            workers,
            engine: Engine::new(AccelConfig::paper()),
            trace: false,
            intra: 1,
        }
    }

    /// Replaces the engine template (instance parameters, streamer
    /// policy, watchdog) cloned for every job.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> BatchExecutor {
        self.engine = engine;
        self
    }

    /// Records per-job trace events (simulated-cycle timestamps) into
    /// each [`JobResult::events`], ready for
    /// [`BatchReport::chrome_trace`]. Off by default: untraced runs pay
    /// no per-tick observation cost.
    #[must_use]
    pub fn with_event_trace(mut self) -> BatchExecutor {
        self.trace = true;
        self
    }

    /// Splits each *functional-backend* job's compute across up to
    /// `threads` scoped host threads, one output band per unit of work.
    /// Bands are dealt round-robin onto the threads and each band writes
    /// a disjoint `Z` slice ([`FunctionalPlan::compute_band_into`] is
    /// pure), so results, reports and traces stay byte-identical at any
    /// setting — this knob only changes wall-clock time. `0` and `1`
    /// both mean serial (the default). Cycle-accurate jobs are
    /// inherently serial and ignore it.
    ///
    /// [`FunctionalPlan::compute_band_into`]: redmule::FunctionalPlan::compute_band_into
    #[must_use]
    pub fn with_intra_job_parallelism(mut self, threads: usize) -> BatchExecutor {
        self.intra = threads.max(1);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured intra-job thread count (1 = serial per job).
    pub fn intra_job_parallelism(&self) -> usize {
        self.intra
    }

    /// Runs every job and returns the batch outcome.
    ///
    /// Results are keyed by job id: `outcome.report.jobs` is sorted by
    /// id regardless of which worker finished which job first, and the
    /// per-job contents depend only on the job itself (the simulations
    /// share nothing), so the report is deterministic for any worker
    /// count — the property pinned by `tests/determinism.rs`.
    ///
    /// # Errors
    ///
    /// [`BatchError`] on misconfiguration (zero workers, duplicate ids,
    /// malformed operands) or if a worker thread itself dies. Per-job
    /// execution failures are reported in the corresponding
    /// [`JobResult`], not as errors.
    pub fn run(&self, mut jobs: Vec<GemmJob>) -> Result<BatchOutcome, BatchError> {
        if self.workers == 0 {
            return Err(BatchError::NoWorkers);
        }
        let mut seen = BTreeSet::new();
        for job in &jobs {
            if !seen.insert(job.id) {
                return Err(BatchError::DuplicateJobId(job.id));
            }
            job.validate().map_err(BatchError::InvalidJob)?;
        }
        // Canonical processing order: by id. With round-robin dealing
        // this also spreads a sorted-by-size batch evenly.
        jobs.sort_by_key(|j| j.id);

        let n_jobs = jobs.len();
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..self.workers)
            .map(|w| Mutex::new((w..n_jobs).step_by(self.workers).collect()))
            .collect();
        let results: Mutex<Vec<Option<JobResult>>> = Mutex::new(vec![None; n_jobs]);
        let jobs_ref: &[GemmJob] = &jobs;
        let engine = &self.engine;

        let panicked: Mutex<Option<String>> = Mutex::new(None);
        // modelcheck-allow: RM-ERR-001 -- name collision: this is
        // std::thread::scope returning the closure's unit value, not the
        // workspace's Result-returning `scope`.
        thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|w| {
                    let deques = &deques;
                    let results = &results;
                    let trace = self.trace;
                    let intra = self.intra;
                    scope.spawn(move || {
                        while let Some(idx) = next_job(deques, w) {
                            let result = exec_job(engine, &jobs_ref[idx], trace, intra);
                            lock(results)[idx] = Some(result);
                        }
                    })
                })
                .collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    *lock(&panicked) = Some(panic_message(payload.as_ref()));
                }
            }
        });
        if let Some(msg) = lock(&panicked).take() {
            return Err(BatchError::WorkerPanicked(msg));
        }

        let mut collected = Vec::with_capacity(n_jobs);
        for (i, slot) in lock(&results).iter_mut().enumerate() {
            match slot.take() {
                Some(r) => collected.push(r),
                None => {
                    return Err(BatchError::WorkerPanicked(format!(
                        "job {} was never executed",
                        jobs_ref[i].id
                    )))
                }
            }
        }

        // The schedule charges each job its executed cycles plus the
        // deterministic retry-backoff cycles its recovery consumed: a
        // worker that spent recovery delay on a job is busy for it.
        let cycles: Vec<u64> = collected
            .iter()
            .map(|r| r.cycles + r.backoff_cycles)
            .collect();
        let backoff_total: u64 = collected.iter().map(|r| r.backoff_cycles).sum();
        let (busy, jobs_run) = virtual_schedule(self.workers, &cycles);
        Ok(BatchOutcome {
            report: BatchReport::new(collected),
            schedule: ScheduleStats {
                workers: self.workers,
                per_worker_busy_cycles: busy,
                per_worker_jobs: jobs_run,
                backoff_cycles: backoff_total,
            },
        })
    }
}

/// Deterministically replays the pool's deal-then-steal policy on a
/// virtual clock: jobs (indexed in id order, `cycles[i]` = job `i`'s
/// simulated cost) are dealt round-robin, then whichever virtual worker
/// is least busy takes the next job — front of its own deque, back of a
/// peer's once drained. Greedy list scheduling, so workers are never
/// idle while work remains and each worker's finish time equals its busy
/// cycles.
fn virtual_schedule(workers: usize, cycles: &[u64]) -> (Vec<u64>, Vec<usize>) {
    let mut deques: Vec<VecDeque<usize>> = (0..workers)
        .map(|w| (w..cycles.len()).step_by(workers).collect())
        .collect();
    let mut busy = vec![0u64; workers];
    let mut jobs_run = vec![0usize; workers];
    for _ in 0..cycles.len() {
        // Least-busy worker takes the next job; ties break to the
        // lowest index, keeping the replay fully deterministic.
        let w = (0..workers).min_by_key(|&w| (busy[w], w)).unwrap_or(0);
        let idx = match virtual_take(&mut deques, w) {
            Some(i) => i,
            None => break, // unreachable: one deque entry exists per job
        };
        busy[w] += cycles[idx];
        jobs_run[w] += 1;
    }
    (busy, jobs_run)
}

/// The virtual counterpart of [`next_job`]: same deque discipline,
/// without locks.
fn virtual_take(deques: &mut [VecDeque<usize>], w: usize) -> Option<usize> {
    if let Some(idx) = deques[w].pop_front() {
        return Some(idx);
    }
    let n = deques.len();
    for off in 1..n {
        if let Some(idx) = deques[(w + off) % n].pop_back() {
            return Some(idx);
        }
    }
    None
}

/// Pops the next job index for worker `w`: front of its own deque, then
/// steals from the back of its peers'. Returns `None` only when every
/// deque is empty — jobs are never re-enqueued, so emptiness is stable.
fn next_job(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = lock(&deques[w]).pop_front() {
        return Some(idx);
    }
    let n = deques.len();
    for off in 1..n {
        if let Some(idx) = lock(&deques[(w + off) % n]).pop_back() {
            return Some(idx);
        }
    }
    None
}

/// Mutex lock that survives a poisoned peer: the protected data here is
/// either per-slot (results) or monotonically drained (deques), both of
/// which stay consistent across a worker panic.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Executes one job on a private engine/workspace. Infallible by design:
/// every failure mode lands in the result's [`JobStatus`].
fn exec_job(engine: &Engine, job: &GemmJob, trace: bool, intra: usize) -> JobResult {
    let cfg = *engine.config();
    let tiles_total = job.shape.m.div_ceil(cfg.l) * job.shape.k.div_ceil(cfg.phase_width());
    match (&job.faults, job.backend) {
        (None, BackendKind::Functional) => exec_functional(&cfg, job, tiles_total, trace, intra),
        (Some(JobFaults::Protected { plan, ft }), _) => {
            exec_protected(engine, job, tiles_total, plan, *ft, trace)
        }
        _ => exec_supervised(engine, job, tiles_total, trace),
    }
}

fn exec_functional(
    cfg: &AccelConfig,
    job: &GemmJob,
    tiles_total: usize,
    trace: bool,
    intra: usize,
) -> JobResult {
    let model = FunctionalGemm::new(*cfg);
    let plan = match model.plan(job.shape, job.format, &job.x, &job.w, job.y.as_deref()) {
        Ok(plan) => plan,
        Err(e) => return failed(job, BackendKind::Functional, tiles_total, e.to_string()),
    };
    let mut z = vec![F16::ZERO; job.shape.z_len()];
    let threads = intra.min(plan.n_bands()).max(1);
    if threads > 1 {
        // Each band owns a disjoint row-band slice of Z (exactly what
        // chunks_mut yields), so the deal below is a pure partition of
        // the output: which thread computes which band cannot change a
        // single bit, only the wall-clock time.
        let mut lanes: Vec<Vec<(usize, &mut [F16])>> = (0..threads).map(|_| Vec::new()).collect();
        for (band, chunk) in z.chunks_mut(plan.band_stride()).enumerate() {
            lanes[band % threads].push((band, chunk));
        }
        let plan = &plan;
        // modelcheck-allow: RM-ERR-001 -- name collision: this is
        // std::thread::scope returning the closure's unit value, not the
        // workspace's Result-returning `scope`.
        thread::scope(|scope| {
            for lane in lanes {
                scope.spawn(move || {
                    for (band, out) in lane {
                        plan.compute_band_into(band, out);
                    }
                });
            }
        });
    } else {
        for (band, chunk) in z.chunks_mut(plan.band_stride()).enumerate() {
            plan.compute_band_into(band, chunk);
        }
    }
    JobResult {
        id: job.id,
        backend: BackendKind::Functional,
        format: job.format,
        shape: job.shape,
        z,
        cycles: model.estimated_cycles_format(job.shape, job.format).count(),
        macs: job.shape.macs(),
        stall_cycles: 0,
        status: JobStatus::Completed,
        degraded: false,
        retries: 0,
        backoff_cycles: 0,
        fault_events: 0,
        tiles_done: tiles_total,
        tiles_total,
        events: if trace {
            model.synthetic_events_format(job.shape, job.format)
        } else {
            EventLog::new()
        },
    }
}

fn exec_protected(
    engine: &Engine,
    job: &GemmJob,
    tiles_total: usize,
    plan: &redmule::FaultPlan,
    ft: redmule::FtConfig,
    trace: bool,
) -> JobResult {
    let staged = stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref());
    let (hw_job, mut mem, mut hci) = match staged {
        Ok(t) => t,
        Err(e) => return failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    };
    match engine.run_ft(hw_job, &mut mem, &mut hci, plan, ft) {
        Ok(report) => {
            // run_ft drives multiple internal sub-runs, so a live sink
            // cannot be threaded through; synthesize Fault events from
            // the merged fault log instead (same cycles, same order).
            let mut events = EventLog::new();
            if trace {
                for ev in report.faults.events() {
                    events.push(TraceEvent::Fault {
                        cycle: ev.cycle,
                        class: ev.class,
                        phase: ev.phase,
                    });
                }
            }
            JobResult {
                id: job.id,
                backend: BackendKind::CycleAccurate,
                format: job.format,
                shape: job.shape,
                z: cast::castin_slice(&mem, job.format, hw_job.z_addr, job.shape.z_len())
                    .unwrap_or_default(),
                cycles: report.cycles.count(),
                macs: report.macs,
                stall_cycles: report.stall_cycles,
                status: JobStatus::Completed,
                degraded: false,
                retries: 0,
                backoff_cycles: 0,
                fault_events: report.faults.events().len() as u64,
                tiles_done: tiles_total,
                tiles_total,
                events,
            }
        }
        Err(e) => failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    }
}

fn exec_supervised(engine: &Engine, job: &GemmJob, tiles_total: usize, trace: bool) -> JobResult {
    use redmule_runtime::Supervisor;
    let staged = stage_gemm_workspace_in(job.shape, job.format, &job.x, &job.w, job.y.as_deref());
    let (hw_job, mut mem, mut hci) = match staged {
        Ok(t) => t,
        Err(e) => return failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    };
    let session = match &job.faults {
        Some(JobFaults::Raw(sites)) => {
            engine.start_with_faults(hw_job, FaultInjector::new(sites.clone()))
        }
        _ => engine.start(hw_job),
    };
    let supervisor = Supervisor::new(engine.clone())
        .with_limits(job.limits)
        .with_retry_policy(job.retry)
        .with_checkpoint_interval(job.checkpoint_interval);
    let run = session.and_then(|mut s| {
        if trace {
            s.attach_sink(Box::new(EventLog::new()));
        }
        supervisor.run_session(s, &mut mem, &mut hci)
    });
    match run {
        Ok(run) => JobResult {
            id: job.id,
            backend: BackendKind::CycleAccurate,
            format: job.format,
            shape: job.shape,
            z: cast::castin_slice(&mem, job.format, hw_job.z_addr, job.shape.z_len())
                .unwrap_or_default(),
            cycles: run.report.cycles.count(),
            macs: run.report.macs,
            stall_cycles: run.report.stall_cycles,
            status: JobStatus::from_stop(run.stop),
            degraded: run.degraded,
            retries: run.retries,
            backoff_cycles: run.backoff_cycles,
            fault_events: run.report.faults.events().len() as u64,
            tiles_done: run.tiles_done,
            tiles_total: run.tiles_total,
            events: run.events,
        },
        Err(e) => failed(job, BackendKind::CycleAccurate, tiles_total, e.to_string()),
    }
}

fn failed(job: &GemmJob, backend: BackendKind, tiles_total: usize, msg: String) -> JobResult {
    JobResult {
        id: job.id,
        backend,
        format: job.format,
        shape: job.shape,
        z: Vec::new(),
        cycles: 0,
        macs: 0,
        stall_cycles: 0,
        status: JobStatus::Failed(msg),
        degraded: false,
        retries: 0,
        backoff_cycles: 0,
        fault_events: 0,
        tiles_done: 0,
        tiles_total,
        events: EventLog::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redmule_fp16::vector::{gemm_golden, GemmShape};
    use redmule_fp16::F16;
    use redmule_runtime::Limits;

    fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
        let gen = |len: usize, s: u32| -> Vec<F16> {
            (0..len)
                .map(|i| {
                    let h = ((i as u32).wrapping_mul(2654435761) ^ s) >> 17;
                    F16::from_f32((h % 64) as f32 / 64.0 - 0.5)
                })
                .collect()
        };
        (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0x55))
    }

    fn mixed_jobs(n: usize) -> Vec<GemmJob> {
        (0..n as u64)
            .map(|id| {
                let dims = [(4, 8, 6), (8, 16, 16), (3, 5, 21)][id as usize % 3];
                let shape = GemmShape::new(dims.0, dims.1, dims.2);
                let (x, w) = data(shape, id as u32);
                let kind = if id % 2 == 0 {
                    BackendKind::CycleAccurate
                } else {
                    BackendKind::Functional
                };
                GemmJob::new(id, shape, x, w).with_backend(kind)
            })
            .collect()
    }

    #[test]
    fn results_are_keyed_by_id_and_bit_exact() {
        let jobs = mixed_jobs(7);
        let expected: Vec<Vec<u16>> = jobs
            .iter()
            .map(|j| {
                gemm_golden(j.shape, &j.x, &j.w)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        let outcome = BatchExecutor::new(3).run(jobs).expect("batch runs");
        assert!(outcome.report.all_completed());
        for (i, result) in outcome.report.jobs.iter().enumerate() {
            assert_eq!(result.id, i as u64, "results must be ordered by id");
            let got: Vec<u16> = result.z.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected[i], "job {i} output");
        }
    }

    #[test]
    fn submission_order_does_not_matter() {
        let mut jobs = mixed_jobs(6);
        jobs.reverse();
        let outcome = BatchExecutor::new(2).run(jobs).expect("batch runs");
        let ids: Vec<u64> = outcome.report.jobs.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn misconfiguration_is_rejected() {
        assert!(matches!(
            BatchExecutor::new(0).run(mixed_jobs(1)),
            Err(BatchError::NoWorkers)
        ));
        let mut dup = mixed_jobs(2);
        dup[1].id = dup[0].id;
        assert!(matches!(
            BatchExecutor::new(1).run(dup),
            Err(BatchError::DuplicateJobId(0))
        ));
        let shape = GemmShape::new(2, 2, 2);
        let bad = vec![GemmJob::new(0, shape, vec![F16::ONE; 3], vec![F16::ONE; 4])];
        assert!(matches!(
            BatchExecutor::new(1).run(bad),
            Err(BatchError::InvalidJob(_))
        ));
    }

    #[test]
    fn per_job_cycle_budget_degrades_only_that_job() {
        let shape = GemmShape::new(16, 16, 32); // 4 tiles
        let (x, w) = data(shape, 9);
        let jobs = vec![
            GemmJob::new(0, shape, x.clone(), w.clone())
                .with_limits(Limits::none().with_max_cycles(40))
                .with_checkpoint_interval(1),
            GemmJob::new(1, shape, x, w),
        ];
        let outcome = BatchExecutor::new(2).run(jobs).expect("batch runs");
        let budgeted = &outcome.report.jobs[0];
        assert_eq!(budgeted.status, JobStatus::CycleBudget);
        assert!(budgeted.degraded);
        assert!(budgeted.tiles_done < budgeted.tiles_total);
        let free = &outcome.report.jobs[1];
        assert_eq!(free.status, JobStatus::Completed);
        assert_eq!(free.tiles_done, free.tiles_total);
    }

    #[test]
    fn more_workers_shrink_the_makespan() {
        let jobs = mixed_jobs(12);
        let serial = BatchExecutor::new(1).run(jobs.clone()).expect("1 worker");
        let parallel = BatchExecutor::new(4).run(jobs).expect("4 workers");
        assert_eq!(
            serial.schedule.total_busy_cycles(),
            parallel.schedule.total_busy_cycles(),
            "total simulated work is schedule-invariant"
        );
        assert!(
            parallel.schedule.makespan_cycles() < serial.schedule.makespan_cycles(),
            "4 workers must beat 1 worker's makespan"
        );
        assert!(parallel.schedule.parallel_speedup() > 1.5);
        assert_eq!(serial.schedule.parallel_speedup(), 1.0);
    }

    #[test]
    fn intra_job_parallelism_is_invisible_in_the_report() {
        // All-functional jobs with shapes spanning 1..5 row bands, traced,
        // so both the canonical report bytes and the event logs are under
        // test. Any intra-thread count must reproduce the serial bytes.
        let jobs: Vec<GemmJob> = (0..8u64)
            .map(|id| {
                let dims = [(4, 8, 6), (40, 16, 16), (17, 5, 33), (25, 12, 40)][id as usize % 4];
                let shape = GemmShape::new(dims.0, dims.1, dims.2);
                let (x, w) = data(shape, id as u32);
                GemmJob::new(id, shape, x, w).with_backend(BackendKind::Functional)
            })
            .collect();
        let serial = BatchExecutor::new(2)
            .with_event_trace()
            .run(jobs.clone())
            .expect("serial batch");
        let baseline = serial.report.to_canonical_json();
        for intra in [2, 4, 7] {
            let outcome = BatchExecutor::new(2)
                .with_event_trace()
                .with_intra_job_parallelism(intra)
                .run(jobs.clone())
                .expect("parallel batch");
            assert_eq!(
                outcome.report.to_canonical_json(),
                baseline,
                "canonical report must be byte-identical at intra={intra}"
            );
            for (a, b) in serial.report.jobs.iter().zip(outcome.report.jobs.iter()) {
                assert_eq!(a.events.events(), b.events.events(), "job {} trace", a.id);
            }
        }
    }

    #[test]
    fn functional_trace_is_format_aware() {
        use redmule::Format;
        let shape = GemmShape::new(16, 32, 16);
        let (x, w) = data(shape, 3);
        let jobs = vec![GemmJob::new(0, shape, x, w)
            .with_backend(BackendKind::Functional)
            .with_format(Format::Fp8E4M3)];
        let outcome = BatchExecutor::new(1)
            .with_event_trace()
            .run(jobs)
            .expect("traced batch");
        let model = FunctionalGemm::paper_instance();
        let expected = model.synthetic_events_format(shape, Format::Fp8E4M3);
        assert_eq!(outcome.report.jobs[0].events.events(), expected.events());
        assert_ne!(
            expected.events(),
            model.synthetic_events_format(shape, Format::Fp16).events(),
            "FP8 must change the synthetic trace, or this test is vacuous"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let outcome = BatchExecutor::new(4).run(Vec::new()).expect("empty batch");
        assert_eq!(outcome.report.jobs.len(), 0);
        assert_eq!(outcome.schedule.makespan_cycles(), 0);
        assert_eq!(outcome.schedule.parallel_speedup(), 1.0);
    }
}
