//! Cycle-model regression tests (ISSUE PR 5).
//!
//! Pins the three quantitative contracts the observability layer leans
//! on:
//!
//! 1. exactness — [`FunctionalGemm::estimated_cycles_format`] matches the
//!    measured [`Engine::run`] cycle count on every uncontended
//!    fault-free shape (zero drift, not "bounded" drift);
//! 2. the remaining-cycles estimate is monotonically non-increasing as a
//!    session advances and never exceeds the true remaining cycles by
//!    more than one tile;
//! 3. per-phase cycle attribution is a partition: the five
//!    [`PhaseCycles`] buckets sum *exactly* to the report's total cycle
//!    count on every corpus run — both streamer policies, accumulate
//!    mode, empty reductions, interconnect contention, fault-tolerant
//!    execution and mid-run partial reports.

use redmule::obs::{validate_chrome_trace, EventLog, TraceEvent, TraceLane};
use redmule::{
    stage_gemm_workspace, AccelConfig, Engine, FaultPlan, FtConfig, FunctionalGemm, RunReport,
    StreamerPolicy, TransientTarget,
};
use redmule_cluster::{Hci, Initiator, Tcdm};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::{Format, F16};

fn data(shape: GemmShape, seed: u32) -> (Vec<F16>, Vec<F16>) {
    let gen = |len: usize, s: u32| -> Vec<F16> {
        (0..len)
            .map(|i| {
                let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(s) >> 16) % 64;
                F16::from_f32(v as f32 / 16.0 - 2.0)
            })
            .collect()
    };
    (gen(shape.x_len(), seed), gen(shape.w_len(), seed ^ 0xABCD))
}

fn staged(shape: GemmShape, seed: u32) -> (redmule::Job, Tcdm, Hci) {
    let (x, w) = data(shape, seed);
    stage_gemm_workspace(shape, &x, &w, None).expect("staging")
}

/// Runs `job` to completion with an [`EventLog`] sink attached to its
/// session; returns the report and the recorded event stream.
fn run_traced(
    engine: &Engine,
    job: redmule::Job,
    mem: &mut Tcdm,
    hci: &mut Hci,
) -> (RunReport, EventLog) {
    let mut session = engine.start(job).expect("start");
    session.attach_sink(Box::new(EventLog::new()));
    while !session.is_finished() {
        session.tick(mem, hci, &[]).expect("tick");
    }
    let events = session
        .detach_sink()
        .and_then(EventLog::from_sink)
        .expect("the attached EventLog");
    (session.finish(), events)
}

/// The shape grid: every model branch — ragged edges on all three
/// dimensions, single-tile and multi-tile grids, empty reductions.
fn corpus() -> Vec<GemmShape> {
    let mut shapes = Vec::new();
    for m in [1usize, 8, 13, 16] {
        for n in [0usize, 1, 7, 16] {
            for k in [1usize, 16, 24] {
                shapes.push(GemmShape::new(m, n, k));
            }
        }
    }
    shapes
}

fn assert_phases_partition(report: &RunReport, what: &str) {
    assert_eq!(
        report.phases.total(),
        report.cycles.count(),
        "{what}: phase buckets must partition the run exactly ({})",
        report.phases
    );
}

// ---------------------------------------------------------------------------
// (1) analytical estimate == measured cycles, exactly
// ---------------------------------------------------------------------------

#[test]
fn functional_estimate_matches_measured_cycles_exactly() {
    let engine = Engine::new(AccelConfig::paper());
    let model = FunctionalGemm::paper_instance();
    for shape in corpus() {
        let (job, mut mem, mut hci) = staged(shape, 7);
        let report = engine.run(job, &mut mem, &mut hci).expect("run");
        let estimate = model.estimated_cycles_format(shape, Format::Fp16);
        assert_eq!(
            estimate.count(),
            report.cycles.count(),
            "estimate drifted from measurement on {shape}"
        );
        assert_phases_partition(&report, &format!("paper policy {shape}"));
    }
}

// ---------------------------------------------------------------------------
// (2) remaining-cycles estimate: monotone, bounded overshoot
// ---------------------------------------------------------------------------

/// One tile's worth of cycles on the paper instance for `shape` — the
/// permitted overshoot of the remaining-cycles estimate.
fn one_tile_bound(cfg: &AccelConfig, shape: GemmShape) -> u64 {
    let n_phases = shape.n.div_ceil(cfg.h);
    (cfg.h * cfg.latency() + n_phases * cfg.phase_width() + cfg.l) as u64
}

#[test]
fn remaining_estimate_is_monotone_and_tightly_bounded() {
    let cfg = AccelConfig::paper();
    let engine = Engine::new(cfg);
    for shape in [
        GemmShape::new(16, 16, 32),
        GemmShape::new(8, 16, 16),
        GemmShape::new(3, 7, 21),
        GemmShape::new(16, 0, 32),
        GemmShape::new(1, 1, 1),
    ] {
        let (job, mut mem, mut hci) = staged(shape, 13);
        // Total cycles from a reference run of the same job.
        let total = {
            let (job, mut mem, mut hci) = staged(shape, 13);
            engine
                .run(job, &mut mem, &mut hci)
                .expect("ref")
                .cycles
                .count()
        };
        let bound = one_tile_bound(&cfg, shape);
        let mut session = engine.start(job).expect("start");
        let mut prev = u64::MAX;
        while !session.is_finished() {
            let est = session.estimated_remaining_cycles();
            let actual = total - session.cycle();
            assert!(
                est <= prev,
                "{shape}: estimate rose {prev} -> {est} at cycle {}",
                session.cycle()
            );
            assert!(
                est <= actual + bound,
                "{shape}: estimate {est} overshoots actual remaining {actual} \
                 by more than one tile ({bound}) at cycle {}",
                session.cycle()
            );
            prev = est;
            session.tick(&mut mem, &mut hci, &[]).expect("tick");
        }
        assert_eq!(session.estimated_remaining_cycles(), 0);
        assert_eq!(session.cycle(), total, "{shape}: lockstep drifted");
    }
}

#[test]
fn remaining_estimate_stays_monotone_under_contention() {
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(16, 16, 32);
    let (job, mut mem, mut hci) = staged(shape, 21);
    let mut session = engine.start(job).expect("start");
    let mut prev = u64::MAX;
    let mut step = 0u32;
    while !session.is_finished() {
        let est = session.estimated_remaining_cycles();
        assert!(
            est <= prev,
            "estimate rose {prev} -> {est} under contention at cycle {}",
            session.cycle()
        );
        prev = est;
        // A core hammering the same banks the streamer uses.
        let addr = (step % 64) * 2;
        session
            .tick(&mut mem, &mut hci, &[(Initiator::Core(0), addr)])
            .expect("tick");
        step += 1;
    }
    let report = session.finish();
    assert!(report.stall_cycles > 0, "contention must actually bite");
    assert_phases_partition(&report, "contended run");
    assert!(report.phases.stall > 0, "contention must surface as Stall");
}

// ---------------------------------------------------------------------------
// (3) phase attribution partitions every kind of run
// ---------------------------------------------------------------------------

#[test]
fn phase_attribution_partitions_all_policies_and_modes() {
    for policy in [
        StreamerPolicy::Interleaved,
        StreamerPolicy::HalfBandwidth,
        StreamerPolicy::SingleBufferedW,
    ] {
        let engine = Engine::new(AccelConfig::paper()).with_streamer_policy(policy);
        for shape in [
            GemmShape::new(16, 16, 32),
            GemmShape::new(3, 7, 21),
            GemmShape::new(8, 0, 16),
        ] {
            let (job, mut mem, mut hci) = staged(shape, 31);
            let report = engine.run(job, &mut mem, &mut hci).expect("run");
            assert_phases_partition(&report, &format!("{policy:?} {shape}"));
            // The mirrored stats agree with the typed ledger.
            let from_stats: u64 = report
                .stats
                .iter()
                .filter(|(k, _)| k.starts_with("phase_"))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(from_stats, report.cycles.count(), "{policy:?} {shape}");
        }
    }

    // Accumulate mode preloads Z — its wait cycles must be attributed too.
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(8, 16, 16);
    let (x, w) = data(shape, 41);
    let y: Vec<F16> = (0..shape.z_len())
        .map(|i| F16::from_f32((i % 3) as f32))
        .collect();
    let (job, mut mem, mut hci) = stage_gemm_workspace(shape, &x, &w, Some(&y)).expect("staging");
    let report = engine.run(job, &mut mem, &mut hci).expect("accumulate run");
    assert_phases_partition(&report, "accumulate");
}

#[test]
fn phase_attribution_partitions_fault_tolerant_runs() {
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(16, 8, 20);
    for ft in [FtConfig::replay(), FtConfig::redundancy()] {
        let (job, mut mem, mut hci) = staged(shape, 51);
        let plan = FaultPlan::new(0xF00D).with_random_transients(2, &[TransientTarget::Pipe]);
        let report = engine
            .run_ft(job, &mut mem, &mut hci, &plan, ft)
            .expect("ft run");
        assert_phases_partition(&report, &format!("{:?}", ft.mode));
    }
}

#[test]
fn phase_attribution_partitions_partial_reports() {
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(16, 16, 32);
    let (job, mut mem, mut hci) = staged(shape, 61);
    let mut session = engine.start(job).expect("start");
    for stop_at in [1u64, 17, 90, 200] {
        while session.cycle() < stop_at && !session.is_finished() {
            session.tick(&mut mem, &mut hci, &[]).expect("tick");
        }
        let partial = session.partial_report();
        assert_eq!(
            partial.phases.total(),
            session.cycle(),
            "partial report at cycle {} must partition the cycles so far",
            session.cycle()
        );
    }
}

// ---------------------------------------------------------------------------
// event-stream sanity for the traced path
// ---------------------------------------------------------------------------

#[test]
fn traced_run_emits_a_consistent_event_stream() {
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(16, 16, 32); // 4 output tiles
    let (job, mut mem, mut hci) = staged(shape, 71);
    let (report, events) = run_traced(&engine, job, &mut mem, &mut hci);
    assert_phases_partition(&report, "traced run");

    let starts: Vec<u32> = events
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TileStart { tile, .. } => Some(*tile),
            _ => None,
        })
        .collect();
    let ends: Vec<u32> = events
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TileEnd { tile, .. } => Some(*tile),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![0, 1, 2, 3], "one start per tile, in order");
    assert_eq!(ends, vec![0, 1, 2, 3], "one end per tile, in order");
    assert!(
        events
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Refill { .. })),
        "operand refills must be visible"
    );
    for ev in events.events() {
        assert!(
            ev.cycle() < report.cycles.count(),
            "event {ev:?} timestamped past the end of the run"
        );
    }
    // Timestamps never decrease for the same kind of bracketing event.
    let mut prev = 0;
    for e in events.events() {
        if let TraceEvent::TileEnd { cycle, .. } = e {
            assert!(*cycle >= prev);
            prev = *cycle;
        }
    }

    // And the stream exports to a valid Chrome trace document.
    let lane = TraceLane {
        tid: 0,
        name: format!("job 0 ({shape})"),
        events: events.events(),
    };
    let json = redmule::obs::chrome_trace(&[lane]);
    let summary = validate_chrome_trace(&json).expect("valid chrome JSON");
    assert_eq!(summary.lanes, 1);
    assert_eq!(summary.events, events.len());
    assert!(summary.max_ts <= report.cycles.count());
}

#[test]
fn untraced_sessions_charge_no_observation_state() {
    // Zero-cost-when-disabled: a session without a sink must produce a
    // bit-identical report to a traced one (tracing is read-only), and
    // an empty event log.
    let engine = Engine::new(AccelConfig::paper());
    let shape = GemmShape::new(8, 16, 16);
    let (job, mut mem, mut hci) = staged(shape, 81);
    let plain = engine.run(job, &mut mem, &mut hci).expect("plain");
    let (job2, mut mem2, mut hci2) = staged(shape, 81);
    let (traced, events) = run_traced(&engine, job2, &mut mem2, &mut hci2);
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.macs, traced.macs);
    assert_eq!(plain.phases, traced.phases);
    assert!(!events.is_empty());
    let mut log = EventLog::new();
    events.replay_into(&mut log);
    assert_eq!(log, events);
}
