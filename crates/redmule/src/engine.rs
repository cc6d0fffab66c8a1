//! The execution engine: Scheduler + Streamer + Controller.
//!
//! This module drives the [`Datapath`] cycle by cycle against the cluster
//! TCDM through the HCI shallow port, reproducing the paper's working
//! principle (§II-C) exactly:
//!
//! * the output matrix is processed in tiles of `L` rows by `H*(P+1)`
//!   columns;
//! * within a tile, the reduction dimension is covered in *phases* of `H`
//!   elements; each column of FMAs is offset from the previous by the FMA
//!   latency `P+1`, and the last column's results ring back into the first;
//! * the **W buffer** needs one wide memory access every `P+1` cycles;
//!   **X refills** and **Z stores** are interleaved into the free slots
//!   between two adjacent W accesses (Fig. 2c);
//! * the whole array clock-gates (stalls) when a buffer misses its
//!   deadline, so performance degradation under port contention emerges
//!   naturally.
//!
//! Numerical results are produced by the datapath's bit-accurate FMA units
//! and are therefore identical to [`redmule_fp16::vector::gemm_golden`].

use crate::buffers::{WBuffer, XBuffer, ZBuffer};
use crate::cast;
use crate::config::AccelConfig;
use crate::datapath::{Acc0, ColumnCtrl, Datapath};
use crate::decode::{decode_container, encode_container, ContainerSpec, DecodeError};
use crate::faults::FaultInjector;
use crate::regfile::Job;
use redmule_cluster::{Hci, MemError, Tcdm};
use redmule_fp16::F16;
use redmule_hwsim::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
use redmule_hwsim::stream::{Handshake, StreamMonitor};
use redmule_hwsim::{Cycle, FaultLog, FaultPhase, Stats};
use redmule_obs::{Channel, EventLog, Phase, PhaseCycles, TraceEvent};
use std::cell::Cell;
use std::fmt;

/// Error produced by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The job descriptor is malformed (alignment).
    InvalidJob(String),
    /// An operand slice length does not match the job shape.
    ShapeMismatch {
        /// Which operand mismatched (`"X"`, `"W"`, `"Y"` or `"Z"`).
        operand: &'static str,
        /// Element count the shape requires.
        expected: usize,
        /// Element count the caller supplied.
        got: usize,
    },
    /// A read or write targeted an unmapped HWPE register offset.
    UnmappedRegister {
        /// The offending byte offset into the register file.
        offset: u32,
    },
    /// An operand access left the TCDM.
    Memory(MemError),
    /// The engine made no forward progress within its watchdog window —
    /// a hung schedule (e.g. dropped interconnect transactions), reported
    /// instead of spinning forever.
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Consecutive cycles without forward progress.
        stalled_for: u64,
    },
    /// Fault-tolerant execution exhausted its retry budget on one tile;
    /// the corruption recurs on every replay (a persistent fault).
    FaultUnrecoverable {
        /// Index of the tile that never produced a clean result.
        tile: usize,
        /// Number of attempts made (initial run plus replays).
        attempts: u32,
    },
    /// Checkpointing or resuming a session failed: the session was not at
    /// a snapshottable point, the snapshot bytes are damaged, or they were
    /// taken under a different engine configuration.
    Snapshot(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            EngineError::ShapeMismatch {
                operand,
                expected,
                got,
            } => write!(
                f,
                "operand {operand} has wrong length: shape requires {expected} elements, got {got}"
            ),
            EngineError::UnmappedRegister { offset } => {
                write!(f, "access to unmapped HWPE register {offset:#x}")
            }
            EngineError::Memory(e) => write!(f, "memory access failed: {e}"),
            EngineError::Watchdog { cycle, stalled_for } => write!(
                f,
                "engine watchdog fired at cycle {cycle}: no forward progress for \
                 {stalled_for} cycles"
            ),
            EngineError::FaultUnrecoverable { tile, attempts } => write!(
                f,
                "tile {tile} still corrupted after {attempts} attempts; fault is persistent"
            ),
            EngineError::Snapshot(msg) => write!(f, "session snapshot: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<MemError> for EngineError {
    fn from(e: MemError) -> EngineError {
        EngineError::Memory(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> EngineError {
        EngineError::Snapshot(e.to_string())
    }
}

impl From<DecodeError> for EngineError {
    fn from(e: DecodeError) -> EngineError {
        EngineError::Snapshot(e.to_string())
    }
}

/// Optional per-cycle port-activity traces (Fig. 2c observability).
#[derive(Debug, Clone)]
pub struct EngineTrace {
    /// W-load port handshakes, one entry per cycle.
    pub w: StreamMonitor,
    /// X-load port handshakes.
    pub x: StreamMonitor,
    /// Z-store port handshakes.
    pub z: StreamMonitor,
    /// Buffer/datapath occupancy, one sample per cycle (Fig. 2d-style
    /// pipeline observability).
    pub occupancy: Vec<OccupancySample>,
}

/// One cycle of internal state, recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// The datapath was clock-gated this cycle waiting for a buffer.
    pub stalled: bool,
    /// W staging slots currently holding a prefetched group (0..=H).
    pub w_staged: u8,
    /// X staging rows currently filled (0..=L).
    pub x_staged: u8,
    /// Z rows waiting in the store queue.
    pub z_pending: u8,
}

/// Outcome of one accelerator job.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total wall-clock cycles from trigger to completion (including the
    /// final Z drain).
    pub cycles: Cycle,
    /// Useful FMA operations (`M*N*K`; padding lanes are excluded — they
    /// are clock-gated in hardware). The raw lane activity is available as
    /// the `lane_macs` stat.
    pub macs: u64,
    /// Cycles the datapath spent clock-gated waiting for a buffer.
    pub stall_cycles: u64,
    /// Per-phase cycle attribution (compute / refill / stall / fill /
    /// drain). Exactly one category is charged per executed cycle, so
    /// `phases.total()` equals `cycles.count()` — a schedule invariant the
    /// test-suite pins. Also mirrored into `stats` as `phase_*` keys.
    pub phases: PhaseCycles,
    /// Named counters, in name order: the streamer's port counters when
    /// non-zero (`w_loads`, `x_loads`, `z_preloads`, `z_stores`: transfers
    /// per stream; `port_conflicts`: HCI denials; `port_gated`: cycles the
    /// half-bandwidth ablation shut the port; `port_idle`: cycles with
    /// nothing to issue; `fp8_pair_beats`: FP8 beats carrying a second
    /// transfer), `stall_cycles` and `macs` as above, `lane_macs` (lane
    /// activity including padding), the `phase_*` mirror of `phases`, and
    /// `faults_injected` when `faults` is non-empty. [`Engine::run_ft`]
    /// sums these over its sub-runs and adds `ft_runs`, `abft_cycles`,
    /// `faults_detected`, `faults_corrected` and `tiles_replayed`.
    pub stats: Stats,
    /// Per-cycle port traces when the engine was built with
    /// [`Engine::with_trace`].
    pub trace: Option<EngineTrace>,
    /// Cycle-stamped fault activity (empty on fault-free runs). Feed it to
    /// [`redmule_hwsim::FaultLog::dump_vcd`] for waveform inspection.
    pub faults: FaultLog,
}

impl RunReport {
    /// Achieved MACs per cycle.
    // modelcheck-allow: RM-FP-001 -- telemetry: throughput ratio reported to
    // humans and benchmarks; never feeds back into model state.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles.count() == 0 {
            return 0.0;
        }
        self.macs as f64 / self.cycles.count() as f64
    }

    /// Fraction of the ideal `H*L` MACs/cycle achieved.
    // modelcheck-allow: RM-FP-001 -- telemetry: utilization ratio reported to
    // humans and benchmarks; never feeds back into model state.
    pub fn utilization(&self, cfg: &AccelConfig) -> f64 {
        self.macs_per_cycle() / cfg.ideal_macs_per_cycle() as f64
    }
}

/// One output tile: `rows_live x cols_live` live elements at
/// (`row0`, `k0`).
#[derive(Debug, Clone, Copy)]
struct Tile {
    row0: usize,
    k0: usize,
    rows_live: usize,
    cols_live: usize,
}

/// A pending Z-row store: one wide transaction.
#[derive(Debug, Clone)]
struct StoreReq {
    addr: u32,
    data: Vec<F16>,
}

/// A candidate streamer transaction for one beat of the shallow port.
#[derive(Clone, Copy)]
enum Pick {
    /// W group load: (tile, phase, column).
    W(usize, usize, usize),
    /// Z preload row in accumulate mode: (tile, row).
    ZPre(usize, usize),
    /// X row load: (tile, chunk, row).
    X(usize, usize, usize),
    /// Drain the head of the store queue.
    ZStore,
}

/// Streamer policy, for design-choice ablations.
///
/// The paper's design interleaves X loads and Z stores into the free
/// memory slots between two adjacent W loads (Fig. 2c) and prefetches one
/// W group ahead per column. The alternative policies quantify those
/// choices:
///
/// * [`StreamerPolicy::HalfBandwidth`] — the port issues at most every
///   other cycle, emulating a shallow branch of half the width (the
///   paper's discussion of how H > 4 escalates port count);
/// * [`StreamerPolicy::SingleBufferedW`] — W groups may only be fetched
///   once the column's shift register has fully drained (no prefetch),
///   so every phase boundary stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamerPolicy {
    /// Paper behaviour: interleaved slots, prefetched W groups.
    #[default]
    Interleaved,
    /// Ablation: half the shallow-branch bandwidth.
    HalfBandwidth,
    /// Ablation: no W-group prefetch (single-buffered registers).
    SingleBufferedW,
}

/// The cycle-accurate accelerator engine.
///
/// # Example
///
/// ```
/// use redmule::{AccelConfig, Engine, Job};
/// use redmule_cluster::{ClusterConfig, Hci, Tcdm};
/// use redmule_fp16::F16;
///
/// let ccfg = ClusterConfig::default();
/// let mut mem = Tcdm::new(&ccfg);
/// let mut hci = Hci::new(&ccfg);
/// // Z(2x2) = X(2x2) * W(2x2), all ones -> all 2.0.
/// for i in 0..4 {
///     mem.write_f16(2 * i, F16::ONE)?;        // X at 0x00
///     mem.write_f16(0x100 + 2 * i, F16::ONE)?; // W at 0x100
/// }
/// let engine = Engine::new(AccelConfig::paper());
/// let job = Job::new(0x0, 0x100, 0x200, 2, 2, 2);
/// let report = engine.run(job, &mut mem, &mut hci).expect("job runs");
/// assert_eq!(mem.read_f16(0x200)?.to_f32(), 2.0);
/// assert!(report.cycles.count() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: AccelConfig,
    trace: bool,
    policy: StreamerPolicy,
    watchdog: u64,
}

/// Default watchdog window: cycles without forward progress before a run
/// aborts with [`EngineError::Watchdog`]. Far beyond any legitimate stall
/// (worst-case arbitration starvation is bounded by the rotation period).
pub const DEFAULT_WATCHDOG: u64 = 10_000;

impl Engine {
    /// Creates an engine for the given instance parameters.
    pub fn new(cfg: AccelConfig) -> Engine {
        Engine {
            cfg,
            trace: false,
            policy: StreamerPolicy::Interleaved,
            watchdog: DEFAULT_WATCHDOG,
        }
    }

    /// Selects the streamer slot-allocation policy (ablation support).
    #[must_use]
    pub fn with_streamer_policy(self, policy: StreamerPolicy) -> Engine {
        Engine { policy, ..self }
    }

    /// Enables per-cycle port tracing (costly on long runs; intended for
    /// schedule verification and waveform export).
    #[must_use]
    pub fn with_trace(self) -> Engine {
        Engine {
            trace: true,
            ..self
        }
    }

    /// Overrides the watchdog window (cycles without forward progress
    /// before the run aborts with [`EngineError::Watchdog`]).
    #[must_use]
    pub fn with_watchdog(self, cycles: u64) -> Engine {
        Engine {
            watchdog: cycles.max(1),
            ..self
        }
    }

    /// The instance parameters.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Executes a job to completion against the TCDM.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] for malformed descriptors and
    /// [`EngineError::Memory`] when an operand address leaves the TCDM.
    pub fn run(&self, job: Job, mem: &mut Tcdm, hci: &mut Hci) -> Result<RunReport, EngineError> {
        self.start(job)?.run_to_finish(mem, hci)
    }

    /// Starts a job as a steppable [`EngineSession`] for co-simulation with
    /// concurrent core traffic on the interconnect.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] for malformed descriptors.
    pub fn start(&self, job: Job) -> Result<EngineSession, EngineError> {
        job.validate().map_err(EngineError::InvalidJob)?;
        Ok(EngineSession::new(
            Sim::new(self.cfg, job, self.trace, self.policy),
            self.watchdog,
        ))
    }

    /// Like [`Engine::start`], but arms a [`FaultInjector`] whose scheduled
    /// transients strike the datapath, buffers and memory as the job runs.
    /// The injector's log ends up in [`RunReport::faults`].
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidJob`] for malformed descriptors.
    pub fn start_with_faults(
        &self,
        job: Job,
        injector: FaultInjector,
    ) -> Result<EngineSession, EngineError> {
        job.validate().map_err(EngineError::InvalidJob)?;
        let mut sim = Sim::new(self.cfg, job, self.trace, self.policy);
        sim.injector = Some(injector);
        Ok(EngineSession::new(sim, self.watchdog))
    }

    /// Rebuilds a running [`EngineSession`] from a snapshot taken by
    /// [`EngineSession::checkpoint`]. Driving the resumed session to
    /// completion is bit-identical to never having interrupted the
    /// original — results, cycle counts and fault telemetry all match
    /// (the caller must restore the matching TCDM/HCI state alongside).
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when the snapshot is damaged, was taken
    /// under different instance parameters or a different streamer policy,
    /// or this engine has per-cycle tracing enabled (traces are not
    /// serialised, so a resumed trace would be incomplete).
    pub fn resume(&self, state: &SessionState) -> Result<EngineSession, EngineError> {
        if self.trace {
            return Err(EngineError::Snapshot(
                "cannot resume into a tracing engine: per-cycle traces are not serialised"
                    .to_string(),
            ));
        }
        let mut r = StateReader::new(&state.payload);
        let (h, l, p): (usize, usize, usize) = r.get()?;
        if (h, l, p) != (self.cfg.h, self.cfg.l, self.cfg.p) {
            return Err(EngineError::Snapshot(format!(
                "snapshot is for an H={h} L={l} P={p} instance, engine is H={} L={} P={}",
                self.cfg.h, self.cfg.l, self.cfg.p
            )));
        }
        let policy = policy_from_tag(r.get::<u8>()?)?;
        if policy != self.policy {
            return Err(EngineError::Snapshot(format!(
                "snapshot was taken under streamer policy {policy:?}, engine uses {:?}",
                self.policy
            )));
        }
        let job = Job::load_state(&mut r)?;
        job.validate()
            .map_err(|e| EngineError::Snapshot(format!("snapshot job invalid: {e}")))?;
        let cycle: u64 = r.get()?;
        let stalled_for: u64 = r.get()?;

        let mut sim = Sim::new(self.cfg, job, false, self.policy);
        let corrupt = |what: &str| EngineError::Snapshot(format!("corrupt snapshot: {what}"));
        sim.compute_tile = r.get()?;
        if sim.compute_tile > sim.tiles.len() {
            return Err(corrupt("tile cursor past the end of the tile grid"));
        }
        sim.w_cursor = r.get()?;
        sim.x_cursor = r.get()?;
        sim.zpre_cursor = r.get()?;
        sim.zpre_ready_tile = r.get()?;
        let zpre: Vec<Vec<u16>> = r.get()?;
        if zpre.len() != sim.cfg.l || zpre.iter().any(|row| row.len() != sim.pw) {
            return Err(corrupt("Z-preload geometry mismatch"));
        }
        sim.zpre = zpre.into_iter().map(f16_from_bits).collect();
        let stores: Vec<(u32, Vec<u16>)> = r.get()?;
        sim.store_queue = stores
            .into_iter()
            .map(|(addr, data)| StoreReq {
                addr,
                data: f16_from_bits(data),
            })
            .collect();
        let x_staging: Vec<Option<Vec<u16>>> = r.get()?;
        if x_staging.len() != sim.cfg.l || x_staging.iter().flatten().any(|row| row.len() != sim.pw)
        {
            return Err(corrupt("X staging geometry mismatch"));
        }
        for (row, slot) in x_staging.into_iter().enumerate() {
            if let Some(data) = slot {
                sim.xb.stage_row(row, f16_from_bits(data));
            }
        }
        let w_staging: Vec<Option<Vec<u16>>> = r.get()?;
        if w_staging.len() != sim.cfg.h || w_staging.iter().flatten().any(|g| g.len() != sim.pw) {
            return Err(corrupt("W staging geometry mismatch"));
        }
        for (col, slot) in w_staging.into_iter().enumerate() {
            if let Some(data) = slot {
                sim.wb.stage_group(col, f16_from_bits(data));
            }
        }
        let w_inflight: Option<(usize, Vec<u16>)> = r.get()?;
        if let Some((col, group)) = &w_inflight {
            if *col >= sim.cfg.h || group.len() != sim.pw {
                return Err(corrupt("in-flight W group geometry mismatch"));
            }
        }
        sim.w_inflight = w_inflight.map(|(col, group)| (col, f16_from_bits(group)));
        let mut named = Stats::new();
        named.restore_state(&mut r)?;
        sim.counters = PortCounters::from_named(&named)?;
        sim.useful_macs = r.get()?;
        sim.stall_cycles = r.get()?;
        sim.phases.restore_state(&mut r)?;
        let dp_macs: u64 = r.get()?;
        sim.dp.restore_macs(dp_macs);
        match r.get::<u8>()? {
            0 => {}
            1 => {
                let mut injector = FaultInjector::default();
                injector.restore_state(&mut r)?;
                sim.injector = Some(injector);
            }
            t => return Err(corrupt(&format!("unknown injector tag {t}"))),
        }
        r.expect_end()?;

        let mut session = EngineSession::new(sim, self.watchdog);
        session.cycle = cycle;
        session.stalled_for = stalled_for;
        session.last_sig = (cycle > 0).then(|| session.sim.progress_sig());
        Ok(session)
    }
}

/// Container magic identifying serialised engine sessions.
const SESSION_MAGIC: [u8; 4] = *b"RMSS";

/// Version of the session snapshot payload format. Bumped whenever the
/// serialised state layout changes; old snapshots are rejected rather than
/// misread. Version 3 appended the job's operand [`Format`] tag to the
/// serialised descriptor.
///
/// [`Format`]: redmule_fp16::Format
pub const SESSION_STATE_VERSION: u32 = 3;

/// Envelope description of the `RMSS` session container, for the typed
/// decoder.
const SESSION_CONTAINER: ContainerSpec = ContainerSpec {
    name: "session",
    magic: SESSION_MAGIC,
    version: SESSION_STATE_VERSION,
};

/// A versioned, checksummed snapshot of an in-flight [`EngineSession`],
/// taken at a tile boundary by [`EngineSession::checkpoint`] and turned
/// back into a running session by [`Engine::resume`].
///
/// Snapshots are only taken at tile boundaries, where the datapath
/// pipelines are drained, the W shift registers are empty and the Z
/// accumulation buffer holds no live tile — so the serialised state is the
/// scheduler cursors, the staged/in-flight operand groups, the pending
/// store queue, the counters and the fault-injector position, which is
/// everything needed for a bit-exact resume.
///
/// The wire format is `"RMSS"` magic, a little-endian format version, a
/// length-prefixed payload and an FNV-1a-64 checksum of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    payload: Vec<u8>,
}

impl SessionState {
    /// Serialises the snapshot into a self-describing byte container.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_container(SESSION_CONTAINER, &self.payload)
    }

    /// Parses a container produced by [`SessionState::to_bytes`],
    /// verifying magic, version and checksum.
    ///
    /// # Errors
    ///
    /// A typed [`DecodeError`] on any structural damage: wrong magic,
    /// unsupported version, truncation, trailing bytes or checksum
    /// mismatch. Never panics, whatever the input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionState, DecodeError> {
        let payload = decode_container(SESSION_CONTAINER, bytes)?;
        Ok(SessionState { payload })
    }

    /// Size of the serialised payload in bytes (excluding the container
    /// header and checksum).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

fn policy_tag(policy: StreamerPolicy) -> u8 {
    match policy {
        StreamerPolicy::Interleaved => 0,
        StreamerPolicy::HalfBandwidth => 1,
        StreamerPolicy::SingleBufferedW => 2,
    }
}

fn policy_from_tag(tag: u8) -> Result<StreamerPolicy, EngineError> {
    Ok(match tag {
        0 => StreamerPolicy::Interleaved,
        1 => StreamerPolicy::HalfBandwidth,
        2 => StreamerPolicy::SingleBufferedW,
        t => {
            return Err(EngineError::Snapshot(format!(
                "unknown streamer-policy tag {t}"
            )))
        }
    })
}

fn f16_bits(values: &[F16]) -> Vec<u16> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn f16_from_bits(bits: Vec<u16>) -> Vec<F16> {
    bits.into_iter().map(F16::from_bits).collect()
}

/// A running accelerator job that advances one clock at a time, sharing
/// the HCI with other initiators.
///
/// Each [`EngineSession::tick`] performs one cycle of the whole
/// accelerator (datapath + streamer) and arbitrates the streamer's wide
/// access against any core/DMA requests the caller submits for that same
/// cycle — the real tightly-coupled execution the cluster was designed
/// for.
///
/// # Example
///
/// ```
/// use redmule::{AccelConfig, Engine, Job};
/// use redmule_cluster::{ClusterConfig, Hci, Initiator, Tcdm};
/// use redmule_fp16::F16;
///
/// let ccfg = ClusterConfig::default();
/// let mut mem = Tcdm::new(&ccfg);
/// let mut hci = Hci::new(&ccfg);
/// for i in 0..4 {
///     mem.write_f16(2 * i, F16::ONE)?;
///     mem.write_f16(0x100 + 2 * i, F16::ONE)?;
/// }
/// let engine = Engine::new(AccelConfig::paper());
/// let mut session = engine.start(Job::new(0, 0x100, 0x200, 2, 2, 2))?;
/// while !session.is_finished() {
///     // Core 0 polls some flag in bank 0 every cycle, contending with
///     // the accelerator's wide accesses.
///     let tick = session.tick(&mut mem, &mut hci, &[(Initiator::Core(0), 0x40)])?;
///     let _core_served = tick.log_granted[0];
/// }
/// let report = session.finish();
/// assert!(report.cycles.count() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
// modelcheck: snapshot(save = checkpoint, load = resume)
#[derive(Debug)]
pub struct EngineSession {
    sim: Sim,
    cycle: u64,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from sim.tiles
    // by EngineSession::new on resume.
    no_work: bool,
    // modelcheck-allow: RM-SNAP-001 -- derived: the cycle bound is a pure
    // function of (cfg, job), recomputed by EngineSession::new on resume.
    bound: u64,
    // modelcheck-allow: RM-SNAP-001 -- engine configuration, not job
    // state: resume() reinstalls the *resuming* engine's watchdog.
    watchdog: u64,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from the
    // restored scheduler cursors (progress_sig) at the end of resume().
    last_sig: Option<ProgressSig>,
    stalled_for: u64,
    // modelcheck-allow: RM-SNAP-001 -- telemetry: event recording is
    // switched on per session by the caller and intentionally not
    // serialised; a resumed session starts unrecorded (see DESIGN.md §12).
    events: Option<EventLog>,
    // modelcheck-allow: RM-SNAP-001 -- telemetry cache: monotonicity clamp
    // for estimated_remaining_cycles; resets to the no-estimate-yet state
    // on resume, which only relaxes the clamp.
    est_clamp: Cell<u64>,
}

/// Snapshot of every scheduler cursor; two equal consecutive snapshots mean
/// the cycle made no forward progress (the watchdog's liveness signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgressSig {
    tile: usize,
    t: usize,
    started: bool,
    stores: usize,
    w: (usize, usize, usize),
    x: (usize, usize, usize),
    zp: (usize, usize),
    zready: usize,
}

/// What one datapath tick did, for per-cycle attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CycleKind {
    /// The datapath advanced: an FMA phase issued or a tile flushed.
    Advance,
    /// All tiles are computed; only the store queue still drains.
    DrainOnly,
    /// The datapath was clock-gated; the payload is the schedule-level
    /// cause (`Fill`, `Refill` or `Drain`). The tick loop upgrades it to
    /// `Stall` when the streamer's request was denied this same cycle.
    Stalled(Phase),
}

/// Pre-tick counter snapshot used to reconstruct trace events from deltas
/// (only taken while the session records events).
#[derive(Debug, Clone, Copy)]
struct TickObs {
    tile: usize,
    started: bool,
    counters: PortCounters,
    faults: usize,
}

/// Outcome of one [`EngineSession::tick`].
#[derive(Debug, Clone)]
pub struct TickResult {
    /// Grant for each submitted logarithmic-branch request, in order.
    pub log_granted: Vec<bool>,
    /// Whether the job completed on this cycle.
    pub finished: bool,
}

impl EngineSession {
    fn new(sim: Sim, watchdog: u64) -> EngineSession {
        let no_work = sim.tiles.is_empty();
        let bound =
            10_000 + 64 * sim.tiles.len() as u64 * (sim.tile_len() as u64 + sim.cfg.l as u64 + 4);
        EngineSession {
            sim,
            cycle: 0,
            no_work,
            bound,
            watchdog,
            last_sig: None,
            stalled_for: 0,
            events: None,
            est_clamp: Cell::new(u64::MAX),
        }
    }

    /// Starts recording: subsequent ticks append typed [`TraceEvent`]s to
    /// a fresh [`EventLog`], replacing (and dropping) any log already
    /// held. While nothing records, the event-assembly path is skipped
    /// entirely (tracing is zero-cost when disabled); the [`PhaseCycles`]
    /// ledger is always on either way.
    pub fn record_events(&mut self) {
        self.events = Some(EventLog::new());
    }

    /// Stops recording and returns the events recorded so far, if the
    /// session was recording.
    pub fn take_events(&mut self) -> Option<EventLog> {
        self.events.take()
    }

    /// `true` while the session records events.
    pub fn is_recording(&self) -> bool {
        self.events.is_some()
    }

    /// Ticks the session until the job has drained, then produces the
    /// final report.
    pub(crate) fn run_to_finish(
        mut self,
        mem: &mut Tcdm,
        hci: &mut Hci,
    ) -> Result<RunReport, EngineError> {
        while !self.is_finished() {
            self.tick(mem, hci, &[])?;
        }
        Ok(self.finish())
    }

    /// The per-phase cycle attribution accumulated so far.
    pub fn phase_cycles(&self) -> PhaseCycles {
        self.sim.phases
    }

    /// `true` once the job has fully drained (further ticks are no-ops).
    pub fn is_finished(&self) -> bool {
        self.no_work || self.sim.finished()
    }

    /// Advances the accelerator one cycle; `log_requests` are core/DMA
    /// accesses contending on the interconnect this same cycle.
    ///
    /// # Errors
    ///
    /// [`EngineError::Memory`] when an operand access leaves the TCDM;
    /// [`EngineError::Watchdog`] when the schedule makes no forward
    /// progress for a full watchdog window (see [`Engine::with_watchdog`])
    /// or exceeds its structural cycle bound — a hung interconnect or a
    /// scheduler bug, reported instead of spinning forever.
    pub fn tick(
        &mut self,
        mem: &mut Tcdm,
        hci: &mut Hci,
        log_requests: &[(redmule_cluster::Initiator, u32)],
    ) -> Result<TickResult, EngineError> {
        if self.is_finished() {
            return Ok(TickResult {
                log_granted: vec![false; log_requests.len()],
                finished: true,
            });
        }
        // Contention can legitimately stretch execution by up to the
        // rotation period; scale the structural bound accordingly.
        if self.cycle >= self.bound * 8 {
            self.emit_watchdog();
            return Err(EngineError::Watchdog {
                cycle: self.cycle,
                stalled_for: self.stalled_for,
            });
        }
        self.sim.inject_cycle_faults(self.cycle, mem);
        self.sim.stage_pads();
        let stalls_before = self.sim.stall_cycles;
        let conflicts_before = self.sim.counters.port_conflicts;
        let pre = self.events.is_some().then(|| self.observe_pre_tick());
        let kind = if self.sim.n_phases == 0 {
            self.sim.flush_empty_reduction_tile(mem)?
        } else {
            self.sim.compute_cycle()
        };
        let log_granted = self
            .sim
            .streamer_cycle(mem, hci, self.cycle, log_requests)?;
        // Attribute this cycle to exactly one category. A datapath stall
        // whose memory request was denied this same cycle is charged to
        // interconnect contention (`Stall`) rather than the schedule-level
        // cause it would otherwise carry.
        let phase = match kind {
            CycleKind::Advance => Phase::Compute,
            CycleKind::DrainOnly => Phase::Drain,
            CycleKind::Stalled(cause) => {
                if self.sim.counters.port_conflicts > conflicts_before {
                    Phase::Stall
                } else {
                    cause
                }
            }
        };
        if let Some(trace) = &mut self.sim.trace {
            let w_staged = (0..self.sim.cfg.h)
                .filter(|&h| !self.sim.wb.staging_free(h))
                .count();
            let x_staged = (0..self.sim.cfg.l)
                .filter(|&r| !self.sim.xb.staging_free(r))
                .count();
            trace.occupancy.push(OccupancySample {
                stalled: self.sim.stall_cycles > stalls_before,
                w_staged: w_staged as u8,
                x_staged: x_staged as u8,
                z_pending: self.sim.store_queue.len() as u8,
            });
        }
        let sig = self.sim.progress_sig();
        if self.last_sig == Some(sig) {
            self.stalled_for += 1;
            if self.stalled_for >= self.watchdog {
                self.emit_watchdog();
                return Err(EngineError::Watchdog {
                    cycle: self.cycle,
                    stalled_for: self.stalled_for,
                });
            }
        } else {
            self.last_sig = Some(sig);
            self.stalled_for = 0;
        }
        self.sim.phases.add(phase);
        if let Some(pre) = pre {
            self.emit_tick_events(&pre, kind, phase);
        }
        self.cycle = self.cycle.saturating_add(1);
        Ok(TickResult {
            log_granted,
            finished: self.is_finished(),
        })
    }

    /// Counter snapshot taken before a tick so events can be
    /// reconstructed from deltas afterwards. Only assembled while the
    /// session records events.
    fn observe_pre_tick(&self) -> TickObs {
        let s = &self.sim;
        TickObs {
            tile: s.compute_tile,
            started: s.started,
            counters: s.counters,
            faults: s
                .injector
                .as_ref()
                .map_or(0, |inj| inj.log().events().len()),
        }
    }

    /// Emits the typed trace events for the cycle that just executed,
    /// derived from the pre/post counter deltas.
    fn emit_tick_events(&mut self, pre: &TickObs, kind: CycleKind, phase: Phase) {
        let Some(log) = self.events.as_mut() else {
            return;
        };
        let s = &self.sim;
        let (before, after) = (&pre.counters, &s.counters);
        let cycle = self.cycle;
        let ended = s.compute_tile > pre.tile;
        // Empty-reduction tiles start and end in the single cycle that
        // flushes them.
        let started = if s.n_phases > 0 {
            !pre.started && s.started
        } else {
            ended
        };
        if started {
            let tile = s.tiles[pre.tile];
            log.push(TraceEvent::TileStart {
                cycle,
                tile: pre.tile as u32,
                row0: tile.row0 as u32,
                rows: tile.rows_live as u32,
                cols: tile.cols_live as u32,
            });
        }
        if ended {
            log.push(TraceEvent::TileEnd {
                cycle,
                tile: pre.tile as u32,
            });
        }
        for (channel, pre_seq, seq) in [
            (Channel::W, before.w_loads, after.w_loads),
            (Channel::ZPre, before.z_preloads, after.z_preloads),
            (Channel::X, before.x_loads, after.x_loads),
        ] {
            if seq > pre_seq {
                log.push(TraceEvent::Refill {
                    cycle,
                    channel,
                    seq,
                });
            }
        }
        if after.z_stores > before.z_stores {
            log.push(TraceEvent::StoreDrain {
                cycle,
                pending: s.store_queue.len() as u32,
            });
        }
        if after.port_conflicts > before.port_conflicts {
            log.push(TraceEvent::HciStall { cycle });
        }
        if matches!(kind, CycleKind::Stalled(_)) {
            log.push(TraceEvent::Stall { cycle, phase });
        }
        if let Some(inj) = &s.injector {
            for fe in &inj.log().events()[pre.faults..] {
                log.push(TraceEvent::Fault {
                    cycle: fe.cycle,
                    class: fe.class,
                    phase: fe.phase,
                });
            }
        }
    }

    /// Emits a watchdog trip event (just before the session aborts with
    /// [`EngineError::Watchdog`]).
    fn emit_watchdog(&mut self) {
        let cycle = self.cycle;
        let stalled_for = self.stalled_for;
        if let Some(log) = self.events.as_mut() {
            log.push(TraceEvent::Watchdog { cycle, stalled_for });
        }
    }

    /// Consumes the session, producing the final report.
    ///
    /// # Panics
    ///
    /// Panics if the job has not finished (drive [`EngineSession::tick`]
    /// until [`EngineSession::is_finished`]).
    pub fn finish(mut self) -> RunReport {
        assert!(self.is_finished(), "job still in flight");
        debug_assert_eq!(
            self.sim.phases.total(),
            self.cycle,
            "phase attribution must cover every executed cycle exactly once"
        );
        debug_assert_eq!(
            self.sim.useful_macs,
            self.sim.job.shape().macs(),
            "useful-MAC accounting must cover the job exactly"
        );
        let faults = self
            .sim
            .injector
            .take()
            .map(FaultInjector::into_log)
            .unwrap_or_default();
        let trace = self.sim.trace.take();
        self.report(trace, faults)
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Output tiles whose computation has fully completed.
    pub fn tiles_completed(&self) -> usize {
        self.sim.compute_tile.min(self.sim.tiles.len())
    }

    /// Total output tiles in the job's tile grid.
    pub fn tiles_total(&self) -> usize {
        self.sim.tiles.len()
    }

    /// `true` when the session sits on a tile boundary — the next compute
    /// cycle would be the first of a fresh tile (or the job is draining
    /// its final stores). At a boundary the datapath pipelines are
    /// drained and the W/Z buffers hold no live tile state, which is what
    /// makes [`EngineSession::checkpoint`] possible.
    pub fn at_tile_boundary(&self) -> bool {
        self.sim.t_local == 0 && !self.sim.started
    }

    /// Analytical estimate of the cycles still needed to finish the job,
    /// from the calibrated schedule model (exact on uncontended fault-free
    /// runs): each remaining tile costs its compute length `tile_len =
    /// H*(P+1) + n_phases*H*(P+1)`, prefetch hides every boundary stall,
    /// the initial pipeline fill costs `min(N,H) + min(M,L)` operand
    /// loads, and the final drain retires the last tile's remaining rows
    /// at one store per cycle (the first overlapping the last compute
    /// tick). Empty-reduction jobs (`N == 0`) flush one tile per cycle in
    /// parallel with the store drain.
    ///
    /// The returned value is monotonically non-increasing across a run
    /// (contention can only delay completion, never un-finish work; a
    /// clamp enforces this across re-ordering edge cases) and never
    /// exceeds the actual remaining cycles by more than one tile. Used for
    /// graceful degradation when a supervisor cuts a run short.
    pub fn estimated_remaining_cycles(&self) -> u64 {
        let clamped = self.estimate_remaining_raw().min(self.est_clamp.get());
        self.est_clamp.set(clamped);
        clamped
    }

    fn estimate_remaining_raw(&self) -> u64 {
        if self.is_finished() {
            return 0;
        }
        let s = &self.sim;
        // With half-width FP8 elements the streamer serves two transactions
        // per granted beat, so fill loads and store drains retire in pairs.
        let beat: u64 = if s.job.format.is_fp8() { 2 } else { 1 };
        if s.compute_tile >= s.tiles.len() {
            // Only queued stores remain; they retire `beat` per cycle.
            return (s.store_queue.len() as u64).div_ceil(beat);
        }
        if s.n_phases == 0 {
            // One tile flushes per cycle while stores drain in parallel.
            let tiles_left = (s.tiles.len() - s.compute_tile) as u64;
            let store_rows: u64 = s.tiles[s.compute_tile..]
                .iter()
                .map(|t| t.rows_live as u64)
                .sum();
            return tiles_left.max((store_rows + s.store_queue.len() as u64).div_ceil(beat));
        }
        let tile_len = s.tile_len() as u64;
        let tiles_after = (s.tiles.len() - s.compute_tile - 1) as u64;
        // Mid-tile `t_local` is always < tile_len (it wraps on completion).
        let current = tile_len - (s.t_local as u64).min(tile_len);
        // The last tile's stores leave `beat` rows per cycle, minus the
        // store overlapping the final compute cycle (`rows - 1` for FP16).
        let drain = s
            .tiles
            .last()
            .map_or(0, |t| (t.rows_live as u64).div_ceil(beat).saturating_sub(1));
        // Initial pipeline fill: only before the very first tile starts.
        let fill = if s.compute_tile == 0 && !s.started {
            ((s.job.n.min(s.cfg.h) + s.job.m.min(s.cfg.l)) as u64).div_ceil(beat)
        } else {
            0
        };
        let compute_path = tiles_after * tile_len + current + drain + fill;
        // The store queue drains at most `beat` rows per cycle, so it
        // lower-bounds the remaining time under heavy contention backlog.
        compute_path.max((s.store_queue.len() as u64).div_ceil(beat))
    }

    /// Serialises the session into a [`SessionState`] snapshot.
    ///
    /// Only legal at a tile boundary ([`EngineSession::at_tile_boundary`])
    /// — between tiles the micro-architectural state collapses to the
    /// scheduler cursors, staged operands and pending stores, so a resumed
    /// run is bit-identical to an uninterrupted one. The TCDM and HCI are
    /// *not* included; callers snapshot those alongside (see the runtime
    /// crate's checkpoint container).
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] when called mid-tile or on a session with
    /// per-cycle tracing enabled (traces are not serialised).
    ///
    /// Takes `&mut self` only to record a [`TraceEvent::Checkpoint`] when
    /// the session records events; the simulation state itself is not
    /// modified.
    pub fn checkpoint(&mut self) -> Result<SessionState, EngineError> {
        let s = &self.sim;
        if s.trace.is_some() {
            return Err(EngineError::Snapshot(
                "cannot checkpoint a tracing session: per-cycle traces are not serialised"
                    .to_string(),
            ));
        }
        if !self.at_tile_boundary() {
            return Err(EngineError::Snapshot(format!(
                "not at a tile boundary (tile {}, local cycle {})",
                s.compute_tile, s.t_local
            )));
        }
        debug_assert!(s.dp.is_drained(), "datapath must drain between tiles");
        debug_assert!(
            !s.zb.is_occupied(),
            "Z buffer must be released between tiles"
        );
        let mut w = StateWriter::new();
        w.put(&(s.cfg.h, s.cfg.l, s.cfg.p));
        w.put(&policy_tag(s.policy));
        s.job.save_state(&mut w);
        w.put(&self.cycle);
        w.put(&self.stalled_for);
        w.put(&s.compute_tile);
        w.put(&s.w_cursor);
        w.put(&s.x_cursor);
        w.put(&s.zpre_cursor);
        w.put(&s.zpre_ready_tile);
        w.put(
            &s.zpre
                .iter()
                .map(|row| f16_bits(row))
                .collect::<Vec<Vec<u16>>>(),
        );
        w.put(
            &s.store_queue
                .iter()
                .map(|req| (req.addr, f16_bits(&req.data)))
                .collect::<Vec<(u32, Vec<u16>)>>(),
        );
        let staged = |slots: &[Option<Vec<F16>>]| -> Vec<Option<Vec<u16>>> {
            slots
                .iter()
                .map(|slot| slot.as_deref().map(f16_bits))
                .collect()
        };
        w.put(&staged(s.xb.staging_slots()));
        w.put(&staged(s.wb.staging_slots()));
        w.put(
            &s.w_inflight
                .as_ref()
                .map(|(col, group)| (*col, f16_bits(group))),
        );
        s.counters.nonzero().collect::<Stats>().save_state(&mut w);
        w.put(&s.useful_macs);
        w.put(&s.stall_cycles);
        s.phases.save_state(&mut w);
        w.put(&s.dp.macs());
        match &s.injector {
            None => w.put(&0u8),
            Some(injector) => {
                w.put(&1u8);
                injector.save_state(&mut w);
            }
        }
        let tile = self.sim.compute_tile as u32;
        let cycle = self.cycle;
        if let Some(log) = self.events.as_mut() {
            log.push(TraceEvent::Checkpoint { cycle, tile });
        }
        Ok(SessionState {
            payload: w.finish(),
        })
    }

    /// A [`RunReport`] covering the work done *so far*, for a session that
    /// will not run to completion (deadline hit, cancellation). Unlike
    /// [`EngineSession::finish`] this does not consume the session, never
    /// panics mid-flight and skips the full-job MAC accounting check.
    pub fn partial_report(&self) -> RunReport {
        let faults = self
            .sim
            .injector
            .as_ref()
            .map(|injector| injector.log().clone())
            .unwrap_or_default();
        self.report(None, faults)
    }

    /// The report for the cycles executed so far; [`RunReport::stats`] is
    /// rendered here from the typed counters, the MAC and stall totals,
    /// the phase ledger and the fault log.
    fn report(&self, trace: Option<EngineTrace>, faults: FaultLog) -> RunReport {
        let s = &self.sim;
        let mut stats: Stats = s.counters.nonzero().collect();
        stats.add("stall_cycles", s.stall_cycles);
        stats.add("macs", s.useful_macs);
        stats.add("lane_macs", s.dp.macs());
        for (label, cycles) in s.phases.iter() {
            stats.add(&format!("phase_{label}"), cycles);
        }
        if !faults.is_empty() {
            stats.add("faults_injected", faults.count(FaultPhase::Injected));
        }
        RunReport {
            cycles: Cycle::new(self.cycle),
            macs: s.useful_macs,
            stall_cycles: s.stall_cycles,
            phases: s.phases,
            stats,
            trace,
            faults,
        }
    }
}

/// The streamer's port counters, bumped in the tick loop (see
/// [`RunReport::stats`] for what each counts). They reach reports and
/// session snapshots by name through [`COUNTERS`] only.
#[derive(Debug, Clone, Copy, Default)]
struct PortCounters {
    w_loads: u64,
    x_loads: u64,
    z_preloads: u64,
    z_stores: u64,
    port_conflicts: u64,
    port_gated: u64,
    port_idle: u64,
    fp8_pair_beats: u64,
}

/// Selects one [`PortCounters`] field.
type CounterField = fn(&mut PortCounters) -> &mut u64;

/// Every [`PortCounters`] field under its report and snapshot name, in
/// name order (the order `RunReport.stats` iterates in).
const COUNTERS: [(&str, CounterField); 8] = [
    ("fp8_pair_beats", |c| &mut c.fp8_pair_beats),
    ("port_conflicts", |c| &mut c.port_conflicts),
    ("port_gated", |c| &mut c.port_gated),
    ("port_idle", |c| &mut c.port_idle),
    ("w_loads", |c| &mut c.w_loads),
    ("x_loads", |c| &mut c.x_loads),
    ("z_preloads", |c| &mut c.z_preloads),
    ("z_stores", |c| &mut c.z_stores),
];

impl PortCounters {
    /// The non-zero counters by name, in name order: what reports show
    /// and snapshots store.
    fn nonzero(mut self) -> impl Iterator<Item = (&'static str, u64)> {
        COUNTERS
            .into_iter()
            .map(move |(name, field)| (name, *field(&mut self)))
            .filter(|&(_, value)| value > 0)
    }

    /// Rebuilds the counters from the named form snapshots store; a name
    /// outside [`COUNTERS`] means a damaged or foreign snapshot.
    fn from_named(named: &Stats) -> Result<PortCounters, EngineError> {
        let mut counters = PortCounters::default();
        for (name, value) in named.iter() {
            let Some((_, field)) = COUNTERS.iter().find(|(known, _)| *known == name) else {
                let msg = format!("corrupt snapshot: unknown counter {name:?}");
                return Err(EngineError::Snapshot(msg));
            };
            *field(&mut counters) = value;
        }
        Ok(counters)
    }
}

/// All mutable state of one job execution.
// modelcheck: snapshot(save = checkpoint, load = resume)
#[derive(Debug)]
struct Sim {
    cfg: AccelConfig,
    job: Job,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from cfg by
    // Sim::new on resume.
    pw: usize,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from cfg by
    // Sim::new on resume.
    lat: usize,
    // modelcheck-allow: RM-SNAP-001 -- derived: recomputed from the job
    // shape by Sim::new on resume.
    n_phases: usize,
    // modelcheck-allow: RM-SNAP-001 -- derived: the tile grid is a pure
    // function of (cfg, job), rebuilt by Sim::new on resume.
    tiles: Vec<Tile>,

    dp: Datapath,
    xb: XBuffer,
    wb: WBuffer,
    // modelcheck-allow: RM-SNAP-001 -- drained: checkpoints are only taken
    // at tile boundaries, where the Z buffer holds no live tile (asserted
    // in checkpoint()).
    zb: ZBuffer,

    /// Tile currently being computed and its local cycle.
    compute_tile: usize,
    // modelcheck-allow: RM-SNAP-001 -- drained: at a tile boundary the
    // local cycle is 0 (enforced by at_tile_boundary before serialising).
    t_local: usize,
    // modelcheck-allow: RM-SNAP-001 -- drained: at a tile boundary the
    // next tile has not started (enforced by at_tile_boundary).
    started: bool,

    /// W generator cursor: (tile, phase, col) in deadline order.
    w_cursor: (usize, usize, usize),
    /// X generator cursor: (tile, chunk, row).
    x_cursor: (usize, usize, usize),
    /// Z preload cursor: (tile, row); the preload always targets the
    /// currently computing tile (accumulate mode only).
    zpre_cursor: (usize, usize),
    zpre: Vec<Vec<F16>>,
    zpre_ready_tile: usize,
    // modelcheck-allow: RM-SNAP-001 -- scratch: the column-0 accumulate
    // preload, rebuilt from zpre every cycle by compute_cycle.
    acc0_init: Vec<F16>,
    // modelcheck-allow: RM-SNAP-001 -- scratch: the per-column control
    // words, rebuilt every cycle by compute_cycle.
    ctrl: Vec<ColumnCtrl>,

    /// Pending Z stores.
    store_queue: std::collections::VecDeque<StoreReq>,

    counters: PortCounters,
    useful_macs: u64,
    stall_cycles: u64,
    /// Always-on per-cycle attribution ledger: exactly one [`Phase`] is
    /// charged per executed cycle.
    phases: PhaseCycles,
    trace: Option<EngineTrace>,
    policy: StreamerPolicy,
    /// Single-buffered-W ablation: a loaded group spends one cycle in
    /// flight before it can be staged (no prefetch hides this latency).
    w_inflight: Option<(usize, Vec<F16>)>,
    /// Armed fault injector (None on fault-free runs).
    injector: Option<FaultInjector>,
}

impl Sim {
    fn new(cfg: AccelConfig, job: Job, trace: bool, policy: StreamerPolicy) -> Sim {
        let pw = cfg.phase_width();
        let lat = cfg.latency();
        let n_phases = job.n.div_ceil(cfg.h);
        let mut tiles = Vec::new();
        for row0 in (0..job.m).step_by(cfg.l) {
            for k0 in (0..job.k).step_by(pw) {
                tiles.push(Tile {
                    row0,
                    k0,
                    rows_live: (job.m - row0).min(cfg.l),
                    cols_live: (job.k - k0).min(pw),
                });
            }
        }
        Sim {
            cfg,
            job,
            pw,
            lat,
            n_phases,
            dp: Datapath::new(cfg),
            xb: XBuffer::new(cfg.l, pw),
            wb: WBuffer::new(cfg.h, pw),
            zb: ZBuffer::new(cfg.l, pw),
            compute_tile: 0,
            t_local: 0,
            started: false,
            w_cursor: (0, 0, 0),
            x_cursor: (0, 0, 0),
            zpre_cursor: (0, 0),
            zpre: vec![vec![F16::ZERO; pw]; cfg.l],
            zpre_ready_tile: usize::MAX,
            acc0_init: vec![F16::ZERO; cfg.l],
            ctrl: vec![ColumnCtrl::default(); cfg.h],
            store_queue: std::collections::VecDeque::new(),
            counters: PortCounters::default(),
            useful_macs: 0,
            stall_cycles: 0,
            phases: PhaseCycles::new(),
            trace: trace.then(|| EngineTrace {
                w: StreamMonitor::new("w_load"),
                x: StreamMonitor::new("x_load"),
                z: StreamMonitor::new("z_store"),
                occupancy: Vec::new(),
            }),
            policy,
            w_inflight: None,
            injector: None,
            tiles,
        }
    }

    /// Applies all cycle-addressed faults due this cycle (FMA pipeline
    /// registers and TCDM words).
    fn inject_cycle_faults(&mut self, cycle: u64, mem: &mut Tcdm) {
        if let Some(inj) = self.injector.as_mut() {
            inj.on_cycle(cycle, &mut self.dp, mem);
        }
    }

    fn progress_sig(&self) -> ProgressSig {
        ProgressSig {
            tile: self.compute_tile,
            t: self.t_local,
            started: self.started,
            stores: self.store_queue.len(),
            w: self.w_cursor,
            x: self.x_cursor,
            zp: self.zpre_cursor,
            zready: self.zpre_ready_tile,
        }
    }

    /// Number of X chunks per tile.
    fn n_chunks(&self) -> usize {
        self.n_phases.div_ceil(self.lat)
    }

    /// Total compute length of one tile in datapath cycles.
    fn tile_len(&self) -> usize {
        self.cfg.h * self.lat + self.n_phases * self.pw
    }

    fn finished(&self) -> bool {
        self.compute_tile >= self.tiles.len() && self.store_queue.is_empty()
    }

    /// N == 0: every output tile is all zeros (or the preloaded Z in
    /// accumulate mode). One tile is flushed per cycle.
    fn flush_empty_reduction_tile(&mut self, _mem: &mut Tcdm) -> Result<CycleKind, EngineError> {
        if self.compute_tile >= self.tiles.len() {
            return Ok(CycleKind::DrainOnly);
        }
        if self.zb.is_occupied() {
            return Ok(CycleKind::Stalled(Phase::Drain));
        }
        if self.job.accumulate && self.zpre_ready_tile != self.compute_tile {
            // Wait for the Z preload of this tile to finish streaming in.
            return Ok(CycleKind::Stalled(Phase::Refill));
        }
        let tile = self.tiles[self.compute_tile];
        for r in 0..tile.rows_live {
            for j in 0..self.pw {
                let v = if self.job.accumulate {
                    self.zpre[r][j]
                } else {
                    F16::ZERO
                };
                self.zb.record(r, j, v);
            }
        }
        self.zb.seal();
        self.enqueue_stores(tile);
        self.zb.release();
        self.compute_tile += 1;
        self.zpre_ready_tile = usize::MAX;
        self.zpre_cursor = (self.compute_tile, 0);
        Ok(CycleKind::Advance)
    }

    /// One datapath cycle (or a stall).
    fn compute_cycle(&mut self) -> CycleKind {
        if self.compute_tile >= self.tiles.len() {
            return CycleKind::DrainOnly;
        }
        let tile = self.tiles[self.compute_tile];
        let t = self.t_local;
        let pw = self.pw;
        let lat = self.lat;
        let h_count = self.cfg.h;
        let final_start = h_count * lat + (self.n_phases - 1) * pw;

        // ---- Stall checks (clock gate) ----
        if !self.started {
            // Tile start: chunk 0 staged, W group for column 0 staged,
            // Z buffer free, and (accumulate) the Z preload completed.
            if self.zb.is_occupied() {
                // Previous tile's outputs still hold the Z buffer.
                self.stall_cycles = self.stall_cycles.saturating_add(1);
                return CycleKind::Stalled(Phase::Drain);
            }
            if !self.xb.staging_complete()
                || self.wb.staging_free(0)
                || (self.job.accumulate && self.zpre_ready_tile != self.compute_tile)
            {
                // Pipeline fill: waiting for the tile's first operands.
                self.stall_cycles = self.stall_cycles.saturating_add(1);
                return CycleKind::Stalled(Phase::Fill);
            }
            self.xb.swap();
            self.started = true;
        } else {
            // Column phase starts needing a staged W group this cycle.
            for h in 0..h_count {
                let t_col = t as i64 - (h * lat) as i64;
                if t_col >= 0
                    && (t_col as usize) < self.n_phases * pw
                    && (t_col as usize).is_multiple_of(pw)
                    && self.wb.staging_free(h)
                {
                    self.stall_cycles = self.stall_cycles.saturating_add(1);
                    return CycleKind::Stalled(Phase::Refill);
                }
            }
            // Chunk boundary: column 0 entering phase c*lat needs the next
            // X chunk staged.
            if t < self.n_phases * pw && t.is_multiple_of(pw) {
                let phase = t / pw;
                if phase > 0 && phase.is_multiple_of(lat) {
                    if !self.xb.staging_complete() {
                        self.stall_cycles = self.stall_cycles.saturating_add(1);
                        return CycleKind::Stalled(Phase::Refill);
                    }
                    self.xb.swap();
                }
            }
            // Entering the final output window with the Z buffer still
            // draining the previous tile.
            if t == final_start && self.zb.is_occupied() {
                self.stall_cycles = self.stall_cycles.saturating_add(1);
                return CycleKind::Stalled(Phase::Drain);
            }
        }

        // ---- Build per-column control ----
        for h in 0..h_count {
            let t_col = t as i64 - (h * lat) as i64;
            if t_col < 0 || t_col as usize >= self.n_phases * pw {
                self.ctrl[h] = ColumnCtrl::default();
                continue;
            }
            let t_col = t_col as usize;
            let phase = t_col / pw;
            let j = t_col % pw;
            let n_idx = phase * h_count + h;
            let pad = n_idx >= self.job.n;
            if !pad && j < tile.cols_live {
                // Useful work this cycle: one MAC per live row of this
                // column (padding lanes are clock-gated in real hardware).
                self.useful_macs += tile.rows_live as u64;
            }
            if j == 0 {
                let ok = self.wb.activate(h);
                debug_assert!(ok, "stall check guarantees the staged group");
                let chunk_elem = (phase % lat) * h_count + h;
                let xb = &self.xb;
                self.dp
                    .latch_x(h, (0..self.cfg.l).map(|r| xb.operand(r, chunk_elem)));
            }
            self.ctrl[h] = ColumnCtrl {
                w: Some(self.wb.broadcast(h)),
                passthrough: pad,
            };
        }

        let acc0 = if t < pw {
            if self.job.accumulate {
                for (v, row) in self.acc0_init.iter_mut().zip(&self.zpre) {
                    *v = row[t];
                }
                Acc0::Init(&self.acc0_init)
            } else {
                Acc0::Zero
            }
        } else {
            Acc0::Ring
        };

        let outs = self.dp.tick(&self.ctrl, acc0);

        // ---- Capture finished outputs ----
        if t >= final_start && t < final_start + pw {
            let j = t - final_start;
            for (r, v) in outs.iter().enumerate() {
                // modelcheck-allow: RM-PANIC-001 -- schedule invariant: during
                // the final-phase window every datapath column emits a value;
                // a bubble here means the cycle-accurate schedule is broken.
                self.zb.record(r, j, v.expect("final-phase output present"));
            }
        }

        self.t_local += 1;
        if self.t_local == self.tile_len() {
            // Tile complete: seal outputs, queue the stores, advance.
            self.zb.seal();
            self.enqueue_stores(tile);
            self.zb.release();
            self.compute_tile += 1;
            self.t_local = 0;
            self.started = false;
            if self.job.accumulate {
                self.zpre_ready_tile = usize::MAX;
                self.zpre_cursor = (self.compute_tile, 0);
            }
        }
        CycleKind::Advance
    }

    fn enqueue_stores(&mut self, tile: Tile) {
        let esz = self.job.format.elem_bytes() as u32;
        for r in 0..tile.rows_live {
            let addr = self.job.z_addr + esz * ((tile.row0 + r) * self.job.z_ld() + tile.k0) as u32;
            let data = self.zb.row(r)[..tile.cols_live].to_vec();
            self.store_queue.push_back(StoreReq { addr, data });
        }
    }

    /// Stages W pad groups (reduction rows beyond N) and X pad rows
    /// (datapath rows beyond M) without consuming memory slots: the
    /// hardware generates these zeros locally.
    fn stage_pads(&mut self) {
        // W pads.
        while let Some((_, phase, col)) = self.w_head() {
            let n_idx = phase * self.cfg.h + col;
            if n_idx < self.job.n || !self.wb.staging_free(col) {
                break;
            }
            self.wb.stage_group(col, vec![F16::ZERO; self.pw]);
            self.advance_w();
        }
        // X pads.
        while let Some((tile_idx, _, row)) = self.x_head() {
            let tile = self.tiles[tile_idx];
            if row < tile.rows_live || !self.xb.staging_free(row) {
                break;
            }
            self.xb.stage_row(row, vec![F16::ZERO; self.pw]);
            self.advance_x();
        }
    }

    /// Head of the W generator, or `None` when all groups are issued.
    fn w_head(&self) -> Option<(usize, usize, usize)> {
        let (tile, phase, col) = self.w_cursor;
        (self.n_phases > 0 && tile < self.tiles.len()).then_some((tile, phase, col))
    }

    fn advance_w(&mut self) {
        let (mut tile, mut phase, mut col) = self.w_cursor;
        col += 1;
        if col == self.cfg.h {
            col = 0;
            phase += 1;
            if phase == self.n_phases {
                phase = 0;
                tile += 1;
            }
        }
        self.w_cursor = (tile, phase, col);
    }

    fn x_head(&self) -> Option<(usize, usize, usize)> {
        let (tile, chunk, row) = self.x_cursor;
        (self.n_phases > 0 && tile < self.tiles.len()).then_some((tile, chunk, row))
    }

    fn advance_x(&mut self) {
        let (mut tile, mut chunk, mut row) = self.x_cursor;
        row += 1;
        if row == self.cfg.l {
            row = 0;
            chunk += 1;
            if chunk == self.n_chunks() {
                chunk = 0;
                tile += 1;
            }
        }
        self.x_cursor = (tile, chunk, row);
    }

    fn zpre_head(&self) -> Option<(usize, usize)> {
        if !self.job.accumulate {
            return None;
        }
        let (tile, row) = self.zpre_cursor;
        (tile < self.tiles.len()).then_some((tile, row))
    }

    /// Selects the next transaction for the shallow port, priority
    /// W > Z-preload > X > Z-store, or `None` when every stream is idle.
    fn select_pick(&self) -> Option<Pick> {
        if let Some((tile, phase, col)) = self.w_head().filter(|&(_, phase, col)| {
            phase * self.cfg.h + col < self.job.n
                && self.wb.staging_free(col)
                && (self.policy != StreamerPolicy::SingleBufferedW
                    || (self.wb.register_empty(col) && self.w_inflight.is_none()))
        }) {
            Some(Pick::W(tile, phase, col))
        } else if let Some((tile, row)) = self
            .zpre_head()
            .filter(|&(tile, _)| tile == self.compute_tile && tile != self.zpre_ready_tile)
        {
            Some(Pick::ZPre(tile, row))
        } else if let Some((tile, chunk, row)) = self
            .x_head()
            .filter(|&(t, _, row)| row < self.tiles[t].rows_live && self.xb.staging_free(row))
        {
            Some(Pick::X(tile, chunk, row))
        } else if !self.store_queue.is_empty() {
            Some(Pick::ZStore)
        } else {
            None
        }
    }

    /// TCDM byte address of the first element a pick touches.
    fn pick_addr(&self, pick: Pick) -> u32 {
        let esz = self.job.format.elem_bytes() as u32;
        match pick {
            Pick::W(tile, phase, col) => {
                let n_idx = phase * self.cfg.h + col;
                self.job.w_addr + esz * (n_idx * self.job.w_ld() + self.tiles[tile].k0) as u32
            }
            Pick::ZPre(tile, row) => {
                let t = self.tiles[tile];
                self.job.z_addr + esz * ((t.row0 + row) * self.job.z_ld() + t.k0) as u32
            }
            Pick::X(tile, chunk, row) => {
                let t = self.tiles[tile];
                self.job.x_addr + esz * ((t.row0 + row) * self.job.x_ld() + chunk * self.pw) as u32
            }
            // modelcheck-allow: RM-PANIC-001 -- arbitration invariant:
            // Pick::ZStore is only selected when the store queue is
            // non-empty (checked when building the pick).
            Pick::ZStore => self.store_queue.front().expect("queue checked").addr,
        }
    }

    /// One streamer cycle: issue at most one wide access over the shallow
    /// port, priority W > Z-preload > X > Z-store. With an FP8 operand
    /// format the elements are half-width, so one granted 256-bit beat
    /// carries two picks' worth of elements: a second transaction is
    /// served on the same grant (the castin/castout stages repack bytes,
    /// doubling effective bandwidth — the journal follow-up's headline).
    fn streamer_cycle(
        &mut self,
        mem: &mut Tcdm,
        hci: &mut Hci,
        cycle: u64,
        log_requests: &[(redmule_cluster::Initiator, u32)],
    ) -> Result<Vec<bool>, EngineError> {
        if self.policy == StreamerPolicy::HalfBandwidth && cycle % 2 == 1 {
            self.counters.port_gated += 1;
            self.record_stream_trace(' ', false);
            let grants = hci.arbitrate(log_requests, None);
            return Ok(grants.log_granted);
        }

        // Single-buffered-W ablation: deliver last cycle's load first; the
        // port is free again this cycle for other streams.
        if let Some((col, group)) = self.w_inflight.take() {
            self.wb.stage_group(col, group);
        }

        let Some(pick) = self.select_pick() else {
            self.counters.port_idle += 1;
            self.record_stream_trace(' ', false);
            let grants = hci.arbitrate(log_requests, None);
            return Ok(grants.log_granted);
        };
        let kind = match pick {
            Pick::W(..) => 'w',
            Pick::ZPre(..) => 'p',
            Pick::X(..) => 'x',
            Pick::ZStore => 'z',
        };

        // The shallow port is a single wide transaction; arbitration with
        // concurrent core traffic happens in the HCI.
        let addr = self.pick_addr(pick);
        let grants = hci.arbitrate(log_requests, Some(addr));
        if !grants.shallow_granted {
            self.counters.port_conflicts += 1;
            self.record_stream_trace(kind, false);
            return Ok(grants.log_granted);
        }

        self.serve_pick(pick, mem, cycle)?;
        if self.job.format.is_fp8() {
            // Half-width elements: a second pick rides the same granted
            // beat (no extra HCI arbitration — it is one wide access).
            if let Some(second) = self.select_pick() {
                self.serve_pick(second, mem, cycle)?;
                self.counters.fp8_pair_beats += 1;
            }
        }

        self.record_stream_trace(kind, true);
        Ok(grants.log_granted)
    }

    /// Completes one picked transaction: reads operands through the castin
    /// stage (widening FP8 storage to FP16) or drains one store row
    /// through the castout stage (narrowing FP16 results to the job's
    /// storage format).
    fn serve_pick(&mut self, pick: Pick, mem: &mut Tcdm, cycle: u64) -> Result<(), EngineError> {
        let format = self.job.format;
        let esz = format.elem_bytes() as u32;
        match pick {
            Pick::W(tile, phase, col) => {
                let n_idx = phase * self.cfg.h + col;
                let t = self.tiles[tile];
                let mut group = Vec::with_capacity(self.pw);
                for jj in 0..self.pw {
                    let kk = t.k0 + jj;
                    group.push(if kk < self.job.k {
                        cast::castin(
                            mem,
                            format,
                            self.job.w_addr + esz * (n_idx * self.job.w_ld() + kk) as u32,
                        )?
                    } else {
                        F16::ZERO
                    });
                }
                if let Some(inj) = self.injector.as_mut() {
                    inj.on_w_load(cycle, phase, col, &mut group);
                }
                if self.policy == StreamerPolicy::SingleBufferedW {
                    self.w_inflight = Some((col, group));
                } else {
                    self.wb.stage_group(col, group);
                }
                self.advance_w();
                self.counters.w_loads += 1;
            }
            Pick::ZPre(tile, row) => {
                let t = self.tiles[tile];
                for jj in 0..self.pw {
                    let kk = t.k0 + jj;
                    self.zpre[row][jj] = if row < t.rows_live && kk < self.job.k {
                        cast::castin(
                            mem,
                            format,
                            self.job.z_addr + esz * ((t.row0 + row) * self.job.z_ld() + kk) as u32,
                        )?
                    } else {
                        F16::ZERO
                    };
                }
                self.zpre_cursor.1 += 1;
                if self.zpre_cursor.1 == self.cfg.l {
                    self.zpre_ready_tile = tile;
                    self.zpre_cursor = (tile, 0);
                }
                self.counters.z_preloads += 1;
            }
            Pick::X(tile, chunk, row) => {
                let t = self.tiles[tile];
                let mut data = Vec::with_capacity(self.pw);
                for e in 0..self.pw {
                    let n_idx = chunk * self.pw + e;
                    data.push(if n_idx < self.job.n {
                        cast::castin(
                            mem,
                            format,
                            self.job.x_addr
                                + esz * ((t.row0 + row) * self.job.x_ld() + n_idx) as u32,
                        )?
                    } else {
                        F16::ZERO
                    });
                }
                if let Some(inj) = self.injector.as_mut() {
                    inj.on_x_load(cycle, chunk, row, &mut data);
                }
                self.xb.stage_row(row, data);
                self.advance_x();
                self.counters.x_loads += 1;
            }
            Pick::ZStore => {
                // modelcheck-allow: RM-PANIC-001 -- arbitration invariant:
                // Pick::ZStore is only selected when the store queue is
                // non-empty (checked when building the pick).
                let StoreReq { addr, mut data } =
                    self.store_queue.pop_front().expect("queue checked");
                if let Some(inj) = self.injector.as_mut() {
                    inj.on_z_store(cycle, &mut data);
                }
                for (jj, v) in data.iter().enumerate() {
                    cast::castout(mem, format, addr + esz * jj as u32, *v)?;
                }
                self.counters.z_stores += 1;
            }
        }
        Ok(())
    }

    /// Records one cycle of port activity per stream. `kind` identifies
    /// which stream drove the port this cycle (`'w'`, `'x'`, `'z'`, `'p'`
    /// for Z-preload, or `' '` for an idle slot); `fired` is whether the
    /// HCI granted the transaction.
    fn record_stream_trace(&mut self, kind: char, fired: bool) {
        let Some(trace) = &mut self.trace else { return };
        let active = if fired {
            Handshake::FIRE
        } else {
            Handshake {
                valid: true,
                ready: false,
            }
        };
        trace
            .w
            .record(if kind == 'w' { active } else { Handshake::IDLE });
        trace
            .x
            .record(if kind == 'x' { active } else { Handshake::IDLE });
        // Z preloads share the Z port direction bookkeeping.
        trace.z.record(if kind == 'z' || kind == 'p' {
            active
        } else {
            Handshake::IDLE
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::stage_gemm_workspace;
    use crate::faults::FaultSite;
    use redmule_fp16::vector::GemmShape;

    /// A 16x16x32 all-ones job on the paper instance (four output tiles).
    fn staged() -> (Job, Tcdm, Hci) {
        let shape = GemmShape::new(16, 16, 32);
        let ones = |len| vec![F16::ONE; len];
        stage_gemm_workspace(shape, &ones(shape.x_len()), &ones(shape.w_len()), None)
            .expect("stage")
    }

    #[test]
    fn snapshot_naming_an_unknown_counter_is_rejected() {
        let engine = Engine::new(AccelConfig::paper());
        let (job, mut mem, mut hci) = staged();
        let mut session = engine.start(job).expect("start");
        while session.tiles_completed() < 2 {
            session.tick(&mut mem, &mut hci, &[]).expect("tick");
        }
        let state = session.checkpoint().expect("tile-boundary checkpoint");
        engine
            .resume(&state)
            .expect("the untouched snapshot resumes");

        // Rename one counter in place (same length, last byte '#'), so
        // the payload still parses and only the name is foreign.
        let mut payload = state.payload.clone();
        let (at, name) = COUNTERS
            .iter()
            .find_map(|(name, _)| {
                let at = payload
                    .windows(name.len())
                    .position(|w| w == name.as_bytes())?;
                Some((at, *name))
            })
            .expect("a mid-run snapshot names its counters");
        payload[at + name.len() - 1] = b'#';
        let foreign = format!("{}#", &name[..name.len() - 1]);
        match engine.resume(&SessionState { payload }) {
            Err(EngineError::Snapshot(msg)) => assert!(msg.contains(&foreign), "{msg}"),
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn partial_report_of_a_finished_session_matches_finish() {
        let engine = Engine::new(AccelConfig::paper());
        let (job, mut mem, mut hci) = staged();
        let strike = FaultSite::ZStore {
            store: 1,
            elem: 0,
            bit: 3,
        };
        let injector = FaultInjector::new(vec![(0, strike)]);
        let mut session = engine.start_with_faults(job, injector).expect("start");
        while !session.is_finished() {
            session.tick(&mut mem, &mut hci, &[]).expect("tick");
        }
        let partial = session.partial_report();
        let full = session.finish();
        assert_eq!(partial.cycles, full.cycles);
        assert_eq!(partial.macs, full.macs);
        assert_eq!(partial.stall_cycles, full.stall_cycles);
        assert_eq!(partial.phases, full.phases);
        assert_eq!(partial.stats, full.stats);
        assert_eq!(partial.faults, full.faults);
        assert!(full.stats.get("faults_injected") > 0);
    }
}
