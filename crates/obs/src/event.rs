//! Typed trace events, timestamped in simulated cycles.

use crate::phase::Phase;
use redmule_hwsim::{FaultClass, FaultPhase};
use std::fmt;

/// Which streamer channel a buffer-traffic event belongs to.
///
/// Mirrors the four request kinds of the engine's streamer: W-buffer
/// refills (one row every `P+1` cycles), X-buffer loads and Z preloads
/// (interleaved into the spare slots of Fig. 2c), and Z store drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Channel {
    /// W-buffer row refill.
    W,
    /// X-buffer block load.
    X,
    /// Z-buffer accumulate preload (Y row).
    ZPre,
    /// Z-buffer store drain (computed row written back).
    ZStore,
}

impl Channel {
    /// Stable lowercase label, used for counter names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Channel::W => "w",
            Channel::X => "x",
            Channel::ZPre => "zpre",
            Channel::ZStore => "zstore",
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One sim-cycle-timestamped observation from the engine.
///
/// Every variant carries `cycle`, the value of the session's cycle counter
/// when the event was emitted. Because the engine is cycle-deterministic,
/// the event stream for a given job is a pure function of the job — host
/// thread count and wall-clock timing never appear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A compute tile left the stall-at-start state and began issuing
    /// FMA phases (or, for empty-reduction jobs, flushed in one cycle).
    TileStart {
        /// Cycle of the first compute tick of the tile.
        cycle: u64,
        /// Tile index in schedule order.
        tile: u32,
        /// First output row covered by the tile.
        row0: u32,
        /// Live output rows in the tile (≤ L).
        rows: u32,
        /// Live output columns in the tile (≤ phase width).
        cols: u32,
    },
    /// A compute tile finished its last FMA tick and enqueued its stores.
    TileEnd {
        /// Cycle of the last compute tick of the tile.
        cycle: u64,
        /// Tile index in schedule order.
        tile: u32,
    },
    /// The streamer completed a buffer load on a channel (`W`, `X` or
    /// `ZPre`).
    Refill {
        /// Completion cycle.
        cycle: u64,
        /// Which buffer was refilled.
        channel: Channel,
        /// Running per-channel sequence number (1-based).
        seq: u64,
    },
    /// The streamer drained one computed row from the store queue.
    StoreDrain {
        /// Completion cycle.
        cycle: u64,
        /// Store-queue depth after the drain.
        pending: u32,
    },
    /// The HCI (or the streamer policy) denied this cycle's memory
    /// request — interconnect contention, not a schedule hazard.
    HciStall {
        /// Cycle of the denied request.
        cycle: u64,
    },
    /// The datapath could not advance this cycle; `phase` records the
    /// attribution category the ledger charged it to.
    Stall {
        /// The stalled cycle.
        cycle: u64,
        /// Attribution category (`Fill`, `Refill`, `Stall` or `Drain`).
        phase: Phase,
    },
    /// A fault lifecycle observation (injection, detection, correction).
    Fault {
        /// Cycle the fault event was recorded.
        cycle: u64,
        /// Fault kind.
        class: FaultClass,
        /// Lifecycle stage.
        phase: FaultPhase,
    },
    /// A checkpoint container was captured at a tile boundary.
    Checkpoint {
        /// Capture cycle.
        cycle: u64,
        /// Next tile to compute after resume.
        tile: u32,
    },
    /// The progress-signature watchdog (or the structural cycle bound)
    /// tripped; the session aborts after emitting this.
    Watchdog {
        /// Cycle of the trip.
        cycle: u64,
        /// Consecutive cycles without forward progress.
        stalled_for: u64,
    },
    /// A service front end admitted a job into its queue.
    Admitted {
        /// Virtual-clock cycle of the admission decision.
        cycle: u64,
        /// Tenant the job belongs to.
        tenant: u32,
        /// Service-level job id.
        job: u64,
    },
    /// A service front end rejected a submission at admission.
    AdmissionRejected {
        /// Virtual-clock cycle of the admission decision.
        cycle: u64,
        /// Tenant the submission belonged to.
        tenant: u32,
        /// Service-level job id.
        job: u64,
        /// Why the submission was turned away.
        reason: RejectReason,
    },
    /// A running job was preempted at a (virtual) tile boundary and
    /// returned to the queue so a tighter-slack job could take its
    /// server.
    Preempted {
        /// Virtual-clock cycle of the preemption.
        cycle: u64,
        /// Tenant of the preempted job.
        tenant: u32,
        /// Service-level id of the preempted job.
        job: u64,
        /// Service-level id of the job that took the server.
        by: u64,
    },
    /// An accepted job was evicted by load shedding or a passed deadline;
    /// the service returns it as degraded-with-checkpoint, never drops
    /// it silently.
    Shed {
        /// Virtual-clock cycle of the eviction.
        cycle: u64,
        /// Tenant of the evicted job.
        tenant: u32,
        /// Service-level id of the evicted job.
        job: u64,
    },
    /// A crash-recovery pass opened the durable journal and started
    /// rebuilding service state from it.
    RecoveryStart {
        /// Virtual-clock cycle the interrupted run had reached according
        /// to the journal (0 when the crash predates any decision).
        cycle: u64,
        /// Intact journal records found ahead of any damaged tail.
        records: u64,
        /// Bytes of torn tail truncated during journal repair (0 when
        /// the journal was clean).
        torn_bytes: u64,
    },
    /// Journal replay reconstructed the pre-crash admission and
    /// scheduling decisions.
    JournalReplay {
        /// Virtual clock reached by the replayed decisions.
        cycle: u64,
        /// Submissions reconstructed from the journal.
        submissions: u64,
        /// Scheduling decisions reconstructed from the journal.
        decisions: u64,
    },
    /// A job resumed execution from a durable checkpoint generation
    /// instead of re-running from cycle zero.
    CheckpointRestore {
        /// Virtual-clock cycle the restored checkpoint corresponds to.
        cycle: u64,
        /// Service-level id of the restored job.
        job: u64,
        /// Checkpoint generation the job resumed from.
        generation: u32,
    },
    /// Storage damage was detected during recovery and repaired by
    /// truncation or generation fallback — never by accepting corrupt
    /// bytes.
    CorruptionDetected {
        /// Virtual-clock cycle recovery had reached when the damage
        /// surfaced.
        cycle: u64,
        /// Stable label of the damaged artefact (`"journal"` or
        /// `"checkpoint"`).
        artefact: &'static str,
        /// Stable damage-kind label (e.g. `"checksum-mismatch"`).
        damage: &'static str,
    },
}

/// Why a service front end turned a submission away at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The tenant's token bucket lacked the estimated cycles.
    Quota,
    /// The bounded queue was full and nothing cheaper could be shed.
    QueueFull,
    /// The job could not meet its deadline even on an idle server.
    DeadlineInfeasible,
}

impl RejectReason {
    /// Stable lowercase label, used for counter names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Quota => "quota",
            RejectReason::QueueFull => "queue-full",
            RejectReason::DeadlineInfeasible => "deadline-infeasible",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl TraceEvent {
    /// The simulated cycle the event is stamped with.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::TileStart { cycle, .. }
            | TraceEvent::TileEnd { cycle, .. }
            | TraceEvent::Refill { cycle, .. }
            | TraceEvent::StoreDrain { cycle, .. }
            | TraceEvent::HciStall { cycle }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::Fault { cycle, .. }
            | TraceEvent::Checkpoint { cycle, .. }
            | TraceEvent::Watchdog { cycle, .. }
            | TraceEvent::Admitted { cycle, .. }
            | TraceEvent::AdmissionRejected { cycle, .. }
            | TraceEvent::Preempted { cycle, .. }
            | TraceEvent::Shed { cycle, .. }
            | TraceEvent::RecoveryStart { cycle, .. }
            | TraceEvent::JournalReplay { cycle, .. }
            | TraceEvent::CheckpointRestore { cycle, .. }
            | TraceEvent::CorruptionDetected { cycle, .. } => *cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_accessor_covers_every_variant() {
        let evs = [
            TraceEvent::TileStart {
                cycle: 1,
                tile: 0,
                row0: 0,
                rows: 4,
                cols: 16,
            },
            TraceEvent::TileEnd { cycle: 2, tile: 0 },
            TraceEvent::Refill {
                cycle: 3,
                channel: Channel::W,
                seq: 1,
            },
            TraceEvent::StoreDrain {
                cycle: 4,
                pending: 0,
            },
            TraceEvent::HciStall { cycle: 5 },
            TraceEvent::Stall {
                cycle: 6,
                phase: Phase::Refill,
            },
            TraceEvent::Fault {
                cycle: 7,
                class: FaultClass::TransientFlip,
                phase: FaultPhase::Injected,
            },
            TraceEvent::Checkpoint { cycle: 8, tile: 1 },
            TraceEvent::Watchdog {
                cycle: 9,
                stalled_for: 64,
            },
            TraceEvent::Admitted {
                cycle: 10,
                tenant: 0,
                job: 7,
            },
            TraceEvent::AdmissionRejected {
                cycle: 11,
                tenant: 1,
                job: 8,
                reason: RejectReason::Quota,
            },
            TraceEvent::Preempted {
                cycle: 12,
                tenant: 0,
                job: 7,
                by: 9,
            },
            TraceEvent::Shed {
                cycle: 13,
                tenant: 2,
                job: 10,
            },
            TraceEvent::RecoveryStart {
                cycle: 14,
                records: 5,
                torn_bytes: 3,
            },
            TraceEvent::JournalReplay {
                cycle: 15,
                submissions: 4,
                decisions: 6,
            },
            TraceEvent::CheckpointRestore {
                cycle: 16,
                job: 7,
                generation: 2,
            },
            TraceEvent::CorruptionDetected {
                cycle: 17,
                artefact: "checkpoint",
                damage: "checksum-mismatch",
            },
        ];
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.cycle(), i as u64 + 1);
        }
    }

    #[test]
    fn reject_reason_labels_are_distinct() {
        let labels = [
            RejectReason::Quota.label(),
            RejectReason::QueueFull.label(),
            RejectReason::DeadlineInfeasible.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn channel_labels_are_distinct() {
        let labels = [
            Channel::W.label(),
            Channel::X.label(),
            Channel::ZPre.label(),
            Channel::ZStore.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
