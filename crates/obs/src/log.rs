//! The engine's recorded event stream.

use crate::event::TraceEvent;

/// Unbounded in-order event recorder: the engine appends to one while a
/// session records events.
///
/// Comparable with `==` so determinism tests can assert two runs produced
/// the *identical* stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// All recorded events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends one event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Appends all of `other`'s events, shifting their cycle stamps by
    /// `cycle_offset` — used when a sub-run's log folds into a parent run.
    pub fn absorb(&mut self, other: &EventLog, cycle_offset: u64) {
        self.events.extend(
            other
                .events
                .iter()
                .cloned()
                .map(|ev| shift(ev, cycle_offset)),
        );
    }
}

fn shift(ev: TraceEvent, offset: u64) -> TraceEvent {
    use TraceEvent::*;
    match ev {
        TileStart {
            cycle,
            tile,
            row0,
            rows,
            cols,
        } => TileStart {
            cycle: cycle.saturating_add(offset),
            tile,
            row0,
            rows,
            cols,
        },
        TileEnd { cycle, tile } => TileEnd {
            cycle: cycle.saturating_add(offset),
            tile,
        },
        Refill {
            cycle,
            channel,
            seq,
        } => Refill {
            cycle: cycle.saturating_add(offset),
            channel,
            seq,
        },
        StoreDrain { cycle, pending } => StoreDrain {
            cycle: cycle.saturating_add(offset),
            pending,
        },
        HciStall { cycle } => HciStall {
            cycle: cycle.saturating_add(offset),
        },
        Stall { cycle, phase } => Stall {
            cycle: cycle.saturating_add(offset),
            phase,
        },
        Fault {
            cycle,
            class,
            phase,
        } => Fault {
            cycle: cycle.saturating_add(offset),
            class,
            phase,
        },
        Checkpoint { cycle, tile } => Checkpoint {
            cycle: cycle.saturating_add(offset),
            tile,
        },
        Watchdog { cycle, stalled_for } => Watchdog {
            cycle: cycle.saturating_add(offset),
            stalled_for,
        },
        Admitted { cycle, tenant, job } => Admitted {
            cycle: cycle.saturating_add(offset),
            tenant,
            job,
        },
        AdmissionRejected {
            cycle,
            tenant,
            job,
            reason,
        } => AdmissionRejected {
            cycle: cycle.saturating_add(offset),
            tenant,
            job,
            reason,
        },
        Preempted {
            cycle,
            tenant,
            job,
            by,
        } => Preempted {
            cycle: cycle.saturating_add(offset),
            tenant,
            job,
            by,
        },
        Shed { cycle, tenant, job } => Shed {
            cycle: cycle.saturating_add(offset),
            tenant,
            job,
        },
        RecoveryStart {
            cycle,
            records,
            torn_bytes,
        } => RecoveryStart {
            cycle: cycle.saturating_add(offset),
            records,
            torn_bytes,
        },
        JournalReplay {
            cycle,
            submissions,
            decisions,
        } => JournalReplay {
            cycle: cycle.saturating_add(offset),
            submissions,
            decisions,
        },
        CheckpointRestore {
            cycle,
            job,
            generation,
        } => CheckpointRestore {
            cycle: cycle.saturating_add(offset),
            job,
            generation,
        },
        CorruptionDetected {
            cycle,
            artefact,
            damage,
        } => CorruptionDetected {
            cycle: cycle.saturating_add(offset),
            artefact,
            damage,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Channel;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::Refill {
            cycle,
            channel: Channel::X,
            seq: cycle,
        }
    }

    #[test]
    fn event_log_records_in_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.push(ev(1));
        log.push(ev(2));
        assert_eq!(log.len(), 2);
        let cycles: Vec<u64> = log.events().iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![1, 2]);
    }

    #[test]
    fn absorb_shifts_cycles() {
        let mut a = EventLog::new();
        a.push(ev(5));
        let mut b = EventLog::new();
        b.push(ev(1));
        a.absorb(&b, 100);
        assert_eq!(a.events()[1].cycle(), 101);
    }
}
