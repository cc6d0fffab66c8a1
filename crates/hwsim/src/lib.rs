//! Cycle-driven hardware-simulation kernel for the RedMulE reproduction.
//!
//! The RedMulE paper describes synthesisable RTL; this crate provides the
//! building blocks a behavioural-but-cycle-accurate Rust model needs to
//! mirror that RTL faithfully:
//!
//! * [`Cycle`] and [`Frequency`] — simulation time and its conversion to
//!   wall-clock time at an operating point.
//! * [`Pipeline`] and [`ShiftRegister`] — register stages with stall
//!   support, used to model the FMA latency (`P+1` stages) and the
//!   W-buffer's broadcast shift registers.
//! * [`stream`] — ready/valid handshake bookkeeping matching the paper's
//!   Fig. 2c memory-access schedule notation.
//! * [`arbiter`] — round-robin arbitration (HCI logarithmic branch) and the
//!   starvation-free rotating multiplexer between interconnect branches.
//! * [`Stats`] — named event counters.
//! * [`snapshot`] — versioned state serialisation so long simulations can
//!   checkpoint and resume bit-exactly.
//! * [`vcd`] — a waveform writer producing standard VCD files viewable in
//!   GTKWave, the observability substitute for RTL waveform inspection.
//!
//! # Example
//!
//! ```
//! use redmule_hwsim::Pipeline;
//!
//! // A 4-stage pipeline models an FMA with P = 3 internal registers.
//! let mut fma: Pipeline<u32> = Pipeline::new(4);
//! let mut out = Vec::new();
//! for c in 0..6 {
//!     if let Some(v) = fma.tick(Some(c)) {
//!         out.push(v);
//!     }
//! }
//! // The first result emerges after 4 cycles, so inputs 0 and 1 are out.
//! assert_eq!(out, vec![0, 1]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arbiter;
mod counters;
mod cycle;
pub mod faults;
mod pipeline;
pub mod rng;
pub mod snapshot;
pub mod stream;
pub mod vcd;

pub use counters::Stats;
pub use cycle::{Cycle, Frequency};
pub use faults::{FaultClass, FaultEvent, FaultLog, FaultPhase, StuckBit};
pub use pipeline::{LoadError, Pipeline, ShiftRegister};
pub use rng::{SplitMix64, Xoshiro256};
pub use snapshot::{fnv1a64, Persist, Snapshot, SnapshotError, StateReader, StateWriter};
