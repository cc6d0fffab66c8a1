//! Register-stage primitives: fixed-latency pipelines and shift registers.

use crate::snapshot::{Persist, Snapshot, SnapshotError, StateReader, StateWriter};
use std::collections::VecDeque;

/// A fixed-depth pipeline of registers with bubble and stall support.
///
/// Models any fixed-latency hardware unit: with depth `P + 1` it reproduces
/// an FMA with `P` internal pipeline registers — RedMulE's datapath element
/// (the paper's default is `P = 3`, a 4-deep pipeline).
///
/// Each call to [`Pipeline::tick`] advances one clock: the optional input
/// enters stage 0 (a `None` inserts a bubble) and whatever occupied the last
/// stage is returned.
///
/// # Example
///
/// ```
/// use redmule_hwsim::Pipeline;
///
/// let mut p: Pipeline<&str> = Pipeline::new(2);
/// assert_eq!(p.tick(Some("a")), None);      // "a" enters
/// assert_eq!(p.tick(None), None);           // bubble behind it
/// assert_eq!(p.tick(Some("b")), Some("a")); // "a" emerges after 2 ticks
/// assert_eq!(p.tick(None), None);           // the bubble emerges
/// assert_eq!(p.tick(None), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<T> {
    stages: VecDeque<Option<T>>,
}

impl<T> Pipeline<T> {
    /// Creates a pipeline with `depth` register stages, initially full of
    /// bubbles.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (a zero-latency pipeline is a wire; model
    /// it as one).
    pub fn new(depth: usize) -> Pipeline<T> {
        assert!(depth > 0, "pipeline depth must be at least 1");
        let mut stages = VecDeque::with_capacity(depth);
        stages.resize_with(depth, || None);
        Pipeline { stages }
    }

    /// Number of register stages (the latency in cycles).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Advances one clock cycle: shifts every stage forward, inserts
    /// `input` into stage 0 and returns the value leaving the final stage.
    pub fn tick(&mut self, input: Option<T>) -> Option<T> {
        // modelcheck-allow: RM-PANIC-001 -- structural invariant: the
        // constructor rejects depth 0, so the stage deque is never empty.
        let out = self.stages.pop_back().expect("depth >= 1");
        self.stages.push_front(input);
        out
    }

    /// `true` if every stage holds a bubble (the pipeline is drained).
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(Option::is_none)
    }

    /// Number of occupied (non-bubble) stages.
    pub fn occupancy(&self) -> usize {
        self.stages.iter().filter(|s| s.is_some()).count()
    }

    /// Immutable view of the stages, newest (stage 0) first.
    pub fn stages(&self) -> impl Iterator<Item = Option<&T>> {
        self.stages.iter().map(Option::as_ref)
    }

    /// Peeks at the value that will leave on the next [`Pipeline::tick`]
    /// (the final register stage), without advancing the clock.
    ///
    /// Hardware registers are read before they are written within a cycle;
    /// this is how same-cycle feedback paths (like RedMulE's row ring) are
    /// modelled: snapshot `back()` of every stage, then tick.
    pub fn back(&self) -> Option<&T> {
        // modelcheck-allow: RM-PANIC-001 -- structural invariant: the
        // constructor rejects depth 0, so the stage deque is never empty.
        self.stages.back().expect("depth >= 1").as_ref()
    }

    /// Mutable access to the value held in stage `idx` (0 = newest), or
    /// `None` when the stage holds a bubble or is out of range.
    ///
    /// This is the fault-injection hook: a transient bit-flip in an FMA
    /// pipeline register is modelled by corrupting the in-flight value of
    /// one stage between two clock edges.
    pub fn stage_mut(&mut self, idx: usize) -> Option<&mut T> {
        self.stages.get_mut(idx).and_then(Option::as_mut)
    }

    /// Replaces all contents with bubbles (synchronous reset).
    pub fn reset(&mut self) {
        for s in &mut self.stages {
            *s = None;
        }
    }
}

impl<T: Persist> Snapshot for Pipeline<T> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.stages.len());
        for stage in &self.stages {
            match stage {
                None => w.put(&0u8),
                Some(v) => {
                    w.put(&1u8);
                    w.put(v);
                }
            }
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let depth: usize = r.get()?;
        if depth != self.stages.len() {
            return Err(SnapshotError::ConfigMismatch(format!(
                "pipeline depth {depth}, component has {}",
                self.stages.len()
            )));
        }
        for stage in &mut self.stages {
            *stage = r.get::<Option<T>>()?;
        }
        Ok(())
    }
}

/// A serial-in, broadcast-out shift register.
///
/// Models RedMulE's W-buffer element: each of the `H` per-column shift
/// registers is loaded with 16 W-operands at once and then shifts one
/// element out per cycle to broadcast to the `L` FMAs of that column.
///
/// # Example
///
/// ```
/// use redmule_hwsim::ShiftRegister;
///
/// let mut sr = ShiftRegister::new(4);
/// sr.load(vec![10, 20, 30, 40]).expect("register is empty");
/// assert_eq!(sr.shift(), Some(10));
/// assert_eq!(sr.shift(), Some(20));
/// assert_eq!(sr.remaining(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ShiftRegister<T> {
    capacity: usize,
    data: VecDeque<T>,
}

/// Error returned by [`ShiftRegister::load`] when the register still holds
/// elements or the payload has the wrong length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The register still holds unshifted elements.
    Busy,
    /// The payload length does not equal the register capacity.
    WrongLength {
        /// Capacity of the register.
        expected: usize,
        /// Length of the rejected payload.
        got: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Busy => write!(f, "shift register still holds elements"),
            LoadError::WrongLength { expected, got } => {
                write!(f, "payload length {got} does not match capacity {expected}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl<T> ShiftRegister<T> {
    /// Creates an empty shift register holding up to `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ShiftRegister<T> {
        assert!(capacity > 0, "shift register capacity must be at least 1");
        ShiftRegister {
            capacity,
            data: VecDeque::with_capacity(capacity),
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements still waiting to be shifted out.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// `true` when all elements have been shifted out.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Parallel-loads a full payload.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Busy`] if elements remain, or
    /// [`LoadError::WrongLength`] if `payload.len() != capacity`.
    pub fn load(&mut self, payload: Vec<T>) -> Result<(), LoadError> {
        if !self.data.is_empty() {
            return Err(LoadError::Busy);
        }
        if payload.len() != self.capacity {
            return Err(LoadError::WrongLength {
                expected: self.capacity,
                got: payload.len(),
            });
        }
        self.data.extend(payload);
        Ok(())
    }

    /// Shifts one element out (front first), or `None` if empty.
    pub fn shift(&mut self) -> Option<T> {
        self.data.pop_front()
    }

    /// Discards any remaining contents (synchronous reset).
    pub fn reset(&mut self) {
        self.data.clear();
    }
}

impl<T: Persist> Snapshot for ShiftRegister<T> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put(&self.capacity);
        w.put(&self.data.len());
        for item in &self.data {
            w.put(item);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let capacity: usize = r.get()?;
        if capacity != self.capacity {
            return Err(SnapshotError::ConfigMismatch(format!(
                "shift-register capacity {capacity}, component has {}",
                self.capacity
            )));
        }
        let len: usize = r.get()?;
        if len > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "shift register holds {len} elements over capacity {capacity}"
            )));
        }
        self.data.clear();
        for _ in 0..len {
            self.data.push_back(r.get::<T>()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_latency_matches_depth() {
        for depth in 1..=6 {
            let mut p: Pipeline<u32> = Pipeline::new(depth);
            assert_eq!(p.depth(), depth);
            let mut first_out = None;
            for cyc in 0..20u32 {
                if let Some(v) = p.tick(Some(cyc)) {
                    if first_out.is_none() {
                        first_out = Some((cyc, v));
                    }
                }
            }
            // Input 0 entered at cycle 0 and leaves on the tick of cycle
            // `depth`, i.e. after exactly `depth` ticks.
            assert_eq!(first_out, Some((depth as u32, 0)));
        }
    }

    #[test]
    fn pipeline_preserves_order_with_bubbles() {
        let mut p: Pipeline<u8> = Pipeline::new(3);
        let inputs = [Some(1), None, Some(2), Some(3), None, None, None, None];
        let mut outputs = Vec::new();
        for i in inputs {
            if let Some(v) = p.tick(i) {
                outputs.push(v);
            }
        }
        assert_eq!(outputs, vec![1, 2, 3]);
        assert!(p.is_empty());
    }

    #[test]
    fn pipeline_occupancy_tracks_contents() {
        let mut p: Pipeline<u8> = Pipeline::new(4);
        assert_eq!(p.occupancy(), 0);
        p.tick(Some(1));
        p.tick(Some(2));
        assert_eq!(p.occupancy(), 2);
        p.tick(None);
        p.tick(None);
        assert_eq!(p.occupancy(), 2);
        p.tick(None); // 1 leaves
        assert_eq!(p.occupancy(), 1);
        let stages: Vec<_> = p.stages().collect();
        assert_eq!(stages.len(), 4);
        p.reset();
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_pipeline_rejected() {
        let _: Pipeline<u8> = Pipeline::new(0);
    }

    #[test]
    fn back_peeks_without_advancing() {
        let mut p: Pipeline<u8> = Pipeline::new(2);
        assert_eq!(p.back(), None);
        p.tick(Some(9));
        p.tick(None);
        assert_eq!(p.back(), Some(&9));
        // Peeking does not consume: the tick still returns it.
        assert_eq!(p.tick(None), Some(9));
        assert_eq!(p.back(), None);
    }

    #[test]
    fn shift_register_fifo_order() {
        let mut sr = ShiftRegister::new(3);
        assert!(sr.is_empty());
        sr.load(vec![7, 8, 9])
            .expect("empty register accepts a load");
        assert_eq!(sr.remaining(), 3);
        assert_eq!(sr.shift(), Some(7));
        assert_eq!(sr.shift(), Some(8));
        assert_eq!(sr.shift(), Some(9));
        assert_eq!(sr.shift(), None);
    }

    #[test]
    fn shift_register_rejects_bad_loads() {
        let mut sr = ShiftRegister::new(2);
        assert_eq!(
            sr.load(vec![1]),
            Err(LoadError::WrongLength {
                expected: 2,
                got: 1
            })
        );
        sr.load(vec![1, 2]).expect("load fits");
        assert_eq!(sr.load(vec![3, 4]), Err(LoadError::Busy));
        sr.shift();
        // Still busy with one element left.
        assert_eq!(sr.load(vec![3, 4]), Err(LoadError::Busy));
        sr.shift();
        sr.load(vec![3, 4])
            .expect("drained register accepts a load");
        assert_eq!(sr.capacity(), 2);
    }

    #[test]
    fn shift_register_reset_clears() {
        let mut sr = ShiftRegister::new(2);
        sr.load(vec![1, 2]).expect("load fits");
        sr.reset();
        assert!(sr.is_empty());
        sr.load(vec![5, 6]).expect("reset register accepts a load");
        assert_eq!(sr.shift(), Some(5));
    }

    #[test]
    fn load_error_display() {
        assert!(LoadError::Busy.to_string().contains("holds"));
        assert!(LoadError::WrongLength {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains("capacity 4"));
    }
}
