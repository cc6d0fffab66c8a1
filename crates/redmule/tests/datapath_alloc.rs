//! The datapath's clock tick allocates nothing.
//!
//! A counting global allocator tallies the heap allocations made by this
//! test's own thread; the test drives `Datapath` through a whole output
//! tile the way the engine schedules it — X latches, ring feedback, a
//! zero-padding phase and an accumulate-mode start — and requires the
//! tally to stay put from the first tick to the last. The binary holds a
//! single test so nothing else runs beside it.

use redmule::datapath::{Acc0, ColumnCtrl, Datapath};
use redmule::AccelConfig;
use redmule_fp16::F16;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local tally is const-initialised and needs no allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's pointer and layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_full_tile_of_ticks_allocates_nothing() {
    // Paper instance, N = 7 over H = 4 columns: two phases, the second
    // with one padding column, so the tile covers X latches, ring
    // feedback, a clock-gated pad lane and an accumulate-mode start.
    let cfg = AccelConfig::paper();
    let (h, l, lat, pw) = (cfg.h, cfg.l, cfg.latency(), cfg.phase_width());
    let n: usize = 7;
    let n_phases = n.div_ceil(h);
    let total = h * lat + n_phases * pw;
    let x = |r: usize, i: usize| F16::from_f32((r * n + i) as f32 / 16.0 - 1.0);
    let w = |i: usize, j: usize| F16::from_f32(((i * 5 + j * 3) % 11) as f32 / 4.0 - 1.25);
    let y: Vec<Vec<F16>> = (0..pw)
        .map(|j| {
            (0..l)
                .map(|r| F16::from_f32((r + j) as f32 * 0.5))
                .collect()
        })
        .collect();

    let mut dp = Datapath::new(cfg);
    let mut ctrl = vec![ColumnCtrl::default(); h];
    let mut finished = 0usize;
    let before = allocations();
    for t in 0..total {
        for (col, cc) in ctrl.iter_mut().enumerate() {
            let Some(t_col) = t.checked_sub(col * lat).filter(|&tc| tc < n_phases * pw) else {
                *cc = ColumnCtrl::default();
                continue;
            };
            let (phase, j) = (t_col / pw, t_col % pw);
            let n_idx = phase * h + col;
            let pad = n_idx >= n;
            if j == 0 {
                dp.latch_x(
                    col,
                    (0..l).map(|r| if pad { F16::ZERO } else { x(r, n_idx) }),
                );
            }
            *cc = ColumnCtrl {
                w: Some(if pad { F16::ZERO } else { w(n_idx, j) }),
                passthrough: pad,
            };
        }
        // The Y column of the accumulate-mode start, then ring feedback.
        let acc0 = y.get(t).map_or(Acc0::Ring, |col| Acc0::Init(col));
        finished += dp.tick(&ctrl, acc0).iter().flatten().count();
    }
    let after = allocations();

    assert_eq!(after - before, 0, "the tick loop allocated");
    assert!(dp.is_drained(), "the tile must drain");
    assert_eq!(
        finished,
        l * pw * n_phases,
        "every phase's outputs left the array"
    );
    assert_eq!(dp.macs(), (l * pw * n) as u64, "pad lanes are not MACs");
}
