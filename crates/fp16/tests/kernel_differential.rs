//! Differential lock of the batched kernel against the scalar `fma`.
//!
//! [`fma_acc`] and [`fma_row_staged`] must be bit-for-bit equivalent to
//! `arith::fma` on the packed encodings — every rounding mode, every
//! special-value combination. Four locks:
//!
//! 1. the 200 frozen FMA vectors (`tests/vectors/fma.txt`) replayed through
//!    the kernel — the same ground truth that pins the scalar path;
//! 2. an exhaustive-pairs sweep: **every** one of the 65 536 bit patterns
//!    in one operand slot against a class-covering set in the other two
//!    slots, rotated through all three positions;
//! 3. a dense pseudo-random soak across all five rounding modes;
//! 4. the staged vector tiers `FunctionalGemm` runs: every X pattern
//!    broadcast through `fma_row_staged` against a row of probe-class W
//!    lanes and signed-zero, subnormal and normal Y initialisers.

use redmule_fp16::arith::fma;
use redmule_fp16::kernel::{fma_acc, fma_row_staged, Acc, Operand, Staged};
use redmule_fp16::Round;

const VECTORS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors/fma.txt");

fn step(a: u16, b: u16, c: u16, mode: Round) -> u16 {
    fma_acc(
        Operand::from_bits(a),
        Operand::from_bits(b),
        Acc::from_bits(c),
        mode,
    )
    .to_bits()
}

fn parse_mode(s: &str) -> Option<Round> {
    Some(match s {
        "rne" => Round::NearestEven,
        "rtz" => Round::TowardZero,
        "rdn" => Round::Down,
        "rup" => Round::Up,
        "rmm" => Round::NearestMaxMagnitude,
        _ => return None,
    })
}

/// Lock 1: the frozen vectors are ground truth for the kernel too.
#[test]
fn kernel_matches_frozen_fma_vectors() {
    let text = std::fs::read_to_string(VECTORS_PATH).expect("frozen vector file");
    let mut checked = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 5, "line {}: {line}", lineno + 1);
        let parse = |s: &str| u16::from_str_radix(s, 16).expect("hex field");
        let (a, b, c) = (parse(fields[0]), parse(fields[1]), parse(fields[2]));
        let mode = parse_mode(fields[3]).expect("mode field");
        let expected = parse(fields[4]);
        assert_eq!(
            step(a, b, c, mode),
            expected,
            "line {}: fma_acc({a:#06x}, {b:#06x}, {c:#06x}, {mode:?})",
            lineno + 1
        );
        checked += 1;
    }
    assert!(
        checked >= 200,
        "expected >= 200 frozen vectors, got {checked}"
    );
}

/// Class-covering probe set for the non-exhaustive operand slots: zeros,
/// ones, subnormal edges, normal edges, max finite, infinities, NaNs, and
/// a few odd-significand values that exercise tie-breaking.
fn probes() -> [u16; 14] {
    [
        0x0000, 0x8000, // +-0
        0x3C00, 0xBC01, // +-1-ish (odd significand on the negative side)
        0x0001, 0x8001, // min subnormals
        0x03FF, // max subnormal
        0x0400, // min normal
        0x7BFF, 0xFBFF, // +-max finite
        0x7C00, 0xFC00, // +-inf
        0x7E00, 0x7C01, // canonical and signalling-pattern NaN
    ]
}

/// Lock 2: exhaustive pairs. All 2^16 bit patterns sweep through each
/// operand position in turn, against every (probe, probe) pair in the
/// other two slots — ~38M FMA comparisons under RNE.
#[test]
fn kernel_matches_fma_exhaustively_per_slot() {
    let probes = probes();
    let mode = Round::NearestEven;
    for sweep in (0u32..=0xFFFF).map(|v| v as u16) {
        for &p in &probes {
            for &q in &probes {
                assert_eq!(
                    step(sweep, p, q, mode),
                    fma(sweep, p, q, mode),
                    "a-slot sweep a={sweep:#06x} b={p:#06x} c={q:#06x}"
                );
                assert_eq!(
                    step(p, sweep, q, mode),
                    fma(p, sweep, q, mode),
                    "b-slot sweep a={p:#06x} b={sweep:#06x} c={q:#06x}"
                );
                assert_eq!(
                    step(p, q, sweep, mode),
                    fma(p, q, sweep, mode),
                    "c-slot sweep a={p:#06x} b={q:#06x} c={sweep:#06x}"
                );
            }
        }
    }
}

/// Lock 3: dense pseudo-random soak over all five rounding modes (the
/// exhaustive sweep above fixes RNE; modes differ only in the shared
/// rounding core, but the equivalence claim is per mode).
#[test]
fn kernel_matches_fma_randomly_in_every_mode() {
    let mut state = 0x1234_5678u32;
    let mut next = move || {
        // xorshift32: deterministic, dependency-free.
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    for _ in 0..200_000 {
        let r = next();
        let a = (r & 0xFFFF) as u16;
        let b = (r >> 16) as u16;
        let c = (next() & 0xFFFF) as u16;
        for mode in Round::ALL {
            assert_eq!(
                step(a, b, c, mode),
                fma(a, b, c, mode),
                "a={a:#06x} b={b:#06x} c={c:#06x} mode={mode:?}"
            );
        }
    }
}

/// Y initialisers for Lock 4: signed zeros, subnormals of both signs, the
/// minimum normal and two mid-range normals.
const STAGED_YS: [u16; 8] = [
    0x0000, 0x8000, 0x0001, 0x83FF, 0x0200, 0x0400, 0x3555, 0xC4CD,
];

/// `fma_row_staged` processes a row in chunks of this many lanes.
const CHUNK: usize = 32;

/// Lock 4's row, one `(w, y)` pair per lane: four probe W values against
/// every Y initialiser fill each 32-lane chunk, so each chunk meets one
/// path of the kernel.
///
/// * chunk 0 — zeros and subnormals: zero, subnormal and normal results
///   side by side, the second vector tier's traffic;
/// * chunk 1 — subnormal results next to a max-finite W, which overflows
///   for any |X| above one: the whole chunk is rolled back and redone;
/// * chunk 2 — infinities: always the scalar path;
/// * a 16-lane tail of NaNs: a partial chunk.
fn staged_lanes() -> Vec<(u16, u16)> {
    let [z, nz, p1, n1, s1, ns1, smax, nmin, mx, nmx, inf, ninf, nan, snan] = probes();
    let groups: [&[u16]; 4] = [
        &[z, nz, ns1, smax],
        &[s1, p1, n1, mx],
        &[nmin, nmx, inf, ninf],
        &[nan, snan],
    ];
    groups
        .iter()
        .flat_map(|g| {
            g.iter()
                .flat_map(|&w| STAGED_YS.iter().map(move |&y| (w, y)))
        })
        .collect()
}

/// Runs every `stride`-th X pattern through one `fma_row_staged` step
/// against [`staged_lanes`] and compares every lane with `arith::fma`.
fn staged_sweep(stride: usize) {
    let lanes = staged_lanes();
    let xs = Staged::from_bits_iter(0..=0xFFFF);
    let ws = Staged::from_bits_iter(lanes.iter().map(|&(w, _)| w));
    let (mut tiny_chunks, mut mixed_chunks) = (0usize, 0usize);
    for xi in (0..=0xFFFFusize).step_by(stride) {
        let x = xi as u16;
        let mut acc: Vec<Acc> = lanes.iter().map(|&(_, y)| Acc::from_bits(y)).collect();
        fma_row_staged(&xs, xi, &ws, 0, &mut acc, Round::NearestEven);
        let want: Vec<u16> = lanes
            .iter()
            .map(|&(w, y)| fma(x, w, y, Round::NearestEven))
            .collect();
        for (j, (&(w, y), a)) in lanes.iter().zip(acc.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                want[j],
                "lane {j}: x={x:#06x} w={w:#06x} y={y:#06x}"
            );
        }
        // Coverage of the finite chunks' two interesting shapes: zero or
        // subnormal results alone, and beside an overflow to infinity.
        if x & 0x7C00 != 0x7C00 {
            for chunk in want[..2 * CHUNK].chunks(CHUNK) {
                let tiny = chunk.iter().any(|&z| z & 0x7C00 == 0);
                let overflow = chunk.iter().any(|&z| z & 0x7FFF == 0x7C00);
                tiny_chunks += usize::from(tiny && !overflow);
                mixed_chunks += usize::from(tiny && overflow);
            }
        }
    }
    assert!(
        tiny_chunks > 0,
        "no chunk had only finite zero/subnormal results"
    );
    assert!(
        mixed_chunks > 0,
        "no chunk mixed subnormal results with an overflow"
    );
}

/// Lock 4: the staged vector tiers against the scalar `fma`, on a strided
/// subset of X patterns (every 7th, covering every exponent and sign) so
/// the default debug run stays fast.
#[test]
fn staged_kernel_matches_fma_on_strided_x() {
    staged_sweep(7);
}

/// Lock 4, full sweep: all 65 536 X patterns (~7.3M lanes).
#[test]
#[ignore = "deep sweep; run with --include-ignored"]
fn staged_kernel_matches_fma_on_every_x() {
    staged_sweep(1);
}
