//! Batched softfloat FMA kernel: the wall-clock-fast path under
//! `FunctionalGemm`.
//!
//! The scalar [`arith::fma`](crate::arith::fma) re-classifies all three
//! operands, aligns and normalises with portable integer arithmetic, and
//! re-packs the result on every call. A GEMM reduction reuses the same
//! operands thousands of times — every X element against a whole panel of
//! outputs, every W element against a whole column of rows — and feeds
//! each FMA's output straight into the next one's addend. This module
//! exploits that structure while preserving the result bits exactly:
//!
//! * [`Staged`] widens every element of an operand matrix to `f64`
//!   **once**, keeping the packed encodings beside the values.
//! * [`Acc`] keeps the running accumulator in `f64` form between FMA
//!   steps. Every step still performs the mandatory FP16 round — rounding
//!   order is the contract — but the pack-to-bits / unpack-from-bits
//!   round trip between steps is gone.
//! * [`fma_row_staged`] runs one step over a row of accumulators in
//!   32-lane vector chunks, in two tiers: a chunk whose results are all
//!   binary16 normals takes the cheapest pack; a chunk that also has zero
//!   or subnormal results is retried with a pass that rounds those too.
//!   Only a chunk with an infinity, NaN or overflowing lane, or a directed
//!   rounding mode, is redone by the scalar softfloat `fma` on the packed
//!   encodings that [`Staged`] keeps.
//!
//! # Why hardware `f64` is bit-exact here
//!
//! The fast path computes `t = a*b + acc` in `f64`. The product of two
//! binary16 significands has at most 22 bits, so `a*b` is **exact** in
//! `f64`; the addition then performs a single IEEE rounding of the exact
//! sum to 53 bits. What happens next depends on where `t` lands.
//!
//! * **Normal results** (`2^-14 <= |t| < 2^16`). Rounding the 53-bit `t`
//!   again to binary16's 11-bit significand is an *innocuous double
//!   rounding*: a double-rounding mismatch needs the exact sum to sit
//!   within half a 53-bit ulp of an 11-bit rounding boundary without
//!   lying on it, and a sum of a 22-bit product and an 11-bit addend never
//!   has enough significant bits to get that close (53 well exceeds the
//!   3·11+2 bound for FMA). The pack rounds the fraction in place.
//! * **Zero and subnormal results** (`|t| < 2^-14`). Every binary16 value
//!   is a multiple of `2^-24`, so `a*b` lies on the `2^-48` grid and the
//!   exact sum does too. Below `2^-14` that leaves it at most 34
//!   significant bits, so the `f64` addition is **exact** — no first
//!   rounding happens at all. (Rounding is monotone and `2^-14` is an
//!   `f64`, so a computed `|t| < 2^-14` implies an exact one.) A single
//!   round-to-nearest-even of the exact value onto binary16's `2^-24`
//!   subnormal grid is then the correct result: `(|t| + 2^28) - 2^28`
//!   performs exactly that round, because `f64` values in `[2^28, 2^29)`
//!   are spaced `2^-24` apart, and ORing the sign of `t` back in yields
//!   the IEEE signed zero — `+0` for an exact cancellation, `t`'s sign for
//!   an exact-zero sum of zeros or a tiny result that rounds away.
//!
//! The claim is not taken on faith: every accepted vector lane in a debug
//! build re-checks itself against `arith::fma`, and the release kernel is
//! locked by the frozen FMA vectors, an exhaustive-pairs differential
//! sweep and a class-aware proptest, all through `fma_row_staged`.
//!
//! The equivalence contract, per lane `j`:
//!
//! ```text
//! fma_row_staged(x, xi, w, w0, acc, mode);  acc[j].to_bits()
//!     == arith::fma(x[xi], w[w0 + j], acc[j] before, mode)
//!                                 for all operands, and every mode
//! ```

use crate::arith::from_f64;
use crate::round::Round;

/// Exact widening of a binary16 bit pattern to `f64`.
///
/// Branch-free for every finite value: reinterpreting the sign-stripped
/// halfword as the top of an `f32` significand and rescaling by `2^112`
/// is exact (power-of-two multiply), maps subnormals onto normal `f32`
/// values, and the `f32 -> f64` widening is lossless. Only the shared
/// infinity/NaN exponent takes a (well-predicted) branch.
// modelcheck-allow: RM-FP-001 -- lossless binary16 -> f64 widening via an
// exact power-of-two rescale; locked against `arith::to_f64` by the debug
// assertion below and the kernel differential tests.
#[inline]
fn widen(bits: u16) -> f64 {
    let out = if bits & 0x7C00 == 0x7C00 {
        if bits & 0x3FF != 0 {
            f64::NAN
        } else if bits >> 15 != 0 {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    } else {
        let mag = f32::from_bits(u32::from(bits & 0x7FFF) << 13) * f32::from_bits(0x7780_0000);
        f64::from_bits(f64::from(mag).to_bits() | u64::from(bits >> 15) << 63)
    };
    debug_assert!(
        (out.is_nan() && crate::F16::from_bits(bits).is_nan())
            || out.to_bits() == crate::arith::to_f64(bits).to_bits(),
        "widen({bits:#06x}) diverged from arith::to_f64"
    );
    out
}

/// Exact narrowing of an `f64` value *known to be binary16-representable*
/// (or an infinity / NaN) back to its binary16 bit pattern — the inverse
/// of [`widen`], by the same power-of-two rescale run backwards. Because
/// the value never rounds, this replaces the general `from_f64`
/// conversion on the accumulator store path.
// modelcheck-allow: RM-FP-001 -- exact f64 -> binary16 narrowing of
// already-representable values; locked against `arith::from_f64` by the
// debug assertion in `Acc::to_bits` and the exhaustive round-trip test.
#[inline]
fn narrow(v: f64) -> u16 {
    let vb = v.to_bits();
    let sign = ((vb >> 63) as u16) << 15;
    if (vb >> 52) & 0x7FF == 0x7FF {
        if v.is_nan() {
            return crate::CANONICAL_QNAN;
        }
        return sign | 0x7C00;
    }
    // The magnitude rescaled by 2^-112 lands binary16 normals on f32
    // normals with the same biased exponent pattern and binary16
    // subnormals on f32 subnormals with the same fraction — both exact —
    // so the binary16 encoding is the f32 encoding shifted down 13 bits.
    let mag = (f64::from_bits(vb & !(1u64 << 63)) as f32) * f32::from_bits(0x0780_0000);
    sign | (mag.to_bits() >> 13) as u16
}

/// A running FMA accumulator held as the exact `f64` widening of a
/// binary16 value.
///
/// The value is always exactly one representable binary16 (or its
/// infinity / NaN) — the kernel rounds on every step, identically to the
/// scalar path — only the *encoding* work between steps is skipped. The
/// accumulator carries no class tag: an infinite or NaN accumulator gives
/// its lane's sum the all-ones `f64` exponent, which sends the lane's
/// chunk to the scalar path.
// modelcheck-allow: RM-FP-001 -- the f64 field always holds an exactly
// binary16-representable value (or inf/NaN); see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Acc {
    v: f64,
}

impl Acc {
    /// The accumulator for a fresh reduction (`+0`).
    pub const ZERO: Acc = Acc { v: 0.0 };

    /// Unpacks an initial accumulator value (the `Y` operand of
    /// `Z = X*W + Y`).
    #[inline]
    pub fn from_bits(bits: u16) -> Acc {
        Acc { v: widen(bits) }
    }

    /// Encodes the accumulated value back to binary16 bits. For any
    /// non-NaN input this inverts [`Acc::from_bits`] exactly (the value
    /// is always binary16-representable, so the conversion never rounds);
    /// NaNs encode to the canonical quiet NaN, matching every scalar
    /// operation.
    #[inline]
    pub fn to_bits(self) -> u16 {
        let out = narrow(self.v);
        debug_assert_eq!(
            out,
            from_f64(self.v, Round::NearestEven),
            "narrow diverged from from_f64 on {:#018x}",
            self.v.to_bits()
        );
        out
    }
}

/// Rounds one step's `f64` sum `t = a*b + acc` to binary16 under
/// round-to-nearest-even: returns the rounded value (binary16-exact, kept
/// in `f64` form) and whether this pack is valid for `t`. The value is
/// meaningless when the flag is `false`.
///
/// * **Normal pack** — `t`'s biased `f64` exponent lies in the binary16
///   normal window `[1009, 1038]` (unbiased `[-14, 15]`). The 52-bit
///   fraction is rounded to binary16's 10 fraction bits in place (kept lsb
///   at bit 42, round bit at 41, sticky below) by add-and-truncate:
///   adding `lsb + (half - 1)` carries into bit 42 exactly when the
///   discarded fraction exceeds half an ulp, or equals it with an odd kept
///   lsb. A significand carry ripples straight into the exponent field —
///   exactly the IEEE renormalisation — so only the overflow re-check
///   (exponent at most 1038 after the carry) remains.
/// * **Zero / subnormal pack**, only when `SUBNORMAL` — `|t| < 2^-14`,
///   where `t` is the exact sum (module docs): `(|t| + 2^28) - 2^28` is
///   the single round onto the `2^-24` grid, and `t`'s sign is ORed back
///   in for the IEEE signed zero.
///
/// Overflow before or after the rounding carry, and every infinity or NaN
/// (their sums carry the all-ones exponent), is never valid; nor, without
/// `SUBNORMAL`, is a zero or subnormal result. The checks are bitwise
/// `&`s and the tier choice a select, so the function stays branch-free
/// and vectorises inside the chunk loop.
// modelcheck-allow: RM-FP-001 -- the binary16 RNE pack of an f64 sum; the
// normal pack is innocuous double rounding and the subnormal pack rounds
// an exact sum once (module docs); locked lane-for-lane against
// `arith::fma` by the debug assertions of every caller.
#[inline(always)]
fn round_lane<const SUBNORMAL: bool>(t: f64) -> (f64, bool) {
    const HALF_M1: u64 = (1u64 << 41) - 1;
    const TRUNC: u64 = !((1u64 << 42) - 1);
    const SIGN: u64 = 1u64 << 63;
    // Lowest biased exponent the pack accepts: the binary16 normal floor,
    // or everything below it too when the zero/subnormal pack is on.
    let lo: u64 = if SUBNORMAL { 0 } else { 1009 };
    let tb = t.to_bits();
    let biased = (tb >> 52) & 0x7FF;
    // Wrapping: a NaN's all-ones exponent may carry into the sign bit,
    // which the window check on `biased` rejects anyway.
    let rb = tb.wrapping_add(((tb >> 42) & 1) + HALF_M1);
    let ok = (biased.wrapping_sub(lo) <= 1038 - lo) & ((rb >> 52) & 0x7FF <= 1038);
    let normal = rb & TRUNC;
    let out = if SUBNORMAL {
        const GRID: f64 = (1u64 << 28) as f64;
        let sub = ((t.abs() + GRID) - GRID).to_bits() | (tb & SIGN);
        if biased < 1009 {
            sub
        } else {
            normal
        }
    } else {
        normal
    };
    (f64::from_bits(out), ok)
}

/// An operand matrix staged in structure-of-arrays form: the exact `f64`
/// widening of every element for the vector fast path, plus the original
/// packed encodings for the scalar fallback.
///
/// Built once per matrix with [`Staged::from_bits_iter`]; consumed by
/// [`fma_row_staged`], which reads a contiguous row slice per reduction
/// step. The value lane is a flat `f64` array — stride 8, no tags
/// interleaved — which is what lets the compiler vectorise the row kernel.
// modelcheck-allow: RM-FP-001 -- the f64 lane holds exact (lossless)
// widenings of the binary16 elements; see the module docs for the
// bit-exactness argument and the differential locks.
#[derive(Debug, Clone)]
pub struct Staged {
    vals: Vec<f64>,
    bits: Vec<u16>,
}

impl Staged {
    /// Stages a matrix from its packed binary16 encodings.
    pub fn from_bits_iter(it: impl Iterator<Item = u16>) -> Staged {
        let bits: Vec<u16> = it.collect();
        Staged {
            vals: bits.iter().map(|&b| widen(b)).collect(),
            bits,
        }
    }

    /// Restages element `i` in place from its packed encoding, exactly as
    /// [`Staged::from_bits_iter`] would have staged it. An operand that
    /// changes every few cycles — the X row a cycle-accurate datapath
    /// column latches — is kept staged this way with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, bits: u16) {
        self.vals[i] = widen(bits);
        self.bits[i] = bits;
    }

    /// Number of staged elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// One broadcast reduction step over a whole row of accumulators with
/// staged operands: `acc[j] = x[xi] * w[w0 + j] + acc[j]`, each lane
/// rounded once under `mode` — bit-for-bit `arith::fma` per lane.
///
/// The round-to-nearest-even common case runs a branchless vector kernel
/// over the flat `f64` lanes, one chunk of at most 32 lanes at a time, in
/// two tiers. The first accepts a chunk only if every result is a
/// binary16 normal; a chunk it rejects is retried by the second, which
/// also rounds zero and subnormal results. A chunk the second tier rejects
/// too — an overflowing lane, or any special operand or accumulator,
/// since infinities and NaNs surface as an all-ones `f64` exponent in the
/// sum — is rolled back and redone by the scalar `arith::fma` on the
/// packed encodings; the rest of the row stays on the vector path.
/// Directed rounding modes take the scalar path for the whole row.
#[inline]
pub fn fma_row_staged(x: &Staged, xi: usize, w: &Staged, w0: usize, acc: &mut [Acc], mode: Round) {
    if !matches!(mode, Round::NearestEven) {
        fma_row_slow(x, xi, w, w0, acc, mode);
        return;
    }
    let a = x.vals[xi];
    let n = acc.len();
    let mut j = 0;
    while j < n {
        let c = CHUNK.min(n - j);
        let (wc, ac) = (&w.vals[w0 + j..w0 + j + c], &mut acc[j..j + c]);
        // The normal-only tier stays the first try: folding the subnormal
        // select into it would tax every all-normal chunk.
        if !fma_chunk::<false>(a, wc, ac) && !fma_chunk::<true>(a, wc, ac) {
            fma_row_slow(x, xi, w, w0 + j, ac, mode);
        }
        j += c;
    }
}

/// Scalar redo of a (sub)row: one softfloat `arith::fma` per lane on the
/// packed encodings, handling every special value and rounding mode.
#[cold]
fn fma_row_slow(x: &Staged, xi: usize, w: &Staged, w0: usize, acc: &mut [Acc], mode: Round) {
    let a = x.bits[xi];
    let wb = &w.bits[w0..w0 + acc.len()];
    for (c, &b) in acc.iter_mut().zip(wb.iter()) {
        *c = Acc::from_bits(crate::arith::fma(a, b, c.to_bits(), mode));
    }
}

/// Maximum lanes per vector-kernel chunk: bounds the stack undo buffer
/// and the blast radius of a scalar redo.
const CHUNK: usize = 32;

/// Branchless vector core of [`fma_row_staged`]: attempts one chunk of at
/// most [`CHUNK`] lanes on the `f64` fast path, restoring `acc` untouched
/// and returning `false` if *any* lane's result is one this tier's
/// [`round_lane`] pack cannot produce.
///
/// `SUBNORMAL` selects the tier. Without it only binary16 normal results
/// pass; with it zero and subnormal results pass too. Overflowing results
/// fail both, and so does every infinity or NaN in any operand or
/// accumulator (their sums carry the all-ones exponent), which is why the
/// loop needs no classification tags. The loop is straight-line
/// arithmetic over stride-8 lanes, which the compiler vectorises;
/// original accumulator values are spilled to a stack buffer so a failed
/// chunk unwinds exactly.
// modelcheck-allow: RM-FP-001 -- f64 vector fast path dispatcher; see
// `round_lane` and the module docs for the bit-exactness argument.
#[inline]
fn fma_chunk<const SUBNORMAL: bool>(a: f64, w: &[f64], acc: &mut [Acc]) -> bool {
    // The portable loop is straight-line IEEE f64 arithmetic and integer
    // bit manipulation, so recompiling it with wider vector units changes
    // which instructions execute but not a single result bit. The x86-64
    // baseline (SSE2) lacks the 64-bit vector compares the range check
    // needs, so the loop only vectorises when AVX2 is known available —
    // detected once at runtime, skipped under Miri (which interprets the
    // portable path).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability is verified by the runtime detection
        // above; the function body is the safe portable loop, merely
        // compiled with the wider instruction set enabled.
        return unsafe { fma_chunk_avx2::<SUBNORMAL>(a, w, acc) };
    }
    fma_chunk_portable::<SUBNORMAL>(a, w, acc)
}

/// The portable chunk loop recompiled with AVX2 codegen enabled, so the
/// compiler auto-vectorises it four `f64` lanes wide.
///
/// # Safety
///
/// The CPU executing the call must support AVX2.
// modelcheck-allow: RM-FP-001 -- identical safe code to
// `fma_chunk_portable`, only the enabled instruction set differs.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn fma_chunk_avx2<const SUBNORMAL: bool>(a: f64, w: &[f64], acc: &mut [Acc]) -> bool {
    fma_chunk_portable::<SUBNORMAL>(a, w, acc)
}

// modelcheck-allow: RM-FP-001 -- f64 vector fast path: exact 22-bit
// products, one hardware rounding per lane, then the `round_lane` pack
// (module docs); locked lane-for-lane against `arith::fma` by the debug
// assertion below and the kernel differential tests.
#[inline(always)]
fn fma_chunk_portable<const SUBNORMAL: bool>(a: f64, w: &[f64], acc: &mut [Acc]) -> bool {
    debug_assert!(w.len() == acc.len() && acc.len() <= CHUNK);
    let mut saved = [0.0f64; CHUNK];
    let mut ok = true;
    for ((c, &b), s) in acc.iter_mut().zip(w.iter()).zip(saved.iter_mut()) {
        *s = c.v;
        let (v, lane_ok) = round_lane::<SUBNORMAL>(a * b + c.v);
        ok &= lane_ok;
        #[cfg(debug_assertions)]
        if lane_ok {
            debug_assert_eq!(
                narrow(v),
                crate::arith::fma(narrow(a), narrow(b), narrow(c.v), Round::NearestEven),
                "vector lane drifted from scalar fma: a={a} b={b} c={} subnormal_tier={SUBNORMAL}",
                c.v,
            );
        }
        c.v = v;
    }
    if !ok {
        // Unwind: put the chunk back exactly as it was so the caller can
        // retry it on the next tier or redo it on the scalar path.
        for (c, &s) in acc.iter_mut().zip(saved.iter()) {
            c.v = s;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::fma;
    use crate::{CANONICAL_QNAN, F16};

    /// One `fma_row_staged` step on a one-lane row.
    fn step(a: u16, b: u16, c: u16, mode: Round) -> u16 {
        let x = Staged::from_bits_iter(std::iter::once(a));
        let w = Staged::from_bits_iter(std::iter::once(b));
        let mut acc = [Acc::from_bits(c)];
        fma_row_staged(&x, 0, &w, 0, &mut acc, mode);
        acc[0].to_bits()
    }

    #[test]
    fn acc_round_trips_every_non_nan_pattern() {
        for bits in 0u16..=0xFFFF {
            let acc = Acc::from_bits(bits);
            if F16::from_bits(bits).is_nan() {
                assert_eq!(acc.to_bits(), CANONICAL_QNAN);
            } else {
                assert_eq!(acc.to_bits(), bits, "bits={bits:#06x}");
            }
        }
    }

    #[test]
    fn set_restages_every_pattern_like_a_fresh_stage() {
        // Restaging one element in a larger row must leave the same value
        // lane and the same packed encoding — NaN payload included, which
        // the scalar fallback reads — as staging that pattern afresh, and
        // must not disturb the neighbours.
        let mut row = Staged::from_bits_iter([0x3C00u16, 0x7E01, 0x8001].into_iter());
        for bits in 0u16..=0xFFFF {
            row.set(1, bits);
            let fresh = Staged::from_bits_iter(std::iter::once(bits));
            assert_eq!(row.bits[1], fresh.bits[0], "bits={bits:#06x}");
            assert_eq!(
                row.vals[1].to_bits(),
                fresh.vals[0].to_bits(),
                "bits={bits:#06x}"
            );
            assert_eq!((row.bits[0], row.bits[2]), (0x3C00, 0x8001));
        }
    }

    #[test]
    fn matches_scalar_fma_on_directed_specials() {
        let specials = [
            0x0000u16, 0x8000, 0x3C00, 0xBC00, 0x0001, 0x8001, 0x03FF, 0x0400, 0x7BFF, 0xFBFF,
            0x7C00, 0xFC00, 0x7E00, 0x7C01, 0x3C01, 0x4000,
        ];
        for &a in &specials {
            for &b in &specials {
                for &c in &specials {
                    for mode in Round::ALL {
                        assert_eq!(
                            step(a, b, c, mode),
                            fma(a, b, c, mode),
                            "a={a:#06x} b={b:#06x} c={c:#06x} mode={mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chained_accumulation_matches_fold_of_fma() {
        // A long alternating-sign chain with cancellation, kept unpacked
        // throughout, must match feeding every intermediate through bits.
        let xs: Vec<u16> = (0..64u16).map(|i| 0x3C00 + (i * 37) % 512).collect();
        let ws: Vec<u16> = (0..64u16)
            .map(|i| (0xBC00 + (i * 91) % 512) ^ ((i & 1) << 15))
            .collect();
        let x = Staged::from_bits_iter(xs.iter().copied());
        let w = Staged::from_bits_iter(ws.iter().copied());
        for mode in Round::ALL {
            let mut acc = [Acc::ZERO];
            for l in 0..xs.len() {
                fma_row_staged(&x, l, &w, l, &mut acc, mode);
            }
            let fast = acc[0].to_bits();
            let mut slow = 0u16;
            for (&a, &b) in xs.iter().zip(ws.iter()) {
                slow = fma(a, b, slow, mode);
            }
            assert_eq!(fast, slow, "mode={mode:?}");
        }
    }

    #[test]
    fn staged_rows_match_scalar_fma_lane_for_lane() {
        // Mixed rows: normals, zeros, subnormals, infinities, NaNs and
        // near-boundary exponents, walked as repeated broadcast steps with
        // every accumulator chain checked against fold-of-`fma`.
        let pool = [
            0x3C00u16, 0xBC00, 0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x7BFF, 0xFBFF, 0x7C00,
            0xFC00, 0x7E00, 0x3C01, 0x4000, 0x1400, 0x2E66,
        ];
        let n = 24;
        let k = 16;
        let xs: Vec<u16> = (0..n).map(|i| pool[(i * 7 + 3) % pool.len()]).collect();
        let ws: Vec<u16> = (0..n * k).map(|i| pool[(i * 5 + 1) % pool.len()]).collect();
        let x = Staged::from_bits_iter(xs.iter().copied());
        let w = Staged::from_bits_iter(ws.iter().copied());
        assert_eq!((x.len(), w.len()), (n, n * k));
        assert!(!x.is_empty());
        for mode in Round::ALL {
            let mut acc = vec![Acc::ZERO; k];
            let mut slow = vec![0u16; k];
            for l in 0..n {
                fma_row_staged(&x, l, &w, l * k, &mut acc, mode);
                for (j, s) in slow.iter_mut().enumerate() {
                    *s = fma(xs[l], ws[l * k + j], *s, mode);
                }
            }
            let got: Vec<u16> = acc.iter().map(|a| a.to_bits()).collect();
            assert_eq!(got, slow, "mode={mode:?}");
        }
    }

    #[test]
    fn staged_rows_handle_range_edges() {
        // Rows engineered to straddle the fast path's exponent window:
        // overflow to infinity, cancellation to zero, gradual underflow.
        let cases: [(&[u16], &[u16], u16); 3] = [
            // 60000 * 2 overflows binary16 -> +inf.
            (&[0x7BFF], &[0x4000], 0x0000),
            // 1.0 * 1.0 + (-1.0) cancels to exactly +0.
            (&[0x3C00], &[0x3C00], 0xBC00),
            // min_subnormal * 0.5 underflows onto the subnormal grid.
            (&[0x0001], &[0x3800], 0x0000),
        ];
        for (xs, ws, y0) in cases {
            let x = Staged::from_bits_iter(xs.iter().copied());
            let w = Staged::from_bits_iter(ws.iter().copied());
            let mut acc = [Acc::from_bits(y0)];
            fma_row_staged(&x, 0, &w, 0, &mut acc, Round::NearestEven);
            assert_eq!(
                acc[0].to_bits(),
                fma(xs[0], ws[0], y0, Round::NearestEven),
                "xs={xs:#06x?} ws={ws:#06x?} y0={y0:#06x}"
            );
        }
    }

    /// One `fma_row_staged` step of `x` against per-lane `(w, y)` pairs.
    fn staged_step(x: u16, lanes: &[(u16, u16)]) -> Vec<u16> {
        let xs = Staged::from_bits_iter(std::iter::once(x));
        let ws = Staged::from_bits_iter(lanes.iter().map(|&(w, _)| w));
        let mut acc: Vec<Acc> = lanes.iter().map(|&(_, y)| Acc::from_bits(y)).collect();
        fma_row_staged(&xs, 0, &ws, 0, &mut acc, Round::NearestEven);
        acc.iter().map(|a| a.to_bits()).collect()
    }

    #[test]
    fn staged_zero_and_subnormal_results_stay_on_the_vector_path() {
        // (x, w, y, expected result)
        let cases: [(u16, u16, u16, u16); 9] = [
            // 1 * 1 + (-1): exact cancellation is +0.
            (0x3C00, 0x3C00, 0xBC00, 0x0000),
            // -0 * 1 + (-0) = -0.
            (0x8000, 0x3C00, 0x8000, 0x8000),
            // 2^-24 * -0.25 = -2^-26 rounds to -0.
            (0x0001, 0xB400, 0x0000, 0x8000),
            // -0.5 ulp: a tie between -0 and -2^-24 rounds to even, -0.
            (0x0001, 0xB800, 0x0000, 0x8000),
            // 1.5 ulp and 2.5 ulp ties both round to even, 2 ulp.
            (0x0003, 0x3800, 0x0000, 0x0002),
            (0x0005, 0x3800, 0x0000, 0x0002),
            // Largest subnormal * (1 + 2^-10) rounds up to the min normal.
            (0x03FF, 0x3C01, 0x0000, 0x0400),
            // Subnormal Y of either sign.
            (0x3C00, 0x0001, 0x0200, 0x0201),
            (0x3C00, 0x8001, 0x8200, 0x8201),
        ];
        for (x, w, y, want) in cases {
            let ctx = format!("x={x:#06x} w={w:#06x} y={y:#06x}");
            assert_eq!(fma(x, w, y, Round::NearestEven), want, "{ctx}");
            assert_eq!(staged_step(x, &[(w, y)]), [want], "{ctx}");
            // The normal-only tier rejects the lane and leaves it as it
            // was; the second tier accepts it.
            let mut acc = [Acc::from_bits(y)];
            assert!(
                !fma_chunk::<false>(widen(x), &[widen(w)], &mut acc),
                "{ctx}"
            );
            assert_eq!(acc[0].to_bits(), y, "{ctx}");
            assert!(fma_chunk::<true>(widen(x), &[widen(w)], &mut acc), "{ctx}");
            assert_eq!(acc[0].to_bits(), want, "{ctx}");
        }
    }

    #[test]
    fn staged_overflow_lane_rolls_back_its_chunk_exactly() {
        // 2 * w + y with subnormal w and y in every lane except one that
        // overflows, then a second chunk of subnormal lanes only. Non-zero
        // Y values make a missed rollback visible: the redo would apply
        // the step twice.
        let x = 0x4000; // 2.0
        let mut lanes: Vec<(u16, u16)> = (0..CHUNK as u16 + 8)
            .map(|j| (0x0001 + j, 0x8000 | (j + 1)))
            .collect();
        lanes[17] = (0x7BFF, 0x3C00); // 2 * 65504 + 1 -> +inf
        let got = staged_step(x, &lanes);
        let want: Vec<u16> = lanes
            .iter()
            .map(|&(w, y)| fma(x, w, y, Round::NearestEven))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got[17], 0x7C00);
        assert!(got
            .iter()
            .enumerate()
            .all(|(j, &z)| j == 17 || z & 0x7C00 == 0));

        // Both tiers reject the first chunk and restore every lane.
        let ws: Vec<f64> = lanes[..CHUNK].iter().map(|&(w, _)| widen(w)).collect();
        let ys: Vec<Acc> = lanes[..CHUNK]
            .iter()
            .map(|&(_, y)| Acc::from_bits(y))
            .collect();
        let mut acc = ys.clone();
        assert!(!fma_chunk::<false>(widen(x), &ws, &mut acc));
        assert!(!fma_chunk::<true>(widen(x), &ws, &mut acc));
        let restored: Vec<u16> = acc.iter().map(|a| a.to_bits()).collect();
        let original: Vec<u16> = ys.iter().map(|a| a.to_bits()).collect();
        assert_eq!(restored, original);
    }
}
