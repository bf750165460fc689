//! General matrix multiply with selectable accumulation precision.
//!
//! `C[M×N] = A[M×K] · B[K×N]`, all row-major. This single kernel backs both
//! the host reference devices (f32) and the simulated VPU (f16), so the
//! accumulation behaviour is explicit:
//!
//! * [`AccumMode::Widened`] — products and the running sum are kept in f32
//!   and rounded to the element type once at the end. This is what MKL and
//!   cuDNN do for f32 (a no-op widening) and what the Myriad 2 VAU does
//!   when configured for mixed FP16-in / FP32-accumulate arithmetic.
//! * [`AccumMode::Native`] — every multiply and every add rounds to the
//!   element type, modelling a pure-FP16 MAC chain. This is the
//!   worst-case numerics the paper's FP16 experiments probe, and the
//!   `ablation-accum` experiment compares the two.
//!
//! The row loop is compiled once per [`Width`] and [`gemm`] runs the widest
//! version the CPU supports. Every version performs the same f32 adds and
//! multiplies in the same order for each output element, so all of them
//! return the same bits (`vpu_num::simd`). A `Widened` row runs in strips
//! of four vector registers of columns, each strip's accumulators held
//! in registers across all of `k`. At [`Width::Avx512Fp16`] a
//! binary16 `Native` GEMM runs on the host's binary16 units instead
//! (`fp16::rows`): one `vmulph` and one `vaddph` per MAC, in the same
//! order, each rounding once as the f32 emulation does.

use crate::element::Element;
use serde::{Deserialize, Serialize};
use vpu_num::f16;
use vpu_num::simd::Width;

/// Accumulation precision for dot-product style kernels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccumMode {
    /// Accumulate in f32, round once to the storage type at the end.
    #[default]
    Widened,
    /// Accumulate in the storage type with per-operation rounding.
    Native,
}

/// Row-at-a-time GEMM at the baseline width: each row of C through its
/// own call of the row loop (used by tests to check [`gemm`]'s width
/// dispatch and the buffers it reuses across rows).
pub fn gemm_seq<E: Element>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    c: &mut [E],
    mode: AccumMode,
) {
    check_dims(m, k, n, a.len(), b.len(), c.len());
    for (i, row) in c.chunks_exact_mut(n.max(1)).enumerate() {
        let a = &a[i * k..(i + 1) * k];
        rows::<E, 16>(&Operands { k, n, a, b, mode, bias: None, relu: false }, row);
    }
}

/// `C = A · B`, at the widest vector width this CPU runs.
pub fn gemm<E: Element>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    c: &mut [E],
    mode: AccumMode,
) {
    check_dims(m, k, n, a.len(), b.len(), c.len());
    gemm_at(Width::detect(), &Operands { k, n, a, b, mode, bias: None, relu: false }, c);
}

/// [`gemm`], then row `i` of C plus `bias[i]`, then ReLU if `relu`: the
/// epilogue of a convolution, applied to the f32 accumulator. Each step
/// rounds once to the element type, as the element's own `+` and
/// [`Element::maximum`] do, so the bits equal `c[i][j] += bias[i]` and
/// `c[i][j] = c[i][j].maximum(E::ZERO)` after [`gemm`]: a NaN becomes +0
/// and -0 is kept.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias<E: Element>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    c: &mut [E],
    mode: AccumMode,
    bias: &[E],
    relu: bool,
) {
    check_dims(m, k, n, a.len(), b.len(), c.len());
    assert_eq!(bias.len(), m, "bias must have {m} entries");
    gemm_at(Width::detect(), &Operands { k, n, a, b, mode, bias: Some(bias), relu }, c);
}

/// One GEMM's inputs, as the per-width row loops read them.
struct Operands<'a, E> {
    k: usize,
    n: usize,
    a: &'a [E],
    b: &'a [E],
    mode: AccumMode,
    bias: Option<&'a [E]>,
    relu: bool,
}

impl<'a, E: Element> Operands<'a, E> {
    /// These operands as binary16 values, when they are binary16 and
    /// accumulate natively.
    fn native_f16(&self) -> Option<Operands<'a, f16>> {
        if self.mode != AccumMode::Native {
            return None;
        }
        Some(Operands {
            k: self.k,
            n: self.n,
            a: E::as_f16(self.a)?,
            b: E::as_f16(self.b)?,
            mode: self.mode,
            bias: match self.bias {
                Some(bias) => Some(E::as_f16(bias)?),
                None => None,
            },
            relu: self.relu,
        })
    }
}

/// The row loop compiled for `width`, or for the baseline when this CPU
/// lacks `width`.
fn gemm_at<E: Element>(width: Width, op: &Operands<'_, E>, c: &mut [E]) {
    match width {
        #[cfg(target_arch = "x86_64")]
        Width::Avx512Fp16 if width.is_supported() => {
            if let (Some(op), Some(c)) = (op.native_f16(), E::as_f16_mut(c)) {
                // SAFETY: `is_supported` just confirmed AVX-512 F/BW/VL and
                // AVX512-FP16 on this CPU.
                unsafe { fp16::rows(&op, c) };
                return;
            }
            // SAFETY: `is_supported` confirmed AVX-512 F/BW/VL with FP16.
            unsafe { rows_avx512(op, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Width::Avx512 if width.is_supported() => {
            // SAFETY: `is_supported` just confirmed AVX-512 F/BW/VL on this CPU.
            unsafe { rows_avx512(op, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Width::Avx2 if width.is_supported() => {
            // SAFETY: `is_supported` just confirmed AVX2 on this CPU.
            unsafe { rows_avx2(op, c) }
        }
        _ => rows::<E, 16>(op, c),
    }
}

/// [`rows`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_avx2<E: Element>(op: &Operands<'_, E>, c: &mut [E]) {
    rows::<E, 32>(op, c)
}

/// [`rows`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn rows_avx512<E: Element>(op: &Operands<'_, E>, c: &mut [E]) {
    rows::<E, 64>(op, c)
}

/// The binary16 `Native` row loop on AVX512-FP16. A, B, the accumulators
/// and the bias/ReLU epilogue stay binary16. Each MAC is a `vmulph` then
/// a `vaddph` (never the fused `vfmadd*ph`, which rounds once and would
/// change bits), over `k` in order from +0, so every output has the bits
/// [`rows`] computes in f32 and rounds with [`Element::round_f32`].
///
/// The loads and stores are masked 16-bit moves: a tail needs a mask,
/// and the binary16 loads (`_mm512_loadu_ph`) take the unstable `f16`
/// type.
#[cfg(target_arch = "x86_64")]
mod fp16 {
    use super::Operands;
    use std::arch::x86_64::*;
    use vpu_num::f16;

    /// Binary16 lanes per register.
    const LANES: usize = 32;
    /// Registers of a C row one pass over A's row fills: independent
    /// add chains, so the adds do not wait on each other.
    const REGS: usize = 4;

    /// Every row of C. Panics unless A, B and C hold `m × k`, `k × n`
    /// and `m × n` values and the bias (if any) `m`, for `m` rows of C.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512fp16")]
    pub(super) fn rows(op: &Operands<'_, f16>, c: &mut [f16]) {
        let (k, n) = (op.k, op.n);
        if n == 0 {
            return;
        }
        let m = c.len() / n;
        assert!(c.len() == m * n && op.a.len() == m * k && op.b.len() == k * n);
        assert!(op.bias.is_none_or(|bias| bias.len() == m));
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            let arow = &op.a[i * k..(i + 1) * k];
            let bias = op.bias.map(|bias| splat(bias[i]));
            let mut j = 0;
            while j < n {
                let left = n - j;
                // SAFETY: `j < n`, and each call reads and writes columns
                // `j..j + min(left, V * LANES)` only, as `strip` requires.
                unsafe {
                    match left.div_ceil(LANES) {
                        1 => strip::<1>(op, arow, j, left, bias, row),
                        2 => strip::<2>(op, arow, j, left, bias, row),
                        3 => strip::<3>(op, arow, j, left, bias, row),
                        _ => strip::<REGS>(op, arow, j, left, bias, row),
                    }
                }
                j += REGS * LANES;
            }
        }
    }

    /// `x` in every lane.
    #[target_feature(enable = "avx512f,avx512fp16")]
    #[inline]
    fn splat(x: f16) -> __m512h {
        _mm512_castsi512_ph(_mm512_set1_epi16(x.to_bits() as i16))
    }

    /// Columns `j..j + min(left, V * LANES)` of one row of C, in `V`
    /// registers; lanes past `left` are masked off.
    ///
    /// # Safety
    ///
    /// The CPU runs AVX-512 BW and AVX512-FP16; `j < n`, `b` holds
    /// `arow.len() × n` values, and `row` holds `n`, so every masked-in
    /// lane and every pointer formed is in bounds.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512fp16")]
    #[inline]
    unsafe fn strip<const V: usize>(
        op: &Operands<'_, f16>,
        arow: &[f16],
        j: usize,
        left: usize,
        bias: Option<__m512h>,
        row: &mut [f16],
    ) {
        // Lanes of register `v` that hold columns of C.
        let mask = |v: usize| -> __mmask32 {
            let lanes = left.saturating_sub(v * LANES).min(LANES);
            ((1u64 << lanes) - 1) as __mmask32
        };
        let n = op.n;
        let mut acc = [_mm512_setzero_ph(); V];
        for (kk, &aik) in arow.iter().enumerate() {
            let a = splat(aik);
            // SAFETY: `kk * n + j` is below `b.len()` (caller's contract).
            let brow = unsafe { op.b.as_ptr().add(kk * n + j) } as *const i16;
            for (v, s) in acc.iter_mut().enumerate() {
                // SAFETY: lanes masked in hold columns below `n` of B's row
                // `kk`; `v * LANES < left`, so the pointer is in bounds.
                let b = unsafe { _mm512_maskz_loadu_epi16(mask(v), brow.add(v * LANES)) };
                *s = _mm512_add_ph(*s, _mm512_mul_ph(a, _mm512_castsi512_ph(b)));
            }
        }
        let out = row[j..].as_mut_ptr() as *mut i16;
        for (v, mut s) in acc.into_iter().enumerate() {
            if let Some(bias) = bias {
                s = _mm512_add_ph(s, bias);
                if op.relu {
                    // `max(v, +0)` with a NaN losing and -0 kept, as in `rows`.
                    let keep = _mm512_cmp_ph_mask::<_CMP_GE_OQ>(s, _mm512_setzero_ph());
                    s = _mm512_castsi512_ph(_mm512_maskz_mov_epi16(keep, _mm512_castph_si512(s)));
                }
            }
            // SAFETY: as for the loads, within `row[j..n]`.
            unsafe {
                _mm512_mask_storeu_epi16(out.add(v * LANES), mask(v), _mm512_castph_si512(s))
            };
        }
    }
}

/// Every row of C, over B widened to f32 once. `Widened` runs each row
/// in strips of `STRIP` columns, four vector registers at the width it
/// is compiled for, and keeps a strip's f32 accumulators across all of
/// `k`; `Native` runs each row through one f32 accumulator row.
#[inline(always)]
fn rows<E: Element, const STRIP: usize>(op: &Operands<'_, E>, c: &mut [E]) {
    let (k, n) = (op.k, op.n);
    if n == 0 {
        return;
    }
    let bias = |i: usize| op.bias.map(|bias| bias[i].to_f32());
    // B widened to f32 once per call; an f32 B is read in place.
    let widened: Vec<f32>;
    let bw = match E::as_f32(op.b) {
        Some(b) => b,
        None => {
            widened = op.b.iter().map(|x| x.to_f32()).collect();
            &widened
        }
    };
    if op.mode == AccumMode::Widened {
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            let arow = &op.a[i * k..(i + 1) * k];
            for (s, dst) in row.chunks_mut(STRIP).enumerate() {
                // A full strip gets an array of its own: indexed only by
                // constants once inlined, it stays in registers.
                if let Ok(dst) = <&mut [E; STRIP]>::try_from(&mut *dst) {
                    let mut acc = [0.0f32; STRIP];
                    widened_strip(arow, bw, n, s * STRIP, &mut acc);
                    store(dst, &acc, bias(i), op.relu);
                } else {
                    let mut acc = [0.0f32; STRIP];
                    let acc = &mut acc[..dst.len()];
                    widened_strip(arow, bw, n, s * STRIP, acc);
                    store(dst, acc, bias(i), op.relu);
                }
            }
        }
        return;
    }
    let mut acc = vec![0.0f32; n];
    for (i, row) in c.chunks_exact_mut(n).enumerate() {
        let arow = &op.a[i * k..(i + 1) * k];
        acc.fill(0.0);
        // The accumulator holds element-type values in f32: one rounding
        // for the product, one for the add, as a non-fused FP16 MAC does.
        // An `f16` operator also computes in f32 and rounds once, so this
        // matches `s += a * b` bit for bit.
        for (kk, &aik) in arow.iter().enumerate() {
            let aik = aik.to_f32();
            let brow = &bw[kk * n..kk * n + n];
            for (s, &bj) in acc.iter_mut().zip(brow) {
                *s = E::round_f32(*s + E::round_f32(aik * bj));
            }
        }
        store(row, &acc, bias(i), op.relu);
    }
}

/// Columns `j..j + acc.len()` of one `Widened` row of C: over `k` in
/// order from +0, `acc += a[kk] * b[kk][..]` as a multiply then an add,
/// with B already widened, skipping the zero taps of A. Inlined, so a
/// full strip's length is a constant and its accumulators stay in
/// registers.
#[inline(always)]
fn widened_strip<E: Element>(arow: &[E], b: &[f32], n: usize, j: usize, acc: &mut [f32]) {
    for (kk, &aik) in arow.iter().enumerate() {
        let aik = aik.to_f32();
        if aik == 0.0 {
            continue;
        }
        let brow = &b[kk * n + j..][..acc.len()];
        for (s, &bj) in acc.iter_mut().zip(brow) {
            *s += aik * bj;
        }
    }
}

/// Accumulators `acc` rounded into `dst`, with the epilogue: plus `bias`
/// (rounding the sum and the bias add once each, as the element's `+`
/// does), then ReLU if `relu`.
#[inline(always)]
fn store<E: Element>(dst: &mut [E], acc: &[f32], bias: Option<f32>, relu: bool) {
    match bias {
        None => {
            for (dst, &s) in dst.iter_mut().zip(acc) {
                *dst = E::from_f32(s);
            }
        }
        Some(b) => {
            for (dst, &s) in dst.iter_mut().zip(acc) {
                let v = E::round_f32(E::round_f32(s) + b);
                // ReLU as `max(v, +0)` with a NaN losing and a tie
                // keeping `v`: what `f16::max` and x86-64's `f32::max`
                // compute.
                let v = if !relu || v >= 0.0 { v } else { 0.0 };
                *dst = E::from_f32(v);
            }
        }
    }
}

fn check_dims(m: usize, k: usize, n: usize, la: usize, lb: usize, lc: usize) {
    assert_eq!(la, m * k, "A must be {m}x{k}");
    assert_eq!(lb, k * n, "B must be {k}x{n}");
    assert_eq!(lc, m * n, "C must be {m}x{n}");
}

/// Dot product with the same accumulation-mode semantics as [`gemm`].
pub fn dot<E: Element>(a: &[E], b: &[E], mode: AccumMode) -> E {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match mode {
        AccumMode::Widened => {
            let mut s = 0.0f32;
            for (&x, &y) in a.iter().zip(b) {
                s += x.to_f32() * y.to_f32();
            }
            E::from_f32(s)
        }
        AccumMode::Native => {
            let mut s = 0.0f32;
            for (&x, &y) in a.iter().zip(b) {
                s = E::round_f32(s + E::round_f32(x.to_f32() * y.to_f32()));
            }
            E::from_f32(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_num::f16;

    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn rand_mat(len: usize, seed: u64) -> Vec<f32> {
        use rand::Rng;
        let mut rng = vpu_num::rng::seeded(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn identity_times_matrix() {
        let n = 4;
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b = rand_mat(n * n, 1);
        let mut c = vec![0.0f32; n * n];
        gemm(n, n, n, &a, &b, &mut c, AccumMode::Widened);
        assert_eq!(c, b);
    }

    /// The dispatched kernel equals the row-at-a-time baseline.
    #[test]
    fn parallel_equals_sequential() {
        let (m, k, n) = (33, 17, 21);
        let a = rand_mat(m * k, 4);
        let b = rand_mat(k * n, 5);
        let mut cp = vec![0.0f32; m * n];
        let mut cs = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut cp, AccumMode::Widened);
        gemm_seq(m, k, n, &a, &b, &mut cs, AccumMode::Widened);
        assert_eq!(cp, cs);
    }

    #[test]
    fn matches_naive_f64_reference() {
        let (m, k, n) = (7, 13, 9);
        let a = rand_mat(m * k, 2);
        let b = rand_mat(k * n, 3);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c, AccumMode::Widened);
        let a64: Vec<f64> = a.iter().map(|&x| x as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&x| x as f64).collect();
        let expect = naive(m, k, n, &a64, &b64);
        for (x, y) in c.iter().zip(expect) {
            assert!((*x as f64 - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn fp16_native_vs_widened_differ_in_last_bits() {
        let (m, k, n) = (4, 256, 4);
        let a: Vec<f16> = rand_mat(m * k, 6).iter().map(|&x| f16::from_f32(x)).collect();
        let b: Vec<f16> = rand_mat(k * n, 7).iter().map(|&x| f16::from_f32(x)).collect();
        let mut cw = vec![f16::ZERO; m * n];
        let mut cn = vec![f16::ZERO; m * n];
        gemm(m, k, n, &a, &b, &mut cw, AccumMode::Widened);
        gemm(m, k, n, &a, &b, &mut cn, AccumMode::Native);
        // Results must agree coarsely but differ in low bits somewhere —
        // proving per-op rounding actually happens.
        let mut any_diff = false;
        for (w, nn) in cw.iter().zip(&cn) {
            assert!((w.to_f32() - nn.to_f32()).abs() < 0.2, "{w:?} vs {nn:?}");
            if w.to_bits() != nn.to_bits() {
                any_diff = true;
            }
        }
        assert!(any_diff, "expected rounding differences between accumulation modes");
    }

    #[test]
    fn fp16_widened_matches_f32_then_round() {
        let (m, k, n) = (3, 32, 5);
        let af = rand_mat(m * k, 8);
        let bf = rand_mat(k * n, 9);
        let ah: Vec<f16> = af.iter().map(|&x| f16::from_f32(x)).collect();
        let bh: Vec<f16> = bf.iter().map(|&x| f16::from_f32(x)).collect();
        // f32 GEMM on the widened fp16 values, rounded once.
        let aw: Vec<f32> = ah.iter().map(|h| h.to_f32()).collect();
        let bw: Vec<f32> = bh.iter().map(|h| h.to_f32()).collect();
        let mut cf = vec![0.0f32; m * n];
        gemm(m, k, n, &aw, &bw, &mut cf, AccumMode::Widened);
        let mut ch = vec![f16::ZERO; m * n];
        gemm(m, k, n, &ah, &bh, &mut ch, AccumMode::Widened);
        for (h, f) in ch.iter().zip(cf) {
            assert_eq!(h.to_bits(), f16::from_f32(f).to_bits());
        }
    }

    #[test]
    fn dot_modes() {
        let a: Vec<f16> = (0..100).map(|i| f16::from_f32(0.01 * i as f32)).collect();
        let b: Vec<f16> = (0..100).map(|_| f16::from_f32(0.1)).collect();
        let w = dot(&a, &b, AccumMode::Widened).to_f32();
        let n = dot(&a, &b, AccumMode::Native).to_f32();
        let exact: f32 = (0..100).map(|i| 0.01 * i as f32 * 0.1).sum();
        assert!((w - exact).abs() < 0.05);
        assert!((n - exact).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn dimension_check() {
        let mut c = vec![0.0f32; 4];
        gemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c, AccumMode::Widened);
    }

    #[test]
    fn empty_k_gives_zero() {
        let mut c = vec![1.0f32; 4];
        gemm(2, 0, 2, &[], &[], &mut c, AccumMode::Widened);
        assert_eq!(c, vec![0.0; 4]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::CaseResult;
    use vpu_num::f16;

    /// The native kernel before its accumulator moved to f32: one f16
    /// multiply and one f16 add per MAC, on the `f16` operators.
    fn native_per_op(m: usize, k: usize, n: usize, a: &[f16], b: &[f16]) -> Vec<f16> {
        let mut c = vec![f16::ZERO; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
        c
    }

    /// `len` inputs drawn from ordinary values, values whose products and
    /// sums pass 65504 partway through a row, subnormals of both signs,
    /// the specials, and arbitrary bit patterns (NaN payloads included).
    fn f16_inputs(len: usize, rng: &mut impl rand::Rng) -> Vec<f16> {
        const SPECIALS: [f16; 7] = [
            f16::ZERO,
            f16::NEG_ZERO,
            f16::INFINITY,
            f16::NEG_INFINITY,
            f16::NAN,
            f16::MAX,
            f16::MIN,
        ];
        (0..len)
            .map(|_| match rng.gen_range(0..9) {
                0..=3 => f16::from_f32(rng.gen_range(-2.0..2.0)),
                4 | 5 => f16::from_f32(rng.gen_range(150.0..300.0)),
                6 => f16::from_bits(rng.gen_range(0..0x0400u16) | rng.gen_range(0..2u16) << 15),
                7 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
                _ => f16::from_bits(rng.gen()),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The f32-domain native kernel equals the per-op f16 MAC loop
        /// bit for bit, and so does the native dot product. The one
        /// freedom is which NaN comes back when both operands of an add
        /// are NaN: Rust leaves that to code generation, and the loops
        /// compile to different operand orders.
        #[test]
        fn native_matches_the_per_op_f16_loop(
            m in 1usize..6, k in 0usize..40, n in 1usize..20, seed in 0u64..1_000_000
        ) {
            let mut rng = vpu_num::rng::seeded(seed);
            let a = f16_inputs(m * k, &mut rng);
            let b = f16_inputs(k * n, &mut rng);
            let want = native_per_op(m, k, n, &a, &b);
            let mut got = vec![f16::ZERO; m * n];
            gemm(m, k, n, &a, &b, &mut got, AccumMode::Native);
            let same = |x: f16, y: f16| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan();
            for (j, (&x, &y)) in got.iter().zip(&want).enumerate() {
                prop_assert!(same(x, y), "c[{j}]: {:#06x} != {:#06x}", x.to_bits(), y.to_bits());
            }
            let col: Vec<f16> = (0..k).map(|kk| b[kk * n]).collect();
            let d = dot(&a[..k], &col, AccumMode::Native);
            prop_assert!(same(d, want[0]), "dot: {:#06x} != {:#06x}", d.to_bits(), want[0].to_bits());
        }

        #[test]
        fn linearity(m in 1usize..6, k in 1usize..8, n in 1usize..6, seed in 0u64..1000) {
            use rand::Rng;
            let mut rng = vpu_num::rng::seeded(seed);
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a2: Vec<f32> = a.iter().map(|x| 2.0 * x).collect();
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c1, AccumMode::Widened);
            gemm(m, k, n, &a2, &b, &mut c2, AccumMode::Widened);
            for (x, y) in c1.iter().zip(&c2) {
                prop_assert!((2.0 * x - y).abs() < 1e-4);
            }
        }

        /// The dispatched kernel and the row-at-a-time baseline
        /// ([`gemm_seq`]) agree bit-for-bit for any size.
        #[test]
        fn par_seq_agree(m in 1usize..12, k in 0usize..16, n in 1usize..12, seed in 0u64..1000) {
            use rand::Rng;
            let mut rng = vpu_num::rng::seeded(seed);
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut cp = vec![0.0f32; m * n];
            let mut cs = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut cp, AccumMode::Widened);
            gemm_seq(m, k, n, &a, &b, &mut cs, AccumMode::Widened);
            prop_assert_eq!(cp, cs);
        }

        /// Every width this CPU runs returns the baseline's bits: f32 and
        /// f16, both accumulation modes, with and without the bias and
        /// ReLU epilogue. Row 0 of A is all zeros (the widened loop skips
        /// zero taps) and `n` crosses every vector tail up to 4 × 32 lanes.
        #[test]
        fn every_width_matches_the_baseline(
            m in 1usize..12, k in 0usize..40, n in 1usize..140, seed in 0u64..1_000_000
        ) {
            use rand::Rng;
            let mut rng = vpu_num::rng::seeded(seed);
            let mut a = f16_inputs(m * k, &mut rng);
            for x in &mut a[..k] {
                *x = if rng.gen() { f16::ZERO } else { f16::NEG_ZERO };
            }
            let b = f16_inputs(k * n, &mut rng);
            let bias = f16_inputs(m, &mut rng);
            widths_agree(m, k, n, &a, &b, &bias)?;
            let a: Vec<f32> = a.iter().map(|&x| f32_input(x, &mut rng)).collect();
            let b: Vec<f32> = b.iter().map(|&x| f32_input(x, &mut rng)).collect();
            let bias: Vec<f32> = bias.iter().map(|&x| f32_input(x, &mut rng)).collect();
            widths_agree(m, k, n, &a, &b, &bias)?;
        }

        /// The `Widened` column strips equal the accumulator-row loop,
        /// f32 and f16, at every width: `n` spans one to three strips
        /// of the widest width plus tails, and a quarter of A is ±0, so
        /// the skipped taps meet the Inf and NaN in B.
        #[test]
        fn widened_strips_match_the_accumulator_row_loop(
            m in 1usize..5, k in 0usize..24, n in 1usize..200, seed in 0u64..1_000_000
        ) {
            use rand::Rng;
            let mut rng = vpu_num::rng::seeded(seed);
            let mut a = f16_inputs(m * k, &mut rng);
            for x in &mut a {
                if rng.gen_range(0..4) == 0 {
                    *x = if rng.gen() { f16::ZERO } else { f16::NEG_ZERO };
                }
            }
            let b = f16_inputs(k * n, &mut rng);
            let bias = f16_inputs(m, &mut rng);
            strips_agree(m, k, n, &a, &b, &bias)?;
            let a: Vec<f32> = a.iter().map(|&x| f32_input(x, &mut rng)).collect();
            let b: Vec<f32> = b.iter().map(|&x| f32_input(x, &mut rng)).collect();
            let bias: Vec<f32> = bias.iter().map(|&x| f32_input(x, &mut rng)).collect();
            strips_agree(m, k, n, &a, &b, &bias)?;
        }

        /// The f32-domain epilogue of [`gemm_bias`] equals [`gemm`]
        /// followed by the element's own `+=` and `maximum`, bit for bit,
        /// on the adversarial inputs (NaN, ±Inf, ±0, subnormals, sums
        /// past 65504) in both element types and modes.
        #[test]
        fn bias_epilogue_matches_the_element_operators(
            m in 1usize..6, k in 0usize..24, n in 1usize..24, seed in 0u64..1_000_000
        ) {
            let mut rng = vpu_num::rng::seeded(seed);
            let a = f16_inputs(m * k, &mut rng);
            let b = f16_inputs(k * n, &mut rng);
            let bias = f16_inputs(m, &mut rng);
            epilogue_agrees(m, k, n, &a, &b, &bias)?;
            let a: Vec<f32> = a.iter().map(|&x| f32_input(x, &mut rng)).collect();
            let b: Vec<f32> = b.iter().map(|&x| f32_input(x, &mut rng)).collect();
            let bias: Vec<f32> = bias.iter().map(|&x| f32_input(x, &mut rng)).collect();
            epilogue_agrees(m, k, n, &a, &b, &bias)?;
        }
    }

    /// The `Widened` row loop before the column strips, which the strips
    /// must match: one f32 accumulator row per row of C, swept once per
    /// nonzero tap of A, then the epilogue.
    fn widened_rows<E: Element>(
        m: usize,
        k: usize,
        n: usize,
        op: (&[E], &[E]),
        bias: Option<&[E]>,
        relu: bool,
    ) -> Vec<E> {
        let (a, b) = op;
        let mut c = vec![E::ZERO; m * n];
        let mut acc = vec![0.0f32; n];
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            acc.fill(0.0);
            for (kk, &aik) in a[i * k..(i + 1) * k].iter().enumerate() {
                let aik = aik.to_f32();
                if aik == 0.0 {
                    continue;
                }
                for (s, &bj) in acc.iter_mut().zip(&b[kk * n..kk * n + n]) {
                    *s += aik * bj.to_f32();
                }
            }
            store(row, &acc, bias.map(|bias| bias[i].to_f32()), relu);
        }
        c
    }

    /// Every width's `Widened` strips equal [`widened_rows`], with and
    /// without the epilogue.
    fn strips_agree<E: Element>(
        m: usize,
        k: usize,
        n: usize,
        a: &[E],
        b: &[E],
        bias: &[E],
    ) -> CaseResult {
        for (bias, relu) in [(None, false), (Some(bias), false), (Some(bias), true)] {
            let want = bits(&widened_rows(m, k, n, (a, b), bias, relu));
            for w in Width::supported() {
                let mut c = vec![E::ZERO; m * n];
                let mode = AccumMode::Widened;
                gemm_at(w, &Operands { k, n, a, b, mode, bias, relu }, &mut c);
                prop_assert_eq!(
                    bits(&c),
                    want.clone(),
                    "{} bias {} relu {}",
                    w.name(),
                    bias.is_some(),
                    relu
                );
            }
        }
        Ok(())
    }

    /// An f32 input from an f16 one: mostly its value, sometimes an f32
    /// special (a NaN payload, a subnormal, a value near `f32::MAX`).
    fn f32_input(x: f16, rng: &mut impl rand::Rng) -> f32 {
        match rng.gen_range(0..8) {
            0 => f32::from_bits(0x7F80_0001 | rng.gen_range(0..0x40_0000u32) << 1),
            1 => f32::from_bits(rng.gen_range(1..0x80_0000u32) | rng.gen_range(0..2u32) << 31),
            2 => f32::MAX * rng.gen_range(-1.0f32..1.0),
            _ => x.to_f32(),
        }
    }

    /// Output bits, every NaN as one value. Which NaN an add of two NaNs
    /// returns is left to code generation (the operand order differs
    /// between widths), as in `native_matches_the_per_op_f16_loop`.
    /// `E::from_f32` returns quiet NaNs, so `to_f32` loses nothing else.
    fn bits<E: Element>(c: &[E]) -> Vec<u32> {
        c.iter().map(|x| if x.is_nan_e() { u32::MAX } else { x.to_f32().to_bits() }).collect()
    }

    fn widths_agree<E: Element>(
        m: usize,
        k: usize,
        n: usize,
        a: &[E],
        b: &[E],
        bias: &[E],
    ) -> CaseResult {
        for mode in [AccumMode::Widened, AccumMode::Native] {
            for (bias, relu) in [(None, false), (Some(bias), false), (Some(bias), true)] {
                let run = |w: Width| {
                    let mut c = vec![E::ZERO; m * n];
                    gemm_at(w, &Operands { k, n, a, b, mode, bias, relu }, &mut c);
                    bits(&c)
                };
                let want = run(Width::Base);
                for w in Width::supported() {
                    prop_assert_eq!(
                        run(w),
                        want.clone(),
                        "{} {:?} bias {} relu {}",
                        w.name(),
                        mode,
                        bias.is_some(),
                        relu
                    );
                }
            }
        }
        Ok(())
    }

    fn epilogue_agrees<E: Element>(
        m: usize,
        k: usize,
        n: usize,
        a: &[E],
        b: &[E],
        bias: &[E],
    ) -> CaseResult {
        for mode in [AccumMode::Widened, AccumMode::Native] {
            for relu in [false, true] {
                let mut want = vec![E::ZERO; m * n];
                gemm(m, k, n, a, b, &mut want, mode);
                for (row, &bi) in want.chunks_exact_mut(n).zip(bias) {
                    for v in row {
                        *v += bi;
                        if relu {
                            *v = v.maximum(E::ZERO);
                        }
                    }
                }
                let mut got = vec![E::ZERO; m * n];
                gemm_bias(m, k, n, a, b, &mut got, mode, bias, relu);
                prop_assert_eq!(bits(&got), bits(&want), "{:?} relu {}", mode, relu);
            }
        }
        Ok(())
    }
}
