//! Deterministic random-number streams.
//!
//! Every stochastic component of the reproduction — synthetic image noise,
//! pseudo-trained weights, simulated timing jitter — draws from a stream
//! derived from a global experiment seed plus a textual label. Re-running
//! any experiment therefore produces bit-identical results, independent of
//! thread scheduling or crate iteration order.
//!
//! # Image noise at vector speed
//!
//! [`fill_normal_f32`] returns `normal(rng) as f32`, bit for bit, for a
//! whole image at a time, without calling libm for almost every element.
//! Each chunk of 64 uniform pairs `(u1, u2)` is drawn exactly as
//! [`normal`] draws them. The libm value is
//! `z = sqrt(-2·ln u1) · cos(x)` with `x = fl(2π·u2)`. A branch-free
//! loop, compiled per [`Width`] so that LLVM vectorizes it, computes
//! `za`, the same formula with an approximate `ln` (fdlibm's, without
//! tables or special cases) and an approximate `cos` (a 3-part
//! Cody–Waite reduction by π/2 and fdlibm's sin/cos kernels). The `x`,
//! the `sqrt` and the final product are the same operations as libm's
//! path. The `cos` quadrant and `ln`'s exponent are made with float ops
//! (the 1.5·2^52 and 2^52 tricks), because f64/i64 vector converts need
//! AVX-512 DQ, which [`Width::Avx512`] does not assume. The width cannot
//! change the output: every element is either certified to round to
//! libm's f32 or computed by libm.
//!
//! **Rounding test.** `za` is kept, as `f32`, only when `za·(1−G)` and
//! `za·(1+G)` round to the same f32, with `G = 2^-36`. Rounding to f32 is
//! monotone, so every real in between rounds there too, and `z` does
//! whenever `|z − za| ≤ G·|za|` (less the two f64 roundings of the
//! products, 2^-52 relative). Elsewhere the loop stores NaN (`za` is
//! never NaN for an accepted pair) and a scalar pass computes the libm
//! formula for that element.
//!
//! **Error budget**, as fractions of the exact `sqrt(-2 ln u1)·cos x`:
//! - libm: `ln` and `cos` within 1 ulp (2^-52 each; glibc's documented
//!   bound), `sqrt` and the product correctly rounded (2^-53 each), and
//!   the `ln` error halved by the `sqrt`: `|η| ≤ 5·2^-53`.
//! - approximation: fdlibm's `ln` is within 1 ulp, which the `sqrt`
//!   halves. The reduction subtracts `k` times 119 bits of π/2 in three
//!   steps; each of the last two rounds at most once, relative to the
//!   result, and next to a zero of `cos` (where `|x − kπ/2| ≥ 2^-54` for
//!   every f64 `x` in `[0, 2π)`) the first two are exact. So the reduced
//!   argument is within 2^-52 relative, and `cos` or `sin` of it moves
//!   by no more than that. With each kernel within 1 ulp,
//!   `|ηa| ≤ 2^-53 + 2^-53 + 2^-51 + 2^-53 < 2^-50`.
//! - so `|z − za| ≤ 2^-49·|za|`, 2^13 times inside `G`. The
//!   measured worst over the edge pairs and 200,000 drawn ones is
//!   2^-50.6 (`approximation_error_is_within_budget`).
//!
//! A value falls back when an f32 rounding boundary lies within `G` of
//! it: 3.5·10^-4 of the normals of a billion-normal sweep. A larger `G`
//! keeps the same guarantee with more fallbacks (the rate scales with
//! `G`, so 2^-32 would give about 0.6%). The differential tests compare
//! the fill with the libm path (the tests' `fill_normal`) at every width,
//! through rejections, at the edge pairs where `ln` cancels and `cos` is
//! near zero, and on pairs whose libm value lies within `G/4` of an f32
//! midpoint, which must take the fallback. [`normal`] itself, which the
//! host timing jitter draws, keeps libm.
//!
//! At the AVX-512 width the transform takes ~3 ns per normal and the
//! whole fill ~9 ns; the baseline (SSE2) build takes ~7 and ~13 ns, AVX2
//! ~4 and ~10.5 (2-core AVX512-FP16 x86-64 host, release, 3,072-normal
//! fills). The rest of the fill is ChaCha drawing the uniforms.

use crate::simd::Width;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Default experiment seed (ILSVRC year, as good as any).
pub const DEFAULT_SEED: u64 = 2012;

/// FNV-1a 64-bit hash, used to fold stream labels into seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A ChaCha8 RNG seeded directly from a 64-bit seed.
pub fn seeded(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// An independent named stream: the same `(seed, label)` pair always yields
/// the same sequence, and distinct labels yield decorrelated sequences.
pub fn stream(seed: u64, label: &str) -> ChaCha8Rng {
    let mixed = seed ^ fnv1a(label.as_bytes()).rotate_left(17);
    ChaCha8Rng::seed_from_u64(mixed)
}

/// Sub-stream indexed by an integer (e.g. one per image or per device).
pub fn indexed_stream(seed: u64, label: &str, index: u64) -> ChaCha8Rng {
    let mixed = seed
        ^ fnv1a(label.as_bytes()).rotate_left(17)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    ChaCha8Rng::seed_from_u64(mixed)
}

/// Standard-normal sample via Box–Muller (keeps us independent of
/// rand_distr; two uniforms in, one normal out).
pub fn normal<R: Rng>(rng: &mut R) -> f64 {
    let (u1, u2) = uniform_pair(rng);
    box_muller(u1, u2)
}

/// `out.len()` standard normals rounded to f32: bit for bit
/// `normal(rng) as f32` repeated, leaving the stream where those calls
/// leave it. Each chunk draws its uniform pairs with [`normal`]'s stream
/// order and rejection rule, then transforms them with the branch-free
/// approximation and rounding test of the module doc, at the widest
/// [`Width`] this CPU runs; the few elements the test cannot certify
/// take the libm formula.
pub fn fill_normal_f32<R: Rng>(rng: &mut R, out: &mut [f32]) {
    fill_normal_f32_at(Width::detect(), rng, out);
}

/// [`fill_normal_f32`] with the transform compiled for `width`.
fn fill_normal_f32_at<R: Rng>(width: Width, rng: &mut R, out: &mut [f32]) {
    let mut pairs = [(0.0, 0.0); NORMAL_CHUNK];
    for chunk in out.chunks_mut(NORMAL_CHUNK) {
        let pairs = &mut pairs[..chunk.len()];
        for pair in pairs.iter_mut() {
            *pair = uniform_pair(rng);
        }
        box_muller_f32(width, pairs, chunk);
    }
}

/// Pairs [`fill_normal_f32`] draws before it transforms them.
const NORMAL_CHUNK: usize = 64;

/// The next pair `(u1, u2)` of uniforms with `u1 > f64::MIN_POSITIVE`,
/// so that `ln(u1)` is finite; a rejected pair is drawn again.
#[inline]
fn uniform_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, u2);
        }
    }
}

/// The Box–Muller transform of one accepted pair, with libm's `ln` and
/// `cos`.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// `out[i] = box_muller(pairs[i]) as f32` for accepted pairs
/// (`u1 > f64::MIN_POSITIVE`): the certified approximation at `width`,
/// then libm for each element it left NaN.
fn box_muller_f32(width: Width, pairs: &[(f64, f64)], out: &mut [f32]) {
    certified_at(width, pairs, out);
    for (x, &(u1, u2)) in out.iter_mut().zip(pairs) {
        if x.is_nan() {
            *x = box_muller(u1, u2) as f32;
        }
    }
}

/// [`certified`] compiled for `width`, or for the baseline when this CPU
/// lacks `width`. The AVX512-FP16 width has no binary16 work here and
/// runs the AVX-512 build.
fn certified_at(width: Width, pairs: &[(f64, f64)], out: &mut [f32]) {
    match width {
        #[cfg(target_arch = "x86_64")]
        Width::Avx512 | Width::Avx512Fp16 if width.is_supported() => {
            // SAFETY: `is_supported` just confirmed AVX-512 F/BW/VL on this CPU.
            unsafe { certified_avx512(pairs, out) }
        }
        #[cfg(target_arch = "x86_64")]
        Width::Avx2 if width.is_supported() => {
            // SAFETY: `is_supported` just confirmed AVX2 on this CPU.
            unsafe { certified_avx2(pairs, out) }
        }
        _ => certified(pairs, out),
    }
}

/// [`certified`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn certified_avx2(pairs: &[(f64, f64)], out: &mut [f32]) {
    certified(pairs, out)
}

/// [`certified`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn certified_avx512(pairs: &[(f64, f64)], out: &mut [f32]) {
    certified(pairs, out)
}

/// Relative half-width of the rounding test (module doc): `2^-36`.
const G: f64 = 1.0 / (1u64 << 36) as f64;

/// `out[i]` = the f32 that both `za·(1−G)` and `za·(1+G)` round to,
/// where `za` approximates `box_muller(pairs[i])`, or NaN where they
/// round apart. Branch-free, so the loop vectorizes.
#[inline(always)]
fn certified(pairs: &[(f64, f64)], out: &mut [f32]) {
    for (x, &(u1, u2)) in out.iter_mut().zip(pairs) {
        let za = box_muller_approx(u1, u2);
        let lo = (za * (1.0 - G)) as f32;
        let hi = (za * (1.0 + G)) as f32;
        *x = if lo == hi { lo } else { f32::NAN };
    }
}

/// [`box_muller`] with [`ln_approx`] and [`cos_approx`] in place of
/// libm: the same `cos` argument and the same `sqrt` and final product.
#[inline(always)]
fn box_muller_approx(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_approx(u1)).sqrt() * cos_approx(2.0 * std::f64::consts::PI * u2)
}

/// `ln x` for positive normal `x`, within 1 ulp: fdlibm's `__ieee754_log`
/// without its special cases and branches. `x = 2^k · m` with `m` in
/// `[√2/2, √2)`, `f = m − 1` exactly, and `ln(1 + f)` from an odd series
/// in `s = f / (2 + f)`. `k` is read from the exponent bits and made a
/// float by the 2^52 trick, so no integer-to-float convert is needed.
#[inline(always)]
fn ln_approx(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931471803691238e-1; // 0x3FE62E42_FEE00000
    const LN2_LO: f64 = 1.9082149292705877e-10; // 0x3DEA39EF_35793C76
    const LG1: f64 = 6.666666666666735e-1;
    const LG2: f64 = 3.999999999940942e-1;
    const LG3: f64 = 2.857142874366239e-1;
    const LG4: f64 = 2.2222198432149784e-1;
    const LG5: f64 = 1.818357216161805e-1;
    const LG6: f64 = 1.5313837699209373e-1;
    const LG7: f64 = 1.4798198605116586e-1;
    // High word of √2/2, less 1.0's: moves `m`'s cut from 1 to √2/2.
    const SHIFT: u64 = (0x3ff0_0000 - 0x3fe6_a09e) << 32;
    let bits = x.to_bits().wrapping_add(SHIFT);
    let k = f64::from_bits(TWO52_BITS | bits >> 52) - (TWO52 + 1023.0);
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) + (0x3fe6_a09e << 32));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// 2^52, and its bits: `from_bits(TWO52_BITS | n) − 2^52 = n` exactly
/// for `n < 2^52`.
const TWO52: f64 = 4_503_599_627_370_496.0;
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;

/// `cos x` for `x` in `[0, 2π]`, within 2^-51 relative. `k`, the
/// nearest integer to `x·2/π`, is rounded by adding 1.5·2^52, which also
/// leaves `k mod 4` in the sum's low bits, so no float-to-integer convert
/// is needed. `r = x − k·π/2` uses a 3-part Cody–Waite split of π/2
/// (33 + 33 + 53 bits): the products by `k` of the first two parts are
/// exact, and so are both subtractions next to a zero of `cos`, so `r`
/// keeps its relative accuracy there. fdlibm's `__kernel_cos` and
/// `__kernel_sin` then evaluate `cos r` and `sin r`, and the quadrant
/// picks one and its sign with bit masks.
#[inline(always)]
fn cos_approx(x: f64) -> f64 {
    const ROUND: f64 = 6_755_399_441_055_744.0; // 1.5·2^52
    const PIO2_1: f64 = 1.5707963267341256; // 0x3FF921FB_54400000
    const PIO2_2: f64 = 6.077100506303966e-11; // 0x3DD0B461_1A600000
    const PIO2_2T: f64 = 2.0222662487959506e-21; // 0x3BA3198A_2E037073
    let t = x * std::f64::consts::FRAC_2_PI + ROUND;
    let k = t - ROUND;
    let q = t.to_bits();
    let r = ((x - k * PIO2_1) - k * PIO2_2) - k * PIO2_2T;
    let (c, s) = cos_sin_kernel(r);
    // cos(r + kπ/2) is cos r, −sin r, −cos r, sin r for k mod 4 = 0..3.
    let odd = 0u64.wrapping_sub(q & 1);
    let v = (s.to_bits() & odd) | (c.to_bits() & !odd);
    let sign = (q.wrapping_add(1) & 2) << 62;
    f64::from_bits(v ^ sign)
}

/// `(cos r, sin r)` for `|r| ≤ π/4`: fdlibm's kernels with no tail.
#[inline(always)]
fn cos_sin_kernel(r: f64) -> (f64, f64) {
    const C1: f64 = 4.16666666666666e-2;
    const C2: f64 = -1.388888888887411e-3;
    const C3: f64 = 2.480158728947673e-5;
    const C4: f64 = -2.7557314351390663e-7;
    const C5: f64 = 2.087572321298175e-9;
    const C6: f64 = -1.1359647557788195e-11;
    const S1: f64 = -1.6666666666666632e-1;
    const S2: f64 = 8.33333333332249e-3;
    const S3: f64 = -1.984126982985795e-4;
    const S4: f64 = 2.7557313707070068e-6;
    const S5: f64 = -2.5050760253406863e-8;
    const S6: f64 = 1.58969099521155e-10;
    let z = r * r;
    let w = z * z;
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + z * rc);
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = r + z * r * (S1 + z * rs);
    (cos, sin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn streams_are_deterministic() {
        let mut a = stream(1, "weights");
        let mut b = stream(1, "weights");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_labels_decorrelate() {
        let mut a = stream(1, "weights");
        let mut b = stream(1, "noise");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn distinct_indices_decorrelate() {
        let mut a = indexed_stream(7, "img", 0);
        let mut b = indexed_stream(7, "img", 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a published test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// `out.len()` standard normals: the values, and the stream position
    /// after them, of as many calls to [`normal`], drawn as
    /// [`fill_normal_f32`] draws them (a chunk of pairs, then libm over
    /// the chunk). The reference [`fill_normal_f32`] must match rounded.
    fn fill_normal<R: Rng>(rng: &mut R, out: &mut [f64]) {
        let mut pairs = [(0.0, 0.0); NORMAL_CHUNK];
        for chunk in out.chunks_mut(NORMAL_CHUNK) {
            for pair in &mut pairs[..chunk.len()] {
                *pair = uniform_pair(rng);
            }
            for (x, &(u1, u2)) in chunk.iter_mut().zip(&pairs) {
                *x = box_muller(u1, u2);
            }
        }
    }

    fn f32_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The reference returns the bits of repeated [`normal`] calls and
    /// leaves the stream where they leave it, for lengths on and around
    /// the chunk boundaries.
    #[test]
    fn fill_normal_matches_repeated_normal() {
        let lengths = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 1000];
        for seed in 0..40 {
            for &len in &lengths {
                let (mut a, mut b) = (seeded(seed), seeded(seed));
                let want: Vec<u64> = (0..len).map(|_| normal(&mut a).to_bits()).collect();
                let mut got = vec![f64::NAN; len];
                fill_normal(&mut b, &mut got);
                let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "seed {seed} len {len}");
                assert_eq!(a.next_u64(), b.next_u64(), "stream position, seed {seed} len {len}");
            }
        }
    }

    /// [`fill_normal_f32`] at every width this CPU runs returns the
    /// reference's values rounded to f32, and leaves the stream where
    /// the reference does.
    #[test]
    fn fill_normal_f32_matches_the_reference_at_every_width() {
        let lengths = [0, 1, 63, 64, 65, 127, 128, 129, 1000];
        for width in Width::supported() {
            for seed in 0..40 {
                for &len in &lengths {
                    let (mut a, mut b) = (seeded(seed), seeded(seed));
                    let mut want = vec![0.0; len];
                    fill_normal(&mut a, &mut want);
                    let want: Vec<f32> = want.iter().map(|&x| x as f32).collect();
                    let mut got = vec![f32::NAN; len];
                    fill_normal_f32_at(width, &mut b, &mut got);
                    let w = width.name();
                    assert_eq!(f32_bits(&got), f32_bits(&want), "{w} seed {seed} len {len}");
                    assert_eq!(a.next_u64(), b.next_u64(), "stream, {w} seed {seed} len {len}");
                }
            }
        }
    }

    /// A stream whose every third word is zero, so `u1 = 0` comes up
    /// and the pair is rejected and redrawn, at every offset.
    struct ZeroEveryThird(ChaCha8Rng, u64);

    impl RngCore for ZeroEveryThird {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            if self.1.is_multiple_of(3) {
                0
            } else {
                self.0.next_u64()
            }
        }
    }

    #[test]
    fn fills_match_normal_through_rejections() {
        for len in [1, 5, 64, 65, 300] {
            let mut a = ZeroEveryThird(seeded(len as u64), 0);
            let mut b = ZeroEveryThird(seeded(len as u64), 0);
            let want: Vec<u64> = (0..len).map(|_| normal(&mut a).to_bits()).collect();
            let mut got = vec![0.0; len];
            fill_normal(&mut b, &mut got);
            assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want, "len {len}");
            assert!(got.iter().all(|x| x.is_finite()));
            assert_eq!(a.1, b.1, "words drawn, len {len}");
            let want: Vec<f32> = got.iter().map(|&x| x as f32).collect();
            for width in Width::supported() {
                let mut c = ZeroEveryThird(seeded(len as u64), 0);
                let mut got = vec![0.0; len];
                fill_normal_f32_at(width, &mut c, &mut got);
                assert_eq!(f32_bits(&got), f32_bits(&want), "{} len {len}", width.name());
                assert_eq!(a.1, c.1, "words drawn, {} len {len}", width.name());
            }
        }
        // Rejections happened: more than two words per normal.
        let mut r = ZeroEveryThird(seeded(0), 0);
        fill_normal(&mut r, &mut [0.0; 30]);
        assert!(r.1 > 60, "{} words", r.1);
    }

    /// Pairs where the approximation is hardest: `u1` just above
    /// `MIN_POSITIVE` (the largest `|ln|`) and just below 1 (where `ln`
    /// cancels to `-2^-53`), and `u2` at 0, ¼, ½, ¾ and 1⁻ and their f64
    /// neighbours, which put the `cos` argument at or next to a multiple
    /// of π/2 (¼ and ¾ are next to its zeros).
    fn edge_pairs() -> Vec<(f64, f64)> {
        let u1s = [f64::MIN_POSITIVE.next_up(), 1e-300, 0.5, 1.0 - 1.0 / (1u64 << 53) as f64];
        let mut u2s = vec![0.0, 0.0f64.next_up(), 1.0f64.next_down()];
        for q in [0.25f64, 0.5, 0.75] {
            let (down, up) = (q.next_down(), q.next_up());
            u2s.extend([down.next_down(), down, q, up, up.next_up()]);
        }
        u1s.iter().flat_map(|&u1| u2s.iter().map(move |&u2| (u1, u2))).collect()
    }

    #[test]
    fn edge_pairs_match_libm_at_every_width() {
        let pairs = edge_pairs();
        let want: Vec<f32> = pairs.iter().map(|&(u1, u2)| box_muller(u1, u2) as f32).collect();
        for width in Width::supported() {
            let mut got = vec![0.0; pairs.len()];
            box_muller_f32(width, &pairs, &mut got);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{} {:?}: {g} vs {w}", width.name(), pairs[i]);
            }
        }
    }

    /// The approximation's distance from libm, relative to its value,
    /// stays far inside the rounding test's `G` (module doc: at most
    /// 2^-49 by the error budget) on the edge pairs and on drawn ones.
    #[test]
    fn approximation_error_is_within_budget() {
        let mut rng = seeded(5);
        let drawn = (0..200_000).map(|_| uniform_pair(&mut rng));
        let mut worst = 0.0f64;
        for (u1, u2) in edge_pairs().into_iter().chain(drawn) {
            let (z, za) = (box_muller(u1, u2), box_muller_approx(u1, u2));
            worst = worst.max(((z - za) / za).abs());
        }
        assert!(worst <= 2f64.powi(-49), "worst relative error {worst:e}");
        assert!(worst <= G / 4096.0);
    }

    /// Pairs whose libm value lies within `G/4` (relative) of an f32
    /// rounding boundary, found among a million drawn pairs (74 of
    /// them): the rounding test must leave each uncertified (NaN), and
    /// the libm fallback then returns libm's f32.
    #[test]
    fn values_next_to_an_f32_midpoint_take_the_fallback() {
        let mut rng = seeded(11);
        let mut found = 0;
        for _ in 0..1_000_000 {
            let (u1, u2) = uniform_pair(&mut rng);
            let z = box_muller(u1, u2);
            if (z * (1.0 - G / 4.0)) as f32 == (z * (1.0 + G / 4.0)) as f32 {
                continue;
            }
            found += 1;
            for width in Width::supported() {
                let mut got = [0.0];
                certified_at(width, &[(u1, u2)], &mut got);
                assert!(got[0].is_nan(), "{} ({u1}, {u2}) z {z:e}: certified", width.name());
                box_muller_f32(width, &[(u1, u2)], &mut got);
                assert_eq!(got[0].to_bits(), (z as f32).to_bits(), "({u1}, {u2})");
            }
        }
        assert!(found >= 32, "only {found} pairs next to a midpoint");
    }

    /// At least a billion normals from image streams (seed 7919, the
    /// perfbench held-out seed), each fill against the reference on bits
    /// and stream position, at the width [`fill_normal_f32`] picks; two
    /// threads.
    #[test]
    #[ignore = "a billion normals, ~20 s in release on 2 threads; run with --release -- --ignored"]
    fn a_billion_normals_match_the_reference() {
        const STREAMS: u64 = 16_384;
        const LEN: usize = 3 * 32 * 32;
        const FILLS: usize = 20;
        let width = Width::detect();
        let sweep = |streams: std::ops::Range<u64>| {
            let (mut want, mut got) = (vec![0.0f64; LEN], vec![0.0f32; LEN]);
            for i in streams {
                let mut a = indexed_stream(7919, "image", i);
                let mut b = a.clone();
                for _ in 0..FILLS {
                    fill_normal(&mut a, &mut want);
                    fill_normal_f32_at(width, &mut b, &mut got);
                    for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), (w as f32).to_bits(), "stream {i} element {j}");
                    }
                }
                assert_eq!(a.next_u64(), b.next_u64(), "stream {i} position");
            }
        };
        assert!(STREAMS as usize * FILLS * LEN >= 1_000_000_000);
        std::thread::scope(|s| {
            let other = s.spawn(|| sweep(0..STREAMS / 2));
            sweep(STREAMS / 2..STREAMS);
            other.join().unwrap();
        });
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
