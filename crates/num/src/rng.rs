//! Deterministic random-number streams.
//!
//! Every stochastic component of the reproduction — synthetic image noise,
//! pseudo-trained weights, simulated timing jitter — draws from a stream
//! derived from a global experiment seed plus a textual label. Re-running
//! any experiment therefore produces bit-identical results, independent of
//! thread scheduling or crate iteration order.

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

/// `out.len()` standard normals: the values, and the stream position
/// after them, of as many calls to [`normal`]. Each chunk draws its
/// uniform pairs first and then transforms them all, so the RNG and the
/// `ln`/`sqrt`/`cos` chains each run in a tight loop.
pub fn fill_normal<R: Rng>(rng: &mut R, out: &mut [f64]) {
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

/// Pairs [`fill_normal`] draws before it transforms them.
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

/// The Box–Muller transform of one accepted pair.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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

    /// [`fill_normal`] returns the bits of repeated [`normal`] calls and
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
    fn fill_normal_matches_normal_through_rejections() {
        for len in [1, 5, 64, 65, 300] {
            let mut a = ZeroEveryThird(seeded(len as u64), 0);
            let mut b = ZeroEveryThird(seeded(len as u64), 0);
            let want: Vec<u64> = (0..len).map(|_| normal(&mut a).to_bits()).collect();
            let mut got = vec![0.0; len];
            fill_normal(&mut b, &mut got);
            assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want, "len {len}");
            assert!(got.iter().all(|x| x.is_finite()));
            assert_eq!(a.1, b.1, "words drawn, len {len}");
        }
        // Rejections happened: more than two words per normal.
        let mut r = ZeroEveryThird(seeded(0), 0);
        fill_normal(&mut r, &mut [0.0; 30]);
        assert!(r.1 > 60, "{} words", r.1);
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
