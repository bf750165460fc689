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
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
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
