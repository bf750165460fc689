//! Offline stand-in for `rand_chacha`: a real ChaCha stream cipher used as
//! a deterministic RNG. Only the generators the workspace uses are provided
//! (`ChaCha8Rng`, plus `ChaCha12Rng`/`ChaCha20Rng` for completeness). The
//! keystream is genuine RFC-7539-layout ChaCha; it is deterministic per seed
//! but not guaranteed bit-identical to upstream `rand_chacha`.
//!
//! **Refill policy.** A stream's first refill computes one block (16
//! words): most streams (a jitter draw per batch, a few per USB transfer)
//! end inside it. When the CPU has AVX2 ([`wide_refills`]), the second
//! refill allocates room for eight blocks, and from then on the stream
//! computes eight blocks at once and moves them into its one-block buffer
//! one at a time; otherwise every refill is one block. A short stream so
//! carries only its 16 words, as a scalar one does. Upstream `rand_chacha`
//! also buffers several blocks and uses SIMD. The eight blocks are the
//! next eight counters, drawn block after block, so the words drawn are
//! the same on every CPU. The wide version stops at AVX2: the serving
//! loop's long streams refill every few dozen draws between other work,
//! and a 512-bit version measured slower there.

use rand::{RngCore, SeedableRng};

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks per wide refill.
const LANES: usize = 8;

/// ChaCha quarter round.
#[inline(always)]
fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One ChaCha block: `rounds` must be even (8, 12 or 20).
fn block(input: &[u32; 16], rounds: u32) -> [u32; 16] {
    let mut s = *input;
    for _ in 0..rounds / 2 {
        // Column round.
        qr(&mut s, 0, 4, 8, 12);
        qr(&mut s, 1, 5, 9, 13);
        qr(&mut s, 2, 6, 10, 14);
        qr(&mut s, 3, 7, 11, 15);
        // Diagonal round.
        qr(&mut s, 0, 5, 10, 15);
        qr(&mut s, 1, 6, 11, 12);
        qr(&mut s, 2, 7, 8, 13);
        qr(&mut s, 3, 4, 9, 14);
    }
    for (out, inp) in s.iter_mut().zip(input.iter()) {
        *out = out.wrapping_add(*inp);
    }
    s
}

/// Word `w` of each of the eight blocks of a wide refill.
type Lanes = [u32; LANES];

// The lane steps below borrow whole rows and walk them in place, which
// LLVM turns into one vector instruction per step. Rows copied out by
// value compiled to mostly scalar code at ~5x the time.

/// Rows `d` (to write) and `s` (to read) of `x`; `d != s`.
#[inline(always)]
fn rows(x: &mut [Lanes; 16], d: usize, s: usize) -> (&mut Lanes, &Lanes) {
    if d < s {
        let (lo, hi) = x.split_at_mut(s);
        (&mut lo[d], &hi[0])
    } else {
        let (lo, hi) = x.split_at_mut(d);
        (&mut hi[0], &lo[s])
    }
}

/// `x[d] += x[s]`, lane by lane.
#[inline(always)]
fn add(x: &mut [Lanes; 16], d: usize, s: usize) {
    let (d, s) = rows(x, d, s);
    for (v, s) in d.iter_mut().zip(s) {
        *v = v.wrapping_add(*s);
    }
}

/// `x[d] = (x[d] ^ x[s]) <<< r`, lane by lane.
#[inline(always)]
fn xor_rotate(x: &mut [Lanes; 16], d: usize, s: usize, r: u32) {
    let (d, s) = rows(x, d, s);
    for (v, s) in d.iter_mut().zip(s) {
        *v = (*v ^ *s).rotate_left(r);
    }
}

/// [`qr`] on all eight blocks at once, one lane per block.
#[inline(always)]
fn qr8(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    add(x, a, b);
    xor_rotate(x, d, a, 16);
    add(x, c, d);
    xor_rotate(x, b, c, 12);
    add(x, a, b);
    xor_rotate(x, d, a, 8);
    add(x, c, d);
    xor_rotate(x, b, c, 7);
}

/// The blocks at `input`'s counter and the seven after it (the 64-bit
/// counter in words 12..14 carries per block): `block` eight times, bit
/// for bit, one lane per block. Word `w` of block `l` goes to
/// `out[w][l]`, so each word's eight lanes are stored together and every
/// step vectorizes.
#[inline(always)]
fn blocks8(input: &[u32; 16], rounds: u32, out: &mut [Lanes; 16]) {
    let mut x = [[0; LANES]; 16];
    for (xw, &w) in x.iter_mut().zip(input) {
        *xw = [w; LANES];
    }
    let (low, high) = x.split_at_mut(13);
    for (l, (lo, hi)) in low[12].iter_mut().zip(&mut high[0]).enumerate() {
        *lo = input[12].wrapping_add(l as u32);
        *hi = input[13].wrapping_add((*lo < input[12]) as u32);
    }
    let init = x;
    for _ in 0..rounds / 2 {
        qr8(&mut x, 0, 4, 8, 12);
        qr8(&mut x, 1, 5, 9, 13);
        qr8(&mut x, 2, 6, 10, 14);
        qr8(&mut x, 3, 7, 11, 15);
        qr8(&mut x, 0, 5, 10, 15);
        qr8(&mut x, 1, 6, 11, 12);
        qr8(&mut x, 2, 7, 8, 13);
        qr8(&mut x, 3, 4, 9, 14);
    }
    for (o, (xw, iw)) in out.iter_mut().zip(x.iter().zip(&init)) {
        for (o, (v, i)) in o.iter_mut().zip(xw.iter().zip(iw)) {
            *o = v.wrapping_add(*i);
        }
    }
}

/// [`blocks8`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocks8_avx2(input: &[u32; 16], rounds: u32, out: &mut [Lanes; 16]) {
    blocks8(input, rounds, out)
}

/// Whether a stream computes eight blocks at once after its first
/// refill: true when the CPU has AVX2.
pub fn wide_refills() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    false
}

/// [`blocks8`] with AVX2 into `out`, returning true; false, with `out`
/// untouched, on a CPU without AVX2.
fn wide_blocks(input: &[u32; 16], rounds: u32, out: &mut [Lanes; 16]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if wide_refills() {
        // SAFETY: `wide_refills` just confirmed that this CPU runs AVX2 code.
        unsafe { blocks8_avx2(input, rounds, out) };
        return true;
    }
    false
}

/// Adds `blocks` to the 64-bit block counter in words 12..14.
fn advance(state: &mut [u32; 16], blocks: u64) {
    let ctr = (state[12] as u64 | (state[13] as u64) << 32).wrapping_add(blocks);
    state[12] = ctr as u32;
    state[13] = (ctr >> 32) as u32;
}

macro_rules! chacha_rng {
    ($name:ident, $rounds:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub struct $name {
            /// Cipher state: constants, 8 key words, 64-bit block counter
            /// (the next block to compute), 64-bit stream id (always 0).
            state: [u32; 16],
            /// The block being drawn.
            buf: [u32; 16],
            /// Words of `buf` drawn so far; 16 forces a refill.
            idx: usize,
            /// Eight blocks computed ahead, word `w` of block `l` at
            /// `wide[w][l]`. Allocated at a stream's second refill on a
            /// CPU with AVX2, so a short stream stays small.
            wide: Option<Box<[Lanes; 16]>>,
            /// Blocks of `wide` already moved into `buf`.
            lane: usize,
            /// Whether `buf` has been filled once.
            refilled: bool,
        }

        impl $name {
            fn refill(&mut self) {
                self.idx = 0;
                if self.lane == LANES {
                    if self.wide.is_none() && self.refilled && wide_refills() {
                        self.wide = Some(Box::default());
                    }
                    let wide = self.wide.as_deref_mut();
                    if !wide.is_some_and(|w| wide_blocks(&self.state, $rounds, w)) {
                        self.buf = block(&self.state, $rounds);
                        advance(&mut self.state, 1);
                        self.refilled = true;
                        return;
                    }
                    advance(&mut self.state, LANES as u64);
                    self.lane = 0;
                }
                let wide = self.wide.as_deref().expect("blocks computed ahead");
                for (b, w) in self.buf.iter_mut().zip(wide) {
                    *b = w[self.lane];
                }
                self.lane += 1;
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: [u8; 32]) -> Self {
                let mut state = [0u32; 16];
                state[..4].copy_from_slice(&CONSTANTS);
                for (i, chunk) in seed.chunks_exact(4).enumerate() {
                    state[4 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
                }
                $name { state, buf: [0; 16], idx: 16, wide: None, lane: LANES, refilled: false }
            }
        }

        impl RngCore for $name {
            #[inline]
            fn next_u32(&mut self) -> u32 {
                if self.idx >= 16 {
                    self.refill();
                }
                let w = self.buf[self.idx];
                self.idx += 1;
                w
            }

            #[inline]
            fn next_u64(&mut self) -> u64 {
                let lo = self.next_u32() as u64;
                let hi = self.next_u32() as u64;
                lo | (hi << 32)
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 8, "ChaCha with 8 rounds: fast, used for simulation streams.");
chacha_rng!(ChaCha12Rng, 12, "ChaCha with 12 rounds.");
chacha_rng!(ChaCha20Rng, 20, "ChaCha with 20 rounds (full-strength).");

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn rfc7539_block_vector() {
        // RFC 7539 §2.3.2 test vector (20 rounds, counter=1, nonce set).
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CONSTANTS);
        for i in 0..8 {
            let b = [4 * i as u8, 4 * i as u8 + 1, 4 * i as u8 + 2, 4 * i as u8 + 3];
            input[4 + i] = u32::from_le_bytes(b);
        }
        input[12] = 1;
        input[13] = 0x0900_0000;
        input[14] = 0x4a00_0000;
        input[15] = 0;
        let out = block(&input, 20);
        assert_eq!(out[0], 0xe4e7_f110);
        assert_eq!(out[15], 0x4e3c_50a2);
    }

    /// The words of a stream that refills one block at a time, from
    /// cipher state `state`.
    fn scalar_stream(mut state: [u32; 16], rounds: u32, words: usize) -> Vec<u32> {
        let mut out = Vec::new();
        while out.len() < words {
            out.extend(block(&state, rounds));
            advance(&mut state, 1);
        }
        out.truncate(words);
        out
    }

    /// `blocks8` at every width this CPU runs equals `block` eight times,
    /// also when the 64-bit counter carries (or wraps) inside the eight.
    #[test]
    fn wide_blocks_equal_eight_scalar_blocks() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB10C);
        for rounds in [8, 12, 20] {
            for ctr in [0, 5, u32::MAX as u64 - 3, u64::MAX - 2, 1 << 40] {
                let mut input: [u32; 16] = std::array::from_fn(|_| rng.next_u32());
                input[12] = ctr as u32;
                input[13] = (ctr >> 32) as u32;
                let want = scalar_stream(input, rounds, 16 * LANES);
                // Back to block after block.
                let blocks = |x: &[Lanes; 16]| -> Vec<u32> {
                    (0..16 * LANES).map(|i| x[i % 16][i / 16]).collect()
                };
                let mut got = [[0; LANES]; 16];
                blocks8(&input, rounds, &mut got);
                assert_eq!(blocks(&got), want, "base, {rounds} rounds, counter {ctr:#x}");
                let mut got = [[0; LANES]; 16];
                if wide_blocks(&input, rounds, &mut got) {
                    assert_eq!(blocks(&got), want, "avx2, {rounds} rounds, counter {ctr:#x}");
                } else {
                    eprintln!("note: no AVX2 on this CPU; the avx2 version is not checked");
                }
            }
        }
    }

    macro_rules! wide_stream_matches_scalar {
        ($($test:ident: $rng:ident, $rounds:expr;)*) => {$(
            /// The stream equals the one-block-per-refill stream: across
            /// the first refill's boundary, across a 2^32 counter carry
            /// inside one wide refill, and from a clone taken mid-buffer.
            #[test]
            fn $test() {
                if !wide_refills() {
                    eprintln!("note: no AVX2 on this CPU; every refill is one block");
                }
                let draw = |rng: &mut $rng, n: usize| (0..n).map(|_| rng.next_u32()).collect::<Vec<_>>();
                let words = 16 + 3 * 16 * LANES + 5;

                let mut rng = $rng::seed_from_u64(99);
                let want = scalar_stream(rng.state, $rounds, words);
                assert_eq!(draw(&mut rng, words), want, "from the start");

                // The first refill takes counter 2^32 - 5, the first wide
                // one 2^32 - 4 ..= 2^32 + 3.
                let mut rng = $rng::seed_from_u64(7);
                rng.state[12] = u32::MAX - 4;
                let want = scalar_stream(rng.state, $rounds, words);
                assert_eq!(draw(&mut rng, words), want, "across the carry");
                assert_eq!(rng.state[13], 1);

                let mut rng = $rng::seed_from_u64(3);
                let want = scalar_stream(rng.state, $rounds, words);
                let head = draw(&mut rng, 16 + 50);
                let mut twin = rng.clone();
                assert_eq!(head[..], want[..66]);
                assert_eq!(draw(&mut rng, words - 66)[..], want[66..], "original");
                assert_eq!(draw(&mut twin, words - 66)[..], want[66..], "clone");
            }
        )*};
    }

    wide_stream_matches_scalar! {
        chacha8_wide_stream_matches_scalar: ChaCha8Rng, 8;
        chacha12_wide_stream_matches_scalar: ChaCha12Rng, 12;
        chacha20_wide_stream_matches_scalar: ChaCha20Rng, 20;
    }

    #[test]
    fn seeded_streams_reproduce() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "{same} collisions in 64 draws");
    }

    #[test]
    fn floats_look_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.r#gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
