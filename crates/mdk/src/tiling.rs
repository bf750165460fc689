//! CMX tiling planner for blocked GEMM.
//!
//! Ionica & Gregg's Myriad DGEMM keeps one C tile plus the matching A
//! row-panel and B column-panel strips resident in each SHAVE's 128 KB
//! CMX slice, streaming panels from DDR between tile passes. The planner
//! picks the largest square tile whose three buffers fit, then derives
//! the resulting DDR panel traffic — which is what decides whether a
//! given problem is compute- or memory-bound on the chip.

use serde::{Deserialize, Serialize};

/// A blocked-GEMM execution plan for `C[m×n] += A[m×k] · B[k×n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilingPlan {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Square C-tile edge held per SHAVE.
    pub tile: usize,
    /// K-strip depth streamed per pass.
    pub tile_k: usize,
    pub elem_bytes: usize,
    /// CMX bytes available per SHAVE slice.
    pub slice_bytes: usize,
}

impl TilingPlan {
    /// Plan a GEMM into `slice_bytes` of per-SHAVE CMX.
    ///
    /// Buffer budget per slice: C tile (`tile²`), plus an A strip
    /// (`tile × tile_k`) and a B strip (`tile_k × tile`), double-buffered
    /// so the DMA of the next strips overlaps compute.
    pub fn plan(m: usize, k: usize, n: usize, elem_bytes: usize, slice_bytes: usize) -> TilingPlan {
        assert!(m > 0 && k > 0 && n > 0, "empty GEMM");
        assert!(elem_bytes == 2 || elem_bytes == 4, "fp16 or fp32 only");
        // Fix the K strip at 64 (a full VAU software-pipeline body), then
        // grow the square tile while everything fits.
        let tile_k = k.min(64);
        let fits = |t: usize| {
            let c = t * t;
            let strips = 2 * (t * tile_k + tile_k * t); // double-buffered
            (c + strips) * elem_bytes <= slice_bytes
        };
        let mut tile = 8;
        while tile * 2 <= m.clamp(8, 512) && fits(tile * 2) {
            tile *= 2;
        }
        assert!(fits(tile), "even the minimal tile does not fit CMX");
        TilingPlan { m, k, n, tile, tile_k, elem_bytes, slice_bytes }
    }

    /// Tiles along each C dimension.
    pub fn tiles_m(&self) -> usize {
        self.m.div_ceil(self.tile)
    }

    pub fn tiles_n(&self) -> usize {
        self.n.div_ceil(self.tile)
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// DDR bytes streamed: every C tile pass reads one A row-strip set
    /// and one B column-strip set; C is read+written once.
    pub fn ddr_bytes(&self) -> u64 {
        let a_reads = self.tiles_n() as u64 * (self.m as u64 * self.k as u64);
        let b_reads = self.tiles_m() as u64 * (self.k as u64 * self.n as u64);
        let c_traffic = 2 * self.m as u64 * self.n as u64;
        (a_reads + b_reads + c_traffic) * self.elem_bytes as u64
    }

    /// Bytes moved through the CMX crossbar (each operand element enters
    /// CMX once per strip it participates in, plus C updates).
    pub fn cmx_bytes(&self) -> u64 {
        self.ddr_bytes()
    }

    /// Arithmetic intensity in MACs per DDR byte: the roofline abscissa.
    pub fn intensity(&self) -> f64 {
        self.macs() as f64 / self.ddr_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLICE: usize = 128 * 1024;

    #[test]
    fn tile_fits_slice() {
        for &(m, k, n, e) in
            &[(512usize, 512usize, 512usize, 2usize), (1024, 1024, 1024, 4), (64, 64, 64, 2)]
        {
            let p = TilingPlan::plan(m, k, n, e, SLICE);
            let bytes = (p.tile * p.tile + 4 * p.tile * p.tile_k) * e;
            assert!(bytes <= SLICE, "{m}x{k}x{n}@{e}: {bytes} > slice");
            assert!(p.tile >= 8);
        }
    }

    #[test]
    fn fp16_tiles_larger_than_fp32() {
        let h = TilingPlan::plan(1024, 1024, 1024, 2, SLICE);
        let s = TilingPlan::plan(1024, 1024, 1024, 4, SLICE);
        assert!(h.tile >= s.tile);
    }

    #[test]
    fn tile_counts_cover_matrix() {
        let p = TilingPlan::plan(300, 200, 500, 4, SLICE);
        assert!(p.tiles_m() * p.tile >= 300);
        assert!(p.tiles_n() * p.tile >= 500);
    }

    #[test]
    fn macs_and_traffic() {
        let p = TilingPlan::plan(256, 256, 256, 2, SLICE);
        assert_eq!(p.macs(), 256u64.pow(3));
        // Traffic at least the compulsory misses (A + B + C once).
        let compulsory = (3 * 256 * 256 * 2) as u64;
        assert!(p.ddr_bytes() >= compulsory);
        assert!(p.intensity() > 1.0, "blocked GEMM must have reuse");
    }

    #[test]
    fn bigger_tiles_mean_higher_intensity() {
        // A quarter-size slice forces smaller tiles and thus more
        // panel re-streaming.
        let big = TilingPlan::plan(1024, 1024, 1024, 2, SLICE);
        let small = TilingPlan::plan(1024, 1024, 1024, 2, SLICE / 4);
        assert!(big.tile > small.tile);
        assert!(big.intensity() > small.intensity());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        TilingPlan::plan(0, 1, 1, 2, SLICE);
    }
}
