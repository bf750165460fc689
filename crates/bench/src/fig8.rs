//! Fig. 8a — throughput per Watt (Eq. 1) per batch size, and
//! Fig. 8b — projected inference performance for batch sizes 1–16.

use crate::fig6::{host_curve, vpu_curve};
use crate::report;
use crate::scale::Scale;
use ncsw::runner::CurvePoint;
use ncsw::{HostConfig, ModelBundle};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// Paper values for Fig. 8a at the last batch point (img/W).
pub const PAPER_8A: [(&str, f64); 3] = [("cpu", 0.55), ("gpu", 0.93), ("vpu", 3.97)];

/// Paper values for Fig. 8b maxima (img/s at batch 16).
pub const PAPER_8B: [(&str, f64); 3] = [("cpu", 44.5), ("gpu", 79.9), ("vpu", 153.0)];

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerSeries {
    pub target: String,
    /// (batch, img/s, img/W).
    pub points: Vec<(usize, f64, f64)>,
    pub paper_img_per_watt: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8a {
    pub scale: Scale,
    pub series: Vec<PowerSeries>,
}

/// Fig. 8a's series for one target: Eq. (1) with the TDP the device
/// charges at each batch size.
fn series_of(target: &str, curve: &[CurvePoint], paper: f64) -> PowerSeries {
    let points = curve
        .iter()
        .map(|p| {
            let ips = 1000.0 / p.ms;
            (p.batch, ips, ips / p.tdp_w)
        })
        .collect();
    PowerSeries { target: target.into(), points, paper_img_per_watt: paper }
}

/// Fig. 8a's accounting, each TDP read from the device's energy profile:
/// whole-package TDP for the hosts, one stick's peak per active VPU.
fn power_series(scale: Scale, batches: &[usize]) -> Vec<PowerSeries> {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = scale.sweep_images();
    let hosts = [(HostConfig::xeon_e5(), PAPER_8A[0].1), (HostConfig::k4000(), PAPER_8A[1].1)];
    let mut series: Vec<PowerSeries> = hosts
        .into_iter()
        .map(|(cfg, paper)| series_of(cfg.name, &host_curve(&model, cfg, batches, images), paper))
        .collect();
    series.push(series_of("vpu", &vpu_curve(&model, batches, images), PAPER_8A[2].1));
    series
}

/// Run Fig. 8a: batch ∈ {1,2,4,8}, Eq. (1) with TDP 80/80/2.5·n W.
pub fn fig8a(scale: Scale) -> Fig8a {
    Fig8a { scale, series: power_series(scale, &[1, 2, 4, 8]) }
}

impl Fig8a {
    pub fn print(&self) {
        report::header(&format!(
            "Fig. 8a — throughput per Watt (Eq. 1) per batch size (scale {})",
            self.scale.name()
        ));
        println!("{:<6} {:>8} {:>8} {:>8} {:>8}   ref-point vs paper", "target", 1, 2, 4, 8);
        for s in &self.series {
            let cells: Vec<String> =
                s.points.iter().map(|&(_, _, ipw)| format!("{ipw:>8.2}")).collect();
            // Paper's quoted point: batch-8 for hosts, batch-1 for VPU.
            let ref_point =
                if s.target == "vpu" { s.points[0].2 } else { s.points.last().unwrap().2 };
            println!(
                "{:<6} {}   {}",
                s.target,
                cells.join(" "),
                report::vs_paper(ref_point, s.paper_img_per_watt, 2)
            );
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8bSeries {
    pub target: String,
    /// (batch, img/s); the VPU series is fully *simulated* out to 16
    /// sticks (the simulator has no 8-device limit).
    pub simulated: Vec<(usize, f64)>,
    /// The paper-style linear projection from the 8-stick point
    /// (dashed line in Fig. 8b); empty for the hosts.
    pub projected: Vec<(usize, f64)>,
    pub paper_max: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8b {
    pub scale: Scale,
    pub batches: Vec<usize>,
    pub series: Vec<Fig8bSeries>,
}

/// Run Fig. 8b: batch 1..=16. Where the paper projects beyond its 8
/// physical sticks, we both (a) reproduce the projection and (b) actually
/// simulate the larger fleets.
pub fn fig8b(scale: Scale) -> Fig8b {
    let batches: Vec<usize> = vec![1, 2, 4, 8, 12, 16];
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = scale.sweep_images();
    let mut series = Vec::new();
    let hosts = [(HostConfig::xeon_e5(), PAPER_8B[0].1), (HostConfig::k4000(), PAPER_8B[1].1)];
    for (cfg, paper_max) in hosts {
        let curve = host_curve(&model, cfg, &batches, images);
        series.push(Fig8bSeries {
            target: cfg.name.into(),
            simulated: curve.iter().map(|p| (p.batch, 1000.0 / p.ms)).collect(),
            projected: vec![],
            paper_max,
        });
    }
    // VPU: simulate every fleet size.
    let curve = vpu_curve(&model, &batches, images);
    let simulated: Vec<(usize, f64)> = curve.iter().map(|p| (p.batch, 1000.0 / p.ms)).collect();
    // Paper-style projection: linear continuation of the 8-stick point.
    let at8 = simulated.iter().find(|&&(b, _)| b == 8).expect("batch 8 present").1;
    let projected =
        batches.iter().filter(|&&b| b > 8).map(|&b| (b, at8 / 8.0 * b as f64)).collect();
    series.push(Fig8bSeries {
        target: "vpu".into(),
        simulated,
        projected,
        paper_max: PAPER_8B[2].1,
    });
    Fig8b { scale, batches, series }
}

impl Fig8b {
    pub fn print(&self) {
        report::header(&format!(
            "Fig. 8b — projected inference performance per batch size (scale {})",
            self.scale.name()
        ));
        let hdr: Vec<String> = self.batches.iter().map(|b| format!("{b:>7}")).collect();
        println!("{:<10} {}   max vs paper", "target", hdr.join(" "));
        for s in &self.series {
            let cells: Vec<String> =
                s.simulated.iter().map(|&(_, ips)| format!("{ips:>7.1}")).collect();
            let max = s.simulated.iter().map(|&(_, v)| v).fold(0.0, f64::max);
            println!(
                "{:<10} {}   {}",
                s.target,
                cells.join(" "),
                report::vs_paper(max, s.paper_max, 1)
            );
            if !s.projected.is_empty() {
                let pc: Vec<String> =
                    s.projected.iter().map(|&(b, v)| format!("{b}:{v:.1}")).collect();
                println!("{:<10} (paper-style linear projection: {})", "", pc.join("  "));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_vpu_dominates_per_watt() {
        let r = fig8a(Scale::Tiny);
        let by: std::collections::HashMap<&str, &PowerSeries> =
            r.series.iter().map(|s| (s.target.as_str(), s)).collect();
        let vpu1 = by["vpu"].points[0].2;
        let cpu8 = by["cpu"].points.last().unwrap().2;
        let gpu8 = by["gpu"].points.last().unwrap().2;
        // Paper: >3x over GPU, >7x over CPU.
        assert!(vpu1 > 3.0 * gpu8, "vpu {vpu1} vs gpu {gpu8}");
        assert!(vpu1 > 6.0 * cpu8, "vpu {vpu1} vs cpu {cpu8}");
        // Near the paper's 3.97 img/W.
        assert!((vpu1 - 3.97).abs() / 3.97 < 0.08, "vpu img/W {vpu1}");
    }

    #[test]
    fn fig8a_vpu_ratio_stays_flat() {
        let r = fig8a(Scale::Tiny);
        let vpu = r.series.iter().find(|s| s.target == "vpu").unwrap();
        let first = vpu.points[0].2;
        let last = vpu.points.last().unwrap().2;
        // "Increasing the number of chips does not largely affect this
        // ratio, except for a small penalty."
        assert!(last <= first, "per-Watt should not improve with more sticks");
        assert!(last > first * 0.85, "penalty too large: {first} -> {last}");
    }

    #[test]
    fn fig8b_crossovers_match_paper() {
        let r = fig8b(Scale::Tiny);
        let get = |name: &str| r.series.iter().find(|s| s.target == name).unwrap();
        let vpu16 = get("vpu").simulated.last().unwrap().1;
        let cpu16 = get("cpu").simulated.last().unwrap().1;
        let gpu16 = get("gpu").simulated.last().unwrap().1;
        // Paper: 153 img/s ≈ 3.4x CPU, 1.9x GPU.
        assert!((2.8..4.0).contains(&(vpu16 / cpu16)), "vpu/cpu {}", vpu16 / cpu16);
        assert!((1.6..2.2).contains(&(vpu16 / gpu16)), "vpu/gpu {}", vpu16 / gpu16);
        assert!((140.0..165.0).contains(&vpu16), "vpu@16 {vpu16}");
        // Hosts saturate near their paper maxima.
        assert!((42.0..47.0).contains(&cpu16), "cpu@16 {cpu16}");
        assert!((76.0..83.0).contains(&gpu16), "gpu@16 {gpu16}");
    }

    #[test]
    fn fig8b_projection_tracks_simulation() {
        let r = fig8b(Scale::Tiny);
        let vpu = r.series.iter().find(|s| s.target == "vpu").unwrap();
        for &(b, proj) in &vpu.projected {
            let sim = vpu.simulated.iter().find(|&&(bb, _)| bb == b).unwrap().1;
            // The real simulation should track the linear projection to
            // within the USB-contention penalty (<12%).
            assert!((sim - proj).abs() / proj < 0.12, "batch {b}: sim {sim} proj {proj}");
        }
    }
}
