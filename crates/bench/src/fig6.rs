//! Fig. 6a — inference throughput per validation subset (batch 8), and
//! Fig. 6b — normalized performance scaling per batch size.

use crate::report;
use crate::scale::Scale;
use ncsw::runner::{latency_curve, throughput_per_subset, CurvePoint, Feed};
use ncsw::{HostConfig, HostTarget, IntelVpu, ModelBundle, ServiceHook, ThroughputReport};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;
use vpu_num::stats;

/// Paper values for Fig. 6a (mean img/s per target at batch 8).
pub const PAPER_6A: [(&str, f64); 3] = [("cpu", 44.0), ("gpu", 74.2), ("vpu", 77.2)];

/// Paper values for Fig. 6b (normalized scaling at batch 8).
pub const PAPER_6B: [(&str, f64); 3] = [("cpu", 1.147), ("gpu", 1.925), ("vpu", 7.8)];

/// One target's five bars.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6aSeries {
    pub target: String,
    pub subsets: Vec<ThroughputReport>,
    pub paper_img_per_sec: f64,
}

impl Fig6aSeries {
    pub fn mean_img_per_sec(&self) -> f64 {
        stats::mean(&self.subsets.iter().map(|r| r.images_per_sec()).collect::<Vec<_>>())
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6a {
    pub scale: Scale,
    pub batch: usize,
    pub series: Vec<Fig6aSeries>,
}

/// Run Fig. 6a: 5 subsets × {CPU, GPU, 8×VPU} at batch 8.
pub fn fig6a(scale: Scale) -> Fig6a {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = scale.throughput_images_per_subset();
    let batch = 8;
    let mut series = Vec::new();
    let targets: [(Box<dyn ServiceHook>, Feed); 3] = [
        (Box::new(HostTarget::new(model.clone(), HostConfig::xeon_e5())), Feed::Batches),
        (Box::new(HostTarget::new(model.clone(), HostConfig::k4000())), Feed::Batches),
        (Box::new(IntelVpu::new(model.clone(), batch)), Feed::Stream),
    ];
    for ((mut target, feed), (name, paper)) in targets.into_iter().zip(PAPER_6A) {
        let subsets = throughput_per_subset(target.as_mut(), name, feed, 5, n, batch);
        series.push(Fig6aSeries { target: name.into(), subsets, paper_img_per_sec: paper });
    }
    Fig6a { scale, batch, series }
}

impl Fig6a {
    pub fn print(&self) {
        report::header(&format!(
            "Fig. 6a — throughput per subset, batch {} ({} imgs/subset, scale {})",
            self.batch,
            self.scale.throughput_images_per_subset(),
            self.scale.name()
        ));
        println!("{:<6} set-1    set-2    set-3    set-4    set-5  mean (vs paper)", "target");
        for s in &self.series {
            let cells: Vec<String> =
                s.subsets.iter().map(|r| report::pm(r.samples.mean, r.samples.stddev, 1)).collect();
            println!(
                "{:<6} {}  {}",
                s.target,
                cells.join("  "),
                report::vs_paper(s.mean_img_per_sec(), s.paper_img_per_sec, 1)
            );
        }
    }
}

/// One target's scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6bSeries {
    pub target: String,
    /// (batch, per-image latency ms).
    pub latency_ms: Vec<(usize, f64)>,
    /// (batch, normalized performance = t(1)/t(batch)).
    pub normalized: Vec<(usize, f64)>,
    pub paper_norm_at_8: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6b {
    pub scale: Scale,
    pub batches: Vec<usize>,
    pub series: Vec<Fig6bSeries>,
}

/// A host preset's latency curve over `batches` (Figs. 6b and 8).
pub(crate) fn host_curve(
    model: &ModelBundle,
    cfg: HostConfig,
    batches: &[usize],
    images: usize,
) -> Vec<CurvePoint> {
    latency_curve(|_| Box::new(HostTarget::new(model.clone(), cfg)), Feed::Batches, batches, images)
}

/// The VPU fleet's latency curve, one stick per image of each batch.
pub(crate) fn vpu_curve(model: &ModelBundle, batches: &[usize], images: usize) -> Vec<CurvePoint> {
    latency_curve(|b| Box::new(IntelVpu::new(model.clone(), b)), Feed::Stream, batches, images)
}

/// Run Fig. 6b: batch ∈ {1,2,4,8}; the number of active VPUs is coupled
/// to the batch size, each device type normalized to its own batch-1
/// latency.
pub fn fig6b(scale: Scale) -> Fig6b {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let batches = vec![1usize, 2, 4, 8];
    let images = scale.sweep_images();
    let mut series = Vec::new();

    let curves = [
        host_curve(&model, HostConfig::xeon_e5(), &batches, images),
        host_curve(&model, HostConfig::k4000(), &batches, images),
        vpu_curve(&model, &batches, images),
    ];
    for (curve, (target, paper)) in curves.into_iter().zip(PAPER_6B) {
        let latency_ms: Vec<(usize, f64)> = curve.iter().map(|p| (p.batch, p.ms)).collect();
        let t1 = latency_ms[0].1;
        let normalized = latency_ms.iter().map(|&(b, t)| (b, t1 / t)).collect();
        series.push(Fig6bSeries {
            target: target.into(),
            latency_ms,
            normalized,
            paper_norm_at_8: paper,
        });
    }
    Fig6b { scale, batches, series }
}

impl Fig6b {
    pub fn print(&self) {
        report::header(&format!(
            "Fig. 6b — normalized performance scaling per batch size (scale {})",
            self.scale.name()
        ));
        println!("{:<6} {:>7} {:>7} {:>7} {:>7}   at-8 vs paper", "target", 1, 2, 4, 8);
        for s in &self.series {
            let cells: Vec<String> =
                s.normalized.iter().map(|&(_, v)| format!("{v:>7.2}")).collect();
            let at8 = s.normalized.last().unwrap().1;
            println!(
                "{:<6} {}   {}",
                s.target,
                cells.join(" "),
                report::vs_paper(at8, s.paper_norm_at_8, 2)
            );
        }
        println!("\nper-image latency (ms):");
        for s in &self.series {
            let cells: Vec<String> =
                s.latency_ms.iter().map(|&(_, v)| format!("{v:>7.1}")).collect();
            println!("{:<6} {}", s.target, cells.join(" "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_shape_holds() {
        let r = fig6a(Scale::Tiny);
        assert_eq!(r.series.len(), 3);
        let by: std::collections::HashMap<&str, f64> =
            r.series.iter().map(|s| (s.target.as_str(), s.mean_img_per_sec())).collect();
        // Paper shape: VPU ≈ GPU > CPU; VPU ~40% over CPU.
        assert!(by["vpu"] > by["cpu"] * 1.3, "vpu {} cpu {}", by["vpu"], by["cpu"]);
        assert!((by["vpu"] - by["gpu"]).abs() / by["gpu"] < 0.15);
        // Each within 10% of the paper bar.
        for s in &r.series {
            let dev = (s.mean_img_per_sec() - s.paper_img_per_sec).abs() / s.paper_img_per_sec;
            assert!(dev < 0.10, "{} deviates {dev}", s.target);
        }
    }

    #[test]
    fn fig6a_has_error_bars() {
        let r = fig6a(Scale::Tiny);
        for s in &r.series {
            assert_eq!(s.subsets.len(), 5);
            assert!(s.subsets.iter().any(|x| x.samples.stddev > 0.0), "{}", s.target);
        }
    }

    #[test]
    fn fig6b_scaling_shape() {
        let r = fig6b(Scale::Tiny);
        let by: std::collections::HashMap<&str, f64> =
            r.series.iter().map(|s| (s.target.as_str(), s.normalized.last().unwrap().1)).collect();
        assert!((1.05..1.25).contains(&by["cpu"]), "cpu {}", by["cpu"]);
        assert!((1.75..2.1).contains(&by["gpu"]), "gpu {}", by["gpu"]);
        assert!((6.8..8.0).contains(&by["vpu"]), "vpu {}", by["vpu"]);
        // Normalized performance is monotone in batch for every target.
        for s in &r.series {
            for w in s.normalized.windows(2) {
                assert!(w[1].1 >= w[0].1 * 0.98, "{} not monotone", s.target);
            }
        }
    }

    #[test]
    fn fig6b_batch1_latencies_match_anchors() {
        let r = fig6b(Scale::Tiny);
        for s in &r.series {
            let t1 = s.latency_ms[0].1;
            let paper = match s.target.as_str() {
                "cpu" => 26.0,
                "gpu" => 25.9,
                _ => 100.7,
            };
            let dev = (t1 - paper).abs() / paper;
            assert!(dev < 0.05, "{} batch-1 {t1} vs {paper}", s.target);
        }
    }
}
