//! E7 — the scalar anchors quoted in the paper's text (§IV–§V),
//! measured from the simulation and compared side by side.

use crate::fig6::{host_curve, vpu_curve};
use crate::report;
use crate::scale::Scale;
use ncsw::{HostConfig, ModelBundle};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// One anchor comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Anchor {
    pub what: String,
    pub paper: f64,
    pub measured: f64,
}

impl Anchor {
    pub fn rel_dev(&self) -> f64 {
        if self.paper == 0.0 {
            0.0
        } else {
            (self.measured - self.paper) / self.paper
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Anchors {
    pub rows: Vec<Anchor>,
}

/// Measure every scalar the paper quotes in its running text.
pub fn anchors(scale: Scale) -> Anchors {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = scale.sweep_images();
    let b18 = [1usize, 8];
    let cpu = host_curve(&model, HostConfig::xeon_e5(), &b18, images);
    let gpu = host_curve(&model, HostConfig::k4000(), &b18, images);
    let vpu = vpu_curve(&model, &b18, images);

    let mut rows = Vec::new();
    let mut push = |what: &str, paper: f64, measured: f64| {
        rows.push(Anchor { what: what.into(), paper, measured });
    };
    push("CPU batch-1 latency (ms)", 26.0, cpu[0].ms);
    push("GPU batch-1 latency (ms)", 25.9, gpu[0].ms);
    push("VPU single-stick latency (ms)", 100.7, vpu[0].ms);
    push("CPU batch-8 per-inference (ms)", 22.7, cpu[1].ms);
    push("GPU batch-8 per-inference (ms)", 13.5, gpu[1].ms);
    push("8xVPU per-inference (ms)", 12.9, vpu[1].ms);
    push("CPU batch-8 throughput (img/s)", 44.0, 1000.0 / cpu[1].ms);
    push("GPU batch-8 throughput (img/s)", 74.2, 1000.0 / gpu[1].ms);
    push("8xVPU throughput (img/s)", 77.2, 1000.0 / vpu[1].ms);
    push("single VPU vs CPU slowdown (x)", 4.0, vpu[0].ms / cpu[0].ms);
    push("VPU img/W at batch 1 (Eq. 1)", 3.97, 1000.0 / vpu[0].ms / vpu[0].tdp_w);
    push("CPU img/W at batch 8", 0.55, 1000.0 / cpu[1].ms / cpu[1].tdp_w);
    push("GPU img/W at batch 8", 0.93, 1000.0 / gpu[1].ms / gpu[1].tdp_w);
    // Against the 0.9 W chip TDP the paper quotes for the Myriad 2.
    push("CPU-to-8-chip TDP ratio (x)", 11.1, cpu[1].tdp_w / (8.0 * 0.9));
    Anchors { rows }
}

impl Anchors {
    pub fn print(&self) {
        report::header("E7 — paper text anchors, measured vs reported");
        println!("{:<38} {:>9} {:>9} {:>7}", "anchor", "paper", "measured", "dev");
        for a in &self.rows {
            println!(
                "{:<38} {:>9.2} {:>9.2} {:>6.1}%",
                a.what,
                a.paper,
                a.measured,
                a.rel_dev() * 100.0
            );
        }
    }

    pub fn worst_deviation(&self) -> f64 {
        self.rows.iter().map(|a| a.rel_dev().abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_anchors_within_tolerance() {
        let a = anchors(Scale::Tiny);
        assert_eq!(a.rows.len(), 14);
        for row in &a.rows {
            assert!(
                row.rel_dev().abs() < 0.08,
                "{}: paper {} vs measured {} ({:+.1}%)",
                row.what,
                row.paper,
                row.measured,
                row.rel_dev() * 100.0
            );
        }
    }
}
