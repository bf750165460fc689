//! E10 — per-layer GoogLeNet profile on one stick, mirroring the
//! NCSDK's `mvncGetGraphOption(..., TIME_TAKEN)` report.

use crate::report;
use desim::SimTime;
use myriad2::{Myriad2, Myriad2Config};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;
use vpu_num::f16;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerRow {
    pub name: String,
    pub mnemonic: String,
    pub ms: f64,
    pub percent: f64,
    pub macs: u64,
    pub on_sipp: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerProfile {
    pub network: String,
    pub total_ms: f64,
    pub rows: Vec<LayerRow>,
}

/// Profile one full-GoogLeNet inference layer by layer.
pub fn layers() -> LayerProfile {
    let cost = Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()));
    let mut chip = Myriad2::new(Myriad2Config::default());
    let run = chip.run_cost(&cost, SimTime::ZERO);
    let total_ms = run.duration().as_millis();
    let rows = run
        .layers()
        .iter()
        .zip(&cost.layers)
        .filter(|(t, _)| t.duration().nanos() > 0)
        .map(|(t, c)| LayerRow {
            name: t.name.clone(),
            mnemonic: t.mnemonic.clone(),
            ms: t.duration().as_millis(),
            percent: t.duration().as_millis() / total_ms * 100.0,
            macs: c.macs,
            on_sipp: t.on_sipp,
        })
        .collect();
    LayerProfile { network: cost.network.clone(), total_ms, rows }
}

impl LayerProfile {
    pub fn print(&self) {
        report::header(&format!(
            "E10 — per-layer profile, one inference of {} ({:.1} ms total, NCSDK TIME_TAKEN style)",
            self.network, self.total_ms
        ));
        println!("{:<28} {:>8} {:>7} {:>6} {:>12}", "layer", "type", "ms", "%", "MMACs");
        let mut sorted: Vec<&LayerRow> = self.rows.iter().collect();
        sorted.sort_by(|a, b| b.ms.partial_cmp(&a.ms).unwrap());
        for r in sorted.iter().take(20) {
            println!(
                "{:<28} {:>8} {:>7.2} {:>5.1}% {:>12.1}{}",
                r.name,
                r.mnemonic,
                r.ms,
                r.percent,
                r.macs as f64 / 1e6,
                if r.on_sipp { "  (SIPP)" } else { "" }
            );
        }
        println!("... ({} layers total)", self.rows.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_the_network() {
        let p = layers();
        assert!((90.0..105.0).contains(&p.total_ms), "total {}", p.total_ms);
        // Percentages sum to ~100 (layers are sequential).
        let sum: f64 = p.rows.iter().map(|r| r.percent).sum();
        assert!((97.0..101.0).contains(&sum), "percent sum {sum}");
        // The expensive layers are the big convs.
        let top = p.rows.iter().max_by(|a, b| a.ms.partial_cmp(&b.ms).unwrap()).unwrap();
        assert_eq!(top.mnemonic, "conv");
        assert!(top.macs > 100_000_000);
    }
}
