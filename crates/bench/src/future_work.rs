//! E14 — the paper's §VII comparison, carried out (extension).
//!
//! "We expect to compare the VPU with highly-specialized accelerator
//! chips, such as the NVIDIA Volta V100 architecture." This experiment
//! lines up the multi-VPU configuration against the V100 and the Xeon
//! Phi KNL (the related-work co-processor), at each device's favourable
//! batch size, in both absolute throughput and Eq. (1) throughput/W.

use crate::report;
use crate::scale::Scale;
use ncsw::runner::{throughput, Feed};
use ncsw::{HostConfig, HostTarget, IntelVpu, ModelBundle, ServiceHook};
use ncsw_obs::watts;
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FutureWorkRow {
    pub device: String,
    pub batch: usize,
    pub img_per_sec: f64,
    pub tdp_w: f64,
    pub img_per_watt: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FutureWork {
    pub rows: Vec<FutureWorkRow>,
}

pub fn future_work(scale: Scale) -> FutureWork {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = scale.sweep_images();

    // A host at its operating point: whole batches (the image count
    // rounds up to one), charged its own TDP.
    let host_row = |device: &str, cfg: HostConfig, batch: usize| {
        let mut target = HostTarget::new(model.clone(), cfg);
        let whole = images.max(batch).div_ceil(batch) * batch;
        let r = throughput(&mut target, device, Feed::Batches, whole, batch);
        let tdp_w = watts(target.energy_profile().tdp_mw);
        FutureWorkRow {
            device: device.into(),
            batch,
            img_per_sec: r.images_per_sec(),
            tdp_w,
            img_per_watt: r.images_per_watt(tdp_w),
        }
    };
    // The paper's own hosts at their measured operating points.
    let mut rows = vec![
        host_row("xeon-e5", HostConfig::xeon_e5(), 8),
        host_row("k4000", HostConfig::k4000(), 8),
    ];

    // 8 sticks (the paper's testbed) and a 32-stick "blade" thought
    // experiment at the V100's power class.
    for sticks in [8usize, 32] {
        let mut vpu = IntelVpu::new(model.clone(), sticks);
        let tdp = watts(vpu.energy_profile().tdp_mw);
        let run = vpu.pipeline_mut().run_pipeline((images / 2).max(sticks * 3));
        rows.push(FutureWorkRow {
            device: format!("{sticks}x ncs"),
            batch: sticks,
            img_per_sec: run.images_per_sec(),
            tdp_w: tdp,
            img_per_watt: run.images_per_sec() / tdp,
        });
    }
    // §VII comparators.
    rows.push(host_row("knl", HostConfig::knl(), 8));
    rows.push(host_row("v100", HostConfig::v100(), 32));
    FutureWork { rows }
}

impl FutureWork {
    pub fn print(&self) {
        report::header("E14 — §VII future-work comparison: VPU fleets vs V100 / KNL");
        println!("{:<10} {:>6} {:>10} {:>8} {:>9}", "device", "batch", "img/s", "TDP W", "img/W");
        for r in &self.rows {
            println!(
                "{:<10} {:>6} {:>10.1} {:>8.0} {:>9.2}",
                r.device, r.batch, r.img_per_sec, r.tdp_w, r.img_per_watt
            );
        }
        println!(
            "\nVolta wins both axes outright — but the stick fleet holds ~2/3 of\n\
             its img/W at 1/15 the power class, and beats the KNL co-processor\n\
             on both. The VPU's niche is node-level low-power offload, exactly\n\
             as the paper frames it."
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_wins_throughput_vpu_holds_per_watt() {
        let f = future_work(Scale::Tiny);
        let get = |n: &str| f.rows.iter().find(|r| r.device == n).unwrap();
        let v100 = get("v100");
        let ncs8 = get("8x ncs");
        let knl = get("knl");
        // Absolute: V100 >> 8 sticks.
        assert!(v100.img_per_sec > 8.0 * ncs8.img_per_sec);
        // Eq. (1): the stick fleet stays within ~2x of the V100 per Watt
        // and beats KNL and the paper's hosts outright.
        assert!(ncs8.img_per_watt > 0.5 * v100.img_per_watt);
        assert!(ncs8.img_per_watt > knl.img_per_watt);
        assert!(ncs8.img_per_watt > get("xeon-e5").img_per_watt * 6.0);
        // Fleet scaling continues at 32 sticks.
        assert!(get("32x ncs").img_per_sec > 3.5 * ncs8.img_per_sec);
    }
}
