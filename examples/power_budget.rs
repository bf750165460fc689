//! Fleet sizing under a power budget: how many sticks replace a GPU?
//!
//! Sweeps the multi-VPU fleet from 1 to 16 sticks, reporting throughput,
//! Eq. (1) throughput-per-Watt, and measured per-inference chip energy,
//! then answers the paper's §V question: at what fleet size does the VPU
//! configuration match the CPU and GPU, and at what TDP?
//!
//! ```text
//! cargo run --release --example power_budget
//! ```

use vpu_coprocessor::framework::multivpu::{MultiVpu, MultiVpuConfig};
use vpu_coprocessor::framework::runner::{throughput, Feed};
use vpu_coprocessor::framework::{HostConfig, HostTarget, ModelBundle};
use vpu_coprocessor::nn::googlenet::Variant;

fn main() {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);

    // Reference throughputs at their best batch size (16).
    let reference = |cfg: HostConfig| {
        let mut host = HostTarget::new(model.clone(), cfg);
        throughput(&mut host, cfg.name, Feed::Batches, 64, 16).images_per_sec()
    };
    let (cpu_ips, gpu_ips) = (reference(HostConfig::xeon_e5()), reference(HostConfig::k4000()));
    println!(
        "references at batch 16:  CPU {cpu_ips:.1} img/s (80 W), GPU {gpu_ips:.1} img/s (80 W)\n"
    );

    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>12} {:>9}",
        "sticks", "img/s", "img/W", "mJ/image", "stick TDP W", "vs GPU"
    );
    let mut cpu_match = None;
    let mut gpu_match = None;
    for n in 1..=16usize {
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(n), &model);
        let images = (n * 8).max(16);
        let run = mv.run_pipeline(images);
        let ips = run.images_per_sec();
        let tdp = 2.5 * n as f64;
        let energy_mj = run.energy_j / images as f64 * 1e3;
        println!(
            "{n:>6} {ips:>9.1} {:>9.2} {energy_mj:>10.1} {tdp:>12.1} {:>8.2}x",
            ips / tdp,
            ips / gpu_ips
        );
        if cpu_match.is_none() && ips >= cpu_ips {
            cpu_match = Some((n, tdp));
        }
        if gpu_match.is_none() && ips >= gpu_ips {
            gpu_match = Some((n, tdp));
        }
    }

    if let Some((n, tdp)) = cpu_match {
        println!(
            "\n→ {n} sticks match the CPU: {tdp:.1} W of stick TDP vs 80 W ({:.1}x reduction; {:.1}x on chip TDP alone)",
            80.0 / tdp,
            80.0 / (0.9 * n as f64)
        );
    }
    if let Some((n, tdp)) = gpu_match {
        println!(
            "→ {n} sticks match the GPU: {tdp:.1} W of stick TDP vs 80 W ({:.1}x reduction; {:.1}x on chip TDP alone)",
            80.0 / tdp,
            80.0 / (0.9 * n as f64)
        );
    }
    println!(
        "\nthe paper's abstract quotes 'similar performance … while reducing\n\
         the TDP up to 8x' — the chip-TDP framing of the CPU match above."
    );
}
