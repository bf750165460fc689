//! The paper's headline scenario: eight NCS sticks against the CPU and
//! GPU references, with the Fig. 4 execution timeline.
//!
//! ```text
//! cargo run --release --example multi_vpu_pipeline
//! ```

use vpu_coprocessor::experiments::timeline::timeline_with;
use vpu_coprocessor::framework::{HostConfig, HostTarget, IntelVpu, ModelBundle, TargetDevice};
use vpu_coprocessor::nn::googlenet::Variant;

fn main() {
    // Full-geometry GoogLeNet work profile (weights untrained — only the
    // operation counts matter for throughput).
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = 96;
    let batch = 8;

    println!("processing {images} images, batch {batch} (VPU count coupled to batch)\n");
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut cpu = HostTarget::new(model.clone(), HostConfig::xeon_e5());
    let mut gpu = HostTarget::new(model.clone(), HostConfig::k4000());
    let mut vpu = IntelVpu::new(model.clone(), batch);
    for target in [&mut cpu as &mut dyn TargetDevice, &mut gpu, &mut vpu] {
        let r = target.run_throughput(images, batch);
        rows.push((
            target.name().to_string(),
            r.images_per_sec(),
            r.per_image_ms(),
            r.images_per_watt(target.tdp_w(batch)),
        ));
    }
    println!("{:<6} {:>9} {:>10} {:>8}", "target", "img/s", "ms/image", "img/W");
    for (name, ips, ms, ipw) in &rows {
        println!("{name:<6} {ips:>9.1} {ms:>10.2} {ipw:>8.2}");
    }
    let vpu_row = &rows[2];
    let cpu_row = &rows[0];
    println!(
        "\n8 sticks deliver {:.1}x the CPU throughput at {:.0}% of its TDP budget",
        vpu_row.1 / cpu_row.1,
        8.0 * 2.5 / 80.0 * 100.0
    );

    // ---- Fig. 4 timeline on four sticks --------------------------------
    println!();
    timeline_with(4, 8).print();
    println!("  l = load (USB in), r = read result, e = on-chip execution");
}
