//! The paper's headline scenario: eight NCS sticks against the CPU and
//! GPU references, with the Fig. 4 execution timeline.
//!
//! ```text
//! cargo run --release --example multi_vpu_pipeline
//! ```

use vpu_coprocessor::experiments::timeline::timeline_with;
use vpu_coprocessor::framework::runner::{throughput, Feed};
use vpu_coprocessor::framework::{HostConfig, HostTarget, IntelVpu, ModelBundle, ServiceHook};
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::obs::watts;

fn main() {
    // Full-geometry GoogLeNet work profile (weights untrained — only the
    // operation counts matter for throughput).
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = 96;
    let batch = 8;

    println!("processing {images} images, batch {batch} (VPU count coupled to batch)\n");
    // (target, img/s, ms/image, TDP W)
    let mut rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    let targets: [(&str, Box<dyn ServiceHook>, Feed); 3] = [
        ("cpu", Box::new(HostTarget::new(model.clone(), HostConfig::xeon_e5())), Feed::Batches),
        ("gpu", Box::new(HostTarget::new(model.clone(), HostConfig::k4000())), Feed::Batches),
        ("vpu", Box::new(IntelVpu::new(model.clone(), batch)), Feed::Stream),
    ];
    for (name, mut target, feed) in targets {
        let r = throughput(target.as_mut(), name, feed, images, batch);
        let tdp_w = watts(target.energy_profile().tdp_mw);
        rows.push((name, r.images_per_sec(), r.per_image_ms(), tdp_w));
    }
    println!("{:<6} {:>9} {:>10} {:>8}", "target", "img/s", "ms/image", "img/W");
    for (name, ips, ms, tdp_w) in &rows {
        println!("{name:<6} {ips:>9.1} {ms:>10.2} {:>8.2}", ips / tdp_w);
    }
    let vpu_row = &rows[2];
    let cpu_row = &rows[0];
    println!(
        "\n8 sticks deliver {:.1}x the CPU throughput at {:.0}% of its TDP budget",
        vpu_row.1 / cpu_row.1,
        vpu_row.3 / cpu_row.3 * 100.0
    );

    // ---- Fig. 4 timeline on four sticks --------------------------------
    println!();
    timeline_with(4, 8).print();
    println!("  l = load (USB in), r = read result, e = on-chip execution");
}
