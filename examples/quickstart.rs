//! Quickstart: one simulated Neural Compute Stick, end to end.
//!
//! Mirrors the paper's Listing 1 — open a device, allocate a GoogLeNet
//! graph, `load_tensor` (non-blocking), `get_result` (blocking) — with a
//! real classification running through the software-FP16 network. The
//! stick supplies the timing; `vpu-nn` computes what it would output.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use vpu_coprocessor::data::{pseudo_train, DatasetConfig, ValidationSet};
use vpu_coprocessor::framework::{ModelBundle, SourceImage};
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::platform::{Fleet, Ncapi, NcsConfig, Topology};
use vpu_coprocessor::sim::SimTime;

fn main() {
    // ---- Build a model + a small synthetic validation set -------------
    // (Stands in for the BVLC caffemodel + ILSVRC images; see DESIGN.md.)
    let variant = Variant::Tiny;
    let spec = Arc::new(variant.build());
    let mut data_cfg = DatasetConfig::ilsvrc_like(10, 50, variant.input_shape(), 2012);
    data_cfg.sigma = 0.15;
    data_cfg.distractor_mix = 0.05;
    let set = Arc::new(ValidationSet::new(data_cfg));
    let weights = pseudo_train(&spec, set.generator(), 2012);
    let model = ModelBundle::deploy(spec, weights);
    println!(
        "model: {} ({} classes, {:.1} MMAC/inference, {:.1} KB fp16 graph)",
        model.spec.name,
        model.classes(),
        model.cost16.total_macs as f64 / 1e6,
        model.cost16.total_weight_bytes() as f64 / 1e3,
    );

    // ---- NCAPI: enumerate, open, allocate ------------------------------
    let fleet = Fleet::new(1, Topology::AllRoot, NcsConfig::default());
    let mut api = Ncapi::new(fleet);
    println!("devices found: {}", api.enumerate());
    let booted = api.open_device(0, SimTime::ZERO).expect("open");
    println!("device 0 booted at t={booted} (firmware upload + RTOS boot)");
    // The timing experiments use the full-size GoogLeNet cost profile;
    // here we ship the tiny model's own profile to keep the example fast.
    let (graph, ready) = api.alloc_graph(0, model.cost16.clone(), booted).expect("alloc");
    println!("graph allocated at t={ready}");

    // ---- Classify three images, Listing-1 style ------------------------
    let folder = vpu_coprocessor::framework::ImageFolder::new(set.clone(), 0);
    let mut t = ready;
    for i in 0..3 {
        let img = folder.fetch(i);
        // Real FP16 arithmetic — this is what the sticks compute.
        let output = model.net16().forward(&img.pixels.quantize_fp16());
        // mvncLoadTensor: returns once the input crossed USB.
        let loaded = api.load_tensor(graph, t).expect("load");
        // ... the host could overlap other work here ...
        // mvncGetResult: blocks until the inference completed.
        let res = api.get_result(graph, loaded).expect("result");
        let (pred, conf) = output.argmax_item(0);
        let truth = set.synsets().get(img.label);
        let guess = set.synsets().get(pred);
        println!(
            "image {i}: latency {:.1} ms | truth {:<18} -> predicted {:<18} ({:.1}% conf) {}",
            (res.returned_at - t).as_millis(),
            truth.name,
            guess.name,
            conf * 100.0,
            if pred == img.label { "✓" } else { "✗" },
        );
        t = res.returned_at;
    }

    // ---- Per-layer profile (mvncGetGraphOption TIME_TAKEN) -------------
    let loaded = api.load_tensor(graph, t).expect("load");
    let res = api.get_result(graph, loaded).expect("result");
    println!("\nslowest layers of the last run:");
    let mut layers = res.run.layers();
    layers.sort_by_key(|l| std::cmp::Reverse(l.duration()));
    for l in layers.iter().take(5) {
        println!(
            "  {:<28} {:>9} ({}{})",
            l.name,
            format!("{}", l.duration()),
            l.mnemonic,
            if l.on_sipp { ", SIPP" } else { "" },
        );
    }
    println!(
        "\nchip energy for that inference: {:.2} mJ (avg {:.2} W over {:.1} ms)",
        res.run.energy_j * 1e3,
        res.run.energy_j / res.run.duration().as_secs(),
        res.run.duration().as_millis(),
    );
    println!(
        "stick temperature estimate: {:.1} °C (throttles at 80 °C)",
        api.fleet().devices[0].thermal_c()
    );
}
