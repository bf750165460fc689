//! The full deployment toolchain, end to end — what `mvNCCompile` does:
//!
//! 1. parse a Caffe deploy **prototxt** (written the explicit way, with
//!    stand-alone ReLU and Dropout layers);
//! 2. run the **graph-compiler passes** (fuse ReLU into convolutions,
//!    drop inference no-ops);
//! 3. quantize the weights and emit the binary **graph file**;
//! 4. upload it to a simulated stick via the NCAPI and classify.
//!
//! ```text
//! cargo run --release --example deploy_toolchain
//! ```

use std::sync::Arc;
use vpu_coprocessor::framework::ModelBundle;
use vpu_coprocessor::nn::{init, optimize, prototxt};
use vpu_coprocessor::platform::graphfile;
use vpu_coprocessor::platform::{Fleet, Ncapi, NcsConfig, Topology};
use vpu_coprocessor::sim::SimTime;
use vpu_coprocessor::tensor::{Shape, Tensor};

const DEPLOY_PROTOTXT: &str = r#"
name: "lenet-ish"
input: "data"
input_dim: 1
input_dim: 3
input_dim: 28
input_dim: 28
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param { num_output: 8 kernel_size: 5 pad: 2 }
}
layer { name: "relu1" type: "ReLU" bottom: "conv1" top: "conv1" }
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "relu1"
  top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "conv2"
  type: "Convolution"
  bottom: "pool1"
  top: "conv2"
  convolution_param { num_output: 16 kernel_size: 3 pad: 1 }
}
layer { name: "relu2" type: "ReLU" bottom: "conv2" top: "conv2" }
layer { name: "drop" type: "Dropout" bottom: "relu2" top: "drop" dropout_param { dropout_ratio: 0.4 } }
layer {
  name: "fc"
  type: "InnerProduct"
  bottom: "drop"
  top: "fc"
  inner_product_param { num_output: 10 }
}
layer { name: "prob" type: "Softmax" bottom: "fc" top: "prob" }
"#;

fn main() {
    // 1. Parse.
    let spec = prototxt::parse(DEPLOY_PROTOTXT).expect("parse deploy prototxt");
    println!("parsed '{}': {} layers", spec.name, spec.nodes.len());

    // 2. Optimize.
    let (opt, stats) = optimize::optimize(&spec);
    println!(
        "compiler passes: {} ReLU(s) fused, {} dropout(s) dropped -> {} layers",
        stats.relus_fused,
        stats.dropouts_dropped,
        opt.nodes.len()
    );

    // 3. Compile the graph file.
    let opt = Arc::new(opt);
    let weights = init::xavier(&opt, 42);
    let blob = graphfile::compile(&opt, &weights);
    println!("graph file: {} bytes (fp16 weights + metadata + checksum)", blob.len());
    let parsed = graphfile::parse(&blob).expect("graph file round trip");
    println!(
        "  validated: '{}', input {:?}, {} weighted layers",
        parsed.name,
        parsed.input,
        parsed.layers.len()
    );

    // 4. Deploy the *blob itself* to a stick and classify one input.
    // The output is computed from exactly the weights the graph file
    // carries (already binary16-rounded); the stick times the run, and
    // the USB link is charged the real blob size.
    let model = ModelBundle::deploy(opt.clone(), parsed.to_weights());
    let mut api = Ncapi::new(Fleet::new(1, Topology::AllRoot, NcsConfig::default()));
    api.open_device(0, SimTime::ZERO).expect("open");
    let (graph, ready) = api.alloc_compiled(0, &opt, &blob, SimTime::ZERO).expect("alloc");

    let input = Tensor::<f32>::from_fn(Shape::chw(3, 28, 28), |_, c, h, w| {
        ((h * 28 + w + c * 7) % 19) as f32 / 19.0 - 0.4
    });
    let output = model.net16().forward(&input.quantize_fp16());
    let loaded = api.load_tensor(graph, ready).expect("load");
    let res = api.get_result(graph, loaded).expect("result");
    let (pred, conf) = output.argmax_item(0);
    println!(
        "\ninference on the stick: class {pred} at {:.1}% confidence, {:.2} ms end to end",
        conf * 100.0,
        (res.returned_at - ready).as_millis()
    );
    println!("toolchain complete: prototxt -> passes -> graph file -> NCAPI -> result");
}
