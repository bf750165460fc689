//! Computation offloading: the MPI-style decoupled interface at work.
//!
//! The NCAPI splits inference into a non-blocking `load_tensor` and a
//! blocking `get_result` (paper §II-B: "this model enables the design of
//! decoupled strategies that overlap computations while inference has
//! been offloaded"). This example quantifies that: a host consuming an
//! `MpiStream` of images does `work_ms` of its own processing per image,
//! either serially (load → wait → work) or overlapped (work while the
//! stick runs).
//!
//! ```text
//! cargo run --release --example offload_overlap
//! ```

use std::sync::Arc;
use vpu_coprocessor::data::{DatasetConfig, ValidationSet};
use vpu_coprocessor::framework::{ModelBundle, MpiStream, SourceImage};
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::platform::{Fleet, Ncapi, NcsConfig, Topology};
use vpu_coprocessor::sim::{Duration, SimTime};

/// Host-side processing per image (e.g. decode the next frame, feature
/// post-processing, MPI sends).
const HOST_WORK_MS: f64 = 60.0;
const IMAGES: usize = 15;

fn setup() -> (Ncapi, vpu_coprocessor::platform::GraphHandle, SimTime) {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let mut api = Ncapi::new(Fleet::new(1, Topology::AllRoot, NcsConfig::default()));
    let booted = api.open_device(0, SimTime::ZERO).expect("open");
    let (graph, ready) = api.alloc_graph(0, model.cost16.clone(), booted).expect("alloc");
    (api, graph, ready)
}

fn main() {
    let set = Arc::new(ValidationSet::new(DatasetConfig::ilsvrc_like(
        10,
        IMAGES,
        Variant::Tiny.input_shape(),
        7,
    )));
    let stream = MpiStream::new(set, Duration::from_millis(20.0), IMAGES);
    let work = Duration::from_millis(HOST_WORK_MS);

    // ---- Strategy A: serial (wait for each result before working) -----
    let (mut api, graph, ready) = setup();
    let mut t = ready;
    for i in 0..stream.len() {
        let avail = SimTime::max_of(t, stream.available_at(i));
        let loaded = api.load_tensor(graph, avail).expect("load");
        let res = api.get_result(graph, loaded).expect("result");
        t = res.returned_at + work; // host work happens after the wait
    }
    let serial = t - ready;

    // ---- Strategy B: overlapped (Listing 1 pattern) --------------------
    let (mut api, graph, ready) = setup();
    let mut t = ready;
    for i in 0..stream.len() {
        let avail = SimTime::max_of(t, stream.available_at(i));
        let loaded = api.load_tensor(graph, avail).expect("load");
        // Host work overlaps the on-device inference ...
        let host_done = loaded + work;
        // ... and get_result blocks only for whatever remains.
        let res = api.get_result(graph, host_done).expect("result");
        t = res.returned_at;
    }
    let overlapped = t - ready;

    println!(
        "{} images from an MPI-like stream, {:.0} ms of host work per image:",
        IMAGES, HOST_WORK_MS
    );
    println!("  serial   (load, wait, then work):  {:.1} ms total", serial.as_millis());
    println!("  overlap  (work while VPU runs):    {:.1} ms total", overlapped.as_millis());
    let saved = serial.as_millis() - overlapped.as_millis();
    println!(
        "  saved {:.1} ms ({:.0}% of the host work hidden behind inference)",
        saved,
        saved / (HOST_WORK_MS * IMAGES as f64) * 100.0
    );
    println!(
        "\nper-inference device latency is ~100.7 ms, so up to ~100 ms of host\n\
         work per image rides for free — \"in most cases, by the time that\n\
         the host process has to wait, the inference is already completed\"\n\
         (paper §II-B)."
    );
}
