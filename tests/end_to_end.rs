//! End-to-end integration: dataset → pseudo-training → deployment →
//! NCAPI devices → metrics, across every crate in the workspace.

use std::sync::Arc;
use vpu_coprocessor::data::{pseudo_train, DatasetConfig, ValidationSet};
use vpu_coprocessor::framework::metrics::{accuracy_report, confidence_diff};
use vpu_coprocessor::framework::multivpu::{MultiVpu, MultiVpuConfig};
use vpu_coprocessor::framework::runner::{predictions_fp16, predictions_fp32};
use vpu_coprocessor::framework::{ImageFolder, ModelBundle, SourceImage};
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::obs::{BatchObs, EventLog, Lane};
use vpu_coprocessor::platform::{Fleet, Ncapi, NcsConfig, Topology};
use vpu_coprocessor::serving::{serve, ArrivalProcess, FleetSpec, ServeConfig};
use vpu_coprocessor::sim::SimTime;
use vpu_coprocessor::tensor::{Shape, Tensor};

fn trained() -> (ModelBundle, Arc<ValidationSet>) {
    let variant = Variant::Tiny;
    let spec = Arc::new(variant.build());
    let mut cfg = DatasetConfig::ilsvrc_like(10, 50, variant.input_shape(), 33);
    cfg.sigma = 0.2;
    cfg.distractor_mix = 0.05;
    let set = Arc::new(ValidationSet::new(cfg));
    let weights = pseudo_train(&spec, set.generator(), 33);
    (ModelBundle::deploy(spec, weights), set)
}

#[test]
fn weights_never_reach_a_timing_output() {
    // Two deployments of one spec that differ only in their weights.
    let spec = Arc::new(Variant::Tiny.build());
    let deploy =
        |seed| ModelBundle::deploy(spec.clone(), vpu_coprocessor::nn::init::xavier(&spec, seed));
    let (a, b) = (deploy(1), deploy(2));
    let input = Tensor::<f32>::full(Shape::chw(3, 32, 32), 0.2).quantize_fp16();
    assert_ne!(a.net16().forward(&input), b.net16().forward(&input), "the weights must differ");

    // The multi-stick pipeline: same result instants, same energy bits.
    let pipeline = |m: &ModelBundle| {
        let r = MultiVpu::new(MultiVpuConfig::paper_testbed(3), m).run_pipeline(12);
        (r.result_times, r.energy_j.to_bits())
    };
    assert_eq!(pipeline(&a), pipeline(&b));

    // The serving loop on a mixed fleet: the same outcome.
    let served = |m: &ModelBundle| {
        let mut workers = FleetSpec::parse("cpu+gpu+2xvpu").unwrap().build(m);
        let load = ArrivalProcess::Poisson { rate_per_sec: 150.0 };
        format!("{:?}", serve(&mut workers, &ServeConfig::default(), &load, 120))
    };
    assert_eq!(served(&a), served(&b));
}

#[test]
fn fp32_fp16_accuracy_story_holds_end_to_end() {
    let (model, set) = trained();
    let folders = ImageFolder::all_subsets(set);
    let mut total32 = 0usize;
    let mut total16 = 0usize;
    let mut images = 0usize;
    for f in &folders {
        let p32 = predictions_fp32(&model, f);
        let p16 = predictions_fp16(&model, f);
        let d = confidence_diff(&p32, &p16);
        assert!(d.mean_abs_diff < 0.05, "confidence drift {}", d.mean_abs_diff);
        total32 += accuracy_report("cpu", &p32).wrong;
        total16 += accuracy_report("vpu", &p16).wrong;
        images += f.len();
    }
    let e32 = total32 as f64 / images as f64;
    let e16 = total16 as f64 / images as f64;
    assert!((e32 - e16).abs() < 0.08, "precision gap {e32} vs {e16}");
}

#[test]
fn ncapi_round_trip_with_real_output_payload() {
    let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
    let mut api = Ncapi::new(Fleet::new(1, Topology::AllRoot, NcsConfig::default()));
    api.open_device(0, SimTime::ZERO).unwrap();
    let (g, ready) = api.alloc_graph(0, model.cost16.clone(), SimTime::ZERO).unwrap();

    let loaded = api.load_tensor(g, ready).unwrap();
    let res = api.get_result(g, loaded).unwrap();
    assert!(res.returned_at > loaded);
    assert!(!res.run.layers().is_empty());
}

#[test]
fn eight_device_fleet_reaches_paper_envelope_end_to_end() {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 9);
    let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(8), &model);
    let mut log = EventLog::new();
    let mut obs = BatchObs { rec: &mut log, batch_id: 0, worker: 0, ids: &[] };
    let run = mv.run_pipeline_obs(64, SimTime::ZERO, &mut obs);
    let ips = run.images_per_sec();
    assert!((70.0..85.0).contains(&ips), "8-stick fleet at {ips} img/s");
    // Energy: 64 inferences at ~65-70 mJ each.
    assert!((2.0..8.0).contains(&run.energy_j), "fleet energy {}", run.energy_j);
    // The recorded events must show all 8 chips and their hosts.
    let lanes = log.lanes();
    assert_eq!(lanes.iter().filter(|l| matches!(l, Lane::Vpu { .. })).count(), 8);
    assert_eq!(lanes.iter().filter(|l| matches!(l, Lane::Host { .. })).count(), 8);
}

#[test]
fn umbrella_reexports_are_wired() {
    // Spot-check that every facade module is reachable and consistent.
    let h = vpu_coprocessor::num::f16::from_f32(1.5);
    assert_eq!(h.to_f32(), 1.5);
    let shape = vpu_coprocessor::tensor::Shape::chw(3, 8, 8);
    assert_eq!(shape.len(), 192);
    let spec = vpu_coprocessor::nn::googlenet::tiny();
    assert_eq!(spec.output_shape().item_len(), 10);
    let cfg = vpu_coprocessor::vpu::Myriad2Config::default();
    assert_eq!(cfg.shaves, 12);
    assert_eq!(vpu_coprocessor::hosts::HostConfig::xeon_e5().tdp_w, 80.0);
    assert_eq!(vpu_coprocessor::sim::SimTime::ZERO.nanos(), 0);
}
