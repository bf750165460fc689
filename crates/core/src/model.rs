//! A network deployed to every target at once.
//!
//! NCSw loads one Caffe model and deploys it per-target: FP32 for the
//! CPU/GPU paths, an FP16 "graph file" for the NCS (the NCSDK compiler
//! step). [`ModelBundle`] holds all of it: the spec, both compiled
//! networks and both cost profiles. The devices read only the cost
//! profiles; classification runs the compiled networks.

use std::sync::Arc;
use vpu_nn::cost::NetworkCost;
use vpu_nn::googlenet::Variant;
use vpu_nn::graph::{CompiledNetwork, NetworkSpec};
use vpu_nn::weights::Weights;
use vpu_num::f16;
use vpu_tensor::kernels::gemm::AccumMode;

/// One model, deployed at both precisions.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    pub spec: Arc<NetworkSpec>,
    pub net32: Arc<CompiledNetwork<f32>>,
    pub net16: Arc<CompiledNetwork<f16>>,
    pub cost32: Arc<NetworkCost>,
    pub cost16: Arc<NetworkCost>,
}

impl ModelBundle {
    /// Deploy a spec with the given weights. The FP16 network uses
    /// native accumulation (the Myriad's pure-FP16 MAC path); the
    /// `accum16` parameter exists for the accumulation ablation.
    pub fn new(spec: Arc<NetworkSpec>, weights: Weights, accum16: AccumMode) -> Self {
        let net32 =
            Arc::new(CompiledNetwork::<f32>::compile(spec.clone(), &weights, AccumMode::Widened));
        let net16 = Arc::new(CompiledNetwork::<f16>::compile(spec.clone(), &weights, accum16));
        let cost32 = Arc::new(NetworkCost::of::<f32>(&spec));
        let cost16 = Arc::new(NetworkCost::of::<f16>(&spec));
        ModelBundle { spec, net32, net16, cost32, cost16 }
    }

    /// Deploy with the Myriad's default pure-FP16 accumulation.
    pub fn deploy(spec: Arc<NetworkSpec>, weights: Weights) -> Self {
        ModelBundle::new(spec, weights, AccumMode::Native)
    }

    /// Convenience: a GoogLeNet variant with Xavier weights (for timing
    /// experiments, where classification quality is irrelevant).
    pub fn googlenet_untrained(variant: Variant, seed: u64) -> Self {
        let spec = Arc::new(variant.build());
        let weights = vpu_nn::init::xavier(&spec, seed);
        ModelBundle::deploy(spec, weights)
    }

    /// The timing experiments always charge the paper's full-geometry
    /// GoogLeNet work profile, regardless of which variant computes
    /// numerics; FP16 is the precision the NCS executes.
    pub fn paper_cost_fp16() -> Arc<NetworkCost> {
        Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()))
    }

    pub fn classes(&self) -> usize {
        self.spec.output_shape().item_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploys_both_precisions() {
        let m = ModelBundle::googlenet_untrained(Variant::Tiny, 3);
        assert_eq!(m.classes(), 10);
        assert_eq!(m.cost32.total_macs, m.cost16.total_macs);
        assert_eq!(m.cost32.total_weight_bytes(), 2 * m.cost16.total_weight_bytes());
        assert_eq!(m.net16.accum_mode(), AccumMode::Native);
    }

    #[test]
    fn ablation_mode_respected() {
        let spec = Arc::new(vpu_nn::googlenet::tiny());
        let w = vpu_nn::init::xavier(&spec, 1);
        let m = ModelBundle::new(spec, w, AccumMode::Widened);
        assert_eq!(m.net16.accum_mode(), AccumMode::Widened);
    }

    #[test]
    fn paper_cost_is_full_googlenet() {
        let c = ModelBundle::paper_cost_fp16();
        assert!(c.total_macs > 1_300_000_000);
        assert_eq!(c.input_bytes(), 224 * 224 * 3 * 2);
        assert_eq!(c.output_bytes(), 2000);
    }
}
