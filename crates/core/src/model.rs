//! A network deployed to every target at once.
//!
//! NCSw loads one Caffe model and deploys it per-target: FP32 for the
//! CPU/GPU paths, an FP16 "graph file" for the NCS (the NCSDK compiler
//! step). [`ModelBundle`] holds all of it: the spec, both cost profiles
//! and both compiled networks. The devices read only the cost profiles,
//! which always exist; classification runs the compiled networks, which
//! are compiled on first use ([`ModelBundle::net32`]/[`ModelBundle::net16`])
//! in one cell that every clone shares. [`ModelBundle::new`] compiles
//! before it returns, so a bundle deployed with real weights never pays
//! the compile inside a timed classification.

use std::sync::{Arc, OnceLock};
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
    pub cost32: Arc<NetworkCost>,
    pub cost16: Arc<NetworkCost>,
    nets: Arc<OnceLock<Networks>>,
    /// Seed of the Xavier weights the networks are compiled from if the
    /// cell is still empty when something classifies ([`ModelBundle::new`]
    /// fills it before returning, so only untrained bundles use this).
    xavier_seed: u64,
}

#[derive(Debug)]
struct Networks {
    net32: CompiledNetwork<f32>,
    net16: CompiledNetwork<f16>,
}

impl Networks {
    fn compile(spec: &Arc<NetworkSpec>, weights: &Weights, accum16: AccumMode) -> Self {
        Networks {
            net32: CompiledNetwork::compile(spec.clone(), weights, AccumMode::Widened),
            net16: CompiledNetwork::compile(spec.clone(), weights, accum16),
        }
    }
}

impl ModelBundle {
    /// Deploy a spec with the given weights, compiling both networks
    /// now. The FP16 network uses native accumulation (the Myriad's
    /// pure-FP16 MAC path); the `accum16` parameter exists for the
    /// accumulation ablation.
    pub fn new(spec: Arc<NetworkSpec>, weights: Weights, accum16: AccumMode) -> Self {
        let nets = Networks::compile(&spec, &weights, accum16);
        ModelBundle { nets: Arc::new(OnceLock::from(nets)), ..ModelBundle::uncompiled(spec, 0) }
    }

    /// Deploy with the Myriad's default pure-FP16 accumulation.
    pub fn deploy(spec: Arc<NetworkSpec>, weights: Weights) -> Self {
        ModelBundle::new(spec, weights, AccumMode::Native)
    }

    /// A GoogLeNet variant with Xavier weights (for timing experiments,
    /// where classification quality is irrelevant). Builds only the spec
    /// and the cost profiles; the weights are drawn and compiled the
    /// first time something classifies.
    pub fn googlenet_untrained(variant: Variant, seed: u64) -> Self {
        ModelBundle::uncompiled(Arc::new(variant.build()), seed)
    }

    fn uncompiled(spec: Arc<NetworkSpec>, xavier_seed: u64) -> Self {
        let cost32 = Arc::new(NetworkCost::of::<f32>(&spec));
        let cost16 = Arc::new(NetworkCost::of::<f16>(&spec));
        ModelBundle { spec, cost32, cost16, nets: Arc::default(), xavier_seed }
    }

    fn nets(&self) -> &Networks {
        self.nets.get_or_init(|| {
            let weights = vpu_nn::init::xavier(&self.spec, self.xavier_seed);
            Networks::compile(&self.spec, &weights, AccumMode::Native)
        })
    }

    /// The FP32 network (CPU/GPU paths), compiled on first use.
    pub fn net32(&self) -> &CompiledNetwork<f32> {
        &self.nets().net32
    }

    /// The FP16 graph (NCS path), compiled on first use.
    pub fn net16(&self) -> &CompiledNetwork<f16> {
        &self.nets().net16
    }

    /// Whether the networks have been compiled yet (by this bundle or
    /// any clone of it).
    #[doc(hidden)]
    pub fn compiled(&self) -> bool {
        self.nets.get().is_some()
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
    use crate::multivpu::MultiVpuConfig;
    use crate::service::ServiceHook;
    use crate::target::{HostTarget, IntelVpu};
    use desim::SimTime;
    use hostsim::HostConfig;
    use vpu_tensor::Tensor;

    #[test]
    fn deploys_both_precisions() {
        let m = ModelBundle::googlenet_untrained(Variant::Tiny, 3);
        assert_eq!(m.classes(), 10);
        assert_eq!(m.cost32.total_macs, m.cost16.total_macs);
        assert_eq!(m.cost32.total_weight_bytes(), 2 * m.cost16.total_weight_bytes());
        assert_eq!(m.net16().accum_mode(), AccumMode::Native);
    }

    #[test]
    fn ablation_mode_respected() {
        let spec = Arc::new(vpu_nn::googlenet::tiny());
        let w = vpu_nn::init::xavier(&spec, 1);
        let m = ModelBundle::new(spec, w, AccumMode::Widened);
        assert_eq!(m.net16().accum_mode(), AccumMode::Widened);
    }

    #[test]
    fn timing_paths_never_compile_weights() {
        let m = ModelBundle::googlenet_untrained(Variant::Full, 1);
        let mut workers: Vec<Box<dyn ServiceHook>> = vec![
            Box::new(HostTarget::new(m.clone(), HostConfig::xeon_e5())),
            Box::new(HostTarget::new(m.clone(), HostConfig::k4000())),
            Box::new(IntelVpu::with_config(m.clone(), MultiVpuConfig::paper_testbed(8))),
        ];
        for w in &mut workers {
            let batch = w.preferred_batch();
            assert!(w.estimate(batch).as_millis() > 0.0);
            assert_eq!(w.serve(batch, SimTime::ZERO).done.len(), batch);
        }
        assert!(!m.compiled(), "timing a batch must not compile the networks");
    }

    #[test]
    fn lazy_networks_equal_eager_ones() {
        for variant in [Variant::Tiny, Variant::Full] {
            let lazy = ModelBundle::googlenet_untrained(variant, 7);
            let spec = Arc::new(variant.build());
            let eager = ModelBundle::deploy(spec.clone(), vpu_nn::init::xavier(&spec, 7));
            let input = Tensor::<f32>::full(variant.input_shape(), 0.3);
            let fp32 = |m: &ModelBundle| -> Vec<u32> {
                m.net32().forward(&input).as_slice().iter().map(|v| v.to_bits()).collect()
            };
            let input = input.quantize_fp16();
            let fp16 = |m: &ModelBundle| -> Vec<u16> {
                m.net16().forward(&input).as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(fp32(&lazy), fp32(&eager), "{variant:?} FP32");
            assert_eq!(fp16(&lazy), fp16(&eager), "{variant:?} FP16");
        }
    }

    #[test]
    fn clones_share_one_compile() {
        let m = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
        let clone = m.clone();
        assert!(!m.compiled());
        clone.net16();
        assert!(m.compiled(), "compiling through a clone compiles the original");
        assert!(std::ptr::eq(m.net32(), clone.net32()), "one compile per bundle");
    }

    #[test]
    fn deploy_returns_a_compiled_bundle() {
        let spec = Arc::new(vpu_nn::googlenet::tiny());
        let m = ModelBundle::deploy(spec.clone(), vpu_nn::init::xavier(&spec, 1));
        assert!(m.compiled());
    }

    #[test]
    fn paper_cost_is_full_googlenet() {
        let c = ModelBundle::paper_cost_fp16();
        assert!(c.total_macs > 1_300_000_000);
        assert_eq!(c.input_bytes(), 224 * 224 * 3 * 2);
        assert_eq!(c.output_bytes(), 2000);
    }
}
