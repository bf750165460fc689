//! Additional CNN topologies beyond GoogLeNet.
//!
//! The paper's reference \[37\] (Pena et al., "Benchmarking of CNNs for
//! low-cost, low-power robotics applications") measures several networks
//! on the same NCS platform; these builders let the reproduction run that
//! comparison too. Both use only operators the framework already
//! supports:
//!
//! * [`squeezenet_v10`] — SqueezeNet v1.0 (Iandola et al. 2016): fire
//!   modules (1×1 squeeze → parallel 1×1/3×3 expand → concat), ~1.25 M
//!   parameters, a favourite on the NCS because the graph file is tiny.
//! * [`alexnet_one_tower`] — AlexNet in its single-tower formulation
//!   (no grouped convolutions), ~61 M parameters: the classic FC-heavy
//!   contrast to the all-conv networks.

use crate::builder::NetBuilder;
use crate::graph::NetworkSpec;
use vpu_tensor::kernels::lrn::LrnParams;
use vpu_tensor::Shape;

/// SqueezeNet v1.0 fire module: squeeze 1×1 → expand 1×1 ∥ 3×3 → concat.
fn fire(b: &mut NetBuilder, name: &str, input: usize, squeeze: usize, expand: usize) -> usize {
    let s = b.conv(format!("{name}/squeeze1x1"), input, squeeze, 1, 1, 0, true);
    let e1 = b.conv(format!("{name}/expand1x1"), s, expand, 1, 1, 0, true);
    let e3 = b.conv(format!("{name}/expand3x3"), s, expand, 3, 1, 1, true);
    b.concat(format!("{name}/concat"), vec![e1, e3])
}

/// SqueezeNet v1.0 (224×224×3 → 1000 classes).
pub fn squeezenet_v10() -> NetworkSpec {
    squeezenet_v10_with_classes(1000)
}

/// SqueezeNet v1.0 with a custom classifier width.
pub fn squeezenet_v10_with_classes(classes: usize) -> NetworkSpec {
    let mut b = NetBuilder::new("squeezenet_v1.0", Shape::chw(3, 224, 224));
    let x = b.input();
    let c1 = b.conv("conv1", x, 96, 7, 2, 3, true); // 112 (pad 3: v1.0 uses valid 111; keep extent stable)
    let p1 = b.max_pool("pool1", c1, 3, 2, 0); // 56
    let f2 = fire(&mut b, "fire2", p1, 16, 64); // 128ch
    let f3 = fire(&mut b, "fire3", f2, 16, 64);
    let f4 = fire(&mut b, "fire4", f3, 32, 128); // 256ch
    let p4 = b.max_pool("pool4", f4, 3, 2, 0); // 28
    let f5 = fire(&mut b, "fire5", p4, 32, 128);
    let f6 = fire(&mut b, "fire6", f5, 48, 192); // 384ch
    let f7 = fire(&mut b, "fire7", f6, 48, 192);
    let f8 = fire(&mut b, "fire8", f7, 64, 256); // 512ch
    let p8 = b.max_pool("pool8", f8, 3, 2, 0); // 14
    let f9 = fire(&mut b, "fire9", p8, 64, 256);
    let dr = b.dropout("drop9", f9, 0.5);
    // Classifier is a 1x1 conv followed by global average pooling.
    let c10 = b.conv("conv10", dr, classes, 1, 1, 0, true);
    let gap = b.avg_pool("pool10", c10, 14, 1, 0);
    b.softmax("prob", gap);
    b.build()
}

/// AlexNet, single-tower variant (224×224×3 → 1000 classes).
pub fn alexnet_one_tower() -> NetworkSpec {
    alexnet_one_tower_with_classes(1000)
}

/// AlexNet (one tower) with a custom classifier width.
pub fn alexnet_one_tower_with_classes(classes: usize) -> NetworkSpec {
    let mut b = NetBuilder::new("alexnet_one_tower", Shape::chw(3, 224, 224));
    let x = b.input();
    let c1 = b.conv("conv1", x, 96, 11, 4, 2, true); // 54ish
    let n1 = b.lrn("norm1", c1, LrnParams { local_size: 5, alpha: 1e-4, beta: 0.75, k: 2.0 });
    let p1 = b.max_pool("pool1", n1, 3, 2, 0);
    let c2 = b.conv("conv2", p1, 256, 5, 1, 2, true);
    let n2 = b.lrn("norm2", c2, LrnParams { local_size: 5, alpha: 1e-4, beta: 0.75, k: 2.0 });
    let p2 = b.max_pool("pool2", n2, 3, 2, 0);
    let c3 = b.conv("conv3", p2, 384, 3, 1, 1, true);
    let c4 = b.conv("conv4", c3, 384, 3, 1, 1, true);
    let c5 = b.conv("conv5", c4, 256, 3, 1, 1, true);
    let p5 = b.max_pool("pool5", c5, 3, 2, 0); // 6x6
    let f6 = b.dense("fc6", p5, 4096);
    let r6 = b.relu("relu6", f6);
    let d6 = b.dropout("drop6", r6, 0.5);
    let f7 = b.dense("fc7", d6, 4096);
    let r7 = b.relu("relu7", f7);
    let d7 = b.dropout("drop7", r7, 0.5);
    let f8 = b.dense("fc8", d7, classes);
    b.softmax("prob", f8);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NetworkCost;

    #[test]
    fn squeezenet_parameter_count_matches_published() {
        // Iandola et al.: ~1.25 M parameters.
        let cost = NetworkCost::of::<f32>(&squeezenet_v10());
        assert!(
            (1_100_000..1_500_000).contains(&cost.total_params),
            "SqueezeNet params {}",
            cost.total_params
        );
    }

    #[test]
    fn squeezenet_macs_in_published_band() {
        // ~0.7–0.9 GMAC per 224x224 inference for v1.0.
        let cost = NetworkCost::of::<f32>(&squeezenet_v10());
        let g = cost.total_macs as f64 / 1e9;
        assert!((0.55..1.1).contains(&g), "SqueezeNet GMACs {g}");
    }

    #[test]
    fn alexnet_parameter_count_matches_published() {
        // ~61 M parameters, dominated by fc6.
        let cost = NetworkCost::of::<f32>(&alexnet_one_tower());
        assert!(
            (55_000_000..68_000_000).contains(&cost.total_params),
            "AlexNet params {}",
            cost.total_params
        );
    }

    #[test]
    fn alexnet_macs_in_published_band() {
        // Single-tower AlexNet: ~1.1–1.4 GMAC (two-tower is ~0.72).
        let cost = NetworkCost::of::<f32>(&alexnet_one_tower());
        let g = cost.total_macs as f64 / 1e9;
        assert!((0.8..1.6).contains(&g), "AlexNet GMACs {g}");
    }

    #[test]
    fn both_networks_run_a_forward_pass() {
        use crate::graph::CompiledNetwork;
        use std::sync::Arc;
        use vpu_tensor::kernels::gemm::AccumMode;
        use vpu_tensor::{Shape, Tensor};
        // Reduced-class variants keep the test fast but execute the
        // real topologies end to end.
        {
            let spec = Arc::new(squeezenet_v10_with_classes(10));
            let w = crate::init::xavier(&spec, 1);
            let net = CompiledNetwork::<f32>::compile(spec.clone(), &w, AccumMode::Widened);
            let out = net.forward(&Tensor::full(Shape::chw(3, 224, 224), 0.1));
            assert_eq!(out.shape().item_len(), 10);
            assert!(!out.has_nan());
            let sum: f32 = out.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn graph_file_sizes_tell_the_ncs_story() {
        // SqueezeNet's fp16 graph is ~2.5 MB; AlexNet's is ~122 MB —
        // which is why SqueezeNet was the NCS demo darling.
        let sq = NetworkCost::of::<vpu_num::f16>(&squeezenet_v10()).total_weight_bytes();
        let ax = NetworkCost::of::<vpu_num::f16>(&alexnet_one_tower()).total_weight_bytes();
        assert!(sq < 4 << 20, "SqueezeNet graph {sq} B");
        assert!(ax > 100 << 20, "AlexNet graph {ax} B");
    }
}
