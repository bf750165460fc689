//! GoogLeNet topologies.
//!
//! [`full`] is the BVLC GoogLeNet deploy network of Szegedy et al. (the
//! model the paper runs): 224×224×3 input, 9 inception modules, ~6.8 M
//! parameters, ~1.58 G multiply-accumulates per inference. The two
//! auxiliary classifiers of the training graph are omitted — the deploy
//! prototxt the paper uses omits them too.
//!
//! [`mini`] and [`tiny`] are geometry-reduced variants with the identical
//! operator mix (conv/LRN/inception/avg-pool/FC/softmax). They exist
//! because this reproduction executes real arithmetic on a laptop-scale
//! machine: the accuracy experiments (paper Fig. 7) run tens of thousands
//! of inferences twice (FP32 + FP16), which is tractable at mini scale and
//! preserves the phenomenon under study (FP16 rounding across a deep
//! inception network). The *timing* experiments always use the full
//! network's operation counts.

use crate::builder::NetBuilder;
use crate::graph::NetworkSpec;
use serde::{Deserialize, Serialize};
use vpu_tensor::kernels::lrn::LrnParams;
use vpu_tensor::Shape;

/// Which GoogLeNet geometry to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// 224×224 BVLC GoogLeNet, 1000 classes (paper configuration).
    Full,
    /// 64×64 input, channels ÷4, 4 inception modules, 200 classes.
    Mini,
    /// 32×32 input, minimal channels, 2 inception modules, 10 classes.
    Tiny,
}

impl Variant {
    pub fn input_shape(self) -> Shape {
        match self {
            Variant::Full => Shape::chw(3, 224, 224),
            Variant::Mini => Shape::chw(3, 64, 64),
            Variant::Tiny => Shape::chw(3, 32, 32),
        }
    }

    pub fn classes(self) -> usize {
        match self {
            Variant::Full => 1000,
            Variant::Mini => 200,
            Variant::Tiny => 10,
        }
    }

    pub fn build(self) -> NetworkSpec {
        self.build_with_classes(self.classes())
    }

    /// Build with a custom classifier width (the synthetic accuracy
    /// datasets scale class count with experiment scale).
    pub fn build_with_classes(self, classes: usize) -> NetworkSpec {
        match self {
            Variant::Full => full_with_classes(classes),
            Variant::Mini => mini_with_classes(classes),
            Variant::Tiny => tiny_with_classes(classes),
        }
    }
}

/// BVLC GoogLeNet (deploy topology, inference path only).
pub fn full() -> NetworkSpec {
    full_with_classes(1000)
}

/// BVLC GoogLeNet with a custom classifier width.
pub fn full_with_classes(classes: usize) -> NetworkSpec {
    let mut b = NetBuilder::new("bvlc_googlenet", Shape::chw(3, 224, 224));
    let x = b.input();
    let c1 = b.conv("conv1/7x7_s2", x, 64, 7, 2, 3, true); // 112
    let p1 = b.max_pool("pool1/3x3_s2", c1, 3, 2, 0); // 56
    let n1 = b.lrn("pool1/norm1", p1, LrnParams::googlenet());
    let c2r = b.conv("conv2/3x3_reduce", n1, 64, 1, 1, 0, true);
    let c2 = b.conv("conv2/3x3", c2r, 192, 3, 1, 1, true);
    let n2 = b.lrn("conv2/norm2", c2, LrnParams::googlenet());
    let p2 = b.max_pool("pool2/3x3_s2", n2, 3, 2, 0); // 28

    let i3a = b.inception("inception_3a", p2, 64, 96, 128, 16, 32, 32); // 256
    let i3b = b.inception("inception_3b", i3a, 128, 128, 192, 32, 96, 64); // 480
    let p3 = b.max_pool("pool3/3x3_s2", i3b, 3, 2, 0); // 14

    let i4a = b.inception("inception_4a", p3, 192, 96, 208, 16, 48, 64); // 512
    let i4b = b.inception("inception_4b", i4a, 160, 112, 224, 24, 64, 64); // 512
    let i4c = b.inception("inception_4c", i4b, 128, 128, 256, 24, 64, 64); // 512
    let i4d = b.inception("inception_4d", i4c, 112, 144, 288, 32, 64, 64); // 528
    let i4e = b.inception("inception_4e", i4d, 256, 160, 320, 32, 128, 128); // 832
    let p4 = b.max_pool("pool4/3x3_s2", i4e, 3, 2, 0); // 7

    let i5a = b.inception("inception_5a", p4, 256, 160, 320, 32, 128, 128); // 832
    let i5b = b.inception("inception_5b", i5a, 384, 192, 384, 48, 128, 128); // 1024

    let p5 = b.avg_pool("pool5/7x7_s1", i5b, 7, 1, 0); // 1x1
    let dr = b.dropout("pool5/drop_7x7_s1", p5, 0.4);
    let fc = b.dense("loss3/classifier", dr, classes);
    b.softmax("prob", fc);
    b.build()
}

/// Reduced GoogLeNet: 64×64 input, quarter channels, stages 3 and 4 with
/// two inception modules each. Used for paper-scale accuracy sweeps.
pub fn mini() -> NetworkSpec {
    mini_with_classes(200)
}

/// Mini GoogLeNet with a custom classifier width.
pub fn mini_with_classes(classes: usize) -> NetworkSpec {
    let mut b = NetBuilder::new("mini_googlenet", Shape::chw(3, 64, 64));
    let x = b.input();
    let c1 = b.conv("conv1/3x3_s2", x, 16, 3, 2, 1, true); // 32
    let p1 = b.max_pool("pool1/3x3_s2", c1, 3, 2, 0); // 16
    let n1 = b.lrn("pool1/norm1", p1, LrnParams::googlenet());
    let c2r = b.conv("conv2/3x3_reduce", n1, 16, 1, 1, 0, true);
    let c2 = b.conv("conv2/3x3", c2r, 48, 3, 1, 1, true);
    let n2 = b.lrn("conv2/norm2", c2, LrnParams::googlenet());
    let p2 = b.max_pool("pool2/3x3_s2", n2, 3, 2, 0); // 8

    let i3a = b.inception("inception_3a", p2, 16, 24, 32, 4, 8, 8); // 64
    let i3b = b.inception("inception_3b", i3a, 32, 32, 48, 8, 24, 16); // 120
    let p3 = b.max_pool("pool3/3x3_s2", i3b, 3, 2, 0); // 4

    let i4a = b.inception("inception_4a", p3, 48, 24, 52, 4, 12, 16); // 128
    let i4b = b.inception("inception_4b", i4a, 64, 48, 96, 12, 32, 32); // 224

    let p5 = b.avg_pool("pool5/4x4_s1", i4b, 4, 1, 0); // 1x1
    let dr = b.dropout("pool5/drop", p5, 0.4);
    let fc = b.dense("loss3/classifier", dr, classes);
    b.softmax("prob", fc);
    b.build()
}

/// Smallest faithful topology for unit tests: still conv → LRN →
/// inception ×2 → global pool → FC → softmax.
pub fn tiny() -> NetworkSpec {
    tiny_with_classes(10)
}

/// Tiny GoogLeNet with a custom classifier width.
pub fn tiny_with_classes(classes: usize) -> NetworkSpec {
    let mut b = NetBuilder::new("tiny_googlenet", Shape::chw(3, 32, 32));
    let x = b.input();
    let c1 = b.conv("conv1/3x3_s2", x, 8, 3, 2, 1, true); // 16
    let n1 = b.lrn("norm1", c1, LrnParams::googlenet());
    let p1 = b.max_pool("pool1/3x3_s2", n1, 3, 2, 0); // 8
    let i2a = b.inception("inception_2a", p1, 8, 8, 12, 2, 4, 4); // 28
    let i2b = b.inception("inception_2b", i2a, 12, 8, 16, 4, 8, 8); // 44
    let p5 = b.avg_pool("pool5/8x8_s1", i2b, 8, 1, 0);
    let fc = b.dense("classifier", p5, classes);
    b.softmax("prob", fc);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NetworkCost;

    #[test]
    fn full_shapes_match_szegedy_table1() {
        let spec = full();
        let shapes = spec.infer_shapes();
        let at = |name: &str| shapes[spec.node_index(name).unwrap()];
        assert_eq!(at("conv1/7x7_s2"), Shape::new(1, 64, 112, 112));
        assert_eq!(at("pool1/3x3_s2"), Shape::new(1, 64, 56, 56));
        assert_eq!(at("conv2/3x3"), Shape::new(1, 192, 56, 56));
        assert_eq!(at("pool2/3x3_s2"), Shape::new(1, 192, 28, 28));
        assert_eq!(at("inception_3a/output"), Shape::new(1, 256, 28, 28));
        assert_eq!(at("inception_3b/output"), Shape::new(1, 480, 28, 28));
        assert_eq!(at("pool3/3x3_s2"), Shape::new(1, 480, 14, 14));
        assert_eq!(at("inception_4a/output"), Shape::new(1, 512, 14, 14));
        assert_eq!(at("inception_4e/output"), Shape::new(1, 832, 14, 14));
        assert_eq!(at("pool4/3x3_s2"), Shape::new(1, 832, 7, 7));
        assert_eq!(at("inception_5b/output"), Shape::new(1, 1024, 7, 7));
        assert_eq!(at("pool5/7x7_s1"), Shape::new(1, 1024, 1, 1));
        assert_eq!(spec.output_shape(), Shape::vector(1, 1000));
    }

    #[test]
    fn full_parameter_count_matches_published() {
        // BVLC GoogLeNet has ~6.99 M parameters (13.4 MB caffemodel @fp16).
        let spec = full();
        let cost = NetworkCost::of::<f32>(&spec);
        let params = cost.total_params;
        assert!(
            (6_500_000..7_200_000).contains(&params),
            "parameter count {params} out of expected range"
        );
    }

    #[test]
    fn full_mac_count_matches_published() {
        // Szegedy et al. report ~1.5 G multiply-adds for one inference.
        let spec = full();
        let cost = NetworkCost::of::<f32>(&spec);
        let gmacs = cost.total_macs as f64 / 1e9;
        assert!((1.3..1.8).contains(&gmacs), "GMACs {gmacs} out of expected range");
    }

    #[test]
    fn variants_build_and_classify() {
        for v in [Variant::Full, Variant::Mini, Variant::Tiny] {
            let spec = v.build();
            assert_eq!(spec.input_shape, v.input_shape());
            assert_eq!(spec.output_shape().item_len(), v.classes());
        }
    }

    #[test]
    fn custom_classifier_width() {
        for v in [Variant::Full, Variant::Mini, Variant::Tiny] {
            let spec = v.build_with_classes(37);
            assert_eq!(spec.output_shape().item_len(), 37);
        }
    }

    #[test]
    fn mini_is_much_cheaper_than_full() {
        let full_cost = NetworkCost::of::<f32>(&full()).total_macs;
        let mini_cost = NetworkCost::of::<f32>(&mini()).total_macs;
        assert!(mini_cost * 20 < full_cost, "mini {mini_cost} vs full {full_cost}");
    }

    #[test]
    fn nine_inception_modules_in_full() {
        let spec = full();
        let concats = spec.nodes.iter().filter(|n| n.name.ends_with("/output")).count();
        assert_eq!(concats, 9);
    }
}
