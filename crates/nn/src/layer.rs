//! Layer kinds and graph nodes.

use serde::{Deserialize, Serialize};
use vpu_tensor::kernels::conv::ConvParams;
use vpu_tensor::kernels::lrn::LrnParams;
use vpu_tensor::kernels::pool::PoolParams;
use vpu_tensor::Shape;

/// Operator executed by a graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerKind {
    /// Graph entry point; carries no computation.
    Input,
    /// Convolution; `fused_relu` folds the activation into the kernel the
    /// way Caffe and the NCSDK compiler both do.
    Conv { params: ConvParams, fused_relu: bool },
    /// Stand-alone ReLU (used when the activation cannot be fused).
    Relu,
    /// Max/avg spatial pooling.
    Pool(PoolParams),
    /// Across-channel local response normalization.
    Lrn(LrnParams),
    /// Channel-wise concatenation of all inputs (inception join).
    Concat,
    /// Dropout: a no-op at inference, kept so the topology matches the
    /// deploy prototxt and so per-layer listings line up with Caffe's.
    Dropout { ratio: f32 },
    /// Fully connected layer.
    Dense { out_features: usize },
    /// Softmax over flattened features.
    Softmax,
}

impl LayerKind {
    /// Does this node carry learnable weights?
    pub fn has_weights(&self) -> bool {
        matches!(self, LayerKind::Conv { .. } | LayerKind::Dense { .. })
    }

    /// Short operator mnemonic used in profiles and traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            LayerKind::Input => "input",
            LayerKind::Conv { .. } => "conv",
            LayerKind::Relu => "relu",
            LayerKind::Pool(p) => match p.kind {
                vpu_tensor::kernels::pool::PoolKind::Max => "maxpool",
                vpu_tensor::kernels::pool::PoolKind::Avg => "avgpool",
            },
            LayerKind::Lrn(_) => "lrn",
            LayerKind::Concat => "concat",
            LayerKind::Dropout { .. } => "dropout",
            LayerKind::Dense { .. } => "fc",
            LayerKind::Softmax => "softmax",
        }
    }

    /// Output shape given the input shapes (batch preserved).
    ///
    /// Fails on malformed graphs: wrong input arity, mismatched concat
    /// extents or a window that does not fit — the same conditions the
    /// NCSDK graph compiler rejects.
    pub fn infer_shape(&self, inputs: &[Shape]) -> Result<Shape, String> {
        match self {
            LayerKind::Input => Err("the input layer's shape comes from the spec".into()),
            LayerKind::Concat => {
                let first = *inputs.first().ok_or("concat needs at least one input")?;
                let mut c = 0usize;
                for s in inputs {
                    if (s.n, s.h, s.w) != (first.n, first.h, first.w) {
                        return Err("concat inputs must agree on batch and spatial extents".into());
                    }
                    c = c.checked_add(s.c).ok_or("concat channel count overflows")?;
                }
                Ok(Shape::new(first.n, c, first.h, first.w))
            }
            kind => {
                let &[s] = inputs else {
                    return Err(format!("{} takes exactly one input", kind.mnemonic()));
                };
                match kind {
                    LayerKind::Conv { params, .. } => params.try_out_shape(s),
                    LayerKind::Pool(p) => p.try_out_shape(s),
                    LayerKind::Dense { out_features } => Ok(Shape::vector(s.n, *out_features)),
                    _ => Ok(s),
                }
            }
        }
    }

    /// Multiply-accumulate count per batch item (0 for non-MAC layers).
    pub fn macs(&self, input: Shape) -> u64 {
        match self {
            LayerKind::Conv { params, .. } => params.macs(input.with_batch(1)),
            LayerKind::Dense { out_features } => (input.item_len() * out_features) as u64,
            _ => 0,
        }
    }

    /// Non-MAC arithmetic/compare operations per batch item.
    pub fn aux_ops(&self, input: Shape) -> u64 {
        let item = input.with_batch(1);
        match self {
            LayerKind::Relu => item.len() as u64,
            LayerKind::Pool(p) => p.ops(item),
            LayerKind::Lrn(p) => p.ops(item),
            LayerKind::Softmax => 3 * item.len() as u64,
            LayerKind::Conv { fused_relu: true, params } => params.out_shape(item).len() as u64,
            _ => 0,
        }
    }

    /// Learnable parameter count.
    pub fn param_count(&self, input: Shape) -> u64 {
        match self {
            LayerKind::Conv { params, .. } => {
                (params.weight_len(input.c) + params.out_channels) as u64
            }
            LayerKind::Dense { out_features } => {
                (input.item_len() * out_features + out_features) as u64
            }
            _ => 0,
        }
    }
}

/// One node in the network DAG. Nodes are stored in topological order;
/// `inputs` are indices of earlier nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub name: String,
    pub kind: LayerKind,
    pub inputs: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_tensor::kernels::pool::PoolKind;

    #[test]
    fn shape_inference_conv() {
        let k = LayerKind::Conv { params: ConvParams::new(64, 7, 2, 3), fused_relu: true };
        let out = k.infer_shape(&[Shape::new(8, 3, 224, 224)]).unwrap();
        assert_eq!(out, Shape::new(8, 64, 112, 112));
    }

    #[test]
    fn shape_inference_concat() {
        let k = LayerKind::Concat;
        let out = k.infer_shape(&[
            Shape::new(1, 64, 28, 28),
            Shape::new(1, 128, 28, 28),
            Shape::new(1, 32, 28, 28),
            Shape::new(1, 32, 28, 28),
        ]);
        let out = out.unwrap();
        assert_eq!(out, Shape::new(1, 256, 28, 28));
    }

    #[test]
    fn concat_rejects_mismatched_extents() {
        let err = LayerKind::Concat
            .infer_shape(&[Shape::new(1, 64, 28, 28), Shape::new(1, 64, 14, 14)])
            .unwrap_err();
        assert!(err.contains("concat inputs must agree"), "{err}");
    }

    #[test]
    fn shape_inference_passthrough_kinds() {
        let s = Shape::new(2, 16, 10, 10);
        assert_eq!(LayerKind::Relu.infer_shape(&[s]), Ok(s));
        assert_eq!(LayerKind::Dropout { ratio: 0.4 }.infer_shape(&[s]), Ok(s));
        assert_eq!(LayerKind::Lrn(LrnParams::googlenet()).infer_shape(&[s]), Ok(s));
        assert_eq!(LayerKind::Softmax.infer_shape(&[s]), Ok(s));
    }

    #[test]
    fn shape_inference_dense_flattens() {
        let k = LayerKind::Dense { out_features: 1000 };
        assert_eq!(k.infer_shape(&[Shape::new(4, 1024, 1, 1)]), Ok(Shape::vector(4, 1000)));
        assert_eq!(k.infer_shape(&[Shape::new(1, 2, 3, 3)]), Ok(Shape::vector(1, 1000)));
    }

    #[test]
    fn unary_arity_enforced() {
        let err = LayerKind::Relu
            .infer_shape(&[Shape::new(1, 1, 1, 1), Shape::new(1, 1, 1, 1)])
            .unwrap_err();
        assert!(err.contains("exactly one input"), "{err}");
    }

    #[test]
    fn macs_and_params() {
        let conv = LayerKind::Conv { params: ConvParams::new(64, 7, 2, 3), fused_relu: false };
        let s = Shape::new(1, 3, 224, 224);
        assert_eq!(conv.macs(s), 64 * 112 * 112 * 3 * 49);
        assert_eq!(conv.param_count(s), (64 * 3 * 49 + 64) as u64);
        let fc = LayerKind::Dense { out_features: 1000 };
        let fs = Shape::new(1, 1024, 1, 1);
        assert_eq!(fc.macs(fs), 1_024_000);
        assert_eq!(fc.param_count(fs), 1_025_000);
        assert_eq!(LayerKind::Relu.macs(s), 0);
    }

    #[test]
    fn aux_ops_nonzero_for_activations() {
        let s = Shape::new(1, 8, 4, 4);
        assert_eq!(LayerKind::Relu.aux_ops(s), 128);
        assert!(LayerKind::Pool(PoolParams::new(PoolKind::Max, 2, 2, 0)).aux_ops(s) > 0);
        assert!(LayerKind::Lrn(LrnParams::googlenet()).aux_ops(s) > 0);
        assert_eq!(LayerKind::Dropout { ratio: 0.4 }.aux_ops(s), 0);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(LayerKind::Input.mnemonic(), "input");
        assert_eq!(LayerKind::Pool(PoolParams::new(PoolKind::Avg, 7, 1, 0)).mnemonic(), "avgpool");
        assert_eq!(LayerKind::Concat.mnemonic(), "concat");
    }

    #[test]
    fn weights_flag() {
        assert!(LayerKind::Conv { params: ConvParams::new(1, 1, 1, 0), fused_relu: false }
            .has_weights());
        assert!(LayerKind::Dense { out_features: 10 }.has_weights());
        assert!(!LayerKind::Relu.has_weights());
        assert!(!LayerKind::Concat.has_weights());
    }
}
