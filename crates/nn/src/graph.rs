//! Network DAG specification and the precision-generic executor.

use crate::layer::{LayerKind, Node};
use crate::weights::Weights;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vpu_tensor::kernels::activation::{relu, softmax};
use vpu_tensor::kernels::conv::conv2d;
use vpu_tensor::kernels::dense::dense;
use vpu_tensor::kernels::gemm::AccumMode;
use vpu_tensor::kernels::lrn::lrn;
use vpu_tensor::kernels::pool::pool2d;
use vpu_tensor::{Element, Shape, Tensor};

/// A validated, topologically-ordered network description.
///
/// Node 0 is always the input; the last node is the output. The spec is
/// precision-free — weights live in [`Weights`] (FP32 master copies) and
/// are cast at [`CompiledNetwork::compile`] time, exactly like the NCSDK
/// compiler quantizing a Caffe model to FP16 when producing a graph file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    pub name: String,
    /// Shape of one input item (batch dimension 1).
    pub input_shape: Shape,
    pub nodes: Vec<Node>,
}

impl NetworkSpec {
    /// Validate structural invariants; returns per-node batch-1 shapes.
    ///
    /// Panics with a descriptive message on: missing/misplaced input node,
    /// duplicate names, forward references, or shape inference failures.
    pub fn infer_shapes(&self) -> Vec<Shape> {
        self.try_infer_shapes().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NetworkSpec::infer_shapes`] for networks read from outside the
    /// program: the first violation is a one-line error naming its node.
    pub(crate) fn try_infer_shapes(&self) -> Result<Vec<Shape>, String> {
        match self.nodes.first() {
            None => return Err("network has no nodes".into()),
            Some(n) if !matches!(n.kind, LayerKind::Input) => {
                return Err("node 0 must be the input layer".into());
            }
            Some(_) => {}
        }
        if self.input_shape.n != 1 {
            return Err("input_shape describes one item".into());
        }
        let mut seen = std::collections::HashSet::new();
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            if !seen.insert(node.name.as_str()) {
                return Err(format!("duplicate node name {}", node.name));
            }
            if let Some(j) = node.inputs.iter().find(|&&j| j >= i) {
                return Err(format!("node {} references later node {j}", node.name));
            }
            let shape = if i == 0 {
                self.input_shape
            } else {
                let ins: Vec<Shape> = node.inputs.iter().map(|&j| shapes[j]).collect();
                node.kind.infer_shape(&ins).map_err(|e| format!("layer '{}': {e}", node.name))?
            };
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// Batch-1 output shape.
    pub fn output_shape(&self) -> Shape {
        *self.infer_shapes().last().expect("non-empty network")
    }

    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// How many later nodes consume each node's activation.
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &j in &node.inputs {
                counts[j] += 1;
            }
        }
        counts
    }

    /// Number of weighted layers.
    pub fn weighted_layers(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.has_weights()).count()
    }
}

/// Evaluate one layer given its input activations and (optional) weights.
///
/// Exposed so device simulators can execute the graph layer-at-a-time,
/// interleaving compute with their timing models, while sharing the exact
/// numerics of [`CompiledNetwork::forward`].
pub fn eval_node<E: Element>(
    kind: &LayerKind,
    inputs: &[&Tensor<E>],
    params: Option<(&[E], &[E])>,
    accum: AccumMode,
) -> Tensor<E> {
    match kind {
        LayerKind::Input => panic!("input nodes are not evaluated"),
        LayerKind::Conv { params: cp, fused_relu } => {
            let (w, b) = params.expect("conv needs weights");
            conv2d(inputs[0], w, b, cp, accum, *fused_relu)
        }
        LayerKind::Relu => relu(inputs[0]),
        LayerKind::Pool(p) => pool2d(inputs[0], p),
        LayerKind::Lrn(p) => lrn(inputs[0], p),
        LayerKind::Concat => {
            let batch = inputs[0].shape().n;
            let mut per_item: Vec<Tensor<E>> = Vec::with_capacity(batch);
            for n in 0..batch {
                let mut data = Vec::new();
                let mut c = 0;
                let (h, w) = (inputs[0].shape().h, inputs[0].shape().w);
                for t in inputs {
                    data.extend_from_slice(t.item(n));
                    c += t.shape().c;
                }
                per_item.push(Tensor::from_vec(Shape::new(1, c, h, w), data));
            }
            Tensor::stack_items(&per_item)
        }
        LayerKind::Dropout { .. } => inputs[0].clone(),
        LayerKind::Dense { out_features } => {
            let (w, b) = params.expect("dense needs weights");
            dense(inputs[0], w, b, *out_features, accum)
        }
        LayerKind::Softmax => softmax(inputs[0]),
    }
}

/// A network bound to one element precision, ready to run.
#[derive(Debug, Clone)]
pub struct CompiledNetwork<E: Element> {
    spec: Arc<NetworkSpec>,
    params: Vec<Option<(Vec<E>, Vec<E>)>>,
    consumers: Vec<usize>,
    accum: AccumMode,
}

impl<E: Element> CompiledNetwork<E> {
    /// Cast the FP32 master weights to `E` and bind them to the spec.
    ///
    /// Panics if a weighted layer is missing from `weights` or has the
    /// wrong parameter count — the same validation the NCSDK compiler
    /// performs when converting a caffemodel.
    pub fn compile(spec: Arc<NetworkSpec>, weights: &Weights, accum: AccumMode) -> Self {
        let shapes = spec.infer_shapes();
        let mut params = Vec::with_capacity(spec.nodes.len());
        for node in &spec.nodes {
            if !node.kind.has_weights() {
                params.push(None);
                continue;
            }
            let in_shape = shapes[node.inputs[0]];
            let (wlen, blen) = match &node.kind {
                LayerKind::Conv { params: cp, .. } => (cp.weight_len(in_shape.c), cp.out_channels),
                LayerKind::Dense { out_features } => {
                    (in_shape.item_len() * out_features, *out_features)
                }
                _ => unreachable!(),
            };
            let lp = weights
                .get(&node.name)
                .unwrap_or_else(|| panic!("missing weights for layer {}", node.name));
            assert_eq!(lp.w.len(), wlen, "layer {} weight length", node.name);
            assert_eq!(lp.b.len(), blen, "layer {} bias length", node.name);
            let w: Vec<E> = lp.w.iter().map(|&x| E::from_f32(x)).collect();
            let b: Vec<E> = lp.b.iter().map(|&x| E::from_f32(x)).collect();
            params.push(Some((w, b)));
        }
        let consumers = spec.consumer_counts();
        CompiledNetwork { spec, params, consumers, accum }
    }

    pub fn accum_mode(&self) -> AccumMode {
        self.accum
    }

    /// Total bytes of weights at this precision (graph-file size proxy).
    pub fn weight_bytes(&self) -> usize {
        self.params.iter().flatten().map(|(w, b)| (w.len() + b.len()) * E::width()).sum()
    }

    /// Run inference on a batch; returns the output node's activation.
    pub fn forward(&self, input: &Tensor<E>) -> Tensor<E> {
        self.forward_observed(input, |_, _, _| {})
    }

    /// Run inference, invoking `observe(node_index, node, output)` after
    /// every layer — the hook the profiling and simulation layers use.
    pub fn forward_observed(
        &self,
        input: &Tensor<E>,
        mut observe: impl FnMut(usize, &Node, &Tensor<E>),
    ) -> Tensor<E> {
        let item = self.spec.input_shape;
        assert_eq!(
            (input.shape().c, input.shape().h, input.shape().w),
            (item.c, item.h, item.w),
            "input shape {} does not match network input {}",
            input.shape(),
            item
        );
        let n = self.spec.nodes.len();
        let mut acts: Vec<Option<Tensor<E>>> = vec![None; n];
        let mut remaining = self.consumers.clone();
        for (i, node) in self.spec.nodes.iter().enumerate() {
            let out = if i == 0 {
                input.clone()
            } else {
                let ins: Vec<&Tensor<E>> = node
                    .inputs
                    .iter()
                    .map(|&j| acts[j].as_ref().expect("activation dropped too early"))
                    .collect();
                let p = self.params[i].as_ref().map(|(w, b)| (w.as_slice(), b.as_slice()));
                eval_node(&node.kind, &ins, p, self.accum)
            };
            observe(i, node, &out);
            acts[i] = Some(out);
            // Free activations whose consumers have all run.
            for &j in &node.inputs {
                remaining[j] -= 1;
                if remaining[j] == 0 && j != n - 1 {
                    acts[j] = None;
                }
            }
        }
        acts[n - 1].take().expect("output activation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::init;

    fn tiny_net() -> NetworkSpec {
        let mut b = NetBuilder::new("tiny", Shape::chw(3, 8, 8));
        let x = b.input();
        let c1 = b.conv("conv1", x, 4, 3, 1, 1, true);
        let p1 = b.max_pool("pool1", c1, 2, 2, 0);
        let f = b.dense("fc", p1, 5);
        b.softmax("prob", f);
        b.build()
    }

    #[test]
    fn shape_inference_end_to_end() {
        let spec = tiny_net();
        let shapes = spec.infer_shapes();
        assert_eq!(shapes[1], Shape::new(1, 4, 8, 8));
        assert_eq!(shapes[2], Shape::new(1, 4, 4, 4));
        assert_eq!(spec.output_shape(), Shape::vector(1, 5));
        assert_eq!(spec.weighted_layers(), 2);
    }

    #[test]
    fn consumer_counts() {
        let spec = tiny_net();
        let counts = spec.consumer_counts();
        assert_eq!(counts[0], 1);
        // Output node consumed by nobody.
        assert_eq!(*counts.last().unwrap(), 0);
    }

    #[test]
    fn forward_produces_probabilities() {
        let spec = Arc::new(tiny_net());
        let weights = init::xavier(&spec, 42);
        let net = CompiledNetwork::<f32>::compile(spec, &weights, AccumMode::Widened);
        let input = Tensor::<f32>::full(Shape::chw(3, 8, 8), 0.5);
        let out = net.forward(&input);
        assert_eq!(out.shape(), Shape::vector(1, 5));
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(!out.has_nan());
    }

    #[test]
    fn forward_batched_matches_individual() {
        let spec = Arc::new(tiny_net());
        let weights = init::xavier(&spec, 42);
        let net = CompiledNetwork::<f32>::compile(spec, &weights, AccumMode::Widened);
        let a = Tensor::<f32>::full(Shape::chw(3, 8, 8), 0.25);
        let b = Tensor::<f32>::full(Shape::chw(3, 8, 8), -0.75);
        let batch = Tensor::stack_items(&[a.clone(), b.clone()]);
        let ob = net.forward(&batch);
        let oa = net.forward(&a);
        let obb = net.forward(&b);
        assert_eq!(ob.item(0), oa.item(0));
        assert_eq!(ob.item(1), obb.item(0));
    }

    #[test]
    fn observer_sees_every_layer() {
        let spec = Arc::new(tiny_net());
        let weights = init::xavier(&spec, 1);
        let net = CompiledNetwork::<f32>::compile(spec.clone(), &weights, AccumMode::Widened);
        let input = Tensor::<f32>::zeros(Shape::chw(3, 8, 8));
        let mut names = Vec::new();
        net.forward_observed(&input, |_, node, out| {
            names.push((node.name.clone(), out.shape()));
        });
        assert_eq!(names.len(), spec.nodes.len());
        assert_eq!(names[0].0, "input");
        assert_eq!(names.last().unwrap().0, "prob");
    }

    #[test]
    fn fp16_compilation_quantizes_weights() {
        use vpu_num::f16;
        let spec = Arc::new(tiny_net());
        let weights = init::xavier(&spec, 7);
        let n32 = CompiledNetwork::<f32>::compile(spec.clone(), &weights, AccumMode::Widened);
        let n16 = CompiledNetwork::<f16>::compile(spec, &weights, AccumMode::Native);
        assert_eq!(n16.weight_bytes() * 2, n32.weight_bytes());
        let input32 = Tensor::<f32>::full(Shape::chw(3, 8, 8), 0.3);
        let input16 = input32.quantize_fp16();
        let o32 = n32.forward(&input32);
        let o16 = n16.forward(&input16);
        // Same argmax (tiny net, mild values), slightly different mass.
        assert_eq!(o32.argmax_item(0).0, o16.argmax_item(0).0);
        let diff: f32 =
            o32.as_slice().iter().zip(o16.as_slice()).map(|(a, b)| (a - b.to_f32()).abs()).sum();
        assert!(diff > 0.0, "fp16 must differ from fp32 somewhere");
        assert!(diff < 0.05, "fp16 drift too large: {diff}");
    }

    #[test]
    #[should_panic(expected = "missing weights")]
    fn compile_rejects_missing_weights() {
        let spec = Arc::new(tiny_net());
        let weights = Weights::new();
        CompiledNetwork::<f32>::compile(spec, &weights, AccumMode::Widened);
    }

    #[test]
    #[should_panic(expected = "does not match network input")]
    fn forward_rejects_wrong_input_shape() {
        let spec = Arc::new(tiny_net());
        let weights = init::xavier(&spec, 1);
        let net = CompiledNetwork::<f32>::compile(spec, &weights, AccumMode::Widened);
        net.forward(&Tensor::<f32>::zeros(Shape::chw(3, 9, 9)));
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut b = NetBuilder::new("dup", Shape::chw(1, 4, 4));
        let x = b.input();
        let c = b.conv("same", x, 1, 1, 1, 0, false);
        b.relu("same", c);
        b.build().infer_shapes();
    }

    #[test]
    fn eval_node_concat_batched() {
        let a = Tensor::<f32>::from_fn(Shape::new(2, 1, 2, 2), |n, _, h, w| {
            (n * 100 + h * 2 + w) as f32
        });
        let b =
            Tensor::<f32>::from_fn(Shape::new(2, 2, 2, 2), |n, c, _, _| (n * 100 + 10 + c) as f32);
        let out = eval_node(&LayerKind::Concat, &[&a, &b], None, AccumMode::Widened);
        assert_eq!(out.shape(), Shape::new(2, 3, 2, 2));
        assert_eq!(out.at(0, 0, 1, 1), 3.0);
        assert_eq!(out.at(1, 1, 0, 0), 110.0);
        assert_eq!(out.at(1, 2, 0, 0), 111.0);
    }
}
