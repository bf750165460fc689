//! Caffe-flavoured prototxt (de)serialization of network specs.
//!
//! NCSw consumes Caffe deploy descriptions; the NCSDK compiler does the
//! same before emitting a graph file. This module emits and parses a
//! faithful subset of the prototxt grammar — enough to round-trip every
//! topology in this repository and to read hand-written deploy files of
//! the same operator set (conv, relu, pool, lrn, concat, dropout,
//! inner_product, softmax).

use crate::graph::NetworkSpec;
use crate::layer::{LayerKind, Node};
use std::collections::HashMap;
use std::fmt::Write as _;
use vpu_tensor::kernels::conv::ConvParams;
use vpu_tensor::kernels::lrn::LrnParams;
use vpu_tensor::kernels::pool::{PoolKind, PoolParams};
use vpu_tensor::Shape;

/// Parse failure, with a line-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prototxt parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Emit a deploy-style prototxt for a spec.
///
/// ```
/// let spec = vpu_nn::googlenet::tiny();
/// let text = vpu_nn::prototxt::emit(&spec);
/// let back = vpu_nn::prototxt::parse(&text).unwrap();
/// assert_eq!(back, spec);
/// ```
pub fn emit(spec: &NetworkSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "name: \"{}\"", spec.name);
    let s = spec.input_shape;
    let _ = writeln!(out, "input: \"input\"");
    let _ =
        writeln!(out, "input_dim: 1\ninput_dim: {}\ninput_dim: {}\ninput_dim: {}", s.c, s.h, s.w);
    for node in spec.nodes.iter().skip(1) {
        let _ = writeln!(out, "layer {{");
        let _ = writeln!(out, "  name: \"{}\"", node.name);
        let type_name = match &node.kind {
            LayerKind::Conv { .. } => "Convolution",
            LayerKind::Relu => "ReLU",
            LayerKind::Pool(_) => "Pooling",
            LayerKind::Lrn(_) => "LRN",
            LayerKind::Concat => "Concat",
            LayerKind::Dropout { .. } => "Dropout",
            LayerKind::Dense { .. } => "InnerProduct",
            LayerKind::Softmax => "Softmax",
            LayerKind::Input => unreachable!("input emitted via input_dim"),
        };
        let _ = writeln!(out, "  type: \"{type_name}\"");
        for &j in &node.inputs {
            let _ = writeln!(out, "  bottom: \"{}\"", spec.nodes[j].name);
        }
        let _ = writeln!(out, "  top: \"{}\"", node.name);
        match &node.kind {
            LayerKind::Conv { params, fused_relu } => {
                let _ = writeln!(out, "  convolution_param {{");
                let _ = writeln!(out, "    num_output: {}", params.out_channels);
                let _ = writeln!(out, "    kernel_size: {}", params.kernel);
                let _ = writeln!(out, "    stride: {}", params.stride);
                let _ = writeln!(out, "    pad: {}", params.pad);
                let _ = writeln!(out, "  }}");
                if *fused_relu {
                    // Caffe expresses fusion as a separate in-place ReLU;
                    // we keep an extension key so the round trip is exact.
                    let _ = writeln!(out, "  fused_relu: true");
                }
            }
            LayerKind::Pool(p) => {
                let _ = writeln!(out, "  pooling_param {{");
                let _ = writeln!(
                    out,
                    "    pool: {}",
                    match p.kind {
                        PoolKind::Max => "MAX",
                        PoolKind::Avg => "AVE",
                    }
                );
                let _ = writeln!(out, "    kernel_size: {}", p.kernel);
                let _ = writeln!(out, "    stride: {}", p.stride);
                let _ = writeln!(out, "    pad: {}", p.pad);
                let _ = writeln!(out, "  }}");
            }
            LayerKind::Lrn(p) => {
                let _ = writeln!(out, "  lrn_param {{");
                let _ = writeln!(out, "    local_size: {}", p.local_size);
                let _ = writeln!(out, "    alpha: {}", p.alpha);
                let _ = writeln!(out, "    beta: {}", p.beta);
                let _ = writeln!(out, "    k: {}", p.k);
                let _ = writeln!(out, "  }}");
            }
            LayerKind::Dropout { ratio } => {
                let _ = writeln!(out, "  dropout_param {{");
                let _ = writeln!(out, "    dropout_ratio: {ratio}");
                let _ = writeln!(out, "  }}");
            }
            LayerKind::Dense { out_features } => {
                let _ = writeln!(out, "  inner_product_param {{");
                let _ = writeln!(out, "    num_output: {out_features}");
                let _ = writeln!(out, "  }}");
            }
            _ => {}
        }
        let _ = writeln!(out, "}}");
    }
    out
}

/// Tokenized key/value or block events from the prototxt grammar.
enum Event {
    Scalar(String, String),
    Open(String),
    Close,
}

/// Character-level lexer: protobuf text format allows blocks and
/// key/value pairs to share lines (`layer { name: "x" type: "ReLU" }`),
/// so the tokenizer scans characters, honouring quotes and `#` comments.
fn tokenize(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = bytes.len();
    let skip_ws = |i: &mut usize, line: &mut usize| {
        while *i < n {
            match bytes[*i] {
                '\n' => {
                    *line += 1;
                    *i += 1;
                }
                c if c.is_whitespace() => *i += 1,
                '#' => {
                    while *i < n && bytes[*i] != '\n' {
                        *i += 1;
                    }
                }
                _ => break,
            }
        }
    };
    loop {
        skip_ws(&mut i, &mut line);
        if i >= n {
            break;
        }
        match bytes[i] {
            '}' => {
                events.push(Event::Close);
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let ident: String = bytes[start..i].iter().collect();
                skip_ws(&mut i, &mut line);
                match bytes.get(i) {
                    Some('{') => {
                        events.push(Event::Open(ident));
                        i += 1;
                    }
                    Some(':') => {
                        i += 1;
                        skip_ws(&mut i, &mut line);
                        let value = if bytes.get(i) == Some(&'"') {
                            i += 1;
                            let vstart = i;
                            while i < n && bytes[i] != '"' {
                                i += 1;
                            }
                            if i >= n {
                                return Err(ParseError(format!(
                                    "line {line}: unterminated string"
                                )));
                            }
                            let v: String = bytes[vstart..i].iter().collect();
                            i += 1;
                            v
                        } else {
                            let vstart = i;
                            // A quote ends a bare value too: `emit` quotes
                            // names, so one inside a name could not print.
                            while i < n
                                && !bytes[i].is_whitespace()
                                && !matches!(bytes[i], '}' | '#' | '"')
                            {
                                i += 1;
                            }
                            if i == vstart {
                                return Err(ParseError(format!(
                                    "line {line}: missing value for '{ident}'"
                                )));
                            }
                            bytes[vstart..i].iter().collect()
                        };
                        events.push(Event::Scalar(ident, value));
                    }
                    other => {
                        return Err(ParseError(format!(
                            "line {line}: expected ':' or '{{' after '{ident}', found {other:?}"
                        )));
                    }
                }
            }
            other => {
                return Err(ParseError(format!("line {line}: unexpected character '{other}'")));
            }
        }
    }
    Ok(events)
}

/// Parse a deploy prototxt (the emitted subset) back into a spec.
pub fn parse(text: &str) -> Result<NetworkSpec, ParseError> {
    let events = tokenize(text)?;
    let mut name = String::from("network");
    let mut input_dims: Vec<usize> = Vec::new();
    let mut nodes: Vec<Node> =
        vec![Node { name: "input".into(), kind: LayerKind::Input, inputs: vec![] }];
    let mut by_name: HashMap<String, usize> = HashMap::new();
    by_name.insert("input".into(), 0);

    let mut i = 0;
    while i < events.len() {
        match &events[i] {
            Event::Scalar(k, v) if k == "name" => name = v.clone(),
            Event::Scalar(k, v) if k == "input_dim" => {
                input_dims.push(v.parse().map_err(|_| ParseError(format!("bad input_dim '{v}'")))?);
            }
            Event::Scalar(k, v) if k == "input" && v != "input" => {
                by_name.insert(v.clone(), 0);
            }
            Event::Open(k) if k == "layer" => {
                let (node, consumed) = parse_layer(&events[i + 1..], &by_name)?;
                i += consumed;
                by_name.insert(node.name.clone(), nodes.len());
                nodes.push(node);
            }
            Event::Scalar(..) => {}
            Event::Open(k) => {
                return Err(ParseError(format!("unexpected block '{k}' at top level")));
            }
            Event::Close => return Err(ParseError("unbalanced '}'".into())),
        }
        i += 1;
    }
    if input_dims.len() != 4 {
        return Err(ParseError(format!("expected 4 input_dim entries, got {}", input_dims.len())));
    }
    let spec = NetworkSpec {
        name,
        input_shape: Shape::new(1, input_dims[1], input_dims[2], input_dims[3]),
        nodes,
    };
    spec.try_infer_shapes().map_err(ParseError)?;
    Ok(spec)
}

/// Parse one `layer { ... }` body; returns the node and the number of
/// events consumed (including the final Close).
fn parse_layer(
    events: &[Event],
    by_name: &HashMap<String, usize>,
) -> Result<(Node, usize), ParseError> {
    let mut lname = String::new();
    let mut ltype = String::new();
    let mut bottoms: Vec<usize> = Vec::new();
    let mut params: HashMap<String, String> = HashMap::new();
    let mut fused_relu = false;
    let mut i = 0;
    let mut depth = 1;
    while i < events.len() {
        match &events[i] {
            Event::Open(_) => depth += 1,
            Event::Close => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Event::Scalar(k, v) => match k.as_str() {
                "name" => lname = v.clone(),
                "type" => ltype = v.clone(),
                "bottom" => {
                    let idx = *by_name
                        .get(v)
                        .ok_or_else(|| ParseError(format!("unknown bottom '{v}'")))?;
                    bottoms.push(idx);
                }
                "top" => {}
                other => {
                    if other == "fused_relu" && v == "true" {
                        fused_relu = true;
                    }
                    params.insert(other.to_string(), v.clone());
                }
            },
        }
        i += 1;
    }
    if depth != 0 {
        return Err(ParseError(format!("layer '{lname}' not closed")));
    }
    let get = |key: &str| -> Result<usize, ParseError> {
        params
            .get(key)
            .ok_or_else(|| ParseError(format!("layer '{lname}' missing {key}")))?
            .parse()
            .map_err(|_| ParseError(format!("layer '{lname}': bad {key}")))
    };
    let get_or = |key: &str, default: usize| -> usize {
        params.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let get_f = |key: &str, default: f32| -> f32 {
        params.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let kind = match ltype.as_str() {
        "Convolution" => LayerKind::Conv {
            params: ConvParams::new(
                get("num_output")?,
                get("kernel_size")?,
                get_or("stride", 1),
                get_or("pad", 0),
            ),
            fused_relu,
        },
        "ReLU" => LayerKind::Relu,
        "Pooling" => {
            let kind = match params.get("pool").map(String::as_str) {
                Some("MAX") | None => PoolKind::Max,
                Some("AVE") => PoolKind::Avg,
                Some(other) => return Err(ParseError(format!("unknown pool kind '{other}'"))),
            };
            LayerKind::Pool(PoolParams::new(
                kind,
                get("kernel_size")?,
                get_or("stride", 1),
                get_or("pad", 0),
            ))
        }
        "LRN" => LayerKind::Lrn(LrnParams {
            local_size: get_or("local_size", 5),
            alpha: get_f("alpha", 1e-4),
            beta: get_f("beta", 0.75),
            k: get_f("k", 1.0),
        }),
        "Concat" => LayerKind::Concat,
        "Dropout" => LayerKind::Dropout { ratio: get_f("dropout_ratio", 0.5) },
        "InnerProduct" => LayerKind::Dense { out_features: get("num_output")? },
        "Softmax" => LayerKind::Softmax,
        other => return Err(ParseError(format!("unsupported layer type '{other}'"))),
    };
    if lname.is_empty() {
        return Err(ParseError("layer without a name".into()));
    }
    Ok((Node { name: lname, kind, inputs: bottoms }, i + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::googlenet;

    #[test]
    fn round_trip_tiny() {
        let spec = googlenet::tiny();
        let text = emit(&spec);
        let back = parse(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn round_trip_full_googlenet() {
        let spec = googlenet::full();
        let text = emit(&spec);
        assert!(text.contains("inception_4e/5x5_reduce"));
        assert!(text.contains("num_output: 1000"));
        let back = parse(&text).unwrap();
        assert_eq!(back, spec);
        // The round-tripped spec must produce identical shapes.
        assert_eq!(back.infer_shapes(), spec.infer_shapes());
    }

    #[test]
    fn emitted_text_is_caffe_shaped() {
        let text = emit(&googlenet::tiny());
        assert!(text.starts_with("name: \"tiny_googlenet\""));
        assert!(text.contains("layer {"));
        assert!(text.contains("type: \"Convolution\""));
        assert!(text.contains("pooling_param {"));
        assert!(text.contains("pool: AVE"));
        assert!(text.contains("bottom: \"input\""));
    }

    #[test]
    fn parses_hand_written_deploy() {
        let text = r#"
name: "lenet-ish"
input: "data"
input_dim: 1
input_dim: 1
input_dim: 28
input_dim: 28
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param {
    num_output: 6
    kernel_size: 5
    pad: 2
  }
}
layer {
  name: "relu1"
  type: "ReLU"
  bottom: "conv1"
  top: "conv1"
}
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "relu1"
  top: "pool1"
  pooling_param {
    pool: MAX
    kernel_size: 2
    stride: 2
  }
}
layer {
  name: "fc"
  type: "InnerProduct"
  bottom: "pool1"
  top: "fc"
  inner_product_param {
    num_output: 10
  }
}
layer {
  name: "prob"
  type: "Softmax"
  bottom: "fc"
  top: "prob"
}
"#;
        let spec = parse(text).unwrap();
        assert_eq!(spec.name, "lenet-ish");
        assert_eq!(spec.input_shape, Shape::chw(1, 28, 28));
        assert_eq!(spec.output_shape(), Shape::vector(1, 10));
        assert_eq!(spec.nodes.len(), 6);
    }

    #[test]
    fn rejects_unknown_bottom() {
        let text = "name: \"x\"\ninput: \"data\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\nlayer {\n  name: \"r\"\n  type: \"ReLU\"\n  bottom: \"ghost\"\n  top: \"r\"\n}\n";
        let err = parse(text).unwrap_err();
        assert!(err.0.contains("unknown bottom"), "{err}");
    }

    #[test]
    fn rejects_unsupported_type() {
        let text = "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\nlayer {\n  name: \"b\"\n  type: \"BatchNorm\"\n  bottom: \"input\"\n  top: \"b\"\n}\n";
        let err = parse(text).unwrap_err();
        assert!(err.0.contains("unsupported layer type"), "{err}");
    }

    #[test]
    fn rejects_missing_dims() {
        let err = parse("name: \"x\"\n").unwrap_err();
        assert!(err.0.contains("input_dim"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_braces() {
        let text = "input_dim: 1\ninput_dim: 1\ninput_dim: 4\ninput_dim: 4\nlayer {\n  name: \"r\"\n  type: \"ReLU\"\n  bottom: \"input\"\n";
        let err = parse(text).unwrap_err();
        assert!(err.0.contains("not closed"), "{err}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a comment\nname: \"c\"   # trailing\n\ninput_dim: 1\ninput_dim: 3\ninput_dim: 8\ninput_dim: 8\n";
        let spec = parse(text).unwrap();
        assert_eq!(spec.name, "c");
        assert_eq!(spec.nodes.len(), 1);
    }
}
