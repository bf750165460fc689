//! The device graph file: the NCSDK `.graph` analogue.
//!
//! `mvncAllocateGraph` takes an opaque blob produced by the SDK compiler
//! from a Caffe model: topology metadata plus every weight quantized to
//! binary16. This module defines that wire format:
//!
//! ```text
//! magic  "NCSG"                      4 B
//! version u16 LE                     2 B
//! flags   u16 LE (bit0: fp16)        2 B
//! name    u32 len + UTF-8
//! input   4 × u32 LE (n,c,h,w)
//! layers  u32 count, then per layer:
//!         name (u32 len + UTF-8), w_len u32, b_len u32,
//!         w_len × u16 LE fp16 bits, b_len × u16 LE fp16 bits
//! crc     u64 LE (FNV-1a over everything before it)
//! ```

use vpu_nn::graph::NetworkSpec;
use vpu_nn::weights::Weights;
use vpu_num::{f16, rng::fnv1a};

const MAGIC: &[u8; 4] = b"NCSG";
const VERSION: u16 = 1;
const FLAG_FP16: u16 = 1;

/// Parse/validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphFileError {
    BadMagic,
    UnsupportedVersion(u16),
    Truncated,
    ChecksumMismatch,
    MalformedString,
}

impl std::fmt::Display for GraphFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphFileError::BadMagic => write!(f, "not a graph file (bad magic)"),
            GraphFileError::UnsupportedVersion(v) => write!(f, "unsupported graph version {v}"),
            GraphFileError::Truncated => write!(f, "graph file truncated"),
            GraphFileError::ChecksumMismatch => write!(f, "graph file checksum mismatch"),
            GraphFileError::MalformedString => write!(f, "malformed string in graph file"),
        }
    }
}

impl std::error::Error for GraphFileError {}

/// A parsed graph file.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphFile {
    pub name: String,
    /// Input item shape (n always 1).
    pub input: (u32, u32, u32, u32),
    /// Per-layer FP16 parameters, in spec order.
    pub layers: Vec<GraphLayer>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct GraphLayer {
    pub name: String,
    pub w: Vec<f16>,
    pub b: Vec<f16>,
}

impl GraphFile {
    /// Total payload bytes of FP16 parameters.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| 2 * (l.w.len() + l.b.len())).sum()
    }

    /// Rebuild an FP32 [`Weights`] set (values exactly as the device sees
    /// them: already rounded to binary16).
    pub fn to_weights(&self) -> Weights {
        let mut w = Weights::new();
        for l in &self.layers {
            w.insert(
                &l.name,
                l.w.iter().map(|h| h.to_f32()).collect(),
                l.b.iter().map(|h| h.to_f32()).collect(),
            );
        }
        w
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Compile a model into the device wire format (FP32 master weights are
/// quantized to binary16, exactly what the NCSDK compiler does).
pub fn compile(spec: &NetworkSpec, weights: &Weights) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&FLAG_FP16.to_le_bytes());
    put_string(&mut buf, &spec.name);
    let s = spec.input_shape;
    for d in [s.n, s.c, s.h, s.w] {
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    let weighted: Vec<&vpu_nn::layer::Node> =
        spec.nodes.iter().filter(|n| n.kind.has_weights()).collect();
    buf.extend_from_slice(&(weighted.len() as u32).to_le_bytes());
    for node in weighted {
        let lp =
            weights.get(&node.name).unwrap_or_else(|| panic!("missing weights for {}", node.name));
        put_string(&mut buf, &node.name);
        buf.extend_from_slice(&(lp.w.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(lp.b.len() as u32).to_le_bytes());
        for &v in lp.w.iter().chain(&lp.b) {
            buf.extend_from_slice(&f16::from_f32(v).to_bits().to_le_bytes());
        }
    }
    let crc = fnv1a(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A cursor over untrusted graph-file bytes: every read checks the
/// length left and fails with [`GraphFileError::Truncated`].
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], GraphFileError> {
        let head = self.0.get(..n).ok_or(GraphFileError::Truncated)?;
        self.0 = &self.0[n..];
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], GraphFileError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    fn u32(&mut self) -> Result<u32, GraphFileError> {
        self.array().map(u32::from_le_bytes)
    }

    fn string(&mut self) -> Result<String, GraphFileError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| GraphFileError::MalformedString)
    }

    /// `n` binary16 values.
    fn f16s(&mut self, n: usize) -> Result<Vec<f16>, GraphFileError> {
        let raw = self.take(n.saturating_mul(2))?;
        Ok(raw.chunks_exact(2).map(|c| f16::from_bits(u16::from_le_bytes([c[0], c[1]]))).collect())
    }
}

/// Parse and validate a graph file blob.
pub fn parse(blob: &[u8]) -> Result<GraphFile, GraphFileError> {
    if blob.len() < 8 + 8 {
        return Err(GraphFileError::Truncated);
    }
    let (body, crc_bytes) = blob.split_at(blob.len() - 8);
    let stored = u64::from_le_bytes(crc_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(GraphFileError::ChecksumMismatch);
    }
    let mut buf = Reader(body);
    if buf.take(4)? != MAGIC {
        return Err(GraphFileError::BadMagic);
    }
    let version = u16::from_le_bytes(buf.array()?);
    if version != VERSION {
        return Err(GraphFileError::UnsupportedVersion(version));
    }
    let _flags = buf.take(2)?;
    let name = buf.string()?;
    let input = (buf.u32()?, buf.u32()?, buf.u32()?, buf.u32()?);
    let count = buf.u32()? as usize;
    // The count is untrusted: reserve no more layers than the remaining
    // bytes can hold (each takes at least its three u32 length fields).
    let mut layers = Vec::with_capacity(count.min(buf.0.len() / 12));
    for _ in 0..count {
        let name = buf.string()?;
        let (wl, bl) = (buf.u32()? as usize, buf.u32()? as usize);
        let w = buf.f16s(wl)?;
        let b = buf.f16s(bl)?;
        layers.push(GraphLayer { name, w, b });
    }
    Ok(GraphFile { name, input, layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vpu_nn::googlenet;
    use vpu_nn::graph::CompiledNetwork;
    use vpu_nn::init;
    use vpu_tensor::kernels::gemm::AccumMode;
    use vpu_tensor::{Shape, Tensor};

    fn tiny() -> (NetworkSpec, Weights) {
        let spec = googlenet::tiny();
        let w = init::xavier(&spec, 7);
        (spec, w)
    }

    #[test]
    fn round_trip() {
        let (spec, w) = tiny();
        let blob = compile(&spec, &w);
        let parsed = parse(&blob).unwrap();
        assert_eq!(parsed.name, "tiny_googlenet");
        assert_eq!(parsed.input, (1, 3, 32, 32));
        assert_eq!(parsed.layers.len(), spec.weighted_layers());
        // FP16 payload matches the cost model's graph-file estimate.
        let expected = vpu_nn::cost::NetworkCost::of::<f16>(&spec).total_weight_bytes();
        assert_eq!(parsed.weight_bytes() as u64, expected);
    }

    #[test]
    fn device_numerics_match_graph_file_weights() {
        // Compiling to the graph file and reloading its (fp16-rounded)
        // weights gives the same inference as direct fp16 compilation.
        let (spec, w) = tiny();
        let spec = Arc::new(spec);
        let blob = compile(&spec, &w);
        let reloaded = parse(&blob).unwrap().to_weights();
        let direct = CompiledNetwork::<f16>::compile(spec.clone(), &w, AccumMode::Native);
        let via_file = CompiledNetwork::<f16>::compile(spec, &reloaded, AccumMode::Native);
        let input = Tensor::<f32>::full(Shape::chw(3, 32, 32), 0.2).quantize_fp16();
        assert_eq!(direct.forward(&input), via_file.forward(&input));
    }

    #[test]
    fn corruption_is_detected() {
        let (spec, w) = tiny();
        let blob = compile(&spec, &w);
        let mut bad = blob.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert_eq!(parse(&bad).unwrap_err(), GraphFileError::ChecksumMismatch);
    }

    #[test]
    fn truncation_is_detected() {
        let (spec, w) = tiny();
        let blob = compile(&spec, &w);
        assert_eq!(parse(&blob[..10]).unwrap_err(), GraphFileError::Truncated);
        assert_eq!(parse(&[]).unwrap_err(), GraphFileError::Truncated);
    }

    #[test]
    fn wrong_magic_rejected() {
        let (spec, w) = tiny();
        let mut bad = compile(&spec, &w).to_vec();
        bad[0] = b'X';
        // Fix up the checksum so only the magic is wrong.
        let crc = fnv1a(&bad[..bad.len() - 8]);
        let n = bad.len();
        bad[n - 8..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(parse(&bad).unwrap_err(), GraphFileError::BadMagic);
    }

    #[test]
    fn googlenet_graph_file_is_13mb() {
        let spec = googlenet::full();
        let w = init::xavier(&spec, 1);
        let blob = compile(&spec, &w);
        // The real BVLC GoogLeNet .graph is ~13.5 MB.
        assert!((13_000_000..15_000_000).contains(&blob.len()), "graph file {} bytes", blob.len());
    }
}
