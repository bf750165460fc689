//! FP32 master weights, keyed by layer name.
//!
//! Mirrors a `.caffemodel`: the trained parameters live at full precision
//! and are quantized per-target at compile time (f32 for the CPU/GPU
//! devices, binary16 when the NCS graph file is produced).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of one weighted layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerParams {
    pub w: Vec<f32>,
    pub b: Vec<f32>,
}

/// The full parameter set of a network.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    layers: BTreeMap<String, LayerParams>,
}

impl Weights {
    pub fn new() -> Self {
        Weights::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, w: Vec<f32>, b: Vec<f32>) {
        self.layers.insert(name.into(), LayerParams { w, b });
    }

    pub fn get(&self, name: &str) -> Option<&LayerParams> {
        self.layers.get(name)
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total parameter count across layers.
    pub fn param_count(&self) -> u64 {
        self.layers.values().map(|p| (p.w.len() + p.b.len()) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut w = Weights::new();
        assert!(w.is_empty());
        w.insert("conv1", vec![1.0, 2.0], vec![0.5]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.get("conv1").unwrap().w, vec![1.0, 2.0]);
        assert!(w.get("missing").is_none());
        assert_eq!(w.param_count(), 3);
    }
}
