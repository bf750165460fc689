//! Synthetic ILSVRC-2012 stand-in.
//!
//! The paper evaluates on the 50 000-image ILSVRC-2012 validation set
//! with the pre-trained BVLC GoogLeNet. Neither the images nor the
//! weights are redistributable, so this crate builds the closest
//! synthetic equivalent that preserves what the accuracy experiments
//! measure — the *difference* between FP32 and FP16 inference on one
//! fixed model and dataset:
//!
//! 1. [`synset`] — a deterministic 1000-entry WordNet-style class table.
//! 2. [`image`] — per-class prototype images (smooth seeded random
//!    fields) plus controlled Gaussian noise and distractor blending;
//!    every image is generated bit-identically from `(seed, index)`.
//! 3. [`pretrain`] — "pseudo-training": the convolutional trunk keeps its
//!    seeded Xavier weights and the classifier is set to matched filters
//!    of the class prototypes *as seen through that trunk*, yielding a
//!    real working classifier with tunable difficulty.
//! 4. [`calibrate`] — bisects the noise level until top-1 error hits the
//!    paper's ~32 %, so Fig. 7 is reproduced at the right operating
//!    point.
//!
//! The decode stage (OpenCV JPEG + OpenEXR half conversion in NCSw) is
//! represented by the FP32→FP16 quantization in `vpu-tensor`; the paper
//! excludes decode time from its measurements, and so do we.

pub mod calibrate;
pub mod dataset;
pub mod image;
pub mod pretrain;
pub mod synset;

pub use dataset::{DatasetConfig, LabeledImage, ValidationSet};
pub use pretrain::pseudo_train;
pub use synset::SynsetTable;
