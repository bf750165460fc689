//! Tensor containers and compute kernels for the VPU reproduction.
//!
//! The crate is deliberately small and self-contained: NCHW dense tensors
//! over a precision-generic [`Element`] type (f32 on the host devices, the
//! software [`vpu_num::f16`] on the simulated Myriad 2), plus the exact set
//! of kernels GoogLeNet needs — im2col + GEMM convolution, max/avg
//! pooling (with Caffe's ceil-mode), cross-channel LRN, fully-connected,
//! ReLU and softmax.
//!
//! Two design points matter for the experiments:
//!
//! * **Precision honesty.** The FP16 path stores *and* computes in binary16
//!   with per-operation rounding (the [`kernels::gemm::AccumMode`] ablation
//!   exposes FP32 accumulation as the alternative the Myriad's VAU can also
//!   do). The FP32-vs-FP16 deltas in the paper's Fig. 7 fall out of real
//!   arithmetic, not injected noise.
//! * **Host vector width.** The GEMM row loop is compiled once per
//!   vector width (baseline, AVX2, AVX-512) and runs the widest this CPU
//!   supports, with the same bits at every width. Everything runs on one
//!   thread: the offline `compat/rayon` shim is sequential.

pub mod element;
pub mod kernels;
pub mod shape;
pub mod tensor;

pub use element::Element;
pub use kernels::gemm::AccumMode;
pub use shape::Shape;
pub use tensor::Tensor;
