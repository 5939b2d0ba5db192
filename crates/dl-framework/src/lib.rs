//! # dl-framework ("tensorlite") — a simulated deep-learning framework
//!
//! The paper's DL-framework integration (§III-E, §IV-A) hooks PyTorch's
//! `c10::reportMemoryUsage` and `at::RecordFunction` callbacks and observes
//! the pool-based caching allocator that makes memory *objects* differ from
//! *tensors* — the mismatch that motivates tensor-aware UVM prefetching
//! (§V-C1). No PyTorch exists in this environment, so this crate is a
//! faithful miniature:
//!
//! * [`tensor`] — shaped, typed tensors backed by allocator blocks;
//! * [`alloc`] — a pool/segment/block **caching allocator** modeled on
//!   PyTorch's `CUDACachingAllocator`: small (<1 MiB) allocations carved
//!   from 2 MiB segments, large ones from 20 MiB segments, splitting,
//!   coalescing, and reuse — so one `cudaMalloc`'d object holds many
//!   tensors with different lifetimes;
//! * [`callbacks`] — `reportMemoryUsage`/`RecordFunction`-style framework
//!   events ([`FrameworkEvent`]) with a subscriber registry;
//! * [`ops`] — operators that launch kernels with realistic names
//!   (`ampere_sgemm_128x64_tn`, `at::native::im2col_kernel`, …), grid
//!   shapes and memory traffic derived from tensor shapes;
//! * [`layers`] + [`models`] — the six paper models (Table IV): AlexNet,
//!   ResNet-18/34, GPT-2, BERT, Whisper-small, each with forward and
//!   backward passes. Everything that owns parameters walks them once
//!   (`layers::Params`), and the optimizer step, teardown and parameter
//!   bytes are that walk; the transformers and the pipeline stages are
//!   built from one embedding, one block-stack builder and one head +
//!   loss (`models::transformer`), and self- and cross-attention share
//!   one op pair (`ops::Attention`);
//! * [`pycall`] — the simulated Python frame stack + native frames that
//!   feed PASTA's cross-layer call stacks (Fig. 4);
//! * [`parallel`] — data/tensor/pipeline-parallel training of Megatron
//!   GPT-2 345M on two devices (Fig. 15);
//! * [`backend`] — CUDA-vs-HIP operator decomposition differences (kernel
//!   fusion, workspace sizing) behind the NVIDIA/AMD contrasts of Fig. 14.
//!
//! Everything is driven through [`session::Session`], which holds the
//! allocator and callback registry over any [`accel_sim::DeviceRuntime`] —
//! the same model code runs on the CUDA and HIP facades.

pub mod alloc;
pub mod backend;
pub mod callbacks;
pub mod dtype;
pub mod lane_exec;
pub mod layers;
pub mod models;
pub mod ops;
pub mod parallel;
pub mod pycall;
pub mod runner;
pub mod serving;
pub mod session;
pub mod tensor;

pub use alloc::{AllocatorConfig, AllocatorStats, CachingAllocator};
pub use backend::BackendProfile;
pub use callbacks::FrameworkEvent;
pub use dtype::DType;
pub use models::{ModelZoo, RunKind};
pub use pycall::{CrossLayerStack, NativeFrame, PyFrame, PyStack};
pub use serving::{LaneServing, Request, RequestTrace, ServingConfig, ServingRun};
pub use session::Session;
pub use tensor::{Tensor, TensorId};
