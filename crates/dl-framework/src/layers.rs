//! Neural-network layers with forward and backward passes.
//!
//! Layers manage their parameters (and Adam moments), launch their kernels
//! through [`ops`], and cooperate with the container on activation
//! lifetimes: a layer's `forward` never frees its input — the container
//! ([`Sequential`] or a model) owns activations and frees them on the
//! schedule that reproduces real frameworks' memory curves (eager freeing
//! in inference; free-as-you-backprop in training, which produces the
//! ramp-up/peak/ramp-down of the paper's Fig. 14).

use crate::dtype::DType;
use crate::ops::{self, Act, Conv2dCfg};
use crate::session::Session;
use crate::tensor::Tensor;
use accel_sim::AccelError;

/// A trainable parameter with lazily-created gradient and Adam moments.
#[derive(Debug)]
pub struct Param {
    /// The parameter tensor.
    pub tensor: Tensor,
    grad: Option<Tensor>,
    m: Option<Tensor>,
    v: Option<Tensor>,
}

impl Param {
    /// Allocates a parameter of `shape`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(s: &mut Session<'_>, shape: &[usize]) -> Result<Self, AccelError> {
        Ok(Param {
            tensor: s.alloc_tensor(shape, DType::F32)?,
            grad: None,
            m: None,
            v: None,
        })
    }

    /// Installs (or accumulates into) the gradient.
    ///
    /// # Errors
    ///
    /// Propagates launch failures from the accumulation kernel.
    pub fn set_grad(&mut self, s: &mut Session<'_>, grad: Tensor) -> Result<(), AccelError> {
        match &self.grad {
            None => self.grad = Some(grad),
            Some(existing) => {
                // Accumulate: existing += grad, then drop the new tensor.
                let e = existing.clone();
                ops::elementwise_inplace(s, "at::native::vectorized_elementwise_kernel<add>", &e)?;
                s.free_tensor(&grad);
            }
        }
        Ok(())
    }

    /// Applies one fused Adam step and frees the gradient.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let Some(grad) = self.grad.take() else {
            return Ok(());
        };
        if self.m.is_none() {
            self.m = Some(s.alloc_tensor(&self.tensor.shape, DType::F32)?);
            self.v = Some(s.alloc_tensor(&self.tensor.shape, DType::F32)?);
        }
        let (m, v) = (
            self.m.clone().expect("moment m"),
            self.v.clone().expect("moment v"),
        );
        ops::adam_step(s, &self.tensor, &grad, &m, &v)?;
        s.free_tensor(&grad);
        Ok(())
    }

    /// Frees the parameter, moments and any pending gradient.
    pub fn destroy(&mut self, s: &mut Session<'_>) {
        if let Some(g) = self.grad.take() {
            s.free_tensor(&g);
        }
        if let Some(m) = self.m.take() {
            s.free_tensor(&m);
        }
        if let Some(v) = self.v.take() {
            s.free_tensor(&v);
        }
        s.free_tensor(&self.tensor);
    }

    /// Parameter bytes (excluding moments).
    pub fn bytes(&self) -> u64 {
        self.tensor.bytes
    }
}

/// A neural-network layer.
///
/// Contract: `forward`/`backward` never free their *arguments*; tensors a
/// layer allocates internally and keeps for backward are freed by
/// `backward` or `release_saved`.
pub trait Layer: Send {
    /// Human-readable label (used for layer-boundary events).
    fn label(&self) -> String;

    /// Computes the layer output. With `train`, keeps what backward needs.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError>;

    /// Computes the input gradient given the layer input and the output
    /// gradient; stores parameter gradients internally.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError>;

    /// Frees any internally-saved activations that backward did not consume.
    fn release_saved(&mut self, s: &mut Session<'_>) {
        let _ = s;
    }

    /// Optimizer step over this layer's parameters.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let _ = s;
        Ok(())
    }

    /// Frees parameters and moments.
    fn destroy(&mut self, s: &mut Session<'_>);

    /// Total parameter bytes.
    fn param_bytes(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer with optional fused activation.
#[derive(Debug)]
pub struct Linear {
    name: String,
    w: Param,
    b: Option<Param>,
    act: Act,
}

impl Linear {
    /// Creates a `in_f → out_f` linear layer.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        in_f: usize,
        out_f: usize,
        bias: bool,
        act: Act,
    ) -> Result<Self, AccelError> {
        Ok(Linear {
            name: name.into(),
            w: Param::new(s, &[out_f, in_f])?,
            b: if bias {
                Some(Param::new(s, &[out_f])?)
            } else {
                None
            },
            act,
        })
    }
}

impl Layer for Linear {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let b = self.b.as_ref().map(|p| p.tensor.clone());
        ops::linear(s, x, &self.w.tensor, b.as_ref(), self.act)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        // Activation backward first (elementwise on the output gradient).
        if self.act != Act::None {
            ops::elementwise_inplace(
                s,
                "at::native::vectorized_elementwise_kernel<act_backward>",
                grad_out,
            )?;
        }
        let (gx, gw, gb) = ops::linear_backward(s, x, &self.w.tensor, grad_out, self.b.is_some())?;
        self.w.set_grad(s, gw)?;
        if let (Some(bp), Some(gb)) = (self.b.as_mut(), gb) {
            bp.set_grad(s, gb)?;
        }
        Ok(gx)
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.w.step(s)?;
        if let Some(b) = self.b.as_mut() {
            b.step(s)?;
        }
        Ok(())
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.w.destroy(s);
        if let Some(mut b) = self.b.take() {
            b.destroy(s);
        }
    }

    fn param_bytes(&self) -> u64 {
        self.w.bytes() + self.b.as_ref().map_or(0, Param::bytes)
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution with optional fused activation.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    w: Param,
    b: Param,
    cfg: Conv2dCfg,
    act: Act,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        cfg: Conv2dCfg,
        act: Act,
    ) -> Result<Self, AccelError> {
        Ok(Conv2d {
            name: name.into(),
            w: Param::new(s, &[cfg.cout, cfg.cin * cfg.k * cfg.k])?,
            b: Param::new(s, &[cfg.cout])?,
            cfg,
            act,
        })
    }
}

impl Layer for Conv2d {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let b = self.b.tensor.clone();
        ops::conv2d(s, x, &self.w.tensor, Some(&b), self.cfg, self.act)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        if self.act != Act::None {
            ops::elementwise_inplace(
                s,
                "at::native::vectorized_elementwise_kernel<act_backward>",
                grad_out,
            )?;
        }
        let (gx, gw, gb) = ops::conv2d_backward(s, x, &self.w.tensor, grad_out, self.cfg)?;
        self.w.set_grad(s, gw)?;
        self.b.set_grad(s, gb)?;
        Ok(gx)
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.w.step(s)?;
        self.b.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.w.destroy(s);
        self.b.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.w.bytes() + self.b.bytes()
    }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// 2-D batch normalization.
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        channels: usize,
    ) -> Result<Self, AccelError> {
        Ok(BatchNorm2d {
            name: name.into(),
            gamma: Param::new(s, &[channels])?,
            beta: Param::new(s, &[channels])?,
        })
    }
}

impl Layer for BatchNorm2d {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let (g, b) = (self.gamma.tensor.clone(), self.beta.tensor.clone());
        ops::batchnorm2d(s, x, &g, &b)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        let (gx, gg, gb) = ops::batchnorm2d_backward(s, x, grad_out)?;
        self.gamma.set_grad(s, gg)?;
        self.beta.set_grad(s, gb)?;
        Ok(gx)
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.gamma.step(s)?;
        self.beta.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.gamma.destroy(s);
        self.beta.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.gamma.bytes() + self.beta.bytes()
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Max pooling (no parameters).
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    k: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    pub fn new(name: impl Into<String>, k: usize, stride: usize) -> Self {
        MaxPool2d {
            name: name.into(),
            k,
            stride,
        }
    }
}

impl Layer for MaxPool2d {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        ops::maxpool2d(s, x, self.k, self.stride)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        ops::maxpool2d_backward(s, x, grad_out)
    }

    fn destroy(&mut self, _s: &mut Session<'_>) {}
}

// ---------------------------------------------------------------------------
// Flatten (contiguous copy)
// ---------------------------------------------------------------------------

/// Flattens `[n, …]` to `[n, rest]` via a contiguous copy
/// (`aten::contiguous` launches a real copy kernel in NCHW → FC
/// transitions, which is what this models).
#[derive(Debug)]
pub struct Flatten {
    name: String,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Flatten { name: name.into() }
    }
}

impl Layer for Flatten {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let n = x.shape[0];
        let rest = (x.numel() / n as u64) as usize;
        ops::elementwise(s, "at::native::copy_kernel", &[x], &[n, rest])
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        ops::elementwise(s, "at::native::copy_kernel", &[grad_out], &x.shape)
    }

    fn destroy(&mut self, _s: &mut Session<'_>) {}
}

// ---------------------------------------------------------------------------
// AvgPool2d (global / adaptive)
// ---------------------------------------------------------------------------

/// Adaptive average pooling to a 1×1 spatial output (ResNet's final pool).
#[derive(Debug)]
pub struct GlobalAvgPool {
    name: String,
}

impl GlobalAvgPool {
    /// Creates the pool.
    pub fn new(name: impl Into<String>) -> Self {
        GlobalAvgPool { name: name.into() }
    }
}

impl Layer for GlobalAvgPool {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let (n, c) = (x.shape[0], x.shape[1]);
        s.with_op("aten::adaptive_avg_pool2d", |s| {
            ops::elementwise(
                s,
                "at::native::(anonymous namespace)::adaptive_average_pool",
                &[x],
                &[n, c, 1, 1],
            )
        })
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        s.with_op("aten::adaptive_avg_pool2d_backward", |s| {
            ops::elementwise(
                s,
                "at::native::(anonymous namespace)::adaptive_average_pool_backward",
                &[grad_out],
                &x.shape,
            )
        })
    }

    fn destroy(&mut self, _s: &mut Session<'_>) {}
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Layer normalization over the last dimension.
#[derive(Debug)]
pub struct LayerNorm {
    name: String,
    gamma: Param,
    beta: Param,
    width: usize,
}

impl LayerNorm {
    /// Creates a layer-norm over the trailing `width`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        width: usize,
    ) -> Result<Self, AccelError> {
        Ok(LayerNorm {
            name: name.into(),
            gamma: Param::new(s, &[width])?,
            beta: Param::new(s, &[width])?,
            width,
        })
    }
}

impl Layer for LayerNorm {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let (g, b) = (self.gamma.tensor.clone(), self.beta.tensor.clone());
        ops::layernorm(s, x, &g, &b)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        let (gx, gg, gb) = ops::layernorm_backward(s, x, grad_out, self.width)?;
        self.gamma.set_grad(s, gg)?;
        self.beta.set_grad(s, gb)?;
        Ok(gx)
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.gamma.step(s)?;
        self.beta.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.gamma.destroy(s);
        self.beta.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.gamma.bytes() + self.beta.bytes()
    }
}

// ---------------------------------------------------------------------------
// Multi-head attention
// ---------------------------------------------------------------------------

/// Multi-head self-attention (fused QKV projection).
///
/// Supports Megatron-style tensor-parallel sharding: a shard keeps
/// `heads/shard` heads and a `dim/shard`-wide projection, while the output
/// projection restores the full model width.
#[derive(Debug)]
pub struct MultiHeadAttention {
    name: String,
    wqkv: Param,
    wo: Param,
    /// Local projection width (`dim / shard`).
    width: usize,
    /// Local head count.
    heads: usize,
    /// Internally-allocated activations kept for backward.
    saved: Vec<Tensor>,
}

impl MultiHeadAttention {
    /// Creates an attention block of `dim` split over `heads`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        dim: usize,
        heads: usize,
    ) -> Result<Self, AccelError> {
        Self::new_sharded(s, name, dim, heads, 1)
    }

    /// Creates one tensor-parallel shard: `heads/shard` local heads over a
    /// `dim/shard` projection width.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    ///
    /// # Panics
    ///
    /// Panics when `shard` does not divide `heads` and `dim`.
    pub fn new_sharded(
        s: &mut Session<'_>,
        name: impl Into<String>,
        dim: usize,
        heads: usize,
        shard: usize,
    ) -> Result<Self, AccelError> {
        assert!(shard >= 1 && heads.is_multiple_of(shard) && dim.is_multiple_of(shard));
        let width = dim / shard;
        Ok(MultiHeadAttention {
            name: name.into(),
            wqkv: Param::new(s, &[3 * width, dim])?,
            wo: Param::new(s, &[dim, width])?,
            width,
            heads: heads / shard,
            saved: Vec::new(),
        })
    }

    /// Sequences at or above this use the tiled flash-attention path,
    /// which never materializes the O(seq^2) score/probability matrices
    /// (Whisper's 1500-frame encoder would otherwise spike gigabytes of
    /// transients that real SDPA implementations do not allocate).
    const FLASH_SEQ_THRESHOLD: usize = 1280;

    fn attention_core(
        &mut self,
        s: &mut Session<'_>,
        qkv: &Tensor,
        batch: usize,
        seq: usize,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        let d = self.width;
        let h = self.heads;
        if seq >= Self::FLASH_SEQ_THRESHOLD {
            return self.flash_core(s, qkv, batch, seq, train);
        }
        // Backends without fused attention paths (MIOpen/rocBLAS)
        // materialize separate Q/K/V tensors before the batched GEMMs —
        // three extra transient tensors and three copy kernels per
        // attention, part of the AMD "more alloc/dealloc events" pattern
        // of the paper's Fig. 14.
        let split = if !s.backend().fused_epilogue {
            let mut parts = Vec::with_capacity(3);
            for part in ["q", "k", "v"] {
                let t = s.alloc_tensor(&[batch, seq, d], crate::dtype::DType::F32)?;
                let (g, blk) = {
                    let work = t.numel() / 4;
                    (
                        accel_sim::Dim3::linear((work.max(1)).div_ceil(256).max(1) as u32),
                        accel_sim::Dim3::linear(256),
                    )
                };
                let desc = accel_sim::KernelDesc::new(
                    format!("at::native::copy_kernel<split_{part}>"),
                    g,
                    blk,
                )
                .arg(qkv.ptr, qkv.bytes)
                .arg(t.ptr, t.bytes)
                .body(
                    accel_sim::KernelBody::default()
                        .access(accel_sim::AccessSpec::load(0, qkv.bytes / 3))
                        .access(accel_sim::AccessSpec::store(1, t.bytes)),
                );
                s.launch(desc)?;
                parts.push(t);
            }
            Some(parts)
        } else {
            None
        };
        // scores[b*h, s, s] = Q × Kᵀ.
        let scores = s.alloc_tensor(&[batch * h, seq, seq], DType::F32)?;
        ops::gemm_kernel(
            s,
            "64x64_attn_qk",
            qkv,
            qkv,
            &scores,
            (batch * h * seq) as u64,
            seq as u64,
            (d / h) as u64,
            None,
            Act::None,
        )?;
        let probs = ops::softmax(s, &scores)?;
        s.free_tensor(&scores);
        // ctx[b, s, d] = probs × V.
        let ctx = s.alloc_tensor(&[batch, seq, d], DType::F32)?;
        ops::gemm_kernel(
            s,
            "64x64_attn_pv",
            &probs,
            qkv,
            &ctx,
            (batch * h * seq) as u64,
            (d / h) as u64,
            seq as u64,
            None,
            Act::None,
        )?;
        // Memory-efficient attention: the probability matrix is never kept
        // for backward — it is recomputed there (as PyTorch's SDPA does).
        // Keeping it would add O(heads x seq^2) per block to the training
        // footprint and blow Table V's training rows far past the paper's.
        s.free_tensor(&probs);
        if let Some(parts) = split {
            for t in parts {
                s.free_tensor(&t);
            }
        }
        Ok(ctx)
    }

    /// Tiled flash-attention forward: one fused kernel, no materialized
    /// score/probability tensors. Backward runs the matching fused
    /// gradient kernel (see [`MultiHeadAttention::backward`]).
    fn flash_core(
        &mut self,
        s: &mut Session<'_>,
        qkv: &Tensor,
        batch: usize,
        seq: usize,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let (d, h) = (self.width, self.heads);
        let ctx = s.alloc_tensor(&[batch, seq, d], DType::F32)?;
        let grid = accel_sim::Dim3::plane(seq.div_ceil(128) as u32, (batch * h) as u32);
        let desc = accel_sim::KernelDesc::new(
            "flash_fwd_kernel<128, 128, softmax_scale>",
            grid,
            accel_sim::Dim3::linear(256),
        )
        .arg(qkv.ptr, qkv.bytes)
        .arg(ctx.ptr, ctx.bytes)
        .body(
            accel_sim::KernelBody::default()
                .with_flops(4 * (batch * h * seq * seq) as u64 * (d / h) as u64)
                .with_barriers((seq / 64).max(1) as u32)
                .with_shared_mem(96 << 10)
                .access(
                    accel_sim::AccessSpec::load(0, qkv.bytes)
                        .with_bytes(qkv.bytes * ((seq / 128).max(1) as u64)),
                )
                .access(accel_sim::AccessSpec::store(1, ctx.bytes)),
        );
        s.launch(desc)?;
        Ok(ctx)
    }

    /// Fused flash-attention backward over the saved QKV.
    fn flash_backward(
        &mut self,
        s: &mut Session<'_>,
        qkv: &Tensor,
        g_qkv: &Tensor,
        g_ctx: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(), AccelError> {
        let (d, h) = (self.width, self.heads);
        let grid = accel_sim::Dim3::plane(seq.div_ceil(128) as u32, (batch * h) as u32);
        let desc = accel_sim::KernelDesc::new(
            "flash_bwd_kernel<128, 128, softmax_scale>",
            grid,
            accel_sim::Dim3::linear(256),
        )
        .arg(qkv.ptr, qkv.bytes)
        .arg(g_qkv.ptr, g_qkv.bytes)
        .arg(g_ctx.ptr, g_ctx.bytes)
        .body(
            accel_sim::KernelBody::default()
                .with_flops(8 * (batch * h * seq * seq) as u64 * (d / h) as u64)
                .with_barriers((seq / 64).max(1) as u32)
                .with_shared_mem(96 << 10)
                .access(
                    accel_sim::AccessSpec::load(0, qkv.bytes)
                        .with_bytes(qkv.bytes * 2 * ((seq / 128).max(1) as u64)),
                )
                .access(accel_sim::AccessSpec::store(1, g_qkv.bytes))
                .access(accel_sim::AccessSpec::load(2, g_ctx.bytes)),
        );
        s.launch(desc)?;
        Ok(())
    }

    /// Recomputes the softmax probabilities from the saved QKV (the
    /// backward half of memory-efficient attention).
    fn recompute_probs(
        &mut self,
        s: &mut Session<'_>,
        qkv: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<Tensor, AccelError> {
        let (d, h) = (self.width, self.heads);
        let scores = s.alloc_tensor(&[batch * h, seq, seq], DType::F32)?;
        ops::gemm_kernel(
            s,
            "64x64_attn_qk_recompute",
            qkv,
            qkv,
            &scores,
            (batch * h * seq) as u64,
            seq as u64,
            (d / h) as u64,
            None,
            Act::None,
        )?;
        let probs = ops::softmax(s, &scores)?;
        s.free_tensor(&scores);
        Ok(probs)
    }
}

impl Layer for MultiHeadAttention {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        let (batch, seq) = (x.shape[0], x.shape[1]);
        s.with_op("aten::scaled_dot_product_attention", |s| {
            let qkv = ops::linear(s, x, &self.wqkv.tensor.clone(), None, Act::None)?;
            let ctx = self.attention_core(s, &qkv, batch, seq, train)?;
            if train {
                self.saved.push(qkv);
            } else {
                s.free_tensor(&qkv);
            }
            let out = ops::linear(s, &ctx, &self.wo.tensor.clone(), None, Act::None)?;
            if train {
                self.saved.push(ctx);
            } else {
                s.free_tensor(&ctx);
            }
            Ok(out)
        })
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        // Saved (in push order): qkv, ctx.
        let ctx = self.saved.pop().expect("ctx saved");
        let qkv = self.saved.pop().expect("qkv saved");
        let (batch, seq) = (x.shape[0], x.shape[1]);

        // dCtx through the output projection.
        let (g_ctx, g_wo, _) = ops::linear_backward(s, &ctx, &self.wo.tensor, grad_out, false)?;
        self.wo.set_grad(s, g_wo)?;
        s.free_tensor(&ctx);

        let g_qkv = s.alloc_tensor(&qkv.shape, DType::F32)?;
        if seq >= Self::FLASH_SEQ_THRESHOLD {
            self.flash_backward(s, &qkv, &g_qkv, &g_ctx, batch, seq)?;
            s.free_tensor(&g_ctx);
        } else {
            // Memory-efficient attention recomputes the probabilities here.
            let probs = self.recompute_probs(s, &qkv, batch, seq)?;
            // Through the attention core: dProbs, dV (into dQKV), dQ/dK.
            let g_probs = ops::softmax_backward(s, &probs, &g_ctx)?;
            s.free_tensor(&probs);
            s.free_tensor(&g_ctx);
            let (bh, sq) = (g_probs.shape[0] * g_probs.shape[1], g_probs.shape[2]);
            ops::gemm_kernel(
                s,
                "64x64_attn_bwd",
                &g_probs,
                &qkv,
                &g_qkv,
                bh as u64,
                (self.width / self.heads) as u64,
                sq as u64,
                None,
                Act::None,
            )?;
            s.free_tensor(&g_probs);
        }

        // Back through the QKV projection.
        let (gx, g_wqkv, _) = ops::linear_backward(s, x, &self.wqkv.tensor, &g_qkv, false)?;
        self.wqkv.set_grad(s, g_wqkv)?;
        s.free_tensor(&g_qkv);
        s.free_tensor(&qkv);
        Ok(gx)
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        for t in self.saved.drain(..) {
            s.free_tensor(&t);
        }
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.wqkv.step(s)?;
        self.wo.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.release_saved(s);
        self.wqkv.destroy(s);
        self.wo.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.wqkv.bytes() + self.wo.bytes()
    }
}

// ---------------------------------------------------------------------------
// Transformer block
// ---------------------------------------------------------------------------

/// Pre-norm transformer block: `x + attn(ln1(x))`, then `x + mlp(ln2(x))`.
pub struct TransformerBlock {
    name: String,
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
    /// Internal activations saved for backward, in creation order:
    /// `[h1, a, x1, h2, m1]`.
    saved: Vec<Tensor>,
}

impl TransformerBlock {
    /// Creates a block of width `dim`, `heads` heads and `ffn` hidden width.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        dim: usize,
        heads: usize,
        ffn: usize,
    ) -> Result<Self, AccelError> {
        Self::new_sharded(s, name, dim, heads, ffn, 1)
    }

    /// Creates one tensor-parallel shard of a block: attention heads and
    /// the feed-forward hidden width are divided by `shard` (Megatron-LM's
    /// column/row-parallel split), while layer norms keep the full width.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new_sharded(
        s: &mut Session<'_>,
        name: impl Into<String>,
        dim: usize,
        heads: usize,
        ffn: usize,
        shard: usize,
    ) -> Result<Self, AccelError> {
        let name = name.into();
        let ffn_local = ffn / shard.max(1);
        Ok(TransformerBlock {
            ln1: LayerNorm::new(s, format!("{name}.ln1"), dim)?,
            attn: MultiHeadAttention::new_sharded(s, format!("{name}.attn"), dim, heads, shard)?,
            ln2: LayerNorm::new(s, format!("{name}.ln2"), dim)?,
            fc1: Linear::new(
                s,
                format!("{name}.mlp.fc1"),
                dim,
                ffn_local,
                true,
                Act::Gelu,
            )?,
            fc2: Linear::new(
                s,
                format!("{name}.mlp.fc2"),
                ffn_local,
                dim,
                true,
                Act::None,
            )?,
            name,
            saved: Vec::new(),
        })
    }
}

impl Layer for TransformerBlock {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        let h1 = self.ln1.forward(s, x, train)?;
        let a = self.attn.forward(s, &h1, train)?;
        let x1 = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add>",
            &[x, &a],
            &x.shape,
        )?;
        let h2 = self.ln2.forward(s, &x1, train)?;
        let m0 = self.fc1.forward(s, &h2, train)?;
        let m1 = self.fc2.forward(s, &m0, train)?;
        let y = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add>",
            &[&x1, &m1],
            &x1.shape,
        )?;
        if train {
            // m0 is consumed by fc2's backward as its input activation.
            self.saved = vec![h1, a, x1, h2, m0, m1];
        } else {
            for t in [h1, a, x1, h2, m0, m1] {
                s.free_tensor(&t);
            }
        }
        Ok(y)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        let m1 = self.saved.pop().expect("m1");
        let m0 = self.saved.pop().expect("m0");
        let h2 = self.saved.pop().expect("h2");
        let x1 = self.saved.pop().expect("x1");
        let a = self.saved.pop().expect("a");
        let h1 = self.saved.pop().expect("h1");

        // Residual 2: grad flows to both the MLP branch and x1.
        let g_m1 = grad_out.clone(); // same gradient tensor feeds the branch
        let g_m0 = self.fc2.backward(s, &m0, &g_m1)?;
        s.free_tensor(&m1);
        s.free_tensor(&m0);
        let g_h2 = self.fc1.backward(s, &h2, &g_m0)?;
        s.free_tensor(&g_m0);
        let g_x1_mlp = self.ln2.backward(s, &x1, &g_h2)?;
        s.free_tensor(&g_h2);
        s.free_tensor(&h2);
        // g_x1 = grad_out + g_x1_mlp.
        let g_x1 = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add>",
            &[grad_out, &g_x1_mlp],
            &grad_out.shape,
        )?;
        s.free_tensor(&g_x1_mlp);
        s.free_tensor(&x1);

        // Residual 1: through attention and ln1.
        let g_a = g_x1.clone();
        let g_h1 = self.attn.backward(s, &h1, &g_a)?;
        s.free_tensor(&a);
        let g_x_attn = self.ln1.backward(s, x, &g_h1)?;
        s.free_tensor(&g_h1);
        s.free_tensor(&h1);
        let gx = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add>",
            &[&g_x1, &g_x_attn],
            &g_x1.shape,
        )?;
        s.free_tensor(&g_x1);
        s.free_tensor(&g_x_attn);
        Ok(gx)
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        for t in self.saved.drain(..) {
            s.free_tensor(&t);
        }
        self.attn.release_saved(s);
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.ln1.step(s)?;
        self.attn.step(s)?;
        self.ln2.step(s)?;
        self.fc1.step(s)?;
        self.fc2.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.release_saved(s);
        self.ln1.destroy(s);
        self.attn.destroy(s);
        self.ln2.destroy(s);
        self.fc1.destroy(s);
        self.fc2.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.ln1.param_bytes()
            + self.attn.param_bytes()
            + self.ln2.param_bytes()
            + self.fc1.param_bytes()
            + self.fc2.param_bytes()
    }
}

// ---------------------------------------------------------------------------
// Residual (ResNet basic) block
// ---------------------------------------------------------------------------

/// ResNet basic block: two 3×3 convolutions with batch norm and an
/// identity (or 1×1 projection) shortcut.
pub struct BasicBlock {
    name: String,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    saved: Vec<Tensor>,
}

impl BasicBlock {
    /// Creates a basic block `cin → cout` with the given stride.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(
        s: &mut Session<'_>,
        name: impl Into<String>,
        cin: usize,
        cout: usize,
        stride: usize,
    ) -> Result<Self, AccelError> {
        let name = name.into();
        let conv1 = Conv2d::new(
            s,
            format!("{name}.conv1"),
            Conv2dCfg {
                cin,
                cout,
                k: 3,
                stride,
                pad: 1,
            },
            Act::None,
        )?;
        let bn1 = BatchNorm2d::new(s, format!("{name}.bn1"), cout)?;
        let conv2 = Conv2d::new(
            s,
            format!("{name}.conv2"),
            Conv2dCfg {
                cin: cout,
                cout,
                k: 3,
                stride: 1,
                pad: 1,
            },
            Act::None,
        )?;
        let bn2 = BatchNorm2d::new(s, format!("{name}.bn2"), cout)?;
        let shortcut = if stride != 1 || cin != cout {
            Some((
                Conv2d::new(
                    s,
                    format!("{name}.downsample.conv"),
                    Conv2dCfg {
                        cin,
                        cout,
                        k: 1,
                        stride,
                        pad: 0,
                    },
                    Act::None,
                )?,
                BatchNorm2d::new(s, format!("{name}.downsample.bn"), cout)?,
            ))
        } else {
            None
        };
        Ok(BasicBlock {
            name,
            conv1,
            bn1,
            conv2,
            bn2,
            shortcut,
            saved: Vec::new(),
        })
    }
}

impl Layer for BasicBlock {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        let c1 = self.conv1.forward(s, x, train)?;
        let b1 = self.bn1.forward(s, &c1, train)?;
        ops::elementwise_inplace(s, "at::native::vectorized_elementwise_kernel<relu>", &b1)?;
        let c2 = self.conv2.forward(s, &b1, train)?;
        let b2 = self.bn2.forward(s, &c2, train)?;
        // Shortcut path: the bn output `u` is consumed by the add below and
        // freed immediately; the conv output `t` is what bn's backward
        // needs, so it is the tensor saved in training mode.
        let sc = match self.shortcut.as_mut() {
            Some((conv, bn)) => {
                let t = conv.forward(s, x, train)?;
                let u = bn.forward(s, &t, train)?;
                Some((t, u))
            }
            None => None,
        };
        let y = match &sc {
            Some((_, u)) => ops::elementwise(
                s,
                "at::native::vectorized_elementwise_kernel<add_relu>",
                &[&b2, u],
                &b2.shape,
            )?,
            None => ops::elementwise(
                s,
                "at::native::vectorized_elementwise_kernel<add_relu>",
                &[&b2, x],
                &b2.shape,
            )?,
        };
        if train {
            self.saved.extend([c1, b1, c2, b2]);
            if let Some((t, u)) = sc {
                s.free_tensor(&u);
                self.saved.push(t);
            }
        } else {
            for t in [c1, b1, c2, b2] {
                s.free_tensor(&t);
            }
            if let Some((t, u)) = sc {
                s.free_tensor(&t);
                s.free_tensor(&u);
            }
        }
        Ok(y)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        let sc_in = if self.shortcut.is_some() {
            Some(self.saved.pop().expect("shortcut conv output"))
        } else {
            None
        };
        let b2 = self.saved.pop().expect("b2");
        let c2 = self.saved.pop().expect("c2");
        let b1 = self.saved.pop().expect("b1");
        let c1 = self.saved.pop().expect("c1");

        // Main path.
        let g_b2 = self.bn2.backward(s, &c2, grad_out)?;
        s.free_tensor(&b2);
        let g_c2 = self.conv2.backward(s, &b1, &g_b2)?;
        s.free_tensor(&g_b2);
        s.free_tensor(&c2);
        let g_b1 = self.bn1.backward(s, &c1, &g_c2)?;
        s.free_tensor(&g_c2);
        s.free_tensor(&b1);
        let g_main = self.conv1.backward(s, x, &g_b1)?;
        s.free_tensor(&g_b1);
        s.free_tensor(&c1);

        // Shortcut path.
        let gx = match (self.shortcut.as_mut(), sc_in) {
            (Some((conv, bn)), Some(sc_in)) => {
                let g_bn = bn.backward(s, &sc_in, grad_out)?;
                let g_sc = conv.backward(s, x, &g_bn)?;
                s.free_tensor(&g_bn);
                s.free_tensor(&sc_in);
                let sum = ops::elementwise(
                    s,
                    "at::native::vectorized_elementwise_kernel<add>",
                    &[&g_main, &g_sc],
                    &g_main.shape,
                )?;
                s.free_tensor(&g_main);
                s.free_tensor(&g_sc);
                sum
            }
            _ => {
                // Identity shortcut: add grad_out into the main gradient.
                let sum = ops::elementwise(
                    s,
                    "at::native::vectorized_elementwise_kernel<add>",
                    &[&g_main, grad_out],
                    &g_main.shape,
                )?;
                s.free_tensor(&g_main);
                sum
            }
        };
        Ok(gx)
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        for t in self.saved.drain(..) {
            s.free_tensor(&t);
        }
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.conv1.step(s)?;
        self.bn1.step(s)?;
        self.conv2.step(s)?;
        self.bn2.step(s)?;
        if let Some((conv, bn)) = self.shortcut.as_mut() {
            conv.step(s)?;
            bn.step(s)?;
        }
        Ok(())
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.release_saved(s);
        self.conv1.destroy(s);
        self.bn1.destroy(s);
        self.conv2.destroy(s);
        self.bn2.destroy(s);
        if let Some((mut conv, mut bn)) = self.shortcut.take() {
            conv.destroy(s);
            bn.destroy(s);
        }
    }

    fn param_bytes(&self) -> u64 {
        self.conv1.param_bytes()
            + self.bn1.param_bytes()
            + self.conv2.param_bytes()
            + self.bn2.param_bytes()
            + self
                .shortcut
                .as_ref()
                .map_or(0, |(c, b)| c.param_bytes() + b.param_bytes())
    }
}

// ---------------------------------------------------------------------------
// Sequential container
// ---------------------------------------------------------------------------

/// An owning sequence of layers with activation-lifetime management.
pub struct Sequential {
    label: String,
    layers: Vec<Box<dyn Layer>>,
    /// Training-mode activations: `acts[i]` is the *input* of layer `i`.
    acts: Vec<Tensor>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("label", &self.label)
            .field("layers", &self.layers.len())
            .field("live_acts", &self.acts.len())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new(label: impl Into<String>) -> Self {
        Sequential {
            label: label.into(),
            layers: Vec::new(),
            acts: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Mutable access to the layers (models with non-sequential dataflow,
    /// e.g. Whisper's cross-attention decoder, drive layers directly).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layers are present.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Container label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Runs the forward pass, taking ownership of `input`. In inference
    /// mode intermediates are freed eagerly; in training they are kept for
    /// [`Sequential::backward`]. The caller owns the returned output.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub fn forward(
        &mut self,
        s: &mut Session<'_>,
        input: Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        assert!(self.acts.is_empty(), "forward called with pending backward");
        let mut x = input;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            s.layer_boundary(&layer.label(), i);
            let y = layer.forward(s, &x, train)?;
            if train {
                self.acts.push(x);
            } else {
                s.free_tensor(&x);
                layer.release_saved(s);
            }
            x = y;
        }
        Ok(x)
    }

    /// Runs the backward pass, consuming `grad_output` and the stored
    /// activations, and returning the gradient with respect to the
    /// original input (the caller frees it — models with embeddings need
    /// it to finish their own backward). The *caller* still owns the
    /// forward output and must free it after this returns.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub fn backward(
        &mut self,
        s: &mut Session<'_>,
        grad_output: Tensor,
    ) -> Result<Tensor, AccelError> {
        assert_eq!(
            self.acts.len(),
            self.layers.len(),
            "backward requires a training-mode forward first"
        );
        let mut grad = grad_output;
        for i in (0..self.layers.len()).rev() {
            let x = self.acts.pop().expect("activation");
            let g_in = self.layers[i].backward(s, &x, &grad)?;
            s.free_tensor(&grad);
            s.free_tensor(&x);
            grad = g_in;
        }
        Ok(grad)
    }

    /// Optimizer step over every layer.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        for layer in &mut self.layers {
            layer.step(s)?;
        }
        Ok(())
    }

    /// Frees all parameters and any dangling activations.
    pub fn destroy(&mut self, s: &mut Session<'_>) {
        for t in self.acts.drain(..) {
            s.free_tensor(&t);
        }
        for layer in &mut self.layers {
            layer.release_saved(s);
            layer.destroy(s);
        }
        self.layers.clear();
    }

    /// Total parameter bytes.
    pub fn param_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.param_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    fn rt() -> CudaContext {
        CudaContext::new(vec![DeviceSpec::a100_80gb()])
    }

    #[test]
    fn linear_train_round_trip_frees_everything() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let mut seq = Sequential::new("mlp");
        seq.push(Box::new(
            Linear::new(&mut s, "fc1", 512, 256, true, Act::Relu).unwrap(),
        ));
        seq.push(Box::new(
            Linear::new(&mut s, "fc2", 256, 10, true, Act::None).unwrap(),
        ));
        let params = s.allocator_stats().allocated;

        let input = s.alloc_tensor(&[32, 512], DType::F32).unwrap();
        let out = seq.forward(&mut s, input, true).unwrap();
        assert_eq!(out.shape.to_vec(), vec![32, 10]);
        let grad = s.alloc_tensor(&[32, 10], DType::F32).unwrap();
        let g_in = seq.backward(&mut s, grad).unwrap();
        s.free_tensor(&g_in);
        s.free_tensor(&out);
        seq.step(&mut s).unwrap();
        s.release_workspaces();
        // After step: params + adam moments remain (2 extra tensors/param).
        let now = s.allocator_stats().allocated;
        assert_eq!(now, params * 3, "params plus two moments each");
        seq.destroy(&mut s);
        assert_eq!(s.allocator_stats().allocated, 0);
    }

    #[test]
    fn inference_frees_intermediates_eagerly() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let mut seq = Sequential::new("m");
        for i in 0..4 {
            seq.push(Box::new(
                Linear::new(&mut s, format!("fc{i}"), 256, 256, true, Act::Relu).unwrap(),
            ));
        }
        let base = s.allocator_stats().allocated;
        let input = s.alloc_tensor(&[8, 256], DType::F32).unwrap();
        let out = seq.forward(&mut s, input, false).unwrap();
        s.release_workspaces();
        let after = s.allocator_stats().allocated;
        assert_eq!(after, base + 8 * 256 * 4, "only the output survives");
        s.free_tensor(&out);
        seq.destroy(&mut s);
        assert_eq!(s.allocator_stats().allocated, 0);
    }

    #[test]
    fn transformer_block_train_cycle() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let mut seq = Sequential::new("tiny-transformer");
        seq.push(Box::new(
            TransformerBlock::new(&mut s, "block0", 128, 4, 512).unwrap(),
        ));
        let params = s.allocator_stats().allocated;
        let input = s.alloc_tensor(&[2, 16, 128], DType::F32).unwrap();
        let out = seq.forward(&mut s, input, true).unwrap();
        assert_eq!(out.shape.to_vec(), vec![2, 16, 128]);
        let grad = s.alloc_tensor(&[2, 16, 128], DType::F32).unwrap();
        let g_in = seq.backward(&mut s, grad).unwrap();
        s.free_tensor(&g_in);
        s.free_tensor(&out);
        seq.step(&mut s).unwrap();
        s.release_workspaces();
        assert_eq!(s.allocator_stats().allocated, params * 3);
        seq.destroy(&mut s);
        assert_eq!(s.allocator_stats().allocated, 0);
    }

    #[test]
    fn basic_block_with_downsample_train_cycle() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let mut seq = Sequential::new("res");
        seq.push(Box::new(
            BasicBlock::new(&mut s, "layer1.0", 64, 128, 2).unwrap(),
        ));
        let params = s.allocator_stats().allocated;
        let input = s.alloc_tensor(&[4, 64, 56, 56], DType::F32).unwrap();
        let out = seq.forward(&mut s, input, true).unwrap();
        assert_eq!(out.shape.to_vec(), vec![4, 128, 28, 28]);
        let grad = s.alloc_tensor(&out.shape, DType::F32).unwrap();
        let g_in = seq.backward(&mut s, grad).unwrap();
        s.free_tensor(&g_in);
        s.free_tensor(&out);
        seq.step(&mut s).unwrap();
        s.release_workspaces();
        assert_eq!(s.allocator_stats().allocated, params * 3);
        seq.destroy(&mut s);
        assert_eq!(s.allocator_stats().allocated, 0);
    }

    #[test]
    fn param_bytes_counts_weights() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let l = Linear::new(&mut s, "fc", 100, 10, true, Act::None).unwrap();
        assert_eq!(l.param_bytes(), 100 * 10 * 4 + 10 * 4);
    }

    #[test]
    #[should_panic(expected = "pending backward")]
    fn forward_twice_without_backward_panics() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let mut seq = Sequential::new("m");
        seq.push(Box::new(
            Linear::new(&mut s, "fc", 64, 64, false, Act::None).unwrap(),
        ));
        let a = s.alloc_tensor(&[1, 64], DType::F32).unwrap();
        let b = s.alloc_tensor(&[1, 64], DType::F32).unwrap();
        let _o1 = seq.forward(&mut s, a, true).unwrap();
        let _o2 = seq.forward(&mut s, b, true).unwrap();
    }
}
