//! Neural-network layers with forward and backward passes.
//!
//! Layers manage their parameters (and Adam moments), launch their kernels
//! through [`ops`], and cooperate with the container on activation
//! lifetimes: a layer's `forward` never frees its input — the container
//! (`Sequential` or a model) owns activations and frees them on the
//! schedule that reproduces real frameworks' memory curves (eager freeing
//! in inference; free-as-you-backprop in training, which produces the
//! ramp-up/peak/ramp-down of the paper's Fig. 14).
//!
//! Whatever owns parameters — a layer, a `Sequential`, a model —
//! implements `Params`: one walk over its `Param`s in optimizer-step
//! order. The Adam step, `destroy` (saved activations, then every
//! parameter with its gradient and moments) and `param_bytes` are that
//! walk, written once as the trait's provided methods.

use crate::dtype::DType;
use crate::ops::{self, Act, Attention, AttnGrad, AttnTiles, Conv2dCfg, Kernel, ADD};
use crate::session::Session;
use crate::tensor::Tensor;
use accel_sim::{AccelError, Dim3};
use std::cell::Cell;

/// A trainable parameter with lazily-created gradient and Adam moments.
///
/// The gradient and the moments sit in cells, so the one `&self` walk
/// ([`Params::params`]) serves the optimizer and `destroy` as well as
/// `param_bytes`.
pub(crate) struct Param {
    /// The parameter tensor.
    pub tensor: Tensor,
    grad: Cell<Option<Tensor>>,
    moments: Cell<Option<(Tensor, Tensor)>>,
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
            grad: Cell::new(None),
            moments: Cell::new(None),
        })
    }

    /// Installs (or accumulates into) the gradient.
    ///
    /// # Errors
    ///
    /// Propagates launch failures from the accumulation kernel.
    pub(crate) fn set_grad(&self, s: &mut Session<'_>, grad: Tensor) -> Result<(), AccelError> {
        let Some(existing) = self.grad.take() else {
            self.grad.set(Some(grad));
            return Ok(());
        };
        // Accumulate: existing += grad, then drop the new tensor.
        self.grad.set(Some(existing.clone()));
        ops::elementwise_inplace(s, ADD, &existing)?;
        s.free_tensor(&grad);
        Ok(())
    }

    /// Applies one fused Adam step (allocating the moments on first use)
    /// and frees the gradient.
    fn adam(&self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let Some(grad) = self.grad.take() else {
            return Ok(());
        };
        let (m, v) = match self.moments.take() {
            Some(moments) => moments,
            None => (
                s.alloc_tensor(&self.tensor.shape, DType::F32)?,
                s.alloc_tensor(&self.tensor.shape, DType::F32)?,
            ),
        };
        self.moments.set(Some((m.clone(), v.clone())));
        ops::adam_step(s, &self.tensor, &grad, &m, &v)?;
        s.free_tensor(&grad);
        Ok(())
    }

    /// Frees any pending gradient, the moments and the parameter.
    fn free(&self, s: &mut Session<'_>) {
        if let Some(g) = self.grad.take() {
            s.free_tensor(&g);
        }
        if let Some((m, v)) = self.moments.take() {
            s.free_tensor(&m);
            s.free_tensor(&v);
        }
        s.free_tensor(&self.tensor);
    }
}

/// Whatever owns parameters: one walk over them, from which the optimizer
/// step, `destroy` and `param_bytes` follow.
pub(crate) trait Params {
    /// Visits every parameter, in optimizer-step order. Default: none.
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        let _ = f;
    }

    /// Frees any internally-saved activations that backward did not
    /// consume.
    fn release_saved(&mut self, s: &mut Session<'_>) {
        let _ = s;
    }

    /// One Adam step over every parameter, stopping at the first failure.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let mut result = Ok(());
        self.params(&mut |p| {
            if result.is_ok() {
                result = p.adam(s);
            }
        });
        result
    }

    /// Frees saved activations, then every parameter and its moments.
    fn destroy(&mut self, s: &mut Session<'_>) {
        self.release_saved(s);
        self.params(&mut |p| p.free(s));
    }

    /// Total parameter bytes (moments excluded).
    fn param_bytes(&self) -> u64 {
        let mut bytes = 0;
        self.params(&mut |p| bytes += p.tensor.bytes);
        bytes
    }
}

/// A bare parameter walks itself.
impl Params for Param {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(self);
    }
}

/// A neural-network layer.
///
/// Contract: `forward`/`backward` never free their *arguments*; tensors a
/// layer allocates internally and keeps for backward are freed by
/// `backward` or `release_saved`.
pub(crate) trait Layer: Params + Send {
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
}

/// Frees every tensor in `saved`.
pub(crate) fn free_all(s: &mut Session<'_>, saved: impl IntoIterator<Item = Tensor>) {
    for t in saved {
        s.free_tensor(&t);
    }
}

/// The fused activation's backward, in place on the output gradient.
fn act_backward(s: &mut Session<'_>, act: Act, grad_out: &Tensor) -> Result<(), AccelError> {
    if act == Act::None {
        return Ok(());
    }
    ops::elementwise_inplace(
        s,
        "at::native::vectorized_elementwise_kernel<act_backward>",
        grad_out,
    )
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer with optional fused activation.
pub(crate) struct Linear {
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
        in_f: usize,
        out_f: usize,
        bias: bool,
        act: Act,
    ) -> Result<Self, AccelError> {
        Ok(Linear {
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

impl Params for Linear {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        if let Some(b) = &self.b {
            f(b);
        }
    }
}

impl Layer for Linear {
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let b = self.b.as_ref().map(|p| &p.tensor);
        ops::linear(s, x, &self.w.tensor, b, self.act)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        act_backward(s, self.act, grad_out)?;
        let (gx, gw, gb) = ops::linear_backward(s, x, &self.w.tensor, grad_out, self.b.is_some())?;
        self.w.set_grad(s, gw)?;
        if let (Some(bp), Some(gb)) = (&self.b, gb) {
            bp.set_grad(s, gb)?;
        }
        Ok(gx)
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution with optional fused activation.
pub(crate) struct Conv2d {
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
    pub fn new(s: &mut Session<'_>, cfg: Conv2dCfg, act: Act) -> Result<Self, AccelError> {
        Ok(Conv2d {
            w: Param::new(s, &[cfg.cout, cfg.cin * cfg.k * cfg.k])?,
            b: Param::new(s, &[cfg.cout])?,
            cfg,
            act,
        })
    }
}

impl Params for Conv2d {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }
}

impl Layer for Conv2d {
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        let b = Some(&self.b.tensor);
        ops::conv2d(s, x, &self.w.tensor, b, self.cfg, self.act)
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        act_backward(s, self.act, grad_out)?;
        let (gx, gw, gb) = ops::conv2d_backward(s, x, &self.w.tensor, grad_out, self.cfg)?;
        self.w.set_grad(s, gw)?;
        self.b.set_grad(s, gb)?;
        Ok(gx)
    }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// 2-D batch normalization.
pub(crate) struct BatchNorm2d {
    gamma: Param,
    beta: Param,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub fn new(s: &mut Session<'_>, channels: usize) -> Result<Self, AccelError> {
        Ok(BatchNorm2d {
            gamma: Param::new(s, &[channels])?,
            beta: Param::new(s, &[channels])?,
        })
    }
}

impl Params for BatchNorm2d {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

impl Layer for BatchNorm2d {
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        ops::batchnorm2d(s, x, &self.gamma.tensor, &self.beta.tensor)
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
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Max pooling (no parameters).
pub(crate) struct MaxPool2d {
    k: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    pub fn new(k: usize, stride: usize) -> Self {
        MaxPool2d { k, stride }
    }
}

impl Params for MaxPool2d {}

impl Layer for MaxPool2d {
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
}

// ---------------------------------------------------------------------------
// Flatten (contiguous copy)
// ---------------------------------------------------------------------------

/// Flattens `[n, …]` to `[n, rest]` via a contiguous copy
/// (`aten::contiguous` launches a real copy kernel in NCHW → FC
/// transitions, which is what this models).
pub(crate) struct Flatten;

impl Params for Flatten {}

impl Layer for Flatten {
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
}

// ---------------------------------------------------------------------------
// AvgPool2d (global / adaptive)
// ---------------------------------------------------------------------------

/// Adaptive average pooling to a 1×1 spatial output (ResNet's final pool).
pub(crate) struct GlobalAvgPool;

impl Params for GlobalAvgPool {}

impl Layer for GlobalAvgPool {
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
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Layer normalization over the last dimension.
pub(crate) struct LayerNorm {
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
    pub fn new(s: &mut Session<'_>, width: usize) -> Result<Self, AccelError> {
        Ok(LayerNorm {
            gamma: Param::new(s, &[width])?,
            beta: Param::new(s, &[width])?,
            width,
        })
    }
}

impl Params for LayerNorm {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

impl Layer for LayerNorm {
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        _train: bool,
    ) -> Result<Tensor, AccelError> {
        ops::layernorm(s, x, &self.gamma.tensor, &self.beta.tensor)
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
}

// ---------------------------------------------------------------------------
// Multi-head attention
// ---------------------------------------------------------------------------

/// Self-attention's GEMM tiles.
const ATTN: AttnTiles = AttnTiles {
    qk: "64x64_attn_qk",
    pv: "64x64_attn_pv",
    recompute: "64x64_attn_qk_recompute",
    bwd: "64x64_attn_bwd",
};

/// Multi-head self-attention (fused QKV projection).
pub(crate) struct MultiHeadAttention {
    wqkv: Param,
    wo: Param,
    attn: Attention,
    /// Internally-allocated activations kept for backward.
    saved: Vec<Tensor>,
}

impl MultiHeadAttention {
    /// Creates `heads`-head attention over width `dim`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub(crate) fn new(s: &mut Session<'_>, dim: usize, heads: usize) -> Result<Self, AccelError> {
        Ok(MultiHeadAttention {
            wqkv: Param::new(s, &[3 * dim, dim])?,
            wo: Param::new(s, &[dim, dim])?,
            attn: Attention {
                tiles: ATTN,
                heads,
                d: dim,
            },
            saved: Vec::new(),
        })
    }

    /// Sequences at or above this use the tiled flash-attention path,
    /// which never materializes the O(seq^2) score/probability matrices
    /// (Whisper's 1500-frame encoder would otherwise spike gigabytes of
    /// transients that real SDPA implementations do not allocate).
    const FLASH_SEQ_THRESHOLD: usize = 1280;

    /// The attention core over the fused QKV: flash for long sequences,
    /// otherwise the shared op of [`ops::Attention`].
    fn core(&mut self, s: &mut Session<'_>, qkv: &Tensor) -> Result<Tensor, AccelError> {
        let (batch, seq) = (qkv.shape[0], qkv.shape[1]);
        if seq >= Self::FLASH_SEQ_THRESHOLD {
            return self.flash_core(s, qkv);
        }
        // Backends without fused attention paths (MIOpen/rocBLAS)
        // materialize separate Q/K/V tensors before the batched GEMMs —
        // three extra transient tensors and three copy kernels per
        // attention, part of the AMD "more alloc/dealloc events" pattern
        // of the paper's Fig. 14.
        let mut parts = Vec::new();
        if !s.backend().fused_epilogue {
            for name in [
                "at::native::copy_kernel<split_q>",
                "at::native::copy_kernel<split_k>",
                "at::native::copy_kernel<split_v>",
            ] {
                let t = s.alloc_tensor(&[batch, seq, self.attn.d], DType::F32)?;
                Kernel::new(name, t.numel() / 4)
                    .load(qkv)
                    .len(qkv.bytes / 3)
                    .store(&t)
                    .launch(s)?;
                parts.push(t);
            }
        }
        let (probs, ctx) = self.attn.forward(s, qkv, qkv)?;
        s.free_tensor(&probs);
        free_all(s, parts);
        Ok(ctx)
    }

    /// Tiled flash-attention forward: one fused kernel, no materialized
    /// score/probability tensors. Backward runs the matching fused
    /// gradient kernel.
    fn flash_core(&self, s: &mut Session<'_>, qkv: &Tensor) -> Result<Tensor, AccelError> {
        let ctx = s.alloc_tensor(&[qkv.shape[0], qkv.shape[1], self.attn.d], DType::F32)?;
        self.flash("flash_fwd_kernel<128, 128, softmax_scale>", 1, qkv)
            .store(&ctx)
            .launch(s)?;
        Ok(ctx)
    }

    /// A flash-attention kernel over `qkv`, bound first: `passes` is 1
    /// forward and 2 backward, which does twice the work and reads the
    /// QKV twice as often.
    fn flash(&self, name: &'static str, passes: u64, qkv: &Tensor) -> Kernel {
        let (batch, seq) = (qkv.shape[0], qkv.shape[1]);
        let (d, h) = (self.attn.d, self.attn.heads);
        let grid = Dim3::plane(seq.div_ceil(128) as u32, (batch * h) as u32);
        let mut kernel = Kernel::with_grid(name, grid, Dim3::linear(256));
        kernel
            .flops(4 * passes * (batch * h * seq * seq) as u64 * (d / h) as u64)
            .barriers((seq / 64).max(1) as u32)
            .shared_mem(96 << 10)
            .load(qkv)
            .with_bytes(qkv.bytes * passes * ((seq / 128).max(1) as u64));
        kernel
    }
}

impl Params for MultiHeadAttention {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wqkv);
        f(&self.wo);
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        free_all(s, self.saved.drain(..));
    }
}

impl Layer for MultiHeadAttention {
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        s.with_op("aten::scaled_dot_product_attention", |s| {
            let qkv = ops::linear(s, x, &self.wqkv.tensor, None, Act::None)?;
            let ctx = self.core(s, &qkv)?;
            if train {
                self.saved.push(qkv);
            } else {
                s.free_tensor(&qkv);
            }
            let out = ops::linear(s, &ctx, &self.wo.tensor, None, Act::None)?;
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

        // dCtx through the output projection.
        let (g_ctx, g_wo, _) = ops::linear_backward(s, &ctx, &self.wo.tensor, grad_out, false)?;
        self.wo.set_grad(s, g_wo)?;
        s.free_tensor(&ctx);

        let g_qkv = s.alloc_tensor(&qkv.shape, DType::F32)?;
        if qkv.shape[1] >= Self::FLASH_SEQ_THRESHOLD {
            self.flash("flash_bwd_kernel<128, 128, softmax_scale>", 2, &qkv)
                .store(&g_qkv)
                .load(&g_ctx)
                .launch(s)?;
            s.free_tensor(&g_ctx);
        } else {
            self.attn
                .backward(s, &qkv, &qkv, g_ctx, AttnGrad::Qkv(&g_qkv))?;
        }

        // Back through the QKV projection.
        let (gx, g_wqkv, _) = ops::linear_backward(s, x, &self.wqkv.tensor, &g_qkv, false)?;
        self.wqkv.set_grad(s, g_wqkv)?;
        s.free_tensor(&g_qkv);
        s.free_tensor(&qkv);
        Ok(gx)
    }
}

// ---------------------------------------------------------------------------
// Transformer block
// ---------------------------------------------------------------------------

/// Pre-norm transformer block: `x + attn(ln1(x))`, then `x + mlp(ln2(x))`.
pub(crate) struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
    /// Internal activations saved for backward, in creation order:
    /// `[h1, a, x1, h2, m0, m1]`.
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
        dim: usize,
        heads: usize,
        ffn: usize,
    ) -> Result<Self, AccelError> {
        Ok(TransformerBlock {
            ln1: LayerNorm::new(s, dim)?,
            attn: MultiHeadAttention::new(s, dim, heads)?,
            ln2: LayerNorm::new(s, dim)?,
            fc1: Linear::new(s, dim, ffn, true, Act::Gelu)?,
            fc2: Linear::new(s, ffn, dim, true, Act::None)?,
            saved: Vec::new(),
        })
    }
}

impl Params for TransformerBlock {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        self.ln1.params(f);
        self.attn.params(f);
        self.ln2.params(f);
        self.fc1.params(f);
        self.fc2.params(f);
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        free_all(s, self.saved.drain(..));
        self.attn.release_saved(s);
    }
}

impl Layer for TransformerBlock {
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        let h1 = self.ln1.forward(s, x, train)?;
        let a = self.attn.forward(s, &h1, train)?;
        let x1 = ops::elementwise(s, ADD, &[x, &a], &x.shape)?;
        let h2 = self.ln2.forward(s, &x1, train)?;
        let m0 = self.fc1.forward(s, &h2, train)?;
        let m1 = self.fc2.forward(s, &m0, train)?;
        let y = ops::elementwise(s, ADD, &[&x1, &m1], &x1.shape)?;
        let saved = [h1, a, x1, h2, m0, m1];
        if train {
            // m0 is consumed by fc2's backward as its input activation.
            self.saved = saved.into();
        } else {
            free_all(s, saved);
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
        let g_m0 = self.fc2.backward(s, &m0, grad_out)?;
        s.free_tensor(&m1);
        s.free_tensor(&m0);
        let g_h2 = self.fc1.backward(s, &h2, &g_m0)?;
        s.free_tensor(&g_m0);
        let g_x1_mlp = self.ln2.backward(s, &x1, &g_h2)?;
        s.free_tensor(&g_h2);
        s.free_tensor(&h2);
        // g_x1 = grad_out + g_x1_mlp.
        let g_x1 = ops::elementwise(s, ADD, &[grad_out, &g_x1_mlp], &grad_out.shape)?;
        s.free_tensor(&g_x1_mlp);
        s.free_tensor(&x1);

        // Residual 1: through attention and ln1.
        let g_h1 = self.attn.backward(s, &h1, &g_x1)?;
        s.free_tensor(&a);
        let g_x_attn = self.ln1.backward(s, x, &g_h1)?;
        s.free_tensor(&g_h1);
        s.free_tensor(&h1);
        let gx = ops::elementwise(s, ADD, &[&g_x1, &g_x_attn], &g_x1.shape)?;
        s.free_tensor(&g_x1);
        s.free_tensor(&g_x_attn);
        Ok(gx)
    }
}

// ---------------------------------------------------------------------------
// Residual (ResNet basic) block
// ---------------------------------------------------------------------------

/// ResNet basic block: two 3×3 convolutions with batch norm and an
/// identity (or 1×1 projection) shortcut.
pub(crate) struct BasicBlock {
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
        cin: usize,
        cout: usize,
        stride: usize,
    ) -> Result<Self, AccelError> {
        let conv = |s: &mut Session<'_>, cin, k, stride, pad| {
            let cfg = Conv2dCfg {
                cin,
                cout,
                k,
                stride,
                pad,
            };
            Conv2d::new(s, cfg, Act::None)
        };
        let conv1 = conv(s, cin, 3, stride, 1)?;
        let bn1 = BatchNorm2d::new(s, cout)?;
        let conv2 = conv(s, cout, 3, 1, 1)?;
        let bn2 = BatchNorm2d::new(s, cout)?;
        let shortcut = if stride != 1 || cin != cout {
            Some((conv(s, cin, 1, stride, 0)?, BatchNorm2d::new(s, cout)?))
        } else {
            None
        };
        Ok(BasicBlock {
            conv1,
            bn1,
            conv2,
            bn2,
            shortcut,
            saved: Vec::new(),
        })
    }
}

impl Params for BasicBlock {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.params(f);
        self.bn1.params(f);
        self.conv2.params(f);
        self.bn2.params(f);
        if let Some((conv, bn)) = &self.shortcut {
            conv.params(f);
            bn.params(f);
        }
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        free_all(s, self.saved.drain(..));
    }
}

impl Layer for BasicBlock {
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
        let residual = sc.as_ref().map_or(x, |(_, u)| u);
        let y = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add_relu>",
            &[&b2, residual],
            &b2.shape,
        )?;
        if train {
            self.saved.extend([c1, b1, c2, b2]);
            if let Some((t, u)) = sc {
                s.free_tensor(&u);
                self.saved.push(t);
            }
        } else {
            free_all(s, [c1, b1, c2, b2]);
            if let Some((t, u)) = sc {
                free_all(s, [t, u]);
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

        // Shortcut path (the identity shortcut adds grad_out itself).
        let gx = match (self.shortcut.as_mut(), sc_in) {
            (Some((conv, bn)), Some(sc_in)) => {
                let g_bn = bn.backward(s, &sc_in, grad_out)?;
                let g_sc = conv.backward(s, x, &g_bn)?;
                free_all(s, [g_bn, sc_in]);
                let sum = ops::elementwise(s, ADD, &[&g_main, &g_sc], &g_main.shape)?;
                free_all(s, [g_main, g_sc]);
                sum
            }
            _ => {
                let sum = ops::elementwise(s, ADD, &[&g_main, grad_out], &g_main.shape)?;
                s.free_tensor(&g_main);
                sum
            }
        };
        Ok(gx)
    }
}

// ---------------------------------------------------------------------------
// Sequential container
// ---------------------------------------------------------------------------

/// An owning sequence of named layers with activation-lifetime
/// management. A layer's name is what its layer-boundary event carries.
#[derive(Default)]
pub(crate) struct Sequential {
    layers: Vec<(String, Box<dyn Layer>)>,
    /// Training-mode activations: `acts[i]` is the *input* of layer `i`.
    acts: Vec<Tensor>,
}

impl Sequential {
    /// Appends `layer` under `name`.
    pub fn push(&mut self, name: impl Into<String>, layer: impl Layer + 'static) {
        self.layers.push((name.into(), Box::new(layer)));
    }

    /// The layers, in order (models with non-sequential dataflow, e.g.
    /// Whisper's cross-attention decoder, drive layers directly).
    pub(crate) fn layers_mut(
        &mut self,
    ) -> impl DoubleEndedIterator<Item = &mut Box<dyn Layer>> + ExactSizeIterator {
        self.layers.iter_mut().map(|(_, layer)| layer)
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
        for (i, (name, layer)) in self.layers.iter_mut().enumerate() {
            s.layer_boundary(name, i);
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
    pub(crate) fn backward(
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
        for (_, layer) in self.layers.iter_mut().rev() {
            let x = self.acts.pop().expect("activation");
            let g_in = layer.backward(s, &x, &grad)?;
            s.free_tensor(&grad);
            s.free_tensor(&x);
            grad = g_in;
        }
        Ok(grad)
    }
}

impl Params for Sequential {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        for (_, layer) in &self.layers {
            layer.params(f);
        }
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        free_all(s, self.acts.drain(..));
        for (_, layer) in &mut self.layers {
            layer.release_saved(s);
        }
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
        let mut seq = Sequential::default();
        seq.push(
            "fc1",
            Linear::new(&mut s, 512, 256, true, Act::Relu).unwrap(),
        );
        seq.push(
            "fc2",
            Linear::new(&mut s, 256, 10, true, Act::None).unwrap(),
        );
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
        let mut seq = Sequential::default();
        for i in 0..4 {
            seq.push(
                format!("fc{i}"),
                Linear::new(&mut s, 256, 256, true, Act::Relu).unwrap(),
            );
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
        let mut seq = Sequential::default();
        seq.push(
            "block0",
            TransformerBlock::new(&mut s, 128, 4, 512).unwrap(),
        );
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
        let mut seq = Sequential::default();
        seq.push("layer1.0", BasicBlock::new(&mut s, 64, 128, 2).unwrap());
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
        let l = Linear::new(&mut s, 100, 10, true, Act::None).unwrap();
        assert_eq!(l.param_bytes(), 100 * 10 * 4 + 10 * 4);
    }

    #[test]
    #[should_panic(expected = "pending backward")]
    fn forward_twice_without_backward_panics() {
        let mut rt = rt();
        let mut s = Session::new(&mut rt);
        let mut seq = Sequential::default();
        seq.push("fc", Linear::new(&mut s, 64, 64, false, Act::None).unwrap());
        let a = s.alloc_tensor(&[1, 64], DType::F32).unwrap();
        let b = s.alloc_tensor(&[1, 64], DType::F32).unwrap();
        let _o1 = seq.forward(&mut s, a, true).unwrap();
        let _o2 = seq.forward(&mut s, b, true).unwrap();
    }
}
