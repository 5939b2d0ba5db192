//! Operators: tensor-shaped computations lowered to simulated kernels.
//!
//! Each operator allocates its outputs through the caching allocator,
//! brackets itself in `RecordFunction`-style events, and launches kernels
//! whose names, launch geometry, FLOPs and memory traffic are derived from
//! the tensor shapes — the population PASTA's tools observe. Kernel names
//! follow the ATen/cuBLAS conventions visible in the paper's Fig. 4 and
//! Fig. 7 (`ampere_sgemm_128x64_tn`, `at::native::im2col_kernel`,
//! `at::native::vectorized_elementwise_kernel`, …). Every launch of the
//! framework, here and in the layers, serving and parallel drivers, is
//! built by `Kernel`.

use crate::dtype::DType;
use crate::session::Session;
use crate::tensor::Tensor;
use accel_sim::kernel::KernelArg;
use accel_sim::{
    AccelError, AccessKind, AccessPattern, AccessSpec, DevicePtr, Dim3, KernelDesc, LaunchRecord,
    MemSpace, Symbol,
};

/// One kernel launch under construction. Each argument is bound together
/// with its access stream in one call, so no argument index is counted by
/// hand; a modifier (`len`, `with_bytes`, `with_pattern`, `atomic`,
/// `shared`) changes the stream pushed last. The [`KernelDesc`] is built
/// in place, in its own inline argument and access lists, and the calls
/// take `&mut self`, so building never moves it; `launch` hands it over.
pub(crate) struct Kernel(Option<KernelDesc>);

impl Kernel {
    /// A standard 256-thread launch over `work` items.
    pub(crate) fn new(name: impl Into<Symbol>, work: u64) -> Kernel {
        let blocks = work.max(1).div_ceil(256).min(u32::MAX as u64) as u32;
        Kernel::with_grid(name, Dim3::linear(blocks), Dim3::linear(256))
    }

    /// A launch of `grid` blocks of `block` threads.
    pub(crate) fn with_grid(name: impl Into<Symbol>, grid: Dim3, block: Dim3) -> Kernel {
        Kernel(Some(KernelDesc::new(name, grid, block)))
    }

    fn desc(&mut self) -> &mut KernelDesc {
        self.0.as_mut().expect("a kernel launches once")
    }

    /// Binds `t` and reads it whole.
    pub(crate) fn load(&mut self, t: &Tensor) -> &mut Kernel {
        self.load_buf(t.ptr, t.bytes)
    }

    /// Binds `t` and writes it whole.
    pub(crate) fn store(&mut self, t: &Tensor) -> &mut Kernel {
        self.store_buf(t.ptr, t.bytes)
    }

    /// Binds `t`, reads it whole, then writes it whole.
    pub(crate) fn update(&mut self, t: &Tensor) -> &mut Kernel {
        let arg = self.desc().args.len();
        self.load(t).store_arg(arg, t.bytes)
    }

    /// Binds the `len`-byte buffer at `ptr` and reads it whole.
    pub(crate) fn load_buf(&mut self, ptr: DevicePtr, len: u64) -> &mut Kernel {
        let args = &mut self.desc().args;
        args.push(KernelArg { ptr, len });
        let arg = args.len() - 1;
        self.load_arg(arg, len)
    }

    /// Binds the `len`-byte buffer at `ptr` and writes it whole.
    pub(crate) fn store_buf(&mut self, ptr: DevicePtr, len: u64) -> &mut Kernel {
        let args = &mut self.desc().args;
        args.push(KernelArg { ptr, len });
        let arg = args.len() - 1;
        self.store_arg(arg, len)
    }

    /// A further read of `len` bytes of argument `arg`, already bound.
    pub(crate) fn load_arg(&mut self, arg: usize, len: u64) -> &mut Kernel {
        self.desc().body.accesses.push(AccessSpec::load(arg, len));
        self
    }

    /// A further write of `len` bytes of argument `arg`, already bound.
    pub(crate) fn store_arg(&mut self, arg: usize, len: u64) -> &mut Kernel {
        self.desc().body.accesses.push(AccessSpec::store(arg, len));
        self
    }

    fn modify(&mut self, f: impl FnOnce(&mut AccessSpec)) -> &mut Kernel {
        let last = self.desc().body.accesses.last_mut();
        f(last.expect("a stream to modify"));
        self
    }

    /// The last stream moves the first `len` bytes of its argument, once.
    pub(crate) fn len(&mut self, len: u64) -> &mut Kernel {
        self.modify(|a| (a.len, a.bytes) = (len, len))
    }

    /// The last stream moves `bytes` in all (reuse: `bytes > len`).
    pub(crate) fn with_bytes(&mut self, bytes: u64) -> &mut Kernel {
        self.modify(|a| a.bytes = bytes)
    }

    /// The last stream follows `pattern`.
    pub(crate) fn with_pattern(&mut self, pattern: AccessPattern) -> &mut Kernel {
        self.modify(|a| a.pattern = pattern)
    }

    /// The last stream is a read-modify-write atomic.
    pub(crate) fn atomic(&mut self) -> &mut Kernel {
        self.modify(|a| a.kind = AccessKind::Atomic)
    }

    /// The last stream targets shared memory.
    pub(crate) fn shared(&mut self) -> &mut Kernel {
        self.modify(|a| a.space = MemSpace::Shared)
    }

    /// Sets the FLOPs.
    pub(crate) fn flops(&mut self, flops: u64) -> &mut Kernel {
        self.desc().body.flops = flops;
        self
    }

    /// Sets the barriers per block.
    pub(crate) fn barriers(&mut self, n: u32) -> &mut Kernel {
        self.desc().body.barriers_per_block = n;
        self
    }

    /// Sets the shared memory per block.
    pub(crate) fn shared_mem(&mut self, bytes: u64) -> &mut Kernel {
        self.desc().body.shared_mem_per_block = bytes;
        self
    }

    /// Launches the kernel on `s`.
    pub(crate) fn launch(&mut self, s: &mut Session<'_>) -> Result<LaunchRecord, AccelError> {
        s.launch(self.0.take().expect("a kernel launches once"))
    }
}

/// Fused activation applied in a GEMM epilogue (when the backend fuses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// No activation.
    None,
    /// ReLU.
    Relu,
    /// GELU (tanh approximation).
    Gelu,
}

impl Act {
    /// GEMM kernel-name suffix: the operand layout, then the epilogue
    /// this activation fuses in.
    fn gemm_suffix(self) -> &'static str {
        match self {
            Act::None => "_tn",
            Act::Relu => "_tn_relu",
            Act::Gelu => "_tn_gelu",
        }
    }

    /// Implicit-GEMM convolution kernel with this activation fused in.
    fn fused_conv_name(self) -> &'static str {
        match self {
            Act::None => "implicit_convolve_sgemm",
            Act::Relu => "implicit_convolve_sgemm_relu",
            Act::Gelu => "implicit_convolve_sgemm_gelu",
        }
    }

    fn elementwise_name(self) -> &'static str {
        match self {
            Act::None => "at::native::vectorized_elementwise_kernel<copy>",
            Act::Relu => "at::native::vectorized_elementwise_kernel<relu>",
            Act::Gelu => "at::native::vectorized_elementwise_kernel<gelu>",
        }
    }
}

/// GEMM tile edge used for reuse estimates.
const TILE: u64 = 128;

/// One GEMM launch, `C[m,n] = A[m,k] × B[k,n]`, on tile `tile`.
pub(crate) struct Gemm {
    /// Tile label in the kernel name (`128x64`, `64x64_attn_qk`, …).
    pub(crate) tile: &'static str,
    pub(crate) m: u64,
    pub(crate) n: u64,
    pub(crate) k: u64,
}

impl Gemm {
    /// Launches the GEMM with no epilogue.
    pub(crate) fn run(
        self,
        s: &mut Session<'_>,
        a: &Tensor,
        b: &Tensor,
        c: &Tensor,
    ) -> Result<(), AccelError> {
        gemm_with_epilogue(s, self, a, b, c, None, Act::None)
    }
}

/// Launches `gemm` with an optional bias/activation epilogue (only
/// [`linear`] and [`conv2d`] attach one). Memory traffic uses the
/// tiled-reuse estimate: A is streamed `⌈n/T⌉` times, B `⌈m/T⌉` times.
fn gemm_with_epilogue(
    s: &mut Session<'_>,
    gemm: Gemm,
    a: &Tensor,
    b: &Tensor,
    c: &Tensor,
    bias: Option<&Tensor>,
    act: Act,
) -> Result<(), AccelError> {
    let Gemm { tile, m, n, k } = gemm;
    let a_bytes = m * k * 4 * n.div_ceil(TILE).max(1);
    let b_bytes = k * n * 4 * m.div_ceil(TILE).max(1);
    let c_bytes = m * n * 4;
    let fused = s.backend().fused_epilogue && (bias.is_some() || act != Act::None);
    // The fused (cuBLASLt) path routes through a session-cached workspace
    // sized by the largest GEMM seen so far; it stays live for the whole
    // session, which is the NVIDIA side of the paper's Fig. 14 peak-memory
    // contrast.
    let workspace = if s.backend().fused_epilogue {
        Some(s.ensure_gemm_workspace((c_bytes / 4).clamp(4 << 20, 512 << 20))?)
    } else {
        None
    };
    let epilogue = if fused { act } else { Act::None };
    let name = s.backend().gemm_kernel(tile, epilogue.gemm_suffix());
    let grid = Dim3::plane(n.div_ceil(TILE).max(1) as u32, m.div_ceil(64).max(1) as u32);
    let mut kernel = Kernel::with_grid(name, grid, Dim3::linear(256));
    kernel
        .flops(2 * m * n * k)
        .barriers((k / 16).max(1) as u32)
        .shared_mem(48 << 10)
        .load(a)
        .len(a.bytes.min(m * k * 4))
        .with_bytes(a_bytes)
        .load(b)
        .len(b.bytes.min(k * n * 4))
        .with_bytes(b_bytes)
        .store(c)
        .len(c_bytes.min(c.bytes))
        .with_bytes(c_bytes)
        // Shared-memory staging traffic for the tiles.
        .load_arg(0, (TILE * TILE * 4).min(a.bytes))
        .with_bytes(a_bytes / 2)
        .shared();
    if let Some(bias) = bias.filter(|_| fused) {
        kernel
            .load(bias)
            .with_bytes(bias.bytes * m.div_ceil(TILE).max(1));
    }
    if let Some(ws) = &workspace {
        kernel
            .load(ws)
            .len(ws.bytes.min(c_bytes))
            .with_bytes(c_bytes / 8);
    }
    kernel.launch(s)?;

    // Unfused backends run separate bias-add / activation kernels with
    // out-of-place temporaries — more launches and more tensor alloc/free
    // events (the AMD pattern of Fig. 14).
    if !fused {
        unfused_epilogue(s, c, bias, act)?;
    }
    Ok(())
}

/// The decomposed (MIOpen/rocBLAS-style) epilogue: a separate bias-add
/// kernel through a transient output and an out-of-place activation with a
/// scratch tensor — two extra launches and up to four extra tensor
/// alloc/free events per GEMM/conv.
fn unfused_epilogue(
    s: &mut Session<'_>,
    c: &Tensor,
    bias: Option<&Tensor>,
    act: Act,
) -> Result<(), AccelError> {
    if let Some(bias) = bias {
        let tmp = s.alloc_tensor(&c.shape, DType::F32)?;
        Kernel::new(
            "at::native::vectorized_elementwise_kernel<add_bias>",
            c.numel() / 4,
        )
        .flops(c.numel())
        .load(c)
        .load(bias)
        .with_bytes(bias.bytes * 64)
        .store(&tmp)
        .launch(s)?;
        s.free_tensor(&tmp);
    }
    if act != Act::None {
        let scratch = s.alloc_tensor(&c.shape, DType::F32)?;
        Kernel::new(act.elementwise_name(), c.numel() / 4)
            .flops(c.numel())
            .load(c)
            .store(&scratch)
            .launch(s)?;
        s.free_tensor(&scratch);
    }
    Ok(())
}

/// The elementwise sum kernel (residual adds, gradient accumulation).
pub(crate) const ADD: &str = "at::native::vectorized_elementwise_kernel<add>";

/// In-place elementwise kernel over one tensor (activation, scale, …).
pub(crate) fn elementwise_inplace(
    s: &mut Session<'_>,
    name: &str,
    t: &Tensor,
) -> Result<(), AccelError> {
    Kernel::new(name, t.numel() / 4)
        .flops(t.numel())
        .update(t)
        .launch(s)?;
    Ok(())
}

/// Elementwise kernel reading `inputs` and writing a fresh output of
/// `shape` (binary add, dropout, casts, …).
pub(crate) fn elementwise(
    s: &mut Session<'_>,
    name: &str,
    inputs: &[&Tensor],
    shape: &[usize],
) -> Result<Tensor, AccelError> {
    let out = s.alloc_tensor(shape, DType::F32)?;
    let mut kernel = Kernel::new(name, out.numel() / 4);
    for t in inputs {
        kernel.load(t);
    }
    kernel.flops(out.numel()).store(&out).launch(s)?;
    Ok(out)
}

/// `aten::linear`: `y = x·Wᵀ + b`, with optional fused activation.
///
/// `x: [batch…, in]`, `w: [out, in]` → `y: [batch…, out]`.
pub fn linear(
    s: &mut Session<'_>,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    act: Act,
) -> Result<Tensor, AccelError> {
    let in_f = *x.shape.last().expect("linear input has a last dim");
    let out_f = w.shape[0];
    debug_assert_eq!(w.shape[1], in_f, "weight shape mismatch");
    let m = x.numel() / in_f as u64;
    let mut out_shape = x.shape.clone();
    *out_shape.last_mut().expect("shape non-empty") = out_f;
    s.with_op("aten::linear", |s| {
        let y = s.alloc_tensor(&out_shape, DType::F32)?;
        let gemm = Gemm {
            tile: "128x64",
            m,
            n: out_f as u64,
            k: in_f as u64,
        };
        gemm_with_epilogue(s, gemm, x, w, &y, bias, act)?;
        Ok(y)
    })
}

/// Backward of [`linear`]: returns `(grad_x, grad_w, grad_b)`.
pub(crate) fn linear_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    want_bias: bool,
) -> Result<(Tensor, Tensor, Option<Tensor>), AccelError> {
    let in_f = *x.shape.last().expect("shape") as u64;
    let out_f = w.shape[0] as u64;
    let m = x.numel() / in_f;
    s.with_op("aten::linear_backward", |s| {
        // dX[m,k] = dY[m,n] × W[n,k]  (data-grad GEMM, "nt" flavour).
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        Gemm {
            tile: "128x64_dgrad",
            m,
            n: in_f,
            k: out_f,
        }
        .run(s, grad_out, w, &grad_x)?;
        // dW[n,k] = dYᵀ[n,m] × X[m,k]  (weight-grad GEMM, "nn" flavour).
        let grad_w = s.alloc_tensor(&w.shape, DType::F32)?;
        Gemm {
            tile: "128x64_wgrad",
            m: out_f,
            n: in_f,
            k: m,
        }
        .run(s, grad_out, x, &grad_w)?;
        // db = column-reduce dY.
        let grad_b = if want_bias {
            let gb = s.alloc_tensor(&[out_f as usize], DType::F32)?;
            bias_grad(s, grad_out, &gb)?;
            Some(gb)
        } else {
            None
        };
        Ok((grad_x, grad_w, grad_b))
    })
}

/// The bias gradient: `grad_out` column-reduced into `gb`.
fn bias_grad(s: &mut Session<'_>, grad_out: &Tensor, gb: &Tensor) -> Result<(), AccelError> {
    Kernel::new("at::native::reduce_kernel<512, ReduceAdd>", gb.numel())
        .flops(grad_out.numel())
        .load(grad_out)
        .store(gb)
        .launch(s)?;
    Ok(())
}

/// Convolution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Conv2dCfg {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Square kernel edge.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
}

impl Conv2dCfg {
    /// Output spatial edge for an input edge `h`.
    pub(crate) fn out_edge(&self, h: usize) -> usize {
        (h + 2 * self.pad - self.k) / self.stride + 1
    }
}

/// `aten::conv2d` via im2col+GEMM for large kernels (the AlexNet path —
/// `at::native::im2col_kernel` is one of the paper's hottest kernels) or
/// implicit GEMM for small kernels (the ResNet path).
///
/// `x: [n, cin, h, w]` → `[n, cout, oh, ow]`.
pub(crate) fn conv2d(
    s: &mut Session<'_>,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    act: Act,
) -> Result<Tensor, AccelError> {
    let (n, h) = (x.shape[0], x.shape[2]);
    let oh = cfg.out_edge(h);
    let ow = cfg.out_edge(x.shape[3]);
    let out_shape = [n, cfg.cout, oh, ow];
    let m = cfg.cout as u64;
    let kk = (cfg.cin * cfg.k * cfg.k) as u64;
    let nn = (n * oh * ow) as u64;
    s.with_op("aten::conv2d", |s| {
        let y = s.alloc_tensor(&out_shape, DType::F32)?;
        if cfg.k >= 5 {
            // Explicit im2col: materialize the column buffer (a large
            // transient tensor — exactly the kind of allocation that makes
            // object-level prefetching move dead weight).
            let col = s.alloc_tensor(&[n, cfg.cin * cfg.k * cfg.k, oh * ow], DType::F32)?;
            Kernel::new("at::native::im2col_kernel", col.numel() / 4)
                .flops(col.numel())
                .load(x)
                .with_bytes(col.bytes)
                .store(&col)
                .launch(s)?;
            let gemm = Gemm {
                tile: "128x64",
                m,
                n: nn,
                k: kk,
            };
            gemm_with_epilogue(s, gemm, w, &col, &y, bias, act)?;
            s.free_tensor(&col);
        } else {
            // Implicit GEMM with a cuDNN-style workspace whose size depends
            // on the backend's workspace factor (the Fig. 14 peak-memory
            // contrast).
            let ws_bytes =
                ((kk * nn.min(4096) * 4) as f64 * s.backend().conv_workspace_factor) as u64;
            let ws = s.alloc_tensor(&[(ws_bytes / 4) as usize], DType::F32)?;
            let grid = Dim3::plane(
                nn.div_ceil(TILE).max(1) as u32,
                m.div_ceil(64).max(1) as u32,
            );
            let fused = s.backend().fused_epilogue;
            let epilogue = if fused { act } else { Act::None };
            let mut kernel = Kernel::with_grid(epilogue.fused_conv_name(), grid, Dim3::linear(256));
            kernel
                .flops(2 * m * nn * kk)
                .barriers((kk / 16).max(1) as u32)
                .shared_mem(32 << 10)
                .load(x)
                .with_bytes(x.bytes * (cfg.k * cfg.k) as u64)
                .load(w)
                .with_bytes(w.bytes * nn.div_ceil(TILE))
                .store(&y)
                .load(&ws)
                .with_bytes(ws.bytes / 2);
            if let Some(b) = bias.filter(|_| fused) {
                kernel.load(b);
            }
            kernel.launch(s)?;
            s.free_tensor(&ws);
            if !fused {
                unfused_epilogue(s, &y, bias, act)?;
            }
        }
        Ok(y)
    })
}

/// Backward of [`conv2d`]: returns `(grad_x, grad_w, grad_b)`.
pub(crate) fn conv2d_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    cfg: Conv2dCfg,
) -> Result<(Tensor, Tensor, Tensor), AccelError> {
    let n = x.shape[0];
    let (oh, ow) = (grad_out.shape[2], grad_out.shape[3]);
    let m = cfg.cout as u64;
    let kk = (cfg.cin * cfg.k * cfg.k) as u64;
    let nn = (n * oh * ow) as u64;
    s.with_op("aten::convolution_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        let grad_w = s.alloc_tensor(&w.shape, DType::F32)?;
        let grad_b = s.alloc_tensor(&[cfg.cout], DType::F32)?;
        // dgrad: dX = Wᵀ ⊛ dY (col2im path for the large-kernel flavour).
        Gemm {
            tile: "128x64_dgrad",
            m: kk,
            n: nn,
            k: m,
        }
        .run(s, w, grad_out, &grad_x)?;
        if cfg.k >= 5 {
            Kernel::new("at::native::col2im_kernel", grad_x.numel() / 4)
                .flops(grad_x.numel())
                .update(&grad_x)
                .launch(s)?;
        }
        // wgrad: dW = dY × Xᵀ.
        Gemm {
            tile: "128x64_wgrad",
            m,
            n: kk,
            k: nn,
        }
        .run(s, grad_out, x, &grad_w)?;
        bias_grad(s, grad_out, &grad_b)?;
        Ok((grad_x, grad_w, grad_b))
    })
}

/// `aten::max_pool2d` (square window).
pub(crate) fn maxpool2d(
    s: &mut Session<'_>,
    x: &Tensor,
    k: usize,
    stride: usize,
) -> Result<Tensor, AccelError> {
    let (n, c, h, w) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    s.with_op("aten::max_pool2d", |s| {
        let y = s.alloc_tensor(&[n, c, oh, ow], DType::F32)?;
        Kernel::new(
            "at::native::(anonymous namespace)::max_pool_forward_nchw",
            y.numel() / 4,
        )
        .flops(y.numel() * (k * k) as u64)
        .load(x)
        .store(&y)
        .launch(s)?;
        Ok(y)
    })
}

/// Backward of [`maxpool2d`].
pub(crate) fn maxpool2d_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::max_pool2d_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        Kernel::new(
            "at::native::(anonymous namespace)::max_pool_backward_nchw",
            grad_x.numel() / 4,
        )
        .flops(grad_x.numel())
        .load(grad_out)
        .store(&grad_x)
        .launch(s)?;
        Ok(grad_x)
    })
}

/// `aten::batch_norm` forward: two kernels (statistics + transform),
/// matching cuDNN's decomposition.
pub(crate) fn batchnorm2d(
    s: &mut Session<'_>,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::batch_norm", |s| {
        let y = s.alloc_tensor(&x.shape, DType::F32)?;
        let c = x.shape[1];
        Kernel::with_grid(
            "at::native::batch_norm_collect_statistics_kernel",
            Dim3::linear(c as u32),
            Dim3::linear(256),
        )
        .flops(2 * x.numel())
        .barriers(4)
        .load(x)
        .launch(s)?;
        Kernel::new(
            "at::native::batch_norm_transform_input_kernel",
            x.numel() / 8,
        )
        .flops(2 * x.numel())
        .load(x)
        .store(&y)
        .load(gamma)
        .load(beta)
        .launch(s)?;
        Ok(y)
    })
}

/// Backward of [`batchnorm2d`]: returns `(grad_x, grad_gamma, grad_beta)`.
pub(crate) fn batchnorm2d_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    grad_out: &Tensor,
) -> Result<(Tensor, Tensor, Tensor), AccelError> {
    let c = x.shape[1];
    s.with_op("aten::batch_norm_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        let grad_gamma = s.alloc_tensor(&[c], DType::F32)?;
        let grad_beta = s.alloc_tensor(&[c], DType::F32)?;
        Kernel::new("at::native::batch_norm_backward_kernel", x.numel() / 8)
            .flops(4 * x.numel())
            .barriers(4)
            .load(x)
            .load(grad_out)
            .store(&grad_x)
            .store(&grad_gamma)
            .store(&grad_beta)
            .launch(s)?;
        Ok((grad_x, grad_gamma, grad_beta))
    })
}

/// `aten::layer_norm` over the last dimension.
pub fn layernorm(
    s: &mut Session<'_>,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::layer_norm", |s| {
        let y = s.alloc_tensor(&x.shape, DType::F32)?;
        let rows = x.numel() / *x.shape.last().expect("rank>0") as u64;
        Kernel::with_grid(
            "at::native::(anonymous namespace)::vectorized_layer_norm_kernel",
            Dim3::linear(rows.min(u32::MAX as u64) as u32),
            Dim3::linear(256),
        )
        .flops(4 * x.numel())
        .barriers(2)
        .load(x)
        .store(&y)
        .load(gamma)
        .with_bytes(gamma.bytes * rows)
        .load(beta)
        .with_bytes(beta.bytes * rows)
        .launch(s)?;
        Ok(y)
    })
}

/// Backward of [`layernorm`]: returns `(grad_x, grad_gamma, grad_beta)`.
pub(crate) fn layernorm_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    grad_out: &Tensor,
    width: usize,
) -> Result<(Tensor, Tensor, Tensor), AccelError> {
    s.with_op("aten::layer_norm_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        let grad_gamma = s.alloc_tensor(&[width], DType::F32)?;
        let grad_beta = s.alloc_tensor(&[width], DType::F32)?;
        Kernel::new("at::native::layer_norm_grad_input_kernel", x.numel() / 4)
            .flops(6 * x.numel())
            .barriers(2)
            .load(x)
            .load(grad_out)
            .store(&grad_x)
            .store(&grad_gamma)
            .store(&grad_beta)
            .launch(s)?;
        Ok((grad_x, grad_gamma, grad_beta))
    })
}

/// `aten::softmax` over the last dimension (fresh output tensor).
pub(crate) fn softmax(s: &mut Session<'_>, x: &Tensor) -> Result<Tensor, AccelError> {
    s.with_op("aten::softmax", |s| {
        let y = s.alloc_tensor(&x.shape, DType::F32)?;
        let rows = x.numel() / *x.shape.last().expect("rank>0") as u64;
        Kernel::with_grid(
            "at::native::(anonymous namespace)::cunn_SoftMaxForward",
            Dim3::linear(rows.min(u32::MAX as u64).max(1) as u32),
            Dim3::linear(128),
        )
        .flops(3 * x.numel())
        .barriers(2)
        .load(x)
        .store(&y)
        .launch(s)?;
        Ok(y)
    })
}

/// Backward of [`softmax`].
pub(crate) fn softmax_backward(
    s: &mut Session<'_>,
    y: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::softmax_backward", |s| {
        let grad_x = s.alloc_tensor(&y.shape, DType::F32)?;
        Kernel::new("at::native::cunn_SoftMaxBackward", y.numel() / 4)
            .flops(3 * y.numel())
            .load(y)
            .load(grad_out)
            .store(&grad_x)
            .launch(s)?;
        Ok(grad_x)
    })
}

/// The GEMM tiles one attention flavour launches, by role: each caller
/// passes its own `const` set (`attn_*`, `xattn_*`), so kernel names are
/// never built per call.
pub(crate) struct AttnTiles {
    /// `scores = Q × Kᵀ`.
    pub(crate) qk: &'static str,
    /// `ctx = probs × V`.
    pub(crate) pv: &'static str,
    /// The scores again, in backward (memory-efficient attention).
    pub(crate) recompute: &'static str,
    /// The input gradient from the probability gradient.
    pub(crate) bwd: &'static str,
}

/// Where [`Attention::backward`]'s gradient GEMM writes.
pub(crate) enum AttnGrad<'a> {
    /// Self-attention's fused QKV gradient, allocated by the caller before
    /// the recompute: one GEMM row per head and query.
    Qkv(&'a Tensor),
    /// Cross-attention's query gradient, allocated once the probabilities
    /// are gone: one GEMM row per query.
    Query,
}

/// The score → softmax → context core both attention flavours share:
/// `Q: [b, sq, ·]` against `K/V: [b, sk, ·]`, `heads` heads over width
/// `d`. The probabilities are never kept for backward; backward
/// recomputes them, as PyTorch's memory-efficient SDPA does (keeping them
/// would add O(heads × sq × sk) per block to the training footprint).
pub(crate) struct Attention {
    pub(crate) tiles: AttnTiles,
    pub(crate) heads: usize,
    pub(crate) d: usize,
}

impl Attention {
    /// Scores on tile `tile`, softmax, and the scores freed: the
    /// probabilities `[b·h, sq, sk]`.
    fn probs(
        &self,
        s: &mut Session<'_>,
        tile: &'static str,
        q: &Tensor,
        kv: &Tensor,
    ) -> Result<Tensor, AccelError> {
        let (b, sq, sk) = (q.shape[0], q.shape[1], kv.shape[1]);
        let scores = s.alloc_tensor(&[b * self.heads, sq, sk], DType::F32)?;
        Gemm {
            tile,
            m: (b * self.heads * sq) as u64,
            n: sk as u64,
            k: (self.d / self.heads) as u64,
        }
        .run(s, q, kv, &scores)?;
        let probs = softmax(s, &scores)?;
        s.free_tensor(&scores);
        Ok(probs)
    }

    /// The forward core: returns `(probs, ctx)`; the caller frees `probs`
    /// once it no longer needs them.
    pub(crate) fn forward(
        &self,
        s: &mut Session<'_>,
        q: &Tensor,
        kv: &Tensor,
    ) -> Result<(Tensor, Tensor), AccelError> {
        let probs = self.probs(s, self.tiles.qk, q, kv)?;
        let (b, sq, sk) = (q.shape[0], q.shape[1], kv.shape[1]);
        let ctx = s.alloc_tensor(&[b, sq, self.d], DType::F32)?;
        Gemm {
            tile: self.tiles.pv,
            m: (b * self.heads * sq) as u64,
            n: (self.d / self.heads) as u64,
            k: sk as u64,
        }
        .run(s, &probs, kv, &ctx)?;
        Ok((probs, ctx))
    }

    /// The backward core: recomputes the probabilities, runs softmax
    /// backward against `g_ctx` (freed here), then the gradient GEMM into
    /// `grad`. Returns the gradient it wrote.
    pub(crate) fn backward(
        &self,
        s: &mut Session<'_>,
        q: &Tensor,
        kv: &Tensor,
        g_ctx: Tensor,
        grad: AttnGrad<'_>,
    ) -> Result<Tensor, AccelError> {
        let probs = self.probs(s, self.tiles.recompute, q, kv)?;
        let g_probs = softmax_backward(s, &probs, &g_ctx)?;
        s.free_tensor(&probs);
        s.free_tensor(&g_ctx);
        let (g_in, rows) = match grad {
            AttnGrad::Qkv(g) => (g.clone(), g_probs.shape[0] * g_probs.shape[1]),
            AttnGrad::Query => (
                s.alloc_tensor(&q.shape, DType::F32)?,
                q.shape[0] * q.shape[1],
            ),
        };
        Gemm {
            tile: self.tiles.bwd,
            m: rows as u64,
            n: (self.d / self.heads) as u64,
            k: g_probs.shape[2] as u64,
        }
        .run(s, &g_probs, kv, &g_in)?;
        s.free_tensor(&g_probs);
        Ok(g_in)
    }
}

/// `aten::embedding`: gather rows of `table[vocab, dim]` for
/// `indices: [batch…] (i64)` → `[batch…, dim]`.
pub(crate) fn embedding(
    s: &mut Session<'_>,
    table: &Tensor,
    indices: &Tensor,
) -> Result<Tensor, AccelError> {
    let dim = table.shape[1];
    let mut out_shape = indices.shape.clone();
    out_shape.push(dim);
    s.with_op("aten::embedding", |s| {
        let y = s.alloc_tensor(&out_shape, DType::F32)?;
        Kernel::new(
            "at::native::(anonymous namespace)::indexSelectLargeIndex",
            y.numel() / 4,
        )
        .flops(y.numel())
        // Gathers over the whole table extent, data-dependent.
        .load(table)
        .with_bytes(y.bytes)
        .with_pattern(AccessPattern::Random)
        .load(indices)
        .store(&y)
        .launch(s)?;
        Ok(y)
    })
}

/// Backward of [`embedding`]: scatter-add into the table gradient.
pub(crate) fn embedding_backward(
    s: &mut Session<'_>,
    table: &Tensor,
    indices: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::embedding_dense_backward", |s| {
        let grad_table = s.alloc_tensor(&table.shape, DType::F32)?;
        Kernel::new(
            "at::native::embedding_backward_kernel",
            grad_out.numel() / 4,
        )
        .flops(grad_out.numel())
        .load(grad_out)
        .load(indices)
        .store(&grad_table)
        .atomic()
        .with_bytes(grad_out.bytes)
        .with_pattern(AccessPattern::Random)
        .launch(s)?;
        Ok(grad_table)
    })
}

/// Cross-entropy forward over `logits: [rows, classes]` → scalar loss.
pub(crate) fn cross_entropy(s: &mut Session<'_>, logits: &Tensor) -> Result<Tensor, AccelError> {
    s.with_op("aten::cross_entropy_loss", |s| {
        let sm = softmax(s, logits)?;
        let loss = s.alloc_tensor(&[1], DType::F32)?;
        let rows = logits.numel() / *logits.shape.last().expect("rank>0") as u64;
        Kernel::with_grid(
            "at::native::(anonymous namespace)::nll_loss_forward_reduce_cuda_kernel_2d",
            Dim3::linear(1),
            Dim3::linear(256),
        )
        .flops(rows)
        .load(&sm)
        .with_bytes(rows * 4)
        .store(&loss)
        .launch(s)?;
        s.free_tensor(&sm);
        Ok(loss)
    })
}

/// Cross-entropy backward: gradient of the logits.
pub(crate) fn cross_entropy_backward(
    s: &mut Session<'_>,
    logits: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::nll_loss_backward", |s| {
        let grad = s.alloc_tensor(&logits.shape, DType::F32)?;
        Kernel::new(
            "at::native::nll_loss_backward_reduce_cuda_kernel_2d",
            grad.numel() / 4,
        )
        .flops(grad.numel())
        .load(logits)
        .store(&grad)
        .launch(s)?;
        Ok(grad)
    })
}

/// One fused Adam step over a parameter/gradient/moment quartet
/// (`multi_tensor_apply`, as in `torch.optim.Adam(fused=True)`).
pub fn adam_step(
    s: &mut Session<'_>,
    param: &Tensor,
    grad: &Tensor,
    m: &Tensor,
    v: &Tensor,
) -> Result<(), AccelError> {
    s.with_op("aten::_fused_adam_", |s| {
        Kernel::new(
            "at::native::(anonymous namespace)::multi_tensor_apply_kernel<adam>",
            param.numel() / 4,
        )
        .flops(8 * param.numel())
        .update(param)
        .load(grad)
        .update(m)
        .update(v)
        .launch(s)?;
        Ok(())
    })
}

/// A ring all-reduce collective over `t` (NCCL/RCCL flavoured name).
pub(crate) fn allreduce(s: &mut Session<'_>, t: &Tensor) -> Result<(), AccelError> {
    let name = s.backend().collective_kernel("AllReduce_RING_LL");
    s.with_op("c10d::allreduce_", |s| {
        Kernel::new(name, t.numel() / 8)
            .flops(t.numel())
            // Ring all-reduce moves ~2× the payload per rank.
            .load(t)
            .with_bytes(2 * t.bytes)
            .store_arg(0, t.bytes)
            .launch(s)?;
        Ok(())
    })
}

/// All-to-all token exchange (MoE expert routing): `t`'s payload is
/// partitioned uniformly across `world` ranks, and every non-local
/// slice crosses the peer fabric as a `DeviceToDevice` copy — which the
/// engine prices over the peer matrix (`DeviceSpec::p2p_bandwidth_gbps`)
/// — followed by one AllToAll collective kernel touching the full
/// buffer (the pack/unpack traffic). Deterministic per lane: the slice
/// sizes depend only on `t` and `world`, never on peer timing, so the
/// sequential reference reproduces the exact stream.
pub fn all_to_all(s: &mut Session<'_>, t: &Tensor, world: usize) -> Result<(), AccelError> {
    let world = world.max(1);
    let name = s.backend().collective_kernel("AllToAll");
    s.with_op("c10d::all_to_all_single", |s| {
        let per_rank = t.bytes / world as u64;
        if per_rank > 0 {
            for _ in 0..world - 1 {
                s.runtime_mut().memcpy(
                    t.ptr,
                    t.ptr,
                    per_rank,
                    accel_sim::CopyDirection::DeviceToDevice,
                )?;
            }
        }
        Kernel::new(name, t.numel() / 8).update(t).launch(s)?;
        Ok(())
    })
}

/// Point-to-point activation send/recv (pipeline parallelism).
pub(crate) fn send_recv(s: &mut Session<'_>, t: &Tensor) -> Result<(), AccelError> {
    let name = s.backend().collective_kernel("SendRecv");
    s.with_op("c10d::send", |s| {
        Kernel::new(name, t.numel() / 8).update(t).launch(s)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    fn with_session<T>(f: impl FnOnce(&mut Session<'_>) -> T) -> T {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut s = Session::new(&mut rt);
        f(&mut s)
    }

    #[test]
    fn linear_shapes_and_kernels() {
        with_session(|s| {
            let x = s.alloc_tensor(&[16, 128, 768], DType::F32).unwrap();
            let w = s.alloc_tensor(&[3072, 768], DType::F32).unwrap();
            let b = s.alloc_tensor(&[3072], DType::F32).unwrap();
            let y = linear(s, &x, &w, Some(&b), Act::Gelu).unwrap();
            assert_eq!(y.shape.to_vec(), vec![16, 128, 3072]);
            // NVIDIA backend fuses: one GEMM kernel only.
            assert_eq!(s.kernels_launched(), 1);
        });
    }

    #[test]
    fn amd_backend_decomposes_bias_and_act() {
        let mut rt = vendor_amd::HipContext::new(vec![DeviceSpec::mi300x()]);
        let mut s = Session::new(&mut rt);
        let x = s.alloc_tensor(&[8, 512], DType::F32).unwrap();
        let w = s.alloc_tensor(&[512, 512], DType::F32).unwrap();
        let b = s.alloc_tensor(&[512], DType::F32).unwrap();
        let _y = linear(&mut s, &x, &w, Some(&b), Act::Relu).unwrap();
        assert_eq!(
            s.kernels_launched(),
            3,
            "gemm + bias add + relu on the unfused backend"
        );
    }

    #[test]
    fn conv2d_large_kernel_uses_im2col() {
        with_session(|s| {
            let x = s.alloc_tensor(&[8, 3, 224, 224], DType::F32).unwrap();
            let cfg = Conv2dCfg {
                cin: 3,
                cout: 64,
                k: 11,
                stride: 4,
                pad: 2,
            };
            let w = s.alloc_tensor(&[64, 3 * 11 * 11], DType::F32).unwrap();
            let before = s.allocator_stats().allocated;
            let y = conv2d(s, &x, &w, None, cfg, Act::None).unwrap();
            assert_eq!(y.shape.to_vec(), vec![8, 64, 55, 55]);
            // im2col + gemm, and the column buffer was freed.
            assert_eq!(s.kernels_launched(), 2);
            s.release_workspaces();
            let after = s.allocator_stats().allocated;
            assert_eq!(
                after,
                before + round512(y.bytes),
                "only the conv output survives; the column buffer is freed"
            );
        });
    }

    fn round512(b: u64) -> u64 {
        b.div_ceil(512) * 512
    }

    #[test]
    fn conv2d_small_kernel_uses_implicit_gemm() {
        with_session(|s| {
            let x = s.alloc_tensor(&[8, 64, 56, 56], DType::F32).unwrap();
            let cfg = Conv2dCfg {
                cin: 64,
                cout: 64,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let w = s.alloc_tensor(&[64, 64 * 9], DType::F32).unwrap();
            let y = conv2d(s, &x, &w, None, cfg, Act::None).unwrap();
            assert_eq!(y.shape.to_vec(), vec![8, 64, 56, 56]);
            assert_eq!(s.kernels_launched(), 1, "single implicit-gemm kernel");
        });
    }

    #[test]
    fn embedding_gathers_over_table() {
        with_session(|s| {
            let table = s.alloc_tensor(&[50257, 768], DType::F32).unwrap();
            let idx = s.alloc_tensor(&[8, 1024], DType::I64).unwrap();
            let y = embedding(s, &table, &idx).unwrap();
            assert_eq!(y.shape.to_vec(), vec![8, 1024, 768]);
        });
    }

    #[test]
    fn linear_backward_produces_three_grads() {
        with_session(|s| {
            let x = s.alloc_tensor(&[32, 512], DType::F32).unwrap();
            let w = s.alloc_tensor(&[256, 512], DType::F32).unwrap();
            let gy = s.alloc_tensor(&[32, 256], DType::F32).unwrap();
            let (gx, gw, gb) = linear_backward(s, &x, &w, &gy, true).unwrap();
            assert_eq!(gx.shape, x.shape);
            assert_eq!(gw.shape, w.shape);
            assert_eq!(gb.unwrap().shape.to_vec(), vec![256]);
            assert_eq!(s.kernels_launched(), 3, "dgrad + wgrad + bias reduce");
        });
    }

    #[test]
    fn cross_entropy_frees_intermediate_softmax() {
        with_session(|s| {
            let logits = s.alloc_tensor(&[128, 1000], DType::F32).unwrap();
            let before = s.allocator_stats().allocated;
            let loss = cross_entropy(s, &logits).unwrap();
            assert_eq!(loss.shape.to_vec(), vec![1]);
            let after = s.allocator_stats().allocated;
            assert_eq!(after, before + 512, "only the scalar loss survives");
        });
    }

    #[test]
    fn pool_shapes() {
        with_session(|s| {
            let x = s.alloc_tensor(&[4, 64, 55, 55], DType::F32).unwrap();
            let y = maxpool2d(s, &x, 3, 2).unwrap();
            assert_eq!(y.shape.to_vec(), vec![4, 64, 27, 27]);
        });
    }

    #[test]
    fn collectives_use_vendor_prefixes() {
        with_session(|s| {
            let t = s.alloc_tensor(&[1 << 20], DType::F32).unwrap();
            allreduce(s, &t).unwrap();
        });
        let mut rt = vendor_amd::HipContext::new(vec![DeviceSpec::mi300x()]);
        let mut s = Session::new(&mut rt);
        let t = s.alloc_tensor(&[1 << 10], DType::F32).unwrap();
        allreduce(&mut s, &t).unwrap();
        // Name checking happens inside backend tests; here we just assert
        // the launches happened.
        assert_eq!(s.kernels_launched(), 1);
    }
}
