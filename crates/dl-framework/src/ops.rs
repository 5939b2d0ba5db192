//! Operators: tensor-shaped computations lowered to simulated kernels.
//!
//! Each operator allocates its outputs through the caching allocator,
//! brackets itself in `RecordFunction`-style events, and launches kernels
//! whose names, launch geometry, FLOPs and memory traffic are derived from
//! the tensor shapes — the population PASTA's tools observe. Kernel names
//! follow the ATen/cuBLAS conventions visible in the paper's Fig. 4 and
//! Fig. 7 (`ampere_sgemm_128x64_tn`, `at::native::im2col_kernel`,
//! `at::native::vectorized_elementwise_kernel`, …).

use crate::dtype::DType;
use crate::session::Session;
use crate::tensor::Tensor;
use accel_sim::kernel::KernelArg;
use accel_sim::{
    AccelError, AccessKind, AccessPattern, AccessSpec, Dim3, KernelBody, KernelDesc, MemSpace,
};

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

fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Standard 256-thread launch over `work` items.
fn launch_cfg(work: u64) -> (Dim3, Dim3) {
    let blocks = ceil_div(work.max(1), 256).min(u32::MAX as u64) as u32;
    (Dim3::linear(blocks.max(1)), Dim3::linear(256))
}

/// GEMM tile edge used for reuse estimates.
const TILE: u64 = 128;

/// Launches a GEMM kernel `C[m,n] = A[m,k] × B[k,n]`, with optional fused
/// bias/activation epilogue. Memory traffic uses the tiled-reuse estimate:
/// A is streamed `⌈n/T⌉` times, B `⌈m/T⌉` times.
#[allow(clippy::too_many_arguments)]
pub fn gemm_kernel(
    s: &mut Session<'_>,
    tile_label: &str,
    a: &Tensor,
    b: &Tensor,
    c: &Tensor,
    m: u64,
    n: u64,
    k: u64,
    bias: Option<&Tensor>,
    act: Act,
) -> Result<(), AccelError> {
    let a_bytes = m * k * 4 * ceil_div(n, TILE).max(1);
    let b_bytes = k * n * 4 * ceil_div(m, TILE).max(1);
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
    let name = s.backend().gemm_kernel(tile_label, epilogue.gemm_suffix());
    let grid = Dim3::plane(
        ceil_div(n, TILE).max(1) as u32,
        ceil_div(m, 64).max(1) as u32,
    );
    let mut desc = KernelDesc::new(name, grid, Dim3::linear(256))
        .arg(a.ptr, a.bytes)
        .arg(b.ptr, b.bytes)
        .arg(c.ptr, c.bytes);
    let mut body = KernelBody::default()
        .with_flops(2 * m * n * k)
        .with_barriers((k / 16).max(1) as u32)
        .with_shared_mem(48 << 10)
        .access(AccessSpec::load(0, a.bytes.min(m * k * 4)).with_bytes(a_bytes))
        .access(AccessSpec::load(1, b.bytes.min(k * n * 4)).with_bytes(b_bytes))
        .access(AccessSpec::store(2, c_bytes.min(c.bytes)).with_bytes(c_bytes))
        // Shared-memory staging traffic for the tiles.
        .access(
            AccessSpec::load(0, (TILE * TILE * 4).min(a.bytes))
                .with_bytes(a_bytes / 2)
                .in_space(MemSpace::Shared),
        );
    if fused {
        if let Some(bias) = bias {
            desc.args.push(KernelArg {
                ptr: bias.ptr,
                len: bias.bytes,
            });
            body.accesses.push(
                AccessSpec::load(3, bias.bytes).with_bytes(bias.bytes * ceil_div(m, TILE).max(1)),
            );
        }
    }
    if let Some(ws) = &workspace {
        let idx = desc.args.len();
        desc.args.push(KernelArg {
            ptr: ws.ptr,
            len: ws.bytes,
        });
        body.accesses
            .push(AccessSpec::load(idx, ws.bytes.min(c_bytes)).with_bytes(c_bytes / 8));
    }
    s.launch(desc.body(body))?;

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
        let (g, blk) = launch_cfg(c.numel() / 4);
        let desc = KernelDesc::new(
            "at::native::vectorized_elementwise_kernel<add_bias>",
            g,
            blk,
        )
        .arg(c.ptr, c.bytes)
        .arg(bias.ptr, bias.bytes)
        .arg(tmp.ptr, tmp.bytes)
        .body(
            KernelBody::default()
                .with_flops(c.numel())
                .access(AccessSpec::load(0, c.bytes))
                .access(AccessSpec::load(1, bias.bytes).with_bytes(bias.bytes * 64))
                .access(AccessSpec::store(2, tmp.bytes)),
        );
        s.launch(desc)?;
        s.free_tensor(&tmp);
    }
    if act != Act::None {
        let scratch = s.alloc_tensor(&c.shape, DType::F32)?;
        let (g, blk) = launch_cfg(c.numel() / 4);
        let desc = KernelDesc::new(act.elementwise_name(), g, blk)
            .arg(c.ptr, c.bytes)
            .arg(scratch.ptr, scratch.bytes)
            .body(
                KernelBody::default()
                    .with_flops(c.numel())
                    .access(AccessSpec::load(0, c.bytes))
                    .access(AccessSpec::store(1, scratch.bytes)),
            );
        s.launch(desc)?;
        s.free_tensor(&scratch);
    }
    Ok(())
}

/// In-place elementwise kernel over one tensor (activation, scale, …).
pub fn elementwise_inplace(s: &mut Session<'_>, name: &str, t: &Tensor) -> Result<(), AccelError> {
    let (g, blk) = launch_cfg(t.numel() / 4);
    let desc = KernelDesc::new(name, g, blk).arg(t.ptr, t.bytes).body(
        KernelBody::default()
            .with_flops(t.numel())
            .access(AccessSpec::load(0, t.bytes))
            .access(AccessSpec::store(0, t.bytes)),
    );
    s.launch(desc)?;
    Ok(())
}

/// Elementwise kernel reading `inputs` and writing a fresh output of
/// `shape` (binary add, dropout, casts, …).
pub fn elementwise(
    s: &mut Session<'_>,
    name: &str,
    inputs: &[&Tensor],
    shape: &[usize],
) -> Result<Tensor, AccelError> {
    let out = s.alloc_tensor(shape, DType::F32)?;
    let (g, blk) = launch_cfg(out.numel() / 4);
    let mut desc = KernelDesc::new(name, g, blk);
    let mut body = KernelBody::default().with_flops(out.numel());
    for (i, t) in inputs.iter().enumerate() {
        desc.args.push(KernelArg {
            ptr: t.ptr,
            len: t.bytes,
        });
        body.accesses.push(AccessSpec::load(i, t.bytes));
    }
    desc.args.push(KernelArg {
        ptr: out.ptr,
        len: out.bytes,
    });
    body.accesses
        .push(AccessSpec::store(inputs.len(), out.bytes));
    s.launch(desc.body(body))?;
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
        gemm_kernel(
            s,
            "128x64",
            x,
            w,
            &y,
            m,
            out_f as u64,
            in_f as u64,
            bias,
            act,
        )?;
        Ok(y)
    })
}

/// Backward of [`linear`]: returns `(grad_x, grad_w, grad_b)`.
pub fn linear_backward(
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
        gemm_kernel(
            s,
            "128x64_dgrad",
            grad_out,
            w,
            &grad_x,
            m,
            in_f,
            out_f,
            None,
            Act::None,
        )?;
        // dW[n,k] = dYᵀ[n,m] × X[m,k]  (weight-grad GEMM, "nn" flavour).
        let grad_w = s.alloc_tensor(&w.shape, DType::F32)?;
        gemm_kernel(
            s,
            "128x64_wgrad",
            grad_out,
            x,
            &grad_w,
            out_f,
            in_f,
            m,
            None,
            Act::None,
        )?;
        // db = column-reduce dY.
        let grad_b = if want_bias {
            let gb = s.alloc_tensor(&[out_f as usize], DType::F32)?;
            let (g, blk) = launch_cfg(out_f);
            let desc = KernelDesc::new("at::native::reduce_kernel<512, ReduceAdd>", g, blk)
                .arg(grad_out.ptr, grad_out.bytes)
                .arg(gb.ptr, gb.bytes)
                .body(
                    KernelBody::default()
                        .with_flops(grad_out.numel())
                        .access(AccessSpec::load(0, grad_out.bytes))
                        .access(AccessSpec::store(1, gb.bytes)),
                );
            s.launch(desc)?;
            Some(gb)
        } else {
            None
        };
        Ok((grad_x, grad_w, grad_b))
    })
}

/// Convolution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dCfg {
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
    pub fn out_edge(&self, h: usize) -> usize {
        (h + 2 * self.pad - self.k) / self.stride + 1
    }
}

/// `aten::conv2d` via im2col+GEMM for large kernels (the AlexNet path —
/// `at::native::im2col_kernel` is one of the paper's hottest kernels) or
/// implicit GEMM for small kernels (the ResNet path).
///
/// `x: [n, cin, h, w]` → `[n, cout, oh, ow]`.
pub fn conv2d(
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
            let (g, blk) = launch_cfg(col.numel() / 4);
            let desc = KernelDesc::new("at::native::im2col_kernel", g, blk)
                .arg(x.ptr, x.bytes)
                .arg(col.ptr, col.bytes)
                .body(
                    KernelBody::default()
                        .with_flops(col.numel())
                        .access(AccessSpec::load(0, x.bytes).with_bytes(col.bytes))
                        .access(AccessSpec::store(1, col.bytes)),
                );
            s.launch(desc)?;
            gemm_kernel(s, "128x64", w, &col, &y, m, nn, kk, bias, act)?;
            s.free_tensor(&col);
        } else {
            // Implicit GEMM with a cuDNN-style workspace whose size depends
            // on the backend's workspace factor (the Fig. 14 peak-memory
            // contrast).
            let ws_bytes =
                ((kk * nn.min(4096) * 4) as f64 * s.backend().conv_workspace_factor) as u64;
            let ws = s.alloc_tensor(&[(ws_bytes / 4) as usize], DType::F32)?;
            let grid = Dim3::plane(
                ceil_div(nn, TILE).max(1) as u32,
                ceil_div(m, 64).max(1) as u32,
            );
            let fused = s.backend().fused_epilogue;
            let epilogue = if fused { act } else { Act::None };
            let name = epilogue.fused_conv_name();
            let mut desc = KernelDesc::new(name, grid, Dim3::linear(256))
                .arg(x.ptr, x.bytes)
                .arg(w.ptr, w.bytes)
                .arg(y.ptr, y.bytes)
                .arg(ws.ptr, ws.bytes);
            let mut body = KernelBody::default()
                .with_flops(2 * m * nn * kk)
                .with_barriers((kk / 16).max(1) as u32)
                .with_shared_mem(32 << 10)
                .access(AccessSpec::load(0, x.bytes).with_bytes(x.bytes * (cfg.k * cfg.k) as u64))
                .access(AccessSpec::load(1, w.bytes).with_bytes(w.bytes * ceil_div(nn, TILE)))
                .access(AccessSpec::store(2, y.bytes))
                .access(AccessSpec::load(3, ws.bytes).with_bytes(ws.bytes / 2));
            if fused {
                if let Some(b) = bias {
                    desc.args.push(KernelArg {
                        ptr: b.ptr,
                        len: b.bytes,
                    });
                    body.accesses.push(AccessSpec::load(4, b.bytes));
                }
            }
            s.launch(desc.body(body))?;
            s.free_tensor(&ws);
            if !fused {
                unfused_epilogue(s, &y, bias, act)?;
            }
        }
        Ok(y)
    })
}

/// Backward of [`conv2d`]: returns `(grad_x, grad_w, grad_b)`.
pub fn conv2d_backward(
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
        gemm_kernel(
            s,
            "128x64_dgrad",
            w,
            grad_out,
            &grad_x,
            kk,
            nn,
            m,
            None,
            Act::None,
        )?;
        if cfg.k >= 5 {
            let (g, blk) = launch_cfg(grad_x.numel() / 4);
            let desc = KernelDesc::new("at::native::col2im_kernel", g, blk)
                .arg(grad_x.ptr, grad_x.bytes)
                .body(
                    KernelBody::default()
                        .with_flops(grad_x.numel())
                        .access(AccessSpec::load(0, grad_x.bytes))
                        .access(AccessSpec::store(0, grad_x.bytes)),
                );
            s.launch(desc)?;
        }
        // wgrad: dW = dY × Xᵀ.
        gemm_kernel(
            s,
            "128x64_wgrad",
            grad_out,
            x,
            &grad_w,
            m,
            kk,
            nn,
            None,
            Act::None,
        )?;
        // bias grad.
        let (g, blk) = launch_cfg(m);
        let desc = KernelDesc::new("at::native::reduce_kernel<512, ReduceAdd>", g, blk)
            .arg(grad_out.ptr, grad_out.bytes)
            .arg(grad_b.ptr, grad_b.bytes)
            .body(
                KernelBody::default()
                    .with_flops(grad_out.numel())
                    .access(AccessSpec::load(0, grad_out.bytes))
                    .access(AccessSpec::store(1, grad_b.bytes)),
            );
        s.launch(desc)?;
        Ok((grad_x, grad_w, grad_b))
    })
}

/// `aten::max_pool2d` (square window).
pub fn maxpool2d(
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
        let (g, blk) = launch_cfg(y.numel() / 4);
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::max_pool_forward_nchw",
            g,
            blk,
        )
        .arg(x.ptr, x.bytes)
        .arg(y.ptr, y.bytes)
        .body(
            KernelBody::default()
                .with_flops(y.numel() * (k * k) as u64)
                .access(AccessSpec::load(0, x.bytes))
                .access(AccessSpec::store(1, y.bytes)),
        );
        s.launch(desc)?;
        Ok(y)
    })
}

/// Backward of [`maxpool2d`].
pub fn maxpool2d_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::max_pool2d_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        let (g, blk) = launch_cfg(grad_x.numel() / 4);
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::max_pool_backward_nchw",
            g,
            blk,
        )
        .arg(grad_out.ptr, grad_out.bytes)
        .arg(grad_x.ptr, grad_x.bytes)
        .body(
            KernelBody::default()
                .with_flops(grad_x.numel())
                .access(AccessSpec::load(0, grad_out.bytes))
                .access(AccessSpec::store(1, grad_x.bytes)),
        );
        s.launch(desc)?;
        Ok(grad_x)
    })
}

/// `aten::batch_norm` forward: two kernels (statistics + transform),
/// matching cuDNN's decomposition.
pub fn batchnorm2d(
    s: &mut Session<'_>,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::batch_norm", |s| {
        let y = s.alloc_tensor(&x.shape, DType::F32)?;
        let c = x.shape[1];
        let (g, blk) = launch_cfg(x.numel() / 8);
        let stats = KernelDesc::new(
            "at::native::batch_norm_collect_statistics_kernel",
            Dim3::linear(c as u32),
            blk,
        )
        .arg(x.ptr, x.bytes)
        .body(
            KernelBody::default()
                .with_flops(2 * x.numel())
                .with_barriers(4)
                .access(AccessSpec::load(0, x.bytes)),
        );
        s.launch(stats)?;
        let transform = KernelDesc::new("at::native::batch_norm_transform_input_kernel", g, blk)
            .arg(x.ptr, x.bytes)
            .arg(y.ptr, y.bytes)
            .arg(gamma.ptr, gamma.bytes)
            .arg(beta.ptr, beta.bytes)
            .body(
                KernelBody::default()
                    .with_flops(2 * x.numel())
                    .access(AccessSpec::load(0, x.bytes))
                    .access(AccessSpec::store(1, y.bytes))
                    .access(AccessSpec::load(2, gamma.bytes))
                    .access(AccessSpec::load(3, beta.bytes)),
            );
        s.launch(transform)?;
        Ok(y)
    })
}

/// Backward of [`batchnorm2d`]: returns `(grad_x, grad_gamma, grad_beta)`.
pub fn batchnorm2d_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    grad_out: &Tensor,
) -> Result<(Tensor, Tensor, Tensor), AccelError> {
    let c = x.shape[1];
    s.with_op("aten::batch_norm_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        let grad_gamma = s.alloc_tensor(&[c], DType::F32)?;
        let grad_beta = s.alloc_tensor(&[c], DType::F32)?;
        let (g, blk) = launch_cfg(x.numel() / 8);
        let desc = KernelDesc::new("at::native::batch_norm_backward_kernel", g, blk)
            .arg(x.ptr, x.bytes)
            .arg(grad_out.ptr, grad_out.bytes)
            .arg(grad_x.ptr, grad_x.bytes)
            .arg(grad_gamma.ptr, grad_gamma.bytes)
            .arg(grad_beta.ptr, grad_beta.bytes)
            .body(
                KernelBody::default()
                    .with_flops(4 * x.numel())
                    .with_barriers(4)
                    .access(AccessSpec::load(0, x.bytes))
                    .access(AccessSpec::load(1, grad_out.bytes))
                    .access(AccessSpec::store(2, grad_x.bytes))
                    .access(AccessSpec::store(3, grad_gamma.bytes))
                    .access(AccessSpec::store(4, grad_beta.bytes)),
            );
        s.launch(desc)?;
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
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::vectorized_layer_norm_kernel",
            Dim3::linear(rows.min(u32::MAX as u64) as u32),
            Dim3::linear(256),
        )
        .arg(x.ptr, x.bytes)
        .arg(y.ptr, y.bytes)
        .arg(gamma.ptr, gamma.bytes)
        .arg(beta.ptr, beta.bytes)
        .body(
            KernelBody::default()
                .with_flops(4 * x.numel())
                .with_barriers(2)
                .access(AccessSpec::load(0, x.bytes))
                .access(AccessSpec::store(1, y.bytes))
                .access(AccessSpec::load(2, gamma.bytes).with_bytes(gamma.bytes * rows))
                .access(AccessSpec::load(3, beta.bytes).with_bytes(beta.bytes * rows)),
        );
        s.launch(desc)?;
        Ok(y)
    })
}

/// Backward of [`layernorm`]: returns `(grad_x, grad_gamma, grad_beta)`.
pub fn layernorm_backward(
    s: &mut Session<'_>,
    x: &Tensor,
    grad_out: &Tensor,
    width: usize,
) -> Result<(Tensor, Tensor, Tensor), AccelError> {
    s.with_op("aten::layer_norm_backward", |s| {
        let grad_x = s.alloc_tensor(&x.shape, DType::F32)?;
        let grad_gamma = s.alloc_tensor(&[width], DType::F32)?;
        let grad_beta = s.alloc_tensor(&[width], DType::F32)?;
        let (g, blk) = launch_cfg(x.numel() / 4);
        let desc = KernelDesc::new("at::native::layer_norm_grad_input_kernel", g, blk)
            .arg(x.ptr, x.bytes)
            .arg(grad_out.ptr, grad_out.bytes)
            .arg(grad_x.ptr, grad_x.bytes)
            .arg(grad_gamma.ptr, grad_gamma.bytes)
            .arg(grad_beta.ptr, grad_beta.bytes)
            .body(
                KernelBody::default()
                    .with_flops(6 * x.numel())
                    .with_barriers(2)
                    .access(AccessSpec::load(0, x.bytes))
                    .access(AccessSpec::load(1, grad_out.bytes))
                    .access(AccessSpec::store(2, grad_x.bytes))
                    .access(AccessSpec::store(3, grad_gamma.bytes))
                    .access(AccessSpec::store(4, grad_beta.bytes)),
            );
        s.launch(desc)?;
        Ok((grad_x, grad_gamma, grad_beta))
    })
}

/// `aten::softmax` over the last dimension (fresh output tensor).
pub fn softmax(s: &mut Session<'_>, x: &Tensor) -> Result<Tensor, AccelError> {
    s.with_op("aten::softmax", |s| {
        let y = s.alloc_tensor(&x.shape, DType::F32)?;
        let rows = x.numel() / *x.shape.last().expect("rank>0") as u64;
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::cunn_SoftMaxForward",
            Dim3::linear(rows.min(u32::MAX as u64).max(1) as u32),
            Dim3::linear(128),
        )
        .arg(x.ptr, x.bytes)
        .arg(y.ptr, y.bytes)
        .body(
            KernelBody::default()
                .with_flops(3 * x.numel())
                .with_barriers(2)
                .access(AccessSpec::load(0, x.bytes))
                .access(AccessSpec::store(1, y.bytes)),
        );
        s.launch(desc)?;
        Ok(y)
    })
}

/// Backward of [`softmax`].
pub fn softmax_backward(
    s: &mut Session<'_>,
    y: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::softmax_backward", |s| {
        let grad_x = s.alloc_tensor(&y.shape, DType::F32)?;
        let (g, blk) = launch_cfg(y.numel() / 4);
        let desc = KernelDesc::new("at::native::cunn_SoftMaxBackward", g, blk)
            .arg(y.ptr, y.bytes)
            .arg(grad_out.ptr, grad_out.bytes)
            .arg(grad_x.ptr, grad_x.bytes)
            .body(
                KernelBody::default()
                    .with_flops(3 * y.numel())
                    .access(AccessSpec::load(0, y.bytes))
                    .access(AccessSpec::load(1, grad_out.bytes))
                    .access(AccessSpec::store(2, grad_x.bytes)),
            );
        s.launch(desc)?;
        Ok(grad_x)
    })
}

/// `aten::embedding`: gather rows of `table[vocab, dim]` for
/// `indices: [batch…] (i64)` → `[batch…, dim]`.
pub fn embedding(
    s: &mut Session<'_>,
    table: &Tensor,
    indices: &Tensor,
) -> Result<Tensor, AccelError> {
    let dim = table.shape[1];
    let mut out_shape = indices.shape.clone();
    out_shape.push(dim);
    s.with_op("aten::embedding", |s| {
        let y = s.alloc_tensor(&out_shape, DType::F32)?;
        let (g, blk) = launch_cfg(y.numel() / 4);
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::indexSelectLargeIndex",
            g,
            blk,
        )
        .arg(table.ptr, table.bytes)
        .arg(indices.ptr, indices.bytes)
        .arg(y.ptr, y.bytes)
        .body(
            KernelBody::default()
                .with_flops(y.numel())
                // Gathers over the whole table extent, data-dependent.
                .access(
                    AccessSpec::load(0, table.bytes)
                        .with_bytes(y.bytes)
                        .with_pattern(AccessPattern::Random),
                )
                .access(AccessSpec::load(1, indices.bytes))
                .access(AccessSpec::store(2, y.bytes)),
        );
        s.launch(desc)?;
        Ok(y)
    })
}

/// Backward of [`embedding`]: scatter-add into the table gradient.
pub fn embedding_backward(
    s: &mut Session<'_>,
    table: &Tensor,
    indices: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor, AccelError> {
    s.with_op("aten::embedding_dense_backward", |s| {
        let grad_table = s.alloc_tensor(&table.shape, DType::F32)?;
        let (g, blk) = launch_cfg(grad_out.numel() / 4);
        let desc = KernelDesc::new("at::native::embedding_backward_kernel", g, blk)
            .arg(grad_out.ptr, grad_out.bytes)
            .arg(indices.ptr, indices.bytes)
            .arg(grad_table.ptr, grad_table.bytes)
            .body(
                KernelBody::default()
                    .with_flops(grad_out.numel())
                    .access(AccessSpec::load(0, grad_out.bytes))
                    .access(AccessSpec::load(1, indices.bytes))
                    .access(
                        AccessSpec {
                            kind: AccessKind::Atomic,
                            ..AccessSpec::store(2, grad_table.bytes)
                        }
                        .with_bytes(grad_out.bytes)
                        .with_pattern(AccessPattern::Random),
                    ),
            );
        s.launch(desc)?;
        Ok(grad_table)
    })
}

/// Cross-entropy forward over `logits: [rows, classes]` → scalar loss.
pub fn cross_entropy(s: &mut Session<'_>, logits: &Tensor) -> Result<Tensor, AccelError> {
    s.with_op("aten::cross_entropy_loss", |s| {
        let sm = softmax(s, logits)?;
        let loss = s.alloc_tensor(&[1], DType::F32)?;
        let rows = logits.numel() / *logits.shape.last().expect("rank>0") as u64;
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::nll_loss_forward_reduce_cuda_kernel_2d",
            Dim3::linear(1),
            Dim3::linear(256),
        )
        .arg(sm.ptr, sm.bytes)
        .arg(loss.ptr, loss.bytes)
        .body(
            KernelBody::default()
                .with_flops(rows)
                .access(AccessSpec::load(0, sm.bytes).with_bytes(rows * 4))
                .access(AccessSpec::store(1, loss.bytes)),
        );
        s.launch(desc)?;
        s.free_tensor(&sm);
        Ok(loss)
    })
}

/// Cross-entropy backward: gradient of the logits.
pub fn cross_entropy_backward(s: &mut Session<'_>, logits: &Tensor) -> Result<Tensor, AccelError> {
    s.with_op("aten::nll_loss_backward", |s| {
        let grad = s.alloc_tensor(&logits.shape, DType::F32)?;
        let (g, blk) = launch_cfg(grad.numel() / 4);
        let desc = KernelDesc::new(
            "at::native::nll_loss_backward_reduce_cuda_kernel_2d",
            g,
            blk,
        )
        .arg(logits.ptr, logits.bytes)
        .arg(grad.ptr, grad.bytes)
        .body(
            KernelBody::default()
                .with_flops(grad.numel())
                .access(AccessSpec::load(0, logits.bytes))
                .access(AccessSpec::store(1, grad.bytes)),
        );
        s.launch(desc)?;
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
        let (g, blk) = launch_cfg(param.numel() / 4);
        let desc = KernelDesc::new(
            "at::native::(anonymous namespace)::multi_tensor_apply_kernel<adam>",
            g,
            blk,
        )
        .arg(param.ptr, param.bytes)
        .arg(grad.ptr, grad.bytes)
        .arg(m.ptr, m.bytes)
        .arg(v.ptr, v.bytes)
        .body(
            KernelBody::default()
                .with_flops(8 * param.numel())
                .access(AccessSpec::load(0, param.bytes))
                .access(AccessSpec::store(0, param.bytes))
                .access(AccessSpec::load(1, grad.bytes))
                .access(AccessSpec::load(2, m.bytes))
                .access(AccessSpec::store(2, m.bytes))
                .access(AccessSpec::load(3, v.bytes))
                .access(AccessSpec::store(3, v.bytes)),
        );
        s.launch(desc)?;
        Ok(())
    })
}

/// A ring all-reduce collective over `t` (NCCL/RCCL flavoured name).
pub fn allreduce(s: &mut Session<'_>, t: &Tensor) -> Result<(), AccelError> {
    let name = s.backend().collective_kernel("AllReduce_RING_LL");
    s.with_op("c10d::allreduce_", |s| {
        let (g, blk) = launch_cfg(t.numel() / 8);
        let desc = KernelDesc::new(name, g, blk).arg(t.ptr, t.bytes).body(
            KernelBody::default()
                .with_flops(t.numel())
                // Ring all-reduce moves ~2× the payload per rank.
                .access(AccessSpec::load(0, t.bytes).with_bytes(2 * t.bytes))
                .access(AccessSpec::store(0, t.bytes)),
        );
        s.launch(desc)?;
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
        let (g, blk) = launch_cfg(t.numel() / 8);
        let desc = KernelDesc::new(name, g, blk).arg(t.ptr, t.bytes).body(
            KernelBody::default()
                .access(AccessSpec::load(0, t.bytes))
                .access(AccessSpec::store(0, t.bytes)),
        );
        s.launch(desc)?;
        Ok(())
    })
}

/// Point-to-point activation send/recv (pipeline parallelism).
pub fn send_recv(s: &mut Session<'_>, t: &Tensor) -> Result<(), AccelError> {
    let name = s.backend().collective_kernel("SendRecv");
    s.with_op("c10d::send", |s| {
        let (g, blk) = launch_cfg(t.numel() / 8);
        let desc = KernelDesc::new(name, g, blk).arg(t.ptr, t.bytes).body(
            KernelBody::default()
                .access(AccessSpec::load(0, t.bytes))
                .access(AccessSpec::store(0, t.bytes)),
        );
        s.launch(desc)?;
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
