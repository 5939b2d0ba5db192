//! Transformer models: GPT-2 (decoder), BERT (encoder), Whisper-small
//! (encoder/decoder).
//!
//! All three share `TransformerLm`: token + positional embeddings, a
//! stack of `TransformerBlock`s, a final layer norm, and a weight-tied
//! vocabulary projection. Whisper adds an audio encoder whose output the
//! decoder's cross-attention layers consume.

use super::{ModelKind, ModelSpec, Workload};
use crate::callbacks::Pass;
use crate::dtype::DType;
use crate::layers::{Layer, LayerNorm, Linear, Param, Sequential, TransformerBlock};
use crate::ops::{self, Act};
use crate::pycall::PyFrame;
use crate::session::Session;
use crate::tensor::Tensor;
use accel_sim::AccelError;

/// Architectural dimensions of a transformer LM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LmDims {
    /// Hidden width.
    pub d: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
    /// Block count.
    pub layers: usize,
}

impl LmDims {
    /// Bytes of KV cache one token occupies under these dimensions: a
    /// key and a value vector of width `d` per layer, in `dtype` — the
    /// per-decode-step growth rate of a serving request's paged cache
    /// (`crate::serving`).
    pub(crate) fn kv_bytes_per_token(&self, dtype: DType) -> u64 {
        2 * self.layers as u64 * self.d as u64 * dtype.size_bytes()
    }

    /// Approximate parameter bytes of the decoder stack in `dtype`:
    /// QKV/output projections (`4·d²`) plus the two MLP matrices
    /// (`2·d·ffn`) per layer, plus the tied token embedding
    /// (`vocab·d`). The serving scenario sizes its shared weight range
    /// with this, so weight residency competes with KV growth for the
    /// managed budget the way it does on a real serving GPU.
    pub fn param_bytes(&self, dtype: DType) -> u64 {
        let per_layer = 4 * self.d as u64 * self.d as u64 + 2 * self.d as u64 * self.ffn as u64;
        (self.layers as u64 * per_layer + self.vocab as u64 * self.d as u64) * dtype.size_bytes()
    }
}

/// A decoder- or encoder-only transformer language model.
pub(crate) struct TransformerLm {
    spec: ModelSpec,
    dims: LmDims,
    batch: usize,
    wte: Param,
    wpe: Param,
    blocks: Sequential,
    ln_f: LayerNorm,
    /// Whisper's audio encoder, if any.
    encoder: Option<AudioEncoder>,
    /// Python entry file used for simulated call stacks.
    py_file: &'static str,
}

impl std::fmt::Debug for TransformerLm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformerLm")
            .field("spec", &self.spec)
            .field("dims", &self.dims)
            .finish()
    }
}

/// Whisper's convolutional-front-end audio encoder.
pub(crate) struct AudioEncoder {
    proj1: Linear,
    proj2: Linear,
    blocks: Sequential,
    ln: LayerNorm,
    frames: usize,
    mel: usize,
    /// Cross-attention layers of the decoder (one per decoder block).
    cross: Vec<CrossAttention>,
}

/// Decoder→encoder cross-attention.
///
/// Query comes from the decoder stream, keys/values from the encoder
/// memory; scores are `[b·h, seq_q, seq_kv]`, so the kernel's working set
/// includes the (large) encoder memory — the access-pattern fidelity the
/// Whisper rows of Table V need.
pub(crate) struct CrossAttention {
    wq: Param,
    wkv: Param,
    wo: Param,
    dim: usize,
    heads: usize,
    saved: Vec<Tensor>,
}

impl CrossAttention {
    fn new(s: &mut Session<'_>, dim: usize, heads: usize) -> Result<Self, AccelError> {
        Ok(CrossAttention {
            wq: Param::new(s, &[dim, dim])?,
            wkv: Param::new(s, &[2 * dim, dim])?,
            wo: Param::new(s, &[dim, dim])?,
            dim,
            heads,
            saved: Vec::new(),
        })
    }

    fn forward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        memory: &Tensor,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        let (b, sq) = (x.shape[0], x.shape[1]);
        let sk = memory.shape[1];
        let (d, h) = (self.dim, self.heads);
        s.with_op("aten::cross_attention", |s| {
            let q = ops::linear(s, x, &self.wq.tensor.clone(), None, Act::None)?;
            let kv = ops::linear(s, memory, &self.wkv.tensor.clone(), None, Act::None)?;
            let scores = s.alloc_tensor(&[b * h, sq, sk], DType::F32)?;
            ops::gemm_kernel(
                s,
                "64x64_xattn_qk",
                &q,
                &kv,
                &scores,
                (b * h * sq) as u64,
                sk as u64,
                (d / h) as u64,
                None,
                Act::None,
            )?;
            let probs = ops::softmax(s, &scores)?;
            s.free_tensor(&scores);
            let ctx = s.alloc_tensor(&[b, sq, d], DType::F32)?;
            ops::gemm_kernel(
                s,
                "64x64_xattn_pv",
                &probs,
                &kv,
                &ctx,
                (b * h * sq) as u64,
                (d / h) as u64,
                sk as u64,
                None,
                Act::None,
            )?;
            let out = ops::linear(s, &ctx, &self.wo.tensor.clone(), None, Act::None)?;
            // Memory-efficient attention: probabilities are recomputed in
            // backward, never saved (they are O(seq_q x seq_kv) per head).
            s.free_tensor(&probs);
            if train {
                self.saved = vec![q, kv, ctx];
            } else {
                for t in [q, kv, ctx] {
                    s.free_tensor(&t);
                }
            }
            Ok(out)
        })
    }

    fn backward(
        &mut self,
        s: &mut Session<'_>,
        x: &Tensor,
        memory: &Tensor,
        grad_out: &Tensor,
    ) -> Result<Tensor, AccelError> {
        let ctx = self.saved.pop().expect("ctx");
        let kv = self.saved.pop().expect("kv");
        let q = self.saved.pop().expect("q");
        let (b, sq) = (q.shape[0], q.shape[1]);
        let sk = kv.shape[1];
        let h = self.heads;

        let (g_ctx, g_wo, _) = ops::linear_backward(s, &ctx, &self.wo.tensor, grad_out, false)?;
        self.wo.set_grad(s, g_wo)?;
        s.free_tensor(&ctx);
        // Recompute the cross-attention probabilities (memory-efficient path).
        let scores = s.alloc_tensor(&[b * h, sq, sk], DType::F32)?;
        ops::gemm_kernel(
            s,
            "64x64_xattn_qk_recompute",
            &q,
            &kv,
            &scores,
            (b * h * sq) as u64,
            sk as u64,
            (self.dim / h) as u64,
            None,
            Act::None,
        )?;
        let probs = ops::softmax(s, &scores)?;
        s.free_tensor(&scores);
        let g_probs = ops::softmax_backward(s, &probs, &g_ctx)?;
        s.free_tensor(&probs);
        s.free_tensor(&g_ctx);
        let g_q = s.alloc_tensor(&q.shape, DType::F32)?;
        ops::gemm_kernel(
            s,
            "64x64_xattn_bwd",
            &g_probs,
            &kv,
            &g_q,
            (q.shape[0] * q.shape[1]) as u64,
            (self.dim / self.heads) as u64,
            g_probs.shape[2] as u64,
            None,
            Act::None,
        )?;
        s.free_tensor(&g_probs);
        s.free_tensor(&q);
        // Grad through the KV projection lands on the (shared) memory; the
        // encoder path absorbs it, so the memory gradient is dropped here.
        let g_kv = s.alloc_tensor(&kv.shape, DType::F32)?;
        let (g_mem, g_wkv, _) = ops::linear_backward(s, memory, &self.wkv.tensor, &g_kv, false)?;
        self.wkv.set_grad(s, g_wkv)?;
        s.free_tensor(&g_kv);
        s.free_tensor(&kv);
        s.free_tensor(&g_mem);
        let (gx, g_wq, _) = ops::linear_backward(s, x, &self.wq.tensor, &g_q, false)?;
        self.wq.set_grad(s, g_wq)?;
        s.free_tensor(&g_q);
        Ok(gx)
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        for t in self.saved.drain(..) {
            s.free_tensor(&t);
        }
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.wq.step(s)?;
        self.wkv.step(s)?;
        self.wo.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.release_saved(s);
        self.wq.destroy(s);
        self.wkv.destroy(s);
        self.wo.destroy(s);
    }

    fn param_bytes(&self) -> u64 {
        self.wq.bytes() + self.wkv.bytes() + self.wo.bytes()
    }
}

/// Training-mode activations the shared forward keeps: `(idx, h, hl)`.
type SavedActivations = Option<(Tensor, Tensor, Tensor)>;

impl TransformerLm {
    /// Runs the shared forward: embeddings → blocks → final LN → logits.
    /// Returns `(logits, idx, h, hl)`; in inference `idx/h/hl` are already
    /// freed and returned for shape inspection only.
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        train: bool,
    ) -> Result<(Tensor, SavedActivations), AccelError> {
        let (b, seq, d) = (self.batch, self.dims.seq, self.dims.d);
        s.py_push(PyFrame::new(self.py_file, 146, "forward"));
        let idx = s.alloc_tensor(&[b, seq], DType::I64)?;
        let emb = ops::embedding(s, &self.wte.tensor.clone(), &idx)?;
        let wpe = self.wpe.tensor.clone();
        let x = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add_pos>",
            &[&emb, &wpe],
            &[b, seq, d],
        )?;
        s.free_tensor(&emb);
        let h = self.blocks.forward(s, x, train)?;
        let hl = self.ln_f.forward(s, &h, train)?;
        // Weight-tied head: logits = hl × wteᵀ.
        let logits = ops::linear(s, &hl, &self.wte.tensor.clone(), None, Act::None)?;
        s.py_pop();
        if train {
            Ok((logits, Some((idx, h, hl))))
        } else {
            s.free_tensor(&idx);
            s.free_tensor(&h);
            s.free_tensor(&hl);
            Ok((logits, None))
        }
    }
}

impl Workload for TransformerLm {
    fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    fn inference_batch(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        if let Some(mut enc) = self.encoder.take() {
            let r = self.whisper_inference(s, &mut enc);
            self.encoder = Some(enc);
            return r;
        }
        let (logits, _) = self.forward(s, false)?;
        s.free_tensor(&logits);
        Ok(())
    }

    fn training_iter(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        if let Some(mut enc) = self.encoder.take() {
            let r = self.whisper_training(s, &mut enc);
            self.encoder = Some(enc);
            return r;
        }
        s.pass_boundary(Pass::Forward);
        let (logits, saved) = self.forward(s, true)?;
        let (idx, h, hl) = saved.expect("training saves activations");
        let loss = ops::cross_entropy(s, &logits)?;
        s.free_tensor(&loss);

        s.pass_boundary(Pass::Backward);
        let g_logits = ops::cross_entropy_backward(s, &logits)?;
        let (g_hl, g_wte_head, _) =
            ops::linear_backward(s, &hl, &self.wte.tensor, &g_logits, false)?;
        self.wte.set_grad(s, g_wte_head)?;
        s.free_tensor(&g_logits);
        s.free_tensor(&logits);
        let g_h = self.ln_f.backward(s, &h, &g_hl)?;
        s.free_tensor(&g_hl);
        s.free_tensor(&hl);
        let g_x = self.blocks.backward(s, g_h)?;
        s.free_tensor(&h);
        self.embedding_backward(s, &idx, &g_x)?;
        s.free_tensor(&g_x);
        s.free_tensor(&idx);

        s.pass_boundary(Pass::Optimizer);
        self.optimizer_step(s)?;
        Ok(())
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.wte.destroy(s);
        self.wpe.destroy(s);
        self.blocks.destroy(s);
        self.ln_f.destroy(s);
        if let Some(mut enc) = self.encoder.take() {
            enc.destroy(s);
        }
    }

    fn param_bytes(&self) -> u64 {
        self.wte.bytes()
            + self.wpe.bytes()
            + self.blocks.param_bytes()
            + self.ln_f.param_bytes()
            + self.encoder.as_ref().map_or(0, AudioEncoder::param_bytes)
    }
}

impl TransformerLm {
    /// Embeds a fresh token batch: returns `(idx, x)` where `x` is the
    /// position-added embedding stream.
    fn embed(&mut self, s: &mut Session<'_>) -> Result<(Tensor, Tensor), AccelError> {
        let (b, seq, d) = (self.batch, self.dims.seq, self.dims.d);
        let idx = s.alloc_tensor(&[b, seq], DType::I64)?;
        let emb = ops::embedding(s, &self.wte.tensor.clone(), &idx)?;
        let wpe = self.wpe.tensor.clone();
        let x = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add_pos>",
            &[&emb, &wpe],
            &[b, seq, d],
        )?;
        s.free_tensor(&emb);
        Ok((idx, x))
    }

    /// Shared tail of every training path: positional + token embedding
    /// gradients from the gradient at the embedding output.
    fn embedding_backward(
        &mut self,
        s: &mut Session<'_>,
        idx: &Tensor,
        g_x: &Tensor,
    ) -> Result<(), AccelError> {
        let g_wpe = ops::elementwise(
            s,
            "at::native::reduce_kernel<512, ReduceAdd>",
            &[g_x],
            &self.wpe.tensor.shape,
        )?;
        self.wpe.set_grad(s, g_wpe)?;
        let g_table = ops::embedding_backward(s, &self.wte.tensor, idx, g_x)?;
        self.wte.set_grad(s, g_table)?;
        Ok(())
    }

    fn optimizer_step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.wte.step(s)?;
        self.wpe.step(s)?;
        self.blocks.step(s)?;
        self.ln_f.step(s)?;
        if let Some(enc) = self.encoder.as_mut() {
            enc.step(s)?;
        }
        Ok(())
    }

    /// Whisper inference: encode audio, then run decoder blocks manually so
    /// each cross-attention layer reads the encoder memory.
    fn whisper_inference(
        &mut self,
        s: &mut Session<'_>,
        enc: &mut AudioEncoder,
    ) -> Result<(), AccelError> {
        let mem = enc.encode(s, self.batch, false)?;
        let (idx, mut x) = self.embed(s)?;
        s.free_tensor(&idx);
        for (i, (block, cross)) in self
            .blocks
            .layers_mut()
            .iter_mut()
            .zip(enc.cross.iter_mut())
            .enumerate()
        {
            s.layer_boundary(&format!("decoder.{i}"), i);
            let y = block.forward(s, &x, false)?;
            block.release_saved(s);
            s.free_tensor(&x);
            let z = cross.forward(s, &y, &mem, false)?;
            s.free_tensor(&y);
            x = z;
        }
        let hl = self.ln_f.forward(s, &x, false)?;
        s.free_tensor(&x);
        let logits = ops::linear(s, &hl, &self.wte.tensor.clone(), None, Act::None)?;
        s.free_tensor(&hl);
        s.free_tensor(&logits);
        s.free_tensor(&mem);
        Ok(())
    }

    /// Whisper training: the same manual decoder walk, kept activations,
    /// then reverse through cross-attention and self-attention blocks.
    fn whisper_training(
        &mut self,
        s: &mut Session<'_>,
        enc: &mut AudioEncoder,
    ) -> Result<(), AccelError> {
        s.pass_boundary(Pass::Forward);
        let mem = enc.encode(s, self.batch, true)?;
        let (idx, mut x) = self.embed(s)?;
        // acts[i] = (input to block i, input to cross i).
        let mut acts: Vec<(Tensor, Tensor)> = Vec::new();
        for (block, cross) in self
            .blocks
            .layers_mut()
            .iter_mut()
            .zip(enc.cross.iter_mut())
        {
            let y = block.forward(s, &x, true)?;
            let z = cross.forward(s, &y, &mem, true)?;
            acts.push((x, y));
            x = z;
        }
        let h = x;
        let hl = self.ln_f.forward(s, &h, true)?;
        let logits = ops::linear(s, &hl, &self.wte.tensor.clone(), None, Act::None)?;
        let loss = ops::cross_entropy(s, &logits)?;
        s.free_tensor(&loss);

        s.pass_boundary(Pass::Backward);
        let g_logits = ops::cross_entropy_backward(s, &logits)?;
        let (g_hl, g_wte_head, _) =
            ops::linear_backward(s, &hl, &self.wte.tensor, &g_logits, false)?;
        self.wte.set_grad(s, g_wte_head)?;
        s.free_tensor(&g_logits);
        s.free_tensor(&logits);
        let mut grad = self.ln_f.backward(s, &h, &g_hl)?;
        s.free_tensor(&g_hl);
        s.free_tensor(&hl);
        s.free_tensor(&h);
        for (block, cross) in self
            .blocks
            .layers_mut()
            .iter_mut()
            .zip(enc.cross.iter_mut())
            .rev()
        {
            let (x_in, y_in) = acts.pop().expect("activation pair");
            let g_y = cross.backward(s, &y_in, &mem, &grad)?;
            s.free_tensor(&grad);
            s.free_tensor(&y_in);
            let g_x = block.backward(s, &x_in, &g_y)?;
            s.free_tensor(&g_y);
            s.free_tensor(&x_in);
            grad = g_x;
        }
        self.embedding_backward(s, &idx, &grad)?;
        s.free_tensor(&grad);
        s.free_tensor(&idx);
        enc.backward_and_free(s, &mem)?;
        s.free_tensor(&mem);

        s.pass_boundary(Pass::Optimizer);
        self.optimizer_step(s)?;
        // The encoder is detached from `self` during this call; step it
        // explicitly (optimizer_step only covers an attached encoder).
        enc.step(s)?;
        Ok(())
    }
}

impl AudioEncoder {
    fn encode(
        &mut self,
        s: &mut Session<'_>,
        batch: usize,
        train: bool,
    ) -> Result<Tensor, AccelError> {
        s.region_start("whisper.encoder");
        let audio = s.alloc_tensor(&[batch, self.frames, self.mel], DType::F32)?;
        let p1 = self.proj1.forward(s, &audio, train)?;
        s.free_tensor(&audio);
        let p2 = self.proj2.forward(s, &p1, train)?;
        s.free_tensor(&p1);
        let h = self.blocks.forward(s, p2, train)?;
        let mem = self.ln.forward(s, &h, train)?;
        if !train {
            self.blocks_release(s);
        }
        s.free_tensor(&h);
        s.region_end("whisper.encoder");
        Ok(mem)
    }

    fn blocks_release(&mut self, s: &mut Session<'_>) {
        self.proj1.release_saved(s);
        self.proj2.release_saved(s);
        self.ln.release_saved(s);
    }

    /// Approximate encoder backward: replays the block stack in reverse
    /// with a gradient shaped like the memory.
    fn backward_and_free(&mut self, s: &mut Session<'_>, mem: &Tensor) -> Result<(), AccelError> {
        let g = s.alloc_tensor(&mem.shape, DType::F32)?;
        let g_in = self.blocks.backward(s, g)?;
        s.free_tensor(&g_in);
        Ok(())
    }

    fn step(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        self.proj1.step(s)?;
        self.proj2.step(s)?;
        self.blocks.step(s)?;
        self.ln.step(s)?;
        for c in &mut self.cross {
            c.step(s)?;
        }
        Ok(())
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        self.proj1.destroy(s);
        self.proj2.destroy(s);
        self.blocks.destroy(s);
        self.ln.destroy(s);
        for mut c in self.cross.drain(..) {
            c.destroy(s);
        }
    }

    fn param_bytes(&self) -> u64 {
        self.proj1.param_bytes()
            + self.proj2.param_bytes()
            + self.blocks.param_bytes()
            + self.ln.param_bytes()
            + self
                .cross
                .iter()
                .map(CrossAttention::param_bytes)
                .sum::<u64>()
    }
}

/// Builds a custom transformer LM from explicit dimensions — the
/// multi-GPU parallel runners (Megatron GPT-2 345M) use this to construct
/// replicas and shards.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn custom_lm(
    s: &mut Session<'_>,
    spec: ModelSpec,
    dims: LmDims,
    batch: usize,
    py_file: &'static str,
) -> Result<TransformerLm, AccelError> {
    build_lm(s, spec, dims, batch, py_file)
}

fn build_lm(
    s: &mut Session<'_>,
    spec: ModelSpec,
    dims: LmDims,
    batch: usize,
    py_file: &'static str,
) -> Result<TransformerLm, AccelError> {
    let wte = Param::new(s, &[dims.vocab, dims.d])?;
    let wpe = Param::new(s, &[dims.seq, dims.d])?;
    let mut blocks = Sequential::new(format!("{}.blocks", spec.abbr));
    for i in 0..dims.layers {
        blocks.push(Box::new(TransformerBlock::new(
            s,
            format!("h.{i}"),
            dims.d,
            dims.heads,
            dims.ffn,
        )?));
    }
    let ln_f = LayerNorm::new(s, "ln_f", dims.d)?;
    Ok(TransformerLm {
        spec,
        dims,
        batch,
        wte,
        wpe,
        blocks,
        ln_f,
        encoder: None,
        py_file,
    })
}

/// GPT-2 (124M): 12 decoder blocks, d=768, 12 heads, seq 1024, batch 8.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn gpt2(s: &mut Session<'_>, batch: usize) -> Result<TransformerLm, AccelError> {
    build_lm(
        s,
        ModelSpec {
            name: "GPT-2",
            abbr: "GPT-2",
            kind: ModelKind::Transformer,
            layers: 12,
            batch,
        },
        LmDims {
            d: 768,
            heads: 12,
            ffn: 3072,
            vocab: 50257,
            seq: 1024,
            layers: 12,
        },
        batch,
        "models/gpt2/run_gpt2.py",
    )
}

/// BERT-base: 12 encoder blocks, d=768, seq 128, batch 16.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn bert(s: &mut Session<'_>, batch: usize) -> Result<TransformerLm, AccelError> {
    build_lm(
        s,
        ModelSpec {
            name: "BERT",
            abbr: "BERT",
            kind: ModelKind::Transformer,
            layers: 12,
            batch,
        },
        LmDims {
            d: 768,
            heads: 12,
            ffn: 3072,
            vocab: 30522,
            seq: 128,
            layers: 12,
        },
        batch,
        "models/bert/run_bert.py",
    )
}

/// Whisper-small: 12-block audio encoder (1500 frames) + 12-block decoder
/// with cross-attention, d=768, batch 16.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn whisper_small(
    s: &mut Session<'_>,
    batch: usize,
) -> Result<TransformerLm, AccelError> {
    let mut lm = build_lm(
        s,
        ModelSpec {
            name: "Whisper (small)",
            abbr: "Whisper",
            kind: ModelKind::Transformer,
            layers: 12,
            batch,
        },
        LmDims {
            d: 768,
            heads: 12,
            ffn: 3072,
            vocab: 51865,
            seq: 128,
            layers: 12,
        },
        batch,
        "models/whisper/run_whisper.py",
    )?;
    let mut enc_blocks = Sequential::new("whisper.encoder.blocks");
    for i in 0..12 {
        enc_blocks.push(Box::new(TransformerBlock::new(
            s,
            format!("enc.{i}"),
            768,
            12,
            3072,
        )?));
    }
    let mut cross = Vec::new();
    for _ in 0..12 {
        cross.push(CrossAttention::new(s, 768, 12)?);
    }
    lm.encoder = Some(AudioEncoder {
        proj1: Linear::new(s, "enc.conv1", 80, 768, true, Act::Gelu)?,
        proj2: Linear::new(s, "enc.conv2", 768, 768, true, Act::Gelu)?,
        blocks: enc_blocks,
        ln: LayerNorm::new(s, "enc.ln_post", 768)?,
        frames: 1500,
        mel: 80,
        cross,
    });
    Ok(lm)
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
    fn bert_inference_cleans_up() {
        with_session(|s| {
            let mut m = bert(s, 2).unwrap();
            let params = s.allocator_stats().allocated;
            assert!(
                params > 300 << 20,
                "BERT-base is ~110M params ≈ 440 MB, got {params}"
            );
            m.inference_batch(s).unwrap();
            s.release_workspaces();
            assert_eq!(s.allocator_stats().allocated, params);
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }

    #[test]
    fn gpt2_training_iter_cleans_up() {
        with_session(|s| {
            let mut m = gpt2(s, 1).unwrap();
            let params = s.allocator_stats().allocated;
            m.training_iter(s).unwrap();
            s.release_workspaces();
            assert_eq!(s.allocator_stats().allocated, params * 3);
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }

    #[test]
    fn whisper_inference_runs_encoder_and_decoder() {
        with_session(|s| {
            let mut m = whisper_small(s, 1).unwrap();
            let params = s.allocator_stats().allocated;
            assert!(
                params > 700 << 20,
                "Whisper-small ≈ 244M params ≈ 970 MB, got {params}"
            );
            let k0 = s.kernels_launched();
            m.inference_batch(s).unwrap();
            let launched = s.kernels_launched() - k0;
            assert!(launched > 200, "enc+dec should launch plenty: {launched}");
            s.release_workspaces();
            assert_eq!(s.allocator_stats().allocated, params);
            m.destroy(s);
            assert_eq!(s.allocator_stats().allocated, 0);
        });
    }

    #[test]
    fn gpt2_footprint_dominated_by_logits() {
        with_session(|s| {
            let mut m = gpt2(s, 1).unwrap();
            m.inference_batch(s).unwrap();
            let peak = s.allocator_stats().peak_allocated;
            // Logits for batch 1 are 1×1024×50257×4 ≈ 206 MB on top of
            // ~500 MB of parameters.
            assert!(peak > 600 << 20, "peak {peak}");
        });
    }
}
