//! Transformer models: GPT-2 (decoder), BERT (encoder), Whisper-small
//! (encoder/decoder).
//!
//! GPT-2 and BERT are one `TransformerLm`; Whisper is an LM decoder whose
//! blocks alternate with cross-attention over an audio encoder's memory.
//! They, and the pipeline stages of [`crate::parallel`], are cut from
//! three shared pieces:
//!
//! * `Embedding` — token + positional tables: the embed and its
//!   backward;
//! * `block_stack` — a `Sequential` of `TransformerBlock`s;
//! * `head` and `loss_backward` — the final layer norm and logits
//!   projection, then cross-entropy and the backward through both.

use super::{ModelSpec, Workload};
use crate::callbacks::Pass;
use crate::dtype::DType;
use crate::layers::{
    free_all, Layer, LayerNorm, Linear, Param, Params, Sequential, TransformerBlock,
};
use crate::ops::{self, Act, Attention, AttnGrad, AttnTiles};
use crate::pycall::PyFrame;
use crate::session::Session;
use crate::tensor::Tensor;
use accel_sim::AccelError;
use std::ops::Range;

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

/// Token + positional embedding tables.
pub(crate) struct Embedding {
    /// Token table `[vocab, d]`, also the tied logits projection.
    pub(crate) wte: Param,
    /// Positional table `[seq, d]`.
    wpe: Param,
}

impl Embedding {
    /// Allocates both tables for `dims`.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub(crate) fn new(s: &mut Session<'_>, dims: &LmDims) -> Result<Self, AccelError> {
        Ok(Embedding {
            wte: Param::new(s, &[dims.vocab, dims.d])?,
            wpe: Param::new(s, &[dims.seq, dims.d])?,
        })
    }

    /// Embeds a fresh token batch: returns `(idx, x)` where `x` is the
    /// position-added embedding stream.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub(crate) fn embed(
        &self,
        s: &mut Session<'_>,
        batch: usize,
    ) -> Result<(Tensor, Tensor), AccelError> {
        let (seq, d) = (self.wpe.tensor.shape[0], self.wpe.tensor.shape[1]);
        let idx = s.alloc_tensor(&[batch, seq], DType::I64)?;
        let emb = ops::embedding(s, &self.wte.tensor, &idx)?;
        let x = ops::elementwise(
            s,
            "at::native::vectorized_elementwise_kernel<add_pos>",
            &[&emb, &self.wpe.tensor],
            &[batch, seq, d],
        )?;
        s.free_tensor(&emb);
        Ok((idx, x))
    }

    /// Both tables' gradients from `g_x`, the gradient at the embedding
    /// output; frees `g_x` and `idx`.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub(crate) fn backward(
        &self,
        s: &mut Session<'_>,
        idx: Tensor,
        g_x: Tensor,
    ) -> Result<(), AccelError> {
        let g_wpe = ops::elementwise(
            s,
            "at::native::reduce_kernel<512, ReduceAdd>",
            &[&g_x],
            &self.wpe.tensor.shape,
        )?;
        self.wpe.set_grad(s, g_wpe)?;
        let g_table = ops::embedding_backward(s, &self.wte.tensor, &idx, &g_x)?;
        self.wte.set_grad(s, g_table)?;
        free_all(s, [g_x, idx]);
        Ok(())
    }
}

impl Params for Embedding {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wte);
        f(&self.wpe);
    }
}

/// Blocks `range` of an LM with `dims`, named `{prefix}.{i}`.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn block_stack(
    s: &mut Session<'_>,
    prefix: &str,
    range: Range<usize>,
    dims: &LmDims,
) -> Result<Sequential, AccelError> {
    let mut blocks = Sequential::default();
    for i in range {
        let block = TransformerBlock::new(s, dims.d, dims.heads, dims.ffn)?;
        blocks.push(format!("{prefix}.{i}"), block);
    }
    Ok(blocks)
}

/// The head's forward: `ln_f(h)`, then the logits over `w`. Returns
/// `(hl, logits)`.
///
/// # Errors
///
/// Propagates allocation/launch failures.
pub(crate) fn head(
    s: &mut Session<'_>,
    ln_f: &mut LayerNorm,
    w: &Param,
    h: &Tensor,
    train: bool,
) -> Result<(Tensor, Tensor), AccelError> {
    let hl = ln_f.forward(s, h, train)?;
    let logits = ops::linear(s, &hl, &w.tensor, None, Act::None)?;
    Ok((hl, logits))
}

/// Cross-entropy over the [`head`]'s `logits`, the backward pass's
/// boundary, then back through the projection `w` and `ln_f`. Frees the
/// loss, `logits` and `hl`, and returns the gradient at `h`, which the
/// caller still owns.
///
/// # Errors
///
/// Propagates allocation/launch failures.
pub(crate) fn loss_backward(
    s: &mut Session<'_>,
    ln_f: &mut LayerNorm,
    w: &Param,
    h: &Tensor,
    hl: Tensor,
    logits: Tensor,
) -> Result<Tensor, AccelError> {
    let loss = ops::cross_entropy(s, &logits)?;
    s.free_tensor(&loss);
    s.pass_boundary(Pass::Backward);
    let g_logits = ops::cross_entropy_backward(s, &logits)?;
    let (g_hl, g_w, _) = ops::linear_backward(s, &hl, &w.tensor, &g_logits, false)?;
    w.set_grad(s, g_w)?;
    free_all(s, [g_logits, logits]);
    let g_h = ln_f.backward(s, h, &g_hl)?;
    free_all(s, [g_hl, hl]);
    Ok(g_h)
}

/// A decoder- or encoder-only transformer language model with a tied
/// logits projection.
pub(crate) struct TransformerLm {
    spec: ModelSpec,
    batch: usize,
    emb: Embedding,
    blocks: Sequential,
    ln_f: LayerNorm,
    /// Python entry file used for simulated call stacks.
    py_file: &'static str,
}

/// Training-mode activations the shared forward keeps: `(idx, h, hl)`.
type SavedActivations = Option<(Tensor, Tensor, Tensor)>;

impl TransformerLm {
    /// Runs the shared forward: embeddings → blocks → head. Returns the
    /// logits and, in training, the activations backward needs (in
    /// inference they are already freed).
    fn forward(
        &mut self,
        s: &mut Session<'_>,
        train: bool,
    ) -> Result<(Tensor, SavedActivations), AccelError> {
        s.py_push(PyFrame::new(self.py_file, 146, "forward"));
        let (idx, x) = self.emb.embed(s, self.batch)?;
        let h = self.blocks.forward(s, x, train)?;
        let (hl, logits) = head(s, &mut self.ln_f, &self.emb.wte, &h, train)?;
        s.py_pop();
        if train {
            Ok((logits, Some((idx, h, hl))))
        } else {
            free_all(s, [idx, h, hl]);
            Ok((logits, None))
        }
    }
}

impl Params for TransformerLm {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        self.emb.params(f);
        self.blocks.params(f);
        self.ln_f.params(f);
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        self.blocks.release_saved(s);
    }
}

impl Workload for TransformerLm {
    fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    fn inference_batch(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let (logits, _) = self.forward(s, false)?;
        s.free_tensor(&logits);
        Ok(())
    }

    fn training_iter(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        s.pass_boundary(Pass::Forward);
        let (logits, saved) = self.forward(s, true)?;
        let (idx, h, hl) = saved.expect("training saves activations");
        let g_h = loss_backward(s, &mut self.ln_f, &self.emb.wte, &h, hl, logits)?;
        let g_x = self.blocks.backward(s, g_h)?;
        s.free_tensor(&h);
        self.emb.backward(s, idx, g_x)?;
        s.pass_boundary(Pass::Optimizer);
        self.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        Params::destroy(self, s);
    }

    fn param_bytes(&self) -> u64 {
        Params::param_bytes(self)
    }
}

/// Cross-attention's GEMM tiles.
const XATTN: AttnTiles = AttnTiles {
    qk: "64x64_xattn_qk",
    pv: "64x64_xattn_pv",
    recompute: "64x64_xattn_qk_recompute",
    bwd: "64x64_xattn_bwd",
};

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
    attn: Attention,
    saved: Vec<Tensor>,
}

impl CrossAttention {
    fn new(s: &mut Session<'_>, dim: usize, heads: usize) -> Result<Self, AccelError> {
        Ok(CrossAttention {
            wq: Param::new(s, &[dim, dim])?,
            wkv: Param::new(s, &[2 * dim, dim])?,
            wo: Param::new(s, &[dim, dim])?,
            attn: Attention {
                tiles: XATTN,
                heads,
                d: dim,
            },
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
        s.with_op("aten::cross_attention", |s| {
            let q = ops::linear(s, x, &self.wq.tensor, None, Act::None)?;
            let kv = ops::linear(s, memory, &self.wkv.tensor, None, Act::None)?;
            let (probs, ctx) = self.attn.forward(s, &q, &kv)?;
            let out = ops::linear(s, &ctx, &self.wo.tensor, None, Act::None)?;
            s.free_tensor(&probs);
            if train {
                self.saved = vec![q, kv, ctx];
            } else {
                free_all(s, [q, kv, ctx]);
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

        let (g_ctx, g_wo, _) = ops::linear_backward(s, &ctx, &self.wo.tensor, grad_out, false)?;
        self.wo.set_grad(s, g_wo)?;
        s.free_tensor(&ctx);
        let g_q = self.attn.backward(s, &q, &kv, g_ctx, AttnGrad::Query)?;
        s.free_tensor(&q);
        // Grad through the KV projection lands on the (shared) memory; the
        // encoder path absorbs it, so the memory gradient is dropped here.
        let g_kv = s.alloc_tensor(&kv.shape, DType::F32)?;
        let (g_mem, g_wkv, _) = ops::linear_backward(s, memory, &self.wkv.tensor, &g_kv, false)?;
        self.wkv.set_grad(s, g_wkv)?;
        free_all(s, [g_kv, kv, g_mem]);
        let (gx, g_wq, _) = ops::linear_backward(s, x, &self.wq.tensor, &g_q, false)?;
        self.wq.set_grad(s, g_wq)?;
        s.free_tensor(&g_q);
        Ok(gx)
    }
}

impl Params for CrossAttention {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wq);
        f(&self.wkv);
        f(&self.wo);
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        free_all(s, self.saved.drain(..));
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
        s.free_tensor(&h);
        s.region_end("whisper.encoder");
        Ok(mem)
    }

    /// Approximate encoder backward: replays the block stack in reverse
    /// with a gradient shaped like the memory.
    fn backward(&mut self, s: &mut Session<'_>, mem: &Tensor) -> Result<(), AccelError> {
        let g = s.alloc_tensor(&mem.shape, DType::F32)?;
        let g_in = self.blocks.backward(s, g)?;
        s.free_tensor(&g_in);
        Ok(())
    }
}

impl Params for AudioEncoder {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        self.proj1.params(f);
        self.proj2.params(f);
        self.blocks.params(f);
        self.ln.params(f);
        for c in &self.cross {
            c.params(f);
        }
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        self.blocks.release_saved(s);
        for c in &mut self.cross {
            c.release_saved(s);
        }
    }
}

/// Whisper: an LM decoder whose blocks each feed a cross-attention layer
/// over the audio encoder's memory, driven block by block.
pub(crate) struct Whisper {
    lm: TransformerLm,
    enc: AudioEncoder,
}

impl Params for Whisper {
    fn params(&self, f: &mut dyn FnMut(&Param)) {
        self.lm.params(f);
        self.enc.params(f);
    }

    fn release_saved(&mut self, s: &mut Session<'_>) {
        self.lm.release_saved(s);
        self.enc.release_saved(s);
    }
}

impl Workload for Whisper {
    fn spec(&self) -> &ModelSpec {
        &self.lm.spec
    }

    /// Encodes audio, then runs the decoder blocks by hand so each
    /// cross-attention layer reads the encoder memory.
    fn inference_batch(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let (lm, enc) = (&mut self.lm, &mut self.enc);
        let mem = enc.encode(s, lm.batch, false)?;
        let (idx, mut x) = lm.emb.embed(s, lm.batch)?;
        s.free_tensor(&idx);
        let decoder = lm.blocks.layers_mut().zip(&mut enc.cross);
        for (i, (block, cross)) in decoder.enumerate() {
            s.layer_boundary(&format!("decoder.{i}"), i);
            let y = block.forward(s, &x, false)?;
            block.release_saved(s);
            s.free_tensor(&x);
            let z = cross.forward(s, &y, &mem, false)?;
            s.free_tensor(&y);
            x = z;
        }
        let hl = lm.ln_f.forward(s, &x, false)?;
        s.free_tensor(&x);
        let logits = ops::linear(s, &hl, &lm.emb.wte.tensor, None, Act::None)?;
        free_all(s, [hl, logits, mem]);
        Ok(())
    }

    /// The same decoder walk with activations kept, then back through
    /// the cross-attention and self-attention blocks in reverse.
    fn training_iter(&mut self, s: &mut Session<'_>) -> Result<(), AccelError> {
        let (lm, enc) = (&mut self.lm, &mut self.enc);
        s.pass_boundary(Pass::Forward);
        let mem = enc.encode(s, lm.batch, true)?;
        let (idx, mut x) = lm.emb.embed(s, lm.batch)?;
        // acts[i] = (input to block i, input to cross i).
        let mut acts: Vec<(Tensor, Tensor)> = Vec::new();
        for (block, cross) in lm.blocks.layers_mut().zip(&mut enc.cross) {
            let y = block.forward(s, &x, true)?;
            let z = cross.forward(s, &y, &mem, true)?;
            acts.push((x, y));
            x = z;
        }
        let h = x;
        let (hl, logits) = head(s, &mut lm.ln_f, &lm.emb.wte, &h, true)?;
        let mut grad = loss_backward(s, &mut lm.ln_f, &lm.emb.wte, &h, hl, logits)?;
        s.free_tensor(&h);
        let decoder = lm.blocks.layers_mut().zip(&mut enc.cross);
        for (block, cross) in decoder.rev() {
            let (x_in, y_in) = acts.pop().expect("activation pair");
            let g_y = cross.backward(s, &y_in, &mem, &grad)?;
            free_all(s, [grad, y_in]);
            let g_x = block.backward(s, &x_in, &g_y)?;
            free_all(s, [g_y, x_in]);
            grad = g_x;
        }
        lm.emb.backward(s, idx, grad)?;
        enc.backward(s, &mem)?;
        s.free_tensor(&mem);
        s.pass_boundary(Pass::Optimizer);
        self.step(s)
    }

    fn destroy(&mut self, s: &mut Session<'_>) {
        Params::destroy(self, s);
    }

    fn param_bytes(&self) -> u64 {
        Params::param_bytes(self)
    }
}

/// Builds a transformer LM from explicit dimensions: the zoo's GPT-2 and
/// BERT, Whisper's decoder, and the multi-GPU runners' replicas and
/// shards (Megatron GPT-2 345M).
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn build_lm(
    s: &mut Session<'_>,
    spec: ModelSpec,
    dims: LmDims,
    batch: usize,
    py_file: &'static str,
) -> Result<TransformerLm, AccelError> {
    Ok(TransformerLm {
        batch,
        emb: Embedding::new(s, &dims)?,
        blocks: block_stack(s, "h", 0..dims.layers, &dims)?,
        ln_f: LayerNorm::new(s, dims.d)?,
        spec,
        py_file,
    })
}

/// The base-size dimensions GPT-2, BERT and Whisper-small share: 12
/// blocks, d=768, 12 heads.
fn base_dims(vocab: usize, seq: usize) -> LmDims {
    LmDims {
        d: 768,
        heads: 12,
        ffn: 3072,
        vocab,
        seq,
        layers: 12,
    }
}

/// GPT-2 (124M): 12 decoder blocks, d=768, 12 heads, seq 1024, batch 8.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn gpt2(s: &mut Session<'_>, spec: ModelSpec) -> Result<TransformerLm, AccelError> {
    let batch = spec.batch;
    build_lm(
        s,
        spec,
        base_dims(50257, 1024),
        batch,
        "models/gpt2/run_gpt2.py",
    )
}

/// BERT-base: 12 encoder blocks, d=768, seq 128, batch 16.
///
/// # Errors
///
/// Propagates allocator out-of-memory.
pub(crate) fn bert(s: &mut Session<'_>, spec: ModelSpec) -> Result<TransformerLm, AccelError> {
    let batch = spec.batch;
    build_lm(
        s,
        spec,
        base_dims(30522, 128),
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
pub(crate) fn whisper_small(s: &mut Session<'_>, spec: ModelSpec) -> Result<Whisper, AccelError> {
    let (dims, batch) = (base_dims(51865, 128), spec.batch);
    let lm = build_lm(s, spec, dims, batch, "models/whisper/run_whisper.py")?;
    let blocks = block_stack(s, "enc", 0..dims.layers, &dims)?;
    let cross = (0..dims.layers)
        .map(|_| CrossAttention::new(s, dims.d, dims.heads))
        .collect::<Result<_, _>>()?;
    let enc = AudioEncoder {
        proj1: Linear::new(s, 80, dims.d, true, Act::Gelu)?,
        proj2: Linear::new(s, dims.d, dims.d, true, Act::Gelu)?,
        blocks,
        ln: LayerNorm::new(s, dims.d)?,
        frames: 1500,
        mel: 80,
        cross,
    };
    Ok(Whisper { lm, enc })
}

#[cfg(test)]
mod tests {
    use super::{bert, gpt2, whisper_small, ModelSpec, Session, Workload};
    use crate::models::ModelZoo;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    fn with_session<T>(f: impl FnOnce(&mut Session<'_>) -> T) -> T {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut s = Session::new(&mut rt);
        f(&mut s)
    }

    fn at(zoo: ModelZoo, batch: usize) -> ModelSpec {
        ModelSpec {
            batch,
            ..zoo.spec()
        }
    }

    #[test]
    fn bert_inference_cleans_up() {
        with_session(|s| {
            let mut m = bert(s, at(ModelZoo::Bert, 2)).unwrap();
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
            let mut m = gpt2(s, at(ModelZoo::Gpt2, 1)).unwrap();
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
            let mut m = whisper_small(s, at(ModelZoo::Whisper, 1)).unwrap();
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
            let mut m = gpt2(s, at(ModelZoo::Gpt2, 1)).unwrap();
            m.inference_batch(s).unwrap();
            let peak = s.allocator_stats().peak_allocated;
            // Logits for batch 1 are 1×1024×50257×4 ≈ 206 MB on top of
            // ~500 MB of parameters.
            assert!(peak > 600 << 20, "peak {peak}");
        });
    }
}
