//! Multi-GPU parallelism: Megatron GPT-2 345M under data, tensor,
//! pipeline (two devices, paper §V-D2, Fig. 15) and expert parallelism
//! (the 64–256-device scale-out workload).
//!
//! Every device is driven over its own [`DeviceLane`] (a framework
//! [`Session`] pinned to one device), so tensor traffic, operator
//! brackets and fine-grained device events from different GPUs really do
//! race into the profiling layer, one hub shard per device. Every
//! strategy runs its lanes through [`lane_exec`] and reports failure by
//! its one rule: every lane runs; a lane's contained panic is the root
//! cause and wins, otherwise the first error in lane order. Independent
//! lanes ride the bounded pool (budget = each lane's
//! [`DeviceLane::set_pool_limit`], stamped by `PastaSession::run_parallel`
//! from its `ParallelConfig`); pipeline parallelism sequences its
//! cross-stage activation handoffs with channels, exactly where a real
//! run would block on send/recv, so its two stages ride a pool exactly
//! two workers wide instead.
//!
//! The strategies shard differently and therefore leave different
//! per-GPU memory signatures:
//!
//! * **Data parallelism** — full replicas on both GPUs, gradients
//!   all-reduced: identical memory curves, full peak on each.
//! * **Tensor parallelism** — attention heads and FFN columns split
//!   (Megatron column/row parallel linear layers): identical curves at
//!   roughly half the peak.
//! * **Pipeline parallelism** — the block stack split at the midpoint;
//!   GPU 1 additionally runs the final layer norm, the (large) logits
//!   projection and the loss, producing the asymmetric tail of Fig. 15c.
//! * **Expert parallelism** — a replicated dense trunk with each lane
//!   hosting its own expert group; per-layer all-to-all token
//!   dispatch/combine priced over the peer matrix. Lanes stay fully
//!   independent (uniform routing), which is what lets EP scale to 256
//!   lanes on the bounded pool.

use crate::callbacks::Pass;
use crate::dtype::DType;
use crate::lane_exec::{self, drive_lanes, LaneSchedule};
use crate::layers::{LayerNorm, Param};
use crate::models::transformer::{block_stack, build_lm, head, loss_backward, Embedding, LmDims};
use crate::models::{ModelSpec, Workload};
use crate::ops::{self, Act, Kernel};
use crate::session::Session;
use accel_sim::{AccelError, DeviceId, Dim3};
use std::sync::atomic::AtomicUsize;
use std::sync::{mpsc, Arc};

/// One lane of a multi-device parallel run: a framework session pinned to
/// one device, drivable from its own OS thread. Lanes over distinct
/// devices emit into distinct hub shards upstream, so driving them
/// concurrently contends on nothing.
pub struct DeviceLane<'rt> {
    device: DeviceId,
    /// The lane's framework session (current device = [`DeviceLane::device`]).
    pub session: Session<'rt>,
    /// Worker budget for pooled schedules (`0` = available parallelism).
    pool_limit: usize,
    /// Where pooled schedules fold their per-pool high-water mark
    /// (`fetch_max`), when an owner wants to observe peak lane
    /// concurrency.
    pool_watermark: Option<Arc<AtomicUsize>>,
}

impl std::fmt::Debug for DeviceLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceLane")
            .field("device", &self.device)
            .finish()
    }
}

impl<'rt> DeviceLane<'rt> {
    /// Pins `session`'s runtime to `device` and wraps it as a lane.
    ///
    /// # Errors
    ///
    /// Propagates `set_device` failure for a device the runtime does not
    /// have.
    pub fn pin(device: DeviceId, mut session: Session<'rt>) -> Result<Self, AccelError> {
        session.runtime_mut().set_device(device)?;
        Ok(DeviceLane {
            device,
            session,
            pool_limit: 0,
            pool_watermark: None,
        })
    }

    /// The device this lane drives.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Caps the worker pool the threaded lane schedules may use when this
    /// lane is driven together with others (`0` = available parallelism).
    /// `PastaSession::run_parallel` stamps every lane with the session's
    /// `ParallelConfig::max_lane_threads`, so `train_iter`-style drivers
    /// inherit the session's scale-out budget without a config parameter.
    pub fn set_pool_limit(&mut self, max_threads: usize) {
        self.pool_limit = max_threads;
    }

    /// The pooled-schedule worker budget (`0` = available parallelism).
    pub(crate) fn pool_limit(&self) -> usize {
        self.pool_limit
    }

    /// Arranges for pooled lane schedules ([`lane_exec::run_pool`] via
    /// `drive_lanes`) to fold their per-pool high-water mark into
    /// `watermark` with a `fetch_max`. `PastaSession::run_parallel`
    /// stamps every lane with one shared counter so the session can
    /// report peak lane concurrency per session, immune to other
    /// sessions' pools.
    pub fn set_pool_watermark(&mut self, watermark: Arc<AtomicUsize>) {
        self.pool_watermark = Some(watermark);
    }

    /// The stamped pool-high-water observer, if any.
    pub fn pool_watermark(&self) -> Option<&Arc<AtomicUsize>> {
        self.pool_watermark.as_ref()
    }
}

/// Parallelization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Replicated model, all-reduced gradients (DP).
    Data,
    /// Megatron tensor (intra-layer) parallelism (TP).
    Tensor,
    /// Pipeline (inter-layer) parallelism (PP).
    Pipeline,
    /// Mixture-of-experts expert parallelism (EP): experts sharded one
    /// group per lane, tokens routed with all-to-all exchanges.
    Expert,
}

impl Parallelism {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Parallelism::Data => "data-parallel",
            Parallelism::Tensor => "tensor-parallel",
            Parallelism::Pipeline => "pipeline-parallel",
            Parallelism::Expert => "expert-parallel",
        }
    }
}

/// Megatron GPT-2 345M dimensions (24 layers, d=1024, 16 heads).
pub(crate) fn megatron_345m_dims() -> LmDims {
    LmDims {
        d: 1024,
        heads: 16,
        ffn: 4096,
        vocab: 50257,
        seq: 1024,
        layers: 24,
    }
}

/// Per-device outcome of a parallel training iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelReport {
    /// Strategy executed.
    pub strategy: Parallelism,
    /// Peak live tensor bytes per device (lane order).
    pub peak_allocated: Vec<u64>,
    /// Peak reserved (footprint) bytes per device.
    pub peak_reserved: Vec<u64>,
    /// Kernels launched per device.
    pub launches: Vec<u64>,
}

/// One lane's contribution to a [`ParallelReport`], captured on the
/// lane's own thread.
#[derive(Debug, Clone, Copy, Default)]
struct LaneStats {
    peak_allocated: u64,
    peak_reserved: u64,
    launches: u64,
}

fn lane_stats(lane: &DeviceLane<'_>) -> LaneStats {
    let alloc = lane.session.allocator_stats_for(lane.device);
    LaneStats {
        peak_allocated: alloc.peak_allocated,
        peak_reserved: alloc.peak_reserved,
        launches: lane.session.runtime().stats(lane.device).launches,
    }
}

fn report(strategy: Parallelism, stats: Vec<LaneStats>) -> ParallelReport {
    ParallelReport {
        strategy,
        peak_allocated: stats.iter().map(|s| s.peak_allocated).collect(),
        peak_reserved: stats.iter().map(|s| s.peak_reserved).collect(),
        launches: stats.iter().map(|s| s.launches).collect(),
    }
}

fn megatron_spec() -> ModelSpec {
    ModelSpec {
        name: "Megatron GPT-2 345M",
        abbr: "GPT2-345M",
        layers: 24,
        batch: 4,
    }
}

fn require_lanes(lanes: &[DeviceLane<'_>], n: usize, strategy: &str) -> Result<(), AccelError> {
    if lanes.len() < n {
        return Err(AccelError::Config(format!(
            "{strategy} needs at least {n} device lanes, got {}",
            lanes.len()
        )));
    }
    Ok(())
}

fn data_parallel(
    lanes: &mut [DeviceLane<'_>],
    batch: usize,
    schedule: LaneSchedule,
) -> Result<ParallelReport, AccelError> {
    require_lanes(lanes, 2, "data parallelism")?;
    let dims = megatron_345m_dims();
    let stats = drive_lanes(lanes, schedule, |_i, lane| {
        let s = &mut lane.session;
        let mut replica = build_lm(s, megatron_spec(), dims, batch, "megatron/pretrain_gpt2.py")?;
        // Persistent DDP gradient bucket (the long-lived communication
        // tensor the paper notes in §V-D2).
        let bucket_elems = (32 << 20) / 4; // 32 MiB buckets
        let bucket = s.alloc_tensor(&[bucket_elems], DType::F32)?;
        replica.training_iter(s)?;
        // All-reduce the gradients bucket by bucket.
        let n_buckets = replica.param_bytes().div_ceil(32 << 20);
        for _ in 0..n_buckets {
            ops::allreduce(s, &bucket)?;
        }
        let stats = lane_stats(lane);
        let s = &mut lane.session;
        replica.destroy(s);
        s.free_tensor(&bucket);
        Ok(stats)
    })?;
    Ok(report(Parallelism::Data, stats))
}

fn tensor_parallel(
    lanes: &mut [DeviceLane<'_>],
    batch: usize,
    schedule: LaneSchedule,
) -> Result<ParallelReport, AccelError> {
    require_lanes(lanes, 2, "tensor parallelism")?;
    let dims = megatron_345m_dims();
    // Each shard keeps half the heads/FFN and half the vocabulary.
    let shard_dims = LmDims {
        heads: dims.heads / 2,
        ffn: dims.ffn / 2,
        vocab: dims.vocab / 2,
        ..dims
    };
    // The replicated parameters' home copy lives on the lowest-id lane
    // actually in the run — deterministic for every lane, and correct
    // for lane sets that do not include device 0.
    let replica_owner = lanes
        .iter()
        .map(DeviceLane::device)
        .min()
        .expect("lane count checked above");
    let stats = drive_lanes(lanes, schedule, |_i, lane| {
        let s = &mut lane.session;
        let mut shard = build_lm(
            s,
            megatron_spec(),
            shard_dims,
            batch,
            "megatron/pretrain_gpt2.py",
        )?;
        // Megatron replicates the positional embeddings and layer norms
        // on every TP rank. Under a managed-memory session, model the
        // replica as one *shared* managed range: the lowest-id lane owns
        // the home copy (demand-faults it from the host), every other
        // rank read-duplicates it over the peer link, and the iteration
        // never writes it — replicated parameters update identically on
        // each rank at optimizer time, outside this window. Lanes
        // allocate in lockstep, so the range lands at the same managed
        // address on every lane and the registrations rendezvous in the
        // coherence directory. Sessions without UVM skip the
        // registration and the read costs nothing extra.
        let replicated = s.alloc_tensor(&[dims.seq, dims.d], DType::F32)?;
        if let Some(res) = s.runtime_mut().residency_mut() {
            res.register_shared(replicated.ptr.addr(), replicated.bytes, replica_owner);
        }
        // The fallible middle runs in a closure so the shared
        // registration is torn down even on error: the coherence
        // directory outlives this lane (it is Arc-shared), and a stale
        // entry keyed by a reusable allocator address would wrongly mark
        // a later unrelated allocation as shared.
        let mut iter = |s: &mut Session<'_>| -> Result<(), AccelError> {
            Kernel::with_grid(
                "megatron_replicated_param_read",
                Dim3::linear(64),
                Dim3::linear(128),
            )
            .load(&replicated)
            .launch(s)?;
            shard.training_iter(s)?;
            // Activation all-reduces: two per layer (after attention and
            // after the MLP), on [batch, seq, d] activations.
            let act = s.alloc_tensor(&[batch, dims.seq, dims.d], DType::F32)?;
            for _ in 0..2 * dims.layers {
                ops::allreduce(s, &act)?;
            }
            s.free_tensor(&act);
            Ok(())
        };
        let result = iter(s);
        if let Some(res) = s.runtime_mut().residency_mut() {
            res.unregister_shared(replicated.ptr.addr());
        }
        s.free_tensor(&replicated);
        result?;
        let stats = lane_stats(lane);
        shard.destroy(&mut lane.session);
        Ok(stats)
    })?;
    Ok(report(Parallelism::Tensor, stats))
}

/// Expert-parallel (MoE) workload configuration: the dense trunk's
/// dimensions plus how many experts each lane hosts. The expert count is
/// `lanes × experts_per_lane` — scale-out comes from adding lanes, which
/// is what drives the executor at 64–256 devices.
#[derive(Debug, Clone)]
pub struct MoeConfig {
    /// Dense trunk dimensions (embeddings, attention, per-expert FFN
    /// width); `dims.layers` MoE layers, each with one all-to-all
    /// dispatch/combine round trip per pass.
    pub dims: LmDims,
    /// Experts hosted per lane (≥ 1).
    pub experts_per_lane: usize,
}

impl MoeConfig {
    /// The Megatron GPT-2 345M trunk with two experts per lane — the
    /// full-size variant of the paper-scale experiments.
    pub(crate) fn megatron_345m() -> MoeConfig {
        MoeConfig {
            dims: megatron_345m_dims(),
            experts_per_lane: 2,
        }
    }

    /// A deliberately tiny trunk for many-lane (64–256 device) tests and
    /// benches, where per-lane compute should not drown the scheduling
    /// and routing behavior under measurement.
    pub fn tiny() -> MoeConfig {
        MoeConfig {
            dims: LmDims {
                d: 64,
                heads: 2,
                ffn: 128,
                vocab: 512,
                seq: 32,
                layers: 2,
            },
            experts_per_lane: 1,
        }
    }
}

fn moe_spec(layers: usize, batch: usize) -> ModelSpec {
    ModelSpec {
        name: "Megatron MoE GPT-2",
        abbr: "GPT2-MoE",
        layers,
        batch,
    }
}

/// [`train_iter`]'s expert-parallel iteration with an explicit
/// [`MoeConfig`] (`train_iter` uses `MoeConfig::megatron_345m`) — the
/// entry the 64–256-lane scale tests and the `scale_out` bench drive.
///
/// # Errors
///
/// Propagates allocation/launch failures; requires ≥ 2 lanes and ≥ 1
/// expert per lane.
pub fn train_iter_expert_parallel_with(
    lanes: &mut [DeviceLane<'_>],
    batch: usize,
    cfg: &MoeConfig,
) -> Result<ParallelReport, AccelError> {
    expert_parallel(lanes, batch, cfg, LaneSchedule::Threaded)
}

/// The lane-at-a-time sequential reference for
/// [`train_iter_expert_parallel_with`]: identical per-lane streams on the
/// calling thread — the byte-identity oracle for pooled MoE runs.
///
/// # Errors
///
/// Propagates allocation/launch failures; requires ≥ 2 lanes and ≥ 1
/// expert per lane.
pub fn train_iter_expert_sequential_reference_with(
    lanes: &mut [DeviceLane<'_>],
    batch: usize,
    cfg: &MoeConfig,
) -> Result<ParallelReport, AccelError> {
    expert_parallel(lanes, batch, cfg, LaneSchedule::Sequential)
}

/// The expert-parallel iteration: a replicated dense trunk (embeddings,
/// attention, norms — data-parallel over the batch) whose per-block FFN
/// stands for the lane's local expert group, plus the MoE routing
/// traffic: per layer, a router gate over the activations and an
/// all-to-all dispatch/combine pair, mirrored again for the backward
/// pass, with the token slices priced over the peer matrix
/// ([`ops::all_to_all`]). Routing is uniform (`tokens / world` per
/// peer), so every lane's stream depends only on its own inputs — lanes
/// never block on each other (pool-safe at any worker count) and the
/// sequential schedule reproduces the exact per-device streams.
fn expert_parallel(
    lanes: &mut [DeviceLane<'_>],
    batch: usize,
    cfg: &MoeConfig,
    schedule: LaneSchedule,
) -> Result<ParallelReport, AccelError> {
    require_lanes(lanes, 2, "expert parallelism")?;
    if cfg.experts_per_lane == 0 {
        return Err(AccelError::Config(
            "expert parallelism needs at least one expert per lane".into(),
        ));
    }
    let world = lanes.len();
    let dims = cfg.dims;
    let experts_total = world * cfg.experts_per_lane;
    let stats = drive_lanes(lanes, schedule, |_i, lane| {
        let s = &mut lane.session;
        let mut replica = build_lm(
            s,
            moe_spec(dims.layers, batch),
            dims,
            batch,
            "megatron/pretrain_moe_gpt2.py",
        )?;
        // One replicated [experts_total, d] router gate.
        let router_w = s.alloc_tensor(&[experts_total, dims.d], DType::F32)?;
        replica.training_iter(s)?;
        let act = s.alloc_tensor(&[batch, dims.seq, dims.d], DType::F32)?;
        // Forward: route, dispatch tokens to their experts, combine the
        // expert outputs — once per MoE layer.
        for _ in 0..dims.layers {
            let logits = ops::linear(s, &act, &router_w, None, Act::None)?;
            s.free_tensor(&logits);
            ops::all_to_all(s, &act, world)?;
            ops::all_to_all(s, &act, world)?;
        }
        // Backward retraces the exchanges in reverse (gradient combine,
        // then gradient dispatch) — same volume over the same links.
        for _ in 0..dims.layers {
            ops::all_to_all(s, &act, world)?;
            ops::all_to_all(s, &act, world)?;
        }
        // Replicated (non-expert) gradients all-reduce like DP; expert
        // gradients stay local to their owning lane.
        ops::allreduce(s, &act)?;
        ops::allreduce(s, &router_w)?;
        let stats = lane_stats(lane);
        let s = &mut lane.session;
        replica.destroy(s);
        s.free_tensor(&act);
        s.free_tensor(&router_w);
        Ok(stats)
    })?;
    Ok(report(Parallelism::Expert, stats))
}

/// The front pipeline stage: the embeddings plus blocks 0–11.
fn pipeline_stage0(
    lane: &mut DeviceLane<'_>,
    batch: usize,
    fwd_sent: mpsc::Sender<()>,
    bwd_ready: mpsc::Receiver<()>,
) -> Result<LaneStats, AccelError> {
    // Imported per stage: at module scope its `destroy` and `param_bytes`
    // would clash with `Workload`'s on the replicas above.
    use crate::layers::Params;
    let dims = megatron_345m_dims();
    let s = &mut lane.session;
    let mut emb = Embedding::new(s, &dims)?;
    let mut blocks = block_stack(s, "h", 0..dims.layers / 2, &dims)?;

    // ---- Forward ---------------------------------------------------------
    s.pass_boundary(Pass::Forward);
    let (idx, x0) = emb.embed(s, batch)?;
    let boundary = blocks.forward(s, x0, true)?;
    ops::send_recv(s, &boundary)?;
    // Activation handed to stage 1; its backward will signal us back.
    let _ = fwd_sent.send(());

    // ---- Backward (waits for stage 1's gradient send-back) ---------------
    bwd_ready
        .recv()
        .map_err(|_| AccelError::Config("pipeline peer vanished before backward".into()))?;
    let g_recv = s.alloc_tensor(&[batch, dims.seq, dims.d], DType::F32)?;
    ops::send_recv(s, &g_recv)?;
    let g_x0 = blocks.backward(s, g_recv)?;
    s.free_tensor(&boundary);
    emb.backward(s, idx, g_x0)?;

    // ---- Optimizer --------------------------------------------------------
    s.pass_boundary(Pass::Optimizer);
    emb.step(s)?;
    blocks.step(s)?;

    let stats = lane_stats(lane);
    emb.destroy(&mut lane.session);
    blocks.destroy(&mut lane.session);
    Ok(stats)
}

/// The back pipeline stage: blocks 12–23, final norm, logits
/// head and the loss.
fn pipeline_stage1(
    lane: &mut DeviceLane<'_>,
    batch: usize,
    fwd_ready: mpsc::Receiver<()>,
    bwd_sent: mpsc::Sender<()>,
) -> Result<LaneStats, AccelError> {
    use crate::layers::Params;
    let dims = megatron_345m_dims();
    let s = &mut lane.session;
    let mut blocks = block_stack(s, "h", dims.layers / 2..dims.layers, &dims)?;
    let mut ln_f = LayerNorm::new(s, dims.d)?;
    let mut head_w = Param::new(s, &[dims.vocab, dims.d])?;

    // ---- Forward + loss + backward (gated on stage 0's activation) -------
    fwd_ready
        .recv()
        .map_err(|_| AccelError::Config("pipeline peer vanished before forward".into()))?;
    let recv = s.alloc_tensor(&[batch, dims.seq, dims.d], DType::F32)?;
    ops::send_recv(s, &recv)?;
    let h1 = blocks.forward(s, recv, true)?;
    let (hl, logits) = head(s, &mut ln_f, &head_w, &h1, true)?;
    let g_h1 = loss_backward(s, &mut ln_f, &head_w, &h1, hl, logits)?;
    let g_boundary = blocks.backward(s, g_h1)?;
    s.free_tensor(&h1);
    ops::send_recv(s, &g_boundary)?;
    s.free_tensor(&g_boundary);
    // Gradient sent back to stage 0; it can run its backward now.
    let _ = bwd_sent.send(());

    // ---- Optimizer --------------------------------------------------------
    blocks.step(s)?;
    ln_f.step(s)?;
    head_w.step(s)?;

    let stats = lane_stats(lane);
    blocks.destroy(&mut lane.session);
    ln_f.destroy(&mut lane.session);
    head_w.destroy(&mut lane.session);
    Ok(stats)
}

/// Runs one pipeline-parallel training iteration: blocks 0–11 on the
/// first lane, blocks 12–23 plus the logits head on the second,
/// sequenced by activation/gradient handoff channels.
fn pipeline_parallel(
    lanes: &mut [DeviceLane<'_>],
    batch: usize,
) -> Result<ParallelReport, AccelError> {
    let stats = run_stages(
        lanes,
        |lane, fwd_sent, bwd_ready| pipeline_stage0(lane, batch, fwd_sent, bwd_ready),
        |lane, fwd_ready, bwd_sent| pipeline_stage1(lane, batch, fwd_ready, bwd_sent),
    )?;
    Ok(report(Parallelism::Pipeline, stats))
}

/// Runs a two-stage pipeline on the first two lanes: `front` gets the
/// forward handoff's sender and the backward handoff's receiver, `back`
/// the other ends. The stages block on each other's handoffs, so they
/// ride a pool exactly two workers wide whatever the lanes' pool limit —
/// a narrower pool would strand a stage behind its unscheduled peer. A
/// stage that dies drops its channel ends, so its peer fails with
/// "pipeline peer vanished"; the lane executor's precedence rule reports
/// the panic instead.
fn run_stages<'l, T, F0, F1>(
    lanes: &'l mut [DeviceLane<'_>],
    front: F0,
    back: F1,
) -> Result<Vec<T>, AccelError>
where
    T: Send,
    F0: FnOnce(&mut DeviceLane<'_>, mpsc::Sender<()>, mpsc::Receiver<()>) -> Result<T, AccelError>
        + Send
        + 'l,
    F1: FnOnce(&mut DeviceLane<'_>, mpsc::Receiver<()>, mpsc::Sender<()>) -> Result<T, AccelError>
        + Send
        + 'l,
{
    require_lanes(lanes, 2, "pipeline parallelism")?;
    let (fwd_tx, fwd_rx) = mpsc::channel::<()>();
    let (bwd_tx, bwd_rx) = mpsc::channel::<()>();
    let [lane0, lane1, ..] = lanes else {
        unreachable!("length checked above");
    };
    let tasks = vec![
        lane_exec::PoolTask {
            device: lane0.device(),
            run: Box::new(move || front(lane0, fwd_tx, bwd_rx)),
        },
        lane_exec::PoolTask {
            device: lane1.device(),
            run: Box::new(move || back(lane1, fwd_rx, bwd_tx)),
        },
    ];
    lane_exec::settle(lane_exec::run_pool(2, tasks, None).results)
}

/// Dispatches one training iteration under `strategy`, independent lanes
/// multiplexed onto the bounded lane pool.
///
/// # Errors
///
/// Propagates allocation/launch failures; requires ≥ 2 lanes (exactly 2
/// are used by tensor and pipeline parallelism).
pub fn train_iter(
    lanes: &mut [DeviceLane<'_>],
    strategy: Parallelism,
    batch: usize,
) -> Result<ParallelReport, AccelError> {
    dispatch(lanes, strategy, batch, LaneSchedule::Threaded)
}

/// The sequential single-device-at-a-time reference for [`train_iter`]:
/// identical per-lane work, driven one lane at a time on the calling
/// thread. Concurrent runs must produce byte-identical merged profiling
/// output to this reference — the determinism contract of the sharded
/// hub and the per-lane UVM forks, and what the UVM-under-parallelism
/// tests pin.
///
/// The contract extends to *read-only shared* managed ranges: the
/// tensor-parallel driver registers its replicated parameters as a
/// shared range (owner = rank 0, never written inside the iteration),
/// and the coherence model classifies remote reads statically (owner
/// demand-faults, everyone else read-duplicates), so each lane's peer
/// traffic depends only on its own stream. Running the lanes
/// sequentially therefore defines the reference semantics for shared
/// ranges too — the `uvm_p2p` differential suite pins concurrent runs
/// byte-identical to it. (Concurrently *written* shared ranges make
/// invalidation effects cross-lane and sit outside the byte-identity
/// contract; the sequential schedule remains their reference.)
///
/// Pipeline parallelism is inherently cross-device sequenced by its
/// activation/gradient handoffs (a lane-at-a-time schedule would
/// deadlock on the channel protocol), so its reference *is* the
/// standard driver, which those handoffs already make deterministic.
///
/// # Errors
///
/// As [`train_iter`].
pub fn train_iter_sequential_reference(
    lanes: &mut [DeviceLane<'_>],
    strategy: Parallelism,
    batch: usize,
) -> Result<ParallelReport, AccelError> {
    dispatch(lanes, strategy, batch, LaneSchedule::Sequential)
}

fn dispatch(
    lanes: &mut [DeviceLane<'_>],
    strategy: Parallelism,
    batch: usize,
    schedule: LaneSchedule,
) -> Result<ParallelReport, AccelError> {
    match strategy {
        Parallelism::Data => data_parallel(lanes, batch, schedule),
        Parallelism::Tensor => tensor_parallel(lanes, batch, schedule),
        Parallelism::Pipeline => pipeline_parallel(lanes, batch),
        Parallelism::Expert => expert_parallel(lanes, batch, &MoeConfig::megatron_345m(), schedule),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    fn two_lanes<T>(f: impl FnOnce(&mut [DeviceLane<'_>]) -> T) -> T {
        let specs = vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()];
        let mut rt0 = CudaContext::new(specs.clone());
        let mut rt1 = CudaContext::new(specs);
        let mut lanes = [
            DeviceLane::pin(DeviceId(0), Session::new(&mut rt0)).unwrap(),
            DeviceLane::pin(DeviceId(1), Session::new(&mut rt1)).unwrap(),
        ];
        f(&mut lanes)
    }

    #[test]
    fn dp_peaks_are_symmetric() {
        two_lanes(|lanes| {
            let r = train_iter(lanes, Parallelism::Data, 1).unwrap();
            let (a, b) = (r.peak_allocated[0], r.peak_allocated[1]);
            let ratio = a as f64 / b as f64;
            assert!(
                (0.95..1.05).contains(&ratio),
                "DP must be symmetric: {a} vs {b}"
            );
        });
    }

    #[test]
    fn tp_halves_the_peak() {
        // Peaks are per-session high-water marks, so each strategy runs in
        // fresh lanes.
        let dp = two_lanes(|lanes| train_iter(lanes, Parallelism::Data, 1).unwrap());
        let tp = two_lanes(|lanes| train_iter(lanes, Parallelism::Tensor, 1).unwrap());
        let ratio = tp.peak_allocated[0] as f64 / dp.peak_allocated[0] as f64;
        assert!(
            (0.35..0.75).contains(&ratio),
            "TP peak should be roughly half of DP: ratio {ratio}"
        );
        // TP stays symmetric across GPUs.
        let sym = tp.peak_allocated[0] as f64 / tp.peak_allocated[1] as f64;
        assert!((0.95..1.05).contains(&sym));
    }

    #[test]
    fn pp_is_asymmetric_with_heavier_tail_gpu() {
        two_lanes(|lanes| {
            let pp = train_iter(lanes, Parallelism::Pipeline, 1).unwrap();
            assert!(
                pp.peak_allocated[1] > pp.peak_allocated[0],
                "GPU1 runs the logits head: {} vs {}",
                pp.peak_allocated[1],
                pp.peak_allocated[0]
            );
        });
    }

    #[test]
    fn all_strategies_clean_up() {
        two_lanes(|lanes| {
            for strategy in [
                Parallelism::Data,
                Parallelism::Tensor,
                Parallelism::Pipeline,
                Parallelism::Expert,
            ] {
                train_iter(lanes, strategy, 1).unwrap();
                for lane in lanes.iter_mut() {
                    lane.session.release_workspaces();
                    assert_eq!(
                        lane.session.allocator_stats_for(lane.device()).allocated,
                        0,
                        "{strategy:?} leaked on {}",
                        lane.device()
                    );
                }
            }
        });
    }

    #[test]
    fn concurrent_runs_are_deterministic() {
        // Two fresh DP runs driven by racing threads must report the same
        // per-device numbers: each lane's stream is deterministic and the
        // lanes never share state.
        let a = two_lanes(|lanes| train_iter(lanes, Parallelism::Data, 1).unwrap());
        let b = two_lanes(|lanes| train_iter(lanes, Parallelism::Data, 1).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_reference_matches_threaded_runs() {
        for strategy in [Parallelism::Data, Parallelism::Tensor, Parallelism::Expert] {
            let threaded = two_lanes(|lanes| train_iter(lanes, strategy, 1).unwrap());
            let sequential =
                two_lanes(|lanes| train_iter_sequential_reference(lanes, strategy, 1).unwrap());
            assert_eq!(
                threaded, sequential,
                "{strategy:?}: lane streams are deterministic, so the \
                 schedule must not change per-device results"
            );
        }
        // Pipeline's reference is the standard driver; it must at least
        // be reproducible run to run.
        let a = two_lanes(|lanes| {
            train_iter_sequential_reference(lanes, Parallelism::Pipeline, 1).unwrap()
        });
        let b = two_lanes(|lanes| train_iter(lanes, Parallelism::Pipeline, 1).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn too_few_lanes_is_a_clear_error() {
        let specs = vec![DeviceSpec::a100_80gb()];
        let mut rt = CudaContext::new(specs);
        let mut lanes = [DeviceLane::pin(DeviceId(0), Session::new(&mut rt)).unwrap()];
        let err = train_iter(&mut lanes, Parallelism::Data, 1).unwrap_err();
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn labels() {
        assert_eq!(Parallelism::Data.label(), "data-parallel");
        assert_eq!(Parallelism::Tensor.label(), "tensor-parallel");
        assert_eq!(Parallelism::Pipeline.label(), "pipeline-parallel");
        assert_eq!(Parallelism::Expert.label(), "expert-parallel");
    }

    #[test]
    fn moe_routes_device_to_device_traffic() {
        // The all-to-all exchanges must show up as explicit copies priced
        // over the peer links — the signature that distinguishes EP from
        // plain DP, whose collectives are pure kernel launches.
        two_lanes(|lanes| {
            let r = train_iter_expert_parallel_with(lanes, 1, &MoeConfig::tiny()).unwrap();
            assert_eq!(r.strategy, Parallelism::Expert);
            assert_eq!(r.launches.len(), 2);
            assert!(r.launches.iter().all(|&l| l > 0));
            for lane in lanes.iter() {
                let stats = lane.session.runtime().stats(lane.device());
                assert!(
                    stats.copies > 0,
                    "all-to-all routed no copies on {}",
                    lane.device()
                );
            }
        });
    }

    /// The pipeline stages ride the lane pool: a back stage that panics
    /// is reported for its own device — not as the front stage's "peer
    /// vanished" that the panic causes — from a thread named after its
    /// lane.
    #[test]
    fn pipeline_stage_panic_is_the_root_cause_on_its_lane_thread() {
        use accel_sim::sync::Mutex;
        let front_err: Mutex<Option<AccelError>> = Mutex::new(None);
        let back_thread: Mutex<Option<String>> = Mutex::new(None);
        let err = two_lanes(|lanes| {
            run_stages(
                lanes,
                |_lane, fwd_sent, bwd_ready| {
                    let _ = fwd_sent.send(());
                    let r = bwd_ready.recv().map_err(|_| {
                        AccelError::Config("pipeline peer vanished before backward".into())
                    });
                    *front_err.lock() = r.clone().err();
                    r
                },
                |_lane, fwd_ready, _bwd_sent| {
                    let _ = fwd_ready.recv();
                    *back_thread.lock() = std::thread::current().name().map(str::to_owned);
                    panic!("fault-injection: back stage dies");
                },
            )
            .unwrap_err()
        });
        match err {
            AccelError::LanePanic { device, payload } => {
                assert_eq!(device, DeviceId(1));
                assert!(payload.contains("back stage dies"), "{payload}");
            }
            other => panic!("expected the back stage's LanePanic, got {other:?}"),
        }
        let front = front_err
            .into_inner()
            .expect("front stage saw its peer vanish");
        assert!(front.to_string().contains("peer vanished"), "{front}");
        assert_eq!(back_thread.into_inner().as_deref(), Some("lane-dev1"));
    }

    /// Drives two lanes under `schedule`: lane 0 fails with an ordinary
    /// error, lane 1 panics. Returns the run's result and how many lanes
    /// ran.
    fn error_then_panic(schedule: LaneSchedule) -> (Result<Vec<()>, AccelError>, usize) {
        use std::sync::atomic::Ordering;
        let ran = AtomicUsize::new(0);
        let result = two_lanes(|lanes| {
            drive_lanes(lanes, schedule, |i, _lane| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    return Err(AccelError::Config("lane 0 fails first".into()));
                }
                panic!("fault-injection: lane 1 dies");
            })
        });
        (result, ran.into_inner())
    }

    /// Regression (ISSUE 25): the pooled schedule reported lane 0's
    /// ordinary error over lane 1's panic, so the root cause never
    /// reached the salvage path.
    #[test]
    fn threaded_lanes_report_a_later_panic_over_an_earlier_error() {
        let (result, ran) = error_then_panic(LaneSchedule::Threaded);
        assert_eq!(ran, 2);
        match result {
            Err(AccelError::LanePanic { device, payload }) => {
                assert_eq!(device, DeviceId(1));
                assert!(payload.contains("lane 1 dies"), "{payload}");
            }
            other => panic!("expected lane 1's LanePanic, got {other:?}"),
        }
    }

    /// Regression (ISSUE 25): the lane-at-a-time schedule stopped at the
    /// first failing lane, so lane 1 never ran and the two schedules
    /// disagreed.
    #[test]
    fn sequential_lanes_all_run_and_fail_like_the_pool() {
        let (sequential, ran) = error_then_panic(LaneSchedule::Sequential);
        assert_eq!(ran, 2, "lane 1 must run although lane 0 failed");
        assert_eq!(sequential, error_then_panic(LaneSchedule::Threaded).0);
    }
}
