//! LLM inference serving: continuous batching over paged, managed KV
//! caches.
//!
//! Every other workload in this crate is a training iteration; this
//! module is the inference-*serving* regime the ROADMAP's north star
//! ("millions of users, heavy traffic") actually lives in. A seeded
//! request stream — deterministic arrival process, mixed prompt and
//! decode lengths — is sharded statically across 1–8 device lanes
//! (`request.id % lanes`) and each lane runs a continuous-batching
//! scheduler:
//!
//! * **Admission**: arrivals queue at their arrival step and are
//!   admitted in order as batch slots (`max_batch`) free up; the queue
//!   wait is part of the request's time-to-first-token.
//! * **Prefill**: an admitted request's prompt KV is written into
//!   **managed KV pages** allocated directly from the runtime's managed
//!   space (`malloc_managed`, so each page registers with the UVM
//!   residency model and unregisters when the conversation retires —
//!   real registration/teardown churn, not allocator cache reuse).
//!   TTFT is stamped when the prefill kernel completes.
//! * **Decode**: each step appends [`LmDims::kv_bytes_per_token`] to the
//!   request's cache (growing onto fresh pages as they fill) and
//!   launches an attention kernel that reads the request's *entire*
//!   cache — so a conversation paged out while it sat cold pays demand
//!   faults to come back, exactly the pricing
//!   `examples/uvm_oversubscription.rs` applies to training tensors.
//! * **Weights**: one shared read-only weight range per lane
//!   ([`LmDims::param_bytes`]), registered as a *shared* managed range
//!   owned by the lowest-id lane — sibling lanes read-duplicate it over
//!   the peer link, and once KV growth oversubscribes `budget_bytes`
//!   the evicted duplicates re-travel that link, so the peer curve
//!   climbs with offered load.
//!
//! **Latency accounting** is in virtual nanoseconds: each lane folds its
//! launches' simulated durations (UVM stall included — the engine adds
//! it to `LaunchRecord::end`) into a lane clock; TTFT is the clock delta
//! from arrival to prefill completion, and a decode-step sample is the
//! step's shared weight-read duration plus the request's own attention
//! duration.
//!
//! **Determinism**: lanes only touch their own requests and their own
//! session/engine, so the pooled schedule ([`serve`]) is byte-identical
//! to the lane-at-a-time reference ([`serve_sequential_reference`]) —
//! the same contract `train_iter_sequential_reference` pins for
//! training, extended here to the serving scheduler and pinned by
//! `tests/serving.rs`.

use crate::dtype::DType;
use crate::lane_exec::{drive_lanes, LaneSchedule};
use crate::models::transformer::LmDims;
use crate::parallel::DeviceLane;
use accel_sim::kernel::KernelArg;
use accel_sim::{AccelError, AccessSpec, DeviceId, DevicePtr, Dim3, KernelBody, KernelDesc};
use std::collections::VecDeque;

/// The serving scenario: request mix, arrival process, batching limits
/// and the model served. Everything is seeded — the same config always
/// produces the same [`RequestTrace`] and therefore the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Seed for the request trace (arrivals, prompt/decode lengths).
    pub seed: u64,
    /// Total requests across all lanes.
    pub requests: usize,
    /// Mean scheduler steps between consecutive arrivals — the offered
    /// load knob. Gaps are drawn uniformly from `[0, 2·mean]`, so `0`
    /// means every request arrives at step 0 (peak load).
    pub mean_interarrival_steps: u64,
    /// Inclusive prompt-length range, tokens.
    pub prompt_tokens: (u32, u32),
    /// Inclusive decode-length range, tokens (≥ 1: a request that
    /// decodes nothing has no first token to time).
    pub decode_tokens: (u32, u32),
    /// Continuous-batching slots per lane; arrivals beyond this queue.
    pub max_batch: usize,
    /// Model dimensions: sizes the shared weight range and the
    /// per-token KV growth.
    pub dims: LmDims,
    /// KV dtype (serving engines typically cache in half precision).
    pub kv_dtype: DType,
    /// Tokens per managed KV page — the paging granularity of the cache.
    pub kv_page_tokens: u32,
}

impl ServingConfig {
    /// A small but oversubscribable scenario: 16 MiB of weights
    /// (`param_bytes(F32)` — 256 UVM pages, read whole once per scheduler
    /// step), ≤ 768 KiB of KV per request, 64 requests. With
    /// `budget_bytes` a little above the weights — `examples/serving.rs`
    /// and the benchmark use 9/8 of them, 18 MiB per device — the KV
    /// growth of a loaded lane evicts cold conversations and weight pages
    /// alike.
    pub fn small() -> ServingConfig {
        ServingConfig {
            seed: 0x5eed_cafe,
            requests: 64,
            mean_interarrival_steps: 2,
            prompt_tokens: (32, 128),
            decode_tokens: (16, 64),
            max_batch: 8,
            dims: LmDims {
                d: 256,
                heads: 4,
                ffn: 1024,
                vocab: 4096,
                seq: 256,
                layers: 4,
            },
            kv_dtype: DType::F16,
            kv_page_tokens: 32,
        }
    }

    /// A deliberately tiny scenario for tests: small enough to run in
    /// milliseconds, still big enough to oversubscribe a sub-MiB budget.
    pub fn tiny() -> ServingConfig {
        ServingConfig {
            seed: 7,
            requests: 24,
            mean_interarrival_steps: 1,
            prompt_tokens: (8, 32),
            decode_tokens: (4, 16),
            max_batch: 4,
            dims: LmDims {
                d: 64,
                heads: 2,
                ffn: 128,
                vocab: 512,
                seq: 64,
                layers: 2,
            },
            kv_dtype: DType::F16,
            kv_page_tokens: 16,
        }
    }

    /// Managed bytes one KV page spans.
    pub fn kv_page_bytes(&self) -> u64 {
        u64::from(self.kv_page_tokens) * self.dims.kv_bytes_per_token(self.kv_dtype)
    }

    /// Rejects the field values the scheduler cannot run — every field is
    /// `pub`, so they are reachable: a zero-token KV page never fills (the
    /// cache would grow by empty pages forever), a zero-slot batch admits
    /// nothing, and a reversed or zero-based token range has no sample.
    /// [`serve`] and [`serve_sequential_reference`] check once, up front.
    ///
    /// # Errors
    ///
    /// [`AccelError::Config`] naming the field and its value.
    pub fn validate(&self) -> Result<(), AccelError> {
        let (prompt, decode) = (self.prompt_tokens, self.decode_tokens);
        let problem = if self.kv_page_tokens == 0 {
            "kv_page_tokens = 0: a KV page must hold at least one token".into()
        } else if self.max_batch == 0 {
            "max_batch = 0: no request could ever be admitted".into()
        } else if prompt.0 > prompt.1 {
            format!("prompt_tokens = {prompt:?}: the range is (min, max)")
        } else if decode.0 == 0 || decode.0 > decode.1 {
            format!("decode_tokens = {decode:?}: the range is (min, max) with min >= 1")
        } else {
            return Ok(());
        };
        Err(AccelError::Config(format!("serving config: {problem}")))
    }
}

/// One serving request of the seeded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Trace-global id; `id % lanes` is the lane assignment.
    pub id: u64,
    /// Scheduler step the request arrives at.
    pub arrival_step: u64,
    /// Prompt length, tokens.
    pub prompt_tokens: u32,
    /// Tokens to decode after prefill (≥ 1).
    pub decode_tokens: u32,
}

/// The full seeded request stream, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// All requests, ascending `id` and non-decreasing `arrival_step`.
    pub requests: Vec<Request>,
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants); the high 32 bits
/// are the sample. Good enough for a workload mix and fully portable.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 32
}

/// Uniform sample in the inclusive range `[lo, hi]`.
fn lcg_range(state: &mut u64, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    lo + lcg_next(state) % (hi - lo + 1)
}

impl RequestTrace {
    /// Generates the seeded stream: a new trace from the same config is
    /// identical, byte for byte — the replay contract rests on this.
    ///
    /// # Panics
    ///
    /// Expects a config that passes [`ServingConfig::validate`]: a
    /// reversed token range has no sample to draw.
    pub fn generate(cfg: &ServingConfig) -> RequestTrace {
        let mut state = cfg.seed ^ 0x9e37_79b9_7f4a_7c15;
        // Warm the LCG so nearby seeds diverge immediately.
        lcg_next(&mut state);
        let mut step = 0u64;
        let requests = (0..cfg.requests as u64)
            .map(|id| {
                let gap = if cfg.mean_interarrival_steps == 0 {
                    0
                } else {
                    lcg_range(&mut state, 0, 2 * cfg.mean_interarrival_steps)
                };
                step += gap;
                Request {
                    id,
                    arrival_step: step,
                    prompt_tokens: lcg_range(
                        &mut state,
                        u64::from(cfg.prompt_tokens.0),
                        u64::from(cfg.prompt_tokens.1),
                    ) as u32,
                    decode_tokens: lcg_range(
                        &mut state,
                        u64::from(cfg.decode_tokens.0.max(1)),
                        u64::from(cfg.decode_tokens.1.max(1)),
                    ) as u32,
                }
            })
            .collect();
        RequestTrace { requests }
    }

    /// The static shard of the stream lane `lane_index` of `lanes`
    /// serves: every request with `id % lanes == lane_index`, in arrival
    /// order. Static assignment keeps lanes independent — the scheduling
    /// half of the byte-identity contract.
    pub fn lane_requests(&self, lane_index: usize, lanes: usize) -> Vec<Request> {
        self.requests
            .iter()
            .filter(|r| r.id % lanes as u64 == lane_index as u64)
            .copied()
            .collect()
    }
}

/// One lane's serving outcome: latency samples plus cache accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneServing {
    /// Device the lane served on.
    pub device: DeviceId,
    /// Requests completed (always the lane's full shard on success).
    pub completed: u64,
    /// Scheduler steps the lane ran.
    pub steps: u64,
    /// Per-request time-to-first-token (queue wait + prefill), virtual
    /// ns, in admission order.
    pub ttft_ns: Vec<u64>,
    /// Per-decode-step latency samples (shared weight read + the
    /// request's own KV attention), virtual ns.
    pub decode_step_ns: Vec<u64>,
    /// Peak concurrent KV bytes resident in the lane's cache.
    pub kv_peak_bytes: u64,
    /// KV pages allocated (and freed) over the run — the churn the UVM
    /// registration path absorbed.
    pub kv_pages_allocated: u64,
}

/// Outcome of a serving run: one entry per lane, in lane order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingRun {
    /// Per-lane outcomes, lane order.
    pub lanes: Vec<LaneServing>,
}

impl ServingRun {
    /// Requests completed across all lanes.
    pub fn completed(&self) -> u64 {
        self.lanes.iter().map(|l| l.completed).sum()
    }

    /// All TTFT samples, sorted ascending (percentile-ready).
    pub fn ttft_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|l| &l.ttft_ns)
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// All decode-step samples, sorted ascending (percentile-ready).
    pub fn decode_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|l| &l.decode_step_ns)
            .copied()
            .collect();
        v.sort_unstable();
        v
    }
}

/// An in-flight conversation: its request, arrival stamp, and paged KV.
struct Slot {
    req: Request,
    arrive_ns: u64,
    /// Managed KV pages, oldest first.
    pages: Vec<(DevicePtr, u64)>,
    /// Bytes of cache currently in use (≤ pages × page bytes).
    kv_bytes: u64,
    decoded: u32,
}

/// Runs one lane's continuous-batching loop over its request shard.
fn serve_lane(
    lane: &mut DeviceLane<'_>,
    requests: &[Request],
    cfg: &ServingConfig,
    weight_owner: DeviceId,
) -> Result<LaneServing, AccelError> {
    let device = lane.device();
    let s = &mut lane.session;
    let kv_per_token = cfg.dims.kv_bytes_per_token(cfg.kv_dtype);
    let page_bytes = cfg.kv_page_bytes();

    // The shared weight range is the lane's first allocation, so it
    // lands at the same managed address on every lane (fresh per-lane
    // engines allocate in lockstep) and the shared registrations
    // rendezvous in the coherence directory; the lowest-id lane owns the
    // home copy, siblings read-duplicate over the peer link. Sessions
    // without UVM skip the registration and serve out of plain memory.
    let weight_elems = (cfg.dims.param_bytes(DType::F32) / DType::F32.size_bytes()) as usize;
    let weights = s.alloc_tensor(&[weight_elems], DType::F32)?;
    if let Some(res) = s.runtime_mut().residency_mut() {
        res.register_shared(weights.ptr.addr(), weights.bytes, weight_owner);
    }

    let mut out = LaneServing {
        device,
        completed: 0,
        steps: 0,
        ttft_ns: Vec::new(),
        decode_step_ns: Vec::new(),
        kv_peak_bytes: 0,
        kv_pages_allocated: 0,
    };
    let run =
        |s: &mut crate::session::Session<'_>, out: &mut LaneServing| -> Result<(), AccelError> {
            let mut clock_ns = 0u64;
            let mut kv_live = 0u64;
            let mut pending: VecDeque<Slot> = VecDeque::new();
            let mut active: Vec<Slot> = Vec::new();
            let mut next_arrival = 0usize;
            let total = requests.len() as u64;

            let mut step = 0u64;
            while out.completed < total {
                // Arrivals stamp their clock at their arrival step whether or
                // not a slot is free — the queue wait belongs to TTFT.
                while next_arrival < requests.len() && requests[next_arrival].arrival_step <= step {
                    pending.push_back(Slot {
                        req: requests[next_arrival],
                        arrive_ns: clock_ns,
                        pages: Vec::new(),
                        kv_bytes: 0,
                        decoded: 0,
                    });
                    next_arrival += 1;
                }
                let mut admitted: Vec<Slot> = Vec::new();
                while active.len() + admitted.len() < cfg.max_batch && !pending.is_empty() {
                    admitted.push(pending.pop_front().expect("checked non-empty"));
                }

                if admitted.is_empty() && active.is_empty() {
                    // Idle step: nothing runs, no time passes; the next
                    // arrival defines the next interesting step.
                    if next_arrival < requests.len() {
                        step = requests[next_arrival].arrival_step;
                        continue;
                    }
                    break; // defensive: completed-count loop guard covers this
                }

                // One shared weight read per step — the batch's matmul
                // traffic. Every token produced this step waits on it.
                let weights_rec = s.launch(
                    KernelDesc::new("serving_weights_read", Dim3::linear(32), Dim3::linear(128))
                        .arg(weights.ptr, weights.bytes)
                        .body(
                            KernelBody::default()
                                .access(AccessSpec::load(0, weights.bytes))
                                .with_flops(weights.bytes / 2),
                        ),
                )?;
                let weights_ns = weights_rec.end - weights_rec.start;
                clock_ns += weights_ns;

                // Prefill the admissions, in queue order.
                for mut slot in admitted {
                    let prompt_bytes = u64::from(slot.req.prompt_tokens) * kv_per_token;
                    grow_kv(s, &mut slot, prompt_bytes, page_bytes, &mut kv_live, out)?;
                    let mut body = KernelBody::default()
                        .with_flops(u64::from(slot.req.prompt_tokens) * prompt_bytes);
                    for (i, &(_, used)) in slot.pages.iter().enumerate() {
                        body.accesses.push(AccessSpec::store(i, used));
                    }
                    let mut desc =
                        KernelDesc::new("serving_prefill", Dim3::linear(8), Dim3::linear(128));
                    for &(ptr, _) in &slot.pages {
                        desc.args.push(KernelArg {
                            ptr,
                            len: page_bytes,
                        });
                    }
                    let rec = s.launch(desc.body(body))?;
                    clock_ns += rec.end - rec.start;
                    out.ttft_ns.push(clock_ns - slot.arrive_ns);
                    active.push(slot);
                }

                // Decode one token per active conversation, admission order.
                // `retain`-style manual loop so retirement can free pages.
                let mut i = 0;
                while i < active.len() {
                    let slot = &mut active[i];
                    grow_kv(s, slot, kv_per_token, page_bytes, &mut kv_live, out)?;
                    // Attention reads the whole cache — cold pages of a
                    // conversation that sat evicted fault back in here — and
                    // appends this token's KV to the newest page.
                    let mut body = KernelBody::default().with_flops(slot.kv_bytes);
                    for (j, &(_, used)) in slot.pages.iter().enumerate() {
                        body.accesses.push(AccessSpec::load(j, used));
                    }
                    let last = slot.pages.len() - 1;
                    body.accesses.push(AccessSpec::store(last, kv_per_token));
                    let mut desc =
                        KernelDesc::new("serving_decode_attn", Dim3::linear(4), Dim3::linear(128));
                    for &(ptr, _) in &slot.pages {
                        desc.args.push(KernelArg {
                            ptr,
                            len: page_bytes,
                        });
                    }
                    let rec = s.launch(desc.body(body))?;
                    let attn_ns = rec.end - rec.start;
                    clock_ns += attn_ns;
                    out.decode_step_ns.push(weights_ns + attn_ns);
                    slot.decoded += 1;
                    if slot.decoded >= slot.req.decode_tokens {
                        // Conversation over: tear the cache down for real —
                        // every page unregisters from the residency model.
                        let slot = active.remove(i);
                        for (ptr, _) in slot.pages {
                            s.runtime_mut().free(ptr)?;
                        }
                        kv_live -= slot.kv_bytes;
                        out.completed += 1;
                    } else {
                        i += 1;
                    }
                }
                step += 1;
                out.steps = step;
            }
            Ok(())
        };
    let result = run(s, &mut out);
    if let Some(res) = s.runtime_mut().residency_mut() {
        res.unregister_shared(weights.ptr.addr());
    }
    s.free_tensor(&weights);
    result?;
    Ok(out)
}

/// Grows a slot's paged cache by `bytes`, allocating fresh managed pages
/// as the current one fills. Pages register with the residency model at
/// allocation (the managed-malloc path) and carry their used-byte count
/// for access sizing.
fn grow_kv(
    s: &mut crate::session::Session<'_>,
    slot: &mut Slot,
    bytes: u64,
    page_bytes: u64,
    kv_live: &mut u64,
    out: &mut LaneServing,
) -> Result<(), AccelError> {
    let mut remaining = bytes;
    while remaining > 0 {
        let room = slot.pages.last().map_or(0, |&(_, used)| page_bytes - used);
        if room == 0 {
            let ptr = s.runtime_mut().malloc_managed(page_bytes)?;
            slot.pages.push((ptr, 0));
            out.kv_pages_allocated += 1;
            continue;
        }
        let take = room.min(remaining);
        let (_, used) = slot.pages.last_mut().expect("room > 0 implies a page");
        *used += take;
        remaining -= take;
    }
    slot.kv_bytes += bytes;
    *kv_live += bytes;
    out.kv_peak_bytes = out.kv_peak_bytes.max(*kv_live);
    Ok(())
}

/// Serves the seeded stream on the bounded lane pool — the production
/// schedule. Requests shard statically (`id % lanes`); at most the
/// lanes' pool limit workers are live at once.
///
/// # Errors
///
/// [`AccelError::Config`] for a config [`ServingConfig::validate`]
/// rejects, or no lane at all. Propagates allocation/launch failures; a
/// panicking lane surfaces as [`AccelError::LanePanic`] for its device.
pub fn serve(lanes: &mut [DeviceLane<'_>], cfg: &ServingConfig) -> Result<ServingRun, AccelError> {
    dispatch(lanes, cfg, LaneSchedule::Threaded)
}

/// The lane-at-a-time reference schedule: same shards, same per-lane
/// kernel streams, one lane after another on the calling thread. A
/// pooled [`serve`] of the same config must produce a byte-identical
/// [`ServingRun`] *and* a byte-identical session `MergedReport` — the
/// serving replay gate.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_sequential_reference(
    lanes: &mut [DeviceLane<'_>],
    cfg: &ServingConfig,
) -> Result<ServingRun, AccelError> {
    dispatch(lanes, cfg, LaneSchedule::Sequential)
}

fn dispatch(
    lanes: &mut [DeviceLane<'_>],
    cfg: &ServingConfig,
    schedule: LaneSchedule,
) -> Result<ServingRun, AccelError> {
    cfg.validate()?;
    if lanes.is_empty() {
        return Err(AccelError::Config(
            "serving needs at least one device lane".into(),
        ));
    }
    let n = lanes.len();
    let trace = RequestTrace::generate(cfg);
    let weight_owner = lanes
        .iter()
        .map(DeviceLane::device)
        .min()
        .expect("lane count checked above");
    let shards: Vec<Vec<Request>> = (0..n).map(|i| trace.lane_requests(i, n)).collect();
    let lanes = drive_lanes(lanes, schedule, None, |i, lane| {
        serve_lane(lane, &shards[i], cfg, weight_owner)
    })?;
    Ok(ServingRun { lanes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seed_deterministic_and_seed_sensitive() {
        let cfg = ServingConfig::tiny();
        let a = RequestTrace::generate(&cfg);
        let b = RequestTrace::generate(&cfg);
        assert_eq!(a, b, "same seed, same trace");
        let other = ServingConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(
            a,
            RequestTrace::generate(&other),
            "different seed, different trace"
        );
        assert_eq!(a.requests.len(), cfg.requests);
        for w in a.requests.windows(2) {
            assert!(w[0].arrival_step <= w[1].arrival_step, "arrivals ordered");
        }
        for r in &a.requests {
            assert!((cfg.prompt_tokens.0..=cfg.prompt_tokens.1).contains(&r.prompt_tokens));
            assert!((cfg.decode_tokens.0..=cfg.decode_tokens.1).contains(&r.decode_tokens));
            assert!(r.decode_tokens >= 1);
        }
    }

    #[test]
    fn lane_shards_partition_the_trace() {
        let cfg = ServingConfig::tiny();
        let trace = RequestTrace::generate(&cfg);
        for lanes in [1usize, 2, 3, 4] {
            let total: usize = (0..lanes)
                .map(|i| trace.lane_requests(i, lanes).len())
                .sum();
            assert_eq!(total, cfg.requests, "lanes={lanes}");
            for i in 0..lanes {
                for r in trace.lane_requests(i, lanes) {
                    assert_eq!(r.id % lanes as u64, i as u64);
                }
            }
        }
    }

    #[test]
    fn kv_page_arithmetic() {
        let cfg = ServingConfig::tiny();
        // tiny: 2 layers × d=64 × 2 (K+V) × 2 bytes (F16) = 512 B/token.
        assert_eq!(cfg.dims.kv_bytes_per_token(cfg.kv_dtype), 512);
        assert_eq!(cfg.kv_page_bytes(), 16 * 512);
        assert!(cfg.dims.param_bytes(DType::F32) > 0);
    }
}
