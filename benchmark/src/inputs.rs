//! Seeded input generators. Every generator is a pure function of the
//! `--seed` argument: the program under test only ever sees what these
//! return, and the same seed always returns the same thing.

use pasta::dl::serving::ServingConfig;
use pasta::dl::ModelZoo;
use pasta::sim::{AccessSpec, Dim3, KernelBody, KernelDesc, MemSpace};

/// SplitMix64: small, portable, and good enough for shaping a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The one tensor every flood kernel reads and writes.
pub const FLOOD_TENSOR_BYTES: u64 = 16 << 20;
/// Kernels per flood op.
pub const FLOOD_KERNELS: usize = 32;

/// Eight names for 32 launches, so per-kernel tool state (frequency
/// tables, per-kernel memory characteristics) sees repeats as well as
/// distinct keys.
const FLOOD_NAMES: [&str; 8] = [
    "flood_gemm_128x64_tn",
    "flood_softmax_warp",
    "flood_layernorm_fwd",
    "flood_im2col",
    "flood_reduce_sum",
    "flood_elementwise_add",
    "flood_embedding_gather",
    "flood_transpose_tiled",
];

/// The synthetic kernel stream of the `event_flood` family: 32 launches
/// under 8 names in seeded order, each with 192–320 access streams — 8192
/// in all for every seed, so seeds differ in shape and never in amount of
/// work: kernels come in pairs whose stream counts sum to 512 — (seeded
/// offsets and extents inside the 16 MiB tensor, seeded 60/40 load/store,
/// every fourth one shared-memory) and four barriers per block.
/// Descriptors carry no argument; the workload binds the tensor with
/// `.arg(ptr, bytes)` once it is allocated. About 6.3k fine-grained
/// events per op under the six-tool suite, which subscribes to global
/// accesses only: the shared quarter is what the launch gate turns away
/// even there.
pub fn flood_kernels(seed: u64) -> Vec<KernelDesc> {
    let mut rng = Rng::new(seed ^ 0xf100_d000);
    let mut names = FLOOD_NAMES;
    shuffle(&mut names, &mut rng);
    let mut counts = Vec::with_capacity(FLOOD_KERNELS);
    for _ in 0..FLOOD_KERNELS / 2 {
        let first = rng.range(192, 320);
        counts.extend([first, 512 - first]);
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(k, specs)| {
            let mut body = KernelBody::compute(1 << 20).with_barriers(4);
            for i in 0..specs {
                let len = rng.range(1, 16) * 4096;
                let offset = rng.range(0, (FLOOD_TENSOR_BYTES - len) / 128) * 128;
                let spec = if rng.range(0, 9) < 6 {
                    AccessSpec::load(0, len)
                } else {
                    AccessSpec::store(0, len)
                }
                .with_range(offset, len);
                body = body.access(if i % 4 == 3 {
                    spec.in_space(MemSpace::Shared)
                } else {
                    spec
                });
            }
            KernelDesc::new(names[k % names.len()], Dim3::linear(64), Dim3::linear(128)).body(body)
        })
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i as u64) as usize);
    }
}

/// Device callbacks the launch gate decides on for one flood op, whether
/// or not it lets them through: every access stream plus kernel begin,
/// barriers, block boundaries and kernel end per launch. The work unit of
/// `event_flood_gated`, where almost none of them are delivered.
pub fn flood_gate_decisions(kernels: &[KernelDesc]) -> u64 {
    kernels
        .iter()
        .map(|k| k.body.accesses.len() as u64 + 4)
        .sum()
}

/// The three canonical inference models in seed-permuted order.
pub fn model_order(seed: u64) -> [ModelZoo; 3] {
    let mut order = [ModelZoo::Bert, ModelZoo::Gpt2, ModelZoo::ResNet18];
    shuffle(&mut order, &mut Rng::new(seed ^ 0x0de1_5000));
    order
}

/// Distinct serving request streams one run cycles through: op `i` serves
/// stream `i % SERVING_SLOTS`. Request mixes differ in total tokens by a
/// few percent, so the median op is taken over many of them rather than
/// over one that a seed happened to make light or heavy.
pub const SERVING_SLOTS: usize = 64;
/// The first streams also run through the lane-at-a-time sequential
/// reference in set-up; the rest are checked against their own first op.
pub const SERVING_REFERENCED: usize = 8;

/// The serving scenario of slot `slot`: `ServingConfig::small()` at one
/// arrival per scheduler step, with a request-trace seed derived from the
/// run seed and the slot.
pub fn serving_config(seed: u64, slot: usize) -> ServingConfig {
    let mut rng = Rng::new(seed ^ 0x5e87_1000 ^ ((slot as u64) << 32));
    ServingConfig {
        seed: rng.next_u64(),
        mean_interarrival_steps: 1,
        ..ServingConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_is_a_pure_function_of_the_seed() {
        let a = flood_kernels(1);
        assert_eq!(a, flood_kernels(1), "same seed, same descriptors");
        assert_ne!(a, flood_kernels(2), "different seed, different descriptors");
        assert_eq!(a.len(), FLOOD_KERNELS);
        for seed in 0..16 {
            let specs: usize = flood_kernels(seed)
                .iter()
                .map(|k| k.body.accesses.len())
                .sum();
            assert_eq!(specs, 8192, "every seed does the same work");
        }
        for k in &a {
            assert!((192..=320).contains(&k.body.accesses.len()));
            assert_eq!(k.body.barriers_per_block, 4);
            for s in &k.body.accesses {
                assert!(s.offset + s.len <= FLOOD_TENSOR_BYTES);
            }
        }
        let names: std::collections::BTreeSet<_> = a.iter().map(|k| k.name.to_string()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn serving_configs_are_seeded_per_slot() {
        assert_eq!(serving_config(1, 3), serving_config(1, 3));
        assert_ne!(serving_config(1, 3).seed, serving_config(2, 3).seed);
        assert_ne!(serving_config(1, 3).seed, serving_config(1, 4).seed);
        assert_eq!(serving_config(9, 0).mean_interarrival_steps, 1);
    }

    #[test]
    fn model_order_is_a_seeded_permutation() {
        assert_eq!(model_order(5), model_order(5));
        let orders: std::collections::BTreeSet<String> =
            (0..32).map(|s| format!("{:?}", model_order(s))).collect();
        assert!(orders.len() > 1, "some seed must permute");
        let mut sorted = model_order(7).map(|m| format!("{m:?}"));
        sorted.sort();
        assert_eq!(sorted, ["Bert", "Gpt2", "ResNet18"]);
    }
}
