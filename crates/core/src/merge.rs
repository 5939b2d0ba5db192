//! The session-end merge plan: deterministic pairwise tree reduction.
//!
//! Every harvest path in the session folds per-device state — tool forks
//! across hub shards, forked [`UvmManager`]s from parallel lanes — into
//! one value. Until the scale-out rework each of those folds was a
//! *linear* chain in ascending device id: `acc ∘ s0 ∘ s1 ∘ … ∘ sN-1`,
//! an O(N) critical path that dominates session teardown at 64+ shards.
//!
//! This module is the one merge plan all of them share now:
//!
//! * [`tree_reduce`] — pairwise binary tree reduction over a list whose
//!   order the caller fixed (ascending device id everywhere in this
//!   codebase). Round *r* merges adjacent pairs `(0,1), (2,3), …` of the
//!   previous round's survivors, left absorbing right, so for an
//!   associative, order-respecting merge the result is byte-identical to
//!   the linear fold — which is exactly the property the byte-identity
//!   suites (`tests/concurrency.rs`, `tests/uvm_parallel.rs`,
//!   `tests/spine.rs`, `tests/scale_out.rs`) pin. The tree's *shape* is a
//!   function of the input length alone, never of thread count: worker
//!   counts only change which thread executes a pair, so any
//!   `max_threads` produces the same bytes.
//! * [`reduce_indexed`] — the plan's scheduling half for *independent*
//!   reductions (one per registered tool): runs `f(0..n)` on up to
//!   `max_threads` threads, chunked contiguously so results stay in index
//!   order.
//!
//! The calling thread always takes the first share of the work; a plan
//! with `W` workers spawns `W − 1` helpers, once per reduction whatever
//! the number of tree rounds. Helpers are named `merge-{k}` so panic
//! payloads and debugger output attribute to the merge stage.
//!
//! Critical-path arithmetic: a linear fold of N shards is `(N-1)·M`
//! for per-merge cost M. The tree performs
//! the same `N-1` merges, but W workers fold the subtrees over blocks of
//! `N/W` leaves concurrently and the block roots then merge pairwise up
//! the tree, each pair on the thread that holds its left side, so the
//! critical path is `≈ (N/W + log₂W)·M` — what splitting every round
//! `W` ways gives, `Σ_r ceil(pairs_r / W) · M`, without a rendezvous per
//! round: an `(N-1) / (N/W + log₂W)` speedup (6.3x at N=64, W=8).
//!
//! [`UvmManager`]: uvm_sim::UvmManager

use accel_sim::resolve_threads;
use std::panic::resume_unwind;

/// Pairwise binary tree reduction in input order, executed on up to
/// `max_threads` threads (`0` = available parallelism): the caller's plus
/// helpers named `merge-{k}`, spawned once per reduction.
///
/// Each round merges adjacent pairs of the previous round's survivors —
/// `merge(&mut left, right)` — and an odd tail element survives to the
/// next round unmerged, so element order is preserved all the way up.
/// For an associative `merge` the result equals the sequential left fold
/// ([`Iterator::reduce`]) of the same list; the tree shape depends only on `items.len()`, so thread
/// count never changes the bytes. Returns `None` for an empty input.
///
/// Threads split the tree by subtree, not by round: the tree's last pair
/// is (everything before the largest power of two below the length,
/// everything from it on), so a thread hands the right side to a helper,
/// reduces the left side itself the same way, joins the helper and merges
/// the two roots — down to blocks of leaves small enough that `W` threads
/// cover the list, which each thread folds through all their rounds
/// alone. The joins are the only synchronization.
///
/// A panicking `merge` propagates to the caller, through the joins when a
/// helper ran it.
pub fn tree_reduce<T: Send>(
    items: Vec<T>,
    max_threads: usize,
    merge: impl Fn(&mut T, T) + Sync,
) -> Option<T> {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let workers = resolve_threads(max_threads).min(slots.len() / 2).max(1);
    let block = slots.len().div_ceil(workers).next_power_of_two();
    std::thread::scope(|scope| reduce_span(scope, &mut slots, 0, block, &merge))
}

/// Reduces `slots` — the leaves from `base` on, up to the next boundary
/// of the tree — to their root: spans of at most `block` leaves on this
/// thread, longer ones split at the tree's last pair with the right side
/// on the helper `merge-{k}`, `k` the index of the block it starts at.
fn reduce_span<'scope, T: Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    slots: &'scope mut [Option<T>],
    base: usize,
    block: usize,
    merge: &'scope (impl Fn(&mut T, T) + Sync),
) -> Option<T> {
    if slots.len() <= block {
        fold_rounds(slots, merge);
        return slots.first_mut()?.take();
    }
    let half = slots.len().next_power_of_two() / 2;
    let (left, right) = slots.split_at_mut(half);
    let helper = spawn_merge_worker(scope, (base + half) / block, move || {
        reduce_span(scope, right, base + half, block, merge)
    });
    let mut root = reduce_span(scope, left, base, block, merge);
    let right = helper
        .join()
        .unwrap_or_else(|payload| resume_unwind(payload));
    if let (Some(root), Some(right)) = (root.as_mut(), right) {
        merge(root, right);
    }
    root
}

/// Runs every round of the tree over `slots`, leaving the root in the
/// first: the round of stride `s` folds slot `(2k+1)·s` into slot `2k·s`
/// for every `k` that has both, which is the adjacent pairing of the
/// survivors of the round of stride `s/2`.
fn fold_rounds<T>(slots: &mut [Option<T>], merge: &impl Fn(&mut T, T)) {
    let mut stride = 1;
    while stride < slots.len() {
        for left in (0..slots.len() - stride).step_by(2 * stride) {
            let right = slots[left + stride].take();
            if let (Some(left), Some(right)) = (slots[left].as_mut(), right) {
                merge(left, right);
            }
        }
        stride *= 2;
    }
}

/// Spawns the scoped helper `merge-{k}`.
fn spawn_merge_worker<'scope, R: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    k: usize,
    work: impl FnOnce() -> R + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, R> {
    // Audited expect: thread spawning fails only on resource exhaustion,
    // where the unnamed `Scope::spawn` this replaces would panic too.
    #[allow(clippy::expect_used)]
    std::thread::Builder::new()
        .name(format!("merge-{k}"))
        .spawn_scoped(scope, work)
        .expect("spawn merge worker")
}

/// Runs the independent reductions `f(0), …, f(n-1)` on up to
/// `max_threads` threads (`0` = available parallelism; the caller's plus
/// helpers named `merge-{k}`), returning results in index order. Indices
/// are chunked contiguously, so each reduction runs whole on one thread —
/// the scheduler behind the per-tool shard folds, where tools are
/// independent of each other but each tool's fold must stay ordered.
pub fn reduce_indexed<T: Send>(
    n: usize,
    max_threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = resolve_threads(max_threads).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let fill = |base: usize, slots: &mut [Option<T>]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = Some(f(base + j));
            }
        };
        let mut chunks = out.chunks_mut(chunk).enumerate();
        let first = chunks.next();
        for (k, slots) in chunks {
            spawn_merge_worker(scope, k, move || fill(k * chunk, slots));
        }
        if let Some((_, slots)) = first {
            fill(0, slots);
        }
    });
    out.into_iter()
        .map(|slot| {
            // Audited expect: the chunked loop fills every slot before
            // the scope joins — an empty slot is unreachable.
            #[allow(clippy::expect_used)]
            slot.expect("every index reduced")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(tree_reduce(Vec::<u64>::new(), 4, |a, b| *a += b), None);
        assert_eq!(tree_reduce(vec![7u64], 4, |a, b| *a += b), Some(7));
    }

    #[test]
    fn tree_matches_linear_for_ordered_concat() {
        // String concat is associative but NOT commutative — exactly the
        // shape of the device-ordered merges — so this catches any
        // pairing that reorders elements.
        for n in 1..=130 {
            let items: Vec<String> = (0..n).map(|i| format!("[{i}]")).collect();
            let linear = Some(items.concat());
            for threads in [1, 2, 3, 8, 64] {
                let tree = tree_reduce(items.clone(), threads, |a, b| a.push_str(&b));
                assert_eq!(tree, linear, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_panicking_merge_reaches_the_caller_whichever_thread_ran_it() {
        for threads in [1, 2, 8] {
            for poisoned in [0u64, 5, 15] {
                let caught = std::panic::catch_unwind(|| {
                    tree_reduce((0..16u64).collect(), threads, |a, b| {
                        assert_ne!(b, poisoned | 1, "merge refuses this pair");
                        *a += b;
                    })
                });
                assert!(caught.is_err(), "threads={threads} poisoned={poisoned}");
            }
        }
    }

    #[test]
    fn reduce_indexed_preserves_index_order() {
        for threads in [1, 2, 5] {
            let out = reduce_indexed(11, threads, |i| i * i);
            assert_eq!(out, (0..11).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
