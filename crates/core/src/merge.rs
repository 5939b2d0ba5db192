//! The session-end merge's tree: deterministic pairwise reduction.
//!
//! Every harvest path in the session folds per-device state — tool forks
//! across hub shards, forked [`UvmManager`]s from parallel lanes — into
//! one value, through [`tree_reduce`]: a pairwise binary tree over a list
//! whose order the caller fixed (ascending device id everywhere in this
//! codebase). Round *r* merges adjacent pairs `(0,1), (2,3), …` of the
//! previous round's survivors, left absorbing right, so for an
//! associative, order-respecting merge the result is byte-identical to
//! the linear fold `acc ∘ s0 ∘ s1 ∘ … ∘ sN-1` — which is exactly the
//! property the byte-identity suites (`tests/concurrency.rs`,
//! `tests/uvm_parallel.rs`, `tests/spine.rs`, `tests/scale_out.rs`) pin.
//!
//! This module holds only the tree's *shape*, a function of the input
//! length alone. The threads are the workers of [`accel_sim::run_pool`],
//! the pool the lanes ride: the calling thread and `W − 1` spawned ones
//! named `merge-{k}`. With a budget of `W` workers the list splits into
//! at most `W` blocks of `B` leaves (`B` a power of two, so every block
//! is a whole subtree), each block is one pool task folded through all
//! its rounds, and the calling thread then folds the block roots through
//! the tree's remaining rounds. The budget decides which thread runs a
//! pair, never the pairing, so any budget produces the same bytes.
//!
//! Critical path: a linear fold of N shards is `(N-1)·M` for per-merge
//! cost M. The tree performs the same `N-1` merges in `(N/W + W − 2)·M`
//! — the blocks' `N/W − 1` rounds in parallel, then the `W − 1` merges
//! above them on the caller — a 1.97x speedup at N=64, W=2 and 4.5x at
//! W=8.
//!
//! [`UvmManager`]: uvm_sim::UvmManager

use accel_sim::{resolve_threads, run_pool, AccelError, DeviceId, PoolTask};
use std::panic::resume_unwind;

/// Pairwise binary tree reduction in input order, executed on up to
/// `max_threads` workers of the pool (`0` = available parallelism; a
/// budget of 1 runs on the calling thread alone).
///
/// Each round merges adjacent pairs of the previous round's survivors —
/// `merge(&mut left, right)` — and an odd tail element survives to the
/// next round unmerged, so element order is preserved all the way up.
/// For an associative `merge` the result equals the sequential left fold
/// ([`Iterator::reduce`]) of the same list; the tree shape depends only
/// on `items.len()`, so the budget never changes the bytes. Returns
/// `None` for an empty input.
///
/// A panicking `merge` propagates to the caller with its message, from
/// whichever worker ran it.
pub fn tree_reduce<T: Send>(
    items: Vec<T>,
    max_threads: usize,
    merge: impl Fn(&mut T, T) + Sync,
) -> Option<T> {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let workers = resolve_threads(max_threads).min(slots.len() / 2).max(1);
    if workers > 1 {
        let block = slots.len().div_ceil(workers).next_power_of_two();
        let merge = &merge;
        on_pool(
            workers,
            slots
                .chunks_mut(block)
                .map(|leaves| move || fold_rounds(leaves, merge)),
        );
        // Each block's root is the one slot of it left holding a value.
        slots.retain(Option::is_some);
    }
    fold_rounds(&mut slots, &merge);
    slots.first_mut()?.take()
}

/// Runs `jobs` on up to `max_threads` workers of the pool — the caller
/// and threads named `merge-{k}` after the first job each runs — and
/// returns their results in job order; a budget of one runs them in a
/// plain loop. A panicking job resumes its panic, with its message, on
/// the caller.
pub(crate) fn on_pool<'a, T: Send + 'a>(
    max_threads: usize,
    jobs: impl ExactSizeIterator<Item = impl FnOnce() -> T + Send + 'a>,
) -> Vec<T> {
    if resolve_threads(max_threads).min(jobs.len()) <= 1 {
        return jobs.map(|job| job()).collect();
    }
    let tasks = jobs
        .zip(0..)
        .map(|(job, k)| PoolTask {
            device: DeviceId(k),
            run: Box::new(move || Ok(job())),
        })
        .collect();
    run_pool("merge-", max_threads, tasks)
        .results
        .into_iter()
        .map(|result| {
            result.unwrap_or_else(|err| {
                resume_unwind(Box::new(match err {
                    AccelError::LanePanic { payload, .. } => payload,
                    other => other.to_string(),
                }))
            })
        })
        .collect()
}

/// Runs every round of the tree over `slots`, leaving the root in the
/// first: the round of stride `s` folds slot `(2k+1)·s` into slot `2k·s`
/// for every `k` that has both, which is the adjacent pairing of the
/// survivors of the round of stride `s/2`. Over a block of a power-of-two
/// length aligned at a multiple of it, these are the tree's own rounds
/// below the block's root.
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
    fn pool_jobs_return_in_job_order_and_a_panic_keeps_its_message() {
        for threads in [1, 2, 5] {
            let jobs = (0..11usize).map(|i| move || i * i);
            assert_eq!(
                on_pool(threads, jobs),
                (0..11).map(|i| i * i).collect::<Vec<_>>()
            );
        }
        let caught = std::panic::catch_unwind(|| {
            on_pool(
                2,
                (0..4u32).map(|i| move || assert_ne!(i, 2, "job two refuses")),
            )
        })
        .expect_err("the panic reaches the caller");
        let message = accel_sim::panic_message(caught.as_ref());
        assert!(message.contains("job two refuses"), "{message}");
    }
}
