//! A repeated capture writes its trace into one buffer, sized once.
//!
//! The writer reserves each shard an even share of the last trace's
//! bytes, so capturing the same work again asks the allocator for the
//! trace's length and never regrows it. A regrown buffer copies the
//! records so far and frees the old block; where those blocks land decides
//! whether glibc trims the heap's top after the trace is dropped, and the
//! next capture then faults the pages in again — two populations of op
//! walls from one binary.
//!
//! One `#[test]`: the allocation counter and the writer's size memory are
//! both process-wide.

mod common;

use common::CountingAlloc;
use pasta::core::Pasta;
use pasta::prelude::*;
use pasta::tools::standard_suite;
use pasta::trace::{Trace, TraceWriter};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// A BERT inference pass under the standard suite, captured, and the
/// largest single request the capture made.
fn capture() -> (Trace, usize) {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tools(standard_suite())
        .build()
        .expect("session builds");
    GLOBAL.take_largest();
    let writer = TraceWriter::attach(&session);
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8))
        .expect("profiled run succeeds");
    let trace = writer.finish(&session);
    (trace, GLOBAL.take_largest())
}

#[test]
fn a_repeated_capture_allocates_its_trace_once_at_its_length() {
    let (first, first_largest) = capture();
    assert!(
        first_largest > first.len(),
        "the first capture grows its buffer past the trace ({first_largest} ≤ {})",
        first.len()
    );
    let (second, largest) = capture();
    assert_eq!(second, first, "the same work captures the same bytes");
    assert_eq!(
        largest,
        first.len(),
        "the second capture's largest request is the trace, reserved once"
    );
}
