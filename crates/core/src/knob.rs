//! Inefficiency-location knobs (paper §III-F2).
//!
//! Knobs select *which* kernel deserves expensive context capture:
//! `MAX_MEM_REFERENCED_KERNEL` picks the kernel with the most memory
//! references, `MAX_CALLED_KERNEL` the most frequently invoked one. Users
//! extend the mechanism with custom knobs — here, any function scoring a
//! kernel's aggregate statistics.

use accel_sim::{Symbol, SymbolMap};

/// Aggregate per-kernel statistics the knobs score.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelAggregate {
    /// Invocations.
    pub calls: u64,
    /// Warp-level memory-access records.
    pub memory_records: u64,
    /// Bytes moved through global memory.
    pub bytes: u64,
    /// Barrier executions.
    pub barriers: u64,
    /// Total device-time, ns.
    pub duration_ns: u64,
}

/// A built-in or custom kernel-selection knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// The paper's `MAX_MEM_REFERENCED_KERNEL`.
    MaxMemReferencedKernel,
    /// The paper's `MAX_CALLED_KERNEL`.
    MaxCalledKernel,
    /// Most barrier executions (a §III-H extension example).
    MaxBarrierKernel,
    /// Longest cumulative device time.
    MaxDurationKernel,
}

impl Knob {
    /// Every built-in knob; a knob's discriminant is its index here.
    const ALL: [Knob; 4] = [
        Knob::MaxMemReferencedKernel,
        Knob::MaxCalledKernel,
        Knob::MaxBarrierKernel,
        Knob::MaxDurationKernel,
    ];

    /// Environment-variable style name.
    #[cfg(test)]
    pub(crate) fn env_name(self) -> &'static str {
        match self {
            Knob::MaxMemReferencedKernel => "MAX_MEM_REFERENCED_KERNEL",
            Knob::MaxCalledKernel => "MAX_CALLED_KERNEL",
            Knob::MaxBarrierKernel => "MAX_BARRIER_KERNEL",
            Knob::MaxDurationKernel => "MAX_DURATION_KERNEL",
        }
    }

    fn score(self, agg: &KernelAggregate) -> u64 {
        match self {
            Knob::MaxMemReferencedKernel => agg.memory_records,
            Knob::MaxCalledKernel => agg.calls,
            Knob::MaxBarrierKernel => agg.barriers,
            Knob::MaxDurationKernel => agg.duration_ns,
        }
    }
}

/// The order every selection maximizes: highest score, ties to the
/// lexicographically smallest name.
fn rank(score: u64, name: &Symbol) -> (u64, std::cmp::Reverse<&str>) {
    (score, std::cmp::Reverse(name.as_str()))
}

/// Accumulates per-kernel aggregates and answers knob queries.
#[derive(Debug, Default, Clone)]
pub struct KnobSet {
    per_kernel: SymbolMap<KernelAggregate>,
    /// What [`KnobSet::select`] answers for each built-in knob, indexed by
    /// discriminant. Aggregates only grow, so after an update the arg-max
    /// is the old one or the kernel just touched: `offer` keeps it current
    /// and the stack-capture check on every launch end never scans the map.
    best: [Option<(Symbol, KernelAggregate)>; Knob::ALL.len()],
}

impl KnobSet {
    /// An empty set.
    pub fn new() -> Self {
        KnobSet::default()
    }

    /// Re-ranks `kernel`, whose aggregate just became `agg`, against each
    /// knob's running arg-max (refreshing the stored aggregate when
    /// `kernel` already is the arg-max).
    fn offer(&mut self, kernel: Symbol, agg: KernelAggregate) {
        for knob in Knob::ALL {
            let slot = &mut self.best[knob as usize];
            let wins = slot.as_ref().is_none_or(|(best, best_agg)| {
                *best == kernel
                    || rank(knob.score(&agg), &kernel) > rank(knob.score(best_agg), best)
            });
            if wins {
                *slot = Some((kernel, agg));
            }
        }
    }

    /// Updates the aggregate of `kernel`: one allocation-free lookup by
    /// address once the kernel is known.
    fn update(&mut self, kernel: &Symbol, f: impl FnOnce(&mut KernelAggregate)) {
        let (kernel, agg) =
            self.per_kernel
                .with_entry(kernel, KernelAggregate::default, |kernel, agg| {
                    f(agg);
                    (*kernel, *agg)
                });
        self.offer(kernel, agg);
    }

    /// Records one launch completion.
    pub(crate) fn record_launch(&mut self, kernel: &Symbol, duration_ns: u64) {
        self.update(kernel, |agg| {
            agg.calls += 1;
            agg.duration_ns += duration_ns;
        });
    }

    /// Records fine-grained counters for a kernel.
    pub(crate) fn record_trace(
        &mut self,
        kernel: &Symbol,
        memory_records: u64,
        bytes: u64,
        barriers: u64,
    ) {
        self.update(kernel, |agg| {
            agg.memory_records += memory_records;
            agg.bytes += bytes;
            agg.barriers += barriers;
        });
    }

    /// The kernel selected by `knob`, with its aggregate: the running
    /// arg-max, read without touching the map.
    pub fn select(&self, knob: Knob) -> Option<(&Symbol, KernelAggregate)> {
        self.best[knob as usize].as_ref().map(|(n, a)| (n, *a))
    }

    /// Custom knob: the kernel maximizing an arbitrary score.
    #[cfg(test)]
    pub(crate) fn select_by<F: Fn(&KernelAggregate) -> u64>(
        &self,
        score: F,
    ) -> Option<(&Symbol, KernelAggregate)> {
        self.per_kernel
            .iter()
            .max_by_key(|(name, agg)| rank(score(agg), name))
            .map(|(n, a)| (n, *a))
    }

    /// Folds another set's aggregates into this one (the sharded hub's
    /// knob merge: per-kernel counters are sums, so the fold commutes and
    /// the device-ordered merge is deterministic).
    pub fn merge_from(&mut self, other: &KnobSet) {
        for (kernel, theirs) in other.per_kernel.iter() {
            self.update(kernel, |agg| {
                agg.calls += theirs.calls;
                agg.memory_records += theirs.memory_records;
                agg.bytes += theirs.bytes;
                agg.barriers += theirs.barriers;
                agg.duration_ns += theirs.duration_ns;
            });
        }
    }

    /// Aggregate for one kernel: a scan by name, off the launch path.
    pub fn get(&self, kernel: &str) -> Option<KernelAggregate> {
        self.per_kernel.get(kernel).copied()
    }

    /// Number of distinct kernels seen.
    pub fn kernel_count(&self) -> usize {
        self.per_kernel.len()
    }

    /// Clears all aggregates.
    pub fn reset(&mut self) {
        self.per_kernel.clear();
        self.best = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set() -> KnobSet {
        let mut k = KnobSet::new();
        let gemm = Symbol::intern("gemm");
        let im2col = Symbol::intern("im2col");
        k.record_launch(&gemm, 100);
        k.record_launch(&gemm, 100);
        k.record_launch(&im2col, 500);
        k.record_trace(&gemm, 1_000, 64_000, 10);
        k.record_trace(&im2col, 5_000, 320_000, 0);
        k
    }

    #[test]
    fn max_called_picks_gemm() {
        let k = set();
        let (name, agg) = k.select(Knob::MaxCalledKernel).unwrap();
        assert_eq!(name, "gemm");
        assert_eq!(agg.calls, 2);
    }

    #[test]
    fn max_mem_referenced_picks_im2col() {
        let k = set();
        let (name, agg) = k.select(Knob::MaxMemReferencedKernel).unwrap();
        assert_eq!(name, "im2col");
        assert_eq!(agg.memory_records, 5_000);
    }

    #[test]
    fn duration_and_barrier_knobs() {
        let k = set();
        assert_eq!(k.select(Knob::MaxDurationKernel).unwrap().0, "im2col");
        assert_eq!(k.select(Knob::MaxBarrierKernel).unwrap().0, "gemm");
    }

    #[test]
    fn custom_knob() {
        let k = set();
        // Bytes-per-call: im2col moves 320k in one call.
        let (name, _) = k
            .select_by(|agg| agg.bytes.checked_div(agg.calls).unwrap_or(0))
            .unwrap();
        assert_eq!(name, "im2col");
    }

    #[test]
    fn empty_set_selects_nothing() {
        assert!(KnobSet::new().select(Knob::MaxCalledKernel).is_none());
    }

    #[test]
    fn env_names_match_paper() {
        assert_eq!(
            Knob::MaxMemReferencedKernel.env_name(),
            "MAX_MEM_REFERENCED_KERNEL"
        );
        assert_eq!(Knob::MaxCalledKernel.env_name(), "MAX_CALLED_KERNEL");
    }

    #[test]
    fn reset_clears() {
        let mut k = set();
        assert!(k.kernel_count() > 0);
        k.reset();
        assert_eq!(k.kernel_count(), 0);
        assert!(k.select(Knob::MaxCalledKernel).is_none());
    }

    /// The map scan `select` used to be: the reference the running
    /// arg-max is checked against.
    fn select_scan(set: &KnobSet, knob: Knob) -> Option<(&Symbol, KernelAggregate)> {
        set.select_by(|agg| knob.score(agg))
    }

    fn assert_matches_scan(set: &KnobSet) {
        for knob in Knob::ALL {
            prop_assert_eq!(set.select(knob), select_scan(set, knob), "{:?}", knob);
        }
    }

    /// Two tables' `"gemm"` are one kernel: updates through either land in
    /// one entry, keyed by the global table's symbol, and `select`,
    /// `merge_from` and `get` agree with the scan over it.
    #[test]
    fn two_tables_symbols_aggregate_into_one_entry() {
        let (t1, t2) = (accel_sim::SymbolTable::new(), accel_sim::SymbolTable::new());
        let (a, b) = (t1.intern("gemm"), t2.intern("gemm"));
        assert!(!Symbol::ptr_eq(&a, &b));
        let mut k = KnobSet::new();
        k.record_launch(&a, 100);
        k.record_launch(&b, 50);
        k.record_trace(&b, 10, 640, 1);
        k.record_launch(&Symbol::intern("relu"), 10);
        assert_eq!(k.kernel_count(), 2);
        let gemm = k.get("gemm").unwrap();
        assert_eq!(
            (gemm.calls, gemm.duration_ns, gemm.memory_records),
            (2, 150, 10)
        );
        let (selected, _) = k.select(Knob::MaxCalledKernel).unwrap();
        assert!(Symbol::ptr_eq(selected, &Symbol::intern("gemm")));
        assert_matches_scan(&k);

        let mut theirs = KnobSet::new();
        theirs.record_launch(&a, 1);
        theirs.record_trace(&t2.intern("relu"), 99, 0, 0);
        assert_matches_scan(&theirs);
        k.merge_from(&theirs);
        assert_eq!(k.kernel_count(), 2);
        assert_eq!(k.get("gemm").unwrap().calls, 3);
        assert_eq!(k.get("relu").unwrap().memory_records, 99);
        assert_eq!(k.get("softmax"), None);
        assert_matches_scan(&k);
        assert_eq!(k.select(Knob::MaxMemReferencedKernel).unwrap().0, "relu");
    }

    /// One recording step: `(op, kernel, a, b)`; the tiny value ranges
    /// make most scores tie, so the name order decides.
    fn apply(set: &mut KnobSet, names: &[Symbol], &(op, kernel, a, b): &(u8, usize, u64, u64)) {
        let kernel = &names[kernel % names.len()];
        match op % 2 {
            0 => set.record_launch(kernel, a),
            _ => set.record_trace(kernel, a, 64 * b, b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every step of any record / merge / reset sequence, each
        /// built-in knob's running arg-max is what the scan selects.
        #[test]
        fn running_arg_max_matches_the_scan(
            steps in prop::collection::vec(
                (
                    0u8..8,
                    (0u8..2, 0usize..12, 0u64..3, 0u64..3),
                    prop::collection::vec((0u8..2, 0usize..12, 0u64..3, 0u64..3), 0..6),
                ),
                1..48,
            )
        ) {
            let names: Vec<Symbol> =
                (0..12).map(|i| Symbol::intern(&format!("knob_prop_kernel_{i}"))).collect();
            let mut set = KnobSet::new();
            for (step, record, other) in &steps {
                match step {
                    0 => set.reset(),
                    1 | 2 => {
                        let mut theirs = KnobSet::new();
                        for record in other {
                            apply(&mut theirs, &names, record);
                        }
                        assert_matches_scan(&theirs);
                        set.merge_from(&theirs);
                    }
                    _ => apply(&mut set, &names, record),
                }
                assert_matches_scan(&set);
            }
        }
    }
}
