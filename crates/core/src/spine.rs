//! The lock-free event spine: bounded SPSC rings between sinks and shards.
//!
//! Every sink a session builds — its own context's and each parallel
//! lane's — delivers [`SpineMode::Inline`]: a launch edge is consumed
//! under its shard's lock on the emitting thread. The ring is the other
//! mode, reachable only through `HubSink::new` and `HubSink::with_spine`;
//! nothing drains it in the background, so its messages wait for the next
//! shard lock.
//!
//! * [`EventRing`] — a bounded lock-free SPSC ring of [`SpineMsg`]s
//!   (single events or whole per-class batches), paired with a reverse
//!   *free ring* that recycles drained batch buffers back to the
//!   producer, keeping the steady state allocation-free.
//! * `ShardSpine` — the per-shard registry of rings feeding it. Rings
//!   are drained **only while holding the shard's processor lock** (the
//!   "consumer = lock holder" protocol), which serializes consumers
//!   without adding any atomics beyond the ring's own head/tail.
//!
//! **Backpressure is explicit and lossless.** A producer that finds its
//! ring full (or the buffer pool empty) takes the shard lock itself,
//! drains every pending ring — its own older messages first, preserving
//! per-ring FIFO — and processes the overflowing message inline. Events
//! are *never* dropped: anything pushed before a harvest is observed by
//! [`crate::hub::Hub::quiesce`], which every report/reset/recorder path
//! runs through (every shard lock acquisition drains first).
//!
//! **Ordering.** Within one ring, messages pop in push order; a sink's
//! event stream therefore reaches its shard's `EventProcessor` in exactly
//! the order the inline delivery gives it, which is what `tests/spine.rs`
//! pins.

use crate::event::{Event, EventClass};
use crate::processor::EventProcessor;
use accel_sim::sync::Mutex;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// How a [`crate::hub::HubSink`] hands events to its shard. Every sink a
/// session builds delivers [`SpineMode::Inline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpineMode {
    /// Bounded lock-free SPSC ring per sink→shard pair: emission pushes
    /// and returns; a backpressured producer or the next shard lock runs
    /// tool dispatch.
    Ring,
    /// Each launch edge consumed into the shard's `EventProcessor` under
    /// one lock on the emission path.
    Inline,
}

/// Ring geometry. The defaults suit the shipping sink; tests shrink them
/// to force wraparound and backpressure within a handful of events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpineConfig {
    /// Message slots per ring. A slot holds a whole batch, so the default
    /// buffers `ring_slots × batch_events` fine-grained events.
    pub ring_slots: usize,
    /// Batch buffers a ring's pool may hold, each allocated the first
    /// time the producer needs one more.
    pub pool_buffers: usize,
    /// Events per batch buffer (the sink's flush threshold).
    pub batch_events: usize,
}

impl Default for SpineConfig {
    fn default() -> Self {
        SpineConfig {
            ring_slots: 64,
            pool_buffers: 8,
            batch_events: 256,
        }
    }
}

/// One message on the spine: a single out-of-band event or a whole
/// per-class batch (the sink's spill buffer, moved — not copied).
#[derive(Debug)]
pub enum SpineMsg {
    /// A single event (kernel begin/end markers and other per-launch
    /// events that must not wait for a batch to fill).
    One(Event),
    /// A filled per-class spill buffer; drained through one
    /// dispatch-row lookup and its buffer recycled via the free ring.
    Batch(EventClass, Vec<Event>),
}

impl SpineMsg {
    /// Events carried by this message.
    pub fn len(&self) -> usize {
        match self {
            SpineMsg::One(_) => 1,
            SpineMsg::Batch(_, events) => events.len(),
        }
    }

    /// True when the message carries no events (an empty batch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A bounded lock-free single-producer/single-consumer queue.
///
/// # Safety contract
///
/// `push` must be called by at most one thread at a time, and `pop` by at
/// most one thread at a time (they may be different threads, and either
/// side may migrate between threads as long as calls never overlap). The
/// spine upholds this structurally: the push side of an [`EventRing`] is
/// owned by one sink, and the pop side only runs while holding the
/// shard's processor lock.
struct Spsc<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (monotonic; slot index is `head % cap`). Written
    /// by the consumer only.
    head: LineIsolated<AtomicUsize>,
    /// Next slot to push (monotonic). Written by the producer only.
    tail: LineIsolated<AtomicUsize>,
}

/// Gives `T` a 128-byte line pair of its own (two lines: the
/// adjacent-line prefetcher pairs them), so the producer's `tail` stores
/// and the consumer's `head` stores — and, in an [`EventRing`], the
/// message ring's and the free ring's — never invalidate each other's
/// line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct LineIsolated<T>(T);

// SAFETY: `slots` is only touched through the SPSC protocol above —
// the producer writes slots in `[head, head+cap)` it observed free, the
// consumer reads slots in `[head, tail)` the producer published with a
// release store, and the roles are never concurrent with themselves.
unsafe impl<T: Send> Send for Spsc<T> {}
unsafe impl<T: Send> Sync for Spsc<T> {}

impl<T> Spsc<T> {
    fn new(capacity: usize) -> Spsc<T> {
        let capacity = capacity.max(1);
        Spsc {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            head: LineIsolated::default(),
            tail: LineIsolated::default(),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: publishes `value`, or returns it when the ring is
    /// full (the caller applies backpressure — values are never dropped).
    fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's release in `pop`: once we see
        // head advanced past a slot, its old value is fully read out.
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.capacity() {
            return Err(value);
        }
        // SAFETY: slot `tail % cap` is outside the live `[head, tail)`
        // window, so the consumer is not reading it, and we are the only
        // producer (type contract).
        unsafe {
            (*self.slots[tail % self.capacity()].get()).write(value);
        }
        // Release publishes the slot write to the consumer's acquire load.
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: takes the oldest value, or `None` when empty.
    fn pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        // Acquire pairs with the producer's release in `push`.
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: slot `head % cap` is inside the live window the
        // producer published, and we are the only consumer (type
        // contract), so reading the value out exactly once is sound.
        let value = unsafe { (*self.slots[head % self.capacity()].get()).assume_init_read() };
        // Release hands the slot back to the producer's acquire load.
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Messages currently queued (a racy snapshot — exact only when one
    /// side is quiescent).
    fn len(&self) -> usize {
        self.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.0.load(Ordering::Acquire))
    }
}

impl<T> std::fmt::Debug for Spsc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spsc")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Drop for Spsc<T> {
    fn drop(&mut self) {
        // `&mut self`: both roles are exclusively ours now.
        while self.pop().is_some() {}
    }
}

/// One sink→shard SPSC pair: the forward message ring plus the reverse
/// *free ring* of recycled batch buffers.
///
/// # Roles
///
/// The **producer** (one sink) calls [`EventRing::push`],
/// [`EventRing::take_buffer`] and [`EventRing::close`]. The **consumer**
/// (whoever holds the owning shard's processor lock) calls
/// [`EventRing::pop`] and [`EventRing::recycle`]. Both roles are
/// single-threaded at any instant; violating that voids the SPSC safety
/// contract.
#[derive(Debug)]
pub struct EventRing {
    msgs: Spsc<SpineMsg>,
    /// Cleared batch buffers flowing consumer → producer. Sized to hold
    /// every circulating buffer (pool + the sink's two working buffers)
    /// so a full drain can always recycle without dropping capacity.
    free: Spsc<Vec<Event>>,
    /// Producer dropped: once also empty, the shard registry prunes it.
    closed: AtomicBool,
    /// Events per batch buffer.
    batch_events: usize,
    /// Pool buffers not allocated yet (producer role only). Eight 26 KB
    /// blocks built and freed per session put a coarse session's short
    /// ops at the mercy of glibc's heap trimming
    /// (`docs/perf-log/ISSUE-17.md`, *Steadiness*).
    unminted: AtomicUsize,
}

impl EventRing {
    /// A ring with the given geometry and a pool of `pool_buffers` batch
    /// buffers, none of them allocated yet.
    pub fn with_config(config: &SpineConfig) -> EventRing {
        EventRing {
            msgs: Spsc::new(config.ring_slots),
            free: Spsc::new(config.pool_buffers + 2),
            closed: AtomicBool::new(false),
            batch_events: config.batch_events.max(1),
            unminted: AtomicUsize::new(config.pool_buffers.max(1)),
        }
    }

    /// Producer: queues `msg`, or hands it back when the ring is full.
    ///
    /// # Errors
    ///
    /// Returns `msg` unchanged on a full ring — the caller must apply
    /// backpressure (drain the shard itself, or park and retry); dropping
    /// the message would break the lossless contract.
    pub fn push(&self, msg: SpineMsg) -> Result<(), SpineMsg> {
        self.msgs.push(msg)
    }

    /// Consumer: takes the oldest queued message.
    pub fn pop(&self) -> Option<SpineMsg> {
        self.msgs.pop()
    }

    /// Producer: an empty batch buffer — one the consumer has recycled,
    /// else the pool's next unallocated one — or `None` when every pool
    /// buffer is in flight. Dry exactly when a pool allocated up front
    /// would be, so backpressure sets in at the same message.
    pub fn take_buffer(&self) -> Option<Vec<Event>> {
        self.free.pop().or_else(|| {
            // Relaxed: only the producer reads or writes the count.
            let unminted = self.unminted.load(Ordering::Relaxed);
            (unminted > 0).then(|| {
                self.unminted.store(unminted - 1, Ordering::Relaxed);
                Vec::with_capacity(self.batch_events)
            })
        })
    }

    /// Consumer: clears `buf` and returns it to the producer through the
    /// free ring. A buffer that no longer fits (closed producer already
    /// reclaimed capacity) is simply dropped — capacity, not data.
    pub fn recycle(&self, mut buf: Vec<Event>) {
        buf.clear();
        let _ = self.free.push(buf);
    }

    /// Producer: marks the ring closed. Pushes before the close are still
    /// drained (close is a release store; the registry checks it with an
    /// acquire load *after* seeing the ring empty).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True when the producer dropped the ring.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// True when no messages are queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.msgs.len() == 0
    }

    /// Messages currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }
}

/// Consumes one message into `processor` — the only place a message is
/// taken apart, whoever the consumer is (a drain or a backpressured
/// producer). A batch goes through one dispatch-row lookup and its buffer
/// comes back emptied, for the caller to recycle to wherever the producer
/// draws its next one from.
pub(crate) fn consume(msg: SpineMsg, processor: &mut EventProcessor) -> Option<Vec<Event>> {
    match msg {
        SpineMsg::One(event) => {
            processor.process(&event);
            None
        }
        SpineMsg::Batch(class, mut events) => {
            processor.process_class_batch(class, &events);
            events.clear();
            Some(events)
        }
    }
}

/// Drains one ring into `processor`, recycling batch buffers. The caller
/// must hold the owning shard's processor lock (consumer role).
fn drain_ring(ring: &EventRing, processor: &mut EventProcessor) -> u64 {
    let mut drained = 0;
    while let Some(msg) = ring.pop() {
        drained += msg.len() as u64;
        if let Some(buf) = consume(msg, processor) {
            ring.recycle(buf);
        }
    }
    drained
}

/// The per-shard side of the spine: every ring feeding one shard.
///
/// Registration is sink-side and rare (one per sink×device); draining
/// happens under the shard's processor lock, which is what makes the
/// per-ring consumer role single-threaded. The registry mutex is a leaf
/// lock — only ever taken alone or under the processor lock.
#[derive(Debug, Default)]
pub(crate) struct ShardSpine {
    rings: Mutex<Vec<Arc<EventRing>>>,
    /// `rings.len()`, readable without the registry mutex: every shard
    /// lock drains first, and no sink a session builds registers a ring.
    /// Written under the registry mutex. The release store in `register`
    /// pairs with the acquire load in `drain`: a drain ordered after a
    /// push (same thread, a join, the shard lock) is ordered after the
    /// registration that preceded the push.
    live: AtomicUsize,
}

impl ShardSpine {
    /// Adds a ring feeding this shard.
    pub(crate) fn register(&self, ring: Arc<EventRing>) {
        let mut rings = self.rings.lock();
        rings.push(ring);
        self.live.store(rings.len(), Ordering::Release);
    }

    /// Drains every registered ring into `processor` and prunes rings
    /// whose producer closed them and that are empty (a closed ring
    /// cannot refill: the producer's pushes happened-before its close).
    ///
    /// The caller must hold the owning shard's processor lock.
    pub(crate) fn drain(&self, processor: &mut EventProcessor) -> u64 {
        if self.live.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut rings = self.rings.lock();
        let mut drained = 0;
        rings.retain(|ring| {
            drained += drain_ring(ring, processor);
            !(ring.is_closed() && ring.is_empty())
        });
        self.live.store(rings.len(), Ordering::Release);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::LaunchId;

    impl ShardSpine {
        /// Rings registered and not yet pruned.
        pub(crate) fn rings(&self) -> usize {
            self.rings.lock().len()
        }
    }

    fn event(i: u64) -> Event {
        Event::Instructions {
            launch: LaunchId(0),
            count: i,
        }
    }

    #[test]
    fn spsc_head_and_tail_sit_on_separate_lines() {
        let (head, tail) = (
            std::mem::offset_of!(Spsc<SpineMsg>, head),
            std::mem::offset_of!(Spsc<SpineMsg>, tail),
        );
        assert!(head.abs_diff(tail) >= 64, "head at {head}, tail at {tail}");
        // Each index owns its lines outright, so an `EventRing`'s message
        // ring and free ring cannot share one either.
        assert!(std::mem::align_of::<LineIsolated<AtomicUsize>>() >= 128);
    }

    #[test]
    fn spsc_push_pop_fifo_with_wraparound() {
        let ring: Spsc<u64> = Spsc::new(4);
        // Several wrap cycles with interleaved push/pop.
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for round in 0..10 {
            let burst = 1 + (round % 4);
            for _ in 0..burst {
                ring.push(next_push).unwrap();
                next_push += 1;
            }
            for _ in 0..burst {
                assert_eq!(ring.pop(), Some(next_pop));
                next_pop += 1;
            }
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn spsc_full_ring_returns_value_instead_of_dropping() {
        let ring: Spsc<u64> = Spsc::new(2);
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.push(3), Err(3), "full ring hands the value back");
        assert_eq!(ring.pop(), Some(1));
        ring.push(3).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn spsc_drop_releases_queued_values() {
        // Arc refcounts observe the drop of undrained values.
        let probe = Arc::new(());
        {
            let ring: Spsc<Arc<()>> = Spsc::new(8);
            ring.push(Arc::clone(&probe)).unwrap();
            ring.push(Arc::clone(&probe)).unwrap();
            assert_eq!(Arc::strong_count(&probe), 3);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "drop drained the ring");
    }

    #[test]
    fn spsc_cross_thread_stream_is_fifo() {
        // Producer on one thread, consumer on another, ring far smaller
        // than the stream: every value arrives, in order, across many
        // wraparounds.
        let ring: Arc<Spsc<u64>> = Arc::new(Spsc::new(4));
        const N: u64 = 50_000;
        std::thread::scope(|scope| {
            let producer = Arc::clone(&ring);
            scope.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match producer.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expected = 0u64;
            while expected < N {
                if let Some(v) = ring.pop() {
                    assert_eq!(v, expected);
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn event_ring_recycles_batch_buffers() {
        let config = SpineConfig {
            ring_slots: 4,
            pool_buffers: 2,
            batch_events: 16,
        };
        let ring = EventRing::with_config(&config);
        let mut processor = EventProcessor::new();
        assert_eq!(
            ring.free.len(),
            0,
            "no buffer allocated before its first use"
        );

        let buf = ring.take_buffer().expect("pool buffer available");
        assert_eq!(buf.capacity(), 16);
        let mut buf = buf;
        buf.push(event(1));
        buf.push(event(2));
        ring.push(SpineMsg::Batch(EventClass::DeviceControl, buf))
            .unwrap();
        assert_eq!(drain_ring(&ring, &mut processor), 2);
        assert_eq!(processor.events_processed(), 2);

        // The drained buffer came back through the free ring, cleared,
        // with its capacity intact: the pool's second buffer plus the
        // recycled one = 2 takes before the pool runs dry.
        let mut takes = 0;
        while let Some(b) = ring.take_buffer() {
            assert!(b.is_empty());
            assert!(b.capacity() >= 16);
            takes += 1;
        }
        assert_eq!(takes, 2);
    }

    #[test]
    fn closed_empty_rings_are_pruned_after_final_drain() {
        let spine = ShardSpine::default();
        let ring = Arc::new(EventRing::with_config(&SpineConfig::default()));
        spine.register(Arc::clone(&ring));
        ring.push(SpineMsg::One(event(7))).unwrap();
        ring.close();

        let mut processor = EventProcessor::new();
        assert_eq!(spine.drain(&mut processor), 1, "pushes before close drain");
        assert_eq!(processor.events_processed(), 1);
        assert_eq!(
            spine.rings.lock().len(),
            0,
            "closed-and-empty ring pruned from the registry"
        );

        // An open ring survives drains even when empty.
        let live = Arc::new(EventRing::with_config(&SpineConfig::default()));
        spine.register(Arc::clone(&live));
        assert_eq!(spine.drain(&mut processor), 0);
        assert_eq!(spine.rings.lock().len(), 1);
    }
}
