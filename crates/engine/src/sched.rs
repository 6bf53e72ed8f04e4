//! The sharded scheduler.
//!
//! # Determinism model
//!
//! The world is split into `S` shards. Every event lives on exactly one
//! shard and is keyed by `(SimTime, shard, seq)`: time first, then the
//! owning shard, then a per-shard sequence number that captures insertion
//! order. Within one shard, events execute strictly in `(time, seq)`
//! order; across shards the execution interleaving is unobservable because
//! shards share no mutable state — the only cross-shard channel is
//! [`ShardCtx::send`], and a sent event is always delivered at least one
//! *lookahead* after the sender's current time.
//!
//! The run loop is a conservative (YAWNS-style) window scheme:
//!
//! 1. compute `floor` = the earliest pending event time across all shards;
//! 2. let every shard independently drain its queue up to
//!    `bound = floor + lookahead` (this is the parallel part — shards are
//!    chunked contiguously over scoped worker threads);
//! 3. at the barrier, deliver each shard's outbox in **shard-index order**,
//!    assigning receiver-side sequence numbers in that order.
//!
//! Because a send is clamped to `send_time ≥ now + lookahead ≥ bound`, no
//! event delivered in step 3 could have executed inside the window it was
//! sent from; every shard therefore saw a complete, identical event set
//! for the window regardless of how many threads ran step 2 or how they
//! were scheduled. Worker count changes wall-clock time only.
//!
//! Per-shard randomness comes from [`SimRng::fork_indexed`] on the engine's
//! base generator, so a shard's stream depends only on `(seed, shard)` —
//! never on sibling shards or execution order.
//!
//! Slices are traversed with iterators, `get`, and `chunks_mut`, never
//! `a[i]`.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tectonic_net::{SimDuration, SimRng, SimTime};

/// Shard/worker geometry and the conservative lookahead window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of world shards. Results depend on this (it fixes the event
    /// partition), so equivalence tests hold it constant while varying
    /// `workers`.
    pub shards: usize,
    /// Number of OS threads draining shards. **Never affects results** —
    /// only wall-clock time. `1` runs inline on the calling thread.
    pub workers: usize,
    /// Conservative window width: a cross-shard send is delivered no
    /// earlier than `sender_now + lookahead`. Larger lookahead = fewer
    /// barriers; must be an upper bound on how far ahead a shard may
    /// safely run without seeing its neighbours' sends.
    pub lookahead: SimDuration,
}

impl EngineConfig {
    /// A config with the default 60 s lookahead (suits query-paced scans).
    pub fn new(shards: usize, workers: usize) -> EngineConfig {
        EngineConfig {
            shards: shards.max(1),
            workers: workers.max(1),
            lookahead: SimDuration::from_secs(60),
        }
    }

    /// Overrides the lookahead window.
    pub fn with_lookahead(mut self, lookahead: SimDuration) -> EngineConfig {
        self.lookahead = lookahead;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(8, 4)
    }
}

/// One shard's state machine.
///
/// Implementations own all state they touch (their "stat sled"); the
/// engine guarantees `handle` is never called concurrently for the same
/// shard and that the event order seen is a pure function of the seeded
/// inputs.
pub trait ShardModel: Send {
    /// The event payload routed through the queues.
    type Event: Send;
    /// The shard-local result arena returned by [`ShardModel::finish`].
    type Out: Send;

    /// Processes one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut ShardCtx<Self::Event>);

    /// Consumes the shard into its local result once all queues are empty.
    fn finish(self) -> Self::Out;
}

/// Handler-side view of the scheduler: schedule locally, send cross-shard,
/// draw shard-scoped randomness.
pub struct ShardCtx<E> {
    shard: usize,
    shards: usize,
    now: SimTime,
    lookahead: SimDuration,
    rng: SimRng,
    local: Vec<(SimTime, E)>,
    outbox: Vec<(usize, SimTime, E)>,
}

impl<E> ShardCtx<E> {
    /// This shard's index in `[0, shard_count)`.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the engine.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The time of the event currently being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The shard's private generator, forked from the engine seed by shard
    /// index.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules a follow-up event on this shard. Times in the past are
    /// clamped to `now` (the queue never travels backwards).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.local.push((at.max(self.now), event));
    }

    /// Sends an event to shard `dest` (out-of-range destinations are
    /// clamped to the last shard). Delivery is clamped to
    /// `now + lookahead` or later, which is what makes the window scheme
    /// conservative: the receiver can never have already run past the
    /// delivery time.
    pub fn send(&mut self, dest: usize, at: SimTime, event: E) {
        let dest = dest.min(self.shards.saturating_sub(1));
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "virtual time is u64 milliseconds since 1970; now + lookahead cannot overflow"
        )]
        self.outbox
            .push((dest, at.max(self.now + self.lookahead), event));
    }

    /// Sends a clone of `event` to every *other* shard.
    pub fn broadcast(&mut self, at: SimTime, event: E)
    where
        E: Clone,
    {
        for dest in 0..self.shards {
            if dest != self.shard {
                self.send(dest, at, event.clone());
            }
        }
    }
}

/// A queued event; ordering compares `(time, seq)` only, reversed so the
/// std max-heap pops the earliest event first.
struct Queued<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Queued<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Queued<E> {}

impl<E> PartialOrd for Queued<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Queued<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One shard: its model, queue, context, and sequence counter.
struct Slot<M: ShardModel> {
    model: M,
    queue: BinaryHeap<Queued<M::Event>>,
    ctx: ShardCtx<M::Event>,
    next_seq: u64,
}

impl<M: ShardModel> Slot<M> {
    fn push(&mut self, at: SimTime, event: M::Event) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.queue.push(Queued {
            time: at,
            seq,
            event,
        });
    }

    fn head_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|q| q.time)
    }

    /// Drains this shard's queue strictly below `bound`, in `(time, seq)`
    /// order. Locally scheduled follow-ups may land inside the window and
    /// are then processed in the same pass; cross-shard sends accumulate
    /// in the outbox for the barrier.
    fn run_window(&mut self, bound: SimTime) {
        while self.queue.peek().is_some_and(|q| q.time < bound) {
            let Some(q) = self.queue.pop() else { break };
            self.ctx.now = q.time;
            self.model.handle(q.time, q.event, &mut self.ctx);
            // Re-queue follow-ups outside the handler borrow, reusing the
            // buffer's capacity.
            let mut pending = std::mem::take(&mut self.ctx.local);
            for (at, event) in pending.drain(..) {
                self.push(at, event);
            }
            self.ctx.local = pending;
        }
    }
}

/// The sharded discrete-event engine.
pub struct Engine<M: ShardModel> {
    slots: Vec<Slot<M>>,
    workers: usize,
    lookahead: SimDuration,
}

impl<M: ShardModel> Engine<M> {
    /// Builds an engine over `models` (one per shard; the shard count is
    /// `models.len()`, which callers derive from `config.shards`). Each
    /// shard's RNG is forked from `base_rng` by shard index.
    pub fn new(config: &EngineConfig, models: Vec<M>, base_rng: &SimRng) -> Engine<M> {
        let shards = models.len();
        let slots = models
            .into_iter()
            .enumerate()
            .map(|(i, model)| Slot {
                model,
                queue: BinaryHeap::new(),
                ctx: ShardCtx {
                    shard: i,
                    shards,
                    now: SimTime::EPOCH,
                    // A zero lookahead would stall the window loop (bound
                    // == floor drains nothing); clamp to one tick.
                    lookahead: config.lookahead.max(SimDuration::from_millis(1)),
                    // Lossless on every supported platform (usize ≤ 64
                    // bits); the fallback can only fire on a >64-bit
                    // target and still yields a distinct stream per shard.
                    rng: base_rng
                        .fork_indexed("engine-shard", u64::try_from(i).unwrap_or(u64::MAX)),
                    local: Vec::new(),
                    outbox: Vec::new(),
                },
                next_seq: 0,
            })
            .collect();
        Engine {
            slots,
            workers: config.workers.max(1),
            lookahead: config.lookahead.max(SimDuration::from_millis(1)),
        }
    }

    /// Enqueues an initial event on `shard` (clamped to the last shard if
    /// out of range) before the run starts.
    pub fn seed(&mut self, shard: usize, at: SimTime, event: M::Event) {
        let last = self.slots.len().saturating_sub(1);
        if let Some(slot) = self.slots.get_mut(shard.min(last)) {
            slot.push(at, event);
        }
    }

    /// Runs every shard to queue exhaustion and returns the per-shard
    /// results **in shard-index order**. Callers merge them with their own
    /// deterministic fold.
    pub fn run(mut self) -> Vec<M::Out> {
        let workers = self.workers.min(self.slots.len()).max(1);
        loop {
            let floor = self.slots.iter().filter_map(Slot::head_time).min();
            let Some(floor) = floor else { break };
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "virtual time is u64 milliseconds since 1970; floor + lookahead cannot overflow"
            )]
            let bound = floor + self.lookahead;

            if workers == 1 {
                for slot in &mut self.slots {
                    slot.run_window(bound);
                }
            } else {
                // Contiguous chunks over scoped threads; the spawning
                // thread works the first chunk itself. Windows are few
                // (each advances the floor by >= lookahead), so per-window
                // spawning is cheap relative to the work inside.
                let chunk = self.slots.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    let mut chunks = self.slots.chunks_mut(chunk);
                    let first = chunks.next();
                    for rest in chunks {
                        scope.spawn(move || {
                            for slot in rest {
                                slot.run_window(bound);
                            }
                        });
                    }
                    if let Some(first) = first {
                        for slot in first {
                            slot.run_window(bound);
                        }
                    }
                });
            }

            // Barrier: deliver outboxes in shard-index order so receiver
            // sequence numbers are a pure function of the event history.
            for src in 0..self.slots.len() {
                let outbox = match self.slots.get_mut(src) {
                    Some(slot) => std::mem::take(&mut slot.ctx.outbox),
                    None => continue,
                };
                for (dest, at, event) in outbox {
                    let last = self.slots.len().saturating_sub(1);
                    if let Some(slot) = self.slots.get_mut(dest.min(last)) {
                        slot.push(at, event);
                    }
                }
            }
        }
        self.slots.into_iter().map(|s| s.model.finish()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every event it sees, forwards "ping" events to the next
    /// shard, and draws from the shard RNG so tests can pin RNG stability.
    struct Recorder {
        log: Vec<(u64, u32)>,
        draws: Vec<u64>,
        forward: bool,
    }

    /// What one [`Recorder`] shard hands back: its event log and RNG draws.
    type RecorderOut = (Vec<(u64, u32)>, Vec<u64>);

    impl ShardModel for Recorder {
        type Event = u32;
        type Out = RecorderOut;

        fn handle(&mut self, now: SimTime, event: u32, ctx: &mut ShardCtx<u32>) {
            self.log.push((now.as_millis(), event));
            self.draws.push(ctx.rng().next_u64_raw());
            if self.forward && event > 0 {
                let dest = (ctx.shard() + 1) % ctx.shard_count();
                ctx.send(dest, now, event - 1);
            }
        }

        fn finish(self) -> Self::Out {
            (self.log, self.draws)
        }
    }

    fn run_ring(shards: usize, workers: usize) -> Vec<RecorderOut> {
        let config = EngineConfig::new(shards, workers).with_lookahead(SimDuration::from_secs(1));
        let models = (0..config.shards)
            .map(|_| Recorder {
                log: Vec::new(),
                draws: Vec::new(),
                forward: true,
            })
            .collect();
        let mut engine = Engine::new(&config, models, &SimRng::new(99));
        engine.seed(0, SimTime(1000), 5);
        engine.seed(shards / 2, SimTime(1500), 3);
        engine.run()
    }

    #[test]
    fn worker_count_is_unobservable() {
        let one = run_ring(4, 1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(one, run_ring(4, workers), "workers={workers}");
        }
    }

    #[test]
    fn cross_shard_sends_respect_lookahead() {
        let out = run_ring(4, 2);
        // The ping chain starts at t=1000 on shard 0 with ttl 5; each hop
        // is clamped one lookahead (1s) later on the next shard.
        let times: Vec<u64> = out
            .iter()
            .flat_map(|(log, _)| log.iter())
            .map(|(t, _)| *t)
            .collect();
        assert!(times.contains(&1000) && times.contains(&2000) && times.contains(&6000));
        // Five hops from the first seed + three from the second.
        assert_eq!(times.len(), 2 + 5 + 3);
    }

    #[test]
    fn shard_order_within_time_is_seq_order() {
        struct Local(Vec<u32>);
        impl ShardModel for Local {
            type Event = u32;
            type Out = Vec<u32>;
            fn handle(&mut self, _now: SimTime, event: u32, ctx: &mut ShardCtx<u32>) {
                self.0.push(event);
                if event == 1 {
                    // Same-time follow-ups keep insertion order.
                    ctx.schedule(ctx.now(), 10);
                    ctx.schedule(ctx.now(), 11);
                }
            }
            fn finish(self) -> Vec<u32> {
                self.0
            }
        }
        let config = EngineConfig::new(1, 1);
        let mut engine = Engine::new(&config, vec![Local(Vec::new())], &SimRng::new(1));
        engine.seed(0, SimTime(5), 1);
        engine.seed(0, SimTime(5), 2);
        let out = engine.run();
        assert_eq!(out, vec![vec![1, 2, 10, 11]]);
    }

    #[test]
    fn shard_rngs_depend_only_on_seed_and_index() {
        let a = run_ring(4, 1);
        let b = run_ring(4, 4);
        let draws_a: Vec<_> = a.iter().map(|(_, d)| d.clone()).collect();
        let draws_b: Vec<_> = b.iter().map(|(_, d)| d.clone()).collect();
        assert_eq!(draws_a, draws_b);
        // Distinct shards draw distinct streams.
        let flat: Vec<u64> = draws_a.into_iter().flatten().collect();
        let mut dedup = flat.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(flat.len(), dedup.len());
    }

    #[test]
    fn empty_engine_and_empty_shards_terminate() {
        let config = EngineConfig::new(3, 2);
        let models = (0..3)
            .map(|_| Recorder {
                log: Vec::new(),
                draws: Vec::new(),
                forward: false,
            })
            .collect();
        let engine = Engine::new(&config, models, &SimRng::new(0));
        // No seeded events at all: run returns immediately.
        let out = engine.run();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(log, _)| log.is_empty()));
    }

    #[test]
    fn zero_lookahead_is_clamped_and_terminates() {
        let config = EngineConfig::new(2, 2).with_lookahead(SimDuration::ZERO);
        let models = (0..2)
            .map(|_| Recorder {
                log: Vec::new(),
                draws: Vec::new(),
                forward: true,
            })
            .collect();
        let mut engine = Engine::new(&config, models, &SimRng::new(7));
        engine.seed(0, SimTime(10), 2);
        let out = engine.run();
        let events: usize = out.iter().map(|(log, _)| log.len()).sum();
        assert_eq!(events, 3);
    }
}
