//! The bandwidth-aware simulation loop.
//!
//! Under a priced [`NetworkModel`](hetsched_net::NetworkModel) the engine
//! cannot reuse the infinite-network loop (where a pop is simultaneously
//! "compute done" and "next request"): transfers now take time, so they are
//! events of their own, and communication must *overlap* computation or the
//! network cost would be grossly overstated.
//!
//! The loop implements depth-1 prefetch — the master sends a worker its next
//! batch while the current one computes:
//!
//! * when a batch **starts computing**, the worker immediately requests the
//!   next one; its transfer is priced by [`NetState`] and an `Arrive` event
//!   is scheduled;
//! * an arriving batch starts computing at `max(arrival, compute-done)`;
//!   the gap `arrival − compute-done`, when positive, is the worker's
//!   *transfer wait* — the quantity the infinite model assumes away;
//! * worker deaths are unconditional `Death` events pushed before anything
//!   else, so a failure at time `f` is always discovered at `f`. A batch in
//!   flight (or arrived but never started) toward a dead worker is pure
//!   waste: its blocks count as shipped *and* wasted, and its tasks return
//!   to the scheduler exactly once.
//!
//! Fail-stop semantics match the infinite engine: a batch whose computation
//! would finish strictly after the worker's failure time is lost (its blocks
//! and the burned compute time are recorded, its tasks re-allocated), while
//! a batch finishing exactly at the failure time completes.
//!
//! ## Batch storage
//!
//! Batches in flight live in a structure-of-arrays layout: the task ids of
//! every live batch share one [`IdArena`] (a single `Vec<u32>` addressed by
//! `(offset, len)` [`Span`] handles with free-list reuse), and the
//! per-worker `pending`/`ready` queues are flat [`SlotCol`] columns. The
//! steady-state loop touches contiguous memory and performs no per-batch
//! heap allocation; arena growth is bounded — retained id capacity never
//! exceeds `max(1024, 4 × live ids)` thanks to a compaction backstop — so
//! long faulty runs cannot hoard memory the way the old per-worker
//! `Vec<Vec<u32>>` free list could.

use crate::engine::{Engine, SimReport};
use crate::event::EventQueue;
use crate::probe::Recorder;
use crate::scheduler::Scheduler;
use crate::sink::StreamingSink;
use crate::trace::{EventKind, TraceEvent};
use hetsched_net::NetState;
use hetsched_platform::ProcId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// A worker's failure is discovered.
const DEATH: u8 = 0;
/// A transfer reaches its worker.
const ARRIVE: u8 = 1;
/// A batch finishes computing.
const DONE: u8 = 2;
/// A parked worker re-checks the (possibly replenished) task pool.
const RETRY: u8 = 3;

/// Handle to a run of task ids in the [`IdArena`]: `start..start+len` are
/// the live ids; `cap >= len` is the slot's reusable capacity (a freed
/// slot keeps its full extent so it can be recycled first-fit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// The no-batch sentinel (only ever produced for empty slots; stored
    /// batches always hold at least one task).
    const EMPTY: Span = Span {
        start: 0,
        len: 0,
        cap: 0,
    };
}

/// Arena for the task ids of every batch in flight: one shared `Vec<u32>`
/// addressed by [`Span`] handles.
///
/// * [`store`](IdArena::store) copies a batch in, reusing the first free
///   slot that fits (else appending at the tail);
/// * [`release`](IdArena::release) returns a slot, truncating the tail
///   (and absorbing any free slots newly exposed at it) when possible;
/// * [`compact`](IdArena::compact) is the fragmentation backstop: when
///   retained capacity exceeds `max(1024, 4 × live ids)`, the caller
///   gathers every live span and the arena rewrites them front-to-back,
///   dropping all free space.
#[derive(Default)]
struct IdArena {
    ids: Vec<u32>,
    /// Freed slots (`len` unused, `cap` is the reusable extent).
    free: Vec<Span>,
    /// Total live ids across all stored spans.
    live: u32,
    /// Largest `ids` length ever reached (memory high-water, in ids).
    high_water: usize,
}

/// Retained arena capacity below which compaction never triggers.
const ARENA_RETAIN_MIN: usize = 1024;

impl IdArena {
    /// Copies `ids` into the arena (first free slot that fits, else the
    /// tail) and returns the handle. `ids` must be non-empty.
    fn store(&mut self, ids: &[u32]) -> Span {
        let len = u32::try_from(ids.len()).expect("batch too large for id arena");
        debug_assert!(len > 0, "empty batches are never stored");
        self.live += len;
        if let Some(pos) = self.free.iter().position(|s| s.cap >= len) {
            let slot = self.free.swap_remove(pos);
            let start = slot.start as usize;
            self.ids[start..start + ids.len()].copy_from_slice(ids);
            return Span {
                start: slot.start,
                len,
                cap: slot.cap,
            };
        }
        let start = self.ids.len() as u32;
        self.ids.extend_from_slice(ids);
        self.high_water = self.high_water.max(self.ids.len());
        Span {
            start,
            len,
            cap: len,
        }
    }

    /// The ids of a stored span.
    fn get(&self, span: Span) -> &[u32] {
        &self.ids[span.start as usize..(span.start + span.len) as usize]
    }

    /// Returns a span's slot to the arena. Tail slots are truncated away
    /// (together with any free slots that become the new tail); interior
    /// slots go on the free list with their full capacity.
    fn release(&mut self, span: Span) {
        self.live -= span.len;
        if (span.start + span.cap) as usize == self.ids.len() {
            self.ids.truncate(span.start as usize);
            // Free slots now exposed at the tail evaporate too.
            loop {
                let tail = self.ids.len() as u32;
                match self.free.iter().position(|s| s.start + s.cap == tail) {
                    Some(i) => {
                        let s = self.free.swap_remove(i);
                        self.ids.truncate(s.start as usize);
                    }
                    None => break,
                }
            }
        } else {
            self.free.push(Span {
                start: span.start,
                len: 0,
                cap: span.cap,
            });
        }
    }

    /// True when fragmentation (freed-but-retained capacity) exceeds the
    /// backstop bound and [`compact`](IdArena::compact) should run.
    fn needs_compaction(&self) -> bool {
        self.ids.len() > ARENA_RETAIN_MIN.max(4 * self.live as usize)
    }

    /// Rewrites every live span front-to-back (in arena order), drops all
    /// free space, and updates the handles in `spans` in place (order
    /// preserved, so callers can write them back positionally).
    fn compact(&mut self, spans: &mut [Span]) {
        let mut order: Vec<u32> = (0..spans.len() as u32).collect();
        order.sort_unstable_by_key(|&i| spans[i as usize].start);
        let mut cursor: u32 = 0;
        for &oi in &order {
            let s = spans[oi as usize];
            self.ids.copy_within(
                s.start as usize..(s.start + s.len) as usize,
                cursor as usize,
            );
            spans[oi as usize] = Span {
                start: cursor,
                len: s.len,
                cap: s.len,
            };
            cursor += s.len;
        }
        self.ids.truncate(cursor as usize);
        self.free.clear();
        debug_assert_eq!(cursor, self.live, "compaction must keep every live id");
    }
}

/// One parked batch per worker, in structure-of-arrays columns (the
/// `pending` and `ready` queues). `tasks[i] == 0` marks an empty slot —
/// stored batches always allocate at least one task, since retirements
/// ([`Allocation::is_done`](crate::Allocation::is_done)) are handled
/// before parking.
struct SlotCol {
    tasks: Vec<u32>,
    blocks: Vec<u64>,
    span: Vec<Span>,
}

impl SlotCol {
    fn new(p: usize) -> Self {
        SlotCol {
            tasks: vec![0; p],
            blocks: vec![0; p],
            span: vec![Span::EMPTY; p],
        }
    }

    fn is_some(&self, i: usize) -> bool {
        self.tasks[i] != 0
    }

    fn put(&mut self, i: usize, tasks: u32, blocks: u64, span: Span) {
        debug_assert!(tasks > 0, "empty batches are never parked");
        debug_assert!(!self.is_some(i), "slot {i} already occupied");
        self.tasks[i] = tasks;
        self.blocks[i] = blocks;
        self.span[i] = span;
    }

    fn take(&mut self, i: usize) -> Option<(u32, u64, Span)> {
        if self.tasks[i] == 0 {
            return None;
        }
        let b = (self.tasks[i], self.blocks[i], self.span[i]);
        self.tasks[i] = 0;
        self.blocks[i] = 0;
        self.span[i] = Span::EMPTY;
        Some(b)
    }
}

/// Mutable per-run worker state for the networked loop.
struct RunState {
    fail_time: Vec<Option<f64>>,
    dead: Vec<bool>,
    /// Worker was allocated a batch it will not finish; the `Death` event at
    /// its failure time discovers the loss.
    dying: Vec<bool>,
    /// Arena handle to the dying worker's current batch ids
    /// ([`Span::EMPTY`] when none).
    in_flight: Vec<Span>,
    /// Batch currently in transfer (an `Arrive` event is scheduled).
    pending: SlotCol,
    /// Batch arrived while the worker was still computing.
    ready: SlotCol,
    computing: Vec<bool>,
    /// Task count of the batch each worker is computing, consumed by the
    /// `Done` event when return-path pricing charges the write-back.
    done_tasks: Vec<u32>,
    /// When the worker last went idle; `start − idle_since` is its
    /// transfer wait.
    idle_since: Vec<f64>,
    /// Failure-lost ids not yet re-allocated, for re-ship accounting.
    lost_ids: HashSet<u32>,
    /// Shared id storage for every batch in flight.
    arena: IdArena,
    /// Scheduler fill buffer: handed to `on_request` empty (per the
    /// scheduler contract), then copied into the arena. Reused across
    /// requests, so the steady-state loop performs no heap allocation.
    scratch: Vec<u32>,
    /// Reusable span buffer for compaction sweeps.
    gather: Vec<Span>,
    /// `(kind, worker)` events. `Death` events are pushed first and so
    /// carry the lowest sequence numbers: at time `f` a death pops before
    /// any same-time arrival or retry.
    q: EventQueue<(u8, ProcId)>,
    net: NetState,
}

impl RunState {
    /// Runs the compaction backstop: when the arena says fragmentation
    /// exceeds the bound, gathers every live span (fixed worker order),
    /// compacts, and writes the relocated handles back.
    fn maybe_compact(&mut self) {
        if !self.arena.needs_compaction() {
            return;
        }
        let p = self.dead.len();
        let mut spans = std::mem::take(&mut self.gather);
        spans.clear();
        for i in 0..p {
            if self.pending.is_some(i) {
                spans.push(self.pending.span[i]);
            }
            if self.ready.is_some(i) {
                spans.push(self.ready.span[i]);
            }
            if self.in_flight[i].len > 0 {
                spans.push(self.in_flight[i]);
            }
        }
        self.arena.compact(&mut spans);
        let mut j = 0;
        for i in 0..p {
            if self.pending.is_some(i) {
                self.pending.span[i] = spans[j];
                j += 1;
            }
            if self.ready.is_some(i) {
                self.ready.span[i] = spans[j];
                j += 1;
            }
            if self.in_flight[i].len > 0 {
                self.in_flight[i] = spans[j];
                j += 1;
            }
        }
        self.gather = spans;
    }
}

impl<'a, S: Scheduler> Engine<'a, S> {
    pub(crate) fn run_networked<K: StreamingSink>(
        mut self,
        rng: &mut StdRng,
        mut rec: Option<&mut Recorder<K>>,
    ) -> (SimReport, S, ()) {
        let p = self.platform.len();
        let mut st = RunState {
            fail_time: self
                .platform
                .procs()
                .map(|k| self.failures.fail_time(k))
                .collect(),
            dead: vec![false; p],
            dying: vec![false; p],
            in_flight: vec![Span::EMPTY; p],
            pending: SlotCol::new(p),
            ready: SlotCol::new(p),
            computing: vec![false; p],
            done_tasks: vec![0; p],
            idle_since: vec![0.0; p],
            lost_ids: HashSet::new(),
            arena: IdArena::default(),
            scratch: Vec::new(),
            gather: Vec::new(),
            q: EventQueue::new(),
            net: {
                let net = NetState::new(self.network, p, self.platform.link_latencies().to_vec());
                match self.platform.link_bandwidths() {
                    Some(bws) => net.with_worker_bandwidths(bws.to_vec()),
                    None => net,
                }
            },
        };

        // Unconditional death events, pushed before anything else so they
        // carry the lowest sequence numbers and failures are discovered
        // exactly at their time.
        for k in self.platform.procs() {
            if let Some(f) = st.fail_time[k.idx()] {
                st.q.push(f, (DEATH, k));
            }
        }

        if let Some(r) = rec.as_deref_mut() {
            // Pre-size the trace (see the infinite loop for the estimate;
            // networked runs add roughly one transfer + wait per batch).
            r.reserve_events((2 * self.scheduler.total_tasks() + p).min(1 << 20), p);
            // Anchor the probed trajectory at t = 0.
            r.sample(0.0, &self.scheduler, &self.ledger, Some(&st.net));
        }

        // All workers request at t = 0 in a seed-shuffled order; transfers
        // are priced (and the link contended) in that order.
        let mut initial: Vec<ProcId> = self.platform.procs().collect();
        initial.shuffle(rng);
        for k in initial {
            self.net_request(&mut st, k, 0.0, rng, &mut rec);
        }

        while let Some((now, (kind, k))) = st.q.pop() {
            let i = k.idx();
            match kind {
                DEATH => {
                    if st.dead[i] {
                        continue;
                    }
                    st.dead[i] = true;
                    if st.dying[i] {
                        // The batch it was computing dies with it.
                        st.dying[i] = false;
                        let span = st.in_flight[i];
                        st.in_flight[i] = Span::EMPTY;
                        self.ledger.record_lost(k, span.len as usize);
                        st.lost_ids.extend(st.arena.get(span).iter().copied());
                        self.scheduler.on_tasks_lost(st.arena.get(span));
                        st.arena.release(span);
                    }
                    // A batch in transfer (or arrived but never started) is
                    // pure waste: the master spent the bandwidth, the tasks
                    // go back to the pool.
                    let stranded = [st.pending.take(i), st.ready.take(i)];
                    for (_tasks, blocks, span) in stranded.into_iter().flatten() {
                        self.ledger.record(k, 0, blocks, 0.0);
                        self.ledger.record_wasted(k, blocks);
                        self.ledger.record_lost(k, span.len as usize);
                        st.lost_ids.extend(st.arena.get(span).iter().copied());
                        self.scheduler.on_tasks_lost(st.arena.get(span));
                        st.arena.release(span);
                        if let Some(r) = rec.as_deref_mut() {
                            r.observe(
                                TraceEvent {
                                    kind: EventKind::Stranded,
                                    time: now,
                                    proc: k,
                                    tasks: 0,
                                    blocks,
                                    duration: 0.0,
                                },
                                &self.scheduler,
                                &self.ledger,
                                Some(&st.net),
                            );
                        }
                    }
                    st.maybe_compact();
                }
                ARRIVE => {
                    if st.dead[i] {
                        continue;
                    }
                    let (tasks, blocks, span) = match st.pending.take(i) {
                        Some(b) => b,
                        None => continue,
                    };
                    if st.computing[i] || st.dying[i] {
                        // Current batch still running (or doomed); the
                        // arrived batch waits at the worker.
                        st.ready.put(i, tasks, blocks, span);
                    } else {
                        self.net_start(&mut st, k, tasks, blocks, span, now, rng, &mut rec);
                    }
                }
                DONE => {
                    if st.dead[i] {
                        continue;
                    }
                    if self.price_returns && st.done_tasks[i] > 0 {
                        // Write the finished batch's results (one C block
                        // per task) back over the same master channels the
                        // input path uses, so returns contend with sends.
                        // Priced here — at the batch's finish time — to keep
                        // channel bookings monotonic in event time.
                        let returned = st.done_tasks[i] as u64;
                        let ret = st.net.send(k, returned, now);
                        self.ledger.record_returned(k, returned);
                        self.makespan = self.makespan.max(ret.arrival);
                    }
                    st.computing[i] = false;
                    st.idle_since[i] = now;
                    if let Some((tasks, blocks, span)) = st.ready.take(i) {
                        self.net_start(&mut st, k, tasks, blocks, span, now, rng, &mut rec);
                    } else if !st.pending.is_some(i) {
                        self.net_request(&mut st, k, now, rng, &mut rec);
                    }
                    // else: the prefetched batch is still in flight; its
                    // arrival starts it.
                }
                _ => {
                    // RETRY: the pool may have been replenished by a death
                    // processed just before this event.
                    if st.dead[i]
                        || st.dying[i]
                        || st.computing[i]
                        || st.pending.is_some(i)
                        || st.ready.is_some(i)
                    {
                        continue;
                    }
                    self.net_request(&mut st, k, now, rng, &mut rec);
                }
            }
        }

        if let Some(r) = rec {
            // Anchor the probed trajectory at the makespan.
            r.sample(self.makespan, &self.scheduler, &self.ledger, Some(&st.net));
        }

        assert_eq!(
            self.scheduler.remaining(),
            0,
            "engine stopped with unallocated tasks"
        );
        debug_assert_eq!(st.arena.live, 0, "all spans released at drain");
        let total_blocks = self.ledger.total_blocks();
        let lost_tasks = self.ledger.total_lost_tasks();
        let reshipped_blocks = self.ledger.total_reshipped_blocks();
        let wasted_blocks = self.ledger.total_wasted_blocks();
        let link_utilization = st.net.utilization(self.makespan);
        let max_queue_depth = st.net.max_queue_depth();
        let returned_blocks = self.ledger.total_returned_blocks();
        (
            SimReport {
                ledger: self.ledger,
                makespan: self.makespan,
                total_blocks,
                lost_tasks,
                reshipped_blocks,
                link_utilization,
                max_queue_depth,
                wasted_blocks,
                tier_blocks: 0,
                returned_blocks,
            },
            self.scheduler,
            (),
        )
    }

    /// Asks the scheduler for worker `k`'s next batch and puts it on the
    /// wire. Parks the worker (via a `Retry` event at the next possible
    /// death) when the pool is empty but may be replenished.
    fn net_request<K: StreamingSink>(
        &mut self,
        st: &mut RunState,
        k: ProcId,
        now: f64,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) {
        let i = k.idx();
        if st.dead[i] {
            return;
        }
        if self.scheduler.remaining() == 0 {
            if st.computing[i] || st.dying[i] {
                // A busy worker re-requests at compute-done; no need to park.
                return;
            }
            // Tasks only return to the pool when a failure is discovered:
            // wake at the earliest death still ahead of us, or drain.
            let earliest = self
                .platform
                .procs()
                .filter(|j| !st.dead[j.idx()])
                .filter_map(|j| st.fail_time[j.idx()])
                .filter(|&f| f >= now)
                .fold(f64::INFINITY, f64::min);
            if earliest.is_finite() {
                st.q.push(earliest.max(now), (RETRY, k));
            }
            return;
        }
        // The scratch buffer is handed to the scheduler empty (per the
        // contract) and copied into the arena afterwards; neither step
        // allocates once warm.
        st.scratch.clear();
        let alloc = self.scheduler.on_request(k, rng, &mut st.scratch);
        debug_assert_eq!(
            st.scratch.len(),
            alloc.tasks,
            "scheduler contract: out ids == tasks"
        );
        if let Some(r) = rec.as_deref_mut() {
            r.note_phase(now, k, &self.scheduler);
        }
        if alloc.is_done() {
            // Worker retired; its blocks (normally zero) still ship.
            let _ = st.net.send(k, alloc.blocks, now);
            self.ledger.record(k, 0, alloc.blocks, 0.0);
            if let Some(r) = rec.as_deref_mut() {
                r.observe(
                    TraceEvent {
                        kind: EventKind::Retire,
                        time: now,
                        proc: k,
                        tasks: 0,
                        blocks: alloc.blocks,
                        duration: 0.0,
                    },
                    &self.scheduler,
                    &self.ledger,
                    Some(&st.net),
                );
            }
            return;
        }
        if !st.lost_ids.is_empty() {
            // Re-ship accounting at batch granularity, as in the infinite
            // engine.
            let mut reallocates = false;
            for id in &st.scratch {
                if st.lost_ids.remove(id) {
                    reallocates = true;
                }
            }
            if reallocates {
                self.ledger.record_reshipped(k, alloc.blocks);
            }
        }
        let plan = st.net.send(k, alloc.blocks, now);
        if alloc.blocks > 0 {
            if let Some(r) = rec.as_deref_mut() {
                // The channel-busy interval, for the net lane of the gantt
                // chart. Its blocks duplicate the allocation event that the
                // batch will emit, so sinks never re-count them.
                r.observe(
                    TraceEvent {
                        kind: EventKind::Transfer,
                        time: plan.start,
                        proc: k,
                        tasks: 0,
                        blocks: alloc.blocks,
                        duration: plan.end - plan.start,
                    },
                    &self.scheduler,
                    &self.ledger,
                    Some(&st.net),
                );
            }
        }
        let span = st.arena.store(&st.scratch);
        st.pending.put(i, alloc.tasks as u32, alloc.blocks, span);
        st.q.push(plan.arrival, (ARRIVE, k));
    }

    /// Starts computing an arrived batch at time `now`, charging the
    /// worker's transfer wait, and prefetches the next batch so its
    /// transfer overlaps this computation.
    #[allow(clippy::too_many_arguments)]
    fn net_start<K: StreamingSink>(
        &mut self,
        st: &mut RunState,
        k: ProcId,
        tasks: u32,
        blocks: u64,
        span: Span,
        now: f64,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) {
        let i = k.idx();
        let wait = now - st.idle_since[i];
        self.ledger.record_wait(k, wait);
        if wait > 0.0 {
            if let Some(r) = rec.as_deref_mut() {
                r.observe(
                    TraceEvent {
                        kind: EventKind::Wait,
                        time: st.idle_since[i],
                        proc: k,
                        tasks: 0,
                        blocks: 0,
                        duration: wait,
                    },
                    &self.scheduler,
                    &self.ledger,
                    Some(&st.net),
                );
            }
        }
        let dur = self.speeds.batch_duration(k, tasks as usize, rng);
        let finish = now + dur;
        match st.fail_time[i] {
            Some(f) if f < finish => {
                // Dies mid-batch: blocks shipped and `f − now` of compute
                // burned, no task completes. The death event discovers it;
                // the span stays live until then.
                self.ledger.record(k, 0, blocks, f - now);
                st.in_flight[i] = span;
                st.dying[i] = true;
                if let Some(r) = rec.as_deref_mut() {
                    r.observe(
                        TraceEvent {
                            kind: EventKind::Lost,
                            time: now,
                            proc: k,
                            tasks: 0,
                            blocks,
                            duration: f - now,
                        },
                        &self.scheduler,
                        &self.ledger,
                        Some(&st.net),
                    );
                }
            }
            _ => {
                self.ledger.record(k, tasks as usize, blocks, dur);
                if let Some(r) = rec.as_deref_mut() {
                    r.observe(
                        TraceEvent {
                            kind: EventKind::Batch,
                            time: now,
                            proc: k,
                            tasks: tasks as usize,
                            blocks,
                            duration: dur,
                        },
                        &self.scheduler,
                        &self.ledger,
                        Some(&st.net),
                    );
                }
                self.makespan = self.makespan.max(finish);
                st.computing[i] = true;
                st.done_tasks[i] = tasks;
                st.q.push(finish, (DONE, k));
                // The batch is fully accounted; its arena slot frees up.
                st.arena.release(span);
            }
        }
        // Depth-1 prefetch. The master cannot know a worker is doomed, so
        // dying workers prefetch too — that bandwidth ends up wasted.
        self.net_request(st, k, now, rng, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::{IdArena, Span, ARENA_RETAIN_MIN};
    use crate::engine::Engine;
    use crate::scheduler::{Allocation, Scheduler};
    use hetsched_net::NetworkModel;
    use hetsched_platform::{FailureModel, Platform, ProcId, SpeedModel};
    use hetsched_util::rng::rng_for;
    use rand::rngs::StdRng;

    /// Pool-backed toy strategy: one block per task, supports reallocation.
    struct PoolSched {
        pool: Vec<u32>,
        total: usize,
        batch: usize,
        counts: Vec<i32>,
    }

    fn pool(total: usize, batch: usize) -> PoolSched {
        PoolSched {
            pool: (0..total as u32).rev().collect(),
            total,
            batch,
            counts: vec![0; total],
        }
    }

    impl Scheduler for PoolSched {
        fn on_request(&mut self, _k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
            let t = self.batch.min(self.pool.len());
            for _ in 0..t {
                let id = self.pool.pop().expect("pool underflow");
                self.counts[id as usize] += 1;
                out.push(id);
            }
            Allocation {
                tasks: t,
                blocks: t as u64,
            }
        }
        fn on_tasks_lost(&mut self, ids: &[u32]) {
            for &id in ids {
                self.counts[id as usize] -= 1;
                self.pool.push(id);
            }
        }
        fn remaining(&self) -> usize {
            self.pool.len()
        }
        fn total_tasks(&self) -> usize {
            self.total
        }
        fn name(&self) -> &'static str {
            "PoolSched"
        }
    }

    fn one_port(bw: f64) -> NetworkModel {
        NetworkModel::OnePort { master_bw: bw }
    }

    #[test]
    fn arena_store_get_roundtrip_and_tail_release() {
        let mut a = IdArena::default();
        let s1 = a.store(&[1, 2, 3]);
        let s2 = a.store(&[4, 5]);
        assert_eq!(a.get(s1), &[1, 2, 3]);
        assert_eq!(a.get(s2), &[4, 5]);
        assert_eq!(a.live, 5);
        // Releasing the tail truncates instead of fragmenting.
        a.release(s2);
        assert_eq!(a.ids.len(), 3);
        assert!(a.free.is_empty());
        // Releasing the new tail drains the arena completely.
        a.release(s1);
        assert_eq!(a.ids.len(), 0);
        assert_eq!(a.live, 0);
    }

    #[test]
    fn arena_reuses_freed_interior_slots_first_fit() {
        let mut a = IdArena::default();
        let s1 = a.store(&[1, 2, 3]);
        let _s2 = a.store(&[4, 5]);
        a.release(s1); // interior → free list
        assert_eq!(a.free.len(), 1);
        // A batch that fits recycles the slot without growing the arena.
        let s3 = a.store(&[7, 8]);
        assert_eq!(s3.start, 0);
        assert_eq!(s3.cap, 3, "slot keeps its full capacity");
        assert_eq!(a.get(s3), &[7, 8]);
        assert_eq!(a.ids.len(), 5, "no growth");
    }

    #[test]
    fn arena_release_absorbs_free_slots_exposed_at_the_tail() {
        let mut a = IdArena::default();
        let s1 = a.store(&[1, 2]);
        let s2 = a.store(&[3, 4]);
        let s3 = a.store(&[5, 6]);
        a.release(s2); // interior
        assert_eq!(a.free.len(), 1);
        a.release(s3); // tail: truncates s3, then absorbs s2's slot
        assert_eq!(a.ids.len(), 2);
        assert!(a.free.is_empty());
        a.release(s1);
        assert_eq!(a.ids.len(), 0);
    }

    #[test]
    fn arena_compaction_bounds_retained_capacity() {
        let mut a = IdArena::default();
        // Adversarial churn: each round's batch is bigger than every freed
        // slot (so first-fit can't recycle), and a small survivor pins the
        // tail so release can't truncate. Retained capacity balloons.
        let mut live: Vec<Span> = Vec::new();
        for round in 0..8u32 {
            let big = vec![9u32; 600 + round as usize];
            let s_big = a.store(&big);
            let s_keep = a.store(&[2 * round + 1, 2 * round + 2]);
            a.release(s_big);
            live.push(s_keep);
        }
        assert!(a.ids.len() > ARENA_RETAIN_MIN, "fragmented past the bound");
        assert!(a.needs_compaction());
        let before: Vec<Vec<u32>> = live.iter().map(|&s| a.get(s).to_vec()).collect();
        a.compact(&mut live);
        assert_eq!(a.ids.len(), a.live as usize, "all free space dropped");
        assert!(a.ids.len() <= ARENA_RETAIN_MIN.max(4 * a.live as usize));
        assert!(!a.needs_compaction());
        for (s, old) in live.iter().zip(&before) {
            assert_eq!(a.get(*s), &old[..], "live ids survive compaction");
        }
    }

    #[test]
    fn networked_run_completes_all_tasks() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 70.0]);
        let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, pool(600, 4))
            .with_failures(&FailureModel::none())
            .with_network(one_port(50.0))
            .run(&mut rng_for(0, 0));
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 600);
        assert_eq!(report.total_blocks, 600);
        assert!(sched.counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn networked_is_deterministic_under_seed() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let go = || {
            Engine::new(&pf, SpeedModel::dyn5(), pool(500, 3))
                .with_failures(&FailureModel::none())
                .with_network(one_port(25.0))
                .run(&mut rng_for(7, 0))
                .0
        };
        let (r1, r2) = (go(), go());
        assert_eq!(r1.total_blocks, r2.total_blocks);
        assert_eq!(r1.ledger.tasks_per_proc(), r2.ledger.tasks_per_proc());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.link_utilization, r2.link_utilization);
        assert_eq!(r1.max_queue_depth, r2.max_queue_depth);
    }

    #[test]
    fn makespan_respects_the_bandwidth_bound() {
        // Every block crosses the one-port link, so the makespan can never
        // beat total_blocks / master_bw.
        let pf = Platform::from_speeds(vec![40.0, 60.0]);
        let bw = 10.0;
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, pool(400, 5))
            .with_failures(&FailureModel::none())
            .with_network(one_port(bw))
            .run(&mut rng_for(1, 0));
        let comm_lb = report.total_blocks as f64 / bw;
        assert!(
            report.makespan >= comm_lb - 1e-9,
            "makespan {} below the communication bound {}",
            report.makespan,
            comm_lb
        );
        // Comm-bound regime: the link is the bottleneck, so it is nearly
        // saturated and the workers mostly wait.
        assert!(report.link_utilization > 0.9, "{}", report.link_utilization);
        assert!(report.ledger.total_transfer_wait() > 0.0);
    }

    #[test]
    fn generous_bandwidth_approaches_the_infinite_makespan() {
        let pf = Platform::from_speeds(vec![25.0, 75.0]);
        let (inf, _) = Engine::new(&pf, SpeedModel::Fixed, pool(500, 5)).run(&mut rng_for(2, 0));
        let (fat, _) = Engine::new(&pf, SpeedModel::Fixed, pool(500, 5))
            .with_failures(&FailureModel::none())
            .with_network(one_port(1e6))
            .run(&mut rng_for(2, 0));
        // With an effectively free link, the only slowdown left is the
        // initial (un-overlapped) transfer of the first batches.
        assert!(
            fat.makespan <= inf.makespan * 1.05,
            "fat {} vs infinite {}",
            fat.makespan,
            inf.makespan
        );
        assert_eq!(fat.total_blocks, inf.total_blocks);
    }

    #[test]
    fn tighter_bandwidth_never_helps() {
        let pf = Platform::from_speeds(vec![30.0, 70.0]);
        let mk = |bw: f64| {
            Engine::new(&pf, SpeedModel::Fixed, pool(300, 4))
                .with_failures(&FailureModel::none())
                .with_network(one_port(bw))
                .run(&mut rng_for(3, 0))
                .0
                .makespan
        };
        assert!(mk(5.0) >= mk(20.0) - 1e-9);
        assert!(mk(20.0) >= mk(100.0) - 1e-9);
    }

    #[test]
    fn latency_delays_completion() {
        let pf = Platform::from_speeds(vec![50.0, 50.0]);
        let lagged = pf.clone().with_uniform_link_latency(0.5);
        let mk = |p: &Platform| {
            Engine::new(p, SpeedModel::Fixed, pool(100, 10))
                .with_failures(&FailureModel::none())
                .with_network(one_port(200.0))
                .run(&mut rng_for(4, 0))
                .0
                .makespan
        };
        assert!(mk(&lagged) > mk(&pf) + 0.4, "latency must show up");
    }

    #[test]
    fn multiport_beats_one_port_at_equal_aggregate() {
        // Same aggregate bandwidth, but the multiport master overlaps
        // transfers to different workers; with per-worker caps the slow
        // serial phases shrink.
        let pf = Platform::from_speeds(vec![20.0, 20.0, 20.0, 20.0]);
        let run_with = |net: NetworkModel| {
            Engine::new(&pf, SpeedModel::Fixed, pool(400, 5))
                .with_failures(&FailureModel::none())
                .with_network(net)
                .run(&mut rng_for(5, 0))
                .0
        };
        let one = run_with(one_port(40.0));
        let multi = run_with(NetworkModel::BoundedMultiport {
            master_bw: 40.0,
            worker_bw: 10.0,
        });
        assert!(
            multi.makespan <= one.makespan + 1e-9,
            "multiport {} vs one-port {}",
            multi.makespan,
            one.makespan
        );
    }

    #[test]
    fn death_with_batch_in_flight_wastes_bandwidth() {
        // Slow link: worker 0 dies while transfers toward it are pending,
        // so some blocks are shipped but never computed on.
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 1.0);
        let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, pool(100, 5))
            .with_failures(&failures)
            .with_network(one_port(8.0))
            .run(&mut rng_for(6, 0));
        assert_eq!(report.ledger.total_tasks(), 100);
        assert!(
            sched.counts.iter().all(|&c| c == 1),
            "every task computed exactly once net of losses"
        );
        assert!(report.lost_tasks > 0);
        assert!(
            report.wasted_blocks > 0,
            "a transfer in flight to the dead worker must be attributed"
        );
        assert_eq!(
            report.wasted_blocks,
            report.ledger.wasted_blocks(ProcId(0)),
            "waste is attributed to the dead worker"
        );
        // Wasted blocks were still shipped: they are part of total volume.
        assert!(report.total_blocks > 100);
    }

    #[test]
    fn straggler_and_network_compose() {
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().slow_down(ProcId(0), 4.0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, pool(600, 2))
            .with_failures(&failures)
            .with_network(one_port(100.0))
            .run(&mut rng_for(8, 0));
        assert_eq!(report.ledger.total_tasks(), 600);
        assert_eq!(report.lost_tasks, 0);
        let t0 = report.ledger.tasks(ProcId(0)) as f64;
        // Effective speeds 2.5 vs 10 ⇒ straggler does ~1/5 of the work.
        assert!((t0 / 600.0 - 0.2).abs() < 0.05, "t0 = {t0}");
    }

    #[test]
    fn trace_reconciles_with_ledger_under_network_and_failures() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let failures = FailureModel::none().fail_at(ProcId(2), 0.9);
        let (report, _, trace) = Engine::new(&pf, SpeedModel::Fixed, pool(300, 4))
            .with_failures(&failures)
            .with_network(one_port(30.0))
            .run_traced(&mut rng_for(9, 0));
        // Allocation kinds reconcile exactly with the ledger; overlay kinds
        // (transfers, waits) carry no ledger-counted volume.
        let alloc_events = || trace.events().iter().filter(|e| e.kind.is_allocation());
        let trace_blocks: u64 = alloc_events().map(|e| e.blocks).sum();
        assert_eq!(trace_blocks, report.ledger.total_blocks());
        let trace_tasks: usize = alloc_events().map(|e| e.tasks).sum();
        assert_eq!(trace_tasks as u64, report.ledger.total_tasks());
        let requests: u64 = pf.procs().map(|k| report.ledger.requests(k)).sum();
        assert_eq!(trace.allocation_count() as u64, requests);
        for k in pf.procs() {
            assert!((trace.busy_time(k) - report.ledger.busy(k)).abs() < 1e-9);
        }
    }

    #[test]
    fn transfer_and_wait_events_reconcile_with_net_metrics() {
        use crate::trace::EventKind;
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let (report, _, trace) = Engine::new(&pf, SpeedModel::Fixed, pool(300, 4))
            .with_failures(&FailureModel::none())
            .with_network(one_port(20.0))
            .run_traced(&mut rng_for(11, 0));
        // Every shipped block rides exactly one transfer event.
        let transfer_blocks: u64 = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Transfer)
            .map(|e| e.blocks)
            .sum();
        assert_eq!(transfer_blocks, report.total_blocks);
        // Wait events sum to the ledger's transfer-wait total.
        let wait: f64 = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Wait)
            .map(|e| e.duration)
            .sum();
        assert!(
            (wait - report.ledger.total_transfer_wait()).abs() < 1e-9,
            "trace wait {wait} vs ledger {}",
            report.ledger.total_transfer_wait()
        );
        assert!(wait > 0.0, "a comm-bound run must record waits");
    }

    #[test]
    fn failure_discovery_unparks_drained_workers_under_network() {
        // Mirrors the infinite-engine test: the fast worker drains the pool
        // long before the slow worker's death returns tasks to it.
        let pf = Platform::from_speeds(vec![1.0, 100.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 5.0);
        let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, pool(20, 10))
            .with_failures(&failures)
            .with_network(one_port(1000.0))
            .run(&mut rng_for(10, 0));
        assert_eq!(report.ledger.total_tasks(), 20);
        assert!(sched.counts.iter().all(|&c| c == 1));
        assert!(report.lost_tasks >= 10, "{}", report.lost_tasks);
        // Recovery can only start once the death is discovered at t = 5.
        assert!(report.makespan > 5.0, "{}", report.makespan);
    }
}
