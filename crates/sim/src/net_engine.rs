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
//! Depth-1 prefetch bounds what a worker can hold: one batch in transfer
//! (`pending`), one arrived while it still computes (`ready`), and one it
//! is computing but will not finish (`in_flight`, kept until its death is
//! discovered). Each is a per-worker `Vec<u32>` of task ids, so a worker
//! owns exactly three id buffers. The scheduler fills the `pending` buffer
//! directly; a batch then moves between the three by `mem::swap` with an
//! empty buffer, and a finished or lost batch is cleared in place. No step
//! copies ids or searches for space. Every buffer keeps its capacity for
//! the worker's next batch, and no buffer grows past what the worker's
//! largest batch needed.
//!
//! ## Per-batch cost
//!
//! No per-batch step looks at every worker or every queued transfer:
//! [`NetState::send`] prunes its queue-depth list from the front, and a
//! worker parked on an empty pool finds the next death through a cursor
//! over the fail times sorted once per run.

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
use std::mem;

/// A worker's failure is discovered.
const DEATH: u8 = 0;
/// A transfer reaches its worker.
const ARRIVE: u8 = 1;
/// A batch finishes computing.
const DONE: u8 = 2;
/// A parked worker re-checks the (possibly replenished) task pool.
const RETRY: u8 = 3;

/// One parked batch per worker: its task ids and its block count. An empty
/// id buffer marks an empty slot — parked batches always hold at least one
/// task, since retirements
/// ([`Allocation::is_done`](crate::Allocation::is_done)) are handled before
/// parking.
struct SlotCol {
    ids: Vec<Vec<u32>>,
    blocks: Vec<u64>,
}

impl SlotCol {
    fn new(p: usize) -> Self {
        SlotCol {
            ids: vec![Vec::new(); p],
            blocks: vec![0; p],
        }
    }

    fn is_some(&self, i: usize) -> bool {
        !self.ids[i].is_empty()
    }
}

/// Mutable per-run worker state for the networked loop.
struct RunState {
    fail_time: Vec<Option<f64>>,
    /// Finite failure times in increasing order, and the cursor past the
    /// leading workers already dead: the next death a parked worker can
    /// wait for.
    deaths: Vec<(f64, ProcId)>,
    next_death: usize,
    dead: Vec<bool>,
    /// Ids of the batch a doomed worker is computing; non-empty exactly
    /// while the worker is *dying* (the `Death` event at its failure time
    /// discovers the loss).
    in_flight: Vec<Vec<u32>>,
    /// Batch currently in transfer (an `Arrive` event is scheduled). The
    /// scheduler fills this buffer; it is empty whenever a request is made.
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
    /// `(kind, worker)` events. `Death` events are pushed first and so
    /// carry the lowest sequence numbers: at time `f` a death pops before
    /// any same-time arrival or retry.
    q: EventQueue<(u8, ProcId)>,
    net: NetState,
}

impl RunState {
    fn dying(&self, i: usize) -> bool {
        !self.in_flight[i].is_empty()
    }
}

impl<'a, S: Scheduler> Engine<'a, S> {
    pub(crate) fn run_networked<K: StreamingSink>(
        mut self,
        rng: &mut StdRng,
        mut rec: Option<&mut Recorder<K>>,
    ) -> (SimReport, S, ()) {
        let st = self.net_loop(rng, &mut rec);
        assert_eq!(
            self.scheduler.remaining(),
            0,
            "engine stopped with unallocated tasks"
        );
        debug_assert!(
            st.pending
                .ids
                .iter()
                .chain(&st.ready.ids)
                .chain(&st.in_flight)
                .all(Vec::is_empty),
            "every batch buffer drained"
        );
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

    /// Runs the event loop to drain and returns the final worker state.
    fn net_loop<K: StreamingSink>(
        &mut self,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) -> RunState {
        let p = self.platform.len();
        let fail_time: Vec<Option<f64>> = self
            .platform
            .procs()
            .map(|k| self.failures.fail_time(k))
            .collect();
        let mut deaths: Vec<(f64, ProcId)> = self
            .platform
            .procs()
            .filter_map(|k| fail_time[k.idx()].filter(|f| f.is_finite()).map(|f| (f, k)))
            .collect();
        deaths.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut st = RunState {
            fail_time,
            deaths,
            next_death: 0,
            dead: vec![false; p],
            in_flight: vec![Vec::new(); p],
            pending: SlotCol::new(p),
            ready: SlotCol::new(p),
            computing: vec![false; p],
            done_tasks: vec![0; p],
            idle_since: vec![0.0; p],
            lost_ids: HashSet::new(),
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
            self.net_request(&mut st, k, 0.0, rng, rec);
        }

        while let Some((now, (kind, k))) = st.q.pop() {
            let i = k.idx();
            match kind {
                DEATH => {
                    if st.dead[i] {
                        continue;
                    }
                    st.dead[i] = true;
                    if st.dying(i) {
                        // The batch it was computing dies with it.
                        let ids = &mut st.in_flight[i];
                        self.ledger.record_lost(k, ids.len());
                        st.lost_ids.extend(ids.iter().copied());
                        self.scheduler.on_tasks_lost(ids);
                        ids.clear();
                    }
                    // A batch in transfer (or arrived but never started) is
                    // pure waste: the master spent the bandwidth, the tasks
                    // go back to the pool.
                    for slot in [&mut st.pending, &mut st.ready] {
                        if !slot.is_some(i) {
                            continue;
                        }
                        let blocks = slot.blocks[i];
                        let ids = &mut slot.ids[i];
                        self.ledger.record(k, 0, blocks, 0.0);
                        self.ledger.record_wasted(k, blocks);
                        self.ledger.record_lost(k, ids.len());
                        st.lost_ids.extend(ids.iter().copied());
                        self.scheduler.on_tasks_lost(ids);
                        ids.clear();
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
                }
                ARRIVE => {
                    if st.dead[i] || !st.pending.is_some(i) {
                        continue;
                    }
                    if st.computing[i] || st.dying(i) {
                        // Current batch still running (or doomed); the
                        // arrived batch waits at the worker.
                        mem::swap(&mut st.pending.ids[i], &mut st.ready.ids[i]);
                        st.ready.blocks[i] = st.pending.blocks[i];
                    } else {
                        mem::swap(&mut st.pending.ids[i], &mut st.in_flight[i]);
                        let blocks = st.pending.blocks[i];
                        self.net_start(&mut st, k, blocks, now, rng, rec);
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
                    if st.ready.is_some(i) {
                        mem::swap(&mut st.ready.ids[i], &mut st.in_flight[i]);
                        let blocks = st.ready.blocks[i];
                        self.net_start(&mut st, k, blocks, now, rng, rec);
                    } else if !st.pending.is_some(i) {
                        self.net_request(&mut st, k, now, rng, rec);
                    }
                    // else: the prefetched batch is still in flight; its
                    // arrival starts it.
                }
                _ => {
                    // RETRY: the pool may have been replenished by a death
                    // processed just before this event.
                    if st.dead[i]
                        || st.dying(i)
                        || st.computing[i]
                        || st.pending.is_some(i)
                        || st.ready.is_some(i)
                    {
                        continue;
                    }
                    self.net_request(&mut st, k, now, rng, rec);
                }
            }
        }

        if let Some(r) = rec.as_deref_mut() {
            // Anchor the probed trajectory at the makespan.
            r.sample(self.makespan, &self.scheduler, &self.ledger, Some(&st.net));
        }
        st
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
            if st.computing[i] || st.dying(i) {
                // A busy worker re-requests at compute-done; no need to park.
                return;
            }
            // Tasks only return to the pool when a failure is discovered:
            // wake at the earliest death still ahead of us, or drain. A
            // death before `now` has already popped and marked its worker
            // dead, so the first live worker in fail-time order holds the
            // earliest death at or after `now`.
            while st
                .deaths
                .get(st.next_death)
                .is_some_and(|&(_, j)| st.dead[j.idx()])
            {
                st.next_death += 1;
            }
            if let Some(&(earliest, _)) = st.deaths.get(st.next_death) {
                st.q.push(earliest.max(now), (RETRY, k));
            }
            return;
        }
        let ids = &mut st.pending.ids[i];
        debug_assert!(ids.is_empty(), "worker {i} requests with a batch pending");
        let alloc = self.scheduler.on_request(k, rng, ids);
        debug_assert_eq!(
            ids.len(),
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
            for id in &st.pending.ids[i] {
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
        st.pending.blocks[i] = alloc.blocks;
        st.q.push(plan.arrival, (ARRIVE, k));
    }

    /// Starts computing the batch just swapped into worker `k`'s (empty)
    /// `in_flight` buffer at time `now`, charging the worker's transfer wait, and
    /// prefetches the next batch so its transfer overlaps this computation.
    fn net_start<K: StreamingSink>(
        &mut self,
        st: &mut RunState,
        k: ProcId,
        blocks: u64,
        now: f64,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) {
        let i = k.idx();
        let tasks = st.in_flight[i].len();
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
        let dur = self.speeds.batch_duration(k, tasks, rng);
        let finish = now + dur;
        match st.fail_time[i] {
            Some(f) if f < finish => {
                // Dies mid-batch: blocks shipped and `f − now` of compute
                // burned, no task completes. The death event discovers it;
                // the ids stay in `in_flight` until then.
                self.ledger.record(k, 0, blocks, f - now);
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
                self.ledger.record(k, tasks, blocks, dur);
                if let Some(r) = rec.as_deref_mut() {
                    r.observe(
                        TraceEvent {
                            kind: EventKind::Batch,
                            time: now,
                            proc: k,
                            tasks,
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
                st.done_tasks[i] = tasks as u32;
                st.q.push(finish, (DONE, k));
                // The batch is fully accounted; its buffer empties for the
                // worker's next one.
                st.in_flight[i].clear();
            }
        }
        // Depth-1 prefetch. The master cannot know a worker is doomed, so
        // dying workers prefetch too — that bandwidth ends up wasted.
        self.net_request(st, k, now, rng, rec);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use crate::probe::Recorder;
    use crate::scheduler::{Allocation, Scheduler};
    use hetsched_net::NetworkModel;
    use hetsched_platform::{FailureModel, Platform, ProcId, SpeedModel};
    use hetsched_util::rng::rng_for;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Pool-backed toy strategy: one block per task, supports reallocation.
    struct PoolSched {
        pool: Vec<u32>,
        total: usize,
        batch: usize,
        /// Draw each batch size from `1..=batch` instead of always `batch`.
        varied: bool,
        counts: Vec<i32>,
        /// Largest batch handed to each worker.
        largest: Vec<usize>,
    }

    fn pool(total: usize, batch: usize) -> PoolSched {
        PoolSched {
            pool: (0..total as u32).rev().collect(),
            total,
            batch,
            varied: false,
            counts: vec![0; total],
            largest: Vec::new(),
        }
    }

    impl Scheduler for PoolSched {
        fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
            let batch = if self.varied {
                rng.gen_range(1..=self.batch)
            } else {
                self.batch
            };
            let t = batch.min(self.pool.len());
            if self.largest.len() <= k.idx() {
                self.largest.resize(k.idx() + 1, 0);
            }
            self.largest[k.idx()] = self.largest[k.idx()].max(t);
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

    #[test]
    fn parked_workers_wake_at_the_earliest_death() {
        // Worker 2's death (t = 5) comes first in time but after worker 1's
        // (t = 50) in worker order. The fast worker drains the pool, parks,
        // and must wake at t = 5 to recover the 10 lost tasks; waking at
        // t = 50 would push the makespan past 50.
        let pf = Platform::from_speeds(vec![100.0, 1.0, 1.0]);
        let failures = FailureModel::none()
            .fail_at(ProcId(1), 50.0)
            .fail_at(ProcId(2), 5.0);
        let mut engine = Engine::new(&pf, SpeedModel::Fixed, pool(30, 10))
            .with_failures(&failures)
            .with_network(one_port(1000.0));
        let st = engine.net_loop(&mut rng_for(3, 0), &mut None::<&mut Recorder>);
        let times: Vec<f64> = st.deaths.iter().map(|&(f, _)| f).collect();
        assert_eq!(times, [5.0, 50.0], "deaths sorted by time");
        assert_eq!(engine.scheduler.remaining(), 0);
        assert!(engine.scheduler.counts.iter().all(|&c| c == 1));
        assert_eq!(engine.ledger.total_lost_tasks(), 10);
        assert!(
            engine.makespan > 5.0 && engine.makespan < 12.0,
            "{}",
            engine.makespan
        );
    }

    #[test]
    fn batch_buffers_stay_bounded_and_drain() {
        // A long faulty one-port run: varied batch sizes, a straggler, and
        // deaths that strand transfers, kill batches mid-compute and wake
        // parked workers.
        let pf = Platform::from_speeds(vec![10.0, 25.0, 40.0, 15.0, 60.0, 30.0, 5.0, 50.0]);
        let failures = FailureModel::none()
            .fail_at(ProcId(1), 3.0)
            .fail_at(ProcId(3), 7.5)
            .fail_at(ProcId(6), 20.0)
            .fail_at(ProcId(5), 31.0)
            .slow_down(ProcId(2), 3.0);
        let sched = PoolSched {
            varied: true,
            ..pool(8000, 24)
        };
        let mut engine = Engine::new(&pf, SpeedModel::dyn5(), sched)
            .with_failures(&failures)
            .with_network(one_port(300.0));
        let st = engine.net_loop(&mut rng_for(12, 0), &mut None::<&mut Recorder>);
        assert_eq!(engine.scheduler.remaining(), 0);
        assert!(engine.ledger.total_lost_tasks() > 0);
        assert!(engine.ledger.total_wasted_blocks() > 0);
        assert!(engine.scheduler.counts.iter().all(|&c| c == 1));
        for i in 0..pf.len() {
            let largest = engine.scheduler.largest[i];
            // A worker owns exactly these three buffers. Each was grown only
            // by the scheduler's pushes for one of this worker's batches,
            // so its capacity is what `Vec` grows to for the largest of
            // them: under twice its size (and at least 4 slots).
            for buf in [&st.pending.ids[i], &st.ready.ids[i], &st.in_flight[i]] {
                assert!(buf.is_empty(), "worker {i}: buffer not drained");
                assert!(
                    buf.capacity() <= (2 * largest).max(4),
                    "worker {i}: capacity {} for a largest batch of {largest}",
                    buf.capacity()
                );
            }
        }
    }
}
