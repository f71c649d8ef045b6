//! The demand-driven simulation loop.

use crate::event::EventQueue;
use crate::metrics::CommLedger;
use crate::probe::{ProbeConfig, Recorder};
use crate::scheduler::Scheduler;
use crate::sink::StreamingSink;
use crate::trace::{EventKind, Trace, TraceEvent};
use hetsched_net::NetworkModel;
use hetsched_platform::{FailureModel, Platform, ProcId, SpeedModel, SpeedState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-worker communication/work ledger.
    pub ledger: CommLedger,
    /// Simulated time at which the last task completed.
    pub makespan: f64,
    /// Total blocks shipped (denormalized convenience copy).
    pub total_blocks: u64,
    /// Tasks lost to worker failures (each was re-allocated and completed
    /// elsewhere; zero without fault injection).
    pub lost_tasks: u64,
    /// Blocks shipped for batches that re-allocate failure-lost tasks (zero
    /// without fault injection).
    pub reshipped_blocks: u64,
    /// Master-link utilization (busy time over `makespan × channels`; zero
    /// under [`NetworkModel::Infinite`]).
    pub link_utilization: f64,
    /// Largest number of batches ever queued behind the master's busy
    /// channels (zero under [`NetworkModel::Infinite`]).
    pub max_queue_depth: usize,
    /// Blocks transferred toward workers that failed before computing on
    /// them — bandwidth wasted on corpses (zero without fault injection or
    /// under [`NetworkModel::Infinite`]).
    pub wasted_blocks: u64,
    /// Blocks shipped over root → sub-master links by the hierarchical tree
    /// topology ([`crate::tree::run_tree_with`]). Always zero on the flat
    /// topology and for a single-sub-master tree; counted in
    /// [`total_blocks`](Self::total_blocks) but not in the per-worker
    /// ledger.
    pub tier_blocks: u64,
    /// Result (C-block) volume written back to the master over the priced
    /// link. Zero unless return-path pricing is enabled
    /// ([`Engine::with_return_pricing`]); kept out of
    /// [`total_blocks`](Self::total_blocks) so the input-traffic lower-bound
    /// comparison stays meaningful.
    pub returned_blocks: u64,
}

impl SimReport {
    /// Total communication normalized by a lower bound.
    pub fn normalized(&self, lower_bound: f64) -> f64 {
        self.total_blocks as f64 / lower_bound
    }
}

/// The simulation engine: owns the clock, the event queue and the ledger;
/// borrows the platform and drives a [`Scheduler`].
pub struct Engine<'a, S: Scheduler> {
    pub(crate) platform: &'a Platform,
    pub(crate) speeds: SpeedState,
    pub(crate) scheduler: S,
    pub(crate) queue: EventQueue,
    pub(crate) ledger: CommLedger,
    pub(crate) makespan: f64,
    pub(crate) failures: FailureModel,
    pub(crate) network: NetworkModel,
    pub(crate) price_returns: bool,
}

impl<'a, S: Scheduler> Engine<'a, S> {
    /// Creates an engine over `platform` with the given run-time speed model.
    pub fn new(platform: &'a Platform, model: SpeedModel, scheduler: S) -> Self {
        let p = platform.len();
        Engine {
            platform,
            speeds: SpeedState::new(platform, model),
            scheduler,
            queue: EventQueue::new(),
            ledger: CommLedger::new(p),
            makespan: 0.0,
            failures: FailureModel::none(),
            network: NetworkModel::Infinite,
            price_returns: false,
        }
    }

    /// Prices transfers under `network` instead of the paper's free
    /// communication model. With [`NetworkModel::Infinite`] (the default)
    /// the engine takes the exact pre-network code path, so results are
    /// bit-for-bit identical to an engine without this call.
    ///
    /// # Panics
    ///
    /// If the model's bandwidths do not validate.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        network.validate().expect("invalid network model");
        self.network = network;
        self
    }

    /// Also charges each completed batch's result write-back (one C block
    /// per task, the coarse uniform-block model the input path already uses)
    /// on the master link. Returns contend with input transfers for the same
    /// channels, so enabling this raises link utilization and can extend the
    /// makespan to the arrival of the last write-back. Off by default —
    /// existing runs stay bit-identical — and a no-op under
    /// [`NetworkModel::Infinite`], where all transfers are free anyway.
    pub fn with_return_pricing(mut self, price_returns: bool) -> Self {
        self.price_returns = price_returns;
        self
    }

    /// Injects a fault scenario. Stragglers degrade their worker's speed
    /// immediately; fail-stop failures are discovered when the dying batch
    /// would have finished. With [`FailureModel::none`] the engine takes no
    /// extra RNG draws and schedules no extra events, so results are
    /// bit-for-bit identical to a fault-free run.
    ///
    /// # Panics
    ///
    /// If the scenario does not validate against this platform.
    pub fn with_failures(mut self, failures: &FailureModel) -> Self {
        failures
            .validate(self.platform.len())
            .expect("invalid failure scenario for this platform");
        assert!(
            !failures.has_stochastic(),
            "stochastic failure entries must be resolved (FailureModel::resolve) \
             before the engine consumes the scenario"
        );
        for &(k, factor) in failures.stragglers() {
            self.speeds.slow_down(k, factor);
        }
        self.failures = failures.clone();
        self
    }

    /// Runs to completion and returns the report plus the scheduler (whose
    /// final state tests may want to audit).
    ///
    /// All workers request at `t = 0` in a random order — the paper's
    /// strategies are demand driven and the initial service order is an
    /// artifact of the platform, so it is randomized under the run's seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetsched_platform::{Platform, SpeedModel};
    /// use hetsched_sim::Engine;
    /// use hetsched_util::rng::rng_for;
    /// # use hetsched_sim::{Allocation, Scheduler};
    /// # use hetsched_platform::ProcId;
    /// # struct Chunks(usize);
    /// # impl Scheduler for Chunks {
    /// #     fn on_request(&mut self, _: ProcId, _: &mut rand::rngs::StdRng, out: &mut Vec<u32>) -> Allocation {
    /// #         let t = self.0.min(4); self.0 -= t;
    /// #         out.extend((self.0 as u32)..(self.0 + t) as u32);
    /// #         Allocation { tasks: t, blocks: t as u64 }
    /// #     }
    /// #     fn remaining(&self) -> usize { self.0 }
    /// #     fn total_tasks(&self) -> usize { 100 }
    /// #     fn name(&self) -> &'static str { "chunks" }
    /// # }
    ///
    /// let platform = Platform::from_speeds(vec![25.0, 75.0]);
    /// let (report, _) =
    ///     Engine::new(&platform, SpeedModel::Fixed, Chunks(100)).run(&mut rng_for(0, 0));
    /// assert_eq!(report.ledger.total_tasks(), 100);
    /// // Demand driven ⇒ work conserving: makespan ≈ work / Σspeed.
    /// assert!((report.makespan - 1.0).abs() < 0.2);
    /// ```
    pub fn run(self, rng: &mut StdRng) -> (SimReport, S) {
        let (report, scheduler, _) = self.run_impl(rng, None::<&mut Recorder>);
        (report, scheduler)
    }

    /// Like [`run`](Self::run) but also records a [`Trace`] of every
    /// satisfied request (a [`Recorder`] with probing disabled).
    pub fn run_traced(self, rng: &mut StdRng) -> (SimReport, S, Trace) {
        let mut rec = Recorder::new(ProbeConfig::disabled());
        let (report, scheduler, _) = self.run_impl(rng, Some(&mut rec));
        (report, scheduler, rec.into_trace())
    }

    /// Like [`run`](Self::run) but emits every event and probe sample
    /// through `rec`. With probing disabled this is trace collection; with
    /// a cadence configured the recorder also snapshots the ODE-observable
    /// state ([`crate::ProbeSample`]) over the run. The recorder may be
    /// buffered (the default) or [streaming](Recorder::streaming) into any
    /// [`StreamingSink`].
    pub fn run_recorded<K: StreamingSink>(
        self,
        rng: &mut StdRng,
        rec: &mut Recorder<K>,
    ) -> (SimReport, S) {
        let (report, scheduler, _) = self.run_impl(rng, Some(rec));
        (report, scheduler)
    }

    fn run_impl<K: StreamingSink>(
        mut self,
        rng: &mut StdRng,
        mut rec: Option<&mut Recorder<K>>,
    ) -> (SimReport, S, ()) {
        if !self.network.is_infinite() {
            // Priced transfers need their own event loop (transfers are
            // events, communication overlaps computation). The infinite
            // model stays on the original loop below, untouched, so it is
            // bit-for-bit identical to the pre-network engine.
            return self.run_networked(rng, rec);
        }
        let p = self.platform.len();
        let mut initial: Vec<ProcId> = self.platform.procs().collect();
        initial.shuffle(rng);
        for k in initial {
            self.queue.push(0.0, k);
        }

        // Fault bookkeeping. All of it stays inert with `FailureModel::none()`
        // — no extra events, no extra RNG draws — so fault-free runs are
        // bit-for-bit identical to the fault-unaware engine.
        let fail_time: Vec<Option<f64>> = self
            .platform
            .procs()
            .map(|k| self.failures.fail_time(k))
            .collect();
        // `dying[i]`: worker i was allocated a batch it will not finish; its
        // next event (at the failure time) is the discovery of its death.
        let mut dying = vec![false; p];
        let mut dying_until = vec![f64::INFINITY; p];
        let mut dead = vec![false; p];
        let mut in_flight: Vec<Vec<u32>> = vec![Vec::new(); p];
        // Ids lost to failures and not yet re-allocated, for re-ship
        // accounting.
        let mut lost_ids: HashSet<u32> = HashSet::new();
        // Engine-owned batch arena: cleared and refilled by the scheduler on
        // every request, so the steady-state loop performs no heap
        // allocation once the buffer reaches the largest batch size.
        let mut batch: Vec<u32> = Vec::new();

        if let Some(r) = rec.as_deref_mut() {
            // Pre-size the trace: roughly one event per allocation (at
            // most one per task with single-task batches) plus one
            // retirement per worker, capped so absurd configs don't
            // over-reserve. Buffered recording then never pays the
            // reallocate-and-copy growth of the event vector.
            r.reserve_events((self.scheduler.total_tasks() + p).min(1 << 20), p);
            // Anchor the probed trajectory at t = 0.
            r.sample(0.0, &self.scheduler, &self.ledger, None);
        }

        while let Some((now, k)) = self.queue.pop() {
            let i = k.idx();
            if dying[i] {
                // Scheduled death discovery: the in-flight batch is lost and
                // returns to the scheduler's residual pool.
                dying[i] = false;
                dying_until[i] = f64::INFINITY;
                dead[i] = true;
                self.ledger.record_lost(k, in_flight[i].len());
                lost_ids.extend(in_flight[i].iter().copied());
                self.scheduler.on_tasks_lost(&in_flight[i]);
                in_flight[i].clear();
                continue;
            }
            if dead[i] {
                continue;
            }
            if let Some(f) = fail_time[i] {
                if f <= now {
                    // Died while idle, between batches: nothing in flight.
                    dead[i] = true;
                    continue;
                }
            }
            if self.scheduler.remaining() == 0 {
                let earliest_death = dying_until.iter().copied().fold(f64::INFINITY, f64::min);
                if earliest_death.is_finite() {
                    // A failing worker still holds tasks that will return to
                    // the pool; come back when its death is discovered.
                    self.queue.push(earliest_death.max(now), k);
                } else {
                    // Drain: every remaining event is a worker coming back
                    // after its last batch; nothing left to allocate.
                }
                continue;
            }
            batch.clear();
            let alloc = self.scheduler.on_request(k, rng, &mut batch);
            debug_assert_eq!(
                batch.len(),
                alloc.tasks,
                "scheduler contract: out ids == tasks"
            );
            if let Some(r) = rec.as_deref_mut() {
                r.note_phase(now, k, &self.scheduler);
            }
            if alloc.is_done() {
                // Worker retired (cannot contribute further); its blocks
                // (normally zero) still count.
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
                        None,
                    );
                }
                continue;
            }
            if !lost_ids.is_empty() {
                // Re-ship accounting, at batch granularity: a batch that
                // re-allocates any failure-lost task charges its blocks to
                // the recovery counter. Once every lost id has been
                // re-allocated the set is empty again and this block costs
                // nothing — fault-free and recovered steady states do zero
                // extra work.
                let mut reallocates = false;
                for id in &batch {
                    if lost_ids.remove(id) {
                        reallocates = true;
                    }
                }
                if reallocates {
                    self.ledger.record_reshipped(k, alloc.blocks);
                }
            }
            let dur = self.speeds.batch_duration(k, alloc.tasks, rng);
            let finish = now + dur;
            match fail_time[i] {
                Some(f) if f < finish => {
                    // The worker dies mid-batch at time `f`: the blocks were
                    // shipped and `f − now` of compute is burned, but no task
                    // of this batch completes. Discovery is scheduled at `f`.
                    self.ledger.record(k, 0, alloc.blocks, f - now);
                    // Swap instead of clone: `in_flight[i]` is empty here (a
                    // worker requests only after its previous batch is fully
                    // accounted), so the arena buffer changes hands at zero
                    // cost and no allocation happens on the fault path.
                    std::mem::swap(&mut in_flight[i], &mut batch);
                    dying[i] = true;
                    dying_until[i] = f;
                    if let Some(r) = rec.as_deref_mut() {
                        r.observe(
                            TraceEvent {
                                kind: EventKind::Lost,
                                time: now,
                                proc: k,
                                tasks: 0,
                                blocks: alloc.blocks,
                                duration: f - now,
                            },
                            &self.scheduler,
                            &self.ledger,
                            None,
                        );
                    }
                    self.queue.push(f, k);
                }
                _ => {
                    self.ledger.record(k, alloc.tasks, alloc.blocks, dur);
                    if let Some(r) = rec.as_deref_mut() {
                        r.observe(
                            TraceEvent {
                                kind: EventKind::Batch,
                                time: now,
                                proc: k,
                                tasks: alloc.tasks,
                                blocks: alloc.blocks,
                                duration: dur,
                            },
                            &self.scheduler,
                            &self.ledger,
                            None,
                        );
                    }
                    self.makespan = self.makespan.max(finish);
                    self.queue.push(finish, k);
                }
            }
        }

        if let Some(r) = rec {
            // Anchor the probed trajectory at the makespan.
            r.sample(self.makespan, &self.scheduler, &self.ledger, None);
        }

        assert_eq!(
            self.scheduler.remaining(),
            0,
            "engine stopped with unallocated tasks"
        );
        let total_blocks = self.ledger.total_blocks();
        let lost_tasks = self.ledger.total_lost_tasks();
        let reshipped_blocks = self.ledger.total_reshipped_blocks();
        (
            SimReport {
                ledger: self.ledger,
                makespan: self.makespan,
                total_blocks,
                lost_tasks,
                reshipped_blocks,
                link_utilization: 0.0,
                max_queue_depth: 0,
                wasted_blocks: 0,
                tier_blocks: 0,
                returned_blocks: 0,
            },
            self.scheduler,
            (),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Allocation;
    use hetsched_util::rng::rng_for;

    /// Toy strategy: hands out `batch` tasks per request, one block each.
    struct FixedBatch {
        remaining: usize,
        total: usize,
        batch: usize,
    }

    impl Scheduler for FixedBatch {
        fn on_request(&mut self, _k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
            let t = self.batch.min(self.remaining);
            self.remaining -= t;
            out.extend((self.remaining as u32)..(self.remaining + t) as u32);
            Allocation {
                tasks: t,
                blocks: t as u64,
            }
        }
        fn remaining(&self) -> usize {
            self.remaining
        }
        fn total_tasks(&self) -> usize {
            self.total
        }
        fn name(&self) -> &'static str {
            "FixedBatch"
        }
    }

    fn toy(total: usize, batch: usize) -> FixedBatch {
        FixedBatch {
            remaining: total,
            total,
            batch,
        }
    }

    #[test]
    fn all_tasks_get_done() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 70.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, toy(1000, 10)).run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 1000);
        assert_eq!(report.total_blocks, 1000);
    }

    #[test]
    fn faster_processors_do_proportionally_more() {
        let pf = Platform::from_speeds(vec![10.0, 90.0]);
        let mut rng = rng_for(1, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, toy(10_000, 1)).run(&mut rng);
        let t0 = report.ledger.tasks(ProcId(0)) as f64;
        let t1 = report.ledger.tasks(ProcId(1)) as f64;
        // Demand-driven: shares track relative speeds (0.1 / 0.9).
        assert!((t0 / 10_000.0 - 0.1).abs() < 0.01, "t0 = {t0}");
        assert!((t1 / 10_000.0 - 0.9).abs() < 0.01, "t1 = {t1}");
    }

    #[test]
    fn makespan_matches_total_work_over_total_speed() {
        // Single-task batches, fixed speeds: the demand-driven engine is
        // work conserving, so makespan ≈ total_tasks / Σ s_i, up to one task.
        let pf = Platform::from_speeds(vec![25.0, 75.0]);
        let mut rng = rng_for(2, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, toy(5000, 1)).run(&mut rng);
        let ideal = 5000.0 / 100.0;
        assert!(
            (report.makespan - ideal).abs() < 2.0 / 25.0,
            "makespan {} vs ideal {}",
            report.makespan,
            ideal
        );
    }

    #[test]
    fn busy_time_within_one_batch_of_makespan() {
        // Work conservation: a worker only goes idle when the task pool is
        // empty, so its idle time is bounded by the duration of the last
        // batch still running elsewhere — at most one batch on the
        // *slowest* worker.
        let pf = Platform::from_speeds(vec![10.0, 40.0, 50.0]);
        let mut rng = rng_for(3, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, toy(2000, 7)).run(&mut rng);
        let slowest_batch = 7.0 / 10.0;
        for k in pf.procs() {
            let slack = report.makespan - report.ledger.busy(k);
            assert!(
                slack <= slowest_batch + 1e-9,
                "worker {k} idle for {slack}, more than the slowest batch {slowest_batch}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let (r1, _) = Engine::new(&pf, SpeedModel::Fixed, toy(500, 3)).run(&mut rng_for(7, 0));
        let (r2, _) = Engine::new(&pf, SpeedModel::Fixed, toy(500, 3)).run(&mut rng_for(7, 0));
        assert_eq!(r1.total_blocks, r2.total_blocks);
        assert_eq!(r1.ledger.tasks_per_proc(), r2.ledger.tasks_per_proc());
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn dynamic_speeds_complete_all_work() {
        let pf = Platform::from_speeds(vec![100.0, 100.0]);
        let mut rng = rng_for(8, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::dyn20(), toy(3000, 5)).run(&mut rng);
        assert_eq!(report.ledger.total_tasks(), 3000);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn normalized_report() {
        let pf = Platform::homogeneous(4);
        let mut rng = rng_for(9, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, toy(100, 1)).run(&mut rng);
        assert!((report.normalized(50.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_worker_platform() {
        let pf = Platform::from_speeds(vec![7.0]);
        let mut rng = rng_for(10, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, toy(49, 6)).run(&mut rng);
        assert_eq!(report.ledger.tasks(ProcId(0)), 49);
        assert!((report.makespan - 7.0).abs() < 1e-9);
    }

    /// Toy strategy with a real task pool: reports allocated ids and supports
    /// reallocation, and counts net allocations per task so tests can check
    /// the exactly-once contract under failures.
    struct PoolSched {
        pool: Vec<u32>,
        total: usize,
        batch: usize,
        /// Net allocation count per id (+1 allocated, −1 lost).
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

    #[test]
    fn no_failures_is_bit_for_bit_identical() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 70.0]);
        let (plain, _) =
            Engine::new(&pf, SpeedModel::dyn5(), pool(600, 4)).run(&mut rng_for(11, 0));
        let (faulty, _) = Engine::new(&pf, SpeedModel::dyn5(), pool(600, 4))
            .with_failures(&FailureModel::none())
            .run(&mut rng_for(11, 0));
        assert_eq!(plain.total_blocks, faulty.total_blocks);
        assert_eq!(
            plain.ledger.tasks_per_proc(),
            faulty.ledger.tasks_per_proc()
        );
        assert_eq!(plain.makespan, faulty.makespan);
        assert_eq!(faulty.lost_tasks, 0);
        assert_eq!(faulty.reshipped_blocks, 0);
    }

    #[test]
    fn failed_worker_batch_is_reallocated_exactly_once() {
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 1.2);
        let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, pool(100, 5))
            .with_failures(&failures)
            .run(&mut rng_for(12, 0));
        // Worker 0 dies mid-batch: its 5 in-flight tasks are lost, returned
        // to the pool, and completed elsewhere.
        assert_eq!(report.lost_tasks, 5);
        assert_eq!(report.ledger.lost_tasks(ProcId(0)), 5);
        assert_eq!(report.ledger.total_tasks(), 100);
        assert!(report.reshipped_blocks > 0, "recovery re-ships blocks");
        assert!(
            sched.counts.iter().all(|&c| c == 1),
            "every task allocated exactly once net of losses"
        );
        // The survivor finishes the failed worker's share.
        assert!(report.ledger.tasks(ProcId(1)) > 50);
    }

    #[test]
    fn failure_discovery_unparks_drained_workers() {
        // The fast worker exhausts the pool and would drain at t = 0.1, long
        // before the slow worker's death at t = 5 returns 10 tasks to the
        // pool. The engine must bring it back to pick those up.
        let pf = Platform::from_speeds(vec![1.0, 100.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 5.0);
        let (report, sched) = Engine::new(&pf, SpeedModel::Fixed, pool(20, 10))
            .with_failures(&failures)
            .run(&mut rng_for(13, 0));
        assert_eq!(report.lost_tasks, 10);
        assert_eq!(report.ledger.total_tasks(), 20);
        assert_eq!(report.ledger.tasks(ProcId(1)), 20);
        assert!(sched.counts.iter().all(|&c| c == 1));
        // Recovery starts only at the discovery time.
        assert!((report.makespan - 5.1).abs() < 1e-9, "{}", report.makespan);
    }

    #[test]
    fn straggler_shifts_load_without_losing_tasks() {
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().slow_down(ProcId(0), 4.0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, pool(1000, 1))
            .with_failures(&failures)
            .run(&mut rng_for(14, 0));
        assert_eq!(report.lost_tasks, 0);
        assert_eq!(report.ledger.total_tasks(), 1000);
        let t0 = report.ledger.tasks(ProcId(0)) as f64;
        // Effective speeds 2.5 vs 10 ⇒ the straggler does ~1/5 of the work.
        assert!((t0 / 1000.0 - 0.2).abs() < 0.02, "t0 = {t0}");
    }

    #[test]
    fn deterministic_under_seed_with_failures() {
        let pf = Platform::from_speeds(vec![30.0, 50.0, 20.0]);
        let failures = FailureModel::none()
            .fail_at(ProcId(2), 0.7)
            .slow_down(ProcId(0), 2.0);
        let go = || {
            Engine::new(&pf, SpeedModel::dyn5(), pool(800, 3))
                .with_failures(&failures)
                .run(&mut rng_for(15, 0))
                .0
        };
        let (r1, r2) = (go(), go());
        assert_eq!(r1.total_blocks, r2.total_blocks);
        assert_eq!(r1.ledger.tasks_per_proc(), r2.ledger.tasks_per_proc());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.lost_tasks, r2.lost_tasks);
        assert_eq!(r1.reshipped_blocks, r2.reshipped_blocks);
    }

    /// Worker 0 retires immediately (with one futile block); the others share
    /// the pool. Exercises the retirement trace event.
    struct RetireFirst(PoolSched);

    impl Scheduler for RetireFirst {
        fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
            if k.idx() == 0 {
                return Allocation {
                    tasks: 0,
                    blocks: 1,
                };
            }
            self.0.on_request(k, rng, out)
        }
        fn remaining(&self) -> usize {
            self.0.remaining()
        }
        fn total_tasks(&self) -> usize {
            self.0.total_tasks()
        }
        fn name(&self) -> &'static str {
            "RetireFirst"
        }
    }

    #[test]
    fn trace_reconciles_with_ledger_including_retirement() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let mut rng = rng_for(16, 0);
        let (report, _, trace) =
            Engine::new(&pf, SpeedModel::Fixed, RetireFirst(pool(200, 4))).run_traced(&mut rng);

        // The retirement is visible in the trace as a typed event…
        let retire: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Retire)
            .collect();
        assert_eq!(retire.len(), 1);
        assert_eq!(retire[0].proc, ProcId(0));
        assert_eq!(retire[0].blocks, 1);
        assert_eq!(retire[0].duration, 0.0);

        // …and the trace reconciles with the ledger event for event
        // (allocation kinds only — overlay kinds carry no ledger volume).
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
    fn recorded_run_matches_plain_run_and_probes_anchor() {
        use crate::probe::{ProbeConfig, Recorder};
        let pf = Platform::from_speeds(vec![10.0, 30.0]);
        let (plain, _) = Engine::new(&pf, SpeedModel::Fixed, toy(400, 4)).run(&mut rng_for(17, 0));
        let mut rec = Recorder::new(ProbeConfig::by_events(10));
        let (probed, _) = Engine::new(&pf, SpeedModel::Fixed, toy(400, 4))
            .run_recorded(&mut rng_for(17, 0), &mut rec);
        // Observation never perturbs the simulation.
        assert_eq!(plain.total_blocks, probed.total_blocks);
        assert_eq!(plain.makespan, probed.makespan);
        let (trace, probes) = rec.into_parts();
        assert_eq!(trace.allocation_count(), 100);
        // Anchors at both ends plus every tenth allocation in between.
        assert!(probes.len() >= 2 + 100 / 10, "{} samples", probes.len());
        let first = probes.get(0);
        let last = probes.last().unwrap();
        assert_eq!(first.time, 0.0);
        assert_eq!(first.remaining, 400);
        assert_eq!(last.time, probed.makespan);
        assert_eq!(last.remaining, 0);
        // Monotone residual trajectory.
        let all: Vec<_> = probes.iter().collect();
        for w in all.windows(2) {
            assert!(w[1].remaining <= w[0].remaining);
            assert!(w[1].time >= w[0].time);
        }
    }
}
