//! The master–worker runtime shared by both kernels.
//!
//! One master loop and one worker loop, generic over a [`Kernel`]: the
//! kernel says which input blocks a task reads, which result block it
//! writes and how to compute it; everything else — demand-driven serving,
//! lazy block shipping, result flushing, fault injection and recovery — is
//! the same for the outer product and the matrix product.

use crate::block::BlockedMatrix;
use crate::protocol::{BlockTag, ExecConfig, ExecReport, Job, ToMaster, ToWorker};
use crossbeam::channel::{unbounded, Receiver, Sender};
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use hetsched_util::rng::rng_for;
use hetsched_util::FixedBitSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What distinguishes one kernel's execution from another's. Input blocks
/// are numbered per operand (`A` and `B` ids each below
/// [`input_blocks`](Kernel::input_blocks)); result blocks are positions
/// `(i, j)` in the `n × n` block grid of the output.
pub(crate) trait Kernel: Sync {
    /// Output blocks per side.
    fn n(&self) -> usize;
    /// Block edge length.
    fn l(&self) -> usize;
    /// Number of distinct `A` (equally, `B`) block ids.
    fn input_blocks(&self) -> usize;
    /// `(A id, B id, (i, j))`: the inputs task `id` reads and the result
    /// block it contributes to.
    fn task(&self, id: u32) -> (usize, usize, (usize, usize));
    /// A copy of the input block `tag` names, to ship to a worker.
    fn copy_block(&self, tag: BlockTag) -> Vec<f64>;
    /// Adds one task's contribution `a ⋆ b` to the result block `c`
    /// (zero-initialised before its first task).
    fn compute(&self, a: &[f64], b: &[f64], c: &mut [f64]);
}

/// Runs `scheduler` over `kernel` with `cfg.speeds.len()` worker threads;
/// the scheduler's RNG is the `(cfg.seed, stream)` stream.
///
/// Workers keep their result contributions locally and flush them at
/// shutdown, so a killed worker loses everything it was ever assigned and
/// the master returns all of it to the scheduler.
///
/// Faults fire deterministically. While one is pending the master serves
/// in lockstep rounds — only once every live worker waits for work, in
/// worker order — so the allocation sequence up to the kill depends on the
/// seed alone. A worker whose master-side count of assigned tasks has
/// reached its fault threshold is killed when it next asks for work; a
/// fault that can no longer fire (the pool is empty and no kill is due to
/// refill it) is cancelled.
pub(crate) fn execute<K: Kernel, S: Scheduler>(
    kernel: &K,
    mut scheduler: S,
    cfg: &ExecConfig,
    stream: u64,
) -> (BlockedMatrix, ExecReport) {
    let p = cfg.speeds.len();
    let mut rng = rng_for(cfg.seed, stream);
    let (to_master_tx, to_master_rx) = unbounded::<ToMaster>();
    let worker_channels: Vec<(Sender<ToWorker>, Receiver<ToWorker>)> =
        (0..p).map(|_| unbounded()).collect();

    // Master-side record of which blocks each worker has been shipped.
    let mut sent_a: Vec<FixedBitSet> = (0..p)
        .map(|_| FixedBitSet::new(kernel.input_blocks()))
        .collect();
    let mut sent_b = sent_a.clone();

    let mut result = BlockedMatrix::zeros(kernel.n(), kernel.l());
    let mut report = ExecReport {
        input_blocks_shipped: 0,
        result_blocks_returned: 0,
        tasks_per_worker: vec![0; p],
        jobs_per_worker: vec![0; p],
        tasks_lost_per_worker: vec![0; p],
    };

    // Kill threshold of every fault that has neither fired nor been
    // cancelled.
    let mut fault: Vec<Option<u64>> = (0..p).map(|w| cfg.fail_after(w)).collect();
    assert!(
        fault.iter().flatten().count() < p,
        "at least one worker must survive the faults"
    );

    std::thread::scope(|scope| {
        for (w, (_, rx)) in worker_channels.iter().enumerate() {
            let rx = rx.clone();
            let tx = to_master_tx.clone();
            let factor = cfg.work_factor(w);
            scope.spawn(move || worker_loop(kernel, w, factor, rx, tx));
        }
        drop(to_master_tx);

        // Every task id a worker currently holds unflushed results for.
        let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); p];
        // Requests not answered yet.
        let mut parked: Vec<usize> = Vec::new();
        let mut live = p;
        let send = |w: usize, msg: ToWorker| {
            worker_channels[w].0.send(msg).expect("worker waiting");
        };
        let is_due = |fault: &[Option<u64>], assigned: &[Vec<u32>], w: usize| {
            fault[w].is_some_and(|after| assigned[w].len() as u64 >= after)
        };

        while live > 0 {
            match to_master_rx.recv().expect("workers alive while live > 0") {
                ToMaster::Request { worker } => parked.push(worker),
                ToMaster::Results { worker, blocks } => {
                    report.result_blocks_returned += blocks.len() as u64;
                    for ((i, j), data) in blocks {
                        result.add_block(i as usize, j as usize, &data);
                    }
                    assigned[worker].clear();
                    live -= 1;
                }
            }
            if fault.iter().any(Option::is_some) {
                if parked.len() < live {
                    continue;
                }
                parked.sort_unstable();
            }

            // Kill the workers whose fault is due before serving anyone,
            // so their tasks are back in the pool for this round.
            parked.retain(|&w| {
                if !is_due(&fault, &assigned, w) {
                    return true;
                }
                send(w, ToWorker::Kill);
                fault[w] = None;
                live -= 1;
                let lost = std::mem::take(&mut assigned[w]);
                report.tasks_per_worker[w] -= lost.len() as u64;
                report.tasks_lost_per_worker[w] += lost.len() as u64;
                scheduler.on_tasks_lost(&lost);
                false
            });

            let mut idx = 0;
            while idx < parked.len() {
                let worker = parked[idx];
                if scheduler.remaining() == 0 {
                    if (0..p).any(|w| is_due(&fault, &assigned, w)) {
                        // A worker out with its last job before a kill
                        // will return tasks to the pool: wait for it.
                        idx += 1;
                        continue;
                    }
                    // Nothing can refill the pool: no pending fault can
                    // fire any more.
                    fault.fill(None);
                }
                parked.remove(idx);
                let mut tasks = Vec::new();
                let alloc = if scheduler.remaining() == 0 {
                    Allocation::DONE
                } else {
                    scheduler.on_request(ProcId(worker as u32), &mut rng, &mut tasks)
                };
                if alloc.is_done() {
                    send(worker, ToWorker::Shutdown);
                    fault[worker] = None;
                    continue;
                }
                debug_assert_eq!(tasks.len(), alloc.tasks);
                report.tasks_per_worker[worker] += tasks.len() as u64;
                report.jobs_per_worker[worker] += 1;
                assigned[worker].extend_from_slice(&tasks);

                // Ship exactly the blocks these tasks need and the worker
                // lacks. (A data-aware scheduler may have *accounted* for
                // more — blocks bought by extensions that enabled nothing;
                // see the exec-vs-sim tests.)
                let mut blocks = Vec::new();
                for &id in &tasks {
                    let (a, b, _) = kernel.task(id);
                    if sent_a[worker].insert(a) {
                        let tag = BlockTag::A(a as u32);
                        blocks.push((tag, kernel.copy_block(tag)));
                    }
                    if sent_b[worker].insert(b) {
                        let tag = BlockTag::B(b as u32);
                        blocks.push((tag, kernel.copy_block(tag)));
                    }
                }
                report.input_blocks_shipped += blocks.len() as u64;
                send(worker, ToWorker::Job(Job { tasks, blocks }));
            }
        }
    });

    (result, report)
}

/// Worker side: hold received blocks, accumulate assigned tasks into local
/// result blocks, flush them on shutdown — or vanish with them on a kill.
fn worker_loop<K: Kernel>(
    kernel: &K,
    worker: usize,
    work_factor: u32,
    rx: Receiver<ToWorker>,
    tx: Sender<ToMaster>,
) {
    let (n, l) = (kernel.n(), kernel.l());
    let mut store_a: Vec<Option<Vec<f64>>> = vec![None; kernel.input_blocks()];
    let mut store_b = store_a.clone();
    // Local result accumulators, indexed `i·n + j`.
    let mut acc: Vec<Option<Vec<f64>>> = vec![None; n * n];
    // Sleep owed by the speed emulation; flushed in chunks large enough to
    // beat the OS timer granularity (~50 µs), so emulated speed ratios stay
    // accurate even for microsecond kernels.
    let mut sleep_debt = Duration::ZERO;

    tx.send(ToMaster::Request { worker }).expect("master alive");
    loop {
        match rx.recv().expect("master alive") {
            ToWorker::Job(job) => {
                for (tag, data) in job.blocks {
                    match tag {
                        BlockTag::A(id) => store_a[id as usize] = Some(data),
                        BlockTag::B(id) => store_b[id as usize] = Some(data),
                    }
                }
                for id in job.tasks {
                    let (a, b, (i, j)) = kernel.task(id);
                    let ab = store_a[a].as_deref().expect("A block shipped");
                    let bb = store_b[b].as_deref().expect("B block shipped");
                    let c = acc[i * n + j].get_or_insert_with(|| vec![0.0; l * l]);
                    // Emulated heterogeneity: compute once for real, then
                    // sleep the extra (factor − 1) kernel durations.
                    // Sleeping (instead of re-running the kernel) keeps the
                    // wall-clock speed ratio honest even when workers
                    // outnumber cores.
                    let t0 = Instant::now();
                    kernel.compute(black_box(ab), black_box(bb), c);
                    if work_factor > 1 {
                        sleep_debt += t0.elapsed() * (work_factor - 1);
                        if sleep_debt >= Duration::from_micros(200) {
                            std::thread::sleep(sleep_debt);
                            sleep_debt = Duration::ZERO;
                        }
                    }
                }
                tx.send(ToMaster::Request { worker }).expect("master alive");
            }
            ToWorker::Shutdown => {
                let blocks = acc
                    .into_iter()
                    .enumerate()
                    .filter_map(|(ij, c)| Some((((ij / n) as u32, (ij % n) as u32), c?)))
                    .collect();
                tx.send(ToMaster::Results { worker, blocks })
                    .expect("master alive");
                return;
            }
            // Killed: the locally held results die with the thread.
            ToWorker::Kill => return,
        }
    }
}
