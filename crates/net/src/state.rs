//! Mutable per-run network state: channel clocks and link metrics.

use crate::model::NetworkModel;
use hetsched_platform::ProcId;
use std::collections::VecDeque;

/// The priced timing of one batch transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferPlan {
    /// When the master's channel starts pushing this batch.
    pub start: f64,
    /// When the last block leaves the master.
    pub end: f64,
    /// When the batch is usable at the worker (`end` + the worker's link
    /// latency).
    pub arrival: f64,
}

/// Simulates the master link for one run: answers "when does this batch
/// arrive at worker `k`?" under the run's [`NetworkModel`], and accumulates
/// the master-busy time and the maximum send-queue depth.
///
/// Transfers are priced in request order (FIFO): each send grabs the
/// earliest-free channel. Because every worker has at most one batch in
/// flight, at most `p` transfers are ever outstanding.
#[derive(Clone, Debug)]
pub struct NetState {
    model: NetworkModel,
    latency: Vec<f64>,
    /// Per-worker inbound bandwidth caps overriding the model's uniform
    /// `worker_bw` (empty = uniform). Only meaningful for
    /// [`NetworkModel::BoundedMultiport`].
    worker_bw: Vec<f64>,
    /// Free time of each concurrent master channel (len = `channels()`,
    /// empty for `Infinite`).
    channel_free: Vec<f64>,
    /// Accumulated master-link busy time (sum of transfer durations).
    busy: f64,
    /// Start times of transfers that were queued behind a busy channel and
    /// have not started yet (pruned lazily). A queued transfer starts at the
    /// earliest channel clock, which never decreases, so the starts are
    /// pushed in sorted order and the started ones are always a prefix.
    waiting_starts: VecDeque<f64>,
    max_queue_depth: usize,
}

impl NetState {
    /// Network state over `model` for `workers` workers with per-worker link
    /// latencies (use zeros for latency-free links).
    ///
    /// # Panics
    ///
    /// If `latency.len() != workers` — a caller that slices latencies for a
    /// subset of workers (e.g. a hierarchy shard) must slice them exactly;
    /// a short vector would otherwise silently price the missing links as
    /// latency-free.
    pub fn new(model: NetworkModel, workers: usize, latency: Vec<f64>) -> Self {
        model.validate().expect("invalid network model");
        assert_eq!(
            latency.len(),
            workers,
            "one link latency per worker (got {} for {} workers)",
            latency.len(),
            workers
        );
        assert!(
            latency.iter().all(|l| l.is_finite() && *l >= 0.0),
            "link latencies must be non-negative and finite"
        );
        let channels = if model.is_infinite() {
            0
        } else {
            model.channels().min(workers.max(1))
        };
        NetState {
            model,
            latency,
            worker_bw: Vec::new(),
            channel_free: vec![0.0; channels],
            busy: 0.0,
            waiting_starts: VecDeque::new(),
            max_queue_depth: 0,
        }
    }

    /// Overrides the multiport model's uniform `worker_bw` with per-worker
    /// inbound caps (one entry per worker). Each transfer to worker `k` then
    /// runs at `min(bandwidths[k], master_bw)`; the channel *count* stays
    /// derived from the model's uniform `worker_bw`, so the uniform case is
    /// bit-identical with or without this call.
    ///
    /// # Panics
    ///
    /// If the model is not [`NetworkModel::BoundedMultiport`], if the length
    /// does not match the worker count, or if any cap is non-positive or
    /// non-finite.
    pub fn with_worker_bandwidths(mut self, bandwidths: Vec<f64>) -> Self {
        assert!(
            matches!(self.model, NetworkModel::BoundedMultiport { .. }),
            "per-worker bandwidths only apply to the bounded-multiport model"
        );
        assert_eq!(
            bandwidths.len(),
            self.latency.len(),
            "one bandwidth per worker (got {} for {} workers)",
            bandwidths.len(),
            self.latency.len()
        );
        assert!(
            bandwidths.iter().all(|b| b.is_finite() && *b > 0.0),
            "worker bandwidths must be positive and finite"
        );
        self.worker_bw = bandwidths;
        self
    }

    /// The model this state prices.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Prices the transfer of `blocks` blocks to worker `k`, requested at
    /// simulated time `now`. Mutates the channel clocks: the returned plan is
    /// committed.
    ///
    /// Zero-block sends (worker retirement handshakes) are free and do not
    /// occupy a channel.
    pub fn send(&mut self, k: ProcId, blocks: u64, now: f64) -> TransferPlan {
        if self.model.is_infinite() || blocks == 0 {
            return TransferPlan {
                start: now,
                end: now,
                arrival: now,
            };
        }
        let rate = if self.worker_bw.is_empty() {
            self.model.transfer_rate().expect("priced model")
        } else {
            // Heterogeneous multiport: each transfer runs at the target
            // worker's own inbound cap, still bounded by the master.
            let master = self.model.master_bw().expect("priced model");
            self.worker_bw[k.idx()].min(master)
        };
        let duration = blocks as f64 / rate;

        // Earliest-free channel, FIFO over requests.
        let (slot, _) = self
            .channel_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite channel clock"))
            .expect("at least one channel");
        let start = self.channel_free[slot].max(now);
        let end = start + duration;
        self.channel_free[slot] = end;
        self.busy += duration;

        // Queue-depth metric: transfers enqueued but not yet started.
        while self.waiting_starts.front().is_some_and(|&s| s <= now) {
            self.waiting_starts.pop_front();
        }
        if start > now {
            self.waiting_starts.push_back(start);
        }
        self.max_queue_depth = self.max_queue_depth.max(self.waiting_starts.len());

        // Construction guarantees one entry per worker, so an out-of-range
        // worker id is a hard (index) error, never a silent free link.
        let latency = self.latency[k.idx()];
        TransferPlan {
            start,
            end,
            arrival: end + latency,
        }
    }

    /// Total time the master link spent transferring (summed over channels).
    pub fn master_busy(&self) -> f64 {
        self.busy
    }

    /// Master-link utilization over a run of length `makespan`: busy time
    /// divided by `makespan × channels`. Zero for infinite networks and
    /// empty runs.
    pub fn utilization(&self, makespan: f64) -> f64 {
        if self.channel_free.is_empty() || makespan <= 0.0 {
            return 0.0;
        }
        self.busy / (makespan * self.channel_free.len() as f64)
    }

    /// Largest number of batches ever waiting behind busy channels.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_port(bw: f64) -> NetState {
        NetState::new(NetworkModel::OnePort { master_bw: bw }, 4, vec![0.0; 4])
    }

    #[test]
    fn infinite_transfers_are_free() {
        let mut net = NetState::new(NetworkModel::Infinite, 3, vec![5.0; 3]);
        let plan = net.send(ProcId(0), 1000, 2.5);
        assert_eq!(plan.start, 2.5);
        assert_eq!(plan.arrival, 2.5, "infinite ignores latency");
        assert_eq!(net.master_busy(), 0.0);
        assert_eq!(net.utilization(10.0), 0.0);
        assert_eq!(net.max_queue_depth(), 0);
    }

    #[test]
    fn one_port_serializes_fifo() {
        let mut net = one_port(10.0);
        let a = net.send(ProcId(0), 50, 0.0); // 5 time units
        let b = net.send(ProcId(1), 30, 0.0); // queued behind a
        let c = net.send(ProcId(2), 20, 0.0);
        assert_eq!((a.start, a.end), (0.0, 5.0));
        assert_eq!((b.start, b.end), (5.0, 8.0));
        assert_eq!((c.start, c.end), (8.0, 10.0));
        assert_eq!(net.master_busy(), 10.0);
        assert_eq!(net.max_queue_depth(), 2, "b and c waited");
        assert!((net.utilization(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut net = one_port(10.0);
        let a = net.send(ProcId(0), 10, 0.0);
        assert_eq!(a.end, 1.0);
        let b = net.send(ProcId(1), 10, 5.0); // link idle since t = 1
        assert_eq!((b.start, b.end), (5.0, 6.0));
        assert_eq!(net.max_queue_depth(), 0, "nobody ever waited");
    }

    #[test]
    fn latency_delays_arrival_only() {
        let mut net = NetState::new(NetworkModel::OnePort { master_bw: 10.0 }, 2, vec![0.0, 2.0]);
        let a = net.send(ProcId(1), 10, 0.0);
        assert_eq!(a.end, 1.0);
        assert_eq!(a.arrival, 3.0);
        // The channel frees at `end`, not `arrival`.
        let b = net.send(ProcId(0), 10, 0.0);
        assert_eq!(b.start, 1.0);
        assert_eq!(b.arrival, 2.0);
    }

    #[test]
    fn multiport_runs_channels_in_parallel() {
        let mut net = NetState::new(
            NetworkModel::BoundedMultiport {
                master_bw: 20.0,
                worker_bw: 10.0,
            },
            4,
            vec![0.0; 4],
        );
        // Two channels at rate 10 each.
        let a = net.send(ProcId(0), 10, 0.0);
        let b = net.send(ProcId(1), 10, 0.0);
        let c = net.send(ProcId(2), 10, 0.0);
        assert_eq!((a.start, a.end), (0.0, 1.0));
        assert_eq!((b.start, b.end), (0.0, 1.0), "second channel is free");
        assert_eq!((c.start, c.end), (1.0, 2.0), "third transfer queues");
        assert_eq!(net.max_queue_depth(), 1);
        // Aggregate utilization over both channels.
        assert!((net.utilization(2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn started_transfers_leave_the_queue() {
        let mut net = one_port(10.0);
        net.send(ProcId(0), 50, 0.0); // 0–5
        net.send(ProcId(1), 30, 0.0); // waits, starts at 5
        net.send(ProcId(2), 20, 0.0); // waits, starts at 8
        assert_eq!(net.max_queue_depth(), 2);
        // At t = 5 the transfer starting exactly then has left the queue;
        // the one starting at 8 and this one (at 10) still wait.
        let d = net.send(ProcId(3), 10, 5.0);
        assert_eq!((d.start, d.end), (10.0, 11.0));
        assert_eq!(net.max_queue_depth(), 2, "the start at 5 was dropped");
        // At t = 9 only the start at 10 is still ahead.
        let e = net.send(ProcId(0), 10, 9.0);
        assert_eq!((e.start, e.end), (11.0, 12.0));
        assert_eq!(net.max_queue_depth(), 2, "the start at 8 was dropped");
    }

    #[test]
    fn multiport_queue_counts_only_unstarted_transfers() {
        let mut net = NetState::new(
            NetworkModel::BoundedMultiport {
                master_bw: 20.0,
                worker_bw: 10.0,
            },
            4,
            vec![0.0; 4],
        );
        net.send(ProcId(0), 10, 0.0); // channel 0: 0–1
        net.send(ProcId(1), 10, 0.0); // channel 1: 0–1
        net.send(ProcId(2), 10, 0.0); // waits, 1–2
        net.send(ProcId(3), 10, 0.0); // waits, 1–2
        assert_eq!(net.max_queue_depth(), 2);
        // Both waiting transfers start at t = 1; the new one waits alone.
        let e = net.send(ProcId(0), 10, 1.0);
        assert_eq!((e.start, e.end), (2.0, 3.0));
        assert_eq!(net.max_queue_depth(), 2);
        let f = net.send(ProcId(1), 10, 1.0);
        assert_eq!((f.start, f.end), (2.0, 3.0));
        assert_eq!(net.max_queue_depth(), 2, "only e and f wait at t = 1");
    }

    #[test]
    fn zero_block_sends_are_free() {
        let mut net = one_port(1.0);
        let plan = net.send(ProcId(0), 0, 4.0);
        assert_eq!(plan.arrival, 4.0);
        assert_eq!(net.master_busy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid network model")]
    fn invalid_model_rejected() {
        let _ = NetState::new(NetworkModel::OnePort { master_bw: -1.0 }, 1, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "one link latency per worker")]
    fn short_latency_vector_rejected() {
        // A shard that forgets to slice latencies must fail loudly instead
        // of quietly getting free links.
        let _ = NetState::new(NetworkModel::OnePort { master_bw: 1.0 }, 4, vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "one link latency per worker")]
    fn long_latency_vector_rejected() {
        let _ = NetState::new(NetworkModel::Infinite, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "one bandwidth per worker")]
    fn short_bandwidth_vector_rejected() {
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let _ = NetState::new(model, 4, vec![0.0; 4]).with_worker_bandwidths(vec![10.0; 3]);
    }

    #[test]
    #[should_panic(expected = "only apply to the bounded-multiport model")]
    fn per_worker_bandwidths_require_multiport() {
        let _ = NetState::new(NetworkModel::OnePort { master_bw: 5.0 }, 2, vec![0.0; 2])
            .with_worker_bandwidths(vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_bandwidth_rejected() {
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let _ = NetState::new(model, 2, vec![0.0; 2]).with_worker_bandwidths(vec![10.0, 0.0]);
    }

    #[test]
    fn per_worker_bandwidths_price_each_link() {
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let mut net = NetState::new(model, 2, vec![0.0; 2]).with_worker_bandwidths(vec![10.0, 2.0]);
        let fast = net.send(ProcId(0), 10, 0.0);
        let slow = net.send(ProcId(1), 10, 0.0);
        assert_eq!(fast.end, 1.0, "worker 0 keeps the uniform rate");
        assert_eq!(slow.end, 5.0, "worker 1 is capped at 2 blocks/time");
    }

    #[test]
    fn uniform_bandwidth_list_matches_uniform_model() {
        // The per-worker override with every entry equal to the model's
        // uniform cap prices identically to the plain model.
        let model = NetworkModel::BoundedMultiport {
            master_bw: 20.0,
            worker_bw: 10.0,
        };
        let mut plain = NetState::new(model, 3, vec![0.0; 3]);
        let mut listed =
            NetState::new(model, 3, vec![0.0; 3]).with_worker_bandwidths(vec![10.0; 3]);
        for (k, blocks, now) in [(0u32, 10u64, 0.0), (1, 7, 0.2), (2, 3, 0.4), (0, 5, 1.0)] {
            assert_eq!(
                plain.send(ProcId(k), blocks, now),
                listed.send(ProcId(k), blocks, now)
            );
        }
        assert_eq!(plain.master_busy(), listed.master_busy());
    }

    /// The transfer pricing as first written, recounting the queue depth by
    /// rescanning every queued start on each send: the reference the
    /// deque-based [`NetState::send`] must agree with.
    struct RetainRecount {
        channel_free: Vec<f64>,
        rate: f64,
        latency: Vec<f64>,
        waiting_starts: Vec<f64>,
        max_queue_depth: usize,
    }

    impl RetainRecount {
        fn send(&mut self, k: usize, blocks: u64, now: f64) -> TransferPlan {
            if blocks == 0 {
                return TransferPlan {
                    start: now,
                    end: now,
                    arrival: now,
                };
            }
            let (slot, _) = self
                .channel_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            let start = self.channel_free[slot].max(now);
            let end = start + blocks as f64 / self.rate;
            self.channel_free[slot] = end;
            self.waiting_starts.retain(|&s| s > now);
            if start > now {
                self.waiting_starts.push(start);
            }
            self.max_queue_depth = self.max_queue_depth.max(self.waiting_starts.len());
            TransferPlan {
                start,
                end,
                arrival: end + self.latency[k],
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random send sequences (non-decreasing request times, ties with
        /// earlier requests and with transfer ends included, zero-block
        /// sends mixed in) over 1–4 channels price and count the queue
        /// exactly as the rescanning reference does.
        #[test]
        fn queue_depth_matches_the_retain_recount(
            seed in 0u64..1_000_000,
            channels in 1usize..=4,
            sends in 1usize..300,
        ) {
            use rand::Rng;
            let mut rng = hetsched_util::rng::rng_for(seed, 0);
            let workers = 6;
            let bw = [4.0, 5.0, 8.0, 10.0][rng.gen_range(0..4usize)];
            let model = if channels == 1 {
                NetworkModel::OnePort { master_bw: bw }
            } else {
                NetworkModel::BoundedMultiport {
                    master_bw: bw * channels as f64,
                    worker_bw: bw,
                }
            };
            let latency: Vec<f64> = (0..workers).map(|_| rng.gen_range(0.0..0.5)).collect();
            let mut net = NetState::new(model, workers, latency.clone());
            let mut reference = RetainRecount {
                channel_free: vec![0.0; channels],
                rate: bw,
                latency,
                waiting_starts: Vec::new(),
                max_queue_depth: 0,
            };
            let mut now = 0.0;
            // Transfer ends still ahead of `now`: an engine requests again
            // exactly when a transfer lands, which is when the next queued
            // one starts.
            let mut ends: Vec<f64> = Vec::new();
            for _ in 0..sends {
                ends.retain(|&e| e > now);
                if !ends.is_empty() && rng.gen_bool(0.3) {
                    now = ends[rng.gen_range(0..ends.len())];
                } else if rng.gen_bool(0.7) {
                    now += rng.gen_range(0.0..2.0);
                }
                let k: usize = rng.gen_range(0..workers);
                let blocks = if rng.gen_bool(0.25) { 0 } else { rng.gen_range(1..30) };
                let got = net.send(ProcId(k as u32), blocks, now);
                proptest::prop_assert_eq!(got, reference.send(k, blocks, now));
                proptest::prop_assert_eq!(net.max_queue_depth(), reference.max_queue_depth);
                ends.push(got.end);
            }
        }
    }
}
