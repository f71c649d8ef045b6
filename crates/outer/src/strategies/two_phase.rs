//! `DynamicOuter2Phases` / `DynamicMatrix2Phases`: data-aware opening,
//! random end game (Algorithm 2).

use crate::pool::TaskPool;
use crate::space::TaskSpace;
use crate::strategies::{dynamic_step, random_step};
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Runs [`Dynamic`](crate::Dynamic) while more than `threshold` tasks
/// remain, then switches every worker to the [`Random`](crate::Random)
/// behaviour.
///
/// The paper sets `threshold = e^{−β}·n²` (outer product) or `e^{−β}·n³`
/// (matrix product) with `β` minimizing the analytic communication ratio
/// (Theorem 6, §4.2); [`with_beta`](Self::with_beta) wires that in
/// directly, and `hetsched-analysis` computes the optimal `β`.
#[derive(Clone, Debug)]
pub struct TwoPhase<S: TaskSpace> {
    pool: TaskPool<S>,
    workers: Vec<S::Worker>,
    threshold: usize,
    // Per-phase accounting, used to validate Lemma 4 / Lemma 5 separately.
    phase1_blocks: u64,
    phase2_blocks: u64,
    phase1_tasks: usize,
    phase2_tasks: usize,
}

/// The switch threshold for `tasks` tasks under the paper's
/// parameterization: switch when `e^{−β}` of them remain. Rounds to the
/// nearest task, like [`phase1_fraction_threshold`] — the two agree for
/// `fraction = 1 − e^{−β}` — so `β = 0` degenerates exactly to the pure
/// random strategy.
pub fn beta_threshold(tasks: usize, beta: f64) -> usize {
    assert!(beta >= 0.0, "β must be non-negative");
    ((-beta).exp() * tasks as f64).round() as usize
}

/// The switch threshold for `tasks` tasks under Fig. 2's parameterization:
/// process `fraction ∈ [0, 1]` of them in phase 1, i.e. switch when
/// `1 − fraction` of them remain.
pub fn phase1_fraction_threshold(tasks: usize, fraction: f64) -> usize {
    assert!((0.0..=1.0).contains(&fraction));
    ((1.0 - fraction) * tasks as f64).round() as usize
}

impl<S: TaskSpace> TwoPhase<S> {
    /// `n` blocks per dimension, `p` workers; switch to the random phase
    /// when at most `threshold` tasks remain.
    pub fn new(n: usize, p: usize, threshold: usize) -> Self {
        Self::shard(S::square(n), p, threshold)
    }

    /// Switch when `e^{−β}` of the tasks remain ([`beta_threshold`]).
    pub fn with_beta(n: usize, p: usize, beta: f64) -> Self {
        let space = S::square(n);
        Self::shard(space, p, beta_threshold(space.tasks(), beta))
    }

    /// Process `fraction` of the tasks in phase 1
    /// ([`phase1_fraction_threshold`]).
    pub fn with_phase1_fraction(n: usize, p: usize, fraction: f64) -> Self {
        let space = S::square(n);
        Self::shard(space, p, phase1_fraction_threshold(space.tasks(), fraction))
    }

    /// `p` workers over `space` (the full problem or a hierarchy shard);
    /// switch when at most `threshold` tasks remain.
    pub fn shard(space: S, p: usize, threshold: usize) -> Self {
        TwoPhase {
            pool: TaskPool::new(space),
            workers: space.fleet(p),
            threshold,
            phase1_blocks: 0,
            phase2_blocks: 0,
            phase1_tasks: 0,
            phase2_tasks: 0,
        }
    }

    /// The switch-over threshold in remaining tasks.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// True once the end game (random phase) has begun.
    pub fn in_phase2(&self) -> bool {
        self.pool.remaining() <= self.threshold
    }

    /// Blocks shipped during phase 1 (Lemma 4's `V_Phase1`).
    pub fn phase1_blocks(&self) -> u64 {
        self.phase1_blocks
    }

    /// Blocks shipped during phase 2 (Lemma 5's `V_Phase2`).
    pub fn phase2_blocks(&self) -> u64 {
        self.phase2_blocks
    }

    /// Tasks allocated during phase 1.
    pub fn phase1_tasks(&self) -> usize {
        self.phase1_tasks
    }

    /// Tasks allocated during phase 2.
    pub fn phase2_tasks(&self) -> usize {
        self.phase2_tasks
    }
}

impl<S: TaskSpace> Scheduler for TwoPhase<S> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let worker = &mut self.workers[k.idx()];
        if self.pool.remaining() > self.threshold {
            let a = dynamic_step(&mut self.pool, worker, rng, out);
            self.phase1_blocks += a.blocks;
            self.phase1_tasks += a.tasks;
            a
        } else {
            let a = random_step(&mut self.pool, worker, rng, out);
            self.phase2_blocks += a.blocks;
            self.phase2_tasks += a.tasks;
            a
        }
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Reinsertion can push `remaining` back above the threshold, in
        // which case the scheduler legitimately drops back to phase 1; the
        // phase counters count (re-)allocations, so under failures their
        // sum exceeds `total_tasks` by the number of lost tasks.
        for &id in ids {
            self.pool.reinsert(id);
        }
    }

    fn phase(&self) -> Option<u8> {
        Some(if self.in_phase2() { 2 } else { 1 })
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        Some(S::knowledge(&self.workers[k.idx()]))
    }

    fn remaining(&self) -> usize {
        self.pool.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.pool.total()
    }

    fn name(&self) -> &'static str {
        S::NAMES.two_phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicOuter, DynamicOuter2Phases, RandomOuter};
    use hetsched_platform::{outer_lower_bound, Platform, SpeedDistribution, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn threshold_from_beta() {
        let s = DynamicOuter2Phases::with_beta(100, 4, 4.0);
        // e^{-4}·10000 ≈ 183.16 → 183.
        assert_eq!(s.threshold(), 183);
    }

    #[test]
    fn threshold_from_fraction() {
        let s = DynamicOuter2Phases::with_phase1_fraction(10, 2, 0.9);
        assert_eq!(s.threshold(), 10);
    }

    #[test]
    fn zero_threshold_degenerates_to_pure_dynamic() {
        let pf = Platform::homogeneous(5);
        let seed_rng = || rng_for(0, 7);
        let (two, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter2Phases::new(30, 5, 0))
                .run(&mut seed_rng());
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(30, 5))
            .run(&mut seed_rng());
        assert_eq!(two.total_blocks, pure.total_blocks);
    }

    #[test]
    fn full_threshold_degenerates_to_pure_random() {
        let pf = Platform::homogeneous(5);
        let seed_rng = || rng_for(1, 7);
        let (two, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter2Phases::new(30, 5, 900))
                .run(&mut seed_rng());
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(30, 5))
            .run(&mut seed_rng());
        assert_eq!(two.total_blocks, pure.total_blocks);
    }

    #[test]
    fn beta_zero_is_pure_random() {
        // β = 0 ⇒ threshold = n² ⇒ every request is a phase-2 random step.
        let pf = Platform::from_speeds(vec![10.0, 40.0]);
        let seed_rng = || rng_for(5, 7);
        let two = DynamicOuter2Phases::with_beta(20, 2, 0.0);
        assert_eq!(two.threshold(), 400);
        let (two, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, two).run(&mut seed_rng());
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(20, 2))
            .run(&mut seed_rng());
        assert_eq!(two.total_blocks, pure.total_blocks);
        assert_eq!(sched.phase1_tasks(), 0);
        assert_eq!(sched.phase2_tasks(), 400);
    }

    #[test]
    fn fraction_one_is_pure_dynamic() {
        // fraction = 1 ⇒ threshold = 0 ⇒ every request is a phase-1
        // dynamic step.
        let pf = Platform::from_speeds(vec![10.0, 40.0]);
        let seed_rng = || rng_for(6, 7);
        let two = DynamicOuter2Phases::with_phase1_fraction(20, 2, 1.0);
        assert_eq!(two.threshold(), 0);
        let (two, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, two).run(&mut seed_rng());
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(20, 2))
            .run(&mut seed_rng());
        assert_eq!(two.total_blocks, pure.total_blocks);
        assert_eq!(sched.phase2_tasks(), 0);
        assert_eq!(sched.phase1_tasks(), 400);
    }

    #[test]
    fn beta_and_fraction_thresholds_round_identically() {
        // Both parameterizations round to nearest: the same switch point
        // expressed either way yields the same threshold.
        for n in [10usize, 33, 100] {
            for beta in [0.5f64, 1.0, 3.3, 6.0] {
                let frac = 1.0 - (-beta).exp();
                let a = DynamicOuter2Phases::with_beta(n, 2, beta);
                let b = DynamicOuter2Phases::with_phase1_fraction(n, 2, frac);
                assert_eq!(a.threshold(), b.threshold(), "n={n} β={beta}");
            }
        }
    }

    #[test]
    fn phase_accounting_is_exhaustive() {
        let pf = Platform::from_speeds(vec![20.0, 30.0, 50.0]);
        let mut rng = rng_for(2, 0);
        let (report, sched) = hetsched_sim::Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicOuter2Phases::with_beta(40, 3, 4.0),
        )
        .run(&mut rng);
        assert_eq!(sched.phase1_tasks() + sched.phase2_tasks(), 1600);
        assert_eq!(
            sched.phase1_blocks() + sched.phase2_blocks(),
            report.total_blocks
        );
        assert!(sched.phase2_tasks() > 0, "β=4 on n=40 leaves an end game");
        assert!(
            sched.phase2_tasks() <= sched.threshold(),
            "phase 2 handles at most the threshold"
        );
    }

    #[test]
    fn improves_on_pure_dynamic_with_good_beta() {
        // Paper Fig. 2/6: a well-chosen threshold strictly reduces comm.
        let mut seed = rng_for(3, 0);
        let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut seed);
        let lb = outer_lower_bound(100, &pf);
        let mut dyn_sum = 0.0;
        let mut two_sum = 0.0;
        for t in 0..5u64 {
            let (d, _) =
                hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(100, 20))
                    .run(&mut rng_for(100 + t, 0));
            let (w, _) = hetsched_sim::Engine::new(
                &pf,
                SpeedModel::Fixed,
                DynamicOuter2Phases::with_beta(100, 20, 4.17),
            )
            .run(&mut rng_for(100 + t, 0));
            dyn_sum += d.normalized(lb);
            two_sum += w.normalized(lb);
        }
        assert!(
            two_sum < dyn_sum,
            "two-phase {two_sum} should beat pure dynamic {dyn_sum}"
        );
    }

    #[test]
    fn n_equals_one_works() {
        // Degenerate problem: a single task.
        let pf = Platform::homogeneous(3);
        let (report, sched) = hetsched_sim::Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicOuter2Phases::with_beta(1, 3, 4.0),
        )
        .run(&mut rng_for(9, 0));
        assert_eq!(sched.phase1_tasks() + sched.phase2_tasks(), 1);
        assert_eq!(report.ledger.total_tasks(), 1);
        assert_eq!(report.total_blocks, 2);
    }

    #[test]
    fn more_workers_than_tasks() {
        // p = 30 workers for a 4×4 task grid: most workers never get work,
        // but everything still completes exactly once.
        let pf = Platform::homogeneous(30);
        let (report, _) = hetsched_sim::Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicOuter2Phases::with_beta(4, 30, 3.0),
        )
        .run(&mut rng_for(10, 0));
        assert_eq!(report.ledger.total_tasks(), 16);
    }

    #[test]
    fn introspection_reports_phase_and_knowledge() {
        let mut s = DynamicOuter2Phases::new(10, 2, 50);
        assert_eq!(s.phase(), Some(1));
        assert_eq!(s.useful_fraction(ProcId(0)), Some(0.0));
        let mut rng = rng_for(7, 0);
        let mut out = Vec::new();
        while s.remaining() > 50 {
            out.clear();
            s.on_request(ProcId(0), &mut rng, &mut out);
        }
        assert_eq!(s.phase(), Some(2));
        let f = s.useful_fraction(ProcId(0)).unwrap();
        assert!(f > 0.0 && f <= 1.0, "{f}");
        // The idle worker acquired nothing.
        assert_eq!(s.useful_fraction(ProcId(1)), Some(0.0));
    }

    #[test]
    fn in_phase2_flag_transitions() {
        let mut s = DynamicOuter2Phases::new(10, 1, 50);
        let mut rng = rng_for(4, 0);
        let mut out = Vec::new();
        assert!(!s.in_phase2());
        while s.remaining() > 50 {
            out.clear();
            s.on_request(ProcId(0), &mut rng, &mut out);
        }
        assert!(s.in_phase2());
    }
}
