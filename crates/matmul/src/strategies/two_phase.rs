//! `DynamicMatrix2Phases`: data-aware opening, random end game.

use crate::cube::WorkerCube;
use crate::state::MatmulState;
use crate::strategies::{dynamic_step, random_step};
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Runs [`DynamicMatrix`](crate::DynamicMatrix) while more than `threshold`
/// tasks remain, then switches every worker to the
/// [`RandomMatrix`](crate::RandomMatrix) behaviour.
///
/// The paper's switch point is `e^{−β}·n³` remaining tasks with `β`
/// minimizing the §4.2 analytic ratio; `hetsched-analysis` computes it.
#[derive(Clone, Debug)]
pub struct DynamicMatrix2Phases {
    state: MatmulState,
    workers: Vec<WorkerCube>,
    threshold: usize,
    phase1_blocks: u64,
    phase2_blocks: u64,
    phase1_tasks: usize,
    phase2_tasks: usize,
}

impl DynamicMatrix2Phases {
    /// `n` blocks per dimension, `p` workers; switch when at most
    /// `threshold` tasks remain.
    pub fn new(n: usize, p: usize, threshold: usize) -> Self {
        DynamicMatrix2Phases {
            state: MatmulState::new(n),
            workers: WorkerCube::fleet(n, p),
            threshold,
            phase1_blocks: 0,
            phase2_blocks: 0,
            phase1_tasks: 0,
            phase2_tasks: 0,
        }
    }

    /// Rectangular shard variant (`ni × nj × nk` task cuboid) for the
    /// hierarchical tree topology; switch when at most `threshold` tasks
    /// remain.
    pub fn rect(ni: usize, nj: usize, nk: usize, p: usize, threshold: usize) -> Self {
        DynamicMatrix2Phases {
            state: MatmulState::rect(ni, nj, nk),
            workers: WorkerCube::fleet_rect(ni, nj, nk, p),
            threshold,
            phase1_blocks: 0,
            phase2_blocks: 0,
            phase1_tasks: 0,
            phase2_tasks: 0,
        }
    }

    /// [`with_beta`](Self::with_beta) over a rectangular shard: switch when
    /// `e^{−β}` of the shard's own `ni·nj·nk` tasks remain.
    pub fn rect_with_beta(ni: usize, nj: usize, nk: usize, p: usize, beta: f64) -> Self {
        assert!(beta >= 0.0, "β must be non-negative");
        let threshold = ((-beta).exp() * (ni * nj * nk) as f64).round() as usize;
        Self::rect(ni, nj, nk, p, threshold)
    }

    /// [`with_phase1_fraction`](Self::with_phase1_fraction) over a
    /// rectangular shard.
    pub fn rect_with_phase1_fraction(
        ni: usize,
        nj: usize,
        nk: usize,
        p: usize,
        fraction: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        let threshold = ((1.0 - fraction) * (ni * nj * nk) as f64).round() as usize;
        Self::rect(ni, nj, nk, p, threshold)
    }

    /// Paper parameterization: switch when `e^{−β}·n³` tasks remain.
    ///
    /// Rounds to the nearest task, like
    /// [`with_phase1_fraction`](Self::with_phase1_fraction) — the two
    /// constructors agree for `fraction = 1 − e^{−β}` — so `β = 0`
    /// degenerates exactly to pure [`RandomMatrix`](crate::RandomMatrix).
    pub fn with_beta(n: usize, p: usize, beta: f64) -> Self {
        assert!(beta >= 0.0, "β must be non-negative");
        let threshold = ((-beta).exp() * (n * n * n) as f64).round() as usize;
        Self::new(n, p, threshold)
    }

    /// Process `fraction ∈ [0, 1]` of the tasks in phase 1.
    pub fn with_phase1_fraction(n: usize, p: usize, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        let threshold = ((1.0 - fraction) * (n * n * n) as f64).round() as usize;
        Self::new(n, p, threshold)
    }

    /// The switch-over threshold in remaining tasks.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// True once the end game (random phase) has begun.
    pub fn in_phase2(&self) -> bool {
        self.state.remaining() <= self.threshold
    }

    /// Blocks shipped during phase 1.
    pub fn phase1_blocks(&self) -> u64 {
        self.phase1_blocks
    }

    /// Blocks shipped during phase 2.
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

    /// Read-only view of the task state (for audits).
    pub fn state(&self) -> &MatmulState {
        &self.state
    }
}

impl Scheduler for DynamicMatrix2Phases {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let worker = &mut self.workers[k.idx()];
        if self.state.remaining() > self.threshold {
            let a = dynamic_step(&mut self.state, worker, rng, out);
            self.phase1_blocks += a.blocks;
            self.phase1_tasks += a.tasks;
            a
        } else {
            let a = random_step(&mut self.state, worker, rng, out);
            self.phase2_blocks += a.blocks;
            self.phase2_tasks += a.tasks;
            a
        }
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Reinsertion can push `remaining` back over the threshold, in
        // which case the schedule legitimately drops back to phase 1. The
        // phase counters count (re-)allocations, so under failures their
        // sum exceeds `total_tasks` by the number of lost tasks.
        for &id in ids {
            self.state.reinsert(id);
        }
    }

    fn phase(&self) -> Option<u8> {
        Some(if self.in_phase2() { 2 } else { 1 })
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        Some(self.workers[k.idx()].knowledge_fraction())
    }

    fn remaining(&self) -> usize {
        self.state.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.state.total()
    }

    fn name(&self) -> &'static str {
        "DynamicMatrix2Phases"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{DynamicMatrix, RandomMatrix};
    use hetsched_platform::{matmul_lower_bound, Platform, SpeedDistribution, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn threshold_from_beta() {
        let s = DynamicMatrix2Phases::with_beta(40, 4, 3.0);
        // e^{-3}·64000 ≈ 3186.3 → 3186.
        assert_eq!(s.threshold(), 3186);
    }

    #[test]
    fn zero_threshold_degenerates_to_pure_dynamic() {
        let pf = Platform::homogeneous(4);
        let (two, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix2Phases::new(8, 4, 0))
                .run(&mut rng_for(0, 7));
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(8, 4))
            .run(&mut rng_for(0, 7));
        assert_eq!(two.total_blocks, pure.total_blocks);
    }

    #[test]
    fn full_threshold_degenerates_to_pure_random() {
        let pf = Platform::homogeneous(4);
        let (two, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix2Phases::new(8, 4, 512))
                .run(&mut rng_for(1, 7));
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(8, 4))
            .run(&mut rng_for(1, 7));
        assert_eq!(two.total_blocks, pure.total_blocks);
    }

    #[test]
    fn beta_zero_is_pure_random() {
        // e⁰·n³ = n³: the threshold covers every task, so phase 1 never
        // runs and the schedule is block-for-block RandomMatrix.
        let s = DynamicMatrix2Phases::with_beta(8, 4, 0.0);
        assert_eq!(s.threshold(), 512);
        let pf = Platform::homogeneous(4);
        let (two, sched) = hetsched_sim::Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicMatrix2Phases::with_beta(8, 4, 0.0),
        )
        .run(&mut rng_for(21, 7));
        assert_eq!(sched.phase1_tasks(), 0);
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(8, 4))
            .run(&mut rng_for(21, 7));
        assert_eq!(two.total_blocks, pure.total_blocks);
    }

    #[test]
    fn fraction_one_is_pure_dynamic() {
        let pf = Platform::homogeneous(4);
        let (two, sched) = hetsched_sim::Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicMatrix2Phases::with_phase1_fraction(8, 4, 1.0),
        )
        .run(&mut rng_for(22, 7));
        assert_eq!(sched.threshold(), 0);
        assert_eq!(sched.phase2_tasks(), 0);
        let (pure, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(8, 4))
            .run(&mut rng_for(22, 7));
        assert_eq!(two.total_blocks, pure.total_blocks);
    }

    #[test]
    fn beta_and_fraction_thresholds_round_identically() {
        for n in [6usize, 15, 40] {
            for beta in [0.5f64, 1.0, 3.3, 6.0] {
                let by_beta = DynamicMatrix2Phases::with_beta(n, 2, beta);
                let by_frac = DynamicMatrix2Phases::with_phase1_fraction(n, 2, 1.0 - (-beta).exp());
                assert_eq!(
                    by_beta.threshold(),
                    by_frac.threshold(),
                    "n={n} beta={beta}"
                );
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
            DynamicMatrix2Phases::with_beta(12, 3, 3.0),
        )
        .run(&mut rng);
        assert_eq!(sched.phase1_tasks() + sched.phase2_tasks(), 12 * 12 * 12);
        assert_eq!(
            sched.phase1_blocks() + sched.phase2_blocks(),
            report.total_blocks
        );
        assert!(sched.phase2_tasks() > 0);
        assert!(sched.phase2_tasks() <= sched.threshold());
    }

    #[test]
    fn introspection_reports_phase_and_knowledge() {
        let mut s = DynamicMatrix2Phases::new(6, 2, 100);
        assert_eq!(s.phase(), Some(1));
        assert_eq!(s.useful_fraction(ProcId(0)), Some(0.0));
        let mut rng = rng_for(7, 0);
        let mut out = Vec::new();
        while s.remaining() > 100 {
            out.clear();
            s.on_request(ProcId(0), &mut rng, &mut out);
        }
        assert_eq!(s.phase(), Some(2));
        let f = s.useful_fraction(ProcId(0)).unwrap();
        assert!(f > 0.0 && f <= 1.0, "{f}");
        assert_eq!(s.useful_fraction(ProcId(1)), Some(0.0));
    }

    #[test]
    fn n_equals_one_works() {
        let pf = Platform::homogeneous(2);
        let (report, _) = hetsched_sim::Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicMatrix2Phases::with_beta(1, 2, 2.0),
        )
        .run(&mut rng_for(11, 0));
        assert_eq!(report.ledger.total_tasks(), 1);
        assert_eq!(report.total_blocks, 3);
    }

    #[test]
    fn improves_on_pure_dynamic_with_good_beta() {
        let mut seed = rng_for(3, 0);
        let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut seed);
        let lb = matmul_lower_bound(20, &pf);
        let mut dyn_sum = 0.0;
        let mut two_sum = 0.0;
        for t in 0..4u64 {
            let (d, _) =
                hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(20, 20))
                    .run(&mut rng_for(50 + t, 0));
            let (w, _) = hetsched_sim::Engine::new(
                &pf,
                SpeedModel::Fixed,
                DynamicMatrix2Phases::with_beta(20, 20, 3.0),
            )
            .run(&mut rng_for(50 + t, 0));
            dyn_sum += d.normalized(lb);
            two_sum += w.normalized(lb);
        }
        assert!(
            two_sum < dyn_sum,
            "two-phase {two_sum} should beat pure dynamic {dyn_sum}"
        );
    }
}
