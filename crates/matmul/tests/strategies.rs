//! Behaviour of the four strategies over the matrix-multiplication cube,
//! through the public aliases.

use hetsched_matmul::*;
use hetsched_outer::TaskSpace;
use hetsched_platform::ProcId;
use hetsched_sim::Scheduler;

mod steps {
    use super::*;
    use hetsched_outer::TaskPool;
    use hetsched_sim::Allocation;
    use hetsched_util::rng::rng_for;
    use rand::rngs::StdRng;

    // Count-only shims; id-sink behaviour has a dedicated test below.
    fn random_step(s: &mut TaskPool<Cube>, w: &mut WorkerCube, r: &mut StdRng) -> Allocation {
        hetsched_outer::random_step(s, w, r, &mut Vec::new())
    }
    fn dynamic_step(s: &mut TaskPool<Cube>, w: &mut WorkerCube, r: &mut StdRng) -> Allocation {
        hetsched_outer::dynamic_step(s, w, r, &mut Vec::new())
    }

    #[test]
    fn steps_report_allocated_task_ids() {
        let mut state = TaskPool::new(Cube::square(5));
        let mut w = Cube::square(5).worker();
        let mut rng = rng_for(77, 0);
        let mut out = Vec::new();
        for _ in 0..3 {
            out.clear();
            let a = hetsched_outer::dynamic_step(&mut state, &mut w, &mut rng, &mut out);
            assert_eq!(out.len(), a.tasks);
            for &id in &out {
                let (i, j, k) = state.space().coords(id);
                assert!(state.is_processed(id));
                assert!(w.owns_a.contains(i, k));
                assert!(w.owns_b.contains(k, j));
                assert!(w.owns_c.contains(i, j));
            }
        }
        out.clear();
        let a = hetsched_outer::random_step(&mut state, &mut w, &mut rng, &mut out);
        assert_eq!(out.len(), a.tasks);
    }

    #[test]
    fn random_step_ships_at_most_three_blocks() {
        let mut state = TaskPool::new(Cube::square(5));
        let mut w = Cube::square(5).worker();
        let mut rng = rng_for(0, 0);
        let a = random_step(&mut state, &mut w, &mut rng);
        assert_eq!(a.tasks, 1);
        assert_eq!(a.blocks, 3, "first task ships all three blocks");
        while state.remaining() > 0 {
            let a = random_step(&mut state, &mut w, &mut rng);
            assert_eq!(a.tasks, 1);
            assert!(a.blocks <= 3);
        }
        assert!(random_step(&mut state, &mut w, &mut rng).is_done());
    }

    #[test]
    fn single_worker_random_total_blocks_is_3n2() {
        // Alone, the worker ends up owning each of the 3n² blocks once.
        let n = 4;
        let mut state = TaskPool::new(Cube::square(n));
        let mut w = Cube::square(n).worker();
        let mut rng = rng_for(1, 0);
        let mut total = 0;
        while state.remaining() > 0 {
            total += random_step(&mut state, &mut w, &mut rng).blocks;
        }
        assert_eq!(total, 3 * (n * n) as u64);
    }

    #[test]
    fn dynamic_step_first_call_is_one_task_three_blocks() {
        let mut state = TaskPool::new(Cube::square(6));
        let mut w = Cube::square(6).worker();
        let mut rng = rng_for(2, 0);
        let a = dynamic_step(&mut state, &mut w, &mut rng);
        assert_eq!(a.tasks, 1);
        assert_eq!(a.blocks, 3, "brick 0³→1³ ships A, B, C corner blocks");
        assert_eq!(w.i_set.count(), 1);
        assert_eq!(w.j_set.count(), 1);
        assert_eq!(w.k_set.count(), 1);
    }

    #[test]
    fn dynamic_step_growth_matches_closed_forms_when_alone() {
        // y³ → (y+1)³: 3y²+3y+1 new tasks, 3(2y+1) new blocks.
        let n = 8;
        let mut state = TaskPool::new(Cube::square(n));
        let mut w = Cube::square(n).worker();
        let mut rng = rng_for(3, 0);
        for y in 0..n as u64 {
            let a = dynamic_step(&mut state, &mut w, &mut rng);
            assert_eq!(a.tasks as u64, 3 * y * y + 3 * y + 1, "growth at y={y}");
            assert_eq!(a.blocks, 3 * (2 * y + 1), "boundary at y={y}");
        }
        assert_eq!(state.remaining(), 0);
        assert_eq!(w.total_blocks(), 3 * n * n);
        assert!(dynamic_step(&mut state, &mut w, &mut rng).is_done());
    }

    #[test]
    fn steps_interleave_without_double_allocation() {
        let mut state = TaskPool::new(Cube::square(6));
        let mut workers = Cube::square(6).fleet(3);
        let mut rng = rng_for(4, 0);
        let mut allocated = 0usize;
        let mut turn = 0usize;
        while state.remaining() > 0 {
            let wi = turn % 3;
            let a = if wi == 0 {
                random_step(&mut state, &mut workers[wi], &mut rng)
            } else {
                dynamic_step(&mut state, &mut workers[wi], &mut rng)
            };
            allocated += a.tasks;
            turn += 1;
        }
        assert_eq!(allocated, 216);
    }

    #[test]
    fn dynamic_step_after_everything_processed_is_done_and_free() {
        let n = 4;
        let mut state = TaskPool::new(Cube::square(n));
        let mut w1 = Cube::square(n).worker();
        let mut w2 = Cube::square(n).worker();
        let mut rng = rng_for(5, 0);
        dynamic_step(&mut state, &mut w2, &mut rng);
        while state.remaining() > 0 {
            dynamic_step(&mut state, &mut w1, &mut rng);
        }
        let done = dynamic_step(&mut state, &mut w2, &mut rng);
        assert!(done.is_done());
        assert_eq!(done.blocks, 0);
    }
}

mod random {
    use super::*;
    use hetsched_platform::{matmul_lower_bound, Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn completes_all_tasks_under_engine() {
        let pf = Platform::from_speeds(vec![10.0, 90.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(8, 2))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 512);
    }

    #[test]
    fn communication_far_above_lower_bound() {
        let pf = Platform::homogeneous(8);
        let mut rng = rng_for(1, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(12, 8))
                .run(&mut rng);
        let lb = matmul_lower_bound(12, &pf);
        assert!(report.normalized(lb) > 2.0);
    }

    #[test]
    fn per_task_comm_bounded_by_three() {
        let pf = Platform::homogeneous(3);
        let mut rng = rng_for(2, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(6, 3))
                .run(&mut rng);
        assert!(report.total_blocks <= 3 * 216);
    }
}

mod sorted {
    use super::*;
    use hetsched_platform::{Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn allocates_in_lexicographic_order() {
        let mut s = SortedMatrix::new(3, 1);
        let mut rng = rng_for(0, 0);
        let mut count = 0;
        let mut expect = 0u32;
        let mut out = Vec::new();
        while s.remaining() > 0 {
            assert_eq!(s.cursor(), expect);
            out.clear();
            let a = s.on_request(ProcId(0), &mut rng, &mut out);
            assert_eq!(a.tasks, 1);
            assert_eq!(out.as_slice(), &[expect]);
            expect += 1;
            count += 1;
        }
        assert_eq!(count, 27);
    }

    #[test]
    fn single_worker_total_blocks_is_3n2() {
        let n = 5;
        let pf = Platform::from_speeds(vec![2.0]);
        let mut rng = rng_for(1, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedMatrix::new(n, 1))
                .run(&mut rng);
        assert_eq!(report.total_blocks, 3 * (n * n) as u64);
    }

    #[test]
    fn completes_under_engine_heterogeneous() {
        let pf = Platform::from_speeds(vec![10.0, 50.0, 100.0]);
        let mut rng = rng_for(2, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedMatrix::new(7, 3))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 343);
    }
}

mod dynamic {
    use super::*;
    use hetsched_platform::{matmul_lower_bound, Platform, SpeedDistribution, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn completes_all_tasks() {
        let pf = Platform::from_speeds(vec![25.0, 75.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(10, 2))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 1000);
    }

    #[test]
    fn beats_random_on_communication() {
        let mut seed = rng_for(1, 0);
        let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut seed);
        let lb = matmul_lower_bound(20, &pf);
        let (d, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(20, 20))
            .run(&mut rng_for(1, 1));
        let (r, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(20, 20))
            .run(&mut rng_for(1, 1));
        assert!(
            d.normalized(lb) < r.normalized(lb),
            "dynamic {} vs random {}",
            d.normalized(lb),
            r.normalized(lb)
        );
    }

    #[test]
    fn single_worker_is_optimal() {
        // Alone, dynamic ships each of the 3n² blocks exactly once.
        let pf = Platform::from_speeds(vec![3.0]);
        let mut rng = rng_for(2, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(9, 1))
                .run(&mut rng);
        assert_eq!(report.total_blocks, 3 * 81);
    }

    #[test]
    fn index_sets_stay_balanced_in_pure_dynamic() {
        let pf = Platform::homogeneous(6);
        let mut rng = rng_for(3, 0);
        let (_, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(15, 6))
                .run(&mut rng);
        for k in pf.procs() {
            let w = sched.worker(k);
            assert_eq!(w.i_set.count(), w.j_set.count());
            assert_eq!(w.j_set.count(), w.k_set.count());
            assert!(w.i_set.count() > 0);
        }
    }
}

mod two_phase {
    use super::*;
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
