//! Golden values for all eight (kernel, strategy) arms on the paths the
//! flat goldens in `net_equivalence.rs` do not reach:
//!
//! 1. **Faults on the infinite engine**: a fixed fail-stop, a stochastic
//!    fail-stop and a straggler. Lost tasks go back through
//!    `on_tasks_lost`: the Sorted cursor rewinds, the Dynamic orphan
//!    pre-pass hands reinserted tasks to workers that already hold their
//!    inputs, and the two-phase strategies fall back to phase 1 when the
//!    reinsertion lifts the pool above the switch threshold.
//! 2. **A three-sub-master tree**: rectangular, non-square shards.
//! 3. **The same tree with a shard-local failure.**
//!
//! Every `RunResult` field is pinned: f64s as bits, per-worker vectors and
//! the platform as FNV digests. The values were captured at commit
//! `e3b17db`, before the strategies of both kernels were merged into one
//! generic family. Do not regenerate: a change here is a behaviour change
//! in a strategy.

use hetsched::core::{
    run_once, BetaChoice, ExperimentConfig, Kernel, RunResult, Strategy, Topology,
};
use hetsched::platform::{FailureModel, ProcId};

const SEED: u64 = 0xFA17;

/// 64-bit FNV-1a, folded one little-endian word at a time.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in words {
        fnv(&mut h, w);
    }
    h
}

/// Every field of a [`RunResult`].
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    total_blocks: u64,
    normalized_comm_bits: u64,
    makespan_bits: u64,
    lower_bound_bits: u64,
    beta_used_bits: Option<u64>,
    phase_split: Option<(u64, u64, usize, usize)>,
    /// Digest of `tasks_per_proc`, `blocks_per_proc` and
    /// `transfer_wait_per_proc`, worker by worker.
    per_worker: u64,
    lost_tasks: u64,
    reshipped_blocks: u64,
    link_utilization_bits: u64,
    max_queue_depth: usize,
    wasted_blocks: u64,
    tier_blocks: u64,
    returned_blocks: u64,
    /// Digest of the platform's speeds, link latencies and bandwidths.
    platform: u64,
}

fn pin(r: &RunResult) -> Pinned {
    let pf = &r.platform;
    Pinned {
        total_blocks: r.total_blocks,
        normalized_comm_bits: r.normalized_comm.to_bits(),
        makespan_bits: r.makespan.to_bits(),
        lower_bound_bits: r.lower_bound.to_bits(),
        beta_used_bits: r.beta_used.map(f64::to_bits),
        phase_split: r.phase_split,
        per_worker: digest((0..r.tasks_per_proc.len()).flat_map(|k| {
            [
                r.tasks_per_proc[k],
                r.blocks_per_proc[k],
                r.transfer_wait_per_proc[k].to_bits(),
            ]
        })),
        lost_tasks: r.lost_tasks,
        reshipped_blocks: r.reshipped_blocks,
        link_utilization_bits: r.link_utilization.to_bits(),
        max_queue_depth: r.max_queue_depth,
        wasted_blocks: r.wasted_blocks,
        tier_blocks: r.tier_blocks,
        returned_blocks: r.returned_blocks,
        platform: digest(
            pf.speeds()
                .iter()
                .chain(pf.link_latencies())
                .chain(pf.link_bandwidths().unwrap_or(&[]))
                .map(|x| x.to_bits()),
        ),
    }
}

const KERNELS: [Kernel; 2] = [Kernel::Outer { n: 24 }, Kernel::Matmul { n: 10 }];

fn arms(two_phase: BetaChoice) -> [Strategy; 4] {
    [
        Strategy::Random,
        Strategy::Sorted,
        Strategy::Dynamic,
        Strategy::TwoPhase(two_phase),
    ]
}

/// The eight configurations of one setting, kernel-major.
type Setting = (&'static str, Vec<ExperimentConfig>);

fn settings() -> Vec<Setting> {
    let base = |kernel, strategy| ExperimentConfig {
        kernel,
        strategy,
        processors: 6,
        ..Default::default()
    };
    let mut faults = Vec::new();
    for kernel in KERNELS {
        // Per kernel, a fixed death just after the two-phase switch, so
        // the lost batch lifts the pool back above the threshold.
        let (fail_time, beta) = match kernel {
            Kernel::Outer { .. } => (1.3, 2.0),
            Kernel::Matmul { .. } => (1.6, 1.0),
        };
        let failures = FailureModel::none()
            .fail_at(ProcId(1), fail_time)
            .fail_exponential(ProcId(4), 0.9)
            .slow_down(ProcId(3), 3.0);
        for strategy in arms(BetaChoice::Fixed(beta)) {
            faults.push(ExperimentConfig {
                failures: failures.clone(),
                ..base(kernel, strategy)
            });
        }
    }
    let tree = |two_phase, failures: &FailureModel| -> Vec<ExperimentConfig> {
        KERNELS
            .iter()
            .flat_map(|&kernel| {
                arms(two_phase).map(|strategy| ExperimentConfig {
                    topology: Topology::Tree { submasters: 3 },
                    failures: failures.clone(),
                    ..base(kernel, strategy)
                })
            })
            .collect()
    };
    vec![
        ("faults, infinite network", faults),
        (
            "tree of 3",
            tree(BetaChoice::Analytic, &FailureModel::none()),
        ),
        (
            "tree of 3, shard-local failure",
            tree(
                BetaChoice::Phase1Fraction(0.8),
                &FailureModel::none().fail_at(ProcId(4), 0.5),
            ),
        ),
    ]
}

#[test]
fn fault_and_shard_paths_match_golden_values() {
    for ((setting, cfgs), golden) in settings().into_iter().zip(&GOLDEN) {
        for (cfg, want) in cfgs.iter().zip(golden) {
            let label = format!("{setting} / {}", cfg.strategy.label(cfg.kernel));
            let r = run_once(cfg, SEED);
            let total: u64 = r.tasks_per_proc.iter().sum();
            assert_eq!(total as usize, cfg.kernel.total_tasks(), "{label}");
            if !cfg.failures.is_none() {
                assert!(r.lost_tasks > 0, "{label}: a death landed mid-batch");
            }
            assert_eq!(&pin(&r), want, "{label}: drifted");
        }
    }
}

/// Pinned values, by setting (in [`settings`] order), then by arm.
const GOLDEN: [[Pinned; 8]; 3] = [
    [
        // faults, infinite network / RandomOuter
        Pinned {
            total_blocks: 276,
            normalized_comm_bits: 0x4002_dcab_3a8f_4304,
            makespan_bits: 0x3ffa_20fb_b610_86cb,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xb68e_43dd_ef7b_af17,
            lost_tasks: 2,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / SortedOuter
        Pinned {
            total_blocks: 278,
            normalized_comm_bits: 0x4002_ffa8_c267_7d02,
            makespan_bits: 0x3ffa_20fb_b610_86cb,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xb9ac_8f2d_a774_6921,
            lost_tasks: 2,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / DynamicOuter
        Pinned {
            total_blocks: 200,
            normalized_comm_bits: 0x3ffb_5612_20ed_4e93,
            makespan_bits: 0x3ffd_4bc4_e367_dcf7,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xf135_c4e9_153b_bff1,
            lost_tasks: 11,
            reshipped_blocks: 10,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / DynamicOuter2Phases
        Pinned {
            total_blocks: 195,
            normalized_comm_bits: 0x3ffa_a71e_79b4_2c9c,
            makespan_bits: 0x3ffa_ebae_0166_5c58,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: Some(0x4000_0000_0000_0000),
            phase_split: Some((146, 49, 501, 85)),
            per_worker: 0x1e8c_6763_3cb3_89be,
            lost_tasks: 10,
            reshipped_blocks: 5,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / RandomMatrix
        Pinned {
            total_blocks: 1374,
            normalized_comm_bits: 0x4004_3e21_bc71_be0c,
            makespan_bits: 0x400a_20fb_b610_86cb,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xe8ca_7076_f56a_6422,
            lost_tasks: 2,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / SortedMatrix
        Pinned {
            total_blocks: 1343,
            normalized_comm_bits: 0x4003_c936_9678_1e8e,
            makespan_bits: 0x400a_20fb_b610_86cb,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xdbc3_88c0_796f_0743,
            lost_tasks: 2,
            reshipped_blocks: 2,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / DynamicMatrix
        Pinned {
            total_blocks: 1110,
            normalized_comm_bits: 0x4000_5a70_36fa_a15b,
            makespan_bits: 0x400b_9592_e3ec_fb67,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xb075_b9d8_c0d0_f1f4,
            lost_tasks: 92,
            reshipped_blocks: 570,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // faults, infinite network / DynamicMatrix2Phases
        Pinned {
            total_blocks: 1015,
            normalized_comm_bits: 0x3ffd_e847_74b0_fd94,
            makespan_bits: 0x400b_5107_2711_471b,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: Some(0x3ff0_0000_0000_0000),
            phase_split: Some((554, 461, 752, 340)),
            per_worker: 0xa946_6c17_ff00_a0f4,
            lost_tasks: 92,
            reshipped_blocks: 182,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
    ],
    [
        // tree of 3 / RandomOuter
        Pinned {
            total_blocks: 264,
            normalized_comm_bits: 0x4002_0aba_0b7d_e70f,
            makespan_bits: 0x3ff7_60b6_7012_cfe9,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xd459_32eb_05d6_5937,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / SortedOuter
        Pinned {
            total_blocks: 264,
            normalized_comm_bits: 0x4002_0aba_0b7d_e70f,
            makespan_bits: 0x3ff7_60b6_7012_cfe9,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xd459_32eb_05d6_5937,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / DynamicOuter
        Pinned {
            total_blocks: 247,
            normalized_comm_bits: 0x4000_e14f_08cf_fa1f,
            makespan_bits: 0x3ff7_7d54_1047_bf02,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xcad3_8d29_ccf5_3452,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / DynamicOuter2Phases
        Pinned {
            total_blocks: 243,
            normalized_comm_bits: 0x4000_9b53_f91f_8622,
            makespan_bits: 0x3ff7_7d54_1047_bf02,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: Some(0x4008_f222_c48e_2886),
            phase_split: Some((152, 3, 567, 9)),
            per_worker: 0x8b57_b9e8_42a0_3f34,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / RandomMatrix
        Pinned {
            total_blocks: 1353,
            normalized_comm_bits: 0x4003_eeed_cc02_730a,
            makespan_bits: 0x4005_93a2_a00d_0206,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0x4fba_7e57_60fb_ff8a,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / SortedMatrix
        Pinned {
            total_blocks: 1378,
            normalized_comm_bits: 0x4004_4d37_d1dc_463d,
            makespan_bits: 0x4005_93a2_a00d_0206,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0x9c90_2d57_fdc9_49f3,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / DynamicMatrix
        Pinned {
            total_blocks: 1232,
            normalized_comm_bits: 0x4002_2691_c42b_db39,
            makespan_bits: 0x4005_dbf6_d199_fc5b,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0x006f_c841_1f0c_6c27,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3 / DynamicMatrix2Phases
        Pinned {
            total_blocks: 1199,
            normalized_comm_bits: 0x4001_aa1b_937c_f7a2,
            makespan_bits: 0x4005_dbf6_d199_fc5b,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: Some(0x4002_2814_d532_33c3),
            phase_split: Some((698, 41, 954, 46)),
            per_worker: 0x23a7_1741_5a32_ec5c,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
    ],
    [
        // tree of 3, shard-local failure / RandomOuter
        Pinned {
            total_blocks: 261,
            normalized_comm_bits: 0x4001_d63d_bfb9_9012,
            makespan_bits: 0x4003_57c8_54c6_a4c7,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0x6a60_69b4_a364_ead0,
            lost_tasks: 1,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / SortedOuter
        Pinned {
            total_blocks: 257,
            normalized_comm_bits: 0x4001_9042_b009_1c15,
            makespan_bits: 0x4003_57c8_54c6_a4c7,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0x9f74_9f81_b4b1_865c,
            lost_tasks: 1,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / DynamicOuter
        Pinned {
            total_blocks: 242,
            normalized_comm_bits: 0x4000_89d5_3533_6923,
            makespan_bits: 0x4004_72bd_d5f6_90fc,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xf5b8_0dad_8e26_176f,
            lost_tasks: 10,
            reshipped_blocks: 10,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / DynamicOuter2Phases
        Pinned {
            total_blocks: 240,
            normalized_comm_bits: 0x4000_66d7_ad5b_2f25,
            makespan_bits: 0x4004_72bd_d5f6_90f7,
            lower_bound_bits: 0x405d_43e4_b0b3_9f64,
            beta_used_bits: None,
            phase_split: Some((127, 25, 489, 97)),
            per_worker: 0xd644_c7e8_41fe_cbc3,
            lost_tasks: 10,
            reshipped_blocks: 10,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 88,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / RandomMatrix
        Pinned {
            total_blocks: 1301,
            normalized_comm_bits: 0x4003_2ace_b599_888a,
            makespan_bits: 0x4012_3cd2_d396_b8aa,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xfb6e_6a38_84a9_5647,
            lost_tasks: 1,
            reshipped_blocks: 0,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / SortedMatrix
        Pinned {
            total_blocks: 1294,
            normalized_comm_bits: 0x4003_1068_101f_1a33,
            makespan_bits: 0x4012_3cd2_d396_b8aa,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0xfa7f_4e7d_8634_2586,
            lost_tasks: 1,
            reshipped_blocks: 1,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / DynamicMatrix
        Pinned {
            total_blocks: 1173,
            normalized_comm_bits: 0x4001_480c_0848_8263,
            makespan_bits: 0x4012_dbfc_ec41_ad7e,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: None,
            per_worker: 0x3135_f8c7_1484_f247,
            lost_tasks: 35,
            reshipped_blocks: 59,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
        // tree of 3, shard-local failure / DynamicMatrix2Phases
        Pinned {
            total_blocks: 1150,
            normalized_comm_bits: 0x4000_f14d_0d23_f347,
            makespan_bits: 0x4012_dbfc_ec41_ad8f,
            lower_bound_bits: 0x4080_f815_8413_5e76,
            beta_used_bits: None,
            phase_split: Some((549, 141, 850, 185)),
            per_worker: 0x09e4_fed3_4378_da6a,
            lost_tasks: 35,
            reshipped_blocks: 59,
            link_utilization_bits: 0x0000_0000_0000_0000,
            max_queue_depth: 0,
            wasted_blocks: 0,
            tier_blocks: 460,
            returned_blocks: 0,
            platform: 0xafd9_5cd6_ddfe_077a,
        },
    ],
];
