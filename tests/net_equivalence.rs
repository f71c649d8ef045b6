//! The network subsystem must be invisible until asked for.
//!
//! Two layers of protection:
//!
//! 1. **Golden values.** The numbers below were captured from the engine
//!    *before* `hetsched-net` existed (seed `0x5EED`, 6 workers, default
//!    `U[10,100]` speed draw). Every strategy must still reproduce them bit
//!    for bit under the default (`Infinite`) network — any drift means the
//!    refactor touched the free-communication path.
//! 2. **Explicit-vs-implicit.** `Engine::with_network(Infinite)` must be
//!    indistinguishable from never calling `with_network` at all: identical
//!    report *and* identical request trace, for all eight strategies.
//!
//! A third test exercises the acceptance criterion of the subsystem itself:
//! under a tight one-port master link, `DynamicOuter`'s lower communication
//! volume must translate into a strictly better makespan than
//! `RandomOuter`'s, and the advantage must vanish once bandwidth is ample.
//!
//! Last, golden reports and trace digests pin the priced path itself (see
//! "Priced-network goldens" below).

use hetsched::core::{run_once, BetaChoice, ExperimentConfig, Kernel, Strategy};
use hetsched::matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};
use hetsched::net::NetworkModel;
use hetsched::outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};
use hetsched::platform::{FailureModel, Platform, ProcId, SpeedModel};
use hetsched::sim::{Engine, EventKind, Scheduler, SimReport, Trace};
use hetsched::util::rng::rng_for;

const SEED: u64 = 0x5EED;

struct Golden {
    kernel: Kernel,
    strategy: Strategy,
    blocks: u64,
    makespan_bits: u64,
    tasks: [u64; 6],
}

/// Captured from the pre-network engine (commit `4fe48f8`) with the exact
/// program in the module docs. Do not regenerate casually: a change here is
/// a behavior change in the default simulation path.
const GOLDEN: [Golden; 8] = [
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Random,
        blocks: 262,
        makespan_bits: 0x3fff211bdd45ee88,
        tasks: [77, 39, 131, 32, 160, 137],
    },
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Sorted,
        blocks: 280,
        makespan_bits: 0x3fff211bdd45ee88,
        tasks: [77, 39, 131, 32, 160, 137],
    },
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::Dynamic,
        blocks: 196,
        makespan_bits: 0x400028e484839820,
        tasks: [79, 41, 129, 31, 156, 140],
    },
    Golden {
        kernel: Kernel::Outer { n: 24 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        blocks: 194,
        makespan_bits: 0x400028e484839820,
        tasks: [79, 41, 130, 32, 158, 136],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Random,
        blocks: 1353,
        makespan_bits: 0x400ace767397cdec,
        tasks: [134, 68, 228, 55, 277, 238],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Sorted,
        blocks: 1444,
        makespan_bits: 0x400ace767397cdec,
        tasks: [134, 68, 228, 55, 277, 238],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::Dynamic,
        blocks: 1278,
        makespan_bits: 0x400e7fb21ae2e702,
        tasks: [128, 63, 260, 56, 264, 229],
    },
    Golden {
        kernel: Kernel::Matmul { n: 10 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        blocks: 877,
        makespan_bits: 0x400e7fb21ae2e702,
        tasks: [128, 65, 260, 53, 266, 228],
    },
];

#[test]
fn default_path_matches_pre_network_golden_values() {
    for g in GOLDEN {
        let cfg = ExperimentConfig {
            kernel: g.kernel,
            strategy: g.strategy,
            processors: 6,
            ..Default::default()
        };
        let label = g.strategy.label(g.kernel);
        let r = run_once(&cfg, SEED);
        assert_eq!(r.total_blocks, g.blocks, "{label}: blocks drifted");
        assert_eq!(
            r.makespan.to_bits(),
            g.makespan_bits,
            "{label}: makespan drifted ({} vs bits {:#018x})",
            r.makespan,
            g.makespan_bits
        );
        assert_eq!(r.tasks_per_proc, g.tasks, "{label}: task split drifted");
        assert_eq!(
            r.link_utilization, 0.0,
            "{label}: infinite model priced a link"
        );
        assert_eq!(r.max_queue_depth, 0, "{label}");
        assert_eq!(r.wasted_blocks, 0, "{label}");
        assert!(
            r.transfer_wait_per_proc.iter().all(|&w| w == 0.0),
            "{label}"
        );
    }
}

fn run_pair<S: Scheduler>(
    platform: &Platform,
    make: impl Fn() -> S,
) -> ((SimReport, Trace), (SimReport, Trace)) {
    let (ra, _, ta) =
        Engine::new(platform, SpeedModel::Fixed, make()).run_traced(&mut rng_for(SEED, 7));
    let (rb, _, tb) = Engine::new(platform, SpeedModel::Fixed, make())
        .with_network(NetworkModel::Infinite)
        .run_traced(&mut rng_for(SEED, 7));
    ((ra, ta), (rb, tb))
}

fn assert_identical(name: &str, a: (SimReport, Trace), b: (SimReport, Trace)) {
    let ((ra, ta), (rb, tb)) = (a, b);
    assert_eq!(
        ra.makespan.to_bits(),
        rb.makespan.to_bits(),
        "{name}: makespan"
    );
    assert_eq!(ra.total_blocks, rb.total_blocks, "{name}: blocks");
    assert_eq!(ra.lost_tasks, rb.lost_tasks, "{name}");
    assert_eq!(ra.reshipped_blocks, rb.reshipped_blocks, "{name}");
    assert_eq!(
        ra.ledger.tasks_per_proc(),
        rb.ledger.tasks_per_proc(),
        "{name}"
    );
    assert_eq!(
        ra.ledger.blocks_per_proc(),
        rb.ledger.blocks_per_proc(),
        "{name}"
    );
    assert_eq!(ta.events(), tb.events(), "{name}: traces diverge");
}

#[test]
fn explicit_infinite_network_is_bit_for_bit_identical() {
    let platform = Platform::from_speeds(vec![14.0, 95.0, 37.0, 61.0, 28.0, 80.0]);
    let (n, p, thresh) = (24, 6, 24 * 24 / 4);
    let (a, b) = run_pair(&platform, || RandomOuter::new(n, p));
    assert_identical("RandomOuter", a, b);
    let (a, b) = run_pair(&platform, || SortedOuter::new(n, p));
    assert_identical("SortedOuter", a, b);
    let (a, b) = run_pair(&platform, || DynamicOuter::new(n, p));
    assert_identical("DynamicOuter", a, b);
    let (a, b) = run_pair(&platform, || DynamicOuter2Phases::new(n, p, thresh));
    assert_identical("DynamicOuter2Phases", a, b);

    let (m, mthresh) = (10, 10 * 10 * 10 / 4);
    let (a, b) = run_pair(&platform, || RandomMatrix::new(m, p));
    assert_identical("RandomMatrix", a, b);
    let (a, b) = run_pair(&platform, || SortedMatrix::new(m, p));
    assert_identical("SortedMatrix", a, b);
    let (a, b) = run_pair(&platform, || DynamicMatrix::new(m, p));
    assert_identical("DynamicMatrix", a, b);
    let (a, b) = run_pair(&platform, || DynamicMatrix2Phases::new(m, p, mthresh));
    assert_identical("DynamicMatrix2Phases", a, b);
}

#[test]
fn one_port_sweep_has_a_crossover_where_dynamic_wins() {
    // Same seed → same platform draw for both strategies, so the makespans
    // are directly comparable at every bandwidth.
    let makespan = |strategy, bw: Option<f64>| {
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n: 40 },
            strategy,
            processors: 8,
            network: match bw {
                Some(master_bw) => NetworkModel::OnePort { master_bw },
                None => NetworkModel::Infinite,
            },
            ..Default::default()
        };
        run_once(&cfg, SEED).makespan
    };

    // Sweep from starved to saturated and find the crossover.
    let sweep = [2.0, 5.0, 10.0, 25.0, 60.0, 150.0, 400.0, 1000.0];
    let mut crossover = None;
    for bw in sweep {
        let (rand, dynamic) = (
            makespan(Strategy::Random, Some(bw)),
            makespan(Strategy::Dynamic, Some(bw)),
        );
        if dynamic < rand * 0.98 && crossover.is_none() {
            crossover = Some(bw);
        }
    }
    let crossover = crossover.expect(
        "some bandwidth in the sweep must be tight enough for DynamicOuter's \
         lower communication volume to win on makespan",
    );

    // Below the crossover the link is the bottleneck: the win must be there
    // and must be a real margin, not noise.
    let (rand, dynamic) = (
        makespan(Strategy::Random, Some(crossover)),
        makespan(Strategy::Dynamic, Some(crossover)),
    );
    assert!(
        dynamic < rand * 0.98,
        "at bw={crossover}: dynamic {dynamic} vs random {rand}"
    );

    // With ample bandwidth both are compute-bound and work-conserving: the
    // advantage disappears (and neither is slower than its starved self).
    let (rand_hi, dyn_hi) = (
        makespan(Strategy::Random, Some(1e7)),
        makespan(Strategy::Dynamic, Some(1e7)),
    );
    assert!(
        (rand_hi - dyn_hi).abs() / rand_hi < 0.10,
        "ample bandwidth: {rand_hi} vs {dyn_hi} should be near-equal \
         (both are work-conserving; only end-game batch granularity differs)"
    );
    assert!(rand_hi < rand, "random must speed up when the link relaxes");

    // And the priced-but-ample run sits within a whisker of the free model.
    // (Not exactly equal: the networked loop draws allocations in a
    // different order, so the batches differ even when transfers are free.)
    let rand_free = makespan(Strategy::Random, None);
    assert!(
        (rand_hi - rand_free).abs() / rand_free < 0.05,
        "free {rand_free} vs ample one-port {rand_hi}"
    );
}

// ---------------------------------------------------------------------------
// Priced-network goldens.
//
// The tests above pin only the infinite path. These pin every field of the
// networked loop's `SimReport` (f64s as bits, the per-worker ledger as a
// digest) and a digest of its trace, for one-port and bounded-multiport
// links, with and without fail-stop faults and stragglers, including
// workers parked on an empty pool and woken by later deaths. The values
// were captured at commit `04358bf`, before the networked engine's batch
// storage, queue-depth and wake-up bookkeeping were rewritten for speed.
// Do not regenerate: a change here is a behavior change in the priced path.

/// 64-bit FNV-1a, folded one little-endian word at a time.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn ledger_digest(r: &SimReport) -> u64 {
    let l = &r.ledger;
    let mut h = 0xcbf2_9ce4_8422_2325;
    for i in 0..l.tasks_per_proc().len() {
        let k = ProcId(i as u32);
        for word in [
            l.tasks(k),
            l.blocks(k),
            l.busy(k).to_bits(),
            l.requests(k),
            l.lost_tasks(k),
            l.reshipped_blocks(k),
            l.transfer_wait(k).to_bits(),
            l.wasted_blocks(k),
            l.returned_blocks(k),
        ] {
            fnv(&mut h, word);
        }
    }
    h
}

fn trace_digest(t: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for e in t.events() {
        for word in [
            e.kind as u64,
            e.time.to_bits(),
            u64::from(e.proc.0),
            e.tasks as u64,
            e.blocks,
            e.duration.to_bits(),
        ] {
            fnv(&mut h, word);
        }
    }
    h
}

/// Every field of a networked run's report, plus its trace.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    makespan_bits: u64,
    total_blocks: u64,
    lost_tasks: u64,
    reshipped_blocks: u64,
    link_utilization_bits: u64,
    max_queue_depth: usize,
    wasted_blocks: u64,
    tier_blocks: u64,
    returned_blocks: u64,
    ledger: u64,
    trace_events: usize,
    trace: u64,
}

fn pin(r: &SimReport, t: &Trace) -> Pinned {
    Pinned {
        makespan_bits: r.makespan.to_bits(),
        total_blocks: r.total_blocks,
        lost_tasks: r.lost_tasks,
        reshipped_blocks: r.reshipped_blocks,
        link_utilization_bits: r.link_utilization.to_bits(),
        max_queue_depth: r.max_queue_depth,
        wasted_blocks: r.wasted_blocks,
        tier_blocks: r.tier_blocks,
        returned_blocks: r.returned_blocks,
        ledger: ledger_digest(r),
        trace_events: t.len(),
        trace: trace_digest(t),
    }
}

/// One priced scenario: platform, speed model, link, faults, strategy.
struct Scenario {
    name: &'static str,
    platform: Platform,
    speeds: SpeedModel,
    network: NetworkModel,
    failures: FailureModel,
    price_returns: bool,
    stream: u64,
}

impl Scenario {
    fn run<S: Scheduler>(&self, sched: S) -> (SimReport, Trace) {
        let (r, _, t) = Engine::new(&self.platform, self.speeds, sched)
            .with_failures(&self.failures)
            .with_network(self.network)
            .with_return_pricing(self.price_returns)
            .run_traced(&mut rng_for(SEED, self.stream));
        (r, t)
    }
}

const SPEEDS6: [f64; 6] = [14.0, 95.0, 37.0, 61.0, 28.0, 80.0];

fn priced_scenarios() -> Vec<Scenario> {
    let six = || Platform::from_speeds(SPEEDS6.to_vec());
    let one_port = NetworkModel::OnePort { master_bw: 120.0 };
    let multiport = NetworkModel::BoundedMultiport {
        master_bw: 150.0,
        worker_bw: 50.0,
    };
    let faults = FailureModel::none()
        .fail_at(ProcId(1), 1.0)
        .fail_at(ProcId(4), 0.0)
        .slow_down(ProcId(3), 3.0);
    vec![
        Scenario {
            name: "one-port",
            platform: six(),
            speeds: SpeedModel::dyn5(),
            network: one_port,
            failures: FailureModel::none(),
            price_returns: false,
            stream: 1,
        },
        Scenario {
            name: "one-port, faults, straggler, returns",
            platform: six().with_uniform_link_latency(0.01),
            speeds: SpeedModel::dyn5(),
            network: one_port,
            failures: faults.clone(),
            price_returns: true,
            stream: 2,
        },
        Scenario {
            name: "multiport, per-worker bandwidths",
            platform: six().with_link_bandwidths(vec![40.0, 90.0, 25.0, 60.0, 35.0, 75.0]),
            speeds: SpeedModel::Fixed,
            network: multiport,
            failures: FailureModel::none(),
            price_returns: false,
            stream: 3,
        },
        Scenario {
            name: "multiport, per-worker bandwidths, faults, straggler",
            platform: six()
                .with_link_bandwidths(vec![40.0, 90.0, 25.0, 60.0, 35.0, 75.0])
                .with_link_latencies(vec![0.0, 0.02, 0.0, 0.05, 0.01, 0.0]),
            speeds: SpeedModel::dyn5(),
            network: multiport,
            failures: faults.fail_at(ProcId(0), 2.5),
            price_returns: true,
            stream: 4,
        },
        Scenario {
            // Four fast workers drain the pool long before the three slow
            // ones die one after another: each death wakes the parked fast
            // workers, which must skip the workers that already died.
            name: "one-port, parked workers woken by later deaths",
            platform: Platform::from_speeds(vec![200.0, 0.2, 180.0, 0.3, 190.0, 0.25, 210.0]),
            speeds: SpeedModel::Fixed,
            network: NetworkModel::OnePort { master_bw: 2000.0 },
            failures: FailureModel::none()
                .fail_at(ProcId(5), 3.0)
                .fail_at(ProcId(1), 2.0)
                .fail_at(ProcId(3), 4.0)
                .slow_down(ProcId(2), 2.0),
            price_returns: false,
            stream: 5,
        },
    ]
}

/// Every scenario under each pinned strategy, in [`PRICED_GOLDEN`] order.
fn priced_runs() -> Vec<(&'static str, Vec<(SimReport, Trace)>)> {
    let scenarios = priced_scenarios();
    let runs = |run: &dyn Fn(&Scenario, usize) -> (SimReport, Trace)| {
        scenarios.iter().map(|s| run(s, s.platform.len())).collect()
    };
    let (n, m) = (24, 10);
    vec![
        ("DynamicOuter", runs(&|s, p| s.run(DynamicOuter::new(n, p)))),
        ("RandomOuter", runs(&|s, p| s.run(RandomOuter::new(n, p)))),
        (
            "DynamicMatrix2Phases",
            runs(&|s, p| s.run(DynamicMatrix2Phases::new(m, p, m * m * m / 4))),
        ),
    ]
}

/// Pinned values, by strategy (in [`priced_runs`] order), then by scenario
/// (in [`priced_scenarios`] order).
const PRICED_GOLDEN: [[Pinned; 5]; 3] = [
    // DynamicOuter
    [
        // one-port
        Pinned {
            makespan_bits: 0x4001_9410_0685_e3d6,
            total_blocks: 200,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fe8_45b2_7ff4_1779,
            max_queue_depth: 5,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0xdaec_8714_d62f_8277,
            trace_events: 210,
            trace: 0xe6f5_dddb_2b39_2116,
        },
        // one-port, faults, straggler, returns
        Pinned {
            makespan_bits: 0x401a_809a_5ee0_5b43,
            total_blocks: 178,
            lost_tasks: 11,
            reshipped_blocks: 14,
            link_utilization_bits: 0x3fee_58d4_35f0_8107,
            max_queue_depth: 10,
            wasted_blocks: 4,
            tier_blocks: 0,
            returned_blocks: 576,
            ledger: 0x42d4_b7ce_a036_65c8,
            trace_events: 223,
            trace: 0x80c9_db11_02c3_8f18,
        },
        // multiport, per-worker bandwidths
        Pinned {
            makespan_bits: 0x4001_9e79_e79e_79e7,
            total_blocks: 200,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fe3_dc73_beee_70f9,
            max_queue_depth: 3,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0x1ebc_12ff_65a1_40cb,
            trace_events: 213,
            trace: 0x44f9_0e97_a67d_2e3c,
        },
        // multiport, per-worker bandwidths, faults, straggler
        Pinned {
            makespan_bits: 0x4014_49cc_5c32_64ee,
            total_blocks: 156,
            lost_tasks: 26,
            reshipped_blocks: 24,
            link_utilization_bits: 0x3fee_d8ff_4d33_2f76,
            max_queue_depth: 10,
            wasted_blocks: 6,
            tier_blocks: 0,
            returned_blocks: 576,
            ledger: 0xc960_3f40_4e58_cd1d,
            trace_events: 202,
            trace: 0x485f_86e1_7aca_0df6,
        },
        // one-port, parked workers woken by later deaths
        Pinned {
            makespan_bits: 0x4010_0f5c_28f5_c28f,
            total_blocks: 182,
            lost_tasks: 11,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3f97_357e_d207_44d2,
            max_queue_depth: 6,
            wasted_blocks: 4,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0x5246_4417_08b4_fa51,
            trace_events: 188,
            trace: 0x3a58_02b0_d9a2_0ef9,
        },
    ],
    // RandomOuter
    [
        // one-port
        Pinned {
            makespan_bits: 0x4008_fc7d_5991_e4f1,
            total_blocks: 278,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fe7_bc55_e2bf_2ed5,
            max_queue_depth: 5,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0x4060_dc10_e776_c621,
            trace_events: 924,
            trace: 0x198e_f620_1b71_6ccf,
        },
        // one-port, faults, straggler, returns
        Pinned {
            makespan_bits: 0x401a_3d70_a3d7_0ac0,
            total_blocks: 210,
            lost_tasks: 2,
            reshipped_blocks: 2,
            link_utilization_bits: 0x3fef_f383_1f38_31f4,
            max_queue_depth: 50,
            wasted_blocks: 3,
            tier_blocks: 0,
            returned_blocks: 576,
            ledger: 0xa966_7a54_6e41_f663,
            trace_events: 872,
            trace: 0x7d67_7b11_281e_d7d6,
        },
        // multiport, per-worker bandwidths
        Pinned {
            makespan_bits: 0x4006_6186_1861_861c,
            total_blocks: 271,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fe6_c5ae_ce65_d1a5,
            max_queue_depth: 3,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0x0b05_a95e_41f5_d46d,
            trace_events: 934,
            trace: 0xf404_bf73_e599_d9a8,
        },
        // multiport, per-worker bandwidths, faults, straggler
        Pinned {
            makespan_bits: 0x4016_890c_6e7f_6f87,
            total_blocks: 202,
            lost_tasks: 4,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fef_2d77_7740_4682,
            max_queue_depth: 9,
            wasted_blocks: 4,
            tier_blocks: 0,
            returned_blocks: 576,
            ledger: 0xba90_fb73_653b_ef96,
            trace_events: 862,
            trace: 0x0129_864e_89fe_ccde,
        },
        // one-port, parked workers woken by later deaths
        Pinned {
            makespan_bits: 0x4010_04e0_4e04_e04e,
            total_blocks: 201,
            lost_tasks: 5,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3f99_b289_521a_469e,
            max_queue_depth: 6,
            wasted_blocks: 4,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0x1d64_ba5f_877b_2cca,
            trace_events: 745,
            trace: 0x59cb_4b25_7f59_31f7,
        },
    ],
    // DynamicMatrix2Phases
    [
        // one-port
        Pinned {
            makespan_bits: 0x4021_4e43_f4aa_a507,
            total_blocks: 1031,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fef_c610_559e_cb62,
            max_queue_depth: 5,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0x9c8f_2b2f_9dc6_196e,
            trace_events: 777,
            trace: 0x27b7_4034_530e_151b,
        },
        // one-port, faults, straggler, returns
        Pinned {
            makespan_bits: 0x402f_d7ee_41f6_352e,
            total_blocks: 906,
            lost_tasks: 45,
            reshipped_blocks: 309,
            link_utilization_bits: 0x3fef_ec3d_43ee_2a6c,
            max_queue_depth: 10,
            wasted_blocks: 24,
            tier_blocks: 0,
            returned_blocks: 1000,
            ledger: 0x229c_f7e5_a080_9a36,
            trace_events: 687,
            trace: 0x50f8_bc88_8c59_8758,
        },
        // multiport, per-worker bandwidths
        Pinned {
            makespan_bits: 0x401a_7b5c_bcab_6b99,
            total_blocks: 1002,
            lost_tasks: 0,
            reshipped_blocks: 0,
            link_utilization_bits: 0x3fef_614e_eec3_694a,
            max_queue_depth: 3,
            wasted_blocks: 0,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0xc4d1_1be1_675a_e45a,
            trace_events: 759,
            trace: 0x3144_096e_9ff1_5cb3,
        },
        // multiport, per-worker bandwidths, faults, straggler
        Pinned {
            makespan_bits: 0x4029_3b1f_a831_3bb9,
            total_blocks: 782,
            lost_tasks: 105,
            reshipped_blocks: 342,
            link_utilization_bits: 0x3fef_298e_7021_c963,
            max_queue_depth: 8,
            wasted_blocks: 51,
            tier_blocks: 0,
            returned_blocks: 1000,
            ledger: 0x89f2_22b3_ab83_0eac,
            trace_events: 602,
            trace: 0x9ab1_b588_fc9a_5c58,
        },
        // one-port, parked workers woken by later deaths
        Pinned {
            makespan_bits: 0x4010_0e73_24a2_ee06,
            total_blocks: 865,
            lost_tasks: 23,
            reshipped_blocks: 35,
            link_utilization_bits: 0x3fbb_952b_7589_9011,
            max_queue_depth: 6,
            wasted_blocks: 18,
            tier_blocks: 0,
            returned_blocks: 0,
            ledger: 0xd20b_a461_10cb_6859,
            trace_events: 425,
            trace: 0xda06_4397_af00_9545,
        },
    ],
];

#[test]
fn priced_paths_match_golden_values() {
    let scenarios = priced_scenarios();
    for ((strategy, runs), golden) in priced_runs().into_iter().zip(&PRICED_GOLDEN) {
        for ((s, (r, t)), want) in scenarios.iter().zip(&runs).zip(golden) {
            assert_eq!(&pin(r, t), want, "{strategy} / {}: drifted", s.name);
        }
        // The parked scenario exercises what it claims: every death after
        // the pool drained wakes a parked worker, which starts a batch of
        // the returned tasks at that very instant.
        let (r, t) = &runs[4];
        assert!(r.lost_tasks > 0, "{strategy}");
        for death in [2.0, 3.0, 4.0] {
            assert!(
                t.events()
                    .iter()
                    .any(|e| e.kind == EventKind::Batch && e.time == death),
                "{strategy}: no worker woke at t = {death}"
            );
        }
    }
}
