//! Determinism regression: the same seed must produce bit-identical
//! results no matter how the harness schedules the work. A one-worker
//! pool and a many-worker pool run the same experiments and the same
//! measurements; every byte of output must agree.

use apples_bench::experiments::run;
use apples_bench::scenarios::{
    baseline_host, faulted, measure_quick, perturbed_workload, saturating_workload, smartnic_system,
};
use apples_bench::Pool;

/// Experiment reports render byte-identically under serial and
/// work-stealing schedules. The subset includes the experiments that
/// themselves fan out on nested pools (crossover, rfc2544): under the
/// one-worker pool those inner pools run parallel, under the four-worker
/// pool they run inline on the worker that called them.
#[test]
fn experiment_reports_are_schedule_independent() {
    let ids = vec!["fig1a", "ex42", "rfc2544", "crossover"];
    let render_all = |pool: Pool| -> Vec<String> {
        pool.map(ids.clone(), |id| run(id).expect("known id").render())
    };
    let serial = render_all(Pool::with_workers(1));
    let parallel = render_all(Pool::with_workers(4));
    assert_eq!(serial, parallel, "a report changed with the schedule");
}

/// Raw measurements are bit-identical (f64 bit patterns, not just
/// approximate equality) across schedules.
#[test]
fn measurements_are_bit_identical_across_schedules() {
    let batch = |pool: Pool| {
        pool.map((0..6u64).collect(), |seed| {
            let wl = saturating_workload(seed);
            let m = if seed % 2 == 0 {
                measure_quick(&baseline_host(2), &wl)
            } else {
                measure_quick(&smartnic_system(), &wl)
            };
            (
                m.throughput_bps.to_bits(),
                m.throughput_pps.to_bits(),
                m.mean_latency_ns.to_bits(),
                m.loss_rate.to_bits(),
                m.watts.to_bits(),
                m.policy_drops,
            )
        })
    };
    let serial = batch(Pool::with_workers(1));
    let parallel = batch(Pool::with_workers(5));
    assert_eq!(serial, parallel);
}

/// State built from unordered insertions must not depend on insertion
/// order. The DPI automaton's trie and the NF state tables are backed
/// by ordered maps precisely so that pattern/flow arrival order cannot
/// leak into results; feeding the same pattern set in permuted orders
/// must yield the same automaton size and the same match count.
#[test]
fn nf_automaton_is_insertion_order_independent() {
    use apples_simnet::nf::dpi::{AhoCorasick, Dpi};

    let base = Dpi::demo_signatures();
    let mut reversed = base.clone();
    reversed.reverse();
    let mut rotated = base.clone();
    rotated.rotate_left(base.len() / 2);

    // A haystack with guaranteed hits: noise with every signature spliced in.
    let mut haystack: Vec<u8> =
        (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for sig in &base {
        haystack.extend_from_slice(sig);
    }

    let reference = AhoCorasick::build(&base);
    let want = (reference.states(), reference.count_matches(&haystack));
    assert!(want.1 > 0, "haystack must contain matches for the test to mean anything");
    for perm in [&reversed, &rotated] {
        let ac = AhoCorasick::build(perm);
        assert_eq!((ac.states(), ac.count_matches(&haystack)), want);
    }
}

/// The timing-wheel scheduler is observationally identical to the
/// binary-heap baseline on every scenario family the harness measures:
/// same deliveries, same bit-exact latency and throughput, same drops.
/// This is the workspace-level half of the A/B argument (the simnet
/// unit tests assert full `RunResult` equality on raw engines).
#[test]
fn wheel_scheduler_matches_heap_baseline_on_all_scenarios() {
    use apples_bench::scenarios::{optimized_host, switch_system};
    use apples_simnet::SchedulerKind;

    type BuildFn = Box<dyn Fn() -> apples_simnet::Deployment>;
    let deployments: Vec<(&str, BuildFn)> = vec![
        ("baseline-2c", Box::new(|| baseline_host(2))),
        ("optimized-1c", Box::new(|| optimized_host(1))),
        ("smartnic", Box::new(smartnic_system)),
        ("switch-4c", Box::new(|| switch_system(4))),
    ];
    for (name, build) in deployments {
        let wl = saturating_workload(3);
        let wheel = measure_quick(&build().with_scheduler(SchedulerKind::Wheel), &wl);
        let heap = measure_quick(&build().with_scheduler(SchedulerKind::Heap), &wl);
        assert_eq!(
            wheel.throughput_bps.to_bits(),
            heap.throughput_bps.to_bits(),
            "throughput diverged on {name}"
        );
        assert_eq!(
            wheel.mean_latency_ns.to_bits(),
            heap.mean_latency_ns.to_bits(),
            "latency diverged on {name}"
        );
        assert_eq!(
            wheel.p99_latency_ns.to_bits(),
            heap.p99_latency_ns.to_bits(),
            "p99 diverged on {name}"
        );
        assert_eq!(wheel.loss_rate.to_bits(), heap.loss_rate.to_bits(), "loss diverged on {name}");
        assert_eq!(wheel.policy_drops, heap.policy_drops, "policy drops diverged on {name}");
        assert_eq!(wheel.watts.to_bits(), heap.watts.to_bits(), "watts diverged on {name}");
    }
}

/// Repeated in-process runs of the same experiment render byte-identical
/// reports (the map-iteration-order regression guard for the NF state
/// tables: any hash-order dependence would show up here or in the
/// schedule-independence test above).
#[test]
fn repeated_runs_render_byte_identical_reports() {
    let first = run("ex42").expect("known id").render();
    let second = run("ex42").expect("known id").render();
    assert_eq!(first, second);
}

/// One fault-injected measurement reduced to its complete bit pattern,
/// fault counters included.
fn faulted_bits(seed: u64, severity: f64) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    let wl = perturbed_workload(120.0, seed, severity);
    let m = if seed.is_multiple_of(2) {
        measure_quick(&faulted(baseline_host(2), severity), &wl)
    } else {
        measure_quick(&faulted(smartnic_system(), severity), &wl)
    };
    (
        m.throughput_bps.to_bits(),
        m.mean_latency_ns.to_bits(),
        m.loss_rate.to_bits(),
        m.watts.to_bits(),
        m.policy_drops,
        m.fault_drops,
        m.injected_drops,
        m.corrupted,
    )
}

/// Fault injection must not cost any determinism: the same faulted
/// measurement batch is bit-identical under 1 worker, 2 workers, and
/// the machine's full parallelism.
#[test]
fn faulted_measurements_are_bit_identical_across_schedules() {
    let batch = |pool: Pool| {
        pool.map((0..6u64).collect(), |seed| {
            let severity = [0.25, 0.5, 1.0][(seed % 3) as usize];
            faulted_bits(seed, severity)
        })
    };
    let serial = batch(Pool::with_workers(1));
    let two = batch(Pool::with_workers(2));
    let machine = batch(Pool::new());
    assert_eq!(serial, two, "faulted results changed between 1 and 2 workers");
    assert_eq!(serial, machine, "faulted results changed at machine parallelism");
    // And the faults actually did something in at least one run.
    assert!(serial.iter().any(|r| r.5 + r.6 > 0), "no faults fired anywhere: {serial:?}");
}

/// A faulted run is replayable from its inputs alone: rebuilding the
/// deployment, workload, and fault spec from scratch reproduces every
/// bit, including the fault counters.
#[test]
fn faulted_runs_replay_from_seed_and_spec() {
    for seed in 0..4u64 {
        assert_eq!(faulted_bits(seed, 1.0), faulted_bits(seed, 1.0), "seed {seed}");
    }
}

/// The wheel-vs-heap A/B identity survives fault injection at the
/// workspace level: fault events are first-class timing-wheel events,
/// and both disciplines must dispatch them identically.
#[test]
fn wheel_scheduler_matches_heap_baseline_under_faults() {
    use apples_simnet::SchedulerKind;

    type BuildFn = Box<dyn Fn() -> apples_simnet::Deployment>;
    let deployments: Vec<(&str, BuildFn)> = vec![
        ("baseline-2c", Box::new(|| baseline_host(2))),
        ("smartnic", Box::new(smartnic_system)),
    ];
    for (name, build) in deployments {
        let wl = perturbed_workload(120.0, 9, 1.0);
        let wheel = measure_quick(&faulted(build(), 1.0).with_scheduler(SchedulerKind::Wheel), &wl);
        let heap = measure_quick(&faulted(build(), 1.0).with_scheduler(SchedulerKind::Heap), &wl);
        assert_eq!(
            wheel.throughput_bps.to_bits(),
            heap.throughput_bps.to_bits(),
            "throughput diverged on faulted {name}"
        );
        assert_eq!(
            wheel.mean_latency_ns.to_bits(),
            heap.mean_latency_ns.to_bits(),
            "latency diverged on faulted {name}"
        );
        assert_eq!(wheel.fault_drops, heap.fault_drops, "fault drops diverged on {name}");
        assert_eq!(wheel.injected_drops, heap.injected_drops, "injected diverged on {name}");
        assert_eq!(wheel.corrupted, heap.corrupted, "corruption diverged on {name}");
        assert_eq!(wheel.policy_drops, heap.policy_drops, "policy drops diverged on {name}");
    }
}
