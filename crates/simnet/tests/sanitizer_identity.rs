//! The order-sanitizer's own identity gate: a sanitized run — with or
//! without the interleaving perturber — must produce **byte-identical**
//! measurements to a plain run, under both scheduler disciplines, with
//! batching, multi-stage offload pipelines, and fault plans in play.
//!
//! This is the oracle a future sharded engine will be held to: the
//! perturber delivers every same-timestamp equivalence class in a
//! shuffled (but seeded) order and restores canonical order with the
//! seq-keyed merge — exactly the epoch-barrier merge a sharded dispatch
//! would run. If any engine path secretly depends on pre-merge buffer
//! order, these tests break today instead of during that refactor.

use apples_simnet::fault::FaultSpec;
use apples_simnet::nf::dpi::{Dpi, MatchPolicy};
use apples_simnet::nf::firewall::{synth_rules, Action, Firewall};
use apples_simnet::nf::NfChain;
use apples_simnet::sched::SchedulerKind;
use apples_simnet::system::{Deployment, Measurement};
use apples_workload::WorkloadSpec;

const RUN_NS: u64 = 10_000_000;
const WARMUP_NS: u64 = 1_000_000;

fn firewall_chain(rules: usize) -> impl Fn() -> NfChain {
    move || NfChain::new(vec![Box::new(Firewall::new(synth_rules(rules, 0.05, 7), Action::Deny))])
}

type Contender = (&'static str, Box<dyn Fn() -> Deployment>);

/// The three contender shapes the worked example compares.
fn deployments() -> Vec<Contender> {
    vec![
        ("base-2c", Box::new(|| Deployment::cpu_host("base-2c", 2, firewall_chain(100)))),
        (
            "smartnic",
            Box::new(|| {
                Deployment::smartnic_offload("smartnic", 4, firewall_chain(100), 1, NfChain::empty)
            }),
        ),
        (
            "switch-2c",
            Box::new(|| {
                Deployment::switch_frontend("switch-2c", firewall_chain(100), 2, NfChain::empty)
            }),
        ),
    ]
}

fn assert_identical(name: &str, plain: &Measurement, sanitized: &Measurement, mode: &str) {
    assert_eq!(
        plain.throughput_bps.to_bits(),
        sanitized.throughput_bps.to_bits(),
        "{name}/{mode}: throughput diverged"
    );
    assert_eq!(
        plain.mean_latency_ns.to_bits(),
        sanitized.mean_latency_ns.to_bits(),
        "{name}/{mode}: mean latency diverged"
    );
    assert_eq!(
        plain.p99_latency_ns.to_bits(),
        sanitized.p99_latency_ns.to_bits(),
        "{name}/{mode}: p99 diverged"
    );
    assert_eq!(plain.policy_drops, sanitized.policy_drops, "{name}/{mode}: drops diverged");
    assert_eq!(plain.stages, sanitized.stages, "{name}/{mode}: stage reports diverged");
}

#[test]
fn sanitized_runs_are_byte_identical_across_contenders_and_schedulers() {
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    for (name, mk) in deployments() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let plain = mk().with_scheduler(kind).run(&wl, RUN_NS, WARMUP_NS);
            // Check-only sanitizer.
            let (checked, rep) =
                mk().with_scheduler(kind).run_sanitized(&wl, RUN_NS, WARMUP_NS, None);
            assert_identical(name, &plain, &checked, "check");
            assert!(rep.events > 0, "{name}: sanitizer saw no events");
            assert_eq!(rep.perturbed, 0, "{name}: check-only mode must not perturb");
            // Perturbed sanitizer: shuffled equivalence classes, same bytes.
            let (perturbed, _) =
                mk().with_scheduler(kind).run_sanitized(&wl, RUN_NS, WARMUP_NS, Some(0xD15F));
            assert_identical(name, &plain, &perturbed, "perturb");
        }
    }
}

#[test]
fn sanitized_payload_runs_are_byte_identical() {
    // DPI deployments shaped like the IPS experiment's host and FPGA
    // contenders. Payload bytes are synthesized as packets start
    // service, so a perturbed dispatch order must not move them.
    let ips_chain =
        || NfChain::new(vec![Box::new(Dpi::new(&Dpi::demo_signatures(), MatchPolicy::Block))]);
    let needles = || Dpi::demo_signatures().iter().map(|s| s.to_vec()).collect::<Vec<_>>();
    let contenders: Vec<Contender> = vec![
        (
            "ips-host-2c",
            Box::new(move || {
                Deployment::cpu_host_contended("ips-host-2c", 2, 0.05, ips_chain)
                    .with_payloads(0.05, needles())
            }),
        ),
        (
            "ips-fpga",
            Box::new(move || {
                Deployment::fpga_offload("ips-fpga", ips_chain, 1, NfChain::empty)
                    .with_payloads(0.05, needles())
            }),
        ),
    ];
    let (run_ns, warmup_ns) = (3_000_000, 300_000);
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    for (name, mk) in contenders {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let plain = mk().with_scheduler(kind).run(&wl, run_ns, warmup_ns);
            assert!(plain.policy_drops > 0, "{name}: no payload ever matched a signature");
            let (checked, rep) =
                mk().with_scheduler(kind).run_sanitized(&wl, run_ns, warmup_ns, None);
            assert_identical(name, &plain, &checked, "check");
            assert!(rep.events > 0, "{name}: sanitizer saw no events");
            let (perturbed, _) =
                mk().with_scheduler(kind).run_sanitized(&wl, run_ns, warmup_ns, Some(0xD15F));
            assert_identical(name, &plain, &perturbed, "perturb");
        }
    }
}

#[test]
fn batched_pipelines_exercise_the_perturber_on_multi_event_classes() {
    // A GPU batcher with unfused hops is the worst case a sharded merge
    // faces: every kernel completion re-enqueues its whole batch at one
    // timestamp, so the walk's re-drain tails are genuinely multi-event
    // and the perturber has real equivalence classes to shuffle.
    use apples_simnet::engine::BatchPolicy;
    let wl = WorkloadSpec::cbr(8e6, 1500, 16, 5);
    let mk = |fused: bool| {
        move || {
            Deployment::gpu_offload(
                "gpu-batch",
                BatchPolicy::new(32, 100_000, 15_000),
                firewall_chain(50),
            )
            .with_fusion(fused)
        }
    };
    for fused in [true, false] {
        let make = mk(fused);
        let plain = make().run(&wl, RUN_NS, WARMUP_NS);
        let (perturbed, rep) = make().run_sanitized(&wl, RUN_NS, WARMUP_NS, Some(0xBEEF));
        assert_identical("gpu-batch", &plain, &perturbed, "perturb");
        if !fused {
            assert!(rep.max_bucket > 1, "batch completions must collide timestamps");
            assert!(rep.perturbed > 0, "perturber must have shuffled at least one class");
        }
    }
}

#[test]
fn sanitized_runs_survive_fault_plans_and_unfused_hops() {
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    let mk = || {
        Deployment::cpu_host("faulted", 2, firewall_chain(50))
            .with_faults(FaultSpec::at_severity(0.8))
    };
    let plain = mk().run(&wl, RUN_NS, WARMUP_NS);
    let (perturbed, _) = mk().run_sanitized(&wl, RUN_NS, WARMUP_NS, Some(7));
    assert_identical("faulted", &plain, &perturbed, "perturb");
    assert_eq!(plain.injected_drops, perturbed.injected_drops);
    assert_eq!(plain.fault_drops, perturbed.fault_drops);

    // Unfused hops re-enqueue through the scheduler: a different event
    // population for the sanitizer to check, same bytes out.
    let mk2 = || {
        Deployment::smartnic_offload("unfused", 4, firewall_chain(50), 1, NfChain::empty)
            .with_fusion(false)
    };
    let unfused_plain = mk2().run(&wl, RUN_NS, WARMUP_NS);
    let (unfused_perturbed, rep) = mk2().run_sanitized(&wl, RUN_NS, WARMUP_NS, Some(7));
    assert_identical("unfused", &unfused_plain, &unfused_perturbed, "perturb");
    assert!(rep.events > 0);
}

#[test]
fn perturbation_seed_does_not_leak_into_results() {
    // Different perturbation seeds shuffle differently but must land on
    // the same canonical order — and therefore the same bytes.
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    let mk = || Deployment::cpu_host("seeds", 2, firewall_chain(100));
    let (a, ra) = mk().run_sanitized(&wl, RUN_NS, WARMUP_NS, Some(1));
    let (b, rb) = mk().run_sanitized(&wl, RUN_NS, WARMUP_NS, Some(0xFFFF_FFFF));
    assert_identical("seeds", &a, &b, "cross-seed");
    // Both perturbed the same population of events.
    assert_eq!(ra.events, rb.events);
    assert_eq!(ra.buckets, rb.buckets);
}
