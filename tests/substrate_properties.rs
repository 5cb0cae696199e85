//! Property-style tests of the simulation substrate: matcher
//! equivalence, search-engine correctness, and packet conservation over
//! randomly explored pipeline configurations (seeded loops, so every
//! run explores the identical sequence).

use apples::simnet::engine::{Engine, StageConfig};
use apples::simnet::nf::dpi::AhoCorasick;
use apples::simnet::nf::firewall::{Action, BucketedFirewall, Firewall, Rule};
use apples::simnet::nf::{NetworkFunction, NfChain};
use apples::simnet::packet::Packet;
use apples::simnet::service::{LineRate, NfService};
use apples::workload::{FiveTuple, WorkloadSpec};
use apples_rng::Rng;

fn random_rule(rng: &mut Rng) -> Rule {
    let plo = rng.range_u16_inclusive(0, u16::MAX);
    Rule {
        src: (rng.next_u32(), rng.range_u8_inclusive(0, 32)),
        dst: (rng.next_u32(), rng.range_u8_inclusive(0, 32)),
        dst_ports: (plo, plo.saturating_add(rng.range_u16(0, 16))),
        proto: match rng.range_u32(0, 3) {
            0 => None,
            1 => Some(6),
            _ => Some(17),
        },
        action: if rng.gen_bool(0.5) { Action::Allow } else { Action::Deny },
    }
}

fn random_tuple(rng: &mut Rng) -> FiveTuple {
    FiveTuple {
        src_ip: rng.next_u32(),
        dst_ip: rng.next_u32(),
        src_port: rng.range_u16_inclusive(0, u16::MAX),
        dst_port: rng.range_u16(0, 32),
        proto: if rng.gen_bool(0.5) { 6 } else { 17 },
    }
}

fn packet(t: FiveTuple) -> Packet {
    Packet::new(1, 0, t, 64, 0)
}

/// The bucketed matcher is an optimization, not a semantic change: it
/// must agree with the linear first-match scan on every rule set and
/// every packet.
#[test]
fn bucketed_firewall_matches_linear_semantics() {
    let mut rng = Rng::seed_from_u64(0x50B1);
    for _ in 0..300 {
        let rules: Vec<Rule> = (0..rng.range_usize(0, 40)).map(|_| random_rule(&mut rng)).collect();
        let default = if rng.gen_bool(0.5) { Action::Deny } else { Action::Allow };
        let mut linear = Firewall::new(rules.clone(), default);
        let mut bucketed = BucketedFirewall::new(rules, default);
        for _ in 0..rng.range_usize(1, 40) {
            let t = random_tuple(&mut rng);
            let p = packet(t);
            let (lv, _) = linear.process(&p);
            let (bv, _) = bucketed.process(&p);
            assert_eq!(lv, bv, "matchers disagree on {t:?}");
        }
    }
}

fn naive_count(patterns: &[Vec<u8>], haystack: &[u8]) -> u64 {
    patterns
        .iter()
        .map(|p| {
            if p.len() > haystack.len() {
                0
            } else {
                haystack.windows(p.len()).filter(|w| *w == p.as_slice()).count() as u64
            }
        })
        .sum()
}

/// Aho–Corasick counts exactly what a naive scan counts.
#[test]
fn aho_corasick_matches_naive_search() {
    let mut rng = Rng::seed_from_u64(0x50B2);
    // A four-letter alphabet, so patterns overlap and share prefixes.
    for _ in 0..300 {
        let patterns: Vec<Vec<u8>> = (0..rng.range_usize(1, 6))
            .map(|_| (0..rng.range_usize(1, 5)).map(|_| rng.range_u8_inclusive(97, 100)).collect())
            .collect();
        let haystack: Vec<u8> =
            (0..rng.range_usize(0, 200)).map(|_| rng.range_u8_inclusive(97, 100)).collect();
        let refs: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
        let ac = AhoCorasick::build(&refs);
        assert_eq!(ac.count_matches(&haystack), naive_count(&patterns, &haystack));
    }
    // The whole byte range: the scan indexes a transition for every
    // byte value, 0x00 and 0x80-0xFF included. `\x90` runs of different
    // lengths are patterns that are each other's prefixes and suffixes.
    let alphabet = [0x00, 0x01, 0x7F, 0x80, 0x90, 0x90, 0x90, 0xC3, 0xFF, b'a'];
    for _ in 0..300 {
        let patterns: Vec<Vec<u8>> = (0..rng.range_usize(1, 7))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    vec![0x90; rng.range_usize(1, 6)]
                } else {
                    (0..rng.range_usize(1, 5))
                        .map(|_| alphabet[rng.range_usize(0, alphabet.len())])
                        .collect()
                }
            })
            .collect();
        let haystack: Vec<u8> = (0..rng.range_usize(0, 300))
            .map(|_| {
                if rng.gen_bool(0.1) {
                    rng.range_u8_inclusive(0, 255)
                } else {
                    alphabet[rng.range_usize(0, alphabet.len())]
                }
            })
            .collect();
        let refs: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
        let ac = AhoCorasick::build(&refs);
        assert_eq!(ac.count_matches(&haystack), naive_count(&patterns, &haystack));
    }
}

/// No pipeline configuration loses or invents packets. This is the
/// suite-wide conservation sweep: every random two-stage pipeline must
/// satisfy `StageReport::conserves_packets` at every stage, and the
/// global delivered + dropped + in-flight accounting must equal the
/// injected count.
#[test]
fn pipelines_conserve_packets() {
    let mut rng = Rng::seed_from_u64(0x50B3);
    for _ in 0..60 {
        let servers1 = rng.range_u32(1, 4);
        let servers2 = rng.range_u32(1, 4);
        let cap1 = rng.range_usize(1, 64);
        let cap2 = rng.range_usize(1, 64);
        let rate_mpps = rng.range_u64(1, 20);
        let size = rng.range_u32(64, 1500);
        let seed = rng.range_u64(0, 1000);
        let mut engine = Engine::new(vec![
            StageConfig::new(
                "front",
                servers1,
                cap1,
                Box::new(NfService::host_core(NfChain::empty())),
            ),
            StageConfig::new("back", servers2, cap2, Box::new(LineRate::new("10G", 10e9))),
        ]);
        let wl = WorkloadSpec::cbr(rate_mpps as f64 * 1e6, size, 4, seed);
        let r = engine.run(&wl, 1_000_000, 0);
        for s in &r.stages {
            assert!(s.conserves_packets(), "stage {} leaks: {s:?}", s.name);
        }
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }
}

/// Batch stages conserve packets for any policy parameters, and
/// batching never delivers more than was offered.
#[test]
fn batch_stages_conserve_packets() {
    use apples::simnet::engine::BatchPolicy;
    use apples::simnet::service::FixedTime;
    let mut rng = Rng::seed_from_u64(0x50B4);
    for _ in 0..60 {
        let max_batch = rng.range_usize(1, 128);
        let timeout_us = rng.range_u64(1, 200);
        let kernel_us = rng.range_u64(0, 50);
        let rate_mpps = rng.range_u64(1, 8);
        let seed = rng.range_u64(0, 200);
        let mut engine = Engine::new(vec![StageConfig::new(
            "gpu",
            2,
            2048,
            Box::new(FixedTime::new("kernel", NfChain::empty(), 30)),
        )
        .with_batching(BatchPolicy::new(max_batch, timeout_us * 1000, kernel_us * 1000))]);
        let wl = WorkloadSpec::cbr(rate_mpps as f64 * 1e6, 300, 4, seed);
        let r = engine.run(&wl, 2_000_000, 0);
        assert!(r.stages[0].conserves_packets(), "{:?}", r.stages[0]);
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
        assert!(r.sink.delivered_packets() <= r.injected);
    }
}

/// Adding servers never reduces delivered throughput (work conservation
/// of the queueing model).
#[test]
fn more_servers_never_hurt() {
    for seed in 0..50u64 {
        let deliver = |servers: u32| {
            let mut engine = Engine::new(vec![StageConfig::new(
                "core",
                servers,
                128,
                Box::new(NfService::host_core(NfChain::empty())),
            )]);
            let wl = WorkloadSpec::cbr(12e6, 64, 4, seed);
            engine.run(&wl, 1_000_000, 0).sink.delivered_packets()
        };
        let one = deliver(1);
        let two = deliver(2);
        assert!(two + 8 >= one, "2 servers delivered {two} < 1 server {one}");
    }
}
