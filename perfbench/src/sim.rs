//! The `sim-firewall` and `sim-ips` workloads: deployments run one after
//! another on one thread, over open-loop Poisson traffic in simulated
//! time generated from the workload seed.
//!
//! `sim-firewall` runs header-only deployments, so arrival generation,
//! the dispatch walk and the firewall/NAT/monitor chain do the work;
//! `sim-ips` runs payload deployments, so payload synthesis and the DPI
//! scan do.

use crate::calib::Calibration;
use crate::trace::Recorder;
use crate::{
    elapsed_s, median, metric, peak_rss_mb, reset_peak_rss, Args, Layers, Outcome, Tally, Workload,
};
use apples_bench::scenarios::{
    baseline_host, fpga_ips, full_chain, host_ips, ips_chain, ips_needles, ips_workload,
    mtu_workload, optimized_host, saturating_workload, smartnic_system, switch_system, RUN_NS,
    WARMUP_NS,
};
use apples_bench::wallclock::WallClock;
use apples_obs::{fnv1a_hex, ObsConfig, Phase};
use apples_simnet::nf::NfChain;
use apples_simnet::{Deployment, Measurement, Packet};
use apples_workload::WorkloadSpec;
use std::path::Path;

/// Run labels: deployment name, then the workload it runs at.
pub const FIREWALL_LABELS: [&str; 5] = [
    "fw-host-1c.sat",
    "fw-opt-host-1c.sat",
    "fw-smartnic.sat",
    "fw-switch-8c.sat",
    "fw-host-1c.mtu5",
];
pub const IPS_LABELS: [&str; 3] = ["ips-host-1c.ips40", "ips-host-8c.ips40", "ips-fpga.ips40"];

/// The seed whose measurements are pinned in `digests.txt`.
const DEFAULT_SEED: u64 = 1;
/// `label digest` lines: the digest of each run's `Measurement` at
/// [`DEFAULT_SEED`]. A change that only speeds up the simulator must
/// leave every one of them unchanged.
const PINNED: &str = include_str!("../digests.txt");
const MIN_PASSES: usize = 5;
const SETUPS_PER_PASS: usize = 20;
/// Payload synthesis as the engine does it for the IPS deployments:
/// the attack probability `host_ips`/`fpga_ips` configure, and the
/// L2–L4 header bytes that carry no payload.
const ATTACK_PROB: f64 = 0.01;
const HEADER_BYTES: usize = 54;

/// One deployment run of a workload.
struct Case {
    label: &'static str,
    deployment: Deployment,
    workload: WorkloadSpec,
    /// The stage that runs the chain the traced phase times.
    nf_stage: usize,
}

fn cases(workload: Workload, seed: u64) -> Vec<Case> {
    let case =
        |label, deployment, workload, nf_stage| Case { label, deployment, workload, nf_stage };
    let [host_sat, opt_sat, nic_sat, switch_sat, host_mtu5] = FIREWALL_LABELS;
    let [ips1, ips8, ips_fpga] = IPS_LABELS;
    match workload {
        Workload::SimFirewall => vec![
            case(host_sat, baseline_host(1), saturating_workload(seed), 0),
            case(opt_sat, optimized_host(1), saturating_workload(seed), 0),
            case(nic_sat, smartnic_system(), saturating_workload(seed), 0),
            case(switch_sat, switch_system(8), saturating_workload(seed), 1),
            case(host_mtu5, baseline_host(1), mtu_workload(5.0, seed), 0),
        ],
        _ => vec![
            case(ips1, host_ips(1), ips_workload(40.0, seed), 0),
            case(ips8, host_ips(8), ips_workload(40.0, seed), 0),
            case(ips_fpga, fpga_ips(), ips_workload(40.0, seed), 0),
        ],
    }
}

fn digest(m: &Measurement) -> String {
    fnv1a_hex(format!("{m:?}").as_bytes())
}

/// Checks one run: every stage conserves packets, and at the default
/// seed the measurement matches its pinned digest.
fn check(tally: &mut Tally, case: &Case, m: &Measurement) {
    let conserves = m.stages.iter().all(|s| s.conserves_packets());
    let pinned_ok = case.workload.seed != DEFAULT_SEED || {
        let got = digest(m);
        let want = PINNED
            .lines()
            .find_map(|l| l.strip_prefix(case.label).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or("");
        if got != want {
            eprintln!("perfbench: {} measurement digest {got}, pinned {want:?}", case.label);
        }
        got == want
    };
    tally.check(conserves && pinned_ok, &format!("{}: conservation and pinned digest", case.label));
}

/// One untraced pass: every case once. Returns each run's wall seconds
/// and the stage-0 arrivals summed over the pass.
fn pass(cases: &[Case], tally: &mut Tally) -> (Vec<f64>, u64) {
    let mut rec = Recorder::new(false);
    let mut arrivals = 0;
    let times = cases
        .iter()
        .map(|c| {
            let (m, secs) = rec.span(0, "Deployment::run", c.label, |_| {
                (c.deployment.run(&c.workload, RUN_NS, WARMUP_NS), 1)
            });
            check(tally, c, &m);
            arrivals += m.stages.first().map_or(0, |s| s.arrivals);
            secs
        })
        .collect();
    (times, arrivals)
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut cal = Calibration::new(1);
    let mut setup_s = Vec::new();
    let mut built = Vec::new();
    // Per case: (raw seconds, seconds scaled to the reference speed).
    let mut per_case: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    let mut rss_mb = Vec::new();
    let mut passes = 0;
    let mut arrivals_per_pass = 0;
    let mut before = cal.sample();
    let clock = WallClock::start();
    while passes < MIN_PASSES || elapsed_s(&clock) < args.seconds {
        let mut setups = Vec::with_capacity(SETUPS_PER_PASS);
        for _ in 0..SETUPS_PER_PASS {
            let setup_clock = WallClock::start();
            built = cases(args.workload, args.seed);
            setups.push(elapsed_s(&setup_clock));
        }
        reset_peak_rss()?;
        let (times, arrivals) = pass(&built, &mut tally);
        rss_mb.push(peak_rss_mb()?);
        let after = cal.sample();
        let scale = Calibration::scale(before, after);
        before = after;
        setup_s.extend(setups.iter().map(|t| t * scale));
        per_case.resize(times.len(), (Vec::new(), Vec::new()));
        for ((raw, scaled), t) in per_case.iter_mut().zip(times) {
            raw.push(t);
            scaled.push(t * scale);
        }
        arrivals_per_pass = arrivals;
        passes += 1;
    }
    // A pass's time is the sum of each run's median: runs vary more
    // than passes of them average out.
    let wall_s: f64 = per_case.iter().map(|(_, scaled)| median(scaled)).sum();
    let raw_wall_s: f64 = per_case.iter().map(|(raw, _)| median(raw)).sum();

    let layers = if args.trace {
        let payloads = args.workload == Workload::SimIps;
        Some(traced(&built, payloads, raw_wall_s, cal.median_s(), scratch, &mut tally)?)
    } else {
        None
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end: vec![
            metric("wall_s", wall_s, "s"),
            metric("step_s", median(&per_case[0].1), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", median(&rss_mb), "MiB"),
        ],
        layers,
        notes: vec![
            metric("sim_pkts_per_s", arrivals_per_pass as f64 / raw_wall_s, "packets/s"),
            metric("raw.wall_s", raw_wall_s, "s"),
            metric("raw.step_s", median(&per_case[0].0), "s"),
            metric("passes", passes as f64, "count"),
            metric("host.calib_s", cal.median_s(), "s"),
        ],
    })
}

/// Per-layer seconds and counts of one traced pass.
#[derive(Default)]
struct Split {
    run_s: Vec<f64>,
    gen_s: f64,
    payload_s: f64,
    nf_s: f64,
    /// Chain time scaled to the packets the deployment actually served.
    nf_served_s: f64,
    observed_s: f64,
    dispatch_s: f64,
    wheel_s: f64,
    pkts: u64,
    payload_bytes: u64,
    arrivals: u64,
}

/// The traced pass. Per case, inside one span: the run itself, then the
/// layers it is made of, each called from outside on the same inputs —
/// arrival generation, payload synthesis, the NF chain — and last the
/// same run with the engine's span profiler attached.
fn traced_pass(rec: &mut Recorder, cs: &[Case], payloads: bool, tally: &mut Tally) -> Split {
    let needles = ips_needles();
    let refs: Vec<&[u8]> = needles.iter().map(Vec::as_slice).collect();
    let mut split = Split::default();
    for (n, c) in cs.iter().enumerate() {
        let id = n as u64;
        rec.span(id, "case", c.label, |rec| {
            let (m, run_s) = rec.span(id, "Deployment::run", c.label, |_| {
                (c.deployment.run(&c.workload, RUN_NS, WARMUP_NS), 1)
            });
            check(tally, c, &m);
            let (stubs, gen_s) = rec.span(id, "WorkloadSpec::packets_for", c.label, |_| {
                let stubs = c.workload.packets_for(RUN_NS);
                let n = stubs.len() as u64;
                (stubs, n)
            });
            let packet = |(i, s): (usize, &apples_workload::PacketStub)| {
                Packet::new(i as u64, s.flow, s.tuple, s.size_bytes, s.t_ns)
            };
            let packets: Vec<Packet> = if payloads {
                let (packets, secs) = rec.span(id, "Packet::with_payload", c.label, |_| {
                    let packets: Vec<Packet> = stubs
                        .iter()
                        .enumerate()
                        .map(|p| {
                            let len = (p.1.size_bytes as usize).saturating_sub(HEADER_BYTES);
                            packet(p).with_payload(len, c.workload.seed, ATTACK_PROB, &refs)
                        })
                        .collect();
                    let n = packets.len() as u64;
                    (packets, n)
                });
                split.payload_s += secs;
                split.payload_bytes += packets.iter().map(|p| p.payload.len() as u64).sum::<u64>();
                packets
            } else {
                stubs.iter().enumerate().map(packet).collect()
            };
            let mut chain: NfChain = if payloads { ips_chain() } else { full_chain() };
            let (_, nf_s) = rec.span(id, "NfChain::run", c.label, |_| {
                let cycles: u64 = packets.iter().map(|p| chain.run(p).1).sum();
                (std::hint::black_box(cycles), packets.len() as u64)
            });
            let ((observed, obs), observed_s) =
                rec.span(id, "Deployment::run_observed", c.label, |_| {
                    let cfg = ObsConfig {
                        trace_capacity: 0,
                        telemetry: false,
                        spans: true,
                        timeseries: false,
                    };
                    (c.deployment.run_observed(&c.workload, RUN_NS, WARMUP_NS, &cfg), 1)
                });
            tally.check(
                digest(&observed) == digest(&m),
                &format!("{}: observed run matches the plain run", c.label),
            );
            let served = m.stages.get(c.nf_stage).map_or(0, |s| s.served);
            split.run_s.push(run_s);
            split.gen_s += gen_s;
            split.nf_s += nf_s;
            split.nf_served_s += nf_s * served as f64 / packets.len().max(1) as f64;
            split.observed_s += observed_s;
            if let Some(spans) = &obs.spans {
                split.dispatch_s += spans.phase(Phase::Dispatch).est_wall_ns() / 1e9;
                split.wheel_s += spans.phase(Phase::WheelAdvance).est_wall_ns() / 1e9;
            }
            split.pkts += stubs.len() as u64;
            split.arrivals += m.stages.first().map_or(0, |s| s.arrivals);
            ((), 0)
        });
    }
    split
}

fn traced(
    cs: &[Case],
    payloads: bool,
    untraced_wall_s: f64,
    calib_s: f64,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<Layers, String> {
    let mut rec = Recorder::new(true);
    let s = traced_pass(&mut rec, cs, payloads, tally);
    let run_s: f64 = s.run_s.iter().sum();
    let mut layers = Layers::default();
    layers.set("workload.gen_s", s.gen_s);
    layers.set("workload.pkts", s.pkts as f64);
    layers.set("packet.payload_s", s.payload_s);
    layers.set("packet.payload_bytes", s.payload_bytes as f64);
    if payloads {
        layers.set("nf.dpi_s", s.nf_s);
        layers.set("nf.dpi_ns_per_byte", s.nf_s * 1e9 / s.payload_bytes as f64);
    } else {
        layers.set("nf.fw_chain_s", s.nf_s);
        layers.set("nf.fw_chain_ns_per_pkt", s.nf_s * 1e9 / s.pkts.max(1) as f64);
    }
    for (c, secs) in cs.iter().zip(&s.run_s) {
        layers.set(&format!("engine.run_s.{}", c.label), *secs);
    }
    layers.set("engine.arrivals", s.arrivals as f64);
    layers.set("engine.host_ns_per_arrival", run_s * 1e9 / s.arrivals.max(1) as f64);
    layers.set("engine.residual_s", run_s - s.gen_s - s.payload_s - s.nf_served_s);
    layers.set("engine.dispatch_s", s.dispatch_s);
    layers.set("engine.wheel_advance_s", s.wheel_s);
    layers.set("trace.overhead_frac", s.observed_s / untraced_wall_s - 1.0);
    layers.set("host.calib_s", calib_s);
    let spans = scratch.join("spans.json");
    std::fs::write(&spans, rec.to_json().render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    Ok(layers)
}
