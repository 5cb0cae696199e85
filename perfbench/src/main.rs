//! End-to-end benchmark of the experiment suite and the simulator.
//!
//! ```text
//! perfbench --workload <suite|sim-firewall|sim-ips> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of wall time, checks every output,
//! and prints each metric by name with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run adds a
//! traced phase and the metrics are the per-layer ones. See README.md.

#![forbid(unsafe_code)]

mod calib;
mod sim;
mod suite;
mod trace;

use apples_bench::experiments::ALL_IDS;
use apples_bench::wallclock::WallClock;
use apples_core::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <suite|sim-firewall|sim-ips> --seed <n> --seconds <s> --trace <0|1>";

/// Environment knobs that change report bytes or where the store lives;
/// cleared so every run sees the same program inputs.
const CLEARED_ENV: [&str; 4] =
    ["APPLES_TOOLCHAIN", "APPLES_GIT_REV", "APPLES_SEVERITY_OVERRIDE", "APPLES_STORE_DIR"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Suite,
    SimFirewall,
    SimIps,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite" => Some(Workload::Suite),
            "sim-firewall" => Some(Workload::SimFirewall),
            "sim-ips" => Some(Workload::SimIps),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::SimFirewall => "sim-firewall",
            Workload::SimIps => "sim-ips",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set only on the child processes `suite` starts: run the one pass
    /// named here and print it as one line (see `suite::child_pass`).
    pub pass: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pass = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed '{value}'"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                });
            }
            "--pass" => pass = Some(value.clone()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pass,
    })
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value, unit }
}

/// The per-layer metrics every traced run reports, in a fixed order.
/// A layer the workload does not exercise reads 0.
pub struct Layers(Vec<Metric>);

impl Default for Layers {
    fn default() -> Layers {
        let mut m = vec![
            metric("workload.gen_s", 0.0, "s"),
            metric("workload.pkts", 0.0, "count"),
            metric("packet.payload_s", 0.0, "s"),
            metric("packet.payload_bytes", 0.0, "B"),
            metric("nf.fw_chain_s", 0.0, "s"),
            metric("nf.fw_chain_ns_per_pkt", 0.0, "ns"),
            metric("nf.dpi_s", 0.0, "s"),
            metric("nf.dpi_ns_per_byte", 0.0, "ns"),
        ];
        for label in sim::FIREWALL_LABELS.iter().chain(&sim::IPS_LABELS) {
            m.push(metric(&format!("engine.run_s.{label}"), 0.0, "s"));
        }
        m.extend([
            metric("engine.arrivals", 0.0, "count"),
            metric("engine.host_ns_per_arrival", 0.0, "ns"),
            metric("engine.residual_s", 0.0, "s"),
            metric("engine.dispatch_s", 0.0, "s"),
            metric("engine.wheel_advance_s", 0.0, "s"),
        ]);
        for id in ALL_IDS {
            m.push(metric(&format!("exp.{id}_s"), 0.0, "s"));
        }
        m.extend([
            metric("suite.critical_path_s", 0.0, "s"),
            metric("pool.busy_frac", 0.0, "ratio"),
            metric("store.hit", 0.0, "count"),
            metric("store.stale", 0.0, "count"),
            metric("store.miss", 0.0, "count"),
            metric("store.torn", 0.0, "count"),
            metric("store.overhead_s", 0.0, "s"),
            metric("store.bytes", 0.0, "B"),
            metric("trace.overhead_frac", 0.0, "ratio"),
            metric("host.calib_s", 0.0, "s"),
        ]);
        Layers(m)
    }
}

impl Layers {
    /// Sets a catalogued metric; an uncatalogued name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => panic!("per-layer metric {name} is not in the catalog"),
        }
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    /// Operations checked: experiment reports, store checks, deployment runs.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; present only when the run was traced.
    pub layers: Option<Layers>,
    /// Printed for people, never part of the JSON result.
    pub notes: Vec<Metric>,
}

/// Tallies checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn elapsed_s(clock: &WallClock) -> f64 {
    clock.elapsed_ms() / 1e3
}

/// Resets this process's peak resident memory to its current resident
/// memory (Linux `clear_refs`), so a pass can read its own peak.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak resident memory of this process (VmHWM) since the last reset, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The workload's scratch directory. Everything a run writes (store,
/// markdown, spans) lives there, inside the checkout.
pub fn scratch_dir(workload: Workload) -> PathBuf {
    Path::new(".bench_tmp").join(workload.name())
}

/// Empties and returns the workload's scratch directory.
fn fresh_scratch(workload: Workload) -> Result<PathBuf, String> {
    let dir = scratch_dir(workload);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn print_result(outcome: &Outcome) {
    let shown = match &outcome.layers {
        Some(layers) => &layers.0,
        None => &outcome.end_to_end,
    };
    let notes = outcome.notes.iter().filter(|n| shown.iter().all(|m| m.name != n.name));
    for m in notes.chain(shown) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<40} {:>16.6} ratio", "failed_frac", failed_frac);
    let metrics = shown.iter().fold(Json::obj(), |obj, m| {
        obj.field(&m.name, Json::obj().field("value", m.value).field("unit", m.unit))
    });
    let result = Json::obj()
        .field("correct", outcome.failed == 0)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics);
    println!("{}", result.render());
}

fn run(args: &Args) -> Result<Outcome, String> {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let scratch = fresh_scratch(args.workload)?;
    match args.workload {
        Workload::Suite => suite::run(args, &scratch),
        Workload::SimFirewall | Workload::SimIps => sim::run(args, &scratch),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.pass {
        return match suite::child_pass(name) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: pass {name}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(outcome) => {
            print_result(&outcome);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
