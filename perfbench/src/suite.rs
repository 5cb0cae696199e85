//! The `suite` workload: `xpall::run_all` over all 27 experiment ids,
//! cold from an empty store, then re-runs on the warm store.
//!
//! Each pass runs in a fresh child process, as `xp all` does for its
//! users; a long-lived process would carry the heap and thread stacks of
//! earlier passes into the next one's memory peak. A pass sets up a
//! fresh scratch store, runs the suite cold, then re-runs it
//! [`RERUNS_PER_PASS`] times. Every re-run gives one rung of one fault
//! experiment a severity no earlier re-run used, through the sanctioned
//! `APPLES_SEVERITY_OVERRIDE`, so exactly that experiment's subtree
//! re-runs and every other node is read back. A last warm run with the
//! override cleared must print exactly the cold stdout.

use crate::calib::Calibration;
use crate::trace::Recorder;
use crate::{
    elapsed_s, median, metric, peak_rss_mb, scratch_dir, Args, Layers, Outcome, Tally, Workload,
};
use apples_bench::experiments::{self, ALL_IDS};
use apples_bench::wallclock::WallClock;
use apples_bench::xpall::{run_all, XpAllOptions, XpAllOutcome};
use apples_bench::Pool;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The experiment and rung each re-run revises.
const REVISED_ID: &str = "robustness-crossover";
const REVISED_RUNG: &str = "moderate";
/// Nodes a one-rung revision makes stale: the fault rung, run, report
/// and figure of [`REVISED_ID`].
const REVISED_NODES: usize = 4;
const RERUNS_PER_PASS: usize = 10;
const MIN_PASSES: usize = 3;
/// Set-ups timed before each pass, apart from the pass's own.
const SETUPS_PER_PASS: usize = 5;

/// Inputs of one pass: scratch directories and the golden reports.
struct Setup {
    dir: PathBuf,
    md: PathBuf,
    opts: XpAllOptions,
    golden: Vec<(&'static str, String)>,
}

fn setup(scratch: &Path, name: &str, workers: usize) -> Result<Setup, String> {
    let dir = scratch.join(name);
    let store = dir.join("store");
    let md = dir.join("md");
    for d in [&store, &md] {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    let golden_dir = PathBuf::from("tests").join("golden");
    let golden = ALL_IDS
        .iter()
        .map(|&id| {
            let path = golden_dir.join(format!("{id}.md"));
            std::fs::read_to_string(&path)
                .map(|text| (id, text))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut opts = XpAllOptions::for_ids(ALL_IDS.iter().map(|&id| id.to_owned()).collect());
    opts.store_root = store;
    opts.golden_dir = golden_dir;
    opts.md_dir = Some(md.clone());
    opts.threads = Some(workers);
    Ok(Setup { dir, md, opts, golden })
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

/// The severity of a pass's `n`-th re-run: distinct for every `n`, and
/// inside the override's accepted range.
fn revised_severity(n: usize) -> f64 {
    0.5 + 0.001 * (n + 1) as f64
}

/// Checks each markdown report against its golden fixture. The revised
/// experiment must differ from it while its override is set.
fn check_reports(tally: &mut Tally, s: &Setup, revised: bool, phase: &str) {
    for (id, want) in &s.golden {
        let got = std::fs::read_to_string(s.md.join(format!("{id}.md"))).unwrap_or_default();
        let ok = if revised && *id == REVISED_ID {
            !got.is_empty() && got != *want
        } else {
            got == *want
        };
        tally.check(ok, &format!("{phase}: {id}.md against tests/golden/{id}.md"));
    }
}

fn run_suite(
    rec: &mut Recorder,
    id: u64,
    label: &str,
    opts: &XpAllOptions,
) -> Result<(XpAllOutcome, f64), String> {
    let (out, secs) = rec.span(id, "xpall::run_all", label, |_| (run_all(opts), 1));
    Ok((out?, secs))
}

/// What one pass measured, in raw wall seconds.
struct Pass {
    cold_s: f64,
    rerun_s: Vec<f64>,
    /// Scales the re-runs to the reference speed.
    rerun_scale: f64,
    /// Re-run wall minus re-executing the revised experiment alone
    /// (traced passes only).
    store_overhead_s: Vec<f64>,
    /// Hit/stale/miss/torn of the cold run plus the first re-run.
    counts: [usize; 4],
    store_bytes: u64,
}

/// Runs one pass. The re-runs are bracketed by calibrations; the cold
/// run is not: its seconds span many swings of the machine's speed,
/// which a calibration before and after it does not represent.
fn pass(
    rec: &mut Recorder,
    s: &Setup,
    cal: &mut Calibration,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let (cold, cold_s) = run_suite(rec, 0, "cold", &s.opts)?;
    let mid = cal.sample();
    let nodes = cold.stats.nodes;
    tally.check(
        cold.stats.miss == nodes && cold.stats.executed.len() == ALL_IDS.len(),
        &format!("cold run planned {} miss of {nodes} nodes", cold.stats.miss),
    );
    check_reports(tally, s, false, "cold");
    let store_bytes = if rec.enabled() { dir_bytes(&s.opts.store_root)? } else { 0 };
    let mut counts = [cold.stats.hit, cold.stats.stale, cold.stats.miss, cold.stats.torn];

    let mut rerun_s = Vec::new();
    let mut store_overhead_s = Vec::new();
    for r in 0..RERUNS_PER_PASS {
        let severity = revised_severity(r);
        std::env::set_var(
            "APPLES_SEVERITY_OVERRIDE",
            format!("{REVISED_ID}:{REVISED_RUNG}={severity}"),
        );
        let id = 1 + r as u64;
        let (out, secs) = run_suite(rec, id, "rerun", &s.opts)?;
        rerun_s.push(secs);
        let st = &out.stats;
        tally.check(
            st.hit == nodes - REVISED_NODES
                && st.stale == REVISED_NODES
                && st.miss == 0
                && st.torn == 0
                && st.executed == [REVISED_ID],
            &format!(
                "re-run planned {} hit, {} stale, {} miss, {} torn, re-ran {:?}",
                st.hit, st.stale, st.miss, st.torn, st.executed
            ),
        );
        check_reports(tally, s, true, "re-run");
        if r == 0 {
            for (c, v) in counts.iter_mut().zip([st.hit, st.stale, st.miss, st.torn]) {
                *c += v;
            }
        }
        if rec.enabled() {
            let (report, alone_s) =
                rec.span(id, "experiments::run", REVISED_ID, |_| (experiments::run(REVISED_ID), 1));
            tally.check(report.is_some(), "revised experiment ran alone");
            store_overhead_s.push(secs - alone_s);
        }
    }
    std::env::remove_var("APPLES_SEVERITY_OVERRIDE");
    let after = cal.sample();

    let (warm, _) = run_suite(rec, 0, "warm", &s.opts)?;
    tally.check(
        warm.stats.hit == nodes && warm.stdout == cold.stdout,
        "warm run after the re-runs prints the cold stdout from an all-hit plan",
    );
    check_reports(tally, s, false, "warm");
    Ok(Pass {
        cold_s,
        rerun_s,
        rerun_scale: Calibration::scale(mid, after),
        store_overhead_s,
        counts,
        store_bytes,
    })
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let meta =
            entry.metadata().map_err(|e| format!("cannot stat {}: {e}", entry.path().display()))?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// Runs the pass `name` in this process, which the parent started for
/// it, and returns the line the parent reads: cold seconds, re-run
/// scale, peak RSS in MiB, median calibration seconds, checks attempted,
/// checks failed, then each re-run's raw seconds.
pub fn child_pass(name: &str) -> Result<String, String> {
    let workers = Pool::new().workers();
    let mut cal = Calibration::new(workers);
    let mut tally = Tally::default();
    let s = setup(&scratch_dir(Workload::Suite), name, workers)?;
    let p = pass(&mut Recorder::new(false), &s, &mut cal, &mut tally)?;
    remove(&s.dir)?;
    let mut fields = vec![
        p.cold_s,
        p.rerun_scale,
        peak_rss_mb()?,
        cal.median_s(),
        tally.attempted as f64,
        tally.failed as f64,
    ];
    fields.extend(p.rerun_s);
    Ok(fields.iter().map(f64::to_string).collect::<Vec<_>>().join(" "))
}

/// Starts a child process for the pass `name` and parses its line.
fn spawn_pass(args: &Args, name: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", "suite", "--seed", &seed, "--seconds", "1", "--trace", "0"])
        .args(["--pass", name])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start pass {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass {name} exited with {}", out.status));
    }
    let fields = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(str::parse::<f64>)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("pass {name} printed an unreadable line: {e}"))?;
    if fields.len() != 6 + RERUNS_PER_PASS {
        return Err(format!("pass {name} printed {} fields", fields.len()));
    }
    Ok(fields)
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let workers = Pool::new().workers();
    let mut cal = Calibration::new(workers);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut rss_mb = Vec::new();
    let mut calib_s = Vec::new();
    // Raw wall seconds, and the same scaled to the reference speed.
    let (mut rerun_raw, mut rerun_s) = (Vec::new(), Vec::new());
    let clock = WallClock::start();
    while cold_s.len() < MIN_PASSES || elapsed_s(&clock) < args.seconds {
        let before = cal.sample();
        let mut setups = Vec::with_capacity(SETUPS_PER_PASS);
        for k in 0..SETUPS_PER_PASS {
            let setup_clock = WallClock::start();
            let s = setup(scratch, &format!("setup-{k}"), workers)?;
            setups.push(elapsed_s(&setup_clock));
            remove(&s.dir)?;
        }
        let scale = Calibration::scale(before, cal.sample());
        setup_s.extend(setups.iter().map(|t| t * scale));
        let f = spawn_pass(args, &format!("pass-{}", cold_s.len()))?;
        cold_s.push(f[0]);
        rss_mb.push(f[2]);
        calib_s.push(f[3]);
        tally.attempted += f[4] as u64;
        tally.failed += f[5] as u64;
        rerun_s.extend(f[6..].iter().map(|t| t * f[1]));
        rerun_raw.extend(&f[6..]);
    }

    let layers = if args.trace {
        Some(traced(scratch, workers, &mut cal, median(&cold_s), &mut tally)?)
    } else {
        None
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end: vec![
            metric("wall_s", median(&cold_s), "s"),
            metric("step_s", median(&rerun_s), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", median(&rss_mb), "MiB"),
        ],
        layers,
        notes: vec![
            metric("raw.rerun_s", median(&rerun_raw), "s"),
            metric("suite_s.samples", cold_s.len() as f64, "count"),
            metric("rerun_s.samples", rerun_s.len() as f64, "count"),
            metric("pool.workers", workers as f64, "count"),
            metric("host.calib_s", median(&calib_s), "s"),
        ],
    })
}

/// One traced pass, then every experiment alone and serially, each in
/// its own span, for the per-experiment and pool metrics.
fn traced(
    scratch: &Path,
    workers: usize,
    cal: &mut Calibration,
    untraced_cold_s: f64,
    tally: &mut Tally,
) -> Result<Layers, String> {
    let mut rec = Recorder::new(true);
    let s = setup(scratch, "traced", workers)?;
    let p = pass(&mut rec, &s, cal, tally)?;
    remove(&s.dir)?;

    let mut layers = Layers::default();
    let mut exp_total_s = 0.0;
    let mut critical_s: f64 = 0.0;
    for (n, (id, want)) in s.golden.iter().enumerate() {
        let (report, secs) =
            rec.span(100 + n as u64, "experiments::run", id, |_| (experiments::run(id), 1));
        let md = report.map(|r| r.render_markdown()).unwrap_or_default();
        tally.check(md == *want, &format!("experiments::run({id}) against its golden report"));
        layers.set(&format!("exp.{id}_s"), secs);
        exp_total_s += secs;
        critical_s = critical_s.max(secs);
    }
    layers.set("suite.critical_path_s", critical_s);
    layers.set("pool.busy_frac", exp_total_s / (workers as f64 * p.cold_s));
    for (name, v) in ["store.hit", "store.stale", "store.miss", "store.torn"].iter().zip(p.counts) {
        layers.set(name, v as f64);
    }
    layers.set("store.overhead_s", median(&p.store_overhead_s));
    layers.set("store.bytes", p.store_bytes as f64);
    layers.set("trace.overhead_frac", p.cold_s / untraced_cold_s - 1.0);
    layers.set("host.calib_s", cal.median_s());
    let spans = scratch.join("spans.json");
    std::fs::write(&spans, rec.to_json().render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    Ok(layers)
}
