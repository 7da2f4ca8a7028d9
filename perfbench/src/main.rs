//! Wall-clock benchmark of the Medes simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! For one workload it builds the traces (from `--seed`) and the
//! validated `PlatformConfig`, times `Platform::run` on every trace
//! with tracing off for `--seconds`, checks every report, and prints
//! the end-to-end metrics. With `--trace 1` it instead times the first
//! trace alongside a replay of each layer's public functions, adds one
//! traced run, and prints the per-layer metrics. The last stdout line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod replay;
mod stats;
mod workload;

use medes_core::config::PlatformConfig;
use medes_core::metrics::RunReport;
use medes_core::platform::{Platform, RunOutcome};
use medes_obs::ObsConfig;
use medes_sim::stats::Percentiles;
use stats::median;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::Instant;
use workload::{Setup, Workload};

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;
/// At least this many timed rounds (one run of every trace each),
/// however long they take.
const MIN_ROUNDS: usize = 2;
/// Span ring of the traced run: large enough that no span is dropped,
/// so per-function counts can be read off the spans.
const TRACED_SPAN_CAP: usize = 1 << 21;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        usage("every flag takes one value");
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let v = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(v).unwrap_or_else(|| usage(&format!("no workload {v}"))))
            }
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

/// Tallies attempted/failed invocations and the problems found.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Report digest of each trace's first run.
    digests: HashMap<usize, u64>,
}

impl Tally {
    /// Checks one run of trace `k`; returns its outcome when it
    /// completed. `counters` also checks the traced run's start counters.
    fn record(
        &mut self,
        setup: &Setup,
        k: usize,
        outcome: Result<RunOutcome, String>,
        counters: bool,
    ) -> Option<RunOutcome> {
        let trace = &setup.traces[k];
        let n = trace.invocations.len() as u64;
        self.attempted += n;
        let out = match outcome {
            Ok(out) => out,
            Err(panic) => {
                self.failed += n;
                self.problems
                    .push(format!("run of trace {k} panicked: {panic}"));
                return None;
            }
        };
        let starts = counters.then(|| {
            ["warm", "dedup", "cold"]
                .map(|s| out.obs.counter(&format!("medes.platform.starts.{s}")))
        });
        let verdict = check::check(trace, &out.report, starts);
        let mut failed = verdict.failed;
        self.problems.extend(verdict.problems);
        let d = check::digest(&out.report);
        let first = *self.digests.entry(k).or_insert(d);
        if first != d {
            failed = n;
            self.problems.push(format!(
                "trace {k}: report digest {d:016x} differs from {first:016x}"
            ));
        }
        self.failed += failed;
        Some(out)
    }
}

/// Runs trace `k` once, timing only `Platform::run`.
fn run_once(setup: &Setup, cfg: &PlatformConfig, k: usize) -> (f64, Result<RunOutcome, String>) {
    let platform = Platform::new(cfg.clone(), setup.suite.clone());
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| platform.run(&setup.traces[k])));
    let wall = t.elapsed().as_secs_f64();
    let out = out.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    });
    (wall, out)
}

/// Untraced timed rounds over the first `traces` traces for `seconds`
/// (at least `min_rounds`), each round followed by `between`. Returns
/// the wall times and the first report of each trace.
fn timed_rounds(
    setup: &Setup,
    traces: usize,
    seconds: f64,
    min_rounds: usize,
    tally: &mut Tally,
    mut between: impl FnMut(),
) -> (Vec<Vec<f64>>, Vec<RunReport>) {
    let mut walls = vec![Vec::new(); traces];
    let mut reports = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for (k, w) in walls.iter_mut().enumerate() {
            let (wall, out) = run_once(setup, &setup.cfg, k);
            w.push(wall);
            let out = tally.record(setup, k, out, false);
            if rounds == 0 {
                reports.extend(out.map(|o| o.report));
            }
        }
        between();
        rounds += 1;
    }
    (walls, reports)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn end_to_end(
    setup_s: f64,
    walls: &[Vec<f64>],
    reports: &[RunReport],
    tally: &mut Tally,
) -> Vec<Metric> {
    // Best run of each trace, then the mean over traces.
    let best: Vec<f64> = walls
        .iter()
        .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let wall_s = best.iter().sum::<f64>() / best.len() as f64;
    let completed: usize = reports.iter().map(|r| r.requests.len()).sum();
    let mut e2e = Percentiles::new();
    for r in reports.iter().flat_map(|r| &r.requests) {
        e2e.record(r.e2e_us as f64 / 1e3);
    }
    let cold: u64 = reports.iter().map(|r| r.total_cold_starts()).sum();
    let mem_gib = reports.iter().map(|r| r.mem_mean_bytes).sum::<f64>()
        / reports.len().max(1) as f64
        / (1u64 << 30) as f64;
    let rss = peak_rss_mib().unwrap_or_else(|| {
        tally.problems.push("cannot read VmHWM".to_string());
        0.0
    });
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let all: Vec<f64> = walls.concat();
    let work: Vec<(u64, u64)> = reports
        .iter()
        .map(|r| {
            let dedups = r.dedup_stats.iter().map(|s| s.dedup_ops).sum();
            (r.sandboxes_spawned, dedups)
        })
        .collect();
    println!(
        "# {completed} requests over {} traces, {} timed runs each; {:.0} samples beyond p99.9; \
         run seconds: best per trace {best:.4?}, all-run quartiles {:.4}/{:.4}/{:.4}; \
         (spawns, dedups) per trace {work:?}; failed_frac {failed_frac}",
        walls.len(),
        walls.first().map_or(0, Vec::len),
        completed as f64 * 0.001,
        stats::quantile(&all, 0.25),
        median(&all),
        stats::quantile(&all, 0.75),
    );
    let mut p = |q| e2e.quantile(q).unwrap_or(0.0);
    vec![
        metric("wall_s", wall_s, "s"),
        metric(
            "sim_req_per_s",
            completed as f64 / best.iter().sum::<f64>(),
            "1/s",
        ),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", rss, "MiB"),
        metric("sim_e2e_p50_ms", p(0.5), "ms"),
        metric("sim_e2e_p999_ms", p(0.999), "ms"),
        metric(
            "sim_cold_start_frac",
            cold as f64 / completed.max(1) as f64,
            "frac",
        ),
        metric("sim_mem_mean_gib", mem_gib, "GiB"),
        metric("ok_frac", 1.0 - failed_frac, "frac"),
    ]
}

/// The traced run of the first trace: same config with
/// `ObsConfig::enabled()`.
fn traced_run(setup: &Setup, tally: &mut Tally) -> Option<(f64, RunOutcome)> {
    let mut cfg = setup.cfg.clone();
    cfg.obs = ObsConfig::enabled();
    cfg.obs.span_buffer_cap = TRACED_SPAN_CAP;
    let (wall, out) = run_once(setup, &cfg, 0);
    let out = tally.record(setup, 0, out, true)?;
    if out.obs.spans_dropped() > 0 {
        tally.problems.push(format!(
            "traced run dropped {} spans",
            out.obs.spans_dropped()
        ));
    }
    Some((wall, out))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(tally: &mut Tally, metrics: &[Metric]) {
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        tally
            .problems
            .push(format!("{} is not a finite number", m.name));
    }
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &tally.problems {
        println!("# problem: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.problems.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    println!(
        "# workload {} seed {} ({} traces of {} s, mem_scale {}), trace {}",
        w.name,
        args.seed,
        w.traces,
        workload::TRACE_SECS,
        workload::MEM_SCALE,
        u8::from(args.trace)
    );

    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = workload::setup(&w, args.seed).unwrap_or_else(|e| {
            eprintln!("perfbench: invalid configuration for {}: {e}", w.name);
            exit(1)
        });
        setup_times.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("set-up ran");

    let mut tally = Tally::default();
    let (warm_wall, warm) = run_once(&setup, &setup.cfg, 0);
    let Some(warm) = tally.record(&setup, 0, warm, false) else {
        print_result(&mut tally, &[]);
        exit(1)
    };
    let metrics = if args.trace {
        // The per-layer numbers are for the first trace. About
        // MAX_REPS replay repetitions are spread evenly between its
        // untraced runs, so the layer estimates and the wall time they
        // split see the same host conditions.
        let mut replay = replay::Replay::new(&setup, &warm.report);
        let expected_rounds = (args.seconds / warm_wall.max(1e-3)).ceil() as usize;
        let stride = expected_rounds.div_ceil(replay::MAX_REPS).max(1);
        let mut round = 0;
        let (walls, _) = timed_rounds(&setup, 1, args.seconds, MIN_ROUNDS, &mut tally, || {
            if round % stride == 0 {
                replay.rep();
            }
            round += 1;
        });
        while replay.reps() < replay::MIN_REPS {
            replay.rep();
        }
        match traced_run(&setup, &mut tally) {
            Some((traced_wall, out)) => {
                let spans = format!("perfbench/out/spans-{}-{}.jsonl", w.name, args.seed);
                replay::per_layer(
                    replay,
                    &out,
                    median(&walls[0]),
                    traced_wall,
                    &mut tally,
                    std::path::Path::new(&spans),
                )
            }
            None => Vec::new(),
        }
    } else {
        let (walls, reports) = timed_rounds(
            &setup,
            setup.traces.len(),
            args.seconds,
            MIN_ROUNDS,
            &mut tally,
            || {},
        );
        end_to_end(median(&setup_times), &walls, &reports, &mut tally)
    };
    print_result(&mut tally, &metrics);
}
