//! The benchmark's workloads: a trace generated from the seed plus a
//! validated platform configuration.

use medes_core::config::{
    ConfigError, DedupPipelineConfig, PlatformConfig, PolicyKind, RestoreReadConfig,
};
use medes_mem::ContentModelConfig;
use medes_policy::medes::Objective;
use medes_policy::MedesPolicyConfig;
use medes_sim::{DetRng, SimDuration, SimTime};
use medes_trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};

/// Cluster shape shared by every workload (§7.1, scaled as in the
/// `fig7` experiment): demand-saturated by the 5× Azure-like trace.
const NODES: usize = 12;
const NODE_MEM_BYTES: usize = 192 << 20;
/// Trace volume scale (the paper's 5× Azure-like trace).
const TRACE_SCALE: f64 = 5.0;
/// Simulated trace length: 16,001 requests.
pub const TRACE_SECS: u64 = 1800;
/// Memory-image scale denominator, the experiments' quick mode.
pub const MEM_SCALE: usize = 512;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Trace samples per run (see [`Setup::traces`]).
    pub traces: usize,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// FixedKeepAlive(10 min): no dedup state at all.
    KeepAlive,
    /// Medes P1 with the config defaults (serial dedup, default read
    /// path, in-process registry, tile content model).
    MedesDefault,
    /// Medes P1 with a 2 s idle period and every alternate path on.
    DedupChurn,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "keepalive-azure",
        traces: 8,
        kind: Kind::KeepAlive,
    },
    Workload {
        name: "medes-azure",
        traces: 8,
        kind: Kind::MedesDefault,
    },
    Workload {
        name: "dedup-churn",
        traces: 3,
        kind: Kind::DedupChurn,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything a run needs; built by [`setup`].
pub struct Setup {
    pub suite: Vec<FunctionProfile>,
    /// Samples of the workload's trace, drawn from the seed. The
    /// simulation is chaotic: moving arrivals by a millisecond moves
    /// cold starts and dedups by ±10 %, and host time with them. A run
    /// measures several samples and reports their mean, which narrows
    /// that spread across seeds.
    pub traces: Vec<Trace>,
    pub cfg: PlatformConfig,
}

/// Medes P1 (latency target, α = 2.5) with the harness knobs of the
/// `fig7` experiment and the given idle period.
pub fn medes_policy(idle_period: SimDuration) -> MedesPolicyConfig {
    MedesPolicyConfig {
        objective: Objective::LatencyTarget { alpha: 2.5 },
        idle_period,
        keep_dedup: SimDuration::from_mins(15),
        keep_alive: SimDuration::from_mins(10),
        base_threshold: 40,
    }
}

impl Workload {
    /// The validated platform configuration. Only the trace depends on
    /// the seed; the platform keeps its own default RNG seed.
    pub fn config(&self) -> Result<PlatformConfig, ConfigError> {
        let b = PlatformConfig::builder()
            .nodes(NODES)
            .node_mem_bytes(NODE_MEM_BYTES)
            .mem_scale(MEM_SCALE);
        match self.kind {
            Kind::KeepAlive => b.policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10))),
            Kind::MedesDefault => {
                b.policy(PolicyKind::Medes(medes_policy(SimDuration::from_secs(15))))
            }
            Kind::DedupChurn => b
                .policy(PolicyKind::Medes(medes_policy(SimDuration::from_secs(2))))
                .read_path(RestoreReadConfig::cached(128 << 20))
                .pipeline(DedupPipelineConfig::parallel(4, 2))
                .registry_owners(4)
                .tweak(|c| c.content.mixture = ContentModelConfig::paper_calibrated()),
        }
        .build()
    }
}

/// A sample of the standard trace whose arrival times are drawn from
/// `root`.
///
/// `azure_like_trace` draws each function's Pareto base rate and its
/// exponential burst windows from its own seed, so a new seed redraws
/// the load itself: request counts vary fivefold across seeds and some
/// seeds overload the cluster for minutes. Here the load is that of
/// the standard trace: each function keeps its arrival count in every
/// 100 ms window of it, and `root` draws where in the window each
/// arrival falls. Rates, burst windows and request counts repeat;
/// arrival times do not.
fn sample(standard: &Trace, root: &DetRng) -> Trace {
    let mut rngs: Vec<DetRng> = (0..standard.functions.len())
        .map(|f| root.fork(f as u64 + 1))
        .collect();
    let mut arrivals = vec![Vec::new(); standard.functions.len()];
    for inv in &standard.invocations {
        let window = inv.time_us / JITTER_US * JITTER_US;
        let offset = (rngs[inv.function].f64() * JITTER_US as f64) as u64;
        arrivals[inv.function].push(SimTime::from_micros(window + offset));
    }
    Trace::from_arrivals(
        standard.functions.clone(),
        arrivals,
        SimTime::from_micros(standard.duration_us),
    )
}

/// Width of the window each arrival is redrawn within, µs.
const JITTER_US: u64 = 100_000;

/// Seed of the repository's standard Azure-like trace.
const STANDARD_TRACE_SEED: u64 = 20220405;

/// Builds the suite, the traces and the validated config.
pub fn setup(w: &Workload, seed: u64) -> Result<Setup, ConfigError> {
    let suite = functionbench_suite();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    // The repository's standard §7.1 trace, whose load every sample keeps.
    let standard = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: TRACE_SECS,
            scale: TRACE_SCALE,
            seed: STANDARD_TRACE_SEED,
            ..Default::default()
        },
    );
    let root = DetRng::new(seed);
    let traces = (0..w.traces as u64)
        .map(|k| sample(&standard, &root.fork(k)))
        .collect();
    let cfg = w.config()?;
    Ok(Setup { suite, traces, cfg })
}
