//! Placement-conformance suite for the fingerprint registry (DESIGN.md
//! §15).
//!
//! A distributed [`RegistryClient`] must be observationally identical
//! to the in-process placement: same candidates, same counters, at
//! every interleaving of inserts, lookups, and removals. On top of the
//! registry-level contract, whole-platform runs (fig7-, fig9-, and
//! chaos-style configurations) must produce bit-identical `RunReport`s
//! with shards owned by 1, 4, and 12 nodes — and crash runs must end
//! with zero registry state tied to dead nodes.

use medes::hash::sample::{page_fingerprint, FingerprintConfig};
use medes::net::{NetConfig, RetryPolicy};
use medes::obs::Obs;
use medes::platform::config::{PlatformConfig, PolicyKind, RegistryPlacement};
use medes::platform::ids::{NodeId, SandboxId};
use medes::platform::registry::{ChunkLoc, CrashRecovery, RegistryClient};
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::FaultPlan;
use medes::sim::{DetRng, SimDuration, SimTime};
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};

fn random_page(seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut p = vec![0u8; 4096];
    rng.fill_bytes(&mut p);
    p
}

/// One client per placement, identically sharded: the in-process
/// reference plus distributed placements of several widths.
fn placements(shards: usize) -> Vec<(String, RegistryClient)> {
    let mut out = vec![(
        "in-process".to_string(),
        RegistryClient::in_process(shards, Obs::disabled()),
    )];
    for owners in [1, 3, 6] {
        out.push((
            format!("distributed/{owners}"),
            RegistryClient::distributed(
                shards,
                owners,
                6,
                NetConfig::default(),
                RetryPolicy::default(),
                Obs::disabled(),
            ),
        ));
    }
    out
}

/// Snapshot of every store counter, for parity assertions.
fn counters(c: &RegistryClient) -> (usize, usize, u64, usize, usize, Vec<usize>, Vec<u64>, usize) {
    (
        c.entries(),
        c.peak_entries(),
        c.lookups(),
        c.mem_bytes(),
        c.peak_mem_bytes(),
        c.shard_entries(),
        c.shard_lookup_counts(),
        c.base_sandboxes(),
    )
}

/// Randomized insert/lookup/remove interleavings: every placement must
/// return the same candidates and report the same counters as the
/// in-process reference, step for step.
#[test]
fn interleavings_agree_across_backends() {
    let cfg = FingerprintConfig::default();
    let fps: Vec<_> = (0..32u64)
        .map(|i| page_fingerprint(&random_page(i), &cfg))
        .collect();
    for case in 0..4u64 {
        let mut clients = placements(8);
        let mut rng = DetRng::new(0xC0DE + case);
        let mut live: Vec<u64> = Vec::new();
        let mut next_sb = 1u64;
        for _ in 0..40 {
            let roll = rng.below(10);
            if live.is_empty() || roll < 5 {
                let sb = next_sb;
                next_sb += 1;
                live.push(sb);
                let fp = &fps[rng.below(fps.len() as u64) as usize];
                let loc = ChunkLoc {
                    node: NodeId(rng.below(6) as usize),
                    sandbox: SandboxId(sb),
                    page: rng.below(64) as u32,
                };
                for (_, c) in &mut clients {
                    c.insert_page(fp, loc);
                }
            } else if roll < 8 {
                let probe = &fps[rng.below(fps.len() as u64) as usize];
                let reference = clients[0].1.lookup(probe);
                for (name, c) in &clients[1..] {
                    assert_eq!(c.lookup(probe), reference, "{name} diverged on lookup");
                }
            } else {
                let sb = live.swap_remove(rng.below(live.len() as u64) as usize);
                for (_, c) in &mut clients {
                    c.remove_sandbox(SandboxId(sb));
                }
            }
            let reference = counters(&clients[0].1);
            for (name, c) in &clients[1..] {
                assert_eq!(counters(c), reference, "{name} counters diverged");
                c.check_invariants()
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
        // Batched lookups agree too (the pipeline's hot path).
        let reference = clients[0].1.lookup_batch(&fps);
        for (name, c) in &clients[1..] {
            assert_eq!(c.lookup_batch(&fps), reference, "{name} diverged on batch");
        }
    }
}

/// Crashing an owner node must purge its ownership entirely: no shard
/// owned by it, no entries homed in shards owned by it, invariants
/// clean — while the logical contents survive re-demarcation intact.
/// The in-process placement owns nothing, so the same crashes (and a
/// restart) must leave it untouched and RPC-free.
#[test]
fn crash_purge_leaves_no_dead_node_state() {
    let cfg = FingerprintConfig::default();
    for owners in [None, Some(6)] {
        let client = match owners {
            None => RegistryClient::in_process(8, Obs::disabled()),
            Some(n) => RegistryClient::distributed(
                8,
                n,
                6,
                NetConfig::default(),
                RetryPolicy::default(),
                Obs::disabled(),
            ),
        };
        for i in 0..24u64 {
            let fp = page_fingerprint(&random_page(200 + i), &cfg);
            client.insert_page(
                &fp,
                ChunkLoc {
                    node: NodeId((i % 6) as usize),
                    sandbox: SandboxId(i + 1),
                    page: 0,
                },
            );
        }
        let entries = client.entries();
        // Kill owners one at a time; the last survivor absorbs everything.
        for dead in 0..5usize {
            let rec = client.on_node_crash(NodeId(dead));
            if owners.is_some() {
                assert!(rec.reassigned_shards > 0, "node {dead} owned no shards");
            } else {
                assert_eq!(rec, CrashRecovery::default(), "in-process crash of {dead}");
            }
            assert_eq!(client.entries_owned_by(NodeId(dead)), 0);
            client
                .check_invariants()
                .unwrap_or_else(|e| panic!("{owners:?}: after crash of node {dead}: {e}"));
        }
        client.on_node_restart(NodeId(0));
        client
            .check_invariants()
            .unwrap_or_else(|e| panic!("{owners:?}: after restart: {e}"));
        assert_eq!(
            client.entries(),
            entries,
            "{owners:?}: crashes lost entries"
        );
        if owners.is_some() {
            assert_eq!(client.entries_owned_by(NodeId(5)), entries);
            assert!(client.rereplicated_entries() > 0);
        } else {
            assert_eq!(client.entries_owned_by(NodeId(5)), 0);
            assert_eq!(client.rereplicated_entries(), 0);
            assert_eq!(client.rpc_stats().rpcs, 0);
        }
    }
}

fn suite() -> Vec<FunctionProfile> {
    functionbench_suite().into_iter().take(5).collect()
}

fn trace(secs: u64, seed: u64, scale: f64) -> Trace {
    let s = suite();
    let names: Vec<String> = s.iter().map(|p| p.name.clone()).collect();
    azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale,
            seed,
            ..Default::default()
        },
    )
}

/// A 12-node pressured cluster, so the 12-owner placement is legal and
/// the Medes policy dedups enough to populate the registry.
fn cluster_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.nodes = 12;
    cfg.node_mem_bytes = 128 << 20;
    cfg.pipeline.shards = 16;
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(10);
    }
    cfg
}

/// Runs one configuration at every registry placement and asserts the
/// reports are bit-identical; returns the reference outcome's report
/// for scenario-level assertions.
fn assert_placement_invariant(
    base: PlatformConfig,
    t: &Trace,
) -> medes::platform::platform::RunOutcome {
    let reference = Platform::new(base.clone(), suite()).run(t);
    for owners in [1usize, 4, 12] {
        let mut cfg = base.clone();
        cfg.registry = RegistryPlacement::Distributed { owners };
        let outcome = Platform::new(cfg, suite()).run(t);
        assert_eq!(
            outcome.report, reference.report,
            "report diverged at {owners} owners"
        );
        assert_eq!(outcome.report.registry_dead_node_locs, 0);
    }
    reference
}

/// Fig 7-style: latency-target Medes objective over an oversubscribed
/// Azure-like trace (the full FunctionBench catalog, like the fig7
/// experiment itself — latency-target only dedups under pressure).
#[test]
fn fig7_style_report_is_placement_invariant() {
    let full_suite = functionbench_suite();
    let names: Vec<String> = full_suite.iter().map(|p| p.name.clone()).collect();
    let t = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 240,
            scale: 5.0,
            ..Default::default()
        },
    );
    let mut cfg = cluster_config();
    cfg.mem_scale = 512;
    cfg.node_mem_bytes = 192 << 20;
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.objective = Objective::LatencyTarget { alpha: 2.5 };
        m.idle_period = SimDuration::from_secs(2);
    }
    let reference = Platform::new(cfg.clone(), full_suite.clone()).run(&t);
    for owners in [1usize, 4, 12] {
        let mut c = cfg.clone();
        c.registry = RegistryPlacement::Distributed { owners };
        let outcome = Platform::new(c, full_suite.clone()).run(&t);
        assert_eq!(
            outcome.report, reference.report,
            "report diverged at {owners} owners"
        );
    }
    assert!(
        reference.report.sandboxes_deduped > 0,
        "run exercised no dedups; the invariance is vacuous"
    );
}

/// Fig 9-style: memory-budget Medes objective (the §7.3 sweep shape).
#[test]
fn fig9_style_report_is_placement_invariant() {
    let mut cfg = cluster_config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.objective = Objective::MemoryBudget {
            budget_bytes: 400e6,
        };
    }
    let t = trace(300, 23, 2.0);
    let reference = assert_placement_invariant(cfg, &t);
    assert!(reference.report.sandboxes_deduped > 0);
}

/// Chaos-style: a synthesized fault plan crashes nodes mid-run. The
/// distributed registry must re-demarcate ownership and still replay
/// the in-process report bit for bit, ending with zero dead-node
/// registry state.
#[test]
fn chaos_style_report_is_placement_invariant() {
    let mut cfg = cluster_config();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.objective = Objective::MemoryBudget {
            budget_bytes: 200e6,
        };
    }
    let duration = SimTime::from_secs(400);
    cfg.faults = FaultPlan::synthesize(0xFA17, cfg.nodes, duration, 4.0);
    assert!(!cfg.faults.crashes.is_empty(), "plan must crash nodes");
    let t = trace(400, 29, 2.0);
    let reference = assert_placement_invariant(cfg, &t);
    assert!(
        reference.report.node_crashes > 0,
        "no crash landed during the trace; the hygiene gate is vacuous"
    );
}
