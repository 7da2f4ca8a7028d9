//! The Medes platform: a discrete-event cluster simulation.
//!
//! [`Platform::run`] executes a [`Trace`] against a cluster of worker
//! nodes under one of three policies (fixed keep-alive, adaptive
//! keep-alive, Medes) and produces a [`RunReport`].
//!
//! ## Event flow
//!
//! * `Arrival` → dispatch: idle warm sandbox (warm start) → idle dedup
//!   sandbox (restore, §4.2) → cold start (spawn; in Catalyzer mode a
//!   snapshot restore) → wait queue when no memory can be freed.
//! * `ExecDone` → sandbox goes warm; keep-alive / idle-period timers are
//!   armed; queued requests drain.
//! * `IdleCheck` (Medes) → consult the §5 policy targets; demarcate a
//!   base sandbox if `D/B > T`, else run the dedup op (§4.1).
//! * `KeepAliveExpire` / `KeepDedupExpire` → purge idle sandboxes.
//! * `PolicyTick` → re-estimate per-function state, re-solve targets.
//!
//! Every timer event carries the sandbox's `epoch`; state transitions
//! bump the epoch, so stale timers are ignored — the standard DES
//! pattern for cancellable timeouts.

use crate::config::{PlatformConfig, PolicyKind, RegistryPlacement};
use crate::controller::{FunctionRuntime, QueuedRequest};
use crate::dedup::{
    dedup_commit, dedup_op, dedup_scan, index_base_sandbox, DedupOutcome, DedupScan, DedupTiming,
};
use crate::ids::{FnId, NodeId, SandboxId};
use crate::images::ImageFactory;
use crate::metrics::{FnDedupStats, MetricsCollector, RequestRecord, RunReport, StartType};
use crate::pagecache::BasePageCache;
use crate::registry::RegistryClient;
use crate::restore::{restore_op_cached, RestoreTiming};
use crate::sandbox::{Sandbox, SandboxState};
use medes_mem::MemoryImage;
use medes_net::Fabric;
use medes_obs::Obs;
use medes_policy::keepalive::KeepAlivePolicy;
use medes_policy::medes::{solve, Objective};
use medes_policy::{AdaptiveKeepAlive, FixedKeepAlive, MedesPolicyConfig};
use medes_sim::engine::Scheduler;
use medes_sim::fault::FaultSchedule;
use medes_sim::{DetRng, SimDuration, SimTime, Simulation, World};
use medes_trace::{FunctionProfile, Trace};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Retry cadence for requests parked in the wait queue.
const QUEUE_RETRY: SimDuration = SimDuration::from_millis(100);
/// A dedup op that saves less than this fraction of the image reverts
/// the sandbox to warm (not worth the restore cost).
const MIN_SAVING_FRAC: f64 = 0.05;

/// The platform: configuration + function catalog.
#[derive(Debug)]
pub struct Platform {
    cfg: PlatformConfig,
    profiles: Vec<FunctionProfile>,
}

impl Platform {
    /// Creates a platform.
    pub fn new(cfg: PlatformConfig, profiles: Vec<FunctionProfile>) -> Self {
        Platform { cfg, profiles }
    }

    /// Runs a trace to completion. Returns the metrics report together
    /// with the observability handle (buffered spans + metrics) as one
    /// [`RunOutcome`]. When the config has observability enabled with
    /// an export directory, the span trace is also written there as
    /// JSONL on completion.
    ///
    /// # Panics
    /// Panics if the trace's function table does not match the profile
    /// catalog, or if any function's footprint exceeds the per-node
    /// memory limit (such a function could never be scheduled and its
    /// requests would retry forever).
    pub fn run(&self, trace: &Trace) -> RunOutcome {
        let mut sim = self.simulation(trace);
        sim.run();
        let end = sim.now();
        let cluster = sim.into_world();
        let obs = Arc::clone(&cluster.obs);
        let report = cluster.finish(end);
        match obs.write_trace() {
            Ok(Some(path)) => eprintln!("[obs] wrote {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("warning: failed to write obs trace: {e}"),
        }
        let slo = obs.slo_summary();
        RunOutcome { report, obs, slo }
    }

    /// A fresh cluster with the trace's arrivals and every scheduled
    /// fault and deploy queued, ready to run.
    fn simulation(&self, trace: &Trace) -> Simulation<Cluster> {
        assert_eq!(
            trace.functions.len(),
            self.profiles.len(),
            "trace function table must match the profile catalog"
        );
        let min_node = self.cfg.min_node_mem();
        for p in &self.profiles {
            assert!(
                p.memory_bytes <= min_node,
                "function {} needs {} bytes but the smallest node only has {}",
                p.name,
                p.memory_bytes,
                min_node
            );
        }
        let horizon = trace.duration();
        let cluster = Cluster::new(self.cfg.clone(), self.profiles.clone(), horizon);
        let mut sim = Simulation::new(cluster);
        for inv in &trace.invocations {
            sim.schedule(
                inv.time(),
                Ev::Arrival {
                    id: inv.id,
                    func: inv.function,
                },
            );
        }
        if self.cfg.is_medes() {
            sim.schedule(SimTime::ZERO, Ev::PolicyTick);
        }
        if self.cfg.obs.enabled && self.cfg.obs.sample_every_ms > 0 {
            sim.schedule(SimTime::ZERO, Ev::SampleTick);
        }
        for c in &self.cfg.faults.crashes {
            sim.schedule(c.at, Ev::NodeCrash { node: c.node });
            if let Some(r) = c.restart {
                sim.schedule(r, Ev::NodeRestart { node: c.node });
            }
        }
        for b in &self.cfg.deploys.bumps {
            assert!(
                b.function < self.profiles.len(),
                "deploy bump targets function {} but the catalog has {}",
                b.function,
                self.profiles.len()
            );
            sim.schedule(
                b.at,
                Ev::VersionBump {
                    func: b.function,
                    version: b.version,
                },
            );
        }
        sim
    }
}

/// The full result of one [`Platform::run`]: the metrics report plus
/// the observability handle for inspecting buffered spans and metrics.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's metrics (deterministic; `PartialEq` for replay
    /// assertions).
    pub report: RunReport,
    /// The run's observability handle (spans, counters, histograms).
    pub obs: Arc<Obs>,
    /// Per-function SLO summaries (paper §5.2: startup latency against
    /// the `α · s_W` bound). Empty when observability is disabled.
    pub slo: Vec<medes_obs::FnSloSummary>,
}

/// A request travelling through dispatch.
#[derive(Debug, Clone, Copy)]
struct ReqInfo {
    id: u64,
    func: usize,
    arrival: SimTime,
}

/// Platform events.
enum Ev {
    Arrival {
        id: u64,
        func: usize,
    },
    SpawnDone {
        sb: SandboxId,
        req: ReqInfo,
    },
    RestoreDone {
        sb: SandboxId,
        req: ReqInfo,
        read_paper: usize,
    },
    ExecDone {
        sb: SandboxId,
        rec: RequestRecord,
    },
    IdleCheck {
        sb: SandboxId,
        epoch: u64,
    },
    KeepAliveExpire {
        sb: SandboxId,
        epoch: u64,
    },
    KeepDedupExpire {
        sb: SandboxId,
        epoch: u64,
    },
    DedupDone {
        sb: SandboxId,
        epoch: u64,
        outcome: Box<DedupOutcome>,
    },
    /// Batched dedup pipeline: drain the pending-dedup queue, fan the
    /// scans across the worker pool, commit in first-enqueued order.
    DedupFlush,
    PolicyTick,
    /// Deterministic time-series sampler: snapshot the declared
    /// gauge/counter set every [`medes_obs::ObsConfig::sample_every_ms`]
    /// *simulated* milliseconds. Strictly read-only against simulation
    /// state, so the `RunReport` is byte-identical whether sampling is
    /// on or off.
    SampleTick,
    RetryQueue {
        func: usize,
    },
    NodeCrash {
        node: usize,
    },
    NodeRestart {
        node: usize,
    },
    /// A rolling deploy reached this function: bump its deployed code
    /// version, purge stale idle sandboxes, and retire stale base
    /// registrations from the fingerprint registry.
    VersionBump {
        func: usize,
        version: u64,
    },
}

/// Per-node accounting.
#[derive(Debug, Default)]
struct NodeState {
    mem_used: usize,
    sandboxes: BTreeSet<SandboxId>,
    /// Crashed and not yet restarted: unschedulable, and RDMA reads
    /// against it fail (the fabric's fault schedule agrees).
    down: bool,
}

struct Cluster {
    cfg: PlatformConfig,
    factory: ImageFactory,
    fabric: Fabric,
    registry: RegistryClient,
    nodes: Vec<NodeState>,
    sandboxes: HashMap<SandboxId, Sandbox>,
    fns: Vec<FunctionRuntime>,
    /// Base-sandbox resolver data: id → (function, pinned image).
    bases: HashMap<SandboxId, (FnId, Arc<MemoryImage>)>,
    /// Per-node base-page caches for the restore read path. Present in
    /// every run (zero-capacity when disabled, where they are inert).
    caches: Vec<BasePageCache>,
    /// Deployed code version per function (rolling deploys bump these;
    /// all zero without a deploy schedule).
    fn_version: Vec<u64>,
    fixed_ka: Option<FixedKeepAlive>,
    adaptive_ka: Option<AdaptiveKeepAlive>,
    medes: Option<MedesPolicyConfig>,
    rng: DetRng,
    next_sandbox: u64,
    cluster_mem: usize,
    metrics: MetricsCollector,
    obs: Arc<Obs>,
    /// Don't re-arm periodic events past this instant.
    horizon: SimTime,
    /// Sandboxes queued for the batched dedup pipeline: `(id, epoch at
    /// enqueue)`, in enqueue order. Empty on the legacy serial path.
    pending_dedups: Vec<(SandboxId, u64)>,
    /// Whether a `DedupFlush` is already scheduled.
    flush_armed: bool,
}

impl Cluster {
    fn new(cfg: PlatformConfig, profiles: Vec<FunctionProfile>, horizon: SimTime) -> Self {
        let factory = ImageFactory::new(&profiles, cfg.content.clone(), cfg.aslr, cfg.mem_scale);
        let obs = Obs::new(cfg.obs.clone());
        let mut fabric = Fabric::with_obs(cfg.nodes, cfg.net.clone(), Arc::clone(&obs));
        if !cfg.faults.is_empty() {
            fabric.set_faults(FaultSchedule::compile(&cfg.faults));
        }
        let names: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
        let metrics =
            MetricsCollector::with_obs(names, SimDuration::from_secs(10), Arc::clone(&obs));
        let (fixed_ka, adaptive_ka, medes) = match &cfg.policy {
            PolicyKind::FixedKeepAlive(d) => (Some(FixedKeepAlive::new(*d)), None, None),
            PolicyKind::AdaptiveKeepAlive => (None, Some(AdaptiveKeepAlive::paper_default()), None),
            PolicyKind::Medes(m) => (None, None, Some(m.clone())),
        };
        let rng = DetRng::new(cfg.seed);
        Cluster {
            nodes: (0..cfg.nodes).map(|_| NodeState::default()).collect(),
            fn_version: vec![0; profiles.len()],
            fns: profiles.into_iter().map(FunctionRuntime::new).collect(),
            sandboxes: HashMap::new(),
            bases: HashMap::new(),
            caches: (0..cfg.nodes)
                .map(|n| {
                    BasePageCache::with_obs(
                        cfg.read_path.page_cache_bytes,
                        cfg.mem_scale,
                        Arc::clone(&obs),
                        n as u64,
                    )
                })
                .collect(),
            fixed_ka,
            adaptive_ka,
            medes,
            rng,
            next_sandbox: 0,
            cluster_mem: 0,
            metrics,
            horizon,
            factory,
            fabric,
            registry: match cfg.registry {
                RegistryPlacement::InProcess => {
                    RegistryClient::in_process(cfg.pipeline.shards, Arc::clone(&obs))
                }
                RegistryPlacement::Distributed { owners } => RegistryClient::distributed(
                    cfg.pipeline.shards,
                    owners,
                    cfg.nodes,
                    cfg.net.clone(),
                    cfg.retry,
                    Arc::clone(&obs),
                ),
            },
            obs,
            cfg,
            pending_dedups: Vec::new(),
            flush_armed: false,
        }
    }

    // ------------------------------------------------------------------
    // Memory accounting.
    // ------------------------------------------------------------------

    /// Adds `delta` bytes to `node`'s and the cluster's resident
    /// memory. Panics when either would leave `0..=usize::MAX`: that is
    /// an accounting bug (a release without its charge), never a state
    /// the simulation may continue from.
    fn charge(&mut self, now: SimTime, node: NodeId, delta: i64) {
        let delta = delta as isize;
        let n = &mut self.nodes[node.0];
        n.mem_used = n.mem_used.checked_add_signed(delta).unwrap_or_else(|| {
            panic!(
                "node {} mem_used {} + {delta} out of range",
                node.0, n.mem_used
            )
        });
        self.cluster_mem = self
            .cluster_mem
            .checked_add_signed(delta)
            .unwrap_or_else(|| {
                panic!(
                    "node {}: cluster_mem {} + {delta} out of range",
                    node.0, self.cluster_mem
                )
            });
        self.metrics.mem_update(now, self.cluster_mem as f64);
    }

    fn node_free(&self, node: NodeId) -> usize {
        self.cfg
            .node_mem(node.0)
            .saturating_sub(self.nodes[node.0].mem_used)
    }

    fn cache_enabled(&self) -> bool {
        self.cfg.read_path.page_cache_bytes > 0
    }

    /// Settles the node-memory charge after cache mutations: cached
    /// base pages are real resident bytes and are charged like any
    /// other sandbox state. No-op (and no metrics traffic) when the
    /// cache usage did not change.
    fn reconcile_cache_charge(&mut self, now: SimTime, node: NodeId, before: usize) {
        let after = self.caches[node.0].used_paper_bytes();
        if after != before {
            self.charge(now, node, after as i64 - before as i64);
        }
    }

    /// Drops a dead base's pages from every node cache: once a base
    /// sandbox is purged (eviction or crash) its pages must never be
    /// served from cache again.
    fn invalidate_cached_base(&mut self, now: SimTime, base: SandboxId) {
        if !self.cache_enabled() {
            return;
        }
        for i in 0..self.caches.len() {
            let before = self.caches[i].used_paper_bytes();
            self.caches[i].invalidate_sandbox(base);
            self.reconcile_cache_charge(now, NodeId(i), before);
        }
    }

    /// Ensures `needed` free bytes on a node by evicting idle sandboxes
    /// (LRU; base sandboxes only when unreferenced, and last).
    /// `exclude` protects a sandbox the caller is about to use (e.g. the
    /// dedup sandbox being restored) from being evicted to make its own
    /// room.
    fn ensure_capacity(
        &mut self,
        now: SimTime,
        node: NodeId,
        needed: usize,
        exclude: Option<SandboxId>,
    ) -> bool {
        if self.node_free(node) >= needed {
            return true;
        }
        // Shed cache memory first: cached base pages are strictly less
        // valuable than live sandboxes (they can always be re-fetched).
        if self.cache_enabled() {
            let shortfall = needed - self.node_free(node);
            let before = self.caches[node.0].used_paper_bytes();
            self.caches[node.0].trim(shortfall);
            self.reconcile_cache_charge(now, node, before);
            if self.node_free(node) >= needed {
                return true;
            }
        }
        // Gather idle candidates on this node, LRU first. Ordering:
        // idle *warm* sandboxes are evicted before *dedup* sandboxes —
        // a dedup sandbox holds a fraction of the memory and is the
        // insurance Medes paid for — and base sandboxes go last.
        let mut candidates: Vec<(u8, SimTime, SandboxId)> = self.nodes[node.0]
            .sandboxes
            .iter()
            .filter_map(|&id| {
                if Some(id) == exclude {
                    return None;
                }
                let sb = &self.sandboxes[&id];
                if !sb.state.assignable() {
                    return None; // busy (running/restoring/deduping/spawning)
                }
                if sb.is_base && sb.refcount > 0 {
                    return None; // pinned by dedup sandboxes
                }
                let class = if sb.is_base {
                    2
                } else if sb.state == SandboxState::Dedup {
                    1
                } else {
                    0
                };
                Some((class, sb.last_used, id))
            })
            .collect();
        candidates.sort_unstable();
        for (_, _, id) in candidates {
            if self.node_free(node) >= needed {
                break;
            }
            self.purge_sandbox(now, id);
            self.metrics.push_eviction();
        }
        self.node_free(node) >= needed
    }

    // ------------------------------------------------------------------
    // Sandbox bookkeeping.
    // ------------------------------------------------------------------

    fn live_count(&self) -> usize {
        self.sandboxes.len()
    }

    /// One deterministic time-series sample at simulated time `now`:
    /// per-node memory, page-cache hit rate, registry per-shard
    /// occupancy, live sandboxes, dedup batch depth, SLO violations,
    /// plus a snapshot of every registered counter/gauge. Strictly
    /// read-only against simulation state — it must never perturb the
    /// `RunReport` (the obs-overhead experiment pins this).
    fn sample_tick(&self, now: SimTime) {
        for (i, n) in self.nodes.iter().enumerate() {
            self.obs
                .series_point(&format!("medes.node.{i}.mem_bytes"), now, n.mem_used as f64);
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for c in &self.caches {
            let s = c.stats();
            hits += s.hits;
            misses += s.misses;
        }
        let rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        self.obs.series_point("medes.cache.hit_rate", now, rate);
        self.obs
            .series_point("medes.dedup.pending", now, self.pending_dedups.len() as f64);
        // Live sandboxes, SLO violations, and per-shard registry
        // occupancy are already registry gauges (kept current by the
        // metrics and registry layers), so the registry snapshot below
        // covers them — pointing them explicitly too would write two
        // samples at the same timestamp.
        self.obs.series_sample(now);
    }

    /// Purges a sandbox completely (eviction or expiry).
    fn purge_sandbox(&mut self, now: SimTime, id: SandboxId) {
        let Some(sb) = self.sandboxes.remove(&id) else {
            return;
        };
        debug_assert!(sb.state.assignable(), "only idle sandboxes are purged");
        let rt = &mut self.fns[sb.func.0];
        rt.idle_warm.remove(&(sb.last_used, id));
        rt.idle_dedup.remove(&(sb.last_used, id));
        rt.total_sandboxes -= 1;
        if sb.state == SandboxState::Dedup {
            rt.dedup_total -= 1;
        }
        self.nodes[sb.node.0].sandboxes.remove(&id);
        self.charge(now, sb.node, -(sb.mem_paper_bytes as i64));
        // Release base references held by the dedup table.
        if let Some(table) = &sb.dedup_table {
            self.release_base_refs(table);
        }
        if sb.is_base {
            debug_assert_eq!(sb.refcount, 0, "purging a referenced base");
            self.registry.remove_sandbox(id);
            self.factory.unpin_v(sb.func, sb.instance_seed, sb.version);
            self.bases.remove(&id);
            self.fns[sb.func.0].bases.retain(|&b| b != id);
            self.invalidate_cached_base(now, id);
        }
        self.metrics.live_update(now, self.live_count() as f64);
    }

    fn release_base_refs(&mut self, table: &crate::sandbox::DedupPageTable) {
        let mut seen: HashSet<SandboxId> = HashSet::new();
        for entry in &table.entries {
            if let crate::sandbox::PageEntry::Patched { base_sandbox, .. } = entry {
                if seen.insert(*base_sandbox) {
                    if let Some(sb) = self.sandboxes.get_mut(base_sandbox) {
                        sb.refcount = sb.refcount.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// Promotes a warm sandbox to a base: pins its image, indexes every
    /// page in the registry, and registers it with its function. The
    /// sandbox stays warm (and stays in the idle-warm pool).
    fn demarcate_base(&mut self, id: SandboxId) {
        let (func, seed, node, version) = {
            let sb = &self.sandboxes[&id];
            (sb.func, sb.instance_seed, sb.node, sb.version)
        };
        let img = self.factory.pin_v(func, seed, version);
        index_base_sandbox(&self.cfg, &self.registry, node, id, &img);
        self.obs.incr("medes.platform.base_demarcations");
        self.bases.insert(id, (func, img));
        self.fns[func.0].bases.push(id);
        self.sandboxes.get_mut(&id).expect("exists").is_base = true;
    }

    /// After a crash removed base sandboxes, promotes MRU idle warm
    /// sandboxes until `D/B ≤ T` holds again for this function (or no
    /// candidates remain — orphaned dedup sandboxes then fall back to
    /// cold starts when dispatched).
    fn re_demarcate(&mut self, f: usize) {
        let Some(medes) = self.medes.clone() else {
            return;
        };
        while self.fns[f].dedup_total > 0 && self.fns[f].needs_base(medes.base_threshold) {
            let cand = self.fns[f]
                .idle_warm
                .iter()
                .rev()
                .map(|&(_, id)| id)
                .find(|id| !self.sandboxes[id].is_base);
            let Some(id) = cand else {
                break;
            };
            self.demarcate_base(id);
            self.obs.incr("medes.platform.re_demarcations");
        }
    }

    /// Re-dispatches a request whose sandbox vanished in a crash.
    fn reschedule(&mut self, req: ReqInfo, sched: &mut Scheduler<Ev>) {
        self.metrics.report.rescheduled_requests += 1;
        self.obs.incr("medes.platform.rescheduled");
        self.dispatch(req, sched);
    }

    /// Handles a node crash: marks it down, purges every resident
    /// sandbox (any state), drops the dead node's registry chunks, and
    /// re-demarcates bases for the affected functions.
    fn node_crash(&mut self, now: SimTime, node: usize) {
        if node >= self.nodes.len() || self.nodes[node].down {
            return;
        }
        self.nodes[node].down = true;
        self.metrics.report.node_crashes += 1;
        self.obs.incr("medes.platform.node_crashes");
        let victims: Vec<SandboxId> = self.nodes[node].sandboxes.iter().copied().collect();
        let mut affected: Vec<usize> = Vec::new();
        for id in victims {
            if let Some(f) = self.crash_purge(now, id) {
                if !affected.contains(&f) {
                    affected.push(f);
                }
            }
        }
        debug_assert_eq!(
            self.registry.locs_on_node(NodeId(node)),
            0,
            "crash purge must drop every registry chunk on the dead node"
        );
        // Shard ownership survives the crash: a distributed registry
        // purges the dead owner's shard copies, re-demarcates them to
        // survivors, and re-replicates the recoverable entries (their
        // bases live on surviving nodes — the dead node's bases were
        // just purged above). An in-process registry owns nothing here.
        let recovery = self.registry.on_node_crash(NodeId(node));
        debug_assert_eq!(
            self.registry.entries_owned_by(NodeId(node)),
            0,
            "re-demarcation must leave no shard owned by the dead node"
        );
        if recovery.reassigned_shards > 0 {
            self.obs.incr("medes.platform.registry_reassignments");
        }
        // The dead node's own cache dies with it (its memory is gone);
        // entries for its bases were already invalidated cluster-wide
        // by the crash purges above.
        if self.cache_enabled() {
            let before = self.caches[node].used_paper_bytes();
            self.caches[node].clear();
            self.reconcile_cache_charge(now, NodeId(node), before);
        }
        for f in affected {
            self.re_demarcate(f);
        }
    }

    /// Removes a sandbox in ANY state because its node crashed. Unlike
    /// [`Cluster::purge_sandbox`] this also tears down referenced
    /// bases: surviving dedup sandboxes that point at them will fail
    /// their restore and fall back to a cold start (§5.3). Returns the
    /// sandbox's function for re-demarcation.
    fn crash_purge(&mut self, now: SimTime, id: SandboxId) -> Option<usize> {
        let sb = self.sandboxes.remove(&id)?;
        let f = sb.func.0;
        let rt = &mut self.fns[f];
        rt.idle_warm.remove(&(sb.last_used, id));
        rt.idle_dedup.remove(&(sb.last_used, id));
        rt.total_sandboxes -= 1;
        // A Restoring sandbox left the idle-dedup pool but its
        // dedup_total decrement only happens at RestoreDone — which will
        // now never fire for it.
        if matches!(sb.state, SandboxState::Dedup | SandboxState::Restoring) {
            rt.dedup_total -= 1;
        }
        self.nodes[sb.node.0].sandboxes.remove(&id);
        self.charge(now, sb.node, -(sb.mem_paper_bytes as i64));
        if let Some(table) = &sb.dedup_table {
            self.release_base_refs(table);
        }
        if sb.is_base {
            // Even a referenced base dies with its node; dependants
            // discover the loss when their restore fails.
            self.registry.remove_sandbox(id);
            self.factory.unpin_v(sb.func, sb.instance_seed, sb.version);
            self.bases.remove(&id);
            self.fns[f].bases.retain(|&b| b != id);
            self.invalidate_cached_base(now, id);
        }
        self.metrics.live_update(now, self.live_count() as f64);
        Some(f)
    }

    /// Applies a rolling-deploy version bump to one function: records
    /// the new deployed version (new cold starts pick it up), purges
    /// every *idle* stale-version sandbox outright, and retires the
    /// registry/base registrations of stale bases that cannot be purged
    /// yet (referenced by in-flight dedup tables, or busy serving a
    /// request) — their pages hold old-version content and must never
    /// match a new dedup scan. Busy non-base sandboxes are caught at
    /// `ExecDone`/`DedupDone` via the stale-version check.
    fn version_bump(&mut self, now: SimTime, f: usize, version: u64) {
        if f >= self.fns.len() || version <= self.fn_version[f] {
            return; // out-of-order or duplicate bump: ignore
        }
        self.fn_version[f] = version;
        self.metrics.report.version_bumps += 1;
        self.obs.incr("medes.platform.version_bumps");
        // Idle sandboxes (warm and dedup pools) die immediately — their
        // content is obsolete. Referenced bases are excluded: they are
        // retired below and die when their refcount drains.
        let stale: Vec<SandboxId> = self.fns[f]
            .idle_warm
            .iter()
            .chain(self.fns[f].idle_dedup.iter())
            .map(|&(_, id)| id)
            .filter(|id| {
                let sb = &self.sandboxes[id];
                sb.version < version && !(sb.is_base && sb.refcount > 0)
            })
            .collect();
        for id in stale {
            self.purge_sandbox(now, id);
            self.metrics.report.version_purges += 1;
            self.obs.incr("medes.platform.version_purges");
        }
        // Retire stale bases that survived (referenced or busy): drop
        // their pages from the registry, the demarcation list, and the
        // read caches so no *new* dedup can match old-version content.
        // In-flight restores still resolve through `self.bases`.
        let retired: Vec<SandboxId> = self.fns[f]
            .bases
            .iter()
            .copied()
            .filter(|id| {
                self.sandboxes
                    .get(id)
                    .is_some_and(|sb| sb.version < version)
            })
            .collect();
        for id in retired {
            self.registry.remove_sandbox(id);
            self.fns[f].bases.retain(|&b| b != id);
            self.invalidate_cached_base(now, id);
            self.metrics.report.version_purges += 1;
            self.obs.incr("medes.platform.version_purges");
        }
        // Only deployed versions and those of live sandboxes are ever
        // built again: drop every other version's tile templates.
        let live: BTreeSet<u64> = self
            .fn_version
            .iter()
            .copied()
            .chain(self.sandboxes.values().map(|sb| sb.version))
            .collect();
        self.factory.retain_template_versions(|v| live.contains(&v));
    }

    /// The §5.2 SLO bound for one function: `α · s_W` microseconds
    /// under the Medes latency-target objective (P1 promises average
    /// startup latency stays within `α` of a warm start), 0 — no bound
    /// — under memory-budget objectives and non-Medes policies.
    fn slo_bound_us(&self, func: usize) -> u64 {
        match &self.medes {
            Some(m) => match m.objective {
                Objective::LatencyTarget { alpha } => {
                    (alpha * self.fns[func].profile.warm_start().as_micros() as f64) as u64
                }
                Objective::MemoryBudget { .. } => 0,
            },
            None => 0,
        }
    }

    fn keep_alive_window(&self, func: usize) -> SimDuration {
        if let Some(f) = &self.fixed_ka {
            f.keep_alive(func)
        } else if let Some(a) = &self.adaptive_ka {
            a.keep_alive(func)
        } else {
            self.medes
                .as_ref()
                .map(|m| m.keep_alive)
                .unwrap_or(SimDuration::from_mins(10))
        }
    }

    fn sample_exec(&mut self, func: usize) -> SimDuration {
        let p = &self.fns[func].profile;
        let mean = p.exec_time().as_secs_f64();
        let cv = p.exec_cv.max(0.0);
        if cv < 1e-9 {
            return p.exec_time();
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        SimDuration::from_secs_f64(self.rng.log_normal(mu, sigma2.sqrt()))
    }

    // ------------------------------------------------------------------
    // Dispatch.
    // ------------------------------------------------------------------

    fn dispatch(&mut self, req: ReqInfo, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let f = req.func;

        // 1. Warm start: most recently used idle warm sandbox.
        if let Some(&(lu, id)) = self.fns[f].idle_warm.iter().next_back() {
            self.fns[f].idle_warm.remove(&(lu, id));
            let warm = self.fns[f].profile.warm_start();
            let exec = self.sample_exec(f);
            let sb = self.sandboxes.get_mut(&id).expect("idle sandbox exists");
            sb.transition(SandboxState::Running);
            let startup = now.since(req.arrival) + warm;
            let rec = RequestRecord {
                id: req.id,
                func: f,
                arrival_us: req.arrival.as_micros(),
                startup_us: startup.as_micros(),
                exec_us: exec.as_micros(),
                e2e_us: 0, // finalized at ExecDone
                start: StartType::Warm,
            };
            sched.after(warm + exec, Ev::ExecDone { sb: id, rec });
            return;
        }

        // 2. Dedup start: restore the most recently used dedup sandbox.
        if let Some(&(lu, id)) = self.fns[f].idle_dedup.iter().next_back() {
            let (node, cur_mem) = {
                let sb = &self.sandboxes[&id];
                (sb.node, sb.mem_paper_bytes)
            };
            let m_w = self.fns[f].profile.memory_bytes;
            // Base pages are read and patched page-by-page, so the
            // transient read volume (m_R) never needs to be resident at
            // once; the restore only needs the final warm footprint.
            let needed = m_w.saturating_sub(cur_mem);
            if self.ensure_capacity(now, node, needed, Some(id)) {
                self.fns[f].idle_dedup.remove(&(lu, id));
                // Run the restore op against pinned base images.
                let table = self.sandboxes[&id].dedup_table.clone_for_restore();
                let verify = if self.cfg.verify_restores {
                    let sb = &self.sandboxes[&id];
                    Some(self.factory.image_v(sb.func, sb.instance_seed, sb.version))
                } else {
                    None
                };
                let cache_on = self.cache_enabled();
                let cache_before = self.caches[node.0].used_paper_bytes();
                // The request's trace root is a pure function of
                // (seed, request id), so the identical context is
                // re-minted at ExecDone for the request span — no
                // state threading through events. Fabric retries
                // during the base read parent under the base-read
                // phase span the op will emit afterwards.
                let root = self.obs.trace_root("request", self.cfg.seed, req.id);
                let op_ctx = RestoreTiming::op_ctx(root);
                let restored = {
                    let mut fabric = self.fabric.with_ctx(RestoreTiming::base_read_ctx(op_ctx));
                    let bases = &self.bases;
                    let cache = if cache_on {
                        Some(&mut self.caches[node.0])
                    } else {
                        None
                    };
                    restore_op_cached(
                        &self.cfg,
                        &mut fabric,
                        node,
                        table.as_ref().expect("dedup sandbox has a table"),
                        &|bid| bases.get(&bid).map(|(f, img)| (Arc::clone(img), *f)),
                        cache,
                        verify.as_deref(),
                    )
                };
                if cache_on {
                    // Charge freshly cached pages to node memory, and
                    // trim the cache back if that pushed the node over
                    // its limit (cached pages are expendable).
                    self.reconcile_cache_charge(now, node, cache_before);
                    let over = self.nodes[node.0]
                        .mem_used
                        .saturating_sub(self.cfg.node_mem(node.0));
                    if over > 0 {
                        let before = self.caches[node.0].used_paper_bytes();
                        self.caches[node.0].trim(over);
                        self.reconcile_cache_charge(now, node, before);
                    }
                }
                match restored {
                    Ok(outcome) => {
                        outcome.timing.record(
                            &self.obs,
                            now,
                            &self.fns[f].profile.name,
                            root,
                            node.0,
                        );
                        if self.cfg.read_path.active() && self.obs.enabled() {
                            // The cache span covers the base-read phase
                            // it accelerates, and sits under it in the
                            // trace tree.
                            let base_read = RestoreTiming::base_read_ctx(op_ctx);
                            self.obs
                                .span_in(
                                    "medes.restore.cache",
                                    now,
                                    base_read.child("medes.restore.cache", 0),
                                )
                                .attr("hits", outcome.cache_hits)
                                .attr("misses", outcome.cache_misses)
                                .end(now + outcome.timing.base_read);
                        }
                        let sb = self.sandboxes.get_mut(&id).expect("sandbox exists");
                        sb.transition(SandboxState::Restoring);
                        let grow = m_w as i64 - cur_mem as i64;
                        self.charge(now, node, grow.max(0));
                        let sbm = self.sandboxes.get_mut(&id).expect("sandbox exists");
                        sbm.mem_paper_bytes = cur_mem.max(m_w);
                        sched.after(
                            outcome.timing.total(),
                            Ev::RestoreDone {
                                sb: id,
                                req,
                                read_paper: outcome.read_paper_bytes,
                            },
                        );
                        // Record the Fig 8 breakdown.
                        let stats = &mut self.metrics.report.dedup_stats[f];
                        stats.restores += 1;
                        let n = stats.restores;
                        FnDedupStats::fold(
                            &mut stats.mean_restore_us.0,
                            n,
                            outcome.timing.base_read.as_micros() as f64,
                        );
                        FnDedupStats::fold(
                            &mut stats.mean_restore_us.1,
                            n,
                            outcome.timing.page_compute.as_micros() as f64,
                        );
                        FnDedupStats::fold(
                            &mut stats.mean_restore_us.2,
                            n,
                            outcome.timing.ckpt_restore.as_micros() as f64,
                        );
                        self.fns[f].record_dedup_start(outcome.timing.total());
                        self.fns[f].record_restore_reads(outcome.read_paper_bytes);
                        return;
                    }
                    Err(err) => {
                        // The base pages are unreachable (crashed base
                        // node, or reads broken past the retry policy):
                        // §5.3 — discard the dedup sandbox and fall back
                        // to a cold start. Impossible without faults.
                        debug_assert!(
                            !self.cfg.faults.is_empty(),
                            "restore failed without fault injection: {err}"
                        );
                        let _ = &err;
                        self.metrics.report.fallback_cold_starts += 1;
                        self.obs.incr("medes.platform.starts.fallback_cold");
                        self.purge_sandbox(now, id);
                        // Fall through to the cold path below.
                    }
                }
            }
            // No room to restore (or the restore failed): fall through to
            // the cold path, which may evict this very dedup sandbox if
            // that's what it takes.
        }

        // 3. Cold start.
        let m_w = self.fns[f].profile.memory_bytes;
        let node = self.pick_node(now, m_w);
        let Some(node) = node else {
            // 4. No capacity anywhere: park in the wait queue. Exactly
            // one retry chain per function keeps the event count linear.
            self.fns[f].wait_queue.push_back(QueuedRequest {
                id: req.id,
                arrival: req.arrival,
            });
            self.obs.incr("medes.platform.queued");
            if !self.fns[f].retry_armed {
                self.fns[f].retry_armed = true;
                sched.after(QUEUE_RETRY, Ev::RetryQueue { func: f });
            }
            return;
        };
        let id = SandboxId(self.next_sandbox);
        self.next_sandbox += 1;
        let instance_seed = self.rng.next_u64();
        let model_pages = self.factory.model_pages(FnId(f));
        let sb = Sandbox::new(id, FnId(f), node, instance_seed, now, m_w, model_pages)
            .with_version(self.fn_version[f]);
        self.sandboxes.insert(id, sb);
        self.nodes[node.0].sandboxes.insert(id);
        self.fns[f].total_sandboxes += 1;
        self.charge(now, node, m_w as i64);
        self.metrics.report.sandboxes_spawned += 1;
        self.metrics.live_update(now, self.live_count() as f64);
        let spawn_time = if self.cfg.catalyzer_mode {
            self.cfg.catalyzer_restore
        } else {
            self.fns[f].profile.cold_start()
        };
        sched.after(spawn_time, Ev::SpawnDone { sb: id, req });
    }

    /// Picks the node with the most free memory that can (be made to)
    /// fit `bytes`; evicts idle sandboxes if necessary.
    fn pick_node(&mut self, now: SimTime, bytes: usize) -> Option<NodeId> {
        let mut order: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].down)
            .collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(self.node_free(NodeId(i))));
        for i in &order {
            if self.node_free(NodeId(*i)) >= bytes {
                return Some(NodeId(*i));
            }
        }
        // Nothing fits outright: try eviction, most-free node first.
        for i in order {
            if self.ensure_capacity(now, NodeId(i), bytes, None) {
                return Some(NodeId(i));
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Medes: dedup decision at idle-period expiry.
    // ------------------------------------------------------------------

    /// Returns a sandbox whose dedup did not commit to the warm pool:
    /// `Warm` with `last_used = now`, a fresh keep-alive expiry, and
    /// another idle check if one still fits inside the horizon.
    fn rewarm(&mut self, now: SimTime, id: SandboxId, sched: &mut Scheduler<Ev>) {
        let (idle_period, keep_alive) = {
            let m = self.medes.as_ref().expect("dedup requires Medes policy");
            (m.idle_period, m.keep_alive)
        };
        let sb = self.sandboxes.get_mut(&id).expect("exists");
        sb.transition(SandboxState::Warm);
        sb.last_used = now;
        let (epoch, f) = (sb.epoch, sb.func.0);
        self.fns[f].idle_warm.insert((now, id));
        sched.after(
            self.keep_alive_window(f),
            Ev::KeepAliveExpire { sb: id, epoch },
        );
        if now + idle_period <= self.horizon + keep_alive {
            sched.after(idle_period, Ev::IdleCheck { sb: id, epoch });
        }
    }

    /// Trace-root key for one dedup op: a deterministic mix of the
    /// sandbox id and the initiation instant (a sandbox can dedup more
    /// than once, so the id alone would merge distinct ops' traces).
    fn dedup_trace_key(&self, id: SandboxId, now: SimTime) -> u64 {
        (id.0 ^ 0xD6E8_FEB8_6659_FD93).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ now.as_micros()
    }

    fn idle_check(&mut self, id: SandboxId, epoch: u64, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(medes) = self.medes.clone() else {
            return;
        };
        let Some(sb) = self.sandboxes.get(&id) else {
            return;
        };
        if sb.epoch != epoch || sb.state != SandboxState::Warm {
            return;
        }
        if now.since(sb.last_used) < medes.idle_period {
            sched.at(
                sb.last_used + medes.idle_period,
                Ev::IdleCheck { sb: id, epoch },
            );
            return;
        }
        let f = sb.func.0;

        // Base demarcation has priority: the first dedup-eligible
        // sandbox (or one per T dedups) becomes a base instead.
        if !sb.is_base && self.fns[f].needs_base(medes.base_threshold) {
            self.demarcate_base(id);
            // A base stays warm; keep-alive keeps re-arming while it is
            // referenced. Nothing more to do now.
            return;
        }

        // Dedup when below the policy's target, when the LP was
        // infeasible (aggressive mode), or under memory pressure — the
        // paper's policy "keeps the sandboxes warm only if enough memory
        // is available" (§5.2.3); the per-node limit is a policy input
        // (§7.2).
        let rt = &self.fns[f];
        let capacity = self.cfg.cluster_mem_bytes();
        let pressure = self.cluster_mem as f64 > 0.90 * capacity as f64;
        let want_dedup = rt.dedup_total < rt.target.target_dedup || !rt.target.feasible || pressure;
        if !want_dedup || sb.is_base {
            // Stay warm; re-evaluate after another idle period.
            if now + medes.idle_period <= self.horizon + medes.keep_alive {
                sched.after(medes.idle_period, Ev::IdleCheck { sb: id, epoch });
            }
            return;
        }

        // Run the dedup op.
        let (func, seed, node, version) = {
            let sb = self.sandboxes.get_mut(&id).expect("exists");
            let info = (sb.func, sb.instance_seed, sb.node, sb.version);
            sb.transition(SandboxState::Deduping);
            info
        };
        {
            let sb = &self.sandboxes[&id];
            let rt = &mut self.fns[f];
            rt.idle_warm.remove(&(sb.last_used, id));
        }
        if self.cfg.pipeline.enabled() {
            // Batched pipeline: queue the sandbox (it is already in
            // `Deduping`, so dispatch cannot reclaim it) and make sure a
            // flush is scheduled. The scan runs at flush time on the
            // worker pool; outcomes commit in this enqueue order.
            let epoch = self.sandboxes[&id].epoch;
            self.pending_dedups.push((id, epoch));
            if !self.flush_armed {
                self.flush_armed = true;
                sched.after(self.cfg.pipeline.flush_interval, Ev::DedupFlush);
            }
            return;
        }
        let image = self.factory.image_v(func, seed, version);
        // A sandbox can dedup more than once over its life, so the
        // dedup trace root is keyed by (sandbox id, initiation time) —
        // both deterministic, so replays mint identical trees.
        let droot = self
            .obs
            .trace_root("dedup", self.cfg.seed, self.dedup_trace_key(id, now));
        let result = {
            let mut fabric = self.fabric.with_ctx(DedupTiming::op_ctx(droot));
            let bases = &self.bases;
            dedup_op(
                &self.cfg,
                &self.registry,
                &mut fabric,
                node,
                func,
                &image,
                &|bid| bases.get(&bid).map(|(bf, img)| (Arc::clone(img), *bf)),
            )
        };
        let outcome = match result {
            Ok(o) => o,
            Err(_) => {
                // Fault-injected failure (controller RPC or base reads
                // stayed broken past the retry policy): abort the dedup
                // and keep the sandbox warm — it will be reconsidered
                // after another idle period.
                debug_assert!(!self.cfg.faults.is_empty());
                self.obs.incr("medes.platform.dedup_aborts");
                self.rewarm(now, id, sched);
                return;
            }
        };
        outcome.timing.record(
            &self.obs,
            now,
            &self.fns[f].profile.name,
            self.cfg.to_paper_bytes(image.total_bytes()),
            droot,
            node.0,
        );
        // Pin the referenced bases *now*: the dedup table already points
        // into them, and they must survive until DedupDone commits (or
        // reverts) the state.
        for base in &outcome.referenced_bases {
            if let Some(b) = self.sandboxes.get_mut(base) {
                b.refcount += 1;
            }
        }
        let epoch = self.sandboxes[&id].epoch;
        sched.after(
            outcome.timing.total(),
            Ev::DedupDone {
                sb: id,
                epoch,
                outcome: Box::new(outcome),
            },
        );
    }

    /// Drains the pending-dedup queue: validates entries (crash purges
    /// and epoch bumps invalidate stale ones), fans the pure compute
    /// phase ([`dedup_scan`]) across a `std::thread::scope` worker
    /// pool, then commits each outcome **serially in first-enqueued
    /// order**. The commit phase is the only part that touches the
    /// fabric — whose fault schedule consumes RNG per operation — so
    /// the event stream, and with it `RunReport`, is bit-identical at
    /// any worker count (DESIGN.md §10).
    fn dedup_flush(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.flush_armed = false;
        if self.pending_dedups.is_empty() || self.medes.is_none() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_dedups);
        struct BatchItem {
            id: SandboxId,
            func: FnId,
            node: NodeId,
            image: Arc<MemoryImage>,
        }
        let mut items: Vec<BatchItem> = Vec::with_capacity(pending.len());
        for (id, epoch) in pending {
            let Some(sb) = self.sandboxes.get(&id) else {
                continue; // crash-purged while queued
            };
            if sb.epoch != epoch || sb.state != SandboxState::Deduping {
                continue;
            }
            items.push(BatchItem {
                id,
                func: sb.func,
                node: sb.node,
                image: self.factory.image_v(sb.func, sb.instance_seed, sb.version),
            });
        }
        if items.is_empty() {
            return;
        }

        // Parallel compute phase. Static contiguous chunking into
        // disjoint output slots: no locks, no unsafe, and the result
        // vector is in enqueue order regardless of which worker ran
        // which chunk. All captures are shared borrows — the registry
        // takes shard read locks internally.
        let cfg = &self.cfg;
        let registry = &self.registry;
        let bases = &self.bases;
        let resolve = |bid: SandboxId| bases.get(&bid).map(|(bf, img)| (Arc::clone(img), *bf));
        let resolve = &resolve;
        let workers = cfg.pipeline.workers.min(items.len()).max(1);
        let wall_start = std::time::Instant::now();
        let mut scans: Vec<Option<DedupScan>> = Vec::new();
        if workers <= 1 {
            for it in &items {
                scans.push(Some(dedup_scan(
                    cfg, registry, it.node, it.func, &it.image, resolve,
                )));
            }
        } else {
            scans.resize_with(items.len(), || None);
            let chunk = items.len().div_ceil(workers);
            std::thread::scope(|s| {
                for (inp, out) in items.chunks(chunk).zip(scans.chunks_mut(chunk)) {
                    s.spawn(move || {
                        for (it, slot) in inp.iter().zip(out.iter_mut()) {
                            *slot = Some(dedup_scan(
                                cfg, registry, it.node, it.func, &it.image, resolve,
                            ));
                        }
                    });
                }
            });
        }
        let wall_us = wall_start.elapsed().as_micros() as u64;

        self.metrics.report.dedup_batches += 1;
        self.metrics.report.dedup_batch_peak =
            self.metrics.report.dedup_batch_peak.max(items.len() as u64);
        if self.obs.enabled() {
            self.obs
                .span("medes.dedup.batch", now)
                .attr("size", items.len().to_string())
                .attr("workers", workers.to_string())
                .attr("shards", self.registry.shard_count().to_string())
                .end(now);
            self.obs.incr("medes.dedup.batches");
            self.obs
                .record("medes.dedup.batch_size", items.len() as u64);
            // Host wall time of the compute phase — deliberately an obs
            // counter, never a RunReport field, so report equality
            // across worker counts is unaffected.
            self.obs.counter_add("medes.dedup.batch_wall_us", wall_us);
        }

        // Serial merge in first-enqueued order: fabric accounting,
        // base-image pinning, DedupDone scheduling.
        for (item, scan) in items.into_iter().zip(scans) {
            let scan = scan.expect("every batch slot is filled");
            let f = item.func.0;
            let droot =
                self.obs
                    .trace_root("dedup", self.cfg.seed, self.dedup_trace_key(item.id, now));
            let committed = {
                let mut fabric = self.fabric.with_ctx(DedupTiming::op_ctx(droot));
                dedup_commit(&self.cfg, &mut fabric, item.node, scan)
            };
            match committed {
                Ok(outcome) => {
                    outcome.timing.record(
                        &self.obs,
                        now,
                        &self.fns[f].profile.name,
                        self.cfg.to_paper_bytes(item.image.total_bytes()),
                        droot,
                        item.node.0,
                    );
                    // Pin the referenced bases *now*: the dedup table
                    // already points into them, and they must survive
                    // until DedupDone commits (or reverts) the state.
                    for base in &outcome.referenced_bases {
                        if let Some(b) = self.sandboxes.get_mut(base) {
                            b.refcount += 1;
                        }
                    }
                    let epoch = self.sandboxes[&item.id].epoch;
                    sched.after(
                        outcome.timing.total(),
                        Ev::DedupDone {
                            sb: item.id,
                            epoch,
                            outcome: Box::new(outcome),
                        },
                    );
                }
                Err(_) => {
                    // Same abort path as the serial dedup: keep the
                    // sandbox warm and reconsider after an idle period.
                    debug_assert!(!self.cfg.faults.is_empty());
                    self.obs.incr("medes.platform.dedup_aborts");
                    self.rewarm(now, item.id, sched);
                }
            }
        }
    }

    fn dedup_done(
        &mut self,
        id: SandboxId,
        epoch: u64,
        outcome: DedupOutcome,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        let Some(sb) = self.sandboxes.get(&id) else {
            // Crash-purged mid-dedup: drop the base pins taken at
            // initiation (the table was never attached to the sandbox).
            self.release_base_refs(&outcome.table);
            return;
        };
        if sb.epoch != epoch || sb.state != SandboxState::Deduping {
            return;
        }
        let f = sb.func.0;
        let node = sb.node;
        let full_model = outcome.table.entries.len() * medes_mem::PAGE_SIZE;
        let saved = outcome.saved_model_bytes();
        let medes = self.medes.clone().expect("dedup requires Medes policy");

        if sb.version < self.fn_version[f] {
            // A rolling deploy superseded this sandbox mid-dedup: drop
            // the outcome, release the base pins taken at initiation,
            // and purge instead of committing obsolete content.
            self.release_base_refs(&outcome.table);
            let sb = self.sandboxes.get_mut(&id).expect("exists");
            sb.transition(SandboxState::Warm);
            sb.last_used = now;
            self.purge_sandbox(now, id);
            self.metrics.report.version_purges += 1;
            self.obs.incr("medes.platform.version_purges");
            return;
        }

        if (saved as f64) < MIN_SAVING_FRAC * full_model as f64 {
            // Not worth it: return to warm; release the base pins taken
            // at dedup initiation.
            self.release_base_refs(&outcome.table);
            self.rewarm(now, id, sched);
            return;
        }

        // Commit the dedup state (base refcounts were taken at dedup
        // initiation).
        let new_paper = self
            .cfg
            .to_paper_bytes(outcome.table.resident_model_bytes());
        let stats = &mut self.metrics.report.dedup_stats[f];
        stats.dedup_ops += 1;
        let n = stats.dedup_ops;
        let saved_paper = self.cfg.to_paper_bytes(saved) as f64;
        self.obs
            .counter_add("medes.dedup.saved_paper_bytes", saved_paper as u64);
        FnDedupStats::fold(&mut stats.mean_saved_paper_bytes, n, saved_paper);
        FnDedupStats::fold(&mut stats.mean_dedup_footprint, n, new_paper as f64);
        FnDedupStats::fold(
            &mut stats.mean_dedup_op_us,
            n,
            outcome.timing.total().as_micros() as f64,
        );
        let patched = outcome.table.patched_pages().max(1);
        FnDedupStats::fold(
            &mut stats.mean_patch_bytes,
            n,
            outcome.table.patch_bytes as f64 / patched as f64,
        );
        self.metrics.report.same_fn_pages += outcome.same_fn_pages as u64;
        self.metrics.report.cross_fn_pages += outcome.cross_fn_pages as u64;
        if !self.sandboxes[&id].ever_deduped {
            self.metrics.report.sandboxes_deduped += 1;
            self.sandboxes.get_mut(&id).expect("exists").ever_deduped = true;
        }
        self.fns[f].record_dedup_footprint(new_paper);

        let sb = self.sandboxes.get_mut(&id).expect("exists");
        let delta = new_paper as i64 - sb.mem_paper_bytes as i64;
        sb.mem_paper_bytes = new_paper;
        sb.dedup_table = Some(outcome.table);
        sb.transition(SandboxState::Dedup);
        sb.last_used = now;
        let epoch = sb.epoch;
        self.charge(now, node, delta);
        self.fns[f].dedup_total += 1;
        self.fns[f].idle_dedup.insert((now, id));
        sched.after(medes.keep_dedup, Ev::KeepDedupExpire { sb: id, epoch });
    }

    // ------------------------------------------------------------------
    // Finish.
    // ------------------------------------------------------------------

    fn finish(mut self, end: SimTime) -> RunReport {
        self.metrics.report.registry_entries = self.registry.entries();
        self.metrics.report.registry_peak_entries = self.registry.peak_entries();
        self.metrics.report.registry_peak_bytes = self.registry.peak_mem_bytes();
        self.metrics.report.registry_bytes = self.registry.mem_bytes();
        self.metrics.report.registry_lookups = self.registry.lookups();
        self.metrics.report.rdma_bytes = self.fabric.stats().rdma_bytes;
        let fstats = self.fabric.stats();
        self.metrics.report.net_retries = fstats.retries;
        self.metrics.report.net_failures = fstats.rdma_failures + fstats.rpc_failures;
        self.metrics.report.registry_dead_node_locs = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].down)
            .map(|i| self.registry.locs_on_node(NodeId(i)))
            .sum();
        if self.obs.enabled() {
            // Registry RPC traffic and ownership hygiene are exported
            // as obs counters, never RunReport fields: the report must
            // stay bit-identical across registry placements, while the
            // overhead figures (§7.7) remain observable per run.
            let rstats = self.registry.rpc_stats();
            self.obs
                .counter_add("medes.registry.rpc_total", rstats.rpcs);
            self.obs
                .counter_add("medes.registry.rpc_bytes_total", rstats.rpc_bytes);
            self.obs.counter_add(
                "medes.registry.rpc_time_us",
                self.registry.rpc_time().as_micros(),
            );
            let dead_owner_entries: usize = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].down)
                .map(|i| self.registry.entries_owned_by(NodeId(i)))
                .sum();
            self.obs.counter_add(
                "medes.registry.dead_owner_entries",
                dead_owner_entries as u64,
            );
        }
        for c in &self.caches {
            let s = c.stats();
            self.metrics.report.cache_hits += s.hits;
            self.metrics.report.cache_misses += s.misses;
            self.metrics.report.cache_evictions += s.evictions;
            self.metrics.report.cache_invalidations += s.invalidations;
            self.metrics.report.cache_bytes_saved += s.bytes_saved;
        }
        let mut report = self.metrics.finish(end);
        report.requests.sort_by_key(|r| r.id);
        report
    }
}

/// Cloning helper: the restore path needs the table while the sandbox
/// stays borrowed; tables are modest (patches), and restores are on the
/// critical path of a single request, so a clone is acceptable and keeps
/// the borrow checker trivial.
trait CloneForRestore {
    fn clone_for_restore(&self) -> Option<crate::sandbox::DedupPageTable>;
}

impl CloneForRestore for Option<crate::sandbox::DedupPageTable> {
    fn clone_for_restore(&self) -> Option<crate::sandbox::DedupPageTable> {
        self.clone()
    }
}

impl World for Cluster {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        // Fault windows are evaluated at the fabric's current instant;
        // the registry prices its RPCs at the same instant.
        self.fabric.set_now(now);
        self.registry.set_now(now);
        match event {
            Ev::Arrival { id, func } => {
                self.obs.incr("medes.platform.arrivals");
                self.fns[func].on_arrival();
                if let Some(a) = &mut self.adaptive_ka {
                    a.on_request(func, now);
                }
                let req = ReqInfo {
                    id,
                    func,
                    arrival: now,
                };
                self.dispatch(req, sched);
            }

            Ev::SpawnDone { sb: id, req } => {
                if !self.sandboxes.contains_key(&id) {
                    // The node crashed while the sandbox was spawning.
                    self.reschedule(req, sched);
                    return;
                }
                let exec = self.sample_exec(req.func);
                let sb = self
                    .sandboxes
                    .get_mut(&id)
                    .expect("spawning sandbox exists");
                sb.transition(SandboxState::Running);
                let startup = now.since(req.arrival);
                let rec = RequestRecord {
                    id: req.id,
                    func: req.func,
                    arrival_us: req.arrival.as_micros(),
                    startup_us: startup.as_micros(),
                    exec_us: exec.as_micros(),
                    e2e_us: 0,
                    start: StartType::Cold,
                };
                sched.after(exec, Ev::ExecDone { sb: id, rec });
            }

            Ev::RestoreDone {
                sb: id,
                req,
                read_paper,
            } => {
                if !self.sandboxes.contains_key(&id) {
                    // The node crashed mid-restore (crash_purge already
                    // settled the dedup accounting and base refs).
                    self.reschedule(req, sched);
                    return;
                }
                let f = req.func;
                let m_w = self.fns[f].profile.memory_bytes;
                let exec = self.sample_exec(f);
                let sb = self
                    .sandboxes
                    .get_mut(&id)
                    .expect("restoring sandbox exists");
                debug_assert_eq!(sb.state, SandboxState::Restoring);
                // Release the dedup representation + transient reads.
                let table = sb.dedup_table.take();
                let node = sb.node;
                let delta = m_w as i64 - sb.mem_paper_bytes as i64;
                sb.mem_paper_bytes = m_w;
                sb.transition(SandboxState::Running);
                self.charge(now, node, delta);
                let _ = read_paper;
                if let Some(t) = table {
                    self.release_base_refs(&t);
                }
                self.fns[f].dedup_total -= 1;
                let startup = now.since(req.arrival);
                let rec = RequestRecord {
                    id: req.id,
                    func: f,
                    arrival_us: req.arrival.as_micros(),
                    startup_us: startup.as_micros(),
                    exec_us: exec.as_micros(),
                    e2e_us: 0,
                    start: StartType::Dedup,
                };
                sched.after(exec, Ev::ExecDone { sb: id, rec });
            }

            Ev::ExecDone { sb: id, mut rec } => {
                if !self.sandboxes.contains_key(&id) {
                    // The node crashed while the request executed: the
                    // request never completed, so re-dispatch it.
                    self.reschedule(
                        ReqInfo {
                            id: rec.id,
                            func: rec.func,
                            arrival: SimTime::from_micros(rec.arrival_us),
                        },
                        sched,
                    );
                    return;
                }
                rec.e2e_us = now.since(SimTime::from_micros(rec.arrival_us)).as_micros();
                // Same (seed, request id) → same ids as the context the
                // dispatcher minted for the restore op, so the request
                // span becomes the root of that tree.
                let root = self.obs.trace_root("request", self.cfg.seed, rec.id);
                let bound_us = self.slo_bound_us(rec.func);
                let served_on = self.sandboxes[&id].node;
                self.metrics.push_request(rec, root, bound_us, served_on.0);
                let sb = self.sandboxes.get_mut(&id).expect("running sandbox exists");
                sb.transition(SandboxState::Warm);
                sb.last_used = now;
                let epoch = sb.epoch;
                let f = sb.func.0;
                // A rolling deploy superseded this sandbox while it ran:
                // its content is obsolete, so it dies instead of joining
                // the warm pool (referenced stale bases must linger until
                // their dependants release them).
                let stale = sb.version < self.fn_version[f] && !(sb.is_base && sb.refcount > 0);
                if stale {
                    self.purge_sandbox(now, id);
                    self.metrics.report.version_purges += 1;
                    self.obs.incr("medes.platform.version_purges");
                } else {
                    self.fns[f].idle_warm.insert((now, id));
                    sched.after(
                        self.keep_alive_window(f),
                        Ev::KeepAliveExpire { sb: id, epoch },
                    );
                    if let Some(m) = &self.medes {
                        if now + m.idle_period <= self.horizon + m.keep_alive {
                            sched.after(m.idle_period, Ev::IdleCheck { sb: id, epoch });
                        }
                    }
                }
                // Serve a queued request with this freshly warm sandbox.
                if let Some(q) = self.fns[f].wait_queue.pop_front() {
                    self.dispatch(
                        ReqInfo {
                            id: q.id,
                            func: f,
                            arrival: q.arrival,
                        },
                        sched,
                    );
                }
            }

            Ev::IdleCheck { sb, epoch } => self.idle_check(sb, epoch, sched),

            Ev::KeepAliveExpire { sb: id, epoch } => {
                let Some(sb) = self.sandboxes.get(&id) else {
                    return;
                };
                if sb.epoch != epoch || sb.state != SandboxState::Warm {
                    return;
                }
                let f = sb.func.0;
                let window = self.keep_alive_window(f);
                let idle_for = now.since(sb.last_used);
                if idle_for < window {
                    sched.at(sb.last_used + window, Ev::KeepAliveExpire { sb: id, epoch });
                    return;
                }
                if sb.is_base && sb.refcount > 0 {
                    // Referenced base sandboxes cannot be purged;
                    // re-check after another window.
                    if now + window <= self.horizon + window + window {
                        sched.after(window, Ev::KeepAliveExpire { sb: id, epoch });
                    }
                    return;
                }
                self.purge_sandbox(now, id);
                self.metrics.push_expiration();
            }

            Ev::KeepDedupExpire { sb: id, epoch } => {
                let Some(sb) = self.sandboxes.get(&id) else {
                    return;
                };
                if sb.epoch != epoch || sb.state != SandboxState::Dedup {
                    return;
                }
                self.purge_sandbox(now, id);
                self.metrics.push_expiration();
            }

            Ev::DedupDone { sb, epoch, outcome } => self.dedup_done(sb, epoch, *outcome, sched),
            Ev::DedupFlush => self.dedup_flush(sched),

            Ev::PolicyTick => {
                let Some(medes) = self.medes.clone() else {
                    return;
                };
                // Memory-budget objectives divide the cluster budget by
                // arrival-rate share (§5.3).
                let budgets: Option<Vec<f64>> =
                    if let Objective::MemoryBudget { budget_bytes } = medes.objective {
                        let rates: Vec<f64> = self
                            .fns
                            .iter()
                            .map(|rt| rt.lambda_max(self.cfg.policy_tick))
                            .collect();
                        Some(medes_policy::medes::divide_budget(budget_bytes, &rates))
                    } else {
                        None
                    };
                for (i, rt) in self.fns.iter_mut().enumerate() {
                    rt.roll_tick();
                    let state = rt.function_state(self.cfg.policy_tick);
                    let mut cfg_i = medes.clone();
                    if let (Some(b), Objective::MemoryBudget { .. }) = (&budgets, medes.objective) {
                        cfg_i.objective = Objective::MemoryBudget { budget_bytes: b[i] };
                    }
                    rt.target = solve(&cfg_i, &state);
                }
                if now + self.cfg.policy_tick <= self.horizon {
                    sched.after(self.cfg.policy_tick, Ev::PolicyTick);
                }
            }

            Ev::SampleTick => {
                self.sample_tick(now);
                if let Some(interval) = self.obs.sample_interval() {
                    if now + interval <= self.horizon {
                        sched.after(interval, Ev::SampleTick);
                    }
                }
            }

            Ev::RetryQueue { func } => {
                // Exactly one retry chain per function: this timer is the
                // outstanding one; re-arm only if requests remain after
                // the dispatch attempt (which may re-queue the head).
                self.fns[func].retry_armed = false;
                if let Some(q) = self.fns[func].wait_queue.pop_front() {
                    self.dispatch(
                        ReqInfo {
                            id: q.id,
                            func,
                            arrival: q.arrival,
                        },
                        sched,
                    );
                }
                if !self.fns[func].wait_queue.is_empty() && !self.fns[func].retry_armed {
                    self.fns[func].retry_armed = true;
                    sched.after(QUEUE_RETRY, Ev::RetryQueue { func });
                }
            }

            Ev::NodeCrash { node } => self.node_crash(now, node),

            Ev::VersionBump { func, version } => self.version_bump(now, func, version),

            Ev::NodeRestart { node } => {
                if node < self.nodes.len() && self.nodes[node].down {
                    self.nodes[node].down = false;
                    self.metrics.report.node_restarts += 1;
                    self.obs.incr("medes.platform.node_restarts");
                    // The node rejoins the registry's owner candidate
                    // set (it reclaims no shards).
                    self.registry.on_node_restart(NodeId(node));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_trace::{azure_like_trace, functionbench_suite, TraceGenConfig};

    fn small_trace(secs: u64, scale: f64) -> (Vec<FunctionProfile>, Trace) {
        let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
        let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
        let trace = azure_like_trace(
            &names,
            &TraceGenConfig {
                duration_secs: secs,
                scale,
                seed: 7,
                ..Default::default()
            },
        );
        (suite, trace)
    }

    #[test]
    fn every_request_completes() {
        let (suite, trace) = small_trace(120, 2.0);
        let report = Platform::new(PlatformConfig::small_test(), suite)
            .run(&trace)
            .report;
        assert_eq!(report.requests.len(), trace.len());
        assert!(report.requests.iter().all(|r| r.e2e_us >= r.exec_us));
    }

    #[test]
    fn runs_are_deterministic() {
        let (suite, trace) = small_trace(60, 2.0);
        let r1 = Platform::new(PlatformConfig::small_test(), suite.clone())
            .run(&trace)
            .report;
        let r2 = Platform::new(PlatformConfig::small_test(), suite)
            .run(&trace)
            .report;
        assert_eq!(r1.requests.len(), r2.requests.len());
        for (a, b) in r1.requests.iter().zip(&r2.requests) {
            assert_eq!(a.e2e_us, b.e2e_us);
            assert_eq!(a.start, b.start);
        }
        assert_eq!(r1.total_cold_starts(), r2.total_cold_starts());
    }

    #[test]
    fn first_request_is_a_cold_start_then_warm_reuse() {
        let (suite, trace) = small_trace(120, 2.0);
        let report = Platform::new(PlatformConfig::small_test(), suite)
            .run(&trace)
            .report;
        // The earliest request of each function must be cold.
        for f in 0..report.functions.len() {
            if let Some(first) = report
                .requests
                .iter()
                .filter(|r| r.func == f)
                .min_by_key(|r| r.arrival_us)
            {
                assert_eq!(first.start, StartType::Cold, "fn {f}");
            }
        }
        // With steady traffic there must be warm starts too.
        assert!(report.requests.iter().any(|r| r.start == StartType::Warm));
    }

    #[test]
    fn medes_produces_dedup_starts_under_pressure() {
        let (suite, trace) = small_trace(600, 10.0);
        let mut cfg = PlatformConfig::small_test();
        // A tight memory budget (P2) forces the optimizer to demand
        // dedup; a short idle period acts on it quickly.
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
            m.objective = medes_policy::medes::Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
        let report = Platform::new(cfg, suite).run(&trace).report;
        assert!(
            report.sandboxes_deduped > 0,
            "dedup ops must happen under pressure"
        );
        assert!(
            report.requests.iter().any(|r| r.start == StartType::Dedup),
            "dedup starts must serve requests"
        );
        assert!(report.registry_peak_entries > 0, "bases must be indexed");
    }

    #[test]
    fn baseline_policies_never_dedup() {
        let (suite, trace) = small_trace(120, 2.0);
        let cfg = PlatformConfig::small_test()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
        let report = Platform::new(cfg, suite).run(&trace).report;
        assert_eq!(report.sandboxes_deduped, 0);
        assert!(report.requests.iter().all(|r| r.start != StartType::Dedup));
    }

    #[test]
    fn memory_limit_is_respected() {
        let (suite, trace) = small_trace(600, 25.0);
        let mut cfg = PlatformConfig::small_test()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
        cfg.nodes = 2;
        cfg.node_mem_bytes = 100 << 20;
        let nodes = cfg.nodes;
        let limit = cfg.node_mem_bytes;
        let report = Platform::new(cfg, suite).run(&trace).report;
        // Memory samples must stay within cluster capacity (small slack
        // for transient restore overheads).
        let cap = (nodes * limit) as f64;
        for &(_, mem) in &report.mem_series {
            assert!(mem <= cap * 1.05, "memory {mem} exceeds capacity {cap}");
        }
        assert!(report.evictions > 0, "pressure must cause evictions");
    }

    #[test]
    fn obs_trace_matches_report_aggregates() {
        let (suite, trace) = small_trace(600, 10.0);
        let mut cfg = PlatformConfig::small_test();
        cfg.obs = medes_obs::ObsConfig::enabled();
        cfg.obs.span_buffer_cap = 1 << 20;
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
            m.objective = medes_policy::medes::Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
        let outcome = Platform::new(cfg, suite).run(&trace);
        let (report, obs) = (outcome.report, outcome.obs);
        assert_eq!(obs.spans_dropped(), 0, "buffer must hold the whole run");

        // Every request is mirrored into the start-type counters and as
        // a request span whose attrs match the report's records.
        let starts = obs.counter("medes.platform.starts.warm")
            + obs.counter("medes.platform.starts.dedup")
            + obs.counter("medes.platform.starts.cold");
        assert_eq!(starts, report.requests.len() as u64);
        assert_eq!(
            obs.counter("medes.platform.arrivals"),
            report.requests.len() as u64
        );

        // The JSONL export round-trips, and the per-phase restore
        // breakdown computed from spans matches the report's folded
        // means (Fig 8) within 1 µs.
        let spans = medes_obs::parse_jsonl(&obs.export_jsonl());
        let total_restores: u64 = report.dedup_stats.iter().map(|s| s.restores).sum();
        assert!(total_restores > 0, "run must contain dedup starts");
        for (span_name, pick) in [
            ("medes.restore.base_read", 0usize),
            ("medes.restore.page_compute", 1),
            ("medes.restore.ckpt", 2),
        ] {
            let durs: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == span_name)
                .map(|s| s.dur_us())
                .collect();
            assert_eq!(durs.len() as u64, total_restores, "{span_name}");
            let span_mean = durs.iter().sum::<u64>() as f64 / durs.len() as f64;
            let report_mean = report
                .dedup_stats
                .iter()
                .map(|s| {
                    let m = [
                        s.mean_restore_us.0,
                        s.mean_restore_us.1,
                        s.mean_restore_us.2,
                    ][pick];
                    m * s.restores as f64
                })
                .sum::<f64>()
                / total_restores as f64;
            assert!(
                (span_mean - report_mean).abs() <= 1.0,
                "{span_name}: spans {span_mean} vs report {report_mean}"
            );
        }

        // Dedup-op spans agree with the op counter, and the registry's
        // own counters agree with the report.
        let dedup_ops: u64 = report.dedup_stats.iter().map(|s| s.dedup_ops).sum();
        assert!(
            obs.counter("medes.dedup.ops") >= dedup_ops,
            "every committed op was recorded"
        );
        assert_eq!(
            obs.counter("medes.registry.lookups"),
            report.registry_lookups
        );
    }

    #[test]
    fn disabled_obs_leaves_run_untouched() {
        let (suite, trace) = small_trace(60, 2.0);
        let cfg = PlatformConfig::small_test();
        assert!(!cfg.obs.enabled);
        let outcome = Platform::new(cfg, suite).run(&trace);
        let (report, obs) = (outcome.report, outcome.obs);
        assert!(!report.requests.is_empty());
        assert_eq!(obs.span_count(), 0);
        assert!(obs.metrics_snapshot().is_empty());
        assert!(outcome.slo.is_empty());
    }

    /// Tentpole: every restore op links under the request span minted
    /// from the same `(seed, request id)` root, its phase spans tile it
    /// exactly, and the checkpoint-resume span nests under the ckpt
    /// phase — the tree `trace analyze` reconstructs.
    #[test]
    fn causal_tree_links_restores_under_request_roots() {
        let (suite, trace) = small_trace(600, 10.0);
        let mut cfg = PlatformConfig::small_test();
        cfg.obs = medes_obs::ObsConfig::enabled();
        cfg.obs.span_buffer_cap = 1 << 20;
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
            m.objective = medes_policy::medes::Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
        let outcome = Platform::new(cfg, suite).run(&trace);
        let spans = outcome.obs.spans();
        let by_id: HashMap<u64, &medes_obs::SpanRecord> = spans
            .iter()
            .filter(|s| s.span_id != 0)
            .map(|s| (s.span_id, s))
            .collect();
        let ops: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "medes.restore.op")
            .collect();
        assert!(!ops.is_empty(), "run must contain restores");
        for op in &ops {
            assert_ne!(op.trace_id, 0, "restore ops are traced");
            let root = by_id
                .get(&op.parent_id)
                .expect("restore op's parent (the request span) was emitted");
            assert_eq!(root.name, "medes.platform.request");
            assert_eq!(root.trace_id, op.trace_id);
            assert_eq!(root.span_id, root.trace_id, "request spans are roots");
            // The phase children tile the op interval exactly, so
            // per-node self-times sum to the op duration.
            let tiled: u64 = spans
                .iter()
                .filter(|s| s.parent_id == op.span_id && s.name.starts_with("medes.restore."))
                .map(|s| s.dur_us())
                .sum();
            assert_eq!(tiled, op.dur_us(), "phases tile the restore op");
            assert!(op.start_us >= root.start_us && op.end_us <= root.end_us);
        }
        // The CRIU-resume span nests (exactly) inside the ckpt phase.
        let resumes: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "medes.ckpt.restore" && s.trace_id != 0)
            .collect();
        assert_eq!(resumes.len(), ops.len());
        for r in &resumes {
            let ckpt = by_id[&r.parent_id];
            assert_eq!(ckpt.name, "medes.restore.ckpt");
            assert_eq!((r.start_us, r.end_us), (ckpt.start_us, ckpt.end_us));
        }
        // Dedup ops root their own traces: their parent id is the trace
        // root the platform minted (no span of its own — `trace
        // analyze` promotes orphans to roots).
        let dops: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "medes.dedup.op")
            .collect();
        assert!(!dops.is_empty(), "run must contain dedup ops");
        for d in &dops {
            assert_ne!(d.trace_id, 0);
            assert_eq!(d.parent_id, d.trace_id, "dedup op hangs off its root ctx");
        }
    }

    /// Tentpole: per-function SLO rows on `RunOutcome` cover every
    /// request, carry the §5.2 `α·s_W` bound under the latency-target
    /// objective, and surface in the Prometheus exposition.
    #[test]
    fn slo_summary_reflects_latency_target_bounds() {
        let (suite, trace) = small_trace(120, 2.0);
        let mut cfg = PlatformConfig::small_test();
        cfg.obs = medes_obs::ObsConfig::enabled();
        assert!(matches!(
            &cfg.policy,
            PolicyKind::Medes(m) if matches!(m.objective, Objective::LatencyTarget { .. })
        ));
        let outcome = Platform::new(cfg, suite).run(&trace);
        assert!(!outcome.slo.is_empty());
        let total: u64 = outcome.slo.iter().map(|s| s.count).sum();
        assert_eq!(total, outcome.report.requests.len() as u64);
        for row in &outcome.slo {
            assert!(row.bound_us > 0, "{} must carry an α·s_W bound", row.func);
            assert!(row.violations <= row.count);
            assert!(row.p50_us <= row.p99_us);
        }
        // Cold starts exceed α·s_W, so a mixed run records violations,
        // mirrored into the gauge the collector maintains.
        let violations: u64 = outcome.slo.iter().map(|s| s.violations).sum();
        assert!(violations > 0, "cold starts must violate the bound");
        assert_eq!(outcome.obs.slo_violations(), violations);
        let prom = outcome.obs.export_prometheus();
        assert!(prom.contains("medes_slo_startup_us"));
        assert!(prom.contains("medes_slo_violations_total"));
    }

    /// Rolling deploys: bumps register, stale sandboxes are purged, and
    /// the epoch boundary costs cold starts and dedup savings relative
    /// to the same trace without deploys.
    #[test]
    fn version_bumps_purge_stale_sandboxes_and_cost_savings() {
        let (suite, trace) = small_trace(600, 10.0);
        let mut cfg = PlatformConfig::small_test();
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
            m.objective = medes_policy::medes::Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
        let baseline = Platform::new(cfg.clone(), suite.clone()).run(&trace).report;
        assert_eq!(baseline.version_bumps, 0);
        assert_eq!(baseline.version_purges, 0);

        // Deploy a new version of every function mid-run.
        cfg.deploys = medes_trace::DeploySchedule {
            bumps: (0..suite.len())
                .map(|f| medes_trace::VersionBump {
                    function: f,
                    at: SimTime::from_secs(300),
                    version: 1,
                })
                .collect(),
        };
        let deployed = Platform::new(cfg, suite).run(&trace).report;
        assert_eq!(deployed.version_bumps, 4, "every bump must register");
        assert!(deployed.version_purges > 0, "stale sandboxes must die");
        assert_eq!(deployed.requests.len(), trace.len());
        assert!(
            deployed.total_cold_starts() > baseline.total_cold_starts(),
            "invalidating warm pools must cost cold starts ({} vs {})",
            deployed.total_cold_starts(),
            baseline.total_cold_starts()
        );
        // Replays stay bit-identical with a deploy schedule in play.
        let mut cfg2 = PlatformConfig::small_test();
        if let PolicyKind::Medes(m) = &mut cfg2.policy {
            m.idle_period = SimDuration::from_secs(5);
            m.objective = medes_policy::medes::Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
        cfg2.deploys = medes_trace::DeploySchedule {
            bumps: (0..deployed.functions.len())
                .map(|f| medes_trace::VersionBump {
                    function: f,
                    at: SimTime::from_secs(300),
                    version: 1,
                })
                .collect(),
        };
        let (suite2, trace2) = small_trace(600, 10.0);
        let replay = Platform::new(cfg2, suite2).run(&trace2).report;
        assert_eq!(deployed, replay, "deploy runs must replay bit-identically");
    }

    /// Every deploy version fills its own tile templates; a deploy drops
    /// the versions nothing can build any more, so a deploy-heavy run's
    /// store stays near a single version's, not one set per version.
    #[test]
    fn deploys_drop_dead_version_templates() {
        let (suite, trace) = small_trace(600, 10.0);
        let mut cfg = PlatformConfig::small_test();
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
        }
        let store_bytes = |cfg: PlatformConfig| {
            let platform = Platform::new(cfg, suite.clone());
            let mut sim = platform.simulation(&trace);
            sim.run();
            sim.world().factory.template_bytes()
        };
        let single = store_bytes(cfg.clone());
        assert!(single > 0, "dedup scans build images");
        cfg.deploys = medes_trace::DeploySchedule {
            bumps: (1..=5u64)
                .flat_map(|v| {
                    (0..suite.len()).map(move |f| medes_trace::VersionBump {
                        function: f,
                        at: SimTime::from_secs(100 * v),
                        version: v,
                    })
                })
                .collect(),
        };
        let deployed = store_bytes(cfg);
        assert!(
            deployed <= 2 * single,
            "six versions hold {deployed} template bytes, one holds {single}"
        );
    }

    /// Heterogeneous node memories: the run respects each node's own
    /// limit and the per-node free-memory accounting uses the profile.
    #[test]
    fn hetero_node_memory_profile_is_respected() {
        let (suite, trace) = small_trace(600, 15.0);
        let mut cfg = PlatformConfig::small_test()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
        cfg.nodes = 4;
        // One big node, two mid, one small (still fits the largest fn).
        cfg.node_mem_profile = vec![400 << 20, 200 << 20, 200 << 20, 100 << 20];
        let cap: usize = cfg.node_mem_profile.iter().sum();
        assert_eq!(cfg.cluster_mem_bytes(), cap);
        let report = Platform::new(cfg, suite).run(&trace).report;
        assert_eq!(report.requests.len(), trace.len());
        for &(_, mem) in &report.mem_series {
            assert!(
                mem <= cap as f64 * 1.05,
                "memory {mem} exceeds hetero capacity {cap}"
            );
        }
    }

    /// An empty deploy schedule and an empty memory profile must leave
    /// the default run byte-identical (the golden-path guard for the
    /// fig7/fig9/chaos experiments).
    #[test]
    fn empty_deploys_and_profile_match_default_run_exactly() {
        let (suite, trace) = small_trace(300, 5.0);
        let base = Platform::new(PlatformConfig::small_test(), suite.clone())
            .run(&trace)
            .report;
        let mut cfg = PlatformConfig::small_test();
        cfg.deploys = medes_trace::DeploySchedule::default();
        cfg.node_mem_profile = vec![cfg.node_mem_bytes; cfg.nodes];
        let explicit = Platform::new(cfg, suite).run(&trace).report;
        assert_eq!(base, explicit);
    }

    #[test]
    fn base_demarcations_are_counted() {
        let (suite, trace) = small_trace(120, 10.0);
        let mut cfg = PlatformConfig::small_test();
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
        }
        let plain = Platform::new(cfg.clone(), suite.clone()).run(&trace).report;
        cfg.obs = medes_obs::ObsConfig::enabled();
        let platform = Platform::new(cfg, suite);
        assert_eq!(
            platform.run(&trace).report,
            plain,
            "the counter must not perturb the run"
        );
        // Until the trace ends nothing has idled for the 10 min
        // keep-alive, so every base demarcated so far is still alive.
        let mut sim = platform.simulation(&trace);
        sim.run_until(trace.duration());
        let cluster = sim.world();
        let report = &cluster.metrics.report;
        assert_eq!((report.evictions, report.expirations), (0, 0));
        assert_eq!(report.node_crashes + report.version_bumps, 0);
        let alive = cluster.bases.len() as u64;
        assert!(alive > 0, "the run must demarcate bases");
        assert_eq!(
            cluster.obs.counter("medes.platform.base_demarcations"),
            alive
        );
    }

    /// Releasing more memory than a node holds is an accounting bug:
    /// `charge` must panic instead of wrapping to a huge `mem_used`.
    #[test]
    #[should_panic(expected = "node 1 mem_used 4096 + -8192 out of range")]
    fn charge_panics_on_underflow() {
        let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(1).collect();
        let mut cluster = Cluster::new(PlatformConfig::small_test(), suite, SimTime::ZERO);
        cluster.charge(SimTime::ZERO, NodeId(1), 4096);
        cluster.charge(SimTime::ZERO, NodeId(1), -8192);
    }
}
