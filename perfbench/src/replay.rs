//! Per-layer numbers for one workload.
//!
//! Counts come from the traced run: the program's own counters and
//! spans (`medes.dedup.*`, `medes.registry.*`, `medes.net.*`,
//! `medes.restore.*`, `medes.platform.starts.*`) and its `RunReport`.
//! Host time per call comes from a replay: for every function the
//! trace used, the benchmark calls each layer's public functions on
//! that function's images with the workload's configuration, recording
//! a span (name, start, end, parent) around every call. A layer's
//! estimated `host_s` is its counted operations times the median
//! per-call self time from the replay; the rest of the untraced wall
//! time is the platform's own (event loop, dispatch, metrics).

use crate::check::{fnv1a, FNV_OFFSET};
use crate::stats::{median, quantile};
use crate::workload::{medes_policy, Setup};
use crate::{metric, Metric, Tally};
use medes_core::config::{PlatformConfig, PolicyKind, RegistryPlacement};
use medes_core::dedup::{dedup_commit, dedup_scan, index_base_sandbox};
use medes_core::ids::{FnId, NodeId, SandboxId};
use medes_core::images::ImageFactory;
use medes_core::metrics::RunReport;
use medes_core::pagecache::BasePageCache;
use medes_core::platform::RunOutcome;
use medes_core::registry::RegistryClient;
use medes_core::restore::restore_op_cached;
use medes_core::sandbox::PageEntry;
use medes_delta::{apply_into, encode_with, EncodeConfig, EncodeScratch};
use medes_hash::sample::pages_fingerprints;
use medes_mem::{MemoryImage, PAGE_SIZE};
use medes_net::Fabric;
use medes_obs::{AttrValue, Obs};
use medes_policy::medes::solve;
use medes_policy::{FunctionState, MedesPolicyConfig};
use medes_sim::SimDuration;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Replay repetitions per traced run, at least and about at most;
/// per-call times are their medians.
pub const MIN_REPS: usize = 5;
pub const MAX_REPS: usize = 12;
/// `solve` calls per function and repetition (one call is ~100 ns).
const SOLVES: usize = 200;
/// How far the layer estimates may exceed the wall time they split
/// before the replay counts as wrong: the replayed images and registry
/// contents stand in for the run's own, so each estimate carries a few
/// per cent of error, and host speed drifts between samples.
const ESTIMATE_TOLERANCE: f64 = 0.10;
/// Instance seeds of the replayed images: one base, one dedup target.
const BASE_SEED: u64 = 0xBA5E;
const TARGET_SEED: u64 = 0x7A26E7;

/// One recorded replay call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: usize,
    parent: usize,
}

/// In-memory span recorder; ids start at 1 (0 = no parent).
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, &'static str, u64, usize)>,
    next: usize,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next: 1,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().map_or(0, |o| o.0);
        let start = self.now();
        self.open.push((self.next, name, start, parent));
        self.next += 1;
    }

    /// Closes the innermost span; returns its duration in seconds.
    fn exit(&mut self) -> f64 {
        let end = self.now();
        let (id, name, start_ns, parent) = self.open.pop().expect("an open span");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end,
            id,
            parent,
        });
        (end - start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and duration (s).
    /// The result passes through `black_box`, so a call whose result
    /// the replay drops is still timed.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let r = std::hint::black_box(f());
        (r, self.exit())
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent
            )?;
        }
        out.flush()
    }
}

/// Per-call host times (seconds) of one function, one entry per rep.
#[derive(Default)]
struct FnTimes {
    pages: usize,
    model_pages: Vec<f64>,
    image_build: Vec<f64>,
    fingerprint: Vec<f64>,
    lookup: Vec<f64>,
    encode_sum: Vec<f64>,
    encodes: usize,
    scan_self: Vec<f64>,
    commit: Vec<f64>,
    restore: Vec<f64>,
}

/// Everything the replay measured.
#[derive(Default)]
struct Samples {
    per_fn: HashMap<usize, FnTimes>,
    /// Per-call samples across functions, seconds.
    image_build_calls: Vec<f64>,
    fp_per_page: Vec<f64>,
    lookup_calls: Vec<f64>,
    encode_calls: Vec<f64>,
    apply_calls: Vec<f64>,
    scan_calls: Vec<f64>,
    restore_calls: Vec<f64>,
    rdma_batch_calls: Vec<f64>,
    solve_calls: Vec<f64>,
    /// Registry insert time per inserted entry (index minus its
    /// fingerprinting), one sample per indexed base.
    insert_per_entry: Vec<f64>,
    encode_attempts: u64,
    encode_kept: u64,
    /// FNV digest of every fingerprint and patch, per rep.
    digests: Vec<u64>,
    problems: Vec<String>,
}

fn registry_for(cfg: &PlatformConfig) -> RegistryClient {
    match cfg.registry {
        RegistryPlacement::InProcess => {
            RegistryClient::in_process(cfg.pipeline.shards, Obs::disabled())
        }
        RegistryPlacement::Distributed { owners } => RegistryClient::distributed(
            cfg.pipeline.shards,
            owners,
            cfg.nodes,
            cfg.net.clone(),
            cfg.retry,
            Obs::disabled(),
        ),
    }
}

/// A representative §5.2 solver input for function `f`.
fn solver_state(setup: &Setup, report: &RunReport, f: usize) -> FunctionState {
    let p = &setup.suite[f];
    let n = setup.traces[0]
        .invocations
        .iter()
        .filter(|i| i.function == f)
        .count();
    let stats = &report.dedup_stats[f];
    let (a, b, c) = stats.mean_restore_us;
    FunctionState {
        arrival_rate: n as f64 / (setup.traces[0].duration_us as f64 * 1e-6),
        exec_time: p.exec_time(),
        warm_start: p.warm_start(),
        dedup_start: SimDuration::from_micros((a + b + c) as u64).max(p.warm_start()),
        mem_warm: p.memory_bytes as f64,
        mem_dedup: stats.mean_dedup_footprint.max(0.2 * p.memory_bytes as f64),
        mem_restore: 0.1 * p.memory_bytes as f64,
        sandboxes: 8,
    }
}

/// The layer replay: images and solver inputs for every function the
/// trace used, and the spans and samples of every repetition so far.
pub struct Replay<'a> {
    setup: &'a Setup,
    used: Vec<usize>,
    factory: ImageFactory,
    bases: HashMap<SandboxId, (Arc<MemoryImage>, FnId)>,
    policy: MedesPolicyConfig,
    states: Vec<FunctionState>,
    rec: Recorder,
    s: Samples,
}

impl<'a> Replay<'a> {
    /// Prepares the replay; `report` supplies the solver inputs.
    pub fn new(setup: &'a Setup, report: &RunReport) -> Self {
        let cfg = &setup.cfg;
        let mut used: Vec<usize> = setup.traces[0]
            .invocations
            .iter()
            .map(|i| i.function)
            .collect();
        used.sort_unstable();
        used.dedup();
        let factory = ImageFactory::new(&setup.suite, cfg.content.clone(), cfg.aslr, cfg.mem_scale);
        let bases = used
            .iter()
            .map(|&f| {
                let img = factory.image_v(FnId(f), BASE_SEED, 0);
                (SandboxId(f as u64), (img, FnId(f)))
            })
            .collect();
        let policy = match &cfg.policy {
            PolicyKind::Medes(m) => m.clone(),
            _ => medes_policy(SimDuration::from_secs(15)),
        };
        let states = used
            .iter()
            .map(|&f| solver_state(setup, report, f))
            .collect();
        Replay {
            setup,
            used,
            factory,
            bases,
            policy,
            states,
            rec: Recorder::new(),
            s: Samples::default(),
        }
    }

    /// Repetitions done so far.
    pub fn reps(&self) -> usize {
        self.s.digests.len()
    }

    /// One repetition: index a base per function, then dedup, restore
    /// and solve for each function, timing every call.
    pub fn rep(&mut self) {
        let Replay {
            setup,
            used,
            factory,
            bases,
            policy,
            states,
            rec,
            s: r,
        } = self;
        let cfg = &setup.cfg;
        let used: &[usize] = used;
        let resolve = |sb: SandboxId| bases.get(&sb).map(|(img, f)| (Arc::clone(img), *f));
        let encode_cfg = EncodeConfig::with_level(cfg.delta_level);
        let max_patch = (cfg.patch_max_frac * PAGE_SIZE as f64) as usize;
        rec.enter("replay.rep");
        let mut digest = FNV_OFFSET;
        let registry = registry_for(cfg);
        let mut fabric = Fabric::new(cfg.nodes, cfg.net.clone());
        let mut caches: Vec<BasePageCache> = (0..cfg.nodes)
            .map(|_| BasePageCache::new(cfg.read_path.page_cache_bytes, cfg.mem_scale))
            .collect();

        // Base demarcation: one base per used function.
        for &g in used {
            let img = &bases[&SandboxId(g as u64)].0;
            let pages: Vec<&[u8]> = img.pages().map(|(_, p)| p).collect();
            let (_, fp) = rec.time("hash.pages_fingerprints", || {
                pages_fingerprints(&pages, &cfg.fingerprint)
            });
            r.fp_per_page.push(fp / pages.len().max(1) as f64);
            let before = registry.entries();
            let (_, idx) = rec.time("dedup.index_base_sandbox", || {
                index_base_sandbox(cfg, &registry, node_of(cfg, g), SandboxId(g as u64), img)
            });
            let inserted = registry.entries() - before;
            if inserted > 0 {
                r.insert_per_entry
                    .push((idx - fp).max(0.0) / inserted as f64);
            }
        }

        for &f in used {
            rec.enter("replay.fn");
            let node = node_of(cfg, f + 1);
            let t = r.per_fn.entry(f).or_default();
            let (pages, mp) = rec.time("mem.model_pages", || factory.model_pages(FnId(f)));
            t.pages = pages;
            t.model_pages.push(mp);
            let (target, build) =
                rec.time("mem.image_v", || factory.image_v(FnId(f), TARGET_SEED, 0));
            t.image_build.push(build);
            r.image_build_calls.extend([mp, build]);

            // The scan's parts, each timed on its own.
            let page_slices: Vec<&[u8]> = target.pages().map(|(_, p)| p).collect();
            let (fps, fp) = rec.time("hash.pages_fingerprints", || {
                pages_fingerprints(&page_slices, &cfg.fingerprint)
            });
            t.fingerprint.push(fp);
            r.fp_per_page.push(fp / pages.max(1) as f64);
            for p in &fps {
                for c in p.chunks() {
                    digest = fnv1a(&c.hash.to_le_bytes(), digest);
                }
            }
            let probes: Vec<_> = fps.iter().filter(|p| !p.is_empty()).cloned().collect();
            let (cands, lookup) =
                rec.time("registry.lookup_batch", || registry.lookup_batch(&probes));
            t.lookup.push(lookup);
            r.lookup_calls.push(lookup);
            let mut scratch = EncodeScratch::new();
            let (mut encode_sum, mut encodes, mut kept) = (0.0, 0usize, 0usize);
            let mut cursor = 0;
            for (page, fp) in page_slices.iter().zip(&fps) {
                if fp.is_empty() {
                    continue;
                }
                let best = cands[cursor].iter().max_by_key(|c| {
                    (
                        c.votes,
                        c.loc.node == node,
                        std::cmp::Reverse(c.loc.sandbox),
                    )
                });
                cursor += 1;
                let Some((cand, (img, _))) =
                    best.and_then(|c| resolve(c.loc.sandbox).map(|b| (c, b)))
                else {
                    continue;
                };
                let (patch, enc) = rec.time("delta.encode_with", || {
                    encode_with(
                        img.page(cand.loc.page as usize),
                        page,
                        &encode_cfg,
                        &mut scratch,
                    )
                });
                encode_sum += enc;
                encodes += 1;
                r.encode_calls.push(enc);
                if patch.serialized_size() < max_patch {
                    kept += 1;
                }
            }
            t.encode_sum.push(encode_sum);
            t.encodes = encodes;
            r.encode_attempts += encodes as u64;
            r.encode_kept += kept as u64;

            // The whole scan, then its fabric commit.
            let (scan, scan_s) = rec.time("dedup.dedup_scan", || {
                dedup_scan(cfg, &registry, node, FnId(f), &target, &resolve)
            });
            r.scan_calls.push(scan_s);
            t.scan_self
                .push((scan_s - fp - lookup - encode_sum).max(0.0));
            if scan.patched_pages != kept {
                r.problems.push(format!(
                    "replayed election kept {kept} patches for fn {f}, dedup_scan {}",
                    scan.patched_pages
                ));
            }
            let reads = scan.remote_reads.clone();
            let mut net = Fabric::new(cfg.nodes, cfg.net.clone());
            let (read, rdma) = rec.time("net.rdma_read_batch_retry", || {
                net.rdma_read_batch_retry(node.0, &reads, &cfg.retry)
            });
            r.rdma_batch_calls.push(rdma);
            if read.is_err() {
                r.problems
                    .push(format!("replayed base-page reads failed for fn {f}"));
            }
            let (outcome, commit) = rec.time("dedup.dedup_commit", || {
                dedup_commit(cfg, &mut fabric, node, scan)
            });
            t.commit.push(commit);
            let Ok(outcome) = outcome else {
                r.problems
                    .push(format!("replayed dedup_commit failed for fn {f}"));
                rec.exit();
                continue;
            };
            let table = outcome.table;

            // Restore, verified page by page, then as the platform calls
            // it (unverified, through the node's cache when enabled).
            let (verified, _) = rec.time("restore.restore_op_cached.verify", || {
                restore_op_cached(
                    cfg,
                    &mut fabric,
                    node,
                    &table,
                    &resolve,
                    None,
                    Some(&target),
                )
            });
            if let Err(e) = verified {
                r.problems
                    .push(format!("replayed restore of fn {f} failed: {e}"));
            }
            let mut rebuilt = Vec::new();
            for (idx, entry) in table.entries.iter().enumerate() {
                let PageEntry::Patched {
                    base_sandbox,
                    base_page,
                    patch,
                    ..
                } = entry
                else {
                    continue;
                };
                digest = fnv1a(&patch.to_bytes(), digest);
                let base = &bases[base_sandbox].0;
                let (applied, apply) = rec.time("delta.apply_into", || {
                    apply_into(base.page(*base_page as usize), patch, &mut rebuilt)
                });
                r.apply_calls.push(apply);
                if applied.is_err() || rebuilt != target.page(idx) {
                    r.problems
                        .push(format!("patch of fn {f} page {idx} does not rebuild it"));
                }
            }
            let cache = cfg.read_path.active().then(|| &mut caches[node.0]);
            let (restored, restore) = rec.time("restore.restore_op_cached", || {
                restore_op_cached(cfg, &mut fabric, node, &table, &resolve, cache, None)
            });
            t.restore.push(restore);
            r.restore_calls.push(restore);
            if restored.is_err() {
                r.problems
                    .push(format!("replayed restore of fn {f} failed"));
            }
            rec.exit();
        }

        for state in states.iter() {
            for _ in 0..SOLVES {
                let (_, s) = rec.time("policy.solve", || solve(policy, state));
                r.solve_calls.push(s);
            }
        }
        rec.exit();
        r.digests.push(digest);
    }
}

/// Spreads functions over nodes the way a real cluster would.
fn node_of(cfg: &PlatformConfig, i: usize) -> NodeId {
    NodeId(i % cfg.nodes)
}

fn span_fn_counts(out: &RunOutcome, name: &str, suite: &[String]) -> Vec<u64> {
    let mut counts = vec![0u64; suite.len()];
    for s in out.obs.spans().iter().filter(|s| s.name == name) {
        if let Some(AttrValue::Str(func)) = s.attr("fn") {
            if let Some(i) = suite.iter().position(|n| n == func) {
                counts[i] += 1;
            }
        }
    }
    counts
}

/// Assembles every per-layer metric from the traced run and the replay.
///
/// `wall_s` is the median untraced wall time of runs interleaved with
/// the replay's repetitions, so both sample the same host conditions.
pub fn per_layer(
    replay: Replay,
    out: &RunOutcome,
    wall_s: f64,
    traced_wall_s: f64,
    tally: &mut Tally,
    spans_path: &Path,
) -> Vec<Metric> {
    let Replay {
        setup,
        used,
        rec,
        s: r,
        ..
    } = replay;
    let cfg = &setup.cfg;
    let report = &out.report;
    let obs = &out.obs;
    let names: Vec<String> = setup.suite.iter().map(|p| p.name.clone()).collect();
    tally.problems.extend(r.problems.iter().cloned());
    if r.digests.windows(2).any(|d| d[0] != d[1]) {
        tally
            .problems
            .push("replay digest differs between repetitions".to_string());
    }
    if let Err(e) = rec.write_jsonl(spans_path) {
        tally
            .problems
            .push(format!("cannot write {}: {e}", spans_path.display()));
    }

    // Counts of the traced run.
    let cold = report.cold_starts();
    let scans = span_fn_counts(out, "medes.dedup.op", &names);
    let restores: Vec<u64> = report.dedup_stats.iter().map(|s| s.restores).collect();
    let counter = |n: &str| obs.counter(n);
    let dedup_ops = counter("medes.dedup.ops");
    if scans.iter().sum::<u64>() != dedup_ops {
        tally.problems.push(format!(
            "medes.dedup.op spans {} != medes.dedup.ops {dedup_ops}",
            scans.iter().sum::<u64>()
        ));
    }
    let ticks = if cfg.is_medes() {
        setup.traces[0].duration_us / cfg.policy_tick.as_micros() + 1
    } else {
        0
    };
    let solves = ticks * names.len() as u64;

    // Host-time estimates: Σ_f count_f × median per-call self time.
    let per_fn = |f: usize| r.per_fn.get(&f);
    let sum = |count: &dyn Fn(usize) -> f64, time: &dyn Fn(&FnTimes) -> f64| -> f64 {
        used.iter()
            .filter_map(|&f| per_fn(f).map(|t| count(f) * time(t)))
            .sum()
    };
    let scans_f = |f: usize| scans[f] as f64;
    let mem_s = sum(&|f| cold[f] as f64, &|t| median(&t.model_pages))
        + sum(&scans_f, &|t| median(&t.image_build));
    let hash_cpu = sum(&scans_f, &|t| median(&t.fingerprint));
    let lookup_cpu = sum(&scans_f, &|t| median(&t.lookup));
    let delta_cpu = sum(&scans_f, &|t| median(&t.encode_sum));
    let scan_self_cpu = sum(&scans_f, &|t| median(&t.scan_self));
    let commit_s = sum(&scans_f, &|t| median(&t.commit));
    let inserts = counter("medes.registry.inserts");
    let insert_s = inserts as f64 * median(&r.insert_per_entry);
    let restore_s = sum(&|f| restores[f] as f64, &|t| median(&t.restore));
    let policy_s = solves as f64 * median(&r.solve_calls);

    // The batched pipeline scans on a worker pool: its measured wall
    // time bounds how much of the scan CPU time blocks the run.
    let batch_wall_s = counter("medes.dedup.batch_wall_us") as f64 * 1e-6;
    let scan_cpu = hash_cpu + lookup_cpu + delta_cpu + scan_self_cpu;
    let parallelism = if cfg.pipeline.workers > 1 && batch_wall_s > 0.0 {
        (scan_cpu / batch_wall_s).clamp(1.0, cfg.pipeline.workers as f64)
    } else {
        1.0
    };
    let hash_s = hash_cpu / parallelism;
    let registry_s = lookup_cpu / parallelism + insert_s;
    let delta_s = delta_cpu / parallelism;
    let dedup_s = scan_self_cpu / parallelism + commit_s;
    let layers = mem_s + hash_s + registry_s + delta_s + dedup_s + restore_s + policy_s;
    let residual = wall_s - layers;
    if layers > (1.0 + ESTIMATE_TOLERANCE) * wall_s {
        tally.problems.push(format!(
            "layer estimates {layers:.3} s exceed the untraced wall time {wall_s:.3} s"
        ));
    }

    let pages_scanned: f64 = used
        .iter()
        .map(|&f| scans[f] as f64 * per_fn(f).map_or(0.0, |t| t.pages as f64))
        .sum();
    let dedup_cpu = scan_cpu + commit_s;
    let host_us_per_page = if pages_scanned > 0.0 {
        dedup_cpu / pages_scanned * 1e6
    } else {
        0.0
    };
    let patched_frac =
        (report.same_fn_pages + report.cross_fn_pages) as f64 / pages_scanned.max(1.0);
    let model_us = cfg.lookup_per_page.as_secs_f64() * 1e6
        + cfg.patch_compute_per_page.as_secs_f64() * 1e6 * patched_frac;
    println!(
        "# dedup host cost {host_us_per_page:.2} us per model page ({:.3} us per paper page at \
         mem_scale {}); the §7.7 model charges {model_us:.1} us per paper page \
         (lookup {} us + patch {} us x {patched_frac:.3} patched)",
        host_us_per_page / cfg.mem_scale as f64,
        cfg.mem_scale,
        cfg.lookup_per_page.as_micros(),
        cfg.patch_compute_per_page.as_micros(),
    );
    println!(
        "# replay digest {:016x} ({} reps, {} spans in {}); scan parallelism {parallelism:.2}",
        r.digests.first().copied().unwrap_or(0),
        r.digests.len(),
        rec.spans.len(),
        spans_path.display()
    );

    let hits = counter("medes.restore.cache.hits") as f64;
    let misses = counter("medes.restore.cache.misses") as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let encodes_est: f64 = sum(&scans_f, &|t| t.encodes as f64);
    let ms = 1e3;
    let us = 1e6;
    let q = |v: &[f64], p: f64, scale: f64| quantile(v, p) * scale;
    vec![
        metric(
            "mem.image_builds",
            (cold.iter().sum::<u64>() + dedup_ops) as f64,
            "count",
        ),
        metric(
            "mem.image_build_ms.p50",
            q(&r.image_build_calls, 0.5, ms),
            "ms",
        ),
        metric(
            "mem.image_build_ms.p99",
            q(&r.image_build_calls, 0.99, ms),
            "ms",
        ),
        metric("mem.host_s", mem_s, "s"),
        metric("hash.pages", pages_scanned, "count"),
        metric(
            "hash.fingerprint_us_per_page.p50",
            q(&r.fp_per_page, 0.5, us),
            "us",
        ),
        metric(
            "hash.fingerprint_us_per_page.p99",
            q(&r.fp_per_page, 0.99, us),
            "us",
        ),
        metric("hash.host_s", hash_s, "s"),
        metric(
            "registry.lookups",
            counter("medes.registry.lookups") as f64,
            "count",
        ),
        metric("registry.inserts", inserts as f64, "count"),
        metric(
            "registry.lookup_batch_us.p50",
            q(&r.lookup_calls, 0.5, us),
            "us",
        ),
        metric(
            "registry.lookup_batch_us.p99",
            q(&r.lookup_calls, 0.99, us),
            "us",
        ),
        metric(
            "registry.candidates_per_lookup",
            obs.with_histogram("medes.registry.candidates", |h| h.mean())
                .unwrap_or(0.0),
            "count",
        ),
        metric(
            "registry.rpcs",
            counter("medes.net.registry.rpcs") as f64,
            "count",
        ),
        metric("registry.host_s", registry_s, "s"),
        metric("delta.encodes", encodes_est, "count"),
        metric("delta.encode_us.p50", q(&r.encode_calls, 0.5, us), "us"),
        metric("delta.encode_us.p99", q(&r.encode_calls, 0.99, us), "us"),
        metric("delta.apply_us.p50", q(&r.apply_calls, 0.5, us), "us"),
        metric("delta.apply_us.p99", q(&r.apply_calls, 0.99, us), "us"),
        metric(
            "delta.patch_accept_frac",
            ratio(r.encode_kept as f64, r.encode_attempts as f64),
            "frac",
        ),
        metric("delta.host_s", delta_s, "s"),
        metric("dedup.ops", dedup_ops as f64, "count"),
        metric("dedup.scan_ms.p50", q(&r.scan_calls, 0.5, ms), "ms"),
        metric("dedup.scan_ms.p99", q(&r.scan_calls, 0.99, ms), "ms"),
        metric(
            "dedup.scan_self_ms",
            median(
                &used
                    .iter()
                    .filter_map(|&f| per_fn(f))
                    .map(|t| median(&t.scan_self))
                    .collect::<Vec<_>>(),
            ) * ms,
            "ms",
        ),
        metric("dedup.batch_wall_s", batch_wall_s, "s"),
        metric("dedup.host_us_per_page", host_us_per_page, "us"),
        metric("dedup.host_s", dedup_s, "s"),
        metric("restore.ops", counter("medes.restore.ops") as f64, "count"),
        metric("restore.op_ms.p50", q(&r.restore_calls, 0.5, ms), "ms"),
        metric("restore.op_ms.p99", q(&r.restore_calls, 0.99, ms), "ms"),
        metric("restore.cache_hit_frac", ratio(hits, hits + misses), "frac"),
        metric(
            "restore.fallbacks",
            counter("medes.platform.starts.fallback_cold") as f64,
            "count",
        ),
        metric("restore.host_s", restore_s, "s"),
        metric(
            "net.rdma_reads",
            counter("medes.net.rdma_reads") as f64,
            "count",
        ),
        metric("net.rpcs", counter("medes.net.rpcs") as f64, "count"),
        metric("net.rdma_batch_us", q(&r.rdma_batch_calls, 0.5, us), "us"),
        metric("policy.solves", solves as f64, "count"),
        metric("policy.solve_us.p50", q(&r.solve_calls, 0.5, us), "us"),
        metric("policy.solve_us.p99", q(&r.solve_calls, 0.99, us), "us"),
        metric("policy.host_s", policy_s, "s"),
        metric("obs.overhead_frac", traced_wall_s / wall_s - 1.0, "frac"),
        metric(
            "platform.cold_starts",
            counter("medes.platform.starts.cold") as f64,
            "count",
        ),
        metric(
            "platform.dedup_starts",
            counter("medes.platform.starts.dedup") as f64,
            "count",
        ),
        metric(
            "platform.warm_starts",
            counter("medes.platform.starts.warm") as f64,
            "count",
        ),
        metric("platform.residual_s", residual, "s"),
        metric("platform.residual_frac", residual / wall_s, "frac"),
    ]
}
