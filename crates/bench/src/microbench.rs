//! `microbench` — p50/p95/p99 latency per hot-path op (renacer style).
//!
//! Criterion-compatible micro-benchmarks for the compute-bound hot-path
//! ops: image synthesis, fingerprint scan, delta encode, and patch
//! apply. Each op is sampled individually (one `Instant`
//! window per call, percentiles over the sorted samples — medians hide
//! tail behavior, which is exactly what the restore path cares about)
//! on a checkpoint-shaped corpus, for both the legacy path and the
//! optimized path:
//!
//! | op | legacy | optimized |
//! |----|--------|-----------|
//! | fingerprint | `page_fingerprint_scalar` | `page_fingerprint` (wide scan) / `pages_fingerprints` (batch) |
//! | encode | `encode_reference` (per-call `HashMap`) | `encode_with` (reused [`EncodeScratch`]) |
//! | apply | `apply` (allocating) | `apply_into` / `PatchRef::apply_into` (zero-copy) |
//! | image | `build_versioned_per_tile` (every tile from its RNG) | `build_versioned` (shared tile templates), tile and mixture content |
//!
//! The experiment is self-checking: every optimized-path result is
//! asserted bit-identical to its legacy counterpart on the whole
//! corpus, and a deterministic FNV digest over all fingerprints, patch
//! bytes and image bytes is written to `<results>/microbench.digest` so
//! CI can double-run the experiment and `diff` the digests. In full
//! mode the speedup gates (≥1.5× fingerprint p50, ≥1.3× encode+apply
//! pair, ≥2× image build per page) are asserted too; quick mode only
//! reports them, since smoke machines are noisy. Per-op p50/p95/p99 are
//! appended to `perf_history.jsonl` as `microbench/<op>` records.

use crate::common::ExpConfig;
use crate::perf_history;
use crate::report::{f, Report};
use medes_ckpt::{CheckpointImage, ProcessSpec};
use medes_delta::{
    apply, apply_into, encode_reference, encode_with, EncodeConfig, EncodeScratch, Patch, PatchRef,
};
use medes_hash::fnv::fnv1a;
use medes_hash::sample::{
    page_fingerprint, page_fingerprint_scalar, pages_fingerprints, FingerprintConfig,
    PageFingerprint,
};
use medes_mem::{ContentModel, ContentModelConfig, FunctionSpec, ImageBuilder, TileTemplates};
use medes_obs::json::{Json, JsonMap};
use medes_sim::DetRng;
use medes_trace::functionbench_suite;
use std::sync::Arc;
use std::time::Instant;

/// Percentile summary of one op's samples, nanoseconds.
#[derive(Debug, Clone, Copy)]
struct OpStats {
    p50: f64,
    p95: f64,
    p99: f64,
    samples: usize,
}

impl OpStats {
    /// Nearest-rank percentiles over the sorted samples.
    fn from_samples(mut ns: Vec<f64>) -> OpStats {
        assert!(!ns.is_empty());
        ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pick = |q: f64| {
            let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
            ns[rank - 1]
        };
        OpStats {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            samples: ns.len(),
        }
    }
}

/// Times `op` once per sample; the `u64` return value is folded into a
/// sink so the optimizer cannot elide the work.
fn measure<F: FnMut(usize) -> u64>(samples: usize, mut op: F) -> OpStats {
    let mut ns = Vec::with_capacity(samples);
    let mut sink = 0u64;
    for i in 0..samples {
        let t0 = Instant::now();
        sink = sink.wrapping_add(op(i));
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(sink);
    OpStats::from_samples(ns)
}

/// The benchmark corpus: checkpoint pages plus near-duplicate
/// (base, target) page pairs — the shapes the dedup scan actually
/// encodes. Fully deterministic.
struct Corpus {
    pages: Vec<Vec<u8>>,
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
}

fn build_corpus(quick: bool) -> Corpus {
    let ckpt = |name: &str, mb: usize, libs: &[&str], seed: u64| {
        let img = ImageBuilder::new(FunctionSpec::new(name, mb << 20, libs))
            .with_scale(16)
            .build(seed);
        CheckpointImage::from_image(&img, ProcessSpec::default())
    };
    let images = [
        ckpt("mb-json", 2, &["libc", "librt"], 1),
        ckpt("mb-ml", 4, &["libc", "libml"], 2),
    ];
    let mut pages: Vec<Vec<u8>> = Vec::new();
    for img in &images {
        pages.extend(img.page_slices().map(<[u8]>::to_vec));
    }
    let cap = if quick { 64 } else { 256 };
    pages.truncate(cap);
    // Near-duplicate pairs: point edits and a small insertion-style
    // splat, mirroring warm sandbox pages drifting from their base.
    let mut rng = DetRng::new(0x00B5_EED5);
    let mut pairs = Vec::new();
    for (i, page) in pages.iter().enumerate().take(cap / 2) {
        let base = page.clone();
        let mut target = base.clone();
        for _ in 0..rng.range(1, 6) {
            let at = rng.below(target.len() as u64 - 32) as usize;
            let len = rng.range(4, 32) as usize;
            for b in &mut target[at..at + len] {
                *b = rng.next_u8();
            }
        }
        if i % 4 == 3 {
            // Every fourth pair diffs against an unrelated page.
            rng.fill_bytes(&mut target);
        }
        pairs.push((base, target));
    }
    Corpus { pages, pairs }
}

/// Folds bytes into a running FNV-chain digest.
fn fold(acc: u64, bytes: &[u8]) -> u64 {
    acc.rotate_left(1) ^ fnv1a(bytes)
}

fn digest_fingerprints(fps: &[PageFingerprint]) -> u64 {
    let mut acc = 0xD16E_5700u64;
    for fp in fps {
        for c in fp.chunks() {
            acc = fold(acc, &c.offset.to_le_bytes());
            acc = fold(acc, &c.hash.to_le_bytes());
        }
    }
    acc
}

fn digest_patches(patches: &[Patch]) -> u64 {
    let mut acc = 0xD16E_5701u64;
    for p in patches {
        acc = fold(acc, &p.to_bytes());
    }
    acc
}

/// The image corpus: the first FunctionBench functions at the
/// benchmark's `mem_scale` of 512, built by builders sharing one
/// template store, as on a platform.
fn image_builders(mixture: ContentModelConfig) -> Vec<ImageBuilder> {
    let templates = Arc::new(TileTemplates::new(ContentModel {
        mixture,
        ..ContentModel::default()
    }));
    functionbench_suite()
        .iter()
        .take(4)
        .map(|p| {
            let libs: Vec<&str> = p.libs.iter().map(String::as_str).collect();
            ImageBuilder::new(FunctionSpec::new(&p.name, p.memory_bytes, &libs))
                .with_templates(Arc::clone(&templates))
                .with_scale(512)
        })
        .collect()
}

/// Builds every image of the corpus both ways, asserts them
/// byte-identical, and returns a digest of their bytes and their total
/// page count. Warms the template store as a side effect.
fn check_images(builders: &[ImageBuilder], seeds: u64) -> (u64, usize) {
    let mut acc = 0xD16E_5702u64;
    let mut pages = 0;
    for (f, b) in builders.iter().enumerate() {
        for seed in 0..seeds {
            let version = seed % 3;
            let fast = b.build_versioned(seed, version);
            let oracle = b.build_versioned_per_tile(seed, version);
            assert_eq!(fast.page_count(), b.page_count(), "closed-form page count");
            for (i, page) in fast.pages() {
                assert!(
                    page == oracle.page(i),
                    "templated build diverged: fn {f} seed {seed} page {i}"
                );
                acc = fold(acc, page);
            }
            pages += fast.page_count();
        }
    }
    (acc, pages)
}

/// Times `build` over the corpus, one image per sample, per page.
fn measure_images(
    builders: &[ImageBuilder],
    samples: usize,
    build: impl Fn(&ImageBuilder, u64) -> usize,
) -> OpStats {
    let mut ns = Vec::with_capacity(samples);
    let mut sink = 0usize;
    for i in 0..samples {
        let b = &builders[i % builders.len()];
        let t0 = Instant::now();
        sink = sink.wrapping_add(build(b, 1000 + i as u64));
        ns.push(t0.elapsed().as_nanos() as f64 / b.page_count() as f64);
    }
    std::hint::black_box(sink);
    OpStats::from_samples(ns)
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("microbench", "hot-path op latency (p50/p95/p99 per op)");
    let corpus = build_corpus(cfg.quick);
    let fp_cfg = FingerprintConfig::default();
    let enc_cfg = EncodeConfig::with_level(1); // what the platform uses
    let n_pages = corpus.pages.len();
    let n_pairs = corpus.pairs.len();
    report.line(&format!(
        "corpus: {n_pages} checkpoint pages, {n_pairs} encode pairs (level 1){}",
        if cfg.quick { ", quick sizes" } else { "" }
    ));

    // --- Correctness gates first: the fast paths must be bit-identical
    // to the legacy paths on the whole corpus before timing them.
    let wide_fps: Vec<PageFingerprint> = corpus
        .pages
        .iter()
        .map(|p| page_fingerprint(p, &fp_cfg))
        .collect();
    let scalar_fps: Vec<PageFingerprint> = corpus
        .pages
        .iter()
        .map(|p| page_fingerprint_scalar(p, &fp_cfg))
        .collect();
    assert_eq!(wide_fps, scalar_fps, "wide scan diverged from scalar");
    let slices: Vec<&[u8]> = corpus.pages.iter().map(Vec::as_slice).collect();
    assert_eq!(
        pages_fingerprints(&slices, &fp_cfg),
        wide_fps,
        "batch scan diverged from per-page scan"
    );
    let mut scratch = EncodeScratch::new();
    let mut patches = Vec::with_capacity(n_pairs);
    let mut out = Vec::new();
    for (base, target) in &corpus.pairs {
        let fast = encode_with(base, target, &enc_cfg, &mut scratch);
        let reference = encode_reference(base, target, &enc_cfg);
        assert_eq!(
            fast.to_bytes(),
            reference.to_bytes(),
            "scratch encoder diverged from reference"
        );
        assert_eq!(apply(base, &fast).expect("apply"), *target);
        apply_into(base, &fast, &mut out).expect("apply_into");
        assert_eq!(out, *target, "apply_into diverged from apply");
        let bytes = fast.to_bytes();
        let view = PatchRef::from_bytes(&bytes).expect("patch view");
        view.apply_into(base, &mut out).expect("zero-copy apply");
        assert_eq!(out, *target, "PatchRef::apply_into diverged");
        patches.push(fast);
    }
    let tile_images = image_builders(ContentModelConfig::disabled());
    let mixture_images = image_builders(ContentModelConfig::paper_calibrated());
    let check_seeds = if cfg.quick { 3 } else { 8 };
    let (tile_digest, image_pages) = check_images(&tile_images, check_seeds);
    let (mixture_digest, _) = check_images(&mixture_images, check_seeds);
    report.line(&format!(
        "equality gates: wide==scalar, batch==single, scratch==reference, into==alloc, \
         templated==per-tile image ({image_pages} pages per content model) ok"
    ));

    // --- Determinism digest (for the CI double-run diff).
    let fp_digest = digest_fingerprints(&wide_fps);
    let patch_digest = digest_patches(&patches);
    let image_digest = tile_digest.rotate_left(1) ^ mixture_digest;

    // --- Timed sections.
    let samples = if cfg.quick { 300 } else { 3000 };
    let fp_scalar = measure(samples, |i| {
        page_fingerprint_scalar(&corpus.pages[i % n_pages], &fp_cfg).len() as u64
    });
    let fp_wide = measure(samples, |i| {
        page_fingerprint(&corpus.pages[i % n_pages], &fp_cfg).len() as u64
    });
    // Batch: one sample = one whole-corpus call, reported per page.
    let batch_samples = if cfg.quick { 20 } else { 60 };
    let fp_batch_total = measure(batch_samples, |_| {
        pages_fingerprints(&slices, &fp_cfg).len() as u64
    });
    let fp_batch = OpStats {
        p50: fp_batch_total.p50 / n_pages as f64,
        p95: fp_batch_total.p95 / n_pages as f64,
        p99: fp_batch_total.p99 / n_pages as f64,
        samples: batch_samples * n_pages,
    };
    let enc_samples = if cfg.quick { 200 } else { 2000 };
    let enc_reference = measure(enc_samples, |i| {
        let (base, target) = &corpus.pairs[i % n_pairs];
        encode_reference(base, target, &enc_cfg).serialized_size() as u64
    });
    let enc_scratch = measure(enc_samples, |i| {
        let (base, target) = &corpus.pairs[i % n_pairs];
        encode_with(base, target, &enc_cfg, &mut scratch).serialized_size() as u64
    });
    let apply_samples = if cfg.quick { 2000 } else { 20000 };
    let apply_alloc = measure(apply_samples, |i| {
        let (base, _) = &corpus.pairs[i % n_pairs];
        apply(base, &patches[i % n_pairs]).expect("apply").len() as u64
    });
    let apply_into_stats = measure(apply_samples, |i| {
        let (base, _) = &corpus.pairs[i % n_pairs];
        apply_into(base, &patches[i % n_pairs], &mut out).expect("apply_into");
        out.len() as u64
    });
    let patch_bytes: Vec<Vec<u8>> = patches.iter().map(Patch::to_bytes).collect();
    let apply_ref = measure(apply_samples, |i| {
        let (base, _) = &corpus.pairs[i % n_pairs];
        let view = PatchRef::from_bytes(&patch_bytes[i % n_pairs]).expect("view");
        view.apply_into(base, &mut out).expect("zero-copy apply");
        out.len() as u64
    });

    // Image builds: one sample = one image, reported per page.
    let image_samples = if cfg.quick { 40 } else { 400 };
    let per_tile = |b: &ImageBuilder, seed| b.build_versioned_per_tile(seed, 0).page_count();
    let templated = |b: &ImageBuilder, seed| b.build_versioned(seed, 0).page_count();
    let image_per_tile = measure_images(&tile_images, image_samples, per_tile);
    let image_templated = measure_images(&tile_images, image_samples, templated);
    let mixture_per_tile = measure_images(&mixture_images, image_samples, per_tile);
    let mixture_templated = measure_images(&mixture_images, image_samples, templated);

    let ops: [(&str, OpStats); 12] = [
        ("image/per-tile", image_per_tile),
        ("image/templated", image_templated),
        ("image-mixture/per-tile", mixture_per_tile),
        ("image-mixture/templated", mixture_templated),
        ("fingerprint/scalar", fp_scalar),
        ("fingerprint/wide", fp_wide),
        ("fingerprint/batch", fp_batch),
        ("encode/reference", enc_reference),
        ("encode/scratch", enc_scratch),
        ("apply/alloc", apply_alloc),
        ("apply/into", apply_into_stats),
        ("apply/ref-into", apply_ref),
    ];
    let us = |ns: f64| f(ns / 1000.0, 3);
    report.section("per-op latency (us; image ops per page)");
    report.table(
        &["op", "p50", "p95", "p99", "samples"],
        &ops.iter()
            .map(|(name, s)| {
                vec![
                    name.to_string(),
                    us(s.p50),
                    us(s.p95),
                    us(s.p99),
                    s.samples.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- Speedup gates.
    let fp_speedup = fp_scalar.p50 / fp_wide.p50;
    let pair_speedup =
        (enc_reference.p50 + apply_alloc.p50) / (enc_scratch.p50 + apply_into_stats.p50);
    let image_speedup = image_per_tile.p50 / image_templated.p50;
    let mixture_speedup = mixture_per_tile.p50 / mixture_templated.p50;
    report.section("speedups vs the reference path (p50)");
    report.line(&format!(
        "image build: {}x tile, {}x mixture (gate >= 2x)",
        f(image_speedup, 2),
        f(mixture_speedup, 2)
    ));
    report.line(&format!(
        "fingerprint scan: {}x (gate >= 1.5x)",
        f(fp_speedup, 2)
    ));
    report.line(&format!(
        "encode+apply pair: {}x (gate >= 1.3x)",
        f(pair_speedup, 2)
    ));
    if !cfg.quick {
        assert!(
            fp_speedup >= 1.5,
            "fingerprint speedup gate failed: {fp_speedup:.2}x < 1.5x"
        );
        assert!(
            pair_speedup >= 1.3,
            "encode+apply speedup gate failed: {pair_speedup:.2}x < 1.3x"
        );
        for (content, speedup) in [("tile", image_speedup), ("mixture", mixture_speedup)] {
            assert!(
                speedup >= 2.0,
                "{content} image build speedup gate failed: {speedup:.2}x < 2x"
            );
        }
    }
    report.line(&format!(
        "determinism digest: fingerprints {fp_digest:016x}, patches {patch_digest:016x}, \
         images {image_digest:016x}"
    ));

    // --- Artifacts: JSON record, digest file, per-op perf history.
    let mut op_objs = Vec::new();
    for (name, s) in &ops {
        let mut m = JsonMap::new();
        m.insert("op", *name);
        m.insert("p50_ns", s.p50);
        m.insert("p95_ns", s.p95);
        m.insert("p99_ns", s.p99);
        m.insert("samples", s.samples as u64);
        op_objs.push(Json::Object(m));
    }
    report.json_set("ops", Json::Array(op_objs));
    report.json_set("fingerprint_speedup_p50", Json::from(fp_speedup));
    report.json_set("encode_apply_pair_speedup_p50", Json::from(pair_speedup));
    report.json_set(
        "fingerprint_digest",
        Json::from(format!("{fp_digest:016x}")),
    );
    report.json_set("patch_digest", Json::from(format!("{patch_digest:016x}")));
    report.json_set("image_speedup_p50", Json::from(image_speedup));
    report.json_set("image_mixture_speedup_p50", Json::from(mixture_speedup));
    report.json_set("image_digest", Json::from(format!("{image_digest:016x}")));
    let digest_path = cfg.results_dir.join("microbench.digest");
    let digest_body = format!(
        "fingerprints {fp_digest:016x}\npatches {patch_digest:016x}\nimages {image_digest:016x}\n"
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.results_dir)
        .and_then(|()| std::fs::write(&digest_path, &digest_body))
    {
        eprintln!("warning: failed to write {}: {e}", digest_path.display());
    }
    for (name, s) in &ops {
        perf_history::append(
            &cfg.results_dir,
            &perf_history::PerfRecord {
                experiment: format!("microbench/{name}"),
                quick: cfg.quick,
                timing: perf_history::PerfTiming::Op {
                    p50_s: s.p50 / 1e9,
                    p95_s: s.p95 / 1e9,
                    p99_s: s.p99 / 1e9,
                },
                peak_rss_bytes: perf_history::peak_rss_bytes(),
            },
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = OpStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.samples, 100);
        let one = OpStats::from_samples(vec![7.0]);
        assert_eq!((one.p50, one.p95, one.p99), (7.0, 7.0, 7.0));
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_corpus(true);
        let b = build_corpus(true);
        assert_eq!(a.pages, b.pages);
        assert_eq!(a.pairs, b.pairs);
        assert!(!a.pairs.is_empty());
    }
}
