//! Micro-benchmarks for the hashing primitives: SHA-1 and value-sampled
//! page fingerprints — the per-page costs of the dedup op's
//! identification phase.

use medes_bench::harness::{BenchmarkId, Criterion, Throughput};
use medes_hash::sample::{
    page_fingerprint, page_fingerprint_scalar, pages_fingerprints, FingerprintConfig,
};
use medes_hash::{chunk_hash, Sha1};
use medes_sim::DetRng;

fn page(seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut p = vec![0u8; 4096];
    rng.fill_bytes(&mut p);
    p
}

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [64usize, 4096, 65536] {
        let data = page(1).repeat(size.div_ceil(4096));
        let data = &data[..size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| Sha1::digest(d))
        });
    }
    g.finish();
}

fn bench_chunk_hash(c: &mut Criterion) {
    let p = page(2);
    c.bench_function("chunk_hash_64B", |b| b.iter(|| chunk_hash(&p[..64])));
}

fn bench_fingerprint(c: &mut Criterion) {
    let p = page(4);
    let mut g = c.benchmark_group("fingerprint");
    g.throughput(Throughput::Bytes(p.len() as u64));
    for card in [5usize, 10, 20] {
        let cfg = FingerprintConfig {
            cardinality: card,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("page", card), &cfg, |b, cfg| {
            b.iter(|| page_fingerprint(&p, cfg))
        });
    }
    // Legacy byte-at-a-time scan, kept as the wide scan's comparator.
    let cfg = FingerprintConfig::default();
    g.bench_with_input(BenchmarkId::new("page_scalar", 10), &cfg, |b, cfg| {
        b.iter(|| page_fingerprint_scalar(&p, cfg))
    });
    g.finish();
}

fn bench_fingerprint_batch(c: &mut Criterion) {
    let pages: Vec<Vec<u8>> = (0..32).map(|i| page(100 + i)).collect();
    let slices: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
    let cfg = FingerprintConfig::default();
    let mut g = c.benchmark_group("fingerprint");
    g.throughput(Throughput::Bytes((slices.len() * 4096) as u64));
    g.bench_function("batch_32_pages", |b| {
        b.iter(|| pages_fingerprints(&slices, &cfg))
    });
    g.finish();
}

medes_bench::bench_group!(
    benches,
    bench_sha1,
    bench_chunk_hash,
    bench_fingerprint,
    bench_fingerprint_batch
);
medes_bench::bench_main!(benches);
