//! Fig 1 — the §2.1 measurement study.
//!
//! * Fig 1a: same-function redundancy vs chunk size, ASLR disabled.
//! * Fig 1b: same, ASLR enabled.
//! * Fig 1c: cross-function redundancy matrix at 64 B chunks.
//!
//! Paper reference: same-function redundancy ~0.85–0.95 at 64 B,
//! decaying with chunk size; the cross-function matrix sits in a narrow
//! 0.84–0.90 band; ASLR costs ~5 % at 64 B.

use crate::common::ExpConfig;
use crate::report::{f, Report};
use medes_mem::redundancy::redundancy;
use medes_mem::{AslrConfig, ContentModel, FunctionSpec, ImageBuilder, MemoryImage, TileTemplates};
use medes_trace::functionbench_suite;
use std::sync::Arc;

const CHUNK_SIZES: &[usize] = &[64, 128, 256, 512, 1024];

/// One builder per FunctionBench function, all sharing one template
/// store so the runtime and common libraries are synthesized once.
fn suite_builders(aslr: AslrConfig, scale: usize) -> Vec<(String, ImageBuilder)> {
    let templates = Arc::new(TileTemplates::new(ContentModel::default()));
    functionbench_suite()
        .iter()
        .map(|p| {
            let libs: Vec<&str> = p.libs.iter().map(|s| s.as_str()).collect();
            let builder = ImageBuilder::new(FunctionSpec::new(&p.name, p.memory_bytes, &libs))
                .with_templates(Arc::clone(&templates))
                .with_aslr(aslr)
                .with_scale(scale);
            (p.name.clone(), builder)
        })
        .collect()
}

fn images_for_suite(cfg: &ExpConfig, aslr: AslrConfig) -> Vec<(String, MemoryImage, MemoryImage)> {
    suite_builders(aslr, cfg.study_scale())
        .into_iter()
        .map(|(name, b)| (name, b.build(1), b.build(2)))
        .collect()
}

fn run_redundancy_curve(cfg: &ExpConfig, aslr: AslrConfig, id: &str, title: &str) -> Report {
    let mut report = Report::new(id, title);
    let images = images_for_suite(cfg, aslr);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, a, b) in &images {
        let mut row = vec![name.clone()];
        let mut series = Vec::new();
        for &k in CHUNK_SIZES {
            let r = redundancy(a, b, k).fraction();
            row.push(f(r, 3));
            series.push(medes_obs::json!({ "chunk": k, "redundancy": r }));
        }
        rows.push(row);
        json.push(medes_obs::json!({ "function": name, "series": series }));
    }
    let header: Vec<String> = std::iter::once("function".to_string())
        .chain(CHUNK_SIZES.iter().map(|k| format!("{k}B")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    report.table(&header_refs, &rows);
    report.line("");
    report.line("paper: ~0.85-0.95 at 64B, monotonically decaying with chunk size");
    report.json_set("functions", medes_obs::Json::Array(json));
    report
}

/// Fig 1a: ASLR disabled (the upper bound).
pub fn run_fig1a(cfg: &ExpConfig) -> Report {
    run_redundancy_curve(
        cfg,
        AslrConfig::DISABLED,
        "fig1a",
        "same-function memory redundancy vs chunk size (ASLR off)",
    )
}

/// Fig 1b: ASLR enabled.
pub fn run_fig1b(cfg: &ExpConfig) -> Report {
    let mut r = run_redundancy_curve(
        cfg,
        AslrConfig::LINUX,
        "fig1b",
        "same-function memory redundancy vs chunk size (ASLR on)",
    );
    r.line("paper: ~5% below the ASLR-off curve at 64B chunks");
    r
}

/// Fig 1c: cross-function redundancy matrix at 64 B.
pub fn run_fig1c(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "fig1c",
        "cross-function redundancy at 64B (row function w.r.t. column function)",
    );
    // The matrix is O(n^2) pairs, so it runs at half the study's size.
    let images: Vec<(String, MemoryImage)> =
        suite_builders(AslrConfig::DISABLED, cfg.study_scale() * 2)
            .into_iter()
            .map(|(name, b)| (name, b.build(1)))
            .collect();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (bname, bimg) in &images {
        let mut row = vec![bname.clone()];
        let mut jr = Vec::new();
        for (_, aimg) in &images {
            let r = redundancy(aimg, bimg, 64).fraction();
            row.push(f(r, 2));
            jr.push(r);
        }
        rows.push(row);
        json_rows.push(medes_obs::json!(jr));
    }
    let header: Vec<String> = std::iter::once("w.r.t. ->".to_string())
        .chain(images.iter().map(|(n, _)| n.clone()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    report.table(&header_refs, &rows);
    report.line("");
    report.line("paper: narrow 0.84-0.90 band across all pairs (Fig 1c)");
    report.json_set("matrix", medes_obs::Json::Array(json_rows));
    report.json_set(
        "functions",
        medes_obs::json!(images.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()),
    );
    report
}
