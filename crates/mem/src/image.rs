//! Building and addressing sandbox memory images.
//!
//! [`ImageBuilder`] turns a [`FunctionSpec`] into a concrete
//! [`MemoryImage`] for a given instance seed. Images are pure functions
//! of `(spec, model, aslr, scale, instance_seed)`, so the platform can
//! rebuild a warm sandbox's bytes on demand instead of holding them.
//!
//! A build copies each region's instance-invariant tiles from the
//! builder's [`TileTemplates`] store and synthesizes only what is per
//! instance: unique tiles, heap inserts, noise, pointer relocation and
//! the stack rotation. Builders that share a store (every builder of
//! one platform) synthesize the runtime and each library once.
//!
//! ## Scale
//!
//! `scale_denom` divides every region size: at the default cluster-scale
//! setting of 64, a 90 MiB sandbox materializes 1.4 MiB of real bytes.
//! The dedup pipeline operates on the model-scale bytes; the platform
//! multiplies page counts back up for paper-scale accounting.

use crate::aslr::{rotate_content, AslrConfig};
use crate::content::{mix_seed, ContentModel, TileKind};
use crate::page::{page_align, PAGE_SIZE};
use crate::region::{Region, RegionKind};
use crate::spec::{FunctionSpec, LibraryId};
use crate::template::{TemplateKey, TileTemplates};
use std::sync::Arc;

const LAYOUT_SALT: u64 = 0x1A_0001;
const CANON_SALT: u64 = 0x1A_0002;
const HEAP_SALT: u64 = 0x1A_0003;
const STACK_SALT: u64 = 0x1A_0004;
const FILEMAP_SALT: u64 = 0x1A_0005;

/// Builds [`MemoryImage`]s for one function.
#[derive(Debug, Clone)]
pub struct ImageBuilder {
    spec: FunctionSpec,
    /// Template store; its model is this builder's content model.
    templates: Arc<TileTemplates>,
    aslr: AslrConfig,
    scale_denom: usize,
}

/// One region of an image, before any bytes exist.
struct RegionPlan<'a> {
    kind: RegionKind,
    name: &'a str,
    stream: u64,
    size: usize,
}

/// A run of consecutive tile slots holding stream tiles
/// `first..first + len`, or `len` instance-unique inserted tiles.
struct TileRun {
    first: u64,
    len: usize,
    forced_unique: bool,
}

impl ImageBuilder {
    /// Creates a builder with the default content model, ASLR disabled,
    /// and no scaling.
    pub fn new(spec: FunctionSpec) -> Self {
        ImageBuilder {
            spec,
            templates: Arc::new(TileTemplates::new(ContentModel::default())),
            aslr: AslrConfig::DISABLED,
            scale_denom: 1,
        }
    }

    /// Shares `templates` — and its content model — with other builders,
    /// so streams they have in common are synthesized once.
    pub fn with_templates(mut self, templates: Arc<TileTemplates>) -> Self {
        self.templates = templates;
        self
    }

    /// Sets the ASLR configuration.
    pub fn with_aslr(mut self, aslr: AslrConfig) -> Self {
        self.aslr = aslr;
        self
    }

    /// Divides every region size by `denom` (≥ 1).
    pub fn with_scale(mut self, denom: usize) -> Self {
        self.scale_denom = denom.max(1);
        self
    }

    /// The function spec this builder materializes.
    pub fn spec(&self) -> &FunctionSpec {
        &self.spec
    }

    fn model(&self) -> &ContentModel {
        self.templates.model()
    }

    /// The scale denominator.
    pub fn scale_denom(&self) -> usize {
        self.scale_denom
    }

    fn scaled(&self, paper_bytes: usize) -> usize {
        page_align((paper_bytes / self.scale_denom).max(self.model().tile_size))
    }

    /// The image's regions in address order: the runtime and each
    /// library on streams keyed by library identity, then the file
    /// mappings, heap and stack on the function's own streams.
    fn plan(&self) -> impl Iterator<Item = RegionPlan<'_>> {
        const RUNTIME: &str = "python-runtime";
        let libs = std::iter::once(RUNTIME)
            .chain(self.spec.libs.iter().map(|l| l.0.as_str()))
            .map(move |name| {
                let lib = LibraryId::new(name);
                RegionPlan {
                    kind: if name == RUNTIME {
                        RegionKind::Runtime
                    } else {
                        RegionKind::Library
                    },
                    name,
                    stream: lib.seed(),
                    size: self.scaled(lib.catalog_bytes()),
                }
            });

        let anon = self.spec.anon_bytes();
        let stack_paper = (anon / 10).clamp(PAGE_SIZE, 256 << 10);
        let filemap_paper = anon * 15 / 100;
        let heap_paper = anon
            .saturating_sub(stack_paper + filemap_paper)
            .max(PAGE_SIZE);
        let own = |kind, name, salt, paper_bytes| RegionPlan {
            kind,
            name,
            stream: mix_seed(self.spec.seed(), salt),
            size: self.scaled(paper_bytes),
        };
        libs.chain([
            own(RegionKind::FileMap, "filemap", FILEMAP_SALT, filemap_paper),
            own(RegionKind::Heap, "heap", HEAP_SALT, heap_paper),
            own(RegionKind::Stack, "stack", STACK_SALT, stack_paper),
        ])
    }

    /// Pages of every image this builder makes. Region sizes depend
    /// only on the spec and the scale, never on the instance or the
    /// version, so no bytes are synthesized.
    pub fn page_count(&self) -> usize {
        self.plan().map(|r| r.size).sum::<usize>() / PAGE_SIZE
    }

    /// Materializes the image for `instance_seed`.
    pub fn build(&self, instance_seed: u64) -> MemoryImage {
        self.build_versioned(instance_seed, 0)
    }

    /// Materializes the image for `instance_seed` at deploy `version`.
    /// Version 0 is byte-identical to [`ImageBuilder::build`]; a higher
    /// version remaps `ContentModelConfig::version_mutation_frac` of
    /// each stream's shared/medium tiles per epoch (rolling deploys).
    pub fn build_versioned(&self, instance_seed: u64, version: u64) -> MemoryImage {
        self.assemble(instance_seed, |plan, runs, data, va_base| {
            self.paint_templated(plan, runs, data, va_base, instance_seed, version)
        })
    }

    /// [`ImageBuilder::build_versioned`] synthesizing every tile from
    /// scratch instead of copying templates. This is the reference
    /// oracle the template path is tested and benchmarked against; the
    /// platform never calls it.
    #[doc(hidden)]
    pub fn build_versioned_per_tile(&self, instance_seed: u64, version: u64) -> MemoryImage {
        let m = self.model();
        self.assemble(instance_seed, |plan, runs, data, va_base| {
            let tiles = runs
                .iter()
                .flat_map(|r| (r.first..r.first + r.len as u64).map(move |i| (i, r.forced_unique)));
            for ((tile_idx, forced_unique), out) in tiles.zip(data.chunks_exact_mut(m.tile_size)) {
                let tk = if forced_unique {
                    TileKind::Unique
                } else {
                    let allow = crate::template::allows_unique(plan.kind);
                    m.tile_kind_region(plan.stream, tile_idx, plan.kind, allow)
                };
                m.fill_tile_v(
                    out,
                    tk,
                    plan.stream,
                    tile_idx,
                    instance_seed,
                    va_base,
                    plan.size as u64,
                    version,
                );
            }
        })
    }

    /// Builds every region of the plan: `paint` fills the tile slots,
    /// then the per-instance overlays are applied — clustered noise,
    /// dispersed noise (mixture only) and the stack's ASLR rotation.
    fn assemble(
        &self,
        instance_seed: u64,
        mut paint: impl FnMut(&RegionPlan<'_>, &[TileRun], &mut [u8], u64),
    ) -> MemoryImage {
        let m = self.model();
        let regions = self
            .plan()
            .map(|plan| {
                let canonical = canonical_base(plan.stream);
                let va_base = self.aslr.region_base(canonical, plan.stream, instance_seed);
                let runs = self.tile_runs(&plan, instance_seed);
                let mut data = vec![0u8; plan.size];
                paint(&plan, &runs, &mut data, va_base);
                m.apply_noise(&mut data, plan.stream, instance_seed);
                if m.mixture.enabled {
                    let rate = m.mixture.mix_for(plan.kind).dispersed_noise;
                    m.apply_dispersed_noise(&mut data, plan.stream, instance_seed, rate);
                }
                if plan.kind == RegionKind::Stack {
                    let shift = self.aslr.stack_shift(plan.stream, instance_seed);
                    rotate_content(&mut data, shift);
                }
                Region {
                    kind: plan.kind,
                    name: plan.name.to_string(),
                    va_base,
                    data,
                }
            })
            .collect();
        MemoryImage::new(regions)
    }

    /// Fills a region's tile slots from its stream template.
    fn paint_templated(
        &self,
        plan: &RegionPlan<'_>,
        runs: &[TileRun],
        data: &mut [u8],
        va_base: u64,
        instance_seed: u64,
        version: u64,
    ) {
        let m = self.model();
        let ts = m.tile_size;
        let key = TemplateKey {
            stream: plan.stream,
            kind: plan.kind,
            size: plan.size,
            version,
        };
        let highest = runs
            .iter()
            .filter(|r| !r.forced_unique)
            .map(|r| r.first as usize + r.len)
            .max()
            .unwrap_or(0);
        let template = self.templates.get(key, highest);
        let mut unique = |out: &mut [u8], idx: u64| {
            m.fill_tile_v(
                out,
                TileKind::Unique,
                plan.stream,
                idx,
                instance_seed,
                va_base,
                plan.size as u64,
                version,
            )
        };
        let mut slot = 0usize;
        for run in runs {
            let out = &mut data[slot * ts..(slot + run.len) * ts];
            if run.forced_unique {
                for (t, tile) in out.chunks_exact_mut(ts).enumerate() {
                    unique(tile, run.first + t as u64);
                }
            } else {
                template.paint(out, ts, run.first as usize, va_base, &mut unique);
            }
            slot += run.len;
        }
    }

    /// The region's tile slots as runs. File-backed regions and the
    /// stack are one direct run (slot `i` holds tile `i`, the same
    /// layout in every instance). The heap's pages are jittered per
    /// instance — allocation-order divergence, which breaks page
    /// alignment across instances. The jitter is page-granular: big
    /// allocations are mmap-backed, so divergence inserts/skips whole
    /// pages, shifting content by page multiples without breaking chunk
    /// alignment inside pages (what the §2 measurement observes).
    fn tile_runs(&self, plan: &RegionPlan<'_>, instance_seed: u64) -> Vec<TileRun> {
        let m = self.model();
        let n_tiles = plan.size / m.tile_size;
        if plan.kind != RegionKind::Heap {
            return vec![TileRun {
                first: 0,
                len: n_tiles,
                forced_unique: false,
            }];
        }
        let tiles_per_page = PAGE_SIZE / m.tile_size;
        let mut jitter =
            JitterRng::new(mix_seed(plan.stream, mix_seed(instance_seed, LAYOUT_SALT)));
        let mut runs = Vec::new();
        let (mut shared_page, mut own_page, mut filled) = (0u64, 0u64, 0usize);
        while filled < n_tiles {
            let u = jitter.next_f64();
            let len = tiles_per_page.min(n_tiles - filled);
            if u < m.heap_insert_prob {
                // Inserted instance-unique allocation (one page).
                runs.push(TileRun {
                    first: (1u64 << 40) + own_page * tiles_per_page as u64,
                    len,
                    forced_unique: true,
                });
            } else {
                if u < m.heap_insert_prob + m.heap_skip_prob {
                    shared_page += 1; // this instance skipped a page
                }
                runs.push(TileRun {
                    first: shared_page * tiles_per_page as u64,
                    len,
                    forced_unique: false,
                });
                shared_page += 1;
            }
            own_page += 1;
            filled += len;
        }
        runs
    }
}

/// Heap layout jitter needs only uniform draws; a tiny dedicated LCG-ish
/// stream keeps `DetRng` allocations out of the hot loop.
struct JitterRng(u64);

impl JitterRng {
    fn new(seed: u64) -> Self {
        JitterRng(seed | 1)
    }
    fn next_f64(&mut self) -> f64 {
        self.0 = mix_seed(self.0, 0x9E37);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn canonical_base(stream_seed: u64) -> u64 {
    // Spread canonical bases through a 47-bit user-space range,
    // page-aligned, deterministic per stream.
    0x5000_0000_0000 + (mix_seed(stream_seed, CANON_SALT) % (1 << 30)) * PAGE_SIZE as u64
}

/// A materialized sandbox memory image.
#[derive(Debug, Clone)]
pub struct MemoryImage {
    regions: Vec<Region>,
    /// Cumulative page counts: `page_prefix[i]` = pages before region i.
    page_prefix: Vec<usize>,
    total_pages: usize,
}

impl MemoryImage {
    /// Wraps a list of regions (each page-aligned).
    pub fn new(regions: Vec<Region>) -> Self {
        let mut page_prefix = Vec::with_capacity(regions.len());
        let mut total = 0usize;
        for r in &regions {
            debug_assert_eq!(r.data.len() % PAGE_SIZE, 0, "regions must be page-aligned");
            page_prefix.push(total);
            total += r.page_count();
        }
        MemoryImage {
            regions,
            page_prefix,
            total_pages: total,
        }
    }

    /// The regions, in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes of content.
    pub fn total_bytes(&self) -> usize {
        self.total_pages * PAGE_SIZE
    }

    /// Total pages.
    pub fn page_count(&self) -> usize {
        self.total_pages
    }

    /// Borrows global page `i`.
    ///
    /// # Panics
    /// Panics if `i >= page_count()`.
    pub fn page(&self, i: usize) -> &[u8] {
        let (r, local) = self.locate(i);
        self.regions[r].page(local)
    }

    /// Maps a global page index to `(region_index, local_page_index)`.
    pub fn locate(&self, page: usize) -> (usize, usize) {
        assert!(page < self.total_pages, "page {page} out of range");
        let r = match self.page_prefix.binary_search(&page) {
            Ok(exact) => {
                // May be the start of an empty region; walk to the one
                // that actually contains pages.
                let mut i = exact;
                while self.regions[i].page_count() == 0 {
                    i += 1;
                }
                i
            }
            Err(ins) => ins - 1,
        };
        (r, page - self.page_prefix[r])
    }

    /// Iterates `(page_index, page_bytes)` over the whole image.
    pub fn pages(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let mut idx = 0usize;
        self.regions.iter().flat_map(move |r| {
            let base = idx;
            idx += r.page_count();
            (0..r.page_count()).map(move |i| (base + i, r.page(i)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FunctionSpec {
        // 16 MiB total: ~6.5 MiB runtime+json, ~9.5 MiB anonymous, so
        // both file-backed and heap behaviours are exercised.
        FunctionSpec::new("TestFn", 16 << 20, &["json"])
    }

    fn builder() -> ImageBuilder {
        ImageBuilder::new(spec()).with_scale(16)
    }

    #[test]
    fn build_is_deterministic() {
        let b = builder();
        let a = b.build(7);
        let c = b.build(7);
        assert_eq!(a.page_count(), c.page_count());
        for i in 0..a.page_count() {
            assert_eq!(a.page(i), c.page(i), "page {i}");
        }
    }

    #[test]
    fn instances_differ_but_share_most_content() {
        let b = builder();
        let a = b.build(1);
        let c = b.build(2);
        assert_eq!(a.page_count(), c.page_count());
        let mut identical_pages = 0usize;
        for i in 0..a.page_count() {
            if a.page(i) == c.page(i) {
                identical_pages += 1;
            }
        }
        assert!(identical_pages > 0, "library pages should match exactly");
        assert!(
            identical_pages < a.page_count(),
            "heap/unique pages should differ"
        );
    }

    #[test]
    fn has_expected_regions() {
        let img = builder().build(3);
        let kinds: Vec<RegionKind> = img.regions().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegionKind::Runtime));
        assert!(kinds.contains(&RegionKind::Library));
        assert!(kinds.contains(&RegionKind::FileMap));
        assert!(kinds.contains(&RegionKind::Heap));
        assert!(kinds.contains(&RegionKind::Stack));
    }

    #[test]
    fn page_addressing_consistent() {
        let img = builder().build(4);
        let total = img.page_count();
        assert_eq!(img.total_bytes(), total * PAGE_SIZE);
        let mut seen = 0usize;
        for (i, page) in img.pages() {
            assert_eq!(i, seen);
            assert_eq!(page, img.page(i));
            seen += 1;
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn library_regions_shared_across_functions() {
        let m = ContentModel {
            noise_rate: 0.0, // isolate the layout effect
            ..ContentModel::default()
        };
        let f1 = ImageBuilder::new(FunctionSpec::new("F1", 4 << 20, &["numpy"]))
            .with_scale(16)
            .with_templates(Arc::new(TileTemplates::new(m.clone())));
        let f2 = ImageBuilder::new(FunctionSpec::new("F2", 6 << 20, &["numpy"]))
            .with_scale(16)
            .with_templates(Arc::new(TileTemplates::new(m)));
        let i1 = f1.build(10);
        let i2 = f2.build(20);
        let numpy1 = i1.regions().iter().find(|r| r.name == "numpy").unwrap();
        let numpy2 = i2.regions().iter().find(|r| r.name == "numpy").unwrap();
        assert_eq!(numpy1.data, numpy2.data, "shared library bytes must match");
    }

    #[test]
    fn aslr_changes_pointers_not_layout() {
        let b_off = builder();
        let b_on = builder().with_aslr(AslrConfig::LINUX);
        let off = b_off.build(5);
        let on = b_on.build(5);
        assert_eq!(off.page_count(), on.page_count());
        // At the byte level only pointer words and the stack rotation
        // may differ — that is what keeps the ASLR redundancy drop small
        // (Fig 1b).
        let mut diff_bytes = 0usize;
        for i in 0..off.page_count() {
            diff_bytes += off
                .page(i)
                .iter()
                .zip(on.page(i))
                .filter(|(a, b)| a != b)
                .count();
        }
        let frac = diff_bytes as f64 / off.total_bytes() as f64;
        assert!(frac > 0.0, "ASLR must change something");
        assert!(frac < 0.10, "ASLR changed {:.1}% of bytes", frac * 100.0);
    }

    #[test]
    fn scale_reduces_size_proportionally() {
        let s1 = ImageBuilder::new(spec())
            .with_scale(1)
            .build(1)
            .total_bytes();
        let s16 = ImageBuilder::new(spec())
            .with_scale(16)
            .build(1)
            .total_bytes();
        let ratio = s1 as f64 / s16 as f64;
        assert!((8.0..24.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn version_zero_matches_unversioned_build() {
        for mixture in [
            crate::content::ContentModelConfig::disabled(),
            crate::content::ContentModelConfig::paper_calibrated(),
        ] {
            let b = builder().with_templates(Arc::new(TileTemplates::new(ContentModel {
                mixture,
                ..ContentModel::default()
            })));
            let a = b.build(9);
            let v0 = b.build_versioned(9, 0);
            assert_eq!(a.page_count(), v0.page_count());
            for i in 0..a.page_count() {
                assert_eq!(a.page(i), v0.page(i), "page {i}");
            }
        }
    }

    #[test]
    fn version_bump_changes_pages_without_changing_layout() {
        let b = builder();
        let v0 = b.build_versioned(9, 0);
        let v1 = b.build_versioned(9, 1);
        assert_eq!(v0.page_count(), v1.page_count(), "layout is stable");
        let changed = (0..v0.page_count())
            .filter(|&i| v0.page(i) != v1.page(i))
            .count();
        assert!(changed > 0, "a version epoch must remap some pages");
        assert!(
            changed < v0.page_count(),
            "pattern/unique pages are version-invariant"
        );
        // Epochs are cumulative and deterministic.
        let v1b = b.build_versioned(9, 1);
        for i in 0..v1.page_count() {
            assert_eq!(v1.page(i), v1b.page(i));
        }
    }

    #[test]
    fn mixture_reduces_cross_instance_identity() {
        let plain = builder();
        let mixed = builder().with_templates(Arc::new(TileTemplates::new(ContentModel {
            mixture: crate::content::ContentModelConfig::paper_calibrated(),
            ..ContentModel::default()
        })));
        let identical = |a: &MemoryImage, b: &MemoryImage| {
            (0..a.page_count())
                .filter(|&i| a.page(i) == b.page(i))
                .count() as f64
                / a.page_count() as f64
        };
        let p = identical(&plain.build(1), &plain.build(2));
        let m = identical(&mixed.build(1), &mixed.build(2));
        assert!(
            m < p,
            "dispersed noise must lower the identical-page fraction: {m} vs {p}"
        );
    }

    fn assert_same_image(a: &MemoryImage, b: &MemoryImage, what: &str) {
        assert_eq!(a.page_count(), b.page_count(), "{what}");
        for (ra, rb) in a.regions().iter().zip(b.regions()) {
            assert_eq!(
                (ra.kind, &ra.name, ra.va_base),
                (rb.kind, &rb.name, rb.va_base)
            );
            assert!(ra.data == rb.data, "{what}: region {} differs", ra.name);
        }
    }

    #[test]
    fn page_count_is_closed_form() {
        for scale in [16, 64, 512] {
            let b = ImageBuilder::new(spec()).with_scale(scale);
            assert_eq!(b.page_count(), b.build(3).page_count(), "scale {scale}");
            assert_eq!(b.page_count(), b.build_versioned(3, 2).page_count());
        }
    }

    #[test]
    fn templated_builds_match_the_per_tile_oracle() {
        let mut rng = medes_sim::DetRng::new(0x7E3A_97A7E);
        for mixture in [
            crate::content::ContentModelConfig::disabled(),
            crate::content::ContentModelConfig::paper_calibrated(),
        ] {
            let model = ContentModel {
                mixture,
                ..ContentModel::default()
            };
            for aslr in [AslrConfig::DISABLED, AslrConfig::LINUX] {
                // One store for several builders, as in a platform.
                let store = Arc::new(TileTemplates::new(model.clone()));
                let builders = [
                    builder().with_templates(Arc::clone(&store)).with_aslr(aslr),
                    ImageBuilder::new(FunctionSpec::new("Other", 12 << 20, &["json", "numpy"]))
                        .with_scale(16)
                        .with_templates(Arc::clone(&store))
                        .with_aslr(aslr),
                ];
                for version in 0..4 {
                    for b in &builders {
                        let seed = rng.next_u64();
                        let what = format!("{} seed {seed} v{version}", b.spec().name);
                        assert_same_image(
                            &b.build_versioned(seed, version),
                            &b.build_versioned_per_tile(seed, version),
                            &what,
                        );
                    }
                }
                assert!(store.bytes() > 0);
            }
        }
    }

    #[test]
    fn heap_template_grows_past_its_first_size() {
        let b = builder();
        let heap_plan = || b.plan().find(|r| r.kind == RegionKind::Heap).unwrap();
        let highest = |seed| {
            b.tile_runs(&heap_plan(), seed)
                .iter()
                .filter(|r| !r.forced_unique)
                .map(|r| r.first as usize + r.len)
                .max()
                .unwrap()
        };
        let first = highest(1);
        b.build(1);
        let bytes = b.templates.bytes();
        // Find an instance whose jittered layout asks for more tiles.
        let seed = (2..200u64)
            .find(|&s| highest(s) > first)
            .expect("some layout overruns the first template");
        assert_same_image(
            &b.build(seed),
            &b.build_versioned_per_tile(seed, 0),
            "overrun",
        );
        assert!(b.templates.bytes() > bytes, "the heap template must grow");
        // Earlier instances still rebuild identically from the grown one.
        assert_same_image(&b.build(1), &b.build_versioned_per_tile(1, 0), "regrown");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_out_of_range_panics() {
        let img = builder().build(1);
        let _ = img.page(img.page_count());
    }
}
