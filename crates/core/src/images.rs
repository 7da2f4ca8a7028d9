//! The image factory: deterministic builds + base-image caching.
//!
//! Sandbox memory images are pure functions of `(function, instance
//! seed, version)`, so the platform holds real bytes only where the
//! system semantically requires residency: **base sandbox images**
//! (pinned, the registry points into them) are cached here. Every other
//! image is built when a dedup scan or restore needs its bytes, from
//! one [`TileTemplates`] store shared by all functions: each stream's
//! instance-invariant tiles are synthesized on its first use and copied
//! afterwards, so a build pays only for per-instance content. Page
//! counts are closed-form, so spawning a sandbox builds nothing.

use crate::ids::FnId;
use medes_mem::{AslrConfig, ContentModel, FunctionSpec, ImageBuilder, MemoryImage, TileTemplates};
use medes_trace::FunctionProfile;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds and caches sandbox memory images.
#[derive(Debug)]
pub struct ImageFactory {
    builders: Vec<ImageBuilder>,
    /// The tile templates every builder shares.
    templates: Arc<TileTemplates>,
    /// Pinned images (base sandboxes): key = (function, instance seed,
    /// code version). Rolling deploys give distinct versions distinct
    /// content, so the version participates in identity.
    pinned: HashMap<(usize, u64, u64), Arc<MemoryImage>>,
}

// The shared template store must not make the factory thread-bound.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ImageFactory>()
};

impl ImageFactory {
    /// Creates a factory for the given function profiles.
    pub fn new(
        profiles: &[FunctionProfile],
        model: ContentModel,
        aslr: AslrConfig,
        mem_scale: usize,
    ) -> Self {
        // Templates are synthesized lazily, on each stream's first build.
        let templates = Arc::new(TileTemplates::new(model));
        let builders = profiles
            .iter()
            .map(|p| {
                let libs: Vec<&str> = p.libs.iter().map(|s| s.as_str()).collect();
                let spec = FunctionSpec::new(&p.name, p.memory_bytes, &libs);
                ImageBuilder::new(spec)
                    .with_templates(Arc::clone(&templates))
                    .with_aslr(aslr)
                    .with_scale(mem_scale)
            })
            .collect();
        ImageFactory {
            builders,
            templates,
            pinned: HashMap::new(),
        }
    }

    /// Number of functions.
    pub fn functions(&self) -> usize {
        self.builders.len()
    }

    /// Generates (or fetches, if pinned) the image for a sandbox at
    /// code version 0 (the initial deployment — the only version that
    /// exists without a rolling-deploy schedule).
    pub fn image(&self, func: FnId, instance_seed: u64) -> Arc<MemoryImage> {
        self.image_v(func, instance_seed, 0)
    }

    /// Generates (or fetches, if pinned) the image for a sandbox at a
    /// specific code version. Version 0 is byte-identical to the
    /// unversioned build.
    pub fn image_v(&self, func: FnId, instance_seed: u64, version: u64) -> Arc<MemoryImage> {
        if let Some(img) = self.pinned.get(&(func.0, instance_seed, version)) {
            return Arc::clone(img);
        }
        Arc::new(self.builders[func.0].build_versioned(instance_seed, version))
    }

    /// Model-scale page count of a function's image. Region sizes depend
    /// only on the spec and the scale, so nothing is built.
    pub fn model_pages(&self, func: FnId) -> usize {
        self.builders[func.0].page_count()
    }

    /// Drops the tile templates of every code version `keep` rejects.
    /// Images of those versions stay buildable, at full synthesis cost.
    pub fn retain_template_versions(&self, keep: impl FnMut(u64) -> bool) {
        self.templates.retain_versions(keep);
    }

    /// Heap bytes held by the shared tile templates.
    #[cfg(test)]
    pub fn template_bytes(&self) -> usize {
        self.templates.bytes()
    }

    /// Pins a base sandbox's image (version 0) so the registry can
    /// reference its pages without regeneration cost.
    pub fn pin(&mut self, func: FnId, instance_seed: u64) -> Arc<MemoryImage> {
        self.pin_v(func, instance_seed, 0)
    }

    /// Pins a base sandbox's image at a specific code version.
    pub fn pin_v(&mut self, func: FnId, instance_seed: u64, version: u64) -> Arc<MemoryImage> {
        let img = self.image_v(func, instance_seed, version);
        self.pinned
            .insert((func.0, instance_seed, version), Arc::clone(&img));
        img
    }

    /// Unpins a base sandbox's image (version 0).
    pub fn unpin(&mut self, func: FnId, instance_seed: u64) {
        self.unpin_v(func, instance_seed, 0);
    }

    /// Unpins a base sandbox's image at a specific code version.
    pub fn unpin_v(&mut self, func: FnId, instance_seed: u64, version: u64) {
        self.pinned.remove(&(func.0, instance_seed, version));
    }

    /// Currently pinned images (≈ base sandboxes alive).
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_trace::functionbench_suite;

    fn factory() -> ImageFactory {
        ImageFactory::new(
            &functionbench_suite()[..3],
            ContentModel::default(),
            AslrConfig::DISABLED,
            256,
        )
    }

    #[test]
    fn images_are_deterministic() {
        let f = factory();
        let a = f.image(FnId(0), 7);
        let b = f.image(FnId(0), 7);
        assert_eq!(a.page_count(), b.page_count());
        assert_eq!(a.page(0), b.page(0));
    }

    #[test]
    fn pinning_caches() {
        let mut f = factory();
        assert_eq!(f.pinned_count(), 0);
        let img = f.pin(FnId(1), 3);
        assert_eq!(f.pinned_count(), 1);
        let again = f.image(FnId(1), 3);
        assert!(Arc::ptr_eq(&img, &again), "pinned image must be shared");
        f.unpin(FnId(1), 3);
        assert_eq!(f.pinned_count(), 0);
    }

    #[test]
    fn versioned_images_are_distinct_identities() {
        let mut f = factory();
        // Version 0 is the unversioned build.
        let v0 = f.image_v(FnId(0), 7, 0);
        let legacy = f.image(FnId(0), 7);
        assert_eq!(v0.page(0), legacy.page(0));
        // A version bump changes content but not layout.
        let v1 = f.image_v(FnId(0), 7, 1);
        assert_eq!(v0.page_count(), v1.page_count());
        let changed = (0..v0.page_count()).any(|p| v0.page(p) != v1.page(p));
        assert!(changed, "version bump must perturb some pages");
        // Pins are per-version: pinning v1 leaves v0 unpinned.
        let pinned = f.pin_v(FnId(0), 7, 1);
        let again = f.image_v(FnId(0), 7, 1);
        assert!(Arc::ptr_eq(&pinned, &again));
        let v0_again = f.image_v(FnId(0), 7, 0);
        assert!(!Arc::ptr_eq(&pinned, &v0_again));
        f.unpin_v(FnId(0), 7, 1);
        assert_eq!(f.pinned_count(), 0);
    }

    #[test]
    fn closed_form_page_count_matches_built_images() {
        let suite = functionbench_suite();
        for mixture in [
            medes_mem::ContentModelConfig::disabled(),
            medes_mem::ContentModelConfig::paper_calibrated(),
        ] {
            let model = ContentModel {
                mixture,
                ..ContentModel::default()
            };
            for scale in [32, 64, 256, 512] {
                let f = ImageFactory::new(&suite, model.clone(), AslrConfig::DISABLED, scale);
                for (func, profile) in suite.iter().enumerate() {
                    for version in [0, 2] {
                        let built = f.image_v(FnId(func), 11, version).page_count();
                        assert_eq!(
                            f.model_pages(FnId(func)),
                            built,
                            "{} at scale {scale} v{version}",
                            profile.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn functions_share_runtime_templates() {
        let f = factory();
        f.image(FnId(0), 1);
        let one = f.template_bytes();
        assert!(one > 0, "a build fills the template store");
        f.image(FnId(0), 2);
        assert_eq!(f.template_bytes(), one, "a second instance adds nothing");
        f.image(FnId(1), 1);
        let image_bytes = f.model_pages(FnId(1)) * medes_mem::PAGE_SIZE;
        assert!(
            f.template_bytes() - one < image_bytes,
            "the runtime template is reused, so a second function adds less than its image"
        );
    }

    #[test]
    fn page_counts_track_function_size() {
        let f = factory();
        // Vanilla (17MB) < LinAlg (32MB).
        assert!(f.model_pages(FnId(0)) < f.model_pages(FnId(1)));
        assert_eq!(f.functions(), 3);
    }
}
