//! The tile template store: every stream's instance-invariant bytes,
//! synthesized once.
//!
//! Pattern, shared and medium tiles are pure functions of
//! `(stream seed, tile index, version)`; the pointer words planted in
//! shared tiles add only the region length and the region base. None of
//! that depends on the instance, so a [`TileTemplates`] store keeps each
//! stream's non-unique tile bytes, its tile kinds, and its pointer words
//! as `(position, offset)` slots, keyed by
//! `(stream seed, region kind, region size, version)`. An image build
//! copies the template, relocates the pointer slots to its own region
//! base (`base + offset`), and synthesizes only what is per instance:
//! unique tiles, heap inserts, noise and the stack rotation.
//!
//! Templates are built lazily, on a stream's first use, and grow: a
//! jittered heap asks for tile indices past its slot count, so its
//! template is extended up to the highest index a layout requests. A
//! heap template never exceeds twice its region (a page iteration
//! advances the shared index by at most two pages). Per version, the
//! store holds about one image per function, with the runtime and each
//! library stored once for all functions. Every deploy version adds
//! another such set, so an owner that knows which versions can still be
//! built drops the rest with [`TileTemplates::retain_versions`].

use crate::content::{ContentModel, TileKind};
use crate::region::RegionKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identifies one stream's template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TemplateKey {
    /// Content stream seed.
    pub stream: u64,
    /// Region kind (picks the tile-kind weights and whether unique
    /// tiles are allowed).
    pub kind: RegionKind,
    /// Region size in bytes (the range planted pointers fall in).
    pub size: usize,
    /// Deploy version (selects the epoch remapping of shared tiles).
    pub version: u64,
}

/// Unique tiles are only physical in writable anonymous memory;
/// file-backed regions are byte-identical in every process.
pub(crate) fn allows_unique(kind: RegionKind) -> bool {
    matches!(kind, RegionKind::Heap | RegionKind::Stack)
}

/// A pointer word of a shared tile: `at` is its byte position in the
/// template, and the word holds `region_base + offset`.
#[derive(Debug, Clone, Copy)]
struct PtrSlot {
    at: usize,
    offset: u64,
}

/// The first `kinds.len()` tiles of one stream.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamTemplate {
    /// Tile `i` occupies `bytes[i * tile_size..]`; unique tiles are zero.
    bytes: Vec<u8>,
    kinds: Vec<TileKind>,
    /// Tile `i`'s pointer slots are `ptrs[ptr_start[i]..ptr_start[i + 1]]`.
    ptr_start: Vec<u32>,
    ptrs: Vec<PtrSlot>,
}

impl StreamTemplate {
    /// Tiles held.
    pub fn tiles(&self) -> usize {
        self.kinds.len()
    }

    /// Synthesizes tiles `self.tiles()..tiles` of stream `key`.
    fn extend(&mut self, model: &ContentModel, key: &TemplateKey, tiles: usize) {
        let ts = model.tile_size;
        let from = self.tiles();
        if self.ptr_start.is_empty() {
            self.ptr_start.push(0);
        }
        // Exact growth: a template is sized by the layouts that read it.
        self.kinds.reserve_exact(tiles - from);
        self.ptr_start.reserve_exact(tiles - from);
        self.bytes.reserve_exact((tiles - from) * ts);
        self.bytes.resize(tiles * ts, 0);
        for idx in from..tiles {
            let i = idx as u64;
            let kind = model.tile_kind_region(key.stream, i, key.kind, allows_unique(key.kind));
            if kind != TileKind::Unique {
                // Region length 0 plants no pointers: they are slots.
                let out = &mut self.bytes[idx * ts..(idx + 1) * ts];
                model.fill_tile_v(out, kind, key.stream, i, 0, 0, 0, key.version);
            }
            if kind == TileKind::Shared {
                let ptrs = &mut self.ptrs;
                model.pointer_slots(key.stream, i, key.size as u64, |at, offset| {
                    ptrs.push(PtrSlot {
                        at: idx * ts + at,
                        offset,
                    })
                });
            }
            self.kinds.push(kind);
            self.ptr_start.push(self.ptrs.len() as u32);
        }
    }

    /// Writes tiles `first..first + out.len() / tile_size` into `out`:
    /// the template bytes with every pointer slot relocated to
    /// `region_base`, and `unique(tile, index)` called for each unique
    /// tile.
    pub fn paint(
        &self,
        out: &mut [u8],
        tile_size: usize,
        first: usize,
        region_base: u64,
        mut unique: impl FnMut(&mut [u8], u64),
    ) {
        let start = first * tile_size;
        let n = out.len() / tile_size;
        out.copy_from_slice(&self.bytes[start..start + out.len()]);
        let slots = self.ptr_start[first] as usize..self.ptr_start[first + n] as usize;
        for p in &self.ptrs[slots] {
            let at = p.at - start;
            out[at..at + 8].copy_from_slice(&region_base.wrapping_add(p.offset).to_le_bytes());
        }
        for (t, tile) in out.chunks_exact_mut(tile_size).enumerate() {
            if self.kinds[first + t] == TileKind::Unique {
                unique(tile, (first + t) as u64);
            }
        }
    }

    /// Bytes held.
    fn footprint(&self) -> usize {
        self.bytes.capacity()
            + self.kinds.capacity() * std::mem::size_of::<TileKind>()
            + self.ptr_start.capacity() * std::mem::size_of::<u32>()
            + self.ptrs.capacity() * std::mem::size_of::<PtrSlot>()
    }
}

/// Instance-invariant tile content for every stream the builders that
/// share this store have built, under one [`ContentModel`].
///
/// The store is `Send + Sync`: builders on different threads share it,
/// and a template is synthesized under the store's lock on first use.
pub struct TileTemplates {
    model: ContentModel,
    streams: Mutex<HashMap<TemplateKey, Arc<StreamTemplate>>>,
}

impl TileTemplates {
    /// An empty store for `model`.
    pub fn new(model: ContentModel) -> Self {
        TileTemplates {
            model,
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// The content model every template is synthesized under.
    pub fn model(&self) -> &ContentModel {
        &self.model
    }

    /// Number of stream templates held.
    fn streams(&self) -> usize {
        self.streams.lock().unwrap().len()
    }

    /// Heap bytes the templates hold.
    pub fn bytes(&self) -> usize {
        let streams = self.streams.lock().unwrap();
        streams.values().map(|t| t.footprint()).sum()
    }

    /// Drops every template whose deploy version fails `keep`. Builds
    /// stay correct either way: a dropped template is synthesized again
    /// on its next use.
    pub fn retain_versions(&self, mut keep: impl FnMut(u64) -> bool) {
        self.streams.lock().unwrap().retain(|k, _| keep(k.version));
    }

    /// The template of `key` holding at least `tiles` tiles, built or
    /// extended on demand.
    pub(crate) fn get(&self, key: TemplateKey, tiles: usize) -> Arc<StreamTemplate> {
        let mut streams = self.streams.lock().unwrap();
        let t = streams.entry(key).or_default();
        if t.tiles() < tiles {
            // Copies only while an in-flight build still holds the old one.
            Arc::make_mut(t).extend(&self.model, &key, tiles);
        }
        Arc::clone(t)
    }
}

impl std::fmt::Debug for TileTemplates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileTemplates")
            .field("streams", &self.streams())
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kind: RegionKind) -> TemplateKey {
        TemplateKey {
            stream: 42,
            kind,
            size: 64 << 10,
            version: 0,
        }
    }

    #[test]
    fn templates_are_built_once_and_grow_on_demand() {
        let store = TileTemplates::new(ContentModel::default());
        let a = store.get(key(RegionKind::Heap), 16);
        assert_eq!(a.tiles(), 16);
        let b = store.get(key(RegionKind::Heap), 8);
        assert!(Arc::ptr_eq(&a, &b), "a large-enough template is reused");
        let c = store.get(key(RegionKind::Heap), 40);
        assert_eq!(c.tiles(), 40);
        assert_eq!(
            &c.bytes[..a.bytes.len()],
            &a.bytes[..],
            "growth keeps the prefix"
        );
        assert_eq!(&c.kinds[..16], &a.kinds[..]);
        assert_eq!(store.streams(), 1);
        store.get(key(RegionKind::Library), 4);
        assert_eq!(store.streams(), 2);
        assert!(store.bytes() >= 44 * 256);
    }

    #[test]
    fn retain_versions_drops_only_the_rejected_versions() {
        let store = TileTemplates::new(ContentModel::default());
        let v0 = store.get(key(RegionKind::Library), 4);
        for version in 1..4 {
            let k = TemplateKey {
                version,
                ..key(RegionKind::Library)
            };
            store.get(k, 4);
        }
        assert_eq!(store.streams(), 4);
        store.retain_versions(|v| v == 0 || v == 3);
        assert_eq!(store.streams(), 2);
        let again = store.get(key(RegionKind::Library), 4);
        assert!(Arc::ptr_eq(&v0, &again), "kept templates are reused");
        store.retain_versions(|_| false);
        assert_eq!((store.streams(), store.bytes()), (0, 0));
    }

    #[test]
    fn paint_matches_fill_tile() {
        let model = ContentModel {
            ptr_per_word: 0.3,
            ..ContentModel::default()
        };
        let ts = model.tile_size;
        let k = key(RegionKind::Heap);
        let store = TileTemplates::new(model.clone());
        let tpl = store.get(k, 64);
        let base = 0x5000_1234_0000u64;
        let mut painted = vec![0u8; 48 * ts];
        tpl.paint(&mut painted, ts, 16, base, |tile, idx| {
            model.fill_tile_v(
                tile,
                TileKind::Unique,
                k.stream,
                idx,
                9,
                base,
                k.size as u64,
                0,
            )
        });
        let mut want = vec![0u8; ts];
        for (t, got) in painted.chunks_exact(ts).enumerate() {
            let idx = 16 + t as u64;
            let kind = model.tile_kind_region(k.stream, idx, k.kind, true);
            model.fill_tile_v(&mut want, kind, k.stream, idx, 9, base, k.size as u64, 0);
            assert_eq!(got, &want[..], "tile {idx}");
        }
    }

    #[test]
    fn store_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<TileTemplates>();
    }
}
