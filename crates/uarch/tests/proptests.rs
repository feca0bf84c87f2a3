//! Property-based tests for caches and the memory hierarchy.

use lp_isa::{Addr, ImageId, Pc};
use lp_uarch::{AccessResult, CacheConfig, Fill, MemoryHierarchy, SetAssocCache, SimConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// The hierarchy as it stood before the structure-of-arrays cache and the
/// snoop filter: an array of `Line` records per cache and an invalidation
/// broadcast that probes every other core. Kept here, not in `src/`, as the
/// oracle the replacement is held to.
mod reference {
    use lp_isa::{Addr, Pc};
    use lp_uarch::{AccessResult, CacheConfig, CacheLevel, CoreMemStats, SimConfig};

    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        lru: u64,
    }

    struct Cache {
        cfg: CacheConfig,
        sets: Vec<Line>,
        set_mask: u64,
        line_shift: u32,
        stamp: u64,
    }

    impl Cache {
        fn new(cfg: CacheConfig) -> Self {
            let num_sets = cfg.num_sets();
            Cache {
                cfg,
                sets: vec![Line::default(); (num_sets * u64::from(cfg.assoc)) as usize],
                set_mask: num_sets - 1,
                line_shift: cfg.line_bytes.trailing_zeros(),
                stamp: 0,
            }
        }

        fn set_range(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            let set = (line & self.set_mask) as usize;
            let tag = line >> self.set_mask.count_ones();
            (set * self.cfg.assoc as usize, tag)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stamp += 1;
            let (base, tag) = self.set_range(addr);
            for way in 0..self.cfg.assoc as usize {
                let line = &mut self.sets[base + way];
                if line.valid && line.tag == tag {
                    line.lru = self.stamp;
                    return true;
                }
            }
            false
        }

        fn fill(&mut self, addr: u64) {
            self.stamp += 1;
            let (base, tag) = self.set_range(addr);
            let assoc = self.cfg.assoc as usize;
            for way in 0..assoc {
                let line = &mut self.sets[base + way];
                if line.valid && line.tag == tag {
                    line.lru = self.stamp;
                    return;
                }
            }
            // Prefer an invalid way; otherwise evict LRU.
            let mut victim = 0;
            let mut best = u64::MAX;
            for way in 0..assoc {
                let line = &self.sets[base + way];
                if !line.valid {
                    victim = way;
                    break;
                }
                if line.lru < best {
                    best = line.lru;
                    victim = way;
                }
            }
            self.sets[base + victim] = Line {
                tag,
                valid: true,
                lru: self.stamp,
            };
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let (base, tag) = self.set_range(addr);
            for way in 0..self.cfg.assoc as usize {
                let line = &mut self.sets[base + way];
                if line.valid && line.tag == tag {
                    line.valid = false;
                    return true;
                }
            }
            false
        }

        fn probe(&self, addr: u64) -> bool {
            let (base, tag) = self.set_range(addr);
            (0..self.cfg.assoc as usize)
                .any(|way| self.sets[base + way].valid && self.sets[base + way].tag == tag)
        }
    }

    pub struct Hierarchy {
        l1i: Vec<Cache>,
        l1d: Vec<Cache>,
        l2: Vec<Cache>,
        l3: Cache,
        mem_latency: u32,
        prefetch_next_line: bool,
        line_bytes: u64,
        pub stats: Vec<CoreMemStats>,
    }

    impl Hierarchy {
        pub fn new(cfg: &SimConfig) -> Self {
            let per_core = |c: CacheConfig| (0..cfg.ncores).map(|_| Cache::new(c)).collect();
            Hierarchy {
                l1i: per_core(cfg.l1i),
                l1d: per_core(cfg.l1d),
                l2: per_core(cfg.l2),
                l3: Cache::new(cfg.l3),
                mem_latency: cfg.mem_latency,
                prefetch_next_line: cfg.prefetch_next_line,
                line_bytes: cfg.l1d.line_bytes,
                stats: vec![CoreMemStats::default(); cfg.ncores],
            }
        }

        pub fn access_data(
            &mut self,
            core: usize,
            addr: Addr,
            write: bool,
            shared: bool,
        ) -> AccessResult {
            let a = addr.0;
            let st = &mut self.stats[core];
            if write {
                st.stores += 1;
            } else {
                st.loads += 1;
            }

            let result = if self.l1d[core].access(a) {
                AccessResult {
                    latency: self.l1d[core].cfg.latency,
                    level: CacheLevel::L1,
                }
            } else {
                self.stats[core].l1d_misses += 1;
                let mut latency = self.l1d[core].cfg.latency;
                let level = if self.l2[core].access(a) {
                    latency += self.l2[core].cfg.latency;
                    CacheLevel::L2
                } else {
                    self.stats[core].l2_misses += 1;
                    latency += self.l2[core].cfg.latency;
                    if self.l3.access(a) {
                        latency += self.l3.cfg.latency;
                        CacheLevel::L3
                    } else {
                        self.stats[core].l3_misses += 1;
                        latency += self.l3.cfg.latency + self.mem_latency;
                        self.l3.fill(a);
                        CacheLevel::Memory
                    }
                };
                self.l2[core].fill(a);
                self.l1d[core].fill(a);
                if self.prefetch_next_line {
                    // The one line that is not the parent's: `a +
                    // line_bytes` overflowed at the top of the address
                    // space (panic in the test profile, wrap in release).
                    let next = a.wrapping_add(self.line_bytes);
                    if !self.l2[core].probe(next) {
                        self.l3.fill(next);
                        self.l2[core].fill(next);
                        self.stats[core].prefetches += 1;
                    }
                }
                AccessResult { latency, level }
            };

            if write && shared {
                self.invalidate_others(core, a);
            }
            result
        }

        pub fn access_inst(&mut self, core: usize, pc: Pc) -> AccessResult {
            let a = pc.to_word() << 2;
            if self.l1i[core].access(a) {
                AccessResult {
                    latency: self.l1i[core].cfg.latency,
                    level: CacheLevel::L1,
                }
            } else {
                self.stats[core].l1i_misses += 1;
                let mut latency = self.l1i[core].cfg.latency;
                let level = if self.l2[core].access(a) {
                    latency += self.l2[core].cfg.latency;
                    CacheLevel::L2
                } else {
                    latency += self.l2[core].cfg.latency + self.l3.cfg.latency;
                    if !self.l3.access(a) {
                        latency += self.mem_latency;
                        self.l3.fill(a);
                    }
                    self.l2[core].fill(a);
                    CacheLevel::L3
                };
                self.l1i[core].fill(a);
                AccessResult { latency, level }
            }
        }

        fn invalidate_others(&mut self, writer: usize, addr: u64) {
            for core in 0..self.l1d.len() {
                if core == writer {
                    continue;
                }
                let hit1 = self.l1d[core].invalidate(addr);
                let hit2 = self.l2[core].invalidate(addr);
                if hit1 || hit2 {
                    self.stats[core].invalidations += 1;
                }
            }
        }
    }
}

/// Geometries `(size_bytes, assoc)` at the edges of the 4 KiB chunks a
/// copy moves (64-byte lines; a way costs 16 bytes of tag storage).
const CHUNK_EDGES: [(u64, u32); 5] = [
    (512, 2),          // 16 words: smaller than one chunk
    (3 * 64 * 64, 3),  // 384 words: one short chunk, 6-word sets
    (5 * 64 * 128, 5), // 1 280 words: 2.5 chunks, sets straddle chunk edges
    (64 << 10, 1),     // direct-mapped, 4 chunks
    (128 << 10, 8),    // 8 chunks
];

/// Runs `ops` — `(kind, pick, tag)`: an access, fill or invalidate of tag
/// `tag` in the set `sets[pick]` names — on `cache`. A few sets leave most
/// chunks empty while their own ways evict. A name with bit 12 set is the
/// set holding the last word before a chunk edge (one that straddles it
/// when sets do), else any set. Returns what each call reported.
fn apply(
    cache: &mut SetAssocCache,
    ops: &[(u8, usize, u64)],
    sets: &[u64],
) -> Vec<(bool, Option<Fill>)> {
    let (num_sets, set_words) = (
        cache.config().num_sets(),
        2 * u64::from(cache.config().assoc),
    );
    let chunks = (num_sets * set_words).div_ceil(512);
    let set = |name: u64| match name >> 12 {
        0 => name % num_sets,
        _ => ((name % chunks + 1) * 512 - 1).min(num_sets * set_words - 1) / set_words,
    };
    ops.iter()
        .map(|&(kind, pick, tag)| {
            let addr = (tag * num_sets + set(sets[pick % sets.len()])) * 64;
            match kind {
                0 => (cache.access(addr), None),
                1 => (false, Some(cache.fill(addr))),
                _ => (cache.invalidate(addr), None),
            }
        })
        .collect()
}

/// Runs hierarchy `ops` — `(core, kind, addr)`: a load or store, shared
/// or private, or an instruction fetch — on `h`'s `ncores` cores.
fn drive(h: &mut MemoryHierarchy, ncores: usize, ops: &[(usize, u8, u64)]) -> Vec<AccessResult> {
    ops.iter()
        .map(|&(core, kind, addr)| {
            let core = core % ncores;
            if kind == 4 {
                h.access_inst(core, Pc::new(ImageId(0), (addr >> 2) as u32))
            } else {
                h.access_data(core, Addr(addr & !7), kind & 1 == 1, kind & 2 == 2)
            }
        })
        .collect()
}

fn small_cache() -> SetAssocCache {
    SetAssocCache::new(CacheConfig {
        size_bytes: 1024,
        assoc: 2,
        line_bytes: 64,
        latency: 1,
    })
}

proptest! {
    /// The cache never "hits" a line that was not filled (or was
    /// invalidated), and always hits a line filled and not yet evicted or
    /// invalidated — checked against a trace-replaying reference model
    /// tracking present lines via eviction results.
    #[test]
    fn hit_iff_present(ops in prop::collection::vec((0u64..1u64<<14, 0u8..3), 1..300)) {
        let mut cache = small_cache();
        let mut present: HashSet<u64> = HashSet::new();
        for &(addr, op) in &ops {
            let line = addr & !63;
            match op {
                0 => {
                    // access
                    let hit = cache.access(addr);
                    prop_assert_eq!(hit, present.contains(&line));
                }
                1 => {
                    // fill
                    match cache.fill(addr) {
                        Fill::Refreshed => prop_assert!(present.contains(&line)),
                        Fill::Inserted { evicted } => {
                            if let Some(evicted) = evicted {
                                prop_assert!(present.remove(&evicted));
                            }
                            prop_assert!(present.insert(line));
                        }
                    }
                }
                _ => {
                    // invalidate
                    let was = cache.invalidate(addr);
                    prop_assert_eq!(was, present.remove(&line));
                }
            }
        }
    }

    /// A working set no larger than one set's associativity never evicts:
    /// after touching A lines mapping to distinct sets (or within assoc),
    /// re-access always hits.
    #[test]
    fn small_working_set_always_hits(start in 0u64..1u64<<12) {
        let mut cache = small_cache();
        // 8 sets x 64B lines: 8 consecutive lines map to 8 distinct sets.
        let lines: Vec<u64> = (0..8).map(|i| (start & !63) + i * 64).collect();
        for &l in &lines {
            cache.fill(l);
        }
        for &l in &lines {
            prop_assert!(cache.access(l), "line {l:#x} must still be resident");
        }
    }

    /// The structure-of-arrays caches behind the snoop filter are the
    /// array-of-`Line` caches behind a full broadcast: over 1-8 cores,
    /// shared and private loads and stores (a few hot lines so
    /// invalidations hit, a range several times the shrunk L3 so every
    /// level evicts, the top of the address space so the prefetcher
    /// wraps), instruction fetches landing in the same L2s, prefetcher on
    /// and off, equal and unequal private line sizes up to one wider than
    /// the filter's 4 KiB page, every access result and every core's final
    /// statistics are equal. The filter's counts are checked on the way:
    /// an underflow is an overflow-check panic in this profile, and a core
    /// the filter skips is `debug_assert`ed not to hold the line.
    #[test]
    fn hierarchy_equals_the_broadcast_reference(
        ncores in 1usize..9,
        prefetch: bool,
        geometry in 0usize..3,
        ops in prop::collection::vec((0usize..8, 0u8..5, 0u8..4, 0u64..1u64<<16), 1..600),
    ) {
        let mut cfg = SimConfig::gainestown(ncores);
        cfg.prefetch_next_line = prefetch;
        let (l1d_line, l2_line, l2_size) =
            [(64, 64, 4 << 10), (32, 128, 4 << 10), (64, 8 << 10, 64 << 10)][geometry];
        let shrink = |c: &mut CacheConfig, size_bytes, line_bytes| {
            (c.size_bytes, c.line_bytes) = (size_bytes, line_bytes);
        };
        shrink(&mut cfg.l1i, 512, 64);
        shrink(&mut cfg.l1d, 1 << 10, l1d_line);
        shrink(&mut cfg.l2, l2_size, l2_line);
        shrink(&mut cfg.l3, 16 << 10, 64);
        let mut new = MemoryHierarchy::new(&cfg);
        let mut old = reference::Hierarchy::new(&cfg);
        for &(core, kind, region, offset) in &ops {
            let core = core % ncores;
            let addr = match region {
                0 => (offset % 4) * 64,      // hot lines
                1 => !7 - (offset % 4) * 64, // hot too, down from the top word
                _ => offset & !7,            // 64 KiB: 4x the L3
            };
            if kind == 4 {
                let pc = Pc::new(ImageId(0), (addr >> 2) as u32);
                prop_assert_eq!(new.access_inst(core, pc), old.access_inst(core, pc));
            } else {
                let (write, shared) = (kind & 1 == 1, kind & 2 == 2);
                prop_assert_eq!(
                    new.access_data(core, Addr(addr), write, shared),
                    old.access_data(core, Addr(addr), write, shared)
                );
            }
        }
        for core in 0..ncores {
            prop_assert_eq!(new.stats(core), old.stats[core], "core {}", core);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A copy that moves only the filled chunks is the dense copy: after
    /// random histories, `clone()` and `clone_from()` over a cache with a
    /// different filled set equal the source word for word (`==` compares
    /// the whole tag storage), and all three then report the same hits,
    /// misses and evictions for the same trace.
    #[test]
    fn sparse_cache_copies_are_dense_copies(
        geometry in 0usize..CHUNK_EDGES.len(),
        history in prop::collection::vec((0u8..3, 0usize..8, 0u64..12), 0..300),
        history_sets in prop::collection::vec(0u64..1 << 13, 1..6),
        other in prop::collection::vec((0u8..3, 0usize..8, 0u64..12), 0..300),
        other_sets in prop::collection::vec(0u64..1 << 13, 1..6),
        trace in prop::collection::vec((0u8..3, 0usize..8, 0u64..12), 0..200),
    ) {
        let (size_bytes, assoc) = CHUNK_EDGES[geometry];
        let new = || SetAssocCache::new(CacheConfig { size_bytes, assoc, line_bytes: 64, latency: 1 });
        let mut source = new();
        apply(&mut source, &history, &history_sets);
        let mut cloned = source.clone();
        prop_assert!(cloned == source);
        let mut recycled = new();
        apply(&mut recycled, &other, &other_sets);
        recycled.clone_from(&source);
        prop_assert!(recycled == source);
        prop_assert_eq!(recycled.copy_bytes(), source.copy_bytes());
        prop_assert!(source.copy_bytes().copied <= source.copy_bytes().dense);

        let both: Vec<u64> = history_sets.iter().chain(&other_sets).copied().collect();
        let expect = apply(&mut source, &trace, &both);
        prop_assert_eq!(&apply(&mut cloned, &trace, &both), &expect);
        prop_assert_eq!(&apply(&mut recycled, &trace, &both), &expect);
        prop_assert!(cloned == source && recycled == source);
    }

    /// The same for the whole hierarchy, snoop filter included, on 1-4
    /// cores: copies equal the source and go on to give the same access
    /// results and statistics.
    #[test]
    fn sparse_hierarchy_copies_are_dense_copies(
        ncores in 1usize..5,
        history in prop::collection::vec((0usize..4, 0u8..5, 0u64..1 << 17), 0..300),
        other in prop::collection::vec((0usize..4, 0u8..5, 0u64..1 << 19), 0..300),
        trace in prop::collection::vec((0usize..4, 0u8..5, 0u64..1 << 18), 0..200),
    ) {
        let mut cfg = SimConfig::gainestown(ncores);
        cfg.l1i.size_bytes = 4 << 10;
        cfg.l1d.size_bytes = 4 << 10;
        cfg.l2.size_bytes = 32 << 10;
        cfg.l3.size_bytes = 256 << 10;
        let mut source = MemoryHierarchy::new(&cfg);
        drive(&mut source, ncores, &history);
        let mut cloned = source.clone();
        prop_assert!(cloned == source);
        let mut recycled = MemoryHierarchy::new(&cfg);
        drive(&mut recycled, ncores, &other);
        recycled.clone_from(&source);
        prop_assert!(recycled == source);

        let expect = drive(&mut source, ncores, &trace);
        prop_assert_eq!(&drive(&mut cloned, ncores, &trace), &expect);
        prop_assert_eq!(&drive(&mut recycled, ncores, &trace), &expect);
        for core in 0..ncores {
            prop_assert_eq!(cloned.stats(core), source.stats(core));
            prop_assert_eq!(recycled.stats(core), source.stats(core));
        }
        prop_assert!(cloned == source && recycled == source);
    }
}
