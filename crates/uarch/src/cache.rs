//! Set-associative LRU cache model.

use crate::chunked::{ChunkedVec, CopyBytes};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles on a hit at this level.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sizes, or a line size or
    /// set count that is not a power of two).
    pub fn num_sets(&self) -> u64 {
        assert!(self.size_bytes > 0 && self.line_bytes > 0 && self.assoc > 0);
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = self.size_bytes / (self.line_bytes * u64::from(self.assoc));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }

    /// Short human-readable description (e.g. `32K, 8-way, LRU`).
    pub fn describe(&self) -> String {
        let size = if self.size_bytes >= 1 << 20 {
            format!("{}M", self.size_bytes >> 20)
        } else {
            format!("{}K", self.size_bytes >> 10)
        };
        format!("{size}, {}-way, LRU", self.assoc)
    }
}

/// What [`SetAssocCache::fill`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The line was already present; only its LRU position moved.
    Refreshed,
    /// The line was inserted, displacing the valid line based at `evicted`
    /// if the set had no invalid way left.
    Inserted {
        /// Base address of the displaced line.
        evicted: Option<u64>,
    },
}

/// A set-associative cache with true-LRU replacement.
///
/// Tracks only tags (contents live in the functional machine's memory).
/// Addresses passed in are raw byte addresses; the cache derives line/set
/// indices from its configured geometry.
///
/// Stored as a structure of arrays per set: a hit scans the set's tags —
/// one host cache line for an 8-way set — and writes one LRU stamp beside
/// them, a way costs 16 bytes, and the whole cache is one zeroed
/// allocation.
///
/// A copy costs what the cache holds, not what it could hold: only `fill`
/// inserting into an invalid way can make a word non-zero, so it marks the
/// 4 KiB chunks of the tag and stamp it writes, and `clone`/`clone_from`
/// move only marked chunks. A hit only stamps a way some insert wrote, and
/// `invalidate` only zeroes a tag.
#[derive(Debug, PartialEq, Eq)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Per set, `assoc` tags stored as `tag + 1` (0 marks an invalid way),
    /// then the `assoc` stamps of the ways' last touches.
    sets: ChunkedVec<u64>,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    stamp: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics on a degenerate geometry (see [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let set_mask = num_sets - 1;
        let (set_bits, line_shift) = (set_mask.count_ones(), cfg.line_bytes.trailing_zeros());
        assert!(
            set_bits + line_shift > 0,
            "a one-set cache of one-byte lines leaves no tag value for invalid"
        );
        SetAssocCache {
            cfg,
            sets: ChunkedVec::new((num_sets * 2 * u64::from(cfg.assoc)) as usize),
            set_mask,
            set_bits,
            line_shift,
            stamp: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Bytes a copy of this cache moves, against its dense tag storage.
    pub fn copy_bytes(&self) -> CopyBytes {
        self.sets.copy_bytes()
    }

    /// Index in `sets` of `addr`'s set, and the stored (`tag + 1`) form of
    /// its tag.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        (
            set * 2 * self.cfg.assoc as usize,
            (line >> self.set_bits) + 1,
        )
    }

    /// The tags and the stamps of `addr`'s set, and the stored form of its
    /// tag.
    #[inline]
    fn locate(&mut self, addr: u64) -> (&mut [u64], &mut [u64], u64) {
        let assoc = self.cfg.assoc as usize;
        let (base, tag) = self.index(addr);
        let (tags, stamps) = self.sets[base..base + 2 * assoc].split_at_mut(assoc);
        (tags, stamps, tag)
    }

    /// Looks up `addr`, updating LRU state. Returns whether it hit. On a
    /// miss the line is *not* inserted; call [`SetAssocCache::fill`].
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let (tags, stamps, tag) = self.locate(addr);
        match tags.iter().position(|&t| t == tag) {
            Some(way) => {
                stamps[way] = stamp;
                true
            }
            None => false,
        }
    }

    /// Inserts the line containing `addr` into the first invalid way of its
    /// set, else over the LRU way. Filling an already-present line only
    /// refreshes its LRU position.
    #[inline]
    pub fn fill(&mut self, addr: u64) -> Fill {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set_bits, line_shift) = (self.set_bits, self.line_shift);
        let set_index = (addr >> line_shift) & self.set_mask;
        let assoc = self.cfg.assoc as usize;
        let (base, tag) = self.index(addr);
        let (tags, stamps) = self.sets[base..base + 2 * assoc].split_at_mut(assoc);
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            stamps[way] = stamp;
            return Fill::Refreshed;
        }
        let victim = tags.iter().position(|&t| t == 0).unwrap_or_else(|| {
            // `min_by_key` keeps the first of equal stamps, as the scan it
            // replaces did (stamps within a set are distinct anyway).
            (0..stamps.len())
                .min_by_key(|&way| stamps[way])
                .expect("assoc > 0")
        });
        let evicted = (tags[victim] != 0)
            .then(|| (((tags[victim] - 1) << set_bits) | set_index) << line_shift);
        tags[victim] = tag;
        stamps[victim] = stamp;
        if evicted.is_none() {
            // The only writes that can make a word non-zero: a valid
            // victim's tag and stamp were non-zero already.
            self.sets.mark(base + victim);
            self.sets.mark(base + assoc + victim);
        }
        Fill::Inserted { evicted }
    }

    /// Invalidates the line containing `addr`; returns whether it was
    /// present.
    #[inline]
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (tags, _, tag) = self.locate(addr);
        match tags.iter_mut().find(|t| **t == tag) {
            Some(t) => {
                *t = 0;
                true
            }
            None => false,
        }
    }

    /// Whether the line containing `addr` is present (no LRU update).
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.index(addr);
        self.sets[base..base + self.cfg.assoc as usize].contains(&tag)
    }
}

impl Clone for SetAssocCache {
    fn clone(&self) -> Self {
        SetAssocCache {
            sets: self.sets.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.sets.clone_from(&source.sets);
        self.cfg = source.cfg;
        self.set_mask = source.set_mask;
        self.set_bits = source.set_bits;
        self.line_shift = source.line_shift;
        self.stamp = source.stamp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 3,
        })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x103f), "same line");
        assert!(!c.access(0x1040), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 (set stride = 4 sets * 64B = 256B).
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        assert_eq!(c.fill(a), Fill::Inserted { evicted: None });
        assert_eq!(c.fill(b), Fill::Inserted { evicted: None });
        assert_eq!(c.fill(b), Fill::Refreshed);
        assert!(c.access(a)); // make b the LRU
        let evicted = c.fill(d);
        assert_eq!(evicted, Fill::Inserted { evicted: Some(b) }, "LRU way");
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x40);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40), "second invalidate is a no-op");
    }

    #[test]
    fn evicted_address_is_line_aligned_roundtrip() {
        let mut c = small();
        c.fill(0x1234); // line 0x1200..? 64B lines → 0x1200? 0x1234/64=0x48 → line base 0x1200
                        // Fill two more lines in the same set to force eviction of 0x1200.
        let set_stride = 4 * 64;
        c.fill(0x1234 + set_stride);
        let ev = c.fill(0x1234 + 2 * set_stride);
        let evicted = Some(0x1234 & !63);
        assert_eq!(ev, Fill::Inserted { evicted });
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_size_is_rejected() {
        // 96-byte lines would silently index as 32-byte ones.
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * 2 * 96,
            assoc: 2,
            line_bytes: 96,
            latency: 3,
        });
    }

    #[test]
    fn config_descriptions() {
        let cfg = CacheConfig {
            size_bytes: 32 << 10,
            assoc: 8,
            line_bytes: 64,
            latency: 4,
        };
        assert_eq!(cfg.describe(), "32K, 8-way, LRU");
        assert_eq!(cfg.num_sets(), 64);
        let big = CacheConfig {
            size_bytes: 8 << 20,
            assoc: 16,
            line_bytes: 64,
            latency: 35,
        };
        assert_eq!(big.describe(), "8M, 16-way, LRU");
    }

    #[test]
    fn capacity_behaviour_full_sweep() {
        // Sweeping twice the capacity with LRU must miss every access the
        // second time round (classic LRU thrash).
        let mut c = small();
        let lines = 2 * (512 / 64);
        for pass in 0..2 {
            for i in 0..lines {
                let a = i * 64;
                assert!(!c.access(a), "pass {pass}: line {i} misses");
                c.fill(a);
            }
        }
    }
}
