//! The multicore memory hierarchy: private L1I/L1D/L2, shared L3,
//! invalidation-based coherence, and per-core statistics.

use crate::cache::{Fill, SetAssocCache};
use crate::config::SimConfig;
use lp_isa::{Addr, Pc};

/// log2 of the snoop filter's slots per core (a private constant, not a
/// knob). A Table I core holds 4 608 private lines — some 70 pages' worth
/// when they are dense — so of 4 096 slots all but a few per cent read 0;
/// 128 KiB at 8 cores.
const FILTER_SLOT_BITS: u32 = 12;

/// The level that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum CacheLevel {
    L1,
    L2,
    L3,
    Memory,
}

/// Outcome of a data or instruction access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles.
    pub latency: u32,
    /// Deepest level that had to service the access.
    pub level: CacheLevel,
}

/// Per-core memory statistics, the raw material for L2 MPKI (Fig. 7c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMemStats {
    /// Data loads issued.
    pub loads: u64,
    /// Data stores issued.
    pub stores: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// L2 misses (demand, data side).
    pub l2_misses: u64,
    /// L3 misses (this core's share).
    pub l3_misses: u64,
    /// Instruction-fetch L1-I misses.
    pub l1i_misses: u64,
    /// Coherence invalidations received.
    pub invalidations: u64,
    /// Next-line prefetches issued on this core's behalf.
    pub prefetches: u64,
}

impl CoreMemStats {
    /// Total data accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Multicore cache hierarchy with broadcast invalidation coherence.
///
/// Writes to *shared* addresses invalidate the line in every other core's
/// private caches (an idealized snooping protocol — sufficient to create the
/// inter-thread interference effects sampling must capture). Private-stripe
/// addresses skip the broadcast entirely.
///
/// The broadcast is modelled, not executed: an exact snoop filter counts,
/// per core, the L1-D + L2 lines it holds of each page-hash slot, and a
/// store probes only the cores whose count for the written page's slot is
/// non-zero. A zero count proves absence, so invalidations, statistics and
/// cycles are those of the full broadcast.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
    mem_latency: u32,
    prefetch_next_line: bool,
    line_bytes: u64,
    stats: Vec<CoreMemStats>,
    /// Snoop filter, `[slot][core]`: lines of the slot's pages in the
    /// core's L1-D + L2 (L1-I is never probed by coherence, so not counted).
    /// `u32` cannot overflow for any cache that fits in memory.
    held: Vec<u32>,
    /// Address bits below the filter's page number: a 4 KiB page, or the
    /// largest private line if that is bigger, so no line spans two pages.
    page_shift: u32,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `cfg` (one private stack per core).
    pub fn new(cfg: &SimConfig) -> Self {
        MemoryHierarchy {
            l1i: (0..cfg.ncores)
                .map(|_| SetAssocCache::new(cfg.l1i))
                .collect(),
            l1d: (0..cfg.ncores)
                .map(|_| SetAssocCache::new(cfg.l1d))
                .collect(),
            l2: (0..cfg.ncores)
                .map(|_| SetAssocCache::new(cfg.l2))
                .collect(),
            l3: SetAssocCache::new(cfg.l3),
            mem_latency: cfg.mem_latency,
            prefetch_next_line: cfg.prefetch_next_line,
            line_bytes: cfg.l1d.line_bytes,
            stats: vec![CoreMemStats::default(); cfg.ncores],
            held: vec![0; cfg.ncores << FILTER_SLOT_BITS],
            page_shift: 12.max(cfg.l1d.line_bytes.max(cfg.l2.line_bytes).trailing_zeros()),
        }
    }

    /// Number of cores the hierarchy serves.
    pub fn ncores(&self) -> usize {
        self.l1d.len()
    }

    /// Statistics for `core`.
    pub fn stats(&self, core: usize) -> CoreMemStats {
        self.stats[core]
    }

    /// Clears statistics (cache state is kept; used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats.fill(CoreMemStats::default());
    }

    /// Index into `held` of `core`'s count for the slot of `addr`'s page.
    #[inline]
    fn held_index(&self, core: usize, addr: u64) -> usize {
        let hash = (addr >> self.page_shift).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - FILTER_SLOT_BITS)) as usize * self.l1d.len() + core
    }

    /// Books the outcome of a fill of `addr` into `core`'s L1-D or L2.
    #[inline]
    fn track(&mut self, core: usize, addr: u64, fill: Fill) {
        if let Fill::Inserted { evicted } = fill {
            let slot = self.held_index(core, addr);
            self.held[slot] += 1;
            if let Some(old) = evicted {
                let slot = self.held_index(core, old);
                self.held[slot] -= 1;
            }
        }
    }

    /// Performs a data access by `core`.
    ///
    /// `write` selects store semantics (write-allocate); `shared` marks the
    /// address as belonging to the shared region, enabling coherence
    /// invalidations on writes.
    #[inline]
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
                latency: self.l1d[core].config().latency,
                level: CacheLevel::L1,
            }
        } else {
            self.stats[core].l1d_misses += 1;
            let mut latency = self.l1d[core].config().latency;
            let level = if self.l2[core].access(a) {
                latency += self.l2[core].config().latency;
                CacheLevel::L2
            } else {
                self.stats[core].l2_misses += 1;
                latency += self.l2[core].config().latency;
                if self.l3.access(a) {
                    latency += self.l3.config().latency;
                    CacheLevel::L3
                } else {
                    self.stats[core].l3_misses += 1;
                    latency += self.l3.config().latency + self.mem_latency;
                    self.l3.fill(a);
                    CacheLevel::Memory
                }
            };
            let fill = self.l2[core].fill(a);
            self.track(core, a, fill);
            let fill = self.l1d[core].fill(a);
            self.track(core, a, fill);
            if self.prefetch_next_line {
                // Next-line prefetch into L2 (no latency charged; the
                // prefetcher runs off the critical path). The address
                // space wraps, as the machine's effective addresses do.
                let next = a.wrapping_add(self.line_bytes);
                if !self.l2[core].probe(next) {
                    self.l3.fill(next);
                    let fill = self.l2[core].fill(next);
                    self.track(core, next, fill);
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

    /// Performs an instruction fetch by `core` for the line containing
    /// `pc`. Instruction slots are given a 4-byte footprint so 16
    /// instructions share a 64-byte line.
    pub fn access_inst(&mut self, core: usize, pc: Pc) -> AccessResult {
        let a = pc.to_word() << 2;
        if self.l1i[core].access(a) {
            AccessResult {
                latency: self.l1i[core].config().latency,
                level: CacheLevel::L1,
            }
        } else {
            self.stats[core].l1i_misses += 1;
            // Fetch from L2 (shared instruction/data L2).
            let mut latency = self.l1i[core].config().latency;
            let level = if self.l2[core].access(a) {
                latency += self.l2[core].config().latency;
                CacheLevel::L2
            } else {
                latency += self.l2[core].config().latency + self.l3.config().latency;
                if !self.l3.access(a) {
                    latency += self.mem_latency;
                    self.l3.fill(a);
                }
                let fill = self.l2[core].fill(a);
                self.track(core, a, fill);
                CacheLevel::L3
            };
            self.l1i[core].fill(a);
            AccessResult { latency, level }
        }
    }

    fn invalidate_others(&mut self, writer: usize, addr: u64) {
        let first = self.held_index(0, addr);
        for core in 0..self.l1d.len() {
            if core == writer {
                continue;
            }
            if self.held[first + core] == 0 {
                debug_assert!(!self.l1d[core].probe(addr) && !self.l2[core].probe(addr));
                continue;
            }
            let hits = u32::from(self.l1d[core].invalidate(addr))
                + u32::from(self.l2[core].invalidate(addr));
            if hits > 0 {
                self.held[first + core] -= hits;
                self.stats[core].invalidations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::gainestown(4))
    }

    #[test]
    fn first_access_goes_to_memory_then_hits() {
        let mut h = hierarchy();
        let r = h.access_data(0, Addr(0x1000), false, true);
        assert_eq!(r.level, CacheLevel::Memory);
        let r2 = h.access_data(0, Addr(0x1000), false, true);
        assert_eq!(r2.level, CacheLevel::L1);
        assert!(r.latency > r2.latency);
        assert_eq!(h.stats(0).loads, 2);
        assert_eq!(h.stats(0).l1d_misses, 1);
    }

    #[test]
    fn shared_l3_serves_cross_core_reads() {
        let mut h = hierarchy();
        h.access_data(0, Addr(0x2000), false, true);
        let r = h.access_data(1, Addr(0x2000), false, true);
        assert_eq!(r.level, CacheLevel::L3, "other core's fill is in shared L3");
    }

    #[test]
    fn write_invalidates_other_cores() {
        let mut h = hierarchy();
        h.access_data(0, Addr(0x3000), false, true);
        h.access_data(1, Addr(0x3000), false, true);
        assert_eq!(
            h.access_data(1, Addr(0x3000), false, true).level,
            CacheLevel::L1
        );
        // Core 0 writes the shared line.
        h.access_data(0, Addr(0x3000), true, true);
        assert_eq!(h.stats(1).invalidations, 1);
        // Core 1 now misses its private caches.
        let r = h.access_data(1, Addr(0x3000), false, true);
        assert!(
            r.level >= CacheLevel::L3,
            "line was invalidated, got {:?}",
            r.level
        );
    }

    #[test]
    fn private_writes_skip_coherence() {
        let mut h = hierarchy();
        h.access_data(0, Addr(0x4000), false, true);
        h.access_data(1, Addr(0x4000), false, true);
        h.access_data(0, Addr(0x4000), true, false); // marked private
        assert_eq!(h.stats(1).invalidations, 0);
        assert_eq!(
            h.access_data(1, Addr(0x4000), false, true).level,
            CacheLevel::L1
        );
    }

    #[test]
    fn icache_hits_within_line() {
        let mut h = hierarchy();
        use lp_isa::ImageId;
        let pc0 = Pc::new(ImageId(0), 0);
        let r = h.access_inst(0, pc0);
        assert!(r.level > CacheLevel::L1);
        // Instructions 1..15 share the 64-byte line (4 bytes each).
        for off in 1..16 {
            let r = h.access_inst(0, Pc::new(ImageId(0), off));
            assert_eq!(r.level, CacheLevel::L1, "offset {off}");
        }
        let r = h.access_inst(0, Pc::new(ImageId(0), 16));
        assert!(r.level > CacheLevel::L1, "next line misses");
        assert_eq!(h.stats(0).l1i_misses, 2);
    }

    #[test]
    fn working_set_larger_than_l1_spills_to_l2() {
        let mut h = hierarchy();
        // Touch 64 KiB (> 32K L1D, < 256K L2) twice.
        let lines = (64 << 10) / 64;
        for i in 0..lines {
            h.access_data(0, Addr(i * 64), false, false);
        }
        let l2_before = h.stats(0).l2_misses;
        let mut l1_miss_second_pass = 0;
        for i in 0..lines {
            let r = h.access_data(0, Addr(i * 64), false, false);
            if r.level > CacheLevel::L1 {
                l1_miss_second_pass += 1;
                assert_eq!(r.level, CacheLevel::L2, "should be served by L2");
            }
        }
        assert!(l1_miss_second_pass > lines / 2, "L1 too small for the set");
        assert_eq!(h.stats(0).l2_misses, l2_before, "no new L2 misses");
    }

    #[test]
    fn next_line_prefetcher_hides_stream_misses() {
        let mut cfg = SimConfig::gainestown(1);
        cfg.prefetch_next_line = true;
        let mut pf = MemoryHierarchy::new(&cfg);
        let mut plain = hierarchy();
        let mut pf_l2_misses = 0;
        let mut plain_l2_misses = 0;
        for i in 0..256u64 {
            if pf
                .access_data(0, Addr(0x800000 + i * 64), false, false)
                .level
                > CacheLevel::L2
            {
                pf_l2_misses += 1;
            }
            if plain
                .access_data(0, Addr(0x800000 + i * 64), false, false)
                .level
                > CacheLevel::L2
            {
                plain_l2_misses += 1;
            }
        }
        assert!(
            pf_l2_misses * 2 < plain_l2_misses,
            "prefetcher hides stream misses: {pf_l2_misses} vs {plain_l2_misses}"
        );
        assert!(pf.stats(0).prefetches > 100);
        assert_eq!(plain.stats(0).prefetches, 0);
    }

    #[test]
    fn prefetch_past_the_top_of_the_address_space_wraps() {
        let mut cfg = SimConfig::gainestown(1);
        cfg.prefetch_next_line = true;
        let mut h = MemoryHierarchy::new(&cfg);
        // The top word (`u64::MAX & !7`), as `Machine::effective_addr` can
        // produce it: its next line is line 0, in the test profile and in
        // release alike.
        let r = h.access_data(0, Addr(!7), false, false);
        assert_eq!(r.level, CacheLevel::Memory);
        assert_eq!(h.stats(0).prefetches, 1);
        let wrapped = h.access_data(0, Addr(0), false, false);
        assert_eq!(wrapped.level, CacheLevel::L2, "line 0 was prefetched");
    }

    #[test]
    fn reset_stats_keeps_cache_state() {
        let mut h = hierarchy();
        h.access_data(0, Addr(0x5000), false, true);
        h.reset_stats();
        assert_eq!(h.stats(0).loads, 0);
        let r = h.access_data(0, Addr(0x5000), false, true);
        assert_eq!(r.level, CacheLevel::L1, "warmed state survives reset");
    }
}
