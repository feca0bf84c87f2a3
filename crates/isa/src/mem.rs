//! Sparse, paged simulated memory.

use crate::addr::Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_WORDS: usize = 512; // 4 KiB pages of 8-byte words
const PAGE_SHIFT: u64 = 12;
const OFF_MASK: u64 = (1 << PAGE_SHIFT) - 1;

/// A flat 64-bit word-addressed memory, allocated lazily in 4 KiB pages.
///
/// Uninitialized words read as zero, matching anonymous-mapping semantics.
/// Cloning a `Memory` clones only the touched pages, which is what makes
/// pinball snapshots cheap.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u64; PAGE_WORDS]>, BuildHasherDefault<PageHasher>>,
}

/// Hashes a page index with one multiply: every simulated load and store
/// looks its page up, and SipHash in that look-up was ~9 % of the bare VM.
/// Page indices come from programs this workspace builds, not from an
/// adversary, and nothing observes the map's order (serialisation sorts
/// the pages).
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the page map's keys are u64 and hash through write_u64");
    }

    fn write_u64(&mut self, page: u64) {
        // Fibonacci hashing; the fold brings the well-mixed high half down
        // to the low bits the table indexes by, so page indices that differ
        // only in high bits (per-thread stripes) do not share a bucket.
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Memory {
    /// Iterates over resident pages as `(page index, words)` (for state
    /// serialization).
    pub(crate) fn iter_pages(&self) -> impl Iterator<Item = (u64, &[u64; PAGE_WORDS])> {
        self.pages.iter().map(|(&k, v)| (k, v.as_ref()))
    }

    /// Installs a page wholesale (for state deserialization).
    pub(crate) fn insert_page(&mut self, index: u64, words: Box<[u64; PAGE_WORDS]>) {
        self.pages.insert(index, words);
    }
}

/// Number of 8-byte words per memory page (exposed to state I/O).
pub(crate) const MEM_PAGE_WORDS: usize = PAGE_WORDS;

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at `addr` (aligned down to a word boundary).
    pub fn load(&self, addr: Addr) -> u64 {
        let a = addr.align_word().0;
        match self.pages.get(&(a >> PAGE_SHIFT)) {
            Some(page) => page[((a & OFF_MASK) / Addr::WORD) as usize],
            None => 0,
        }
    }

    /// Writes the word at `addr` (aligned down to a word boundary).
    pub fn store(&mut self, addr: Addr, value: u64) {
        let a = addr.align_word().0;
        let page = self
            .pages
            .entry(a >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]));
        page[((a & OFF_MASK) / Addr::WORD) as usize] = value;
    }

    /// Reads the word at `addr` as an `f64`.
    pub fn load_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.load(addr))
    }

    /// Writes an `f64` word at `addr`.
    pub fn store_f64(&mut self, addr: Addr, value: f64) {
        self.store(addr, value.to_bits());
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident memory footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.pages.len() * PAGE_WORDS * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default_and_roundtrip() {
        let mut m = Memory::new();
        assert_eq!(m.load(Addr(0x1234_5678)), 0);
        m.store(Addr(0x1000), 42);
        assert_eq!(m.load(Addr(0x1000)), 42);
        // Misaligned accesses hit the containing word.
        assert_eq!(m.load(Addr(0x1003)), 42);
        m.store(Addr(0x1007), 7);
        assert_eq!(m.load(Addr(0x1000)), 7);
    }

    #[test]
    fn pages_are_sparse() {
        let mut m = Memory::new();
        m.store(Addr(0), 1);
        m.store(Addr(1 << 40), 2);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.footprint_bytes(), 2 * 4096);
        assert_eq!(m.load(Addr(0)), 1);
        assert_eq!(m.load(Addr(1 << 40)), 2);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.store_f64(Addr(64), 3.25);
        assert_eq!(m.load_f64(Addr(64)), 3.25);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Memory::new();
        a.store(Addr(8), 5);
        let mut b = a.clone();
        b.store(Addr(8), 9);
        assert_eq!(a.load(Addr(8)), 5);
        assert_eq!(b.load(Addr(8)), 9);
    }
}
