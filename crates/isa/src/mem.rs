//! Sparse, paged simulated memory.

use crate::addr::Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

const PAGE_WORDS: usize = 512; // 4 KiB pages of 8-byte words
const PAGE_SHIFT: u64 = 12;
const OFF_MASK: u64 = (1 << PAGE_SHIFT) - 1;

/// The words of one 4 KiB page.
type Words = [u64; PAGE_WORDS];

/// A flat 64-bit word-addressed memory, allocated lazily in 4 KiB pages.
///
/// Uninitialized words read as zero, matching anonymous-mapping semantics.
/// A snapshot (`Machine::snapshot`) shares every page not stored to since
/// the previous snapshot, so it costs one 4 KiB copy per page written in
/// between plus a reference count per resident page.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
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

/// One resident page: the words loads and stores use, and beside them the
/// immutable copy every snapshot since the page's last store shares.
///
/// The first snapshot after a store makes the copy, the next store drops
/// it. A store therefore pays one plain load and one branch; it never
/// touches a reference count or makes an atomic read-modify-write, which
/// is what `Arc::make_mut` on the live words would cost on every store.
#[derive(Debug, Clone)]
struct Page {
    words: Box<Words>,
    frozen: OnceLock<Arc<Words>>,
}

impl Page {
    fn zeroed() -> Self {
        Page {
            words: Box::new([0; PAGE_WORDS]),
            frozen: OnceLock::new(),
        }
    }

    /// The page's immutable copy, made now if a store dropped the last.
    fn frozen_copy(&self) -> &Arc<Words> {
        self.frozen.get_or_init(|| Arc::new(*self.words))
    }
}

/// The pages of a [`Memory`] at one instant, shared with the live memory
/// and with other snapshots wherever nothing was stored in between. Order
/// is unspecified; serialization sorts.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenMemory {
    pages: Vec<(u64, Arc<Words>)>,
}

impl FrozenMemory {
    /// Resident pages as `(page index, words)`.
    pub(crate) fn pages(&self) -> impl Iterator<Item = (u64, &Words)> {
        self.pages.iter().map(|(i, w)| (*i, w.as_ref()))
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.pages.len()
    }

    /// Installs a page wholesale (for state deserialization).
    pub(crate) fn push_page(&mut self, index: u64, words: Words) {
        self.pages.push((index, Arc::new(words)));
    }

    /// Whether `self` and `other` hold the same pages by reference: every
    /// page index resident in both, and each page's words one allocation.
    #[cfg(test)]
    pub(crate) fn shares_every_page_with(&self, other: &FrozenMemory) -> bool {
        self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .all(|(i, w)| other.pages.iter().any(|(j, v)| i == j && Arc::ptr_eq(w, v)))
    }
}

/// Number of 8-byte words per memory page (exposed to state I/O).
pub(crate) const MEM_PAGE_WORDS: usize = PAGE_WORDS;

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memory's pages at this instant. Pages stored to since the last
    /// call are copied once; every other page is shared.
    pub(crate) fn freeze(&self) -> FrozenMemory {
        FrozenMemory {
            pages: self
                .pages
                .iter()
                .map(|(&index, page)| (index, Arc::clone(page.frozen_copy())))
                .collect(),
        }
    }

    /// A live memory holding `frozen`'s pages. Each page keeps `frozen`'s
    /// copy as its own, so a snapshot taken before the first store shares
    /// them all.
    pub(crate) fn thaw(frozen: &FrozenMemory) -> Self {
        let mut pages = HashMap::with_capacity_and_hasher(frozen.len(), Default::default());
        for (index, words) in &frozen.pages {
            pages.insert(
                *index,
                Page {
                    words: Box::new(**words),
                    frozen: OnceLock::from(Arc::clone(words)),
                },
            );
        }
        Memory { pages }
    }

    /// Reads the word at `addr` (aligned down to a word boundary).
    pub fn load(&self, addr: Addr) -> u64 {
        let a = addr.align_word().0;
        match self.pages.get(&(a >> PAGE_SHIFT)) {
            Some(page) => page.words[((a & OFF_MASK) / Addr::WORD) as usize],
            None => 0,
        }
    }

    /// Writes the word at `addr` (aligned down to a word boundary).
    pub fn store(&mut self, addr: Addr, value: u64) {
        let a = addr.align_word().0;
        let page = self
            .pages
            .entry(a >> PAGE_SHIFT)
            .or_insert_with(Page::zeroed);
        // Snapshots taken before this store keep the copy they share.
        page.frozen.take();
        page.words[((a & OFF_MASK) / Addr::WORD) as usize] = value;
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

    #[test]
    fn only_pages_stored_to_are_copied() {
        let mut m = Memory::new();
        m.store(Addr(0), 1);
        m.store(Addr(1 << 20), 2);
        let a = m.freeze();
        let b = m.freeze();
        assert!(a.shares_every_page_with(&b), "no store in between");
        m.store(Addr(8), 3);
        let c = m.freeze();
        let shared = |x: &FrozenMemory, y: &FrozenMemory, page: u64| {
            let find = |f: &FrozenMemory| f.pages.iter().find(|p| p.0 == page).cloned();
            Arc::ptr_eq(&find(x).unwrap().1, &find(y).unwrap().1)
        };
        assert!(!shared(&b, &c, 0), "the page stored to is a new copy");
        assert!(shared(&b, &c, 1 << 8), "the other page is shared");
        // A thawed memory starts out sharing the snapshot it came from.
        assert!(Memory::thaw(&c).freeze().shares_every_page_with(&c));
    }
}
