//! The [`Store`]: a content-addressed artifact cache on disk.
//!
//! Layout of a store directory — the directory is the store's only index:
//!
//! ```text
//! <dir>/<hex128>-<kind>.lpa           sealed artifact containers
//! <dir>/<hex128>-<kind>.lpa.corrupt   quarantined failed containers
//! ```
//!
//! No metadata lives beside the artifacts: a container's length is its
//! stored size, its header holds its raw size, and its mtime — set
//! explicitly on every save and hit — is its LRU stamp, ties broken by
//! name. `open` scans the directory into a map; a budgeted save and the
//! totals (`stats`, `len`, `totals_by_kind`) rescan it.
//!
//! Every write is crash-safe: a container is written to a temp file,
//! fsynced, renamed into place, and the directory itself is fsynced so the
//! rename is durable. A crash at any point leaves either the old state or
//! the new state, never a torn file — and even a torn file would be caught
//! by the container checksum and quarantined on next load. Processes
//! sharing a directory need no lock: names are content-addressed, so
//! racing writers of one key install byte-identical files.
//!
//! The handle uses interior mutability (one mutex around the map) so
//! pipeline code can share `&Store` freely.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

use lp_obs::{names, Observer};

use crate::container::{self, ArtifactKind};
use crate::hash::Hash64;

/// A 128-bit content-derived store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey(pub [u8; 16]);

impl StoreKey {
    /// Lowercase 32-character hex rendering (used in file names).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a 32-hex-char rendering back into a key (the inverse of
    /// [`StoreKey::hex`]); `None` on any other shape. Wire paths that
    /// carry keys as text — farm job keys, cluster artifact routes —
    /// re-enter the store through here.
    pub fn from_hex(s: &str) -> Option<StoreKey> {
        let s = s.trim();
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(StoreKey(out))
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Second fixed key pair for the high half of the 128-bit key digest.
const KEY_HI: (u64, u64) = (0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d);

/// Builds a [`StoreKey`] from labelled fields.
///
/// Each field is absorbed as `len(label) label len(value) value`, so
/// adjacent fields can never collide by concatenation and renaming a field
/// changes the key (which is what you want: the key must pin down the exact
/// configuration that produced an artifact).
#[derive(Debug, Clone)]
pub struct StoreKeyBuilder {
    lo: Hash64,
    hi: Hash64,
}

impl StoreKeyBuilder {
    /// A builder domain-separated by `domain` (e.g. `"analysis/v1"`).
    pub fn new(domain: &str) -> Self {
        let mut b = StoreKeyBuilder {
            lo: Hash64::checksum(),
            hi: Hash64::with_key(KEY_HI.0, KEY_HI.1),
        };
        b.raw(domain.as_bytes());
        b
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.lo.update(&(bytes.len() as u64).to_le_bytes());
        self.hi.update(&(bytes.len() as u64).to_le_bytes());
        self.lo.update(bytes);
        self.hi.update(bytes);
    }

    /// Absorbs a labelled byte field.
    pub fn field_bytes(&mut self, label: &str, value: &[u8]) -> &mut Self {
        self.raw(label.as_bytes());
        self.raw(value);
        self
    }

    /// Absorbs a labelled `u64`.
    pub fn field_u64(&mut self, label: &str, value: u64) -> &mut Self {
        self.field_bytes(label, &value.to_le_bytes())
    }

    /// Absorbs a labelled `f64` by bit pattern (exact, no rounding drift).
    pub fn field_f64(&mut self, label: &str, value: f64) -> &mut Self {
        self.field_u64(label, value.to_bits())
    }

    /// Absorbs a labelled bool.
    pub fn field_bool(&mut self, label: &str, value: bool) -> &mut Self {
        self.field_u64(label, u64::from(value))
    }

    /// Absorbs a labelled string.
    pub fn field_str(&mut self, label: &str, value: &str) -> &mut Self {
        self.field_bytes(label, value.as_bytes())
    }

    /// Finalizes into the 128-bit key.
    pub fn finish(&self) -> StoreKey {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.lo.clone().finish().to_le_bytes());
        out[8..].copy_from_slice(&self.hi.clone().finish().to_le_bytes());
        StoreKey(out)
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {
    /// On-disk byte budget for artifact containers. `None` = unbounded.
    pub max_bytes: Option<u64>,
}

/// Session counters, readable without an enabled [`Observer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts served from disk.
    pub hits: u64,
    /// Artifacts absent (or stale) at load time.
    pub misses: u64,
    /// Artifacts removed by LRU eviction.
    pub evictions: u64,
    /// Artifacts quarantined after failing validation.
    pub corruptions: u64,
    /// Uncompressed bytes of all live artifacts.
    pub bytes_raw: u64,
    /// On-disk bytes of all live artifacts.
    pub bytes_stored: u64,
}

impl StoreStats {
    /// Raw over stored bytes of the live artifacts (1 for an empty store).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_stored > 0 {
            self.bytes_raw as f64 / self.bytes_stored as f64
        } else {
            1.0
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corruptions: AtomicU64,
}

/// What the store knows about one container on disk.
#[derive(Debug, Clone, Copy)]
struct Entry {
    kind: ArtifactKind,
    stored: u64,
    raw: u64,
    /// The LRU stamp: the container's mtime.
    mtime: SystemTime,
}

impl Entry {
    fn new(kind: ArtifactKind, stored: u64, raw: u64, mtime: SystemTime) -> Entry {
        Entry {
            kind,
            stored,
            raw,
            mtime,
        }
    }

    /// Sets `file`'s mtime to now and returns its entry. The stamp is
    /// explicit, in ns — kernel write times are jiffy-granular, so saves a
    /// few ms apart could tie — and best effort: failing costs LRU order.
    fn stamp(file: &File, kind: ArtifactKind, stored: u64, raw: u64) -> Entry {
        let now = SystemTime::now();
        let _ = file.set_modified(now);
        Entry::new(kind, stored, raw, now)
    }
}

/// File name → entry, for every live container the store has seen.
type Entries = BTreeMap<String, Entry>;

/// The kind of a live container's file name, `<32 hex>-<tag>.lpa`;
/// `None` for quarantined, temp and foreign files.
fn kind_of(name: &str) -> Option<ArtifactKind> {
    let (hex, tag) = name.strip_suffix(".lpa")?.split_once('-')?;
    StoreKey::from_hex(hex).filter(|k| k.hex() == hex)?;
    ArtifactKind::from_tag(tag)
}

/// The artifact store handle.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    obs: Observer,
    entries: Mutex<Entries>,
    counters: Counters,
}

impl Store {
    /// Opens (creating if needed) the store at `dir` with default config.
    pub fn open(dir: impl AsRef<Path>, obs: Observer) -> io::Result<Store> {
        Store::open_with(dir, StoreConfig::default(), obs)
    }

    /// Opens (creating if needed) the store at `dir`.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        obs: Observer,
    ) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let store = Store {
            dir,
            config,
            obs,
            entries: Mutex::new(Entries::new()),
            counters: Counters::default(),
        };
        drop(store.on_disk());
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File name for `key`/`kind` (relative to the store directory).
    pub fn file_name(key: &StoreKey, kind: ArtifactKind) -> String {
        format!("{}-{}.lpa", key.hex(), kind.tag())
    }

    /// Republishes the byte-total gauges from `entries`.
    fn publish(&self, entries: &Entries) {
        let (stored, raw) = totals(entries.values());
        self.obs.gauge(names::STORE_BYTES_RAW).set(raw as f64);
        self.obs
            .gauge(names::STORE_BYTES_COMPRESSED)
            .set(stored as f64);
    }

    /// Records (`Some`) or forgets (`None`) one container in the map.
    fn update(&self, name: &str, entry: Option<Entry>) {
        let mut entries = self.entries.lock().expect("store map lock");
        match entry {
            Some(e) => entries.insert(name.to_string(), e),
            None => entries.remove(name),
        };
        self.publish(&entries);
    }

    /// The map rebuilt from the directory, so it reports what is on disk
    /// now: one `stat` per container, plus a header read for names the map
    /// does not know yet. Containers too short for a header are left out
    /// (`load` quarantines them).
    fn on_disk(&self) -> MutexGuard<'_, Entries> {
        let mut entries = self.entries.lock().expect("store map lock");
        if let Ok(dir) = fs::read_dir(&self.dir) {
            let mut fresh = Entries::new();
            for item in dir.flatten() {
                let name = item.file_name().into_string().unwrap_or_default();
                let (Some(kind), Ok(meta)) = (kind_of(&name), item.metadata()) else {
                    continue;
                };
                let known = entries.get(&name).map(|e| e.raw);
                let Some(raw) = known.or_else(|| container::read_raw_len(&item.path())) else {
                    continue;
                };
                let (stored, mtime) = (meta.len(), meta.modified().unwrap_or(UNIX_EPOCH));
                fresh.insert(name, Entry::new(kind, stored, raw, mtime));
            }
            *entries = fresh;
        }
        self.publish(&entries);
        entries
    }

    /// Removes least-recently-used containers — `(mtime, name)` ascending —
    /// until `entries` fit `budget`. `keep`, the container just written, is
    /// never a victim: evicting it would make the store useless whenever
    /// one artifact alone exceeds the budget.
    fn evict(&self, entries: &mut Entries, budget: u64, keep: &str) {
        let mut total = totals(entries.values()).0;
        let mut by_age: Vec<(SystemTime, String)> = entries
            .iter()
            .filter(|(name, _)| *name != keep)
            .map(|(name, e)| (e.mtime, name.clone()))
            .collect();
        by_age.sort();
        for (_, victim) in by_age {
            if total <= budget {
                break;
            }
            total -= entries.remove(&victim).map_or(0, |e| e.stored);
            if fs::remove_file(self.dir.join(&victim)).is_ok() {
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(names::STORE_EVICT).inc();
            }
        }
    }

    fn miss(&self) {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.counter(names::STORE_MISS).inc();
    }

    /// Loads and verifies the artifact for `key`/`kind`.
    ///
    /// Returns the decoded payload on a hit, and stamps the container's
    /// mtime as its last use. On a miss returns `None` without touching
    /// the disk. On a *corrupt* container (bad checksum, framing, or codec)
    /// the file is quarantined by renaming it to `<name>.corrupt`, the
    /// corruption is counted and logged, and `None` is returned — the
    /// caller recomputes, exactly as on a plain miss.
    pub fn load(&self, key: &StoreKey, kind: ArtifactKind) -> Option<Vec<u8>> {
        let name = Store::file_name(key, kind);
        let path = self.dir.join(&name);
        let mut span = self.obs.span(names::SPAN_STORE_LOAD, names::CAT_STORE);
        span.arg("kind", kind.tag());
        let mut bytes = Vec::new();
        let Ok(file) = File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes).map(|_| f))
        else {
            self.update(&name, None);
            self.miss();
            return None;
        };
        match container::open(&bytes, kind) {
            Ok(c) => {
                let (stored, raw) = (bytes.len() as u64, c.payload.len() as u64);
                self.update(&name, Some(Entry::stamp(&file, kind, stored, raw)));
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(names::STORE_HIT).inc();
                span.arg("bytes", c.payload.len() as u64);
                Some(c.payload)
            }
            Err(e) => {
                lp_obs::lp_warn!("store: quarantining corrupt artifact {name}: {e}");
                let _ = fs::rename(&path, self.dir.join(format!("{name}.corrupt")));
                self.update(&name, None);
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(names::STORE_CORRUPT).inc();
                self.miss();
                None
            }
        }
    }

    /// Seals and atomically persists `payload` under `key`/`kind`, then
    /// enforces the byte budget by LRU eviction.
    pub fn save(&self, key: &StoreKey, kind: ArtifactKind, payload: &[u8]) -> io::Result<()> {
        let name = Store::file_name(key, kind);
        let path = self.dir.join(&name);
        let mut span = self.obs.span(names::SPAN_STORE_SAVE, names::CAT_STORE);
        span.arg("kind", kind.tag());
        span.arg("raw_bytes", payload.len() as u64);
        let sealed = container::seal(kind, payload);
        span.arg("stored_bytes", sealed.len() as u64);
        // No lock: content-addressed name + atomic rename means concurrent
        // writers of one key race to install byte-identical files.
        lp_obs::write_atomic(&path, &sealed)?;
        let (stored, raw) = (sealed.len() as u64, payload.len() as u64);
        let entry = Entry::stamp(&File::open(&path)?, kind, stored, raw);
        self.update(&name, Some(entry));
        if let Some(budget) = self.config.max_bytes {
            let mut entries = self.on_disk();
            self.evict(&mut entries, budget, &name);
            self.publish(&entries);
        }
        Ok(())
    }

    /// Whether an artifact file for `key`/`kind` currently exists (no
    /// validation — `load` is the authority).
    pub fn contains(&self, key: &StoreKey, kind: ArtifactKind) -> bool {
        self.dir.join(Store::file_name(key, kind)).exists()
    }

    /// Session counters + the byte totals of the artifacts on disk.
    pub fn stats(&self) -> StoreStats {
        let (bytes_stored, bytes_raw) = totals(self.on_disk().values());
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            corruptions: self.counters.corruptions.load(Ordering::Relaxed),
            bytes_raw,
            bytes_stored,
        }
    }

    /// Per-kind `(kind, stored, raw)` totals for compression-ratio stats,
    /// in [`ArtifactKind::ALL`] order.
    pub fn totals_by_kind(&self) -> Vec<(ArtifactKind, u64, u64)> {
        let entries = self.on_disk();
        ArtifactKind::ALL
            .into_iter()
            .map(|k| {
                let (stored, raw) = totals(entries.values().filter(|e| e.kind == k));
                (k, stored, raw)
            })
            .collect()
    }

    /// Number of artifacts on disk.
    pub fn len(&self) -> usize {
        self.on_disk().len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `(stored, raw)` byte totals.
fn totals<'a>(entries: impl Iterator<Item = &'a Entry>) -> (u64, u64) {
    entries.fold((0, 0), |(s, r), e| (s + e.stored, r + e.raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "lp-store-test-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn key(n: u8) -> StoreKey {
        let mut b = StoreKeyBuilder::new("test");
        b.field_u64("n", n as u64);
        b.finish()
    }

    #[test]
    fn save_load_roundtrip_and_stats() {
        let dir = tmpdir("roundtrip");
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        let payload = vec![7u8; 10_000];
        assert!(store.load(&key(1), ArtifactKind::Pinball).is_none());
        store
            .save(&key(1), ArtifactKind::Pinball, &payload)
            .unwrap();
        assert_eq!(
            store.load(&key(1), ArtifactKind::Pinball).as_deref(),
            Some(&payload[..])
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corruptions), (1, 1, 0));
        assert_eq!(s.bytes_raw, 10_000);
        assert!(s.bytes_stored < 1_000, "RLE payload should compress");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let store = Store::open(&dir, Observer::disabled()).unwrap();
            store
                .save(&key(2), ArtifactKind::Analysis, b"analysis bytes")
                .unwrap();
        }
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.load(&key(2), ArtifactKind::Analysis).as_deref(),
            Some(&b"analysis bytes"[..])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_quarantines_and_recovers() {
        let dir = tmpdir("corrupt");
        let obs = Observer::enabled();
        let store = Store::open(&dir, obs.clone()).unwrap();
        store
            .save(&key(3), ArtifactKind::BbvMatrix, b"matrix payload here")
            .unwrap();
        let name = Store::file_name(&key(3), ArtifactKind::BbvMatrix);
        let path = dir.join(&name);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load(&key(3), ArtifactKind::BbvMatrix).is_none());
        assert!(!path.exists(), "corrupt file removed from live set");
        assert!(dir.join(format!("{name}.corrupt")).exists(), "quarantined");
        let s = store.stats();
        assert_eq!((s.corruptions, s.hits), (1, 0));
        assert_eq!(obs.snapshot().counters["store.corrupt"], 1);

        // Recompute-and-save works transparently afterwards.
        store
            .save(&key(3), ArtifactKind::BbvMatrix, b"matrix payload here")
            .unwrap();
        assert!(store.load(&key(3), ArtifactKind::BbvMatrix).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let dir = tmpdir("kindmix");
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        store.save(&key(4), ArtifactKind::Pinball, b"pb").unwrap();
        // Same key, wrong kind: distinct file name, so a plain miss.
        assert!(store.load(&key(4), ArtifactKind::Analysis).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let dir = tmpdir("evict");
        let obs = Observer::enabled();
        let cfg = StoreConfig {
            max_bytes: Some(3 * 200),
        };
        let store = Store::open_with(&dir, cfg, obs.clone()).unwrap();
        // Incompressible payloads of ~150 stored bytes each.
        let mk = |seed: u8| -> Vec<u8> {
            let mut x = seed as u64 + 1;
            (0..120)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as u8
                })
                .collect()
        };
        for i in 0..4u8 {
            store
                .save(&key(i), ArtifactKind::Checkpoints, &mk(i))
                .unwrap();
        }
        // Budget fits ~3 artifacts; key(0) is the LRU victim.
        assert!(store.stats().bytes_stored <= 600);
        assert!(store.load(&key(0), ArtifactKind::Checkpoints).is_none());
        assert!(store.load(&key(3), ArtifactKind::Checkpoints).is_some());
        assert!(store.stats().evictions >= 1);
        assert!(obs.snapshot().counters["store.evict"] >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn touch_changes_eviction_order() {
        let dir = tmpdir("touch");
        let cfg = StoreConfig {
            max_bytes: Some(260),
        };
        let store = Store::open_with(&dir, cfg, Observer::disabled()).unwrap();
        let mk = |seed: u8| -> Vec<u8> {
            let mut x = seed as u64 + 99;
            (0..80)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    (x >> 29) as u8
                })
                .collect()
        };
        store
            .save(&key(10), ArtifactKind::Pinball, &mk(10))
            .unwrap();
        store
            .save(&key(11), ArtifactKind::Pinball, &mk(11))
            .unwrap();
        // Touch key(10) so key(11) becomes the LRU entry...
        assert!(store.load(&key(10), ArtifactKind::Pinball).is_some());
        // ...then overflow the budget.
        store
            .save(&key(12), ArtifactKind::Pinball, &mk(12))
            .unwrap();
        assert!(store.contains(&key(10), ArtifactKind::Pinball));
        assert!(!store.contains(&key(11), ArtifactKind::Pinball));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_builder_is_order_and_label_sensitive() {
        let k1 = {
            let mut b = StoreKeyBuilder::new("d");
            b.field_u64("a", 1).field_u64("b", 2);
            b.finish()
        };
        let k2 = {
            let mut b = StoreKeyBuilder::new("d");
            b.field_u64("b", 2).field_u64("a", 1);
            b.finish()
        };
        let k3 = {
            let mut b = StoreKeyBuilder::new("d");
            b.field_u64("a", 1).field_u64("c", 2);
            b.finish()
        };
        let k4 = {
            let mut b = StoreKeyBuilder::new("e");
            b.field_u64("a", 1).field_u64("b", 2);
            b.finish()
        };
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        // Deterministic across builders.
        let k1b = {
            let mut b = StoreKeyBuilder::new("d");
            b.field_u64("a", 1).field_u64("b", 2);
            b.finish()
        };
        assert_eq!(k1, k1b);
        assert_eq!(k1.hex().len(), 32);
    }

    #[test]
    fn stale_index_entry_dropped_cleanly() {
        let dir = tmpdir("stale");
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        store
            .save(&key(5), ArtifactKind::Clustering, b"clusters")
            .unwrap();
        // Delete the artifact behind the index's back.
        fs::remove_file(dir.join(Store::file_name(&key(5), ArtifactKind::Clustering))).unwrap();
        assert!(store.load(&key(5), ArtifactKind::Clustering).is_none());
        assert_eq!(store.len(), 0, "stale entry dropped");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// 100 incompressible bytes: a 136-byte container.
    fn noise(seed: u8) -> Vec<u8> {
        let mut x = u64::from(seed) * 7919 + 1;
        (0..100)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect()
    }

    fn budgeted(dir: &Path, max_bytes: u64) -> Store {
        let cfg = StoreConfig {
            max_bytes: Some(max_bytes),
        };
        Store::open_with(dir, cfg, Observer::disabled()).unwrap()
    }

    #[test]
    fn eviction_spares_the_newest_even_at_budget_zero() {
        let (dir, kind) = (tmpdir("budget0"), ArtifactKind::Analysis);
        let store = budgeted(&dir, 0);
        for i in 20..23 {
            store.save(&key(i), kind, &noise(i)).unwrap();
        }
        assert_eq!(store.len(), 1);
        assert!(store.contains(&key(22), kind));
        assert_eq!(store.stats().evictions, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn totals_by_kind_partition_the_totals() {
        use ArtifactKind::{Checkpoints, Pinball};
        let dir = tmpdir("bykind");
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        store.save(&key(30), Pinball, &[1; 400]).unwrap();
        store.save(&key(31), Pinball, &noise(31)).unwrap();
        store.save(&key(32), Checkpoints, b"ck").unwrap();
        let (by_kind, s) = (store.totals_by_kind(), store.stats());
        assert_eq!(by_kind.iter().map(|t| t.1).sum::<u64>(), s.bytes_stored);
        assert_eq!(by_kind.iter().map(|t| t.2).sum::<u64>(), s.bytes_raw);
        assert_eq!((by_kind[0].0, by_kind[0].2), (Pinball, 500));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_order_survives_reopen() {
        let (dir, kind) = (tmpdir("lru-reopen"), ArtifactKind::Pinball);
        {
            let store = budgeted(&dir, 300);
            store.save(&key(40), kind, &noise(40)).unwrap();
            store.save(&key(41), kind, &noise(41)).unwrap();
            assert!(store.load(&key(40), kind).is_some());
        }
        let store = budgeted(&dir, 300);
        store.save(&key(42), kind, &noise(42)).unwrap();
        assert!(store.contains(&key(40), kind));
        assert!(!store.contains(&key(41), kind), "the LRU is evicted");
        assert!(store.contains(&key(42), kind));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_what_is_not_a_live_container() {
        let (dir, kind) = (tmpdir("scan"), ArtifactKind::Clustering);
        let cut = Store::file_name(&key(51), kind);
        {
            let store = Store::open(&dir, Observer::disabled()).unwrap();
            store.save(&key(50), kind, b"kept").unwrap();
            store.save(&key(51), kind, b"to be truncated").unwrap();
        }
        let bytes = fs::read(dir.join(&cut)).unwrap();
        fs::write(dir.join(&cut), &bytes[..20]).unwrap();
        let other = Store::file_name(&key(52), kind);
        for junk in [&format!("{other}.corrupt"), &format!(".{other}.tmp.1.0")] {
            fs::write(dir.join(junk), b"junk").unwrap();
        }
        fs::write(dir.join("zz-clustering.lpa"), b"foreign").unwrap();
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        assert_eq!(store.len(), 1, "only the intact container counts");
        assert!(store.load(&key(51), kind).is_none());
        assert!(dir.join(format!("{cut}.corrupt")).exists(), "quarantined");
        assert_eq!(store.stats().corruptions, 1);
        assert_eq!(store.load(&key(50), kind).as_deref(), Some(&b"kept"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_miss_creates_and_modifies_nothing() {
        let (dir, kind) = (tmpdir("miss"), ArtifactKind::Pinball);
        let store = Store::open(&dir, Observer::disabled()).unwrap();
        store.save(&key(60), kind, b"present").unwrap();
        let mtime = |p: &Path| fs::metadata(p).unwrap().modified().unwrap();
        let listing = || {
            let mut v: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| (e.as_ref().unwrap().file_name(), mtime(&e.unwrap().path())))
                .collect();
            v.sort();
            (v, mtime(&dir))
        };
        let before = listing();
        assert!(store.load(&key(61), kind).is_none());
        assert!(store.load(&key(60), ArtifactKind::Analysis).is_none());
        assert_eq!(listing(), before);
        fs::remove_dir_all(&dir).unwrap();
    }
}
