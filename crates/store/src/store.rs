//! The [`Store`]: a content-addressed artifact cache on disk.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/index.lpix                 metadata + LRU order (see index.rs)
//! <dir>/<hex128>-<kind>.lpa        sealed artifact containers
//! <dir>/<hex128>-<kind>.lpa.corrupt   quarantined failed containers
//! ```
//!
//! Every mutation is crash-safe: containers and the index are written to a
//! temp file, fsynced, then renamed into place, and the directory itself is
//! fsynced so the rename is durable. A crash at any point leaves either the
//! old state or the new state, never a torn file — and even a torn file
//! would be caught by the container checksum and quarantined on next load.
//!
//! The handle uses interior mutability (one mutex around the index and
//! session stats) so pipeline code can share `&Store` freely.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lp_obs::{names, Observer};

use crate::container::{self, ArtifactKind};
use crate::hash::Hash64;
use crate::index::Index;
use crate::lock::{DirLock, DEFAULT_TIMEOUT};

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
    /// On-disk byte budget for artifact containers (the index file is not
    /// counted; it is a few hundred bytes). `None` = unbounded.
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

/// The artifact store handle.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    obs: Observer,
    index: Mutex<Index>,
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
        let index = Index::load(&dir);
        let store = Store {
            dir,
            config,
            obs,
            index: Mutex::new(index),
            counters: Counters::default(),
        };
        store.publish_gauges(&store.index.lock().expect("store index lock"));
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

    fn publish_gauges(&self, index: &Index) {
        self.obs
            .gauge(names::STORE_BYTES_RAW)
            .set(index.total_raw() as f64);
        self.obs
            .gauge(names::STORE_BYTES_COMPRESSED)
            .set(index.total_stored() as f64);
    }

    fn miss(&self) {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.counter(names::STORE_MISS).inc();
    }

    /// Runs `f` on the index under both the in-process mutex **and** the
    /// cross-process [`DirLock`], with the index refreshed from disk first
    /// so another process's mutations are merged instead of overwritten —
    /// the full read-modify-write cycle is atomic across processes sharing
    /// one store directory. The updated index is saved and gauges
    /// republished before the lock is released.
    ///
    /// # Errors
    /// Lock acquisition (timeout) or index write failures.
    fn with_shared_index<R>(&self, f: impl FnOnce(&mut Index) -> R) -> io::Result<R> {
        let _dirlock = DirLock::acquire(&self.dir, DEFAULT_TIMEOUT)?;
        let mut index = self.index.lock().expect("store index lock");
        *index = Index::load(&self.dir);
        let r = f(&mut index);
        index.save(&self.dir)?;
        self.publish_gauges(&index);
        Ok(r)
    }

    /// Loads and verifies the artifact for `key`/`kind`.
    ///
    /// Returns the decoded payload on a hit. On a miss returns `None`. On a
    /// *corrupt* container (bad checksum, framing, or codec) the file is
    /// quarantined by renaming it to `<name>.corrupt`, the corruption is
    /// counted and logged, and `None` is returned — the caller recomputes,
    /// exactly as on a plain miss.
    pub fn load(&self, key: &StoreKey, kind: ArtifactKind) -> Option<Vec<u8>> {
        let name = Store::file_name(key, kind);
        let path = self.dir.join(&name);
        let mut span = self.obs.span(names::SPAN_STORE_LOAD, names::CAT_STORE);
        span.arg("kind", kind.tag());
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Absent file: also drop any stale index entry. Best
                // effort — a contended lock never blocks serving a miss.
                let _ = self.with_shared_index(|index| index.remove(&name));
                self.miss();
                return None;
            }
        };
        match container::open(&bytes, kind) {
            Ok(c) => {
                // Best effort: a contended lock never blocks serving the
                // (already decoded) payload; only LRU bookkeeping is lost.
                let _ = self.with_shared_index(|index| {
                    if !index.touch(&name) {
                        // File exists but predates the index (or the index
                        // was rebuilt): adopt it.
                        index.upsert(&name, kind, bytes.len() as u64, c.payload.len() as u64);
                    }
                });
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(names::STORE_HIT).inc();
                span.arg("bytes", c.payload.len() as u64);
                Some(c.payload)
            }
            Err(e) => {
                lp_obs::lp_warn!("store: quarantining corrupt artifact {name}: {e}");
                let _ = fs::rename(&path, self.dir.join(format!("{name}.corrupt")));
                let _ = self.with_shared_index(|index| index.remove(&name));
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
        let mut span = self.obs.span(names::SPAN_STORE_SAVE, names::CAT_STORE);
        span.arg("kind", kind.tag());
        span.arg("raw_bytes", payload.len() as u64);
        let sealed = container::seal(kind, payload);
        span.arg("stored_bytes", sealed.len() as u64);
        // The artifact itself needs no lock: content-addressed name +
        // atomic rename means concurrent writers of one key race to
        // install byte-identical files.
        lp_obs::write_atomic(&self.dir.join(&name), &sealed)?;
        self.with_shared_index(|index| {
            index.upsert(&name, kind, sealed.len() as u64, payload.len() as u64);
            if let Some(budget) = self.config.max_bytes {
                for victim in index.eviction_plan(budget) {
                    let _ = fs::remove_file(self.dir.join(&victim));
                    index.remove(&victim);
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    self.obs.counter(names::STORE_EVICT).inc();
                }
            }
        })
    }

    /// Whether an artifact file for `key`/`kind` currently exists (no
    /// validation — `load` is the authority).
    pub fn contains(&self, key: &StoreKey, kind: ArtifactKind) -> bool {
        self.dir.join(Store::file_name(key, kind)).exists()
    }

    /// Session counters + live byte totals.
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock().expect("store index lock");
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            corruptions: self.counters.corruptions.load(Ordering::Relaxed),
            bytes_raw: index.total_raw(),
            bytes_stored: index.total_stored(),
        }
    }

    /// Per-kind `(kind, stored, raw)` totals for compression-ratio stats.
    pub fn totals_by_kind(&self) -> Vec<(ArtifactKind, u64, u64)> {
        self.index
            .lock()
            .expect("store index lock")
            .totals_by_kind()
    }

    /// Number of live artifacts.
    pub fn len(&self) -> usize {
        self.index.lock().expect("store index lock").len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.index.lock().expect("store index lock").is_empty()
    }
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
}
