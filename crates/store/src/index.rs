//! The store's metadata index: a small, human-readable file mapping
//! artifact file names to sizes and access order.
//!
//! The index is a *cache of metadata*, never a source of truth — artifact
//! integrity lives in each container's own checksum. If the index file is
//! missing or malformed the store rebuilds an empty one and re-discovers
//! artifacts lazily (a stale index entry for a deleted file is dropped on
//! first touch; an on-disk file absent from the index is simply re-saved on
//! the next miss). This keeps the failure story simple: nothing in the
//! index can corrupt a payload.
//!
//! Format (one record per line, fields space-separated; file names are
//! `<hex key>-<kind tag>.lpa` and never contain spaces):
//!
//! ```text
//! LPIX 1 <next_seq>
//! <file_name> <kind> <stored_bytes> <raw_bytes> <access_seq> <unix_atime>
//! ...
//! ```
//!
//! LRU order is the persisted `access_seq` counter, not filesystem atime:
//! it is deterministic, testable, and immune to `noatime` mounts.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::container::ArtifactKind;

/// Index file name inside the store directory.
pub const INDEX_FILE: &str = "index.lpix";
/// Index format magic + version line prefix.
const INDEX_MAGIC: &str = "LPIX";
/// Current index format version.
const INDEX_VERSION: u32 = 1;

/// Per-artifact metadata record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Artifact kind (redundant with the file-name tag; kept for cheap
    /// per-kind stats without string parsing).
    pub kind: ArtifactKind,
    /// On-disk container size in bytes (header + stored payload + trailer).
    pub stored_bytes: u64,
    /// Uncompressed payload size in bytes.
    pub raw_bytes: u64,
    /// Monotonic access sequence number; higher = more recently used.
    pub access_seq: u64,
    /// Seconds since the Unix epoch at last access (informational only).
    pub unix_atime: u64,
}

/// The in-memory index: file name → entry, plus the LRU counter.
#[derive(Debug, Default)]
pub struct Index {
    entries: BTreeMap<String, IndexEntry>,
    next_seq: u64,
}

fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl Index {
    /// Loads the index from `dir`, tolerating absence and corruption (both
    /// yield an empty index — see the module docs for why that is safe).
    pub fn load(dir: &Path) -> Index {
        let path = dir.join(INDEX_FILE);
        let Ok(text) = fs::read_to_string(&path) else {
            return Index::default();
        };
        Index::parse(&text).unwrap_or_default()
    }

    fn parse(text: &str) -> Option<Index> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut h = header.split_ascii_whitespace();
        if h.next()? != INDEX_MAGIC {
            return None;
        }
        let version: u32 = h.next()?.parse().ok()?;
        if version != INDEX_VERSION {
            return None;
        }
        let mut next_seq: u64 = h.next()?.parse().ok()?;
        let mut entries = BTreeMap::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut f = line.split_ascii_whitespace();
            let name = f.next()?.to_string();
            let kind = ArtifactKind::from_u16(f.next()?.parse().ok()?)?;
            let entry = IndexEntry {
                kind,
                stored_bytes: f.next()?.parse().ok()?,
                raw_bytes: f.next()?.parse().ok()?,
                access_seq: f.next()?.parse().ok()?,
                unix_atime: f.next()?.parse().ok()?,
            };
            next_seq = next_seq.max(entry.access_seq + 1);
            entries.insert(name, entry);
        }
        Some(Index { entries, next_seq })
    }

    fn render(&self) -> String {
        let mut out = format!("{INDEX_MAGIC} {INDEX_VERSION} {}\n", self.next_seq);
        for (name, e) in &self.entries {
            out.push_str(&format!(
                "{name} {} {} {} {} {}\n",
                e.kind as u16, e.stored_bytes, e.raw_bytes, e.access_seq, e.unix_atime
            ));
        }
        out
    }

    /// Atomically persists the index into `dir` (temp + fsync + rename).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        lp_obs::write_atomic(&dir.join(INDEX_FILE), self.render().as_bytes())
    }

    /// Records (or refreshes) `name` after a successful save.
    pub fn upsert(&mut self, name: &str, kind: ArtifactKind, stored_bytes: u64, raw_bytes: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            name.to_string(),
            IndexEntry {
                kind,
                stored_bytes,
                raw_bytes,
                access_seq: seq,
                unix_atime: now_unix(),
            },
        );
    }

    /// Bumps `name` to most-recently-used. Returns false if unknown.
    pub fn touch(&mut self, name: &str) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.access_seq = self.next_seq;
                e.unix_atime = now_unix();
                self.next_seq += 1;
                true
            }
            None => false,
        }
    }

    /// Drops `name` from the index (eviction, quarantine, or staleness).
    pub fn remove(&mut self, name: &str) -> Option<IndexEntry> {
        self.entries.remove(name)
    }

    /// Looks up one entry.
    pub fn get(&self, name: &str) -> Option<&IndexEntry> {
        self.entries.get(name)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total on-disk bytes across live entries.
    pub fn total_stored(&self) -> u64 {
        self.entries.values().map(|e| e.stored_bytes).sum()
    }

    /// Total uncompressed bytes across live entries.
    pub fn total_raw(&self) -> u64 {
        self.entries.values().map(|e| e.raw_bytes).sum()
    }

    /// Per-kind `(stored, raw)` byte totals, in [`ArtifactKind::ALL`] order.
    pub fn totals_by_kind(&self) -> Vec<(ArtifactKind, u64, u64)> {
        ArtifactKind::ALL
            .into_iter()
            .map(|k| {
                let (mut s, mut r) = (0u64, 0u64);
                for e in self.entries.values().filter(|e| e.kind == k) {
                    s += e.stored_bytes;
                    r += e.raw_bytes;
                }
                (k, s, r)
            })
            .collect()
    }

    /// File names to evict (least-recently-used first) so the remaining
    /// stored bytes fit under `budget`. The most recently used entry is
    /// never selected: evicting the artifact that was just written would
    /// make the store useless whenever one artifact alone exceeds the
    /// budget.
    pub fn eviction_plan(&self, budget: u64) -> Vec<String> {
        let mut total = self.total_stored();
        if total <= budget {
            return Vec::new();
        }
        let mut by_age: Vec<(&String, &IndexEntry)> = self.entries.iter().collect();
        by_age.sort_by_key(|(_, e)| e.access_seq);
        let mut plan = Vec::new();
        // Skip the newest entry (last after the sort).
        for (name, e) in by_age.iter().take(by_age.len().saturating_sub(1)) {
            if total <= budget {
                break;
            }
            total -= e.stored_bytes;
            plan.push((*name).clone());
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let mut ix = Index::default();
        ix.upsert("aa-pinball.lpa", ArtifactKind::Pinball, 100, 400);
        ix.upsert("bb-bbv.lpa", ArtifactKind::BbvMatrix, 50, 60);
        ix.touch("aa-pinball.lpa");
        let text = ix.render();
        let back = Index::parse(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("aa-pinball.lpa"), ix.get("aa-pinball.lpa"));
        assert_eq!(back.get("bb-bbv.lpa"), ix.get("bb-bbv.lpa"));
        // next_seq resumes past the highest persisted seq.
        assert!(back.next_seq > back.get("aa-pinball.lpa").unwrap().access_seq);
    }

    #[test]
    fn malformed_text_yields_empty() {
        assert!(Index::parse("garbage").is_none());
        assert!(Index::parse("LPIX 99 0\n").is_none());
        assert!(Index::parse("LPIX 1 0\nname notanumber 1 2 3 4\n").is_none());
    }

    #[test]
    fn eviction_is_lru_and_spares_newest() {
        let mut ix = Index::default();
        ix.upsert("a", ArtifactKind::Pinball, 100, 100);
        ix.upsert("b", ArtifactKind::Analysis, 100, 100);
        ix.upsert("c", ArtifactKind::Clustering, 100, 100);
        ix.touch("a"); // order oldest→newest is now b, c, a
        let plan = ix.eviction_plan(150);
        assert_eq!(plan, vec!["b".to_string(), "c".to_string()]);
        // Even a zero budget never evicts the most recent entry.
        let plan = ix.eviction_plan(0);
        assert_eq!(plan, vec!["b".to_string(), "c".to_string()]);
        // Under budget: no evictions.
        assert!(ix.eviction_plan(1000).is_empty());
    }

    #[test]
    fn totals_by_kind_partition_totals() {
        let mut ix = Index::default();
        ix.upsert("a", ArtifactKind::Pinball, 10, 40);
        ix.upsert("b", ArtifactKind::Pinball, 20, 50);
        ix.upsert("c", ArtifactKind::Checkpoints, 5, 5);
        let by_kind = ix.totals_by_kind();
        let stored: u64 = by_kind.iter().map(|(_, s, _)| s).sum();
        let raw: u64 = by_kind.iter().map(|(_, _, r)| r).sum();
        assert_eq!(stored, ix.total_stored());
        assert_eq!(raw, ix.total_raw());
        let pin = by_kind
            .iter()
            .find(|(k, _, _)| *k == ArtifactKind::Pinball)
            .unwrap();
        assert_eq!((pin.1, pin.2), (30, 90));
    }
}
