//! Property tests for the v2 transition journal: an arbitrary op
//! sequence restored from append-only log + snapshot must materialize
//! exactly the same durable set as full-rewrite semantics (the in-test
//! model), with or without compactions interleaved; a torn log tail is
//! dropped, never fatal; and a snapshot that is not version 2 with a
//! `seq` is refused.

use lp_farm::{JobSpec, Journal, JournalConfig, PersistedJob, JOURNAL_FILE, JOURNAL_LOG_FILE};
use lp_obs::Observer;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "lp-journal-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn job(id: u64) -> PersistedJob {
    PersistedJob {
        id,
        key: format!("{id:0>32}"),
        attempts: 0,
        submitted_us: 1_000 + id,
        traceparent: String::new(),
        spec: JobSpec {
            program: format!("prog-{id}"),
            priority: id as i64 % 5,
            ..JobSpec::default()
        },
    }
}

/// Full-rewrite semantics: the durable set a full-rewrite journal would hold
/// after the same transitions, as id → (attempts, program).
type Model = BTreeMap<u64, (u32, String)>;

/// Applies `(kind, pick)`-encoded ops to both the journal and the
/// model. Kinds: 0 = enqueue a fresh job, 1 = start, 2 = requeue,
/// 3 = terminal; `pick` selects the target among live ids.
fn drive(journal: &Journal, model: &mut Model, next_id: &mut u64, ops: &[(u8, u64)]) {
    for &(kind, pick) in ops {
        let live: Vec<u64> = model.keys().copied().collect();
        match kind % 4 {
            0 => {
                let j = job(*next_id);
                *next_id += 1;
                model.insert(j.id, (0, j.spec.program.clone()));
                journal.enqueue(j);
            }
            k if live.is_empty() => {
                // No live job to transition; treat as another enqueue so
                // sequences stay interesting.
                let _ = k;
                let j = job(*next_id);
                *next_id += 1;
                model.insert(j.id, (0, j.spec.program.clone()));
                journal.enqueue(j);
            }
            1 => {
                let id = live[(pick as usize) % live.len()];
                model.get_mut(&id).unwrap().0 += 1;
                journal.start(id);
            }
            2 => {
                let id = live[(pick as usize) % live.len()];
                let a = &mut model.get_mut(&id).unwrap().0;
                *a = a.saturating_sub(1);
                journal.requeue(id);
            }
            _ => {
                let id = live[(pick as usize) % live.len()];
                model.remove(&id);
                journal.terminal(id);
            }
        }
    }
}

fn view_as_model(journal: &Journal) -> Model {
    journal
        .view()
        .jobs
        .into_iter()
        .map(|j| (j.id, (j.attempts, j.spec.program)))
        .collect()
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..60)
}

proptest! {
    /// Restoring from log tail alone (no compaction ever ran) equals
    /// the full-rewrite model.
    #[test]
    fn log_replay_matches_full_rewrite_semantics(ops in ops_strategy()) {
        let dir = tmpdir("replay");
        let mut model = Model::new();
        let mut next_id = 1u64;
        {
            let journal = Journal::open(&dir, JournalConfig::default(), Observer::disabled()).unwrap();
            drive(&journal, &mut model, &mut next_id, &ops);
            journal.sync();
        } // drop: final flush, no compaction forced
        let reopened = Journal::open(&dir, JournalConfig::default(), Observer::disabled()).unwrap();
        prop_assert_eq!(view_as_model(&reopened), model);
        prop_assert!(reopened.view().next_id >= next_id);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Interleaving forced compactions (snapshot + truncated log) at
    /// arbitrary points never changes what restores.
    #[test]
    fn compaction_is_transparent_to_restore(ops in ops_strategy(), stride in 1usize..8) {
        let dir = tmpdir("compact");
        let mut model = Model::new();
        let mut next_id = 1u64;
        {
            let journal = Journal::open(&dir, JournalConfig::default(), Observer::disabled()).unwrap();
            for chunk in ops.chunks(stride) {
                drive(&journal, &mut model, &mut next_id, chunk);
                journal.checkpoint();
            }
        }
        let reopened = Journal::open(&dir, JournalConfig::default(), Observer::disabled()).unwrap();
        prop_assert_eq!(view_as_model(&reopened), model);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn final record (SIGKILL mid-append) is dropped; everything
    /// flushed before it restores intact.
    #[test]
    fn truncated_tail_is_dropped_not_fatal(ops in ops_strategy(), cut in 1usize..40) {
        let dir = tmpdir("torn");
        let mut model = Model::new();
        let mut next_id = 1u64;
        {
            let journal = Journal::open(&dir, JournalConfig::default(), Observer::disabled()).unwrap();
            drive(&journal, &mut model, &mut next_id, &ops);
            journal.sync();
        }
        // Tear the log mid-record: keep all complete lines, then append
        // a prefix of one more valid-looking record.
        let log = dir.join(JOURNAL_LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap_or_default();
        let torn = "{\"seq\":999999,\"op\":\"enqueue\",\"id\":424242,\"key\"";
        bytes.extend_from_slice(&torn.as_bytes()[..cut.min(torn.len())]);
        std::fs::write(&log, &bytes).unwrap();

        let reopened = Journal::open(&dir, JournalConfig::default(), Observer::disabled()).unwrap();
        let restored = view_as_model(&reopened);
        prop_assert!(!restored.contains_key(&424242), "torn record must not apply");
        prop_assert_eq!(restored, model);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot without `version: 2` and a `seq` is refused as
/// `InvalidData`, not restored as if it were current.
#[test]
fn snapshot_without_version_2_and_seq_is_invalid_data() {
    let dir = tmpdir("badsnap");
    for doc in [
        r#"{"version":1,"next_id":7,"jobs":[]}"#,
        r#"{"next_id":7,"jobs":[]}"#,
        r#"{"version":2,"next_id":7,"jobs":[]}"#,
    ] {
        std::fs::write(dir.join(JOURNAL_FILE), doc).unwrap();
        let err = Journal::open(&dir, JournalConfig::default(), Observer::disabled())
            .err()
            .unwrap_or_else(|| panic!("{doc} must not restore"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{doc}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
