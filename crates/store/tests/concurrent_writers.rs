//! Cross-process store-sharing regression tests.
//!
//! The store directory is the store's only index, so processes sharing one
//! `--store-dir` need no lock: every artifact is its own content-addressed
//! file, and each container's mtime is its LRU stamp. These tests spawn
//! two *real* processes (the test binary re-executes itself in helper
//! mode) on one directory and check that nothing is lost, nothing but
//! containers is left behind, a shared byte budget holds, and a hit in one
//! process protects that artifact from the other's eviction.

use lp_store::{ArtifactKind, Store, StoreConfig, StoreKeyBuilder};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const HELPER_ENV: &str = "LP_STORE_WRITER_HELPER";
const BUDGET_HELPER_ENV: &str = "LP_STORE_BUDGET_HELPER";
const WRITES_PER_WRITER: usize = 24;
/// Container size of one `writer_payload`: 28-byte header + 256 + 8.
const CONTAINER_BYTES: u64 = 292;

fn writer_key(writer: &str, n: usize) -> lp_store::StoreKey {
    let mut b = StoreKeyBuilder::new("two-writers/v1");
    b.field_str("writer", writer).field_u64("n", n as u64);
    b.finish()
}

fn writer_payload(writer: &str, n: usize) -> Vec<u8> {
    // Mildly incompressible, unique per (writer, n).
    let seed = writer.len() as u64 * 131 + n as u64;
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..256)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

/// Helper-mode body: run as a separate process by the test below.
fn writer_main(dir: &str, name: &str) {
    let store = Store::open(dir, lp_obs::Observer::disabled()).expect("helper opens store");
    for n in 0..WRITES_PER_WRITER {
        store
            .save(
                &writer_key(name, n),
                ArtifactKind::Analysis,
                &writer_payload(name, n),
            )
            .expect("helper save");
        // Interleave loads so hits and saves contend too.
        assert!(store
            .load(&writer_key(name, n), ArtifactKind::Analysis)
            .is_some());
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lp-store-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Re-executes this test binary as a helper running `test` with `env`.
fn spawn_helper(test: &str, env: &str, spec: String) -> std::process::Child {
    Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--nocapture"])
        .env(env, spec)
        .spawn()
        .expect("spawn helper process")
}

/// Asserts `dir` holds nothing but live containers: no lock, index or
/// temp file survives.
fn assert_only_containers(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            name.ends_with(".lpa") && !name.starts_with('.'),
            "stray file {name} in the store directory"
        );
    }
}

#[test]
fn two_processes_share_a_store_without_losing_artifacts() {
    if let Ok(spec) = std::env::var(HELPER_ENV) {
        let (dir, name) = spec.split_once('|').expect("helper spec");
        writer_main(dir, name);
        return;
    }

    let dir = tmpdir("two-writers");
    let spawn = |name: &str| {
        spawn_helper(
            "two_processes_share_a_store_without_losing_artifacts",
            HELPER_ENV,
            format!("{}|{name}", dir.display()),
        )
    };
    let mut a = spawn("alpha");
    let mut b = spawn("beta");
    assert!(a.wait().unwrap().success(), "writer alpha failed");
    assert!(b.wait().unwrap().success(), "writer beta failed");

    // A fresh handle sees a coherent, complete store: every artifact from
    // both writers present, loadable, and accounted.
    let store = Store::open(&dir, lp_obs::Observer::disabled()).unwrap();
    assert_eq!(
        store.len(),
        2 * WRITES_PER_WRITER,
        "store lost artifacts under concurrent writers"
    );
    for name in ["alpha", "beta"] {
        for n in 0..WRITES_PER_WRITER {
            let got = store.load(&writer_key(name, n), ArtifactKind::Analysis);
            assert_eq!(
                got.as_deref(),
                Some(&writer_payload(name, n)[..]),
                "lost or corrupted artifact {name}/{n}"
            );
        }
    }
    let stats = store.stats();
    assert_eq!(stats.corruptions, 0);
    assert_eq!(stats.bytes_raw, (2 * WRITES_PER_WRITER * 256) as u64);
    assert_only_containers(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls for `flag` (a file) for up to 30 s.
fn wait_for_flag(flag: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !flag.exists() {
        assert!(
            Instant::now() < deadline,
            "{} never appeared",
            flag.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Budgeted helper roles: `role|store dir|signal dir|name`.
fn budget_helper_main(spec: &str) {
    let parts: Vec<&str> = spec.split('|').collect();
    let [role, dir, sig, name] = parts[..] else {
        panic!("bad helper spec {spec}");
    };
    let (kind, sig) = (ArtifactKind::Analysis, Path::new(sig));
    let open = |containers: u64| {
        let cfg = StoreConfig {
            max_bytes: Some(containers * CONTAINER_BYTES),
        };
        Store::open_with(dir, cfg, lp_obs::Observer::disabled()).expect("helper opens store")
    };
    match role {
        // Budgeted writer: saves and immediately re-reads its artifacts
        // (the other writer may already have evicted one).
        "writer" => {
            let store = open(8);
            for n in 0..WRITES_PER_WRITER {
                let payload = writer_payload(name, n);
                store.save(&writer_key(name, n), kind, &payload).unwrap();
                if let Some(got) = store.load(&writer_key(name, n), kind) {
                    assert_eq!(got, payload);
                }
            }
        }
        // Saves x then y into a two-container budget, waits for the other
        // process's hit on x, then saves z: its own map still says x is
        // the older of the two.
        "keeper" => {
            let store = open(2);
            for n in 0..2 {
                store
                    .save(&writer_key(name, n), kind, &writer_payload(name, n))
                    .unwrap();
            }
            std::fs::write(sig.join("ready"), b"").unwrap();
            wait_for_flag(&sig.join("go"));
            store
                .save(&writer_key(name, 2), kind, &writer_payload(name, 2))
                .unwrap();
        }
        "toucher" => {
            wait_for_flag(&sig.join("ready"));
            let store = open(2);
            assert!(store.load(&writer_key(name, 0), kind).is_some());
            std::fs::write(sig.join("go"), b"").unwrap();
        }
        other => panic!("unknown helper role {other}"),
    }
}

#[test]
fn two_processes_share_a_budgeted_store() {
    if let Ok(spec) = std::env::var(BUDGET_HELPER_ENV) {
        budget_helper_main(&spec);
        return;
    }
    let spawn = |role: &str, dir: &Path, sig: &Path, name: &str| {
        let spec = format!("{role}|{}|{}|{name}", dir.display(), sig.display());
        spawn_helper(
            "two_processes_share_a_budgeted_store",
            BUDGET_HELPER_ENV,
            spec,
        )
    };
    let kind = ArtifactKind::Analysis;

    // Two writers against one 8-container budget: the final store is
    // within it, and everything left is intact.
    let dir = tmpdir("budgeted-writers");
    let sig = tmpdir("budgeted-writers-sig");
    let mut a = spawn("writer", &dir, &sig, "alpha");
    let mut b = spawn("writer", &dir, &sig, "beta");
    assert!(a.wait().unwrap().success(), "writer alpha failed");
    assert!(b.wait().unwrap().success(), "writer beta failed");
    let store = Store::open(&dir, lp_obs::Observer::disabled()).unwrap();
    let stats = store.stats();
    assert!(
        stats.bytes_stored <= 8 * CONTAINER_BYTES && !store.is_empty(),
        "{} artifacts, {} B over an {} B budget",
        store.len(),
        stats.bytes_stored,
        8 * CONTAINER_BYTES
    );
    for name in ["alpha", "beta"] {
        for n in 0..WRITES_PER_WRITER {
            if store.contains(&writer_key(name, n), kind) {
                let got = store.load(&writer_key(name, n), kind);
                assert_eq!(got.as_deref(), Some(&writer_payload(name, n)[..]));
            }
        }
    }
    assert_eq!(store.stats().corruptions, 0);
    assert_only_containers(&dir);

    // A hit in one process protects that artifact from the other's
    // eviction: the keeper evicts y, not the x the toucher just read.
    let dir2 = tmpdir("budgeted-hit");
    let mut keeper = spawn("keeper", &dir2, &sig, "gamma");
    let mut toucher = spawn("toucher", &dir2, &sig, "gamma");
    assert!(toucher.wait().unwrap().success(), "toucher failed");
    assert!(keeper.wait().unwrap().success(), "keeper failed");
    let store = Store::open(&dir2, lp_obs::Observer::disabled()).unwrap();
    assert!(
        store.contains(&writer_key("gamma", 0), kind),
        "hit x evicted"
    );
    assert!(!store.contains(&writer_key("gamma", 1), kind), "LRU y kept");
    assert!(
        store.contains(&writer_key("gamma", 2), kind),
        "newest z evicted"
    );
    assert_only_containers(&dir2);
    for d in [dir, sig, dir2] {
        let _ = std::fs::remove_dir_all(d);
    }
}
