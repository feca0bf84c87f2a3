//! Artifact-store benchmark: cold vs warm pipeline front halves, plus a
//! multi-config clustering sweep, emitting machine-readable
//! `BENCH_store.json`.
//!
//! Three measurements:
//!
//! 1. **Cold** — `analyze_cached` + `prepare_region_checkpoints_cached`
//!    against an empty store: the full record/replay/DCFG/slicing/
//!    clustering/checkpoint pipeline *plus* the cost of persisting all
//!    five artifacts (the worst case for the store);
//! 2. **Warm** — the same two calls again: everything is served from
//!    disk, zero recording or replay;
//! 3. **Sweep** — five clustering configurations over the same program.
//!    The program-dependent artifacts differ per key, but a warm sweep
//!    re-run skips all recomputation — the "parameter study" workflow the
//!    store exists for (§IV sensitivity studies re-cluster the same
//!    profile many times).
//!
//! Warm results are asserted byte-identical to cold before any timing is
//! reported. Run via `cargo bench --bench store_reuse` (`-- --smoke` for
//! the CI gate's quick variant; `--out PATH` to redirect the JSON).

use looppoint::persist::{encode_clustering, encode_profile};
use looppoint::{analyze_cached, prepare_region_checkpoints_cached, LoopPointConfig};
use lp_bench::{obj, BenchArgs};
use lp_obs::json::Value;
use lp_obs::Observer;
use lp_omp::WaitPolicy;
use lp_store::Store;
use lp_workloads::{build, spec_workloads, InputClass};
use std::path::PathBuf;
use std::time::Instant;

const NTHREADS: usize = 8;
const WARMUP_SLICES: usize = 2;

fn fresh_store_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lp-bench-store-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).expect("create bench store dir");
    d
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args = BenchArgs::parse("BENCH_store.json");
    let (input, slice_base): (InputClass, u64) = if args.smoke {
        (InputClass::Test, 2_000)
    } else {
        (InputClass::Train, 4_000)
    };
    let spec = spec_workloads()
        .into_iter()
        .next()
        .expect("spec suite is non-empty");
    let nthreads = spec.effective_threads(NTHREADS);
    let program = build(&spec, input, NTHREADS, WaitPolicy::Passive);
    let cfg = LoopPointConfig::with_slice_base(slice_base);

    println!(
        "store-reuse benchmark: {} | {} threads | slice base {} {}",
        spec.name,
        nthreads,
        slice_base,
        if args.smoke { "(smoke)" } else { "" }
    );

    // --- cold vs warm, one configuration ---------------------------------
    let dir = fresh_store_dir("single");
    let store = Store::open(&dir, Observer::disabled()).expect("open store");

    let mut cold_analysis = None;
    let cold_ms = time_ms(|| {
        let (a, hit) = analyze_cached(&program, nthreads, &cfg, &store).unwrap();
        assert!(!hit, "first run must be cold");
        let (ck, hit) =
            prepare_region_checkpoints_cached(&a, &program, nthreads, &cfg, WARMUP_SLICES, &store)
                .unwrap();
        assert!(!hit);
        cold_analysis = Some((a, ck));
    });
    let (cold_a, cold_ck) = cold_analysis.unwrap();

    let mut warm_analysis = None;
    let warm_ms = time_ms(|| {
        let (a, hit) = analyze_cached(&program, nthreads, &cfg, &store).unwrap();
        assert!(hit, "second run must be warm");
        let (ck, hit) =
            prepare_region_checkpoints_cached(&a, &program, nthreads, &cfg, WARMUP_SLICES, &store)
                .unwrap();
        assert!(hit);
        warm_analysis = Some((a, ck));
    });
    let (warm_a, warm_ck) = warm_analysis.unwrap();

    // Correctness gate before any timing claims: warm == cold, bytewise.
    assert_eq!(cold_a.pinball.to_bytes(), warm_a.pinball.to_bytes());
    assert_eq!(
        encode_profile(&cold_a.profile),
        encode_profile(&warm_a.profile)
    );
    assert_eq!(
        encode_clustering(&cold_a.clustering),
        encode_clustering(&warm_a.clustering)
    );
    assert_eq!(warm_ck.replay_passes, 0, "warm checkpoints replay nothing");
    assert_eq!(cold_ck.regions.len(), warm_ck.regions.len());

    let stats = store.stats();
    let speedup = cold_ms / warm_ms.max(1e-9);
    println!(
        "  cold {cold_ms:9.2} ms   warm {warm_ms:9.2} ms   speedup {speedup:6.2}x   \
         ({} artifacts, {} B stored / {} B raw)",
        store.len(),
        stats.bytes_stored,
        stats.bytes_raw
    );

    // --- five-configuration sweep ----------------------------------------
    let sweep_dir = fresh_store_dir("sweep");
    let sweep_store = Store::open(&sweep_dir, Observer::disabled()).expect("open sweep store");
    let configs: Vec<LoopPointConfig> = (0..5)
        .map(|i| {
            let mut c = LoopPointConfig::with_slice_base(slice_base);
            c.simpoint.max_k = 10 + 10 * i;
            c.simpoint.seed = 42 + i as u64;
            c
        })
        .collect();
    let sweep_cold_ms = time_ms(|| {
        for c in &configs {
            let (a, hit) = analyze_cached(&program, nthreads, c, &sweep_store).unwrap();
            assert!(!hit);
            std::hint::black_box(a);
        }
    });
    let sweep_warm_ms = time_ms(|| {
        for c in &configs {
            let (a, hit) = analyze_cached(&program, nthreads, c, &sweep_store).unwrap();
            assert!(hit, "sweep re-run must be fully warm");
            std::hint::black_box(a);
        }
    });
    let sweep_speedup = sweep_cold_ms / sweep_warm_ms.max(1e-9);
    println!(
        "  sweep ({} configs)      cold {sweep_cold_ms:9.2} ms   warm {sweep_warm_ms:9.2} ms   speedup {sweep_speedup:6.2}x",
        configs.len()
    );

    args.write(&obj([
        ("workload", spec.name.into()),
        ("nthreads", (nthreads as u64).into()),
        ("slice_base", slice_base.into()),
        (
            "cold",
            obj([
                ("cold_ms", cold_ms.into()),
                ("warm_ms", warm_ms.into()),
                ("speedup", speedup.into()),
            ]),
        ),
        (
            "sweep",
            obj([
                ("configs", (configs.len() as u64).into()),
                ("cold_ms", sweep_cold_ms.into()),
                ("warm_ms", sweep_warm_ms.into()),
                ("speedup", sweep_speedup.into()),
            ]),
        ),
        (
            "store",
            obj([
                ("artifacts", (store.len() as u64).into()),
                ("bytes_raw", stats.bytes_raw.into()),
                ("bytes_stored", stats.bytes_stored.into()),
                ("compression_ratio", stats.compression_ratio().into()),
            ]),
        ),
        ("smoke", Value::Bool(args.smoke)),
    ]));

    // Cleanup: bench stores are throwaway.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sweep_dir);
}
