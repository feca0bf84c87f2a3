//! The seeded job stream both service workloads replay.
//!
//! Jobs come in blocks of three: one new unique spec at a seeded position
//! in the block, two repeats of a spec drawn from the previous 64 stream
//! entries. The unique share is therefore exactly 1/3 for every seed (a
//! Bernoulli draw would move the compute work by ±6 % between seeds), and
//! a repeat lands either on a job still in flight (follower dedup) or on
//! a finished one (served from the done-cache or the store). The unique
//! specs themselves walk a fixed grid of slice bases, so every seed asks
//! for the same computations and only their interleaving with repeats
//! differs.

use lp_farm_proto::JobSpec;
use std::collections::BTreeSet;

/// SplitMix64: the benchmark's only randomness, so a seed fully fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// How far back a repeat may reach.
pub const REPEAT_WINDOW: usize = 64;
/// Slice bases of unique specs lie in this range.
pub const SLICE_BASE_RANGE: std::ops::Range<u64> = 3_000..5_000;
/// Step of the slice-base grid; odd, so it visits the whole range.
const SLICE_BASE_STEP: u64 = 53;

/// The first `n` jobs of the stream for `seed`.
pub fn job_stream(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed ^ 0x6a6f_6273); // "jobs"
    let mut stream: Vec<JobSpec> = Vec::with_capacity(n);
    let mut uniques = 0u64;
    let mut unique_slot = 0;
    for i in 0..n {
        if i % 3 == 0 {
            // The very first job has nothing to repeat.
            unique_slot = if i == 0 { 0 } else { rng.below(3) as usize };
        }
        if i % 3 == unique_slot {
            // demo-matrix-1, -2, -3 in turn, each walking the grid.
            let program = 1 + uniques % 3;
            let span = SLICE_BASE_RANGE.end - SLICE_BASE_RANGE.start;
            let slice_base = SLICE_BASE_RANGE.start + (uniques / 3 * SLICE_BASE_STEP) % span;
            let mode = if uniques % 10 == 9 {
                "live"
            } else {
                "pipeline"
            };
            uniques += 1;
            stream.push(JobSpec {
                program: format!("demo-matrix-{program}"),
                ncores: 2,
                slice_base,
                mode: mode.to_string(),
                ..JobSpec::default()
            });
        } else {
            let reach = stream.len().min(REPEAT_WINDOW) as u64;
            let back = 1 + rng.below(reach) as usize;
            stream.push(stream[stream.len() - back].clone());
        }
    }
    stream
}

/// Number of distinct specs in `stream`.
pub fn unique_specs(stream: &[JobSpec]) -> usize {
    stream
        .iter()
        .map(|s| (s.program.as_str(), s.slice_base, s.mode.as_str()))
        .collect::<BTreeSet<_>>()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_a_prefix_is_a_prefix() {
        let a = job_stream(7, 300);
        assert_eq!(a, job_stream(7, 300));
        assert_eq!(a[..120], job_stream(7, 120)[..]);
        let b = job_stream(8, 300);
        assert_ne!(a, b);
        // Another seed interleaves the same computations differently.
        let specs = |stream: &[JobSpec]| -> BTreeSet<String> {
            stream.iter().map(|s| s.to_value().to_string()).collect()
        };
        assert_eq!(specs(&a), specs(&b));
    }

    #[test]
    fn exactly_one_job_in_three_is_unique_for_every_seed() {
        for seed in 0..20 {
            for n in [1usize, 3, 299, 600] {
                let stream = job_stream(seed, n);
                assert_eq!(stream.len(), n);
                let want = n.div_ceil(3);
                let got = unique_specs(&stream);
                // The last block may be cut before its unique slot.
                assert!(got == want || got + 1 == want, "seed {seed} n {n}: {got}");
                if n % 3 == 0 {
                    assert_eq!(got, n / 3, "seed {seed} n {n}");
                }
            }
        }
    }

    #[test]
    fn repeats_reach_back_at_most_the_window_and_specs_stay_in_range() {
        let stream = job_stream(3, 900);
        let mut seen = BTreeSet::new();
        for (i, s) in stream.iter().enumerate() {
            assert!(SLICE_BASE_RANGE.contains(&s.slice_base));
            assert_eq!((s.ncores, s.input.as_str()), (2, "test"));
            if !seen.insert((s.program.clone(), s.slice_base, s.mode.clone())) {
                let recent = stream[i.saturating_sub(REPEAT_WINDOW)..i].contains(s);
                assert!(recent, "job {i} repeats a spec older than the window");
            }
        }
        let live = stream.iter().filter(|s| s.mode == "live").count();
        assert!(live > 0 && live < stream.len() / 5, "{live} live jobs");
    }

    #[test]
    fn rng_is_reproducible_and_stays_in_range() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for n in 1..1000 {
            let x = a.below(n);
            assert!(x < n);
            assert_eq!(x, b.below(n));
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
