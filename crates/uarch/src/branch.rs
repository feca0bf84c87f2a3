//! Pentium-M-style branch predictor.
//!
//! Table I specifies a "Pentium M" predictor. We model its salient hybrid
//! structure: a bimodal (per-PC) table, a global-history gshare table, a
//! chooser that picks between them per PC, a branch target buffer for
//! indirect targets, and a return-address stack. Absolute prediction rates
//! need not match real silicon; what matters for the evaluation is that
//! mispredict *behaviour varies by code pattern and history*, giving regions
//! distinguishable branch MPKI (Fig. 7b).

use crate::chunked::CopyBytes;
use lp_isa::Pc;

/// Table sizes for [`BranchPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Entries in the bimodal table (power of two).
    pub bimodal_entries: usize,
    /// Entries in the gshare table (power of two).
    pub gshare_entries: usize,
    /// Entries in the chooser table (power of two).
    pub chooser_entries: usize,
    /// Entries in the branch target buffer (power of two).
    pub btb_entries: usize,
    /// Return-address stack depth.
    pub ras_depth: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        BranchPredictorConfig {
            bimodal_entries: 4096,
            gshare_entries: 4096,
            chooser_entries: 4096,
            btb_entries: 2048,
            ras_depth: 16,
        }
    }
}

/// Aggregate predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Conditional branches mispredicted (direction).
    pub cond_mispredicts: u64,
    /// Indirect transfers predicted (target via BTB).
    pub indirect: u64,
    /// Indirect target mispredictions.
    pub indirect_mispredicts: u64,
    /// Returns predicted via the RAS.
    pub returns: u64,
    /// Return target mispredictions.
    pub return_mispredicts: u64,
}

impl BranchStats {
    /// Total direction + target mispredictions.
    pub fn total_mispredicts(&self) -> u64 {
        self.cond_mispredicts + self.indirect_mispredicts + self.return_mispredicts
    }

    /// Total predicted control transfers.
    pub fn total_branches(&self) -> u64 {
        self.cond_branches + self.indirect + self.returns
    }
}

fn hash_pc(pc: Pc) -> u64 {
    // Cheap mix of image and offset; instruction slots get distinct indices.
    let x = pc.to_word();
    let x = x ^ (x >> 17);
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Hybrid bimodal/gshare predictor with BTB and RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchPredictorConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>, // 2-bit: >=2 selects gshare
    ghr: u64,
    btb: Vec<(u64, Pc)>,
    ras: Vec<Pc>,
    stats: BranchStats,
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new(cfg: BranchPredictorConfig) -> Self {
        for n in [
            cfg.bimodal_entries,
            cfg.gshare_entries,
            cfg.chooser_entries,
            cfg.btb_entries,
        ] {
            assert!(n.is_power_of_two(), "table sizes must be powers of two");
        }
        BranchPredictor {
            cfg,
            bimodal: vec![1; cfg.bimodal_entries],
            gshare: vec![1; cfg.gshare_entries],
            chooser: vec![2; cfg.chooser_entries],
            ghr: 0,
            btb: vec![(u64::MAX, Pc::INVALID); cfg.btb_entries],
            ras: Vec::with_capacity(cfg.ras_depth),
            stats: BranchStats::default(),
        }
    }

    /// Bytes of its tables a copy moves: all of them, since every branch
    /// writes them.
    pub fn copy_bytes(&self) -> CopyBytes {
        let bytes = self.bimodal.len()
            + self.gshare.len()
            + self.chooser.len()
            + std::mem::size_of_val(self.btb.as_slice())
            + std::mem::size_of_val(self.ras.as_slice());
        CopyBytes {
            copied: bytes,
            dense: bytes,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Resets statistics (state is kept — used at the detailed-region start
    /// after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = BranchStats::default();
    }

    fn counter_predict(c: u8) -> bool {
        c >= 2
    }

    fn counter_update(c: &mut u8, taken: bool) {
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Predicts and updates for a conditional branch at `pc` whose actual
    /// outcome was `taken`. Returns `true` if the prediction was correct.
    pub fn predict_cond(&mut self, pc: Pc, taken: bool) -> bool {
        let h = hash_pc(pc);
        let bi = (h as usize) & (self.cfg.bimodal_entries - 1);
        let gi = ((h ^ self.ghr) as usize) & (self.cfg.gshare_entries - 1);
        let ci = (h as usize) & (self.cfg.chooser_entries - 1);

        let bim_pred = Self::counter_predict(self.bimodal[bi]);
        let gsh_pred = Self::counter_predict(self.gshare[gi]);
        let use_gshare = Self::counter_predict(self.chooser[ci]);
        let pred = if use_gshare { gsh_pred } else { bim_pred };

        // Update chooser toward whichever component was right (only when
        // they disagree, per standard tournament training).
        if bim_pred != gsh_pred {
            Self::counter_update(&mut self.chooser[ci], gsh_pred == taken);
        }
        Self::counter_update(&mut self.bimodal[bi], taken);
        Self::counter_update(&mut self.gshare[gi], taken);
        self.ghr = (self.ghr << 1) | u64::from(taken);

        self.stats.cond_branches += 1;
        let correct = pred == taken;
        if !correct {
            self.stats.cond_mispredicts += 1;
        }
        correct
    }

    /// Predicts and updates the BTB for an indirect transfer at `pc` whose
    /// actual target was `target`. Returns `true` on a correct target.
    pub fn predict_indirect(&mut self, pc: Pc, target: Pc) -> bool {
        let h = hash_pc(pc);
        let i = (h as usize) & (self.cfg.btb_entries - 1);
        let (tag, pred) = self.btb[i];
        let correct = tag == h && pred == target;
        self.btb[i] = (h, target);
        self.stats.indirect += 1;
        if !correct {
            self.stats.indirect_mispredicts += 1;
        }
        correct
    }

    /// Records a call (pushes the return address on the RAS).
    pub fn on_call(&mut self, return_pc: Pc) {
        if self.ras.len() == self.cfg.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(return_pc);
    }

    /// Predicts a return via the RAS. Returns `true` on a correct target.
    pub fn predict_return(&mut self, target: Pc) -> bool {
        let pred = self.ras.pop();
        self.stats.returns += 1;
        let correct = pred == Some(target);
        if !correct {
            self.stats.return_mispredicts += 1;
        }
        correct
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new(BranchPredictorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_isa::ImageId;

    fn pc(o: u32) -> Pc {
        Pc::new(ImageId(0), o)
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut bp = BranchPredictor::default();
        let mut wrong = 0;
        for _ in 0..100 {
            if !bp.predict_cond(pc(10), true) {
                wrong += 1;
            }
        }
        assert!(wrong <= 2, "should converge fast, got {wrong} mispredicts");
        assert_eq!(bp.stats().cond_branches, 100);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // T,N,T,N... bimodal alone stays ~50%; gshare with history nails it.
        let mut bp = BranchPredictor::default();
        let mut wrong_late = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let correct = bp.predict_cond(pc(20), taken);
            if i >= 200 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late <= 10,
            "history-based component should learn alternation, got {wrong_late}"
        );
    }

    #[test]
    fn random_pattern_mispredicts_substantially() {
        // A pseudo-random pattern should hover near 50% mispredicts —
        // verifying the predictor cannot cheat.
        let mut bp = BranchPredictor::default();
        let mut x = 0x12345678u64;
        let mut wrong = 0;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 33) & 1 == 1;
            if !bp.predict_cond(pc(30), taken) {
                wrong += 1;
            }
        }
        assert!(wrong > 300, "random branches must mispredict, got {wrong}");
    }

    #[test]
    fn btb_learns_stable_indirect_target() {
        let mut bp = BranchPredictor::default();
        assert!(!bp.predict_indirect(pc(5), pc(100)), "cold miss");
        assert!(bp.predict_indirect(pc(5), pc(100)));
        assert!(!bp.predict_indirect(pc(5), pc(200)), "target changed");
        assert!(bp.predict_indirect(pc(5), pc(200)));
        assert_eq!(bp.stats().indirect_mispredicts, 2);
    }

    #[test]
    fn ras_matches_call_ret_pairs() {
        let mut bp = BranchPredictor::default();
        bp.on_call(pc(11));
        bp.on_call(pc(22));
        assert!(bp.predict_return(pc(22)));
        assert!(bp.predict_return(pc(11)));
        assert!(!bp.predict_return(pc(33)), "empty RAS mispredicts");
        assert_eq!(bp.stats().return_mispredicts, 1);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig {
            ras_depth: 2,
            ..Default::default()
        });
        bp.on_call(pc(1));
        bp.on_call(pc(2));
        bp.on_call(pc(3)); // drops 1
        assert!(bp.predict_return(pc(3)));
        assert!(bp.predict_return(pc(2)));
        assert!(!bp.predict_return(pc(1)));
    }

    #[test]
    fn stats_totals() {
        let mut bp = BranchPredictor::default();
        bp.predict_cond(pc(1), true);
        bp.predict_indirect(pc(2), pc(3));
        bp.on_call(pc(9));
        bp.predict_return(pc(9));
        let s = bp.stats();
        assert_eq!(s.total_branches(), 3);
        assert!(s.total_mispredicts() >= 1); // cold BTB miss at least
        bp.reset_stats();
        assert_eq!(bp.stats().total_branches(), 0);
    }
}
