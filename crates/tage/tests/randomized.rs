//! Randomized tests for the TAGE substrate: folded histories, the history
//! ring, bimodal counters, and predictor determinism.
//!
//! Property tests driven by the in-repo deterministic PRNG
//! (`telemetry::SplitMix64`), so the workspace needs no registry access.

use telemetry::SplitMix64;
use tage::{DirectionPredictor, FoldedHistory, GlobalHistory, PredictInput, TageScl, TslConfig};
use traces::BranchRecord;

fn rand_bits(rng: &mut SplitMix64, min: u64, max: u64) -> Vec<bool> {
    let len = min + rng.next_below(max - min);
    (0..len).map(|_| rng.next_bool(0.5)).collect()
}

/// The fold equals its closed-form reference after any bit stream.
#[test]
fn folded_history_matches_reference() {
    let mut rng = SplitMix64::new(0x666f_6c64);
    for _ in 0..32 {
        let bits = rand_bits(&mut rng, 1, 3000);
        let length = 1 + rng.next_below(1499) as usize;
        let width = 1 + rng.next_below(20) as u32;
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(length, width);
        for &b in &bits {
            h.push(b);
            f.update(&h);
        }
        assert_eq!(f.value(), f.compute_reference(&h), "length {length} width {width}");
    }
}

/// The fold is a pure function of the most recent `length` bits: any prefix
/// before them is irrelevant.
#[test]
fn folded_history_is_windowed() {
    let mut rng = SplitMix64::new(0x7769_6e64);
    for _ in 0..32 {
        let prefix_a = rand_bits(&mut rng, 0, 500);
        let prefix_b = rand_bits(&mut rng, 0, 500);
        let tail = rand_bits(&mut rng, 1, 400);
        let width = 1 + rng.next_below(15) as u32;
        let length = tail.len();
        let run = |prefix: &[bool]| {
            let mut h = GlobalHistory::new();
            let mut f = FoldedHistory::new(length, width);
            for &b in prefix.iter().chain(tail.iter()) {
                h.push(b);
                f.update(&h);
            }
            f.value()
        };
        assert_eq!(run(&prefix_a), run(&prefix_b));
    }
}

/// The history ring returns exactly what was pushed, for any ages within
/// capacity.
#[test]
fn history_ring_is_faithful() {
    let mut rng = SplitMix64::new(0x7269_6e67);
    for _ in 0..16 {
        let bits = rand_bits(&mut rng, 1, 5000);
        let mut h = GlobalHistory::new();
        for &b in &bits {
            h.push(b);
        }
        let n = bits.len();
        for age in 0..n.min(tage::history::HISTORY_CAPACITY) {
            assert_eq!(h.bit(age), bits[n - 1 - age] as u64, "age {age}");
        }
    }
}

/// Bimodal counters never leave their 2-bit range and always predict the
/// direction of a long-enough run.
#[test]
fn bimodal_saturates_and_tracks_runs() {
    let mut rng = SplitMix64::new(0x6269_6d6f);
    for _ in 0..64 {
        let pc = rng.next_u64();
        let flips = rand_bits(&mut rng, 1, 100);
        let mut b = tage::bimodal::Bimodal::new(8);
        for &dir in &flips {
            b.update(pc, dir);
        }
        // Force a run of 3 to dominate any prior state.
        let last = *flips.last().unwrap();
        for _ in 0..3 {
            b.update(pc, last);
        }
        assert_eq!(b.predict(pc), last);
    }
}

/// A TSL fed the same records twice produces identical predictions — no
/// hidden global state or randomness.
#[test]
fn tsl_is_deterministic() {
    let mut rng = SplitMix64::new(0x7473_6c64);
    for _ in 0..8 {
        let seeds: Vec<(u16, bool)> = (0..1 + rng.next_below(300))
            .map(|_| (rng.next_u64() as u16, rng.next_bool(0.5)))
            .collect();
        let run = || {
            let mut tsl = TageScl::new(TslConfig::kilobytes(64));
            seeds
                .iter()
                .map(|&(pc, taken)| {
                    let rec = BranchRecord::cond(0x1000 + u64::from(pc) * 4, 0x9000, taken, 1);
                    tsl.process(PredictInput::new(&rec)).pred.unwrap()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}

/// Predictions are always produced for conditional branches and never for
/// unconditional ones, whatever the record contents.
#[test]
fn prediction_presence_follows_kind() {
    let mut rng = SplitMix64::new(0x6b69_6e64);
    for _ in 0..64 {
        let kind =
            traces::BranchKind::ALL[rng.next_below(traces::BranchKind::ALL.len() as u64) as usize];
        let rec =
            BranchRecord::new(rng.next_u64(), rng.next_u64(), kind, true, rng.next_u64() as u32);
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        assert_eq!(tsl.process(PredictInput::new(&rec)).pred.is_some(), kind.is_conditional());
    }
}
