//! Randomized tests for the TAGE substrate: folded histories and fold banks,
//! the history ring, bimodal counters, and predictor determinism.
//!
//! Property tests driven by the in-repo deterministic PRNG
//! (`telemetry::SplitMix64`), so the workspace needs no registry access.

use llbpx::LlbpConfig;
use tage::folded::{FoldBank, FoldStep};
use tage::history::HISTORY_CAPACITY;
use tage::{
    DirectionPredictor, FoldedHistory, GlobalHistory, PredictInput, TageScl, TslConfig,
    HISTORY_LENGTHS, NUM_TABLES,
};
use telemetry::SplitMix64;
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

/// A fold bank under test, with the widths it was built from.
struct BankUnderTest<const K: usize> {
    bank: FoldBank<K>,
    widths: [[u32; K]; NUM_TABLES],
}

impl<const K: usize> BankUnderTest<K> {
    fn new(widths: impl Fn(usize) -> [u32; K]) -> Self {
        BankUnderTest { bank: FoldBank::new(&widths), widths: std::array::from_fn(widths) }
    }

    fn assert_matches_reference(&self, h: &GlobalHistory, what: &str) {
        for (t, widths) in self.widths.iter().enumerate() {
            let length = HISTORY_LENGTHS[t];
            for (k, &width) in widths.iter().enumerate() {
                let reference = FoldedHistory::new(length, width).compute_reference(h);
                assert_eq!(
                    self.bank.value(t, k),
                    reference,
                    "{what}: length {length} width {width}"
                );
            }
        }
    }
}

/// Every fold of a [`FoldBank`], at every (length, width) pair the
/// predictors use, equals its closed-form reference while a bit stream wraps
/// the history ring twice over; and bit `t` of the fold step's outgoing mask
/// is the history bit of age `HISTORY_LENGTHS[t]`.
#[test]
fn fold_bank_matches_reference_at_every_width_in_use() {
    // TAGE: index width, tag width and tag width - 1, at 64K and 512K.
    let tage_cfgs = [TslConfig::kilobytes(64).tage, TslConfig::kilobytes(512).tage];
    assert_eq!(tage_cfgs.each_ref().map(|c| c.log2_entries), [10, 13]);
    let mut tage_banks = tage_cfgs.map(|cfg| {
        BankUnderTest::new(move |t| [cfg.log2_entries, cfg.tag_bits(t), cfg.tag_bits(t) - 1])
    });
    // LLBP: pattern tag width and width - 1, at the baseline and 20-bit tags.
    let mut llbp_banks = [LlbpConfig::paper_baseline(), LlbpConfig::with_20b_tags()]
        .map(|c| c.pattern_tag_bits)
        .map(|bits| BankUnderTest::new(move |_| [bits, bits - 1]));

    let mut rng = SplitMix64::new(0x6261_6e6b);
    let pushes = 2 * HISTORY_CAPACITY + 1 + rng.next_below(HISTORY_CAPACITY as u64) as usize;
    let mut h = GlobalHistory::new();
    for i in 1..=pushes {
        h.push(rng.next_bool(0.5));
        let step = FoldStep::read(&h);
        for b in &mut tage_banks {
            b.bank.update(step);
        }
        for b in &mut llbp_banks {
            b.bank.update(step);
        }
        if i % 997 != 0 && i != pushes {
            continue;
        }
        for (t, &length) in HISTORY_LENGTHS.iter().enumerate() {
            let outgoing = u64::from(step.outgoing() >> t) & 1;
            assert_eq!(outgoing, h.bit(length), "outgoing bit of length {length} after {i} pushes");
        }
        for b in &tage_banks {
            b.assert_matches_reference(&h, "TAGE");
        }
        for b in &llbp_banks {
            b.assert_matches_reference(&h, "LLBP");
        }
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
