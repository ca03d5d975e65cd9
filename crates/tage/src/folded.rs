//! Incrementally folded (compressed) history registers.
//!
//! A TAGE table with history length `L` and an index of `w` bits cannot hash
//! all `L` bits per prediction; hardware keeps a *folded* register that XORs
//! the history into `w` bits and updates it in O(1) per branch: shift in the
//! newest bit, XOR out the bit that just left the `L`-bit window.
//!
//! Every fold a predictor keeps is over one of the [`NUM_TABLES`] lengths of
//! [`HISTORY_LENGTHS`], so the folds of one length all consume the same
//! outgoing bit. [`FoldStep`] reads those bits once per branch, as one mask,
//! and a [`FoldBank`] updates all of a predictor's folds from it: TAGE keeps
//! a bank of three folds per length (index width, tag width, tag width − 1),
//! and the `llbpx` crate a bank of two (pattern tag width and width − 1) fed
//! the same step, as the hardware proposal shares TAGE's hash pipeline.
//!
//! [`FoldedHistory`] is the single fold both banks are built from.

use crate::config::{HISTORY_LENGTHS, NUM_TABLES};
use crate::history::GlobalHistory;

/// An incrementally maintained `width`-bit fold of the most recent
/// `length` history bits.
///
/// Update protocol: push the new bit into the [`GlobalHistory`] first, then
/// call [`update`](Self::update) exactly once. The fold then equals the XOR
/// of the `length`-bit window sliced into `width`-bit chunks, which
/// [`compute_reference`](Self::compute_reference) evaluates directly (used
/// for verification).
///
/// ```
/// use tage::{FoldedHistory, GlobalHistory};
///
/// let mut h = GlobalHistory::new();
/// let mut f = FoldedHistory::new(7, 4);
/// for i in 0..100 {
///     h.push(i % 5 == 0);
///     f.update(&h);
/// }
/// assert_eq!(f.value(), f.compute_reference(&h));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedHistory {
    comp: u64,
    length: usize,
    width: u32,
    /// Bit position `length % width` where the outgoing bit re-enters.
    out_pos: u32,
    /// Precomputed `2^width - 1`, so the hot update has no per-call shift
    /// to rebuild it.
    mask: u64,
}

impl FoldedHistory {
    /// Creates a fold of `length` history bits compressed to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 32, or `length` is 0.
    pub fn new(length: usize, width: u32) -> Self {
        assert!(length > 0, "folded history length must be positive");
        assert!(
            length < crate::history::HISTORY_CAPACITY,
            "folded history length {length} exceeds the history ring"
        );
        assert!((1..=32).contains(&width), "folded history width {width} unsupported");
        FoldedHistory {
            comp: 0,
            length,
            width,
            out_pos: (length as u32) % width,
            mask: (1u64 << width) - 1,
        }
    }

    /// History window length in bits.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Compressed width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Current folded value (always `< 2^width`).
    #[inline]
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// Folds in the newest bit of `history` (call after `history.push`).
    #[inline]
    pub fn update(&mut self, history: &GlobalHistory) {
        self.shift(history.bit(0), history.bit(self.length))
    }

    /// Shifts in `inbit` (age 0) and cancels `outbit`, the bit of age
    /// `length` that just left the window.
    #[inline(always)]
    fn shift(&mut self, inbit: u64, outbit: u64) {
        self.comp = (self.comp << 1) | inbit;
        self.comp ^= outbit << self.out_pos;
        self.comp ^= self.comp >> self.width;
        self.comp &= self.mask;
    }

    /// Recomputes the fold from scratch; O(length), for tests and repair.
    ///
    /// The incremental update places the bit of age `a` at position
    /// `a mod width`: every shift increments positions and the
    /// `comp ^= comp >> width` step wraps the single overflow bit back to
    /// position 0, while the `out_pos` XOR cancels the bit aging out of the
    /// window at position `length mod width`.
    pub fn compute_reference(&self, history: &GlobalHistory) -> u64 {
        let mut v = 0u64;
        for age in 0..self.length {
            v ^= history.bit(age) << ((age as u32) % self.width);
        }
        v
    }
}

/// The history bits one branch feeds every fold: the bit just pushed, and,
/// for each of the [`NUM_TABLES`] lengths of [`HISTORY_LENGTHS`], the bit
/// that just left that window.
///
/// ```
/// use tage::folded::FoldStep;
/// use tage::{GlobalHistory, HISTORY_LENGTHS};
///
/// let mut h = GlobalHistory::new();
/// h.push(true);
/// for _ in 0..HISTORY_LENGTHS[0] {
///     h.push(false);
/// }
/// // The one set bit has just aged out of the shortest window.
/// assert_eq!(FoldStep::read(&h).outgoing(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldStep {
    inbit: u64,
    outgoing: u32,
}

impl FoldStep {
    /// Reads the step from `history` after the branch's bit was pushed:
    /// one ring read per history length.
    #[inline]
    pub fn read(history: &GlobalHistory) -> Self {
        let mut outgoing = 0u32;
        for (t, &length) in HISTORY_LENGTHS.iter().enumerate() {
            outgoing |= (history.bit_unchecked(length) as u32) << t;
        }
        FoldStep { inbit: history.bit_unchecked(0), outgoing }
    }

    /// Outgoing-bit mask: bit `t` is the history bit of age
    /// `HISTORY_LENGTHS[t]`.
    #[inline]
    pub fn outgoing(&self) -> u32 {
        self.outgoing
    }
}

/// `K` folds of each of the [`NUM_TABLES`] history lengths, at widths fixed
/// per length, all advanced by one [`FoldStep`] per branch.
///
/// ```
/// use tage::folded::{FoldBank, FoldStep};
/// use tage::{FoldedHistory, GlobalHistory, HISTORY_LENGTHS};
///
/// let mut h = GlobalHistory::new();
/// let mut bank = FoldBank::new(|_| [13, 12]);
/// for i in 0..5000 {
///     h.push(i % 7 < 3);
///     bank.update(FoldStep::read(&h));
/// }
/// let reference = FoldedHistory::new(HISTORY_LENGTHS[20], 12);
/// assert_eq!(bank.value(20, 1), reference.compute_reference(&h));
/// ```
#[derive(Debug, Clone)]
pub struct FoldBank<const K: usize> {
    folds: [[FoldedHistory; K]; NUM_TABLES],
}

impl<const K: usize> FoldBank<K> {
    /// Builds a bank whose folds of `HISTORY_LENGTHS[t]` have the widths
    /// `widths(t)`.
    ///
    /// # Panics
    ///
    /// Panics if a width is 0 or above 32.
    pub fn new(widths: impl Fn(usize) -> [u32; K]) -> Self {
        FoldBank {
            folds: std::array::from_fn(|t| {
                widths(t).map(|w| FoldedHistory::new(HISTORY_LENGTHS[t], w))
            }),
        }
    }

    /// Advances every fold past one branch: each length's folds share the
    /// step's one outgoing bit.
    #[inline]
    pub fn update(&mut self, step: FoldStep) {
        for (t, folds) in self.folds.iter_mut().enumerate() {
            let outbit = u64::from(step.outgoing >> t) & 1;
            for f in folds {
                f.shift(step.inbit, outbit);
            }
        }
    }

    /// Value of fold `k` of history length `HISTORY_LENGTHS[t]`.
    #[inline]
    pub fn value(&self, t: usize, k: usize) -> u64 {
        self.folds[t][k].value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `n` pseudorandom bits through history + fold and check the fold
    /// only depends on the last `length` bits.
    fn drive(length: usize, width: u32, n: usize, seed: u64) -> (GlobalHistory, FoldedHistory) {
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(length, width);
        let mut x = seed | 1;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.push(x & 1 == 1);
            f.update(&h);
        }
        (h, f)
    }

    #[test]
    fn fold_is_windowed() {
        // Two histories with identical last-`length` bits but different
        // prefixes must fold identically.
        let length = 37;
        let width = 9;
        let tail: Vec<bool> = (0..length).map(|i| i % 3 != 1).collect();

        let run = |prefix: &[bool]| {
            let mut h = GlobalHistory::new();
            let mut f = FoldedHistory::new(length, width);
            for &b in prefix.iter().chain(tail.iter()) {
                h.push(b);
                f.update(&h);
            }
            f.value()
        };
        let a = run(&[true; 100]);
        let b = run(&[false; 211]);
        assert_eq!(a, b, "fold must depend only on the last {length} bits");
    }

    #[test]
    fn fold_stays_within_width() {
        for width in [1u32, 5, 11, 13, 20, 32] {
            let (_, f) = drive(232, width, 5000, 0xabcd);
            assert!(f.value() < (1u64 << width));
        }
    }

    #[test]
    fn fold_changes_when_history_changes() {
        let (_, f1) = drive(64, 12, 4000, 1);
        let (_, f2) = drive(64, 12, 4000, 2);
        assert_ne!(f1.value(), f2.value(), "different histories should fold differently");
    }

    #[test]
    fn reference_matches_incremental() {
        for (len, width) in [(6, 10), (78, 13), (232, 12), (1444, 11)] {
            let (h, f) = drive(len, width, 3500, 0x5eed);
            assert_eq!(f.value(), f.compute_reference(&h), "len={len} width={width}");
        }
    }

    #[test]
    fn width_equal_length_is_a_plain_window() {
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(4, 4);
        for b in [true, false, true, true] {
            h.push(b);
            f.update(&h);
        }
        // Bit position equals age: newest (true) at bit 0, then true,
        // false, true at ages 1..3 → 0b1011.
        assert_eq!(f.value(), 0b1011);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_is_rejected() {
        let _ = FoldedHistory::new(10, 0);
    }

    #[test]
    fn fold_bank_updates_in_lockstep() {
        let widths = |t: usize| [10, 13 - (t as u32 % 3), 1];
        let mut h = GlobalHistory::new();
        let mut bank = FoldBank::new(widths);
        let mut singles: Vec<[FoldedHistory; 3]> = (0..NUM_TABLES)
            .map(|t| widths(t).map(|w| FoldedHistory::new(HISTORY_LENGTHS[t], w)))
            .collect();
        let mut x = 0x1234u64 | 1;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.push(x & 1 == 1);
            bank.update(FoldStep::read(&h));
            for s in singles.iter_mut().flatten() {
                s.update(&h);
            }
        }
        for (t, folds) in singles.iter().enumerate() {
            for (k, s) in folds.iter().enumerate() {
                assert_eq!(bank.value(t, k), s.value(), "length {} fold {k}", HISTORY_LENGTHS[t]);
            }
        }
    }
}
