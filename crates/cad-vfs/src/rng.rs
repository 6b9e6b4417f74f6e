//! An in-tree SplitMix64 generator for deterministic tests.
//!
//! The workspace's randomized tests (the `det_*` suites) draw from this
//! generator instead of an external crate: same seed, same sequence,
//! on every host, and no registry access needed to build them.

/// SplitMix64 — the tiny splittable PRNG from Steele, Lea & Flood
/// (OOPSLA 2014). One `u64` of state, full period, no dependencies.
///
/// # Examples
///
/// ```
/// use cad_vfs::SplitMix64;
///
/// let mut a = SplitMix64::new(1995);
/// let mut b = SplitMix64::new(1995);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator; every seed (including 0) is valid.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound == 0` yields 0).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.next_u64() % bound as u64) as usize
    }

    /// A biased coin: true with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den.max(1) < num
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let word = self.next_u64().to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&word[..take]);
        }
        out
    }

    /// An ASCII lowercase identifier of `len` characters.
    pub fn ident(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence_for_seed_1234567() {
        // Reference values from the published SplitMix64 algorithm.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn determinism_and_divergence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn bytes_length_and_bounds() {
        let mut r = SplitMix64::new(7);
        assert_eq!(r.bytes(0).len(), 0);
        assert_eq!(r.bytes(13).len(), 13);
        for _ in 0..100 {
            assert!(r.below(9) < 9);
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.ident(5).len(), 5);
    }
}
