//! # test-support — shared helpers for the deterministic suites
//!
//! The crash matrix, the model oracle, the sink-ordering campaign and
//! the benchmark workloads all drive the engine from seeded random
//! streams and compare fingerprints across runs. Before this crate
//! each suite carried its own copy of the same three helpers; they
//! live here now so a new suite starts from the shared vocabulary
//! instead of a fourth copy.
//!
//! - [`SplitMix64`] (re-exported from `cad_vfs`): the seeded stream
//!   every deterministic campaign draws from.
//! - [`Rng`]: the xorshift64* generator of the benchmark workloads.
//! - [`pick`] / [`pick_index`]: uniform selection that consumes
//!   exactly one draw even when the pool is empty, so op streams stay
//!   aligned across runs whose world populations diverge.
//! - [`fnv64`] / [`combine_fingerprints`]: the FNV-1a accumulator used
//!   to fold several per-component fingerprints into one comparable
//!   line.
//! - [`load_host_tree`]: loads an on-disk backup fixture into a `Vfs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone)]

pub use cad_vfs::SplitMix64;

/// A tiny deterministic RNG (xorshift64*) so experiments never depend
/// on crate-level RNG changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (0 is remapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// The next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A value in `0..bound` (`bound` must be positive).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// A biased coin: true with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// Picks a uniform random element, or `None` when empty — consuming
/// exactly one rng draw either way, so the stream stays aligned
/// regardless of world population.
pub fn pick<'a, T>(rng: &mut SplitMix64, items: &'a [T]) -> Option<&'a T> {
    pick_index(rng, items.len()).map(|i| &items[i])
}

/// Picks a uniform index in `0..len`, or `None` when `len` is zero —
/// consuming exactly one rng draw either way (stream alignment).
pub fn pick_index(rng: &mut SplitMix64, len: usize) -> Option<usize> {
    if len == 0 {
        rng.next_u64();
        None
    } else {
        Some(rng.below(len))
    }
}

/// FNV-1a 64 over a byte string, the fingerprint accumulator the
/// deterministic suites share.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds several per-component fingerprint strings into one comparable
/// hex line (order-sensitive: the caller fixes the component order).
pub fn combine_fingerprints<I, S>(parts: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_ref().as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Copies the host directory `from` into the virtual directory `to`
/// (created if missing), in sorted name order: how the durability
/// suites load an on-disk backup fixture into a [`cad_vfs::Vfs`].
///
/// # Panics
///
/// On any host or virtual file system error — a fixture that does not
/// load is a broken test.
pub fn load_host_tree(fs: &mut cad_vfs::Vfs, from: &std::path::Path, to: &cad_vfs::VfsPath) {
    fs.mkdir_all(to).unwrap();
    let mut entries: Vec<_> = std::fs::read_dir(from)
        .unwrap_or_else(|e| panic!("fixture {}: {e}", from.display()))
        .map(|entry| entry.unwrap())
        .collect();
    entries.sort_by_key(|entry| entry.file_name());
    for entry in entries {
        let name = entry.file_name().into_string().unwrap();
        let dest = to.join(&name).unwrap();
        if entry.file_type().unwrap().is_dir() {
            load_host_tree(fs, &entry.path(), &dest);
        } else {
            fs.write(&dest, std::fs::read(entry.path()).unwrap())
                .unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_zero_seed_is_remapped() {
        assert_eq!(
            Rng::new(0).next_u64(),
            Rng::new(0x9E3779B97F4A7C15).next_u64()
        );
    }

    #[test]
    fn pick_consumes_one_draw_even_when_empty() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let empty: [u32; 0] = [];
        assert!(pick(&mut a, &empty).is_none());
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn pick_index_matches_pick() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let items = [10, 20, 30];
        let via_pick = *pick(&mut a, &items).unwrap();
        let via_index = items[pick_index(&mut b, items.len()).unwrap()];
        assert_eq!(via_pick, via_index);
    }

    #[test]
    fn combined_fingerprints_are_order_and_boundary_sensitive() {
        assert_ne!(
            combine_fingerprints(["a", "b"]),
            combine_fingerprints(["b", "a"])
        );
        assert_ne!(
            combine_fingerprints(["ab", "c"]),
            combine_fingerprints(["a", "bc"])
        );
        assert_eq!(
            combine_fingerprints(["x", "y"]),
            combine_fingerprints(["x", "y"])
        );
    }

    #[test]
    fn fnv64_matches_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
