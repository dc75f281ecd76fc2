//! FNV-1a 64-bit state fingerprinting.
//!
//! The event-driven fleet engine parks a node only when a control tick
//! provably changed nothing, which it establishes by fingerprinting the
//! node's decision-relevant state before and after the tick. [`Fnv64`]
//! is the hasher behind that check: a tiny, dependency-free, stable
//! function over exact bit patterns — floats are folded via
//! `f64::to_bits`, so two states fingerprint equal only when they are
//! bit-identical, the same standard the byte-identical trace CSVs hold
//! the engines to.

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use greengpu_sim::Fnv64;
///
/// let mut a = Fnv64::new();
/// a.push_u64(7);
/// a.push_f64(0.5);
/// let mut b = Fnv64::new();
/// b.push_u64(7);
/// b.push_f64(0.5);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds one byte.
    pub fn push_byte(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a `u64`, little-endian byte order.
    pub fn push_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.push_byte(b);
        }
    }

    /// Folds an `f64` by exact bit pattern — `0.0` and `-0.0` hash
    /// differently, NaNs hash by payload; bit-identity is the point.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Folds a whole 64-bit word in one xor-multiply step — FNV-1a over
    /// words instead of bytes, eight times fewer multiplies than
    /// [`Fnv64::push_u64`]. It yields a *different* digest than the
    /// byte-wise methods, so use it only where the fingerprint is
    /// compared with itself (the park checks), never in a pinned digest.
    /// Each step is a bijection of the state for a fixed word, so two
    /// word sequences that differ in exactly one word never collide.
    pub fn push_word(&mut self, v: u64) {
        self.state ^= v;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // FNV-1a("a") and FNV-1a("foobar") from the reference tables.
        let mut h = Fnv64::new();
        h.push_byte(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        for b in b"foobar" {
            h.push_byte(*b);
        }
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn distinguishes_field_order_and_values() {
        let digest = |vals: &[u64]| {
            let mut h = Fnv64::new();
            for &v in vals {
                h.push_u64(v);
            }
            h.finish()
        };
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1]), digest(&[1, 0]));
    }

    #[test]
    fn word_fold_is_one_step_and_leaves_byte_digests_alone() {
        let mut w = Fnv64::new();
        w.push_word(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), (FNV_OFFSET ^ 0x0102_0304_0506_0708).wrapping_mul(FNV_PRIME));
        let mut b = Fnv64::new();
        b.push_u64(0x0102_0304_0506_0708);
        assert_ne!(w.finish(), b.finish(), "a word fold is not the byte-wise digest");
        // A single changed word always changes the digest.
        let digest = |words: &[u64]| {
            let mut h = Fnv64::new();
            for &v in words {
                h.push_word(v);
            }
            h.finish()
        };
        let base = [1.0f64.to_bits(), 0.5f64.to_bits(), 0.25f64.to_bits()];
        for k in 0..base.len() {
            let mut other = base;
            other[k] ^= 1;
            assert_ne!(digest(&base), digest(&other), "word {k}");
        }
    }

    #[test]
    fn float_bits_are_exact() {
        let mut a = Fnv64::new();
        a.push_f64(0.0);
        let mut b = Fnv64::new();
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "signed zeros are distinct states");
        let mut c = Fnv64::new();
        c.push_f64(0.1 + 0.2);
        let mut d = Fnv64::new();
        d.push_f64(0.3);
        assert_ne!(c.finish(), d.finish(), "nearly-equal is not bit-equal");
    }
}
