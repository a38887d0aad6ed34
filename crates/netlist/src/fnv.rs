//! FNV-1a, the one digest fold the workspace shares: netlist and
//! phased-graph fingerprints, checkpoint bindings, and the output digests
//! `plc` prints. One definition keeps the constants from drifting apart.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a accumulator with two folds: [`Fnv64::mix`] takes a
/// whole word in one step, [`Fnv64::word`] and [`Fnv64::bytes`] go byte by
/// byte. The two give different digests for the same word; every pinned
/// digest uses one or the other, never a mix of both.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self(OFFSET)
    }

    /// Folds one word in a single xor-multiply step.
    #[inline]
    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Folds one word byte by byte, little-endian.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.fold(&w.to_le_bytes());
    }

    /// Folds a byte string byte by byte, then its length as a
    /// [`Fnv64::word`], so concatenated fields cannot alias.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.fold(bytes);
        self.word(bytes.len() as u64);
    }

    #[inline]
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    /// The accumulated digest.
    #[must_use]
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}
