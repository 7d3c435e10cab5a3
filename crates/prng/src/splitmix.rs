//! SplitMix64: a tiny 64-bit generator used for seeding larger generators.

use rand::{Error, RngCore, SeedableRng};

/// The SplitMix64 generator (Steele, Lea & Flood, "Fast Splittable
/// Pseudorandom Number Generators", OOPSLA 2014).
///
/// It has a period of 2^64 and passes BigCrush; its main role here is to
/// expand a single `u64` seed into the larger state of
/// [`Xoshiro256PlusPlus`](crate::Xoshiro256PlusPlus), as recommended by the
/// xoshiro authors.
///
/// ```
/// use kdchoice_prng::SplitMix64;
///
/// let mut a = SplitMix64::new(123);
/// let mut b = SplitMix64::new(123);
/// assert_eq!(a.next(), b.next());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[allow(clippy::should_implement_trait)] // established generator API, not an Iterator
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// Fills `dest` with the little-endian bytes of successive `next_u64` calls.
///
/// This is the `fill_bytes` of both workspace generators: whole 8-byte
/// chunks take one output each, and a trailing partial chunk takes the
/// low bytes of one more. Adapters that must reproduce a generator's
/// byte stream exactly call it too.
pub fn fill_bytes_via_u64<R: RngCore>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs for seed 1234567, from the public-domain C
    /// implementation by Sebastiano Vigna.
    #[test]
    fn matches_reference_vectors() {
        let mut sm = SplitMix64::new(1234567);
        let expected: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(sm.next(), e);
        }
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut sm = SplitMix64::new(0);
        let a = sm.next();
        let b = sm.next();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn fill_bytes_handles_unaligned_lengths() {
        let mut sm = SplitMix64::new(9);
        let mut buf = [0u8; 13];
        sm.fill_bytes(&mut buf);
        // First 8 bytes must equal the LE encoding of the first output of a
        // fresh generator with the same seed.
        let mut sm2 = SplitMix64::new(9);
        assert_eq!(&buf[..8], &sm2.next().to_le_bytes());
    }

    #[test]
    fn seedable_rng_roundtrip() {
        let a = SplitMix64::seed_from_u64(77).next_u64();
        let b = SplitMix64::from_seed(77u64.to_le_bytes()).next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn next_u32_uses_high_bits() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        assert_eq!(a.next_u32(), (b.next_u64() >> 32) as u32);
    }
}
