//! Deterministic pseudo-random number generation and sampling utilities.
//!
//! The paper's simulation (§1.2) only says "a pseudo random number generator
//! is used to sample d random bins in each round"; for a reproducible
//! open-source release we pin the generator down completely:
//!
//! * [`SplitMix64`] — a tiny, statistically solid 64-bit generator used for
//!   seeding (Steele, Lea & Flood 2014).
//! * [`Xoshiro256PlusPlus`] — the main generator (Blackman & Vigna 2019),
//!   with the standard `jump()` polynomial so that parallel components can
//!   draw from provably non-overlapping streams.
//!
//! Both implement [`rand::RngCore`] and [`rand::SeedableRng`], so the whole
//! `rand` API (`gen_range`, `shuffle`, …) works on top of them while every
//! bit of output remains a pure function of the seed, independent of the
//! `rand` crate's own generator choices.
//!
//! The [`sample`] module implements the sampling primitives the (k,d)-choice
//! process needs (i.u.r. with replacement, distinct sampling, permutations),
//! and [`dist`] implements the workload distributions used by the scheduler
//! and storage applications (exponential, Poisson, bounded Pareto, Zipf, and
//! Walker/Vose alias tables).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod demand;
pub mod dist;
pub mod sample;
mod splitmix;
mod xoshiro;

pub use splitmix::{fill_bytes_via_u64, SplitMix64};
pub use xoshiro::Xoshiro256PlusPlus;

/// Derives a 64-bit sub-seed from a master seed and a stream index.
///
/// This is how the workspace derives per-trial seeds: mixing through
/// [`SplitMix64`] guarantees that nearby `(seed, index)` pairs produce
/// unrelated generator states.
///
/// ```
/// let a = kdchoice_prng::derive_seed(42, 0);
/// let b = kdchoice_prng::derive_seed(42, 1);
/// assert_ne!(a, b);
/// // Deterministic:
/// assert_eq!(a, kdchoice_prng::derive_seed(42, 0));
/// ```
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut sm = SplitMix64::new(master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Burn one output so that index-0 does not coincide with the raw master
    // stream, then take the next.
    let _ = sm.next();
    sm.next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
    }

    #[test]
    fn derive_seed_separates_indices() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision in derived seeds");
    }

    #[test]
    fn derive_seed_separates_masters() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
