//! Sampling primitives used by the allocation processes.
//!
//! The (k,d)-choice process samples `d` bins **independently and uniformly at
//! random with replacement** each round; the serialized process additionally
//! needs random permutations (the σᵣ of Definition 1); Vöcking's always-go-left
//! baseline needs one uniform choice per group; and Floyd's algorithm is
//! provided for the (rare) places that need distinct samples.

use rand::{Rng, RngCore};

/// Size of the raw-u64 blocks pulled by the batched samplers.
const BLOCK: usize = 32;

/// A precomputed uniform sampler over `0..n`, using Lemire's
/// nearly-divisionless widening multiply (ACM TOMS 2019).
///
/// Each draw costs one generator output plus a 64×64→128-bit multiply; a
/// modulo is computed only when the low half of the product lands below `n`
/// (probability `n / 2^64`), so the per-probe division of naive
/// `x % n` sampling disappears from the hot path entirely.
///
/// ```
/// use kdchoice_prng::{sample::UniformBin, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let bins = UniformBin::new(10);
/// for _ in 0..100 {
///     assert!(bins.sample(&mut rng) < 10);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformBin {
    span: u64,
}

impl UniformBin {
    /// Creates a sampler over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cannot sample from an empty range");
        Self { span: n as u64 }
    }

    /// The exclusive upper bound `n`.
    pub fn n(&self) -> usize {
        self.span as usize
    }

    /// Draws one index uniformly from `0..n`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        rand::lemire_u64(rng, self.span) as usize
    }

    /// Maps one raw generator output to an index, falling back to fresh
    /// draws from `rng` in the (probability `n / 2^64`) rejection band.
    ///
    /// This is the widening-multiply step the batched samplers apply to
    /// pre-pulled blocks of generator outputs.
    #[inline]
    pub fn map_raw<R: RngCore + ?Sized>(&self, raw: u64, rng: &mut R) -> usize {
        let m = u128::from(raw) * u128::from(self.span);
        let lo = m as u64;
        if lo >= self.span {
            return (m >> 64) as usize;
        }
        // Rare slow path (probability span / 2^64): compute the exact
        // rejection threshold. Accepting `raw` when lo ≥ threshold is
        // Lemire's exact-uniformity condition; on true rejection, delegate
        // to `lemire_u64`, whose fresh draws use the identical accept
        // region — one shared implementation of the rejection logic, and
        // the same stream a scalar retry loop would consume.
        let threshold = self.span.wrapping_neg() % self.span;
        if lo >= threshold {
            return (m >> 64) as usize;
        }
        rand::lemire_u64(rng, self.span) as usize
    }

    /// Pulls `raw.len()` generator outputs into `raw` (a tight generator
    /// loop), then returns them mapped to indices in `0..n` through
    /// [`UniformBin::map_raw`]. The mapping is lazy, so it fuses into the
    /// caller's write; the rare rejection fallback draws from `rng` as the
    /// iterator reaches it. Consume the iterator fully: that is the
    /// stream the batched samplers share.
    ///
    /// This is the one block sampler of the workspace:
    /// [`fill_with_replacement`] runs it over blocks of up to 32 draws, and
    /// the const-`D` round engines run it over a `[u64; D]` array, so the
    /// loops unroll and the two consume the generator identically.
    ///
    /// ```
    /// use kdchoice_prng::{sample::{fill_with_replacement, UniformBin}, Xoshiro256PlusPlus};
    ///
    /// let mut rng = Xoshiro256PlusPlus::from_u64(3);
    /// let block: Vec<usize> = UniformBin::new(10).sample_block(&mut rng, &mut [0; 4]).collect();
    /// let mut out = Vec::new();
    /// fill_with_replacement(&mut Xoshiro256PlusPlus::from_u64(3), 10, 4, &mut out);
    /// assert_eq!(block, out);
    /// ```
    #[inline(always)]
    pub fn sample_block<'a, R: RngCore + ?Sized>(
        &'a self,
        rng: &'a mut R,
        raw: &'a mut [u64],
    ) -> impl Iterator<Item = usize> + 'a {
        for slot in raw.iter_mut() {
            *slot = rng.next_u64();
        }
        raw.iter().map(move |&r| self.map_raw(r, rng))
    }

    /// Fills `out` with sequential draws — the **same generator stream**
    /// as calling [`UniformBin::sample`] once per slot, unlike the
    /// block-pulling [`fill_with_replacement`].
    ///
    /// This is the snapshot-read probe path of the shared-nothing
    /// service engine: probes land in a caller-owned scratch slice (no
    /// per-request allocation) while keeping bit-identical streams with
    /// the scalar per-request path, so cross-backend equivalence is an
    /// API guarantee rather than a coincidence.
    #[inline]
    pub fn fill_seq<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// A precomputed **weighted** sampler over `0..n` — the non-uniform probe
/// distribution of the heterogeneous-bins extension — built on a
/// Walker/Vose alias table with integer thresholds: O(n) construction,
/// O(1) divisionless draws, one generator output per draw.
///
/// Each draw pulls a single `u64` and splits it with one widening
/// multiply: the high half selects the alias slot, the low half (the
/// fractional part of `raw · n / 2⁶⁴`) is the accept/alias coin compared
/// against a 32-bit threshold packed next to the alias index in **one**
/// table word. No division, no `f64` arithmetic, no second generator
/// output, one table load — the weighted draw costs the same generator
/// traffic as [`UniformBin`] plus a single cache-line access, which is
/// what keeps the batched round engine's inner loop shape intact under
/// weighted probing (raced in `BENCH_results.json`,
/// `weighted_sampling`).
///
/// **Exactness.** Reusing the low product half as the coin and
/// quantizing thresholds to 32 bits introduces a per-category bias of at
/// most `≈ 2⁻³² + n/2⁶⁴`, statistically invisible at any simulation
/// scale; the chi-square goodness-of-fit suite in
/// `tests/weighted_sampling.rs` bounds it empirically.
///
/// **Uniform degeneration.** When every weight is equal the constructor
/// degenerates to a [`UniformBin`] internally, so the draw stream is
/// **bit-identical** to `UniformBin` on the same generator state (locked
/// by test) — uniform experiments cannot drift by switching to the
/// weighted API.
///
/// ```
/// use kdchoice_prng::{sample::WeightedBin, Xoshiro256PlusPlus};
///
/// # fn main() -> Result<(), kdchoice_prng::dist::ParamError> {
/// let bins = WeightedBin::new(&[1.0, 0.0, 3.0])?;
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// for _ in 0..100 {
///     let b = bins.sample(&mut rng);
///     assert!(b < 3 && b != 1, "zero-weight bin drawn");
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedBin {
    kind: WeightedKind,
}

#[derive(Debug, Clone, PartialEq)]
enum WeightedKind {
    /// All weights equal: delegate to the uniform sampler (bit-identical
    /// stream to [`UniformBin`]).
    Uniform(UniformBin),
    /// Walker/Vose alias table, one packed `u64` per slot:
    /// `(accept threshold as u32) << 32 | alias index`. Packing keeps a
    /// draw to exactly **one** table load (one cache line), which is what
    /// the uniform/weighted throughput race in `BENCH_results.json`
    /// measures — at two separate arrays the second dependent load
    /// roughly doubles the miss cost at large `n`.
    Alias {
        /// `packed[i]`: accept slot `i` when the top 32 coin bits are
        /// `< packed[i] >> 32`, else jump to `packed[i] & 0xFFFF_FFFF`.
        /// Always-accept slots store threshold `u32::MAX` with a
        /// self-alias, so the `2⁻³²` miss resolves to the same slot.
        packed: Vec<u64>,
    },
}

impl WeightedBin {
    /// Builds the sampler from non-negative weights (not necessarily
    /// normalized): bin `i` is drawn with probability
    /// `weights[i] / Σ weights`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::dist::ParamError`] if `weights` is empty, longer
    /// than `u32::MAX`, contains a negative or non-finite value, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Result<Self, crate::dist::ParamError> {
        use crate::dist::ParamError;
        if weights.is_empty() {
            return Err(ParamError::new(
                "weighted sampler needs at least one weight",
            ));
        }
        if weights.len() > u32::MAX as usize {
            return Err(ParamError::new(
                "weighted sampler supports at most 2^32 bins",
            ));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ParamError::new(
                "weighted sampler weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ParamError::new(
                "weighted sampler weights must not all be zero",
            ));
        }
        if weights.iter().all(|&w| w == weights[0]) {
            return Ok(Self {
                kind: WeightedKind::Uniform(UniformBin::new(weights.len())),
            });
        }
        let n = weights.len();
        // Walker/Vose: split slots into sub-unit ("small") and super-unit
        // ("large") scaled probabilities, then pair each small slot with a
        // large donor.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut packed: Vec<u64> = (0..n as u64).map(pack_always_accept).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            packed[s] = (prob_to_u32(scaled[s]) << 32) | l as u64;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers hold probability 1 (up to round-off): they keep their
        // initial always-accept self-alias entry.
        Ok(Self {
            kind: WeightedKind::Alias { packed },
        })
    }

    /// A Zipf(s)-weighted sampler over `0..n`
    /// (`P(i) ∝ 1/(i+1)^s`; `s = 0` degenerates to uniform) — the skewed
    /// probe distribution of the heterogeneous scenarios, with O(1) draws
    /// instead of the O(log n) CDF search of [`crate::dist::Zipf`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::dist::ParamError`] if `n == 0` or `s` is not
    /// finite and ≥ 0.
    pub fn zipf(n: usize, s: f64) -> Result<Self, crate::dist::ParamError> {
        use crate::dist::ParamError;
        if n == 0 {
            return Err(ParamError::new(
                "weighted sampler support must be non-empty",
            ));
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(ParamError::new("zipf exponent must be finite and >= 0"));
        }
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        Self::new(&weights)
    }

    /// The exclusive upper bound `n` (the number of categories).
    pub fn n(&self) -> usize {
        match &self.kind {
            WeightedKind::Uniform(u) => u.n(),
            WeightedKind::Alias { packed } => packed.len(),
        }
    }

    /// Whether the weights were all equal, i.e. the sampler draws the
    /// exact [`UniformBin`] stream.
    pub fn is_uniform(&self) -> bool {
        matches!(self.kind, WeightedKind::Uniform(_))
    }

    /// Draws one index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let raw = rng.next_u64();
        self.map_raw(raw, rng)
    }

    /// Maps one raw generator output to an index — the widening-multiply
    /// step the batched [`fill_weighted`] applies to pre-pulled blocks.
    ///
    /// In the uniform degeneration this is exactly
    /// [`UniformBin::map_raw`] (with its rare rejection fallback drawing
    /// from `rng`); in the alias case no fallback exists and `rng` is
    /// never touched.
    #[inline]
    pub fn map_raw<R: RngCore + ?Sized>(&self, raw: u64, rng: &mut R) -> usize {
        match &self.kind {
            WeightedKind::Uniform(u) => u.map_raw(raw, rng),
            WeightedKind::Alias { packed } => {
                let m = u128::from(raw) * (packed.len() as u128);
                let i = (m >> 64) as usize;
                // The low product half is the fractional part of
                // raw·n/2⁶⁴ scaled to u64; its top 32 bits are the
                // accept/alias coin.
                let coin = (m as u64) >> 32;
                let entry = packed[i];
                if coin < entry >> 32 {
                    i
                } else {
                    (entry & 0xFFFF_FFFF) as usize
                }
            }
        }
    }

    /// Fills `out` with sequential draws — the same generator stream as
    /// calling [`WeightedBin::sample`] once per slot, mirroring
    /// [`UniformBin::fill_seq`] for the snapshot-read probe path.
    #[inline]
    pub fn fill_seq<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// The packed always-accept entry for slot `i`: threshold `u32::MAX`
/// with a self-alias (the `2⁻³²` coin miss resolves to the same slot).
#[inline]
fn pack_always_accept(i: u64) -> u64 {
    (u64::from(u32::MAX) << 32) | i
}

/// Scales an accept probability in `[0, 1)` to a 32-bit threshold in the
/// high half of a packed entry (Rust float→int casts saturate).
#[inline]
fn prob_to_u32(p: f64) -> u64 {
    (p * (u32::MAX as f64 + 1.0)) as u64 & 0xFFFF_FFFF
}

/// Fills `out` with `count` indices drawn **with replacement** from the
/// weighted distribution — the batch API mirroring
/// [`fill_with_replacement`], and the weighted hot path of the batched
/// round engine.
///
/// `out` is cleared first; its capacity is reused across calls. Generator
/// outputs are pulled in blocks of 32 and mapped through
/// [`WeightedBin::map_raw`], so the per-value work is one widening
/// multiply, one compare, and (on the alias branch) one table load — no
/// division and no branch on the block-pull loop.
///
/// The emitted indices are identical to `count` successive
/// [`WeightedBin::sample`] draws on the same generator state; with all
/// weights equal both are additionally bit-identical to
/// [`fill_with_replacement`] (outside its ~`n/2^64` rejection band).
///
/// ```
/// use kdchoice_prng::{sample::{fill_weighted, WeightedBin}, Xoshiro256PlusPlus};
///
/// # fn main() -> Result<(), kdchoice_prng::dist::ParamError> {
/// let bins = WeightedBin::new(&[1.0, 2.0, 3.0])?;
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let mut out = Vec::new();
/// fill_weighted(&mut rng, &bins, 5, &mut out);
/// assert_eq!(out.len(), 5);
/// assert!(out.iter().all(|&b| b < 3));
/// # Ok(())
/// # }
/// ```
pub fn fill_weighted<R: RngCore + ?Sized>(
    rng: &mut R,
    bins: &WeightedBin,
    count: usize,
    out: &mut Vec<usize>,
) {
    // The uniform degeneration takes the exact uniform batch path
    // (bit-identical stream, see the struct docs).
    if let WeightedKind::Uniform(u) = &bins.kind {
        return fill_with_replacement(rng, u.n(), count, out);
    }
    out.clear();
    if count == 0 {
        return;
    }
    out.reserve(count);
    let WeightedKind::Alias { packed } = &bins.kind else {
        unreachable!("uniform handled above");
    };
    let n = packed.len() as u128;
    let mut raw = [0u64; BLOCK];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(BLOCK);
        for slot in raw[..take].iter_mut() {
            *slot = rng.next_u64();
        }
        // The branchless map of `WeightedBin::map_raw`, with the kind
        // dispatch hoisted out of the block loop: one widening multiply,
        // one table load, one cmov per value (`extend` over the exact-
        // size block iterator skips the per-value capacity check).
        out.extend(raw[..take].iter().map(|&r| {
            let m = u128::from(r) * n;
            let i = (m >> 64) as usize;
            let coin = (m as u64) >> 32;
            let entry = packed[i];
            if coin < entry >> 32 {
                i
            } else {
                (entry & 0xFFFF_FFFF) as usize
            }
        }));
        remaining -= take;
    }
}

/// Fills `out` with `count` indices drawn uniformly at random **with
/// replacement** from `0..n`.
///
/// `out` is cleared first; its capacity is reused across calls, which is the
/// hot path of every allocation round in this workspace. Internally the
/// generator outputs are pulled in blocks of 32 and mapped through the
/// widening multiply of [`UniformBin`], so the per-value work is one
/// multiply and no division; when `rng` is a concrete generator type the
/// whole block loop monomorphizes and inlines.
///
/// The emitted indices are identical to `count` successive
/// [`UniformBin::sample`] draws on the same generator state, except in the
/// astronomically rare rejection band (probability `n / 2^64` per value).
///
/// # Panics
///
/// Panics if `n == 0` and `count > 0`.
///
/// ```
/// use kdchoice_prng::{sample::fill_with_replacement, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let mut out = Vec::new();
/// fill_with_replacement(&mut rng, 10, 5, &mut out);
/// assert_eq!(out.len(), 5);
/// assert!(out.iter().all(|&b| b < 10));
/// ```
pub fn fill_with_replacement<R: RngCore + ?Sized>(
    rng: &mut R,
    n: usize,
    count: usize,
    out: &mut Vec<usize>,
) {
    assert!(n > 0 || count == 0, "cannot sample from an empty range");
    out.clear();
    if count == 0 {
        return;
    }
    out.reserve(count);
    let bins = UniformBin::new(n);
    let mut raw = [0u64; BLOCK];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(BLOCK);
        out.extend(bins.sample_block(rng, &mut raw[..take]));
        remaining -= take;
    }
}

/// Draws `count` **distinct** indices uniformly at random from `0..n` using
/// Robert Floyd's algorithm (Communications of the ACM, 1987).
///
/// Runs in `O(count²)` membership checks, which is optimal in allocations for
/// the small `count` values (≤ a few hundred) used here, and draws exactly
/// `count` random values.
///
/// # Panics
///
/// Panics if `count > n`.
///
/// ```
/// use kdchoice_prng::{sample::sample_distinct, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(2);
/// let s = sample_distinct(&mut rng, 100, 10);
/// let mut dedup = s.clone();
/// dedup.sort_unstable();
/// dedup.dedup();
/// assert_eq!(dedup.len(), 10);
/// ```
pub fn sample_distinct<R: RngCore + ?Sized>(rng: &mut R, n: usize, count: usize) -> Vec<usize> {
    assert!(
        count <= n,
        "cannot draw {count} distinct values from 0..{n}"
    );
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    for j in (n - count)..n {
        let t = rng.gen_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen
}

/// Shuffles `slice` in place with the Fisher–Yates algorithm.
///
/// ```
/// use kdchoice_prng::{sample::shuffle, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(3);
/// let mut v: Vec<u32> = (0..8).collect();
/// shuffle(&mut rng, &mut v);
/// let mut sorted = v.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..8).collect::<Vec<u32>>());
/// ```
pub fn shuffle<R: RngCore + ?Sized, T>(rng: &mut R, slice: &mut [T]) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(0..=i);
        slice.swap(i, j);
    }
}

/// Returns a uniformly random permutation of `0..k`.
///
/// Used to draw the per-round permutations σᵣ of the serialized (k,d)-choice
/// process (Definition 1 in the paper).
///
/// ```
/// use kdchoice_prng::{sample::random_permutation, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(4);
/// let p = random_permutation(&mut rng, 6);
/// let mut sorted = p.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
/// ```
pub fn random_permutation<R: RngCore + ?Sized>(rng: &mut R, k: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..k).collect();
    shuffle(rng, &mut p);
    p
}

/// Picks a uniformly random element index among the minimal elements of
/// `items` under the key function, i.e. an argmin with ties broken uniformly
/// at random (single pass, reservoir style).
///
/// Returns `None` on an empty slice. This is the primitive behind every
/// "least loaded bin, ties broken randomly" step in the workspace.
///
/// ```
/// use kdchoice_prng::{sample::random_argmin, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(5);
/// let loads = [3u32, 1, 1, 2];
/// let i = random_argmin(&mut rng, &loads, |&l| l).unwrap();
/// assert!(i == 1 || i == 2);
/// ```
pub fn random_argmin<R, T, K, F>(rng: &mut R, items: &[T], mut key: F) -> Option<usize>
where
    R: RngCore + ?Sized,
    K: Ord,
    F: FnMut(&T) -> K,
{
    let mut best: Option<(K, usize, u64)> = None;
    let mut ties: u64 = 0;
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        match &mut best {
            None => {
                ties = 1;
                best = Some((k, i, 1));
            }
            Some((bk, bi, _)) => {
                if k < *bk {
                    ties = 1;
                    *bk = k;
                    *bi = i;
                } else if k == *bk {
                    // Reservoir: replace the incumbent with probability 1/ties.
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        *bi = i;
                    }
                }
            }
        }
    }
    best.map(|(_, i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    #[test]
    fn uniform_bin_matches_fill_with_replacement_stream() {
        // The batched fill and scalar UniformBin draws must consume the
        // generator identically (outside the ~2^-50 rejection band).
        let mut a = Xoshiro256PlusPlus::from_u64(99);
        let mut b = Xoshiro256PlusPlus::from_u64(99);
        let mut out = Vec::new();
        fill_with_replacement(&mut a, 12_345, 1000, &mut out);
        let bins = UniformBin::new(12_345);
        let scalar: Vec<usize> = (0..1000).map(|_| bins.sample(&mut b)).collect();
        assert_eq!(out, scalar);
        assert_eq!(a, b, "generator states must coincide after the batch");
    }

    #[test]
    fn fill_seq_matches_scalar_sample_stream() {
        // The sequential slice fill is *defined* as repeated sample();
        // lock the stream identity for both samplers so the snapshot-read
        // probe path cannot drift from the per-request path.
        let bins = UniformBin::new(509);
        let mut a = Xoshiro256PlusPlus::from_u64(0xF111);
        let mut b = Xoshiro256PlusPlus::from_u64(0xF111);
        let mut out = [0usize; 97];
        bins.fill_seq(&mut a, &mut out);
        let scalar: Vec<usize> = (0..97).map(|_| bins.sample(&mut b)).collect();
        assert_eq!(&out[..], &scalar[..]);
        assert_eq!(a, b);

        let weighted = WeightedBin::zipf(64, 1.1).unwrap();
        let mut a = Xoshiro256PlusPlus::from_u64(0xF112);
        let mut b = Xoshiro256PlusPlus::from_u64(0xF112);
        let mut out = [0usize; 97];
        weighted.fill_seq(&mut a, &mut out);
        let scalar: Vec<usize> = (0..97).map(|_| weighted.sample(&mut b)).collect();
        assert_eq!(&out[..], &scalar[..]);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_bin_is_roughly_uniform() {
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let bins = UniformBin::new(8);
        assert_eq!(bins.n(), 8);
        let mut counts = [0u64; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[bins.sample(&mut rng)] += 1;
        }
        let expected = draws as f64 / 8.0;
        for &c in &counts {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket off by {rel}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_bin_rejects_zero() {
        let _ = UniformBin::new(0);
    }

    #[test]
    fn with_replacement_is_in_range() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let mut out = Vec::new();
        fill_with_replacement(&mut rng, 7, 1000, &mut out);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().all(|&b| b < 7));
    }

    #[test]
    fn with_replacement_zero_count_from_empty_is_ok() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let mut out = vec![1, 2, 3];
        fill_with_replacement(&mut rng, 0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn with_replacement_panics_on_empty_range() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let mut out = Vec::new();
        fill_with_replacement(&mut rng, 0, 1, &mut out);
    }

    #[test]
    fn with_replacement_hits_every_bin_eventually() {
        let mut rng = Xoshiro256PlusPlus::from_u64(11);
        let mut out = Vec::new();
        fill_with_replacement(&mut rng, 16, 2000, &mut out);
        let mut seen = [false; 16];
        for &b in &out {
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "coupon collector failure");
    }

    #[test]
    fn distinct_samples_are_distinct_and_in_range() {
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        for count in [0usize, 1, 5, 50, 100] {
            let s = sample_distinct(&mut rng, 100, count);
            assert_eq!(s.len(), count);
            assert!(s.iter().all(|&x| x < 100));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), count);
        }
    }

    #[test]
    fn distinct_full_range_is_a_permutation() {
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut s = sample_distinct(&mut rng, 20, 20);
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn distinct_panics_when_count_exceeds_n() {
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let _ = sample_distinct(&mut rng, 3, 4);
    }

    #[test]
    fn shuffle_of_empty_and_singleton_is_noop() {
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        let mut empty: [u8; 0] = [];
        shuffle(&mut rng, &mut empty);
        let mut one = [42];
        shuffle(&mut rng, &mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn permutation_is_roughly_uniform() {
        // All 6 permutations of 0..3 should appear with frequency ~1/6.
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let mut counts = std::collections::HashMap::new();
        let trials = 6000;
        for _ in 0..trials {
            let p = random_permutation(&mut rng, 3);
            *counts.entry(p).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (_, &c) in counts.iter() {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.03, "permutation frequency {f}");
        }
    }

    #[test]
    fn weighted_bin_rejects_bad_weights() {
        assert!(WeightedBin::new(&[]).is_err());
        assert!(WeightedBin::new(&[1.0, -0.5]).is_err());
        assert!(WeightedBin::new(&[0.0, 0.0]).is_err());
        assert!(WeightedBin::new(&[f64::NAN]).is_err());
        assert!(WeightedBin::new(&[f64::INFINITY, 1.0]).is_err());
        assert!(WeightedBin::zipf(0, 1.0).is_err());
        assert!(WeightedBin::zipf(4, -1.0).is_err());
        assert!(WeightedBin::zipf(4, f64::NAN).is_err());
    }

    #[test]
    fn weighted_bin_equal_weights_degenerates_to_uniform() {
        for weights in [vec![1.0; 7], vec![0.25; 3], vec![42.0]] {
            let w = WeightedBin::new(&weights).unwrap();
            assert!(w.is_uniform(), "{weights:?}");
            assert_eq!(w.n(), weights.len());
        }
        assert!(WeightedBin::zipf(5, 0.0).unwrap().is_uniform());
        assert!(!WeightedBin::new(&[1.0, 2.0]).unwrap().is_uniform());
        assert!(!WeightedBin::zipf(5, 1.0).unwrap().is_uniform());
    }

    #[test]
    fn weighted_bin_equal_weights_matches_uniform_bin_stream() {
        // The uniform degeneration must consume and map the generator
        // exactly like UniformBin — the contract the engine-level
        // uniform/weighted equivalence rests on.
        let n = 12_345;
        let w = WeightedBin::new(&vec![3.0; n]).unwrap();
        let u = UniformBin::new(n);
        let mut a = Xoshiro256PlusPlus::from_u64(77);
        let mut b = Xoshiro256PlusPlus::from_u64(77);
        for _ in 0..2000 {
            assert_eq!(w.sample(&mut a), u.sample(&mut b));
        }
        assert_eq!(a, b, "generator states must coincide");
    }

    #[test]
    fn fill_weighted_matches_scalar_draws() {
        let w = WeightedBin::new(&[0.5, 1.5, 3.0, 0.0, 2.0]).unwrap();
        let mut a = Xoshiro256PlusPlus::from_u64(8);
        let mut b = Xoshiro256PlusPlus::from_u64(8);
        let mut out = Vec::new();
        fill_weighted(&mut a, &w, 500, &mut out);
        let scalar: Vec<usize> = (0..500).map(|_| w.sample(&mut b)).collect();
        assert_eq!(out, scalar);
        assert_eq!(a, b);
    }

    #[test]
    fn fill_weighted_zero_count_clears() {
        let w = WeightedBin::new(&[1.0, 2.0]).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(8);
        let mut out = vec![9, 9];
        fill_weighted(&mut rng, &w, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn weighted_bin_matches_weights_empirically() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let w = WeightedBin::new(&weights).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(21);
        let mut counts = [0u64; 4];
        let trials = 100_000;
        for _ in 0..trials {
            counts[w.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = c as f64 / trials as f64;
            let want = weights[i] / 10.0;
            assert!((f - want).abs() < 0.01, "index {i}: {f} vs {want}");
        }
    }

    #[test]
    fn weighted_bin_never_draws_zero_weight() {
        let w = WeightedBin::new(&[0.0, 1.0, 0.0, 2.0, 0.0]).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(22);
        let mut out = Vec::new();
        fill_weighted(&mut rng, &w, 50_000, &mut out);
        assert!(out.iter().all(|&b| b == 1 || b == 3));
    }

    #[test]
    fn weighted_bin_zipf_is_head_heavy() {
        let w = WeightedBin::zipf(100, 1.0).unwrap();
        assert_eq!(w.n(), 100);
        let mut rng = Xoshiro256PlusPlus::from_u64(23);
        let trials = 30_000;
        let zero_hits = (0..trials).filter(|_| w.sample(&mut rng) == 0).count();
        // P(0) = 1/H_100 ≈ 0.193.
        let f = zero_hits as f64 / trials as f64;
        assert!((f - 0.193).abs() < 0.02, "rank-0 frequency {f}");
    }

    #[test]
    fn argmin_finds_unique_minimum() {
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let v = [5, 4, 1, 9];
        assert_eq!(random_argmin(&mut rng, &v, |&x| x), Some(2));
    }

    #[test]
    fn argmin_empty_is_none() {
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let v: [u8; 0] = [];
        assert_eq!(random_argmin(&mut rng, &v, |&x| x), None);
    }

    #[test]
    fn argmin_ties_are_uniform() {
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        let v = [1, 0, 0, 0];
        let mut counts = [0u32; 4];
        let trials = 9000;
        for _ in 0..trials {
            let i = random_argmin(&mut rng, &v, |&x| x).unwrap();
            counts[i] += 1;
        }
        assert_eq!(counts[0], 0);
        for &c in &counts[1..] {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.03, "tie frequency {f}");
        }
    }
}
