//! Cross-round probe lookahead: a prefetching generator that hands out
//! exactly the stream of the generator it wraps.
//!
//! A (k,d)-choice round on a load array larger than the cache waits on
//! its `d` probe loads, and the next round's loads cannot issue before
//! them: the round's tie draws sit between the two rounds in the
//! generator stream, so the engine does not know the next probes yet.
//! [`ProbeLookahead`] runs the generator [`LOOKAHEAD`] outputs ahead of
//! its consumer and prefetches, for every output it buffers, the cache
//! line that [`UniformBin::map_raw`] would send that output to. Whatever
//! the consumer does with the output (a probe, a tie draw, a rejection
//! retry), the value it gets is unchanged, so every result is
//! bit-identical to a run on the bare generator. When the output becomes
//! a probe, its line is already on its way.
//!
//! [`UniformBin::map_raw`]: kdchoice_prng::sample::UniformBin::map_raw

use kdchoice_prng::{fill_bytes_via_u64, Xoshiro256PlusPlus};
use rand::{Error, RngCore};

use crate::snapshot::prefetch_read;

/// How many generator outputs [`ProbeLookahead`] buffers ahead of its
/// consumer: four rounds of (2,4)-choice, so the next round's probes are
/// always buffered whatever number of tie draws comes between rounds.
pub const LOOKAHEAD: usize = 16;

/// The probed-array size, in bytes, above which the static drivers
/// ([`run_once_on`](crate::run_once_on), [`run_with_trace`](crate::run_with_trace)
/// and the fused round of [`run_once_compact`](crate::run_once_compact))
/// engage [`ProbeLookahead`]: 1 MiB.
///
/// Below it the array stays in a 2 MiB L2, the probe loads are short,
/// and the ring costs more than it saves. This is a property of the
/// input, not a tuning knob. The crossover, measured on a 2-core host
/// with a 2 MiB L2 (change in balls/s with the lookahead forced on,
/// median of 11 interleaved runs in one binary):
///
/// | probed array | (2,4), m = 4n | (1,2), m = n | (4,9), m = n |
/// |---|---|---|---|
/// | 512 KiB | −3 to −7% | −15 to −17% | −17% |
/// | 1 MiB | 0 to +2% | −1 to +3% | −12 to −17% |
/// | 2 MiB | +19 to +32% | +35 to +43% | +8% |
/// | 4 MiB | +96 to +104% | | |
pub const LOOKAHEAD_MIN_BYTES: usize = 1 << 20;

/// Where a uniform probe's load lives: the address map
/// [`ProbeLookahead`] prefetches through.
///
/// A raw output `raw` probes bin `(raw · n) >> 64` (the widening multiply
/// of [`UniformBin::map_raw`]); that bin's load sits in element
/// `bin >> lane_shift` of the store's array. A [`LoadVector`] hands out
/// its `u32` loads ([`LoadVector::probe_map`]), a [`PackedStore`] its
/// packed words ([`PackedStore::probe_map`]). Both arrays keep their
/// length for the whole fill, so the map stays valid while the store
/// mutates; the pointer is only ever prefetched, never dereferenced.
///
/// [`UniformBin::map_raw`]: kdchoice_prng::sample::UniformBin::map_raw
/// [`LoadVector`]: crate::LoadVector
/// [`LoadVector::probe_map`]: crate::LoadVector::probe_map
/// [`PackedStore`]: crate::PackedStore
/// [`PackedStore::probe_map`]: crate::PackedStore::probe_map
#[derive(Debug, Clone, Copy)]
pub struct ProbeMap {
    base: *const u8,
    span: u64,
    lane_shift: u32,
    elem_shift: u32,
    bytes: usize,
}

impl ProbeMap {
    /// The map of `n` bins stored `1 << lane_shift` to an element of
    /// `array`.
    pub(crate) fn over<T>(array: &[T], n: usize, lane_shift: u32) -> Self {
        let elem = std::mem::size_of::<T>();
        debug_assert!(elem.is_power_of_two());
        debug_assert_eq!(array.len(), n.div_ceil(1 << lane_shift));
        Self {
            base: array.as_ptr().cast(),
            span: n as u64,
            lane_shift,
            elem_shift: elem.trailing_zeros(),
            bytes: std::mem::size_of_val(array),
        }
    }

    /// Whether the probed array is larger than [`LOOKAHEAD_MIN_BYTES`],
    /// so that a static driver whose process draws uniform probes
    /// ([`RoundProcess::uniform_probes`](crate::RoundProcess::uniform_probes))
    /// runs on a [`ProbeLookahead`].
    pub fn engages(&self) -> bool {
        self.bytes > LOOKAHEAD_MIN_BYTES
    }

    /// Prefetches the line that `raw`, read as a uniform probe, lands on.
    #[inline(always)]
    fn prefetch(&self, raw: u64) {
        let bin = ((u128::from(raw) * u128::from(self.span)) >> 64) as usize;
        prefetch_read(
            self.base
                .wrapping_add((bin >> self.lane_shift) << self.elem_shift),
        );
    }
}

/// An [`RngCore`] adapter over a [`Xoshiro256PlusPlus`] that keeps the
/// next [`LOOKAHEAD`] outputs in a ring and prefetches, for each output
/// it generates, the cache line [`ProbeMap`] sends it to.
///
/// **Stream contract.** The consumer sees exactly the wrapped
/// generator's stream:
///
/// * `next_u64` returns the same sequence (the ring only delays each
///   output by [`LOOKAHEAD`] generator steps, in order);
/// * `next_u32` is the high half of `next_u64`, as for the bare
///   generator;
/// * `fill_bytes` is [`fill_bytes_via_u64`] over `next_u64`, as for the
///   bare generator.
///
/// So a process driven through the adapter draws the same probes, tie
/// keys and rejection retries as on the bare generator, and its results
/// are bit-identical. The adapter does not know which outputs become
/// probes: tie draws get prefetched too, which costs bandwidth but no
/// latency. See [`LOOKAHEAD_MIN_BYTES`] for when the drivers engage it.
///
/// ```
/// use kdchoice_core::{LoadVector, ProbeLookahead};
/// use kdchoice_prng::Xoshiro256PlusPlus;
/// use rand::RngCore;
///
/// let state = LoadVector::new(1 << 10);
/// let mut ahead = ProbeLookahead::new(Xoshiro256PlusPlus::from_u64(7), state.probe_map());
/// let mut bare = Xoshiro256PlusPlus::from_u64(7);
/// for _ in 0..100 {
///     assert_eq!(ahead.next_u64(), bare.next_u64());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ProbeLookahead {
    inner: Xoshiro256PlusPlus,
    ring: [u64; LOOKAHEAD],
    /// Total outputs handed out; the oldest buffered output is at
    /// `ring[head % LOOKAHEAD]`.
    head: usize,
    map: ProbeMap,
}

impl ProbeLookahead {
    /// Wraps `inner`, pulling and prefetching its first [`LOOKAHEAD`]
    /// outputs.
    pub fn new(mut inner: Xoshiro256PlusPlus, map: ProbeMap) -> Self {
        let ring = std::array::from_fn(|_| {
            let raw = inner.next();
            map.prefetch(raw);
            raw
        });
        Self {
            inner,
            ring,
            head: 0,
            map,
        }
    }
}

impl RngCore for ProbeLookahead {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        let fresh = self.inner.next();
        self.map.prefetch(fresh);
        let out = std::mem::replace(&mut self.ring[self.head % LOOKAHEAD], fresh);
        self.head = self.head.wrapping_add(1);
        out
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Calls `f` out of line. The static drivers run their lookahead fills
/// through it: the bare-generator loop stays inlined in the driver, with
/// the code generation it has without the lookahead, and the lookahead
/// loop gets one copy of its own.
#[inline(never)]
pub(crate) fn out_of_line<T>(f: impl FnOnce() -> T) -> T {
    f()
}
