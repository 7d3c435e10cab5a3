//! Relaxed-read load views and the shared (k,d)-choice decision kernel.
//!
//! The shared-nothing service backend (`kdchoice-service`) decides
//! placements against **stale** per-bin load information: each shard's
//! owner thread periodically publishes its loads into a
//! [`SharedLoadSnapshot`], and probing threads read those counters with
//! `Relaxed` atomics instead of taking cross-shard locks. That is
//! exactly the regime the 1-2-3-Toolkit line of work analyzes (choices
//! acting on outdated load values), and Park's Theorem 2 envelope is the
//! yardstick the staleness sweep asserts against.
//!
//! [`LoadView`] names the one capability the decision step needs — "what
//! is bin `b`'s load, as far as you know?" — so the same kernel,
//! [`decide_k_least`], serves the exact paths (a [`LoadVector`], a
//! store slab, the striped backend's locked shards, the scheduler's
//! worker loads) and the relaxed path (a snapshot refreshed every `R`
//! commits): one probe sort, one tentative-slot expansion under the
//! multiplicity rule, one tie key per slot, one winner order. The
//! cross-backend equivalence proptests in `kdchoice-service` lock that
//! the backends decide alike.

use std::sync::atomic::{AtomicU32, Ordering};

use rand::RngCore;

use crate::state::LoadVector;

/// Issues a best-effort read prefetch for the cache line holding `*ptr`.
///
/// A pure performance hint: on x86_64 it lowers to `prefetcht0`, which
/// has no memory-safety obligations (the address need not even be
/// mapped); on other targets it is a no-op. This is the crate's single
/// `unsafe` carve-out — the pointer is always derived from a live
/// reference at the call sites.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it cannot fault or write.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// A read-only view of per-bin loads, possibly stale.
///
/// Implementations promise only that `view_load(bin)` is *some*
/// previously published load of `bin` — an exact view ([`LoadVector`])
/// returns the current load, a [`SharedLoadSnapshot`] returns the load
/// as of the owner's last refresh.
pub trait LoadView {
    /// The number of bins visible through this view.
    fn view_n(&self) -> usize;

    /// The (possibly stale) load of `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= view_n()`.
    fn view_load(&self, bin: usize) -> u32;

    /// Hints that `view_load(bin)` is about to be read. Implementations
    /// with a dense backing array prefetch the bin's cache line; the
    /// default is a no-op. Purely advisory — never observable in
    /// results.
    #[inline]
    fn prefetch(&self, bin: usize) {
        let _ = bin;
    }
}

impl LoadView for LoadVector {
    #[inline]
    fn view_n(&self) -> usize {
        self.n()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.load(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        prefetch_read(&self.loads()[bin]);
    }
}

/// A plain load slice is an exact view: the scheduler's worker loads.
impl LoadView for [u32] {
    #[inline]
    fn view_n(&self) -> usize {
        self.len()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self[bin]
    }
}

/// A lock-free array of published per-bin loads.
///
/// One `AtomicU32` per bin, read and written with `Relaxed` ordering:
/// the snapshot carries no synchronization obligations of its own — each
/// counter is an independent monotonically-published value, and the
/// decision kernel tolerates any interleaving of per-bin staleness (that
/// tolerance is the *measured* claim of the staleness-vs-gap sweep, not
/// an assumption).
///
/// Writers are the shard owners (each bin has exactly one writer in the
/// shared-nothing engine); readers are every probing thread.
#[derive(Debug)]
pub struct SharedLoadSnapshot {
    loads: Vec<AtomicU32>,
}

impl SharedLoadSnapshot {
    /// Creates an all-zero snapshot over `n` bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "snapshot needs at least one bin");
        Self {
            loads: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The number of bins.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether the snapshot has zero bins (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Reads the published load of `bin` (`Relaxed`).
    #[inline]
    pub fn get(&self, bin: usize) -> u32 {
        self.loads[bin].load(Ordering::Relaxed)
    }

    /// Publishes `load` as the load of `bin` (`Relaxed`). Only the bin's
    /// owner may call this in the shared-nothing engine.
    #[inline]
    pub fn set(&self, bin: usize, load: u32) {
        self.loads[bin].store(load, Ordering::Relaxed);
    }

    /// Atomically replaces `bin`'s load with `new` iff it still equals
    /// `current` (`AcqRel` on success, `Acquire` on failure).
    ///
    /// This is the commit point of the lock-free CAS-bins backend: a
    /// placement that read `current` during its decide phase commits by
    /// swapping in `current + multiplicity`, and a failure returns the
    /// interfering value (inside `Err`) so the caller can re-probe. The
    /// success ordering is `AcqRel` so a thread that later observes the
    /// new count also observes everything the committer did before it.
    #[inline]
    pub fn compare_exchange(&self, bin: usize, current: u32, new: u32) -> Result<u32, u32> {
        self.loads[bin].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomically adds `delta` to `bin`'s load (`AcqRel`), returning the
    /// previous value. The lock-free backend's bounded-retry fallback:
    /// after too many lost races it commits unconditionally at whatever
    /// the current count is.
    #[inline]
    pub fn fetch_add(&self, bin: usize, delta: u32) -> u32 {
        self.loads[bin].fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomically subtracts `delta` from `bin`'s load (`AcqRel`),
    /// returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if the previous value was less than `delta` — a counter
    /// must never go negative, so an underflow here means a double
    /// release or a rollback of balls that were never committed, and it
    /// is reported instead of silently wrapping.
    #[inline]
    pub fn fetch_sub(&self, bin: usize, delta: u32) -> u32 {
        let prev = self.loads[bin].fetch_sub(delta, Ordering::AcqRel);
        assert!(
            prev >= delta,
            "bin {bin} load underflow: subtracted {delta} from {prev}"
        );
        prev
    }
}

impl LoadView for SharedLoadSnapshot {
    #[inline]
    fn view_n(&self) -> usize {
        self.len()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.get(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        prefetch_read(&self.loads[bin]);
    }
}

/// Largest probe count `d` served by the const-`D` paths: the
/// decision kernel here, the compact fill's fused round and the static
/// engine's `round_small`. The paper's experiments exceed it only in the
/// (16,17) cell and the lazy-path Table 1 cells.
pub(crate) const SMALL_D: usize = 16;

/// Runs `$body` with `$D` bound to the runtime value `$d` as a `const
/// usize` for `1..=SMALL_D`, and `$fallback` otherwise — the one runtime
/// to const-generic dispatch the small-`d` paths share.
macro_rules! with_small_d {
    ($d:expr, |$D:ident| $body:expr, _ => $fallback:expr) => {
        with_small_d!(@arms $d, $D, $body, $fallback; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@arms $d:expr, $D:ident, $body:expr, $fallback:expr; $($n:literal)*) => {
        match $d {
            $($n => {
                const $D: usize = $n;
                $body
            })*
            _ => $fallback,
        }
    };
}
pub(crate) use with_small_d;

/// Sorts `keys` ascending with an odd-even transposition network: `D`
/// unrolled passes of branchless compare-exchanges (`min`/`max` compile
/// to conditional moves, so no comparison mispredicts).
#[inline]
pub(crate) fn sort_network<T: Copy + Ord, const D: usize>(keys: &mut [T; D]) {
    for pass in 0..D {
        let mut j = pass & 1;
        while j + 1 < D {
            let (a, b) = (keys[j], keys[j + 1]);
            keys[j] = a.min(b);
            keys[j + 1] = a.max(b);
            j += 2;
        }
    }
}

/// A ranked tentative slot of the const-`D` kernel, packed so one `u128`
/// compare orders by `(height, tie key, slot)`: the height in bits
/// 96..128, the tie key in bits 32..96 and the slot's index in
/// sorted-probe order in bits 0..32.
pub(crate) type SlotKey = u128;

/// The tentative height of a [`SlotKey`].
#[inline(always)]
pub(crate) fn slot_height(key: SlotKey) -> u32 {
    (key >> 96) as u32
}

/// The tie key of a [`SlotKey`].
#[inline(always)]
fn slot_tie(key: SlotKey) -> u64 {
    (key >> 32) as u64
}

/// The sorted-probe index of a [`SlotKey`].
#[inline(always)]
pub(crate) fn slot_index(key: SlotKey) -> usize {
    key as u32 as usize
}

/// The decision kernel for `d ≤ 16`: expands `sorted` (ascending,
/// duplicates allowed) into one packed key per tentative slot under the
/// multiplicity rule, drawing one tie key per slot in sorted-probe order,
/// and ranks the keys. `keys` has the length of `sorted`, at most
/// [`SMALL_D`]; only the sorting network is monomorphized per length, and
/// a caller whose length is a constant gets the whole kernel unrolled.
///
/// For `k < d` the keys come back sorted ascending, so `keys[..k]` are
/// the winners in `(height, tie key)` order. For `k == d` every slot wins
/// and no sort runs: the keys stay in sorted-probe order. That is exactly
/// what the general path's `select_nth_unstable_by` produces on at most
/// 16 slots (it insertion-sorts them, and skips the call at `k == d`).
///
/// Each distinct bin's load is read once, after a prefetch of the whole
/// probe batch (no RNG use, so the stream is unchanged).
#[inline(always)]
pub(crate) fn rank_slots<V, R>(
    view: &V,
    sorted: &[usize],
    k: usize,
    rng: &mut R,
    keys: &mut [SlotKey],
) where
    V: LoadView + ?Sized,
    R: RngCore + ?Sized,
{
    for &bin in sorted {
        view.prefetch(bin);
    }
    let (mut prev, mut base, mut occ) = (None, 0u32, 0u32);
    for (i, (key, &bin)) in keys.iter_mut().zip(sorted).enumerate() {
        if prev != Some(bin) {
            (prev, base, occ) = (Some(bin), view.view_load(bin), 0);
        }
        occ += 1;
        *key = (SlotKey::from(base + occ) << 96)
            | (SlotKey::from(rng.next_u64()) << 32)
            | i as SlotKey;
    }
    if k < keys.len() {
        with_small_d!(
            keys.len(),
            |D| sort_network::<SlotKey, D>(keys.try_into().expect("length D")),
            _ => unreachable!("the kernel serves d <= SMALL_D")
        );
    }
}

/// The (k,d)-choice decision kernel over any [`LoadView`]: given the
/// probed bins, pick the `k` tentative slots of least `(height, tie
/// key)` under the paper's multiplicity rule.
///
/// `sorted_probes` **must already be sorted ascending** (duplicates
/// allowed — a bin probed `m` times contributes tentative slots at
/// heights `L+1..=L+m`). One `rng.next_u64()` tie key is drawn per
/// tentative slot in sorted-probe order, so a caller replaying the same
/// RNG stream against an exact view reproduces the locked striped path
/// bit for bit.
///
/// On return `slots` holds every tentative slot `(height, tie key, bin)`
/// and `slots[..k]` are the winners; their bins are appended to
/// `bins_out` in the same order. The return value is the maximum
/// tentative height among the winners (equal to the committed maximum
/// height when the view is exact, a snapshot-tentative estimate
/// otherwise). `slots` is caller-provided scratch, cleared on entry.
///
/// **Winner order.** For `d ≤ 16` a const-`D` kernel (packed `u128` keys
/// and a branchless sorting network) runs, and for `k < d` the winners
/// come in ascending `(height, tie key)` order — `slots` is fully
/// sorted. For `k == d` every slot wins, in sorted-probe order. For
/// `d > 16` the winners are selected with `select_nth_unstable_by` and
/// their order is unspecified.
///
/// # Panics
///
/// Panics if `k == 0` or `k > sorted_probes.len()`.
pub fn decide_k_least<V, R>(
    view: &V,
    sorted_probes: &[usize],
    k: usize,
    rng: &mut R,
    slots: &mut Vec<(u32, u64, usize)>,
    bins_out: &mut Vec<usize>,
) -> u32
where
    V: LoadView + ?Sized,
    R: RngCore + ?Sized,
{
    assert!(
        k >= 1 && k <= sorted_probes.len(),
        "need 1 <= k <= d tentative slots (k={k}, d={})",
        sorted_probes.len()
    );
    let d = sorted_probes.len();
    if d > SMALL_D {
        return decide_general(view, sorted_probes, k, rng, slots, bins_out);
    }
    let mut buf = [0 as SlotKey; SMALL_D];
    let keys = &mut buf[..d];
    rank_slots(view, sorted_probes, k, rng, keys);
    slots.clear();
    slots.extend(keys.iter().map(|&key| {
        (
            slot_height(key),
            slot_tie(key),
            sorted_probes[slot_index(key)],
        )
    }));
    let mut max_height = 0;
    for &key in &keys[..k] {
        max_height = max_height.max(slot_height(key));
        bins_out.push(sorted_probes[slot_index(key)]);
    }
    max_height
}

/// [`decide_k_least`] for `d > 16`: a `Vec` of slots and a
/// `select_nth_unstable_by` partition.
fn decide_general<V, R>(
    view: &V,
    sorted_probes: &[usize],
    k: usize,
    rng: &mut R,
    slots: &mut Vec<(u32, u64, usize)>,
    bins_out: &mut Vec<usize>,
) -> u32
where
    V: LoadView + ?Sized,
    R: RngCore + ?Sized,
{
    slots.clear();
    // Issue the whole batch's prefetches before the first load read:
    // the expansion loop's cache misses then resolve in parallel
    // (memory-level parallelism) instead of serially in probe order.
    // Prefetching consumes no RNG, so the decision stream is unchanged.
    for &bin in sorted_probes {
        view.prefetch(bin);
    }
    let mut i = 0;
    while i < sorted_probes.len() {
        let bin = sorted_probes[i];
        let base = view.view_load(bin);
        let mut occ = 0u32;
        while i < sorted_probes.len() && sorted_probes[i] == bin {
            occ += 1;
            slots.push((base + occ, rng.next_u64(), bin));
            i += 1;
        }
    }
    if k < slots.len() {
        slots.select_nth_unstable_by(k - 1, |a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    }
    let mut max_height = 0;
    for &(height, _, bin) in &slots[..k] {
        max_height = max_height.max(height);
        bins_out.push(bin);
    }
    max_height
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

    #[test]
    fn snapshot_reads_back_published_loads() {
        let snapshot = SharedLoadSnapshot::new(8);
        assert_eq!(snapshot.len(), 8);
        assert!(!snapshot.is_empty());
        for bin in 0..8 {
            assert_eq!(snapshot.get(bin), 0);
        }
        snapshot.set(3, 7);
        snapshot.set(0, 2);
        assert_eq!(snapshot.get(3), 7);
        assert_eq!(snapshot.get(0), 2);
        assert_eq!(snapshot.view_load(3), 7);
        assert_eq!(snapshot.view_n(), 8);
    }

    /// The kernel against an exact `LoadVector` view consumes the RNG
    /// and picks winners exactly like the reference expansion used by
    /// the service-layer equivalence tests.
    #[test]
    fn kernel_matches_reference_expansion_on_exact_view() {
        let mut state = LoadVector::new(6);
        state.add_ball(2);
        state.add_ball(2);
        state.add_ball(4);

        let probes = {
            let mut p = vec![4, 2, 2, 0, 5];
            p.sort_unstable();
            p
        };
        let (mut slots, mut bins) = (Vec::new(), Vec::new());
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let max = decide_k_least(&state, &probes, 2, &mut rng, &mut slots, &mut bins);

        // Reference: expand tentative slots with an identically-seeded RNG.
        let mut rng_ref = Xoshiro256PlusPlus::from_u64(9);
        let mut expected: Vec<(u32, u64, usize)> = Vec::new();
        let mut i = 0;
        while i < probes.len() {
            let bin = probes[i];
            let base = state.load(bin);
            let mut occ = 0;
            while i < probes.len() && probes[i] == bin {
                occ += 1;
                expected.push((base + occ, rng_ref.next_u64(), bin));
                i += 1;
            }
        }
        expected.select_nth_unstable_by(1, |a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let expected_bins: Vec<usize> = expected[..2].iter().map(|s| s.2).collect();
        let expected_max = expected[..2].iter().map(|s| s.0).max().unwrap();
        assert_eq!(bins, expected_bins);
        assert_eq!(max, expected_max);
    }

    /// A stale view changes the decision, not the mechanics: winners
    /// still come from the probed set and heights reflect the snapshot.
    #[test]
    fn kernel_decides_from_the_stale_view_not_the_truth() {
        let snapshot = SharedLoadSnapshot::new(4);
        // Truth would say bin 0 is overloaded, but the snapshot is stale
        // and still calls it empty — the kernel must pick bin 0 over a
        // bin the snapshot reports as loaded.
        snapshot.set(1, 5);
        let probes = vec![0, 1];
        let (mut slots, mut bins) = (Vec::new(), Vec::new());
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let max = decide_k_least(&snapshot, &probes, 1, &mut rng, &mut slots, &mut bins);
        assert_eq!(bins, vec![0]);
        assert_eq!(max, 1);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= d")]
    fn kernel_rejects_k_larger_than_d() {
        let state = LoadVector::new(2);
        let mut rng = Xoshiro256PlusPlus::from_u64(0);
        decide_k_least(&state, &[0], 2, &mut rng, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn compare_exchange_commits_only_on_the_expected_value() {
        let snapshot = SharedLoadSnapshot::new(2);
        snapshot.set(0, 3);
        assert_eq!(snapshot.compare_exchange(0, 3, 5), Ok(3));
        assert_eq!(snapshot.get(0), 5);
        // A stale expectation loses the race and reports the interferer.
        assert_eq!(snapshot.compare_exchange(0, 3, 9), Err(5));
        assert_eq!(snapshot.get(0), 5);
    }

    #[test]
    fn fetch_add_and_sub_return_previous_values() {
        let snapshot = SharedLoadSnapshot::new(1);
        assert_eq!(snapshot.fetch_add(0, 4), 0);
        assert_eq!(snapshot.fetch_sub(0, 3), 4);
        assert_eq!(snapshot.get(0), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn fetch_sub_panics_on_underflow() {
        let snapshot = SharedLoadSnapshot::new(1);
        snapshot.set(0, 1);
        snapshot.fetch_sub(0, 2);
    }
}
