//! Locks the const-`D` decision kernel behind `decide_k_least` (d ≤ 16)
//! against a reference written out here: expand the tentative slots
//! under the multiplicity rule, one tie key per slot in sorted-probe
//! order, then fully sort them by `(height, tie key, slot)` unless every
//! slot wins (`k == d`, where the slots keep sorted-probe order).
//!
//! Every `d` in 1..=16 and `k` in 1..=d is covered, on probe sets with
//! duplicates, on all-equal loads, and under a generator whose tie keys
//! collide, so the slot index decides. The slots, the winners, the
//! returned height and the generator state afterwards must all match.

use kdchoice_core::{decide_k_least, LoadVector};
use kdchoice_prng::Xoshiro256PlusPlus;
use rand::RngCore;

/// A generator whose outputs take only three values, so tie keys
/// collide and the slot index is what orders equal `(height, key)`.
#[derive(Debug, Clone, PartialEq)]
struct TiedKeys(Xoshiro256PlusPlus);

impl RngCore for TiedKeys {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64() % 3
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

type Slot = (u32, u64, usize);

/// The reference kernel: returns every slot (winners first) and the
/// winners' maximum height.
fn reference<R: RngCore>(
    loads: &LoadVector,
    sorted: &[usize],
    k: usize,
    rng: &mut R,
) -> (Vec<Slot>, u32) {
    let mut slots: Vec<(Slot, usize)> = Vec::new();
    for (i, &bin) in sorted.iter().enumerate() {
        let occ = sorted[..i].iter().filter(|&&b| b == bin).count() as u32 + 1;
        slots.push(((loads.load(bin) + occ, rng.next_u64(), bin), i));
    }
    if k < sorted.len() {
        slots.sort_by_key(|&((height, key, _), i)| (height, key, i));
    }
    let slots: Vec<Slot> = slots.into_iter().map(|(slot, _)| slot).collect();
    let max = slots[..k].iter().map(|s| s.0).max().unwrap();
    (slots, max)
}

/// Runs the kernel and the reference on the same instance and asserts
/// that everything observable agrees.
fn check<R: RngCore + Clone + PartialEq + std::fmt::Debug>(
    loads: &LoadVector,
    probes: &[usize],
    k: usize,
    rng: &R,
    label: &str,
) {
    let mut sorted = probes.to_vec();
    sorted.sort_unstable();
    let (mut rng_kernel, mut rng_ref) = (rng.clone(), rng.clone());
    let (mut slots, mut bins) = (vec![(9, 9, 9)], vec![usize::MAX]);
    let max = decide_k_least(loads, &sorted, k, &mut rng_kernel, &mut slots, &mut bins);
    let (want_slots, want_max) = reference(loads, &sorted, k, &mut rng_ref);
    let want_bins: Vec<usize> = want_slots[..k].iter().map(|s| s.2).collect();
    let d = sorted.len();
    assert_eq!(slots, want_slots, "{label}: slots (k={k}, d={d})");
    assert_eq!(bins[0], usize::MAX, "{label}: bins_out is appended to");
    assert_eq!(bins[1..], want_bins[..], "{label}: winners (k={k}, d={d})");
    assert_eq!(max, want_max, "{label}: max height (k={k}, d={d})");
    assert_eq!(
        rng_kernel, rng_ref,
        "{label}: generator state (k={k}, d={d})"
    );
}

#[test]
fn const_d_kernel_matches_the_reference_for_every_small_d_and_k() {
    let mut draw = Xoshiro256PlusPlus::from_u64(0x5EED);
    let n = 12;
    let mut loads = LoadVector::new(n);
    for _ in 0..40 {
        loads.add_ball((draw.next_u64() % n as u64) as usize);
    }
    let flat = LoadVector::new(n);
    for d in 1..=16usize {
        for k in 1..=d {
            for trial in 0..24u64 {
                // n = 12 bins under d up to 16 probes: duplicates are common.
                let probes: Vec<usize> = (0..d)
                    .map(|_| (draw.next_u64() % n as u64) as usize)
                    .collect();
                let rng = Xoshiro256PlusPlus::from_u64(trial * 1000 + (d * 16 + k) as u64);
                check(&loads, &probes, k, &rng, "loaded");
                check(&flat, &probes, k, &rng, "all-equal loads");
                check(&loads, &probes, k, &TiedKeys(rng.clone()), "tied keys");
                check(
                    &flat,
                    &probes,
                    k,
                    &TiedKeys(rng.clone()),
                    "tied keys, equal loads",
                );
                // Every probe on one bin: heights L+1..=L+d, one run.
                let same = vec![probes[0]; d];
                check(&loads, &same, k, &rng, "one bin");
                // All distinct where possible.
                let distinct: Vec<usize> = (0..d).map(|i| (i * 5 + trial as usize) % 16).collect();
                check(&LoadVector::new(16), &distinct, k, &rng, "distinct");
            }
        }
    }
}

/// Past d = 16 the general `select_nth_unstable_by` path runs: the
/// winners are the reference's first `k` as a multiset, the slots are
/// the same multiset, and the generator is consumed identically.
#[test]
fn general_path_selects_the_same_winners_past_sixteen() {
    let mut draw = Xoshiro256PlusPlus::from_u64(17);
    let n = 20;
    let mut loads = LoadVector::new(n);
    for _ in 0..60 {
        loads.add_ball((draw.next_u64() % n as u64) as usize);
    }
    for d in [17usize, 24, 65] {
        for k in [1, d / 2, d - 1, d] {
            let mut sorted: Vec<usize> = (0..d)
                .map(|_| (draw.next_u64() % n as u64) as usize)
                .collect();
            sorted.sort_unstable();
            let rng = Xoshiro256PlusPlus::from_u64(d as u64 * 31 + k as u64);
            let (mut rng_kernel, mut rng_ref) = (rng.clone(), rng);
            let (mut slots, mut bins) = (Vec::new(), Vec::new());
            let max = decide_k_least(&loads, &sorted, k, &mut rng_kernel, &mut slots, &mut bins);
            let (want_slots, want_max) = reference(&loads, &sorted, k, &mut rng_ref);
            let mut got: Vec<Slot> = slots[..k].to_vec();
            let mut want: Vec<Slot> = want_slots[..k].to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "winning slots (k={k}, d={d})");
            let mut all = slots.clone();
            let mut want_all = want_slots.clone();
            all.sort_unstable();
            want_all.sort_unstable();
            assert_eq!(all, want_all, "slot multiset (k={k}, d={d})");
            let winners: Vec<usize> = slots[..k].iter().map(|s| s.2).collect();
            assert_eq!(bins, winners, "bins_out follows slots (k={k}, d={d})");
            assert_eq!(max, want_max, "max height (k={k}, d={d})");
            assert_eq!(rng_kernel, rng_ref, "generator state (k={k}, d={d})");
        }
    }
}

/// A plain load slice is a view too (the scheduler's worker loads): it
/// decides exactly like a `LoadVector` holding the same loads.
#[test]
fn slice_view_decides_like_a_load_vector() {
    let mut loads = LoadVector::new(8);
    for bin in [0, 0, 3, 5, 5, 5, 7] {
        loads.add_ball(bin);
    }
    let slice: Vec<u32> = loads.loads().to_vec();
    let probes = [0, 1, 3, 3, 5, 7];
    for k in 1..=probes.len() {
        let (mut a, mut b) = (
            Xoshiro256PlusPlus::from_u64(k as u64),
            Xoshiro256PlusPlus::from_u64(k as u64),
        );
        let (mut slots_a, mut bins_a, mut slots_b, mut bins_b) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let ha = decide_k_least(&loads, &probes, k, &mut a, &mut slots_a, &mut bins_a);
        let hb = decide_k_least(&slice[..], &probes, k, &mut b, &mut slots_b, &mut bins_b);
        assert_eq!((ha, &bins_a, &slots_a), (hb, &bins_b, &slots_b));
        assert_eq!(a, b);
    }
}
