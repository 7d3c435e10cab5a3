//! The general `run_once_compact` loop written out from public parts,
//! shared by the suites that lock the compact fill against it.

use kdchoice_core::{
    run_once_compact, BinSlab, HeightHistogram, HeightSink, ProbeDistribution, RunConfig,
    RunResult, StoreKind,
};
use kdchoice_prng::sample::fill_with_replacement;
use kdchoice_prng::Xoshiro256PlusPlus;
use rand::RngCore;

/// The general compact loop, replayed ball for ball from public parts.
pub fn replay(
    kind: StoreKind,
    k: usize,
    d: usize,
    probes: &ProbeDistribution,
    capacities: Option<&[u32]>,
    config: &RunConfig,
) -> (RunResult, BinSlab) {
    let n = config.n;
    let mut slab = match capacities {
        None => kind.new_slab(n),
        Some(caps) => kind.slab_with_capacities(caps),
    };
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut heights = HeightHistogram::new();
    let mut samples = Vec::new();
    let (mut thrown, mut rounds) = (0u64, 0u64);
    while thrown < config.balls {
        let take = (config.balls - thrown).min(k as u64) as usize;
        if probes.is_uniform() {
            fill_with_replacement(&mut rng, n, d, &mut samples);
        } else {
            probes.fill(&mut rng, n, d, &mut samples);
        }
        samples.sort_unstable();
        let mut slots: Vec<(u32, u64, usize)> = Vec::new();
        let mut i = 0;
        while i < d {
            let bin = samples[i];
            let base = slab.load(bin);
            let mut occ = 0;
            while i < d && samples[i] == bin {
                occ += 1;
                slots.push((base + occ, rng.next_u64(), bin));
                i += 1;
            }
        }
        if take < d {
            slots.select_nth_unstable_by(take - 1, |a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        }
        for &(height, _, bin) in &slots[..take] {
            heights.record(height);
            slab.add_ball(bin);
        }
        thrown += take as u64;
        rounds += 1;
    }
    let result = RunResult {
        name: format!("({k},{d})-choice@{}", kind.name()),
        n,
        balls_thrown: thrown,
        balls_placed: thrown,
        max_load: slab.max_load(),
        gap: slab.max_load() as f64 - thrown as f64 / n as f64,
        messages: rounds * d as u64,
        rounds,
        load_histogram: slab.histogram(),
        height_histogram: heights.into_counts(),
        seed: config.seed,
    };
    (result, slab)
}

/// Asserts that `run_once_compact` and [`replay`] agree on the result
/// and the final slab.
pub fn assert_same(
    kind: StoreKind,
    k: usize,
    d: usize,
    probes: &ProbeDistribution,
    capacities: Option<&[u32]>,
    config: &RunConfig,
) {
    let got = run_once_compact(kind, k, d, probes, capacities, config);
    let want = replay(kind, k, d, probes, capacities, config);
    let label = format!("{kind:?} k={k} d={d} n={} seed={}", config.n, config.seed);
    assert_eq!(got.0, want.0, "result: {label}");
    assert_eq!(got.1, want.1, "final slab: {label}");
}
