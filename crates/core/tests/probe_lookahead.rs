//! Locks the cross-round probe lookahead: `ProbeLookahead` must hand out
//! exactly the bare generator's stream, and the static drivers that
//! engage it on large fills (`run_once_on`, `run_with_trace`, the fused
//! round of `run_once_compact`) must reproduce a round-by-round replay
//! on a bare generator, bit for bit.
//!
//! Every driver test asserts first that the case really engages the
//! lookahead (or really does not, at the threshold), so a shrunken size
//! or a lost `uniform_probes` cannot turn it into a bare-generator test.

mod common;

use common::assert_same;
use kdchoice_baselines::{
    AdaptiveProbing, DChoice, OnePlusBeta, SingleChoice, TruncatedSingleChoice,
};
use kdchoice_core::{
    run_once_on, run_with_trace, EngineVersion, HeightHistogram, KdChoice, LoadVector,
    ProbeDistribution, ProbeLookahead, RoundPolicy, RoundProcess, RunConfig, RunResult, StoreKind,
    TracePoint, LOOKAHEAD, LOOKAHEAD_MIN_BYTES,
};
use kdchoice_prng::Xoshiro256PlusPlus;
use proptest::prelude::*;
use rand::RngCore;

/// Exact bins whose `u32` loads are exactly `LOOKAHEAD_MIN_BYTES`: the
/// largest exact fill that keeps the bare generator.
const AT_THRESHOLD: usize = LOOKAHEAD_MIN_BYTES / 4;

/// Exact bins well above the threshold (2 MiB of loads).
const ABOVE: usize = 1 << 19;

/// Packed bins above the threshold at both lane widths (2 MiB of 4-bit
/// lanes, 4 MiB of 8-bit lanes).
const PACKED_ABOVE: usize = 1 << 22;

/// `run_once_on`'s loop, replayed round by round on a bare generator.
fn replay<P: RoundProcess + ?Sized>(
    process: &mut P,
    config: &RunConfig,
    mut state: LoadVector,
) -> (RunResult, LoadVector) {
    process.reset();
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut heights = HeightHistogram::new();
    let (mut thrown, mut placed, mut messages, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    while thrown < config.balls {
        let stats = process.run_round(&mut state, &mut rng, &mut heights, config.balls - thrown);
        thrown += u64::from(stats.thrown);
        placed += u64::from(stats.placed);
        messages += stats.probes;
        rounds += 1;
    }
    let result = RunResult {
        name: process.name(),
        n: config.n,
        balls_thrown: thrown,
        balls_placed: placed,
        max_load: state.max_load(),
        gap: state.max_load() as f64 - placed as f64 / config.n as f64,
        messages,
        rounds,
        load_histogram: state.load_histogram().to_vec(),
        height_histogram: heights.into_counts(),
        seed: config.seed,
    };
    (result, state)
}

/// Asserts that `run_once_on` over `state` engages the lookahead iff
/// `engaged`, and that its result and final state equal [`replay`]'s.
fn assert_replays<P: RoundProcess + ?Sized>(
    process: &mut P,
    config: &RunConfig,
    state: LoadVector,
    engaged: bool,
) {
    let label = format!("{} n={} seed={}", process.name(), config.n, config.seed);
    assert_eq!(
        process.uniform_probes() && state.probe_map().engages(),
        engaged,
        "engagement: {label}"
    );
    let got = run_once_on(process, config, state.clone());
    let want = replay(process, config, state);
    assert_eq!(got.0, want.0, "result: {label}");
    assert_eq!(got.1, want.1, "final state: {label}");
}

/// A half-full fill ending in a short round for every `k` tested here.
fn half_fill(n: usize, seed: u64) -> RunConfig {
    RunConfig::new(n, seed).with_balls(n as u64 / 2 + 1)
}

#[test]
fn run_once_matches_the_replay_above_the_threshold() {
    for (k, d) in [(1, 2), (2, 4), (4, 9), (8, 16), (9, 17)] {
        let mut p = KdChoice::new(k, d).unwrap();
        assert_replays(
            &mut p,
            &half_fill(ABOVE, d as u64),
            LoadVector::new(ABOVE),
            true,
        );
    }
    for (k, d) in [(2, 4), (3, 9)] {
        let mut p = KdChoice::new(k, d)
            .unwrap()
            .with_policy(RoundPolicy::Unrestricted);
        assert_replays(&mut p, &half_fill(ABOVE, 5), LoadVector::new(ABOVE), true);
    }
    for (k, d) in [(2, 4), (4, 17)] {
        let mut p = KdChoice::new(k, d)
            .unwrap()
            .with_engine(EngineVersion::Legacy);
        assert_replays(&mut p, &half_fill(ABOVE, 6), LoadVector::new(ABOVE), true);
    }
    let mut p = KdChoice::new(2, 3)
        .unwrap()
        .with_engine(EngineVersion::Legacy)
        .with_policy(RoundPolicy::Unrestricted);
    assert_replays(&mut p, &half_fill(ABOVE, 7), LoadVector::new(ABOVE), true);
}

#[test]
fn run_once_on_a_capacity_map_matches_the_replay() {
    let caps: Vec<u32> = (0..ABOVE)
        .map(|i| if i % 10 == 0 { 4 } else { 1 })
        .collect();
    for (k, d) in [(1, 2), (2, 4), (9, 17)] {
        let mut p = KdChoice::new(k, d).unwrap();
        let config = RunConfig::new(ABOVE, 8).with_balls(2 * ABOVE as u64);
        assert_replays(&mut p, &config, LoadVector::with_capacities(&caps), true);
    }
}

#[test]
fn uniform_baselines_match_the_replay() {
    let config = half_fill(ABOVE, 9);
    let fresh = || LoadVector::new(ABOVE);
    assert_replays(&mut SingleChoice::new(), &config, fresh(), true);
    assert_replays(&mut DChoice::new(2).unwrap(), &config, fresh(), true);
    assert_replays(&mut DChoice::new(5).unwrap(), &config, fresh(), true);
    assert_replays(&mut OnePlusBeta::new(0.5).unwrap(), &config, fresh(), true);
    assert_replays(
        &mut AdaptiveProbing::new(1, 8).unwrap(),
        &config,
        fresh(),
        true,
    );
    assert_replays(&mut TruncatedSingleChoice::new(3), &config, fresh(), true);
    // Zipf probes do not use the uniform map: the bare generator runs.
    let zipf = ProbeDistribution::zipf(ABOVE, 1.1).unwrap();
    let mut p = DChoice::new(2).unwrap().with_probes(zipf);
    assert_replays(&mut p, &config, fresh(), false);
}

/// `run_with_trace`'s loop, replayed round by round on a bare generator.
fn replay_trace<P: RoundProcess>(
    process: &mut P,
    config: &RunConfig,
    checkpoints: &[u64],
) -> Vec<TracePoint> {
    let point = |state: &LoadVector, balls: u64| {
        let avg_ceil = (state.total_balls() as f64 / state.n() as f64).ceil() as u32;
        TracePoint {
            balls,
            max_load: state.max_load(),
            gap: state.gap(),
            overloaded_bins: state.nu(avg_ceil + 1),
        }
    };
    process.reset();
    let mut state = LoadVector::new(config.n);
    let mut rng = Xoshiro256PlusPlus::from_u64(config.seed);
    let mut pending = checkpoints
        .iter()
        .copied()
        .filter(|&c| c <= config.balls)
        .peekable();
    let mut trace = Vec::new();
    let mut thrown = 0u64;
    while thrown < config.balls {
        let stats = process.run_round(&mut state, &mut rng, &mut (), config.balls - thrown);
        thrown += u64::from(stats.thrown);
        while pending.next_if(|&c| thrown >= c).is_some() {
            trace.push(point(&state, thrown));
        }
    }
    if trace.last().map(|p| p.balls) != Some(thrown) {
        trace.push(point(&state, thrown));
    }
    trace
}

/// Asserts that `run_with_trace` equals [`replay_trace`] on an engaged
/// fill with four checkpoints inside the budget and one past it.
fn assert_trace_replays<P: RoundProcess>(process: &mut P) {
    let n = ABOVE as u64;
    let config = RunConfig::new(ABOVE, 10).with_balls(3 * n / 2);
    let checkpoints = [n / 4, n / 2, n, 5 * n / 4, 2 * n];
    assert!(process.uniform_probes() && LoadVector::new(ABOVE).probe_map().engages());
    let got = run_with_trace(process, &config, &checkpoints);
    let want = replay_trace(process, &config, &checkpoints);
    assert_eq!(got.len(), 5, "{}: four checkpoints + final", process.name());
    assert_eq!(got, want, "{}", process.name());
}

#[test]
fn run_with_trace_matches_the_replay_above_the_threshold() {
    assert_trace_replays(&mut KdChoice::new(2, 4).unwrap());
    assert_trace_replays(&mut KdChoice::new(9, 17).unwrap());
    assert_trace_replays(
        &mut KdChoice::new(1, 2)
            .unwrap()
            .with_engine(EngineVersion::Legacy),
    );
    assert_trace_replays(&mut SingleChoice::new());
}

/// The compact kinds the lookahead serves, each at a size above the
/// threshold.
const COMPACT_ABOVE: [(StoreKind, usize); 3] = [
    (StoreKind::Exact, ABOVE),
    (StoreKind::Packed4, PACKED_ABOVE),
    (StoreKind::Packed8, PACKED_ABOVE),
];

#[test]
fn compact_fills_match_the_reference_above_the_threshold() {
    let uniform = ProbeDistribution::Uniform;
    for (kind, n) in COMPACT_ABOVE {
        assert!(kind.new_slab(n).probe_map().unwrap().engages(), "{kind:?}");
        let config = RunConfig::new(n, 12).with_balls(ABOVE as u64 / 2 + 1);
        for (k, d) in [(1, 2), (2, 4), (4, 9), (8, 16)] {
            assert_same(kind, k, d, &uniform, None, &config);
        }
    }
    let caps: Vec<u32> = (0..ABOVE).map(|i| if i % 7 == 0 { 3 } else { 1 }).collect();
    let config = half_fill(ABOVE, 13);
    assert_same(StoreKind::Exact, 2, 4, &uniform, Some(&caps), &config);
}

#[test]
fn fills_on_either_side_of_the_threshold_match() {
    for (n, engaged) in [(AT_THRESHOLD, false), (AT_THRESHOLD + 1, true)] {
        let mut p = KdChoice::new(2, 4).unwrap();
        assert_replays(&mut p, &half_fill(n, 14), LoadVector::new(n), engaged);
        let map = StoreKind::Exact.new_slab(n).probe_map().unwrap();
        assert_eq!(map.engages(), engaged, "exact slab n={n}");
        assert_same(
            StoreKind::Exact,
            2,
            4,
            &ProbeDistribution::Uniform,
            None,
            &half_fill(n, 15),
        );
    }
    // Sixteen 4-bit lanes per 8-byte word: 2^21 bins fill 1 MiB exactly.
    let packed_at = LOOKAHEAD_MIN_BYTES * 2;
    for (n, engaged) in [(packed_at, false), (packed_at + 1, true)] {
        let map = StoreKind::Packed4.new_slab(n).probe_map().unwrap();
        assert_eq!(map.engages(), engaged, "packed4 n={n}");
        let config = RunConfig::new(n, 16).with_balls(ABOVE as u64 / 2 + 1);
        assert_same(
            StoreKind::Packed4,
            2,
            4,
            &ProbeDistribution::Uniform,
            None,
            &config,
        );
    }
    // A sketch never engages: its estimate is not one address.
    assert!(StoreKind::Sketch
        .new_slab(PACKED_ABOVE)
        .probe_map()
        .is_none());
}

/// One draw from a generator, recorded for comparison.
#[derive(Debug, PartialEq)]
enum Draw {
    U64(u64),
    U32(u32),
    Bytes(Vec<u8>),
    Lemire(u64),
}

/// Applies draw `op` (0..4: `next_u64`, `next_u32`, `fill_bytes`,
/// `lemire_u64`) with parameter `param` to `rng`.
fn draw<R: RngCore>(rng: &mut R, op: u8, param: u64) -> Draw {
    match op {
        0 => Draw::U64(rng.next_u64()),
        1 => Draw::U32(rng.next_u32()),
        2 => {
            // Odd lengths leave a partial last chunk.
            let mut buf = vec![0u8; (param % 40) as usize | 1];
            rng.fill_bytes(&mut buf);
            Draw::Bytes(buf)
        }
        // Spans past 2^63 reject about half their draws: retries mid-stream.
        _ => Draw::Lemire(rand::lemire_u64(rng, param.max(1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of draws returns the bare generator's values,
    /// and leaves both at the same point of the stream.
    #[test]
    fn lookahead_hands_out_the_bare_stream(
        seed in any::<u64>(),
        n in 1usize..5000,
        ops in prop::collection::vec((0u8..4, any::<u64>()), 0..120),
    ) {
        let state = LoadVector::new(n);
        let mut ahead = ProbeLookahead::new(Xoshiro256PlusPlus::from_u64(seed), state.probe_map());
        let mut bare = Xoshiro256PlusPlus::from_u64(seed);
        for &(op, param) in &ops {
            prop_assert_eq!(draw(&mut ahead, op, param), draw(&mut bare, op, param));
        }
        for _ in 0..2 * LOOKAHEAD {
            prop_assert_eq!(ahead.next_u64(), bare.next_u64());
        }
    }
}
