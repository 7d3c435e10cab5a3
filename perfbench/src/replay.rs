//! Traced replays of the static fills, built from the layers' public
//! calls. Each replay draws the same generator stream as the untraced
//! scenario run it mirrors, so its result must equal that run's exactly.

use std::time::Instant;

use kdchoice_core::{
    decide_k_least, BinSlab, HeightHistogram, HeightSink, KdChoice, LoadVector, RoundProcess,
    RunResult, StoreKind,
};
use kdchoice_prng::sample::fill_with_replacement;
use kdchoice_prng::Xoshiro256PlusPlus;

use crate::trace::{Sampled, Tracer};

/// Rounds of the `kd.rs` engine per `core.kd` span.
const KD_BATCH: u64 = 1 << 14;
/// Rounds of the compact fill per `core.fill` span.
const COMPACT_BATCH: u64 = 1 << 18;
/// One compact round in this many has its three phases timed.
pub const COMPACT_SAMPLE_EVERY: u64 = 32;

/// Observable queries after a fill: `max_load`, `histogram`, `gap`.
#[derive(Debug, Default, Clone)]
pub struct Observe {
    /// Queries made.
    pub calls: u64,
    /// Seconds spent in them.
    pub busy_s: f64,
}

/// Replays one `StaticScenario` trial on the exact store by calling
/// `RoundProcess::run_round` on a fresh `KdChoice`, timing batches of
/// rounds as `core.kd` spans. Returns the result and the rounds run.
pub fn replay_kd(
    k: usize,
    d: usize,
    n: usize,
    balls: u64,
    seed: u64,
    tracer: &mut Tracer,
    observe: &mut Observe,
) -> (RunResult, u64) {
    let mut process = KdChoice::new(k, d).expect("valid (k,d)");
    let mut state = LoadVector::new(n);
    let mut rng = Xoshiro256PlusPlus::from_u64(seed);
    let mut heights = HeightHistogram::new();
    let (mut thrown, mut rounds, mut messages) = (0u64, 0u64, 0u64);
    while thrown < balls {
        let span = tracer.enter("core.kd");
        let stop = rounds + KD_BATCH;
        while thrown < balls && rounds < stop {
            let stats = process.run_round(&mut state, &mut rng, &mut heights, balls - thrown);
            thrown += u64::from(stats.thrown);
            messages += stats.probes;
            rounds += 1;
        }
        tracer.exit(span);
    }
    let result = observe_fill(
        process.name(),
        n,
        thrown,
        messages,
        rounds,
        seed,
        heights,
        &state,
        tracer,
        observe,
    );
    (result, rounds)
}

/// Per-phase sampled timers of the compact replay.
#[derive(Debug, Clone)]
pub struct CompactTimers {
    /// `sample::fill_with_replacement` (one call per round, `d` draws).
    pub sample: Sampled,
    /// Probe sort plus `decide_k_least`.
    pub decide: Sampled,
    /// The round's `BinStore::add_ball` commits, timed together.
    pub store: Sampled,
}

impl Default for CompactTimers {
    fn default() -> Self {
        Self {
            sample: Sampled::new(COMPACT_SAMPLE_EVERY),
            decide: Sampled::new(COMPACT_SAMPLE_EVERY),
            store: Sampled::new(COMPACT_SAMPLE_EVERY),
        }
    }
}

/// Replays `run_once_compact(kind, k, d, Uniform, None, ..)` round by
/// round from its public parts — `fill_with_replacement`, the sort,
/// `decide_k_least` over the slab, `add_ball` — on the same generator
/// stream. One round in [`COMPACT_SAMPLE_EVERY`] times its three phases.
#[allow(clippy::too_many_arguments)]
pub fn replay_compact(
    kind: StoreKind,
    k: usize,
    d: usize,
    n: usize,
    balls: u64,
    seed: u64,
    tracer: &mut Tracer,
    timers: &mut CompactTimers,
    observe: &mut Observe,
) -> (RunResult, BinSlab) {
    let mut slab = kind.new_slab(n);
    let mut rng = Xoshiro256PlusPlus::from_u64(seed);
    let mut heights = HeightHistogram::new();
    let mut samples: Vec<usize> = Vec::with_capacity(d);
    let mut slots: Vec<(u32, u64, usize)> = Vec::with_capacity(d);
    let mut winners: Vec<usize> = Vec::with_capacity(k);
    let (mut thrown, mut rounds) = (0u64, 0u64);
    while thrown < balls {
        let span = tracer.enter("core.fill");
        let stop = rounds + COMPACT_BATCH;
        while thrown < balls && rounds < stop {
            let take = (balls - thrown).min(k as u64) as usize;
            // `due()` is called on all three timers each round, so
            // they sample the same rounds.
            let timed = timers.sample.due() & timers.decide.due() & timers.store.due();
            let t0 = timed.then(Instant::now);
            fill_with_replacement(&mut rng, n, d, &mut samples);
            let t1 = timed.then(Instant::now);
            samples.sort_unstable();
            winners.clear();
            decide_k_least(&slab, &samples, take, &mut rng, &mut slots, &mut winners);
            let t2 = timed.then(Instant::now);
            for &(height, _, bin) in &slots[..take] {
                heights.record(height);
                slab.add_ball(bin);
            }
            if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                let t3 = Instant::now();
                timers.sample.record((t1 - t0).as_nanos() as u64);
                timers.decide.record((t2 - t1).as_nanos() as u64);
                timers.store.record((t3 - t2).as_nanos() as u64);
            }
            thrown += take as u64;
            rounds += 1;
        }
        tracer.exit(span);
    }
    let name = format!("({k},{d})-choice@{}", kind.name());
    let span = tracer.enter("core.observe");
    let result = RunResult {
        name,
        n,
        balls_thrown: thrown,
        balls_placed: thrown,
        max_load: slab.max_load(),
        gap: slab.max_load() as f64 - thrown as f64 / n as f64,
        messages: rounds * d as u64,
        rounds,
        load_histogram: slab.histogram(),
        height_histogram: heights.into_counts(),
        seed,
    };
    observe.busy_s += tracer.exit(span);
    observe.calls += 3;
    (result, slab)
}

#[allow(clippy::too_many_arguments)]
fn observe_fill(
    name: String,
    n: usize,
    thrown: u64,
    messages: u64,
    rounds: u64,
    seed: u64,
    heights: HeightHistogram,
    state: &LoadVector,
    tracer: &mut Tracer,
    observe: &mut Observe,
) -> RunResult {
    let span = tracer.enter("core.observe");
    let max_load = state.max_load();
    let load_histogram = state.load_histogram().to_vec();
    let gap = state.gap();
    observe.busy_s += tracer.exit(span);
    observe.calls += 3;
    RunResult {
        name,
        n,
        balls_thrown: thrown,
        balls_placed: thrown,
        max_load,
        gap,
        messages,
        rounds,
        load_histogram,
        height_histogram: heights.into_counts(),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{lossless, same_fill};
    use kdchoice_core::{run_once, run_once_compact, ProbeDistribution, RunConfig};

    #[test]
    fn kd_replay_reproduces_run_once_and_a_wrong_d_does_not() {
        let cfg = RunConfig::new(2048, 5).with_balls(8192);
        let untraced = run_once(&mut KdChoice::new(2, 4).unwrap(), &cfg);
        let mut tracer = Tracer::new();
        let mut obs = Observe::default();
        let (replay, rounds) = replay_kd(2, 4, 2048, 8192, 5, &mut tracer, &mut obs);
        assert!(same_fill(&replay, &untraced));
        assert_eq!(rounds, 4096);
        let (wrong, _) = replay_kd(2, 3, 2048, 8192, 5, &mut tracer, &mut obs);
        assert!(!same_fill(&wrong, &untraced));
    }

    #[test]
    fn compact_replay_reproduces_run_once_compact() {
        let cfg = RunConfig::new(4096, 11).with_balls(8 * 4096);
        let (untraced, _) = run_once_compact(
            StoreKind::Packed4,
            2,
            4,
            &ProbeDistribution::Uniform,
            None,
            &cfg,
        );
        let mut tracer = Tracer::new();
        let (mut timers, mut obs) = (CompactTimers::default(), Observe::default());
        let (replay, slab) = replay_compact(
            StoreKind::Packed4,
            2,
            4,
            4096,
            8 * 4096,
            11,
            &mut tracer,
            &mut timers,
            &mut obs,
        );
        assert!(same_fill(&replay, &untraced));
        assert!(lossless(&slab));
        assert_eq!(timers.sample.calls(), 4 * 4096);
        let (wrong, _) = replay_compact(
            StoreKind::Packed4,
            2,
            3,
            4096,
            8 * 4096,
            11,
            &mut tracer,
            &mut timers,
            &mut obs,
        );
        assert!(!same_fill(&wrong, &untraced));
    }
}
