//! The process traits shared by (k,d)-choice and every baseline.
//!
//! Two traits cover the static/dynamic dispatch split:
//!
//! * [`RoundProcess`] — the **monomorphized engine trait**. `run_round` is
//!   generic over the RNG and the height sink, so driving a concrete
//!   process with a concrete generator compiles to a single fully inlined
//!   loop: no vtable call per probe, per tie-break key, or per recorded
//!   height. All drivers ([`crate::run_once`], [`crate::run_trials`],
//!   [`crate::run_sweep`]) take `P: RoundProcess + ?Sized`.
//! * [`BallsIntoBins`] — the **object-safe shim**. Experiment harnesses
//!   that need heterogeneous collections keep storing
//!   `Box<dyn BallsIntoBins>`; every `RoundProcess` gets this trait through
//!   a blanket impl, and `dyn BallsIntoBins` itself implements
//!   [`RoundProcess`], so boxed processes still plug into every driver —
//!   they just pay the (measured, see `BENCH_results.json`) dynamic
//!   dispatch toll.
//!
//! Implement [`RoundProcess`] for new processes; implement
//! [`BallsIntoBins`] directly only for types that must erase their RNG
//! interaction behind `dyn RngCore`.

use std::cell::RefCell;

use rand::RngCore;

use crate::state::LoadVector;

/// Statistics reported by one round of an allocation process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Balls *thrown* this round (drives termination: a run ends when the
    /// configured number of balls has been thrown).
    pub thrown: u32,
    /// Balls actually *placed* this round. Less than `thrown` only for
    /// discarding processes such as SA_{x0} (Definition 3).
    pub placed: u32,
    /// Bins probed this round — the paper's message cost (footnote 1).
    pub probes: u64,
}

/// A consumer of placed-ball heights (§2.1: heights feed the µ_y
/// histogram).
///
/// The generic sink lets the drivers histogram heights inline instead of
/// materializing a per-round `Vec<u32>`; the coupling experiments that do
/// need the individual heights pass a `Vec<u32>`, which is also a sink.
pub trait HeightSink {
    /// Records the height of one placed ball.
    fn record(&mut self, height: u32);
}

impl HeightSink for Vec<u32> {
    #[inline]
    fn record(&mut self, height: u32) {
        self.push(height);
    }
}

/// The null sink, for drivers that only need the bin state (e.g. tracing).
impl HeightSink for () {
    #[inline]
    fn record(&mut self, _height: u32) {}
}

/// A sequential-round balls-into-bins allocation process with a
/// **monomorphized** round step.
///
/// Implementations mutate the shared [`LoadVector`] one round at a time;
/// the drivers own the loop, the RNG, and the metric accumulation, so that
/// *every* process — (k,d)-choice, the baselines, the serialized variant —
/// is measured identically.
///
/// `run_round` is generic over the RNG and sink, which makes this trait
/// not object-safe; box processes as `Box<dyn BallsIntoBins>` (the shim
/// trait) when type erasure is needed.
pub trait RoundProcess {
    /// A short human-readable name, e.g. `"(2,3)-choice"` or `"greedy[2]"`.
    fn name(&self) -> String;

    /// Runs one round: samples bins using `rng`, commits balls into
    /// `state`, and records the height of every placed ball into `heights`.
    ///
    /// A process must throw at least one ball per round
    /// (`RoundStats::thrown ≥ 1`), but may throw fewer than usual on the
    /// final partial round.
    ///
    /// `balls_remaining` is the number of balls the driver still wants
    /// thrown; processes with fixed round sizes may use it to truncate the
    /// final round.
    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized;

    /// Resets any per-run internal state (scratch buffers may be kept).
    /// The default implementation does nothing.
    fn reset(&mut self) {}

    /// Whether every probe this process draws is one generator output
    /// mapped onto `0..n` by the uniform widening multiply
    /// ([`UniformBin::map_raw`], which `rand::lemire_u64` and
    /// `gen_range(0..n)` share). The static drivers then run large fills
    /// on a [`ProbeLookahead`](crate::ProbeLookahead), which prefetches
    /// the bin each buffered output maps to.
    ///
    /// A performance hint only: the lookahead hands out the bare
    /// generator's stream, so a wrong answer costs speed, never a result.
    /// The default is `false`.
    ///
    /// [`UniformBin::map_raw`]: kdchoice_prng::sample::UniformBin::map_raw
    fn uniform_probes(&self) -> bool {
        false
    }
}

/// The object-safe shim over [`RoundProcess`].
///
/// This is the trait experiment harnesses box: `Box<dyn BallsIntoBins>`.
/// Every [`RoundProcess`] implements it via a blanket impl, and
/// `dyn BallsIntoBins` implements [`RoundProcess`] back, so boxed
/// processes run on the same drivers as concrete ones (paying dynamic
/// dispatch per RNG call and a per-round height copy).
pub trait BallsIntoBins {
    /// A short human-readable name, e.g. `"(2,3)-choice"` or `"greedy[2]"`.
    fn name(&self) -> String;

    /// Runs one round through erased RNG/height types. See
    /// [`RoundProcess::run_round`] for the contract.
    fn run_round(
        &mut self,
        state: &mut LoadVector,
        rng: &mut dyn RngCore,
        heights_out: &mut Vec<u32>,
        balls_remaining: u64,
    ) -> RoundStats;

    /// Resets any per-run internal state (scratch buffers may be kept).
    fn reset(&mut self) {}
}

impl<P: RoundProcess> BallsIntoBins for P {
    fn name(&self) -> String {
        RoundProcess::name(self)
    }

    fn run_round(
        &mut self,
        state: &mut LoadVector,
        rng: &mut dyn RngCore,
        heights_out: &mut Vec<u32>,
        balls_remaining: u64,
    ) -> RoundStats {
        RoundProcess::run_round(self, state, rng, heights_out, balls_remaining)
    }

    fn reset(&mut self) {
        RoundProcess::reset(self);
    }
}

thread_local! {
    /// Scratch height buffer for driving `dyn BallsIntoBins` through the
    /// generic drivers; taken (not borrowed) so re-entrant rounds degrade
    /// to a fresh allocation instead of a panic.
    static DYN_HEIGHTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl RoundProcess for dyn BallsIntoBins + '_ {
    fn name(&self) -> String {
        BallsIntoBins::name(self)
    }

    fn run_round<R, S>(
        &mut self,
        state: &mut LoadVector,
        rng: &mut R,
        heights: &mut S,
        balls_remaining: u64,
    ) -> RoundStats
    where
        R: RngCore + ?Sized,
        S: HeightSink + ?Sized,
    {
        let mut buf = DYN_HEIGHTS.with(RefCell::take);
        buf.clear();
        let mut rng = rng;
        let stats = BallsIntoBins::run_round(
            self,
            state,
            &mut rng as &mut dyn RngCore,
            &mut buf,
            balls_remaining,
        );
        for &h in &buf {
            heights.record(h);
        }
        DYN_HEIGHTS.with(|cell| cell.replace(buf));
        stats
    }

    fn reset(&mut self) {
        BallsIntoBins::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A minimal process used to pin down the trait plumbing and the
    /// driver contract.
    struct OneByOne;

    impl RoundProcess for OneByOne {
        fn name(&self) -> String {
            "one-by-one".to_string()
        }

        fn run_round<R, S>(
            &mut self,
            state: &mut LoadVector,
            rng: &mut R,
            heights: &mut S,
            _balls_remaining: u64,
        ) -> RoundStats
        where
            R: RngCore + ?Sized,
            S: HeightSink + ?Sized,
        {
            let bin = rng.gen_range(0..state.n());
            let h = state.add_ball(bin);
            heights.record(h);
            RoundStats {
                thrown: 1,
                placed: 1,
                probes: 1,
            }
        }
    }

    #[test]
    fn shim_trait_is_object_safe() {
        let mut boxed: Box<dyn BallsIntoBins> = Box::new(OneByOne);
        assert_eq!(BallsIntoBins::name(&*boxed), "one-by-one");
        let mut state = LoadVector::new(4);
        let mut rng = kdchoice_prng::Xoshiro256PlusPlus::from_u64(1);
        let mut heights = Vec::new();
        let stats = BallsIntoBins::run_round(&mut *boxed, &mut state, &mut rng, &mut heights, 10);
        assert_eq!(stats.thrown, 1);
        assert_eq!(stats.placed, 1);
        assert_eq!(heights.len(), 1);
        assert_eq!(state.total_balls(), 1);
    }

    #[test]
    fn dyn_process_runs_through_the_generic_trait() {
        // The shim round path: dyn BallsIntoBins as a RoundProcess.
        let mut boxed: Box<dyn BallsIntoBins> = Box::new(OneByOne);
        let process: &mut dyn BallsIntoBins = &mut *boxed;
        let mut state = LoadVector::new(4);
        let mut rng = kdchoice_prng::Xoshiro256PlusPlus::from_u64(2);
        let mut heights: Vec<u32> = Vec::new();
        let stats = RoundProcess::run_round(process, &mut state, &mut rng, &mut heights, 10);
        assert_eq!(stats.placed, 1);
        assert_eq!(heights.len(), 1);
        assert_eq!(RoundProcess::name(process), "one-by-one");
    }

    #[test]
    fn generic_and_dyn_paths_share_one_rng_stream() {
        // Whatever dispatch route a round takes, it must consume the
        // generator identically.
        let run = |use_dyn: bool| {
            let mut p = OneByOne;
            let mut state = LoadVector::new(8);
            let mut rng = kdchoice_prng::Xoshiro256PlusPlus::from_u64(3);
            let mut heights: Vec<u32> = Vec::new();
            for _ in 0..32 {
                if use_dyn {
                    let dyn_p: &mut dyn BallsIntoBins = &mut p;
                    RoundProcess::run_round(dyn_p, &mut state, &mut rng, &mut heights, 32);
                } else {
                    RoundProcess::run_round(&mut p, &mut state, &mut rng, &mut heights, 32);
                }
            }
            (state.loads().to_vec(), heights)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn null_sink_discards_heights() {
        let mut p = OneByOne;
        let mut state = LoadVector::new(4);
        let mut rng = kdchoice_prng::Xoshiro256PlusPlus::from_u64(4);
        let stats = RoundProcess::run_round(&mut p, &mut state, &mut rng, &mut (), 10);
        assert_eq!(stats.placed, 1);
        assert_eq!(state.total_balls(), 1);
    }

    #[test]
    fn round_stats_default_is_zero() {
        let s = RoundStats::default();
        assert_eq!(s.thrown, 0);
        assert_eq!(s.placed, 0);
        assert_eq!(s.probes, 0);
    }
}
