//! `open_loop_churn`: `OpenLoopScenario` with n = 2^16, (2,4)-choice,
//! Poisson arrivals at λ = 0.9, exponential lifetimes of mean 64 ticks,
//! batches of 64 — on one schedule, through four backends.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use kdchoice_core::{BinStore, StoreKind};
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_service::{
    OpenLoopConfig, OpenLoopReport, OpenLoopScenario, Placement, ShardedStore, TrafficSchedule,
};

use crate::checks::{all_equal, churn_conserved, gap_in_band, histogram_holds, Checks};
use crate::common::{allocate_backend, scenario_call, Layers, Ops, Rep, SubRun, Workload};
use crate::replay::Observe;
use crate::trace::{quantile, Sampled, Tracer};

const N: usize = 1 << 16;
const K: usize = 2;
const D: usize = 4;
const TICKS: u32 = 2000;
/// `(sub-run, backend, threads)`.
pub const SUBRUNS: [(&str, &str, usize); 4] = [
    ("striped_1t", "striped", 1),
    ("striped", "striped", 2),
    ("shared_nothing", "shared_nothing", 2),
    ("lockfree", "lockfree", 2),
];

fn grid(backend: &str, threads: usize) -> String {
    format!(
        "n={N} k={K} d={D} lambda=0.9 mu=64 batch=64 sample=1 ticks={TICKS} \
         backend={backend} threads={threads} refresh=64"
    )
}

fn config(backend: &str, threads: usize, seed: u64) -> OpenLoopConfig {
    let spec = kdchoice_expt::GridSpec::parse_str(&grid(backend, threads)).expect("grid");
    let mut cfg = kdchoice_expt::configs_from_grid(&OpenLoopScenario, &spec, seed)
        .expect("valid")
        .remove(0);
    // The seed trial 0 of the scenario call runs with.
    cfg.seed = derive_seed(seed, 0);
    cfg
}

/// The schedule-pinned part of a report: event counts and virtual-clock
/// latency statistics, which must not depend on backend or threads.
type EventStream = (u64, u64, u64, u64, u64, f64, f64, f64, u32);

fn event_stream(r: &OpenLoopReport) -> EventStream {
    (
        r.requests_arrived,
        r.requests_committed,
        r.backlog,
        r.balls_placed,
        r.balls_released,
        r.latency_p50,
        r.latency_p99,
        r.latency_mean,
        r.latency_max,
    )
}

fn check_report(name: &str, r: &OpenLoopReport, checks: &mut Checks) {
    checks.check(
        "open_loop.conservation",
        churn_conserved(r.balls_placed, r.balls_released, r.live_balls, r.conserved)
            && histogram_holds(&r.final_histogram, N, r.live_balls),
        || {
            format!(
                "{name}: placed {} released {} live {}",
                r.balls_placed, r.balls_released, r.live_balls
            )
        },
    );
    checks.check(
        "open_loop.gap_band",
        gap_in_band(K, D, N, r.steady_gap_mean),
        || format!("{name}: steady gap {}", r.steady_gap_mean),
    );
}

/// Runs the four sub-runs through the public scenario path.
fn run_subruns(
    seed: u64,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Rep, Vec<OpenLoopReport>) {
    let mut rep = Rep::default();
    let mut reports = Vec::new();
    for (name, backend, threads) in SUBRUNS {
        let (runs, _, wall_s) = scenario_call(
            &OpenLoopScenario,
            &grid(backend, threads),
            1,
            seed,
            tracer.as_deref_mut(),
        );
        let r = runs.into_iter().next().expect("one trial").record;
        check_report(name, &r, checks);
        rep.gaps.push(r.steady_gap_mean);
        rep.ops += r.requests_committed + r.balls_released / K as u64;
        rep.subruns.push(SubRun {
            name,
            balls: r.balls_placed,
            wall_s,
        });
        reports.push(r);
    }
    let streams: Vec<EventStream> = reports.iter().map(event_stream).collect();
    checks.check("open_loop.event_stream", all_equal(&streams), || {
        format!("event streams differ across backends: {streams:?}")
    });
    (rep, reports)
}

/// The workload.
#[derive(Debug, Default)]
pub struct OpenLoop;

impl Workload for OpenLoop {
    fn setup(&mut self, seed: u64) -> f64 {
        let start = Instant::now();
        for (_, backend, threads) in SUBRUNS {
            let cfg = config(backend, threads, seed);
            let schedule =
                TrafficSchedule::generate(&cfg.traffic, cfg.traffic_seed()).expect("valid traffic");
            let slots: Vec<OnceLock<Placement>> = (0..schedule.timings.len())
                .map(|_| OnceLock::new())
                .collect();
            allocate_backend(
                cfg.backend,
                cfg.bins,
                cfg.shards,
                cfg.threads,
                cfg.snapshot_refresh,
                cfg.store,
            );
            drop(black_box((schedule, slots)));
        }
        start.elapsed().as_secs_f64()
    }

    fn rep(&mut self, seed: u64, checks: &mut Checks) -> Rep {
        run_subruns(seed, checks, None).0
    }

    fn traced(
        &mut self,
        seed: u64,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Ops {
        let seed = derive_seed(seed, 0);
        let (rep, reports) = run_subruns(seed, checks, Some(tracer));

        let cfg = config("striped", 1, seed);
        let replay_start = tracer.enter("replay.open_loop");
        let schedule = tracer.span("service.traffic", |_| {
            TrafficSchedule::generate(&cfg.traffic, cfg.traffic_seed()).expect("valid traffic")
        });
        let (untraced, striped_2t) = (&reports[0], &reports[1]);
        checks.check(
            "open_loop.schedule",
            schedule.arrived() == untraced.requests_arrived
                && schedule.committed() == untraced.requests_committed,
            || "regenerated schedule differs from the scenario's".to_string(),
        );
        let replay = replay_striped(&cfg, &schedule, tracer);
        let replay_s = tracer.exit(replay_start);
        checks.check("open_loop.replay", replay.matches(untraced), || {
            "1-thread replay differs from the untraced striped_1t run".to_string()
        });

        let traffic_busy = tracer.busy_s("service.traffic");
        let sharded_busy = replay.place.busy_s() + replay.release.busy_s();
        layers.set("service.traffic.requests", schedule.timings.len() as f64);
        layers.set("service.traffic.busy_s", traffic_busy);
        layers.set("service.sharded.place_calls", replay.place.calls() as f64);
        layers.set(
            "service.sharded.place_ns_p50",
            replay.place.quantile_ns(0.5),
        );
        layers.set(
            "service.sharded.place_ns_p99",
            replay.place.quantile_ns(0.99),
        );
        layers.set(
            "service.sharded.release_ns_p50",
            replay.release.quantile_ns(0.5),
        );
        layers.set("service.sharded.busy_s", sharded_busy);
        layers.set("service.pipeline.ticks", replay.tick_ns.len() as f64);
        layers.set(
            "service.pipeline.tick_us_p50",
            quantile(&replay.tick_ns, 0.5) / 1e3,
        );
        layers.set(
            "service.pipeline.tick_us_p99",
            quantile(&replay.tick_ns, 0.99) / 1e3,
        );
        // The 2-thread striped drive loop beyond a perfect 2-way split of
        // the replayed store work plus the coordinator's serial sampling:
        // barrier waits, lock contention and imbalance.
        layers.set(
            "service.pipeline.coord_s",
            striped_2t.wall_secs - (sharded_busy / 2.0 + replay.observe.busy_s),
        );
        layers.set("core.observe.calls", replay.observe.calls as f64);
        layers.set("core.observe.busy_s", replay.observe.busy_s);
        layers.set_expt(tracer);
        layers.set_subrun_rates(&rep);
        layers.set(
            "trace.overhead_frac",
            replay_s / rep.subruns[0].wall_s - 1.0,
        );
        rep.ops
    }
}

/// What the 1-thread striped replay observed.
struct PipelineReplay {
    histogram: Vec<u64>,
    live: u64,
    steady_gap: f64,
    final_max: u32,
    conserved: bool,
    place: Sampled,
    release: Sampled,
    observe: Observe,
    tick_ns: Vec<u64>,
}

impl PipelineReplay {
    /// Whether the replay reproduced a 1-thread run exactly and
    /// conserved balls.
    fn matches(&self, r: &OpenLoopReport) -> bool {
        self.conserved
            && self.histogram == r.final_histogram
            && self.live == r.live_balls
            && self.steady_gap == r.steady_gap_mean
            && self.final_max == r.final_max_load
    }
}

/// Replays `run_open_loop`'s 1-thread batched striped pipeline tick by
/// tick — `ShardedStore::release` per departure batch, `place_batch` per
/// commit batch on the per-request generators, one merged-histogram
/// sample per tick — timing every batch call and every tick.
fn replay_striped(
    cfg: &OpenLoopConfig,
    schedule: &TrafficSchedule,
    tracer: &mut Tracer,
) -> PipelineReplay {
    assert_eq!(cfg.store, StoreKind::Exact);
    let store = ShardedStore::with_kind(cfg.bins, cfg.shards, cfg.store);
    let mut slots: Vec<Option<Placement>> = vec![None; schedule.timings.len()];
    let ticks = cfg.traffic.ticks as usize;
    let half = cfg.traffic.ticks / 2;
    let mut out = PipelineReplay {
        histogram: Vec::new(),
        live: 0,
        steady_gap: 0.0,
        final_max: 0,
        conserved: false,
        place: Sampled::new(1),
        release: Sampled::new(1),
        observe: Observe::default(),
        tick_ns: Vec::with_capacity(ticks),
    };
    let (mut steady_sum, mut steady_count) = (0.0, 0usize);
    let (mut placed, mut released) = (0u64, 0u64);
    let mut bins: Vec<usize> = Vec::new();
    let mut probes: Vec<usize> = Vec::new();
    let mut rngs: Vec<Xoshiro256PlusPlus> = Vec::new();
    for t in 0..ticks {
        let span = tracer.enter("service.pipeline.tick");
        let tick_start = Instant::now();
        for batch in schedule.departures[t].chunks(cfg.max_batch) {
            bins.clear();
            for &id in batch {
                let placement = slots[id as usize]
                    .as_ref()
                    .expect("departure precedes commit");
                bins.extend_from_slice(&placement.bins);
            }
            released += bins.len() as u64;
            out.release.time(|| store.release(&bins));
        }
        let (lo, hi) = schedule.commit_ranges[t];
        let mut start = lo;
        while start < hi {
            let end = hi.min(start + cfg.max_batch as u32);
            rngs.clear();
            probes.clear();
            for id in start..end {
                let mut rng = Xoshiro256PlusPlus::from_u64(cfg.request_seed(id));
                probes.extend((0..cfg.d).map(|_| cfg.probes.sample(&mut rng, cfg.bins)));
                rngs.push(rng);
            }
            let placements = out
                .place
                .time(|| store.place_batch(&probes, cfg.d, cfg.k, &mut rngs));
            for (id, placement) in (start..end).zip(placements) {
                placed += placement.bins.len() as u64;
                slots[id as usize] = Some(placement);
            }
            start = end;
        }
        let observe_start = Instant::now();
        let histogram = store.histogram();
        out.observe.busy_s += observe_start.elapsed().as_secs_f64();
        out.observe.calls += 1;
        let mut live = 0u64;
        let mut max = 0u32;
        for (load, &count) in histogram.iter().enumerate() {
            live += count * load as u64;
            if count > 0 {
                max = load as u32;
            }
        }
        let gap = f64::from(max) - live as f64 / store.n() as f64;
        if t as u32 >= half {
            steady_sum += gap;
            steady_count += 1;
        }
        out.final_max = max;
        out.tick_ns.push(tick_start.elapsed().as_nanos() as u64);
        tracer.exit(span);
    }
    out.steady_gap = steady_sum / steady_count as f64;
    out.live = store.total_balls();
    out.histogram = store.histogram();
    out.conserved = churn_conserved(placed, released, out.live, store.check_invariants());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_service::{run_open_loop, ServiceBackend};

    fn small(threads: usize, backend: ServiceBackend) -> OpenLoopConfig {
        let mut cfg = OpenLoopConfig::at_lambda(256, 2, 4, 0.9, 8.0, 300, 17);
        cfg.shards = 4;
        cfg.max_batch = 8;
        cfg.threads = threads;
        cfg.backend = backend;
        cfg
    }

    #[test]
    fn replay_reproduces_run_open_loop_and_a_wrong_d_does_not() {
        let cfg = small(1, ServiceBackend::Striped);
        let report = run_open_loop(&cfg);
        let schedule = TrafficSchedule::generate(&cfg.traffic, cfg.traffic_seed()).unwrap();
        let mut tracer = Tracer::new();
        assert!(replay_striped(&cfg, &schedule, &mut tracer).matches(&report));
        let mut wrong = cfg.clone();
        wrong.d = 3;
        assert!(!replay_striped(&wrong, &schedule, &mut tracer).matches(&report));
    }

    #[test]
    fn event_stream_check_fires_on_a_different_schedule() {
        let one = run_open_loop(&small(1, ServiceBackend::Striped));
        let two = run_open_loop(&small(2, ServiceBackend::LockFree));
        assert!(all_equal(&[event_stream(&one), event_stream(&two)]));
        let mut other = small(2, ServiceBackend::LockFree);
        other.seed += 1;
        let three = run_open_loop(&other);
        assert!(!all_equal(&[event_stream(&one), event_stream(&three)]));
    }
}
