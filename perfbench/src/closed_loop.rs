//! `closed_loop_churn`: `ServiceScenario` with n = 2^16, (2,4)-choice,
//! a window of 1024 live placements per client — per-request place and
//! release with real 2-core contention, no ticks or barriers.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use kdchoice_core::{BinStore, ProbeDistribution};
use kdchoice_prng::sample::UniformBin;
use kdchoice_prng::{derive_seed, Xoshiro256PlusPlus};
use kdchoice_service::{
    AtomicStore, OwnedShardEngine, PlaceScratch, Placement, PlacementService, ServiceReport,
    ServiceScenario, ServiceWorkloadConfig, ShardState, ShardedStore,
};

use crate::checks::{churn_conserved, Checks};
use crate::common::{allocate_backend, scenario_call, Layers, Ops, Rep, SubRun, Workload};
use crate::open_loop::SUBRUNS;
use crate::replay::Observe;
use crate::trace::{Sampled, Tracer};

const N: usize = 1 << 16;
const REQUESTS: usize = 100_000;
const WINDOW: usize = 1024;
/// One place/release/decide/drain call in this many is timed.
const SAMPLE_EVERY: u64 = 16;

fn grid(backend: &str, threads: usize) -> String {
    format!(
        "n={N} k=2 d=4 window={WINDOW} requests={REQUESTS} backend={backend} \
         threads={threads} refresh=64"
    )
}

fn config(backend: &str, threads: usize, seed: u64) -> ServiceWorkloadConfig {
    let spec = kdchoice_expt::GridSpec::parse_str(&grid(backend, threads)).expect("grid");
    let mut cfg = kdchoice_expt::configs_from_grid(&ServiceScenario, &spec, seed)
        .expect("valid")
        .remove(0);
    // The seed trial 0 of the scenario call runs with.
    cfg.seed = derive_seed(seed, 0);
    cfg
}

fn check_report(name: &str, r: &ServiceReport, checks: &mut Checks) {
    checks.check(
        "closed_loop.conservation",
        churn_conserved(r.balls_placed, r.balls_released, r.live_balls, r.conserved),
        || {
            format!(
                "{name}: placed {} released {} live {}",
                r.balls_placed, r.balls_released, r.live_balls
            )
        },
    );
}

fn run_subruns(
    seed: u64,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Rep, Vec<ServiceReport>) {
    let mut rep = Rep::default();
    let mut reports = Vec::new();
    for (name, backend, threads) in SUBRUNS {
        let (runs, _, wall_s) = scenario_call(
            &ServiceScenario,
            &grid(backend, threads),
            1,
            seed,
            tracer.as_deref_mut(),
        );
        let r = runs.into_iter().next().expect("one trial").record;
        check_report(name, &r, checks);
        rep.gaps.push(r.gap);
        rep.ops += r.placements + r.balls_released / 2;
        rep.subruns.push(SubRun {
            name,
            balls: r.balls_placed,
            wall_s,
        });
        reports.push(r);
    }
    (rep, reports)
}

/// The workload.
#[derive(Debug, Default)]
pub struct ClosedLoop;

impl Workload for ClosedLoop {
    fn setup(&mut self, seed: u64) -> f64 {
        let start = Instant::now();
        for (_, backend, threads) in SUBRUNS {
            let cfg = config(backend, threads, seed);
            allocate_backend(
                cfg.backend,
                cfg.bins,
                cfg.shards,
                cfg.threads,
                cfg.snapshot_refresh,
                cfg.store,
            );
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
        let mut observe = Observe::default();
        let mut replay_s = 0.0;

        // striped, 1 client: must reproduce the untraced striped_1t run.
        let cfg = config("striped", 1, seed);
        let span = tracer.enter("replay.striped_1t");
        let service = striped_service(&cfg);
        let (mut place, mut release) = (Sampled::new(SAMPLE_EVERY), Sampled::new(SAMPLE_EVERY));
        let released = striped_client(&service, &cfg, 0, &mut place, &mut release);
        replay_s += tracer.exit(span);
        checks.check(
            "closed_loop.replay",
            service_matches(service.store(), released, &reports[0]),
            || "1-client replay differs from the untraced striped_1t run".to_string(),
        );

        // striped, 2 clients racing; then the same calls on one thread.
        let cfg = config("striped", 2, seed);
        let span = tracer.enter("replay.striped");
        let service = striped_service(&cfg);
        let per_client: Vec<(Sampled, Sampled, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.threads)
                .map(|t| {
                    let (service, cfg) = (&service, &cfg);
                    scope.spawn(move || {
                        let (mut p, mut r) =
                            (Sampled::new(SAMPLE_EVERY), Sampled::new(SAMPLE_EVERY));
                        let released = striped_client(service, cfg, t, &mut p, &mut r);
                        (p, r, released)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        replay_s += tracer.exit(span);
        let (mut place2, mut release2) = (Sampled::new(SAMPLE_EVERY), Sampled::new(SAMPLE_EVERY));
        let mut released2 = 0;
        for (p, r, released) in &per_client {
            place2.merge(p);
            release2.merge(r);
            released2 += released;
        }
        observe_store(service.store(), &mut observe);
        check_replay_store(
            "striped",
            &cfg,
            released2,
            service.store().total_balls(),
            service.store().check_invariants(),
            checks,
        );
        let serial = tracer.span("replay.striped_serial", |_| {
            let service = striped_service(&cfg);
            let (mut p, mut r) = (Sampled::new(SAMPLE_EVERY), Sampled::new(SAMPLE_EVERY));
            for t in 0..cfg.threads {
                striped_client(&service, &cfg, t, &mut p, &mut r);
            }
            p.busy_s() + r.busy_s()
        });
        let busy2 = place2.busy_s() + release2.busy_s();
        layers.set("service.sharded.place_calls", place2.calls() as f64);
        layers.set("service.sharded.place_ns_p50", place2.quantile_ns(0.5));
        layers.set("service.sharded.place_ns_p99", place2.quantile_ns(0.99));
        layers.set("service.sharded.release_ns_p50", release2.quantile_ns(0.5));
        layers.set("service.sharded.busy_s", busy2);
        layers.set("service.sharded.contention_s", busy2 - serial);

        // lock-free, 2 clients racing.
        let cfg = config("lockfree", 2, seed);
        let span = tracer.enter("replay.lockfree");
        let store = AtomicStore::with_kind(cfg.bins, cfg.store);
        let per_client: Vec<(Sampled, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.threads)
                .map(|t| {
                    let (store, cfg) = (&store, &cfg);
                    scope.spawn(move || lockfree_client(store, cfg, t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        replay_s += tracer.exit(span);
        let mut place_lf = Sampled::new(SAMPLE_EVERY);
        let mut released_lf = 0;
        for (p, released) in &per_client {
            place_lf.merge(p);
            released_lf += released;
        }
        observe_store(&store, &mut observe);
        check_replay_store(
            "lockfree",
            &cfg,
            released_lf,
            store.total_balls(),
            store.check_invariants(),
            checks,
        );
        let placements = place_lf.calls() as f64;
        layers.set("service.lockfree.place_ns_p50", place_lf.quantile_ns(0.5));
        layers.set("service.lockfree.place_ns_p99", place_lf.quantile_ns(0.99));
        layers.set("service.lockfree.lost_races", store.lost_races() as f64);
        layers.set(
            "service.lockfree.fallback_commits",
            store.fallback_commits() as f64,
        );
        layers.set(
            "service.lockfree.commit_ratio",
            placements / (placements + store.lost_races() as f64),
        );

        // shared-nothing, 2 owners.
        let cfg = config("shared_nothing", 2, seed);
        let span = tracer.enter("replay.shared_nothing");
        let engine_run = engine_replay(&cfg);
        replay_s += tracer.exit(span);
        check_replay_store(
            "shared_nothing",
            &cfg,
            engine_run.released,
            engine_run.live,
            true,
            checks,
        );
        layers.set(
            "service.engine.decide_ns_p50",
            engine_run.decide.quantile_ns(0.5),
        );
        layers.set("service.engine.drained", engine_run.drained as f64);
        layers.set("service.engine.drain_busy_s", engine_run.drain.busy_s());

        layers.set("core.observe.calls", observe.calls as f64);
        layers.set("core.observe.busy_s", observe.busy_s);
        layers.set_expt(tracer);
        layers.set_subrun_rates(&rep);
        let untraced: f64 = rep.subruns.iter().map(|s| s.wall_s).sum();
        layers.set("trace.overhead_frac", replay_s / untraced - 1.0);
        rep.ops
    }
}

/// Whether a replayed store ends where a 1-client run's report says:
/// the same maximum load, gap, ν_1, live and released balls.
fn service_matches(store: &ShardedStore, released: u64, r: &ServiceReport) -> bool {
    store.max_load() == r.max_load
        && store.gap() == r.gap
        && store.nu(1) == r.nu1
        && store.total_balls() == r.live_balls
        && released == r.balls_released
}

fn striped_service(cfg: &ServiceWorkloadConfig) -> PlacementService {
    PlacementService::new(
        ShardedStore::with_kind(cfg.bins, cfg.shards, cfg.store),
        cfg.k,
        cfg.d,
    )
    .expect("valid service")
}

/// One closed-loop client of `run_service_workload`'s striped backend:
/// `PlacementService::place`, releasing the oldest placement once more
/// than `window` are live. Returns the balls released.
fn striped_client(
    service: &PlacementService,
    cfg: &ServiceWorkloadConfig,
    client: usize,
    place: &mut Sampled,
    release: &mut Sampled,
) -> u64 {
    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(cfg.seed, client as u64));
    let mut live: VecDeque<Placement> = VecDeque::with_capacity(cfg.window + 1);
    let mut released = 0;
    for _ in 0..cfg.requests_per_thread {
        let placement = place.time(|| service.place(&mut rng));
        live.push_back(placement);
        if live.len() > cfg.window {
            let oldest = live.pop_front().expect("window > 0");
            released += oldest.bins.len() as u64;
            release.time(|| service.release(&oldest));
        }
    }
    released
}

/// One client of the lock-free backend: `AtomicStore::place_with` and
/// `release`. Returns the place timer and the balls released.
fn lockfree_client(
    store: &AtomicStore,
    cfg: &ServiceWorkloadConfig,
    client: usize,
) -> (Sampled, u64) {
    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(cfg.seed, client as u64));
    let mut probes = vec![0usize; cfg.d];
    let mut scratch = PlaceScratch::new();
    let mut place = Sampled::new(SAMPLE_EVERY);
    let mut live: VecDeque<Placement> = VecDeque::with_capacity(cfg.window + 1);
    let mut released = 0;
    for _ in 0..cfg.requests_per_thread {
        for p in probes.iter_mut() {
            *p = ProbeDistribution::Uniform.sample(&mut rng, cfg.bins);
        }
        let placement = place.time(|| store.place_with(&probes, cfg.k, &mut rng, &mut scratch));
        live.push_back(placement);
        if live.len() > cfg.window {
            let oldest = live.pop_front().expect("window > 0");
            released += oldest.bins.len() as u64;
            store.release(&oldest.bins);
        }
    }
    (place, released)
}

struct EngineRun {
    decide: Sampled,
    drain: Sampled,
    drained: u64,
    released: u64,
    live: u64,
}

/// The shared-nothing closed loop from its public calls: each owner
/// drains its inbox, decides on the snapshot (`OwnedShardEngine::decide`),
/// routes adds and removes (`submit_add` / `submit_remove`), and ends
/// with the done-counter handshake and a final `flush`.
fn engine_replay(cfg: &ServiceWorkloadConfig) -> EngineRun {
    let (engine, states) =
        OwnedShardEngine::with_kind(cfg.bins, cfg.threads, cfg.snapshot_refresh, cfg.store);
    let sampler = UniformBin::new(cfg.bins);
    let done = AtomicUsize::new(0);
    let per_worker: Vec<(ShardState, Sampled, Sampled, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(w, mut state)| {
                let (engine, done, sampler) = (&engine, &done, &sampler);
                scope.spawn(move || {
                    let mut rng = Xoshiro256PlusPlus::from_u64(derive_seed(cfg.seed, w as u64));
                    let mut probes = vec![0usize; cfg.d];
                    let mut slots = Vec::with_capacity(cfg.d);
                    let mut live: VecDeque<Placement> = VecDeque::with_capacity(cfg.window + 1);
                    let (mut decide, mut drain) =
                        (Sampled::new(SAMPLE_EVERY), Sampled::new(SAMPLE_EVERY));
                    let (mut drained, mut released) = (0u64, 0u64);
                    for _ in 0..cfg.requests_per_thread {
                        drained += drain.time(|| engine.drain(w, &mut state));
                        sampler.fill_seq(&mut rng, &mut probes);
                        probes.sort_unstable();
                        let mut bins = Vec::with_capacity(cfg.k);
                        let max_height = decide.time(|| {
                            engine.decide(&probes, cfg.k, &mut rng, &mut slots, &mut bins)
                        });
                        for &bin in &bins {
                            engine.submit_add(w, bin, &mut state);
                        }
                        live.push_back(Placement { bins, max_height });
                        if live.len() > cfg.window {
                            let oldest = live.pop_front().expect("window > 0");
                            released += oldest.bins.len() as u64;
                            for &bin in &oldest.bins {
                                engine.submit_remove(w, bin, &mut state);
                            }
                        }
                    }
                    done.fetch_add(1, Ordering::Release);
                    loop {
                        drained += engine.drain(w, &mut state);
                        if done.load(Ordering::Acquire) == cfg.threads && engine.inbox_empty(w) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    engine.flush(&mut state);
                    (state, decide, drain, drained, released)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("owner"))
            .collect()
    });
    let mut run = EngineRun {
        decide: Sampled::new(SAMPLE_EVERY),
        drain: Sampled::new(SAMPLE_EVERY),
        drained: 0,
        released: 0,
        live: 0,
    };
    for (state, decide, drain, drained, released) in &per_worker {
        run.decide.merge(decide);
        run.drain.merge(drain);
        run.drained += drained;
        run.released += released;
        run.live += state.slab().total_balls();
    }
    run
}

/// Times the observable queries a report makes on a finished store.
fn observe_store<S: BinStore + ?Sized>(store: &S, observe: &mut Observe) {
    let start = Instant::now();
    black_box(store.max_load());
    black_box(store.histogram());
    black_box(store.gap());
    observe.busy_s += start.elapsed().as_secs_f64();
    observe.calls += 3;
}

fn check_replay_store(
    name: &str,
    cfg: &ServiceWorkloadConfig,
    released: u64,
    live: u64,
    invariants_ok: bool,
    checks: &mut Checks,
) {
    let placed = (cfg.threads * cfg.requests_per_thread * cfg.k) as u64;
    checks.check(
        "closed_loop.replay_conservation",
        churn_conserved(placed, released, live, invariants_ok),
        || format!("{name} replay: placed {placed} released {released} live {live}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_service::{run_service_workload, ServiceBackend};

    fn replay(cfg: &ServiceWorkloadConfig) -> (PlacementService, u64) {
        let service = striped_service(cfg);
        let (mut p, mut r) = (Sampled::new(4), Sampled::new(4));
        let released = striped_client(&service, cfg, 0, &mut p, &mut r);
        (service, released)
    }

    #[test]
    fn replay_reproduces_run_service_workload_and_a_wrong_d_does_not() {
        let mut cfg = ServiceWorkloadConfig::new(256, 1, 3000, 7);
        cfg.window = 16;
        let report = run_service_workload(&cfg);
        let (service, released) = replay(&cfg);
        assert!(service_matches(service.store(), released, &report));
        let mut wrong = cfg.clone();
        wrong.d = 3;
        let (service, released) = replay(&wrong);
        assert!(!service_matches(service.store(), released, &report));
    }

    #[test]
    fn engine_replay_conserves_balls() {
        let mut cfg = ServiceWorkloadConfig::new(256, 2, 3000, 7);
        cfg.window = 16;
        cfg.backend = ServiceBackend::SharedNothing;
        cfg.snapshot_refresh = 8;
        let run = engine_replay(&cfg);
        let placed = (cfg.threads * cfg.requests_per_thread * cfg.k) as u64;
        assert!(churn_conserved(placed, run.released, run.live, true));
        assert!(run.drained > 0);
    }
}
