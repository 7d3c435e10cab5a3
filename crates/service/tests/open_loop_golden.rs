//! Golden lock on the single-thread open-loop drivers: the sampled load
//! series, the final histogram and the schedule-derived event-stream
//! fields of `run_open_loop` at `threads = 1`, for every backend driver
//! (striped batched and per-request, shared-nothing at refresh 1 and 64,
//! lock-free) over the exact and packed4 stores at λ ∈ {0.9, 1.3}.
//!
//! The expected values are checked-in data in
//! `fixtures/open_loop_golden.txt`. They were recorded before the drivers
//! moved onto the placement ledger and the coordinator-free tick loop, so
//! any change to which bins a request's balls land in, or which bins its
//! departure frees, shows up here as a diff against the older drivers'
//! output. A deliberate change of stream regenerates the fixture from
//! `run_all()`'s output and says so in CHANGES.md.

use std::fmt::Write as _;

use kdchoice_core::StoreKind;
use kdchoice_service::{
    run_open_loop, OpenLoopConfig, OpenLoopReport, PipelineMode, ServiceBackend,
};

const FIXTURE: &str = include_str!("fixtures/open_loop_golden.txt");
const BINS: usize = 1 << 10;
const TICKS: u32 = 300;
const SEED: u64 = 0x601D_E4C0_FFEE;

/// `(label, backend, mode, snapshot_refresh)` for every driver shape.
const DRIVERS: [(&str, ServiceBackend, PipelineMode, usize); 5] = [
    (
        "striped/batched",
        ServiceBackend::Striped,
        PipelineMode::Batched,
        1,
    ),
    (
        "striped/per_request",
        ServiceBackend::Striped,
        PipelineMode::PerRequest,
        1,
    ),
    (
        "shared_nothing/refresh1",
        ServiceBackend::SharedNothing,
        PipelineMode::Batched,
        1,
    ),
    (
        "shared_nothing/refresh64",
        ServiceBackend::SharedNothing,
        PipelineMode::Batched,
        64,
    ),
    (
        "lockfree",
        ServiceBackend::LockFree,
        PipelineMode::Batched,
        1,
    ),
];
const STORES: [StoreKind; 2] = [StoreKind::Exact, StoreKind::Packed4];
const LAMBDAS: [f64; 2] = [0.9, 1.3];

fn config(
    backend: ServiceBackend,
    mode: PipelineMode,
    refresh: usize,
    store: StoreKind,
    lambda: f64,
) -> OpenLoopConfig {
    let mut cfg = OpenLoopConfig::at_lambda(BINS, 2, 4, lambda, 16.0, TICKS, SEED);
    cfg.backend = backend;
    cfg.mode = mode;
    cfg.snapshot_refresh = refresh;
    cfg.store = store;
    // Not a divisor of the per-tick commit count, so batches straddle
    // tick boundaries' worth of ids in every shape.
    cfg.max_batch = 7;
    cfg.record_events = true;
    cfg
}

/// FNV-1a over the full per-request event stream (arrival, commit and
/// lifetime of every request), so the fixture pins the schedule without
/// listing ~10^4 triples.
fn events_digest(report: &OpenLoopReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for timing in report.events.as_ref().expect("events recorded") {
        for word in [timing.arrival_tick, timing.commit_tick, timing.lifetime] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// One case rendered as fixture lines. Floats print in Rust's shortest
/// round-trip form, so equal text means equal bits.
fn render(label: &str, report: &OpenLoopReport) -> String {
    let mut out = String::new();
    writeln!(out, "case {label}").unwrap();
    writeln!(
        out,
        "events arrived={} committed={} backlog={} placed={} released={} live={} \
         p50={:?} p99={:?} mean={:?} max={} digest={:016x}",
        report.requests_arrived,
        report.requests_committed,
        report.backlog,
        report.balls_placed,
        report.balls_released,
        report.live_balls,
        report.latency_p50,
        report.latency_p99,
        report.latency_mean,
        report.latency_max,
        events_digest(report),
    )
    .unwrap();
    let histogram: Vec<String> = report.final_histogram.iter().map(u64::to_string).collect();
    writeln!(out, "histogram {}", histogram.join(" ")).unwrap();
    // Series entries are `tick:live:max`; the gap is `max − live / n`,
    // recomputed and checked against the report below.
    let series: Vec<String> = report
        .series
        .iter()
        .map(|s| format!("{}:{}:{}", s.tick, s.live_balls, s.max_load))
        .collect();
    writeln!(out, "series {}", series.join(" ")).unwrap();
    out
}

fn run_all() -> String {
    let mut out = String::new();
    for (name, backend, mode, refresh) in DRIVERS {
        for store in STORES {
            for lambda in LAMBDAS {
                let cfg = config(backend, mode, refresh, store, lambda);
                let report = run_open_loop(&cfg);
                assert!(report.conserved, "{name} {store:?} λ={lambda}");
                for s in &report.series {
                    let gap = f64::from(s.max_load) - s.live_balls as f64 / BINS as f64;
                    assert_eq!(s.gap.to_bits(), gap.to_bits(), "{name} tick {}", s.tick);
                }
                let label = format!("{name} store={} lambda={lambda}", store.name());
                out.push_str(&render(&label, &report));
            }
        }
    }
    out
}

#[test]
fn single_thread_drivers_match_the_recorded_fixture() {
    assert_eq!(run_all(), FIXTURE);
}
