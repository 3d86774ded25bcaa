//! Runs a workload's traffic against a built system: a warm-up, then
//! the timed window. Shared by the end-to-end and the traced entry
//! points.

use std::time::{Duration, Instant};

use memcom_net::{NetClientStats, NetMetricsSnapshot};
use memcom_serve::{ServeStats, ShardedStore};

use crate::check::{Oracle, RowOracle, ScoreOracle};
use crate::closedloop::{check_reads, reads, ClosedLoop, RowCheck, Versions, Writer, Writes};
use crate::gen::{self, stream, IdStream};
use crate::setup::{System, MODEL};
use crate::spans::Tracer;
use crate::spec::{Front, Op, DELTA_ROWS, SCORE_POOL};
use crate::stats::{cpu_ticks, peak_rss_mb, reset_peak_rss, steal_pct, Samples, Windowed};
use crate::wireloop::{Source, WireLoop};

/// Time windows of a timed window; see [`Windowed`].
pub const WINDOWS: usize = 20;

/// Expected outputs for the served model, built before any timing.
pub fn build_oracle(sys: &System) -> Oracle {
    let snapshot = sys.router().snapshot(MODEL).expect("model registered");
    match sys.spec.op {
        Op::Lookup => Oracle::Rows(RowOracle::build(&snapshot, sys.model.emb())),
        Op::Score => {
            let mut ids = IdStream::new(&sys.spec, 0, stream::SCORE_POOL);
            let pool = (0..SCORE_POOL).map(|_| ids.next()).collect();
            let backend = sys
                .backend
                .as_deref()
                .expect("score workloads carry a head");
            Oracle::Scores(ScoreOracle::build(
                pool,
                backend,
                sys.model.emb(),
                &snapshot,
            ))
        }
    }
}

/// Everything one timed window produced.
#[derive(Default)]
pub struct Measured {
    /// Client-observed latency around each call, microseconds.
    pub lat: Samples,
    /// The same latencies split into time windows of the run.
    pub windows: Windowed,
    /// Gap between a reply and the caller's next call.
    pub late: Windowed,
    /// Wire: time inside `send`/`send_score`.
    pub send_us: Samples,
    pub err_max: f64,
    pub mismatches: Vec<String>,
    pub captured: Vec<(Vec<usize>, Vec<f32>)>,
    /// `refresh`: the writer's record and the reader latency of reads
    /// that overlapped an apply.
    pub writes: Option<Writes>,
    pub overlap_lat: Samples,
    /// Peak resident set from the start of the warm-up to the end of
    /// the timed window, before the benchmark's own post-run checks
    /// allocate.
    pub peak_rss_mb: f64,
    /// Host steal over the timed window, percent of all CPU time.
    pub steal_pct: f64,
    /// Rows the generator sent through the router, warm-up included.
    pub rows_sent: u64,
    /// Requests run in all phases, warm-up included.
    pub attempted_all: u64,
    pub failed_all: u64,
}

pub struct Plan {
    pub warm: Duration,
    pub window: Duration,
}

/// Runs the workload's traffic: warm-up (checked, not timed), then the
/// timed window.
pub fn drive(
    sys: &System,
    oracle: &Oracle,
    seed: u64,
    plan: &Plan,
    tracer: Option<&Tracer>,
    corrupt_at: Option<u64>,
) -> Measured {
    let spec = &sys.spec;
    // Set-up and the oracle build peak higher than serving does; from
    // here on the mark covers only the traffic.
    let reset = reset_peak_rss();
    let mut m = match spec.front {
        Front::Wire => drive_wire(sys, oracle, seed, plan, tracer, corrupt_at),
        Front::InProc if spec.writer => {
            let Oracle::Rows(base) = oracle else {
                unreachable!("refresh serves lookups")
            };
            drive_refresh(sys, base, seed, plan, tracer, corrupt_at)
        }
        Front::InProc => {
            let Oracle::Rows(rows) = oracle else {
                unreachable!("in-process workloads serve lookups")
            };
            drive_closed(sys, rows, seed, plan, tracer, corrupt_at)
        }
    };
    m.rows_sent += sys.probe_rows;
    if let Err(e) = reset {
        m.mismatches
            .push(format!("resetting the peak resident set mark: {e}"));
    }
    m
}

fn drive_wire(
    sys: &System,
    oracle: &Oracle,
    seed: u64,
    plan: &Plan,
    tracer: Option<&Tracer>,
    corrupt_at: Option<u64>,
) -> Measured {
    let spec = &sys.spec;
    let client = sys.client().expect("wire workloads connect a client");
    let mut source = match oracle {
        Oracle::Rows(_) => Source::Ids(IdStream::new(spec, seed, stream::WIRE_IDS)),
        Oracle::Scores(o) => Source::Pool(&o.pool, gen::rng(seed, stream::POOL_PICKS)),
    };
    let quiet = WireLoop {
        client,
        oracle,
        score: spec.op == Op::Score,
        tracer: None,
        corrupt_at: None,
    };
    let warm = quiet.run(&mut source, plan.warm, 1, 0);
    // Room for twice the warm-up's pace.
    let expected =
        2.0 * warm.attempted as f64 * plan.window.as_secs_f64() / plan.warm.as_secs_f64().max(1e-3);
    let ticks = cpu_ticks();
    let main = WireLoop {
        tracer,
        corrupt_at,
        ..quiet
    }
    .run(&mut source, plan.window, WINDOWS, expected as usize);
    let steal = steal_pct(ticks, cpu_ticks());
    let peak_rss = peak_rss_mb() - main.record_mb();
    let attempted = warm.attempted + main.attempted;
    let mut mismatches = warm.mismatches;
    mismatches.extend(main.mismatches);
    Measured {
        lat: main.lat,
        windows: main.windows,
        late: main.gap,
        send_us: main.send_us,
        err_max: main.err_max.max(warm.err_max),
        mismatches,
        captured: main.captured,
        peak_rss_mb: peak_rss,
        steal_pct: steal,
        rows_sent: attempted * spec.ids_per_request as u64,
        attempted_all: attempted,
        failed_all: warm.failed + main.failed,
        ..Measured::default()
    }
}

fn drive_closed(
    sys: &System,
    rows: &RowOracle,
    seed: u64,
    plan: &Plan,
    tracer: Option<&Tracer>,
    corrupt_at: Option<u64>,
) -> Measured {
    let handle = sys.handle();
    let quiet = ClosedLoop {
        handle: &handle,
        spec: &sys.spec,
        check: RowCheck::Oracle(rows),
        tracer: None,
        corrupt_at: None,
    };
    let warm = quiet.run(seed, stream::WARM_CALLER, plan.warm, 1);
    let ticks = cpu_ticks();
    let main = ClosedLoop {
        tracer,
        corrupt_at,
        ..quiet
    }
    .run(seed, stream::TIMED_CALLER, plan.window, WINDOWS);
    let steal = steal_pct(ticks, cpu_ticks());
    let peak_rss = peak_rss_mb() - main.record_mb();
    let mut m = closed_measured(&sys.spec, &warm, main);
    m.mismatches.splice(0..0, warm.mismatches);
    m.peak_rss_mb = peak_rss;
    m.steal_pct = steal;
    m
}

fn closed_measured(
    spec: &crate::spec::Spec,
    warm: &crate::closedloop::Closed,
    main: crate::closedloop::Closed,
) -> Measured {
    let rows = spec.ids_per_request as u64;
    Measured {
        lat: main.lat,
        windows: main.windows,
        late: main.gap,
        err_max: main.err_max.max(warm.err_max),
        mismatches: main.mismatches,
        captured: main.captured,
        rows_sent: (warm.attempted + main.attempted) * rows,
        attempted_all: warm.attempted + main.attempted,
        failed_all: warm.failed + main.failed,
        ..Measured::default()
    }
}

fn drive_refresh(
    sys: &System,
    base: &RowOracle,
    seed: u64,
    plan: &Plan,
    tracer: Option<&Tracer>,
    corrupt_at: Option<u64>,
) -> Measured {
    let spec = &sys.spec;
    let handle = sys.handle();
    // No writer runs during the warm-up: the table is the one first
    // served.
    let warm = ClosedLoop {
        handle: &handle,
        spec,
        check: RowCheck::Oracle(base),
        tracer: None,
        corrupt_at: None,
    }
    .run(seed, stream::WARM_CALLER, plan.warm, 1);
    let versions = Versions::default();
    let writer = Writer {
        router: sys.router(),
        emb: sys.model.emb(),
        spec,
        versions: &versions,
        tracer,
    };
    let ticks = cpu_ticks();
    let (mut main, writes) = std::thread::scope(|scope| {
        let w = scope.spawn(|| writer.run(seed, plan.window));
        let main = ClosedLoop {
            handle: &handle,
            spec,
            check: RowCheck::Versioned(&versions),
            tracer,
            corrupt_at,
        }
        .run(seed, stream::TIMED_CALLER, plan.window, WINDOWS);
        (main, w.join().expect("writer thread panicked"))
    });
    let steal = steal_pct(ticks, cpu_ticks());
    let peak_rss = peak_rss_mb() - main.record_mb();
    // An uncached copy of the store as first served: replaying the
    // deltas on it gives every served version's rows.
    let config = crate::spec::serve_config(Default::default());
    let reference = ShardedStore::build_quantized(
        sys.model.emb(),
        config.n_shards,
        0,
        config.page_size,
        config.dtype,
    )
    .expect("reference store builds");
    let reads = reads(spec, seed, &main.record);
    let deltas = writes.apply_ms.len();
    let checked = check_reads(&reads, sys.model.emb(), reference, spec, seed, deltas);
    let overlap_lat = std::mem::take(&mut main.overlap_lat);
    let mut m = closed_measured(spec, &warm, main);
    m.mismatches.splice(0..0, warm.mismatches);
    match checked {
        Ok(c) => {
            m.err_max = m.err_max.max(c.err_max);
            if let Some(first) = c.first_stale {
                m.mismatches.push(format!(
                    "{} of {} rows read match no snapshot live during the read; first: {first}",
                    c.stale_rows, c.rows
                ));
            }
        }
        Err(msg) => m.mismatches.push(msg),
    }
    m.writes = Some(writes);
    m.overlap_lat = overlap_lat;
    m.peak_rss_mb = peak_rss;
    m.steal_pct = steal;
    m
}

/// Client and server tallies that must agree once traffic has drained.
pub fn reconcile(
    stats: &ServeStats,
    rows_sent: u64,
    net: Option<(&NetMetricsSnapshot, NetClientStats)>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if stats.issued != stats.requests + stats.shed + stats.expired {
        problems.push(format!(
            "router issued {} rows but served {} + shed {} + expired {}",
            stats.issued, stats.requests, stats.shed, stats.expired
        ));
    }
    if stats.issued != rows_sent {
        problems.push(format!(
            "router issued {} rows, the client sent {rows_sent}",
            stats.issued
        ));
    }
    if let Some((metrics, client)) = net {
        let totals = metrics.totals();
        let client_errors =
            client.shed + client.expired + client.shutdown_rejected + client.other_errors;
        if totals.frames_in != client.sent {
            problems.push(format!(
                "server read {} frames, the client sent {}",
                totals.frames_in, client.sent
            ));
        }
        if totals.served != client.served || totals.errors_sent != client_errors {
            problems.push(format!(
                "server answered {} rows replies and {} errors, the client got {} and {}",
                totals.served, totals.errors_sent, client.served, client_errors
            ));
        }
    }
    problems
}

/// Unmeasured applies first, while the allocator settles.
const IDLE_WARM: usize = 10;
/// Pause after each idle apply. Back-to-back applies drift as the
/// allocator and caches settle, and their median moved by ±22 % between
/// runs here; spread over a few seconds the median follows the host's
/// slower swings less.
const IDLE_GAP: Duration = Duration::from_millis(40);

/// Times `n` idle `Router::apply_delta` calls of [`DELTA_ROWS`] fresh
/// rows each; returns the wall times (ms) and the bytes each copied.
pub fn idle_applies(sys: &System, seed: u64, n: usize) -> (Samples, Samples) {
    let mut rng = gen::rng(seed, stream::IDLE_DELTAS);
    let mut apply_ms = Samples::new();
    let mut copied = Samples::new();
    for k in 0..n + IDLE_WARM {
        let (_, _, delta) =
            crate::closedloop::make_delta(sys.model.emb(), sys.spec.vocab, DELTA_ROWS, &mut rng);
        let t0 = Instant::now();
        let old = sys
            .router()
            .apply_delta(MODEL, &delta)
            .expect("delta applies");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // The update is live once the call returns; retiring the old
        // snapshot is the caller's business and is not timed, as in the
        // `refresh` writer.
        drop(old);
        std::thread::sleep(IDLE_GAP);
        if k < IDLE_WARM {
            continue;
        }
        apply_ms.push(ms);
        let snapshot = sys.router().snapshot(MODEL).expect("model registered");
        copied.push(snapshot.cow_copied_bytes() as f64);
    }
    (apply_ms, copied)
}
